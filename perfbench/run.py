"""Benchmark of the semtrack simulate -> track -> evaluate -> write run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload highway_long --seed 1 \
        --seconds 30 --trace 0

Each round drives the stages of ``semtrack eval`` on one seeded workload
of :mod:`perfbench.workloads`: simulate the measurement stream, feed it
frame by frame to ``WindowTracker.process``, evaluate with
``pipeline.evaluate_run`` and write the same artifacts.  Rounds repeat
while another one fits in ``--seconds``; there is always at least one.
Set-up time is the median over fresh interpreters that import semtrack
and build the workload's scenario.  Every timing is CPU time scaled by
the machine's pace (see :mod:`perfbench.pace`); wall times go to the
record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
round with every layer wrapped (see :mod:`perfbench.spans`) and prints
the per-layer metrics with the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the seed, commit, BLAS threads, a digest of the measurement stream and
the accuracy figures, which are also written, with the checks, to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread unless the caller fixed another count; must precede numpy
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

SETUP_REPEATS = 7
# accuracy figures of a round; all but the median RPE vary too much from
# seed to seed to be bounded metrics, so they are checked and recorded
ACCURACY = ("rpe_p50_mm", "ate_rmse_m", "obj_err_pct", "obj_yaw_err_deg")
# camera ATE budget per metre driven: catches a diverged ego window, not
# the occasional one-frame jump of about 1 m (see CHANGES.md)
ATE_PATH_FRACTION = 0.01
YAW_ERR_BUDGET_DEG = 10.0  # mean absolute object yaw error

SETUP_CODE = """\
import sys, time
sys.path[:0] = [{src!r}, {root!r}]
t0 = time.process_time()
import semtrack
from perfbench import workloads
workloads.build_scenario({name!r}, {seed})
print(time.process_time() - t0)
"""


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Put this checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "semtrack" / "__init__.py").is_file():
        _fail(f"no semtrack sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import semtrack
    found = Path(semtrack.__file__).resolve().parent
    if found != (src / "semtrack").resolve():
        _fail(f"semtrack imported from {found}, not {src}")


def _run_python(code, extra_args=()):
    proc = subprocess.run([sys.executable, *extra_args, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"subprocess failed:\n{proc.stderr}")
    return proc


def measure_setup(name, seed, repeats=SETUP_REPEATS):
    """Median CPU seconds, at nominal pace, for a fresh interpreter to
    import semtrack and build the scenario.  The pace is sampled in this
    process before and after each interpreter.  Import time did not follow
    the pace from one interpreter to the next, so the median time is
    scaled by the median pace, which follows the machine's slower drift."""
    from perfbench import pace
    code = SETUP_CODE.format(src=str(ROOT / "src"), root=str(ROOT),
                             name=name, seed=seed)
    pace.kernel()  # warm-up
    paces, cpu = [pace.sample()], []
    for _ in range(repeats):
        cpu.append(float(_run_python(code).stdout.split()[-1]))
        paces.append(pace.sample())
    return float(pace.normalise(np.median(cpu), np.median(paces)))


def measure_imports():
    """(boxinfer module self time, scipy import time) in seconds, from
    ``python -X importtime`` in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); " \
           "import semtrack"
    err = _run_python(code, ("-X", "importtime")).stderr
    boxinfer_us = scipy_us = 0
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        if not fields[0].isdigit():
            continue
        module = fields[2]
        if module == "semtrack.boxinfer":
            boxinfer_us = int(fields[0])
        elif module.startswith("scipy"):
            scipy_us += int(fields[0])
    return boxinfer_us * 1e-6, scipy_us * 1e-6


def stream_digest(frames):
    """SHA-256 over every number and label of a measurement stream."""
    h = hashlib.sha256()
    for frame in frames:
        h.update(np.array([frame.timestamp, frame.feature_sigma,
                           frame.box_sigma]).tobytes())
        for s in frame.semantic:
            h.update(repr((s.object_id, s.label, s.viewpoint.horizontal,
                           s.viewpoint.vertical, s.truncated,
                           s.valid_edges)).encode())
            h.update(s.box.as_array().tobytes())
        if frame.features:
            h.update(np.array([(f.feature_id, f.anchor_id)
                               for f in frame.features]).tobytes())
            h.update(np.array([(*f.left, *f.right)
                               for f in frame.features]).tobytes())
    return h.hexdigest()


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_artifacts(out, frames, times, gt_traj, est_traj, gt_objects,
                    est_objects, metrics, bev, vol):
    """The artifacts of ``semtrack eval``; returns their total bytes."""
    from semtrack import pipeline, simulate as sim
    out.mkdir(parents=True, exist_ok=True)
    for old in out.iterdir():
        old.unlink()
    sim.write_measurements(out / "measurements.jsonl", frames)
    for name, traj in (("camera_est", est_traj), ("camera_gt", gt_traj)):
        pipeline.write_camera_trajectory(out / f"{name}.csv", traj)
    for tag, objects in (("gt", gt_objects), ("est", est_objects)):
        for obj_id, track in sorted(objects.items()):
            pipeline.write_object_trajectory(
                out / f"object_{obj_id}_{tag}.csv",
                [times[t] for t, _ in track], [s for _, s in track])
    with open(out / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, curves in (("curve_bev", bev), ("curve_3d", vol)):
        pipeline._write_curve_csv(out / f"{name}.csv", curves)
    return sum(p.stat().st_size for p in out.iterdir())


def steal_s():
    """Seconds the host has taken this machine's CPUs away, if known."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def drive(name, seed, out, tracer=None):
    """One round: simulate, track, evaluate, write, check.

    Returns a dict of timings, accuracy figures and check failures.  A
    frame whose ``process()`` raises is counted as failed and the round
    goes on with the next frame.  Timings are CPU seconds at nominal
    pace: a pace sample is taken before the first frame and after each,
    and its CPU time is left out of the round's.
    """
    from perfbench import checks, pace, workloads
    from semtrack import metrics as met, pipeline, simulate as sim
    from semtrack.estimator import WindowTracker

    pace.kernel()  # warm-up
    t_start, c_start = time.perf_counter(), time.process_time()
    config, scenario = workloads.build_scenario(name, seed)
    est_cfg = pipeline.estimator_config_from(config.get("estimator", {}),
                                             scenario.dt)
    tracker = WindowTracker(scenario.rig, est_cfg,
                            initial_pose=scenario.camera[0])
    # frames are synthesized as they are tracked, as a stream arrives, so
    # that both timings sample the machine over the whole round
    frames, sim_cpu, track_cpu, track_wall, errors = [], [], [], [], []
    pre_cpu = time.process_time() - c_start
    paces = [pace.sample()]
    for t in range(scenario.n_frames):
        c0 = time.process_time()
        frame = sim.synthesize_frame(scenario, t)
        c1, w1 = time.process_time(), time.perf_counter()
        try:
            tracker.process(frame)
        except Exception as exc:  # counted as a failed frame; go on
            errors.append(f"frame {t}: {type(exc).__name__}: {exc}")
        c2 = time.process_time()
        track_wall.append(time.perf_counter() - w1)
        track_cpu.append(c2 - c1)
        sim_cpu.append(c1 - c0)
        frames.append(frame)
        paces.append(pace.sample())
    t_track, c_track = time.perf_counter(), time.process_time()
    local = pace.local_pace(paces)
    frame_cpu = np.add(sim_cpu, track_cpu)

    faults = checks.pose_faults(tracker.camera_trajectory, len(frames))
    result = {"frames": len(frames), "failed": len(errors),
              "latencies": pace.normalise(track_cpu, local),
              "errors": errors[:5], "pace_ms": 1e3 * float(np.median(paces)),
              "track_wall_s": float(np.sum(track_wall)),
              "track_cpu_s": float(np.sum(track_cpu))}
    times = scenario.timestamps()
    gt_traj = met.Trajectory(times, tuple(scenario.camera))
    gt_objects = {o.object_id: list(enumerate(o.states))
                  for o in scenario.objects}
    # the stream's synthesis time as frames x median frame time, so that a
    # stall of a shared machine in one frame does not count
    result["simulate_s"] = len(sim_cpu) * float(
        np.median(pace.normalise(sim_cpu, local)))
    if faults:
        result["faults"] = faults
        return result
    est_traj = met.Trajectory(times, tuple(tracker.camera_trajectory))
    metrics, bev, vol = pipeline.evaluate_run(
        est_traj, gt_traj, tracker.object_trajectories, gt_objects,
        rpe_step=int(config["evaluation"]["rpe_step"]))
    t_eval = time.perf_counter()
    write_span = (tracer.span("pipeline.write") if tracer
                  else contextlib.nullcontext())
    with write_span:
        n_bytes = write_artifacts(out, frames, times, gt_traj, est_traj,
                                  gt_objects, tracker.object_trajectories,
                                  metrics, bev, vol)
    t_end, c_end = time.perf_counter(), time.process_time()

    # checks, outside every timed region
    own_ate = checks.ate_rmse(est_traj.positions, gt_traj.positions)
    if abs(own_ate - metrics["ate_rmse_m"]) > checks.ATE_AGREE_TOL:
        faults.append(f"ATE {metrics['ate_rmse_m']!r} disagrees with the "
                      f"benchmark's own {own_ate!r}")
    driven = checks.path_length(scenario.camera)
    if own_ate > ATE_PATH_FRACTION * driven:
        faults.append(f"ATE {own_ate:.4f} m above {ATE_PATH_FRACTION} of "
                      f"{driven:.1f} m driven")
    matched, pos_pct, yaw_deg = checks.object_errors(
        scenario, tracker.object_trajectories, tracker.camera_trajectory)
    seen = checks.detected_frames(frames)
    for obj_id, n_seen in sorted(seen.items()):
        if n_seen >= est_cfg.window and obj_id not in matched.values():
            faults.append(f"object {obj_id} detected in {n_seen} frames "
                          "but never tracked")
    if not len(pos_pct):
        faults.append("no object tracked")
    else:
        if pos_pct.mean() > checks.OBJ_ERR_BUDGET_PCT:
            faults.append(f"object error {pos_pct.mean():.2f}% of range "
                          f"above {checks.OBJ_ERR_BUDGET_PCT}%")
        if yaw_deg.mean() > YAW_ERR_BUDGET_DEG:
            faults.append(f"yaw error {yaw_deg.mean():.2f} deg above "
                          f"{YAW_ERR_BUDGET_DEG}")
    result.update(
        faults=faults, eval_s=t_eval - t_track, write_s=t_end - t_eval,
        # each part at the pace measured nearest to it: the round's set-up
        # at the first frame's, evaluation and writing at the last one's
        run_s=float(pace.normalise(pre_cpu, local[0])
                    + pace.normalise(frame_cpu, local).sum()
                    + pace.normalise(c_end - c_track, local[-1])),
        run_wall_s=t_end - t_start, artifact_bytes=n_bytes,
        rpe_p50_mm=1e3 * float(np.median(metrics["rpe_trans"])),
        ate_rmse_m=metrics["ate_rmse_m"],
        obj_err_pct=float(pos_pct.mean()) if len(pos_pct) else None,
        obj_yaw_err_deg=float(yaw_deg.mean()) if len(yaw_deg) else None,
        digest=stream_digest(frames),
        tracks=len(tracker.tracks),
        state_obs=(sum(len(v) for v in tracker.bg_obs.values())
                   + sum(len(tr.feature_obs) + len(tr.semantic_obs)
                         for tr in tracker.tracks.values())))
    return result


def end_to_end(rounds, setup_s):
    lat = np.concatenate([r["latencies"] for r in rounds])
    metric = {
        "setup_s": (setup_s, "s"),
        "simulate_s": (statistics.median(r["simulate_s"] for r in rounds),
                       "s"),
        "track_fps": (len(lat) / float(lat.sum()), "frames/s"),
        "frame_ms_p50": (1e3 * float(np.percentile(lat, 50)), "ms"),
        "frame_ms_p90": (1e3 * float(np.percentile(lat, 90)), "ms"),
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
        "rpe_p50_mm": (rounds[0]["rpe_p50_mm"], "mm"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metric.items()}


def per_layer(tracer, traced, imports):
    """Per-layer metrics of one traced round.

    The tracing overhead is the number of spans in tracking times the cost
    of one span, measured on a no-op in this process: the difference to an
    untraced round is smaller than the run-to-run spread of tracking time.
    """
    from perfbench.spans import span_cost
    s, c = tracer.self_s, tracer.counts
    track_s = tracer.total_s["estimator.glue"]
    in_track = [name for name in s if name.split(".")[0] in
                ("associate", "boxinfer", "estimator", "nls", "residuals")]
    sim_ms = tracer.durations["simulate.frame"]
    pairs = c["associate.ransac_pairs"]
    metric = {
        "simulate.frame_ms": (1e3 * float(np.median(sim_ms)), "ms"),
        "simulate.features": (c["simulate.features"], "count"),
        "associate.ransac_s": (s["associate.ransac"], "s"),
        "associate.ransac_calls": (c["associate.ransac_calls"], "count"),
        "associate.ransac_pairs": (pairs, "count"),
        "associate.ransac_kept_ratio": (
            c["associate.ransac_kept"] / pairs if pairs else 1.0, "ratio"),
        "associate.ransac_passthrough": (c["associate.ransac_passthrough"],
                                         "count"),
        "associate.box_s": (s["associate.box"], "s"),
        "associate.box_matches": (c["associate.box_matches"], "count"),
        "boxinfer.import_s": (imports[0], "s"),
        "boxinfer.infer_s": (s["boxinfer.infer"], "s"),
        "boxinfer.infer_calls": (c["boxinfer.infer_calls"], "count"),
        "boxinfer.infer_failed": (c["boxinfer.infer_failed"], "count"),
        "estimator.ego_s": (s["estimator.ego"], "s"),
        "estimator.ego_solves": (c["estimator.ego_solves"], "count"),
        "estimator.ego_failed": (c["estimator.ego_failed"], "count"),
        "estimator.ego_low_parallax": (c["estimator.ego_low_parallax"],
                                       "count"),
        "estimator.object_s": (s["estimator.object"], "s"),
        "estimator.object_solves": (c["estimator.object_solves"], "count"),
        "estimator.object_failed": (c["estimator.object_failed"], "count"),
        "estimator.object_under_constrained": (
            c["estimator.object_under_constrained"], "count"),
        "estimator.align_s": (s["estimator.align"], "s"),
        "estimator.align_calls": (c["estimator.align_calls"], "count"),
        "estimator.align_points": (c["estimator.align_points"], "count"),
        "estimator.align_applied_ratio": (
            c["estimator.align_applied"] / c["estimator.align_calls"]
            if c["estimator.align_calls"] else 1.0, "ratio"),
        "estimator.tracks_started": (traced["tracks"], "count"),
        "estimator.glue_s": (s["estimator.glue"], "s"),
        "estimator.state_obs": (traced["state_obs"], "count"),
        "nls.ego_iterations": (c["nls.ego_iterations"], "count"),
        "nls.object_iterations": (c["nls.object_iterations"], "count"),
        "nls.align_iterations": (c["nls.align_iterations"], "count"),
        "nls.linear_solves": (c["nls.linear_solves"], "count"),
        "nls.linear_solve_s": (s["nls.linear_solve"], "s"),
        "nls.self_s": (s["nls.self"], "s"),
        "residuals.feature_s": (s["residuals.feature"], "s"),
        "residuals.feature_rows": (c["residuals.feature_rows"], "count"),
        "residuals.semantic_s": (s["residuals.semantic"], "s"),
        "residuals.semantic_calls": (c["residuals.semantic_calls"], "count"),
        "residuals.motion_s": (s["residuals.motion"], "s"),
        "residuals.motion_calls": (c["residuals.motion_calls"], "count"),
        "residuals.surface_s": (s["residuals.surface"], "s"),
        "residuals.surface_calls": (c["residuals.surface_calls"], "count"),
        "metrics.eval_s": (s["metrics.eval"], "s"),
        "metrics.iou_calls": (c["metrics.iou_calls"], "count"),
        "pipeline.import_s": (imports[1], "s"),
        "pipeline.write_s": (s["pipeline.write"], "s"),
        "pipeline.artifact_bytes": (traced["artifact_bytes"], "bytes"),
        # inclusive shares of tracking time: which layers a workload loads
        "share.ransac": (tracer.total_s["associate.ransac"] / track_s,
                         "ratio"),
        "share.ego_ba": (tracer.total_s["estimator.ego"] / track_s, "ratio"),
        "share.object_ba": (tracer.total_s["estimator.object"] / track_s,
                            "ratio"),
        "share.align": (tracer.total_s["estimator.align"] / track_s,
                        "ratio"),
        "trace.coverage": (sum(s[n] for n in in_track) / track_s, "ratio"),
        "trace.track_s": (track_s, "s"),
        "trace.overhead_s": (sum(tracer.calls[n] for n in in_track)
                             * span_cost(), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metric.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench import workloads
    from perfbench.spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")

    out = OUT / f"{args.workload}-{args.seed}"
    rounds = []
    steal_start = steal_s()
    t_start = time.perf_counter()
    if args.trace:
        tracer = Tracer()
        with tracer:
            rounds.append(drive(args.workload, args.seed, out, tracer))
    else:
        # another round only if it would end within --seconds
        while True:
            t_round = time.perf_counter()
            rounds.append(drive(args.workload, args.seed, out))
            now = time.perf_counter()
            if rounds[-1]["faults"] or \
                    2 * now - t_round - t_start > args.seconds:
                break

    faults = [f for r in rounds for f in r["faults"]]
    if len({r.get("digest") for r in rounds}) > 1:
        faults.append("measurement stream differs between rounds")
    for key in ACCURACY:
        if len({r.get(key) for r in rounds}) > 1:
            faults.append(f"{key} differs between rounds of one seed")
    if all("run_s" in r for r in rounds):
        if args.trace:
            metrics = per_layer(tracer, rounds[0], measure_imports())
        else:
            metrics = end_to_end(rounds, measure_setup(args.workload,
                                                       args.seed))
    else:
        metrics = {}
    steal_end = steal_s()

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": len(rounds),
        "commit": git_commit(), "source_sha256": source_digest(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "stream_sha256": rounds[0].get("digest"),
        "accuracy": {key: rounds[0].get(key) for key in ACCURACY},
        # the unscaled figures beside the pace they were scaled by
        "unscaled": {"run_s": [r.get("run_wall_s") for r in rounds],
                     "track_s": [r["track_wall_s"] for r in rounds],
                     "track_cpu_s": [r["track_cpu_s"] for r in rounds],
                     "pace_ms": [r["pace_ms"] for r in rounds],
                     "steal_s": (None if steal_start is None
                                 else steal_end - steal_start)},
        "faults": faults, "frame_errors": [e for r in rounds
                                           for e in r["errors"]],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)
    for fault in faults:
        print(f"perfbench: check failed: {fault}", file=sys.stderr)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not faults and bool(metrics),
        "attempted": sum(r["frames"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
