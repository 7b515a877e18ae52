"""Tracking accuracy on a benchmark drive with mismatched features.

Usage (from the repository root)::

    python3 tools/mismatch.py --workload dense_traffic --seeds 1-4 \
        --temporal 0.2 --stereo 0.0
    python3 tools/mismatch.py --seeds 1,2 --stereo 0.2 --frames 20

Each seed's drive is built by ``perfbench.workloads.build_scenario``,
with the simulator's ``temporal_mismatch_rate`` and
``stereo_mismatch_rate`` set to ``--temporal`` and ``--stereo``, and its
first ``--frames`` frames (all by default) are tracked one at a time.  A
frame whose ``process()`` raises is counted as failed and the drive goes
on.  For each seed the tool prints the object error (mean over tracked
frames, % of range), the mean object yaw error and the camera ATE, as
the benchmark computes them (``perfbench.checks``), then their means
over the seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tools")]

import numpy as np  # noqa: E402

from perfbench import checks, workloads  # noqa: E402
from semtrack import pipeline, simulate as sim  # noqa: E402
from semtrack.estimator import WindowTracker  # noqa: E402
from sweep import parse_seeds  # noqa: E402


def run_drive(workload, seed, temporal=0.0, stereo=0.0, frames=None):
    """Object error (%), yaw error (deg), ATE (m) and failed frames of one
    drive; the errors are None when no object was tracked."""
    config, scenario = workloads.build_scenario(workload, seed)
    scenario = dataclasses.replace(scenario, noise=dataclasses.replace(
        scenario.noise, temporal_mismatch_rate=temporal,
        stereo_mismatch_rate=stereo))
    n_frames = scenario.n_frames if frames is None else frames
    tracker = WindowTracker(
        scenario.rig,
        pipeline.estimator_config_from(config["estimator"], scenario.dt),
        initial_pose=scenario.camera[0])
    failed = 0
    for t in range(n_frames):
        try:
            tracker.process(sim.synthesize_frame(scenario, t))
        except Exception:  # counted as a failed frame; go on
            failed += 1
    _, pos_pct, yaw_deg = checks.object_errors(
        scenario, tracker.object_trajectories, tracker.camera_trajectory)
    est = np.array([p.translation for p in tracker.camera_trajectory])
    gt = np.array([p.translation for p in scenario.camera[:n_frames]])
    tracked = len(pos_pct) > 0
    return {"obj_err_pct": float(pos_pct.mean()) if tracked else None,
            "yaw_err_deg": float(yaw_deg.mean()) if tracked else None,
            "ate_m": checks.ate_rmse(est, gt), "failed": failed}


def describe(result):
    """One line of a drive's figures."""
    obj, yaw = result["obj_err_pct"], result["yaw_err_deg"]
    line = (f"object error {obj:.3f}%, yaw error {yaw:.3f} deg"
            if obj is not None else "no object tracked")
    line += f", ATE {result['ate_m']:.4f} m"
    if result["failed"]:
        line += f", {result['failed']} failed frames"
    return line


def mean_line(results):
    """The means over drives, of the figures each drive has."""
    parts = []
    for key, text in (("obj_err_pct", "object error {:.3f}%"),
                      ("yaw_err_deg", "yaw error {:.3f} deg"),
                      ("ate_m", "ATE {:.4f} m")):
        values = [r[key] for r in results if r[key] is not None]
        if values:
            parts.append(text.format(float(np.mean(values))))
    return "mean: " + ", ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="dense_traffic",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-4")
    parser.add_argument("--temporal", type=float, default=0.0)
    parser.add_argument("--stereo", type=float, default=0.0)
    parser.add_argument("--frames", type=int, default=None)
    args = parser.parse_args(argv)
    if args.frames is not None and not \
            1 <= args.frames <= workloads.N_FRAMES:
        parser.error(f"--frames must be from 1 to {workloads.N_FRAMES}")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"--seeds: not a seed list: {args.seeds!r}")
    try:
        sim.NoiseSpec(temporal_mismatch_rate=args.temporal,
                      stereo_mismatch_rate=args.stereo)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"{args.workload}: temporal {args.temporal}, stereo "
          f"{args.stereo}, {args.frames or workloads.N_FRAMES} frames")
    results = []
    for seed in seeds:
        results.append(run_drive(args.workload, seed, args.temporal,
                                 args.stereo, args.frames))
        print(f"seed {seed}: {describe(results[-1])}", flush=True)
    print(mean_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
