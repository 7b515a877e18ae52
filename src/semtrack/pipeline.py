"""End-to-end scenario runner and artifact I/O.

Executes simulate -> track -> evaluate from a JSON run config and writes
plot-ready artifacts: trajectory tables (CSV or JSON), a metrics JSON and
per-threshold curve CSVs.  All outputs are deterministic for a fixed
(config, seed) pair.

File formats:

* camera trajectory: columns ``t,x,y,z,qw,qx,qy,qz``
* object trajectory: columns ``t,x,y,z,yaw,dx,dy,dz,v,steer``
* metrics JSON keys: ``ate_rmse_m``, ``rpe_trans``, ``rpe_rot``,
  ``ap_bev``, ``ap_3d``, ``error_curve``

Detection records for the AP curves are expressed in the camera frame of
the respective trajectory (ground-truth boxes in the ground-truth camera
frame, estimated boxes in the estimated camera frame), evaluated per
instance frame.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import simulate as sim
from .errors import ConfigError, IoError
from .estimator import EstimatorConfig, WindowTracker
from .geometry import (Box3D, ObjectState, Pose, heading,
                       quaternion_to_rotation, rotation_to_quaternion)
from .metrics import (DetectionRecord, Trajectory, ap_and_error_curves,
                      ate_rmse, rpe)

CAMERA_HEADER = ["t", "x", "y", "z", "qw", "qx", "qy", "qz"]
OBJECT_HEADER = ["t", "x", "y", "z", "yaw", "dx", "dy", "dz", "v", "steer"]

_ESTIMATOR_KEYS = {"window"}


# ---------------------------------------------------------------------------
# trajectory serialization


def _camera_rows(trajectory: Trajectory):
    rows = []
    for t, pose in zip(trajectory.times, trajectory.poses):
        rows.append([t, *pose.translation,
                     *rotation_to_quaternion(pose.rotation)])
    return rows


def _object_rows(times, states):
    rows = []
    for t, s in zip(times, states):
        rows.append([t, *s.position, s.yaw, *s.dims, s.speed, s.steer])
    return rows


def _write_table(path, header, rows, fmt):
    path = Path(path)
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([repr(float(v)) for v in row])
        elif fmt == "json":
            payload = [dict(zip(header, map(float, row))) for row in rows]
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
        else:
            raise ConfigError("format", f"unknown table format {fmt!r}")
    except OSError as exc:
        raise IoError(path, str(exc)) from exc


def _read_table(path, header):
    path = Path(path)
    try:
        if path.suffix == ".json":
            with open(path) as fh:
                payload = json.load(fh)
            rows = [[rec[key] for key in header] for rec in payload]
        else:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                got = next(reader, None)
                if got != header:
                    raise IoError(path, f"expected header {header}, "
                                  f"got {got}")
                rows = [[float(v) for v in row] for row in reader]
    except OSError as exc:
        raise IoError(path, str(exc)) from exc
    return rows


def write_camera_trajectory(path, trajectory: Trajectory, fmt="csv"):
    _write_table(path, CAMERA_HEADER, _camera_rows(trajectory), fmt)


def read_camera_trajectory(path) -> Trajectory:
    rows = _read_table(path, CAMERA_HEADER)
    times, poses = [], []
    for t, x, y, z, qw, qx, qy, qz in rows:
        times.append(t)
        rot = quaternion_to_rotation([qw, qx, qy, qz])
        poses.append(Pose(rot, np.array([x, y, z])))
    return Trajectory(np.array(times), tuple(poses))


def write_object_trajectory(path, times, states, fmt="csv"):
    _write_table(path, OBJECT_HEADER, _object_rows(times, states), fmt)


def read_object_trajectory(path):
    rows = _read_table(path, OBJECT_HEADER)
    times, states = [], []
    for t, x, y, z, yaw, dx, dy, dz, v, steer in rows:
        times.append(t)
        states.append(ObjectState(np.array([x, y, z]), yaw,
                                  np.array([dx, dy, dz]), v, steer))
    return np.array(times), states


def write_trajectories(out, tag, traj: Trajectory, object_tracks, fmt="csv"):
    """Write ``camera_<tag>`` and an ``object_<id>_<tag>`` table per track
    (``object_tracks``: id to a list of (frame, ObjectState)) into ``out``.
    Returns artifact name to path."""
    name = f"camera_{tag}"
    artifacts = {name: out / f"{name}.{fmt}"}
    write_camera_trajectory(artifacts[name], traj, fmt)
    for obj_id, track in sorted(object_tracks.items()):
        name = f"object_{obj_id}_{tag}"
        artifacts[name] = out / f"{name}.{fmt}"
        write_object_trajectory(artifacts[name],
                                [traj.times[t] for t, _ in track],
                                [s for _, s in track], fmt)
    return artifacts


def write_simulation(out, scenario, frames, fmt="csv"):
    """Write the measurement log ``measurements.jsonl`` and the ground
    truth (:func:`write_trajectories`, tag ``gt``) of a scenario into
    ``out``.  Returns artifact name to path."""
    artifacts = {"measurements": out / "measurements.jsonl"}
    sim.write_measurements(artifacts["measurements"], frames)
    artifacts.update(write_trajectories(out, "gt", *ground_truth(scenario),
                                        fmt))
    return artifacts


def _write_curve_csv(path, curves):
    rows = np.column_stack([curves.thresholds, curves.ap, curves.tp_rate,
                            curves.mean_position_error_pct])
    _write_table(path, ["threshold", "ap", "tp_rate", "position_error_pct"],
                 rows, "csv")


# ---------------------------------------------------------------------------
# config handling


def load_config(path):
    """Run config dict from a JSON file."""
    path = Path(path)
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise IoError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(str(path), "config must be a mapping")
    return config


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def estimator_config_from(node, dt):
    """:class:`EstimatorConfig` of a run config's ``"estimator"`` mapping,
    whose one key, ``"window"``, must be an integer of at least 2."""
    if not isinstance(node, dict):
        raise ConfigError("estimator", "expected a mapping")
    unknown = set(node) - _ESTIMATOR_KEYS
    if unknown:
        raise ConfigError("estimator", f"unknown keys {sorted(unknown)}")
    try:
        return EstimatorConfig(dt=dt, **node)
    except ValueError as exc:
        name, _, message = str(exc).partition(": ")
        raise ConfigError(f"estimator.{name}", message) from exc


def config_seed(config):
    """The ``"seed"`` of a run config, 0 when absent; it must be a
    non-negative integer."""
    seed = config.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("seed", f"expected a non-negative integer, got "
                          f"{seed!r}")
    return seed


def rpe_step_from(config, n_frames):
    """The ``"rpe_step"`` of a run config's ``"evaluation"`` mapping, 1
    when absent: an integer from 1 to ``n_frames`` - 1.  An evaluated
    scenario needs at least 3 frames, as its ATE does."""
    if n_frames < 3:
        raise ConfigError("scenario.n_frames", f"evaluation needs at least "
                          f"3 frames, got {n_frames}")
    node = config.get("evaluation", {})
    if not isinstance(node, dict):
        raise ConfigError("evaluation", "expected a mapping")
    step = node.get("rpe_step", 1)
    if not _is_int(step) or not 1 <= step < n_frames:
        raise ConfigError("evaluation.rpe_step", f"expected an integer from "
                          f"1 to {n_frames - 1}, got {step!r}")
    return step


def out_directory(out_dir):
    """``out_dir`` as a path, created with its parents if missing."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(out, str(exc)) from exc
    return out


def demo_config():
    """Bundled self-contained run config: forward drive past three cars."""
    return {
        "seed": 7,
        "scenario": {
            "n_frames": 25,
            "objects": [
                {"class": "car",
                 "init": {"x": 0.4, "z": 25.0, "yaw": -np.pi / 2, "v": 8.0}},
                {"class": "car",
                 "init": {"x": -10.0, "z": 18.0, "yaw": -np.pi / 2,
                          "v": 8.0}},
                {"class": "car",
                 "init": {"x": 14.0, "z": 20.0, "yaw": -np.pi / 2,
                          "v": 8.0}},
            ],
            "noise": {"feature_sigma_px": 0.5, "box_sigma_px": 1.0,
                      "seed": 7},
        },
        "evaluation": {"rpe_step": 1},
    }


# ---------------------------------------------------------------------------
# pipeline


def _camera_frame_box(state: ObjectState, cam: Pose) -> Box3D:
    center = cam.apply_inverse(state.position)
    h = cam.rotation.T @ heading(state.yaw)
    yaw = float(np.arctan2(-h[2], h[0]))
    return Box3D(center, yaw, state.dims)


def _detection_records(times, camera_poses, object_tracks):
    """Per-frame camera-frame boxes from world-frame object tracks.

    ``object_tracks`` maps an id to a list of (frame, ObjectState).
    """
    records = []
    for obj_id, track in sorted(object_tracks.items()):
        for t, state in track:
            records.append(DetectionRecord(
                t, obj_id, _camera_frame_box(state, camera_poses[t])))
    return records


def evaluate_run(est_traj, gt_traj, est_objects, gt_objects, rpe_step=1):
    """Metrics dict (JSON-ready) comparing estimate against ground truth."""
    rpe_trans, rpe_rot = rpe(est_traj, gt_traj, step=rpe_step)
    dets = _detection_records(est_traj.times, est_traj.poses, est_objects)
    gts = _detection_records(gt_traj.times, gt_traj.poses, gt_objects)
    bev = ap_and_error_curves(dets, gts, iou_kind="bev")
    vol = ap_and_error_curves(dets, gts, iou_kind="3d")
    metrics = {
        "ate_rmse_m": ate_rmse(est_traj, gt_traj),
        "rpe_trans": rpe_trans.tolist(),
        "rpe_rot": rpe_rot.tolist(),
        "ap_bev": bev.ap.tolist(),
        "ap_3d": vol.ap.tolist(),
        "error_curve": {
            "thresholds": bev.thresholds.tolist(),
            "tp_rate_bev": bev.tp_rate.tolist(),
            "tp_rate_3d": vol.tp_rate.tolist(),
            "position_error_pct_bev": bev.mean_position_error_pct.tolist(),
            "position_error_pct_3d": vol.mean_position_error_pct.tolist(),
        },
    }
    return metrics, bev, vol


def ground_truth(scenario):
    """The camera trajectory of a scenario, and its object tracks as id to
    a list of (frame, ObjectState)."""
    return (Trajectory(scenario.timestamps(), tuple(scenario.camera)),
            {o.object_id: list(enumerate(o.states))
             for o in scenario.objects})


def simulate_stage(config, seed):
    """Scenario plus its measurement stream (synthesized or from a log)."""
    scenario = sim.generate_scenario(config.get("scenario", {}), seed)
    log_path = config.get("measurements")
    if log_path is not None:
        if not isinstance(log_path, str):
            raise ConfigError("measurements",
                              f"expected a path, got {log_path!r}")
        if not Path(log_path).exists():
            raise IoError(log_path, "measurement log not found")
        frames = sim.read_measurements(log_path)
        if len(frames) != scenario.n_frames:
            raise ConfigError("measurements",
                              f"log has {len(frames)} frames, scenario "
                              f"has {scenario.n_frames}")
    else:
        frames = sim.synthesize_all(scenario)
    return scenario, frames


def track_stage(scenario, frames, config):
    """Run the sliding-window tracker over a measurement stream."""
    est_cfg = estimator_config_from(config.get("estimator", {}), scenario.dt)
    tracker = WindowTracker(scenario.rig, est_cfg,
                            initial_pose=scenario.camera[0])
    for frame in frames:
        tracker.process(frame)
    return tracker


def run_pipeline(config_path, out_dir, seed=None, fmt="csv"):
    """Full simulate -> track -> evaluate run; returns artifact paths."""
    if isinstance(config_path, dict):
        config = config_path
    elif isinstance(config_path, (str, Path)):
        config = load_config(config_path)
    else:
        raise ConfigError("", "config must be a mapping or a path")
    if seed is None:
        seed = config_seed(config)
    if fmt not in ("csv", "json"):
        raise ConfigError("format", f"unknown format {fmt!r}")
    out = out_directory(out_dir)

    scenario, frames = simulate_stage(config, seed)
    rpe_step = rpe_step_from(config, scenario.n_frames)
    tracker = track_stage(scenario, frames, config)

    gt_traj, gt_objects = ground_truth(scenario)
    est_traj = Trajectory(gt_traj.times, tuple(tracker.camera_trajectory))
    metrics, bev, vol = evaluate_run(est_traj, gt_traj,
                                     tracker.object_trajectories,
                                     gt_objects, rpe_step=rpe_step)

    artifacts = write_simulation(out, scenario, frames, fmt)
    artifacts.update(write_trajectories(out, "est", est_traj,
                                        tracker.object_trajectories, fmt))

    metrics_path = out / "metrics.json"
    try:
        with open(metrics_path, "w") as fh:
            json.dump(metrics, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(metrics_path, str(exc)) from exc
    artifacts["metrics"] = metrics_path

    for name, curves in (("curve_bev", bev), ("curve_3d", vol)):
        path = out / f"{name}.csv"
        _write_curve_csv(path, curves)
        artifacts[name] = path
    return artifacts
