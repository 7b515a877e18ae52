"""Synthetic stereo scene simulator.

Generates ground-truth camera and object trajectories, landmarks anchored
to box surfaces, and noisy abstract measurements (2D semantic boxes with
viewpoint labels, stereo feature observations), so the estimator can be
verified end to end without images.

Conventions follow :mod:`semtrack.geometry`: world y points down, ground
plane y = 0, cameras are level unless waypoints say otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geom
from .boxinfer import (BBox2D, DEFAULT_PRIORS, DimensionPrior, Viewpoint,
                       classify_viewpoint_world)
from .errors import ConfigError, IoError
from .geometry import (CAR_WHEELBASE_RATIO, Box3D, ObjectState, Pose,
                       StereoRig, heading, rot_y)


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement corruption model; sigmas in normalized image units.

    From frame 1 on, a feature takes, with ``temporal_mismatch_rate``,
    both image points of its nearest other feature in the left image, as
    a tracker that matched the wrong point across frames would; with
    ``stereo_mismatch_rate`` it takes that feature's right point alone,
    a wrong stereo match.
    """

    feature_sigma: float = 0.5 / 700.0
    box_sigma: float = 1.0 / 700.0
    viewpoint_error_rate: float = 0.0
    dropout_rate: float = 0.0
    seed: int = 0
    temporal_mismatch_rate: float = 0.0
    stereo_mismatch_rate: float = 0.0

    def __post_init__(self):
        if self.feature_sigma < 0 or self.box_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        for name in ("viewpoint_error_rate", "dropout_rate",
                     "temporal_mismatch_rate", "stereo_mismatch_rate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @classmethod
    def zero(cls, seed=0):
        return cls(0.0, 0.0, 0.0, 0.0, seed)


@dataclass(frozen=True)
class SemanticMeasurement:
    """One detected object in one frame: 2D box plus viewpoint class.

    ``valid_edges`` flags (u_min, v_min, u_max, v_max) edges that are
    genuine object boundaries; an edge clipped by the image border is
    invalid and ``truncated`` is set.
    """

    object_id: int
    label: str
    box: BBox2D
    viewpoint: Viewpoint
    truncated: bool = False
    valid_edges: tuple = (True, True, True, True)


@dataclass(frozen=True)
class FeatureObs:
    """Stereo observation of one landmark; anchor 0 means background."""

    feature_id: int
    anchor_id: int
    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class FrameMeasurements:
    timestamp: float
    semantic: tuple
    features: tuple
    feature_sigma: float = 0.0
    box_sigma: float = 0.0

    def __post_init__(self):
        ids = [f.feature_id for f in self.features]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate feature id within a frame")


@dataclass(frozen=True)
class SimObject:
    """Ground-truth track of one object over the whole scenario."""

    object_id: int
    label: str
    states: tuple  # ObjectState per frame
    landmarks: np.ndarray  # object-frame points on the box surface
    prior: DimensionPrior


@dataclass(frozen=True)
class Scenario:
    """Complete synthetic world: ground truth plus measurement geometry."""

    dt: float
    rig: StereoRig
    camera: tuple  # Pose per frame
    objects: tuple  # SimObject
    background: np.ndarray  # world-frame landmarks (N, 3)
    noise: NoiseSpec

    def __post_init__(self):
        for obj in self.objects:
            if len(obj.states) != len(self.camera):
                raise ValueError("object track length != camera track length")
            offsets = geom.face_offsets(obj.states[0].dims, obj.landmarks)
            if np.any(np.abs(offsets).min(axis=1) > 1e-9):
                raise ValueError("object landmark off the box surface")

    @property
    def n_frames(self):
        return len(self.camera)

    def timestamps(self):
        return np.arange(self.n_frames) * self.dt


# ---------------------------------------------------------------------------
# Object kinematics


def propagate_object(state: ObjectState, control, dt, label="car"):
    """One motion-model step; ``control`` = (speed, steer) overwrites the
    rates after propagating with the current ones.

    Cars follow a kinematic single-track model: the position advances
    along the heading and the yaw rate is v * tan(steer) / wheelbase with
    wheelbase 0.6 * length.  Pedestrians move at constant velocity along
    their heading (steer ignored).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    new_pos = state.position + heading(state.yaw) * (state.speed * dt)
    if label == "car":
        wheelbase = CAR_WHEELBASE_RATIO * state.dims[0]
        new_yaw = state.yaw + np.tan(state.steer) * state.speed * dt / wheelbase
    else:
        new_yaw = state.yaw
    speed, steer = control
    return ObjectState(new_pos, new_yaw, state.dims, float(speed), float(steer))


def rollout(init: ObjectState, controls, dt, label="car"):
    """States at every frame for a control sequence (first state included)."""
    states = [init]
    for control in controls:
        states.append(propagate_object(states[-1], control, dt, label))
    return states


# ---------------------------------------------------------------------------
# Scenario construction


def _finite(value):
    """Whether a config value is a finite number; a bool is not one."""
    try:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def _cfg(node, path, key, expected=None, default=None, required=False):
    """``node[key]``, of type ``expected``; a number must be finite."""
    full = f"{path}.{key}" if path else key
    if key not in node:
        if required:
            raise ConfigError(full, "missing required field")
        return default
    value = node[key]
    if expected is not None and not isinstance(value, expected):
        raise ConfigError(full, f"expected {expected}, got {type(value).__name__}")
    if isinstance(value, (int, float)) and not _finite(value):
        raise ConfigError(full, "expected a finite number")
    return value


def _vector(value, full, length):
    """``value`` as a float array, if it is ``length`` finite numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != length \
            or not all(map(_finite, value)):
        raise ConfigError(full, f"expected {length} finite numbers")
    return np.asarray(value, dtype=float)


def _parse_vec(node, path, key, length, default=None, required=False):
    value = _cfg(node, path, key, (list, tuple), default, required)
    if value is default and not required:
        return None if default is None else np.asarray(default, dtype=float)
    return _vector(value, f"{path}.{key}" if path else key, length)


def _camera_trajectory(config, n_frames, dt):
    cam = _cfg(config, "", "camera", dict, {})
    waypoints = _cfg(cam, "camera", "waypoints", list)
    if waypoints is not None:
        if len(waypoints) != n_frames:
            raise ConfigError("camera.waypoints",
                              f"expected {n_frames} entries (one per frame)")
        poses = []
        for i, wp in enumerate(waypoints):
            vec = _vector(wp, f"camera.waypoints[{i}]", 4)  # x, y, z, yaw
            poses.append(Pose.from_yaw(vec[3], vec[:3]))
        return tuple(poses)
    start = _parse_vec(cam, "camera", "start", 3, default=[0.0, -1.5, 0.0])
    yaw = float(_cfg(cam, "camera", "yaw", (int, float), 0.0))
    speed = float(_cfg(cam, "camera", "speed", (int, float), 8.0))
    yaw_rate = float(_cfg(cam, "camera", "yaw_rate", (int, float), 0.0))
    poses = []
    pos = start.copy()
    for _ in range(n_frames):
        poses.append(Pose.from_yaw(yaw, pos))
        # a level camera advances along its optical axis (+z of rot_y(yaw))
        pos = pos + rot_y(yaw) @ np.array([0.0, 0.0, speed * dt])
        yaw = geom.wrap_angle(yaw + yaw_rate * dt)
    return tuple(poses)


def _sample_face_points(dims, count, rng):
    """Uniform points on the 4 vertical faces, weighted by face area."""
    length, height, width = dims
    areas = np.array([width * height, width * height,
                      length * height, length * height])
    faces = rng.choice(4, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, count)
    v = rng.uniform(-0.5, 0.5, count)
    sign = np.where(faces % 2 == 0, 1.0, -1.0)
    x_face = faces < 2  # +x / -x faces, else +z / -z
    return np.column_stack([
        np.where(x_face, sign * length / 2.0, u * length),
        v * height,
        np.where(x_face, u * width, sign * width / 2.0)])


def _parse_noise(node, focal):
    sigma_f = float(_cfg(node, "noise", "feature_sigma_px", (int, float), 0.5))
    sigma_b = float(_cfg(node, "noise", "box_sigma_px", (int, float), 1.0))
    vp_rate = float(_cfg(node, "noise", "viewpoint_error_rate", (int, float), 0.0))
    dropout = float(_cfg(node, "noise", "dropout_rate", (int, float), 0.0))
    seed = _cfg(node, "noise", "seed", int, 0)
    if seed < 0:
        raise ConfigError("noise.seed", "must be a non-negative integer")
    mismatch = [float(_cfg(node, "noise", f"{kind}_mismatch_rate",
                           (int, float), 0.0))
                for kind in ("temporal", "stereo")]
    try:
        return NoiseSpec(sigma_f / focal, sigma_b / focal, vp_rate, dropout,
                         seed, *mismatch)
    except ValueError as exc:
        raise ConfigError("noise", str(exc)) from exc


def generate_scenario(config: dict, seed: int) -> Scenario:
    """Deterministic scenario from a JSON-compatible config dict."""
    if not isinstance(config, dict):
        raise ConfigError("", "config must be a mapping")
    rng = np.random.default_rng(seed)

    rig_cfg = _cfg(config, "", "rig", dict, {})
    baseline = float(_cfg(rig_cfg, "rig", "baseline_m", (int, float), 0.54))
    focal = float(_cfg(rig_cfg, "rig", "focal_px", (int, float), 700.0))
    img_w = float(_cfg(rig_cfg, "rig", "image_w_px", (int, float), 1240.0))
    img_h = float(_cfg(rig_cfg, "rig", "image_h_px", (int, float), 376.0))
    if baseline <= 0:
        raise ConfigError("rig.baseline_m", "must be positive")
    if focal <= 0:
        raise ConfigError("rig.focal_px", "must be positive")
    rig = StereoRig.horizontal(baseline, focal, img_w, img_h)

    dt = float(_cfg(config, "", "dt_s", (int, float), 0.1))
    if dt <= 0:
        raise ConfigError("dt_s", "must be positive")
    n_frames = int(_cfg(config, "", "n_frames", int, 50))
    if n_frames < 1:
        raise ConfigError("n_frames", "must be at least 1")

    camera = _camera_trajectory(config, n_frames, dt)

    lm_cfg = _cfg(config, "", "landmarks", dict, {})
    background_n = int(_cfg(lm_cfg, "landmarks", "background_n", int, 500))
    per_object_n = int(_cfg(lm_cfg, "landmarks", "per_object_n", int, 100))
    if background_n < 0 or per_object_n < 0:
        raise ConfigError("landmarks", "counts must be non-negative")

    # background landmarks fill a box around the camera path
    cam_pos = np.array([p.translation for p in camera])
    lo = cam_pos.min(axis=0) + np.array([-25.0, -6.0, -5.0])
    hi = cam_pos.max(axis=0) + np.array([25.0, 0.0, 70.0])
    hi[1] = min(hi[1] + 1.5, 0.0)  # keep landmarks at or above the ground
    background = rng.uniform(lo, hi, size=(background_n, 3))

    objects = []
    for i, obj_cfg in enumerate(_cfg(config, "", "objects", list, [])):
        path = f"objects[{i}]"
        if not isinstance(obj_cfg, dict):
            raise ConfigError(path, "expected a mapping")
        label = _cfg(obj_cfg, path, "class", str, "car")
        if label not in DEFAULT_PRIORS:
            raise ConfigError(f"{path}.class",
                              f"unknown class {label!r}")
        prior = DEFAULT_PRIORS[label]
        init_cfg = _cfg(obj_cfg, path, "init", dict, required=True)
        pos = np.array([
            float(_cfg(init_cfg, f"{path}.init", "x", (int, float), 0.0)),
            float(_cfg(init_cfg, f"{path}.init", "y", (int, float), 0.0)),
            float(_cfg(init_cfg, f"{path}.init", "z", (int, float), 20.0)),
        ])
        yaw = float(_cfg(init_cfg, f"{path}.init", "yaw", (int, float), 0.0))
        speed = float(_cfg(init_cfg, f"{path}.init", "v", (int, float), 0.0))
        steer = float(_cfg(init_cfg, f"{path}.init", "steer", (int, float), 0.0))
        dims = _parse_vec(obj_cfg, path, "dims", 3)
        if dims is None:
            dims = prior.mean
        elif np.any(dims <= 0):
            raise ConfigError(f"{path}.dims", "must be positive")
        # rest the box on the ground unless the config set a height
        if "y" not in init_cfg:
            pos[1] = -dims[1] / 2.0
        init = ObjectState(pos, yaw, dims, speed, steer)

        controls_cfg = _cfg(obj_cfg, path, "controls", (list, dict),
                            {"v": speed, "steer": steer})
        if isinstance(controls_cfg, dict):
            v = float(_cfg(controls_cfg, f"{path}.controls", "v",
                           (int, float), speed))
            d = float(_cfg(controls_cfg, f"{path}.controls", "steer",
                           (int, float), steer))
            controls = [(v, d)] * (n_frames - 1)
        else:
            if len(controls_cfg) != n_frames - 1:
                raise ConfigError(f"{path}.controls",
                                  f"expected {n_frames - 1} entries")
            controls = [tuple(_vector(c, f"{path}.controls[{j}]", 2).tolist())
                        for j, c in enumerate(controls_cfg)]

        states = tuple(rollout(init, controls, dt, label))
        landmarks = _sample_face_points(dims, per_object_n, rng)
        objects.append(SimObject(i + 1, label, states, landmarks, prior))

    noise = _parse_noise(_cfg(config, "", "noise", dict, {}), focal)
    return Scenario(dt, rig, camera, tuple(objects), background, noise)


# ---------------------------------------------------------------------------
# Measurement synthesis


def _hidden(points, origin, boxes, skip):
    """Mask of the points (n, 3) whose open segment from ``origin`` passes
    through one of ``boxes`` (object states), leaving out index ``skip``
    (None leaves out none).

    The slab test (Kay and Kajiya 1986) over all points at once, per box:
    the segment parameter interval inside each pair of face planes is
    intersected with [0, 1 - 1e-6], so a point lying on a face of a box is
    not hidden by that box.
    """
    hidden = np.zeros(len(points), dtype=bool)
    for j, box in enumerate(boxes):
        if j == skip:
            continue
        pose = box.pose
        o = pose.apply_inverse(origin)
        d = pose.apply_inverse(points) - o
        half = box.dims / 2.0
        t_lo = np.zeros(len(points))
        t_hi = np.full(len(points), 1.0 - 1e-6)
        outside = np.zeros(len(points), dtype=bool)
        for axis in range(3):
            # a segment parallel to a slab misses it or stays inside it
            parallel = np.abs(d[:, axis]) < 1e-12
            if abs(o[axis]) > half[axis]:
                outside |= parallel
            step = np.where(parallel, 1.0, d[:, axis])
            t1 = (-half[axis] - o[axis]) / step
            t2 = (half[axis] - o[axis]) / step
            t_lo = np.where(parallel, t_lo,
                            np.maximum(t_lo, np.minimum(t1, t2)))
            t_hi = np.where(parallel, t_hi,
                            np.minimum(t_hi, np.maximum(t1, t2)))
        hidden |= ~outside & (t_lo <= t_hi)
    return hidden


def _mismatch(left, right, rates, rng):
    """Let each feature take, in place, with the temporal and stereo
    ``rates``, both image points (n, 2) or the right point alone of its
    nearest other feature in the left image."""
    temporal, stereo = rng.uniform(size=(2, len(left))) < rates[:, None]
    gap = np.sum((left[:, None] - left[None]) ** 2, axis=2)
    np.fill_diagonal(gap, np.inf)
    near = np.argmin(gap, axis=1)
    left[temporal] = left[near[temporal]]
    stereo |= temporal
    right[stereo] = right[near[stereo]]


def synthesize_frame(scenario: Scenario, t: int,
                     noise: NoiseSpec | None = None) -> FrameMeasurements:
    """Noisy measurements for frame ``t``; deterministic per (seed, t)."""
    if not 0 <= t < scenario.n_frames:
        raise ValueError(f"frame {t} outside scenario range")
    if noise is None:
        noise = scenario.noise
    rng = np.random.default_rng((noise.seed, t))
    rig = scenario.rig
    x_cam = scenario.camera[t]
    x_right = x_cam.compose(rig.extrinsic.inverse())
    states = [obj.states[t] for obj in scenario.objects]

    semantic = []
    for j, (obj, state) in enumerate(zip(scenario.objects, states)):
        verts_world = geom.box_vertices(
            Box3D(state.position, state.yaw, state.dims))
        verts_cam = x_cam.apply_inverse(verts_world)
        if np.any(verts_cam[:, 2] <= geom.EPS_Z):
            continue
        uv = verts_cam[:, :2] / verts_cam[:, 2:]
        raw = np.array([uv[:, 0].min(), uv[:, 1].min(),
                        uv[:, 0].max(), uv[:, 1].max()])
        lo = np.array([-rig.u_half_extent, -rig.v_half_extent])
        hi = -lo
        clipped = np.clip(raw, np.concatenate([lo, lo]),
                          np.concatenate([hi, hi]))
        if clipped[0] >= clipped[2] or clipped[1] >= clipped[3]:
            continue  # entirely outside the image
        valid = tuple(bool(abs(c - r) < 1e-12)
                      for c, r in zip(clipped, raw))
        if _hidden(verts_world, x_cam.translation, states, j).all():
            continue  # fully hidden behind a nearer object
        if rng.uniform() < noise.dropout_rate:
            continue
        edges = clipped.copy()
        for i in range(4):
            if valid[i]:
                edges[i] += rng.normal(0.0, noise.box_sigma)
        if edges[0] > edges[2] or edges[1] > edges[3]:
            continue  # noise collapsed the box; drop the detection
        vp = classify_viewpoint_world(x_cam, state)
        if rng.uniform() < noise.viewpoint_error_rate:
            shift = 1 if rng.uniform() < 0.5 else -1
            vp = Viewpoint((vp.horizontal + shift) % 8, vp.vertical)
        semantic.append(SemanticMeasurement(
            obj.object_id, obj.label, BBox2D(*edges), vp,
            truncated=not all(valid), valid_edges=valid))

    # features: ids count every landmark, seen or not, background first
    half_extent = np.array([rig.u_half_extent, rig.v_half_extent])
    groups = [(0, scenario.background, None)]
    groups += [(obj.object_id, state.pose.apply(obj.landmarks), j)
               for j, (obj, state) in enumerate(zip(scenario.objects,
                                                    states))]
    ids, anchors, left, right = [], [], [], []
    next_id = 0
    for anchor_id, pts, skip in groups:
        pl = x_cam.apply_inverse(pts)
        pr = x_right.apply_inverse(pts)
        idx = np.flatnonzero(np.minimum(pl[:, 2], pr[:, 2]) > geom.EPS_Z)
        uvl = pl[idx, :2] / pl[idx, 2:]
        uvr = pr[idx, :2] / pr[idx, 2:]
        seen = (np.all(np.abs(uvl) <= half_extent, axis=1)
                & np.all(np.abs(uvr) <= half_extent, axis=1))
        idx, uvl, uvr = idx[seen], uvl[seen], uvr[seen]
        seen = ~(_hidden(pts[idx], x_cam.translation, states, skip)
                 | _hidden(pts[idx], x_right.translation, states, skip))
        ids += (next_id + idx[seen]).tolist()
        anchors += [anchor_id] * int(seen.sum())
        left.append(uvl[seen])
        right.append(uvr[seen])
        next_id += len(pts)
    # the draw order per feature (left u, left v, right u, right v) fixes
    # the measurement stream of a seed
    jitter = rng.normal(0.0, noise.feature_sigma, (len(ids), 2, 2))
    left = np.concatenate(left) + jitter[:, 0]
    right = np.concatenate(right) + jitter[:, 1]
    rates = np.array([noise.temporal_mismatch_rate,
                      noise.stereo_mismatch_rate])
    if t > 0 and rates.any() and len(ids) > 1:
        _mismatch(left, right, rates, rng)
    features = tuple(FeatureObs(*obs)
                     for obs in zip(ids, anchors, left, right))

    return FrameMeasurements(t * scenario.dt, tuple(semantic),
                             features, noise.feature_sigma,
                             noise.box_sigma)


def synthesize_all(scenario: Scenario):
    return [synthesize_frame(scenario, t) for t in range(scenario.n_frames)]


# ---------------------------------------------------------------------------
# Measurement log serialization (JSON lines, one frame per line)


def frame_to_dict(frame: FrameMeasurements) -> dict:
    return {
        "t": frame.timestamp,
        "feature_sigma": frame.feature_sigma,
        "box_sigma": frame.box_sigma,
        "semantic": [{
            "object_id": s.object_id,
            "label": s.label,
            "box": list(s.box.as_array()),
            "viewpoint": [s.viewpoint.horizontal, s.viewpoint.vertical],
            "truncated": s.truncated,
            "valid_edges": list(s.valid_edges),
        } for s in frame.semantic],
        "features": [{
            "id": f.feature_id,
            "anchor": f.anchor_id,
            "left": list(f.left),
            "right": list(f.right),
        } for f in frame.features],
    }


def frame_from_dict(record: dict) -> FrameMeasurements:
    semantic = tuple(SemanticMeasurement(
        s["object_id"], s["label"], BBox2D(*s["box"]),
        Viewpoint(*s["viewpoint"]), s["truncated"], tuple(s["valid_edges"]))
        for s in record["semantic"])
    features = tuple(FeatureObs(
        f["id"], f["anchor"], np.asarray(f["left"]), np.asarray(f["right"]))
        for f in record["features"])
    return FrameMeasurements(record["t"], semantic, features,
                             record.get("feature_sigma", 0.0),
                             record.get("box_sigma", 0.0))


def write_measurements(path, frames):
    """Write ``frames`` as a JSON-lines measurement log; raises
    :class:`IoError` naming ``path`` when it cannot be written."""
    try:
        with open(path, "w") as handle:
            for frame in frames:
                handle.write(json.dumps(frame_to_dict(frame),
                                        sort_keys=True))
                handle.write("\n")
    except OSError as exc:
        raise IoError(path, str(exc)) from exc


def read_measurements(path):
    """Frames of a JSON-lines measurement log.

    A line with bad JSON, a missing key or a value of the wrong type
    raises :class:`ConfigError` naming the path and the 1-based line; a
    log that cannot be read or is not UTF-8 text raises :class:`IoError`.
    """
    frames = []
    try:
        with open(path) as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    frames.append(frame_from_dict(json.loads(line)))
                except KeyError as exc:
                    raise ConfigError(f"{path}:{number}",
                                      f"missing key {exc}") from exc
                except (ValueError, TypeError, IndexError) as exc:
                    raise ConfigError(f"{path}:{number}", str(exc)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(path, str(exc)) from exc
    return frames
