"""Sliding-window estimation of camera ego-motion and 3D object tracks.

The solve is staged: :func:`solve_ego` refines the camera window and the
background landmarks from static feature observations, then
:func:`solve_object` refines each object track independently with the
camera poses held fixed, fusing feature, semantic box, motion-model and
dimension-prior residuals.  :func:`align_point_cloud` snaps a box pose to
its anchored landmark cloud as a post-step.  :class:`WindowTracker`
chains the stages over a measurement stream, handing each solver the
window's observations as arrays (:class:`FeatureRows`,
:class:`SemanticRows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import residuals as res
from .associate import associate_objects, reject_outliers
from .boxinfer import (DEFAULT_PRIORS, DimensionPrior, infer_pose,
                       selection_set)
from .errors import DegenerateGroup, NoConvergence
from .geometry import (ObjectState, Pose, StereoRig, face_offsets,
                       project_rotation, rot_y, so3_exp, wrap_angle)
from .nls import (DenseNormalEquations, RowBatch, SchurNormalEquations,
                  SolveReport, batch_cost, solve_nls)

MIN_PARALLAX_DEG = 0.5


@dataclass(frozen=True)
class EstimatorConfig:
    """Covariances, loss parameters and window settings for both solvers."""

    feature_sigma: float = 0.5 / 700.0
    box_sigma: float = 1.0 / 700.0
    # motion sigmas over (position x, y, z, yaw, steer, speed), scaled by
    # sqrt(dt) when whitening
    motion_sigmas: tuple = (0.05, 0.05, 0.05, 0.02, 0.05, 0.5)
    surface_sigma: float = 0.05
    huber_scale: float = 3.0
    window: int = 10
    max_iterations: int = 50
    dt: float = 0.1


class FeatureRows(NamedTuple):
    """Stereo feature observations of a window, one row each, sorted by
    local frame and then landmark id (see :func:`feature_rows`)."""

    frame: np.ndarray  # (n,) local window frame
    landmark: np.ndarray  # (n,) landmark id
    left: np.ndarray  # (n, 2) normalized left-image point
    right: np.ndarray  # (n, 2) normalized right-image point


class SemanticRows(NamedTuple):
    """Box detections of one object over a window, one row each."""

    frame: np.ndarray  # (n,) local window frame
    edges: np.ndarray  # (n, 4) BBox2D edges (u_min, v_min, u_max, v_max)
    valid: np.ndarray  # (n, 4) edge validity, same order
    signs: np.ndarray  # (n, 4, 3) selection-set vertex signs


def feature_rows(obs):
    """:class:`FeatureRows` from (frame, landmark id, left, right) tuples."""
    obs = list(obs)
    frame, landmark, left, right = zip(*obs) if obs else ((),) * 4
    frame = np.array(frame, dtype=int)
    landmark = np.array(landmark, dtype=int)
    order = np.lexsort((landmark, frame))
    return FeatureRows(frame[order], landmark[order],
                       np.array(left, dtype=float).reshape(-1, 2)[order],
                       np.array(right, dtype=float).reshape(-1, 2)[order])


def semantic_rows(obs):
    """:class:`SemanticRows` from (frame, edges, valid, viewpoint) tuples."""
    obs = list(obs)
    frame, edges, valid, viewpoint = zip(*obs) if obs else ((),) * 4
    return SemanticRows(
        np.array(frame, dtype=int),
        np.array(edges, dtype=float).reshape(-1, 4),
        np.array(valid, dtype=bool).reshape(-1, 4),
        np.array([selection_set(vp).signs for vp in viewpoint]
                 ).reshape(-1, 4, 3))


@dataclass
class ObjectTrack:
    """Window data of one tracked object.

    ``frames`` are the local window frames of ``states``, ascending; the
    rows' frames index the camera poses of the window and must be among
    them.  Motion terms join consecutive frames.
    """

    label: str
    frames: list
    states: list
    landmarks: dict
    prior: DimensionPrior
    features: FeatureRows
    semantic: SemanticRows


@dataclass(frozen=True)
class EgoResult:
    poses: list
    landmarks: dict
    report: SolveReport
    insufficient_parallax: bool


@dataclass(frozen=True)
class ObjectResult:
    states: list
    dims: np.ndarray
    landmarks: dict
    report: SolveReport
    under_constrained: bool


def _camera_rows(poses, frames):
    """Per-row camera rotations (n, 3, 3) and translations (n, 3) of the
    window ``poses`` at ``frames``."""
    return (np.array([p.rotation for p in poses])[frames],
            np.array([p.translation for p in poses])[frames])


# ---------------------------------------------------------------------------
# ego-motion window


class _EgoProblem:
    """Adapter exposing the ego window to the NLS engine.

    State is (poses, landmark array); the oldest pose is the gauge and
    stays constant.  Only landmarks observed in at least two frames are
    optimized; rows of other landmarks carry no information about the
    relative poses beyond a stereo depth and are dropped.  Each
    evaluation is one feature batch over the whole window.
    """

    def __init__(self, poses, landmarks, rows, rig, config):
        self.rig = rig
        self.config = config
        self.n_poses = len(poses)
        ids, counts = np.unique(rows.landmark, return_counts=True)
        self.lm_ids = np.array([lm for lm, n in zip(ids, counts)
                                if n >= 2 and lm in landmarks], dtype=int)
        keep = np.isin(rows.landmark, self.lm_ids)
        self.frame = frame = rows.frame[keep]
        self.slot = slot = np.searchsorted(self.lm_ids, rows.landmark[keep])
        self.left, self.right = rows.left[keep], rows.right[keep]
        # rows of the gauge frame touch the landmark columns only
        self.cols = np.where(frame[:, None] > 0,
                             6 * (frame[:, None] - 1) + np.arange(6), -1)
        lms = np.array([landmarks[lm] for lm in self.lm_ids]).reshape(-1, 3)
        self.initial = (list(poses), lms)
        # parallax: mean ray angle between the first and last observation
        # of each optimized landmark
        first = np.full(len(lms), self.n_poses)
        last = np.full(len(lms), -1)
        np.minimum.at(first, slot, frame)
        np.maximum.at(last, slot, frame)
        centers = np.array([p.translation for p in poses])
        ray_a, ray_b = lms - centers[first], lms - centers[last]
        denom = np.linalg.norm(ray_a, axis=1) * np.linalg.norm(ray_b, axis=1)
        ok = denom >= 1e-12
        cos = np.einsum("ni,ni->n", ray_a[ok], ray_b[ok]) / denom[ok]
        self.parallax = float(np.mean(np.arccos(np.clip(cos, -1.0, 1.0)))) \
            if ok.any() else 0.0

    def _batch(self, state, jacobians):
        poses, lms = state
        info = 1.0 / self.config.feature_sigma
        r, jac, valid = res.feature_residuals_batch(
            self.left, self.right, *_camera_rows(poses, self.frame),
            lms[self.slot], self.rig, jacobians=jacobians)
        if not jacobians:
            return RowBatch(r * info, huber_delta=self.config.huber_scale)
        return RowBatch(r * info, jac["camera"] * info, self.cols[valid],
                        self.config.huber_scale, "feature", self.slot[valid],
                        jac["landmark"] * info)

    def linearize(self, state):
        eq = SchurNormalEquations(6 * (self.n_poses - 1), len(self.lm_ids))
        eq.add_batch(self._batch(state, True))
        return eq

    def cost(self, state):
        return batch_cost([self._batch(state, False)])

    def retract(self, state, step):
        poses, lms = state
        new_poses = [poses[0]]
        for f, pose in enumerate(poses[1:]):
            d = step[6 * f:6 * f + 6]
            rot = project_rotation(pose.rotation @ so3_exp(d[3:]))
            new_poses.append(Pose(rot, pose.translation + d[:3]))
        n_dense = 6 * (self.n_poses - 1)
        new_lms = lms + step[n_dense:].reshape(-1, 3)
        return new_poses, new_lms


def solve_ego(poses, landmarks, rows: FeatureRows, rig: StereoRig,
              config: EstimatorConfig = EstimatorConfig()):
    """Refine the camera window and background landmarks.

    ``poses`` is the window, oldest first; the oldest stays fixed as the
    gauge.  ``landmarks`` maps landmark id to world position and ``rows``
    are the background feature observations, framed by window index.
    Returns an :class:`EgoResult` with the optimized landmarks; the
    ``insufficient_parallax`` flag is set when the mean triangulation
    angle over them is below half a degree (the solve still runs).
    """
    if len(poses) < 2:
        raise ValueError("ego window needs at least two camera poses")
    if np.any(rows.frame >= len(poses)):
        raise ValueError("feature row references a missing frame")
    ego = _EgoProblem(poses, landmarks, rows, rig, config)
    flag = ego.parallax < math.radians(MIN_PARALLAX_DEG)
    state, report = solve_nls(ego, ego.initial,
                              max_iterations=config.max_iterations)
    if not report.converged:
        raise NoConvergence("ego window failed to converge; state unchanged")
    poses, lms = state
    return EgoResult(poses, dict(zip(ego.lm_ids.tolist(), lms)), report,
                     flag)


# ---------------------------------------------------------------------------
# per-object window


class _ObjectProblem:
    """Adapter exposing one object track to the NLS engine.

    State is (object states, dims, landmark array); camera poses are
    constants.  Dims can be locked (under-constrained tracks).  The dense
    parameter layout is one 6-slot per window state (position, yaw,
    steer, speed) followed by dims when free.  Each evaluation is one
    batch per residual family over the whole window, and each row
    carries the dense columns it touches.
    """

    def __init__(self, track, camera_poses, rig, config, lock_dims=False):
        self.track = track
        self.rig = rig
        self.config = config
        self.lock_dims = lock_dims
        frames = np.asarray(track.frames)
        self.n_states = len(track.frames)
        self.dims_offset = 6 * self.n_states
        self.dense_size = self.dims_offset + (0 if lock_dims else 3)
        self.lm_ids = np.array(sorted(track.landmarks), dtype=int)
        rows = track.features
        keep = np.isin(rows.landmark, self.lm_ids)
        self.feat_slot = np.searchsorted(frames, rows.frame[keep])
        self.feat_lm = np.searchsorted(self.lm_ids, rows.landmark[keep])
        self.feat_obs = (rows.left[keep], rows.right[keep])
        self.feat_cam = _camera_rows(camera_poses, rows.frame[keep])
        # position and yaw: the first 4 columns of the state's slot
        self.feat_cols = 6 * self.feat_slot[:, None] + np.arange(4)
        sem = track.semantic
        self.sem_slot = np.searchsorted(frames, sem.frame)
        self.sem_cam = _camera_rows(camera_poses, sem.frame)
        self.sem_cols = self._with_dims(
            6 * self.sem_slot[:, None] + np.arange(4))
        slots = np.arange(self.n_states)[:, None]
        self.motion_cols = self._with_dims(
            np.hstack([6 * slots[1:] + np.arange(6),
                       6 * slots[:-1] + np.arange(6)]))
        self.motion_dt = np.diff(frames) * config.dt
        self.motion_info = 1.0 / (np.asarray(config.motion_sigmas)
                                  * np.sqrt(self.motion_dt)[:, None])
        lms = np.array([track.landmarks[lm] for lm in self.lm_ids])
        self.initial = (list(track.states),
                        np.asarray(track.states[0].dims, dtype=float),
                        lms.reshape(len(self.lm_ids), 3))

    def _with_dims(self, cols):
        """Per-row columns followed by the dims columns when dims are free."""
        if self.lock_dims:
            return cols
        return np.hstack([cols, np.broadcast_to(
            self.dims_offset + np.arange(3), (len(cols), 3))])

    def _jac(self, parts, dims_jac):
        """Dense Jacobian in the column order of :meth:`_with_dims`."""
        return np.concatenate(parts if self.lock_dims else parts + [dims_jac],
                              axis=2)

    def _batches(self, state, jacobians):
        states, dims, lms = state
        cfg = self.config
        motion = np.array([[*s.position, s.yaw, s.steer, s.speed]
                           for s in states])
        if len(self.feat_lm):
            info = 1.0 / cfg.feature_sigma
            slot = self.feat_slot
            r, jac, valid = res.feature_residuals_batch(
                *self.feat_obs, *self.feat_cam, lms[self.feat_lm], self.rig,
                motion[slot, :3], motion[slot, 3], jacobians)
            if not jacobians:
                yield RowBatch(r * info, huber_delta=cfg.huber_scale)
            else:
                yield RowBatch(r * info, jac["object"] * info,
                               self.feat_cols[valid], cfg.huber_scale,
                               "feature", self.feat_lm[valid],
                               jac["landmark"] * info)
        sem = self.track.semantic
        if len(sem.frame):
            slot = self.sem_slot
            r, jac, mask = res.semantic_residual(
                sem.edges, sem.valid, sem.signs, *self.sem_cam,
                motion[slot, :3], motion[slot, 3], dims, jacobians)
            if len(r):
                jac_w = cols = None
                if jacobians:
                    jac_w = self._jac([jac["object"][:, None]],
                                      jac["dims"][:, None]) / cfg.box_sigma
                    cols = self.sem_cols[np.nonzero(mask)[0]]
                yield RowBatch(r[:, None] / cfg.box_sigma, jac_w, cols,
                               tag="semantic")
        if self.n_states > 1:
            r, jac = res.motion_residual(motion[1:], motion[:-1],
                                         self.motion_dt, dims,
                                         self.track.label, jacobians)
            info_m = self.motion_info
            jac_w = None
            if jacobians:
                jac_w = self._jac([jac["cur"], jac["prev"]],
                                  jac["dims"]) * info_m[:, :, None]
            yield RowBatch(r * info_m, jac_w, self.motion_cols, tag="motion")
        if not self.lock_dims:
            prior = self.track.prior
            r, _ = res.prior_residual(dims, prior, jacobians=False)
            info_p = 1.0 / np.asarray(prior.sigma, dtype=float)
            yield RowBatch((r * info_p)[None], np.diag(info_p)[None],
                           self.dims_offset + np.arange(3), tag="prior")

    def linearize(self, state):
        eq = SchurNormalEquations(self.dense_size, len(self.lm_ids))
        for batch in self._batches(state, True):
            eq.add_batch(batch)
        return eq

    def cost(self, state):
        return batch_cost(self._batches(state, False))

    def retract(self, state, step):
        states, dims, lms = state
        new_states = []
        for i, s in enumerate(states):
            d = step[6 * i:6 * i + 6]
            new_states.append(s.replace(position=s.position + d[:3],
                                        yaw=wrap_angle(s.yaw + d[3]),
                                        steer=s.steer + d[4],
                                        speed=s.speed + d[5]))
        if self.lock_dims:
            new_dims = dims
        else:
            new_dims = np.maximum(
                dims + step[self.dims_offset:self.dims_offset + 3], 1e-3)
        new_lms = lms + step[self.dense_size:].reshape(-1, 3)
        return new_states, new_dims, new_lms


def solve_object(track: ObjectTrack, camera_poses, rig: StereoRig,
                 config: EstimatorConfig = EstimatorConfig()):
    """Refine one object track with the camera poses held fixed.

    Fuses the track's feature and semantic rows, the motion model between
    its consecutive frames and its dimension prior.  When the track
    covers a single frame with semantic measurements only, the problem
    cannot constrain dims: they are locked to the prior mean and the
    ``under_constrained`` flag is set.
    """
    if not track.frames:
        raise ValueError("object track has no frames")
    for rows in (track.features, track.semantic):
        if not np.isin(rows.frame, track.frames).all():
            raise ValueError("row references a frame outside the track")
    if max(track.frames) >= len(camera_poses):
        raise ValueError("track references a missing camera pose")
    under = len(track.frames) == 1 and not len(track.features.frame)
    if under:
        track = replace(
            track,
            states=[s.replace(dims=track.prior.mean) for s in track.states])
    obj = _ObjectProblem(track, camera_poses, rig, config, lock_dims=under)
    state, report = solve_nls(obj, obj.initial,
                              max_iterations=config.max_iterations)
    if not report.converged:
        raise NoConvergence("object window failed to converge; "
                            "state unchanged")
    states, dims, lms = state
    states = [s.replace(dims=dims) for s in states]
    landmarks = dict(zip(obj.lm_ids.tolist(), lms))
    return ObjectResult(states, dims, landmarks, report, under)


# ---------------------------------------------------------------------------
# point-cloud-to-box alignment


class _AlignProblem:
    def __init__(self, world_points, faces, config):
        self.points = world_points
        self.faces = faces
        self.config = config

    def _batch(self, state, jacobians):
        info = 1.0 / self.config.surface_sigma
        r, jac = res.point_surface_residual(self.points, state, self.faces,
                                            jacobians=jacobians)
        jac_w = jac["object"][:, None, :] * info if jacobians else None
        return RowBatch(r[:, None] * info, jac_w, np.arange(4),
                        self.config.huber_scale,
                        tag="point_surface")

    def linearize(self, state):
        eq = DenseNormalEquations(4)
        eq.add_batch(self._batch(state, True))
        return eq

    def cost(self, state):
        return batch_cost([self._batch(state, False)])

    def retract(self, state, step):
        return state.replace(position=state.position + step[:3],
                             yaw=wrap_angle(state.yaw + step[3]))


def align_point_cloud(state: ObjectState, local_points,
                      config: EstimatorConfig = EstimatorConfig()):
    """Snap a box pose onto its anchored landmark cloud.

    ``local_points`` are object-frame landmark estimates.  Each point is
    assigned its nearest box face at entry (assignment fixed during the
    solve; ties go to the first face in :data:`geometry.FACES` order) and
    position plus yaw minimize the robust point-to-face distances, dims
    unchanged.  The ground-plane position is observable only through an x
    face and a z face of the box: with fewer than 3 points, or without a
    point on each of those two axes, the input state is returned with the
    flag False.  Returns (state, applied).
    """
    local_points = np.atleast_2d(np.asarray(local_points, dtype=float))
    if len(local_points) < 3:
        return state, False
    faces = np.argmin(np.abs(face_offsets(state.dims, local_points)), axis=1)
    # FACES pairs each axis's + and - face: face // 2 is the box axis
    axes = faces // 2
    if not ((axes == 0).any() and (axes == 2).any()):
        return state, False
    problem = _AlignProblem(state.pose.apply(local_points), faces, config)
    new_state, report = solve_nls(problem, state,
                                  max_iterations=config.max_iterations)
    if not report.converged:
        return state, False
    return new_state, True


# ---------------------------------------------------------------------------
# sliding-window tracker


@dataclass
class _TrackData:
    track_id: int
    label: str
    prior: DimensionPrior
    frames: list = field(default_factory=list)
    states: list = field(default_factory=list)
    landmarks: dict = field(default_factory=dict)
    feature_obs: list = field(default_factory=list)
    semantic_obs: list = field(default_factory=list)
    speed_initialized: bool = False


class WindowTracker:
    """Chains association, ego-motion and object solves over a stream.

    Feed measurement frames in time order through :meth:`process`; read
    the per-frame camera pose history from :attr:`camera_trajectory` and
    the object tracks from :attr:`object_trajectories` (internal track id
    to list of (frame index, ObjectState)).

    ``object_blind`` treats every feature as static background and skips
    object tracking; it exists as a degraded baseline for comparison.
    """

    def __init__(self, rig: StereoRig, config: EstimatorConfig = None,
                 initial_pose: Pose = None, object_blind=False,
                 depth_range=(2.0, 80.0)):
        self.rig = rig
        self.config = config if config is not None else EstimatorConfig()
        self.object_blind = object_blind
        self.depth_range = depth_range
        self.initial_pose = (initial_pose if initial_pose is not None
                             else Pose.identity())
        self.camera_trajectory = []
        self.bg_landmarks = {}
        self.bg_obs = {}
        self.tracks = {}
        self.object_trajectories = {}
        self._detector_to_track = {}
        self._next_track_id = 0
        self._prev_feature_uv = {}
        self._frame = -1
        self._prev_boxes = {}
        self.ego_reports = []

    # -- helpers

    def _triangulate(self, pose, left, right):
        disparity = left[0] - right[0]
        if disparity <= 1e-9:
            return None
        z = self.rig.baseline / disparity
        if not self.depth_range[0] * 0.5 <= z <= self.depth_range[1] * 2.0:
            return None
        return pose.apply(np.array([left[0] * z, left[1] * z, z]))

    def _init_pose(self):
        if self._frame == 0:
            return self.initial_pose
        if self._frame == 1:
            return self.camera_trajectory[-1]
        prev2, prev = self.camera_trajectory[-2:]
        rel = prev2.inverse().compose(prev)
        return prev.compose(rel)

    def _filter_group(self, group_obs):
        """Drop temporal mismatches within one rigid group via RANSAC."""
        paired = [(fid, left) for fid, left, _ in group_obs
                  if fid in self._prev_feature_uv]
        if len(paired) < 8:
            return group_obs
        prev = np.array([self._prev_feature_uv[fid] for fid, _ in paired])
        cur = np.array([uv for _, uv in paired])
        try:
            mask, passthrough = reject_outliers(
                prev, cur, feature_sigma=self.config.feature_sigma,
                seed=self._frame)
        except DegenerateGroup:
            return group_obs
        if passthrough:
            return group_obs
        bad = {fid for (fid, _), keep in zip(paired, mask) if not keep}
        return [obs for obs in group_obs if obs[0] not in bad]

    def _world_yaw(self, pose, cam_yaw):
        head = pose.rotation @ rot_y(cam_yaw)[:, 0]
        return math.atan2(-head[2], head[0])

    # -- per-frame stages

    def process(self, frame_measurements):
        self._frame += 1
        t = self._frame
        features = frame_measurements.features
        groups = {}
        for f in features:
            # anchor 0 marks static background in the measurement stream
            anchor = None if self.object_blind or f.anchor_id == 0 \
                else f.anchor_id
            groups.setdefault(anchor, []).append(
                (f.feature_id, np.asarray(f.left), np.asarray(f.right)))
        for key in groups:
            groups[key] = self._filter_group(groups[key])

        pose = self._init_pose()
        self.camera_trajectory.append(pose)
        self._solve_ego_window(groups.get(None, []))
        pose = self.camera_trajectory[t]

        if not self.object_blind:
            self._update_object_tracks(frame_measurements, groups, pose)

        self._prev_feature_uv = {f.feature_id: np.asarray(f.left)
                                 for f in features}

    def _solve_ego_window(self, bg_obs):
        t = self._frame
        pose = self.camera_trajectory[t]
        for fid, left, right in bg_obs:
            if fid not in self.bg_landmarks:
                point = self._triangulate(pose, left, right)
                if point is None:
                    continue
                self.bg_landmarks[fid] = point
            self.bg_obs.setdefault(fid, []).append((t, left, right))
        start = max(0, t - self.config.window + 1)
        # observations before the window are never read again
        self.bg_obs = {fid: kept for fid, obs in self.bg_obs.items()
                       if (kept := [o for o in obs if o[0] >= start])}
        if t - start < 1:
            return
        rows = [(f - start, fid, left, right)
                for fid, obs in self.bg_obs.items() if len(obs) >= 2
                for f, left, right in obs]
        if not rows:
            return
        try:
            result = solve_ego(self.camera_trajectory[start:t + 1],
                               self.bg_landmarks, feature_rows(rows),
                               self.rig, self.config)
        except NoConvergence:
            return
        self.camera_trajectory[start:t + 1] = result.poses
        self.bg_landmarks.update(result.landmarks)
        self.ego_reports.append(result.report)

    def _associate_semantic(self, semantic):
        """Map detections to internal track ids via box similarity."""
        t = self._frame
        cur_boxes = {s.object_id: s.box for s in semantic}
        rot_rel = None
        if t > 0:
            rot_rel = (self.camera_trajectory[t].rotation.T
                       @ self.camera_trajectory[t - 1].rotation)
        matches, _, new = associate_objects(self._prev_boxes, cur_boxes,
                                            rot_rel)
        det_to_track = {}
        for prev_det, cur_det in matches.items():
            if prev_det in self._detector_to_track:
                det_to_track[cur_det] = self._detector_to_track[prev_det]
        # box association can miss across an abrupt shape change (e.g. a
        # box clipped at the image border); fall back on detector-id
        # continuity for tracks not claimed by any other detection
        assigned = {tid for tid in det_to_track.values() if tid is not None}
        for cur_det in cur_boxes:
            if det_to_track.get(cur_det) is not None:
                continue
            tid = self._detector_to_track.get(cur_det)
            if tid is not None and tid in self.tracks and tid not in assigned:
                det_to_track[cur_det] = tid
                assigned.add(tid)
        for cur_det in new | (set(cur_boxes) - set(det_to_track)):
            det_to_track.setdefault(cur_det, None)
        self._prev_boxes = cur_boxes
        return det_to_track

    def _start_track(self, meas, pose):
        if not all(meas.valid_edges):
            return None
        prior = DEFAULT_PRIORS.get(meas.label, DEFAULT_PRIORS["car"])
        try:
            p_cam, yaw_cam, _ = infer_pose(meas.box, meas.viewpoint,
                                           prior.mean)
        except Exception:
            return None
        state = ObjectState(position=pose.apply(p_cam),
                            yaw=self._world_yaw(pose, yaw_cam),
                            dims=prior.mean.copy())
        track = _TrackData(self._next_track_id, meas.label, prior)
        self._next_track_id += 1
        self.tracks[track.track_id] = track
        self.object_trajectories[track.track_id] = []
        track.frames.append(self._frame)
        track.states.append(state)
        return track

    def _predict_state(self, track):
        from .simulate import propagate_object
        state = track.states[-1]
        gap = self._frame - track.frames[-1]
        for _ in range(gap):
            state = propagate_object(state, (state.speed, state.steer),
                                     self.config.dt, track.label)
        return state

    def _update_object_tracks(self, frame_measurements, groups, pose):
        t = self._frame
        det_to_track = self._associate_semantic(frame_measurements.semantic)
        seen_tracks = set()
        for meas in frame_measurements.semantic:
            track_id = det_to_track.get(meas.object_id)
            track = self.tracks.get(track_id) if track_id is not None else None
            if track is None:
                track = self._start_track(meas, pose)
                if track is None:
                    continue
            else:
                if track.frames[-1] != t:
                    track.states.append(self._predict_state(track))
                    track.frames.append(t)
            self._detector_to_track[meas.object_id] = track.track_id
            track.semantic_obs.append(
                (t, meas.box.as_array(), meas.valid_edges, meas.viewpoint))
            seen_tracks.add(track.track_id)
            # anchored features for this detection
            for fid, left, right in groups.get(meas.object_id, []):
                if fid not in track.landmarks:
                    world = self._triangulate(pose, left, right)
                    if world is None:
                        continue
                    track.landmarks[fid] = \
                        track.states[-1].pose.apply_inverse(world)
                track.feature_obs.append((t, fid, left, right))

        for track_id in sorted(seen_tracks):
            self._solve_track(self.tracks[track_id])
        for track_id in sorted(seen_tracks):
            track = self.tracks[track_id]
            self.object_trajectories[track_id].append(
                (t, track.states[-1]))

    def _maybe_init_speed(self, track):
        if track.speed_initialized or len(track.frames) < 2:
            return
        delta = track.states[-1].position - track.states[0].position
        span = (track.frames[-1] - track.frames[0]) * self.config.dt
        if span <= 0:
            return
        velocity = delta / span
        head = np.array([math.cos(track.states[-1].yaw), 0.0,
                         -math.sin(track.states[-1].yaw)])
        speed = float(velocity @ head)
        track.states = [s.replace(speed=speed) for s in track.states]
        track.speed_initialized = True

    def _solve_track(self, track):
        t = self._frame
        window = self.config.window
        start = max(0, t - window + 1)
        keep = [i for i, f in enumerate(track.frames) if f >= start]
        frames = [track.frames[i] for i in keep]
        self._maybe_init_speed(track)
        states = [track.states[i] for i in keep]
        # every observation is made at a track frame; those before the
        # window are never read again
        track.feature_obs = [o for o in track.feature_obs if o[0] >= start]
        track.semantic_obs = [o for o in track.semantic_obs
                              if o[0] >= start]
        features = [(f - start, fid, left, right)
                    for f, fid, left, right in track.feature_obs]
        semantic = [(f - start, edges, valid, viewpoint)
                    for f, edges, valid, viewpoint in track.semantic_obs]
        window_track = ObjectTrack(
            track.label, [f - start for f in frames], states,
            {fid: track.landmarks[fid] for _, fid, _, _ in features},
            track.prior, feature_rows(features), semantic_rows(semantic))
        try:
            result = solve_object(window_track,
                                  self.camera_trajectory[start:t + 1],
                                  self.rig, self.config)
        except NoConvergence:
            return
        for i, s in zip(keep, result.states):
            track.states[i] = s
        track.landmarks.update(result.landmarks)
        if track.landmarks:
            aligned, applied = align_point_cloud(
                track.states[-1], np.array(list(track.landmarks.values())),
                self.config)
            if applied:
                track.states[-1] = aligned
