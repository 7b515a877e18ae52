"""Sliding-window estimation of camera ego-motion and 3D object tracks.

The solve is staged: :func:`solve_ego` refines the camera poses and the
background landmarks from static feature observations, then, with the
camera poses held fixed, :func:`solve_objects` refines the object tracks
of the window, fusing feature, semantic box, motion-model and
dimension-prior residuals.  The tracks share nothing, so they are solved
together in one batched LM, a block per track, each taking the steps of
its solo solve (:func:`solve_object`) up to rounding.
:func:`align_point_clouds` then snaps the converged boxes, by position
only, to their window's anchored landmarks, again in one batched solve.
:class:`WindowTracker` chains the stages over a measurement stream, one
ego and one object solve per frame; it holds the window's observations
as arrays by absolute frame (:class:`FeatureRows`, :class:`SemanticRows`)
and hands the object solve its own tracks (:class:`ObjectTrack`).
Its ego solve takes the whole window only on a keyframe, chosen by
VINS-Mono's rule (Qin, Li and Shen 2018): the first frame, a frame whose
last keyframe has left the window, or one that sees again fewer than half
of that keyframe's background rows, or sees them moved by more than
:data:`KEYFRAME_PARALLAX_PX` on average in the left image.  Every other
frame solves its own pose alone against the landmarks and older poses
held (``solve_ego(..., pose_only=True)``), the same LM with the landmark
columns left out, as ORB-SLAM2 tracks between its local bundle
adjustments.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import residuals as res
from .associate import associate_objects, reject_outliers
from .boxinfer import (DEFAULT_PRIORS, DimensionPrior, infer_pose,
                       selection_set)
from .errors import (ConfigError, DegenerateGroup, NoConvergence,
                     NumericalFailure, SemtrackError)
from .geometry import (ObjectState, Pose, StereoRig, face_offsets,
                       project_rotation, rot_y, so3_exp, wrap_angle)
from .nls import (MIN_DAMPING, NUMERICAL_FAILURE, DenseNormalEquations,
                  RowBatch, SchurNormalEquations, SolveReport, scatter_plan,
                  solve_nls)
from .simulate import propagate_object

MIN_PARALLAX_DEG = 0.5
# stereo depths (m) outside which a new feature is not triangulated
MIN_DEPTH, MAX_DEPTH = 1.0, 160.0
# image noise of a feature point and of a box edge (px), the simulator's
# own units; each use divides them by the rig's focal length
FEATURE_SIGMA_PX, BOX_SIGMA_PX = 0.5, 1.0
# motion sigmas over (position x, y, z, yaw, steer, speed), scaled by
# sqrt(dt) when whitening
MOTION_SIGMAS = np.array([0.05, 0.05, 0.05, 0.02, 0.05, 0.5])
SURFACE_SIGMA = 0.05  # m, point-to-face distance
HUBER_SCALE = 3.0
# mean left-image motion (px) of the background since the last keyframe
# past which a frame solves the whole ego window, not its pose alone
KEYFRAME_PARALLAX_PX = 10.0


@dataclass(frozen=True)
class EstimatorConfig:
    """Sliding-window length (frames), an integer of at least 2, and frame
    interval (s), finite and positive; any other value raises
    :class:`ValueError`, its message led by the field's name."""

    window: int = 10
    dt: float = 0.1

    def __post_init__(self):
        if not isinstance(self.window, numbers.Integral) or \
                isinstance(self.window, bool) or self.window < 2:
            raise ValueError(f"window: expected an integer of at least 2, "
                             f"got {self.window!r}")
        if not (isinstance(self.dt, numbers.Real) and 0 < self.dt < math.inf):
            raise ValueError(f"dt: expected a finite positive number, got "
                             f"{self.dt!r}")


class FeatureRows(NamedTuple):
    """Stereo feature observations, one row each, sorted by frame and then
    landmark id (see :func:`feature_rows`).  The solvers take the frames
    of a window, counted from its oldest; :class:`WindowTracker` holds
    them by absolute frame, appending each frame's rows as it arrives."""

    frame: np.ndarray  # (n,) frame
    landmark: np.ndarray  # (n,) landmark id
    left: np.ndarray  # (n, 2) normalized left-image point
    right: np.ndarray  # (n, 2) normalized right-image point


class SemanticRows(NamedTuple):
    """Box detections of one object, one row each, by frame as in
    :class:`FeatureRows`."""

    frame: np.ndarray  # (n,) frame
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


def _take_rows(rows, keep):
    """The rows of ``rows`` (a :class:`FeatureRows` or
    :class:`SemanticRows`) where ``keep`` is true."""
    return rows._make(column[keep] for column in rows)


def _append_rows(rows, new):
    """``rows`` followed by the rows of ``new``."""
    return rows._make(np.concatenate(pair) for pair in zip(rows, new))


@dataclass
class ObjectTrack:
    """One tracked object's window, as :class:`WindowTracker` holds it and
    :func:`solve_objects` takes it.

    ``frames`` are the absolute frames of ``states``, ascending: the
    window's, or the last alone once the track is seen no more, to predict
    on when it is seen again.  Motion terms join consecutive frames.
    ``features`` and ``semantic`` are its feature and box rows by absolute
    frame, each among ``frames``; ``landmarks`` maps each row's landmark
    id to its object-frame point.
    """

    label: str
    prior: DimensionPrior
    frames: list = field(default_factory=list)
    states: list = field(default_factory=list)
    landmarks: dict = field(default_factory=dict)
    features: FeatureRows = field(default_factory=lambda: feature_rows(()))
    semantic: SemanticRows = field(default_factory=lambda: semantic_rows(()))

    @property
    def feature_obs(self):
        """The frames of the held feature rows, one per row (read-only)."""
        return self.features.frame

    @property
    def semantic_obs(self):
        """The frames of the held box rows, one per row (read-only)."""
        return self.semantic.frame

    def cut(self, start):
        """Drop the rows before frame ``start`` and the landmarks left
        without rows, and the states before it but the last."""
        self.features = _take_rows(self.features, self.features.frame >= start)
        self.semantic = _take_rows(self.semantic, self.semantic.frame >= start)
        held = set(self.features.landmark.tolist())
        self.landmarks = {k: v for k, v in self.landmarks.items() if k in held}
        drop = min(bisect.bisect_left(self.frames, start), len(self.frames) - 1)
        del self.frames[:drop], self.states[:drop]


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


# ---------------------------------------------------------------------------
# ego-motion window


class _EgoProblem:
    """Adapter exposing the ego window to the NLS engine, as one block.

    State is (rotations (F, 3, 3), translations (F, 3), landmarks (L,
    3)); the oldest pose is the gauge and stays constant.  Only landmarks
    observed in at least two frames are optimized; rows of other
    landmarks carry no information about the relative poses beyond a
    stereo depth and are dropped.  With ``pose_only`` the landmarks and
    every pose but the newest are held too: the rows are the newest
    frame's and the normal equations the 6 columns of its pose.  The rows
    stay the same for the whole solve (a row behind a camera adds zero),
    so their scatter plan is built once.  Each evaluation is one feature
    batch.
    """

    n_blocks = 1

    def __init__(self, poses, landmarks, rows, rig, pose_only=False):
        self.rig = rig
        self.info = 1.0 / (FEATURE_SIGMA_PX / rig.focal_px)
        self.n_poses = n = len(poses)
        self.pose_only = pose_only
        ids, counts = np.unique(rows.landmark, return_counts=True)
        self.lm_ids = np.array([lm for lm, c in zip(ids, counts)
                                if c >= 2 and lm in landmarks], dtype=int)
        keep = np.isin(rows.landmark, self.lm_ids)
        frame = rows.frame[keep]
        slot = np.searchsorted(self.lm_ids, rows.landmark[keep])
        left, right = rows.left[keep], rows.right[keep]
        lms = np.array([landmarks[lm] for lm in self.lm_ids]).reshape(-1, 3)
        centers = np.array([p.translation for p in poses])
        self.initial = (np.array([p.rotation for p in poses]), centers, lms)
        # parallax: mean ray angle between the first and last observation
        # of each optimized landmark, over the whole window
        first = np.full(len(lms), n)
        last = np.full(len(lms), -1)
        np.minimum.at(first, slot, frame)
        np.maximum.at(last, slot, frame)
        ray_a, ray_b = lms - centers[first], lms - centers[last]
        denom = np.linalg.norm(ray_a, axis=1) * np.linalg.norm(ray_b, axis=1)
        ok = denom >= 1e-12
        cos = np.einsum("ni,ni->n", ray_a[ok], ray_b[ok]) / denom[ok]
        self.parallax = float(np.mean(np.arccos(np.clip(cos, -1.0, 1.0)))) \
            if ok.any() else 0.0
        if pose_only:
            newest = frame == n - 1
            frame, slot = frame[newest], slot[newest]
            left, right = left[newest], right[newest]
            self.size, self.moved = 6, slice(n - 1, None)
            self.plan = scatter_plan(np.zeros(len(frame), dtype=int),
                                     np.arange(6), 1, 6)
        else:
            self.size, self.moved = 6 * (n - 1), slice(1, None)
            # rows of the gauge frame touch the landmark columns only
            cols = np.where(frame[:, None] > 0,
                            6 * (frame[:, None] - 1) + np.arange(6), -1)
            self.plan = scatter_plan(np.zeros(len(frame), dtype=int), cols,
                                     1, self.size, slot, len(self.lm_ids))
        self.frame, self.slot, self.left, self.right = frame, slot, left, right

    def equations(self):
        if self.pose_only:
            return DenseNormalEquations(self.size)
        return SchurNormalEquations(self.size, len(self.lm_ids))

    def batches(self, state, blocks, jacobians):
        rot, trans, lms = state
        info = self.info
        r, jac, _ = res.feature_residuals_batch(
            self.left, self.right, rot[self.frame], trans[self.frame],
            lms[self.slot], self.rig, jacobians=jacobians)
        if not jacobians:
            return [RowBatch(r * info, huber_delta=HUBER_SCALE,
                             tag="feature")]
        lm_jac = None if self.pose_only else jac["landmark"] * info
        return [RowBatch(r * info, jac["camera"] * info,
                         huber_delta=HUBER_SCALE, tag="feature",
                         lm_jac=lm_jac, plan=self.plan)]

    def retract(self, state, step, blocks):
        rot, trans, lms = state
        d = step[0][0].reshape(-1, 6)
        moved = self.moved
        rot, trans = rot.copy(), trans.copy()
        rot[moved] = project_rotation(rot[moved] @ so3_exp(d[:, 3:]))
        trans[moved] += d[:, :3]
        return rot, trans, lms if self.pose_only else lms + step[1][0]


def solve_ego(poses, landmarks, rows: FeatureRows, rig: StereoRig,
              pose_only=False):
    """Refine the camera window and background landmarks.

    ``poses`` is the window, oldest first; the oldest stays fixed as the
    gauge.  ``landmarks`` maps landmark id to world position and ``rows``
    are the background feature observations, framed by window index.
    With ``pose_only`` the solve moves the newest pose alone, against the
    newest frame's rows of the landmarks seen at least twice, and hands
    back every other pose and landmark as it came.  The window starts
    from the last frame's optimum apart from its newest pose, so its LM
    starts at the damping floor :data:`nls.MIN_DAMPING` rather than the
    1e-4 of the object and alignment solves.  Returns an
    :class:`EgoResult` with the optimized landmarks; the
    ``insufficient_parallax`` flag is set when the mean triangulation
    angle over them, in the whole window, is below half a degree (the
    solve still runs).
    """
    if len(poses) < 2:
        raise ValueError("ego window needs at least two camera poses")
    if np.any(rows.frame >= len(poses)):
        raise ValueError("feature row references a missing frame")
    ego = _EgoProblem(poses, landmarks, rows, rig, pose_only)
    flag = ego.parallax < math.radians(MIN_PARALLAX_DEG)
    (rot, trans, lms), (report,) = solve_nls(ego, ego.initial,
                                             initial_damping=MIN_DAMPING)
    _raise_unless_converged(report, "ego")
    return EgoResult([Pose(r, t) for r, t in zip(rot, trans)],
                     dict(zip(ego.lm_ids.tolist(), lms)), report, flag)


def _raise_unless_converged(report, what):
    if report.reason == NUMERICAL_FAILURE:
        raise NumericalFailure(
            "normal equations unsolvable at maximum damping")
    if not report.converged:
        raise NoConvergence(f"{what} window failed to converge; "
                            "state unchanged")


# ---------------------------------------------------------------------------
# object windows


def _stack_rows(parts):
    """One dict of arrays from per-track dicts with the same keys."""
    return {key: np.concatenate([p[key] for p in parts])
            for key in parts[0]}


class _ObjectProblem:
    """Adapter exposing the object tracks of one window to the NLS engine,
    one block per track.

    State is (motion (k, n, 6), dims (k, 3), landmarks (k, m, 3)): per
    track a row (position, yaw, steer, speed) per window state and a row
    per landmark, both padded to the longest track; camera poses are
    constants.  A block's dense layout is one 6-slot per state followed by
    dims at column 6n.  Slots past a track's own states are padding, and
    so are the dims of a track whose dims are locked (under-constrained
    tracks).  Each evaluation is one batch per residual family over the
    listed tracks; each row carries its track and the scatter plan of the
    columns and landmark it touches, built once per solve.
    """

    def __init__(self, tracks, camera_poses, rig, dt, locked, start=0):
        self.rig = rig
        self.feature_info = 1.0 / (FEATURE_SIGMA_PX / rig.focal_px)
        self.box_sigma = BOX_SIGMA_PX / rig.focal_px
        self.n_blocks = k = len(tracks)
        n_states = np.array([len(t.frames) for t in tracks])
        self.n_states = n = int(n_states.max())
        self.lm_ids = [np.array(sorted(t.landmarks), dtype=int)
                       for t in tracks]
        self.n_landmarks = max(len(ids) for ids in self.lm_ids)
        dims_cols = 6 * n + np.arange(3)
        self.used = np.hstack([np.arange(6 * n) < 6 * n_states[:, None],
                               np.repeat(~np.asarray(locked)[:, None], 3,
                                         axis=1)])
        cam_rot = np.array([p.rotation for p in camera_poses])
        cam_trans = np.array([p.translation for p in camera_poses])
        motion = np.zeros((k, n, 6))
        lms = np.zeros((k, self.n_landmarks, 3))
        feat, sem, mot, prior = [], [], [], []
        for b, (track, ids, lock) in enumerate(zip(tracks, self.lm_ids,
                                                   locked)):
            frames = np.asarray(track.frames)
            motion[b, :len(frames)] = [[*s.position, s.yaw, s.steer, s.speed]
                                       for s in track.states]
            lms[b, :len(ids)] = np.reshape(
                [track.landmarks[lm] for lm in ids], (-1, 3))
            own_dims = np.full(3, -1) if lock else dims_cols
            rows = track.features
            keep = np.isin(rows.landmark, ids)
            slot = np.searchsorted(frames, rows.frame[keep])
            cam = rows.frame[keep] - start
            # position and yaw: the first 4 columns of the state's slot
            feat.append({
                "block": np.full(len(slot), b), "slot": slot,
                "lm": np.searchsorted(ids, rows.landmark[keep]),
                "left": rows.left[keep], "right": rows.right[keep],
                "rot": cam_rot[cam], "trans": cam_trans[cam],
                "cols": 6 * slot[:, None] + np.arange(4)})
            rows = track.semantic
            slot = np.searchsorted(frames, rows.frame)
            cam = rows.frame - start
            sem.append({
                "block": np.full(len(slot), b), "slot": slot,
                "edges": rows.edges, "valid": rows.valid, "signs": rows.signs,
                "rot": cam_rot[cam], "trans": cam_trans[cam],
                "cols": np.hstack([6 * slot[:, None] + np.arange(4),
                                   np.broadcast_to(own_dims,
                                                   (len(slot), 3))])})
            # motion terms join each state (slot + 1) to the one before
            slot = np.arange(len(frames) - 1)
            gaps = np.diff(frames) * dt
            mot.append({
                "block": np.full(len(slot), b), "slot": slot, "dt": gaps,
                "info": 1.0 / (MOTION_SIGMAS * np.sqrt(gaps)[:, None]),
                "label": np.full(len(slot), track.label),
                "cols": np.hstack([6 * slot[:, None] + 6 + np.arange(6),
                                   6 * slot[:, None] + np.arange(6),
                                   np.broadcast_to(own_dims,
                                                   (len(slot), 3))])})
            # locked dims sit at the prior mean: zero residual, no columns
            info = 1.0 / np.asarray(track.prior.sigma, dtype=float)
            prior.append({"block": np.array([b]),
                          "mean": track.prior.mean[None], "info": info[None],
                          "jac": np.diag(info)[None], "cols": own_dims[None]})
        self.rows = {"feature": _stack_rows(feat),
                     "semantic": _stack_rows(sem),
                     "motion": _stack_rows(mot), "prior": _stack_rows(prior)}
        for rows in self.rows.values():
            rows["plan"] = scatter_plan(rows["block"], rows.pop("cols"), k,
                                        6 * n + 3, rows.get("lm"),
                                        self.n_landmarks)
        self._taken = (None, None)
        dims = np.array([t.states[0].dims for t in tracks], dtype=float)
        self.initial = (motion, dims, lms)

    def equations(self):
        return SchurNormalEquations(6 * self.n_states + 3, self.n_landmarks,
                                    n_blocks=self.n_blocks, used=self.used)

    def _rows(self, blocks):
        """Each family's rows of ``blocks``.  The last set is kept: a solve
        mostly lists the same blocks several times in a row."""
        if len(blocks) == self.n_blocks:
            return self.rows
        key = tuple(blocks.tolist())
        if self._taken[0] != key:
            listed = np.isin(np.arange(self.n_blocks), blocks)
            self._taken = (key, {
                name: {k: v[listed[rows["block"]]] for k, v in rows.items()}
                for name, rows in self.rows.items()})
        return self._taken[1]

    def batches(self, state, blocks, jacobians):
        motion, dims, lms = state
        families = self._rows(blocks)
        rows = families["feature"]
        if len(rows["block"]):
            info = self.feature_info
            block, slot = rows["block"], rows["slot"]
            r, jac, _ = res.feature_residuals_batch(
                rows["left"], rows["right"], rows["rot"], rows["trans"],
                lms[block, rows["lm"]], self.rig, motion[block, slot, :3],
                motion[block, slot, 3], jacobians)
            jac_w = lm_jac = plan = None
            if jacobians:
                jac_w, lm_jac = jac["object"] * info, jac["landmark"] * info
                plan = rows["plan"]
            yield RowBatch(r * info, jac_w, plan, HUBER_SCALE, "feature",
                           lm_jac, block)
        rows = families["semantic"]
        if len(rows["block"]):
            block, slot = rows["block"], rows["slot"]
            r, jac, hit = res.semantic_residual(
                rows["edges"], rows["valid"], rows["signs"], rows["rot"],
                rows["trans"], motion[block, slot, :3], motion[block, slot, 3],
                dims[block], jacobians)
            det = np.nonzero(hit)[0]
            jac_w = plan = None
            if jacobians:
                jac_w = np.concatenate([jac["object"], jac["dims"]],
                                       axis=1)[:, None] / self.box_sigma
                plan = rows["plan"][det]
            yield RowBatch(r[:, None] / self.box_sigma, jac_w, tag="semantic",
                           block=block[det], plan=plan)
        rows = families["motion"]
        if len(rows["block"]):
            block, slot = rows["block"], rows["slot"]
            r, jac = res.motion_residual(
                motion[block, slot + 1], motion[block, slot], rows["dt"],
                dims[block], rows["label"], jacobians)
            info = rows["info"]
            jac_w = None
            if jacobians:
                jac_w = np.concatenate([jac["cur"], jac["prev"], jac["dims"]],
                                       axis=2) * info[:, :, None]
            yield RowBatch(r * info, jac_w, tag="motion", block=block,
                           plan=rows["plan"])
        rows = families["prior"]
        if len(rows["block"]):
            block = rows["block"]
            r = res.prior_residual(dims[block], rows["mean"])
            yield RowBatch(r * rows["info"], rows["jac"], tag="prior",
                           block=block, plan=rows["plan"])

    def retract(self, state, step, blocks):
        motion, dims, lms = state
        dense, dx_l = step
        n = self.n_states
        motion, dims, lms = motion.copy(), dims.copy(), lms.copy()
        moved = motion[blocks] + dense[:, :6 * n].reshape(-1, n, 6)
        moved[:, :, 3] = wrap_angle(moved[:, :, 3])
        motion[blocks] = moved
        # locked dims get a zero step
        dims[blocks] = np.maximum(dims[blocks] + dense[:, 6 * n:], 1e-3)
        lms[blocks] += dx_l
        return motion, dims, lms


def solve_objects(tracks, camera_poses, rig: StereoRig,
                  config: EstimatorConfig = EstimatorConfig(), start=0):
    """Refine the object tracks of one window with the camera poses held
    fixed, in one LM solve with a block per track.

    ``camera_poses[i]`` is the pose of absolute frame ``start + i``, and
    every frame of a track must have a pose.  Each track fuses its feature
    and semantic rows, the motion model between its consecutive frames
    and its dimension prior; tracks share nothing, and each track takes
    the steps of a solve of that track alone, up to rounding.  When a
    track covers a single frame with semantic measurements only, the
    problem cannot constrain its dims: they are locked to the prior mean
    and the ``under_constrained`` flag is set.  Returns one
    :class:`ObjectResult` per track; a track whose report is not
    ``converged`` keeps its input states and landmarks.
    """
    if not tracks:
        return []
    for track in tracks:
        if not track.frames:
            raise ValueError("object track has no frames")
        for rows in (track.features, track.semantic):
            if not np.isin(rows.frame, track.frames).all():
                raise ValueError("row references a frame outside the track")
        if track.frames[0] < start or \
                track.frames[-1] >= start + len(camera_poses):
            raise ValueError("track frame outside the window's poses")
    under = [len(t.frames) == 1 and not len(t.features.frame)
             for t in tracks]
    tracks = [replace(t, states=[s.replace(dims=t.prior.mean)
                                 for s in t.states]) if lock else t
              for t, lock in zip(tracks, under)]
    obj = _ObjectProblem(tracks, camera_poses, rig, config.dt, under, start)
    (motion, dims, lms), reports = solve_nls(obj, obj.initial)
    results = []
    for b, (track, report) in enumerate(zip(tracks, reports)):
        if not report.converged:
            results.append(ObjectResult(
                list(track.states), np.asarray(track.states[0].dims),
                dict(track.landmarks), report, under[b]))
            continue
        states = [ObjectState(position=m[:3].copy(), yaw=m[3],
                              dims=dims[b], steer=m[4], speed=m[5])
                  for m in motion[b, :len(track.frames)]]
        ids = obj.lm_ids[b]
        results.append(ObjectResult(
            states, dims[b].copy(), dict(zip(ids.tolist(), lms[b, :len(ids)])),
            report, under[b]))
    return results


def solve_object(track: ObjectTrack, camera_poses, rig: StereoRig,
                 config: EstimatorConfig = EstimatorConfig()):
    """Refine one object track with the camera poses held fixed: the
    single-track case of :func:`solve_objects`.  Raises
    :class:`NoConvergence` when the solve does not converge."""
    (result,) = solve_objects([track], camera_poses, rig, config)
    _raise_unless_converged(result.report, "object")
    return result


# ---------------------------------------------------------------------------
# point-cloud-to-box alignment


class _AlignProblem:
    """Box positions (k, 3), yaws held, of k objects against their
    world-frame point clouds, one block per object."""

    def __init__(self, states, world_points, faces):
        self.n_blocks = len(states)
        self.block = np.repeat(np.arange(self.n_blocks),
                               [len(p) for p in world_points])
        self.points = np.concatenate(world_points)
        self.faces = np.concatenate(faces)
        self.yaw = np.array([s.yaw for s in states])
        self.dims = np.array([s.dims for s in states])
        self.plan = scatter_plan(self.block, np.arange(3), self.n_blocks, 3)
        self.initial = np.array([s.position for s in states])

    def equations(self):
        return DenseNormalEquations(3, self.n_blocks)

    def batches(self, position, blocks, jacobians):
        rows = (slice(None) if len(blocks) == self.n_blocks
                else np.isin(self.block, blocks))
        block = self.block[rows]
        info = 1.0 / SURFACE_SIGMA
        r, jac = res.point_surface_residual(
            self.points[rows], position[block], self.yaw[block],
            self.dims[block], self.faces[rows], jacobians=jacobians)
        jac_w = jac["object"][:, None, :] * info if jacobians else None
        return [RowBatch(r[:, None] * info, jac_w, huber_delta=HUBER_SCALE,
                         tag="point_surface", block=block,
                         plan=self.plan[rows])]

    def retract(self, position, step, blocks):
        (dense,) = step
        position = position.copy()
        position[blocks] += dense
        return position


def align_point_clouds(states, clouds):
    """Snap box positions onto their anchored landmark clouds, in one LM
    solve with a block per box.

    ``clouds`` are the object-frame landmark estimates of each state.
    Each point is assigned its nearest box face at entry (assignment
    fixed during the solve; ties go to the first face in
    :data:`geometry.FACES` order) and the position minimizes the robust
    point-to-face distances, yaw and dims unchanged.  The ground-plane
    position is observable only through an x face and a z face of the
    box: with fewer than 3 points, without a point on each of those two
    axes, or when the solve does not converge, the input state comes back
    with the flag False.  Returns a list of (state, applied).
    """
    out = [(state, False) for state in states]
    picked, world, faces = [], [], []
    for i, (state, points) in enumerate(zip(states, clouds)):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if len(points) < 3:
            continue
        face = np.argmin(np.abs(face_offsets(state.dims, points)), axis=1)
        # FACES pairs each axis's + and - face: face // 2 is the box axis
        axes = face // 2
        if not ((axes == 0).any() and (axes == 2).any()):
            continue
        picked.append(i)
        world.append(state.pose.apply(points))
        faces.append(face)
    if not picked:
        return out
    problem = _AlignProblem([states[i] for i in picked], world, faces)
    position, reports = solve_nls(problem, problem.initial)
    for j, (i, report) in enumerate(zip(picked, reports)):
        if report.converged:
            out[i] = (states[i].replace(position=position[j].copy()), True)
    return out


def align_point_cloud(state: ObjectState, local_points):
    """Snap one box pose onto its anchored landmark cloud: the
    single-box case of :func:`align_point_clouds`.  Returns (state,
    applied)."""
    return align_point_clouds([state], [local_points])[0]


# ---------------------------------------------------------------------------
# sliding-window tracker


class WindowTracker:
    """Chains association, ego-motion and object solves over a stream.

    Feed measurement frames in time order through :meth:`process`; read
    the per-frame camera pose history from :attr:`camera_trajectory` and
    the object tracks from :attr:`object_trajectories` (internal track id
    to list of (frame index, ObjectState)).  The window's background
    observations are held in :attr:`bg_rows` by absolute frame.
    """

    def __init__(self, rig: StereoRig, config: EstimatorConfig = None,
                 initial_pose: Pose = None):
        self.rig = rig
        self.config = config if config is not None else EstimatorConfig()
        self.initial_pose = (initial_pose if initial_pose is not None
                             else Pose.identity())
        self.camera_trajectory = []
        self.bg_landmarks = {}
        self.bg_rows = feature_rows(())
        self.tracks = {}
        self.object_trajectories = {}
        self._detector_to_track = {}
        self._next_track_id = 0
        # feature ids and left points of the last frame
        self._prev_ids = np.zeros(0, dtype=int)
        self._prev_left = np.zeros((0, 2))
        self._frame = -1
        self._keyframe = -1
        self._prev_boxes = {}

    @property
    def bg_obs(self):
        """The held background observations (read-only): landmark id to
        the frames it is observed in."""
        rows = self.bg_rows
        return {fid: rows.frame[rows.landmark == fid]
                for fid in np.unique(rows.landmark).tolist()}

    # -- helpers

    def _triangulate(self, pose, left, right):
        disparity = left[0] - right[0]
        if disparity <= 1e-9:
            return None
        z = self.rig.baseline / disparity
        if not MIN_DEPTH <= z <= MAX_DEPTH:
            return None
        return pose.apply(np.array([left[0] * z, left[1] * z, z]))

    def _new_rows(self, landmarks, ids, left, right, place):
        """The feature rows of this frame for ``ids``, sorted by id.  An id
        not in ``landmarks`` is triangulated and added as ``place`` of its
        world point; one that cannot be triangulated gets no row."""
        pose = self.camera_trajectory[self._frame]
        keep = np.ones(len(ids), dtype=bool)
        id_list = ids.tolist()
        for i in np.flatnonzero([fid not in landmarks for fid in id_list]):
            # a repeated id is triangulated once
            if id_list[i] in landmarks:
                continue
            point = self._triangulate(pose, left[i], right[i])
            if point is None:
                keep[i] = False
            else:
                landmarks[id_list[i]] = place(point)
        keep = np.flatnonzero(keep)
        keep = keep[np.argsort(ids[keep], kind="stable")]
        return FeatureRows(np.full(len(keep), self._frame), ids[keep],
                           left[keep], right[keep])

    def _init_pose(self):
        if self._frame == 0:
            return self.initial_pose
        if self._frame == 1:
            return self.camera_trajectory[-1]
        prev2, prev = self.camera_trajectory[-2:]
        rel = prev2.inverse().compose(prev)
        return prev.compose(rel)

    def _filter_group(self, group, ids, left, prev):
        """The features of one rigid group, as indices into the frame,
        without the temporal mismatches that RANSAC finds.  ``prev`` is
        each feature's index in the last frame, or -1."""
        paired = group[prev[group] >= 0]
        if len(paired) < 8:
            return group
        try:
            mask, passthrough = reject_outliers(
                self._prev_left[prev[paired]], left[paired],
                feature_sigma=FEATURE_SIGMA_PX / self.rig.focal_px,
                seed=self._frame)
        except DegenerateGroup:
            return group
        if passthrough:
            return group
        return group[~np.isin(ids[group], ids[paired[~mask]])]

    def _previous_index(self, ids):
        """Index of each of ``ids`` in the last frame (its last feature of
        that id), or -1."""
        prev = self._prev_ids
        if not len(prev):
            return np.full(len(ids), -1)
        order = np.argsort(prev, kind="stable")
        pos = np.searchsorted(prev[order], ids, side="right") - 1
        index = order[np.maximum(pos, 0)]
        return np.where((pos >= 0) & (prev[index] == ids), index, -1)

    def _world_yaw(self, pose, cam_yaw):
        head = pose.rotation @ rot_y(cam_yaw)[:, 0]
        return math.atan2(-head[2], head[0])

    # -- per-frame stages

    def _frame_points(self, frame_measurements):
        """Feature ids, anchor ids (n,) and left and right image points
        (n, 2) of the next frame.  Raises :class:`ConfigError` naming the
        frame when an id is not an integer, a label has no prior or a
        point is not a 2-vector, and naming the feature or detection as
        well when a detection does not have 4 edge flags or a point or a
        box edge is not finite."""
        where = f"frame {self._frame + 1}"
        features = frame_measurements.features
        semantic = frame_measurements.semantic
        try:
            ids = np.array([f.feature_id for f in features], dtype=int)
            anchors = np.array([f.anchor_id for f in features], dtype=int)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(where, "a feature or anchor id is not an "
                              "integer") from exc
        try:
            points = np.array([(f.left, f.right) for f in features],
                              dtype=float).reshape(len(features), 2, 2)
        except ValueError as exc:
            raise ConfigError(where, "a feature point is not a 2-vector") \
                from exc
        bad = ~np.isfinite(points).all(axis=(1, 2))
        if bad.any():
            fid = features[int(np.argmax(bad))].feature_id
            raise ConfigError(where,
                              f"feature {fid} has a non-finite image point")
        for s in semantic:
            if not isinstance(s.object_id, numbers.Integral) or \
                    isinstance(s.object_id, bool):
                raise ConfigError(where, f"detection id {s.object_id!r} is "
                                  "not an integer")
            if not (isinstance(s.label, str) and s.label in DEFAULT_PRIORS):
                raise ConfigError(where, f"detection {s.object_id} has "
                                  f"unknown label {s.label!r}")
            if np.shape(s.valid_edges) != (4,):
                raise ConfigError(where, f"detection {s.object_id} does not "
                                  "have 4 edge flags")
        boxes = np.array([s.box.as_array() for s in semantic]).reshape(-1, 4)
        bad = ~np.isfinite(boxes).all(axis=1)
        if bad.any():
            det = semantic[int(np.argmax(bad))].object_id
            raise ConfigError(where,
                              f"detection {det} has a non-finite box edge")
        return ids, anchors, points[:, 0], points[:, 1]

    def process(self, frame_measurements):
        """Track one frame.  A frame that :meth:`_frame_points` refuses
        raises :class:`ConfigError` and changes nothing."""
        ids, anchors, left, right = self._frame_points(frame_measurements)
        self._frame += 1
        t = self._frame
        # each rigid group's features, in frame order; anchor 0 marks
        # static background in the measurement stream
        order = np.argsort(anchors, kind="stable")
        keys, first = np.unique(anchors[order], return_index=True)
        prev = self._previous_index(ids)
        groups = {key: self._filter_group(group, ids, left, prev)
                  for key, group in zip(keys.tolist(),
                                        np.split(order, first[1:]))}
        background = groups.pop(0, order[:0])

        pose = self._init_pose()
        self.camera_trajectory.append(pose)
        self._solve_ego_window(ids[background], left[background],
                               right[background])
        pose = self.camera_trajectory[t]

        self._update_object_tracks(frame_measurements.semantic, groups, ids,
                                   left, right, pose)
        self._prev_ids, self._prev_left = ids, left

    def _solve_ego_window(self, ids, left, right):
        """Append this frame's background rows, drop the rows and landmarks
        that leave the window, and solve the window: all of it on a
        keyframe (:meth:`_is_keyframe`), else the newest pose alone, after
        which the landmarks first seen in this frame are triangulated
        again from the solved pose.  The rows go to :func:`solve_ego` as
        held, framed from the window's start; it leaves out the landmarks
        seen once."""
        t = self._frame
        start = max(0, t - self.config.window + 1)
        new = self._new_rows(self.bg_landmarks, ids, left, right,
                             lambda point: point)
        rows = self.bg_rows
        born = new.landmark[~np.isin(new.landmark, rows.landmark)].tolist()
        self.bg_rows = rows = _append_rows(
            _take_rows(rows, rows.frame >= start), new)
        # a landmark without rows in the window is never read again
        held, counts = np.unique(rows.landmark, return_counts=True)
        self.bg_landmarks = {fid: self.bg_landmarks[fid]
                             for fid in held.tolist()}
        keyframe = self._is_keyframe(rows, start)
        if keyframe:
            self._keyframe = t
        if t == start or not (counts >= 2).any():
            return
        predicted = self.camera_trajectory[t]
        try:
            result = solve_ego(self.camera_trajectory[start:t + 1],
                               self.bg_landmarks,
                               rows._replace(frame=rows.frame - start),
                               self.rig, pose_only=not keyframe)
        except (NoConvergence, NumericalFailure):
            # the window keeps its predicted poses
            return
        self.camera_trajectory[start:t + 1] = result.poses
        self.bg_landmarks.update(result.landmarks)
        if born and not keyframe:
            move = result.poses[-1].compose(predicted.inverse())
            self.bg_landmarks.update(zip(born, move.apply(
                [self.bg_landmarks[fid] for fid in born])))

    def _is_keyframe(self, rows, start):
        """Whether this frame's ego solve takes the whole window (VINS-Mono's
        rule): it is the first frame, or the last keyframe has left the
        window, or fewer than half of that keyframe's background rows are
        seen again in this frame, or the shared ones have moved by more
        than :data:`KEYFRAME_PARALLAX_PX` on average in the left image."""
        if self._keyframe < start:
            return True
        key, now = rows.frame == self._keyframe, rows.frame == self._frame
        shared, at_key, at_now = np.intersect1d(
            rows.landmark[key], rows.landmark[now], return_indices=True)
        if not len(shared) or \
                2 * np.isin(rows.landmark[key], shared).sum() < key.sum():
            return True
        flow = rows.left[now][at_now] - rows.left[key][at_key]
        return bool(np.linalg.norm(flow, axis=1).mean() * self.rig.focal_px
                    > KEYFRAME_PARALLAX_PX)

    def _associate_semantic(self, semantic):
        """Map detections to internal track ids via box similarity."""
        t = self._frame
        cur_boxes = {s.object_id: s.box for s in semantic}
        rot_rel = None
        if t > 0:
            rot_rel = (self.camera_trajectory[t].rotation.T
                       @ self.camera_trajectory[t - 1].rotation)
        matches = associate_objects(self._prev_boxes, cur_boxes, rot_rel)[0]
        det_to_track = {}
        for prev_det, cur_det in matches.items():
            if prev_det in self._detector_to_track:
                det_to_track[cur_det] = self._detector_to_track[prev_det]
        # box association can miss across an abrupt shape change (e.g. a
        # box clipped at the image border); fall back on detector-id
        # continuity for tracks not claimed by any other detection
        assigned = set(det_to_track.values())
        for cur_det in cur_boxes:
            if cur_det in det_to_track:
                continue
            tid = self._detector_to_track.get(cur_det)
            if tid is not None and tid in self.tracks and tid not in assigned:
                det_to_track[cur_det] = tid
                assigned.add(tid)
        self._prev_boxes = cur_boxes
        return det_to_track

    def _start_track(self, meas, pose):
        if not all(meas.valid_edges):
            return None
        prior = DEFAULT_PRIORS[meas.label]
        try:
            p_cam, yaw_cam, _ = infer_pose(meas.box, meas.viewpoint,
                                           prior.mean)
        except SemtrackError:
            return None
        state = ObjectState(position=pose.apply(p_cam),
                            yaw=self._world_yaw(pose, yaw_cam),
                            dims=prior.mean.copy())
        track_id = self._next_track_id
        self._next_track_id += 1
        self.tracks[track_id] = ObjectTrack(meas.label, prior, [self._frame],
                                            [state])
        self.object_trajectories[track_id] = []
        return track_id

    def _predict_state(self, track):
        state = track.states[-1]
        gap = self._frame - track.frames[-1]
        for _ in range(gap):
            state = propagate_object(state, (state.speed, state.steer),
                                     self.config.dt, track.label)
        return state

    def _update_object_tracks(self, semantic, groups, ids, left, right,
                              pose):
        """Append each detection's box row and the rows of its anchored
        features (``groups``: anchor id to indices into the frame) to its
        track, then solve the tracks seen."""
        t = self._frame
        det_to_track = self._associate_semantic(semantic)
        seen = {}
        for meas in semantic:
            track_id = det_to_track.get(meas.object_id)
            if track_id not in self.tracks:
                track_id = self._start_track(meas, pose)
                if track_id is None:
                    continue
            track = self.tracks[track_id]
            if track.frames[-1] != t:
                track.states.append(self._predict_state(track))
                track.frames.append(t)
            self._detector_to_track[meas.object_id] = track_id
            track.semantic = _append_rows(track.semantic, semantic_rows([(
                t, meas.box.as_array(), meas.valid_edges, meas.viewpoint)]))
            seen[track_id] = track
            group = groups.get(meas.object_id)
            if group is not None:
                track.features = _append_rows(track.features, self._new_rows(
                    track.landmarks, ids[group], left[group], right[group],
                    track.states[-1].pose.apply_inverse))

        tracks = sorted(seen.items())
        self._solve_tracks([track for _, track in tracks])
        for track_id, track in tracks:
            self.object_trajectories[track_id].append((t, track.states[-1]))

    def _solve_tracks(self, tracks):
        """Cut every track to the window, then solve the windows of
        ``tracks`` together and align the box positions of the converged
        ones onto their window's landmarks.  A track whose window no box
        sizes (:func:`_range_observed`) is not solved, and neither it nor
        a track whose solve does not converge moves: both keep their
        predicted states."""
        t = self._frame
        start = max(0, t - self.config.window + 1)
        for track in self.tracks.values():
            track.cut(start)
        tracks = [track for track in tracks if _range_observed(track.semantic)]
        results = solve_objects(tracks, self.camera_trajectory[start:t + 1],
                                self.rig, self.config, start)
        solved = []
        for track, result in zip(tracks, results):
            if not result.report.converged:
                continue
            track.states = result.states
            track.landmarks.update(result.landmarks)
            if track.landmarks:
                solved.append(track)
        aligned = align_point_clouds(
            [track.states[-1] for track in solved],
            [np.array(list(track.landmarks.values())) for track in solved])
        for track, (state, applied) in zip(solved, aligned):
            if applied:
                track.states[-1] = state


def _range_observed(semantic: SemanticRows):
    """Whether some box of a window keeps both of its edges along an image
    axis.  Only such a box's width or height ties an object's range to its
    dimension prior.  A box truncated on two adjacent sides, as when a car
    leaves the image, keeps one edge per axis, and a window of them lets
    the solve slide the object metres along the line of sight to a lower
    cost."""
    valid = semantic.valid
    return bool((valid[:, 0::2].all(axis=1) | valid[:, 1::2].all(axis=1))
                .any())
