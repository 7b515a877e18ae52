"""Trajectory and detection metrics.

Relative pose error, absolute trajectory error after closed-form rigid
alignment, oriented box IoU in bird's eye view and 3D, and per-threshold
average-precision / position-error curves over detection records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch
from .geometry import Box3D, rot_y

N_THRESHOLDS = 40  # IoU thresholds of the detection curves, k / 40


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed camera poses with strictly increasing timestamps."""

    times: np.ndarray
    poses: tuple

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if len(times) != len(self.poses):
            raise LengthMismatch("times and poses differ in length")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "poses", tuple(self.poses))

    def __len__(self):
        return len(self.poses)

    @property
    def positions(self):
        return np.array([p.translation for p in self.poses])


@dataclass(frozen=True)
class DetectionRecord:
    """One 3D box detection or label at one frame (camera frame)."""

    frame: int
    object_id: int
    box: Box3D


def _check_aligned(est: Trajectory, gt: Trajectory):
    if len(est) != len(gt):
        raise LengthMismatch("trajectories differ in length")
    if not np.allclose(est.times, gt.times):
        raise LengthMismatch("trajectory timestamps do not match")


def rpe(est: Trajectory, gt: Trajectory, step=1):
    """Per-step relative pose error.

    For each index i the relative motions over ``step`` frames are
    compared; returns (translation error norms, rotation error angles)
    as arrays of length n - step.
    """
    _check_aligned(est, gt)
    if step < 1 or step >= len(est):
        raise ValueError("step must be in [1, len - 1]")
    trans, rot = [], []
    for i in range(len(est) - step):
        rel_est = est.poses[i].inverse().compose(est.poses[i + step])
        rel_gt = gt.poses[i].inverse().compose(gt.poses[i + step])
        err = rel_gt.inverse().compose(rel_est)
        trans.append(float(np.linalg.norm(err.translation)))
        cos = (np.trace(err.rotation) - 1.0) / 2.0
        rot.append(float(np.arccos(np.clip(cos, -1.0, 1.0))))
    return np.array(trans), np.array(rot)


def umeyama_alignment(source, target):
    """Rigid transform (rotation, translation, no scale) minimizing
    ||R source + t - target||^2 over point rows."""
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    mu_s = source.mean(axis=0)
    mu_t = target.mean(axis=0)
    cov = (target - mu_t).T @ (source - mu_s) / len(source)
    u, _, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(u @ vt))
    rot = u @ np.diag([1.0, 1.0, d]) @ vt
    return rot, mu_t - rot @ mu_s


def ate_rmse(est: Trajectory, gt: Trajectory):
    """RMSE of position residuals after rigid alignment of est onto gt."""
    _check_aligned(est, gt)
    if len(est) < 3:
        raise ValueError("need at least 3 poses")
    rot, t = umeyama_alignment(est.positions, gt.positions)
    aligned = est.positions @ rot.T + t
    return float(np.sqrt(np.mean(np.sum((aligned - gt.positions) ** 2,
                                        axis=1))))


# ---------------------------------------------------------------------------
# oriented box IoU


def _bev_corners(box: Box3D):
    """Footprint corners (x, z) in counterclockwise order: heading and
    lateral axis form a right-handed pair in (x, z) for every yaw, and the
    dims are positive."""
    rot = rot_y(box.yaw)
    head = np.array([rot[0, 0], rot[2, 0]])
    lat = np.array([rot[0, 2], rot[2, 2]])
    center = np.array([box.center[0], box.center[2]])
    half_h = head * box.dims[0] / 2.0
    half_l = lat * box.dims[2] / 2.0
    return np.array([center + half_h + half_l,
                     center - half_h + half_l,
                     center - half_h - half_l,
                     center + half_h - half_l])


def _clip_polygon(poly, a, b):
    """Keep the part of ``poly`` left of the directed line a -> b."""
    edge = b - a
    out = []
    n = len(poly)

    def side(p):
        return edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0])

    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        side_p = side(p)
        side_q = side(q)
        if side_p >= 0:
            out.append(p)
        if (side_p > 0) != (side_q > 0) and side_p != side_q:
            t = side_p / (side_p - side_q)
            out.append(p + t * (q - p))
    return out


def _polygon_area(poly):
    if len(poly) < 3:
        return 0.0
    arr = np.asarray(poly)
    x, y = arr[:, 0], arr[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _convex_intersection_area(poly_a, poly_b):
    poly = list(poly_a)
    n = len(poly_b)
    for i in range(n):
        poly = _clip_polygon(poly, poly_b[i], poly_b[(i + 1) % n])
        if not poly:
            return 0.0
    return _polygon_area(poly)


def iou_bev(a: Box3D, b: Box3D):
    """Intersection over union of the yaw-oriented ground footprints."""
    inter = _convex_intersection_area(_bev_corners(a), _bev_corners(b))
    area_a = a.dims[0] * a.dims[2]
    area_b = b.dims[0] * b.dims[2]
    union = area_a + area_b - inter
    return float(inter / union) if union > 0 else 0.0


def iou_3d(a: Box3D, b: Box3D):
    """Volumetric IoU: footprint intersection times vertical overlap."""
    inter_area = _convex_intersection_area(_bev_corners(a), _bev_corners(b))
    lo = max(a.center[1] - a.dims[1] / 2.0, b.center[1] - b.dims[1] / 2.0)
    hi = min(a.center[1] + a.dims[1] / 2.0, b.center[1] + b.dims[1] / 2.0)
    inter = inter_area * max(hi - lo, 0.0)
    vol_a = float(np.prod(a.dims))
    vol_b = float(np.prod(b.dims))
    union = vol_a + vol_b - inter
    return float(inter / union) if union > 0 else 0.0


# ---------------------------------------------------------------------------
# detection curves


@dataclass(frozen=True)
class DetectionCurves:
    """Per-IoU-threshold detection statistics."""

    thresholds: np.ndarray
    ap: np.ndarray
    tp_rate: np.ndarray
    mean_position_error_pct: np.ndarray


def _greedy_match(dets, gts, iou_fn):
    """Greedy per-frame matching by descending IoU, each side used once.

    Returns a list of (det, gt, iou) pairs; ties broken by detection id.
    """
    scored = []
    for det in dets:
        for gt in gts:
            iou = iou_fn(det.box, gt.box)
            if iou > 0.0:
                scored.append((-iou, det.object_id, gt.object_id, det, gt))
    scored.sort(key=lambda s: (s[0], s[1], s[2]))
    used_det, used_gt = set(), set()
    pairs = []
    for neg_iou, det_id, gt_id, det, gt in scored:
        if det_id in used_det or gt_id in used_gt:
            continue
        used_det.add(det_id)
        used_gt.add(gt_id)
        pairs.append((det, gt, -neg_iou))
    return pairs


def ap_and_error_curves(dets, gts, iou_kind="bev"):
    """Detection quality swept over IoU thresholds.

    ``dets`` and ``gts`` are sequences of :class:`DetectionRecord` with
    camera-frame boxes; matching is greedy per frame.  For each of the
    :data:`N_THRESHOLDS` evenly spaced thresholds in [0, 1) the
    true-positive rate over all labels, the mean matched-pair center error
    as a percentage of the label's range from the camera, and the average
    precision are reported.  Every detection has unit confidence, so there
    is one operating point per threshold, and its AP reduces to the
    precision.
    """
    iou_fn = iou_bev if iou_kind == "bev" else iou_3d
    frames = sorted({r.frame for r in dets} | {r.frame for r in gts})
    pairs = []
    n_det = len(dets)
    n_gt = len(gts)
    for frame in frames:
        f_dets = [d for d in dets if d.frame == frame]
        f_gts = [g for g in gts if g.frame == frame]
        pairs.extend(_greedy_match(f_dets, f_gts, iou_fn))
    pair_iou = np.array([iou for _, _, iou in pairs]) if pairs else \
        np.zeros(0)
    pair_err = np.zeros(len(pairs))
    for i, (det, gt, _) in enumerate(pairs):
        rng = np.linalg.norm(gt.box.center)
        err = np.linalg.norm(det.box.center - gt.box.center)
        pair_err[i] = err / max(rng, 1e-12)
    thresholds = np.arange(N_THRESHOLDS) / N_THRESHOLDS
    ap = np.zeros(N_THRESHOLDS)
    tp_rate = np.zeros(N_THRESHOLDS)
    mean_err = np.zeros(N_THRESHOLDS)
    matched_index = {}
    for i, (det, _, _) in enumerate(pairs):
        matched_index[(det.frame, det.object_id)] = i
    det_pair = np.array([matched_index.get((d.frame, d.object_id), -1)
                         for d in dets], dtype=int)
    # each detection's matched IoU; -inf, below every threshold, if none
    det_iou = np.full(n_det, -np.inf)
    matched = det_pair >= 0
    det_iou[matched] = pair_iou[det_pair[matched]]
    for k, is_tp in enumerate(det_iou >= thresholds[:, None]):
        n_tp = int(is_tp.sum())
        tp_rate[k] = n_tp / n_gt if n_gt else 0.0
        if n_tp:
            errs = pair_err[det_pair[is_tp]]
            mean_err[k] = float(errs.mean())
        ap[k] = n_tp / n_det if n_det and n_gt else 0.0
    return DetectionCurves(thresholds, ap, tp_rate, 100.0 * mean_err)
