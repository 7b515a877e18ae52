"""Data association over abstract measurements.

Temporal object association by 2D-box similarity voting, and per-group
fundamental-matrix RANSAC outlier rejection.
"""

from __future__ import annotations

import numpy as np

from .boxinfer import BBox2D
from .errors import DegenerateGroup

SIMILARITY_THRESHOLD = 0.3
CENTER_WEIGHT = 20.0  # exponent scale on center distance (normalized units)
SHAPE_WEIGHT = 4.0  # exponent scale on relative size change
RANSAC_MAX_ITERATIONS = 200
RANSAC_CONFIDENCE = 0.99


def box_similarity(prev: BBox2D, cur: BBox2D, rot_rel=None):
    """Similarity in [0, 1] of two 2D boxes across frames.

    ``rot_rel`` maps previous-camera directions into the current camera
    frame; the previous center is warped through it at infinite depth
    before comparing (exact compensation for rotation-only camera motion).
    Score = exp(-20 * center distance) * exp(-4 * relative size change).
    """
    center = prev.center
    if rot_rel is not None:
        ray = rot_rel @ np.array([center[0], center[1], 1.0])
        if ray[2] < 1e-9:
            return 0.0
        center = ray[:2] / ray[2]
    d_center = np.linalg.norm(center - cur.center)
    d_shape = (abs(prev.width - cur.width) + abs(prev.height - cur.height))
    d_shape /= prev.width + prev.height
    return float(np.exp(-CENTER_WEIGHT * d_center)
                 * np.exp(-SHAPE_WEIGHT * d_shape))


def associate_objects(prev_boxes: dict, cur_boxes: dict, rot_rel=None):
    """Greedy temporal assignment of object detections.

    ``prev_boxes`` and ``cur_boxes`` map object/track id to BBox2D.
    Returns (matches, lost, new): matches maps prev id to cur id; lost is
    the set of unmatched prev ids; new the set of unmatched cur ids.
    Pairs scoring at least 0.3 are taken in descending similarity, ties
    broken by lowest ids.
    """
    scored = []
    for pid in sorted(prev_boxes):
        for cid in sorted(cur_boxes):
            score = box_similarity(prev_boxes[pid], cur_boxes[cid], rot_rel)
            if score >= SIMILARITY_THRESHOLD:
                scored.append((-score, pid, cid))
    scored.sort()
    matches = {}
    used_cur = set()
    for _, pid, cid in scored:
        if pid in matches or cid in used_cur:
            continue
        matches[pid] = cid
        used_cur.add(cid)
    lost = set(prev_boxes) - set(matches)
    new = set(cur_boxes) - used_cur
    return matches, lost, new


# ---------------------------------------------------------------------------
# Fundamental-matrix RANSAC


def _normalize_points(pts):
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    scale = np.sqrt(2.0) / max(np.mean(np.linalg.norm(centered, axis=1)),
                               1e-12)
    t = np.array([[scale, 0.0, -scale * centroid[0]],
                  [0.0, scale, -scale * centroid[1]],
                  [0.0, 0.0, 1.0]])
    return (centered * scale), t


def _eight_point(prev, cur, weights=None):
    """Normalized 8-point fundamental matrix; None if rank-deficient."""
    p_n, t_p = _normalize_points(prev)
    c_n, t_c = _normalize_points(cur)
    a_mat = np.column_stack([
        c_n[:, 0] * p_n[:, 0], c_n[:, 0] * p_n[:, 1], c_n[:, 0],
        c_n[:, 1] * p_n[:, 0], c_n[:, 1] * p_n[:, 1], c_n[:, 1],
        p_n[:, 0], p_n[:, 1], np.ones(len(p_n)),
    ])
    if weights is not None:
        a_mat = a_mat * weights[:, None]
    # the thin SVD of fewer than 9 rows drops the null vector; for more
    # rows it gives the same vt[-1] without building the n x n U
    _, s, vt = np.linalg.svd(a_mat, full_matrices=len(a_mat) < 9)
    if s[-2] < 1e-12 * max(s[0], 1e-12):
        return None
    f_mat = vt[-1].reshape(3, 3)
    u, d, vt2 = np.linalg.svd(f_mat)
    f_mat = u @ np.diag([d[0], d[1], 0.0]) @ vt2
    return t_c.T @ f_mat @ t_p


def _sampson_distances(f_mat, prev, cur):
    ones = np.ones((len(prev), 1))
    p_h = np.hstack([prev, ones])
    c_h = np.hstack([cur, ones])
    f_p = p_h @ f_mat.T  # epipolar lines in the current view
    ft_c = c_h @ f_mat
    num = np.einsum("ni,ni->n", c_h, f_p) ** 2
    den = f_p[:, 0] ** 2 + f_p[:, 1] ** 2 + ft_c[:, 0] ** 2 + ft_c[:, 1] ** 2
    return np.sqrt(num / np.maximum(den, 1e-300))


def _fit_sampson(prev, cur):
    """Fundamental matrix by iteratively Sampson-reweighted 8-point.

    The plain algebraic fit biases the inlier gate near its boundary;
    reweighting rows by the Sampson denominator approximates a geometric
    fit well enough for a stable consensus mask.
    """
    f_mat = _eight_point(prev, cur)
    if f_mat is None:
        return None
    ones = np.ones((len(prev), 1))
    p_h = np.hstack([prev, ones])
    c_h = np.hstack([cur, ones])
    for _ in range(4):
        f_p = p_h @ f_mat.T
        ft_c = c_h @ f_mat
        den = (f_p[:, 0] ** 2 + f_p[:, 1] ** 2
               + ft_c[:, 0] ** 2 + ft_c[:, 1] ** 2)
        weights = 1.0 / np.sqrt(np.maximum(den, 1e-300))
        refined = _eight_point(prev, cur, weights)
        if refined is None:
            break
        f_mat = refined
    return f_mat


def reject_outliers(prev_pts, cur_pts, feature_sigma=0.5 / 700.0, seed=0):
    """RANSAC inlier mask for one rigid group of temporal pairs.

    Fits fundamental matrices to 8-point samples and scores by Sampson
    distance below 3 * feature_sigma, drawing samples until a consensus
    set is found with 99% confidence (at most 200).  Fewer than 8 pairs
    cannot support the model: the group passes through unfiltered with
    the second return value set.  Returns (mask, passthrough_flag).
    """
    prev_pts = np.atleast_2d(np.asarray(prev_pts, dtype=float))
    cur_pts = np.atleast_2d(np.asarray(cur_pts, dtype=float))
    if prev_pts.shape != cur_pts.shape:
        raise ValueError("pair arrays must have matching shapes")
    n = len(prev_pts)
    if n < 8:
        return np.ones(n, dtype=bool), True

    eps = max(3.0 * feature_sigma, 1e-9)  # floor for zero-noise groups
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = -1
    iterations = RANSAC_MAX_ITERATIONS
    i = 0
    while i < iterations:
        i += 1
        sample = rng.choice(n, size=8, replace=False)
        f_mat = _eight_point(prev_pts[sample], cur_pts[sample])
        if f_mat is None:
            continue
        mask = _sampson_distances(f_mat, prev_pts, cur_pts) < eps
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            ratio = count / n
            denom = np.log(np.clip(1.0 - ratio ** 8, 1e-12, 1.0 - 1e-12))
            iterations = min(RANSAC_MAX_ITERATIONS, int(np.ceil(
                np.log(1.0 - RANSAC_CONFIDENCE) / denom)))
    if best_mask is None:
        raise DegenerateGroup("all RANSAC samples were rank-deficient")

    # refit on the consensus set until the mask stabilizes
    for _ in range(8):
        if best_mask.sum() < 8:
            break
        f_mat = _fit_sampson(prev_pts[best_mask], cur_pts[best_mask])
        if f_mat is None:
            break
        refined = _sampson_distances(f_mat, prev_pts, cur_pts) < eps
        if np.array_equal(refined, best_mask):
            break
        best_mask = refined
    return best_mask, False
