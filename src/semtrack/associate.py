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
RANSAC_STACK = 8  # hypotheses evaluated in one batch


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
    """Hartley normalization of point sets (..., n, 2): each set is moved
    to its centroid and scaled to a mean distance of sqrt(2).  Returns the
    normalized points and the (..., 3, 3) transforms."""
    centroid = pts.mean(axis=-2, keepdims=True)
    centered = pts - centroid
    scale = np.sqrt(2.0) / np.maximum(
        np.linalg.norm(centered, axis=-1).mean(axis=-1), 1e-12)
    t = np.zeros(pts.shape[:-2] + (3, 3))
    t[..., 0, 0] = t[..., 1, 1] = scale
    t[..., :2, 2] = -scale[..., None] * centroid[..., 0, :]
    t[..., 2, 2] = 1.0
    return centered * scale[..., None, None], t


def _design_rows(prev_n, cur_n):
    """Rows (..., n, 9) of the epipolar constraint cur^T F prev = 0."""
    px, py = prev_n[..., 0], prev_n[..., 1]
    cx, cy = cur_n[..., 0], cur_n[..., 1]
    return np.stack([cx * px, cx * py, cx, cy * px, cy * py, cy,
                     px, py, np.ones_like(px)], axis=-1)


def _fundamental(a_mat, t_prev, t_cur):
    """Rank-2 fundamental matrices (..., 3, 3) from the design rows of
    normalized points and their transforms, and a flag (...) that is set
    where the rows are rank-deficient."""
    # the thin SVD of fewer than 9 rows drops the null vector; for more
    # rows it gives the same vt[-1] without building the n x n U
    _, s, vt = np.linalg.svd(a_mat, full_matrices=a_mat.shape[-2] < 9)
    deficient = s[..., -2] < 1e-12 * np.maximum(s[..., 0], 1e-12)
    f_mat = vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3))
    u, d, vt2 = np.linalg.svd(f_mat)
    d[..., 2] = 0.0
    f_mat = (u * d[..., None, :]) @ vt2
    return np.swapaxes(t_cur, -1, -2) @ f_mat @ t_prev, deficient


def _eight_point_batch(prev, cur):
    """Normalized 8-point fundamental matrices of pair sets (..., n, 2),
    with their rank-deficiency flags."""
    p_n, t_p = _normalize_points(prev)
    c_n, t_c = _normalize_points(cur)
    return _fundamental(_design_rows(p_n, c_n), t_p, t_c)


def _homogeneous(pts):
    return np.hstack([pts, np.ones((len(pts), 1))])


def _sampson_parts(f_mat, p_h, c_h):
    """Algebraic residuals cur^T F prev (..., n) and Sampson denominators
    (..., n) of homogeneous pairs (n, 3) under matrices (..., 3, 3)."""
    f_p = p_h @ np.swapaxes(f_mat, -1, -2)  # epipolar lines, current view
    ft_c = c_h @ f_mat
    num = np.einsum("...ni,...ni->...n", c_h, f_p)
    den = (f_p[..., 0] ** 2 + f_p[..., 1] ** 2
           + ft_c[..., 0] ** 2 + ft_c[..., 1] ** 2)
    return num, den


def _sampson_distances(f_mat, p_h, c_h):
    num, den = _sampson_parts(f_mat, p_h, c_h)
    return np.sqrt(num ** 2 / np.maximum(den, 1e-300))


def _fit_sampson(p_h, c_h):
    """Fundamental matrix of homogeneous pairs (n, 3) by iteratively
    Sampson-reweighted 8-point.

    The plain algebraic fit biases the inlier gate near its boundary;
    reweighting rows by the Sampson denominator approximates a geometric
    fit well enough for a stable consensus mask.  The pairs are
    normalized and their design rows built once; each of the 4 reweights
    only scales the rows.  None if the first fit is rank-deficient.
    """
    p_n, t_p = _normalize_points(p_h[:, :2])
    c_n, t_c = _normalize_points(c_h[:, :2])
    rows = _design_rows(p_n, c_n)
    f_mat, deficient = _fundamental(rows, t_p, t_c)
    if deficient:
        return None
    for _ in range(4):
        _, den = _sampson_parts(f_mat, p_h, c_h)
        weights = 1.0 / np.sqrt(np.maximum(den, 1e-300))
        refined, deficient = _fundamental(rows * weights[:, None], t_p, t_c)
        if deficient:
            break
        f_mat = refined
    return f_mat


def reject_outliers(prev_pts, cur_pts, feature_sigma=0.5 / 700.0, seed=0):
    """RANSAC inlier mask for one rigid group of temporal pairs.

    Fits fundamental matrices to 8-point samples and scores by Sampson
    distance below 3 * feature_sigma, drawing samples until a consensus
    set is found with 99% confidence (at most 200).  Samples are drawn
    one by one from a generator seeded with ``seed`` and evaluated in
    stacks of :data:`RANSAC_STACK`, then taken in draw order: a
    rank-deficient sample is skipped, a strictly larger consensus wins
    and shrinks the bound, and the search stops at the bound, also
    within a stack.  The winner is then refit on its consensus until the
    mask stops changing (at most 8 times); a refit that keeps fewer than
    the 8 pairs the model needs ends the refits and leaves the mask
    before it.  Fewer than 8 pairs cannot support the model: the group
    passes through unfiltered with the second return value set.  Returns
    (mask, passthrough_flag); raises :class:`DegenerateGroup` if every
    sample is rank-deficient.
    """
    prev_pts = np.atleast_2d(np.asarray(prev_pts, dtype=float))
    cur_pts = np.atleast_2d(np.asarray(cur_pts, dtype=float))
    if prev_pts.shape != cur_pts.shape:
        raise ValueError("pair arrays must have matching shapes")
    n = len(prev_pts)
    if n < 8:
        return np.ones(n, dtype=bool), True

    eps = max(3.0 * feature_sigma, 1e-9)  # floor for zero-noise groups
    p_h, c_h = _homogeneous(prev_pts), _homogeneous(cur_pts)
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = -1
    iterations = RANSAC_MAX_ITERATIONS
    i = 0
    while i < iterations:
        samples = np.array([rng.choice(n, size=8, replace=False)
                            for _ in range(min(RANSAC_STACK,
                                               iterations - i))])
        f_mats, deficient = _eight_point_batch(prev_pts[samples],
                                               cur_pts[samples])
        masks = _sampson_distances(f_mats, p_h, c_h) < eps
        for skip, mask, count in zip(deficient, masks, masks.sum(axis=1)):
            i += 1
            if not skip and count > best_count:
                best_count = count
                best_mask = mask
                ratio = count / n
                denom = np.log(np.clip(1.0 - ratio ** 8, 1e-12, 1.0 - 1e-12))
                iterations = min(RANSAC_MAX_ITERATIONS, int(np.ceil(
                    np.log(1.0 - RANSAC_CONFIDENCE) / denom)))
            if i >= iterations:
                break
    if best_mask is None:
        raise DegenerateGroup("all RANSAC samples were rank-deficient")

    # refit on the consensus set until the mask stabilizes
    for _ in range(8):
        if best_mask.sum() < 8:
            break
        f_mat = _fit_sampson(p_h[best_mask], c_h[best_mask])
        if f_mat is None:
            break
        refined = _sampson_distances(f_mat, p_h, c_h) < eps
        if refined.sum() < 8 or np.array_equal(refined, best_mask):
            break
        best_mask = refined
    return best_mask, False
