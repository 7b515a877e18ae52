"""Sequential fundamental-matrix RANSAC: the reference that
``associate.reject_outliers`` must agree with mask for mask.

One hypothesis is fitted and scored at a time, and each Sampson reweight
normalizes the consensus again, as ``reject_outliers`` did before it
stacked its hypotheses.  The refit loop has the same guard: a refit that
keeps fewer than 8 pairs ends the refits.
"""

import numpy as np

from semtrack.associate import RANSAC_CONFIDENCE, RANSAC_MAX_ITERATIONS
from semtrack.errors import DegenerateGroup


def normalize_points(pts):
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    scale = np.sqrt(2.0) / max(np.mean(np.linalg.norm(centered, axis=1)),
                               1e-12)
    t = np.array([[scale, 0.0, -scale * centroid[0]],
                  [0.0, scale, -scale * centroid[1]],
                  [0.0, 0.0, 1.0]])
    return (centered * scale), t


def eight_point(prev, cur, weights=None):
    p_n, t_p = normalize_points(prev)
    c_n, t_c = normalize_points(cur)
    a_mat = np.column_stack([
        c_n[:, 0] * p_n[:, 0], c_n[:, 0] * p_n[:, 1], c_n[:, 0],
        c_n[:, 1] * p_n[:, 0], c_n[:, 1] * p_n[:, 1], c_n[:, 1],
        p_n[:, 0], p_n[:, 1], np.ones(len(p_n)),
    ])
    if weights is not None:
        a_mat = a_mat * weights[:, None]
    _, s, vt = np.linalg.svd(a_mat, full_matrices=len(a_mat) < 9)
    if s[-2] < 1e-12 * max(s[0], 1e-12):
        return None
    f_mat = vt[-1].reshape(3, 3)
    u, d, vt2 = np.linalg.svd(f_mat)
    f_mat = u @ np.diag([d[0], d[1], 0.0]) @ vt2
    return t_c.T @ f_mat @ t_p


def sampson_distances(f_mat, prev, cur):
    ones = np.ones((len(prev), 1))
    p_h = np.hstack([prev, ones])
    c_h = np.hstack([cur, ones])
    f_p = p_h @ f_mat.T
    ft_c = c_h @ f_mat
    num = np.einsum("ni,ni->n", c_h, f_p) ** 2
    den = f_p[:, 0] ** 2 + f_p[:, 1] ** 2 + ft_c[:, 0] ** 2 + ft_c[:, 1] ** 2
    return np.sqrt(num / np.maximum(den, 1e-300))


def fit_sampson(prev, cur):
    f_mat = eight_point(prev, cur)
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
        refined = eight_point(prev, cur, weights)
        if refined is None:
            break
        f_mat = refined
    return f_mat


def reject_outliers(prev_pts, cur_pts, feature_sigma=0.5 / 700.0, seed=0,
                    draws=None):
    """``associate.reject_outliers`` one hypothesis at a time; the number
    of samples drawn is appended to the list ``draws`` if one is given."""
    prev_pts = np.atleast_2d(np.asarray(prev_pts, dtype=float))
    cur_pts = np.atleast_2d(np.asarray(cur_pts, dtype=float))
    if prev_pts.shape != cur_pts.shape:
        raise ValueError("pair arrays must have matching shapes")
    n = len(prev_pts)
    if n < 8:
        return np.ones(n, dtype=bool), True

    eps = max(3.0 * feature_sigma, 1e-9)
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = -1
    iterations = RANSAC_MAX_ITERATIONS
    i = 0
    while i < iterations:
        i += 1
        sample = rng.choice(n, size=8, replace=False)
        f_mat = eight_point(prev_pts[sample], cur_pts[sample])
        if f_mat is None:
            continue
        mask = sampson_distances(f_mat, prev_pts, cur_pts) < eps
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            ratio = count / n
            denom = np.log(np.clip(1.0 - ratio ** 8, 1e-12, 1.0 - 1e-12))
            iterations = min(RANSAC_MAX_ITERATIONS, int(np.ceil(
                np.log(1.0 - RANSAC_CONFIDENCE) / denom)))
    if draws is not None:
        draws.append(i)
    if best_mask is None:
        raise DegenerateGroup("all RANSAC samples were rank-deficient")

    for _ in range(8):
        if best_mask.sum() < 8:
            break
        f_mat = fit_sampson(prev_pts[best_mask], cur_pts[best_mask])
        if f_mat is None:
            break
        refined = sampson_distances(f_mat, prev_pts, cur_pts) < eps
        if refined.sum() < 8 or np.array_equal(refined, best_mask):
            break
        best_mask = refined
    return best_mask, False
