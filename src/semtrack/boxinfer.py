"""Viewpoint taxonomy, edge-vertex selection matrices, and closed-form
4-DoF object pose from one 2D box, viewpoint class and dimension prior,
fitted through the object solves' :func:`residuals.semantic_residual`.

A viewpoint is one of 16 classes: 8 horizontal sectors of the observation
azimuth (the direction of the camera as seen from the object, 45 deg wide,
boundaries at odd multiples of 22.5 deg) by 2 vertical classes (level /
looking-down).  Each class fixes which 3D box vertex projects onto each
2D box edge; the four diagonal "selection matrices" C1..C4 encode those
vertices as offsets C_i @ dims from the box center, paired with
(u_min, u_max, v_min, v_max) respectively.

The 16-entry table is a literal.  It was derived by enumerating the
projected extreme vertices (:func:`brute_force_extremes_camera`) of boxes
sampled inside each viewpoint's validity regime; the samplers live in
the test helper ``tests/viewpoints.py``, and the tests check the table
against that enumeration.  For the u edges the vertical sign of the
vertex is irrelevant (a vertical box edge projects to a single u for a
level camera); it is fixed to +1 (bottom vertices) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geom
from . import residuals as res
from .errors import BehindCamera, DegenerateGeometry, NoConvergence
from .geometry import Box3D, ObjectState, Pose, project, wrap_angle
from .nls import (DenseNormalEquations, RowBatch, batch_cost, scatter_plan,
                  solve_nls)


@dataclass(frozen=True)
class Viewpoint:
    """Discrete observation direction: horizontal sector 0..7, vertical 0..1."""

    horizontal: int
    vertical: int

    def __post_init__(self):
        if not 0 <= self.horizontal <= 7:
            raise ValueError("horizontal sector must be in 0..7")
        if self.vertical not in (0, 1):
            raise ValueError("vertical class must be 0 or 1")


@dataclass(frozen=True)
class BBox2D:
    """Axis-aligned 2D box in normalized image-plane coordinates."""

    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def __post_init__(self):
        if self.u_min > self.u_max or self.v_min > self.v_max:
            raise ValueError("2D box edges out of order")

    @property
    def center(self):
        return np.array([(self.u_min + self.u_max) / 2.0,
                         (self.v_min + self.v_max) / 2.0])

    @property
    def width(self):
        return self.u_max - self.u_min

    @property
    def height(self):
        return self.v_max - self.v_min

    def as_array(self):
        return np.array([self.u_min, self.v_min, self.u_max, self.v_max])


@dataclass(frozen=True)
class SelectionSet:
    """Diagonal +-0.5 matrices pairing box vertices with the four 2D edges,
    ordered (u_min, u_max, v_min, v_max)."""

    signs: np.ndarray  # (4, 3) entries +-1; C_i = diag(signs[i] / 2)

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=float).reshape(4, 3)
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("selection signs must be +-1")
        object.__setattr__(self, "signs", signs)
        signs.setflags(write=False)

    def vertex_offsets(self, dims):
        """Object-frame offsets C_i @ dims of the four selected vertices, (4, 3)."""
        return self.signs * (np.asarray(dims) / 2.0)


@dataclass(frozen=True)
class DimensionPrior:
    """Per-class Gaussian prior over box dimensions (meters)."""

    label: str
    mean: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(3)
        sigma = np.asarray(self.sigma, dtype=float).reshape(3)
        if not (np.all(mean > 0) and np.all(sigma > 0)):
            raise ValueError("prior mean and sigma must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sigma", sigma)
        mean.setflags(write=False)
        sigma.setflags(write=False)


DEFAULT_PRIORS = {
    "car": DimensionPrior("car", (3.9, 1.6, 1.7), (0.4, 0.2, 0.2)),
    "pedestrian": DimensionPrior("pedestrian", (0.8, 1.75, 0.8), (0.2, 0.2, 0.2)),
}

SECTOR_WIDTH = np.pi / 4.0
GRID_STEP_DEG = 1.0  # yaw grid of the candidate sweep
FIT_TOL = 0.05  # residual norm, in box heights, of a candidate root


def _viewpoint_classes(q, dims):
    """Horizontal sectors and vertical classes of camera positions ``q``
    (..., 3) in the object frame.  The sector is that of the observation
    azimuth, measured from the heading (+x) toward the object's left
    (+z); the class is 1 for a camera above the box top."""
    q = np.asarray(q)
    azimuth = np.arctan2(q[..., 2], q[..., 0])
    horizontal = np.round(azimuth / SECTOR_WIDTH).astype(int) % 8
    vertical = (q[..., 1] < -dims[1] / 2.0).astype(int)
    return horizontal, vertical


def _classify_from_camera_position(q, dims):
    horizontal, vertical = _viewpoint_classes(q, dims)
    return Viewpoint(int(horizontal), int(vertical))


def classify_viewpoint_world(x_cam: Pose, state: ObjectState) -> Viewpoint:
    """Viewpoint from world-frame camera pose and object state.  Exact for
    any camera orientation (only the camera position enters)."""
    center_cam = x_cam.apply_inverse(state.position)
    if center_cam[2] <= geom.EPS_Z:
        raise BehindCamera("object center behind camera")
    q = state.pose.apply_inverse(x_cam.translation)
    return _classify_from_camera_position(q, state.dims)


# ---------------------------------------------------------------------------
# Tight boxes and brute-force extremes


def tight_bbox(box_cam: Box3D) -> BBox2D:
    """Bounding rectangle of the projected 8 box vertices (camera frame)."""
    uv = project(geom.box_vertices(box_cam))
    return BBox2D(float(uv[:, 0].min()), float(uv[:, 1].min()),
                  float(uv[:, 0].max()), float(uv[:, 1].max()))


def brute_force_extremes_camera(box_cam: Box3D):
    """Indices into :data:`geometry.VERTEX_SIGNS` of the vertices of a
    camera-frame box attaining (min u, max u, min v, max v)."""
    uv = project(geom.box_vertices(box_cam))
    return (int(np.argmin(uv[:, 0])), int(np.argmax(uv[:, 0])),
            int(np.argmin(uv[:, 1])), int(np.argmax(uv[:, 1])))


# Vertex signs per (horizontal, vertical) viewpoint, one row per 2D edge
# (u_min, u_max, v_min, v_max).
_SELECTION_SIGNS = {
    (0, 0): ((1, 1, -1), (1, 1, 1), (1, -1, 1), (1, 1, 1)),
    (1, 0): ((1, 1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)),
    (2, 0): ((1, 1, 1), (-1, 1, 1), (-1, -1, 1), (-1, 1, 1)),
    (3, 0): ((1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, 1, 1)),
    (4, 0): ((-1, 1, 1), (-1, 1, -1), (-1, -1, -1), (-1, 1, -1)),
    (5, 0): ((-1, 1, 1), (1, 1, -1), (-1, -1, -1), (-1, 1, -1)),
    (6, 0): ((-1, 1, -1), (1, 1, -1), (1, -1, -1), (1, 1, -1)),
    (7, 0): ((-1, 1, -1), (1, 1, 1), (1, -1, -1), (1, 1, -1)),
    (0, 1): ((1, 1, -1), (1, 1, 1), (-1, -1, -1), (1, 1, 1)),
    (1, 1): ((1, 1, -1), (-1, 1, 1), (-1, -1, -1), (1, 1, 1)),
    (2, 1): ((1, 1, 1), (-1, 1, 1), (1, -1, -1), (-1, 1, 1)),
    (3, 1): ((1, 1, 1), (-1, 1, -1), (1, -1, -1), (-1, 1, 1)),
    (4, 1): ((-1, 1, 1), (-1, 1, -1), (1, -1, 1), (-1, 1, -1)),
    (5, 1): ((-1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, -1)),
    (6, 1): ((-1, 1, -1), (1, 1, -1), (-1, -1, 1), (1, 1, -1)),
    (7, 1): ((-1, 1, -1), (1, 1, 1), (-1, -1, 1), (1, 1, -1)),
}
_SELECTION_TABLE = {Viewpoint(*vp): SelectionSet(signs)
                    for vp, signs in _SELECTION_SIGNS.items()}


def selection_set(vp: Viewpoint) -> SelectionSet:
    """Selection matrices for a viewpoint (precomputed, read-only)."""
    return _SELECTION_TABLE[vp]


# ---------------------------------------------------------------------------
# Closed-form pose inference


def _tightness_deviation(p, theta, dims, box: BBox2D):
    """How far the full 8-vertex reprojection's bounding rectangle strays
    from the measured box (max abs edge difference).  Zero for the true
    pose of an exactly tight box; alternate constraint roots leak vertices
    outside the box and score higher."""
    try:
        tight = tight_bbox(Box3D(p, theta, dims))
    except BehindCamera:
        return np.inf
    return float(np.max(np.abs(tight.as_array() - box.as_array())))


def _grid_candidates(box: BBox2D, vp: Viewpoint, dims, sel: SelectionSet):
    """Vectorized yaw-grid sweep: for each yaw of a :data:`GRID_STEP_DEG`
    grid, the position solving the four edge constraints in least squares,
    keeping yaws whose implied viewpoint matches ``vp``.  Returns the
    starts (p, theta) (n, 4) and their costs (n,)."""
    thetas = wrap_angle(np.deg2rad(np.arange(0.0, 360.0, GRID_STEP_DEG)))
    n = len(thetas)
    c, s = np.cos(thetas), np.sin(thetas)
    rots = np.zeros((n, 3, 3))
    rots[:, [0, 0, 1, 2, 2], [0, 2, 1, 0, 2]] = np.column_stack(
        [c, s, np.ones(n), -s, c])
    # camera-frame vertex offsets a = R_theta (C_i d) for all yaws: (n, 4, 3)
    offsets = np.einsum("nij,kj->nki", rots, sel.vertex_offsets(dims))

    edges = box.as_array()[[0, 2, 1, 3]]
    axes = np.array([0, 0, 1, 1])
    a_mat = np.zeros((n, 4, 3))
    a_mat[:, np.arange(4), axes] = 1.0
    a_mat[:, :, 2] -= edges
    b_vec = edges * offsets[:, :, 2] - offsets[:, np.arange(4), axes]

    gram = a_mat.transpose(0, 2, 1) @ a_mat
    rhs = np.einsum("nki,nk->ni", a_mat, b_vec)
    ok = np.abs(np.linalg.det(gram)) > 1e-12
    pos = np.full((n, 3), np.nan)
    pos[ok] = np.linalg.solve(gram[ok], rhs[ok][..., None])[..., 0]
    ok &= pos[:, 2] > geom.EPS_Z

    # viewpoint gate: camera position in the object frame q = -R^T p
    horiz, vert = _viewpoint_classes(
        -np.einsum("nji,nj->ni", rots, np.nan_to_num(pos)), dims)
    ok &= (horiz == vp.horizontal) & (vert == vp.vertical)
    starts = np.column_stack([pos[ok], thetas[ok]])
    k = len(starts)
    cost = batch_cost(_BoxProblem(starts, box, sel.signs, dims).batches(
        starts, np.arange(k), False), k).cost
    return starts[np.isfinite(cost)], cost[np.isfinite(cost)]


def infer_pose_candidates(box: BBox2D, vp: Viewpoint, dims):
    """All distinct refined roots of the four edge-vertex constraints.

    Returns a list of (position, theta, residual_norm, tightness_deviation)
    sorted best first by (deviation, residual).  The constraint system can
    admit several exact roots (the vertical edges pin only the depth and
    height of one vertex; its lateral offset and the yaw solve a 2x2
    system with multiple solutions), so callers that need a unique answer
    should check for a single near-exact, near-tight entry.  A root is a
    candidate only if its solve converged within :data:`FIT_TOL` box
    heights; :class:`NoConvergence` means that none did.
    """
    if box.width < 1e-9 or box.height < 1e-9:
        raise DegenerateGeometry("2D box has zero width or height")
    dims = np.asarray(dims, dtype=float)
    sel = selection_set(vp)
    starts, costs = _grid_candidates(box, vp, dims, sel)
    if len(starts) == 0:
        raise DegenerateGeometry("no yaw candidate consistent with the viewpoint")

    # refine every local minimum of the (circular) cost-vs-yaw profile, or
    # every start when there are only one or two
    order = np.argsort(starts[:, 3])
    starts, costs = starts[order], costs[order]
    is_min = (costs <= np.roll(costs, 1)) & (costs <= np.roll(costs, -1))
    problem = _BoxProblem(starts[is_min | (len(costs) <= 2)], box, sel.signs,
                          dims)
    x, reports = solve_nls(problem, problem.initial)
    roots = []
    for xi, report in zip(x, reports):
        fit = (2.0 * report.final_cost) ** 0.5  # in box heights
        if not (report.converged and fit <= FIT_TOL):
            continue
        theta = wrap_angle(xi[3])
        if any(np.linalg.norm(xi[:3] - r[0]) < 1e-6
               and abs(wrap_angle(theta - r[1])) < 1e-6 for r in roots):
            continue
        deviation = _tightness_deviation(xi[:3], theta, dims, box)
        roots.append((xi[:3].copy(), theta, fit * box.height, deviation))
    if not roots:
        raise NoConvergence("no refined pose fits the box within FIT_TOL")
    roots.sort(key=lambda r: (r[3], r[2]))
    return roots


def infer_pose(box: BBox2D, vp: Viewpoint, dims):
    """Closed-form 4-DoF pose from one 2D box, viewpoint and dimensions.

    Returns (position, theta, residual_norm): the camera-frame box center
    and horizontal orientation minimizing the four edge-vertex constraint
    residuals.  Yaw is searched on a :data:`GRID_STEP_DEG` grid (keeping
    candidates whose implied viewpoint matches ``vp``); the basins of the
    grid are refined on (p, theta) by :func:`nls.solve_nls`, one block per
    basin (:class:`_BoxProblem`, the box-edge residual of the object
    solves with the camera at the origin), and of the roots that fit the
    box within :data:`FIT_TOL` box heights (else :class:`NoConvergence`),
    the one whose full 8-vertex reprojection best fills the box wins.
    """
    return infer_pose_candidates(box, vp, dims)[0][:3]


class _BoxProblem:
    """Camera-frame boxes (p, theta) (k, 4) from k starts fitted to one 2D
    box, a block each, whose one row is the four edge residuals of
    :func:`residuals.semantic_residual` with the camera at the origin, in
    box heights: so the absolute tests of :func:`nls.solve_nls` reach
    exact roots.  A box with a selected vertex behind the camera, whose
    rows that function drops, costs infinity."""

    def __init__(self, starts, box: BBox2D, signs, dims):
        self.n_blocks = k = len(starts)
        self.initial = np.asarray(starts, dtype=float)
        self.edges = box.as_array()
        self.info = 1.0 / box.height
        self.signs, self.dims = signs, dims
        self.plan = scatter_plan(np.arange(k), np.arange(4), k, 4)

    def equations(self):
        return DenseNormalEquations(4, self.n_blocks)

    def batches(self, x, blocks, jacobians):
        m = len(blocks)
        r, jac, mask = res.semantic_residual(
            np.broadcast_to(self.edges, (m, 4)), np.ones((m, 4), dtype=bool),
            np.broadcast_to(self.signs, (m, 4, 3)),
            np.broadcast_to(np.eye(3), (m, 3, 3)), np.zeros((m, 3)),
            x[blocks, :3], x[blocks, 3], self.dims, jacobians=jacobians)
        front = mask[:, 0]  # every edge is valid: a box keeps all rows or none
        rows = np.full((m, 4), np.inf)
        rows[front] = r.reshape(-1, 4) * self.info
        jac_w = np.zeros((m, 4, 4)) if jacobians else None
        if jacobians:
            jac_w[front] = jac["object"].reshape(-1, 4, 4) * self.info
        return [RowBatch(rows, jac_w, self.plan[blocks], block=blocks)]

    def retract(self, x, step, blocks):
        (dense,) = step
        x = x.copy()
        x[blocks] += dense
        return x
