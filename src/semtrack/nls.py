"""Sparse nonlinear least-squares machinery.

A problem is a batch of independent blocks (for example the object
tracks of one frame), each with its own dense parameters and landmarks.
It exposes ``n_blocks``, ``equations()`` (an empty normal-equation
accumulator sized for every block), ``batches(state, blocks,
jacobians)`` (the whitened :class:`RowBatch` arrays of the listed
blocks, with Jacobians or cost-only) and ``retract(state, step,
blocks)``.  :func:`solve_nls` runs Levenberg-Marquardt on every block in
lockstep: one evaluation serves all blocks still running, while damping,
acceptance and the stopping tests stay per block.  A single problem is
the case of one block; the roots of :func:`boxinfer.infer_pose` are k
blocks, one per yaw-grid start.  The damping follows the gain ratio of
each accepted step, its actual cost decrease over the decrease the
Gauss-Newton model predicts (Madsen, Nielsen and Tingleff 2004), and a
block stops once a step lowers its cost by less than :data:`COST_TOL`
relative, a tolerance for windows that are solved again on every frame,
or after :data:`MAX_ITERATIONS`, the package's one iteration budget.

Two normal-equation accumulators take the batches through one
``add_batch`` entry point: a plain dense one, and a Schur-complement
variant that eliminates the block-diagonal landmark blocks (the standard
trick for bundle-adjustment style problems where the number of 3D points
dwarfs the number of poses).  Both keep each block's terms apart, padded
to a common size, and solve the damped systems of many blocks as one
stack, and give the predicted decrease of the steps they solved.  Where
each row's terms land is a :class:`ScatterPlan`, which a problem builds
once per solve and hands over with every batch, so the accumulators
compute no indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

MAX_DAMPING = 1e8
MIN_DAMPING = 1e-12  # floor of the damping after accepted steps
COST_TOL = 1e-4  # the stopping tests of solve_nls
MAX_ITERATIONS = 50
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12
LM_DIM = 3  # landmarks are 3D points
NUMERICAL_FAILURE = "numerical_failure"


class RowBatch(NamedTuple):
    """Whitened residual rows with their whitened Jacobians.

    ``residuals`` is (n, k): n independent rows of k components each,
    robustified one row at a time when ``huber_delta`` is set.  ``jac``
    (n, k, p) holds each row's derivatives by p dense columns of its
    block and ``lm_jac`` (n, k, 3), when set, by the one eliminated
    landmark the row touches; ``plan`` is the :class:`ScatterPlan` that
    names those columns and landmarks.  ``jac`` and ``plan`` are None for
    a cost-only batch.  ``block`` (n,) is the block of each row, None for
    block 0.
    """

    residuals: np.ndarray
    jac: np.ndarray | None = None
    plan: ScatterPlan | None = None
    huber_delta: float | None = None
    tag: str | None = None
    lm_jac: np.ndarray | None = None
    block: np.ndarray | None = None


@dataclass(frozen=True)
class ScatterPlan:
    """Where the terms of each of n rows land in the normal equations.

    Flat indices, per row, into the arrays of every block: ``grad`` (n, p)
    into the dense gradients (n_blocks, size + 1) and ``hess`` (n, p, p)
    into the dense blocks (n_blocks, size + 1, size + 1), where column
    ``size`` is a sink for the negative columns of a row.  Rows with a
    landmark add ``lm_grad`` (n, 3) into the landmark gradients
    (n_blocks, n_landmarks * 3), ``lm_hess`` (n, 3, 3) into the landmark
    blocks (n_blocks, n_landmarks * 3, 3) and ``coupling`` (n, p, 3) into
    the coupling (n_blocks, size + 1, n_landmarks * 3).  A problem builds
    the plan of its rows once per solve (:func:`scatter_plan`);
    ``plan[rows]`` is the plan of a subset of them.
    """

    grad: np.ndarray
    hess: np.ndarray
    lm_grad: np.ndarray | None = None
    lm_hess: np.ndarray | None = None
    coupling: np.ndarray | None = None

    def __getitem__(self, rows):
        return ScatterPlan(*(None if (a := getattr(self, f.name)) is None
                             else a[rows] for f in fields(self)))


def scatter_plan(block, cols, n_blocks, size, lm_indices=None,
                 n_landmarks=0):
    """The :class:`ScatterPlan` of rows of ``block`` (n,) that touch the
    dense ``cols`` ((n, p), or (p,) shared; a negative column is none) of
    systems with ``size`` dense columns and, when ``lm_indices`` (n,) is
    set, one of ``n_landmarks`` 3D landmarks.  Rows may share a column or
    a landmark; their terms add up."""
    block = np.asarray(block)
    wide = size + 1
    cols = np.broadcast_to(np.where(cols < 0, size, cols),
                           (len(block), np.shape(cols)[-1]))
    grad = (block * wide)[:, None] + cols
    hess = grad[:, :, None] * wide + cols[:, None, :]
    if lm_indices is None:
        return ScatterPlan(grad, hess)
    width = n_landmarks * LM_DIM
    lm_cols = lm_indices[:, None] * LM_DIM + np.arange(LM_DIM)
    lm_grad = (block * width)[:, None] + lm_cols
    return ScatterPlan(grad, hess, lm_grad,
                       lm_grad[:, :, None] * LM_DIM + np.arange(LM_DIM),
                       grad[:, :, None] * width + lm_cols[:, None, :])


def huber(r_w, delta):
    """Per-row IRLS weight and robust cost of whitened rows (n, k).

    Rows are scaled by sqrt(weight); the cost is the Huber loss of the
    row norm (0.5 * norm^2 inside the delta band, linear outside).
    ``delta`` None disables the loss.
    """
    norms = np.sqrt(np.add.reduce(r_w * r_w, axis=1))
    weight = np.ones(len(norms))
    rho = 0.5 * norms ** 2
    if delta is not None:
        out = norms > delta
        weight[out] = delta / norms[out]
        rho[out] = delta * (norms[out] - 0.5 * delta)
    return weight, rho


class CostTerms:
    """Robust cost of row batches per block, in total and per tag."""

    def __init__(self, n_blocks=1):
        self.n_blocks = n_blocks
        self.cost = np.zeros(n_blocks)
        self.cost_by_tag = {}

    def add_batch(self, batch: RowBatch):
        """Add a batch's robust cost."""
        self._book(batch)

    def _book(self, batch):
        """Add a batch's robust cost; return its IRLS weights."""
        weight, rho = huber(batch.residuals, batch.huber_delta)
        if batch.block is None:
            cost = np.zeros(self.n_blocks)
            cost[0] = rho.sum()
        else:
            cost = np.bincount(batch.block, rho, minlength=self.n_blocks)
        self.cost += cost
        if batch.tag is not None:
            self.cost_by_tag[batch.tag] = \
                self.cost_by_tag.get(batch.tag, 0.0) + cost
        return weight

    def _weighted(self, batch):
        """Book a batch's cost; return its IRLS-weighted residuals and
        dense Jacobian, and the per-row scale."""
        scale = np.sqrt(self._book(batch))
        return (batch.residuals * scale[:, None],
                batch.jac * scale[:, None, None], scale)


def batch_cost(batches, n_blocks=1):
    """:class:`CostTerms` of an iterable of :class:`RowBatch`."""
    terms = CostTerms(n_blocks)
    for batch in batches:
        terms.add_batch(batch)
    return terms


def _gram(jac):
    """J^T J of each row's Jacobian (n, k, p), summed over the k
    components in reverse: on a reversed view matmul takes its own loop,
    several times faster on small blocks than the per-matrix BLAS call it
    makes for a buffer times its own transpose, and with no copy."""
    flip = jac[:, ::-1]
    return flip.transpose(0, 2, 1) @ flip


def _scatter(index, values, shape):
    """Sum ``values`` into an array of ``shape`` at the flat ``index``;
    entries that share an index add up."""
    return np.bincount(index.ravel(), values.ravel(),
                       minlength=math.prod(shape)).reshape(shape)


def _dense_terms(r_w, jac_w, plan, n_blocks, size):
    """Gradient (n_blocks, size) and Gauss-Newton blocks (n_blocks, size,
    size) of weighted rows placed by ``plan``; the sink column is left
    out."""
    wide = size + 1
    grad = _scatter(plan.grad, np.einsum("nij,ni->nj", jac_w, r_w),
                    (n_blocks, wide))
    h_mat = _scatter(plan.hess, _gram(jac_w), (n_blocks, wide, wide))
    return grad[:, :size], h_mat[:, :size, :size]


def _scaling(h_mat):
    """The diagonal D (..., d) that LM damping scales in systems (..., d,
    d): each diagonal entry, floored at 1e-12."""
    return np.maximum(np.diagonal(h_mat, axis1=-2, axis2=-1), 1e-12)


def _damped(h_mat, damping):
    """LM damping of stacked systems (m, d, d), one factor per system:
    each diagonal entry grows by ``damping`` times its :func:`_scaling`."""
    out = h_mat.copy()
    diag = np.arange(h_mat.shape[-1])
    out[..., diag, diag] += damping[:, None] * _scaling(h_mat)
    return out


def _model_decrease(step, damping, scaling, grad):
    """0.5 h^T (mu D h - g) of each block's damped step h (m, ...) at
    damping mu (m,), with D and g shaped as h: the decrease that the
    Gauss-Newton model, -g^T h - 0.5 h^T H h, predicts for a step that
    solves (H + mu D) h = -g."""
    m = len(step)
    mu = damping.reshape((m,) + (1,) * (step.ndim - 1))
    return 0.5 * np.sum((step * (mu * scaling * step - grad)).reshape(m, -1),
                        axis=1)


def _factor(h_mat, solved):
    """Cholesky factors of stacked systems.  A system that is not positive
    definite, or whose factor is not finite, clears its ``solved`` entry
    and gets the identity as its factor."""
    try:
        low = np.linalg.cholesky(h_mat)
    except np.linalg.LinAlgError:
        low = np.full_like(h_mat, np.nan)
        for i, h in enumerate(h_mat):
            try:
                low[i] = np.linalg.cholesky(h)
            except np.linalg.LinAlgError:
                pass
    bad = ~np.isfinite(low).all(axis=(1, 2))
    low[bad] = np.eye(h_mat.shape[-1])
    solved &= ~bad
    return low


def _cholesky_solve(h_mat, rhs, solved):
    """Solve the stacked systems h_mat (m, d, d) x = rhs (m, d); systems
    that cannot be factored clear their ``solved`` entry."""
    low = _factor(h_mat, solved)
    y = np.linalg.solve(low, rhs[:, :, None])
    return np.linalg.solve(low.transpose(0, 2, 1), y)[:, :, 0]


def _inverse(h_mat, solved):
    """Inverses of the stacked landmark blocks (m, n, k, k) of m systems;
    a system with a singular block clears its ``solved`` entry."""
    try:
        return np.linalg.inv(h_mat)
    except np.linalg.LinAlgError:
        out = np.empty_like(h_mat)
        for i, h in enumerate(h_mat):
            try:
                out[i] = np.linalg.inv(h)
            except np.linalg.LinAlgError:
                out[i] = 0.0
                solved[i] = False
        return out


class DenseNormalEquations(CostTerms):
    """Accumulator for H dx = -g, one dense system of ``size`` per block."""

    def __init__(self, size, n_blocks=1):
        super().__init__(n_blocks)
        self.size = size
        self.h_mat = np.zeros((n_blocks, size, size))
        self.grad = np.zeros((n_blocks, size))

    def add_batch(self, batch: RowBatch):
        """Add the rows of one :class:`RowBatch` (no landmarks)."""
        r_w, jac_w, _ = self._weighted(batch)
        grad, h_mat = _dense_terms(r_w, jac_w, batch.plan, self.n_blocks,
                                   self.size)
        self.grad += grad
        self.h_mat += h_mat

    @property
    def gradient_norm(self):
        """Gradient infinity norm per block."""
        return np.abs(self.grad).max(axis=1, initial=0.0)

    def solve(self, damping, blocks):
        """Damped steps of ``blocks`` (m,) at ``damping`` (m,): the tuple
        (dense (m, size),) and the solved mask (m,)."""
        solved = np.ones(len(blocks), dtype=bool)
        step = _cholesky_solve(_damped(self.h_mat[blocks], damping),
                               -self.grad[blocks], solved)
        return (step,), solved

    def predicted_decrease(self, step, damping, blocks):
        """Model decrease (m,) of the damped steps ``step``, as returned by
        :meth:`solve`, of ``blocks`` (m,) at ``damping`` (m,)."""
        return _model_decrease(step[0], damping, _scaling(self.h_mat)[blocks],
                               self.grad[blocks])


class SchurNormalEquations(CostTerms):
    """Normal equations with dense blocks and eliminated landmark blocks.

    Each block's parameter vector is (dense params, landmark 0, landmark
    1, ...) with ``dense_size`` dense columns and ``n_landmarks`` 3D
    landmarks.  ``used`` (n_blocks, dense_size) marks the dense columns
    each block uses, None for all; the others are padding, their diagonal
    is set to 1 in the reduced system, and they get no step.  So do
    unobserved landmarks.  Solving forms each block's Schur complement
    onto its dense columns and back-substitutes the landmarks.
    """

    def __init__(self, dense_size, n_landmarks, n_blocks=1, used=None):
        super().__init__(n_blocks)
        k, d, n, dim = n_blocks, dense_size, n_landmarks, LM_DIM
        self.dense_size, self.n_landmarks = d, n
        self.h_dd = np.zeros((k, d, d))
        self.g_d = np.zeros((k, d))
        self.h_ll = np.zeros((k, n, dim, dim))
        self.g_l = np.zeros((k, n, dim))
        self.h_dl = np.zeros((k, d, n * dim))
        self.used = (np.ones((k, d), dtype=bool) if used is None
                     else np.asarray(used, dtype=bool))

    def add_batch(self, batch: RowBatch):
        """Add the rows of one :class:`RowBatch`, each touching its block's
        dense columns and, when ``lm_jac`` is set, one landmark."""
        k, d, plan = self.n_blocks, self.dense_size, batch.plan
        r_w, jac_d, scale = self._weighted(batch)
        g_d, h_dd = _dense_terms(r_w, jac_d, plan, k, d)
        self.g_d += g_d
        self.h_dd += h_dd
        if batch.lm_jac is None:
            return
        width = self.n_landmarks * LM_DIM
        jac_l = batch.lm_jac * scale[:, None, None]
        self.h_ll += _scatter(plan.lm_hess, _gram(jac_l),
                              (k, width, LM_DIM)).reshape(self.h_ll.shape)
        self.g_l += _scatter(plan.lm_grad,
                             np.einsum("nij,ni->nj", jac_l, r_w),
                             (k, width)).reshape(self.g_l.shape)
        self.h_dl += _scatter(plan.coupling,
                              jac_d.transpose(0, 2, 1) @ jac_l,
                              (k, d + 1, width))[:, :d]

    @property
    def gradient_norm(self):
        """Gradient infinity norm per block."""
        return np.maximum(
            np.abs(self.g_d).max(axis=1, initial=0.0),
            np.abs(self.g_l).reshape(self.n_blocks, -1).max(axis=1,
                                                            initial=0.0))

    def solve(self, damping, blocks):
        """Damped steps of ``blocks`` (m,) at ``damping`` (m,): the tuple
        (dense (m, dense_size), landmarks (m, n_landmarks, 3)) and the
        solved mask (m,)."""
        m, d, n, dim = len(blocks), self.dense_size, self.n_landmarks, LM_DIM
        solved = np.ones(m, dtype=bool)
        # damp the landmark blocks as _damped does, all at once, and
        # invert them
        h_ll = self.h_ll[blocks]
        diag = np.arange(dim)
        h_ll[..., diag, diag] += damping[:, None, None] * _scaling(h_ll)
        h_ll_inv = _inverse(h_ll, solved) if n else h_ll
        # reduced system on each block's dense columns: with W the
        # coupling (m, d, n * dim) and V = W blockdiag(H_ll^-1),
        # H_red = H_dd - V W^T and g_red = g_d - V g_l
        every = m == self.n_blocks
        w_mat = self.h_dl if every else self.h_dl[blocks]
        g_l = self.g_l if every else self.g_l[blocks]
        # written straight into V's layout, which saves a copy of V
        v_mat = np.empty((m, d, n, dim))
        np.matmul(w_mat.reshape(m, d, n, dim).transpose(0, 2, 1, 3),
                  h_ll_inv, out=v_mat.transpose(0, 2, 1, 3))
        v_mat = v_mat.reshape(m, d, n * dim)
        h_red = (_damped(self.h_dd[blocks], damping)
                 - v_mat @ w_mat.transpose(0, 2, 1))
        g_red = self.g_d[blocks] - (v_mat @ g_l.reshape(m, -1, 1))[:, :, 0]
        pad = np.nonzero(~self.used[blocks])
        h_red[pad[0], pad[1], pad[1]] = 1.0
        dx_d = _cholesky_solve(h_red, -g_red, solved)
        # back-substitute the landmarks
        rhs = -g_l - (dx_d[:, None, :] @ w_mat).reshape(m, n, dim)
        dx_l = (h_ll_inv @ rhs[..., None])[..., 0]
        return (dx_d, dx_l), solved

    def predicted_decrease(self, step, damping, blocks):
        """Model decrease (m,) of the damped steps ``step``, as returned by
        :meth:`solve`, of ``blocks`` (m,) at ``damping`` (m,), over the
        dense columns and the landmarks; padding columns and unobserved
        landmarks have no gradient and no step, and add nothing."""
        dx_d, dx_l = step
        return (_model_decrease(dx_d, damping, _scaling(self.h_dd)[blocks],
                                self.g_d[blocks])
                + _model_decrease(dx_l, damping, _scaling(self.h_ll)[blocks],
                                  self.g_l[blocks]))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the LM iterations of one block."""

    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    reason: str
    cost_by_tag: dict


class SolveReports(tuple):
    """The :class:`SolveReport` of every block of one solve, in order."""

    @property
    def iterations(self):
        """LM iterations summed over the blocks."""
        return sum(r.iterations for r in self)


def _step_norms(step):
    """Infinity norm of each block's step over all of its parts."""
    return np.max([np.abs(part).reshape(len(part), -1).max(axis=1,
                                                            initial=0.0)
                   for part in step], axis=0)


def _linearize(problem, state, blocks):
    eq = problem.equations()
    for batch in problem.batches(state, blocks, True):
        eq.add_batch(batch)
    return eq


def solve_nls(problem, state, initial_damping=1e-4):
    """Levenberg-Marquardt with gain-ratio diagonal damping, run on every
    block of ``problem`` in lockstep.

    Each round linearizes the blocks still running in one evaluation,
    then tries damped steps until every one of them has lowered its cost
    or run out of damping; each trial costs the blocks it moves in one
    evaluation.  Per block, steps are accepted only when they strictly
    lower the cost.  Every block starts at ``initial_damping``: the
    default 1e-4 suits a window that starts far from its optimum, and a
    warm-started one can start at :data:`MIN_DAMPING`.  The damping then
    follows Madsen, Nielsen and Tingleff (2004) with a floor of 1/10: an
    accepted step with gain ratio rho (actual over predicted cost
    decrease) scales the damping by max(1/10, 1 - (2 rho - 1)^3), down to
    :data:`MIN_DAMPING`, and resets the growth factor nu to 2; a rejected
    step multiplies the damping by nu and doubles nu.  A block stops on
    an accepted step's relative cost decrease below :data:`COST_TOL`,
    gradient infinity norm below :data:`GRADIENT_TOL`, accepted step norm
    below :data:`STEP_TOL` (the relative-decrease test is meaningless
    once the cost sits at machine noise), or :data:`MAX_ITERATIONS`; a
    stopped block's rows are not evaluated again.  :data:`COST_TOL` is
    100 times Ceres's default ``function_tolerance``: the next frame
    solves each window again from where this solve stopped, and a far
    car's tail of 1e-4 steps only walks its poorly seen range and dims.
    A block whose damping passes :data:`MAX_DAMPING` stops: as "stalled"
    if its normal equations are still solvable, else unconverged with
    reason :data:`NUMERICAL_FAILURE`.  A block whose starting cost is not
    finite stops at once, unconverged with reason
    :data:`NUMERICAL_FAILURE` and no iterations.  Returns the state and
    the :class:`SolveReports`.
    """
    n_blocks = problem.n_blocks
    running = np.arange(n_blocks)
    lin = _linearize(problem, state, running)
    initial_cost = lin.cost.copy()
    cost = lin.cost.copy()
    by_tag = {tag: c.copy() for tag, c in lin.cost_by_tag.items()}
    damping = np.full(n_blocks, float(initial_damping))
    growth = np.full(n_blocks, 2.0)  # nu: the next rejection's factor
    iterations = np.zeros(n_blocks, dtype=int)
    converged = np.zeros(n_blocks, dtype=bool)
    reason = ["max_iterations"] * n_blocks

    def stop(blocks, why, done):
        for b in blocks:
            reason[b] = why
        converged[blocks] = done

    # no trial can lower a cost that is not finite
    stop(running[~np.isfinite(cost)], NUMERICAL_FAILURE, False)
    running = running[np.isfinite(cost)]
    while len(running):
        iterations[running] += 1
        flat = lin.gradient_norm[running] < GRADIENT_TOL
        stop(running[flat], "gradient", True)
        pending = running[~flat]
        accepted = np.zeros(n_blocks, dtype=bool)
        rel_drop, step_norm = np.zeros(n_blocks), np.zeros(n_blocks)
        while len(pending):
            step, solved = lin.solve(damping[pending], pending)
            moved = pending[solved]
            won = np.zeros(len(pending), dtype=bool)
            if len(moved):
                step = tuple(part[solved] for part in step)
                predicted = lin.predicted_decrease(step, damping[moved],
                                                   moved)
                trial = problem.retract(state, step, moved)
                terms = batch_cost(problem.batches(trial, moved, False),
                                   n_blocks)
                trial_cost = terms.cost[moved]
                better = np.isfinite(trial_cost) & (trial_cost < cost[moved])
                won[solved] = better
                wins = moved[better]
                if len(wins):
                    state = trial if better.all() else problem.retract(
                        state, tuple(part[better] for part in step), wins)
                    drop = cost[wins] - trial_cost[better]
                    rel_drop[wins] = drop / np.maximum(cost[wins], 1e-300)
                    step_norm[wins] = _step_norms(step)[better]
                    cost[wins] = trial_cost[better]
                    for tag, c in terms.cost_by_tag.items():
                        by_tag.setdefault(tag, np.zeros(n_blocks))[wins] = \
                            c[wins]
                    # gain ratio, capped at 1 where the factor is already
                    # at its floor; a predicted decrease that is not
                    # positive counts as a perfect model
                    rho = drop / np.fmax(predicted[better], drop)
                    damping[wins] = np.maximum(damping[wins] * np.maximum(
                        0.1, 1.0 - (2.0 * rho - 1.0) ** 3), MIN_DAMPING)
                    growth[wins] = 2.0
                    accepted[wins] = True
            lost = pending[~won]
            damping[lost] *= growth[lost]
            growth[lost] *= 2.0
            spent = lost[damping[lost] > MAX_DAMPING]
            if len(spent):
                _, solvable = lin.solve(np.full(len(spent), MAX_DAMPING),
                                        spent)
                # solvable but no descent direction left: stalled minimum
                stop(spent[solvable], "stalled", True)
                stop(spent[~solvable], NUMERICAL_FAILURE, False)
            pending = lost[damping[lost] <= MAX_DAMPING]
        # the stopping tests come before the next linearization, which a
        # stopped block does not need
        running = np.nonzero(accepted)[0]
        for value, tol, why in ((rel_drop, COST_TOL, "cost"),
                                (step_norm, STEP_TOL, "step")):
            done = value[running] < tol
            stop(running[done], why, True)
            running = running[~done]
        running = running[iterations[running] < MAX_ITERATIONS]
        if len(running):
            lin = _linearize(problem, state, running)
    reports = SolveReports(
        SolveReport(initial_cost=float(initial_cost[b]),
                    final_cost=float(cost[b]),
                    iterations=int(iterations[b]),
                    converged=bool(converged[b]), reason=reason[b],
                    cost_by_tag={tag: float(c[b])
                                 for tag, c in by_tag.items()})
        for b in range(n_blocks))
    return state, reports
