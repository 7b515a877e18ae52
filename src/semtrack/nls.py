"""Sparse nonlinear least-squares machinery.

A problem object exposes ``linearize(state)`` returning a linearization
that can produce damped Gauss-Newton steps, plus ``cost(state)`` and
``retract(state, step)``.  :func:`solve_nls` runs Levenberg-Marquardt on
top of that interface.

Problems hand their residuals over as :class:`RowBatch` arrays, already
whitened.  Two normal-equation accumulators take them through one
``add_batch`` entry point: a plain dense one, and a Schur-complement
variant that eliminates a block-diagonal landmark block (the standard
trick for bundle-adjustment style problems where the number of 3D points
dwarfs the number of poses).  :func:`batch_cost` evaluates the same
batches without Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Protocol

import numpy as np

from .errors import NumericalFailure

MAX_DAMPING = 1e8


class RowBatch(NamedTuple):
    """Whitened residual rows with their whitened Jacobians.

    ``residuals`` is (n, k): n independent rows of k components each,
    robustified one row at a time when ``huber_delta`` is set.  ``jac``
    is (n, k, p) over the dense columns ``cols``, given per row (n, p) or
    shared (p,); a row does not touch a column whose index is negative.
    ``jac`` is None for a cost-only batch.  ``lm_indices`` (n,) and
    ``lm_jac`` (n, k, lm_dim) attach each row to one eliminated landmark;
    an index may repeat, and the terms of its rows add up.
    """

    residuals: np.ndarray
    jac: np.ndarray | None = None
    cols: np.ndarray | None = None
    huber_delta: float | None = None
    tag: str | None = None
    lm_indices: np.ndarray | None = None
    lm_jac: np.ndarray | None = None


def huber(r_w, delta):
    """Per-row IRLS weight and robust cost of whitened rows (n, k).

    Rows are scaled by sqrt(weight); the cost is the Huber loss of the
    row norm (0.5 * norm^2 inside the delta band, linear outside).
    ``delta`` None disables the loss.
    """
    norms = np.linalg.norm(r_w, axis=1)
    weight = np.ones(len(norms))
    rho = 0.5 * norms ** 2
    if delta is not None:
        out = norms > delta
        weight[out] = delta / norms[out]
        rho[out] = delta * (norms[out] - 0.5 * delta)
    return weight, rho


def batch_cost(batches):
    """Total robust cost of an iterable of :class:`RowBatch`."""
    return sum(float(huber(b.residuals, b.huber_delta)[1].sum())
               for b in batches)


def _book(eq, batch):
    """Add a batch's robust cost to ``eq``; return its IRLS-weighted
    residuals and dense Jacobian, and the per-row scale."""
    weight, rho = huber(batch.residuals, batch.huber_delta)
    cost = float(rho.sum())
    eq.cost += cost
    if batch.tag is not None:
        eq.cost_by_tag[batch.tag] = eq.cost_by_tag.get(batch.tag, 0.0) + cost
    scale = np.sqrt(weight)
    return (batch.residuals * scale[:, None],
            batch.jac * scale[:, None, None], scale)


def _dense_terms(r_w, jac_w, cols, size):
    """Gradient (size,) and Gauss-Newton block (size, size) of weighted
    rows over their dense columns; also the per-row columns (n, p) with
    every negative index sent to a sink column ``size``, which the
    returned terms leave out.  Rows that share a column add up."""
    n, _, p = jac_w.shape
    cols = np.broadcast_to(np.where(cols < 0, size, cols), (n, p))
    wide = size + 1
    grad = np.bincount(cols.ravel(),
                       np.einsum("nij,ni->nj", jac_w, r_w).ravel(),
                       minlength=wide)[:size]
    h_mat = np.bincount((cols[:, :, None] * wide + cols[:, None, :]).ravel(),
                        (jac_w.transpose(0, 2, 1) @ jac_w).ravel(),
                        minlength=wide * wide).reshape(wide, wide)
    return grad, h_mat[:size, :size], cols


def _damped(h_mat, damping):
    diag = np.maximum(np.diag(h_mat), 1e-12)
    return h_mat + damping * np.diag(diag)


def _try_cholesky_solve(h_mat, rhs):
    try:
        low = np.linalg.cholesky(h_mat)
    except np.linalg.LinAlgError:
        return None
    y = np.linalg.solve(low, rhs)
    return np.linalg.solve(low.T, y)


@dataclass
class DenseNormalEquations:
    """Accumulator for H dx = -g over a single dense parameter vector."""

    size: int
    cost: float = 0.0
    cost_by_tag: dict = field(default_factory=dict)

    def __post_init__(self):
        self.h_mat = np.zeros((self.size, self.size))
        self.grad = np.zeros(self.size)

    def add_batch(self, batch: RowBatch):
        """Add the rows of one :class:`RowBatch` (no landmarks)."""
        grad, h_mat, _ = _dense_terms(*_book(self, batch)[:2], batch.cols,
                                      self.size)
        self.grad += grad
        self.h_mat += h_mat

    @property
    def gradient_norm(self):
        return float(np.abs(self.grad).max())

    def solve(self, damping):
        return _try_cholesky_solve(_damped(self.h_mat, damping), -self.grad)


@dataclass
class SchurNormalEquations:
    """Normal equations with a dense block and eliminated landmark blocks.

    The parameter vector is (dense params, landmark 0, landmark 1, ...)
    with every landmark of dimension ``lm_dim``.  Solving forms the Schur
    complement onto the dense block and back-substitutes the landmarks.
    """

    dense_size: int
    n_landmarks: int
    lm_dim: int = 3
    cost: float = 0.0
    cost_by_tag: dict = field(default_factory=dict)

    def __post_init__(self):
        self.h_dd = np.zeros((self.dense_size, self.dense_size))
        self.g_d = np.zeros(self.dense_size)
        self.h_ll = np.zeros((self.n_landmarks, self.lm_dim, self.lm_dim))
        self.g_l = np.zeros((self.n_landmarks, self.lm_dim))
        self.h_dl = np.zeros((self.dense_size, self.n_landmarks * self.lm_dim))

    def add_batch(self, batch: RowBatch):
        """Add the rows of one :class:`RowBatch`, each touching the dense
        block and, when ``lm_indices`` is set, one landmark."""
        r_w, jac_d, scale = _book(self, batch)
        g_d, h_dd, cols = _dense_terms(r_w, jac_d, batch.cols,
                                       self.dense_size)
        self.g_d += g_d
        self.h_dd += h_dd
        if batch.lm_indices is None:
            return
        dim = self.lm_dim
        width = self.n_landmarks * dim
        jac_l = batch.lm_jac * scale[:, None, None]
        lm = np.asarray(batch.lm_indices)[:, None]
        # bincount adds up the terms of rows that share a landmark
        self.h_ll += np.bincount(
            (lm * dim * dim + np.arange(dim * dim)).ravel(),
            (jac_l.transpose(0, 2, 1) @ jac_l).ravel(),
            minlength=width * dim).reshape(self.h_ll.shape)
        lm_cols = lm * dim + np.arange(dim)
        self.g_l += np.bincount(
            lm_cols.ravel(), np.einsum("nij,ni->nj", jac_l, r_w).ravel(),
            minlength=width).reshape(self.g_l.shape)
        self.h_dl += np.bincount(
            (cols[:, :, None] * width + lm_cols[:, None, :]).ravel(),
            (jac_d.transpose(0, 2, 1) @ jac_l).ravel(),
            minlength=(self.dense_size + 1) * width
        ).reshape(-1, width)[:self.dense_size]

    @property
    def gradient_norm(self):
        parts = []
        if self.dense_size:
            parts.append(np.abs(self.g_d).max())
        if self.n_landmarks:
            parts.append(np.abs(self.g_l).max())
        return float(max(parts)) if parts else 0.0

    def solve(self, damping):
        # damp the landmark blocks as _damped does, all at once, and
        # invert them
        h_ll = self.h_ll.copy()
        diag = np.arange(self.lm_dim)
        h_ll[:, diag, diag] += damping * np.maximum(h_ll[:, diag, diag],
                                                    1e-12)
        try:
            h_ll_inv = np.linalg.inv(h_ll) if self.n_landmarks else h_ll
        except np.linalg.LinAlgError:
            return None
        # reduced system on the dense block
        w_mat = self.h_dl.reshape(self.dense_size, self.n_landmarks,
                                  self.lm_dim)
        w_inv = np.einsum("dki,kij->dkj", w_mat, h_ll_inv)
        h_red = (_damped(self.h_dd, damping)
                 - np.einsum("dkj,ekj->de", w_inv, w_mat))
        g_red = self.g_d - np.einsum("dkj,kj->d", w_inv, self.g_l)
        dx_d = _try_cholesky_solve(h_red, -g_red)
        if dx_d is None:
            return None
        # back-substitute the landmarks
        rhs = -self.g_l - np.einsum("dkj,d->kj", w_mat, dx_d)
        dx_l = np.einsum("kij,kj->ki", h_ll_inv, rhs)
        return np.concatenate([dx_d, dx_l.ravel()])


class Linearization(Protocol):
    cost: float

    @property
    def gradient_norm(self) -> float: ...

    def solve(self, damping) -> np.ndarray | None: ...


class Problem(Protocol):
    def linearize(self, state) -> Linearization: ...

    def cost(self, state) -> float: ...

    def retract(self, state, step): ...


@dataclass(frozen=True)
class SolveReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    reason: str
    cost_by_tag: dict


def solve_nls(problem, state, max_iterations=50, cost_tol=1e-8,
              gradient_tol=1e-10, step_tol=1e-12, initial_damping=1e-4):
    """Levenberg-Marquardt with multiplicative diagonal damping.

    Steps are accepted only when they strictly lower the cost.  Stops on
    relative cost decrease below ``cost_tol``, gradient infinity norm
    below ``gradient_tol``, accepted step norm below ``step_tol`` (the
    relative-decrease test is meaningless once the cost sits at machine
    noise), or ``max_iterations``.  Raises
    :class:`NumericalFailure` when the normal equations stay unsolvable
    up to the damping cap.
    """
    damping = initial_damping
    lin = problem.linearize(state)
    initial_cost = lin.cost
    cost = initial_cost
    reason = "max_iterations"
    converged = False
    iteration = 0
    while iteration < max_iterations:
        iteration += 1
        if lin.gradient_norm < gradient_tol:
            reason = "gradient"
            converged = True
            break
        accepted = False
        while damping <= MAX_DAMPING:
            step = lin.solve(damping)
            if step is None:
                damping *= 10.0
                continue
            trial = problem.retract(state, step)
            trial_cost = problem.cost(trial)
            if np.isfinite(trial_cost) and trial_cost < cost:
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            if lin.solve(MAX_DAMPING) is None:
                raise NumericalFailure(
                    "normal equations unsolvable at maximum damping")
            # solvable but no descent direction left: stalled minimum
            reason = "stalled"
            converged = True
            break
        rel_drop = (cost - trial_cost) / max(cost, 1e-300)
        step_norm = float(np.abs(step).max())
        state = trial
        cost = trial_cost
        damping = max(damping / 10.0, 1e-12)
        lin = problem.linearize(state)
        if rel_drop < cost_tol:
            reason = "cost"
            converged = True
            break
        if step_norm < step_tol:
            reason = "step"
            converged = True
            break
    report = SolveReport(initial_cost=initial_cost, final_cost=cost,
                         iterations=iteration, converged=converged,
                         reason=reason,
                         cost_by_tag=dict(getattr(lin, "cost_by_tag", {})))
    return state, report
