"""Tests for the Levenberg-Marquardt engine and normal-equation blocks."""

import math

import numpy as np
import pytest

from semtrack import nls


def one_block_plan(n_rows, cols, size, lm=None, n_lm=0):
    """The scatter plan of ``n_rows`` rows of block 0."""
    return nls.scatter_plan(np.zeros(n_rows, dtype=int), cols, 1, size, lm,
                            n_lm)


def flat_step(eq, damping):
    """The damped step of a one-block system as one vector, or None."""
    step, solved = eq.solve(np.array([damping]), np.array([0]))
    if not solved[0]:
        return None
    return np.concatenate([part[0].ravel() for part in step])


class QuadraticProblem:
    """0.5 || A x - b ||^2 over a plain vector state, as one block."""

    n_blocks = 1

    def __init__(self, a_mat, b):
        self.a_mat = a_mat
        self.b = b

    def residual(self, x):
        return self.a_mat @ x - self.b

    def equations(self):
        return nls.DenseNormalEquations(self.a_mat.shape[1])

    def batches(self, x, blocks, jacobians):
        return [nls.RowBatch(self.residual(x)[None],
                             self.a_mat[None] if jacobians else None,
                             one_block_plan(1, np.arange(len(x)), len(x)),
                             tag="quad")]

    def cost(self, x):
        r = self.residual(x)
        return 0.5 * float(r @ r)

    def retract(self, x, step, blocks):
        return x + step[0][0]


class RosenbrockProblem:
    """Rosenbrock's function in k independent blocks; state (k, 2)."""

    def __init__(self, n_blocks=1):
        self.n_blocks = n_blocks

    def residual(self, x):
        x = np.reshape(x, (-1, 2))
        return np.column_stack([10.0 * (x[:, 1] - x[:, 0] ** 2),
                                1.0 - x[:, 0]])

    def equations(self):
        return nls.DenseNormalEquations(2, self.n_blocks)

    def batches(self, x, blocks, jacobians):
        x = np.reshape(x, (-1, 2))[blocks]
        jac = None
        if jacobians:
            jac = np.zeros((len(blocks), 2, 2))
            jac[:, 0, 0] = -20.0 * x[:, 0]
            jac[:, 0, 1] = 10.0
            jac[:, 1, 0] = -1.0
        return [nls.RowBatch(self.residual(x), jac,
                             nls.scatter_plan(blocks, np.arange(2),
                                              self.n_blocks, 2),
                             block=blocks)]

    def cost(self, x):
        r = self.residual(x)
        return 0.5 * float(np.sum(r * r))

    def retract(self, x, step, blocks):
        x = np.array(x, dtype=float).reshape(-1, 2)
        x[blocks] += step[0]
        return x


class Unsolvable(RosenbrockProblem):
    """Rosenbrock blocks whose normal equations no damping makes solvable
    in the blocks listed in ``bad``."""

    def __init__(self, n_blocks, bad):
        super().__init__(n_blocks)
        self.bad = bad

    def equations(self):
        bad = self.bad

        class Equations(nls.DenseNormalEquations):
            def solve(self, damping, blocks):
                step, solved = super().solve(damping, blocks)
                return step, solved & ~np.isin(blocks, bad)

        return Equations(2, self.n_blocks)


class Recorded(QuadraticProblem):
    """A :class:`QuadraticProblem` that records the damping of each linear
    solve and rejects the trial evaluations numbered (from 1) in
    ``reject`` by inflating their cost."""

    def __init__(self, a_mat, b, reject=()):
        super().__init__(a_mat, b)
        self.dampings = []
        self.reject = set(reject)
        self.trials = 0

    def equations(self):
        dampings = self.dampings

        class Equations(nls.DenseNormalEquations):
            def solve(self, damping, blocks):
                dampings.append(float(damping[0]))
                return super().solve(damping, blocks)

        return Equations(self.a_mat.shape[1])

    def batches(self, x, blocks, jacobians):
        (batch,) = super().batches(x, blocks, jacobians)
        if not jacobians:
            self.trials += 1
            if self.trials in self.reject:
                batch = batch._replace(residuals=batch.residuals + 1e6)
        return [batch]


class Scripted(QuadraticProblem):
    """One block that walks the costs ``costs`` in order: every step,
    whatever its size, moves the state from index k to k + 1, and the
    residual at index k is sqrt(2 costs[k]).  Past the last entry the
    cost stays put, so no step is accepted there."""

    def __init__(self, costs):
        super().__init__(np.ones((1, 1)), np.zeros(1))
        self.costs = costs

    def residual(self, x):
        k = min(int(round(x[0])), len(self.costs) - 1)
        return np.array([math.sqrt(2.0 * self.costs[k])])

    def retract(self, x, step, blocks):
        return x + 1.0


class TestSolveNls:
    def test_linear_problem_one_accepted_step(self):
        rng = np.random.default_rng(21)
        a_mat = rng.normal(size=(8, 4))
        b = rng.normal(size=8)
        problem = QuadraticProblem(a_mat, b)
        x, (report,) = nls.solve_nls(problem, np.zeros(4),
                                     initial_damping=1e-12)
        x_star, *_ = np.linalg.lstsq(a_mat, b, rcond=None)
        assert np.allclose(x, x_star, atol=1e-8)
        assert report.converged
        assert report.final_cost <= report.initial_cost
        assert "quad" in report.cost_by_tag

    def test_rosenbrock_converges(self):
        x, (report,) = nls.solve_nls(RosenbrockProblem(),
                                     np.array([-1.2, 1.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-6)
        assert report.converged

    def test_never_worse_than_start(self, monkeypatch):
        rng = np.random.default_rng(22)
        problem = RosenbrockProblem()
        monkeypatch.setattr(nls, "MAX_ITERATIONS", 12)
        for _ in range(25):
            x0 = rng.uniform(-3.0, 3.0, 2)
            x, (report,) = nls.solve_nls(problem, x0)
            assert problem.cost(x) <= problem.cost(x0) + 1e-15
            assert report.final_cost == pytest.approx(problem.cost(x))

    def test_unsolvable_block_fails(self):
        # normal equations that no damping makes solvable: the block stops
        # unconverged instead of raising
        x0 = np.array([-1.2, 1.0])
        x, (report,) = nls.solve_nls(Unsolvable(1, bad=[0]), x0)
        assert not report.converged
        assert report.reason == nls.NUMERICAL_FAILURE
        assert report.iterations == 1
        assert np.array_equal(x, x0)

    def test_already_optimal_stops_on_gradient(self):
        rng = np.random.default_rng(23)
        a_mat = rng.normal(size=(6, 3))
        b = rng.normal(size=6)
        problem = QuadraticProblem(a_mat, b)
        x_star, *_ = np.linalg.lstsq(a_mat, b, rcond=None)
        _, (report,) = nls.solve_nls(problem, x_star)
        assert report.converged and report.iterations <= 2

    def test_exact_model_divides_damping_by_ten(self):
        # on a linear least-squares block the gain ratio is 1
        rng = np.random.default_rng(31)
        problem = Recorded(rng.normal(size=(8, 4)), rng.normal(size=8))
        nls.solve_nls(problem, np.zeros(4), initial_damping=1e-4)
        assert len(problem.dampings) >= 2
        assert problem.dampings[1] == pytest.approx(1e-5, rel=1e-12)

    def test_rejections_grow_damping_until_a_step_is_accepted(self):
        # rejected trials multiply the damping by 2, then 4; the accepted
        # third divides it by 10 and resets the growth to 2
        rng = np.random.default_rng(32)
        problem = Recorded(rng.normal(size=(8, 4)), rng.normal(size=8),
                           reject=(1, 2, 4))
        _, (report,) = nls.solve_nls(problem, np.zeros(4),
                                     initial_damping=1e-4)
        assert problem.dampings[:5] == pytest.approx(
            [1e-4, 2e-4, 8e-4, 8e-5, 1.6e-4], rel=1e-12)
        assert report.converged

    def test_stops_on_first_step_below_cost_tolerance(self):
        # relative drops of the accepted steps around the tolerance of
        # 1e-4: above it, just above it, then the first one just below it
        drops = [0.5, 1e-3, 1.5e-4, 1.01e-4, 0.99e-4, 5e-5, 5e-5]
        costs = list(np.cumprod([100.0] + [1.0 - d for d in drops]))
        x, (report,) = nls.solve_nls(Scripted(costs), np.zeros(1))
        assert report.reason == "cost" and report.converged
        assert report.iterations == 5
        assert x[0] == 5.0
        assert report.final_cost == pytest.approx(costs[5], rel=1e-12)

    def test_blocks_match_solo_solves(self, monkeypatch):
        # each block of a batched solve takes the decisions of its solo
        # solve: the same states, iterations and stop reasons
        rng = np.random.default_rng(29)
        starts = rng.uniform(-3.0, 3.0, (6, 2))
        for cap in (4, 50):
            monkeypatch.setattr(nls, "MAX_ITERATIONS", cap)
            x, reports = nls.solve_nls(RosenbrockProblem(6), starts)
            for start, got, report in zip(starts, x, reports):
                solo, (solo_report,) = nls.solve_nls(RosenbrockProblem(),
                                                     start)
                assert np.array_equal(got, solo[0])
                assert report == solo_report
            assert reports.iterations == sum(r.iterations for r in reports)
            assert any(r.reason == "max_iterations" for r in reports) == \
                (cap == 4)

    def test_start_not_finite_stops_at_once(self):
        # a block whose start costs NaN is never stepped: it stops
        # unconverged with no iterations, and the others finish as alone
        trials = []

        class Counted(RosenbrockProblem):
            def batches(self, x, blocks, jacobians):
                if not jacobians:
                    trials.append(blocks.tolist())
                return super().batches(x, blocks, jacobians)

        starts = np.array([[-1.2, 1.0], [np.nan, 0.5], [2.0, -1.0]])
        x, reports = nls.solve_nls(Counted(3), starts)
        assert not reports[1].converged
        assert reports[1].reason == nls.NUMERICAL_FAILURE
        assert reports[1].iterations == 0
        assert np.isnan(reports[1].final_cost)
        assert np.array_equal(x[1], starts[1], equal_nan=True)
        assert trials and not any(1 in blocks for blocks in trials)
        for b in (0, 2):
            solo, (solo_report,) = nls.solve_nls(RosenbrockProblem(),
                                                 starts[b])
            assert np.array_equal(x[b], solo[0])
            assert reports[b] == solo_report

    def test_failed_block_leaves_the_others(self):
        # one block fails numerically; the others finish as they would
        # alone
        starts = np.array([[-1.2, 1.0], [0.5, 0.5], [2.0, -1.0]])
        x, reports = nls.solve_nls(Unsolvable(3, bad=[1]), starts)
        assert reports[1].reason == nls.NUMERICAL_FAILURE
        assert np.array_equal(x[1], starts[1])
        for b in (0, 2):
            solo, (solo_report,) = nls.solve_nls(RosenbrockProblem(),
                                                 starts[b])
            assert np.array_equal(x[b], solo[0])
            assert reports[b] == solo_report


class TestPredictedDecrease:
    def test_matches_full_quadratic_model(self):
        # two blocks of 6 dense columns and 4 landmarks: block 1 has its
        # last two columns locked (padding), and landmark 3 is observed by
        # neither; the model decrease of each damped step equals
        # -g^T h - 0.5 h^T H h of the full dense system
        rng = np.random.default_rng(33)
        k, n_dense, n_lm, n_obs = 2, 6, 4, 40
        used = np.ones((k, n_dense), dtype=bool)
        used[1, 4:] = False
        block = np.arange(n_obs) % k
        lm = rng.integers(0, n_lm - 1, n_obs)
        cols = np.where(used[block], np.arange(n_dense), -1)
        r = rng.normal(size=(n_obs, 2))
        jac_d = rng.normal(size=(n_obs, 2, n_dense)) * used[block][:, None]
        jac_l = rng.normal(size=(n_obs, 2, 3))
        width = n_dense + 3 * n_lm
        full = np.zeros((n_obs, 2, width))
        full[:, :, :n_dense] = jac_d
        for i in range(n_obs):
            full[i, :, n_dense + 3 * lm[i]:n_dense + 3 * lm[i] + 3] = jac_l[i]
        schur = nls.SchurNormalEquations(n_dense, n_lm, k, used)
        schur.add_batch(nls.RowBatch(
            r, jac_d, nls.scatter_plan(block, cols, k, n_dense, lm, n_lm),
            1.0, lm_jac=jac_l, block=block))
        dense = nls.DenseNormalEquations(width, k)
        dense.add_batch(nls.RowBatch(
            r, full, nls.scatter_plan(block, np.arange(width), k, width),
            1.0, block=block))
        blocks = np.arange(k)
        for damping in (np.array([1e-6, 1e-2]), np.array([1.0, 1e-4])):
            for eq in (schur, dense):
                step, solved = eq.solve(damping, blocks)
                assert solved.all()
                got = eq.predicted_decrease(step, damping, blocks)
                for b in blocks:
                    h = np.concatenate([part[b].ravel() for part in step])
                    h_mat, g = dense.h_mat[b], dense.grad[b]
                    want = -g @ h - 0.5 * h @ h_mat @ h
                    assert want > 0
                    assert got[b] == pytest.approx(want, rel=1e-10)
            # the padding and the unobserved landmark take no step
            (dx_d, dx_l), _ = schur.solve(damping, blocks)
            assert not dx_d[1, 4:].any() and not dx_l[:, 3].any()


class TestHuber:
    def test_quadratic_inside_band(self):
        w, rho = nls.huber(np.array([[0.3, 0.4]]), 1.0)
        assert w[0] == 1.0 and rho[0] == pytest.approx(0.125)

    def test_linear_outside_band(self):
        w, rho = nls.huber(np.array([[4.0]]), 1.0)
        assert w[0] == pytest.approx(0.25)
        assert rho[0] == pytest.approx(1.0 * (4.0 - 0.5))

    def test_none_disables(self):
        w, rho = nls.huber(np.array([[100.0]]), None)
        assert w[0] == 1.0 and rho[0] == pytest.approx(0.5 * 100.0 ** 2)


class TestSchurEquivalence:
    def build_problem(self, rng, n_dense=7, n_lm=12, n_obs=60):
        obs = []
        for _ in range(n_obs):
            lm = int(rng.integers(0, n_lm))
            jac_d = rng.normal(size=(2, n_dense))
            jac_l = rng.normal(size=(2, 3))
            r = rng.normal(size=2)
            obs.append((lm, jac_d, jac_l, r))
        return obs

    def assemble(self, obs, n_dense, n_lm, huber=None, sqrt_info=1.0):
        # one Schur batch per observation; the dense reference carries
        # the landmarks as plain columns
        schur = nls.SchurNormalEquations(n_dense, n_lm)
        dense = nls.DenseNormalEquations(n_dense + 3 * n_lm)
        full = np.zeros((len(obs), 2, n_dense + 3 * n_lm))
        for i, (lm, jac_d, jac_l, r) in enumerate(obs):
            schur.add_batch(nls.RowBatch(
                sqrt_info * r[None], sqrt_info * jac_d[None],
                one_block_plan(1, np.arange(n_dense), n_dense,
                               np.array([lm]), n_lm),
                huber, lm_jac=sqrt_info * jac_l[None]))
            full[i, :, :n_dense] = jac_d
            full[i, :, n_dense + 3 * lm:n_dense + 3 * lm + 3] = jac_l
        residuals = np.array([r for *_, r in obs])
        width = n_dense + 3 * n_lm
        dense.add_batch(nls.RowBatch(
            sqrt_info * residuals, sqrt_info * full,
            one_block_plan(len(obs), np.arange(width), width), huber))
        return schur, dense

    def test_step_matches_dense_assembly(self):
        rng = np.random.default_rng(24)
        for trial in range(20):
            n_dense, n_lm = 7, 12
            obs = self.build_problem(rng, n_dense, n_lm)
            huber = 1.0 if trial % 2 else None
            info = 2.5 if trial % 3 == 0 else 1.0
            schur, dense = self.assemble(obs, n_dense, n_lm, huber, info)
            assert schur.cost == pytest.approx(dense.cost)
            for damping in (1e-6, 1e-2, 1.0):
                step_s = flat_step(schur, damping)
                step_d = flat_step(dense, damping)
                assert step_s is not None and step_d is not None
                assert np.allclose(step_s, step_d, atol=1e-8)

    def test_one_batch_with_repeated_landmarks(self):
        # every landmark shows up in several rows of one batch, and the
        # rows touch scattered dense columns, some of them not at all
        rng = np.random.default_rng(28)
        n_dense, n_lm, n_obs = 9, 5, 40
        lm = rng.integers(0, n_lm, n_obs)
        assert len(np.unique(lm)) < n_obs
        cols = np.array([rng.choice(n_dense, 4, replace=False)
                         for _ in range(n_obs)])
        cols[::3, 1] = -1
        jac_d = rng.normal(size=(n_obs, 2, 4))
        jac_l = rng.normal(size=(n_obs, 2, 3))
        r = rng.normal(size=(n_obs, 2))
        full = np.zeros((n_obs, 2, n_dense + 3 * n_lm))
        for i in range(n_obs):
            for j, col in enumerate(cols[i]):
                if col >= 0:
                    full[i, :, col] = jac_d[i, :, j]
            full[i, :, n_dense + 3 * lm[i]:n_dense + 3 * lm[i] + 3] = jac_l[i]
        for huber in (None, 1.0):
            schur = nls.SchurNormalEquations(n_dense, n_lm)
            schur.add_batch(nls.RowBatch(
                r, jac_d, one_block_plan(n_obs, cols, n_dense, lm, n_lm),
                huber, lm_jac=jac_l))
            width = full.shape[2]
            dense = nls.DenseNormalEquations(width)
            dense.add_batch(nls.RowBatch(
                r, full, one_block_plan(n_obs, np.arange(width), width),
                huber))
            h_full, grad = dense.h_mat[0], dense.grad[0]
            assert schur.cost == pytest.approx(dense.cost, rel=1e-12)
            assert np.allclose(schur.h_dd[0], h_full[:n_dense, :n_dense],
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(schur.h_dl[0], h_full[:n_dense, n_dense:],
                               rtol=1e-12, atol=1e-12)
            for k in range(n_lm):
                sl = slice(n_dense + 3 * k, n_dense + 3 * k + 3)
                assert np.allclose(schur.h_ll[0, k], h_full[sl, sl],
                                   rtol=1e-12, atol=1e-12)
                assert np.allclose(schur.g_l[0, k], grad[sl],
                                   rtol=1e-12, atol=1e-12)
            assert np.allclose(schur.g_d[0], grad[:n_dense],
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(flat_step(schur, 1e-3),
                               flat_step(dense, 1e-3), atol=1e-8)

    def test_block_damping_matches_per_block_reference(self):
        # the landmark blocks are damped all at once; damping them one at
        # a time, with the rest of the solve unchanged, gives the same bits
        def reference_solve(eq, damping):
            n, d = eq.n_landmarks, eq.dense_size
            h_ll = eq.h_ll.copy()
            for k in range(n):
                h_ll[0, k] += damping * np.diag(np.maximum(np.diag(h_ll[0, k]),
                                                           1e-12))
            h_ll_inv = np.linalg.inv(h_ll)
            v_mat = np.empty((1, d, n, 3))
            np.matmul(eq.h_dl.reshape(1, d, n, 3).transpose(0, 2, 1, 3),
                      h_ll_inv, out=v_mat.transpose(0, 2, 1, 3))
            v_mat = v_mat.reshape(1, d, 3 * n)
            h_red = (nls._damped(eq.h_dd, np.array([damping]))
                     - v_mat @ eq.h_dl.transpose(0, 2, 1))
            g_red = eq.g_d - (v_mat @ eq.g_l.reshape(1, -1, 1))[:, :, 0]
            low = np.linalg.cholesky(h_red)
            y = np.linalg.solve(low, -g_red[:, :, None])
            dx_d = np.linalg.solve(low.transpose(0, 2, 1), y)[:, :, 0]
            rhs = -eq.g_l - (dx_d[:, None, :] @ eq.h_dl).reshape(1, n, 3)
            dx_l = (h_ll_inv @ rhs[..., None])[..., 0]
            return np.concatenate([dx_d[0], dx_l[0].ravel()])

        rng = np.random.default_rng(27)
        # 20 landmarks for 12 observations: some blocks stay empty
        schur, _ = self.assemble(self.build_problem(rng, 7, 20, 12), 7, 20)
        for damping in (1e-4, 1e-2, 1.0, 1e3):
            step = flat_step(schur, damping)
            assert step is not None
            assert step.tobytes() == reference_solve(schur, damping).tobytes()

    def test_plan_of_row_subset(self):
        # the plan of a solve, cut to a subset of its rows, places them as
        # a plan built for that subset alone does
        rng = np.random.default_rng(29)
        k, n_dense, n_lm, n_obs = 3, 6, 4, 50
        block = rng.integers(0, k, n_obs)
        lm = rng.integers(0, n_lm, n_obs)
        cols = np.array([rng.choice(n_dense, 3, replace=False)
                         for _ in range(n_obs)])
        cols[::4, 0] = -1
        r = rng.normal(size=(n_obs, 2))
        jac_d = rng.normal(size=(n_obs, 2, 3))
        jac_l = rng.normal(size=(n_obs, 2, 3))
        rows = rng.random(n_obs) < 0.5
        plans = (nls.scatter_plan(block, cols, k, n_dense, lm, n_lm)[rows],
                 nls.scatter_plan(block[rows], cols[rows], k, n_dense,
                                  lm[rows], n_lm))
        schur = [nls.SchurNormalEquations(n_dense, n_lm, n_blocks=k)
                 for _ in plans]
        dense = [nls.DenseNormalEquations(n_dense, k) for _ in plans]
        for plan, s_eq, d_eq in zip(plans, schur, dense):
            s_eq.add_batch(nls.RowBatch(r[rows], jac_d[rows], plan, 1.0,
                                        lm_jac=jac_l[rows],
                                        block=block[rows]))
            d_eq.add_batch(nls.RowBatch(r[rows], jac_d[rows], plan,
                                        block=block[rows]))
        for name in ("h_dd", "g_d", "h_ll", "g_l", "h_dl", "cost"):
            assert np.array_equal(getattr(schur[0], name),
                                  getattr(schur[1], name))
        assert np.array_equal(dense[0].h_mat, dense[1].h_mat)
        assert np.array_equal(dense[0].grad, dense[1].grad)
        assert schur[0].h_dd.any() and schur[0].h_dl.any()

    def test_gradient_norm_matches(self):
        rng = np.random.default_rng(25)
        obs = self.build_problem(rng)
        schur, dense = self.assemble(obs, 7, 12)
        assert schur.gradient_norm == pytest.approx(dense.gradient_norm)

    def test_unobserved_landmark_still_solvable(self):
        # damping keeps an empty landmark block invertible
        schur = nls.SchurNormalEquations(2, 2)
        schur.add_batch(nls.RowBatch(
            np.ones((1, 2)), np.eye(2)[None],
            one_block_plan(1, np.arange(2), 2, np.array([0]), 2),
            lm_jac=np.ones((1, 2, 3))))
        step = flat_step(schur, 1e-4)
        assert step is not None and len(step) == 8
        assert np.allclose(step[5:], 0.0)

    def test_batch_cost_matches_accumulated_cost(self):
        rng = np.random.default_rng(26)
        batches = [nls.RowBatch(rng.normal(size=(5, 2)),
                                rng.normal(size=(5, 2, 3)),
                                one_block_plan(5, np.arange(3), 3), delta,
                                tag)
                   for delta, tag in ((None, "a"), (0.5, "b"), (2.0, "a"))]
        eq = nls.DenseNormalEquations(3)
        for batch in batches:
            eq.add_batch(batch)
        terms = nls.batch_cost(batches)
        assert terms.cost[0] == eq.cost[0]
        assert terms.cost_by_tag == eq.cost_by_tag
        assert eq.cost_by_tag["a"] + eq.cost_by_tag["b"] == \
            pytest.approx(eq.cost)
