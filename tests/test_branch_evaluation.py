"""Closed-form branch evaluation and the TRON driver's derivative calls.

* The closed-form objective, gradient and Hessian of
  :class:`~repro.admm.branch_update.BranchObjective` are checked against a
  term-by-term assembly that exists only here: every consensus and
  line-limit term ``φ(c) = a·c + (b/2)·c²`` is added with its own gradient
  and Hessian.  Near the optimum the gradient is a cancellation of large
  terms, so the tolerance is scaled per entry by the magnitude of the summed
  terms (the same assembly with every input and sign made non-negative).
* Row-subset views evaluate bit for bit like the matching full-batch rows,
  whatever the subset width (stream compaction relies on it).
* The driver makes at most one derivative call per TRON step, on the
  accepted rows only, and none when no row is accepted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.admm.branch_update import build_branch_objective
from repro.admm.data import ComponentData
from repro.admm.parameters import AdmmParameters
from repro.admm.state import cold_start_state
from repro.grid.synthetic import make_synthetic_grid
from repro.tron.batch import QuadraticBatchProblem, solve_batch
from repro.tron.options import TronOptions

FLOWS = ("pij", "qij", "pji", "qji")


# --------------------------------------------------------------------- #
# Term-by-term reference assembly                                        #
# --------------------------------------------------------------------- #
def _reference(data, state, u, magnitude=False):
    """``(f, grad, hess)`` summed term by term.

    ``magnitude=True`` evaluates the same sums with every input, every
    coefficient and every sign made non-negative: the result bounds the
    terms each entry is summed from, which is what rounding scales with.
    """
    a = np.abs if magnitude else (lambda x: x)
    sgn = 1.0 if magnitude else -1.0          # replaces every minus sign

    def minus(x, y):
        return a(x) + sgn * a(y)

    vi, vj, ti, tj, sij, sji = (a(col) for col in u.T)
    batch = u.shape[0]
    fb, tb = data.branch_from, data.branch_to
    d = u[:, 2] - u[:, 3]
    cos, sin = a(np.cos(d)), a(np.sin(d))

    f = np.zeros(batch)
    grad = np.zeros((batch, 6))
    hess = np.zeros((batch, 6, 6))

    def add(c, c_grad, c_hess, mult, pen):
        nonlocal f, grad, hess
        phi = mult + pen * c
        f = f + mult * c + 0.5 * pen * c * c
        grad = grad + phi[:, None] * c_grad
        hess = (hess + pen[:, None, None] * c_grad[:, :, None] * c_grad[:, None, :]
                + phi[:, None, None] * c_hess)

    def unit(k, scale=1.0):
        e = np.zeros((batch, 6))
        e[:, k] = scale
        return e

    flows = {}
    for name, coeff in zip(FLOWS, data.quantities.as_tuple()):
        ki, kj, ac, as_ = a(coeff.k_i), a(coeff.k_j), a(coeff.a_c), a(coeff.a_s)
        trig = ac * cos + as_ * sin
        dtrig = sgn * ac * sin + as_ * cos
        value = ki * vi * vi + kj * vj * vj + vi * vj * trig
        g = np.zeros((batch, 6))
        g[:, 0] = 2.0 * ki * vi + vj * trig
        g[:, 1] = 2.0 * kj * vj + vi * trig
        g[:, 2] = vi * vj * dtrig
        g[:, 3] = sgn * vi * vj * dtrig
        h = np.zeros((batch, 6, 6))
        h[:, 0, 0], h[:, 1, 1] = 2.0 * ki, 2.0 * kj
        h[:, 0, 1] = h[:, 1, 0] = trig
        h[:, 0, 2] = h[:, 2, 0] = vj * dtrig
        h[:, 0, 3] = h[:, 3, 0] = sgn * vj * dtrig
        h[:, 1, 2] = h[:, 2, 1] = vi * dtrig
        h[:, 1, 3] = h[:, 3, 1] = sgn * vi * dtrig
        h[:, 2, 2] = h[:, 3, 3] = sgn * vi * vj * trig
        h[:, 2, 3] = h[:, 3, 2] = vi * vj * trig
        flows[name] = (value, g, h)

    rho = {group: np.broadcast_to(data.rho[group], (batch,)) for group in data.rho}
    bus_side = {"pij": state.pij_copy, "qij": state.qij_copy,
                "pji": state.pji_copy, "qji": state.qji_copy}
    for name in FLOWS:
        value, g, h = flows[name]
        target = minus(bus_side[name], state.z[name])
        add(minus(value, target), g, h, a(state.y[name]), rho[name])

    for group, var, bus in (("wi", 0, fb), ("wj", 1, tb)):
        v = vi if var == 0 else vj
        target = minus(state.w[bus], state.z[group])
        h = np.zeros((batch, 6, 6))
        h[:, var, var] = 2.0
        add(minus(v * v, target), unit(var, 2.0 * v), h, a(state.y[group]), rho[group])
    for group, var, bus in (("ti", 2, fb), ("tj", 3, tb)):
        theta = ti if var == 2 else tj
        target = minus(state.theta[bus], state.z[group])
        add(minus(theta, target), unit(var), np.zeros((batch, 6, 6)),
            a(state.y[group]), rho[group])

    on = data.branch_has_limit.astype(float)
    rt = a(state.rho_tilde * on)
    for (p, q), s, k, lam in ((("pij", "qij"), sij, 4, state.lam_sij),
                              (("pji", "qji"), sji, 5, state.lam_sji)):
        (pv, pg, ph), (qv, qg, qh) = flows[p], flows[q]
        c_grad = 2.0 * pv[:, None] * pg + 2.0 * qv[:, None] * qg + unit(k)
        c_hess = 2.0 * (pg[:, :, None] * pg[:, None, :] + pv[:, None, None] * ph
                        + qg[:, :, None] * qg[:, None, :] + qv[:, None, None] * qh)
        add(pv * pv + qv * qv + s, c_grad, c_hess, a(lam * on), rt)
    return f, grad, hess


def _perturbed_state(data, rng, scale):
    """A cold state with nonzero multipliers, z, ρ̃ and line-limit λ̃."""
    state = cold_start_state(data)
    for group in state.y:
        state.y[group] = rng.normal(scale=scale, size=state.y[group].shape)
        state.z[group] = rng.normal(scale=0.05, size=state.z[group].shape)
    n = data.n_branch
    state.lam_sij = rng.normal(scale=scale, size=n)
    state.lam_sji = rng.normal(scale=scale, size=n)
    state.rho_tilde = rng.uniform(1.0, 1e3, size=n)
    return state


def _grid(name):
    if name == "case9":
        from repro.grid.cases import load_case
        return load_case("case9")
    return make_synthetic_grid(n_bus=1354, n_gen=260, n_branch=1991,
                               style="pegase", seed=11)


@pytest.fixture(scope="module", params=["case9", "synthetic1354"])
def branch_case(request):
    data = ComponentData.from_network(_grid(request.param), AdmmParameters())
    # Unrate a third of the branches: their limit terms must vanish.
    data.branch_has_limit = data.branch_has_limit.copy()
    data.branch_has_limit[::3] = False
    assert data.branch_has_limit.any() and (~data.branch_has_limit).any()
    rng = np.random.default_rng(2024)
    state = _perturbed_state(data, rng, scale=10.0)
    objective = build_branch_objective(data, state)
    u = np.column_stack([state.vi, state.vj, state.ti, state.tj, state.sij, state.sji])
    u = u + rng.normal(scale=0.05, size=u.shape)
    u[:, 4:] = -rng.uniform(0.0, 1.0, size=(u.shape[0], 2))
    return data, state, objective, u


class TestClosedFormAgainstTermByTerm:
    RTOL = 1e-14

    def _check(self, new, ref, mag):
        scale = self.RTOL * (mag + 1e-300)
        assert np.all(np.abs(new - ref) <= scale), float(np.max(np.abs(new - ref) / scale))

    def test_objective(self, branch_case):
        data, state, objective, u = branch_case
        ref, _, _ = _reference(data, state, u)
        mag, _, _ = _reference(data, state, u, magnitude=True)
        self._check(objective.objective(u), ref, mag)

    def test_gradient_and_hessian(self, branch_case):
        data, state, objective, u = branch_case
        _, g_ref, h_ref = _reference(data, state, u)
        _, g_mag, h_mag = _reference(data, state, u, magnitude=True)
        grad, hess = objective.derivatives(u)
        self._check(grad, g_ref, g_mag)
        self._check(hess, h_ref, h_mag)
        assert np.array_equal(objective.gradient(u), grad)
        assert np.array_equal(objective.hessian(u), hess)
        assert np.array_equal(hess, hess.transpose(0, 2, 1))

    def test_unrated_branches_ignore_limit_state(self, branch_case):
        data, state, objective, u = branch_case
        free = ~data.branch_has_limit
        # The slack of an unrated branch appears in no term at all.
        grad, hess = objective.derivatives(u)
        assert np.all(grad[free][:, 4:] == 0.0)
        assert np.all(hess[free][:, 4:, :] == 0.0)
        c_ij, c_ji = objective.limit_residuals(u)
        assert np.all(c_ij[free] == 0.0) and np.all(c_ji[free] == 0.0)

    def test_limit_residuals(self, branch_case):
        data, state, objective, u = branch_case
        from repro.powerflow.branch_derivatives import all_flow_values
        pij, qij, pji, qji = all_flow_values(data.quantities, *u[:, :4].T)
        c_ij, c_ji = objective.limit_residuals(u)
        rated = data.branch_has_limit
        assert np.allclose(c_ij[rated], (pij ** 2 + qij ** 2 + u[:, 4])[rated])
        assert np.allclose(c_ji[rated], (pji ** 2 + qji ** 2 + u[:, 5])[rated])


class TestRowSeparability:
    @pytest.mark.parametrize("pick", ["single", "first", "last", "subset", "reversed"])
    def test_select_rows_is_bitwise_the_full_batch_rows(self, branch_case, pick):
        _, _, objective, u = branch_case
        n = u.shape[0]
        idx = {"single": np.array([n // 2]), "first": np.array([0]),
               "last": np.array([n - 1]),
               "subset": np.arange(0, n, 3),
               "reversed": np.arange(n)[::-1]}[pick]
        view = objective.select_rows(idx)
        full_g, full_h = objective.derivatives(u)
        sub_g, sub_h = view.derivatives(u[idx])
        assert np.array_equal(view.objective(u[idx]), objective.objective(u)[idx])
        assert np.array_equal(sub_g, full_g[idx])
        assert np.array_equal(sub_h, full_h[idx])
        for c_sub, c_full in zip(view.limit_residuals(u[idx]),
                                 objective.limit_residuals(u)):
            assert np.array_equal(c_sub, c_full[idx])


# --------------------------------------------------------------------- #
# Derivative calls of the TRON driver                                    #
# --------------------------------------------------------------------- #
class _CountingProblem:
    """Row-sliceable quadratic batch that logs every callback.

    Each event is ``(kind, absolute_rows, points)``.  ``reject_trials``
    makes that many trial-point objective calls (after the initial one)
    return ``inf``, so the driver must reject those steps for every row.
    """

    def __init__(self, problem, reject_trials=0):
        self._problem = problem
        self.lb, self.ub = problem.lb, problem.ub
        self.events = []
        self._reject = reject_trials

    def _objective(self, rows, x):
        self.events.append(("objective", rows, x.copy()))
        values = self._problem.select_rows(rows).objective(x)
        if len(self.events) > 2 and self._reject > 0:
            self._reject -= 1
            return np.full(x.shape[0], np.inf)
        return values

    def _derivatives(self, rows, x):
        self.events.append(("derivatives", rows, x.copy()))
        sub = self._problem.select_rows(rows)
        return sub.gradient(x), sub.hessian(x)

    def _view(self, rows):
        owner = self

        class View:
            lb, ub = self.lb[rows], self.ub[rows]

            def objective(self, x):
                return owner._objective(rows, x)

            def derivatives(self, x):
                return owner._derivatives(rows, x)

            def gradient(self, x):
                raise AssertionError("the driver must use the fused derivatives call")

            hessian = gradient
        return View()

    def objective(self, x):
        return self._view(np.arange(x.shape[0])).objective(x)

    def derivatives(self, x):
        return self._view(np.arange(x.shape[0])).derivatives(x)

    def gradient(self, x):
        raise AssertionError("the driver must use the fused derivatives call")

    hessian = gradient

    def select_rows(self, indices):
        return self._view(np.asarray(indices, dtype=int))


def _qp_batch(rng, batch=40, n=5):
    mats = []
    for b in range(batch):
        m = rng.normal(size=(n, n))
        mats.append(m @ m.T + (0.05 + 10.0 * (b % 4 == 0)) * np.eye(n))
    bound = np.ones((batch, n))
    return QuadraticBatchProblem(np.stack(mats), rng.normal(size=(batch, n)),
                                 -bound, bound)


OPTIONS = TronOptions(compaction_threshold=0.9, compaction_min_batch=4)


class TestDriverDerivativeCalls:
    def _solve(self, rng, monkeypatch, reject_trials=0):
        monkeypatch.setenv("REPRO_COMPACTION", "1")
        inner = _qp_batch(rng)
        problem = _CountingProblem(inner, reject_trials=reject_trials)
        x0 = rng.uniform(-1, 1, inner.c.shape)
        result = solve_batch(problem, x0, options=OPTIONS)
        return inner, problem, x0, result

    def test_one_derivative_call_per_step_on_accepted_rows(self, rng, monkeypatch):
        inner, problem, x0, result = self._solve(rng, monkeypatch)
        events = problem.events
        kinds = [kind for kind, _, _ in events]
        assert kinds[:2] == ["objective", "derivatives"]
        # Where each row's derivatives were last evaluated.
        at = x0.clip(inner.lb, inner.ub)
        for previous, current in zip(events[1:], events[2:]):
            if current[0] != "derivatives":
                continue
            # At most one derivative call per step, right after its trial.
            assert previous[0] == "objective"
            trial_rows, trial_x = previous[1], previous[2]
            rows, x = current[1], current[2]
            assert rows.size > 0
            position = {row: k for k, row in enumerate(trial_rows)}
            assert all(row in position for row in rows)
            # Evaluated at the accepted trial points, which moved.
            assert np.array_equal(x, trial_x[[position[row] for row in rows]])
            assert np.all(np.any(x != at[rows], axis=1))
            at[rows] = x
        # Every row's final point is the last point its derivatives saw.
        assert np.array_equal(result.x, at)
        # Steps = trial objective calls; most steps rejected some rows.
        n_steps = kinds.count("objective") - 1
        n_deriv = kinds.count("derivatives") - 1
        assert 0 < n_deriv <= n_steps
        assert any(rows.size < trial[1].size for trial, (kind, rows, _)
                   in zip(events[1:], events[2:]) if kind == "derivatives")

    def test_no_derivative_call_when_no_row_is_accepted(self, rng, monkeypatch):
        _, problem, _, result = self._solve(rng, monkeypatch, reject_trials=2)
        kinds = [kind for kind, _, _ in problem.events]
        # initial pair, then two rejected trials with no derivative call
        assert kinds[:4] == ["objective", "derivatives", "objective", "objective"]
        assert kinds[4] == "objective"
        assert result.iterations.min() >= 3

    def test_matches_separate_gradient_and_hessian_bitwise(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_COMPACTION", "1")
        inner = _qp_batch(rng)
        x0 = rng.uniform(-1, 1, inner.c.shape)
        fused = solve_batch(_CountingProblem(inner), x0, options=OPTIONS)
        plain = solve_batch(inner, x0, options=OPTIONS)
        assert np.array_equal(fused.x, plain.x)
        assert np.array_equal(fused.iterations, plain.iterations)
        assert fused.function_evaluations == plain.function_evaluations
