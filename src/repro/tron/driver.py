"""Batched TRON driver (trust-region Newton for bound-constrained problems).

One call advances an entire batch of independent small problems to
convergence, mirroring ExaTron's one-thread-block-per-problem execution: the
batch axis of every array plays the role of the CUDA grid, and per-problem
control flow (convergence, step acceptance, trust-region updates) is realised
with boolean masks.

The algorithm per problem and iteration is the TRON scheme of Lin & Moré:

1. stop if the projected gradient is small;
2. compute a Cauchy point along the projected steepest-descent path;
3. refine within the free subspace by Steihaug CG, following negative
   curvature to the trust-region boundary;
4. apply a projected (feasibility-preserving) step back into the box;
5. accept/reject by comparing actual to predicted reduction, and update the
   trust-region radius.

**Stream compaction.**  Problems converge at very different iteration
counts, so late iterations of a plain batched sweep spend most of their
width on rows that stopped moving long ago.  When the caller supplies
``select_rows`` (row-sliced callbacks, see :func:`tron_solve_batch`), the
driver gathers the still-active rows into a dense *working set* once their
fraction drops below :attr:`~repro.tron.options.TronOptions.compaction_threshold`,
sweeps only the packed rows, and scatters the results back — every kernel in
the loop is row-separable, so the packed trajectory is bitwise identical to
the full-batch one.

**Derivatives on accepted rows only.**  The driver keeps its own gradient
and Hessian per problem.  A step evaluates the objective at the trial point
and then, only for the rows whose step was accepted, the gradient and
Hessian together through one ``derivatives`` call; rejected and converged
rows keep theirs, because their ``x`` did not move.  For row-separable
callbacks this is bitwise the same as re-evaluating every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import DimensionError
from repro.parallel.backends import get_backend
from repro.parallel.compaction import ActiveSet, compaction_enabled
from repro.tron.cauchy import cauchy_point, _quadratic_model
from repro.tron.cg import steihaug_cg
from repro.tron.options import TronOptions
from repro.tron.projection import (
    free_variable_mask,
    max_feasible_step,
    project,
    projected_gradient_norm,
)

#: Callback signatures: each maps a batch of points ``(B, n)`` to objective
#: values ``(B,)``, gradients ``(B, n)``, and Hessians ``(B, n, n)``.
ObjectiveFn = Callable[[np.ndarray], np.ndarray]
GradientFn = Callable[[np.ndarray], np.ndarray]
HessianFn = Callable[[np.ndarray], np.ndarray]

#: Fused derivative callback: maps points ``(B, n)`` to the pair (gradients
#: ``(B, n)``, Hessians ``(B, n, n)``) from one evaluation.
DerivativesFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

#: Row-slicing hook: maps absolute row indices to (objective, derivatives)
#: callbacks over the packed sub-batch of exactly those rows.
SelectRowsFn = Callable[[np.ndarray], tuple[ObjectiveFn, DerivativesFn]]


def combine_derivatives(gradient: GradientFn, hessian: HessianFn) -> DerivativesFn:
    """A derivatives callback for problems without a fused evaluation."""
    return lambda x: (gradient(x), hessian(x))


@dataclass
class TronResult:
    """Result of a batched TRON solve."""

    x: np.ndarray
    f: np.ndarray
    projected_gradient_norm: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    function_evaluations: int

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))


def tron_solve_batch(objective: ObjectiveFn, gradient: GradientFn, hessian: HessianFn,
                     x0: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                     options: TronOptions | None = None,
                     select_rows: SelectRowsFn | None = None,
                     kernel_backend=None,
                     derivatives: DerivativesFn | None = None) -> TronResult:
    """Solve a batch of bound-constrained problems with TRON.

    Parameters
    ----------
    objective, gradient, hessian:
        Batched callbacks (see module docstring).  Without ``select_rows``
        they are always called on the full batch; converged problems simply
        stop moving, which mirrors the lock-step execution of a GPU kernel.
        ``gradient`` and ``hessian`` are used only when ``derivatives`` is
        omitted.
    x0:
        Starting points ``(B, n)`` (projected onto the box before use).
    lb, ub:
        Bounds ``(B, n)``; equal entries pin a variable.
    options:
        :class:`TronOptions`; defaults are used when omitted.
    select_rows:
        Optional row-slicing hook enabling stream compaction: called with an
        array of absolute row indices, it must return ``(objective,
        derivatives)`` callbacks that evaluate exactly those problems as a
        packed sub-batch.  Callbacks obtained this way must be
        row-separable (problem ``i``'s values independent of the other rows
        in the batch) so that packed sweeps reproduce full sweeps bitwise.
    kernel_backend:
        :class:`~repro.parallel.backends.base.KernelBackend` (or registered
        name) executing the driver's dense batched products, the Cauchy/CG
        subproblems, and the compaction gathers/scatters; ``None`` resolves
        the ``REPRO_BACKEND`` environment default (the NumPy oracle).
    derivatives:
        Optional fused callback returning ``(gradient, hessian)`` from one
        evaluation; defaults to calling ``gradient`` and ``hessian``.
    """
    if derivatives is None:
        derivatives = combine_derivatives(gradient, hessian)
    options = options or TronOptions()
    options.validate()
    kb = get_backend(kernel_backend)

    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    lb = np.broadcast_to(np.asarray(lb, dtype=float), x0.shape)
    ub = np.broadcast_to(np.asarray(ub, dtype=float), x0.shape)
    if np.any(lb > ub):
        raise DimensionError("lower bounds exceed upper bounds")
    batch, n = x0.shape
    max_cg = options.max_cg_iter or (n + 1)

    x = project(x0, lb, ub)
    # Copies, not views: callbacks may return shared or read-only buffers,
    # and the driver updates these arrays in place row by row.
    f = np.array(objective(x), dtype=float)
    g, hess = derivatives(x)
    g = np.array(g, dtype=float)
    hess = np.array(hess, dtype=float)
    n_feval = 1

    gnorm0 = np.linalg.norm(g, axis=-1)
    delta = np.full(batch, options.delta_init) if options.delta_init else np.where(
        gnorm0 > 0, gnorm0, 1.0)
    delta = np.minimum(delta, options.delta_max)

    iterations = np.zeros(batch, dtype=int)
    pgnorm = projected_gradient_norm(x, g, lb, ub)
    converged = pgnorm <= options.gtol

    # Row-sliced evaluation pays off only when slicing is available and the
    # batch is wide enough for the saved sweep to beat the gather overhead.
    # ``compaction_threshold = 0`` (like ``REPRO_COMPACTION=0``) disables the
    # whole path — including accepted-row gradient slicing — so a disabled
    # run really is the plain full-batch sweep.
    compact_ok = (select_rows is not None and options.compaction_threshold > 0.0
                  and batch >= options.compaction_min_batch and compaction_enabled())

    # Stream-compaction window.  While ``window`` is engaged the loop names
    # (x, f, g, ...) hold the packed working set and ``resident`` holds the
    # full-batch arrays; ``window is None`` means they are one and the same.
    window: ActiveSet | None = None
    resident: tuple[np.ndarray, ...] | None = None
    lb_w, ub_w = lb, ub
    obj_fn, deriv_fn = objective, derivatives

    def flush() -> None:
        """Scatter the packed working arrays back into the resident ones."""
        for target, values in zip(resident, (x, f, g, hess, delta, iterations,
                                             converged, pgnorm)):
            window.scatter(target, values)

    for _ in range(options.max_iter):
        active = ~converged
        n_active = int(active.sum())
        if n_active == 0:
            break

        if (compact_ok and n_active < active.shape[0]
                and n_active <= options.compaction_threshold * active.shape[0]):
            # Compact: gather the active rows into a dense sub-batch.  Rows
            # left behind are converged and final; rows in the new window
            # continue exactly the trajectory they were on.
            if window is None:
                resident = (x, f, g, hess, delta, iterations, converged, pgnorm)
                window = ActiveSet.from_mask(active, backend=kb)
            else:
                flush()
                window = window.refine(active)
            x, f, g, hess, delta, iterations, converged, pgnorm = (
                window.gather(r) for r in resident)
            lb_w, ub_w = lb[window.indices], ub[window.indices]
            obj_fn, deriv_fn = select_rows(window.indices)
            active = np.ones(window.size, dtype=bool)

        # --- Cauchy point -------------------------------------------------
        s_cauchy, _ = cauchy_point(x, g, hess, delta, lb_w, ub_w,
                                   mu0=options.mu0, max_steps=options.cauchy_max_steps,
                                   backend=kb)
        x_cauchy = project(x + s_cauchy, lb_w, ub_w)
        s_cauchy = x_cauchy - x

        # --- CG refinement on the free subspace ---------------------------
        model_grad = g + kb.batched_matvec(hess, s_cauchy)
        free = free_variable_mask(x_cauchy, model_grad, lb_w, ub_w)
        radius_left = np.maximum(delta - np.linalg.norm(s_cauchy, axis=-1), 0.0)
        cg = steihaug_cg(hess, -model_grad, radius_left, free,
                         tol=options.cg_tol, max_iter=max_cg, backend=kb)

        # --- projected step back into the box ------------------------------
        step_len = max_feasible_step(x_cauchy, cg.step, lb_w, ub_w, cap=1.0)
        s = s_cauchy + step_len[..., None] * cg.step
        x_trial = project(x + s, lb_w, ub_w)
        s = x_trial - x

        predicted = -_quadratic_model(g, hess, s, backend=kb)
        f_trial = np.asarray(obj_fn(x_trial), dtype=float)
        n_feval += 1
        actual = f - f_trial
        safe_pred = np.where(np.abs(predicted) > 1e-300, predicted, 1e-300)
        ratio = actual / safe_pred
        degenerate = predicted <= 0

        accept = active & ~degenerate & (ratio > options.eta0) & np.isfinite(f_trial)

        # --- trust-region update -------------------------------------------
        s_norm = np.linalg.norm(s, axis=-1)
        shrink = active & (degenerate | (ratio <= options.eta1) | ~np.isfinite(f_trial))
        grow = active & ~degenerate & (ratio >= options.eta2) & np.isfinite(f_trial)
        delta = np.where(shrink, np.maximum(options.sigma1 * np.minimum(s_norm, delta),
                                            1e-12), delta)
        delta = np.where(grow, np.minimum(options.sigma3 * delta, options.delta_max), delta)

        # --- commit accepted steps -----------------------------------------
        if accept.any():
            x = np.where(accept[..., None], x_trial, x)
            f = np.where(accept, f_trial, f)
            accepted_rows = np.flatnonzero(accept)
            if compact_ok and accepted_rows.size < x.shape[0]:
                # Only the accepted rows moved, so only they need fresh
                # derivatives; rejected/converged rows keep theirs bit for bit.
                absolute = (window.indices[accepted_rows] if window is not None
                            else accepted_rows)
                _, deriv_rows = select_rows(absolute)
                g[accepted_rows], hess[accepted_rows] = deriv_rows(x[accepted_rows])
            else:
                g_new, hess_new = deriv_fn(x)
                np.copyto(g, g_new, where=accept[..., None])
                np.copyto(hess, hess_new, where=accept[..., None, None])

        iterations = iterations + active.astype(int)
        pgnorm = projected_gradient_norm(x, g, lb_w, ub_w)
        small_model = active & (predicted > 0) & (predicted <= options.frtol * (1.0 + np.abs(f)))
        tiny_radius = active & (delta <= 1e-11)
        converged = converged | (pgnorm <= options.gtol) | small_model | tiny_radius

    if window is not None:
        flush()
        x, f, g, hess, delta, iterations, converged, pgnorm = resident

    return TronResult(x=x, f=f, projected_gradient_norm=pgnorm,
                      iterations=iterations, converged=converged | (pgnorm <= options.gtol),
                      function_evaluations=n_feval)


def tron_solve(objective: Callable[[np.ndarray], float],
               gradient: Callable[[np.ndarray], np.ndarray],
               hessian: Callable[[np.ndarray], np.ndarray],
               x0: np.ndarray, lb: np.ndarray, ub: np.ndarray,
               options: TronOptions | None = None) -> TronResult:
    """Single-problem convenience wrapper around :func:`tron_solve_batch`.

    The callbacks take and return unbatched arrays (``(n,)`` points, scalar
    objective, ``(n, n)`` Hessian).
    """
    x0 = np.asarray(x0, dtype=float)

    def batched_obj(xs: np.ndarray) -> np.ndarray:
        return np.array([objective(row) for row in xs])

    def batched_grad(xs: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(gradient(row), dtype=float) for row in xs])

    def batched_hess(xs: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(hessian(row), dtype=float) for row in xs])

    result = tron_solve_batch(batched_obj, batched_grad, batched_hess,
                              x0[None, :], lb[None, :], ub[None, :], options)
    return TronResult(x=result.x[0], f=result.f[0],
                      projected_gradient_norm=result.projected_gradient_norm[:1][0],
                      iterations=result.iterations[0], converged=result.converged[:1][0],
                      function_evaluations=result.function_evaluations)
