"""Convenience layer for solving batches of structured problems with TRON.

The ADMM branch update builds one :class:`BatchProblem` per ADMM iteration
(the objective coefficients change, the structure does not) and hands it to
:func:`solve_batch`.  Two backends are provided:

* ``"batched"`` — the vectorised solver, the analogue of launching one GPU
  thread block per problem (the paper's execution model);
* ``"loop"`` — a reference backend solving one problem at a time with the
  same algorithm, useful for debugging and for the backend-equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.exceptions import ConfigurationError
from repro.tron.driver import TronResult, combine_derivatives, tron_solve_batch
from repro.tron.options import TronOptions

BACKENDS = ("batched", "loop")


class BatchProblem(Protocol):
    """A batch of independent bound-constrained problems of equal dimension.

    Problems may additionally implement ``select(index) -> BatchProblem``
    returning a one-problem view; the ``"loop"`` backend then evaluates each
    problem on a single-row slice instead of tiling the query point across
    the whole batch (which costs O(B) redundant work per callback).

    Problems may also implement ``select_rows(indices) -> BatchProblem``
    returning a packed view of an arbitrary row subset.  The batched backend
    then stream-compacts: once most problems have converged, the TRON driver
    gathers the active rows, evaluates the callbacks on the packed
    sub-batch, and scatters results back — bitwise identical to the full
    sweep because the callbacks must be row-separable (each problem's
    values independent of which other rows share the batch).

    Problems may finally implement ``derivatives(x) -> (gradient, hessian)``
    computing both from one evaluation; the driver then makes one
    derivative call per accepted step instead of two.
    """

    lb: np.ndarray
    ub: np.ndarray

    def objective(self, x: np.ndarray) -> np.ndarray:
        """Objective values, shape ``(B,)`` for points ``(B, n)``."""

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradients, shape ``(B, n)``."""

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Dense Hessians, shape ``(B, n, n)``."""


@dataclass(frozen=True)
class QuadraticBatchProblem:
    """Batch of quadratics ``½ xᵀQx - cᵀx`` with box constraints.

    Mostly used in tests and as the simplest example of the
    :class:`BatchProblem` protocol.
    """

    q: np.ndarray
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def objective(self, x: np.ndarray) -> np.ndarray:
        qx = np.einsum("bij,bj->bi", self.q, x)
        return 0.5 * np.einsum("bi,bi->b", x, qx) - np.einsum("bi,bi->b", self.c, x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("bij,bj->bi", self.q, x) - self.c

    def hessian(self, x: np.ndarray) -> np.ndarray:
        # Read-only broadcast view: the solver never mutates Hessians, so
        # there is no reason to materialise a fresh (B, n, n) copy per call.
        return np.broadcast_to(self.q, x.shape + (x.shape[-1],))

    def select(self, index: int) -> "QuadraticBatchProblem":
        """One-problem view (single-row evaluation in the loop backend)."""
        sl = slice(index, index + 1)
        return QuadraticBatchProblem(q=self.q[sl], c=self.c[sl],
                                     lb=self.lb[sl], ub=self.ub[sl])

    def select_rows(self, indices: np.ndarray) -> "QuadraticBatchProblem":
        """Packed row-subset view (stream compaction in the batched backend)."""
        indices = np.asarray(indices, dtype=int)
        return QuadraticBatchProblem(q=self.q[indices], c=self.c[indices],
                                     lb=self.lb[indices], ub=self.ub[indices])


def solve_batch(problem: BatchProblem, x0: np.ndarray,
                options: TronOptions | None = None,
                backend: str = "batched",
                kernel_backend=None) -> TronResult:
    """Solve every problem in the batch and return the stacked result.

    ``backend`` picks the execution *strategy* (vectorised vs one-problem
    loop); ``kernel_backend`` picks the kernel *implementation* the driver's
    dense products and compaction gathers run with (a
    :class:`~repro.parallel.backends.base.KernelBackend` or registered
    name; ``None`` resolves the ``REPRO_BACKEND`` environment default).
    """
    if backend not in BACKENDS:
        raise ConfigurationError(f"unknown TRON backend {backend!r}; choose from {BACKENDS}")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if backend == "batched":
        row_view = getattr(problem, "select_rows", None)
        select_rows = None
        if row_view is not None:
            def select_rows(indices: np.ndarray):
                sub = row_view(indices)
                return sub.objective, _derivatives(sub)
        return tron_solve_batch(problem.objective, problem.gradient, problem.hessian,
                                x0, problem.lb, problem.ub, options,
                                select_rows=select_rows,
                                kernel_backend=kernel_backend,
                                derivatives=_derivatives(problem))

    # Loop backend: run the same algorithm one problem at a time.
    batch = x0.shape[0]
    xs, fs, pgs, its, conv = [], [], [], [], []
    total_feval = 0
    lb = np.broadcast_to(problem.lb, x0.shape)
    ub = np.broadcast_to(problem.ub, x0.shape)
    select = getattr(problem, "select", None)
    for b in range(batch):
        idx = slice(b, b + 1)

        if select is not None:
            # Single-row evaluation: the problem can slice its own data, so
            # each callback costs O(1) instead of O(B) tiled work.
            single = select(b)
            obj, grad, hess = single.objective, single.gradient, single.hessian
            deriv = _derivatives(single)
        else:
            def obj(x: np.ndarray, _i=b) -> np.ndarray:
                return _call_single(problem.objective, x, _i, batch)

            def grad(x: np.ndarray, _i=b) -> np.ndarray:
                return _call_single(problem.gradient, x, _i, batch)

            def hess(x: np.ndarray, _i=b) -> np.ndarray:
                return _call_single(problem.hessian, x, _i, batch)

            deriv = None

        res = tron_solve_batch(obj, grad, hess, x0[idx], lb[idx], ub[idx], options,
                               kernel_backend=kernel_backend, derivatives=deriv)
        xs.append(res.x[0])
        fs.append(res.f[0])
        pgs.append(res.projected_gradient_norm[0])
        its.append(res.iterations[0])
        conv.append(res.converged[0])
        total_feval += res.function_evaluations
    return TronResult(x=np.stack(xs), f=np.array(fs),
                      projected_gradient_norm=np.array(pgs),
                      iterations=np.array(its), converged=np.array(conv),
                      function_evaluations=total_feval)


def _derivatives(problem):
    """The problem's fused ``derivatives`` callback, or one built from its
    ``gradient`` and ``hessian``."""
    return (getattr(problem, "derivatives", None)
            or combine_derivatives(problem.gradient, problem.hessian))


def _call_single(fn, x: np.ndarray, index: int, batch: int) -> np.ndarray:
    """Evaluate a batched callback for a single problem (tiling fallback).

    The callbacks of a :class:`BatchProblem` expect a full batch; when the
    problem offers no ``select`` view, the only way to evaluate problem
    ``index`` alone is to tile the query point across the batch axis and
    slice the result — O(B) redundant work per callback, kept purely as the
    fallback for problems whose arrays cannot be sliced.
    """
    tiled = np.repeat(x, batch, axis=0)
    out = np.asarray(fn(tiled))
    return out[index:index + 1]
