"""Vectorised per-branch flow values, gradients, and Hessians.

Every branch flow quantity used in the paper's formulation (1i)–(1l) has the
common polar form

``flow = K_i v_i^2 + K_j v_j^2 + v_i v_j (a_c cos(θ_i - θ_j) + a_s sin(θ_i - θ_j))``

for constants ``(K_i, K_j, a_c, a_s)`` determined by the branch admittance:

=========  ========  ========  =======  =======
quantity     K_i       K_j      a_c      a_s
=========  ========  ========  =======  =======
``p_ij``    g_ii       0        g_ij     b_ij
``q_ij``   -b_ii       0       -b_ij     g_ij
``p_ji``     0        g_jj      g_ji    -b_ji
``q_ji``     0       -b_jj     -b_ji    -g_ji
=========  ========  ========  =======  =======

This module evaluates the value, the gradient, and the Hessian of each
quantity with respect to the local state ``(v_i, v_j, θ_i, θ_j)`` for a whole
array of branches at once.  It is the single implementation of branch physics
shared by the ADMM branch subproblems (where the batch axis plays the role of
the GPU thread-block grid), the interior-point baseline (where the per-branch
blocks are scattered into sparse constraint Jacobians/Hessians), the Newton
power flow, and the flow-recomputation step of the reported solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.grid.network import Network

#: Order of the local state used by gradients/Hessians produced here.
LOCAL_STATE = ("vi", "vj", "ti", "tj")


@dataclass(frozen=True)
class FlowCoefficients:
    """Coefficients of one flow quantity for an array of branches."""

    k_i: np.ndarray
    k_j: np.ndarray
    a_c: np.ndarray
    a_s: np.ndarray

    def __len__(self) -> int:  # pragma: no cover - trivial
        return self.k_i.shape[0]

    def take(self, idx: np.ndarray) -> "FlowCoefficients":
        """Coefficients restricted to the branches ``idx``."""
        return FlowCoefficients(self.k_i[idx], self.k_j[idx], self.a_c[idx], self.a_s[idx])

    @staticmethod
    def concatenate(parts: "Sequence[FlowCoefficients]") -> "FlowCoefficients":
        """Stack coefficients of several branch sets along the branch axis."""
        return FlowCoefficients(
            np.concatenate([p.k_i for p in parts]),
            np.concatenate([p.k_j for p in parts]),
            np.concatenate([p.a_c for p in parts]),
            np.concatenate([p.a_s for p in parts]))


@dataclass(frozen=True)
class BranchQuantities:
    """The four flow quantities of an array of branches."""

    pij: FlowCoefficients
    qij: FlowCoefficients
    pji: FlowCoefficients
    qji: FlowCoefficients

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self.pij)

    def take(self, idx: np.ndarray) -> "BranchQuantities":
        """Quantities restricted to the branches ``idx``."""
        return BranchQuantities(self.pij.take(idx), self.qij.take(idx),
                                self.pji.take(idx), self.qji.take(idx))

    @staticmethod
    def concatenate(parts: "Sequence[BranchQuantities]") -> "BranchQuantities":
        """Stack quantities of several branch sets (scenario batching)."""
        return BranchQuantities(
            FlowCoefficients.concatenate([p.pij for p in parts]),
            FlowCoefficients.concatenate([p.qij for p in parts]),
            FlowCoefficients.concatenate([p.pji for p in parts]),
            FlowCoefficients.concatenate([p.qji for p in parts]))

    def as_tuple(self) -> tuple[FlowCoefficients, ...]:
        return (self.pij, self.qij, self.pji, self.qji)

    @cached_property
    def stacked(self) -> FlowCoefficients:
        """All four quantities as one set of ``(4, n)`` coefficient arrays.

        Rows follow :meth:`as_tuple`.  The flow formulas broadcast a branch
        array ``(n,)`` against them, so one call evaluates all four flows
        from a single cos/sin of ``θ_i − θ_j``.
        """
        parts = self.as_tuple()
        return FlowCoefficients(*(np.stack([getattr(c, name) for c in parts])
                                  for name in ("k_i", "k_j", "a_c", "a_s")))


def branch_quantities(network: Network) -> BranchQuantities:
    """Build the flow-quantity coefficients for every in-service branch."""
    zeros = np.zeros(network.n_branch)
    pij = FlowCoefficients(network.branch_g_ii.copy(), zeros.copy(),
                           network.branch_g_ij.copy(), network.branch_b_ij.copy())
    qij = FlowCoefficients(-network.branch_b_ii, zeros.copy(),
                           -network.branch_b_ij, network.branch_g_ij.copy())
    pji = FlowCoefficients(zeros.copy(), network.branch_g_jj.copy(),
                           network.branch_g_ji.copy(), -network.branch_b_ji)
    qji = FlowCoefficients(zeros.copy(), -network.branch_b_jj,
                           -network.branch_b_ji, -network.branch_g_ji)
    return BranchQuantities(pij=pij, qij=qij, pji=pji, qji=qji)


def trig_factors(coeff: FlowCoefficients, ti: np.ndarray, tj: np.ndarray,
                 derivative: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Return ``T = a_c cos + a_s sin`` and (optionally) its θ-derivative ``T'``."""
    dij = ti - tj
    cos = np.cos(dij)
    sin = np.sin(dij)
    trig = coeff.a_c * cos + coeff.a_s * sin
    dtrig = -coeff.a_c * sin + coeff.a_s * cos if derivative else None
    return trig, dtrig


def quantity_value(coeff: FlowCoefficients, vi: np.ndarray, vj: np.ndarray,
                   ti: np.ndarray, tj: np.ndarray) -> np.ndarray:
    """Flow value for each branch (vectorised)."""
    trig, _ = trig_factors(coeff, ti, tj, derivative=False)
    return flow_value(coeff, vi, vj, trig)


def flow_value(coeff: FlowCoefficients, vi: np.ndarray, vj: np.ndarray,
               trig: np.ndarray) -> np.ndarray:
    """Flow value from precomputed trigonometric factors ``T``."""
    return coeff.k_i * vi * vi + coeff.k_j * vj * vj + vi * vj * trig


def quantity_value_grad(coeff: FlowCoefficients, vi: np.ndarray, vj: np.ndarray,
                        ti: np.ndarray, tj: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Flow value and gradient w.r.t. ``(vi, vj, ti, tj)``.

    Returns
    -------
    value:
        Array of shape ``(n,)``.
    grad:
        Array of shape ``(n, 4)`` ordered as :data:`LOCAL_STATE`.
    """
    trig, dtrig = trig_factors(coeff, ti, tj)
    value = coeff.k_i * vi * vi + coeff.k_j * vj * vj + vi * vj * trig
    grad = np.empty(vi.shape + (4,))
    grad[..., 0] = 2.0 * coeff.k_i * vi + vj * trig
    grad[..., 1] = 2.0 * coeff.k_j * vj + vi * trig
    grad[..., 2] = vi * vj * dtrig
    grad[..., 3] = -vi * vj * dtrig
    return value, grad


def quantity_value_grad_hess(coeff: FlowCoefficients, vi: np.ndarray, vj: np.ndarray,
                             ti: np.ndarray, tj: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flow value, gradient, and Hessian w.r.t. ``(vi, vj, ti, tj)``.

    The Hessian uses that the second θ-derivative of the trigonometric part
    equals its negative (``T'' = -T``).

    Returns
    -------
    value:
        Shape ``(n,)``.
    grad:
        Shape ``(n, 4)``.
    hess:
        Shape ``(n, 4, 4)``, symmetric in the last two axes.
    """
    trig, dtrig = trig_factors(coeff, ti, tj)
    value = coeff.k_i * vi * vi + coeff.k_j * vj * vj + vi * vj * trig
    grad = np.empty(vi.shape + (4,))
    grad[..., 0] = 2.0 * coeff.k_i * vi + vj * trig
    grad[..., 1] = 2.0 * coeff.k_j * vj + vi * trig
    grad[..., 2] = vi * vj * dtrig
    grad[..., 3] = -vi * vj * dtrig

    hess = np.zeros(vi.shape + (4, 4))
    vivj_trig = vi * vj * trig
    hess[..., 0, 0] = 2.0 * coeff.k_i
    hess[..., 1, 1] = 2.0 * coeff.k_j
    hess[..., 0, 1] = hess[..., 1, 0] = trig
    hess[..., 0, 2] = hess[..., 2, 0] = vj * dtrig
    hess[..., 0, 3] = hess[..., 3, 0] = -vj * dtrig
    hess[..., 1, 2] = hess[..., 2, 1] = vi * dtrig
    hess[..., 1, 3] = hess[..., 3, 1] = -vi * dtrig
    hess[..., 2, 2] = -vivj_trig
    hess[..., 3, 3] = -vivj_trig
    hess[..., 2, 3] = hess[..., 3, 2] = vivj_trig
    return value, grad, hess


def all_flow_values(quantities: BranchQuantities, vi: np.ndarray, vj: np.ndarray,
                    ti: np.ndarray, tj: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four flows ``(pij, qij, pji, qji)`` from one cos/sin evaluation.

    Each equals :func:`quantity_value` of that quantity bit for bit; the
    rows are views of one ``(4, n)`` array.
    """
    return tuple(quantity_value(quantities.stacked, vi, vj, ti, tj))
