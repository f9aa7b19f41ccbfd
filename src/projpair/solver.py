"""Conjugate-gradient solve of the normal equations.

Started from zero, the iteration converges to the minimum-norm least-squares
solution; the data-space residual norm is non-increasing at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigurationError, DivergenceError

EPS = float(np.finfo(float).eps)
# c in the stops ||A^T r|| <= c * eps * ||A|| * ||r|| and
# ||r|| <= c * eps * (||g|| + ||A|| * ||x||)
NORMAL_RESIDUAL_FACTOR = 1e3


@dataclass(frozen=True, eq=False)
class CgneState:
    """Result of a solve: final iterate and the relative residual trace."""

    iterate: np.ndarray
    residual_history: np.ndarray
    iterations: int
    stop_reason: str

    @property
    def final_residual(self) -> float:
        return float(self.residual_history[-1])


def _sumsq(x: np.ndarray) -> float:
    """``x . x`` by numpy's pairwise summation.  A threaded BLAS dot splits
    a long sum by its thread count, so its rounding would follow that."""
    return float(np.add.reduce(x * x))


def cgne_solve(A, g: np.ndarray, max_iter: int = 1000, tol: float = 0.0) -> CgneState:
    """Minimize ``||A f - g||`` over iterates in the range of the adjoint.

    ``A`` is a 2-d array or an object with ``forward`` and ``adjoint`` on
    flat vectors (a :class:`PairOperator`), looked up on the object when
    the solve starts.  Stops when the relative residual reaches
    ``tol``, when the normal residual vanishes at working precision
    (least-squares optimum, ``stop_reason == "normal_residual_zero"``), when
    the residual itself does (a solution, ``stop_reason ==
    "residual_roundoff"``), or after ``max_iter`` iterations.  ``max_iter``
    is a nonnegative integer and ``tol`` a nonnegative number.
    ``residual_history[k]`` is the relative residual after ``k``
    iterations; entry 0 is 1 for any nonzero target.

    The least-squares stop is the relative normal-residual rule of Paige and
    Saunders (LSQR, 1982): ``||A^T r|| <= c * eps * ||A|| * ||r||`` with
    ``c = NORMAL_RESIDUAL_FACTOR``.  ``||A||`` is the running maximum of
    ``||A p|| / ||p||`` over the search directions, so the test costs no
    extra operator application; before the first step it is 0 and the test
    reduces to ``A^T g == 0``.  Without it, an inconsistent target whose
    obstructed component is annihilated by ``A^T`` only up to roundoff is
    chased along that roundoff direction and the iterate blows up.

    The solution stop is Paige and Saunders' other rule (S1):
    ``||r|| <= c * eps * (||g|| + ||A|| * ||x||)``, with the same ``c`` and
    running ``||A||``, tested after the tolerance.  The recurrence residual
    ``||r||`` goes on falling long after the true ``||g - A x||`` has reached
    roundoff (by some 130 orders of magnitude over 2 000 iterations of the
    desk-scale system), so without it a ``tol = 0`` solve of a consistent
    target runs to ``max_iter`` and reports a residual far below the truth.
    At the stop the two agree to a few parts in 1e5.  ``||x||^2`` comes from
    the pass that checks the iterate is finite: it is finite exactly when
    ``x`` is, unless ``||x||`` passes about 1.3e154, where it overflows and
    a finite iterate is reported as divergent.

    Raises
    ------
    DivergenceError
        If the iterate or residual stops being finite.
    """
    if isinstance(A, np.ndarray):
        if A.ndim != 2:
            raise ConfigurationError("matrix operators must be 2-d")
        fwd, adj = (lambda x: A @ x), (lambda y: A.T @ y)
    elif hasattr(A, "forward") and hasattr(A, "adjoint"):
        fwd, adj = A.forward, A.adjoint
    else:
        raise ConfigurationError("operator must be a 2-d array or have forward and adjoint methods")
    if not (isinstance(max_iter, Integral) and max_iter >= 0):
        raise ConfigurationError(f"max_iter must be a nonnegative integer, got {max_iter!r}")
    if not tol >= 0.0:  # a NaN or negative tolerance never stops the solve
        raise ConfigurationError(f"tol must be a nonnegative number, got {tol!r}")
    g = np.asarray(g, dtype=float).ravel()
    g_norm = math.sqrt(_sumsq(g))
    if g_norm == 0.0:
        x0 = np.zeros_like(np.asarray(adj(g), dtype=float).ravel())
        return CgneState(iterate=x0, residual_history=np.array([0.0]), iterations=0, stop_reason="zero_target")
    r = g.copy()
    s = np.asarray(adj(r), dtype=float).ravel()
    x = np.zeros_like(s)
    p = s.copy()
    gamma = _sumsq(s)
    r_norm = g_norm
    history = [1.0]
    stop = "max_iter"
    k = 0
    a_norm = 0.0  # running lower estimate of ||A||: the largest ||A p|| / ||p|| seen
    while k < max_iter:
        if math.sqrt(gamma) <= NORMAL_RESIDUAL_FACTOR * EPS * a_norm * r_norm:
            stop = "normal_residual_zero"
            break
        q = np.asarray(fwd(p), dtype=float).ravel()
        qq = _sumsq(q)
        if qq == 0.0:
            stop = "normal_residual_zero"
            break
        a_norm = max(a_norm, math.sqrt(qq) / math.sqrt(_sumsq(p)))
        alpha = gamma / qq
        x += alpha * p
        r -= alpha * q
        k += 1
        r_norm = math.sqrt(_sumsq(r))
        rel = r_norm / g_norm
        history.append(rel)
        xx = _sumsq(x)  # finite exactly when x is, below ||x|| of about 1.3e154
        if not (np.isfinite(rel) and math.isfinite(xx)):
            raise DivergenceError("iteration produced non-finite values", iteration=k)
        if rel <= tol:
            stop = "tolerance"
            break
        if r_norm <= NORMAL_RESIDUAL_FACTOR * EPS * (g_norm + a_norm * math.sqrt(xx)):
            stop = "residual_roundoff"
            break
        s = np.asarray(adj(r), dtype=float).ravel()
        gamma_new = _sumsq(s)
        beta = gamma_new / gamma
        gamma = gamma_new
        p = s + beta * p
    return CgneState(iterate=x, residual_history=np.array(history), iterations=k, stop_reason=stop)

