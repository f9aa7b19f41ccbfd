"""Range conditions for projection pairs.

A pair of projections satisfies a pairwise range condition when there are
weight functions (kernels) ``V1, V2`` on the two ray-parameter ranges with

    integral g1 * V1 = integral g2 * V2      for all consistent data pairs.

Kernels exist exactly when the kernel condition holds: the ratio of the
(weight times inverse-map-jacobian) factors of the two families, evaluated
at the intersection point of two rays, must separate into a function of the
first ray parameter times a function of the second.  This module evaluates
both sides for the shipped families, returns the known closed-form kernels,
and tests separability of the exponential fan-fan family, which has none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, EvaluationError
from .geometry import (
    DENOM_TOL,
    PairGeometry,
    direction,
    pair_orientation,
    perp,
    view_range,
)


@dataclass(frozen=True)
class KernelPair:
    """Kernels witnessing a pairwise range condition.

    Kernels are unique up to one common constant factor; the shipped ones are
    normalized positive on the data ranges.
    """

    v1: Callable[[np.ndarray], np.ndarray]
    v2: Callable[[np.ndarray], np.ndarray]
    label: str = ""


def known_kernels(pair: PairGeometry) -> KernelPair | None:
    """Closed-form kernels for the pair, or None when none exist.

    parallel-parallel: constants.  Unweighted parallel-fan: ``1/(r1 - s0)``
    and ``1/cos(theta - r2)`` with ``s0`` the offset of the vertex.
    Unweighted fan-fan: ``1/(perp(direction(ri)) . dl)`` with ``dl`` the
    oriented vertex difference.  A fan with ``mu != 0`` leaves none: the log
    of the factor ratio then holds ``mu * t`` of the fan ray, which does not
    separate.
    """
    kind = pair.kind
    if kind == "par-par":
        return KernelPair(
            v1=lambda r: np.ones_like(np.asarray(r, float)),
            v2=lambda r: np.ones_like(np.asarray(r, float)),
            label="parallel-parallel constants",
        )
    if pair.second.mu != 0.0 or (kind == "fan-fan" and pair.first.mu != 0.0):
        return None
    if kind == "par-fan":
        theta = pair.first.theta
        s0 = float(pair.second.vertex_xy @ direction(theta))
        lo1, hi1 = view_range(pair.first, pair.domain)
        flip = -1.0 if 0.5 * (lo1 + hi1) - s0 < 0 else 1.0

        def v1(r, s0=s0, flip=flip):
            return flip / (np.asarray(r, float) - s0)

        def v2(r, theta=theta, flip=flip):
            return flip / np.cos(theta - np.asarray(r, float))

        return KernelPair(v1=v1, v2=v2, label="parallel-fan")
    s = pair_orientation(pair)
    dls = s * (pair.second.vertex_xy - pair.first.vertex_xy)

    def kernel(r, dls=dls):
        return 1.0 / (perp(direction(np.asarray(r, float))) @ dls)

    return KernelPair(v1=kernel, v2=kernel, label="fan-fan unweighted")


def _require_view_order(grids) -> None:
    """Refuse a pair's two detector grids unless they come as view 1, view 2:
    the kernels ``V1, V2`` and the pair's two families are matched by slot."""
    tags = tuple(g.view for g in grids)
    if tags != (1, 2):
        raise ConfigurationError(f"a pair's detector grids must be views (1, 2) in that order, got views {tags}")


def pprc_sides(target, kernels: KernelPair) -> tuple[float, float]:
    """Trapezoid estimates of ``integral g1 V1`` and ``integral g2 V2``.

    Raises ``ConfigurationError`` unless the target's views come in the
    order (1, 2), or if a view has fewer than 2 bins: the trapezoid rule
    over one bin center is 0, which would pass any target as consistent.
    """
    d1, d2 = target
    _require_view_order((d1.grid, d2.grid))
    if min(d1.grid.n_bins, d2.grid.n_bins) < 2:
        raise ConfigurationError("the range-condition sides need at least 2 bins per view")
    total = []
    for data, kern in ((d1, kernels.v1), (d2, kernels.v2)):
        r = data.grid.centers
        w = np.asarray(kern(r), dtype=float)
        if not np.all(np.isfinite(w)):
            bad = r[~np.isfinite(w)][0]
            raise EvaluationError(f"kernel value not finite at r = {bad!r}")
        total.append(float(np.trapezoid(data.values * w, r)))
    return total[0], total[1]


# ---------------------------------------------------------------------------
# Kernel condition


def kernel_condition_residual(pair: PairGeometry, kernels: KernelPair, n: int = 1024) -> float:
    """Worst relative mismatch between the two sides of the kernel condition.

    The condition is evaluated at points of the domain: a regular grid over
    its bounding box, refined until at least ``n`` of its points lie inside.
    Each such point ``x`` is where the ray ``r1`` of the first family meets
    the ray ``r2`` of the second, with ``r1`` and ``r2`` from each family's
    ``inverse`` at ``x``.  The left side is the ratio of the two families'
    ``weight * jacobian_inv`` factors at ``x``; the right side is
    ``V2(r2) / V1(r1)``.  ``n`` must be an integer of at least 1: a
    residual over no sample would certify nothing.
    """
    if not (isinstance(n, Integral) and n >= 1):
        raise ConfigurationError(f"n must be an integer of at least 1, got {n!r}")
    m = max(4, int(math.ceil(math.sqrt(2.0 * n))))
    pts = pair.domain.grid_points(m, m)
    while len(pts) < n:
        m = int(m * 1.5) + 1
        pts = pair.domain.grid_points(m, m)
    r1, t1 = pair.first.inverse(pts)
    r2, t2 = pair.second.inverse(pts)
    lhs = (pair.first.weight(r1, t1) * pair.first.jacobian_inv(pts)) / (
        pair.second.weight(r2, t2) * pair.second.jacobian_inv(pts)
    )
    rhs = kernels.v2(r2) / kernels.v1(r1)
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
        raise EvaluationError("kernel condition produced a non-finite value")
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))))


# ---------------------------------------------------------------------------
# Exponential fan-fan: the log kernel-condition surface and separability


def eval_G(r1, r1t, r2, r2t, mu: float, dl):
    """Closed-form double difference of the log kernel-condition surface.

    With ``T(a, b) = (perp(direction(a)) - perp(direction(b))) / (perp(direction(a)) . direction(b))``,

        G = mu * (T(r1, r2) - T(r1t, r2) - T(r1, r2t) + T(r1t, r2t)) . dl

    A nonzero value at any admissible quadruple certifies that the surface
    is not additively separable, hence that no kernels exist for mu != 0.

    Each ``T(a, b) . dl`` is ``t1 - t2`` at the intersection of the two rays
    (lines, not half-lines), so G is ``mu * sum(+-(t1 - t2))`` over the four
    intersections.  At the four-angle probe of acceptance criterion 1 and of
    ``projpair separability`` those intersections lie on backward ray
    extensions outside the domain (e.g. ``X = (-160, 80)``, ``t1 = -160`` on
    the reference pair), so the value there checks the algebra only; it is
    not a certification at an admissible quadruple.  The rays from both
    reference vertices through ``(0, 0)`` and ``(20, -15)`` form one that is
    admissible: all four intersections lie inside the domain, and there
    ``G = 8.14e-3`` with ``dl = vertex2 - vertex1`` at ``mu = -0.154``.
    """
    dl = np.asarray(dl, float)

    def T(a, b):
        da = direction(a)
        db = direction(b)
        den = np.sum(perp(da) * db, axis=-1)
        if np.any(np.abs(den) < DENOM_TOL):
            raise DomainError("zero denominator in the separability bracket")
        return (perp(da) - perp(db)) / den[..., None]

    bracket = T(r1, r2) - T(r1t, r2) - T(r1, r2t) + T(r1t, r2t)
    return mu * (bracket @ dl)


@dataclass(frozen=True)
class SeparabilityReport:
    """Outcome of the additive-separability test on a sampled surface."""

    max_abs_D: float
    argmax: tuple[float, float, float, float]
    threshold: float
    scale: float
    verdict: str


def separability_test(
    L: np.ndarray,
    r1_values: np.ndarray,
    r2_values: np.ndarray,
) -> SeparabilityReport:
    """Test whether ``L[i, j] ~ a(r1_i) + b(r2_j)`` on the valid entries.

    An entry is valid when it is finite: a NaN marks a sample that is not,
    as :func:`expo_surface` leaves at ray pairs it cannot evaluate.

    Computes the largest double difference
    ``D = L[i,j] - L[it,j] - L[i,jt] + L[it,jt]`` over all quadruples with
    both rows valid at both columns, as the largest *spread*
    ``max_j - min_j`` of a row difference ``L[it] - L[i]`` over the columns
    both rows share.  The report is the one the plain loop over row pairs
    gives: the same subtractions, and the first maximum in row-pair then
    column order.  ``scale`` is the largest ``|L|`` and must be at most half
    the largest float, so no difference overflows.  The verdict is
    ``separable`` when the largest D is at most the threshold
    ``1e-8 * scale``, a fixed rule.  A surface is separable exactly when D
    vanishes identically.

    Row pairs that provably cannot reach the maximum are skipped.  The
    spread is a seminorm of the row
    difference, so ``S(i, it) <= S(i, k) + S(k, it)`` for any row ``k``
    without a NaN.  Up to eight such *reference rows*, evenly spaced, each
    cost one pass over ``L`` for their spreads against every row, and give
    every pair the upper bound

        U(i, it) = min_k (S(i, k) + S(k, it)) * (1 + 4 eps) + 8 eps * scale.

    Rounding margin, with ``u = eps / 2``: each subtraction errs by at most
    ``u * |L[it,j] - L[i,j]| <= 2u * scale``, so the computed max and min
    of a row difference are each within ``2u * scale`` of the exact ones,
    and with the rounding of their difference a computed spread ``s`` and
    the exact one ``S`` obey ``s <= (1 + u) (S + 4u scale)`` and
    ``S <= s / (1 - u) + 4u scale``.  Hence a computed spread is at most
    ``(s(i, k) + s(k, it)) (1 + u) / (1 - u) + 12u (1 + u) scale``; ``U``
    exceeds that after its own three roundings.  Where ``8 eps * scale``
    is subnormal it loses at most half the smallest subnormal ``eta``,
    which the slack ``4u * scale`` covers unless ``scale < 2**50 eta``; then
    every entry is a multiple of ``eta`` far below ``2**53 eta``, so every
    difference and sum is exact and no margin is needed.

    A first pass forms the bounds once, a block of rows at a time, and
    keeps each row's largest ``U``; the spread of each row against the
    partner with that ``U`` is read, and the largest spread found, there
    or against a reference row, is a lower bound ``LB`` on the maximum.
    The scan then walks, in order, the rows whose largest ``U`` reaches the
    final ``LB``, forming the bounds again for their blocks only, and for
    each such row ``i`` reads the rows from the first to the last
    ``it > i`` with ``U >= max(LB, best so far)``, in blocks of about
    512 KB, with the strict ``>`` update of the plain loop.  Every pair
    attaining the maximum is read, and every value read is one the plain
    loop computes, so the first maximum is the same.

    A bound with a margin cannot prove a spread of 0, so rows that are an
    exact additive shift of a reference row are certified apart: with the
    error-free difference (TwoSum, Knuth) ``L[i] - L[k] = s + err``, a row
    whose ``s`` and ``err`` are both constant on its valid columns is such a
    shift, and two shifts of one reference row have a computed spread of
    exactly 0.0.  Their pairs need no scan; the first of them sharing two
    columns, noted in the first pass, is the answer when the maximum is 0.0
    and no pair read reaches 0.0 before it.  With no complete row there is
    no bound (``U = inf``) and every pair is read, as the plain loop does.

    Cost: O(n1 * n2) per reference row and for ``LB``; O(n1^2) per
    reference row for the bounds in the first pass, and again only for
    the blocks the scan reads from; O(n2) per row pair read.  How many
    pairs are read depends on the surface: on the 642 x 641 one of
    ``projpair separability --n1 640 --n2 640``, 1 122 of 205 761 at
    mu = -0.154, from 15 of the 54 blocks of 12 rows, and none at mu = 0;
    on noise with no structure, nearly all.  Memory: the ``n1 x n1``
    shared-column counts, one largest ``U`` per row, and blocks of about
    512 KB.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2:
        raise ConfigurationError("L must be a 2-d array of samples")
    n1, n2 = L.shape
    r1_values = np.asarray(r1_values, float)
    r2_values = np.asarray(r2_values, float)
    if r1_values.size != n1 or r2_values.size != n2:
        raise ConfigurationError("axis value arrays must match the shape of L")
    if n2 < 2:
        raise ConfigurationError("not enough valid samples for any quadruple")
    valid = np.isfinite(L)
    work = np.where(valid, L, np.nan)
    # max |L| over the valid entries, 0.0 if none, without a copy of them
    scale = max(0.0, float(np.fmax.reduce(work, axis=None, initial=-np.inf)),
                -float(np.fmin.reduce(work, axis=None, initial=np.inf)))
    if scale > 0.5 * np.finfo(float).max:
        raise ConfigurationError(f"|L| reaches {scale:.6g}; row differences would overflow")
    threshold = 1e-8 * scale
    # columns each row pair shares, n2 - c_i - c_j + (columns both miss), in
    # exact integers; the last term is nonzero only between rows missing
    # some column, and is counted on their bit-packed masks
    miss = ~valid
    count = np.count_nonzero(miss, axis=1)
    shared = n2 - count[:, None] - count[None, :]
    some = np.flatnonzero(count)
    words = np.packbits(miss[some], axis=1)
    words = np.pad(words, ((0, 0), (0, -words.shape[1] % 8))).view(np.uint64)
    block = max(1, 65536 // max(1, words.size))
    for a in range(0, some.size, block):
        both = np.bitwise_count(words[a : a + block, None] & words).sum(axis=-1, dtype=np.int64)
        shared[some[a : a + block, None], some] += both
    rows = max(1, 65536 // n2)
    buf = np.empty((rows, n2))

    def spreads(hi, lo, m):
        diff = np.subtract(work[hi], work[lo], out=buf[:m])
        return np.fmax.reduce(diff, axis=1) - np.fmin.reduce(diff, axis=1)

    full = np.flatnonzero(count == 0)
    refs = full[np.linspace(0, full.size - 1, min(8, full.size)).astype(np.intp)]
    S = np.empty((refs.size, n1))
    label = np.full(n1, -1)  # index of the reference row a row is an exact shift of
    for r, k in enumerate(refs):
        for a in range(0, n1, rows):
            b = min(a + rows, n1)
            S[r, a:b] = spreads(slice(a, b), k, b - a)
        if label[k] >= 0:
            continue  # the same shifts as an earlier reference row's
        zero = np.flatnonzero(S[r] == 0.0)
        for a in range(0, zero.size, rows):
            z = zero[a : a + rows]
            x, y = work[z], work[k]
            s = x - y  # TwoSum: x - y == s + err exactly
            bb = s - x
            err = (x - (s - bb)) + (-y - bb)
            exact = np.fmax.reduce(err, axis=1) == np.fmin.reduce(err, axis=1)
            label[z[exact & (label[z] < 0)]] = r
    eps = float(np.finfo(float).eps)
    margin = 8.0 * eps * scale
    step = max(1, min(rows, 65536 // (max(1, refs.size) * n1)))

    def bounds(a, b):
        """``U`` of rows a..b-1 against rows a..n1-1, -inf where a pair
        needs no scan, and the mask of certified pairs sharing two columns."""
        u = np.min(S[:, a:b, None] + S[:, None, a:], axis=0, initial=np.inf) * (1.0 + 4.0 * eps) + margin
        lab = label[a:b, None]
        pair = (np.arange(a, n1) > np.arange(a, b)[:, None]) & (shared[a:b, a:] >= 2)
        zero = pair & (lab >= 0) & (lab == label[a:])
        return np.where(pair & ~zero, u, -np.inf), zero

    lb = float(np.fmax.reduce(S.ravel(), initial=-1.0))
    top = np.empty(n1)  # each row's largest U
    first_zero = None
    for a in range(0, n1, step):
        b = min(a + step, n1)
        u, zero = bounds(a, b)
        if first_zero is None and zero.any():
            row, col = divmod(int(np.argmax(zero)), zero.shape[1])
            first_zero = (a + row, a + col)
        p = np.argmax(u, axis=1)
        top[a:b] = u[np.arange(b - a), p]
        i = np.flatnonzero(top[a:b] > -np.inf)
        if i.size:
            lb = max(lb, float(np.max(spreads(a + p[i], a + i, i.size))))
    best = -1.0
    arg = None
    for a in range(0, n1, step):
        b = min(a + step, n1)
        read = a + np.flatnonzero(top[a:b] >= lb)
        if read.size == 0:
            continue  # no bounds again for a block with no row to read
        u, _ = bounds(a, b)
        for i in read:
            its = a + np.flatnonzero(u[i - a] >= max(lb, best))
            if its.size == 0:
                continue
            # the rows between two that need a scan are read too, in place
            for c in range(its[0], its[-1] + 1, rows):
                d = min(c + rows, its[-1] + 1)
                spread = spreads(slice(c, d), i, d - c)
                spread[shared[i, c:d] < 2] = -np.inf
                k = int(np.argmax(spread))
                if spread[k] > best:
                    best = float(spread[k])
                    arg = (int(i), int(c + k))
    if first_zero is not None and best <= 0.0 and (arg is None or first_zero < arg):
        best, arg = 0.0, first_zero
    if arg is None:
        raise ConfigurationError("not enough valid samples for any quadruple")
    i, it = arg
    diff = work[it] - work[i]
    j_hi, j_lo = int(np.nanargmax(diff)), int(np.nanargmin(diff))
    verdict = "separable" if best <= threshold else "non-separable"
    return SeparabilityReport(
        max_abs_D=best,
        argmax=(float(r1_values[i]), float(r1_values[it]), float(r2_values[j_hi]), float(r2_values[j_lo])),
        threshold=float(threshold),
        scale=scale,
        verdict=verdict,
    )


def expo_surface(pair: PairGeometry, r1_values: np.ndarray, r2_values: np.ndarray) -> np.ndarray:
    """Sample the full log kernel-condition surface of an exponential fan-fan
    pair on a parameter grid.

    With ``dl = vertex2 - vertex1``, ``s = pair_orientation(pair)`` and
    ``den = perp(d1) . d2``, the entry at ``(r1, r2)`` is

        mu * ((perp(d1) - perp(d2)) . dl) / den + log(perp(d1) . s*dl) - log(perp(d2) . s*dl)

    Where the two rays meet ahead of both vertices (``t1, t2 > 0``, as on
    every ray pair meeting inside the domain) this is the log of the ratio
    of the two views' ``weight * jacobian_inv`` factors at the intersection,
    ``mu * (t1 - t2) - log t1 + log t2``.  Returns ``L``, of shape
    ``(len(r1_values), len(r2_values))``; an entry at parallel rays or
    with an undefined log factor is NaN rather than raising, which
    :func:`separability_test` reads as not valid.

    Raises
    ------
    ConfigurationError
        Unless ``pair`` is fan-fan with one ``mu`` for both views.
    """
    if pair.kind != "fan-fan" or pair.first.mu != pair.second.mu:
        raise ConfigurationError("the exponential surface needs a fan-fan pair with one mu")
    mu = pair.first.mu
    r1 = np.asarray(r1_values, float)[:, None]
    r2 = np.asarray(r2_values, float)[None, :]
    d1 = direction(r1)
    d2 = direction(r2)
    dl = pair.second.vertex_xy - pair.first.vertex_xy
    dls = float(pair_orientation(pair)) * dl
    q1 = perp(d1)
    q2 = perp(d2)
    # the log factors are taken on the (n1, 1) and (1, n2) axes before they
    # broadcast; the matrix products keep their (n2, 2) rows, since matmul
    # picks its kernel by shape and a per-axis form moves L in the last bits
    p1 = q1 @ dls
    p2 = q2 @ dls
    n1, n2 = r1.shape[0], r2.shape[1]
    L = np.empty((n1, n2))
    # (q1 - q2) @ dl a block of rows at a time, one component plane at a
    # time: the same bytes as the whole broadcast, several times faster, and
    # a 512 KB buffer in place of an (n1, n2, 2) array
    rows = max(1, 32768 // max(1, n2))
    diff = np.empty((min(rows, n1), n2, 2))
    for a in range(0, n1, rows):
        b = min(a + rows, n1)
        for k in (0, 1):
            np.subtract(q1[a:b, :, k], q2[..., k], out=diff[: b - a, :, k])
        np.matmul(diff[: b - a], dl, out=L[a:b])
    del diff
    qx, qy = (np.ascontiguousarray(q1[..., k]) for k in (0, 1))
    ex, ey = (np.ascontiguousarray(d2[..., k]) for k in (0, 1))
    den = qx * ex + qy * ey  # the same products as on strided views, faster
    # |den| > DENOM_TOL without a float copy of den
    valid = ((den > DENOM_TOL) | (den < -DENOM_TOL)) & (p1 > 0) & (p2 > 0)
    # mu * (L / den) + log(p1) - log(p2), in place
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(L, den, out=L)
        L *= mu
        L += np.log(p1)
        L -= np.log(p2)
    L[~valid] = np.nan
    return L
