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

from .errors import ConfigurationError, DegenerateKernelError, DomainError, EvaluationError
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


def _kernel_samples(grids, kernels: KernelPair) -> np.ndarray:
    """The sampled, width-weighted kernels ``W = (width1 * V1, -width2 * V2)``
    at the bin centers of a pair's two detector grids, view 1's bins, then
    view 2's.  The one place a kernel is sampled on a detector, and the one
    ``W`` that ``check``, the residual floor and the mu = 0
    :class:`~projpair.discrete.PairOperator` read, so its refusal is the
    only one: ``EvaluationError`` naming the view and the first center where
    the kernel is not finite, view 1's before view 2's."""
    parts = []
    for grid, kern, sign in zip(grids, (kernels.v1, kernels.v2), (1.0, -1.0)):
        r = grid.centers
        v = np.asarray(kern(r), dtype=float)
        bad = ~np.isfinite(v)
        if bad.any():
            raise EvaluationError(f"view {grid.view} kernel value not finite at r = {float(r[bad][0])!r}")
        parts.append(sign * grid.width * v)
    return np.concatenate(parts)


def _range_weights(target, kernels: KernelPair, min_bins: int = 1) -> tuple[np.ndarray, np.ndarray, int]:
    """The discretized range condition ``<g, W> = 0`` of a target.

    Returns ``g`` (view 1's bins, then view 2's), the sampled, width-weighted
    kernels ``W = (width1 * V1, -width2 * V2)`` on the same layout, and view
    1's bin count.  Bin-average data of any image satisfy it to the order of
    the midpoint rule, and the data of the mu = 0 :class:`PairOperator`
    exactly.  Raises ``ConfigurationError`` unless the views come as (1, 2)
    with at least ``min_bins`` bins each, refused in that order.
    """
    views = tuple(target)
    _require_view_order(v.grid for v in views)
    if min(v.grid.n_bins for v in views) < min_bins:
        raise ConfigurationError(f"the range-condition sides need at least {min_bins} bins per view")
    g = np.concatenate([v.values for v in views])
    return g, _kernel_samples([v.grid for v in views], kernels), views[0].grid.n_bins


def pprc_sides(target, kernels: KernelPair) -> tuple[float, float]:
    """The two halves of ``<g, W>``: ``sum g1 V1 width1`` and
    ``sum g2 V2 width2``, midpoint estimates of ``integral g1 V1`` and
    ``integral g2 V2`` (see :func:`_range_weights`).

    Raises ``ConfigurationError`` unless the target's views come in the
    order (1, 2), or if a view has fewer than 2 bins: a side is then one
    kernel sample times one datum, a midpoint rule over the whole range
    whose error is as large as the side, so its verdict says nothing.
    """
    g, w, n1 = _range_weights(target, kernels, min_bins=2)
    return float(np.add.reduce(g[:n1] * w[:n1])), float(-np.add.reduce(g[n1:] * w[n1:]))


def predicted_residual_floor(target, kernels: KernelPair) -> float:
    """Lower bound for the achievable data residual, from a range condition.

    ``W`` of :func:`_range_weights` annihilates every consistent data vector,
    so the component of the target along it can never be matched:

        floor = |<g, W>| / ||W||,

    both sums pairwise (numpy's ``add.reduce``), as :func:`cgne_solve` sums.
    With equal bin widths the weights cancel and the floor is that of the
    unweighted ``(V1, -V2)``.  A zero floor means the target is not
    obstructed by this condition.

    Raises ``ConfigurationError`` unless the views come in the order (1, 2),
    and ``DegenerateKernelError`` if the kernels vanish on both grids.
    """
    g, w, _ = _range_weights(target, kernels)
    w_norm = math.sqrt(np.add.reduce(w * w))
    if w_norm < 1e-300:
        raise DegenerateKernelError("kernels vanish identically on the sampled ranges")
    return abs(float(np.add.reduce(g * w))) / w_norm


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


def _spreads(rows: np.ndarray, row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The spread ``max - min`` over its non-NaN columns of each row of
    ``rows - row``, the differences formed in ``out``: the row-difference
    step of :func:`separability_test`, every read of a row pair included."""
    diff = np.subtract(rows, row, out=out)
    return np.fmax.reduce(diff, axis=1) - np.fmin.reduce(diff, axis=1)


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
    spread is a seminorm of the row difference, so ``S(i, it) <= S(i, k) +
    S(k, it)`` for any row ``k`` without a NaN.  Up to eight such *reference
    rows*, evenly spaced, each cost one pass over ``L`` for their spreads
    against every row, and give every pair the upper bound

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

    Blocks of rows are bounded before rows.  With ``P(k, I)`` the largest
    spread of a row of block ``I`` against reference row ``k`` (rows with no
    valid sample, whose spreads are NaN, aside), the block bound

        B(I, J) = min_k (P(k, I) + P(k, J)) * (1 + 4 eps) + 8 eps * scale

    is at least ``U`` of every pair with a row in ``I`` and a row in ``J``:
    it makes the same roundings on larger terms, and each is monotone.  The
    largest spread read against a reference row is a lower bound ``LB`` on
    the maximum.  The scan walks the blocks in order and skips a block
    ``I`` whose ``B(I, J)`` is below ``max(LB, best so far)`` for every
    ``J >= I``.  For the others it forms ``U`` of their rows against the
    rows from the first to the last such ``J`` that reach it, and for each
    row ``i`` reads the rows from the first to the last ``it > i`` with
    ``U >= max(LB, best so far)``, in blocks of about 512 KB, with the
    strict ``>`` update of the plain loop.  A pair attaining the maximum
    has ``B >= U >= max(LB, best so far)`` throughout, so every such pair
    is read, in row-pair order, and every value read is one the plain loop
    computes: the first maximum is the same.

    A bound with a margin cannot prove a spread of 0, so a surface that is
    exactly additive is certified as a whole: when every row with a valid
    sample spreads exactly 0.0 against a reference row ``k``, the
    error-free differences (TwoSum, Knuth) ``L[i] - L[k] = s + err`` are
    formed, and if ``err`` is constant on the valid columns of every such
    row (``s`` is, its spread being 0.0), every row is an exact shift of
    row ``k`` and every pair has a computed spread of exactly 0.0.  The
    first pair sharing two columns is then the first maximum, and no
    further reference row, bound or read can change it.  Otherwise the
    scan goes on, and a pair of exact shifts of a reference row, whose
    ``U`` is ``8 eps * scale``, is skipped whenever the maximum is above
    that margin.  With no complete row there is no bound (``U = inf``) and
    every pair is read, as the plain loop does.  The columns a pair shares
    are counted when it is read.

    Cost: O(n1 * n2) per reference row, up to the first that certifies
    every row; O(size * n1) per reference row for ``U`` of each block not
    skipped; O(n2) per row pair read.  How many pairs are read depends on
    the surface: on the 642 x 641 one of ``projpair separability --n1 640
    --n2 640``, 1 122 of 205 761 at mu = -0.154, from 23 of the 54 blocks
    of 12 rows, and none at mu = 0, where reference row 0 certifies every
    row; on noise with no structure, nearly all.  Memory: no ``n1 x n1``
    array.  ``U`` is formed ``step`` rows at a time, and a block has a
    multiple of ``step`` rows, so that at most 512 KB hold ``U`` and at
    most 512 KB the sums ``B`` is taken from; besides, the spreads against
    the reference rows, the mask of NaNs in ``L``, and three 512 KB buffers
    for row differences and the TwoSum terms, which read blocks of
    consecutive rows as slices.  ``L`` itself is read in place, read-only,
    unless it is not a C-contiguous float array or holds an infinity: then
    a float copy is read, with NaN for each infinity.
    """
    L = np.ascontiguousarray(L, dtype=float)
    if L.ndim != 2:
        raise ConfigurationError("L must be a 2-d array of samples")
    n1, n2 = L.shape
    r1_values = np.asarray(r1_values, float)
    r2_values = np.asarray(r2_values, float)
    if r1_values.size != n1 or r2_values.size != n2:
        raise ConfigurationError("axis value arrays must match the shape of L")
    if n2 < 2:
        raise ConfigurationError("not enough valid samples for any quadruple")
    # max |L| over the valid entries, 0.0 if none; L is read in place unless
    # it holds an infinity, which these reductions find
    most, least = np.fmax.reduce(L, axis=None, initial=-np.inf), np.fmin.reduce(L, axis=None, initial=np.inf)
    if most == np.inf or least == -np.inf:
        L = np.where(np.isfinite(L), L, np.nan)
        most, least = np.fmax.reduce(L, axis=None, initial=-np.inf), np.fmin.reduce(L, axis=None, initial=np.inf)
    scale = max(0.0, float(most), -float(least))
    if scale > 0.5 * np.finfo(float).max:
        raise ConfigurationError(f"|L| reaches {scale:.6g}; row differences would overflow")
    threshold = 1e-8 * scale
    miss = np.isnan(L)
    count = np.count_nonzero(miss, axis=1)

    def shares(i, its):
        """Which rows ``its`` share two columns with row ``i``: n2 - c_i -
        c_it + (the columns both miss), integers, so exact."""
        both = np.count_nonzero(miss[its] & miss[i], axis=1) if count[i] else 0
        return n2 - count[i] - count[its] + both >= 2

    rows = max(1, 65536 // n2)
    buf = np.empty((3, rows, n2))

    full = np.flatnonzero(count == 0)
    refs = full[np.linspace(0, full.size - 1, min(8, full.size)).astype(np.intp)]
    S = np.empty((refs.size, n1))
    live = count < n2  # rows with a valid sample
    shifted = False  # every such row an exact shift of one reference row
    for r, k in enumerate(refs):
        for a in range(0, n1, rows):
            b = min(a + rows, n1)
            S[r, a:b] = _spreads(L[a:b], L[k], buf[0, : b - a])
        if np.any(S[r, live] != 0.0):
            continue  # some row is no shift of this reference row
        y, neg = L[k], -L[k]
        for a in range(0, n1, rows):
            b = min(a + rows, n1)
            x = L[a:b]
            s, bb, err = buf[:, : b - a]
            np.subtract(x, y, out=s)  # TwoSum: x - y == s + err exactly
            np.subtract(s, x, out=bb)
            # err = (x - (s - bb)) + (-y - bb)
            np.subtract(s, bb, out=err)
            np.subtract(x, err, out=err)
            np.subtract(neg, bb, out=bb)
            np.add(err, bb, out=err)
            if not np.all((np.fmax.reduce(err, axis=1) == np.fmin.reduce(err, axis=1))[live[a:b]]):
                break
        else:
            shifted = True
            break
    eps = float(np.finfo(float).eps)
    margin = 8.0 * eps * scale
    # once shifted, S is not filled past the certifying row, and unread
    lb = -1.0 if shifted else float(np.fmax.reduce(S.ravel(), initial=-1.0))
    # U of `step` rows against the rest sums (refs, step, n1) spreads, and
    # the block bounds of `size`-row blocks (refs, nb, nb), each 512 KB at most
    step = max(1, min(rows, 65536 // (max(1, refs.size) * max(1, n1))))
    size = step * -(-max(1, n1) // (step * math.isqrt(65536 // max(1, refs.size))))
    starts = np.arange(0, 0 if shifted else n1, size)  # no block to scan once shifted
    # each block's largest spread against each reference row, NaN rows aside
    peak = np.fmax.reduceat(S, starts, axis=1)
    # B[I, J] >= U of every row of block I against every row of block J
    B = np.min(peak[:, :, None] + peak[:, None, :], axis=0, initial=np.inf) * (1.0 + 4.0 * eps) + margin
    B[np.tril_indices(starts.size, -1)] = -np.inf

    def bounds(a, b, c, d):
        """``U`` of rows a..b-1 against rows c..d-1, -inf unless ``it > i``."""
        u = np.min(S[:, a:b, None] + S[:, None, c:d], axis=0, initial=np.inf) * (1.0 + 4.0 * eps) + margin
        u[np.arange(c, d) <= np.arange(a, b)[:, None]] = -np.inf
        return u

    best = -1.0
    arg = None
    if shifted:
        # every pair spreads exactly 0.0: the first pair sharing two columns
        for i in np.flatnonzero(live):
            its = i + 1 + np.flatnonzero(shares(i, slice(i + 1, n1)))
            if its.size:
                best, arg = 0.0, (int(i), int(its[0]))
                break
    for I, a in enumerate(starts):
        J = np.flatnonzero(B[I] >= max(lb, best))
        if J.size == 0:
            continue  # no pair of this block can reach the maximum
        # the rows of the first to the last such block J, after row a
        c0, c1 = max(a + 1, starts[J[0]]), min(n1, starts[J[-1]] + size)
        for e in range(a, min(a + size, n1), step):
            f = min(e + step, a + size, n1)
            u = bounds(e, f, c0, c1)
            for i in range(e, f):
                its = c0 + np.flatnonzero(u[i - e] >= max(lb, best))
                if its.size == 0:
                    continue
                # the rows between two that need a scan are read too, in place
                for c in range(its[0], its[-1] + 1, rows):
                    d = min(c + rows, its[-1] + 1)
                    spread = _spreads(L[c:d], L[i], buf[0, : d - c])
                    spread[~shares(i, slice(c, d))] = -np.inf
                    k = int(np.argmax(spread))
                    if spread[k] > best:
                        best = float(spread[k])
                        arg = (i, int(c + k))
    if arg is None:
        raise ConfigurationError("not enough valid samples for any quadruple")
    i, it = arg
    diff = L[it] - L[i]
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
        Unless ``pair`` is fan-fan with one ``mu`` for both views, or if an
        axis value is not finite, naming the axis.
    """
    if pair.kind != "fan-fan" or pair.first.mu != pair.second.mu:
        raise ConfigurationError("the exponential surface needs a fan-fan pair with one mu")
    mu = pair.first.mu
    r1 = np.asarray(r1_values, float)[:, None]
    r2 = np.asarray(r2_values, float)[None, :]
    for name, r in (("r1", r1), ("r2", r2)):
        if not np.isfinite(r).all():
            raise ConfigurationError(f"{name} axis values must be finite")
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
    qx, qy = (np.ascontiguousarray(q1[..., k]) for k in (0, 1))
    ex, ey = (np.ascontiguousarray(d2[..., k]) for k in (0, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        log1, log2 = np.log(p1), np.log(p2)
    n1, n2 = r1.shape[0], r2.shape[1]
    L = np.empty((n1, n2))
    # One block of rows at a time, each step of a block before the next
    # block, in 512 KB buffers and smaller, so a block stays in cache and no
    # temporary is as large as L: (q1 - q2) @ dl one component plane at a
    # time (several times faster than the whole broadcast), den = qx * ex +
    # qy * ey (the same products as on strided views, faster), the mask
    # |den| > DENOM_TOL without a float copy of den, then mu * (L / den) +
    # log(p1) - log(p2) in place.  Every entry takes the operations of the
    # whole-array expression in its order, so L is the same bytes.
    rows = max(1, 32768 // max(1, n2))
    m = min(rows, n1)
    bufs = np.empty((m, n2, 2)), np.empty((m, n2)), np.empty((m, n2)), np.empty((m, n2), bool), np.empty((m, n2), bool)
    for a in range(0, n1, rows):
        b = min(a + rows, n1)
        out = L[a:b]
        diff, den, prod, valid, low = (x[: b - a] for x in bufs)
        for k in (0, 1):
            np.subtract(q1[a:b, :, k], q2[..., k], out=diff[..., k])
        np.matmul(diff, dl, out=out)
        np.multiply(qx[a:b], ex, out=den)
        np.multiply(qy[a:b], ey, out=prod)
        np.add(den, prod, out=den)
        np.greater(den, DENOM_TOL, out=valid)
        np.less(den, -DENOM_TOL, out=low)
        np.logical_or(valid, low, out=valid)
        np.logical_and(valid, p1[a:b] > 0, out=valid)
        np.logical_and(valid, p2 > 0, out=valid)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(out, den, out=out)
            out *= mu
            out += log1[a:b]
            out -= log2
        np.putmask(out, np.logical_not(valid, out=low), np.nan)
    return L
