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
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, EvaluationError, ResolutionError
from .geometry import (
    DENOM_TOL,
    PairGeometry,
    direction,
    intersect,
    lift_angle,
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


def pprc_sides(target, kernels: KernelPair) -> tuple[float, float]:
    """Trapezoid estimates of ``integral g1 V1`` and ``integral g2 V2``."""
    d1, d2 = target
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


def _factor(geom, x) -> np.ndarray:
    """weight(at the point) times |det D inverse| for one family."""
    r, t = geom.inverse(x)
    return geom.weight(r, t) * geom.jacobian_inv(x)


def sample_intersections(pair: PairGeometry, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ray-parameter pairs of points of the domain, at least ``n`` of them."""
    m = max(4, int(math.ceil(math.sqrt(2.0 * n))))
    pts = pair.domain.grid_points(m, m)
    while len(pts) < n:
        m = int(m * 1.5) + 1
        pts = pair.domain.grid_points(m, m)
    r1, _ = pair.first.inverse(pts)
    r2, _ = pair.second.inverse(pts)
    return r1, r2


def kernel_condition_residual(pair: PairGeometry, kernels: KernelPair, n: int = 1024) -> float:
    """Worst relative mismatch between the two sides of the kernel condition.

    The left side is the factor ratio of the two families at the
    intersection point; the right side is ``V2(r2) / V1(r1)``.  The ray
    pairs are those through ``n`` or more points of the domain
    (:func:`sample_intersections`).
    """
    r1, r2 = sample_intersections(pair, n)
    x, _, _ = intersect(pair.first, pair.second, r1, r2)
    inside = pair.domain.contains(x)
    if not np.all(inside):
        k = int(np.flatnonzero(~inside)[0])
        raise DomainError(
            f"ray pair ({float(r1[k])!r}, {float(r2[k])!r}) meets outside the image domain"
        )
    lhs = _factor(pair.first, x) / _factor(pair.second, x)
    rhs = kernels.v2(r2) / kernels.v1(r1)
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
        raise EvaluationError("kernel condition produced a non-finite value")
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))))


# ---------------------------------------------------------------------------
# Principal-value variant of the parallel-fan condition


def _gap_trapezoid(r: np.ndarray, y: np.ndarray, holes: list[tuple[float, float]]) -> float:
    keep = np.ones(r.shape, dtype=bool)
    for lo, hi in holes:
        keep &= ~((r > lo) & (r < hi))
    total = 0.0
    idx = np.flatnonzero(keep)
    if idx.size < 2:
        return 0.0
    breaks = np.flatnonzero(np.diff(idx) > 1)
    start = 0
    for b in list(breaks) + [idx.size - 1]:
        seg = idx[start : b + 1]
        if seg.size >= 2:
            total += float(np.trapezoid(y[seg], r[seg]))
        start = b + 1
    return total


def pv_hilbert_residual(target, pair: PairGeometry, eps_values) -> float:
    """Symmetric-exclusion principal-value form of the parallel-fan condition.

    Both side integrals exclude a symmetric ``eps`` neighborhood of their
    stated center (the vertex offset on view 1, the family angle on view 2);
    the residual left-minus-right is evaluated for each ``eps`` and
    extrapolated to ``eps -> 0`` by first-order Richardson over the last
    three values.

    Raises
    ------
    ResolutionError
        If a genuinely singular parameter falls strictly inside a grid and
        closer than half a bin to a sample node: the symmetric cancellation
        the principal value relies on is then unreliable at this resolution.
    """
    if pair.kind != "par-fan" or pair.second.mu != 0.0:
        raise ConfigurationError("the principal-value condition applies to unweighted parallel-fan pairs")
    eps_values = [float(e) for e in eps_values]
    if len(eps_values) < 3:
        raise ConfigurationError("need at least three eps values for extrapolation")
    if any(e <= 0 for e in eps_values):
        raise ConfigurationError("eps values must be positive")
    eps_values = sorted(eps_values, reverse=True)
    d1, d2 = target
    theta = pair.first.theta
    fan = pair.second
    s0 = float(fan.vertex_xy @ direction(theta))

    # Genuine singularities: the vertex offset on view 1; the angles where
    # the fan ray is parallel to the family lines on view 2.
    sing2 = [
        lift_angle(theta + 0.5 * math.pi, fan.theta0),
        lift_angle(theta - 0.5 * math.pi, fan.theta0),
    ]
    for grid, sing in ((d1.grid, [s0]), (d2.grid, sing2)):
        for s in sing:
            if grid.lo < s < grid.hi:
                dist = float(np.min(np.abs(grid.centers - s)))
                if dist < 0.5 * grid.width * (1.0 - 1e-12):
                    raise ResolutionError(
                        f"singular parameter {s!r} lies within half a bin of a sample node"
                    )

    centers2 = [lift_angle(theta, fan.theta0), lift_angle(theta + math.pi, fan.theta0)]
    r1 = d1.grid.centers
    r2 = d2.grid.centers
    with np.errstate(divide="ignore"):
        y1 = d1.values / (r1 - s0)
        y2 = d2.values / np.cos(theta - r2)
    values = []
    for eps in eps_values:
        holes1 = [(s0 - eps, s0 + eps)]
        holes2 = [(c - eps, c + eps) for c in centers2] + [(s - eps, s + eps) for s in sing2]
        left = _gap_trapezoid(r1, y1, holes1)
        right = _gap_trapezoid(r2, y2, holes2)
        values.append(left - right)
    a1 = 2.0 * values[-2] - values[-3]
    a2 = 2.0 * values[-1] - values[-2]
    return (4.0 * a2 - a1) / 3.0


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
    threshold: float | None = None,
) -> SeparabilityReport:
    """Test whether ``L[i, j] ~ a(r1_i) + b(r2_j)`` on the valid entries.

    An entry is valid when it is finite: a NaN marks a sample that is not,
    as :func:`expo_surface` leaves at ray pairs it cannot evaluate.

    Computes the largest double difference
    ``D = L[i,j] - L[it,j] - L[i,jt] + L[it,jt]`` over all quadruples with
    both rows valid at both columns, as the largest spread
    ``max_j - min_j`` of a row difference ``L[it] - L[i]`` (O(n1^2 * n2)).
    How many columns each row pair shares comes from one matrix product of
    the validity mask; a pair sharing fewer than two has no quadruple.  Each
    row ``i`` then walks the rows below it in blocks of about 512 KB, making
    three passes per block (subtract into one buffer, a NaN-skipping max and
    a NaN-skipping min), so a block stays in cache.  The report is the one
    the plain loop over row pairs gives: the same subtractions, and the first
    maximum in row-pair then column order.  ``scale`` is the largest ``|L|``
    and must be at most half the largest float, so no difference overflows;
    the default threshold is ``1e-8 * scale``.  A surface is separable
    exactly when D vanishes identically.
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
    scale = float(np.max(np.abs(work[valid]))) if np.any(valid) else 0.0
    if scale > 0.5 * np.finfo(float).max:
        raise ConfigurationError(f"|L| reaches {scale:.6g}; row differences would overflow")
    if threshold is None:
        threshold = 1e-8 * scale
    v = valid.astype(float)
    shared = v @ v.T
    rows = max(1, 65536 // n2)
    buf = np.empty((min(rows, n1), n2))
    best = -1.0
    arg = (0, 0, 0, 0)
    for i in range(n1 - 1):
        for a in range(i + 1, n1, rows):
            b = min(a + rows, n1)
            diff = np.subtract(work[a:b], work[i], out=buf[: b - a])
            spread = np.fmax.reduce(diff, axis=1) - np.fmin.reduce(diff, axis=1)
            spread[shared[i, a:b] < 2] = -np.inf
            k = int(np.argmax(spread))
            if spread[k] > best:
                best = float(spread[k])
                arg = (i, a + k, int(np.nanargmax(diff[k])), int(np.nanargmin(diff[k])))
    if best < 0.0:
        raise ConfigurationError("not enough valid samples for any quadruple")
    i, it, j_hi, j_lo = arg
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
    den = np.sum(perp(d1) * d2, axis=-1)
    p1 = np.broadcast_to(perp(d1) @ dls, den.shape)
    p2 = np.broadcast_to(perp(d2) @ dls, den.shape)
    valid = (np.abs(den) > DENOM_TOL) & (p1 > 0) & (p2 > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        L = mu * (((perp(d1) - perp(d2)) @ dl) / den) + np.log(p1) - np.log(p2)
    return np.where(valid, L, np.nan)
