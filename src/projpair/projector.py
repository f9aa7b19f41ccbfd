"""Continuous projection of bump phantoms along parallel or fan rays.

The projection of ``f`` along the ray with parameter ``r`` is

    integral over T(r) of f(point(r, t)) * weight(r, t) dt

with ``T(r)`` the arc-parameter set where the ray meets the support of
``f``.  Integration limits come from exact ray/disc intersections with the
individual bump supports; each bump is integrated independently (projection
is linear in ``f``), so overlapping supports need no special casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .discrete import DetectorGrid, ProjectionData
from .errors import AccuracyError, ConfigurationError
from .geometry import FanGeometry, ImageDomain, ParGeometry, view_range
from .phantom import Phantom, phantom_l2_norm


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive composite Gauss-Legendre settings.

    Panels are doubled until the value changes by less than
    ``max(abs_tol, rel_floor * |value|)`` per ray; ``max_refine`` doublings
    at most.  A ray leaves the batch at the doubling where it settles, and
    each ray gets the same floating-point operations whichever rays share
    its batch, so batched and one-at-a-time evaluation agree bitwise.
    """

    order: int = 16
    abs_tol: float = 1e-10
    rel_floor: float = 1e-14
    max_refine: int = 12
    init_panels: int = 2

    def __post_init__(self):
        if self.order < 2 or self.max_refine < 1 or self.init_panels < 1:
            raise ValueError("quadrature spec needs order >= 2, max_refine >= 1, init_panels >= 1")


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _bump_line_integrals(geom, bump, r, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted line integrals of one bump for the flat ray parameters ``r``.

    Returns ``(values, late, drift)``: ``late`` indexes the rays that did not
    settle within ``spec.max_refine`` doublings, ``drift`` their change at
    the last one, and ``values`` holds each ray's settled (or last) value.
    Each doubling evaluates only the rays that have not settled yet; a
    ray's arithmetic does not depend on which rays share its batch, so
    batched and one-at-a-time results agree bitwise.
    """
    out = np.zeros(r.shape)
    origins, dirs = geom.ray(r)
    c = np.asarray(bump.center, dtype=float)
    oc = origins - c
    b = np.sum(oc * dirs, axis=-1)
    c0 = np.sum(oc * oc, axis=-1) - bump.radius**2
    disc = b * b - c0
    hit = disc > 0.0
    sq = np.sqrt(disc[hit])
    t0 = np.maximum(-b[hit] - sq, geom.t_min)
    t1 = -b[hit] + sq
    ok = t1 > t0
    idx = np.flatnonzero(hit)[ok]
    t0, t1 = t0[ok], t1[ok]
    span = t1 - t0
    ox, oy = origins[idx, 0], origins[idx, 1]
    dx, dy = dirs[idx, 0], dirs[idx, 1]
    rr = r[idx]
    cx, cy = c
    r2 = bump.radius**2

    nodes, weights = _gl_rule(spec.order)

    def composite(panels: int, live: np.ndarray) -> np.ndarray:
        edges = np.linspace(0.0, 1.0, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        # unit-interval nodes of every panel, shape (panels * order,)
        u = (mids[:, None] + half * nodes[None, :]).ravel()
        w = np.tile(half * weights, panels)
        # per-coordinate (rays, nodes) arrays, updated in place
        t = np.multiply.outer(span[live], u)
        t += t0[live, None]
        px = t * dx[live, None]
        px += ox[live, None]
        px -= cx
        np.square(px, out=px)
        py = t * dy[live, None]
        py += oy[live, None]
        py -= cy
        np.square(py, out=py)
        s2 = px
        s2 += py
        s2 /= r2
        fval = np.subtract(1.0, s2, out=py)
        np.maximum(fval, 1e-300, out=fval)
        np.divide(-1.0, fval, out=fval)
        with np.errstate(divide="ignore", over="ignore"):
            np.exp(fval, out=fval)
        fval[~(s2 < 1.0)] = 0.0
        fval *= bump.amplitude
        fval *= geom.weight(rr[live, None], t)
        fval *= w
        # np.sum keeps the reduction order independent of the batch size,
        # unlike @ which picks BLAS blockings by shape
        return span[live] * np.sum(fval, axis=-1)

    live = np.arange(idx.size)
    vals = composite(spec.init_panels, live)
    final = np.empty_like(vals)
    panels = spec.init_panels
    for _ in range(spec.max_refine):
        panels *= 2
        new = composite(panels, live)
        final[live] = new
        delta = np.abs(new - vals)
        moving = ~(delta <= np.maximum(spec.abs_tol, spec.rel_floor * np.abs(new)))
        live, vals, delta = live[moving], new[moving], delta[moving]
        if not live.size:
            break
    out[idx] = final
    return out, idx[live], delta


def project_values(geom, f: Phantom, r, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Projection values for ray parameters ``r`` (any shape, scalars too).

    Raises ``ConfigurationError`` for an unsupported family or a non-finite
    parameter.  If some ray does not settle, every bump is still integrated
    and one ``AccuracyError`` carries their summed best estimate and the
    largest last change among the rays that did not settle.
    """
    if not isinstance(geom, (ParGeometry, FanGeometry)):
        raise ConfigurationError(f"unsupported geometry type {type(geom).__name__}")
    spec = spec or QuadratureSpec()
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    if not np.all(np.isfinite(flat)):
        raise ConfigurationError("ray parameters must be finite numbers")
    total = np.zeros(flat.shape)
    late = np.zeros(flat.shape, dtype=bool)
    drifts = []
    for bump in f.bumps:
        vals, idx, drift = _bump_line_integrals(geom, bump, flat, spec)
        total += vals
        late[idx] = True
        drifts.append(drift)
    total = total.reshape(r.shape)
    if np.any(late):
        raise AccuracyError(
            f"ray quadrature did not settle for {np.count_nonzero(late)} ray(s) after {spec.max_refine} refinements",
            best_estimate=total,
            achieved_tol=float(np.max(np.concatenate(drifts))),
        )
    return total


def project_view(geom, f: Phantom, grid: DetectorGrid, spec: QuadratureSpec | None = None) -> ProjectionData:
    """Projection sampled at the bin centers of a detector grid."""
    vals = project_values(geom, f, grid.centers, spec)
    return ProjectionData(grid=grid, values=vals)


def continuity_bound_check(
    geom, f: Phantom, domain: ImageDomain, spec: QuadratureSpec | None = None
) -> tuple[float, float]:
    """Evaluate both sides of the L2 continuity bound ``||Pf|| <= c ||f||``.

    The constant is ``sqrt(sup_r |T(r)| * sup |det D(inverse)|) * sup weight``
    with suprema taken over the domain: chord lengths over 257 rays spread
    over the view range, and ``jacobian_inv`` and ``weight`` over densely
    sampled boundary points, where they attain their extremes.  ``||Pf||``
    is a 48-panel, 16-point Gauss-Legendre rule over the view range.
    Returns ``(lhs, rhs)``; the bound holds when ``lhs <= rhs`` up to
    quadrature accuracy.
    """
    lo, hi = view_range(geom, domain)
    pad = 1e-9 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    # lhs: composite Gauss-Legendre in r of the squared projection.
    nodes, weights = _gl_rule(16)
    panels = 48
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    rq = (mids[:, None] + half * nodes[None, :]).ravel()
    wq = np.tile(half * weights, panels)
    pv = project_values(geom, f, rq, spec)
    lhs = math.sqrt(float(wq @ (pv * pv)))

    # rhs: the continuity constant times the phantom norm.
    origins, dirs = geom.ray(np.linspace(lo, hi, 257))
    chord = max(domain.chord_length(o, e, geom.t_min) for o, e in zip(origins, dirs))
    bpts = domain.boundary_points(2048)
    sup_jac = float(np.max(geom.jacobian_inv(bpts)))
    sup_weight = float(np.max(geom.weight(*geom.inverse(bpts))))
    constant = math.sqrt(chord * sup_jac) * sup_weight
    rhs = constant * phantom_l2_norm(f)
    return lhs, rhs
