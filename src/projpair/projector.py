"""Continuous projection of bump phantoms along parallel or fan rays.

The projection of ``f`` along the ray with parameter ``r`` is

    integral over T(r) of f(point(r, t)) * weight(r, t) dt

with ``T(r)`` the arc-parameter set where the ray meets the support of
``f``.  Integration limits come from exact ray/disc intersections with the
individual bump supports; each bump is integrated independently (projection
is linear in ``f``), so overlapping supports need no special casing.

Each chord is integrated by one fixed rule: the composite Gauss-Legendre
rule of ``phantom._composite_gl`` with ``_ORDER`` points per panel, from
``_INIT_PANELS`` panels doubled until a ray's value changes by at most
``max(_ABS_TOL, _REL_FLOOR * |value|)``, at most ``_MAX_REFINE`` doublings.
A ray leaves the batch at the doubling where it settles, and each ray gets
the same floating-point operations whichever rays share its batch, so
batched and one-at-a-time evaluation agree bitwise.
"""

from __future__ import annotations

import math

import numpy as np

from .discrete import DetectorGrid, ProjectionData
from .errors import AccuracyError, ConfigurationError
from .geometry import FanGeometry, ImageDomain, ParGeometry, view_range
from .phantom import Phantom, _bump_profile, _composite_gl, phantom_l2_norm

# The ray quadrature's rule, as the module docstring states it.  A fixed
# rule, not a setting.
_ORDER = 16
_ABS_TOL = 1e-10
_REL_FLOOR = 1e-14
_MAX_REFINE = 12
_INIT_PANELS = 2
# Quadrature nodes per row block of one doubling: 1 MB per float64 array, so
# a doubling's (rays, nodes) temporaries stay that size whatever the ray
# count.  A fixed rule, not a setting.
_BLOCK_NODES = 1 << 17


def _bump_line_integrals(geom, bump, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted line integrals of one bump for the flat ray parameters ``r``.

    Returns ``(values, late, drift)``: ``late`` indexes the rays that did not
    settle within ``_MAX_REFINE`` doublings, ``drift`` their change at
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

    def composite(panels: int, live: np.ndarray) -> np.ndarray:
        # unit-interval nodes of every panel, shape (panels * order,)
        u, w = _composite_gl(0.0, 1.0, panels, _ORDER)
        # per-coordinate (rays, nodes) scratch arrays, reused by every row
        # block; a unit weight never reads t again, so py overwrites it
        rows = max(1, min(live.size, _BLOCK_NODES // u.size))
        t = np.empty((rows, u.size))
        px = np.empty_like(t)
        py = t if geom.mu == 0.0 else np.empty_like(t)
        out = np.empty(live.size)
        for lo in range(0, live.size, rows):
            blk = live[lo:lo + rows]
            tb, xb, yb = t[:blk.size], px[:blk.size], py[:blk.size]
            np.multiply.outer(span[blk], u, out=tb)
            tb += t0[blk, None]
            np.multiply(tb, dx[blk, None], out=xb)
            xb += ox[blk, None]
            xb -= cx
            np.square(xb, out=xb)
            np.multiply(tb, dy[blk, None], out=yb)
            yb += oy[blk, None]
            yb -= cy
            np.square(yb, out=yb)
            s2 = xb
            s2 += yb
            s2 /= r2
            # +0.0 outside the support (s2 >= 1)
            fval = _bump_profile(s2, out=yb)
            fval *= bump.amplitude
            if geom.mu != 0.0:  # a unit weight multiplies by exactly 1
                fval *= geom.weight(rr[blk, None], tb)
            fval *= w
            # np.sum keeps the reduction order independent of the batch size,
            # unlike @ which picks BLAS blockings by shape
            out[lo:lo + blk.size] = span[blk] * np.sum(fval, axis=-1)
        return out

    live = np.arange(idx.size)
    vals = composite(_INIT_PANELS, live)
    final = np.empty_like(vals)
    panels = _INIT_PANELS
    for _ in range(_MAX_REFINE):
        panels *= 2
        new = composite(panels, live)
        final[live] = new
        delta = np.abs(new - vals)
        moving = ~(delta <= np.maximum(_ABS_TOL, _REL_FLOOR * np.abs(new)))
        live, vals, delta = live[moving], new[moving], delta[moving]
        if not live.size:
            break
    out[idx] = final
    return out, idx[live], delta


def project_values(geom, f: Phantom, r) -> np.ndarray:
    """Projection values for ray parameters ``r`` (any shape, scalars too).

    Raises ``ConfigurationError`` for an unsupported family or a non-finite
    parameter.  If some ray does not settle within the module's fixed rule
    (``_MAX_REFINE`` doublings), every bump is still integrated
    and one ``AccuracyError`` carries their summed best estimate and the
    largest last change among the rays that did not settle.
    """
    if not isinstance(geom, (ParGeometry, FanGeometry)):
        raise ConfigurationError(f"unsupported geometry type {type(geom).__name__}")
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    if not np.all(np.isfinite(flat)):
        raise ConfigurationError("ray parameters must be finite numbers")
    total = np.zeros(flat.shape)
    late = np.zeros(flat.shape, dtype=bool)
    drifts = []
    for bump in f.bumps:
        vals, idx, drift = _bump_line_integrals(geom, bump, flat)
        total += vals
        late[idx] = True
        drifts.append(drift)
    total = total.reshape(r.shape)
    if np.any(late):
        raise AccuracyError(
            f"ray quadrature did not settle for {np.count_nonzero(late)} ray(s) after {_MAX_REFINE} refinements",
            best_estimate=total,
            achieved_tol=float(np.max(np.concatenate(drifts))),
        )
    return total


def project_view(geom, f: Phantom, grid: DetectorGrid) -> ProjectionData:
    """Projection sampled at the bin centers of a detector grid."""
    vals = project_values(geom, f, grid.centers)
    return ProjectionData(grid=grid, values=vals)


def continuity_bound_check(geom, f: Phantom, domain: ImageDomain) -> tuple[float, float]:
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
    rq, wq = _composite_gl(lo, hi, 48, 16)
    pv = project_values(geom, f, rq)
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
