"""Continuous projection of bump phantoms along parallel or fan rays.

The projection of ``f`` along the ray with parameter ``r`` is

    integral over T(r) of f(point(r, t)) * weight(r, t) dt

with ``T(r)`` the arc-parameter set where the ray meets the support of
``f``.  Integration limits come from exact ray/disc intersections with the
individual bump supports: a ray has one chord per bump whose support it
crosses, and its value is the sum of its chords' integrals (projection is
linear in ``f``), so overlapping supports need no special casing.  The
chords of all the bumps are integrated as one batch.

Each chord is integrated in its own coordinate.  A line at distance ``h``
from a bump's centre (radius ``R``) crosses its support where
``|t + b| < sq``, with ``t = -b`` the foot of the centre on the line and
``sq = sqrt((R - h)(R + h))``.  In ``v = (t + b) / sq`` the bump factor is
``exp(-p / (1 - v**2))`` with ``p = R**2 / sq**2``, and ``dt = sq dv``.  A
chord that ``t_min`` cuts runs over ``v`` in ``[v0, 1]``; every other chord
has ``v0 = -1``.

Each chord is integrated by one fixed rule: the composite Gauss-Legendre
rule of ``phantom._composite_gl`` with ``_ORDER`` points per panel, the
panels counted on the chord's ``[v0, 1]`` in ``v``, from ``_INIT_PANELS``
panels doubled until a chord's value changes by at most
``max(_ABS_TOL, _REL_FLOOR * |value|)``, at most ``_MAX_REFINE`` doublings.
An uncut chord's bump factor is even in ``v``, so its rule is evaluated on
the half of its panels that cover ``[0, 1]``, each node paired with its
mirror, of weight ``weight(r, sq v - b) + weight(r, -sq v - b)`` (2 at
``mu = 0``): the same nodes, on half the profile evaluations.  A chord
leaves the batch at the doubling where it settles, and each chord gets the
same floating-point operations whichever chords share its batch, bump or
ray, so batched and one-at-a-time evaluation agree bitwise.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .discrete import DetectorGrid, ProjectionData
from .errors import AccuracyError, ConfigurationError
from .geometry import FanGeometry, ImageDomain, ParGeometry, view_range
from .phantom import Phantom, _bump_profile, _composite_gl, phantom_l2_norm

# The ray quadrature's rule, as the module docstring states it.  A fixed
# rule, not a setting.  _INIT_PANELS is even, so that an uncut chord's
# panels split at its midpoint v = 0, and the first settle test compares 8
# with 16 panels: from 2 or 4, two successive values of a central ray
# (p near 1) can agree to _ABS_TOL while both are 5e-10 times amplitude * sq
# off the integral.
_ORDER = 16
_ABS_TOL = 1e-10
_REL_FLOOR = 1e-14
_MAX_REFINE = 12
_INIT_PANELS = 8
# Quadrature nodes per row block of one doubling: 1 MB per float64 array, so
# a doubling's (rays, nodes) temporaries stay that size whatever the ray
# count, until one ray's nodes exceed it (past 8 192 panels).  A fixed
# rule, not a setting.
_BLOCK_NODES = 1 << 17


@lru_cache(maxsize=None)
def _unit_rule(panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """``_composite_gl(0, 1, panels, order)``, cached and read-only like
    ``phantom._gl_rule``."""
    nodes, weights = _composite_gl(0.0, 1.0, panels, order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _chords(geom, bump, r, rays) -> tuple[np.ndarray, np.ndarray]:
    """The rays of ``r`` that cross the bump's support, as ``(idx, chords)``:
    their indices in ``r`` and a (5, n) array of rows ``r``, ``b``, ``sq``,
    ``p`` and ``v0`` (the module docstring names them).  ``rays`` is
    ``geom.ray(r)``, taken once for all of a phantom's bumps."""
    origins, dirs = rays
    cx, cy = bump.center
    ox, oy = origins[:, 0] - cx, origins[:, 1] - cy
    dx, dy = dirs[:, 0], dirs[:, 1]
    # the centre's distance from each line, compared with the radius before
    # anything is squared: a bump far from every ray overflows nothing, and
    # (R - h)(R + h) does not cancel as b*b - (|oc|**2 - R**2) does
    h = np.abs(dx * oy - dy * ox)
    R = bump.radius
    idx = np.flatnonzero(h < R)
    disc = (R - h[idx]) * (R + h[idx])
    b = ox[idx] * dx[idx] + oy[idx] * dy[idx]
    sq = np.sqrt(disc)
    keep = (disc > 0.0) & (sq - b > geom.t_min)
    idx, disc, b, sq = idx[keep], disc[keep], b[keep], sq[keep]
    v0 = np.full(idx.size, -1.0)
    cut = -b - sq < geom.t_min
    v0[cut] = (geom.t_min + b[cut]) / sq[cut]
    return idx, np.stack((r[idx], b, sq, R**2 / disc, v0))


def _chord_integrals(geom, panels: int, chords: np.ndarray, mirrored: bool) -> np.ndarray:
    """``integral of exp(-p / (1 - v**2)) * weight(r, sq v - b) dv`` over each
    chord's ``[v0, 1]``, by the rule of ``panels`` panels there.

    ``mirrored`` takes the uncut chords' form of the same rule: the
    ``panels / 2`` panels on ``[0, 1]``, each node paired with its mirror
    (``v0`` must be -1).  Rays are taken in row blocks of about
    ``_BLOCK_NODES`` nodes, and each ray's value does not depend on which
    rays share its block.
    """
    r, b, sq, p, v0 = chords
    u, w = _unit_rule(panels // 2 if mirrored else panels, _ORDER)
    rows = max(1, min(r.size, _BLOCK_NODES // u.size))
    buf = np.empty((rows, u.size))
    if mirrored:
        s2 = u * u
        if geom.mu == 0.0:
            w = 2.0 * w  # a node and its mirror, each of unit weight
    else:
        v = np.empty_like(buf)
    out = np.empty(r.size)
    for lo in range(0, r.size, rows):
        blk = slice(lo, lo + rows)
        f = buf[:r[blk].size]
        if mirrored:
            _bump_profile(s2, p[blk, None], out=f)
        else:
            vb = np.multiply.outer(1.0 - v0[blk], u, out=v[:f.shape[0]])
            vb += v0[blk, None]
            np.square(vb, out=f)
            _bump_profile(f, p[blk, None], out=f)
        if geom.mu != 0.0:  # a unit weight multiplies by exactly 1
            rb, bb = r[blk, None], b[blk, None]
            if mirrored:
                t = np.multiply.outer(sq[blk], u)
                f *= geom.weight(rb, t - bb) + geom.weight(rb, -t - bb)
            else:
                vb *= sq[blk, None]
                vb -= bb
                f *= geom.weight(rb, vb)
        f *= w
        # np.sum keeps the reduction order independent of the batch size,
        # unlike @ which picks BLAS blockings by shape
        out[blk] = np.sum(f, axis=-1)
    if not mirrored:
        out *= 1.0 - v0
    return out


def project_values(geom, f: Phantom, r) -> np.ndarray:
    """Projection values for ray parameters ``r`` (any shape, scalars too).

    The chords of every bump are integrated as one batch, each doubling
    evaluating only the chords that have not settled yet, and each ray's
    value is the sum of its chords' values in bump order, from +0.0.

    Raises ``ConfigurationError`` for an unsupported family or a non-finite
    parameter.  If some chord does not settle within the module's fixed
    rule (``_MAX_REFINE`` doublings), every chord is still integrated and
    one ``AccuracyError`` carries the summed best estimate, the number of
    rays with a chord that did not settle, and the largest last change
    among those chords.
    """
    if not isinstance(geom, (ParGeometry, FanGeometry)):
        raise ConfigurationError(f"unsupported geometry type {type(geom).__name__}")
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    if not np.all(np.isfinite(flat)):
        raise ConfigurationError("ray parameters must be finite numbers")
    rays = geom.ray(flat)
    parts = [_chords(geom, bump, flat, rays) for bump in f.bumps]
    idx = np.concatenate([i for i, _ in parts])
    chords = np.concatenate([c for _, c in parts], axis=1)
    scale = np.concatenate([bump.amplitude * c[2] for bump, (_, c) in zip(f.bumps, parts)])
    cut = chords[4] != -1.0

    def level(panels: int, live: np.ndarray) -> np.ndarray:
        vals = np.empty(live.size)
        part = cut[live]
        for sel, mirrored in ((~part, True), (part, False)):
            if sel.any():
                vals[sel] = _chord_integrals(geom, panels, chords[:, live[sel]], mirrored)
        return scale[live] * vals

    live = np.arange(idx.size)
    vals = level(_INIT_PANELS, live)
    final = np.empty_like(vals)
    panels = _INIT_PANELS
    for _ in range(_MAX_REFINE):
        panels *= 2
        new = level(panels, live)
        final[live] = new
        delta = np.abs(new - vals)
        moving = ~(delta <= np.maximum(_ABS_TOL, _REL_FLOOR * np.abs(new)))
        live, vals, delta = live[moving], new[moving], delta[moving]
        if not live.size:
            break
    # bincount adds each ray's chords to +0.0 in bump order: the sum of a
    # loop of ``total += values`` over the bumps, which also adds +0.0 where
    # a bump misses the ray, changing no partial sum, as none is -0.0.  It
    # returns integers when there is no chord.
    total = np.bincount(idx, weights=final, minlength=flat.size).astype(float, copy=False)
    total = total.reshape(r.shape)
    if live.size:
        raise AccuracyError(
            f"ray quadrature did not settle for {np.unique(idx[live]).size} ray(s) after {_MAX_REFINE} refinements",
            best_estimate=total,
            achieved_tol=float(np.max(delta)),
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
