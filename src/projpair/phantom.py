"""Smooth bump phantoms and the target data for the shipped experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import ConfigurationError, DomainError
from .discrete import DetectorGrid, ProjectionData
from .geometry import HALF_FAN_ANGLE, ImageDomain

# Angular half-width of the support of the inconceivable target on view 2.
SUPPORT_HALF_ANGLE = math.atan2(1.0, 6.0)
# random_phantom's placement rule: bump radii drawn from this range, the
# gap kept to the domain boundary, and the draws before it gives up.  A
# fixed rule, not a setting.
_RADIUS_RANGE = (3.0, 8.0)
_CLEARANCE = 1.0
_MAX_TRIES = 5000


@dataclass(frozen=True)
class Bump:
    """One mollifier bump: ``amplitude * exp(-1 / (1 - |x - center|^2 / radius^2))``."""

    center: tuple[float, float]
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (*self.center, self.radius, self.amplitude)):
            raise ConfigurationError("bump center, radius and amplitude must be finite")
        if self.radius <= 0:
            raise ConfigurationError("bump radius must be positive")
        # bump_eval divides by radius**2: 0 makes 0/0 at the center
        if not 0.0 < float(self.radius) * float(self.radius) < math.inf:
            raise ConfigurationError("bump radius squared must be positive and finite")


@dataclass(frozen=True)
class Phantom:
    """Finite sum of mollifier bumps; infinitely smooth, compactly supported."""

    bumps: tuple[Bump, ...]

    def __post_init__(self):
        object.__setattr__(self, "bumps", tuple(self.bumps))
        if not self.bumps:
            raise ConfigurationError("phantom needs at least one bump")

    def __call__(self, points):
        return bump_eval(self, points)


def bump_eval(phantom: Phantom, points) -> np.ndarray:
    """Evaluate the phantom at points of shape (..., 2).

    Each bump's exponential is evaluated only at the points inside its
    support, ``|x - center| < radius``; it contributes nothing elsewhere.
    The support test itself runs only in the box ``|y - cy| < radius``
    (the band) and ``|x - cx| < radius``, so no offset from a bump far away
    is squared.  That is exact: outside the box ``fl(dx**2)`` or
    ``fl(dy**2)`` is at least ``fl(radius * radius)`` by monotone rounding,
    so ``s2`` is at least 1 less a few ulp (``radius**2`` may be one ulp off
    ``radius * radius``); any such point the full test would keep adds
    ``exp(-1 / (1 - s2)) = 0`` times the amplitude, a zero, to a sum that
    never holds -0.0, which leaves it unchanged.
    """
    p = np.asarray(points, dtype=float)
    out = np.zeros(p.shape[:-1], dtype=float)
    flat = out.reshape(-1)
    x, y = p[..., 0].reshape(-1), p[..., 1].reshape(-1)
    for b in phantom.bumps:
        cx, cy = b.center
        dy = y - cy
        band = np.flatnonzero(np.abs(dy) < b.radius)
        dx = x[band] - cx
        near = np.abs(dx) < b.radius
        band, dx = band[near], dx[near]
        dy = dy[band]
        # near the largest radius Bump accepts, dx**2 + dy**2 may overflow
        # to inf: then s2 is inf and the point lies outside the support
        with np.errstate(over="ignore"):
            s2 = (dx**2 + dy**2) / (b.radius**2)
        inside = s2 < 1.0
        flat[band[inside]] += b.amplitude * _bump_profile(s2[inside])
    return out


def _bump_profile(s2: np.ndarray, p=1.0, out: np.ndarray | None = None) -> np.ndarray:
    """The bump profile ``exp(-p / (1 - s2))`` at the array ``s2`` of squared
    scaled radii, with ``p`` broadcast against ``s2`` (a column of per-ray
    ``p`` against a row of per-node ``s2``, say).

    At and beyond the support edge (``s2 >= 1``) it is ``exp(-p / 1e-300)``,
    which is +0.0 for ``p > 0``.  With ``out`` given (of the broadcast
    shape) the profile is written into it; ``1 - s2`` is formed in place
    when ``out`` is ``s2`` itself, else in a temporary of ``s2``'s shape.
    """
    fval = np.subtract(1.0, s2, out=s2 if out is s2 else None)
    np.maximum(fval, 1e-300, out=fval)
    # a divide that overflows to -inf gives exp(-inf) = +0.0, the value the
    # exponent's size already implies
    with np.errstate(over="ignore", under="ignore"):
        fval = np.divide(-p, fval, out=out)
        np.exp(fval, out=fval)
    return fval


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only:
    every caller, on any thread, shares the same two arrays."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _composite_gl(lo: float, hi: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on ``[lo, hi]``: ``panels`` equal panels
    of ``order`` points each.  Returns ``(nodes, weights)`` of length
    ``panels * order``, the nodes ascending panel by panel."""
    nodes, weights = _gl_rule(order)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return (mids[:, None] + half * nodes[None, :]).ravel(), np.tile(half * weights, panels)


@lru_cache(maxsize=None)
def _radial_moment(p: float) -> float:
    # integral over [0, 1] of s * exp(-p / (1 - s^2)) ds by composite
    # Gauss-Legendre; the integrand is smooth and flat at s = 1.
    s, w = _composite_gl(0.0, 1.0, 16, 24)
    return float(w @ (s * _bump_profile(s * s, p)))


def mollifier_unit_l2sq() -> float:
    """Squared L2 norm of the unit bump."""
    return 2.0 * math.pi * _radial_moment(2.0)


def _supports_disjoint(phantom: Phantom) -> bool:
    bs = phantom.bumps
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            d = math.hypot(bs[i].center[0] - bs[j].center[0], bs[i].center[1] - bs[j].center[1])
            if d < bs[i].radius + bs[j].radius:
                return False
    return True


def phantom_l2_norm(phantom: Phantom) -> float:
    """L2 norm of the phantom.

    Analytic per bump when supports are pairwise disjoint; otherwise a
    tensor-product quadrature over the union bounding box.
    """
    if _supports_disjoint(phantom):
        u = mollifier_unit_l2sq()
        return math.sqrt(sum(b.amplitude**2 * b.radius**2 * u for b in phantom.bumps))
    xmin = min(b.center[0] - b.radius for b in phantom.bumps)
    xmax = max(b.center[0] + b.radius for b in phantom.bumps)
    ymin = min(b.center[1] - b.radius for b in phantom.bumps)
    ymax = max(b.center[1] + b.radius for b in phantom.bumps)
    xs, wx = _composite_gl(xmin, xmax, 24, 32)
    ys, wy = _composite_gl(ymin, ymax, 24, 32)
    vals = bump_eval(phantom, np.stack(np.meshgrid(xs, ys), axis=-1)) ** 2
    return math.sqrt(float(wy @ vals @ wx))


def random_phantom(rng: np.random.Generator, domain: ImageDomain, n_bumps: int = 3) -> Phantom:
    """Random bumps with pairwise disjoint supports strictly inside the domain.

    Each draw takes a centre uniformly in the domain's bounding box, a
    radius uniformly in ``_RADIUS_RANGE`` and an amplitude uniformly in
    ``[0.5, 2)``.  A bump is kept when its centre lies in the domain, its
    support stays ``_CLEARANCE`` from the boundary and half that from every
    bump already kept.  Raises ``ConfigurationError`` if ``n_bumps`` is not
    an integer, or if ``n_bumps`` are not placed within ``_MAX_TRIES`` draws.
    """
    if not isinstance(n_bumps, Integral):
        raise ConfigurationError(f"the number of bumps must be an integer, got {n_bumps!r}")
    boundary = domain.boundary_points(720)
    xmin, xmax, ymin, ymax = domain.bbox()
    bumps: list[Bump] = []
    tries = 0
    while len(bumps) < n_bumps:
        if tries >= _MAX_TRIES:
            raise ConfigurationError("could not place the requested bumps inside the domain")
        tries += 1
        cx, cy = rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)
        radius = rng.uniform(*_RADIUS_RANGE)
        # a try draws its centre and radius before the tests, and its
        # amplitude only once all three pass, so their order decides only
        # the cost: cheapest first
        if any(
            math.hypot(cx - b.center[0], cy - b.center[1]) < radius + b.radius + 0.5 * _CLEARANCE
            for b in bumps
        ):
            continue
        c = np.array([cx, cy])
        if float(np.min(np.hypot(*(boundary - c).T))) < radius + _CLEARANCE:
            continue
        if not domain.contains(c):
            continue
        bumps.append(Bump(center=(cx, cy), radius=radius, amplitude=rng.uniform(0.5, 2.0)))
    return Phantom(bumps=tuple(bumps))


# ---------------------------------------------------------------------------
# The inconceivable target


def inconceivable_g2(r) -> np.ndarray:
    """View-2 target profile versus angle ``r`` relative to the central ray.

    ``1/4 - 9 tan(r)^2`` inside ``|r| < atan(1/6)``, zero on the rest of the
    view wedge.  Mimics data no function on the image domain can produce
    exactly while view 1 stays identically zero.

    Raises
    ------
    DomainError
        If any ``|r|`` reaches the wedge half-angle atan(5/12).
    """
    r = np.asarray(r, dtype=float)
    if np.any(np.abs(r) >= HALF_FAN_ANGLE):
        raise DomainError("angle outside the view wedge")
    t = np.tan(r)
    return np.where(np.abs(r) < SUPPORT_HALF_ANGLE, 0.25 - 9.0 * t * t, 0.0)


def reference_target(det1: DetectorGrid, det2: DetectorGrid) -> tuple[ProjectionData, ProjectionData]:
    """The data ``(view1, view2)``: zero on view 1, the inconceivable profile
    about ``det2``'s center on view 2 (``reference_grids(n)`` gives the
    reference wedges)."""
    return (
        ProjectionData(grid=det1, values=np.zeros(det1.n_bins)),
        ProjectionData(grid=det2, values=inconceivable_g2(det2.centers - det2.center)),
    )
