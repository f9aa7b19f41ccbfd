"""Curve-family geometry: parallel and fan parametrizations, pair setups.

Angles are radians and lengths are centimeters throughout the library; the
command line converts from degrees at its boundary.

Conventions
-----------
``direction(a)`` is the unit vector ``(cos a, sin a)`` and ``perp(v)`` rotates
a vector by ninety degrees counterclockwise, so
``perp(direction(a)) == direction(a + pi/2)`` and
``perp(a) . b == cross(a, b)``.

Each family states its ray once: ``ray(r)`` returns ``(origin, direction)``
with a unit direction.  Both families share one point and one weight::

    point(r, t) = origin + t * direction,   t > t_min
    weight(r, t) = exp(mu * t)

A parallel family indexed by signed offset ``r`` has lines (``t_min = -inf``)::

    origin = r * direction(theta),   direction = perp(direction(theta))

A fan family with vertex ``v`` indexed by absolute ray angle ``r`` has
half-lines (``t_min = 0``)::

    origin = v,   direction = direction(r)

Fan angles live on the branch ``[theta0, theta0 + 2*pi)``.  Two rays of any
two families meet where :func:`intersect` says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import ConfigurationError, DomainError, ParallelRaysError, SingularPointError

# Degenerate denominators (parallel rays, zero dot products) are detected at
# this absolute threshold.
DENOM_TOL = 1e-12

# Reference dual-vertex configuration used by the shipped experiment.
REFERENCE_VERTEX_1 = (0.0, 80.0)
REFERENCE_VERTEX_2 = (-80.0, 0.0)
ATTENUATION_MU = -0.154
HALF_FAN_ANGLE = math.atan2(5.0, 12.0)

# Boundary points sampled by the admissibility check.
_BOUNDARY_SAMPLES = 1024


def direction(angle):
    """Unit vector(s) ``(cos angle, sin angle)``; shape ``angle.shape + (2,)``."""
    a = np.asarray(angle, dtype=float)
    return np.stack([np.cos(a), np.sin(a)], axis=-1)


def perp(v):
    """Rotate vector(s) by +90 degrees: ``(x, y) -> (-y, x)``."""
    v = np.asarray(v, dtype=float)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def cross2(a, b):
    """Scalar cross product ``a_x b_y - a_y b_x`` (equals ``perp(a) . b``)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def lift_angle(angle, theta0):
    """Shift ``angle`` by a multiple of 2*pi into ``[theta0, theta0 + 2*pi)``:
    ``np.mod(angle - theta0, 2*pi) + theta0``."""
    return np.mod(np.asarray(angle, dtype=float) - theta0, 2.0 * math.pi) + theta0


class _Family:
    """The rules both curve families share, read through their ``ray``,
    ``t_min`` and ``mu``."""

    def point(self, r, t):
        """``origin + t * direction`` on the ray ``r``; ``t`` must exceed ``t_min``."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= self.t_min):
            raise DomainError(f"ray parameter t must exceed t_min = {self.t_min}")
        origin, e = self.ray(r)
        return origin + t[..., None] * e

    def weight(self, r, t):
        """``exp(mu * t)``, broadcast over ``r`` and ``t``."""
        r, t = np.broadcast_arrays(np.asarray(r, float), np.asarray(t, float))
        return np.exp(self.mu * t)


# ---------------------------------------------------------------------------
# Parallel family


@dataclass(frozen=True)
class ParGeometry(_Family):
    """Parallel-beam family at angle ``theta``; unit weight (``mu = 0``)."""

    theta: float
    t_min = -math.inf
    mu = 0.0

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ConfigurationError("parallel view angle must be finite")

    def ray(self, r):
        """``(origin, direction)`` of the line at offset ``r``."""
        r = np.asarray(r, dtype=float)
        d = direction(self.theta)
        return r[..., None] * d, np.broadcast_to(perp(d), r.shape + (2,))

    def inverse(self, x):
        """Return ``(r, t)`` with ``self.point(r, t) == x``. Exact inverse."""
        x = np.asarray(x, dtype=float)
        d = direction(self.theta)
        return x @ d, x @ perp(d)

    def jacobian_inv(self, x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1], dtype=float)


# ---------------------------------------------------------------------------
# Fan family


@dataclass(frozen=True, eq=False)
class FanGeometry(_Family):
    """Fan-beam family from ``vertex``; exponential weight ``exp(mu * t)``.

    ``theta0`` fixes the angular branch ``[theta0, theta0 + 2*pi)`` on which
    ray angles are reported; it must be chosen so the branch cut misses the
    image domain.  ``mu = 0`` gives the unweighted divergent-beam transform.
    """

    vertex: tuple[float, float]
    theta0: float = -math.pi
    mu: float = 0.0
    t_min = 0.0

    def __post_init__(self):
        object.__setattr__(self, "vertex", (float(self.vertex[0]), float(self.vertex[1])))
        if not all(map(math.isfinite, (*self.vertex, self.theta0, self.mu))):
            raise ConfigurationError("fan vertex, branch angle and mu must be finite")

    @property
    def vertex_xy(self) -> np.ndarray:
        return np.array(self.vertex, dtype=float)

    def ray(self, r):
        """``(origin, direction)`` of the half-line at absolute angle ``r``."""
        r = np.asarray(r, dtype=float)
        return np.broadcast_to(self.vertex_xy, r.shape + (2,)), direction(r)

    def inverse(self, x):
        """Return ``(r, t)``: ray angle on the branch and distance to the vertex.

        Raises
        ------
        SingularPointError
            If ``x`` coincides with the vertex (no ray through it is defined).
        """
        x = np.asarray(x, dtype=float)
        return self.inverse_xy(x[..., 0], x[..., 1])

    def inverse_xy(self, x, y):
        """:meth:`inverse` of the points with coordinates ``x`` and ``y``."""
        dx = np.subtract(x, self.vertex[0], dtype=float)
        dy = np.subtract(y, self.vertex[1], dtype=float)
        t = np.hypot(dx, dy)
        if np.any(t < DENOM_TOL):
            raise SingularPointError("point coincides with the fan vertex")
        angle = np.arctan2(dy, dx)
        del dx, dy  # free before lift_angle's temporaries
        return lift_angle(angle, self.theta0), t

    def jacobian_inv(self, x):
        """|det of the derivative of the inverse fan map| = 1 / |x - vertex|."""
        _, t = self.inverse(x)
        return 1.0 / t


# ---------------------------------------------------------------------------
# Ray intersections across two families


def intersect(first, second, r1, r2):
    """Where ray ``r1`` of family ``first`` meets ray ``r2`` of ``second``.

    Solves ``o1 + t1*e1 == o2 + t2*e2`` for the rays ``(o, e)`` of
    :meth:`ray`, with ``dl = o2 - o1``::

        t1 = cross2(dl, e2) / cross2(e1, e2)
        t2 = cross2(dl, e1) / cross2(e1, e2)

    and returns ``(x, t1, t2)``.  The rays are solved as whole lines: a
    parameter at or below a family's ``t_min`` means the point lies on the
    backward extension of a half-line, and callers decide whether that is
    acceptable.  Parameters broadcast.

    Raises
    ------
    ParallelRaysError
        If some pair of rays is parallel (``|cross2(e1, e2)| < DENOM_TOL``).
    """
    o1, e1 = first.ray(r1)
    o2, e2 = second.ray(r2)
    den = cross2(e1, e2)
    if np.any(np.abs(den) < DENOM_TOL):
        raise ParallelRaysError("rays are parallel; no intersection point")
    dl = o2 - o1
    t1 = cross2(dl, e2) / den
    t2 = cross2(dl, e1) / den
    return o1 + t1[..., None] * e1, t1, t2


# ---------------------------------------------------------------------------
# Image domains


def _polygon_area(verts: np.ndarray) -> tuple[float, float]:
    """Signed shoelace area of the vertices and the rounding it is known to.

    The area is taken about the vertices' mean, so that its own rounding
    scales with their spread ``R = max |v - mean|``.  Rounding a vertex to
    doubles moves it by up to ``sqrt(2) u M``, with ``M = max |v|`` and
    ``u = eps / 2``, and moving vertex ``i`` by ``d`` changes the area by
    ``cross(d, v[i+1] - v[i-1]) / 2``, at most ``sqrt(2) u M R``; so an
    area within ``n * eps * M * R`` of zero may be zero."""
    d = verts - verts.mean(axis=0)
    x, y = d[:, 0], d[:, 1]
    area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    size = float(np.max(np.hypot(verts[:, 0], verts[:, 1])))
    return area, len(verts) * np.finfo(float).eps * size * float(np.max(np.hypot(x, y)))


@dataclass(frozen=True, eq=False)
class ImageDomain:
    """Bounded open image domain: rectangle, disc, or simple polygon.

    Construct through :meth:`rectangle`, :meth:`disc` or :meth:`polygon`.
    A disc is its ``center`` and ``radius``; every other domain is its
    ``vertices``, counterclockwise, from which its bounding box, boundary
    samples and chords are taken.  The domain keeps a read-only copy of
    them.  A rectangle also keeps its ``half_widths`` for its membership
    rule, which is strict where a polygon's is half-open
    (:meth:`contains_xy`).  Every construction, direct ones included, is
    refused unless ``kind`` is one of those three, the center is finite, a
    rectangle's half-widths and a disc's radius are positive and finite,
    and a domain other than a disc has its ``vertices``.
    """

    kind: str
    center: tuple[float, float] = (0.0, 0.0)
    half_widths: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0
    vertices: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("rectangle", "disc", "polygon"):
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")
        if self.kind == "rectangle" and not all(0 < h < math.inf for h in self.half_widths):
            raise ConfigurationError("rectangle half-widths must be positive and finite")
        if self.kind == "disc" and not 0 < self.radius < math.inf:
            raise ConfigurationError("disc radius must be positive and finite")
        cx, cy = map(float, self.center)
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ConfigurationError("domain center must be finite")
        object.__setattr__(self, "center", (cx, cy))
        if self.kind != "disc" and self.vertices is None:
            raise ConfigurationError(f"a {self.kind!r} domain needs its vertices")
        if self.vertices is not None:
            # a read-only copy: a later edit of the caller's array would
            # move the edges away from the center and checks taken here
            v = np.array(self.vertices, dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, "vertices", v)

    @staticmethod
    def rectangle(half_width: float, half_height: float, center=(0.0, 0.0)) -> "ImageDomain":
        """Open axis-aligned rectangle; its corners go counterclockwise from
        the bottom-left one."""
        cx, cy = map(float, center)
        hx, hy = float(half_width), float(half_height)
        corners = [[cx - hx, cy - hy], [cx + hx, cy - hy], [cx + hx, cy + hy], [cx - hx, cy + hy]]
        return ImageDomain(kind="rectangle", center=(cx, cy), half_widths=(hx, hy), vertices=corners)

    @staticmethod
    def disc(center, radius: float) -> "ImageDomain":
        return ImageDomain(kind="disc", center=center, radius=float(radius))

    @staticmethod
    def polygon(vertices) -> "ImageDomain":
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ConfigurationError("polygon needs at least three (x, y) vertices")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("polygon vertices must be finite")
        area, slack = _polygon_area(v)
        if abs(area) <= slack:
            raise ConfigurationError("polygon vertices enclose no area")
        if area < 0:
            v = v[::-1]
        c = v.mean(axis=0)
        return ImageDomain(kind="polygon", center=(float(c[0]), float(c[1])), vertices=v)

    # -- predicates -----------------------------------------------------

    def contains(self, points) -> np.ndarray:
        """Boolean mask of shape ``points.shape[:-1]``: which points of
        shape ``(..., 2)`` lie inside the domain, by :meth:`contains_xy`."""
        p = np.asarray(points, dtype=float)
        return self.contains_xy(p[..., 0], p[..., 1])

    def contains_xy(self, x, y) -> np.ndarray:
        """Which points ``(x, y)`` lie inside the domain.

        ``x`` and ``y`` broadcast against each other; the result has their
        broadcast shape.  A rectangle or disc keeps the points strictly
        inside.  A polygon uses the even-odd rule: a point is inside when a
        ray from it toward ``+x`` crosses the boundary an odd number of
        times, where an edge is crossed when exactly one of its ends lies
        above ``y`` and its crossing abscissa ``xi`` exceeds ``x``.  That
        rule is half-open, not strict: a point on a left edge or on a level
        bottom edge counts as inside, one on a right or top edge does not.
        So an axis-aligned square polygon keeps the points on its left and
        bottom edges, and the equal rectangle keeps none.

        The points are taken as rows, one per entry of ``y`` (one per pixel
        row when ``y`` is a column of row ordinates and ``x`` a row of
        abscissae).  Each edge's crossing abscissa depends on ``y`` alone,
        so it is computed once per row, and ``x < xi`` is evaluated only on
        the rows from the first to the last one the edge crosses; rows in
        between that it misses compare against ``-inf``.  A row outside that
        span would XOR in all-False, so skipping it leaves the result exact.
        An edge whose ordinates lie outside the rows' range is skipped
        before any per-row work, so one point costs a few array operations
        per edge its row crosses.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "rectangle":
            cx, cy = self.center
            hx, hy = self.half_widths
            return (np.abs(x - cx) < hx) & (np.abs(y - cy) < hy)
        if self.kind == "disc":
            cx, cy = self.center
            return np.hypot(x - cx, y - cy) < self.radius
        shape = np.broadcast_shapes(x.shape, y.shape)
        y = y.reshape((1,) * (len(shape) - y.ndim) + y.shape)
        # the axes y varies along first, then the rest: a (rows, columns) view
        perm = sorted(range(len(shape)), key=lambda k: y.shape[k] == 1)
        n_rows = math.prod(y.shape)
        n_cols = math.prod(shape) // n_rows if n_rows else 0
        permuted = tuple(shape[k] for k in perm)
        yr = y.transpose(perm).reshape(n_rows)
        xr = np.broadcast_to(x, shape).transpose(perm).reshape(n_rows, n_cols)
        inside = np.zeros((n_rows, n_cols), dtype=bool)
        y_lo, y_hi = float(np.fmin.reduce(yr, initial=np.inf)), float(np.fmax.reduce(yr, initial=-np.inf))
        v = self.vertices.tolist()
        with np.errstate(divide="ignore", invalid="ignore"):
            for (x1, y1), (x2, y2) in zip(v, v[1:] + v[:1]):
                # only an edge whose ordinates [min, max) meet the rows' range
                # can be crossed (NaN ordinates cross none); a level edge never is
                if not (min(y1, y2) <= y_hi and max(y1, y2) > y_lo):
                    continue
                crosses = (y1 > yr) != (y2 > yr)
                rows = np.flatnonzero(crosses)
                if rows.size == 0:
                    continue
                lo, hi = rows[0], rows[-1] + 1
                xi = x1 + (yr[lo:hi] - y1) * (x2 - x1) / (y2 - y1)
                # a row the edge misses is crossed nowhere: x < -inf is false
                inside[lo:hi] ^= xr[lo:hi] < np.where(crosses[lo:hi], xi, -np.inf)[:, None]
        return inside.reshape(permuted).transpose(np.argsort(perm))

    # -- geometry queries ------------------------------------------------

    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) of the closure."""
        if self.kind == "disc":
            cx, cy = self.center
            r = self.radius
            return cx - r, cx + r, cy - r, cy + r
        v = self.vertices
        return float(v[:, 0].min()), float(v[:, 0].max()), float(v[:, 1].min()), float(v[:, 1].max())

    def reference_point(self) -> np.ndarray:
        """A point inside the domain (centroid for the shipped shapes)."""
        return np.array(self.center, dtype=float)

    def boundary_points(self, n: int) -> np.ndarray:
        """``n`` points on the boundary, spaced by arc length, shape (n, 2)."""
        if not (isinstance(n, Integral) and n >= 3):
            raise ConfigurationError(f"need an integer of at least 3 boundary samples, got {n!r}")
        if self.kind == "disc":
            a = 2.0 * math.pi * (np.arange(n) + 0.5) / n
            return np.array(self.center) + self.radius * direction(a)
        verts = self.vertices
        seg = np.roll(verts, -1, axis=0) - verts
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        total = cum[-1]
        s = total * (np.arange(n) + 0.5) / n
        idx = np.searchsorted(cum, s, side="right") - 1
        idx = np.clip(idx, 0, len(verts) - 1)
        frac = (s - cum[idx]) / lengths[idx]
        # np.take gives the rows verts[idx] gives, about 4x faster at 4 096
        return np.take(verts, idx, axis=0) + frac[:, None] * np.take(seg, idx, axis=0)

    def chord_length(self, origin, dir_vec, t_min: float = -math.inf) -> float | np.ndarray:
        """Total length of ``{t : origin + t*dir_vec in domain, t > t_min}``.

        ``origin`` and ``dir_vec`` broadcast as arrays of shape ``(..., 2)``,
        one line per entry of the leading axes, and give one length per line;
        a single line gives a float.  ``dir_vec`` must be a unit vector for
        the result to be a length.  A line's crossings with the boundary (a
        disc's two roots, or one per polygon edge, NaN where it misses),
        sorted, cut it into pieces; a piece counts, from ``t_min`` on, when
        its midpoint lies inside, and the pieces are added in order along the
        line, from 0.0.
        """
        o, d = np.broadcast_arrays(np.asarray(origin, dtype=float), np.asarray(dir_vec, dtype=float))
        o_, d_ = o[..., None, :], d[..., None, :]  # each line against its crossings
        if self.kind == "disc":
            oc = o - np.array(self.center)
            b = np.vecdot(oc, d)
            disc = b * b - (np.vecdot(oc, oc) - self.radius**2)
            root = np.sqrt(np.where(disc > 0, disc, np.nan))
            ts = np.stack([-b - root, -b + root], axis=-1)
        else:
            # the line meets edge p -> p + e at u along it (kept in [0, 1] up to
            # 1e-12), cross2(po, e) / den along the line
            p = self.vertices
            e = np.roll(p, -1, axis=0) - p
            po = p - o_
            den = cross2(d_, e)
            den = np.where(np.abs(den) < 1e-300, np.nan, den)
            u = cross2(po, d_) / den
            ts = np.where((-1e-12 <= u) & (u <= 1.0 + 1e-12), cross2(po, e) / den, np.nan)
        ts = np.sort(ts, axis=-1)  # NaN last
        a, b = np.maximum(ts[..., :-1], t_min), ts[..., 1:]
        mid = o_ + (0.5 * (a + b))[..., None] * d_
        keep = (b > t_min) & (b - a >= 1e-14) & self.contains(mid)
        # cumsum adds in order, as a loop of total += piece would; sum would not
        total = np.cumsum(np.where(keep, b - a, 0.0), axis=-1)[..., -1]
        return float(total) if total.ndim == 0 else total

    def grid_points(self, nx: int, ny: int) -> np.ndarray:
        """Interior points of a regular nx-by-ny grid over the bounding box."""
        xmin, xmax, ymin, ymax = self.bbox()
        xs = xmin + (xmax - xmin) * (np.arange(nx) + 0.5) / nx
        ys = ymin + (ymax - ymin) * (np.arange(ny) + 0.5) / ny
        xx, yy = np.meshgrid(xs, ys)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        return pts[self.contains(pts)]


# ---------------------------------------------------------------------------
# Pairs and admissibility


@dataclass(frozen=True, eq=False)
class PairGeometry:
    """Two curve families over a common image domain.

    Mixed pairs must put the parallel family first; this keeps the component
    indexing of data and kernels unambiguous.
    """

    first: ParGeometry | FanGeometry
    second: ParGeometry | FanGeometry
    domain: ImageDomain

    def __post_init__(self):
        if isinstance(self.first, FanGeometry) and isinstance(self.second, ParGeometry):
            raise ConfigurationError("mixed pairs must be ordered (parallel, fan); swap the views")

    @property
    def kind(self) -> str:
        a = "par" if isinstance(self.first, ParGeometry) else "fan"
        b = "par" if isinstance(self.second, ParGeometry) else "fan"
        return f"{a}-{b}"


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of an admissibility check.

    ``margins`` maps named inequalities to their worst-case slack over the
    boundary sampling; every entry must exceed zero for ``passed``, so a NaN
    margin fails.
    """

    margins: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(m > 0.0 for m in self.margins.values())

    def require(self) -> None:
        """Raise ConfigurationError naming the failing margins unless passed."""
        if not self.passed:
            bad = {k: v for k, v in self.margins.items() if not v > 0.0}
            raise ConfigurationError(f"pair geometry is not admissible; failing margins: {bad}")


def view_range(geom, domain: ImageDomain) -> tuple[float, float]:
    """Range of the ray parameter over the domain.

    For a parallel family this is an offset interval; for a fan it is an
    angular interval on the branch.  The parameter attains its extremes
    over the closure on the boundary, and over a polygon at a vertex: an
    offset is linear along an edge, and a fan angle is monotone along an
    edge that neither meets the vertex nor crosses the branch cut.  So the
    range of a domain given by its vertices is their parameters' extremes,
    exactly.  A disc's range is its centre's parameter ``c`` plus or minus
    the radius ``R`` for a parallel view, and plus or minus
    ``asin(R / |centre - vertex|)`` for a fan; a fan vertex in the closed
    disc has no such half-angle and gets the whole branch
    ``[theta0, theta0 + 2*pi]``.
    """
    if domain.kind != "disc":
        r, _ = geom.inverse(domain.vertices)
        return float(np.min(r)), float(np.max(r))
    half = domain.radius
    if isinstance(geom, FanGeometry):
        dist = math.dist(domain.center, geom.vertex)
        if dist <= domain.radius:
            return geom.theta0, geom.theta0 + 2.0 * math.pi
        half = math.asin(domain.radius / dist)
    c, _ = geom.inverse(domain.center)
    return float(c) - half, float(c) + half


def _fan_margins(geom: FanGeometry, domain: ImageDomain, dist, r) -> dict[str, float]:
    """The margins of one fan over a domain, from the distances ``dist`` of
    its vertex to the boundary samples and their ray angles ``r`` (None when
    a sample lies on the vertex, where no ray angle is defined).

    ``vertex_clearance`` is the distance from the vertex to the domain,
    negative if the vertex is inside.  ``branch_clearance`` is the signed
    angular distance of the branch cut from the arc of the domain's ray
    angles, negative when the cut crosses the arc; it is ``-inf`` unless the
    vertex clears the domain and the angles are given.  The arc is the
    complement of the largest circular gap between the samples' ray angles,
    so it does not depend on where the cut splits them.
    """
    dist = float(np.min(dist))
    if domain.contains(geom.vertex_xy):
        dist = -dist
    branch = -math.inf
    if dist > 0 and r is not None:
        u = np.sort(r) - geom.theta0  # cut at 0 and 2*pi
        gaps = np.diff(u, append=u[0] + 2.0 * math.pi)
        i = int(np.argmax(gaps))
        if i == u.size - 1:  # the largest gap holds the cut
            branch = float(min(u[0], 2.0 * math.pi - u[-1]))
        else:
            branch = -float(min(u[i], 2.0 * math.pi - u[i + 1]))
    return {"vertex_clearance": dist, "branch_clearance": branch}


def _parfan_margins(g1: ParGeometry, g2: FanGeometry, domain: ImageDomain, r2) -> dict[str, float]:
    s0 = float(g2.vertex_xy @ direction(g1.theta))
    lo, hi = view_range(g1, domain)
    offset = min(abs(s0 - lo), abs(s0 - hi))
    if lo <= s0 <= hi:
        offset = -offset
    cosv = np.cos(g1.theta - r2)
    cos_min = float(np.min(np.abs(cosv)))
    if np.min(cosv) < 0.0 < np.max(cosv):
        cos_min = -cos_min
    return {"offset_clearance": offset, "cos_clearance": cos_min}


def _orientation(vertex1, vertex2, domain: ImageDomain) -> int:
    """+1 if the domain lies on the positive side of the line from
    ``vertex1`` to ``vertex2`` (``cross2(x - vertex1, vertex2 - vertex1) > 0``
    at the domain's reference point), else -1."""
    v1 = np.asarray(vertex1, dtype=float)
    dl = np.asarray(vertex2, dtype=float) - v1
    return 1 if cross2(domain.reference_point() - v1, dl) > 0 else -1


def _fanfan_margins(g1: FanGeometry, g2: FanGeometry, domain: ImageDomain, pts, r1, r2) -> dict[str, float]:
    dl = g2.vertex_xy - g1.vertex_xy
    norm_dl = float(np.hypot(*dl))
    s = _orientation(g1.vertex_xy, g2.vertex_xy, domain)
    d1, d2 = direction(r1), direction(r2)
    return {
        "line_clearance": float(np.min(s * cross2(pts - g1.vertex_xy, dl) / norm_dl)),
        "ray_pair": float(np.min(-s * np.sum(perp(d1) * d2, axis=-1))),
        "dl_dot_1": float(np.min(s * perp(d1) @ dl)),
        "dl_dot_2": float(np.min(s * perp(d2) @ dl)),
    }


def check_pair_admissible(pair: PairGeometry) -> AdmissibilityReport:
    """Check the range-condition admissibility inequalities for a pair.

    All inequalities are evaluated on a dense boundary sampling of the domain
    (the relevant quantities attain their extremes there), except that a
    parallel-fan pair's offset clearance reads the parallel view's range
    from :func:`view_range`.  For fan-fan pairs
    the orientation sign that makes the domain sit on the positive side of
    the line through the two vertices (:func:`pair_orientation`) is folded
    into the margins, so admissibility never depends on the labeling order
    of the vertices.  The boundary is sampled once, and each fan's ray
    angles and distances to the samples are taken on it
    once.  Each fan's margins are those of :func:`_fan_margins`, under the
    keys ``fan_`` (the fan of a parallel-fan pair), ``fan1_`` and ``fan2_``.

    A fan vertex within ``DENOM_TOL`` of a boundary sample has no ray angle
    there, so the report fails instead of raising: that fan keeps its
    ``vertex_clearance`` and gets ``branch_clearance = -inf``, and the
    pair's own margins, which need the angles, are left out.
    """
    g1, g2, domain = pair.first, pair.second, pair.domain
    if pair.kind == "par-par":
        return AdmissibilityReport({"angle_separation": abs(math.remainder(g1.theta - g2.theta, math.pi))})
    if pair.kind == "fan-fan" and np.hypot(*(g2.vertex_xy - g1.vertex_xy)) < DENOM_TOL:
        raise ConfigurationError("fan vertices coincide")
    pts = domain.boundary_points(_BOUNDARY_SAMPLES)
    fans = (("fan_", g2),) if pair.kind == "par-fan" else (("fan1_", g1), ("fan2_", g2))
    fan_margins, angles = {}, []
    for tag, geom in fans:
        try:
            r, dist = geom.inverse(pts)
        except SingularPointError:
            r, dist = None, np.hypot(*(pts - geom.vertex_xy).T)
        fan_margins.update({tag + k: v for k, v in _fan_margins(geom, domain, dist, r).items()})
        angles.append(r)
    if any(r is None for r in angles):
        return AdmissibilityReport(fan_margins)
    if pair.kind == "par-fan":
        margins = _parfan_margins(g1, g2, domain, *angles)
    else:
        margins = _fanfan_margins(g1, g2, domain, pts, *angles)
    return AdmissibilityReport({**margins, **fan_margins})


def pair_orientation(pair: PairGeometry) -> int:
    """Orientation sign of a fan-fan pair (+1 if the domain lies on the
    positive side of the vertex line in the labeled order)."""
    if pair.kind != "fan-fan":
        raise ConfigurationError("orientation is defined for fan-fan pairs only")
    return _orientation(pair.first.vertex_xy, pair.second.vertex_xy, pair.domain)


def fan_pair(vertex1, vertex2, mu: float, domain: ImageDomain) -> PairGeometry:
    """Fan-fan pair with one ``mu`` whose views share the branch cut
    ``theta0 = angle of perp(s * (vertex2 - vertex1))``, ``s`` the orientation
    sign: the cut points away from the domain's side of the vertex line."""
    if not np.all(np.isfinite([vertex1, vertex2])):
        raise ConfigurationError("fan vertices must be finite")
    s = _orientation(vertex1, vertex2, domain)
    pd = perp(s * (np.asarray(vertex2, dtype=float) - np.asarray(vertex1, dtype=float)))
    theta0 = math.atan2(pd[1], pd[0])
    return PairGeometry(
        first=FanGeometry(vertex=vertex1, theta0=theta0, mu=mu),
        second=FanGeometry(vertex=vertex2, theta0=theta0, mu=mu),
        domain=domain,
    )


# ---------------------------------------------------------------------------
# Reference configuration


def reference_domain() -> ImageDomain:
    """Convex octagon used by the shipped experiment.

    The square of half-extent 35 cut so that, seen from either reference
    vertex, the domain subtends exactly the half fan angle atan(5/12): it
    keeps the points with |y| <= (5/12)(x + 80), inside view 2's wedge
    from (-80, 0), and |x| <= (5/12)(80 - y), inside view 1's wedge from
    (0, 80).  The wedges' edges cut the square's at x = 4 (bottom and
    top), y = -4 (right and left), x = 18.75 (top) and y = -18.75 (left),
    and meet each other at (-400/17, 400/17).  The octagon maps onto
    itself under (x, y) -> (-y, -x), which swaps the two views.
    """
    return ImageDomain.polygon([[4.0, -35.0], [35.0, -35.0], [35.0, -4.0], [18.75, 35.0], [4.0, 35.0],
                                [-400.0 / 17.0, 400.0 / 17.0], [-35.0, -4.0], [-35.0, -18.75]])


def reference_pair(mu: float = ATTENUATION_MU) -> PairGeometry:
    """The dual-vertex exponential fan pair over the reference domain
    (branch cut at ``theta0 = 3*pi/4``)."""
    return fan_pair(REFERENCE_VERTEX_1, REFERENCE_VERTEX_2, mu, reference_domain())


def reference_view_ranges() -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact angular ranges subtended by the reference domain, per view.

    View 1 looks straight down (central ray angle 3*pi/2 on the branch),
    view 2 looks along +x (central ray angle 2*pi); both wedges have
    half-angle atan(5/12).
    """
    a = HALF_FAN_ANGLE
    c1 = 1.5 * math.pi
    c2 = 2.0 * math.pi
    return (c1 - a, c1 + a), (c2 - a, c2 + a)
