"""Discrete image/detector grids and the pixel-driven pair operator.

Images are flat float64 vectors of length ``nx * ny`` in row-major order with
the x index fastest and the y index increasing upward: ``flat = iy * nx + ix``.
Detector bins are midpoint-aligned: bin ``k`` has center ``lo + (k + 1/2) * width``.
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .consistency import known_kernels
from .errors import ConfigurationError
from .geometry import (
    ATTENUATION_MU,
    ImageDomain,
    PairGeometry,
    check_pair_admissible,
    reference_pair,
    reference_view_ranges,
)

DEFAULT_EXTENT = 70.0
DEFAULT_BINS = 400


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """Square-pixel raster over ``[-extent/2, extent/2]^2``-style boxes.

    ``mask`` flags pixels that participate in projection/reconstruction;
    masked-out pixels are carried as zeros.
    """

    nx: int
    ny: int
    extent: float = DEFAULT_EXTENT
    mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ConfigurationError("image grid needs at least one pixel per axis")
        if not 0 < self.extent < math.inf:
            raise ConfigurationError("image extent must be positive and finite")
        if self.mask is not None:
            m = np.asarray(self.mask, dtype=bool).ravel()
            if m.size != self.nx * self.ny:
                raise ConfigurationError("mask length must equal nx * ny")
            object.__setattr__(self, "mask", m)

    @property
    def n_pixels(self) -> int:
        return self.nx * self.ny

    @property
    def pixel_size(self) -> tuple[float, float]:
        return self.extent / self.nx, self.extent / self.ny

    @property
    def pixel_area(self) -> float:
        dx, dy = self.pixel_size
        return dx * dy

    def pixel_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Pixel-center abscissae ``xs`` (length nx) and ordinates ``ys`` (length ny)."""
        dx, dy = self.pixel_size
        xs = -0.5 * self.extent + dx * (np.arange(self.nx) + 0.5)
        ys = -0.5 * self.extent + dy * (np.arange(self.ny) + 0.5)
        return xs, ys

    def pixel_centers(self, idx=None) -> np.ndarray:
        """Centers of the pixels with flat indices ``idx``, shape (len(idx), 2).

        ``idx`` defaults to every pixel, in flat order.
        """
        xs, ys = self.pixel_axes()
        idx = np.arange(self.n_pixels) if idx is None else np.asarray(idx)
        return np.stack([xs[idx % self.nx], ys[idx // self.nx]], axis=-1)

    @staticmethod
    def from_domain(nx: int, ny: int, domain: ImageDomain, extent: float = DEFAULT_EXTENT) -> "ImageGrid":
        """Grid whose mask keeps the pixels lying entirely inside ``domain``.

        Membership requires the pixel center and all four corners inside.
        Center-only membership lets boundary pixels poke outside the
        domain; their angular footprints then extend past a detector range
        that ends exactly at the domain's silhouette, and the truncated
        deposits break the range-condition structure of the discrete
        system.

        The five points are tested row by row: :meth:`ImageDomain.contains_xy`
        gets the shifted abscissae ``xs + sx`` against the column of shifted
        ordinates ``ys[:, None] + sy``, so a polygon's edge crossings are
        computed once per pixel row, not once per pixel.
        """
        grid = ImageGrid(nx=nx, ny=ny, extent=extent)
        xs, ys = grid.pixel_axes()
        ys = ys[:, None]
        hx, hy = 0.5 * grid.pixel_size[0], 0.5 * grid.pixel_size[1]
        mask = domain.contains_xy(xs, ys)
        for sx in (-hx, hx):
            for sy in (-hy, hy):
                mask &= domain.contains_xy(xs + sx, ys + sy)
        return ImageGrid(nx=nx, ny=ny, extent=extent, mask=mask)


@dataclass(frozen=True, eq=False)
class DetectorGrid:
    """Uniform bins over a ray-parameter interval ``(lo, hi)``.

    The parameter is an angle (radians, on the fan branch) for fan views and
    a signed offset for parallel views.  ``view`` tags which component of a
    pair the grid belongs to (1 or 2).
    """

    view: int
    n_bins: int
    lo: float
    hi: float

    def __post_init__(self):
        if self.view not in (1, 2):
            raise ConfigurationError("view must be 1 or 2")
        if self.n_bins < 1:
            raise ConfigurationError("need at least one bin")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigurationError("detector range must be finite")
        if not self.hi > self.lo:
            raise ConfigurationError("detector range must have hi > lo")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.n_bins

    @property
    def centers(self) -> np.ndarray:
        return self.lo + self.width * (np.arange(self.n_bins) + 0.5)

    @property
    def center(self) -> float:
        """Midpoint of the range (the central-ray parameter for the shipped setups)."""
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True, eq=False)
class ProjectionData:
    """Per-bin values of a projection on a detector grid."""

    grid: DetectorGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.grid.n_bins:
            raise ConfigurationError("values length must equal the number of bins")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError(f"view {self.grid.view} values must be finite numbers")
        object.__setattr__(self, "values", v)


def rasterize(func: Callable, grid: ImageGrid) -> np.ndarray:
    """Sample ``func`` at pixel centers, zero outside the mask.

    ``func`` maps points of shape (n, 2) to n values.  With a mask it is
    called on the centers of the masked pixels only.
    """
    if grid.mask is None:
        return np.asarray(func(grid.pixel_centers()), dtype=float).ravel()
    idx = np.flatnonzero(grid.mask)
    vals = np.zeros(grid.n_pixels)
    vals[idx] = np.asarray(func(grid.pixel_centers(idx)), dtype=float).ravel()
    return vals


def _window(a: np.ndarray, b: np.ndarray, n: int, pad: int, width=None):
    """Place a window over each footprint ``[a, b)`` (bin units) and ``pad`` bins each side.

    Footprints are clipped to the ``n`` bins and every window lies inside
    ``[0, n)``.  ``width`` is one window length for all footprints or, when
    None, each footprint's clipped length plus ``2 * pad``, capped at ``n``.
    Returns ``(start, width)``: each window's first bin and its length.
    """
    first = np.clip(np.floor(a), 0, n - 1).astype(np.int64)
    if width is None:
        last = np.clip(np.ceil(b) - 1, 0, n - 1).astype(np.int64)
        width = np.minimum(n, last - first + 1 + 2 * pad)
    return np.clip(first - pad, 0, n - width), width


def _kernel_moment_fix(
    det: DetectorGrid, a, b, r, coeff, kern: Callable, start, weights
) -> tuple[np.ndarray, np.ndarray]:
    """Signed per-pixel corrections making the sampled kernel annihilate a column.

    For each pixel whose ray angle ``r`` lies inside the detector range, finds
    the minimum-norm change of its deposit, over the footprint bins plus one
    neighbour on each side (two on one side at a range end), after which the
    deposit has mass ``coeff``, centroid ``r`` and kernel moment
    ``sum_k A_k * V(c_k) * width = coeff * V(r)``.  ``start`` and ``weights``
    are the view's window table holding the plain deposits; every window
    must cover the pixel's footprint plus one bin each side.  Returns
    ``(sel, change)``: the table rows of the corrected pixels and the change
    to add to their weights, shape ``(sel.size, width)``, zero outside each
    pixel's support.
    """
    n = det.n_bins
    if n < 3:
        raise ConfigurationError(
            f"view {det.view} has {n} bins; the mu = 0 operator needs at least 3 to keep the range condition exact")
    sel = np.flatnonzero((a + b >= 0.0) & (a + b <= 2.0 * n))
    a, b, r, coeff = a[sel], b[sel], r[sel], coeff[sel]
    bins = start[sel, None] + np.arange(weights.shape[1])
    lo, length = _window(a, b, n, 1)
    valid = (bins >= lo[:, None]) & (bins < (lo + length)[:, None])
    c = det.lo + det.width * (bins + 0.5)
    vc = np.asarray(kern(c), float)
    vr = np.asarray(kern(r), float)
    if not (np.all(np.isfinite(vc)) and np.all(np.isfinite(vr))):
        raise ConfigurationError(f"range-condition kernel is not finite on the view {det.view} detector range")
    # The three moments in centred, scaled form: mass, offset from r in bins,
    # and kernel relative to V(r) minus the mass term, with targets
    # (coeff / width, 0, 0).
    cols = np.stack([np.ones_like(c), (c - r[:, None]) / det.width, vc / vr[:, None] - 1.0], axis=-1)
    cols *= valid[..., None]
    defect = np.stack([coeff / det.width, np.zeros_like(r), np.zeros_like(r)], axis=-1)
    defect -= np.einsum("pk,pkm->pm", weights[sel], cols)
    q, rr = np.linalg.qr(cols)
    z = np.linalg.solve(np.swapaxes(rr, -1, -2), defect[..., None])
    return sel, (q @ z)[..., 0] * valid


class PairOperator:
    """Pixel-driven discretization of two exponential fan projections.

    Each unmasked pixel j deposits the mass
    ``f_j * area * exp(mu * t_j) / t_j`` spread uniformly over the angular
    footprint of width ``pixel_size / t_j`` centered on the pixel's ray
    angle; a bin k receives the overlapping fraction divided by the bin
    width.  Row sums over a fine image therefore converge to bin averages of
    the continuous projection.

    Data are one flat vector of ``n_bins1 + n_bins2`` values: view 1's
    bins, then view 2's.  :meth:`forward` returns it and :meth:`adjoint`
    takes it, so the operator plugs into :func:`cgne_solve` as it is.

    The columns are built once, at construction, into one window table per
    view: ``start`` gives each masked pixel's first bin and ``weights``, of
    shape ``(n_masked, width)``, its deposits into bins ``start + 0`` to
    ``start + width - 1``.  Every window lies inside the detector, so the
    part of a footprint that overhangs the range is simply dropped.  Forward
    and adjoint read the same table, so they are exact transposes of each
    other.

    When the pair admits kernels (``known_kernels(pair)`` is not None, the
    unweighted mu = 0 pair) each deposit is corrected so that the sampled,
    width-weighted kernels ``W = (width1 * V1, -width2 * V2)`` annihilate
    every column exactly, not just approximately: besides its mass, the
    deposit of a pixel whose ray angle lies in the detector range gets its
    centroid at that angle and the kernel moment
    ``sum_k A_kj * V(c_k) * width = area * V(r_j) / t_j``, which the
    kernel condition makes equal across the two views.  The kernel
    ``V = 1 / (perp(direction(r)) . dl)`` is a secant, convex where
    positive, so by Jensen's inequality no non-negative splat meets all
    three moments; the correction is the minimum-norm signed change over
    the footprint bins plus one neighbour on each side.  At desk scale
    (200^2, 2 x 100 bins) the most negative corrected entry is -15% of the
    pixel's total deposit, and -30% in an end bin, where both neighbours
    lie on one side.  The windows are then one bin wider on each side and
    hold footprint plus correction.  Each view then needs at least three
    bins.  For mu != 0 no correction exists or is added.
    """

    def __init__(self, pair: PairGeometry, image: ImageGrid, det1: DetectorGrid, det2: DetectorGrid):
        if pair.kind != "fan-fan":
            raise ConfigurationError("the discrete pair operator supports fan-fan pairs")
        check_pair_admissible(pair).require()
        dx, dy = image.pixel_size
        if abs(dx - dy) > 1e-12 * dx:
            raise ConfigurationError("pixel-driven operator requires square pixels")
        if image.mask is None:
            image = ImageGrid.from_domain(image.nx, image.ny, pair.domain, extent=image.extent)
        self.pair = pair
        self.image = image
        self.dets = (det1, det2)
        self._idx = np.flatnonzero(image.mask)
        if self._idx.size == 0:
            raise ConfigurationError("the image mask keeps no pixel inside the domain")
        centers = image.pixel_centers(self._idx)
        delta = dx
        area = image.pixel_area
        kernels = known_kernels(pair)
        kerns = (None, None) if kernels is None else (kernels.v1, kernels.v2)
        self._tables = []
        for geom, det, kern in zip((pair.first, pair.second), self.dets, kerns):
            r, t = geom.inverse(centers)
            w = delta / t  # angular footprint width
            coeff = area * np.exp(geom.mu * t) / t  # projected mass per unit f
            density = coeff / w
            a = (r - det.lo) / det.width - 0.5 * w / det.width
            b = a + w / det.width
            n = det.n_bins
            pad = 0 if kern is None else 1  # room for the correction's neighbour bins
            width = min(n, int(np.max(np.ceil(b) - np.floor(a), initial=1)) + 2 * pad)
            start, _ = _window(a, b, n, pad, width)
            weights = np.empty((a.size, width))
            # one column at a time, in place: a full (n_masked, width) bin
            # array would raise peak memory at 1000^2 by about a third
            for off in range(width):
                k = start + off
                col = weights[:, off]
                np.minimum(b, k + 1.0, out=col)
                col -= np.maximum(a, k)
                np.clip(col, 0.0, None, out=col)
                col *= density
            if kern is not None:
                sel, change = _kernel_moment_fix(det, a, b, r, coeff, kern, start, weights)
                weights[sel] += change
            self._tables.append((start, weights))

    @property
    def shape(self) -> tuple[int, int]:
        n_data = sum(d.n_bins for d in self.dets)
        return n_data, self.image.n_pixels

    def forward(self, f: np.ndarray) -> np.ndarray:
        """Apply the discrete projection to a flat image vector.

        Returns one flat data vector: view 1's bins, then view 2's.
        """
        f = np.asarray(f, dtype=float).ravel()
        if f.size != self.image.n_pixels:
            raise ConfigurationError("image vector has the wrong length")
        fm = f[self._idx]
        g = np.zeros(self.shape[0])
        for gv, (start, weights) in zip(np.split(g, [self.dets[0].n_bins]), self._tables):
            for off in range(weights.shape[1]):
                gv += np.bincount(start + off, weights=fm * weights[:, off], minlength=gv.size)
        return g

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """Exact transpose of :meth:`forward`, on the same flat data layout."""
        g = np.asarray(g, dtype=float).ravel()
        if g.size != self.shape[0]:
            raise ConfigurationError("data vector has the wrong length")
        acc = np.zeros(self._idx.size)
        for gv, (start, weights) in zip(np.split(g, [self.dets[0].n_bins]), self._tables):
            for off in range(weights.shape[1]):
                acc += weights[:, off] * gv[start + off]
        f = np.zeros(self.image.n_pixels)
        f[self._idx] = acc
        return f


def reference_grids(n_bins: int = DEFAULT_BINS) -> tuple[DetectorGrid, DetectorGrid]:
    """Detector grids spanning exactly the reference view wedges."""
    (lo1, hi1), (lo2, hi2) = reference_view_ranges()
    return DetectorGrid(1, n_bins, lo1, hi1), DetectorGrid(2, n_bins, lo2, hi2)


def reference_operator(nx: int = 200, n_bins: int = 100, mu: float = ATTENUATION_MU) -> PairOperator:
    """The shipped experiment operator at a configurable resolution."""
    pair = reference_pair(mu)
    image = ImageGrid.from_domain(nx, nx, pair.domain, extent=DEFAULT_EXTENT)
    det1, det2 = reference_grids(n_bins)
    return PairOperator(pair, image, det1, det2)


# ---------------------------------------------------------------------------
# File formats


def write_image(path, grid: ImageGrid, values: np.ndarray) -> None:
    """Write an image as a one-line ASCII header plus raw little-endian float64."""
    v = np.asarray(values, dtype="<f8").ravel()
    if v.size != grid.n_pixels:
        raise ConfigurationError("image vector has the wrong length")
    header = f"PPIMG {grid.nx} {grid.ny} {format(grid.extent, '.17g')}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(v.tobytes())


@contextmanager
def _reading(path):
    """Report a file that cannot be opened or parsed as a ConfigurationError."""
    try:
        yield
    except ConfigurationError:
        raise
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None


def read_image(path) -> tuple[ImageGrid, np.ndarray]:
    with _reading(path), open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 4 or header[0] != "PPIMG":
            raise ConfigurationError(f"not an image file: {path}")
        nx, ny, extent = int(header[1]), int(header[2]), float(header[3])
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != nx * ny:
        raise ConfigurationError(f"truncated image file: {path}")
    return ImageGrid(nx=nx, ny=ny, extent=extent), data.copy()


def write_pgm(path, grid: ImageGrid, values: np.ndarray, window: float | None = None, level: float | None = None) -> None:
    """8-bit PGM export with window/level mapping (defaults to full range)."""
    v = np.asarray(values, dtype=float).reshape(grid.ny, grid.nx)
    if window is None or level is None:
        vmin, vmax = float(np.min(v)), float(np.max(v))
        if window is None:
            window = vmax - vmin
        if level is None:
            level = 0.5 * (vmin + vmax)
    if window <= 0:
        window = 1.0
    lo = level - 0.5 * window
    img = np.clip((v - lo) / window, 0.0, 1.0)
    byte = np.round(img * 255.0).astype(np.uint8)[::-1]  # top row first
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.nx} {grid.ny}\n255\n".encode("ascii"))
        fh.write(byte.tobytes())


def write_projection_csv(path, data: ProjectionData) -> None:
    """CSV with 17 significant digits: reproducible to the last bit."""
    g = data.grid
    buf = io.StringIO()
    buf.write("# view,n_bins,lo,hi\n")
    buf.write(f"# {g.view},{g.n_bins},{format(g.lo, '.17g')},{format(g.hi, '.17g')}\n")
    buf.write("r,value\n")
    for r, val in zip(g.centers, data.values):
        buf.write(f"{format(r, '.17g')},{format(val, '.17g')}\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(buf.getvalue())


def read_projection_csv(path) -> ProjectionData:
    with _reading(path):
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if len(lines) < 3 or not lines[1].startswith("# "):
            raise ConfigurationError(f"not a projection file: {path}")
        view, n_bins, lo, hi = lines[1][2:].split(",")
        grid = DetectorGrid(int(view), int(n_bins), float(lo), float(hi))
        vals = np.array([float(line.split(",")[1]) for line in lines[3:] if line])
    return ProjectionData(grid=grid, values=vals)
