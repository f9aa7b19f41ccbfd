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
from functools import cached_property
from numbers import Integral
from typing import Callable

import numpy as np

from .consistency import _kernel_samples, _require_view_order, known_kernels
from .errors import ConfigurationError
from .geometry import (
    ATTENUATION_MU,
    ImageDomain,
    PairGeometry,
    check_pair_admissible,
    reference_pair,
    reference_view_ranges,
)
from .parallel import two_threads

DEFAULT_EXTENT = 70.0
DEFAULT_BINS = 400
# Pixels per block of the operator build: 256 KB per float64 array, so a
# block's per-pixel temporaries stay in cache.  A fixed rule, not a setting.
_BLOCK = 32768


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """Square-pixel raster over ``[-extent/2, extent/2]^2``-style boxes.

    ``mask`` flags pixels that participate in projection/reconstruction;
    masked-out pixels are carried as zeros.  The grid keeps a read-only
    flat copy of it.
    """

    nx: int
    ny: int
    extent: float = DEFAULT_EXTENT
    mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (isinstance(self.nx, Integral) and isinstance(self.ny, Integral)):
            raise ConfigurationError("image grid pixel counts must be integers")
        if self.nx < 1 or self.ny < 1:
            raise ConfigurationError("image grid needs at least one pixel per axis")
        if not 0 < self.extent < math.inf:
            raise ConfigurationError("image extent must be positive and finite")
        if self.mask is not None:
            # a read-only copy: the operator's pixel list is taken from it
            # once, and rasterize reads it again later
            m = np.array(self.mask, dtype=bool).ravel()
            if m.size != self.nx * self.ny:
                raise ConfigurationError("mask length must equal nx * ny")
            m.flags.writeable = False
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

    @cached_property
    def center_xy(self) -> np.ndarray:
        """Abscissae (row 0) and ordinates (row 1) of the centers of the
        pixels the mask keeps (every pixel without a mask), in flat order.

        Formed once per grid and read-only: the operator build reads the
        two contiguous rows, and :func:`rasterize` their transpose, with
        no copy."""
        shape = (self.ny, self.nx)
        keep = np.ones(shape, dtype=bool) if self.mask is None else self.mask.reshape(shape)
        return _centers(*self.pixel_axes(), keep)

    def _keep(self, keep: np.ndarray) -> "ImageGrid":
        """The grid whose mask keeps the pixels this grid's mask keeps where
        ``keep``, one flag per such pixel in flat order, is True.

        Its :attr:`center_xy` are this grid's columns where ``keep``, the
        same floats in the same order as it would form them, without a
        pass over the whole grid: set as the cached value."""
        mask = np.zeros(self.n_pixels, dtype=bool)
        mask[np.flatnonzero(self.mask)[keep]] = True
        grid = ImageGrid(nx=self.nx, ny=self.ny, extent=self.extent, mask=mask)
        xy = self.center_xy.compress(keep, axis=1)
        xy.flags.writeable = False
        grid.__dict__["center_xy"] = xy
        return grid

    @staticmethod
    def from_domain(nx: int, ny: int, domain: ImageDomain, extent: float = DEFAULT_EXTENT) -> "ImageGrid":
        """Grid whose mask keeps the pixels lying entirely inside ``domain``.

        Membership requires the pixel center and all four corners inside.
        Center-only membership lets boundary pixels poke outside the
        domain; their angular footprints then extend past a detector range
        that ends exactly at the domain's silhouette, and the truncated
        deposits break the range-condition structure of the discrete
        system.

        The five points are tested row by row (:func:`_inside`), so a
        polygon's edge crossings are computed once per pixel row, not once
        per pixel.
        """
        grid = ImageGrid(nx=nx, ny=ny, extent=extent)
        return ImageGrid(nx=nx, ny=ny, extent=extent, mask=_inside(domain, grid, *grid.pixel_axes()))

    @staticmethod
    def _bump_cover(nx: int, ny: int, extent: float, domain: ImageDomain, bumps) -> "ImageGrid":
        """Grid whose mask keeps the pixels of :meth:`from_domain`'s mask that
        lie in some bump's box of pixel rows and columns.

        ``bumps`` are taken by their ``center`` and ``radius`` (``phantom``
        imports this module).  A bump's box is the rows with
        ``|ys - cy| < radius`` and the columns with ``|xs - cx| < radius``,
        each one contiguous slice of the monotone axes, and membership is
        tested only within it (:func:`_inside`); overlapping boxes test
        their common pixels twice, with the same result.

        :func:`rasterize` of the bumps' phantom on this grid is bitwise the
        image on :meth:`from_domain`'s grid.  The box is the test
        :func:`~projpair.phantom.bump_eval` makes, on the same floats, before
        it evaluates a bump: outside it ``|dx| >= radius`` or
        ``|dy| >= radius``, so by monotone rounding ``s2 >= 1`` there and that
        bump adds nothing.  A domain pixel outside every box holds +0.0 on
        both grids, and at every pixel inside a box each bump's contribution
        is added in bump order, as on the whole domain.

        Its :attr:`center_xy` are taken within the union box of the bumps'
        boxes, which holds every pixel the mask keeps, in the same flat
        order: the same floats as from the whole grid, without a pass over
        it.
        """
        grid = ImageGrid(nx=nx, ny=ny, extent=extent)
        xs, ys = grid.pixel_axes()
        mask = np.zeros((ny, nx), dtype=bool)
        r0, r1, c0, c1 = ny, 0, nx, 0  # the union box, empty
        for b in bumps:
            cx, cy = b.center
            rows = np.flatnonzero(np.abs(ys - cy) < b.radius)
            cols = np.flatnonzero(np.abs(xs - cx) < b.radius)
            if rows.size and cols.size:
                r, c = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
                mask[r, c] |= _inside(domain, grid, xs[c], ys[r])
                r0, r1, c0, c1 = min(r0, r.start), max(r1, r.stop), min(c0, c.start), max(c1, c.stop)
        cover = ImageGrid(nx=nx, ny=ny, extent=extent, mask=mask)
        cover.__dict__["center_xy"] = _centers(xs[c0:c1], ys[r0:r1], mask[r0:r1, c0:c1])
        return cover


def _centers(xs: np.ndarray, ys: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Abscissae (row 0) and ordinates (row 1) of the pixels centred at
    ``xs`` and ``ys`` where ``keep``, of shape ``(ys.size, xs.size)``, is
    True, in flat order; read-only."""
    xy = np.stack((np.broadcast_to(xs, keep.shape)[keep], np.repeat(ys, np.count_nonzero(keep, axis=1))))
    xy.flags.writeable = False
    return xy


def _inside(domain: ImageDomain, grid: ImageGrid, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Which of ``grid``'s pixels centred at the abscissae ``xs`` and the
    ordinates ``ys`` have their centre and four corners inside ``domain``,
    shape ``(ys.size, xs.size)``.

    :meth:`ImageDomain.contains_xy` gets the shifted abscissae ``xs + sx``
    against the column of shifted ordinates ``ys[:, None] + sy``.  ``xs`` and
    ``ys`` are slices of the grid's own :meth:`ImageGrid.pixel_axes`, and
    each point's test depends on that point alone, so a pixel gets the same
    answer in any slice that holds it.
    """
    ys = ys[:, None]
    hx, hy = 0.5 * grid.pixel_size[0], 0.5 * grid.pixel_size[1]
    mask = domain.contains_xy(xs, ys)
    for sx in (-hx, hx):
        for sy in (-hy, hy):
            mask &= domain.contains_xy(xs + sx, ys + sy)
    return mask


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
        if not isinstance(self.n_bins, Integral):
            raise ConfigurationError("the number of bins must be an integer")
        if self.n_bins < 1:
            raise ConfigurationError("need at least one bin")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigurationError("detector range must be finite")
        if not self.hi > self.lo:
            raise ConfigurationError("detector range must have hi > lo")
        if not math.isfinite(self.hi - self.lo):
            raise ConfigurationError(f"view {self.view} detector range width hi - lo overflows")

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

    ``func`` maps points of shape (n, 2) to n values; it gets a read-only
    view of the grid's centers.  With a mask it is called on the centers of
    the masked pixels only.
    """
    vals = np.asarray(func(grid.center_xy.T), dtype=float).ravel()
    if grid.mask is None:
        return vals
    image = np.zeros(grid.n_pixels)
    image[grid.mask] = vals
    return image


def _view_table(geom, det: DetectorGrid, x, y, delta: float, area: float):
    """One view's window table ``(start, weights)`` over the pixels centred at
    ``x``, ``y``, with ``delta`` the pixel side: see :class:`PairOperator`.
    Built on the calling thread, block by block."""
    m = x.size
    n = det.n_bins
    blocks = [slice(i, i + _BLOCK) for i in range(0, m, _BLOCK)]
    a, b, density = np.empty(m), np.empty(m), np.empty(m)
    # Pass 1: each pixel's footprint [a, b) in bin units and its density,
    # and each block's widest footprint, in bins it touches
    spans = []
    for s in blocks:
        r, t = geom.inverse_xy(x[s], y[s])
        w = delta / t  # angular footprint width
        coeff = area * np.exp(geom.mu * t) / t  # projected mass per unit f
        np.divide(coeff, w, out=density[s])
        np.divide(r - det.lo, det.width, out=a[s])
        a[s] -= 0.5 * w / det.width
        np.add(a[s], w / det.width, out=b[s])
        touched = np.ceil(b[s])
        touched -= np.floor(a[s])
        spans.append(np.max(touched, initial=1.0))
    width = min(n, int(np.max(spans)))
    start = np.empty(m, dtype=np.int64)
    weights = np.empty((width, m))
    # Pass 2: each block's columns of start and weights; a window starts at
    # its footprint's first bin, clipped so that it lies inside the detector
    for s in blocks:
        a_s, b_s = a[s], b[s]
        start[s] = np.clip(np.floor(a_s), 0, n - width)
        # The bin edges k and k + 1 are exact in float, so they are formed
        # from one float copy of start into one scratch buffer.
        first = start[s].astype(float)
        edge = np.empty_like(first)
        for off, row in enumerate(weights[:, s]):
            np.add(first, off + 1.0, out=edge)
            np.minimum(b_s, edge, out=row)
            np.add(first, float(off), out=edge)
            row -= np.maximum(a_s, edge, out=edge)
            np.maximum(row, 0.0, out=row)
            row *= density[s]
    return start, weights


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
    shape ``(width, n_masked)``, its deposits into bins ``start + 0`` to
    ``start + width - 1``.  The table is offset-major: row ``off`` holds every
    pixel's deposit into bin ``start + off``, contiguous, so forward adds
    ``bincount(start, fm * weights[off])`` into the bins from ``off`` on and
    adjoint gathers ``g[off:][start]``; no ``start + off`` array is formed.
    The sums are the ones a ``bincount(start + off)`` into all bins makes,
    over the same pixels in the same order.  Every window lies inside the
    detector, so the part of a footprint that overhangs the range is simply
    dropped.  Forward and adjoint read the same table, so they are exact
    transposes of each other.

    Each view's table is built on one thread, in blocks of ``_BLOCK``
    pixels, in two passes over the blocks: the first finds each pixel's
    footprint ``[a, b)`` in bin units and its density, and the widest
    footprint, the second places the windows and fills them.  Every step
    works on one pixel at a time, so the table is bitwise the same as one
    built on all pixels at once, but a block's temporaries stay in cache and
    are never larger than a block.  The two views are built on two threads
    (:func:`two_threads`), as ``check`` projects them, so both views'
    per-pixel arrays are alive at once; view 1's error is raised first,
    else view 2's.

    When the pair admits kernels (``known_kernels(pair)`` is not None, the
    unweighted mu = 0 pair) the data are projected off the sampled,
    width-weighted kernels ``W = (width1 * V1, -width2 * V2)`` of
    :func:`~projpair.consistency._kernel_samples`, the ``W`` that ``check``
    and the residual floor read: with ``P = I - W W^T / ||W||^2``,
    :meth:`forward` returns ``P (A f)`` and :meth:`adjoint` ``A^T (P g)``.
    ``P`` is symmetric, so the two stay transposes of each other, and
    ``<W, forward(f)> = 0`` to roundoff for every ``f``: the discrete range
    condition holds exactly, as the continuous one does, and the residual
    floor of an obstructed target is the condition's, not a discretization
    artifact that CGNE could fit.  The splat alone meets it only to about
    1e-6 relative (random images at 200^2, 2 x 100 bins), and exact bin
    averages of a smooth image to 6e-7, so ``P`` moves the views by no more
    than the splat's own error.  For mu != 0 there is no ``W`` and no
    projection.

    Any mask will do, and ``project --mode discrete`` builds the operator
    over the pixels its phantom covers only, having tested domain membership
    and evaluated the phantom only within the bumps' boxes of pixel rows and
    columns (:meth:`ImageGrid._bump_cover`).  Its views are bitwise those of
    the operator over the whole domain when both tables have the same width:
    each column is built from its own pixel alone, and a pixel left out
    would only add ``0 * w`` (+0.0 or -0.0) to ``bincount`` sums that start
    at +0.0, which changes none of them.  The width follows the widest
    footprint among the pixels built, so fewer pixels can make it narrower.
    A window clipped at the upper range end then starts at another bin and
    its deposits are summed in another ``off`` row, so the last digits of a
    few bins can change.  Measured with random phantoms, at either mu: no
    case in 39 three-bump phantoms at 100^2 to 1000^2 with 2 x 100 or
    2 x 400 bins, nor in 48 one-bump phantoms at 120^2 with 2 x 4 bins.
    """

    def __init__(self, pair: PairGeometry, image: ImageGrid, det1: DetectorGrid, det2: DetectorGrid):
        if pair.kind != "fan-fan":
            raise ConfigurationError("the discrete pair operator supports fan-fan pairs")
        _require_view_order((det1, det2))
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
        kernels = known_kernels(pair)
        w = None if kernels is None else _kernel_samples(self.dets, kernels)
        self._unit_w = None if w is None else w / math.sqrt(np.add.reduce(w * w))
        x, y = image.center_xy
        self._tables = two_threads(lambda view: _view_table(*view, x, y, dx, image.pixel_area),
                                   (pair.first, det1), (pair.second, det2))

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
            for off, row in enumerate(weights):
                # start <= n_bins - width, so the count has exactly n_bins - off bins
                gv[off:] += np.bincount(start, weights=fm * row, minlength=gv.size - off)
        return self._project(g)

    def _project(self, g: np.ndarray) -> np.ndarray:
        """``P g = g - u <u, g>`` for the unit kernels ``u = W / ||W||`` when
        the pair has them, else ``g`` itself.  The dot product is numpy's
        pairwise sum, the same on any number of BLAS threads."""
        u = self._unit_w
        return g if u is None else g - u * np.add.reduce(u * g)

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """Exact transpose of :meth:`forward`, on the same flat data layout."""
        g = np.asarray(g, dtype=float).ravel()
        if g.size != self.shape[0]:
            raise ConfigurationError("data vector has the wrong length")
        g = self._project(g)
        acc = np.zeros(self._idx.size)
        for gv, (start, weights) in zip(np.split(g, [self.dets[0].n_bins]), self._tables):
            for off, row in enumerate(weights):
                acc += row * gv[off:][start]
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
        fh.write(memoryview(v))  # the array's own buffer, not a copy


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
