"""Discrete pixel-driven operator: oracle match, adjointness, conservation, I/O."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projpair as pp


def pixel_centers(image, idx=None):
    """Centers of the pixels with flat indices ``idx`` (default every pixel,
    in flat order), shape (len(idx), 2)."""
    xs, ys = image.pixel_axes()
    idx = np.arange(image.n_pixels) if idx is None else np.asarray(idx)
    return np.stack([xs[idx % image.nx], ys[idx // image.nx]], axis=-1)


def brute_force_matrix(pair, image, det1, det2):
    """Dense operator matrix assembled with scalar loops.

    Re-derives the deposit rule from the operator contract: pixel mass
    area*exp(mu*t)/t spread uniformly over the angular footprint of width
    pixel/t, each bin taking overlap/bin_width of the density.
    """
    idx = np.flatnonzero(image.mask)
    centers = pixel_centers(image)
    delta = image.pixel_size[0]
    area = image.pixel_area
    rows = det1.n_bins + det2.n_bins
    A = np.zeros((rows, image.n_pixels))
    for view, (geom, det, row0) in enumerate(
            [(pair.first, det1, 0), (pair.second, det2, det1.n_bins)]):
        vx, vy = geom.vertex
        for j in idx:
            x, y = centers[j]
            t = math.hypot(x - vx, y - vy)
            r = math.atan2(y - vy, x - vx)
            while r < geom.theta0:
                r += 2.0 * math.pi
            while r >= geom.theta0 + 2.0 * math.pi:
                r -= 2.0 * math.pi
            w = delta / t
            mass = area * math.exp(geom.mu * t) / t
            lo_edge, hi_edge = r - 0.5 * w, r + 0.5 * w
            for k in range(det.n_bins):
                b_lo = det.lo + k * det.width
                b_hi = b_lo + det.width
                ov = min(hi_edge, b_hi) - max(lo_edge, b_lo)
                if ov > 0:
                    A[row0 + k, j] += mass * ov / (w * det.width)
    return A


def small_setup(mu=-0.2, bins=(9, 9), cover=1.0):
    """Two fans over a disc; each detector spans the middle ``cover`` of its view range."""
    dom = pp.ImageDomain.disc((0.0, 0.0), 14.0)
    pair = pp.PairGeometry(
        pp.FanGeometry((0.0, 60.0), theta0=math.pi / 2, mu=mu),
        pp.FanGeometry((-65.0, 5.0), theta0=-math.pi / 2, mu=mu),
        dom,
    )
    image = pp.ImageGrid(12, 12, 32.0)
    dets = []
    for view, geom, n in ((1, pair.first, bins[0]), (2, pair.second, bins[1])):
        lo, hi = pp.view_range(geom, dom)
        trim = 0.5 * (1.0 - cover) * (hi - lo)
        dets.append(pp.DetectorGrid(view, n, lo + trim, hi - trim))
    return pair, image, dets[0], dets[1]


# The full view ranges, detectors over the middle half (footprints overhang
# an end or miss the detector), and bins narrow enough that each footprint
# spans several of them.
BRUTE_FORCE_SETUPS = ({}, {"cover": 0.5}, {"bins": (60, 64)})


def test_forward_matches_brute_force():
    rng = np.random.default_rng(31)
    for setup in BRUTE_FORCE_SETUPS:
        pair, image, d1, d2 = small_setup(**setup)
        op = pp.PairOperator(pair, image, d1, d2)
        A = brute_force_matrix(pair, op.image, d1, d2)
        for _ in range(5):
            f = rng.normal(size=op.image.n_pixels)
            want = A @ np.where(op.image.mask, f, 0.0)
            np.testing.assert_allclose(op.forward(f), want, atol=1e-13)


def test_adjoint_matches_brute_force():
    rng = np.random.default_rng(32)
    for setup in BRUTE_FORCE_SETUPS:
        pair, image, d1, d2 = small_setup(**setup)
        op = pp.PairOperator(pair, image, d1, d2)
        A = brute_force_matrix(pair, op.image, d1, d2)
        g = rng.normal(size=d1.n_bins + d2.n_bins)
        back = op.adjoint(g)
        np.testing.assert_allclose(back, A.T @ g, atol=1e-13)


def test_adjoint_identity_64():
    """<Af, g> == <f, A^T g> to 1e-12 relative, the criterion-5 shapes."""
    rng = np.random.default_rng(20240501)
    for mu in (0.0, -0.154):
        op = pp.reference_operator(nx=64, n_bins=32, mu=mu)
        for _ in range(10):
            f = rng.normal(size=op.image.n_pixels)
            g = rng.normal(size=64)
            lhs = op.forward(f) @ g
            rhs = f @ op.adjoint(g)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    nx=st.integers(8, 40),
    bins=st.tuples(st.integers(3, 30), st.integers(3, 30)),
    mu=st.sampled_from([0.0, -0.154]),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_identity_random_grids(nx, bins, mu, seed):
    """<Af, g> == <f, A^T g> on random small reference systems, both mu."""
    pair = pp.reference_pair(mu)
    (lo1, hi1), (lo2, hi2) = pp.reference_view_ranges()
    d1, d2 = pp.DetectorGrid(1, bins[0], lo1, hi1), pp.DetectorGrid(2, bins[1], lo2, hi2)
    op = pp.PairOperator(pair, pp.ImageGrid.from_domain(nx, nx, pair.domain), d1, d2)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=op.image.n_pixels)
    g = rng.normal(size=sum(bins))
    af, atg = op.forward(f), op.adjoint(g)
    scale = np.linalg.norm(af) * np.linalg.norm(g) + np.linalg.norm(f) * np.linalg.norm(atg)
    assert abs(af @ g - f @ atg) <= 1e-12 * scale


def test_forward_puts_view_1_first():
    """The data vector holds view 1's bins first: with 40 and 48 bins, one
    off-centre pixel deposits its view-1 mass (distance to vertex 1) in the
    first 40 entries and its view-2 mass in the other 48, and the adjoint
    reads the same layout."""
    pair = pp.reference_pair(mu=-0.154)
    mask = np.zeros(49, dtype=bool)
    mask[25] = True  # the pixel centred at (10, 0) of a 7x7 grid
    (lo1, hi1), (lo2, hi2) = pp.reference_view_ranges()
    d1, d2 = pp.DetectorGrid(1, 40, lo1, hi1), pp.DetectorGrid(2, 48, lo2, hi2)
    op = pp.PairOperator(pair, pp.ImageGrid(7, 7, 70.0, mask=mask), d1, d2)
    assert op.shape == (88, 49)
    f = np.zeros(49)
    f[25] = 1.0
    g = op.forward(f)
    assert g.shape == (88,)
    for geom, det, bins in zip((pair.first, pair.second), op.dets, np.split(np.arange(88), [40])):
        t = math.hypot(10.0 - geom.vertex[0], 0.0 - geom.vertex[1])
        want = 100.0 * math.exp(-0.154 * t) / t
        mass = np.sum(g[bins])
        assert abs(mass * det.width - want) < 1e-12 * want
        ones = np.zeros(88)
        ones[bins] = 1.0
        assert abs(op.adjoint(ones)[25] - mass) < 1e-12 * mass


def test_single_pixel_mass():
    """One pixel at the origin: everything it deposits sums to its mass."""
    pair = pp.reference_pair(mu=0.0)
    mask = np.zeros(49, dtype=bool)
    mask[24] = True  # center pixel of a 7x7 grid is exactly at the origin
    image = pp.ImageGrid(7, 7, 70.0, mask=mask)
    d1, d2 = pp.reference_grids(n_bins=100)
    op = pp.PairOperator(pair, image, d1, d2)
    f = np.zeros(49)
    f[24] = 1.0
    g1, g2 = np.split(op.forward(f), [d1.n_bins])
    want = 100.0 / 80.0  # area / distance, mu = 0
    assert abs(np.sum(g1) * d1.width - want) < 1e-12
    assert abs(np.sum(g2) * d2.width - want) < 1e-12
    # deposits center on the pixel's ray angles (down from v1, right from v2)
    c1 = (g1 @ d1.centers) / np.sum(g1)
    c2 = (g2 @ d2.centers) / np.sum(g2)
    assert abs(c1 - 1.5 * math.pi) < 1e-9
    assert abs(c2 - 2.0 * math.pi) < 1e-9


def test_single_pixel_mass_weighted():
    pair = pp.reference_pair(mu=-0.154)
    mask = np.zeros(49, dtype=bool)
    mask[24] = True
    image = pp.ImageGrid(7, 7, 70.0, mask=mask)
    d1, d2 = pp.reference_grids(n_bins=100)
    op = pp.PairOperator(pair, image, d1, d2)
    f = np.zeros(49)
    f[24] = 1.0
    g1 = op.forward(f)[:d1.n_bins]
    want = 100.0 * math.exp(-0.154 * 80.0) / 80.0
    assert abs(np.sum(g1) * d1.width - want) < 1e-12 * want


def test_kernels_annihilate_mu_zero_range():
    """At mu = 0 the width-weighted sampled kernels W = (w1 V1, -w2 V2) are
    orthogonal to every column: ||A^T W|| is roundoff against ||A|| ||W||
    (the uncorrected box splat leaves 9e-4 at desk scale)."""
    pair, image, d1, d2 = small_setup(mu=0.0, bins=(9, 13))
    for op in (pp.reference_operator(nx=64, n_bins=32, mu=0.0),
               pp.PairOperator(pair, image, d1, d2)):
        kernels = pp.known_kernels(op.pair)
        e1, e2 = op.dets
        W = np.concatenate([e1.width * kernels.v1(e1.centers),
                            -e2.width * kernels.v2(e2.centers)])
        A = np.stack([op.adjoint(e) for e in np.eye(op.shape[0])])
        assert np.linalg.norm(W @ A) <= 1e-14 * np.linalg.norm(A, 2) * np.linalg.norm(W)


def test_mu_zero_operator_converges_to_bin_averages():
    """Criterion 9's measure at mu = 0: the discrete views of a smooth
    phantom approach the bin averages of its continuous projections, with
    order >= 1 in the pixel size from 200^2 to 800^2 (2 x 100 bins)."""
    pair = pp.reference_pair(mu=0.0)
    ph = pp.random_phantom(np.random.default_rng(20240501), pair.domain, n_bumps=3)
    x, w = np.polynomial.legendre.leggauss(8)
    d1, d2 = pp.reference_grids(100)
    ref = []
    for geom, det in ((pair.first, d1), (pair.second, d2)):
        r = (det.lo + det.width * (np.arange(det.n_bins)[:, None] + 0.5 * (1.0 + x))).ravel()
        ref.append(pp.project_values(geom, ph, r).reshape(det.n_bins, 8) @ (w / 2.0))
    ref = np.concatenate(ref)
    errs = []
    for nx in (200, 400, 800):
        op = pp.reference_operator(nx=nx, n_bins=100, mu=0.0)
        errs.append(np.linalg.norm(op.forward(pp.rasterize(ph, op.image)) - ref) / np.linalg.norm(ref))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.0, (errs, orders)


@pytest.mark.parametrize("bins", [2, 1])
def test_mu_zero_operator_with_few_bins_annihilates_its_range(bins):
    # the range condition needs no minimum bin count: with one bin per view
    # the range is the one line of the plane orthogonal to W
    pair, image, _, _ = small_setup(mu=0.0)
    dets = [pp.DetectorGrid(v, bins, *pp.view_range(g, pair.domain)) for v, g in ((1, pair.first), (2, pair.second))]
    op = pp.PairOperator(pair, image, *dets)
    kernels = pp.known_kernels(pair)
    W = np.concatenate([dets[0].width * kernels.v1(dets[0].centers), -dets[1].width * kernels.v2(dets[1].centers)])
    A = np.stack([op.adjoint(e) for e in np.eye(op.shape[0])])
    assert np.linalg.norm(A) > 0
    assert np.linalg.norm(W @ A) <= 1e-14 * np.linalg.norm(A, 2) * np.linalg.norm(W)


def test_mass_conservation_random_image():
    op = pp.reference_operator(nx=64, n_bins=100, mu=-0.154)
    rng = np.random.default_rng(34)
    f = rng.uniform(0.0, 1.0, size=op.image.n_pixels)
    centers = pixel_centers(op.image)[op.image.mask]
    fm = f[op.image.mask]
    g1, g2 = np.split(op.forward(f), [op.dets[0].n_bins])
    for geom, det, g in ((op.pair.first, op.dets[0], g1), (op.pair.second, op.dets[1], g2)):
        t = np.hypot(*(centers - np.asarray(geom.vertex)).T)
        masses = fm * op.image.pixel_area * np.exp(geom.mu * t) / t
        assert abs(np.sum(g) * det.width - np.sum(masses)) < 1e-12 * np.sum(masses)


def test_strict_mask_keeps_whole_squares_inside():
    op = pp.reference_operator(nx=200, n_bins=100)
    image = op.image
    centers = pixel_centers(image)
    h = 0.5 * image.pixel_size[0]
    dom = op.pair.domain
    kept = image.mask
    for sx in (-h, h):
        for sy in (-h, h):
            assert dom.contains(centers[kept] + np.array([sx, sy])).all()
    assert int(kept.sum()) == 30891
    # and no footprint pokes past either detector range
    for geom, det in zip((op.pair.first, op.pair.second), op.dets):
        r, t = geom.inverse(centers[kept])
        w = image.pixel_size[0] / t
        assert (r - 0.5 * w >= det.lo).all()
        assert (r + 0.5 * w <= det.hi).all()


def test_forward_tracks_continuous_projection():
    pair = pp.reference_pair()
    rng = np.random.default_rng(20240501)
    ph = pp.random_phantom(rng, pair.domain)
    det1, det2 = pp.reference_grids(n_bins=100)
    op = pp.PairOperator(pair, pp.ImageGrid(200, 200, 70.0), det1, det2)
    g1, g2 = np.split(op.forward(pp.rasterize(ph, op.image)), [det1.n_bins])
    for det, geom, g in ((det1, pair.first, g1), (det2, pair.second, g2)):
        ref = pp.project_values(geom, ph, det.centers)
        err = np.linalg.norm(g - ref) / np.linalg.norm(ref)
        assert err < 0.01


def test_operator_rejects_bad_configurations():
    pair = pp.reference_pair()
    d1, d2 = pp.reference_grids(n_bins=16)
    with pytest.raises(pp.ConfigurationError):
        pp.PairOperator(pair, pp.ImageGrid(32, 48, 70.0), d1, d2)  # non-square pixels
    dom = pp.ImageDomain.disc((0.0, 0.0), 10.0)
    parpair = pp.PairGeometry(pp.ParGeometry(0.0), pp.ParGeometry(1.0), dom)
    with pytest.raises(pp.ConfigurationError):
        pp.PairOperator(parpair, pp.ImageGrid(32, 32, 30.0), d1, d2)
    bad = pp.PairGeometry(
        pp.FanGeometry((5.0, 0.0)), pp.FanGeometry((0.0, 90.0)),
        pp.ImageDomain.disc((0.0, 0.0), 20.0))
    with pytest.raises(pp.ConfigurationError):
        pp.PairOperator(bad, pp.ImageGrid(32, 32, 50.0), d1, d2)
    with pytest.raises(pp.ConfigurationError):
        pp.PairOperator(pair, pp.ImageGrid(2, 2, 70.0), d1, d2)  # empty mask


@pytest.mark.parametrize("views", [(2, 1), (1, 1), (2, 2)])
def test_operator_refuses_detector_grids_out_of_view_order(views):
    # view 2's grid in slot 1 projected a 64^2 image of ones onto 0 nonzero bins
    pair = pp.reference_pair()
    grids = pp.reference_grids(n_bins=16)
    dets = [pp.DetectorGrid(v, g.n_bins, g.lo, g.hi) for v, g in zip(views, grids)]
    with pytest.raises(pp.ConfigurationError, match=r"views \(1, 2\) in that order"):
        pp.PairOperator(pair, pp.ImageGrid.from_domain(64, 64, pair.domain), *dets)


def test_detector_grid_centers():
    det = pp.DetectorGrid(1, 4, 0.0, 1.0)
    np.testing.assert_allclose(det.centers, [0.125, 0.375, 0.625, 0.875], rtol=0)
    assert det.width == 0.25
    with pytest.raises(pp.ConfigurationError):
        pp.DetectorGrid(3, 4, 0.0, 1.0)
    with pytest.raises(pp.ConfigurationError):
        pp.DetectorGrid(1, 0, 0.0, 1.0)
    with pytest.raises(pp.ConfigurationError):
        pp.DetectorGrid(1, 4, 1.0, 0.5)
    with pytest.raises(pp.ConfigurationError):
        pp.DetectorGrid(1, 2.5, 0.0, 1.0)
    assert pp.DetectorGrid(1, np.int64(4), 0.0, 1.0).centers.tobytes() == det.centers.tobytes()


def test_detector_range_width_must_be_finite():
    # both ends finite, their difference not: every center was inf
    with pytest.raises(pp.ConfigurationError, match="width"):
        pp.DetectorGrid(1, 4, -1e308, 1e308)
    assert pp.DetectorGrid(1, 4, -1e307, 1e307).width == 5e306


def test_image_grid_counts_are_integers():
    with pytest.raises(pp.ConfigurationError):
        pp.ImageGrid(2.5, 2.5)
    with pytest.raises(pp.ConfigurationError):
        pp.ImageGrid(4, 4.0)
    assert pp.ImageGrid(np.int64(4), np.int32(3)).n_pixels == 12


def test_projection_data_validates_length():
    det = pp.DetectorGrid(1, 4, 0.0, 1.0)
    with pytest.raises(pp.ConfigurationError):
        pp.ProjectionData(det, np.zeros(5))


def test_rasterize_zeroes_masked_pixels():
    dom = pp.ImageDomain.disc((0.0, 0.0), 5.0)
    grid = pp.ImageGrid.from_domain(16, 16, dom, extent=20.0)
    vals = pp.rasterize(lambda x: np.ones(x.shape[0]), grid)
    assert vals[~grid.mask].sum() == 0.0
    assert vals[grid.mask].all()
    # sampling only the masked centers changes no bit against sampling
    # every center and zeroing the rest, with overlapping bumps
    ph = pp.Phantom((pp.Bump((0.0, 0.0), 9.0, 1.5), pp.Bump((5.0, 3.0), 7.0, -0.75),
                     pp.Bump((-20.0, -20.0), 12.0, 2.0)))
    for grid in (pp.ImageGrid.from_domain(97, 83, pp.reference_domain()), pp.ImageGrid(40, 40, 70.0)):
        dense = ph(pixel_centers(grid))
        if grid.mask is not None:
            dense = np.where(grid.mask, dense, 0.0)
        np.testing.assert_array_equal(pp.rasterize(ph, grid), dense)


def test_image_grid_keeps_a_read_only_copy_of_the_mask():
    source = np.ones((4, 4), dtype=bool)
    grid = pp.ImageGrid(4, 4, mask=source)
    source[0, 0] = False
    assert grid.mask.all() and not np.shares_memory(grid.mask, source)
    with pytest.raises(ValueError):
        grid.mask[0] = False
    assert grid.mask.all()


@pytest.mark.parametrize(
    "build",
    [
        lambda: pp.ImageGrid(8, 8, extent=math.nan),
        lambda: pp.ImageGrid(8, 8, extent=math.inf),
        lambda: pp.DetectorGrid(1, 4, 0.0, math.inf),
        lambda: pp.DetectorGrid(1, 4, -math.inf, 0.0),
        lambda: pp.ImageDomain.disc((0.0, 0.0), math.nan),
        lambda: pp.ImageDomain.disc((0.0, 0.0), math.inf),
        lambda: pp.ImageDomain.disc((math.nan, 0.0), 5.0),
        lambda: pp.ImageDomain.rectangle(math.nan, 1.0),
        lambda: pp.ImageDomain.rectangle(1.0, math.nan),
        lambda: pp.ImageDomain.rectangle(1.0, 1.0, center=(0.0, math.inf)),
        lambda: pp.ImageDomain.polygon([[0.0, 0.0], [1.0, 0.0], [0.0, math.nan]]),
        lambda: pp.ProjectionData(pp.DetectorGrid(1, 3, 0.0, 1.0), [1.0, math.nan, 0.0]),
        lambda: pp.ProjectionData(pp.DetectorGrid(2, 2, 0.0, 1.0), [-math.inf, 0.0]),
        lambda: pp.Bump((0.0, 0.0), math.nan),
        lambda: pp.Bump((0.0, 0.0), math.inf),
        lambda: pp.Bump((math.nan, 0.0), 5.0),
        lambda: pp.Bump((0.0, -math.inf), 5.0),
        lambda: pp.Bump((0.0, 0.0), 5.0, math.nan),
        lambda: pp.Bump((0.0, 0.0), 1e155),
        lambda: pp.ParGeometry(math.nan),
        lambda: pp.FanGeometry((math.nan, 80.0)),
        lambda: pp.FanGeometry((0.0, 80.0), theta0=math.nan),
        lambda: pp.FanGeometry((0.0, 80.0), mu=math.nan),
        lambda: pp.FanGeometry((0.0, 80.0), mu=math.inf),
        lambda: pp.geometry.fan_pair((math.nan, 80.0), (-80.0, 0.0), 0.0, pp.reference_domain()),
        lambda: pp.geometry.fan_pair((math.inf, 80.0), (-80.0, 0.0), 0.0, pp.reference_domain()),
        lambda: pp.geometry.fan_pair((0.0, 80.0), (-80.0, -math.inf), 0.0, pp.reference_domain()),
    ],
    ids=[
        "grid-extent-nan", "grid-extent-inf", "detector-hi-inf", "detector-lo-inf",
        "disc-radius-nan", "disc-radius-inf", "disc-center-nan", "rect-width-nan",
        "rect-height-nan", "rect-center-inf", "polygon-vertex-nan", "data-value-nan",
        "data-value-inf", "bump-radius-nan", "bump-radius-inf", "bump-center-nan",
        "bump-center-inf", "bump-amplitude-nan", "bump-radius-square-inf", "par-theta-nan", "fan-vertex-nan",
        "fan-theta0-nan", "fan-mu-nan", "fan-mu-inf", "fan-pair-vertex-nan",
        "fan-pair-vertex-inf", "fan-pair-vertex2-inf",
    ],
)
def test_constructors_reject_non_finite_numbers(build):
    with pytest.raises(pp.ConfigurationError):
        build()


# --- the row-wise mask and masked-only sampling -----------------------------


def inside_one_by_one(domain, px, py):
    """Membership of the points ``(px[i], py[i])``, each with its own edge
    crossings: the per-point rule the row-wise mask must reproduce."""
    if domain.kind == "rectangle":
        (cx, cy), (hx, hy) = domain.center, domain.half_widths
        return (np.abs(px - cx) < hx) & (np.abs(py - cy) < hy)
    if domain.kind == "disc":
        cx, cy = domain.center
        return np.hypot(px - cx, py - cy) < domain.radius
    v = domain.vertices
    inside = np.zeros(px.size, dtype=bool)
    for i in range(len(v)):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % len(v)]
        crosses = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (px < np.where(crosses, xi, np.inf))
    return inside


def five_point_mask(grid, domain):
    """Pixel center and four corners inside, tested point by point."""
    dx, dy = grid.pixel_size
    xs = -0.5 * grid.extent + dx * (np.arange(grid.nx) + 0.5)
    ys = -0.5 * grid.extent + dy * (np.arange(grid.ny) + 0.5)
    xx, yy = np.meshgrid(xs, ys)
    px, py = xx.ravel(), yy.ravel()
    mask = inside_one_by_one(domain, px, py)
    for sx in (-0.5 * dx, 0.5 * dx):
        for sy in (-0.5 * dy, 0.5 * dy):
            mask &= inside_one_by_one(domain, px + sx, py + sy)
    return mask


MASK_DOMAINS = {
    "rectangle": pp.ImageDomain.rectangle(20.3, 11.7, center=(3.1, -1.2)),
    "disc": pp.ImageDomain.disc((1.3, -2.7), 23.1),
    "reference": pp.reference_domain(),
    # concave, with level edges and vertices on pixel-corner rows at 70^2
    "concave": pp.ImageDomain.polygon(
        [[-30, -30], [30, -30], [30, 30], [10, 30], [0, -5], [-10, 30], [-30, 30]]),
    # rows in (-10, 30) cross six edges
    "comb": pp.ImageDomain.polygon(
        [[-30, -30], [30, -30], [30, 30], [20, 30], [20, -10], [10, -10], [10, 30],
         [0, 30], [0, -10], [-10, -10], [-10, 30], [-30, 30]]),
}


@pytest.mark.parametrize("shape", [(70, 70, 70.0), (200, 200, 70.0), (61, 37, 70.0), (90, 90, 40.0)],
                         ids=["70sq", "200sq", "nx-ne-ny", "extent-inside-domain"])
@pytest.mark.parametrize("name", MASK_DOMAINS)
def test_mask_matches_five_point_rule(name, shape):
    nx, ny, extent = shape
    domain = MASK_DOMAINS[name]
    grid = pp.ImageGrid.from_domain(nx, ny, domain, extent=extent)
    oracle = five_point_mask(pp.ImageGrid(nx, ny, extent), domain)
    assert oracle.any()
    np.testing.assert_array_equal(grid.mask, oracle)


@pytest.mark.parametrize("shape", [(70, 70, 70.0), (200, 200, 70.0), (61, 37, 70.0)],
                         ids=["70sq", "200sq", "nx-ne-ny"])
@pytest.mark.parametrize("name", MASK_DOMAINS)
def test_mask_matches_five_contains_calls(name, shape):
    nx, ny, extent = shape
    domain = MASK_DOMAINS[name]
    grid = pp.ImageGrid.from_domain(nx, ny, domain, extent=extent)
    centers = pixel_centers(pp.ImageGrid(nx, ny, extent))
    hx, hy = 0.5 * grid.pixel_size[0], 0.5 * grid.pixel_size[1]
    oracle = domain.contains(centers)
    for shift in ((-hx, -hy), (-hx, hy), (hx, -hy), (hx, hy)):
        oracle &= domain.contains(centers + np.array(shift))
    assert oracle.any() and not oracle.all()
    np.testing.assert_array_equal(grid.mask, oracle)


COVER_BUMPS = (
    pp.Bump((0.0, 0.0), 8.0), pp.Bump((5.0, 3.0), 6.0, -0.5),  # overlapping, both signs
    pp.Bump((-20.0, -12.0), 6.0),  # across the rectangle's and the disc's edges
    pp.Bump((26.875, 15.5), 5.0),  # across the reference domain's slanted edge
    pp.Bump((33.0, 20.0), 6.0), pp.Bump((-34.0, -34.0), 4.0),  # clipped by the grid's edges
    pp.Bump((120.0, 0.0), 5.0), pp.Bump((0.0, -90.0), 5.0),  # outside the grid
)


# a domain over the whole grid keeps the pixels on the bumps' union box's edges
COVER_DOMAINS = {**MASK_DOMAINS, "over-the-grid": pp.ImageDomain.disc((0.0, 0.0), 100.0)}


@pytest.mark.parametrize("shape", [(97, 83), (61, 37)], ids=["97x83", "61x37"])
@pytest.mark.parametrize("name", COVER_DOMAINS)
def test_bump_cover_is_the_domain_mask_within_the_bumps_boxes(name, shape):
    nx, ny = shape
    domain = COVER_DOMAINS[name]
    cover = pp.ImageGrid._bump_cover(nx, ny, 70.0, domain, COVER_BUMPS)
    full = pp.ImageGrid.from_domain(nx, ny, domain, extent=70.0)
    centers = pixel_centers(full)
    boxes = np.zeros(full.n_pixels, dtype=bool)
    for b in COVER_BUMPS:
        d = np.abs(centers - b.center)
        boxes |= (d[:, 0] < b.radius) & (d[:, 1] < b.radius)
    oracle = five_point_mask(pp.ImageGrid(nx, ny, 70.0), domain)
    assert (oracle & boxes).any() and (oracle & ~boxes).any()
    np.testing.assert_array_equal(cover.mask, oracle & boxes)
    # the phantom is rasterized to the same bits on either grid
    ph = pp.Phantom(COVER_BUMPS)
    assert pp.rasterize(ph, cover).tobytes() == pp.rasterize(ph, full).tobytes()
    # the centres taken within the bumps' union box are a fresh grid's
    fresh = pp.ImageGrid(nx, ny, 70.0, mask=cover.mask)
    (x, y), (fx, fy) = cover.center_xy, fresh.center_xy
    assert x.tobytes() == fx.tobytes() and y.tobytes() == fy.tobytes()
    assert x.flags.c_contiguous and y.flags.c_contiguous
    assert not x.flags.writeable and cover.center_xy is cover.center_xy


def test_bump_cover_of_bumps_off_the_grid_has_no_centers():
    cover = pp.ImageGrid._bump_cover(61, 37, 70.0, MASK_DOMAINS["comb"], COVER_BUMPS[-2:])
    assert not cover.mask.any()
    assert cover.center_xy.shape == (2, 0) and cover.center_xy.dtype == float
    assert pp.rasterize(pp.Phantom(COVER_BUMPS[-2:]), cover).tobytes() == np.zeros(61 * 37).tobytes()


@pytest.mark.parametrize("masked", [True, False])
def test_center_xy_are_the_masked_pixel_centers(masked):
    grid = pp.ImageGrid.from_domain(53, 41, MASK_DOMAINS["comb"], extent=66.0)
    if not masked:
        grid = pp.ImageGrid(53, 41, 66.0)
    x, y = grid.center_xy
    idx = np.arange(grid.n_pixels) if grid.mask is None else np.flatnonzero(grid.mask)
    want = pixel_centers(grid, idx)
    assert x.flags.c_contiguous and y.flags.c_contiguous
    assert x.tobytes() == want[:, 0].copy().tobytes() and y.tobytes() == want[:, 1].copy().tobytes()
    # formed once per grid, and shared read-only
    assert grid.center_xy is grid.center_xy
    assert not x.flags.writeable and not y.flags.writeable


def test_keep_takes_the_centers_of_the_pixels_it_keeps():
    """``project --mode discrete`` keeps the cover's pixels where the phantom
    is nonzero, and their centres from the cover's."""
    cover = pp.ImageGrid._bump_cover(97, 83, 70.0, MASK_DOMAINS["comb"], COVER_BUMPS)
    keep = pp.rasterize(pp.Phantom(COVER_BUMPS), cover)[cover.mask] > 0
    assert keep.any() and not keep.all()
    grid = cover._keep(keep)
    want_mask = np.zeros(cover.n_pixels, dtype=bool)
    want_mask[np.flatnonzero(cover.mask)[keep]] = True
    np.testing.assert_array_equal(grid.mask, want_mask)
    fresh = pp.ImageGrid(97, 83, 70.0, mask=want_mask)
    (x, y), (fx, fy) = grid.center_xy, fresh.center_xy
    assert x.tobytes() == fx.tobytes() and y.tobytes() == fy.tobytes()
    assert x.flags.c_contiguous and y.flags.c_contiguous
    assert not x.flags.writeable and grid.center_xy is grid.center_xy


def _reference_tables(op):
    """Window tables built as the operator first built them: inverse on the
    stacked centres, np.mod for the branch, integer bin edges per column, all
    pixels at once.  The weights are offset-major, as the operator keeps them."""
    image = op.image
    centers = pixel_centers(image, np.flatnonzero(image.mask))
    delta, area = image.pixel_size[0], image.pixel_area
    tables = []
    for geom, det in zip((op.pair.first, op.pair.second), op.dets):
        d = centers - geom.vertex_xy
        t = np.hypot(d[..., 0], d[..., 1])
        r = np.mod(np.arctan2(d[..., 1], d[..., 0]) - geom.theta0, 2.0 * math.pi) + geom.theta0
        w = delta / t
        coeff = area * np.exp(geom.mu * t) / t
        density = coeff / w
        a = (r - det.lo) / det.width - 0.5 * w / det.width
        b = a + w / det.width
        n = det.n_bins
        width = min(n, int(np.max(np.ceil(b) - np.floor(a), initial=1)))
        first = np.clip(np.floor(a), 0, n - 1).astype(np.int64)
        start = np.clip(first, 0, n - width)
        weights = np.empty((width, a.size))
        for off in range(width):
            k = start + off
            col = np.minimum(b, k + 1.0) - np.maximum(a, k)
            weights[off] = np.clip(col, 0.0, None) * density
        tables.append((start, weights))
    return tables


def _assert_tables_equal_bitwise(op):
    for (start, weights), (want_start, want_weights) in zip(op._tables, _reference_tables(op)):
        np.testing.assert_array_equal(start, want_start)
        assert weights.shape == want_weights.shape
        assert weights.tobytes() == want_weights.tobytes()  # sign bits of zeros too


@pytest.mark.parametrize("mu", [-0.154, 0.0], ids=["weighted", "unweighted"])
def test_window_tables_equal_per_column_loop_bitwise(mu):
    # 120^2 is one build block, 256^2 two (50 550 masked pixels)
    for nx, blocks in ((120, 1), (256, 2)):
        op = pp.reference_operator(nx=nx, n_bins=60, mu=mu)
        assert -(-op.image.mask.sum() // pp.discrete._BLOCK) == blocks
        _assert_tables_equal_bitwise(op)


def test_window_tables_bitwise_with_blocks_outside_the_detector():
    # mu = 0, each detector over the low 5% of its view range: at 300^2
    # (69 554 masked pixels, three blocks) some blocks have no pixel whose
    # ray angle lies in the range, so every window there is clipped
    pair = pp.reference_pair(0.0)
    image = pp.ImageGrid.from_domain(300, 300, pair.domain)
    dets = [pp.DetectorGrid(d.view, 12, d.lo, d.lo + 0.05 * (d.hi - d.lo)) for d in pp.reference_grids()]
    op = pp.PairOperator(pair, image, *dets)
    x, y = image.center_xy
    block = pp.discrete._BLOCK
    for geom, det in zip((pair.first, pair.second), dets):
        r, _ = geom.inverse_xy(x, y)
        inside = [np.any((r[i:i + block] >= det.lo) & (r[i:i + block] <= det.hi)) for i in range(0, r.size, block)]
        assert len(inside) == 3 and any(inside) and not all(inside)
    _assert_tables_equal_bitwise(op)


@pytest.mark.parametrize("mu", [-0.154, 0.0], ids=["weighted", "unweighted"])
def test_window_tables_bitwise_on_many_blocks(mu):
    # 420^2 keeps 136 934 pixels, five blocks; at 400 bins view 1's widest
    # footprints (three bins) lie in blocks 2 to 4 only, so the width is a
    # maximum taken across blocks
    op = pp.reference_operator(nx=420, n_bins=400, mu=mu)
    x, y = op.image.center_xy
    block = pp.discrete._BLOCK
    assert -(-x.size // block) == 5
    r, t = op.pair.first.inverse_xy(x, y)
    det = op.dets[0]
    w = op.image.pixel_size[0] / t / det.width
    a = (r - det.lo) / det.width - 0.5 * w
    touched = np.ceil(a + w) - np.floor(a)
    assert np.max(touched[:block]) < np.max(touched)
    _assert_tables_equal_bitwise(op)


def test_build_raises_view_1s_error_after_both_views_finish(monkeypatch):
    # both views fail, each with its own message; view 1 fails only after
    # view 2 has, so its error is the later one, and the one a serial build
    # would raise
    pair = pp.reference_pair(-0.154)
    image = pp.ImageGrid.from_domain(256, 256, pair.domain)
    inverse_xy = pp.FanGeometry.inverse_xy
    view2_failed = threading.Event()

    def failing_inverse_xy(self, x, y):
        if not np.shares_memory(x, image.center_xy):  # not the table build
            return inverse_xy(self, x, y)
        if self is pair.first:
            assert view2_failed.wait(10.0)
            raise pp.ConfigurationError("view 1 failed")
        view2_failed.set()
        raise pp.ConfigurationError("view 2 failed")

    monkeypatch.setattr(pp.FanGeometry, "inverse_xy", failing_inverse_xy)
    threads = threading.active_count()
    with pytest.raises(pp.ConfigurationError, match="view 1 failed"):
        pp.PairOperator(pair, image, *pp.reference_grids(60))
    assert view2_failed.is_set()
    assert threading.active_count() == threads


def test_every_build_starts_exactly_one_worker(monkeypatch):
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    # the worker pool starts its threads through threading.Thread
    monkeypatch.setattr(threading, "Thread", CountedThread)
    # 120^2 is one block and 256^2 two; either way view 2 is built on the
    # one worker and each view's blocks one after the other
    for nx in (120, 256):
        started.clear()
        pp.reference_operator(nx=nx, n_bins=60)
        assert started == ["projpair-worker_0"]


@pytest.mark.parametrize("mu", [-0.154, 0.0], ids=["weighted", "unweighted"])
def test_forward_adjoint_equal_per_offset_loop_bitwise(mu):
    # two build blocks; the loop forms every start + off and counts into all
    # bins, where the operator counts start into the bins from off on.  At
    # mu = 0 both sides of the loop are projected off the unit kernels u:
    # P v = v - u <u, v>, pairwise summed
    op = pp.reference_operator(nx=256, n_bins=60, mu=mu)
    rng = np.random.default_rng(37)
    f = rng.normal(size=op.image.n_pixels)
    g = rng.normal(size=op.shape[0])
    kernels = pp.known_kernels(op.pair)
    u = None
    if kernels is not None:
        e1, e2 = op.dets
        W = np.concatenate([e1.width * kernels.v1(e1.centers), -e2.width * kernels.v2(e2.centers)])
        u = W / math.sqrt(np.add.reduce(W * W))

    def project(v):
        return v if u is None else v - u * np.add.reduce(u * v)

    idx = np.flatnonzero(op.image.mask)
    want_g, acc = [], np.zeros(idx.size)
    for gv, (start, weights) in zip(np.split(project(g), [op.dets[0].n_bins]), op._tables):
        out = np.zeros(gv.size)
        for off in range(weights.shape[0]):
            out += np.bincount(start + off, weights=f[idx] * weights[off], minlength=gv.size)
            acc += weights[off] * gv[start + off]
        want_g.append(out)
    want_f = np.zeros(op.image.n_pixels)
    want_f[idx] = acc
    assert op.forward(f).tobytes() == project(np.concatenate(want_g)).tobytes()
    assert op.adjoint(g).tobytes() == want_f.tobytes()


def test_pixel_centers_of_indices():
    grid = pp.ImageGrid(13, 7, 30.0)
    dx, dy = grid.pixel_size
    xx, yy = np.meshgrid(-15.0 + dx * (np.arange(13) + 0.5), -15.0 + dy * (np.arange(7) + 0.5))
    every = pixel_centers(grid)
    np.testing.assert_array_equal(every, np.column_stack([xx.ravel(), yy.ravel()]))
    idx = np.array([0, 5, 12, 13, 47, 90])
    np.testing.assert_array_equal(pixel_centers(grid, idx), every[idx])
    assert pixel_centers(grid, np.array([], dtype=np.int64)).shape == (0, 2)


def test_image_io_round_trip(tmp_path):
    grid = pp.ImageGrid(9, 5, 36.0)
    rng = np.random.default_rng(35)
    vals = rng.normal(size=45)
    path = tmp_path / "img.img"
    pp.write_image(path, grid, vals)
    grid2, vals2 = pp.read_image(path)
    assert (grid2.nx, grid2.ny, grid2.extent) == (9, 5, 36.0)
    np.testing.assert_array_equal(vals, vals2)
    # rewriting produces identical bytes
    data = path.read_bytes()
    pp.write_image(path, grid2, vals2)
    assert path.read_bytes() == data


def test_projection_csv_round_trip(tmp_path):
    det = pp.DetectorGrid(2, 7, -0.25, 0.4)
    rng = np.random.default_rng(36)
    data = pp.ProjectionData(det, rng.normal(size=7))
    path = tmp_path / "view.csv"
    pp.write_projection_csv(path, data)
    back = pp.read_projection_csv(path)
    assert back.grid.view == 2
    assert back.grid.n_bins == 7
    assert back.grid.lo == det.lo and back.grid.hi == det.hi
    np.testing.assert_array_equal(back.values, data.values)


def test_pgm_writer(tmp_path):
    grid = pp.ImageGrid(8, 6, 10.0)
    vals = np.linspace(-1.0, 2.0, 48)
    path = tmp_path / "img.pgm"
    pp.write_pgm(path, grid, vals)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n8 6\n255\n")
    assert len(raw) == len(b"P5\n8 6\n255\n") + 48
    body = raw[len(b"P5\n8 6\n255\n"):]
    assert max(body) == 255 and min(body) == 0


def test_operator_refuses_a_kernel_not_finite_at_a_bin_center(monkeypatch):
    # the kernels enter the operator only at the bin centers, through the W
    # that check reads, and a NaN at one center is refused as check refuses it
    pair, image, d1, d2 = small_setup(mu=0.0, bins=(9, 13))
    kernels = pp.known_kernels(pair)
    bad = float(d1.centers[6])

    def v1(r):
        return np.where(r == bad, np.nan, kernels.v1(r))

    monkeypatch.setattr(pp.discrete, "known_kernels", lambda p: pp.KernelPair(v1, kernels.v2, kernels.label))
    with pytest.raises(pp.EvaluationError, match=f"^view 1 kernel value not finite at r = {bad!r}$"):
        pp.PairOperator(pair, image, d1, d2)
