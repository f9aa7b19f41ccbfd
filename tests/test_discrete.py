"""Discrete pixel-driven operator: oracle match, adjointness, conservation, I/O."""

import math

import numpy as np
import pytest

import projpair as pp


def brute_force_matrix(pair, image, det1, det2):
    """Dense operator matrix assembled with scalar loops.

    Re-derives the deposit rule from the operator contract: pixel mass
    area*exp(mu*t)/t spread uniformly over the angular footprint of width
    pixel/t, each bin taking overlap/bin_width of the density.
    """
    idx = np.flatnonzero(image.mask)
    centers = image.pixel_centers()
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
            g1, g2 = op.forward(f)
            want = A @ np.where(op.image.mask, f, 0.0)
            np.testing.assert_allclose(np.concatenate([g1, g2]), want, atol=1e-13)


def test_adjoint_matches_brute_force():
    rng = np.random.default_rng(32)
    for setup in BRUTE_FORCE_SETUPS:
        pair, image, d1, d2 = small_setup(**setup)
        op = pp.PairOperator(pair, image, d1, d2)
        A = brute_force_matrix(pair, op.image, d1, d2)
        g = rng.normal(size=d1.n_bins + d2.n_bins)
        back = op.adjoint(g[:d1.n_bins], g[d1.n_bins:])
        np.testing.assert_allclose(back, A.T @ g, atol=1e-13)


def test_adjoint_identity_64():
    """<Af, g> == <f, A^T g> to 1e-12 relative, the criterion-5 shapes."""
    rng = np.random.default_rng(20240501)
    for mu in (0.0, -0.154):
        op = pp.reference_operator(nx=64, n_bins=32, mu=mu)
        for _ in range(10):
            f = rng.normal(size=op.image.n_pixels)
            g = rng.normal(size=64)
            g1, g2 = g[:32], g[32:]
            lhs = np.concatenate(op.forward(f)) @ g
            rhs = f @ op.adjoint(g1, g2)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_flat_interfaces_match_split():
    op = pp.reference_operator(nx=48, n_bins=16, mu=-0.1)
    rng = np.random.default_rng(33)
    f = rng.normal(size=op.image.n_pixels)
    g = rng.normal(size=32)
    np.testing.assert_array_equal(
        op.forward_flat(f), np.concatenate(op.forward(f)))
    np.testing.assert_array_equal(
        op.adjoint_flat(g), op.adjoint(g[:16], g[16:]))
    assert op.shape == (32, 48 * 48)


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
    g1, g2 = op.forward(f)
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
    g1, _ = op.forward(f)
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
        A = np.stack([op.adjoint_flat(e) for e in np.eye(op.shape[0])])
        assert np.linalg.norm(W @ A) <= 1e-14 * np.linalg.norm(A, 2) * np.linalg.norm(W)


def test_mu_zero_operator_needs_three_bins():
    pair, image, d1, _ = small_setup(mu=0.0)
    d2 = pp.DetectorGrid(2, 2, *pp.view_range(pair.second, pair.domain))
    with pytest.raises(pp.ConfigurationError):
        pp.PairOperator(pair, image, d1, d2)
    # the weighted operator has no moment correction and takes two bins
    pair, image, d1, _ = small_setup()
    pp.PairOperator(pair, image, d1, d2)


def test_mass_conservation_random_image():
    op = pp.reference_operator(nx=64, n_bins=100, mu=-0.154)
    rng = np.random.default_rng(34)
    f = rng.uniform(0.0, 1.0, size=op.image.n_pixels)
    centers = op.image.pixel_centers()[op.image.mask]
    fm = f[op.image.mask]
    g1, g2 = op.forward(f)
    for geom, det, g in ((op.pair.first, op.dets[0], g1), (op.pair.second, op.dets[1], g2)):
        t = np.hypot(*(centers - np.asarray(geom.vertex)).T)
        masses = fm * op.image.pixel_area * np.exp(geom.mu * t) / t
        assert abs(np.sum(g) * det.width - np.sum(masses)) < 1e-12 * np.sum(masses)


def test_strict_mask_keeps_whole_squares_inside():
    op = pp.reference_operator(nx=200, n_bins=100)
    image = op.image
    centers = image.pixel_centers()
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
    g1, g2 = op.forward(pp.rasterize(ph, op.image))
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
