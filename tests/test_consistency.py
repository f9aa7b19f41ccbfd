"""Range-condition kernels, the kernel condition, the log-LHS surface, G, separability."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projpair as pp
from projpair import cli

THETA0 = 0.75 * math.pi
MU = pp.ATTENUATION_MU
DL_NORM = 80.0 * math.sqrt(2.0)
# the four-angle probe used throughout: built around the antipodal center
PROBE = (THETA0 + math.pi + math.pi / 4.0,
         THETA0 + math.pi + math.pi / 6.0,
         THETA0 + math.pi,
         THETA0 + math.pi - math.pi / 6.0)


def parfan_pair():
    dom = pp.ImageDomain.disc((2.0, -1.0), 16.0)
    return pp.PairGeometry(
        pp.ParGeometry(0.4), pp.FanGeometry((-90.0, 10.0), theta0=-math.pi), dom)


def weighted_parfan_pair():
    pair = parfan_pair()
    fan = pp.FanGeometry(pair.second.vertex, theta0=pair.second.theta0, mu=MU)
    return pp.PairGeometry(pair.first, fan, pair.domain)


def parpar_pair():
    dom = pp.ImageDomain.disc((2.0, -1.0), 16.0)
    return pp.PairGeometry(pp.ParGeometry(0.3), pp.ParGeometry(1.9), dom)


def fine_target(pair, phantom, n_bins=4096):
    d1 = pp.DetectorGrid(1, n_bins, *pp.view_range(pair.first, pair.domain))
    d2 = pp.DetectorGrid(2, n_bins, *pp.view_range(pair.second, pair.domain))
    return pp.project_view(pair.first, phantom, d1), pp.project_view(pair.second, phantom, d2)


# --- kernels ----------------------------------------------------------------


def test_known_kernels_three_kinds():
    assert pp.known_kernels(parpar_pair()) is not None
    assert pp.known_kernels(parfan_pair()) is not None
    assert pp.known_kernels(pp.reference_pair(mu=0.0)) is not None


def test_no_kernels_for_attenuated_fan_pair():
    assert pp.known_kernels(pp.reference_pair(mu=MU)) is None
    assert pp.known_kernels(pp.reference_pair(mu=1e-6)) is None
    # a weighted fan leaves mu * t2 = mu (r1 - s0) / cos(theta - r2) in the
    # log factor ratio of a par-fan pair, which does not separate either
    assert pp.known_kernels(weighted_parfan_pair()) is None
    unweighted = pp.known_kernels(parfan_pair())
    assert pp.kernel_condition_residual(weighted_parfan_pair(), unweighted, n=256) > 0.5


def test_reference_kernels_positive_and_scaled():
    K = pp.known_kernels(pp.reference_pair(mu=0.0))
    (lo1, hi1), (lo2, hi2) = pp.reference_view_ranges()
    r1 = np.linspace(lo1, hi1, 257)
    r2 = np.linspace(lo2, hi2, 257)
    assert (K.v1(r1) > 0).all()
    assert (K.v2(r2) > 0).all()
    # straight-down ray from (0, 80): separation vector has length 80*sqrt(2),
    # the projection onto the ray normal is 80
    assert abs(K.v1(1.5 * math.pi) - 1.0 / 80.0) < 1e-15


def test_kernel_sign_constancy():
    for pair in (parpar_pair(), parfan_pair(), pp.reference_pair(mu=0.0)):
        K = pp.known_kernels(pair)
        for geom, v in ((pair.first, K.v1), (pair.second, K.v2)):
            lo, hi = pp.view_range(geom, pair.domain)
            vals = v(np.linspace(lo, hi, 513))
            assert (vals > 0).all() or (vals < 0).all()


# a non-convex L: points of its bounding box outside it are not sampled
L_SHAPE = pp.ImageDomain.polygon([(-20, -20), (20, -20), (20, 0), (0, 0), (0, 20), (-20, 20)])


def test_kernel_condition_residual_all_kinds():
    pairs = [parpar_pair(), parfan_pair(), pp.reference_pair(mu=0.0),
             pp.PairGeometry(pp.ParGeometry(0.3), pp.ParGeometry(1.9), L_SHAPE),
             pp.PairGeometry(pp.ParGeometry(0.4), pp.FanGeometry((-90.0, 10.0), theta0=-math.pi), L_SHAPE),
             pp.geometry.fan_pair(pp.REFERENCE_VERTEX_1, pp.REFERENCE_VERTEX_2, 0.0, L_SHAPE)]
    for pair in pairs:
        assert pp.check_pair_admissible(pair).passed
        K = pp.known_kernels(pair)
        assert pp.kernel_condition_residual(pair, K, n=2048) < 1e-12


def test_parfan_kernel_sign_is_the_domain_side_of_the_vertex_offset(monkeypatch):
    """The par-fan kernels' sign follows the side of the vertex offset ``s0``
    the domain lies on: the sign of the view-1 range midpoint minus ``s0``,
    read here from the boundary samples, and by ``known_kernels`` from the
    domain's reference point without sampling the boundary."""
    pairs = []
    for dom in (pp.ImageDomain.disc((2.0, -1.0), 16.0), L_SHAPE, pp.reference_domain()):
        for theta, vertex in ((0.4, (-90.0, 10.0)), (0.4, (90.0, -10.0)), (2.0, (15.0, 95.0)), (-1.0, (-20.0, -90.0))):
            fan = pp.FanGeometry(vertex, theta0=math.atan2(vertex[1], vertex[0]))
            pair = pp.PairGeometry(pp.ParGeometry(theta), fan, dom)
            assert pp.check_pair_admissible(pair).passed
            s0 = float(fan.vertex_xy @ pp.direction(theta))
            lo, hi = pp.view_range(pair.first, dom)
            pairs.append((pair, s0, -1.0 if 0.5 * (lo + hi) - s0 < 0 else 1.0))
    assert {flip for _, _, flip in pairs} == {-1.0, 1.0}

    def no_sampling(self, n):
        raise AssertionError("known_kernels sampled the boundary")

    monkeypatch.setattr(pp.ImageDomain, "boundary_points", no_sampling)
    for pair, s0, flip in pairs:
        assert pp.known_kernels(pair).v1(s0 + 1.0) == flip


@pytest.mark.parametrize("n", [0, -1, math.nan, math.inf, 2.5, 16.0])
def test_kernel_condition_residual_needs_a_sample(n):
    pair = parpar_pair()
    with pytest.raises(pp.ConfigurationError):
        pp.kernel_condition_residual(pair, pp.known_kernels(pair), n=n)


def test_kernel_condition_residual_takes_numpy_integers():
    pair = parpar_pair()
    K = pp.known_kernels(pair)
    assert pp.kernel_condition_residual(pair, K, n=np.int64(256)) == pp.kernel_condition_residual(pair, K, n=256)


def test_kernel_condition_residual_refines_its_grid_on_a_thin_domain(monkeypatch):
    # a sliver along the diagonal covers 2.4% of its bounding box, so the
    # first grid holds too few domain points and is refined until it has n
    sliver = pp.ImageDomain.polygon([[0.0, 0.0], [1.0, 0.0], [41.0, 40.0], [40.0, 40.0]])
    pair = pp.PairGeometry(pp.ParGeometry(0.3), pp.ParGeometry(1.9), sliver)
    sizes = []
    grid_points = pp.ImageDomain.grid_points

    def counting(self, nx, ny):
        pts = grid_points(self, nx, ny)
        sizes.append(len(pts))
        return pts

    monkeypatch.setattr(pp.ImageDomain, "grid_points", counting)
    assert pp.kernel_condition_residual(pair, pp.known_kernels(pair), n=512) < 1e-12
    assert len(sizes) > 1 and sizes[0] < 512 <= sizes[-1]


def test_kernel_condition_residual_refuses_a_kernel_not_finite_on_the_domain():
    pair = parpar_pair()
    K = pp.known_kernels(pair)
    nan_v1 = pp.KernelPair(v1=lambda r: np.full(np.shape(r), np.nan), v2=K.v2, label="nan")
    with pytest.raises(pp.EvaluationError, match="non-finite"):
        pp.kernel_condition_residual(pair, nan_v1, n=64)


def test_kernel_condition_invariant_under_joint_scaling():
    pair = pp.reference_pair(mu=0.0)
    K = pp.known_kernels(pair)
    for c in (3.7, -0.25):
        scaled = pp.KernelPair(
            v1=lambda r, c=c: c * K.v1(r),
            v2=lambda r, c=c: c * K.v2(r),
            label="scaled")
        assert pp.kernel_condition_residual(pair, scaled, n=512) < 1e-12


def test_kernel_condition_residual_at_far_vertices():
    # vertices (0, d) and (-d, 0) around a disc of radius 20 at the origin,
    # against the unweighted kernels: at d = 5120 and mu = -0.154 each
    # weight exp(mu * t) underflows to 0, yet their ratio is of order 1
    dom = pp.ImageDomain.disc((0.0, 0.0), 20.0)

    def residual(distance, mu):
        vertices = (0.0, distance), (-distance, 0.0)
        kernels = pp.known_kernels(pp.geometry.fan_pair(*vertices, 0.0, dom))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return pp.kernel_condition_residual(pp.geometry.fan_pair(*vertices, mu, dom), kernels, n=256)

    assert math.isfinite(residual(5120.0, MU))
    assert residual(5120.0, 0.0) <= 1e-12
    assert residual(80.0, MU) == pytest.approx(0.9866018317644906, rel=1e-12, abs=0.0)
    assert residual(1280.0, MU) == pytest.approx(0.98630589942451, rel=1e-12, abs=0.0)


def test_pprc_scales_linearly_with_kernels():
    pair = pp.reference_pair(mu=0.0)
    K = pp.known_kernels(pair)
    tgt = pp.reference_target(*pp.reference_grids(256))
    left, right = pp.pprc_sides(tgt, K)
    base = left - right
    scaled = pp.KernelPair(
        v1=lambda r: 3.7 * K.v1(r), v2=lambda r: 3.7 * K.v2(r),
        label="scaled")
    left, right = pp.pprc_sides(tgt, scaled)
    assert abs((left - right) - 3.7 * base) < 1e-14 * abs(base)


# --- the range condition on data --------------------------------------------


def test_pprc_reference_target_regression():
    """The prescribed data fails the unweighted fan-fan condition outright:
    the first side is exactly zero, the second strictly positive."""
    K = pp.known_kernels(pp.reference_pair(mu=0.0))
    tgt = pp.reference_target(*pp.reference_grids(400))
    i1, i2 = pp.pprc_sides(tgt, K)
    assert i1 == 0.0
    assert i2 > 0
    res = i1 - i2
    assert abs(res - (-0.00069640944182639279)) < 1e-12 * abs(res)


def test_pprc_vanishes_on_range_data():
    rng = np.random.default_rng(41)
    for pair in (parpar_pair(), parfan_pair()):
        K = pp.known_kernels(pair)
        ph = pp.random_phantom(rng, pair.domain, n_bumps=2)
        tgt = fine_target(pair, ph)
        i1, i2 = pp.pprc_sides(tgt, K)
        assert abs(i1 - i2) < 1e-6 * (abs(i1) + abs(i2) + 1.0)


def test_pprc_vanishes_on_range_data_of_the_mu0_operator():
    # the sides are the two halves of <g, W> with the W the operator projects
    # its data off: the trapezoid rule over the bin centers gave
    # a worst relative residual of 1.3e-3 here
    op = pp.reference_operator(nx=64, n_bins=40, mu=0.0)
    K = pp.known_kernels(op.pair)
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = op.forward(rng.uniform(size=op.image.n_pixels))
        tgt = [pp.ProjectionData(det, part) for det, part in zip(op.dets, np.split(g, [op.dets[0].n_bins]))]
        i1, i2 = pp.pprc_sides(tgt, K)
        assert abs(i1 - i2) <= 1e-14 * max(abs(i1), abs(i2))


def test_pprc_sides_refuse_views_out_of_order():
    # swapped, the sides were (0.000697, 0.0): the kernels met the wrong views
    K = pp.known_kernels(pp.reference_pair(mu=0.0))
    tgt = pp.reference_target(*pp.reference_grids(100))
    with pytest.raises(pp.ConfigurationError, match="in that order"):
        pp.pprc_sides(tgt[::-1], K)
    with pytest.raises(pp.ConfigurationError, match="in that order"):
        pp.pprc_sides((tgt[0], tgt[0]), K)


@pytest.mark.parametrize("bins", [(1, 1), (1, 100), (100, 1)])
def test_pprc_sides_refuse_a_one_bin_view(bins):
    # the trapezoid rule over one bin center is 0: data (0, 123) gave sides
    # (0, 0), a consistent verdict, where the residual floor is 87.2
    K = pp.known_kernels(pp.reference_pair(mu=0.0))
    grids = [pp.DetectorGrid(g.view, n, g.lo, g.hi) for g, n in zip(pp.reference_grids(), bins)]
    tgt = [pp.ProjectionData(g, np.full(g.n_bins, 123.0 * (g.view - 1))) for g in grids]
    with pytest.raises(pp.ConfigurationError, match="at least 2 bins"):
        pp.pprc_sides(tgt, K)


def test_pprc_sides_reject_singular_kernel():
    tgt = pp.reference_target(*pp.reference_grids(64))
    c = tgt[0].grid.centers[10]
    bad = pp.KernelPair(v1=lambda r: 1.0 / (r - c), v2=lambda r: np.ones_like(r),
                        label="singular")
    with np.errstate(divide="ignore"), pytest.raises(pp.EvaluationError):
        pp.pprc_sides(tgt, bad)


# --- the log-LHS surface and G -----------------------------------------------


def test_eval_G_reference_probe_value():
    """Direct evaluation at the four-angle probe, separation oriented to the
    lifted-angle convention (r1 above r2).  The closed form works out to
    ((-8 - sqrt(2) + 4*sqrt(3) + sqrt(6)) / 2) * mu * |separation|."""
    dl = (80.0, 80.0)
    got = pp.eval_G(PROBE[0], PROBE[1], PROBE[2], PROBE[3], MU, dl)
    bracket = (-8.0 - math.sqrt(2.0) + 4.0 * math.sqrt(3.0) + math.sqrt(6.0)) / 2.0
    want = bracket * MU * DL_NORM
    assert abs(got - want) < 1e-12 * abs(want)
    assert got > 0  # negative bracket times negative mu
    # flipping the separation vector flips the value
    flipped = pp.eval_G(PROBE[0], PROBE[1], PROBE[2], PROBE[3], MU, (-80.0, -80.0))
    assert abs(flipped + got) < 1e-12 * abs(got)


def test_eval_G_is_double_difference_of_log_lhs():
    """G equals mu * sum(+-(t1 - t2)), the double difference of the
    non-separable log term, with t1, t2 from ``intersect``.  The quadruples
    are the first 10 000 four-angle draws with no two angles closer than
    1e-3, in draw order."""
    rng = np.random.default_rng(43)
    vx1, vx2 = pp.REFERENCE_VERTEX_1, pp.REFERENCE_VERTEX_2
    f1, f2 = pp.FanGeometry(vx1), pp.FanGeometry(vx2)
    dl = np.subtract(vx2, vx1)
    lo = THETA0 + 0.5 * math.pi + 0.05
    hi = THETA0 + 1.5 * math.pi - 0.05
    a = np.sort(rng.uniform(lo, hi, size=(10500, 4)), axis=1)
    a = a[np.min(np.diff(a, axis=1), axis=1) >= 1e-3]
    assert len(a) >= 10000
    r2, r2t, r1t, r1 = a[:10000].T
    g = pp.eval_G(r1, r1t, r2, r2t, MU, dl)
    terms = []
    for x, y in ((r1, r2), (r1t, r2), (r1, r2t), (r1t, r2t)):
        _, t1, t2 = pp.intersect(f1, f2, x, y)
        terms.append(MU * (t1 - t2))
    dd = terms[0] - terms[1] - terms[2] + terms[3]
    scale = np.maximum(np.maximum(1.0, np.abs(g)), sum(np.abs(t) for t in terms))
    assert np.all(np.abs(g - dd) <= 1e-12 * scale)


def test_eval_G_certifies_at_in_domain_quadruple():
    """Rays from both reference vertices through X0 = (0, 0) and
    X1 = (20, -15): all four intersections lie inside the domain, so the
    nonzero G there is a certification at an admissible quadruple."""
    pair = pp.reference_pair(MU)
    v1 = np.asarray(pp.REFERENCE_VERTEX_1)
    v2 = np.asarray(pp.REFERENCE_VERTEX_2)

    def angle(v, x):
        d = np.subtract(x, v)
        return float(pp.lift_angle(math.atan2(d[1], d[0]), THETA0))

    x0, x1 = (0.0, 0.0), (20.0, -15.0)
    r1, r1t, r2, r2t = angle(v1, x0), angle(v1, x1), angle(v2, x0), angle(v2, x1)
    total = 0.0
    for a, b, sign in ((r1, r2, 1), (r1t, r2, -1), (r1, r2t, -1), (r1t, r2t, 1)):
        x, _, _ = pp.intersect(pair.first, pair.second, a, b)
        assert pair.domain.contains(x)
        total += sign * (np.hypot(*(x - v1)) - np.hypot(*(x - v2)))
    g = pp.eval_G(r1, r1t, r2, r2t, MU, v2 - v1)
    assert abs(g - MU * total) <= 1e-12 * abs(g)
    assert abs(g) > 1e-3


def test_eval_G_rejects_degenerate_probe():
    with pytest.raises(pp.DomainError):
        pp.eval_G(1.0, 2.0, 1.0, 0.5, MU, (80.0, 80.0))  # r1 == r2 denominator


def test_expo_surface_is_log_factor_ratio():
    """On the ray pairs of the reference pair that meet inside the domain
    (all with r1 < r2 on the branch), the surface is the log of view 1's
    ``weight * jacobian_inv`` over view 2's at the intersection."""
    (lo1, hi1), (lo2, hi2) = pp.reference_view_ranges()
    r1 = pp.DetectorGrid(1, 64, lo1, hi1).centers
    r2 = pp.DetectorGrid(2, 64, lo2, hi2).centers
    for mu in (MU, 0.0):
        pair = pp.reference_pair(mu)
        x, _, _ = pp.intersect(pair.first, pair.second, r1[:, None], r2[None, :])
        inside = pair.domain.contains(x)
        assert inside.sum() > 1000
        assert np.all(r1[:, None] < r2[None, :])
        L = pp.expo_surface(pair, r1, r2)
        assert np.isfinite(L[inside]).all()
        xin = x[inside]
        f1, f2 = (g.weight(*g.inverse(xin)) * g.jacobian_inv(xin) for g in (pair.first, pair.second))
        np.testing.assert_allclose(L[inside], np.log(f1 / f2), rtol=0, atol=1e-12)


def _expo_surface_closed_form(pair, r1_values, r2_values):
    """The docstring's closed form, as one broadcast expression."""
    mu = pair.first.mu
    d1 = pp.direction(np.asarray(r1_values, float)[:, None])
    d2 = pp.direction(np.asarray(r2_values, float)[None, :])
    dl = pair.second.vertex_xy - pair.first.vertex_xy
    dls = float(pp.pair_orientation(pair)) * dl
    q1 = pp.perp(d1)
    den = q1[..., 0] * d2[..., 0] + q1[..., 1] * d2[..., 1]
    p1 = q1 @ dls
    p2 = pp.perp(d2) @ dls
    valid = (np.abs(den) > pp.geometry.DENOM_TOL) & (p1 > 0) & (p2 > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        L = mu * (((q1 - pp.perp(d2)) @ dl) / den) + np.log(p1) - np.log(p2)
    return np.where(valid, L, np.nan)


@pytest.mark.parametrize("mu", [MU, 0.0])
def test_expo_surface_equals_closed_form_bitwise(mu):
    """On the 642 x 641 axes of ``projpair separability --n1 640 --n2 640``,
    on one-row, one-column and odd shapes, on 3 x 40 001 (more columns than
    a block of rows holds, so one row per block), and on angles all round
    the circle, where parallel rays and undefined logs leave NaN."""
    pair = pp.reference_pair(mu)
    oblique = pp.geometry.fan_pair((25.0, 75.0), (-80.0, -20.0), mu, pp.reference_domain())
    r1, r2 = cli._separability_axes(pair.first.theta0, 640, 640)
    a1, a2 = cli._separability_axes(pair.first.theta0, 7, 13)
    w1, w2 = cli._separability_axes(pair.first.theta0, 1, 40000)
    circle = np.linspace(0.0, 2.0 * math.pi, 37)
    inputs = [(pair, r1, r2), (pair, r1[:1], r2), (pair, r1, r2[:1]), (pair, a1, a2), (pair, w1, w2),
              (pair, circle, circle[::2]), (oblique, circle[:-1], circle)]
    for p, x, y in inputs:
        got = pp.expo_surface(p, x, y)
        want = _expo_surface_closed_form(p, x, y)
        assert got.shape == want.shape == (len(x), len(y))
        assert got.tobytes() == want.tobytes()
    assert np.isnan(pp.expo_surface(pair, circle, circle[::2])).any()


@pytest.mark.parametrize("axis", ["r1", "r2"])
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_expo_surface_refuses_non_finite_axis_values(axis, bad):
    """inf would warn in cos, and NaN would leave a row or column of NaN
    without a word: both are refused, naming the axis."""
    r = {"r1": np.linspace(4.5, 5.0, 3), "r2": np.linspace(2.5, 3.0, 4)}
    r[axis][1] = bad
    with pytest.raises(pp.ConfigurationError, match=f"^{axis} axis"):
        pp.expo_surface(pp.reference_pair(), r["r1"], r["r2"])


def test_expo_surface_needs_fan_fan_with_one_mu():
    r = np.linspace(4.5, 5.0, 3)
    with pytest.raises(pp.ConfigurationError):
        pp.expo_surface(parfan_pair(), r, r)
    ref = pp.reference_pair()
    unequal = pp.PairGeometry(
        ref.first, pp.FanGeometry(ref.second.vertex, theta0=ref.second.theta0, mu=0.0), ref.domain)
    with pytest.raises(pp.ConfigurationError):
        pp.expo_surface(unequal, r, r)


# --- separability -------------------------------------------------------------


def surface_grids(n1=60, n2=60, margin=math.pi / 48.0):
    r1 = np.linspace(THETA0 + math.pi, THETA0 + 1.5 * math.pi - margin, n1)
    r2 = np.linspace(THETA0 + 0.5 * math.pi + margin, THETA0 + math.pi, n2)
    return r1, r2


def test_separability_dichotomy():
    r1, r2 = surface_grids()
    rep0 = pp.separability_test(pp.expo_surface(pp.reference_pair(0.0), r1, r2), r1, r2)
    assert rep0.verdict == "separable"
    rep1 = pp.separability_test(pp.expo_surface(pp.reference_pair(MU), r1, r2), r1, r2)
    assert rep1.verdict == "non-separable"
    assert rep1.max_abs_D > 1e-3


def test_separability_additive_synthetic():
    r1 = np.linspace(0.0, 1.0, 40)
    r2 = np.linspace(2.0, 3.0, 35)
    L = np.sin(3.0 * r1)[:, None] + np.exp(r2)[None, :]
    rep = pp.separability_test(L, r1, r2)
    assert rep.verdict == "separable"
    assert rep.max_abs_D <= 1e-8 * rep.scale


def test_separability_report_is_reproducible():
    r1, r2 = surface_grids(25, 25)
    L = pp.expo_surface(pp.reference_pair(MU), r1, r2)
    a = pp.separability_test(L, r1, r2)
    b = pp.separability_test(L, r1, r2)
    assert a.argmax == b.argmax
    assert a.max_abs_D == b.max_abs_D
    # the reported quadruple reproduces the reported violation
    i1 = float(np.interp(a.argmax[0], r1, np.arange(r1.size)))
    assert i1 == int(i1)


def test_separability_needs_valid_quadruple():
    L = np.full((3, 3), np.nan)
    with pytest.raises(pp.ConfigurationError):
        pp.separability_test(L, np.arange(3.0), np.arange(3.0))


@pytest.mark.parametrize("L, r1, r2, message", [
    (np.zeros(9), np.arange(9.0), np.arange(1.0), "2-d array"),
    (np.zeros((3, 4)), np.arange(3.0), np.arange(3.0), "match the shape"),
    (np.zeros((3, 4)), np.arange(4.0), np.arange(3.0), "match the shape"),
], ids=["one-d", "r2-short", "swapped"])
def test_separability_refuses_axes_that_do_not_fit_L(L, r1, r2, message):
    with pytest.raises(pp.ConfigurationError, match=message):
        pp.separability_test(L, r1, r2)


def test_separability_threshold_semantics():
    # additive plus eps * r1 * r2, so max |D| = eps; scale = 3 + eps, and the
    # threshold 1e-8 * scale falls between 1e-9 and 1e-7
    r1 = np.linspace(0.0, 1.0, 10)
    r2 = np.linspace(0.0, 1.0, 10)
    for eps, verdict in [(0.0, "separable"), (1e-9, "separable"),
                         (1e-7, "non-separable"), (1.0, "non-separable")]:
        L = 1.0 + r1[:, None] + r2[None, :] + eps * r1[:, None] * r2[None, :]
        rep = pp.separability_test(L, r1, r2)
        assert rep.threshold == 1e-8 * rep.scale
        assert rep.verdict == verdict


def _reference_separability(L, r1_values, r2_values, valid=None):
    """The plain loop over row pairs that ``separability_test`` must equal."""
    L = np.asarray(L, dtype=float)
    n1, n2 = L.shape
    r1_values = np.asarray(r1_values, float)
    r2_values = np.asarray(r2_values, float)
    if valid is None:
        valid = np.isfinite(L)
    else:
        valid = np.asarray(valid, bool) & np.isfinite(L)
    work = np.where(valid, L, np.nan)
    scale = float(np.max(np.abs(work[valid]))) if np.any(valid) else 0.0
    threshold = 1e-8 * scale
    best = -1.0
    arg = (0, 0, 0, 0)
    with np.errstate(invalid="ignore"):
        for i in range(n1 - 1):
            diff = work[i + 1 :, :] - work[i, :][None, :]
            finite = np.isfinite(diff)
            rows_ok = np.sum(finite, axis=1) >= 2
            if not np.any(rows_ok):
                continue
            hi = np.where(finite, diff, -np.inf).max(axis=1)
            lo = np.where(finite, diff, np.inf).min(axis=1)
            spread = np.where(rows_ok, hi - lo, -np.inf)
            k = int(np.argmax(spread))
            if spread[k] > best:
                row = diff[k]
                j_hi = int(np.nanargmax(np.where(np.isfinite(row), row, -np.inf)))
                j_lo = int(np.nanargmin(np.where(np.isfinite(row), row, np.inf)))
                best = float(spread[k])
                arg = (i, i + 1 + k, j_hi, j_lo)
    if best < 0.0:
        raise pp.ConfigurationError("not enough valid samples for any quadruple")
    i, it, j_hi, j_lo = arg
    verdict = "separable" if best <= threshold else "non-separable"
    return pp.SeparabilityReport(
        max_abs_D=best,
        argmax=(float(r1_values[i]), float(r1_values[it]), float(r2_values[j_hi]), float(r2_values[j_lo])),
        threshold=float(threshold),
        scale=scale,
        verdict=verdict,
    )


def _brute_force_max_D(L, valid):
    """Largest ``(L[it,j] - L[i,j]) - (L[it,jt] - L[i,jt])`` over all
    quadruples with both rows valid at two distinct columns, or None."""
    n1, n2 = L.shape
    best = None
    for i in range(n1):
        for it in range(i + 1, n1):
            for j in range(n2):
                for jt in range(n2):
                    if j != jt and valid[i, j] and valid[it, j] and valid[i, jt] and valid[it, jt]:
                        d = (L[it, j] - L[i, j]) - (L[it, jt] - L[i, jt])
                        best = d if best is None else max(best, d)
    return best


def _one_shared_column():
    """Rows 0-4 share only column 0 with each other; rows 5 and 6 share
    columns 0 and 1 and differ by a constant there, so the one quadruple
    reads D = 0 and must come from that pair."""
    L = np.full((7, 8), np.nan)
    L[:, 0] = np.arange(7.0)
    for i in range(5):
        L[i, i + 2] = 10.0 * i
    L[5, 1], L[6, 1] = 3.0, 4.0
    return L, None


def _separability_inputs():
    rng = np.random.default_rng(20261018)
    cases = {}
    for density in (0.0, 0.3, 0.7, 0.95):
        L = rng.normal(size=(23, 31))
        L[rng.random(L.shape) < density] = np.nan
        cases[f"nan-{density}"] = (L, None)
    L = rng.normal(size=(19, 17))
    cases["valid-mask"] = (L, rng.random(L.shape) < 0.6)
    L = rng.normal(size=(17, 21))
    L[rng.random(L.shape) < 0.2] = np.nan
    cases["nan-and-mask"] = (L, rng.random(L.shape) < 0.8)
    cases["rounded-ties"] = (np.round(rng.normal(size=(25, 24)), 1), None)
    cases["integer-ties"] = (rng.integers(-2, 3, size=(12, 9)).astype(float), None)
    cases["additive"] = (np.arange(9.0)[:, None] + np.arange(6.0)[None, :] ** 2, None)
    cases["one-shared-column"] = _one_shared_column()
    # an infinity is not valid, as NaN is not
    L = rng.normal(size=(23, 31))
    L[rng.random(L.shape) < 0.1] = np.inf
    L[rng.random(L.shape) < 0.1] = -np.inf
    L[rng.random(L.shape) < 0.1] = np.nan
    cases["inf-and-nan"] = (L, None)
    L = rng.normal(size=(70, 2048))
    L[rng.random(L.shape) < 0.1] = np.nan
    cases["blocks-70x2048"] = (L, None)
    # separable but for one bump in rows 32 and 40, the last row of the first
    # block below row 0 and a row of the second: a tie across blocks
    L = np.arange(70.0)[:, None] + (np.arange(2048) % 17)[None, :]
    L[[32, 40], 7] += 1.0
    cases["block-edge-ties"] = (L, None)
    cases["one-row"] = (rng.normal(size=(1, 6)), None)
    cases["one-column"] = (rng.normal(size=(6, 1)), None)
    cases["no-columns"] = (np.empty((6, 0)), None)
    cases["all-nan"] = (np.full((5, 4), np.nan), None)
    r1, r2 = surface_grids(40, 37)
    for mu in (MU, 0.0):
        cases[f"surface-mu{mu}"] = (pp.expo_surface(pp.reference_pair(mu), r1, r2), None)
    # exactly additive: every row an exact shift of every complete row, so
    # every pair is certified to spread 0.0 and none is read
    L = (rng.integers(-50, 50, size=120)[:, None] + rng.integers(-50, 50, size=90)[None, :]).astype(float)
    cases["additive-integers"] = (L, None)
    M = L.copy()
    M[rng.random(L.shape) < 0.2] = np.nan
    M[[7, 11, 50, 51, 119]] = L[0]  # the complete rows, all equal
    cases["additive-integers-nan"] = (M, None)
    # no row without a NaN: no reference row, so every pair is read
    L = rng.normal(size=(40, 30))
    L[np.arange(40), rng.integers(0, 30, size=40)] = np.nan
    cases["no-complete-row"] = (L, None)
    L = np.arange(40.0)[:, None] + np.arange(30.0)[None, :] ** 2
    L[np.arange(40), np.arange(40) % 30] = np.nan
    cases["no-complete-row-additive"] = (L, None)
    # rows k, i, it whose computed spreads break the triangle inequality
    # by one ulp: s(i, it) = 0x1.ffffffffffffdp-1 but s(i, k) + s(k, it) =
    # 0x1.ffffffffffffcp-1, so a bound without its rounding margin would
    # skip the maximum; scaled by 2**996 (exactly) to |L| near 2e300
    rows = [["-0x1.0000000000001p+1", "-0x1.8000000000001p+1"],  # k
            ["0x1.0000000000003p+0", "0x1.0p+0"],  # i
            ["0x1.0000000000002p+0", "0x1.0p-53"]]  # it
    L = np.array([[float.fromhex(v) for v in row] for row in rows])
    cases["margin-triangle"] = (L * 2.0**996, None)
    # near-separable at |L| ~ 1e300 with spreads of a few ulps
    L = 1e300 * (1.0 + np.round(rng.normal(size=(30, 20)) * 4.0) * 2.0**-52)
    L[::3] = 1e300
    cases["huge-scale-tiny-spreads"] = (L, None)
    # a maximum of 0.0 tied between a certified pair, which is never read,
    # and a pair read: fl(1.1 - 0.1) == fl(1.0 - 0.0) although 1.1 - 0.1
    # is not 1 exactly, so rows A and B spread 0.0 without being shifts
    A, B, C = [0.0, 0.1, 0.0], [1.0, 1.1, 1.0], [2.0, 2.1, 2.0]
    cases["zero-tie-read-first"] = (np.array([A, B, C]), None)
    cases["zero-tie-certified-first"] = (np.array([B, C, A]), None)
    # rows B and C each spread 0.0 against row A, but not as exact shifts,
    # and spread one ulp against each other: the certificate must not pass
    rows = [["0x0.0p+0", "0x1.999999999999ap-4", "0x1.6666666666666p-1"],
            ["0x1.0p+0", "0x1.199999999999ap+0", "0x1.b333333333333p+0"],
            ["0x1.0p-1", "0x1.3333333333333p-1", "0x1.3333333333333p+0"]]
    cases["zero-spreads-not-shifts"] = (np.array([[float.fromhex(v) for v in row] for row in rows]), None)
    # the same scaled up: 150 rows of 1026 columns, read in TwoSum blocks of
    # 65536 // 1026 = 63 rows.  Rows A and A + 2**-8 alternate, exact shifts,
    # but for row B in the last block, which spreads 0.0 against row A and
    # one ulp against A + 2**-8: the certificate must check every block
    A, B = cases["zero-spreads-not-shifts"][0][:2]
    L = np.tile(np.array([A, A + 2.0**-8]), (75, 342))
    L[-1] = np.tile(B, 342)
    cases["zero-spreads-not-shifts-last-block"] = (L, None)
    # 150 rows and 8 reference rows make blocks of 65536 // (8 * 150) = 54
    # rows: 0-53, 54-107 and 108-149.  Rows 0-53 are exact shifts on columns
    # 0 and 1, the complete rows are 54-107, and rows 120 and 140 spread 0.0
    # against them on columns 2 and 3 without being shifts.  The maximum is
    # 0.0 and its first pair (0, 1) is certified; the scan reads only from
    # the last two blocks, where certified pairs come later
    L = np.full((150, 4), np.nan)
    L[:, :2] = np.arange(150.0)[:, None]
    L[54:108] = [0.0, 0.0, 0.0, 0.1]
    L[[120, 140], :2] = np.nan
    L[120, 2:], L[140, 2:] = [1.0, 1.1], [2.0, 2.1]
    cases["blocks-zero-certified-unread"] = (L, None)
    # additive but for rows 140 and 145: the maximum is in the last block,
    # the only one the scan reads from
    L = (rng.integers(-50, 50, size=150)[:, None] + rng.integers(-50, 50, size=20)[None, :]).astype(float)
    L[140, 5] += 1.0
    L[145, 9] += 0.5
    cases["blocks-max-in-last"] = (L, None)
    # a smooth surface of 200 rows in blocks of 40, with an all-NaN row in
    # the block of the maximum's first row (126): its spreads are NaN, and a
    # block maximum that took them in would skip the block
    r1, r2 = surface_grids(200, 12)
    L = pp.expo_surface(pp.reference_pair(MU), r1, r2)
    L[130] = np.nan
    cases["blocks-nan-row-smooth"] = (L, None)
    # exact shifts of row 0 but for one bump each in rows 188 and 189, in
    # the last of the blocks of 43 rows, which holds the maximum alone.  At
    # |L| ~ 2**-1053 every operation is exact and the margin rounds to 0, so
    # that block's bound equals the maximum: the block test must take it
    L = (rng.integers(-50, 50, size=190)[:, None] + rng.integers(-50, 50, size=12)[None, :]).astype(float)
    L[188, 3] += 1.0
    L[189, 5] += 1.0
    cases["blocks-max-last-pair-exact"] = (L * 2.0**-1060, None)
    # exact shifts of row 0 with rows 0 and 1 missing three samples each:
    # 2 * 3 = n2 - 2 columns, so rows 0 and 1 share two and are the answer;
    # with n2 = 7 they share one, and the answer is rows 0 and 2
    for n2, gap in ((8, 5), (7, 4)):
        L = (rng.integers(-50, 50, size=10)[:, None] + rng.integers(-50, 50, size=n2)[None, :]).astype(float)
        L[0, :3] = np.nan
        L[1, gap:] = np.nan
        cases[f"twice-missing-is-n2-minus-{n2 - 6}"] = (L, None)
    return cases


SEPARABILITY_INPUTS = _separability_inputs()


def assert_equals_reference_loop(L, valid=None):
    r1 = np.linspace(0.0, 1.0, L.shape[0])
    r2 = np.linspace(2.0, 3.0, L.shape[1])
    # separability_test reads NaN as not valid
    masked = L if valid is None else np.where(valid, L, np.nan)
    try:
        want = _reference_separability(L, r1, r2, valid=valid)
    except pp.ConfigurationError:
        with pytest.raises(pp.ConfigurationError):
            pp.separability_test(masked, r1, r2)
        return
    got = pp.separability_test(masked, r1, r2)
    assert got == want  # every field, argmax included


@pytest.mark.parametrize("name", sorted(SEPARABILITY_INPUTS))
def test_separability_equals_reference_loop(name):
    assert_equals_reference_loop(*SEPARABILITY_INPUTS[name])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    n1=st.integers(1, 30),
    n2=st.integers(1, 30),
    nan=st.sampled_from([0.0, 0.02, 0.2, 0.6]),
    decimals=st.sampled_from([None, 0, 1]),
    additive=st.booleans(),
    exponent=st.sampled_from([0, -1060, 990]),
    inf=st.sampled_from([0.0, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
def test_separability_property_equals_reference_loop(n1, n2, nan, decimals, additive, exponent, inf, seed):
    """Random shapes and NaN densities; rounded values give ties, additive
    ones certified rows, the exponents subnormal or huge entries, and
    ``inf`` the share of entries set to +inf or -inf."""
    rng = np.random.default_rng(seed)
    if additive:
        a, b = rng.normal(size=(n1, 1)), rng.normal(size=(1, n2))
        L = (a if decimals is None else np.round(a, decimals)) + (b if decimals is None else np.round(b, decimals))
        L[rng.random(L.shape) < 0.05] += 1.0
    else:
        L = rng.normal(size=(n1, n2))
        L = L if decimals is None else np.round(L, decimals)
    L = L * 2.0**exponent
    L[rng.random(L.shape) < nan] = np.nan
    hit = rng.random(L.shape) < inf
    L[hit] = np.copysign(np.inf, rng.normal(size=L.shape))[hit]
    assert_equals_reference_loop(L)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    kind=st.sampled_from(["noise", "bumps", "smooth", "shifts"]),
    nan=st.sampled_from(["none", "odd-rows", "empty-row"]),
    decimals=st.sampled_from([None, 0, 1]),
    exponent=st.sampled_from([0, -1060, 990]),
    seed=st.integers(0, 2**32 - 1),
)
def test_separability_property_equals_reference_loop_over_blocks(kind, nan, decimals, exponent, seed):
    """Shapes of many row blocks, 150 to 1000 rows: NaNs only in odd rows
    leave at least 8 complete rows, hence blocks of at most
    65536 // (8 * 150) = 54 rows.  A few bumps on an additive surface or a
    small smooth term keep most block pairs provably short of the maximum;
    noise keeps few.  The shape comes from the seed, evenly spread."""
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(150, 1001)), int(rng.integers(2, 10))
    a, b = rng.normal(size=(n1, 1)), rng.normal(size=(1, n2))
    if decimals is not None:
        a, b = np.round(a, decimals), np.round(b, decimals)
    if kind == "noise":
        L = rng.normal(size=(n1, n2))
        L = L if decimals is None else np.round(L, decimals)
    elif kind == "smooth":
        L = a + b + 1e-3 * np.sin(np.outer(np.linspace(0.0, 3.0, n1), np.linspace(0.0, 2.0, n2)))
    else:
        L = a + b if kind == "bumps" else (rng.integers(-50, 50, (n1, 1)) + rng.integers(-50, 50, (1, n2))).astype(float)
        for _ in range(rng.integers(0, 4)):
            L[rng.integers(n1), rng.integers(n2)] += 1.0
    L = L * 2.0**exponent
    if nan == "odd-rows":
        L[1::2][rng.random((n1 // 2, n2)) < 0.1] = np.nan
    elif nan == "empty-row":
        L[rng.integers(n1)] = np.nan
    assert_equals_reference_loop(L)


@pytest.mark.parametrize("mu", [MU, 0.0])
def test_separability_memory_stays_bounded(mu):
    """The 3002 x 9 surface of ``projpair separability --n1 3000 --n2 8``:
    no n1 x n1 array, as 3002**2 int64 shared-column counts would take
    72 MB.  Blocks hold several ``step`` chunks of rows here, which no
    other test compares with the reference loop."""
    pair = pp.reference_pair(mu)
    r1, r2 = cli._separability_axes(pair.first.theta0, 3000, 8)
    L = pp.expo_surface(pair, r1, r2)
    tracemalloc.start()
    try:
        got = pp.separability_test(L, r1, r2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert got == _reference_separability(L, r1, r2)


@pytest.mark.parametrize("mu", [MU, 0.0])
def test_separability_pipeline_memory_is_bounded(mu):
    """The 642 x 641 surface of ``projpair separability --n1 640 --n2 640``:
    ``expo_surface`` holds ``L`` and block buffers, no temporary as large as
    ``L``, and ``separability_test`` reads ``L`` in place, with no copy."""
    pair = pp.reference_pair(mu)
    r1, r2 = cli._separability_axes(pair.first.theta0, 640, 640)
    tracemalloc.start()
    try:
        L = pp.expo_surface(pair, r1, r2)
        surface_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        pp.separability_test(L, r1, r2)
        test_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert surface_peak <= L.nbytes + 2 * 2**20
    assert test_peak <= 4 * 2**20


@pytest.mark.parametrize("inf", [False, True])
def test_separability_reads_a_read_only_surface_and_leaves_it_unchanged(inf):
    r1, r2 = surface_grids(40, 37)
    L = pp.expo_surface(pp.reference_pair(MU), r1, r2)
    if inf:
        L[3, 4], L[20, 7] = np.inf, -np.inf
    want = _reference_separability(L, r1, r2)
    L.flags.writeable = False
    before = L.tobytes()
    assert pp.separability_test(L, r1, r2) == want
    assert L.tobytes() == before


@pytest.mark.parametrize("mu", [MU, 0.0])
def test_separability_cli_surface_equals_reference_loop(mu):
    """The 642 x 641 surface of ``projpair separability --n1 640 --n2 640``."""
    pair = pp.reference_pair(mu)
    r1, r2 = cli._separability_axes(pair.first.theta0, 640, 640)
    L = pp.expo_surface(pair, r1, r2)
    assert L.shape == (642, 641)
    assert pp.separability_test(L, r1, r2) == _reference_separability(L, r1, r2)


def _shift_surface(kind):
    """An additive surface, every row an exact shift of row 0, with NaN
    holes in every row but row 0 (the first reference row).

    ``big``: row 0 is ``2**53 + 1 + b`` and the other rows ``a + b``, with
    ``b`` odd and ``a`` even, so a row minus row 0 is ``a - 2**53 - 1``,
    which rounds: TwoSum's error term then holds the two parts
    ``x - (s - bb)`` and ``-y - bb``, and the second changes from column to
    column (with ``b`` mod 4) while their sum stays constant.  ``mu0``: the
    unweighted reference pair's surface, which reference row 0 certifies
    whole in ``projpair separability``."""
    rng = np.random.default_rng(4)
    if kind == "big":
        n1, n2 = 50, 40
        b = 2.0 * rng.integers(0, 500, n2) + 1.0
        L = 2.0 * rng.integers(-500, 500, n1)[:, None] + b
        L[0] = 2.0**53 + (b + 1.0)
        assert set(b % 4) == {1.0, 3.0}
    else:
        L = pp.expo_surface(pp.reference_pair(0.0), *surface_grids(50, 40))
    holes = rng.random(L.shape) < 0.1
    holes[0] = False
    L[holes] = np.nan
    return L


@pytest.mark.parametrize("kind", ["big", "mu0"])
def test_separability_certifies_every_shift_in_one_pass(monkeypatch, kind):
    """Reference row 0 certifies every row as an exact shift, so the only
    row differences formed are those of its one pass, n1 rows, and no pair
    is read.  A certificate that misses a row, or a TwoSum error term that
    is not exact, sends the scan to more reference rows and to row pairs."""
    L = _shift_surface(kind)
    n1, n2 = L.shape
    r1, r2 = np.arange(float(n1)), np.arange(float(n2))
    want = _reference_separability(L, r1, r2)
    read = []
    spreads = pp.consistency._spreads

    def counting(rows, row, out):
        read.append(rows.shape[0])
        return spreads(rows, row, out)

    monkeypatch.setattr(pp.consistency, "_spreads", counting)
    got = pp.separability_test(L, r1, r2)
    assert got == want
    assert got.max_abs_D == 0.0
    assert sum(read) == n1


def test_separability_bounds_alone_skip_pairs_of_shifts(monkeypatch):
    """Exactly additive but for one bump in each of rows 20 and 21, with NaN
    holes: the pairs of exact shifts, nearly all of the n1 (n1 - 1) / 2, have
    ``U = 8 eps * scale``, below the maximum 2.0, so only the reference
    passes and pairs holding a bumped row form row differences."""
    rng = np.random.default_rng(0)
    n1, n2 = 150, 20
    L = (rng.integers(-50, 50, size=n1)[:, None] + rng.integers(-50, 50, size=n2)[None, :]).astype(float)
    L[20, 5] += 1.0
    L[21, 9] += 1.0
    holes = rng.random(L.shape) < 0.1
    holes[[20, 21, 20, 21], [5, 5, 9, 9]] = False
    L[holes] = np.nan
    r1, r2 = np.arange(float(n1)), np.arange(float(n2))
    want = _reference_separability(L, r1, r2)
    read = []
    spreads = pp.consistency._spreads

    def counting(rows, row, out):
        read.append(rows.shape[0])
        return spreads(rows, row, out)

    monkeypatch.setattr(pp.consistency, "_spreads", counting)
    got = pp.separability_test(L, r1, r2)
    assert got == want
    assert got.max_abs_D == 2.0
    assert sum(read) <= 10 * n1 < n1 * (n1 - 1) // 2


def test_reference_loop_matches_brute_force():
    rng = np.random.default_rng(7)
    inputs = [_one_shared_column()]
    for _ in range(40):
        n1, n2 = rng.integers(2, 9, size=2)
        L = np.round(rng.normal(size=(n1, n2)), 1)
        L[rng.random(L.shape) < rng.uniform(0.0, 0.6)] = np.nan
        inputs.append((L, rng.random(L.shape) < 0.9 if rng.random() < 0.5 else None))
    for L, valid in inputs:
        ok = np.isfinite(L) if valid is None else valid & np.isfinite(L)
        want = _brute_force_max_D(L, ok)
        r1 = np.arange(float(L.shape[0]))
        r2 = np.arange(float(L.shape[1]))
        if want is None:
            with pytest.raises(pp.ConfigurationError):
                _reference_separability(L, r1, r2, valid=valid)
            continue
        rep = _reference_separability(L, r1, r2, valid=valid)
        assert rep.max_abs_D == want
        i, it, j, jt = (int(v) for v in rep.argmax)
        assert (L[it, j] - L[i, j]) - (L[it, jt] - L[i, jt]) == want


def test_separability_rejects_overflowing_differences():
    L = np.array([[1e308, 0.0, 1.0], [-1e308, 2.0, 0.0], [0.0, 1.0, 3.0]])
    with pytest.raises(pp.ConfigurationError):
        pp.separability_test(L, np.arange(3.0), np.arange(3.0))
