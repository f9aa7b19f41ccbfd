"""Smooth bump phantoms, their closed-form integrals, and the target data."""

import math

import numpy as np
import pytest

import projpair as pp
from projpair.phantom import _bump_profile, _composite_gl

UNIT_BUMP_MASS = 0.46651239317833015


def unit_bump_mass_oracle(n: int = 400) -> float:
    """Tensor Gauss-Legendre quadrature of exp(-1/(1-|x|^2)) over the square.

    Cartesian, so it shares nothing with the package's polar reduction.
    The integrand is smooth on the closed square (zero outside the disc),
    which keeps the tensor rule accurate despite the kink at the rim.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    xx, yy = np.meshgrid(x, y := x, indexing="ij")
    s2 = xx**2 + yy**2
    vals = np.zeros_like(s2)
    inside = s2 < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
    return float(vals @ w @ w)


def test_unit_bump_mass_regression():
    oracle = unit_bump_mass_oracle()
    assert abs(oracle - UNIT_BUMP_MASS) < 1e-8
    assert abs(pp.mollifier_unit_mass() - UNIT_BUMP_MASS) < 1e-12


def test_bump_center_value():
    for amp in (1.0, 0.5, 3.25):
        ph = pp.Phantom((pp.Bump((2.0, -1.0), 4.0, amp),))
        val = ph(np.array([[2.0, -1.0]]))[0]
        assert abs(val - amp * math.exp(-1.0)) < 1e-15


def test_bump_vanishes_outside_support():
    ph = pp.Phantom((pp.Bump((0.0, 0.0), 3.0, 1.0),))
    pts = np.array([[3.0, 0.0], [0.0, -3.0], [2.2, 2.2], [50.0, 0.0]])
    np.testing.assert_array_equal(ph(pts), 0.0)


def test_bump_is_continuous_at_rim():
    ph = pp.Phantom((pp.Bump((0.0, 0.0), 1.0, 1.0),))
    r = 1.0 - np.logspace(-1, -12, 12)
    vals = ph(np.stack([r, np.zeros_like(r)], axis=-1))
    # decays toward the rim until it underflows to exact zero
    assert (np.diff(vals) <= 0).all()
    assert vals[0] > 0
    assert vals[-1] == 0.0


def dense_bump_eval(phantom, x):
    """Every bump's exponential at every point, masked to its support after."""
    out = np.zeros(x.shape[:-1])
    for b in phantom.bumps:
        d = x - np.asarray(b.center)
        s2 = (d[..., 0] ** 2 + d[..., 1] ** 2) / (b.radius**2)
        with np.errstate(divide="ignore", over="ignore"):
            out += b.amplitude * np.where(s2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - s2, 1e-300)), 0.0)
    return out


def test_bump_eval_equals_dense_formula():
    """Evaluating each bump inside its support only changes no bit, with
    overlapping bumps of both signs, points on the rims, and any point shape."""
    ph = pp.Phantom((pp.Bump((0.0, 0.0), 3.0, 1.0), pp.Bump((2.0, 1.0), 2.5, -0.4),
                     pp.Bump((-1.0, 2.0), 1.0, 2.0)))
    rng = np.random.default_rng(8)
    x = rng.uniform(-5.0, 5.0, size=(40, 30, 2))
    x[0, :4] = [[3.0, 0.0], [0.0, -3.0], [4.5, 1.0], [-1.0, 1.0]]  # rims
    np.testing.assert_array_equal(ph(x), dense_bump_eval(ph, x))
    np.testing.assert_array_equal(ph(x.reshape(-1, 2)), dense_bump_eval(ph, x).ravel())


def test_bump_eval_band_edges_bitwise():
    """Points exactly on the band edges |y - cy| = radius and the column
    edges |x - cx| = radius, and just inside, for radii whose radius**2 is
    not radius * radius, give the bits of the full evaluation."""
    radii = [r for r in np.random.default_rng(2).uniform(1.0, 50.0, 20000) if r**2 != r * r][:4]
    assert len(radii) == 4
    bumps = tuple(pp.Bump((3.0 * i - 4.5, 1.25 * i), float(r), (-1.0) ** i * (i + 0.5))
                  for i, r in enumerate(radii))
    ph = pp.Phantom(bumps)
    pts = []
    for b in bumps:
        cx, cy = b.center
        for y in (cy + b.radius, cy - b.radius, np.nextafter(cy + b.radius, cy), np.nextafter(cy - b.radius, cy)):
            for dx in (0.0, 1e-300, -1e-9, 1e-7, 0.5):
                pts.append((cx + dx, y))
        for x in (cx + b.radius, cx - b.radius, np.nextafter(cx + b.radius, cx), np.nextafter(cx - b.radius, cx)):
            for dy in (0.0, 1e-300, -1e-9, 1e-7, 0.5):
                pts.append((x, cy + dy))
    x = np.array(pts)
    assert ph(x).tobytes() == dense_bump_eval(ph, x).tobytes()
    grid = np.stack(np.meshgrid(np.linspace(-60, 60, 201), np.linspace(-60, 60, 173)), axis=-1)
    assert ph(grid).tobytes() == dense_bump_eval(ph, grid).tobytes()


def test_bump_eval_squares_no_offset_from_a_bump_far_away():
    """A bump whose offsets from the points overflow when squared adds
    nothing, and raises no overflow warning (an error under the test
    configuration)."""
    near = (pp.Bump((20.0, 5.0), 12.0, 1.0), pp.Bump((10.0, 0.0), 8.0, -0.7))
    far = pp.Bump((1e300, 0.0), 1e153, 1.0)
    x = np.stack(np.meshgrid(np.linspace(-35, 35, 71), np.linspace(-35, 35, 53)), axis=-1)
    assert pp.Phantom(near + (far,))(x).tobytes() == pp.Phantom(near)(x).tobytes()
    np.testing.assert_array_equal(pp.Phantom((far,))(x), 0.0)


def test_bump_eval_is_silent_where_the_sum_of_squares_overflows():
    # both offsets pass the box test, but dx**2 + dy**2 = 2e308 overflows
    # to inf, with no warning (an error under the test configuration); the
    # point is outside the support and adds +0.0, and the others keep
    # their bits
    ph = pp.Phantom((pp.Bump((0.0, 0.0), 1.2e154, 1.0),))
    x = np.array([[1e154, 1e154], [0.0, 0.0], [1e154, 0.0], [6e153, -6e153]])
    got = ph(x)
    assert got[0] == 0.0 and not np.signbit(got[0]) and got[1] > 0.0
    with np.errstate(over="ignore"):
        want = dense_bump_eval(ph, x)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("panels, order", [(1, 1), (3, 5), (4, 16)])
def test_composite_rule_integrates_polynomials_exactly(panels, order):
    # on [1, 3], away from the origin, every x^k with k <= 2 * order - 1
    nodes, weights = _composite_gl(1.0, 3.0, panels, order)
    assert nodes.shape == weights.shape == (panels * order,)
    assert np.all(np.diff(nodes) > 0) and 1.0 < nodes[0] and nodes[-1] < 3.0
    for k in range(2 * order):
        exact = (3.0 ** (k + 1) - 1.0) / (k + 1)
        assert abs(float(weights @ nodes**k) - exact) < 1e-14 * exact


def test_bump_profile_is_positive_zero_at_and_beyond_the_edge():
    for p in (1.0, 2.0):
        vals = _bump_profile(np.array([1.0, np.nextafter(1.0, 2.0), 1.5, 1e300, np.inf]), p)
        assert np.all(vals == 0.0) and not np.any(np.signbit(vals))


def test_bump_profile_inside_the_support_and_in_place():
    s2 = np.array([0.0, 0.25, 0.5, 0.9, np.nextafter(1.0, 0.0)])
    for p in (1.0, 2.0):
        want = np.exp(-p / (1.0 - s2))
        assert _bump_profile(s2, p).tobytes() == want.tobytes()
        out = np.empty_like(s2)
        assert _bump_profile(s2, p, out=out) is out
        assert out.tobytes() == want.tobytes()
        same = s2.copy()
        _bump_profile(same, p, out=same)
        assert same.tobytes() == want.tobytes()


def test_bump_profile_broadcasts_p_against_s2():
    # a column of per-ray p against a row of per-node s2, as the projector
    # calls it: each row is the profile at that p, bitwise
    s2 = np.array([0.0, 0.25, 0.9, np.nextafter(1.0, 0.0), 1.0])
    p = np.array([[1.0], [2.5], [1e12]])
    out = np.empty((3, 5))
    assert _bump_profile(s2, p, out=out) is out
    for row, pk in zip(out, p[:, 0]):
        assert row.tobytes() == _bump_profile(s2, pk).tobytes()
    assert s2[1] == 0.25
    # a large p at the edge overflows the divide quietly to exp(-inf) = +0.0
    assert out[2, -1] == 0.0 and not np.signbit(out[2, -1])


def test_bump_eval_is_amplitude_times_the_profile():
    bump = pp.Bump((1.5, -2.0), 3.0, 1.75)
    pts = np.random.default_rng(9).uniform(-3.0, 6.0, size=(500, 2))
    s2 = ((pts[:, 0] - 1.5) ** 2 + (pts[:, 1] + 2.0) ** 2) / bump.radius**2
    assert 0 < np.count_nonzero(s2 < 1.0) < s2.size
    got = pp.bump_eval(pp.Phantom((bump,)), pts)
    assert got.tobytes() == (bump.amplitude * _bump_profile(s2)).tobytes()


def test_bump_validation():
    with pytest.raises(pp.ConfigurationError):
        pp.Bump((0.0, 0.0), -1.0, 1.0)
    with pytest.raises(pp.ConfigurationError):
        pp.Bump((0.0, 0.0), 0.0, 1.0)


def test_bump_radius_square_must_be_positive_and_finite():
    with pytest.raises(pp.ConfigurationError, match="squared"):
        pp.Bump((0.0, 0.0), 1e155)
    assert pp.Bump((0.0, 0.0), 1e154).radius == 1e154
    # 1e-200 squared underflows to 0, and bump_eval divided 0 by 0 at the
    # center; the smallest radius kept still evaluates there
    for radius in (1e-200, 1e-300):
        with pytest.raises(pp.ConfigurationError, match="squared"):
            pp.Bump((0.0, 0.0), radius)
    tiny = pp.Phantom((pp.Bump((0.0, 0.0), 1e-160),))
    assert pp.bump_eval(tiny, np.zeros((1, 2))).tolist() == [math.exp(-1.0)]


def test_phantom_mass_scales_with_radius_and_amplitude():
    rng = np.random.default_rng(7)
    for _ in range(20):
        amp = rng.uniform(0.2, 3.0)
        rad = rng.uniform(0.5, 9.0)
        ph = pp.Phantom((pp.Bump(tuple(rng.uniform(-5, 5, 2)), rad, amp),))
        assert abs(pp.phantom_mass(ph) - amp * rad**2 * UNIT_BUMP_MASS) < 1e-10


def test_phantom_mass_additive():
    b1 = pp.Bump((0.0, 0.0), 2.0, 1.0)
    b2 = pp.Bump((10.0, 0.0), 3.0, 0.5)
    m = pp.phantom_mass(pp.Phantom((b1, b2)))
    m1 = pp.phantom_mass(pp.Phantom((b1,)))
    m2 = pp.phantom_mass(pp.Phantom((b2,)))
    assert abs(m - (m1 + m2)) < 1e-12


def test_l2_norm_disjoint_vs_quadrature():
    """Disjoint bumps use the closed form; force the quadrature path with an
    overlapping pair and check it against a dense Riemann sum."""
    ph = pp.Phantom((pp.Bump((0.0, 0.0), 3.0, 1.0), pp.Bump((1.0, 0.0), 3.0, 0.7)))
    n = 1200
    xs = np.linspace(-4.0, 5.0, n)
    ys = np.linspace(-4.0, 4.0, n)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    vals = ph(np.stack([xx.ravel(), yy.ravel()], axis=-1))
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    riemann = math.sqrt(float(np.sum(vals**2)) * cell)
    assert abs(pp.phantom_l2_norm(ph) - riemann) < 2e-4 * riemann


def test_l2_norm_closed_form_for_disjoint_bumps():
    """The per-bump closed form, which the continuity bound uses, against a
    dense Riemann sum; the integrand is flat at every support's edge, so the
    sum converges faster than any power of the spacing."""
    ph = pp.Phantom((pp.Bump((0.0, 0.0), 3.0, 1.0), pp.Bump((8.0, 1.0), 2.5, 0.6)))
    assert pp.phantom._supports_disjoint(ph)
    n = 600
    xs = np.linspace(-4.0, 11.0, n)
    ys = np.linspace(-4.0, 4.0, n)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    vals = ph(np.stack([xx.ravel(), yy.ravel()], axis=-1))
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    riemann = math.sqrt(float(np.sum(vals**2)) * cell)
    assert abs(pp.phantom_l2_norm(ph) - riemann) < 1e-9 * riemann


def test_random_phantom_respects_domain_and_clearance():
    dom = pp.reference_domain()
    rng = np.random.default_rng(20240501)
    boundary = dom.boundary_points(2048)
    for _ in range(10):
        ph = pp.random_phantom(rng, dom)
        assert len(ph.bumps) == 3
        for b in ph.bumps:
            c = np.asarray(b.center)
            assert dom.contains(c[None, :])[0]
            gap = np.min(np.hypot(*(boundary - c).T)) - b.radius
            assert gap > 0.99
        # pairwise disjoint supports
        for i, bi in enumerate(ph.bumps):
            for bj in ph.bumps[i + 1:]:
                d = math.hypot(bi.center[0] - bj.center[0], bi.center[1] - bj.center[1])
                assert d > bi.radius + bj.radius


def test_random_phantom_draws_are_pinned():
    """Seed 7 rejects 2 centres outside the reference domain, 5 too near its
    boundary and 3 too near a kept bump before it keeps 3: the bumps, bit
    for bit, and the generator's next draw pin the whole sequence."""
    rng = np.random.default_rng(7)
    ph = pp.random_phantom(rng, pp.reference_domain())
    want = [["-0x1.33c498303a4fbp+4", "-0x1.bfa0a544c39c0p+3", "0x1.d7897f8d1b38ap+2", "0x1.040b3374bce50p-1"],
            ["-0x1.ec1dc5ca557c0p+1", "0x1.4604ea6de1b00p-2", "0x1.711e80c9fa69ep+2", "0x1.fe45a8ecc3a0bp+0"],
            ["0x1.71a748fb93a5ap+4", "-0x1.8300eb38f8ab1p+4", "0x1.15a1bc2aead11p+2", "0x1.d20c2c0c72851p+0"]]
    assert [[float.hex(v) for v in (*b.center, b.radius, b.amplitude)] for b in ph.bumps] == want
    assert rng.uniform() == 0.5097908098684232


def test_random_phantom_needs_an_integer_count():
    dom = pp.reference_domain()
    with pytest.raises(pp.ConfigurationError, match="integer"):
        pp.random_phantom(np.random.default_rng(3), dom, n_bumps=1.5)
    assert len(pp.random_phantom(np.random.default_rng(3), dom, n_bumps=np.int64(2)).bumps) == 2


def test_random_phantom_exhaustion():
    # a bump of radius >= 3 kept 1 from the boundary needs a disc of radius > 4
    dom = pp.ImageDomain.disc((0.0, 0.0), 4.0)
    rng = np.random.default_rng(3)
    with pytest.raises(pp.ConfigurationError, match="could not place"):
        pp.random_phantom(rng, dom, n_bumps=1)


# --- the prescribed inconceivable data --------------------------------------


def test_inconceivable_g2_values():
    assert abs(pp.inconceivable_g2(0.0) - 0.25) < 1e-15
    assert abs(pp.inconceivable_g2(math.atan(1.0 / 12.0)) - 0.1875) < 1e-15
    assert abs(pp.inconceivable_g2(math.atan(1.0 / 6.0))) < 1e-15
    assert pp.inconceivable_g2(-math.atan(1.0 / 13.0)) > 0


def test_inconceivable_g2_support_and_domain():
    r = np.linspace(-0.39, 0.39, 2001)
    g = pp.inconceivable_g2(r)
    assert (g >= 0).all()
    assert (g[np.abs(r) >= pp.SUPPORT_HALF_ANGLE] == 0).all()
    assert (g[np.abs(r) < 0.9 * pp.SUPPORT_HALF_ANGLE] > 0).all()
    with pytest.raises(pp.DomainError):
        pp.inconceivable_g2(pp.HALF_FAN_ANGLE * 1.01)


def test_reference_target_layout():
    view1, view2 = pp.reference_target(*pp.reference_grids(128))
    assert view1.grid.view == 1 and view2.grid.view == 2
    assert view1.values.shape == (128,) and view2.values.shape == (128,)
    np.testing.assert_array_equal(view1.values, 0.0)
    centers = view2.grid.centers
    rel = centers - 0.5 * (view2.grid.lo + view2.grid.hi)
    np.testing.assert_allclose(view2.values, pp.inconceivable_g2(rel), rtol=0, atol=1e-15)
    assert view2.values.max() > 0.24
