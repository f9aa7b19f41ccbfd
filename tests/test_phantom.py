"""Smooth bump phantoms, their closed-form integrals, and the target data."""

import math

import numpy as np
import pytest

import projpair as pp

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
    """Points exactly on the band edges |y - cy| = radius, and just inside,
    for radii whose radius**2 is not radius * radius, give the bits of the
    full evaluation."""
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
    x = np.array(pts)
    assert ph(x).tobytes() == dense_bump_eval(ph, x).tobytes()
    grid = np.stack(np.meshgrid(np.linspace(-60, 60, 201), np.linspace(-60, 60, 173)), axis=-1)
    assert ph(grid).tobytes() == dense_bump_eval(ph, grid).tobytes()


def test_bump_validation():
    with pytest.raises(pp.ConfigurationError):
        pp.Bump((0.0, 0.0), -1.0, 1.0)
    with pytest.raises(pp.ConfigurationError):
        pp.Bump((0.0, 0.0), 0.0, 1.0)


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


def test_random_phantom_respects_domain_and_clearance():
    dom = pp.reference_domain()
    rng = np.random.default_rng(20240501)
    boundary = dom.boundary_points(2048)
    for _ in range(10):
        ph = pp.random_phantom(rng, dom, clearance=1.0)
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


def test_random_phantom_exhaustion():
    dom = pp.ImageDomain.disc((0.0, 0.0), 4.0)
    rng = np.random.default_rng(3)
    with pytest.raises(pp.ConfigurationError):
        pp.random_phantom(rng, dom, n_bumps=6, radius_range=(3.0, 3.5), max_tries=50)


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
