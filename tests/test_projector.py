"""Continuous projections against an independent adaptive-Simpson oracle."""

import math

import numpy as np
import pytest

import projpair as pp


def ray_segments(geom, r, bump):
    """Exact parameter interval where the ray meets the bump's support disc."""
    if isinstance(geom, pp.ParGeometry):
        d = pp.direction(geom.theta)
        origin = r * d
        e = pp.perp(d)
        t_floor = -math.inf
    else:
        origin = np.asarray(geom.vertex, dtype=float)
        e = pp.direction(r)
        t_floor = 0.0
    oc = np.asarray(bump.center, dtype=float) - origin
    b = float(oc @ e)
    c = float(oc @ oc) - bump.radius**2
    disc = b * b - c
    if disc <= 0:
        return None
    t0 = b - math.sqrt(disc)
    t1 = b + math.sqrt(disc)
    t0 = max(t0, t_floor)
    return (t0, t1) if t1 > t0 else None


def simpson_ray_oracle(geom, phantom, r, tol=1e-12):
    """Adaptive Simpson along the ray, one bump support interval at a time."""
    mu = getattr(geom, "mu", 0.0)

    def integrand(t, bump):
        if isinstance(geom, pp.ParGeometry):
            d = pp.direction(geom.theta)
            x = r * d + t * pp.perp(d)
        else:
            x = np.asarray(geom.vertex, dtype=float) + t * pp.direction(r)
        s2 = float(np.sum((x - np.asarray(bump.center)) ** 2)) / bump.radius**2
        if s2 >= 1.0:
            return 0.0
        return bump.amplitude * math.exp(-1.0 / (1.0 - s2)) * math.exp(mu * t)

    def simpson(f, a, b, fa, fm, fb, whole, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (simpson(f, a, m, fa, flm, fm, left, depth - 1)
                + simpson(f, m, b, fm, frm, fb, right, depth - 1))

    total = 0.0
    for bump in phantom.bumps:
        seg = ray_segments(geom, r, bump)
        if seg is None:
            continue
        a, b = seg
        f = lambda t: integrand(t, bump)
        fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        total += simpson(f, a, b, fa, fm, fb, whole, 48)
    return total


PHANTOM = pp.Phantom((
    pp.Bump((4.0, -6.0), 7.0, 1.0),
    pp.Bump((-12.0, 9.0), 5.0, 0.6),
))


def test_par_projection_matches_simpson():
    geom = pp.ParGeometry(0.35)
    rng = np.random.default_rng(21)
    for r in rng.uniform(-18, 18, size=12):
        want = simpson_ray_oracle(geom, PHANTOM, r)
        got = pp.project_ray(geom, PHANTOM, r)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_fan_projection_matches_simpson():
    geom = pp.FanGeometry((-90.0, 5.0), theta0=-math.pi, mu=-0.154)
    base = math.atan2(-5.0, 90.0)
    rng = np.random.default_rng(22)
    for r in base + rng.uniform(-0.15, 0.15, size=12):
        want = simpson_ray_oracle(geom, PHANTOM, r)
        got = pp.project_ray(geom, PHANTOM, r)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_projection_zero_off_support():
    geom = pp.ParGeometry(0.0)
    vals = pp.project_values(geom, PHANTOM, np.array([40.0, -40.0, 25.0]))
    np.testing.assert_array_equal(vals, 0.0)


def test_projection_rejects_unsupported_geometry():
    with pytest.raises(pp.ConfigurationError):
        pp.project_values(object(), PHANTOM, np.array([0.0]))


def test_batch_equals_single_bitwise():
    geom = pp.FanGeometry((-90.0, 5.0), theta0=-math.pi, mu=-0.1)
    base = math.atan2(-5.0, 90.0)
    rs = base + np.linspace(-0.12, 0.12, 17)
    batch = pp.project_values(geom, PHANTOM, rs)
    singles = np.array([pp.project_ray(geom, PHANTOM, r) for r in rs])
    np.testing.assert_array_equal(batch, singles)


def test_project_view_wraps_grid():
    det = pp.DetectorGrid(1, 33, -0.1, 0.1)
    geom = pp.FanGeometry((-90.0, 5.0), theta0=-math.pi)
    data = pp.project_view(geom, PHANTOM, det)
    assert data.grid is det
    np.testing.assert_array_equal(
        data.values, pp.project_values(geom, PHANTOM, det.centers))


def test_exponential_weight_changes_value():
    r = math.atan2(-5.0, 90.0)
    flat = pp.project_ray(pp.FanGeometry((-90.0, 5.0), theta0=-math.pi), PHANTOM, r)
    damped = pp.project_ray(
        pp.FanGeometry((-90.0, 5.0), theta0=-math.pi, mu=-0.154), PHANTOM, r)
    assert flat > 0
    # mass sits ~78-102 cm from the vertex, so the weight is well under e^-10
    assert damped < flat * math.exp(-0.154 * 78.0)
    assert damped > flat * math.exp(-0.154 * 102.0)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        pp.QuadratureSpec(order=1)
    with pytest.raises(ValueError):
        pp.QuadratureSpec(max_refine=0)


def test_accuracy_error_carries_best_estimate():
    spec = pp.QuadratureSpec(order=2, abs_tol=1e-16, rel_floor=0.0,
                             max_refine=1, init_panels=1)
    geom = pp.ParGeometry(0.0)
    with pytest.raises(pp.AccuracyError) as info:
        pp.project_values(geom, PHANTOM, np.array([4.0]), spec=spec)
    err = info.value
    assert np.isfinite(err.best_estimate).all()
    assert err.achieved_tol > 1e-16


def test_continuity_bound_reference_views():
    pair = pp.reference_pair()
    rng = np.random.default_rng(20240501)
    ph = pp.random_phantom(rng, pair.domain)
    for geom in (pair.first, pair.second):
        lhs, rhs = pp.continuity_bound_check(geom, ph, pair.domain)
        assert lhs <= rhs * (1.0 + 1e-6)
        assert lhs > 0
    par = pp.ParGeometry(0.7)
    lhs, rhs = pp.continuity_bound_check(par, ph, pair.domain)
    assert lhs <= rhs * (1.0 + 1e-6)
