"""Continuous projections against an independent adaptive-Simpson oracle."""

import math

import numpy as np
import pytest

import projpair as pp
from projpair import projector


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
        got = float(pp.project_values(geom, PHANTOM, r))
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_fan_projection_matches_simpson():
    geom = pp.FanGeometry((-90.0, 5.0), theta0=-math.pi, mu=-0.154)
    base = math.atan2(-5.0, 90.0)
    rng = np.random.default_rng(22)
    for r in base + rng.uniform(-0.15, 0.15, size=12):
        want = simpson_ray_oracle(geom, PHANTOM, r)
        got = float(pp.project_values(geom, PHANTOM, r))
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
    singles = np.array([pp.project_values(geom, PHANTOM, r) for r in rs])
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
    flat = pp.project_values(pp.FanGeometry((-90.0, 5.0), theta0=-math.pi), PHANTOM, r)
    damped = pp.project_values(
        pp.FanGeometry((-90.0, 5.0), theta0=-math.pi, mu=-0.154), PHANTOM, r)
    assert flat > 0
    # mass sits ~78-102 cm from the vertex, so the weight is well under e^-10
    assert damped < flat * math.exp(-0.154 * 78.0)
    assert damped > flat * math.exp(-0.154 * 102.0)


def _reference_line_integrals(geom, bump, r):
    """The all-rays refinement loop, kept as the bitwise oracle: every ray is
    re-evaluated at every doubling until the last one settles.  It reads the
    projector's rule constants, so a test that tightens them tightens both."""
    if not isinstance(geom, (pp.ParGeometry, pp.FanGeometry)):
        raise pp.ConfigurationError(f"unsupported geometry type {type(geom).__name__}")
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    origins, dirs = geom.ray(r)
    c = np.asarray(bump.center, dtype=float)
    oc = origins - c
    b = np.sum(oc * dirs, axis=-1)
    c0 = np.sum(oc * oc, axis=-1) - bump.radius**2
    disc = b * b - c0
    hit = disc > 0.0
    if not np.any(hit):
        return out
    sq = np.sqrt(disc[hit])
    t0 = np.maximum(-b[hit] - sq, geom.t_min)
    t1 = -b[hit] + sq
    ok = t1 > t0
    if not np.any(ok):
        return out
    idx = np.flatnonzero(hit)[ok]
    t0, t1 = t0[ok], t1[ok]
    o = origins[idx]
    dv = dirs[idx]
    rr = r[idx]

    nodes, weights = np.polynomial.legendre.leggauss(projector._ORDER)

    def composite(panels: int) -> np.ndarray:
        edges = np.linspace(0.0, 1.0, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        # unit-interval nodes of every panel, shape (panels * order,)
        u = (mids[:, None] + half * nodes[None, :]).ravel()
        w = np.tile(half * weights, panels)
        t = t0[:, None] + (t1 - t0)[:, None] * u[None, :]
        pts = o[:, None, :] + t[..., None] * dv[:, None, :]
        dloc = pts - c
        s2 = (dloc[..., 0] ** 2 + dloc[..., 1] ** 2) / bump.radius**2
        with np.errstate(divide="ignore", over="ignore"):
            fval = np.where(s2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - s2, 1e-300)), 0.0)
        fval *= bump.amplitude
        wt = geom.weight(rr[:, None], t)
        # np.sum keeps the reduction order independent of the batch size,
        # unlike @ which picks BLAS blockings by shape
        return (t1 - t0) * np.sum(fval * wt * w, axis=-1)

    vals = composite(projector._INIT_PANELS)
    settled = np.zeros(vals.shape, dtype=bool)
    final = vals.copy()
    panels = projector._INIT_PANELS
    delta = np.full(vals.shape, np.inf)
    for _ in range(projector._MAX_REFINE):
        panels *= 2
        new = composite(panels)
        delta = np.abs(new - vals)
        tol = np.maximum(projector._ABS_TOL, projector._REL_FLOOR * np.abs(new))
        just = ~settled & (delta <= tol)
        final[just] = new[just]
        settled |= just
        vals = new
        if np.all(settled):
            break
    else:
        bad = int(np.sum(~settled))
        final[~settled] = vals[~settled]
        out[idx] = final
        raise pp.AccuracyError(
            f"ray quadrature did not settle for {bad} ray(s) after {projector._MAX_REFINE} refinements",
            best_estimate=out,
            achieved_tol=float(np.max(delta[~settled])),
        )
    out[idx] = final
    return out


def _outcome(project, geom, bump, r):
    """Values of a one-bump projection, or the fields of its AccuracyError."""
    try:
        vals = project(geom, pp.Phantom((bump,)), r)
    except pp.AccuracyError as err:
        return str(err), err.best_estimate.tobytes(), err.achieved_tol
    return vals.tobytes()


def _reference_project(geom, phantom, r):
    total = np.zeros(np.shape(r))
    for bump in phantom.bumps:
        total += _reference_line_integrals(geom, bump, r)
    return total


def _tighten(monkeypatch, max_refine=3):
    """A rule no ray meets: two points per panel, one panel to start, an
    absolute tolerance below any change and no relative floor."""
    for name, value in (("_ORDER", 2), ("_ABS_TOL", 1e-16), ("_REL_FLOOR", 0.0),
                        ("_MAX_REFINE", max_refine), ("_INIT_PANELS", 1)):
        monkeypatch.setattr(projector, name, value)


BUMP = pp.Bump((4.0, -6.0), 7.0, 1.0)
FAMILIES = {
    "par": pp.ParGeometry(0.35),
    "fan": pp.FanGeometry((-90.0, 5.0), theta0=-math.pi),
    "fan-mu": pp.FanGeometry((-90.0, 5.0), theta0=-math.pi, mu=-0.154),
}


def _rays(geom, offsets):
    """Ray parameters at signed offsets from the bump's centre, in units of
    its radius: |s| = 1 is tangent to the support, |s| > 1 misses it."""
    c = np.asarray(BUMP.center)
    if isinstance(geom, pp.ParGeometry):
        return float(c @ pp.direction(geom.theta)) + np.asarray(offsets) * BUMP.radius
    to_c = c - geom.vertex_xy
    half = math.asin(BUMP.radius / math.hypot(*to_c))
    return math.atan2(to_c[1], to_c[0]) + np.asarray(offsets) * half


RAY_SETS = {
    "one": lambda rng: [0.3],
    "miss": lambda rng: rng.uniform(1.01, 3.0, 9) * rng.choice([-1.0, 1.0], 9),
    "near-tangent": lambda rng: np.array([1 - 1e-3, 1 - 1e-7, 1 - 1e-12, -1 + 1e-9, 1.0, -1.0]),
    "4096": lambda rng: np.linspace(-1.2, 1.2, 4096),
    "mixed": lambda rng: rng.uniform(-1.5, 1.5, 257),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("rays", RAY_SETS)
def test_live_ray_loop_equals_all_rays_loop_bitwise(family, rays):
    geom = FAMILIES[family]
    r = _rays(geom, RAY_SETS[rays](np.random.default_rng(len(family) * 31 + len(rays))))
    assert _outcome(pp.project_values, geom, BUMP, r) == _outcome(_reference_project, geom, BUMP, r)


@pytest.mark.parametrize("mu", [0.0, -0.154])
def test_clipped_fan_chords_equal_all_rays_loop_bitwise(mu):
    # the vertex lies inside the support, so t_min = 0 clips every chord
    geom = pp.FanGeometry((5.0, -4.0), theta0=-math.pi, mu=mu)
    r = np.random.default_rng(5).uniform(-math.pi, math.pi, 600)
    assert _outcome(pp.project_values, geom, BUMP, r) == _outcome(_reference_project, geom, BUMP, r)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("max_refine", [1, 3])
def test_accuracy_error_fields_equal_all_rays_loop(monkeypatch, family, max_refine):
    geom = FAMILIES[family]
    r = _rays(geom, np.random.default_rng(max_refine).uniform(-1.3, 1.3, 64))
    _tighten(monkeypatch, max_refine)
    want = _outcome(_reference_project, geom, BUMP, r)
    assert isinstance(want, tuple)
    assert _outcome(pp.project_values, geom, BUMP, r) == want


def test_random_phantom_equals_all_rays_loop_bitwise():
    pair = pp.reference_pair()
    ph = pp.random_phantom(np.random.default_rng(3), pair.domain)
    for geom in (pair.first, pair.second):
        r = np.linspace(*pp.view_range(geom, pair.domain), 4096)
        np.testing.assert_array_equal(pp.project_values(geom, ph, r), _reference_project(geom, ph, r))


@pytest.mark.parametrize("mu", [0.0, -0.154])
@pytest.mark.parametrize("block", [1, 1000], ids=["one-ray", "uneven"])
def test_row_blocks_equal_one_block_bitwise(monkeypatch, mu, block):
    # 1 node per block leaves one ray per block; 1000 leaves a short last block
    geom = pp.FanGeometry((-90.0, 5.0), theta0=-math.pi, mu=mu)
    r = _rays(geom, np.linspace(-1.2, 1.2, 257))

    def outcomes():
        default = _outcome(pp.project_values, geom, BUMP, r)
        with monkeypatch.context() as tight:
            _tighten(tight)
            return [default, _outcome(pp.project_values, geom, BUMP, r)]

    want = outcomes()
    assert isinstance(want[1], tuple)
    monkeypatch.setattr(projector, "_BLOCK_NODES", block)
    assert outcomes() == want


def test_gauss_legendre_rule_is_read_only():
    nodes, weights = pp.phantom._gl_rule(16)
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights *= 2.0


def test_settled_rays_leave_the_batch():
    rows = []

    class CountingFan(pp.FanGeometry):
        def weight(self, r, t):
            rows.append(t.shape[0])
            return super().weight(r, t)

    # weighted, so that every doubling asks for the weight of its live rays
    # (a unit weight is never built); a weak weight, so that the rays do not
    # all settle at the absolute tolerance on the first doubling
    geom = CountingFan((-90.0, 5.0), theta0=-math.pi, mu=-0.01)
    r = _rays(geom, np.linspace(-0.999, 0.999, 200))
    phantom = pp.Phantom((BUMP,))
    vals = pp.project_values(geom, phantom, r)
    levels = rows.copy()
    np.testing.assert_array_equal(vals, _reference_project(geom, phantom, r))
    assert levels[0] == 200
    assert levels[-1] < levels[0]


def test_accuracy_error_sums_every_bump(monkeypatch):
    _tighten(monkeypatch)
    geom = pp.ParGeometry(0.0)
    r = np.array([-12.0, 4.0])

    def estimate(phantom):
        with pytest.raises(pp.AccuracyError) as info:
            pp.project_values(geom, phantom, r)
        return info.value

    both = estimate(PHANTOM)
    alone = [estimate(pp.Phantom((b,))) for b in PHANTOM.bumps]
    np.testing.assert_array_equal(both.best_estimate, sum(e.best_estimate for e in alone))
    assert np.all(both.best_estimate > 0)
    assert both.achieved_tol == max(e.achieved_tol for e in alone)
    assert str(both).startswith("ray quadrature did not settle for 2 ray(s)")


def test_project_values_keeps_the_shape_of_r():
    geom = pp.FanGeometry((-90.0, 5.0), theta0=-math.pi, mu=-0.154)
    r2d = _rays(geom, np.array([[-0.9, 0.1, 1.4], [0.5, -0.2, 0.0]]))
    got = pp.project_values(geom, PHANTOM, r2d)
    assert got.shape == (2, 3)
    np.testing.assert_array_equal(got, pp.project_values(geom, PHANTOM, r2d.ravel()).reshape(2, 3))
    scalar = pp.project_values(pp.ParGeometry(0.0), PHANTOM, 4.0)
    assert scalar.shape == ()
    assert scalar == pp.project_values(pp.ParGeometry(0.0), PHANTOM, [4.0])[0]
    assert scalar > 0


@pytest.mark.parametrize("geom", [pp.ParGeometry(0.0), pp.FanGeometry((-90.0, 5.0), theta0=-math.pi)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_project_values_rejects_non_finite_rays(geom, bad):
    with pytest.raises(pp.ConfigurationError, match="finite"):
        pp.project_values(geom, PHANTOM, [bad, 4.0])


def test_accuracy_error_carries_best_estimate(monkeypatch):
    _tighten(monkeypatch, max_refine=1)
    geom = pp.ParGeometry(0.0)
    with pytest.raises(pp.AccuracyError) as info:
        pp.project_values(geom, PHANTOM, np.array([4.0]))
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
