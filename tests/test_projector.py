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


@pytest.mark.parametrize("geom", [pp.ParGeometry(0.0), pp.FanGeometry((0.0, 80.0), theta0=-math.pi, mu=-0.154)],
                         ids=["par", "fan-mu"])
def test_far_bump_projects_to_zeros_without_overflow(geom):
    # |centre - origin|**2 overflows; the distance from the line does not
    far = pp.Phantom((pp.Bump((1e300, 0.0), 1e153, 1.0),))
    vals = pp.project_values(geom, far, np.linspace(-1.0, 1.0, 33))
    assert vals.tobytes() == np.zeros(33).tobytes()


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
    re-evaluated at every doubling until the last one settles.  It repeats
    the projector's per-node arithmetic in the chord coordinate
    ``v = (t + b) / sq`` (uncut chords by their mirrored half, cut ones on
    all nodes of ``[v0, 1]``), and it reads the projector's rule constants,
    so a test that tightens them tightens both."""
    if not isinstance(geom, (pp.ParGeometry, pp.FanGeometry)):
        raise pp.ConfigurationError(f"unsupported geometry type {type(geom).__name__}")
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    origins, dirs = geom.ray(r)
    oc = origins - np.asarray(bump.center, dtype=float)
    R = bump.radius
    h = np.abs(dirs[:, 0] * oc[:, 1] - dirs[:, 1] * oc[:, 0])
    near = h < R
    if not np.any(near):
        return out
    disc = (R - h[near]) * (R + h[near])
    b = np.sum(oc[near] * dirs[near], axis=-1)
    sq = np.sqrt(disc)
    ok = (disc > 0.0) & (sq - b > geom.t_min)
    if not np.any(ok):
        return out
    idx = np.flatnonzero(near)[ok]
    disc, b, sq, rr = disc[ok], b[ok], sq[ok], r[idx]
    p = R**2 / disc
    cut = -b - sq < geom.t_min
    v0 = np.where(cut, (geom.t_min + b) / np.where(cut, sq, 1.0), -1.0)

    nodes, weights = np.polynomial.legendre.leggauss(projector._ORDER)

    def unit(panels):
        edges = np.linspace(0.0, 1.0, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        # unit-interval nodes of every panel, shape (panels * order,)
        return (mids[:, None] + half * nodes[None, :]).ravel(), np.tile(half * weights, panels)

    def profile(s2, p):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-p / np.maximum(1.0 - s2, 1e-300))

    def composite(panels: int) -> np.ndarray:
        integral = np.empty(rr.shape)
        # uncut chords: the panels / 2 panels on [0, 1], each node paired
        # with its mirror -v
        u, w = unit(panels // 2)
        m = ~cut
        fval = profile(u * u, p[m, None])
        if geom.mu == 0.0:
            w = 2.0 * w
        else:
            t = sq[m, None] * u
            fval *= geom.weight(rr[m, None], t - b[m, None]) + geom.weight(rr[m, None], -t - b[m, None])
        fval *= w
        # np.sum keeps the reduction order independent of the batch size,
        # unlike @ which picks BLAS blockings by shape
        integral[m] = np.sum(fval, axis=-1)
        # cut chords: all the panels on [v0, 1]
        u, w = unit(panels)
        v = (1.0 - v0[cut, None]) * u + v0[cut, None]
        fval = profile(v * v, p[cut, None])
        if geom.mu != 0.0:
            fval *= geom.weight(rr[cut, None], v * sq[cut, None] - b[cut, None])
        fval *= w
        integral[cut] = np.sum(fval, axis=-1) * (1.0 - v0[cut])
        return bump.amplitude * sq * integral

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
    """A rule no ray meets: two points per panel, two panels to start (the
    rule's panel counts are even), an absolute tolerance below any change
    and no relative floor."""
    for name, value in (("_ORDER", 2), ("_ABS_TOL", 1e-16), ("_REL_FLOOR", 0.0),
                        ("_MAX_REFINE", max_refine), ("_INIT_PANELS", 2)):
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


def coordinate_gl(geom, phantom, r, panels=256):
    """Composite Gauss-Legendre in the arc parameter ``t`` over each exact
    support interval of ``ray_segments``, ``panels`` panels of 16 points,
    with each node's point formed in the plane and its squared distance from
    the centre taken there: the projector's former arithmetic, at one fixed
    rule far finer than any ray here needs."""
    mu = getattr(geom, "mu", 0.0)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = 0.5 / panels
    u = ((np.arange(panels) + 0.5)[:, None] / panels + half * nodes).ravel()
    w = np.tile(half * weights, panels)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    total = np.zeros(r.shape)
    for bump in phantom.bumps:
        for i, ri in enumerate(r):
            seg = ray_segments(geom, ri, bump)
            if seg is None:
                continue
            t0, t1 = seg
            t = t0 + (t1 - t0) * u
            origin, e = geom.ray(ri)
            d = origin + t[:, None] * e - np.asarray(bump.center)
            s2 = (d[:, 0] ** 2 + d[:, 1] ** 2) / bump.radius**2
            with np.errstate(under="ignore"):
                f = np.exp(-1.0 / np.maximum(1.0 - s2, 1e-300)) * np.exp(mu * t)
            total[i] += bump.amplitude * (t1 - t0) * float(np.sum(f * w))
    return total


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("rays", RAY_SETS)
def test_values_within_tolerance_of_the_coordinate_form_rule(family, rays):
    geom = FAMILIES[family]
    r = _rays(geom, RAY_SETS[rays](np.random.default_rng(len(family) * 31 + len(rays))))
    phantom = pp.Phantom((BUMP,))
    got = pp.project_values(geom, phantom, r)
    assert np.max(np.abs(got - coordinate_gl(geom, phantom, r))) <= projector._ABS_TOL


@pytest.mark.parametrize("mu", [0.0, -0.154])
def test_clipped_fan_values_within_tolerance_of_the_coordinate_form_rule(mu):
    geom = pp.FanGeometry((5.0, -4.0), theta0=-math.pi, mu=mu)
    r = np.random.default_rng(5).uniform(-math.pi, math.pi, 600)
    phantom = pp.Phantom((BUMP,))
    got = pp.project_values(geom, phantom, r)
    assert np.all(got > 0)
    assert np.max(np.abs(got - coordinate_gl(geom, phantom, r))) <= projector._ABS_TOL


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("panels", [2, 16, 512])
def test_mirrored_half_rule_equals_the_full_node_rule(family, panels):
    # the full-node rule on [v0, 1] = [-1, 1] has the same nodes as the
    # mirrored half, so the two differ by roundoff only
    geom = FAMILIES[family]
    r = _rays(geom, np.linspace(-0.95, 0.95, 101))
    idx, chords = projector._chords(geom, BUMP, r, geom.ray(r))
    np.testing.assert_array_equal(idx, np.arange(r.size))
    np.testing.assert_array_equal(chords[4], -1.0)
    half = projector._chord_integrals(geom, panels, chords, True)
    full = projector._chord_integrals(geom, panels, chords, False)
    assert np.all(half > 0)
    np.testing.assert_allclose(half, full, rtol=1e-13, atol=0.0)


# Overlapping supports, a negative amplitude, a bump around CUT_VERTEX and
# one that none of the rays below meets (the tests check that it meets none).
MULTI_BUMP = pp.Phantom((
    BUMP,
    pp.Bump((8.0, -2.0), 5.0, -0.6),
    pp.Bump((5.0, -4.0), 2.0, 1.3),
    pp.Bump((2.0, -9.0), 3.0, 0.8),
    pp.Bump((-300.0, 250.0), 1.0, 1.0),
))
CUT_VERTEX = (5.0, -4.0)


def _multi_bump_rays(geom, seed):
    """Rays about BUMP, or for a fan about CUT_VERTEX all directions
    except those within 0.1 of the far bump's."""
    rng = np.random.default_rng(seed)
    if isinstance(geom, pp.FanGeometry) and tuple(geom.vertex_xy) == CUT_VERTEX:
        far = np.subtract(MULTI_BUMP.bumps[-1].center, CUT_VERTEX)
        r = math.atan2(far[1], far[0]) + rng.uniform(0.1, 2.0 * math.pi - 0.1, 600)
        r = (r + math.pi) % (2.0 * math.pi) - math.pi
    else:
        r = _rays(geom, rng.uniform(-1.6, 1.6, 257))
    assert projector._chords(geom, MULTI_BUMP.bumps[-1], r, geom.ray(r))[0].size == 0
    return r


def _reference_outcome(geom, phantom, r):
    """What ``project_values`` must give for ``phantom``, from one-bump
    ``_reference_project`` calls: the values (or best estimates) summed in
    bump order from +0.0; on an AccuracyError also the rays some bump leaves
    unsettled, each counted once, which one-ray calls find as each ray's
    arithmetic is its own, and the largest last change."""
    total, tols, late = np.zeros(r.shape), [], np.zeros(r.shape, dtype=bool)
    for bump in phantom.bumps:
        one = pp.Phantom((bump,))
        try:
            total += _reference_project(geom, one, r)
        except pp.AccuracyError as err:
            total += err.best_estimate
            tols.append(err.achieved_tol)
            for i in range(r.size):
                try:
                    _reference_project(geom, one, r[i : i + 1])
                except pp.AccuracyError:
                    late[i] = True
    if not tols:
        return total.tobytes()
    message = (f"ray quadrature did not settle for {np.count_nonzero(late)} ray(s) "
               f"after {projector._MAX_REFINE} refinements")
    return message, total.tobytes(), max(tols)


def _phantom_outcome(geom, phantom, r):
    try:
        vals = pp.project_values(geom, phantom, r)
    except pp.AccuracyError as err:
        return str(err), err.best_estimate.tobytes(), err.achieved_tol
    return vals.tobytes()


MULTI_BUMP_FAMILIES = {
    **FAMILIES,
    "cut": pp.FanGeometry(CUT_VERTEX, theta0=-math.pi),
    "cut-mu": pp.FanGeometry(CUT_VERTEX, theta0=-math.pi, mu=-0.154),
}


@pytest.mark.parametrize("family", MULTI_BUMP_FAMILIES)
def test_multi_bump_values_equal_the_sum_of_one_bump_calls_bitwise(family):
    geom = MULTI_BUMP_FAMILIES[family]
    r = _multi_bump_rays(geom, 11)
    total = np.zeros(r.shape)
    for bump in MULTI_BUMP.bumps:
        total += pp.project_values(geom, pp.Phantom((bump,)), r)
    got = pp.project_values(geom, MULTI_BUMP, r)
    assert got.tobytes() == total.tobytes()
    assert got.tobytes() == _reference_outcome(geom, MULTI_BUMP, r)
    # the chords the sums are made of: every bump but the far one meets rays,
    # some rays meet three, and the fan about CUT_VERTEX cuts chords
    chords = [projector._chords(geom, bump, r, geom.ray(r)) for bump in MULTI_BUMP.bumps]
    assert all(idx.size for idx, _ in chords[:-1])
    assert np.max(np.bincount(np.concatenate([idx for idx, _ in chords]))) >= 3
    assert np.any(np.concatenate([c[4] for _, c in chords]) != -1.0) == family.startswith("cut")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("max_refine", [1, 3])
def test_accuracy_error_fields_equal_all_rays_loop(monkeypatch, family, max_refine):
    geom = FAMILIES[family]
    r = _rays(geom, np.random.default_rng(max_refine).uniform(-1.3, 1.3, 64))
    _tighten(monkeypatch, max_refine)
    want = _outcome(_reference_project, geom, BUMP, r)
    assert isinstance(want, tuple)
    assert _outcome(pp.project_values, geom, BUMP, r) == want
    # several bumps: one error for all, some rays late in more than one bump
    want = _reference_outcome(geom, MULTI_BUMP, r)
    assert isinstance(want, tuple)
    assert _phantom_outcome(geom, MULTI_BUMP, r) == want


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


def test_unit_rule_is_the_cached_read_only_composite_rule():
    nodes, weights = projector._unit_rule(8, 16)
    assert projector._unit_rule(8, 16)[0] is nodes
    for got, want in zip((nodes, weights), pp.phantom._composite_gl(0.0, 1.0, 8, 16)):
        assert got.tobytes() == want.tobytes()
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


VERTEX_BUMP = pp.Phantom((pp.Bump((0.0, 80.0), 3.0, 1.0),))
BATCHED_BUMPS = pp.Phantom((
    pp.Bump((0.0, 80.0), 3.0, 1.0),
    pp.Bump((2.0, 77.0), 5.0, -0.6),
    pp.Bump((10.0, 20.0), 8.0, 1.2),
    pp.Bump((14.0, 24.0), 6.0, 0.9),
))


@pytest.mark.parametrize("case, kinds", [
    ("par", {True}),
    ("fan", {True}),
    # bumps = 0 80 3 1 of the continuous-projection CI step: view 1's
    # vertex inside the bump cuts every chord
    ("vertex-bump", {False}),
    # that step's batched bumps at mu = -0.154: two bumps hold view 1's vertex
    ("batched-bumps", {True, False}),
])
def test_each_doubling_integrates_only_the_chord_kinds_present(monkeypatch, case, kinds):
    """A doubling calls ``_chord_integrals`` once per kind of chord it has
    (uncut, mirrored; cut by ``t_min``, not mirrored), and not for a kind
    with no chord: parallel views and fan views away from the vertex cut
    none."""
    if case in ("par", "fan"):
        geom = FAMILIES["par"] if case == "par" else pp.reference_pair(0.0).first
        phantom, r = pp.Phantom((BUMP,)), _rays(geom, np.linspace(-1.2, 1.2, 101))
    else:
        pair = pp.reference_pair(0.0 if case == "vertex-bump" else -0.154)
        geom, phantom = pair.first, VERTEX_BUMP if case == "vertex-bump" else BATCHED_BUMPS
        r = np.linspace(*pp.view_range(geom, pair.domain), 100)
    want = pp.project_values(geom, phantom, r)
    calls = []
    integrals = projector._chord_integrals

    def counting(geom, panels, chords, mirrored):
        calls.append((mirrored, chords.shape[1]))
        return integrals(geom, panels, chords, mirrored)

    monkeypatch.setattr(projector, "_chord_integrals", counting)
    np.testing.assert_array_equal(pp.project_values(geom, phantom, r), want)
    assert {mirrored for mirrored, _ in calls} == kinds
    assert min(n for _, n in calls) > 0
