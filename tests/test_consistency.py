"""Range-condition kernels, the log-LHS surface, G, separability, PV form."""

import math

import numpy as np
import pytest

import projpair as pp

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


def test_kernel_condition_residual_all_kinds():
    for pair in (parpar_pair(), parfan_pair(), pp.reference_pair(mu=0.0)):
        K = pp.known_kernels(pair)
        assert pp.kernel_condition_residual(pair, K, n=2048) < 1e-12


def test_kernel_condition_invariant_under_joint_scaling():
    pair = pp.reference_pair(mu=0.0)
    K = pp.known_kernels(pair)
    for c in (3.7, -0.25):
        scaled = pp.KernelPair(
            v1=lambda r, c=c: c * K.v1(r),
            v2=lambda r, c=c: c * K.v2(r),
            label="scaled")
        assert pp.kernel_condition_residual(pair, scaled, n=512) < 1e-12


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
        ph = pp.random_phantom(rng, pair.domain, n_bumps=2,
                               radius_range=(2.5, 5.0))
        tgt = fine_target(pair, ph)
        i1, i2 = pp.pprc_sides(tgt, K)
        assert abs(i1 - i2) < 1e-6 * (abs(i1) + abs(i2) + 1.0)


def test_pprc_sides_reject_singular_kernel():
    tgt = pp.reference_target(*pp.reference_grids(64))
    c = tgt[0].grid.centers[10]
    bad = pp.KernelPair(v1=lambda r: 1.0 / (r - c), v2=lambda r: np.ones_like(r),
                        label="singular")
    with np.errstate(divide="ignore"), pytest.raises(pp.EvaluationError):
        pp.pprc_sides(tgt, bad)


# --- principal-value form for the parallel-fan pair --------------------------


def test_pv_hilbert_range_data():
    pair = parfan_pair()
    rng = np.random.default_rng(42)
    ph = pp.random_phantom(rng, pair.domain, n_bumps=2, radius_range=(2.5, 5.0))
    tgt = fine_target(pair, ph)
    resid = pp.pv_hilbert_residual(tgt, pair, [0.2, 0.1, 0.05])
    assert abs(resid) < 1e-10


def test_pv_hilbert_odd_symmetry():
    """Even data about the vertex offset makes the weighted integrand odd, so
    the symmetric exclusion cancels the view-1 side; the other view is zero."""
    pair = pp.PairGeometry(
        pp.ParGeometry(0.0), pp.FanGeometry((-60.0, 0.0), theta0=-math.pi),
        pp.ImageDomain.disc((2.0, -1.0), 16.0))
    s0 = -60.0
    g1_grid = pp.DetectorGrid(1, 32, s0 - 1.0, s0 + 1.0)
    g1 = np.exp(-((g1_grid.centers - s0) ** 2))
    g2_grid = pp.DetectorGrid(2, 16, 0.1, 0.3)
    tgt = pp.ProjectionData(g1_grid, g1), pp.ProjectionData(g2_grid, np.zeros(16))
    resid = pp.pv_hilbert_residual(tgt, pair, [0.5, 0.25, 0.125])
    assert abs(resid) < 1e-12


def test_pv_hilbert_resolution_error():
    # an odd bin count puts the singular offset exactly on a sample node
    pair = pp.PairGeometry(
        pp.ParGeometry(0.0), pp.FanGeometry((-60.0, 0.0), theta0=-math.pi),
        pp.ImageDomain.disc((2.0, -1.0), 16.0))
    g1_grid = pp.DetectorGrid(1, 31, -61.0, -59.0)
    g2_grid = pp.DetectorGrid(2, 16, 0.1, 0.3)
    tgt = pp.ProjectionData(g1_grid, np.ones(31)), pp.ProjectionData(g2_grid, np.zeros(16))
    with pytest.raises(pp.ResolutionError):
        pp.pv_hilbert_residual(tgt, pair, [0.5, 0.25, 0.125])


def test_pv_hilbert_requires_par_fan():
    tgt = pp.reference_target(*pp.reference_grids(64))
    with pytest.raises(pp.ConfigurationError):
        pp.pv_hilbert_residual(tgt, pp.reference_pair(mu=0.0), [0.4, 0.2, 0.1])
    with pytest.raises(pp.ConfigurationError):
        pp.pv_hilbert_residual(tgt, weighted_parfan_pair(), [0.4, 0.2, 0.1])


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


def test_separability_threshold_semantics():
    r1 = np.linspace(0.0, 1.0, 10)
    r2 = np.linspace(0.0, 1.0, 10)
    L = r1[:, None] * r2[None, :]  # multiplicative, clearly non-separable
    rep = pp.separability_test(L, r1, r2)
    assert rep.verdict == "non-separable"
    forced = pp.separability_test(L, r1, r2, threshold=10.0)
    assert forced.verdict == "separable"


def _reference_separability(L, r1_values, r2_values, threshold=None, valid=None):
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
    if threshold is None:
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
    return cases


SEPARABILITY_INPUTS = _separability_inputs()


@pytest.mark.parametrize("name", sorted(SEPARABILITY_INPUTS))
def test_separability_equals_reference_loop(name):
    L, valid = SEPARABILITY_INPUTS[name]
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
