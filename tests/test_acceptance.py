"""Acceptance battery.  One test per binding claim, one printed line each.

Every criterion must pass.  Each test states the numbers it compares, so a
failure shows both sides.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines for passing tests too).
"""

import functools
import math
import os
import time

import numpy as np
import pytest

import projpair as pp

MU = pp.ATTENUATION_MU


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


@functools.lru_cache(maxsize=None)
def desk_operator(mu):
    return pp.reference_operator(nx=200, n_bins=100, mu=mu)


def canonical_pairs():
    dom = pp.ImageDomain.disc((2.0, -1.0), 16.0)
    return {
        "par-par": pp.PairGeometry(pp.ParGeometry(0.3), pp.ParGeometry(1.9), dom),
        "par-fan": pp.PairGeometry(
            pp.ParGeometry(0.4), pp.FanGeometry((-90.0, 10.0), theta0=-math.pi), dom),
        "fan-fan": pp.reference_pair(mu=0.0),
    }


def randomized_pairs():
    rng = np.random.default_rng(4242)
    dom = pp.ImageDomain.disc((3.0, 2.0), 15.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    v1 = 110.0 * np.array([math.cos(phi), math.sin(phi)])
    v2 = 95.0 * np.array([math.cos(phi + 0.6 * math.pi), math.sin(phi + 0.6 * math.pi)])
    fan_fan = pp.PairGeometry(
        pp.FanGeometry(tuple(v1), theta0=-math.pi),
        pp.FanGeometry(tuple(v2), theta0=-math.pi), dom)
    th = rng.uniform(0.0, math.pi)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    vx = 100.0 * np.array([math.cos(psi), math.sin(psi)])
    par_fan = pp.PairGeometry(
        pp.ParGeometry(th), pp.FanGeometry(tuple(vx), theta0=psi), dom)
    par_par = pp.PairGeometry(
        pp.ParGeometry(rng.uniform(0.0, math.pi)),
        pp.ParGeometry(rng.uniform(0.0, math.pi) + 1.2), dom)
    return {"par-par": par_par, "par-fan": par_fan, "fan-fan": fan_fan}


def probe_tuple(theta0):
    base = theta0 + math.pi
    return (base + math.pi / 4.0, base + math.pi / 6.0, base, base - math.pi / 6.0)


def test_criterion_1_closed_form_constant():
    """The double difference at the four-angle probe is
    (-8 - sqrt(2) + 4*sqrt(3) + sqrt(6)) * mu * |separation| / 2.

    G is mu * sum(+-(t1 - t2)) over the four ray intersections (signed by the
    pair orientation).  Solved exactly, that sum is
    80 + 320 sqrt(2) - 80 sqrt(3) - 160 sqrt(6) = -bracket * |dl| / 2 with
    |dl| = 80 sqrt(2); the factor 1/2 belongs to the constant.  ``eval_G`` is
    also compared with the intersection parameters from ``np.linalg.solve``,
    a route that shares no code with it.  The probe's intersections lie on
    backward ray extensions outside the domain, so this is a check of the
    algebra, not a certification at an admissible quadruple."""
    pair = pp.reference_pair()
    tup = probe_tuple(pair.first.theta0)
    s = pp.pair_orientation(pair)
    v1 = np.asarray(pair.first.vertex_xy)
    v2 = np.asarray(pair.second.vertex_xy)
    dl = s * (v2 - v1)
    got = pp.eval_G(*tup, MU, dl)
    bracket = -8.0 - math.sqrt(2.0) + 4.0 * math.sqrt(3.0) + math.sqrt(6.0)
    assert format(bracket, ".3g") == "-0.0365"
    want = bracket * MU * float(np.hypot(*dl)) / 2.0

    def ray(a):
        return np.array([math.cos(a), math.sin(a)])

    # v1 + t1 * ray(a) == v2 + t2 * ray(b), one 2x2 system per ray pair
    total = 0.0
    for a, b, sign in ((tup[0], tup[2], 1), (tup[1], tup[2], -1),
                       (tup[0], tup[3], -1), (tup[1], tup[3], 1)):
        t1, t2 = np.linalg.solve(np.column_stack([ray(a), -ray(b)]), v2 - v1)
        total += sign * (t1 - t2)
    solved = s * MU * total
    ok = (abs(got - want) <= 1e-12 * abs(want)
          and abs(got - solved) <= 1e-12 * abs(solved))
    report(1, ok, f"evaluated {got:.10g}, asserted {want:.10g}, "
                  f"from solved intersections {solved:.10g}")
    assert ok, (
        f"direct evaluation gives {got:.17g}; the closed form gives {want:.17g}; "
        f"the solved intersections give {solved:.17g}")


def test_criterion_2_kernel_condition_certification():
    t0 = time.monotonic()
    worst = 0.0
    for family in (canonical_pairs(), randomized_pairs()):
        for kind, pair in family.items():
            assert pp.check_pair_admissible(pair).passed, kind
            kernels = pp.known_kernels(pair)
            assert kernels is not None, kind
            worst = max(worst, pp.kernel_condition_residual(pair, kernels, n=10000))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    report(2, ok, f"worst relative {worst:.3e} over 6 geometries, {elapsed:.2f} s")
    assert ok


def test_criterion_3_pprc_necessity_on_phantoms():
    t0 = time.monotonic()
    worst = 0.0
    for k, (kind, pair) in enumerate(canonical_pairs().items()):
        kernels = pp.known_kernels(pair)
        rng = np.random.default_rng(314159 + k)
        for _ in range(10):
            ph = pp.random_phantom(rng, pair.domain, n_bumps=2)
            d1 = pp.DetectorGrid(1, 4096, *pp.view_range(pair.first, pair.domain))
            d2 = pp.DetectorGrid(2, 4096, *pp.view_range(pair.second, pair.domain))
            tgt = (pp.project_view(pair.first, ph, d1),
                   pp.project_view(pair.second, ph, d2))
            i1, i2 = pp.pprc_sides(tgt, kernels)
            worst = max(worst, abs(i1 - i2) / max(abs(i1), abs(i2)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    report(3, ok, f"worst relative {worst:.3e} over 30 phantoms, {elapsed:.1f} s")
    assert ok


def test_criterion_4_separability_dichotomy():
    t0 = time.monotonic()
    pair = pp.reference_pair()
    theta0 = pair.first.theta0
    s = pp.pair_orientation(pair)
    v1, v2 = pair.first.vertex_xy, pair.second.vertex_xy
    tup = probe_tuple(theta0)
    margin = math.pi / 48.0
    r1 = np.union1d(
        np.linspace(theta0 + math.pi, theta0 + 1.5 * math.pi - margin, 160),
        [tup[0], tup[1]])
    r2 = np.union1d(
        np.linspace(theta0 + 0.5 * math.pi + margin, theta0 + math.pi, 160),
        [tup[2], tup[3]])
    L0 = pp.expo_surface(pp.reference_pair(0.0), r1, r2)
    rep0 = pp.separability_test(L0, r1, r2)
    Lm = pp.expo_surface(pair, r1, r2)
    repm = pp.separability_test(Lm, r1, r2)
    g_tup = abs(pp.eval_G(*tup, MU, s * (np.asarray(v2) - np.asarray(v1))))
    elapsed = time.monotonic() - t0
    ok = (rep0.verdict == "separable" and rep0.max_abs_D < 1e-10 * rep0.scale
          and repm.verdict == "non-separable" and repm.max_abs_D >= 0.9 * g_tup
          and elapsed < 30.0)
    report(4, ok, f"mu=0 max|D| {rep0.max_abs_D:.3e} (scale {rep0.scale:.3e}), "
                  f"mu={MU} max|D| {repm.max_abs_D:.6g} >= 0.9x{g_tup:.6g}, {elapsed:.1f} s")
    assert ok


def test_criterion_5_adjoint_exactness():
    op = pp.reference_operator(nx=64, n_bins=32)
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(20):
        f = rng.standard_normal(op.image.n_pixels)
        y1 = rng.standard_normal(32)
        y2 = rng.standard_normal(32)
        g1, g2 = np.split(op.forward(f), [32])
        lhs = float(g1 @ y1 + g2 @ y2)
        rhs = float(f @ op.adjoint(np.concatenate([y1, y2])))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    ok = worst < 1e-12
    report(5, ok, f"worst relative {worst:.3e} over 20 pairs")
    assert ok


def test_criterion_6_density_demonstration():
    t0 = time.monotonic()
    op = desk_operator(MU)
    tgt = pp.reference_target(*pp.reference_grids(100))
    g = np.concatenate([view.values for view in tgt])
    state = pp.cgne_solve(op, g, max_iter=2000, tol=1e-3)
    elapsed = time.monotonic() - t0
    ok = state.final_residual <= 1e-3 and state.iterations <= 2000 and elapsed < 300.0
    report(6, ok, f"relative residual {state.final_residual:.6e} after "
                  f"{state.iterations} iterations, {elapsed:.1f} s")
    assert ok


@pytest.mark.skipif("PROJPAIR_FULL_SCALE" not in os.environ,
                    reason="set PROJPAIR_FULL_SCALE=1 for the 1000^2 / 2x400 run")
def test_criterion_6_full_scale():
    op = pp.reference_operator(nx=1000, n_bins=400, mu=MU)
    tgt = pp.reference_target(*pp.reference_grids(400))
    g = np.concatenate([view.values for view in tgt])
    state = pp.cgne_solve(op, g, max_iter=10000, tol=0.0)
    report("6 (full scale)", True,
           f"achieved relative residual {state.final_residual:.6e} after "
           f"{state.iterations} iterations")
    assert state.final_residual <= 1e-3


def test_criterion_7_residual_floor_stall():
    """With the weight switched off the pair admits kernels, so the target
    carries a strictly positive predicted floor.  The stall clause asserts
    the final residual stays above half that floor.  It holds because the
    mu = 0 operator keeps the sampled kernels an exact annihilator of its
    range, and CGNE stops once the normal residual reaches working
    precision; the run then ends on the floor itself.  Both numbers are
    printed."""
    t0 = time.monotonic()
    op = desk_operator(0.0)
    kernels = pp.known_kernels(op.pair)
    tgt = pp.reference_target(*pp.reference_grids(100))
    g = np.concatenate([view.values for view in tgt])
    g_norm = float(np.linalg.norm(g))
    floor = pp.predicted_residual_floor(tgt, kernels)
    assert floor > 1e-3 * g_norm, "floor not strictly positive at the stated level"
    state = pp.cgne_solve(op, g, max_iter=2000, tol=0.0)
    final_abs = state.final_residual * g_norm
    elapsed = time.monotonic() - t0
    ok = final_abs >= 0.5 * floor and elapsed < 300.0
    report(7, ok, f"floor {floor:.6g} ({floor / g_norm:.6g} relative, > 1e-3: yes), "
                  f"final residual {final_abs:.3e} vs bound {0.5 * floor:.3e}, {elapsed:.1f} s")
    assert ok, (
        f"residual after 2000 iterations is {final_abs:.6e}, below the stall bound "
        f"0.5 * floor = {0.5 * floor:.6e}; the floor argument needs the discrete "
        f"range to stay orthogonal to the sampled kernels, and this operator's "
        f"rows span the whole data space")


def test_criterion_8_continuity_bound():
    t0 = time.monotonic()
    worst = 0.0
    checks = 0
    for mu in (MU, 0.0):
        pair = pp.reference_pair(mu)
        for seed, count in ((20240501, 3), (7, 1), (99, 5)):
            ph = pp.random_phantom(np.random.default_rng(seed), pair.domain,
                                   n_bumps=count)
            for geom in (pair.first, pair.second):
                lhs, rhs = pp.continuity_bound_check(geom, ph, pair.domain)
                assert lhs <= rhs * (1.0 + 1e-6), (mu, seed, lhs, rhs)
                worst = max(worst, lhs / rhs)
                checks += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    report(8, ok, f"{checks} projector bounds hold, worst lhs/rhs {worst:.4f}, {elapsed:.1f} s")
    assert ok


def test_criterion_9_discretization_convergence():
    t0 = time.monotonic()
    pair = pp.reference_pair()
    ph = pp.random_phantom(np.random.default_rng(20240501), pair.domain, n_bumps=3)

    def bin_average(geom, det, order=8):
        x, w = np.polynomial.legendre.leggauss(order)
        edges = det.lo + det.width * np.arange(det.n_bins)
        r = (edges[:, None] + 0.5 * det.width * (1.0 + x[None, :])).ravel()
        vals = pp.project_values(geom, ph, r).reshape(det.n_bins, order)
        return vals @ (w / 2.0)

    d1, d2 = pp.reference_grids(100)
    ref = np.concatenate([bin_average(pair.first, d1), bin_average(pair.second, d2)])
    errs = []
    for nx in (100, 200, 400):
        op = pp.reference_operator(nx=nx, n_bins=100)
        g = op.forward(pp.rasterize(ph, op.image))
        errs.append(float(np.linalg.norm(g - ref)
                          / np.linalg.norm(ref)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.monotonic() - t0
    ok = errs[0] > errs[1] > errs[2] and min(orders) >= 1.0 and elapsed < 300.0
    report(9, ok, "errors " + " ".join(f"{e:.3e}" for e in errs)
                  + ", orders " + " ".join(f"{o:.2f}" for o in orders)
                  + f", {elapsed:.1f} s")
    assert ok
