"""Conjugate-gradient normal-equation solver and the residual floor bound."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import projpair as pp


def test_diagonal_system_converges_in_two_steps():
    A = np.diag([1.0, 2.0])
    g = np.array([3.0, 4.0])
    st = pp.cgne_solve(A, g, max_iter=10, tol=1e-14)
    assert st.iterations <= 2
    assert st.stop_reason == "tolerance"
    assert np.allclose(st.iterate, [3.0, 2.0], atol=1e-12)
    assert st.final_residual <= 1e-14


def test_underdetermined_returns_min_norm_solution():
    A = np.array([[1.0, 1.0]])
    st = pp.cgne_solve(A, np.array([2.0]), max_iter=8, tol=1e-14)
    assert np.allclose(st.iterate, [1.0, 1.0], atol=1e-12)


def test_residual_history_monotone():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(20, 12))
    g = rng.normal(size=20)
    st = pp.cgne_solve(A, g, max_iter=30)
    h = st.residual_history
    assert h[0] == 1.0
    assert np.all(np.diff(h) <= 1e-14)
    assert h.size == st.iterations + 1


def test_zero_target():
    st = pp.cgne_solve(np.eye(3), np.zeros(3), max_iter=5)
    assert st.stop_reason == "zero_target"
    assert st.iterations == 0
    assert np.array_equal(st.residual_history, [0.0])
    assert np.array_equal(st.iterate, np.zeros(3))


def test_inconsistent_target_stops_on_normal_residual():
    # target orthogonal to the range: the adjoint kills it outright
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    st = pp.cgne_solve(A, np.array([0.0, 1.0]), max_iter=5)
    assert st.stop_reason == "normal_residual_zero"
    assert st.iterations == 0
    assert st.final_residual == 1.0
    assert np.array_equal(st.iterate, np.zeros(2))


def test_max_iter_zero_returns_start():
    st = pp.cgne_solve(np.eye(2), np.ones(2), max_iter=0)
    assert st.stop_reason == "max_iter"
    assert np.array_equal(st.iterate, np.zeros(2))
    assert np.array_equal(st.residual_history, [1.0])


def test_operator_interfaces_agree():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(9, 6))
    g = rng.normal(size=9)

    class Wrapped:
        def forward(self, x):
            return M @ x

        def adjoint(self, y):
            return M.T @ y

    a = pp.cgne_solve(M, g, max_iter=12)
    c = pp.cgne_solve(Wrapped(), g, max_iter=12)
    assert np.array_equal(a.iterate, c.iterate)
    assert np.array_equal(a.residual_history, c.residual_history)


def test_divergence_raises():
    op = SimpleNamespace(forward=lambda x: np.full(2, np.nan), adjoint=lambda y: np.ones(2))
    with pytest.raises(pp.DivergenceError) as exc:
        pp.cgne_solve(op, np.ones(2), max_iter=4)
    assert exc.value.iteration == 1


def test_operator_validation():
    with pytest.raises(pp.ConfigurationError):
        pp.cgne_solve(np.ones(3), np.ones(3), max_iter=1)
    with pytest.raises(pp.ConfigurationError):
        pp.cgne_solve(object(), np.ones(2), max_iter=1)
    with pytest.raises(pp.ConfigurationError):  # a (forward, adjoint) tuple is no operator
        pp.cgne_solve(((lambda x: x), (lambda y: y)), np.ones(2), max_iter=1)
    with pytest.raises(pp.ConfigurationError):
        pp.cgne_solve(np.eye(2), np.ones(2), max_iter=-1)


@pytest.mark.parametrize("options", [
    {"max_iter": 2.5}, {"max_iter": math.inf}, {"tol": -1.0}, {"tol": math.nan},
], ids=["max-iter-fraction", "max-iter-inf", "tol-negative", "tol-nan"])
def test_counts_and_tolerances_that_cannot_stop_are_refused(options):
    with pytest.raises(pp.ConfigurationError):
        pp.cgne_solve(np.eye(2), np.ones(2), **options)


def test_numpy_integer_max_iter_is_accepted():
    state = pp.cgne_solve(np.diag([1.0, 2.0]), np.ones(2), max_iter=np.int64(1))
    assert state.iterations == 1


def test_roundoff_annihilated_target_stops_on_floor():
    # A = P B with P an orthonormal basis of the complement of W: W^T A is
    # roundoff only, and the target's W component is unreachable
    rng = np.random.default_rng(13)
    tgt = small_target(rng.normal(size=7), rng.normal(size=5))
    kernels = pp.KernelPair(v1=lambda r: 1.0 + r, v2=lambda r: 2.0 - r, label="affine")
    d1, d2 = (view.grid for view in tgt)
    w = np.concatenate([d1.width * kernels.v1(d1.centers), -d2.width * kernels.v2(d2.centers)])
    q, _ = np.linalg.qr(np.column_stack([w, rng.normal(size=(12, 11))]))
    A = q[:, 1:] @ rng.normal(size=(11, 30))
    g = np.concatenate([view.values for view in tgt])
    floor = pp.predicted_residual_floor(tgt, kernels)
    assert floor > 0.1 * np.linalg.norm(g)
    st = pp.cgne_solve(A, g, max_iter=500)
    assert st.stop_reason == "normal_residual_zero"
    assert st.iterations < 500
    assert abs(st.final_residual * np.linalg.norm(g) - floor) <= 1e-12 * floor
    x_ls = np.linalg.lstsq(A, g, rcond=None)[0]
    assert np.linalg.norm(st.iterate) <= (1.0 + 1e-8) * np.linalg.norm(x_ls)


# --- residual floor -----------------------------------------------------------


def flat_kernels(c1=2.0, c2=1.0):
    return pp.KernelPair(v1=lambda r: np.full_like(r, c1),
                         v2=lambda r: np.full_like(r, c2),
                         label="flat")


def small_target(g1, g2):
    d1 = pp.DetectorGrid(1, len(g1), 0.0, 1.0)
    d2 = pp.DetectorGrid(2, len(g2), 0.0, 1.0)
    return pp.ProjectionData(d1, np.asarray(g1, float)), pp.ProjectionData(d2, np.asarray(g2, float))


def test_floor_zero_for_annihilated_target():
    tgt = small_target([1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0])
    assert pp.predicted_residual_floor(tgt, flat_kernels()) == 0.0


def test_floor_equals_norm_for_aligned_target():
    # target set to the packed annihilator itself
    tgt = small_target([2.0] * 4, [-1.0] * 4)
    w_norm = np.sqrt(4 * 4.0 + 4 * 1.0)
    got = pp.predicted_residual_floor(tgt, flat_kernels())
    assert abs(got - w_norm) < 1e-14


def test_floor_accepts_plain_view_tuple():
    d1 = pp.DetectorGrid(1, 3, 0.0, 1.0)
    d2 = pp.DetectorGrid(2, 3, 0.0, 1.0)
    views = (pp.ProjectionData(d1, np.ones(3)), pp.ProjectionData(d2, np.ones(3)))
    got = pp.predicted_residual_floor(views, flat_kernels())
    want = abs(3 * 2.0 - 3 * 1.0) / np.sqrt(3 * 4.0 + 3 * 1.0)
    assert abs(got - want) < 1e-14


def test_floor_sums_pairwise():
    # numpy's pairwise sums, not a BLAS dot, whose rounding follows its
    # thread count and blocking
    rng = np.random.default_rng(7)
    tgt = small_target(rng.normal(size=1000), rng.normal(size=1200))
    kernels = pp.KernelPair(v1=lambda r: 1.0 + r, v2=lambda r: np.exp(r), label="smooth")
    d1, d2 = (view.grid for view in tgt)
    g = np.concatenate([view.values for view in tgt])
    w = np.concatenate([d1.width * kernels.v1(d1.centers), -d2.width * kernels.v2(d2.centers)])
    want = abs(np.add.reduce(g * w)) / math.sqrt(np.add.reduce(w * w))
    assert pp.predicted_residual_floor(tgt, kernels) == want


def test_floor_refuses_views_out_of_order():
    tgt = small_target([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(pp.ConfigurationError, match="in that order"):
        pp.predicted_residual_floor(tgt[::-1], flat_kernels())


def test_floor_rejects_degenerate_kernels():
    tgt = small_target([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(pp.DegenerateKernelError):
        pp.predicted_residual_floor(tgt, flat_kernels(0.0, 0.0))
    bad = pp.KernelPair(v1=lambda r: np.full_like(r, np.nan),
                        v2=lambda r: np.ones_like(r), label="nan")
    with pytest.raises(pp.EvaluationError):
        pp.predicted_residual_floor(tgt, bad)


def test_floor_weights_bins_by_width():
    # consistent bin-average data on bins of widths 1/4 and 1/2:
    # sum g1 V1 w1 = 4 * 1 * 2 / 4 = 2 = 2 * 2 * 1 / 2 = sum g2 V2 w2
    d1 = pp.DetectorGrid(1, 4, 0.0, 1.0)
    d2 = pp.DetectorGrid(2, 2, 0.0, 1.0)
    tgt = pp.ProjectionData(d1, np.ones(4)), pp.ProjectionData(d2, np.full(2, 2.0))
    assert pp.predicted_residual_floor(tgt, flat_kernels()) == 0.0


def test_floor_is_reached_with_unequal_bin_counts():
    # mu = 0 reference pair with 40 and 48 bins: CGNE ends on the floor
    pair = pp.reference_pair(mu=0.0)
    (lo1, hi1), (lo2, hi2) = pp.reference_view_ranges()
    d1 = pp.DetectorGrid(1, 40, lo1, hi1)
    d2 = pp.DetectorGrid(2, 48, lo2, hi2)
    op = pp.PairOperator(pair, pp.ImageGrid.from_domain(64, 64, pair.domain, 70.0), d1, d2)
    tgt = (pp.ProjectionData(d1, np.zeros(40)),
           pp.ProjectionData(d2, pp.inconceivable_g2(d2.centers - d2.center)))
    floor = pp.predicted_residual_floor(tgt, pp.known_kernels(pair))
    g = np.concatenate([view.values for view in tgt])
    st = pp.cgne_solve(op, g, max_iter=2000)
    assert st.stop_reason == "normal_residual_zero"
    assert abs(st.final_residual * np.linalg.norm(g) - floor) <= 1e-12 * floor
