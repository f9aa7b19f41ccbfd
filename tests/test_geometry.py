"""Geometry layer: maps, inverses, intersections, admissibility."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import projpair as pp

ALPHA = math.atan2(5.0, 12.0)


def fd_jacobian_det(geom, r, t, h=1e-6):
    """Central-difference |det d(point)/d(r,t)| as an independent oracle."""
    def col(dr, dt):
        plus = np.asarray(geom.point(r + dr, t + dt), dtype=float)
        minus = np.asarray(geom.point(r - dr, t - dt), dtype=float)
        return (plus - minus) / (2.0 * math.hypot(dr, dt))

    c1 = col(h, 0.0)
    c2 = col(0.0, h)
    return abs(c1[0] * c2[1] - c1[1] * c2[0])


def test_perp_is_ccw_quarter_turn():
    np.testing.assert_allclose(pp.perp((1.0, 0.0)), (0.0, 1.0), atol=0)
    np.testing.assert_allclose(pp.perp((0.0, 1.0)), (-1.0, 0.0), atol=0)
    a = np.array([2.0, -3.0])
    b = np.array([0.5, 4.0])
    assert pp.perp(a) @ b == pp.cross2(a, b)


def test_direction_unit_circle():
    rng = np.random.default_rng(11)
    ang = rng.uniform(-10, 10, size=64)
    d = pp.direction(ang)
    np.testing.assert_allclose(np.hypot(d[..., 0], d[..., 1]), 1.0, rtol=1e-15)
    np.testing.assert_allclose(d[..., 0], np.cos(ang), rtol=1e-15)


def test_par_point_fixed():
    geom = pp.ParGeometry(0.0)
    np.testing.assert_allclose(geom.point(2.0, 3.0), (2.0, 3.0), atol=0)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(theta=st.floats(-math.pi, math.pi), r=st.floats(-50.0, 50.0), t=st.floats(-50.0, 50.0))
def test_par_round_trip(theta, r, t):
    geom = pp.ParGeometry(theta)
    r2, t2 = geom.inverse(geom.point(r, t))
    assert abs(r2 - r) < 1e-12 * max(1.0, abs(r))
    assert abs(t2 - t) < 1e-12 * max(1.0, abs(t))


def test_fan_point_fixed():
    geom = pp.FanGeometry((-80.0, 0.0))
    np.testing.assert_allclose(geom.point(0.0, 80.0), (0.0, 0.0), atol=1e-13)


def test_fan_point_rejects_nonpositive_t():
    geom = pp.FanGeometry((0.0, 80.0))
    with pytest.raises(pp.DomainError):
        geom.point(1.0, 0.0)
    with pytest.raises(pp.DomainError):
        geom.point(1.0, -2.0)


def test_par_point_refuses_only_minus_infinity():
    geom = pp.ParGeometry(0.3)
    with pytest.raises(pp.DomainError, match="t_min = -inf"):
        geom.point(1.0, -math.inf)
    assert np.all(np.isfinite(geom.point(1.0, [-1e300, 0.0, 1e300])))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    vertex=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
    theta0=st.floats(-math.pi, math.pi),
    u=st.floats(1e-9, 1.0 - 1e-9),  # clear of the branch cut
    t=st.floats(0.1, 200.0),
)
def test_fan_round_trip(vertex, theta0, u, t):
    geom = pp.FanGeometry(vertex, theta0=theta0)
    r = theta0 + 2.0 * math.pi * u
    r2, t2 = geom.inverse(geom.point(r, t))
    assert abs(r2 - r) < 1e-12
    assert abs(t2 - t) < 1e-12 * t


def test_fan_inverse_branch_cut():
    # just below the cut the returned angle sits near the top of the window
    geom = pp.FanGeometry((0.0, 0.0), theta0=0.0)
    r, t = geom.inverse((1.0, -1e-9))
    assert r > 2 * math.pi - 1e-8
    assert abs(t - 1.0) < 1e-12


def test_fan_inverse_singular_at_vertex():
    geom = pp.FanGeometry((3.0, 4.0))
    with pytest.raises(pp.SingularPointError):
        geom.inverse((3.0, 4.0))


@pytest.mark.parametrize("theta0", [-math.pi, 0.75 * math.pi, 0.0])
def test_fan_inverse_xy_equals_inverse_of_stacked_points(theta0):
    geom = pp.FanGeometry((-80.0, 3.5), theta0=theta0, mu=-0.154)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-40.0, 40.0, 37)
    ys = rng.uniform(-40.0, 40.0, 23)[:, None]
    # a row of abscissae against a column of ordinates, as the image grid does
    r, t = geom.inverse_xy(xs, ys)
    xx, yy = np.broadcast_arrays(xs, ys)
    r0, t0 = geom.inverse(np.stack([xx, yy], axis=-1))
    assert r.shape == t.shape == (23, 37)
    assert r.tobytes() == r0.tobytes() and t.tobytes() == t0.tobytes()
    r, t = geom.inverse_xy(1.0, -2.0)
    r0, t0 = geom.inverse((1.0, -2.0))
    assert (r, t) == (r0, t0) and np.shape(r) == ()
    with pytest.raises(pp.SingularPointError):
        geom.inverse_xy(np.array([0.0, -80.0]), np.array([0.0, 3.5]))


def test_fan_jacobian_inv_fixed():
    geom = pp.FanGeometry((3.0, 4.0))
    assert abs(geom.jacobian_inv((0.0, 0.0)) - 0.2) < 1e-15


def test_jacobian_inv_matches_finite_differences():
    rng = np.random.default_rng(103)
    for _ in range(50):
        vertex = tuple(rng.uniform(-50, 50, size=2))
        geom = pp.FanGeometry(vertex, theta0=-math.pi)
        r = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(1.0, 60.0)
        x = geom.point(r, t)
        det = fd_jacobian_det(geom, r, t)
        assert abs(geom.jacobian_inv(x) - 1.0 / det) < 1e-6 / det
    for _ in range(20):
        geom = pp.ParGeometry(rng.uniform(-math.pi, math.pi))
        r, t = rng.uniform(-30, 30, size=2)
        det = fd_jacobian_det(geom, r, t)
        x = geom.point(r, t)
        assert abs(geom.jacobian_inv(x) - 1.0 / det) < 1e-6


def test_weight_conventions():
    par = pp.ParGeometry(0.3)
    fan0 = pp.FanGeometry((10.0, 0.0), mu=0.0)
    fan = pp.FanGeometry((10.0, 0.0), mu=-0.154)
    assert par.weight(0.0, 5.0) == 1.0
    assert fan0.weight(0.0, 7.0) == 1.0
    assert abs(fan.weight(0.0, 7.0) - math.exp(-0.154 * 7.0)) < 1e-15
    # exactly 1 for every finite t, in the broadcast shape of r and t
    w = par.weight(np.zeros((2, 1)), [-1e300, -7.5, -0.0, 0.0, 3.25, 1e300])
    assert w.shape == (2, 6) and np.all(w == 1.0)


# --- intersections ---------------------------------------------------------


def test_fanfan_tau_reference_central_rays():
    f1, f2 = pp.FanGeometry(pp.REFERENCE_VERTEX_1), pp.FanGeometry(pp.REFERENCE_VERTEX_2)
    r1 = 1.5 * math.pi  # straight down from (0, 80)
    r2 = 2.0 * math.pi  # straight right from (-80, 0), lifted
    x, t1, t2 = pp.intersect(f1, f2, r1, r2)
    np.testing.assert_allclose([t1, t2], [80.0, 80.0], rtol=1e-12)
    assert np.hypot(x[..., 0], x[..., 1]) < 1e-10


def test_fanfan_vertex_order_agnostic():
    f1, f2 = pp.FanGeometry(pp.REFERENCE_VERTEX_1), pp.FanGeometry(pp.REFERENCE_VERTEX_2)
    rng = np.random.default_rng(104)
    for _ in range(50):
        r1 = rng.uniform(1.5 * math.pi - ALPHA, 1.5 * math.pi + ALPHA)
        r2 = rng.uniform(2 * math.pi - ALPHA, 2 * math.pi + ALPHA)
        a, _, _ = pp.intersect(f1, f2, r1, r2)
        b, _, _ = pp.intersect(f2, f1, r2, r1)
        np.testing.assert_allclose(a, b, atol=1e-10)
    # random vertex pairs and ray angles: X lies on both rays
    drawn = 0
    for _ in range(200):
        v1, v2 = rng.uniform(-90.0, 90.0, size=(2, 2))
        r1, r2 = rng.uniform(-math.pi, math.pi, size=2)
        if np.hypot(*(v2 - v1)) < 1.0 or abs(math.sin(r2 - r1)) < 1e-2:
            continue  # near-coincident vertices or near-parallel rays
        drawn += 1
        f1, f2 = pp.FanGeometry(v1), pp.FanGeometry(v2)
        x, t1, t2 = pp.intersect(f1, f2, r1, r2)
        np.testing.assert_allclose(v1 + t1 * pp.direction(r1), x, rtol=0, atol=1e-10)
        np.testing.assert_allclose(v2 + t2 * pp.direction(r2), x, rtol=0, atol=1e-10)
        np.testing.assert_allclose(pp.intersect(f2, f1, r2, r1)[0], x, rtol=0, atol=1e-10)
    assert drawn > 150


def test_fanfan_parallel_rays_raise():
    with pytest.raises(pp.ParallelRaysError):
        pp.intersect(pp.FanGeometry((0.0, 10.0)), pp.FanGeometry((0.0, -10.0)), 0.25, 0.25)


def test_parpar_parallel_lines_raise():
    for theta2 in (0.3, 0.3 + math.pi):
        with pytest.raises(pp.ParallelRaysError):
            pp.intersect(pp.ParGeometry(0.3), pp.ParGeometry(theta2), 1.0, 2.0)
    assert issubclass(pp.ParallelRaysError, pp.DomainError)


def test_parfan_X_fixed():
    par = pp.ParGeometry(0.0)
    x, _, _ = pp.intersect(par, pp.FanGeometry((-80.0, 0.0)), 10.0, 0.0)
    np.testing.assert_allclose(x, (10.0, 0.0), atol=1e-12)
    # par line direction (0,1) parallel to the ray pointing straight down
    with pytest.raises(pp.ParallelRaysError):
        pp.intersect(par, pp.FanGeometry((0.0, 5.0)), 1.0, -math.pi / 2)


def test_parfan_X_lies_on_both_curves():
    rng = np.random.default_rng(105)
    par = pp.ParGeometry(0.4)
    vertex = (-90.0, 10.0)
    fan = pp.FanGeometry(vertex, theta0=-math.pi)
    base = math.atan2(-11.0, 92.0)  # toward (2, -1) from the vertex
    for _ in range(100):
        r1 = rng.uniform(-10, 13)
        r2 = base + rng.uniform(-0.1, 0.1)
        x, _, _ = pp.intersect(par, fan, r1, r2)
        rr1, _ = par.inverse(x)
        rr2, _ = fan.inverse(x)
        assert abs(rr1 - r1) < 1e-10
        assert abs(rr2 - r2) < 1e-10


def _curve(draw, fan):
    """A family and one ray parameter of it."""
    if fan:
        vertex = (draw(st.floats(-90.0, 90.0)), draw(st.floats(-90.0, 90.0)))
        return pp.FanGeometry(vertex), draw(st.floats(-math.pi, math.pi))
    return pp.ParGeometry(draw(st.floats(-math.pi, math.pi))), draw(st.floats(-50.0, 50.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(kind=st.sampled_from(["par-par", "par-fan", "fan-fan"]), data=st.data())
def test_intersect_lands_on_both_rays(kind, data):
    (g1, r1), (g2, r2) = (_curve(data.draw, k == "fan") for k in kind.split("-"))
    (o1, e1), (o2, e2) = g1.ray(r1), g2.ray(r2)
    assume(abs(pp.cross2(e1, e2)) > 0.05)  # not (nearly) parallel
    x, t1, t2 = pp.intersect(g1, g2, r1, r2)
    np.testing.assert_allclose(o1 + t1 * e1, x, rtol=0, atol=1e-9)
    np.testing.assert_allclose(o2 + t2 * e2, x, rtol=0, atol=1e-9)
    np.testing.assert_allclose(pp.intersect(g2, g1, r2, r1)[0], x, rtol=0, atol=1e-9)


# --- domains ---------------------------------------------------------------


@pytest.mark.parametrize(
    "dom",
    [pp.ImageDomain.rectangle(20.0, 10.0, center=(1.0, 2.0)), pp.ImageDomain.disc((1.0, -2.0), 25.0),
     pp.reference_domain()],
    ids=["rectangle", "disc", "polygon"],
)
def test_contains_keeps_point_array_shape(dom):
    x = np.random.default_rng(9).uniform(-40.0, 40.0, size=(5, 7, 2))
    got = dom.contains(x)
    assert got.shape == (5, 7)
    np.testing.assert_array_equal(got, dom.contains(x.reshape(-1, 2)).reshape(x.shape[:-1]))
    assert got.any() and not got.all()
    assert dom.contains(x[2, 3]) == got[2, 3]


def _even_odd_one_by_one(domain, px, py):
    """The polygon rule on flat point arrays, every edge at every point."""
    v = domain.vertices
    inside = np.zeros(px.shape, dtype=bool)
    for i in range(len(v)):
        (x1, y1), (x2, y2) = v[i], v[(i + 1) % len(v)]
        for k in range(px.size):
            if (y1 > py[k]) != (y2 > py[k]):
                inside[k] ^= bool(px[k] < x1 + (py[k] - y1) * (x2 - x1) / (y2 - y1))
    return inside


COMB = pp.ImageDomain.polygon(  # rows in (-10, 30) cross six edges
    [[-30, -30], [30, -30], [30, 30], [20, 30], [20, -10], [10, -10], [10, 30],
     [0, 30], [0, -10], [-10, -10], [-10, 30], [-30, 30]])


@pytest.mark.parametrize("dom", [pp.reference_domain(), COMB], ids=["reference", "comb"])
@pytest.mark.parametrize("shapes", [
    ((41,), (29, 1)),  # a row of abscissae against a column of ordinates
    ((29, 1), (41,)),  # transposed: the ordinates vary along the last axis
    ((57,), (57,)),  # points
    ((3, 1, 5), (4, 1)),
    ((), (6,)),
    ((6,), ()),
    ((), ()),
    ((0,), (3, 1)),
], ids=["rows", "columns", "points", "3d", "scalar-x", "scalar-y", "scalars", "empty"])
def test_contains_xy_any_broadcast_shape(dom, shapes):
    rng = np.random.default_rng(len(shapes[0]) * 7 + len(shapes[1]))
    # unsorted ordinates, on vertex rows too, so edge spans hold rows they miss
    x = rng.choice(np.r_[rng.uniform(-35.0, 35.0, 50), -30.0, 0.0, 10.0, 30.0], size=shapes[0])
    y = rng.choice(np.r_[rng.uniform(-35.0, 35.0, 50), -30.0, -10.0, 30.0], size=shapes[1])
    got = dom.contains_xy(x, y)
    xx, yy = np.broadcast_arrays(x, y)
    assert got.shape == xx.shape
    want = _even_odd_one_by_one(dom, xx.ravel(), yy.ravel()).reshape(xx.shape)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(dom.contains(np.stack([xx, yy], axis=-1)), want)


@pytest.mark.parametrize("vertices", [
    [[-10.0, -10.0], [0.0, 0.0], [10.0, 10.0]],  # collinear
    [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [10.0, 0.0]],  # an edge and back
    # three points of one line, collinear but for the rounding of their
    # decimals: the plain shoelace gives -5.0e-14 and 5.8e-11
    [[1.1, 0.6], [12.1, 17.1], [25.3, 36.9]],
    [[1000.1, 1000.3], [1001.2, 1003.6], [1003.4, 1010.2]],
], ids=["collinear", "doubled-back", "collinear-rounded", "collinear-rounded-far"])
def test_polygon_with_zero_area_is_refused(vertices):
    with pytest.raises(pp.ConfigurationError, match="no area"):
        pp.ImageDomain.polygon(vertices)


def test_thin_polygon_is_kept():
    # a height of 1e-9 is far above what rounding 10-unit vertices can make
    dom = pp.ImageDomain.polygon([[0.0, 0.0], [5.0, 1e-9], [10.0, 0.0]])
    assert dom.contains(np.array([[5.0, 1e-10]]))[0]


def test_disc_domain_contains_and_chord():
    dom = pp.ImageDomain.disc((1.0, -2.0), 5.0)
    assert dom.contains(np.array([[1.0, -2.0]]))[0]
    assert not dom.contains(np.array([[7.0, -2.0]]))[0]
    # chord through the center has length equal to the diameter
    length = dom.chord_length(np.array([1.0, -20.0]), np.array([0.0, 1.0]))
    assert abs(length - 10.0) < 1e-12
    # offset chord: 2*sqrt(R^2 - d^2)
    length = dom.chord_length(np.array([4.0, -20.0]), np.array([0.0, 1.0]))
    assert abs(length - 2.0 * math.sqrt(25.0 - 9.0)) < 1e-12


def test_disc_chord_that_misses_or_touches_is_zero():
    dom = pp.ImageDomain.disc((1.0, -2.0), 5.0)
    up = np.array([0.0, 1.0])
    assert dom.chord_length(np.array([7.0, -20.0]), up) == 0.0
    # x = 6 touches the disc at (6, -2): the discriminant is exactly 0
    assert dom.chord_length(np.array([6.0, -20.0]), up) == 0.0


@pytest.mark.parametrize("dom", [pp.ImageDomain.disc((1.0, -2.0), 5.0), pp.ImageDomain.rectangle(5.0, 5.0, (1.0, -2.0))],
                         ids=["disc", "rectangle"])
def test_chord_that_ends_before_t_min_is_zero(dom):
    # the vertical line through the center crosses y = -7 and y = 3 at t = 13 and 23
    o, up = np.array([1.0, -20.0]), np.array([0.0, 1.0])
    assert abs(dom.chord_length(o, up, 18.0) - 5.0) < 1e-12
    assert dom.chord_length(o, up, 23.0) == 0.0
    assert dom.chord_length(o, up, 40.0) == 0.0


SQUARE = [[-10.0, -10.0], [10.0, -10.0], [10.0, 10.0], [-10.0, 10.0]]


def test_chord_through_two_corners_is_the_diagonal():
    # the line crosses each corner on both of its edges: the pieces of zero
    # length between the repeated crossings are skipped
    square = pp.ImageDomain.polygon(SQUARE)
    o, d = np.array([-20.0, -20.0]), np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert square.chord_length(o, d) == pytest.approx(20.0 * math.sqrt(2.0), rel=1e-15)
    assert square.chord_length(o, d, t_min=20.0 * math.sqrt(2.0)) == pytest.approx(10.0 * math.sqrt(2.0), rel=1e-15)


def test_reference_domain_polygon_vertices():
    """The clipped square has eight corners; the two oblique cuts meet the
    square and each other where elementary line intersections put them."""
    dom = pp.reference_domain()
    expected = {
        (4.0, -35.0), (35.0, -35.0), (35.0, -4.0), (18.75, 35.0),
        (4.0, 35.0), (-400.0 / 17.0, 400.0 / 17.0), (-35.0, -4.0),
        (-35.0, -18.75),
    }
    got = {tuple(np.round(v, 9)) for v in np.asarray(dom.vertices)}
    assert got == {tuple(np.round(v, 9)) for v in expected}


def test_reference_domain_membership():
    dom = pp.reference_domain()
    inside = np.array([[0.0, 0.0], [30.0, -30.0], [-20.0, 10.0]])
    outside = np.array([[0.0, -36.0], [-34.0, 30.0], [36.0, 0.0], [0.0, 80.0]])
    assert dom.contains(inside).all()
    assert not dom.contains(outside).any()


def test_reference_octagon_is_its_own_mirror_image():
    """(x, y) -> (-y, -x) swaps the two reference views, so it maps the
    vertex set onto itself, bit for bit."""
    v = pp.reference_domain().vertices
    corners = {(x.hex(), y.hex()) for x, y in v.tolist()}
    assert len(corners) == 8
    assert {((-y).hex(), (-x).hex()) for x, y in v.tolist()} == corners


RECT = pp.ImageDomain.rectangle(20.0, 13.5, center=(3.25, -4.1))


def test_rectangle_vertices_are_its_corners_counterclockwise():
    (cx, cy), (hx, hy) = RECT.center, RECT.half_widths
    want = [[cx - hx, cy - hy], [cx + hx, cy - hy], [cx + hx, cy + hy], [cx - hx, cy + hy]]
    assert RECT.vertices.tolist() == want
    x, y = RECT.vertices.T
    assert np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0


def test_rectangle_queries_equal_those_of_its_polygon_bitwise():
    poly = pp.ImageDomain.polygon(RECT.vertices)
    assert poly.bbox() == RECT.bbox()
    for n in (3, 4, 5, 7, 64, 720, 1024, 4096):
        assert poly.boundary_points(n).tobytes() == RECT.boundary_points(n).tobytes()
    rng = np.random.default_rng(4)
    for t_min in (-math.inf, 0.0, 5.0):
        for _ in range(20):
            a = rng.uniform(0.0, 2.0 * math.pi)
            o, d = rng.uniform(-40.0, 40.0, 2), np.array([math.cos(a), math.sin(a)])
            assert poly.chord_length(o, d, t_min) == RECT.chord_length(o, d, t_min)


def test_rectangle_left_edge_is_outside_but_its_polygon_keeps_it():
    # the one difference left: the rectangle is strict, the polygon half-open
    (cx, cy), (hx, _) = RECT.center, RECT.half_widths
    left = np.array([cx - hx, cy])
    assert not RECT.contains(left)
    assert pp.ImageDomain.polygon(RECT.vertices).contains(left)


@pytest.mark.parametrize("build", [
    lambda src: pp.ImageDomain.polygon(src),
    lambda src: pp.ImageDomain.polygon(src[::-1]),  # clockwise: reversed
], ids=["counterclockwise", "clockwise"])
def test_domain_keeps_a_read_only_copy_of_its_vertices(build):
    source = np.array([[-10.0, -10.0], [10.0, -10.0], [10.0, 10.0], [-10.0, 10.0]])
    dom = build(source)
    before = dom.vertices.tolist()
    source[1:3, 0] = 20.0  # would move the right edge past (15, 0)
    assert not dom.contains(np.array([15.0, 0.0]))
    assert dom.bbox() == (-10.0, 10.0, -10.0, 10.0)
    assert dom.vertices.tolist() == before and not np.shares_memory(dom.vertices, source)
    for d in (dom, RECT):
        with pytest.raises(ValueError):
            d.vertices[0, 0] = 0.0


@pytest.mark.parametrize("kind", ["rectangle", "polygon"])
def test_domain_without_vertices_is_refused_unless_a_disc(kind):
    # bbox, boundary_points and chord_length read only the vertices
    with pytest.raises(pp.ConfigurationError):
        pp.ImageDomain(kind=kind, half_widths=(10.0, 10.0))
    assert pp.ImageDomain(kind="disc", radius=10.0).bbox() == (-10.0, 10.0, -10.0, 10.0)


@pytest.mark.parametrize("build, message", [
    (lambda: pp.ImageDomain(kind="triangle", vertices=SQUARE[:3]), "unknown domain kind 'triangle'"),
    (lambda: pp.ImageDomain(kind="disc"), "disc radius must be positive and finite"),
    (lambda: pp.ImageDomain(kind="rectangle", vertices=SQUARE), "rectangle half-widths must be positive and finite"),
    (lambda: pp.ImageDomain(kind="disc", center=(math.nan, 0.0), radius=5.0), "domain center must be finite"),
    (lambda: pp.ImageDomain.polygon(SQUARE[:2]), "polygon needs at least three"),
    (lambda: pp.ImageDomain.polygon([[0.0, 0.0, 0.0]] * 3), "polygon needs at least three"),
], ids=["unknown-kind", "disc-radius-zero", "rectangle-half-widths-zero", "disc-center-nan",
        "polygon-two-vertices", "polygon-three-coordinates"])
def test_invalid_domain_is_refused_however_it_is_built(build, message):
    # a zero radius or half-width would contain nothing, and an unknown kind
    # would be read as a polygon
    with pytest.raises(pp.ConfigurationError, match=message):
        build()


@pytest.mark.parametrize("n", [3.5, 2, math.inf])
def test_boundary_points_needs_an_integer_count_of_at_least_three(n):
    with pytest.raises(pp.ConfigurationError):
        RECT.boundary_points(n)


def test_boundary_points_takes_numpy_integers():
    assert RECT.boundary_points(np.int64(6)).tobytes() == RECT.boundary_points(6).tobytes()


def test_require_names_every_failing_margin():
    report = pp.AdmissibilityReport(margins={"a": math.nan, "b": 1.0, "c": -1.0, "d": 0.0})
    with pytest.raises(pp.ConfigurationError) as exc:
        report.require()
    assert "'a'" in str(exc.value) and "'c'" in str(exc.value) and "'d'" in str(exc.value)
    assert "'b'" not in str(exc.value)


@pytest.mark.parametrize("margins, passed", [
    ({"a": 1.0, "b": 2.0}, True), ({"a": 1.0, "b": -0.5}, False), ({"a": 0.0}, False), ({"a": math.nan}, False),
])
def test_report_passed_is_read_from_its_margins(margins, passed):
    report = pp.AdmissibilityReport(margins)
    assert report.passed is passed
    if not passed:
        with pytest.raises(pp.ConfigurationError):
            report.require()


def test_parallel_pair_at_one_angle_is_not_admissible():
    dom = pp.ImageDomain.disc((0.0, 0.0), 10.0)
    report = pp.check_pair_admissible(pp.PairGeometry(pp.ParGeometry(0.3), pp.ParGeometry(0.3), dom))
    assert report.margins == {"angle_separation": 0.0}
    assert not report.passed


def test_coinciding_fan_vertices_are_refused():
    pair = pp.PairGeometry(pp.FanGeometry((-80.0, 0.0)), pp.FanGeometry((-80.0, 0.0)), pp.reference_domain())
    with pytest.raises(pp.ConfigurationError, match="fan vertices coincide"):
        pp.check_pair_admissible(pair)


def test_fan_vertex_on_a_boundary_sample_gets_margins():
    """No ray angle is defined at a vertex on a boundary sample, so the pair
    fails on that fan's margins, with no pair margins, and nothing raises."""
    dom = pp.ImageDomain.disc((0.0, 0.0), 10.0)
    on_sample = pp.FanGeometry(tuple(dom.boundary_points(1024)[0]))
    far = pp.FanGeometry((-60.0, 5.0), theta0=math.pi / 2)
    report = pp.check_pair_admissible(pp.PairGeometry(pp.ParGeometry(0.3), on_sample, dom))
    assert report.margins == {"fan_vertex_clearance": 0.0, "fan_branch_clearance": -math.inf}
    assert not report.passed
    report = pp.check_pair_admissible(pp.PairGeometry(on_sample, far, dom))
    assert set(report.margins) == {"fan1_vertex_clearance", "fan1_branch_clearance",
                                   "fan2_vertex_clearance", "fan2_branch_clearance"}
    assert report.margins["fan1_vertex_clearance"] == 0.0
    assert report.margins["fan1_branch_clearance"] == -math.inf
    assert report.margins["fan2_vertex_clearance"] > 0 and report.margins["fan2_branch_clearance"] > 0
    assert not report.passed


def test_view_ranges_match_exact_wedges():
    pair = pp.reference_pair()
    (lo1, hi1), (lo2, hi2) = pp.reference_view_ranges()
    s1 = pp.view_range(pair.first, pair.domain)
    s2 = pp.view_range(pair.second, pair.domain)
    # the ranges are the vertices' extremes, and each extreme ray holds a
    # whole edge of the octagon
    np.testing.assert_allclose(s1, (lo1, hi1), rtol=0, atol=1e-9)
    np.testing.assert_allclose(s2, (lo2, hi2), rtol=0, atol=1e-9)
    assert abs((hi1 - lo1) - 2 * ALPHA) < 1e-12


def test_view_range_is_the_extremes_of_the_vertices():
    # the offsets of a theta = 0.3 parallel view peak at vertices, where
    # arc-length midpoints never land: 4 096 of them give lo = -38.9758,
    # above the vertex offset -38.9778
    dom, geom = pp.reference_domain(), pp.ParGeometry(0.3)
    lo, hi = pp.view_range(geom, dom)
    r, _ = geom.inverse(dom.vertices)
    assert np.all((lo <= r) & (r <= hi))
    assert (lo, hi) == (float(np.min(r)), float(np.max(r)))
    assert abs(lo - -38.9778) < 1e-4


L_SHAPE = pp.ImageDomain.polygon([(-20, -20), (20, -20), (20, 0), (0, 0), (0, 20), (-20, 20)])


@pytest.mark.parametrize("dom", [pp.reference_domain(), L_SHAPE, RECT], ids=["octagon", "L", "off-centre-rectangle"])
@pytest.mark.parametrize("view", ["par", "fan-left", "fan-below"])
def test_view_range_holds_every_interior_point(dom, view):
    if view == "par":
        geom = pp.ParGeometry(0.3)
    else:
        v = (-90.0, 10.0) if view == "fan-left" else (15.0, -95.0)
        ref = dom.reference_point()
        geom = pp.FanGeometry(v, theta0=math.atan2(ref[1] - v[1], ref[0] - v[0]) - math.pi)
    lo, hi = pp.view_range(geom, dom)
    rng = np.random.default_rng(34)
    xmin, xmax, ymin, ymax = dom.bbox()
    pts = rng.uniform((xmin, ymin), (xmax, ymax), size=(20000, 2))
    pts = pts[dom.contains(pts)]
    assert len(pts) > 5000
    r, _ = geom.inverse(pts)
    assert lo <= r.min() and r.max() <= hi
    # and the range is no wider than the domain: interior points come close
    # to both ends
    assert r.min() - lo < 0.01 * (hi - lo) and hi - r.max() < 0.01 * (hi - lo)


def test_reference_pair_admissible():
    report = pp.check_pair_admissible(pp.reference_pair())
    assert report.passed
    assert pp.pair_orientation(pp.reference_pair()) == -1
    # the shared branch cut points away from the domain, at 3*pi/4 exactly
    assert pp.reference_pair().first.theta0 == 0.75 * math.pi
    assert min(report.margins.values()) > 0
    assert report.margins["ray_pair"] > 0.7


def test_mixed_pair_must_be_par_then_fan():
    dom = pp.ImageDomain.disc((0.0, 0.0), 10.0)
    with pytest.raises(pp.ConfigurationError):
        pp.PairGeometry(pp.FanGeometry((-50.0, 0.0)), pp.ParGeometry(0.0), dom)


def test_admissibility_flags_vertex_inside_domain():
    dom = pp.ImageDomain.disc((0.0, 0.0), 30.0)
    pair = pp.PairGeometry(
        pp.FanGeometry((10.0, 0.0)), pp.FanGeometry((0.0, 90.0)), dom)
    report = pp.check_pair_admissible(pair)
    assert not report.passed
    # a vertex inside gets no branch clearance, however its angles fall
    assert report.margins["fan1_vertex_clearance"] < 0
    assert report.margins["fan1_branch_clearance"] == -math.inf


def test_admissibility_flags_branch_cut_through_domain():
    """A fan looking straight along its branch cut splits the domain's ray
    angles at the cut; the arc they cover still gives the clearance.  The
    disc subtends 2*asin(14/60) from the vertex."""
    dom = pp.ImageDomain.disc((0.0, 0.0), 14.0)
    half = math.asin(14.0 / 60.0)
    along = pp.FanGeometry((0.0, 60.0), theta0=-math.pi / 2)
    report = pp.check_pair_admissible(pp.PairGeometry(pp.ParGeometry(math.pi / 2), along, dom))
    assert not report.passed
    assert abs(report.margins["fan_branch_clearance"] + half) < 1e-3
    pair = pp.PairGeometry(along, pp.FanGeometry((-65.0, 5.0), theta0=-math.pi / 2), dom)
    assert not pp.check_pair_admissible(pair).passed
    away = pp.FanGeometry((0.0, 60.0), theta0=math.pi / 2)
    report = pp.check_pair_admissible(pp.PairGeometry(pp.ParGeometry(math.pi / 2), away, dom))
    assert report.passed
    assert abs(report.margins["fan_branch_clearance"] - (math.pi - half)) < 1e-3


@pytest.mark.parametrize("vertex, theta0, offset", [((0.0, 80.0), 0.5 * math.pi, -35.0),
                                                    ((10.0, -90.0), -0.5 * math.pi, -25.0)],
                         ids=["above", "below"])
def test_parfan_margins_fail_when_a_fan_ray_runs_along_the_lines(vertex, theta0, offset):
    # the vertex offset s0 lies inside view 1's range (-35, 35), so one fan
    # ray through the domain is parallel to the lines and cos(theta - r2)
    # changes sign over the domain's rays
    pair = pp.PairGeometry(pp.ParGeometry(0.0), pp.FanGeometry(vertex, theta0=theta0), pp.reference_domain())
    report = pp.check_pair_admissible(pair)
    assert report.margins["offset_clearance"] == offset
    assert report.margins["cos_clearance"] < 0
    assert report.margins["fan_vertex_clearance"] > 0 and report.margins["fan_branch_clearance"] > 0
    assert not report.passed


@pytest.mark.parametrize("pair", [
    pp.PairGeometry(pp.ParGeometry(0.0), pp.FanGeometry((-80.0, 0.0)), pp.reference_domain()),
    pp.PairGeometry(pp.ParGeometry(0.0), pp.ParGeometry(1.0), pp.reference_domain()),
], ids=["par-fan", "par-par"])
def test_pair_orientation_is_for_fan_fan_pairs_only(pair):
    with pytest.raises(pp.ConfigurationError, match="fan-fan pairs only"):
        pp.pair_orientation(pair)


def _mod_lift(a, theta0):
    """The rule lift_angle must reproduce bit for bit."""
    return np.mod(np.asarray(a, dtype=float) - theta0, 2.0 * math.pi) + theta0


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("theta0", [0.0, -0.0, -math.pi, math.pi, 0.75 * math.pi, -2.5, 1e-300])
def test_lift_angle_equals_mod_rule_bitwise(theta0):
    tiny = np.nextafter(0.0, 1.0)
    u = np.array([
        0.0, -0.0, TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0.0), -np.nextafter(TWO_PI, 0.0),
        -tiny, -1e-300, -1e-17, tiny, 1e-17, 1.0, -1.0, math.pi, -math.pi,
        4.0 * math.pi + 0.1, -4.0 * math.pi - 0.1, 1e6, -1e6,
    ])
    # u itself, and u + theta0 so that angle - theta0 lands on u where it can
    for a in (u, u + theta0, np.array([-0.0, 0.0]) + 0.0 * theta0):
        assert _same_bits(pp.lift_angle(a, theta0), _mod_lift(a, theta0))
        for v in a:  # one value at a time: scalar inputs, 0-d results
            assert _same_bits(pp.lift_angle(v, theta0), _mod_lift(v, theta0))
    # a NaN stays NaN and leaves its neighbours' results as they are
    a = np.array([0.5, math.nan, -1.0])
    assert _same_bits(pp.lift_angle(a, theta0), _mod_lift(a, theta0))
    assert _same_bits(pp.lift_angle([1.0, -2.0], theta0), _mod_lift([1.0, -2.0], theta0))
    assert _same_bits(pp.lift_angle(np.array(-3.0), theta0), _mod_lift(-3.0, theta0))
    assert _same_bits(pp.lift_angle(np.empty((0, 3)), theta0), _mod_lift(np.empty((0, 3)), theta0))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    a=st.lists(st.floats(-30.0, 30.0) | st.sampled_from([0.0, -0.0, TWO_PI, -TWO_PI]), min_size=1, max_size=8),
    theta0=st.floats(-math.pi, math.pi),
)
def test_lift_angle_property(a, theta0):
    assert _same_bits(pp.lift_angle(a, theta0), _mod_lift(a, theta0))


def test_lift_angle_window():
    theta0 = 0.75 * math.pi
    rng = np.random.default_rng(106)
    for _ in range(100):
        a = rng.uniform(-20, 20)
        lifted = pp.lift_angle(a, theta0)
        assert theta0 <= lifted < theta0 + 2 * math.pi
        assert abs(math.remainder(lifted - a, 2 * math.pi)) < 1e-12
