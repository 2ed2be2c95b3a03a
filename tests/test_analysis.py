import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarvol import analysis, geom, measure, volume
from polarvol.rng import RngStream

LEB2 = measure.LebesgueRestricted(math.inf, 2)


def _report(grid, values, tol=1e-9):
    return analysis.ProfileReport(
        np.asarray(grid, float), np.asarray(values, float), np.zeros(len(grid)), tol
    )


def test_convexity_check_accepts_parabola():
    t = np.linspace(-2, 2, 9)
    rep = _report(t, t ** 2)
    res = analysis.convexity_even_check(rep, 1e-9)
    assert res["even"] and res["midpoint_convex"]
    assert rep.worst_violation <= 1e-12


def test_convexity_check_flags_concave():
    t = np.linspace(-2, 2, 9)
    rep = _report(t, -(t ** 2))
    res = analysis.convexity_even_check(rep, 1e-9)
    assert not res["midpoint_convex"]
    assert rep.worst_violation > 0


def test_evenness_check_flags_odd_part():
    t = np.linspace(-2, 2, 9)
    rep = _report(t, t ** 2 + 0.1 * t)
    res = analysis.convexity_even_check(rep, 1e-9)
    assert not res["even"]


@pytest.mark.parametrize("values", [[4.0, 1.0, math.nan, 1.0, 4.0], [math.inf, 1.0, 0.0, 1.0, math.inf]])
def test_non_finite_profile_fails_both_checks(values):
    # a NaN value, or inf at both ends, used to read even, convex and worst 0.0
    rep = _report(np.linspace(-2, 2, 5), values)
    res = analysis.convexity_even_check(rep, 1e-9)
    assert res == {"even": False, "midpoint_convex": False, "worst_violation": math.inf}
    assert rep.worst_violation == math.inf


def test_shadow_profile_exact_parallelogram():
    # columns (+-1, t): K is the rectangle [-1,1] x [-|t|,|t|], so
    # K° is a cross-polytope of volume 2/|t| and g(t) = |t|/2
    theta = np.array([0.0, 1.0])
    base = np.array([[1.0, 0.0], [-1.0, 0.0]])
    cfg = analysis.ShadowConfig(theta, base, geom.LqBall(1.0, 2), 0.0, LEB2)
    t_grid = np.linspace(-2, 2, 9)
    rep = analysis.shadow_profile(cfg, np.array([1.0, 1.0]), t_grid, 0, RngStream(0, 0))
    assert rep.values == pytest.approx(np.abs(t_grid) / 2, abs=1e-9)
    assert rep.even and rep.midpoint_convex


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e3, 1e5])
def test_exact_shadow_verdict_does_not_depend_on_scale(scale):
    # configs/shadow_exact.json scaled by s: g = 1/|K°| scales as s^n, and so must the tolerance
    theta = np.array([0.0, 1.0])
    base = scale * np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]])
    cfg = analysis.ShadowConfig(theta, base, geom.LqBall(1.0, 3), 0.0, LEB2)
    rep = analysis.shadow_profile(cfg, scale * np.array([1.0, 1.0, -1.0]), np.linspace(-2, 2, 9), 0, RngStream(0, 0))
    assert rep.tol == 1e-9 * rep.values.max()
    assert rep.even and rep.midpoint_convex
    assert rep.worst_violation <= 1e-12 * rep.values.max()


def test_shadow_profile_mc_branch_matches_geometry():
    # rball > 0 rules out the exact oracle; K(t) = rect + 0.5 B
    theta = np.array([0.0, 1.0])
    base = np.array([[1.0, 0.0], [-1.0, 0.0]])
    cfg = analysis.ShadowConfig(theta, base, geom.LqBall(1.0, 2), 0.5, LEB2)
    rep = analysis.shadow_profile(
        cfg, np.array([1.0, 1.0]), np.linspace(-1.0, 1.0, 5), 60_000, RngStream(2, 0)
    )
    assert rep.even and rep.midpoint_convex
    assert rep.values[0] == pytest.approx(rep.values[4], abs=6 * max(rep.stderrs))


# the configs/shadow_exact.json line; every point spans the plane at t != 0, none at t = 0
SHADOW_BASE = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]])
SHADOW_DIRECTION = np.array([1.0, 1.0, -1.0])


def _shadow_line(m):
    return analysis.ShadowConfig(np.array([0.0, 1.0]), SHADOW_BASE, geom.LqBall(1.0, 3), 0.0, m)


@pytest.mark.parametrize("m", [measure.GaussianLike(0.3, 2), measure.GaussianLike(1.0, 2),
                               measure.LebesgueRestricted(0.5, 2), measure.LebesgueRestricted(1.0, 2)])
def test_planar_shadow_profile_is_exact_through_the_dispatcher(m):
    cfg = _shadow_line(m)
    t_grid = np.array([-3.0, -2.0, -1.25, -0.5, 0.5, 1.25, 2.0, 3.0])
    rep = analysis.shadow_profile(cfg, SHADOW_DIRECTION, t_grid, 1000, RngStream(4, 0))
    for i, t in enumerate(t_grid):
        est = volume.polar_measure(cfg.body_at(t * SHADOW_DIRECTION), m, 1000, RngStream(4, i))
        assert rep.values[i] == 1.0 / est.value
    assert not rep.stderrs.any()
    assert rep.tol == 1e-9 * rep.values.max()
    assert rep.even and rep.midpoint_convex


def test_flat_shadow_point_samples_on_its_own_stream():
    # at t = 0 the points lie on theta-perp: K° is a slab, which only Monte Carlo measures
    m = measure.GaussianLike(1.0, 2)
    cfg = _shadow_line(m)
    t_grid = np.linspace(-1.0, 1.0, 5)
    rep = analysis.shadow_profile(cfg, SHADOW_DIRECTION, t_grid, 5000, RngStream(6, 3))
    est = volume.mc_polar_measure(cfg.body_at(0.0 * SHADOW_DIRECTION), m, 5000, RngStream(6, 3 + 2))
    assert rep.values[2] == 1.0 / est.value
    assert rep.stderrs[2] == est.stderr / est.value ** 2
    assert np.count_nonzero(rep.stderrs) == 1
    assert rep.tol == 3.0 * rep.stderrs[2]
    assert rep.even and rep.midpoint_convex


def test_shadow_config_requires_orthogonal_base():
    with pytest.raises((ValueError, geom.GeometryError)):
        analysis.ShadowConfig(
            np.array([0.0, 1.0]),
            np.array([[1.0, 0.5], [-1.0, 0.0]]),
            geom.LqBall(1.0, 2),
            0.0,
            LEB2,
        )


def test_busemann_gauge_gaussian_closed_form():
    psi = lambda X: np.exp(-np.sum(X * X, axis=1) / 2.0)
    z = np.array([[1.0, 0.0], [0.6, -0.8], [2.0, 1.0]])
    expected = np.linalg.norm(z, axis=1) / math.sqrt(2 * math.pi)
    assert analysis.busemann_gauge(psi, z) == pytest.approx(expected, abs=1e-6)


def test_busemann_triangle_inequality_battery():
    psi = lambda X: np.all(np.abs(X) <= 1.0, axis=1).astype(float)
    gen = RngStream(9, 0).generator()
    pairs = []
    for _ in range(40):
        z1, z2 = gen.uniform(-1, 1, 2), gen.uniform(-1, 1, 2)
        if min(np.linalg.norm(z1), np.linalg.norm(z2), np.linalg.norm(z1 + z2)) < 1e-3:
            continue
        pairs.append((z1, z2))
    z1, z2 = np.array(pairs).transpose(1, 0, 2)
    f1, f2, f12 = analysis.busemann_gauge(psi, np.concatenate([z1, z2, z1 + z2]), 2.0).reshape(3, -1)
    assert np.all(f12 <= f1 + f2 + 1e-6)


def test_neg_recip_concavity_spot_check_gaussian():
    psi = lambda X: np.exp(-np.sum(X * X, axis=1) / 2.0)
    assert analysis.spot_check_neg_recip_concavity(psi, 2, RngStream(1, 0))


def test_neg_recip_concavity_spot_check_that_checked_nothing_is_false():
    # the disc of radius 1 about (3, 0) misses [-1, 1]², where the segments are drawn
    psi = lambda X: (np.sum((X - [3.0, 0.0]) ** 2, axis=1) <= 1.0).astype(float)
    assert not analysis.spot_check_neg_recip_concavity(psi, 2, RngStream(1, 0))


def test_ball_bobkov_gauge_indicator_closed_form():
    # f = 1_{B_2^2}: F(x) = (|x|^{-p}/p)^{-1/p} = p^{1/p} |x|
    f = lambda Y: (np.sum(Y * Y, axis=1) <= 1.0).astype(float)
    for p in (1.0, 2.0, 3.0):
        x = np.array([[0.6, 0.8]])
        assert analysis.ball_bobkov_gauge(f, p, x, upper=10.0) == pytest.approx(p ** (1.0 / p), abs=1e-8)


def test_ball_bobkov_gauge_homogeneous():
    f = lambda Y: np.exp(-np.abs(Y).sum(axis=1))
    x = np.array([0.3, -0.7])
    v, v3 = analysis.ball_bobkov_gauge(f, 2.0, np.array([x, 3.0 * x]), upper=200.0)
    assert v3 == pytest.approx(3.0 * v, rel=1e-8)


GAUSS_PSI = lambda sigma: (lambda Y: np.exp(-np.sum(Y * Y, axis=1) / (2 * sigma * sigma)))
SQUARE_PSI = lambda Y: np.all(np.abs(Y) <= 1.0, axis=1).astype(float)
BALL_PSI = lambda Y: (np.sum(Y * Y, axis=1) <= 1.0).astype(float)
# holds 0 but is not even: the two ends of a line's chord lie at different distances from 0
OFF_BOX_PSI = lambda Y: np.all((Y >= [-1.0, -1.0]) & (Y <= [2.0, 1.0]), axis=1).astype(float)
XS = np.random.default_rng(21).uniform(-1.0, 1.0, (12, 2))


@pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 7.0])
def test_ball_bobkov_gauge_gaussian_radial_integral(p):
    # ∫_0^∞ exp(-r²|x|²/2σ²) r^{p-1} dr = Γ(p/2)/2 · (2σ²/|x|²)^{p/2}; the rule splits at |rx| = σ
    sigma = 0.7
    norms = np.linalg.norm(XS, axis=1)
    F = analysis.ball_bobkov_gauge(GAUSS_PSI(sigma), p, XS, upper=120.0 * sigma / norms, scale=sigma)
    want = 0.5 * math.gamma(p / 2) * (2 * sigma * sigma / norms ** 2) ** (p / 2)
    assert F ** -p == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("p", [0.1, 1.0, 2.0, 7.0])
def test_ball_bobkov_gauge_indicators_are_scaled_norms(p):
    # ∫_0^{1/|x|} r^{p-1} dr = |x|^{-p}/p: F = p^{1/p}|x| on the disc, p^{1/p}|x|_inf on the square
    ball = analysis.ball_bobkov_gauge(BALL_PSI, p, XS, upper=1.0 / np.linalg.norm(XS, axis=1))
    square = analysis.ball_bobkov_gauge(SQUARE_PSI, p, XS, upper=1.0 / np.abs(XS).max(axis=1))
    assert ball == pytest.approx(p ** (1 / p) * np.linalg.norm(XS, axis=1), rel=1e-12, abs=0)
    assert square == pytest.approx(p ** (1 / p) * np.abs(XS).max(axis=1), rel=1e-12, abs=0)


def test_busemann_gauge_closed_forms():
    # the line z⊥ meets the square in length 2|z|/|z|_inf; the Gaussian's line integral is √(2π)
    assert analysis.busemann_gauge(SQUARE_PSI, XS, 2.0) == pytest.approx(np.abs(XS).max(axis=1) / 2, rel=1e-12, abs=0)
    gauss = analysis.busemann_gauge(GAUSS_PSI(1.0), XS, 12.0)
    assert gauss == pytest.approx(np.linalg.norm(XS, axis=1) / math.sqrt(2 * math.pi), rel=1e-9, abs=0)


@pytest.mark.parametrize(
    "psi", [GAUSS_PSI(1.0), SQUARE_PSI, BALL_PSI, OFF_BOX_PSI], ids=["gaussian", "square", "ball", "off_box"]
)
def test_gauges_do_not_depend_on_the_rest_of_the_battery(psi):
    # each integral refines its own panels and sums them in its own order
    upper = 1.0 / np.abs(XS).max(axis=1)
    F = analysis.ball_bobkov_gauge(psi, 2.0, XS, upper)
    B = analysis.busemann_gauge(psi, XS, 12.0)
    for i in range(len(XS)):
        assert analysis.ball_bobkov_gauge(psi, 2.0, XS[i:i + 1], upper[i]).tobytes() == F[i:i + 1].tobytes()
        assert analysis.busemann_gauge(psi, XS[i:i + 1], 12.0).tobytes() == B[i:i + 1].tobytes()


def test_milman_pajor_gauge_gaussian_halfplane():
    # p = 1, E = span(e2), v = e1: Phi(v) = (int_{x1 >= 0} phi)^{-1} = 1/pi
    phi = lambda x: math.exp(-float(np.dot(x, x)) / 2.0)
    val = analysis.milman_pajor_gauge(phi, np.array([[0.0, 1.0]]), 1.0, np.array([1.0, 0.0]), 20.0)
    assert val == pytest.approx(1.0 / math.pi, abs=1e-7)


def test_milman_pajor_rejects_non_orthogonal_v():
    phi = lambda x: 1.0
    with pytest.raises(ValueError):
        analysis.milman_pajor_gauge(phi, np.array([[1.0, 0.0]]), 1.0, np.array([1.0, 1.0]))


def test_brunn_profile_convex_quadratic():
    phi = lambda t, x: math.sqrt(1.0 + t * t + float(np.dot(x, x)))
    rep = analysis.brunn_profile(phi, alpha=3.0, n=1, t_grid=np.linspace(-2, 2, 9), domain_radius=60.0)
    assert rep.midpoint_convex
    assert rep.worst_violation <= 1e-6


def test_brunn_profile_constant_slab_is_flat():
    phi = lambda t, x: 1.0 if float(np.dot(x, x)) <= 1.0 else math.inf
    rep = analysis.brunn_profile(phi, alpha=1.0, n=1, t_grid=np.array([-1.0, 0.0, 1.0]), domain_radius=5.0)
    # (int_{-1}^{1} 1 dx)^{-1} = 1/2 at every t
    assert rep.values == pytest.approx([0.5, 0.5, 0.5], abs=1e-9)


def test_step1d_eval_integral():
    g = analysis.Step1D(np.array([0.0, 1.0, 2.0, 3.0]), np.array([2.0, 1.0, 3.0]))
    assert g(0.5) == 2.0 and g(1.5) == 1.0 and g(2.5) == 3.0 and g(5.0) == 0.0
    assert g.integral() == pytest.approx(6.0)


@pytest.mark.parametrize("breaks,values", [
    ([math.nan, 1.0], [1.0]),
    ([0.0, 1.0], [math.nan]),
    ([0.0, math.inf], [1.0]),
    ([-math.inf, 0.0], [1.0]),
    ([0.0, 1.0], [math.inf]),
], ids=["nan_break", "nan_value", "inf_break", "neg_inf_break", "inf_value"])
def test_step1d_refuses_non_finite_input(breaks, values):
    # a nan break slips past the increasing test, a nan value past the >= 0 test
    with pytest.raises(ValueError, match="finite"):
        analysis.Step1D(np.array(breaks), np.array(values))


def test_rearrange_step1d_known_example():
    g = analysis.Step1D(np.array([0.0, 1.0, 2.0, 3.0]), np.array([2.0, 1.0, 3.0]))
    gs = analysis.rearrange_step1d(g)
    assert gs.breaks == pytest.approx([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5])
    assert gs.values == pytest.approx([1.0, 2.0, 3.0, 2.0, 1.0])
    assert gs.integral() == pytest.approx(g.integral())


def test_rearrange_step1d_fixed_point():
    g = analysis.Step1D(np.array([-1.0, -0.5, 0.5, 1.0]), np.array([1.0, 2.0, 1.0]))
    gs = analysis.rearrange_step1d(g)
    assert gs.breaks == pytest.approx(g.breaks)
    assert gs.values == pytest.approx(g.values)


def test_rbll_equality_for_symmetric_decreasing_inputs():
    # symmetric decreasing inputs are fixed points: lhs must equal rhs
    g1 = analysis.Step1D(np.array([-1.0, 1.0]), np.array([1.0]))
    g2 = analysis.Step1D(np.array([-0.5, 0.5]), np.array([2.0]))
    res = analysis.rbll_check_1d([g1, g2], np.array([[[1.0, 0.0], [0.5, 1.0]]]), 6.0)
    assert res["lhs"][0] == pytest.approx(res["rhs"][0], abs=1e-9)


def test_rbll_inequality_shifted_indicator():
    # shifting an indicator off center can only lower the correlation
    g = analysis.Step1D(np.array([1.0, 2.0]), np.array([1.0]))
    res = analysis.rbll_check_1d([g, g], np.array([[[1.0, 1.0], [1.0, -1.0]]]), 6.0)
    assert res["lhs"][0] <= res["rhs"][0] + 1e-9


@given(st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_rbll_random_two_function_cases(seed):
    gen = RngStream(seed, 0).generator()
    gs = []
    for _ in range(2):
        a = float(gen.uniform(-2, 2))
        w = float(gen.uniform(0.2, 1.5))
        h = float(gen.uniform(0.2, 3.0))
        gs.append(analysis.Step1D(np.array([a, a + w]), np.array([h])))
    coeffs = gen.integers(-1, 2, size=(1, 2, 2)).astype(float)
    res = analysis.rbll_check_1d(gs, coeffs, 8.0)
    assert res["lhs"][0] <= res["rhs"][0] + 1e-9


def test_rbll_values_on_multi_step_functions():
    # each g has an interior zero step; g1 reaches past the box, so the box cuts one of its steps
    L = 6.0
    g1 = analysis.Step1D(np.array([-7.0, -2.0, -1.0, 0.5, 3.0]), np.array([0.5, 0.0, 2.0, 1.5]))
    g2 = analysis.Step1D(np.array([-1.5, -0.25, 0.75, 1.0, 2.5]), np.array([1.0, 3.0, 0.0, 0.25]))
    stack = np.array([np.eye(2), [[1.0, 0.0], [0.0, 0.0]]])
    res = analysis.rbll_check_1d([g1, g2], stack, L)

    def box_integral(g):
        return float(np.dot(g.values, np.diff(np.clip(g.breaks, -L, L))))

    for side, (f1, f2) in (("lhs", (g1, g2)), ("rhs", map(analysis.rearrange_step1d, (g1, g2)))):
        # c = I factors over the two coordinates; the zero row reads g2 at 0 on the whole box
        want = [box_integral(f1) * box_integral(f2), 2.0 * L * f2(0.0) * box_integral(f1)]
        assert res[side] == pytest.approx(want, rel=1e-12, abs=0)
    assert res["lhs"][0] < res["rhs"][0]


def test_rbll_works_in_the_plane_only():
    g = analysis.Step1D(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        analysis.rbll_check_1d([g, g], np.ones((1, 2, 3)), 6.0)


def test_rbll_rearranges_once_for_a_stack(monkeypatch):
    calls = []
    rearrange = analysis.rearrange_step1d
    monkeypatch.setattr(analysis, "rearrange_step1d", lambda g: calls.append(g) or rearrange(g))
    gs = [analysis.Step1D(np.array([a, a + 1.0]), np.array([1.0])) for a in (-1.0, 0.5)]
    stack = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [1.0, 0.0]]])
    res = analysis.rbll_check_1d(gs, stack, 6.0)
    assert len(calls) == 2 and len(res["lhs"]) == len(res["rhs"]) == 3
    for i, c in enumerate(stack):
        one = analysis.rbll_check_1d(gs, c[None], 6.0)
        assert (one["lhs"][0], one["rhs"][0]) == (res["lhs"][i], res["rhs"][i])


SQUARE = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def _clip_stack(polys, a, b, tol):
    """Clip a list of polygons, each by its own half-plane, as one stack; returns the clipped polygons."""
    count = np.array([len(p) for p in polys])
    verts = np.zeros((len(polys), max(count.max(), 1), 2))
    for r, p in enumerate(polys):
        verts[r, :len(p)] = p
    verts, count = analysis._clip_polygons(verts, count, np.asarray(a, dtype=float), np.asarray(b, dtype=float), tol)
    return [verts[r, :m] for r, m in enumerate(count.tolist())]


def _slab_box_volume(constraints, coeffs, L):
    """The area of one cell for one coefficient matrix: a stack of one row."""
    return float(analysis._slab_box_areas(constraints, np.asarray(coeffs, dtype=float)[None], L)[0])


@pytest.mark.parametrize("a,b,want", [
    ((1.0, 0.0), 2.0, SQUARE.tolist()),  # cuts nothing
    ((1.0, 1.0), 2.0, SQUARE.tolist()),  # touches the vertex (1, 1) only
    ((1.0, -1.0), 0.0, [[-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),  # the diagonal, vertex to vertex
    ((2.0, -1.0), 1.0, [[-1.0, -1.0], [0.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),  # vertex (1, 1) to an edge
    ((1.0, 0.0), -2.0, []),  # empties the square
])
def test_clip_polygon_edge_cases(a, b, want):
    (clipped,) = _clip_stack([SQUARE], [a], [b], 1e-12)
    assert clipped.shape == (len(want), 2) and clipped.tolist() == want
    normals = np.vstack([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], a])
    area = volume.halfspace_volume(normals, np.array([1.0, 1.0, 1.0, 1.0, b]))
    shoelace = analysis._shoelace_areas(clipped[None], np.array([len(clipped)]))[0]
    assert area == pytest.approx(shoelace, abs=1e-12)


def _clip_polygon_numpy(poly, a, b):
    """One polygon's clip walk, a numpy row at a time: the reference for each row of the stack."""
    d = poly @ a - b
    out = []
    for i in range(poly.shape[0]):
        j = (i + 1) % poly.shape[0]
        if d[i] <= 1e-12:
            out.append(poly[i])
        if (d[i] < -1e-12 and d[j] > 1e-12) or (d[i] > 1e-12 and d[j] < -1e-12):
            out.append(poly[i] + d[i] / (d[i] - d[j]) * (poly[j] - poly[i]))
    return np.array(out) if out else np.empty((0, 2))


def test_clip_polygon_matches_the_numpy_walk_bit_for_bit():
    gen = RngStream(8, 0).generator()
    polys, normals, offsets = [], [], []
    for _ in range(300):
        ang = np.sort(gen.uniform(0, 2 * math.pi, int(gen.integers(3, 9))))
        poly = np.column_stack([np.cos(ang), np.sin(ang)]) * gen.uniform(0.5, 3.0)
        a = gen.standard_normal(2)
        # offsets that cut, miss, empty, or pass through a vertex
        for b in (float(gen.uniform(-1.0, 1.0)), 10.0, -10.0, float(poly[0] @ a)):
            polys.append(poly)
            normals.append(a)
            offsets.append(b)
    # one stack of polygons with 3 to 8 vertices, each clipped by its own half-plane
    for clipped, poly, a, b in zip(_clip_stack(polys, normals, offsets, 1e-12), polys, normals, offsets):
        want = _clip_polygon_numpy(poly, a, b)
        assert clipped.tobytes() == want.tobytes()


def _qhull_slab_box(constraints, coeffs, L):
    """The same cell through qhull: both half-planes of each slab plus the box rows."""
    A = np.vstack([coeffs, -coeffs, np.eye(2), -np.eye(2)])
    b = np.concatenate([[hi for _, hi in constraints], [-lo for lo, _ in constraints], np.full(4, L)])
    return volume.halfspace_volume(A, b)


def test_slab_box_volume_matches_qhull():
    gen = RngStream(9, 0).generator()
    without_origin = 0
    for _ in range(300):
        L = float(gen.uniform(1.0, 6.0))
        k = int(gen.integers(1, 4))
        coeffs = gen.integers(-1, 2, size=(k, 2)).astype(float) if gen.uniform() < 0.5 else gen.standard_normal((k, 2))
        coeffs[~coeffs.any(axis=1)] = [1.0, -1.0]  # zero rows are covered below
        lo = gen.uniform(-2.0 * L, L, k)
        constraints = list(zip(lo.tolist(), (lo + gen.uniform(0.2, 2.0 * L, k)).tolist()))
        without_origin += any(lo_i > 0 or hi_i <= 0 for lo_i, hi_i in constraints)
        want = _qhull_slab_box(constraints, coeffs, L)
        assert _slab_box_volume(constraints, coeffs, L) == pytest.approx(want, rel=1e-12, abs=0)
    assert without_origin > 50  # the qhull side starts from a Chebyshev centre there


@pytest.mark.parametrize("L", [1.0, 1e-6, 1e-11, 1e-13])
def test_slab_box_volume_tolerance_scales_with_the_box(L):
    # the slab 0 <= s_1 < 10 covers half the box whatever its size
    assert _slab_box_volume([(0.0, 10.0)], np.array([[1.0, 0.0]]), L) == pytest.approx(2 * L * L, rel=1e-12, abs=0)


def test_slab_box_volume_empty_cells_and_zero_rows():
    c = np.array([[1.0, 1.0], [1.0, 1.0]])
    # two disjoint slabs along the same normal
    assert _slab_box_volume([(0.0, 1.0), (2.0, 3.0)], c, 4.0) == 0.0
    assert _qhull_slab_box([(0.0, 1.0), (2.0, 3.0)], c, 4.0) == 0.0
    # a slab that misses the box
    assert _slab_box_volume([(9.0, 10.0)], c[:1], 4.0) == 0.0
    # a zero row holds iff 0 is in [lo, hi): it drops out or empties the cell
    z = np.array([[0.0, 0.0], [1.0, -1.0]])
    cell = [(-0.5, 1.5)]
    want = _qhull_slab_box(cell, z[1:], 4.0)
    assert want > 0
    assert _slab_box_volume([(-1.0, 1.0)] + cell, z, 4.0) == pytest.approx(want, rel=1e-12, abs=0)
    assert _slab_box_volume([(0.0, 1.0)] + cell, z, 4.0) == pytest.approx(want, rel=1e-12, abs=0)
    assert _slab_box_volume([(-1.0, 0.0)] + cell, z, 4.0) == 0.0  # ends at 0
    assert _slab_box_volume([(1.0, 2.0)] + cell, z, 4.0) == 0.0


def test_slab_box_areas_rows_equal_the_one_row_calls():
    # a mixed stack: cells that are empty or miss the box, zero rows that drop out or empty the cell,
    # lines through the box's corners (<(1, 1), s> = 0 and <(1, -1), s> = 0 at lo = 0), and
    # random rows whose polygons keep 3 to 9 vertices, so short rows share the stack with long ones
    stack = np.array([
        [[1.0, 1.0], [1.0, 1.0], [1.0, 2.0]],
        [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        [[0.0, 0.0], [1.0, -1.0], [0.5, 0.5]],
        [[1.0, -1.0], [0.0, 0.0], [-1.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[-0.0, 0.0], [2.0, -1.0], [1.0, 1.0]],
        [[0.25, 0.25], [-1.0, 1.0], [0.0, 1.0]],
        [[0.1, 0.0], [0.3, -0.7], [0.9, 0.1]],
        [[0.7, 0.2], [-0.4, 0.9], [0.6, -0.6]],
    ])
    stack = np.concatenate([stack, RngStream(10, 0).generator().standard_normal((60, 3, 2))])
    seen = []
    for cell in ([(-0.5, 1.5), (0.0, 2.0), (-2.0, 2.0)], [(0.0, 1.0), (-1.0, 0.0), (-1.0, 3.0)],
                 [(9.0, 10.0), (-1.0, 1.0), (-5.0, 5.0)], [(-2.0, 2.0), (-1.5, 2.5), (-2.5, 1.0)]):
        areas = analysis._slab_box_areas(cell, stack, 4.0)
        one = [analysis._slab_box_areas(cell, c[None], 4.0)[0] for c in stack]
        assert areas.tobytes() == np.array(one).tobytes(), cell
        seen.extend(areas.tolist())
    assert 0.0 in seen and max(seen) > 0
