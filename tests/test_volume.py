import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarvol import geom, measure, volume
from polarvol.rng import RngStream
from polytope_reference import face_volume, loop_vertices

LEB2 = measure.LebesgueRestricted(math.inf, 2)


def test_estimate_serialization_roundtrip():
    est = volume.Estimate(1.5, 0.01, 1000, 7)
    d = est.to_dict()
    assert d["value"] == 1.5 and d["samples"] == 1000


def test_mc_ball_polar_lebesgue():
    # (B_2^2)° = B_2^2, area pi; exact because the sampling ball coincides
    est = volume.mc_polar_measure(geom.BallBody(1.0, 2), LEB2, 50_000, RngStream(1, 0))
    assert est.value == pytest.approx(math.pi, abs=3 * est.stderr + 1e-9)


def test_mc_cross_polytope_polar_is_square():
    body = geom.MatrixImageBody(np.eye(2), geom.LqBall(1.0, 2), 0.0)
    est = volume.mc_polar_measure(body, LEB2, 200_000, RngStream(2, 0))
    assert abs(est.value - 4.0) <= 3 * est.stderr


def test_mc_gaussian_measure_of_ball_polar():
    g = measure.GaussianLike(1.0, 2)
    est = volume.mc_polar_measure(geom.BallBody(1.0, 2), g, 200_000, RngStream(3, 0))
    target = 2 * math.pi * (1 - math.exp(-0.5))
    assert abs(est.value - target) <= 3 * est.stderr + 1e-6


def test_mc_thread_count_does_not_change_result():
    body = geom.MatrixImageBody(np.eye(2), geom.LqBall(1.0, 2), 0.1)
    a = volume.mc_polar_measure(body, LEB2, 150_000, RngStream(4, 0), threads=1)
    b = volume.mc_polar_measure(body, LEB2, 150_000, RngStream(4, 0), threads=4)
    assert a.value == b.value and a.stderr == b.stderr


@given(st.integers(0, 2 ** 31), st.floats(0.25, 4.0), st.sampled_from([1.0, 2.0, math.inf]),
       st.sampled_from([0.0, 0.25]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_mc_lebesgue_scale_law(seed, lam, q, r):
    # |(λK)°| = λ⁻ⁿ|K°|.  With the seed shared, λK's sampling ball is K's scaled by
    # 1/λ up to rounding, so both runs draw the same points up to rounding and the
    # two estimates agree to rounding unless a point within rounding of ∂K° flips
    gen = RngStream(seed, 8).generator()
    n = int(gen.integers(2, 5))
    A = gen.standard_normal((n, int(gen.integers(n, 7))))
    m = measure.LebesgueRestricted(math.inf, n)
    body, scaled = (geom.MatrixImageBody(s * A, geom.LqBall(q, A.shape[1]), s * r) for s in (1.0, lam))
    est = volume.mc_polar_measure(body, m, 3000, RngStream(seed, 9))
    est_scaled = volume.mc_polar_measure(scaled, m, 3000, RngStream(seed, 9))
    assert est_scaled.value * lam ** n == pytest.approx(est.value, rel=1e-12, abs=0)
    assert est_scaled.stderr * lam ** n == pytest.approx(est.stderr, rel=1e-12, abs=0)


def test_one_chunk_runs_without_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk call must not start a thread pool")

    monkeypatch.setattr(volume, "ThreadPoolExecutor", no_pool)
    est = volume.mc_polar_measure(geom.BallBody(1.0, 2), LEB2, 4000, RngStream(1, 0), threads=4)
    assert est.samples == 4000


def test_layer_cake_agrees_with_direct_mc():
    g = measure.GaussianLike(1.0, 2)
    body = geom.BallBody(1.0, 2)
    grid = np.geomspace(1e-6, 1.0, 64)  # 64 levels between rho(0) = 1 and 1e-6
    lc = volume.layer_cake_measure(body, g, grid, 200_000, RngStream(5, 0))
    target = 2 * math.pi * (1 - math.exp(-0.5))
    assert lc.value == pytest.approx(target, abs=0.01)


def test_mc_rejects_doubly_infinite_problem():
    # unbounded polar and infinite-mass measure: no finite reduction
    body = geom.MatrixImageBody(np.array([[1.0], [0.0]]), geom.LqBall(1.0, 1), 0.0)
    with pytest.raises((volume.EstimationError, geom.GeometryError)):
        volume.mc_polar_measure(body, LEB2, 10_000, RngStream(6, 0))


def test_halfspace_volume_2d():
    sq = volume.halfspace_volume(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(4)
    )
    assert sq == pytest.approx(4.0, abs=1e-12)
    tri = volume.halfspace_volume(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), np.array([0.0, 0.0, 1.0])
    )
    assert tri == pytest.approx(0.5, abs=1e-12)


def test_halfspace_volume_unbounded_raises():
    with pytest.raises(geom.GeometryError):
        volume.halfspace_volume(np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones(2))


def test_halfspace_volume_refuses_one_dimension():
    # qhull needs n >= 2; no command reaches n = 1
    with pytest.raises(geom.GeometryError):
        volume.halfspace_volume(np.array([[1.0], [-1.0]]), np.ones(2))


def test_halfspace_volume_3d():
    normals = np.vstack([np.eye(3), -np.eye(3)])
    assert volume.halfspace_volume(normals, np.ones(6)) == pytest.approx(8.0, abs=1e-9)
    tet_normals = np.vstack([-np.eye(3), np.ones((1, 3))])
    tet_offsets = np.array([0.0, 0.0, 0.0, 1.0])
    assert volume.halfspace_volume(tet_normals, tet_offsets) == pytest.approx(1 / 6, abs=1e-9)


def test_halfspace_volume_3d_chebyshev_and_empty():
    cube = np.vstack([np.eye(3), -np.eye(3)])
    # [1, 3]^3 leaves the origin out: qhull starts from the Chebyshev centre
    assert volume.halfspace_volume(cube, np.array([3.0, 3.0, 3.0, -1.0, -1.0, -1.0])) == pytest.approx(8.0, rel=1e-14)
    assert volume.halfspace_volume(cube, np.array([1.0, 1.0, 1.0, -2.0, 1.0, 1.0])) == 0.0  # x <= 1 and x >= 2
    assert volume.halfspace_volume(cube, np.array([1.0, 1.0, 1.0, -1.0, 1.0, 1.0])) == 0.0  # the flat x = 1


# The five 3-D cross-polytopes were bit pins of the facet-tuple enumerator;
# qhull is held to the loop reference instead.
def test_halfspace_volume_3d_cross_polytopes_match_reference():
    gen = RngStream(21, 0).generator()
    for N in (3, 4, 6, 9, 12):
        P = gen.standard_normal((N, 3))
        A, b = np.vstack([P, -P]), np.ones(2 * N)
        assert volume.halfspace_volume(A, b) == pytest.approx(face_volume(A, b), rel=1e-14, abs=0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_volumes_match_reference(n):
    gen = RngStream(22, n).generator()
    for _ in range(3):
        P = gen.standard_normal((n + 3, n))
        want = face_volume(np.vstack([P, -P]), np.ones(2 * len(P)))
        assert volume.exact_polar_volume_crosspoly(P) == pytest.approx(want, rel=1e-14, abs=0)
        # random cuts of the box [-2, 2]^n; negative offsets may leave out the origin
        A = np.vstack([np.eye(n), -np.eye(n), gen.standard_normal((3 * n, n))])
        b = np.concatenate([np.full(2 * n, 2.0), gen.uniform(-0.5, 1.5, 3 * n)])
        want = face_volume(A, b) if loop_vertices(A, b) else 0.0
        assert volume.halfspace_volume(A, b) == pytest.approx(want, rel=1e-14, abs=0)


@given(st.integers(0, 2 ** 31), st.sampled_from([2, 3, 4]))
@settings(max_examples=25, deadline=None)
def test_exact_polar_volume_inclusion_monotone(seed, n):
    # adding a point can only grow K = conv{±x_i}, so |K°| never increases;
    # the last point lies inside K and must leave |K°| unchanged
    gen = RngStream(seed, 2).generator()
    pts = gen.standard_normal((n + 3, n))
    pts = np.vstack([pts, 0.5 * (pts[0] - pts[1])])
    vols = [volume.exact_polar_volume_crosspoly(pts[:N]) for N in range(n, len(pts) + 1)]
    for before, after in zip(vols, vols[1:]):
        assert after <= before * (1 + 1e-9)
    assert vols[-1] == pytest.approx(vols[-2], rel=1e-9)


def test_exact_polar_volume_known_cases():
    assert volume.exact_polar_volume_crosspoly(np.eye(2)) == pytest.approx(4.0, abs=1e-9)
    assert volume.exact_polar_volume_crosspoly(np.eye(3)) == pytest.approx(8.0, abs=1e-9)
    # (B_1^n)° is the cube [-1, 1]^n
    for n in (4, 5):
        assert volume.exact_polar_volume_crosspoly(np.eye(n)) == pytest.approx(2.0 ** n, rel=1e-14)
    # conv(+-(1,0), +-(0,2)) has polar [-1,1] x [-1/2,1/2], area 2
    pts = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert volume.exact_polar_volume_crosspoly(pts) == pytest.approx(2.0, abs=1e-9)


def test_exact_polar_volume_degenerate_raises():
    with pytest.raises(geom.UnboundedBody):
        volume.exact_polar_volume_crosspoly(np.array([[1.0, 0.0], [2.0, 0.0]]))
    # the rank test is relative to the largest singular value: a thin set
    # spans nothing at any scale, and a spanning set spans at any scale
    with pytest.raises(geom.UnboundedBody):
        volume.exact_polar_volume_crosspoly(np.array([[1.0, 0.0], [1.0, 1e-11]]))
    P = np.array([[1.0, 0.2], [0.3, 1.0], [-0.5, 0.7]])
    tiny = volume.exact_polar_volume_crosspoly(1e-11 * P)
    assert tiny == pytest.approx(volume.exact_polar_volume_crosspoly(P) * 1e22, rel=1e-13, abs=0)


@given(st.integers(0, 2 ** 31), st.floats(0.5, 2.0))
@settings(max_examples=20, deadline=None)
def test_exact_polar_scale_law(seed, lam):
    gen = RngStream(seed, 0).generator()
    pts = gen.standard_normal((4, 2))
    try:
        v1 = volume.exact_polar_volume_crosspoly(pts)
    except geom.UnboundedBody:
        return
    v2 = volume.exact_polar_volume_crosspoly(lam * pts)
    assert v2 == pytest.approx(v1 / lam ** 2, rel=1e-8)


@given(st.integers(0, 2 ** 31))
@settings(max_examples=20, deadline=None)
def test_exact_polar_rotation_invariance(seed):
    gen = RngStream(seed, 1).generator()
    pts = gen.standard_normal((5, 2))
    ang = float(gen.uniform(0, 2 * math.pi))
    Q = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    try:
        v1 = volume.exact_polar_volume_crosspoly(pts)
    except geom.UnboundedBody:
        return
    v2 = volume.exact_polar_volume_crosspoly(pts @ Q.T)
    assert v2 == pytest.approx(v1, rel=1e-8)


def test_mc_rejects_empty_budget():
    with pytest.raises(volume.EstimationError):
        volume.mc_polar_measure(geom.BallBody(1.0, 2), LEB2, 0, RngStream(1, 0))


# Exact values recorded before the samplers moved behind measure.ball_points /
# measure.radial_sampler.  No configs/*.json reaches the unbounded-polar branch
# or radial-step rejection, so these pins are what holds those draws fixed.
RANK1 = geom.MatrixImageBody(np.array([[1.0], [0.5]]), geom.LqBall(1.0, 1), 0.0)


@pytest.mark.parametrize("m,value,stderr", [
    (measure.GaussianLike(1.0, 2), 3.9305812085913434, 0.011493621563099717),
    (measure.PowerKernel(np.array([[0.0, 1.0], [1.0, 2.0]]), 2), 1.2318633593676092, 0.005797239677949148),
    (measure.LebesgueRestricted(2.0, 2), 6.910067681255904, 0.023629882553598273),
])
def test_unbounded_polar_estimate_is_pinned(m, value, stderr):
    est = volume.mc_polar_measure(RANK1, m, 70_000, RngStream(12, 3), threads=2)
    assert (est.value, est.stderr, est.samples) == (value, stderr, 70_000)


def _fingerprint(pts):
    return float(pts.sum()), pts[0].tolist(), pts[-1].tolist()


def test_sampler_draws_are_pinned():
    b2 = math.sqrt(0.25 + (1 - math.pi / 4) / (0.5 * math.pi))
    step = measure.RadialStepDensity(np.array([0.5, b2]), np.array([1.0, 0.5]), 2)
    assert _fingerprint(measure.sample_density(step, RngStream(13, 1), 300)) == (
        1.7702307617331106, [-0.4612169543427602, -0.1626043174067375], [0.06423594775770453, -0.3422869792740142])
    dn = measure.sample_density(measure.UniformBodyDensity("Dn", 3), RngStream(15, 0), 300)
    assert _fingerprint(dn) == (
        -7.966709115955147, [-0.005945677635821051, -0.20904467399602542, 0.5043026131709145],
        [-0.21951500048996297, -0.3618567216920768, 0.2743891712731092])
    ball = measure.sample_uniform_ball(2, 1.5, RngStream(16, 0), 300)
    assert _fingerprint(ball) == (
        13.63127657068954, [0.08997895500608635, 0.48108399225799825], [-0.11439244889765281, -0.5921791273669246])


def test_radial_measure_draws_are_pinned():
    pts, mass = measure.sample_radial_measure(measure.GaussianLike(1.0, 2), RngStream(14, 2), 300)
    assert (mass, *_fingerprint(pts)) == (
        6.2831853071795845, -14.713160306644967, [-0.9240317834692722, 1.7643471694284134],
        [0.7518456628553238, 1.7667600098620349])
    pts, mass = measure.sample_radial_measure(measure.LebesgueRestricted(2.0, 3), RngStream(14, 2), 300)
    assert (mass, *_fingerprint(pts)) == (
        33.510321638291124, -11.173427217602287, [0.7792654697657978, -0.5724127185558212, -0.7356313752385875],
        [0.07883172307365749, 0.11969157735251713, 1.724380906960084])


# ---------------------------------------------------------------------------
# polar_measure: exact for planar cross-polytope images, Monte Carlo elsewhere

SQUARE_DUAL = geom.MatrixImageBody(np.eye(2), geom.LqBall(1.0, 2), 0.0)  # K° = [-1, 1]²
PLANAR_MEASURES = [
    measure.LebesgueRestricted(0.5, 2), measure.LebesgueRestricted(1.5, 2), measure.LebesgueRestricted(5.0, 2),
    measure.LebesgueRestricted(math.inf, 2),
    measure.GaussianLike(0.5, 2), measure.GaussianLike(1.0, 2), measure.GaussianLike(3.0, 2),
]


def cross_image(pts):
    return geom.MatrixImageBody(np.asarray(pts).T, geom.LqBall(1.0, len(pts)), 0.0)


def exact(pts, m):
    est = volume.polar_measure(cross_image(pts), m, 1, RngStream(0, 0))
    assert (est.stderr, est.samples) == (0.0, 0)
    return est.value


def test_polar_measure_closed_forms_on_the_square():
    # the disk of radius 0.5 lies inside the square; the circle of radius 1.2 crosses every edge
    segment = 1.44 * math.acos(1 / 1.2) - math.sqrt(1.44 - 1)
    cases = [(measure.LebesgueRestricted(0.5, 2), math.pi / 4),
             (measure.LebesgueRestricted(1.2, 2), math.pi * 1.44 - 4 * segment),
             (measure.LebesgueRestricted(math.inf, 2), 4.0)]
    # sigma = 0.5 and 1 leave each edge outside the circle of radius sigma, 3 keeps
    # it inside, and 1.2 splits it
    for sigma in (0.5, 1.0, 1.2, 3.0):
        side = sigma * math.sqrt(2 * math.pi) * math.erf(1 / (sigma * math.sqrt(2)))
        cases.append((measure.GaussianLike(sigma, 2), side ** 2))
    for m, want in cases:
        est = volume.polar_measure(SQUARE_DUAL, m, 1000, RngStream(9, 4))
        assert est.value == pytest.approx(want, rel=1e-14, abs=0), m
        assert (est.stderr, est.samples, est.seed) == (0.0, 0, 9)


@pytest.mark.parametrize("lam", [1e-3, 1e3, 1e6, 1e-11])
def test_polar_measure_gaussian_keeps_its_digits_at_any_scale(lam):
    # (λ·B_1²)° = [-1/λ, 1/λ]²; far inside the circle of radius sigma the
    # Owen-T form alone would lose about eps·λ² of relative precision
    body = geom.MatrixImageBody(lam * np.eye(2), geom.LqBall(1.0, 2), 0.0)
    for sigma in (0.5, 1.0, 3.0):
        want = (sigma * math.sqrt(2 * math.pi) * math.erf(1 / (lam * sigma * math.sqrt(2)))) ** 2
        est = volume.polar_measure(body, measure.GaussianLike(sigma, 2), 1, RngStream(0, 0))
        assert est.value == pytest.approx(want, rel=1e-13, abs=0), sigma


def test_polar_measure_matches_the_qhull_oracle():
    gen = RngStream(23, 0).generator()
    for N in (2, 3, 4, 6, 9, 16):
        for scale in (0.1, 1.0, 7.0):
            P = scale * gen.standard_normal((N, 2))
            want = volume.exact_polar_volume_crosspoly(P)
            assert exact(P, LEB2) == pytest.approx(want, rel=1e-13, abs=0)


def test_polar_measure_agrees_with_monte_carlo():
    # pinned seeds; the R cases cover edges outside the disk (d >= R), edges
    # the circle cuts, and whole polygons inside the disk
    seen = set()
    for seed in (31, 32, 33):
        P = RngStream(seed, 0).generator().uniform(-1.0, 1.0, (4, 2))
        body = cross_image(P)
        edges = volume._polar_polygon_edges(volume._crosspoly_polar_vertices(P))
        for k, m in enumerate(PLANAR_MEASURES):
            if isinstance(m, measure.LebesgueRestricted) and math.isfinite(m.R):
                far = [max(d * d + s0 * s0, d * d + s1 * s1) for d, s0, s1 in edges]
                seen |= {"outside" for d, _, _ in edges if d >= m.R}
                seen |= {"cut" for (d, _, _), f in zip(edges, far) if d < m.R < math.sqrt(f)}
                seen |= {"inside"} if max(far) <= m.R ** 2 else set()
            est = volume.polar_measure(body, m, 1, RngStream(seed, 1))
            mc = volume.mc_polar_measure(body, m, 200_000, RngStream(seed, 2 + k))
            assert abs(est.value - mc.value) <= 4 * mc.stderr, (seed, m, est.value, mc.value, mc.stderr)
    assert seen == {"outside", "cut", "inside"}


def test_polar_measure_draws_no_random_numbers():
    class SeedOnly:  # any draw would need generator() or chunk_generator()
        seed = 17

    for m in PLANAR_MEASURES:
        assert volume.polar_measure(SQUARE_DUAL, m, 10, SeedOnly()).seed == 17


NON_EXACT = [
    # columns that do not span R²: the polar is a slab
    (geom.MatrixImageBody(np.array([[1.0, 2.0], [0.0, 0.0]]), geom.LqBall(1.0, 2), 0.0), measure.GaussianLike(1.0, 2)),
    # rank 1 at 1e-10 of the largest singular value, though qhull would build a hull
    (geom.MatrixImageBody(np.array([[1.0, 1.0], [0.0, 1e-11]]), geom.LqBall(1.0, 2), 0.0), measure.GaussianLike(1.0, 2)),
    # flat to qhull's precision as well
    (geom.MatrixImageBody(np.array([[1e8, 1e8], [0.0, 1e-7]]), geom.LqBall(1.0, 2), 0.0), measure.GaussianLike(1.0, 2)),
    (geom.MatrixImageBody(np.eye(2), geom.LqBall(2.0, 2), 0.0), LEB2),
    (geom.MatrixImageBody(np.eye(2), geom.LqBall(1.0, 2), 0.25), measure.GaussianLike(1.0, 2)),
    (SQUARE_DUAL, measure.PowerKernel(np.array([[0.0, 1.0], [1.0, 2.0]]), 2)),
    (geom.MatrixImageBody(np.eye(3), geom.LqBall(1.0, 3), 0.0), measure.LebesgueRestricted(2.0, 3)),
    (geom.BallBody(1.0, 2), LEB2),
    (geom.HPolytopeBody(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)), measure.GaussianLike(1.0, 2)),
]


@pytest.mark.parametrize("body,m", NON_EXACT)
def test_polar_measure_falls_back_to_monte_carlo(body, m):
    args = (body, m, 70_000, RngStream(5, 1))
    est = volume.polar_measure(*args, threads=2)
    assert est == volume.mc_polar_measure(*args, threads=2)
    assert est.samples == 70_000


def test_polar_measure_keeps_the_input_checks():
    with pytest.raises(volume.EstimationError):
        volume.polar_measure(SQUARE_DUAL, measure.GaussianLike(1.0, 3), 100, RngStream(1, 0))
    with pytest.raises(volume.EstimationError):
        volume.polar_measure(SQUARE_DUAL, LEB2, 0, RngStream(1, 0))
    # a slab under Lebesgue measure on the plane: Monte Carlo refuses, as before
    with pytest.raises(volume.EstimationError):
        volume.polar_measure(geom.MatrixImageBody(np.array([[1.0, 2.0], [0.0, 0.0]]), geom.LqBall(1.0, 2), 0.0),
                             LEB2, 100, RngStream(1, 0))


def _rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


@given(st.integers(0, 2 ** 31), st.sampled_from(PLANAR_MEASURES))
@settings(max_examples=40, deadline=None)
def test_polar_measure_rotation_invariance(seed, m):
    gen = RngStream(seed, 5).generator()
    P = gen.standard_normal((int(gen.integers(2, 7)), 2))
    Q = _rotation(float(gen.uniform(0, 2 * math.pi)))
    assert exact(P @ Q.T, m) == pytest.approx(exact(P, m), rel=1e-12, abs=0)


@given(st.integers(0, 2 ** 31), st.floats(0.25, 4.0), st.sampled_from([0.5, 1.5, 5.0, math.inf]))
@settings(max_examples=40, deadline=None)
def test_polar_measure_lebesgue_scale_law(seed, lam, R):
    # (λK)° = K°/λ, so ν_R((λK)°) = λ⁻²·ν_{λR}(K°); at R = inf this is |(λK)°| = λ⁻²|K°|
    P = RngStream(seed, 6).generator().standard_normal((4, 2))
    lhs = exact(lam * P, measure.LebesgueRestricted(R, 2))
    assert lhs == pytest.approx(exact(P, measure.LebesgueRestricted(lam * R, 2)) / lam ** 2, rel=1e-12, abs=0)


@given(st.integers(0, 2 ** 31), st.sampled_from(PLANAR_MEASURES))
@settings(max_examples=40, deadline=None)
def test_polar_measure_inclusion_monotone(seed, m):
    # each added column grows K, so ν(K°) never rises; a column inside K changes nothing
    gen = RngStream(seed, 7).generator()
    P = gen.standard_normal((6, 2))
    P = np.vstack([P, 0.5 * (P[0] - P[1])])
    values = [exact(P[:N], m) for N in range(2, len(P) + 1)]
    for before, after in zip(values, values[1:]):
        assert after <= before * (1 + 1e-12)
    assert values[-1] == pytest.approx(values[-2], rel=1e-12, abs=0)
