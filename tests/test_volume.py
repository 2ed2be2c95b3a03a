import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.spatial import ConvexHull

from polarvol import geom, measure, volume
from polarvol.rng import RngStream
from polytope_reference import exact_polar_polygon, face_volume, loop_vertices, polar_polygon_edges, polygon_measure

LEB2 = measure.LebesgueRestricted(math.inf, 2)


def test_estimate_serialization_roundtrip():
    est = volume.Estimate(1.5, 0.01, 1000, 7)
    d = dataclasses.asdict(est)
    assert d == {"value": 1.5, "stderr": 0.01, "samples": 1000, "seed": 7}


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
# far scales: whether K° is bounded must not depend on λ
@example(0, 1e-13, 1.0, 0.0)
@example(1, 1e-13, math.inf, 0.25)
@example(2, 1e13, 2.0, 0.0)
@example(3, 1e13, 1.0, 0.25)
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


SHRINK_POINTS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.6, 0.2]])


@pytest.mark.parametrize("lam", [1e-2, 1e-4, 1e-13])
def test_mc_gaussian_shrink_law(lam):
    # every |x_i| <= 1, so (λK)° holds the ball of radius 1/λ >= 100 and
    # ν((λK)°) is ν(R³) = (2π)^{3/2} to rounding
    body = geom.MatrixImageBody(lam * SHRINK_POINTS.T, geom.LqBall(1.0, 4), 0.0)
    est = volume.polar_measure(body, measure.GaussianLike(1.0, 3), 200_000, RngStream(1, 0))
    assert est.value == pytest.approx((2 * math.pi) ** 1.5, rel=1e-12, abs=0)


def test_one_chunk_runs_without_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk call must not start a thread pool")

    monkeypatch.setattr(volume, "ThreadPoolExecutor", no_pool)
    est = volume.mc_polar_measure(geom.BallBody(1.0, 2), LEB2, 4000, RngStream(1, 0), threads=4)
    assert est.samples == 4000


def test_chunk_pool_is_capped_by_chunks_and_cores(monkeypatch):
    # a fake pool records its size and runs the chunks inline, so no thread starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    monkeypatch.setattr(volume, "ThreadPoolExecutor", InlinePool)
    worker = lambda k, size: volume._chunk_stats(np.full(size, float(k)))
    budget = 2 * volume.CHUNK + 5  # 3 chunks
    want = volume._run_chunks(budget, worker)
    for cores in (8, 2, None):
        monkeypatch.setattr(volume.os, "cpu_count", lambda: cores)
        for threads in (2, 10**9):
            assert volume._run_chunks(budget, worker, threads) == want
    assert sizes == [2, 3, 2, 2, 1, 1]


def test_layer_cake_agrees_with_direct_mc():
    g = measure.GaussianLike(1.0, 2)
    body = geom.BallBody(1.0, 2)
    grid = np.geomspace(1e-6, 1.0, 64)  # 64 levels between rho(0) = 1 and 1e-6
    lc = volume.layer_cake_measure(body, g, grid, 200_000, RngStream(5, 0))
    target = 2 * math.pi * (1 - math.exp(-0.5))
    assert lc.value == pytest.approx(target, abs=0.01)


def test_layer_cake_refuses_an_overflowing_sampling_ball():
    # K° = 1e9·B in R^40: its certified radius to the 40th power overflows a float
    body = geom.MatrixImageBody(1e-9 * np.eye(40), geom.LqBall(2.0, 40), 0.0)
    with pytest.raises(volume.EstimationError):
        volume.layer_cake_measure(body, measure.LebesgueRestricted(math.inf, 40), np.array([0.5, 1.0]),
                                  1000, RngStream(7, 0))


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
    # [1e-13, 3e-13]^3 is small, not flat: the LP sees it at unit size
    tiny = volume.halfspace_volume(cube, np.array([3e-13, 3e-13, 3e-13, -1e-13, -1e-13, -1e-13]))
    assert tiny == pytest.approx(8e-39, rel=1e-12, abs=0)


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


@given(st.integers(0, 2 ** 31), st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=25, deadline=None)
# the n = 5 sets on which a second qhull hull, over K°'s vertices, met a "wide merge" error
@example(1500, 5)
@example(1932, 5)
@example(2733, 5)
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


def test_qhull_failure_raises_geometry_error():
    # the seed-1500, n = 5 set of the test above at N = 8: a second hull, over K°'s vertices,
    # met qhull's "wide merge" error there; the flag sum builds no such hull and returns |K°|
    pts = RngStream(1500, 2).generator().standard_normal((8, 5))
    exact = volume.exact_polar_volume_crosspoly(pts)
    est = volume.mc_polar_measure(geom.MatrixImageBody(pts.T, geom.LqBall(1.0, 8), 0.0),
                                  measure.LebesgueRestricted(math.inf, 5), 200_000, RngStream(1500, 3))
    assert abs(est.value - exact) <= 4 * est.stderr, (exact, est)
    # the one hull left fails on those vertices taken as normals, and says so
    V = geom.HPolytopeBody(np.vstack([pts, -pts]), np.ones(16)).vertices
    with pytest.raises(geom.GeometryError, match="^QH6"):
        volume.halfspace_volume(V, np.ones(len(V)))


def test_seed_2733_set_reads_its_pinned_volume():
    # the third failing set: its N = 8 polar, pinned from this flag sum, and the point
    # 0.5·(p_0 - p_1) inside K leaves it unchanged
    pts = RngStream(2733, 2).generator().standard_normal((8, 5))
    assert volume.exact_polar_volume_crosspoly(pts) == pytest.approx(0.29198891963549, rel=1e-13, abs=0)
    inside = np.vstack([pts, 0.5 * (pts[0] - pts[1])])
    assert volume.exact_polar_volume_crosspoly(inside) == volume.exact_polar_volume_crosspoly(pts)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_flag_sum_is_exact_where_qhull_splits_facets(n):
    # the H-polytope cube [-1, 1]^n has 2^n
    cube = np.vstack([np.eye(n), -np.eye(n)])
    assert volume.halfspace_volume(cube, np.ones(2 * n)) == pytest.approx(2.0 ** n, rel=1e-14, abs=0)
    if n <= 5:
        # the cube's vertex set as ±x_i: K is the cube, whose square dual facets qhull splits,
        # and K° the cross-polytope of volume 2^n/n! (at n = 6, a million chambers)
        half = np.array([(1.0,) + v for v in itertools.product([-1.0, 1.0], repeat=n - 1)])
        assert volume.exact_polar_volume_crosspoly(half) == pytest.approx(2.0 ** n / math.factorial(n), rel=1e-14, abs=0)
    if n <= 4:
        # lattice points make many facets with more than n vertices; the loop reference is slow beyond n = 4
        gen = RngStream(24, n).generator()
        for _ in range(3):
            P = gen.integers(-2, 3, (n + 3, n)).astype(float)
            if geom.spans(P):
                A, b = np.vstack([P, -P]), np.ones(2 * len(P))
                assert volume.halfspace_volume(A, b) == pytest.approx(face_volume(A, b), rel=1e-14, abs=0)


def test_flag_sum_memory_stays_bounded():
    # one np.linalg.det per fixed block of chambers: 256 D_5 points give about 5700 facets
    # and 690 000 chambers, whose 5 x 5 matrices alone would take 138 MB in one stack
    P = measure.sample_uniform_ball(5, measure.dn_radius(5), RngStream(3, 0), 256)
    tracemalloc.start()
    try:
        volume.exact_polar_volume_crosspoly(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6


def test_polytope_volumes_build_one_hull(qhull_hulls):
    # one qhull hull per call, the dual hull: none over the polytope's vertices
    P = RngStream(23, 0).generator().standard_normal((7, 4))
    volume.exact_polar_volume_crosspoly(P)
    assert len(qhull_hulls) == 1
    volume.halfspace_volume(np.vstack([P, -P]), np.full(14, 2.0))
    assert len(qhull_hulls) == 2


def test_qhull_failure_in_the_dual_hull_is_not_unbounded():
    # the vertices of that K° as the normals of {y : <v, y> <= 1}: the dual hull now meets
    # the failure, and the normals span, so it is no UnboundedBody (which shadow reads as g = 0)
    pts = RngStream(1500, 2).generator().standard_normal((8, 5))
    V = geom.HPolytopeBody(np.vstack([pts, -pts]), np.ones(16)).vertices
    with pytest.raises(geom.GeometryError, match="^QH6") as info:
        geom.HPolytopeBody(V, np.ones(len(V))).vertices
    assert not isinstance(info.value, geom.UnboundedBody)


def test_exact_oracle_agrees_with_monte_carlo_in_four_dimensions():
    # the qhull oracle at n = 4, held to the Lebesgue estimate of the same polar
    m = measure.LebesgueRestricted(math.inf, 4)
    gen = RngStream(2025, 0).generator()
    for case in range(12):
        N = int(gen.integers(5, 9))
        P = gen.standard_normal((N, 4))
        exact = volume.exact_polar_volume_crosspoly(P)
        est = volume.mc_polar_measure(geom.MatrixImageBody(P.T, geom.LqBall(1.0, N), 0.0), m, 200_000,
                                      RngStream(2025, case + 1))
        assert abs(est.value - exact) <= 4 * est.stderr, (case, exact, est)


def test_exact_oracle_agrees_with_monte_carlo_in_five_dimensions():
    # `converge` runs the qhull oracle up to n = 5
    m = measure.LebesgueRestricted(math.inf, 5)
    gen = RngStream(2026, 0).generator()
    for case in range(12):
        N = int(gen.integers(6, 10))
        P = gen.standard_normal((N, 5))
        exact = volume.exact_polar_volume_crosspoly(P)
        est = volume.mc_polar_measure(geom.MatrixImageBody(P.T, geom.LqBall(1.0, N), 0.0), m, 200_000,
                                      RngStream(2026, case + 1))
        assert abs(est.value - exact) <= 4 * est.stderr, (case, exact, est)


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


# Exact values of the unbounded-polar branch, whose draws come from
# measure.radial_sampler.  No configs/*.json reaches that branch, so these
# pins are what holds those draws fixed.
RANK1 = geom.MatrixImageBody(np.array([[1.0], [0.5]]), geom.LqBall(1.0, 1), 0.0)


@pytest.mark.parametrize("m,value,stderr", [
    (measure.GaussianLike(1.0, 2), 3.956701307511191, 0.011467552851514951),
    (measure.PowerKernel(np.array([[0.0, 1.0], [1.0, 2.0]]), 2), 1.2316838397874041, 0.005797089698013378),
    (measure.LebesgueRestricted(2.0, 2), 6.910067681255904, 0.023629882553598273),
])
def test_unbounded_polar_estimate_is_pinned(m, value, stderr):
    est = volume.mc_polar_measure(RANK1, m, 70_000, RngStream(12, 3), threads=2)
    assert (est.value, est.stderr, est.samples) == (value, stderr, 70_000)


K_LINEAR = np.array([[0.0, 1.0], [1.0, 2.0]])  # k = 1 + t


def slab_measure(m, w):
    """ν({|y_1| <= w}): erf for the Gaussian, quadrature over spheres for a PowerKernel.

    The sphere of radius t meets the slab in length 4t·asin(min(1, w/t)) in
    the plane and in area 4πt·min(t, w) in space (Archimedes).
    """
    n = m.dim
    if isinstance(m, measure.GaussianLike):
        s = m.sigma
        return (2 * math.pi * s * s) ** ((n - 1) / 2) * s * math.sqrt(2 * math.pi) * math.erf(w / (s * math.sqrt(2)))
    rho = lambda t: float(measure.rho_eval(m, t))
    inside = 2 * math.pi if n == 2 else 4 * math.pi
    crossing = (lambda t: 4 * t * math.asin(w / t)) if n == 2 else (lambda t: 4 * math.pi * t * w)
    return (integrate.quad(lambda t: rho(t) * inside * t ** (n - 1), 0, w, epsrel=1e-12)[0]
            + integrate.quad(lambda t: rho(t) * crossing(t), w, math.inf, epsrel=1e-12, limit=200)[0])


@pytest.mark.parametrize("m,w", [
    (measure.GaussianLike(1.0, 2), 1.0), (measure.GaussianLike(0.7, 3), 1.0),
    (measure.PowerKernel(K_LINEAR, 2), 1.0), (measure.PowerKernel(K_LINEAR, 2), 20.0),
    (measure.PowerKernel(K_LINEAR, 3), 1.0), (measure.PowerKernel(K_LINEAR, 3), 20.0),
])
def test_unbounded_polar_slab_is_unbiased(m, w):
    # K = [-e_1/w, e_1/w] has the slab K° = {|y_1| <= w}, so the estimate runs the unbounded branch
    n = m.dim
    body = geom.MatrixImageBody(np.eye(n)[:, :1] / w, geom.LqBall(1.0, 1), 0.0)
    est = volume.mc_polar_measure(body, m, 10 ** 6, RngStream(41, 0), threads=2)
    assert abs(est.value - slab_measure(m, w)) <= 4 * est.stderr


@given(st.integers(0, 2 ** 31), st.sampled_from([measure.GaussianLike(1.0, 3), measure.PowerKernel(K_LINEAR, 3),
                                                 measure.LebesgueRestricted(2.0, 3)]))
@settings(max_examples=15, deadline=None)
def test_unbounded_polar_inclusion_monotone(seed, m):
    # rank-1 K ⊂ rank-2 L in R³: L° ⊂ K°, and with a shared seed both see the same draws
    X = RngStream(seed, 5).generator().standard_normal((3, 2))
    K = geom.MatrixImageBody(X[:, :1], geom.LqBall(1.0, 1), 0.0)
    L = geom.MatrixImageBody(X, geom.LqBall(1.0, 2), 0.0)
    est_K = volume.mc_polar_measure(K, m, 5000, RngStream(seed, 6))
    est_L = volume.mc_polar_measure(L, m, 5000, RngStream(seed, 6))
    assert est_L.value <= est_K.value


def _fingerprint(pts):
    return float(pts.sum()), pts[0].tolist(), pts[-1].tolist()


def test_sampler_draws_are_pinned():
    b2 = math.sqrt(0.25 + (1 - math.pi / 4) / (0.5 * math.pi))
    step = measure.RadialStepDensity(np.array([0.5, b2]), np.array([1.0, 0.5]), 2)
    assert _fingerprint(measure.sample_density(step, RngStream(13, 1), 300)) == (
        0.6870489833062052, [-0.28150551230349563, -0.09924616006272445], [0.06158393217226266, -0.47417677807145026])
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
        6.283185307179586, -25.886830297519104, [1.5972813796366498, -1.1732897353852911],
        [0.9315626722740394, 0.9630237647612038])
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
        edges = polar_polygon_edges(geom.HPolytopeBody(np.vstack([P, -P]), np.ones(8)).vertices)
        for k, m in enumerate(PLANAR_MEASURES):
            if isinstance(m, measure.LebesgueRestricted) and math.isfinite(m.R):
                far = [max(d * d + s0 * s0, d * d + s1 * s1) for d, s0, s1 in edges]
                seen |= {"outside" for d, _, _ in edges if d >= m.R}
                seen |= {"cut" for (d, _, _), f in zip(edges, far) if d < m.R < math.sqrt(f)}
                seen |= {"inside"} if max(far) <= m.R ** 2 else set()
            est = volume.polar_measure(body, m, 1, RngStream(seed, 1))
            mc = volume.mc_polar_measure(body, m, 200_000, RngStream(seed, 2 + k))
            # a draw that lands in K° every time has a mean within rounding of the exact
            # value, and the stderr floor of 64 ulps (`volume.ROUNDING_FLOOR`)
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
    # a ball of radius 0 has the whole plane for its polar: no closed form is taken
    (geom.BallBody(0.0, 2), measure.GaussianLike(1.0, 2)),
    (geom.HPolytopeBody(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)), measure.GaussianLike(1.0, 2)),
]


@pytest.mark.parametrize("body,m", NON_EXACT)
def test_polar_measure_falls_back_to_monte_carlo(body, m):
    args = (body, m, 70_000, RngStream(5, 1))
    est = volume.polar_measure(*args, threads=2)
    assert est == volume.mc_polar_measure(*args, threads=2)
    assert est.samples == 70_000


@pytest.mark.parametrize("m", [
    LEB2, measure.LebesgueRestricted(0.3, 2), measure.GaussianLike(1.0, 4),
    measure.PowerKernel(K_LINEAR, 3),
])
def test_polar_measure_of_a_ball_is_exact(m):
    # (R·B)° = B/R, so ν of it is the closed-form mass of the ball of radius 1/R; nothing is drawn
    class SeedOnly:
        seed = 19

    est = volume.polar_measure(geom.BallBody(2.5, m.dim), m, 10 ** 6, SeedOnly(), threads=2)
    assert est == volume.Estimate(measure.radial_mass_in_ball(m, 0.4), 0.0, 0, 19)
    mc = volume.mc_polar_measure(geom.BallBody(2.5, m.dim), m, 100_000, RngStream(19, 0))
    assert abs(est.value - mc.value) <= 4 * mc.stderr + 1e-12 * est.value


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
@example(715079, measure.LebesgueRestricted(1.5, 2))  # singular values 1.61 and 1.25e-4: a gap of 2.06e-12
@settings(max_examples=40, deadline=None)
def test_polar_measure_rotation_invariance(seed, m):
    # the rounding of K°'s vertices grows with the conditioning of P, as in assert_polygon_vertices_exact
    gen = RngStream(seed, 5).generator()
    P = gen.standard_normal((int(gen.integers(2, 7)), 2))
    Q = _rotation(float(gen.uniform(0, 2 * math.pi)))
    sigma = np.linalg.svd(P, compute_uv=False)
    rel = 64 * sigma[0] / sigma[-1] * np.finfo(float).eps
    assert exact(P @ Q.T, m) == pytest.approx(exact(P, m), rel=rel, abs=0)


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


# ---------------------------------------------------------------------------
# polar_measures: the edges of every polygon in a batch go through one array pass

POLYGON_MEASURES = [measure.LebesgueRestricted(R, 2) for R in (0.5, 5.0, math.inf)] + [
    measure.GaussianLike(sigma, 2) for sigma in (1e-3, 1.0, 1e3)]


@given(st.integers(0, 2 ** 31), st.sampled_from(POLYGON_MEASURES))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_polygon_batch_matches_the_scalar_reference(seed, m):
    # the batch takes its angles, expm1 and node sums in numpy, so last bits may move;
    # the reference takes the batch's own vertices, which one set alone gives bit for bit
    gen = RngStream(seed, 10).generator()
    sets = [gen.standard_normal((int(gen.integers(2, 9)), 2)) * 10.0 ** gen.uniform(-2, 2)
            for _ in range(int(gen.integers(1, 30)))]
    batch = volume.polar_measures([cross_image(P) for P in sets], m, 1, [RngStream(seed, 11 + k) for k in range(len(sets))])
    for k, (P, est) in enumerate(zip(sets, batch)):
        want = polygon_measure(m, volume._planar_polar_vertices(P[None])[1])
        assert (est.stderr, est.samples, est.seed) == (0.0, 0, seed)
        assert est.value == pytest.approx(want, rel=1e-15, abs=0), (k, P.tolist())


def assert_polygon_vertices_exact(P):
    """The scan's K° vertices against exact rationals, within 64·cond(P)·eps of the polygon's size.

    Returns the relative tolerance and the exact vertices rounded to floats,
    those that round onto the one before them dropped.
    """
    P = np.asarray(P, dtype=float)
    spans, V, counts = volume._planar_polar_vertices(P[None])
    assert spans.tolist() == [True] and counts.tolist() == [len(V)]
    want = np.array(exact_polar_polygon(P), dtype=float)
    sigma = np.linalg.svd(P, compute_uv=False)
    rel = 64 * sigma[0] / sigma[-1] * np.finfo(float).eps
    gap = np.linalg.norm(V[:, None, :] - want[None, :, :], axis=2)
    tol = rel * np.abs(want).max()
    assert gap.min(axis=1).max() <= tol and gap.min(axis=0).max() <= tol, (P.tolist(), V.tolist(), want.tolist())
    # counterclockwise with no edge of length 0: every edge turns left of the one before it
    e = np.roll(V, -1, axis=0) - V
    f = np.roll(e, -1, axis=0)
    assert np.all(e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0] > 0)
    return rel, want[np.any(want != np.roll(want, 1, axis=0), axis=1)]


@given(st.integers(0, 2 ** 31), st.floats(-11, 2), st.floats(0, 6))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_polygon_vertices_match_exact_rationals(seed, scale, stretch):
    gen = RngStream(seed, 12).generator()
    P = gen.standard_normal((int(gen.integers(2, 9)), 2)) * [1.0, 10.0 ** -stretch]
    assert_polygon_vertices_exact(10.0 ** scale * P @ _rotation(float(gen.uniform(0, 2 * math.pi))).T)


DEGENERATE_POLYGONS = {
    "repeated column": [[0.3, 0.8], [1.0, -0.2], [0.3, 0.8]],
    "negated column": [[0.3, 0.8], [1.0, -0.2], [-0.3, -0.8]],
    "shorter multiple": [[0.3, 0.8], [1.0, -0.2], [0.15, 0.4]],
    "longer multiple": [[0.3, 0.8], [1.0, -0.2], [-0.9, -2.4]],
    "farthest point repeated": [[2.0, 1.0], [0.5, 0.5], [2.0, 1.0], [-2.0, -1.0]],
    "lattice points on edges": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
    # in floats the scan keeps a collinear point, and two K° vertices round to one
    "lattice vertices that round together": [[0.0, 1.0], [2.0, -3.0], [-1.0, 3.0]],
    "thin parallelogram 1e-3": [[1.0, 0.0], [1.0, 1e-3]],
    "thin parallelogram 1e-9": [[1.0, 0.0], [1.0, 1e-9]],
    "thin rotated parallelogram": [[0.6, 0.8], [0.6 + 1e-7, 0.8]],
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_POLYGONS))
@pytest.mark.parametrize("scale", [1e-11, 0.1, 1.0, 49.43222798044387, 1e2])
def test_polygon_vertices_of_degenerate_point_sets(name, scale):
    P = scale * np.array(DEGENERATE_POLYGONS[name])
    rel, want = assert_polygon_vertices_exact(P)
    for m in POLYGON_MEASURES:
        assert exact(P, m) == pytest.approx(polygon_measure(m, want), rel=rel, abs=0), (name, m)


def test_polygon_batch_sends_point_sets_that_do_not_span_to_monte_carlo():
    # N = 1, a repeated column, collinear columns, a zero set and rank 1 at 1e-11
    # of the largest singular value; mixed with spanning sets of the same N
    sets = [[[0.4, 0.7]], [[1.0, 0.0], [0.5, 0.5]], [[0.3, 0.8], [0.3, 0.8]], [[1.0, 0.0], [0.0, 1.0]],
            [[0.5, -1.0], [-1.0, 2.0], [0.25, -0.5]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-11]],
            [[-2.0, 0.0]]]
    spans = {N: volume._planar_polar_vertices(np.array([p for p in sets if len(p) == N]))[0].tolist() for N in (1, 2, 3)}
    assert spans == {1: [False, False], 2: [True, False, True, False, False], 3: [False]}
    g = measure.GaussianLike(1.0, 2)
    rngs = [RngStream(8, k) for k in range(len(sets))]
    batch = volume.polar_measures([cross_image(p) for p in sets], g, 70_000, rngs, threads=2)
    assert [e.samples for e in batch] == [70_000, 0, 70_000, 0, 70_000, 70_000, 70_000, 70_000]
    for p, rng, est in zip(sets, rngs, batch):
        if est.samples:
            assert est == volume.mc_polar_measure(cross_image(p), g, 70_000, rng, threads=2)


def test_polygon_batch_runs_every_other_body_on_its_own_stream():
    bodies = [
        cross_image([[1.0, 0.2], [0.3, 1.0]]),
        geom.MatrixImageBody(np.array([[1.0, 2.0], [0.0, 0.0]]), geom.LqBall(1.0, 2), 0.0),  # does not span
        geom.MatrixImageBody(np.eye(2), geom.LqBall(2.0, 2), 0.0),
        cross_image([[0.5, -0.4], [0.1, 0.9], [-0.7, 0.3]]),
        geom.MatrixImageBody(np.eye(2), geom.LqBall(1.0, 2), 0.25),
        geom.BallBody(1.5, 2),
    ]
    rngs = [RngStream(7, k) for k in range(len(bodies))]
    g = measure.GaussianLike(1.0, 2)
    batch = volume.polar_measures(bodies, g, 70_000, rngs, threads=2)
    assert [e.samples for e in batch] == [0, 70_000, 70_000, 0, 70_000, 0]
    for body, rng, est in zip(bodies, rngs, batch):
        assert est == volume.polar_measure(body, g, 70_000, rng, threads=2)
        if est.samples:
            assert est == volume.mc_polar_measure(body, g, 70_000, rng, threads=2)
    # no polygon has a closed form under a PowerKernel: every matrix image runs Monte Carlo
    pk = measure.PowerKernel(K_LINEAR, 2)
    batch = volume.polar_measures(bodies[:5], pk, 70_000, rngs[:5], threads=2)
    assert batch == [volume.mc_polar_measure(b, pk, 70_000, rng, threads=2) for b, rng in zip(bodies, rngs[:5])]


def test_polygon_batch_keeps_the_input_checks():
    with pytest.raises(volume.EstimationError):
        volume.polar_measures([SQUARE_DUAL, geom.BallBody(1.0, 3)], LEB2, 100, [RngStream(1, 0), RngStream(1, 1)])
    with pytest.raises(ValueError):
        volume.polar_measures([SQUARE_DUAL, SQUARE_DUAL], LEB2, 100, [RngStream(1, 0)])
    assert volume.polar_measures([], LEB2, 100, []) == []


# ---------------------------------------------------------------------------
# Monte Carlo properties on the bounded-polar branch.  They hold in
# expectation only: each case shares its seed between the two estimates and
# allows 4 combined stderrs.

MC_CASES = [(seed, n, q, r) for seed in range(6) for n, q, r in ((2, 1.0, 0.25), (2, 2.0, 0.0), (3, math.inf, 0.0), (3, 1.0, 0.0))]
MC_MEASURES = {2: measure.GaussianLike(0.8, 2), 3: measure.LebesgueRestricted(1.5, 3)}


@pytest.mark.parametrize("seed,n,q,r", MC_CASES)
def test_monte_carlo_rotation_invariance(seed, n, q, r):
    gen = RngStream(seed, 12).generator()
    A = gen.standard_normal((n, n + 2))
    Q = np.linalg.qr(gen.standard_normal((n, n)))[0]
    m = MC_MEASURES[n]
    a, b = (volume.mc_polar_measure(geom.MatrixImageBody(M, geom.LqBall(q, n + 2), r), m, 20_000, RngStream(seed, 13))
            for M in (A, Q @ A))
    assert abs(a.value - b.value) <= 4 * (a.stderr + b.stderr), (a, b)


@pytest.mark.parametrize("seed,n,q,r", MC_CASES)
def test_monte_carlo_inclusion_monotone(seed, n, q, r):
    # K = [x_1 .. x_{N-1}]C + rB lies in L = [x_1 .. x_N]C + rB, so ν(L°) <= ν(K°)
    gen = RngStream(seed, 14).generator()
    A = gen.standard_normal((n, n + 2))
    m = MC_MEASURES[n]
    est_K, est_L = (volume.mc_polar_measure(geom.MatrixImageBody(A[:, :N], geom.LqBall(q, N), r), m, 20_000,
                                            RngStream(seed, 15)) for N in (n + 1, n + 2))
    assert est_L.value <= est_K.value + 4 * (est_K.stderr + est_L.stderr), (est_K, est_L)


# ---------------------------------------------------------------------------
# the parallelepiped P ⊇ K° cut from a matrix image's or an H-polytope's own slabs


def assert_in_parallelepiped(box, Y):
    """Every row of Y lies in P to 1e-12 of the size of its slab coordinates."""
    t = Y @ box.normals.T
    tol = 1e-12 * (geom.row_norms(Y)[:, None] * geom.row_norms(box.normals) + np.abs(box.lo) + box.width)
    assert np.all(t >= box.lo - tol) and np.all(t <= box.lo + box.width + tol)


def assert_parallelepiped_is_consistent(box):
    # origin + edges·[0, 1]^n: its corners lie on the slab bounds, and |det edges| is the volume
    n = len(box.lo)
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * n, indexing="ij")).reshape(n, -1).T
    assert_in_parallelepiped(box, box.origin + corners @ box.edges.T)
    assert box.volume == pytest.approx(abs(np.linalg.det(box.edges)), rel=1e-9)


def boundary_points(body, gen):
    """θ/h_K(θ) on 64 rays: points of ∂K°."""
    theta = gen.standard_normal((64, body.dim))
    theta /= geom.row_norms(theta)[:, None]
    return theta / geom.support_values(body, theta)[:, None]


@given(st.integers(0, 2 ** 31), st.sampled_from([2, 3, 4]), st.sampled_from([1.0, 2.0, math.inf]),
       st.sampled_from([0.0, 0.3]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_parallelepiped_holds_a_matrix_image_polar(seed, n, q, r):
    # K holds conv{±x_i'}, x_i' = (1 + r/|x_i|)·x_i, so K° lies in {|<x_i', y>| <= 1 for all i},
    # the polar of conv{±x_i'}, whose vertices qhull gives
    gen = RngStream(seed, 16).generator()
    N = int(gen.integers(n, 3 * n + 1))
    X = gen.standard_normal((n, N))
    body = geom.MatrixImageBody(X, geom.LqBall(q, N), r)
    box = geom.polar_parallelepiped(body)
    assert np.all(box.lo == -1.0) and np.all(box.width == 2.0)
    assert_parallelepiped_is_consistent(box)
    Xs = X * (1 + r / np.linalg.norm(X, axis=0))
    assert_in_parallelepiped(box, geom.HPolytopeBody(np.vstack([Xs.T, -Xs.T]), np.ones(2 * N)).vertices)
    assert_in_parallelepiped(box, boundary_points(body, gen))


def test_a_ball_summand_narrows_the_slabs():
    # K = [e_1 e_2 0]·B_1^3 + r·B: h_K(y) >= (1 + r)|y_i| cuts the square |y_i| <= 1/(1 + r),
    # and K° touches it at e_i/(1 + r); the zero column cuts no slab
    for r in (0.0, 0.5, 3.0):
        body = geom.MatrixImageBody(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), geom.LqBall(1.0, 3), r)
        box = geom.polar_parallelepiped(body)
        assert box.volume == pytest.approx(4 / (1 + r) ** 2, rel=1e-15)
        assert_in_parallelepiped(box, boundary_points(body, RngStream(0, 24).generator()))
        assert geom.support_values(body, np.eye(2) / (1 + r)) == pytest.approx([1.0, 1.0], rel=1e-15)


@pytest.mark.parametrize("scale,r,volume", [(1e-100, 0.0, 8e300), (1e-120, 0.0, math.inf), (1e100, 0.0, 8e-300),
                                             (1e200, 0.0, 0.0), (1e200, 1.0, 0.0), (1.0, 1e300, 0.0)])
def test_parallelepiped_of_a_body_at_an_extreme_scale(scale, r, volume):
    # Gram–Schmidt runs at unit scale, so no square overflows (RuntimeWarnings are errors):
    # |P| = 8/scale³ (or 8/r³), or 0 and inf out of the float range
    body = geom.MatrixImageBody(scale * np.eye(3), geom.LqBall(1.0, 3), r)
    box = geom.polar_parallelepiped(body)
    assert box.volume == pytest.approx(volume, rel=1e-14)
    assert box.edges == pytest.approx(np.diag(box.width) / scale / (1 + r / scale), rel=1e-14)


def random_hpolytope(gen, n, symmetric):
    """K = {y : <a_i, y> <= b_i} with 0 inside: the last normal is minus the sum of the others,
    so 0 is a positive combination of normals that span R^n, and K is bounded."""
    A = gen.standard_normal((int(gen.integers(n, 3 * n)), n))
    A = np.vstack([A, -A.sum(axis=0)])
    b = gen.uniform(0.2, 2.0, len(A))
    if symmetric:
        A, b = np.vstack([A, -A]), np.concatenate([b, b])
    return geom.HPolytopeBody(A, b)


@given(st.integers(0, 2 ** 31), st.sampled_from([2, 3, 4]), st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_parallelepiped_holds_an_hpolytope_polar(seed, n, symmetric):
    # K° = conv{a_i/b_i}; a vertex v of K bounds it by -1/c_v <= <v, y> <= 1
    gen = RngStream(seed, 17).generator()
    body = random_hpolytope(gen, n, symmetric)
    box = geom.polar_parallelepiped(body)
    if symmetric:  # c_v = 1: -v is a vertex too
        assert box.lo == pytest.approx(-np.ones(n), rel=1e-12)
    assert_parallelepiped_is_consistent(box)
    assert_in_parallelepiped(box, body.normals / body.offsets[:, None])
    assert_in_parallelepiped(box, boundary_points(body, gen))


def test_nonsymmetric_hpolytope_slabs_are_not_symmetric():
    # K = {y : y_1 <= 1, y_2 <= 1, -y_1 - y_2 <= 1} has the vertices (1, 1), (1, -2) and (-2, 1).
    # The ray along -(1, 1) leaves K at (-1/2, -1/2), so c_v = 1/2 and -2 <= <v, y> <= 1 on K°, and
    # likewise for the other two; any two of the slabs cut a P of area 3 around the triangle
    # K° = conv{(1, 0), (0, 1), (-1, -1)} of area 3/2
    body = geom.HPolytopeBody(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.ones(3))
    box = geom.polar_parallelepiped(body)
    assert box.lo == pytest.approx([-2.0, -2.0], rel=1e-15) and box.width == pytest.approx([3.0, 3.0], rel=1e-15)
    assert box.volume == pytest.approx(3.0, rel=1e-14)
    assert_in_parallelepiped(box, body.normals)


def test_parallelepiped_is_none_where_the_slabs_do_not_span():
    rank1 = geom.MatrixImageBody(np.array([[1.0, 2.0], [0.5, 1.0]]), geom.LqBall(1.0, 2), 0.3)
    assert geom.polar_parallelepiped(rank1) is None
    assert geom.polar_parallelepiped(geom.BallBody(1.0, 2)) is None
    # 0 on the boundary of K: K° is unbounded
    corner = geom.HPolytopeBody(np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 1.0, 0.0, 1.0]))
    assert geom.polar_parallelepiped(corner) is None


def takes_the_parallelepiped(body, m):
    """Whether `mc_polar_measure` samples P: smaller than the R*-ball, and below ν(R^n)/ρ(0)."""
    box = geom.polar_parallelepiped(body)
    ball = geom.unit_ball_volume(body.dim) * geom.polar_sampling_radius(body) ** body.dim
    return box.volume < ball and float(measure.rho_eval(m, 0.0)) * box.volume < measure.total_mass(m)


def estimate_at_both_thread_counts(body, m, budget, rng_key):
    one, two = (volume.mc_polar_measure(body, m, budget, RngStream(*rng_key), threads) for threads in (1, 2))
    assert one == two
    return one


@pytest.mark.parametrize("n", [3, 4])
def test_parallelepiped_estimate_of_a_cross_polytope_polar_is_unbiased(n):
    P = RngStream(n, 18).generator().standard_normal((2 * n, n))
    body = geom.MatrixImageBody(P.T, geom.LqBall(1.0, 2 * n), 0.0)
    m = measure.LebesgueRestricted(math.inf, n)
    assert takes_the_parallelepiped(body, m)
    est = estimate_at_both_thread_counts(body, m, 200_000, (n, 19))
    assert abs(est.value - volume.exact_polar_volume_crosspoly(P)) <= 4 * est.stderr


def test_parallelepiped_estimate_of_an_hpolytope_polar_is_unbiased():
    body = random_hpolytope(RngStream(3, 20).generator(), 3, symmetric=False)
    m = measure.LebesgueRestricted(math.inf, 3)
    assert takes_the_parallelepiped(body, m)
    assert not np.allclose(geom.polar_parallelepiped(body).lo, -1.0)
    est = estimate_at_both_thread_counts(body, m, 200_000, (3, 21))
    want = ConvexHull(body.normals / body.offsets[:, None]).volume
    assert abs(est.value - want) <= 4 * est.stderr


def test_parallelepiped_estimate_of_a_planar_polar_under_a_gaussian_is_unbiased():
    body = random_hpolytope(RngStream(2, 22).generator(), 2, symmetric=False)
    m = measure.GaussianLike(1.0, 2)
    assert takes_the_parallelepiped(body, m)
    dual = body.normals / body.offsets[:, None]
    V = dual[ConvexHull(dual).vertices]  # counterclockwise
    want = volume._polygon_measures(m, V, np.array([len(V)]))[0]
    est = estimate_at_both_thread_counts(body, m, 200_000, (2, 23))
    assert abs(est.value - want) <= 4 * est.stderr


@pytest.mark.parametrize("body,m,value,stderr", [
    (geom.MatrixImageBody(np.array([[1.0, 2.0], [0.5, 1.0]]), geom.LqBall(1.0, 2), 0.3), LEB2,
     2.9321531433504737, 0.03659728138874313),
    (geom.MatrixImageBody(np.outer([1.0, -0.5, 2.0], [1.0, 0.5, -1.5]), geom.LqBall(2.0, 3), 0.3),
     measure.GaussianLike(1.0, 3), 1.790730650828639, 0.018897070862918242),
])
def test_rank_deficient_image_with_a_ball_summand_keeps_the_ball(body, m, value, stderr):
    # columns of rank 1 and r > 0: K° is bounded but no n slabs cut it, so the R*-ball is sampled,
    # with the bits it had before P existed (and no 0/0 on the way: RuntimeWarnings are errors)
    assert geom.polar_parallelepiped(body) is None
    est = estimate_at_both_thread_counts(body, m, 70_000, (7, 0))
    assert (est.value, est.stderr) == (value, stderr)


def exact_determinant(X):
    """det of a float matrix in exact arithmetic, by cofactors along the first row."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(X, dtype=float).tolist()]

    def det(M):
        if len(M) == 1:
            return M[0][0]
        return sum((-1) ** j * M[0][j] * det([row[:j] + row[j + 1:] for row in M[1:]]) for j in range(len(M)))

    return det(rows)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_parallelotope_polar_is_exact_up_to_the_stderr_floor(n):
    # N = n, q = 1: K° = {|Xᵀy|_∞ <= 1} is P itself, and under Lebesgue measure on R^n every
    # draw weighs |P|.  The estimate is 2^n/|det X| to rounding, and the sample variance 0
    X = RngStream(n, 24).generator().standard_normal((n, n))
    est = volume.mc_polar_measure(geom.MatrixImageBody(X, geom.LqBall(1.0, n), 0.0),
                                  measure.LebesgueRestricted(math.inf, n), 100_000, RngStream(n, 25))
    want = float(Fraction(2 ** n) / abs(exact_determinant(X)))
    assert abs(est.value - want) <= 4 * math.ulp(want)
    assert est.stderr == volume.ROUNDING_FLOOR * est.value
