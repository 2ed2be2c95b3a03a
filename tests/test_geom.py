import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import HalfspaceIntersection

from polarvol import geom, measure, volume
from polarvol.rng import RngStream
from polytope_reference import loop_vertices


def test_unit_ball_volume_small_dims():
    # closed forms: 2, pi, 4pi/3
    assert geom.unit_ball_volume(1) == pytest.approx(2.0)
    assert geom.unit_ball_volume(2) == pytest.approx(math.pi)
    assert geom.unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)


def test_dual_exponent_pairs():
    assert geom.dual_exponent(1.0) == math.inf
    assert geom.dual_exponent(math.inf) == 1.0
    assert geom.dual_exponent(2.0) == pytest.approx(2.0)
    assert geom.dual_exponent(3.0) == pytest.approx(1.5)


def test_lq_ball_rejects_q_below_one():
    with pytest.raises(geom.GeometryError):
        geom.LqBall(0.5, 3)


def test_gauge_support_is_dual_norm():
    u = np.array([[3.0, -4.0], [1.0, 1.0]])
    # h_{B_1} = sup norm, h_{B_inf} = l1 norm, h_{B_2} = l2 norm
    assert geom.gauge_support(geom.LqBall(1.0, 2), u) == pytest.approx([4.0, 1.0])
    assert geom.gauge_support(geom.LqBall(math.inf, 2), u) == pytest.approx([7.0, 2.0])
    assert geom.gauge_support(geom.LqBall(2.0, 2), u) == pytest.approx([5.0, math.sqrt(2)])


def test_matrix_image_support_identity_cross():
    # A = I, C = B_1^2, r = 0.5: h(y) = max|y_i| + 0.5|y|
    body = geom.MatrixImageBody(np.eye(2), geom.LqBall(1.0, 2), 0.5)
    y = np.array([[3.0, 4.0]])
    assert geom.support_values(body, y)[0] == pytest.approx(4.0 + 2.5)


def test_ball_support_and_membership():
    b = geom.BallBody(2.0, 3)
    y = np.array([[1.0, 2.0, 2.0]])
    assert geom.support_values(b, y)[0] == pytest.approx(6.0)
    assert geom.polar_contains(b, np.vstack([y / 18.0, y / 2.0])).tolist() == [True, False]


def test_hpolytope_vertices_square():
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    body = geom.HPolytopeBody(normals, np.ones(4))
    verts = geom.hpolytope_vertices(body)
    expected = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    got = {tuple(np.round(v).astype(int)) for v in verts}
    assert got == expected


def test_hpolytope_support_matches_vertices():
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    body = geom.HPolytopeBody(normals, np.array([1.0, 1.0, 0.5, 0.5]))
    y = np.array([[2.0, 2.0]])
    assert geom.support_values(body, y)[0] == pytest.approx(3.0)


def test_direction_grid_rows_are_unit():
    for n, count in ((1, 2), (2, 720), (3, 2048), (4, 4096), (6, 4096)):
        D = geom.sphere_directions(n)
        assert D.shape == (count, n) and not D.flags.writeable
        assert np.allclose(np.linalg.norm(D, axis=1), 1.0, rtol=0, atol=1e-15)
        assert geom.sphere_directions(n) is D


@pytest.mark.parametrize("n", [4, 5, 6])
def test_seeded_direction_grid_is_stream_n_of_seed_11(n):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(11, spawn_key=(n,))))
    D = gen.standard_normal((4096, n))
    D /= np.linalg.norm(D, axis=1)[:, None]
    assert geom.sphere_directions(n).tobytes() == D.tobytes()


def test_polar_bounding_radius_ball():
    assert geom.polar_bounding_radius(geom.BallBody(4.0, 2)) == pytest.approx(0.25)
    assert geom.polar_bounding_radius(geom.BallBody(0.0, 2)) == math.inf


def test_polar_bounding_radius_degenerate_is_infinite():
    # segment conv(+-e1) has zero support in e2, polar unbounded
    body = geom.MatrixImageBody(np.array([[1.0], [0.0]]), geom.LqBall(1.0, 1), 0.0)
    assert geom.polar_bounding_radius(body) == math.inf


def test_polar_bounding_radius_covers_a_rotated_square_polar():
    # K = conv{±Re1, ±Re2} with R a 0.25° rotation: K° is a square of circumradius √2,
    # whose vertex directions the 720-direction grid misses
    a = math.radians(0.25)
    R = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    body = geom.MatrixImageBody(R, geom.LqBall(1.0, 2), 0.0)
    assert geom.polar_bounding_radius(body) >= math.sqrt(2) - 4 * math.ulp(math.sqrt(2))


def test_polar_sampling_radius_covers_polar():
    # polar of the cross-polytope image is the cube; circumradius sqrt(2)
    body = geom.MatrixImageBody(np.eye(2), geom.LqBall(1.0, 2), 0.0)
    assert geom.polar_sampling_radius(body) >= math.sqrt(2) - 1e-9
    # the cube 1e-13·[-1, 1]^3 holds 0 inside at any scale: its polar is the cross-polytope 1e13·B_1^3
    cube = geom.HPolytopeBody(np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 1e-13))
    assert geom.polar_sampling_radius(cube) == pytest.approx(1e13, rel=1e-15)


def _ellipsoid_oracle(n, ratio, seed, certified=True):
    """h(y) = √(yᵀMy) for semi-axes (1, ratio, ..., ratio) under a seeded rotation, with its
    inradius √λ_min(M) = 1 (or 0, no bound known), and the circumradius 1/√λ_min(M) of its polar."""
    q, r = np.linalg.qr(np.random.default_rng([n, seed]).standard_normal((n, n)))
    Q = q * np.sign(np.diag(r))
    M = Q @ np.diag([1.0] + [ratio**2] * (n - 1)) @ Q.T
    inradius = math.sqrt(np.linalg.eigvalsh(M)[0])
    body = geom.SupportOracleBody(lambda Y: np.sqrt(np.einsum("ij,jk,ik->i", Y, M, Y)), n,
                                  inradius if certified else 0.0)
    return body, 1.0 / inradius


@pytest.mark.parametrize("n,ratio", [(2, 10.0), (2, 50.0), (2, 100.0), (3, 3.0), (3, 10.0)])
def test_oracle_sampling_radius_holds_an_elongated_polar(n, ratio):
    # the radius is 1/inradius, the circumradius of K°: it holds the boundary points θ/h(θ)
    # of K°, and the one on the short axis reaches it
    for seed in range(20):
        body, circumradius = _ellipsoid_oracle(n, ratio, seed)
        radius = geom.polar_sampling_radius(body)
        assert radius == pytest.approx(circumradius, rel=1e-12), seed
        theta = np.random.default_rng([n, seed, 1]).standard_normal((200, n))
        theta /= geom.row_norms(theta)[:, None]
        assert np.all(geom.row_norms(theta / body.evaluator(theta)[:, None]) <= radius * (1 + 1e-12)), seed


def test_oracle_inradius_is_finite_and_nonnegative():
    for bad in (-1e-3, math.nan, math.inf):
        with pytest.raises(geom.GeometryError, match="inradius"):
            geom.SupportOracleBody(lambda Y: geom.row_norms(Y), 2, bad)


def test_elongated_oracle_estimate_in_four_dimensions_is_unbiased():
    # semi-axes 1:20 in R⁴: |K°| = ω_4/20³ under Lebesgue ∞.  A radius of 1/(0.95·grid minimum)
    # read 0.495–0.778 against the circumradius 1, and these estimates 5.1 and 9.0 stderr low at
    # seeds 0 and 3
    want = geom.unit_ball_volume(4) / 20.0**3
    for seed in range(5):
        body, _ = _ellipsoid_oracle(4, 20.0, seed)
        est = volume.mc_polar_measure(body, measure.LebesgueRestricted(math.inf, 4), 500_000, RngStream(seed, 0))
        assert abs(est.value - want) <= 4 * est.stderr, (seed, est, want)


def test_uncertified_oracle_takes_the_mass_branch_or_refuses(monkeypatch):
    # semi-axes 1:20 in R³, with no inradius given: no ball is known to hold K°
    body, _ = _ellipsoid_oracle(3, 20.0, 0, certified=False)
    with pytest.raises(geom.UnboundedBody):
        geom.polar_sampling_radius(body)

    def no_ball(*args):
        raise AssertionError("the ball branch ran")

    monkeypatch.setattr(measure, "ball_points", no_ball)
    est = volume.mc_polar_measure(body, measure.GaussianLike(1.0, 3), 5000, RngStream(3, 0))
    assert 0 < est.value < (2 * math.pi) ** 1.5 and est.stderr > 0
    with pytest.raises(volume.EstimationError, match="infinite mass"):
        volume.mc_polar_measure(body, measure.LebesgueRestricted(math.inf, 3), 5000, RngStream(3, 0))


def test_hausdorff_estimate_balls():
    d = geom.hausdorff_estimate(geom.BallBody(1.0, 2), geom.BallBody(2.5, 2))
    assert d == pytest.approx(1.5)


@given(lam=st.floats(0.1, 10.0), yx=st.floats(-5, 5), yy=st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_support_scaling_law(lam, yx, yy):
    body = geom.BallBody(1.7, 2)
    y = np.array([[yx, yy]])
    h1 = geom.support_values(body, lam * y)[0]
    h2 = lam * geom.support_values(body, y)[0]
    assert h1 == pytest.approx(h2, abs=1e-9)


@given(st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_matrix_image_support_subadditive(seed):
    gen = RngStream(seed, 0).generator()
    A = gen.standard_normal((2, 3))
    body = geom.MatrixImageBody(A, geom.LqBall(1.0, 3), 0.25)
    y1, y2 = gen.standard_normal((1, 2)), gen.standard_normal((1, 2))
    lhs = geom.support_values(body, y1 + y2)[0]
    rhs = geom.support_values(body, y1)[0] + geom.support_values(body, y2)[0]
    assert lhs <= rhs + 1e-9


def test_ball_body_rejects_bad_dim_and_radius():
    with pytest.raises(geom.GeometryError):
        geom.BallBody(1.0, 0)
    with pytest.raises(geom.GeometryError):
        geom.BallBody(math.nan, 2)
    # an infinite radius has the polar {0}: every estimate would read 0
    with pytest.raises(geom.GeometryError, match="finite"):
        geom.BallBody(math.inf, 2)
    with pytest.raises(geom.GeometryError, match="finite"):
        geom.MatrixImageBody(np.eye(2), geom.LqBall(1.0, 2), math.inf)


def _sorted_rows(V):
    V = np.asarray(V)
    return V[np.lexsort(V.T[::-1])]


def _random_hpolytope(n, rows, seed):
    gen = RngStream(seed, n).generator()
    return gen.standard_normal((rows, n)), gen.uniform(0.2, 1.5, rows)


def _cross_polytope_polar(n, N, seed):
    P = RngStream(seed, n).generator().standard_normal((N, n))
    return np.vstack([P, -P]), np.ones(2 * N)


def _shifted_hpolytope(n, rows, seed):
    """A random H-polytope with normals ±g_j, so bounded, moved by a shift s
    that sets b_0 = -1/2: the origin is outside, and qhull starts from the
    Chebyshev centre."""
    gen = RngStream(seed, n).generator()
    G = gen.standard_normal((rows // 2, n))
    A, b = np.vstack([G, -G]), gen.uniform(0.2, 1.5, 2 * len(G))
    s = gen.uniform(-1.0, 1.0, n)
    s -= (b[0] + A[0] @ s + 0.5) * A[0] / (A[0] @ A[0])
    return A, b + A @ s


@pytest.mark.parametrize("n,rows", [(2, 9), (3, 14), (4, 16)])
def test_halfspace_vertices_match_loop_reference(n, rows):
    # with the origin inside, qhull's dual hull reproduces the vertices to 1e-14;
    # from the Chebyshev centre the LP's rounding moves them more (at most 9e-14
    # relative on seeds 0-299 of _shifted_hpolytope, at n = 4)
    cases = [(_random_hpolytope(n, rows, 4), 1e-14), (_cross_polytope_polar(n, rows // 2, 5), 1e-14)]
    cases += [(_shifted_hpolytope(n, rows, seed), 1e-12) for seed in (6, 7, 8)]
    for (A, b), rel in cases:
        want = _sorted_rows(loop_vertices(A, b))
        got = _sorted_rows(geom.HPolytopeBody(A, b).vertices)
        assert got.shape == want.shape and want.shape[0] >= n + 1
        assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_halfspace_vertices_equal_scipy_halfspace_intersection(n):
    # with the origin inside, the dual hull is the one HalfspaceIntersection
    # builds, so its vertices come out in the same order and to the same bits;
    # B_1^n has 2^n facets and 2^(n-1) of them meet at each vertex
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=n)))
    cases = [(signs, np.ones(len(signs)))]
    for seed in range(10):
        cases += [_random_hpolytope(n, 4 * n, seed), _cross_polytope_polar(n, 3 * n, seed)]
    for A, b in cases:
        hs = HalfspaceIntersection(np.column_stack([A, -b]), np.zeros(n))
        if not (hs.dual_equations[:, -1] < 0).all():
            with pytest.raises(geom.UnboundedBody):
                geom.HPolytopeBody(A, b).vertices
            continue
        assert geom.HPolytopeBody(A, b).vertices.tobytes() == hs.intersections.tobytes()


@pytest.mark.parametrize("shape", [(65536, 3), (4000, 4), (720, 512), (1, 4)])
def test_row_max_equals_max_reduction_bit_for_bit(shape):
    M = np.random.default_rng(7).standard_normal(shape)
    assert geom._row_max(M).tobytes() == M.max(axis=1).tobytes()
    # NaN propagates like the reduction, wherever it sits in the row
    M[0, -1] = math.nan
    if shape[0] > 1:
        M[1, 0] = math.nan
    got = geom._row_max(M)
    assert np.isnan(got[: min(2, shape[0])]).all()
    assert got.tobytes() == M.max(axis=1).tobytes()


@pytest.mark.parametrize("n", range(1, 8))
def test_row_norms_equal_numpy_norm_bit_for_bit(n):
    g = np.random.default_rng(40 + n)
    Y = g.standard_normal((20000, n)) * np.exp(g.uniform(-5, 5, (20000, 1)))
    Y[:3000] *= 1e150
    Y[3000:6000] *= 1e-150
    Y[6000:6100] = 0.0
    Y[6100:6200] = g.standard_normal((100, n)) * 1e-310  # subnormal entries
    Y[6200:6300, 0] = 5e-324  # the smallest subnormal, alone in its row
    before = Y.copy()
    assert geom.row_norms(Y).tobytes() == np.linalg.norm(Y, axis=1).tobytes()
    assert Y.tobytes() == before.tobytes()


SQUARE_NORMALS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def test_hpolytope_vertices_enumerated_once(monkeypatch):
    calls = []
    enumerate_vertices = geom.hpolytope_vertices

    def counted(body):
        calls.append(body)
        return enumerate_vertices(body)

    monkeypatch.setattr(geom, "hpolytope_vertices", counted)
    body = geom.HPolytopeBody(SQUARE_NORMALS, np.ones(4))
    assert calls == []  # nothing is enumerated at construction
    Y = np.random.default_rng(3).standard_normal((100, 2))
    first = geom.support_values(body, Y)
    for _ in range(2):
        assert geom.support_values(body, Y).tobytes() == first.tobytes()
    assert len(calls) == 1
    assert first.tobytes() == (Y @ enumerate_vertices(body).T).max(axis=1).tobytes()


CUBE3_NORMALS = np.vstack([np.eye(3), -np.eye(3)])


@pytest.mark.parametrize("normals,offsets,message", [
    (SQUARE_NORMALS, np.array([-1.0, -1.0, 1.0, 1.0]), "empty or degenerate"),  # x <= -1 and x >= 1
    (CUBE3_NORMALS, np.array([1.0, 1.0, 1.0, -2.0, 1.0, 1.0]), "empty or degenerate"),  # x <= 1 and x >= 2
    (CUBE3_NORMALS[[2, 5, 0, 1]], np.ones(4), "unbounded"),  # |z| <= 1, x <= 1, y <= 1: a half-slab
    (CUBE3_NORMALS[[0, 1, 3, 4]], np.ones(4), "unbounded"),  # z free: the normals do not span
])
def test_unusable_hpolytope_constructs_and_raises_on_first_support(normals, offsets, message):
    body = geom.HPolytopeBody(normals, offsets)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):  # a failed enumeration is not cached
            with pytest.raises(geom.GeometryError, match=message):
                geom.support_values(body, np.ones((1, body.dim)))


def test_hpolytope_support_4d_cube():
    body = geom.HPolytopeBody(np.vstack([np.eye(4), -np.eye(4)]), np.array([1.0, 2.0, 3.0, 4.0] * 2))
    Y = np.random.default_rng(9).standard_normal((50, 4))
    assert geom.support_values(body, Y) == pytest.approx(np.abs(Y) @ [1.0, 2.0, 3.0, 4.0], rel=1e-14)
