"""The Monte Carlo chunk kernels keep the bits of the reference expressions in chunk_reference.

Each case runs `mc_polar_measure` over a partial last chunk at one and
two threads and compares it with the reference estimate, and compares
the draws and the support values of one chunk byte for byte, since a
constant weight hides most changes in the points from the estimate.  A
polytope polar's parallelepiped P carries the slabs of K° that P does not
satisfy: the reference indicator of those slabs on the uniforms is
compared with `polar_contains` on the mapped points.  The sections
kernel takes a polytope polar in P under a constant weight or a
Gaussian.  Under a constant weight, with slabs left, a point weighs the
exact length of its section along one coordinate of P: those lengths are
compared with a fine grid of the slab indicator, and the estimates with
the exact polytope volumes over a battery of bodies; where no weight
varies, no uniform is drawn.  Under a Gaussian, a polytope polar weighs
Genz's product of normal interval masses: its estimates are calibrated
against exact planar measures, erf products and the slab indicator in P.
Where P is K° and its rows are orthogonal, the product is computed once
and no uniform is drawn either: Genz's weights on real draws lie within
the floor of that constant, and a frame tilted by 1e-9 still draws.
"""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chunk_reference as ref
from scipy.spatial import ConvexHull
from scipy.special import gammaincinv

from polarvol import cli, experiments, geom, measure, volume
from polarvol.rng import RngStream

GEN = np.random.default_rng(20)
U3 = np.linalg.qr(GEN.standard_normal((3, 3)))[0][:, 0]
RANK1_3D = geom.MatrixImageBody(np.outer(U3, [0.5, -1.0, 2.0]), geom.LqBall(1.0, 3), 0.0)
RANK1_2D = geom.MatrixImageBody(np.array([[1.0], [0.5]]), geom.LqBall(1.0, 1), 0.0)
HPOLY = geom.HPolytopeBody(GEN.standard_normal((12, 3)), np.ones(12))
# K° = [-1, 1]^3 cut by ±x, ±z and ±w: in P's coordinates the second column has the largest
# sum of |W_kj| (5.6 against 5.2 and 5.2), and the rows ±w have 0 there
FLAT_ROW = geom.MatrixImageBody(np.column_stack([np.eye(3), [0.7, 0.7, 0.0], [0.0, 0.7, 0.7], [0.6, 0.0, 0.6]]),
                                geom.LqBall(1.0, 6), 0.0)
SIX_COLUMNS = geom.MatrixImageBody(GEN.standard_normal((3, 6)), geom.LqBall(1.0, 6), 0.0)
CASES = {
    "q1_six_columns": (SIX_COLUMNS, measure.LebesgueRestricted(math.inf, 3)),
    "q1_flat_row": (FLAT_ROW, measure.LebesgueRestricted(math.inf, 3)),
    "q2_ball_summand": (geom.MatrixImageBody(GEN.standard_normal((3, 5)), geom.LqBall(2.0, 5), 0.3),
                        measure.GaussianLike(1.0, 3)),
    "ball": (geom.BallBody(0.8, 3), measure.LebesgueRestricted(1.5, 3)),
    "hpolytope": (HPOLY, measure.GaussianLike(0.7, 3)),
    "centroid_cube": (experiments.centroid_body_oracle(measure.UniformBodyDensity("cube", 2), 2.0),
                      measure.LebesgueRestricted(math.inf, 2)),
    "centroid_cube_p3": (experiments.centroid_body_oracle(measure.UniformBodyDensity("cube", 2), 3.0),
                         measure.LebesgueRestricted(math.inf, 2)),
    "rank1_gaussian": (RANK1_3D, measure.GaussianLike(1.0, 3)),
    "rank1_power_kernel": (RANK1_2D, measure.PowerKernel(np.array([[0.0, 1.0], [1.0, 2.0]]), 2)),
    # polytope polars under a Gaussian weigh Genz's product of interval masses
    "q1_six_columns_gaussian": (SIX_COLUMNS, measure.GaussianLike(0.8, 3)),
    "q1_flat_row_gaussian": (FLAT_ROW, measure.GaussianLike(1.3, 3)),
    "line_gaussian": (geom.MatrixImageBody(np.array([[0.5, -1.0, 2.0]]), geom.LqBall(1.0, 3), 0.0),
                      measure.GaussianLike(0.8, 1)),
    # polytope polars in P under a weight of |y|: P's uniforms mapped in place, then `polar_contains`
    "q1_six_columns_half_rstar": (SIX_COLUMNS,
                                  measure.LebesgueRestricted(0.5 * geom.polar_sampling_radius(SIX_COLUMNS), 3)),
    "q1_six_columns_power_kernel": (SIX_COLUMNS, measure.PowerKernel(np.array([[0.0, 1.0], [1.0, 2.0]]), 3)),
}


@pytest.mark.parametrize("name", CASES)
def test_estimate_matches_the_reference_kernels(name):
    body, m = CASES[name]
    budget = 2 * volume.CHUNK + 777
    want = ref.mc_polar_measure(body, m, budget, RngStream(31, 2))
    for threads in (1, 2):
        assert volume.mc_polar_measure(body, m, budget, RngStream(31, 2), threads) == want


def _polar_radius(body):
    try:
        return geom.polar_sampling_radius(body)
    except geom.UnboundedBody:
        return math.inf


@pytest.mark.parametrize("name", CASES)
def test_draws_and_supports_match_the_reference_kernels(name):
    body, m = CASES[name]
    size = volume.CHUNK - 3
    radius = _polar_radius(body)
    if radius < math.inf:
        draws = (lambda gen: measure.ball_points([gen], size, body.dim, radius)[0],
                 lambda gen: ref.ball_points(gen, size, body.dim, radius))
    else:
        lib, old = measure.radial_sampler(m), ref.radial_sampler(m)
        draws = (lambda gen: lib(gen, size), lambda gen: old(gen, size))
    Y, Y_ref = (draw(RngStream(32, 1).chunk_generator(4)) for draw in draws)
    assert Y.tobytes() == Y_ref.tobytes()
    assert geom.support_values(body, Y).tobytes() == ref.support_values(body, Y).tobytes()


@pytest.mark.parametrize("name", ["q1_six_columns", "q2_ball_summand", "hpolytope"])
def test_parallelepiped_draws_match_the_reference_kernel(name):
    # the P chunk's own expression in `mc_polar_measure`: n uniforms a point, mapped in place
    box, size = geom.polar_parallelepiped(CASES[name][0]), volume.CHUNK - 3
    Y = measure.parallelepiped_map(RngStream(33, 1).chunk_generator(2).random((size, 3)), box.origin, box.edges)
    Y_ref = ref.parallelepiped_points(RngStream(33, 1).chunk_generator(2), size, box.origin, box.edges)
    assert Y.tobytes() == Y_ref.tobytes()


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_gauge_support_matches_the_reference_and_leaves_its_argument(q):
    U = np.random.default_rng(34).standard_normal((3001, 9))
    before = U.copy()
    got = geom.gauge_support(geom.LqBall(q, 9), U)
    assert got.tobytes() == ref.gauge_support(geom.LqBall(q, 9), before).tobytes()
    assert U.tobytes() == before.tobytes()


def test_row_max_equals_the_max_reduction_at_every_width():
    # `_row_max` walks columns up to ROW_MAX_COLUMNS and hands wider matrices to numpy;
    # both sides of the switch must give the reduction's bytes, NaN rows included
    g = np.random.default_rng(35)
    for width in range(1, 601):
        M = g.standard_normal((9, width))
        M[1, -1] = M[2, 0] = M[3, width // 2] = math.nan
        M[4] = math.nan
        assert geom._row_max(M).tobytes() == M.max(axis=1).tobytes(), width


def test_ball_points_chunk_peaks_below_2_75_mb():
    # `row_norms` squares each column into a fixed scratch block: one n = 3 chunk holds
    # its directions, its radii and the sums of squares, 2.69 MB (3.15 MB with a full
    # 2^16-row scratch buffer)
    gen = RngStream(36, 0).chunk_generator(0)
    tracemalloc.start()
    try:
        measure.ball_points([gen], volume.CHUNK, 3, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75e6


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _deep_estimate_bodies(seed):
    """The rotated six-column image and octahedron of perfbench's deep_estimate workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = {op["id"]: op["config"].get("body") for op in workloads.deep_estimate(seed, 0)}
    return cli.parse_body(ops["polar_volume_crosspoly"]), cli.parse_body(ops["newsan_hpolytope"])


CROSS, OCTAHEDRON = _deep_estimate_bodies(1)
# a slab the pivot does not pick, <x, y> <= 1 for x = (1/2, 1/2 + 1e-3, 0), trims two
# prisms off the corner edges (1, 1, z) and (-1, -1, z) of P = [-1, 1]^3, 1e-6 of |P|
SLIVER = geom.MatrixImageBody(np.column_stack([np.eye(3), [0.5, 0.5 + 1e-3, 0.0]]), geom.LqBall(1.0, 4), 0.0)
P_REGION = {
    "q1_six_columns": CASES["q1_six_columns"][0],
    "hpolytope": HPOLY,
    "deep_estimate_crosspoly": CROSS,
    "deep_estimate_octahedron": OCTAHEDRON,
    "q1_n4": geom.MatrixImageBody(GEN.standard_normal((4, 9)), geom.LqBall(1.0, 9), 0.0),
    "sliver": SLIVER,
    "flat_row": FLAT_ROW,
}


@pytest.mark.parametrize("name", P_REGION)
def test_residual_slabs_give_the_polar_indicator(name):
    # P carries the slabs of K°'s rows (an H-polytope's vertices, ±x_i of a q = 1, r = 0
    # image), and the worker's indicator on the uniforms, before the map, equals
    # `polar_contains` on the mapped points byte for byte, over several chunks
    body = P_REGION[name]
    box = geom.polar_parallelepiped(body)
    assert box.volume < geom.unit_ball_volume(body.dim) * geom.polar_sampling_radius(body) ** body.dim
    rows = body.vertices if isinstance(body, geom.HPolytopeBody) else np.concatenate([body.matrix.T, -body.matrix.T])
    for got, want in zip(box.slabs, geom.residual_slabs(box, rows)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for k in range(4):
        U = RngStream(37, 1).chunk_generator(k).random((volume.CHUNK, body.dim))
        inside = ref.slabs_contain(box.slabs, U)
        Y = measure.parallelepiped_map(U, box.origin, box.edges)
        assert inside.tobytes() == geom.polar_contains(body, Y).tobytes(), k


def test_octahedron_polar_is_its_parallelepiped():
    # the octahedron's polar is the cube P itself: no slab is left to test
    W, bound = geom.polar_parallelepiped(OCTAHEDRON).slabs
    assert W.shape == (0, 3) and bound.shape == (0,)


def test_a_slab_that_trims_a_sliver_is_kept():
    box = geom.polar_parallelepiped(SLIVER)
    sliver = 1.0 - volume.exact_polar_volume_crosspoly(SLIVER.matrix.T) / box.volume
    assert sliver == pytest.approx(1e-6, rel=0.01)
    W, bound = box.slabs
    # ±x, and none of the six rows P is cut from
    x = SLIVER.matrix[:, 3]
    np.testing.assert_allclose(W @ np.linalg.inv(box.edges), [x, -x], rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("body,m", [(CROSS, measure.LebesgueRestricted(math.inf, 3)),
                                    (OCTAHEDRON, measure.GaussianLike(1.0, 3))])
def test_polytope_polars_in_p_never_call_polar_contains(monkeypatch, body, m):
    def refuse(*args):
        raise AssertionError("polar_contains called")

    monkeypatch.setattr(volume, "polar_contains", refuse)
    assert volume.mc_polar_measure(body, m, volume.CHUNK + 5, RngStream(38, 0), 2).samples == volume.CHUNK + 5


def test_a_row_with_0_in_the_pivot_column_tests_the_other_coordinates():
    W, bound = geom.polar_parallelepiped(FLAT_ROW).slabs
    assert len(W) == 6 and int(np.abs(W).sum(axis=0).argmax()) == 1
    C, b, upper, lower = geom.pivot_slabs((W, bound))
    # ±x and ±z bound u_1 above once each and below once each; ±w, undivided, come last
    assert (upper, lower, len(C)) == (2, 4, 6)
    zero = W[:, 1] == 0
    np.testing.assert_array_equal(C[4:], np.delete(W[zero], 1, axis=1))
    np.testing.assert_array_equal(b[4:], bound[zero])


class FixedDraws:
    """A chunk generator whose one draw is the given array, for a kernel's fixed points."""

    def __init__(self, X):
        self.X = X

    def random(self, shape):
        assert shape == self.X.shape
        return np.array(self.X)


class NoDraws:
    """An `RngStream` whose chunk generators refuse every draw."""

    seed = 40

    def chunk_generator(self, k):
        return self

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator: {name}")


# no slab is left on the octahedron's P, and the sliver's sections are shorter than 1 only
# for about 1e-3 of the points
@pytest.mark.parametrize("name", [name for name in P_REGION if name not in ("deep_estimate_octahedron", "sliver")])
def test_sections_are_the_length_of_the_slab_indicator(name):
    # along the pivot coordinate the points of [0, 1) inside every slab form one interval:
    # the midpoints of 4096 cells count it to within a cell at each end
    body = P_REGION[name]
    box = geom.polar_parallelepiped(body)
    slabs = box.slabs
    j = int(np.abs(slabs[0]).sum(axis=0).argmax())
    rest = RngStream(39, 0).generator().random((64, body.dim - 1))
    kernel = volume._sections(box, measure.LebesgueRestricted(math.inf, body.dim))
    length = kernel(FixedDraws(rest.T), len(rest)) / box.volume
    grid = (np.arange(4096) + 0.5) / 4096
    for u, want in zip(rest, length):
        U = np.insert(np.repeat(u[None], len(grid), axis=0), j, grid, axis=1)
        assert abs(ref.slabs_contain(slabs, U).mean() - want) <= 2 / 4096
    assert ((0 < length) & (length < 1)).any()


@pytest.mark.parametrize("body", [CASES["q2_ball_summand"][0],
                                  geom.MatrixImageBody(CASES["q1_six_columns"][0].matrix, geom.LqBall(1.0, 6), 0.25),
                                  geom.MatrixImageBody(CASES["q1_six_columns"][0].matrix, geom.LqBall(2.0, 6), 0.0)],
                         ids=["q2_ball_summand", "q1_ball_summand", "q2"])
def test_a_polar_that_is_no_polytope_has_no_slabs(body):
    box = geom.polar_parallelepiped(body)
    assert box is not None and box.slabs is None


# a rectangle's polar is the rhombus cut by its two vertex slabs
RECTANGLE = geom.HPolytopeBody(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                               np.array([1.0, 1.0, 2.0, 2.0]))
# (value, stderr) of each body at every measure and thread count below: |P| itself, since a chunk
# of equal values reads its value (the mean of 65536 copies of the octahedron's |P| rounds 2 ulps
# below it), and the 64-ulp floor of it
CERTIFIED = {"octahedron": (OCTAHEDRON, "0x1.8a2345cc04427p+0", "0x1.8a2345cc04427p-46"),
             "rectangle": (RECTANGLE, "0x1.0000000000000p+0", "0x1.0000000000000p-46")}


def test_a_certified_parallelepiped_keeps_its_constant_chunks():
    # the polar is its P, so every section has length 1: every point weighs |P|, under
    # Lebesgue R = inf and R = 2R* alike
    budget = 2 * volume.CHUNK + 777
    for body, value, stderr in CERTIFIED.values():
        box = geom.polar_parallelepiped(body)
        assert box.slabs[0].shape == (0, body.dim)
        want = volume._run_chunks(budget, lambda k, size: volume._chunk_stats(np.full(size, box.volume)))
        assert want == (float.fromhex(value), float.fromhex(stderr), budget)
        assert want[1] == volume.ROUNDING_FLOOR * want[0] and want[0] == box.volume
        for R in (math.inf, 2 * geom.polar_sampling_radius(body)):
            m = measure.LebesgueRestricted(R, body.dim)
            for threads in (1, 2):
                got = volume.mc_polar_measure(body, m, budget, RngStream(40, 0), threads)
                assert got == volume.Estimate(*want, 40), (body, R, threads)


def test_constant_sections_draw_no_uniforms():
    # where no weight varies, a certified P under the uniform law, an interval in R¹ and a
    # certified P with orthogonal rows under a Gaussian, the weight is computed once: a generator
    # that refuses every draw reads the octahedron's pinned hex, and the other bodies' bits from
    # a real stream, the product polars within their floor of the erf product
    budget = 2 * volume.CHUNK + 777
    body, value, stderr = CERTIFIED["octahedron"]
    want = volume.Estimate(float.fromhex(value), float.fromhex(stderr), budget, NoDraws.seed)
    for R in (math.inf, 2 * geom.polar_sampling_radius(body)):
        for threads in (1, 2):
            assert volume.mc_polar_measure(body, measure.LebesgueRestricted(R, 3), budget, NoDraws(), threads) == want
    line = CASES["line_gaussian"][0]
    for m in (measure.GaussianLike(0.8, 1), measure.LebesgueRestricted(math.inf, 1),
              measure.LebesgueRestricted(2 * geom.polar_sampling_radius(line), 1)):
        for threads in (1, 2):
            got = volume.mc_polar_measure(line, m, budget, NoDraws(), threads)
            assert got == volume.mc_polar_measure(line, m, budget, RngStream(NoDraws.seed, 0), threads), (m, threads)
    for name, (body, m) in CONSTANT_BODIES.items():
        for threads in (1, 2):
            got = volume.mc_polar_measure(body, m, budget, NoDraws(), threads)
            assert got == volume.mc_polar_measure(body, m, budget, RngStream(NoDraws.seed, 0), threads), (name, threads)
            assert abs(got.value - _product_measure(body, m)) <= got.stderr, (name, threads)


def _battery():
    """(body, |K°|) of the calibration battery, at pinned seeds: 12 D_n images at each
    (n, N), 12 H-polytopes with 0 inside (a simplex's n + 1 normals positively span,
    so each is bounded), the sliver and the body whose rows miss the pivot column."""
    out = []
    for row, (n, N) in enumerate([(3, 6), (3, 12), (4, 8), (5, 10)]):
        for k in range(12):
            pts = measure.sample_density(measure.UniformBodyDensity("Dn", n), RngStream(41, 100 * row + k), N)
            body = geom.MatrixImageBody(pts.T, geom.LqBall(1.0, N), 0.0)
            out.append((body, volume.exact_polar_volume_crosspoly(pts)))
    for k in range(12):
        n = 3 + k % 2
        gen = RngStream(41, 500 + k).generator()
        simplex = np.vstack([np.eye(n), -np.ones(n) / math.sqrt(n)]) @ np.linalg.qr(gen.standard_normal((n, n)))[0]
        normals = np.vstack([simplex, gen.standard_normal((2 * n, n))])
        body = geom.HPolytopeBody(normals, gen.uniform(0.5, 1.5, len(normals)))
        out.append((body, volume.halfspace_volume(body.vertices, np.ones(len(body.vertices)))))
    return out + [(body, volume.exact_polar_volume_crosspoly(body.matrix.T)) for body in (SLIVER, FLAT_ROW)]


def test_section_estimates_are_calibrated_against_exact_volumes():
    # z = (estimate - |K°|)/stderr over K bodies, every one sampled in P with slabs left and a
    # constant weight: Lebesgue R = inf on even bodies, R = 2R* on odd ones.  The mean z lies
    # within 4/sqrt(K), the sample variance of z in the central 0.999 of chi²_(K-1)/(K-1),
    # and no |z| exceeds 6
    zs = []
    for i, (body, exact) in enumerate(_battery()):
        box, rstar = geom.polar_parallelepiped(body), geom.polar_sampling_radius(body)
        assert box.volume < geom.unit_ball_volume(body.dim) * rstar ** body.dim
        assert len(box.slabs[0]) > 0
        m = measure.LebesgueRestricted(math.inf if i % 2 == 0 else 2 * rstar, body.dim)
        est = volume.mc_polar_measure(body, m, 1 << 15, RngStream(42, i))
        zs.append((est.value - exact) / est.stderr)
    z, K = np.array(zs), len(zs)
    low, high = (2 * gammaincinv((K - 1) / 2, p) / (K - 1) for p in (0.0005, 0.9995))
    assert abs(z.mean()) <= 4 / math.sqrt(K), z.mean()
    assert low <= z.var(ddof=1) <= high, (z.var(ddof=1), low, high)
    assert np.abs(z).max() <= 6, np.abs(z).max()



def _gaussian_battery():
    """(body, measure, ν(K°)) of the Gaussian calibration battery, at pinned seeds: four
    planar D_2 sets at each N = 3..8 and twelve H-polygons with 0 inside (three normals
    at 120° positively span, so each is bounded), whose polygon polars `_polygon_measures`
    measures exactly.  σ runs over 0.5, 1 and 2, so intervals narrow and wide against σ
    are drawn."""
    out = []
    sigmas = (0.5, 1.0, 2.0)
    for N in range(3, 9):
        for k in range(4):
            pts = measure.sample_density(measure.UniformBodyDensity("Dn", 2), RngStream(43, 10 * N + k), N)
            m = measure.GaussianLike(sigmas[(N + k) % 3], 2)
            _, V, counts = volume._planar_polar_vertices(pts[None])
            out.append((geom.MatrixImageBody(pts.T, geom.LqBall(1.0, N), 0.0), m,
                        volume._polygon_measures(m, V, counts)[0]))
    for k in range(12):
        gen = RngStream(43, 500 + k).generator()
        angles = np.concatenate([gen.uniform(0, 2 * math.pi) + np.array([0, 2, 4]) * math.pi / 3,
                                 gen.uniform(0, 2 * math.pi, 2 + k % 4)])
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        body = geom.HPolytopeBody(normals, gen.uniform(0.5, 1.5, len(normals)))
        dual = normals / body.offsets[:, None]  # K° = conv{a_i/b_i}: its hull, counterclockwise
        V = dual[ConvexHull(dual).vertices]
        m = measure.GaussianLike(sigmas[k % 3], 2)
        out.append((body, m, volume._polygon_measures(m, V, np.array([len(V)]))[0]))
    return out


def _misses_a_tail(m, exact):
    """Whether K° holds all of ν(R^n) but a part below 1e-9 of it."""
    return exact > (1 - 1e-9) * measure.total_mass(m)


def test_gaussian_sections_are_calibrated_against_exact_measures():
    # z = (estimate - ν(K°))/stderr over the K bodies of the battery, polytope polars whose
    # P has rows that are not orthogonal (four are P itself), so their chunks vary: the mean
    # z lies within 4/sqrt(K), the sample variance of z in the central 0.999 of
    # chi²_(K-1)/(K-1), and no |z| exceeds 6.  The one body whose K° misses less than 1e-9
    # of ν(R²) is left to the test below
    zs = []
    for i, (body, m, exact) in enumerate(_gaussian_battery()):
        if not _misses_a_tail(m, exact):
            est = volume.mc_polar_measure(body, m, 1 << 15, RngStream(44, i))
            zs.append((est.value - exact) / est.stderr)
    z, K = np.array(zs), len(zs)
    low, high = (2 * gammaincinv((K - 1) / 2, p) / (K - 1) for p in (0.0005, 0.9995))
    assert K == 35
    assert abs(z.mean()) <= 4 / math.sqrt(K), z.mean()
    assert low <= z.var(ddof=1) <= high, (z.var(ddof=1), low, high)
    assert np.abs(z).max() <= 6, np.abs(z).max()


@pytest.mark.xfail(strict=True, reason="the sample stderr misses draws rarer than 1 in the budget")
def test_gaussian_sections_stderr_holds_where_the_polar_misses_only_a_tail():
    # K° misses 1.6e-11 of ν(R²) (σ = 0.5): the weights vary by the last interval's tails, and
    # their variance comes from first coordinates near 4 in units of σ, about 1 draw in 30 000.
    # At 2^15 draws the sample stderr read 8.6e-14 where quadrature over the first coordinate
    # gives 1.2e-12, and the estimate, off by 4.5e-13, read z = 5.2
    body, m, exact = next((b, m, e) for b, m, e in _gaussian_battery() if _misses_a_tail(m, e))
    est = volume.mc_polar_measure(body, m, 1 << 15, RngStream(44, 3))
    assert abs(est.value - exact) <= 4 * est.stderr


def _rotation(n, seed):
    return np.linalg.qr(RngStream(45, seed).generator().standard_normal((n, n)))[0]


# K = conv{±x_i} for n orthogonal x_i: K° is the box |<x_i, y>| <= 1, of Gaussian measure
# Π_i σ√(2π)·erf(1/(|x_i|σ√2)); and three columns on a line in R¹, K° = [-w, w], w = 1/max |x_i|
PRODUCT_BODIES = {
    f"box_n{n}_{k}": (geom.MatrixImageBody(_rotation(n, 10 * n + k) * scales, geom.LqBall(1.0, n), 0.0),
                      measure.GaussianLike(sigma, n))
    for n, k, scales, sigma in [(3, 0, [0.3, 1.0, 2.5], 1.0), (3, 1, [0.1, 0.2, 4.0], 0.7),
                                (4, 0, [0.5, 0.5, 1.5, 3.0], 1.3), (4, 1, [0.05, 1.0, 1.0, 9.0], 0.4)]
} | {
    f"line_{k}": (geom.MatrixImageBody(np.array([cols]), geom.LqBall(1.0, 3), 0.0), measure.GaussianLike(sigma, 1))
    for k, (cols, sigma) in enumerate([([0.5, -1.0, 2.0], 0.8), ([1e-3, 0.02, -0.01], 3.0), ([9.0, 1.0, 0.0], 0.2)])
}


# a box whose third column is tilted by 1e-9 of its length toward the first: its frame couples
# the intervals by 1e-9, which under σ = 1 moves the weight by more than the floor
TILTED = geom.MatrixImageBody(PRODUCT_BODIES["box_n3_0"][0].matrix @ np.array([[1.0, 0.0, 1e-9 * 2.5 / 0.3],
                                                                                [0.0, 1.0, 0.0],
                                                                                [0.0, 0.0, 1.0]]),
                              geom.LqBall(1.0, 3), 0.0)
# the bodies whose Gaussian sections take the constant: the product polars; the octahedron
# |z|_1 <= √3 of deep_estimate, whose polar is its P, the cube of half-side 1/√3; and the
# tilted box under σ = 0.03, whose interval ends lie 13σ and more from 0, where φ is below
# 1e-37: a bound by φ(0) would make it draw
CONSTANT_BODIES = PRODUCT_BODIES | {"deep_estimate_octahedron": (OCTAHEDRON, measure.GaussianLike(1.0, 3)),
                                    "tilted_wide": (TILTED, measure.GaussianLike(0.03, 3))}


def _product_measure(body, m):
    """Π_i σ√(2π)·erf(w_i/(σ√2)) over the half-widths w_i of a box polar."""
    if isinstance(body, geom.HPolytopeBody):  # the octahedron's cube
        w = [1 / math.sqrt(3)] * 3
    else:
        w = 1 / np.linalg.norm(body.matrix, axis=0) if body.dim > 1 else [1 / np.abs(body.matrix).max()]
    return math.prod(m.sigma * math.sqrt(2 * math.pi) * math.erf(x / (m.sigma * math.sqrt(2))) for x in w)


@pytest.mark.parametrize("name", PRODUCT_BODIES)
def test_gaussian_sections_of_a_product_polar_are_exact(name):
    # every interval is fixed, whatever the draws: the estimate is the product of the
    # interval masses to within its 64-ulp floor, at 1 and 2 threads over a partial last chunk
    body, m = PRODUCT_BODIES[name]
    exact = _product_measure(body, m)
    for threads in (1, 2):
        est = volume.mc_polar_measure(body, m, volume.CHUNK + 999, RngStream(46, 0), threads)
        assert est.stderr == volume.ROUNDING_FLOOR * est.value
        assert abs(est.value - exact) <= est.stderr, (est.value, exact)


@pytest.mark.parametrize("name", CONSTANT_BODIES)
def test_constant_gaussian_weight_bounds_the_sampled_weights(name):
    # the certificate is a bound: Genz's weights, written out on a chunk of real draws, all
    # lie within the floor of the constant that the kernel computes once
    body, m = CONSTANT_BODIES[name]
    weight = volume.mc_polar_measure(body, m, 2, NoDraws()).value
    X = RngStream(50, 0).chunk_generator(0).random((body.dim - 1, volume.CHUNK))
    sampled = ref.gaussian_weights(geom.polar_parallelepiped(body), m.sigma, X)
    assert np.abs(sampled - weight).max() <= volume.ROUNDING_FLOOR * weight


def _slab_test(body, m, budget, rng):
    """The slab test under a Gaussian, written out: n uniforms a point in P, weighing
    |P|·exp(-|y|²/2σ²) where they satisfy P's slabs."""
    box = geom.polar_parallelepiped(body)

    def worker(k, size):
        U = rng.chunk_generator(k).random((size, body.dim))
        inside = ref.slabs_contain(box.slabs, U)
        Y = measure.parallelepiped_map(U, box.origin, box.edges)
        return volume._chunk_stats(box.volume * np.exp(-(Y * Y).sum(axis=1) / (2 * m.sigma ** 2)) * inside)

    return volume.Estimate(*volume._run_chunks(budget, worker), rng.seed)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gaussian_sections_agree_with_the_slab_test(n):
    # D_n images, N = 2n, radii scaled by 3 so that P is small against σ = 1: the two
    # unbiased estimators of ν(K°) agree within 4 combined stderr at 2^20 samples each
    for k in range(2):
        pts = 3 * measure.sample_density(measure.UniformBodyDensity("Dn", n), RngStream(47, 10 * n + k), 2 * n)
        body, m = geom.MatrixImageBody(pts.T, geom.LqBall(1.0, 2 * n), 0.0), measure.GaussianLike(1.0, n)
        genz = volume.mc_polar_measure(body, m, 1 << 20, RngStream(48, k), 2)
        slab = _slab_test(body, m, 1 << 20, RngStream(49, k))
        assert abs(genz.value - slab.value) <= 4 * math.hypot(genz.stderr, slab.stderr), (genz, slab)
        assert genz.stderr < slab.stderr


def test_a_frame_coupled_beyond_the_floor_still_draws():
    # the tilt leaves no slab on P, but its coupling moves the weight by more than the floor:
    # the kernel draws, and its estimate agrees with the slab test within 4 combined stderr
    m = PRODUCT_BODIES["box_n3_0"][1]
    assert geom.polar_parallelepiped(TILTED).slabs[0].shape == (0, 3)
    with pytest.raises(AssertionError, match="drew from the generator"):
        volume.mc_polar_measure(TILTED, m, volume.CHUNK + 5, NoDraws())
    genz = volume.mc_polar_measure(TILTED, m, 1 << 18, RngStream(51, 0), 2)
    slab = _slab_test(TILTED, m, 1 << 18, RngStream(52, 0))
    assert abs(genz.value - slab.value) <= 4 * math.hypot(genz.stderr, slab.stderr), (genz, slab)
