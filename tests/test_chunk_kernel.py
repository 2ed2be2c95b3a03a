"""The Monte Carlo chunk kernels keep the bits of the reference expressions in chunk_reference.

Each case runs `mc_polar_measure` over a partial last chunk at one and
two threads and compares it with the reference estimate, and compares
the draws and the support values of one chunk byte for byte, since a
constant weight hides most changes in the points from the estimate.
"""

import math

import numpy as np
import pytest

import chunk_reference as ref
from polarvol import experiments, geom, measure, volume
from polarvol.rng import RngStream

GEN = np.random.default_rng(20)
U3 = np.linalg.qr(GEN.standard_normal((3, 3)))[0][:, 0]
RANK1_3D = geom.MatrixImageBody(np.outer(U3, [0.5, -1.0, 2.0]), geom.LqBall(1.0, 3), 0.0)
RANK1_2D = geom.MatrixImageBody(np.array([[1.0], [0.5]]), geom.LqBall(1.0, 1), 0.0)
HPOLY = geom.HPolytopeBody(GEN.standard_normal((12, 3)), np.ones(12))
CASES = {
    "q1_six_columns": (geom.MatrixImageBody(GEN.standard_normal((3, 6)), geom.LqBall(1.0, 6), 0.0),
                       measure.LebesgueRestricted(math.inf, 3)),
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
    box = geom.polar_parallelepiped(CASES[name][0])
    Y, Y_ref = (draw(RngStream(33, 1).chunk_generator(2), volume.CHUNK - 3, box.origin, box.edges)
                for draw in (measure.parallelepiped_points, ref.parallelepiped_points))
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
