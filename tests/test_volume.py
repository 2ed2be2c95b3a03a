import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarvol import geom, measure, volume
from polarvol.rng import RngStream

LEB2 = measure.LebesgueRestricted(math.inf, 2)


def test_estimate_serialization_roundtrip():
    est = volume.Estimate(1.5, 0.01, 1000, 7)
    d = est.to_dict()
    assert d["value"] == 1.5 and d["samples"] == 1000
    assert volume.Estimate(1.5, 0.01, 1000, 7).to_json() == est.to_json()


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


def test_layer_cake_agrees_with_direct_mc():
    g = measure.GaussianLike(1.0, 2)
    body = geom.BallBody(1.0, 2)
    grid = volume.default_level_grid(g)
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


def test_halfspace_volume_3d():
    normals = np.vstack([np.eye(3), -np.eye(3)])
    assert volume.halfspace_volume(normals, np.ones(6)) == pytest.approx(8.0, abs=1e-9)
    tet_normals = np.vstack([-np.eye(3), np.ones((1, 3))])
    tet_offsets = np.array([0.0, 0.0, 0.0, 1.0])
    assert volume.halfspace_volume(tet_normals, tet_offsets) == pytest.approx(1 / 6, abs=1e-9)


def test_exact_polar_volume_known_cases():
    assert volume.exact_polar_volume_crosspoly(np.eye(2)) == pytest.approx(4.0, abs=1e-9)
    assert volume.exact_polar_volume_crosspoly(np.eye(3)) == pytest.approx(8.0, abs=1e-9)
    # conv(+-(1,0), +-(0,2)) has polar [-1,1] x [-1/2,1/2], area 2
    pts = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert volume.exact_polar_volume_crosspoly(pts) == pytest.approx(2.0, abs=1e-9)


def test_exact_polar_volume_degenerate_raises():
    with pytest.raises(geom.UnboundedBody):
        volume.exact_polar_volume_crosspoly(np.array([[1.0, 0.0], [2.0, 0.0]]))


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
