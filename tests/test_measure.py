import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarvol import measure
from polarvol.rng import RngStream


def test_dn_radius_gives_unit_volume():
    for n in (1, 2, 3, 5):
        r = measure.dn_radius(n)
        from polarvol.geom import unit_ball_volume

        assert unit_ball_volume(n) * r ** n == pytest.approx(1.0)


def test_gaussian_mass_in_ball_closed_form():
    # int_0^1 e^{-t^2/2} 2 pi t dt = 2 pi (1 - e^{-1/2})
    g = measure.GaussianLike(1.0, 2)
    assert measure.radial_mass_in_ball(g, 1.0) == pytest.approx(2 * math.pi * (1 - math.exp(-0.5)))
    assert measure.total_mass(g) == pytest.approx(2 * math.pi)


def test_lebesgue_restricted_masses():
    m = measure.LebesgueRestricted(2.0, 2)
    assert measure.radial_mass_in_ball(m, 1.0) == pytest.approx(math.pi)
    assert measure.radial_mass_in_ball(m, 5.0) == pytest.approx(4 * math.pi)
    assert measure.total_mass(m) == pytest.approx(4 * math.pi)


def test_lebesgue_unrestricted_has_infinite_mass():
    m = measure.LebesgueRestricted(math.inf, 2)
    assert measure.total_mass(m) == math.inf


def test_level_radius_gaussian():
    g = measure.GaussianLike(1.0, 2)
    assert measure.level_radius(g, math.exp(-0.5)) == pytest.approx(1.0)
    assert measure.level_radius(g, math.exp(-2.0)) == pytest.approx(2.0)


def test_level_radius_power_kernel_by_bisection():
    # k(t) = 1 + t, rho = k^{-(n+1)} = (1+t)^{-3} in n=2; rho = 1/8 at t = 1
    pk = measure.PowerKernel(np.array([[0.0, 1.0], [10.0, 11.0]]), 2)
    assert measure.level_radius(pk, 0.125) == pytest.approx(1.0, abs=1e-6)


def test_check_condnu2_verdicts():
    grid = np.linspace(1e-6, 10.0, 64)
    res = measure.check_condnu2(measure.GaussianLike(1.0, 2), grid)
    assert res["decreasing"] and res["condnu2"]
    res = measure.check_condnu2(measure.LebesgueRestricted(5.0, 2), grid)
    assert res["decreasing"] and res["condnu2"]
    # concave increasing k: rho decreasing but rho^{-1/(n+1)} not convex
    t = np.linspace(0.0, 10.0, 40)
    concave_k = np.column_stack([t, np.sqrt(1.0 + t)])
    res = measure.check_condnu2(measure.PowerKernel(concave_k, 2), np.linspace(1e-6, 9.0, 64))
    assert res["decreasing"] and not res["condnu2"]


def test_radial_step_integral_and_levels():
    f = measure.RadialStepFn(np.array([1.0, 2.0]), np.array([1.0, 0.25]), 2)
    assert f.integral() == pytest.approx(math.pi + 0.25 * 3 * math.pi)
    assert f.level_set_volume(0.5) == pytest.approx(math.pi)
    assert f.level_set_volume(0.1) == pytest.approx(4 * math.pi)
    assert f.lp_norm(math.inf) == pytest.approx(1.0)
    assert f.lp_norm(1.0) == pytest.approx(f.integral())


def test_pn_density_validation():
    with pytest.raises(measure.MeasureError):
        measure.RadialStepDensity(np.array([1.0]), np.array([2.0]), 2)
    with pytest.raises(measure.MeasureError):
        measure.RadialStepDensity(np.array([1.0]), np.array([0.5]), 2)
    # NaN slips past "bounded by 1" and "integrates to 1", so steps refuse it first
    r2 = 1 / math.sqrt(math.pi)
    for breaks, values in (([r2, 2.0], [1.0, math.nan]), ([math.nan, 2.0], [1.0, 0.0]), ([r2, math.inf], [1.0, 0.0])):
        with pytest.raises(measure.MeasureError, match="finite"):
            measure.RadialStepDensity(np.array(breaks), np.array(values), 2)


def test_rearrange_uniform_body_is_dn_indicator():
    f = measure.UniformBodyDensity("cube", 3)
    star = measure.rearrange_density(f)
    assert star.values == pytest.approx([1.0])
    assert star.breaks[0] == pytest.approx(measure.dn_radius(3))


def test_rearrangement_equimeasurable_and_norm_preserving():
    breaks = np.array([0.3, 0.7, 1.1, 2.0])
    values = np.array([0.4, 0.9, 0.1, 0.6])
    f = measure.RadialStepFn(breaks, values, 2)
    star = measure.rearrange_density(f)
    for alpha in (0.05, 0.25, 0.5, 0.85):
        assert star.level_set_volume(alpha) == pytest.approx(f.level_set_volume(alpha), abs=1e-9)
    for p in (1.0, 2.0, math.inf):
        assert star.lp_norm(p) == pytest.approx(f.lp_norm(p), abs=1e-9)
    assert np.all(np.diff(star.values) < 0)


def test_rearrangement_idempotent():
    f = measure.RadialStepFn(np.array([0.5, 1.5]), np.array([0.8, 0.2]), 2)
    once = measure.rearrange_density(f)
    twice = measure.rearrange_density(once)
    assert np.allclose(once.breaks, twice.breaks)
    assert np.allclose(once.values, twice.values)


def test_sample_uniform_ball_inside():
    pts = measure.sample_uniform_ball(3, 2.0, RngStream(1, 0), 500)
    assert pts.shape == (500, 3)
    assert np.all(np.linalg.norm(pts, axis=1) <= 2.0 + 1e-12)


def test_sample_density_supports():
    cube = measure.sample_density(measure.UniformBodyDensity("cube", 2), RngStream(2, 0), 400)
    assert np.all(np.abs(cube) <= 0.5 + 1e-12)
    dn = measure.sample_density(measure.UniformBodyDensity("Dn", 2), RngStream(3, 0), 400)
    assert np.all(np.linalg.norm(dn, axis=1) <= measure.dn_radius(2) + 1e-12)
    simp = measure.sample_density(measure.UniformBodyDensity("simplex", 2), RngStream(4, 0), 400)
    c = math.sqrt(2.0)  # (n!)^{1/n} for n = 2
    assert np.all(simp >= -1e-12)
    assert np.all(simp.sum(axis=1) <= c + 1e-9)


def test_sample_radial_measure_rayleigh_mean():
    # Gaussian sigma 1 in the plane: radius is Rayleigh, mean sqrt(pi/2)
    pts, _ = measure.sample_radial_measure(measure.GaussianLike(1.0, 2), RngStream(5, 0), 20000)
    mean_r = np.linalg.norm(pts, axis=1).mean()
    assert mean_r == pytest.approx(math.sqrt(math.pi / 2), abs=0.02)


def test_nu_plus_hyperplane_gaussian_line():
    psi = lambda X: np.exp(-np.sum(X * X, axis=1) / 2.0)
    val = measure.nu_plus_hyperplane(psi, np.array([0.3, 0.7]))
    assert val == pytest.approx(math.sqrt(2 * math.pi), abs=1e-8)


@pytest.mark.parametrize("z", [np.array([0.3, 0.7]), np.array([0.3, 0.7, -0.2])])
def test_nu_plus_hyperplane_refuses_a_one_point_psi(z):
    # a one-point indicator answers a whole batch with one number
    psi = lambda x: 1.0 if np.all(np.abs(x) <= 1.0) else 0.0
    with pytest.raises(measure.MeasureError, match="shape"):
        measure.nu_plus_hyperplane(psi, z, support_radius=2.0)
    with pytest.raises(measure.MeasureError, match="shape"):
        measure.nu_plus_hyperplane(lambda X: np.ones((X.shape[0], 1)), z, support_radius=2.0)


@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0))
@settings(max_examples=30, deadline=None)
def test_rearrangement_preserves_mass(h1, h2):
    f = measure.RadialStepFn(np.array([0.5, 1.25]), np.array([h1, h2]), 2)
    star = measure.rearrange_density(f)
    assert star.integral() == pytest.approx(f.integral(), rel=1e-12)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
def test_gaussian_rejects_bad_sigma(sigma):
    with pytest.raises(measure.MeasureError):
        measure.GaussianLike(sigma, 2)


def test_lebesgue_rejects_nan_radius():
    with pytest.raises(measure.MeasureError):
        measure.LebesgueRestricted(math.nan, 2)
