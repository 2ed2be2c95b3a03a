import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from polarvol import measure
from polarvol.geom import unit_ball_volume
from polarvol.rng import RngStream, generators


def test_dn_radius_gives_unit_volume():
    for n in (1, 2, 3, 5):
        r = measure.dn_radius(n)
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
    for m in (measure.GaussianLike(1.0, 2), measure.LebesgueRestricted(5.0, 2)):
        assert measure.check_condnu2(m) == {"decreasing": True, "condnu2": True}


KNOTS_40 = np.linspace(0.0, 10.0, 40)


@pytest.mark.parametrize("table,want", [
    # concave increasing k: rho decreasing but rho^{-1/(n+1)} not convex
    (np.column_stack([KNOTS_40, np.sqrt(1.0 + KNOTS_40)]), {"decreasing": True, "condnu2": False}),
    # a straight line: its 40 slopes spread by rounding only
    (np.column_stack([KNOTS_40, 1.0 + 0.1 * KNOTS_40]), {"decreasing": True, "condnu2": True}),
    # the slope falls from 2 to 1.5 at t = 20, past the reach of a grid on [0, 10]
    ([[0, 1], [5, 6], [20, 36], [30, 51]], {"decreasing": True, "condnu2": False}),
    # k falls on [12, 15], so rho rises there
    ([[0, 1], [12, 13], [15, 12], [20, 30]], {"decreasing": False, "condnu2": False}),
    # np.interp holds k flat before a first knot above 0: a first slope of -1 falls from 0
    ([[1, 2], [2, 1], [3, 5]], {"decreasing": False, "condnu2": False}),
    ([[1, 2], [2, 3], [3, 5]], {"decreasing": True, "condnu2": True}),
    # only [0, inf) counts: a fall at t < 0, and a table whose every knot is <= 0
    ([[-2, 3], [-1, 1], [1, 2], [2, 4]], {"decreasing": True, "condnu2": True}),
    ([[-2, 1], [0, 1.5]], {"decreasing": True, "condnu2": True}),
    # the last slope carries k past the last knot, so it must not fall below the slopes before it
    ([[0, 1], [1, 3], [2, 4]], {"decreasing": True, "condnu2": False}),
])
def test_check_condnu2_reads_the_table(table, want):
    assert measure.check_condnu2(measure.PowerKernel(np.array(table, dtype=float), 2)) == want


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


def test_rearrangement_merges_equal_values():
    # the two 0.5 annuli (volumes π and 5π) become one cell, the zero step drops out
    f = measure.RadialStepFn(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, 0.0, 0.5, 1.0]), 2)
    star = measure.rearrange_density(f)
    assert star.values.tolist() == [1.0, 0.5]
    assert star.breaks == pytest.approx([math.sqrt(7.0), math.sqrt(13.0)], rel=1e-15, abs=0)


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


def _fresh(seed, stream):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _per_stream_reference(f, gen, size):
    """One stream's points of the law f by the per-stream expressions the stacked samplers replaced."""
    n = f.dim
    if isinstance(f, measure.UniformBodyDensity) and f.shape == "cube":
        return gen.random((size, n)) - 0.5
    if isinstance(f, measure.UniformBodyDensity) and f.shape == "simplex":
        e = -np.log(gen.random((size, n + 1)))
        return math.factorial(n) ** (1.0 / n) * (e[:, :n] / e.sum(axis=1)[:, None])
    dirs = gen.standard_normal((size, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    u = gen.random(size)
    if isinstance(f, measure.UniformBodyDensity):  # D_n
        return dirs * (measure.dn_radius(n) * u ** (1.0 / n))[:, None]
    # a radial step law: inverse CDF of the mass, in which r^n is linear inside each cell
    bn = np.concatenate([[0.0], f.breaks ** n])
    F = np.concatenate([[0.0], np.cumsum(f.values * np.diff(bn))])
    F = F / F[-1]
    j = np.searchsorted(F, u, side="right")
    r = (bn[j - 1] + (u - F[j - 1]) / (F[j] - F[j - 1]) * (bn[j] - bn[j - 1])) ** (1.0 / n)
    return dirs * r[:, None]


STEP_LAW = measure.RadialStepDensity(
    np.array([0.5, math.sqrt(0.25 + (1 - math.pi / 4) / (0.5 * math.pi))]), np.array([1.0, 0.5]), 2)
LAWS = {
    "cube": measure.UniformBodyDensity("cube", 3),
    "Dn": measure.UniformBodyDensity("Dn", 3),
    "simplex": measure.UniformBodyDensity("simplex", 3),
    "radial_step": STEP_LAW,
}


@pytest.mark.parametrize("T", [1, 3, 200])
@pytest.mark.parametrize("law", LAWS)
def test_stacked_law_samplers_equal_the_per_stream_draws(law, T):
    # the trial layout of `_trial_values`: trial i draws its points from stream 4i;
    # trial i of the batch is trial i drawn alone, and both are the per-stream draws
    f, seed, size = LAWS[law], 23, 5
    stack = measure.density_points(f, generators(seed, range(0, 4 * T, 4)), size)
    assert stack.shape == (T, size, f.dim)
    for i in range(T):
        want = _per_stream_reference(f, _fresh(seed, 4 * i), size).tobytes()
        assert stack[i].tobytes() == want
        assert measure.density_points(f, generators(seed, [4 * i]), size)[0].tobytes() == want
        if i < 3:
            assert measure.sample_density(f, RngStream(seed, 4 * i), size).tobytes() == want


def _radial_cdf(f, r):
    """P(|X| <= r) for X of the step law f: whole cells below r, then r's own cell up to r."""
    vols = f.annulus_volumes()
    below = np.concatenate([[0.0], np.cumsum(f.values * vols)])
    j = np.minimum(np.searchsorted(f.breaks, r, side="right"), len(f.breaks) - 1)
    inner = np.concatenate([[0.0], f.breaks])[j]
    partial = f.values[j] * unit_ball_volume(f.dim) * (r ** f.dim - inner ** f.dim)
    return (below[j] + partial) / below[-1]


@st.composite
def step_laws(draw):
    """A P_n step law with 1-5 cells, some of value 0: relative values, then breaks scaled until sup f <= 1."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    widths = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=k, max_size=k)))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 1.0), min_size=k, max_size=k)))
    assume(weights.max() > 0)
    breaks = np.cumsum(widths)
    mass = measure.RadialStepFn(breaks, weights, n).integral()
    breaks *= max(1.0, weights.max() / mass) ** (1.0 / n)
    return measure.RadialStepDensity(breaks, weights / measure.RadialStepFn(breaks, weights, n).integral(), n)


@given(step_laws(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_step_law_points_are_the_inverse_cdf_of_their_uniforms(f, seed):
    size = 400
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = measure.sample_density(f, RngStream(seed, 0), size)
    gen = RngStream(seed, 0).generator()
    gen.standard_normal((size, f.dim))
    u = gen.random(size)
    r = np.linalg.norm(x, axis=1)
    assert np.all(r <= f.breaks[-1] * (1 + 1e-12))
    inner = np.concatenate([[0.0], f.breaks[:-1]])
    for lo, hi in zip(inner[f.values == 0], f.breaks[f.values == 0]):
        assert not np.any((r > lo * (1 + 1e-12)) & (r < hi * (1 - 1e-12)))
    assert np.abs(_radial_cdf(f, r) - u).max() <= 1e-12


def test_a_wide_step_law_samples():
    # density 1 on r < 0.535 and about 1.3e-7 out to 500: a rejection sampler from the
    # support's ball accepts about one draw in 785 000 and used to give up
    a, b = 0.535, 500.0
    f = measure.RadialStepDensity(np.array([a, b]), np.array([1.0, (1 - math.pi * a * a) / (math.pi * (b * b - a * a))]), 2)
    x = measure.density_points(f, generators(3, range(0, 800, 4)), 4).reshape(-1, 2)
    r = np.linalg.norm(x, axis=1)
    assert r.max() <= b * (1 + 1e-12)
    assert stats.kstest(r, lambda t: _radial_cdf(f, t)).pvalue > 0.01


@pytest.mark.parametrize("T", [1, 3, 200])
def test_stacked_ball_points_equal_the_per_stream_draws(T):
    n, size, R = 3, 4, measure.dn_radius(3)
    stack = measure.ball_points(generators(29, range(2, 4 * T, 4)), size, n, R)
    assert stack.shape == (T, size, n)
    for i in range(T):
        want = _per_stream_reference(LAWS["Dn"], _fresh(29, 4 * i + 2), size).tobytes()
        assert stack[i].tobytes() == want
        assert measure.ball_points([_fresh(29, 4 * i + 2)], size, n, R)[0].tobytes() == want


def test_sample_radial_measure_rayleigh_mean():
    # Gaussian sigma 1 in the plane: radius is Rayleigh, mean sqrt(pi/2)
    pts, _ = measure.sample_radial_measure(measure.GaussianLike(1.0, 2), RngStream(5, 0), 20000)
    mean_r = np.linalg.norm(pts, axis=1).mean()
    assert mean_r == pytest.approx(math.sqrt(math.pi / 2), abs=0.02)


def test_nu_plus_hyperplane_gaussian_line():
    psi = lambda X: np.exp(-np.sum(X * X, axis=1) / 2.0)
    val = measure.nu_plus_hyperplane(psi, np.array([0.3, 0.7]))
    assert val == pytest.approx(math.sqrt(2 * math.pi), abs=1e-8)


def test_nu_plus_hyperplane_refuses_three_dimensions():
    # z⊥ is then a plane, and no rule here takes the kinks of an indicator's sections as breakpoints
    psi = lambda X: np.exp(-np.sum(X * X, axis=1) / 2.0)
    with pytest.raises(measure.MeasureError, match="n = 2"):
        measure.nu_plus_hyperplane(psi, np.array([[0.3, 0.7, -0.2], [0.0, 0.0, 1.0]]))


def test_nu_plus_hyperplane_off_centre_box_chords():
    # the lines through 0 meet [-1, 2] x [-1, 1] in chords whose two ends differ
    lo, hi = np.array([-1.0, -1.0]), np.array([2.0, 1.0])
    psi = lambda X: np.all((X >= lo) & (X <= hi), axis=1).astype(float)
    z = np.random.default_rng(21).uniform(-1.0, 1.0, (12, 2))
    u = np.stack([-z[:, 1], z[:, 0]], axis=1) / np.linalg.norm(z, axis=1)[:, None]
    ends = np.stack([lo / u, hi / u])  # where t·u leaves each coordinate's range
    chord = ends.max(axis=0).min(axis=1) - ends.min(axis=0).max(axis=1)
    assert measure.nu_plus_hyperplane(psi, z, support_radius=3.0) == pytest.approx(chord, rel=1e-12, abs=0)


@pytest.mark.parametrize("z", [np.array([0.3, 0.7])])
def test_nu_plus_hyperplane_refuses_psi_zero_at_the_origin(z):
    # [0.5, 2] x [-1, 1] does not hold 0, so ψ(0) = 0
    psi = lambda X: np.all((X >= [0.5, -1.0]) & (X <= [2.0, 1.0]), axis=1).astype(float)
    with pytest.raises(measure.MeasureError, match="psi\\(0\\)"):
        measure.nu_plus_hyperplane(psi, z, support_radius=3.0)


def test_gauss_kronrod_panel_is_quadpack_qk21():
    # a panel that converges at once is quad's first qk21 step, bit for bit
    for f, a, b in ((np.cos, 0.0, 1.0), (lambda x: np.exp(-x * x), -2.0, 3.0), (lambda x: 1 / (1 + x * x), 0.0, 0.3)):
        want, _ = integrate.quad(lambda x: float(f(np.array(x))), a, b, epsabs=1e-9, epsrel=1e-10)
        assert measure._gauss_kronrod(lambda k, x: f(x), [np.array([a, b])], 1e-9, 1e-10).tolist() == [want]


def test_gauss_kronrod_integrals_keep_their_bits_in_any_batch():
    # ∫_0^b x^{c-1} dx = b^c/c: each integral refines on its own tolerance
    c = np.array([1.5, 1.0, 2.5, 6.0])
    breaks = [np.array([0.0, 0.7, 2.0])] * 2 + [np.array([0.0, 2.0])] * 2
    g = lambda k, x: x ** (c[k][:, None] - 1.0)
    val = measure._gauss_kronrod(g, breaks, 0.0, 1e-13)
    assert val == pytest.approx(2.0 ** c / c, rel=1e-12, abs=0)
    for k in range(4):
        alone = measure._gauss_kronrod(lambda i, x: g(i + k, x), breaks[k:k + 1], 0.0, 1e-13)
        assert alone.tobytes() == val[k:k + 1].tobytes()


def test_gauss_kronrod_refuses_to_return_an_unconverged_integral():
    # ∫_0^1 dx/x diverges: bisecting towards 0 never meets the tolerance
    with pytest.raises(measure.MeasureError, match="converge"):
        measure._gauss_kronrod(lambda k, x: 1.0 / x, [np.array([0.0, 1.0])], 0.0, 1e-13)


@pytest.mark.parametrize("z", [np.array([0.3, 0.7])])
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


def test_power_kernel_refuses_a_falling_tail():
    # k extrapolated below 0 would make rho infinite, then negative
    with pytest.raises(measure.MeasureError, match="last knot"):
        measure.PowerKernel(np.array([[0.0, 2.0], [1.0, 1.0]]), 2)
    with pytest.raises(measure.MeasureError, match="slopes must be finite"):
        measure.PowerKernel(np.array([[0.0, 1.0], [2.2e-309, 2.0]]), 2)
    flat = measure.PowerKernel(np.array([[0.0, 2.0], [1.0, 2.0]]), 2)
    assert measure.total_mass(flat) == math.inf


# ---------------------------------------------------------------------------
# radial laws: radial_mass_in_ball against a quadrature reference


def quad_mass(m, R):
    """n·ω_n ∫_0^R ρ(t) t^{n-1} dt by adaptive quadrature, split where the integrand changes scale."""
    n = m.dim
    f = lambda t: float(measure.rho_eval(m, t)) * t ** (n - 1)
    quad = lambda g, a, b: integrate.quad(g, a, b, epsabs=0, epsrel=1e-13, limit=200)[0]
    if isinstance(m, measure.PowerKernel):
        (t0, k0), (t1, k1) = m.k_table[-2:]
        # past the last knot the integrand falls off on the scale k/slope
        cuts = np.append(m.k_table[:, 0], t1 + k1 * (t1 - t0) / (k1 - k0) * 10.0 ** np.arange(-2, 3))
    else:
        cuts = np.array([m.sigma])
    cuts = [0.0, *np.sort(cuts[(cuts > 0) & (cuts < R)])]
    val = sum(quad(f, a, b) for a, b in zip(cuts, cuts[1:] + ([R] if R < math.inf else [])))
    if R == math.inf:  # t = c/x maps the tail past the last cut onto (0, 1]
        c = cuts[-1]
        val += quad(lambda x: f(c / x) * c / x ** 2, 0.0, 1.0)
    return n * unit_ball_volume(n) * val


@st.composite
def power_kernels(draw):
    n = draw(st.integers(1, 4))
    # knots on a 0.01 grid: quad cannot resolve a k that ramps over 1e-38 (the closed form can)
    ts = sorted(i / 100 for i in draw(st.lists(st.integers(0, 500), min_size=2, max_size=5, unique=True)))
    ks = draw(st.lists(st.floats(0.05, 3.0), min_size=len(ts), max_size=len(ts)))
    ks[-1] = ks[-2] + draw(st.floats(0.05, 3.0))  # a rising last piece: finite mass
    return measure.PowerKernel(np.column_stack([ts, ks]), n)


@given(power_kernels(), st.lists(st.one_of(st.floats(0.0, 12.0), st.just(math.inf)), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_power_kernel_mass_matches_quadrature(m, radii):
    want = [quad_mass(m, R) for R in radii]
    assert measure.radial_mass_in_ball(m, np.array(radii)) == pytest.approx(want, rel=1e-10, abs=1e-300)
    for R, w in zip(radii, want):
        assert measure.radial_mass_in_ball(m, R) == pytest.approx(w, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
def test_gaussian_mass_matches_quadrature(n, sigma):
    m = measure.GaussianLike(sigma, n)
    radii = [0.0, 0.4 * sigma, sigma, 3.0 * sigma, math.inf]
    want = [quad_mass(m, R) for R in radii]
    assert measure.radial_mass_in_ball(m, np.array(radii)) == pytest.approx(want, rel=1e-10)
    assert measure.total_mass(m) == pytest.approx((2 * math.pi * sigma ** 2) ** (n / 2), rel=1e-15)


def test_power_kernel_draws_reach_the_tail():
    # k = 1 + t in n = 3: Φ(t) = u³/3 with u = t/(1 + t), so P(|Y| > 200) = 1 - (200/201)³.
    # A radial table that stops short of t = inf loses this tail (1.2% drawn instead of 1.49%).
    m = measure.PowerKernel(np.array([[0.0, 1.0], [1.0, 2.0]]), 3)
    size = 10 ** 6
    pts, mass = measure.sample_radial_measure(m, RngStream(17, 0), size)
    assert mass == pytest.approx(4 * math.pi / 3, rel=1e-15)
    p = 1 - (200 / 201) ** 3
    frac = float(np.count_nonzero(np.linalg.norm(pts, axis=1) > 200.0)) / size
    assert abs(frac - p) <= 4 * math.sqrt(p * (1 - p) / size)


def condnu2_by_loop(t, k):
    """Convexity by a triple-by-triple scan: each k lies on or below the chord of its neighbours."""
    for (ta, a), (tb, b), (tc, c) in zip(zip(t, k), zip(t[1:], k[1:]), zip(t[2:], k[2:])):
        chord = a + (c - a) * (tb - ta) / (tc - ta)
        if b > chord + 1e-10 * (1.0 + abs(chord)):
            return False
    return True


@given(power_kernels())
@settings(max_examples=60, deadline=None)
def test_check_condnu2_matches_the_loop(m):
    # k at 0 and every knot above it, at the midpoints between them, and at two points past the last
    ts = m.k_table[:, 0]
    knots = np.append(0.0, ts[ts > 0])
    step = max(knots[-1], 1.0)
    t = np.sort(np.concatenate([knots, 0.5 * (knots[1:] + knots[:-1]), knots[-1] + step * np.array([1.0, 2.0])]))
    assert measure.check_condnu2(m)["condnu2"] == condnu2_by_loop(t.tolist(), m.k_eval(t).tolist())
