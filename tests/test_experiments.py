import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.spatial import ConvexHull

from polarvol import experiments, geom, measure
from polarvol.cli import main
from polarvol.experiments import ConfigError, ExperimentConfig
from polarvol.rng import RngStream
from polytope_reference import face_volume


def small_config(m=None, trials=30, budget=10_000, seed=5):
    return ExperimentConfig(
        n=2,
        N=4,
        gauge=geom.LqBall(1.0, 4),
        rball=0.0,
        law_x=measure.UniformBodyDensity("cube", 2),
        m=m if m is not None else measure.LebesgueRestricted(5.0, 2),
        trials=trials,
        budget_per_trial=budget,
        seed=seed,
    )


def test_config_rejects_non_condnu2_measure_in_dominance():
    t = np.linspace(0.0, 10.0, 40)
    concave_k = measure.PowerKernel(np.column_stack([t, np.sqrt(1.0 + t)]), 2)
    with pytest.raises(ConfigError):
        experiments.stochastic_dominance_experiment(small_config(m=concave_k))


def test_config_rejects_bad_dimensions():
    with pytest.raises(ConfigError):
        ExperimentConfig(
            n=2,
            N=4,
            gauge=geom.LqBall(1.0, 3),  # gauge dim != N
            rball=0.0,
            law_x=measure.UniformBodyDensity("cube", 2),
            m=measure.LebesgueRestricted(5.0, 2),
            trials=10,
            budget_per_trial=1000,
            seed=0,
        )


def test_santalo_report_shape_and_determinism():
    cfg = small_config()
    a = experiments.santalo_expectation_experiment(cfg)
    b = experiments.santalo_expectation_experiment(cfg, threads=4)
    assert (a.verdict, a.summary) == (b.verdict, b.summary)
    assert a.to_csv() == b.to_csv()
    lines = a.to_csv().strip().split("\n")
    assert lines[0] == "trial_index,side,value,stderr"
    assert len(lines) == 1 + 2 * cfg.trials
    assert {"mean_x", "mean_z", "stderr_x", "stderr_z", "margin", "threshold"} <= set(a.summary)


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_first_trials_reproduce_in_isolation(q):
    # q = 1 trials are exact polygons measured in one batch, q = 2 trials sample:
    # either way trial i reads only its own streams 4i..4i+3
    cfg = dataclasses.replace(small_config(m=measure.GaussianLike(1.0, 2), trials=12, budget=500),
                              gauge=geom.LqBall(q, 4))
    full = experiments._trial_values(cfg)
    head = experiments._trial_values(dataclasses.replace(cfg, trials=5))
    assert (full[0][:5], full[1][:5]) == head
    assert all((stderr == 0.0) == (q == 1.0) for side in full for _, stderr in side)


def test_dominance_small_run_passes():
    cfg = small_config(m=measure.GaussianLike(1.0, 2), trials=60)
    rep = experiments.stochastic_dominance_experiment(cfg)
    assert rep.verdict
    s = rep.summary
    assert set(s) == {"statistic", "pvalue", "trials"} and s["trials"] == 60
    assert s["pvalue"] == experiments._smirnov_pvalue(round(60 * s["statistic"]), 60) >= experiments.ALPHA


@pytest.mark.parametrize("T", [5, 60, 200, 2000])
def test_dominance_pvalue_is_the_exact_smirnov_test(monkeypatch, T):
    from scipy import stats

    gen = np.random.default_rng(T)
    for shift in np.linspace(-0.6, 0.6, 9):
        x, z = gen.standard_normal(T) + shift, gen.standard_normal(T)
        sides = ([(v, 0.0) for v in x], [(v, 0.0) for v in z])
        monkeypatch.setattr(experiments, "_trial_values", lambda cfg, threads: sides)
        rep = experiments.stochastic_dominance_experiment(small_config(trials=T))
        want = stats.ks_2samp(x, z, alternative="less", method="exact")
        assert rep.summary["statistic"] == want.statistic
        assert rep.summary["pvalue"] == pytest.approx(want.pvalue, rel=1e-12, abs=1e-300)
        assert rep.verdict == (want.pvalue >= experiments.ALPHA)


def shrunken_ball_law(lam, n=2):
    """Uniform on λ·r_n·B: sup f = λ^(-n) > 1 puts it outside P_n, so RadialStepDensity refuses it."""
    law = object.__new__(measure.RadialStepDensity)
    for name, value in (("breaks", np.array([lam * measure.dn_radius(n)])), ("values", np.array([lam ** -n])),
                        ("dim", n)):
        object.__setattr__(law, name, value)
    return law


@pytest.mark.parametrize("experiment,lam,m", [
    (experiments.stochastic_dominance_experiment, 0.95, measure.GaussianLike(1.0, 2)),
    (experiments.santalo_expectation_experiment, 0.8, measure.LebesgueRestricted(5.0, 2)),
])
def test_verdict_fails_a_law_outside_pn(experiment, lam, m):
    # negative control: a law more concentrated than D_n has larger polars, so each verdict must FAIL
    configs = [small_config(m=m, trials=200, budget=4000, seed=seed) for seed in range(20)]
    fails = sum(not experiment(dataclasses.replace(cfg, law_x=shrunken_ball_law(lam))).verdict for cfg in configs)
    assert fails == 20


def test_report_self_containment(tmp_path):
    # the config echoed into report.json, run again, reproduces the report byte for byte
    experiment = {"n": 2, "N": 4, "gauge": {"type": "lq", "q": 1.0}, "r": 0.0, "law": {"kind": "uniform_cube"},
                  "measure": {"kind": "gaussian", "sigma": 1.0}, "trials": 10, "budget": 5_000, "seed": 5}
    # santalo's config has no mode, which the echo adds; the first run's --seed and --budget go into the echo
    converge = {"n": 2, "schedule": [16, 4, 8], "band": 0.5}
    for command, cfg in (("santalo", experiment), ("dominance", dict(experiment, mode="dominance")),
                         ("converge", converge)):
        reports = []
        for run, overrides in (("first", ["--seed", "6", "--budget", "3000"]), ("again", [])):
            path = tmp_path / f"{command}-{run}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"{command}-{run}"
            res = CliRunner().invoke(main, [command, "--config", str(path), "--out", str(out), *overrides])
            assert res.exit_code in (0, 1), res.output
            reports.append((out / "report.json").read_bytes())
            cfg = json.loads(reports[-1])["config"]
        assert reports[0] == reports[1], command


def test_convergence_monotone_and_continuity():
    rep = experiments.convergence_experiment(n=2, seed=3, schedule=(4, 8, 16, 32, 64, 128, 256, 512), band=0.05)
    vals = np.asarray(rep.summary["values"])
    steps = np.asarray(rep.summary["hausdorff_steps"])
    assert rep.summary["monotone"]
    assert np.all(np.diff(vals) <= 1e-12)
    # continuity probe: value increments shrink together with the
    # hausdorff steps along the path (monotone correlation, not rate)
    diffs = -np.diff(vals)
    order = np.argsort(steps)
    assert np.corrcoef(steps, diffs)[0, 1] > 0.5
    assert diffs[order[0]] <= diffs[order[-1]] + 1e-9


# The converge golden is n = 2, so this test holds the 3-D path: the
# polar volumes against the loop reference, the Hausdorff steps (which
# never touch the polytope oracle) as recorded.
def test_convergence_n3_is_pinned():
    rep = experiments.convergence_experiment(n=3, seed=3, schedule=[6, 12, 18, 24], band=3.0)
    pts = measure.sample_uniform_ball(3, measure.dn_radius(3), RngStream(3, 0), 24)
    want = [face_volume(np.vstack([pts[:N], -pts[:N]]), np.ones(2 * N)) for N in (6, 12, 18, 24)]
    assert rep.summary["values"] == pytest.approx(want, rel=1e-14, abs=0)
    assert rep.summary["hausdorff_steps"] == [0.41756201092918654, 0.2270134323409032, 0.09621864596577301]


def test_rearrangement_gap_ordering_three_way():
    # a non-monotone radial law, its rearrangement, and the uniform ball:
    # expected polar measures must come out ordered (within noise)
    a = 0.3
    b = math.sqrt(a * a + (1.0 - 0.1 * math.pi * a * a) / math.pi)
    law = measure.RadialStepDensity(np.array([a, b]), np.array([0.1, 1.0]), 2)
    star_fn = measure.rearrange_density(law)
    star = measure.RadialStepDensity(star_fn.breaks, star_fn.values, 2)

    means = []
    for lx in (law, star, measure.UniformBodyDensity("Dn", 2)):
        cfg = ExperimentConfig(
            n=2, N=4, gauge=geom.LqBall(1.0, 4), rball=0.0, law_x=lx,
            m=measure.LebesgueRestricted(5.0, 2),
            trials=300, budget_per_trial=20_000, seed=17,
        )
        rep = experiments.santalo_expectation_experiment(cfg)
        means.append((rep.summary["mean_x"], rep.summary["stderr_x"]))
    for (m1, s1), (m2, s2) in zip(means, means[1:]):
        assert m1 <= m2 + 3 * math.hypot(s1, s2)


def test_centroid_equality_for_uniform_ball_law():
    rep = experiments.centroid_polar_experiment(
        measure.UniformBodyDensity("Dn", 2),
        p=2.0,
        m=measure.LebesgueRestricted(math.inf, 2),
        budget=60_000,
        seed=4,
    )
    assert rep.verdict
    gap = rep.summary["rhs"] - rep.summary["lhs"]
    assert abs(gap) <= 3 * rep.summary["lhs_stderr"] + 0.05 * rep.summary["rhs"]


def test_newsan_cube_closed_forms():
    # K = [-1,1]^2: |K°| = 2 and the ball side is pi^2/4
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    body = geom.HPolytopeBody(normals, np.ones(4))
    rep = experiments.newsan_experiment(
        body, measure.LebesgueRestricted(math.inf, 2), budget=200_000, seed=6
    )
    assert rep.verdict
    assert rep.summary["rhs"] == pytest.approx(math.pi ** 2 / 4)
    assert abs(rep.summary["lhs"] - 2.0) <= 3 * rep.summary["lhs_stderr"]


def test_newsan_cross_polytope_closed_forms():
    body = geom.HPolytopeBody(
        np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]), np.ones(4)
    )
    rep = experiments.newsan_experiment(
        body, measure.LebesgueRestricted(50.0, 2), budget=200_000, seed=6
    )
    assert rep.verdict
    assert rep.summary["rhs"] == pytest.approx(math.pi ** 2 / 2)
    assert abs(rep.summary["lhs"] - 4.0) <= 3 * rep.summary["lhs_stderr"]


def test_newsan_ball_is_equality():
    rep = experiments.newsan_experiment(
        geom.BallBody(1.3, 2), measure.GaussianLike(1.0, 2), budget=50_000, seed=8
    )
    assert rep.verdict
    assert rep.summary["lhs"] == pytest.approx(rep.summary["rhs"], abs=3 * rep.summary["lhs_stderr"] + 1e-9)


def test_body_volume_exact_is_0_for_flat_bodies():
    # conv{±(1, 0), ±(1, 1e-11)} fails the spanning test that calls K° unbounded, so |K| is 0, not 2e-11
    flat = np.array([[1.0, 1.0], [0.0, 1e-11]])
    assert not geom.spans(flat.T)
    assert experiments.body_volume_exact(geom.MatrixImageBody(flat, geom.LqBall(1.0, 2), 0.0)) == 0.0
    with pytest.raises(geom.GeometryError):
        experiments.newsan_experiment(geom.MatrixImageBody(flat, geom.LqBall(1.0, 2), 0.0), measure.GaussianLike(1.0, 2),
                                      budget=100, seed=1)
    thin = np.array([[1.0, 1.0], [0.0, 1e-9]])
    assert experiments.body_volume_exact(geom.MatrixImageBody(thin, geom.LqBall(1.0, 2), 0.0)) == pytest.approx(2e-9, rel=1e-12)


def test_newsan_of_a_flat_hpolytope_is_refused():
    # the segment [-1, 1] x {0}: its vertices raise, where the volume used to read 0
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    body = geom.HPolytopeBody(square, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(geom.GeometryError):
        experiments.body_volume_exact(body)
    with pytest.raises(geom.GeometryError):
        experiments.newsan_experiment(body, measure.GaussianLike(1.0, 2), budget=100, seed=1)


def test_newsan_enumerates_hpolytope_vertices_once(qhull_hulls):
    # the volume and the support function share the body's cached dual hull: a newsan run
    # builds one qhull hull in all, its volume included
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
    body = geom.HPolytopeBody(normals, np.array([1.0, 1.0, 1.0, 1.0, 1.5]))
    assert experiments.body_volume_exact(body) == pytest.approx(4.0 - 0.125, rel=1e-14)
    experiments.newsan_experiment(body, measure.GaussianLike(1.0, 2), budget=1000, seed=1)
    assert len(qhull_hulls) == 1
    # a fresh body in n = 3 through the whole run: still one hull
    cube = geom.HPolytopeBody(np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0]]]), np.r_[np.ones(6), 2.0])
    experiments.newsan_experiment(cube, measure.GaussianLike(1.0, 3), budget=1000, seed=1)
    assert len(qhull_hulls) == 2
    assert experiments.body_volume_exact(cube) == pytest.approx(8.0 - 1.0 / 6.0, rel=1e-14)


def test_body_volume_exact_builds_one_hull(qhull_hulls):
    # the matrix image's |conv{±x_i}| is a det sum over the facets of one `_dual_hull`
    X = RngStream(31, 0).generator().standard_normal((3, 6))
    vol = experiments.body_volume_exact(geom.MatrixImageBody(X, geom.LqBall(1.0, 6), 0.0))
    assert len(qhull_hulls) == 1
    assert vol == pytest.approx(ConvexHull(np.vstack([X.T, -X.T])).volume, rel=1e-13)


def _step_law(n=2):
    # density 0.1 on the inner ball and 1 on the shell out to b, so its values rise outward
    a = 0.3
    w = geom.unit_ball_volume(n)
    b = (a**n + (1.0 - 0.1 * w * a**n) / w) ** (1.0 / n)
    return measure.RadialStepDensity(np.array([a, b]), np.array([0.1, 1.0]), n)


Z2_LAWS = {
    "cube2": measure.UniformBodyDensity("cube", 2),
    "cube3": measure.UniformBodyDensity("cube", 3),
    "cube_max": measure.UniformBodyDensity("cube", experiments.CUBE_MAX_DIM),
    "Dn2": measure.UniformBodyDensity("Dn", 2),
    "Dn3": measure.UniformBodyDensity("Dn", 3),
    "radial_step": _step_law(),
}


@pytest.mark.parametrize("name", Z2_LAWS)
def test_centroid_z2_rows_are_position_free(name):
    # the cube's closed form is one evaluator for every p, so every p keeps the bits
    for p in (1.0, 2.0, 3.0, 5.5):
        body = experiments.centroid_body_oracle(Z2_LAWS[name], p)
        Y = np.random.default_rng(6).standard_normal((1001 if body.dim <= 3 else 129, body.dim))
        got = geom.support_values(body, Y)
        rows = np.concatenate([geom.support_values(body, Y[i : i + 1]) for i in range(len(Y))])
        assert rows.tobytes() == got.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5, experiments.CUBE_MAX_DIM])
def test_centroid_z2_closed_forms(n):
    # h_{Z_2}(y) = |y|·sqrt(E X_1^2): 1/12 on the unit cube, r_n^2/(n+2) on D_n
    Y = np.random.default_rng(8).standard_normal((500, n))
    norms = np.linalg.norm(Y, axis=1)
    cube = experiments.centroid_body_oracle(measure.UniformBodyDensity("cube", n), 2.0)
    ball = experiments.centroid_body_oracle(measure.UniformBodyDensity("Dn", n), 2.0)
    assert np.allclose(cube.evaluator(Y), norms / math.sqrt(12.0), rtol=1e-13, atol=0)
    assert np.allclose(geom.support_values(ball, Y), norms * measure.dn_radius(n) / math.sqrt(n + 2), rtol=1e-13, atol=0)


def _cube_moment(y, p):
    """E|<U, y>|^p for U uniform on [-1/2, 1/2]^n and integer p, as an exact Fraction.

    The signed sum (Π a_i)^{-1} Σ_ε (Π ε_i) G_k(Σ ε_i a_i/2) over the nonzero
    a_i = |y_i|, G_k(x) = |x|^{p+k} sgn(x)^k / ((p+1)...(p+k)), in integers:
    the a_i are dyadic, so d·a_i are integers for a power of two d, and
    nothing cancels or rounds.
    """
    a = [Fraction(abs(v)) for v in y if v != 0]
    k, d = len(a), math.lcm(*(v.denominator for v in a))
    ints = [int(v * d) for v in a]
    total = 0
    for eps in itertools.product((1, -1), repeat=k):
        x = sum(e * v for e, v in zip(eps, ints))  # 2d times the shift
        total += math.prod(eps) * abs(x) ** (p + k) * (-1 if x < 0 and k % 2 else 1)
    return Fraction(total * d**k, (2 * d) ** (p + k) * math.prod(ints) * math.prod(range(p + 1, p + k + 1)))


def _root(moment, p):
    # the p-th root through exact logarithms: moment underflows a float at p = 1000
    return math.exp((math.log(moment.numerator) - math.log(moment.denominator)) / p)


# directions near an axis, where the plain signed sum cancels (eps/t at y = (1, t)), and exact zeros
NEAR_AXIS = [(1.0, t) for t in (1e-2, 1e-4, 1e-8, 1e-13)] + [
    c for t in (1e-5, 1e-8, 1e-13) for c in ((1.0, 1.0, t), (1.0, t, t), (1.0, t, 0.7), (-t, 1.0, 0.0, t))
] + [(0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, -2.5, 0.0), (0.0, 0.0, 0.0), (3.0,), (-0.2,)]


@pytest.mark.parametrize("p", [1, 2, 3, 7, 1000])
def test_centroid_cube_matches_exact_fractions(p):
    gen = np.random.default_rng(10)
    rows = {n: [tuple(y) for y in gen.standard_normal((3, n))] for n in range(1, experiments.CUBE_MAX_DIM + 1)}
    for y in NEAR_AXIS:
        rows[len(y)].append(y)
    for n, ys in rows.items():
        got = experiments.centroid_body_oracle(measure.UniformBodyDensity("cube", n), float(p)).evaluator(np.array(ys))
        want = [0.0 if not any(y) else _root(_cube_moment(y, p), p) for y in ys]
        assert got == pytest.approx(want, rel=1e-12, abs=0), (n, ys)


def _cube_moment_quad(y, p):
    """E|<U, y>|^p for n = 2 by nested quad, each kink a breakpoint."""
    a, b = sorted((abs(y[0]), abs(y[1])), reverse=True)

    def inner(u):
        kink = [-a * u / b] if a * abs(u) < 0.5 * b else None
        return integrate.quad(lambda v: abs(a * u + b * v) ** p, -0.5, 0.5, points=kink, epsabs=0, epsrel=1e-13)[0]

    # the inner kink leaves [-1/2, 1/2] at u = ±b/(2a)
    return integrate.quad(inner, -0.5, 0.5, points=[-b / (2 * a), b / (2 * a)], epsabs=0, epsrel=1e-13)[0]


@pytest.mark.parametrize("p", [1.5, 5.5])
def test_centroid_cube_matches_quad_in_the_plane(p):
    Y = np.vstack([np.random.default_rng(11).standard_normal((4, 2)), [y for y in NEAR_AXIS if len(y) == 2], [[1.0, -1.0]]])
    got = experiments.centroid_body_oracle(measure.UniformBodyDensity("cube", 2), p).evaluator(Y)
    want = [_cube_moment_quad(y, p) ** (1 / p) for y in Y]
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    # beside a coordinate of 1e-8 the third one moves h by O(1e-16): the plane's value stands for R^3
    cube3 = experiments.centroid_body_oracle(measure.UniformBodyDensity("cube", 3), p).evaluator
    got = cube3(np.array([[1.0, 1.0, 1e-8], [1.0, 1e-8, 1e-8], [0.6, 1e-13, -0.8]]))
    want = [_cube_moment_quad((1.0, 1.0), p) ** (1 / p), 0.5 / (p + 1) ** (1 / p), _cube_moment_quad((0.6, 0.8), p) ** (1 / p)]
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_centroid_cube_bounds_are_refused():
    with pytest.raises(ConfigError, match=f"n <= {experiments.CUBE_MAX_DIM}"):
        experiments.centroid_body_oracle(measure.UniformBodyDensity("cube", experiments.CUBE_MAX_DIM + 1), 2.0)
    with pytest.raises(ConfigError, match="p <= 1e\\+15"):
        experiments.centroid_body_oracle(measure.UniformBodyDensity("cube", 2), 1e16)


@given(n=st.integers(1, experiments.CUBE_MAX_DIM), log_p=st.floats(0.0, 6.0), seed=st.integers(0, 2**31))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_centroid_cube_inradius_holds_its_support(n, log_p, seed):
    # the smallest support lies on an axis (p >= 2) or the diagonal (p <= 2), so check h·R* >= 1
    # on random unit θ and on θ near both, each sign-flipped at random (a symmetry of the cube)
    p = 10.0**log_p
    body = experiments.centroid_body_oracle(measure.UniformBodyDensity("cube", n), p)
    gen = np.random.default_rng(seed)
    ends = np.vstack([np.eye(1, n), np.full((1, n), 1 / math.sqrt(n))])
    near = ends[:, None, :] + np.array([0.0, 1e-10, 1e-7, 1e-4, 1e-2])[:, None] * gen.standard_normal((2, 5, n))
    theta = np.vstack([gen.standard_normal((200, n)), near.reshape(-1, n)])
    theta *= gen.choice([-1.0, 1.0], size=theta.shape) / geom.row_norms(theta)[:, None]
    assert np.all(body.evaluator(theta) * geom.polar_sampling_radius(body) >= 1 - 1e-13)
    assert body.inradius in body.evaluator(ends).tolist()


@pytest.mark.parametrize("n", [5, 6, 8])
def test_centroid_cube_sampling_ball_holds_the_polar_on_the_axes(n):
    # at p = 100 the cube's Z_p has its smallest support on the axes: K° reaches e_i/h(e_i)
    # there, and the sampling ball must hold those points
    body = experiments.centroid_body_oracle(measure.UniformBodyDensity("cube", n), 100.0)
    axes = np.vstack([np.eye(n), -np.eye(n)])
    assert np.all(1.0 / body.evaluator(axes) <= geom.polar_sampling_radius(body))


def _gaussian_ball_mass(n, r):
    """∫_{|y| <= r} exp(-|y|²/2) dy in closed form, n = 2 or 3."""
    if n == 2:
        return 2 * math.pi * -math.expm1(-r * r / 2)
    return (2 * math.pi) ** 1.5 * (math.erf(r / math.sqrt(2)) - math.sqrt(2 / math.pi) * r * math.exp(-r * r / 2))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["lebesgue", "gaussian"])
def test_centroid_cube_z2_estimate_is_unbiased(n, kind):
    # Z_2 of the cube is (1/√12)·B, so ν(Z_2°) = ν(√12·B) in closed form; the estimate
    # samples through the support oracle, inside its certified radius under Lebesgue
    r = math.sqrt(12.0)
    if kind == "lebesgue":
        m, exact = measure.LebesgueRestricted(math.inf, n), geom.unit_ball_volume(n) * r**n
    else:
        m, exact = measure.GaussianLike(1.0, n), _gaussian_ball_mass(n, r)
    cube = measure.UniformBodyDensity("cube", n)
    for seed in range(4):
        summary = experiments.centroid_polar_experiment(cube, 2.0, m, 100_000, seed).summary
        assert abs(summary["lhs"] - exact) <= 4 * summary["lhs_stderr"], (seed, summary, exact)


def _dn_step(n):
    return measure.RadialStepFn(np.array([measure.dn_radius(n)]), np.array([1.0]), n)


def _radial_moment(step, p):
    """∫ |x|^p f(|x|) dx of a radial step density, one annulus at a time."""
    n = step.dim
    inner = np.append(0.0, step.breaks[:-1])
    shells = (step.breaks ** (n + p) - inner ** (n + p)) / (n + p)
    return n * geom.unit_ball_volume(n) * float(np.dot(step.values, shells))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_centroid_of_a_radial_law_is_a_ball(n):
    # c_p^p = E|θ_1|^p · E|X|^p, with E|θ_1|^p = Γ(n/2)Γ((p+1)/2)/(√π Γ((n+p)/2)) on the sphere
    laws = [measure.UniformBodyDensity("Dn", n), _step_law(n)]
    steps = [_dn_step(n), laws[1]]
    for p in (1.0, 2.0, 3.0, 5.5):
        sphere = math.gamma(n / 2) * math.gamma((p + 1) / 2) / (math.sqrt(math.pi) * math.gamma((n + p) / 2))
        for mu, step in zip(laws, steps):
            body = experiments.centroid_body_oracle(mu, p)
            assert isinstance(body, geom.BallBody) and body.dim == n
            assert body.R == pytest.approx((sphere * _radial_moment(step, p)) ** (1 / p), rel=1e-13, abs=0)
    assert isinstance(experiments.centroid_body_oracle(measure.UniformBodyDensity("cube", n), 3.0), geom.SupportOracleBody)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 5.5])
def test_centroid_radius_matches_quad_in_the_plane(p):
    # c_p^p = ∫_0^{2π} |cos θ|^p dθ · ∫_0^∞ f(t) t^{p+1} dt, each by quad with its kink as a breakpoint
    angular = integrate.quad(lambda t: abs(math.cos(t)) ** p, 0.0, math.pi, points=[math.pi / 2], epsabs=0, epsrel=2e-14)[0]
    for mu in (measure.UniformBodyDensity("Dn", 2), _step_law()):
        step = mu if isinstance(mu, measure.RadialStepDensity) else _dn_step(2)
        radial = integrate.quad(lambda t: float(step.eval_radius(t)) * t ** (p + 1), 0.0, step.breaks[-1],
                                points=step.breaks[:-1], epsabs=0, epsrel=2e-14)[0]
        want = (2.0 * angular * radial) ** (1 / p)
        assert experiments.centroid_body_oracle(mu, p).R == pytest.approx(want, rel=1e-13, abs=0)


def test_centroid_radius_out_of_range_is_refused():
    # the sphere moment underflows here; a radius of 0 would make an unbounded polar
    with pytest.raises(ConfigError, match="out of floating-point range"):
        experiments.centroid_body_oracle(measure.UniformBodyDensity("Dn", 300), 1000.0)


def test_centroid_z1_of_d3_is_the_closed_form():
    # in R^3 |θ_1| is uniform on [0, 1] (Archimedes), and E|X| = 3r/4 on D_3: c_1 = 3r/8
    body = experiments.centroid_body_oracle(measure.UniformBodyDensity("Dn", 3), 1.0)
    h = geom.support_values(body, np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]))
    assert np.allclose(h, 3 * measure.dn_radius(3) / 8, rtol=1e-13, atol=0)


def test_centroid_equality_case_is_exact_under_lebesgue():
    # μ = D_3, p = 1: both sides are ν((c_1 B)°) = ω_3 / c_1^3
    rep = experiments.centroid_polar_experiment(
        measure.UniformBodyDensity("Dn", 3), p=1.0, m=measure.LebesgueRestricted(math.inf, 3), budget=50_000, seed=1
    )
    want = geom.unit_ball_volume(3) / (3 * measure.dn_radius(3) / 8) ** 3
    assert rep.verdict
    assert rep.summary["rhs"] == pytest.approx(want, rel=1e-13, abs=0)
    assert rep.summary["lhs"] == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("mR", [math.inf, 10.0])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_newsan_ball_in_four_dimensions_is_equality(R, mR):
    # the left side is exact; the right side's radius t_K is R only up to rounding
    rep = experiments.newsan_experiment(geom.BallBody(R, 4), measure.LebesgueRestricted(mR, 4), budget=50_000, seed=1)
    assert rep.verdict
    assert rep.summary["lhs"] == pytest.approx(rep.summary["rhs"], rel=1e-14, abs=0)


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_ball_comparison_fails_a_radius_one_in_a_billion_too_large(R):
    rep = experiments._ball_comparison(
        geom.BallBody(R, 4), measure.LebesgueRestricted(math.inf, 4), R * (1 + 1e-9), budget=50_000, seed=1, threads=1
    )
    assert not rep.verdict
