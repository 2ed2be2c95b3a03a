"""Acceptance gate: one printed PASS/FAIL line per criterion.

Tolerances are pinned here and intentionally not shared with library
defaults; run with -s (default via addopts) to see the lines.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from polarvol import analysis, experiments, geom, measure, volume
from polarvol.cli import main
from polarvol.experiments import ExperimentConfig
from polarvol.rng import RngStream


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_ball_polar_closed_form():
    t0 = time.perf_counter()
    d2 = geom.BallBody(measure.dn_radius(2), 2)
    leb = measure.LebesgueRestricted(math.inf, 2)
    est = volume.mc_polar_measure(d2, leb, 10 ** 6, RngStream(1, 0), threads=1)
    elapsed = time.perf_counter() - t0
    ok = abs(est.value - math.pi ** 2) <= 3 * est.stderr + 1e-12 and elapsed < 10.0
    report(1, ok, f"value={est.value:.9f} target={math.pi ** 2:.9f} stderr={est.stderr:.2e} time={elapsed:.2f}s")


def test_criterion_02_exact_oracle_agreement():
    leb = {n: measure.LebesgueRestricted(math.inf, n) for n in (2, 3)}
    hits = 0
    gen = RngStream(2024, 0).generator()
    for case in range(50):
        n = 2 if case % 2 == 0 else 3
        N = int(gen.integers(n + 1, 7))
        pts = gen.standard_normal((N, n))
        try:
            exact = volume.exact_polar_volume_crosspoly(pts)
        except geom.UnboundedBody:
            pts += 0.5 * np.eye(N, n)
            exact = volume.exact_polar_volume_crosspoly(pts)
        body = geom.MatrixImageBody(pts.T, geom.LqBall(1.0, N), 0.0)
        est = volume.mc_polar_measure(body, leb[n], 200_000, RngStream(2024, case + 1))
        if abs(est.value - exact) <= 3 * est.stderr:
            hits += 1
    report(2, hits >= 47, f"{hits}/50 cases within 3 stderr (need >= 47)")


def _theorem_config(m, trials: int, budget: int, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        n=2, N=4, gauge=geom.LqBall(1.0, 4), rball=0.0,
        law_x=measure.UniformBodyDensity("cube", 2), m=m,
        trials=trials, budget_per_trial=budget, seed=seed,
    )


def test_criterion_03_expectation_desk_scale():
    t0 = time.perf_counter()
    cfg = _theorem_config(measure.LebesgueRestricted(5.0, 2), 2000, 10 ** 5, 101)
    rep = experiments.santalo_expectation_experiment(cfg, threads=4)
    elapsed = time.perf_counter() - t0
    s = rep.summary
    ok = rep.verdict and elapsed < 900.0
    report(3, ok, f"mean_Z-mean_X={s['margin']:.4f} >= {s['threshold']:.4f} time={elapsed:.0f}s")


def test_criterion_04_stochastic_dominance():
    cfg = _theorem_config(measure.LebesgueRestricted(5.0, 2), 2000, 10 ** 5, 101)
    rep = experiments.stochastic_dominance_experiment(cfg, threads=4)
    s = rep.summary
    report(4, rep.verdict, f"D+={s['statistic']:.4f} p={s['pvalue']:.4f} over {s['trials']} trials (PASS iff p >= 0.01)")


def test_criterion_05_shadow_profile_exact_convexity():
    theta = np.array([0.0, 1.0])
    base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.4, 0.0]])
    cfg = analysis.ShadowConfig(theta, base, geom.LqBall(1.0, 3), 0.0, measure.LebesgueRestricted(math.inf, 2))
    rep = analysis.shadow_profile(
        cfg, np.array([1.0, -1.0, 0.5]), np.linspace(-2.0, 2.0, 11), 0, RngStream(0, 0)
    )
    ok = bool(rep.even) and bool(rep.midpoint_convex) and rep.worst_violation <= 1e-9
    report(5, ok, f"even={rep.even} convex={rep.midpoint_convex} worst={rep.worst_violation:.2e} (tol 1e-9)")


def test_criterion_06_busemann_triangle_and_gaussian():
    square = lambda X: np.all(np.abs(X) <= 1.0, axis=1).astype(float)
    gen = RngStream(6, 0).generator()
    pairs = []
    while len(pairs) < 200:
        z1, z2 = gen.uniform(-1, 1, 2), gen.uniform(-1, 1, 2)
        if min(np.linalg.norm(z1), np.linalg.norm(z2), np.linalg.norm(z1 + z2)) < 1e-3:
            continue
        pairs.append((z1, z2))
    z1, z2 = np.array(pairs).transpose(1, 0, 2)
    f1, f2, f12 = analysis.busemann_gauge(square, np.concatenate([z1, z2, z1 + z2]), 2.0).reshape(3, -1)
    worst = float(np.max(f12 - f1 - f2))
    gauss = lambda X: np.exp(-np.sum(X * X, axis=1) / 2.0)
    zs = np.array([z for z in (gen.uniform(-2, 2, 2) for _ in range(20)) if np.linalg.norm(z) >= 1e-3])
    gerr = float(np.max(np.abs(analysis.busemann_gauge(gauss, zs) - np.linalg.norm(zs, axis=1) / math.sqrt(2 * math.pi))))
    ok = worst <= 1e-6 and gerr <= 1e-6
    report(6, ok, f"triangle worst={worst:.2e} (tol 1e-6), gaussian error={gerr:.2e} (tol 1e-6)")


def test_criterion_07_rbll_exhaustive_family():
    shifts = (-1.0, 0.0, 1.0)
    coeff_choices = (-1.0, 0.0, 1.0)
    worst = -math.inf
    eq_worst = 0.0
    cases = 0
    for k in (1, 2, 3):
        coeffs = np.array(list(itertools.product(coeff_choices, repeat=2 * k))).reshape(-1, k, 2)
        for placement in itertools.product(shifts, repeat=k):
            gs = [analysis.Step1D(np.array([a, a + 1.0]), np.array([1.0])) for a in placement]
            symmetric = all(a == -0.5 for a in placement)
            res = analysis.rbll_check_1d(gs, coeffs, box_halfwidth=6.0)
            for lhs, rhs in zip(res["lhs"], res["rhs"]):
                worst = max(worst, lhs - rhs)
                if symmetric:
                    eq_worst = max(eq_worst, abs(lhs - rhs))
                cases += 1
    ok = worst <= 1e-9 and eq_worst <= 1e-9
    report(7, ok, f"{cases} cases, worst lhs-rhs={worst:.2e} (tol 1e-9), symmetric-equality gap={eq_worst:.2e}")


def test_criterion_08_rearrangement_exactness():
    gen = RngStream(8, 0).generator()
    worst_level = 0.0
    worst_norm = 0.0
    for _ in range(40):
        k = int(gen.integers(1, 6))
        breaks = np.sort(gen.uniform(0.1, 3.0, k))
        breaks += 1e-3 * np.arange(k)  # strictly increasing
        values = gen.uniform(0.0, 1.0, k)
        f = measure.RadialStepFn(breaks, values, int(gen.integers(1, 4)))
        star = measure.rearrange_density(f)
        for alpha in np.unique(np.concatenate([values * 0.5, values * 0.999, [0.0]])):
            worst_level = max(worst_level, abs(f.level_set_volume(alpha) - star.level_set_volume(alpha)))
        for p in (1.0, 2.0, math.inf):
            worst_norm = max(worst_norm, abs(f.lp_norm(p) - star.lp_norm(p)))
    ok = worst_level <= 1e-9 and worst_norm <= 1e-9
    report(8, ok, f"equimeasurability gap={worst_level:.2e}, Lp gap={worst_norm:.2e} (tol 1e-9)")


def test_criterion_09_convergence_band():
    # band re-pinned to 0.04 after a pilot over seeds 0-7 (max observed 0.030)
    rep = experiments.convergence_experiment(n=2, seed=7, schedule=(4, 8, 16, 32, 64, 128, 256, 512), band=0.04)
    s = rep.summary
    ok = rep.verdict and s["monotone"] and s["relative_error"] <= 0.04
    report(9, ok, f"monotone={s['monotone']} final rel err={s['relative_error']:.4f} (band 0.04)")


def test_criterion_10_determinism_across_threads(tmp_path):
    runner = CliRunner()
    cfgs = {
        "santalo": {"mode": "expectation", "n": 2, "N": 4, "gauge": {"type": "lq", "q": 1.0}, "r": 0.0,
                    "law": {"kind": "uniform_cube"}, "measure": {"kind": "lebesgue_ball", "R": 5.0},
                    "trials": 8, "budget": 3000, "seed": 5},
        "dominance": {"mode": "dominance", "n": 2, "N": 4, "gauge": {"type": "lq", "q": 1.0}, "r": 0.0,
                      "law": {"kind": "uniform_cube"}, "measure": {"kind": "gaussian", "sigma": 1.0},
                      "trials": 8, "budget": 3000, "seed": 5},
        "polar-volume": {"body": {"kind": "ball", "R": 1.0, "n": 2},
                         "measure": {"kind": "lebesgue_ball", "R": "inf"}, "budget": 20000, "seed": 1},
        "converge": {"n": 2, "seed": 2, "schedule": [4, 8, 16, 32], "band": 0.5},
        "shadow": {"n": 2, "theta": [0.0, 1.0], "base_positions": [[1.0, 0.0], [-1.0, 0.0]],
                   "direction": [1.0, 1.0], "gauge": {"type": "lq", "q": 1.0}, "r": 0.0,
                   "measure": {"kind": "lebesgue_ball", "R": "inf"},
                   "t_grid": [-2.0, -1.0, 0.0, 1.0, 2.0], "budget": 0, "seed": 0},
        "busemann": {"density": "gaussian", "pairs": 10, "seed": 3},
        "gauge": {"density": "gaussian", "p": 2.0, "checks": 10, "seed": 3},
        "brunn": {"phi": "sqrt_quadratic", "alpha": 3.0, "n": 1,
                  "t_grid": [-1.0, -0.5, 0.0, 0.5, 1.0], "domain_radius": 30.0},
        "rbll": {"shifts": [0], "box": 5.0},
        "centroid": {"n": 2, "p": 2.0, "law": {"kind": "uniform_cube"},
                     "measure": {"kind": "lebesgue_ball", "R": "inf"}, "budget": 20000, "seed": 1},
        "newsan": {"body": {"kind": "ball", "R": 1.0, "n": 2},
                   "measure": {"kind": "gaussian", "sigma": 1.0}, "budget": 20000, "seed": 2},
    }
    mismatched = []
    for cmd, cfg in cfgs.items():
        path = tmp_path / f"{cmd}.json"
        path.write_text(json.dumps(cfg))
        blobs = []
        for tag, threads in (("a", "1"), ("b", "4")):
            out = tmp_path / f"{cmd}-{tag}"
            res = runner.invoke(main, [cmd, "--config", str(path), "--out", str(out), "--threads", threads])
            assert res.exit_code in (0, 1), f"{cmd}: exit {res.exit_code}: {res.output}"
            blobs.append((out / "report.json").read_bytes())
        if blobs[0] != blobs[1]:
            mismatched.append(cmd)
    ok = not mismatched
    report(10, ok, f"byte-identical report.json for all {len(cfgs)} commands across --threads" +
           (f"; mismatches: {mismatched}" if mismatched else ""))


def test_criterion_11_null_calibration():
    fails = 0
    for seed in range(100):
        cfg = ExperimentConfig(
            n=2, N=4, gauge=geom.LqBall(1.0, 4), rball=0.0,
            law_x=measure.UniformBodyDensity("Dn", 2),
            m=measure.LebesgueRestricted(5.0, 2),
            trials=50, budget_per_trial=4000, seed=seed,
        )
        rep = experiments.santalo_expectation_experiment(cfg, threads=4)
        if not rep.verdict:
            fails += 1
    report(11, fails <= 1, f"false-FAIL rate {fails}/100 under X = Z in law (allow <= 1)")


def test_criterion_12_dominance_null_calibration():
    # the bound is the binomial tail at the test's level, fixed before the run: P(Bin(100, 0.01) >= 5) = 0.34%
    fails = 0
    for seed in range(100):
        cfg = ExperimentConfig(
            n=2, N=4, gauge=geom.LqBall(1.0, 4), rball=0.0,
            law_x=measure.UniformBodyDensity("Dn", 2),
            m=measure.GaussianLike(1.0, 2),
            trials=200, budget_per_trial=4000, seed=seed,
        )
        rep = experiments.stochastic_dominance_experiment(cfg, threads=4)
        if not rep.verdict:
            fails += 1
    report(12, fails <= 4, f"false-FAIL rate {fails}/100 under X = Z in law at alpha 0.01 (allow <= 4)")
