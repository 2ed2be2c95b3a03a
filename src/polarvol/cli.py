"""Command-line front end: JSON configs in, report.json + CSV out.

Exit codes: 0 PASS, 1 FAIL, 2 configuration error, 3 I/O failure.
All randomness flows from the config seed (or --seed override); the
--threads flag affects speed only, never results, and report.json is
byte-identical across reruns (wall-clock time is printed, not stored).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import sys
import time
from functools import partial
from itertools import product
from pathlib import Path

import click
import numpy as np

from . import analysis, experiments, geom, measure
from .experiments import ConfigError, ExperimentConfig
from .rng import RngStream
from .volume import polar_measure

EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_IO = 0, 1, 2, 3
BUDGET = 200_000  # the default budget of centroid and newsan


# ---------------------------------------------------------------------------
# config parsing, with field-path diagnostics


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: missing required field")
    return obj[key]


def parse_gauge(obj: dict, N: int, path: str = "gauge"):
    kind = _require(obj, "type", path)
    if kind == "lq":
        q = float(_require(obj, "q", path))
        if not q >= 1:
            raise ConfigError(f"{path}.q: gauge.q must be >= 1")
        return geom.LqBall(q, N)
    raise ConfigError(f"{path}.type: unknown gauge type {kind!r}")


def parse_measure(obj: dict, n: int, path: str = "measure"):
    kind = _require(obj, "kind", path)
    if kind == "lebesgue_ball":
        R = _require(obj, "R", path)
        return measure.LebesgueRestricted(math.inf if R in ("inf", None) else float(R), n)
    if kind == "gaussian":
        return measure.GaussianLike(float(_require(obj, "sigma", path)), n)
    if kind == "power_kernel":
        return measure.PowerKernel(np.asarray(_require(obj, "k_table", path), dtype=float), n)
    raise ConfigError(f"{path}.kind: unknown measure kind {kind!r}")


def parse_density(obj: dict, n: int, path: str = "law"):
    kind = _require(obj, "kind", path)
    shapes = {"uniform_cube": "cube", "uniform_Dn": "Dn", "uniform_simplex": "simplex"}
    if kind in shapes:
        return measure.UniformBodyDensity(shapes[kind], n)
    if kind == "radial_step":
        return measure.RadialStepDensity(
            np.asarray(_require(obj, "breaks", path), dtype=float),
            np.asarray(_require(obj, "values", path), dtype=float),
            n,
        )
    raise ConfigError(f"{path}.kind: unknown density kind {kind!r}")


def parse_body(obj: dict, path: str = "body"):
    kind = _require(obj, "kind", path)
    if kind == "matrix_image":
        cols = np.asarray(_require(obj, "columns", path), dtype=float)
        if cols.ndim != 2:
            raise ConfigError(f"{path}.columns: must be a list of equal-length vectors")
        A = cols.T  # config stores columns as rows of vectors
        gauge = parse_gauge(_require(obj, "gauge", path), A.shape[1], f"{path}.gauge")
        return geom.MatrixImageBody(A, gauge, float(obj.get("r", 0.0)))
    if kind == "ball":
        return geom.BallBody(float(_require(obj, "R", path)), int(_require(obj, "n", path)))
    if kind == "hpolytope":
        return geom.HPolytopeBody(
            np.asarray(_require(obj, "normals", path), dtype=float),
            np.asarray(_require(obj, "offsets", path), dtype=float),
        )
    raise ConfigError(f"{path}.kind: unknown body kind {kind!r}")


def parse_experiment_config(obj: dict) -> ExperimentConfig:
    """Parse and fully validate a loaded expectation/dominance config."""
    n = int(_require(obj, "n", "config"))
    N = int(_require(obj, "N", "config"))
    gauge = parse_gauge(_require(obj, "gauge", "config"), N)
    law = parse_density(_require(obj, "law", "config"), n)
    m = parse_measure(_require(obj, "measure", "config"), n)
    return ExperimentConfig(
        n=n,
        N=N,
        gauge=gauge,
        rball=float(obj.get("r", 0.0)),
        law_x=law,
        m=m,
        trials=int(_require(obj, "trials", "config")),
        budget_per_trial=int(_require(obj, "budget", "config")),
        seed=int(_require(obj, "seed", "config")),
    )


# ---------------------------------------------------------------------------
# named density/function registries for the analytic commands


def named_density(name: str, sigma: float = 1.0):
    """(ψ, support radius, scale): ψ maps an (m, n) batch of points to shape (m,).

    The scale is the radius where ψ falls off: σ for the Gaussian, 1 for
    the indicators.

    Each row gets the arithmetic of a one-point evaluation: `np.vecdot`
    runs the same dot kernel as `np.dot(x, x)`, and the Gaussian takes
    `math.exp` per row, because `np.exp` rounds differently.
    """
    if name == "gaussian":
        c = 2 * sigma * sigma
        if not (sigma > 0 and sys.float_info.min <= c < math.inf):
            # a subnormal 2σ² loses bits, and one that underflows divides by 0
            raise ConfigError("sigma: must be > 0 with 2·sigma² a normal float")
        return lambda X: np.array([math.exp(-d / c) for d in np.vecdot(X, X).tolist()]), 12.0 * sigma, sigma
    if name == "uniform_square":
        return lambda X: np.all(np.abs(X) <= 1.0, axis=1).astype(float), 2.0, 1.0
    if name == "uniform_ball":
        return lambda X: (np.vecdot(X, X) <= 1.0).astype(float), 2.0, 1.0
    raise ConfigError(f"density: unknown named density {name!r}")


def named_brunn_phi(name: str):
    if name == "sqrt_quadratic":
        return lambda t, x: math.sqrt(1.0 + t * t + float(np.dot(x, x)))
    if name == "exp_abs":
        return lambda t, x: math.exp(abs(t) + float(np.linalg.norm(x)))
    if name == "constant_slab":
        return lambda t, x: 1.0 if float(np.dot(x, x)) <= 1.0 else math.inf
    raise ConfigError(f"phi: unknown named profile function {name!r}")


# ---------------------------------------------------------------------------
# commands: each runs on the loaded config (overrides applied) and
# returns (config echo, verdict, summary, trials.csv text, summary line)


def _experiment(obj: dict, threads: int, mode: str, experiment):
    """The command fixes the mode: a config may leave it out, never name another."""
    if obj.setdefault("mode", mode) != mode:
        raise ConfigError(f"config.mode: this command runs mode {mode!r}")
    report = experiment(parse_experiment_config(obj), threads)
    line = json.dumps(report.summary, sort_keys=True, default=str)[:200]
    return obj, report.verdict, report.summary, report.to_csv(), line


def run_santalo(obj: dict, threads: int):
    """Expectation comparison against the uniform-ball extremizer."""
    return _experiment(obj, threads, "expectation", experiments.santalo_expectation_experiment)


def run_dominance(obj: dict, threads: int):
    """Stochastic dominance against the uniform-ball extremizer: one exact one-sided Smirnov test."""
    return _experiment(obj, threads, "dominance", experiments.stochastic_dominance_experiment)


def run_polar_volume(obj: dict, threads: int):
    """Estimate of nu(K°), exact where polar_measure allows; FAIL when value or stderr is not finite."""
    body = parse_body(_require(obj, "body", "config"))
    m = parse_measure(_require(obj, "measure", "config"), body.dim)
    rng = RngStream(int(obj.get("seed", 0)), 0)
    est = polar_measure(body, m, int(obj.get("budget", 10 ** 6)), rng, threads)
    verdict = math.isfinite(est.value) and math.isfinite(est.stderr)
    return obj, verdict, dataclasses.asdict(est), "", f"value={est.value:.6g} stderr={est.stderr:.3g}"


def run_converge(obj: dict, threads: int):
    """Exact polar volumes along a growing random path."""
    report = experiments.convergence_experiment(
        n=int(_require(obj, "n", "config")),
        seed=int(obj.get("seed", 0)),
        schedule=obj.get("schedule", (4, 8, 16, 32, 64, 128, 256, 512)),
        band=float(obj.get("band", 0.05)),
    )
    line = f"rel_err={report.summary['relative_error']:.4f}"
    return obj, report.verdict, report.summary, report.to_csv(), line


def run_shadow(obj: dict, threads: int):
    """Shadow-system profile with evenness/convexity verdicts."""
    n = int(_require(obj, "n", "config"))
    base = np.asarray(_require(obj, "base_positions", "config"), dtype=float)
    if base.ndim != 2:
        raise ConfigError("config.base_positions: must be a list of equal-length vectors")
    theta = np.asarray(_require(obj, "theta", "config"), dtype=float)
    gauge = parse_gauge(_require(obj, "gauge", "config"), base.shape[0])
    m = parse_measure(_require(obj, "measure", "config"), n)
    cfg = analysis.ShadowConfig(theta, base, gauge, float(obj.get("r", 0.0)), m)
    direction = np.asarray(_require(obj, "direction", "config"), dtype=float)
    if direction.shape != (base.shape[0],) or not np.isfinite(direction).all():
        raise ConfigError("config.direction: needs one finite number per base position")
    t_grid = np.asarray(_require(obj, "t_grid", "config"), dtype=float)
    if not np.isfinite(t_grid).all():
        raise ConfigError("config.t_grid: must be finite")
    rng = RngStream(int(obj.get("seed", 0)), 0)
    report = analysis.shadow_profile(cfg, direction, t_grid, int(obj.get("budget", 10 ** 5)), rng, threads)
    verdict = bool(report.even) and bool(report.midpoint_convex)
    return obj, verdict, report.verdict(), report.to_csv(), f"worst_violation={report.worst_violation:.3g}"


def run_busemann(obj: dict, threads: int):
    """Triangle-inequality battery for the hyperplane-mass gauge."""
    psi, radius, scale = named_density(_require(obj, "density", "config"), float(obj.get("sigma", 1.0)))
    pairs = int(obj.get("pairs", 200))
    if pairs < 1:
        raise ConfigError("pairs: must be >= 1")
    seed = int(obj.get("seed", 0))
    gen = RngStream(seed, 0).generator()
    hypothesis_ok = analysis.spot_check_neg_recip_concavity(psi, 2, RngStream(seed, 1), radius=scale)
    z1, z2 = gen.uniform(-1.0, 1.0, size=(pairs, 2, 2)).transpose(1, 0, 2)
    zs = np.stack([z1, z2, z1 + z2])
    # a pair with a near-zero z1, z2 or z1 + z2 is dropped
    kept = ~np.any(np.sqrt(np.vecdot(zs, zs)) < 1e-6, axis=0)
    f1, f2, f12 = analysis.busemann_gauge(psi, zs[:, kept].reshape(-1, 2), radius).reshape(3, -1)
    worst = float(np.max(f12 - f1 - f2, initial=-math.inf))
    summary = {"worst_violation": worst, "pairs": pairs, "hypothesis_verified": hypothesis_ok}
    return obj, worst <= 1e-6, summary, "", f"worst={worst:.3g}"


def radial_gauge(density: str, sigma: float, p: float):
    """x -> F at each row of a stack x, by one `ball_bobkov_gauge` call.

    The integral runs over the r where f(r x) > 0.  An indicator ends at
    its jump, r = 1/|x|_inf (square) or 1/|x| (ball); the Gaussian goes out
    to |r x| = 10 support radii, r = 10·radius/|x|.  Each switches
    variables at its scale from `named_density`.
    """
    psi, radius, scale = named_density(density, sigma)
    ends = {
        "uniform_square": lambda x: 1.0 / np.abs(x).max(axis=1),
        "uniform_ball": lambda x: 1.0 / np.sqrt(np.vecdot(x, x)),
    }
    end = ends.get(density, lambda x: 10.0 * radius / np.sqrt(np.vecdot(x, x)))
    return lambda x: analysis.ball_bobkov_gauge(psi, p, x, end(x), scale)


def run_gauge(obj: dict, threads: int):
    """Homogeneity battery for the radial-integral gauges: max |F(λx) − λF(x)| / λF(x)."""
    p = float(obj.get("p", 1.0))
    gauge = radial_gauge(_require(obj, "density", "config"), float(obj.get("sigma", 1.0)), p)
    checks = int(obj.get("checks", 100))
    if checks < 1:
        raise ConfigError("checks: must be >= 1")
    gen = RngStream(int(obj.get("seed", 0)), 0).generator()
    xs, lams = [], []
    for _ in range(checks):
        x = gen.uniform(-1.0, 1.0, size=2)
        if np.linalg.norm(x) < 1e-3:
            continue
        xs.append(x)
        lams.append(float(gen.uniform(0.5, 3.0)))
    x, lam = np.array(xs).reshape(-1, 2), np.array(lams)
    fx, flx = gauge(np.concatenate([x, lam[:, None] * x])).reshape(2, -1)
    worst = float(np.max(np.abs(flx - lam * fx) / (lam * fx), initial=0.0))
    return obj, worst <= 1e-9, {"worst_relative_error": worst, "p": p}, "", f"worst={worst:.3g}"


def run_brunn(obj: dict, threads: int):
    """Convexity of the integral profile of a positive convex function."""
    report = analysis.brunn_profile(
        named_brunn_phi(_require(obj, "phi", "config")),
        alpha=float(obj.get("alpha", 1.0)),
        n=int(obj.get("n", 1)),
        t_grid=np.asarray(obj.get("t_grid", np.linspace(-2, 2, 9)), dtype=float),
        domain_radius=float(obj.get("domain_radius", 30.0)),
    )
    line = f"worst_violation={report.worst_violation:.3g}"
    return obj, bool(report.midpoint_convex), report.verdict(), report.to_csv(), line


def run_rbll(obj: dict, threads: int):
    """Exhaustive small-family check of the 1-D rearrangement inequality."""
    shifts = obj.get("shifts", [-2, -1, 0, 1, 2])
    if len(shifts) < 1:
        raise ConfigError("shifts: must list at least one shift")
    if not all(math.isfinite(float(a)) for a in shifts):
        raise ConfigError("shifts: every shift must be finite")
    box = float(obj.get("box", 6.0))
    worst = -math.inf
    cases = 0
    for k in (1, 2, 3):
        coeffs = np.array(list(product([-1.0, 0.0, 1.0], repeat=k * 2))).reshape(-1, k, 2)
        for placement in product(shifts, repeat=k):
            gs = [analysis.Step1D(np.array([float(a), float(a) + 1.0]), np.array([1.0])) for a in placement]
            res = analysis.rbll_check_1d(gs, coeffs, box_halfwidth=box)
            gaps = [lhs - rhs for lhs, rhs in zip(res["lhs"], res["rhs"])]
            worst = max(worst, *gaps)
            cases += len(coeffs)
    return obj, worst <= 1e-9, {"cases": cases, "worst_gap": worst}, "", f"cases={cases} worst={worst:.3g}"


def _comparison(obj: dict, report):
    line = f"lhs={report.summary['lhs']:.6g} rhs={report.summary['rhs']:.6g}"
    return obj, report.verdict, report.summary, report.to_csv(), line


def run_centroid(obj: dict, threads: int):
    """Moment-body polar comparison against the uniform-ball law."""
    n = int(_require(obj, "n", "config"))
    if n < 1:
        raise ConfigError("config.n: must be >= 1")
    report = experiments.centroid_polar_experiment(
        parse_density(_require(obj, "law", "config"), n),
        p=float(_require(obj, "p", "config")),
        m=parse_measure(_require(obj, "measure", "config"), n),
        budget=int(obj.get("budget", BUDGET)),
        seed=int(obj.get("seed", 0)),
        threads=threads,
    )
    return _comparison(obj, report)


def run_newsan(obj: dict, threads: int):
    """Polar-measure comparison of a body against its volume-matched ball."""
    body = parse_body(_require(obj, "body", "config"))
    report = experiments.newsan_experiment(
        body,
        parse_measure(_require(obj, "measure", "config"), body.dim),
        budget=int(obj.get("budget", BUDGET)),
        seed=int(obj.get("seed", 0)),
        threads=threads,
    )
    return _comparison(obj, report)


COMMANDS = {
    "santalo": run_santalo,
    "dominance": run_dominance,
    "polar-volume": run_polar_volume,
    "converge": run_converge,
    "shadow": run_shadow,
    "busemann": run_busemann,
    "gauge": run_gauge,
    "brunn": run_brunn,
    "rbll": run_rbll,
    "centroid": run_centroid,
    "newsan": run_newsan,
}


# ---------------------------------------------------------------------------
# the one runner: load, override, run, write, exit code


def run_command(command: str, config_path, out_dir, seed, budget, threads) -> None:
    """Run one COMMANDS entry; exit 0 PASS, 1 FAIL, 2 config error, 3 I/O error.

    --seed/--budget go into the config before the command runs, so the
    echoed config shows the values that ran.  Malformed values raise
    ValueError (bad JSON, ConfigError, GeometryError, MeasureError),
    TypeError (a wrong JSON type) or OverflowError ("budget": 1e400).
    """
    t0 = time.perf_counter()
    try:
        obj = json.loads(Path(config_path).read_text())
        if not isinstance(obj, dict):
            raise ConfigError("config: must be a JSON object")
        if seed is not None:
            obj["seed"] = seed
        if budget is not None:
            obj["budget"] = budget
        config, verdict, summary, csv_text, line = COMMANDS[command](obj, threads)
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(EXIT_IO)
    except (ValueError, TypeError, OverflowError) as e:
        click.echo(f"error: {type(e).__name__}: {e}", err=True)
        sys.exit(EXIT_CONFIG)
    payload = {
        "command": command,
        "config": config,
        "verdict": "PASS" if verdict else "FAIL",
        "summary": summary,
        "timing": None,  # wall clock printed, not stored: reports must be byte-identical
    }
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        if csv_text:
            (out / "trials.csv").write_text(csv_text)
    except OSError as e:
        click.echo(f"error: cannot write outputs: {e}", err=True)
        sys.exit(EXIT_IO)
    click.echo(f"{command}: {payload['verdict']} {line} ({time.perf_counter() - t0:.2f}s)")
    sys.exit(EXIT_PASS if verdict else EXIT_FAIL)


def common_options(f):
    f = click.option("--threads", default=1, type=click.IntRange(min=1), help="speed only; never affects results")(f)
    f = click.option("--budget", default=None, type=int, help="override config budget")(f)
    f = click.option("--seed", default=None, type=int, help="override config seed")(f)
    f = click.option("--out", "out_dir", default="out", type=click.Path())(f)
    return click.option("--config", "config_path", required=True, type=click.Path())(f)


@click.group()
def main():
    """Estimators and experiments for measures of polar bodies."""


for _command, _run in COMMANDS.items():
    main.command(_command, help=_run.__doc__)(common_options(partial(run_command, _command)))

# The import heap (numpy, scipy, click: about 46 000 tracked objects) lives as
# long as the process.  Moving it to the permanent generation keeps full
# collections from rescanning it, so whether one lands inside a command no
# longer depends on how much was imported.  Once, here: a freeze per command
# would also pin each earlier command's uncollected garbage in a host that
# runs many.
gc.freeze()


if __name__ == "__main__":
    main()
