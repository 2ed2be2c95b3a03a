import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import polarvol
from polarvol import analysis, cli, experiments, geom, volume
from polarvol.cli import main, parse_experiment_config
from polarvol.experiments import ConfigError
from polarvol.rng import RngStream
from polarvol.volume import Estimate

BASE = {
    "mode": "expectation",
    "n": 2,
    "N": 4,
    "gauge": {"type": "lq", "q": 1.0},
    "r": 0.0,
    "law": {"kind": "uniform_cube"},
    "measure": {"kind": "lebesgue_ball", "R": 5.0},
    "trials": 12,
    "budget": 4000,
    "seed": 11,
}


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False, standalone_mode=False)


def invoke(args):
    return CliRunner().invoke(main, args)


def write_cfg(tmp_path, obj, name="c.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_parse_minimal_expectation_config():
    # the command fixes the mode, so the parser neither needs nor reads it
    cfg = parse_experiment_config({k: v for k, v in BASE.items() if k != "mode"})
    assert cfg == parse_experiment_config(BASE)
    assert cfg.n == 2 and cfg.N == 4 and cfg.trials == 12


def test_parse_rejects_small_q_with_field_path():
    bad = dict(BASE, gauge={"type": "lq", "q": 0.5})
    with pytest.raises(ConfigError, match="gauge.q"):
        parse_experiment_config(bad)


def test_parse_accepts_gaussian_dominance():
    cfg = parse_experiment_config(dict(BASE, mode="dominance", measure={"kind": "gaussian", "sigma": 1.0}))
    rep = experiments.stochastic_dominance_experiment(dataclasses.replace(cfg, trials=5, budget_per_trial=500))
    assert rep.summary["trials"] == 5


def test_config_without_mode_runs_and_echoes_it(tmp_path):
    cfg = {k: v for k, v in dict(BASE, trials=5, budget=500).items() if k != "mode"}
    for command, mode in (("santalo", "expectation"), ("dominance", "dominance")):
        out = tmp_path / command
        res = invoke([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert res.exit_code in (0, 1), res.output
        assert json.loads((out / "report.json").read_text())["config"] == dict(cfg, mode=mode)


def fresh_python(code: str, *args) -> str:
    """Run `code` in a new interpreter that imports this checkout's polarvol; returns its stdout."""
    src = str(Path(polarvol.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


LAZY = ("scipy.stats", "scipy.optimize", "scipy.integrate")
# the benchmark's warm-up op: an H-polytope newsan under the Gaussian
WARMUP_NEWSAN = {
    "body": {"kind": "hpolytope", "normals": [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1],
                                              [-1, 1, 1], [-1, 1, -1], [-1, -1, 1], [-1, -1, -1]],
             "offsets": [1.0] * 8},
    "measure": {"kind": "gaussian", "sigma": 1.0}, "budget": 512, "seed": 0,
}


def test_importing_the_cli_leaves_scipy_stats_out(tmp_path):
    # every fresh process that runs a command pays these imports again: about 0.5 s for
    # scipy.stats, 0.13 s for scipy.optimize and 0.05 s for scipy.integrate
    code = (
        "import gc, json, sys\n"
        "import polarvol.cli\n"
        f"lazy = {LAZY!r}\n"
        "print(json.dumps([m for m in lazy if m in sys.modules]))\n"
        "try:\n"
        "    polarvol.cli.main(['newsan', '--config', sys.argv[1], '--out', sys.argv[2]], standalone_mode=False)\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0, e.code\n"
        "print(json.dumps([m for m in lazy if m in sys.modules]))\n"
        "print(gc.get_freeze_count())\n"
    )
    out = fresh_python(code, write_cfg(tmp_path, WARMUP_NEWSAN), str(tmp_path / "o")).splitlines()
    assert json.loads(out[0]) == [] and json.loads(out[-2]) == []
    assert int(out[-1]) > 0  # the import heap is frozen out of the collector


def test_halfspace_vertices_imports_linprog_where_it_needs_it():
    # an offset <= 0 puts the origin outside the open polytope, so the Chebyshev centre runs
    code = (
        "import sys, numpy as np\n"
        "from polarvol import geom\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])\n"
        "V = geom.HPolytopeBody(A, np.array([2.0, 0.0, 1.0, 1.0])).vertices\n"
        "print(sorted(map(tuple, np.round(V, 12).tolist())), 'scipy.optimize' in sys.modules)\n"
    )
    assert fresh_python(code).strip() == "[(0.0, -1.0), (0.0, 1.0), (2.0, -1.0), (2.0, 1.0)] True"


def test_brunn_imports_integrate_where_it_needs_it(tmp_path):
    cfg = {"phi": "sqrt_quadratic", "alpha": 3.0, "n": 1, "t_grid": [-1.0, 0.0, 1.0], "domain_radius": 30.0}
    code = (
        "import sys, polarvol.cli\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "try:\n"
        "    polarvol.cli.main(['brunn', '--config', sys.argv[1], '--out', sys.argv[2]], standalone_mode=False)\n"
        "except SystemExit as e:\n"
        "    print(e.code, 'scipy.integrate' in sys.modules)\n"
    )
    out = fresh_python(code, write_cfg(tmp_path, cfg), str(tmp_path / "o"))
    assert out.splitlines()[-1] == "0 True"
    assert json.loads((tmp_path / "o" / "report.json").read_text())["verdict"] == "PASS"


def test_cli_exit_code_config_error(tmp_path):
    path = write_cfg(tmp_path, dict(BASE, gauge={"type": "lq", "q": 0.5}))
    res = invoke(["santalo", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2


def test_cli_exit_code_io_error(tmp_path):
    res = invoke(["santalo", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3


def test_cli_rejects_unknown_flag(tmp_path):
    path = write_cfg(tmp_path, BASE)
    res = invoke(["santalo", "--config", path, "--frobnicate"])
    assert res.exit_code != 0


def test_polar_volume_cross_polytope(tmp_path):
    cfg = {
        "body": {
            "kind": "matrix_image",
            "columns": [[1.0, 0.0], [0.0, 1.0]],
            "gauge": {"type": "lq", "q": 1.0},
            "r": 0.0,
        },
        "measure": {"kind": "lebesgue_ball", "R": "inf"},
        "budget": 150000,
        "seed": 1,
    }
    out = tmp_path / "o"
    res = invoke(["polar-volume", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert res.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "polar-volume"
    assert set(report) == {"command", "config", "verdict", "summary", "timing"}
    assert abs(report["summary"]["value"] - 4.0) <= 3 * report["summary"]["stderr"]


PV_PLANE = {
    "body": {"kind": "matrix_image", "columns": [[0.9, 0.2], [-0.3, 0.7], [0.4, -0.8]],
             "gauge": {"type": "lq", "q": 1.0}, "r": 0.0},
    "measure": {"kind": "lebesgue_ball", "R": 1.5},
    "budget": 5000,
    "seed": 3,
}


# (config, samples): a planar cross-polytope image under Lebesgue or Gaussian
# measure is exact; columns that do not span, and q > 1, stay Monte Carlo
@pytest.mark.parametrize("cfg,samples", [
    (PV_PLANE, 0),
    (dict(PV_PLANE, measure={"kind": "gaussian", "sigma": 0.5}), 0),
    (dict(PV_PLANE, measure={"kind": "lebesgue_ball", "R": "inf"}), 0),
    (dict(PV_PLANE, body=dict(PV_PLANE["body"], columns=[[1.0, 0.0], [2.0, 0.0]]),
          measure={"kind": "gaussian", "sigma": 1.0}), 5000),
    (dict(PV_PLANE, body=dict(PV_PLANE["body"], gauge={"type": "lq", "q": 2.0})), 5000),
])
def test_polar_volume_in_the_plane(tmp_path, cfg, samples):
    out = tmp_path / "o"
    res = invoke(["polar-volume", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads((out / "report.json").read_text())["summary"]
    assert summary["samples"] == samples and summary["value"] > 0
    assert (summary["stderr"] == 0.0) == (samples == 0)


def test_santalo_reports_identical_across_runs_and_threads(tmp_path):
    path = write_cfg(tmp_path, BASE)
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        res = invoke(["santalo", "--config", path, "--out", str(out), "--threads", threads])
        assert res.exit_code in (0, 1)
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


PV_BALL = {
    "body": {"kind": "ball", "R": 1.0, "n": 2},
    "measure": {"kind": "gaussian", "sigma": 1.0},
    "budget": 5000,
    "seed": 11,
}


def test_seed_override_changes_report(tmp_path):
    # the echoed config shows the seed that ran, for every command kind
    busemann = {"density": "gaussian", "pairs": 3, "seed": 11}
    for command, cfg in (("santalo", BASE), ("polar-volume", PV_BALL), ("busemann", busemann)):
        path = write_cfg(tmp_path, cfg, f"{command}.json")
        out1, out2 = tmp_path / command / "s1", tmp_path / command / "s2"
        assert invoke([command, "--config", path, "--out", str(out1)]).exit_code in (0, 1)
        assert invoke([command, "--config", path, "--out", str(out2), "--seed", "99"]).exit_code in (0, 1)
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["config"]["seed"] == 11 and r2["config"]["seed"] == 99, command
        assert r1["summary"] != r2["summary"], command


def test_budget_override_is_echoed(tmp_path):
    out = tmp_path / "o"
    # the ball polar is exact and draws nothing, so the square runs Monte Carlo
    cfg = dict(PV_BALL, body=SQUARE)
    res = invoke(["polar-volume", "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--budget", "300"])
    assert res.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["budget"] == 300 and report["summary"]["samples"] == 300


SHADOW = {
    "n": 2,
    "theta": [0.0, 1.0],
    "base_positions": [[1.0, 0.0], [-1.0, 0.0]],
    "direction": [1.0, 1.0],
    "gauge": {"type": "lq", "q": 1.0},
    "r": 0.0,
    "measure": {"kind": "lebesgue_ball", "R": "inf"},
    "t_grid": [-2.0, -1.0, 0.0, 1.0, 2.0],
    "budget": 0,
    "seed": 0,
}

NAN, INF = float("nan"), float("inf")
SQUARE = {"kind": "hpolytope", "normals": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
          "offsets": [1.0, 1.0, 1.0, 1.0]}

# malformed values that must end in exit 2 (config error), never a traceback
BAD_VALUES = [
    ("santalo", dict(BASE, budget="lots")),
    ("dominance", dict(BASE, mode="dominance", trials="many")),
    ("polar-volume", dict(PV_BALL, budget="lots")),
    ("polar-volume", dict(PV_BALL, body={"kind": "ball", "R": 1.0, "n": 0})),
    ("polar-volume", dict(PV_BALL, measure={"kind": "gaussian", "sigma": float("nan")})),
    ("polar-volume", dict(PV_BALL, budget=0)),
    ("polar-volume", dict(PV_BALL, budget=None)),
    ("polar-volume", dict(PV_BALL, budget=1e400)),
    ("polar-volume", dict(PV_BALL, body={"kind": "matrix_image", "columns": [[1.0, 0.0], [0.0, 1.0]],
                                         "gauge": {"type": "lq", "q": float("nan")}})),
    ("polar-volume", dict(PV_BALL, body={"kind": "matrix_image", "columns": [[1.0, 0.0], [0.0, 1.0]],
                                         "gauge": {"type": "lq", "q": 1.0}, "r": float("nan")})),
    ("centroid", {"n": 2, "p": 2.0, "law": {"kind": "uniform_cube"},
                  "measure": {"kind": "lebesgue_ball", "R": "inf"}, "budget": 0, "seed": 1}),
    ("centroid", {"n": 2, "p": float("nan"), "law": {"kind": "uniform_cube"},
                  "measure": {"kind": "gaussian", "sigma": 1.0}, "budget": 100, "seed": 1}),
    ("newsan", dict(PV_BALL, budget=0)),
    ("converge", {"n": "two", "seed": 2}),
    ("shadow", dict(SHADOW, budget="lots")),
    ("busemann", {"density": "gaussian", "pairs": "many"}),
    ("gauge", {"density": "gaussian", "sigma": "wide"}),
    ("brunn", {"phi": "sqrt_quadratic", "alpha": "x"}),
    ("rbll", {"box": "wide"}),
    ("rbll", [1, 2, 3]),
    # non-finite numbers are refused where they are constructed
    ("polar-volume", dict(PV_BALL, measure={"kind": "power_kernel", "k_table": [[0.0, 1.0], [1.0, NAN]]})),
    ("polar-volume", dict(PV_BALL, measure={"kind": "power_kernel", "k_table": [[0.0, 1.0], [INF, 2.0]]})),
    ("polar-volume", dict(PV_BALL, body=dict(SQUARE, normals=[[1.0, 0.0], [-1.0, 0.0], [0.0, NAN], [0.0, -1.0]]))),
    ("polar-volume", dict(PV_BALL, body=dict(SQUARE, offsets=[1.0, 1.0, INF, 1.0]))),
    ("newsan", dict(PV_BALL, body=dict(SQUARE, offsets=[1.0, NAN, 1.0, 1.0]))),
    ("rbll", {"box": NAN}),
    ("converge", {"n": 2, "seed": 2, "band": NAN}),
    ("brunn", {"phi": "sqrt_quadratic", "domain_radius": NAN}),
    ("brunn", {"phi": "sqrt_quadratic", "alpha": NAN}),
    # the moment-body quadrature needs a finite p (Z_inf would come out as the wrong body)
    ("centroid", {"n": 2, "p": INF, "law": {"kind": "uniform_cube"},
                  "measure": {"kind": "gaussian", "sigma": 1.0}, "budget": 100, "seed": 1}),
    # empty batteries: nothing checked is not a PASS (worst_violation would be -Infinity)
    ("busemann", {"density": "uniform_square", "pairs": 0, "seed": 1}),
    ("gauge", {"density": "gaussian", "checks": 0, "seed": 1}),
    ("rbll", {"shifts": [], "box": 5.0}),
    ("converge", {"n": 2, "seed": 2, "schedule": []}),
    # qhull's cost grows fast with n: the exact path stops at n = 5
    ("converge", {"n": 6, "seed": 2, "schedule": [8, 16]}),
    # the command fixes the mode; dominance needs a measure that satisfies condnu2
    ("santalo", dict(BASE, mode="dominance")),
    ("dominance", BASE),
    ("dominance", dict(BASE, mode="dominance",
                       measure={"kind": "power_kernel", "k_table": [[t, math.sqrt(1.0 + t)] for t in range(10)]})),
    # shapes and values that used to end in ZeroDivisionError, IndexError or QhullError
    ("busemann", {"density": "gaussian", "sigma": 0, "pairs": 3}),
    ("gauge", {"density": "gaussian", "sigma": 0, "checks": 3}),
    ("newsan", dict(PV_BALL, body=dict(SQUARE, offsets=0))),
    ("shadow", dict(SHADOW, base_positions=1.0)),
    ("shadow", dict(SHADOW, direction=1.0)),
    ("shadow", dict(SHADOW, r=1e300, budget=64)),  # a Monte Carlo estimate of 0 hits: g = 1/0
    ("newsan", dict(PV_BALL, body={"kind": "matrix_image", "columns": [[1.0, 0.0], [2.0, 0.0]],
                                   "gauge": {"type": "lq", "q": 1.0}})),
    # a non-finite shift used to PASS
    ("rbll", {"shifts": [NAN]}),
    ("rbll", {"shifts": [INF]}),
    # the exact planar branch keeps the budget check
    ("polar-volume", dict(PV_PLANE, budget=0)),
    # NaN step laws used to PASS: the bound and integral checks cannot see a NaN
    # value, and a NaN break spun the sampler up to its rejection cap
    ("santalo", dict(BASE, trials=5, law={"kind": "radial_step", "breaks": [0.5641895835477563, 2.0], "values": [1.0, NAN]})),
    ("santalo", dict(BASE, trials=5, law={"kind": "radial_step", "breaks": [NAN, 2.0], "values": [1.0, 0.0]})),
    # infinite radii used to PASS with every value 0
    ("polar-volume", dict(PV_BALL, body={"kind": "ball", "R": INF, "n": 2})),
    ("santalo", dict(BASE, r=INF)),
    ("dominance", dict(BASE, mode="dominance", measure={"kind": "gaussian", "sigma": 1.0}, r=INF)),
    # non-finite shadow inputs are refused before any arithmetic on them
    ("shadow", dict(SHADOW, theta=[NAN, 1.0])),
    ("shadow", dict(SHADOW, base_positions=[[1.0, 0.0], [INF, 0.0]])),
    ("shadow", dict(SHADOW, direction=[1.0, INF])),
    ("shadow", dict(SHADOW, t_grid=[-2.0, -1.0, 0.0, 1.0, INF])),
    # a falling last piece drives k below 0: rho turned infinite, then negative, and PASSed
    ("polar-volume", dict(PV_BALL, body={"kind": "ball", "R": 0.2, "n": 2},
                          measure={"kind": "power_kernel", "k_table": [[0, 2], [1, 1]]})),
    # one trial has no spread: threshold was -inf, so santalo PASSed whatever the law
    ("santalo", dict(BASE, trials=1)),
    # the D_n reference radius divided by n
    ("centroid", {"n": 0, "p": 2.0, "law": {"kind": "uniform_cube"},
                  "measure": {"kind": "lebesgue_ball", "R": "inf"}, "budget": 64, "seed": 1}),
    # the cube's closed form costs 2^(n-1) terms a direction: n = 9 is refused, not run for seconds
    ("centroid", {"n": 9, "p": 2.0, "law": {"kind": "uniform_cube"},
                  "measure": {"kind": "lebesgue_ball", "R": "inf"}, "budget": 64, "seed": 1}),
    # a flat K has |K| = 0 by the same spanning test that calls K° unbounded; qhull gave 2e-11 and a PASS
    ("newsan", dict(PV_BALL, body={"kind": "matrix_image", "columns": [[1.0, 0.0], [1.0, 1e-11]],
                                   "gauge": {"type": "lq", "q": 1.0}})),
    # k tables the old 64-point grid on [1e-6, 10] passed: a slope that falls from 2 to 1.5
    # at t = 20 (not condnu2), and a k that falls on [12, 15] (rho rises)
    ("dominance", dict(BASE, mode="dominance",
                       measure={"kind": "power_kernel", "k_table": [[0, 1], [5, 6], [20, 36], [30, 51]]})),
    ("dominance", dict(BASE, mode="dominance",
                       measure={"kind": "power_kernel", "k_table": [[0, 1], [12, 13], [15, 12], [20, 30]]})),
    # the expectation statement assumes a decreasing density too
    ("santalo", dict(BASE, measure={"kind": "power_kernel", "k_table": [[0, 1], [12, 13], [15, 12], [20, 30]]})),
    # 4 trials a side reach p >= 1/C(8, 4) = 1/70 > ALPHA: that dominance verdict could never FAIL
    ("dominance", dict(BASE, mode="dominance", measure={"kind": "gaussian", "sigma": 1.0}, trials=4)),
    # 2σ² underflowed to 0 (ZeroDivisionError, exit 1) or went subnormal (a correct gauge FAILed)
    ("busemann", {"density": "gaussian", "sigma": 1e-300, "pairs": 3}),
    ("gauge", {"density": "gaussian", "sigma": 1e-300, "checks": 3}),
    ("gauge", {"density": "gaussian", "sigma": 1e-160, "checks": 3}),
    # F = J^(-1/p) underflows to 0 at p = 0.001: the report read worst 0.0 and PASS
    ("gauge", {"density": "gaussian", "p": 0.001, "checks": 3}),
    # Lebesgue R = inf, r = 0: E nu(K°) is infinite for N <= n, so the means would estimate nothing
    ("santalo", dict(BASE, N=2, law={"kind": "uniform_Dn"}, measure={"kind": "lebesgue_ball", "R": "inf"},
                     trials=2000, seed=3)),
    # a negative seed is refused where its stream is built, though these two exact runs draw nothing
    ("polar-volume", dict(PV_BALL, measure={"kind": "lebesgue_ball", "R": "inf"}, seed=-1)),
    ("shadow", dict(SHADOW, seed=-1)),
    # the exact branch never read n: a measure on R^3 with theta in R^2 PASSed
    ("shadow", dict(SHADOW, n=3)),
    # with the N = 2 row above: at N = n + 1 the variance of nu(K°) is infinite, so the
    # 3-sigma margin reads nothing (tail index N - n + 1 = 2)
    ("santalo", dict(BASE, N=3, law={"kind": "uniform_Dn"}, measure={"kind": "lebesgue_ball", "R": "inf"},
                     trials=2000, seed=3)),
    # a thread count below 1 ran serially and exited 0; click refuses it before the config is read
    ("polar-volume --threads 0", PV_BALL),
    ("polar-volume --threads -3", PV_BALL),
]


@pytest.mark.parametrize("command,cfg", BAD_VALUES)
def test_bad_values_exit_2_without_traceback(tmp_path, command, cfg):
    command, *options = command.split()
    res = invoke([command, *options, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    # a bad option is click's usage error, a bad config value the runner's own line
    assert "Traceback" not in res.output and ("Error: Invalid value" if options else "error:") in res.output
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("command,cfg", [
    ("gauge", {"density": "gaussian", "p": NAN, "checks": 3}),
    ("gauge", {"density": "gaussian", "p": INF, "checks": 3}),
    ("brunn", {"phi": "sqrt_quadratic", "t_grid": [NAN, -1.0, 0.0, 1.0, 2.0]}),
])
def test_non_finite_quadrature_inputs_are_refused_before_any_quadrature(tmp_path, command, cfg):
    # quad warns (IntegrationWarning) when it integrates NaN; none may run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = invoke([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


def test_brunn_accepts_infinite_domain(tmp_path):
    cfg = {"phi": "sqrt_quadratic", "alpha": 3.0, "n": 1, "t_grid": [-1.0, 0.0, 1.0], "domain_radius": INF}
    res = invoke(["brunn", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output


def test_non_finite_polar_volume_estimate_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "polar_measure", lambda *args: Estimate(NAN, NAN, 1, 0))
    out = tmp_path / "o"
    res = invoke(["polar-volume", "--config", write_cfg(tmp_path, PV_BALL), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert json.loads((out / "report.json").read_text())["verdict"] == "FAIL"


def test_qhull_failure_exits_2_with_one_error_line(tmp_path):
    # an H-polytope whose dual hull meets qhull's "wide merge" error: the K° vertices of a
    # nearly degenerate n = 5 set as normals, offsets 1.  Exit 2 (config error) with one
    # line, never 1 (the FAIL code) through a QhullError traceback
    pts = RngStream(1500, 2).generator().standard_normal((8, 5))
    V = geom.HPolytopeBody(np.vstack([pts, -pts]), np.ones(16)).vertices
    cfg = {"body": {"kind": "hpolytope", "normals": V.tolist(), "offsets": [1.0] * len(V)},
           "measure": {"kind": "gaussian", "sigma": 1.0}, "budget": 1000, "seed": 1}
    res = invoke(["newsan", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: GeometryError: QH"), res.output
    assert not (tmp_path / "o" / "report.json").exists()


def test_converge_n5_path_that_met_qhull_writes_a_report(tmp_path):
    # this path's N = 40 set made a second qhull hull, over K°'s vertices, fail ("wide merge"),
    # so it exited 2; the flag sum gives finite, decreasing values, and at band 1.0 the
    # final relative error 2.41 FAILs
    cfg = {"n": 5, "seed": 10, "schedule": [10, 20, 40], "band": 1.0}
    out = tmp_path / "o"
    res = invoke(["converge", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert res.exit_code == 1, res.output
    report = json.loads((out / "report.json").read_text())
    values = report["summary"]["values"]
    assert report["verdict"] == "FAIL" and len(values) == 3
    assert all(math.isfinite(v) for v in values) and values[0] > values[1] > values[2]
    assert report["summary"]["relative_error"] == pytest.approx(2.41, abs=0.005)


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    res = invoke(["polar-volume", "--config", str(path), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2


def test_unwritable_out_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    res = invoke(["polar-volume", "--config", write_cfg(tmp_path, PV_BALL), "--out", str(blocker / "o")])
    assert res.exit_code == 3


def test_profile_csv_cells_are_plain_floats(tmp_path):
    brunn = {"phi": "sqrt_quadratic", "alpha": 3.0, "n": 1, "t_grid": [-1.0, -0.5, 0.0, 0.5, 1.0]}
    for command, cfg in (("shadow", SHADOW), ("brunn", brunn)):
        out = tmp_path / command
        res = invoke([command, "--config", write_cfg(tmp_path, cfg, f"{command}.json"), "--out", str(out)])
        assert res.exit_code == 0
        header, *rows = (out / "trials.csv").read_text().strip().split("\n")
        assert header == "t,value,stderr" and len(rows) == len(cfg["t_grid"])
        for row in rows:
            for cell in row.split(","):
                float(cell)


def test_csv_columns_contract(tmp_path):
    path = write_cfg(tmp_path, BASE)
    out = tmp_path / "o"
    invoke(["santalo", "--config", path, "--out", str(out)])
    lines = (out / "trials.csv").read_text().strip().split("\n")
    assert lines[0] == "trial_index,side,value,stderr"
    sides = {line.split(",")[1] for line in lines[1:]}
    assert sides == {"X", "Z"}


def test_shadow_command_exact(tmp_path):
    cfg = {
        "n": 2,
        "theta": [0.0, 1.0],
        "base_positions": [[1.0, 0.0], [-1.0, 0.0]],
        "direction": [1.0, 1.0],
        "gauge": {"type": "lq", "q": 1.0},
        "r": 0.0,
        "measure": {"kind": "lebesgue_ball", "R": "inf"},
        "t_grid": [-2.0, -1.0, 0.0, 1.0, 2.0],
        "budget": 0,
        "seed": 0,
    }
    out = tmp_path / "o"
    res = invoke(["shadow", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert res.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "PASS"


def test_named_densities_match_one_point_evaluation_bit_for_bit():
    X = np.random.default_rng(3).uniform(-3.0, 3.0, (2000, 2))
    X[:4] = [[1.0, 0.0], [0.6, 0.8], [1.0, 1.0], [-1.0, 0.5]]  # on the indicators' boundaries
    one_point = {
        "gaussian": lambda x: math.exp(-float(np.dot(x, x)) / (2 * 0.7 * 0.7)),
        "uniform_square": lambda x: 1.0 if np.all(np.abs(x) <= 1.0) else 0.0,
        "uniform_ball": lambda x: 1.0 if float(np.dot(x, x)) <= 1.0 else 0.0,
    }
    for name, f in one_point.items():
        psi, _, _ = cli.named_density(name, 0.7)
        assert psi(X).tobytes() == np.array([f(x) for x in X]).tobytes(), name


# Exact values recorded before the densities took batches of points; no
# golden covers uniform_ball, and busemann on uniform_square is a benchmark
# op.
def test_busemann_uniform_square_is_pinned():
    _, verdict, summary, _, _ = cli.run_busemann({"density": "uniform_square", "pairs": 10, "seed": 5}, 1)
    assert verdict and summary == {"worst_violation": 2.7755575615628914e-16, "pairs": 10, "hypothesis_verified": True}
    zs = [np.array([0.37, -0.81]), np.array([0.92, 0.13]), np.array([-0.2, 0.45])]
    for name, want in (("uniform_square", [0.405, 0.45999999999999996, 0.22499999999999995]),
                       ("uniform_ball", [0.44525273721786374, 0.46456969337226467, 0.24622144504490262])):
        psi, radius, _ = cli.named_density(name)
        assert analysis.busemann_gauge(psi, np.array(zs), radius).tolist() == want, name


def test_converge_command(tmp_path):
    cfg = {"n": 2, "seed": 2, "schedule": [4, 8, 16, 32, 64], "band": 0.2}
    out = tmp_path / "o"
    res = invoke(["converge", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert res.exit_code == 0


def test_converge_command_in_four_dimensions(tmp_path):
    cfg = {"n": 4, "seed": 2, "schedule": [8, 16, 32, 64], "band": 3.0}
    out = tmp_path / "o"
    res = invoke(["converge", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    values = json.loads((out / "report.json").read_text())["summary"]["values"]
    assert len(values) == 4 and all(b <= a for a, b in zip(values, values[1:]))


def test_centroid_of_the_ball_law_in_four_dimensions(tmp_path):
    # Z_p of a radial law is a closed-form ball in any n, and so is the measure of its polar
    cfg = {"n": 4, "p": 2.0, "law": {"kind": "uniform_Dn"}, "measure": {"kind": "gaussian", "sigma": 1.0},
           "budget": 20000, "seed": 3}
    out = tmp_path / "o"
    res = invoke(["centroid", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads((out / "report.json").read_text())["summary"]
    assert summary["lhs_stderr"] == 0.0
    assert abs(summary["lhs"] - summary["rhs"]) <= 64 * np.finfo(float).eps * summary["rhs"]


def test_exact_shadow_in_four_dimensions(tmp_path):
    theta = np.array([0.0, 0.0, 0.0, 1.0])
    base = np.random.default_rng(4).uniform(-1.5, 1.5, (6, 4))
    base[:, 3] = 0.0
    direction = np.array([1.0, -0.5, 0.25, 0.75, -1.0, 0.5])
    cfg = dict(SHADOW, n=4, theta=theta.tolist(), base_positions=base.tolist(), direction=direction.tolist())
    out = tmp_path / "o"
    res = invoke(["shadow", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    header, *rows = (out / "trials.csv").read_text().strip().split("\n")
    for row, t in zip(rows, SHADOW["t_grid"]):
        _, value, stderr = map(float, row.split(","))
        cols = base + t * direction[:, None] * theta[None, :]
        # at t = 0 the columns span only theta-perp: the polar is unbounded and g = 0
        want = 1.0 / volume.exact_polar_volume_crosspoly(cols) if t != 0.0 else 0.0
        assert (value, stderr) == (want, 0.0)


def test_gauge_on_the_square_indicator_passes():
    # quad cannot find the indicator's jump at r = 1/|x|_inf, so the integral must end there
    for seed in (0, 1, 2):
        _, verdict, summary, _, _ = cli.run_gauge({"density": "uniform_square", "p": 2.0, "checks": 20, "seed": seed}, 1)
        assert verdict, (seed, summary)


def test_radial_gauge_is_homogeneous_near_the_origin():
    # the radial integral must reach |r x| = 120 also when |x| is small
    gauge = cli.radial_gauge("gaussian", 1.0, 2.0)
    x = np.array([0.012, -0.016])  # |x| = 0.02
    fx, f2x = gauge(np.array([x, 2.0 * x]))
    assert f2x == pytest.approx(2.0 * fx, rel=1e-9)


def test_gauge_reports_the_plain_relative_error():
    # at p = 0.01, F is about 1e-200: an absolute floor of 1e-12 under the
    # error divided it away (the report read 2.5e-197)
    cfg = {"density": "gaussian", "sigma": 1.0, "p": 0.01, "checks": 20, "seed": 4}
    _, _, summary, _, _ = cli.run_gauge(dict(cfg), 1)
    gen = polarvol.RngStream(4, 0).generator()
    xs, lams = [], []
    for _ in range(20):
        x = gen.uniform(-1.0, 1.0, size=2)
        if np.linalg.norm(x) >= 1e-3:
            xs.append(x)
            lams.append(float(gen.uniform(0.5, 3.0)))
    gauge = cli.radial_gauge("gaussian", 1.0, 0.01)
    errors = []
    for x, lam in zip(xs, lams):
        fx, flx = gauge(np.array([x, lam * x])).tolist()
        assert 0 < fx < 1e-150
        errors.append(abs(flx - lam * fx) / (lam * fx))
    assert summary["worst_relative_error"] == max(errors) > 0


def field_paths(node, prefix=()):
    """The path of every dict key and list index below node, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


CONFIGS = Path(__file__).parent.parent / "configs"
GOLDEN = Path(__file__).parent / "golden"
# (command, example config, path of one of its fields)
FIELDS = [
    (json.loads((GOLDEN / f"{p.stem}.report.json").read_text())["command"], cfg, path)
    for p in sorted(CONFIGS.glob("*.json"))
    for cfg in [json.loads(p.read_text())]
    for path in field_paths(cfg)
]
DELETE = object()
BIG = "<1e400>"  # written into the JSON text as the literal 1e400
POOL = [None, True, "x", [], {}, -1, 0, 0.5, NAN, INF, -INF, BIG]


# Of the 1898 one-field mutations, the 65 of rbll_default run the full rbll
# family (about 0.2 s) whatever the value, and the rest take about 10 ms:
# 200 random draws take about 2-4 s on 2 vCPU.
@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(FIELDS), value=st.sampled_from([DELETE, *POOL]))
def test_one_field_mutation_keeps_the_exit_code_contract(field, value):
    command, cfg, path = field
    cfg = copy.deepcopy(cfg)
    parent = reduce(getitem, path[:-1], cfg)
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "c.json"
        config.write_text(json.dumps(cfg).replace(json.dumps(BIG), "1e400"))
        res = CliRunner().invoke(main, [command, "--config", str(config), "--out", tmp, "--budget", "64"])
    assert res.exit_code in (0, 1, 2, 3), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    # NaN never PASSes; --budget overrides a NaN budget
    if value is NAN and path[-1] != "budget":
        assert res.exit_code != 0, (command, path)
