"""Every configs/*.json run at --threads 2 reproduces its committed report.json byte for byte.

Nine configs also run at --threads 1 against the same bytes: the eight
whose estimates span more than one chunk, and the exact ball polar.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from polarvol import cli, geom, measure, volume
from polarvol.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"
NAMES = sorted(p.stem for p in CONFIGS.glob("*.json"))
ONE_THREAD = ["centroid_cube", "centroid_cube_n4", "newsan_box", "newsan_octahedron_gaussian", "polar_volume_ball",
              "polar_volume_crosspoly_n3", "polar_volume_flat_gaussian", "polar_volume_power_kernel", "shadow_gaussian"]


def check_golden(tmp_path, name, threads):
    want = (GOLDEN / f"{name}.report.json").read_bytes()
    golden = json.loads(want)
    args = [golden["command"], "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path), "--threads", threads]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == (0 if golden["verdict"] == "PASS" else 1), res.output
    assert (tmp_path / "report.json").read_bytes() == want


def test_every_config_has_a_golden_report():
    assert NAMES == sorted(p.name[: -len(".report.json")] for p in GOLDEN.glob("*.report.json"))


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(tmp_path, name):
    check_golden(tmp_path, name, "2")


@pytest.mark.parametrize("name", ONE_THREAD)
def test_report_matches_golden_at_one_thread(tmp_path, name):
    check_golden(tmp_path, name, "1")


def test_newsan_box_golden_is_within_4_stderr_of_the_exact_measure():
    # K = [-1, 1] x [-1/2, 1/2] has the diamond conv{±e_1, ±2e_2} for its polar, whose
    # Gaussian measure `_polygon_measures` gives exactly
    summary = json.loads((GOLDEN / "newsan_box.report.json").read_bytes())["summary"]
    diamond = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0], [0.0, -2.0]])
    want = volume._polygon_measures(measure.GaussianLike(1.0, 2), diamond, np.array([4]))[0]
    assert abs(summary["lhs"] - want) <= 4 * summary["lhs_stderr"]


def test_newsan_octahedron_gaussian_golden_is_within_its_stderr_of_the_cube_measure():
    # K = {z : |Qᵀz|_1 <= √3} for a rotation Q has the cube |Qᵀy|_∞ <= 1/√3 for its polar, of
    # Gaussian measure (σ√(2π)·erf(1/(√3·σ√2)))³: its P has orthogonal rows, so the weight is
    # computed once and the estimate reads at its 64-ulp floor
    summary = json.loads((GOLDEN / "newsan_octahedron_gaussian.report.json").read_bytes())["summary"]
    want = (math.sqrt(2 * math.pi) * math.erf(1 / math.sqrt(6))) ** 3
    assert summary["lhs_stderr"] == volume.ROUNDING_FLOOR * summary["lhs"]
    assert abs(summary["lhs"] - want) <= summary["lhs_stderr"]


def test_polar_volume_flat_gaussian_golden_is_within_4_stderr_of_the_slab_measure():
    # columns s_j·u with u = (2, -1, 2)/3 and max |s_j| = 1.2: K° is the slab |<u, y>| <= 1/1.2,
    # of Gaussian measure (2πσ²)^{3/2}·erf(w/(σ√2))
    summary = json.loads((GOLDEN / "polar_volume_flat_gaussian.report.json").read_bytes())["summary"]
    sigma, w = 0.8, 1 / 1.2
    want = (2 * math.pi * sigma ** 2) ** 1.5 * math.erf(w / (sigma * math.sqrt(2)))
    assert summary["stderr"] > 0 and abs(summary["value"] - want) <= 4 * summary["stderr"]


def test_shadow_gaussian_flat_point_is_within_4_stderr_of_its_slab(tmp_path):
    # at t = 0 the points lie on theta-perp, the longest of length 1: K° is the slab |y_1| <= 1,
    # so g = 1/ν(K°) = 1/(2π·erf(1/√2)).  That point is the only one sampled, at its 64-ulp
    # floor in R¹, so the golden's tol is shadow's max(1e-9·max g, 3·max stderr)
    res = CliRunner().invoke(main, ["shadow", "--config", str(CONFIGS / "shadow_gaussian.json"), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader((tmp_path / "trials.csv").open()))
    row = next(r for r in rows if float(r["t"]) == 0.0)
    value, stderr = float(row["value"]), float(row["stderr"])
    assert [float(r["stderr"]) > 0 for r in rows].count(True) == 1
    tol = max(1e-9 * max(float(r["value"]) for r in rows), 3 * stderr)
    assert json.loads((GOLDEN / "shadow_gaussian.report.json").read_bytes())["summary"]["tol"] == tol
    assert abs(value - 1 / (2 * math.pi * math.erf(1 / math.sqrt(2)))) <= 4 * stderr


def test_polar_volume_power_kernel_golden_is_within_4_stderr_of_the_sphere_quadrature():
    # K° = {y : |y|·h_K(y/|y|) <= 1} is star-shaped, so in n = 3, with Φ = radial_mass_in_ball/(4π),
    # ν(K°) = ∫_{S²} Φ(1/h_K(θ)) dθ: Gauss–Legendre in z times the midpoint rule in φ, whose
    # value holds to 12 digits from 64 × 128 to 256 × 512 nodes
    cfg = json.loads((CONFIGS / "polar_volume_power_kernel.json").read_bytes())
    body, m = cli.parse_body(cfg["body"]), cli.parse_measure(cfg["measure"], 3)
    z, w = np.polynomial.legendre.leggauss(64)
    phi = (np.arange(128) + 0.5) * math.pi / 64
    s = np.sqrt(1 - z ** 2)[:, None]
    theta = np.stack(np.broadcast_arrays(s * np.cos(phi), s * np.sin(phi), z[:, None]), axis=-1).reshape(-1, 3)
    mass = measure.radial_mass_in_ball(m, 1 / geom.support_values(body, theta)).reshape(64, 128)
    want = w @ mass.sum(axis=1) * (math.pi / 64) / (4 * math.pi)
    assert want == pytest.approx(0.679231958351, abs=1e-12)
    summary = json.loads((GOLDEN / "polar_volume_power_kernel.report.json").read_bytes())["summary"]
    assert summary["stderr"] > 0 and abs(summary["value"] - want) <= 4 * summary["stderr"]


def test_polar_volume_crosspoly_n3_golden_is_within_4_stderr_of_the_exact_volume():
    # K° = {y : |<x_i, y>| <= 1} is a polytope, whose volume the flag sum gives exactly
    cfg = json.loads((CONFIGS / "polar_volume_crosspoly_n3.json").read_bytes())
    want = volume.exact_polar_volume_crosspoly(np.array(cfg["body"]["columns"]))
    summary = json.loads((GOLDEN / "polar_volume_crosspoly_n3.report.json").read_bytes())["summary"]
    assert summary["stderr"] > 0 and abs(summary["value"] - want) <= 4 * summary["stderr"]
