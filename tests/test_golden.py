"""Every configs/*.json run at --threads 2 reproduces its committed report.json byte for byte.

Five configs also run at --threads 1 against the same bytes: the four
whose estimates span more than one chunk, and the exact ball polar.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from polarvol import measure, volume
from polarvol.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"
NAMES = sorted(p.stem for p in CONFIGS.glob("*.json"))
ONE_THREAD = ["centroid_cube", "centroid_cube_n4", "newsan_box", "polar_volume_ball", "shadow_gaussian"]


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
