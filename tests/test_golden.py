"""Every configs/*.json run at --threads 2 reproduces its committed report.json byte for byte."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from polarvol.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"
NAMES = sorted(p.stem for p in CONFIGS.glob("*.json"))


def test_every_config_has_a_golden_report():
    assert NAMES == sorted(p.name[: -len(".report.json")] for p in GOLDEN.glob("*.report.json"))


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(tmp_path, name):
    want = (GOLDEN / f"{name}.report.json").read_bytes()
    golden = json.loads(want)
    args = [golden["command"], "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path), "--threads", "2"]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == (0 if golden["verdict"] == "PASS" else 1), res.output
    assert (tmp_path / "report.json").read_bytes() == want
