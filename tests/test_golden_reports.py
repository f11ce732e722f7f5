"""Every shipped scenario writes, at its own seed, a ``report.json``
byte-identical to the one recorded in ``golden_reports.json``: a change that
moves any verdict, statistic or float in a report shows here.  The slow
``fpp_trend`` is left to acceptance criterion 9 (``test_acceptance.py``),
which runs it anyway and compares the same digest."""

import hashlib
import json
from pathlib import Path

import pytest

from fpplab.cli import run_scenario

TESTS = Path(__file__).resolve().parent
SCENARIOS = TESTS.parent / "scenarios"
GOLDEN = json.loads((TESTS / "golden_reports.json").read_text())


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in SCENARIOS.glob("*.json") if p.stem != "fpp_trend"))
def test_report_matches_its_golden_digest(name, tmp_path, capsys):
    assert run_scenario(str(SCENARIOS / f"{name}.json"), out_dir=tmp_path) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == GOLDEN.get(name), f"{name}: report.json sha256 is now {digest}"
