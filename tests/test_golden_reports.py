"""Every shipped scenario writes, at its own seed, a ``report.json`` and CSVs
byte-identical to those recorded in ``golden_reports.json`` (a report under
the scenario's name, a CSV under ``<scenario>/<file>``): a change that moves
any verdict, statistic or float in a report, or any per-run value in a CSV,
shows here.  The slow ``fpp_trend`` is left to acceptance criterion 9
(``test_acceptance.py``), which runs it anyway and compares its report's
digest."""

import hashlib
import json
from pathlib import Path

import pytest

from fpplab.cli import run_scenario

TESTS = Path(__file__).resolve().parent
SCENARIOS = TESTS.parent / "scenarios"
GOLDEN = json.loads((TESTS / "golden_reports.json").read_text())
NAMES = sorted(p.stem for p in SCENARIOS.glob("*.json") if p.stem != "fpp_trend")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The output directory of each scenario, run once for this module."""
    outs = {}

    def run(name):
        if name not in outs:
            out = tmp_path_factory.mktemp(name)
            assert run_scenario(str(SCENARIOS / f"{name}.json"), out_dir=out) == 0
            outs[name] = out
        return outs[name]

    return run


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_its_golden_digest(name, written):
    digest = _sha256(written(name) / "report.json")
    assert digest == GOLDEN.get(name), f"{name}: report.json sha256 is now {digest}"


@pytest.mark.parametrize("name", NAMES)
def test_csvs_match_their_golden_digests(name, written):
    got = {p.name: _sha256(p) for p in sorted(written(name).glob("*.csv"))}
    want = {key.split("/", 1)[1]: digest for key, digest in GOLDEN.items()
            if key.startswith(f"{name}/")}
    assert got == want
