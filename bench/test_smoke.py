"""Smoke test of the benchmark itself: every metric BENCHMARK.json names is
printed by name with its unit, both on the human lines and in the final
JSON line, and the run fails cleanly without the program's sources.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(trace, cwd=ROOT, workload="fpp-small"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def assert_metrics(proc, specs):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in specs}
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, _, value, unit = line.split()[:5]
            printed[name] = unit
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert printed.get(m["name"]) == m["unit"], m["name"]
    assert "failed_frac" in printed
    return result["metrics"]


def test_end_to_end_metrics_printed_with_units():
    metrics = assert_metrics(run_bench(0), SPEC["end_to_end"])
    assert all(metrics[m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_per_layer_metrics_printed_with_units():
    metrics = assert_metrics(run_bench(1), SPEC["per_layer"])
    assert metrics["fpp.runs"]["value"] == 9000  # three 3000-run batches
    assert metrics["fpp.coupling_calls"]["value"] == 3000
    assert metrics["cli.check_s.dual_agreement"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
