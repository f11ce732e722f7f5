"""Every row of the mutation table (``tests/mutants.py``) still applies: its
old text occurs exactly once in its file, and the test named to kill it
exists.  One row runs end to end through the runner, and a run past each
of the runner's limits reads as that limit; running them all is left to
``python3 tests/mutants.py``."""

import re
import subprocess
import sys

import pytest

import mutants
from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_once_and_names_its_killer(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    if mutant.test is None:
        assert mutant.equivalent
        return
    path, _, name = mutant.test.partition("::")
    name = name.split("[")[0]
    assert re.search(rf"^def {re.escape(name)}\(", (ROOT / path).read_text(), re.MULTILINE)


def test_the_runner_sees_one_mutant_killed():
    # the lemma1 bound judged against 2 kappa fails its negative control
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "mutants.py"),
                          "--only", "lemma1_two_kappa"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "lemma1_two_kappa" in out.stdout
    assert "killed by tests/test_cli.py::test_lemma1_fails_just_past_kappa" in out.stdout
    assert "1 mutants, 0 unmarked survivors" in out.stdout


def test_a_run_past_a_limit_reads_as_that_limit(tmp_path, monkeypatch):
    # a test that sleeps on past the time limit, one that asks for the
    # whole address space, and one that passes, each in its own run
    (tmp_path / "test_limits.py").write_text(
        "import time\n\n"
        "def test_sleeps():\n    time.sleep(30)\n\n"
        f"def test_allocates():\n    bytearray({mutants.MEMORY_LIMIT})\n\n"
        "def test_passes():\n    pass\n")
    assert mutants._pytest(tmp_path, "test_limits.py::test_passes") == 0
    assert mutants._pytest(tmp_path, "test_limits.py::test_allocates") == "memory"
    monkeypatch.setattr(mutants, "TIME_LIMIT", 2)
    assert mutants._pytest(tmp_path, "test_limits.py::test_sleeps") == "time"
