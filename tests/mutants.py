"""The mutation table, and a runner that checks each mutant is killed.

Each row of ``MUTANTS`` is a small fault: one text replacement in one file
under ``src/``, and the tier-1 test that must fail on it, or ``None`` with
the reason the mutant is equivalent (no test can tell it from the code).
The rows keep the negative controls honest: a check whose FAIL path no
test reaches, or a kernel fault that only a golden digest would catch,
shows up here as a survivor.

    python3 tests/mutants.py [--only NAME]

copies ``src/``, ``tests/``, ``scenarios/`` and ``pyproject.toml`` to a
temporary directory, applies each row in turn, and runs the row's test.
Only when that test passes does it run all of tier-1.  Hypothesis runs
under the ``mutants`` profile of ``tests/conftest.py``: tier-1's examples,
without shrinking, since a mutant needs only to fail.  It prints each
mutant's fate and time, and exits 1 if a mutant that the table does not
mark equivalent survives.  ``tests/test_mutants.py`` checks, inside
tier-1, that every row still applies and names a test that exists, and
runs one row end to end.

A fault may leave a loop that never ends, or one that grows until memory
runs out.  (The Dijkstra's walk back, which once circled on a cycle of
reached-by edges when pads pointed at vertex 0, now raises after n - 1
steps.)  So each pytest run is stopped after
``TIME_LIMIT`` seconds and gets ``MEMORY_LIMIT`` bytes of address space,
and a mutant whose run hits either limit counts as killed, with the limit
printed.  Both sit far above what tier-1 needs unmutated: about 40 s and
under 0.5 GB of address space for all of it.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT = 300        # seconds per pytest run
MEMORY_LIMIT = 2 << 30  # bytes of address space per pytest run


class Mutant(NamedTuple):
    name: str
    path: str         # relative to the repository root
    old: str          # occurs exactly once in the file
    new: str
    test: str | None  # the pytest node that kills it, or None when equivalent
    equivalent: str = ""  # why no test can kill it, when ``test`` is None


MUTANTS = [
    # the checks' bounds, each with a negative control
    Mutant("lemma1_two_kappa", "src/fpplab/chain.py",
           "ratio <= sol.kappa * (1.0 + REL_TOL)",
           "ratio <= 2.0 * sol.kappa * (1.0 + REL_TOL)",
           "tests/test_cli.py::test_lemma1_fails_just_past_kappa"),
    Mutant("lemma2_four_delta", "src/fpplab/chain.py",
           "rhs = 2.0 * delta + epsilon",
           "rhs = 4.0 * delta + epsilon",
           "tests/test_cli.py::test_lemma2_fails_just_past_its_right_side"),
    Mutant("prop4_bound_doubled", "src/fpplab/fpp.py",
           "bound = sol.E_T / w_min",
           "bound = 2.0 * sol.E_T / w_min",
           "tests/test_cli.py::test_prop4_fails_just_past_e_x_over_w_min"),
    Mutant("dual_agreement_six_sigma", "src/fpplab/cli.py",
           "z_mean <= 4.0 and z_var <= 4.0",
           "z_mean <= 6.0 and z_var <= 6.0",
           "tests/test_cli.py::test_dual_agreement_fails_just_past_four_sigma"),
    Mutant("coupling_lower_one_fifth", "src/fpplab/cli.py",
           "rhs = 0.25 * stats.mean",
           "rhs = 0.2 * stats.mean",
           "tests/test_cli.py::test_coupling_lower_fails_just_past_var_x"),
    Mutant("submultiplicativity_band_doubled", "src/fpplab/fpp.py",
           "band_verdict(c12, c1 * c2, band)",
           "band_verdict(c12, c1 * c2, 2 * band)",
           "tests/test_fpp.py::test_submultiplicativity_fails_just_past_its_band"),
    Mutant("prop1_bound_doubled", "src/fpplab/growth.py",
           "lambda m: m / cfg.c_lo",
           "lambda m: 2 * m / cfg.c_lo",
           "tests/test_growth.py::test_prop1_fails_just_past_e_t_over_c_lo"),
    Mutant("prop3_bound_doubled", "src/fpplab/growth.py",
           "lambda m: g.n * m",
           "lambda m: 2 * g.n * m",
           "tests/test_growth.py::test_prop3_fails_just_past_n_e_t"),
    Mutant("prop2_mean_bound_halved", "src/fpplab/multigraph.py",
           "k / gamma, stats.mean,",
           "0.5 * k / gamma, stats.mean,",
           "tests/test_cli.py::test_prop2_mean_bound_fails_just_past_k_over_gamma"),
    Mutant("a_k_envelope_doubled", "src/fpplab/cli.py",
           "envelope = math.e / (math.e - 1.0)",
           "envelope = 2 * math.e / (math.e - 1.0)",
           "tests/test_cli.py::test_a_k_fails_just_past_its_envelope"),
    # Proposition 1's lock-step growth kernel
    Mutant("growth_pick_cap_dropped", "src/fpplab/growth.py",
           "if below[:, -1].any():",
           "if False:",
           "tests/test_growth.py::test_lockstep_kernel_caps_a_pick_at_the_total_as_the_loop_does"),
    Mutant("growth_row_stream_one_row_off", "src/fpplab/growth.py",
           "RowStream(block[begin[j]], r - begin[j])",
           "RowStream(block[begin[j]], r - begin[j] + 1)",
           "tests/test_growth.py::test_lockstep_kernel_equals_the_loop_when_rows_run_out"),
    Mutant("growth_rerun_from_the_used_up_row", "src/fpplab/growth.py",
           "int(run[j]), first[j][None].copy()",
           "int(run[j]), events[j][None].copy()",
           "tests/test_growth.py::test_lockstep_kernel_equals_the_loop_when_rows_run_out"),
    Mutant("growth_rerun_window_unchecked", "src/fpplab/growth.py",
           "    if bad.size:\n",
           "    if bad.size and R < 8:\n",
           "tests/test_growth.py::test_a_rerun_window_checks_its_rates"),
    Mutant("growth_border_never_stops", "src/fpplab/growth.py",
           "stop = np.full((w, w), _OUT, np.int8)",
           "stop = np.full((w, w), 0, np.int8)",
           "tests/test_growth.py::test_the_window_reaches_the_target"),
    # Proposition 3's coverage kernel
    Mutant("coverage_open_neighbourhood", "src/fpplab/growth.py",
           "return start[:-1] + np.arange(g.n), np.insert(nbr, start[:-1], np.arange(g.n))",
           "return start[:-1], nbr",
           "tests/test_growth.py::test_coverage_kernel_equals_the_per_run_loop"),
    Mutant("coverage_count_one_short", "src/fpplab/growth.py",
           "samples[part.start + rows[done]] = t[done] + 1",
           "samples[part.start + rows[done]] = t[done]",
           "tests/test_growth.py::test_coverage_kernel_equals_the_per_run_loop"),
    Mutant("coverage_late_stream_one_row_off", "src/fpplab/growth.py",
           "streams.get(r) or RowStream(rng, r)",
           "streams.get(r) or RowStream(rng, r + 1)",
           "tests/test_growth.py::test_coverage_kernel_equals_the_per_run_loop"),
    # Proposition 2's block formulas and the late runs' extensions
    Mutant("span_goal_capped_at_the_row", "src/fpplab/multigraph.py",
           "need), c + 1)",
           "need), c)",
           "tests/test_multigraph.py::test_block_formulas_keep_a_span_goal_past_the_row_out_of_reach"),
    Mutant("span_cells_past_a_zero_cap", "src/fpplab/multigraph.py",
           "TABLE_CELLS // g.m + 1",
           "TABLE_CELLS // g.m",
           "tests/test_multigraph.py::"
           "test_a_zero_table_cap_sends_every_k4_spanning_tree_run_to_the_forward_pass"),
    Mutant("late_stream_one_row_off", "src/fpplab/multigraph.py",
           "streams.get(r) or RowStream(rng, r)",
           "streams.get(r) or RowStream(rng, r + 1)",
           "tests/test_multigraph.py::test_every_run_reads_on_over_several_rounds"),
    Mutant("late_row_not_shifted", "src/fpplab/multigraph.py",
           "    times += last[:, None]\n",
           "",
           "tests/test_multigraph.py::test_arrival_stream_matches_generator_choice"),
    Mutant("late_row_from_the_block_generator", "src/fpplab/multigraph.py",
           "streams.get(r) or RowStream(rng, r)",
           "streams.get(r) or rng",
           "tests/test_multigraph.py::test_every_run_reads_on_over_several_rounds"),
    Mutant("lateness_on_the_smallest_k", "src/fpplab/multigraph.py",
           "late = np.flatnonzero(~decided[-1])",
           "late = np.flatnonzero(~decided[0])",
           "tests/test_multigraph.py::test_every_run_reads_on_over_several_rounds"),
    # the exhaustive min cut over chunks of masks
    Mutant("min_cut_ties_go_to_the_last_chunk", "src/fpplab/graphs.py",
           "if cut[i] < best:",
           "if cut[i] <= best:",
           "tests/test_graphs.py::test_min_cut_equals_the_mask_loop"),
    # the graph's CSR and the lock-step Dijkstra that reads it
    Mutant("csr_rows_in_edge_order", "src/fpplab/graphs.py",
           "order = np.lexsort((head, tail))",
           'order = np.argsort(tail, kind="stable")',
           "tests/test_graphs.py::test_adjacency_is_built_on_first_use"),
    Mutant("dijkstra_pads_at_vertex_zero", "src/fpplab/fpp.py",
           "head = np.repeat(np.arange(n), filled.shape[1])",
           "head = np.repeat(np.zeros(n, np.intp), filled.shape[1])",
           "tests/test_fpp.py::test_lockstep_kernel_equals_the_dense_table_kernel"),
    Mutant("dijkstra_walk_to_the_edge_sum", "src/fpplab/fpp.py",
           "cur = other[e] - cur",
           "cur = other[e]",
           "tests/test_fpp.py::test_lockstep_kernel_equals_the_dense_table_kernel"),
    Mutant("dijkstra_walk_ends_with_the_first_run_home", "src/fpplab/fpp.py",
           "while np.any(away := cur != source):",
           "while np.all(away := cur != source):",
           "tests/test_fpp.py::test_lockstep_kernel_equals_the_dense_table_kernel"),
    Mutant("dijkstra_times_of_the_row_in_that_place", "src/fpplab/fpp.py",
           "cand = flat.take(e + (live * m)[:, None])",
           "cand = flat.take(e + (rows * m)[:, None])",
           "tests/test_fpp.py::test_lockstep_kernel_equals_the_dense_table_kernel"),
]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _pytest(work: Path, *args: str) -> int | str:
    """pytest's exit code, or the limit its run hit: 'time' past
    ``TIME_LIMIT``; 'memory' when it failed on a MemoryError or, as a run
    out of address space may die with no report, after a resident peak
    of half of ``MEMORY_LIMIT``."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_PROFILE="mutants")
    with tempfile.TemporaryFile() as log:
        child = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                                  "no:cacheprovider", *args], cwd=work, env=env, stdout=log,
                                 stderr=subprocess.STDOUT, preexec_fn=_limit_memory)
        deadline = time.monotonic() + TIME_LIMIT
        while not (waited := os.wait4(child.pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                child.kill()
                os.wait4(child.pid, 0)
                child.returncode = -9
                return "time"
            time.sleep(0.05)
        _, status, usage = waited
        child.returncode = code = os.waitstatus_to_exitcode(status)
        log.seek(0)
        if code and (b"MemoryError" in log.read() or usage.ru_maxrss * 1024 > MEMORY_LIMIT // 2):
            return "memory"
        return code


def _fate(work: Path, mutant: Mutant) -> str:
    """'killed by <node>', 'killed by tier-1', 'killed by the <time or
    memory> limit under <node or tier-1>' or 'survived'.  Exit code 1 is a
    failed test and 2 a collection error, so both kill; any other code
    means the row names no runnable test."""
    if mutant.test is not None:
        code = _pytest(work, mutant.test)
        if isinstance(code, str):
            return f"killed by the {code} limit under {mutant.test}"
        if code not in (0, 1, 2):
            raise SystemExit(f"{mutant.name}: pytest exited {code} on {mutant.test}")
        if code:
            return f"killed by {mutant.test}"
    code = _pytest(work, "--continue-on-collection-errors")
    if isinstance(code, str):
        return f"killed by the {code} limit under tier-1"
    return "killed by tier-1" if code else "survived"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="run the one mutant of this name")
    only = parser.parse_args(argv).only
    rows = [m for m in MUTANTS if only is None or m.name == only]
    if not rows:
        parser.error(f"no mutant named {only!r}")
    unmarked = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "scenarios"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        for mutant in rows:
            path = work / mutant.path
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: its old text is not in {mutant.path} once")
            path.write_text(text.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            try:
                fate = _fate(work, mutant)
            finally:
                path.write_text(text)
            if fate == "survived":
                if mutant.test is None:
                    fate += f" (equivalent: {mutant.equivalent})"
                else:
                    unmarked += 1
            print(f"{mutant.name:36s} {fate}  {time.perf_counter() - start:.1f} s", flush=True)
    print(f"{len(rows)} mutants, {unmarked} unmarked survivors")
    return 1 if unmarked else 0


if __name__ == "__main__":
    sys.exit(main())
