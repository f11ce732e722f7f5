import os
import time

import numpy as np
import pytest
from hypothesis import Phase, settings

# Tier-1 draws the same examples on every run.  HYPOTHESIS_PROFILE=explore
# opts back into random search, for a deeper hunt; HYPOTHESIS_PROFILE=mutants,
# which tests/mutants.py sets, draws tier-1's examples but does not shrink a
# failing one: a mutant needs only to fail, not the least failing example.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.register_profile("mutants", derandomize=True,
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

from fpplab.chain import solve_hitting
from fpplab.fpp import fpp_chain_spec
from fpplab.graphs import random_gnp_graph

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(num: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(
        f"ACCEPTANCE {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="module")
def sweep200():
    """200 random FPP chains on graphs with n <= 10, solved exactly."""
    rng = np.random.default_rng(20260825)
    out = []
    t0 = time.time()
    for _ in range(200):
        n = int(rng.integers(2, 11))
        g = random_gnp_graph(n, 0.5, (0.2, 3.0), rng)
        sol = solve_hitting(fpp_chain_spec(g, 0, n - 1))
        out.append((g, sol))
    return out, time.time() - t0
