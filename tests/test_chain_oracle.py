"""The array-backed solver against the dict-based reference solver."""

import numpy as np
import pytest

from fpplab.chain import lemma1_bound, lemma2_bound, solve_hitting
from fpplab.cli import _random_discrete_chains
from fpplab.fpp import fpp_chain_spec
from fpplab.graphs import complete_graph

import reference_chain

GRID = [0.05, 0.1, 0.2, 0.5]
TOL = 1e-10


def _close(x, y):
    return abs(x - y) <= TOL * max(1.0, abs(y))


def _assert_agrees(spec):
    sol = solve_hitting(spec)
    ref = reference_chain.solve_hitting(spec)
    states = sol.states.tolist()
    assert sorted(states) == sorted(ref.h)
    assert sol.initial == ref.initial
    for i, s in enumerate(states):
        assert _close(sol.h[i], ref.h[s])
        assert _close(sol.visit_prob[i], ref.visit_prob[s])
        assert _close(sol.expected_time_in[i], ref.expected_time_in.get(s, 0.0))
    assert _close(sol.E_T, ref.E_T)
    assert _close(sol.var_T, ref.var_T)
    assert _close(sol.kappa, ref.kappa)
    assert sol.monotone_h() == ref.monotone_h()
    assert lemma1_bound(sol).holds == reference_chain.lemma1_holds(ref, 1e-9)
    for d in GRID:
        for e in GRID:
            rep = lemma2_bound(sol, d, e)
            bad = reference_chain.lemma2_bad_states(ref, d, e)
            assert {states[i] for i in (rep.q_delta >= e).nonzero()[0]} == bad
            occupation_bad = sum(ref.expected_time_in[s] for s in bad)
            assert _close(rep.occupation_bad, occupation_bad)
            rhs = 2.0 * d + e + occupation_bad / ref.E_T
            assert rep.holds == (ref.var_T / ref.E_T**2 <= rhs + 1e-9)


def test_oracle_sweep200(sweep200):
    chains, _ = sweep200
    for g, _sol in chains:
        _assert_agrees(fpp_chain_spec(g, 0, g.n - 1))


@pytest.mark.parametrize("n", range(3, 13))
def test_oracle_complete_graphs(n):
    _assert_agrees(fpp_chain_spec(complete_graph(n), 0, n - 1))


def test_oracle_callable_chains():
    # irregular chains (multi-element jumps) go through the per-state adapter
    for spec in _random_discrete_chains(np.random.default_rng(11), 20, 7):
        _assert_agrees(spec)
