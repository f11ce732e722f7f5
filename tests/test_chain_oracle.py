"""The array-backed solver against the dict-based reference solver."""

import numpy as np
import pytest

from fpplab.chain import large_decrement_outflow, lemma1_bound, solve_hitting
from fpplab.cli import _random_discrete_chains
from fpplab.fpp import fpp_chain_spec
from fpplab.graphs import bridge_graph, complete_graph, random_gnp_graph

import reference_chain
from helpers import lemma2_bound

GRID = [0.05, 0.1, 0.2, 0.5]
TOL = 1e-10


def _close(x, y):
    return abs(x - y) <= TOL * max(1.0, abs(y))


def _assert_agrees(spec, ref_spec=None):
    """The array core on ``spec`` against the dict solver on ``ref_spec``
    (``spec`` itself by default)."""
    sol = solve_hitting(spec)
    ref = reference_chain.solve_hitting(ref_spec or spec)
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
    assert lemma1_bound(sol)["holds"] == reference_chain.lemma1_holds(ref, 1e-9)
    for d in GRID:
        q_delta = large_decrement_outflow(sol, d)
        for e in GRID:
            rep = lemma2_bound(sol, d, e)
            bad = reference_chain.lemma2_bad_states(ref, d, e)
            assert {states[i] for i in (q_delta >= e).nonzero()[0]} == bad
            occupation_bad = sum(ref.expected_time_in[s] for s in bad)
            assert _close(rep["occupation_bad"], occupation_bad)
            rhs = 2.0 * d + e + occupation_bad / ref.E_T
            assert rep["holds"] == (ref.var_T / ref.E_T**2 <= rhs + 1e-9)


def _assert_fpp_agrees(g, s, t):
    # the production layer rule and the plain-Python reference rule
    _assert_agrees(fpp_chain_spec(g, s, t), reference_chain.fpp_spec(g, s, t))


def test_oracle_sweep200(sweep200):
    chains, _ = sweep200
    for g, _sol in chains:
        _assert_fpp_agrees(g, 0, g.n - 1)


@pytest.mark.parametrize("n", range(3, 13))
def test_oracle_complete_graphs(n):
    _assert_fpp_agrees(complete_graph(n), 0, n - 1)


def _fpp_graphs(sweep200):
    chains, _ = sweep200
    yield from (g for g, _sol in chains)
    yield from (complete_graph(n) for n in range(3, 13))
    yield bridge_graph(3, 3, 0.1)


def test_fpp_transitions_equal_the_reference_rule(sweep200):
    # the per-state view of the layer rule lists the same successors, in the
    # same order, with bit-identical rates, on every reachable non-target state
    for g in _fpp_graphs(sweep200):
        spec = fpp_chain_spec(g, 0, g.n - 1)
        _, reference = reference_chain._enumerate_reachable(
            reference_chain.fpp_spec(g, 0, g.n - 1))
        for mask, outs in reference.items():
            assert spec.transitions(mask) == outs


def test_fpp_layer_rates_equal_the_reference_rule():
    # a whole layer at once, on 20 vertices with random rates, where the
    # sums have up to 19 terms and their order shows in the last bits
    g = random_gnp_graph(20, 0.7, (0.2, 3.0), np.random.default_rng(19))
    ref = reference_chain.fpp_spec(g, 0, g.n - 1)
    masks = np.random.default_rng(20).integers(0, 1 << 20, size=3000) | 1
    is_target, src, successors, rate = fpp_chain_spec(g, 0, g.n - 1).expand(masks)
    listed = [[] for _ in masks]
    for i, s2, q in zip(src.tolist(), successors.tolist(), rate.tolist()):
        listed[i].append((s2, q))
    for mask, target, outs in zip(masks.tolist(), is_target.tolist(), listed):
        assert target == ref.is_target(mask)
        assert outs == ([] if target else ref.transitions(mask))


def test_oracle_callable_chains():
    # irregular chains (multi-element jumps) go through the per-state adapter
    for spec in _random_discrete_chains(np.random.default_rng(11), 20, 7):
        _assert_agrees(spec)
