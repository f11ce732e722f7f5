import math

import numpy as np
import pytest

from fpplab import chain, cli
from fpplab.chain import (
    ChainSpec,
    ChainValidationError,
    UnreachableTargetError,
    continuization_check,
    large_decrement_outflow,
    lemma1_bound,
    lemma2_grid,
    solve_discrete,
    solve_hitting,
)
from fpplab.cli import _random_discrete_chains
from fpplab.fpp import fpp_chain_spec
from fpplab.graphs import CapacityError, WeightedGraph, complete_graph, path_graph

import reference_chain
from helpers import lemma2_bound, max_identity_error, traced_peak, variance_by_first_step


def weighted_path(rates):
    names = tuple(f"v{i}" for i in range(len(rates) + 1))
    edges = tuple((i, i + 1) for i in range(len(rates)))
    return WeightedGraph(names, edges, tuple(rates))


def test_single_edge_closed_form():
    for w in (0.25, 1.0, 3.5):
        sol = solve_hitting(fpp_chain_spec(weighted_path([w]), 0, 1))
        assert abs(sol.E_T - 1.0 / w) < 1e-12
        assert abs(sol.var_T - 1.0 / w**2) < 1e-12


def test_path_sums_closed_form():
    rates = [0.5, 2.0, 1.0, 4.0]
    sol = solve_hitting(fpp_chain_spec(weighted_path(rates), 0, len(rates)))
    assert abs(sol.E_T - sum(1.0 / w for w in rates)) < 1e-10
    assert abs(sol.var_T - sum(1.0 / w**2 for w in rates)) < 1e-10
    assert abs(sol.kappa - max(1.0 / w for w in rates)) < 1e-12


def test_triangle_anchor_values():
    # unit K3 from one corner to another: E T = 3/4, var T = 7/16
    sol = solve_hitting(fpp_chain_spec(complete_graph(3), 0, 1))
    assert abs(sol.E_T - 0.75) < 1e-12
    assert abs(sol.var_T - 0.4375) < 1e-12
    assert abs(sol.kappa - 0.75) < 1e-12


def test_occupation_variance_matches_first_step_recursion():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        from fpplab.graphs import random_gnp_graph

        g = random_gnp_graph(n, 0.6, (0.3, 3.0), rng)
        spec = fpp_chain_spec(g, 0, n - 1)
        sol = solve_hitting(spec)
        mean2, var2 = variance_by_first_step(spec)
        assert abs(sol.E_T - mean2) < 1e-10 * max(1.0, mean2)
        assert abs(sol.var_T - var2) < 1e-10 * max(1.0, var2)


def test_identity_and_monotonicity():
    sol = solve_hitting(fpp_chain_spec(complete_graph(4), 0, 3))
    assert max_identity_error(sol) < 1e-12
    assert sol.monotone_h()
    # visit probabilities of target states account for all the mass
    assert abs(sol.visit_prob[sol.is_target].sum() - 1.0) < 1e-12


def test_lemma1_and_lemma2_on_triangle():
    sol = solve_hitting(fpp_chain_spec(complete_graph(3), 0, 1))
    rep1 = lemma1_bound(sol)
    assert rep1["holds"]
    assert abs(rep1["var_over_mean"] - 7.0 / 12.0) < 1e-12
    rep2 = lemma2_bound(sol, 0.1, 0.1)
    assert rep2["holds"]
    assert abs(rep2["lhs"] - 7.0 / 9.0) < 1e-12
    assert abs(rep2["rhs"] - 1.3) < 1e-12  # 0.2 + 0.1 + (3/4)/(3/4)


def test_lemma2_threshold_tie_at_half():
    # K7, source adjacent to the target: the direct jump's decrement equals
    # the delta = 0.5 threshold 2*0.5*E T exactly, so it is not "large", no
    # state is bad and rhs = 2*0.5 + 0.1
    sol = solve_hitting(fpp_chain_spec(complete_graph(7), 0, 6))
    rep = lemma2_bound(sol, 0.5, 0.1)
    assert rep["occupation_bad"] == 0.0
    assert abs(rep["rhs"] - 1.1) < 1e-12
    assert not large_decrement_outflow(sol, 0.5).any()


def test_lemma2_threshold_tie_through_dead_ends():
    # 4, 7 and 8 hang off the source and open no route to the target, so
    # h is h(initial) on every state that adds only them, and their jumps
    # into the target tie with the delta = 0.5 threshold; rounding puts
    # three of those decrements 1 ulp above h(initial)
    g = WeightedGraph(tuple(f"v{i}" for i in range(9)),
                      ((0, 1), (0, 4), (0, 6), (1, 2), (1, 6), (2, 3), (2, 5), (0, 7), (0, 8),
                       (4, 7), (4, 8), (7, 8)), (0.5,) * 4 + (1.0,) + (0.5,) * 7)
    sol = solve_hitting(fpp_chain_spec(g, 0, 1))
    assert (sol.decrement > sol.h[0]).any()
    rep = lemma2_bound(sol, 0.5, 0.05)
    assert rep["occupation_bad"] == 0.0 and rep["rhs"] == 1.05
    assert not large_decrement_outflow(sol, 0.5).any()


def test_lemma2_rejects_nonpositive_grid():
    sol = solve_hitting(fpp_chain_spec(complete_graph(3), 0, 1))
    with pytest.raises(ValueError):
        lemma2_bound(sol, 0.0, 0.1)
    with pytest.raises(ValueError):
        lemma2_bound(sol, 0.1, -1.0)
    with pytest.raises(ValueError):
        lemma2_grid(sol, [0.1, 0.2], [0.1, 0.0])


def test_lemma2_grid_equals_each_cell_alone():
    sol = solve_hitting(fpp_chain_spec(complete_graph(8), 0, 7))
    deltas, epsilons = [0.05, 0.1, 0.2, 0.5], [0.05, 0.1, 0.2, 0.5]
    grid = lemma2_grid(sol, deltas, epsilons)
    cells = [(d, e) for d in deltas for e in epsilons]
    assert [(r["delta"], r["epsilon"]) for r in grid] == cells
    for rep, (d, e) in zip(grid, cells):
        assert rep == lemma2_bound(sol, d, e)


def test_solve_discrete_geometric():
    # one nonabsorbing state with escape probability p: N ~ Geometric(p)
    for p in (0.2, 0.5, 0.9):
        spec = ChainSpec(
            initial=0,
            transitions=lambda m, p=p: [(1, p)],
            is_target=lambda m: m == 1,
        )
        mean, var = solve_discrete(spec)
        assert abs(mean - 1.0 / p) < 1e-12
        assert abs(var - (1.0 - p) / p**2) < 1e-12


def test_continuization_geometric_exponential():
    # continuized geometric(p) is Exp(p): mean preserved, variance gains E T
    p = 0.3
    spec = ChainSpec(0, lambda m: [(1, p)], lambda m: m == 1)
    sol = solve_hitting(spec)
    assert abs(sol.E_T - 1.0 / p) < 1e-12
    d_mean, d_var = solve_discrete(spec)
    assert abs(sol.var_T - (d_var + d_mean)) < 1e-12


def test_continuization_check_random_chains():
    reps = continuization_check(_random_discrete_chains(np.random.default_rng(5), 20, 6))
    assert len(reps) == 20
    for rep in reps:
        assert rep["holds"]
        assert rep["mean_error"] <= 1e-10 and rep["var_error"] <= 1e-10


@pytest.mark.parametrize("bits", [4, 6, 8, 10])
def test_batched_continuization_equals_each_spec_alone(bits):
    # the tagged chain gives every spec exactly its own solve's floats
    for seed in range(4):
        specs = _random_discrete_chains(np.random.default_rng(seed), 12, bits)
        batched = continuization_check(specs)
        for spec, rep in zip(specs, batched):
            (alone,) = continuization_check([spec])
            assert rep == alone
            mean, var = solve_discrete(spec)
            assert (rep["mean_disc"], rep["var_disc"]) == (mean, var)
            sol = solve_hitting(spec)
            assert (rep["mean_cont"], rep["var_cont"]) == (sol.E_T, sol.var_T)


@pytest.mark.parametrize("rows", [4096, 5])
def test_random_chains_follow_their_contract(rows, monkeypatch):
    # a frontier wider than RANDOM_ROWS is drawn over several rounds
    monkeypatch.setattr(cli, "RANDOM_ROWS", rows)
    bits = 6
    for spec in _random_discrete_chains(np.random.default_rng(3), 30, bits):
        reach, todo = set(), [spec.initial]
        while todo:
            m = todo.pop()
            if m in reach:
                continue
            reach.add(m)
            outs = spec.transitions(m)
            if m == (1 << bits) - 1:
                assert spec.is_target(m) and not outs
                continue
            succ = [s for s, _ in outs]
            assert 1 <= len(succ) <= 3 and len(set(succ)) == len(succ)
            assert all(s & m == m and s != m and s < 1 << bits for s in succ)
            assert abs(sum(p for _, p in outs) - 1.0) < 1e-12
            todo.extend(succ)


def test_continuization_check_rejects_self_loops():
    ok = ChainSpec(0, lambda m: [(1, 1.0)], lambda m: m == 1)
    loop = ChainSpec(0b10, lambda m: [(0b11, 0.5)], lambda m: m == 0b11)
    with pytest.raises(ChainValidationError, match="spec 2 state 0x2 sum to 0.5"):
        continuization_check([ok, ok, loop])
    with pytest.raises(ChainValidationError, match="spec 1 state 0x0 sum to 1.5 > 1"):
        continuization_check([ok, ChainSpec(0, lambda m: [(1, 1.5)], lambda m: m == 1)])


def test_random_chains_too_wide_to_tag_are_a_capacity_error():
    # bits + count.bit_length() > 63 is refused before anything is drawn
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"drew {name}")

    for count, bits in ((1, 63), (2, 62), (1 << 20, 43)):
        with pytest.raises(CapacityError, match="wider than 63 bits"):
            _random_discrete_chains(NoDraws(), count, bits)


def test_random_chains_over_the_state_cap_are_a_capacity_error(monkeypatch):
    monkeypatch.setattr(chain, "STATE_CAP", 100)
    with pytest.raises(CapacityError, match="state cap 100"):
        _random_discrete_chains(np.random.default_rng(0), 50, 8)


def test_validation_errors():
    with pytest.raises(ChainValidationError):
        solve_hitting(ChainSpec(0, lambda m: [(1, -1.0)], lambda m: m == 1))
    with pytest.raises(ChainValidationError):
        # transition does not strictly increase the state
        solve_hitting(ChainSpec(1, lambda m: [(1, 1.0)], lambda m: False))
    with pytest.raises(UnreachableTargetError):
        solve_hitting(ChainSpec(0, lambda m: [], lambda m: False))


def test_state_capacity(monkeypatch):
    # a chain adding any one of 12 bits has 4096 states: it solves under the
    # default cap and must stop at the patched one
    spec = ChainSpec(
        initial=0,
        transitions=lambda m: [(m | (1 << b), 1.0) for b in range(12) if not (m >> b) & 1],
        is_target=lambda m: m == (1 << 12) - 1,
    )
    monkeypatch.setattr(chain, "STATE_CAP", 1000)
    with pytest.raises(CapacityError):
        solve_hitting(spec)


def test_wide_bitmasks_are_a_capacity_error():
    wide = 1 << 70
    with pytest.raises(CapacityError, match="wider than 63 bits"):
        solve_hitting(ChainSpec(0, lambda m: [(wide, 1.0)], lambda m: m == wide))
    with pytest.raises(CapacityError, match="wider than 63 bits"):
        solve_hitting(ChainSpec(wide, lambda m: [(wide | 1, 1.0)], lambda m: m != wide))


def test_callable_chain_that_skips_a_layer():
    # 0 -> 0b111 directly at rate 2, or through 0b011 at rate 1 then 1:
    # layer 1 is empty, and T = Exp(3) + [1/3 chance] Exp(1) has
    # E T = 1/3 + 1/3 and var T = 1/9 + (1/3) 2 - (1/3)^2, both 2/3
    out = {0b000: [(0b011, 1.0), (0b111, 2.0)], 0b011: [(0b111, 1.0)]}
    spec = ChainSpec(0, lambda m: out[m], lambda m: m == 0b111)
    sol = solve_hitting(spec)
    assert sol.states.tolist() == [0, 3, 7]
    assert abs(sol.E_T - 2.0 / 3.0) < 1e-12 and abs(sol.var_T - 2.0 / 3.0) < 1e-12
    ref = reference_chain.solve_hitting(spec)
    for s, h in zip(sol.states.tolist(), sol.h):
        assert abs(h - ref.h[s]) < 1e-12
    assert abs(sol.E_T - ref.E_T) < 1e-12 and abs(sol.var_T - ref.var_T) < 1e-12


def test_layered_state_capacity(monkeypatch):
    monkeypatch.setattr(chain, "STATE_CAP", 100)
    spec = fpp_chain_spec(complete_graph(12), 0, 11)
    with pytest.raises(CapacityError):
        solve_hitting(spec)


def test_exact_solver_memory_stays_near_its_output():
    # K17, 65 536 states: the solve and the Lemma 1 and 2 bounds allocate at
    # most 1.3x the solution's own arrays, so no temporary spans the chain
    spec = fpp_chain_spec(complete_graph(17), 0, 16)

    def solve_and_bound():
        sol = solve_hitting(spec)
        lemma1_bound(sol)
        for delta in (0.05, 0.5):
            lemma2_bound(sol, delta, 0.1)
        return sol

    sol, peak, _ = traced_peak(solve_and_bound)
    arrays = sum(v.nbytes for v in vars(sol).values() if isinstance(v, np.ndarray))
    assert sol.src.dtype == sol.dst.dtype == np.int32
    assert peak <= 1.3 * arrays
