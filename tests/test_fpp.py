import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpplab.fpp import (
    conditioned_exponential,
    coupled_resample,
    fpp_chain_spec,
    prop4_check,
    sample_fpp_batch,
    sample_traversal,
    shortest_path,
    submultiplicativity_probe,
    traversal_from_uniform,
)
from fpplab.chain import solve_hitting
from fpplab.graphs import CapacityError, complete_graph, grid_graph, path_graph, random_gnp_graph


def all_simple_paths(g, source, target):
    out = []

    def dfs(v, seen, path):
        if v == target:
            out.append(tuple(path))
            return
        for u, e in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                path.append(u)
                dfs(u, seen, path)
                path.pop()
                seen.discard(u)

    dfs(source, {source}, [source])
    return out


def path_cost(g, xi, path):
    return sum(float(xi[g.edge_index(path[i], path[i + 1])]) for i in range(len(path) - 1))


def test_traversal_from_uniform():
    assert abs(traversal_from_uniform(math.exp(-2.0), 1.0) - 2.0) < 1e-12
    assert abs(traversal_from_uniform(math.exp(-6.0), 3.0) - 2.0) < 1e-12


def test_sample_traversal_positive_and_right_law():
    g = complete_graph(4)
    rng = np.random.default_rng(0)
    xs = np.array([sample_traversal(g, rng) for _ in range(4000)])
    assert np.all(xs > 0)
    # unit-rate edges: mean 1 within MC noise
    assert abs(xs.mean() - 1.0) < 0.05


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_shortest_path_is_optimal(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    g = random_gnp_graph(n, 0.6, (0.5, 2.0), rng)
    xi = sample_traversal(g, rng)
    res = shortest_path(g, xi, 0, n - 1)
    paths = all_simple_paths(g, 0, n - 1)
    best = min(path_cost(g, xi, p) for p in paths)
    assert abs(res.X - best) < 1e-9
    assert abs(path_cost(g, xi, res.path) - res.X) < 1e-12
    assert res.Xi == max(float(xi[e]) for e in res.path_edges)
    assert res.Xi <= res.X + 1e-12


def test_shortest_path_lexicographic_tie_break():
    # two equal-cost routes through a 4-cycle: the smaller vertex sequence wins
    g = grid_graph(2, 2)  # vertices 0,1,2,3; edges of a square
    xi = np.ones(g.m)
    res = shortest_path(g, xi, 0, 3)
    assert res.X == 2.0
    assert res.path == (0, 1, 3)


def test_batch_sampler_matches_reference_dijkstra():
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(3, 8))
        g = random_gnp_graph(n, 0.6, (0.5, 2.0), rng)
        batch = sample_fpp_batch(g, 0, n - 1, 3, seed=trial)
        for i, child in enumerate(np.random.SeedSequence(trial).spawn(3)):
            xi = sample_traversal(g, np.random.default_rng(child))
            ref = shortest_path(g, xi, 0, n - 1)
            assert abs(batch.X[i] - ref.X) < 1e-9
            # exponential ties have probability zero, so Xi and the path agree too
            assert abs(batch.Xi[i] - ref.Xi) < 1e-9
            assert batch.path_len[i] == len(ref.path_edges)


def test_sample_fpp_batch_thread_determinism():
    # run i depends on (seed, i) alone: repeating a batch, or cutting it
    # short, changes none of the runs it shares with another batch
    g = complete_graph(5)
    b200 = sample_fpp_batch(g, 0, 4, 200, seed=9)
    again = sample_fpp_batch(g, 0, 4, 200, seed=9)
    b60 = sample_fpp_batch(g, 0, 4, 60, seed=9)
    for name in ("X", "Xi", "path_len"):
        assert np.array_equal(getattr(b200, name), getattr(again, name))
        assert np.array_equal(getattr(b200, name)[:60], getattr(b60, name))


def test_fpp_chain_capacity_and_args():
    with pytest.raises(CapacityError):
        fpp_chain_spec(complete_graph(21), 0, 1)
    with pytest.raises(ValueError):
        fpp_chain_spec(complete_graph(3), 1, 1)


def test_prop4_triangle():
    g = complete_graph(3)
    sol = solve_hitting(fpp_chain_spec(g, 0, 1))
    rep = prop4_check(sol, g)
    assert rep.holds
    assert rep.w_min == 1.0
    assert abs(rep.bound - 0.75) < 1e-12


def test_conditioned_exponential_support_and_cdf():
    w, a, b = 1.7, 0.3, 2.1
    us = np.linspace(0.0, 1.0, 101)
    xs = np.array([conditioned_exponential(w, a, b, u) for u in us])
    assert np.all((xs >= a - 1e-12) & (xs <= b + 1e-12))
    assert np.all(np.diff(xs) > 0)  # inverse CDF is increasing
    # closed-form conditional CDF at the sampled points recovers u
    sa, sb = math.exp(-w * a), math.exp(-w * b)
    cdf = (sa - np.exp(-w * xs)) / (sa - sb)
    assert np.allclose(cdf, us, atol=1e-9)


def test_conditioned_exponential_ks():
    from scipy.stats import kstest

    w, a, b = 0.8, 0.5, 3.0
    rng = np.random.default_rng(11)
    draws = np.array([conditioned_exponential(w, a, b, rng.random())
                      for _ in range(5000)])
    sa, sb = math.exp(-w * a), math.exp(-w * b)
    res = kstest(draws, lambda x: (sa - np.exp(-w * np.asarray(x))) / (sa - sb))
    assert res.pvalue > 1e-3


def test_coupled_resample_pathwise_bound():
    g = complete_graph(4)
    rng = np.random.default_rng(2)
    for _ in range(300):
        xi = sample_traversal(g, rng)
        cs = coupled_resample(g, xi, 0.2, 1.5, rng)
        # agreement off the window, support inside it
        for e in range(g.m):
            if 0.2 <= xi[e] <= 1.5:
                assert 0.2 - 1e-12 <= cs.xi_prime[e] <= 1.5 + 1e-12
            else:
                assert cs.xi_prime[e] == xi[e]
        assert cs.X_prime - cs.X <= cs.increment_bound() + 1e-9


def test_coupled_resample_validates_interval():
    g = complete_graph(3)
    xi = np.ones(g.m)
    with pytest.raises(ValueError):
        coupled_resample(g, xi, 1.0, 0.5, np.random.default_rng(0))


def test_submultiplicativity_probe_reporting():
    rng = np.random.default_rng(1)
    samples = rng.exponential(1.0, size=20_000)
    rep = submultiplicativity_probe(samples, 1.0, 1.0)
    assert "warning" not in rep
    # exponential tails are exactly multiplicative: P(X>2) = P(X>1)^2
    assert rep["holds_within_band"]
    small = submultiplicativity_probe(samples[:100], 1.0, 1.0)
    assert "warning" in small
