import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpplab.fpp import (
    sample_coupling_batch,
    sample_dijkstra_batch,
    sample_fpp_batch,
    sample_lumped_fpp_batch,
    sample_traversal,
)
from fpplab.graphs import complete_graph, path_graph
from fpplab import growth, multigraph
from fpplab.growth import (
    GrowthConfig,
    coverage_samples,
    growth_samples,
    prop1_check,
    prop3_check,
)
from fpplab.multigraph import MultigraphTrajectory, sample_stopping_times, stopping_times
from fpplab import stats
from fpplab.stats import (
    ROW_CELLS,
    F_K_eval,
    RowStream,
    SampleStats,
    _spearman,
    band_verdict,
    block_runs,
    l0_norm_estimate,
    modulus_terms,
    psi_minus_eval,
    spawn_seeds,
    theorem1_lower_check,
    theorem1_trend_experiment,
    wilson_band,
)
import reference_growth
from helpers import Replay
from reference_fpp import shortest_path


def jackknife_se(samples, estimator) -> float:
    """Generic leave-one-out jackknife standard error of ``estimator``:
    one call per left-out sample, the oracle for the closed-form
    leave-one-out moments of ``SampleStats``."""
    x = np.asarray(samples, dtype=float)
    loo = np.array([estimator(np.delete(x, i)) for i in range(len(x))])
    return math.sqrt((len(x) - 1) * loo.var())


def exact_F_K(K, s):
    """Alternating-sum closed form of the second shortfall moment of an
    Irwin-Hall sum, valid for all 0 <= s <= K."""
    total = 0.0
    for j in range(int(math.floor(s)) + 1):
        total += (-1) ** j * math.comb(K, j) * (s - j) ** (K + 2)
    return 2.0 * total / math.factorial(K + 2)


def test_sample_stats_matches_generic_jackknife():
    rng = np.random.default_rng(0)
    x = rng.exponential(1.0, size=40)
    s = SampleStats.from_samples(x)
    assert s.mean == pytest.approx(x.mean())
    assert s.variance == pytest.approx(x.var(ddof=1))
    assert s.mean_se == pytest.approx(jackknife_se(x, np.mean), rel=1e-9)
    assert s.sd_se == pytest.approx(jackknife_se(x, lambda v: v.std(ddof=1)), rel=1e-9)
    assert s.ratio_se == pytest.approx(
        jackknife_se(x, lambda v: v.std(ddof=1) / v.mean()), rel=1e-9)


@pytest.mark.parametrize("stat, bound, band, verdict", [
    (1.0, 2.0, 0.5, (True, False)),   # band wholly below the bound
    (1.0, 1.5, 0.5, (True, False)),   # band touches the bound from below
    (1.0, 1.2, 0.5, (True, True)),    # straddles, estimate below the bound
    (1.3, 1.0, 0.5, (True, True)),    # straddles, estimate above the bound
    (1.5, 1.0, 0.5, (True, True)),    # band touches the bound from above
    (2.0, 1.0, 0.5, (False, False)),  # band wholly above the bound: FAIL
])
def test_band_verdict(stat, bound, band, verdict):
    assert band_verdict(stat, bound, band) == verdict


def test_variance_se_is_the_delta_method():
    x = np.random.default_rng(3).exponential(2.0, 500)
    s = SampleStats.from_samples(x)
    assert s.variance_se == 2.0 * s.sd * s.sd_se
    assert s.variance_se == pytest.approx(jackknife_se(x, lambda v: v.var(ddof=1)), rel=0.05)


def test_sample_stats_needs_three():
    with pytest.raises(ValueError):
        SampleStats.from_samples([1.0, 2.0])


def test_l0_norm_hand_cases():
    assert l0_norm_estimate([0.0, 0.0, 0.0]) == 0.0
    # all mass at 1: tail is 1 until delta reaches 1
    assert l0_norm_estimate([1.0, 1.0]) == 1.0
    # half the mass above 0.9: fixed point at the tail level 0.5
    assert l0_norm_estimate([0.0, 0.0, 0.9, 0.9]) == 0.5
    # tail at 0.4- is 0.5 > 0.4-, but at 0.4 it drops to 0.25 <= 0.4
    assert l0_norm_estimate([0.1, 0.2, 0.4, 0.6]) == 0.4
    with pytest.raises(ValueError):
        l0_norm_estimate([])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 2.0]) | st.floats(-3.0, 3.0),
                min_size=1, max_size=40))
def test_l0_norm_is_the_least_threshold_its_tail_does_not_exceed(values):
    # the definition, searched over every place the fixed point can sit:
    # 0, a sample value or a tail level k/n
    v = np.abs(np.asarray(values, dtype=float))
    n = len(v)
    candidates = np.concatenate([[0.0], v, np.arange(n + 1) / n])
    want = min(d for d in candidates if np.count_nonzero(v > d) / n <= d)
    assert l0_norm_estimate(values) == want


def _l0_by_np_unique(samples):
    """l0_norm_estimate as written with ``np.unique`` for the distinct
    values, the form it replaced."""
    vs = np.sort(np.abs(np.asarray(samples, dtype=float)))
    n = len(vs)
    u = np.unique(vs)
    ge_counts = n - np.searchsorted(vs, u, side="left")
    lefts = np.concatenate([[0.0], u])
    rights = np.concatenate([u, [math.inf]])
    tails = np.concatenate([ge_counts / n, [0.0]])
    i = int(np.argmax(tails < rights))
    return float(max(lefts[i], tails[i]))


@pytest.mark.parametrize("samples", [
    [0.3], [0.0], [7.0],                       # a single sample
    [0.4] * 5, [0.0] * 4, [2.0] * 3,           # all equal
    [0.1, 0.1, 0.5, 0.5, 0.5, 0.9],            # ties
    [-0.2, 0.2, 0.2, 0.6, -0.6, 1.5, 1.5],     # ties through |v|
    list(np.random.default_rng(5).integers(0, 6, 200) / 5.0),
])
def test_l0_norm_equals_the_np_unique_form(samples):
    assert l0_norm_estimate(samples) == _l0_by_np_unique(samples)


def test_wilson_band_is_the_theorem1_lower_interval():
    for tail, n in ((0.0, 10), (0.9, 1000), (1.0, 1000), (0.37, 3)):
        assert wilson_band(tail, n) == wilson(tail, n)


def test_l0_norm_uniform_limit():
    rng = np.random.default_rng(1)
    v = rng.random(200_000)
    # P(U > d) = 1 - d equals d at d = 1/2
    assert abs(l0_norm_estimate(v) - 0.5) < 0.01


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=1, max_size=60))
def test_l0_norm_is_a_fixed_point(samples):
    v = np.abs(np.asarray(samples))
    d = l0_norm_estimate(samples)
    n = len(v)
    assert np.mean(v > d) <= d + 1e-12
    # minimality: slightly below d the defining inequality fails (or d = 0)
    if d > 1e-9:
        eps = min(d * 1e-6, 1e-6)
        assert np.mean(v > d - eps) > d - eps - 1e-12


def test_F_K_closed_form_branches():
    assert F_K_eval(1, 1.0)["value"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert F_K_eval(3, 0.5)["value"] == pytest.approx(1.0 / 1920.0, rel=1e-12)
    assert F_K_eval(1, 0.0)["value"] == 0.0
    # s >= K: the shortfall never clips, so F_K = (s - K/2)^2 + K/12
    assert F_K_eval(2, 3.0)["value"] == pytest.approx((3.0 - 1.0) ** 2 + 2.0 / 12.0)
    with pytest.raises(ValueError):
        F_K_eval(0, 1.0)
    for s in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            F_K_eval(1, s)


def test_F_K_branches_match_alternating_sum():
    for K, s in [(1, 1.0), (3, 0.5), (2, 3.0), (4, 4.0)]:
        fk, exact = F_K_eval(K, s), exact_F_K(K, s)
        assert fk["value"] == pytest.approx(exact, rel=1e-12)
        assert fk["log_value"] == pytest.approx(math.log(exact), rel=1e-12)


def test_F_K_mc_branch_against_exact():
    # 1 < s < K, where F_K once fell back to Monte Carlo: the integer sum
    # must match the alternating sum and an independent seeded Monte Carlo
    rng = np.random.default_rng(125)
    for K, s in [(3, 1.5), (5, 2.0), (4, 2.5)]:
        fk, exact = F_K_eval(K, s), exact_F_K(K, s)
        assert fk["value"] == pytest.approx(exact, rel=1e-12)
        assert fk["log_value"] == pytest.approx(math.log(exact), rel=1e-12)
        draws = np.maximum(s - rng.random((200_000, K)).sum(axis=1), 0.0) ** 2
        stderr = math.sqrt(draws.var(ddof=1) / len(draws))
        assert abs(fk["value"] - draws.mean()) <= 3.0 * stderr


def test_F_K_large_K_above_one_is_finite():
    # 10^6 x K uniform draws would need 8.9 GiB here; the exact sum needs none
    fk = F_K_eval(1200, 3.5)
    assert math.isfinite(fk["log_value"]) and fk["value"] == 0.0  # below double range
    # the j = 0 term 2 * 3.5^1202 / 1202! dominates: the j = 1 term is 3e-173 of it
    lead = math.log(2.0) + 1202 * math.log(3.5) - math.lgamma(1203)
    assert fk["log_value"] == pytest.approx(lead, rel=1e-12)


def test_psi_minus_reference_value():
    # delta = 1: K = 3, s = 1/2, closed form composes to 1/sqrt(5760)
    p = psi_minus_eval(1.0)
    assert p["K"] == 3
    assert p["value"] == pytest.approx(1.0 / math.sqrt(5760.0), rel=1e-12)


def test_psi_minus_against_mpmath():
    import mpmath as mp

    mp.mp.dps = 50
    for delta in (1.0, 0.5, 0.25):
        d = mp.mpf(delta)
        K = int(mp.ceil(3 / d**2))
        s = d**2 / (3 - d**2)
        # lower-piece closed form of the shortfall moment (s <= 1 here)
        fk = 2 * s ** (K + 2) / mp.factorial(K + 2)
        val = mp.sqrt(mp.mpf(1) / 4 * (3 / d - d) ** 2 * fk * d / 3)
        got = psi_minus_eval(delta)
        assert got["log_value"] == pytest.approx(float(mp.log(val)), rel=1e-12)


def test_psi_minus_finite_log_deep_into_the_tail():
    p = psi_minus_eval(0.05)  # K = 1200; the value underflows doubles
    assert math.isfinite(p["log_value"])
    assert p["value"] == 0.0
    with pytest.raises(ValueError):
        psi_minus_eval(0.0)
    with pytest.raises(ValueError):
        psi_minus_eval(1.5)


def test_tiny_deltas_are_evaluated_in_log_space_or_rejected():
    # bisect to the smallest delta whose K and log factor are finite doubles
    ok, bad = 1e-150, 1e-200
    while math.nextafter(ok, 0.0) != bad:
        mid = math.exp((math.log(ok) + math.log(bad)) / 2.0)
        mid = mid if bad < mid < ok else math.nextafter(ok, 0.0)
        try:
            modulus_terms(mid)
            ok = mid
        except ValueError:
            bad = mid
    assert 1e-153 < ok < 1e-152
    assert math.isfinite(psi_minus_eval(ok)["log_value"])
    (point,) = theorem1_lower_check(np.ones(10), 1.0, 0.5, [ok])
    assert point["holds"] and math.isfinite(point["log_rhs"])
    # below it, and far below it (K overflows, d^2 underflows to 0)
    for delta in (bad, 1e-160, 1e-200, 5e-324):
        with pytest.raises(ValueError, match="log space"):
            psi_minus_eval(delta)
        with pytest.raises(ValueError, match="log space"):
            theorem1_lower_check(np.ones(10), 1.0, 0.5, [delta])


def test_theorem1_lower_trivial_when_tail_small():
    # no Xi mass above delta * mean: the clamped slack makes the bound trivial
    pts = theorem1_lower_check(np.zeros(100), 1.0, 0.5, [0.5])
    assert pts[0]["holds"] and pts[0]["slack"] == 0.0


def test_theorem1_lower_on_single_edge():
    # X = Xi ~ Exp(1): var/E^2 = 1, and the bound must stay below it
    rng = np.random.default_rng(3)
    xi = rng.exponential(1.0, 50_000)
    pts = theorem1_lower_check(xi, 1.0, 1.0, [0.25, 0.5, 1.0])
    assert all(p["holds"] for p in pts)
    assert any(p["slack"] > 0 for p in pts)  # the bound bites somewhere


def wilson(tail, n, z=3.0):
    """(centre, half-width) of the z-sigma Wilson score interval."""
    z2 = z * z / n
    return ((tail + z2 / 2) / (1 + z2),
            z * math.sqrt(tail * (1 - tail) / n + z2 / (4 * n)) / (1 + z2))


def test_theorem1_lower_band_straddling_and_failing():
    # at delta = 1 (K = 3) the bound reads lhs >= F_3(1/2) (tail - 2/3)^+; a
    # tail of 0.9 from 1000 runs has a 3-sigma Wilson half-width of 0.0286
    xi = np.array([2.0] * 900 + [0.0] * 100)
    coef = F_K_eval(3, 0.5)["value"]
    _, band = wilson(0.9, 1000)
    assert band == pytest.approx(0.02856, abs=1e-5)
    cases = {1.0: (True, False),            # allows a tail of 5/3: a clear pass
             0.9 + band / 2: (True, True),  # the band straddles the largest tail
             0.8: (False, False)}           # the whole band lies past it: FAIL
    for allowed, verdict in cases.items():
        (p,) = theorem1_lower_check(xi, 1.0, coef * (allowed - 2.0 / 3.0), [1.0])
        assert p["tail"] == 0.9 and p["tail_band"] == pytest.approx(band)
        assert (p["holds"], p["inconclusive"]) == verdict


def test_theorem1_lower_band_stays_open_at_a_tail_of_one():
    # every Xi above delta * mean: the Wald band sqrt(tail (1 - tail) / n)
    # would be 0, while the Wilson interval [0.9911, 1] keeps a width
    xi = np.full(1000, 2.0)
    coef = F_K_eval(3, 0.5)["value"]
    centre, band = wilson(1.0, 1000)
    assert band > 0.004 and centre + band == pytest.approx(1.0)
    for allowed, verdict in {1.05: (True, False),    # the whole interval is allowed
                             0.995: (True, True),    # inside the interval: straddles
                             0.99: (False, False)}.items():  # below it: FAIL
        (p,) = theorem1_lower_check(xi, 1.0, coef * (allowed - 2.0 / 3.0), [1.0])
        assert p["tail"] == 1.0 and p["tail_band"] == pytest.approx(band)
        assert (p["holds"], p["inconclusive"]) == verdict


def test_theorem1_lower_takes_its_largest_tail_in_log_space():
    # F_K(d^2/(3 - d^2)) at d = 0.1 underflows a double; every tail is allowed
    assert F_K_eval(300, 0.1**2 / (3.0 - 0.1**2))["value"] == 0.0
    (p,) = theorem1_lower_check(np.full(1000, 2.0), 1.0, 1e-300, [0.1])
    assert p["tail"] == 1.0 and p["holds"] and not p["inconclusive"]
    assert p["log_rhs"] < math.log(1e-300)


def test_trend_experiment_requires_five_members():
    with pytest.raises(ValueError):
        theorem1_trend_experiment([("a", 1, None, 0, 1)] * 4, 100, seed=0)


def test_a_seed_sequence_passed_twice_gives_the_same_runs():
    ss = np.random.SeedSequence(9)
    g = complete_graph(5)
    first, again = (sample_fpp_batch(g, 0, 4, 10, ss) for _ in range(2))
    assert np.array_equal(first.X, again.X) and np.array_equal(first.Xi, again.Xi)
    first, again = (sample_stopping_times(complete_graph(4), [1, 2], 6, ss) for _ in range(2))
    for kind in first:
        for k in first[kind]:
            assert np.array_equal(first[kind][k], again[kind][k])
    cfg = GrowthConfig.builtin([[1, 0], [0, 1]], "constant", c=1.0)
    assert prop1_check(cfg, stats.MIN_RUNS, ss) == prop1_check(cfg, stats.MIN_RUNS, ss)
    assert ss.n_children_spawned == 0


def test_spawn_seeds_gives_run_i_its_own_stream():
    seed, runs = 9, 50
    children = np.random.SeedSequence(seed).spawn(runs)
    assert [c.spawn_key for c in spawn_seeds(seed, runs)] == [c.spawn_key for c in children]
    g = complete_graph(5)
    B = block_runs(g.m)
    fpp_runs = B + 3  # the FPP samplers draw in blocks of B runs; cross one boundary
    batch = sample_fpp_batch(g, 0, 4, fpp_runs, seed)
    # FPP run i is row i % B of block i // B, the block drawn from
    # default_rng(SeedSequence(seed).spawn(n_blocks)[i // B])
    blocks = [sample_traversal(g, np.random.default_rng(c), B)
              for c in np.random.SeedSequence(seed).spawn(2)]
    for i in range(fpp_runs):
        ref = shortest_path(g, blocks[i // B][i % B], 0, 4)
        assert batch.Xi[i] == ref.Xi and batch.path_len[i] == len(ref.path_edges)
        assert abs(batch.X[i] - ref.X) < 1e-12


# Every Monte Carlo sampler, as (draw(runs, seed) -> its arrays, the
# uniforms per run c() and block budget that size its blocks, the module
# constant that sets its row length, or None when no run outlives its row);
# prop1_check and prop3_check judge the samples of growth_samples and
# coverage_samples
K4, K5 = complete_graph(4), complete_graph(5)
RING2 = GrowthConfig.builtin([[2, 0], [-2, 0], [0, 2], [0, -2], [1, 1], [-1, 1], [1, -1], [-1, -1]],
                             "site_weighted", c_lo=0.5, c_hi=2.0)
PATH5 = path_graph(5)
SAMPLERS = {
    "sample_dijkstra_batch": (
        lambda runs, seed: list(vars(sample_dijkstra_batch(K5, 0, 4, runs, seed)).values()),
        lambda: K5.m, stats.BLOCK_CELLS, None),
    "sample_lumped_fpp_batch": (
        lambda runs, seed: list(vars(sample_lumped_fpp_batch(K5, 0, 4, runs, seed)).values()),
        lambda: 4 * (K5.n - 1), stats.BLOCK_CELLS, None),
    "sample_coupling_batch": (
        lambda runs, seed: list(vars(sample_coupling_batch(K5, 0, 4, runs, seed, 0.2, 1.5)).values()),
        lambda: K5.m, stats.BLOCK_CELLS, None),
    "sample_stopping_times": (
        lambda runs, seed: [t for by_k in sample_stopping_times(
            K4, [1], runs, seed, kinds=("span", "tria")).values() for t in by_k.values()],
        lambda: 2 * multigraph.CHUNK, ROW_CELLS, (multigraph, "CHUNK")),
    "prop1_check": (
        lambda runs, seed: [growth_samples(RING2, runs, seed)],
        lambda: 2 * growth.GROWTH_ROW, ROW_CELLS, (growth, "GROWTH_ROW")),
    "prop3_check": (
        lambda runs, seed: [coverage_samples(PATH5, runs, seed)],
        lambda: growth.COVERAGE_ROW, ROW_CELLS, (growth, "COVERAGE_ROW")),
}


@pytest.mark.parametrize("name, row", [(name, None) for name in SAMPLERS] + [
    (name, row) for name, entry in SAMPLERS.items() if entry[3] for row in (1, 2)])
def test_every_sampler_keeps_the_block_stream_contract(name, row, monkeypatch):
    # an int seed and the same SeedSequence give the same runs, and a batch
    # that ends a few runs into its second block is a prefix of a longer
    # one; with rows of one or two draws every run reads on from its own
    # extension stream, and the same holds
    draw, c, cells, row_attr = SAMPLERS[name]
    if row is not None:
        monkeypatch.setattr(*row_attr, row)
    B = block_runs(c(), cells)
    short = draw(B + 3, 9)
    same = draw(B + 3, np.random.SeedSequence(9))
    longer = draw(2 * B + 1, 9)
    assert len(short) == len(same) == len(longer) > 0
    for a, b, full in zip(short, same, longer):
        assert len(a) == B + 3
        assert np.array_equal(a, b) and np.array_equal(full[:B + 3], a)


@pytest.mark.parametrize("name", ["sample_stopping_times", "prop1_check", "prop3_check"])
def test_row_sampler_run_i_reads_its_block_row_then_its_own_stream(name, monkeypatch):
    # run i reads row i % B of block i // B, drawn as random((B, *row)) from
    # default_rng(SeedSequence(seed).spawn(n_blocks)[i // B]), then row
    # shapes from SeedSequence(block.entropy, spawn_key=block.spawn_key +
    # (i % B,)); rows of 3 draws make most runs read on
    _, c, cells, row_attr = SAMPLERS[name]
    row = 3
    monkeypatch.setattr(*row_attr, row)
    seed, B = 9, block_runs(c(), cells)
    if name == "sample_stopping_times":
        got = sample_stopping_times(K4, [2], B + 3, seed, kinds=("span",))["span"][2]
        shape = (2, row)
        replay = lambda rng: stopping_times(MultigraphTrajectory(K4, rng), [2], "span")[2]
    elif name == "prop1_check":
        got = growth_samples(RING2, B + 3, seed)
        shape = (2, row)
        replay = lambda rng: reference_growth.growth_hitting_time(RING2, rng)
    else:
        got = coverage_samples(PATH5, B + 3, seed)
        shape = (row,)
        replay = lambda rng: reference_growth.coverage_draws(5, PATH5.edge_array().tolist(), rng)
    children = np.random.SeedSequence(seed).spawn(2)
    rows = [np.random.default_rng(child).random((B, *shape)) for child in children]
    for i in range(B + 3):
        child = children[i // B]
        own = np.random.default_rng(np.random.SeedSequence(
            child.entropy, spawn_key=child.spawn_key + (i % B,)))
        assert got[i] == replay(Replay(rows[i // B][i % B], own))


def test_row_samplers_make_one_generator_per_block(monkeypatch):
    # at most one generator per block plus one per run that outlived its
    # row: a regression to a generator per run fails here
    runs = 3000
    cross = GrowthConfig.builtin([[3, 0], [-3, 0], [0, 3], [0, -3]],
                                 "site_weighted", c_lo=0.5, c_hi=2.0)
    cases = [
        (lambda: sample_stopping_times(K4, [1, 2], runs, 5, kinds=("span",)),
         2 * multigraph.CHUNK),
        (lambda: prop1_check(cross, runs, 6), 2 * growth.GROWTH_ROW),
        (lambda: prop3_check(PATH5, runs, 7), growth.COVERAGE_ROW),
    ]
    real_rng, real_random = np.random.default_rng, RowStream.random
    for run, c in cases:
        made, outlived = [0], [0]

        def counting_rng(*args, **kwargs):
            made[0] += 1
            return real_rng(*args, **kwargs)

        def counting_random(self, shape):
            outlived[0] += self._rng is None
            return real_random(self, shape)

        with monkeypatch.context() as mp:
            mp.setattr(np.random, "default_rng", counting_rng)
            mp.setattr(RowStream, "random", counting_random)
            run()
        n_blocks = -(-runs // block_runs(c, ROW_CELLS))
        assert made[0] <= n_blocks + outlived[0]
        assert outlived[0] <= runs // 100  # so the bound above says something


def test_spearman_matches_scipy_bitwise():
    from scipy.stats import spearmanr  # the oracle, in the test only

    rng = np.random.default_rng(31)
    compared = 0
    for trial in range(600):
        n = int(rng.integers(3, 15))
        if trial % 2:  # few distinct values: ties on both sides
            a, b = rng.integers(0, 4, size=(2, n)).astype(float)
        else:
            a, b = rng.normal(size=(2, n))
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            continue  # a constant input has no rank correlation
        assert _spearman(a, b) == spearmanr(a, b).statistic
        compared += 1
    assert compared > 500


def test_spearman_leaves_scipy_stats_unloaded():
    code = ("import sys; from fpplab.stats import _spearman; "
            "_spearman([3.0, 1.0, 2.0, 2.0, 5.0], [0.1, 0.4, 0.2, 0.3, 0.3]); "
            "print('scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(stats.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
