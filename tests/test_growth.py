import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_growth
from helpers import RateMonotonicityError, validate_rate_monotone
from fpplab import cli, growth
from fpplab.chain import ChainSpec, solve_discrete, solve_hitting
from fpplab.graphs import grid_graph, path_graph
from fpplab.growth import (
    RATE_BUILTINS,
    CoverageConfig,
    GrowthConfig,
    coverage_chain_spec,
    coverage_samples,
    coverage_simulate,
    constant_rate,
    growth_hitting_time,
    growth_samples,
    neighbor_count_rate,
    prop1_check,
    prop3_check,
    site_weighted_rate,
    _variance_inequality_report,
)
from fpplab.stats import ROW_CELLS, RowStream, SampleStats, blocks


_BUILTIN_PARAMS = {
    "constant": {"c": 1.3},
    "site_weighted": {"c_lo": 0.5, "c_hi": 2.0},
    "neighbor_count": {"base": 0.7},
}


def test_rate_builtins_respect_bounds():
    rng = np.random.default_rng(0)
    fn, lo, hi = site_weighted_rate(0.5, 2.0)
    for x, y in ((0, 0), (3, -2), (-7, 5)):
        for k in range(1, 5):
            assert lo <= fn(x, y, k) <= hi
            assert fn(x, y, k) == fn(x, y, 1)
    validate_rate_monotone(fn, rng)
    fn, lo, hi = neighbor_count_rate(0.7)
    assert fn(1, 0, 1) == 0.7
    assert fn(0, 1, 3) == pytest.approx(2.1)
    validate_rate_monotone(fn, np.random.default_rng(1))
    for kind, params in _BUILTIN_PARAMS.items():
        validate_rate_monotone(RATE_BUILTINS[kind](**params)[0], np.random.default_rng(4))


def test_validate_rate_monotone_catches_decreasing():
    def bad_rate(x, y, k):
        return 1.0 / k  # shrinks as the cluster grows

    with pytest.raises(RateMonotonicityError):
        validate_rate_monotone(bad_rate, np.random.default_rng(2))


def test_growth_config_validation():
    with pytest.raises(ValueError):
        GrowthConfig.builtin([[0, 0]], "constant", c=1.0)  # origin in target
    with pytest.raises(ValueError):
        GrowthConfig.builtin([], "constant", c=1.0)  # a run could never end
    with pytest.raises(ValueError):
        GrowthConfig.builtin([[1, 0]], "no-such-rate")
    with pytest.raises(ValueError):
        GrowthConfig.builtin([[1, 0]], "constant", c=float("nan"))
    # malformed target sites never reach the simulator
    for target in ([[3]], [], [[1.5, 0]], [[1, 2, 3]], [[True, 0]], [5], "x"):
        with pytest.raises(cli.ConfigError):
            cli._growth_config({"growth": {"target": target}})


def test_growth_first_jump_law():
    # target adjacent to the origin, constant rate c: the frontier has 4
    # sites, so the chance the first jump hits the target is 1/4 and the
    # jump time is Exp(4c)
    cfg = GrowthConfig.builtin([[1, 0], [-1, 0], [0, 1], [0, -1]], "constant", c=2.0)
    rng = np.random.default_rng(3)
    ts = np.array([growth_hitting_time(cfg, rng) for _ in range(4000)])
    assert abs(ts.mean() - 1.0 / 8.0) < 4.0 * ts.std(ddof=1) / math.sqrt(len(ts))


_AXES = ((1, 0), (-1, 0), (0, 1), (0, -1))


def ring_chain_spec(rate) -> ChainSpec:
    """Growth with the ring |x| + |y| = 2 as target: until the hit, the
    cluster is the origin plus a subset of its four neighbours (bits 0-3);
    bit 4 marks the hit."""
    def transitions(mask):
        cluster = {(0, 0)} | {a for i, a in enumerate(_AXES) if mask >> i & 1}
        frontier = {(x + dx, y + dy) for x, y in cluster for dx, dy in _AXES} - cluster
        out, hit = [], 0.0
        for x, y in frontier:
            r = rate(x, y, sum((x + dx, y + dy) in cluster for dx, dy in _AXES))
            if (x, y) in _AXES:
                out.append((mask | 1 << _AXES.index((x, y)), r))
            else:
                hit += r
        return out + ([(mask | 1 << 4, hit)] if hit else [])

    return ChainSpec(initial=0, transitions=transitions, is_target=lambda m: m >> 4 & 1)


@pytest.mark.parametrize("rate, exact_mean", [
    (site_weighted_rate(0.5, 2.0), 0.44594),
    (neighbor_count_rate(0.7), 0.70387),
    (constant_rate(1.0), 0.50437),
])
def test_growth_hitting_time_matches_exact_ring_chain(rate, exact_mean):
    fn, c_lo, c_hi = rate
    sol = solve_hitting(ring_chain_spec(fn))
    assert sol.E_T == pytest.approx(exact_mean, abs=1e-5)
    ring = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if abs(x) + abs(y) == 2]
    cfg = GrowthConfig(target=frozenset(ring), rate=fn, c_lo=c_lo, c_hi=c_hi)
    rng = np.random.default_rng(11)
    stats = SampleStats.from_samples([growth_hitting_time(cfg, rng) for _ in range(20_000)])
    assert abs(stats.mean - sol.E_T) <= 4.0 * stats.mean_se
    assert abs(stats.variance - sol.var_T) <= 4.0 * stats.variance_se


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_BUILTIN_PARAMS)),
       target=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6))
                       .filter(lambda v: 0 < abs(v[0]) + abs(v[1]) <= 6),
                       min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_growth_hitting_time_matches_rebuild_every_step_reference(kind, target, seed):
    cfg = GrowthConfig.builtin(target, kind, **_BUILTIN_PARAMS[kind])
    fast = growth_hitting_time(cfg, np.random.default_rng(seed))
    assert fast == reference_growth.growth_hitting_time(cfg, np.random.default_rng(seed))


def test_growth_hitting_time_rates_only_the_new_sites_neighbours():
    # each site is rated once as it joins the frontier and once more per
    # cluster neighbour it gains after that, at its count so far
    fn, c_lo, c_hi = constant_rate(1.0)
    seen = {}

    def counting(x, y, k):
        seen.setdefault((x, y), []).append(k)
        return fn(x, y, k)

    cfg = GrowthConfig(target=frozenset({(20, 0), (-20, 0), (0, 20), (0, -20)}),
                       rate=counting, c_lo=c_lo, c_hi=c_hi)
    growth_hitting_time(cfg, np.random.default_rng(5))
    assert len(seen) > 100
    for ks in seen.values():
        assert ks == list(range(1, len(ks) + 1)) and len(ks) <= 4


@pytest.mark.parametrize("kind", sorted(_BUILTIN_PARAMS))
def test_growth_samples_are_lattice_fpp_in_law(kind):
    # Richardson growth is FPP on Z^2: site FPP when the rate is fixed by
    # the site, bond FPP at neighbor_count's rate; two-sample KS of the
    # block sampler against a lazily drawn Dijkstra
    from scipy.stats import ks_2samp  # the test's oracle only

    cfg = GrowthConfig.builtin([[3, 0], [-3, 0], [0, 3], [0, -3]], kind, **_BUILTIN_PARAMS[kind])
    ours = growth_samples(cfg, 3000, seed=12)
    rng = np.random.default_rng(13)
    if kind == "neighbor_count":
        base = _BUILTIN_PARAMS[kind]["base"]
        ref = [reference_growth.bond_fpp_hitting_time(cfg.target, base, rng) for _ in range(3000)]
    else:
        ref = [reference_growth.site_fpp_hitting_time(cfg, rng) for _ in range(3000)]
    assert ks_2samp(ours, ref).pvalue > 1e-6


def test_prop1_check_passes():
    cfg = GrowthConfig.builtin([[2, 0], [-2, 0], [0, 2], [0, -2]],
                               "site_weighted", c_lo=0.5, c_hi=2.0)
    rep = prop1_check(cfg, 2000, seed=6)
    assert rep.holds
    with pytest.raises(ValueError):
        prop1_check(cfg, 10, seed=0)


def test_variance_inequality_report_verdicts():
    samples = np.random.default_rng(4).exponential(1.0, 2000)
    var = float(np.var(samples, ddof=1))
    # a bound equal to the sample variance sits inside the band
    rep = _variance_inequality_report(samples, lambda m: var)
    assert rep.holds and rep.inconclusive
    # a bound far below the whole band fails outright
    rep = _variance_inequality_report(samples, lambda m: var / 10.0)
    assert not rep.holds and not rep.inconclusive
    # a bound far above the whole band passes outright
    rep = _variance_inequality_report(samples, lambda m: 10.0 * var)
    assert rep.holds and not rep.inconclusive


def test_coverage_config_allows_disconnected():
    cfg = CoverageConfig(n=3, edges=())
    assert cfg.closed_neighborhoods() == [1, 2, 4]
    with pytest.raises(ValueError):
        CoverageConfig(n=2, edges=((0, 2),))


def test_coverage_path3_exact():
    # P3: drawing the middle vertex covers everything; ends cover two
    cfg = CoverageConfig.from_graph(path_graph(3))
    mean, var = solve_discrete(coverage_chain_spec(cfg))
    assert abs(mean - 2.0) < 1e-12
    assert abs(var - 1.0) < 1e-12
    rng = np.random.default_rng(7)
    draws = np.array([coverage_simulate(cfg, rng) for _ in range(20000)])
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - mean) < 4.0 * se


def test_coverage_edgeless_is_coupon_collector():
    cfg = CoverageConfig(n=3)
    mean, _ = solve_discrete(coverage_chain_spec(cfg))
    assert abs(mean - 3.0 * (1 + 1 / 2 + 1 / 3)) < 1e-12


def test_coverage_samples_build_the_neighbourhoods_once(monkeypatch):
    cfg = CoverageConfig.from_graph(path_graph(5))
    before = coverage_samples(cfg, 600, 4)
    built = []
    closed = CoverageConfig.closed_neighborhoods

    def counting(self):
        built.append(self)
        return closed(self)

    monkeypatch.setattr(CoverageConfig, "closed_neighborhoods", counting)
    assert np.array_equal(coverage_samples(cfg, 600, 4), before)
    assert built == [cfg]


def test_coverage_single_vertex():
    cfg = CoverageConfig(n=1)
    assert coverage_simulate(cfg, np.random.default_rng(0)) == 1


def test_continuized_coverage_mean_matches_discrete():
    cfg = CoverageConfig.from_graph(path_graph(4))
    spec = coverage_chain_spec(cfg)
    d_mean, _ = solve_discrete(spec)
    c = solve_hitting(spec)
    # jump rates equal the move probabilities, so the mean holding time in a
    # state equals the mean geometric step count there
    assert abs(c.E_T - d_mean) < 1e-10


@pytest.mark.parametrize("g", [path_graph(5), grid_graph(3, 4)], ids=["path5", "grid3x4"])
def test_coverage_samples_match_the_exact_chain(g):
    cfg = CoverageConfig.from_graph(g)
    mean, var = solve_discrete(coverage_chain_spec(cfg))
    stats = SampleStats.from_samples(coverage_samples(cfg, 20_000, seed=14))
    assert abs(stats.mean - mean) <= 4.0 * stats.mean_se
    assert abs(stats.variance - var) <= 4.0 * stats.variance_se


def test_prop3_check_passes():
    cfg = CoverageConfig.from_graph(path_graph(5))
    rep = prop3_check(cfg, 3000, seed=8)
    assert rep.holds


# ---------------------------------------------------------------------------
# The lock-step kernel against the per-run loop

_CROSS = [[3, 0], [-3, 0], [0, 3], [0, -3]]
_SITE_WEIGHTED = {"c_lo": 0.5, "c_hi": 2.0}


def _per_run_samples(cfg: GrowthConfig, runs: int, seed) -> np.ndarray:
    """The per-run loop alone, one run at a time, on each run's block row
    and row stream: the kernel's oracle."""
    out = np.empty(runs)
    for rng, part in blocks(seed, runs, 2 * growth.GROWTH_ROW, ROW_CELLS):
        rows = growth._events(rng.random((part.stop - part.start, 2, growth.GROWTH_ROW)))
        for r, row in enumerate(rows.tolist()):
            out[part.start + r] = growth_hitting_time(cfg, RowStream(rng, r), row)
    return out


def _assert_bitwise_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


_RATE_PARAMS = {
    "constant": st.builds(lambda c: {"c": c}, st.floats(0.1, 5.0)),
    "site_weighted": st.builds(lambda a, b: {"c_lo": min(a, b), "c_hi": max(a, b)},
                               st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
    "neighbor_count": st.builds(lambda base: {"base": base}, st.floats(0.1, 5.0)),
}


@settings(max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_RATE_PARAMS)),
       target=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4))
                       .filter(lambda v: v != (0, 0)), min_size=1, max_size=5),
       slots=st.sampled_from([1, 3, growth.LOCKSTEP_RUNS]),
       radius=st.sampled_from([None, 1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_lockstep_kernel_equals_the_per_run_loop(data, kind, target, slots, radius, seed):
    # 260 runs span two blocks, so slots refill across a block boundary and
    # are packed once the batch runs out; point targets send many runs out
    # of the window.  A window of radius 1 or 2 leaves target sites past its
    # border unmarked and hands most runs to the loop, a radius 1 window
    # every run after its first pick
    cfg = GrowthConfig.builtin(target, kind, **data.draw(_RATE_PARAMS[kind]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(growth, "LOCKSTEP_RUNS", slots)
        if radius is not None:
            reach = max(max(abs(x), abs(y)) for x, y in cfg.target)
            mp.setattr(growth, "WINDOW_MARGIN", radius - reach)
            assert growth._window(cfg).width == 2 * radius + 1
        _assert_bitwise_equal(growth_samples(cfg, 260, seed), _per_run_samples(cfg, 260, seed))


def test_the_window_is_capped_at_radius_10():
    # 64 runs on a 21 x 21 window fill 28 224 of ROW_CELLS = 32 768 cells;
    # a target past the cap starts in the kernel too, and its runs go on in
    # the loop from the border
    for d, width in ((1, 9), (7, 21), (8, 21), (30, 21)):
        assert growth._window(GrowthConfig.builtin([[d, 0]], "constant", c=1.0)).width == width
    for d, runs in ((9, 100), (12, 40)):
        cfg = GrowthConfig.builtin([[d, 0], [-d, 0], [0, d], [0, -d]], "site_weighted",
                                   **_SITE_WEIGHTED)
        _assert_bitwise_equal(growth_samples(cfg, runs, 26), _per_run_samples(cfg, runs, 26))


@pytest.mark.parametrize("row", [1, 2])
def test_lockstep_kernel_equals_the_loop_when_rows_run_out(monkeypatch, row):
    # every run leaves the kernel with its row used up, on a far target's
    # capped window too
    monkeypatch.setattr(growth, "GROWTH_ROW", row)
    far = [[12, 0], [-12, 0], [0, 12], [0, -12]]
    for kind, params in _BUILTIN_PARAMS.items():
        for target, runs in (([[1, 0], [0, 2]], 300), (far, 10)):
            cfg = GrowthConfig.builtin(target, kind, **params)
            _assert_bitwise_equal(growth_samples(cfg, runs, 21), _per_run_samples(cfg, runs, 21))


def test_lockstep_kernel_caps_a_pick_at_the_total_as_the_loop_does():
    # a pick u = 1 is u * total = total, past every partial sum, so both
    # paths take the last frontier site in (x, y) order: (1, 0), (2, 0),
    # then the target (3, 0)
    cfg = GrowthConfig.builtin(_CROSS, "constant", c=1.0)
    rows = np.random.default_rng(8).random((10, 2, growth.GROWTH_ROW))
    rows[::2, 1] = 1.0
    growth._events(rows)
    samples = np.full(10, np.nan)
    rng = np.random.default_rng(9)
    for i, stream, row, start in growth._lockstep(growth._window(cfg), iter([(rng, 0, 0, rows)]),
                                                  samples):
        samples[i] = growth_hitting_time(cfg, stream, row, start)
    for i, row in enumerate(rows):
        assert samples[i] == growth_hitting_time(cfg, RowStream(rng, i), row.tolist())
        if i % 2 == 0:
            holds = row[0].tolist()
            assert samples[i] == holds[0] / 4.0 + holds[1] / 6.0 + holds[2] / 8.0


def test_grid_site_hash_equals_the_scalar_hash():
    rng = np.random.default_rng(10)
    xy = np.concatenate([rng.integers(-2**20, 2**20 + 1, (2000, 2)),
                         [[-2**20, -2**20], [-2**20, 2**20], [2**20, -1], [-1, -1], [0, 0]]])
    want = [growth._site_hash(x, y) for x, y in xy.tolist()]  # Python ints, as the loop has
    assert growth._site_hash(xy[:, 0], xy[:, 1]).tolist() == want  # int64
    x, y = xy.astype(object).T  # Python ints, as the window builds them
    assert np.array_equal(growth._site_hash(x, y).astype(float), want)
    rate = GrowthConfig.builtin([[1, 0]], "site_weighted", **_SITE_WEIGHTED).rate
    assert rate(x, y, 1).tolist() == [rate(vx, vy, 1) for vx, vy in xy.tolist()]


def test_a_custom_rate_runs_through_the_kernel(monkeypatch):
    # a rate that no builtin has, varying with the site and the count:
    # it must broadcast over the window's arrays, and the kernel's times
    # must be the loop's, bit for bit
    def rate(x, y, k):
        return 0.5 + 0.25 * (x % 3) + 0.125 * k

    cfg = GrowthConfig(target=frozenset(map(tuple, _CROSS)), rate=rate, c_lo=0.625, c_hi=1.5)
    validate_rate_monotone(rate, np.random.default_rng(22))
    kernel_runs, loop_runs = [0], [0]
    kernel, loop = growth._lockstep, growth.growth_hitting_time

    def counting_kernel(win, chunks, samples):
        kernel_runs[0] += 1
        yield from kernel(win, chunks, samples)

    def counting_loop(*args):
        loop_runs[0] += 1
        return loop(*args)

    monkeypatch.setattr(growth, "_lockstep", counting_kernel)
    monkeypatch.setattr(growth, "growth_hitting_time", counting_loop)
    got = growth_samples(cfg, 300, 22)
    assert kernel_runs[0] == 1 and 0 < loop_runs[0] < 0.25 * 300
    _assert_bitwise_equal(got, _per_run_samples(cfg, 300, 22))


def test_few_growth_cross_runs_leave_the_kernel(monkeypatch):
    # the bench's and the shipped scenario's config: the kernel must stay
    # the path that almost every run takes, and the loop must go on from
    # the kernel's state, never rerun a run from its start
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "growth_cross.json"
    cfg = cli._growth_config(json.loads(scenario.read_text()))
    starts = []
    loop = growth.growth_hitting_time

    def counting(cfg, rng, row, start):
        cluster, frontier, counts, rates, t, e, chosen = start  # before the loop grows it
        assert (0, 0) in cluster and t > 0 and e > 0
        assert chosen not in cluster and chosen not in frontier
        starts.append(start)
        return loop(cfg, rng, row, start)

    monkeypatch.setattr(growth, "growth_hitting_time", counting)
    growth_samples(cfg, 4000, 29)
    assert 0 < len(starts) < 0.05 * 4000


def test_rates_past_the_stated_bounds_raise_on_both_paths():
    cfg = dataclasses.replace(GrowthConfig.builtin(_CROSS, "site_weighted", **_SITE_WEIGHTED),
                              c_hi=1.0)
    bounds = r"escapes the stated bounds \[0.5, 1.0\]"
    with pytest.raises(ValueError, match=bounds):
        growth._window(cfg)
    for samples in (growth_samples, _per_run_samples):
        with pytest.raises(ValueError, match=bounds):
            samples(cfg, 300, 23)
    # a far target has a window too, capped at radius 10, so its escaping
    # rates raise before any run
    far = dataclasses.replace(cfg, target=frozenset({(30, 0)}))
    with pytest.raises(ValueError, match=bounds):
        growth._window(far)
    # a bound that only a cluster neighbour count of 4 escapes: the window
    # raises up front, the loop where a run rates such a site
    cfg = dataclasses.replace(GrowthConfig.builtin(_CROSS, "neighbor_count", base=0.7),
                              c_hi=3 * 0.7)
    for samples in (growth_samples, _per_run_samples):
        with pytest.raises(ValueError, match=r"rate 2.8 escapes the stated bounds"):
            samples(cfg, 300, 24)


def _neumaier_sum(values, start=0):
    """Compensated summation, as builtins.sum adds floats from Python 3.12."""
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


@pytest.mark.parametrize("kind", sorted(_BUILTIN_PARAMS))
def test_growth_samples_do_not_depend_on_how_sum_adds_floats(monkeypatch, kind):
    # site_weighted's rates at (0.5, 2.0) lie on a grid of 2**-33, where
    # every sum of a few is exact; the other two round
    cfg = GrowthConfig.builtin(_CROSS, kind, **_BUILTIN_PARAMS[kind])
    paths = (growth_samples, _per_run_samples)
    want = [samples(cfg, 1000, 25) for samples in paths]
    monkeypatch.setattr(growth, "sum", _neumaier_sum, raising=False)
    for samples, w in zip(paths, want):
        _assert_bitwise_equal(samples(cfg, 1000, 25), w)
