import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_growth
from helpers import RateMonotonicityError, Replay, validate_rate_monotone
from fpplab import cli, growth
from fpplab.chain import ChainSpec, solve_discrete, solve_hitting
from fpplab.graphs import WeightedGraph, grid_graph, path_graph, random_gnp_graph
from fpplab.growth import (
    RATE_BUILTINS,
    GrowthConfig,
    coverage_chain_spec,
    coverage_samples,
    constant_rate,
    growth_samples,
    neighbor_count_rate,
    prop1_check,
    prop3_check,
    site_weighted_rate,
    _variance_inequality_report,
)
from fpplab.stats import BAND_SIGMAS, RowStream, SampleStats, blocks


_CROSS = [[3, 0], [-3, 0], [0, 3], [0, -3]]
_SITE_WEIGHTED = {"c_lo": 0.5, "c_hi": 2.0}
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
    # the origin's four neighbours as the target, constant rate c: the
    # first jump hits it, after an Exp(4c) time
    cfg = GrowthConfig.builtin([[1, 0], [-1, 0], [0, 1], [0, -1]], "constant", c=2.0)
    ts = growth_samples(cfg, 4000, 3)
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
    stats = SampleStats.from_samples(growth_samples(cfg, 20_000, 11))
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
    _assert_bitwise_equal(growth_samples(cfg, 2, seed), _per_run_samples(cfg, 2, seed))


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
    assert rep["holds"]
    with pytest.raises(ValueError):
        prop1_check(cfg, 10, seed=0)


def _variance_past_the_band(x: np.ndarray, q: float, past: float) -> np.ndarray:
    """x shifted so that its variance is (1 + past) times the top of the
    band of the bound q E T: q mean + BAND_SIGMAS (variance_se + q mean_se),
    the jackknife band plus the bound's mean-driven wiggle."""
    stats = SampleStats.from_samples(x)
    mean = (stats.variance / (1.0 + past) - BAND_SIGMAS * stats.variance_se) / q \
        - BAND_SIGMAS * stats.mean_se
    return x + (mean - stats.mean)


@pytest.mark.parametrize("past, holds, inconclusive", [(1e-6, False, False), (-1e-6, True, True)])
def test_prop1_fails_just_past_e_t_over_c_lo(monkeypatch, past, holds, inconclusive):
    # Proposition 1 is a theorem, so only a synthetic sample reaches its
    # FAIL path: var T just past, or just inside, the band's top over E T / c_lo
    cfg = GrowthConfig.builtin(_CROSS, "site_weighted", **_SITE_WEIGHTED)
    x = _variance_past_the_band(4.0 * np.random.default_rng(30).exponential(1.0, 2000),
                                1.0 / cfg.c_lo, past)
    assert x.min() > 0
    monkeypatch.setattr(growth, "growth_samples", lambda cfg, runs, seed: x)
    rep = prop1_check(cfg, 2000, 0)
    assert (rep["holds"], rep["inconclusive"]) == (holds, inconclusive)


@pytest.mark.parametrize("past, holds, inconclusive", [(1e-6, False, False), (-1e-6, True, True)])
def test_prop3_fails_just_past_n_e_t(monkeypatch, past, holds, inconclusive):
    g = path_graph(5)
    x = _variance_past_the_band(10.0 * np.random.default_rng(31).exponential(1.0, 2000),
                                g.n, past)
    assert x.min() > 0
    monkeypatch.setattr(growth, "coverage_samples", lambda g, runs, seed: x)
    rep = prop3_check(g, 2000, 0)
    assert (rep["holds"], rep["inconclusive"]) == (holds, inconclusive)


def test_variance_inequality_report_verdicts():
    samples = np.random.default_rng(4).exponential(1.0, 2000)
    var = float(np.var(samples, ddof=1))
    # a bound equal to the sample variance sits inside the band
    rep = _variance_inequality_report(samples, lambda m: var)
    assert rep["holds"] and rep["inconclusive"]
    # a bound far below the whole band fails outright
    rep = _variance_inequality_report(samples, lambda m: var / 10.0)
    assert not rep["holds"] and not rep["inconclusive"]
    # a bound far above the whole band passes outright
    rep = _variance_inequality_report(samples, lambda m: 10.0 * var)
    assert rep["holds"] and not rep["inconclusive"]


def test_coverage_path3_exact():
    # P3: drawing the middle vertex covers everything; ends cover two
    g = path_graph(3)
    mean, var = solve_discrete(coverage_chain_spec(g))
    assert abs(mean - 2.0) < 1e-12
    assert abs(var - 1.0) < 1e-12
    draws = coverage_samples(g, 20000, 7)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - mean) < 4.0 * se


def test_coverage_edgeless_is_coupon_collector():
    # with no edges a draw covers only itself: E T = n H_n
    rng = np.random.default_rng(7)
    for n in (1, 3, 6):
        draws = np.array([reference_growth.coverage_draws(n, (), rng) for _ in range(20000)])
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - n * sum(1 / i for i in range(1, n + 1))) <= 4.0 * se


def test_coverage_single_vertex():
    g = WeightedGraph(("a",), (), ())
    assert (coverage_samples(g, 50, 0) == 1.0).all()
    assert (reference_growth.coverage_samples(g, 50, 0) == 1.0).all()


def test_continuized_coverage_mean_matches_discrete():
    spec = coverage_chain_spec(path_graph(4))
    d_mean, _ = solve_discrete(spec)
    c = solve_hitting(spec)
    # jump rates equal the move probabilities, so the mean holding time in a
    # state equals the mean geometric step count there
    assert abs(c.E_T - d_mean) < 1e-10


@pytest.mark.parametrize("g", [path_graph(5), grid_graph(3, 4)], ids=["path5", "grid3x4"])
def test_coverage_samples_match_the_exact_chain(g):
    mean, var = solve_discrete(coverage_chain_spec(g))
    stats = SampleStats.from_samples(coverage_samples(g, 20_000, seed=14))
    assert abs(stats.mean - mean) <= 4.0 * stats.mean_se
    assert abs(stats.variance - var) <= 4.0 * stats.variance_se


def test_prop3_check_passes():
    rep = prop3_check(path_graph(5), 3000, seed=8)
    assert rep["holds"]


@st.composite
def _coverage_graphs(draw):
    """A connected graph: one vertex, a path, a grid or a random_gnp."""
    kind = draw(st.sampled_from(["one", "path", "grid", "gnp"]))
    if kind == "one":
        return WeightedGraph(("a",), (), ())
    if kind == "path":
        return path_graph(draw(st.integers(2, 40)))
    if kind == "grid":
        return grid_graph(draw(st.integers(1, 5)), draw(st.integers(2, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_gnp_graph(draw(st.integers(2, 14)), draw(st.floats(0.2, 1.0)), (1.0, 1.0), rng)


@settings(max_examples=40, deadline=None)
@given(g=_coverage_graphs(), row=st.sampled_from([1, 3, 32]), seed=st.integers(0, 2**32 - 1))
def test_coverage_kernel_equals_the_per_run_loop(g, row, seed):
    # blocks of 8 runs, so 20 runs span three; with rows of 1 or 3 draws
    # every run on more than three vertices reads on from its stream, some
    # over many rounds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(growth, "COVERAGE_ROW", row)
        mp.setattr(growth, "ROW_CELLS", 8 * row)
        _assert_bitwise_equal(coverage_samples(g, 20, seed),
                              reference_growth.coverage_samples(g, 20, seed))


# ---------------------------------------------------------------------------
# The lock-step kernel against the rebuild-every-step reference


def _per_run_samples(cfg: GrowthConfig, runs: int, seed, which=None) -> np.ndarray:
    """The reference loop, one run at a time, on each run's raw block row
    and then its row stream: the kernel's oracle.  ``which`` names the runs
    to replay; the others read NaN."""
    out = np.full(runs, np.nan)
    for rng, part in blocks(seed, runs, 2 * growth.GROWTH_ROW, growth.ROW_CELLS):
        rows = rng.random((part.stop - part.start, 2, growth.GROWTH_ROW))
        for r, row in enumerate(rows):
            if which is None or part.start + r in which:
                out[part.start + r] = reference_growth.growth_hitting_time(
                    cfg, Replay(row, RowStream(rng, r)))
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
       target=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                       .filter(lambda v: v != (0, 0)), min_size=1, max_size=5),
       slots=st.sampled_from([1, 3, growth.LOCKSTEP_RUNS]),
       margin=st.sampled_from([None, 0, 1]),
       seed=st.integers(0, 2**32 - 1))
def test_lockstep_kernel_equals_the_per_run_loop(data, kind, target, slots, margin, seed):
    # blocks of 8 runs, so 20 runs span three and slots refill across a
    # block boundary and are packed once the batch runs out; at a margin of
    # 0 or 1 most runs pick a border cell and are rerun, some twice
    cfg = GrowthConfig.builtin(target, kind, **data.draw(_RATE_PARAMS[kind]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(growth, "LOCKSTEP_RUNS", slots)
        mp.setattr(growth, "ROW_CELLS", 8 * 2 * growth.GROWTH_ROW)
        if margin is not None:
            mp.setattr(growth, "WINDOW_MARGIN", margin)
        _assert_bitwise_equal(growth_samples(cfg, 20, seed), _per_run_samples(cfg, 20, seed))


def test_the_window_reaches_the_target():
    # R = the target's reach + WINDOW_MARGIN: every target site is marked,
    # and only the outermost ring is border
    for target in ([[1, 0]], [[7, -2], [0, 3]], [[-30, 30]]):
        cfg = GrowthConfig.builtin(target, "constant", c=1.0)
        reach = max(max(abs(x), abs(y)) for x, y in target)
        R = reach + growth.WINDOW_MARGIN
        win = growth._window(cfg, R)
        stop = win.stop.reshape(2 * R + 1, 2 * R + 1)
        assert win.radius == R and win.rates.shape[1] == (2 * R + 1) ** 2
        assert {(x - R, y - R) for x, y in zip(*np.nonzero(stop == growth._HIT))} == cfg.target
        inner = stop[1:-1, 1:-1]
        assert not (inner == growth._OUT).any()
        ring = np.concatenate([stop[0], stop[-1], stop[1:-1, 0], stop[1:-1, -1]])
        assert (ring != 0).all()


@pytest.mark.parametrize("target, runs", [([[12, 0], [-12, 0], [0, 12], [0, -12]], 10),
                                          ([[15, -4]], 10)])
def test_far_targets_equal_the_reference(target, runs):
    # a run reads several rows on from its stream before it hits, on a
    # window of radius 22 or 25
    cfg = GrowthConfig.builtin(target, "site_weighted", **_SITE_WEIGHTED)
    _assert_bitwise_equal(growth_samples(cfg, runs, 26), _per_run_samples(cfg, runs, 26))


@pytest.mark.parametrize("row", [1, 2])
def test_lockstep_kernel_equals_the_loop_when_rows_run_out(monkeypatch, row):
    # every run reads on from its stream, after its first event or two
    monkeypatch.setattr(growth, "GROWTH_ROW", row)
    for kind, params in _BUILTIN_PARAMS.items():
        for target, runs in (([[1, 0], [0, 2]], 300), ([[5, 0], [-5, 0], [0, 5], [0, -5]], 10)):
            cfg = GrowthConfig.builtin(target, kind, **params)
            _assert_bitwise_equal(growth_samples(cfg, runs, 21), _per_run_samples(cfg, runs, 21))


def test_lockstep_kernel_caps_a_pick_at_the_total_as_the_loop_does():
    # a pick u = 1 is u * total = total, past every partial sum, so both
    # paths take the last frontier site in (x, y) order: (1, 0), (2, 0),
    # then the target (3, 0); the first site would reach (-2, 0) sooner
    cfg = GrowthConfig.builtin([[3, 0], [-2, 0]], "constant", c=1.0)
    rows = np.random.default_rng(8).random((10, 2, growth.GROWTH_ROW))
    rows[::2, 1] = 1.0
    samples = np.full(10, np.nan)
    rng = np.random.default_rng(9)
    R = 3 + growth.WINDOW_MARGIN
    assert growth._lockstep(growth._window(cfg, R), iter([(rng, 0, 0, growth._events(rows.copy()))]),
                            10, samples) == []
    for i, row in enumerate(rows):
        assert samples[i] == reference_growth.growth_hitting_time(cfg, Replay(row, RowStream(rng, i)))
        if i % 2 == 0:
            holds = growth._events(row.copy())[0].tolist()
            assert samples[i] == holds[0] / 4.0 + holds[1] / 6.0 + holds[2] / 8.0


def test_grid_site_hash_equals_the_scalar_hash():
    rng = np.random.default_rng(10)
    xy = np.concatenate([rng.integers(-2**20, 2**20 + 1, (2000, 2)),
                         [[-2**20, -2**20], [-2**20, 2**20], [2**20, -1], [-1, -1], [0, 0]]])
    want = [growth._site_hash(x, y) for x, y in xy.tolist()]  # Python ints, as the reference has
    assert growth._site_hash(xy[:, 0], xy[:, 1]).tolist() == want  # int64
    x, y = xy.astype(object).T  # Python ints, as the window builds them
    assert np.array_equal(growth._site_hash(x, y).astype(float), want)
    rate = GrowthConfig.builtin([[1, 0]], "site_weighted", **_SITE_WEIGHTED).rate
    assert rate(x, y, 1).tolist() == [rate(vx, vy, 1) for vx, vy in xy.tolist()]


def test_a_custom_rate_runs_through_the_kernel():
    # a rate that no builtin has, varying with the site and the count:
    # it must broadcast over the window's arrays, and the kernel's times
    # must be the reference's, bit for bit, near and far
    def rate(x, y, k):
        return 0.5 + 0.25 * (x % 3) + 0.125 * k

    validate_rate_monotone(rate, np.random.default_rng(22))
    for target, runs in ((_CROSS, 300), ([[8, 0], [-8, 0], [0, 8], [0, -8]], 10)):
        cfg = GrowthConfig(target=frozenset(map(tuple, target)), rate=rate, c_lo=0.625, c_hi=1.5)
        _assert_bitwise_equal(growth_samples(cfg, runs, 22), _per_run_samples(cfg, runs, 22))


def test_few_growth_cross_runs_are_rerun(monkeypatch):
    # the bench's and the shipped scenario's config: almost every run must
    # end on the first window, and a rerun run must give the reference's
    # float, as must the first block's runs
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "growth_cross.json"
    cfg = cli._growth_config(json.loads(scenario.read_text()))
    reruns = []
    kernel = growth._lockstep

    def counting(win, chunks, runs, samples):
        rerun = kernel(win, chunks, runs, samples)
        reruns.extend(run for _, _, run, _ in rerun)
        return rerun

    monkeypatch.setattr(growth, "_lockstep", counting)
    got = growth_samples(cfg, 4000, 29)
    assert len(reruns) < 0.05 * 4000
    which = set(reruns) | set(range(64))
    want = _per_run_samples(cfg, 4000, 29, which)
    for i in sorted(which):
        assert got[i] == want[i]


def test_rates_past_the_stated_bounds_raise():
    cfg = dataclasses.replace(GrowthConfig.builtin(_CROSS, "site_weighted", **_SITE_WEIGHTED),
                              c_hi=1.0)
    bounds = r"escapes the stated bounds \[0.5, 1.0\]"
    with pytest.raises(ValueError, match=bounds):
        growth._window(cfg, 3)
    with pytest.raises(ValueError, match=bounds):
        growth_samples(cfg, 300, 23)
    # a far target's window holds the whole target, so its escaping rates
    # raise before any run
    far = dataclasses.replace(cfg, target=frozenset({(30, 0)}))
    with pytest.raises(ValueError, match=bounds):
        growth_samples(far, 300, 23)
    # a bound that only a cluster neighbour count of 4 escapes
    cfg = dataclasses.replace(GrowthConfig.builtin(_CROSS, "neighbor_count", base=0.7),
                              c_hi=3 * 0.7)
    with pytest.raises(ValueError, match=r"rate 2.8 escapes the stated bounds"):
        growth_samples(cfg, 300, 24)


def test_a_rerun_window_checks_its_rates(monkeypatch):
    # a rate that keeps its bounds on the first window, |x| <= 4, and
    # escapes them past it: a run rerun on the wider window raises there,
    # never samples past the bounds
    def rate(x, y, k):
        return 1.0 + (abs(x) > 4)

    cfg = GrowthConfig(target=frozenset(map(tuple, _CROSS)), rate=rate, c_lo=1.0, c_hi=1.0)
    monkeypatch.setattr(growth, "WINDOW_MARGIN", 1)
    growth._window(cfg, 4)
    with pytest.raises(ValueError, match=r"rate 2.0 escapes the stated bounds \[1.0, 1.0\]"):
        growth_samples(cfg, 300, 27)


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
    want = growth_samples(cfg, 1000, 25)
    monkeypatch.setattr(growth, "sum", _neumaier_sum, raising=False)
    _assert_bitwise_equal(growth_samples(cfg, 1000, 25), want)
