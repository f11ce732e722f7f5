import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fpplab import multigraph
from fpplab.graphs import (bridge_graph, complete_graph, grid_graph, parse_edge_list, path_graph,
                           random_gnp_graph)
from fpplab.stats import ROW_CELLS, RowStream, blocks
from fpplab.multigraph import (
    CHUNK,
    SPAN_BOUND,
    TRIA_BOUND,
    ForestUnion,
    LiveTriangles,
    MultigraphTrajectory,
    a_k_eval,
    has_spanning_tree_packing,
    has_triangle_packing,
    max_triangle_packing,
    prop2_check,
    sample_stopping_times,
    stopping_times,
)
from helpers import fed, max_spanning_tree_packing, traced_peak
from reference_packing import forest_union_rank_by_partition, spanning_tree_packing_by_partition

C4 = parse_edge_list("a b 1\nb c 1\nc d 1\na d 1")


def unit_multi(g, count=1):
    return (count,) * g.m


def union_of(g, multiplicity, forests):
    """A ForestUnion of ``forests`` forests fed ``multiplicity``'s copies."""
    union = fed(ForestUnion(g), multiplicity)
    for _ in range(forests - 1):
        union.grow()
    return union


def max_triangles(g, multiplicity):
    """The triangle packing count of ``multiplicity``'s copies, by a search
    that no packing stops early."""
    live = fed(LiveTriangles(g), multiplicity)
    return max_triangle_packing(live, live.live_copies // 3 + 1)


def test_spanning_tree_packing_anchors():
    assert max_spanning_tree_packing(C4, unit_multi(C4)) == 1
    k4 = complete_graph(4)
    assert max_spanning_tree_packing(k4, unit_multi(k4)) == 2
    k3 = complete_graph(3)
    assert max_spanning_tree_packing(k3, unit_multi(k3, 2)) == 3
    p4 = path_graph(4)
    assert max_spanning_tree_packing(p4, unit_multi(p4)) == 1
    assert max_spanning_tree_packing(path_graph(3), (1, 0)) == 0


def test_has_spanning_tree_packing_consistent():
    g = complete_graph(4)
    assert has_spanning_tree_packing(union_of(g, unit_multi(g), 2), 2)
    assert not has_spanning_tree_packing(union_of(g, unit_multi(g), 3), 3)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_augmentation_agrees_with_partition_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    g = random_gnp_graph(n, 0.7, (1.0, 1.0), rng)
    mult = tuple(int(rng.integers(0, 4)) for _ in range(g.m))
    assert max_spanning_tree_packing(g, mult) == spanning_tree_packing_by_partition(g, mult)


def test_triangle_packing_anchors():
    k4, k3, k6 = complete_graph(4), complete_graph(3), complete_graph(6)
    pc = max_triangles(k4, unit_multi(k4))
    assert pc.lower == pc.upper == 1
    pc = max_triangles(k3, unit_multi(k3, 2))
    assert pc.lower == pc.upper == 2
    pc = max_triangles(k6, unit_multi(k6))
    assert pc.lower == pc.upper == 4
    pc = max_triangles(C4, unit_multi(C4))  # triangle-free
    assert pc.lower == pc.upper == 0
    assert has_triangle_packing(fed(LiveTriangles(k6), unit_multi(k6)), 4)
    assert not has_triangle_packing(fed(LiveTriangles(k6), unit_multi(k6)), 5)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_packing_monotone_under_edge_addition(seed):
    rng = np.random.default_rng(seed)
    g = complete_graph(int(rng.integers(3, 6)))
    m = [int(c) for c in rng.integers(0, 3, size=g.m)]
    m2 = list(m)
    m2[int(rng.integers(g.m))] += 1
    assert max_spanning_tree_packing(g, m2) >= max_spanning_tree_packing(g, m)
    assert max_triangles(g, m2).lower >= max_triangles(g, m).lower


def test_triangle_budget_gives_uncertified_range(monkeypatch):
    g = complete_graph(6)
    m = unit_multi(g, 3)
    with monkeypatch.context() as mp:
        mp.setattr(multigraph, "BNB_BUDGET", 5)
        pc = max_triangles(g, m)
    assert pc.lower < pc.upper
    exact = max_triangles(g, m)
    assert exact.lower == exact.upper
    assert pc.lower <= exact.lower <= pc.upper


def _arrivals_until(traj, t_end):
    """Extend ``traj`` past ``t_end``; the number of arrivals up to it."""
    while not traj.times or traj.times[-1] <= t_end:
        traj.extend()
    return sum(t <= t_end for t in traj.times)


def test_arrival_stream_counts_and_order():
    g = parse_edge_list("a b 2\nb c 3")
    ts = []
    for i in range(2000):
        traj = MultigraphTrajectory(g, np.random.default_rng(i))
        ts.append(_arrivals_until(traj, 1.0))
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.edge_ids)
    # Poisson(5) arrivals in [0, 1]
    assert abs(np.mean(ts) - 5.0) < 4.0 * math.sqrt(5.0 / 2000)


@pytest.mark.parametrize("seed", range(8))
def test_arrival_stream_matches_generator_choice(seed):
    # each chunk reads random((2, CHUNK)): CHUNK Exp(sum w) gaps -ln(u)/sum w
    # summed onto the last time, then the edges Generator.choice(m, CHUNK,
    # p=w/sum w) picks from the next CHUNK uniforms of the same generator
    rng = np.random.default_rng(seed)
    g = random_gnp_graph(int(rng.integers(2, 9)), 0.5, (0.1, 5.0), rng)
    w = g.weight_array()
    ours = np.random.default_rng([seed, 1])
    traj = MultigraphTrajectory(g, ours)
    ref = np.random.default_rng([seed, 1])
    last = 0.0
    for _ in range(3):
        traj.extend()
        gaps = -np.log(ref.random(CHUNK)) / w.sum()
        times = last + np.cumsum(gaps)
        edges = ref.choice(g.m, CHUNK, p=w / w.sum())
        assert traj.times[-CHUNK:] == times.tolist()
        assert traj.edge_ids[-CHUNK:] == edges.tolist()
        assert all(type(e) is int for e in traj.edge_ids)
        assert ours.bit_generator.state == ref.bit_generator.state
        last = times[-1]


def test_extend_preserves_prefix_and_law():
    g = parse_edge_list("a b 1")
    t_end = 1.5 * CHUNK  # past the first chunk about half the time
    counts = []
    for i in range(2000):
        traj = MultigraphTrajectory(g, np.random.default_rng(i))
        traj.extend()
        before = (list(traj.times), list(traj.edge_ids))
        counts.append(_arrivals_until(traj, t_end))
        assert (traj.times[:CHUNK], traj.edge_ids[:CHUNK]) == before
        assert np.all(np.diff(traj.times) > 0)
    # extension keeps the overall stream Poisson(t_end) on [0, t_end]
    assert abs(np.mean(counts) - t_end) < 4.0 * math.sqrt(t_end / 2000)


def test_stopping_times_single_edge_is_exponential():
    g = parse_edge_list("a b 1")
    ts = np.empty(3000)
    for i in range(3000):
        traj = MultigraphTrajectory(g, np.random.default_rng(i))
        ts[i] = stopping_times(traj, [1], "span")[1]
    assert abs(ts.mean() - 1.0) < 4.0 / math.sqrt(3000)
    assert abs(ts.var(ddof=1) - 1.0) < 0.15


def test_stopping_times_monotone_in_k_and_kind():
    g = complete_graph(4)
    traj = MultigraphTrajectory(g, np.random.default_rng(0))
    span, tria = (stopping_times(traj, [1, 2, 3], kind) for kind in ("span", "tria"))
    assert span[1] <= span[2] <= span[3]
    assert tria[1] <= tria[2]
    # a spanning tree needs n-1 = 3 edges, a triangle needs 3: both at least
    # the third arrival time
    assert span[1] >= traj.times[2] - 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["span", "tria"]))
def test_scan_stops_at_the_first_prefix_that_packs_k(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    g = random_gnp_graph(n, 0.7, (0.5, 2.0), rng) if kind == "span" else complete_graph(n)
    traj = MultigraphTrajectory(g, rng)
    ks = [1, 2, 3]
    # chunks of one or two arrivals make the scan extend the stream often
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multigraph, "CHUNK", int(rng.choice([1, 2, CHUNK])))
        got = stopping_times(traj, ks, kind)

    def packs(j):  # packing number of the first j + 1 arrivals, from scratch
        mult = np.bincount(traj.edge_ids[:j + 1], minlength=g.m).tolist()
        return (max_spanning_tree_packing(g, mult) if kind == "span"
                else max_triangles(g, mult).lower)

    first = {}  # k -> the first prefix whose packing number reaches k
    for j in range(len(traj.times)):
        count = packs(j)
        for k in ks:
            if count >= k:
                first.setdefault(k, j)
        if len(first) == len(ks):
            break
    for k in ks:
        assert got[k] == traj.times[first[k]]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_forest_union_rank_matches_partition_formula(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    g = random_gnp_graph(n, 0.7, (1.0, 1.0), rng)
    union = ForestUnion(g)
    mult = [0] * g.m

    def check():
        assert union.rank == forest_union_rank_by_partition(g, mult, len(union.forests))

    for e in rng.integers(0, g.m, size=int(rng.integers(1, 4 * n))):
        rank = union.rank
        rose = union.add(int(e))
        mult[e] += 1
        assert union.rank == rank + rose
        check()
        if rng.random() < 0.2:
            union.grow()
            check()


def test_live_triangles_follow_the_arrivals():
    g = complete_graph(6)
    rng = np.random.default_rng(11)
    live = LiveTriangles(g)
    for e in rng.integers(0, g.m, size=40):
        before = list(live.triangles)
        closes = live.add(int(e))
        mult = live.multiplicity
        assert live.triangles == [t for t in g.triangles if all(mult[x] for x in t)]
        assert closes == any(e in t for t in live.triangles)
        assert set(before) <= set(live.triangles)
        # every live edge leaves after its last live triangle, exactly once
        for i, gone in enumerate(live.leaving):
            later = {x for t in live.triangles[i + 1:] for x in t}
            assert sorted(gone) == sorted(set(live.triangles[i]) - later)
        assert live.live_copies == sum(mult[x] for x in {x for t in live.triangles for x in t})
        everything = live.live_copies // 3 + 1
        assert max_triangle_packing(live, everything) == max_triangles(g, mult)


def test_undecided_triangle_probes_are_counted(monkeypatch):
    # past the table cap every run takes the forward pass, the one path with
    # a branch and bound; the block formulas are exact and never leave a probe
    monkeypatch.setattr(multigraph, "TABLE_CELLS", 0)
    monkeypatch.setattr(multigraph, "BNB_BUDGET", 1)
    ks = [1, 2, 3]
    uncertified = Counter()
    samples = sample_stopping_times(complete_graph(5), ks, 100, seed=3, kinds=("tria",),
                                    uncertified=uncertified)
    # an undecided probe before T(k) may delay T(k) and every later time
    assert 0 < uncertified["tria", 2] <= uncertified["tria", 3]
    assert uncertified["tria", 1] == 0  # the greedy bound finds one live triangle
    # a time the full budget (or the block formulas) decides is never earlier
    # than the budget-starved one
    monkeypatch.undo()
    exact = sample_stopping_times(complete_graph(5), ks, 100, seed=3, kinds=("tria",))
    for k in ks:
        assert np.all(exact["tria"][k] <= samples["tria"][k])
    assert np.array_equal(exact["tria"][1], samples["tria"][1])


def forward_samples(g, ks, runs, seed, kinds, uncertified=None):
    """The forward pass alone, on the block rows and row streams that
    ``sample_stopping_times`` draws: the oracle of its block formulas."""
    out = {kind: {k: np.empty(runs) for k in ks} for kind in kinds}
    law = multigraph._arrival_law(g)
    for rng, part in blocks(seed, runs, 2 * multigraph.CHUNK, ROW_CELLS):
        u = rng.random((part.stop - part.start, 2, multigraph.CHUNK))
        for r, (t, e) in enumerate(zip(*multigraph._arrivals(u, *law))):
            traj = MultigraphTrajectory(g, RowStream(rng, r), t.tolist(), e.tolist(), law)
            for kind in kinds:
                for k, time in stopping_times(traj, ks, kind, uncertified).items():
                    out[kind][k][part.start + r] = time
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["span", "tria"]),
       st.sets(st.integers(min_value=1, max_value=4), min_size=1),
       st.sampled_from([1, 2, CHUNK]))
def test_block_formulas_equal_the_forward_pass(seed, kind, ks, chunk):
    rng = np.random.default_rng(seed)
    g = random_gnp_graph(int(rng.integers(3, 8)), 0.7, (0.1, 5.0), rng)
    assume(kind == "span" or g.triangles)
    ks = sorted(ks)
    # rows of one or two arrivals leave most runs late, to read on one or
    # two arrivals a round; a few runs reach every branch
    runs = 150 if chunk == CHUNK else 30
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multigraph, "CHUNK", chunk)
        uncertified = Counter()
        got = sample_stopping_times(g, ks, runs, seed, kinds=(kind,), uncertified=uncertified)
        want = forward_samples(g, ks, runs, seed, (kind,))
    for k in ks:
        assert np.array_equal(got[kind][k], want[kind][k])
    assert uncertified == Counter()


def test_block_formulas_keep_a_span_goal_past_the_row_out_of_reach(monkeypatch):
    # two trees on a triangle need four copies, one more than a row of three
    # arrivals holds; a row with one copy of each edge crosses every
    # partition twice and the three singletons three times, so a goal
    # capped at the row length would read two trees at its last arrival
    g, runs, seed = complete_graph(3), 200, 5
    monkeypatch.setattr(multigraph, "CHUNK", 3)
    got = sample_stopping_times(g, [2], runs, seed, kinds=("span",))["span"][2]
    want = forward_samples(g, [2], runs, seed, ("span",))["span"][2]
    assert np.array_equal(got, want)
    rows = np.concatenate([np.sort(multigraph._arrivals(rng.random((part.stop - part.start, 2, 3)),
                                                        *multigraph._arrival_law(g))[1], axis=1)
                           for rng, part in blocks(seed, runs, 6, ROW_CELLS)])
    assert (rows == np.arange(3)).all(axis=1).sum() > 10


def test_table_decided_runs_leave_no_uncertified_probe(monkeypatch):
    # K5's rows decide every run by the formulas, so a starved branch and
    # bound, which the forward pass would trip over, is never asked
    g, ks = complete_graph(5), [1, 2, 3]
    exact = forward_samples(g, ks, 200, 4, ("tria",))
    monkeypatch.setattr(multigraph, "BNB_BUDGET", 1)
    starved = Counter()
    forward_samples(g, ks, 200, 4, ("tria",), uncertified=starved)
    assert starved["tria", 3] > 0
    uncertified = Counter()
    got = sample_stopping_times(g, ks, 200, 4, kinds=("tria",), uncertified=uncertified)
    assert uncertified == Counter()
    for k in ks:
        assert np.array_equal(got["tria"][k], exact["tria"][k])


def test_late_rows_read_on_into_the_block_formula_not_the_forward_pass(monkeypatch):
    # rows of 8 arrivals on K5 never decide T(3) (nine edges), so every run
    # reads on from its stream; the block formula decides it there, and a
    # starved branch and bound, which only the forward pass asks, never bites
    g, ks, runs, seed = complete_graph(5), [1, 2, 3], 300, 8
    monkeypatch.setattr(multigraph, "CHUNK", 8)
    exact = forward_samples(g, ks, runs, seed, ("tria",))["tria"]
    row_end = np.concatenate([
        multigraph._arrivals(rng.random((part.stop - part.start, 2, 8)),
                             *multigraph._arrival_law(g))[0][:, -1]
        for rng, part in blocks(seed, runs, 16, ROW_CELLS)])
    assert not np.any(exact[3] <= row_end)
    monkeypatch.setattr(multigraph, "BNB_BUDGET", 1)
    calls = []
    monkeypatch.setattr(multigraph, "stopping_times", lambda *args: calls.append(args))
    uncertified = Counter()
    got = sample_stopping_times(g, ks, runs, seed, kinds=("tria",), uncertified=uncertified)
    assert calls == [] and uncertified == Counter()
    for k in ks:
        assert np.array_equal(got["tria"][k], exact[k])


def _rounds(monkeypatch) -> list[int]:
    """Spy on the late runs' extensions: the runs each round reads on."""
    sizes = []
    real = multigraph._next_arrivals

    def spy(rngs, law, last):
        sizes.append(len(rngs))
        return real(rngs, law, last)

    monkeypatch.setattr(multigraph, "_next_arrivals", spy)
    return sizes


@pytest.mark.parametrize("g, ks, chunk, runs", [
    (complete_graph(4), [20, 30], 16, 30),
    (bridge_graph(3, 3, 0.1), [6], CHUNK, 20),  # six copies of a bridge of rate 0.1
    (grid_graph(2, 3), [9], 16, 30),
], ids=["K4", "bridge", "grid2x3"])
def test_every_run_reads_on_over_several_rounds(monkeypatch, g, ks, chunk, runs):
    monkeypatch.setattr(multigraph, "CHUNK", chunk)
    want = forward_samples(g, ks, runs, 3, ("span",))["span"]
    rounds = _rounds(monkeypatch)
    got = sample_stopping_times(g, ks, runs, 3, kinds=("span",))["span"]
    assert rounds[:2] == [runs, runs]  # every run, twice at least
    for k in ks:
        assert np.array_equal(got[k], want[k])


# A few block temporaries live at once, each within ROW_CELLS cells of at
# most 8 bytes.
TEMPORARY_BYTES = 4 * ROW_CELLS * 8


@pytest.mark.parametrize("n, ks, kind", [(9, [1, 2], "span"), (8, [4], "tria")])
def test_past_the_table_cap_samples_by_the_forward_pass_alone(monkeypatch, n, ks, kind):
    g = complete_graph(n)
    runs, seed = 256, 6
    want = forward_samples(g, ks, runs, seed, (kind,))

    def block_path(*args):
        raise AssertionError("the block path ran past TABLE_CELLS")

    monkeypatch.setattr(multigraph, "_span_table", block_path)
    monkeypatch.setattr(multigraph, "_tria_table", block_path)
    monkeypatch.setitem(multigraph.BLOCK_FIRST, kind, block_path)
    calls = []
    real = multigraph.stopping_times

    def spy(traj, ks, kind, uncertified=None):
        calls.append(ks)
        return real(traj, ks, kind, uncertified)

    monkeypatch.setattr(multigraph, "stopping_times", spy)
    got, peak, _ = traced_peak(lambda: sample_stopping_times(g, ks, runs, seed, kinds=(kind,)))
    assert calls == [ks] * runs
    for k in ks:
        assert np.array_equal(got[kind][k], want[kind][k])
    assert peak <= TEMPORARY_BYTES


def test_late_rows_stay_within_a_few_megabytes(monkeypatch):
    # K4's 100 trees need 300 arrivals or more, so all 256 runs read on,
    # to rows of about 320: their times, a copy of them while they grow, and
    # the span kernel's integer arrays of their shape stay within 4 MB
    rounds = _rounds(monkeypatch)
    _, peak, _ = traced_peak(lambda: sample_stopping_times(complete_graph(4), [100], 256, 5,
                                                           kinds=("span",)))
    assert rounds[0] == 256
    assert peak <= 4 * TEMPORARY_BYTES


@pytest.mark.parametrize("n, ks, kind", [(7, [1, 2, 3], "span"), (6, [1, 2, 3, 4], "tria")])
def test_block_kernels_stay_within_the_cell_budget(n, ks, kind):
    # a (partitions, runs, CHUNK) or (runs, multisets, 3k) array would be
    # 14M or 27M cells here
    g = complete_graph(n)
    table = multigraph._block_table(g, kind, ks)
    assert table is not None
    u = np.random.default_rng(0).random((ROW_CELLS // (2 * CHUNK), 2, CHUNK))  # one block
    _, edges = multigraph._arrivals(u, *multigraph._arrival_law(g))
    first, peak, _ = traced_peak(lambda: multigraph.BLOCK_FIRST[kind](table, edges, ks))
    assert first.shape == (len(ks), len(edges))
    assert peak <= TEMPORARY_BYTES


def test_table_sizes_are_counted_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(multigraph, "_span_table", no_enumeration)
    monkeypatch.setattr(multigraph, "_tria_table", no_enumeration)
    big = complete_graph(40)
    assert multigraph._block_table(big, "span", [1]) is None
    assert multigraph._block_table(complete_graph(6), "tria", [50]) is None
    assert [multigraph._bell(n, 10**9) for n in range(1, 8)] == [1, 2, 5, 15, 52, 203, 877]


def test_a_zero_table_cap_sends_every_k4_spanning_tree_run_to_the_forward_pass(monkeypatch):
    # K4's 14 partitions with two parts or more, over 6 edges, are 84
    # cells: past a cap of 83 or 0, within one of 84
    g = complete_graph(4)
    for cap, fits in ((84, True), (83, False), (0, False)):
        monkeypatch.setattr(multigraph, "TABLE_CELLS", cap)
        assert (multigraph._block_table(g, "span", [1]) is not None) == fits
    calls = []
    real = multigraph.stopping_times

    def spy(traj, ks, kind, uncertified=None):
        calls.append(ks)
        return real(traj, ks, kind, uncertified)

    monkeypatch.setattr(multigraph, "stopping_times", spy)
    sample_stopping_times(g, [1, 2], 50, seed=7, kinds=("span",))
    assert calls == [[1, 2]] * 50


def test_stopping_times_unattainable_raises():
    for g in (parse_edge_list("a b 1"), path_graph(4), C4):  # no triangle can ever appear
        traj = MultigraphTrajectory(g, np.random.default_rng(0))
        with pytest.raises(ValueError, match="triangle"):
            stopping_times(traj, [1], "tria")
        assert traj.times == []  # raised up front, before any draw
    with pytest.raises(ValueError):
        stopping_times(traj, [0, 1], "span")


def test_a_k_values():
    assert abs(a_k_eval(1) - 1.0) < 1e-9
    envelope = math.e / (math.e - 1.0)
    prev = 2.0
    for k in (1, 2, 4, 8, 16, 64):
        a = a_k_eval(k)
        assert a <= envelope * k ** (-1.0 / 3.0) + 1e-12
        assert a <= prev + 1e-12  # nonincreasing in k
        prev = a
    with pytest.raises(ValueError):
        a_k_eval(0)


def test_a_k_matches_scipy_minimize_scalar():
    from scipy.optimize import minimize_scalar  # the oracle, in the test only

    assert a_k_eval(1) == 1.0
    for k in range(1, 101):
        def f(q):
            return q / (-math.expm1(k * math.log1p(-q**3)) if q < 1.0 else 1.0)

        res = minimize_scalar(f, bounds=(1e-6, 1.0), method="bounded",
                              options={"xatol": 1e-12})
        assert a_k_eval(k) == pytest.approx(min(res.fun, f(1.0)), rel=1e-10)


def test_bound_constants():
    assert SPAN_BOUND(4) == 0.5
    assert abs(TRIA_BOUND(1) - math.sqrt(math.e / (math.e - 1.0))) < 1e-12


def test_sample_stopping_times_thread_determinism():
    # run i depends on (seed, i) alone: repeating the sample, or cutting it
    # short, changes none of the runs it shares with another sample
    g = complete_graph(4)
    s60 = sample_stopping_times(g, [1], 60, seed=5, kinds=("span",))["span"][1]
    again = sample_stopping_times(g, [1], 60, seed=5, kinds=("span",))["span"][1]
    s20 = sample_stopping_times(g, [1], 20, seed=5, kinds=("span",))["span"][1]
    assert np.array_equal(s60, again)
    assert np.array_equal(s60[:20], s20)


def test_prop2_check_smoke():
    g = complete_graph(4)
    samples = sample_stopping_times(g, [1], 1500, seed=8, kinds=("span",))["span"][1]
    rep = prop2_check(samples, 1, kind="span", gamma=3.0)
    assert rep["holds"]
    assert rep["mean_bound_holds"]
    assert rep["bound"] == 1.0
    assert rep["runs"] == 1500
    with pytest.raises(ValueError):
        prop2_check(samples[:999], 1)


def test_prop2_check_with_uncertified_probes_is_inconclusive():
    rng = np.random.default_rng(5)
    samples = 10.0 + rng.exponential(1.0, 1000)  # sd/mean ~ 0.09: a clear pass
    assert prop2_check(samples, 1, kind="tria")["inconclusive"] is False
    rep = prop2_check(samples, 1, kind="tria", uncertified=2)
    assert rep["uncertified"] == 2 and rep["holds"] and rep["inconclusive"]
    failing = rng.exponential(1.0, 1000) ** 3  # sd/mean far above the bound
    assert not prop2_check(failing, 1, kind="tria")["holds"]
    rep = prop2_check(failing, 1, kind="tria", uncertified=1)
    assert rep["holds"] and rep["inconclusive"]


def test_prop2_check_straddling_band_is_inconclusive():
    # sd/mean of Exp(1) is 1, the k=1 spanning-tree bound: the band straddles it
    rng = np.random.default_rng(2024)
    rep = prop2_check(rng.exponential(1.0, 2000), 1, kind="span")
    assert abs(rep["ratio"] - 1.0) < 3.0 * rep["ratio_se"]
    assert rep["holds"] and rep["inconclusive"]
