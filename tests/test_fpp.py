import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fpplab.fpp import (
    _lumped,
    _lumped_block,
    _pick,
    conditioned_exponential,
    coupled_resample,
    fpp_chain_spec,
    prop4_check,
    sample_coupling_batch,
    sample_dijkstra_batch,
    sample_fpp_batch,
    sample_lumped_fpp_batch,
    submultiplicativity_probe,
)
from fpplab import fpp
from fpplab.chain import lemma1_bound, lemma2_grid, solve_hitting
from fpplab.graphs import (
    EXACT_CAP,
    CapacityError,
    WeightedGraph,
    bridge_graph,
    complete_graph,
    grid_graph,
    path_graph,
    random_gnp_graph,
    twin_classes,
)
from fpplab.stats import BLOCK_CELLS, SampleStats, block_runs, exponential_in_place
import reference_fpp
from helpers import adjacency, edge_ids, traced_peak
from reference_fpp import shortest_path, traversal_times


def all_simple_paths(g, source, target):
    out = []
    adj = adjacency(g)

    def dfs(v, seen, path):
        if v == target:
            out.append(tuple(path))
            return
        for u, e in adj[v]:
            if u not in seen:
                seen.add(u)
                path.append(u)
                dfs(u, seen, path)
                path.pop()
                seen.discard(u)

    dfs(source, {source}, [source])
    return out


def path_cost(g, xi, path):
    ids = edge_ids(g)
    return sum(float(xi[ids[path[i], path[i + 1]]]) for i in range(len(path) - 1))


def test_traversal_from_uniform():
    xi = exponential_in_place(np.array([math.exp(-2.0), math.exp(-6.0)]), np.array([1.0, 3.0]))
    assert np.all(np.abs(xi - 2.0) < 1e-12)


def test_sample_traversal_positive_and_right_law():
    g = complete_graph(4)
    xs = traversal_times(g, np.random.default_rng(0), 4000)
    assert xs.shape == (4000, g.m)
    assert np.all(xs > 0)
    # unit-rate edges: mean 1 within MC noise
    assert abs(xs.mean() - 1.0) < 0.05


def test_block_draws_are_prefix_stable_and_positive():
    # a block of k rows is the first k rows of a longer block from the same
    # generator, so drawing only the rows a batch needs changes no run
    g = complete_graph(5)
    short = traversal_times(g, np.random.default_rng(4), 3)
    full = traversal_times(g, np.random.default_rng(4), 10)
    assert np.array_equal(short, full[:3])
    # u == 0 reads as the smallest positive double: finite, positive, no redraw
    xi = exponential_in_place(np.array([0.0, 0.5]), 2.0)
    assert np.all(np.isfinite(xi)) and np.all(xi > 0)
    assert xi[0] == -math.log(5e-324) / 2.0


def test_block_size_rule():
    # B is the largest power of two up to 1024 with B * m <= 2**20
    assert block_runs(complete_graph(256).m) == 32
    assert block_runs(complete_graph(64).m) == 512
    assert block_runs(7) == 1024
    for m in (1, 7, 1024, 1025, 2016, 32640, 2**19, 2**20):
        b = block_runs(m)
        assert b & (b - 1) == 0 and b <= 1024
        assert b * m <= 2**20 and (b == 1024 or 2 * b * m > 2**20)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_shortest_path_is_optimal(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    g = random_gnp_graph(n, 0.6, (0.5, 2.0), rng)
    xi = traversal_times(g, rng, 1)[0]
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


def _lumps(g, s, t):
    """Whether sample_fpp_batch takes the lumped path on (g, s, t)."""
    return 2 * (int(twin_classes(g, s, t).max()) + 1) <= g.n


def test_batch_sampler_matches_reference_dijkstra():
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(3, 8))
        g = random_gnp_graph(n, 0.6, (0.5, 2.0), rng)
        assert not _lumps(g, 0, n - 1)
        batch = sample_fpp_batch(g, 0, n - 1, 3, seed=trial)
        # three runs fit one block: rows 0..2 of the block drawn from child 0
        block = np.random.SeedSequence(trial).spawn(1)[0]
        xis = traversal_times(g, np.random.default_rng(block), 3)
        for i, xi in enumerate(xis):
            ref = shortest_path(g, xi, 0, n - 1)
            assert abs(batch.X[i] - ref.X) < 1e-9
            # exponential ties have probability zero, so Xi and the path agree too
            assert abs(batch.Xi[i] - ref.Xi) < 1e-9
            assert batch.path_len[i] == len(ref.path_edges)


def test_sample_fpp_batch_thread_determinism():
    # run i depends on (seed, i) alone: repeating a batch, or cutting it
    # short, changes none of the runs it shares with another batch, also
    # when the shorter batch ends a few runs into its second block
    g = complete_graph(5)
    B = block_runs(g.m)
    b200 = sample_fpp_batch(g, 0, 4, 200, seed=9)
    again = sample_fpp_batch(g, 0, 4, 200, seed=9)
    b60 = sample_fpp_batch(g, 0, 4, 60, seed=9)
    cross = sample_fpp_batch(g, 0, 4, B + 3, seed=9)
    longer = sample_fpp_batch(g, 0, 4, 2 * B + 5, seed=9)
    for name in ("X", "Xi", "path_len"):
        assert np.array_equal(getattr(b200, name), getattr(again, name))
        assert np.array_equal(getattr(b200, name)[:60], getattr(b60, name))
        assert np.array_equal(getattr(cross, name)[:200], getattr(b200, name))
        assert np.array_equal(getattr(longer, name)[:B + 3], getattr(cross, name))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.sampled_from([0.3, 0.6, 1.0]),
       st.integers(0, 10**6), st.integers(1, 40), st.data())
def test_lockstep_kernel_matches_shortest_path(n, p, seed, runs, data):
    # one block of rows against the pure-Python oracle on the same rows;
    # exponential ties have probability zero, so the paths agree exactly
    g = random_gnp_graph(n, p, (0.5, 2.0), np.random.default_rng(seed))
    s = data.draw(st.integers(0, n - 1))
    t = data.draw(st.integers(0, n - 1).filter(lambda v: v != s))
    assert not _lumps(g, s, t)
    batch = sample_fpp_batch(g, s, t, runs, seed)
    block = np.random.SeedSequence(seed).spawn(1)[0]
    for i, xi in enumerate(traversal_times(g, np.random.default_rng(block), runs)):
        ref = shortest_path(g, xi, s, t)
        assert abs(batch.X[i] - ref.X) <= 1e-12 * ref.X
        assert batch.Xi[i] == ref.Xi
        assert batch.path_len[i] == len(ref.path_edges)


@st.composite
def dijkstra_cases(draw):
    """A connected graph: random_gnp (n 2-29, p 0.1-1), a grid up to
    16 x 16, a path of 2-200 vertices or two cliques joined by a bridge;
    and endpoints s != t."""
    family = draw(st.sampled_from(["random_gnp", "grid", "path", "bridge"]))
    if family == "random_gnp":
        n, p = draw(st.integers(2, 29)), draw(st.floats(0.1, 1.0))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        try:
            g = random_gnp_graph(n, p, (0.5, 2.0), rng)
        except ValueError:  # too sparse to come up connected
            assume(False)
    elif family == "grid":
        g = grid_graph(draw(st.integers(1, 16)), draw(st.integers(2, 16)))
    elif family == "path":
        g = path_graph(draw(st.integers(2, 200)))
    else:
        c1, c2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        g = bridge_graph(c1, c2, draw(st.floats(0.01, 10.0)))
    s = draw(st.integers(0, g.n - 1))
    t = draw(st.integers(0, g.n - 2))
    return g, s, t + (t >= s)


@settings(max_examples=100, deadline=None)
@given(dijkstra_cases(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_lockstep_kernel_equals_the_dense_table_kernel(case, runs, seed):
    # the CSR kernel relaxes the same keys by the same strict < as the dense
    # (n, n) table kernel it replaced, so every run settles the same vertices
    # in the same order and walks back the same edges
    g, s, t = case
    got = sample_dijkstra_batch(g, s, t, runs, seed)
    want = reference_fpp.dijkstra_batch(g, s, t, runs, seed)
    for name in ("X", "Xi", "path_len"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_walk_back_stops_on_a_cycle_of_reached_by_edges():
    # the triangle's edges are (0, 1), (0, 2), (1, 2), and m = 3 is the pad
    # id; from target 2 to source 0, a run reached 2 and 1 each by edge 2
    # circles between them, while a run that reached 2 by edge 1 is home
    # in one step.  A path has at most n - 1 = 2 edges.
    g = complete_graph(3)
    other = np.append(g.edge_array().sum(axis=1), 0)
    home = np.array([[3, 0, 1]])
    assert np.array_equal(fpp._walk_back(home, other, 0, 2), [[1]])
    with pytest.raises(RuntimeError, match="1 of 2 runs walk back 2 edges"):
        fpp._walk_back(np.vstack([home, [[3, 2, 2]]]), other, 0, 2)


def coupled_times(g, u, a, b):
    """xi and xi' of :func:`coupled_resample` on the uniform block ``u``,
    formed outside it from a copy, so ``u`` stays as it is."""
    w = g.weight_array()
    xi = exponential_in_place(u[:, 0].copy(), w)
    inside = (a <= xi) & (xi <= b)
    return xi, np.where(inside, conditioned_exponential(w, a, b, u[:, 1]), xi)


def test_coupling_equals_the_dense_table_kernel():
    g, s, t = bridge_graph(4, 3, 0.1), 1, 5
    u = np.random.default_rng(7).random((500, 2, g.m))
    xi, xi_prime = coupled_times(g, u, 0.2, 1.0)
    got_X, got_X_prime, got_increment = coupled_resample(g, u, 0.2, 1.0, s, t)
    table = reference_fpp._edge_table(g)
    X, edges = reference_fpp._lockstep_dijkstra(table, xi, s, t)
    X_prime, _ = reference_fpp._lockstep_dijkstra(table, xi_prime, s, t)
    assert np.array_equal(got_X, X) and np.array_equal(got_X_prime, X_prime)
    # xi' equals xi off [a, b], so xi' - xi is the redraws' increment
    assert np.array_equal(got_increment, fpp._along_path(xi_prime - xi, edges).sum(axis=1))
    assert np.any(got_X_prime != got_X)


def test_dijkstra_block_holds_no_n_by_n_array():
    # a 16-run block on grid 32 x 32 (n = 1024, m = 1984) draws 254 KB of
    # uniforms and keeps 131 KB of keys, and peaks below 2.9 times the two
    # (the graph's CSR built inside); the dense (n, n) edge table with its
    # copies peaked at 49 times
    sample_dijkstra_batch(grid_graph(2, 2), 0, 3, 1, 0)  # numpy.random imports on first use
    g = grid_graph(32, 32)
    block = 16 * g.m * 8 + 16 * g.n * 8
    batch, peak, _ = traced_peak(lambda: sample_dijkstra_batch(g, 0, g.n - 1, 16, 1))
    assert len(batch.X) == 16 and np.all(batch.path_len >= 62)
    assert peak <= 4 * block


# ---------------------------------------------------------------------------
# The twin-class lumped sampler, against the lock-step Dijkstra

@pytest.mark.parametrize("g, s, t, runs", [
    (complete_graph(16), 0, 1, 20_000),
    (complete_graph(64), 0, 1, 6_000),
    (bridge_graph(8, 8, 0.1), 0, 15, 20_000),  # 6 classes, two of size 6
])
def test_lumped_sampler_agrees_with_dijkstra_in_law(g, s, t, runs):
    from scipy.stats import ks_2samp

    assert _lumps(g, s, t)
    lumped = sample_fpp_batch(g, s, t, runs, seed=31)
    dijkstra = sample_dijkstra_batch(g, s, t, runs, seed=32)
    assert np.array_equal(lumped.X, sample_lumped_fpp_batch(g, s, t, runs, seed=31).X)
    for name in ("X", "Xi"):
        assert ks_2samp(getattr(lumped, name), getattr(dijkstra, name)).pvalue > 1e-6, name
    assert np.all(lumped.Xi <= lumped.X) and np.all(lumped.path_len >= 1)


def test_lumped_mean_on_k64_is_janson_closed_form():
    # unit rates on K_n: E X = H_{n-1} / (n - 1) (Janson, CPC 8, 1999)
    n = 64
    stats = SampleStats.from_samples(sample_lumped_fpp_batch(complete_graph(n), 0, 1,
                                                             20_000, seed=5).X)
    exact = sum(1.0 / k for k in range(1, n)) / (n - 1)
    assert abs(stats.mean - exact) <= 4.0 * stats.mean_se


def test_lumped_moments_on_k12_match_the_exact_chain():
    g = complete_graph(12)
    sol = solve_hitting(fpp_chain_spec(g, 0, 1))
    stats = SampleStats.from_samples(sample_lumped_fpp_batch(g, 0, 1, 40_000, seed=6).X)
    assert abs(stats.mean - sol.E_T) <= 4.0 * stats.mean_se
    assert abs(stats.variance - sol.var_T) <= 4.0 * stats.variance_se


def test_lumped_batches_are_prefix_stable():
    g = complete_graph(8)
    assert _lumps(g, 0, 7)
    B = block_runs(4 * (g.n - 1))
    b200 = sample_fpp_batch(g, 0, 7, 200, seed=9)
    b60 = sample_fpp_batch(g, 0, 7, 60, seed=9)
    cross = sample_fpp_batch(g, 0, 7, B + 3, seed=9)
    longer = sample_fpp_batch(g, 0, 7, 2 * B + 5, seed=9)
    for name in ("X", "Xi", "path_len"):
        assert np.array_equal(getattr(b200, name)[:60], getattr(b60, name))
        assert np.array_equal(getattr(cross, name)[:200], getattr(b200, name))
        assert np.array_equal(getattr(longer, name)[:B + 3], getattr(cross, name))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0.0, 0.0, 5e-324, 1e-300, 0.1, 1.0, 3.0, 1e300]),
                         min_size=1, max_size=6).filter(any), min_size=1, max_size=5),
       st.sampled_from([0.0, 0.5, 0.9, float(np.nextafter(1.0, 0.0))]))
@example([[5e-324, 0.0, 0.0], [1.0, 0.0]], 0.9)  # 0.9 * 5e-324 rounds up to 5e-324
@example([[2.2250738585072014e-308, 0.0]], float(np.nextafter(1.0, 0.0)))  # 2**-1022
def test_pick_never_draws_an_index_of_rate_zero(rows, u):
    # u * total rounds up to the total only on totals below about 2**-1021;
    # every pick is the one the point held below the total by nextafter gives
    width = max(map(len, rows))
    rates = np.array([r + [0.0] * (width - len(r)) for r in rows])
    cum, point = np.cumsum(rates, axis=1), np.full(len(rows), u)
    picked = _pick(cum, point)
    assert np.all(rates[np.arange(len(rows)), picked] > 0)
    assert np.array_equal(picked, reference_fpp._pick(cum, point))


@pytest.mark.parametrize("g", [complete_graph(64), grid_graph(4, 4), grid_graph(16, 16),
                               path_graph(200)],
                         ids=["K64", "grid4x4", "grid16x16", "path200"])
def test_fpp_calls_leave_the_edge_tuples_unbuilt(g):
    # every FPP path reads the graph's arrays and its CSR; the triangle
    # tuples, which only the packing reads, stay unbuilt
    t = g.n - 1
    label = twin_classes(g, 0, t)
    sample_fpp_batch(g, 0, t, 50, 1, label)
    sample_dijkstra_batch(g, 0, t, 50, 1)
    sample_lumped_fpp_batch(g, 0, t, 50, 1, label)
    sample_coupling_batch(g, 0, t, 50, 1, 0.1, 0.5)
    if g.n <= EXACT_CAP:
        prop4_check(solve_hitting(fpp_chain_spec(g, 0, t, label)), g)
    assert set(vars(g)) <= {"vertices", "_ends", "_weights", "csr"}


def test_lumped_sampler_works_inside_its_uniform_block():
    # K256 at 300 runs draws one (300, 255, 4) block of 2.45 MB; the stage
    # totals and join times are formed inside it, so the peak stays within
    # 1.6 times it, where two arrays of their own would reach 1.7
    g = complete_graph(256)
    block = 300 * (g.n - 1) * 4 * 8
    batch, peak, _ = traced_peak(lambda: sample_lumped_fpp_batch(g, 0, 1, 300, 4))
    assert len(batch.X) == 300
    assert peak <= 1.6 * block


def test_lumped_block_at_extreme_uniforms():
    # u -> 1 picks the last class with a positive rate and u = 0 the first,
    # stage after stage; a full or unreachable class would overrun its slots
    g = bridge_graph(8, 8, 0.1)
    chain = _lumped(g, twin_classes(g, 0, 15), 0, 15)
    for u in (float(np.nextafter(1.0, 0.0)), 0.0):
        X, Xi, path_len = _lumped_block(chain, np.full((3, g.n - 1, 4), u))
        assert np.all(np.isfinite(X)) and np.all((0 < Xi) & (Xi <= X))
        assert np.all((path_len >= 3) & (path_len <= g.n - 1))


@st.composite
def twin_class_graphs(draw):
    """A connected graph on classes of 1 to 8 vertices: the singleton
    endpoints 0 and 1, then up to five more classes.  Two classes joined
    in the class graph (a spanning tree plus extra pairs) are joined
    completely at one rate, and the members of a class meet at one rate,
    0 meaning not adjacent."""
    sizes = [1, 1] + draw(st.lists(st.integers(1, 8), min_size=0, max_size=5))
    K = len(sizes)
    rate = st.sampled_from([1e-3, 0.05, 1.0, 3.0])
    joins = {(draw(st.integers(0, b - 1)), b): draw(rate) for b in range(1, K)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, K - 1), st.integers(0, K - 1)),
                              max_size=K)):
        if a != b:
            joins[min(a, b), max(a, b)] = draw(rate)
    members = np.split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1])
    weight = {}
    for (a, b), w in joins.items():
        weight.update({(int(x), int(y)): w for x in members[a] for y in members[b]})
    for group in members:
        c = draw(st.sampled_from([0.0, 1e-3, 1.0]))
        if c:
            weight.update(dict.fromkeys(itertools.combinations(group.tolist(), 2), c))
    edges = sorted(weight)
    return WeightedGraph(tuple(f"v{i}" for i in range(sum(sizes))), tuple(edges),
                         tuple(weight[e] for e in edges))


EDGE_UNIFORMS = [None, 0.0, float(np.nextafter(1.0, 0.0))]


@settings(max_examples=300, deadline=None)
@given(twin_class_graphs(), st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(EDGE_UNIFORMS), min_size=4, max_size=4))
def test_lumped_block_equals_the_reference_kernel(g, k, seed, columns):
    # the kernel that keeps every stage's parent, slot and join time, bit
    # for bit, with a uniform column held at 0 or just below 1
    chain = _lumped(g, twin_classes(g, 0, 1), 0, 1)
    u = np.random.default_rng(seed).random((k, g.n - 1, 4))
    for q, value in enumerate(columns):
        if value is not None:
            u[..., q] = value
    # the kernel uses up its block, so it gets a copy
    for got, want in zip(_lumped_block(chain, u.copy()), reference_fpp._lumped_block(chain, u)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


GRID = [0.05, 0.1, 0.2, 0.5]


def _assert_lumped_agrees(g, s, t):
    """The chain on twin-class counts against the chain on vertex subsets
    (one class per vertex): moments and Lemma 2's sums to 1e-12 relative,
    every verdict equal."""
    label = twin_classes(g, s, t)
    full = solve_hitting(fpp_chain_spec(g, s, t))
    lumped = solve_hitting(fpp_chain_spec(g, s, t, label))
    assert len(lumped.states) <= len(full.states)

    def close(x, y):
        return abs(x - y) <= 1e-12 * abs(y)

    for name in ("E_T", "var_T", "kappa"):
        assert close(getattr(lumped, name), getattr(full, name)), name
    assert lumped.monotone_h() == full.monotone_h()
    assert lemma1_bound(lumped)["holds"] == lemma1_bound(full)["holds"]
    assert prop4_check(lumped, g)["holds"] == prop4_check(full, g)["holds"]
    for a, b in zip(lemma2_grid(lumped, GRID, GRID), lemma2_grid(full, GRID, GRID),
                    strict=True):
        assert a["holds"] == b["holds"]
        for name in ("lhs", "rhs", "occupation_bad"):
            assert close(a[name], b[name]), (a["delta"], a["epsilon"], name)


@pytest.mark.parametrize("g, s, t", [
    (complete_graph(8), 0, 7),
    (complete_graph(12), 0, 1),
    (complete_graph(16), 0, 15),
    (bridge_graph(5, 6, 0.1), 0, 10),
])
def test_lumped_exact_chain_matches_the_full_chain(g, s, t):
    _assert_lumped_agrees(g, s, t)


@st.composite
def graphs_with_planted_twins(draw):
    """A connected graph on k base vertices, with base vertex v (not the
    endpoints 0 and 1) copied into up to 12 - k more vertices of its
    neighbourhood and rates; the copies and v meet each other at one rate
    c, 0 meaning not adjacent."""
    k = draw(st.integers(3, 7))
    rate = st.sampled_from([0.5, 1.0, 2.0, 3.0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = {(int(rng.integers(v)), v): None for v in range(1, k)}  # a spanning tree
    for _ in range(draw(st.integers(0, k))):
        weight[tuple(sorted(rng.choice(k, size=2, replace=False).tolist()))] = None
    weight = {e: draw(rate) for e in sorted(weight)}
    v = draw(st.integers(2, k - 1))
    twins = [v, *range(k, k + draw(st.integers(1, 12 - k)))]
    for (a, b), w in list(weight.items()):
        if v in (a, b):
            for x in twins[1:]:
                weight[(b if a == v else a, x)] = w
    c = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    if c:
        weight.update(dict.fromkeys(itertools.combinations(twins, 2), c))
    n = k + len(twins) - 1
    return WeightedGraph(tuple(f"v{i}" for i in range(n)), tuple(weight), tuple(weight.values()))


@settings(max_examples=40, deadline=None)
@given(graphs_with_planted_twins())
def test_lumped_exact_chain_matches_the_full_chain_on_planted_twins(g):
    _assert_lumped_agrees(g, 0, 1)


def _janson_moments(n: int) -> tuple[Fraction, Fraction]:
    """E X and var X on K_n with unit rates: stage j lasts Exp(j(n - j)),
    and the target joins at a stage J uniform on {1..n-1}, independent of
    the stage lengths (Janson, CPC 8, 1999)."""
    means = [Fraction(1, j * (n - j)) for j in range(1, n)]
    mean_to = list(itertools.accumulate(means))               # E[X | J]
    var_to = list(itertools.accumulate(m * m for m in means))  # var[X | J]
    mean = sum(mean_to) / (n - 1)
    return mean, (sum(var_to) + sum(m * m for m in mean_to)) / (n - 1) - mean**2


@pytest.mark.parametrize("n", range(3, 21))
def test_lumped_exact_chain_on_complete_graphs_is_janson_closed_form(n):
    g = complete_graph(n)
    sol = solve_hitting(fpp_chain_spec(g, 0, n - 1, twin_classes(g, 0, n - 1)))
    mean, var = _janson_moments(n)
    assert mean == sum(Fraction(1, k) for k in range(1, n)) / (n - 1)  # H_{n-1}/(n-1)
    assert abs(sol.E_T - float(mean)) <= 1e-12 * float(mean)
    assert abs(sol.var_T - float(var)) <= 1e-12 * float(var)
    # the target reached or not, with 0..n-2 of the other vertices reached
    assert len(sol.states) == 2 * (n - 1)


class _Unread:
    """A twin-class label that fails the test if anything reads it."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("the label was read")


def test_fpp_chain_capacity_and_args():
    with pytest.raises(CapacityError):
        fpp_chain_spec(complete_graph(21), 0, 1)
    with pytest.raises(ValueError):
        fpp_chain_spec(complete_graph(3), 1, 1)
    # with a label given, both are checked before it is read
    with pytest.raises(CapacityError):
        fpp_chain_spec(complete_graph(21), 0, 1, _Unread())
    with pytest.raises(ValueError):
        fpp_chain_spec(complete_graph(3), 1, 1, _Unread())


def test_prop4_triangle():
    g = complete_graph(3)
    sol = solve_hitting(fpp_chain_spec(g, 0, 1))
    rep = prop4_check(sol, g)
    assert rep["holds"]
    assert rep["w_min"] == 1.0
    assert abs(rep["bound"] - 0.75) < 1e-12


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
    a, b = 0.2, 1.5
    u = np.random.default_rng(2).random((300, 2, g.m))
    xi, xi_prime = coupled_times(g, u, a, b)
    X, X_prime, increment_bound = coupled_resample(g, u, a, b, 0, g.n - 1)
    # the kernel makes xi inside its block
    assert np.array_equal(u[:, 0], xi)
    # agreement off the window, support inside it
    inside = (a <= xi) & (xi <= b)
    assert np.all((a - 1e-12 <= xi_prime[inside]) & (xi_prime[inside] <= b + 1e-12))
    assert np.array_equal(xi_prime[~inside], xi[~inside])
    assert np.all(X_prime - X <= increment_bound + 1e-9)
    # X, X' and the increment over D_ab agree with the oracle, run by run
    for i in range(len(u)):
        base = shortest_path(g, xi[i], 0, g.n - 1)
        assert X[i] == base.X
        assert X_prime[i] == shortest_path(g, xi_prime[i], 0, g.n - 1).X
        d_ab = [e for e in base.path_edges if inside[i, e]]
        assert increment_bound[i] == pytest.approx(
            sum(xi_prime[i, e] - xi[i, e] for e in d_ab), abs=1e-12)


def test_coupled_resample_validates_interval():
    g = complete_graph(3)
    u = np.full((1, 2, g.m), 0.5)
    for a, b in ((1.0, 0.5), (0.0, 1.0), (-1.0, 1.0), (0.5, 0.5)):
        with pytest.raises(ValueError):
            coupled_resample(g, u, a, b, 0, 1)


def test_sample_coupling_batch_block_streams():
    # block j draws random((k, 2, m)) from child j; run i is row i % B of it
    g = complete_graph(4)
    B = block_runs(2 * g.m)
    batch = sample_coupling_batch(g, 0, 3, B + 3, 5, 0.2, 1.5)
    for j, child in enumerate(np.random.SeedSequence(5).spawn(2)):
        u = np.random.default_rng(child).random((B, 2, g.m))
        block = coupled_resample(g, u, 0.2, 1.5, 0, 3)
        rows = slice(j * B, min(B + 3, (j + 1) * B))
        k = rows.stop - rows.start
        for got, want in zip(batch, block, strict=True):  # X, X' and the increment bound
            assert np.array_equal(got[rows], want[:k])


def test_coupling_block_stays_within_the_block_budget(monkeypatch):
    # a run draws (2, m) uniforms, so B is sized by 2m: on K64 (m = 2016)
    # sizing by m would give 512 runs of 4032 uniforms, twice the budget
    g = complete_graph(64)
    sizes = []

    def record(g, u, a, b, source, target):
        sizes.append(u.size)
        k = len(u)
        return np.zeros(k), np.zeros(k), np.zeros(k)

    monkeypatch.setattr(fpp, "coupled_resample", record)
    sample_coupling_batch(g, 0, 1, 600, 5, 0.2, 1.5)
    assert sizes == [256 * 2 * g.m] * 2 + [88 * 2 * g.m]
    assert max(sizes) <= BLOCK_CELLS


def test_submultiplicativity_band_stays_open_far_in_the_tail():
    # every tail 0: the Wald variances p(1 - p)/n were all 0, and the check
    # passed on no evidence; the Wilson band leaves it inconclusive
    rep = submultiplicativity_probe(np.full(1000, 0.5), 1000.0, 1000.0)
    assert rep["tail_sum"] == rep["tail_product"] == 0.0
    assert rep["band"] > 0 and rep["holds"] and rep["inconclusive"]


@pytest.mark.parametrize("tail_sum, holds", [(125, False), (124, True)])
def test_submultiplicativity_fails_just_past_its_band(tail_sum, holds):
    # 1000 runs with P(X > 1) = 0.3: the bound on P(X > 2) is 0.09 with a
    # Wilson band of 0.036, so 125 runs above 2 put the tail sum just past
    # the band, and 124 just inside it
    x = np.array([3.0] * tail_sum + [1.5] * (300 - tail_sum) + [0.5] * 700)
    rep = submultiplicativity_probe(x, 1.0, 1.0)
    assert (rep["holds"], rep["inconclusive"]) == (holds, holds)


def test_submultiplicativity_probe_reporting():
    rng = np.random.default_rng(1)
    samples = rng.exponential(1.0, size=20_000)
    rep = submultiplicativity_probe(samples, 1.0, 1.0)
    # exponential tails are exactly multiplicative: P(X>2) = P(X>1)^2
    assert rep["holds"]
    assert rep["tail_sum"] == np.mean(samples > 2.0)
    assert rep["tail_product"] == np.mean(samples > 1.0) ** 2
    assert 0 < rep["band"] < 0.02
