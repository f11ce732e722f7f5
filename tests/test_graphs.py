import itertools
import math
import timeit

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fpplab.graphs import (
    FAMILIES,
    CapacityError,
    GraphParseError,
    GraphValidationError,
    Multigraph,
    WeightedGraph,
    bridge_graph,
    complete_graph,
    grid_graph,
    min_cut_weight,
    parse_edge_list,
    path_graph,
    random_gnp_graph,
    twin_classes,
)

import reference_packing
from helpers import TUPLE_FAMILIES, traced_peak


def test_parse_basic():
    g = parse_edge_list("a b 2.0\nb c 0.5\n")
    assert g.vertices == ("a", "b", "c")
    assert g.edge_array().tolist() == [[0, 1], [1, 2]]
    assert g.weight_array().tolist() == [2.0, 0.5]
    assert g.n == 3 and g.m == 2


def test_parse_first_appearance_order_and_comments():
    text = "# header\nz y 1 # trailing\n\ny x 3\n"
    g = parse_edge_list(text)
    assert g.vertices == ("z", "y", "x")


def test_parse_utf8_names():
    g = parse_edge_list("α β 1\nβ γ 2\n")
    assert g.vertices == ("α", "β", "γ")


@pytest.mark.parametrize("bad", [
    "a b 1\na b 2",          # duplicate edge
    "a b 1\nb a 2",          # duplicate in reverse orientation
    "a a 1",                 # self loop
    "a b zero",              # unparsable weight
    "a b 0",                 # nonpositive
    "a b -1",
    "a b inf",
    "a b nan",
    "a b 1 2",               # wrong arity
    "a b 1.23456789012345678",  # 18 significant digits
    "",                      # empty
])
def test_parse_rejects(bad):
    with pytest.raises(GraphParseError):
        parse_edge_list(bad)


def test_fifteen_sig_digits_accepted():
    g = parse_edge_list("a b 1.23456789012345")
    assert g.weight_array()[0] == 1.23456789012345


def test_disconnected_rejected():
    with pytest.raises(GraphValidationError):
        parse_edge_list("a b 1\nc d 1")


def _types(x):
    """The types of ``x`` and, for a tuple, of everything in it."""
    return [type(x)] + ([t for y in x for t in _types(y)] if isinstance(x, tuple) else [])


def _assert_same_graph(got, want):
    assert got.vertices == want.vertices
    assert _types(got.vertices) == _types(want.vertices)
    for a, b in ((got.edge_array(), want.edge_array()), (got.weight_array(), want.weight_array())):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, args", [
    ("path", (2,)), ("path", (9,)), ("complete", (2,)), ("complete", (13,)),
    ("grid", (1, 5)), ("grid", (4, 1)), ("grid", (3, 5)), ("grid", (4, 4)),
    ("bridge", (1, 1, 0.5)), ("bridge", (3, 3, 0.1)), ("bridge", (2, 5, 3))])
def test_array_built_families_equal_the_tuple_built_ones(name, args):
    _assert_same_graph(FAMILIES[name](*args), TUPLE_FAMILIES[name](*args))


@pytest.mark.parametrize("seed", range(4))
def test_array_built_random_gnp_equals_the_tuple_built_one(seed):
    for n, p in ((6, 0.5), (12, 0.3), (20, 0.15)):
        got = random_gnp_graph(n, p, (0.5, 2.0), np.random.default_rng(seed))
        want = TUPLE_FAMILIES["random_gnp"](n, p, (0.5, 2.0), np.random.default_rng(seed))
        _assert_same_graph(got, want)


def test_complete_graph_holds_its_arrays_alone():
    # K256's (m, 2) int64 ends and (m,) rates take 0.78 MB; its 32 640 edge
    # tuples and a weight tuple would take another 2.3 MB
    g, _, held = traced_peak(lambda: complete_graph(256))
    assert set(vars(g)) == {"vertices", "_ends", "_weights"}
    assert held <= 1.0e6


def test_building_complete_graph_256_peaks_below_four_times_its_arrays():
    # K256 holds 0.80 MB and its caller's pairs and rates take 0.78 MB; the
    # duplicate check's temporaries must not stack on the connectivity
    # check's, and each takes at most three m-long arrays (2.20 MB here)
    g, peak, _ = traced_peak(lambda: complete_graph(256))
    assert peak <= 2.3e6


def test_connectivity_of_a_long_path_costs_near_linear_time():
    # a frontier walk, one scan of the edges per level, would scan them 1999
    # times on this path; hooking with pointer jumping takes O(log n) rounds
    g = path_graph(2000)
    assert g._is_connected()
    assert min(timeit.repeat(g._is_connected, number=1, repeat=5)) < 0.01


@pytest.mark.parametrize("seed", range(3))
def test_two_long_path_components_are_not_connected(seed):
    # two paths of 1000 vertices under a random relabelling, so that the
    # hooks run against the index order; one more edge joins them
    relabel = np.random.default_rng(seed).permutation(2000)
    pairs = [(i, i + 1) for i in range(2000 - 1) if i != 999]
    edges = sorted(tuple(sorted(relabel[[a, b]].tolist())) for a, b in pairs)
    names = tuple(f"v{i}" for i in range(2000))
    with pytest.raises(GraphValidationError, match="graph is not connected"):
        _loop_validation(names, edges, (1.0,) * len(edges))
    with pytest.raises(GraphValidationError, match="graph is not connected"):
        WeightedGraph(names, edges, (1.0,) * len(edges))
    joined = edges + [tuple(sorted(relabel[[999, 1000]].tolist()))]
    _loop_validation(names, joined, (1.0,) * len(joined))
    assert WeightedGraph(names, joined, (1.0,) * len(joined)).m == 2000 - 1


def test_edge_index_and_neighbors():
    g = path_graph(3)
    assert g.edge_index(0, 1) == 0
    assert g.edge_index(1, 0) == 0
    assert g.edge_index(0, 2) is None
    assert [v for v, _ in g.neighbors(1)] == [0, 2]


def test_weight_array_is_built_once_and_read_only():
    g = bridge_graph(3, 3, 0.1)
    w = g.weight_array()
    assert w is g.weight_array()
    assert w.tolist() == [1.0] * 6 + [0.1]
    with pytest.raises(ValueError):
        w[0] = 5.0


@pytest.mark.parametrize("seed", range(6))
def test_triangles_match_brute_force_and_are_built_once(seed):
    rng = np.random.default_rng(seed)
    g = random_gnp_graph(int(rng.integers(3, 10)), 0.6, (0.5, 2.0), rng)
    assert "triangles" not in vars(g)  # construction does not enumerate them
    brute = [(g.edge_index(u, v), g.edge_index(v, w), g.edge_index(u, w))
             for u, v, w in itertools.combinations(range(g.n), 3)
             if None not in (g.edge_index(u, v), g.edge_index(v, w), g.edge_index(u, w))]
    assert list(g.triangles) == brute
    assert g.triangles is g.triangles


_POSITIVE_DOUBLES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def connected_graphs(draw, weight=st.floats(min_value=0.01, max_value=100.0)):
    n = draw(st.integers(min_value=2, max_value=8))
    # random spanning tree plus random extra edges guarantees connectivity
    rng_bits = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(rng_bits)
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.add((u, v))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((u, v))
    edges = tuple(sorted(edges))
    weights = tuple(draw(weight) for _ in edges)
    names = tuple(f"v{i}" for i in range(n))
    return WeightedGraph(names, edges, weights)


def _loop_validation(vertices, edges, weights):
    """The per-edge validation loop that array validation replaced, kept
    as its oracle: the first bad edge raises, checked in the order
    self-loop at a vertex, index range, duplicate, weight; then
    connectivity."""
    n = len(vertices)
    seen = set()
    adj = [[] for _ in range(n)]
    for (u, v), w in zip(edges, weights):
        if u == v and 0 <= u < n:
            raise GraphValidationError(f"self-loop at vertex {vertices[u]!r}")
        if not (0 <= u < v < n):
            raise GraphValidationError(f"edge index pair out of range: {(u, v)}")
        if (u, v) in seen:
            raise GraphParseError(f"duplicate edge {vertices[u]!r}-{vertices[v]!r}")
        if not (0 < w < math.inf):
            raise GraphValidationError(f"weight {w} on edge {(u, v)} is not positive and finite")
        seen.add((u, v))
        adj[u].append(v)
        adj[v].append(u)
    reached, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    if n > 0 and len(reached) != n:
        raise GraphValidationError("graph is not connected")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n),
                       st.sampled_from([1.0, 0.5, 2.0, 0.0, -1.0, math.inf, math.nan])),
             max_size=12))))
def test_array_validation_raises_what_the_edge_loop_raised(case):
    n, triples = case
    vertices = tuple(f"v{i}" for i in range(n))
    edges = tuple((u, v) for u, v, _ in triples)
    weights = tuple(w for _, _, w in triples)
    try:
        _loop_validation(vertices, edges, weights)
    except (GraphValidationError, GraphParseError) as exc:
        with pytest.raises(type(exc)) as got:
            WeightedGraph(vertices, edges, weights)
        assert str(got.value) == str(exc)
    else:
        g = WeightedGraph(vertices, edges, weights)
        for (u, v), i in zip(edges, range(len(edges))):
            assert g.edge_index(u, v) == g.edge_index(v, u) == i
        assert [len(g.neighbors(u)) for u in range(n)] == [
            sum(u in e for e in edges) for u in range(n)]


def test_self_loop_past_the_names_is_out_of_range():
    # the range is checked before the self-loop message names the vertex
    for loop in ((3, 3), (-1, -1)):
        with pytest.raises(GraphValidationError, match="edge index pair out of range"):
            WeightedGraph(("a", "b"), ((0, 1), loop), (1.0, 1.0))
    with pytest.raises(GraphValidationError, match="self-loop at vertex 'b'"):
        WeightedGraph(("a", "b"), ((0, 1), (1, 1)), (1.0, 1.0))


def test_one_weight_per_edge():
    with pytest.raises(GraphValidationError, match="1 edges but 2 weights"):
        WeightedGraph(("a", "b"), ((0, 1),), (1.0, 2.0))


def test_adjacency_is_built_on_first_use():
    # one cache, the CSR, made from the edge array; edge_index, neighbors
    # and triangles read it
    g = complete_graph(6)
    assert "csr" not in vars(g)
    assert g.edge_index(4, 2) == 10 and g.edge_index(2, 2) is None
    assert "csr" in vars(g) and g.csr is g.csr
    assert [v for v, _ in g.neighbors(3)] == [0, 1, 2, 4, 5] and len(g.triangles) == 20
    start, nbr, eid = g.csr
    assert not any(a.flags.writeable for a in g.csr)
    assert start.tolist() == list(range(0, 31, 5))
    edges = g.edge_array().tolist()
    assert edges == [[i, j] for i in range(6) for j in range(i + 1, 6)]
    assert all(edges[e] == sorted((u, v))
               for u in range(6) for v, e in zip(nbr[start[u]:start[u + 1]].tolist(),
                                                 eid[start[u]:start[u + 1]].tolist()))


def _brute_twin_classes(g, s, t):
    """Label per vertex from the definition: a pair by pair comparison of
    rate rows outside the pair, merged by union-find."""
    rates = np.zeros((g.n, g.n))
    for (u, v), w in zip(g.edge_array().tolist(), g.weight_array().tolist()):
        rates[u, v] = rates[v, u] = w
    root = list(range(g.n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in itertools.combinations([x for x in range(g.n) if x not in (s, t)], 2):
        outside = [x for x in range(g.n) if x not in (u, v)]
        if all(rates[u, x] == rates[v, x] for x in outside):
            root[find(v)] = find(u)
    firsts = sorted({find(x) for x in range(g.n)})
    return [firsts.index(find(x)) for x in range(g.n)]


def test_twin_classes_of_the_built_in_families():
    # K_n: everything but the endpoints is one class
    assert twin_classes(complete_graph(6), 0, 1).tolist() == [0, 1, 2, 2, 2, 2]
    # bridge(8, 8): the two clique interiors, the bridge ends, s and t
    label = twin_classes(bridge_graph(8, 8, 0.1), 0, 15)
    assert label.tolist() == [0] + [1] * 6 + [2, 3] + [4] * 6 + [5]
    # a grid has no twins; a star's leaves are non-adjacent twins
    assert twin_classes(grid_graph(4, 4), 0, 15).tolist() == list(range(16))
    star = WeightedGraph(tuple("abcde"), ((0, 1), (0, 2), (0, 3), (0, 4)), (1.0,) * 4)
    assert twin_classes(star, 1, 2).tolist() == [0, 1, 2, 3, 3]
    with pytest.raises(ValueError):
        twin_classes(star, 1, 1)


@settings(max_examples=80, deadline=None)
@given(connected_graphs(weight=st.sampled_from([1.0, 2.0])), st.data())
def test_twin_classes_match_the_pairwise_definition(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    t = data.draw(st.integers(0, g.n - 1).filter(lambda v: v != s))
    assert twin_classes(g, s, t).tolist() == _brute_twin_classes(g, s, t)


def named_edges(g):
    return {
        frozenset((g.vertices[u], g.vertices[v])): w
        for (u, v), w in zip(g.edge_array().tolist(), g.weight_array().tolist())
    }


@settings(max_examples=60, deadline=None)
@given(connected_graphs(weight=_POSITIVE_DOUBLES))
@example(random_gnp_graph(5, 0.8, (0.5, 2.0), np.random.default_rng(1)))
@example(bridge_graph(3, 3, 1 / 3))
def test_edge_list_round_trip(g):
    # serializing and re-parsing preserves the named weighted graph exactly,
    # whatever the weights: ``repr`` writes at most 17 significant digits
    g2 = parse_edge_list(g.to_edge_list())
    assert set(g2.vertices) == set(g.vertices)
    assert named_edges(g2) == named_edges(g)
    # parse -> serialize -> parse is a fixpoint: identical storage too
    g3 = parse_edge_list(g2.to_edge_list())
    assert g3.vertices == g2.vertices
    assert np.array_equal(g3.edge_array(), g2.edge_array())
    assert g3.weight_array().tobytes() == g2.weight_array().tobytes()


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_min_cut_matches_networkx(g):
    import networkx as nx

    gamma, witness = min_cut_weight(g)
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    edges = list(zip(g.edge_array().tolist(), g.weight_array().tolist()))
    for (u, v), w in edges:
        G.add_edge(u, v, weight=w)
    expected, _ = nx.stoer_wagner(G)
    assert math.isclose(gamma, expected, rel_tol=1e-9)
    # the witness mask really achieves the reported cut value
    cut = sum(w for (u, v), w in edges
              if ((witness >> u) & 1) != ((witness >> v) & 1))
    assert math.isclose(cut, gamma, rel_tol=1e-12)


@settings(max_examples=80, deadline=None)
@given(connected_graphs(weight=st.one_of(st.sampled_from([0.1, 0.2, 1.0, 2.0]),
                                         _POSITIVE_DOUBLES)))
@example(complete_graph(6))
@example(grid_graph(4, 4))
@example(random_gnp_graph(16, 0.3, (0.1, 3.0), np.random.default_rng(5)))
def test_min_cut_equals_the_mask_loop(g):
    # the same float, summed in the same edge order, and the same first
    # least mask, on weights that tie and weights that do not; the
    # 16-vertex examples span two chunks of masks
    got = min_cut_weight(g)
    assert got == reference_packing.min_cut_by_masks(g)
    assert type(got[0]) is float and type(got[1]) is int


def test_min_cut_capacity():
    with pytest.raises(CapacityError):
        min_cut_weight(complete_graph(21))


def test_family_shapes():
    assert path_graph(5).m == 4
    assert complete_graph(6).m == 15
    g = grid_graph(3, 4)
    assert g.n == 12 and g.m == 3 * 3 + 2 * 4
    b = bridge_graph(3, 3, 0.1)
    assert b.n == 6 and b.m == 3 + 3 + 1
    assert b.weight_array()[-1] == 0.1
    assert b.edge_array()[-1].tolist() == [2, 3]


def test_random_gnp_connected_and_seeded():
    rng = np.random.default_rng(0)
    g = random_gnp_graph(8, 0.4, (0.5, 2.0), rng)
    assert g.n == 8
    assert all(0.5 <= w <= 2.0 for w in g.weight_array().tolist())
    g2 = random_gnp_graph(8, 0.4, (0.5, 2.0), np.random.default_rng(0))
    assert np.array_equal(g2.edge_array(), g.edge_array())
    assert np.array_equal(g2.weight_array(), g.weight_array())


class _NoDraws:
    def random(self, *args, **kwargs):
        raise AssertionError("drew from the rng")


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5, math.nan])
def test_random_gnp_rejects_p_outside_unit_interval_before_drawing(p):
    with pytest.raises(ValueError, match="edge probability"):
        random_gnp_graph(120, p, (0.5, 2.0), _NoDraws())


def test_random_gnp_with_p_one_is_complete():
    g = random_gnp_graph(5, 1.0, (1.0, 1.0), np.random.default_rng(0))
    assert g.m == 10


def test_multigraph_validation():
    g = path_graph(3)
    m = Multigraph(g, (2, 0))
    assert m.total_edges == 2
    assert m.add_copy(1).multiplicity == (2, 1)
    with pytest.raises(ValueError):
        Multigraph(g, (1,))
    with pytest.raises(ValueError):
        Multigraph(g, (1, -1))
