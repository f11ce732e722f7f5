"""Weighted graphs and exact brute-force cut computations.

Every process in this package runs on a finite connected graph with
positive edge rates.  Graphs are immutable after construction.  A graph
is its edge ends and rates, two read-only arrays that every sampler,
the exact chain and the exhaustive min cut read; the built-in families
build those arrays directly, and the adjacency is one CSR made from them.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import cached_property

import numpy as np

EXACT_CAP = 20  # exhaustive subset enumeration stays below 2^19 cuts


class GraphParseError(ValueError):
    """Malformed edge-list text (bad tokens, bad weight, duplicate edge)."""


class GraphValidationError(ValueError):
    """Structurally invalid graph (disconnected, self-loop, weight not positive and finite)."""


class CapacityError(RuntimeError):
    """Instance too large for the exact (exhaustive) algorithms."""


class WeightedGraph:
    """Finite connected simple graph with positive edge rates.

    ``vertices`` keeps first-appearance order from the input.  The graph
    holds its edges as one read-only ``(m, 2)`` int64 array of index pairs
    ``(u, v)`` with ``u < v`` and its rates as one read-only ``(m,)`` float
    array, made from sequences or arrays and validated as arrays.  The
    adjacency (:attr:`csr`) and the triangle tables are built on first use.
    """

    def __init__(self, vertices, edges, weights):
        n, m = len(vertices), len(edges)
        if len(weights) != m:
            raise GraphValidationError(f"{m} edges but {len(weights)} weights")
        if isinstance(edges, np.ndarray):
            ends = edges.astype(np.int64).reshape(m, 2)
        else:
            ends = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64,
                               count=2 * m).reshape(m, 2)
        rates = np.array(weights, dtype=float)
        for array in (ends, rates):
            array.flags.writeable = False
        self.__dict__.update(vertices=tuple(vertices), _ends=ends, _weights=rates)
        u, v = ends.T
        bad = (u == v) | (u < 0) | (u >= v) | (v >= n) | ~((rates > 0) & (rates < math.inf))
        # a stable sort keeps equal pairs in input order, so each but the
        # first of a run of equal keys repeats an earlier pair
        key = u * max(n, 1) + v
        order = np.argsort(key, kind="stable")
        key.sort()  # key[order], without a second copy
        duplicate = np.zeros(m, bool)
        duplicate[order[1:][key[1:] == key[:-1]]] = True
        del key, order  # before the connectivity check makes its own temporaries
        if (bad | duplicate).any():
            i = int(np.argmax(bad | duplicate))
            self._reject(i, bool(duplicate[i]), weights[i])
        if n > 0 and not self._is_connected():
            raise GraphValidationError("graph is not connected")

    def __setattr__(self, name, value):
        raise AttributeError(f"WeightedGraph is immutable; cannot set {name!r}")

    def _reject(self, i: int, duplicate: bool, w):
        """Raise the error of edge ``i``, the first bad edge, checked in
        the order self-loop at a vertex, index range, duplicate, weight
        (``w``, as given).  Every earlier edge is valid, so ``duplicate``
        (the pair repeats an earlier one) is exact for an edge in range."""
        u, v = self._ends[i].tolist()
        if u == v and 0 <= u < len(self.vertices):
            raise GraphValidationError(f"self-loop at vertex {self.vertices[u]!r}")
        if not (0 <= u < v < len(self.vertices)):
            raise GraphValidationError(f"edge index pair out of range: {(u, v)}")
        if duplicate:
            raise GraphParseError(f"duplicate edge {self.vertices[u]!r}-{self.vertices[v]!r}")
        raise GraphValidationError(f"weight {w} on edge {(u, v)} is not positive and finite")

    def _is_connected(self) -> bool:
        """Min-label hooking with pointer jumping (Shiloach & Vishkin,
        J. Algorithms 3, 1982): each round hooks every tree's root onto the
        least smaller root across an edge, then points every vertex at its
        root.  A root that does not hook in one round sees its neighbours
        hooked onto roots no larger than it, so it hooks or is hooked onto
        in the next: the trees of a component at least halve every two
        rounds, O(log n) rounds of O(m + n log n) each.  A root is the least
        vertex of its tree, so the graph is connected when every root is 0.
        Roots are int32 and the lesser root overwrites its gather, so a
        round holds three m-long int32 arrays."""
        u, v = self._ends.T
        root = np.arange(len(self.vertices), dtype=np.int32)
        while not np.array_equal(ru := root[u], rv := root[v]):
            high = np.maximum(ru, rv)
            np.minimum.at(root, high, np.minimum(ru, rv, out=ru))
            del high
            while not np.array_equal(jumped := root[root], root):
                root = jumped
        return not root.any()

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The adjacency as three read-only int64 arrays ``(start, nbr,
        eid)``: vertex u's neighbours are ``nbr[start[u]:start[u + 1]]`` in
        increasing order, and ``eid`` holds their edge ids.  Built from the
        edge array on first use, then kept."""
        tail, head = np.concatenate([self._ends, self._ends[:, ::-1]]).T
        order = np.lexsort((head, tail))
        start = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail, minlength=self.n), out=start[1:])
        csr = start, head[order], order % self.m
        for array in csr:
            array.flags.writeable = False
        return csr

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self._ends)

    def min_weight(self) -> float:
        return float(self._weights.min())

    def weight_array(self) -> np.ndarray:
        """The edge rates as one read-only float array, the graph's own."""
        return self._weights

    def edge_array(self) -> np.ndarray:
        """The ``(m, 2)`` edge endpoints as one read-only int64 array, the graph's own."""
        return self._ends

    def rate_matrix(self) -> np.ndarray:
        """The symmetric ``(n, n)`` rates w(u, v), 0 where no edge is (the
        diagonal too); a new array per call."""
        rates = np.zeros((self.n, self.n))
        u, v = self._ends.T
        rates[u, v] = rates[v, u] = self._weights
        return rates

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """Edge-id triples ``(uv, vw, uw)`` of the triangles u < v < w, in
        lexicographic order; built on first use, then kept."""
        start, nbr, eid = (a.tolist() for a in self.csr)
        out = []
        for u in range(self.n):
            above = {v: e for v, e in zip(nbr[start[u]:start[u + 1]], eid[start[u]:start[u + 1]])
                     if v > u}
            for v, euv in above.items():
                for j in range(start[v], start[v + 1]):
                    if nbr[j] > v and nbr[j] in above:
                        out.append((euv, eid[j], above[nbr[j]]))
        return tuple(out)

    @cached_property
    def edge_triangles(self) -> tuple[tuple[int, ...], ...]:
        """Per edge id, the increasing indices into :attr:`triangles` of
        the triangles on that edge; built on first use, then kept."""
        out = [[] for _ in range(self.m)]
        for j, tri in enumerate(self.triangles):
            for e in tri:
                out[e].append(j)
        return tuple(tuple(js) for js in out)


_SIGDIGITS = re.compile(r"[0-9]")


def _significant_digits(token: str) -> int:
    digits = _SIGDIGITS.findall(token.split("e")[0].split("E")[0])
    s = "".join(digits).lstrip("0")
    return len(s) if s else 1


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse edge-list text: one ``u v w`` per line, ``#`` comments, UTF-8.

    Vertex ids are assigned in first-appearance order.  Weights with more
    than 17 significant digits are rejected: 17 tell any two doubles
    apart, so ``repr`` of a weight never needs more, and an edge list
    written with ``repr`` weights parses back to the same weights.
    """
    vertex_ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    weights: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphParseError(f"line {lineno}: expected 'u v w', got {raw!r}")
        a, b, wtok = parts
        if a == b:
            raise GraphParseError(f"line {lineno}: self-loop {a!r}")
        if _significant_digits(wtok) > 17:
            raise GraphParseError(f"line {lineno}: weight {wtok!r} has more than 17 significant digits")
        try:
            w = float(wtok)
        except ValueError:
            raise GraphParseError(f"line {lineno}: bad weight {wtok!r}") from None
        if not (w > 0) or not np.isfinite(w):
            raise GraphParseError(f"line {lineno}: weight must be positive and finite, got {wtok!r}")
        for name in (a, b):
            if name not in vertex_ids:
                vertex_ids[name] = len(vertex_ids)
        u, v = sorted((vertex_ids[a], vertex_ids[b]))
        if (u, v) in seen:
            raise GraphParseError(f"line {lineno}: duplicate edge {a!r}-{b!r}")
        seen.add((u, v))
        edges.append((u, v))
        weights.append(w)
    if not vertex_ids:
        raise GraphParseError("empty edge list")
    return WeightedGraph(tuple(vertex_ids), tuple(edges), tuple(weights))


def min_cut_weight(g: WeightedGraph) -> float:
    """Exhaustive minimum cut: gamma, the min over proper nonempty S of
    w(S, S^c).  Enumerates subsets containing vertex 0, which covers every
    bipartition once, a chunk of masks at a time; a chunk's cuts add the
    crossing rates one edge at a time, in edge order.
    """
    n = g.n
    if n > EXACT_CAP:
        raise CapacityError(
            f"min_cut_weight enumerates cuts exhaustively; |V|={n} exceeds cap {EXACT_CAP}"
        )
    if n < 2:
        raise GraphValidationError("min cut needs at least two vertices")
    best = math.inf
    edges = list(zip(g.edge_array().tolist(), g.weight_array().tolist()))
    halves = (1 << (n - 1)) - 1  # the last half makes the full mask, no cut
    chunk = 1 << 14
    for lo in range(0, halves, chunk):
        mask = np.arange(lo, min(halves, lo + chunk)) << 1 | 1  # vertex 0 always inside
        inside = ((mask >> np.arange(n)[:, None]) & 1).astype(bool)
        cut = np.zeros(len(mask))
        with np.errstate(over="ignore"):  # a cut past the largest double is inf, as in a float sum
            for (u, v), w in edges:
                cut += w * (inside[u] != inside[v])
        best = min(best, float(cut.min()))
    return best


def twin_classes(g: WeightedGraph, source: int, target: int) -> np.ndarray:
    """One class label per vertex, the classes numbered by their first
    member: u and v are twins when their rate rows agree, by exact float
    equality, at every x outside {u, v}, and ``source`` and ``target``
    are classes of their own.

    Twinship is transitive, and the members of a class meet each other at
    one rate c (0 when they are not adjacent), so a class is a set of
    equal rows of the rate matrix with c on the diagonal.  Twins also have
    equal sorted rows, so c only needs trying at 0 and at the rates of the
    edges whose ends have equal sorted rows.
    """
    if source == target:
        raise ValueError("source and target must differ")
    others = np.ones(g.n, dtype=bool)
    others[[source, target]] = False
    others = np.flatnonzero(others)
    rows = g.rate_matrix()[others]
    key = np.full(g.n, -1)
    key[others] = _row_groups(np.sort(rows, axis=1))[1]
    u, v = g.edge_array().T
    alike = (key[u] == key[v]) & (key[u] >= 0)
    inner = np.sort(np.append(g.weight_array()[alike], 0.0))  # the rates c to try
    label = np.arange(g.n)
    for c in inner[np.r_[True, inner[1:] != inner[:-1]]].tolist():
        rows[np.arange(len(others)), others] = c
        first, group = _row_groups(rows)
        # a vertex has twins at one rate c only, so the passes never disagree
        np.minimum.at(label, others, others[first[group]])
    return np.unique(label, return_inverse=True)[1]


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each group, group of each row) for the groups of
    equal rows.  Rows compare as bytes, which is float equality for rates
    and zeros (no -0.0, no NaN); ``np.unique(axis=0)`` is far slower."""
    flat = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, group = np.unique(flat.ravel(), return_index=True, return_inverse=True)
    return first, group


# ---------------------------------------------------------------------------
# Built-in graph families (used by the CLI and the acceptance scenarios)

def path_graph(n: int) -> WeightedGraph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    names = tuple(f"v{i}" for i in range(n))
    i = np.arange(n - 1)
    return WeightedGraph(names, np.column_stack([i, i + 1]), np.ones(n - 1))


def complete_graph(n: int) -> WeightedGraph:
    """K_n, its edges the pairs i < j in lexicographic order."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    names = tuple(f"v{i}" for i in range(n))
    return WeightedGraph(names, np.column_stack(np.triu_indices(n, 1)), np.ones(n * (n - 1) // 2))


def grid_graph(rows: int, cols: int) -> WeightedGraph:
    """The rows x cols grid, cells in row-major order; each cell's edge to
    its right, then its edge down."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least two vertices")
    names = tuple(f"v{r}_{c}" for r in range(rows) for c in range(cols))
    cell = np.arange(rows * cols)
    ends = np.column_stack([cell, cell + 1, cell, cell + cols]).reshape(-1, 2, 2)
    has = np.column_stack([cell % cols < cols - 1, cell < (rows - 1) * cols])
    return WeightedGraph(names, ends[has], np.ones(int(has.sum())))


def bridge_graph(c1: int, c2: int, bridge_rate: float) -> WeightedGraph:
    """Two unit-weight cliques joined by a single bridge edge of given rate:
    the first clique's pairs, then the second's, then the bridge from the
    last vertex of clique 1 to the first of clique 2."""
    if c1 < 1 or c2 < 1:
        raise ValueError("clique sizes must be >= 1")
    if not bridge_rate > 0:
        raise ValueError("bridge rate must be positive")
    names = tuple(f"a{i}" for i in range(c1)) + tuple(f"b{i}" for i in range(c2))
    ends = np.vstack([np.column_stack(np.triu_indices(c1, 1)),
                      c1 + np.column_stack(np.triu_indices(c2, 1)), [[c1 - 1, c1]]])
    weights = np.ones(len(ends))
    weights[-1] = bridge_rate
    return WeightedGraph(names, ends, weights)


def random_gnp_graph(n: int, p: float, weight_range: tuple[float, float],
                     rng: np.random.Generator) -> WeightedGraph:
    """Connected G(n,p) with uniform weights in ``weight_range``.  Each of
    up to 1000 attempts draws ``random(pairs) < p`` over the pairs i < j in
    lexicographic order, then, when enough edges came up to connect n
    vertices, one ``random(edges)`` for their weights."""
    if not 0 < p <= 1:  # p <= 0 never draws a connected graph for n >= 2
        raise ValueError(f"edge probability p must lie in (0, 1], got {p!r}")
    lo, hi = weight_range
    if not (0 < lo <= hi < math.inf):
        raise ValueError("weight range must be positive and finite")
    names = tuple(f"v{i}" for i in range(n))
    pairs = np.column_stack(np.triu_indices(n, 1))
    for _ in range(1000):
        present = rng.random(len(pairs)) < p
        if present.sum() < n - 1:  # too few edges to connect n vertices
            continue
        weights = lo + (hi - lo) * rng.random(int(present.sum()))
        try:
            return WeightedGraph(names, pairs[present], weights)
        except GraphValidationError:
            continue
    raise ValueError(f"could not sample a connected G({n},{p}) in 1000 tries")


FAMILIES = {
    "path": path_graph,
    "complete": complete_graph,
    "grid": grid_graph,
    "bridge": bridge_graph,
    "random_gnp": random_gnp_graph,
}
