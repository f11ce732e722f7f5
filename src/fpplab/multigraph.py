"""Poisson multigraph growth: edge copies arrive at rate w_e, and we track
how long until the multigraph packs k edge-disjoint spanning trees or
triangles.

Packing numbers never fall as copies arrive, so each stopping time is an
arrival time, and :func:`sample_stopping_times` reads it off a whole
block of runs at once, each run's first ``CHUNK`` arrivals being its row
of the block (:func:`fpplab.stats.blocks`), by a min-max formula:

* spanning trees: T_span(k) is the latest, over vertex partitions P with
  |P| >= 2, of the arrival that brings the copies crossing P to
  k(|P| - 1) (the tree-packing theorem; Nash-Williams 1961, Tutte 1961);
* triangles: T_tria(k) is the earliest, over k-multisets Q of base
  triangles, of the latest arrival of an edge's u_e(Q)-th copy, where
  u_e(Q) counts the triangles of Q on e.

The formulas run on tables of partitions and multisets built once per
batch; a run whose row leaves its largest k undecided reads ``CHUNK``
more arrivals at a time from its own stream and goes through them again.
The per-run forward pass of :func:`stopping_times`, the tests' oracle,
serves a kind whose tables pass ``TABLE_CELLS``, keeping its packing
state from one arrival to the next:

* spanning trees: a :class:`ForestUnion` of count + 1 edge-disjoint
  forests takes one matroid-union augmentation per arrival; when its rank
  reaches (count + 1)(n - 1) it grows one more forest;
* triangles: :class:`LiveTriangles` keeps the base triangles with copies
  on all three edges, and the branch and bound runs only after an arrival
  on one of them.

A triangle probe that runs out of branch-and-bound budget is counted and
makes the Proposition 2 check inconclusive; the block formulas are exact
and never leave one.  :func:`prop2_check` returns a plain dict, one of
the ``reports`` of the check's entry in ``report.json``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from .graphs import Multigraph, WeightedGraph
from .stats import (BAND_SIGMAS, MIN_RUNS, ROW_CELLS, RowStream, SampleStats, band_verdict,
                    blocks, exponential_in_place)


# ---------------------------------------------------------------------------
# Arrival stream

# Arrivals per row and per extension.  In 3 000 runs, K4's second spanning
# tree took at most 19 arrivals and K6's third triangle at most 35.
CHUNK = 64


def _arrival_law(g: WeightedGraph) -> tuple[float, np.ndarray]:
    """W, the total edge rate, and the cumulative distribution of w/W."""
    w = g.weight_array()
    total = float(w.sum())
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    return total, cdf


def _arrivals(u: np.ndarray, total: float, cdf: np.ndarray):
    """Superposition sampling from uniforms ``u`` of shape (..., 2, CHUNK):
    the first half becomes Exp(W) inter-arrival gaps -ln(u)/W summed into
    arrival times, in place; the second half picks each arrival's edge
    through ``cdf``.  Returns (times, edge ids in the smallest integers)."""
    times = exponential_in_place(u[..., 0, :], total)
    np.cumsum(times, axis=-1, out=times)
    edges = cdf.searchsorted(u[..., 1, :], side="right")
    return times, edges.astype(np.min_scalar_type(len(cdf)))


def _next_arrivals(rngs, law, last: np.ndarray):
    """The next ``CHUNK`` arrivals of each run, from ``random((2, CHUNK))`` of
    its generator or RowStream in ``rngs``, timed on from its ``last`` one."""
    times, edges = _arrivals(np.array([rng.random((2, CHUNK)) for rng in rngs]), *law)
    times += last[:, None]
    return times, edges


class MultigraphTrajectory:
    """The Poisson arrival stream of a base graph's edge copies, drawn on
    demand: ``times`` (strictly increasing) and ``edge_ids`` (the base
    edge of each arrival) are lists that :meth:`extend` grows in place by
    :func:`_next_arrivals` from ``rng``.  They start as ``times`` and
    ``edge_ids`` when given (a block row)."""

    def __init__(self, g: WeightedGraph, rng, times: list[float] | None = None,
                 edge_ids: list[int] | None = None, law=None):
        self.graph = g
        self.times: list[float] = [] if times is None else times
        self.edge_ids: list[int] = [] if edge_ids is None else edge_ids
        self._rng = rng
        self._law = _arrival_law(g) if law is None else law

    def extend(self) -> None:
        """Append the next ``CHUNK`` arrivals."""
        times, edges = _next_arrivals([self._rng], self._law, np.array(self.times[-1:] or [0.0]))
        self.times += times[0].tolist()
        self.edge_ids += edges[0].tolist()


# ---------------------------------------------------------------------------
# Spanning-tree packing (matroid union augmentation)

class _Forest:
    def __init__(self, n: int):
        self.adj: list[dict[int, int]] = [dict() for _ in range(n)]  # v -> {nbr: copy}

    def _path(self, u: int, v: int):
        """Copy ids on the tree path u..v, or None if disconnected."""
        adj = self.adj
        prev = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            for y, elem in adj[x].items():
                if y in prev:
                    continue
                prev[y] = (x, elem)
                if y == v:
                    out = []
                    while y != u:
                        y, elem = prev[y]
                        out.append(elem)
                    return out
                stack.append(y)
        return None

    def add(self, u: int, v: int, elem: int):
        self.adj[u][v] = elem
        self.adj[v][u] = elem

    def remove(self, u: int, v: int):
        del self.adj[u][v]
        del self.adj[v][u]


class ForestUnion:
    """Edge copies of a base graph packed into edge-disjoint forests: an
    independent set of the union of ``len(forests)`` graphic matroids,
    kept maximal as copies arrive by one BFS augmentation in the exchange
    graph per copy (Roskind & Tarjan 1985; Gabow & Westermann 1992).

    The packed set only grows, so a copy that fails to augment stays
    spanned by it, and ``rank`` is the union's rank on the copies added so
    far.  :meth:`grow` adds a forest and retries only the copies left out.
    A forest holds at most one copy of a base edge, so a copy of an edge
    packed once per forest is left out without a search.
    """

    def __init__(self, g: WeightedGraph, forests: int = 1):
        self.n = g.n
        self._edges = g.edge_array().tolist()
        self.forests = [_Forest(g.n) for _ in range(forests)]
        self.edge_of: list[int] = []    # per copy, in arrival order: its base edge
        self.where: list[int] = []      # per copy: its forest, or -1
        self.unpacked: list[int] = []   # the copies left out
        self.packed = [0] * g.m         # per base edge: its packed copies
        self.rank = 0

    @classmethod
    def of(cls, m: Multigraph, forests: int = 1) -> "ForestUnion":
        union = cls(m.base, forests)
        for e, count in enumerate(m.multiplicity):
            for _ in range(count):
                union.add(e)
        return union

    def add(self, e: int) -> bool:
        """Add one copy of base edge ``e``; True iff it raised the rank."""
        x = len(self.edge_of)
        self.edge_of.append(e)
        self.where.append(-1)
        if self._augment(x):
            return True
        self.unpacked.append(x)
        return False

    def grow(self) -> None:
        self.forests.append(_Forest(self.n))
        self.unpacked = [x for x in self.unpacked if not self._augment(x)]

    def _augment(self, x0: int) -> bool:
        edges, edge_of, where, forests = self._edges, self.edge_of, self.where, self.forests
        if self.packed[edge_of[x0]] == len(forests):
            return False
        came_from: dict[int, tuple[int, int]] = {}
        visited = {x0}
        queue = deque([x0])
        while queue:
            x = queue.popleft()
            xu, xv = edges[edge_of[x]]
            for i, forest in enumerate(forests):
                if where[x] == i:
                    continue
                circuit = forest._path(xu, xv)
                if circuit is None:
                    # x fits into forest i; unwind the eviction chain
                    cur, dest = x, i
                    while True:
                        cu, cv = edges[edge_of[cur]]
                        if where[cur] >= 0:
                            forests[where[cur]].remove(cu, cv)
                        forests[dest].add(cu, cv, cur)
                        where[cur] = dest
                        if cur == x0:
                            self.packed[edge_of[x0]] += 1
                            self.rank += 1
                            return True
                        cur, dest = came_from[cur]
                for c in circuit:
                    if c not in visited:
                        visited.add(c)
                        came_from[c] = (x, i)
                        queue.append(c)
        return False


def has_spanning_tree_packing(m: Multigraph | ForestUnion, k: int) -> bool:
    """True iff the copies contain k edge-disjoint spanning trees.  A
    ForestUnion must hold k forests; a Multigraph is fed to a fresh one."""
    union = m if isinstance(m, ForestUnion) else ForestUnion.of(m, k)
    return union.rank >= k * (union.n - 1)


# ---------------------------------------------------------------------------
# Triangle packing (branch and bound)

BNB_BUDGET = 10**6


@dataclass
class PackingCount:
    lower: int
    upper: int

    @property
    def certified(self) -> bool:
        return self.lower == self.upper


class LiveTriangles:
    """Copies per base edge, and the live triangles: the base triangles
    (:attr:`WeightedGraph.triangles`) with copies on all three edges, as
    edge-id triples in base order, kept as copies arrive.  ``leaving[i]``
    lists the edges of live triangle i that lie on no later one, and
    ``live_copies`` counts the copies on the edges of live triangles."""

    def __init__(self, g: WeightedGraph, multiplicity=None):
        self.base = g
        self.multiplicity = list(multiplicity) if multiplicity is not None else [0] * g.m
        mult = self.multiplicity
        self._live = [j for j, (a, b, c) in enumerate(g.triangles)
                      if mult[a] and mult[b] and mult[c]]
        self.triangles = [g.triangles[j] for j in self._live]
        self._index_last_edges()

    def _index_last_edges(self):
        last = {e: i for i, tri in enumerate(self.triangles) for e in tri}
        self.leaving = [[] for _ in self.triangles]
        for e, i in last.items():
            self.leaving[i].append(e)
        self.live_copies = sum(self.multiplicity[e] for e in last)

    def add(self, e: int) -> bool:
        """Add one copy of base edge ``e``; True iff ``e`` lies on a live
        triangle, the only arrivals that can raise the packing number."""
        mult = self.multiplicity
        mult[e] += 1
        base = self.base.triangles
        closes = False
        for j in self.base.edge_triangles[e]:
            a, b, c = base[j]
            if mult[a] and mult[b] and mult[c]:
                closes = True
                if mult[e] == 1:  # j just came alive
                    pos = bisect_left(self._live, j)
                    self._live.insert(pos, j)
                    self.triangles.insert(pos, base[j])
        if closes:
            if mult[e] == 1:
                self._index_last_edges()
            else:
                self.live_copies += 1
        return closes


def max_triangle_packing(m: Multigraph | LiveTriangles,
                         stop_at: int | None = None) -> PackingCount:
    """Maximum number of edge-disjoint triangles; the N_e copies of each
    edge count as disjoint edges.

    Branch and bound over the live triangles in base order, with a greedy
    lower bound and, at triangle i, the relaxation bound "copies on the
    edges of triangles i.. over 3", kept as a running sum that drops each
    edge after its last triangle.  If the search visits more than
    ``BNB_BUDGET`` nodes (read once per call), returns an uncertified
    (lower, upper) range whose upper end is the root's relaxation bound;
    with ``stop_at`` the search exits once the lower bound reaches it.
    """
    live = m if isinstance(m, LiveTriangles) else LiveTriangles(m.base, m.multiplicity)
    triples = live.triangles
    if not triples:
        return PackingCount(0, 0)
    budget = BNB_BUDGET
    mult = list(live.multiplicity)
    leaving = live.leaving
    root = live.live_copies

    best = _greedy_triangles(triples, mult)
    if stop_at is not None and best >= stop_at:
        return PackingCount(best, best)
    nodes = 0
    budget_hit = False

    def dfs(i: int, count: int, rest: int):
        # rest: copies on the edges of triples[i:], net of the takes so far
        nonlocal best, nodes, budget_hit
        nodes += 1
        if nodes > budget:
            budget_hit = True
            return
        if i == len(triples):
            best = max(best, count)
            return
        if count + rest // 3 <= best or (stop_at is not None and best >= stop_at):
            return
        e1, e2, e3 = triples[i]
        gone = leaving[i]  # edges of triangle i only, each losing every take
        after = rest
        for e in gone:
            after -= mult[e]
        stay = 3 - len(gone)
        most = min(mult[e1], mult[e2], mult[e3])
        for take in range(most, -1, -1):
            mult[e1] -= take
            mult[e2] -= take
            mult[e3] -= take
            dfs(i + 1, count + take, after - stay * take)
            mult[e1] += take
            mult[e2] += take
            mult[e3] += take
            if budget_hit or (stop_at is not None and best >= stop_at):
                return

    dfs(0, 0, root)
    if budget_hit and (stop_at is None or best < stop_at):
        return PackingCount(best, root // 3)
    return PackingCount(best, best)


def _greedy_triangles(triples, mult) -> int:
    work = list(mult)
    count = 0
    for e1, e2, e3 in triples:
        take = min(work[e1], work[e2], work[e3])
        work[e1] -= take
        work[e2] -= take
        work[e3] -= take
        count += take
    return count


def has_triangle_packing(m: Multigraph | LiveTriangles, k: int) -> bool | None:
    """True iff the copies pack k edge-disjoint triangles; None when the
    branch-and-bound budget runs out before that is decided."""
    pc = max_triangle_packing(m, stop_at=k)
    if pc.lower >= k:
        return True
    return None if pc.upper >= k else False


# ---------------------------------------------------------------------------
# Stopping times

KIND_PREDICATES = {
    "span": has_spanning_tree_packing,
    "tria": has_triangle_packing,
}


def stopping_times(traj: MultigraphTrajectory, ks: list[int], kind: str,
                   uncertified: Counter | None = None) -> dict[int, float]:
    """First times one run's multigraph packs k edge-disjoint spanning
    trees or triangles (``kind``), by one forward pass over the arrivals,
    extending the trajectory whenever it runs out: an arrival raises the
    packing number by at most one, so after each the predicate is asked
    for one more.  It serves a kind past the table cap, and the tests.

    The pass keeps its packing state across the arrivals: a
    :class:`ForestUnion` of count + 1 forests, or the
    :class:`LiveTriangles`.  The predicate is asked only after an arrival
    that can raise the packing number: a copy the union packed, or one on
    a live triangle.  A triangle probe left undecided by the
    branch-and-bound budget counts as "not yet"; when ``uncertified`` is
    given, it is counted there under ``(kind, k)`` for every k not reached
    before it.

    A base graph is connected, so every target is reached except
    triangles on a triangle-free base, which raises ValueError up front."""
    g = traj.graph
    targets = _targets(g, ks, (kind,))
    times, edge_ids = traj.times, traj.edge_ids
    pred = KIND_PREDICATES[kind]
    packing = ForestUnion(g) if kind == "span" else LiveTriangles(g)
    result: dict[int, float] = {}
    count = i = 0  # the first i arrivals pack exactly count
    for k in targets:
        while count < k:
            if i == len(edge_ids):
                traj.extend()
            i += 1
            if not packing.add(edge_ids[i - 1]):
                continue
            packs = pred(packing, count + 1)
            if packs:
                count += 1
                if kind == "span":
                    packing.grow()  # the next probe asks for one more tree
            elif packs is None and uncertified is not None:
                for later in targets:
                    if later > count:
                        uncertified[kind, later] += 1
        result[k] = times[i - 1]
    return result


def _targets(g: WeightedGraph, ks: list[int], kinds: tuple[str, ...]) -> list[int]:
    """The distinct ks in increasing order.  Raises ValueError for a k
    below 1, and for triangles on a triangle-free base, the one target a
    connected base never reaches."""
    if any(k < 1 for k in ks):
        raise ValueError("every k must be >= 1")
    if "tria" in kinds and not g.triangles:
        raise ValueError("a triangle-free graph never packs a triangle")
    return sorted(set(ks))


# ---------------------------------------------------------------------------
# Stopping times of a whole block, by the min-max formulas
#
# k spanning trees fit iff every vertex partition P with |P| >= 2 is
# crossed by at least k(|P| - 1) copies; k edge-disjoint triangles fit iff
# some k-multiset Q of base triangles finds, on every edge e, at least as
# many copies as its u_e(Q) triangles on e.  A run's row decides T(k) when
# the extremum is one of its arrivals; the kernels return the row length
# for the runs whose row leaves T(k) undecided.

# Cells of the tables that one batch builds for a kind, at most: the
# crossing matrix, or the slots of every multiset over the ks.  A kind
# whose tables would be larger samples by the forward pass alone.  A
# block's work grows with its table.  In 512-run batches the two paths
# took about as long on K8 spanning trees (115 892 cells), the block path
# was 4x slower on K9 (761 256 cells) and 2x faster on K6 triangles for
# k <= 4 (121 440 cells).
TABLE_CELLS = 1 << 17


def _bell(n: int, limit: int) -> int:
    """Bell(n), the number of set partitions of n vertices, or the first
    Bell number past ``limit`` when Bell(n) is larger (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        if row[-1] > limit:
            break
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _block_table(g: WeightedGraph, kind: str, targets: list[int]):
    """The tables of ``kind``'s block formula for ``targets``, or None when
    their cells, counted before anything is enumerated, pass
    ``TABLE_CELLS``."""
    if kind == "span":
        cells = (_bell(g.n, TABLE_CELLS // g.m + 1) - 1) * g.m  # past the cap iff Bell(n)'s is
    else:
        t = len(g.triangles)
        cells = sum(math.comb(t + k - 1, k) * min(3 * k, g.m) for k in targets)
    if cells > TABLE_CELLS:
        return None
    return _span_table(g) if kind == "span" else _tria_table(g, targets)


def _span_table(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(cross, need): the crossing matrix, 1 where base edge e crosses
    vertex partition P, (m, P), over the partitions with at least two
    parts, and each one's part count less one, (P,)."""
    labels = np.zeros((1, 1), dtype=np.intp)  # restricted growth strings
    for _ in range(g.n - 1):
        choices = labels.max(axis=1) + 2  # an old part, or a new one
        labels = np.repeat(labels, choices, axis=0)
        label = np.arange(len(labels)) - np.repeat(np.cumsum(choices) - choices, choices)
        labels = np.column_stack([labels, label])
    need = labels.max(axis=1)
    labels = labels[need > 0]
    u, v = g.edge_array().T
    return (labels[:, u] != labels[:, v]).T.astype(np.uint8), need[need > 0]


def _tria_table(g: WeightedGraph, targets: list[int]) -> tuple[dict[int, np.ndarray], int, int]:
    """(slots, levels, m): per k, the distinct (edge, level) slots of every
    k-multiset of base triangles, one column per multiset, (S, Q).  Slot
    e * levels + u - 1 stands for the u-th copy of edge e, where u is the
    number of the multiset's triangles on e; a multiset with fewer than S
    slots repeats its first."""
    levels = max(targets)
    slot = np.min_scalar_type(g.m * levels)
    none = np.iinfo(slot).max  # past every slot
    tri = np.array(g.triangles, dtype=slot)
    slots = {}
    for k in targets:
        count = math.comb(len(tri) + k - 1, k)
        multisets = np.fromiter(
            itertools.chain.from_iterable(
                itertools.combinations_with_replacement(range(len(tri)), k)),
            dtype=np.intp, count=count * k).reshape(count, k)
        edges = np.sort(tri[multisets].reshape(count, 3 * k), axis=1, kind="stable")
        top = np.ones(edges.shape, dtype=bool)  # an edge's last use in its row
        top[:, :-1] = edges[:, 1:] != edges[:, :-1]
        width = int(top.sum(axis=1).max())
        col = np.sort(np.where(top, edges * slot.type(levels) + _occurrence(edges), none),
                      axis=1, kind="stable")[:, :width]
        col = np.where(col == none, col[:, :1], col)
        slots[k] = np.ascontiguousarray(col.T)
    return slots, levels, g.m


def _occurrence(rows: np.ndarray) -> np.ndarray:
    """Per cell of row-sorted ``rows``, how many equal cells precede it in
    its row."""
    pos = np.arange(rows.shape[1], dtype=np.min_scalar_type(rows.shape[1]))
    start = np.zeros(rows.shape, dtype=pos.dtype)  # where each cell's run of equals starts
    start[:, 1:] = np.where(rows[:, 1:] != rows[:, :-1], pos[1:], 0)
    np.maximum.accumulate(start, axis=1, out=start)
    return pos - start


def _by_edge(edges: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each run's arrivals sorted by edge, then by arrival: the (edge,
    arrival index) of each cell, (B, C) each, in the smallest integers.
    A stable sort of small integers is a radix sort, whose code is a
    quarter of the default sort's; numpy's code pages count into the
    resident set."""
    c = edges.shape[1]
    key = edges.astype(np.min_scalar_type(m * c))
    key *= c
    key += np.arange(c, dtype=key.dtype)
    key.sort(axis=1, kind="stable")
    return np.divmod(key, c)


def _span_first(table, edges: np.ndarray, targets: list[int]) -> np.ndarray:
    """(len(targets), B): per k and run, the index of the arrival that
    completes k spanning trees, or the row length where the row never
    gets there.  That arrival is the latest over partitions P of the first
    at which k(|P| - 1) copies cross P, so it is also the first arrival
    after which every partition is crossed enough.  Each run bisects its
    row for it: one probe counts the run's copies per edge up to its probe
    arrival, (B, m), and multiplies them into the crossing matrix in
    integers (no BLAS, whose buffers would raise the resident set),
    partitions in chunks of (B, P) within ``ROW_CELLS``."""
    cross, need = table
    b, c = edges.shape
    m = len(cross)
    # where edge e's arrivals start in each run's sorted row, as a cell of
    # the (C + 1, B) prefix counts below: (m + 1, B)
    start = np.zeros((m + 1, b), dtype=np.intp)
    for e in range(m):
        start[e + 1] = start[e] + (edges == e).sum(axis=1)
    start = start * b + np.arange(b)
    order = np.ascontiguousarray(_by_edge(edges, m)[1].T)  # (C, B): sums run down the rows
    count = np.min_scalar_type(c + 1)  # copies in a row, and one more
    seen = np.zeros((c + 1, b), dtype=count)
    cross = cross.astype(count, copy=False)
    # the crossing copies that k trees need, capped at c + 1 (out of reach)
    goal = np.minimum(np.multiply.outer(targets, need), c + 1).astype(count)[..., None]
    step = max(1, ROW_CELLS // b)

    def packs(last: np.ndarray, j: int) -> np.ndarray:
        """Per run: do its arrivals up to ``last`` pack targets[j] trees?"""
        np.cumsum(order <= last, axis=0, dtype=count, out=seen[1:])
        at = seen.take(start)
        copies = at[1:] - at[:-1]  # (m, B)
        ok = np.ones(b, dtype=bool)
        for p0 in range(0, len(need), step):
            crossing = np.einsum("er,ep->pr", copies, cross[:, p0:p0 + step])
            ok &= (crossing >= goal[j, p0:p0 + step]).all(axis=0)
        return ok

    first = np.empty((len(targets), b), dtype=np.intp)
    lo = np.full(b, -1)  # an arrival that packs fewer than k trees, or -1
    for j in range(len(targets)):
        hi = np.where(packs(np.full(b, c - 1), j), c - 1, c)  # one that packs k, or c
        lo[hi == c] = c - 1  # undecided: nothing to search
        while (hi - lo > 1).any():
            mid = (lo + hi) // 2
            ok = packs(mid, j)
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid)
        first[j] = hi
        lo = hi  # an arrival adds at most one tree: T(k) < T(k + 1)
    return first


def _tria_first(table, edges: np.ndarray, targets: list[int]) -> np.ndarray:
    """(len(targets), B): per k and run, the index of the arrival that
    completes k triangles, the earliest over multisets of the latest
    arrival among their slots; the row length where the row never gets
    there.  Runs go in chunks whose copy arrivals fit ``ROW_CELLS``, and
    multisets in chunks of (Q, runs) within it."""
    slots, levels, m = table
    b, c = edges.shape
    first = np.full((len(targets), b), c, dtype=np.min_scalar_type(c))
    runs = max(1, min(b, ROW_CELLS // (m * levels)))
    step = max(1, ROW_CELLS // runs)
    for r0 in range(0, b, runs):
        arrival = _copy_arrivals(edges[r0:r0 + runs], m, levels)
        for j, k in enumerate(targets):
            best = first[j, r0:r0 + runs]
            for q0 in range(0, slots[k].shape[1], step):
                chunk = slots[k][:, q0:q0 + step]
                latest = arrival[chunk[0]]
                for row in chunk[1:]:
                    np.maximum(latest, arrival[row], out=latest)
                np.minimum(best, latest.min(axis=0), out=best)
    return first


def _copy_arrivals(edges: np.ndarray, m: int, levels: int) -> np.ndarray:
    """(m * levels, B): row e * levels + u - 1 holds, per run, the index of
    the arrival that brings edge e its u-th copy, or the row length when
    the row brings fewer."""
    b, c = edges.shape
    by_edge, order = _by_edge(edges, m)
    use = _occurrence(by_edge)
    keep = use < levels
    cell = np.min_scalar_type(m * levels * b)  # (slot, run) as slot * b + run
    slot_run = ((by_edge.astype(cell) * cell.type(levels) + use) * cell.type(b)
                + np.arange(b, dtype=cell)[:, None])
    arrival = np.full((m * levels, b), c, dtype=np.min_scalar_type(c))
    arrival.ravel()[slot_run[keep]] = order[keep]
    return arrival


BLOCK_FIRST = {
    "span": _span_first,
    "tria": _tria_first,
}


# ---------------------------------------------------------------------------
# a(k) and the Proposition 2 bounds

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def a_k_eval(k: int) -> float:
    """inf over q in (0,1] of q / (1 - (1-q^3)^k), by golden-section search
    on [1e-6, 1] down to a 1e-12 bracket.

    a(1) = 1 (boundary infimum of q^-2); for large k the minimizer is near
    k^(-1/3).
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def f(q: float) -> float:
        denom = -math.expm1(k * math.log1p(-q**3)) if q < 1.0 else 1.0
        return q / denom

    lo, hi = 1e-6, 1.0
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-12:
        if fc < fd:  # the minimum lies in [lo, d]
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:        # the minimum lies in [c, hi]
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return min(fc, fd, f(1.0))


SPAN_BOUND = lambda k: k ** -0.5
TRIA_BOUND = lambda k: math.sqrt(math.e / (math.e - 1.0)) * k ** (-1.0 / 6.0)


def sample_stopping_times(g: WeightedGraph, ks: list[int], runs: int, seed,
                          kinds: tuple[str, ...] = ("span", "tria"),
                          uncertified: Counter | None = None
                          ) -> dict[str, dict[int, np.ndarray]]:
    """Monte Carlo stopping times.  Block j draws ``random((B, 2, CHUNK))``,
    the first ``CHUNK`` arrivals of its B runs, turned into arrival times
    and edges for the whole block at once.  A kind whose tables fit
    (:func:`_block_table`) reads every run's stopping arrivals off its row
    by its min-max formula; a run whose row leaves its largest k undecided
    reads on from its :class:`fpplab.stats.RowStream` and goes through it
    again.  A kind past the cap runs the forward pass of
    :func:`stopping_times` on every run, from its row on through the same
    stream, counting undecided triangle probes into ``uncertified``."""
    targets = _targets(g, ks, kinds)
    tables = {kind: _block_table(g, kind, targets) for kind in kinds}
    past = [kind for kind in kinds if tables[kind] is None]
    out = {kind: {k: np.empty(runs) for k in ks} for kind in kinds}
    law = _arrival_law(g)
    for rng, part in blocks(seed, runs, 2 * CHUNK, ROW_CELLS):
        row_times, row_edges = _arrivals(rng.random((part.stop - part.start, 2, CHUNK)), *law)
        for kind in [kind for kind in kinds if kind not in past]:
            rows, times, edges, streams = np.arange(len(row_edges)), row_times, row_edges, {}
            while True:
                first = BLOCK_FIRST[kind](tables[kind], edges, targets)
                decided = first < edges.shape[1]
                for j, k in enumerate(targets):
                    done = np.flatnonzero(decided[j])
                    out[kind][k][part.start + rows[done]] = times[done, first[j, done]]
                late = np.flatnonzero(~decided[-1])
                if not len(late):
                    break
                rows, times, edges = rows[late], times[late], edges[late]
                streams = {r: streams.get(r) or RowStream(rng, r) for r in rows.tolist()}
                more, new = _next_arrivals(streams.values(), law, times[:, -1])
                times, edges = np.hstack([times, more]), np.hstack([edges, new])
        for r in range(len(row_edges)) if past else ():
            traj = MultigraphTrajectory(g, RowStream(rng, r), row_times[r].tolist(),
                                        row_edges[r].tolist(), law)
            for kind in past:
                for k, t in stopping_times(traj, targets, kind, uncertified).items():
                    out[kind][k][part.start + r] = t
    return out


def prop2_check(samples, k: int, kind: str = "span",
                gamma: float | None = None, uncertified: int = 0) -> dict:
    """Judge sampled stopping times: sd(T)/E T against the
    process-independent bound and, for spanning trees given the min-cut
    weight ``gamma``, E T >= k/gamma, each with a jackknife band.  With
    ``uncertified`` undecided packing probes behind the sample, some times
    may be late, so the check neither passes nor fails: it is
    inconclusive.

    The report holds ``kind``, ``k``, ``runs``, ``mean``, ``sd``,
    ``ratio`` (sd/mean), ``ratio_se``, ``bound`` (the ratio's), ``holds``,
    ``inconclusive`` and ``uncertified``, the triangle probes the branch
    and bound's budget left undecided.  ``mean_lower_bound`` (k/gamma),
    ``mean_se`` and ``mean_bound_holds`` are None but for spanning trees
    given ``gamma``."""
    if len(samples) < MIN_RUNS:
        raise ValueError(f"prop2_check needs at least {MIN_RUNS} runs")
    stats = SampleStats.from_samples(samples)
    bound = SPAN_BOUND(k) if kind == "span" else TRIA_BOUND(k)
    holds, inconclusive = band_verdict(stats.ratio, bound, BAND_SIGMAS * stats.ratio_se)
    rep = {"kind": kind, "k": k, "runs": len(samples), "mean": stats.mean, "sd": stats.sd,
           "ratio": stats.ratio, "ratio_se": stats.ratio_se, "bound": bound, "holds": holds,
           "inconclusive": inconclusive, "mean_lower_bound": None, "mean_se": None,
           "mean_bound_holds": None, "uncertified": 0}
    if kind == "span" and gamma is not None:
        mean_holds, mean_inconclusive = band_verdict(
            k / gamma, stats.mean, BAND_SIGMAS * stats.mean_se)
        rep.update(mean_lower_bound=k / gamma, mean_se=stats.mean_se,
                   mean_bound_holds=mean_holds, inconclusive=inconclusive or mean_inconclusive)
    if uncertified:
        rep.update(uncertified=uncertified, holds=True, inconclusive=True)
    return rep
