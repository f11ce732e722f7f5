"""Poisson multigraph growth: edge copies arrive at rate w_e, and we track
how long until the multigraph packs k edge-disjoint spanning trees or
triangles.

Packing numbers change only at arrival instants, and by at most one per
arrival, so each stopping time is read off one forward pass over the
arrivals.  A run's first ``CHUNK`` arrivals are its row of a block
(:func:`fpplab.stats.blocks`); the pass draws ``CHUNK`` more at a time
from the run's own stream only when it outlives them.  The pass keeps its
packing state from one arrival to the next and never rebuilds the
multigraph:

* spanning trees: a :class:`ForestUnion` of count + 1 edge-disjoint
  forests takes one matroid-union augmentation per arrival; when its rank
  reaches (count + 1)(n - 1) it grows one more forest;
* triangles: :class:`LiveTriangles` keeps the base triangles with copies
  on all three edges, and the branch and bound runs only after an arrival
  on one of them.

A triangle probe that runs out of branch-and-bound budget is counted and
makes the Proposition 2 check inconclusive.
"""

from __future__ import annotations

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
    through ``cdf``.  Returns (times, edge ids)."""
    times = exponential_in_place(u[..., 0, :], total)
    np.cumsum(times, axis=-1, out=times)
    return times, cdf.searchsorted(u[..., 1, :], side="right")


class MultigraphTrajectory:
    """The Poisson arrival stream of a base graph's edge copies, drawn on
    demand: ``times`` (strictly increasing) and ``edge_ids`` (the base
    edge of each arrival) are lists that :meth:`extend` grows in place.
    They start as ``times`` and ``edge_ids`` when given (a block row), and
    every extension reads ``random((2, CHUNK))`` from ``rng``, a generator
    or a :class:`fpplab.stats.RowStream`."""

    def __init__(self, g: WeightedGraph, rng, times: list[float] | None = None,
                 edge_ids: list[int] | None = None, law=None):
        self.graph = g
        self.times: list[float] = [] if times is None else times
        self.edge_ids: list[int] = [] if edge_ids is None else edge_ids
        self._rng = rng
        self._total, self._cdf = _arrival_law(g) if law is None else law

    def extend(self) -> None:
        """Append the next ``CHUNK`` arrivals, their times summed onto the
        last arrival time."""
        times, edges = _arrivals(self._rng.random((2, CHUNK)), self._total, self._cdf)
        times += self.times[-1] if self.times else 0.0
        self.times += times.tolist()
        self.edge_ids += edges.tolist()


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
        self._edges = g.edges
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


def max_spanning_tree_packing(m: Multigraph) -> int:
    """Maximum number of edge-disjoint spanning trees (0 if the multigraph
    is disconnected): one union, grown while all its forests span."""
    n = m.base.n
    if n <= 1:
        return 0
    union = ForestUnion.of(m)
    while union.rank == len(union.forests) * (n - 1):
        union.grow()
    return len(union.forests) - 1


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


def stopping_times(traj: MultigraphTrajectory, ks: list[int],
                   kinds: tuple[str, ...] = ("span", "tria"),
                   uncertified: Counter | None = None) -> dict[str, dict[int, float]]:
    """First times the multigraph packs k edge-disjoint spanning trees /
    triangles, by one forward pass over the arrivals per kind: an arrival
    raises the packing number by at most one, so after each the predicate
    is asked for one more.  The pass extends the trajectory whenever it
    runs out of arrivals.

    Each kind keeps its packing state across the arrivals: a
    :class:`ForestUnion` of count + 1 forests, or the
    :class:`LiveTriangles`.  The predicate is asked only after an arrival
    that can raise the packing number: a copy the union packed, or one on
    a live triangle.  A triangle probe left undecided by the
    branch-and-bound budget counts as "not yet"; when ``uncertified`` is
    given, it is counted there under ``(kind, k)`` for every k not reached
    before it.

    A base graph is connected, so every target is reached except
    triangles on a triangle-free base, which raises ValueError up front."""
    if any(k < 1 for k in ks):
        raise ValueError("every k must be >= 1")
    g = traj.graph
    if "tria" in kinds and not g.triangles:
        raise ValueError("a triangle-free graph never packs a triangle")
    targets = sorted(set(ks))
    times, edge_ids = traj.times, traj.edge_ids
    results: dict[str, dict[int, float]] = {}
    for kind in kinds:
        pred = KIND_PREDICATES[kind]
        packing = ForestUnion(g) if kind == "span" else LiveTriangles(g)
        results[kind] = {}
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
            results[kind][k] = times[i - 1]
    return results


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


@dataclass
class Prop2Report:
    kind: str
    k: int
    runs: int
    mean: float
    sd: float
    ratio: float
    ratio_se: float
    bound: float
    holds: bool
    inconclusive: bool
    mean_lower_bound: float | None = None   # k / gamma, spanning trees only
    mean_se: float | None = None
    mean_bound_holds: bool | None = None
    uncertified: int = 0  # triangle probes the branch-and-bound budget left undecided


def sample_stopping_times(g: WeightedGraph, ks: list[int], runs: int, seed,
                          kinds: tuple[str, ...] = ("span", "tria"),
                          uncertified: Counter | None = None
                          ) -> dict[str, dict[int, np.ndarray]]:
    """Monte Carlo stopping times; undecided triangle probes are counted
    into ``uncertified`` as in :func:`stopping_times`.  Block j draws
    ``random((k, 2, CHUNK))``, the first ``CHUNK`` arrivals of its k runs,
    turned into arrival times and edges for the whole block at once."""
    out = {kind: {k: np.empty(runs) for k in ks} for kind in kinds}
    law = _arrival_law(g)
    for rng, part in blocks(seed, runs, 2 * CHUNK, ROW_CELLS):
        times, edges = _arrivals(rng.random((part.stop - part.start, 2, CHUNK)), *law)
        for r, (t, e) in enumerate(zip(times, edges)):
            traj = MultigraphTrajectory(g, RowStream(rng, r), t.tolist(), e.tolist(), law)
            st = stopping_times(traj, ks, kinds=kinds, uncertified=uncertified)
            for kind in kinds:
                for k in ks:
                    out[kind][k][part.start + r] = st[kind][k]
    return out


def prop2_check(samples, k: int, kind: str = "span",
                gamma: float | None = None, uncertified: int = 0) -> Prop2Report:
    """Judge sampled stopping times: sd(T)/E T against the
    process-independent bound and, for spanning trees given the min-cut
    weight ``gamma``, E T >= k/gamma, each with a jackknife band.  With
    ``uncertified`` undecided packing probes behind the sample, some times
    may be late, so the check neither passes nor fails: it is
    inconclusive."""
    if len(samples) < MIN_RUNS:
        raise ValueError(f"prop2_check needs at least {MIN_RUNS} runs")
    stats = SampleStats.from_samples(samples)
    bound = SPAN_BOUND(k) if kind == "span" else TRIA_BOUND(k)
    holds, inconclusive = band_verdict(stats.ratio, bound, BAND_SIGMAS * stats.ratio_se)
    rep = Prop2Report(kind=kind, k=k, runs=len(samples), mean=stats.mean,
                      sd=stats.sd, ratio=stats.ratio, ratio_se=stats.ratio_se,
                      bound=bound, holds=holds, inconclusive=inconclusive)
    if kind == "span" and gamma is not None:
        mean_holds, mean_inconclusive = band_verdict(
            k / gamma, stats.mean, BAND_SIGMAS * stats.mean_se)
        rep.mean_lower_bound = k / gamma
        rep.mean_se = stats.mean_se
        rep.mean_bound_holds = mean_holds
        rep.inconclusive = inconclusive or mean_inconclusive
    if uncertified:
        rep.uncertified = uncertified
        rep.holds = rep.inconclusive = True
    return rep
