"""Poisson multigraph growth: edge copies arrive at rate w_e, and we track
how long until the multigraph packs k edge-disjoint spanning trees or
triangles.

Packing numbers change only at arrival instants, and by at most one per
arrival, so each stopping time is read off one forward pass over the
arrivals.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graphs import Multigraph, WeightedGraph
from .stats import BAND_SIGMAS, MIN_RUNS, SampleStats, band_verdict, spawn_seeds


# ---------------------------------------------------------------------------
# Arrival stream

@dataclass
class MultigraphTrajectory:
    graph: WeightedGraph
    times: np.ndarray      # strictly increasing arrival times
    edge_ids: np.ndarray   # which base edge arrived at each event
    horizon: float
    _next_time: float = field(repr=False, default=math.inf)  # first arrival past horizon
    _rng: np.random.Generator = field(repr=False, default=None)

    def extend(self, new_horizon: float) -> None:
        """Continue the same Poisson stream to a later horizon, resuming at
        the pending arrival beyond the old horizon (no redraws in the
        window already observed empty)."""
        if new_horizon <= self.horizon:
            return
        times, edges, nxt = _arrival_block(self.graph, new_horizon, self._rng,
                                           pending=self._next_time)
        self.times = np.concatenate([self.times, times])
        self.edge_ids = np.concatenate([self.edge_ids, edges])
        self.horizon = new_horizon
        self._next_time = nxt


def _arrival_block(g: WeightedGraph, t_end: float, rng: np.random.Generator,
                   pending: float):
    """Superposition sampling: global Exp(sum w) inter-arrivals continuing
    from the ``pending`` arrival, edges chosen proportional to w_e.
    Returns (times <= t_end, edges, first arrival beyond t_end)."""
    w = g.weight_array()
    total = float(w.sum())
    times = []
    t = pending
    while t <= t_end:
        times.append(t)
        t += rng.exponential(1.0 / total)
    k = len(times)
    # numpy's own Generator.choice(m, size=k, p=w/total) path, minus its
    # per-call validation of p: the same indices and the same stream after
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    edges = cdf.searchsorted(rng.random(k), side="right")
    return np.asarray(times), np.asarray(edges, dtype=np.int64), t


def simulate_arrivals(g: WeightedGraph, horizon: float,
                      rng: np.random.Generator) -> MultigraphTrajectory:
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    first = rng.exponential(1.0 / float(sum(g.weights)))
    times, edges, nxt = _arrival_block(g, horizon, rng, pending=first)
    return MultigraphTrajectory(graph=g, times=times, edge_ids=edges,
                                horizon=horizon, _next_time=nxt, _rng=rng)


# ---------------------------------------------------------------------------
# Spanning-tree packing (matroid union augmentation)

class _Forest:
    def __init__(self, n: int):
        self.adj: list[dict[int, int]] = [dict() for _ in range(n)]  # v -> {nbr: element}

    def _path(self, u: int, v: int):
        """Element ids on the tree path u..v, or None if disconnected."""
        prev = {u: (None, None)}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                out = []
                while x != u:
                    p, elem = prev[x]
                    out.append(elem)
                    x = p
                return out
            for y, elem in self.adj[x].items():
                if y not in prev:
                    prev[y] = (x, elem)
                    queue.append(y)
        return None

    def add(self, u: int, v: int, elem: int):
        self.adj[u][v] = elem
        self.adj[v][u] = elem

    def remove(self, u: int, v: int):
        del self.adj[u][v]
        del self.adj[v][u]


def _union_forest_rank(endpoints: list[tuple[int, int]], n: int, k: int,
                       stop_at: int | None = None) -> int:
    """Maximum number of edge copies packable into k edge-disjoint forests
    (rank of the k-fold graphic matroid union), by BFS augmentation in the
    exchange graph."""
    forests = [_Forest(n) for _ in range(k)]
    where: dict[int, int] = {}  # element -> forest index

    def try_augment(e0: int) -> bool:
        came_from: dict[int, tuple[int, int]] = {}
        visited = {e0}
        queue = deque([e0])
        while queue:
            x = queue.popleft()
            xu, xv = endpoints[x]
            for i in range(k):
                if where.get(x) == i:
                    continue
                circuit = forests[i]._path(xu, xv)
                if circuit is None:
                    # x fits into forest i; unwind the eviction chain
                    cur, dest = x, i
                    while True:
                        parent = came_from.get(cur)
                        cu, cv = endpoints[cur]
                        if cur in where:
                            forests[where[cur]].remove(cu, cv)
                        forests[dest].add(cu, cv, cur)
                        where[cur] = dest
                        if parent is None:
                            return True
                        nxt, dest = parent
                        cur = nxt
                    # unreachable
                for c in circuit:
                    if c not in visited:
                        visited.add(c)
                        came_from[c] = (x, i)
                        queue.append(c)
        return False

    # The packed set only grows, so an element that fails to augment stays
    # spanned by it: one pass over the elements finds the rank.
    rank = 0
    for e0 in range(len(endpoints)):
        if try_augment(e0):
            rank += 1
            if stop_at is not None and rank >= stop_at:
                return rank
    return rank


def has_spanning_tree_packing(m: Multigraph, k: int) -> bool:
    """True iff the multigraph contains k edge-disjoint spanning trees."""
    n = m.base.n
    need = k * (n - 1)
    if m.total_edges < need:
        return False
    endpoints = []
    for e, count in enumerate(m.multiplicity):
        u, v = m.base.edges[e]
        endpoints.extend([(u, v)] * count)
    return _union_forest_rank(endpoints, n, k, stop_at=need) >= need


def max_spanning_tree_packing(m: Multigraph) -> int:
    """Maximum number of edge-disjoint spanning trees, by incremental
    matroid-union augmentation (0 if the multigraph is disconnected)."""
    n = m.base.n
    if n <= 1:
        return 0
    k = 0
    while m.total_edges >= (k + 1) * (n - 1) and has_spanning_tree_packing(m, k + 1):
        k += 1
    return k


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


def max_triangle_packing(m: Multigraph, budget: int = BNB_BUDGET,
                         stop_at: int | None = None) -> PackingCount:
    """Maximum number of edge-disjoint triangles; the N_e copies of each
    edge count as disjoint edges.

    Branch and bound over the base graph's triangles whose three edges all
    have copies (:attr:`WeightedGraph.triangles`), with a greedy lower
    bound.  If the node budget runs out, returns an uncertified
    (lower, upper) range; with ``stop_at`` the search exits as soon as the
    lower bound reaches the target.
    """
    mult = list(m.multiplicity)
    triples = [t for t in m.base.triangles if mult[t[0]] and mult[t[1]] and mult[t[2]]]
    if not triples:
        return PackingCount(0, 0)

    # edges relevant per suffix of the triple list, for the relaxation bound
    suffix_edges = [set() for _ in range(len(triples) + 1)]
    for i in range(len(triples) - 1, -1, -1):
        suffix_edges[i] = suffix_edges[i + 1] | set(triples[i])

    best = _greedy_triangles(triples, mult)
    if stop_at is not None and best >= stop_at:
        return PackingCount(best, best)
    nodes = 0
    budget_hit = False
    upper_seen = best

    def relax(i: int) -> int:
        return sum(mult[e] for e in suffix_edges[i]) // 3

    def dfs(i: int, count: int):
        nonlocal best, nodes, budget_hit, upper_seen
        nodes += 1
        if nodes > budget:
            budget_hit = True
            upper_seen = max(upper_seen, count + relax(i))
            return
        if i == len(triples):
            best = max(best, count)
            return
        bound = count + relax(i)
        if bound <= best or (stop_at is not None and best >= stop_at):
            return
        e1, e2, e3 = triples[i]
        most = min(mult[e1], mult[e2], mult[e3])
        for take in range(most, -1, -1):
            mult[e1] -= take
            mult[e2] -= take
            mult[e3] -= take
            dfs(i + 1, count + take)
            mult[e1] += take
            mult[e2] += take
            mult[e3] += take
            if budget_hit or (stop_at is not None and best >= stop_at):
                return

    dfs(0, 0)
    if budget_hit and (stop_at is None or best < stop_at):
        return PackingCount(best, max(best, upper_seen))
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


def has_triangle_packing(m: Multigraph, k: int) -> bool:
    return max_triangle_packing(m, stop_at=k).lower >= k


# ---------------------------------------------------------------------------
# Stopping times

KIND_PREDICATES = {
    "span": has_spanning_tree_packing,
    "tria": has_triangle_packing,
}


def stopping_times(traj: MultigraphTrajectory, ks: list[int],
                   kinds: tuple[str, ...] = ("span", "tria"),
                   max_extensions: int = 60) -> dict[str, dict[int, float]]:
    """First times the multigraph packs k edge-disjoint spanning trees /
    triangles, by one forward pass over the arrivals per kind: an arrival
    raises the packing number by at most one, so after each the predicate
    is asked for one more.  The trajectory is extended (doubling the
    horizon) while it packs fewer than k; a graph that can never satisfy a
    kind (e.g. triangles on a triangle-free base) raises after
    ``max_extensions`` doublings."""
    if any(k < 1 for k in ks):
        raise ValueError("every k must be >= 1")
    g = traj.graph
    results: dict[str, dict[int, float]] = {}
    for kind in kinds:
        pred = KIND_PREDICATES[kind]
        results[kind] = {}
        mult = [0] * g.m
        count = i = 0  # the first i arrivals pack exactly count
        for k in sorted(ks):
            extensions = 0
            while count < k:
                if i == len(traj.times):
                    if extensions >= max_extensions:
                        raise RuntimeError(
                            f"{kind} packing never reached k={k}; is the target attainable?"
                        )
                    traj.extend(traj.horizon * 2.0)
                    extensions += 1
                    continue
                mult[traj.edge_ids[i]] += 1
                i += 1
                if pred(Multigraph(g, tuple(mult)), count + 1):
                    count += 1
            results[kind][k] = float(traj.times[i - 1])
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


def sample_stopping_times(g: WeightedGraph, ks: list[int], runs: int, seed,
                          kinds: tuple[str, ...] = ("span", "tria")
                          ) -> dict[str, dict[int, np.ndarray]]:
    """Monte Carlo stopping times, run i on the i-th substream of ``seed``
    (:func:`fpplab.stats.spawn_seeds`)."""
    w_total = sum(g.weights)
    horizon0 = max(4.0 * max(ks) / w_total, 1.0 / w_total)
    out = {kind: {k: np.empty(runs) for k in ks} for kind in kinds}
    for i, child in enumerate(spawn_seeds(seed, runs)):
        traj = simulate_arrivals(g, horizon0, np.random.default_rng(child))
        st = stopping_times(traj, ks, kinds=kinds)
        for kind in kinds:
            for k in ks:
                out[kind][k][i] = st[kind][k]
    return out


def prop2_check(samples, k: int, kind: str = "span",
                gamma: float | None = None) -> Prop2Report:
    """Judge sampled stopping times: sd(T)/E T against the
    process-independent bound and, for spanning trees given the min-cut
    weight ``gamma``, E T >= k/gamma, each with a jackknife band."""
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
    return rep
