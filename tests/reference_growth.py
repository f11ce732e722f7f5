"""Reference growth simulator: rebuild the frontier after every arrival.

This is the straightforward event loop for Richardson growth on Z^2, and
the oracle of ``fpplab.growth``'s lock-step kernel in ``test_growth.py``.
Each step it recomputes the sorted frontier from the whole cluster,
re-rates every frontier site, counting its cluster neighbours afresh, and
picks the next site by a linear scan of the partial rate sums, so it
relies on none of the kernel's windows, counts, pads or reruns: on a run's
block row and then its row stream (``helpers.Replay``) both must return
the same float.  It reads ``random((2, GROWTH_ROW))`` at a time:
``GROWTH_ROW`` holding times -ln(u) / (total rate), then as many picks
u * (total rate).  Its cost grows as the square of the cluster, so the
tests give it few far runs.

That comparison cannot catch a wrong rate semantics, since both read the
rates the same way.  First passage percolation on Z^2 is the
independent law, sampled by a lazily drawn Dijkstra with no event loop:
when a site's rate depends on the site alone (``constant``,
``site_weighted``), Richardson growth is site FPP
(``site_fpp_hitting_time``); at ``neighbor_count``'s rate, base times the
cluster neighbours, it is bond FPP with Exp(base) bonds
(``bond_fpp_hitting_time``).

The coverage loop (``coverage_draws``) is the oracle of
``fpplab.growth.coverage_samples``, which reads a whole block's counts off
the graph's CSR by a min-max formula: it ORs in each draw's closed
neighbourhood, a bitmask, until all vertices are covered.
``coverage_samples`` runs it on each run's block row and then its row
stream, as the kernel must read them.
"""

from __future__ import annotations

import heapq
from itertools import accumulate

import numpy as np

from fpplab import growth
from fpplab.stats import RowStream, blocks
from helpers import Replay

_NBRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def frontier(cluster: set) -> list:
    out = set()
    for (x, y) in cluster:
        for dx, dy in _NBRS:
            v = (x + dx, y + dy)
            if v not in cluster:
                out.add(v)
    return sorted(out)


def growth_hitting_time(cfg, rng) -> float:
    cluster = {(0, 0)}
    t = 0.0
    events = iter(())
    while True:
        draw = next(events, None)
        if draw is None:
            u = rng.random((2, growth.GROWTH_ROW))
            events = zip((-np.log(np.maximum(u[0], np.nextafter(0.0, 1.0)))).tolist(),
                         u[1].tolist())
            draw = next(events)
        hold, u_pick = draw
        sites = frontier(cluster)
        rates = [cfg.rate(x, y, sum((x + dx, y + dy) in cluster for dx, dy in _NBRS))
                 for x, y in sites]
        for r in rates:
            if not (cfg.c_lo - 1e-12 <= r <= cfg.c_hi + 1e-12):
                raise ValueError(f"rate {r} escapes the stated bounds [{cfg.c_lo}, {cfg.c_hi}]")
        total = list(accumulate(rates))[-1]  # sequential, as sum() is not from Python 3.12
        t += hold / total
        pick = u_pick * total
        acc = 0.0
        chosen = sites[-1]
        for v, r in zip(sites, rates):
            acc += r
            if pick < acc:
                chosen = v
                break
        cluster.add(chosen)
        if chosen in cfg.target:
            return t


def site_fpp_hitting_time(cfg, rng) -> float:
    """The first passage time to ``cfg.target`` in site FPP: every site
    but the origin holds an Exp(rate at that site) passage time, and T(v)
    is T of its first reached neighbour plus v's own time.  Dijkstra pops
    sites in time order, so a site's time is drawn once, when it is first
    reached, and fixes T(v) there.  The rate is read at one cluster
    neighbour, so it must depend on the site alone."""
    heap, reached = [(0.0, (0, 0))], {(0, 0)}
    while True:
        t, (x, y) = heapq.heappop(heap)
        if (x, y) in cfg.target:
            return t
        for dx, dy in _NBRS:
            v = (x + dx, y + dy)
            if v not in reached:
                reached.add(v)
                heapq.heappush(heap, (t + rng.exponential(1.0 / cfg.rate(*v, 1)), v))


def bond_fpp_hitting_time(target, base: float, rng) -> float:
    """The first passage time to ``target`` in bond FPP with Exp(base)
    passage times: a bond's time is drawn when its first end is popped,
    the only time Dijkstra relaxes it."""
    heap, done = [(0.0, (0, 0))], set()
    while True:
        t, (x, y) = heapq.heappop(heap)
        if (x, y) in done:
            continue
        if (x, y) in target:
            return t
        done.add((x, y))
        for dx, dy in _NBRS:
            v = (x + dx, y + dy)
            if v not in done:
                heapq.heappush(heap, (t + rng.exponential(1.0 / base), v))


def closed_neighborhoods(n: int, edges) -> list[int]:
    """Each vertex's closed neighbourhood as a bitmask; the pairs ``edges``
    need not connect the n vertices (with none, coverage is the coupon
    collector)."""
    masks = [1 << v for v in range(n)]
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def coverage_draws(n: int, edges, rng) -> int:
    """Number of IID uniform vertex draws until every vertex lies in the
    closed neighborhood of the drawn set, ``random(COVERAGE_ROW)`` read at
    a time from ``rng`` as the vertices min(⌊u·n⌋, n - 1)."""
    nbhd = closed_neighborhoods(n, edges)
    full = (1 << n) - 1
    covered = t = 0
    while True:
        for u in rng.random(growth.COVERAGE_ROW).tolist():
            covered |= nbhd[min(int(u * n), n - 1)]
            t += 1
            if covered == full:
                return t


def coverage_samples(g, runs: int, seed) -> np.ndarray:
    """``runs`` counts of ``coverage_draws`` on ``g``, run i on row i % B of
    block i // B, then on its row stream."""
    out = np.empty(runs)
    edges = g.edge_array().tolist()
    for rng, part in blocks(seed, runs, growth.COVERAGE_ROW, growth.ROW_CELLS):
        rows = rng.random((part.stop - part.start, growth.COVERAGE_ROW))
        for r, row in enumerate(rows):
            out[part.start + r] = coverage_draws(g.n, edges, Replay(row, RowStream(rng, r)))
    return out
