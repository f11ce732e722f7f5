"""Reference first-passage samplers.

A heap-based Dijkstra, one run at a time in pure Python, with a
deterministic tie-break: among minimal-length paths the lexicographically
smallest vertex sequence wins, so the minimizing path (hence Xi) is a
function of the traversal times.  It shares no code with the numpy
lock-step kernel in ``fpplab.fpp`` and serves as its oracle in
``test_fpp.py`` and ``test_stats.py``.

``_lockstep_dijkstra`` is the lock-step kernel that read each settled
vertex's neighbours off a dense ``(n, n)`` edge table (``_edge_table``)
and relaxed all n columns a step, keeping predecessor vertices.
``test_fpp.py`` holds ``fpplab.fpp._lockstep_dijkstra``, which reads the
graph's CSR and keeps the edge each vertex was reached by, to it bit for
bit, through ``dijkstra_batch``.

``_lumped_block`` is the lumped-chain kernel that keeps every stage's
parent, slot and join time as it goes, with its own ``_pick`` that holds
the point below each row's total by ``np.nextafter``.  ``test_fpp.py``
holds ``fpplab.fpp._lumped_block``, which draws only the joining class in
its stage loop and works inside its uniform block, to it bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from fpplab.fpp import FppBatch, _along_path, _Lumped, sample_traversal
from fpplab.graphs import WeightedGraph
from fpplab.stats import TINY, blocks


@dataclass(frozen=True)
class FppResult:
    X: float
    path: tuple[int, ...]        # vertex sequence v' .. v''
    path_edges: tuple[int, ...]  # edge indices along the path
    Xi: float


def shortest_path(g: WeightedGraph, xi: np.ndarray, source: int, target: int) -> FppResult:
    """Dijkstra under edge lengths ``xi``, ties broken lexicographically."""
    if source == target:
        raise ValueError("source and target must differ")
    settled = set()
    heap = [(0.0, (source,))]
    while heap:
        dist, path = heapq.heappop(heap)
        v = path[-1]
        if v in settled:
            continue
        settled.add(v)
        if v == target:
            edges = tuple(g.edge_index(path[i], path[i + 1]) for i in range(len(path) - 1))
            return FppResult(X=dist, path=path, path_edges=edges,
                             Xi=max(float(xi[e]) for e in edges))
        for u, e in g.neighbors(v):
            if u not in settled:
                heapq.heappush(heap, (dist + float(xi[e]), path + (u,)))
    raise RuntimeError("target unreachable; connected graphs cannot get here")


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first index whose running total ``cum`` exceeds
    ``u`` times the row total, the point held below the total."""
    total = cum[:, -1]
    point = np.minimum(u * total, np.nextafter(total, 0.0))
    return (cum <= point[:, None]).sum(axis=1)


def _lumped_block(chain: _Lumped, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X, Xi and the path length of each run of the ``(k, n - 1, 4)``
    uniform block ``u``, one stage (one joining vertex) per step, every
    run in step.

    At stage i, class c joins at rate (size_c - count_c) * sum_d count_d
    w(d, c): ``u[:, i - 1, 0]`` gives the holding time -ln(u)/total,
    ``1`` the joining class, ``2`` its parent's class d, drawn with weight
    count_d w(d, c), and ``3`` the parent, uniform among the reached
    members of d.  A run's reached vertices are its stages, 0 the source,
    kept in per-class slots.  Once every vertex has joined, each run
    walks back from the target's stage to the source: X is the target's
    join time and Xi the largest join-time gap along the way.
    """
    k, stages = u.shape[0], u.shape[1] + 1
    rows = np.arange(k)
    count = np.zeros((k, len(chain.size)))
    count[:, chain.source] = 1.0
    free = chain.size - count
    pull = np.tile(chain.rate[chain.source], (k, 1))  # sum_d count_d w(d, c)
    slot = np.zeros((k, stages), dtype=np.intp)       # the stage in each slot
    parent = np.zeros((k, stages), dtype=np.intp)
    tau = np.zeros((k, stages))
    at_target = np.zeros(k, dtype=np.intp)
    now = np.zeros(k)
    for i in range(1, stages):
        draw = u[:, i - 1]
        cum = np.cumsum(free * pull, axis=1)
        now -= np.log(np.maximum(draw[:, 0], TINY)) / cum[:, -1]
        c = _pick(cum, draw[:, 1])
        d = _pick(np.cumsum(count * chain.rate[:, c].T, axis=1), draw[:, 2])
        reached = count[rows, d].astype(np.intp)
        j = np.minimum((draw[:, 3] * reached).astype(np.intp), reached - 1)
        parent[:, i] = slot[rows, chain.offset[d] + j]
        tau[:, i] = now
        slot[rows, chain.offset[c] + count[rows, c].astype(np.intp)] = i
        count[rows, c] += 1.0
        free[rows, c] -= 1.0
        pull += chain.rate[c]
        at_target[c == chain.target] = i
    X = tau[rows, at_target]
    Xi = np.zeros(k)
    path_len = np.zeros(k, dtype=np.int64)
    cur = at_target
    while cur.any():
        up = parent[rows, cur]
        np.maximum(Xi, tau[rows, cur] - tau[rows, up], out=Xi)
        path_len += cur != 0
        cur = up
    return X, Xi, path_len


def _edge_table(g: WeightedGraph) -> np.ndarray:
    """The ``(n, n)`` edge ids; pairs with no edge between them (the
    diagonal too) hold the pad id m."""
    table = np.full((g.n, g.n), g.m, dtype=np.intp)
    u, v = g.edge_array().T
    table[u, v] = table[v, u] = np.arange(g.m)
    return table


def _lockstep_dijkstra(table: np.ndarray, xi: np.ndarray, source: int,
                       target: int) -> tuple[np.ndarray, np.ndarray]:
    """Dijkstra from ``source`` on every row of the ``(k, m)`` block ``xi``
    at once.

    Each step settles, in every live run, the unsettled vertex of least key
    and relaxes its neighbours, read off its row of ``table``; a run leaves
    the working arrays once ``target`` settles.  The predecessors are then
    walked back with every run in step.  Returns X (k,) and the path edges
    (k, L), target first, each row padded by the pad id once its run
    reaches ``source``.  Exact ties go to the lowest vertex index.
    """
    if source == target:
        raise ValueError("source and target must differ")
    k, n = len(xi), len(table)
    X = np.empty(k)
    pred_out = np.empty((k, n), dtype=np.intp)
    live = np.arange(k)
    key = np.full((k, n), np.inf)
    key[:, source] = 0.0
    unsettled = np.ones((k, n), dtype=bool)
    pred = np.full((k, n), source, dtype=np.intp)  # source is its own predecessor
    m = xi.shape[1]
    adjacent = table != m
    column = np.where(adjacent, table, 0)  # any valid column where no edge is
    flat = xi.ravel()
    while len(live):
        v = key.argmin(axis=1)
        rows = np.arange(len(live))
        d = key[rows, v]
        done = v == target
        if done.any():
            X[live[done]] = d[done]
            pred_out[live[done]] = pred[done]
            keep = ~done
            live, v, d = live[keep], v[keep], d[keep]
            key, unsettled, pred = key[keep], unsettled[keep], pred[keep]
            rows = rows[:len(live)]
        key[rows, v] = np.inf
        unsettled[rows, v] = False
        cand = flat[live[:, None] * m + column[v]]
        cand += d[:, None]
        better = cand < key
        better &= unsettled
        better &= adjacent[v]
        np.copyto(key, cand, where=better)
        np.copyto(pred, v[:, None], where=better)
    # at source a run steps to itself, and the diagonal of table is the pad id
    rows = np.arange(k)
    cur = np.full(k, target, dtype=np.intp)
    edges = []
    while np.any(cur != source):
        p = pred_out[rows, cur]
        edges.append(table[p, cur])
        cur = p
    return X, np.column_stack(edges)


def dijkstra_batch(g: WeightedGraph, source: int, target: int, runs: int, seed) -> FppBatch:
    """``fpplab.fpp.sample_dijkstra_batch`` on the dense-table kernel: the
    same blocks, the same traversal times, and X, Xi and the path length
    read off the same path edges."""
    table = _edge_table(g)
    batch = FppBatch(X=np.empty(runs), Xi=np.empty(runs),
                     path_len=np.empty(runs, dtype=np.int64))
    for rng, part in blocks(seed, runs, g.m):
        xi = sample_traversal(g, rng, part.stop - part.start)
        batch.X[part], edges = _lockstep_dijkstra(table, xi, source, target)
        batch.Xi[part] = _along_path(xi, edges).max(axis=1)
        batch.path_len[part] = (edges != g.m).sum(axis=1)
    return batch
