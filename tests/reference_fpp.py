"""Reference first-passage solver: one run at a time, in pure Python.

A heap-based Dijkstra with a deterministic tie-break: among minimal-length
paths the lexicographically smallest vertex sequence wins, so the
minimizing path (hence Xi) is a function of the traversal times.  It
shares no code with the numpy lock-step kernel in ``fpplab.fpp`` and
serves as its oracle in ``test_fpp.py`` and ``test_stats.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from fpplab.graphs import WeightedGraph


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
