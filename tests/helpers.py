"""Checks that only the tests call, kept out of the package.

``lemma2_bound`` is one cell of :func:`fpplab.chain.lemma2_grid`,
``max_identity_error`` reads the unit-drift identity off an
:class:`fpplab.chain.ExactSolution`, ``variance_by_first_step`` is a second
route to its moments, ``fed`` adds a multiplicity vector's edge copies to a
:class:`fpplab.multigraph.ForestUnion` or
:class:`fpplab.multigraph.LiveTriangles` one at a time,
``max_spanning_tree_packing`` counts trees with such a union, and
``validate_rate_monotone`` samples the growth condition of
:class:`fpplab.growth.GrowthConfig`'s rate.  ``adjacency`` and ``edge_ids``
read a graph's neighbours off its edge array alone, not its CSR, for the
pure-Python oracles, and ``edge_list_text`` writes a graph as the edge
list that :func:`fpplab.graphs.parse_edge_list` reads.
``Replay`` hands a run's block row to a reference simulator, then its own
stream.  ``traced_peak`` measures the memory a call allocates, and
``TUPLE_FAMILIES`` builds the graph families edge tuple by edge tuple, the
oracle of the array-built ones in :mod:`fpplab.graphs`.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np

from fpplab import chain
from fpplab.chain import ChainSpec, ExactSolution, lemma2_grid
from fpplab.graphs import GraphValidationError, WeightedGraph
from fpplab.multigraph import ForestUnion


def lemma2_bound(sol: ExactSolution, delta: float, epsilon: float) -> dict:
    """Lemma 2 at one (delta, epsilon); see ``lemma2_grid``."""
    return lemma2_grid(sol, [delta], [epsilon])[0]


def max_identity_error(sol: ExactSolution) -> float:
    """Worst deviation of the unit-drift identity b(S) = 1 over reachable
    non-target states, b(S) the sum over S's transitions of rate times
    h-decrement, added in transition order."""
    live = ~sol.is_target
    b = np.bincount(sol.src, sol.rate * sol.decrement, minlength=len(sol.states))
    return float(np.abs(b[live] - 1.0).max()) if live.any() else 0.0


def variance_by_first_step(spec: ChainSpec) -> tuple[float, float]:
    """Independent route to (E T, var T) of the rate chain: first-step
    recursions for the first and second moment of T.  Used to cross-check
    the occupation-measure variance."""
    def first_step(q, sum_h, sum_m2):
        # T = W + T' with W ~ Exp(q) independent of the jump target
        eh = sum_h / q
        return 1.0 / q + eh, 2.0 / q**2 + 2.0 * eh / q + sum_m2 / q

    h, m2 = chain._backward(chain._spec_chain(spec, "rate"), first_step, 2)
    return float(h[0]), float(m2[0] - h[0] ** 2)


def fed(packing, multiplicity):
    """``packing``, a fresh ForestUnion or LiveTriangles, after one
    ``add`` per edge copy, edge by edge in edge order."""
    for e, count in enumerate(multiplicity):
        for _ in range(count):
            packing.add(e)
    return packing


def max_spanning_tree_packing(g: WeightedGraph, multiplicity) -> int:
    """Maximum number of edge-disjoint spanning trees in the multigraph of
    ``multiplicity`` copies of g's edges (0 if it is disconnected): one
    union, grown while all its forests span."""
    if g.n <= 1:
        return 0
    union = fed(ForestUnion(g), multiplicity)
    while union.rank == len(union.forests) * (g.n - 1):
        union.grow()
    return len(union.forests) - 1


def adjacency(g: WeightedGraph) -> list[list[tuple[int, int]]]:
    """Per vertex, its ``(neighbour, edge id)`` pairs in increasing
    neighbour order, read off the edge array alone."""
    adj = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edge_array().tolist()):
        adj[u].append((v, e))
        adj[v].append((u, e))
    return [sorted(row) for row in adj]


def edge_ids(g: WeightedGraph) -> dict[tuple[int, int], int]:
    """The edge id of each ordered vertex pair ``(u, v)`` joined by an
    edge, both ways round, read off the edge array alone."""
    ends = g.edge_array().tolist()
    return {**{(u, v): e for e, (u, v) in enumerate(ends)},
            **{(v, u): e for e, (u, v) in enumerate(ends)}}


def edge_list_text(g: WeightedGraph) -> str:
    """g as edge-list text, one ``u v w`` line per edge in edge order, the
    vertex names and ``repr`` of each weight."""
    names = g.vertices
    return "".join(f"{names[u]} {names[v]} {w!r}\n"
                   for (u, v), w in zip(g.edge_array().tolist(), g.weight_array().tolist()))


class RateMonotonicityError(ValueError):
    """The supplied rate function decreases when the cluster grows."""


def validate_rate_monotone(rate, rng: np.random.Generator) -> None:
    """Sampled check, at 200 random lattice sites, of the growth condition:
    the rate ``rate(x, y, k)`` of a site never falls as its cluster
    neighbour count k rises from 1 to 4.  Raises on a violation."""
    for x, y in rng.integers(-20, 21, (200, 2)).tolist():
        before = rate(x, y, 1)
        for k in range(2, 5):
            after = rate(x, y, k)
            if after < before - 1e-12:
                raise RateMonotonicityError(
                    f"rate at {(x, y)} dropped from {before} to {after} at {k} cluster neighbours"
                )
            before = after


class Replay:
    """A generator stand-in that hands out one recorded row first, then
    reads on from ``rest``: a row sampler's run i reads its block row, then
    its :class:`fpplab.stats.RowStream`."""

    def __init__(self, row, rest):
        self.row, self.rest = row, rest

    def random(self, shape):
        row, self.row = self.row, None
        if row is not None:
            assert row.shape == tuple(np.atleast_1d(shape))
            return row.copy()
        return self.rest.random(shape)


def traced_peak(f):
    """f's result, the peak of the memory it allocates and the part of it
    still held when f returns, in bytes (tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        held, peak = tracemalloc.get_traced_memory()
        return out, peak - base, held - base
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# The built-in graph families on valid arguments, built from Python edge
# tuples, in the same edge order and from the same draws

def _path(n):
    names = tuple(f"v{i}" for i in range(n))
    edges = tuple((i, i + 1) for i in range(n - 1))
    return WeightedGraph(names, edges, (1.0,) * (n - 1))


def _complete(n):
    names = tuple(f"v{i}" for i in range(n))
    edges = tuple(itertools.combinations(range(n), 2))
    return WeightedGraph(names, edges, (1.0,) * len(edges))


def _grid(rows, cols):
    names = tuple(f"v{r}_{c}" for r in range(rows) for c in range(cols))
    idx = lambda r, c: r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
    edges = tuple(tuple(sorted(e)) for e in edges)
    return WeightedGraph(names, edges, (1.0,) * len(edges))


def _bridge(c1, c2, bridge_rate):
    names = tuple(f"a{i}" for i in range(c1)) + tuple(f"b{i}" for i in range(c2))
    edges, weights = [], []
    for i in range(c1):
        for j in range(i + 1, c1):
            edges.append((i, j))
            weights.append(1.0)
    for i in range(c2):
        for j in range(i + 1, c2):
            edges.append((c1 + i, c1 + j))
            weights.append(1.0)
    edges.append((c1 - 1, c1))
    weights.append(float(bridge_rate))
    return WeightedGraph(names, tuple(edges), tuple(weights))


def _random_gnp(n, p, weight_range, rng):
    lo, hi = weight_range
    names = tuple(f"v{i}" for i in range(n))
    pairs = np.column_stack(np.triu_indices(n, 1))
    for _ in range(1000):
        present = rng.random(len(pairs)) < p
        if present.sum() < n - 1:
            continue
        weights = lo + (hi - lo) * rng.random(int(present.sum()))
        try:
            return WeightedGraph(names, tuple(map(tuple, pairs[present].tolist())),
                                 tuple(weights.tolist()))
        except GraphValidationError:
            continue
    raise ValueError(f"could not sample a connected G({n},{p}) in 1000 tries")


TUPLE_FAMILIES = {
    "path": _path,
    "complete": _complete,
    "grid": _grid,
    "bridge": _bridge,
    "random_gnp": _random_gnp,
}
