"""First passage percolation on a weighted graph.

Traversal times are independent Exponential(rate w_e).  The percolation
time X(v', v'') is the shortest-path length under those times, Xi is the
largest single-edge time on the minimizing path, and the whole model can
be recast as an increasing subset-valued chain solved exactly by
:mod:`fpplab.chain`.  That chain has one rate rule, its ``expand``: the
rates w(S, y) of a whole popcount layer come from one 0/1 product with the
rate matrix, and ``transitions`` reads them off a one-state layer.  A
plain-Python per-state rule in ``tests/reference_chain.py`` is the
reference the tests hold it to, bit for bit.

Monte Carlo runs come in blocks: block j of a batch draws its uniforms from
``default_rng(spawn_seeds(seed, n_blocks)[j])``, one row per run, and run i
is row ``i % B`` of block ``i // B``.  ``B`` is the largest power of two up
to 1024 with ``B * m <= 2**20``, so a block never holds more than 2**20
traversal times.  ``Generator.random`` fills row-major, so a block of k
rows is the first k rows of a full one: a shorter batch is a prefix of a
longer one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ABS_TOL, ChainSpec, ExactSolution
from .graphs import EXACT_CAP, CapacityError, WeightedGraph
from .stats import BAND_SIGMAS, band_verdict, spawn_seeds

_BLOCK_CELLS = 1 << 20   # traversal times per block, at most
_BLOCK_RUNS = 1024       # runs per block, at most
_TINY = np.nextafter(0.0, 1.0)  # the smallest positive double


def traversal_from_uniform(u, w):
    """Inverse-transform map: xi = -ln(u)/w turns Uniform[0,1) draws into
    Exponential(rate w) traversal times.  A draw u == 0 (probability 2**-53)
    reads as the smallest positive double, so xi stays finite and strictly
    positive without consuming another draw."""
    return _traversal_in_place(np.array(u, dtype=float), w)


def _traversal_in_place(u: np.ndarray, w) -> np.ndarray:
    """:func:`traversal_from_uniform`, overwriting ``u``: a block of 2**20
    times costs 8 MB, so the draw makes no temporary copies."""
    np.maximum(u, _TINY, out=u)
    np.log(u, out=u)
    u /= -w
    return u


def sample_traversal(g: WeightedGraph, rng: np.random.Generator, runs: int) -> np.ndarray:
    """A ``(runs, m)`` block of traversal times, independent Exp(w_e) per
    edge, one row per run."""
    return _traversal_in_place(rng.random((runs, g.m)), g.weight_array())


# ---------------------------------------------------------------------------
# Lock-step Dijkstra over a block of runs (cross-checked in the tests against
# a one-run-at-a-time pure-Python Dijkstra)

def _block_runs(m: int) -> int:
    """B: the largest power of two up to 1024 with B * m <= 2**20."""
    b = _BLOCK_RUNS
    while b > 1 and b * m > _BLOCK_CELLS:
        b //= 2
    return b


def _blocks(seed, runs: int, m: int):
    """(generator, run slice) for each block of a ``runs``-run batch."""
    b = _block_runs(m)
    for j, child in enumerate(spawn_seeds(seed, -(-runs // b))):
        yield np.random.default_rng(child), slice(j * b, min(runs, (j + 1) * b))


def _edge_table(g: WeightedGraph) -> np.ndarray:
    """The ``(n, n)`` edge ids; pairs with no edge between them (the
    diagonal too) hold the pad id m."""
    table = np.full((g.n, g.n), g.m, dtype=np.intp)
    u, v = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    table[u, v] = table[v, u] = np.arange(g.m)
    return table


def _along_path(times: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``times`` (k, m) read along each run's path edges, the pad id as 0."""
    pad = edges == times.shape[1]
    return np.where(pad, 0.0, np.take_along_axis(times, np.where(pad, 0, edges), axis=1))


def _lockstep_dijkstra(table: np.ndarray, xi: np.ndarray, source: int,
                       target: int) -> tuple[np.ndarray, np.ndarray]:
    """Dijkstra from ``source`` on every row of the ``(k, m)`` block ``xi``
    at once.

    Each step settles, in every live run, the unsettled vertex of least key
    and relaxes its neighbours, read off its row of ``table``; a run leaves
    the working arrays once ``target`` settles.  The predecessors are then
    walked back with every run in step.  Returns X (k,) and the path edges
    (k, L), target first, each row padded by the pad id once its run
    reaches ``source``.  Exact ties (probability zero under continuous
    times) go to the lowest vertex index.
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


@dataclass
class FppBatch:
    X: np.ndarray
    Xi: np.ndarray
    path_len: np.ndarray

    def rows(self):
        for i in range(len(self.X)):
            yield i, float(self.X[i]), float(self.Xi[i]), int(self.path_len[i])


def sample_fpp_batch(g: WeightedGraph, source: int, target: int, runs: int,
                     seed) -> FppBatch:
    """``runs`` independent FPP realizations on the block streams of
    ``seed`` (see the module docstring), one lock-step Dijkstra per block."""
    table = _edge_table(g)
    batch = FppBatch(X=np.empty(runs), Xi=np.empty(runs),
                     path_len=np.empty(runs, dtype=np.int64))
    for rng, part in _blocks(seed, runs, g.m):
        xi = sample_traversal(g, rng, part.stop - part.start)
        batch.X[part], edges = _lockstep_dijkstra(table, xi, source, target)
        batch.Xi[part] = _along_path(xi, edges).max(axis=1)
        batch.path_len[part] = (edges != g.m).sum(axis=1)
        del xi  # let the next block reuse this one's memory
    return batch


# ---------------------------------------------------------------------------
# Subset-chain formulation

def fpp_chain_spec(g: WeightedGraph, source: int, target: int) -> ChainSpec:
    """The reached-vertex-set chain: from S, vertex y joins at aggregate
    rate w(S, y) = sum of rates of frontier edges into y.  ``expand`` is
    the one rate rule; ``transitions`` reads it off one state at a time."""
    if g.n > EXACT_CAP:
        raise CapacityError(f"|V|={g.n} exceeds exact-solver cap {EXACT_CAP}")
    if source == target:
        raise ValueError("source and target must differ")
    target_bit = 1 << target
    weight = np.append(g.weight_array(), 0.0)[_edge_table(g)]
    bit = np.int64(1) << np.arange(g.n, dtype=np.int64)

    def expand(masks: np.ndarray):
        member = (masks[:, None] & bit) != 0
        is_target = member[:, target]
        live = np.flatnonzero(~is_target)
        inside = member[live]
        # w(S, y) for the whole layer as one 0/1 product.  einsum, which
        # calls no BLAS, adds the members' rows in increasing member order
        # whatever the layer's size; a BLAS ``@`` reorders the sums on some
        # CPUs and layer shapes, which moves their last bits.
        rates = np.einsum("ls,sy->ly", inside.astype(float), weight)
        rates[inside] = 0.0
        row, y = np.nonzero(rates)
        return is_target, live[row], masks[live[row]] | bit[y], rates[row, y]

    def transitions(mask: int):
        _, _, successors, rate = expand(np.array([mask], dtype=np.int64))
        return list(zip(successors.tolist(), rate.tolist()))

    return ChainSpec(
        initial=1 << source,
        transitions=transitions,
        is_target=lambda mask: bool(mask & target_bit),
        expand=expand,
    )


@dataclass
class Prop4Report:
    var_T: float
    E_T: float
    w_min: float
    bound: float
    holds: bool


def prop4_check(sol: ExactSolution, g: WeightedGraph) -> Prop4Report:
    """var X <= E X / w_min, with w_min the smallest edge rate."""
    w_min = g.min_weight()
    bound = sol.E_T / w_min
    return Prop4Report(var_T=sol.var_T, E_T=sol.E_T, w_min=w_min, bound=bound,
                       holds=sol.var_T <= bound + ABS_TOL)


# ---------------------------------------------------------------------------
# Resampling coupling: redraw the traversal times falling in [a, b]

@dataclass
class CouplingBatch:
    X: np.ndarray
    X_prime: np.ndarray
    # per run, the right side of the pathwise bound X' - X <= sum over D_ab
    # of (xi' - xi), D_ab the base path's edges with xi in [a, b]
    increment_bound: np.ndarray


def conditioned_exponential(w, a: float, b: float, u):
    """Inverse-CDF draw of Exponential(w) conditioned to [a, b]; exact, no
    rejection loop.  Elementwise over arrays ``w`` and ``u``."""
    sa = np.exp(-w * a)
    sb = np.exp(-w * b)
    return -np.log(sa - u * (sa - sb)) / w


def coupled_resample(g: WeightedGraph, u: np.ndarray, a: float, b: float,
                     source: int, target: int):
    """Couple a block of traversal times xi with copies xi' that agree off
    [a, b] and redraw the times in [a, b] from the conditioned exponential
    law.  ``u`` is a ``(k, 2, m)`` block of uniforms: ``u[:, 0]`` gives xi,
    ``u[:, 1]`` the redraws.  Returns xi, xi' and the runs' CouplingBatch."""
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    w = g.weight_array()
    xi = traversal_from_uniform(u[:, 0], w)
    inside = (a <= xi) & (xi <= b)
    xi_prime = np.where(inside, conditioned_exponential(w, a, b, u[:, 1]), xi)
    table = _edge_table(g)
    X, edges = _lockstep_dijkstra(table, xi, source, target)
    X_prime, _ = _lockstep_dijkstra(table, xi_prime, source, target)
    increment = _along_path(np.where(inside, xi_prime - xi, 0.0), edges).sum(axis=1)
    return xi, xi_prime, CouplingBatch(X=X, X_prime=X_prime, increment_bound=increment)


def sample_coupling_batch(g: WeightedGraph, source: int, target: int, runs: int,
                          seed, a: float, b: float) -> CouplingBatch:
    """``runs`` coupled pairs on the block streams of ``seed``: block j draws
    ``random((k, 2, m))`` for :func:`coupled_resample`."""
    batch = CouplingBatch(X=np.empty(runs), X_prime=np.empty(runs),
                          increment_bound=np.empty(runs))
    for rng, part in _blocks(seed, runs, g.m):
        u = rng.random((part.stop - part.start, 2, g.m))
        _, _, block = coupled_resample(g, u, a, b, source, target)
        batch.X[part], batch.X_prime[part] = block.X, block.X_prime
        batch.increment_bound[part] = block.increment_bound
    return batch


def submultiplicativity_probe(samples: np.ndarray, y1: float, y2: float) -> dict:
    """Empirical tails against P(X > y1+y2) <= P(X > y1) P(X > y2), judged
    by :func:`band_verdict` on a ``BAND_SIGMAS`` binomial band."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    p12 = float(np.mean(samples > y1 + y2))
    p1 = float(np.mean(samples > y1))
    p2 = float(np.mean(samples > y2))
    var12 = p12 * (1 - p12) / n
    var1 = p1 * (1 - p1) / n
    var2 = p2 * (1 - p2) / n
    band = BAND_SIGMAS * math.sqrt(var12 + p2**2 * var1 + p1**2 * var2)
    holds, inconclusive = band_verdict(p12, p1 * p2, band)
    return {"n": n, "y1": y1, "y2": y2, "tail_sum": p12, "tail_product": p1 * p2,
            "band": band, "holds": holds, "inconclusive": inconclusive}
