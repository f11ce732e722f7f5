"""First passage percolation on a weighted graph.

Traversal times are independent Exponential(rate w_e).  The percolation
time X(v', v'') is the shortest-path length under those times, Xi is the
largest single-edge time on the minimizing path, and the whole model can
be recast as an increasing subset-valued chain solved exactly by
:mod:`fpplab.chain`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .chain import ABS_TOL, ChainSpec, ExactSolution
from .graphs import EXACT_CAP, CapacityError, WeightedGraph
from .stats import spawn_seeds


def traversal_from_uniform(u, w):
    """Inverse-transform map: xi = -ln(u)/w turns Uniform(0,1) draws into
    Exponential(rate w) traversal times."""
    return -np.log(u) / w


def sample_traversal(g: WeightedGraph, rng: np.random.Generator) -> np.ndarray:
    """One traversal-time vector, independent Exp(w_e) per edge."""
    u = rng.random(g.m)
    while np.any(u == 0.0):  # measure-zero guard: keep xi strictly positive
        zeros = u == 0.0
        u[zeros] = rng.random(int(zeros.sum()))
    return traversal_from_uniform(u, g.weight_array())


@dataclass(frozen=True)
class FppResult:
    X: float
    path: tuple[int, ...]        # vertex sequence v' .. v''
    path_edges: tuple[int, ...]  # edge indices along the path
    Xi: float


def shortest_path(g: WeightedGraph, xi: np.ndarray, source: int, target: int) -> FppResult:
    """Dijkstra under edge lengths ``xi`` with a deterministic tie-break:
    among minimal-length paths, the lexicographically smallest vertex
    sequence wins, so the minimizing path (hence Xi) is a function of xi."""
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


# ---------------------------------------------------------------------------
# Vectorized Monte Carlo batches (scipy Dijkstra; cross-checked in tests
# against shortest_path above)

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
    """``runs`` independent FPP realizations, run i on the i-th substream of
    ``seed`` (:func:`fpplab.stats.spawn_seeds`).  Each run refills one CSR
    matrix with its traversal times, runs scipy's Dijkstra from ``source``
    and walks the predecessors back from ``target`` for Xi and the path
    length."""
    rows = np.fromiter((u for u, _ in g.edges), dtype=np.int32, count=g.m)
    cols = np.fromiter((v for _, v in g.edges), dtype=np.int32, count=g.m)
    # tag each stored entry with its position in [xi, xi] so refills are a gather
    csr = csr_matrix(
        (np.arange(2 * g.m, dtype=np.float64) + 1.0,
         (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(g.n, g.n),
    )
    perm = (csr.data - 1.0).astype(np.intp)
    X = np.empty(runs)
    Xi = np.empty(runs)
    path_len = np.empty(runs, dtype=np.int64)
    for i, child in enumerate(spawn_seeds(seed, runs)):
        xi = sample_traversal(g, np.random.default_rng(child))
        csr.data = np.concatenate([xi, xi])[perm]
        dist, pred = _csgraph_dijkstra(csr, directed=True, indices=source,
                                       return_predecessors=True)
        best = 0.0
        n_edges = 0
        v = target
        while v != source:
            p = int(pred[v])
            best = max(best, float(xi[g.edge_index(p, v)]))
            n_edges += 1
            v = p
        X[i], Xi[i], path_len[i] = float(dist[target]), best, n_edges
    return FppBatch(X=X, Xi=Xi, path_len=path_len)


# ---------------------------------------------------------------------------
# Subset-chain formulation

def fpp_chain_spec(g: WeightedGraph, source: int, target: int) -> ChainSpec:
    """The reached-vertex-set chain: from S, vertex y joins at aggregate
    rate w(S, y) = sum of rates of frontier edges into y."""
    if g.n > EXACT_CAP:
        raise CapacityError(f"|V|={g.n} exceeds exact-solver cap {EXACT_CAP}")
    if source == target:
        raise ValueError("source and target must differ")
    target_bit = 1 << target

    def transitions(mask: int):
        rates: dict[int, float] = {}
        for s in range(g.n):
            if not (mask >> s) & 1:
                continue
            for y, e in g.neighbors(s):
                if not (mask >> y) & 1:
                    rates[y] = rates.get(y, 0.0) + g.weights[e]
        return [(mask | (1 << y), w) for y, w in sorted(rates.items())]

    weight = np.zeros((g.n, g.n))
    for (u, v), w in zip(g.edges, g.weights):
        weight[u, v] = weight[v, u] = w
    bit = np.int64(1) << np.arange(g.n, dtype=np.int64)

    def expand(masks: np.ndarray):
        member = (masks[:, None] & bit) != 0
        is_target = member[:, target]
        live = np.flatnonzero(~is_target)
        inside = member[live]
        # w(S, y) summed over the members s of S in increasing order, the
        # same floating-point sums as ``transitions``
        rates = np.zeros(inside.shape)
        for s in range(g.n):
            np.add(rates, weight[s], out=rates, where=inside[:, s, None])
        rates[inside] = 0.0
        row, y = np.nonzero(rates)
        return is_target, live[row], masks[live[row]] | bit[y], rates[row, y]

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
class CouplingSample:
    a: float
    b: float
    xi: np.ndarray
    xi_prime: np.ndarray
    D_ab: tuple[int, ...]  # edges of the minimizing path with xi in [a, b]
    X: float
    X_prime: float

    def increment_bound(self) -> float:
        """Right side of the pathwise bound X' - X <= sum over D_ab of
        (xi' - xi)."""
        return float(sum(self.xi_prime[e] - self.xi[e] for e in self.D_ab))


def conditioned_exponential(w: float, a: float, b: float, u: float) -> float:
    """Inverse-CDF draw of Exponential(w) conditioned to [a, b]; exact, no
    rejection loop."""
    sa = math.exp(-w * a)
    sb = math.exp(-w * b)
    return -math.log(sa - u * (sa - sb)) / w


def coupled_resample(g: WeightedGraph, xi: np.ndarray, a: float, b: float,
                     rng: np.random.Generator, source: int = 0,
                     target: int | None = None) -> CouplingSample:
    """Couple xi with a copy xi' that agrees off [a, b] and redraws the
    times in [a, b] from the conditioned exponential law."""
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    if target is None:
        target = g.n - 1
    xi_prime = np.array(xi, dtype=float)
    for e in range(g.m):
        if a <= xi[e] <= b:
            xi_prime[e] = conditioned_exponential(g.weights[e], a, b, rng.random())
    base = shortest_path(g, xi, source, target)
    re = shortest_path(g, xi_prime, source, target)
    d_ab = tuple(e for e in base.path_edges if a <= xi[e] <= b)
    return CouplingSample(a=a, b=b, xi=np.asarray(xi, dtype=float), xi_prime=xi_prime,
                          D_ab=d_ab, X=base.X, X_prime=re.X)


def submultiplicativity_probe(samples: np.ndarray, y1: float, y2: float) -> dict:
    """Empirical tail check P(X > y1+y2) <= P(X > y1) P(X > y2) plus a
    3-sigma binomial band.  Advisory: reports, does not assert."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    report = {"n": n, "y1": y1, "y2": y2}
    if n < 10_000:
        report["warning"] = "fewer than 1e4 samples; tail estimates imprecise"
    p12 = float(np.mean(samples > y1 + y2))
    p1 = float(np.mean(samples > y1))
    p2 = float(np.mean(samples > y2))
    var12 = p12 * (1 - p12) / n
    var1 = p1 * (1 - p1) / n
    var2 = p2 * (1 - p2) / n
    band = 3.0 * math.sqrt(var12 + p2**2 * var1 + p1**2 * var2)
    report.update({
        "tail_sum": p12,
        "tail_product": p1 * p2,
        "band": band,
        "holds_within_band": p12 <= p1 * p2 + band,
    })
    return report
