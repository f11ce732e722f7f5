"""First passage percolation on a weighted graph.

Traversal times are independent Exponential(rate w_e).  The percolation
time X(v', v'') is the shortest-path length under those times, Xi is the
largest single-edge time on the minimizing path, and the whole model can
be recast as an increasing subset-valued chain solved exactly by
:mod:`fpplab.chain`.  That chain has one rate rule, the ``expand`` of
:func:`fpp_chain_spec`: it runs on the counts of twin classes (strongly
lumpable), and the rates of a whole popcount layer come from one product
of the counts with the class rate matrix; ``transitions`` reads them off a
one-state layer.  With one class per vertex, the default, the states are
the vertex subsets and the rates are w(S, y); a plain-Python per-state
rule in ``tests/reference_chain.py`` is the reference the tests hold it
to, bit for bit.  With the classes of :func:`fpplab.graphs.twin_classes`
K17 has 32 states instead of 65 536 vertex subsets.

Runs are sampled one of two ways.  The general sampler draws every
traversal time and runs a lock-step Dijkstra over a block of runs, on
the graph's CSR padded to the largest degree.  When the twin classes of
:func:`fpplab.graphs.twin_classes` number at most half the vertices (the
complete graphs, cliques joined by bridges), a run is read off the
reached-set chain lumped onto per-class counts instead, one joining
vertex per stage.  Its stage loop draws only the joining class; the
parents that give Xi are resolved afterwards on the walk back from the
target, only for the stages on it.  It works inside its block of
uniforms, which it uses up: each stage's total rate goes into the spent
class column, and the join times are formed in the holding-time column.
The Dijkstra stays the general sampler and the lumped one's oracle in
law.  Every FPP path reads the graph's arrays; none builds an edge tuple.

Monte Carlo runs follow the block rule of :func:`fpplab.stats.blocks`,
with the ``BLOCK_CELLS`` = 2**20 budget and B sized by c uniforms per run:
the m traversal times for the Dijkstra, 2m for the coupling, 4 per
stage (4(n - 1)) on the lumped chain.  No FPP run outlives its row.
Proposition 4 and the submultiplicativity probe return plain dicts, the
entries ``report.json`` holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import REL_TOL, ChainSpec, ExactSolution
from .graphs import EXACT_CAP, CapacityError, WeightedGraph, twin_classes
from .stats import (TINY, band_verdict, blocks, exponential_in_place, python_values,
                    wilson_band)


def traversal_from_uniform(u, w):
    """Inverse-transform map: xi = -ln(u)/w turns Uniform[0,1) draws into
    Exponential(rate w) traversal times.  A draw u == 0 (probability 2**-53)
    reads as the smallest positive double, so xi stays finite and strictly
    positive without consuming another draw."""
    return exponential_in_place(np.array(u, dtype=float), w)


def sample_traversal(g: WeightedGraph, rng: np.random.Generator, runs: int) -> np.ndarray:
    """A ``(runs, m)`` block of traversal times, independent Exp(w_e) per
    edge, one row per run."""
    return exponential_in_place(rng.random((runs, g.m)), g.weight_array())


# ---------------------------------------------------------------------------
# Lock-step Dijkstra over a block of runs (cross-checked in the tests against
# a pure-Python Dijkstra, and bit for bit against the dense-table kernel)

def _along_path(times: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``times`` (k, m) read along each run's path edges, the pad id as 0."""
    pad = edges == times.shape[1]
    return np.where(pad, 0.0, np.take_along_axis(times, np.where(pad, 0, edges), axis=1))


def _lockstep_dijkstra(g: WeightedGraph, xi: np.ndarray, source: int,
                       target: int) -> tuple[np.ndarray, np.ndarray]:
    """Dijkstra from ``source`` on every row of the ``(k, m)`` block ``xi``
    at once.

    Each step settles, in every live run, the unsettled vertex of least key
    and relaxes its row of the graph's CSR (:attr:`WeightedGraph.csr`),
    padded to the largest degree Δ with the vertex itself: a pad is settled,
    so it never relaxes, and a step relaxes Δ columns.  Each vertex keeps
    the edge it was reached by; a run leaves the working arrays once
    ``target`` settles.  Then every run walks back in step
    (:func:`_walk_back`), along each edge to its other end.  Returns X (k,)
    and the path edges (k, L), target first, each row padded by the pad id
    m once its run reaches ``source``.
    Exact ties (probability zero under continuous times) go to the lowest
    vertex index.
    """
    if source == target:
        raise ValueError("source and target must differ")
    k, n, m = len(xi), g.n, g.m
    start, nbr, eid = g.csr
    degree = np.diff(start)
    filled = np.arange(degree.max()) < degree[:, None]
    head = np.repeat(np.arange(n), filled.shape[1]).reshape(filled.shape)
    head[filled] = nbr
    edge = np.zeros(filled.shape, dtype=np.intp)  # a pad reads edge 0, never kept
    edge[filled] = eid
    X = np.empty(k)
    via_out = np.empty((k, n), dtype=np.intp)
    live = np.arange(k)
    key = np.full((k, n), np.inf)
    key[:, source] = 0.0
    unsettled = np.ones((k, n), dtype=bool)
    via = np.full((k, n), m, dtype=np.intp)  # the edge each vertex is reached by
    flat = xi.ravel()
    first = np.arange(k) * n  # the first flat cell of each row of key
    while len(live):
        v = key.argmin(axis=1)
        rows = np.arange(len(live))
        d = key[rows, v]
        done = v == target
        if done.any():
            X[live[done]] = d[done]
            via_out[live[done]] = via[done]
            keep = ~done
            live, v, d = live[keep], v[keep], d[keep]
            key, unsettled, via = key[keep], unsettled[keep], via[keep]
            rows = rows[:len(live)]
        key[rows, v] = np.inf
        unsettled[rows, v] = False
        at = head[v] + first[:len(live), None]  # the neighbours' flat cells
        e = edge[v]
        cand = flat.take(e + (live * m)[:, None])
        cand += d[:, None]
        better = cand < key.take(at)
        better &= unsettled.take(at)
        at = at[better]
        key.put(at, cand[better])
        via.put(at, e[better])
    # u + v steps an edge's one end to the other; the pad id steps source to itself
    return X, _walk_back(via_out, np.append(g.edge_array().sum(axis=1), 2 * source),
                         source, target)


def _walk_back(via: np.ndarray, other: np.ndarray, source: int, target: int) -> np.ndarray:
    """The path edges (k, L) of every run from ``via`` (k, n), the edge
    each vertex was reached by, walked back in step from ``target``:
    ``other[e] - v`` is the end of edge e other than v.  A path has at most
    n - 1 edges, so a run still away from ``source`` after n - 1 steps
    walks a cycle of ``via``, and that raises RuntimeError."""
    k, n = via.shape
    rows = np.arange(k)
    cur = np.full(k, target, dtype=np.intp)
    path = []
    while np.any(away := cur != source):
        if len(path) == n - 1:
            raise RuntimeError(f"{int(away.sum())} of {k} runs walk back {n - 1} edges"
                               " without reaching the source")
        path.append(e := via[rows, cur])
        cur = other[e] - cur
    return np.column_stack(path)


@dataclass
class FppBatch:
    X: np.ndarray
    Xi: np.ndarray
    path_len: np.ndarray

    def rows(self):
        return zip(range(len(self.X)), python_values(self.X), python_values(self.Xi),
                   python_values(self.path_len))


def sample_fpp_batch(g: WeightedGraph, source: int, target: int, runs: int,
                     seed, label: np.ndarray | None = None) -> FppBatch:
    """``runs`` independent FPP realizations on the block streams of
    ``seed`` (see the module docstring): on the twin-class lumped chain
    when the twin classes (``label`` from :func:`twin_classes`, computed
    when not given) are at most half the vertices, else by the lock-step
    Dijkstra."""
    if label is None:
        label = twin_classes(g, source, target)
    if 2 * (int(label.max()) + 1) <= g.n:
        return sample_lumped_fpp_batch(g, source, target, runs, seed, label)
    return sample_dijkstra_batch(g, source, target, runs, seed)


def sample_dijkstra_batch(g: WeightedGraph, source: int, target: int, runs: int,
                          seed) -> FppBatch:
    """``runs`` FPP realizations, one lock-step Dijkstra per block: block j
    draws ``random((k, m))``, the traversal times of its k runs."""
    batch = FppBatch(X=np.empty(runs), Xi=np.empty(runs),
                     path_len=np.empty(runs, dtype=np.int64))
    for rng, part in blocks(seed, runs, g.m):
        xi = sample_traversal(g, rng, part.stop - part.start)
        batch.X[part], edges = _lockstep_dijkstra(g, xi, source, target)
        batch.Xi[part] = _along_path(xi, edges).max(axis=1)
        batch.path_len[part] = (edges != g.m).sum(axis=1)
        del xi  # let the next block reuse this one's memory
    return batch


# ---------------------------------------------------------------------------
# The twin-class lumped chain (strongly lumpable: Kemeny & Snell, Finite
# Markov Chains, 1960; on K_n it is Janson's stage chain, CPC 8, 1999)

@dataclass(frozen=True)
class _Lumped:
    size: np.ndarray    # vertices per class
    rate: np.ndarray    # (K, K) w(d, c): the rate between a member of d and one of c
    offset: np.ndarray  # first slot of each class in a run's (n,) slot array
    source: int         # the classes of source and target
    target: int


def _lumped(g: WeightedGraph, label: np.ndarray, source: int, target: int) -> _Lumped:
    """The class sizes and rates of the twin classes ``label``.  Twins
    see every other vertex at one rate, and the members of a class meet
    each other at one rate, read off its first two members."""
    order = np.argsort(label, kind="stable")
    size = np.bincount(label)
    offset = np.concatenate([[0], np.cumsum(size)[:-1]])
    first = order[offset]
    second = order[np.minimum(offset + 1, g.n - 1)]
    rates = g.rate_matrix()
    rate = rates[np.ix_(first, first)]
    rate[np.diag_indices_from(rate)] = np.where(size > 1, rates[first, second], 0.0)
    return _Lumped(size=size, rate=rate, offset=offset,
                   source=int(label[source]), target=int(label[target]))


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first index whose running total ``cum`` exceeds
    ``u`` times the row total: an index drawn in proportion to its
    increment.  Below a total of about 2**-1021, u * total can round up to
    the total; such a row picks the first index at its total, as u -> 1
    does on any other row, so no row picks an index whose increment is 0."""
    total = cum[:, -1]
    picked = (cum <= (u * total)[:, None]).sum(axis=1)
    if picked.max() == cum.shape[1]:  # some u * total rounded up to its total
        picked = np.minimum(picked, (cum < total[:, None]).sum(axis=1))
    return picked


def _lumped_block(chain: _Lumped, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X, Xi and the path length of each run of the ``(k, n - 1, 4)``
    uniform block ``u``, one stage (one joining vertex) per step, every
    run in step.  The kernel uses up ``u`` and works inside it.

    At stage i, class c joins at rate (size_c - count_c) * sum_d count_d
    w(d, c): ``u[:, i - 1, 0]`` gives the holding time -ln(u)/total,
    ``1`` the joining class, ``2`` its parent's class d, drawn with weight
    count_d w(d, c), and ``3`` the parent, uniform among the reached
    members of d.  The stage loop draws only the joining class, from the
    per-class ``free`` and ``pull`` laid out class-major, keeps each
    stage's class, and puts its total rate into the spent class column
    ``u[:, i - 1, 1]``.  Then the join times are one running sum, formed
    in the holding-time column ``u[:, :, 0]``, and a stable sort of each
    run's class sequence puts its stages in per-class slots, 0 the source.
    Parents are resolved on the walk back from the target's stage to the
    source, only for the stages on it: the count of class d at stage i is
    the number of d's slots below i.  X is the target's join time and Xi
    the largest join-time gap on the walk.
    """
    k, stages = u.shape[0], u.shape[1] + 1
    rows = np.arange(k)
    free = np.repeat(chain.size[:, None].astype(float), k, axis=1)
    free[chain.source] -= 1.0
    flat_free = free.reshape(-1)
    pull = np.repeat(chain.rate[chain.source][:, None], k, axis=1)  # sum_d count_d w(d, c)
    # the class joining at each stage; a narrow type sorts by radix below
    joined = np.empty((stages, k), dtype=np.min_scalar_type(len(chain.size) - 1))
    joined[0] = chain.source
    for i in range(1, stages):
        cum = np.cumsum(free * pull, axis=0)
        c = _pick(cum.T, u[:, i - 1, 1])
        u[:, i - 1, 1] = cum[-1]
        joined[i] = c
        flat_free[c * k + rows] -= 1.0
        pull += chain.rate.take(c, axis=1)  # w(d, c), symmetric
    # the join times of stages 1 .. n - 1: a running sum of -ln(u)/total
    tau = u[:, :, 0]
    np.maximum(tau, TINY, out=tau)
    np.log(tau, out=tau)
    tau /= u[:, :, 1]
    np.negative(tau, out=tau)
    np.cumsum(tau, axis=1, out=tau)
    slot = np.argsort(joined.T, axis=1, kind="stable").astype(np.int32)  # the stage in each slot
    at = slot[:, chain.offset[chain.target]]  # the target is a class of its own
    X = tau[rows, at - 1]
    Xi = np.zeros(k)
    path_len = np.zeros(k, dtype=np.int64)
    live, now = rows, X  # each live run's stage on the walk and its join time
    while len(live):
        count = np.add.reduceat(slot[live] < at[:, None], chain.offset, axis=1, dtype=float)
        d = _pick(np.cumsum(count * chain.rate[:, joined[at, live]].T, axis=1), u[live, at - 1, 2])
        reached = count[np.arange(len(live)), d].astype(np.intp)
        j = np.minimum((u[live, at - 1, 3] * reached).astype(np.intp), reached - 1)
        up = slot[live, chain.offset[d] + j]
        then = np.where(up > 0, tau[live, up - 1], 0.0)  # the source joins at 0
        Xi[live] = np.maximum(Xi[live], now - then)
        path_len[live] += 1
        keep = up != 0
        live, at, now = live[keep], up[keep], then[keep]
    return X, Xi, path_len


def sample_lumped_fpp_batch(g: WeightedGraph, source: int, target: int, runs: int,
                            seed, label: np.ndarray | None = None) -> FppBatch:
    """``runs`` FPP realizations on the twin-class lumped chain (``label``
    from :func:`twin_classes`, computed when not given): block j draws
    ``random((k, n - 1, 4))``, four uniforms per stage, with B sized by
    ``4 * (n - 1)`` uniforms per run, which the kernel uses up."""
    if label is None:
        label = twin_classes(g, source, target)
    chain = _lumped(g, label, source, target)
    batch = FppBatch(X=np.empty(runs), Xi=np.empty(runs),
                     path_len=np.empty(runs, dtype=np.int64))
    for rng, part in blocks(seed, runs, 4 * (g.n - 1)):
        u = rng.random((part.stop - part.start, g.n - 1, 4))
        batch.X[part], batch.Xi[part], batch.path_len[part] = _lumped_block(chain, u)
    return batch


# ---------------------------------------------------------------------------
# The exact chain: the reached set on twin-class counts

def fpp_chain_spec(g: WeightedGraph, source: int, target: int,
                   label: np.ndarray | None = None) -> ChainSpec:
    """The reached-set chain on the twin classes ``label`` (from
    :func:`twin_classes`; None, the default, is one class per vertex: the
    chain on vertex subsets, where y joins S at w(S, y), the rates of the
    edges from S into y).  Class c owns the ``size_c`` bits from its
    offset and count k sets the lowest k of them, so the popcount counts
    the reached vertices and a transition sets one bit; class c joins at
    rate (size_c - count_c) * sum_d count_d w(d, c).  ``expand`` is the
    one rate rule; ``transitions`` reads it off one state at a time.  The
    cap and the endpoints are checked before ``label`` is read."""
    if g.n > EXACT_CAP:
        raise CapacityError(f"|V|={g.n} exceeds exact-solver cap {EXACT_CAP}")
    if source == target:
        raise ValueError("source and target must differ")
    chain = _lumped(g, np.arange(g.n) if label is None else label, source, target)
    one = np.int64(1)
    field = ((one << chain.size) - 1) << chain.offset

    def expand(masks: np.ndarray):
        count = np.bitwise_count(masks[:, None] & field)
        is_target = count[:, chain.target] > 0
        live = np.flatnonzero(~is_target)
        reached = count[live].astype(float)
        # sum_d count_d w(d, c) for the whole layer as one product.  einsum,
        # which calls no BLAS, adds the terms in increasing d whatever the
        # layer's size; a BLAS ``@`` reorders the sums on some CPUs and
        # layer shapes, which moves their last bits.
        rates = (chain.size - reached) * np.einsum("ld,dc->lc", reached, chain.rate)
        row, c = np.nonzero(rates)
        bit = one << (chain.offset[c] + count[live[row], c])
        return is_target, live[row], masks[live[row]] | bit, rates[row, c]

    def transitions(mask: int):
        _, _, successors, rate = expand(np.array([mask], dtype=np.int64))
        return list(zip(successors.tolist(), rate.tolist()))

    target_bit = 1 << int(chain.offset[chain.target])
    return ChainSpec(initial=1 << int(chain.offset[chain.source]), transitions=transitions,
                     is_target=lambda mask: bool(mask & target_bit), expand=expand)


def prop4_check(sol: ExactSolution, g: WeightedGraph) -> dict:
    """var X <= E X / w_min, with w_min the smallest edge rate: ``var_T``,
    ``E_T``, ``w_min``, ``bound`` (E X / w_min) and ``holds``."""
    w_min = g.min_weight()
    bound = sol.E_T / w_min
    return {"var_T": sol.var_T, "E_T": sol.E_T, "w_min": w_min, "bound": bound,
            "holds": sol.var_T <= bound * (1.0 + REL_TOL)}


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
    X, edges = _lockstep_dijkstra(g, xi, source, target)
    X_prime, _ = _lockstep_dijkstra(g, xi_prime, source, target)
    increment = _along_path(np.where(inside, xi_prime - xi, 0.0), edges).sum(axis=1)
    return xi, xi_prime, CouplingBatch(X=X, X_prime=X_prime, increment_bound=increment)


def sample_coupling_batch(g: WeightedGraph, source: int, target: int, runs: int,
                          seed, a: float, b: float) -> CouplingBatch:
    """``runs`` coupled pairs on the block streams of ``seed``: block j draws
    ``random((k, 2, m))`` for :func:`coupled_resample`."""
    batch = CouplingBatch(X=np.empty(runs), X_prime=np.empty(runs),
                          increment_bound=np.empty(runs))
    for rng, part in blocks(seed, runs, 2 * g.m):
        u = rng.random((part.stop - part.start, 2, g.m))
        _, _, block = coupled_resample(g, u, a, b, source, target)
        batch.X[part], batch.X_prime[part] = block.X, block.X_prime
        batch.increment_bound[part] = block.increment_bound
    return batch


def submultiplicativity_probe(samples: np.ndarray, y1: float, y2: float) -> dict:
    """Empirical tails against P(X > y1+y2) <= P(X > y1) P(X > y2), judged
    by :func:`band_verdict` on the Wilson centres of the three tails, with
    the band their :func:`wilson_band` half-widths carried through the
    product, so a tail of 0 or 1 still leaves a band."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    p12 = float(np.mean(samples > y1 + y2))
    p1 = float(np.mean(samples > y1))
    p2 = float(np.mean(samples > y2))
    (c12, b12), (c1, b1), (c2, b2) = (wilson_band(p, n) for p in (p12, p1, p2))
    band = math.sqrt(b12**2 + c2**2 * b1**2 + c1**2 * b2**2)
    holds, inconclusive = band_verdict(c12, c1 * c2, band)
    return {"n": n, "y1": y1, "y2": y2, "tail_sum": p12, "tail_product": p1 * p2,
            "band": band, "holds": holds, "inconclusive": inconclusive}
