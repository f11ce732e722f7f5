"""Lattice growth and coverage processes.

The growth process is Richardson's lattice growth on Z^2: a connected
cluster grows from the origin, frontier sites fire at state-dependent rates
bounded between c_lo and c_hi and nondecreasing in the cluster.  The
frontier of a finite cluster is finite, so a run follows the process on the
whole lattice until the cluster meets the target set.  A rate is local: it
depends on the cluster only through the site's four lattice neighbours, so
after each arrival only the new site's neighbours are re-rated.

The coverage process draws IID uniform vertices of a graph until every
vertex is in the closed neighborhood of the drawn set.

Both samplers draw in blocks (:func:`fpplab.stats.blocks`), a row per run:
``GROWTH_ROW`` events of two uniforms each (the Exp(1) holding time
-ln(u), scaled by the total frontier rate, and the pick), or
``COVERAGE_ROW`` vertices ⌊u·n⌋.  Each block is transformed at once; a
run that outlives its row reads rows of the same length from its own
stream (:class:`fpplab.stats.RowStream`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .chain import ChainSpec
from .graphs import WeightedGraph
from .stats import (BAND_SIGMAS, MIN_RUNS, ROW_CELLS, RowStream, SampleStats, band_verdict,
                    blocks, exponential_in_place)

Site = tuple[int, int]

_NBRS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# Draws per row and per extension.  In 3 000 runs, growth_cross took a
# median of 12 events and 99 % of runs at most 44; coverage took at most 20
# draws on path(5) and 34 on grid 3x4.
GROWTH_ROW = 64
COVERAGE_ROW = 32


def _site_hash_unit(v: Site) -> float:
    """Deterministic pseudo-random value in [0,1) from lattice coordinates."""
    x, y = v
    h = (x * 2654435761 + y * 40503 + 0x9E3779B9) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x45D9F3B) & 0xFFFFFFFF
    h ^= h >> 16
    return h / 2**32


def _positive(*values) -> None:
    for v in values:
        if not 0 < v < math.inf:
            raise ValueError(f"rates must be positive and finite, got {v!r}")


def constant_rate(c: float):
    _positive(c)

    def rate(S, v):
        return c
    return rate, c, c


def site_weighted_rate(c_lo: float, c_hi: float):
    """Per-site rate fixed by the coordinates; trivially nondecreasing in S."""
    _positive(c_lo, c_hi)
    if c_lo > c_hi:
        raise ValueError(f"site_weighted needs c_lo <= c_hi, got {c_lo!r} > {c_hi!r}")

    def rate(S, v):
        return c_lo + (c_hi - c_lo) * _site_hash_unit(v)
    return rate, c_lo, c_hi


def neighbor_count_rate(base: float):
    """base times the number of cluster neighbors; increasing in S."""
    _positive(base)

    def rate(S, v):
        return base * sum((v[0] + dx, v[1] + dy) in S for dx, dy in _NBRS)
    return rate, base, 4.0 * base


RATE_BUILTINS = {
    "constant": constant_rate,
    "site_weighted": site_weighted_rate,
    "neighbor_count": neighbor_count_rate,
}


@dataclass
class GrowthConfig:
    """Growth towards ``target`` with frontier rates ``rate_fn(S, v)`` in
    [c_lo, c_hi], nondecreasing in the cluster S and local: ``rate_fn(S, v)``
    depends on S only through the four lattice neighbours of v."""

    target: frozenset[Site]
    rate_fn: Callable[[set, Site], float] = field(repr=False)
    c_lo: float = 1.0
    c_hi: float = 1.0

    @classmethod
    def builtin(cls, target, kind: str, **params) -> "GrowthConfig":
        if kind not in RATE_BUILTINS:
            raise ValueError(f"unknown rate builtin {kind!r}; have {sorted(RATE_BUILTINS)}")
        fn, c_lo, c_hi = RATE_BUILTINS[kind](**params)
        target = frozenset(tuple(v) for v in target)
        if not target or (0, 0) in target:
            raise ValueError("target must be non-empty and must not contain the origin")
        return cls(target=target, rate_fn=fn, c_lo=c_lo, c_hi=c_hi)


def _frontier(cluster: set) -> list:
    out = set()
    for (x, y) in cluster:
        for dx, dy in _NBRS:
            v = (x + dx, y + dy)
            if v not in cluster:
                out.add(v)
    return sorted(out)


def _checked_rate(cfg: GrowthConfig, cluster: set, v: Site) -> float:
    r = cfg.rate_fn(cluster, v)
    if not (cfg.c_lo - 1e-12 <= r <= cfg.c_hi + 1e-12):
        raise ValueError(f"rate {r} escapes the stated bounds [{cfg.c_lo}, {cfg.c_hi}]")
    return r


def _events(u: np.ndarray) -> np.ndarray:
    """Uniforms of shape (..., 2, GROWTH_ROW) as events, in place: the
    first half becomes Exp(1) holding times -ln(u); the second half stays
    the picks."""
    exponential_in_place(u[..., 0, :], 1.0)
    return u


def growth_hitting_time(cfg: GrowthConfig, rng, row: list | None = None) -> float:
    """Event-driven simulation on Z^2; returns the time at which the
    cluster first meets the target set.  The events come from ``row`` (a
    block row from :func:`_events`, as lists) when given, then ``random((2,
    GROWTH_ROW))`` at a time from ``rng``, a generator or a
    :class:`fpplab.stats.RowStream`.

    The frontier is kept sorted with its rates alongside; by locality an
    arrival changes only the rates of the new site's lattice neighbours."""
    cluster = {(0, 0)}
    frontier = _frontier(cluster)
    rates = [_checked_rate(cfg, cluster, v) for v in frontier]
    t = 0.0
    holds, picks = row or ((), ())
    e = 0  # the next event of the row
    while True:
        if e == len(holds):
            holds, picks = _events(rng.random((2, GROWTH_ROW))).tolist()
            e = 0
        total = sum(rates)
        t += holds[e] / total
        pick = picks[e] * total
        e += 1
        i = min(bisect_right(list(accumulate(rates)), pick), len(frontier) - 1)
        chosen = frontier.pop(i)
        del rates[i]
        cluster.add(chosen)
        if chosen in cfg.target:
            return t
        x, y = chosen
        for dx, dy in _NBRS:
            v = (x + dx, y + dy)
            if v in cluster:
                continue
            r = _checked_rate(cfg, cluster, v)
            j = bisect_left(frontier, v)
            if j < len(frontier) and frontier[j] == v:
                rates[j] = r
            else:
                frontier.insert(j, v)
                rates.insert(j, r)


def growth_samples(cfg: GrowthConfig, runs: int, seed) -> np.ndarray:
    """``runs`` hitting times; block j draws ``random((k, 2, GROWTH_ROW))``."""
    samples = np.empty(runs)
    for rng, part in blocks(seed, runs, 2 * GROWTH_ROW, ROW_CELLS):
        rows = _events(rng.random((part.stop - part.start, 2, GROWTH_ROW)))
        for r, row in enumerate(rows):
            samples[part.start + r] = growth_hitting_time(cfg, RowStream(rng, r), row.tolist())
    return samples


@dataclass
class InequalityReport:
    runs: int
    mean: float
    variance: float
    bound: float
    band: float
    holds: bool
    inconclusive: bool


def _variance_inequality_report(samples: np.ndarray, bound_fn) -> InequalityReport:
    if len(samples) < MIN_RUNS:
        raise ValueError(f"a variance inequality needs at least {MIN_RUNS} runs")
    stats = SampleStats.from_samples(samples)
    bound = bound_fn(stats.mean)
    # jackknife band on the variance estimate plus the bound's mean-driven wiggle
    band = BAND_SIGMAS * (stats.variance_se + abs(bound_fn(stats.mean + stats.mean_se) - bound))
    holds, inconclusive = band_verdict(stats.variance, bound, band)
    return InequalityReport(
        runs=len(samples), mean=stats.mean,
        variance=stats.variance, bound=bound, band=band,
        holds=holds, inconclusive=inconclusive,
    )


def prop1_check(cfg: GrowthConfig, runs: int, seed) -> InequalityReport:
    """Monte Carlo check of var T <= E T / c_lo for the growth process."""
    return _variance_inequality_report(growth_samples(cfg, runs, seed), lambda m: m / cfg.c_lo)


# ---------------------------------------------------------------------------
# Coverage

@dataclass(frozen=True)
class CoverageConfig:
    """Coverage runs on an arbitrary simple graph, connectivity not
    required (the edgeless case is the plain coupon collector)."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n and u != v):
                raise ValueError(f"bad edge {(u, v)}")

    @classmethod
    def from_graph(cls, g: WeightedGraph) -> "CoverageConfig":
        return cls(n=g.n, edges=tuple(g.edges))

    def closed_neighborhoods(self) -> list[int]:
        masks = [1 << v for v in range(self.n)]
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


def _vertices(u: np.ndarray, n: int) -> np.ndarray:
    """Uniforms as vertices ⌊u·n⌋; the clamp to n - 1 catches a product
    u·n that rounds up to n."""
    u *= n
    return np.minimum(u, n - 1).astype(np.intp)


def coverage_simulate(cfg: CoverageConfig, rng, row: list | None = None,
                      nbhd: list[int] | None = None) -> int:
    """Number of IID uniform vertex draws until every vertex lies in the
    closed neighborhood of the drawn set.  The draws come from ``row`` (a
    block row from :func:`_vertices`, as a list) when given, then ``random(
    COVERAGE_ROW)`` at a time from ``rng``, a generator or a
    :class:`fpplab.stats.RowStream`; ``nbhd`` is
    ``cfg.closed_neighborhoods()``, built here when not given."""
    nbhd = nbhd or cfg.closed_neighborhoods()
    full = (1 << cfg.n) - 1
    covered = t = 0
    draws = row or ()
    while True:
        for v in draws:
            covered |= nbhd[v]
            t += 1
            if covered == full:
                return t
        draws = _vertices(rng.random(COVERAGE_ROW), cfg.n).tolist()


def coverage_samples(cfg: CoverageConfig, runs: int, seed) -> np.ndarray:
    """``runs`` coverage draw counts; block j draws ``random((k,
    COVERAGE_ROW))``."""
    samples = np.empty(runs)
    nbhd = cfg.closed_neighborhoods()
    for rng, part in blocks(seed, runs, COVERAGE_ROW, ROW_CELLS):
        rows = _vertices(rng.random((part.stop - part.start, COVERAGE_ROW)), cfg.n)
        for r, row in enumerate(rows):
            samples[part.start + r] = coverage_simulate(cfg, RowStream(rng, r), row.tolist(),
                                                        nbhd)
    return samples


def coverage_chain_spec(cfg: CoverageConfig) -> ChainSpec:
    """Chain on the set of drawn vertices, read as jump probabilities: each
    step adds a uniform vertex (self-loop when already drawn); absorbed
    once the closed neighborhood of the drawn set covers everything."""
    nbhd = cfg.closed_neighborhoods()
    full = (1 << cfg.n) - 1
    n = cfg.n

    def covered(mask: int) -> int:
        c = 0
        for v in range(n):
            if (mask >> v) & 1:
                c |= nbhd[v]
        return c

    def transitions(mask: int):
        return [(mask | (1 << v), 1.0 / n) for v in range(n) if not (mask >> v) & 1]

    return ChainSpec(
        initial=0,
        transitions=transitions,
        is_target=lambda mask: covered(mask) == full,
    )


def prop3_check(cfg: CoverageConfig, runs: int, seed) -> InequalityReport:
    """Monte Carlo check of var T <= n * E T for the coverage process."""
    return _variance_inequality_report(coverage_samples(cfg, runs, seed), lambda m: cfg.n * m)

