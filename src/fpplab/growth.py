"""Lattice growth and coverage processes.

The growth process is Richardson's lattice growth on Z^2: a connected
cluster grows from the origin, and a frontier site (x, y) with k cluster
neighbours fires at rate ``rate(x, y, k)``, bounded between c_lo and c_hi
and nondecreasing in k.  The rate sees the cluster only through k, so
after each arrival only the new site's neighbours are re-rated.  The
frontier of a finite cluster is finite, so a run follows the process on
the whole lattice until the cluster meets the target set.

The coverage process draws IID uniform vertices of a graph until every
vertex is in the closed neighborhood of the drawn set.

Both samplers draw in blocks (:func:`fpplab.stats.blocks`), a row per run:
``GROWTH_ROW`` events of two uniforms each (the Exp(1) holding time
-ln(u), scaled by the total frontier rate, and the pick), or
``COVERAGE_ROW`` vertices ⌊u·n⌋.  Each block, or for growth each chunk of
``LOCKSTEP_RUNS`` rows, is transformed at once; a run that outlives its
row reads rows of the same length from its own stream
(:class:`fpplab.stats.RowStream`).

Every growth run starts in a lock-step kernel (:func:`_lockstep`):
``LOCKSTEP_RUNS`` runs advance together, an event each per step, on a
lattice window around the origin, where a run's frontier rates and their
cumulative sum sit in the loop's frontier order.  So every time is the
float the per-run loop (:func:`growth_hitting_time`) returns.  A run that
picks a border cell or uses up its row goes on in that loop from the
kernel's state; nothing is rerun.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, product
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
# The lock-step growth kernel (_lockstep) runs LOCKSTEP_RUNS runs at a time
# on a lattice window WINDOW_MARGIN sites past the target's largest
# |coordinate|, capped where the state of LOCKSTEP_RUNS runs would pass
# ROW_CELLS cells (R = 10); the per-run loop goes on with each run that
# leaves it.  At margin 3, 4.3 % of growth_cross's runs left it; a margin
# of 4 left 1.5 % but took as long, with a third more cells per run.
WINDOW_MARGIN = 3
LOCKSTEP_RUNS = 64


def _site_hash(x, y):
    """Deterministic pseudo-random value in [0,1) from lattice coordinates:
    Python ints, or arrays of them.  The window passes object arrays, which
    keep Python's exact integer arithmetic (int64 arrays agree for |x|, |y|
    < 2**31, but their bitwise loops fault in numpy code that nothing else
    in a Proposition 1 run touches)."""
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
    return (lambda x, y, k: c), c, c


def site_weighted_rate(c_lo: float, c_hi: float):
    """Per-site rate fixed by the coordinates; trivially nondecreasing in k."""
    _positive(c_lo, c_hi)
    if c_lo > c_hi:
        raise ValueError(f"site_weighted needs c_lo <= c_hi, got {c_lo!r} > {c_hi!r}")
    return (lambda x, y, k: c_lo + (c_hi - c_lo) * _site_hash(x, y)), c_lo, c_hi


def neighbor_count_rate(base: float):
    """base times the number of cluster neighbours; increasing in k."""
    _positive(base)
    return (lambda x, y, k: base * k), base, 4.0 * base


RATE_BUILTINS = {
    "constant": constant_rate,
    "site_weighted": site_weighted_rate,
    "neighbor_count": neighbor_count_rate,
}


@dataclass
class GrowthConfig:
    """Growth towards ``target`` where a frontier site (x, y) with k
    cluster neighbours fires at ``rate(x, y, k)``, in [c_lo, c_hi] and
    nondecreasing in k.  The per-run loop calls ``rate`` on Python ints;
    the lock-step window calls it once on arrays (x and y as arrays of
    Python ints, k as the integer column 1-4), so it must broadcast."""

    target: frozenset[Site]
    rate: Callable = field(repr=False)
    c_lo: float = 1.0
    c_hi: float = 1.0

    @classmethod
    def builtin(cls, target, kind: str, **params) -> "GrowthConfig":
        if kind not in RATE_BUILTINS:
            raise ValueError(f"unknown rate builtin {kind!r}; have {sorted(RATE_BUILTINS)}")
        rate, c_lo, c_hi = RATE_BUILTINS[kind](**params)
        target = frozenset(tuple(v) for v in target)
        if not target or (0, 0) in target:
            raise ValueError("target must be non-empty and must not contain the origin")
        return cls(target=target, rate=rate, c_lo=c_lo, c_hi=c_hi)


def _escapes(cfg: GrowthConfig, r) -> ValueError:
    return ValueError(f"rate {r} escapes the stated bounds [{cfg.c_lo}, {cfg.c_hi}]")


def _checked_rate(cfg: GrowthConfig, v: Site, k: int) -> float:
    r = cfg.rate(*v, k)
    if not (cfg.c_lo - 1e-12 <= r <= cfg.c_hi + 1e-12):
        raise _escapes(cfg, r)
    return r


def _events(u: np.ndarray) -> np.ndarray:
    """Uniforms of shape (..., 2, GROWTH_ROW) as events, in place: the
    first half becomes Exp(1) holding times -ln(u); the second half stays
    the picks."""
    exponential_in_place(u[..., 0, :], 1.0)
    return u


def growth_hitting_time(cfg: GrowthConfig, rng, row: list | None = None,
                        start: tuple | None = None) -> float:
    """Event-driven simulation on Z^2; returns the time at which the
    cluster first meets the target set.  The events come from ``row`` (a
    block row from :func:`_events`, as lists) when given, then ``random((2,
    GROWTH_ROW))`` at a time from ``rng``, a generator or a
    :class:`fpplab.stats.RowStream`.

    ``start`` is the state of a run that :func:`_lockstep` hands over:
    (cluster, frontier, counts, rates, t, the row's next event, the last
    pick), the pick not yet applied.  A fresh run applies the origin to an
    empty cluster.  Each step applies the pick, then draws the next one.

    The frontier is kept sorted with each site's rate and cluster neighbour
    count alongside, so an arrival re-rates only the new site's neighbours."""
    cluster, frontier, counts, rates, t, e, chosen = start or (set(), [], [], [], 0.0, 0, (0, 0))
    holds, picks = row or ((), ())
    while True:
        cluster.add(chosen)
        if chosen in cfg.target:
            return t
        x, y = chosen
        for dx, dy in _NBRS:
            v = (x + dx, y + dy)
            if v in cluster:
                continue
            j = bisect_left(frontier, v)
            if j < len(frontier) and frontier[j] == v:
                counts[j] += 1
                rates[j] = _checked_rate(cfg, v, counts[j])
            else:
                frontier.insert(j, v)
                counts.insert(j, 1)
                rates.insert(j, _checked_rate(cfg, v, 1))
        if e == len(holds):
            holds, picks = _events(rng.random((2, GROWTH_ROW))).tolist()
            e = 0
        partial = list(accumulate(rates))
        total = partial[-1]  # the sequential sum, as the kernel's cumsum reads it
        t += holds[e] / total
        pick = picks[e] * total
        e += 1
        i = min(bisect_right(partial, pick), len(frontier) - 1)
        chosen = frontier.pop(i)
        del rates[i], counts[i]


@dataclass
class _Window:
    """The lattice window [-R, R]^2 of the lock-step kernel, its cells
    numbered row-major with x first, which is the frontier's sorted order.
    ``rates[k, c]`` is the rate of cell c with k cluster neighbours; a site
    adds ``_JOINED`` to its own count on joining the cluster, which points
    it at the zero rows.  A run ends in the kernel when it picks a cell of
    ``target`` or of ``border``; ``sites`` are the cells' lattice sites."""

    width: int
    rates: np.ndarray
    target: np.ndarray
    border: np.ndarray
    sites: list[Site]


_JOINED = 5


def _window(cfg: GrowthConfig) -> _Window:
    """The window for ``cfg``: R = ``WINDOW_MARGIN`` past the target's
    largest |coordinate|, capped at the largest R whose state for
    ``LOCKSTEP_RUNS`` runs fits in ``ROW_CELLS`` cells.  A target site past
    the border is not marked: a run reaches it only through the border.
    Raises when a window rate escapes the stated bounds."""
    reach = max(max(abs(x), abs(y)) for x, y in cfg.target)
    R = min(reach + WINDOW_MARGIN, (math.isqrt(ROW_CELLS // LOCKSTEP_RUNS) - 1) // 2)
    w = 2 * R + 1
    side = np.arange(-R, R + 1, dtype=object)  # Python ints: exact at any coordinate
    rates = np.zeros((2 * _JOINED, w * w))
    live = rates[1:_JOINED]  # a frontier site has 1-4 cluster neighbours
    live[:] = cfg.rate(np.repeat(side, w), np.tile(side, w), np.arange(1, _JOINED)[:, None])
    bad = live[~((live >= cfg.c_lo - 1e-12) & (live <= cfg.c_hi + 1e-12))]
    if bad.size:
        raise _escapes(cfg, bad[0])
    target = np.zeros(w * w, bool)
    target[[(vx + R) * w + vy + R for vx, vy in cfg.target if max(abs(vx), abs(vy)) <= R]] = True
    border = np.ones((w, w), bool)
    border[1:-1, 1:-1] = False
    return _Window(w, rates, target, border.ravel(), list(product(range(-R, R + 1), repeat=2)))


def _event_rows(seed, runs: int):
    """(block generator, the block's first run, the chunk's first run,
    events) for each chunk of at most ``LOCKSTEP_RUNS`` rows of a batch,
    in stream order: drawing a block's rows a chunk at a time continues its
    one stream of ``random((k, 2, GROWTH_ROW))``."""
    for rng, part in blocks(seed, runs, 2 * GROWTH_ROW, ROW_CELLS):
        for lo in range(part.start, part.stop, LOCKSTEP_RUNS):
            k = min(LOCKSTEP_RUNS, part.stop - lo)
            yield rng, part.start, lo, _events(rng.random((k, 2, GROWTH_ROW)))


def _lockstep(win: _Window, chunks, samples: np.ndarray):
    """Run the batch of ``chunks`` (:func:`_event_rows`) on ``win`` in
    ``LOCKSTEP_RUNS`` slots that advance together, one event each per step;
    a slot whose run ends takes the next run in stream order.  Writes each
    hitting time into ``samples`` and yields (run, its row stream, its
    events as lists, its state) for each run that uses up its row or picks
    a border cell, for :func:`growth_hitting_time` to go on from.  Each
    step is the loop's: the cumulative sum of a run's cell rates, zero off
    the frontier, holds its partial sums in frontier order, so the pick is
    the count of partial sums <= pick, capped at the last frontier cell."""
    cells = win.width ** 2
    origin = cells // 2
    steps = np.array([win.width, -win.width, 1, -1])
    n = LOCKSTEP_RUNS
    offset = np.arange(n) * cells  # each slot's first cell in the flat state
    run = np.zeros(n, np.intp)
    event = np.zeros(n, np.intp)  # the run's next event
    t = np.zeros(n)
    site = np.zeros(n, np.intp)  # its last pick, which joins the cluster
    rate = np.zeros((n, cells))
    count = np.zeros((n, cells), np.uint8)
    events = np.empty((n, 2, GROWTH_ROW))
    source = [None] * n  # (block generator, the block's first run)
    head = next(chunks, None)  # the chunk being loaded, from its first unloaded row

    def load(slots: np.ndarray) -> int:
        """Start the next runs in ``slots``; returns how many there were."""
        nonlocal head
        loaded = 0
        while loaded < len(slots) and head is not None:
            rng, start, lo, rows = head
            s = slots[loaded:loaded + len(rows)]
            rows, rest = rows[:len(s)], rows[len(s):]
            head = (rng, start, lo + len(s), rest) if len(rest) else next(chunks, None)
            run[s] = np.arange(lo, lo + len(s))
            events[s] = rows
            for j in s.tolist():
                source[j] = (rng, start)
            loaded += len(s)
        s = slots[:loaded]
        event[s] = 0
        t[s] = 0.0
        site[s] = origin
        rate[s] = 0.0
        count[s] = 0
        return loaded

    def handed_over(j: int):
        """Slot j's run as the loop goes on with it: the cluster is the
        cells that joined, and the frontier the other counted cells but
        the last pick, in window order."""
        rng, start = source[j]
        on = np.flatnonzero(count[j])
        joined = count[j, on] >= _JOINED
        front = on[~joined & (on != site[j])]
        state = ({win.sites[c] for c in on[joined].tolist()},
                 [win.sites[c] for c in front.tolist()], count[j, front].tolist(),
                 rate[j, front].tolist(), float(t[j]), int(event[j]), win.sites[site[j]])
        return int(run[j]), RowStream(rng, int(run[j]) - start), events[j].tolist(), state

    m = load(np.arange(n))
    while m:
        flat_rate, flat_count = rate[:m].reshape(-1), count[:m].reshape(-1)
        at = offset[:m] + site[:m]
        flat_rate[at] = 0.0
        flat_count[at] += _JOINED
        nbrs = site[:m, None] + steps
        at = nbrs + offset[:m, None]
        flat_count[at] += 1
        flat_rate[at] = win.rates[flat_count[at], nbrs]
        partial = np.cumsum(rate[:m], axis=1)
        total = partial[:, -1]
        slot = np.arange(m)
        t[:m] += events[slot, 0, event[:m]] / total
        pick = events[slot, 1, event[:m]] * total
        event[:m] += 1
        pos = np.count_nonzero(partial <= pick[:, None], axis=1)
        capped = pos == cells
        if capped.any():
            pos[capped] = np.count_nonzero(partial[capped] < total[capped, None], axis=1)
        site[:m] = pos
        hit = win.target[pos]
        samples[run[:m][hit]] = t[:m][hit]
        done = np.flatnonzero(hit | win.border[pos] | (event[:m] == GROWTH_ROW))
        if not len(done):
            continue
        for j in done[~hit[done]].tolist():
            yield handed_over(j)
        loaded = load(done)
        if loaded < len(done):  # the batch is used up: pack the live slots
            keep = np.ones(m, bool)
            keep[done[loaded:]] = False
            live = np.flatnonzero(keep)
            m = len(live)
            for a in (run, event, t, site, rate, count, events):
                a[:m] = a[live]
            source[:m] = [source[j] for j in live.tolist()]


def growth_samples(cfg: GrowthConfig, runs: int, seed) -> np.ndarray:
    """``runs`` hitting times; block j draws ``random((k, 2, GROWTH_ROW))``.
    Every run starts in :func:`_lockstep` on the window of :func:`_window`,
    and a run it hands over goes on in :func:`growth_hitting_time` from
    where it stopped: the float that loop returns from the run's row."""
    samples = np.empty(runs)
    for i, stream, row, start in _lockstep(_window(cfg), _event_rows(seed, runs), samples):
        samples[i] = growth_hitting_time(cfg, stream, row, start)
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
    np.minimum(u, n - 1, out=u)
    return u.astype(np.intp)


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

