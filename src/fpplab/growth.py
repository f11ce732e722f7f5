"""Lattice growth and coverage processes.

The growth process is Richardson's lattice growth on Z^2: a connected
cluster grows from the origin, and a frontier site (x, y) with k cluster
neighbours fires at rate ``rate(x, y, k)``, bounded between c_lo and c_hi
and nondecreasing in k.  The rate sees the cluster only through k, so
after each arrival only the new site's neighbours are re-rated.  A run
follows the process on the whole lattice until the cluster meets the
target set.

The coverage process draws IID uniform vertices of a graph until every
vertex is in the closed neighborhood of the drawn set.  Its count is read
off each block at once by a min-max formula over the graph's CSR
(:func:`coverage_samples`).

Both samplers draw in blocks (:func:`fpplab.stats.blocks`), a row per run:
``GROWTH_ROW`` events of two uniforms each (the Exp(1) holding time
-ln(u), scaled by the total frontier rate, and the pick), or
``COVERAGE_ROW`` vertices ⌊u·n⌋.  Each block, or for growth each chunk of
``LOCKSTEP_RUNS`` rows, is transformed at once; a run that outlives its
row reads rows of the same length from its own stream
(:class:`fpplab.stats.RowStream`).

Every growth run goes through one lock-step kernel (:func:`_lockstep`):
``LOCKSTEP_RUNS`` runs advance together, an event each per step, on a
lattice window around the origin.  Each run keeps its frontier sorted in
(x, y) order and picks the site whose partial rate sum first passes the
pick, so its time does not depend on the window: a run that picks a
border cell is rerun from its row on a window twice as wide, and returns
the float of the process on the whole lattice.  Propositions 1 and 3 are
judged into plain dicts, the entries ``report.json`` holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chain import ChainSpec
from .graphs import CapacityError, WeightedGraph
from .stats import (BAND_SIGMAS, MIN_RUNS, ROW_CELLS, RowStream, SampleStats, band_verdict,
                    blocks, exponential_in_place)

Site = tuple[int, int]

# Draws per row and per extension.  In 3 000 runs, growth_cross took a
# median of 12 events and 99 % of runs at most 44; coverage took at most 20
# draws on path(5) and 34 on grid 3x4.
GROWTH_ROW = 64
COVERAGE_ROW = 32
# The lock-step growth kernel (_lockstep) runs LOCKSTEP_RUNS runs at a time
# on a lattice window WINDOW_MARGIN sites past the target's largest
# |coordinate|, and reruns a run that picks a border cell on a window twice
# as wide.  A window cell costs a per-run reset only.  Per 1 000 growth_cross
# runs, margin 3 reran 37 runs, margin 6 reran 3 and margin 10 none; at
# cross d = 30, 24, 8 and 1 of 40.  Margins 8-12 ran fastest at d = 3-15,
# and 10-12 at d = 30, where a rerun redoes a run on four times the cells.
WINDOW_MARGIN = 10
LOCKSTEP_RUNS = 64
# Cells of a window, at most: 2**17 admits d = 30's second rerun window (R =
# 160, 103 041 cells).  At the cap (R = 180, 130 321 cells) one batch of
# the kernel on 64 slots peaks at about 87 MB traced (tracemalloc).
WINDOW_CELLS = 1 << 17


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
    nondecreasing in k.  Each lattice window calls ``rate`` once on arrays
    (x and y as arrays of Python ints, k as the integer column 1-4), so it
    must broadcast over them."""

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


def _events(u: np.ndarray) -> np.ndarray:
    """Uniforms of shape (..., 2, GROWTH_ROW) as events, in place: the
    first half becomes Exp(1) holding times -ln(u); the second half stays
    the picks."""
    exponential_in_place(u[..., 0, :], 1.0)
    return u


@dataclass
class _Window:
    """The lattice window [-R, R]^2 of the lock-step kernel, its cells
    numbered row-major with x first, which is the frontier's sorted order.
    ``rates[k, c]`` is the rate of cell c with k cluster neighbours; a site
    adds ``_JOINED`` to its own count on joining the cluster, which points
    it at the zero rows.  ``stop[c]`` is ``_HIT`` on a target cell, where a
    run ends, and ``_OUT`` on another border cell, where a run leaves the
    window and is rerun on a wider one."""

    radius: int
    rates: np.ndarray
    stop: np.ndarray


_JOINED = 5
_OUT, _HIT = 1, 2


def _window(cfg: GrowthConfig, R: int) -> _Window:
    """The window of radius ``R`` for ``cfg``, R at least the target's
    largest |coordinate|.  Raises CapacityError, before anything is
    allocated, for a window of more than ``WINDOW_CELLS`` cells, and
    ValueError when a window rate escapes the stated bounds."""
    w = 2 * R + 1
    if w * w > WINDOW_CELLS:
        raise CapacityError(f"a growth window of radius {R} holds {w * w} cells, "
                            f"past the cap of {WINDOW_CELLS}")
    side = np.arange(-R, R + 1, dtype=object)  # Python ints: exact at any coordinate
    rates = np.zeros((2 * _JOINED, w * w))
    live = rates[1:_JOINED]  # a frontier site has 1-4 cluster neighbours
    live[:] = cfg.rate(np.repeat(side, w), np.tile(side, w), np.arange(1, _JOINED)[:, None])
    bad = live[~((live >= cfg.c_lo - 1e-12) & (live <= cfg.c_hi + 1e-12))]
    if bad.size:
        raise ValueError(f"rate {bad[0]} escapes the stated bounds [{cfg.c_lo}, {cfg.c_hi}]")
    stop = np.full((w, w), _OUT, np.int8)
    stop[1:-1, 1:-1] = 0
    stop = stop.ravel()
    stop[[(x + R) * w + y + R for x, y in cfg.target]] = _HIT
    return _Window(R, rates, stop)


def _event_rows(seed, runs: int):
    """(block generator, the block's first run, the chunk's first run,
    events) for each chunk of at most ``LOCKSTEP_RUNS`` rows of a batch,
    in stream order: drawing a block's rows a chunk at a time continues its
    one stream of ``random((k, 2, GROWTH_ROW))``."""
    for rng, part in blocks(seed, runs, 2 * GROWTH_ROW, ROW_CELLS):
        for lo in range(part.start, part.stop, LOCKSTEP_RUNS):
            k = min(LOCKSTEP_RUNS, part.stop - lo)
            yield rng, part.start, lo, _events(rng.random((k, 2, GROWTH_ROW)))


def _lockstep(win: _Window, chunks, runs: int, samples: np.ndarray) -> list:
    """Run the ``runs`` runs of ``chunks`` (as :func:`_event_rows` yields
    them) on ``win`` in at most ``LOCKSTEP_RUNS`` slots that advance
    together, one event each per step; a slot whose run ends takes the next
    run in chunk order.  Writes each hitting time into ``samples``, and
    returns a one-row chunk for each run that picked a border cell, to be
    rerun from its row on a wider window.  A run that uses up its row reads
    the next from its :class:`fpplab.stats.RowStream`.

    A slot keeps its frontier's cells in window order in ``front``, then
    pad cells, whose rate stays 0.  Each step writes the pad over the last
    pick's column and the pick's new neighbours after the frontier, and
    sorts that span.  The cumulative sum of the span's rates holds the
    frontier's partial sums, as the pads add 0.0, so the pick is the count
    of partial sums <= pick, capped at the last frontier cell."""
    w = 2 * win.radius + 1
    cells = w * w
    n = min(LOCKSTEP_RUNS, runs)
    slots = np.arange(n)
    home = slots.copy()  # each slot's row of rate and count, kept when slots are packed
    offset = home * (cells + 1)  # its first cell in the flat state
    pad = offset + cells  # its pad cell; front holds flat cells
    # the last pick joins (_JOINED zeroes its rate), and its neighbours gain one
    steps = np.array([0, w, -w, 1, -1])
    gain = np.array([_JOINED, 1, 1, 1, 1], np.uint8)
    spare = np.arange(1, 5)
    run = np.zeros(n, np.intp)
    t = np.zeros(n)
    # a slot's run: its next event, its last pick (which joins the cluster),
    # the pick's column in front and the frontier's last column, the pick's
    # counted; a run starts from the origin, in a column of pads
    state = np.zeros((n, 4), np.intp)
    event, site, column, last = state.T
    start_state = (0, cells // 2, 0, 0)
    rate = np.zeros((n, cells + 1))
    count = np.zeros((n, cells + 1), np.uint8)
    flat_rate, flat_count = rate.reshape(-1), count.reshape(-1)
    front = np.repeat(pad[:, None], 8, axis=1)
    events = np.empty((n, 2, GROWTH_ROW))
    first = np.empty((n, 2, GROWTH_ROW))  # the run's own row, for a rerun
    begin = np.zeros(n, np.intp)  # the first run of the run's block
    block = {}  # a block's first run: its generator
    stream = [None] * n  # (run, its RowStream) once the run has used up its row
    rerun = []
    head = next(chunks, None)  # the chunk being loaded, from its first unloaded row

    def load(free: np.ndarray) -> int:
        """Start the next runs in slots ``free``; returns how many there were."""
        nonlocal head
        loaded = 0
        while loaded < len(free) and head is not None:
            rng, start, lo, rows = head
            block[start] = rng
            s = free[loaded:loaded + len(rows)]
            rows, rest = rows[:len(s)], rows[len(s):]
            head = (rng, start, lo + len(s), rest) if len(rest) else next(chunks, None)
            run[s] = np.arange(lo, lo + len(s))
            begin[s] = start
            events[s] = first[s] = rows
            loaded += len(s)
        s = free[:loaded]
        state[s] = start_state
        t[s] = 0.0
        rate[home[s]] = 0.0
        count[home[s]] = 0
        front[s] = pad[s, None]
        return loaded

    m = load(slots)
    while m:
        slot = slots[:m]
        near = site[:m, None] + steps
        at = near + offset[:m, None]
        k = flat_count[at] + gain
        flat_count[at] = k
        flat_rate[at] = win.rates[k, near]
        new = k[:, 1:] == 1
        span = int(last[:m].max()) + 5
        if span > front.shape[1]:
            front = np.concatenate([front, np.repeat(pad[:, None], front.shape[1], axis=1)],
                                   axis=1)
        front[slot, column[:m]] = pad[:m]
        front[slot[:, None], last[:m, None] + spare] = np.where(new, at[:, 1:], pad[:m, None])
        last[:m] += new.sum(axis=1) - 1
        cell = front[:m, :span]
        cell.sort(axis=1)
        partial = np.cumsum(flat_rate[cell], axis=1)
        total = partial[:, -1]
        t[:m] += events[slot, 0, event[:m]] / total
        pick = events[slot, 1, event[:m]] * total
        event[:m] += 1
        below = partial <= pick[:, None]
        column[:m] = below.argmin(axis=1)  # the first partial sum past the pick
        if below[:, -1].any():  # a pick at the total takes the last frontier cell
            column[:m][below[:, -1]] = last[:m][below[:, -1]]
        site[:m] = cell[slot, column[:m]] - offset[:m]
        stop = win.stop[site[:m]]
        if event[:m].max() == GROWTH_ROW:
            for j in np.flatnonzero((event[:m] == GROWTH_ROW) & (stop == 0)).tolist():
                r = int(run[j])
                if stream[j] is None or stream[j][0] != r:
                    stream[j] = r, RowStream(block[begin[j]], r - begin[j])
                events[j] = _events(stream[j][1].random((2, GROWTH_ROW)))
                event[j] = 0
        if not stop.any():
            continue
        hit = stop == _HIT
        samples[run[:m][hit]] = t[:m][hit]
        for j in np.flatnonzero(stop == _OUT).tolist():
            rerun.append((block[begin[j]], int(begin[j]), int(run[j]), first[j][None].copy()))
        done = np.flatnonzero(stop)
        loaded = load(done)
        if loaded < len(done):  # the batch is used up: pack the live slots
            keep = np.ones(m, bool)
            keep[done[loaded:]] = False
            live = np.flatnonzero(keep)
            m = len(live)
            for a in (run, t, state, front, events, first, begin, home, offset, pad):
                a[:m] = a[live]
            stream[:m] = [stream[j] for j in live.tolist()]
    return rerun


def growth_samples(cfg: GrowthConfig, runs: int, seed) -> np.ndarray:
    """``runs`` hitting times; block j draws ``random((k, 2, GROWTH_ROW))``.
    Every run goes through :func:`_lockstep`, first on a window
    ``WINDOW_MARGIN`` sites past the target's largest |coordinate|; the
    runs that pick a border cell are rerun on a window twice as wide, until
    none is left.  The frontier's order does not depend on the window, so
    each time is the float of the process on the whole lattice."""
    samples = np.empty(runs)
    R = max(max(abs(x), abs(y)) for x, y in cfg.target) + WINDOW_MARGIN
    chunks = _event_rows(seed, runs)
    while runs:
        rerun = _lockstep(_window(cfg, R), chunks, runs, samples)
        chunks, runs, R = iter(rerun), len(rerun), 2 * R
    return samples


def _variance_inequality_report(samples: np.ndarray, bound_fn) -> dict:
    """The sampled claim var T <= ``bound_fn``(E T): ``runs``, ``mean``,
    ``variance``, ``bound``, ``band`` (the half-width it is judged on by
    :func:`fpplab.stats.band_verdict`), ``holds`` and ``inconclusive``."""
    if len(samples) < MIN_RUNS:
        raise ValueError(f"a variance inequality needs at least {MIN_RUNS} runs")
    stats = SampleStats.from_samples(samples)
    bound = bound_fn(stats.mean)
    # jackknife band on the variance estimate plus the bound's mean-driven wiggle
    band = BAND_SIGMAS * (stats.variance_se + abs(bound_fn(stats.mean + stats.mean_se) - bound))
    holds, inconclusive = band_verdict(stats.variance, bound, band)
    return {"runs": len(samples), "mean": stats.mean, "variance": stats.variance,
            "bound": bound, "band": band, "holds": holds, "inconclusive": inconclusive}


def prop1_check(cfg: GrowthConfig, runs: int, seed) -> dict:
    """Monte Carlo check of var T <= E T / c_lo for the growth process."""
    return _variance_inequality_report(growth_samples(cfg, runs, seed), lambda m: m / cfg.c_lo)


# ---------------------------------------------------------------------------
# Coverage

def _vertices(u: np.ndarray, n: int) -> np.ndarray:
    """Uniforms as vertices ⌊u·n⌋; the clamp to n - 1 catches a product
    u·n that rounds up to n."""
    u *= n
    np.minimum(u, n - 1, out=u)
    return u.astype(np.intp)


def _closed_csr(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(first entry of each row, entries): row v of the CSR lists v's
    closed neighbourhood N[v], v itself first, so no row is empty."""
    start, nbr, _ = g.csr
    return start[:-1] + np.arange(g.n), np.insert(nbr, start[:-1], np.arange(g.n))


def coverage_samples(g: WeightedGraph, runs: int, seed) -> np.ndarray:
    """``runs`` coverage draw counts; block j draws ``random((k,
    COVERAGE_ROW))``, vertices ⌊u·n⌋.  With F_u the index of u's first draw
    in a run's row (the row's length when u is not drawn), the count is T =
    1 + max_v min over N[v] of F_u, the draw that covers the last vertex.
    A run whose row leaves a vertex uncovered reads ``COVERAGE_ROW`` more
    draws from its :class:`fpplab.stats.RowStream` and goes through again.
    A block's rows go through in chunks whose (rows, n + 2m) table of
    first draws over the closed neighbourhoods fits ``ROW_CELLS``; a row's
    stream is the row's index in its block, so the chunks change no count."""
    samples = np.empty(runs)
    start, closed = _closed_csr(g)
    step = max(1, ROW_CELLS // len(closed))
    for rng, part in blocks(seed, runs, COVERAGE_ROW, ROW_CELLS):
        block = _vertices(rng.random((part.stop - part.start, COVERAGE_ROW)), g.n)
        for r0 in range(0, len(block), step):
            draws = block[r0:r0 + step]
            rows = np.arange(r0, r0 + len(draws))
            streams = {}
            while True:
                k, width = draws.shape
                first = np.full((k, g.n), width)
                np.minimum.at(first, (np.arange(k)[:, None], draws), np.arange(width))
                t = np.minimum.reduceat(first[:, closed], start, axis=1).max(axis=1)
                done = t < width
                samples[part.start + rows[done]] = t[done] + 1
                late = np.flatnonzero(~done)
                if not len(late):
                    break
                rows, draws = rows[late], draws[late]
                streams = {r: streams.get(r) or RowStream(rng, r) for r in rows.tolist()}
                more = [_vertices(stream.random(COVERAGE_ROW), g.n)
                        for stream in streams.values()]
                draws = np.hstack([draws, np.array(more)])
    return samples


def coverage_chain_spec(g: WeightedGraph) -> ChainSpec:
    """Chain on the set of drawn vertices, read as jump probabilities: each
    step adds a uniform vertex (self-loop when already drawn); absorbed
    once the closed neighborhood of the drawn set covers everything."""
    n = g.n
    nbhd = [1 << v for v in range(n)]
    for u, v in g.edge_array().tolist():
        nbhd[u] |= 1 << v
        nbhd[v] |= 1 << u
    full = (1 << n) - 1

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


def prop3_check(g: WeightedGraph, runs: int, seed) -> dict:
    """Monte Carlo check of var T <= n * E T for the coverage process."""
    return _variance_inequality_report(coverage_samples(g, runs, seed), lambda m: g.n * m)
