"""Reference growth simulator: rebuild the frontier after every arrival.

This is the straightforward event loop for Richardson growth on Z^2 that
``fpplab.growth.growth_hitting_time`` replaces with an incrementally kept
frontier.  Each step it recomputes the sorted frontier from the whole
cluster, re-rates every frontier site and picks the next site by a linear
scan of the partial rate sums, so it relies on no locality of the rate
function and serves as the oracle in ``test_growth.py``: on the same
generator both must return the same float.
"""

from __future__ import annotations

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
    while True:
        sites = frontier(cluster)
        rates = [cfg.rate_fn(cluster, v) for v in sites]
        for r in rates:
            if not (cfg.c_lo - 1e-12 <= r <= cfg.c_hi + 1e-12):
                raise ValueError(f"rate {r} escapes the stated bounds [{cfg.c_lo}, {cfg.c_hi}]")
        total = sum(rates)
        t += rng.exponential(1.0 / total)
        pick = rng.random() * total
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
