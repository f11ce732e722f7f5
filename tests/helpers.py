"""Checks that only the tests call, kept out of the package.

``lemma2_bound`` is one cell of :func:`fpplab.chain.lemma2_grid`,
``max_identity_error`` reads the unit-drift identity off an
:class:`fpplab.chain.ExactSolution`, and ``validate_rate_monotone`` samples
the growth rate contract of :class:`fpplab.growth.GrowthConfig`.
"""

from __future__ import annotations

import numpy as np

from fpplab.chain import ExactSolution, Lemma2Report, lemma2_grid
from reference_growth import frontier


def lemma2_bound(sol: ExactSolution, delta: float, epsilon: float) -> Lemma2Report:
    """Lemma 2 at one (delta, epsilon); see ``lemma2_grid``."""
    return lemma2_grid(sol, [delta], [epsilon])[0]


def max_identity_error(sol: ExactSolution) -> float:
    """Worst deviation of the unit-drift identity b(S) = 1 over reachable
    non-target states."""
    live = ~sol.is_target
    return float(np.abs(sol.b[live] - 1.0).max()) if live.any() else 0.0


class RateMonotonicityError(ValueError):
    """The supplied rate function decreases when the cluster grows."""


def validate_rate_monotone(rate_fn, rng: np.random.Generator) -> None:
    """Sampled check, on 200 random clusters, of the growth condition and
    the locality contract: adding a site to the cluster never lowers any
    frontier rate, and adding a site that is not a lattice neighbour of v
    leaves the rate at v unchanged.  Raises on a violation."""
    for _ in range(200):
        cluster = {(0, 0)}
        for _ in range(int(rng.integers(0, 8))):
            sites = frontier(cluster)
            cluster.add(sites[int(rng.integers(len(sites)))])
        sites = frontier(cluster)
        i, j = rng.choice(len(sites), size=2, replace=False)
        v, v2 = sites[int(i)], sites[int(j)]
        before = rate_fn(cluster, v)
        after = rate_fn(cluster | {v2}, v)
        if after < before - 1e-12:
            raise RateMonotonicityError(
                f"rate at {v} dropped from {before} to {after} when adding {v2}"
            )
        far = [w for w in sites if abs(w[0] - v[0]) + abs(w[1] - v[1]) > 1]
        if far:
            w = far[int(rng.integers(len(far)))]
            if rate_fn(cluster | {w}, v) != before:
                raise ValueError(f"rate at {v} changed when adding {w}, "
                                 f"which is not one of its lattice neighbours")
