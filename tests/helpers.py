"""Checks that only the tests call, kept out of the package.

``lemma2_bound`` is one cell of :func:`fpplab.chain.lemma2_grid`,
``max_identity_error`` reads the unit-drift identity off an
:class:`fpplab.chain.ExactSolution`, ``variance_by_first_step`` is a second
route to its moments, ``max_spanning_tree_packing`` counts trees with
:class:`fpplab.multigraph.ForestUnion`, and ``validate_rate_monotone``
samples the growth condition of :class:`fpplab.growth.GrowthConfig`'s rate.
"""

from __future__ import annotations

import numpy as np

from fpplab import chain
from fpplab.chain import ChainSpec, ExactSolution, Lemma2Report, lemma2_grid
from fpplab.graphs import Multigraph
from fpplab.multigraph import ForestUnion


def lemma2_bound(sol: ExactSolution, delta: float, epsilon: float) -> Lemma2Report:
    """Lemma 2 at one (delta, epsilon); see ``lemma2_grid``."""
    return lemma2_grid(sol, [delta], [epsilon])[0]


def max_identity_error(sol: ExactSolution) -> float:
    """Worst deviation of the unit-drift identity b(S) = 1 over reachable
    non-target states."""
    live = ~sol.is_target
    return float(np.abs(sol.b[live] - 1.0).max()) if live.any() else 0.0


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


def max_spanning_tree_packing(m: Multigraph) -> int:
    """Maximum number of edge-disjoint spanning trees (0 if the multigraph
    is disconnected): one union, grown while all its forests span."""
    n = m.base.n
    if n <= 1:
        return 0
    union = ForestUnion.of(m)
    while union.rank == len(union.forests) * (n - 1):
        union.grow()
    return len(union.forests) - 1


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
