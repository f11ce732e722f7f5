"""Exact hitting-time analysis of finite increasing set-valued Markov chains.

States are integer bitmasks partially ordered by inclusion; every
transition strictly enlarges the state, so the popcount rises along every
transition and the reachable graph is a DAG layered by popcount.  The
solver keeps the reachable states in an int64 array grouped by layer and
the transitions in flat ``(src, dst, rate)`` arrays (int32 state indices),
and evaluates every quantity with whole-layer array sweeps, so no
temporary is as large as the whole chain:

* ``h(S)``        mean remaining hitting time (backward layer sweep)
* ``visit_prob``  probability the chain ever visits S (forward scatter-add)
* ``E T``         sum of expected occupation times
* ``var T``       occupation-measure sum of per-state quadratic variation

One spec is read as rates (``solve_hitting``)
or as jump probabilities, the leftover mass a self-loop (``solve_discrete``,
``continuization_check``); the second reading continuized is the first.
``continuization_check`` reads a whole list of specs both ways at once:
it tags every spec's states with the spec's index and solves the tagged
chains as one chain with one root per spec.

Every chain is enumerated by one layered pass from its roots: a layer is
expanded at once by the spec's ``expand`` (the FPP chain) or, for a spec
that lists transitions one state at a time, by an adapter that calls
``transitions`` per state and validates every transition.  A successor
may skip layers, so it gets its state index only when its own layer
comes up.  The full FPP chain of K20 (2^19 states) solves in about a
second; the CLI solves every graph on its twin-class counts, K17 in 32
states, which on a twin-free graph, such as a grid, are the vertex
subsets.  The variance and unit-drift identities double as free
exactness tests of the solver.  The Lemma 1 and 2 and continuization
checks return plain dicts, keyed as ``report.json`` keys them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .graphs import CapacityError

STATE_CAP = 1 << 20
ABS_TOL = 1e-9  # exact identities, <= 2^20 double-precision additions
REL_TOL = 1e-9  # a dimensioned inequality, relative to its own scale


class UnreachableTargetError(RuntimeError):
    """Some reachable state cannot reach the target collection."""


class ChainValidationError(ValueError):
    pass


@dataclass(frozen=True)
class ChainSpec:
    """An increasing chain: initial bitmask state, transition enumerator
    (strictly increasing, positive numbers), and a target predicate.  The
    numbers are rates or jump probabilities, as the solver reads them.

    ``expand`` optionally enumerates a whole layer at once: given an int64
    array of states of one popcount it returns ``(is_target, src, dst,
    rate)``, the target flag per state and every transition out of the
    non-target states (``src`` indexes the input array, ``dst`` holds
    successor bitmasks).  Without it, ``transitions`` is called once per
    non-target state."""

    initial: int
    transitions: Callable[[int], list[tuple[int, float]]]
    is_target: Callable[[int], bool]
    expand: Callable[[np.ndarray], tuple] | None = None


@dataclass(frozen=True)
class _Chain:
    """States reachable from the roots in popcount layers, each layer
    sorted by bitmask (a single root is ``states[0]``), and the transitions
    sorted by source index."""

    roots: np.ndarray      # int32 state index per root
    states: np.ndarray     # int64 bitmasks
    is_target: np.ndarray  # bool per state
    layers: np.ndarray     # state offsets of the layers, len(layers) = #layers + 1
    src: np.ndarray        # int32 state index, nondecreasing
    dst: np.ndarray        # int32 state index, always in a later layer
    rate: np.ndarray

    @cached_property
    def out_rate(self) -> np.ndarray:
        out = np.zeros(len(self.states))
        for lo, hi, e0, e1 in self.layer_slices:
            out[lo:hi] = np.bincount(self.src[e0:e1] - lo, self.rate[e0:e1], minlength=hi - lo)
        return out

    @cached_property
    def layer_slices(self) -> list[tuple[int, int, int, int]]:
        """(first state, end state, first edge, end edge) per layer."""
        edges = np.searchsorted(self.src, self.layers)
        return list(zip(self.layers[:-1].tolist(), self.layers[1:].tolist(),
                        edges[:-1].tolist(), edges[1:].tolist()))


@dataclass
class ExactSolution:
    """Per-state arrays are aligned with ``states``; ``states[0]`` is the
    initial state.  Target states have zero ``h``, time, ``a`` and ``b``."""

    states: np.ndarray
    is_target: np.ndarray
    h: np.ndarray
    visit_prob: np.ndarray
    expected_time_in: np.ndarray
    E_T: float
    var_T: float
    kappa: float
    a: np.ndarray
    b: np.ndarray
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    rate: np.ndarray = field(repr=False)
    decrement: np.ndarray = field(repr=False)  # h[src] - h[dst] per transition

    @property
    def initial(self) -> int:
        return int(self.states[0])

    def monotone_h(self) -> bool:
        """h never increases along any enumerated transition, up to
        rounding: a decrement may fall 1e-12 h(initial) below 0, a bound
        that scales with the rates as h does."""
        return bool(np.all(self.decrement >= -1e-12 * self.h[0]))


def _enumerate(expand, roots: list[int], name=hex) -> _Chain:
    """Expand one popcount layer at a time by ``expand`` (a spec's own, or
    ``_expand_transitions``), starting from ``roots``.  A successor may
    skip layers: it waits in ``pending`` under its popcount and gets its
    state index when its own layer is popped.  ``STATE_CAP`` is checked
    before a layer is expanded; ``name`` formats a state for an error."""
    cap = STATE_CAP
    # popcount -> [(masks, the int32 array of their state indices, their slots)]
    pending = {}
    root_index = _wait(pending, _masks(roots))
    parts = {key: [] for key in ("states", "is_target", "src", "dst", "rate")}
    bounds = [0]
    while pending:
        waiting = pending.pop(min(pending))
        layer, index = np.unique(np.concatenate([m for m, _, _ in waiting]), return_inverse=True)
        lo = bounds[-1]
        bounds.append(lo + layer.size)
        if bounds[-1] > cap:
            raise CapacityError(f"reachable state count exceeds cap {cap}")
        start = 0
        for part, dst, where in waiting:
            dst[where] = index[start:start + part.size] + lo
            start += part.size
        del waiting, index
        is_target, src, successors, rate = expand(layer)
        dst = _wait(pending, successors)
        for key, part in zip(parts, (layer, is_target, (src + lo).astype(np.int32), dst, rate)):
            parts[key].append(part)
    # one field at a time, each layer's parts freed before the next join,
    # so no two whole-chain copies of a field are alive together
    chain = _Chain(roots=root_index, layers=np.array(bounds),
                   **{k: _join(pieces) for k, pieces in parts.items()})
    stuck = chain.states[(chain.out_rate == 0) & ~chain.is_target]
    if stuck.size:
        raise UnreachableTargetError(
            f"state {name(int(stuck[0]))} has no outgoing transitions and is not a target"
        )
    if not chain.is_target.any():
        raise UnreachableTargetError("no target state reachable from the initial state")
    return chain


def _wait(pending: dict, masks: np.ndarray) -> np.ndarray:
    """File ``masks`` in ``pending`` under their popcounts; the returned
    int32 array receives their state indices as their layers are popped."""
    index = np.empty(masks.size, dtype=np.int32)
    popcount = np.bitwise_count(masks)
    counts = np.flatnonzero(np.bincount(popcount)).tolist()
    for count in counts:
        where = slice(None) if len(counts) == 1 else popcount == count
        pending.setdefault(count, []).append((masks[where], index, where))
    return index


def _spec_chain(spec: ChainSpec, kind: str) -> _Chain:
    """The chain reachable from ``spec.initial``, its numbers read as ``kind``."""
    expand = spec.expand or _expand_transitions(spec.transitions, spec.is_target, kind)
    return _enumerate(expand, [spec.initial])


def _join(pieces: list[np.ndarray]) -> np.ndarray:
    joined = np.concatenate(pieces)
    pieces.clear()
    return joined


def _masks(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise CapacityError("state bitmasks wider than 63 bits") from None


def _expand_transitions(transitions, is_target, kind: str, name=hex):
    """``expand`` for a spec that lists its transitions one state at a
    time; target states are not expanded, and every transition out of the
    others is validated.  ``name`` formats a state for an error."""
    def expand(layer: np.ndarray):
        target = np.zeros(layer.size, dtype=bool)
        src, dst, rates = [], [], []
        for i, s in enumerate(layer.tolist()):
            if is_target(s):
                target[i] = True
                continue
            total = 0.0
            for s2, q in transitions(s):
                if not (q > 0):
                    raise ChainValidationError(
                        f"nonpositive {kind} {q} on {name(s)} -> {name(s2)}")
                if (s & s2) != s or s2 == s:
                    raise ChainValidationError(
                        f"transition {name(s)} -> {name(s2)} does not strictly increase the state"
                    )
                src.append(i)
                dst.append(s2)
                rates.append(q)
                total += q
            if kind == "probability" and total > 1.0 + 1e-12:
                raise ChainValidationError(f"probabilities out of {name(s)} sum to {total} > 1")
        return target, np.array(src, dtype=np.intp), _masks(dst), np.array(rates, dtype=float)
    return expand


def _backward(chain: _Chain, step, count: int) -> np.ndarray:
    """Fill ``count`` per-state value arrays from the top layer down.
    ``step(q, *sums)`` receives the out-rate of a layer's non-target states
    and, per array, their rate-weighted sums of successor values, and
    returns the new values; target states keep 0."""
    values = np.zeros((count, len(chain.states)))
    q_all = chain.out_rate
    for lo, hi, e0, e1 in reversed(chain.layer_slices):
        if e0 == e1:
            continue
        local = chain.src[e0:e1] - lo
        rate = chain.rate[e0:e1]
        dst = chain.dst[e0:e1]
        live = np.flatnonzero(q_all[lo:hi] > 0)
        sums = [np.bincount(local, rate * v[dst], minlength=hi - lo)[live] for v in values]
        for v, new in zip(values, step(q_all[lo:hi][live], *sums)):
            v[lo + live] = new
    return values


def _solve(chain: _Chain) -> ExactSolution:
    """Every root gets visit probability 1, so a chain of several roots
    holds each root's own occupation times side by side, and ``E_T`` and
    ``var_T`` are their sums over the roots."""
    n = len(chain.states)
    src, dst, rate = chain.src, chain.dst, chain.rate
    q = chain.out_rate
    (h,) = _backward(chain, lambda q_tot, s: ((1.0 + s) / q_tot,), 1)

    visit_prob = np.zeros(n)
    visit_prob[chain.roots] = 1.0
    decrement = np.empty(len(src))
    a, b = np.zeros(n), np.zeros(n)
    for lo, hi, e0, e1 in chain.layer_slices:  # predecessors first
        if e0 == e1:
            continue
        s, d, r = src[e0:e1], dst[e0:e1], rate[e0:e1]
        flow = visit_prob[s] * r / q[s]
        top = int(d.max()) + 1
        visit_prob[hi:top] += np.bincount(d - hi, flow, minlength=top - hi)
        dec = decrement[e0:e1]
        np.subtract(h[s], h[d], out=dec)
        local = s - lo
        a[lo:hi] = np.bincount(local, r * dec**2, minlength=hi - lo)
        b[lo:hi] = np.bincount(local, r * dec, minlength=hi - lo)

    live = q > 0
    expected_time_in = np.zeros(n)
    expected_time_in[live] = visit_prob[live] / q[live]
    return ExactSolution(
        states=chain.states, is_target=chain.is_target, h=h, visit_prob=visit_prob,
        expected_time_in=expected_time_in, E_T=float(expected_time_in.sum()),
        var_T=float(np.dot(expected_time_in, a)),
        kappa=float(decrement.max()) if decrement.size else 0.0, a=a, b=b,
        src=src, dst=dst, rate=rate, decrement=decrement,
    )


def solve_hitting(spec: ChainSpec) -> ExactSolution:
    """Exactly solve mean, variance, visit probabilities and occupation
    times of the hitting time of the target collection (numbers as rates)."""
    return _solve(_spec_chain(spec, "rate"))


def _discrete_step(move, sum_n, sum_m2):
    n = (1.0 + sum_n) / move
    # N = 1 + N' where N' restarts at the state with prob 1 - move
    return n, (1.0 + 2.0 * ((1.0 - move) * n + sum_n) + sum_m2) / move


def _discrete_moments(chain: _Chain) -> tuple[np.ndarray, np.ndarray]:
    """(mean, variance) of the step count from each root."""
    n, m2 = _backward(chain, _discrete_step, 2)
    n, m2 = n[chain.roots], m2[chain.roots]
    return n, m2 - n**2


def solve_discrete(spec: ChainSpec) -> tuple[float, float]:
    """(mean, variance) of the step count until the target (numbers as
    jump probabilities, the mass they leave at a state a self-loop)."""
    mean, var = _discrete_moments(_spec_chain(spec, "probability"))
    return float(mean[0]), float(var[0])


def lemma1_bound(sol: ExactSolution) -> dict:
    """var T / E T <= kappa, valid whenever h is monotone along transitions:
    ``kappa`` (the largest h-decrement), ``var_over_mean``, ``monotone``
    (:meth:`ExactSolution.monotone_h`) and ``holds``."""
    mono = sol.monotone_h()
    ratio = sol.var_T / sol.E_T
    return {"kappa": sol.kappa, "var_over_mean": ratio, "monotone": mono,
            "holds": mono and ratio <= sol.kappa * (1.0 + REL_TOL)}


def large_decrement_outflow(sol: ExactSolution, delta: float) -> np.ndarray:
    """q_delta per state of the solution: the rate-weighted sum of its
    decrements above 2*delta*E T.

    The threshold takes E T as h(initial), the same float the decrements
    are formed from, times 1 + ``REL_TOL``: a decrement is at most h(S) <=
    h(initial), equal when S adds only vertices that open no route, and
    rounding must not lift such a jump above the delta = 0.5 threshold.
    That moves Lemma 2's bound by 2*delta*REL_TOL, inside ``ABS_TOL``."""
    large = sol.decrement > 2.0 * delta * sol.h[0] * (1.0 + REL_TOL)
    return np.bincount(sol.src[large], sol.rate[large] * sol.decrement[large],
                       minlength=len(sol.states))


def lemma2_grid(sol: ExactSolution, deltas, epsilons) -> list[dict]:
    """var T/(E T)^2 <= 2*delta + epsilon + (bad occupation time)/(E T) at
    every (delta, epsilon) of the grid, delta-major, where a state is bad
    when its :func:`large_decrement_outflow` q_delta(S) is at least
    epsilon.  Everything on the right is evaluated exactly from the
    occupation measure; q_delta is built once per delta.  Each cell is
    ``delta``, ``epsilon``, ``lhs``, ``rhs``, ``occupation_bad`` (the
    expected time in bad states) and ``holds``."""
    if not (all(d > 0 for d in deltas) and all(e > 0 for e in epsilons)):
        raise ValueError("delta and epsilon must be positive")
    lhs = sol.var_T / sol.E_T**2
    cells = []
    for delta in deltas:
        q_delta = large_decrement_outflow(sol, delta)
        for epsilon in epsilons:
            occupation_bad = float(sol.expected_time_in[q_delta >= epsilon].sum())
            rhs = 2.0 * delta + epsilon + occupation_bad / sol.E_T
            cells.append({"delta": delta, "epsilon": epsilon, "lhs": lhs, "rhs": rhs,
                          "occupation_bad": occupation_bad, "holds": lhs <= rhs + ABS_TOL})
    return cells


def continuization_check(specs: list[ChainSpec]) -> list[dict]:
    """Check E T_cont = E T_disc and var T_cont = var T_disc + E T_disc to
    1e-10 for every spec by solving both readings of it exactly; one report
    per spec: ``mean_disc``, ``var_disc``, ``mean_cont``, ``var_cont``,
    ``mean_error``, ``var_error`` and ``holds``.  Requires the
    probabilities out of every non-target state to sum to 1 (no
    self-loops).

    The specs are solved as one chain read through their ``transitions``:
    state S of spec i becomes ``S << t | (i + 1)``, where t bits hold every
    tag, and each spec's initial state is a root.  A spec's moments are read
    off its own states gathered in index order, which is its own chain's
    order, so every report equals that of the spec checked alone, bit for
    bit."""
    if not specs:
        return []
    t = len(specs).bit_length()
    low = (1 << t) - 1

    def name(key):
        return f"spec {(key & low) - 1} state {key >> t:#x}"

    def transitions(key):
        tag = key & low
        return [(s << t | tag, q) for s, q in specs[tag - 1].transitions(key >> t)]

    def is_target(key):
        return specs[(key & low) - 1].is_target(key >> t)

    chain = _enumerate(_expand_transitions(transitions, is_target, "probability", name),
                       [spec.initial << t | i + 1 for i, spec in enumerate(specs)], name)
    total = chain.out_rate
    off = np.flatnonzero(~chain.is_target & (np.abs(total - 1.0) > 1e-12))
    if off.size:
        raise ChainValidationError(
            f"probabilities out of {name(int(chain.states[off[0]]))} sum to {total[off[0]]},"
            " expected 1"
        )
    means_disc, vars_disc = _discrete_moments(chain)
    cont = _solve(chain)  # the continuized chain has the same transitions
    tags = chain.states & low
    order = np.argsort(tags, kind="stable")
    ends = np.searchsorted(tags[order], np.arange(1, len(specs) + 2)).tolist()
    reports = []
    for i, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
        own = order[lo:hi]
        time_in = cont.expected_time_in[own]
        mean_cont, var_cont = float(time_in.sum()), float(np.dot(time_in, cont.a[own]))
        mean_disc, var_disc = float(means_disc[i]), float(vars_disc[i])
        mean_err = abs(mean_cont - mean_disc)
        var_err = abs(var_cont - (var_disc + mean_disc))
        reports.append({
            "mean_disc": mean_disc, "var_disc": var_disc, "mean_cont": mean_cont,
            "var_cont": var_cont, "mean_error": mean_err, "var_error": var_err,
            "holds": mean_err <= 1e-10 and var_err <= 1e-10,
        })
    return reports
