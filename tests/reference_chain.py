"""Reference exact solver: dict-of-states recursions, one state at a time.

This is the straightforward implementation of the hitting-time formulas
that ``fpplab.chain`` evaluates with layered array sweeps.  It walks the
callable ``transitions`` / ``is_target`` interface of a chain spec, so it
shares no code with the array core and serves as its oracle in
``test_chain_oracle.py``.  ``fpp_spec`` is the FPP reached-set chain's rate
rule written one state at a time, the reference for ``fpp_chain_spec``'s
layer rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace


@dataclass
class ReferenceSolution:
    h: dict[int, float]
    visit_prob: dict[int, float]
    expected_time_in: dict[int, float]
    E_T: float
    var_T: float
    kappa: float
    transitions: dict[int, list[tuple[int, float]]]
    initial: int

    def monotone_h(self, tol: float = 1e-12) -> bool:
        for s, outs in self.transitions.items():
            for s2, _ in outs:
                if self.h[s2] > self.h[s] + tol:
                    return False
        return True


def fpp_spec(g, source: int, target: int):
    """The reached-vertex-set chain of FPP on ``g``: from S, vertex y joins
    at w(S, y), the rates of the edges from S into y summed over the
    members of S in increasing order; successors in increasing y."""
    weights = g.weight_array().tolist()

    def transitions(mask: int):
        rates: dict[int, float] = {}
        for s in range(g.n):
            if not (mask >> s) & 1:
                continue
            for y, e in g.neighbors(s):
                if not (mask >> y) & 1:
                    rates[y] = rates.get(y, 0.0) + weights[e]
        return [(mask | (1 << y), w) for y, w in sorted(rates.items())]

    return SimpleNamespace(initial=1 << source, transitions=transitions,
                           is_target=lambda mask: bool((mask >> target) & 1))


def _enumerate_reachable(spec):
    seen = {spec.initial}
    stack = [spec.initial]
    transitions: dict[int, list[tuple[int, float]]] = {}
    while stack:
        s = stack.pop()
        if spec.is_target(s):
            continue
        outs = spec.transitions(s)
        for s2, _ in outs:
            if s2 not in seen:
                seen.add(s2)
                stack.append(s2)
        transitions[s] = outs
    return seen, transitions


def solve_hitting(spec) -> ReferenceSolution:
    states, transitions = _enumerate_reachable(spec)
    # decreasing popcount, ties by bitmask value: successors come first
    order = sorted(states, key=lambda s: (-s.bit_count(), s))

    h = {s: 0.0 for s in states if s not in transitions}
    for s in order:
        if s not in transitions:
            continue
        outs = transitions[s]
        q_tot = sum(q for _, q in outs)
        h[s] = (1.0 + sum(q * h[s2] for s2, q in outs)) / q_tot

    visit_prob = {s: 0.0 for s in states}
    visit_prob[spec.initial] = 1.0
    for s in reversed(order):  # increasing popcount: predecessors first
        if s not in transitions:
            continue
        outs = transitions[s]
        q_tot = sum(q for _, q in outs)
        for s2, q in outs:
            visit_prob[s2] += visit_prob[s] * q / q_tot

    expected_time_in = {}
    E_T = var_T = kappa = 0.0
    for s, outs in transitions.items():
        q_tot = sum(q for _, q in outs)
        expected_time_in[s] = visit_prob[s] / q_tot
        a = sum(q * (h[s] - h[s2]) ** 2 for s2, q in outs)
        kappa = max(kappa, max(h[s] - h[s2] for s2, _ in outs))
        E_T += expected_time_in[s]
        var_T += expected_time_in[s] * a
    return ReferenceSolution(h=h, visit_prob=visit_prob, expected_time_in=expected_time_in,
                             E_T=E_T, var_T=var_T, kappa=kappa, transitions=transitions,
                             initial=spec.initial)


def lemma1_holds(sol: ReferenceSolution, tol: float) -> bool:
    return sol.monotone_h() and sol.var_T / sol.E_T <= sol.kappa + tol


def lemma2_bad_states(sol: ReferenceSolution, delta: float, epsilon: float) -> set[int]:
    """States whose outflow along decrements above 2*delta*h(initial)
    (raised by a relative 1e-9, as ``lemma2_grid`` raises it) is at least
    epsilon."""
    threshold = 2.0 * delta * sol.h[sol.initial] * (1.0 + 1e-9)
    bad = set()
    for s, outs in sol.transitions.items():
        qd = sum(q * (sol.h[s] - sol.h[s2]) for s2, q in outs
                 if sol.h[s] - sol.h[s2] > threshold)
        if qd >= epsilon:
            bad.add(s)
    return bad
