"""Batch experiment front end.

Scenarios are JSON configs naming a process, a graph source, and a list of
checks; the runner executes every check, writes ``report.json`` plus
per-run CSVs, and prints a summary table.  Everything downstream of
(config, seed) is deterministic: Monte Carlo run i of a check reads row
i % B of the block seeded by child i // B of the check's seed
(:func:`fpplab.stats.blocks`).  The checks on (X, Xi) share one FPP
sample per scenario, drawn from ``check_seed("fpp")``.  A check's result
is the plain dict its library function returns, or one built from them.

Exit codes: 0 all hard assertions pass, 1 assertion failure,
2 usage/config error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from collections import Counter
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, chain
from .chain import (
    ChainSpec,
    continuization_check,
    lemma1_bound,
    lemma2_grid,
    solve_hitting,
)
from .fpp import (
    fpp_chain_spec,
    prop4_check,
    sample_coupling_batch,
    sample_fpp_batch,
    submultiplicativity_probe,
)
from .graphs import (
    CapacityError,
    EXACT_CAP,
    FAMILIES,
    GraphParseError,
    GraphValidationError,
    WeightedGraph,
    bridge_graph,
    complete_graph,
    grid_graph,
    min_cut_weight,
    parse_edge_list,
    twin_classes,
)
from .growth import GrowthConfig, prop1_check, prop3_check
from .multigraph import a_k_eval, prop2_check, sample_stopping_times
from .stats import (
    BAND_SIGMAS,
    MIN_RUNS,
    SampleStats,
    band_verdict,
    modulus_terms,
    psi_minus_eval,
    python_values,
    theorem1_lower_check,
    theorem1_trend_experiment,
)

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

# a built-in family with more edges is a capacity error before it is built
# (complete(400) has 79 800 edges and takes about 36 MB)
FAMILY_EDGE_CAP = 100_000

# _random_discrete_chains draws this many candidate successors per state and
# round, for at most RANDOM_ROWS states a round, so a round's draws stay
# under about 4096 * 8 * 63 doubles (16 MB) whatever the frontier's size
RANDOM_CANDIDATES = 8
RANDOM_ROWS = 4096


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Check catalog

CHECKS: dict[str, dict] = {}


def _register(name, processes, anchor, statement, min_runs=3, parse=lambda params: {}):
    """``parse`` turns the check's config entry into the parameters ``fn``
    receives, raising ConfigError; every entry is parsed before any check
    runs, and the parameters gain the check's run count, ``runs``.
    ``fn(ctx, params)`` returns (result, passed), the result the dict that
    ``report.json`` holds, which the runner makes JSON-ready
    (:func:`_clean`: numpy scalars, infinities)."""
    def wrap(fn):
        CHECKS[name] = {"fn": fn, "parse": parse, "processes": processes, "anchor": anchor,
                        "statement": statement, "min_runs": min_runs}
        return fn
    return wrap


class _Context:
    """What a scenario's checks share, each made on first use: the graph,
    its twin classes, the chain solution and one FPP sample of (X, Xi),
    drawn from ``check_seed("fpp")`` at the config's ``runs``, which every
    check on (X, Xi) reads."""

    def __init__(self, cfg, seed, out_dir):
        self.cfg = cfg
        self.seed = seed
        self.out_dir = out_dir
        self._graph = None
        self._label = None
        self._solution = None
        self._fpp = None

    def graph(self) -> WeightedGraph:
        if self._graph is None:
            self._graph = _load_graph(self.cfg, self.seed)
        return self._graph

    def endpoints(self):
        g = self.graph()
        src = self.cfg.get("source")
        dst = self.cfg.get("target")
        for name in (src, dst):
            if name is not None and name not in g.vertices:
                raise ConfigError(f"vertex {name!r} not in the graph")
        s = g.vertices.index(src) if src is not None else 0
        t = g.vertices.index(dst) if dst is not None else g.n - 1
        if s == t:
            raise ConfigError("source and target coincide")
        return s, t

    def twin_label(self):
        if self._label is None:
            self._label = twin_classes(self.graph(), *self.endpoints())
        return self._label

    def solution(self):
        if self._solution is None:
            g, (s, t) = self.graph(), self.endpoints()
            # the cap comes before the (n, n) twin test, which a long path cannot afford
            if g.n > EXACT_CAP:
                raise CapacityError(f"|V|={g.n} exceeds exact-solver cap {EXACT_CAP}")
            # on twin-class counts; a twin-free graph has one class per vertex
            self._solution = solve_hitting(fpp_chain_spec(g, s, t, self.twin_label()))
        return self._solution

    def fpp_batch(self, runs):
        if self._fpp is None:
            s, t = self.endpoints()
            self._fpp = sample_fpp_batch(self.graph(), s, t, runs, self.check_seed("fpp"),
                                         label=self.twin_label())
        return self._fpp

    def check_seed(self, name):
        return np.random.SeedSequence([self.seed, _stable_hash(name)])

    def write(self, name, head, lines=()):
        """Write ``head`` and then each of ``lines`` as the output file
        ``name``.  Without an output directory nothing is written and
        ``lines``, often a generator, is never read; a file the OS refuses
        is a ConfigError."""
        if self.out_dir is None:
            return
        path = self.out_dir / name
        try:
            path.write_text("\n".join([head, *lines]) + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from None


def _stable_hash(name: str) -> int:
    h = 0
    for ch in name:
        h = (h * 131 + ord(ch)) & 0x7FFFFFFF
    return h


@_register("lemma1", ("fpp",), "Lemma 1", "var T / E T <= kappa (max h-decrement)")
def _check_lemma1(ctx, params):
    rep = lemma1_bound(ctx.solution())
    return rep, rep["holds"]


def _lemma2_params(params):
    return {"deltas": _deltas(params, "lemma2", [0.05, 0.1, 0.2, 0.5]),
            "epsilons": _list(params.get("epsilons", [0.05, 0.1, 0.2, 0.5]), "lemma2 epsilons",
                              lambda v: _real(v, "lemma2 epsilon", 0.0))}


@_register("lemma2", ("fpp",), "Lemma 2",
           "var T/(E T)^2 <= 2d + e + occupation of {q_d >= e}/E T", parse=_lemma2_params)
def _check_lemma2(ctx, params):
    grid = lemma2_grid(ctx.solution(), params["deltas"], params["epsilons"])
    return {"grid": grid}, all(cell["holds"] for cell in grid)


@_register("prop4", ("fpp",), "Proposition 4", "var X <= E X / w_min")
def _check_prop4(ctx, params):
    rep = prop4_check(ctx.solution(), ctx.graph())
    return rep, rep["holds"]


@_register("continuization", ("fpp", "bounds"), "continuization identity",
           "E T_cont = E T_disc and var T_cont = var T_disc + E T_disc",
           parse=lambda params: {
               "count": _integer(params.get("count", 50), "continuization count", 1),
               "bits": _integer(params.get("bits", 8), "continuization bits", 1)})
def _check_continuization(ctx, params):
    count = params["count"]
    rng = np.random.default_rng(ctx.check_seed("continuization"))
    reps = continuization_check(_random_discrete_chains(rng, count, params["bits"]))
    worst_mean = max(rep["mean_error"] for rep in reps)
    worst_var = max(rep["var_error"] for rep in reps)
    return ({"chains": count, "worst_mean_error": worst_mean, "worst_var_error": worst_var},
            all(rep["holds"] for rep in reps))


@_register("dual_agreement", ("fpp",), "subset-chain formulation",
           "MC mean/var of X agree with the exact chain solution within 4 sigma")
def _check_dual_agreement(ctx, params):
    sol = ctx.solution()  # first: a graph past the exact cap exits before sampling
    batch = ctx.fpp_batch(params["runs"])
    ctx.write("dual_agreement_runs.csv", "run_index,X,Xi,path_len",
              (f"{i},{x!r},{xi!r},{plen}" for i, x, xi, plen in batch.rows()))
    stats = SampleStats.from_samples(batch.X)
    result = {"mc_mean": stats.mean, "exact_mean": sol.E_T,
              "mc_var": stats.variance, "exact_var": sol.var_T}
    if not (stats.mean_se > 0 and stats.variance_se > 0):
        # a zero standard error (times so small that their squared
        # deviations underflow) leaves no z score: nothing is judged
        return {**result, "z_mean": None, "z_var": None, "inconclusive": True}, True
    z_mean = abs(stats.mean - sol.E_T) / stats.mean_se
    z_var = abs(stats.variance - sol.var_T) / stats.variance_se
    return {**result, "z_mean": z_mean, "z_var": z_var}, z_mean <= 4.0 and z_var <= 4.0


def _given_reals(check, names, low=-math.inf):
    """Parse the parameters among ``names`` that are given, each above
    ``low``; the others default to multiples of E T, known only once the
    chain is solved."""
    return lambda params: {k: _real(params[k], f"{check} {k}", low)
                           for k in names if k in params}


def _coupling_params(params):
    given = _given_reals("coupling_lower", ("a", "b"), 0.0)(params)
    if given.keys() == {"a", "b"} and given["a"] >= given["b"]:
        raise ConfigError(f"coupling_lower needs a < b, got a={given['a']}, b={given['b']}")
    return given


@_register("coupling_lower", ("fpp",), "resampling coupling",
           "var X >= (1/4) E (X' - X)^2 for the conditioned-interval coupling",
           parse=_coupling_params)
def _check_coupling_lower(ctx, params):
    s, t = ctx.endpoints()
    sol = ctx.solution()
    a = params.get("a", 0.25 * sol.E_T)
    b = params.get("b", 2.0 * sol.E_T)
    if not 0 < a < b:  # a given bound against the other's default
        raise ConfigError("coupling interval needs 0 < a < b")
    batch = sample_coupling_batch(ctx.graph(), s, t, params["runs"],
                                  ctx.check_seed("coupling_lower"), a, b)
    increment = batch.X_prime - batch.X
    # rounding allowance on the scale of the times, so slow rates do not fail it
    bound_ok = bool(np.all(increment <= batch.increment_bound + chain.REL_TOL * (b - a)))
    stats = SampleStats.from_samples(increment ** 2)
    rhs = 0.25 * stats.mean
    holds, inconclusive = band_verdict(rhs, sol.var_T, BAND_SIGMAS * 0.25 * stats.mean_se)
    return {"var_X": sol.var_T, "quarter_mean_sq_increment": rhs,
            "pathwise_increment_bound_held": bound_ok, "runs": params["runs"],
            "inconclusive": inconclusive}, bound_ok and holds


@_register("submultiplicativity", ("fpp",), "submultiplicative tails",
           "P(X > y1+y2) <= P(X > y1) P(X > y2) within a 3-sigma binomial band",
           parse=_given_reals("submultiplicativity", ("y1", "y2")))
def _check_submult(ctx, params):
    sol = ctx.solution()
    batch = ctx.fpp_batch(params["runs"])
    y1 = params.get("y1", sol.E_T)
    y2 = params.get("y2", sol.E_T)
    rep = submultiplicativity_probe(batch.X, y1, y2)
    return rep, rep["holds"]


@_register("theorem1_lower", ("fpp",), "two-sided bound, lower half",
           "var X/(E X)^2 >= explicit shortfall-moment expression on a delta grid",
           parse=lambda params: {
               "deltas": _modulus_deltas(params, "theorem1_lower", [0.25, 0.5, 1.0])})
def _check_theorem1_lower(ctx, params):
    sol = ctx.solution()
    batch = ctx.fpp_batch(params["runs"])
    points = theorem1_lower_check(batch.Xi, sol.E_T, sol.var_T, params["deltas"])
    ok = all(p["holds"] for p in points)
    return {"points": points, "inconclusive": any(p["inconclusive"] for p in points)}, ok


def default_trend_family():
    members = []
    for r in (1.0, 0.3, 0.1, 0.03, 0.01):
        g = bridge_graph(3, 3, r)
        members.append((f"bridge-{r}", r, g, 0, g.n - 1))
    for n in (16, 64, 256):
        members.append((f"complete-{n}", float(n), complete_graph(n), 0, 1))
    for r in (4, 8):
        g = grid_graph(r, r)
        members.append((f"grid-{r}x{r}", float(r), g, 0, g.n - 1))
    return members


def _trend_params(params):
    # the one check with a run count of its own, checked with the others
    own_runs = {"runs": params["runs"]} if "runs" in params else {}
    return {**own_runs, "min_spearman": _real(params.get("min_spearman", 0.9),
                                              "theorem1_trend min_spearman")}


@_register("theorem1_trend", ("fpp",), "two-sided bound, qualitative",
           "sd(X)/E X and the L0-size of Xi/E X move together across a family",
           parse=_trend_params)
def _check_theorem1_trend(ctx, params):
    members = default_trend_family()
    rep = theorem1_trend_experiment(members, params["runs"], ctx.check_seed("theorem1_trend"))
    ctx.write("trend_members.csv", "member,param,sd_over_mean,ci,l0_xi,n_runs",
              (f"{m['name']},{m['param']!r},{m['sd_over_mean']!r},{m['ratio_se']!r},"
               f"{m['l0_xi']!r},{m['n_runs']}" for m in rep["members"]))
    return rep, rep["spearman"] > params["min_spearman"]


def _prop2_params(params):
    ks = _list(params.get("ks", [1]), "prop2 ks", lambda k: _integer(k, "prop2 k", 1))

    def known_kind(kind):
        if kind not in ("span", "tria"):
            raise ConfigError(f"unknown stopping-time kind {kind!r}")
        return kind

    kinds = tuple(_list(params.get("kinds", ["span", "tria"]), "prop2 kinds", known_kind))
    for what, values in (("ks", ks), ("kinds", kinds)):
        if len(set(values)) < len(values):
            raise ConfigError(f"prop2 {what} must not repeat, got {list(values)!r}")
    return {"ks": ks, "kinds": kinds}


@_register("prop2", ("multigraph",), "Proposition 2",
           "sd/mean of the k-tree / k-triangle arrival times obeys graph-free bounds",
           min_runs=MIN_RUNS, parse=_prop2_params)
def _check_prop2(ctx, params):
    g = ctx.graph()
    ks, kinds, runs = params["ks"], params["kinds"], params["runs"]
    if "tria" in kinds and not g.triangles:
        raise ConfigError("prop2 kind 'tria' needs a graph with a triangle")
    gamma, _ = min_cut_weight(g)
    uncertified = Counter()
    samples = sample_stopping_times(g, ks, runs, ctx.check_seed("prop2"), kinds=kinds,
                                    uncertified=uncertified)

    def cells(kind, k):  # empty for a kind that was not run
        return map(repr, python_values(samples[kind][k])) if kind in kinds else repeat("", runs)

    ctx.write("prop2_runs.csv", "run_index,k,T_span,T_tria",
              (f"{i},{k},{span},{tria}" for k in ks
               for i, span, tria in zip(range(runs), cells("span", k), cells("tria", k))))
    reports = []
    ok = True
    for kind in kinds:
        for k in ks:
            rep = prop2_check(samples[kind][k], k, kind=kind, gamma=gamma,
                              uncertified=uncertified[kind, k])
            ok = ok and rep["holds"] and rep["mean_bound_holds"] in (None, True)
            reports.append(rep)
    return {"gamma": gamma, "reports": reports,
            "inconclusive": any(rep["inconclusive"] for rep in reports)}, ok


@_register("prop1", ("growth",), "Proposition 1",
           "lattice growth hitting time: var T <= E T / c_lo", min_runs=MIN_RUNS)
def _check_prop1(ctx, params):
    cfg = _growth_config(ctx.cfg)
    rep = prop1_check(cfg, params["runs"], ctx.check_seed("prop1"))
    return rep, rep["holds"]


@_register("prop3", ("coverage",), "Proposition 3",
           "coverage draw count: var T <= n E T", min_runs=MIN_RUNS)
def _check_prop3(ctx, params):
    rep = prop3_check(ctx.graph(), params["runs"], ctx.check_seed("prop3"))
    return rep, rep["holds"]


@_register("a_k", ("multigraph", "bounds"), "Lemma 5 corollary",
           "a(k) = inf q/(1-(1-q^3)^k) obeys a(1)=1 and a(k) <= (e/(e-1)) k^(-1/3)",
           parse=lambda params: {"kmax": _integer(params.get("kmax", 100), "a_k kmax", 1)})
def _check_a_k(ctx, params):
    kmax = params["kmax"]
    values = [a_k_eval(k) for k in range(1, kmax + 1)]
    ok = _a_k_holds(values)
    return {"kmax": kmax, "a_1": values[0], "a_kmax": values[-1], "holds_envelope": ok}, ok


def _a_k_holds(values) -> bool:
    """a(1) = 1 and a(k) <= (e/(e-1)) k^(-1/3) for every k, where a(k)
    is ``values[k - 1]``."""
    envelope = math.e / (math.e - 1.0)
    return abs(values[0] - 1.0) <= 1e-6 and all(
        a <= envelope * k ** (-1.0 / 3.0) + 1e-12 for k, a in enumerate(values, 1))


@_register("psi_minus", ("fpp", "bounds"), "explicit lower modulus",
           "psi_-(d) > 0 on (0,1], log-space evaluation",
           parse=lambda params: {
               "deltas": _modulus_deltas(params, "psi_minus",
                                         [round(0.05 * i, 2) for i in range(1, 21)])})
def _check_psi_minus(ctx, params):
    rows = [psi_minus_eval(d) for d in params["deltas"]]
    ref = psi_minus_eval(1.0)["value"]
    ok = (all(math.isfinite(p["log_value"]) for p in rows)
          and abs(ref - 0.013176156917368244) <= 1e-5 * 0.0132)
    return {"grid": rows, "value_at_1": ref}, ok


# ---------------------------------------------------------------------------
# Config plumbing

def _load_graph(cfg, seed) -> WeightedGraph:
    spec = cfg.get("graph")
    if spec is None:
        raise ConfigError("scenario needs a 'graph' entry")
    _typed(spec, dict, "graph")
    if "edge_list" in spec:
        return parse_edge_list(_typed(spec["edge_list"], str, "graph edge_list"))
    if "path" in spec:
        return parse_edge_list(_read_text(_typed(spec["path"], str, "graph path"), "graph file"))
    if "family" in spec:
        name = spec["family"]
        if not isinstance(name, str) or name not in FAMILIES:
            raise ConfigError(f"unknown family {name!r}; have {sorted(FAMILIES)}")
        try:
            args = dict(spec.get("args", {}))
            if (edges := _family_edges(name, args)) > FAMILY_EDGE_CAP:
                raise CapacityError(
                    f"{name} family with {edges} edges exceeds cap {FAMILY_EDGE_CAP}")
            if name == "random_gnp":
                args.setdefault("weight_range", (0.5, 2.0))
                args["weight_range"] = tuple(args["weight_range"])
                args["rng"] = np.random.default_rng(np.random.SeedSequence([seed, 0xF00D]))
            return FAMILIES[name](**args)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad arguments for family {name!r}: {exc}") from None
    raise ConfigError("graph entry needs one of: edge_list, path, family")


def _read_text(path, what) -> str:
    """The UTF-8 text of the file at ``path``; a file that cannot be read
    (missing, a directory, a null byte in the path, not UTF-8) is a
    ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def _family_edges(name, args) -> int:
    """Edge count of a built-in family from its integer args (at most this
    many for random_gnp); 0 when one is missing or not a positive integer,
    which the family itself rejects."""
    ints = {k: v for k, v in args.items() if isinstance(v, numbers.Integral) and v > 0}
    clique = lambda n: n * (n - 1) // 2
    try:
        if name == "path":
            return ints["n"] - 1
        if name == "grid":
            r, c = ints["rows"], ints["cols"]
            return r * (c - 1) + c * (r - 1)
        if name == "bridge":
            return clique(ints["c1"]) + clique(ints["c2"]) + 1
        return clique(ints["n"])  # complete, random_gnp
    except KeyError:
        return 0


def _growth_config(cfg) -> GrowthConfig:
    params = _typed(cfg.get("growth", {}), dict, "growth")
    if "radius" in params:  # accepted and ignored: growth runs on the whole lattice
        _integer(params["radius"], "growth radius", 1)

    def site(v):
        if not isinstance(v, list) or len(v) != 2:
            raise ConfigError(f"growth target site must be an [x, y] pair, got {v!r}")
        return tuple(_integer(c, "growth target coordinate", -math.inf) for c in v)

    target = _list(params.get("target", [[3, 0], [-3, 0], [0, 3], [0, -3]]),
                   "growth target", site)
    rate = _typed(params.get("rate", {}), dict, "growth rate")
    rate_params = _typed(rate.get("params", {"c": 1.0}), dict, "growth rate params")
    try:
        return GrowthConfig.builtin(target, kind=rate.get("kind", "constant"), **rate_params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad growth config: {exc}") from None


def _random_discrete_chains(rng, count, bits) -> list[ChainSpec]:
    """``count`` random increasing chains on ``bits``-bit masks, all drawn
    together one frontier layer at a time: from each non-full state, 1-3
    distinct strictly larger successors, each free bit joining a candidate
    with probability 0.3, and Dirichlet(1) jump probabilities summing to 1.
    Raises CapacityError before any draw when ``continuization_check``'s
    tagged states would not fit in 63 bits, and once the chains together
    pass the exact solver's state cap."""
    if bits + count.bit_length() > 63:
        raise CapacityError(f"{count} chains of {bits} bits need states wider than 63 bits")
    full = (1 << bits) - 1
    weight = np.left_shift(1, np.arange(bits, dtype=np.int64))
    before = np.tri(3 + RANDOM_CANDIDATES, k=-1, dtype=bool)  # [j, l]: column l precedes j
    table = {}  # chain << bits | mask -> [(successor mask, probability)]
    # the frontier: states not yet expanded, as chain index and mask
    owner, mask = np.arange(count), np.zeros(count, dtype=np.int64)
    expanded = np.empty(0, dtype=np.int64)  # sorted keys of the table
    while mask.size:
        keys = owner << bits | mask
        expanded = np.sort(np.concatenate([expanded, keys]))
        if expanded.size > chain.STATE_CAP:
            raise CapacityError(f"random chains exceed the state cap {chain.STATE_CAP}")
        free = (mask[:, None] & weight) == 0
        want = np.minimum(rng.integers(1, 4, size=mask.size),
                          np.where(free.sum(axis=1) >= 2, 3, 1))
        succ = np.zeros((mask.size, 3), dtype=np.int64)
        have = np.zeros(mask.size, dtype=np.int64)
        short = np.arange(mask.size)  # the states still short of successors
        while short.size:
            rows, rest = short[:RANDOM_ROWS], short[RANDOM_ROWS:]
            shape = (rows.size, RANDOM_CANDIDATES, bits)
            cand = mask[rows, None] | ((rng.random(shape) < 0.3) & free[rows, None]) @ weight
            # a candidate counts, in draw order, if it adds a bit and is not
            # already a successor or an earlier candidate
            both = np.concatenate([succ[rows], cand], axis=1)
            repeat = ((both[:, :, None] == both[:, None, :]) & before).any(axis=2)[:, 3:]
            new = ~repeat & (cand != mask[rows, None])
            slot = have[rows, None] + np.cumsum(new, axis=1) - 1
            r, c = np.nonzero(new & (slot < want[rows, None]))
            succ[rows[r], slot[r, c]] = cand[r, c]
            have[rows] = np.minimum(slot[:, -1] + 1, want[rows])
            short = np.concatenate([rows[have[rows] < want[rows]], rest])
        prob = rng.standard_exponential((mask.size, 3)) * (np.arange(3) < want[:, None])
        prob /= prob.sum(axis=1, keepdims=True)
        filled = succ != 0  # successors are nonzero; 0 marks an unused slot
        pairs = list(zip(succ[filled].tolist(), prob[filled].tolist()))
        ends = np.cumsum(want).tolist()
        table.update(zip(keys.tolist(), [pairs[e - k:e] for e, k in zip(ends, want.tolist())]))
        keys = np.sort(np.repeat(owner, 3)[filled.ravel()] << bits | succ[filled])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        keys = keys[(keys & full) != full]  # full states are targets
        at = np.minimum(np.searchsorted(expanded, keys), expanded.size - 1)
        keys = keys[expanded[at] != keys]
        owner, mask = keys >> bits, keys & full
    return [ChainSpec(initial=0, transitions=lambda m, i=i << bits: table.get(i | m, []),
                      is_target=lambda m, i=i << bits: i | m not in table)
            for i in range(count)]


def _clean(obj):
    """JSON-ready deep conversion: numpy scalars/arrays, int keys."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.size > 64:
            return {"n": int(obj.size), "mean": float(obj.mean()), "min": float(obj.min()),
                    "max": float(obj.max())}
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def _validate_config(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    process = cfg.get("process")
    if process not in ("fpp", "multigraph", "coverage", "growth", "bounds"):
        raise ConfigError(f"unknown process kind {process!r}")
    if "out" in cfg:
        _typed(cfg["out"], str, "out")
    checks = cfg.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ConfigError("config needs a non-empty 'checks' list")
    runs = _integer(cfg.get("runs", 10_000), "runs", 3)
    parsed = []
    named = set()
    for item in checks:
        if isinstance(item, str):
            name, params = item, {}
        elif isinstance(item, dict) and "name" in item:
            name = item["name"]
            params = {k: v for k, v in item.items() if k != "name"}
        else:
            raise ConfigError(f"bad check entry: {item!r}")
        if not isinstance(name, str) or name not in CHECKS:
            known = ", ".join(sorted(CHECKS))
            raise ConfigError(f"unknown check {name!r}; catalog: {known}")
        if name in named:  # the report keeps one entry per check
            raise ConfigError(f"check {name!r} is named twice")
        named.add(name)
        meta = CHECKS[name]
        if process not in meta["processes"]:
            raise ConfigError(
                f"check {name!r} does not apply to process {process!r} "
                f"(valid: {meta['processes']})"
            )
        values = meta["parse"](params)
        if unknown := sorted(set(params) - set(values)):
            raise ConfigError(f"check {name!r} takes no parameter {unknown[0]!r}")
        values["runs"] = _integer(values.get("runs", runs), f"{name} runs", meta["min_runs"])
        parsed.append((name, values))
    return parsed


def _integer(value, what, minimum):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _real(value, what, low=-math.inf, high=math.inf):
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not low < value <= high or abs(value) > sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number in ({low}, {high}], got {value!r}")
    return float(value)


def _typed(value, kind, what):
    """``value`` itself if it is a ``kind``: dict (a JSON object) or str."""
    if not isinstance(value, kind):
        name = "JSON object" if kind is dict else "string"
        raise ConfigError(f"{what} must be a {name}, got {value!r}")
    return value


def _list(value, what, item):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list, got {value!r}")
    return [item(v) for v in value]


def _deltas(params, check, default):
    return _list(params.get("deltas", default), f"{check} deltas",
                 lambda d: _real(d, f"{check} delta", 0.0, 1.0))


def _modulus_deltas(params, check, default):
    """:func:`_deltas` for the checks built on the explicit modulus, which
    cannot evaluate a delta too small for log space."""
    deltas = _deltas(params, check, default)
    for d in deltas:
        try:
            modulus_terms(d)
        except ValueError as exc:
            raise ConfigError(f"{check} {exc}") from None
    return deltas


def run_scenario(config_path, seed=None, out_dir=None, threads=1) -> int:
    """Run one scenario config and return its exit code.  ``threads`` is
    accepted and ignored: every sampler runs serially."""
    try:
        text = _read_text(config_path, "config")
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        checks = _validate_config(cfg)
        seed = _integer(cfg.get("seed", 0) if seed is None else seed, "seed", 0)
        out = Path(out_dir) if out_dir else (Path(cfg["out"]) if "out" in cfg else None)
        if out is not None:
            try:
                out.mkdir(parents=True, exist_ok=True)
            except (OSError, ValueError) as exc:  # a file in the way, a null byte
                raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ctx = _Context(cfg, seed, out)

    report = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
              "process": cfg["process"], "seed": seed, "checks": {}}
    any_fail = False
    rows = []
    try:
        for name, params in checks:
            result, passed = CHECKS[name]["fn"](ctx, params)
            result = _clean(result)
            if not passed:
                status = "FAIL"
                any_fail = True
            elif isinstance(result, dict) and result.get("inconclusive"):
                status = "inconclusive"
            else:
                status = "pass"
            report["checks"][name] = {"status": status, "result": result}
            rows.append((name, CHECKS[name]["anchor"], status))
        ctx.write("report.json", json.dumps(report, sort_keys=True, indent=2))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error (capacity): {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (GraphParseError, GraphValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    width = max(len(r[0]) for r in rows)
    print(f"scenario: {config_path}  (seed {seed})")
    for name, anchor, status in rows:
        print(f"  {name:<{width}}  {anchor:<28}  {status}")
    if out is not None:
        print(f"report written to {out / 'report.json'}")
    return EXIT_FAIL if any_fail else EXIT_PASS


def list_checks() -> None:
    print(f"{len(CHECKS)} checks:")
    for name in sorted(CHECKS):
        meta = CHECKS[name]
        procs = "/".join(meta["processes"])
        print(f"  {name:<20} [{meta['anchor']}] ({procs}): {meta['statement']}")


def list_families() -> None:
    sigs = {
        "path": "path(n)",
        "complete": "complete(n)",
        "grid": "grid(rows, cols)",
        "bridge": "bridge(c1, c2, bridge_rate)",
        "random_gnp": "random_gnp(n, p, weight_range)",
    }
    print("graph families:")
    for name in sorted(FAMILIES):
        print(f"  {sigs[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fpplab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a scenario config")
    runp.add_argument("config")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None)
    sub.add_parser("list-checks", help="print the check catalog")
    sub.add_parser("families", help="print the built-in graph families")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(args.config, seed=args.seed, out_dir=args.out)
    if args.command == "list-checks":
        list_checks()
        return EXIT_PASS
    list_families()
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
