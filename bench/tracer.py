"""Per-layer tracing for the benchmark worker.

The tracer wraps fpplab's public functions from outside, at the places
their callers look them up: the names ``fpplab.cli`` imports,
``graphs.FAMILIES``, ``multigraph.KIND_PREDICATES`` and the check catalog
``cli.CHECKS``, plus a few inner functions whose results give counts.  A
span wrapper records (name, start, end, parent) and a call count; a count
wrapper only counts.  Nothing inside ``src/`` is edited.

A span's name is ``<layer>.<part>``; the layer is the fpplab module the
time belongs to.  Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import pathlib
from collections import Counter, defaultdict
from time import perf_counter

# name in fpplab.cli -> span name
CLI_SPANS = {
    "solve_hitting": "chain.solve",
    "lemma1_bound": "chain.bounds",
    "lemma2_bound": "chain.bounds",
    "prop4_check": "chain.bounds",
    "continuization_check": "chain.discrete",
    "sample_fpp_batch": "fpp.sample",
    "sample_traversal": "fpp.traversal",
    "coupled_resample": "fpp.coupling",
    "fpp_chain_spec": "fpp.chain_spec",
    "submultiplicativity_probe": "fpp.submult",
    "bridge_graph": "graphs.build",
    "complete_graph": "graphs.build",
    "grid_graph": "graphs.build",
    "parse_edge_list": "graphs.build",
    "min_cut_weight": "graphs.min_cut",
    "sample_stopping_times": "multigraph.stopping",
    "prop2_check": "multigraph.prop2",
    "a_k_eval": "multigraph.a_k",
    "prop1_check": "growth.prop1",
    "prop3_check": "growth.prop3",
    "theorem1_trend_experiment": "stats.trend",
    "theorem1_lower_check": "stats.lower",
    "psi_minus_eval": "stats.lower",
}

LAYERS = ("graphs", "chain", "fpp", "multigraph", "growth", "stats", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # hooks the program no longer offers
        self._stack: list[int] = []

    def span(self, name, fn, on_result=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            counts[name] += 1
            if on_result is not None:
                on_result(counts, args, result)
            return result
        return wrapper

    def count(self, fn, on_result):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(counts, args, result)
            return result
        return wrapper

    def _patch(self, owner, attr, make):
        """Replace ``owner[attr]`` (a dict) or ``owner.attr`` by ``make(old)``."""
        table = owner if isinstance(owner, dict) else vars(owner)
        if attr not in table:
            self.missing.append(f"{getattr(owner, '__name__', 'dict')}.{attr}")
        elif isinstance(owner, dict):
            owner[attr] = make(owner[attr])
        else:
            setattr(owner, attr, make(table[attr]))

    def install(self, cli):
        """Wrap the layer boundaries reachable from ``cli`` (fpplab.cli)."""
        from fpplab import fpp, graphs, growth, multigraph, stats

        for attr, name in CLI_SPANS.items():
            on = _ON_RESULT.get(name)
            self._patch(cli, attr, lambda f, n=name, o=on: self.span(n, f, o))
        # stats.theorem1_trend_experiment imports the sampler from fpp lazily
        self._patch(fpp, "sample_fpp_batch",
                    lambda f: self.span("fpp.sample", f, _ON_RESULT["fpp.sample"]))
        for fam in list(graphs.FAMILIES):
            self._patch(graphs.FAMILIES, fam, lambda f: self.span("graphs.build", f))
        self._patch(multigraph.KIND_PREDICATES, "span",
                    lambda f: self.span("multigraph.span", f))
        self._patch(multigraph.KIND_PREDICATES, "tria",
                    lambda f: self.span("multigraph.tria", f))
        for check, meta in cli.CHECKS.items():
            meta["fn"] = self.span(f"cli.check.{check}", meta["fn"])
        self._patch(stats.SampleStats, "from_samples",
                    lambda cm: classmethod(self.span("stats.jackknife", cm.__func__)))

        # count-only hooks on inner functions, looked up as module globals
        self._patch(multigraph, "max_triangle_packing",
                    lambda f: self.count(f, _count_uncertified))
        self._patch(multigraph.MultigraphTrajectory, "extend",
                    lambda f: self.count(f, _count_extension))
        self._patch(growth, "growth_simulate", lambda f: self.count(f, _count_attempt))
        self._patch(growth, "coverage_simulate", lambda f: self.count(f, _count_draws))
        # report and CSV writes go through Path.write_text
        self._patch(pathlib.Path, "write_text",
                    lambda f: self.span("cli.write", f, _count_bytes))
        self.run_scenario = self.span("cli.run_scenario", cli.run_scenario)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def metrics(self, check_names) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            s = end - start - child[i]
            own[name] += s
            layer_self[name.split(".", 1)[0]] += s
        c = self.counts

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m = {
            "graphs.build_s": total["graphs.build"],
            "graphs.build_calls": c["graphs.build"],
            "graphs.min_cut_s": total["graphs.min_cut"],
            "chain.solve_s": total["chain.solve"],
            "chain.states": c["chain.states"],
            "chain.states_per_s": per(c["chain.states"], total["chain.solve"]),
            "chain.bounds_s": total["chain.bounds"],
            "chain.discrete_s": total["chain.discrete"],
            "fpp.sample_s": total["fpp.sample"],
            "fpp.runs": c["fpp.runs"],
            "fpp.us_per_run": per(total["fpp.sample"], c["fpp.runs"], 1e6),
            "fpp.coupling_s": total["fpp.coupling"],
            "fpp.coupling_calls": c["fpp.coupling"],
            "multigraph.stopping_s": total["multigraph.stopping"],
            "multigraph.span_calls": c["multigraph.span"],
            "multigraph.span_us_per_call": per(total["multigraph.span"],
                                               c["multigraph.span"], 1e6),
            "multigraph.tria_calls": c["multigraph.tria"],
            "multigraph.tria_us_per_call": per(total["multigraph.tria"],
                                               c["multigraph.tria"], 1e6),
            "multigraph.tria_uncertified": c["multigraph.tria_uncertified"],
            "multigraph.extensions": c["multigraph.extensions"],
            "growth.prop1_s": total["growth.prop1"],
            "growth.attempts": c["growth.attempts"],
            "growth.valid_frac": per(c["growth.valid"], c["growth.attempts"]),
            "growth.prop3_s": total["growth.prop3"],
            "growth.draws": c["growth.draws"],
            "stats.jackknife_s": total["stats.jackknife"],
            "stats.trend_self_s": own["stats.trend"],
            "stats.lower_s": total["stats.lower"],
            "cli.write_s": total["cli.write"],
            "cli.bytes_written": c["cli.bytes_written"],
            "trace.spans": len(self.spans),
        }
        for check in check_names:
            m[f"cli.check_s.{check}"] = total[f"cli.check.{check}"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m


def _on_solve(counts, args, sol):
    counts["chain.states"] += len(sol.h)


def _on_sample(counts, args, batch):
    counts["fpp.runs"] += len(batch.X)


_ON_RESULT = {"chain.solve": _on_solve, "fpp.sample": _on_sample}


def _count_uncertified(counts, args, pc):
    counts["multigraph.tria_uncertified"] += pc.lower < pc.upper


def _count_extension(counts, args, result):
    counts["multigraph.extensions"] += 1


def _count_attempt(counts, args, run):
    counts["growth.attempts"] += 1
    counts["growth.valid"] += bool(run.valid)


def _count_draws(counts, args, draws):
    counts["growth.draws"] += int(draws)


def _count_bytes(counts, args, result):
    counts["cli.bytes_written"] += len(args[1].encode("utf-8"))
