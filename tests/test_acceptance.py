"""Acceptance suite: one test per criterion, each reporting a single
pass/fail line (collected into the terminal summary by conftest)."""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_acceptance
from helpers import lemma2_bound, max_identity_error
from fpplab.chain import (
    continuization_check,
    lemma1_bound,
    solve_discrete,
    solve_hitting,
)
from fpplab.cli import _random_discrete_chains, run_scenario
from fpplab.fpp import fpp_chain_spec, prop4_check, sample_fpp_batch
from fpplab.graphs import (
    WeightedGraph,
    bridge_graph,
    complete_graph,
    grid_graph,
    min_cut_weight,
    path_graph,
)
from fpplab.growth import coverage_chain_spec, coverage_samples
from fpplab.multigraph import a_k_eval, prop2_check, sample_stopping_times
from fpplab.stats import (
    F_K_eval,
    SampleStats,
    l0_norm_estimate,
    psi_minus_eval,
    theorem1_lower_check,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

EXACT_GRAPHS = {
    "path5": (path_graph(5), 0, 4),
    "K3": (complete_graph(3), 0, 2),
    "K4": (complete_graph(4), 0, 3),
    "bridge": (bridge_graph(3, 3, 0.1), 0, 5),
}


def test_criterion_1_exactness(sweep200):
    ok = True
    details = []
    # single edge: E = 1/w, var = 1/w^2
    for w in (0.5, 1.0, 2.5):
        g = WeightedGraph(("a", "b"), ((0, 1),), (w,))
        sol = solve_hitting(fpp_chain_spec(g, 0, 1))
        ok &= abs(sol.E_T - 1.0 / w) <= 1e-10
        ok &= abs(sol.var_T - 1.0 / w**2) <= 1e-10
    # k-edge path: sums of inverse rates
    rates = (0.4, 2.0, 1.0, 3.0, 0.7)
    names = tuple(f"v{i}" for i in range(len(rates) + 1))
    g = WeightedGraph(names, tuple((i, i + 1) for i in range(len(rates))), rates)
    sol = solve_hitting(fpp_chain_spec(g, 0, len(rates)))
    ok &= abs(sol.E_T - sum(1.0 / w for w in rates)) <= 1e-10
    ok &= abs(sol.var_T - sum(1.0 / w**2 for w in rates)) <= 1e-10
    details.append("closed forms @1e-10")
    # martingale identity on every reachable state of the sweep
    chains, elapsed = sweep200
    worst = max(max_identity_error(sol) for _, sol in chains)
    ok &= worst <= 1e-9
    ok &= elapsed < 10.0
    details.append(f"b(S)=1 worst err {worst:.2e} on 200 chains in {elapsed:.1f}s")
    record_acceptance(1, ok, "; ".join(details))
    assert ok


def test_criterion_2_inequality_sweep(sweep200):
    chains, _ = sweep200
    grid = [0.05, 0.1, 0.2, 0.5]
    t0 = time.time()
    ok = True
    for g, sol in chains:
        ok &= lemma1_bound(sol)["holds"]
        ok &= prop4_check(sol, g)["holds"]
        for d in grid:
            for e in grid:
                ok &= lemma2_bound(sol, d, e)["holds"]
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    record_acceptance(
        2, ok, f"lemma1/lemma2(4x4 grid)/prop4 on 200 chains in {elapsed:.1f}s")
    assert ok


def test_criterion_3_continuization():
    reps = continuization_check(_random_discrete_chains(np.random.default_rng(17), 50, 8))
    worst = max(max(rep["mean_error"], rep["var_error"]) for rep in reps)
    ok = worst <= 1e-10 and all(rep["holds"] for rep in reps)
    record_acceptance(3, ok, f"50 random chains, worst error {worst:.2e} <= 1e-10")
    assert ok


def test_criterion_4_dual_agreement():
    ok = True
    worst_z = 0.0
    for name, (g, s, t) in EXACT_GRAPHS.items():
        sol = solve_hitting(fpp_chain_spec(g, s, t))
        batch = sample_fpp_batch(g, s, t, 100_000, seed=101)
        stats = SampleStats.from_samples(batch.X)
        z_mean = abs(stats.mean - sol.E_T) / stats.mean_se
        z_var = abs(stats.variance - sol.var_T) / (2.0 * stats.sd * stats.sd_se)
        worst_z = max(worst_z, z_mean, z_var)
        ok &= z_mean <= 4.0 and z_var <= 4.0
    record_acceptance(4, ok, f"1e5-run MC vs exact on 4 graphs, worst |z| {worst_z:.2f} <= 4")
    assert ok


def test_criterion_5_prop2():
    t0 = time.time()
    ok = True
    details = []
    g4 = complete_graph(4)
    gamma4, _ = min_cut_weight(g4)
    samples = sample_stopping_times(g4, [2], 10_000, seed=202, kinds=("span",))
    rep = prop2_check(samples["span"][2], 2, kind="span", gamma=gamma4)
    ok &= rep["holds"] and not rep["inconclusive"] and rep["mean_bound_holds"]
    details.append(f"K4 span k=2 ratio {rep['ratio']:.3f} <= {rep['bound']:.3f}")
    g6 = complete_graph(6)
    tria = sample_stopping_times(g6, [1, 2, 3], 10_000, seed=203, kinds=("tria",))
    for k in (1, 2, 3):
        rep = prop2_check(tria["tria"][k], k, kind="tria")
        ok &= rep["holds"] and not rep["inconclusive"]
        details.append(f"K6 tria k={k} ratio {rep['ratio']:.3f} <= {rep['bound']:.3f}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    record_acceptance(5, ok, "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok


def test_criterion_6_a_k_envelope():
    envelope = math.e / (math.e - 1.0)
    ok = abs(a_k_eval(1) - 1.0) <= 1e-6
    worst_margin = math.inf
    for k in range(1, 101):
        margin = envelope * k ** (-1.0 / 3.0) - a_k_eval(k)
        worst_margin = min(worst_margin, margin)
        ok &= margin >= -1e-12
    record_acceptance(
        6, ok, f"a(1)=1 @1e-6; a(k) <= (e/(e-1))k^(-1/3) for k<=100 "
               f"(min slack {worst_margin:.3f})")
    assert ok


def test_criterion_7_growth_and_coverage(tmp_path):
    ok = True
    details = []
    for name in ("growth_cross", "coverage_path5"):
        out = tmp_path / name
        code = run_scenario(str(SCENARIOS / f"{name}.json"), out_dir=out)
        ok &= code == 0
        report = json.loads((out / "report.json").read_text())
        statuses = {c["status"] for c in report["checks"].values()}
        ok &= statuses <= {"pass", "inconclusive"}
        details.append(f"{name}: {sorted(statuses)}")
    # exact continuized coverage chain on P3 vs MC
    g = path_graph(3)
    spec = coverage_chain_spec(g)
    d_mean, _ = solve_discrete(spec)
    c_mean = solve_hitting(spec).E_T
    ok &= abs(c_mean - d_mean) <= 1e-10
    draws = coverage_samples(g, 50_000, 303)
    z = abs(draws.mean() - c_mean) / (draws.std(ddof=1) / math.sqrt(len(draws)))
    ok &= z <= 4.0
    details.append(f"P3 coverage exact {c_mean:.3f} vs MC |z| {z:.2f}")
    record_acceptance(7, ok, "; ".join(details))
    assert ok


def exact_F_K(K, s):
    total = 0.0
    for j in range(int(math.floor(s)) + 1):
        total += (-1) ** j * math.comb(K, j) * (s - j) ** (K + 2)
    return 2.0 * total / math.factorial(K + 2)


def test_criterion_8_section4_machinery():
    ok = True
    details = []
    # F_K at the pinned points vs an independent 1e6-draw MC
    rng = np.random.default_rng(404)
    for K, s in ((1, 1.0), (3, 0.5), (5, 2.0)):
        fk = F_K_eval(K, s)
        draws = np.maximum(s - rng.random((10**6, K)).sum(axis=1), 0.0) ** 2
        z = abs(fk["value"] - draws.mean()) / math.sqrt(draws.var(ddof=1) / len(draws))
        ok &= z <= 3.0
        ok &= abs(fk["value"] - exact_F_K(K, s)) <= 1e-12
    details.append("F_K at (1,1),(3,0.5),(5,2) exact @1e-12, within 3 sigma of MC")
    # psi_-(1) against the composed closed form
    ref = 1.0 / math.sqrt(5760.0)
    got = psi_minus_eval(1.0)["value"]
    ok &= abs(got - ref) / ref <= 1e-5
    details.append(f"psi_-(1)={got:.6f} (~0.013176)")
    # lower bound on every exact-solvable scenario graph
    for name, (g, s, t) in EXACT_GRAPHS.items():
        sol = solve_hitting(fpp_chain_spec(g, s, t))
        batch = sample_fpp_batch(g, s, t, 20_000, seed=405)
        pts = theorem1_lower_check(batch.Xi, sol.E_T, sol.var_T, [0.25, 0.5, 1.0])
        ok &= all(p["holds"] for p in pts)
    details.append("theorem1_lower holds on 4 graphs, deltas {0.25,0.5,1}")
    record_acceptance(8, ok, "; ".join(details))
    assert ok


def test_criterion_9_trend(tmp_path, capsys):
    # the shipped trend scenario at its own seed; its report's golden digest
    # is checked here, so that the slow run is made once in the suite
    t0 = time.time()
    code = run_scenario(str(SCENARIOS / "fpp_trend.json"), out_dir=tmp_path)
    elapsed = time.time() - t0
    capsys.readouterr()
    raw = (tmp_path / "report.json").read_bytes()
    rep = json.loads(raw)["checks"]["theorem1_trend"]["result"]
    members = {m["name"]: m for m in rep["members"]}
    assert len(members) == 10
    worst = members["bridge-0.01"]
    ok = code == 0 and rep["spearman"] > 0.9
    ok &= worst["sd_over_mean"] >= 0.1 and worst["l0_xi"] >= 0.1
    ok &= elapsed < 900.0
    record_acceptance(
        9, ok, f"spearman {rep['spearman']:.3f} > 0.9; bridge-0.01 "
               f"sd/mean {worst['sd_over_mean']:.2f}, l0 {worst['l0_xi']:.2f} >= 0.1; "
               f"{elapsed:.0f}s")
    assert ok
    golden = json.loads((Path(__file__).parent / "golden_reports.json").read_text())
    digest = hashlib.sha256(raw).hexdigest()
    assert digest == golden["fpp_trend"], f"fpp_trend: report.json sha256 is now {digest}"


def test_criterion_10_determinism(tmp_path):
    scenario = str(SCENARIOS / "fpp_triangle.json")
    outs = []
    for label in ("first", "second"):
        out = tmp_path / label
        assert run_scenario(scenario, seed=42, out_dir=out) == 0
        outs.append((out / "report.json").read_bytes())
    ok = outs[0] == outs[1]
    record_acceptance(10, ok, "report.json byte-identical across two runs "
                              "at the same seed")
    assert ok
