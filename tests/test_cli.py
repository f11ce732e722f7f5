import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fpplab import cli, fpp, growth, multigraph
from fpplab.chain import solve_hitting
from fpplab.cli import CHECKS, main, run_scenario
from fpplab.fpp import fpp_chain_spec
from fpplab.graphs import (CapacityError, GraphParseError, GraphValidationError, bridge_graph,
                           complete_graph)
from fpplab.growth import GrowthConfig
from fpplab.stats import BAND_SIGMAS, F_K_eval, SampleStats, wilson_band

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.json"))


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


BASE = {
    "schema_version": 1,
    "process": "fpp",
    "graph": {"family": "complete", "args": {"n": 3}},
    "runs": 2000,
    "seed": 1,
    "checks": ["lemma1", "prop4"],
}


def test_catalog_has_fourteen_checks():
    assert len(CHECKS) == 14


def test_list_checks_and_families_exit_zero(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    for name in CHECKS:
        assert name in out
    assert main(["families"]) == 0
    fam_out = capsys.readouterr().out
    assert "bridge(c1, c2, bridge_rate)" in fam_out


def test_run_pass_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["checks"]["lemma1"]["status"] == "pass"
    assert report["checks"]["prop4"]["status"] == "pass"
    text = capsys.readouterr().out
    assert "lemma1" in text and "pass" in text


def test_run_inline_edge_list_and_named_endpoints(tmp_path):
    cfg = dict(BASE)
    cfg["graph"] = {"edge_list": "a b 1\nb c 2\na c 0.5"}
    cfg["source"] = "a"
    cfg["target"] = "c"
    assert run_scenario(write_cfg(tmp_path, cfg)) == 0


def test_run_graph_from_file(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("x y 1\ny z 1\n")
    cfg = dict(BASE)
    cfg["graph"] = {"path": str(gpath)}
    assert run_scenario(write_cfg(tmp_path, cfg)) == 0


def test_cli_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, dict(BASE, checks=["dual_agreement"], runs=500))
    o1, o2, o3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
    run_scenario(cfg, seed=5, out_dir=o1)
    run_scenario(cfg, seed=5, out_dir=o2)
    run_scenario(cfg, seed=6, out_dir=o3)
    r1 = (o1 / "report.json").read_bytes()
    assert r1 == (o2 / "report.json").read_bytes()
    assert r1 != (o3 / "report.json").read_bytes()


@pytest.mark.parametrize("mutate", [
    lambda c: c.update(schema_version=2),
    lambda c: c.update(process="percolation"),
    lambda c: c.update(checks=["no_such_check"]),
    lambda c: c.update(checks=["prop2"]),                # wrong process
    lambda c: c.update(checks=[]),
    lambda c: c.update(checks=[{"params_only": True}]),
    lambda c: c.update(graph={"family": "moebius"}),
    lambda c: c.update(graph={}),
    lambda c: c.pop("graph"),
    lambda c: c.update(source="v0", target="v0"),
    lambda c: c.update(source="nope"),
    lambda c: c.update(checks=[{"name": "lemma2", "deltas": [0.0]}]),
    lambda c: c.update(graph={"family": "bridge", "args": {"c1": 3, "c2": 3}}),
    lambda c: c.update(graph={"family": "complete", "args": [3]}),
    lambda c: c.update(graph={"family": "bridge",
                              "args": {"c1": -1, "c2": 3, "bridge_rate": 0.1}}),
    lambda c: c.update(seed=-1, checks=["dual_agreement"]),
    lambda c: c.update(seed="7"),
    lambda c: c.update(runs=2.5, checks=["dual_agreement"]),
    lambda c: c.update(runs="many", checks=["dual_agreement"]),
    lambda c: c.update(runs=2, checks=["dual_agreement"]),
    lambda c: c.update(checks=[{"name": "theorem1_trend", "runs": 2}]),
    lambda c: c.update(checks=[{"name": "dual_agreement", "runs": 500}]),  # not its own
    lambda c: c.update(process="growth", runs=500, checks=["prop1"]),
    lambda c: c.update(process="multigraph", runs=500, checks=["prop2"]),
    lambda c: c.update(process="coverage", runs=500, checks=["prop3"]),
    lambda c: c.update(graph={"family": "random_gnp", "args": {"n": 5, "p": 0.0}}),
    lambda c: c.update(process="bounds", checks=[{"name": "a_k", "kmax": "x"}]),
    lambda c: c.update(process="bounds", checks=[{"name": "a_k", "kmax": 0}]),
    lambda c: c.update(process="bounds", checks=[{"name": "continuization", "bits": "x"}]),
    lambda c: c.update(process="bounds", checks=[{"name": "continuization", "count": 0}]),
    lambda c: c.update(checks=[{"name": "theorem1_lower", "deltas": [0]}]),
    lambda c: c.update(checks=[{"name": "theorem1_lower", "deltas": "x"}]),
    lambda c: c.update(checks=[{"name": "psi_minus", "deltas": [0]}]),
    lambda c: c.update(checks=[{"name": "psi_minus", "deltas": [2.0]}]),
    lambda c: c.update(checks=[{"name": "lemma2", "deltas": "x"}]),
    lambda c: c.update(checks=[{"name": "coupling_lower", "a": "x"}]),
    lambda c: c.update(checks=[{"name": "submultiplicativity", "y1": "x"}]),
    lambda c: c.update(process="multigraph", checks=[{"name": "prop2", "ks": [0]}]),
    lambda c: c.update(process="multigraph", checks=[{"name": "prop2", "ks": ["a"]}]),
    lambda c: c.update(graph=5),
    lambda c: c.update(graph={"edge_list": 5}),
    lambda c: c.update(graph={"path": 5}),
    lambda c: c.update(graph={"path": "."}),                # a directory
    lambda c: c.update(graph={"family": ["complete"]}),
    lambda c: c.update(checks=[{"name": ["lemma1"]}]),
    lambda c: c.update(out=5),
    lambda c: c.update(process="growth", checks=["prop1"], growth=5),
    lambda c: c.update(process="growth", checks=["prop1"], growth={"rate": 5}),
    lambda c: c.update(process="growth", checks=["prop1"],
                       growth={"rate": {"kind": "constant", "params": 5}}),
    lambda c: c.update(process="growth", checks=["prop1"], growth={"radius": 3.5}),
    lambda c: c.update(process="multigraph", checks=[{"name": "prop2", "kinds": 5}]),
    lambda c: c.update(process="multigraph", checks=[{"name": "prop2", "kinds": []}]),
    *[lambda c, t=t: c.update(process="growth", checks=["prop1"], growth={"target": t})
      for t in ([[3]], [], [[1.5, 0]], [[1, 2, 3]], [[True, 0]])],
    *[lambda c, r=r: c.update(process="growth", checks=["prop1"], growth={"rate": r})
      for r in ({"kind": "constant", "params": {"c": 0}},
                {"kind": "constant", "params": {"c": -1}},
                {"kind": "site_weighted", "params": {"c_lo": 0, "c_hi": 2.0}},
                {"kind": "site_weighted", "params": {"c_lo": 2, "c_hi": 1}},
                {"kind": "neighbor_count", "params": {"base": 0}})],
    # an infinite edge rate (JSON 1e999) must not reach the exact solver
    lambda c: c.update(graph={"family": "bridge",
                              "args": {"c1": 3, "c2": 3, "bridge_rate": math.inf}}),
    lambda c: c.update(graph={"family": "random_gnp",
                              "args": {"n": 5, "p": 0.5, "weight_range": [0.5, math.inf]}}),
    # triangles on a triangle-free graph never arrive: rejected before sampling
    lambda c: c.update(process="multigraph", graph={"family": "path", "args": {"n": 4}},
                       checks=[{"name": "prop2", "kinds": ["tria"]}]),
    lambda c: c.update(process="multigraph", checks=[{"name": "prop2", "ks": [1, 1],
                                                      "kinds": ["span"]}]),
    lambda c: c.update(process="multigraph", checks=[{"name": "prop2", "ks": [1],
                                                      "kinds": ["span", "span"]}]),
    # the report keeps one entry per check, so a second one would be lost
    lambda c: c.update(checks=[{"name": "theorem1_lower", "deltas": [0.25]},
                               {"name": "theorem1_lower", "deltas": [1.0]}]),
    # a misspelt parameter would otherwise run at its default
    lambda c: c.update(checks=[{"name": "lemma1", "detlas": [0.1]}]),
    lambda c: c.update(checks=[{"name": "submultiplicativity", "y_1": 0.5}]),
])
def test_usage_errors_exit_two(tmp_path, mutate, capsys):
    cfg = json.loads(json.dumps(BASE))
    mutate(cfg)
    assert run_scenario(write_cfg(tmp_path, cfg)) == 2
    assert "error" in capsys.readouterr().err


def test_random_gnp_too_sparse_to_connect_exits_two_at_once(tmp_path, capsys):
    # 1000 attempts at n = 120 draw one random(7140) each; none connects
    cfg = dict(BASE, graph={"family": "random_gnp", "args": {"n": 120, "p": 1e-9}})
    path = write_cfg(tmp_path, cfg)
    t0 = time.perf_counter()
    assert run_scenario(path) == 2
    assert time.perf_counter() - t0 < 0.5
    assert "could not sample a connected" in capsys.readouterr().err


def test_negative_seed_flag_exit_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(BASE, checks=["dual_agreement"]))
    assert main(["run", cfg, "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_missing_and_malformed_config_exit_two(tmp_path, capsys):
    assert run_scenario(str(tmp_path / "nope.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_scenario(str(bad)) == 2
    capsys.readouterr()


def test_unreadable_config_or_unusable_output_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    in_the_way = tmp_path / "file"
    in_the_way.write_text("")
    # a directory as the config, and a config that is not UTF-8
    assert main(["run", str(tmp_path)]) == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(dict(BASE, source="\u00e9"), ensure_ascii=False)
                       .encode("latin-1"))
    assert run_scenario(str(latin1)) == 2
    assert capsys.readouterr().err.count("cannot read config") == 2
    # an output directory where a file is, given on the command line or below
    # a file in the config
    assert main(["run", cfg, "--out", str(in_the_way)]) == 2
    assert run_scenario(write_cfg(tmp_path, dict(BASE, out=str(in_the_way / "sub")))) == 2
    assert capsys.readouterr().err.count("cannot create output directory") == 2


@pytest.mark.parametrize("check, delta, code", [
    ("psi_minus", 1e-150, 0),
    ("psi_minus", 1e-153, 2),       # lgamma(K + 3) overflows
    ("psi_minus", 1e-160, 2),       # K = ceil(inf)
    ("psi_minus", 1e-200, 2),       # d^2 underflows to 0
    ("theorem1_lower", 1e-150, 0),
    ("theorem1_lower", 1e-200, 2),
])
def test_deltas_too_small_for_log_space_exit_two(tmp_path, capsys, check, delta, code):
    cfg = dict(BASE, runs=100, checks=[{"name": check, "deltas": [delta]}])
    assert run_scenario(write_cfg(tmp_path, cfg)) == code
    if code == 2:
        assert f"{check} delta {delta!r} is too small" in capsys.readouterr().err


def test_fpp_checks_read_one_sample(tmp_path, monkeypatch):
    calls = []

    def counting(g, s, t, runs, seed, **kwargs):
        calls.append(runs)
        return fpp.sample_fpp_batch(g, s, t, runs, seed, **kwargs)

    monkeypatch.setattr(cli, "sample_fpp_batch", counting)
    graph = {"family": "bridge", "args": {"c1": 3, "c2": 3, "bridge_rate": 0.5}}
    cfg = dict(BASE, graph=graph, runs=1000,
               checks=["dual_agreement", "theorem1_lower", "submultiplicativity"])
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == 0
    assert calls == [1000]
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert checks["submultiplicativity"]["result"]["n"] == 1000
    for point in checks["theorem1_lower"]["result"]["points"]:  # its band is sized by n
        assert point["tail_band"] == wilson_band(point["tail"], 1000)[1]
    ctx = cli._Context(cfg, BASE["seed"], None)
    g, (s, t) = ctx.graph(), ctx.endpoints()
    full = fpp.sample_fpp_batch(g, s, t, 1000, ctx.check_seed("fpp"))
    rows = (out / "dual_agreement_runs.csv").read_text().splitlines()[1:]
    assert rows == [f"{i},{x!r},{xi!r},{n}" for i, x, xi, n in
                    zip(range(1000), full.X.tolist(), full.Xi.tolist(), full.path_len.tolist())]


@pytest.mark.parametrize("check", ["dual_agreement", "submultiplicativity", "theorem1_lower"])
def test_fpp_check_past_the_exact_cap_exits_three_before_it_samples(tmp_path, capsys,
                                                                   monkeypatch, check):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the exact solve")

    monkeypatch.setattr(cli, "sample_fpp_batch", no_sampling)
    cfg = dict(BASE, graph={"family": "path", "args": {"n": 21}}, checks=[check])
    assert run_scenario(write_cfg(tmp_path, cfg)) == 3
    assert "capacity" in capsys.readouterr().err


def test_exact_check_past_the_cap_exits_three_before_the_twin_test(tmp_path, capsys,
                                                                   monkeypatch):
    # the twin test builds an (n, n) rate matrix: on a path family that passes
    # FAMILY_EDGE_CAP, 100 000 vertices would need 80 GB
    def no_twins(*args):
        raise AssertionError("twin classes computed before the exact cap")

    monkeypatch.setattr(cli, "twin_classes", no_twins)
    cfg = dict(BASE, graph={"family": "path", "args": {"n": 21}}, checks=["lemma1"])
    assert run_scenario(write_cfg(tmp_path, cfg)) == 3
    assert "capacity" in capsys.readouterr().err


def test_capacity_exit_three(tmp_path, capsys):
    cfg = dict(BASE)
    cfg["graph"] = {"family": "complete", "args": {"n": 25}}
    assert run_scenario(write_cfg(tmp_path, cfg)) == 3
    assert "capacity" in capsys.readouterr().err
    # one 63-bit chain plus its one tag bit would not fit an int64 state
    cfg = {"schema_version": 1, "process": "bounds", "seed": 1,
           "checks": [{"name": "continuization", "count": 1, "bits": 63}]}
    assert run_scenario(write_cfg(tmp_path, cfg)) == 3
    assert "wider than 63 bits" in capsys.readouterr().err


def test_family_over_the_edge_cap_exits_three_before_it_is_built(tmp_path, capsys, monkeypatch):
    def unbuilt(**args):
        raise AssertionError(f"family built with {args}")

    monkeypatch.setitem(cli.FAMILIES, "complete", unbuilt)
    monkeypatch.setitem(cli.FAMILIES, "grid", unbuilt)
    cfg = dict(BASE, graph={"family": "complete", "args": {"n": 10_000}})
    assert run_scenario(write_cfg(tmp_path, cfg)) == 3
    assert "capacity" in capsys.readouterr().err
    # grid(4, 4) has 24 edges
    monkeypatch.setattr(cli, "FAMILY_EDGE_CAP", 23)
    cfg = dict(BASE, graph={"family": "grid", "args": {"rows": 4, "cols": 4}})
    assert run_scenario(write_cfg(tmp_path, cfg)) == 3
    assert "24 edges" in capsys.readouterr().err


def test_assertion_failure_exit_one(tmp_path, capsys):
    # an impossible Spearman threshold forces a genuine FAIL status
    cfg = dict(BASE)
    cfg["checks"] = [{"name": "theorem1_trend", "runs": 300, "min_spearman": 1.01}]
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["theorem1_trend"]["status"] == "FAIL"
    capsys.readouterr()


def test_multigraph_scenario_writes_csv(tmp_path):
    cfg = {
        "schema_version": 1,
        "process": "multigraph",
        "graph": {"family": "complete", "args": {"n": 3}},
        "runs": 1200,
        "seed": 2,
        "checks": [{"name": "prop2", "ks": [1], "kinds": ["span"]}],
    }
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == 0
    lines = (out / "prop2_runs.csv").read_text().splitlines()
    assert lines[0] == "run_index,k,T_span,T_tria"
    assert len(lines) == 1201
    # every data cell is an int, a float or empty (tria was not run)
    for line in lines[1:]:
        run_index, k, tspan, ttria = line.split(",")
        int(run_index), int(k)
        assert float(tspan) > 0
        assert ttria == ""


def test_shipped_scenarios_are_valid_json():
    assert len(SCENARIO_FILES) >= 8
    for f in SCENARIO_FILES:
        cfg = json.loads(f.read_text())
        assert cfg["schema_version"] == 1
        assert cfg["checks"]


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_shipped_scenario_passes_config_validation(path):
    # the checks a run makes before any work: catalog, run counts, seed, graph
    cfg = json.loads(path.read_text())
    assert cli._validate_config(cfg)
    seed = cli._integer(cfg["seed"], "seed", 0)
    if "graph" in cfg:
        cli._load_graph(cfg, seed)
    if cfg["process"] == "growth":
        cli._growth_config(cfg)


def test_growth_report_does_not_depend_on_radius(tmp_path):
    # growth runs on the whole lattice: the accepted, ignored radius cannot
    # swap a run for a restart in a bigger box
    cfg = json.loads((SCENARIO_DIR / "growth_cross.json").read_text())
    reports = []
    for radius in (3, 12):
        cfg["growth"]["radius"] = radius
        out = tmp_path / f"r{radius}"
        assert run_scenario(write_cfg(tmp_path, cfg, f"r{radius}.json"), out_dir=out) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(growth=st.fixed_dictionaries({}, optional={
    "target": _JSON | st.lists(st.lists(st.integers(-4, 4) | _JSON, max_size=3), max_size=3),
    "radius": _JSON,
    "rate": st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["constant", "site_weighted", "neighbor_count"]) | _JSON,
        "params": st.dictionaries(st.sampled_from(["c", "c_lo", "c_hi", "base", "x"]),
                                  _JSON, max_size=3) | _JSON,
    }) | _JSON,
}))
def test_growth_config_returns_config_or_config_error(growth):
    try:
        cfg = cli._growth_config({"growth": growth})
    except cli.ConfigError:
        return
    assert isinstance(cfg, GrowthConfig)
    assert cfg.target and (0, 0) not in cfg.target
    assert 0 < cfg.c_lo <= cfg.c_hi


# Names a mutation may write, so that edits often reach a real check, family or
# parameter.  Integers stay small: a family above ``cli.FAMILY_EDGE_CAP`` edges
# is refused unbuilt, but one just under it can still take seconds to build.
_NAMES = st.sampled_from(sorted(CHECKS) + sorted(cli.FAMILIES) + [
    "fpp", "multigraph", "coverage", "growth", "bounds", "name", "family", "args",
    "edge_list", "path", "n", "rows", "cols", "c1", "c2", "bridge_rate", "p",
    "weight_range", "runs", "seed", "deltas", "epsilons", "ks", "kinds", "span", "tria",
    "a", "b", "y1", "y2", "kmax", "count", "bits", "min_spearman", "source", "target"])
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3)
    | _NAMES | st.sampled_from(["a b 1", "a b 1\nb c 2", "a a 1", "a b nan", "a b 1\na b 2"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_NAMES | st.text(max_size=3),
                                                               inner, max_size=3),
    max_leaves=8)
SCENARIOS = [json.loads(f.read_text()) for f in SCENARIO_FILES]


def _mutate(data, cfg):
    """One to three edits, each at a drawn depth of the config: replace a
    value, delete a key or list item, or add a key."""
    for _ in range(data.draw(st.integers(1, 3))):
        node = cfg
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = data.draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and data.draw(st.booleans()):
                node = node[key]
                continue
            break
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if keys and action == "replace":
            node[key] = data.draw(_SMALL_JSON)
        elif keys and action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[data.draw(_NAMES)] = data.draw(_SMALL_JSON)
        else:
            node.append(data.draw(_SMALL_JSON))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_scenario_validates_or_raises_a_config_error(data):
    # the work a run does before any sampling: a mutated shipped scenario is
    # accepted or rejected with an error that maps to exit 2 or 3
    cfg = json.loads(json.dumps(data.draw(st.sampled_from(SCENARIOS))))
    _mutate(data, cfg)
    for step in (cli._validate_config, lambda c: cli._load_graph(c, 7)):
        try:
            step(cfg)
        except (cli.ConfigError, GraphParseError, GraphValidationError, CapacityError):
            pass


def _fewest_runs(cfg):
    """The config's run count set to its minimum, 3, and each check's own
    integer run count to that check's minimum, so that a mutated scenario
    runs in well under a second."""
    if not isinstance(cfg, dict):
        return
    cfg["runs"] = 3
    checks = cfg.get("checks")
    for item in checks if isinstance(checks, list) else []:
        if (isinstance(item, dict) and isinstance(item.get("runs"), int)
                and isinstance(item.get("name"), str) and item["name"] in CHECKS):
            item["runs"] = CHECKS[item["name"]]["min_runs"]


@pytest.fixture
def three_run_floor(monkeypatch):
    """Propositions 1-3 accept 3 runs instead of ``MIN_RUNS``: in the check
    catalog, fixed when each check registered, and where the sampled
    verdicts read it at call time."""
    for name in ("prop1", "prop2", "prop3"):
        monkeypatch.setitem(CHECKS[name], "min_runs", 3)
    monkeypatch.setattr(multigraph, "MIN_RUNS", 3)
    monkeypatch.setattr(growth, "MIN_RUNS", 3)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_scenario_runs_to_an_exit_code(data, tmp_path, capsys, three_run_floor):
    # through the checks: a mutated shipped scenario, run with the fewest
    # runs, ends in an exit code and never in an exception
    cfg = json.loads(json.dumps(data.draw(st.sampled_from(SCENARIOS))))
    _mutate(data, cfg)
    _fewest_runs(cfg)
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=tmp_path / "out") in (0, 1, 2, 3)
    capsys.readouterr()


def test_prop2_inconclusive_report_shows_in_status(tmp_path, monkeypatch):
    def straddling(samples, k, kind="span", gamma=None, uncertified=0):
        return {"kind": kind, "k": k, "runs": len(samples), "mean": 1.0, "sd": 1.05,
                "ratio": 1.05, "ratio_se": 0.02, "bound": 1.0, "holds": True,
                "inconclusive": True, "mean_lower_bound": None, "mean_se": None,
                "mean_bound_holds": None, "uncertified": 0}

    monkeypatch.setattr(cli, "prop2_check", straddling)
    cfg = {
        "schema_version": 1,
        "process": "multigraph",
        "graph": {"family": "complete", "args": {"n": 3}},
        "runs": 1000,
        "seed": 2,
        "checks": [{"name": "prop2", "ks": [1], "kinds": ["span"]}],
    }
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == 0
    check = json.loads((out / "report.json").read_text())["checks"]["prop2"]
    assert check["status"] == "inconclusive"
    assert check["result"]["inconclusive"] is True


def test_prop2_undecided_triangle_probes_show_in_report_and_status(tmp_path, monkeypatch):
    # only the forward pass, which every run takes past the table cap, runs
    # a branch and bound that can leave a probe undecided
    monkeypatch.setattr(multigraph, "TABLE_CELLS", 0)
    monkeypatch.setattr(multigraph, "BNB_BUDGET", 1)
    cfg = {
        "schema_version": 1,
        "process": "multigraph",
        "graph": {"family": "complete", "args": {"n": 4}},
        "runs": 1000,
        "seed": 2,
        "checks": [{"name": "prop2", "ks": [1, 2], "kinds": ["tria"]}],
    }
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == 0
    check = json.loads((out / "report.json").read_text())["checks"]["prop2"]
    assert check["status"] == "inconclusive"
    by_k = {r["k"]: r for r in check["result"]["reports"]}
    assert by_k[1]["uncertified"] == 0
    assert by_k[2]["uncertified"] > 0 and by_k[2]["inconclusive"] is True


def test_dual_agreement_zero_standard_error_is_inconclusive(tmp_path):
    # times near 1e-300: their squared deviations underflow to 0
    cfg = dict(BASE, graph={"edge_list": "a b 1e300\nb c 1e300\na c 1e300\n"},
               runs=1000, checks=["dual_agreement"])
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == 0
    check = json.loads((out / "report.json").read_text())["checks"]["dual_agreement"]
    assert check["status"] == "inconclusive"
    assert check["result"]["z_mean"] is None and check["result"]["z_var"] is None


def _status_of(tmp_path, check, **cfg):
    out = tmp_path / "out"
    code = run_scenario(write_cfg(tmp_path, dict(BASE, checks=[check], **cfg)), out_dir=out)
    return json.loads((out / "report.json").read_text())["checks"][check]["status"], code


@pytest.mark.parametrize("past, status, code", [(1e-6, "FAIL", 1), (-1e-6, "pass", 0)])
def test_lemma1_fails_just_past_kappa(tmp_path, monkeypatch, past, status, code):
    # Lemma 1 is a theorem, so only a synthetic solution reaches its FAIL
    # path: the triangle's, with var T / E T moved to kappa (1 + past)
    sol = solve_hitting(fpp_chain_spec(complete_graph(3), 0, 2))
    sol = dataclasses.replace(sol, var_T=sol.kappa * (1.0 + past) * sol.E_T)
    monkeypatch.setattr(cli._Context, "solution", lambda self: sol)
    assert _status_of(tmp_path, "lemma1") == (status, code)


@pytest.mark.parametrize("past, status, code", [(1e-6, "FAIL", 1), (-1e-6, "pass", 0)])
def test_prop4_fails_just_past_e_x_over_w_min(tmp_path, monkeypatch, past, status, code):
    # the triangle's solution with var X moved to (1 + past) E X / w_min
    g = complete_graph(3)
    sol = solve_hitting(fpp_chain_spec(g, 0, 2))
    sol = dataclasses.replace(sol, var_T=(1.0 + past) * sol.E_T / g.min_weight())
    monkeypatch.setattr(cli._Context, "solution", lambda self: sol)
    assert _status_of(tmp_path, "prop4") == (status, code)


@pytest.mark.parametrize("past, status, code", [(1e-6, "FAIL", 1), (-1e-6, "pass", 0)])
def test_lemma2_fails_just_past_its_right_side(tmp_path, monkeypatch, past, status, code):
    # on the unit triangle from 0 to 2, E T = 3/4 and the jumps lower h by
    # 1/4, 3/4 ({0}) and 1/2 ({0, 1}), all above 2 delta E T = 0.15; each
    # transient state's outflow of them is 1 >= epsilon, so both are bad,
    # the bad occupation is all of E T and the right side is 2 delta + eps + 1
    delta, eps = 0.1, 0.1
    sol = solve_hitting(fpp_chain_spec(complete_graph(3), 0, 2))
    assert sol.E_T == pytest.approx(0.75)
    rhs = 2.0 * delta + eps + 1.0
    sol = dataclasses.replace(sol, var_T=rhs * (1.0 + past) * sol.E_T ** 2)
    monkeypatch.setattr(cli._Context, "solution", lambda self: sol)
    out = tmp_path / "out"
    check = {"name": "lemma2", "deltas": [delta], "epsilons": [eps]}
    code_got = run_scenario(write_cfg(tmp_path, dict(BASE, checks=[check])), out_dir=out)
    got = json.loads((out / "report.json").read_text())["checks"]["lemma2"]
    assert got["result"]["grid"][0]["occupation_bad"] == pytest.approx(sol.E_T)
    assert (got["status"], code_got) == (status, code)


@pytest.mark.parametrize("moment", ["mean", "var"])
@pytest.mark.parametrize("z, status, code", [(4.001, "FAIL", 1), (3.999, "pass", 0)])
def test_dual_agreement_fails_just_past_four_sigma(tmp_path, monkeypatch, moment, z, status,
                                                   code):
    # the exact moments sit z standard errors from the sampled ones, in
    # the mean or in the variance
    x = np.random.default_rng(5).exponential(1.0, 1000)
    stats = SampleStats.from_samples(x)
    dmean, dvar = (z * stats.mean_se, 0.0) if moment == "mean" else (0.0, z * stats.variance_se)
    sol = SimpleNamespace(E_T=stats.mean - dmean, var_T=stats.variance - dvar)
    monkeypatch.setattr(cli._Context, "solution", lambda self: sol)
    monkeypatch.setattr(cli._Context, "fpp_batch",
                        lambda self, runs: SimpleNamespace(X=x, rows=lambda: iter(())))
    assert _status_of(tmp_path, "dual_agreement", runs=1000) == (status, code)


@pytest.mark.parametrize("past, status, code", [(1e-6, "FAIL", 1), (-1e-6, "inconclusive", 0)])
def test_coupling_lower_fails_just_past_var_x(tmp_path, monkeypatch, past, status, code):
    # a coupled batch whose increments d put (1/4) mean d^2, less its band
    # of BAND_SIGMAS (1/4) se, at var X (1 + past): past 0 it FAILs
    sol = solve_hitting(fpp_chain_spec(complete_graph(3), 0, 2))
    z = np.random.default_rng(32).exponential(1.0, 1000)
    sq = SampleStats.from_samples(z ** 2)
    d = z * math.sqrt(4.0 * sol.var_T * (1.0 + past) / (sq.mean - BAND_SIGMAS * sq.mean_se))
    batch = SimpleNamespace(X=np.zeros(1000), X_prime=d, increment_bound=d)
    monkeypatch.setattr(cli, "sample_coupling_batch", lambda *args: batch)
    assert _status_of(tmp_path, "coupling_lower", runs=1000) == (status, code)


@pytest.mark.parametrize("past, status, code", [(1e-6, "FAIL", 1), (-1e-6, "inconclusive", 0)])
def test_prop2_mean_bound_fails_just_past_k_over_gamma(tmp_path, monkeypatch, past, status,
                                                       code):
    # spanning-tree times on the unit triangle (gamma = 2, so k/gamma = 1/2
    # at k = 1) whose mean plus its band of BAND_SIGMAS jackknife standard
    # errors is (1 - past) k/gamma: past 0 it FAILs.  Their sd/mean, about
    # 0.12, passes the ratio bound of 1 outright.
    z = 1.0 + 0.5 * np.random.default_rng(33).random(1000)
    stats = SampleStats.from_samples(z)
    x = z * (0.5 * (1.0 - past) / (stats.mean + BAND_SIGMAS * stats.mean_se))
    monkeypatch.setattr(cli, "sample_stopping_times", lambda *args, **kwargs: {"span": {1: x}})
    cfg = {"schema_version": 1, "process": "multigraph", "seed": 2, "runs": 1000,
           "graph": {"family": "complete", "args": {"n": 3}},
           "checks": [{"name": "prop2", "ks": [1], "kinds": ["span"]}]}
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == code
    check = json.loads((out / "report.json").read_text())["checks"]["prop2"]
    (rep,) = check["result"]["reports"]
    assert check["status"] == status
    assert rep["mean_lower_bound"] == 0.5 and rep["mean"] < 0.5
    assert rep["holds"] and rep["ratio"] < 0.2
    assert rep["mean_bound_holds"] is (status != "FAIL")


@pytest.mark.parametrize("past, status, code", [(1e-6, "FAIL", 1), (-1e-6, "pass", 0)])
def test_a_k_fails_just_past_its_envelope(tmp_path, monkeypatch, past, status, code):
    # a(k) obeys its envelope as a theorem, so only synthetic values FAIL
    # it: a(1) = 1 and (1 + past) (e/(e - 1)) k^(-1/3) at every k >= 2
    envelope = math.e / (math.e - 1.0)
    a = lambda k: 1.0 if k == 1 else (1.0 + past) * envelope * k ** (-1.0 / 3.0)
    assert cli._a_k_holds([a(k) for k in range(1, 101)]) is (status == "pass")
    monkeypatch.setattr(cli, "a_k_eval", a)
    cfg = {"schema_version": 1, "process": "bounds", "checks": [{"name": "a_k", "kmax": 100}]}
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == code
    check = json.loads((out / "report.json").read_text())["checks"]["a_k"]
    assert check["status"] == status
    assert check["result"]["holds_envelope"] is (status == "pass")


def test_a_k_fails_when_a_1_is_not_one():
    assert cli._a_k_holds([1.0 + 5e-7])
    assert not cli._a_k_holds([1.0 + 2e-6])


@pytest.mark.parametrize("allowed, status, code", [(0.9, "inconclusive", 0), (0.8, "FAIL", 1)])
def test_theorem1_lower_band_sets_the_status(tmp_path, monkeypatch, allowed, status, code):
    # an empirical tail of 0.9 from 1000 runs has a 3-sigma band of 0.028; the
    # variance ratio lets the bound allow a tail of ``allowed`` at delta = 1
    real = cli.theorem1_lower_check
    xi = np.array([2.0] * 900 + [0.0] * 100)
    coef = F_K_eval(3, 0.5)["value"]  # (1/4)(3/d - d)^2 F_K(d^2/(3 - d^2)) at d = 1, K = 3
    var_x = coef * (allowed - 2.0 / 3.0)
    monkeypatch.setattr(cli, "theorem1_lower_check",
                        lambda _xi, _mean, _var, deltas: real(xi, 1.0, var_x, deltas))
    cfg = dict(BASE, runs=1000, checks=[{"name": "theorem1_lower", "deltas": [1.0]}])
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == code
    check = json.loads((out / "report.json").read_text())["checks"]["theorem1_lower"]
    assert check["status"] == status
    (point,) = check["result"]["points"]
    assert point["tail"] == 0.9 and point["tail_band"] == pytest.approx(0.0285, abs=1e-4)
    assert check["result"]["inconclusive"] is point["inconclusive"] is (status == "inconclusive")


@pytest.mark.parametrize("tail_sum, status, code", [
    (100, "pass", 0), (260, "inconclusive", 0), (500, "FAIL", 1)])
def test_submultiplicativity_band_sets_the_status(tmp_path, monkeypatch, tail_sum, status,
                                                  code):
    # 1000 runs with P(X > 1) = 0.5, so the bound on P(X > 2) is 0.25 with a
    # 3-sigma band of 0.04-0.06; ``tail_sum`` of the runs lie above 2
    real = cli.submultiplicativity_probe
    x = np.array([3.0] * tail_sum + [1.5] * (500 - tail_sum) + [0.0] * 500)
    monkeypatch.setattr(cli, "submultiplicativity_probe", lambda _x, _y1, _y2: real(x, 1.0, 1.0))
    cfg = dict(BASE, runs=1000, checks=["submultiplicativity"])
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == code
    check = json.loads((out / "report.json").read_text())["checks"]["submultiplicativity"]
    assert check["status"] == status
    result = check["result"]
    assert result["tail_sum"] == tail_sum / 1000 and result["tail_product"] == 0.25
    assert result["holds"] is (status != "FAIL")
    assert result["inconclusive"] is (status == "inconclusive")


def test_every_status_is_pass_fail_or_inconclusive(tmp_path):
    # every check that applies to fpp
    cfg = dict(BASE, runs=100, checks=sorted(n for n, m in CHECKS.items()
                                              if "fpp" in m["processes"]))
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) in (0, 1)
    report = json.loads((out / "report.json").read_text())
    assert set(report["checks"]) == set(cfg["checks"])
    for check in report["checks"].values():
        assert check["status"] in ("pass", "FAIL", "inconclusive")


@pytest.mark.parametrize("name", ["report.json", "dual_agreement_runs.csv"])
def test_output_file_the_os_refuses_exits_two(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = dict(BASE, runs=100, checks=["lemma1", "dual_agreement"])
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == 2
    assert f"cannot write {out / name}" in capsys.readouterr().err


@pytest.mark.parametrize("interval", [{"a": 2.0, "b": 1.0}, {"a": 1.0, "b": 1.0},
                                      {"a": 0.0}, {"b": -1.0}, {"a": -1.0, "b": 2.0}])
def test_bad_coupling_interval_exits_before_any_sampling(tmp_path, monkeypatch, capsys,
                                                        interval):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config was validated")

    monkeypatch.setattr(cli, "sample_fpp_batch", no_sampling)
    monkeypatch.setattr(cli, "sample_coupling_batch", no_sampling)
    cfg = dict(BASE, checks=["dual_agreement", {"name": "coupling_lower", **interval}])
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=out) == 2
    assert "coupling_lower" in capsys.readouterr().err
    assert not out.exists()


def test_coupling_bound_below_its_default_partner_exits_two(tmp_path, capsys):
    # a defaults to E T / 4, which a given b of 0.01 lies below on complete(3)
    cfg = dict(BASE, runs=100, checks=[{"name": "coupling_lower", "b": 0.01}])
    assert run_scenario(write_cfg(tmp_path, cfg)) == 2
    assert "coupling interval needs 0 < a < b" in capsys.readouterr().err


def test_bad_check_parameter_exits_before_any_sampling(tmp_path, monkeypatch, capsys):
    # every check's parameters are parsed before the first check runs, so
    # a bad delta in the second check stops the run before the first samples
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config was validated")

    monkeypatch.setattr(cli, "sample_fpp_batch", no_sampling)
    cfg = dict(BASE, graph={"family": "complete", "args": {"n": 12}}, runs=100_000,
               checks=["dual_agreement", {"name": "theorem1_lower", "deltas": [0]}])
    assert run_scenario(write_cfg(tmp_path, cfg)) == 2
    assert "theorem1_lower delta" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["bounds", "fpp_bridge", "multigraph_k4",
                                      "growth_cross", "coverage_path5"])
def test_scenario_in_fresh_interpreter_loads_no_scipy(tmp_path, scenario):
    # numpy is the only runtime dependency: a scenario of each process kind,
    # a_k's optimizer included, runs to exit 0 and never imports scipy
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    path = SCENARIO_DIR / f"{scenario}.json"
    code = ("import sys\nfrom fpplab.cli import run_scenario\n"
            f"code = run_scenario({str(path)!r}, out_dir={str(tmp_path)!r})\n"
            "print(code, [m for m in sys.modules if m.startswith('scipy')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip().splitlines()[-1] == "0 []"


def _scaled_verdicts(tmp_path, graph, scale, name):
    """The exact and pathwise verdicts of a run on ``graph`` with every
    rate multiplied by ``scale``, read through ``fpplab run``."""
    scaled = type(graph)(graph.vertices, graph.edge_array(), graph.weight_array() * scale)
    cfg = {"schema_version": 1, "process": "fpp", "runs": 200, "seed": 3,
           "graph": {"edge_list": scaled.to_edge_list()},
           "checks": ["lemma1", "lemma2", "prop4", "coupling_lower"]}
    out = tmp_path / name
    run_scenario(write_cfg(tmp_path, cfg, f"{name}.json"), out_dir=out)
    checks = json.loads((out / "report.json").read_text())["checks"]
    return {"lemma1": checks["lemma1"]["status"],
            "monotone": checks["lemma1"]["result"]["monotone"],
            "lemma2": [cell["holds"] for cell in checks["lemma2"]["result"]["grid"]],
            "prop4": checks["prop4"]["status"],
            "pathwise": checks["coupling_lower"]["result"]["pathwise_increment_bound_held"]}


# graphs with twins, solved on twin-class counts
TWIN_GRAPHS = {"complete8": complete_graph(8), "bridge_5_6": bridge_graph(5, 6, 0.1)}


@pytest.mark.parametrize("scenario", ["fpp_bridge", "fpp_grid", "fpp_triangle", *TWIN_GRAPHS])
def test_exact_and_pathwise_verdicts_do_not_depend_on_the_rate_scale(scenario, tmp_path,
                                                                      capsys):
    # a power-of-two scale is exact in floating point: every time scales
    # by 2^-k exactly, so only a tolerance on a fixed scale could move a verdict
    if scenario in TWIN_GRAPHS:
        graph = TWIN_GRAPHS[scenario]
    else:
        graph = cli._load_graph(json.loads((SCENARIO_DIR / f"{scenario}.json").read_text()), 0)
    base = _scaled_verdicts(tmp_path, graph, 1.0, "base")
    assert base["lemma1"] == base["prop4"] == "pass" and base["monotone"] and base["pathwise"]
    for k in (-40, -30, -20, -10, -1, 1, 10, 20, 30, 40):
        assert _scaled_verdicts(tmp_path, graph, 2.0**k, f"k{k}") == base, f"rates x 2^{k}"
    capsys.readouterr()


def _context(graph):
    return cli._Context({"process": "fpp", "graph": graph}, 1, None)


def test_graph_with_twins_solves_on_class_counts_and_twin_free_on_subsets():
    grid = _context({"family": "grid", "args": {"rows": 3, "cols": 3}})
    full = solve_hitting(fpp_chain_spec(grid.graph(), 0, 8))
    assert np.array_equal(grid.solution().states, full.states)
    assert (grid.solution().E_T, grid.solution().var_T) == (full.E_T, full.var_T)
    k8 = _context({"family": "complete", "args": {"n": 8}})
    assert len(k8.solution().states) == 14  # of 128 vertex subsets


def test_bench_exact_workload_solves_at_most_64_states(tmp_path, monkeypatch):
    solved = []

    def counting(spec):
        sol = solve_hitting(spec)
        solved.append(len(sol.states))
        return sol

    monkeypatch.setattr(cli, "solve_hitting", counting)
    grid = [0.05, 0.1, 0.2, 0.5]
    cfg = {"schema_version": 1, "process": "fpp", "seed": 1,
           "graph": {"family": "complete", "args": {"n": 17}},
           "checks": ["lemma1", {"name": "lemma2", "deltas": grid, "epsilons": grid},
                      "prop4", "continuization"]}
    assert run_scenario(write_cfg(tmp_path, cfg), out_dir=tmp_path / "out") == 0
    assert solved == [32]


def test_twin_classes_are_computed_once_per_scenario(tmp_path, monkeypatch, capsys):
    calls = []
    twin_classes = cli.twin_classes

    def counting(*args):
        calls.append(args)
        return twin_classes(*args)

    def not_again(*args):
        raise AssertionError("the sampler recomputed the twin classes")

    monkeypatch.setattr(cli, "twin_classes", counting)
    monkeypatch.setattr(fpp, "twin_classes", not_again)
    cfg = dict(BASE, graph={"family": "complete", "args": {"n": 8}}, runs=200,
               checks=["lemma1", "dual_agreement", "submultiplicativity", "theorem1_lower"])
    assert run_scenario(write_cfg(tmp_path, cfg)) == 0
    assert len(calls) == 1
