"""fpplab benchmark: time to verdict on four scenario workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One closed-loop client: each iteration
starts a fresh interpreter (bench/worker.py) that imports ``fpplab.cli``
and runs the workload's scenarios back to back with ``--threads 1``;
the next iteration starts when it has exited.  Iterations repeat until
``--seconds`` have passed (at least three of each kind).

The scenario configs are written from ``--seed``: the same seed gives the
same configs, hence byte-identical reports, which the run checks against
each other and against earlier runs in this checkout (.bench_out/).

``--trace 0`` reports the end-to-end metrics (medians over iterations);
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Metric
names and units come from BENCHMARK.json.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"

MIN_ITERATIONS = 3
TIME_LIMIT_S = 165.0     # the whole run must end within 180 s
STATUSES = {"pass", "inconclusive", "report"}

# ---------------------------------------------------------------------------
# Workloads.  Graphs and check lists are fixed; --seed only picks the Monte
# Carlo streams.  Run counts keep one iteration near 1-3 s, so a run holds
# several iterations to take the median over.

BRIDGE = {"family": "bridge", "args": {"c1": 3, "c2": 3, "bridge_rate": 0.1}}
GRID_4x4 = [0.05, 0.1, 0.2, 0.5]

WORKLOADS = {
    "fpp-small": [
        ("bridge", {"process": "fpp", "graph": BRIDGE, "runs": 3000, "checks": [
            "lemma1", "prop4", "dual_agreement",
            {"name": "theorem1_lower", "deltas": [0.25, 0.5, 1.0]},
            "coupling_lower", "submultiplicativity"]}),
    ],
    # At 300 runs per member the Spearman rank correlation of the ten trend
    # members spread over 0.79-0.96 on 40 seeds, so the verdict threshold
    # sits at 0.6 rather than the 0.9 that scenarios/fpp_trend.json uses
    # with 10 000 runs.
    "fpp-large": [
        ("trend", {"process": "fpp", "graph": {"family": "complete", "args": {"n": 3}},
                   "runs": 300,
                   "checks": [{"name": "theorem1_trend", "min_spearman": 0.6}]}),
    ],
    "exact": [
        ("k17", {"process": "fpp", "graph": {"family": "complete", "args": {"n": 17}},
                 "checks": ["lemma1",
                            {"name": "lemma2", "deltas": GRID_4x4, "epsilons": GRID_4x4},
                            "prop4", "continuization"]}),
    ],
    # prop1 and prop3 refuse fewer than 1000 runs.
    "packing-growth": [
        ("span_k4", {"process": "multigraph", "graph": {"family": "complete", "args": {"n": 4}},
                     "runs": 1000, "checks": [{"name": "prop2", "ks": [1, 2], "kinds": ["span"]}]}),
        ("tria_k6", {"process": "multigraph", "graph": {"family": "complete", "args": {"n": 6}},
                     "runs": 1000,
                     "checks": [{"name": "prop2", "ks": [1, 2, 3], "kinds": ["tria"]}]}),
        ("growth_cross", {"process": "growth", "growth": {
            "radius": 6, "target": [[3, 0], [-3, 0], [0, 3], [0, -3]],
            "rate": {"kind": "site_weighted", "params": {"c_lo": 0.5, "c_hi": 2.0}}},
            "runs": 1000, "checks": ["prop1"]}),
        ("coverage_path5", {"process": "coverage", "graph": {"family": "path", "args": {"n": 5}},
                            "runs": 1000, "checks": ["prop3"]}),
    ],
}


def scenario_configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    out = []
    for name, body in WORKLOADS[workload]:
        digest = hashlib.sha256(f"{workload}/{name}/{seed}".encode()).digest()
        cfg = {"schema_version": 1, **body,
               "seed": int.from_bytes(digest[:4], "big") & 0x7FFFFFFF}
        out.append((name, cfg))
    return out


# ---------------------------------------------------------------------------
# Output checks

_INT = re.compile(r"[-+]?\d+\Z")
_FLOAT = re.compile(r"[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?\Z")
_HEADER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
LABEL_COLUMNS = {"member"}  # trend_members.csv names its family members


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def parse_report(text: str) -> dict:
    report = json.loads(text, parse_constant=_reject_constant)
    if not isinstance(report, dict) or not isinstance(report.get("checks"), dict):
        raise ValueError("report.json has no 'checks' object")
    return report


def parse_csv(text: str) -> None:
    """Strict: identifier header, equal row lengths, and every data cell an
    int, a float or empty (label columns excepted)."""
    rows = list(csv.reader(io.StringIO(text), strict=True))
    if not rows:
        raise ValueError("empty CSV")
    header = rows[0]
    for col in header:
        if not _HEADER.match(col):
            raise ValueError(f"bad header cell {col!r}")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"line {lineno}: {len(row)} cells, header has {len(header)}")
        for col, cell in zip(header, row):
            if cell and col not in LABEL_COLUMNS and not (
                    _INT.match(cell) or _FLOAT.match(cell)):
                raise ValueError(f"line {lineno}, column {col}: {cell!r} is not a number")


def check_scenario(cfg: dict, out_dir: Path, outcome: dict | None) -> dict:
    """Operations are the check verdicts and the written files; returns
    attempted/failed counts, problems found and the report digest."""
    checks = [c if isinstance(c, str) else c["name"] for c in cfg["checks"]]
    attempted, failed, problems, fatal = len(checks), 0, [], []
    report, digest = None, None
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    if not (out_dir / "report.json").exists():
        attempted += 1
        failed += 1
        fatal.append("report.json not written")
    for path in files:
        attempted += 1
        text = path.read_text()
        try:
            if path.name == "report.json":
                report = parse_report(text)
                digest = hashlib.sha256(text.encode()).hexdigest()
            elif path.suffix == ".csv":
                parse_csv(text)
        except (ValueError, csv.Error) as exc:
            failed += 1
            (fatal if path.name == "report.json" else problems).append(f"{path.name}: {exc}")
    if outcome is None or outcome["traceback"] or outcome["exit_code"] != 0:
        fatal.append("no result" if outcome is None else
                     "traceback" if outcome["traceback"] else f"exit code {outcome['exit_code']}")
    if fatal or report is None:
        failed += len(checks)
    else:
        for name in checks:
            status = report["checks"].get(name, {}).get("status")
            if status not in STATUSES:
                failed += 1
                fatal.append(f"check {name}: status {status!r}")
    return {"attempted": attempted, "failed": failed, "digest": digest,
            "problems": problems, "fatal": fatal}


# ---------------------------------------------------------------------------
# Iterations

def run_iteration(configs, config_paths, traced: bool, timeout: float) -> dict:
    it_dir = OUT / "work" / "it"
    shutil.rmtree(it_dir, ignore_errors=True)
    it_dir.mkdir(parents=True)
    result_path = it_dir / "result.json"
    jobs = [f"{config_paths[name].relative_to(ROOT)}:{(it_dir / name).relative_to(ROOT)}"
            for name, _ in configs]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(WORKER), "--result", str(result_path.relative_to(ROOT)),
            "--trace", str(int(traced))] + jobs
    spawned_at = time.time()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
        stderr, rc = proc.stderr, proc.returncode
    except subprocess.TimeoutExpired:
        stderr, rc = f"worker killed after {timeout:.0f} s", None
    result = json.loads(result_path.read_text()) if rc == 0 and result_path.exists() else None
    outcomes = {}
    if result is not None:
        outcomes = {Path(s["config"]).stem: s for s in result["scenarios"]}
    it = {"traced": traced, "worker_exit": rc, "result": result,
          "setup_s": result["imported_at"] - spawned_at if result else None,
          "scenarios": {}}
    if result is None:
        it["worker_stderr"] = stderr[-2000:]
    for name, cfg in configs:
        outcome = outcomes.get(name)
        it["scenarios"][name] = check_scenario(cfg, it_dir / name, outcome)
    return it


def src_record() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"src_lines": lines, "src_sha256": h.hexdigest(), "git_sha": sha}


def load_metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def verify(iterations, configs):
    """Sum the output checks of all iterations; collect report digests."""
    attempted = failed = 0
    fatal, problems = [], []
    digests: dict[str, set] = {name: set() for name, _ in configs}
    for i, it in enumerate(iterations):
        if it["result"] is None:
            fatal.append(f"iteration {i}: worker failed ({it['worker_exit']}): "
                         f"{it['worker_stderr'].strip()[-300:]}")
        for name, v in it["scenarios"].items():
            attempted += v["attempted"]
            failed += v["failed"]
            fatal += [f"iteration {i} {name}: {p}" for p in v["fatal"]]
            problems += [f"{name}: {p}" for p in v["problems"]]
            if v["digest"]:
                digests[name].add(v["digest"])
    return attempted, failed, fatal, problems, digests


def check_digests(digests, configs, config_sha, src_sha, fatal):
    """One seed, one report: within this run and against earlier runs of
    the same sources and config, kept in .bench_out/digests.json."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    for name, cfg in configs:
        key = f"{name} seed {cfg['seed']} src {src_sha[:12]} config {config_sha[name][:12]}"
        seen = digests[name] | ({store[key]} if key in store else set())
        if len(seen) > 1:
            fatal.append(f"{name}: seed {cfg['seed']} gave {len(seen)} different reports")
        elif digests[name]:
            store[key] = next(iter(digests[name]))
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fpplab" / "cli.py").is_file():
        print(f"error: no fpplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_specs()
    started = time.monotonic()

    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    configs = scenario_configs(args.workload, args.seed)
    config_paths, config_sha = {}, {}
    for name, cfg in configs:
        text = json.dumps(cfg, indent=1, sort_keys=True)
        config_paths[name] = work / "configs" / f"{name}.json"
        config_paths[name].write_text(text)
        config_sha[name] = hashlib.sha256(text.encode()).hexdigest()

    iterations = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        plain = sum(not it["traced"] for it in iterations)
        traced = sum(it["traced"] for it in iterations)
        if elapsed >= args.seconds and plain >= MIN_ITERATIONS and (
                not args.trace or traced >= MIN_ITERATIONS):
            break
        if iterations and elapsed + 1.5 * longest > TIME_LIMIT_S:
            break
        t0 = time.monotonic()
        iterations.append(run_iteration(configs, config_paths,
                                        traced=bool(args.trace) and traced < plain,
                                        timeout=max(TIME_LIMIT_S - elapsed, 5.0)))
        longest = max(longest, time.monotonic() - t0)
    shutil.rmtree(work, ignore_errors=True)

    record = src_record()
    attempted, failed, fatal, problems, digests = verify(iterations, configs)
    check_digests(digests, configs, config_sha, record["src_sha256"], fatal)

    ok = [it for it in iterations if it["result"] is not None]
    plain_ok = [it["result"] for it in ok if not it["traced"]]
    traced_ok = [it["result"] for it in ok if it["traced"]]
    if not plain_ok or (args.trace and not traced_ok):
        print("\n".join(fatal + ["error: no iteration finished, no metrics"]),
              file=sys.stderr)
        return 1
    med = statistics.median
    samples = {
        "setup_s": [it["setup_s"] for it in ok],
        "verdict_s": [r["verdict_s"] for r in plain_ok],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in plain_ok],
    }
    if args.trace:
        units = layer_units
        values = {n: med([r["layers"][n] for r in traced_ok])
                  for n in units if n in traced_ok[0]["layers"]}
        values["trace.overhead_s"] = (med([r["verdict_s"] for r in traced_ok])
                                      - med(samples["verdict_s"]))
        missing = sorted({h for r in traced_ok for h in r["missing_hooks"]})
    else:
        units = e2e_units
        values = {n: med(samples[n]) for n in units if n in samples}
        missing = []
    unknown = set(units) - set(values)
    if unknown:
        print(f"error: metrics not measured: {sorted(unknown)}", file=sys.stderr)
        return 1

    versions = plain_ok[0]["versions"]
    record.update(versions, nproc=len(os.sched_getaffinity(0)), workload=args.workload,
                  seed=args.seed, trace=args.trace)
    print(f"run record: nproc={record['nproc']} python={versions['python']} "
          f"numpy={versions['numpy']} scipy={versions['scipy']} "
          f"git={record['git_sha'] or 'none'} src_lines={record['src_lines']}")
    print(f"workload {args.workload}, seed {args.seed}: {len(plain_ok)} untraced and "
          f"{len(traced_ok)} traced iterations in {time.monotonic() - started:.1f} s")
    for name, values_ in samples.items():
        print(f"  samples {name}: " + " ".join(f"{v:.4g}" for v in values_))
    for name, cfg in configs:
        print(f"  report sha256 {name} (seed {cfg['seed']}): "
              + (",".join(sorted(digests[name])) or "none"))
    for line in sorted(set(problems)):
        print(f"  output rejected: {line}")
    for hook in missing:
        print(f"  warning: trace hook not found: {hook}")
    for line in fatal:
        print(f"  FAILED: {line}")
    failed_frac = failed / attempted if attempted else 1.0
    print(f"metric failed_frac = {failed_frac:.6g} frac ({failed} of {attempted} operations)")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")

    bench = {"record": record, "metrics": values, "samples": samples,
             "failed_frac": failed_frac, "attempted": attempted, "failed": failed,
             "rejected_outputs": sorted(set(problems)), "fatal": fatal,
             "report_sha256": {name: sorted(d) for name, d in digests.items()},
             "configs": dict(configs)}
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(bench, indent=1, sort_keys=True))
    print(json.dumps({"correct": not fatal, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": units[n]} for n in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
