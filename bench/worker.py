"""One benchmark iteration in a fresh interpreter.

Imports ``fpplab.cli`` first, so the client can time set-up from process
start, then runs the given scenario configs back to back through
``fpplab.cli.run_scenario`` with an output directory each and
``threads=1``, as ``fpplab run CONFIG --out DIR`` does.  Writes a JSON
result (timings, exit codes, peak RSS, and with ``--trace`` the per-layer
metrics) to ``--result``.

    python3 bench/worker.py --result R.json --trace 0 CFG:OUT [CFG:OUT ...]
"""

import time

import fpplab.cli as cli

IMPORTED_AT = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("jobs", nargs="+", help="CONFIG:OUT_DIR pairs")
    args = parser.parse_args(argv)

    run = cli.run_scenario
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli)
        run = tracer.run_scenario

    scenarios = []
    verdict_s = 0.0
    for job in args.jobs:
        config, out_dir = job.rsplit(":", 1)
        raised = False
        t0 = time.perf_counter()
        try:
            rc = run(config, out_dir=out_dir, threads=1)
        except Exception:  # a traceback is a failed verdict, not a crashed bench
            traceback.print_exc()
            rc, raised = None, True
        dt = time.perf_counter() - t0
        verdict_s += dt
        scenarios.append({"config": config, "exit_code": rc, "traceback": raised,
                          "verdict_s": dt})

    result = {
        "imported_at": IMPORTED_AT,
        "verdict_s": verdict_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "scenarios": scenarios,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(list(cli.CHECKS))
        result["missing_hooks"] = tracer.missing
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
