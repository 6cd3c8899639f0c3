"""Child processes of the benchmark: set-up measurements and round servers.

    python3 perfbench/passes.py setup --workload W --seed N
    python3 perfbench/passes.py serve --workload W --seed N --jobs J --trace 0|1
        [--spans SPANS.jsonl]

``setup`` imports seedtrace, parses and validates the workload's config,
builds its seed tree and prints ``ready``; the parent times it from spawn to
that line.  ``serve`` keeps one process per (jobs, trace) pair alive and runs
the rounds (see workloads.py) the parent asks for, so the parent can
alternate the servers round by round and every server samples the same
stretch of machine time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_seedtrace():
    sys.path.insert(0, str(SRC))
    import seedtrace
    from seedtrace import harness, likelihood

    if not Path(seedtrace.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"seedtrace imported from {seedtrace.__file__}, not {SRC}")
    return seedtrace, harness, likelihood


def setup(args) -> None:
    _, harness, _ = _import_seedtrace()
    from workloads import round_config

    text = json.dumps(round_config(args.workload, args.seed, 0, jobs=1))
    cfg = harness.ExperimentConfig.from_json(json.loads(text))
    cfg.validate()
    cfg.seed_tree()
    print("ready", flush=True)


def serve(args) -> None:
    """Run rounds on request: ``run <index>`` on stdin, one JSON reply per line.

    ``done`` ends the loop; the last line written is the summary: peak
    resident memory, versions and, when traced, the per-layer rollup.  The
    spans are written to --spans.
    """
    import resource

    import numpy

    seedtrace, harness, likelihood = _import_seedtrace()
    from tracing import Tracer, rollup
    from workloads import run_round

    tracer = None
    if args.trace:
        tracer = Tracer({"harness": harness, "likelihood": likelihood})
        tracer.install()
    clock = time.perf_counter
    origin = clock()
    wall = 0.0
    print("ready", flush=True)
    for line in sys.stdin:
        command = line.split()
        if command == ["done"]:
            break
        index = int(command[1])
        if tracer is not None:
            tracer.round = index
        started = clock()
        try:
            round_wall, output = run_round(harness, clock, args.workload, args.seed, index,
                                           args.jobs)
            reply = {"wall": round_wall, "output": output}
        except Exception:  # a failed round counts its trials as failed; the pass goes on
            traceback.print_exc()
            reply = {"wall": clock() - started, "output": None,
                     "error": traceback.format_exc(limit=1)}
        wall += reply["wall"]
        print(json.dumps(reply), flush=True)
    summary = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "seedtrace": seedtrace.__version__,
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
        },
    }
    if tracer is not None:
        tracer.uninstall()
        summary["layers"] = rollup(tracer.spans, wall)
        summary["mle_placements"] = [
            [s[4], s[5], s[6]] for s in tracer.spans if s[0] == "likelihood.mle_seed"
        ]
        tracer.write(args.spans, origin)
    print(json.dumps(summary), flush=True)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "serve"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()
    if args.mode == "setup":
        setup(args)
    else:
        serve(args)


if __name__ == "__main__":
    main()
