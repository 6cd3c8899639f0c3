"""seedtrace Monte Carlo benchmark: trials/s at jobs=1 and jobs=2, set-up time,
peak memory, and (traced) a per-layer split.  See perfbench/README.md.

    python3 perfbench/run.py --workload root-psi|seed-mle|cover-sweep
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Files are written under
perfbench/results/<workload>-seed<N>-trace<T>/.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASSES = HERE / "passes.py"

SETUP_SAMPLES = 10
CHECK_WORKERS = 2
# Share of --seconds spent in rounds; the rest covers the last round's overshoot.
PASS_SHARE = 0.95
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "trials_per_s_jobs2": "trials/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "growth.generate_s": "s",
    "growth.generate_calls": "count",
    "growth.vertices_per_s": "vertices/s",
    "growth.anonymize_s": "s",
    "centrality.psi_set_s": "s",
    "centrality.dfs_cover_set_s": "s",
    "centrality.cover_members": "count",
    "likelihood.mle_seed_s": "s",
    "likelihood.enumerate_placements_s": "s",
    "likelihood.placements": "count",
    "likelihood.log_likelihood_seed_s": "s",
    "likelihood.log_likelihood_seed_calls": "count",
    "likelihood.us_per_placement": "us",
    "harness.run_trial_calls": "count",
    "harness.trial_ms_p50": "ms",
    "harness.trial_ms_tail": "ms",
    "harness.trial_self_s": "s",
    "harness.replay_s": "s",
    "harness.driver_self_s": "s",
    "harness.pool_overhead_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Have orphaned descendants (pool workers of a killed child) re-parented here,
    so stop_descendants can wait for every one of them."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    me, kids = os.getpid(), []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat[stat.rfind(b")") + 2:].split()[1]) == me:
            kids.append(int(entry.name))
    return kids


def stop_descendants() -> None:
    """Kill every process left below this one and wait until each has ended.

    As a subreaper this process inherits the children of each child it reaps
    before that child can be reaped, so no children at all means no descendants.
    """
    while True:
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


class Runner:
    """Starts child processes, each in its own session, and never leaves one behind."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    @staticmethod
    def kill(proc: subprocess.Popen) -> None:
        """Kill the child's whole session (pool workers too) and reap the child."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def time_setup(self, workload: str, seed: int) -> float:
        cmd = [sys.executable, str(PASSES), "setup", "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError("set-up child timed out") from None
        finally:
            self.kill(proc)
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up child failed (exit {proc.returncode})")
        return elapsed


class Server:
    """One round-serving child process for a (jobs, trace) pair."""

    def __init__(self, runner: Runner, workload: str, seed: int, jobs: int, trace: int,
                 spans: Path):
        self.runner, self.jobs, self.trace = runner, jobs, trace
        cmd = [sys.executable, str(PASSES), "serve", "--workload", workload, "--seed", str(seed),
               "--jobs", str(jobs), "--trace", str(trace), "--spans", str(spans)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
        if self._line() != "ready":
            raise BenchError(f"jobs={jobs} trace={trace} server did not start")
        self.replies: list[dict] = []

    def _line(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], self.runner.remaining())
        if not ready:
            raise BenchError(f"jobs={self.jobs} trace={self.trace} server timed out")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"jobs={self.jobs} trace={self.trace} server exited "
                             f"(code {self.proc.wait()})")
        return line.strip()

    def _send(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def run(self, index: int) -> float:
        self._send(f"run {index}")
        reply = json.loads(self._line())
        self.replies.append(reply)
        return reply["wall"]

    def finish(self, trials: int) -> dict:
        """End the server; return its pass record."""
        self._send("done")
        summary = json.loads(self._line())
        self.proc.wait(timeout=self.runner.remaining())
        rounds = [{"trials": trials, **r} for r in self.replies]
        return {**summary, "jobs": self.jobs, "trace": self.trace, "rounds": rounds,
                "wall": sum(r["wall"] for r in rounds)}


def alternate(servers: list[Server], budget: float) -> None:
    """Run rounds on every server, alternating their order, until the budget is spent.

    A round is started only if it should end within half a round of the
    budget, so runs overshoot by less than one round.
    """
    start = time.perf_counter()
    index = 0
    while True:
        if index > 0:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / index > budget:
                return
        for server in servers if index % 2 == 0 else servers[::-1]:
            server.run(index)
        index += 1


def finished(p: dict) -> int:
    return sum(r["trials"] for r in p["rounds"] if r["output"] is not None)


def failed(p: dict) -> int:
    return sum(r["trials"] for r in p["rounds"] if r["output"] is None)


def check_outputs(workload: str, seed: int, passes: list[dict]) -> list[str]:
    """Byte-identity across passes, then the reference checks on each round.

    Rounds are checked in two forked worker processes, one per core.  Fork,
    unlike spawn, starts no resource-tracker process that outlives the run.
    """
    from checks import check_round

    problems = []
    jobs = []
    traced = next((p for p in passes if p["trace"]), None)
    for i in range(len(passes[0]["rounds"])):
        outputs = [p["rounds"][i]["output"] for p in passes]
        if any(o is None for o in outputs):
            continue
        if len(set(outputs)) != 1:
            labels = ", ".join(f"jobs={p['jobs']} trace={p['trace']}" for p in passes)
            problems.append(f"round {i}: outputs differ between passes ({labels})")
            continue
        placements = None
        if traced is not None:
            placements = {t: v for r, t, v in traced["mle_placements"] if r == i}
        jobs.append((i, outputs[0], placements))
    if not jobs:
        return problems
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=CHECK_WORKERS, mp_context=ctx) as pool:
        futures = [pool.submit(check_round, workload, seed, i, out, pl) for i, out, pl in jobs]
        for (i, _, _), future in zip(jobs, futures):
            problems += [f"round {i}: {m}" for m in future.result()]
    return problems


def machine(versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "seedtrace": versions["seedtrace"],
        "platform": platform.platform(),
    }


def measure(args, runner: Runner, outdir: Path) -> tuple[dict, list[dict], dict]:
    """Timed passes for one run; returns (metrics, passes, extra record)."""
    trials = WORKLOADS[args.workload]["round_trials"]
    spans = outdir / "spans.jsonl"
    extra: dict = {}
    if not args.trace:
        runner.time_setup(args.workload, args.seed)  # writes bytecode caches; not counted
        # half the samples before the passes and half after, so the median
        # spans the run rather than one moment of a machine whose speed drifts
        setups = [runner.time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES // 2)]
    kinds = ((1, 0), (1, 1), (2, 0)) if args.trace else ((1, 0), (2, 0))
    servers: list[Server] = []
    try:
        for jobs, trace in kinds:
            servers.append(Server(runner, args.workload, args.seed, jobs, trace, spans))
        alternate(servers, PASS_SHARE * args.seconds)
        passes = [s.finish(trials) for s in servers]
    finally:
        for server in servers:
            Runner.kill(server.proc)
    if not args.trace:
        setups += [runner.time_setup(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        extra["setup_samples_s"] = setups
        p1, p2 = passes
        metrics = {
            "setup_s": statistics.median(setups),
            "trials_per_s": finished(p1) / p1["wall"],
            "trials_per_s_jobs2": finished(p2) / p2["wall"],
            "peak_rss_mb": p1["peak_rss_mb"],
        }
        return metrics, passes, extra
    p1, pt, p2 = passes
    metrics = dict(pt["layers"]["metrics"])
    metrics["harness.pool_overhead_s"] = p2["wall"] - p1["wall"] / 2.0
    metrics["trace.overhead_s"] = pt["wall"] - p1["wall"]
    extra["self_time_balance"] = pt["layers"]["balance"]
    return metrics, passes, extra


def self_time_problems(balance: dict) -> list[str]:
    """Layer self times must add up to the traced wall time, less a thin margin."""
    wall, outside = balance["traced_wall_s"], balance["outside_spans_s"]
    if abs(balance["self_time_sum_s"] - balance["root_span_sum_s"]) > 1e-6 * max(wall, 1.0):
        return ["layer self times do not add up to the root spans"]
    if not 0.0 <= outside <= 0.02 * wall:
        return [f"{outside:.4f} s of {wall:.4f} s traced wall time lies outside any span"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit, so the finally blocks stop every child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "seedtrace" / "__init__.py").is_file():
        print(f"error: no seedtrace package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    outdir = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    runner = Runner(time.monotonic() + DEADLINE_S)
    try:
        metrics, passes, extra = measure(args, runner, outdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = check_outputs(args.workload, args.seed, passes)
    if args.trace:
        problems += self_time_problems(extra["self_time_balance"])
    attempted = sum(sum(r["trials"] for r in p["rounds"]) for p in passes)
    failures = sum(failed(p) for p in passes)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(passes[0]["versions"]),
        "rounds": len(passes[0]["rounds"]),
        "trials_per_round": WORKLOADS[args.workload]["round_trials"],
        "passes": [{"jobs": p["jobs"], "trace": p["trace"], "wall_s": p["wall"],
                    "trials": finished(p), "failed": failed(p)} for p in passes],
        "problems": problems,
        **extra,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(outdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    with open(outdir / "passes.json", "w", encoding="utf-8") as fh:
        json.dump(passes, fh)

    m = record["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"seedtrace={m['seedtrace']}")
    print(f"workload {args.workload} seed {args.seed}: {record['rounds']} rounds of "
          f"{record['trials_per_round']} trials; attempted {attempted}, failed {failures}")
    for name, entry in record["metrics"].items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    if args.trace:
        print(f"  harness.trial_ms_tail is the {extra['self_time_balance']['trial_tail_rule']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"results: {outdir.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failures,
        "metrics": record["metrics"],
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    become_subreaper()
    try:
        code = main()
    finally:
        stop_descendants()
    sys.exit(code)
