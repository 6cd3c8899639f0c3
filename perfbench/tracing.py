"""Spans around the public functions the harness calls, and the per-layer rollup.

The tracer swaps module attributes for wrappers, so the harness's own calls go
through them; nothing in the program changes.  A span is recorded per call:
name, start, end, parent span, round and trial id, plus a work count for the
calls whose result size matters.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import json
import statistics
import time

# (module, attribute, span name, work taken from (args, result))
TRACED = (
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "minimal_k_search", "harness.minimal_k_search", None),
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "rebuild_from_record", "growth.rebuild_from_record", None),
    ("harness", "generate", "growth.generate", lambda args, out: args[1]),
    ("harness", "anonymize", "growth.anonymize", None),
    ("harness", "psi_set", "centrality.psi_set", None),
    ("harness", "dfs_cover_set", "centrality.dfs_cover_set", lambda args, out: len(out)),
    ("harness", "mle_seed", "likelihood.mle_seed", lambda args, out: list(out[0].vertices)),
    ("likelihood", "enumerate_placements", "likelihood.enumerate_placements",
     lambda args, out: len(out)),
    ("likelihood", "log_likelihood_seed", "likelihood.log_likelihood_seed", None),
)

# per-layer metric -> span names whose self time it sums.  Every traced span
# name appears exactly once, so these self times add up to the traced wall
# time less the short stretches outside any span.
SELF_TIME_METRICS = {
    "growth.generate_s": ("growth.generate",),
    "growth.anonymize_s": ("growth.anonymize",),
    "centrality.psi_set_s": ("centrality.psi_set",),
    "centrality.dfs_cover_set_s": ("centrality.dfs_cover_set",),
    "likelihood.mle_seed_s": ("likelihood.mle_seed",),
    "likelihood.enumerate_placements_s": ("likelihood.enumerate_placements",),
    "likelihood.log_likelihood_seed_s": ("likelihood.log_likelihood_seed",),
    "harness.trial_self_s": ("harness.run_trial",),
    "harness.replay_s": ("growth.rebuild_from_record",),
    "harness.driver_self_s": ("harness.run_experiment", "harness.minimal_k_search"),
}

TAIL_MIN_TRIALS = 40


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent, round, trial, work]
        self.round = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_trial = name == "harness.run_trial"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_trial:
                trial = args[1]
            else:
                trial = spans[parent][5] if parent >= 0 else None
            rec = [name, clock(), 0.0, parent, self.round, trial, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[6] = work(args, out)
            return out

        return traced

    def install(self) -> None:
        for mod_name, attr, name, work in TRACED:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, work))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def write(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rnd, trial, work in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "round": rnd, "trial": trial, "work": work,
                }) + "\n")


def trial_tail(durations_ms: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten trials beyond it, and how it was taken.

    Below TAIL_MIN_TRIALS trials that percentile would be no tail, so the
    largest trial time is reported instead and the note says so.
    """
    ordered = sorted(durations_ms)
    n = len(ordered)
    if n >= TAIL_MIN_TRIALS:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} trials"
    return ordered[-1], f"max of {n} trials (fewer than {TAIL_MIN_TRIALS})"


def rollup(spans: list[list], traced_wall: float) -> dict:
    """Per-layer metrics from one traced pass, plus the self-time balance."""
    count = len(spans)
    duration = [s[2] - s[1] for s in spans]
    in_children = [0.0] * count
    for i, s in enumerate(spans):
        if s[3] >= 0:
            in_children[s[3]] += duration[i]
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    total_time: dict[str, float] = {}
    work: dict[str, int] = {}
    trial_ms = []
    for i, s in enumerate(spans):
        name = s[0]
        self_time[name] = self_time.get(name, 0.0) + duration[i] - in_children[i]
        total_time[name] = total_time.get(name, 0.0) + duration[i]
        calls[name] = calls.get(name, 0) + 1
        if isinstance(s[6], int):
            work[name] = work.get(name, 0) + s[6]
        if name == "harness.run_trial":
            trial_ms.append(duration[i] * 1000.0)

    metrics = {
        metric: sum(self_time.get(n, 0.0) for n in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    generate_s = metrics["growth.generate_s"]
    placements = work.get("likelihood.enumerate_placements", 0)
    tail, tail_rule = trial_tail(trial_ms) if trial_ms else (0.0, "no trials")
    metrics.update({
        "growth.generate_calls": calls.get("growth.generate", 0),
        "growth.vertices_per_s": (
            work.get("growth.generate", 0) / generate_s if generate_s > 0 else 0.0
        ),
        "centrality.cover_members": work.get("centrality.dfs_cover_set", 0),
        "likelihood.placements": placements,
        "likelihood.log_likelihood_seed_calls": calls.get("likelihood.log_likelihood_seed", 0),
        "likelihood.us_per_placement": (
            total_time.get("likelihood.mle_seed", 0.0) / placements * 1e6
            if placements else 0.0
        ),
        "harness.run_trial_calls": calls.get("harness.run_trial", 0),
        "harness.trial_ms_p50": statistics.median(trial_ms) if trial_ms else 0.0,
        "harness.trial_ms_tail": tail,
    })
    self_sum = sum(metrics[m] for m in SELF_TIME_METRICS)
    root_sum = sum(duration[i] for i, s in enumerate(spans) if s[3] < 0)
    balance = {
        "traced_wall_s": traced_wall,
        "self_time_sum_s": self_sum,
        "root_span_sum_s": root_sum,
        "outside_spans_s": traced_wall - self_sum,
        "trial_tail_rule": tail_rule,
    }
    return {"metrics": metrics, "balance": balance}
