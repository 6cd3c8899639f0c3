"""The benchmark's workloads: configs, rounds and the outputs each round yields.

A run is made of rounds.  Round r of a workload is one call to a public
harness entry point (``run_experiment`` or ``minimal_k_search``) on a fixed
number of trials, with a master seed derived from the workload name, the
benchmark seed and r.  The same rounds run at jobs=1 and at jobs=2, so their
outputs can be compared byte for byte.

This module imports no part of seedtrace; the harness is passed in, so the
tracer can hand over its wrapped module.
"""

from __future__ import annotations

import hashlib
import io

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

WORKLOADS = {
    # The paper's headline root experiment (test_acceptance_4): psi root set
    # with K=58 on n=5000.  Trials are short, so per-trial and pool overheads
    # show at jobs=2; the likelihood layer does no work.
    "root-psi": {
        "kind": "experiment",
        "round_trials": 50,
        "config": {
            "n": 5000,
            "alpha": 0.0,
            "method": "psi",
            "criterion": "root-in-set",
            "params": {"K": 58},
            "seed_n": 1,
        },
    },
    # Exhaustive placement MLE, as in test_mle_seed_star_recovery_majority but
    # grown to n=150 instead of 300: a trial's cost is proportional to its
    # placement count, which varies by 40-50 % from tree to tree, and at n=300
    # a run holds too few trials (~15) for trials/s to repeat across seeds.
    # Nearly all time is in the likelihood layer, on thousands of tiny trees.
    "seed-mle": {
        "kind": "experiment",
        "round_trials": 16,
        "config": {
            "n": 150,
            "alpha": 0.0,
            "method": "mle-seed",
            "criterion": "intersect",
            "params": {"k": 5, "ell": 4},
            "seed_n": 5,
            "seed_edges": [[0, 1], [0, 2], [0, 3], [0, 4]],
        },
    },
    # DFS cover under preferential attachment, swept over caps K: exercises the
    # Fenwick growth loop, dfs_cover_set and the generic sweep path that grows
    # every tree again at each grid point.
    "cover-sweep": {
        "kind": "sweep",
        "round_trials": 20,
        "grid": [4, 8, 16, 32, 64],
        "target": 0.75,
        "config": {
            "n": 2000,
            "alpha": 1.0,
            "method": "dfs-cover",
            "criterion": "cover-seed",
            "params": {"k_star": 58, "eps": 0.2, "k": 4, "ell": 2},
            "seed_n": 4,
            "seed_edges": [[0, 1], [1, 2], [2, 3]],
        },
    },
}


def round_seed(workload: str, seed: int, index: int) -> int:
    """64-bit master seed of one round, fixed by (workload, seed, index)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def round_config(workload: str, seed: int, index: int, jobs: int) -> dict:
    spec = WORKLOADS[workload]
    return {
        **spec["config"],
        "trials": spec["round_trials"],
        "master_seed": round_seed(workload, seed, index),
        "jobs": jobs,
    }


def run_round(harness, clock, workload: str, seed: int, index: int, jobs: int):
    """Run one round through the harness; return (wall seconds, output text).

    Only the harness call is timed.  Experiments yield the per-trial CSV;
    sweeps yield the K curve CSV followed by a ``chosen_k`` line.
    """
    spec = WORKLOADS[workload]
    cfg = harness.ExperimentConfig.from_json(round_config(workload, seed, index, jobs))
    out = io.StringIO()
    if spec["kind"] == "experiment":
        start = clock()
        result = harness.run_experiment(cfg)
        wall = clock() - start
        harness.write_results_csv(result, out)
    else:
        start = clock()
        search = harness.minimal_k_search(cfg, spec["grid"], spec["target"])
        wall = clock() - start
        harness.write_curve_csv(search, out)
        out.write(f"chosen_k,{search.chosen_k}\n")
    return wall, out.getvalue()
