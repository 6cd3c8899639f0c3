"""Output checks: each round's output against the references in reference.py.

Every trial is grown again from the rng_seed its CSV row (or, for sweeps, its
derived seed) names, with the program's own ``generate`` and ``anonymize``;
the presented tree must equal the growth record mapped through the stored
permutation, and each reported result must match the reference computed from
the record.  The psi sets and DFS covers the program returns for those trees
are compared with the references as well, since the CSV shows only one bit of
each.  A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

import reference as ref
from workloads import WORKLOADS, round_config

MLE_TOL = 1e-9
SRC = Path(__file__).resolve().parent.parent / "src"


def _wilson_lower(successes: int, trials: int, z: float = 1.96) -> float:
    p = successes / trials
    z2 = z * z
    centre = p + z2 / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return max(0.0, (centre - spread) / (1 + z2 / trials))


class _Trial:
    """One regrown trial: growth record in original labels plus presented tree."""

    def __init__(self, st, cfg: dict, rng_seed: int):
        seed_edges = [tuple(e) for e in cfg.get("seed_edges") or ()]
        seed_tree = st.build_tree(cfg["seed_n"], seed_edges)
        grown, record = st.generate(seed_tree, cfg["n"], alpha=cfg["alpha"], rng_seed=rng_seed)
        self.presented = st.anonymize(grown, record)
        self.seed_edges = seed_edges
        self.k = cfg["seed_n"]
        self.parents = record.parents
        self.perm = np.asarray(record.anonymization, dtype=np.int64)
        self.par, self.order = ref.rooted_parents(cfg["n"], seed_edges, self.parents.tolist())
        self.sizes = ref.subtree_sizes(self.par, self.order)
        self.seed_presented = {int(self.perm[v]) for v in range(self.k)}

    def edge_problem(self) -> str | None:
        want = ref.presented_edge_array(self.seed_edges, self.parents, self.perm)
        got = np.array(self.presented.edges(), dtype=np.int64).reshape(-1, 2)
        if not np.array_equal(got, want):
            return "presented edges differ from the growth record mapped through the permutation"
        return None

    def psi_top(self, size: int) -> list[int]:
        """Original ids of the reference psi set, best first."""
        psi = ref.psi_from_parents(self.par, self.order, self.sizes)
        return ref.psi_top(psi, self.perm, size)

    def psi_top_presented(self, size: int) -> list[int]:
        return [int(self.perm[u]) for u in self.psi_top(size)]


def check_round(workload: str, seed: int, index: int, output: str,
                mle_placements: dict | None = None) -> list[str]:
    """Problems found in one round's output.

    Imports seedtrace from src/ next to the benchmark, so it also runs in a
    freshly spawned worker process.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import seedtrace as st

    cfg = round_config(workload, seed, index, jobs=1)
    if WORKLOADS[workload]["kind"] == "sweep":
        return _check_sweep(st, workload, cfg, output)
    return _check_experiment(st, workload, cfg, output, mle_placements or {})


def _check_experiment(st, workload, cfg, output, mle_placements) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(output)))
    problems = []
    if [int(r["trial_id"]) for r in rows] != list(range(cfg["trials"])):
        return [f"trial ids are not 0..{cfg['trials'] - 1}"]
    for row in rows:
        tid = int(row["trial_id"])
        if int(row["n"]) != cfg["n"] or row["method"] != cfg["method"]:
            problems.append(f"trial {tid}: config columns differ from the config")
        trial = _Trial(st, cfg, int(row["rng_seed"]))
        edge = trial.edge_problem()
        if edge:
            problems.append(f"trial {tid}: {edge}")
        success, inter = int(row["success"]), int(row["intersection_size"])
        if workload == "root-psi":
            size = cfg["params"]["K"]
            chosen = trial.psi_top_presented(size)
            want = (int(int(trial.perm[0]) in chosen), len(set(chosen) & trial.seed_presented))
            if (success, inter) != want:
                problems.append(f"trial {tid}: (success, intersection) {(success, inter)}, "
                                f"reference {want}")
            if list(st.psi_set(trial.presented, size).vertices()) != chosen:
                problems.append(f"trial {tid}: psi_set differs from the reference psi ranking")
        else:
            problems.extend(_check_mle(trial, tid, success, inter, mle_placements.get(tid)))
    return problems


def _check_mle(trial: _Trial, tid: int, success: int, inter: int, placement) -> list[str]:
    adj = trial.presented.adjacency
    best, near = ref.best_star_placements(adj, trial.k - 1, MLE_TOL)
    problems = []
    if not any(len(p & trial.seed_presented) == inter for p in near):
        problems.append(f"trial {tid}: intersection {inter} is not reached by any "
                        f"placement within {MLE_TOL} of the reference maximum {best!r}")
    if success != int(inter >= 1):
        problems.append(f"trial {tid}: success {success} does not follow from intersection {inter}")
    if placement is not None:
        score = ref.SeedLikelihood(adj).placement(placement)
        if score < best - MLE_TOL:
            problems.append(f"trial {tid}: estimator placement {placement} scores {score!r}, "
                            f"reference maximum {best!r}")
        if len(set(placement) & trial.seed_presented) != inter:
            problems.append(f"trial {tid}: estimator placement {placement} does not give "
                            f"intersection {inter}")
    return problems


def _check_sweep(st, workload, cfg, output) -> list[str]:
    spec = WORKLOADS[workload]
    lines = output.strip().split("\n")
    if lines[0] != "K,p_hat,ci_lo,ci_hi" or not lines[-1].startswith("chosen_k,"):
        return ["curve output is malformed"]
    curve = [line.split(",") for line in lines[1:-1]]
    grid = [int(c[0]) for c in curve]
    if grid != sorted(spec["grid"]):
        return [f"curve grid {grid} differs from {spec['grid']}"]
    trials = cfg["trials"]
    counts = [round(float(c[1]) * trials) for c in curve]
    problems = []

    p = cfg["params"]
    threshold = cfg["n"] * p["eps"] / (2.0 * p["k"] * p["ell"])
    want_counts = [0] * len(grid)
    for tid in range(trials):
        trial = _Trial(st, cfg, st.rng.derive_seed(cfg["master_seed"], tid))
        edge = trial.edge_problem()
        if edge:
            problems.append(f"trial {tid}: {edge}")
        anchors = st.psi_set(trial.presented, p["k_star"])
        if list(anchors.vertices()) != trial.psi_top_presented(p["k_star"]):
            problems.append(f"trial {tid}: psi anchors differ from the reference psi ranking")
        cover = {int(trial.perm[v]) for v in ref.uncapped_cover(
            trial.par, trial.sizes, trial.psi_top(p["k_star"]), threshold)}
        for g, k_cap in enumerate(grid):
            # A capped cover holds the first k_cap members of the uncapped one,
            # so it is the whole reference cover whenever that fits.
            got = st.dfs_cover_set(trial.presented, anchors, p["k"], p["ell"], p["eps"],
                                   k_cap).vertex_set()
            if not got <= cover or len(got) != min(k_cap, len(cover)):
                problems.append(f"trial {tid}: cover at K={k_cap} is not {min(k_cap, len(cover))} "
                                f"members of the reference cover")
            want_counts[g] += trial.seed_presented <= got
    for k_cap, count, want, row in zip(grid, counts, want_counts, curve):
        if count != want:
            problems.append(f"K={k_cap}: {count} successes, reference {want}")
        if abs(float(row[2]) - _wilson_lower(count, trials)) > 5e-7:
            problems.append(f"K={k_cap}: printed Wilson lower bound {row[2]} is wrong")
    if counts != sorted(counts):
        problems.append(f"success counts {counts} decrease with K")
    chosen = next((k for k, c in zip(grid, counts)
                   if _wilson_lower(c, trials) >= spec["target"]), None)
    if lines[-1] != f"chosen_k,{chosen}":
        problems.append(f"{lines[-1]} but the reference picks {chosen}")
    return problems
