"""The benchmark's references against brute force, and its checks against
deliberately corrupted outputs.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

import checks
import reference as ref
import seedtrace
import tracing
import workloads
from seedtrace import anonymize, build_tree, generate, harness, path_tree, star_tree
from seedtrace.oracle import brute_force_shape_probability, enumerate_shapes


def _grown(seed_tree, n, rng_seed, alpha=0.0):
    t, record = generate(seed_tree, n, alpha=alpha, rng_seed=rng_seed)
    return t, record


def _flood_psi(adj, u):
    """Largest component of the tree minus u, by flood fill."""
    seen, best = {u}, 0
    for start in adj[u]:
        stack, count = [start], 0
        seen.add(start)
        while stack:
            v = stack.pop()
            count += 1
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        best = max(best, count)
    return best


def _connected(adj, vertices):
    vs = set(vertices)
    start = next(iter(vs))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


@pytest.mark.parametrize("seed_tree", [path_tree(1), star_tree(5), path_tree(4)])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_psi_from_parents_matches_flood_fill(seed_tree, alpha):
    for rng_seed in range(8):
        t, record = _grown(seed_tree, 40, rng_seed, alpha)
        par, order = ref.rooted_parents(t.n, seed_tree.edges(), record.parents.tolist())
        psi = ref.psi_from_parents(par, order, ref.subtree_sizes(par, order))
        assert psi == [_flood_psi(t.adjacency, u) for u in range(t.n)]


def test_psi_top_breaks_ties_by_presented_id():
    psi = [3, 1, 3, 1, 2]
    perm = np.array([4, 3, 0, 1, 2])
    # psi 1 at originals 1 (presented 3) and 3 (presented 1); psi 3 tie: 2 before 0
    assert ref.psi_top(psi, perm, 5) == [3, 1, 4, 2, 0]


def test_presented_edge_array_matches_presented_tree():
    seed = path_tree(4)
    t, record = _grown(seed, 200, 3, alpha=1.0)
    presented = anonymize(t, record)
    want = ref.presented_edge_array(seed.edges(), record.parents, record.anonymization)
    assert np.array_equal(np.array(presented.edges()), want)


def test_seed_likelihood_matches_enumeration_oracle():
    """Every connected placement of up to 4 vertices on every shape with n <= 7."""
    checked = 0
    for n in range(1, 8):
        for t in enumerate_shapes(n):
            lik = ref.SeedLikelihood(t.adjacency)
            for k in range(1, min(n, 4) + 1):
                for sub in itertools.combinations(range(n), k):
                    if not _connected(t.adjacency, sub):
                        continue
                    exact = brute_force_shape_probability(t, placement=sub)
                    assert lik.placement(sub) == pytest.approx(math.log(exact), abs=1e-10)
                    checked += 1
    assert checked > 500


def test_star_placements_match_brute_force():
    for rng_seed in range(5):
        t, _ = _grown(star_tree(5), 30, rng_seed)
        adj = t.adjacency
        want = set()
        for sub in itertools.combinations(range(t.n), 5):
            degrees = sorted(sum(1 for w in adj[v] if w in sub) for v in sub)
            if degrees == [1, 1, 1, 1, 4]:
                want.add(frozenset(sub))
        got = {frozenset((c,) + chosen) for c, chosen in ref.star_placements(adj, 4)}
        assert got == want


def _brute_hanging(adj, anchor):
    """Subtree size of every vertex with the tree rooted at anchor."""
    parent, order = {anchor: -1}, [anchor]
    for u in order:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    sizes = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        sizes[parent[v]] += sizes[v]
    return sizes


def test_uncapped_cover_matches_per_anchor_rooting():
    rng = random.Random(7)
    for rng_seed in range(10):
        seed = path_tree(4)
        t, record = _grown(seed, 120, rng_seed, alpha=1.0)
        par, order = ref.rooted_parents(t.n, seed.edges(), record.parents.tolist())
        sizes = ref.subtree_sizes(par, order)
        anchors = rng.sample(range(t.n), 6)
        threshold = rng.choice([3, 8, 20])
        want = set(anchors)
        for a in anchors:
            hanging = _brute_hanging(t.adjacency, a)
            want |= {v for v, s in hanging.items() if s >= threshold}
        assert ref.uncapped_cover(par, sizes, anchors, threshold) == want


# ------------------------------------------------------------ corrupted outputs

SMALL = {
    "root-psi": {"round_trials": 8, "config": {"n": 400, "params": {"K": 12}}},
    "seed-mle": {"round_trials": 3, "config": {"n": 50}},
    "cover-sweep": {"round_trials": 6, "grid": [2, 4, 8, 12, 200],
                    "config": {"n": 300, "params": {"k_star": 12, "eps": 0.2, "k": 4, "ell": 2}}},
}


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a round runs in well under a second."""
    for name, change in SMALL.items():
        spec = dict(workloads.WORKLOADS[name])
        spec["config"] = {**spec["config"], **change.get("config", {})}
        spec.update({k: v for k, v in change.items() if k != "config"})
        monkeypatch.setitem(workloads.WORKLOADS, name, spec)


def _round_output(workload, jobs=1):
    _, text = workloads.run_round(harness, lambda: 0.0, workload, 5, 0, jobs)
    return text


def _edit_csv(text, trial, column, value):
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[1 + trial].split(",")
    cells[header.index(column)] = str(value)
    lines[1 + trial] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("workload", ["root-psi", "seed-mle"])
def test_experiment_checks_pass_then_catch_corruption(small, workload):
    out = _round_output(workload)
    assert checks.check_round(workload, 5, 0, out) == []
    row = out.split("\n")[1].split(",")
    success, inter = int(row[8]), int(row[9])
    assert checks.check_round(workload, 5, 0, _edit_csv(out, 0, "success", 1 - success))
    assert checks.check_round(workload, 5, 0, _edit_csv(out, 0, "intersection_size", inter + 2))
    assert checks.check_round(workload, 5, 0, _edit_csv(out, 1, "trial_id", 0))


def test_mle_check_catches_a_non_maximal_placement(small):
    out = _round_output("seed-mle")
    trial = checks._Trial(seedtrace, workloads.round_config("seed-mle", 5, 0, 1),
                          int(out.split("\n")[1].split(",")[-1]))
    adj = trial.presented.adjacency
    best, near = ref.best_star_placements(adj, 4)
    worst = min(((ref.SeedLikelihood(adj).placement((c,) + ch), (c,) + ch)
                 for c, ch in ref.star_placements(adj, 4)))
    assert worst[0] < best - 1e-6
    good = {0: sorted(near[0])}
    bad = {0: sorted(worst[1])}
    assert not [p for p in checks.check_round("seed-mle", 5, 0, out, good)
                if "estimator placement" in p]
    assert checks.check_round("seed-mle", 5, 0, out, bad)


def test_edge_check_catches_a_relabelled_presented_tree(small, monkeypatch):
    out = _round_output("root-psi")
    real = seedtrace.anonymize

    def swapped(t, record):
        """The presented tree with two vertex labels exchanged."""
        p = real(t, record)
        a = 0
        b = next(w for w in range(1, p.n)
                 if set(p.adjacency[w]) - {a} != set(p.adjacency[a]) - {w})
        relabel = {a: b, b: a}
        return build_tree(p.n, [(relabel.get(u, u), relabel.get(v, v)) for u, v in p.edges()])

    monkeypatch.setattr(seedtrace, "anonymize", swapped)
    problems = checks.check_round("root-psi", 5, 0, out)
    assert any("presented edges" in p for p in problems)


def test_sweep_checks_pass_then_catch_corruption(small):
    out = _round_output("cover-sweep")
    assert checks.check_round("cover-sweep", 5, 0, out) == []
    lines = out.split("\n")
    top = lines[-3].split(",")  # last grid point, which no cap binds
    p_hat = float(top[1])
    moved = ",".join([top[0], f"{p_hat - 1 / 6 if p_hat > 0 else 1 / 6:.6f}"] + top[2:])
    assert checks.check_round("cover-sweep", 5, 0, "\n".join(lines[:-3] + [moved] + lines[-2:]))
    assert checks.check_round("cover-sweep", 5, 0, out.replace(lines[-2], "chosen_k,3"))


def test_jobs2_output_is_byte_identical(small):
    for workload in ("root-psi", "cover-sweep"):
        assert _round_output(workload, jobs=2) == _round_output(workload, jobs=1)


# ------------------------------------------------------------------- tracing


def test_traced_round_self_times_add_up(small):
    tracer = tracing.Tracer({"harness": harness, "likelihood": seedtrace.likelihood})
    tracer.install()
    try:
        start = time.perf_counter()
        workloads.run_round(harness, time.perf_counter, "seed-mle", 5, 0, 1)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert harness.run_experiment.__name__ == "run_experiment"
    layers = tracing.rollup(tracer.spans, wall)
    m, balance = layers["metrics"], layers["balance"]
    assert m["harness.run_trial_calls"] == 3
    assert m["likelihood.placements"] == m["likelihood.log_likelihood_seed_calls"] > 0
    assert balance["self_time_sum_s"] == pytest.approx(balance["root_span_sum_s"], abs=1e-9)
    assert 0 <= balance["outside_spans_s"] < 0.05 * wall
    assert all(s[5] in (0, 1, 2) for s in tracer.spans if s[0] != "harness.run_experiment")


def test_trial_tail_rule():
    assert tracing.trial_tail([float(i) for i in range(100)])[0] == 89.0
    assert tracing.trial_tail([float(i) for i in range(40)])[0] == 29.0
    value, rule = tracing.trial_tail([1.0, 5.0, 2.0])
    assert value == 5.0 and "max of 3" in rule


def test_printed_units_match_benchmark_json():
    import json

    import run

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_psi_check_catches_a_short_psi_set(small, monkeypatch):
    out = _round_output("root-psi")
    real = seedtrace.psi_set
    monkeypatch.setattr(seedtrace, "psi_set", lambda t, k: real(t, k - 1))
    problems = checks.check_round("root-psi", 5, 0, out)
    assert any("psi_set differs" in p for p in problems)
