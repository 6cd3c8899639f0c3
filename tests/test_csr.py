"""CSR trees against the tuple-of-tuples construction they replaced.

The references in helpers.py build adjacency the old way (per-vertex lists,
appended and sorted) and walk it with the old head-index BFS.  Every CSR view
and walk must give the same lists, in the same order.
"""

import random
import time

import numpy as np
import pytest

from seedtrace import (
    anonymize,
    build_tree,
    generate,
    log_likelihood_all,
    path_tree,
    phi_log_all,
    phi_set,
    psi_all,
    psi_set,
    spider_tree,
    star_tree,
)
from seedtrace.growth import rebuild_from_record
from seedtrace.harness import ExperimentConfig, _verify_replay, run_trial
from seedtrace.likelihood import _AllRoots
from seedtrace.tree import Tree, bfs_order, format_tree, parse_tree, rooted_sizes

from helpers import (
    reference_adjacency,
    reference_bfs_order,
    reference_edges,
    reference_grown_adjacency,
    reference_log_likelihood_all,
    reference_rooted_sizes,
    reference_up_codes,
    top_k,
)

SEEDS = {
    1: [],
    4: [(0, 1), (1, 2), (2, 3)],
    6: [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)],
}


def _assert_matches(t, adjacency, roots):
    assert t.adjacency == adjacency
    assert t.edges() == reference_edges(adjacency)
    assert [t.neighbors(v) for v in range(t.n)] == list(adjacency)
    assert [t.degree(v) for v in range(t.n)] == [len(a) for a in adjacency]
    for root in roots:
        assert bfs_order(t, root) == reference_bfs_order(adjacency, root)
        assert rooted_sizes(t, root) == reference_rooted_sizes(adjacency, root)


def _roots(n, rng):
    return sorted({0, n - 1, rng.randrange(n)})


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("k", sorted(SEEDS))
def test_grown_and_presented_trees_match_tuple_construction(alpha, k):
    rng = random.Random(k * 10 + int(alpha))
    seed = build_tree(k, SEEDS[k])
    for n in sorted({k, k + 1, 7, 30, 250, 3000}):
        if n < k:
            continue
        for rng_seed in range(3 if n < 3000 else 1):
            t, record = generate(seed, n, alpha=alpha, rng_seed=rng_seed)
            _assert_matches(t, reference_grown_adjacency(SEEDS[k], k, record.parents),
                            _roots(n, rng))
            presented = anonymize(t, record)
            want = reference_grown_adjacency(SEEDS[k], k, record.parents, record.anonymization)
            _assert_matches(presented, want, _roots(n, rng))
            assert rebuild_from_record(seed, record) == presented
            assert rebuild_from_record(seed, record).adjacency == want


def test_paths_stars_and_spiders_match_tuple_construction():
    rng = random.Random(5)
    trees = [path_tree(n) for n in (1, 2, 3, 50)]
    trees += [star_tree(n) for n in (2, 3, 40)]
    trees += [spider_tree(legs) for legs in ([1], [2, 2, 1], [5, 1, 3, 3])]
    for t in trees:
        _assert_matches(t, reference_adjacency(t.n, t.edges()), _roots(t.n, rng))
    assert path_tree(4).adjacency == ((1,), (0, 2), (1, 3), (2,))
    assert star_tree(4).adjacency == ((1, 2, 3), (0,), (0,), (0,))


def test_parsed_trees_match_tuple_construction():
    rng = random.Random(11)
    for n in (1, 2, 9, 400):
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        labels = list(range(n))
        rng.shuffle(labels)
        edges = [(labels[u], labels[v]) if rng.random() < 0.5 else (labels[v], labels[u])
                 for u, v in edges]
        rng.shuffle(edges)
        text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        t = parse_tree(text)
        _assert_matches(t, reference_adjacency(n, edges), _roots(n, rng))
        assert format_tree(t) == f"{n}\n" + "".join(
            f"{u} {v}\n" for u, v in reference_edges(reference_adjacency(n, edges)))


def test_tree_arrays_are_read_only_and_equality_is_by_content():
    t = build_tree(4, [(2, 3), (0, 1), (1, 2)])
    assert t.indptr.tolist() == [0, 1, 3, 5, 6]
    assert t.indices.tolist() == [1, 0, 2, 1, 3, 2]
    assert t.indptr.dtype == np.int64 and t.indices.dtype == np.int64
    with pytest.raises(ValueError):
        t.indices[0] = 3
    same = path_tree(4)
    assert same == t and hash(same) == hash(t)
    assert build_tree(4, [(0, 1), (0, 2), (0, 3)]) != t
    assert t.adjacency is t.adjacency  # built once


def test_psi_and_phi_sets_rank_as_the_heap_selection():
    for rng_seed in range(6):
        t, record = generate(build_tree(1, []), 400, rng_seed=rng_seed)
        t = anonymize(t, record)
        for k in (1, 5, 58, 400, 500):
            got = psi_set(t, k)
            assert got.members == top_k(psi_all(t), k, direction="min").members
            assert all(type(v) is int and type(s) is int for v, s in got.members)
            got = phi_set(t, k)
            assert got.members == top_k(phi_log_all(t), k, direction="min").members
            assert all(type(v) is int and type(s) is float for v, s in got.members)


def test_corrupted_anonymization_trips_the_replay_check():
    seed = build_tree(4, SEEDS[4])
    t, record = generate(seed, 300, rng_seed=8)
    presented = anonymize(t, record)
    _verify_replay(seed, record, presented)
    perm = record.anonymization
    for i in (0, 3, 150, 299):
        record.anonymization = perm.copy()
        record.anonymization[i] = perm[(i + 1) % 300]
        with pytest.raises(RuntimeError, match="replay mismatch"):
            _verify_replay(seed, record, presented)


class _PerChildUp(_AllRoots):
    """The code pass with the unshared, per-child up pass."""

    _up_codes = staticmethod(reference_up_codes)


def _broom(handle: int, bristles: int):
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + j) for j in range(bristles)]
    return build_tree(handle + bristles, edges)


def _hub_tree(n: int, hubs: int, rng_seed: int):
    """A random recursive tree with many extra leaves grafted onto a few hubs."""
    rng = random.Random(rng_seed)
    core = n // 3
    edges = [(i, rng.randrange(i)) for i in range(1, core)]
    centres = [rng.randrange(core) for _ in range(hubs)]
    edges += [(i, rng.choice(centres)) for i in range(core, n)]
    return build_tree(n, edges)


def test_shared_up_pass_matches_per_child_pass():
    trees = [star_tree(n) for n in (2, 3, 50)]
    trees += [_broom(h, b) for h, b in ((1, 5), (4, 30), (20, 3))]
    trees += [_hub_tree(n, hubs, s) for n, hubs, s in ((60, 1, 0), (300, 3, 1), (900, 5, 2))]
    trees += [generate(build_tree(1, []), 500, alpha=1.5, rng_seed=s)[0] for s in range(3)]
    for t in trees:
        shared, per_child = _AllRoots(t), _PerChildUp(t)
        assert shared.up == per_child.up
        assert shared.intern == per_child.intern
        # the whole tree hanging at v is the tree rooted at v
        terms = [shared.hanging_term(v, ()) for v in range(t.n)]
        assert terms == [per_child.hanging_term(v, ()) for v in range(t.n)]
        for got, want in zip(terms, reference_log_likelihood_all(t)):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_star_likelihood_is_not_quadratic_in_the_degree():
    t = star_tree(20000)
    start = time.perf_counter()
    scores = log_likelihood_all(t)
    elapsed = time.perf_counter() - start
    assert scores[1] == scores[-1] < scores[0]
    # on a 2-core machine the per-child pass takes about 3.4 s, this one 0.05 s
    assert elapsed < 1.5, elapsed


def test_psi_cover_and_star_trials_never_build_the_tuple_view(monkeypatch):
    def refuse(self):
        raise AssertionError("tuple adjacency built")

    monkeypatch.setattr(Tree, "adjacency", property(refuse))
    configs = [
        dict(method="psi", criterion="root-in-set", params={"K": 58}, seed_n=1),
        dict(method="dfs-cover", criterion="cover-seed", seed_edges=((0, 1), (1, 2), (2, 3)),
             params={"k_star": 20, "eps": 0.2, "K": 64}, alpha=1.0),
        dict(method="star", criterion="intersect", seed_edges=((0, 1), (0, 2), (0, 3)),
             params={"m": 3, "m_prime": 5}),
    ]
    for overrides in configs:
        cfg = ExperimentConfig(n=500, trials=1, **overrides)
        for trial_id in (0, 1):  # trial 0 also runs the replay check
            run_trial(cfg, trial_id)
