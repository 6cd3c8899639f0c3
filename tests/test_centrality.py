import math
import random
import warnings

import pytest

from seedtrace import (
    build_tree,
    dfs_cover_set,
    generate,
    path_tree,
    phi_log_all,
    phi_set,
    psi_all,
    psi_set,
    spider_tree,
    star_tree,
)
from seedtrace.tree import ConfidenceSet, subtree_sizes

from helpers import brute_psi, reference_dfs_cover_set, ua_tree


def test_psi_frozen_values():
    assert psi_all(path_tree(4)) == [3, 2, 2, 3]
    assert psi_all(path_tree(5)) == [4, 3, 2, 3, 4]
    assert psi_all(star_tree(6)) == [1, 5, 5, 5, 5, 5]
    assert psi_all(spider_tree([2, 2, 1])) == [2, 4, 5, 4, 5, 5]
    assert psi_all(path_tree(2)) == [1, 1]


def test_psi_single_vertex_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = psi_all(path_tree(1))
    assert out == []
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_psi_matches_brute_force():
    for seed in range(20):
        t = ua_tree(50, rng_seed=seed)
        fast = psi_all(t)
        assert fast == [brute_psi(t, u) for u in range(50)]


def test_centroid_bound():
    # the minimizer always has max component <= n/2
    for seed in range(30):
        n = 10 + seed * 5
        t = ua_tree(n, rng_seed=1000 + seed)
        values = psi_all(t)
        assert min(values) <= n / 2


def test_phi_frozen_values():
    def as_ints(vals):
        return [round(math.exp(v)) for v in vals]

    assert as_ints(phi_log_all(path_tree(4))) == [6, 2, 2, 6]
    assert as_ints(phi_log_all(path_tree(5))) == [24, 6, 4, 6, 24]
    assert as_ints(phi_log_all(spider_tree([2, 2, 1]))) == [4, 8, 40, 8, 40, 20]
    assert phi_log_all(star_tree(6))[0] == 0.0  # product of five singletons


def test_phi_exact_small():
    """Rerooted phi agrees with the direct per-root integer product, n <= 12."""
    for seed in range(25):
        t = ua_tree(12, rng_seed=seed)
        logs = phi_log_all(t)
        for u in range(t.n):
            sizes = subtree_sizes(t, u)
            product = 1
            for v in range(t.n):
                if v != u:
                    product *= sizes[v]
            assert round(math.exp(logs[u])) == product
            assert abs(logs[u] - math.log(product)) < 1e-9


def test_phi_log_identity_large():
    # same identity at a size where only the log domain survives
    t = ua_tree(400, rng_seed=77)
    logs = phi_log_all(t)
    for u in (0, 13, 200, 399):
        sizes = subtree_sizes(t, u)
        direct = sum(math.log(sizes[v]) for v in range(t.n) if v != u)
        assert abs(logs[u] - direct) < 1e-8


def test_psi_set_and_phi_set():
    assert psi_set(path_tree(3), 1).vertices() == (1,)
    assert phi_set(path_tree(3), 1).vertices() == (1,)
    assert phi_set(star_tree(6), 1).vertices() == (0,)
    cs = psi_set(star_tree(6), 3)
    assert cs.members == ((0, 1.0), (1, 5.0), (2, 5.0))  # id-ascending ties


def test_phi_set_monotone_in_k():
    """Bigger sets can only help: root containment at K=20 vs K=5."""
    hits5 = hits20 = 0
    for i in range(500):
        t, rec = generate(path_tree(1), 200, rng_seed=i)
        from seedtrace import anonymize

        presented = anonymize(t, rec)
        root = rec.presented_ids([0])[0]
        small = phi_set(presented, 5).vertex_set()
        large = phi_set(presented, 20).vertex_set()
        assert small <= large  # nested by construction
        hits5 += root in small
        hits20 += root in large
    assert hits20 >= hits5


def test_scores_invariant_under_relabeling():
    from seedtrace import anonymize

    t, rec = generate(path_tree(1), 80, rng_seed=3)
    presented = anonymize(t, rec)
    assert sorted(psi_all(t)) == sorted(psi_all(presented))
    a = sorted(phi_log_all(t))
    b = sorted(phi_log_all(presented))
    assert all(abs(x - y) < 1e-9 for x, y in zip(a, b))


def test_dfs_cover_set_threshold_pruning():
    # star S9, anchor at the center: threshold just above 1 prunes every leaf
    t = star_tree(9)
    anchors = psi_set(t, 1)
    assert anchors.vertices() == (0,)
    out = dfs_cover_set(t, anchors, k=2, ell=2, eps=0.9, k_cap=9)
    assert out.vertex_set() == frozenset({0})
    # threshold at 0.9 admits the leaves, k_cap truncates in DFS order
    out = dfs_cover_set(t, anchors, k=2, ell=2, eps=0.8, k_cap=5)
    assert out.vertex_set() == frozenset({0, 1, 2, 3, 4})
    out = dfs_cover_set(t, anchors, k=2, ell=2, eps=0.8, k_cap=20)
    assert out.vertex_set() == frozenset(range(9))


def test_dfs_cover_set_path_all_admitted():
    # P8, threshold 0.5: every hanging size is >= 1, so everything enters
    t = path_tree(8)
    anchors = ConfidenceSet(members=((0, 0.0),), target_size=1)
    out = dfs_cover_set(t, anchors, k=2, ell=2, eps=0.5, k_cap=8)
    assert out.vertex_set() == frozenset(range(8))


def test_dfs_cover_set_hand_worked_threshold():
    # P8 anchored at 3, threshold 8*0.999/2 = 3.996: the size-4 arm enters,
    # nothing further (3 < 3.996 prunes both the other arm and the grandchild)
    t = path_tree(8)
    anchors = ConfidenceSet(members=((3, 0.0),), target_size=1)
    out = dfs_cover_set(t, anchors, k=1, ell=1, eps=0.999, k_cap=8)
    assert out.vertex_set() == frozenset({3, 4})


def test_dfs_cover_set_empty_anchors_warns():
    t = path_tree(4)
    empty = ConfidenceSet(members=(), target_size=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = dfs_cover_set(t, empty, k=2, ell=2, eps=0.5, k_cap=4)
    assert out.vertex_set() == frozenset()
    assert any("empty" in str(w.message) for w in caught)


def _cover_case(rng, t, anchors):
    k, ell = rng.randint(1, 6), rng.randint(1, 4)
    eps = rng.choice([rng.uniform(0.001, 0.999), 10 ** rng.uniform(-3, -0.01)])
    k_cap = rng.randint(1, t.n + 3)
    anchor_set = ConfidenceSet(members=tuple((v, 0.0) for v in anchors), target_size=len(anchors))
    got = dfs_cover_set(t, anchor_set, k=k, ell=ell, eps=eps, k_cap=k_cap).members
    want = reference_dfs_cover_set(t, anchors, k, ell, eps, k_cap)
    assert got == want, (t.n, anchors, k, ell, eps, k_cap)


def test_dfs_cover_set_matches_per_anchor_reference():
    """One rooting gives the same (vertex, score) pairs in the same order as
    rooting the tree again at every anchor, truncation included."""
    rng = random.Random(20261018)
    for case in range(300):
        n = rng.randint(2, 500)
        t = ua_tree(n, rng_seed=case, alpha=float(case % 2))
        if case % 3:
            anchors = psi_set(t, rng.randint(1, min(n, 60))).vertices()
        else:
            # arbitrary order, with repeats of vertices already admitted
            anchors = [rng.randrange(n) for _ in range(rng.randint(1, 12))]
            anchors += rng.sample(anchors, rng.randint(0, len(anchors)))
            rng.shuffle(anchors)
        _cover_case(rng, t, tuple(anchors))
    for t in (path_tree(2), path_tree(97), star_tree(2), star_tree(60),
              spider_tree([1]), spider_tree([3, 3, 2, 1]), spider_tree([8, 5, 5, 1, 1])):
        for _ in range(25):
            anchors = tuple(rng.randrange(t.n) for _ in range(rng.randint(1, 5)))
            _cover_case(rng, t, anchors)
            _cover_case(rng, t, psi_set(t, rng.randint(1, t.n)).vertices())


def test_seed_max_psi_attained_at_a_seed_leaf():
    """Within the true seed, the vertex with the worst (largest) max-component
    score is a seed leaf, and its witnessing component holds the rest of the
    seed.  Checked with ground truth over seeded trials."""
    from seedtrace.tree import bfs_order

    for i in range(150):
        seed = spider_tree([2, 1, 1]) if i % 2 else path_tree(4)
        t, rec = generate(seed, 400, rng_seed=5000 + i)
        k = seed.n
        values = psi_all(t)
        worst = max(values[v] for v in range(k))
        attainers = [v for v in range(k) if values[v] == worst]
        leaf_ids = rec.seed.leaf_ids
        witnessed = False
        for v in attainers:
            if v not in leaf_ids:
                continue
            # the largest component of t - v must contain the other seed vertices
            best_size, best_root = 0, None
            for w in t.adjacency[v]:
                size = _component_size(t, w, v)
                if size > best_size:
                    best_size, best_root = size, w
            members = _component_members(t, best_root, v)
            if all(u in members for u in range(k) if u != v):
                witnessed = True
                break
        assert witnessed, (i, attainers)


def _component_size(t, start, removed):
    return len(_component_members(t, start, removed))


def _component_members(t, start, removed):
    seen = {removed, start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in t.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    seen.discard(removed)
    return seen


def test_dfs_cover_recovers_path_seed():
    """Seeded check: with a P4 seed at n=2000 and eps=0.2 the expanded set
    contains the whole seed in at least 75 percent of 400 trials."""
    from seedtrace import anonymize
    from seedtrace.skeleton import bound_root_psi

    k_star = bound_root_psi(0.1)  # eps/2
    covered = 0
    trials = 400
    for i in range(trials):
        t, rec = generate(path_tree(4), 2000, rng_seed=i)
        presented = anonymize(t, rec)
        seed_ids = set(rec.presented_ids(range(4)))
        anchors = psi_set(presented, k_star)
        out = dfs_cover_set(presented, anchors, k=4, ell=2, eps=0.2, k_cap=4640)
        covered += seed_ids <= out.vertex_set()
    assert covered / trials >= 0.75, covered
