"""Likelihood machinery vs the exact sequence-enumeration oracle.

The frozen constants below were derived by hand from first principles and
confirmed by the oracle; they are written as literals so a regression in
either implementation cannot silently shift both sides.
"""

import math
import random
from fractions import Fraction

import pytest

from seedtrace import (
    SeedPlacement,
    TreeError,
    build_tree,
    generate,
    log_likelihood_all,
    log_likelihood_rooted,
    log_likelihood_seed,
    mle_root,
    mle_seed,
    path_tree,
    spider_tree,
    star_tree,
)
from seedtrace.likelihood import (
    PlacementBudgetError,
    _all_roots,
    _connected_ksubsets,
    enumerate_placements,
)
from seedtrace.oracle import (
    brute_force_shape_probability,
    enumerate_shapes,
    unrooted_shape_probability,
)

from helpers import (
    rational_rooted_likelihood,
    reference_log_likelihood_all,
    reference_log_likelihood_seed,
    rooted_code_key,
    ua_tree,
)


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol


# hand-derived rooted values: (tree, list of exact probabilities by vertex)
FROZEN_ROOTED = [
    (path_tree(2), [Fraction(1, 2), Fraction(1, 2)]),
    (path_tree(3), [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]),
    (star_tree(4), [Fraction(1, 6)] + [Fraction(1, 18)] * 3),
    (path_tree(4), [Fraction(1, 12), Fraction(1, 4), Fraction(1, 4), Fraction(1, 12)]),
    (
        path_tree(5),
        [
            Fraction(1, 48),
            Fraction(1, 12),
            Fraction(1, 8),
            Fraction(1, 12),
            Fraction(1, 48),
        ],
    ),
    (star_tree(5), [Fraction(1, 24)] + [Fraction(1, 96)] * 4),
]


def test_rooted_frozen_values():
    for t, expected in FROZEN_ROOTED:
        got = log_likelihood_all(t)
        for u, frac in enumerate(expected):
            assert _close(math.exp(got[u]), float(frac)), (t.n, u)
            assert _close(math.exp(log_likelihood_rooted(t, u)), float(frac))


def test_rooted_matches_oracle_exhaustively():
    for n in range(1, 7):
        for t in enumerate_shapes(n):
            got = log_likelihood_all(t)
            for u in range(n):
                exact = brute_force_shape_probability(t, root=u)
                assert _close(math.exp(got[u]), float(exact), 1e-12)


def test_rooted_sums_to_unrooted_probability():
    for n in range(2, 7):
        total = Fraction(0)
        for t in enumerate_shapes(n):
            by_root = sum(brute_force_shape_probability(t, root=u) for u in range(n))
            assert by_root == unrooted_shape_probability(t)
            assert _close(math.exp(log_likelihood_all(t)[0]) * 0 + float(by_root),
                          sum(math.exp(x) for x in log_likelihood_all(t)), 1e-10)
            total += by_root
        assert total == 1


def test_rational_mirror_agrees_with_oracle_exactly():
    """Two independent exact computations (closed formula vs enumeration)."""
    for n in range(1, 8):
        for t in enumerate_shapes(n):
            for u in range(n):
                assert rational_rooted_likelihood(t, u) == brute_force_shape_probability(
                    t, root=u
                )


def test_rational_mirror_vs_production_n10():
    for seed in range(15):
        t = ua_tree(10, rng_seed=seed)
        got = log_likelihood_all(t)
        for u in range(10):
            exact = rational_rooted_likelihood(t, u)
            assert abs(math.exp(got[u]) - float(exact)) < 1e-12 * float(exact) + 1e-15


def test_mle_root_choices():
    assert mle_root(path_tree(3))[0] == 1
    assert mle_root(star_tree(5))[0] == 0
    assert mle_root(path_tree(2))[0] == 0  # tie broken to the smaller id
    assert mle_root(path_tree(4))[0] == 1
    v, ll = mle_root(path_tree(5))
    assert v == 2
    assert _close(math.exp(ll), 1 / 8)


def _exact_best_roots(t):
    """The exact rooted likelihood's maximum and every vertex attaining it,
    by the rational mirror."""
    values = [rational_rooted_likelihood(t, u) for u in range(t.n)]
    best = max(values)
    return best, [u for u, value in enumerate(values) if value == best]


# grown trees whose two bicentroids tie exactly; (n, rng_seed) from a single vertex
BICENTROID_TIES = [(6, 484), (8, 246), (8, 426), (22, 560), (44, 162)]


def test_mle_root_breaks_bicentroid_ties_to_the_smaller_id():
    for n, rng_seed in BICENTROID_TIES:
        t = generate(build_tree(1, []), n, alpha=0.0, rng_seed=rng_seed)[0]
        best, tied = _exact_best_roots(t)
        assert len(tied) == 2, (n, rng_seed)
        v, ll = mle_root(t)
        assert v == min(tied), (n, rng_seed)
        assert _close(math.exp(ll), float(best)), (n, rng_seed)


def test_mle_root_is_the_smallest_id_exact_maximizer_on_every_shape():
    """Every shape with n <= 10 under fixed relabelings; the exact values are
    computed once per shape and carried through each relabeling."""
    rng = random.Random(13)
    for n in range(1, 11):
        perms = [list(range(n)), list(range(n - 1, -1, -1))]
        perms += [rng.sample(range(n), n) for _ in range(2)]
        for t in enumerate_shapes(n):
            best, tied = _exact_best_roots(t)
            for perm in perms:
                relabeled = build_tree(n, [(perm[u], perm[v]) for u, v in t.edges()])
                v, ll = mle_root(relabeled)
                assert v == min(perm[u] for u in tied), (n, t.edges(), perm)
                assert _close(math.exp(ll), float(best)), (n, t.edges(), perm)


def test_rooted_matches_the_all_roots_reference():
    """Every root against the symmetry pass kept in helpers.py, on grown
    trees and on paths, stars and spiders (exact ties across bicentroids)."""
    trees = [ua_tree(n, rng_seed=s) for n in (2, 3, 9, 40, 150) for s in range(6)]
    trees += [ua_tree(300, rng_seed=s, alpha=1.0) for s in range(3)]
    trees += [path_tree(n) for n in (1, 2, 7, 40)] + [star_tree(n) for n in (3, 60)]
    trees += [spider_tree([3, 3, 3]), spider_tree([5, 5]), spider_tree([4, 2, 2, 1])]
    for t in trees:
        got, want = log_likelihood_all(t), reference_log_likelihood_all(t)
        assert len(got) == len(want) == t.n
        for u in range(t.n):
            assert abs(got[u] - want[u]) <= 1e-10 * max(1.0, abs(want[u])), (t.n, u)


def test_seed_frozen_values():
    cases = [
        (path_tree(3), (0, 1), Fraction(1, 2)),
        (path_tree(3), (1, 2), Fraction(1, 2)),
        (star_tree(4), (0, 1), Fraction(1, 2)),
        (path_tree(5), (1, 2, 3), Fraction(1, 4)),
        (path_tree(5), (0, 1), Fraction(1, 12)),
        (star_tree(6), (0, 1, 2), Fraction(1, 6)),
    ]
    for t, placement, frac in cases:
        assert _close(math.exp(log_likelihood_seed(t, placement)), float(frac))
        assert brute_force_shape_probability(t, placement=placement) == frac


def test_seed_accepts_placement_object():
    t = path_tree(5)
    sp = SeedPlacement.from_vertices(t, [1, 2, 3])
    assert _close(math.exp(log_likelihood_seed(t, sp)), 0.25)


def test_seed_whole_tree_is_certain():
    t = path_tree(4)
    assert log_likelihood_seed(t, (0, 1, 2, 3)) == 0.0


def test_seed_matches_oracle_exhaustively():
    for n in range(1, 6):
        for t in enumerate_shapes(n):
            for k in range(1, n + 1):
                for sub in _connected_ksubsets(t, k):
                    exact = brute_force_shape_probability(t, placement=sub)
                    got = math.exp(log_likelihood_seed(t, sub))
                    assert _close(got, float(exact), 1e-12)


def test_connected_ksubsets_match_brute_force():
    import itertools

    def connected(t, verts):
        verts = set(verts)
        stack = [next(iter(verts))]
        seen = {stack[0]}
        while stack:
            v = stack.pop()
            for w in t.adjacency[v]:
                if w in verts and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == verts

    for seed in range(5):
        t = ua_tree(10, rng_seed=seed)
        for k in range(1, 5):
            fast = {frozenset(s) for s in _connected_ksubsets(t, k)}
            slow = {
                frozenset(c)
                for c in itertools.combinations(range(10), k)
                if connected(t, c)
            }
            assert fast == slow


def test_enumerate_placements_filters_and_sorts():
    p4 = path_tree(4)
    assert [p.vertices for p in enumerate_placements(p4, 2, 2)] == [
        (0, 1),
        (1, 2),
        (2, 3),
    ]
    assert [p.vertices for p in enumerate_placements(p4, 3, 2)] == [(0, 1, 2), (1, 2, 3)]
    s6 = star_tree(6)
    pairs = enumerate_placements(s6, 3, 2)
    assert len(pairs) == 10  # center plus any two leaves
    assert all(p.ell == 2 for p in pairs)
    # valid (k, ell) with no witness: every connected 4-subset of S6 has 3 leaves
    assert enumerate_placements(s6, 4, 2) == []
    assert len(enumerate_placements(s6, 4, 3)) == 10


def test_placement_k_ell_validation():
    t = path_tree(6)
    with pytest.raises(TreeError):
        enumerate_placements(t, 2, 1)  # k=2 forces ell=2
    with pytest.raises(TreeError):
        enumerate_placements(t, 1, 1)  # a single vertex has no leaves
    with pytest.raises(TreeError):
        enumerate_placements(t, 4, 4)  # need ell <= k-1 for k >= 3
    with pytest.raises(TreeError):
        enumerate_placements(t, 4, 1)
    assert [p.vertices for p in enumerate_placements(t, 1, 0)] == [
        (v,) for v in range(6)
    ]


def test_placement_budget():
    t = ua_tree(40, rng_seed=0)
    with pytest.raises(PlacementBudgetError):
        enumerate_placements(t, 4, 2, budget=10)


def test_mle_seed_tie_breaks_lexicographically():
    placement, ll = mle_seed(path_tree(3), 2, 2)
    assert placement.vertices == (0, 1)
    assert _close(math.exp(ll), 0.5)


def test_mle_seed_matches_argmax_over_enumeration():
    for seed in range(6):
        t = ua_tree(14, rng_seed=seed)
        placements = enumerate_placements(t, 3, 2)
        if not placements:
            continue
        values = [log_likelihood_seed(t, p) for p in placements]
        best = max(range(len(values)), key=lambda i: values[i])
        # first placement attaining the max, in enumeration order
        while best > 0 and _close(values[best - 1], values[best], 1e-12):
            best -= 1
        got_p, got_ll = mle_seed(t, 3, 2)
        assert got_p.vertices == placements[best].vertices
        assert _close(got_ll, values[best], 1e-9)


def test_mle_seed_no_valid_placement():
    with pytest.raises(TreeError):
        mle_seed(path_tree(6), 3, 3)  # paths have no 3-leaf 3-subsets


def test_mle_seed_star_recovery_majority():
    """Whole-pipeline Monte Carlo: a 5-vertex star seed grown to n=300, the
    exhaustive placement MLE (k=5, ell=4) hits the true seed in at least one
    vertex in a majority of 200 trials."""
    from seedtrace.harness import ExperimentConfig, run_experiment

    seed = star_tree(5)
    cfg = ExperimentConfig(
        n=300,
        method="mle-seed",
        criterion="intersect",
        trials=200,
        master_seed=294,
        params={"k": 5, "ell": 4},
        seed_n=seed.n,
        seed_edges=tuple(seed.edges()),
    )
    res = run_experiment(cfg)
    assert res.p_hat > 0.5, res.p_hat


def test_rooted_code_key_isomorphism():
    p4 = path_tree(4)
    assert rooted_code_key(p4, 0) == rooted_code_key(p4, 3)
    assert rooted_code_key(p4, 1) == rooted_code_key(p4, 2)
    assert rooted_code_key(p4, 0) != rooted_code_key(p4, 1)
    s5 = star_tree(5)
    assert len({rooted_code_key(s5, v) for v in range(1, 5)}) == 1
    assert rooted_code_key(s5, 0) != rooted_code_key(s5, 1)


def test_likelihood_handles_asymmetric_tree():
    # caterpillar with distinct arms; sanity: probabilities in (0, 1], sum < 1
    t = build_tree(7, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (5, 6)])
    vals = [math.exp(x) for x in log_likelihood_all(t)]
    assert all(0 < v <= 1 for v in vals)
    for u in range(7):
        assert _close(
            vals[u], float(brute_force_shape_probability(t, root=u)), 1e-12
        )


def _balanced_tree(depth: int, arity: int = 2):
    edges, frontier, nxt = [], [0], 1
    for _ in range(depth):
        grown = []
        for v in frontier:
            for _ in range(arity):
                edges.append((v, nxt))
                grown.append(nxt)
                nxt += 1
        frontier = grown
    return build_tree(nxt, edges)


def _spread(items, count):
    """At most count items, evenly spaced through the list."""
    step = max(1, len(items) // count)
    return items[::step]


SEED_SHAPES = [(2, 2), (3, 2), (4, 2), (4, 3), (5, 4)]


def test_seed_matches_reference_on_random_trees():
    """The one-pass scores against cutting out and rescoring every hanging
    subtree per placement."""
    for n, rng_seed in [(12, 0), (40, 1), (120, 2), (300, 3)]:
        for alpha in (0.0, 1.0):
            t = ua_tree(n, rng_seed=rng_seed, alpha=alpha)
            for k, ell in SEED_SHAPES:
                for p in _spread(enumerate_placements(t, k, ell), 25):
                    want = reference_log_likelihood_seed(t, p.vertices)
                    assert abs(log_likelihood_seed(t, p) - want) <= 1e-10, (n, alpha, p)


def test_seed_matches_reference_on_symmetric_trees():
    """Paths, spiders and balanced trees put s deep inside symmetric hanging
    subtrees (orbit products above 1) and on both kinds of centre."""
    trees = [path_tree(n) for n in (2, 5, 8, 11)] + [
        spider_tree([3, 3, 3]),
        spider_tree([2, 2, 1, 1]),
        spider_tree([4, 4]),
        _balanced_tree(3),
        _balanced_tree(4),
        _balanced_tree(2, arity=3),
    ]
    for t in trees:
        for k in range(1, 5):
            for sub in _connected_ksubsets(t, k):
                want = reference_log_likelihood_seed(t, sub)
                assert abs(log_likelihood_seed(t, sub) - want) <= 1e-10, (t.n, sub)


def test_hanging_orbit_sizes():
    """R_s for whole trees (no cut): the number of vertices like s."""
    cases = [
        (path_tree(2), 0, 2),  # bicentre with isomorphic halves
        (path_tree(4), 1, 2),
        (path_tree(5), 0, 2),  # unique centre, two isomorphic legs
        (path_tree(5), 2, 1),
        (spider_tree([2, 2, 2]), 6, 3),
        (spider_tree([2, 2, 1]), 1, 2),
        (_balanced_tree(3), 14, 8),
        (_balanced_tree(3), 3, 4),
        (_balanced_tree(2, arity=3), 5, 9),
    ]
    for t, s, orbit in cases:
        assert _all_roots(t)._orbit(s, list(t.adjacency[s])) == orbit, (t.n, s)
        # the same count by brute force over rooted codes
        assert orbit == sum(
            rooted_code_key(t, w) == rooted_code_key(t, s) for w in range(t.n)
        )


def test_mle_seed_scales_to_thousands_of_vertices():
    """One all-roots pass serves every placement: about 4000 placements on
    a 2000-vertex tree take well under a second, not a minute."""
    import time

    t = ua_tree(2000, rng_seed=0)
    start = time.monotonic()
    best, best_ll = mle_seed(t, 3, 2)
    assert time.monotonic() - start < 10.0
    assert abs(best_ll - reference_log_likelihood_seed(t, best.vertices)) <= 1e-10


def _mirrored(t, rng_seed):
    """Two copies of t joined root to root, the second copy's ids shuffled;
    returns the tree and the automorphism that swaps the copies."""
    import random

    n = t.n
    shuffle = list(range(n, 2 * n))
    random.Random(rng_seed).shuffle(shuffle)
    edges = list(t.edges()) + [(shuffle[u], shuffle[v]) for u, v in t.edges()]
    edges.append((0, shuffle[0]))
    swap = [0] * (2 * n)
    for v in range(n):
        swap[v], swap[shuffle[v]] = shuffle[v], v
    return build_tree(2 * n, edges), swap


def test_automorphic_placements_tie_exactly():
    for rng_seed in range(3):
        t, swap = _mirrored(ua_tree(30, rng_seed=rng_seed), rng_seed)
        placements = enumerate_placements(t, 4, 3)
        scores = {p.vertices: log_likelihood_seed(t, p) for p in placements}
        for vertices, score in scores.items():
            image = tuple(sorted(swap[v] for v in vertices))
            assert scores[image] == score, (vertices, image)
        best, best_ll = mle_seed(t, 4, 3)
        top = [v for v, score in scores.items() if score == best_ll]
        assert best_ll == max(scores.values())
        assert best.vertices == min(top)
        assert len(top) >= 2  # the mirror image of the winner ties with it


def test_seed_cache_follows_the_tree():
    """Calls that alternate between two trees score each one as if alone."""
    t1, t2 = ua_tree(60, rng_seed=7), ua_tree(60, rng_seed=8)
    p1, p2 = enumerate_placements(t1, 3, 2), enumerate_placements(t2, 3, 2)
    alone1 = [log_likelihood_seed(t1, p) for p in p1]
    alone2 = [log_likelihood_seed(t2, p) for p in p2]
    for i in range(min(len(p1), len(p2))):
        assert log_likelihood_seed(t1, p1[i]) == alone1[i]
        assert log_likelihood_seed(t2, p2[i]) == alone2[i]
    # an equal but distinct tree object gets its own pass and the same scores
    twin = build_tree(t1.n, t1.edges())
    assert twin is not t1
    assert [log_likelihood_seed(twin, p) for p in p1] == alone1
