import random

import pytest

from seedtrace import (
    TreeError,
    anonymize,
    generate,
    path_tree,
    spider_tree,
    star_tree,
)
from seedtrace.skeleton import (
    SkeletonObservation,
    bound_calculators,
    bound_cover,
    bound_heart_upper,
    bound_leaf_existence,
    bound_root_psi,
    bound_skeleton,
    bound_star_center,
    skeleton_leaf_set,
    star_recover,
)

from helpers import hanging_sizes, reference_star_recover, top_k, ua_tree


def test_skeleton_observation_validation():
    t = spider_tree([2, 2, 1])
    obs = SkeletonObservation.make(t, [3, 0, 1])
    assert obs.skeleton_ids == (0, 1, 3)
    with pytest.raises(TreeError):
        SkeletonObservation.make(t, [])
    with pytest.raises(TreeError, match="outside"):
        SkeletonObservation.make(t, [0, 9])


def test_skeleton_leaf_set_on_bare_spider():
    # skeleton {0,1,3} of spider(2,2,1): candidates are exactly {2,4,5},
    # all hanging size 1, ties resolved by ascending id
    t = spider_tree([2, 2, 1])
    obs = SkeletonObservation.make(t, [0, 1, 3])
    cs = skeleton_leaf_set(obs, 2)
    assert cs.vertices() == (2, 4)
    assert skeleton_leaf_set(obs, 10).vertex_set() == frozenset({2, 4, 5})


def test_skeleton_leaf_set_prefers_old_subtrees():
    # grow a tree, then check candidates are ranked by hanging size
    seed = spider_tree([2, 2, 1])
    t, rec = generate(seed, 500, rng_seed=1)
    presented = anonymize(t, rec)
    skeleton = tuple(rec.presented_ids([0, 1, 3]))
    obs = SkeletonObservation.make(presented, skeleton)
    cs = skeleton_leaf_set(obs, 6)
    sizes = hanging_sizes(presented, obs.skeleton_ids)
    scores = [s for _, s in cs.members]
    assert scores == sorted(scores, reverse=True)
    assert all(sizes[v] == s for v, s in cs.members)
    neighbors = {
        w
        for u in obs.skeleton_ids
        for w in presented.adjacency[u]
        if w not in obs.skeleton_ids
    }
    assert cs.vertex_set() <= neighbors


def test_skeleton_leaf_set_matches_hanging_sizes_reference():
    """The edge rule on the tree's one rooting ranks the candidates exactly as
    the anchored orientation (hanging_sizes) plus top_k did."""
    rng = random.Random(11)
    trees = [ua_tree(n, s, alpha) for n in (2, 9, 60, 700) for s in (0, 1)
             for alpha in (0.0, 1.0)]
    trees += [path_tree(40), star_tree(30), spider_tree([3, 2, 5]), spider_tree([1] * 12)]
    for t in trees:
        for _ in range(8):
            ids = {rng.randrange(t.n)}
            for _ in range(rng.randint(0, min(7, t.n - 1))):
                ids.add(rng.choice(t.neighbors(rng.choice(sorted(ids)))))
            obs = SkeletonObservation.make(t, ids)
            candidates = {w for u in ids for w in t.neighbors(u)} - ids
            for k in (1, 2, 5, t.n):
                want = top_k(hanging_sizes(t, ids), k, direction="max",
                             eligible=candidates.__contains__)
                got = skeleton_leaf_set(obs, k)
                assert got == want, (t.n, sorted(ids), k)
                assert all(type(v) is int and type(s) is int for v, s in got.members)


def test_skeleton_leaf_set_rejects_a_disconnected_skeleton():
    obs = SkeletonObservation.make(path_tree(6), [1, 3, 4])
    with pytest.raises(TreeError, match="anchor set is not connected"):
        skeleton_leaf_set(obs, 2)


def test_skeleton_leaf_set_rejects_bad_k():
    obs = SkeletonObservation.make(path_tree(4), [1, 2])
    with pytest.raises(TreeError):
        skeleton_leaf_set(obs, 0)


def test_star_recover_on_bare_star():
    # exact S8: the first center candidate is the true center, its top-3
    # neighbors are leaves 1..3 by the id tie-break
    t = star_tree(8)
    cs = star_recover(t, k=8, m=1, m_prime=3)
    assert cs.vertices() == (0, 1, 2, 3)
    assert cs.members[0] == (0, 0.0)
    assert [s for _, s in cs.members] == [0.0, 1.0, 2.0, 3.0]
    assert cs.target_size == 4


def test_star_recover_dedupes_and_caps():
    t = star_tree(8)
    cs = star_recover(t, k=8, m=2, m_prime=2)
    assert cs.target_size == 6
    assert len(cs.members) == len(set(cs.vertices()))
    assert len(cs.members) <= 6


def test_star_recover_validation():
    t = star_tree(5)
    with pytest.raises(TreeError):
        star_recover(t, k=1, m=1, m_prime=1)
    with pytest.raises(TreeError):
        star_recover(t, k=5, m=0, m_prime=1)


def test_star_recover_matches_per_center_reference():
    """One rooting ranks each center's neighbours exactly as a skeleton leaf
    set per center does: size descending, then vertex id ascending."""
    rng = random.Random(77)
    trees = [ua_tree(rng.randint(2, 400), rng_seed=i, alpha=float(i % 2)) for i in range(120)]
    trees += [star_tree(2), star_tree(30), path_tree(9), spider_tree([2, 2, 1, 1, 3])]
    for t in trees:
        m, m_prime = rng.randint(1, 12), rng.randint(1, t.n + 2)
        got = star_recover(t, k=max(2, t.n), m=m, m_prime=m_prime).members
        assert got == reference_star_recover(t, m, m_prime), (t.n, m, m_prime)


def test_star_recover_failure_decomposition():
    """Full-seed coverage can only fail when the center stage or the leaf
    stage fails: (center found) and (leaves covered) forces full coverage,
    and the union bound inequality holds for the empirical frequencies."""
    seed = star_tree(8)
    trials = 250
    n_center = n_joint = n_full = 0
    for i in range(trials):
        t, rec = generate(seed, 5000, rng_seed=i)
        presented = anonymize(t, rec)
        seed_ids = set(rec.presented_ids(range(8)))
        center = rec.presented_ids([0])[0]
        leaf_ids = set(rec.presented_ids(range(1, 8)))
        cs = star_recover(presented, k=8, m=10, m_prime=40)
        out = cs.vertex_set()
        from seedtrace import psi_set

        centers = psi_set(presented, 10).vertex_set()
        a = center in centers
        b = leaf_ids <= out
        full = seed_ids <= out
        if a and b:
            assert full  # per-trial decomposition
        n_center += a
        n_joint += a and b
        n_full += full
    p_full = n_full / trials
    p_center = n_center / trials
    p_leaves_given_center = n_joint / n_center if n_center else 0.0
    assert p_full >= p_center + p_leaves_given_center - 1 - 1e-12
    # the composed estimator should actually work most of the time here
    assert p_full >= 0.5, (n_full, n_center, n_joint)


FROZEN_BOUNDS = [
    ("root-psi", {"eps": 0.1}, 58),
    ("skeleton", {"k": 6, "ell": 3, "eps": 0.1}, 45),
    ("leaf-exist", {"k": 4, "ell": 3, "eps": 0.25}, 12),
    ("cover", {"k": 4, "ell": 2, "eps": 0.2, "k_star": 58}, 4640),
    ("heart-upper", {"k": 4, "eps": 0.2}, 4),
    ("star-center", {"k": 4, "eps": 0.25}, 2),
]


@pytest.mark.parametrize("name,params,value", FROZEN_BOUNDS)
def test_bound_values_frozen(name, params, value):
    result = bound_calculators(name, params)
    assert result.value == value
    assert result.name == name
    assert result.formula  # human-checkable rendering


def test_bound_direct_functions_match_dispatch():
    assert bound_root_psi(0.1) == 58
    assert bound_skeleton(6, 3, 0.1) == 45
    assert bound_leaf_existence(4, 3, 0.25) == 12
    assert bound_cover(4, 2, 0.2, 58) == 4640
    assert bound_heart_upper(4, 0.2) == 4
    assert bound_star_center(4, 0.25) == 2


def test_constant_free_flags():
    assert bound_calculators("heart-upper", {"k": 4, "eps": 0.2}).constant_free
    assert bound_calculators("star-center", {"k": 4, "eps": 0.25}).constant_free
    assert not bound_calculators("root-psi", {"eps": 0.1}).constant_free
    assert not bound_calculators("skeleton", {"k": 6, "ell": 3, "eps": 0.1}).constant_free


def test_constant_scales_constant_free_bounds():
    base = bound_heart_upper(4, 0.2, c=1.0)
    assert bound_heart_upper(4, 0.2, c=3.0) >= 3 * (base - 1)
    assert bound_star_center(4, 0.25, c=10.0) > bound_star_center(4, 0.25)


def test_bound_validation():
    with pytest.raises(TreeError, match="missing parameter 'eps'"):
        bound_calculators("root-psi", {})
    with pytest.raises(TreeError, match="missing parameter 'k_star'"):
        bound_calculators("cover", {"k": 4, "ell": 2, "eps": 0.2})
    with pytest.raises(TreeError, match="eps"):
        bound_calculators("root-psi", {"eps": 1.5})
    with pytest.raises(TreeError, match="eps"):
        bound_root_psi(0.0)
    with pytest.raises(TreeError):
        bound_skeleton(3, 3, 0.1)  # need ell < k
    with pytest.raises(TreeError, match="unknown bound name"):
        bound_calculators("nope", {"eps": 0.1})


def test_bound_result_json():
    d = bound_calculators("root-psi", {"eps": 0.1}).to_json()
    assert d["value"] == 58 and d["name"] == "root-psi"
    assert set(d) == {"name", "value", "formula", "constant_free"}
