import numpy as np
import pytest

from helpers import reference_weighted_draw, reference_weighted_parents
from seedtrace import (
    TreeError,
    anonymize,
    build_tree,
    generate,
    path_tree,
    seed_component_sizes,
    star_tree,
)
from seedtrace.growth import _grow_record, _weighted_parents, rebuild_from_record
from seedtrace.rng import STREAM_GROW, derive_seed, make_rng
from seedtrace.stats import chi_square_test


def test_generate_shapes_and_labels():
    seed = path_tree(3)
    t, rec = generate(seed, 10, rng_seed=1)
    assert t.n == 10
    assert rec.k == 3 and rec.n == 10
    assert list(rec.arrival_order()) == list(range(3, 10))
    # arrivals attach to earlier vertices only
    for i, p in enumerate(rec.parents, start=3):
        assert 0 <= p < i
    # seed edges survive
    for u, v in seed.edges():
        assert v in t.adjacency[u]


def test_generate_n_equals_k():
    seed = star_tree(4)
    t, rec = generate(seed, 4, rng_seed=0)
    assert t.adjacency == seed.adjacency
    assert len(rec.parents) == 0


def test_generate_rejects_bad_args():
    with pytest.raises(TreeError, match="smaller than the seed"):
        generate(path_tree(3), 2)
    with pytest.raises(TreeError, match=">= 0"):
        generate(path_tree(2), 5, alpha=-1.0)


def test_generate_deterministic():
    a1, r1 = generate(path_tree(2), 50, rng_seed=99)
    a2, r2 = generate(path_tree(2), 50, rng_seed=99)
    assert a1.adjacency == a2.adjacency
    assert np.array_equal(r1.parents, r2.parents)
    b, _ = generate(path_tree(2), 50, rng_seed=100)
    assert b.adjacency != a1.adjacency  # astronomically unlikely to collide


def test_growth_record_json():
    _, rec = generate(path_tree(2), 6, rng_seed=5)
    d = rec.to_json()
    assert d["n"] == 6 and d["k"] == 2
    assert d["seed_vertices"] == [0, 1]
    assert len(d["parents"]) == 4
    assert d["anonymization"] is None


def test_uniform_attachment_frequencies():
    """alpha=0: the first arrival lands on each P3 vertex equally often."""
    counts = [0, 0, 0]
    trials = 3000
    for i in range(trials):
        _, rec = generate(path_tree(3), 4, rng_seed=i)
        counts[int(rec.parents[0])] += 1
    _, p, _ = chi_square_test(counts, [1 / 3] * 3)
    assert p > 1e-3, counts


def test_degree_weighted_attachment_frequencies():
    """alpha=1: P3 degrees (1,2,1) give attachment law (1/4, 1/2, 1/4)."""
    counts = [0, 0, 0]
    trials = 3000
    for i in range(trials):
        _, rec = generate(path_tree(3), 4, alpha=1.0, rng_seed=i)
        counts[int(rec.parents[0])] += 1
    _, p, _ = chi_square_test(counts, [0.25, 0.5, 0.25])
    assert p > 1e-3, counts


def test_weighted_sampler_matches_naive_replay():
    """The Fenwick pick must equal a naive cumulative-sum scan consuming the
    same uniforms, for several alpha values."""
    for alpha in (0.5, 1.0, 1.7):
        for seed_id in range(3):
            t, rec = generate(path_tree(3), 40, alpha=alpha, rng_seed=seed_id)
            rng = make_rng(derive_seed(seed_id, 0, STREAM_GROW))
            u01 = rng.random(40 - 3)
            degrees = [1, 2, 1]
            expect = []
            for step, u in enumerate(u01):
                weights = np.array([float(d) ** alpha for d in degrees])
                cum = np.cumsum(weights)
                pick = int(np.searchsorted(cum, u * cum[-1], side="left"))
                pick = min(pick, len(degrees) - 1)
                expect.append(pick)
                degrees[pick] += 1
                degrees.append(1)
            assert list(rec.parents) == expect


_DRAW_SEEDS = {
    "single vertex": path_tree(1),  # its first pick starts from degree 0
    "path 4": path_tree(4),
    "6 vertices": build_tree(6, ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5))),
}
# the padding past n and the descent's first step depend on n's bit length;
# the descent can reach the padding with a live prefix only when n is well
# inside its power-of-two bracket, as at 700 and 1536
_DRAW_SIZES = sorted({2**L + d for L in (9, 10, 11) for d in (-1, 0, 1)} | {700, 1536})


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("seed_name", sorted(_DRAW_SEEDS))
def test_weighted_draw_matches_reference_sampler(alpha, seed_name):
    """alpha > 0 parents equal the sampler-object draw bit for bit."""
    seed = _DRAW_SEEDS[seed_name]
    k = seed.n
    for n in [k, k + 1] + _DRAW_SIZES:
        for rng_seed in (0, 7, 20261017):
            got = _grow_record(seed, n, alpha, rng_seed).parents
            assert got.dtype == np.int64
            assert got.tolist() == reference_weighted_parents(seed, n, alpha, rng_seed), (
                n, rng_seed,
            )


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0])
def test_weighted_draw_clamps_like_reference_sampler(alpha):
    """Uniforms just below 1 make the descent overshoot the last vertex,
    where the pick is clamped; random states in between vary the sums."""
    below_one = 1.0 - 2.0**-53
    for seed in _DRAW_SEEDS.values():
        degrees = [seed.degree(v) for v in range(seed.n)]
        for n in (700, 1025, 2049):
            u01 = make_rng(n).random(n - seed.n).tolist()
            u01[::3] = [below_one] * len(u01[::3])
            got = _weighted_parents(list(degrees), n, alpha, u01)
            assert got == reference_weighted_draw(degrees, n, alpha, u01), n


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0, 300.0])
def test_generate_rejects_alpha_without_finite_weights(alpha):
    with pytest.raises(TreeError, match="finite"):
        generate(path_tree(2), 2000, alpha=alpha)


def test_alpha_bound_depends_on_n():
    """n * (n - 1)**100 is finite at n=30 and overflows at n=2000."""
    t, _ = generate(path_tree(2), 30, alpha=100.0, rng_seed=1)
    assert t.n == 30
    with pytest.raises(TreeError, match="n=2000"):
        generate(path_tree(2), 2000, alpha=100.0, rng_seed=1)


def test_anonymize_is_a_relabeling():
    t, rec = generate(path_tree(2), 30, rng_seed=11)
    presented = anonymize(t, rec)
    perm = rec.anonymization
    assert sorted(perm) == list(range(30))
    assert sorted(t.degree(v) for v in range(30)) == sorted(
        presented.degree(v) for v in range(30)
    )
    for u, v in t.edges():
        assert int(perm[v]) in presented.adjacency[int(perm[u])]


def test_anonymize_deterministic_and_reseedable():
    t, rec = generate(path_tree(2), 12, rng_seed=4)
    p1 = anonymize(t, rec)
    p2 = anonymize(t, rec)
    assert p1.adjacency == p2.adjacency
    p3 = anonymize(t, rec, rng_seed=123)
    assert sorted(rec.anonymization) == list(range(12))
    assert p3.n == 12


def test_presented_ids_mapping():
    t, rec = generate(path_tree(2), 10, rng_seed=8)
    assert rec.presented_ids([0, 1]) == [0, 1]  # identity before anonymize
    anonymize(t, rec)
    ids = rec.presented_ids([0, 1])
    assert ids == [int(rec.anonymization[0]), int(rec.anonymization[1])]


def test_rebuild_from_record():
    seed = star_tree(4)
    t, rec = generate(seed, 25, alpha=0.8, rng_seed=2)
    assert rebuild_from_record(seed, rec).adjacency == t.adjacency
    presented = anonymize(t, rec)
    assert rebuild_from_record(seed, rec).adjacency == presented.adjacency


def test_seed_component_sizes_against_direct_count():
    for seed_id in range(6):
        seed = path_tree(3)
        _, rec = generate(seed, 200, rng_seed=seed_id)
        sizes = seed_component_sizes(rec)
        # direct: trace every vertex back to its seed ancestor
        comp = list(range(3)) + [0] * 197
        for i, p in enumerate(rec.parents, start=3):
            comp[i] = comp[int(p)]
        direct = [comp.count(v) for v in range(3)]
        assert list(sizes) == direct
        assert sum(sizes) == 200


def test_seed_component_sizes_no_growth():
    _, rec = generate(path_tree(4), 4, rng_seed=0)
    assert list(seed_component_sizes(rec)) == [1, 1, 1, 1]
