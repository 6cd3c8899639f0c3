"""Checks of the enumeration oracle against in-test first-principles counts.

These tests rebuild tiny growth spaces with plain itertools so the oracle is
validated by something that shares none of its code.
"""

import itertools
from fractions import Fraction

import pytest

from seedtrace import TreeError, build_tree, path_tree, star_tree
from seedtrace.oracle import (
    brute_force_shape_probability,
    enumerate_shapes,
    rooted_shape_distribution,
    unrooted_shape_probability,
)


def test_shape_counts_match_oeis():
    # number of unlabeled free trees: 1, 1, 1, 2, 3, 6, 11
    assert [len(enumerate_shapes(n)) for n in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]


def test_enumerated_shapes_are_distinct_trees():
    for n in (4, 6, 7):
        shapes = enumerate_shapes(n)
        assert all(t.n == n for t in shapes)
        # pairwise non-isomorphic: distinct minimum rooted codes
        from helpers import rooted_code_key

        keys = {min(rooted_code_key(t, v) for v in range(n)) for t in shapes}
        assert len(keys) == len(shapes)


def _grow_all_from_p2(n):
    """Every attachment sequence starting from the 2-vertex seed."""
    ranges = [range(i) for i in range(2, n)]
    for seq in itertools.product(*ranges):
        edges = [(0, 1)] + [(int(p), i + 2) for i, p in enumerate(seq)]
        yield build_tree(n, edges)


def test_star_probability_from_p2_by_direct_count():
    """2 of the 6 equally likely histories from P2 to n=4 form a star."""
    outcomes = list(_grow_all_from_p2(4))
    assert len(outcomes) == 6
    stars = sum(1 for t in outcomes if max(t.degree(v) for v in range(4)) == 3)
    assert Fraction(stars, len(outcomes)) == Fraction(1, 3)
    # pinning which seed endpoint becomes the center halves it again
    center0 = sum(1 for t in outcomes if t.degree(0) == 3)
    assert Fraction(center0, len(outcomes)) == Fraction(1, 6)


def test_star_probability_decomposition():
    """Pr{star, center=v0} = Pr{sizes (3,1)} * Pr{star shape | sizes}.

    The oracle's placement value is the conditional factor; the urn gives the
    size factor 1/3; their product matches the direct count above.
    """
    conditional = brute_force_shape_probability(star_tree(4), placement=(0, 1))
    assert conditional == Fraction(1, 2)
    assert Fraction(1, 3) * conditional == Fraction(1, 6)


def test_unrooted_probabilities_frozen():
    assert unrooted_shape_probability(star_tree(4)) == Fraction(1, 3)
    assert unrooted_shape_probability(path_tree(4)) == Fraction(2, 3)
    assert unrooted_shape_probability(path_tree(3)) == 1


def test_unrooted_probabilities_sum_to_one():
    for n in range(1, 8):
        total = sum(unrooted_shape_probability(t) for t in enumerate_shapes(n))
        assert total == 1, n


def test_rooted_endpoint_quarter():
    assert brute_force_shape_probability(path_tree(3), root=0) == Fraction(1, 4)
    assert brute_force_shape_probability(path_tree(3), root=1) == Fraction(1, 2)


def test_rooted_distribution_m4():
    dist = rooted_shape_distribution(4)
    assert sorted(dist.values()) == [
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 2),
    ]
    assert sum(dist.values()) == 1


def test_rooted_distribution_sums_to_one():
    for m in range(1, 7):
        assert sum(rooted_shape_distribution(m).values()) == 1


def test_oracle_argument_validation():
    with pytest.raises(TreeError, match="exactly one"):
        brute_force_shape_probability(path_tree(3))
    with pytest.raises(TreeError, match="exactly one"):
        brute_force_shape_probability(path_tree(3), root=0, placement=(0, 1))
    with pytest.raises(TreeError, match="up to n=9"):
        brute_force_shape_probability(path_tree(12), root=0)
