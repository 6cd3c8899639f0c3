"""Property tests: relabeling invariance of the root sets, and tree text round trips."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from seedtrace import build_tree, generate, phi_log_all, phi_set, psi_all, psi_set  # noqa: E402
from seedtrace.tree import format_tree, parse_tree  # noqa: E402

SEEDS = [[], [(0, 1)], [(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)]]


@st.composite
def relabeled_trees(draw):
    """A grown tree, a permutation and the tree relabeled by it."""
    seed_edges = draw(st.sampled_from(SEEDS))
    k = len(seed_edges) + 1
    n = draw(st.integers(k, 80))
    alpha = draw(st.sampled_from([0.0, 1.0]))
    t, _ = generate(build_tree(k, seed_edges), n, alpha=alpha,
                    rng_seed=draw(st.integers(0, 2**32)))
    perm = draw(st.permutations(range(n)))
    relabeled = build_tree(n, [(perm[u], perm[v]) for u, v in t.edges()])
    return t, perm, relabeled


def _assert_same_set(scores, rscores, got, rgot, perm, k, tol):
    """rgot is got mapped through perm, up to ties at the cut-off score."""
    n = len(scores)
    for v in range(n):
        assert abs(rscores[perm[v]] - scores[v]) <= tol
    size = min(k, n)
    cut = sorted(scores)[size - 1]
    must = {perm[v] for v in range(n) if scores[v] < cut - tol}
    may = {perm[v] for v in range(n) if scores[v] <= cut + tol}
    rset = set(rgot.vertices())
    assert len(rgot) == len(got) == size
    assert must <= rset <= may
    if len(may) == size:  # no tie straddles the cut-off
        assert rset == {perm[v] for v in got.vertices()}


@settings(max_examples=60, deadline=None)
@given(relabeled_trees(), st.integers(1, 90))
def test_psi_set_is_invariant_under_relabeling(case, k):
    t, perm, relabeled = case
    if t.n == 1:
        return
    _assert_same_set(psi_all(t), psi_all(relabeled), psi_set(t, k), psi_set(relabeled, k),
                     perm, k, 0)


@settings(max_examples=60, deadline=None)
@given(relabeled_trees(), st.integers(1, 90))
def test_phi_set_is_invariant_under_relabeling(case, k):
    t, perm, relabeled = case
    if t.n == 1:
        return
    # rerooting from another vertex 0 adds the same logs in another order
    _assert_same_set(phi_log_all(t), phi_log_all(relabeled), phi_set(t, k),
                     phi_set(relabeled, k), perm, k, 1e-9)


@settings(max_examples=60, deadline=None)
@given(relabeled_trees(), st.randoms(use_true_random=False))
def test_format_parse_round_trip(case, rnd):
    _, _, t = case
    text = format_tree(t)
    assert format_tree(parse_tree(text)) == text
    lines = text.splitlines()[1:]
    rnd.shuffle(lines)
    lines = [" ".join(reversed(line.split())) if rnd.random() < 0.5 else line
             for line in lines]
    shuffled = parse_tree("\n".join([str(t.n)] + lines) + "\n")
    assert shuffled == t
    assert format_tree(shuffled) == text
