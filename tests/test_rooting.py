"""The cached numpy rooting against the Python FIFO walk.

``Tree.rooting`` walks breadth-first levels in numpy and hands deep trees to
the Python walk from its current frontier.  Both routes must give the FIFO
order, parents and sizes of the reference walk, and psi and phi read from it
must equal the old Python loops exactly: psi as integers, phi bit for bit.
"""

import random

from seedtrace import (
    anonymize,
    build_tree,
    generate,
    path_tree,
    phi_log_all,
    phi_set,
    psi_all,
    psi_set,
    spider_tree,
    star_tree,
)
from seedtrace.tree import Tree, _rooting, rooted_sizes

from helpers import reference_bfs_order, reference_psi_phi, reference_rooted_sizes


def _broom(handle: int, bristles: int, handle_first: bool = True) -> Tree:
    """A path of handle vertices with bristles leaves at its far end; vertex 0
    is the free end of the handle, or one bristle when not handle_first."""
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + j) for j in range(bristles)]
    if not handle_first:
        n = handle + bristles
        edges = [(n - 1 - u, n - 1 - v) for u, v in edges]
    return build_tree(handle + bristles, edges)


def _lollipop(hub: int, tail: int) -> Tree:
    """A star on hub + 1 vertices centred at 0, with a path of tail vertices
    hanging from its last leaf: wide first, then deep."""
    edges = [(0, i) for i in range(1, hub + 1)]
    edges += [(i, i + 1) for i in range(hub, hub + tail)]
    return build_tree(hub + tail + 1, edges)


def _grown(n: int, alpha: float, rng_seed: int, seed: Tree = path_tree(1)) -> Tree:
    t, record = generate(seed, n, alpha=alpha, rng_seed=rng_seed)
    return anonymize(t, record)


def _fresh(t: Tree) -> Tree:
    return Tree(n=t.n, indptr=t.indptr, indices=t.indices)


def _assert_matches_reference(t: Tree) -> None:
    adjacency = t.adjacency
    r = _fresh(t).rooting
    order, parent = reference_bfs_order(adjacency, 0)
    _, sizes = reference_rooted_sizes(adjacency, 0)
    assert r.order.tolist() == order
    assert r.parent.tolist() == parent
    assert r.sizes.tolist() == sizes
    assert r.levels[0] == 0 and list(r.levels) == sorted(r.levels)
    psi, phi = reference_psi_phi(adjacency)
    if t.n > 1:
        assert psi_all(_fresh(t)) == psi
    assert phi_log_all(_fresh(t)) == phi  # bit for bit, never approximately


def _walked_in_python(t: Tree) -> bool:
    return _fresh(t).rooting.levels[-1] < t.n


def test_random_trees_match_the_fifo_walk():
    trees = [_grown(n, alpha, s) for n in (1, 2, 3, 150, 400, 2000, 5000)
             for alpha in (0.0, 1.0) for s in (0, 1)]
    trees += [_grown(n, 0.0, 7, spider_tree([2, 1, 1])) for n in (300, 3000)]
    for t in trees:
        _assert_matches_reference(t)
    # both routes ran: small trees are walked in Python, large ones in numpy
    assert _walked_in_python(trees[4])
    assert not _walked_in_python(_grown(5000, 0.0, 0))


def test_deep_trees_match_the_fifo_walk():
    deep = [path_tree(n) for n in (2, 5, 200, 3000, 9171)]
    deep += [_broom(h, b, first) for h, b in ((300, 700), (2000, 50), (50, 2000))
             for first in (True, False)]
    deep += [spider_tree([400] * 6), spider_tree([1] * 300 + [900]), _lollipop(500, 3000)]
    for t in deep:
        _assert_matches_reference(t)
    # the guard hands these to the Python walk part way down
    for t in (path_tree(3000), _broom(2000, 50), spider_tree([400] * 6), _lollipop(500, 3000)):
        r = _fresh(t).rooting
        assert 1 < len(r.levels) and r.levels[-1] < t.n, r.levels


def test_wide_trees_match_the_fifo_walk():
    # np.log(9170) and math.log(9170) differ in the last bit with some numpy
    # builds, so the leaves of star_tree(9171) catch phi reading np.log
    for t in (star_tree(2), star_tree(3), star_tree(9171), spider_tree([1] * 2000 + [3])):
        _assert_matches_reference(t)
    assert not _walked_in_python(star_tree(5000))


def test_rooting_at_other_vertices():
    rng = random.Random(3)
    for t in (_grown(3000, 0.0, 4), _grown(3000, 1.0, 5), path_tree(700), _broom(60, 600)):
        for root in [rng.randrange(t.n) for _ in range(4)] + [t.n - 1]:
            r = _rooting(t, root)
            order, parent = reference_bfs_order(t.adjacency, root)
            assert r.order.tolist() == order and r.parent.tolist() == parent
            assert rooted_sizes(t, root) == reference_rooted_sizes(t.adjacency, root)


def test_rooting_is_cached_and_read_only():
    t = _grown(3000, 0.0, 9)
    r = t.rooting
    assert t.rooting is r
    psi_set(t, 5)
    phi_set(t, 5)
    assert t.rooting is r
    for array in (r.order, r.parent, r.sizes):
        assert not array.flags.writeable
