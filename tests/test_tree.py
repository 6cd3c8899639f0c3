import io
import tracemalloc

import pytest

from seedtrace import (
    ConfidenceSet,
    SeedPlacement,
    TreeError,
    build_tree,
    path_tree,
    spider_tree,
    star_tree,
)
from seedtrace.tree import (
    bfs_order,
    format_tree,
    parse_tree,
    read_tree,
    subtree_sizes,
    write_tree,
)

from helpers import hanging_sizes, top_k, ua_tree


def test_build_tree_basic():
    t = build_tree(4, [(2, 3), (0, 1), (1, 2)])
    assert t.n == 4
    assert t.adjacency == ((1,), (0, 2), (1, 3), (2,))
    assert t.degree(1) == 2
    assert sorted(t.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert len(t) == 4


def test_build_tree_single_vertex():
    t = build_tree(1, [])
    assert t.n == 1
    assert t.adjacency == ((),)


@pytest.mark.parametrize(
    "n,edges,fragment",
    [
        (3, [(0, 1), (0, 5)], "outside"),
        (3, [(0, 1), (1, 1)], "self-loop"),
        (3, [(0, 1), (0, 1)], "duplicate"),
        (3, [(0, 1)], "needs 2 edges"),
        (4, [(0, 1), (1, 0), (2, 3)], "duplicate"),
        (0, [], "positive"),
    ],
)
def test_build_tree_rejects(n, edges, fragment):
    with pytest.raises(TreeError, match=fragment):
        build_tree(n, edges)


def test_build_tree_rejects_disconnected():
    # right edge count, still not a tree
    with pytest.raises(TreeError):
        build_tree(4, [(0, 1), (2, 3), (0, 1)])


def test_builders():
    p = path_tree(5)
    assert sorted(p.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    s = star_tree(6)
    assert s.degree(0) == 5
    assert all(s.degree(v) == 1 for v in range(1, 6))
    sp = spider_tree([2, 2, 1])
    # center 0, then legs numbered consecutively
    assert sp.n == 6
    assert sorted(sp.edges()) == [(0, 1), (0, 3), (0, 5), (1, 2), (3, 4)]


def test_spider_rejects_bad_legs():
    with pytest.raises(TreeError):
        spider_tree([2, 0, 1])


def test_format_parse_round_trip():
    for seed in range(5):
        t = ua_tree(30, rng_seed=seed)
        again = parse_tree(format_tree(t))
        assert again.n == t.n
        assert sorted(again.edges()) == sorted(t.edges())


def test_parse_error_reporting():
    with pytest.raises(TreeError, match=r"f\.txt: line 1"):
        parse_tree("x\n", source="f.txt")
    with pytest.raises(TreeError, match="line 2"):
        parse_tree("2\n0 one\n")
    with pytest.raises(TreeError, match="expected 'u v'"):
        parse_tree("2\n0 1 2\n")
    with pytest.raises(TreeError, match="needs 2 edges"):
        parse_tree("3\n0 1\n")


def test_parse_counts_edges_before_allocating():
    # a header claiming a huge n must not allocate n adjacency lists
    text = "200000\n0 1\n1 2\n"
    tracemalloc.start()
    try:
        with pytest.raises(TreeError, match="needs 199999 edges, got 2"):
            parse_tree(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_read_write_files(tmp_path):
    t = path_tree(4)
    path = tmp_path / "t.tree"
    write_tree(t, str(path))
    back = read_tree(str(path))
    assert sorted(back.edges()) == sorted(t.edges())
    # also accepts an open file object
    buf = io.StringIO()
    write_tree(t, buf)
    assert parse_tree(buf.getvalue()).n == 4


def test_read_missing_file(tmp_path):
    with pytest.raises((TreeError, OSError)):
        read_tree(str(tmp_path / "nope.tree"))


def test_bfs_order_and_parents():
    t = build_tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    order, parent = bfs_order(t, 0)
    assert order[0] == 0
    assert parent[0] == -1
    assert set(order) == set(range(5))
    for v in order[1:]:
        assert parent[v] in t.adjacency[v]
    # parents appear before children
    pos = {v: i for i, v in enumerate(order)}
    for v in order[1:]:
        assert pos[parent[v]] < pos[v]


def test_subtree_sizes():
    t = path_tree(4)
    assert subtree_sizes(t, 0) == [4, 3, 2, 1]
    assert subtree_sizes(t, 1) == [1, 4, 2, 1]
    for seed in range(3):
        rt = ua_tree(40, rng_seed=seed)
        sizes = subtree_sizes(rt, 7)
        assert sizes[7] == 40
        order, parent = bfs_order(rt, 7)
        for v in range(40):
            kids = [w for w in rt.adjacency[v] if w != parent[v]]
            assert sizes[v] == 1 + sum(sizes[w] for w in kids)


def test_top_k_min_max_and_ties():
    cs = top_k([5.0, 2.0, 2.0, 9.0], 2, direction="min")
    assert cs.members == ((1, 2.0), (2, 2.0))
    cs = top_k([5.0, 2.0, 2.0, 9.0], 2, direction="max")
    assert cs.vertices() == (3, 0)
    # eligibility filter
    cs = top_k([5.0, 2.0, 2.0, 9.0], 2, direction="min", eligible=lambda v: v != 1)
    assert cs.vertices() == (2, 0)


def test_top_k_small_pools():
    cs = top_k([3.0, 1.0], 5, direction="min")
    assert cs.vertices() == (1, 0)
    assert cs.target_size == 5


def test_confidence_set_json():
    cs = ConfidenceSet(members=((4, 1.5), (2, 2.0)), target_size=2)
    assert cs.vertices() == (4, 2)
    assert cs.vertex_set() == frozenset({2, 4})
    assert cs.to_json() == {"members": [[4, 1.5], [2, 2.0]], "target_size": 2}


def test_seed_placement_from_vertices():
    t = path_tree(4)
    sp = SeedPlacement.from_vertices(t, [1, 2])
    assert sp.vertices == (1, 2)
    assert sp.leaf_ids == frozenset({1, 2})
    assert (sp.k, sp.ell) == (2, 2)
    single = SeedPlacement.from_vertices(t, [2])
    assert (single.k, single.ell) == (1, 0)
    js = SeedPlacement.from_vertices(star_tree(5), [0, 1, 2])
    assert js.leaf_ids == frozenset({1, 2})  # center keeps induced degree 2


def test_seed_placement_rejects_disconnected():
    with pytest.raises(TreeError, match="not connected"):
        SeedPlacement.from_vertices(path_tree(4), [0, 2])
    with pytest.raises(TreeError):
        SeedPlacement.from_vertices(path_tree(4), [])


def test_hanging_sizes_path():
    t = path_tree(5)
    assert hanging_sizes(t, [1, 2]) == [1, 2, 3, 2, 1]
    # anchor hanging sizes partition the tree
    assert hanging_sizes(t, [2]) == [1, 2, 5, 2, 1]


def test_hanging_sizes_random_partition():
    # vertices 0..2 of a singleton-grown tree are always connected
    for seed in range(4):
        t = ua_tree(60, rng_seed=seed)
        sizes = hanging_sizes(t, [0, 1, 2])
        assert sum(sizes[a] for a in (0, 1, 2)) == 60
        assert all(1 <= s <= 60 for s in sizes)


def test_hanging_sizes_rejects_disconnected_anchors():
    with pytest.raises(TreeError, match="not connected"):
        hanging_sizes(path_tree(5), [0, 2])
