"""Core tree structures shared by every estimator and the harness.

Vertices are dense 0-based integers.  A ``Tree`` is immutable after
construction and stores its adjacency in compressed sparse row (CSR) form:
the neighbours of v are ``indices[indptr[v]:indptr[v + 1]]``, sorted
ascending.  All traversals are iterative (explicit stacks or queues), so
trees with millions of vertices never hit the interpreter recursion limit.

Text format for tree files: first line is the vertex count ``n``, followed by
``n - 1`` lines ``u v`` with space-separated 0-based endpoint ids and LF line
endings.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import IO

import numpy as np


class TreeError(ValueError):
    """Raised for malformed trees, files, or invalid vertex sets."""


@dataclass(frozen=True, eq=False)
class Tree:
    """Unrooted tree on vertices ``0 .. n-1`` in CSR form.

    ``indptr`` (n + 1 entries) and ``indices`` (2(n - 1) entries) are
    read-only int64 arrays, each row of ``indices`` sorted.  ``rooting``
    (at vertex 0) and the tuple-of-tuples ``adjacency`` view are built on
    first access and kept.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @cached_property
    def rooting(self) -> Rooting:
        """The tree rooted at vertex 0, built on first access and kept."""
        return _rooting(self, 0)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        ptr, idx = self.csr_lists()
        return tuple(tuple(idx[ptr[v] : ptr[v + 1]]) for v in range(self.n))

    def csr_lists(self) -> tuple[list[int], list[int]]:
        """indptr and indices as Python lists, for walks in pure Python."""
        return self.indptr.tolist(), self.indices.tolist()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.indices[self.indptr[v] : self.indptr[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (us, vs) with us < vs, sorted by (u, v)."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        keep = rows < self.indices
        return rows[keep], self.indices[keep]

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (min, max) pairs, lexicographically sorted."""
        us, vs = self.edge_arrays()
        return list(zip(us.tolist(), vs.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.indices.tobytes()))

    def __len__(self) -> int:
        return self.n


def _csr_from_edges(n: int, us: np.ndarray, vs: np.ndarray) -> Tree:
    """The Tree with edges (us[i], vs[i]), trusted to span a tree on 0..n-1.

    Both directions of every edge are ordered by the one int64 key
    src * n + dst, which sorts them as ``np.lexsort((dst, src))`` would in an
    eighth of its time (0.10 ms against 0.76 ms at n=5000); the key fits in
    int64 for any n below 3e9.  ``indptr`` is the running sum of the
    out-degrees.
    """
    src = np.concatenate((us, vs)).astype(np.int64, copy=False)
    dst = np.concatenate((vs, us)).astype(np.int64, copy=False)
    key = src * n + dst
    key.sort()
    indices = key % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return Tree(n=n, indptr=indptr, indices=indices)


def build_tree(n: int, edges: Iterable[tuple[int, int]]) -> Tree:
    """Validate an edge list and return the Tree it spans.

    Raises TreeError with a distinct message for each failure mode:
    wrong edge count (checked first), out-of-range ids, self-loops,
    duplicate edges, and disconnectedness.
    """
    if not isinstance(n, int) or n < 1:
        raise TreeError(f"vertex count must be a positive integer, got {n!r}")
    # count before allocating, so a header claiming a huge n costs nothing
    edges = list(edges)
    if len(edges) != n - 1:
        raise TreeError(f"a tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
    us: list[int] = []
    vs: list[int] = []
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise TreeError(f"edge ({u}, {v}) has a vertex id outside 0..{n - 1}")
        if u == v:
            raise TreeError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise TreeError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        us.append(u)
        vs.append(v)
    t = _csr_from_edges(n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64))
    # n-1 edges and connectivity together rule out cycles.
    reached = len(bfs_order(t, 0)[0])
    if reached != n:
        raise TreeError(
            f"edge list is disconnected: reached {reached} of {n} vertices"
        )
    return t


def bfs_order(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from root and the parent of each vertex.

    parent[root] is -1.  The order visits sorted adjacency, so it is
    deterministic for a given tree.
    """
    if not (0 <= root < t.n):
        raise TreeError(f"root {root} outside 0..{t.n - 1}")
    ptr, idx = t.csr_lists()
    parent = [-1] * t.n
    order = [root]
    parent[root] = root
    _fifo_walk(ptr, idx, parent, order, 0)
    parent[root] = -1
    return order, parent


def _fifo_walk(ptr: list[int], idx: list[int], parent: list[int], order: list[int],
               head: int) -> None:
    """Visit order[head:] as a FIFO queue: append each neighbour whose parent
    is still -1, recording the vertex it was reached from."""
    for u in islice(order, head, None):  # the queue: order grows while it is read
        for v in idx[ptr[u] : ptr[u + 1]]:
            if parent[v] == -1:
                parent[v] = u
                order.append(v)


@dataclass(frozen=True, eq=False)
class Rooting:
    """A tree rooted by breadth-first search: the FIFO ``bfs_order``, the
    parent (-1 at the root) and the subtree size of every vertex, as
    read-only int64 arrays.

    ``order[levels[i]:levels[i + 1]]`` is depth i for every level walked in
    numpy; the rest, ``order[levels[-1]:]``, is empty unless the tree is deep,
    and was walked in Python in the same FIFO order, without level marks.
    """

    order: np.ndarray
    parent: np.ndarray
    sizes: np.ndarray
    levels: tuple[int, ...]


# One numpy level (gather, scatter, one np.add.at and a phi step) costs about
# as much as the Python walk over _LEVEL_COST vertices: 12-14 us against
# 0.36 us a vertex for psi.  Levels go on in numpy while their cost stays
# within the walk over the vertices they placed plus a quarter of the tree, so
# a path or a broom costs at most a quarter more than the Python walk alone,
# and a tree of fewer than 4 * _LEVEL_COST vertices is walked in Python.
_LEVEL_COST = 40


def _rooting(t: Tree, root: int) -> Rooting:
    """Root t at root, one breadth-first level at a time.

    In a tree the children of a vertex are its neighbours other than its
    parent, the one it was reached from, so the next level is the frontier's
    neighbour lists, gathered in frontier order from ``indptr``/``indices``,
    less the reached vertices.  Rows are sorted, so the levels put together
    are the FIFO ``bfs_order``.  Past the level budget the Python FIFO walk
    goes on from the current frontier, with the same result.  Sizes add up
    level by level in reverse, one ``np.add.at`` each, after a Python pass
    over the walked rest.
    """
    n = t.n
    if not (0 <= root < n):
        raise TreeError(f"root {root} outside 0..{n - 1}")
    indptr, indices = t.indptr, t.indices
    degree = np.diff(indptr)
    ramp = np.arange(indices.size)
    # every level's mask is a slice of one buffer: numpy keeps freed arrays
    # under 1 KiB for reuse, and masks of many sizes would stay resident
    unreached = np.empty(indices.size, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    order[0] = root
    parent[root] = root  # marks the root as reached
    levels = [0, 1]
    lo, hi = 0, 1
    while hi < n and (len(levels) - 1) * _LEVEL_COST <= hi + n // 4:
        frontier = order[lo:hi]
        counts = degree[frontier]
        ends = counts.cumsum()
        # slot of each neighbour in indices: its row start plus its rank
        shift = indptr[frontier]
        shift -= ends
        shift += counts
        slots = shift.repeat(counts)
        slots += ramp[: ends[-1]]
        nbrs = indices[slots]
        kids = nbrs[np.equal(parent[nbrs], -1, out=unreached[: nbrs.size])]
        if lo:
            counts -= 1  # every vertex below the root has one reached neighbour
        lo, hi = hi, hi + kids.size
        order[lo:hi] = kids
        parent[kids] = frontier.repeat(counts)
        levels.append(hi)
    if hi < n:
        ptr, idx = t.csr_lists()
        walked, par = order[:hi].tolist(), parent.tolist()
        _fifo_walk(ptr, idx, par, walked, lo)
        sizes_list = [1] * n
        for u in reversed(walked[hi:]):
            sizes_list[par[u]] += sizes_list[u]
        order, parent = np.array(walked, dtype=np.int64), np.array(par, dtype=np.int64)
        sizes = np.array(sizes_list, dtype=np.int64)
    else:
        sizes = np.ones(n, dtype=np.int64)
    for a, b in reversed(list(zip(levels[1:], levels[2:]))):
        level = order[a:b]
        np.add.at(sizes, parent[level], sizes[level])
    parent[root] = -1
    for array in (order, parent, sizes):
        array.flags.writeable = False
    return Rooting(order=order, parent=parent, sizes=sizes, levels=tuple(levels))


def subtree_sizes(t: Tree, root: int) -> list[int]:
    """Size of the subtree hanging at each vertex when t is rooted at root.

    sizes[root] == n; for any other v, sizes[v] counts v plus all vertices
    whose path to root passes through v.
    """
    return rooted_sizes(t, root)[1]


def rooted_sizes(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """Parent and subtree size of every vertex from one rooting at root.

    One rooting answers every direction: across an edge (u, w), the part
    hanging at w away from u holds sizes[w] vertices when parent[w] == u,
    and n - sizes[u] otherwise.  Rooting at 0 reads the tree's cached one.
    """
    r = t.rooting if root == 0 else _rooting(t, root)
    return r.parent.tolist(), r.sizes.tolist()


def parse_tree(text: str, source: str = "<string>") -> Tree:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise TreeError(f"{source}: line 1: expected vertex count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise TreeError(
            f"{source}: line 1: vertex count must be an integer, got {lines[0]!r}"
        ) from None
    if n < 1:
        raise TreeError(f"{source}: line 1: vertex count must be >= 1, got {n}")
    edges = []
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise TreeError(
                f"{source}: line {lineno}: expected 'u v', got {raw!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise TreeError(
                f"{source}: line {lineno}: endpoints must be integers, got {raw!r}"
            ) from None
        edges.append((u, v))
    try:
        return build_tree(n, edges)
    except TreeError as exc:
        raise TreeError(f"{source}: {exc}") from None


def read_tree(path: str) -> Tree:
    with open(path, "r", encoding="ascii") as fh:
        return parse_tree(fh.read(), source=path)


def format_tree(t: Tree) -> str:
    lines = [str(t.n)]
    lines.extend(f"{u} {v}" for u, v in t.edges())
    return "\n".join(lines) + "\n"


def write_tree(t: Tree, path_or_file: str | IO[str]) -> None:
    text = format_tree(t)
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


def path_tree(n: int) -> Tree:
    """Path 0 - 1 - ... - (n-1)."""
    return build_tree(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(n: int) -> Tree:
    """Star with center 0 and leaves 1 .. n-1."""
    return build_tree(n, [(0, i) for i in range(1, n)])


def spider_tree(leg_lengths: Sequence[int]) -> Tree:
    """Center 0 with one path of each given length attached."""
    edges = []
    nxt = 1
    for length in leg_lengths:
        if length < 1:
            raise TreeError(f"leg lengths must be >= 1, got {length}")
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return build_tree(nxt, edges)


@dataclass(frozen=True)
class SeedPlacement:
    """A candidate seed: a connected vertex subset of a host tree.

    ``vertices`` is sorted; ``leaf_ids`` are the vertices of induced degree 1
    inside the placement (empty for a single-vertex placement, whose lone
    vertex has induced degree 0).
    """

    vertices: tuple[int, ...]
    leaf_ids: frozenset[int] = field(default_factory=frozenset)

    @property
    def k(self) -> int:
        return len(self.vertices)

    @property
    def ell(self) -> int:
        return len(self.leaf_ids)

    @staticmethod
    def from_vertices(t: Tree, vertices: Iterable[int]) -> "SeedPlacement":
        vs = sorted(set(int(v) for v in vertices))
        if not vs:
            raise TreeError("placement must contain at least one vertex")
        for v in vs:
            if not (0 <= v < t.n):
                raise TreeError(f"placement vertex {v} outside 0..{t.n - 1}")
        vset = set(vs)
        # connectivity inside the induced subgraph
        stack = [vs[0]]
        seen = {vs[0]}
        while stack:
            u = stack.pop()
            for w in t.neighbors(u):
                if w in vset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(vs):
            raise TreeError(f"placement {tuple(vs)} is not connected in the host tree")
        leaves = frozenset(
            v for v in vs if sum(1 for w in t.neighbors(v) if w in vset) == 1
        )
        return SeedPlacement(vertices=tuple(vs), leaf_ids=leaves)


@dataclass(frozen=True)
class ConfidenceSet:
    """Ranked candidate vertices: (vertex, score) pairs plus the requested size.

    ``members`` may be shorter than ``target_size`` when fewer vertices are
    eligible.
    """

    members: tuple[tuple[int, float], ...]
    target_size: int

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.members)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        return {
            "members": [[int(v), float(s)] for v, s in self.members],
            "target_size": int(self.target_size),
        }
