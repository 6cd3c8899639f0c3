"""Core tree structures shared by every estimator and the harness.

Vertices are dense 0-based integers.  A ``Tree`` is immutable after
construction and stores sorted adjacency lists.  All traversals are iterative
(explicit stacks or queues), so trees with millions of vertices never hit the
interpreter recursion limit.

Text format for tree files: first line is the vertex count ``n``, followed by
``n - 1`` lines ``u v`` with space-separated 0-based endpoint ids and LF line
endings.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from heapq import nsmallest
from typing import IO


class TreeError(ValueError):
    """Raised for malformed trees, files, or invalid vertex sets."""


@dataclass(frozen=True)
class Tree:
    """Unrooted tree on vertices ``0 .. n-1`` with sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (min, max) pairs, lexicographically sorted."""
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out

    def __len__(self) -> int:
        return self.n


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
    adj: list[list[int]] = [[] for _ in range(n)]
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
        adj[u].append(v)
        adj[v].append(u)
    if n > 1:
        # n-1 edges and connectivity together rule out cycles.
        reached = _bfs_reach(adj, 0)
        if reached != n:
            raise TreeError(
                f"edge list is disconnected: reached {reached} of {n} vertices"
            )
    return Tree(n=n, adjacency=tuple(tuple(sorted(a)) for a in adj))


def _tree_unchecked(n: int, adj: list[list[int]]) -> Tree:
    """Internal constructor for adjacency built by trusted code paths."""
    return Tree(n=n, adjacency=tuple(tuple(sorted(a)) for a in adj))


def _bfs_reach(adj: Sequence[Sequence[int]], start: int) -> int:
    seen = bytearray(len(adj))
    seen[start] = 1
    queue = [start]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in adj[u]:
            if not seen[v]:
                seen[v] = 1
                queue.append(v)
    return len(queue)


def bfs_order(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from root and the parent of each vertex.

    parent[root] is -1.  The order visits sorted adjacency, so it is
    deterministic for a given tree.
    """
    if not (0 <= root < t.n):
        raise TreeError(f"root {root} outside 0..{t.n - 1}")
    parent = [-1] * t.n
    order = [root]
    parent[root] = root
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in t.adjacency[u]:
            if parent[v] == -1:
                parent[v] = u
                order.append(v)
    parent[root] = -1
    return order, parent


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
    and n - sizes[u] otherwise.
    """
    order, parent = bfs_order(t, root)
    sizes = [1] * t.n
    for u in reversed(order[1:]):
        sizes[parent[u]] += sizes[u]
    return parent, sizes


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
            for w in t.adjacency[u]:
                if w in vset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(vs):
            raise TreeError(f"placement {tuple(vs)} is not connected in the host tree")
        leaves = frozenset(
            v for v in vs if sum(1 for w in t.adjacency[v] if w in vset) == 1
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


def top_k(
    scores: Sequence[float],
    k: int,
    direction: str = "min",
    eligible: Callable[[int], bool] | None = None,
) -> ConfidenceSet:
    """The k best vertices under (score, then vertex id ascending).

    direction 'min' keeps the smallest scores, 'max' the largest.  Fewer than
    k eligible vertices yields a shorter set (never an error).
    """
    if k < 0:
        raise TreeError(f"set size must be >= 0, got {k}")
    if direction not in ("min", "max"):
        raise TreeError(f"direction must be 'min' or 'max', got {direction!r}")
    if direction == "min":
        pairs = (
            (s, v)
            for v, s in enumerate(scores)
            if eligible is None or eligible(v)
        )
    else:
        pairs = (
            (-s, v)
            for v, s in enumerate(scores)
            if eligible is None or eligible(v)
        )
    best = nsmallest(k, pairs)
    if direction == "min":
        members = tuple((v, s) for s, v in best)
    else:
        members = tuple((v, -s) for s, v in best)
    return ConfidenceSet(members=members, target_size=k)


def hanging_sizes(t: Tree, anchor_set: Iterable[int]) -> list[int]:
    """Component sizes hanging off a connected anchor set.

    Returns sizes[v] for every vertex v:

    * for v outside the anchor: v plus all vertices whose path to the anchor
      passes through v (the subtree hanging at v, facing away);
    * for an anchor vertex u: u plus every vertex whose path to the rest of
      the anchor passes through u.

    Anchor sizes partition the tree, so they sum to n.
    """
    anchors = sorted(set(int(v) for v in anchor_set))
    if not anchors:
        raise TreeError("anchor set must be non-empty")
    in_anchor = bytearray(t.n)
    for v in anchors:
        if not (0 <= v < t.n):
            raise TreeError(f"anchor vertex {v} outside 0..{t.n - 1}")
        in_anchor[v] = 1
    # anchors must induce a connected subtree
    stack = [anchors[0]]
    seen = {anchors[0]}
    while stack:
        u = stack.pop()
        for w in t.adjacency[u]:
            if in_anchor[w] and w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(anchors):
        raise TreeError("anchor set is not connected")

    # orient every non-anchor vertex toward its unique attachment point
    parent = [-2] * t.n
    order: list[int] = []
    for a in anchors:
        parent[a] = -1
    queue = list(anchors)
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for w in t.adjacency[u]:
            if parent[w] == -2:
                parent[w] = u
                order.append(w)
                queue.append(w)
    sizes = [1] * t.n
    for v in reversed(order):
        sizes[parent[v]] += sizes[v]
    return sizes
