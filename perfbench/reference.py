"""Reference computations that the benchmark checks the program's outputs against.

Written apart from the seedtrace package on purpose: nothing here imports it
(only the standard library and numpy), and each quantity is derived by another route than the program takes.

* psi comes from the growth record's parent array (subtree sizes in arrival
  order), not from a traversal of the presented tree.
* The seeded likelihood uses nested-tuple shape keys and the orbit-stabiliser
  identity R(r) = |Aut(C)| / |Aut(C, r)|, which turns the rooted likelihood of
  a component C (m vertices, rooted at r) into

      log L(C, r) = log m - log |Aut(C)| - sum over w in C of log size_r(w)

  where |Aut(C)| is read off at the centre of C.  The program instead counts
  the equivalent root positions R(r) with interned integer codes.
* The uncapped DFS cover is the set of vertices whose hanging size, seen from
  some anchor, meets the threshold; no search order is involved.

All vertex ids here are the original (arrival-order) labels unless a name says
``presented``; ``perm[v]`` is the presented id of original vertex v.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

LOG2 = math.log(2.0)


# ---------------------------------------------------------------- growth record


def rooted_parents(n: int, seed_edges, parents) -> tuple[list[int], list[int]]:
    """Parent of every vertex with the tree rooted at vertex 0, and an order.

    Seed vertices are oriented by a walk over the seed edges; arrival i hangs
    from parents[i - k] < i.  The order lists the seed in walk order, then the
    arrivals in arrival order, so every parent comes before its children.
    """
    k = n - len(parents)
    seed_adj: list[list[int]] = [[] for _ in range(k)]
    for u, v in seed_edges:
        seed_adj[u].append(v)
        seed_adj[v].append(u)
    par = [-1] * n
    order = [0]
    for u in order:
        for v in seed_adj[u]:
            if v != par[u]:
                par[v] = u
                order.append(v)
    if len(order) != k:
        raise ValueError("seed edges do not form a tree on the seed vertices")
    for i, p in enumerate(parents, start=k):
        par[i] = int(p)
    order.extend(range(k, n))
    return par, order


def subtree_sizes(par: list[int], order: list[int]) -> list[int]:
    sizes = [1] * len(par)
    for v in reversed(order[1:]):
        sizes[par[v]] += sizes[v]
    return sizes


def psi_from_parents(par: list[int], order: list[int], sizes: list[int]) -> list[int]:
    """Largest component left by deleting each vertex (original labels)."""
    n = len(par)
    biggest_child = [0] * n
    for v in order[1:]:
        p = par[v]
        if sizes[v] > biggest_child[p]:
            biggest_child[p] = sizes[v]
    return [max(biggest_child[u], n - sizes[u]) for u in range(n)]


def psi_top(psi: list[int], perm: np.ndarray, size: int) -> list[int]:
    """Original ids of the ``size`` smallest psi values, ties by presented id."""
    return [int(u) for u in np.lexsort((perm, np.asarray(psi)))[:size]]


def presented_edge_array(seed_edges, parents, perm: np.ndarray) -> np.ndarray:
    """Seed edges plus (i, parent) pairs, mapped through perm, as sorted (lo, hi) rows."""
    k = len(perm) - len(parents)
    ends = np.concatenate([
        np.array(seed_edges, dtype=np.int64).reshape(-1, 2),
        np.column_stack([np.arange(k, len(perm)), parents]),
    ])
    mapped = perm[ends]
    lo, hi = mapped.min(axis=1), mapped.max(axis=1)
    keep = np.lexsort((hi, lo))
    return np.column_stack([lo[keep], hi[keep]])


def uncapped_cover(
    par: list[int], sizes: list[int], anchors: list[int], threshold: float
) -> set[int]:
    """Anchors plus every vertex whose hanging size from some anchor is >= threshold.

    Rooted at vertex 0, the hanging size of v seen from anchor a is sizes[v]
    unless v lies on the path from a up to the root; there it is n minus the
    size of v's child toward a.  So a vertex off some anchor's root path
    qualifies on sizes[v] alone, and a vertex on every root path is tested
    with the path formula for each anchor.
    """
    n = len(par)
    on_path_count = [0] * n
    cover = set(anchors)
    for a in anchors:
        below, v = a, par[a]
        on_path_count[a] += 1
        while v >= 0:
            on_path_count[v] += 1
            if n - sizes[below] >= threshold:
                cover.add(v)
            below, v = v, par[v]
    everywhere = len(anchors)
    for v in range(n):
        if on_path_count[v] < everywhere and sizes[v] >= threshold:
            cover.add(v)
    return cover


# ------------------------------------------------------ nested-tuple likelihood


class _Branch(NamedTuple):
    """A rooted subtree summarised for the likelihood: shape key and sums."""

    key: tuple
    size: int
    height: int
    log_aut: float
    log_sizes: float


def _join(branches: list[_Branch]) -> _Branch:
    """The rooted tree made of a new root with these branches below it."""
    keyed = sorted(branches, key=lambda b: b.key)
    log_aut = 0.0
    run = 1
    for i in range(1, len(keyed) + 1):
        if i < len(keyed) and keyed[i].key == keyed[i - 1].key:
            run += 1
            continue
        log_aut += math.lgamma(run + 1)
        run = 1
    size = 1 + sum(b.size for b in keyed)
    return _Branch(
        key=tuple(b.key for b in keyed),
        size=size,
        height=1 + max((b.height for b in keyed), default=-1),
        log_aut=log_aut + sum(b.log_aut for b in keyed),
        log_sizes=math.log(size) + sum(b.log_sizes for b in keyed),
    )


class SeedLikelihood:
    """Seeded log-likelihood of placements in one host tree.

    ``adj`` is the host tree's adjacency.  Directed subtrees D(p -> y) (the
    part of the tree reached from p through y, rooted at y) are summarised
    once and shared by every placement.
    """

    def __init__(self, adj):
        self.adj = adj
        self._memo: dict[tuple[int, int], _Branch] = {}

    def branch(self, p: int, y: int) -> _Branch:
        memo, adj = self._memo, self.adj
        got = memo.get((p, y))
        if got is not None:
            return got
        stack = [(p, y, False)]
        while stack:
            a, b, ready = stack.pop()
            if (a, b) in memo:
                continue
            if ready:
                memo[(a, b)] = _join([memo[(b, c)] for c in adj[b] if c != a])
                continue
            stack.append((a, b, True))
            stack.extend((b, c, False) for c in adj[b] if c != a and (b, c) not in memo)
        return memo[(p, y)]

    def _log_aut(self, s: int, ys: list[int]) -> float:
        """log |Aut| of the component made of s and the branches D(s -> y)."""
        if not ys:
            return 0.0
        # Walk from s toward the deepest branch until the two deepest
        # branches differ by at most one: that vertex is a centre.
        here = s
        branches = [(self.branch(s, y), y) for y in ys]
        while True:
            branches.sort(key=lambda by: by[0].height, reverse=True)
            d1 = branches[0][0].height + 1
            d2 = branches[1][0].height + 1 if len(branches) > 1 else 0
            if d1 - d2 < 2:
                break
            nxt = branches[0][1]
            back = _join([b for b, _ in branches[1:]])
            branches = [(back, here)] + [
                (self.branch(nxt, z), z) for z in self.adj[nxt] if z != here
            ]
            here = nxt
        if d1 == d2:
            return _join([b for b, _ in branches]).log_aut
        # Bicentre: the edge from here to its deepest branch.
        far = branches[0][0]
        near = _join([b for b, _ in branches[1:]])
        return near.log_aut + far.log_aut + (LOG2 if near.key == far.key else 0.0)

    def hanging_term(self, s: int, ys: list[int]) -> float:
        """log L of the subtree hanging at s (s plus the branches D(s -> y))."""
        return -self._log_aut(s, ys) - sum(self.branch(s, y).log_sizes for y in ys)

    def placement(self, vertices) -> float:
        """Seeded log-likelihood: sum of hanging-subtree terms over the seed."""
        members = set(vertices)
        return sum(
            self.hanging_term(s, [y for y in self.adj[s] if y not in members])
            for s in members
        )


def star_placements(adj, leaves: int):
    """Every star placement (centre, chosen neighbours) with the given leaf count."""
    for centre, nbrs in enumerate(adj):
        for chosen in combinations(nbrs, leaves):
            yield centre, chosen


def best_star_placements(adj, leaves: int, tol: float = 1e-9):
    """Reference maximum over star placements and the placements within tol of it.

    Returns (max log-likelihood, list of vertex sets scoring >= max - tol).
    Leaf terms depend only on the directed edge centre -> leaf, so they are
    computed once per edge.
    """
    lik = SeedLikelihood(adj)
    leaf_term: dict[tuple[int, int], float] = {}
    scored = []
    for centre, chosen in star_placements(adj, leaves):
        total = lik.hanging_term(centre, [y for y in adj[centre] if y not in chosen])
        for w in chosen:
            term = leaf_term.get((centre, w))
            if term is None:
                term = lik.hanging_term(w, [y for y in adj[w] if y != centre])
                leaf_term[(centre, w)] = term
            total += term
        scored.append((total, frozenset((centre,) + chosen)))
    if not scored:
        raise ValueError("host tree has no star placement of that size")
    best = max(t for t, _ in scored)
    return best, [p for t, p in scored if t >= best - tol]
