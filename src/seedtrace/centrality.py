"""Root-finding scores based on hanging-subtree sizes.

For a tree T and vertex u, removing u splits T into deg(u) components.  Two
scores over those component sizes drive the confidence-set estimators:

* psi(u): the largest component size.  Small psi marks central vertices; the
  minimizer is a centroid and its value is at most n/2.
* phi(u): the product over all v != u of the size of the subtree hanging at v
  when T is rooted at u.  Kept in log domain.  The rooted likelihood of a
  uniform-attachment tree is 1 / (|Aut(T)| * phi(u)), so the minimizers of
  phi are exactly the maximum-likelihood roots, and they are the minimizers
  of psi: the centroid, or the two ends of a bicentroid edge.

Both read the tree's one cached rooting at vertex 0 (``Tree.rooting``): its
breadth-first levels, parents and subtree sizes, built in numpy one level at
a time, with deep trees such as paths and brooms finished by the Python FIFO
walk.  psi is then one ``np.maximum.at`` over the child sizes; phi follows by
rerooting: moving the root across an edge (u, w) with s = |subtree at w seen
from u| changes the product by (n - s) / s and leaves all other factors
alone, so every level takes one vectorized step from the level above.  At
n = 1e5 on a uniform attachment tree psi takes about 16 ms and phi about
20 ms, against about 200 and 230 ms for the Python loops they replace, and
no more than those loops on a path (2 cores, numpy 2.4.6).  The DFS cover
reads the same rooting, so a dfs-cover trial roots its tree once for the
anchors' psi set and the walks together.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .tree import ConfidenceSet, Tree, TreeError, rooted_sizes


def _psi(t: Tree) -> np.ndarray:
    """psi of every vertex: the larger of its largest child's subtree and the
    part above it, from the tree's one rooting (integers, so exact)."""
    r = t.rooting
    kids = r.order[1:]
    largest_child = np.zeros(t.n, dtype=np.int64)
    np.maximum.at(largest_child, r.parent[kids], r.sizes[kids])
    return np.maximum(largest_child, t.n - r.sizes)


def _centroid(t: Tree) -> int:
    """The smallest-id minimizer of psi (0 when n == 1)."""
    return int(np.argmin(_psi(t)))


def psi_all(t: Tree) -> list[int]:
    """Largest component size left by deleting each vertex.

    For n == 1 the score is undefined; returns an empty list with a warning.
    """
    if t.n == 1:
        warnings.warn("psi is undefined on a single-vertex tree", RuntimeWarning)
        return []
    return _psi(t).tolist()


@lru_cache(maxsize=8)
def _log_table(n: int) -> np.ndarray:
    """math.log(i) at index i for 1 <= i <= n (index 0 holds 0.0, unread).

    np.log differs from math.log in the last bit on some integers, so phi
    gathers from this table to keep the bits it had as a Python loop."""
    table = np.zeros(n + 1)
    table[1:] = np.fromiter(map(math.log, range(1, n + 1)), dtype=float, count=n)
    table.flags.writeable = False
    return table


def phi_log_all(t: Tree) -> list[float]:
    """log of the product of hanging-subtree sizes, for every root choice.

    The root's sum is added in FIFO order (``np.add.accumulate`` is
    sequential, where ``np.sum`` is pairwise), and each child's value is
    its parent's plus log(n - s) minus log(s), one level at a time: the same
    float operations in the same order as a Python loop over ``bfs_order``.
    """
    n = t.n
    if n == 1:
        return [0.0]
    r = t.rooting
    order, parent, levels = r.order, r.parent, r.levels
    logs = _log_table(n)
    gain, loss = logs[n - r.sizes], logs[r.sizes]
    out = np.empty(n)
    out[0] = np.add.accumulate(loss[order[1:]])[-1]
    for a, b in zip(levels[1:], levels[2:]):
        level = order[a:b]
        out[level] = out[parent[level]] + gain[level] - loss[level]
    out = out.tolist()
    if levels[-1] < n:  # the deep rest, walked in Python
        gain, loss, parent = gain.tolist(), loss.tolist(), parent.tolist()
        for v in order[levels[-1] :].tolist():
            out[v] = out[parent[v]] + gain[v] - loss[v]
    return out


def _smallest(scores: np.ndarray, k: int) -> ConfidenceSet:
    """The k smallest scores, ties broken by vertex id.

    A stable sort keeps equal scores in id order, so it ranks as
    ``np.lexsort((ids, scores))`` does; members are plain Python numbers.
    """
    best = np.argsort(scores, kind="stable")[:k]
    return ConfidenceSet(
        members=tuple(zip(best.tolist(), scores[best].tolist())), target_size=k
    )


def psi_set(t: Tree, k: int) -> ConfidenceSet:
    """The k vertices of smallest psi, ties broken by vertex id."""
    if k < 1:
        raise TreeError(f"set size must be >= 1, got {k}")
    if t.n == 1:
        warnings.warn("psi is undefined on a single-vertex tree", RuntimeWarning)
        return ConfidenceSet(members=(), target_size=k)
    return _smallest(_psi(t), k)


def phi_set(t: Tree, k: int) -> ConfidenceSet:
    """The k vertices of smallest log-phi, ties broken by vertex id."""
    if k < 1:
        raise TreeError(f"set size must be >= 1, got {k}")
    if t.n == 1:
        warnings.warn("phi is undefined on a single-vertex tree", RuntimeWarning)
        return ConfidenceSet(members=(), target_size=k)
    return _smallest(np.array(phi_log_all(t)), k)


def dfs_cover_set(
    t: Tree,
    intersect_set: ConfidenceSet,
    k: int,
    ell: int,
    eps: float,
    k_cap: int,
) -> ConfidenceSet:
    """Expand anchor vertices into a covering set by threshold-pruned DFS.

    From each anchor u (taken in intersect_set order) the search walks away
    from u and keeps any vertex v whose hanging subtree seen from u has size
    at least n * eps / (2 * k * ell); smaller branches are pruned.  The
    anchor itself always qualifies (its own hanging subtree is the whole
    tree).  Vertices are deduplicated across anchors and collection stops
    once k_cap members are held; each member's score is the hanging size that
    admitted it.

    Every walk reads the tree's cached rooting at vertex 0, the one psi_set
    read for the anchors.  A walk enters v from a neighbour
    u, so v's hanging size facing away from the anchor is sizes[v] when
    parent[v] == u and n - sizes[u] otherwise; it depends on the edge, not
    on the anchor.  A vertex's heavy neighbours (hanging size at least the
    threshold) are listed once per call, in sorted adjacency order, the
    first time a walk reaches it, and every walk follows only those.  Cost:
    O(n) to copy the rooting's parents and sizes to lists (and to root the
    tree, unless psi already did), plus the admitted vertices and heavy
    edges of each anchor's walk, plus one adjacency scan per vertex the
    walks reach.
    """
    if not (0.0 < eps < 1.0):
        raise TreeError(f"eps must lie in (0, 1), got {eps}")
    if k < 1 or ell < 1:
        raise TreeError(f"seed size and leaf count must be >= 1, got k={k} ell={ell}")
    if k_cap < 1:
        raise TreeError(f"set size cap must be >= 1, got {k_cap}")
    if len(intersect_set) == 0:
        warnings.warn("empty anchor set: cover expansion returns nothing", RuntimeWarning)
        return ConfidenceSet(members=(), target_size=k_cap)
    n = t.n
    threshold = n * eps / (2.0 * k * ell)
    parent, sizes = rooted_sizes(t, 0)
    ptr, idx = t.csr_lists()
    heavy: dict[int, list[tuple[int, int]]] = {}
    chosen: dict[int, float] = {}
    for anchor in intersect_set.vertices():
        if not (0 <= anchor < n):
            raise TreeError(f"root {anchor} outside 0..{n - 1}")
        if anchor not in chosen:
            chosen[anchor] = float(n)
        stack = [(anchor, -1)]
        while stack and len(chosen) < k_cap:
            u, came_from = stack.pop()
            pairs = heavy.get(u)
            if pairs is None:
                up = n - sizes[u]
                pairs = heavy[u] = [
                    (v, s)
                    for v in idx[ptr[u] : ptr[u + 1]]
                    if (s := sizes[v] if parent[v] == u else up) >= threshold
                ]
            for v, s in pairs:
                if v == came_from:
                    continue
                if v not in chosen:
                    chosen[v] = float(s)
                    if len(chosen) >= k_cap:
                        break
                stack.append((v, u))
        if len(chosen) >= k_cap:
            break
    return ConfidenceSet(members=tuple(chosen.items()), target_size=k_cap)
