"""Root-finding scores based on hanging-subtree sizes.

For a tree T and vertex u, removing u splits T into deg(u) components.  Two
scores over those component sizes drive the confidence-set estimators:

* psi(u): the largest component size.  Small psi marks central vertices; the
  minimizer is a centroid and its value is at most n/2.
* phi(u): the product over all v != u of the size of the subtree hanging at v
  when T is rooted at u.  Kept in log domain; the minimizer is the
  maximum-likelihood root of a uniform-attachment tree up to symmetry terms.

Both are computed for all vertices in linear time by rerooting: moving the
root across an edge (u, w) with s = |subtree at w seen from u| changes the
product by (n - s) / s and leaves all other factors alone.
"""

from __future__ import annotations

import math
import warnings

from .tree import ConfidenceSet, Tree, TreeError, bfs_order, rooted_sizes, top_k


def psi_all(t: Tree) -> list[int]:
    """Largest component size left by deleting each vertex.

    For n == 1 the score is undefined; returns an empty list with a warning.
    """
    n = t.n
    if n == 1:
        warnings.warn("psi is undefined on a single-vertex tree", RuntimeWarning)
        return []
    order, parent = bfs_order(t, 0)
    sizes = [1] * n
    for u in reversed(order[1:]):
        sizes[parent[u]] += sizes[u]
    max_child = [0] * n
    for v in order[1:]:
        p = parent[v]
        if sizes[v] > max_child[p]:
            max_child[p] = sizes[v]
    return [max(max_child[u], n - sizes[u]) for u in range(n)]


def phi_log_all(t: Tree) -> list[float]:
    """log of the product of hanging-subtree sizes, for every root choice."""
    n = t.n
    if n == 1:
        return [0.0]
    order, parent = bfs_order(t, 0)
    sizes = [1] * n
    for u in reversed(order[1:]):
        sizes[parent[u]] += sizes[u]
    log = math.log
    out = [0.0] * n
    out[0] = sum(log(sizes[v]) for v in order[1:])
    for v in order[1:]:
        s = sizes[v]
        out[v] = out[parent[v]] + log(n - s) - log(s)
    return out


def psi_set(t: Tree, k: int) -> ConfidenceSet:
    """The k vertices of smallest psi, ties broken by vertex id."""
    if k < 1:
        raise TreeError(f"set size must be >= 1, got {k}")
    scores = psi_all(t)
    if not scores:
        return ConfidenceSet(members=(), target_size=k)
    return top_k(scores, k, direction="min")


def phi_set(t: Tree, k: int) -> ConfidenceSet:
    """The k vertices of smallest log-phi, ties broken by vertex id."""
    if k < 1:
        raise TreeError(f"set size must be >= 1, got {k}")
    if t.n == 1:
        warnings.warn("phi is undefined on a single-vertex tree", RuntimeWarning)
        return ConfidenceSet(members=(), target_size=k)
    return top_k(phi_log_all(t), k, direction="min")


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

    The tree is rooted once, at vertex 0.  A walk enters v from a neighbour
    u, so v's hanging size facing away from the anchor is sizes[v] when
    parent[v] == u and n - sizes[u] otherwise; it depends on the edge, not
    on the anchor.  A vertex's heavy neighbours (hanging size at least the
    threshold) are listed once per call, in sorted adjacency order, the
    first time a walk reaches it, and every walk follows only those.  Cost:
    O(n) for the rooting, plus the admitted vertices and heavy edges of each
    anchor's walk, plus one adjacency scan per vertex the walks reach.
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
                    for v in t.adjacency[u]
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
