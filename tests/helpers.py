"""Shared test utilities."""

from fractions import Fraction
from collections import Counter
import math

from seedtrace import generate, log_likelihood_all, path_tree
from seedtrace.tree import SeedPlacement, Tree, bfs_order


def ua_tree(n: int, rng_seed: int, alpha: float = 0.0) -> Tree:
    """A random attachment tree grown from a single vertex."""
    t, _ = generate(path_tree(1), n, alpha=alpha, rng_seed=rng_seed)
    return t


def brute_psi(t: Tree, u: int) -> int:
    """Largest component of t minus u, by direct flood fill."""
    seen = {u}
    best = 0
    for start in t.adjacency[u]:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        count = 0
        while stack:
            v = stack.pop()
            count += 1
            for w in t.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        best = max(best, count)
    return best


def rational_rooted_likelihood(t: Tree, u: int) -> Fraction:
    """Exact-rational mirror of the rooted likelihood formula.

    Recursive nested-tuple canonical codes, exact per-vertex local
    automorphism factors, and exact subtree sizes.  Written independently of
    the production iterative algorithm so agreement is meaningful.
    """

    def code(v, par):
        return tuple(sorted(code(w, v) for w in t.adjacency[v] if w != par))

    def size(v, par):
        return 1 + sum(size(w, v) for w in t.adjacency[v] if w != par)

    root_code = code(u, -1)
    equivalent_roots = sum(1 for w in range(t.n) if code(w, -1) == root_code)
    value = Fraction(t.n, equivalent_roots)
    stack = [(u, -1)]
    while stack:
        v, par = stack.pop()
        kids = [w for w in t.adjacency[v] if w != par]
        mult = Counter(code(w, v) for w in kids)
        local_aut = 1
        for m in mult.values():
            local_aut *= math.factorial(m)
        value /= size(v, par) * local_aut
        stack.extend((w, v) for w in kids)
    return value


def rooted_code_key(t: Tree, root: int) -> tuple:
    """Hashable canonical key of (t, root); equal keys mean isomorphic."""
    order, parent = bfs_order(t, root)
    children: list[list[int]] = [[] for _ in range(t.n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    keys: list[tuple] = [()] * t.n
    for v in reversed(order):
        ch = children[v]
        if ch:
            keys[v] = tuple(sorted(keys[c] for c in ch))
    return keys[root]


def hanging_decomposition(t: Tree, placement: SeedPlacement) -> list[tuple[int, Tree]]:
    """Per seed vertex, the subtree hanging at it (seed vertex relabeled 0)."""
    parent = [-2] * t.n
    comp = [-1] * t.n
    queue = list(placement.vertices)
    for v in queue:
        parent[v] = -1
        comp[v] = v
    groups: dict[int, list[int]] = {v: [v] for v in placement.vertices}
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for w in t.adjacency[u]:
            if parent[w] == -2:
                parent[w] = u
                comp[w] = comp[u]
                groups[comp[u]].append(w)
                queue.append(w)
    out = []
    for root, verts in groups.items():
        local = {v: i for i, v in enumerate(verts)}
        adj: list[list[int]] = [[] for _ in range(len(verts))]
        for v in verts:
            if v == root:
                continue
            a, b = local[v], local[parent[v]]
            adj[a].append(b)
            adj[b].append(a)
        out.append((root, Tree(n=len(verts), adjacency=tuple(tuple(sorted(a)) for a in adj))))
    return out


def reference_log_likelihood_seed(t: Tree, vertices) -> float:
    """Seeded log-likelihood the slow way: cut out every hanging subtree and
    run the all-roots likelihood on it, once per placement."""
    placement = SeedPlacement.from_vertices(t, vertices)
    total = 0.0
    for _, sub in hanging_decomposition(t, placement):
        if sub.n > 1:
            total += log_likelihood_all(sub)[0]
    return total
