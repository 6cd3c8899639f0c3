"""Brute-force enumeration oracle for shape probabilities.

Used by tests to pin down the exact event the closed-form likelihood
computes.  Deliberately independent of likelihood.py: shapes are compared
with a small recursive canonicalization, probabilities are exact
``fractions.Fraction`` values, and every attachment sequence is enumerated.

Event computed by ``brute_force_shape_probability`` for a tree t with a seed
placement S (a root u is the placement (u,)):

    Grow uniform attachment from S to n vertices, keeping each seed vertex's
    identity.  Condition on the subtree hanging at each seed vertex having
    the observed size.  The probability that, in addition, every hanging
    subtree matches the observed rooted shape and each one presents its root
    at the exact queried position.  Positions indistinguishable from the
    queried one split the mass evenly, hence the division by the number of
    equivalent root positions per hanging subtree.

For a root query the size conditioning is vacuous (the single hanging
subtree is the whole tree), so the value is
#{sequences giving the queried rooted shape} / (#sequences * #equivalent
positions).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .tree import SeedPlacement, Tree, TreeError, build_tree

MAX_ORACLE_N = 9


def _shape_key(adj: list[list[int]], root: int, parent: int = -1):
    """Canonical nested-tuple key of the subtree at root, away from parent."""
    subkeys = sorted(
        _shape_key(adj, w, root) for w in adj[root] if w != parent
    )
    return tuple(subkeys)


def _free_key(adj: list[list[int]], vertices: list[int]):
    """Canonical key of an unrooted tree: minimum over all rootings."""
    return min(_shape_key(adj, r) for r in vertices)


def _sequences(k: int, n: int):
    """All attachment sequences: arrival i picks its target among i vertices."""
    return itertools.product(*(range(i) for i in range(k, n)))


def _components(seed_adj: list[list[int]], k: int, seq: tuple[int, ...]):
    """Grow one sequence; return adjacency and per-vertex seed component."""
    n = k + len(seq)
    adj = [list(nbrs) for nbrs in seed_adj] + [[] for _ in range(n - k)]
    comp = list(range(k)) + [0] * (n - k)
    for i, p in enumerate(seq, start=k):
        adj[p].append(i)
        adj[i].append(p)
        comp[i] = comp[p]
    return adj, comp


def _observed_decomposition(t: Tree, seed: tuple[int, ...]):
    """Hanging subtree of each seed vertex: vertex lists keyed by seed vertex."""
    members = set(seed)
    owner = {v: v for v in seed}
    queue = list(seed)
    head = 0
    adj = t.adjacency
    while head < len(queue):
        u = queue[head]
        head += 1
        for w in adj[u]:
            if w not in owner and w not in members:
                owner[w] = owner[u]
                queue.append(w)
    groups: dict[int, list[int]] = {v: [] for v in seed}
    for v, o in owner.items():
        groups[o].append(v)
    return groups


def _restricted_key(adj, group: set[int], root: int, parent: int = -1):
    subkeys = sorted(
        _restricted_key(adj, group, w, root)
        for w in adj[root]
        if w != parent and w in group
    )
    return tuple(subkeys)


def brute_force_shape_probability(
    t: Tree,
    root: int | None = None,
    placement: SeedPlacement | tuple[int, ...] | None = None,
) -> Fraction:
    """Exact probability for a rooted or seed-placed shape query (see module doc)."""
    if (root is None) == (placement is None):
        raise TreeError("pass exactly one of root= or placement=")
    if t.n > MAX_ORACLE_N:
        raise TreeError(f"oracle enumerates sequences only up to n={MAX_ORACLE_N}")
    if root is not None:
        seed = (int(root),)
    elif isinstance(placement, SeedPlacement):
        seed = tuple(placement.vertices)
    else:
        seed = tuple(sorted(int(v) for v in placement))
    for v in seed:
        if not (0 <= v < t.n):
            raise TreeError(f"seed vertex {v} outside 0..{t.n - 1}")

    groups = _observed_decomposition(t, seed)
    if sum(len(g) for g in groups.values()) != t.n:
        raise TreeError("seed placement does not reach every vertex")
    obs_adj = [list(nbrs) for nbrs in t.adjacency]
    observed_sizes = {u: len(groups[u]) for u in seed}
    observed_keys = {}
    equiv_positions = 1
    for u in seed:
        gset = set(groups[u])
        key = _restricted_key(obs_adj, gset, u)
        observed_keys[u] = key
        equiv_positions *= sum(
            1 for w in groups[u] if _restricted_key(obs_adj, gset, w) == key
        )

    # relabel the placement to 0..k-1 (sorted order pins each seed vertex)
    k = len(seed)
    local = {v: i for i, v in enumerate(seed)}
    seed_adj: list[list[int]] = [[] for _ in range(k)]
    for v in seed:
        for w in t.adjacency[v]:
            if w in local:
                seed_adj[local[v]].append(local[w])

    want_sizes = [observed_sizes[u] for u in seed]
    want_keys = [observed_keys[u] for u in seed]
    size_matches = 0
    full_matches = 0
    for seq in _sequences(k, t.n):
        adj, comp = _components(seed_adj, k, seq)
        sizes = [0] * k
        for c in comp:
            sizes[c] += 1
        if sizes != want_sizes:
            continue
        size_matches += 1
        ok = True
        for i in range(k):
            gset = {v for v in range(t.n) if comp[v] == i}
            if _restricted_key(adj, gset, i) != want_keys[i]:
                ok = False
                break
        if ok:
            full_matches += 1
    if size_matches == 0:
        raise TreeError("observed hanging sizes are unreachable; invalid query")
    return Fraction(full_matches, size_matches * equiv_positions)


def unrooted_shape_probability(t: Tree) -> Fraction:
    """Probability that plain uniform attachment to n vertices has t's shape."""
    if t.n > MAX_ORACLE_N:
        raise TreeError(f"oracle enumerates sequences only up to n={MAX_ORACLE_N}")
    obs_adj = [list(nbrs) for nbrs in t.adjacency]
    want = _free_key(obs_adj, list(range(t.n)))
    total = 0
    hits = 0
    for seq in _sequences(1, t.n):
        adj, _ = _components([[]], 1, seq)
        total += 1
        if _free_key(adj, list(range(t.n))) == want:
            hits += 1
    return Fraction(hits, total)


def rooted_shape_distribution(m: int) -> dict[tuple, Fraction]:
    """Distribution of the rooted shape of uniform attachment to m vertices.

    Keys are the oracle's canonical nested tuples, rooted at the start
    vertex; values sum to 1.
    """
    if m > MAX_ORACLE_N:
        raise TreeError(f"oracle enumerates sequences only up to n={MAX_ORACLE_N}")
    counts: dict[tuple, int] = {}
    total = 0
    for seq in _sequences(1, m):
        adj, _ = _components([[]], 1, seq)
        key = _shape_key(adj, 0)
        counts[key] = counts.get(key, 0) + 1
        total += 1
    return {key: Fraction(c, total) for key, c in counts.items()}


def enumerate_shapes(n: int) -> list[Tree]:
    """One representative per unlabeled tree shape with exactly n vertices."""
    if n < 1:
        raise TreeError(f"shape enumeration needs n >= 1, got {n}")
    reps: list[Tree] = [build_tree(1, [])]
    for size in range(2, n + 1):
        seen: dict[tuple, Tree] = {}
        for smaller in reps:
            base = [list(nbrs) for nbrs in smaller.adjacency]
            for attach in range(smaller.n):
                adj = [list(a) for a in base]
                adj[attach].append(size - 1)
                adj.append([attach])
                key = _free_key(adj, list(range(size)))
                if key not in seen:
                    seen[key] = build_tree(
                        size, [(u, w) for u in range(size) for w in adj[u] if u < w]
                    )
        reps = sorted(seen.values(), key=lambda tr: tr.edges())
    return reps
