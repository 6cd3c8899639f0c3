"""Shared test utilities."""

from fractions import Fraction
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from bisect import bisect_left, insort
from heapq import nsmallest
import math

import numpy as np

from seedtrace import build_tree, generate, path_tree, psi_set
from seedtrace.rng import STREAM_GROW, derive_seed, make_rng
from seedtrace.skeleton import SkeletonObservation, skeleton_leaf_set
from seedtrace.tree import ConfidenceSet, SeedPlacement, Tree, TreeError, bfs_order


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
        edges = [(a, b) for a in range(len(verts)) for b in adj[a] if a < b]
        out.append((root, build_tree(len(verts), edges)))
    return out


def reference_log_likelihood_all(t: Tree) -> list[float]:
    """Rooted log-likelihood of every root by the all-roots symmetry pass the
    package used before it read the centroid: per-vertex counts of neighbour
    codes give log a at every root by rerooting, full neighbour-code keys
    give R(u), and phi comes from ``reference_psi_phi``."""
    n = t.n
    if n == 1:
        return [0.0]
    log = math.log
    adj = t.adjacency
    order, parent = reference_bfs_order(adj, 0)
    children: list[list[int]] = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)

    intern: dict[tuple[int, ...], int] = {(): 0}

    def get(key: tuple[int, ...]) -> int:
        code = intern.get(key)
        if code is None:
            code = len(intern)
            intern[key] = code
        return code

    down = [0] * n
    for v in reversed(order):
        ch = children[v]
        if ch:
            down[v] = get(tuple(sorted(down[c] for c in ch)))
    up = reference_up_codes(order, parent, children, down, get)

    max_deg = max(len(a) for a in adj)
    lfact = [0.0] * (max_deg + 1)
    for m in range(2, max_deg + 1):
        lfact[m] = lfact[m - 1] + log(m)

    cnt: list[dict[int, int]] = [dict() for _ in range(n)]
    laut_root = [0.0] * n
    full_keys: list[tuple[int, ...]] = [()] * n
    for v in range(n):
        c = cnt[v]
        pv = parent[v]
        uv = up[v]
        codes_v = []
        for x in adj[v]:
            code = uv if x == pv else down[x]
            codes_v.append(code)
            c[code] = c.get(code, 0) + 1
        laut_root[v] = sum(lfact[m] for m in c.values())
        codes_v.sort()
        full_keys[v] = tuple(codes_v)

    full_counts: dict[tuple[int, ...], int] = {}
    for key in full_keys:
        full_counts[key] = full_counts.get(key, 0) + 1
    aut_bar = [full_counts[full_keys[v]] for v in range(n)]

    # symmetry-product term for the base rooting
    a = [0.0] * n
    a0 = laut_root[0]
    for v in order[1:]:
        a0 += laut_root[v] - log(cnt[v][up[v]])
    a[0] = a0
    for w in order[1:]:
        u = parent[w]
        a[w] = a[u] + log(cnt[w][up[w]]) - log(cnt[u][down[w]])
    phi = reference_psi_phi(adj)[1]
    return [-log(aut_bar[v]) - phi[v] - a[v] for v in range(n)]


def reference_log_likelihood_seed(t: Tree, vertices) -> float:
    """Seeded log-likelihood the slow way: cut out every hanging subtree and
    run the all-roots reference on it, once per placement."""
    placement = SeedPlacement.from_vertices(t, vertices)
    total = 0.0
    for _, sub in hanging_decomposition(t, placement):
        if sub.n > 1:
            total += reference_log_likelihood_all(sub)[0]
    return total


def reference_dfs_cover_set(t: Tree, anchors, k: int, ell: int, eps: float, k_cap: int):
    """DFS cover members the slow way: root the tree again at every anchor.

    Returns the (vertex, score) pairs in admission order.
    """
    n = t.n
    threshold = n * eps / (2.0 * k * ell)
    chosen: dict[int, float] = {}
    for anchor in anchors:
        if len(chosen) >= k_cap:
            break
        # subtree sizes with the tree rooted at this anchor
        parent = [-1] * n
        parent[anchor] = anchor
        order = [anchor]
        for u in order:
            for v in t.adjacency[u]:
                if parent[v] == -1:
                    parent[v] = u
                    order.append(v)
        sizes = [1] * n
        for u in reversed(order[1:]):
            sizes[parent[u]] += sizes[u]
        if anchor not in chosen:
            chosen[anchor] = float(n)
            if len(chosen) >= k_cap:
                break
        stack = [anchor]
        visited = {anchor}
        full = False
        while stack and not full:
            u = stack.pop()
            for v in t.adjacency[u]:
                if v in visited:
                    continue
                visited.add(v)
                if sizes[v] < threshold:
                    continue
                if v not in chosen:
                    chosen[v] = float(sizes[v])
                    if len(chosen) >= k_cap:
                        full = True
                        break
                stack.append(v)
    return tuple(chosen.items())


def reference_star_recover(t: Tree, m: int, m_prime: int):
    """star_recover members built from one skeleton_leaf_set call per center."""
    chosen: dict[int, float] = {}
    for center in psi_set(t, m).vertices():
        chosen.setdefault(center, 0.0)
        leaves = skeleton_leaf_set(SkeletonObservation(tree=t, skeleton_ids=(center,)), m_prime)
        for rank, v in enumerate(leaves.vertices(), start=1):
            chosen.setdefault(v, float(rank))
    return tuple(chosen.items())


def reference_adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Tuple-of-tuples adjacency built as Tree stored it before CSR: both
    directions appended to per-vertex lists, then each list sorted."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    return tuple(tuple(sorted(a)) for a in adj)


def reference_grown_adjacency(seed_edges, k: int, parents, perm=None):
    """The grown (and, given perm, presented) adjacency as generate and
    anonymize built it before CSR: seed lists, each arrival appended to its
    parent's list, then every row relabeled through perm."""
    adj: list[list[int]] = [[] for _ in range(k)]
    for u, v in seed_edges:
        adj[u].append(v)
        adj[v].append(u)
    for i, p in enumerate(parents, start=k):
        adj.append([int(p)])
        adj[int(p)].append(i)
    if perm is not None:
        out: list[list[int]] = [[] for _ in adj]
        for v in range(len(adj)):
            out[int(perm[v])] = [int(perm[w]) for w in adj[v]]
        adj = out
    return tuple(tuple(sorted(a)) for a in adj)


def reference_edges(adjacency) -> list[tuple[int, int]]:
    return [(u, v) for u, nbrs in enumerate(adjacency) for v in nbrs if u < v]


def reference_bfs_order(adjacency, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order and parents over tuple adjacency (head-index queue)."""
    parent = [-1] * len(adjacency)
    order = [root]
    parent[root] = root
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in adjacency[u]:
            if parent[v] == -1:
                parent[v] = u
                order.append(v)
    parent[root] = -1
    return order, parent


def reference_rooted_sizes(adjacency, root: int) -> tuple[list[int], list[int]]:
    order, parent = reference_bfs_order(adjacency, root)
    sizes = [1] * len(adjacency)
    for u in reversed(order[1:]):
        sizes[parent[u]] += sizes[u]
    return parent, sizes


def reference_psi_phi(adjacency) -> tuple[list[int], list[float]]:
    """psi and log phi of every vertex as Python loops over the FIFO walk from
    vertex 0, as psi_all and phi_log_all computed them before the rooting was
    shared: the root's phi is a left-to-right sum in that order."""
    n = len(adjacency)
    order, parent = reference_bfs_order(adjacency, 0)
    sizes = [1] * n
    for u in reversed(order[1:]):
        sizes[parent[u]] += sizes[u]
    max_child = [0] * n
    for v in order[1:]:
        p = parent[v]
        if sizes[v] > max_child[p]:
            max_child[p] = sizes[v]
    psi = [max(max_child[u], n - sizes[u]) for u in range(n)]
    phi = [0.0] * n
    for v in order[1:]:  # left to right, as sum() added floats before Python 3.12
        phi[0] += math.log(sizes[v])
    for v in order[1:]:
        s = sizes[v]
        phi[v] = phi[parent[v]] + math.log(n - s) - math.log(s)
    return psi, phi


def reference_up_codes(order, parent, children, down, get) -> list[int]:
    """The all-roots up pass with one sorted-list copy and one ``get`` call per
    child: O(deg^2) at a vertex of degree deg."""
    up = [-1] * len(order)
    for p in order:
        ch = children[p]
        if not ch:
            continue
        base = sorted(down[c] for c in ch)
        if parent[p] != -1:
            insort(base, up[p])
        if len(ch) == 1 and parent[p] == -1:
            up[ch[0]] = 0
            continue
        for c in ch:
            rest = list(base)
            rest.pop(bisect_left(rest, down[c]))
            up[c] = get(tuple(rest))
    return up


class _FenwickSampler:
    """Fenwick tree over per-vertex weights for O(log n) weighted picks."""

    def __init__(self, capacity: int):
        self.cap = capacity
        self.bit = [0.0] * (capacity + 1)
        self.size = 0
        self.total = 0.0

    def append(self, w: float) -> None:
        i = self.size + 1
        self.size += 1
        self.total += w
        while i <= self.cap:
            self.bit[i] += w
            i += i & (-i)

    def add(self, idx: int, delta: float) -> None:
        self.total += delta
        i = idx + 1
        while i <= self.cap:
            self.bit[i] += delta
            i += i & (-i)

    def find(self, target: float) -> int:
        """Largest prefix whose cumulative weight stays below target."""
        idx = 0
        mask = 1 << (self.cap.bit_length() - 1)
        while mask:
            nxt = idx + mask
            if nxt <= self.cap and self.bit[nxt] < target:
                idx = nxt
                target -= self.bit[nxt]
            mask >>= 1
        return min(idx, self.size - 1)


def _reference_degree_weight(degree: int, alpha: float) -> float:
    if degree == 0:
        return 1.0
    return float(degree) ** alpha


def reference_weighted_draw(degrees: list[int], n: int, alpha: float, u01) -> list[int]:
    """The alpha > 0 parents draw through a sampler object with one method
    call per Fenwick walk, as growth drew it before the loop was inlined:
    one uniform of ``u01`` per arrival, ``degrees`` being the seed's."""
    k = len(degrees)
    degrees = list(degrees)
    sampler = _FenwickSampler(n)
    for v in range(k):
        sampler.append(_reference_degree_weight(degrees[v], alpha))
    out = np.empty(n - k, dtype=np.int64)
    for step in range(n - k):
        target = u01[step] * sampler.total
        p = sampler.find(target)
        out[step] = p
        sampler.add(
            p,
            _reference_degree_weight(degrees[p] + 1, alpha)
            - _reference_degree_weight(degrees[p], alpha),
        )
        degrees[p] += 1
        sampler.append(_reference_degree_weight(1, alpha))
        degrees.append(1)
    return [int(p) for p in out]


def reference_weighted_parents(seed_tree: Tree, n: int, alpha: float, rng_seed: int) -> list[int]:
    """``reference_weighted_draw`` on the uniforms of growth's Philox stream."""
    k = seed_tree.n
    if n == k:
        return []
    rng = make_rng(derive_seed(rng_seed, 0, STREAM_GROW))
    degrees = [seed_tree.degree(v) for v in range(k)]
    return reference_weighted_draw(degrees, n, alpha, rng.random(n - k))


# top_k and hanging_sizes as the package had them before skeleton_leaf_set
# read the tree's one rooting: the references its differential test compares to.


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
    ptr, idx = t.csr_lists()
    # anchors must induce a connected subtree
    stack = [anchors[0]]
    seen = {anchors[0]}
    while stack:
        u = stack.pop()
        for w in idx[ptr[u] : ptr[u + 1]]:
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
    for u in queue:
        for w in idx[ptr[u] : ptr[u + 1]]:
            if parent[w] == -2:
                parent[w] = u
                order.append(w)
                queue.append(w)
    sizes = [1] * t.n
    for v in reversed(order):
        sizes[parent[v]] += sizes[v]
    return sizes
