"""Exact shape likelihoods for uniform-attachment trees.

For a presented unlabeled tree t and a candidate root u, the likelihood is
the probability that uniform attachment grown to |t| vertices produces the
shape of t with its start vertex sitting at position u (probability mass is
split evenly among positions indistinguishable from u).  In closed form:

    L_t(u) = ( n / R(u) ) * prod over all v of 1 / ( size_u(v) * a_u(v) )

where size_u(v) is the subtree size hanging at v when t is rooted at u,
a_u(v) is the product of factorials of the multiplicities of isomorphic
child subtrees of v in that rooting, and R(u) counts vertices w whose rooted
tree (t, w) is isomorphic to (t, u).

A candidate seed placement S factorizes: conditionally on the sizes of the
subtrees hanging at the seed vertices, each hanging subtree is an independent
uniform-attachment tree rooted at its seed vertex, so the placement's
log-likelihood is the sum of the rooted log-likelihoods of its hanging
subtrees.  (This conditional reading is pinned down against the sequence
enumeration oracle in oracle.py; see that module for the exact event.)

Everything here is iterative and runs in O(n log n) per tree: subtree shapes
are interned integer codes computed for both directions of every edge by a
down pass and an up pass, and the per-root terms follow by rerooting across
each edge.

The same passes serve every seed placement.  The subtree hanging at seed
vertex s is s plus the directed subtrees D(s -> y) toward its neighbours y
outside the seed.  With M the multiset of their codes, its rooted
log-likelihood is

    -log R_s - log a(M) - sum over m in M of W[m]

where W[m] is the sum of log(size * a) over the vertices of a subtree with
code m, and R_s is the orbit size of s in the hanging subtree.  W is a
per-code table, R_s comes from a walk from s to the centre of the hanging
subtree, and each term is memoized per (s, seed neighbours of s), so scoring
one more placement of a tree costs O(k) lookups once its terms are known.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, insort

from .centrality import phi_log_all
from .tree import SeedPlacement, Tree, TreeError


class PlacementBudgetError(RuntimeError):
    """Raised when placement enumeration exceeds the caller's budget."""


class _AllRoots:
    """Directed subtree codes plus per-root symmetry and size terms.

    The code of the directed subtree D(v -> x) (the part of the tree reached
    from v through x, rooted at x) is down[x] when x is a child of v in the
    base rooting at 0, else up[v].  Equal codes mean isomorphic rooted
    subtrees, and a code is created after the codes of its children.
    """

    __slots__ = (
        "n", "adj", "order", "parent", "down", "up", "aut_bar",
        "laut_root", "cnt", "log_phi", "intern", "lfact",
        "code_size", "code_height", "code_w", "terms",
    )

    def __init__(self, t: Tree):
        n = t.n
        self.n = n
        r = t.rooting
        self.order = order = r.order.tolist()
        self.parent = parent = r.parent.tolist()
        adj = t.adjacency
        self.adj = adj

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

        # down pass: code of the subtree below each vertex (base rooting at 0)
        down = [0] * n
        for v in reversed(order):
            ch = children[v]
            if ch:
                down[v] = get(tuple(sorted(down[c] for c in ch)))
        self.down = down

        self.up = up = self._up_codes(order, parent, children, down, get)

        self.intern = intern

        log = math.log
        max_deg = max(len(a) for a in adj)
        lfact = [0.0] * (max_deg + 1)
        for m in range(2, max_deg + 1):
            lfact[m] = lfact[m - 1] + log(m)
        self.lfact = lfact

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
        self.laut_root = laut_root
        self.cnt = cnt

        full_counts: dict[tuple[int, ...], int] = {}
        for key in full_keys:
            full_counts[key] = full_counts.get(key, 0) + 1
        self.aut_bar = [full_counts[full_keys[v]] for v in range(n)]

        self.log_phi = phi_log_all(t)
        # per-code tables for seed placements, filled by add_code_tables
        self.code_size: list[int] = []
        self.code_height: list[int] = []
        self.code_w: list[float] = []
        self.terms: dict[tuple[int, tuple[int, ...]], float] = {}

    @staticmethod
    def _up_codes(order, parent, children, down, get) -> list[int]:
        """Up pass: the code of the rest of the tree seen across each
        vertex's parent edge.

        Children with one down code share one up code, so the sorted code
        list is copied once per distinct child code, not once per child (a
        star's centre would cost O(deg^2)).  The first child with a code makes
        the ``get`` call, so codes are interned in the same order as with a
        call per child.
        """
        up = [-1] * len(order)
        for p in order:
            ch = children[p]
            if not ch:
                continue
            base = sorted(down[c] for c in ch)
            if parent[p] != -1:
                insort(base, up[p])
            if len(ch) == 1 and parent[p] == -1:
                # removing the only child leaves the bare root
                up[ch[0]] = 0
                continue
            shared: dict[int, int] = {}
            for c in ch:
                code = shared.get(down[c])
                if code is None:
                    rest = list(base)
                    rest.pop(bisect_left(rest, down[c]))
                    code = shared[down[c]] = get(tuple(rest))
                up[c] = code
        return up

    def log_likelihoods(self) -> list[float]:
        n = self.n
        if n == 1:
            return [0.0]
        log = math.log
        order, parent = self.order, self.parent
        cnt, up, down = self.cnt, self.up, self.down
        laut = self.laut_root
        # symmetry-product term for the base rooting
        a = [0.0] * n
        a0 = laut[0]
        for v in order[1:]:
            a0 += laut[v] - log(cnt[v][up[v]])
        a[0] = a0
        for w in order[1:]:
            u = parent[w]
            a[w] = a[u] + log(cnt[w][up[w]]) - log(cnt[u][down[w]])
        phi = self.log_phi
        aut_bar = self.aut_bar
        return [-log(aut_bar[v]) - phi[v] - a[v] for v in range(n)]

    def placement(self, vertices: tuple[int, ...]) -> float:
        """Seeded log-likelihood: the hanging terms of the seed vertices,
        added in sorted order so that automorphic placements tie exactly."""
        adj = self.adj
        members = set(vertices)
        terms = sorted(
            self.hanging_term(s, tuple(y for y in adj[s] if y in members))
            for s in vertices
        )
        return sum(terms)

    def hanging_term(self, s: int, cut: tuple[int, ...]) -> float:
        """Rooted log-likelihood of the subtree hanging at s once the edges
        from s to its neighbours in cut are removed."""
        key = (s, cut)
        term = self.terms.get(key)
        if term is None:
            ys = [y for y in self.adj[s] if y not in cut]
            _, _, laut, wsum = self._describe(tuple(sorted(self._edge(s, y) for y in ys)))
            term = -math.log(self._orbit(s, ys)) - laut - wsum if ys else 0.0
            self.terms[key] = term
        return term

    def add_code_tables(self) -> None:
        """Size, height and W of every code so far, which placements need."""
        for key in self.intern:
            self._add_code_row(key)

    def _edge(self, v: int, x: int) -> int:
        """Code of the directed subtree D(v -> x)."""
        return self.down[x] if self.parent[x] == v else self.up[v]

    def _describe(self, key: tuple[int, ...]) -> tuple[int, int, float, float]:
        """Size, height, log a and the W sum (in code order) of the rooted
        subtree whose root has children with these sorted codes."""
        size_of, height_of, w_of, lfact = (
            self.code_size, self.code_height, self.code_w, self.lfact
        )
        size, height, laut, wsum = 1, 0, 0.0, 0.0
        prev, run = -1, 0
        for c in key:
            size += size_of[c]
            if height_of[c] >= height:
                height = height_of[c] + 1
            wsum += w_of[c]
            if c == prev:
                run += 1
            else:
                laut += lfact[run]
                prev, run = c, 1
        return size, height, laut + lfact[run], wsum

    def _add_code_row(self, key: tuple[int, ...]) -> None:
        """Append the size, height and W of the next code, whose children
        already have rows, so isomorphic subtrees share one float."""
        size, height, laut, wsum = self._describe(key)
        self.code_size.append(size)
        self.code_height.append(height)
        self.code_w.append(math.log(size) + laut + wsum)

    def _code(self, key: tuple[int, ...]) -> int:
        """Intern a subtree that is cut off from the host tree."""
        code = self.intern.get(key)
        if code is None:
            code = len(self.intern)
            self.intern[key] = code
            self._add_code_row(key)
        return code

    def _orbit(self, s: int, ys: list[int]) -> int:
        """Orbit size R_s of s under the automorphisms of the subtree made of s
        and the directed subtrees D(s -> y), y in ys.

        The walk goes from s toward the deepest branch until the two deepest
        branches differ in height by at most one: there it stands on the
        centre, or on the near end of the bicentre edge.  Automorphisms fix
        the centre, so the orbit is the product over the steps of the number
        of branches isomorphic to the part walked so far, doubled when the
        two halves of a bicentre are isomorphic.
        """
        edge, height, adj = self._edge, self.code_height, self.adj
        here = s
        branches = [(edge(s, y), y) for y in ys]
        orbit = 1
        while True:
            d1 = d2 = 0
            for code, y in branches:
                h = height[code] + 1
                if h > d1:
                    d1, d2, deep, far = h, d1, code, y
                elif h > d2:
                    d2 = h
            if d1 - d2 < 2:
                break
            back = self._code(tuple(sorted(c for c, y in branches if y != far)))
            branches = [(back, here)] + [(edge(far, z), z) for z in adj[far] if z != here]
            orbit *= sum(1 for c, _ in branches if c == back)
            here = far
        if d1 > d2 and self._code(tuple(sorted(c for c, y in branches if y != far))) == deep:
            orbit *= 2
        return orbit


def log_likelihood_all(t: Tree) -> list[float]:
    """Rooted log-likelihood (nats) for every root position at once."""
    if t.n == 1:
        return [0.0]
    return _AllRoots(t).log_likelihoods()


def log_likelihood_rooted(t: Tree, u: int) -> float:
    """log L_t(u) in nats; always <= 0."""
    if not (0 <= u < t.n):
        raise TreeError(f"root {u} outside 0..{t.n - 1}")
    return log_likelihood_all(t)[u]


def mle_root(t: Tree) -> tuple[int, float]:
    """The likelihood-maximizing root, ties broken by smallest vertex id."""
    scores = log_likelihood_all(t)
    best_v = 0
    best_s = scores[0]
    for v in range(1, t.n):
        s = scores[v]
        if s > best_s:
            best_v, best_s = v, s
    return best_v, best_s


_LAST = threading.local()


def _all_roots(t: Tree) -> _AllRoots:
    """The all-roots state of t, kept for the last tree seen in this thread."""
    slot = getattr(_LAST, "slot", None)
    if slot is None or slot[0] is not t:
        roots = _AllRoots(t)
        roots.add_code_tables()
        slot = _LAST.slot = (t, roots)
    return slot[1]


def log_likelihood_seed(t: Tree, placement: SeedPlacement | tuple[int, ...]) -> float:
    """Joint log-likelihood of a seed placement.

    Sum over the placement's vertices of the rooted log-likelihood of the
    subtree hanging at each one.  The passes over t are shared by every call
    with the same tree object, so scoring all placements of a tree costs one
    all-roots pass plus O(k) per placement once its hanging terms are known.
    """
    if not isinstance(placement, SeedPlacement):
        placement = SeedPlacement.from_vertices(t, placement)
    return _all_roots(t).placement(placement.vertices)


def _subset_groups(t: Tree, k: int, budget: int | None = None):
    """Connected k-vertex subsets in groups (sub, ext): the subsets sub + (w,)
    for w in ext.  Each connected k-subset comes exactly once (ESU
    enumeration); PlacementBudgetError is raised once more than budget have
    come."""
    made = 0

    def counted(ext: list[int]) -> list[int]:
        nonlocal made
        made += len(ext)
        if budget is not None and made > budget:
            raise PlacementBudgetError(
                f"placement enumeration exceeded the budget of {budget}"
            )
        return ext

    if k == 1:
        yield (), counted(list(range(t.n)))
        return
    adj = t.adjacency
    for v0 in range(t.n):
        ext0 = [u for u in adj[v0] if u > v0]
        if not ext0:
            continue
        blocked0 = {v0, *ext0}
        stack = [((v0,), ext0, blocked0)]
        while stack:
            sub, ext, blocked = stack.pop()
            if len(sub) + 1 == k:
                yield sub, counted(ext)
                continue
            for i, w in enumerate(ext):
                fresh = [u for u in adj[w] if u > v0 and u not in blocked]
                new_ext = ext[i + 1 :] + fresh
                new_blocked = blocked | set(fresh)
                stack.append((sub + (w,), new_ext, new_blocked))


def _connected_ksubsets(t: Tree, k: int, budget: int | None = None) -> list[tuple[int, ...]]:
    """All connected k-vertex subsets, each exactly once, as sorted tuples."""
    return [tuple(sorted(sub + (w,))) for sub, ext in _subset_groups(t, k, budget) for w in ext]


def enumerate_placements(
    t: Tree, k: int, ell: int, budget: int | None = None
) -> list[SeedPlacement]:
    """Connected k-subsets whose induced subtree has exactly ell leaves.

    Sorted lexicographically by vertex tuple.  Valid (k, ell): k = 1 with
    ell = 0, k = 2 with ell = 2, else 2 <= ell <= k - 1.  A budget caps the
    number of connected subsets examined.
    """
    _validate_k_ell(k, ell)
    if k > t.n:
        return []
    if k == 1:
        return [SeedPlacement(vertices=sub) for sub in _connected_ksubsets(t, 1, budget)]
    nbrs = [frozenset(a) for a in t.adjacency]
    placements = []
    for sub, ext in _subset_groups(t, k, budget):
        members = frozenset(sub)
        deg = {v: len(nbrs[v] & members) for v in sub}
        ends = sum(1 for d in deg.values() if d == 1)
        for w in ext:
            # w joins as a new leaf at its one neighbour x in sub
            (x,) = nbrs[w] & members
            if ends + 1 + (deg[x] == 0) - (deg[x] == 1) == ell:
                leaves = [v for v in sub if deg[v] + (v == x) == 1]
                leaves.append(w)
                placements.append(SeedPlacement(
                    vertices=tuple(sorted(sub + (w,))), leaf_ids=frozenset(leaves)
                ))
    placements.sort(key=lambda p: p.vertices)
    return placements


def _validate_k_ell(k: int, ell: int) -> None:
    if k < 1:
        raise TreeError(f"seed size must be >= 1, got {k}")
    if k == 1:
        if ell != 0:
            raise TreeError("a single-vertex seed has 0 leaves; pass ell=0")
    elif k == 2:
        if ell != 2:
            raise TreeError("a two-vertex seed has exactly 2 leaves; pass ell=2")
    elif not (2 <= ell <= k - 1):
        raise TreeError(
            f"a seed on {k} >= 3 vertices needs 2 <= ell <= {k - 1}, got {ell}"
        )


def mle_seed(
    t: Tree, k: int, ell: int, budget: int | None = None
) -> tuple[SeedPlacement, float]:
    """The likelihood-maximizing placement among all (k, ell) candidates.

    Ties keep the lexicographically smallest vertex tuple.  Raises
    PlacementBudgetError if enumeration exceeds the budget and TreeError if
    no placement with the requested shape exists.
    """
    placements = enumerate_placements(t, k, ell, budget=budget)
    if not placements:
        raise TreeError(f"no placement with k={k}, ell={ell} exists in this tree")
    best = None
    best_ll = -math.inf
    for p in placements:
        ll = log_likelihood_seed(t, p)
        if ll > best_ll:
            best, best_ll = p, ll
    return best, best_ll
