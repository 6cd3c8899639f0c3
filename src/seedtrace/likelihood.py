"""Exact shape likelihoods for uniform-attachment trees.

For a presented unlabeled tree t and a candidate root u, the likelihood is
the probability that uniform attachment grown to |t| vertices produces the
shape of t with its start vertex sitting at position u (probability mass is
split evenly among positions indistinguishable from u).  In closed form:

    L_t(u) = ( n / R(u) ) * prod over all v of 1 / ( size_u(v) * a_u(v) )

where size_u(v) is the subtree size hanging at v when t is rooted at u,
a_u(v) is the product of factorials of the multiplicities of isomorphic
child subtrees of v in that rooting, and R(u) counts vertices w whose rooted
tree (t, w) is isomorphic to (t, u).  By orbit-stabiliser, R(u) times the
product of the a_u(v) is |Aut(t)| for every u, and n over the product of the
sizes is 1 / phi(u), the product of hanging sizes of centrality.py:

    L_t(u) = 1 / ( |Aut(t)| * phi(u) )

Moving the root across an edge multiplies phi by (n - s) / s, with s the
size of the side moved into, so phi falls toward any side holding more than
n / 2 vertices: the likelihood is largest exactly at the centroid, the
minimizers of psi (the rumor-centre argument of Shah and Zaman, 2011).
mle_root returns the smallest-id centroid c with its rooted log-likelihood,
and log_likelihood_all shifts that one value by log phi(c) - log phi(u).

A candidate seed placement S factorizes: conditionally on the sizes of the
subtrees hanging at the seed vertices, each hanging subtree is an independent
uniform-attachment tree rooted at its seed vertex, so the placement's
log-likelihood is the sum of the rooted log-likelihoods of its hanging
subtrees.  (This conditional reading is pinned down against the sequence
enumeration oracle in oracle.py; see that module for the exact event.)

One pass serves roots and placements alike.  Subtree shapes are interned
integer codes, computed for both directions of every edge by a down pass and
an up pass in O(n log n).  The subtree hanging at seed vertex s is s plus
the directed subtrees D(s -> y) toward its neighbours y outside the seed.
With M the multiset of their codes, its rooted log-likelihood is

    -log R_s - log a(M) - sum over m in M of W[m]

where W[m] is the sum of log(size * a) over the vertices of a subtree with
code m, and R_s is the orbit size of s in the hanging subtree.  W is a
per-code table, R_s comes from a walk from s to the centre of the hanging
subtree, and each term is memoized per (s, seed neighbours of s), so scoring
one more placement of a tree costs O(k) lookups once its terms are known.
The single-vertex placement {c} is the whole tree rooted at c, so its term
is the rooted log-likelihood mle_root reports.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, insort

from .centrality import _centroid, phi_log_all
from .tree import SeedPlacement, Tree, TreeError


class PlacementBudgetError(RuntimeError):
    """Raised when placement enumeration exceeds the caller's budget."""


class _AllRoots:
    """Directed subtree codes of every edge, and the per-code tables that
    score seed placements.

    The code of the directed subtree D(v -> x) (the part of the tree reached
    from v through x, rooted at x) is down[x] when x is a child of v in the
    base rooting at 0, else up[v].  Equal codes mean isomorphic rooted
    subtrees, and a code is created after the codes of its children.
    """

    __slots__ = (
        "adj", "parent", "down", "up", "intern", "lfact",
        "code_size", "code_height", "code_w", "terms",
    )

    def __init__(self, t: Tree):
        n = t.n
        r = t.rooting
        order = r.order.tolist()
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
        self.up = self._up_codes(order, parent, children, down, get)
        self.intern = intern

        log = math.log
        max_deg = max(len(a) for a in adj)
        lfact = [0.0] * (max_deg + 1)
        for m in range(2, max_deg + 1):
            lfact[m] = lfact[m - 1] + log(m)
        self.lfact = lfact

        # size, height and W of every code, in code order
        self.code_size: list[int] = []
        self.code_height: list[int] = []
        self.code_w: list[float] = []
        for key in intern:
            self._add_code_row(key)
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
    """Rooted log-likelihood (nats) for every root position at once.

    log L_t(u) = -log |Aut(t)| - log phi(u), so every root's value is the
    centroid's rooted log-likelihood plus log phi(c) - log phi(u): one rooted
    term from the placement pass and one phi pass.
    """
    c, ll = mle_root(t)
    phi = phi_log_all(t)
    shift = ll + phi[c]
    return [shift - p for p in phi]


def log_likelihood_rooted(t: Tree, u: int) -> float:
    """log L_t(u) in nats; always <= 0."""
    if not (0 <= u < t.n):
        raise TreeError(f"root {u} outside 0..{t.n - 1}")
    return log_likelihood_all(t)[u]


def mle_root(t: Tree) -> tuple[int, float]:
    """The likelihood-maximizing root and its log-likelihood.

    The maximizers are exactly the centroid (see the module docstring), so
    this is the smallest-id minimizer of psi, an exact integer comparison,
    scored as the single-vertex placement at it.
    """
    c = _centroid(t)
    return c, log_likelihood_seed(t, (c,))


_LAST = threading.local()


def _all_roots(t: Tree) -> _AllRoots:
    """The placement state of t, kept for the last tree seen in this thread."""
    slot = getattr(_LAST, "slot", None)
    if slot is None or slot[0] is not t:
        slot = _LAST.slot = (t, _AllRoots(t))
    return slot[1]


def log_likelihood_seed(t: Tree, placement: SeedPlacement | tuple[int, ...]) -> float:
    """Joint log-likelihood of a seed placement.

    Sum over the placement's vertices of the rooted log-likelihood of the
    subtree hanging at each one.  The passes over t are shared by every call
    with the same tree object, so scoring all placements of a tree costs one
    pass of edge codes plus O(k) per placement once its hanging terms are
    known.
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
