"""Recovering seed leaves from a known internal skeleton, and star seeds.

A skeleton observation is a presented tree plus the identities of the seed's
internal (non-leaf) vertices R.  The missing seed leaves necessarily sit in
N(R), and the estimator keeps the K neighbors with the largest hanging
subtree: a vertex that was present at seed time has had the entire growth
run to accumulate descendants, so its hanging size is stochastically much
larger than that of a late arrival.

Star seeds have a single internal vertex, so the same idea applies once a
candidate center is found: star_recover unions, over the m most central
vertices, the candidate center plus its top m' neighbors by hanging size.

bound_calculators turns the closed-form set-size prescriptions into
integers.  Formulas with an unspecified universal constant take it as an
explicit parameter (default 1) and are flagged constant_free, meaning the
returned number fixes only the growth shape, not a calibrated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import nsmallest

from .centrality import psi_set
from .tree import ConfidenceSet, Tree, TreeError, rooted_sizes


@dataclass(frozen=True)
class SkeletonObservation:
    """A presented tree together with the known skeleton vertex ids."""

    tree: Tree
    skeleton_ids: tuple[int, ...]

    @staticmethod
    def make(tree: Tree, skeleton_ids) -> "SkeletonObservation":
        ids = tuple(sorted(set(int(v) for v in skeleton_ids)))
        if not ids:
            raise TreeError("skeleton must contain at least one vertex")
        for v in ids:
            if not (0 <= v < tree.n):
                raise TreeError(f"skeleton vertex {v} outside 0..{tree.n - 1}")
        return SkeletonObservation(tree=tree, skeleton_ids=ids)


def skeleton_leaf_set(obs: SkeletonObservation, k: int) -> ConfidenceSet:
    """The K neighbors of the skeleton with the largest hanging subtrees.

    Candidates are exactly N(R) minus R itself; ordering is by hanging size
    descending, ties by vertex id ascending.  Fewer than K candidates yields
    a shorter set.
    """
    if k < 1:
        raise TreeError(f"set size must be >= 1, got {k}")
    obs = SkeletonObservation.make(obs.tree, obs.skeleton_ids)
    t, ids = obs.tree, obs.skeleton_ids
    skeleton = set(ids)
    # the skeleton must induce a connected subtree
    stack, seen = [ids[0]], {ids[0]}
    while stack:
        for w in t.neighbors(stack.pop()):
            if w in skeleton and w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(ids):
        raise TreeError("anchor set is not connected")
    # a candidate w has one skeleton neighbour u, and hangs away from it with
    # sizes[w] vertices when parent[w] == u, else n - sizes[u]
    parent, sizes = rooted_sizes(t, 0)
    ranked = nsmallest(
        k,
        (
            (-(sizes[w] if parent[w] == u else t.n - sizes[u]), w)
            for u in ids
            for w in t.neighbors(u)
            if w not in skeleton
        ),
    )
    return ConfidenceSet(members=tuple((w, -s) for s, w in ranked), target_size=k)


def star_recover(t: Tree, k: int, m: int, m_prime: int) -> ConfidenceSet:
    """Candidate vertex set for a star seed's center and leaves.

    Takes the m vertices with the smallest max-hanging-size score as center
    candidates; each contributes itself plus its m' neighbors with the
    largest hanging subtrees.  The union is deduplicated in insertion order
    (center before its leaf candidates), so the output has at most
    m * (m' + 1) members; each member's score is its rank within its own
    stage (0 for a center candidate, 1..m' for leaf candidates).
    """
    if k < 2:
        raise TreeError(f"star seed size must be >= 2, got {k}")
    if m < 1 or m_prime < 1:
        raise TreeError(f"candidate counts must be >= 1, got m={m} m'={m_prime}")
    centers = psi_set(t, m)
    # one rooting gives each neighbour's hanging size away from any center
    parent, sizes = rooted_sizes(t, 0)
    chosen: dict[int, float] = {}
    for center in centers.vertices():
        if center not in chosen:
            chosen[center] = 0.0
        up = t.n - sizes[center]
        # size descending, ties by vertex id ascending
        ranked = nsmallest(
            m_prime,
            ((-(sizes[w] if parent[w] == center else up), w) for w in t.neighbors(center)),
        )
        for rank, (_, v) in enumerate(ranked, start=1):
            if v not in chosen:
                chosen[v] = float(rank)
    return ConfidenceSet(
        members=tuple(chosen.items()), target_size=m * (m_prime + 1)
    )


@dataclass(frozen=True)
class BoundResult:
    name: str
    value: int
    formula: str
    constant_free: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": int(self.value),
            "formula": self.formula,
            "constant_free": self.constant_free,
        }


def _require(params: dict, *names: str) -> list[float]:
    out = []
    for name in names:
        if name not in params:
            raise TreeError(f"bound calculator missing parameter {name!r}")
        out.append(float(params[name]))
    return out


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 1.0):
        raise TreeError(f"parameter eps must lie in (0, 1), got {eps}")


def bound_root_psi(eps: float) -> int:
    """Set size for root confidence by smallest max-hanging-size."""
    _check_eps(eps)
    return math.ceil((2.5 / eps) * math.log(1.0 / eps))


def bound_skeleton(k: int, ell: int, eps: float) -> int:
    """Set size for recovering all seed leaves given the skeleton."""
    _check_eps(eps)
    if not (1 <= ell < k):
        raise TreeError(f"need 1 <= ell < k, got k={k} ell={ell}")
    r = k - ell
    inner = math.log(3.0 * r / eps)
    value = ell + 2.0 * r * math.log((3.0 * ell / eps) * inner) + (7.0 / 6.0) * inner
    return math.ceil(value)


def bound_cover(k: int, ell: int, eps: float, k_star: int) -> int:
    """Set size for covering the whole seed by DFS expansion of root anchors."""
    _check_eps(eps)
    if k < 1 or ell < 1:
        raise TreeError(f"need k >= 1 and ell >= 1, got k={k} ell={ell}")
    if k_star < 1:
        raise TreeError(f"anchor set size k_star must be >= 1, got {k_star}")
    return math.ceil((2.0 * k * ell / eps) * k_star)


def bound_leaf_existence(k: int, ell: int, eps: float) -> int:
    """Largest final size at which a fixed seed leaf stays naked with prob >= eps-ish."""
    _check_eps(eps)
    if k < 2 or ell < 1:
        raise TreeError(f"need k >= 2 and ell >= 1, got k={k} ell={ell}")
    return math.floor(k * ell / (4.0 * eps))


def _ceil_scaled(value: float, c: float) -> int:
    """ceil(value), refusing a constant c that leaves the value non-finite."""
    if not math.isfinite(value):
        raise TreeError(f"parameter c must be a finite number with a finite set size, got {c}")
    return math.ceil(value)


def bound_heart_upper(k: int, eps: float, c: float = 1.0) -> int:
    """Constant-free set-size shape for covering a general seed."""
    _check_eps(eps)
    if k < 1:
        raise TreeError(f"need k >= 1, got {k}")
    return _ceil_scaled(c * (1.0 / eps) ** (2.0 / k) * math.log(1.0 / eps), c)


def bound_star_center(k: int, eps: float, c: float = 1.0) -> int:
    """Constant-free set-size shape for catching a star center."""
    _check_eps(eps)
    if k < 2:
        raise TreeError(f"need k >= 2, got {k}")
    return _ceil_scaled(c * (1.0 / eps) ** (1.0 / k) * math.log(1.0 / eps), c)


def bound_calculators(name: str, params: dict) -> BoundResult:
    """Evaluate a named set-size formula with explicit parameters."""
    if name == "root-psi":
        (eps,) = _require(params, "eps")
        return BoundResult(
            name, bound_root_psi(eps),
            f"ceil((2.5/{eps}) * log(1/{eps}))", False,
        )
    if name == "skeleton":
        k, ell, eps = _require(params, "k", "ell", "eps")
        k, ell = int(k), int(ell)
        return BoundResult(
            name, bound_skeleton(k, ell, eps),
            f"ceil({ell} + 2*({k}-{ell})*log((3*{ell}/{eps})*log(3*({k}-{ell})/{eps}))"
            f" + (7/6)*log(3*({k}-{ell})/{eps}))", False,
        )
    if name == "cover":
        k, ell, eps, k_star = _require(params, "k", "ell", "eps", "k_star")
        k, ell, k_star = int(k), int(ell), int(k_star)
        return BoundResult(
            name, bound_cover(k, ell, eps, k_star),
            f"ceil((2*{k}*{ell}/{eps}) * {k_star})", False,
        )
    if name == "leaf-exist":
        k, ell, eps = _require(params, "k", "ell", "eps")
        k, ell = int(k), int(ell)
        return BoundResult(
            name, bound_leaf_existence(k, ell, eps),
            f"floor({k}*{ell}/(4*{eps}))", False,
        )
    if name == "heart-upper":
        k, eps = _require(params, "k", "eps")
        c = float(params.get("c", 1.0))
        return BoundResult(
            name, bound_heart_upper(int(k), eps, c),
            f"ceil({c} * (1/{eps})**(2/{int(k)}) * log(1/{eps}))", True,
        )
    if name == "star-center":
        k, eps = _require(params, "k", "eps")
        c = float(params.get("c", 1.0))
        return BoundResult(
            name, bound_star_center(int(k), eps, c),
            f"ceil({c} * (1/{eps})**(1/{int(k)}) * log(1/{eps}))", True,
        )
    raise TreeError(
        f"unknown bound name {name!r}; expected one of root-psi, skeleton, "
        f"cover, leaf-exist, heart-upper, star-center"
    )
