"""Random growth of trees from a seed by degree-weighted attachment.

Starting from a seed tree S on vertices ``0 .. k-1``, vertices ``k .. n-1``
arrive one at a time; arrival i attaches a pendant edge to an existing vertex
chosen with probability proportional to degree**alpha.  alpha = 0 is uniform
attachment (every existing vertex equally likely; 0**0 is taken as 1).  For
alpha > 0 a degree-0 start vertex also gets weight 1 so the first step is
well defined.

Vertex labels equal arrival order, so parent[i] < i always holds.  Call
``anonymize`` to relabel by a uniform permutation before showing a tree to an
estimator; the permutation is kept on the GrowthRecord so ground truth can be
mapped into presented labels.

RNG discipline (see rng.py): each tree is grown from one Philox stream.  With
alpha = 0 the attachment choices are one vectorized bounded-integer draw;
with alpha > 0 one uniform double is consumed per arrival.  Anonymization
uses its own stream derived from the same trial seed, so growth and
relabeling never interleave draws.

alpha must be finite and >= 0, with n * (n - 1)**alpha a finite double, so
that every weight and every sum of weights is finite.

Cost: the alpha = 0 draw is one numpy call.  The alpha > 0 draw is a Python
loop over arrivals, each a Fenwick descent and two Fenwick update walks, so
O(n log n) interpreted steps: best of N on a 2-core machine (Python 3.11.7,
numpy 2.4.6), about 4.2-6.4 ms at n=2000 and 0.52-0.57 s at n=1e5, for
alpha 0.5 and 1 alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import STREAM_ANON, STREAM_GROW, derive_seed, make_rng
from .tree import SeedPlacement, Tree, TreeError, _csr_from_edges


@dataclass
class GrowthRecord:
    """Ground truth for one grown tree, in original (arrival-order) labels."""

    seed: SeedPlacement
    parents: np.ndarray  # parents[i - k] is the attachment target of vertex i
    alpha: float
    rng_seed: int
    anonymization: np.ndarray | None = field(default=None)

    @property
    def k(self) -> int:
        return self.seed.k

    @property
    def n(self) -> int:
        return self.seed.k + len(self.parents)

    def arrival_order(self) -> range:
        """Non-seed vertices in arrival order (labels equal arrival order)."""
        return range(self.k, self.n)

    def presented_ids(self, original_ids) -> list[int]:
        """Map original vertex ids through the anonymization permutation."""
        if self.anonymization is None:
            return [int(v) for v in original_ids]
        return [int(self.anonymization[v]) for v in original_ids]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "alpha": float(self.alpha),
            "rng_seed": int(self.rng_seed),
            "seed_vertices": [int(v) for v in self.seed.vertices],
            "parents": [int(p) for p in self.parents],
            "anonymization": (
                None
                if self.anonymization is None
                else [int(v) for v in self.anonymization]
            ),
        }


def _degree_weight(degree: int, alpha: float) -> float:
    if degree == 0:
        return 1.0
    return float(degree) ** alpha


def _alpha_fits(n: int, alpha: float) -> bool:
    """Whether alpha is finite, >= 0 and n * (n - 1)**alpha a finite double.

    A vertex has degree at most n - 1, so that product bounds the total
    weight: when it is finite, no weight, node sum or target of the weighted
    draw is inf or NaN, and the draw loop needs no check of its own."""
    try:
        return (
            math.isfinite(alpha)
            and alpha >= 0
            and math.isfinite(n * float(max(n - 1, 1)) ** alpha)
        )
    except OverflowError:
        return False


def _weighted_parents(degrees: list[int], n: int, alpha: float, u01: list[float]) -> list[int]:
    """Parents of arrivals len(degrees) .. n-1, each drawn with probability
    proportional to degree**alpha; ``degrees`` are the seed's and are updated.

    A Fenwick tree over the weights (Fenwick, "A new data structure for
    cumulative frequency tables", 1994) picks a vertex in O(log n): arrival i
    takes the largest prefix whose weight stays below u * total, clamped to
    the last vertex.  Node sums and ``total`` take their additions in event
    order: the seed weights, then per arrival the parent's increment and the
    new leaf's weight.  Any draw that keeps this order and these float
    expressions picks the same parents from the same uniforms.
    """
    top = 1 << (n.bit_length() - 1)
    # the descent reaches index 2*top - 1; +inf past n is never taken, and
    # every update walk stops at n, so the padding is never written
    bit = [0.0] * (n + 1) + [math.inf] * (2 * top - n - 1)
    masks = [top >> j for j in range(top.bit_length())]
    total = 0.0
    size = 0
    for d in degrees:
        w = _degree_weight(d, alpha)
        size += 1
        total += w
        i = size
        while i <= n:
            bit[i] += w
            i += i & -i
    # inc[d]: the weight a vertex gains going from degree d to d + 1
    inc = [
        _degree_weight(d + 1, alpha) - _degree_weight(d, alpha)
        for d in range(max(max(degrees), 1) + 1)
    ]
    leaf = _degree_weight(1, alpha)
    out = []
    for u in u01:
        target = u * total
        idx = 0
        for mask in masks:
            b = bit[idx + mask]
            if b < target:
                idx += mask
                target -= b
        p = idx if idx < size else size - 1
        out.append(p)
        d = degrees[p]
        delta = inc[d]
        total += delta
        i = p + 1
        while i <= n:
            bit[i] += delta
            i += i & -i
        d += 1
        degrees[p] = d
        if d == len(inc):
            inc.append(_degree_weight(d + 1, alpha) - _degree_weight(d, alpha))
        size += 1
        total += leaf
        i = size
        while i <= n:
            bit[i] += leaf
            i += i & -i
        degrees.append(1)
    return out


def _grow_record(seed_tree: Tree, n: int, alpha: float, rng_seed: int) -> GrowthRecord:
    """Draw the parent array of a growth to size n; no tree is built.

    ``generate`` and the parents-only distribution checks share this draw.
    """
    k = seed_tree.n
    if n < k:
        raise TreeError(f"target size {n} is smaller than the seed size {k}")
    if not _alpha_fits(n, alpha):
        raise TreeError(
            f"attachment exponent must be finite and >= 0 with n * (n - 1)**alpha "
            f"a finite double, got {alpha} at n={n}"
        )
    rng = make_rng(derive_seed(rng_seed, 0, STREAM_GROW))
    if n == k:
        parents = np.empty(0, dtype=np.int64)
    elif alpha == 0.0:
        # uniform: arrival i picks among the i existing vertices
        parents = rng.integers(0, np.arange(k, n, dtype=np.int64))
    else:
        degrees = [seed_tree.degree(v) for v in range(k)]
        u01 = rng.random(n - k).tolist()
        parents = np.array(_weighted_parents(degrees, n, alpha, u01), dtype=np.int64)
    placement = SeedPlacement(
        vertices=tuple(range(k)),
        leaf_ids=frozenset(v for v in range(k) if seed_tree.degree(v) == 1),
    )
    return GrowthRecord(
        seed=placement, parents=parents, alpha=float(alpha), rng_seed=int(rng_seed)
    )


def _grown_edges(seed_tree: Tree, parents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge arrays of the grown tree in original labels: the seed's edges,
    then (i, parents[i - k]) for every arrival i."""
    k = seed_tree.n
    seed_us, seed_vs = seed_tree.edge_arrays()
    parents = np.asarray(parents, dtype=np.int64)
    arrivals = np.arange(k, k + len(parents), dtype=np.int64)
    return np.concatenate((seed_us, arrivals)), np.concatenate((seed_vs, parents))


def generate(
    seed_tree: Tree, n: int, alpha: float = 0.0, rng_seed: int = 0
) -> tuple[Tree, GrowthRecord]:
    """Grow a tree of size n from seed_tree; returns it with its GrowthRecord.

    The result is in original labels: seed vertices keep their ids, arrivals
    are labeled k, k+1, ... in order.
    """
    record = _grow_record(seed_tree, n, alpha, rng_seed)
    return _csr_from_edges(n, *_grown_edges(seed_tree, record.parents)), record


def anonymize(t: Tree, record: GrowthRecord, rng_seed: int | None = None) -> Tree:
    """Relabel t by a uniform random permutation and store it on the record.

    The permutation maps original id v to presented id perm[v].  The seed for
    the permutation defaults to a stream derived from the record's own seed.
    """
    if rng_seed is None:
        rng_seed = record.rng_seed
    rng = make_rng(derive_seed(rng_seed, 0, STREAM_ANON))
    perm = rng.permutation(t.n)
    record.anonymization = perm
    us, vs = t.edge_arrays()
    return _csr_from_edges(t.n, perm[us], perm[vs])


def rebuild_from_record(seed_tree: Tree, record: GrowthRecord) -> Tree:
    """Replay parents (and anonymization, if set) into the presented tree."""
    us, vs = _grown_edges(seed_tree, record.parents)
    if record.anonymization is not None:
        perm = np.asarray(record.anonymization, dtype=np.int64)
        us, vs = perm[us], perm[vs]
    return _csr_from_edges(record.n, us, vs)


def seed_component_sizes(record: GrowthRecord) -> np.ndarray:
    """|hanging subtree| at each seed vertex, straight from the parent array.

    Uses pointer doubling on the parent pointers (every non-seed vertex points
    at an earlier vertex), so the cost is O(n log n) numpy gathers and no
    Python-level loop over vertices.  sizes sum to n.
    """
    k = record.k
    n = record.n
    comp = np.arange(n, dtype=np.int64)
    if n > k:
        comp[k:] = record.parents
        # after enough doubling steps every pointer lands inside the seed
        while comp[k:].max() >= k:
            comp = comp[comp]
    counts = np.bincount(comp[:n], minlength=k)[:k]
    return counts.astype(np.int64)
