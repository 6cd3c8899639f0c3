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
"""

from __future__ import annotations

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


def _degree_weight(degree: int, alpha: float) -> float:
    if degree == 0:
        return 1.0
    return float(degree) ** alpha


def _grow_record(seed_tree: Tree, n: int, alpha: float, rng_seed: int) -> GrowthRecord:
    """Draw the parent array of a growth to size n; no tree is built.

    ``generate`` and the parents-only distribution checks share this draw.
    """
    k = seed_tree.n
    if n < k:
        raise TreeError(f"target size {n} is smaller than the seed size {k}")
    if alpha < 0:
        raise TreeError(f"attachment exponent must be >= 0, got {alpha}")
    rng = make_rng(derive_seed(rng_seed, 0, STREAM_GROW))
    if n == k:
        parents = np.empty(0, dtype=np.int64)
    elif alpha == 0.0:
        # uniform: arrival i picks among the i existing vertices
        parents = rng.integers(0, np.arange(k, n, dtype=np.int64))
    else:
        sampler = _FenwickSampler(n)
        degrees = [seed_tree.degree(v) for v in range(k)]
        for v in range(k):
            sampler.append(_degree_weight(degrees[v], alpha))
        out = np.empty(n - k, dtype=np.int64)
        u01 = rng.random(n - k)
        for step in range(n - k):
            target = u01[step] * sampler.total
            p = sampler.find(target)
            out[step] = p
            sampler.add(
                p, _degree_weight(degrees[p] + 1, alpha) - _degree_weight(degrees[p], alpha)
            )
            degrees[p] += 1
            sampler.append(_degree_weight(1, alpha))
            degrees.append(1)
        parents = out
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
