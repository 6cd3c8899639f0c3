"""Monte Carlo harness: seeded trials, success scoring, K-search curves, and
distribution checks.

Reproducibility contract: a trial's entire randomness comes from a seed
derived as mix(master_seed, trial_id) (see rng.py), so results are identical
for any execution order and any process count.  The results CSV has the
fixed header

    trial_id,n,k,ell,alpha,method,K,criterion,success,intersection_size,runtime_ms,rng_seed

and is byte-identical across runs with the same config and master seed.
Because wall-clock timing is inherently nondeterministic, the runtime_ms
column is written as 0 unless the config opts in via record_runtime; the
measured value is always available on the in-memory TrialOutcome.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import IO, Callable

import numpy as np

from .centrality import dfs_cover_set, psi_set, phi_set
from .growth import (
    GrowthRecord,
    anonymize,
    generate,
    rebuild_from_record,
    seed_component_sizes,
)
from .likelihood import mle_root, mle_seed
from .oracle import _shape_key, rooted_shape_distribution
from .rng import derive_seed, make_rng
from .skeleton import SkeletonObservation, skeleton_leaf_set, star_recover
from .stats import chi_square_test, ks_critical, ks_statistic, wilson_interval
from .stats import beta_cdf
from .tree import Tree, TreeError, build_tree, read_tree


class ConfigError(ValueError):
    pass


CRITERIA = ("root-in-set", "intersect", "cover-seed", "cover-leaves")


@dataclass(frozen=True)
class EstimatorSpec:
    """How the harness runs one method; ``run`` gives the candidates best first.

    Candidates at a smaller K are a prefix of those at a larger K.  The
    ``seed_defaults`` come from the seed: ``k`` (its size), ``ell`` (its leaves)."""

    run: Callable[[dict, Tree, tuple[int, ...] | None], tuple[int, ...]]
    required: dict[str, type]
    criteria: frozenset[str]
    k_param: str | None = "K"
    seed_defaults: tuple[str, ...] = ()
    k_column: Callable[[dict], int] = lambda p: p["K"]
    optional_counts: tuple[str, ...] = ()  # absent, null or an integer >= 1


def _skeleton_leaves(p: dict, t: Tree, skeleton_ids) -> tuple[int, ...]:
    if not skeleton_ids:
        raise ConfigError("skeleton-leaves needs skeleton vertex ids")
    obs = SkeletonObservation.make(t, skeleton_ids)
    return skeleton_leaf_set(obs, p["K"]).vertices()


_ROOT_CRITERIA = frozenset({"root-in-set", "intersect", "cover-seed"})
_SEED_CRITERIA = frozenset({"cover-seed", "intersect"})

# the estimators are read as module globals at each call, so patching them works
ESTIMATORS = {
    "psi": EstimatorSpec(
        lambda p, t, _: psi_set(t, p["K"]).vertices(), {"K": int}, _ROOT_CRITERIA
    ),
    "phi": EstimatorSpec(
        lambda p, t, _: phi_set(t, p["K"]).vertices(), {"K": int}, _ROOT_CRITERIA
    ),
    "mle-root": EstimatorSpec(
        lambda p, t, _: (mle_root(t)[0],), {},
        frozenset({"root-in-set", "intersect"}), k_param=None, k_column=lambda p: 1,
    ),
    "dfs-cover": EstimatorSpec(
        lambda p, t, _: dfs_cover_set(
            t, psi_set(t, p["k_star"]), p["k"], p["ell"], p["eps"], p["K"]
        ).vertices(),
        {"k_star": int, "k": int, "ell": int, "eps": float, "K": int},
        _SEED_CRITERIA, seed_defaults=("k", "ell"),
    ),
    "mle-seed": EstimatorSpec(
        lambda p, t, _: mle_seed(t, p["k"], p["ell"], budget=p.get("budget"))[0].vertices,
        {"k": int, "ell": int},
        _SEED_CRITERIA, k_param=None, seed_defaults=("k", "ell"), k_column=lambda p: p["k"],
        optional_counts=("budget",),
    ),
    "skeleton-leaves": EstimatorSpec(
        _skeleton_leaves, {"K": int}, frozenset({"cover-leaves", "intersect"})
    ),
    "star": EstimatorSpec(
        lambda p, t, _: star_recover(t, p["k"], p["m"], p["m_prime"]).vertices(),
        {"k": int, "m": int, "m_prime": int},
        _SEED_CRITERIA, k_param=None, seed_defaults=("k",),
        k_column=lambda p: p["m"] * (p["m_prime"] + 1),
    ),
}


def _spec(method: str) -> EstimatorSpec:
    if method not in ESTIMATORS:
        raise ConfigError(f"unknown method {method!r}; expected one of {sorted(ESTIMATORS)}")
    return ESTIMATORS[method]


def _as(convert: Callable, value, message: str):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{message}, got {value!r}") from None


def _whole(value) -> int:
    """int(value), refusing booleans and floats with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not a whole number: {value!r}")
    return int(value)


def _count(value) -> int:
    count = _whole(value)
    if count < 1:
        raise ValueError(f"not a count: {value!r}")
    return count


def _estimator_params(spec: EstimatorSpec, params: dict) -> dict:
    """params with every required value present and converted to its type."""
    out = dict(params)
    for key, kind in spec.required.items():
        if key not in params:
            raise ConfigError(f"estimator params missing {key!r}")
        convert = _whole if kind is int else kind
        out[key] = _as(convert, params[key], f"estimator param {key!r} must be {kind.__name__}")
    for key in spec.optional_counts:
        if params.get(key) is not None:
            out[key] = _as(
                _count, params[key], f"estimator param {key!r} must be an integer >= 1 or null"
            )
    return out


def _seed_leaves(seed: Tree) -> list[int]:
    return [v for v in range(seed.n) if seed.degree(v) == 1]


def _run_params(method: str, params: dict, seed: Tree) -> dict:
    """params over the method's seed defaults, checked and converted."""
    spec = _spec(method)
    derived = {"k": seed.n, "ell": len(_seed_leaves(seed))}
    defaults = {key: derived[key] for key in spec.seed_defaults}
    return _estimator_params(spec, {**defaults, **params})


def _convert(d: dict, key: str, kind: type, default=None):
    convert = _whole if kind is int else kind
    return _as(convert, d.get(key, default), f"config {key!r} must be {kind.__name__}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: seed tree, growth size, estimator, success criterion."""

    n: int
    method: str
    criterion: str
    trials: int
    master_seed: int = 0
    alpha: float = 0.0
    params: dict = field(default_factory=dict)
    seed_n: int | None = None
    seed_edges: tuple[tuple[int, int], ...] | None = None
    seed_file: str | None = None
    jobs: int = 1
    record_runtime: bool = False

    def seed_tree(self) -> Tree:
        if self.seed_file is not None:
            return read_tree(self.seed_file)
        if self.seed_n is not None:
            return build_tree(self.seed_n, self.seed_edges or ())
        if self.seed_edges:
            n = max(max(u, v) for u, v in self.seed_edges) + 1
            return build_tree(n, self.seed_edges)
        raise ConfigError("config needs seed_file, seed_n, or seed_edges")

    def validate(self) -> None:
        """Reject a config that cannot run, before any tree is grown."""
        spec = _spec(self.method)
        if self.criterion not in CRITERIA:
            raise ConfigError(
                f"unknown criterion {self.criterion!r}; expected one of {CRITERIA}"
            )
        if self.criterion not in spec.criteria:
            raise ConfigError(
                f"method {self.method!r} does not support criterion "
                f"{self.criterion!r} (allowed: {sorted(spec.criteria)})"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        seed = self.seed_tree()
        if self.n < seed.n:
            raise ConfigError(
                f"target size {self.n} is smaller than the seed size {seed.n}"
            )
        # a K sweep sets the K param itself, so the config may leave it out
        sweep_k = {spec.k_param: 1} if spec.k_param else {}
        _run_params(self.method, {**sweep_k, **self.params}, seed)
        leaves = _seed_leaves(seed)
        if self.criterion == "cover-leaves" and not leaves:
            raise ConfigError("criterion cover-leaves needs a seed with leaves")
        if self.method == "skeleton-leaves" and len(leaves) == seed.n:
            raise ConfigError("skeleton-leaves needs a seed with internal vertices")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "method": self.method,
            "criterion": self.criterion,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "params": dict(self.params),
            "seed_n": self.seed_n,
            "seed_edges": (
                None
                if self.seed_edges is None
                else [[int(u), int(v)] for u, v in self.seed_edges]
            ),
            "seed_file": self.seed_file,
            "jobs": self.jobs,
            "record_runtime": self.record_runtime,
        }

    @staticmethod
    def from_json(d: dict) -> "ExperimentConfig":
        known = {
            "n", "alpha", "method", "criterion", "trials", "master_seed",
            "params", "seed_n", "seed_edges", "seed_file", "jobs",
            "record_runtime",
        }
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("n", "method", "criterion", "trials"):
            if key not in d:
                raise ConfigError(f"config missing required key {key!r}")
        edges = d.get("seed_edges")
        if edges is not None:
            edges = _as(lambda e: tuple((_whole(u), _whole(v)) for u, v in e), edges,
                        "config 'seed_edges' must be a list of integer pairs")
        seed_file = d.get("seed_file")
        if seed_file is not None and not isinstance(seed_file, str):
            raise ConfigError(f"config 'seed_file' must be a path string, got {seed_file!r}")
        record_runtime = d.get("record_runtime", False)
        if not isinstance(record_runtime, bool):
            raise ConfigError(
                f"config 'record_runtime' must be true or false, got {record_runtime!r}"
            )
        return ExperimentConfig(
            n=_convert(d, "n", int),
            alpha=_convert(d, "alpha", float, 0.0),
            method=str(d["method"]),
            criterion=str(d["criterion"]),
            trials=_convert(d, "trials", int),
            master_seed=_convert(d, "master_seed", int, 0),
            params=_convert(d, "params", dict, {}),
            seed_n=None if d.get("seed_n") is None else _convert(d, "seed_n", int),
            seed_edges=edges,
            seed_file=seed_file,
            jobs=_convert(d, "jobs", int, 1),
            record_runtime=record_runtime,
        )


@dataclass(frozen=True)
class TrialOutcome:
    """One scored trial; ``need`` is the candidate count that first meets the
    criterion (None if none does), so the trial succeeds at K when need <= K."""

    trial_id: int
    need: int | None
    intersection_size: int
    runtime_ms: float
    rng_seed: int

    @property
    def success(self) -> bool:
        return self.need is not None


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    outcomes: tuple[TrialOutcome, ...]
    successes: int
    p_hat: float
    ci_lo: float
    ci_hi: float

    def to_json(self) -> dict:
        return {
            "trials": len(self.outcomes),
            "successes": self.successes,
            "p_hat": self.p_hat,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "config": self.config.to_json(),
        }


def run_estimator(
    method: str,
    params: dict,
    presented: Tree,
    skeleton_ids: tuple[int, ...] | None = None,
) -> tuple[int, ...]:
    """Run one estimator on a presented tree; returns its candidates best first."""
    spec = _spec(method)
    return tuple(spec.run(_estimator_params(spec, params), presented, skeleton_ids))


def _need(candidates: tuple[int, ...], targets: list[int], criterion: str) -> int | None:
    """1-based position where the criterion is first met, or None: intersect
    is met at the first target found, the other criteria at the last."""
    position = {v: i for i, v in enumerate(candidates, start=1)}
    found = [position[v] for v in targets if v in position]
    if criterion == "intersect":
        return min(found, default=None)
    return max(found, default=0) if len(found) == len(targets) else None


def run_trial(cfg: ExperimentConfig, trial_id: int) -> TrialOutcome:
    """Generate, anonymize, estimate, and score a single trial."""
    seed = cfg.seed_tree()
    trial_seed = derive_seed(cfg.master_seed, trial_id)
    t, record = generate(seed, cfg.n, alpha=cfg.alpha, rng_seed=trial_seed)
    presented = anonymize(t, record)

    leaves = sorted(record.seed.leaf_ids)
    seed_ids = record.presented_ids(range(seed.n))
    internal = sorted(set(range(seed.n)) - set(leaves))
    skeleton_ids = tuple(sorted(record.presented_ids(internal)))
    targets = {
        "root-in-set": record.presented_ids([0]),
        "intersect": seed_ids,
        "cover-seed": seed_ids,
        "cover-leaves": record.presented_ids(leaves),
    }[cfg.criterion]

    params = _run_params(cfg.method, cfg.params, seed)
    t0 = time.perf_counter()
    candidates = run_estimator(cfg.method, params, presented, skeleton_ids)
    runtime_ms = (time.perf_counter() - t0) * 1000.0

    if trial_id % 100 == 0:
        _verify_replay(seed, record, presented)

    return TrialOutcome(
        trial_id=trial_id,
        need=_need(candidates, targets, cfg.criterion),
        intersection_size=len(set(candidates).intersection(seed_ids)),
        runtime_ms=runtime_ms,
        rng_seed=trial_seed,
    )


def _verify_replay(seed: Tree, record: GrowthRecord, presented: Tree) -> None:
    replayed = rebuild_from_record(seed, record)
    if replayed.adjacency != presented.adjacency:
        raise RuntimeError(
            "replay mismatch: stored GrowthRecord does not rebuild the "
            "presented tree"
        )


def _pool_trial(args: tuple[dict, int]) -> TrialOutcome:
    cfg_json, trial_id = args
    return run_trial(ExperimentConfig.from_json(cfg_json), trial_id)


# (jobs, pool) of the last parallel run.  Its workers are forked once and
# serve every later call with the same job count: starting and joining a pool
# per call cost a 20-trial sweep round about a fifth of its wall time, a share
# that rose and fell with the machine's load.  Each trial carries its whole
# config, so no result depends on an earlier call; the workers do run the
# module as it stood when they were forked.
_POOL: tuple[int, ProcessPoolExecutor] | None = None


def _run_pooled(jobs: int, items: list[tuple[dict, int]], chunk: int) -> list[TrialOutcome]:
    global _POOL
    if _POOL is not None and _POOL[0] != jobs:
        _POOL[1].shutdown()
        _POOL = None
    if _POOL is None:
        _POOL = (jobs, ProcessPoolExecutor(max_workers=jobs))
    try:
        return list(_POOL[1].map(_pool_trial, items, chunksize=chunk))
    except BrokenProcessPool:
        _POOL = None  # a worker died; the next call starts a fresh pool
        raise


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    cfg.validate()
    seed = cfg.seed_tree()
    _run_params(cfg.method, cfg.params, seed)  # the K param too, before any tree is grown
    # inline the seed so worker processes never race on a file
    cfg_run = replace(
        cfg, seed_file=None, seed_n=seed.n,
        seed_edges=tuple(seed.edges()),
    )
    if cfg.jobs <= 1:
        outcomes = [run_trial(cfg_run, i) for i in range(cfg.trials)]
    else:
        items = [(cfg_run.to_json(), i) for i in range(cfg.trials)]
        chunk = max(1, cfg.trials // (cfg.jobs * 4))
        outcomes = _run_pooled(cfg.jobs, items, chunk)
    outcomes.sort(key=lambda o: o.trial_id)
    successes = sum(1 for o in outcomes if o.success)
    p_hat = successes / cfg.trials
    lo, hi = wilson_interval(successes, cfg.trials)
    return ExperimentResult(
        config=cfg,
        outcomes=tuple(outcomes),
        successes=successes,
        p_hat=p_hat,
        ci_lo=lo,
        ci_hi=hi,
    )


CSV_HEADER = (
    "trial_id,n,k,ell,alpha,method,K,criterion,success,"
    "intersection_size,runtime_ms,rng_seed"
)


def write_results_csv(result: ExperimentResult, out: IO[str]) -> None:
    """Fixed-schema per-trial CSV; byte-identical under any parallelism."""
    cfg = result.config
    seed = cfg.seed_tree()
    ell = len(_seed_leaves(seed))
    k_col = _spec(cfg.method).k_column(_run_params(cfg.method, cfg.params, seed))
    out.write(CSV_HEADER + "\n")
    for o in result.outcomes:
        runtime = f"{o.runtime_ms:.3f}" if cfg.record_runtime else "0"
        out.write(
            f"{o.trial_id},{cfg.n},{seed.n},{ell},{cfg.alpha!r},{cfg.method},"
            f"{k_col},{cfg.criterion},{int(o.success)},{o.intersection_size},"
            f"{runtime},{o.rng_seed}\n"
        )


@dataclass(frozen=True)
class SearchResult:
    """Success curve over candidate set sizes plus the chosen size."""

    rows: tuple[tuple[int, float, float, float], ...]  # (K, p_hat, lo, hi)
    chosen_k: int | None
    target: float
    reached: bool

    def to_json(self) -> dict:
        return {
            "rows": [
                {"K": k, "p_hat": p, "ci_lo": lo, "ci_hi": hi}
                for k, p, lo, hi in self.rows
            ],
            "chosen_k": self.chosen_k,
            "target": self.target,
            "reached": self.reached,
        }


def write_curve_csv(search: SearchResult, out: IO[str]) -> None:
    out.write("K,p_hat,ci_lo,ci_hi\n")
    for k, p, lo, hi in search.rows:
        out.write(f"{k},{p:.6f},{lo:.6f},{hi:.6f}\n")


def write_curve_svg(search: SearchResult, out: IO[str]) -> None:
    """Tiny dependency-free SVG line plot of the success curve."""
    w, h, pad = 640, 400, 50
    rows = search.rows
    ks = [r[0] for r in rows]
    k_lo, k_hi = min(ks), max(ks)
    span = max(1, k_hi - k_lo)

    def x(k):
        return pad + (k - k_lo) / span * (w - 2 * pad)

    def y(p):
        return h - pad - p * (h - 2 * pad)

    pts = " ".join(f"{x(k):.1f},{y(p):.1f}" for k, p, _, _ in rows)
    band = " ".join(
        [f"{x(k):.1f},{y(hi):.1f}" for k, _, _, hi in rows]
        + [f"{x(k):.1f},{y(lo):.1f}" for k, _, lo, _ in reversed(rows)]
    )
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n'
        f'<rect width="{w}" height="{h}" fill="white"/>\n'
        f'<polygon points="{band}" fill="#9ecae1" opacity="0.5"/>\n'
        f'<polyline points="{pts}" fill="none" stroke="#08519c" stroke-width="2"/>\n'
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>\n'
        f'<text x="{w // 2}" y="{h - 12}" text-anchor="middle" font-size="13">K</text>\n'
        f'<text x="14" y="{h // 2}" transform="rotate(-90 14 {h // 2})" '
        f'text-anchor="middle" font-size="13">success probability</text>\n'
        f"</svg>\n"
    )


def _check_search(k_grid, target, z=1.96) -> tuple[list[int], float, float]:
    """Validated K-sweep settings: (sorted distinct grid, target, z)."""
    if not isinstance(k_grid, (list, tuple)) or not k_grid:
        raise ConfigError(f"K grid must be a non-empty list, got {k_grid!r}")
    grid = sorted(set(_as(_whole, k, "K grid values must be int") for k in k_grid))
    if grid[0] < 1:
        raise ConfigError(f"K grid values must be >= 1, got {grid[0]}")
    target, z = _as(float, target, "target must be float"), _as(float, z, "z must be float")
    if not (0.0 <= target <= 1.0 and 0.0 <= z < math.inf):
        raise ConfigError(f"need target in [0, 1] and finite z >= 0, got {target}, {z}")
    return grid, target, z


def search_from_json(block) -> tuple[list[int], float, float]:
    """Parse a config's "search" block: a grid, a target and an optional z."""
    if not isinstance(block, dict):
        raise ConfigError(f"search must be a JSON object, got {block!r}")
    unknown = set(block) - {"grid", "target", "z"}
    if unknown:
        raise ConfigError(f"unknown search keys: {sorted(unknown)}")
    return _check_search(block.get("grid"), block.get("target"), block.get("z", 1.96))


def minimal_k_search(
    cfg: ExperimentConfig,
    k_grid: list[int],
    target: float,
    z: float = 1.96,
) -> SearchResult:
    """Smallest K on the grid whose Wilson lower bound reaches the target.

    Candidates at a smaller K are a prefix of those at a larger K, so the
    trials run once, at the largest grid K, and succeed at K when their
    ``need`` is at most K; the curve is monotone in K by construction.  With
    z = 0 the comparison degenerates to p_hat >= target.
    """
    grid, target, z = _check_search(k_grid, target, z)
    spec = _spec(cfg.method)
    if spec.k_param is None:
        raise ConfigError(f"method {cfg.method!r} has no K parameter to sweep over")
    res = run_experiment(replace(cfg, params={**cfg.params, spec.k_param: grid[-1]}))

    rows = []
    chosen = None
    for k in grid:
        successes = sum(1 for o in res.outcomes if o.success and o.need <= k)
        lo, hi = wilson_interval(successes, cfg.trials, z=z)
        rows.append((k, successes / cfg.trials, lo, hi))
        if chosen is None and lo >= target:
            chosen = k
    return SearchResult(
        rows=tuple(rows), chosen_k=chosen, target=target, reached=chosen is not None
    )


@dataclass(frozen=True)
class CheckResult:
    kind: str
    statistic: float
    threshold: float
    passed: bool
    details: dict

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "passed": self.passed,
            "details": self.details,
        }


def distribution_check(kind: str, params: dict | None = None) -> CheckResult:
    """Monte Carlo distribution checks with explicit pass thresholds.

    Kinds: dirichlet-marginal, spacings, conditional-urrt, naked-leaf.
    Each draws its own trials from params['master_seed'] and compares a
    statistic against a documented threshold.
    """
    params = dict(params or {})
    if kind == "dirichlet-marginal":
        return _check_dirichlet(params)
    if kind == "spacings":
        return _check_spacings(params)
    if kind == "conditional-urrt":
        return _check_conditional(params)
    if kind == "naked-leaf":
        return _check_naked_leaf(params)
    raise ConfigError(
        f"unknown check kind {kind!r}; expected dirichlet-marginal, spacings, "
        f"conditional-urrt, or naked-leaf"
    )


def _check_seed_tree(params: dict, default_edges) -> Tree:
    edges = params.get("seed_edges", default_edges)
    n = max(max(u, v) for u, v in edges) + 1 if edges else 1
    return build_tree(n, tuple((int(u), int(v)) for u, v in edges))


def _check_dirichlet(params: dict) -> CheckResult:
    """Hanging-size fraction at one seed vertex vs its Beta(1, k-1) limit."""
    n = int(params.get("n", 20000))
    trials = int(params.get("trials", 1000))
    master_seed = int(params.get("master_seed", 0))
    vertex = int(params.get("seed_vertex", 0))
    seed = _check_seed_tree(params, ((0, 1), (1, 2)))
    k = seed.n
    if k < 2:
        raise ConfigError("dirichlet-marginal needs a seed with k >= 2")
    threshold = float(params.get("threshold", 0.06))
    fractions = np.empty(trials)
    for i in range(trials):
        _, record = generate(seed, n, rng_seed=derive_seed(master_seed, i))
        fractions[i] = seed_component_sizes(record)[vertex] / n
    stat = ks_statistic(fractions, lambda x: beta_cdf(1, k - 1, x))
    return CheckResult(
        kind="dirichlet-marginal",
        statistic=stat,
        threshold=threshold,
        passed=stat < threshold,
        details={"n": n, "k": k, "trials": trials, "reference": f"Beta(1,{k - 1})"},
    )


def _check_spacings(params: dict) -> CheckResult:
    """Uniform spacing marginals: S_1 and j * min of j spacings vs Beta(1, k-1)."""
    from .stats import uniform_spacings

    k = int(params.get("k", 6))
    j = int(params.get("j", 3))
    samples = int(params.get("samples", 4000))
    master_seed = int(params.get("master_seed", 0))
    if not (1 <= j <= k):
        raise ConfigError(f"need 1 <= j <= k, got j={j} k={k}")
    if k < 2:
        raise ConfigError("spacings check needs k >= 2")
    threshold = float(params.get("threshold", ks_critical(samples, 0.01)))
    rng = make_rng(derive_seed(master_seed, 0))
    first = np.empty(samples)
    scaled_min = np.empty(samples)
    for i in range(samples):
        s = uniform_spacings(k, rng)
        first[i] = s[0]
        scaled_min[i] = j * np.min(s[:j])
    ref = lambda x: beta_cdf(1, k - 1, x)
    stat_first = ks_statistic(first, ref)
    stat_min = ks_statistic(scaled_min, ref)
    stat = max(stat_first, stat_min)
    return CheckResult(
        kind="spacings",
        statistic=stat,
        threshold=threshold,
        passed=stat < threshold,
        details={
            "k": k, "j": j, "samples": samples,
            "ks_first_spacing": stat_first, "ks_scaled_min": stat_min,
            "reference": f"Beta(1,{k - 1})",
        },
    )


def _check_conditional(params: dict) -> CheckResult:
    """Conditioned hanging subtree vs the small-tree rooted shape law.

    Conditional on the subtree hanging at a fixed seed vertex having size m,
    its rooted shape must follow plain uniform attachment to m vertices.
    """
    n = int(params.get("n", 24))
    m = int(params.get("cond_size", 4))
    trials = int(params.get("trials", 6000))
    master_seed = int(params.get("master_seed", 0))
    vertex = int(params.get("seed_vertex", 0))
    threshold = float(params.get("threshold", 0.01))
    seed = _check_seed_tree(params, ((0, 1), (1, 2)))
    expected = rooted_shape_distribution(m)
    keys = sorted(expected)
    index = {key: i for i, key in enumerate(keys)}
    counts = [0] * len(keys)
    matched = 0
    for i in range(trials):
        t, record = generate(seed, n, rng_seed=derive_seed(master_seed, i))
        sizes = seed_component_sizes(record)
        if sizes[vertex] != m:
            continue
        matched += 1
        group = _hanging_group(t, record, vertex)
        key = _shape_key(group, 0)
        counts[index[key]] += 1
    probs = [float(expected[key]) for key in keys]
    stat, p_value, df = chi_square_test(counts, probs)
    return CheckResult(
        kind="conditional-urrt",
        statistic=stat,
        threshold=threshold,
        passed=p_value > threshold,
        details={
            "p_value": p_value, "df": df, "conditioned_samples": matched,
            "cond_size": m, "counts": counts,
        },
    )


def _hanging_group(t: Tree, record: GrowthRecord, vertex: int):
    """Local adjacency of the subtree hanging at one seed vertex (root 0)."""
    k = record.k
    n = record.n
    comp = list(range(k)) + [0] * (n - k)
    for i, p in enumerate(record.parents, start=k):
        comp[i] = comp[int(p)]
    members = [v for v in range(n) if comp[v] == vertex]
    # make the seed vertex local root 0
    order = sorted(members)
    if order[0] != vertex:
        i = order.index(vertex)
        order[0], order[i] = order[i], order[0]
    local = {v: i for i, v in enumerate(order)}
    adj = [[] for _ in range(len(order))]
    mem = set(members)
    for v in members:
        for w in t.adjacency[v]:
            if w in mem and v < w:
                adj[local[v]].append(local[w])
                adj[local[w]].append(local[v])
    return adj


def _check_naked_leaf(params: dict) -> CheckResult:
    """P(a fixed star-seed leaf still has no children at size K) = (k-1)/(K-1)."""
    k = int(params.get("k", 4))
    k_final = int(params.get("K", 13))
    trials = int(params.get("trials", 10000))
    master_seed = int(params.get("master_seed", 0))
    leaf = int(params.get("leaf_vertex", 1))
    if k < 2:
        raise ConfigError("naked-leaf needs a star seed with k >= 2")
    if k_final <= k:
        raise ConfigError(f"final size {k_final} must exceed the seed size {k}")
    seed = build_tree(k, tuple((0, i) for i in range(1, k)))
    if not (1 <= leaf < k):
        raise ConfigError(f"leaf_vertex must be a star leaf in 1..{k - 1}, got {leaf}")
    expected = (k - 1) / (k_final - 1)
    tol = float(
        params.get("tol", 3.5 * math.sqrt(expected * (1 - expected) / trials))
    )
    naked = 0
    for i in range(trials):
        _, record = generate(seed, k_final, rng_seed=derive_seed(master_seed, i))
        if seed_component_sizes(record)[leaf] == 1:
            naked += 1
    p_hat = naked / trials
    stat = abs(p_hat - expected)
    return CheckResult(
        kind="naked-leaf",
        statistic=stat,
        threshold=tol,
        passed=stat <= tol,
        details={
            "p_hat": p_hat, "expected": expected, "trials": trials,
            "k": k, "K": k_final,
        },
    )
