"""Command-line interface.

Subcommands: gen, find-root, find-seed, find-leaves, find-star, bounds,
experiment, check-dist.  Results go to stdout as JSON unless a CSV/SVG path
is given.  Exit codes: 0 ok, 2 usage error, 3 input data error, 4 a
check-style run failed its threshold.

The master seed falls back to the SEEDTRACE_RNG_SEED environment variable
when no --rng-seed / --master-seed flag is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness
from .centrality import dfs_cover_set, psi_set, phi_set
from .growth import anonymize, generate
from .harness import ConfigError, ExperimentConfig, distribution_check, minimal_k_search
from .likelihood import PlacementBudgetError, mle_root, mle_seed
from .rng import resolve_master_seed
from .skeleton import (
    SkeletonObservation, _check_eps, bound_calculators, skeleton_leaf_set, star_recover,
)
from .stats import StatsError
from .tree import TreeError, format_tree, read_tree, write_tree

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CHECK_FAILED = 4


def _emit(obj) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or infinity would make invalid JSON
        raise ConfigError(f"result holds a non-finite number: {exc}") from None
    sys.stdout.write(text + "\n")


def _cmd_gen(args) -> int:
    seed = read_tree(args.seed_file)
    rng_seed = resolve_master_seed(args.rng_seed)
    t, record = generate(seed, args.n, alpha=args.alpha, rng_seed=rng_seed)
    presented = anonymize(t, record)
    if args.out:
        write_tree(presented, args.out)
    else:
        sys.stdout.write(format_tree(presented))
    if args.record_out:
        with open(args.record_out, "w", encoding="ascii") as fh:
            json.dump(record.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _cmd_find_root(args) -> int:
    t = read_tree(args.tree)
    if args.method == "mle":
        v, ll = mle_root(t)
        _emit({"method": "mle", "vertex": int(v), "log_likelihood": ll})
        return EXIT_OK
    cs = psi_set(t, args.K) if args.method == "psi" else phi_set(t, args.K)
    _emit({"method": args.method, **cs.to_json()})
    return EXIT_OK


def _cmd_find_seed(args) -> int:
    t = read_tree(args.tree)
    if args.method == "psi-cover":
        cs = psi_set(t, args.K)
        _emit({"method": args.method, **cs.to_json()})
        return EXIT_OK
    if args.method == "dfs":
        k_star = args.kstar
        if k_star is None:
            _check_eps(args.eps)  # before halving, so the message names the given value
            # anchor set sized for half the error budget
            k_star = bound_calculators("root-psi", {"eps": args.eps / 2.0}).value
        anchors = psi_set(t, k_star)
        cs = dfs_cover_set(t, anchors, args.k, args.ell, args.eps, args.K)
        _emit({"method": args.method, "k_star": int(k_star), **cs.to_json()})
        return EXIT_OK
    placement, ll = mle_seed(t, args.k, args.ell, budget=args.budget)
    _emit(
        {
            "method": "mle",
            "placement": [int(v) for v in placement.vertices],
            "leaves": sorted(int(v) for v in placement.leaf_ids),
            "log_likelihood": ll,
        }
    )
    return EXIT_OK


def _cmd_find_leaves(args) -> int:
    t = read_tree(args.tree)
    skeleton = harness._as(
        lambda text: tuple(int(x) for x in text.split(",")), args.skeleton,
        "--skeleton must be comma-separated vertex ids",
    )
    obs = SkeletonObservation.make(t, skeleton)
    cs = skeleton_leaf_set(obs, args.K)
    _emit({"skeleton": [int(v) for v in obs.skeleton_ids], **cs.to_json()})
    return EXIT_OK


def _cmd_find_star(args) -> int:
    t = read_tree(args.tree)
    cs = star_recover(t, args.k, args.m, args.mprime)
    _emit(cs.to_json())
    return EXIT_OK


def _cmd_bounds(args) -> int:
    params = {}
    for name in ("eps", "k", "ell", "k_star", "c"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    result = bound_calculators(args.name, params)
    _emit(result.to_json())
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    search_block = raw.pop("search", None)
    cfg = ExperimentConfig.from_json(raw)
    if args.master_seed is not None or cfg.master_seed == 0:
        cfg = replace(
            cfg, master_seed=resolve_master_seed(args.master_seed, cfg.master_seed)
        )
    if args.jobs is not None:
        cfg = replace(cfg, jobs=args.jobs)
    if search_block is not None:
        result = minimal_k_search(cfg, *harness.search_from_json(search_block))
        if args.csv:
            with open(args.csv, "w", encoding="ascii", newline="\n") as fh:
                harness.write_curve_csv(result, fh)
        if args.svg:
            with open(args.svg, "w", encoding="ascii", newline="\n") as fh:
                harness.write_curve_svg(result, fh)
        _emit(result.to_json())
        return EXIT_OK
    result = harness.run_experiment(cfg)
    if args.csv:
        with open(args.csv, "w", encoding="ascii", newline="\n") as fh:
            harness.write_results_csv(result, fh)
    _emit(result.to_json())
    return EXIT_OK


def _cmd_check_dist(args) -> int:
    params = {}
    if args.params:
        params = json.loads(args.params)
        if not isinstance(params, dict):
            raise ConfigError("--params must be a JSON object")
    if args.master_seed is not None or "master_seed" not in params:
        params["master_seed"] = resolve_master_seed(args.master_seed)
    result = distribution_check(args.kind, params)
    _emit(result.to_json())
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedtrace",
        description=(
            "Grow trees from a seed by random attachment and locate the "
            "seed or root again from the unlabeled result."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="grow a tree from a seed file")
    p.add_argument("--seed-file", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--rng-seed", type=int, default=None)
    p.add_argument("--out", help="write the presented tree here (default stdout)")
    p.add_argument("--record-out", help="write the ground-truth record JSON here")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("find-root", help="confidence set or MLE for the root")
    p.add_argument("--tree", required=True)
    p.add_argument("--method", choices=("psi", "phi", "mle"), default="psi")
    p.add_argument("--K", type=int, default=1)
    p.set_defaults(func=_cmd_find_root)

    p = sub.add_parser("find-seed", help="candidate vertex sets for the seed")
    p.add_argument("--tree", required=True)
    p.add_argument("--method", choices=("psi-cover", "dfs", "mle"), default="psi-cover")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--kstar", type=int, default=None,
                   help="anchor set size for dfs (default from the root-psi bound)")
    p.add_argument("--budget", type=int, default=None,
                   help="abort mle enumeration beyond this many placements")
    p.set_defaults(func=_cmd_find_seed)

    p = sub.add_parser("find-leaves", help="seed leaves given the skeleton")
    p.add_argument("--tree", required=True)
    p.add_argument("--skeleton", required=True,
                   help="comma-separated skeleton vertex ids")
    p.add_argument("--K", type=int, required=True)
    p.set_defaults(func=_cmd_find_leaves)

    p = sub.add_parser("find-star", help="center plus leaf candidates for a star seed")
    p.add_argument("--tree", required=True)
    p.add_argument("--k", type=int, required=True, help="star seed size")
    p.add_argument("--m", type=int, required=True, help="center candidates")
    p.add_argument("--mprime", type=int, required=True, help="leaf candidates per center")
    p.set_defaults(func=_cmd_find_star)

    p = sub.add_parser("bounds", help="evaluate a set-size formula")
    p.add_argument("--name", required=True,
                   choices=("root-psi", "skeleton", "cover", "leaf-exist",
                            "heart-upper", "star-center"))
    p.add_argument("--eps", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--k-star", dest="k_star", type=int)
    p.add_argument("--c", type=float)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="run a config-driven experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--csv", help="write per-trial results (or the K curve) here")
    p.add_argument("--svg", help="write the K curve plot here (search mode)")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--master-seed", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("check-dist", help="distributional self-checks")
    p.add_argument("--kind", required=True,
                   choices=("dirichlet-marginal", "spacings",
                            "conditional-urrt", "naked-leaf"))
    p.add_argument("--params", help="JSON object of check parameters")
    p.add_argument("--master-seed", type=int, default=None)
    p.set_defaults(func=_cmd_check_dist)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TreeError, ConfigError, StatsError, PlacementBudgetError) as exc:
        print(f"seedtrace: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"seedtrace: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except json.JSONDecodeError as exc:
        print(f"seedtrace: error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
