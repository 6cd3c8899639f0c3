import io
import json
import math

import pytest

from seedtrace.harness import (
    CSV_HEADER,
    CheckResult,
    ConfigError,
    ExperimentConfig,
    distribution_check,
    minimal_k_search,
    run_estimator,
    run_experiment,
    run_trial,
    write_curve_csv,
    write_curve_svg,
    write_results_csv,
)
from seedtrace.rng import derive_seed
from seedtrace.stats import wilson_interval
from seedtrace import path_tree


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        n=60,
        method="psi",
        criterion="root-in-set",
        trials=10,
        master_seed=3,
        params={"K": 5},
        seed_n=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation_rejects_bad_combinations():
    with pytest.raises(ConfigError, match="unknown method"):
        _cfg(method="nope").validate()
    with pytest.raises(ConfigError, match="unknown criterion"):
        _cfg(criterion="nope").validate()
    with pytest.raises(ConfigError, match="does not support"):
        _cfg(method="psi", criterion="cover-leaves").validate()
    with pytest.raises(ConfigError, match="does not support"):
        _cfg(method="skeleton-leaves", criterion="root-in-set").validate()
    with pytest.raises(ConfigError, match="trials"):
        _cfg(trials=0).validate()
    with pytest.raises(ConfigError, match="smaller than the seed"):
        _cfg(n=2, seed_n=None, seed_edges=((0, 1), (1, 2))).validate()
    _cfg().validate()  # the base config is fine


def test_config_seed_tree_sources(tmp_path):
    from seedtrace.tree import write_tree

    path = tmp_path / "seed.tree"
    write_tree(path_tree(3), str(path))
    assert _cfg(seed_n=None, seed_file=str(path)).seed_tree().n == 3
    assert _cfg(seed_n=None, seed_edges=((0, 1),)).seed_tree().n == 2
    with pytest.raises(ConfigError, match="needs seed_file"):
        _cfg(seed_n=None).seed_tree()


def test_config_json_round_trip():
    cfg = _cfg(seed_n=None, seed_edges=((0, 1), (1, 2)))
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_json({**cfg.to_json(), "bogus": 1})
    with pytest.raises(ConfigError, match="missing required"):
        ExperimentConfig.from_json({"n": 10})


def test_run_trial_determinism():
    # everything except the wall-clock measurement must replay exactly
    cfg = _cfg()
    a = run_trial(cfg, 4)
    b = run_trial(cfg, 4)
    assert (a.success, a.intersection_size, a.rng_seed) == (
        b.success,
        b.intersection_size,
        b.rng_seed,
    )
    assert a.rng_seed == derive_seed(3, 4)
    assert a.runtime_ms >= 0.0


def test_run_experiment_summary_consistency():
    cfg = _cfg(trials=25)
    res = run_experiment(cfg)
    assert len(res.outcomes) == 25
    assert [o.trial_id for o in res.outcomes] == list(range(25))
    assert res.successes == sum(o.success for o in res.outcomes)
    assert math.isclose(res.p_hat, res.successes / 25)
    lo, hi = wilson_interval(res.successes, 25)
    assert math.isclose(res.ci_lo, lo) and math.isclose(res.ci_hi, hi)


def test_full_set_always_succeeds():
    cfg = _cfg(n=20, trials=8, params={"K": 20})
    res = run_experiment(cfg)
    assert res.successes == 8


def test_criterion_semantics_via_estimator():
    # a seeded P3 run where the candidate set is everything: all criteria hold
    for criterion, method in [
        ("root-in-set", "psi"),
        ("intersect", "psi"),
        ("cover-seed", "psi"),
    ]:
        cfg = _cfg(
            n=30,
            seed_n=None,
            seed_edges=((0, 1), (1, 2)),
            method=method,
            criterion=criterion,
            trials=4,
            params={"K": 30},
        )
        res = run_experiment(cfg)
        assert res.successes == 4, criterion
        assert all(o.intersection_size == 3 for o in res.outcomes)


def test_run_estimator_dispatch_errors():
    with pytest.raises(ConfigError, match="unknown method"):
        run_estimator("nope", {}, path_tree(4))
    with pytest.raises(ConfigError, match="missing 'K'"):
        run_estimator("psi", {}, path_tree(4))
    with pytest.raises(ConfigError, match="skeleton"):
        run_estimator("skeleton-leaves", {"K": 2}, path_tree(4), skeleton_ids=None)


def test_results_csv_schema_and_determinism():
    cfg = _cfg(trials=6)
    res = run_experiment(cfg)
    buf = io.StringIO()
    write_results_csv(res, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "60" and first[2] == "1"
    assert first[5] == "psi" and first[6] == "5"
    assert first[10] == "0"  # runtime masked by default
    # identical reruns produce identical bytes
    buf2 = io.StringIO()
    write_results_csv(run_experiment(cfg), buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_results_csv_runtime_opt_in():
    cfg = _cfg(trials=2, record_runtime=True)
    res = run_experiment(cfg)
    buf = io.StringIO()
    write_results_csv(res, buf)
    cells = buf.getvalue().splitlines()[1].split(",")
    assert float(cells[10]) > 0.0


def test_parallel_equals_serial():
    cfg = _cfg(trials=12)
    serial = run_experiment(cfg)
    parallel = run_experiment(_cfg(trials=12, jobs=3))
    assert [o.success for o in serial.outcomes] == [
        o.success for o in parallel.outcomes
    ]
    a, b = io.StringIO(), io.StringIO()
    write_results_csv(serial, a)
    write_results_csv(parallel, b)
    assert a.getvalue() == b.getvalue()


def test_parallel_workers_outlive_one_call():
    """Parallel runs with one job count share their workers; a new job count
    replaces them, and a killed worker costs one call, not the next."""
    import os
    import signal
    import time
    from concurrent.futures.process import BrokenProcessPool

    from seedtrace import harness

    def csv(res):
        buf = io.StringIO()
        write_results_csv(res, buf)
        return buf.getvalue()

    def workers():
        return list(harness._POOL[1]._processes.values())

    serial = csv(run_experiment(_cfg(trials=12)))
    assert csv(run_experiment(_cfg(trials=12, jobs=2))) == serial
    first = workers()
    assert len(first) == 2
    assert csv(run_experiment(_cfg(trials=12, jobs=2, master_seed=5))) == csv(
        run_experiment(_cfg(trials=12, master_seed=5))
    )
    assert workers() == first

    assert csv(run_experiment(_cfg(trials=12, jobs=3))) == serial
    assert len(workers()) == 3
    assert not any(p.is_alive() for p in first)

    victim = workers()[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    assert not victim.is_alive()
    deadline = time.monotonic() + 10
    while not harness._POOL[1]._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    with pytest.raises(BrokenProcessPool):
        run_experiment(_cfg(trials=12, jobs=3))
    assert csv(run_experiment(_cfg(trials=12, jobs=3))) == serial
    assert victim not in workers()


def test_minimal_k_search_fast_path_nested():
    cfg = _cfg(n=120, trials=60)
    res = minimal_k_search(cfg, [1, 2, 5, 10, 30, 120], target=0.8)
    ps = [p for _, p, _, _ in res.rows]
    assert ps == sorted(ps)  # nested sets give a monotone curve
    assert res.rows[-1][1] == 1.0  # K = n always contains the root
    if res.reached:
        k, p, lo, hi = next(r for r in res.rows if r[0] == res.chosen_k)
        assert lo >= 0.8
        for kk, pp, ll, hh in res.rows:
            if kk < k:
                assert ll < 0.8


def test_minimal_k_search_target_zero_picks_first():
    cfg = _cfg(trials=5)
    res = minimal_k_search(cfg, [3, 7], target=0.0)
    assert res.chosen_k == 3 and res.reached


def test_minimal_k_search_z_zero_boundary():
    # with z=0 the Wilson bound is p_hat itself, so target 1.0 is reachable
    # exactly when every trial succeeds; K = n guarantees that
    cfg = _cfg(n=40, trials=10)
    res = minimal_k_search(cfg, [1, 40], target=1.0, z=0.0)
    assert res.reached and res.chosen_k <= 40
    assert res.rows[-1][1] == 1.0


def test_minimal_k_search_generic_path_matches_fast():
    # force the generic reruns through a non-nested method and compare curves
    base = dict(
        n=40,
        criterion="cover-seed",
        trials=30,
        master_seed=9,
        seed_n=None,
        seed_edges=((0, 1), (1, 2)),
    )
    fast = minimal_k_search(
        ExperimentConfig(method="psi", params={"K": 1}, **base), [2, 6, 40], 0.5
    )
    slow_rows = []
    for k in (2, 6, 40):
        cfg_k = ExperimentConfig(method="psi", params={"K": k}, **base)
        slow_rows.append(run_experiment(cfg_k).successes / 30)
    assert [p for _, p, _, _ in fast.rows] == slow_rows


# (method, criterion, seed edges, fixed params): every criterion each
# K-indexed method allows
_SWEEPABLE = [
    ("psi", "root-in-set", ((0, 1), (1, 2)), {}),
    ("psi", "intersect", ((0, 1), (1, 2)), {}),
    ("psi", "cover-seed", ((0, 1), (1, 2)), {}),
    ("phi", "root-in-set", ((0, 1), (1, 2)), {}),
    ("phi", "intersect", ((0, 1), (1, 2)), {}),
    ("phi", "cover-seed", ((0, 1), (1, 2)), {}),
    ("dfs-cover", "cover-seed", ((0, 1), (1, 2), (2, 3)), {"k_star": 6, "eps": 0.3}),
    ("dfs-cover", "intersect", ((0, 1), (1, 2), (2, 3)), {"k_star": 6, "eps": 0.3}),
    ("skeleton-leaves", "cover-leaves", ((0, 1), (1, 2), (0, 3), (3, 4)), {}),
    ("skeleton-leaves", "intersect", ((0, 1), (1, 2), (0, 3), (3, 4)), {}),
]


@pytest.mark.parametrize("method,criterion,seed_edges,params", _SWEEPABLE)
def test_minimal_k_search_matches_per_k_experiments(method, criterion, seed_edges, params):
    """The single run at the largest K, counted per K, equals one full
    experiment per K, and does not depend on the number of jobs."""
    grid = [1, 2, 3, 5, 8, 40]
    base = dict(
        n=90,
        method=method,
        criterion=criterion,
        trials=16,
        master_seed=21,
        seed_edges=seed_edges,
    )
    serial = minimal_k_search(ExperimentConfig(params=params, **base), grid, 0.5)
    reference = [
        run_experiment(ExperimentConfig(params={**params, "K": k}, **base)).successes
        for k in grid
    ]
    assert [round(p * 16) for _, p, _, _ in serial.rows] == reference
    parallel = minimal_k_search(ExperimentConfig(params=params, jobs=2, **base), grid, 0.5)
    assert parallel == serial


@pytest.mark.parametrize(
    "method,params",
    [
        ("star", {"m": 2, "m_prime": 3}),
        ("mle-root", {}),
        ("mle-seed", {"k": 3, "ell": 2}),
    ],
)
def test_minimal_k_search_rejects_methods_without_k(method, params):
    cfg = _cfg(
        method=method,
        criterion="intersect",
        params=params,
        seed_n=None,
        seed_edges=((0, 1), (1, 2)),
    )
    with pytest.raises(ConfigError, match=f"{method!r} has no K parameter"):
        minimal_k_search(cfg, [1, 2, 50], 0.5)


def test_validate_checks_estimator_params_before_growing(monkeypatch):
    from seedtrace import harness

    def no_growth(*args, **kwargs):
        raise AssertionError("a tree was grown")

    monkeypatch.setattr(harness, "generate", no_growth)
    star = _cfg(method="star", criterion="intersect", params={"m": 2, "mprime": 3},
                seed_n=None, seed_edges=((0, 1), (0, 2), (0, 3)))
    with pytest.raises(ConfigError, match="missing 'm_prime'"):
        star.validate()
    _cfg(params={}).validate()  # a K sweep supplies K itself
    with pytest.raises(ConfigError, match="missing 'K'"):
        run_experiment(_cfg(params={}))
    with pytest.raises(ConfigError, match="missing 'k_star'"):
        run_experiment(_cfg(method="dfs-cover", criterion="intersect",
                            params={"eps": 0.2, "K": 4}))
    with pytest.raises(ConfigError, match="'K' must be int"):
        run_experiment(_cfg(params={"K": "abc"}))


def test_minimal_k_search_validation():
    with pytest.raises(ConfigError, match="non-empty"):
        minimal_k_search(_cfg(), [], 0.5)
    with pytest.raises(ConfigError, match=">= 1"):
        minimal_k_search(_cfg(), [0, 3], 0.5)
    with pytest.raises(ConfigError, match="target"):
        minimal_k_search(_cfg(), [3], 1.5)


def test_curve_csv_and_svg():
    cfg = _cfg(trials=10)
    res = minimal_k_search(cfg, [2, 8], target=0.5)
    buf = io.StringIO()
    write_curve_csv(res, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "K,p_hat,ci_lo,ci_hi"
    assert len(lines) == 3
    svg = io.StringIO()
    write_curve_svg(res, svg)
    body = svg.getvalue()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
    assert "polyline" in body


def test_larger_seed_needs_no_bigger_k():
    """Intersecting a 3-vertex seed is no harder than hitting the 1-vertex
    root at the same set sizes (common random numbers per config)."""
    grid = [1, 2, 4, 8, 16, 32, 64]
    root_cfg = _cfg(n=2000, trials=120, master_seed=11)
    seed_cfg = ExperimentConfig(
        n=2000,
        method="psi",
        criterion="intersect",
        trials=120,
        master_seed=11,
        params={"K": 1},
        seed_n=None,
        seed_edges=((0, 1), (1, 2)),
    )
    root_curve = minimal_k_search(root_cfg, grid, target=0.8)
    seed_curve = minimal_k_search(seed_cfg, grid, target=0.8)
    assert root_curve.reached and seed_curve.reached
    assert seed_curve.chosen_k <= root_curve.chosen_k


def test_distribution_check_dirichlet_small():
    res = distribution_check(
        "dirichlet-marginal", {"n": 2000, "trials": 300, "threshold": 0.12}
    )
    assert isinstance(res, CheckResult)
    assert res.passed, res.statistic
    assert res.details["reference"] == "Beta(1,2)"


def test_distribution_check_spacings_small():
    res = distribution_check("spacings", {"samples": 800})
    assert res.passed, res.statistic
    assert res.details["k"] == 6 and res.details["j"] == 3


def test_distribution_check_conditional_small():
    res = distribution_check(
        "conditional-urrt", {"n": 14, "cond_size": 3, "trials": 800}
    )
    assert res.passed, res.details
    assert res.details["conditioned_samples"] > 50
    assert sum(res.details["counts"]) == res.details["conditioned_samples"]


def test_distribution_check_naked_leaf_small():
    res = distribution_check("naked-leaf", {"trials": 2000})
    assert res.passed, res.details
    assert math.isclose(res.details["expected"], 0.25)


def test_distribution_check_unknown_kind():
    with pytest.raises(ConfigError, match="unknown check kind"):
        distribution_check("nope")


def test_distribution_check_json():
    res = distribution_check("naked-leaf", {"trials": 500})
    d = res.to_json()
    assert set(d) == {"kind", "statistic", "threshold", "passed", "details"}
    json.dumps(d)  # must be serializable
