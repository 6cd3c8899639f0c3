import contextlib
import json
import os
import subprocess
import sys

import pytest

from seedtrace import harness
from seedtrace.cli import EXIT_CHECK_FAILED, EXIT_DATA, EXIT_OK, main
from seedtrace.tree import parse_tree, write_tree
from seedtrace import path_tree, spider_tree, star_tree


@pytest.fixture
def seed_file(tmp_path):
    path = tmp_path / "p2.tree"
    write_tree(path_tree(2), str(path))
    return str(path)


def _gen_tree(tmp_path, seed_tree, n, rng_seed=5):
    seed_path = tmp_path / "seed.tree"
    write_tree(seed_tree, str(seed_path))
    out_path = tmp_path / "grown.tree"
    rc = main(
        [
            "gen",
            "--seed-file",
            str(seed_path),
            "--n",
            str(n),
            "--rng-seed",
            str(rng_seed),
            "--out",
            str(out_path),
        ]
    )
    assert rc == EXIT_OK
    return str(out_path)


def test_gen_stdout_and_determinism(seed_file, capsys):
    args = ["gen", "--seed-file", seed_file, "--n", "12", "--rng-seed", "7"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    t = parse_tree(first)
    assert t.n == 12


def test_gen_record_out(seed_file, tmp_path, capsys):
    record_path = tmp_path / "rec.json"
    rc = main(
        [
            "gen",
            "--seed-file",
            seed_file,
            "--n",
            "9",
            "--rng-seed",
            "3",
            "--record-out",
            str(record_path),
        ]
    )
    assert rc == EXIT_OK
    capsys.readouterr()
    rec = json.loads(record_path.read_text())
    assert rec["n"] == 9 and rec["k"] == 2
    assert len(rec["parents"]) == 7
    assert sorted(rec["anonymization"]) == list(range(9))


def test_find_root_psi_on_path(tmp_path, capsys):
    tree_path = tmp_path / "p5.tree"
    write_tree(path_tree(5), str(tree_path))
    rc = main(["find-root", "--tree", str(tree_path), "--method", "psi", "--K", "1"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["members"] == [[2, 2.0]]


def test_find_root_phi_and_mle(tmp_path, capsys):
    tree_path = tmp_path / "s6.tree"
    write_tree(star_tree(6), str(tree_path))
    assert main(["find-root", "--tree", str(tree_path), "--method", "phi", "--K", "2"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["members"][0][0] == 0
    assert main(["find-root", "--tree", str(tree_path), "--method", "mle"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["vertex"] == 0
    assert out["log_likelihood"] < 0


def test_find_seed_methods(tmp_path, capsys):
    grown = _gen_tree(tmp_path, path_tree(4), 80)
    assert main(["find-seed", "--tree", grown, "--method", "psi-cover", "--K", "6"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out["members"]) == 6
    rc = main(
        [
            "find-seed", "--tree", grown, "--method", "dfs",
            "--k", "4", "--ell", "2", "--eps", "0.3", "--K", "200",
        ]
    )
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["k_star"] >= 1 and out["members"]
    rc = main(
        [
            "find-seed", "--tree", grown, "--method", "mle",
            "--k", "2", "--ell", "2",
        ]
    )
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out["placement"]) == 2


@pytest.mark.parametrize("kstar", [None, "3"])
@pytest.mark.parametrize("eps", ["2", "0", "-0.5"])
def test_find_seed_dfs_names_the_eps_it_was_given(tmp_path, capsys, eps, kstar):
    grown = _gen_tree(tmp_path, path_tree(4), 40)
    args = ["find-seed", "--tree", grown, "--method", "dfs", "--k", "4", "--eps", eps]
    if kstar is not None:
        args += ["--kstar", kstar]
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("seedtrace: error: ") and err.count("\n") == 1
    assert f"eps must lie in (0, 1), got {float(eps)}" in err


def test_find_seed_budget_exhaustion(tmp_path, capsys):
    grown = _gen_tree(tmp_path, path_tree(2), 60)
    rc = main(
        [
            "find-seed", "--tree", grown, "--method", "mle",
            "--k", "4", "--ell", "2", "--budget", "5",
        ]
    )
    assert rc == EXIT_DATA


def test_find_leaves(tmp_path, capsys):
    tree_path = tmp_path / "sp.tree"
    write_tree(spider_tree([2, 2, 1]), str(tree_path))
    rc = main(
        ["find-leaves", "--tree", str(tree_path), "--skeleton", "0,1,3", "--K", "3"]
    )
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["skeleton"] == [0, 1, 3]
    assert sorted(v for v, _ in out["members"]) == [2, 4, 5]


def test_find_star(tmp_path, capsys):
    grown = _gen_tree(tmp_path, star_tree(6), 300)
    rc = main(["find-star", "--tree", grown, "--k", "6", "--m", "3", "--mprime", "5"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["target_size"] == 18
    assert 0 < len(out["members"]) <= 18


def test_bounds_prints_58(capsys):
    assert main(["bounds", "--name", "root-psi", "--eps", "0.1"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 58
    assert main(
        ["bounds", "--name", "skeleton", "--k", "6", "--ell", "3", "--eps", "0.1"]
    ) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["value"] == 45


def test_bounds_missing_param_is_data_error(capsys):
    assert main(["bounds", "--name", "root-psi"]) == EXIT_DATA


def test_experiment_run_and_csv(tmp_path, capsys):
    cfg = {
        "n": 50,
        "method": "psi",
        "criterion": "root-in-set",
        "trials": 8,
        "master_seed": 2,
        "params": {"K": 5},
        "seed_n": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csv_path = tmp_path / "out.csv"
    rc = main(["experiment", "--config", str(cfg_path), "--csv", str(csv_path)])
    assert rc == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 8
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("trial_id,n,k,ell,alpha,method,K")
    assert len(lines) == 9


def test_experiment_search_mode(tmp_path, capsys):
    cfg = {
        "n": 80,
        "method": "psi",
        "criterion": "root-in-set",
        "trials": 40,
        "master_seed": 2,
        "params": {"K": 1},
        "seed_n": 1,
        "search": {"grid": [1, 4, 16, 80], "target": 0.5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csv_path = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    rc = main(
        [
            "experiment", "--config", str(cfg_path),
            "--csv", str(csv_path), "--svg", str(svg_path),
        ]
    )
    assert rc == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["reached"] is True
    assert csv_path.read_text().splitlines()[0] == "K,p_hat,ci_lo,ci_hi"
    assert "<svg" in svg_path.read_text()


def test_experiment_bad_config_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["experiment", "--config", str(bad)]) == EXIT_DATA
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"n": 10, "method": "psi"}))
    assert main(["experiment", "--config", str(wrong)]) == EXIT_DATA


_GOOD_CONFIG = {
    "n": 30,
    "method": "psi",
    "criterion": "root-in-set",
    "trials": 2,
    "params": {"K": 3},
    "seed_n": 1,
}


@pytest.mark.parametrize(
    "field,value",
    [
        ("n", "abc"),
        ("alpha", "steep"),
        ("trials", [3]),
        ("master_seed", "seed"),
        ("jobs", "two"),
        ("seed_n", "one"),
        ("seed_edges", [[0, "a"]]),
        ("params", "K=3"),
        ("params", {"K": "three"}),
        ("search", [1, 2]),
        ("search", {"target": 0.5}),
        ("search", {"grid": [], "target": 0.5}),
        ("search", {"grid": ["x"], "target": 0.5}),
        ("search", {"grid": [0, 4], "target": 0.5}),
        ("search", {"grid": [4]}),
        ("search", {"grid": [4], "target": 1.5}),
        ("search", {"grid": [4], "target": "high"}),
        ("search", {"grid": [4], "target": 0.5, "z": "wide"}),
        ("search", {"grid": [4], "target": 0.5, "zz": 1}),
        ("n", 10.9),
        ("n", True),
        ("trials", True),
        ("trials", 2.5),
        ("master_seed", 1.5),
        ("master_seed", False),
        ("seed_n", 1.5),
        ("seed_n", True),
        ("jobs", 1.5),
        ("jobs", True),
        ("seed_file", 0),
        ("seed_file", ["seed.tree"]),
        ("record_runtime", "no"),
        ("record_runtime", 1),
        ("record_runtime", None),
        ("record_runtime", [True]),
        ("alpha", float("nan")),
        ("alpha", float("inf")),
        ("alpha", -1),
        ("alpha", 300),
        ("alpha", True),
        ("search", {"grid": [4], "target": True}),
    ],
)
def test_experiment_malformed_field_is_data_error(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_GOOD_CONFIG, field: value}))
    with _empty_stdin():  # a seed_file of 0 would otherwise read the terminal
        assert main(["experiment", "--config", str(cfg_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("seedtrace: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert field in ("params", "search") or f"'{field}'" in err


def _assert_one_line_error(capsys, *names):
    captured = capsys.readouterr()
    assert captured.err.startswith("seedtrace: error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    for name in names:
        assert name in captured.err


def test_experiment_alpha_300_at_n_2000_is_data_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_GOOD_CONFIG, "n": 2000, "alpha": 300}))
    assert main(["experiment", "--config", str(cfg_path)]) == EXIT_DATA
    _assert_one_line_error(capsys, "'alpha'", "n=2000")


@pytest.mark.parametrize("alpha", ["nan", "inf", "300"])
def test_gen_alpha_without_finite_weights_is_data_error(seed_file, capsys, alpha):
    args = ["gen", "--seed-file", seed_file, "--n", "2000", "--alpha", alpha]
    assert main(args) == EXIT_DATA
    _assert_one_line_error(capsys, "alpha")


def test_summary_with_a_non_finite_number_is_data_error(tmp_path, capsys):
    """allow_nan=False: a NaN that reaches the summary is refused, not printed."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_GOOD_CONFIG, "params": {"K": 3, "note": float("nan")}}))
    assert main(["experiment", "--config", str(cfg_path)]) == EXIT_DATA
    _assert_one_line_error(capsys, "non-finite")


@pytest.mark.parametrize(
    "params,name",
    [
        ({"K": 3, "k_Star": 5}, "'k_Star'"),
        ({"K": 3, "note": 1}, "'note'"),
        ({"K": 3, "budget": 10}, "'budget'"),
    ],
)
def test_experiment_unknown_estimator_param_is_data_error(tmp_path, capsys, params, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_GOOD_CONFIG, "params": params}))
    assert main(["experiment", "--config", str(cfg_path)]) == EXIT_DATA
    _assert_one_line_error(capsys, name)


def test_emit_refuses_a_non_finite_number():
    from seedtrace.cli import _emit

    with pytest.raises(harness.ConfigError, match="non-finite"):
        _emit({"value": float("nan")})


@pytest.mark.parametrize("name", ["star-center", "heart-upper"])
@pytest.mark.parametrize("c", ["nan", "inf", "-inf", "1e308"])
def test_bounds_non_finite_c_is_data_error(capsys, name, c):
    args = ["bounds", "--name", name, "--k", "4", "--eps", "0.01", f"--c={c}"]
    assert main(args) == EXIT_DATA
    _assert_one_line_error(capsys, "parameter c")


def test_non_integer_env_master_seed_is_data_error(seed_file, capsys, monkeypatch):
    monkeypatch.setenv("SEEDTRACE_RNG_SEED", "abc")
    assert main(["gen", "--seed-file", seed_file, "--n", "5"]) == EXIT_DATA
    _assert_one_line_error(capsys, "SEEDTRACE_RNG_SEED")


@pytest.mark.parametrize(
    "kind,params,name",
    [
        ("naked-leaf", {"trials": "abc"}, "'trials'"),
        ("naked-leaf", {"master_seed": "x"}, "'master_seed'"),
        ("naked-leaf", {"trials": True}, "'trials'"),
        ("naked-leaf", {"k": 3.7}, "'k'"),
        ("naked-leaf", {"bogus": 1}, "'bogus'"),
        ("naked-leaf", {"tol": float("nan")}, "'tol'"),
        ("spacings", {"samples": 0}, "'samples'"),
        ("dirichlet-marginal", {"seed_edges": [[0, "a"]]}, "'seed_edges'"),
        ("dirichlet-marginal", {"seed_edges": [[0, 1.5]]}, "'seed_edges'"),
        ("dirichlet-marginal", {"seed_vertex": 3}, "'seed_vertex'"),
        ("conditional-urrt", {"cond_size": "four"}, "'cond_size'"),
    ],
)
def test_check_dist_malformed_param_is_data_error(capsys, kind, params, name):
    args = ["check-dist", "--kind", kind, "--params", json.dumps(params)]
    assert main(args) == EXIT_DATA
    _assert_one_line_error(capsys, name)


def test_find_leaves_malformed_skeleton_is_data_error(tmp_path, capsys):
    tree_path = tmp_path / "sp.tree"
    write_tree(spider_tree([2, 2, 1]), str(tree_path))
    args = ["find-leaves", "--tree", str(tree_path), "--skeleton", "a,b", "--K", "3"]
    assert main(args) == EXIT_DATA
    _assert_one_line_error(capsys, "--skeleton")


@contextlib.contextmanager
def _empty_stdin():
    """File descriptor 0 reads from the null device until the block ends."""
    saved = os.dup(0)
    try:
        with open(os.devnull, "rb") as null:
            os.dup2(null.fileno(), 0)
        yield
    finally:
        os.dup2(saved, 0)
        os.close(saved)


@pytest.mark.parametrize("budget", ["x", 0, -3, 2.5, True, [10]])
def test_experiment_bad_mle_seed_budget_is_data_error(tmp_path, capsys, monkeypatch, budget):
    grown = []
    monkeypatch.setattr(harness, "generate", lambda *a, **k: grown.append(1))
    cfg = {
        "n": 30,
        "method": "mle-seed",
        "criterion": "intersect",
        "trials": 2,
        "params": {"budget": budget},
        "seed_n": 3,
        "seed_edges": [[0, 1], [1, 2]],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "'budget'" in err and err.count("\n") == 1 and "Traceback" not in err
    assert grown == []


def test_experiment_mle_seed_budget_accepts_count_or_null():
    for budget in (None, 1, 10**6, 7.0):
        cfg = harness.ExperimentConfig(
            n=12, method="mle-seed", criterion="intersect", trials=1,
            params={"budget": budget}, seed_n=3, seed_edges=((0, 1), (1, 2)),
        )
        cfg.validate()


def test_experiment_sweep_of_method_without_k_is_data_error(tmp_path, capsys):
    cfg = {
        "n": 40,
        "method": "star",
        "criterion": "intersect",
        "trials": 5,
        "params": {"m": 2, "m_prime": 3},
        "seed_n": 4,
        "seed_edges": [[0, 1], [0, 2], [0, 3]],
        "search": {"grid": [1, 2, 50], "target": 0.5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert "'star'" in captured.err and captured.out == ""


def test_missing_tree_file_is_data_error(tmp_path, capsys):
    rc = main(["find-root", "--tree", str(tmp_path / "absent.tree")])
    assert rc == EXIT_DATA


def test_tree_file_with_too_few_edges_is_data_error(tmp_path, capsys):
    path = tmp_path / "short.tree"
    path.write_text("200000\n0 1\n1 2\n")
    assert main(["find-root", "--tree", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "needs 199999 edges, got 2" in err
    assert "Traceback" not in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["find-root"])  # missing required --tree
    assert exc.value.code == 2


def test_check_dist_pass_and_fail(capsys):
    rc = main(
        [
            "check-dist", "--kind", "naked-leaf",
            "--params", json.dumps({"trials": 1500}),
        ]
    )
    assert rc == EXIT_OK
    capsys.readouterr()
    rc = main(
        [
            "check-dist", "--kind", "naked-leaf",
            "--params", json.dumps({"trials": 1500, "tol": 1e-9}),
        ]
    )
    assert rc == EXIT_CHECK_FAILED
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False


def test_env_var_master_seed(seed_file, capsys, monkeypatch):
    args = ["gen", "--seed-file", seed_file, "--n", "15"]
    monkeypatch.setenv("SEEDTRACE_RNG_SEED", "41")
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first
    monkeypatch.setenv("SEEDTRACE_RNG_SEED", "42")
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out != first
    # explicit flag beats the environment
    monkeypatch.setenv("SEEDTRACE_RNG_SEED", "41")
    assert main(args + ["--rng-seed", "42"]) == EXIT_OK
    flagged = capsys.readouterr().out
    assert flagged != first


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "seedtrace.cli", "bounds", "--name", "root-psi",
         "--eps", "0.1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 58
