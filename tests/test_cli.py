import json
import os
import subprocess
import sys

import pytest

import nblifts
from nblifts.cli import main
from nblifts.experiments import ExperimentConfig, conditioned_rows, \
    run_experiment
from nblifts.graphs import bouquet, complete_graph, cycle_graph, from_pairs, \
    load_graph, save_graph


@pytest.fixture
def k4_path(tmp_path):
    path = tmp_path / "k4.json"
    save_graph(complete_graph(4), path)
    return str(path)


def test_sample_writes_cover(tmp_path, k4_path, capsys):
    out = tmp_path / "cover.json"
    rc = main(["sample", "--base", k4_path, "--n", "3", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["vertices"] == 12
    summary = json.loads(capsys.readouterr().out)
    assert summary["cover_vertices"] == 12


@pytest.mark.parametrize("base, n, seeds, expected", [
    # covers of one whole-loop are unions of cycles
    (bouquet(1), 4, range(6), {True, False}),
    (complete_graph(4), 5, range(2), {True}),
])
def test_sample_connected_matches_the_written_cover(tmp_path, capsys, base,
                                                    n, seeds, expected):
    """"connected" comes from the holonomy; it must agree with a search
    over the cover the command writes."""
    base_path = tmp_path / "base.json"
    save_graph(base, base_path)
    out = tmp_path / "cover.json"
    flags = set()
    for seed in seeds:
        rc = main(["sample", "--base", str(base_path), "--n", str(n),
                   "--seed", str(seed), "--out", str(out)])
        assert rc == 0
        connected = json.loads(capsys.readouterr().out)["connected"]
        assert connected == load_graph(out).is_connected()
        flags.add(connected)
    assert flags == expected


def test_sample_rejects_bad_parity(tmp_path, capsys):
    path = tmp_path / "half.json"
    save_graph(bouquet(0, 3), path)
    rc = main(["sample", "--base", str(path), "--model", "permutation",
               "--half-loop", "matching", "--n", "3"])
    assert rc == 3


def test_spectrum_single_graph(k4_path, capsys):
    rc = main(["spectrum", "--graph", k4_path])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regular_degree"] == 3
    assert payload["ramanujan"] is True
    assert payload["ihara"]["passed"] is True


def test_spectrum_lift_mode(k4_path, capsys):
    rc = main(["spectrum", "--base", k4_path, "--n", "4", "--seed", "2",
               "--epsilon", "0.2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["non_alon_count"] == 0
    assert len(payload["new_adjacency"]["values"]) == 12


def test_spectrum_on_an_edgeless_graph_exits_0(tmp_path, capsys):
    # 0-regular: no bound 2 sqrt(d-1) exists, so the counts are null, as
    # for a non-regular graph
    path = tmp_path / "edgeless.json"
    save_graph(from_pairs(2, []), path)
    assert main(["spectrum", "--graph", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regular_degree"] == 0 and "ramanujan" not in payload
    assert payload["ihara"]["passed"] is True
    assert main(["spectrum", "--base", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["non_alon_count"] is None
    assert payload["ramanujan_base"] is None


def test_spectrum_prints_an_empty_new_hashimoto_spectrum(k4_path, capsys):
    assert main(["spectrum", "--base", k4_path, "--n", "1",
                 "--hashimoto"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["new_adjacency"]["values"] == []
    assert payload["new_hashimoto"] == payload["new_adjacency"]
    assert len(payload["hashimoto"]["values"]) == 12


def test_spectrum_requires_input(capsys):
    with pytest.raises(SystemExit) as err:
        main(["spectrum"])
    assert err.value.code == 3


def test_tangle_scan_cli(tmp_path, capsys):
    path = tmp_path / "g.json"
    from nblifts.graphs import from_pairs
    save_graph(from_pairs(4, [(0, 0), (0, 0), (1, 2), (2, 3), (3, 1)]), path)
    rc = main(["tangle-scan", "--graph", str(path), "--nu", "1.7",
               "--r", "2", "--strict"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"]


def test_magnify_check_cli(k4_path, capsys):
    rc = main(["magnify-check", "--graph", k4_path, "--gamma", "1.0",
               "--mode", "exhaustive"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["best_gamma_seen"] >= 1.0


@pytest.mark.parametrize("mode", ["sampled", "exhaustive", "auto"])
def test_magnify_check_refuses_r_above_half_the_vertices(k4_path, capsys,
                                                         mode):
    # no vertex set of K4 has 3 <= |U| <= 2, so the check would be vacuous
    rc = main(["magnify-check", "--graph", k4_path, "--R", "3",
               "--gamma", "0.1", "--mode", mode])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--R 3 is above |V|/2 = 2" in captured.err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_magnify_check_refuses_nonpositive_trials(tmp_path, capsys, trials):
    path = tmp_path / "c30.json"
    save_graph(cycle_graph(30), path)
    rc = main(["magnify-check", "--graph", str(path), "--gamma", "0.5",
               "--trials", trials])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials must be at least 1" in captured.err


@pytest.mark.parametrize("command, option, value", [
    ("tangle-scan", "--nu", "nan"),
    ("tangle-scan", "--nu", "inf"),
    ("spectrum-lift", "--epsilon", "nan"),
    ("spectrum-lift", "--epsilon", "-inf"),
    ("spectrum-lift", "--tol", "nan"),
    ("spectrum-graph", "--tol", "inf"),
    ("magnify-check", "--gamma", "nan"),
    ("magnify-check", "--gamma", "1e999"),
])
def test_non_finite_real_options_exit_3(k4_path, capsys, command, option,
                                        value):
    argv = {
        "tangle-scan": ["tangle-scan", "--graph", k4_path, "--r", "2"],
        "spectrum-lift": ["spectrum", "--base", k4_path],
        "spectrum-graph": ["spectrum", "--graph", k4_path],
        "magnify-check": ["magnify-check", "--graph", k4_path],
    }[command] + [f"{option}={value}"]  # "=" lets "-inf" parse as a value
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be finite" in captured.err


@pytest.mark.parametrize("command, option, value", [
    ("spectrum-lift", "--epsilon", "-1"),
    ("spectrum-lift", "--epsilon", "0"),
    ("spectrum-graph", "--tol", "-1"),
    ("spectrum-graph", "--tol", "0"),
])
def test_nonpositive_margins_exit_3(k4_path, capsys, command, option, value):
    # a negative epsilon counted pulled-back eigenvalues as non-Alon, and a
    # tolerance of zero failed the Ihara check on a 7.8e-16 error, exit 0
    argv = {
        "spectrum-lift": ["spectrum", "--base", k4_path],
        "spectrum-graph": ["spectrum", "--graph", k4_path],
    }[command] + [f"{option}={value}"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be positive" in captured.err


@pytest.mark.parametrize("r", ["0", "-1"])
def test_tangle_scan_refuses_r_below_one(k4_path, capsys, r):
    # no graph has order below 0, so the scan reported "no tangles" unseen
    rc = main(["tangle-scan", "--graph", k4_path, "--nu", "1.8",
               f"--r={r}"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "r must be at least 1" in captured.err


@pytest.mark.parametrize("max_n", ["1", "0", "-1"])
def test_verify_lemmas_refuses_max_n_below_two(capsys, max_n):
    # the exhaustive rows passed with no case checked
    rc = main(["verify-lemmas", f"--max-n={max_n}"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-n must be at least 2" in captured.err


def test_verify_lemmas_cli(capsys):
    rc = main(["verify-lemmas", "--max-n", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_experiment_cli(tmp_path, k4_path, capsys):
    cfg = {
        "base": k4_path,
        "model": {"model": "permutation", "half_loop": None},
        "degrees": [2, 3],
        "trials": 3,
        "epsilon": 0.2,
        "seed": 5,
        "tangle": {"nu": 1.2, "r": 3, "max_vertices": 5,
                   "max_subgraphs": 500},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_prefix = str(tmp_path / "report")
    rc = main(["experiment", "--config", str(cfg_path), "--out", out_prefix,
               "--conditioned"])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["rows"]) == 2
    assert "conditioned_rows" in report
    assert (tmp_path / "report.csv").read_text().startswith("n,trials")


def test_experiment_bad_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    assert main(["experiment", "--config", str(cfg_path)]) == 3
    cfg_path.write_text(json.dumps({"degrees": [2]}))
    assert main(["experiment", "--config", str(cfg_path)]) == 3


def test_missing_graph_file():
    assert main(["spectrum", "--graph", "/nonexistent/g.json"]) == 3


def test_experiment_magnifier_without_gamma_exits_3(tmp_path, k4_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "base": k4_path, "degrees": [2], "trials": 1, "epsilon": 0.2,
        "magnifier": {"R": 2}}))
    assert main(["experiment", "--config", str(cfg_path)]) == 3


def test_experiment_non_regular_base_exits_3(tmp_path, capsys, monkeypatch):
    from nblifts import experiments
    base_path = tmp_path / "base.json"
    save_graph(from_pairs(2, [(0, 1), (0, 1), (0, 1), (0, 0)]), base_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "base": str(base_path), "degrees": [10, 20], "trials": 20,
        "epsilon": 0.1, "seed": 1}))
    trials = []
    monkeypatch.setattr(experiments, "run_trial",
                        lambda *args: trials.append(args))
    assert main(["experiment", "--config", str(cfg_path)]) == 3
    assert "d-regular base" in capsys.readouterr().err
    assert not trials


def test_experiment_disconnected_base_exits_3(tmp_path, capsys, monkeypatch):
    from nblifts import experiments
    base_path = tmp_path / "two_k4.json"
    save_graph(from_pairs(8, [(i + s, j + s) for s in (0, 4)
                              for i in range(4) for j in range(i + 1, 4)]),
               base_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "base": str(base_path), "degrees": [2, 3], "trials": 5,
        "epsilon": 0.2, "seed": 1}))
    trials = []
    monkeypatch.setattr(experiments, "run_trial",
                        lambda *args: trials.append(args))
    assert main(["experiment", "--config", str(cfg_path)]) == 3
    assert "the base must be connected" in capsys.readouterr().err
    assert not trials


def test_experiment_refuses_a_vacuous_magnifier_window(tmp_path, k4_path,
                                                       capsys, monkeypatch):
    from nblifts import experiments
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "base": k4_path, "degrees": [1, 2], "trials": 2, "epsilon": 0.2,
        "magnifier": {"R": 5, "gamma": 0.1, "mode": "sampled"}}))
    trials = []
    monkeypatch.setattr(experiments, "run_trial",
                        lambda *args: trials.append(args))
    assert main(["experiment", "--config", str(cfg_path)]) == 3
    assert "R 5 is above |V|/2 = 2" in capsys.readouterr().err
    assert not trials


def test_experiment_fractional_trials_exits_3(tmp_path, k4_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "base": k4_path, "degrees": [2], "trials": 3.9, "epsilon": 0.2}))
    assert main(["experiment", "--config", str(cfg_path)]) == 3
    assert "trials must be an integer" in capsys.readouterr().err


def test_experiment_string_strict_exits_3(tmp_path, k4_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "base": k4_path, "degrees": [2], "trials": 1, "epsilon": 0.2,
        "tangle": {"nu": 1.8, "r": 2, "strict": "false"}}))
    assert main(["experiment", "--config", str(cfg_path)]) == 3
    assert "strict must be true or false" in capsys.readouterr().err


def test_experiment_bytes_equal_across_processes(tmp_path, k4_path):
    # the report must not depend on string hashing or anything else that
    # varies between interpreter runs
    cfg = {
        "base": k4_path,
        "degrees": [6, 10, 20],
        "trials": 3,
        "epsilon": 0.2,
        "seed": 9,
        "tangle": {"nu": 1.8, "r": 3, "max_vertices": 5,
                   "max_subgraphs": 300},
        "magnifier": {"gamma": 0.1, "R": 2, "mode": "sampled",
                      "trials": 20},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    src = os.path.dirname(os.path.dirname(nblifts.__file__))
    outputs = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        prefix = str(tmp_path / f"report{hashseed}")
        subprocess.run(
            [sys.executable, "-m", "nblifts.cli", "experiment",
             "--config", str(cfg_path), "--out", prefix, "--conditioned"],
            env=env, check=True, capture_output=True)
        outputs.append([open(prefix + ext, "rb").read()
                        for ext in (".json", ".csv")])
    assert outputs[0] == outputs[1]


def test_experiment_repeated_degree_exits_3(tmp_path, k4_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "base": k4_path, "degrees": [10, 10, 20], "trials": 3,
        "epsilon": 0.2}))
    assert main(["experiment", "--config", str(cfg_path)]) == 3
    assert "cover degrees must be distinct" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_experiment_non_finite_epsilon_exits_3(tmp_path, k4_path, capsys,
                                               literal):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        f'{{"base": {json.dumps(k4_path)}, "degrees": [2], "trials": 1, '
        f'"epsilon": {literal}}}')
    assert main(["experiment", "--config", str(cfg_path)]) == 3
    assert "epsilon must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("typo", [
    {"sed": 5},
    {"tangle": {"nu": 1.8, "r": 2, "max_vertex": 3}},
    {"model": {"modle": "cyclic"}},
])
def test_experiment_unknown_key_exits_3(tmp_path, k4_path, capsys, typo):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        {"base": k4_path, "degrees": [2], "trials": 1, "epsilon": 0.2},
        **typo)))
    assert main(["experiment", "--config", str(cfg_path)]) == 3
    assert "unknown keys" in capsys.readouterr().err


def test_spectrum_skips_ihara_above_dense_cap(k4_path, monkeypatch, capsys):
    from nblifts import spectral
    from nblifts.spectral import ihara_check
    monkeypatch.setattr(spectral, "DENSE_HASHIMOTO_CAP", 8)  # K4 has 12
    res = ihara_check(complete_graph(4))
    assert (res.status, res.passed, res.max_err) == (
        "skipped-too-large", None, None)
    assert main(["spectrum", "--graph", k4_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ihara"]["status"] == "skipped-too-large"
    assert payload["mu1"] == pytest.approx(2.0)  # exact: K4 is 3-regular


@pytest.mark.parametrize("command", [
    ["spectrum"],
    ["tangle-scan", "--nu", "1.8", "--r", "3", "--max-vertices", "6"],
])
def test_out_file_equals_stdout(tmp_path, capsys, command):
    cover = tmp_path / "cover.json"
    save_graph(bouquet(2), tmp_path / "b2.json")
    assert main(["sample", "--base", str(tmp_path / "b2.json"), "--n", "5",
                 "--seed", "3", "--out", str(cover)]) == 0
    argv = command + ["--graph", str(cover)]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == stdout


def _experiment_config(tmp_path, k4_path, **extra):
    cfg = dict({"base": k4_path, "degrees": [4, 6], "trials": 3,
                "epsilon": 0.2, "seed": 3,
                "tangle": {"nu": 1.8, "r": 3, "max_vertices": 5,
                           "max_subgraphs": 200},
                "magnifier": {"gamma": 0.1, "R": 2, "mode": "sampled",
                              "trials": 10}}, **extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path), ExperimentConfig.from_json(cfg)


def test_experiment_without_out_prints_the_report(tmp_path, k4_path, capsys):
    path, cfg = _experiment_config(tmp_path, k4_path)
    assert main(["experiment", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out) == run_experiment(cfg).to_json()


def test_conditioned_without_tangle_query_exits_3(tmp_path, k4_path, capsys):
    path, _ = _experiment_config(tmp_path, k4_path, tangle=None)
    assert main(["experiment", "--config", path, "--conditioned"]) == 3
    assert "--conditioned requires a tangle query in the config" in \
        capsys.readouterr().err


def test_spectral_error_in_subcommand_exits_2(k4_path, monkeypatch, capsys):
    from nblifts import cli
    from nblifts.spectral import SpectralError

    def failing(g):
        raise SpectralError("no convergence")

    monkeypatch.setattr(cli, "mu1", failing)
    assert main(["spectrum", "--graph", k4_path]) == 2
    assert "verification failure: no convergence" in capsys.readouterr().err


@pytest.mark.parametrize("conditioned", [False, True])
def test_experiment_out_bytes_equal_report_dump(tmp_path, k4_path,
                                                conditioned):
    path, cfg = _experiment_config(tmp_path, k4_path)
    flag = ["--conditioned"] if conditioned else []
    prefix = str(tmp_path / "cli")
    assert main(["experiment", "--config", path, "--out", prefix] + flag) == 0
    report = run_experiment(cfg)
    if conditioned:
        report.conditioned = conditioned_rows(cfg, report.records)
    report.dump(tmp_path / "lib.json", tmp_path / "lib.csv")
    for ext in (".json", ".csv"):
        assert (tmp_path / ("cli" + ext)).read_bytes() == \
            (tmp_path / ("lib" + ext)).read_bytes()


@pytest.mark.parametrize("via_config", [False, True])
def test_experiment_missing_out_directory_exits_3_before_any_trial(
        tmp_path, k4_path, monkeypatch, capsys, via_config):
    from nblifts import experiments
    calls = []
    monkeypatch.setattr(experiments, "run_trial",
                        lambda *args: calls.append(args))
    prefix = str(tmp_path / "nodir" / "run")
    if via_config:
        path, _ = _experiment_config(tmp_path, k4_path, output=prefix)
        argv = ["experiment", "--config", path]
    else:
        path, _ = _experiment_config(tmp_path, k4_path)
        argv = ["experiment", "--config", path, "--out", prefix]
    assert main(argv) == 3
    assert calls == []
    assert str(tmp_path / "nodir") in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()


def test_spectrum_graph_with_base_exits_3(k4_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["spectrum", "--graph", k4_path, "--base", k4_path])
    assert err.value.code == 3
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("option", [
    ["--hashimoto"], ["--n", "7"], ["--seed", "1"], ["--epsilon", "0.3"],
    ["--model", "cyclic"], ["--half-loop", "matching"],
], ids=lambda option: option[0])
def test_spectrum_graph_refuses_lift_options(k4_path, capsys, option):
    # each was dropped unread: the output was plain graph mode's, exit 0
    assert main(["spectrum", "--graph", k4_path] + option) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: {option[0]} is a lift-mode "
                            "option; --graph takes only --tol and --out\n")


def test_experiment_non_string_output_exits_3(tmp_path, k4_path, capsys):
    # used to run the whole sweep and then escape main as a TypeError
    path, _ = _experiment_config(tmp_path, k4_path, output=5)
    assert main(["experiment", "--config", path]) == 3
    assert "output must be a path prefix, got 5" in capsys.readouterr().err
