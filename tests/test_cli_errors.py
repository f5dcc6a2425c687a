"""Which errors the command line reports as input errors (exit 3): only
the refusals of bad input.  Any other exception, a ValueError included,
is a bug and escapes main."""

import json

import numpy as np
import pytest

from nblifts import cli, experiments
from nblifts.cli import main
from nblifts.graphs import ArgumentError, complete_graph, cycle_graph, \
    save_graph
from nblifts.magnify import check_magnifier_args, is_pseudo_magnifier
from nblifts.tangles import TangleQuery, check_scan_caps


@pytest.fixture
def k4_path(tmp_path):
    path = tmp_path / "k4.json"
    save_graph(complete_graph(4), path)
    return str(path)


@pytest.fixture
def c30_path(tmp_path):
    path = tmp_path / "c30.json"
    save_graph(cycle_graph(30), path)
    return str(path)


def _refused(capsys, argv, message):
    """main(argv) returns 3 and prints the config error message alone."""
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def _bug(*args, **kwargs):
    raise ValueError("a programming error inside a command")


def test_value_error_inside_a_trial_escapes_experiment(tmp_path, k4_path,
                                                       monkeypatch, capsys):
    def failing_trial(*args):
        raise ValueError("a programming error inside a trial")

    monkeypatch.setattr(experiments, "run_trial", failing_trial)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"base": k4_path, "degrees": [6], "trials": 2,
                                "epsilon": 0.2, "seed": 1}))
    with pytest.raises(ValueError, match="a programming error inside a trial"):
        main(["experiment", "--config", str(path)])
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("target, argv", [
    ("sample_lift", ["sample", "--n", "3"]),
    ("spectral_report", ["spectrum", "--n", "3"]),
    ("scan_tangles", ["tangle-scan", "--nu", "1.8", "--r", "3"]),
    ("is_pseudo_magnifier", ["magnify-check", "--gamma", "0.1"]),
    ("_lemma_rows", ["verify-lemmas", "--max-n", "4"]),
])
def test_value_error_inside_a_command_escapes_main(k4_path, monkeypatch,
                                                   capsys, target, argv):
    monkeypatch.setattr(cli, target, _bug)
    flag = "--base" if argv[0] in ("sample", "spectrum") else "--graph"
    if argv[0] != "verify-lemmas":
        argv = argv + [flag, k4_path]
    with pytest.raises(ValueError, match="a programming error"):
        main(argv)
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("caps, message", [
    (["--max-vertices", "0"], "caps must be positive"),
    (["--max-subgraphs", "0"], "caps must be positive"),
    (["--max-subgraphs=-3"], "caps must be positive"),
    (["--max-vertices", "13"], "max_vertices capped at 12 (canonical forms "
                                "would blow up factorially)"),
])
def test_tangle_scan_refuses_bad_caps(k4_path, capsys, caps, message):
    _refused(capsys, ["tangle-scan", "--graph", k4_path, "--nu", "1.8",
                      "--r", "3"] + caps, message)


@pytest.mark.parametrize("args, message", [
    (["--gamma", "0"], "gamma must be positive"),
    (["--gamma=-1"], "gamma must be positive"),
    (["--gamma", "0.1", "--R", "0"], "R must be at least 1"),
    (["--gamma", "0.1", "--trials", "0"], "trials must be at least 1"),
    (["--gamma", "0.1", "--mode", "exhaustive"],
     "exhaustive magnification capped at 20 vertices"),
])
def test_magnify_check_refuses_bad_arguments(c30_path, capsys, args, message):
    _refused(capsys, ["magnify-check", "--graph", c30_path] + args, message)


@pytest.mark.parametrize("option", [["--trials", "5"], ["--seed", "9"],
                                    ["--trials", "200", "--seed", "0"]],
                         ids=lambda option: " ".join(option))
def test_magnify_check_exhaustive_refuses_the_sampled_options(tmp_path, capsys,
                                                              option):
    # each was dropped unread: the output was the run without them, exit 0
    path = tmp_path / "c12.json"
    save_graph(cycle_graph(12), path)
    _refused(capsys, ["magnify-check", "--graph", str(path), "--gamma", "0.1",
                      "--mode", "exhaustive"] + option,
             f"{option[0]} is a sampled-mode option; --mode exhaustive "
             "takes only --R and --gamma")


def test_magnify_check_sampled_reads_trials_and_seed(tmp_path, capsys):
    path = tmp_path / "c12.json"
    save_graph(cycle_graph(12), path)
    assert main(["magnify-check", "--graph", str(path), "--gamma", "0.5",
                 "--mode", "sampled", "--trials", "5", "--seed", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = is_pseudo_magnifier(cycle_graph(12), 1, 0.5, mode="sampled",
                                 trials=5, seed=9)
    assert (payload["holds"], payload["trials"], payload["best_gamma_seen"],
            payload["witness"]) == (result.holds, result.trials,
                                    result.best_gamma, sorted(result.witness))


@pytest.mark.parametrize("option", [["--trials", "5"], ["--seed", "9"]],
                         ids=lambda option: " ".join(option))
def test_magnify_check_auto_on_a_small_graph_refuses_the_sampled_options(
        tmp_path, capsys, option):
    # auto runs the exhaustive check up to 20 vertices, so both were dropped
    # unread, exit 0
    path = tmp_path / "c12.json"
    save_graph(cycle_graph(12), path)
    _refused(capsys, ["magnify-check", "--graph", str(path), "--gamma", "0.1",
                      "--mode", "auto"] + option,
             f"{option[0]} is a sampled-mode option; --mode exhaustive "
             "takes only --R and --gamma (--mode auto runs exhaustive on at "
             "most 20 vertices)")


def test_magnify_check_auto_on_a_large_graph_reads_trials_and_seed(c30_path,
                                                                   capsys):
    assert main(["magnify-check", "--graph", c30_path, "--gamma", "0.5",
                 "--mode", "auto", "--trials", "5", "--seed", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = is_pseudo_magnifier(cycle_graph(30), 1, 0.5, mode="sampled",
                                 trials=5, seed=9)
    assert payload["mode"] == "sampled"
    assert (payload["holds"], payload["trials"], payload["best_gamma_seen"],
            payload["witness"]) == (result.holds, result.trials,
                                    result.best_gamma,
                                    sorted(result.witness)
                                    if result.witness else None)


def test_spectrum_with_an_empty_base_path_exits_3(capsys):
    # "" is a given --base: it used to run graph mode with no graph and
    # escape main as a TypeError
    assert main(["spectrum", "--base", ""]) == 3
    assert "No such file or directory: ''" in capsys.readouterr().err


def test_magnify_check_exhaustive_at_the_cap_runs(tmp_path, capsys):
    path = tmp_path / "c20.json"
    save_graph(cycle_graph(20), path)
    assert main(["magnify-check", "--graph", str(path), "--gamma", "0.1",
                 "--mode", "exhaustive"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["mode"], payload["trials"]) == ("exhaustive", 1 << 20)


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "4"],
    ["spectrum", "--n", "4"],
    ["magnify-check", "--gamma", "0.1", "--mode", "sampled"],
])
@pytest.mark.parametrize("seed, message", [
    ("-1", "argument --seed: must be non-negative, got '-1'"),
    ("1.5", "argument --seed: invalid int value: '1.5'"),
])
def test_seed_is_refused_by_the_parser(k4_path, capsys, argv, seed, message):
    flag = "--graph" if argv[0] == "magnify-check" else "--base"
    with pytest.raises(SystemExit) as err:
        main(argv + [flag, k4_path, f"--seed={seed}"])
    assert err.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command", ["graph", "config"])
def test_a_file_that_is_not_utf8_text_exits_3(tmp_path, capsys, command):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00\x01")
    argv = (["spectrum", "--graph", str(path)] if command == "graph"
            else ["experiment", "--config", str(path)])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: 'utf-8' codec can't decode")


def _value_error_text(thunk):
    """The text of the ValueError that thunk() raises."""
    with pytest.raises(ValueError) as err:
        thunk()
    return str(err.value)


@pytest.mark.parametrize("command", ["graph", "config"])
def test_an_integer_past_the_digit_limit_exits_3(tmp_path, capsys, command):
    big = "9" * 5000
    path = tmp_path / "big.json"
    if command == "graph":
        path.write_text('{"n": %s, "edges": []}' % big)
        argv = ["spectrum", "--graph", str(path)]
    else:
        path.write_text('{"degrees": [4], "trials": %s}' % big)
        argv = ["experiment", "--config", str(path)]
    _refused(capsys, argv, _value_error_text(lambda: int(big)))


@pytest.mark.parametrize("argv", [
    ["sample", "--n", str(10 ** 20)],
    ["spectrum", "--n", str(10 ** 20)],
    ["sample", "--n", str(1 << 62)],
])
def test_a_degree_numpy_cannot_index_exits_3(k4_path, capsys, argv):
    n = int(argv[2])
    message = _value_error_text(lambda: np.empty((12, n), dtype=np.int64))
    _refused(capsys, argv + ["--base", k4_path], message)


def test_an_experiment_degree_numpy_cannot_index_exits_3(tmp_path, k4_path,
                                                         capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"base": k4_path, "degrees": [10 ** 20],
                                "trials": 1, "epsilon": 0.1}))
    message = _value_error_text(
        lambda: np.empty((12, 10 ** 20), dtype=np.int64))
    _refused(capsys, ["experiment", "--config", str(path)], message)


def test_a_decoding_error_inside_a_command_escapes_main(k4_path, monkeypatch,
                                                        capsys):
    def decoding_bug(*args):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "a decoding bug")

    monkeypatch.setattr(cli, "sample_lift", decoding_bug)
    with pytest.raises(UnicodeDecodeError, match="a decoding bug"):
        main(["sample", "--base", k4_path, "--n", "3"])
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("thunk, message", [
    (lambda: TangleQuery(nu=float("nan"), r=3), "nu must be finite"),
    (lambda: TangleQuery(nu=1.8, r=0), "r must be at least 1"),
    (lambda: check_scan_caps(0, 10), "caps must be positive"),
    (lambda: check_magnifier_args(1, 0.1, "sampled", 0),
     "trials must be at least 1"),
    (lambda: is_pseudo_magnifier(cycle_graph(30), 1, 0.1, mode="exhaustive"),
     "exhaustive magnification capped at 20 vertices"),
])
def test_library_argument_refusals_are_argument_errors(thunk, message):
    with pytest.raises(ArgumentError, match=message) as err:
        thunk()
    assert isinstance(err.value, ValueError)  # callers catching it still do
