import json

import pytest

from nblifts.cli import main
from nblifts.graphs import bouquet, complete_graph, save_graph


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
