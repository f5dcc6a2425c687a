import json
import math

import numpy as np
import pytest

from nblifts.graphs import (
    Graph, bouquet, complete_graph, from_pairs, graph_to_json,
)
from nblifts.lifts import ModelSpec, sample_lift
from nblifts.experiments import (
    ConfigError,
    ExperimentConfig,
    conditioned_nonalon,
    fit_scaling,
    run_experiment,
    run_trial,
    trial_seed,
    wilson_center,
    wilson_interval,
)
from nblifts.tangles import TangleQuery

from helpers import PETERSEN


def small_config(**overrides):
    params = dict(
        base=complete_graph(4),
        model=ModelSpec(),
        degrees=(2, 3),
        trials=5,
        epsilon=0.2,
        seed=7,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(trials=0)
    with pytest.raises(ConfigError):
        small_config(epsilon=0.0)
    with pytest.raises(ConfigError):
        small_config(degrees=())
    with pytest.raises(ConfigError):
        ExperimentConfig(base=bouquet(0, 3),
                         model=ModelSpec("permutation", "near_matching"),
                         degrees=(4,), trials=2, epsilon=0.1, seed=0)


# degrees 5 and 3: used to report nonalon_positive_count 0, a Wilson
# interval and "below detection" although no eigenvalue was tested
NON_REGULAR = from_pairs(2, [(0, 1), (0, 1), (0, 1), (0, 0)])


def test_config_refuses_non_regular_base():
    with pytest.raises(ConfigError, match=r"d-regular base with d >= 1; got "
                                          r"degrees \[3, 5\]"):
        small_config(base=NON_REGULAR, degrees=(10, 20), trials=20,
                     epsilon=0.1, seed=1)
    _refused(r"got degrees \[3, 5\]", base=graph_to_json(NON_REGULAR))
    # no edges: every trial used to fail on sqrt(-1), and then the sweep
    _refused(r"got degrees \[0\]", base=graph_to_json(from_pairs(2, [])))


def test_config_json_roundtrip():
    cfg = small_config(tangle=TangleQuery(nu=1.8, r=2), magnifier={"gamma": 0.2})
    data = cfg.to_json()
    again = ExperimentConfig.from_json(json.loads(json.dumps(data)))
    assert again.degrees == cfg.degrees
    assert again.tangle.nu == pytest.approx(1.8)
    assert again.model == cfg.model


def test_wilson_interval_properties():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert 0 < wilson_center(0, 100) < 0.02


def test_trial_seed_stable():
    assert trial_seed(1, 10, 3) == trial_seed(1, 10, 3)
    assert trial_seed(1, 10, 3) != trial_seed(1, 10, 4)
    assert trial_seed(1, 10, 3) != trial_seed(2, 10, 3)


def test_run_trial_n_one_has_no_new_spectrum():
    cfg = small_config(degrees=(1,), trials=1)
    rec = run_trial(cfg, 1, 0)
    assert rec.non_alon == 0
    assert rec.max_new_abs is None


def test_run_experiment_counts_consistent():
    cfg = small_config(degrees=(2, 4), trials=8,
                       tangle=TangleQuery(nu=1.2, r=3))
    report = run_experiment(cfg)
    for row in report.rows:
        assert row["trials"] == 8 and row["failed"] == 0
        assert row["nonalon_and_tanglefree_count"] <= min(
            row["nonalon_positive_count"],
            row["trials"] - row["hastangles_count"])
        assert row["mean_lambda2"] is not None
    # d=3 and eps=0.2 puts the threshold above d, so nothing can exceed it
    assert any("below detection" in note for note in report.notes)


def test_disconnected_trials_are_flagged():
    # permutation lifts of the bouquet with 2 whole-loops disconnect often
    cfg = ExperimentConfig(base=bouquet(2), model=ModelSpec(),
                           degrees=(4,), trials=40, epsilon=0.1, seed=3)
    report = run_experiment(cfg)
    row = report.rows[0]
    if row["disconnected_count"]:
        assert row["disconnected_with_eigenvalue_at_d"] == row["disconnected_count"]


def test_fit_scaling_planted_decay():
    rows = [{"n": n, "nonalon_positive_count": round(2000 / n), "trials": 2000}
            for n in (10, 20, 40, 80)]
    fit = fit_scaling(rows)
    assert fit["status"] == "ok"
    assert fit["slope"] == pytest.approx(-1.0, abs=0.12)


def test_fit_scaling_constant():
    rows = [{"n": n, "nonalon_positive_count": 200, "trials": 2000}
            for n in (10, 20, 40, 80)]
    fit = fit_scaling(rows)
    assert abs(fit["slope"]) < 0.05


def test_fit_scaling_indeterminate():
    rows = [{"n": n, "nonalon_positive_count": 0, "trials": 100}
            for n in (10, 20, 40)]
    assert fit_scaling(rows)["status"] == "indeterminate"


def test_determinism_byte_identical(tmp_path):
    cfg = small_config(trials=4, tangle=TangleQuery(nu=1.2, r=3),
                       magnifier={"gamma": 0.05, "mode": "sampled", "trials": 10})
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(cfg).dump(p1, c1)
    run_experiment(cfg).dump(p2, c2)
    assert p1.read_bytes() == p2.read_bytes()
    assert c1.read_bytes() == c2.read_bytes()


def test_conditioned_nonalon_rows():
    cfg = small_config(degrees=(2, 3), trials=6,
                       tangle=TangleQuery(nu=1.2, r=3))
    rows = conditioned_nonalon(cfg)
    assert len(rows) == 2
    for row in rows:
        assert row["tanglefree_trials"] <= 6
        if not row["empty"]:
            assert 0.0 <= row["frequency"] <= 1.0
    with pytest.raises(ConfigError):
        conditioned_nonalon(small_config())


def test_hastangles_frequency_decays_like_inverse_degree():
    # permutation lifts of the 2-whole-loop bouquet (d=4): the smallest
    # obstruction has order 1, so the tangle-hit rate should fall off
    # roughly like 1/n; deterministic given the seed
    cfg = ExperimentConfig(
        base=bouquet(2), model=ModelSpec(), degrees=(24, 48, 96),
        trials=250, epsilon=0.1, seed=123,
        tangle=TangleQuery(nu=math.sqrt(3), r=2, strict=True),
        tangle_max_vertices=3, tangle_max_subgraphs=4000,
    )
    report = run_experiment(cfg)
    counts = [row["hastangles_count"] for row in report.rows]
    assert counts[0] > counts[1] > counts[2] > 0
    proxy = [{"n": row["n"], "nonalon_positive_count": row["hastangles_count"],
              "trials": row["trials"]} for row in report.rows]
    fit = fit_scaling(proxy)
    assert fit["status"] == "ok"
    assert -1.3 < fit["slope"] < -0.5


def test_report_json_schema(tmp_path):
    cfg = small_config(trials=3)
    report = run_experiment(cfg)
    data = report.to_json()
    assert set(data) == {"config", "rows", "slope_fit", "notes", "errors",
                         "environment"}
    out = tmp_path / "rep.json"
    report.dump(out)
    parsed = json.loads(out.read_text())
    assert parsed["rows"][0]["n"] == 2


def test_config_from_json_ignores_legacy_spectrum_tol():
    data = small_config().to_json()
    assert "spectrum_tol" not in data
    legacy = dict(data, spectrum_tol=1e-5)
    assert ExperimentConfig.from_json(legacy).to_json() == data


def test_run_trial_lambda2_on_disconnected_cover(monkeypatch):
    from nblifts import experiments
    from nblifts.lifts import PermutationAssignment, build_lift
    b = complete_graph(4)
    by_rep = {rep: [1, 0, 3, 2] for rep in b.orientation()}
    lift = build_lift(b, PermutationAssignment.from_dict(b, 4, by_rep))
    monkeypatch.setattr(experiments, "sample_lift", lambda *args: lift)
    rec = run_trial(small_config(degrees=(4,), epsilon=0.1), 4, 0)
    assert rec.lambda2 == pytest.approx(3.0, abs=1e-9)
    assert not rec.connected
    assert rec.non_alon >= 1


def _count_trials(monkeypatch):
    from nblifts import experiments
    calls = []
    real = experiments.run_trial

    def counting(cfg, n, t, base_spectrum=None):
        calls.append((n, t))
        return real(cfg, n, t, base_spectrum)

    monkeypatch.setattr(experiments, "run_trial", counting)
    return calls


def _rerun_conditioned_rows(cfg):
    """Conditioned rows from fresh, independent runs of every trial."""
    rows = []
    for n in cfg.degrees:
        recs = [run_trial(cfg, n, t) for t in range(cfg.trials)]
        free = [r for r in recs if not r.has_tangles]
        rows.append({
            "n": n,
            "tanglefree_trials": len(free),
            "nonalon_positive_among_tanglefree": sum(
                1 for r in free if r.non_alon > 0),
            "frequency": (sum(1 for r in free if r.non_alon > 0) / len(free)
                          if free else None),
            "caps_hit_trials": sum(1 for r in free if r.tangle_caps_hit),
            "empty": not free,
        })
    return rows


def test_conditioned_cli_runs_each_trial_once(tmp_path, monkeypatch):
    from nblifts.cli import main
    cfg = small_config(degrees=(2, 3), trials=3,
                       tangle=TangleQuery(nu=1.2, r=3),
                       tangle_max_vertices=5, tangle_max_subgraphs=500)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_json()))
    expected = _rerun_conditioned_rows(cfg)
    calls = _count_trials(monkeypatch)
    out = str(tmp_path / "report")
    assert main(["experiment", "--config", str(cfg_path), "--out", out,
                 "--conditioned"]) == 0
    assert len(calls) == len(cfg.degrees) * cfg.trials
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(row["failed"] == 0 for row in report["rows"])
    assert json.dumps(report["conditioned_rows"], sort_keys=True) == \
        json.dumps(expected, sort_keys=True)


def test_conditioned_nonalon_runs_each_trial_once(monkeypatch):
    cfg = small_config(degrees=(2, 4), trials=4,
                       tangle=TangleQuery(nu=1.2, r=3))
    expected = _rerun_conditioned_rows(cfg)
    calls = _count_trials(monkeypatch)
    assert conditioned_nonalon(cfg) == expected
    assert len(calls) == len(cfg.degrees) * cfg.trials
    with pytest.raises(ConfigError):
        conditioned_nonalon(small_config())


def test_run_experiment_keeps_records_out_of_json():
    cfg = small_config(trials=2)
    report = run_experiment(cfg)
    assert [len(report.records[n]) for n in cfg.degrees] == [2, 2]
    assert report.records[2][1] == run_trial(cfg, 2, 1)
    assert "records" not in report.to_json()


def test_run_experiment_propagates_programming_errors(monkeypatch):
    # a ValueError too: the config is checked before any trial runs
    from nblifts import experiments

    for error in (TypeError, ValueError):
        def broken(*args, **kwargs):
            raise error("bug")

        monkeypatch.setattr(experiments, "run_trial", broken)
        with pytest.raises(error, match="bug"):
            run_experiment(small_config(trials=1))


def test_run_experiment_counts_numerical_failures(monkeypatch):
    from nblifts import experiments
    from nblifts.spectral import SpectralError
    real = experiments.run_trial

    def flaky(cfg, n, t, base_spectrum=None):
        if t == 1:
            raise SpectralError("no convergence")
        return real(cfg, n, t, base_spectrum)

    monkeypatch.setattr(experiments, "run_trial", flaky)
    report = run_experiment(small_config(degrees=(2, 3), trials=3))
    assert [row["failed"] for row in report.rows] == [1, 1]
    assert [row["trials"] for row in report.rows] == [2, 2]
    assert report.errors == [
        "n=2 trial=1: SpectralError: no convergence",
        "n=3 trial=1: SpectralError: no convergence",
    ]


@pytest.mark.parametrize("base,n", [
    (complete_graph(4), 40), (complete_graph(5), 30), (PETERSEN, 12),
    (bouquet(2), 60),
])
def test_run_trial_lanczos_matches_dense(base, n, monkeypatch, dense_calls):
    from dataclasses import astuple
    from nblifts import spectral
    cfg = ExperimentConfig(base=base, model=ModelSpec(), degrees=(n,),
                           trials=4, epsilon=0.1, seed=11)
    dense = [astuple(run_trial(cfg, n, t)) for t in range(cfg.trials)]
    dense_calls.clear()
    monkeypatch.setattr(spectral, "LANCZOS_MIN_VERTICES", 0)
    fast = [astuple(run_trial(cfg, n, t)) for t in range(cfg.trials)]
    assert len(dense_calls) < cfg.trials
    for a, b in zip(dense, fast):
        for x, y in zip(a, b):
            if isinstance(x, float):
                assert abs(x - y) <= 1e-12
            else:
                assert x == y


def test_determinism_byte_identical_above_lanczos_size(tmp_path, dense_calls):
    from nblifts import spectral
    cfg = ExperimentConfig(base=complete_graph(5), model=ModelSpec(),
                           degrees=(200,), trials=2, epsilon=0.1, seed=5)
    assert 5 * 200 >= spectral.LANCZOS_MIN_VERTICES
    files = [tmp_path / name for name in ("a.json", "a.csv", "b.json", "b.csv")]
    run_experiment(cfg).dump(files[0], files[1])
    run_experiment(cfg).dump(files[2], files[3])
    assert not dense_calls
    assert files[0].read_bytes() == files[2].read_bytes()
    assert files[1].read_bytes() == files[3].read_bytes()


def _config_json(**overrides):
    data = {"base": graph_to_json(complete_graph(4)), "degrees": [2, 3],
            "trials": 2, "epsilon": 0.2, "seed": 7}
    data.update(overrides)
    return data


def test_config_rejects_magnifier_without_gamma():
    # used to reach run_trial and escape run_experiment as a KeyError
    with pytest.raises(ConfigError, match="gamma is required"):
        ExperimentConfig.from_json(_config_json(magnifier={"R": 2}))


def test_config_rejects_nonpositive_gamma():
    # used to mark every trial failed
    with pytest.raises(ConfigError, match="gamma must be positive"):
        ExperimentConfig.from_json(_config_json(magnifier={"gamma": 0}))


def test_config_rejects_tangle_max_vertices_over_cap():
    tangle = {"nu": 1.8, "r": 2, "max_vertices": 13}
    with pytest.raises(ConfigError, match="max_vertices capped at 12"):
        ExperimentConfig.from_json(_config_json(tangle=tangle))


def test_config_rejects_zero_tangle_max_subgraphs():
    tangle = {"nu": 1.8, "r": 2, "max_subgraphs": 0}
    with pytest.raises(ConfigError, match="caps must be positive"):
        ExperimentConfig.from_json(_config_json(tangle=tangle))


def test_config_rejects_unknown_magnifier_mode():
    # used to run the sampled check silently
    with pytest.raises(ConfigError, match="mode must be one of"):
        ExperimentConfig.from_json(
            _config_json(magnifier={"gamma": 0.1, "mode": "exhaustiv"}))


def test_config_rejects_unknown_magnifier_key():
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_json(
            _config_json(magnifier={"gamma": 0.1, "trails": 5}))


def test_config_rejects_bad_magnifier_values():
    for magnifier in ({"gamma": 0.1, "R": 0}, {"gamma": 0.1, "trials": 0},
                      {"gamma": "wide"}, [0.1]):
        with pytest.raises(ConfigError):
            small_config(magnifier=magnifier)


def test_config_refuses_a_magnifier_window_past_the_smallest_cover():
    # K4 covers of degree 1 have 4 vertices and of degree 2 have 8: no vertex
    # set has 5 <= |U| <= |V|/2, so every check would hold vacuously
    magnifier = {"R": 5, "gamma": 0.1, "mode": "sampled"}
    with pytest.raises(ConfigError, match=r"^magnifier: R 5 is above "
                       r"\|V\|/2 = 2 on the covers of degree 1$"):
        small_config(degrees=(1, 2), magnifier=magnifier)
    # bouquet(2) covers of degree 5 have |V|/2 = 2.5: R 2 fits, R 3 does not
    cfg = dict(base=bouquet(2), degrees=(5, 9))
    small_config(**cfg, magnifier={**magnifier, "R": 2})
    with pytest.raises(ConfigError, match=r"R 3 is above \|V\|/2 = 2\.5 "):
        small_config(**cfg, magnifier={**magnifier, "R": 3})


def test_config_refuses_nonpositive_magnifier_trials():
    for trials in (0, -5):
        with pytest.raises(ConfigError,
                           match="^magnifier: trials must be at least 1$"):
            small_config(magnifier={"gamma": 0.1, "trials": trials})


def test_config_rejects_exhaustive_magnifier_past_its_cap():
    # K4 covers of degree 5 have 20 vertices, of degree 6 have 24
    small_config(degrees=(5,), magnifier={"gamma": 0.1, "mode": "exhaustive"})
    with pytest.raises(ConfigError, match="capped at 20 vertices"):
        small_config(degrees=(5, 6),
                     magnifier={"gamma": 0.1, "mode": "exhaustive"})


def _refused(match, **overrides):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_json(_config_json(**overrides))


# fractional integers used to be truncated (8.7 ran as degree 8)

def test_config_rejects_fractional_degree():
    _refused(r"degrees must be an integer, got 8\.7", degrees=[2, 8.7])


def test_config_rejects_boolean_degree():
    _refused("degrees must be an integer, got True", degrees=[True, 3])


def test_config_rejects_fractional_trials():
    _refused(r"trials must be an integer, got 3\.9", trials=3.9)


def test_config_rejects_fractional_seed():
    _refused(r"seed must be an integer, got 7\.5", seed=7.5)


def test_config_rejects_fractional_tangle_r():
    _refused(r"tangle r must be an integer, got 2\.9",
             tangle={"nu": 1.8, "r": 2.9})


@pytest.mark.parametrize("r", [0, -1])
def test_config_rejects_tangle_r_below_one(r):
    _refused("^tangle: r must be at least 1$", tangle={"nu": 1.8, "r": r})


def test_config_rejects_fractional_tangle_max_vertices():
    _refused(r"tangle max_vertices must be an integer, got 6\.5",
             tangle={"nu": 1.8, "r": 2, "max_vertices": 6.5})


def test_config_rejects_fractional_tangle_max_subgraphs():
    _refused("tangle max_subgraphs must be an integer, got nan",
             tangle={"nu": 1.8, "r": 2, "max_subgraphs": math.nan})


def test_config_rejects_fractional_magnifier_R():
    _refused(r"magnifier: R must be an integer, got 2\.7",
             magnifier={"gamma": 0.1, "R": 2.7})


def test_config_rejects_fractional_magnifier_trials():
    _refused(r"magnifier: trials must be an integer, got 9\.9",
             magnifier={"gamma": 0.1, "trials": 9.9})


def test_config_rejects_boolean_magnifier_R():
    _refused("magnifier: R must be an integer, got True",
             magnifier={"gamma": 0.1, "R": True})


def test_config_loads_integral_floats():
    tangle = {"nu": 1.8, "r": 2, "max_vertices": 5, "max_subgraphs": 300}
    magnifier = {"gamma": 0.1, "R": 2, "trials": 9}
    ints = ExperimentConfig.from_json(_config_json(tangle=tangle,
                                                   magnifier=magnifier))
    floats = ExperimentConfig.from_json(_config_json(
        degrees=[2.0, 3.0], trials=2.0, seed=7.0,
        tangle={k: float(v) for k, v in tangle.items()},
        magnifier={k: float(v) for k, v in magnifier.items()}))
    assert floats.degrees == ints.degrees == (2, 3)
    assert (floats.trials, floats.seed) == (ints.trials, ints.seed)
    assert floats.tangle == ints.tangle
    assert floats.tangle_max_vertices == 5
    assert floats.tangle_max_subgraphs == 300
    assert floats.magnifier == ints.magnifier


# strings and booleans used to load through bool(), int() and float():
# "strict": "false" ran as strict = True, "3" as degree 3

def test_config_rejects_non_boolean_strict():
    for strict in ("false", 0):
        _refused(f"tangle strict must be true or false, got {strict!r}",
                 tangle={"nu": 1.8, "r": 2, "strict": strict})


def test_config_loads_boolean_strict():
    cfg = ExperimentConfig.from_json(
        _config_json(tangle={"nu": 1.8, "r": 2, "strict": True}))
    assert cfg.tangle.strict is True


def test_config_rejects_string_degree():
    _refused("degrees must be an integer, got '3'", degrees=["3"])


def test_config_rejects_string_trials():
    _refused("trials must be an integer, got '2'", trials="2")


def test_config_rejects_string_epsilon():
    _refused("epsilon must be a number, got '0.2'", epsilon="0.2")


def test_config_rejects_boolean_epsilon():
    _refused("epsilon must be a number, got True", epsilon=True)


def test_config_rejects_string_seed():
    _refused("seed must be an integer, got '5'", seed="5")


def test_config_rejects_string_tangle_nu():
    _refused("tangle nu must be a number, got '1.8'",
             tangle={"nu": "1.8", "r": 2})


def test_config_rejects_string_tangle_r():
    _refused("tangle r must be an integer, got '2'",
             tangle={"nu": 1.8, "r": "2"})


def test_config_rejects_string_magnifier_gamma():
    _refused("magnifier: gamma must be a number, got '0.1'",
             magnifier={"gamma": "0.1"})


def test_config_rejects_boolean_magnifier_gamma():
    _refused("magnifier: gamma must be a number, got True",
             magnifier={"gamma": True})


def test_config_rejects_string_magnifier_R():
    _refused("magnifier: R must be an integer, got '2'",
             magnifier={"gamma": 0.1, "R": "2"})


# a repeated degree used to run twice, each row counting both passes

def test_config_rejects_repeated_degree():
    with pytest.raises(ConfigError, match=r"distinct, got \[2, 2, 3\]"):
        small_config(degrees=(2, 2, 3))
    _refused("cover degrees must be distinct", degrees=[10, 10, 20])


# json.load accepts NaN and Infinity; a nan epsilon made every count 0

@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_config_rejects_non_finite_epsilon(value):
    _refused("epsilon must be finite", epsilon=value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_tangle_nu(value):
    _refused("tangle nu must be finite", tangle={"nu": value, "r": 2})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_magnifier_gamma(value):
    _refused("magnifier: gamma must be finite", magnifier={"gamma": value})


# misspelt keys used to be dropped: "sed" ran with seed 0, "tangel" turned
# the scan off, "max_vertex" kept the cap at 6

def test_config_rejects_unknown_top_level_key():
    _refused(r"config: unknown keys \['sed'\]; expected \['base', ", sed=5)
    _refused(r"config: unknown keys \['tangel'\]",
             tangel={"nu": 1.8, "r": 2})


def test_config_rejects_unknown_tangle_key():
    _refused(r"tangle: unknown keys \['max_vertex'\]; expected \['nu', 'r', "
             r"'strict', 'max_vertices', 'max_subgraphs'\]",
             tangle={"nu": 1.8, "r": 2, "max_vertex": 3})
    _refused("tangle must be an object", tangle=[1.8, 2])


def test_config_loads_output_key():
    plain = ExperimentConfig.from_json(_config_json())
    cfg = ExperimentConfig.from_json(_config_json(output="results/run1"))
    assert cfg.to_json() == plain.to_json()


def test_trial_without_scan_or_magnifier_builds_no_graph(monkeypatch):
    # connectivity is read from the holonomy and the spectrum from the edge
    # arrays, so such a trial never builds the cover or any other Graph
    inits = []
    real = Graph.__init__

    def counting(self, *args, **kwargs):
        inits.append(args)
        real(self, *args, **kwargs)

    configs = [small_config(degrees=(2, 5, 120)),  # 480 vertices: Lanczos
               small_config(base=bouquet(2), degrees=(1, 6), epsilon=0.1)]
    monkeypatch.setattr(Graph, "__init__", counting)
    for cfg in configs:
        for n in cfg.degrees:
            for t in range(3):
                run_trial(cfg, n, t)
    assert inits == []
    sample_lift(configs[0].base, 3, ModelSpec(), seed=0).cover
    assert [args[0] for args in inits] == [12]  # the wrapper sees a cover


def test_row_of_a_degree_whose_trials_all_fail(monkeypatch):
    from nblifts import experiments
    from nblifts.spectral import SpectralError
    real = experiments.run_trial

    def failing_at_3(cfg, n, t, base_spectrum=None):
        if n == 3:
            raise SpectralError("no convergence")
        return real(cfg, n, t, base_spectrum)

    monkeypatch.setattr(experiments, "run_trial", failing_at_3)
    report = run_experiment(small_config(degrees=(2, 3), trials=4))
    ok, failed = report.rows
    assert ok["failed"] == 0 and ok["mean_lambda2"] is not None
    assert (failed["failed"], failed["trials"]) == (4, 0)
    assert failed["mean_lambda2"] is None and failed["mean_mu1_new"] is None
    row = json.loads(json.dumps(report.to_json()))["rows"][1]
    assert row["mean_lambda2"] is None and row["mean_mu1_new"] is None


def test_config_rejects_negative_seed():
    _refused(r"seed must be non-negative, got -1", seed=-1)
    with pytest.raises(ConfigError, match="non-negative"):
        small_config(seed=-5)


def test_negative_seed_exits_3_before_any_trial(tmp_path, monkeypatch):
    from nblifts.cli import main
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config_json(seed=-5)))
    calls = _count_trials(monkeypatch)
    assert main(["experiment", "--config", str(cfg_path)]) == 3
    assert calls == []


def test_report_whose_trials_all_fail_claims_no_detection_limit(monkeypatch):
    from nblifts import experiments
    from nblifts.spectral import SpectralError

    def failing(cfg, n, t, base_spectrum=None):
        raise SpectralError("no convergence")

    monkeypatch.setattr(experiments, "run_trial", failing)
    report = run_experiment(small_config(degrees=(2, 3), trials=2))
    assert [row["failed"] for row in report.rows] == [2, 2]
    assert not any("below detection" in note for note in report.notes)


README_MAGNIFIER = {"R": 2, "gamma": 0.1, "mode": "sampled", "trials": 100}


@pytest.mark.parametrize("overrides, uncapped", [
    (dict(degrees=(20, 40, 80), tangle=TangleQuery(nu=1.8, r=3),
          tangle_max_vertices=6, magnifier=README_MAGNIFIER), False),
    # small bouquet(2) covers have loops: every scan finishes below the cap
    # and finds tangles, and gamma 1 fails on some trials, so scanned
    # counts, found subgraphs and magnifier witnesses are all compared
    (dict(base=bouquet(2), degrees=(4, 6, 8), tangle=TangleQuery(nu=1.8, r=3),
          tangle_max_vertices=5,
          magnifier={**README_MAGNIFIER, "gamma": 1.0}), True),
], ids=["readme", "uncapped"])
def test_readme_trials_match_the_set_references(monkeypatch, overrides,
                                                uncapped):
    """One trial per degree of the README config, and of a config whose
    scans finish and find tangles and whose magnifier fails, once with the
    bitmask scan and magnifier and once with the test references: the
    records, the scan reports and the magnifier results must all be
    equal."""
    from functools import partial
    from helpers import reference_sampled_magnifier, reference_scan_tangles
    from nblifts import experiments
    from nblifts.magnify import is_pseudo_magnifier
    from nblifts.tangles import scan_tangles
    cfg = small_config(trials=1, seed=20240818, tangle_max_subgraphs=4000,
                       **overrides)

    def run(scan, magnifier):
        scans, mags = [], []

        def recording_scan(*args, **kwargs):
            report = scan(*args, **kwargs)
            scans.append(report.to_json())
            return report

        def recording_magnifier(g, R, gamma, mode, **kwargs):
            assert mode == "sampled"
            mags.append(magnifier(g, R, gamma, **kwargs))
            return mags[-1]

        monkeypatch.setattr(experiments, "scan_tangles", recording_scan)
        monkeypatch.setattr(experiments, "is_pseudo_magnifier",
                            recording_magnifier)
        records = [run_trial(cfg, n, 0) for n in cfg.degrees]
        return records, scans, mags

    got = run(scan_tangles, partial(is_pseudo_magnifier, mode="sampled"))
    want = run(reference_scan_tangles, reference_sampled_magnifier)
    assert got == want
    _, scans, mags = got
    assert len(scans) == len(mags) == 3
    if uncapped:
        assert not any(scan["caps_hit"] for scan in scans)
        assert all(scan["found"] for scan in scans)
        assert {mag.holds for mag in mags} == {True, False}


TWO_K4 = from_pairs(8, [(i + s, j + s) for s in (0, 4)
                        for i in range(4) for j in range(i + 1, 4)])


def test_config_refuses_disconnected_base():
    # every cover of a disconnected base is disconnected, and the d of a
    # cover would then need the holonomy of each component
    with pytest.raises(ConfigError, match="connected; it has 2 components"):
        small_config(base=TWO_K4)
    _refused("2 components", base=graph_to_json(TWO_K4))


@pytest.mark.parametrize("kind, disconnected", [("permutation", True),
                                                ("cyclic", False)])
def test_disconnected_count_is_exact_on_the_lanczos_path(kind, disconnected):
    # covers of one whole-loop are unions of sigma's cycles; at 400 vertices
    # trials take the Lanczos path, which keeps only the extreme new values
    from nblifts.lifts import holonomy_generators, orbit_count
    from nblifts.spectral import new_adjacency_extremes, new_eigenvalues
    cfg = ExperimentConfig(base=bouquet(1), model=ModelSpec(kind),
                           degrees=(400,), trials=6, epsilon=0.1, seed=5)
    row = run_experiment(cfg).rows[0]
    assert row["disconnected_with_eigenvalue_at_d"] == row[
        "disconnected_count"]
    assert (row["disconnected_count"] > 0) == disconnected
    for t in range(3):
        lift = sample_lift(bouquet(1), 400, ModelSpec(kind),
                           trial_seed(5, 400, t))
        assert len(new_adjacency_extremes(lift, 2.1).values) == 2
        components = orbit_count(holonomy_generators(lift), 400)
        at_d = np.count_nonzero(np.abs(new_eigenvalues(lift) - 2) <= 1e-9)
        assert at_d == components - 1
        assert (components > 1) == disconnected
