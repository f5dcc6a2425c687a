"""One check path for experiment configs: from_json, the constructor, copy
and pickle refuse the same values with the same messages, and a checked
config is a hashable, frozen value whose magnifier block is a
MagnifierQuery."""

import copy
from dataclasses import FrozenInstanceError, replace
import json
import math
import pickle
import re

import pytest

from nblifts.experiments import ConfigError, ExperimentConfig, run_experiment
from nblifts.graphs import ArgumentError, bouquet, complete_graph, \
    graph_to_json
from nblifts.lifts import ModelSpec
from nblifts.magnify import MagnifierQuery, check_magnifier_args
from nblifts.tangles import TangleQuery, check_scan_caps

TANGLE = TangleQuery(nu=1.8, r=2)
TANGLE_JSON = {"nu": 1.8, "r": 2}
MAGNIFIER = {"R": 2, "gamma": 0.1, "mode": "sampled", "trials": 20}


def checked_config():
    """K4 at degrees 2 and 3 with both blocks, as test_experiments'
    small_config builds it."""
    return ExperimentConfig(
        base=complete_graph(4), model=ModelSpec(), degrees=(2, 3), trials=5,
        epsilon=0.2, seed=7, tangle=TANGLE, magnifier=MAGNIFIER)


def _json(field, value):
    """The JSON config with field set to value: a tangle cap goes in the
    tangle block, and a tuple is a JSON list."""
    data = {"base": graph_to_json(complete_graph(4)), "degrees": [2, 3],
            "trials": 5, "epsilon": 0.2, "seed": 7, "tangle": TANGLE_JSON,
            "magnifier": MAGNIFIER}
    if field.startswith("tangle_"):
        data["tangle"] = {**TANGLE_JSON, field[len("tangle_"):]: value}
    else:
        data[field] = list(value) if isinstance(value, tuple) else value
    return data


# every scalar and magnifier refusal of test_experiments' _refused list,
# plus the magnifier refusals it tests through from_json directly
REFUSALS = [
    ("degrees", (2, 8.7), r"degrees must be an integer, got 8\.7"),
    ("degrees", (True, 3), "degrees must be an integer, got True"),
    ("degrees", ("3",), "degrees must be an integer, got '3'"),
    ("degrees", (10.5,), r"degrees must be an integer, got 10\.5"),
    ("degrees", (10, 10, 20), r"cover degrees must be distinct, got "
                              r"\[10, 10, 20\]"),
    ("trials", 3.9, r"trials must be an integer, got 3\.9"),
    ("trials", 2.5, r"trials must be an integer, got 2\.5"),
    ("trials", "2", "trials must be an integer, got '2'"),
    ("seed", 7.5, r"seed must be an integer, got 7\.5"),
    ("seed", "5", "seed must be an integer, got '5'"),
    ("seed", True, "seed must be an integer, got True"),
    ("seed", -1, "seed must be non-negative, got -1"),
    ("epsilon", "0.2", "epsilon must be a number, got '0.2'"),
    ("epsilon", True, "epsilon must be a number, got True"),
    ("epsilon", math.nan, "epsilon must be finite, got nan"),
    ("epsilon", math.inf, "epsilon must be finite, got inf"),
    ("epsilon", -math.inf, "epsilon must be finite, got -inf"),
    ("epsilon", 10 ** 400, "epsilon must be finite"),
    ("tangle_max_vertices", 6.5,
     r"tangle max_vertices must be an integer, got 6\.5"),
    ("tangle_max_subgraphs", math.nan,
     "tangle max_subgraphs must be an integer, got nan"),
    ("tangle_max_subgraphs", 0, "^tangle: caps must be positive$"),
    ("magnifier", {"gamma": 0.1, "R": 2.7},
     r"magnifier: R must be an integer, got 2\.7"),
    ("magnifier", {"gamma": 0.1, "trials": 9.9},
     r"magnifier: trials must be an integer, got 9\.9"),
    ("magnifier", {"gamma": 0.1, "R": True},
     "magnifier: R must be an integer, got True"),
    ("magnifier", {"gamma": 0.1, "R": "2"},
     "magnifier: R must be an integer, got '2'"),
    ("magnifier", {"gamma": "0.1"},
     "magnifier: gamma must be a number, got '0.1'"),
    ("magnifier", {"gamma": True},
     "magnifier: gamma must be a number, got True"),
    ("magnifier", {"gamma": math.nan}, "magnifier: gamma must be finite"),
    ("magnifier", {"gamma": math.inf}, "magnifier: gamma must be finite"),
    ("magnifier", {"gamma": 0}, "^magnifier: gamma must be positive$"),
    ("magnifier", {"R": 2}, "^magnifier: gamma is required$"),
    ("magnifier", {"gamma": 0.1, "trials": 0},
     "^magnifier: trials must be at least 1$"),
    ("magnifier", {"gamma": 0.1, "mode": "exhaustiv"},
     "^magnifier: mode must be one of auto, exhaustive, sampled; "
     "got 'exhaustiv'$"),
    ("magnifier", {"gamma": 0.1, "trails": 5}, r"^magnifier: unknown keys "
     r"\['trails'\]; expected \['R', 'gamma', 'mode', 'trials'\]$"),
    ("magnifier", [0.1], "^magnifier must be an object$"),
    ("magnifier", {"gamma": 0.1, "R": 5},
     r"^magnifier: R 5 is above \|V\|/2 = 4 on the covers of degree 2$"),
    ("degrees", 5, "^degrees must be a list of integers, got 5$"),
]


def _message(thunk):
    with pytest.raises(ConfigError) as err:
        thunk()
    return str(err.value)


def _with_field(field, value):
    """A checked config whose field was replaced after its check."""
    cfg = checked_config()
    object.__setattr__(cfg, field, value)
    return cfg


PATHS = {
    "constructor": lambda field, value: replace(checked_config(),
                                                **{field: value}),
    "deepcopy": lambda field, value: copy.deepcopy(_with_field(field, value)),
    "pickle": lambda field, value: pickle.loads(
        pickle.dumps(_with_field(field, value))),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("field, value, match", REFUSALS, ids=[
    f"{field}-{i}" for i, (field, _, _) in enumerate(REFUSALS)])
def test_every_path_refuses_with_the_json_message(field, value, match, path):
    expected = _message(lambda: ExperimentConfig.from_json(_json(field,
                                                                 value)))
    assert re.search(match, expected)
    assert _message(lambda: PATHS[path](field, value)) == expected


@pytest.mark.parametrize("how", ["pickle", "deepcopy", "copy"])
def test_config_with_both_blocks_hashes_and_round_trips(how):
    cfg = checked_config()
    other = {"pickle": lambda c: pickle.loads(pickle.dumps(c)),
             "deepcopy": copy.deepcopy, "copy": copy.copy}[how](cfg)
    assert other == cfg and hash(other) == hash(cfg)
    assert len({cfg, other, checked_config()}) == 1
    assert other.magnifier == MagnifierQuery(gamma=0.1, R=2, mode="sampled",
                                             trials=20)
    assert other.tangle == TANGLE
    assert other.to_json() == cfg.to_json()


@pytest.mark.parametrize("load", [
    copy.deepcopy, lambda query: pickle.loads(pickle.dumps(query))],
    ids=["deepcopy", "pickle"])
def test_a_magnifier_query_loads_through_its_check(load):
    query = MagnifierQuery(0.1)
    assert load(query) == query and hash(load(query)) == hash(query)
    object.__setattr__(query, "gamma", -1)
    with pytest.raises(ArgumentError, match="^gamma must be positive$"):
        load(query)


def test_dict_and_query_blocks_give_equal_configs():
    as_dict = checked_config()
    as_query = replace(as_dict, magnifier=MagnifierQuery(0.1, 2, "sampled",
                                                         20))
    assert as_query == as_dict and hash(as_query) == hash(as_dict)
    assert type(as_dict.magnifier) is MagnifierQuery


def test_the_magnifier_block_cannot_be_changed_after_the_check():
    # the block was the caller's dict: a write after the check made
    # run_trial raise ArgumentError, which ended the whole sweep
    cfg = checked_config()
    with pytest.raises(FrozenInstanceError):
        cfg.magnifier.gamma = -1
    with pytest.raises(TypeError):
        cfg.magnifier["gamma"] = -1
    with pytest.raises(FrozenInstanceError):
        cfg.magnifier = {"gamma": -1}
    assert cfg.magnifier.gamma == 0.1


def test_the_constructor_stores_loaded_values():
    cfg = replace(checked_config(), degrees=[2.0, 3], trials=5.0, seed=7.0,
                  epsilon=1, tangle_max_vertices=5.0,
                  magnifier={"gamma": 1, "R": 2.0, "trials": 9.0})
    assert cfg.degrees == (2, 3) and type(cfg.degrees) is tuple
    values = (*cfg.degrees, cfg.trials, cfg.seed, cfg.tangle_max_vertices,
              cfg.magnifier.R, cfg.magnifier.trials)
    assert all(type(v) is int for v in values)
    assert type(cfg.epsilon) is float and type(cfg.magnifier.gamma) is float


def test_the_report_echoes_the_resolved_magnifier_block():
    data = _json("magnifier", {"gamma": 0.1})
    echo = ExperimentConfig.from_json(data).to_json()["magnifier"]
    assert echo == {"R": 1, "gamma": 0.1, "mode": "auto", "trials": 100}
    # the echo loads back to the same config
    again = ExperimentConfig.from_json(
        {**data, "magnifier": json.loads(json.dumps(echo))})
    assert again == ExperimentConfig.from_json(data)


def test_a_degree_names_the_model_rule_it_breaks():
    with pytest.raises(ConfigError, match="^degree 3: model requires even "
                                          "degree, got 3$"):
        ExperimentConfig(bouquet(0, 3), ModelSpec(half_loop="matching"),
                         (2, 3), 2, 0.1, 0)
    with pytest.raises(ConfigError, match="^degree 4: base has half-loops "
                                          "but no half-loop rule was given$"):
        ExperimentConfig(bouquet(1, 2), ModelSpec(), (4,), 2, 0.1, 0)


@pytest.mark.parametrize("thunk, message", [
    (lambda: check_scan_caps(6, math.nan),
     "max_subgraphs must be an integer, got nan"),
    (lambda: check_scan_caps(6.0, 4000),
     r"max_vertices must be an integer, got 6\.0"),
    (lambda: check_scan_caps(True, 4000),
     "max_vertices must be an integer, got True"),
    (lambda: check_magnifier_args(2.5, 0.1, "sampled", 100),
     r"R must be an integer, got 2\.5"),
    (lambda: check_magnifier_args(True, 0.1, "sampled", 100),
     "R must be an integer, got True"),
    (lambda: check_magnifier_args(1, math.inf, "sampled", 100),
     "gamma must be finite, got inf"),
    (lambda: check_magnifier_args(1, math.nan, "sampled", 100),
     "gamma must be finite, got nan"),
    (lambda: check_magnifier_args(1, 0.1, "sampled", 10.5),
     r"trials must be an integer, got 10\.5"),
    (lambda: MagnifierQuery(0.1, R=2.0),
     r"R must be an integer, got 2\.0"),
    (lambda: TangleQuery(nu=1.8, r=3, strict="false"),
     "strict must be true or false, got 'false'"),
    (lambda: TangleQuery(nu=1.8, r=3, strict=0),
     "strict must be true or false, got 0"),
], ids=range(11))
def test_library_checks_refuse_non_integer_and_non_finite_values(thunk,
                                                                 message):
    with pytest.raises(ArgumentError, match=f"^{message}$"):
        thunk()


# integer columns of the rows, from the commit before the config checks
# moved into the constructor
ROW_COLUMNS = ("n", "trials", "failed", "nonalon_positive_count",
               "hastangles_count", "nonalon_and_tanglefree_count",
               "disconnected_count", "tangle_caps_hit_count",
               "magnifier_fail_count")
PINNED = {
    # perfbench's three experiment workloads, full size, seed 61
    "readme_scan": (
        {"base": graph_to_json(complete_graph(4)), "degrees": [20, 40, 80],
         "trials": 4, "epsilon": 0.2, "seed": 61,
         "tangle": {"nu": 1.8, "r": 3, "strict": False, "max_vertices": 6,
                    "max_subgraphs": 4000},
         "magnifier": {"R": 2, "gamma": 0.1, "mode": "sampled",
                       "trials": 100}},
        [(20, 4, 0, 0, 0, 0, 0, 4, 0), (40, 4, 0, 0, 0, 0, 0, 4, 0),
         (80, 4, 0, 0, 0, 0, 0, 4, 0)]),
    "spectrum_large": (
        {"base": graph_to_json(complete_graph(5)), "degrees": [100, 200, 400],
         "trials": 2, "epsilon": 0.1, "seed": 61},
        [(100, 2, 0, 0, 0, 0, 0, 0, 0), (200, 2, 0, 0, 0, 0, 0, 0, 0),
         (400, 2, 0, 0, 0, 0, 0, 0, 0)]),
    "nonalon_small": (
        {"base": graph_to_json(bouquet(2)), "degrees": [10, 20, 40, 80],
         "trials": 250, "epsilon": 0.1, "seed": 61},
        [(10, 250, 0, 61, 0, 0, 28, 0, 0), (20, 250, 0, 51, 0, 0, 17, 0, 0),
         (40, 250, 0, 33, 0, 0, 8, 0, 0), (80, 250, 0, 8, 0, 0, 2, 0, 0)]),
    # the CI's bouquet(2) config
    "ci_bouquet2": (
        {"base": graph_to_json(bouquet(2)), "degrees": [2, 3, 4, 10, 40],
         "trials": 50, "epsilon": 0.1, "seed": 5},
        [(2, 50, 0, 28, 0, 0, 10, 0, 0), (3, 50, 0, 15, 0, 0, 15, 0, 0),
         (4, 50, 0, 17, 0, 0, 15, 0, 0), (10, 50, 0, 11, 0, 0, 7, 0, 0),
         (40, 50, 0, 7, 0, 0, 1, 0, 0)]),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_row_counts(name):
    data, expected = PINNED[name]
    rows = run_experiment(ExperimentConfig.from_json(data)).rows
    assert [tuple(row[c] for c in ROW_COLUMNS) for row in rows] == expected


def test_a_config_that_is_not_json_names_its_line(tmp_path, capsys):
    # graph files and configs share one reader, so both say "invalid JSON"
    from nblifts.cli import main
    path = tmp_path / "cfg.json"
    path.write_text('{"degrees": [4],\n "trials": }')
    assert main(["experiment", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"config error: {path}:2: invalid JSON: Expecting value\n")
