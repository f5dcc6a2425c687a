"""Copies and pickles of the package's values: each load goes through its
type's checked constructor and gives back an equal value."""

from concurrent.futures import ProcessPoolExecutor
import copy
from dataclasses import FrozenInstanceError
from multiprocessing import get_context
import pickle
import sys

import numpy as np
import pytest

from nblifts.experiments import ConfigError, ExperimentConfig, TrialRecord, \
    evaluate_lift, run_trial, trial_seed
from nblifts.graphs import ArgumentError, Graph, GraphMorphism, bouquet, \
    complete_graph, dipole, empty_graph, from_pairs
from nblifts.lifts import Lift, ModelError, ModelSpec, \
    PermutationAssignment, sample_lift
from nblifts.tangles import TangleQuery
from nblifts.walks import HomotopyType

COPIERS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}

GRAPHS = {
    "half_loops": bouquet(1, 3),
    "whole_loops": bouquet(3),
    "parallel_edges": dipole(3),
    "mixed": from_pairs(4, [(0, 1), (0, 1), (1, 2), (2, 2), (2, 3)], [0, 3]),
    "empty": empty_graph(),
}

# the README config's tangle and magnifier blocks
README_TANGLE = TangleQuery(nu=1.8, r=3, strict=False)
README_MAGNIFIER = {"R": 2, "gamma": 0.1, "mode": "sampled", "trials": 100}

CONFIGS = {
    "k4_readme": ExperimentConfig(
        base=complete_graph(4), model=ModelSpec(), degrees=(20,), trials=3,
        epsilon=0.2, seed=20240818, tangle=README_TANGLE,
        tangle_max_vertices=6, tangle_max_subgraphs=4000,
        magnifier=README_MAGNIFIER),
    "bouquet2": ExperimentConfig(
        base=bouquet(2), model=ModelSpec(), degrees=(40,), trials=3,
        epsilon=0.1, seed=61),
}


def assert_equal_copy(value, copier):
    """copier(value) equals value, and hashes alike; an unhashable value
    stays unhashable."""
    other = copier(value)
    assert other == value
    try:
        expected = hash(value)
    except TypeError:
        with pytest.raises(TypeError):
            hash(other)
    else:
        assert hash(other) == expected
    return other


@pytest.mark.parametrize("how", COPIERS)
@pytest.mark.parametrize("name", GRAPHS)
def test_graph_round_trip(name, how):
    g = GRAPHS[name]
    other = assert_equal_copy(g, COPIERS[how])
    assert [other.out_edges(v) for v in range(g.n)] == \
        [g.out_edges(v) for v in range(g.n)]
    assert repr(other) == repr(g)


def test_graph_hash_is_the_hash_of_its_arrays():
    g = GRAPHS["mixed"]
    assert hash(g) == hash((g.n, g.tail, g.head, g.inv))


@pytest.mark.parametrize("name", ["n", "tail", "head", "inv", "_out"])
def test_setting_a_graph_attribute_raises(name):
    g = bouquet(2)
    with pytest.raises(AttributeError):
        setattr(g, name, ())
    assert g == bouquet(2) and g.out_edges(0) == (0, 1, 2, 3)


@pytest.mark.parametrize("name", ["n", "tail", "head", "inv", "_out"])
def test_deleting_a_graph_field_raises(name):
    g = bouquet(2)
    with pytest.raises(FrozenInstanceError):
        delattr(g, name)
    assert g == bouquet(2) and g.out_edges(0) == (0, 1, 2, 3)


def test_a_graph_takes_no_new_attribute():
    # a frozen dataclass with slots raises TypeError, not AttributeError, for
    # a name that is no field (Python 3.10 to 3.13): its __setattr__ calls
    # super() with the class from before the slots were added
    g = bouquet(2)
    expected = (TypeError if sys.version_info < (3, 14)
                else (AttributeError, TypeError))
    with pytest.raises(expected):
        g.extra = ()
    assert not hasattr(g, "__dict__") and not hasattr(g, "extra")


@pytest.mark.parametrize("name", ["n", "tail", "head", "inv", "_out"])
def test_setting_a_graph_field_raises_attribute_error(name):
    g = bouquet(2)
    with pytest.raises(FrozenInstanceError):
        setattr(g, name, ())
    assert issubclass(FrozenInstanceError, AttributeError)
    assert g == bouquet(2)


def _crafted(cls, *args):
    """A pickle that loads as cls(*args), whatever args hold."""

    class Payload:
        def __reduce__(self):
            return cls, args

    return pickle.dumps(Payload())


@pytest.mark.parametrize("how", COPIERS)
@pytest.mark.parametrize("base, degree", [
    (complete_graph(4), 5),
    (bouquet(1, 1), 3),
    (GRAPHS["mixed"], 4),
])
def test_assignment_round_trip_is_read_only(base, degree, how):
    spec = ModelSpec(half_loop="matching" if degree % 2 == 0
                     else "near_matching")
    a = sample_lift(base, degree, spec, 7).assignment
    other = assert_equal_copy(a, COPIERS[how])
    assert other.sigma.dtype == np.int64
    assert not other.sigma.flags.writeable
    with pytest.raises(ValueError):
        other.sigma[0, 0] = 0


@pytest.mark.parametrize("how", COPIERS)
def test_lift_round_trip_rebuilds_its_cover(how):
    lift = sample_lift(complete_graph(4), 6, ModelSpec(), 3)
    cover, projection = lift.cover, lift.projection
    other = assert_equal_copy(lift, COPIERS[how])
    if how == "copy":
        assert other.assignment is lift.assignment
    # no cached view travels: each is built from the assignment
    assert set(vars(other)) == {"assignment"}
    assert other.base is other.assignment.base
    assert other.cover == cover
    assert other.projection == projection
    for arr, expected in zip(other.edge_arrays, lift.edge_arrays):
        assert not arr.flags.writeable
        assert np.array_equal(arr, expected)
    assert other.is_connected() == lift.is_connected()


@pytest.mark.parametrize("how", COPIERS)
@pytest.mark.parametrize("name", CONFIGS)
def test_config_round_trip(name, how):
    cfg = CONFIGS[name]
    other = assert_equal_copy(cfg, COPIERS[how])
    assert other.to_json() == cfg.to_json()


@pytest.mark.parametrize("how", COPIERS)
def test_trial_record_round_trip(how):
    cfg = CONFIGS["k4_readme"]
    record = run_trial(cfg, 20, 0)
    assert isinstance(record, TrialRecord)
    assert_equal_copy(record, COPIERS[how])


@pytest.fixture(scope="module")
def spawn_worker():
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=get_context("spawn")) as pool:
        yield pool


@pytest.mark.parametrize("name", CONFIGS)
def test_run_trial_on_a_pickled_config(name, spawn_worker):
    cfg = CONFIGS[name]
    (n,) = cfg.degrees
    loaded = pickle.loads(pickle.dumps(cfg))
    for t in range(cfg.trials):
        expected = run_trial(cfg, n, t)
        assert run_trial(loaded, n, t) == expected
        # the worker receives cfg by pickle and sends its record back so
        assert spawn_worker.submit(run_trial, cfg, n, t).result() == expected


@pytest.mark.parametrize("name", CONFIGS)
def test_evaluate_lift_on_a_pickled_config_and_lift(name, spawn_worker):
    cfg = CONFIGS[name]
    (n,) = cfg.degrees
    seed = trial_seed(cfg.seed, n, 0)
    lift = sample_lift(cfg.base, n, cfg.model, seed)
    expected = run_trial(cfg, n, 0)
    loaded = pickle.loads(pickle.dumps((cfg, lift)))
    assert evaluate_lift(*loaded, 0, seed) == expected
    # the worker receives both by pickle and sends the record back so
    assert spawn_worker.submit(evaluate_lift, cfg, lift, 0,
                               seed).result() == expected


MIXED_LIFT = sample_lift(GRAPHS["mixed"], 4, ModelSpec(half_loop="matching"),
                         5)
CHECKED_VALUES = {
    Graph: MIXED_LIFT.base,
    PermutationAssignment: MIXED_LIFT.assignment,
    Lift: MIXED_LIFT,
    ExperimentConfig: CONFIGS["k4_readme"],
    TangleQuery: README_TANGLE,
    ModelSpec: ModelSpec(kind="cyclic", half_loop="matching"),
    GraphMorphism: GraphMorphism.identity(dipole(3)),
    HomotopyType: HomotopyType(bouquet(2), (3, 1)),
}


@pytest.mark.parametrize("how", COPIERS)
@pytest.mark.parametrize("cls", CHECKED_VALUES, ids=lambda c: c.__name__)
def test_each_checked_value_loads_through_its_check(cls, how, monkeypatch):
    value = CHECKED_VALUES[cls]
    checked = []
    real = cls.__post_init__

    def counting(self):
        checked.append(type(self))
        real(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    assert_equal_copy(value, COPIERS[how])
    assert checked.count(cls) >= 1


def _sigma(row, values):
    """K3's identity assignment of degree 4, with sigma[row] = values."""
    sigma = np.tile(np.arange(4), (complete_graph(3).num_directed, 1))
    sigma[row] = values
    return sigma


@pytest.mark.parametrize("cls, args, error, message", [
    # edge 0's partner is 1, but edge 1's partner is itself
    (Graph, (1, (0, 0), (0, 0), (1, 1)), ValueError,
     "inv is not an involution"),
    (PermutationAssignment, (complete_graph(3), 4, _sigma(2, [0, 0, 1, 2])),
     ValueError, r"sigma\[2\] is not a permutation"),
    # edge 0's partner, edge 1, keeps the identity
    (PermutationAssignment, (complete_graph(3), 4, _sigma(0, [1, 0, 2, 3])),
     ValueError, "edge 0 and its partner"),
    (ExperimentConfig, (complete_graph(4), ModelSpec(), (6,), 0, 0.1, 1),
     ConfigError, "trials must be at least 1"),
    (TangleQuery, (1.8, 0, False), ArgumentError, "r must be at least 1"),
    (ModelSpec, ("bogus", None), ModelError, "unknown model kind 'bogus'"),
    (GraphMorphism, (bouquet(1), bouquet(1), (0,), ()), ValueError,
     "morphism maps have wrong length"),
    (HomotopyType, (bouquet(1), (0,)), ValueError,
     "edge lengths must be positive"),
    (Lift, (complete_graph(3),), ArgumentError,
     "a lift takes a PermutationAssignment, got Graph"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_crafted_payload_raises_the_constructor_error(cls, args, error,
                                                      message):
    with pytest.raises(error, match=message):
        pickle.loads(_crafted(cls, *args))
