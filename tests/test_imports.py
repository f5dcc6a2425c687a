"""What each import loads, and the package namespace it exposes.

The import-set checks run in a fresh interpreter, since this process has
loaded every module already."""

import os
import pickle
import subprocess
import sys

import pytest

import nblifts

SRC = os.path.dirname(os.path.dirname(nblifts.__file__))

# Every public name of the package, by home module.  hashimoto_matrix lives
# in walks; spectral imports it from there.
PUBLIC = {
    "graphs": """ArgumentError Graph GraphFormatError GraphMorphism bouquet
        complete_graph cycle_graph dipole empty_graph from_orbits from_pairs
        girth graph_from_json graph_to_json induced_subgraph is_covering
        is_etale load_graph path_graph prune save_graph
        subgraph_from_orbits""",
    "lifts": """Lift ModelError ModelSpec PermutationAssignment build_lift
        check_model holonomy_generators orbit_count sample_assignment
        sample_lift""",
    "spectral": """IharaResult NewExtremes SpectralError SpectrumMultiset
        adjacency_matrix adjacency_spectrum alon_threshold hashimoto_spectrum
        ihara_check is_ramanujan lambda2 mu1 multiset_difference
        new_adjacency_extremes new_eigenvalues new_spectrum non_alon_count
        spectral_report""",
    "walks": """BudgetExceededError HomotopyType Walk beads count_snbc_dfs
        enumerate_snbc hashimoto_matrix snbc_by_type snbc_count
        suppress_beads visited_subgraph vlg walk_reduction
        write_walk_census""",
    "tangles": """TangleQuery TangleReport TangleWitness TooSymmetricError
        canonical_form contract_nonloop_edge example_tangles
        identify_distance_two is_tangle m_no_whole m_whole scan_tangles
        tau_tang_lower_no_whole tau_tang_lower_whole""",
    "magnify": """MagnificationResult VertexSubset alon_gap_bound
        alon_gap_check best_gamma_exhaustive fibre_imbalance_expansion
        imbalance_rate is_magnifier is_pseudo_magnifier lift_fibre_blocks
        neighborhood""",
    "bounds": """EntropyEstimate binom_estimate_witness
        full_cycle_containment_bound h2 h2_second_derivative
        involution_containment_bound odd_binom odd_binom_exact
        perm_containment_prob verify_binom_estimate""",
    "experiments": """ConfigError ExperimentConfig ExperimentReport
        conditioned_rows fit_scaling run_experiment wilson_interval""",
}
HOMES = [(name, module) for module, names in PUBLIC.items()
         for name in names.split()]
NAMES = {name for name, _ in HOMES}


def fresh_python(code, stdin=None):
    """Run code in a new interpreter with this checkout's src on the path;
    returns its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                         capture_output=True, check=True)
    return res.stdout


def loaded_by(statement):
    """The nblifts modules, and numpy if loaded, after statement runs in a
    fresh interpreter."""
    out = fresh_python(
        f"import sys\n{statement}\n"
        "print(*(m for m in sys.modules if m == 'numpy' or m == 'nblifts'"
        " or m.startswith('nblifts.')))")
    return set(out.decode().split())


def test_import_nblifts_loads_no_submodule_and_no_numpy():
    assert loaded_by("import nblifts") == {"nblifts"}


def test_import_walks_loads_graphs_alone():
    assert loaded_by("import nblifts.walks") == {
        "nblifts", "nblifts.graphs", "nblifts.walks", "numpy"}


def test_import_experiments_loads_neither_bounds_nor_cli():
    loaded = loaded_by("import nblifts.experiments")
    assert "nblifts.experiments" in loaded
    assert not loaded & {"nblifts.bounds", "nblifts.cli"}


def test_submodule_attribute_imports_it():
    out = fresh_python("import nblifts\n"
                       "print(nblifts.spectral.alon_threshold(3, 0.0))")
    assert float(out) == pytest.approx(2 * 2 ** 0.5)


@pytest.mark.parametrize("name,module", HOMES)
def test_public_name_is_its_home_modules_object(name, module):
    home = getattr(nblifts, module)
    assert getattr(nblifts, name) is getattr(home, name)


def test_hashimoto_matrix_is_one_object():
    assert (nblifts.hashimoto_matrix is nblifts.walks.hashimoto_matrix
            is nblifts.spectral.hashimoto_matrix)


def test_star_import_and_dir_list_the_public_names():
    assert len(NAMES) == len(HOMES) == 106
    assert set(nblifts.__all__) == NAMES
    namespace = {}
    exec("from nblifts import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES
    assert NAMES <= set(dir(nblifts))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'nblifts' has no attribute 'no_such'$"):
        nblifts.no_such
    assert not hasattr(nblifts, "hashimoto")


def test_values_built_through_the_namespace_pickle():
    g = nblifts.complete_graph(4)
    cfg = nblifts.ExperimentConfig(
        base=g, model=nblifts.ModelSpec(), degrees=(6,), trials=2,
        epsilon=0.2, seed=1, tangle=nblifts.TangleQuery(nu=1.8, r=3))
    blob = pickle.dumps((g, cfg))
    assert pickle.loads(blob) == (g, cfg)
    # a fresh interpreter loads them with no nblifts import of its own
    out = fresh_python(
        "import pickle, sys\n"
        "g, cfg = pickle.load(sys.stdin.buffer)\n"
        "import nblifts\n"
        "print(g == nblifts.complete_graph(4), cfg.base == g,"
        " type(cfg) is nblifts.ExperimentConfig)", stdin=blob)
    assert out.split() == [b"True"] * 3
