"""Random covering graphs of a fixed base, their non-backtracking spectra,
tangle scans, magnification checks and the counting-bound toolkit.

The central objects: a Graph (multigraph with an edge involution; half-loops
are fixed points, whole-loops are orbits with equal endpoints), a
PermutationAssignment (one permutation of [n] per directed base edge,
inverse on partners) and the Lift it glues.  Spectral tools separate the
cover's eigenvalues into the pulled-back base spectrum and the new part,
count new eigenvalues beyond 2*sqrt(d-1) + eps, scan covers for tangles
and test vertex magnification.

The package namespace is lazy (PEP 562): ``import nblifts`` loads no
submodule and no numpy.  Reading a public name, such as
``nblifts.sample_lift`` or ``nblifts.spectral``, imports its home module
on first access and keeps the value here, and ``from nblifts import *``
binds every name listed in ``_EXPORTS``.  Importing one submodule loads
only what it imports: ``nblifts.walks`` needs ``graphs`` alone, and
``spectral`` imports ``walks`` and ``lifts``.
"""

import importlib

__version__ = "0.1.0"

# The public names, by home module.
_EXPORTS = {
    "graphs": (
        "ArgumentError",
        "Graph",
        "GraphFormatError",
        "GraphMorphism",
        "bouquet",
        "complete_graph",
        "cycle_graph",
        "dipole",
        "empty_graph",
        "from_orbits",
        "from_pairs",
        "girth",
        "graph_from_json",
        "graph_to_json",
        "induced_subgraph",
        "is_covering",
        "is_etale",
        "load_graph",
        "path_graph",
        "prune",
        "save_graph",
        "subgraph_from_orbits",
    ),
    "lifts": (
        "Lift",
        "ModelError",
        "ModelSpec",
        "PermutationAssignment",
        "build_lift",
        "holonomy_generators",
        "orbit_count",
        "sample_assignment",
        "sample_lift",
        "validate_model",
    ),
    "spectral": (
        "IharaResult",
        "NewExtremes",
        "SpectralError",
        "SpectrumMultiset",
        "adjacency_matrix",
        "adjacency_spectrum",
        "alon_threshold",
        "hashimoto_spectrum",
        "ihara_check",
        "is_ramanujan",
        "lambda2",
        "mu1",
        "multiset_contains",
        "multiset_difference",
        "new_adjacency_extremes",
        "new_eigenvalues",
        "new_spectrum",
        "non_alon_count",
        "spectral_report",
    ),
    "walks": (
        "BudgetExceededError",
        "HomotopyType",
        "Walk",
        "beads",
        "count_snbc_dfs",
        "enumerate_snbc",
        "hashimoto_matrix",
        "snbc_by_type",
        "snbc_count",
        "suppress_beads",
        "visited_subgraph",
        "vlg",
        "walk_reduction",
        "write_walk_census",
    ),
    "tangles": (
        "TangleQuery",
        "TangleReport",
        "TangleWitness",
        "TooSymmetricError",
        "canonical_form",
        "contract_nonloop_edge",
        "example_tangles",
        "identify_distance_two",
        "is_tangle",
        "m_no_whole",
        "m_whole",
        "scan_tangles",
        "tau_tang_lower_no_whole",
        "tau_tang_lower_whole",
    ),
    "magnify": (
        "MagnificationResult",
        "VertexSubset",
        "alon_gap_bound",
        "alon_gap_check",
        "best_gamma_exhaustive",
        "fibre_imbalance_expansion",
        "imbalance_rate",
        "is_magnifier",
        "is_pseudo_magnifier",
        "lift_fibre_blocks",
        "neighborhood",
    ),
    "bounds": (
        "EntropyEstimate",
        "binom_estimate_witness",
        "full_cycle_containment_bound",
        "h2",
        "h2_second_derivative",
        "involution_containment_bound",
        "odd_binom",
        "odd_binom_exact",
        "perm_containment_prob",
        "verify_binom_estimate",
    ),
    "experiments": (
        "ConfigError",
        "ExperimentConfig",
        "ExperimentReport",
        "conditioned_nonalon",
        "conditioned_rows",
        "fit_scaling",
        "run_experiment",
        "wilson_interval",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
