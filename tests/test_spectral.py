import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nblifts.graphs import (
    bouquet, complete_graph, cycle_graph, dipole, from_pairs, prune,
)
from nblifts.lifts import (
    ModelSpec, PermutationAssignment, build_lift, sample_lift,
)
from nblifts import spectral
from nblifts.spectral import (
    SpectralError,
    adjacency_matrix,
    adjacency_spectrum,
    alon_threshold,
    count_non_alon,
    hashimoto_matrix,
    hashimoto_spectrum,
    ihara_check,
    is_ramanujan,
    lambda2,
    lanczos_new_extremes,
    mu1,
    multiset_contains,
    multiset_difference,
    new_adjacency_extremes,
    new_eigenvalues,
    new_spectrum,
    non_alon_count,
    spectral_report,
)


def block_ring(c):
    """Ring of c copies of K4-minus-an-edge; 3-regular with a long bottleneck."""
    pairs = []
    for i in range(c):
        a, b, x, y = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        pairs += [(a, x), (a, y), (b, x), (b, y), (x, y)]
        pairs.append((b, 4 * ((i + 1) % c)))
    return from_pairs(4 * c, pairs)


def test_adjacency_matrix_loops():
    assert adjacency_matrix(bouquet(1)).tolist() == [[2.0]]
    assert adjacency_matrix(bouquet(0, 1)).tolist() == [[1.0]]
    a = adjacency_matrix(complete_graph(4))
    assert np.array_equal(a, np.ones((4, 4)) - np.eye(4))


def test_adjacency_row_sums_are_degrees():
    g = from_pairs(3, [(0, 1), (1, 2), (1, 1)], [2])
    a = adjacency_matrix(g)
    assert np.array_equal(a, a.T)
    assert a.sum(axis=1).tolist() == list(g.degrees())


def test_hashimoto_whole_loop():
    h = hashimoto_matrix(bouquet(1))
    assert h.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_hashimoto_half_loop():
    assert hashimoto_matrix(bouquet(0, 1)).tolist() == [[0.0]]


def test_hashimoto_triangle_row_sums():
    h = hashimoto_matrix(cycle_graph(3))
    assert h.shape == (6, 6)
    assert h.sum(axis=1).tolist() == [1.0] * 6


def test_mu1_values():
    assert mu1(complete_graph(4)) == pytest.approx(2.0, rel=1e-10)
    for k in (3, 5, 8):
        assert mu1(cycle_graph(k)) == pytest.approx(1.0, rel=1e-10)
    for m in (2, 3, 5):
        assert mu1(dipole(m)) == pytest.approx(m - 1, rel=1e-10)
    for m in (1, 2, 3):
        assert mu1(bouquet(m)) == pytest.approx(2 * m - 1, rel=1e-9)


def test_mu1_forest_and_empty():
    assert mu1(from_pairs(3, [(0, 1), (1, 2)])) == 0.0
    with pytest.raises(ValueError):
        mu1(from_pairs(0, []))


def test_mu1_gt_one_iff_negative_euler_char():
    cases = [
        cycle_graph(5),                      # chi = 0
        from_pairs(2, [(0, 1)], [0, 1]),     # half-loop dumbbell, chi = 0
        complete_graph(4),                   # chi < 0
        dipole(3),                           # chi < 0
        bouquet(1, 1),                       # chi = -1/2
        bouquet(2),                          # chi = -1
    ]
    for g in cases:
        assert g.is_connected() and prune(g) == g
        if g.euler_char() < 0:
            assert mu1(g) > 1 + 1e-9
        else:
            assert mu1(g) == pytest.approx(1.0, abs=1e-9)


def test_mu1_gt_one_iff_negative_euler_char_enumerated():
    # same dichotomy over every connected pruned graph in the small corpus
    from helpers import connected_multigraph_corpus
    checked = 0
    for g in connected_multigraph_corpus(max_vertices=3, max_orbits=4):
        if g.n == 0 or prune(g) != g or not g.is_connected():
            continue
        checked += 1
        if g.euler_char() < 0:
            assert mu1(g) > 1 + 1e-9, g
        else:
            assert mu1(g) == pytest.approx(1.0, abs=1e-8), g
    assert checked > 30


def test_new_hashimoto_spectrum_size():
    b = complete_graph(4)
    lift = sample_lift(b, 3, ModelSpec(), seed=8)
    new_h = new_spectrum(lift, "hashimoto", tol=1e-6)
    assert len(new_h) == (3 - 1) * b.num_directed


def test_power_iteration_matches_dense():
    from nblifts.spectral import _power_spectral_radius
    for g, expect in [(complete_graph(4), 2.0), (cycle_graph(5), 1.0),
                      (dipole(3), 2.0), (bouquet(2), 3.0),
                      (from_pairs(2, [(0, 1)], [0, 1]), 1.0)]:
        assert _power_spectral_radius(g) == pytest.approx(expect, abs=1e-9)


def test_multiset_difference_basics():
    rest, err = multiset_difference([1.0, 2.0, 2.0 + 1e-9], [2.0], 1e-7)
    assert err <= 1e-8
    assert len(rest) == 2
    with pytest.raises(SpectralError):
        multiset_difference([1.0, 2.0], [5.0], 1e-7)


def test_new_spectrum_trivial_lift_is_empty():
    b = complete_graph(4)
    lift = build_lift(b, PermutationAssignment.identity(b, 1))
    assert len(new_spectrum(lift)) == 0
    assert non_alon_count(lift, 0.1) == 0


def test_new_spectrum_three_cycle_cover():
    b = bouquet(1)
    lift = build_lift(b, PermutationAssignment.from_dict(b, 3, {0: [1, 2, 0]}))
    new = new_spectrum(lift)
    assert np.allclose(sorted(new.values), [-1.0, -1.0], atol=1e-9)
    # base is 2-regular, so the threshold is 2 + eps and nothing exceeds it
    assert non_alon_count(lift, 0.1) == 0


def test_new_spectrum_size_and_containment():
    cases = [
        (complete_graph(4), ModelSpec(), 6),
        (bouquet(2), ModelSpec("cyclic"), 7),
        (bouquet(0, 3), ModelSpec("permutation", "near_matching"), 5),
    ]
    for base, spec, n in cases:
        lift = sample_lift(base, n, spec, seed=17)
        new = new_spectrum(lift)
        assert len(new) == (n - 1) * base.n
        assert multiset_contains(adjacency_spectrum(lift.cover),
                                 adjacency_spectrum(base), 1e-7)


def test_disconnected_lift_has_non_alon_eigenvalue():
    b = complete_graph(4)
    by_rep = {rep: [1, 0, 3, 2] for rep in b.orientation()}
    lift = build_lift(b, PermutationAssignment.from_dict(b, 4, by_rep))
    new = new_spectrum(lift)
    assert any(abs(v - 3.0) <= 1e-7 for v in new.values)
    assert non_alon_count(lift, 0.1) >= 1


def test_non_alon_monotone_in_eps():
    b = complete_graph(4)
    by_rep = {rep: [1, 0, 3, 2] for rep in b.orientation()}
    lift = build_lift(b, PermutationAssignment.from_dict(b, 4, by_rep))
    counts = [non_alon_count(lift, eps) for eps in (0.01, 0.05, 0.1, 0.17, 0.2)]
    assert counts == sorted(counts, reverse=True)


def test_is_ramanujan():
    assert is_ramanujan(complete_graph(4))
    assert is_ramanujan(cycle_graph(6))
    assert is_ramanujan(cycle_graph(7))
    g = block_ring(6)
    # eigensolve oracle: lambda2 exceeds the bulk bound
    assert lambda2(g) > 2 * math.sqrt(2) + 1e-6
    assert not is_ramanujan(g)
    with pytest.raises(ValueError):
        is_ramanujan(from_pairs(2, [(0, 1)], [0]))


def test_ihara_check_passes_on_regular_graphs():
    for g in (cycle_graph(3), complete_graph(4), bouquet(2)):
        res = ihara_check(g)
        assert res.status == "checked" and res.passed, (res, g)


def test_ihara_check_skips():
    assert ihara_check(from_pairs(3, [(0, 1), (1, 2)])).status == "skipped-nonregular"
    assert ihara_check(bouquet(1, 1)).status == "skipped-half-loop"


def test_bipartite_lift_spectral_symmetry():
    k33 = from_pairs(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert k33.is_bipartite() and k33.regular_degree() == 3
    lift = sample_lift(k33, 3, ModelSpec(), seed=2)
    sp = adjacency_spectrum(lift.cover)
    assert np.allclose(sp, -sp[::-1], atol=1e-8)
    hsp = hashimoto_spectrum(lift.cover)
    plus = sum(1 for z in hsp if abs(z - 2) <= 1e-6)
    minus = sum(1 for z in hsp if abs(z + 2) <= 1e-6)
    assert plus == minus >= 1


def test_spectral_report_json():
    b = complete_graph(4)
    lift = sample_lift(b, 3, ModelSpec(), seed=1)
    rep = spectral_report(lift, eps=0.2, with_hashimoto=True)
    data = rep.to_json()
    assert data["non_alon_count"] == 0
    assert data["ramanujan_base"] is True
    assert len(data["new_adjacency"]["values"]) == 2 * 4
    assert len(data["hashimoto"]["values"]) == 12 * 3


FIBRE_CASES = [
    (complete_graph(4), ModelSpec(), 5),
    (bouquet(2), ModelSpec("cyclic"), 5),
    (bouquet(1, 2), ModelSpec("permutation", "matching"), 6),
    (bouquet(0, 3), ModelSpec("permutation", "near_matching"), 7),
    (bouquet(2, 1), ModelSpec("cyclic", "matching"), 6),
    (from_pairs(3, [(0, 1), (1, 2), (0, 2), (1, 1)]), ModelSpec(), 4),
    (from_pairs(3, [(0, 1), (1, 2)]), ModelSpec(), 3),   # tree: H nilpotent
    (complete_graph(4), ModelSpec(), 1),
]


@pytest.mark.parametrize("which", ["adjacency", "hashimoto"])
@pytest.mark.parametrize("base,spec,n", FIBRE_CASES)
def test_new_spectrum_is_full_minus_base(base, spec, n, which):
    spectrum = adjacency_spectrum if which == "adjacency" else hashimoto_spectrum
    lift = sample_lift(base, n, spec, seed=31 + n)
    expected, _ = multiset_difference(spectrum(lift.cover), spectrum(base), 1e-6)
    new = new_spectrum(lift, which)
    blocks = base.n if which == "adjacency" else base.num_directed
    assert len(new) == len(expected) == (n - 1) * blocks
    assert multiset_contains(expected, new.values, 1e-6)


def test_power_iteration_raises_when_not_converged():
    from nblifts.spectral import _power_spectral_radius
    with pytest.raises(SpectralError, match="did not converge"):
        _power_spectral_radius(complete_graph(4), max_iter=1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_matrices_match_loop_reference(seed):
    from helpers import loop_adjacency_matrix, random_connected_multigraph
    rng = np.random.default_rng(seed)
    g = random_connected_multigraph(rng, max_vertices=7, max_extra=8,
                                    half_loop_prob=0.5)
    assert np.array_equal(adjacency_matrix(g), loop_adjacency_matrix(g))


def _extremes_tol(base):
    return 1e-12 * (1 + max(base.degrees(), default=0))


def _threshold(base, kind):
    if kind == "inf":
        return math.inf
    return alon_threshold(max(base.degrees()), 0.1)


@pytest.mark.parametrize("base,spec,n", FIBRE_CASES)
def test_lanczos_extremes_match_dense(base, spec, n):
    lift = sample_lift(base, n, spec, seed=31 + n)
    dense = new_eigenvalues(lift)
    vals = lanczos_new_extremes(lift)
    if not len(dense):
        assert len(vals) == 0
        return
    tol = _extremes_tol(base)
    assert abs(vals[0] - dense[0]) <= tol
    assert abs(vals[-1] - dense[-1]) <= tol


@pytest.fixture
def lanczos_dense_calls(dense_calls, monkeypatch):
    """dense_calls, with every cover above the Lanczos size constant."""
    monkeypatch.setattr(spectral, "LANCZOS_MIN_VERTICES", 0)
    return dense_calls


@pytest.mark.parametrize("kind", ["inf", "alon"])
@pytest.mark.parametrize("base,spec,n", FIBRE_CASES)
def test_new_adjacency_extremes_agree_with_dense(base, spec, n, kind,
                                                 lanczos_dense_calls):
    lift = sample_lift(base, n, spec, seed=31 + n)
    threshold = _threshold(base, kind)
    dense = new_eigenvalues(lift)
    vals = new_adjacency_extremes(lift, threshold)
    tol = _extremes_tol(base)
    assert (np.sum(np.abs(vals) > threshold)
            == np.sum(np.abs(dense) > threshold))
    if len(dense):
        assert abs(np.abs(vals).max() - np.abs(dense).max()) <= tol
        assert abs(vals.max() - dense.max()) <= tol
    if kind == "inf" and len(dense):
        assert not lanczos_dense_calls


@pytest.mark.parametrize("eps,dense_runs", [(0.1, 1), (0.2, 0)])
def test_disconnected_cover_extremes(eps, dense_runs, lanczos_dense_calls):
    # K4 lifted by identity permutations: new eigenvalues 3 and -1, so
    # 2*sqrt(2) + 0.1 < 3 forces the dense count and 2*sqrt(2) + 0.2 does not
    base = complete_graph(4)
    lift = build_lift(base, PermutationAssignment.identity(base, 6))
    threshold = alon_threshold(3, eps)
    vals = new_adjacency_extremes(lift, threshold)
    dense = new_eigenvalues(lift)
    assert len(lanczos_dense_calls) == dense_runs
    assert count_non_alon(vals, 3, eps) == count_non_alon(dense, 3, eps)
    assert (any(abs(abs(v) - 3) <= 1e-6 for v in vals)
            == any(abs(abs(v) - 3) <= 1e-6 for v in dense))


def test_non_alon_lift_takes_dense_count(lanczos_dense_calls):
    lift = sample_lift(bouquet(2), 40, ModelSpec(), seed=7)
    dense_count = count_non_alon(new_eigenvalues(lift), 4, 0.1)
    assert dense_count > 0
    assert non_alon_count(lift, 0.1) == dense_count
    assert len(lanczos_dense_calls) == 1


def test_lanczos_step_cap_falls_back_to_dense(lanczos_dense_calls,
                                              monkeypatch):
    lift = sample_lift(complete_graph(5), 30, ModelSpec(), seed=3)
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 1)
    assert lanczos_new_extremes(lift) is None
    vals = new_adjacency_extremes(lift, math.inf)
    assert len(lanczos_dense_calls) == 1
    assert np.array_equal(vals, new_eigenvalues(lift))
