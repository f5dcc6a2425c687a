import math
import tracemalloc

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
    NewExtremes,
    SpectralError,
    adjacency_matrix,
    adjacency_spectrum,
    alon_threshold,
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

from helpers import PETERSEN


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


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hashimoto_matrix_matches_the_per_entry_reference(seed):
    # random trees plus extra orbits: leaves, whole-loops, parallel edges
    # and, half the time, half-loops
    from helpers import random_connected_multigraph, reference_hashimoto_matrix
    g = random_connected_multigraph(np.random.default_rng(seed),
                                    max_vertices=7, max_extra=6,
                                    half_loop_prob=0.5)
    assert _same_bits(hashimoto_matrix(g), reference_hashimoto_matrix(g))


@pytest.mark.parametrize("g", [
    from_pairs(0, []),
    from_pairs(4, [(0, 1), (1, 1), (0, 1)], [1]),  # vertex 2 and 3 edgeless
    from_pairs(3, []),
], ids=["empty", "edgeless-vertices", "no-edges"])
def test_hashimoto_matrix_edge_cases_match_the_reference(g):
    from helpers import reference_hashimoto_matrix
    assert _same_bits(hashimoto_matrix(g), reference_hashimoto_matrix(g))


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


def _dense_mu1(g):
    return float(np.abs(np.linalg.eigvals(hashimoto_matrix(prune(g)))).max())


REGULAR_CORES = [
    bouquet(2), bouquet(1, 2), bouquet(0, 2), dipole(3), complete_graph(4),
    cycle_graph(5), from_pairs(2, [(0, 1)], [0, 1]),
    # K4 with a pendant path: not regular, but its core is
    from_pairs(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4),
                   (4, 5)]),
    sample_lift(bouquet(1, 2), 4, ModelSpec("permutation", "matching"),
                3).cover,
    sample_lift(dipole(3), 5, ModelSpec(), 1).cover,
]


def test_mu1_of_a_regular_core_is_exact(monkeypatch):
    dense = [_dense_mu1(g) for g in REGULAR_CORES]

    def refuse(*args):
        raise AssertionError("mu1 of a regular core needs no eigensolve")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(spectral, "_power_spectral_radius", refuse)
    for g, want in zip(REGULAR_CORES, dense):
        d = prune(g).regular_degree()
        assert mu1(g) == float(d - 1)
        assert abs(want - (d - 1)) <= 1e-9 * d, g


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_mu1_of_regular_multigraphs_matches_dense(nv, d, seed):
    # random stub pairing: leftover stubs are half-loops, a pair on one
    # vertex a whole-loop, repeated pairs parallel edges
    rng = np.random.default_rng(seed)
    stubs = rng.permutation(np.repeat(np.arange(nv), d)).tolist()
    halves = min(len(stubs), (nv * d) % 2 + 2 * int(rng.integers(0, 2)))
    rest = stubs[halves:]
    g = from_pairs(nv, list(zip(rest[0::2], rest[1::2])), stubs[:halves])
    assert g.regular_degree() == d
    assert mu1(g) == float(d - 1)
    assert abs(_dense_mu1(g) - (d - 1)) <= 1e-8 * d


def test_mu1_of_a_non_regular_core_above_the_dense_cap(monkeypatch):
    # degrees 2, 4, 2 (8 directed edges), and a non-regular cover of it
    base = from_pairs(3, [(0, 1), (1, 2), (0, 2), (1, 1)])
    graphs = [base, sample_lift(base, 4, ModelSpec(), 2).cover]
    dense = [_dense_mu1(g) for g in graphs]
    calls = []
    real = spectral._power_spectral_radius

    def counting(core):
        calls.append(core)
        return real(core)

    monkeypatch.setattr(spectral, "_power_spectral_radius", counting)
    monkeypatch.setattr(spectral, "DENSE_HASHIMOTO_CAP", 7)
    for g, want in zip(graphs, dense):
        assert prune(g).regular_degree() is None
        assert mu1(g) == pytest.approx(want, abs=1e-9)
    assert len(calls) == 2


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


def test_alon_bound_refuses_degree_zero():
    lift = sample_lift(from_pairs(2), 3, ModelSpec(), 0)
    for call in (lambda: non_alon_count(lift, 0.1),
                 lambda: is_ramanujan(from_pairs(2))):
        with pytest.raises(ValueError, match="degree 0 < 1"):
            call()


def test_ihara_check_passes_on_regular_graphs():
    for g in (cycle_graph(3), complete_graph(4), bouquet(2)):
        res = ihara_check(g)
        assert res.status == "checked" and res.passed, (res, g)


def test_ihara_check_covers_non_regular_and_half_loop_graphs():
    for g in (from_pairs(3, [(0, 1), (1, 2)]), bouquet(1, 1)):
        res = ihara_check(g)
        assert res.status == "checked" and res.passed, (res, g)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ihara_check_holds_on_every_small_multigraph(seed):
    # mostly non-regular, half the time with half-loops: the (1+u)^h factor
    # and the degree matrix D - I are both needed
    from helpers import random_connected_multigraph
    g = random_connected_multigraph(np.random.default_rng(seed),
                                    half_loop_prob=0.5)
    res = ihara_check(g)
    assert res.status == "checked" and res.passed, (res, g)


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
    data = spectral_report(lift, eps=0.2, with_hashimoto=True)
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
    vals = new_adjacency_extremes(lift, threshold).values
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
    found = new_adjacency_extremes(lift, threshold)
    vals = found.values
    dense = new_eigenvalues(lift)
    assert len(lanczos_dense_calls) == dense_runs
    assert found.count_above() == NewExtremes(dense, threshold).count_above()
    assert (any(abs(abs(v) - 3) <= 1e-6 for v in vals)
            == any(abs(abs(v) - 3) <= 1e-6 for v in dense))


def test_non_alon_lift_takes_dense_count(lanczos_dense_calls):
    lift = sample_lift(bouquet(2), 40, ModelSpec(), seed=7)
    dense_count = NewExtremes(new_eigenvalues(lift),
                              alon_threshold(4, 0.1)).count_above()
    assert dense_count > 0
    assert non_alon_count(lift, 0.1) == dense_count
    assert len(lanczos_dense_calls) == 1


def _reader_lift(name):
    """The lifts of the two tests above, and a K5 cover of 500 vertices."""
    if name == "k4_identity":
        base = complete_graph(4)
        return build_lift(base, PermutationAssignment.identity(base, 6))
    if name == "bouquet2_n40":
        return sample_lift(bouquet(2), 40, ModelSpec(), seed=7)
    return sample_lift(complete_graph(5), 100, ModelSpec(), seed=1)


@pytest.mark.parametrize("name,eps,lanczos_from,dense_runs,count", [
    ("k4_identity", 0.1, spectral.LANCZOS_MIN_VERTICES, 1, 5),  # dense
    ("k4_identity", 0.1, 0, 1, 5),  # Lanczos reaches 3 > 2.93: fallback
    ("k4_identity", 0.2, 0, 0, 0),  # Lanczos extremes kept
    ("bouquet2_n40", 0.1, 0, 1, None),  # fallback, some count above 0
    ("k5_n100", 0.1, spectral.LANCZOS_MIN_VERTICES, 0, 0),  # Lanczos
])
def test_three_readers_count_alike(name, eps, lanczos_from, dense_runs, count,
                                   dense_calls, monkeypatch):
    # the record, non_alon_count and spectral_report count alike, whichever
    # path (dense, Lanczos or the fallback) found the new eigenvalues
    monkeypatch.setattr(spectral, "LANCZOS_MIN_VERTICES", lanczos_from)
    lift = _reader_lift(name)
    d = lift.base.regular_degree()
    found = new_adjacency_extremes(lift, alon_threshold(d, eps))
    assert len(dense_calls) == dense_runs
    got = found.count_above()
    assert got == count if count is not None else got > 0
    assert non_alon_count(lift, eps) == got
    assert spectral_report(lift, eps)["non_alon_count"] == got


# the smallest K4 cover at LANCZOS_MIN_VERTICES, and one with 4 fewer
# vertices; and the readme_scan degrees 40 and 80 on either side of it
K4_AT_THE_BOUNDARY = -(-spectral.LANCZOS_MIN_VERTICES // 4)


@pytest.mark.parametrize("n,dense_runs", [
    (K4_AT_THE_BOUNDARY, 0), (K4_AT_THE_BOUNDARY - 1, 1), (40, 1), (80, 0),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_k4_cover_path_at_the_lanczos_boundary(n, dense_runs, seed,
                                               dense_calls):
    lift = sample_lift(complete_graph(4), n, ModelSpec(), seed)
    found = new_adjacency_extremes(lift, alon_threshold(3, 0.2))
    assert len(dense_calls) == dense_runs
    assert found.count_above() == 0


def _covers_from_the_boundary_to_400():
    """The smallest and largest cover degree of each base whose covers
    have between LANCZOS_MIN_VERTICES and 399 vertices."""
    cases = []
    for base, spec in [(complete_graph(4), ModelSpec()),
                       (complete_graph(5), ModelSpec()),
                       (bouquet(2), ModelSpec()),
                       (bouquet(2), ModelSpec("cyclic")),
                       (PETERSEN, ModelSpec())]:
        low = -(-spectral.LANCZOS_MIN_VERTICES // base.n)
        for n in (low, 399 // base.n):
            cases.append((base, spec, n))
    return cases


@pytest.mark.parametrize("base,spec,n", _covers_from_the_boundary_to_400())
def test_lanczos_extremes_match_dense_above_the_boundary(base, spec, n,
                                                         dense_calls):
    assert spectral.LANCZOS_MIN_VERTICES <= base.n * n < 400
    for seed in range(2):
        lift = sample_lift(base, n, spec, seed)
        found = new_adjacency_extremes(lift, math.inf)
        assert not dense_calls
        dense = new_eigenvalues(lift)
        assert abs(found.values[0] - dense[0]) <= 1e-12
        assert abs(found.values[-1] - dense[-1]) <= 1e-12


def test_disconnected_cover_at_320_vertices_stays_on_lanczos(dense_calls):
    # 80 copies of K4: the new eigenvalues are 3 and -1, and 3 is below
    # 2*sqrt(2) + 0.2 = 3.03, so the Lanczos extremes are kept
    base = complete_graph(4)
    lift = build_lift(base, PermutationAssignment.identity(base, 80))
    found = new_adjacency_extremes(lift, alon_threshold(3, 0.2))
    assert not dense_calls
    assert abs(found.max_abs - 3) <= 1e-12
    assert found.count_above() == 0


def test_lanczos_step_cap_falls_back_to_dense(lanczos_dense_calls,
                                              monkeypatch):
    lift = sample_lift(complete_graph(5), 30, ModelSpec(), seed=3)
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 1)
    assert lanczos_new_extremes(lift) is None
    vals = new_adjacency_extremes(lift, math.inf).values
    assert len(lanczos_dense_calls) == 1
    assert np.array_equal(vals, new_eigenvalues(lift))


@st.composite
def unreduced_tridiagonals(draw):
    """(alpha, beta) with nonzero beta; half of them are two mirrored copies
    of one block joined by a weak coupling, so that the two highest and the
    two lowest eigenvalues nearly coincide."""
    k = draw(st.integers(1, 40))
    alpha = draw(st.lists(st.floats(-3, 3), min_size=k, max_size=k))
    beta = [m if up else -m for m, up in draw(st.lists(
        st.tuples(st.floats(0.01, 3), st.booleans()),
        min_size=k - 1, max_size=k - 1))]
    if k >= 2 and draw(st.booleans()):
        h = k // 2
        coupling = 10.0 ** draw(st.floats(-12, -1))
        alpha = alpha[:h] + alpha[:h][::-1]
        beta = beta[:h - 1] + [coupling] + beta[:h - 1][::-1]
    return alpha, beta


@settings(max_examples=300, deadline=None)
@given(unreduced_tridiagonals())
def test_ritz_last_component_matches_eigh(tri):
    alpha, beta = tri
    k = len(alpha)
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    theta, s = np.linalg.eigh(t)
    scale = 1 + np.abs(theta).max()
    for idx, near in ((0, 1), (k - 1, k - 2)):
        got = spectral.ritz_last_component(alpha, beta, float(theta[idx]))
        gap = abs(theta[idx] - theta[near]) if k > 1 else math.inf
        resolved = gap >= 1e-8 * scale
        if math.isnan(got):
            assert not resolved
            continue  # the eigenvector is not determined to working precision
        assert 0 <= got <= 1 + 1e-12
        if resolved:
            # the eigenvector's error is about eps * |T| / gap
            assert abs(got - abs(s[-1, idx])) <= 1e-13 * scale / gap + 1e-14
        if k > 1:
            # whatever the split of a near-coincident pair, the vector
            # lies in its two-dimensional eigenspace
            assert got ** 2 <= s[-1, idx] ** 2 + s[-1, near] ** 2 + 1e-12


def test_ritz_last_component_on_nan_and_overflow():
    # nan entries and a zero pivot give nan, which fails every
    # "beta * |s_k| <= tol" test
    assert math.isnan(spectral.ritz_last_component([0.0, 1.0], [1.0],
                                                   math.nan))
    assert math.isnan(spectral.ritz_last_component([math.nan, 0.0, 1.0],
                                                   [1.0, 1.0], 2.0))
    assert math.isnan(spectral.ritz_last_component([1.0, 0.0, 0.0],
                                                   [1.0, 1.0], 1.0))
    # one row of 10 among zeros, joined by 1e-3: s decays by about 1e-4 per
    # row away from it, so |s_k| is about 1e-1600 with that row at the top
    # and about 1 with it at the bottom; ratios carried towards the peak
    # would overflow
    beta = [1e-3] * 399
    peak_top = [10.0] + [0.0] * 399
    t = np.diag(peak_top) + np.diag(beta, 1) + np.diag(beta, -1)
    top = float(np.linalg.eigvalsh(t)[-1])
    assert spectral.ritz_last_component(peak_top, beta, top) == 0.0
    _, s = np.linalg.eigh(t[::-1, ::-1])
    got = spectral.ritz_last_component(peak_top[::-1], beta, top)
    assert abs(got - abs(s[-1, -1])) <= 1e-14


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lanczos_never_returns_an_unconverged_bound(bad, lanczos_dense_calls,
                                                    monkeypatch):
    # small covers end at an invariant subspace within a few steps, and
    # large ones at the step cap: neither may return without the test
    monkeypatch.setattr(spectral, "ritz_last_component", lambda *args: bad)
    for base, spec, n in FIBRE_CASES:
        lift = sample_lift(base, n, spec, seed=31 + n)
        if base.n * (n - 1):
            assert lanczos_new_extremes(lift) is None
    lift = sample_lift(complete_graph(5), 30, ModelSpec(), seed=3)
    vals = new_adjacency_extremes(lift, math.inf).values
    assert len(lanczos_dense_calls) == 1
    assert np.array_equal(vals, new_eigenvalues(lift))


def test_lanczos_extremes_survive_lost_orthogonality(lanczos_dense_calls,
                                                     monkeypatch):
    base = bouquet(2)
    tol = _extremes_tol(base)
    worst_loss = 0.0
    real_matvec = spectral._gather_matvec
    for seed in range(8):
        lift = sample_lift(base, 100, ModelSpec(), seed=seed)
        dense = new_eigenvalues(lift)
        vectors = []

        def recording(qx, index):
            # A q is a gather from qx, q followed by the padding's 0.0:
            # read each Lanczos vector back
            vectors.append(qx[:-1].copy())
            return real_matvec(qx, index)

        monkeypatch.setattr(spectral, "_gather_matvec", recording)
        vals = new_adjacency_extremes(lift, math.inf).values
        monkeypatch.setattr(spectral, "_gather_matvec", real_matvec)
        basis = np.array(vectors)
        loss = np.abs(basis @ basis.T - np.eye(len(basis))).max()
        worst_loss = max(worst_loss, loss)
        assert abs(vals[0] - dense[0]) <= tol
        assert abs(vals[-1] - dense[-1]) <= tol
    assert not lanczos_dense_calls
    assert worst_loss > 0.1


# half-loops, whole-loops, parallel edges, non-regular bases, n = 2, and
# degree 10 (bouquet(5)), past numpy's 8-way unrolled pairwise sums
GATHER_CASES = [
    (bouquet(1, 2), ModelSpec("permutation", "matching"), 2),
    (bouquet(2, 1), ModelSpec("cyclic", "matching"), 6),
    (bouquet(0, 3), ModelSpec("permutation", "near_matching"), 7),
    (bouquet(5), ModelSpec(), 3),
    (dipole(3), ModelSpec(), 5),
    (from_pairs(3, [(0, 1), (1, 2), (0, 2), (1, 1)]), ModelSpec(), 2),
    (from_pairs(4, [(0, 1), (0, 1), (1, 2), (2, 2), (0, 3)], [2, 3]),
     ModelSpec("permutation", "matching"), 4),
    (from_pairs(2), ModelSpec(), 3),
]


def _assert_gather_equals_bincount(lift, seed):
    n = lift.assignment.degree
    size = lift.base.n * n
    rng = np.random.default_rng(seed)
    # magnitudes spread over 16 decades make every rounding order-sensitive
    q = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)
    qx = np.append(q, 0.0)
    got = spectral._gather_matvec(qx, spectral._gather_index(lift))
    tail, head = lift.edge_arrays
    assert got.shape == (lift.base.n, n)
    assert np.array_equal(got.ravel(),
                          np.bincount(tail, weights=q[head], minlength=size))


@pytest.mark.parametrize("base,spec,n", GATHER_CASES)
def test_gather_matvec_equals_the_bincount(base, spec, n):
    for seed in range(4):
        _assert_gather_equals_bincount(sample_lift(base, n, spec, seed), seed)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
def test_gather_matvec_equals_the_bincount_on_random_lifts(seed, n):
    from helpers import random_connected_multigraph
    rng = np.random.default_rng(seed)
    base = random_connected_multigraph(rng, max_vertices=5, max_extra=8,
                                       half_loop_prob=0.5)
    rule = "matching" if n % 2 == 0 else "near_matching"
    lift = sample_lift(base, n, ModelSpec("permutation", rule), seed)
    _assert_gather_equals_bincount(lift, seed)


# 22 lifts of 400 to 2000 vertices; the identity lift of K4 ends at an
# invariant subspace
@pytest.mark.parametrize("base,spec,n", [
    (complete_graph(5), ModelSpec(), 80),
    (complete_graph(5), ModelSpec(), 400),
    (complete_graph(4), ModelSpec(), 100),
    (bouquet(2), ModelSpec("cyclic"), 400),
    (bouquet(1, 2), ModelSpec("permutation", "matching"), 400),
    (dipole(3), ModelSpec(), 200),
    (from_pairs(3, [(0, 1), (1, 2), (0, 2), (1, 1)]), ModelSpec(), 150),
])
def test_lanczos_equals_the_bincount_reference(base, spec, n):
    from helpers import reference_lanczos_new_extremes
    lifts = [sample_lift(base, n, spec, seed) for seed in range(3)]
    if base == complete_graph(4):
        lifts.append(build_lift(base, PermutationAssignment.identity(base, n)))
    for lift in lifts:
        got = lanczos_new_extremes(lift)
        want = reference_lanczos_new_extremes(lift)
        assert got is not None and want is not None
        assert got.tobytes() == want.tobytes()


def _tridiagonal(alpha, beta):
    return np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)


def _lowest_and_highest(alpha, beta, low_start=math.nan,
                        high_start=math.nan):
    low = spectral.tridiagonal_lowest(alpha, beta, low_start)
    high = -spectral.tridiagonal_lowest([-a for a in alpha], beta, high_start)
    return low, high


@settings(max_examples=300, deadline=None)
@given(unreduced_tridiagonals())
def test_tridiagonal_lowest_matches_eigvalsh(tri):
    alpha, beta = tri
    theta = np.linalg.eigvalsh(_tridiagonal(alpha, beta))
    tol = 1e-14 * (1 + np.abs(theta).max())
    low, high = _lowest_and_highest(alpha, beta)
    assert abs(low - theta[0]) <= tol
    assert abs(high - theta[-1]) <= tol


@settings(max_examples=200, deadline=None)
@given(unreduced_tridiagonals(), st.sampled_from(
    ["nan", "inf", "top", "second", "inside", "at", "below"]))
def test_tridiagonal_lowest_survives_a_wrong_start(tri, where):
    # a start above the extreme fails its first Sturm count and restarts
    # from the Gershgorin bound; one below it is climbed from
    alpha, beta = tri
    theta = np.linalg.eigvalsh(_tridiagonal(alpha, beta))
    tol = 1e-14 * (1 + np.abs(theta).max())
    gap = theta[1] - theta[0] if len(theta) > 1 else 1.0
    start = {"nan": math.nan, "inf": math.inf, "top": theta[-1] + 1.0,
             "second": theta[min(1, len(theta) - 1)],
             "inside": theta[0] + gap / 2, "at": theta[0],
             "below": theta[0] - 1e-3}[where]
    got = spectral.tridiagonal_lowest(alpha, beta, float(start))
    assert abs(got - theta[0]) <= tol


@pytest.mark.parametrize("coupling", [1e-12, 1e-11, 1e-10, 1e-9, 1e-7])
@pytest.mark.parametrize("diagonal", [-2.7, -0.3, 0.0, 1.9])
def test_tridiagonal_lowest_on_a_tight_pair(diagonal, coupling):
    # every eigenvalue in one cluster: without its rounding floor the
    # discriminant cancels and a step lands between the two eigenvalues
    alpha, beta = [diagonal, diagonal], [coupling]
    low, high = _lowest_and_highest(alpha, beta)
    tol = 1e-14 * (1 + abs(diagonal))
    assert abs(low - (diagonal - coupling)) <= tol
    assert abs(high - (diagonal + coupling)) <= tol


@pytest.mark.parametrize("alpha,beta", [
    ([math.nan, 0.0, 1.0], [1.0, 1.0]),
    ([0.0, 1.0, math.inf], [1.0, 1.0]),
    ([0.0, 1.0, 2.0], [1.0, -math.inf]),
    ([0.0, 1.0, 2.0], [math.nan, 1.0]),
    ([math.inf], []),
])
def test_tridiagonal_lowest_on_nan_and_inf(alpha, beta):
    assert math.isnan(spectral.tridiagonal_lowest(alpha, beta))
    assert math.isnan(spectral.tridiagonal_lowest(alpha, beta, 0.0))


def test_tridiagonal_lowest_pass_cap_gives_nan(monkeypatch):
    alpha, beta = [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0]
    monkeypatch.setattr(spectral, "LAGUERRE_MAX_PASSES", 1)
    assert math.isnan(spectral.tridiagonal_lowest(alpha, beta))


@pytest.mark.parametrize("base,spec,n", FIBRE_CASES)
def test_lanczos_extremes_need_no_eigensolver(base, spec, n, monkeypatch):
    lift = sample_lift(base, n, spec, seed=31 + n)
    dense = new_eigenvalues(lift)

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    vals = lanczos_new_extremes(lift)
    if not len(dense):
        assert len(vals) == 0
        return
    tol = _extremes_tol(base)
    assert abs(vals[0] - dense[0]) <= tol
    assert abs(vals[-1] - dense[-1]) <= tol


def test_lanczos_memory_is_linear_in_cover_size():
    # K5 cover of 10^4 vertices; a (500, N) basis alone would be 40 MB
    lift = sample_lift(complete_graph(5), 2000, ModelSpec(), seed=1)
    tracemalloc.start()
    try:
        vals = lanczos_new_extremes(lift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals is not None and len(vals) == 2
    assert peak < 8e6


def _spy_lowest(monkeypatch):
    """Record (alpha, beta) of every convergence check: each check calls
    tridiagonal_lowest on T and then on -T."""
    calls = []
    real = spectral.tridiagonal_lowest

    def spy(alpha, beta, start=math.nan):
        calls.append((list(alpha), list(beta)))
        return real(alpha, beta, start)

    monkeypatch.setattr(spectral, "tridiagonal_lowest", spy)
    return calls


def test_lanczos_checks_at_an_off_schedule_step_cap(monkeypatch):
    # the step cap is checked even where the schedule would not check
    base = bouquet(2)
    lift = sample_lift(base, 500, ModelSpec(), seed=0)
    seen = _spy_lowest(monkeypatch)
    assert lanczos_new_extremes(lift) is not None
    schedule = [len(a) for a, _ in seen[::2]]
    alpha, beta = seen[-2]

    def every_step_check_passes(m):
        # the test at step m with an eigensolver: beta_m |s_m| of each extreme
        _, s = np.linalg.eigh(_tridiagonal(alpha[:m], beta[:m - 1]))
        bound = beta[m - 1] * max(abs(s[-1, 0]), abs(s[-1, -1]))
        return bound <= spectral.LANCZOS_TOL / 2

    off = [m for m in range(2, schedule[-1])
           if m not in schedule and every_step_check_passes(m)]
    assert off, schedule
    seen.clear()
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", off[0])
    vals = lanczos_new_extremes(lift)
    assert [len(a) for a, _ in seen[::2]] == (
        [m for m in schedule if m < off[0]] + [off[0]])
    dense = new_eigenvalues(lift)
    tol = _extremes_tol(base)
    assert abs(vals[0] - dense[0]) <= tol
    assert abs(vals[-1] - dense[-1]) <= tol


# tridiagonal_lowest calls measured with the residual-driven schedule; a
# check every 20 steps made 22, 26 and 20
@pytest.mark.parametrize("base,seed,calls", [
    (complete_graph(5), 1, 10), (complete_graph(4), 1, 10), (bouquet(2), 0, 8),
])
def test_lanczos_checks_follow_the_residual_decay(base, seed, calls,
                                                  monkeypatch):
    lift = sample_lift(base, 2000 // base.n, ModelSpec(), seed=seed)
    dense = new_eigenvalues(lift)
    seen = _spy_lowest(monkeypatch)
    vals = lanczos_new_extremes(lift)
    assert len(seen) <= calls
    tol = _extremes_tol(base)
    assert abs(vals[0] - dense[0]) <= tol
    assert abs(vals[-1] - dense[-1]) <= tol


@pytest.mark.parametrize("last,step,bound,gap", [
    (None, 20, 1e-2, 20),              # first check: no decay yet
    ((20, 1e-2), 40, 1e-2, 20),        # the bound did not fall
    ((20, 1e-2), 40, 2e-2, 20),
    ((20, 1e-2), 40, math.nan, 20),    # nor is nan below anything
    ((20, math.nan), 40, 1e-3, 20),
    ((20, 1e-2), 40, 1e-8, 6),         # 0.8 x 6.7 steps, rounded up
    ((100, 1e-2), 110, 3e-4, 35),      # 0.8 x 42.5
    ((20, 1e-2), 40, 9e-3, 80),        # far off: capped
    ((20, 1e-1), 21, 2e-10, 5),        # next step: at least the minimum
])
def test_check_gap(last, step, bound, gap):
    assert spectral._check_gap(last, step, bound) == gap


def test_ihara_check_fails_on_a_corrupted_hashimoto_matrix(monkeypatch):
    real = spectral.hashimoto_matrix

    def one_entry_zeroed(graph):
        h = real(graph)
        i, j = np.argwhere(h)[0]
        h[i, j] = 0.0
        return h

    monkeypatch.setattr(spectral, "hashimoto_matrix", one_entry_zeroed)
    # a K4 cover, and a non-regular graph with half-loops (degrees 5, 4, 3)
    for g in (sample_lift(complete_graph(4), 60, ModelSpec(), 0).cover,
              from_pairs(3, [(0, 1), (0, 1), (0, 0), (1, 2), (2, 2)],
                         [0, 1])):
        res = ihara_check(g)
        assert res.status == "checked" and res.passed is False
        assert res.max_err > 1e-3


def test_ihara_check_degree_at_most_two_and_forests():
    from nblifts.graphs import path_graph
    # d = 2, 1, 2, 2 and 0; path_graph(1) and from_pairs(3) have #E < #V
    for g in (cycle_graph(5), path_graph(1), bouquet(1), dipole(2),
              from_pairs(3)):
        res = ihara_check(g)
        assert res.status == "checked" and res.passed, (res, g)
        assert res.max_err <= 1e-12


def test_ihara_check_computes_no_spectrum(monkeypatch):
    def refuse(*args):
        raise AssertionError("ihara_check must not solve or match spectra")

    for name in ("hashimoto_spectrum", "adjacency_spectrum",
                 "multiset_difference"):
        monkeypatch.setattr(spectral, name, refuse)
    for g in (complete_graph(4), bouquet(2),
              sample_lift(dipole(3), 8, ModelSpec(), 1).cover):
        assert ihara_check(g).passed


def test_ihara_check_is_deterministic():
    g = sample_lift(complete_graph(5), 6, ModelSpec(), 3).cover
    assert ihara_check(g) == ihara_check(g)
