"""The per-base plan (lifts.base_plan) and the one-pass trial steps that read
it: the assignment check, the holonomy generators and NewExtremes'
summaries, each against the form it replaced (kept in helpers)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nblifts.experiments import ExperimentConfig, run_trial
from nblifts.graphs import (
    bouquet, complete_graph, cycle_graph, dipole, from_pairs,
)
from nblifts.lifts import (
    ModelSpec,
    PermutationAssignment,
    base_plan,
    holonomy_generators,
    sample_assignment,
    sample_lift,
)
from nblifts.spectral import (
    LANCZOS_TOL,
    NewExtremes,
    adjacency_spectrum,
    lanczos_new_extremes,
    new_eigenvalues,
)

from helpers import (
    random_connected_multigraph,
    reference_holonomy_generators,
    reference_sort_assignment_error,
    reference_summaries,
)

# half-loops (one of them at a degree-1 vertex), whole-loops, parallel
# edges, a pendant edge, and no edges at all
CHECK_BASES = [
    bouquet(2),
    bouquet(1, 2),
    bouquet(0, 1),
    from_pairs(2, [(0, 1)]),
    complete_graph(3),
    dipole(2),
    from_pairs(3, [(0, 1), (1, 2), (1, 1)], [0, 2]),
    from_pairs(2),
]


def test_assignment_copies_the_callers_array():
    base = complete_graph(3)
    s = PermutationAssignment.identity(base, 4).sigma.copy()
    a = PermutationAssignment(base, 4, s)
    assert a.sigma is not s
    assert s.flags.writeable and not a.sigma.flags.writeable
    s[0] = [1, 0, 3, 2]
    assert np.array_equal(a.sigma, np.tile(np.arange(4), (6, 1)))


def test_not_a_permutation_wins_over_not_inverse():
    # row 0 repeats an entry and is not inverse to row 1 either
    base = bouquet(1)
    sig = np.array([[0, 0, 1], [1, 2, 0]])
    with pytest.raises(ValueError, match=r"^sigma\[0\] is not a permutation$"):
        PermutationAssignment(base, 3, sig)
    # row 0 is a permutation; its partner row 1 is too, but not its inverse
    sig = np.array([[1, 2, 0], [1, 2, 0]])
    with pytest.raises(ValueError, match="edge 0 and its partner"):
        PermutationAssignment(base, 3, sig)


def _valid_sigma(data, base, n):
    """A legal assignment: a random permutation per orbit, inverted on the
    partner, and an involution on each half-loop."""
    sig = np.empty((base.num_directed, n), dtype=np.int64)
    for rep in base.orientation():
        perm = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        if base.inv[rep] == rep:  # pair consecutive entries of perm
            order, perm = perm, np.arange(n)
            a, b = order[0:n - 1:2], order[1::2]
            perm[a], perm[b] = b, a
        sig[rep] = perm
        sig[base.inv[rep]] = np.argsort(perm)
    return sig


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_assignment_check_refuses_what_the_sort_check_refuses(data):
    base = data.draw(st.sampled_from(CHECK_BASES))
    n = data.draw(st.integers(1, 6))
    m = base.num_directed
    how = data.draw(st.sampled_from(["valid", "damaged", "rows", "random"]))
    if how == "random":  # any small ints, negative and past n included
        sig = np.array(data.draw(st.lists(
            st.integers(-3, n + 2), min_size=m * n, max_size=m * n)),
            dtype=np.int64).reshape(m, n)
    elif how == "rows":  # every row a permutation, partners rarely inverse
        sig = np.array([data.draw(st.permutations(range(n)))
                        for _ in range(m)], dtype=np.int64).reshape(m, n)
    else:
        sig = _valid_sigma(data, base, n)
    if how == "damaged" and m:
        for _ in range(data.draw(st.integers(1, 3))):
            e = data.draw(st.integers(0, m - 1))
            i, j = data.draw(st.integers(0, n - 1)), data.draw(
                st.integers(0, n - 1))
            kind = data.draw(st.sampled_from(["value", "copy", "swap"]))
            if kind == "value":   # negative, past n, or in range
                sig[e, i] = data.draw(st.integers(-n - 2, 2 * n + 2))
            elif kind == "copy":  # a repeated entry
                sig[e, i] = sig[e, j]
            else:                 # still a permutation, maybe not inverse
                sig[e, [i, j]] = sig[e, [j, i]]
    expected = reference_sort_assignment_error(base, n, sig)
    if expected is None:
        assert np.array_equal(PermutationAssignment(base, n, sig).sigma, sig)
    else:
        with pytest.raises(ValueError) as err:
            PermutationAssignment(base, n, sig)
        assert str(err.value) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_plan_matches_the_base(seed, n):
    rng = np.random.default_rng(seed)
    base = random_connected_multigraph(rng, max_vertices=6, max_extra=6,
                                       half_loop_prob=0.5)
    plan = base_plan(base)
    assert plan is base_plan(base)
    assert plan.connected and plan.reps == base.orientation()
    assert plan.maxdeg == max(base.degrees(), default=0)
    for v in range(base.n):
        row = plan.out_table[:, v].tolist()
        assert row == list(base.out_edges(v)) + [base.num_directed] * (
            plan.maxdeg - base.degree(v))
    tree = {min(e, base.inv[e]) for e, _, _ in plan.tree}
    assert len(plan.tree) == base.n - 1
    assert sorted(tree | set(plan.cycles[:, 0].tolist())) == list(plan.reps)
    rule = "matching" if n % 2 == 0 else "near_matching"
    lift = sample_lift(base, n, ModelSpec("permutation", rule), seed)
    got = holonomy_generators(lift)
    want = reference_holonomy_generators(lift)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_plan_of_a_disconnected_base():
    base = from_pairs(4, [(0, 1), (2, 3)])
    assert not base_plan(base).connected
    lift = sample_lift(base, 3, ModelSpec(), 1)
    assert not lift.is_connected()
    with pytest.raises(ValueError, match="connected base"):
        holonomy_generators(lift)


_REPR_FLOATS = st.one_of(
    st.sampled_from([-4.0, -3.6, -3.5, -1.0, -0.0, 0.0, 5e-324, 1e-10, 2.0,
                     3.5, 3.6, 4.0]),
    st.floats(-5, 5, allow_nan=False))


def _assert_summaries(values, threshold, base_spectrum):
    found = NewExtremes(values, threshold)
    for margin in (0.0, LANCZOS_TOL):
        count, max_abs, lam2 = reference_summaries(values, threshold,
                                                   base_spectrum, margin)
        assert repr(found.count_above(margin)) == repr(count)
        assert repr(found.max_abs) == repr(max_abs)
        assert repr(found.lambda2(base_spectrum)) == repr(lam2)


@settings(max_examples=600, deadline=None)
@given(st.lists(_REPR_FLOATS, max_size=12), st.lists(_REPR_FLOATS,
       max_size=4), _REPR_FLOATS)
def test_summaries_equal_the_whole_array_formulas(values, base, threshold):
    _assert_summaries(np.sort(np.array(values, dtype=float)), threshold,
                      np.sort(np.array(base, dtype=float)))


@pytest.mark.parametrize("values", [
    [], [-0.0], [0.0], [-3.6], [-3.5, 3.6], [-0.0, 0.0], [0.0, -0.0],
    [-4.0, -0.0, -0.0, 0.0], [-0.0, 0.0, 0.0, 4.0],
])
@pytest.mark.parametrize("base", [[], [4.0], [-0.0, 4.0], [0.0, 0.0, 4.0],
                                  [-4.0, 0.0, -0.0, 4.0]])
def test_summaries_on_signed_zeros_and_short_arrays(values, base):
    # rows whose zeros compare equal keep their order: np.sort decides the
    # sign of a zero second eigenvalue, as before
    _assert_summaries(np.array(values), 3.56, np.array(base))


def test_summaries_on_dense_and_lanczos_values():
    for base, n, seed in [(bouquet(2), 2, 3), (bouquet(2), 40, 7),
                          (complete_graph(4), 12, 1), (cycle_graph(5), 6, 2),
                          (complete_graph(5), 80, 0)]:
        lift = sample_lift(base, n, ModelSpec(), seed)
        spectrum = adjacency_spectrum(base)
        d = base.regular_degree()
        for threshold in (2 * np.sqrt(d - 1) + 0.1, 0.0, 1.0):
            _assert_summaries(new_eigenvalues(lift), threshold, spectrum)
            _assert_summaries(lanczos_new_extremes(lift), threshold, spectrum)


def test_bouquet_degree_two_reports_a_zero_max():
    cfg = ExperimentConfig(base=bouquet(2), model=ModelSpec(), degrees=(2,),
                           trials=1, epsilon=0.1, seed=5)
    rec = run_trial(cfg, 2, 0)
    assert repr(rec.max_new_abs) == "0.0" and repr(rec.lambda2) == "0.0"


def _sweep(cfg):
    return [repr(run_trial(cfg, n, t)) for n in cfg.degrees
            for t in range(cfg.trials)]


def test_interleaved_sweeps_equal_sweeps_alone():
    k4 = ExperimentConfig(base=complete_graph(4), model=ModelSpec(),
                          degrees=(3, 10, 80), trials=3, epsilon=0.1, seed=4)
    b2 = ExperimentConfig(base=bouquet(2), model=ModelSpec(),
                          degrees=(2, 3, 20, 80), trials=6, epsilon=0.1,
                          seed=5)
    base_plan.cache_clear()
    alone = {"k4": _sweep(k4)}
    base_plan.cache_clear()
    alone["b2"] = _sweep(b2)
    mixed = {"k4": [], "b2": []}
    for (n4, n2) in zip(k4.degrees + (None,), b2.degrees):
        for t in range(b2.trials):
            if n4 is not None and t < k4.trials:
                mixed["k4"].append(repr(run_trial(k4, n4, t)))
            mixed["b2"].append(repr(run_trial(b2, n2, t)))
    assert mixed == alone
    base_plan.cache_clear()
    assert {"b2": _sweep(b2), "k4": _sweep(k4)} == alone
