import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nblifts.graphs import (
    Graph, GraphMorphism, bouquet, complete_graph, cycle_graph, dipole,
    from_pairs, girth, is_covering,
)
from nblifts.lifts import (
    MODEL_KINDS,
    Lift,
    ModelError,
    ModelSpec,
    PermutationAssignment,
    build_lift,
    holonomy_generators,
    orbit_count,
    sample_assignment,
    sample_lift,
    validate_model,
)
from nblifts.spectral import _edge_arrays


def cycle_type_is_single_n_cycle(perm):
    n = len(perm)
    seen = 1
    i = int(perm[0])
    while i != 0:
        i = int(perm[i])
        seen += 1
    return seen == n


def test_model_spec_json_roundtrip():
    spec = ModelSpec("cyclic", "near_matching")
    assert ModelSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ModelError):
        ModelSpec.from_json({"model": "permutation", "half_loop": "matching",
                             "parity": "odd"})
    with pytest.raises(ModelError):
        ModelSpec(kind="bogus")


def test_model_spec_rejects_unknown_key():
    # {"modle": "cyclic"} used to sample the permutation model
    with pytest.raises(ModelError, match=r"model: unknown keys \['modle'\]; "
                                         r"expected \['model', 'half_loop', "
                                         r"'parity'\]"):
        ModelSpec.from_json({"modle": "cyclic"})
    with pytest.raises(ModelError, match="model must be an object"):
        ModelSpec.from_json("cyclic")


def test_validate_model():
    assert validate_model(complete_graph(4), ModelSpec(), 7)
    assert not validate_model(bouquet(0, 3), ModelSpec("permutation", "matching"), 3)
    assert validate_model(bouquet(2), ModelSpec("cyclic"), 1)
    assert not validate_model(bouquet(0, 1), ModelSpec(), 4)  # no half-loop rule
    assert not validate_model(complete_graph(4), ModelSpec(), 0)


def test_sample_errors():
    with pytest.raises(ModelError):
        sample_assignment(bouquet(0, 1), 4, ModelSpec(), seed=0)
    with pytest.raises(ModelError):
        sample_assignment(complete_graph(4), 0, ModelSpec(), seed=0)
    with pytest.raises(ModelError):
        sample_assignment(bouquet(0, 1), 4, ModelSpec("permutation", "near_matching"), 0)


def test_degree_one_assignment_is_identity():
    a = sample_assignment(complete_graph(4), 1, ModelSpec(), seed=5)
    assert np.array_equal(a.sigma, np.zeros((12, 1), dtype=np.int64))


def test_cyclic_model_whole_loops_get_n_cycles():
    b = bouquet(2)
    for seed in range(10):
        a = sample_assignment(b, 4, ModelSpec("cyclic"), seed=seed)
        for rep in b.orientation():
            assert cycle_type_is_single_n_cycle(a.sigma[rep])


def test_cyclic_model_leaves_ordinary_edges_uniform():
    # non-loop edges are not forced to be n-cycles under the cyclic model
    b = dipole(1)
    hits = 0
    for seed in range(40):
        a = sample_assignment(b, 4, ModelSpec("cyclic"), seed=seed)
        if not cycle_type_is_single_n_cycle(a.sigma[0]):
            hits += 1
    assert hits > 0


def test_half_loop_near_matching():
    b = bouquet(0, 3)
    for seed in range(10):
        a = sample_assignment(b, 5, ModelSpec("permutation", "near_matching"), seed)
        for rep in b.orientation():
            perm = a.sigma[rep]
            assert np.array_equal(perm[perm], np.arange(5))
            assert int((perm == np.arange(5)).sum()) == 1


def test_half_loop_perfect_matching():
    b = bouquet(1, 1)
    for seed in range(10):
        a = sample_assignment(b, 6, ModelSpec("permutation", "matching"), seed)
        half = [e for e in b.orientation() if b.inv[e] == e][0]
        perm = a.sigma[half]
        assert np.array_equal(perm[perm], np.arange(6))
        assert int((perm == np.arange(6)).sum()) == 0


def test_matching_uniform_support():
    # all three perfect matchings of [4] occur
    b = bouquet(0, 1)
    seen = set()
    for seed in range(60):
        a = sample_assignment(b, 4, ModelSpec("permutation", "matching"), seed)
        seen.add(tuple(a.sigma[0].tolist()))
    assert len(seen) == 3


def test_inverse_constraint_all_models():
    cases = [
        (complete_graph(4), ModelSpec(), 6),
        (bouquet(2), ModelSpec("cyclic"), 5),
        (bouquet(1, 2), ModelSpec("cyclic", "matching"), 6),
        (bouquet(0, 3), ModelSpec("permutation", "near_matching"), 7),
    ]
    for base, spec, n in cases:
        a = sample_assignment(base, n, spec, seed=11)
        ident = np.arange(n)
        for e in range(base.num_directed):
            assert np.array_equal(a.sigma[base.inv[e]][a.sigma[e]], ident)


def test_determinism():
    b = complete_graph(4)
    a1 = sample_assignment(b, 9, ModelSpec(), seed=123)
    a2 = sample_assignment(b, 9, ModelSpec(), seed=123)
    assert np.array_equal(a1.sigma, a2.sigma)
    a3 = sample_assignment(b, 9, ModelSpec(), seed=124)
    assert not np.array_equal(a1.sigma, a3.sigma)


def test_build_lift_identity_degree_one():
    b = complete_graph(4)
    lift = build_lift(b, PermutationAssignment.identity(b, 1))
    assert lift.cover == b


def test_build_lift_three_cycle_cover():
    b = bouquet(1)
    a = PermutationAssignment.from_dict(b, 3, {0: [1, 2, 0]})
    lift = build_lift(b, a)
    c = lift.cover
    assert c.n == 3 and c.num_edges == 3
    assert c.degrees() == (2, 2, 2)
    assert c.is_connected()
    assert girth(c) == 3
    assert is_covering(lift.projection)


def test_assignment_rejects_non_inverse():
    b = bouquet(1)
    sig = np.array([[1, 2, 0], [1, 2, 0]])
    with pytest.raises(ValueError):
        PermutationAssignment(b, 3, sig)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.sampled_from(["none", "swap", "copy", "range", "partner"]))
def test_assignment_errors_match_loop_reference(seed, degree, damage):
    from helpers import random_connected_multigraph, reference_assignment_error
    rng = np.random.default_rng(seed)
    base = random_connected_multigraph(rng, max_vertices=5, max_extra=5,
                                       half_loop_prob=0.5)
    spec = ModelSpec(half_loop="matching" if degree % 2 == 0
                     else "near_matching")
    sig = sample_assignment(base, degree, spec, seed).sigma.copy()
    for _ in range(int(rng.integers(1, 3)) if base.num_directed else 0):
        e = int(rng.integers(base.num_directed))
        i, j = rng.integers(degree, size=2)
        if damage == "swap":        # still a permutation, maybe not inverse
            sig[e, [i, j]] = sig[e, [j, i]]
        elif damage == "copy":      # a repeated entry
            sig[e, i] = sig[e, j]
        elif damage == "range":     # out of range, either side
            sig[e, i] = rng.choice([-1, degree, degree + 3])
        elif damage == "partner":   # both rows of an orbit changed alike
            sig[[e, base.inv[e]], i] = sig[[e, base.inv[e]], j]
    expected = reference_assignment_error(base, degree, sig)
    if expected is None:
        PermutationAssignment(base, degree, sig)
    else:
        with pytest.raises(ValueError) as err:
            PermutationAssignment(base, degree, sig)
        assert str(err.value) == expected


def test_sampled_lifts_are_coverings_with_matching_degrees():
    cases = [
        (complete_graph(4), ModelSpec(), 5),
        (bouquet(2), ModelSpec("cyclic"), 6),
        (bouquet(1, 2), ModelSpec("permutation", "near_matching"), 5),
    ]
    for base, spec, n in cases:
        lift = sample_lift(base, n, spec, seed=3)
        assert is_covering(lift.projection)
        for v in range(base.n):
            for i in range(n):
                assert lift.cover.degree(v * n + i) == base.degree(v)


def test_components_match_holonomy_orbits():
    # bouquet base: holonomy generators are exactly the sampled permutations
    for base, spec, n, seed in [
        (bouquet(2), ModelSpec(), 8, 0),
        (bouquet(2), ModelSpec(), 8, 1),
        (complete_graph(4), ModelSpec(), 6, 2),
        (cycle_graph(3), ModelSpec(), 7, 5),
        (dipole(3), ModelSpec(), 6, 7),
    ]:
        lift = sample_lift(base, n, spec, seed)
        gens = holonomy_generators(lift)
        assert len(lift.cover.components()) == orbit_count(gens, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_orbit_count_matches_brute_force(n, count, seed):
    # identity generators, empty lists, n = 0 and 1, and permutations of
    # up to three blocks of [n], which then split into several orbits
    from helpers import brute_force_orbit_count
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.integers(0, n + 1, size=2))
    gens = []
    for _ in range(count):
        perm = np.arange(n)
        if rng.random() < 0.8:  # otherwise the identity
            for part in np.split(np.arange(n), cuts):
                perm[part] = rng.permutation(part)
        gens.append(perm)
    assert orbit_count(gens, n) == brute_force_orbit_count(gens, n)


def test_orbit_count_on_disconnected_covers():
    base = complete_graph(4)
    for by_rep, parts in [({rep: [1, 0, 3, 2] for rep in base.orientation()},
                           2),
                          ({rep: [0, 2, 1, 3] for rep in base.orientation()},
                           3)]:
        lift = build_lift(base, PermutationAssignment.from_dict(base, 4,
                                                                by_rep))
        gens = holonomy_generators(lift)
        assert orbit_count(gens, 4) == len(lift.cover.components()) == parts
        assert not lift.is_connected()


def test_forced_disconnected_lift():
    b = complete_graph(4)
    # block permutations preserving {0,1} and {2,3}
    by_rep = {rep: [1, 0, 3, 2] for rep in b.orientation()}
    lift = build_lift(b, PermutationAssignment.from_dict(b, 4, by_rep))
    assert len(lift.cover.components()) == 2


def test_cyclic_model_with_whole_loop_connects_cover():
    base = from_pairs(2, [(0, 1), (0, 0)])  # whole-loop plus an edge
    for seed in range(8):
        lift = sample_lift(base, 6, ModelSpec("cyclic"), seed)
        assert lift.cover.is_connected()


def test_degree_one_edge_cases():
    # n = 1 is legal in every model whose parity admits it
    a = sample_assignment(bouquet(2), 1, ModelSpec("cyclic"), seed=0)
    assert a.sigma.shape == (4, 1)
    b = bouquet(0, 1)
    a = sample_assignment(b, 1, ModelSpec("permutation", "near_matching"), 0)
    assert a.sigma[0].tolist() == [0]
    lift = build_lift(b, a)
    assert lift.cover == b


def test_equal_draws_compare_equal():
    base = complete_graph(4)
    a1 = sample_assignment(base, 5, ModelSpec(), seed=3)
    a2 = sample_assignment(base, 5, ModelSpec(), seed=3)
    assert a1 == a2 and hash(a1) == hash(a2)
    assert build_lift(base, a1) == build_lift(base, a2)
    assert hash(build_lift(base, a1)) == hash(build_lift(base, a2))
    other = sample_assignment(base, 5, ModelSpec(), seed=4)
    assert a1 != other and build_lift(base, a1) != build_lift(base, other)
    assert a1 != PermutationAssignment.identity(base, 5)
    assert a1 != a1.sigma.tolist()


@st.composite
def lift_bases(draw):
    """Bases with half-loops, whole-loops, parallel edges and isolated
    vertices; edgeless and vertexless ones included."""
    n = draw(st.integers(0, 4))
    if n == 0:
        return from_pairs(0)
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    halves = draw(st.lists(vertex, max_size=3))
    return from_pairs(n, pairs, halves)


@settings(max_examples=300, deadline=None)
@given(lift_bases(), st.integers(1, 12), st.sampled_from(MODEL_KINDS),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_built_cover_passes_the_checked_constructors(base, degree, kind,
                                                     rule, seed):
    # the lazily built cover, projection and edge arrays must be exactly
    # what the checked constructors accept and give
    parity_rule = "matching" if degree % 2 == 0 else "near_matching"
    half_loop = parity_rule if rule or base.has_half_loops() else None
    lift = sample_lift(base, degree, ModelSpec(kind, half_loop), seed)
    c = lift.cover
    checked = Graph(c.n, c.tail, c.head, c.inv)
    assert c == checked
    assert all(c.out_edges(v) == checked.out_edges(v) for v in range(c.n))
    p = lift.projection
    assert GraphMorphism(c, base, p.vertex_map, p.edge_map) == p
    assert is_covering(p)
    for kept, made in zip(lift.edge_arrays, _edge_arrays(c)):
        assert kept.dtype == np.int64 and np.array_equal(kept, made)
        assert not kept.flags.writeable


@settings(max_examples=300, deadline=None)
@given(lift_bases(), st.integers(1, 12), st.sampled_from(MODEL_KINDS),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_holonomy_connectivity_matches_the_cover(base, degree, kind, rule,
                                                 seed):
    parity_rule = "matching" if degree % 2 == 0 else "near_matching"
    half_loop = parity_rule if rule or base.has_half_loops() else None
    lift = sample_lift(base, degree, ModelSpec(kind, half_loop), seed)
    connected = lift.is_connected()
    assert "cover" not in vars(lift)  # answered from sigma alone
    assert connected == lift.cover.is_connected()


def test_lift_is_its_base_and_assignment():
    base = complete_graph(4)
    a = sample_assignment(base, 5, ModelSpec(), seed=3)
    built, fresh = build_lift(base, a), build_lift(base, a)
    assert [f.name for f in dataclasses.fields(Lift)] == ["base",
                                                          "assignment"]
    assert vars(fresh) == {"base": base, "assignment": a}
    assert built.cover is built.cover  # built once and kept
    assert built.projection.source is built.cover
    assert built == fresh and hash(built) == hash(fresh)
    assert not build_lift(from_pairs(2), PermutationAssignment.identity(
        from_pairs(2), 3)).is_connected()  # disconnected base
