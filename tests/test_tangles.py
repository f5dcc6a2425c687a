import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nblifts.graphs import (
    bouquet, complete_graph, cycle_graph, dipole, from_pairs, girth,
    path_graph, subgraph_from_orbits,
)
from nblifts.lifts import ModelSpec, sample_lift
from nblifts.spectral import mu1
from nblifts.tangles import (
    TangleQuery,
    canonical_form,
    contract_nonloop_edge,
    example_tangles,
    identify_distance_two,
    is_tangle,
    m_no_whole,
    m_whole,
    scan_tangles,
    tau_tang_lower_no_whole,
    tau_tang_lower_whole,
)


def test_is_tangle_examples():
    q = TangleQuery(nu=math.sqrt(3), r=2, strict=True)
    assert is_tangle(bouquet(2), q)
    assert not is_tangle(cycle_graph(5), TangleQuery(nu=1.1, r=5))
    assert not is_tangle(from_pairs(4, [(0, 1), (0, 1), (2, 3), (2, 3)]),
                         TangleQuery(nu=0.5, r=5))
    with pytest.raises(ValueError):
        is_tangle(from_pairs(0, []), TangleQuery(nu=1.0, r=2))


def test_tangle_query_boundary_band():
    q = TangleQuery(nu=2.0, r=3)
    assert q.boundary_band(2.5) == "above"
    assert q.boundary_band(2.0 + 1e-12) == "boundary"
    assert q.boundary_band(1.5) == "below"


def test_contract_parallel_edges_to_bouquet():
    g = dipole(3)
    out = contract_nonloop_edge(g, 0)
    assert out == bouquet(2)
    assert out.order() == g.order()


def test_contract_triangle_edge():
    g = cycle_graph(3)
    out = contract_nonloop_edge(g, 0)
    assert out.n == 2 and out.num_edges == 2
    assert out.order() == g.order() == 0


def test_contract_rejects_loops():
    with pytest.raises(ValueError):
        contract_nonloop_edge(bouquet(1), 0)


def test_repeated_contraction_to_one_vertex():
    g = complete_graph(4)
    start_order, start_mu = g.order(), mu1(g)
    while g.n > 1:
        e = next(e for e in range(g.num_directed) if g.tail[e] != g.head[e])
        g = contract_nonloop_edge(g, e)
    assert g.n == 1
    assert g.order() == start_order
    assert mu1(g) >= start_mu - 1e-8
    # one-vertex graph with m whole-loops: mu1 = 2m - 1
    m = g.num_edges
    assert mu1(g) == pytest.approx(2 * m - 1, abs=1e-9)


def test_identify_distance_two_square():
    g = cycle_graph(4)
    out = identify_distance_two(g, 0, 2, 1)
    assert out.n == 3
    assert out.order() == g.order()
    assert all(out.tail[e] != out.head[e] for e in range(out.num_directed))
    assert mu1(out) >= mu1(g) - 1e-8


def test_identify_distance_two_star():
    g = from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    out = identify_distance_two(g, 1, 2, 0)
    assert out.order() == g.order()
    assert all(out.tail[e] != out.head[e] for e in range(out.num_directed))


def test_identify_distance_two_rejects_adjacent():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        identify_distance_two(g, 0, 1, 2)


@pytest.mark.parametrize("u,v,w,bad", [
    (0, 2, -2, -2),  # -2 would index vertex 1, the common neighbour
    (0, 2, 3, 3), (-3, 2, 1, -3), (0, 5, 1, 5),
])
def test_identify_distance_two_rejects_unknown_vertex(u, v, w, bad):
    with pytest.raises(ValueError, match=f"unknown vertex {bad}$"):
        identify_distance_two(path_graph(2), u, v, w)


@pytest.mark.parametrize("e", [-1, -4, 4, 99])
def test_contract_nonloop_edge_rejects_unknown_edge(e):
    with pytest.raises(ValueError, match=f"unknown directed edge {e}$"):
        contract_nonloop_edge(path_graph(2), e)


def test_mu1_monotone_under_reductions_random():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 60:
        n = int(rng.integers(2, 6))
        pairs = [(0, 1)] if n >= 2 else []
        for v in range(2, n):
            pairs.append((int(rng.integers(0, v)), v))
        extra = int(rng.integers(0, 4))
        for _ in range(extra):
            pairs.append((int(rng.integers(0, n)), int(rng.integers(0, n))))
        g = from_pairs(n, pairs)
        if not g.is_connected():
            continue
        nonloop = [e for e in range(g.num_directed) if g.tail[e] != g.head[e]]
        if not nonloop:
            continue
        e = nonloop[int(rng.integers(0, len(nonloop)))]
        before = mu1(g)
        assert g.n > 1
        out = contract_nonloop_edge(g, e)
        assert out.order() == g.order()
        assert mu1(out) >= before - 1e-8
        checked += 1


def test_one_vertex_mu1_formula():
    for m, mp in [(1, 0), (2, 1), (0, 3), (1, 2), (2, 2)]:
        g = bouquet(m, mp)
        if 2 * m + mp < 2:
            continue
        assert g.order() == m + mp - 1
        assert mu1(g) == pytest.approx(max(2 * m + mp - 1, 0), abs=1e-8)


def test_two_vertex_mu1_formula():
    for m in (2, 3, 4, 6):
        g = dipole(m)
        assert mu1(g) == pytest.approx(m - 1, abs=1e-9)
        assert g.order() + 1 == m - 1


def test_multi_vertex_half_loop_free_bound():
    # every vertex pair joined by >= 2 edges, no loops: mu1 <= ord + 1 - (n-2)^2
    for n, mult in [(3, 2), (3, 3), (4, 2)]:
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                pairs += [(i, j)] * mult
        g = from_pairs(n, pairs)
        bound = g.order() + 1 - (n - 2) ** 2
        assert mu1(g) <= bound + 1e-8


def test_m_whole_values():
    assert m_whole(10) == 3 and tau_tang_lower_whole(10) == 2
    assert m_whole(3) == 2 and tau_tang_lower_whole(3) == 1
    assert m_no_whole(10) == 5 and tau_tang_lower_no_whole(10) == 3
    assert m_no_whole(5) == 4 and tau_tang_lower_no_whole(5) == 2
    assert m_no_whole(3) == 3 and tau_tang_lower_no_whole(3) == 1
    with pytest.raises(ValueError):
        m_whole(2)
    with pytest.raises(ValueError):
        m_no_whole(2)


def test_formula_minimality_exact():
    for d in range(3, 101):
        m = m_whole(d)
        assert (2 * m - 1) ** 2 > d - 1
        assert (2 * (m - 1) - 1) ** 2 <= d - 1
        mp = m_no_whole(d)
        assert (mp - 1) ** 2 > d - 1
        assert (mp - 2) ** 2 <= d - 1


def test_example_tangles_verified_by_eigensolve():
    for wit in example_tangles():
        assert wit.graph.order() == wit.order
        value = mu1(wit.graph)
        if wit.bound_kind == "ge":
            assert value >= wit.mu1_bound - 1e-9
        elif wit.bound_kind == "gt":
            assert value > wit.mu1_bound
        else:
            assert value == pytest.approx(wit.mu1_bound, abs=1e-9)


def test_canonical_form_isomorphism():
    g1 = from_pairs(3, [(0, 1), (1, 2), (0, 2), (0, 1)])
    g2 = from_pairs(3, [(2, 1), (1, 0), (2, 0), (2, 1)])  # relabeled copy
    assert canonical_form(g1) == canonical_form(g2)
    g3 = from_pairs(3, [(0, 1), (1, 2), (0, 2), (2, 2)])
    assert canonical_form(g1) != canonical_form(g3)
    assert canonical_form(bouquet(1)) != canonical_form(bouquet(0, 2))


def test_canonical_form_symmetry_budget():
    from nblifts.tangles import TooSymmetricError
    assert canonical_form(cycle_graph(6)) == canonical_form(cycle_graph(6))
    with pytest.raises(TooSymmetricError):
        canonical_form(cycle_graph(10))
    with pytest.raises(ValueError):
        canonical_form(cycle_graph(20))  # above the vertex cap entirely


def test_scan_survives_vertex_transitive_findings():
    # nu <= 1 makes whole cycles eligible; the scan must still terminate
    rep = scan_tangles(cycle_graph(11), TangleQuery(nu=1.0, r=2),
                       max_vertices=11, max_subgraphs=2000)
    assert rep.has_tangles()


def test_scan_forest_empty():
    rep = scan_tangles(path_graph(5), TangleQuery(nu=1.0, r=3))
    assert not rep.has_tangles() and not rep.caps_hit and rep.scanned == 0


def test_scan_finds_planted_bouquet():
    g = from_pairs(4, [(0, 0), (0, 0), (1, 2), (2, 3), (3, 1)])
    rep = scan_tangles(g, TangleQuery(nu=math.sqrt(3), r=2, strict=True))
    assert rep.has_tangles()
    names = [canonical_form(sub) for sub, *_ in rep.found]
    assert canonical_form(bouquet(2)) in names


def test_scan_single_cycle_no_tangles():
    rep = scan_tangles(cycle_graph(6), TangleQuery(nu=1.5, r=4))
    assert not rep.has_tangles()
    assert not rep.caps_hit


def test_scan_caps_hit():
    g = complete_graph(5)
    rep = scan_tangles(g, TangleQuery(nu=1.1, r=6), max_subgraphs=10)
    assert rep.caps_hit
    assert rep.scanned == 10


def test_scan_deduplicates_isomorphic_findings():
    g = from_pairs(2, [(0, 0), (0, 0), (1, 1), (1, 1)])
    rep = scan_tangles(g, TangleQuery(nu=2.0, r=2))
    assert len(rep.found) == 1  # two bouquet components, one iso class


def test_scan_on_lift_respects_base_girth():
    base = complete_graph(4)
    lift = sample_lift(base, 4, ModelSpec(), seed=21)
    rep = scan_tangles(lift.cover, TangleQuery(nu=1.0, r=3), max_vertices=6,
                       max_subgraphs=4000)
    for sub, *_ in rep.found:
        assert girth(sub) >= girth(base)


def test_report_json():
    g = from_pairs(4, [(0, 0), (0, 0), (1, 2), (2, 3), (3, 1)])
    rep = scan_tangles(g, TangleQuery(nu=math.sqrt(3), r=2, strict=True))
    data = rep.to_json()
    assert data["scanned"] >= 1
    assert data["found"][0]["order"] < 2


@st.composite
def _small_multigraph(draw):
    """Up to 6 vertices and 9 orbits: edges, parallel edges, whole-loops
    (u == v) and half-loops."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=9))
    halves = draw(st.lists(vertex, max_size=3))
    return from_pairs(n, pairs, halves)


_NUS = (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-7, 1.0 + 1e-5, 1.2,
        math.sqrt(2), math.sqrt(3), 1.8, 2.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(
    g=_small_multigraph(),
    nu=st.one_of(st.sampled_from(_NUS), st.floats(0.2, 3.5)),
    r=st.integers(1, 3),
    strict=st.booleans(),
    max_vertices=st.integers(1, 6),
    max_subgraphs=st.integers(1, 60),
)
def test_scan_matches_materialising_reference(g, nu, r, strict, max_vertices,
                                              max_subgraphs):
    from helpers import reference_scan_tangles
    query = TangleQuery(nu=nu, r=r, strict=strict)
    got = scan_tangles(g, query, max_vertices, max_subgraphs)
    want = reference_scan_tangles(g, query, max_vertices, max_subgraphs)
    assert got.to_json() == want.to_json()


def test_scan_never_eigensolves_low_order_candidates(monkeypatch):
    from helpers import reference_scan_tangles
    from nblifts import tangles
    lift = sample_lift(complete_graph(4), 12, ModelSpec(), seed=5)
    query = TangleQuery(nu=1.8, r=3)
    solved = []

    def counting_mu1(sub):
        solved.append(sub.order())
        return mu1(sub)

    monkeypatch.setattr(tangles, "mu1", counting_mu1)
    report = scan_tangles(lift.cover, query, max_vertices=6,
                          max_subgraphs=400)
    assert report.caps_hit and report.scanned == 400
    assert all(order > 0 for order in solved)
    want = reference_scan_tangles(lift.cover, query, 6, 400)
    assert report.to_json() == want.to_json()
    assert len(solved) < report.scanned


@pytest.mark.parametrize("base, n, nu", [
    (bouquet(2), 12, 1.2),
    (bouquet(2), 12, 2.2012),
    (complete_graph(4), 20, 1.8),
])
def test_scan_matches_reference_on_covers(monkeypatch, base, n, nu):
    # finds in early seed trees and a cap that cuts a later one; the scan
    # eigensolves each candidate of positive order that the reference
    # reaches, once, and nothing else
    from helpers import reference_scan_tangles
    from nblifts import graphs, spectral, tangles
    lift = sample_lift(base, n, ModelSpec(), seed=0)
    query = TangleQuery(nu=nu, r=3)
    made, solved = {}, []

    def recording_subgraph(core, reps):
        sub, verts, edges = subgraph_from_orbits(core, reps)
        made[id(sub)] = (sub, frozenset(reps))
        return sub, verts, edges

    def recording_mu1(sub):
        solved.append((made[id(sub)][1], sub.order()))
        return mu1(sub)

    for module in (graphs, tangles):
        monkeypatch.setattr(module, "subgraph_from_orbits",
                            recording_subgraph)
    for module in (spectral, tangles):
        monkeypatch.setattr(module, "mu1", recording_mu1)
    for cap in (50, 400, 4000):
        made.clear()
        solved.clear()
        got = scan_tangles(lift.cover, query, 6, cap)
        got_solved = [orbits for orbits, _ in solved]
        solved.clear()
        want = reference_scan_tangles(lift.cover, query, 6, cap)
        assert got.to_json() == want.to_json()
        assert got.caps_hit
        if nu == 1.2:
            assert got.found
        assert len(set(got_solved)) == len(got_solved)
        assert set(got_solved) == {orbits for orbits, order in solved
                                   if order > 0}


# bouquet(2) cover: vertex 3 carries two whole-loops, vertices 0 and 2 one
_LOOPED_COVER = sample_lift(bouquet(2), 6, ModelSpec(), seed=5).cover


@pytest.mark.parametrize("g, max_vertices, largest", [
    # chords of K4 join vertices already taken; the whole K4 needs two
    (complete_graph(4), 4, (4, 6)),
    # the seed fills the cap and both parallel edges are added at it
    (dipole(3), 2, (2, 3)),
    # a loop seed fills the cap and the second loop is added at it; every
    # edge seed has two vertices, above the cap, and grows nothing
    (_LOOPED_COVER, 1, (1, 2)),
    # the half-loop seed grows to vertex 0, whose whole-loop is then added
    # at the cap
    (from_pairs(2, [(0, 1), (0, 0)], [1]), 2, (2, 3)),
])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("max_subgraphs", [3, 10_000])
def test_scan_matches_reference_at_the_vertex_cap(g, max_vertices, largest,
                                                  r, max_subgraphs):
    from helpers import reference_scan_tangles
    for nu in (0.5, 1.5, 2.0):
        query = TangleQuery(nu=nu, r=r)
        got = scan_tangles(g, query, max_vertices, max_subgraphs)
        want = reference_scan_tangles(g, query, max_vertices, max_subgraphs)
        assert got.to_json() == want.to_json()
        sizes = {(sub.n, sub.num_edges) for sub, *_ in got.found}
        assert all(n <= max_vertices for n, _ in sizes)
        if nu == 0.5 and r == 3 and not got.caps_hit:
            assert largest in sizes


@pytest.mark.parametrize("r", [0, -1])
def test_tangle_query_refuses_r_below_one(r):
    with pytest.raises(ValueError, match="r must be at least 1"):
        TangleQuery(nu=1.8, r=r)


@pytest.mark.parametrize("kwargs, match", [
    ({"nu": math.nan, "r": 3}, "nu must be finite"),
    ({"nu": math.inf, "r": 3}, "nu must be finite"),
    ({"nu": -math.inf, "r": 3}, "nu must be finite"),
    ({"nu": 1.8, "r": 2.5}, "r must be an integer"),
    ({"nu": 1.8, "r": 3.0}, "r must be an integer"),
    ({"nu": 1.8, "r": True}, "r must be an integer"),
])
def test_tangle_query_refuses_vacuous_or_inverted_queries(kwargs, match):
    with pytest.raises(ValueError, match=match):
        TangleQuery(**kwargs)


def _brute_tree_sets(core, reps, s, r, max_vertices):
    """Connected orbit sets with lowest representative reps[s], at most
    max_vertices vertices (the seed orbit alone is exempt, as in the scan)
    and order below r, by trying every subset."""
    from itertools import combinations
    found = []
    later = range(s + 1, len(reps))
    for k in range(len(later) + 1):
        for extra in combinations(later, k):
            edges = [reps[j] for j in (s, *extra)]
            verts = {v for e in edges for v in (core.tail[e], core.head[e])}
            if len(verts) > max_vertices and extra:
                continue
            if len(edges) - len(verts) >= r:
                continue
            reached = {core.tail[edges[0]]}
            grew = True
            while grew:
                grew = False
                for e in edges:
                    ends = {core.tail[e], core.head[e]}
                    if ends & reached and not ends <= reached:
                        reached |= ends
                        grew = True
            if reached == verts:
                found.append(frozenset(edges))
    return found


def _brute_candidates(g, r, max_vertices):
    """(pruned core, every connected orbit set that scan_tangles must visit)."""
    from nblifts.graphs import prune_with_map
    core, _, _ = prune_with_map(g)
    reps = core.orientation()
    return core, [orbits for s in range(len(reps))
                  for orbits in _brute_tree_sets(core, reps, s, r,
                                                 max_vertices)]


@settings(max_examples=200, deadline=None)
@given(g=_small_multigraph(), r=st.integers(1, 3),
       max_vertices=st.integers(1, 6))
def test_scan_visits_each_connected_orbit_set_once(g, r, max_vertices):
    # nu 0.5 admits 1, so every candidate is built
    from nblifts import tangles
    built = []

    def recording_subgraph(core, reps):
        built.append(frozenset(reps))
        return subgraph_from_orbits(core, reps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tangles, "subgraph_from_orbits", recording_subgraph)
        # a core of at most 12 orbits has fewer than 2**12 orbit sets
        report = scan_tangles(g, TangleQuery(nu=0.5, r=r), max_vertices,
                              2**12)
    _, want = _brute_candidates(g, r, max_vertices)
    assert not report.caps_hit
    assert len(set(built)) == len(built) == report.scanned
    assert set(built) == set(want)


@settings(max_examples=200, deadline=None)
@given(
    g=_small_multigraph(),
    nu=st.one_of(st.sampled_from(_NUS), st.floats(0.2, 3.5)),
    r=st.integers(1, 3),
    strict=st.booleans(),
    max_vertices=st.integers(1, 6),
    max_subgraphs=st.integers(1, 60),
)
def test_uncapped_scan_matches_brute_force(g, nu, r, strict, max_vertices,
                                           max_subgraphs):
    # visit order decides only what a capped scan reports
    query = TangleQuery(nu=nu, r=r, strict=strict)
    report = scan_tangles(g, query, max_vertices, max_subgraphs)
    core, sets = _brute_candidates(g, r, max_vertices)
    assert report.caps_hit == (len(sets) > max_subgraphs)
    if report.caps_hit:
        return
    finds = set()
    for orbits in sets:
        sub, _, _ = subgraph_from_orbits(core, sorted(orbits))
        if query.admits(mu1(sub)):
            finds.add(canonical_form(sub))
    assert report.scanned == len(sets)
    assert report.has_tangles() == bool(finds)
    assert {canonical_form(sub) for sub, *_ in report.found} == finds


def test_is_tangle_refuses_order_at_the_bound():
    # bouquet(3): order 3 - 1 = 2 and mu1 = 5, far above nu
    assert not is_tangle(bouquet(3), TangleQuery(nu=1.0, r=2))
    assert is_tangle(bouquet(3), TangleQuery(nu=1.0, r=3))
