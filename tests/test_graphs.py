import json
import math

import pytest
from hypothesis import given, strategies as st

from nblifts.graphs import (
    Graph,
    GraphFormatError,
    GraphMorphism,
    bouquet,
    complete_graph,
    cycle_graph,
    dipole,
    empty_graph,
    from_orbits,
    from_pairs,
    graph_from_json,
    graph_to_json,
    girth,
    induced_subgraph,
    is_covering,
    is_etale,
    path_graph,
    prune,
    prune_with_map,
    subgraph_from_orbits,
)


def test_degree_whole_loop_counts_two():
    g = bouquet(1)
    assert g.degree(0) == 2


def test_degree_half_loop_counts_one():
    g = bouquet(0, 1)
    assert g.degree(0) == 1


def test_degree_isolated_vertex():
    g = Graph(1, (), (), ())
    assert g.degree(0) == 0


def test_degree_unknown_vertex():
    with pytest.raises(ValueError):
        bouquet(1).degree(5)


def test_order_examples():
    assert bouquet(2).order() == 1
    for d in (1, 3, 5):
        assert bouquet(0, d).order() == d - 1
    assert path_graph(3).order() == -1  # tree on 4 vertices


def test_euler_char_examples():
    from fractions import Fraction
    assert bouquet(0, 3).euler_char() == Fraction(-1, 2)
    assert bouquet(2).euler_char() == -1
    assert path_graph(1).euler_char() == 1


def test_order_vs_euler_char():
    # ord >= -chi with equality iff half-loop-free
    for g in (bouquet(2), complete_graph(4), cycle_graph(5)):
        assert g.order() == -g.euler_char()
    g = bouquet(1, 2)
    assert g.order() > -g.euler_char()


def test_degree_sum_identity():
    for g in (bouquet(2, 3), complete_graph(4), from_pairs(3, [(0, 1), (1, 2), (0, 0)], [2])):
        whole_orbit_edges = sum(1 for e in g.orientation() if g.inv[e] != e)
        half = sum(1 for e in g.orientation() if g.inv[e] == e)
        assert sum(g.degrees()) == 2 * whole_orbit_edges + half
        assert sum(g.degrees()) == g.num_directed
        if half:
            # the naive count #E^dir + #half overshoots once per half-loop
            assert sum(g.degrees()) != g.num_directed + half


def test_involution_invariants():
    g = from_pairs(3, [(0, 1), (1, 2), (2, 0), (1, 1)], [0])
    for e in range(g.num_directed):
        assert g.inv[g.inv[e]] == e
        assert g.tail[g.inv[e]] == g.head[e]


def test_prune_path_empties():
    assert prune(path_graph(3)).n == 0


def test_prune_triangle_with_pendant():
    g = from_pairs(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    p = prune(g)
    assert p.n == 3 and p.num_edges == 3
    assert p.min_degree() >= 2


def test_prune_fixes_regular_graphs():
    g = complete_graph(4)
    assert prune(g) == g


def test_prune_removes_lone_half_loop():
    # degree one, below the min-degree-two threshold
    assert prune(bouquet(0, 1)).n == 0
    assert prune(bouquet(1)).n == 1


def test_prune_idempotent():
    g = from_pairs(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], [5])
    p = prune(g)
    assert prune(p) == p
    assert p.is_pruned()
    assert not g.is_pruned()


def test_girth_examples():
    assert girth(complete_graph(3)) == 3
    assert girth(bouquet(1)) == 1
    assert girth(dipole(2)) == 2
    assert girth(path_graph(4)) == math.inf
    assert girth(empty_graph()) == math.inf


def test_girth_half_loop_not_length_one():
    assert girth(bouquet(0, 1)) == math.inf
    assert girth(bouquet(0, 2)) == 2
    # two half-loops joined by an edge behave like a cycle of length 4
    g = from_pairs(2, [(0, 1)], [0, 1])
    assert girth(g) == 4


def test_girth_k4():
    assert girth(complete_graph(4)) == 3


def test_morphism_validation():
    g = cycle_graph(3)
    ident = GraphMorphism.identity(g)
    assert is_covering(ident) and is_etale(ident)
    with pytest.raises(ValueError):
        GraphMorphism(g, g, (0, 1, 2), tuple([0] * g.num_directed))


def test_etale_but_not_covering():
    # a path included in the triangle is etale but not covering
    sub = path_graph(1)
    tri = cycle_graph(3)
    # path edge 0-1 maps onto triangle edge 0-1 (ids 0,1 by construction)
    m = GraphMorphism(sub, tri, (0, 1), (0, 1))
    assert is_etale(m)
    assert not is_covering(m)


def test_components_and_connectivity():
    g = from_pairs(4, [(0, 1), (2, 3)])
    assert len(g.components()) == 2
    assert not g.is_connected()
    assert cycle_graph(4).is_connected()
    assert Graph(1, (), (), ()).is_connected()


def test_bipartite():
    assert cycle_graph(4).is_bipartite()
    assert not cycle_graph(5).is_bipartite()
    assert not bouquet(1).is_bipartite()


def test_subgraph_from_orbits():
    g = complete_graph(4)
    reps = g.orientation()[:3]
    sub, vids, eids = subgraph_from_orbits(g, reps)
    assert sub.num_edges == 3
    assert len(eids) == 6


def test_json_roundtrip():
    g = from_pairs(3, [(0, 1), (1, 2), (1, 1)], [2])
    assert graph_from_json(graph_to_json(g)) == g


def test_json_rejects_bad_involution():
    data = {"vertices": 2,
            "edges": [{"id": 0, "tail": 0, "head": 1, "inv": 0}]}
    with pytest.raises(GraphFormatError, match="edges\\[0\\]"):
        graph_from_json(data)


def test_json_names_half_loop_with_distinct_endpoints():
    # inv == id with tail != head used to be reported as a partner mismatch
    data = {"vertices": 2,
            "edges": [{"id": 0, "tail": 0, "head": 1, "inv": 0}]}
    with pytest.raises(GraphFormatError,
                       match=r"^edges\[0\]: half-loop endpoints differ$"):
        graph_from_json(data)


def test_json_rejects_mismatched_partner():
    data = {"vertices": 3, "edges": [
        {"id": 0, "tail": 0, "head": 1, "inv": 1},
        {"id": 1, "tail": 2, "head": 0, "inv": 0},
    ]}
    with pytest.raises(GraphFormatError):
        graph_from_json(data)


def test_json_rejects_boolean_vertices():
    # bool is an int in Python, so this used to load as Graph(n=True)
    data = {"vertices": True, "edges": [
        {"id": 0, "tail": False, "head": False, "inv": False}]}
    with pytest.raises(GraphFormatError, match="'vertices'"):
        graph_from_json(data)


@pytest.mark.parametrize("key", ["id", "tail", "head", "inv"])
def test_json_rejects_boolean_edge_keys(key):
    data = graph_to_json(from_pairs(2, [(0, 1)]))
    data["edges"][1][key] = bool(data["edges"][1][key])
    with pytest.raises(GraphFormatError,
                       match=rf"edges\[1\]: .*'{key}'"):
        graph_from_json(data)


def test_json_rejects_missing_keys():
    with pytest.raises(GraphFormatError):
        graph_from_json({"vertices": 1})
    with pytest.raises(GraphFormatError):
        graph_from_json([1, 2])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    halves = draw(st.lists(st.integers(0, n - 1), max_size=3))
    return from_pairs(n, pairs, halves)


@given(small_graphs())
def test_structural_invariants_random(g):
    for e in range(g.num_directed):
        assert g.inv[g.inv[e]] == e
        assert g.tail[g.inv[e]] == g.head[e]
    assert g.order() >= -g.euler_char()
    p = prune(g)
    assert p.n == 0 or p.min_degree() >= 2
    assert prune(p) == p
    assert graph_from_json(graph_to_json(g)) == g


def test_induced_subgraph_keeps_isolated_vertices():
    # directed ids: (0,1) -> 0,1; (1,2) -> 2,3; whole-loop -> 4,5; half -> 6
    g = from_pairs(4, [(0, 1), (1, 2), (0, 0)], [2])
    sub, vids, eids = induced_subgraph(g, [3, 0, 2])
    assert (sub.n, vids, eids) == (3, (0, 2, 3), (4, 5, 6))
    assert sub.degrees() == (2, 1, 0)
    # the morphism check proves the id maps intertwine tail, head and inv
    assert is_etale(GraphMorphism(sub, g, vids, eids))


def test_induced_subgraph_rejects_unknown_vertex():
    g = cycle_graph(3)
    with pytest.raises(ValueError, match="unknown vertex 99"):
        induced_subgraph(g, [0, 99])
    with pytest.raises(ValueError, match="unknown vertex -1"):
        induced_subgraph(g, [-1])


@pytest.mark.parametrize("rep", [-1, -6, 6, 99])
def test_subgraph_from_orbits_rejects_unknown_edge(rep):
    g = cycle_graph(3)  # directed edges 0..5
    with pytest.raises(ValueError, match=f"unknown directed edge {rep}$"):
        subgraph_from_orbits(g, [0, rep])


@given(small_graphs(), st.data())
def test_subgraphs_map_back_etale(g, data):
    reps = data.draw(st.lists(st.sampled_from(g.orientation()), unique=True)
                     if g.num_directed else st.just([]))
    verts = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    for sub, vids, eids in (subgraph_from_orbits(g, reps),
                            induced_subgraph(g, verts), prune_with_map(g)):
        assert is_etale(GraphMorphism(sub, g, vids, eids))


@given(small_graphs())
def test_from_orbits_rebuilds_from_pairs(g):
    orbits = [(g.tail[r], g.head[r], g.inv[r] == r) for r in g.orientation()]
    assert from_orbits(g.n, orbits) == g


def reference_prune_with_map(g):
    """Peel every vertex of degree below two among the survivors until none
    is left; the 2-core is induced on what remains."""
    alive = set(range(g.n))
    while True:
        low = {v for v in alive
               if sum(g.head[e] in alive for e in g.out_edges(v)) < 2}
        if not low:
            return induced_subgraph(g, alive)
        alive -= low


@given(small_graphs())
def test_prune_with_map_matches_peeling(g):
    assert prune_with_map(g) == reference_prune_with_map(g)


@pytest.mark.parametrize("g", [
    empty_graph(), bouquet(1), bouquet(0, 2), cycle_graph(5),
    complete_graph(4), dipole(3), from_pairs(3, [(0, 1), (1, 2), (2, 0)],
                                             [0, 1, 2]),
])
def test_prune_with_map_returns_a_pruned_graph_itself(g):
    assert g.is_pruned()
    core, vids, eids = prune_with_map(g)
    assert core is g
    assert (vids, eids) == (tuple(range(g.n)), tuple(range(g.num_directed)))
