import pytest
from hypothesis import given, settings, strategies as st

from nblifts.graphs import (
    bouquet, complete_graph, cycle_graph, dipole, from_pairs, path_graph,
)
from nblifts.lifts import ModelSpec, sample_lift
from nblifts.walks import (
    BudgetExceededError,
    HomotopyType,
    Walk,
    beads,
    count_snbc_dfs,
    enumerate_snbc,
    snbc_by_type,
    snbc_count,
    suppress_beads,
    visited_subgraph,
    vlg,
    walk_reduction,
    write_walk_census,
)


def test_walk_predicates():
    g = cycle_graph(3)
    # ids: orbit j has directed edges 2j (forward) and 2j+1 (backward)
    w = Walk.from_edges(g, (0, 2, 4))
    w.validate(g)
    assert w.is_closed() and w.is_nonbacktracking(g) and w.is_snbc(g)
    back = Walk.from_edges(g, (0, 1))
    assert not back.is_nonbacktracking(g)
    open_walk = Walk.from_edges(g, (0, 2))
    assert not open_walk.is_snbc(g)


def test_enumerate_triangle():
    assert len(enumerate_snbc(cycle_graph(3), 3)) == 6


def test_enumerate_half_loop_length_one_empty():
    assert enumerate_snbc(bouquet(0, 1), 1) == []


def test_enumerate_tree_empty():
    for k in range(1, 5):
        assert enumerate_snbc(path_graph(3), k) == []


def test_snbc_count_matches_enumeration_small():
    graphs = [
        cycle_graph(3),
        complete_graph(4),
        bouquet(2),
        bouquet(1, 2),
        dipole(3),
        from_pairs(2, [(0, 1)], [0, 1]),
    ]
    for g in graphs:
        counts = count_snbc_dfs(g, 6)
        for k in range(1, 7):
            walks = enumerate_snbc(g, k, budget=10 ** 8)
            assert len(walks) == counts[k - 1]
            assert snbc_count(g, k) == counts[k - 1], (g, k)
            for w in walks[:20]:
                assert w.is_snbc(g)


def test_snbc_count_k4_value():
    # 8 rooted directed triangles: 4 choices of base triangle x 3 roots x 2
    assert snbc_count(complete_graph(4), 3) == 24


def test_snbc_count_forest_zero():
    for k in range(1, 6):
        assert snbc_count(path_graph(4), k) == 0


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_snbc(complete_graph(4), 12, budget=10)


def test_exact_integer_trace_path():
    # cycle_graph(5) has non-backtracking out-degree 1, so 10 * 1^k < 2^52
    # keeps even k = 200 on the float64 path
    g = cycle_graph(5)
    assert snbc_count(g, 200) == 10  # two directed 5-cycles, k divisible by 5
    assert snbc_count(g, 201) == 0
    # bouquet(2): H has 4 rows of sum 3 and spectrum {3, 1, 1, -1}; at
    # k = 40 and 41, 4 * 3^k > 2^52 and the power is formed in Python ints
    for k in (30, 40, 41):
        assert snbc_count(bouquet(2), k) == 3 ** k + 2 + (-1) ** k
    assert snbc_count(bouquet(2), 40) == 12157665459056928804


def test_visited_subgraph_triangle():
    g = cycle_graph(3)
    w = Walk.from_edges(g, (0, 2, 4))
    s = visited_subgraph(w, g)
    assert s.n == 3 and s.num_edges == 3
    assert s == from_pairs(3, [(0, 1), (1, 2), (2, 0)])


def test_visited_subgraph_single_edge():
    g = complete_graph(4)
    w = Walk.from_edges(g, (0,))
    s = visited_subgraph(w, g)
    assert s.n == 2 and s.num_edges == 1


def test_visited_subgraph_of_snbc_walk_is_pruned():
    lift = sample_lift(complete_graph(4), 3, ModelSpec(), seed=4)
    for k in (3, 4, 5):
        for w in enumerate_snbc(lift.cover, k, budget=10 ** 8)[:50]:
            s = visited_subgraph(w, lift.cover)
            assert s.min_degree() >= 2


def test_beads():
    g = from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    assert beads(g) == [0, 1, 2]
    g2 = from_pairs(2, [(0, 1), (0, 1)], [])  # both vertices degree 2
    assert beads(g2) == [0, 1]
    g3 = bouquet(1)  # loop vertex is never a bead
    assert beads(g3) == []


def test_suppress_beads_identity_when_empty():
    g = complete_graph(4)
    ht = suppress_beads(g, set())
    assert ht.lengths == (1,) * 6
    assert ht.reduction.n == 4


def test_suppress_beads_subdivided_square():
    # 4-cycle with two opposite vertices suppressed: two edges of length 2
    g = cycle_graph(4)
    ht = suppress_beads(g, {1, 3})
    assert ht.reduction.n == 2
    assert sorted(ht.lengths) == [2, 2]


def test_suppress_beads_rejects_bad_sets():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        suppress_beads(g, {0, 1, 2, 3})  # whole component
    g2 = from_pairs(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
    with pytest.raises(ValueError):
        suppress_beads(g2, {2})  # degree three, not a bead


def test_walk_reduction_triangle():
    g = cycle_graph(3)
    w = Walk.from_edges(g, (0, 2, 4))
    ht = walk_reduction(w, g)
    assert ht.reduction.n == 1
    assert ht.lengths == (3,)
    assert ht.total_length() == 3


def test_vlg_basics():
    t = complete_graph(4)
    assert vlg(t, {rep: 1 for rep in t.orientation()}) == t
    single = path_graph(1)
    g = vlg(single, {0: 3})
    assert g.n == 4 and g.num_edges == 3
    with pytest.raises(ValueError):
        vlg(single, {0: 0})
    with pytest.raises(ValueError):
        vlg(bouquet(0, 1), {0: 2})  # half-loops stay length one


def orbit_multiset(g):
    out = []
    for rep in g.orientation():
        u, v = g.tail[rep], g.head[rep]
        out.append((min(u, v), max(u, v), g.inv[rep] == rep))
    return sorted(out)


@st.composite
def small_templates(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=5))
    halves = draw(st.lists(st.integers(0, n - 1), max_size=2))
    return from_pairs(n, pairs, halves)


@settings(max_examples=60, deadline=None)
@given(small_templates(), st.data())
def test_vlg_suppression_roundtrip(t, data):
    reps = t.orientation()
    lengths = {}
    for rep in reps:
        if t.inv[rep] == rep:
            lengths[rep] = 1
        else:
            lengths[rep] = data.draw(st.integers(1, 4))
    g = vlg(t, lengths)
    interior = set(range(t.n, g.n))
    if not interior and all(v == 1 for v in lengths.values()):
        return
    ht = suppress_beads(g, interior)
    red = ht.reduction
    assert red.n == t.n
    want = sorted(
        (min(t.tail[r], t.head[r]), max(t.tail[r], t.head[r]),
         t.inv[r] == r, lengths[r]) for r in reps)
    got = sorted(
        (min(red.tail[r], red.head[r]), max(red.tail[r], red.head[r]),
         red.inv[r] == r, ht.lengths[i])
        for i, r in enumerate(ht.reduction.orientation()))
    assert want == got


def test_reduction_length_sum_equals_edge_count():
    lift = sample_lift(bouquet(2), 3, ModelSpec(), seed=9)
    for w in enumerate_snbc(lift.cover, 5, budget=10 ** 8)[:40]:
        s = visited_subgraph(w, lift.cover)
        ht = walk_reduction(w, lift.cover)
        assert s.num_edges == ht.total_length()


def test_reduction_on_subdivided_graph_with_bead_starts():
    # subdividing the 3-dipole gives interior beads; many walks start
    # mid-path, exercising the kept-vertex and orientation conventions
    from nblifts.graphs import dipole
    theta = vlg(dipole(3), {rep: 2 for rep in dipole(3).orientation()})
    assert theta.n == 5
    total = 0
    for k in (4, 6, 8):
        walks = enumerate_snbc(theta, k, budget=10 ** 7)
        census = snbc_by_type(theta, k, budget=10 ** 7)
        assert sum(census.values()) == len(walks) == snbc_count(theta, k)
        for w in walks:
            s = visited_subgraph(w, theta)
            ht = walk_reduction(w, theta)
            assert s.num_edges == ht.total_length()
            total += 1
    assert total > 0


def test_snbc_by_type_triangle():
    census = snbc_by_type(cycle_graph(3), 3)
    assert len(census) == 1
    ((ht, count),) = census.items()
    assert count == 6
    assert ht.lengths == (3,)


def test_snbc_by_type_counts_sum():
    for g in (complete_graph(4), bouquet(2), from_pairs(2, [(0, 1)], [0, 1])):
        for k in (2, 3, 4, 5):
            census = snbc_by_type(g, k, budget=10 ** 8)
            assert sum(census.values()) == snbc_count(g, k)


def test_snbc_by_type_figure_eight():
    # length-2 SNBC walks in the figure-eight: (e, e) around one loop for
    # each of the 4 directed edges, or (e, f) with f from the other loop
    # (4 x 2 choices); one single-loop type and one two-loop type
    census = snbc_by_type(bouquet(2), 2, budget=10 ** 6)
    assert sum(census.values()) == snbc_count(bouquet(2), 2) == 12
    by_count = sorted(census.values())
    assert by_count == [4, 8]
    loops = sorted(ht.reduction.num_edges for ht in census)
    assert loops == [1, 2]


def test_snbc_by_type_forest_empty():
    assert snbc_by_type(path_graph(3), 4) == {}


def test_homotopy_type_hashable_and_comparable():
    g = cycle_graph(3)
    w1 = Walk.from_edges(g, (0, 2, 4))
    w2 = Walk.from_edges(g, (2, 4, 0))
    h1, h2 = walk_reduction(w1, g), walk_reduction(w2, g)
    assert h1 == h2 and hash(h1) == hash(h2)
    # the reversed triangle has the same type: one loop of length 3
    h3 = walk_reduction(Walk.from_edges(g, (1, 5, 3)), g)
    assert h3 == h1 and hash(h3) == hash(h1)
    # the figure-eight at k = 2 has one single-loop and one two-loop type
    census = snbc_by_type(bouquet(2), 2)
    one, two = sorted(census, key=lambda ht: len(ht.lengths))
    assert one.lengths == (1,) and two.lengths == (1, 1)
    assert one != two and len(census) == 2


def test_write_walk_census(tmp_path):
    csv_path = tmp_path / "census.csv"
    cat_path = tmp_path / "catalog.json"
    rows = write_walk_census(complete_graph(4), [3, 4], csv_path, cat_path)
    assert csv_path.exists() and cat_path.exists()
    assert sum(r[3] for r in rows if r[0] == 3) == 24
    import json
    catalog = json.loads(cat_path.read_text())
    assert all(tid.startswith("T") for tid in catalog)


# sha256 of the census CSV and of its type catalog; the census is pure
# combinatorics, so the bytes are the same on every platform
CENSUS_DIGESTS = {
    "k4": ("6b1521bc3ddc16229ead18ad1cacc098183f81308cd5df8f9112e46255f1bac1",
           "cc6e7e3c7552865026d7e39d17abf149b759a43a7b26ff1c2b10169b0d9e043b"),
    "bouquet2": (
        "f892a25f77acc209a1e5810c72ff8ac697b7a1d32611acdde294817bc3036cfa",
        "24ddcca2fa2aa8d393019aba71d34b1558da6185835e6a3fc934017323dad925"),
    "theta22": (
        "2f852fa6d4d7622c82a4c6d9dcb967b3bdbd1d90e1f27a0b200672a4b48c445e",
        "1b4820bd51ca1e4fc7861e0060781698eb2d0dbc13d7e4a69d78ce2ec396b6a4"),
    "edge_two_halves": (
        "2f2e7efc338c0eeda137ac61f9ed7624b802d831b6e9314567ecce869eabe8c0",
        "30e10b7803937cb4627d2d770b8f1ace6fea0613607d550a6cd4f44dff45e69c"),
    "k4_cover": (
        "66fbba4f590aac350489c839ab60a47c23a0d6c291fc769d93fe8adc2eefce83",
        "cc6e7e3c7552865026d7e39d17abf149b759a43a7b26ff1c2b10169b0d9e043b"),
}


@pytest.mark.parametrize("name, make, ks", [
    ("k4", lambda: complete_graph(4), (3, 4)),
    ("bouquet2", lambda: bouquet(2), (1, 2, 3, 4)),
    ("theta22", lambda: vlg(dipole(3), [2, 2, 2]), (4, 6)),
    ("edge_two_halves", lambda: from_pairs(2, [(0, 1)], [0, 1]), (2, 3, 4, 5)),
    ("k4_cover",
     lambda: sample_lift(complete_graph(4), 3, ModelSpec(), seed=4).cover,
     (3, 4, 5)),
])
def test_walk_census_bytes_are_pinned(tmp_path, name, make, ks):
    import hashlib
    csv_path = tmp_path / "census.csv"
    cat_path = tmp_path / "catalog.json"
    write_walk_census(make(), ks, csv_path, cat_path)
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (csv_path, cat_path))
    assert got == CENSUS_DIGESTS[name]


def test_count_snbc_dfs_rejects_nonpositive_length():
    for g, kmax in ((bouquet(1), 0), (complete_graph(4), -1)):
        with pytest.raises(ValueError, match="walk length must be at least 1"):
            count_snbc_dfs(g, kmax)


def test_count_snbc_dfs_budget_guard():
    with pytest.raises(BudgetExceededError):
        count_snbc_dfs(complete_graph(4), 12, budget=10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_count_snbc_dfs_matches_per_walk_reference(seed, kmax):
    import numpy as np
    from helpers import random_connected_multigraph, reference_count_snbc_dfs
    g = random_connected_multigraph(np.random.default_rng(seed),
                                    max_vertices=5, max_extra=3,
                                    half_loop_prob=0.5)
    assert count_snbc_dfs(g, kmax) == reference_count_snbc_dfs(g, kmax)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_count_snbc_dfs_splitting_every_level_keeps_counts(seed, kmax):
    from unittest import mock
    import numpy as np
    from helpers import random_connected_multigraph, reference_count_snbc_dfs
    from nblifts import walks
    g = random_connected_multigraph(np.random.default_rng(seed),
                                    max_vertices=4, max_extra=2,
                                    half_loop_prob=0.5)
    with mock.patch.object(walks, "WALK_CHUNK", 1):
        got = count_snbc_dfs(g, kmax)
    assert got == reference_count_snbc_dfs(g, kmax)


@pytest.mark.parametrize("chunk", [1, None])
def test_count_snbc_dfs_edge_cases(monkeypatch, chunk):
    from nblifts import walks
    from nblifts.graphs import Graph
    if chunk is not None:
        monkeypatch.setattr(walks, "WALK_CHUNK", chunk)
    assert count_snbc_dfs(Graph(0, (), (), ()), 4) == [0] * 4
    assert count_snbc_dfs(Graph(3, (), (), ()), 4) == [0] * 4
    for k in range(1, 5):
        assert count_snbc_dfs(path_graph(k), 6) == [0] * 6
    # length one: a whole-loop closes in both directions, a half-loop
    # backtracks onto itself, an ordinary edge does not close
    assert count_snbc_dfs(bouquet(1), 1) == [2]
    assert count_snbc_dfs(bouquet(0, 1), 1) == [0]
    assert count_snbc_dfs(bouquet(2, 3), 1) == [4]
    assert count_snbc_dfs(from_pairs(2, [(0, 1)], [0, 1]), 1) == [0]
    assert count_snbc_dfs(cycle_graph(3), 1) == [0]


def test_count_snbc_dfs_memory_bounded_by_chunk(monkeypatch):
    # bouquet(2) has 4 * 3**11 = 708,588 non-backtracking walks of length
    # 12, 5.7 MB as one int64 array; split levels stay far below that
    import tracemalloc
    from nblifts import walks
    monkeypatch.setattr(walks, "WALK_CHUNK", 256)
    g = bouquet(2)
    tracemalloc.start()
    try:
        counts = count_snbc_dfs(g, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == [snbc_count(g, k) for k in range(1, 13)]
    assert peak < 1 << 20, peak
