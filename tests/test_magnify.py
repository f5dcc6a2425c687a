import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nblifts.graphs import (
    bouquet, complete_graph, cycle_graph, dipole, from_pairs,
)
from nblifts.lifts import ModelSpec, sample_lift
from nblifts.magnify import (
    EXHAUSTIVE_VERTEX_CAP,
    VertexSubset,
    alon_gap_bound,
    alon_gap_check,
    best_gamma_exhaustive,
    fibre_imbalance_expansion,
    imbalance_rate,
    is_magnifier,
    is_pseudo_magnifier,
    lift_fibre_blocks,
    neighborhood,
    resolve_mode,
)
from nblifts.spectral import adjacency_matrix, lambda2


def test_neighborhood_examples():
    g = from_pairs(2, [(0, 1)])
    assert neighborhood(g, {0}) == {1}
    assert neighborhood(g, {0, 1}) == {0, 1}
    k4 = complete_graph(4)
    assert neighborhood(k4, set(range(4))) == set(range(4))
    # a component's neighbourhood stays inside it
    g2 = from_pairs(4, [(0, 1), (2, 3)])
    assert neighborhood(g2, {0, 1}) <= {0, 1}


def test_loop_vertex_is_own_neighbor():
    assert neighborhood(bouquet(1), {0}) == {0}
    assert neighborhood(bouquet(0, 1), {0}) == {0}


def test_neighborhood_matches_adjacency_support():
    g = complete_graph(5)
    a = adjacency_matrix(g)
    for u in ({0}, {1, 2}, {0, 3, 4}):
        cols = set(np.nonzero(a[sorted(u)].sum(axis=0))[0].tolist())
        assert neighborhood(g, u) == cols


def test_k4_is_one_magnifier():
    res = is_magnifier(complete_graph(4), 1.0, mode="exhaustive")
    assert res.holds
    assert res.best_gamma >= 1.0


def test_disconnected_graph_fails_with_component_witness():
    g = from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    res = is_magnifier(g, 0.1, mode="exhaustive")
    assert not res.holds
    assert res.witness in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_c6_fails_gamma_two():
    res = is_magnifier(cycle_graph(6), 2.0, mode="exhaustive")
    assert not res.holds
    # a contiguous pair has only two outside neighbours: ratio 1 < 2
    u = res.witness
    assert len(neighborhood(cycle_graph(6), u) - u) < 2.0 * len(u)


def test_pseudo_magnifier_vacuous_window():
    g = complete_graph(4)
    res = is_pseudo_magnifier(g, R=3, gamma=5.0)
    assert res.holds and res.trials == 0


def test_pseudo_monotone_in_R_antitone_in_gamma():
    g = cycle_graph(8)
    holds_by_R = [is_pseudo_magnifier(g, R, 0.5, mode="exhaustive").holds
                  for R in (1, 2, 3, 4)]
    for earlier, later in zip(holds_by_R, holds_by_R[1:]):
        assert later or not earlier
    holds_by_gamma = [is_pseudo_magnifier(g, 1, gam, mode="exhaustive").holds
                      for gam in (0.1, 0.5, 1.0, 2.0)]
    for small, large in zip(holds_by_gamma, holds_by_gamma[1:]):
        assert small or not large


def test_magnifier_implies_pseudo():
    g = complete_graph(6)
    gamma = 0.9
    assert is_magnifier(g, gamma, mode="exhaustive").holds
    for R in (1, 2, 3):
        assert is_pseudo_magnifier(g, R, gamma, mode="exhaustive").holds


def test_exhaustive_cap():
    big = cycle_graph(25)
    with pytest.raises(ValueError):
        is_magnifier(big, 0.5, mode="exhaustive")
    res = is_magnifier(big, 3.0, mode="auto", trials=50, seed=1)
    assert res.mode == "sampled"
    assert not res.holds  # long cycles expand poorly; sampling finds it


def test_resolve_mode_by_size():
    # the CLI refuses the sampled options by this answer, and the check
    # runs by it
    at_cap = cycle_graph(EXHAUSTIVE_VERTEX_CAP)
    above = cycle_graph(EXHAUSTIVE_VERTEX_CAP + 1)
    assert resolve_mode(at_cap, "auto") == "exhaustive"
    assert resolve_mode(above, "auto") == "sampled"
    for mode in ("exhaustive", "sampled"):
        assert resolve_mode(at_cap, mode) == resolve_mode(above, mode) == mode
    assert is_magnifier(at_cap, 0.1).mode == "exhaustive"
    assert is_magnifier(above, 0.1).mode == "sampled"


def test_best_gamma_k4():
    best, witness = best_gamma_exhaustive(complete_graph(4))
    assert best == pytest.approx(1.0)
    assert len(witness) == 2


def brute_force_best_gamma(g, lo, hi):
    from itertools import combinations
    best = None
    for size in range(max(1, lo), hi + 1):
        for combo in combinations(range(g.n), size):
            u = set(combo)
            ratio = len(neighborhood(g, u) - u) / size
            if best is None or ratio < best:
                best = ratio
    return best


def test_exhaustive_scan_matches_brute_force():
    cases = [
        complete_graph(5),
        cycle_graph(7),
        from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        bouquet(2),
        from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 0)], [2]),
    ]
    for g in cases:
        if g.n < 2:
            continue
        best, _ = best_gamma_exhaustive(g)
        assert best == pytest.approx(brute_force_best_gamma(g, 1, g.n // 2))


def test_pseudo_magnifier_small_component_below_window():
    # triangle plus K5: the size-3 component sits below the window R=4,
    # so only mixed sets matter; compare against the brute-force oracle
    g = from_pairs(8, [(0, 1), (1, 2), (2, 0)] +
                   [(i, j) for i in range(3, 8) for j in range(i + 1, 8)])
    res = is_pseudo_magnifier(g, R=4, gamma=0.25, mode="exhaustive")
    oracle = brute_force_best_gamma(g, 4, 4)
    assert res.holds == (oracle >= 0.25)
    assert res.best_gamma == pytest.approx(oracle)


def test_tiny_gamma_vacuous_gap_bound():
    # as gamma shrinks the spectral bound tends to d and is trivially met
    g = complete_graph(4)
    assert alon_gap_bound(3, 1e-9) == pytest.approx(3.0)
    assert alon_gap_check(g, 1e-9)


def test_alon_gap_check():
    assert alon_gap_check(complete_graph(4), 1.0)
    # lambda2 = -1 <= 3 - 1/6
    assert lambda2(complete_graph(4)) <= alon_gap_bound(3, 1.0)
    with pytest.raises(ValueError):
        alon_gap_check(cycle_graph(6), 2.0)  # premise fails
    with pytest.raises(ValueError):
        alon_gap_check(from_pairs(3, [(0, 1), (1, 2)]), 0.5)  # not regular


def test_alon_gap_on_sampled_lifts():
    for seed in range(6):
        lift = sample_lift(complete_graph(4), 3, ModelSpec(), seed=seed)
        best, _ = best_gamma_exhaustive(lift.cover)
        if best <= 0:
            continue
        assert alon_gap_check(lift.cover, best)


def test_imbalance_rate_closed_form():
    assert imbalance_rate(0.5, 2) == pytest.approx(0.125)
    assert imbalance_rate(0.5, 1) == 0.0
    with pytest.raises(ValueError):
        imbalance_rate(1.5, 3)


def test_fibre_imbalance_expansion():
    base = dipole(3)
    lift = sample_lift(base, 8, ModelSpec(), seed=3)
    n = 8
    balanced = VertexSubset.from_cover_indices(
        lift, [0 * n + i for i in range(3)] + [1 * n + i for i in range(3)])
    applies, nu1, _ = fibre_imbalance_expansion(lift, balanced, 0.5)
    assert not applies
    lopsided = VertexSubset.from_cover_indices(lift, [0 * n + i for i in range(4)])
    applies, nu1, satisfied = fibre_imbalance_expansion(lift, lopsided, 0.5)
    assert applies
    assert nu1 == pytest.approx(imbalance_rate(0.5, 2))
    assert satisfied


def test_fibre_imbalance_exhaustive_small_cover():
    # every imbalanced subset of a small cover satisfies the guaranteed rate
    base = dipole(2)
    lift = sample_lift(base, 4, ModelSpec(), seed=5)
    cover = lift.cover
    eps = 0.5
    from itertools import combinations
    findings = []
    for size in range(1, cover.n // 2 + 1):
        for combo in combinations(range(cover.n), size):
            sub = VertexSubset.from_cover_indices(lift, combo)
            applies, nu1, satisfied = fibre_imbalance_expansion(lift, sub, eps)
            if applies and not satisfied:
                findings.append(combo)
    assert findings == []


def test_fibre_imbalance_exhaustive_sixteen_vertex_cover():
    # all 2^16 subsets of a degree-8 cover of the 2-vertex base, vectorized
    from nblifts.magnify import _popcount, _subset_tables
    n = 8
    for seed in (11, 12):
        lift = sample_lift(dipole(2), n, ModelSpec(), seed=seed)
        cover = lift.cover
        eps = 0.5
        nu1 = imbalance_rate(eps, 2)
        table = _subset_tables(cover)
        ids = np.arange(1 << cover.n, dtype=np.uint32)
        sizes = _popcount(ids)
        outside = _popcount(table & ~ids)
        fibre0 = _popcount(ids & np.uint32((1 << n) - 1))
        fibre1 = sizes - fibre0
        applies = np.minimum(fibre0, fibre1) < (1 - eps) * np.maximum(
            fibre0, fibre1)
        relevant = applies & (sizes >= 1)
        # the guaranteed expansion holds for every imbalanced subset
        assert bool(np.all(outside[relevant] >= nu1 * sizes[relevant]))


def test_fibre_blocks_shapes():
    lift = sample_lift(complete_graph(4), 6, ModelSpec(), seed=0)
    blocks = lift_fibre_blocks(lift)
    assert any(len(b) == 6 for b in blocks)
    assert any(len(b) == 3 for b in blocks)
    res = is_magnifier(lift.cover, 0.01, mode="sampled", trials=40,
                       fibre_blocks=blocks)
    assert res.trials > 0


def test_vertex_subset_fibres():
    lift = sample_lift(dipole(2), 5, ModelSpec(), seed=1)
    sub = VertexSubset.from_cover_indices(lift, [0, 1, 2, 7])
    assert sub.fibre(0) == {0, 1, 2}
    assert sub.fibre(1) == {2}
    assert sub.fibre_sizes() == [3, 1]


def test_pseudo_magnifier_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode must be one of"):
        is_pseudo_magnifier(complete_graph(4), 1, 0.5, mode="exhaustiv")


@pytest.mark.parametrize("mode", ["sampled", "exhaustive", "auto"])
@pytest.mark.parametrize("trials", [0, -5])
def test_pseudo_magnifier_rejects_nonpositive_trials(mode, trials):
    # a sampled check of no subset would report that C30 magnifies
    with pytest.raises(ValueError, match="trials must be at least 1"):
        is_pseudo_magnifier(cycle_graph(30), 1, 0.5, mode=mode, trials=trials)


@pytest.mark.parametrize("bad", [-1, 30])
def test_pseudo_magnifier_rejects_unknown_fibre_vertex(bad):
    # a negative id used to index from the end: [-1, -2] was checked as a
    # set with the neighbours of vertices 29 and 28
    with pytest.raises(ValueError, match=f"unknown vertex {bad}"):
        is_pseudo_magnifier(cycle_graph(30), 1, 1.5, mode="sampled",
                            fibre_blocks=[[0, 1], [5, bad]])


def _candidates_with_a_bfs_per_radius(g, lo, hi, trials, rng, fibre_blocks):
    """Reference for the columns of _candidate_blocks: the same sequence,
    with one BFS from scratch for each radius 1, 2 and 3."""
    def ball(start, radius):
        found, frontier = {start}, {start}
        for _ in range(radius):
            frontier = neighborhood(g, frontier) - found
            if not frontier:
                break
            found |= frontier
        return frozenset(found)

    seen = set()
    out = []
    for blk in map(frozenset, fibre_blocks):
        if lo <= len(blk) <= hi and blk not in seen:
            seen.add(blk)
            out.append(blk)
    for v in range(min(g.n, trials)):
        for radius in (1, 2, 3):
            b = ball(v, radius)
            if lo <= len(b) <= hi and b not in seen:
                seen.add(b)
                out.append(b)
    for _ in range(trials):
        size = int(rng.integers(lo, hi + 1))
        u = frozenset(int(x) for x in rng.choice(g.n, size=size, replace=False))
        if u not in seen:
            seen.add(u)
            out.append(u)
    return out


@pytest.mark.parametrize("graph, blocks, lo, trials", [
    (sample_lift(complete_graph(4), 10, ModelSpec(), seed=3).cover, True, 2,
     60),
    (sample_lift(bouquet(2), 30, ModelSpec(), seed=5).cover, True, 1, 20),
    (sample_lift(bouquet(1, 1), 12, ModelSpec(half_loop="matching"),
                 seed=2).cover, False, 1, 30),
    # components exhausted before radius 3, and an isolated vertex
    (from_pairs(8, [(0, 1), (2, 3), (3, 4), (5, 6), (6, 6)]), False, 1, 8),
])
def test_candidate_subsets_match_a_bfs_per_radius(graph, blocks, lo, trials):
    from nblifts.magnify import _candidate_blocks
    fibre = [list(range(i, graph.n, 3)) for i in range(3)] if blocks else []
    hi = graph.n // 2
    got = [frozenset(np.flatnonzero(u).tolist())
           for cols, *_ in _candidate_blocks(graph, lo, hi, trials,
                                            np.random.default_rng(11), fibre)
           for u in cols.T]
    want = _candidates_with_a_bfs_per_radius(
        graph, lo, hi, trials, np.random.default_rng(11), fibre)
    assert got == want
    assert len(got) > trials // 2


@st.composite
def _sampled_magnifier_cases(draw):
    """A multigraph with whole-loops, half-loops, parallel edges and
    isolated vertices, or a random cover of a small such base; plus fibre
    blocks, some with repeated vertices."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 70))
        vertex = st.integers(0, n - 1)
        g = from_pairs(n, draw(st.lists(st.tuples(vertex, vertex),
                                        max_size=80)),
                       draw(st.lists(vertex, max_size=6)))
        blocks = []
    else:
        m = draw(st.integers(1, 4))
        vertex = st.integers(0, m - 1)
        base = from_pairs(m, draw(st.lists(st.tuples(vertex, vertex),
                                           max_size=6)),
                          draw(st.lists(vertex, max_size=2)))
        degree = draw(st.integers(1, 20))
        half_loop = (None if not base.has_half_loops()
                     else "matching" if degree % 2 == 0 else "near_matching")
        lift = sample_lift(base, degree, ModelSpec(half_loop=half_loop),
                           draw(st.integers(0, 2**32 - 1)))
        g = lift.cover
        blocks = lift_fibre_blocks(lift) if draw(st.booleans()) else []
    vertex = st.integers(0, g.n - 1)
    blocks += draw(st.lists(st.lists(vertex, max_size=g.n), max_size=4))
    return g, blocks


@settings(max_examples=300, deadline=None)
@given(case=_sampled_magnifier_cases(), R=st.integers(1, 6),
       gamma=st.floats(0.01, 3.0), trials=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1))
def test_sampled_magnifier_matches_set_reference(case, R, gamma, trials,
                                                 seed):
    from helpers import reference_sampled_magnifier
    g, blocks = case
    got = is_pseudo_magnifier(g, R, gamma, mode="sampled", trials=trials,
                              seed=seed, fibre_blocks=blocks)
    want = reference_sampled_magnifier(g, R, gamma, trials, seed, blocks)
    assert got == want


# a 320-vertex K4 cover: every fibre block has 3 outside neighbours per
# vertex, and the balls of radius 1, 2 and 3 around vertex 0 have 1.5, 1.2
# and 23/22
_K4_COVER = sample_lift(complete_graph(4), 80, ModelSpec(), seed=0)


def _ball(g, start, radius):
    found = frontier = {start}
    for _ in range(radius):
        frontier = neighborhood(g, frontier) - found
        found = found | frontier
    return frozenset(found)


@pytest.mark.parametrize("R, gamma, violator", [
    (2, 3.5, "fibre block"),
    (2, 2.0, 1),
    (2, 1.3, 2),
    (2, 1.1, 3),
    # no ball of radius 3 in a cubic graph reaches 23 vertices
    (23, 0.9, "uniform draw"),
])
def test_sampled_magnifier_first_violator_matches_reference(R, gamma,
                                                            violator):
    """The check stops at its first violator, whichever kind of candidate
    that is, with the result of the set reference."""
    from helpers import reference_sampled_magnifier
    g = _K4_COVER.cover
    blocks = lift_fibre_blocks(_K4_COVER)
    got = is_pseudo_magnifier(g, R, gamma, mode="sampled", trials=100,
                              seed=0, fibre_blocks=blocks)
    assert got == reference_sampled_magnifier(g, R, gamma, 100, 0, blocks)
    assert not got.holds
    if violator == "fibre block":
        assert got.witness == frozenset(blocks[0])
    elif violator == "uniform draw":
        assert len(got.witness) >= R
        assert got.witness not in {frozenset(b) for b in blocks}
    else:
        assert got.witness == _ball(g, 0, violator)


def test_a_uniform_draw_that_repeats_a_block_or_ball_is_not_counted():
    from helpers import reference_sampled_magnifier
    g, blocks, trials, seed = cycle_graph(8), [[0, 4], [1, 5]], 30, 0
    earlier = {frozenset(b) for b in blocks} | {_ball(g, v, 1)
                                                for v in range(g.n)}
    rng = np.random.default_rng(seed)
    draws = [frozenset(rng.choice(g.n, size=int(rng.integers(1, 5)),
                                  replace=False).tolist())
             for _ in range(trials)]
    assert any(d in earlier for d in draws)
    got = is_pseudo_magnifier(g, 1, 0.01, mode="sampled", trials=trials,
                              seed=seed, fibre_blocks=blocks)
    assert got == reference_sampled_magnifier(g, 1, 0.01, trials, seed,
                                              blocks)
    # every radius-2 and radius-3 ball has more than 4 vertices
    assert got.holds and got.trials == len(earlier | set(draws))


@pytest.mark.parametrize("graph", [
    cycle_graph(12), sample_lift(bouquet(2), 10, ModelSpec(), seed=4).cover])
@pytest.mark.parametrize("R, gamma", [(1, 0.1), (2, 0.7), (3, 1.5)])
def test_sampled_magnifier_with_more_trials_than_vertices(graph, R, gamma):
    from helpers import reference_sampled_magnifier
    got = is_pseudo_magnifier(graph, R, gamma, mode="sampled", trials=40,
                              seed=3)
    assert got == reference_sampled_magnifier(graph, R, gamma, 40, 3)


@pytest.mark.parametrize("cells", [1, 3 * 321, 50 * 321])
@pytest.mark.parametrize("R, gamma", [(2, 0.1), (2, 1.0), (23, 0.9)])
def test_sampled_magnifier_stops_at_the_block_of_its_first_violator(
        monkeypatch, cells, R, gamma):
    """Blocks of one column, of one start's three balls and of 50 columns
    give the reference's result, and no block past the violator's is
    built; gamma 1.0 stops at the radius-3 ball of vertex 3."""
    from helpers import reference_sampled_magnifier
    import nblifts.magnify as magnify
    g, blocks = _K4_COVER.cover, lift_fibre_blocks(_K4_COVER)
    build, widths = magnify._candidate_blocks, []

    def recorded(*args):
        for block in build(*args):
            widths.append(block[0].shape[1])
            yield block

    monkeypatch.setattr(magnify, "BLOCK_CELLS", cells)
    monkeypatch.setattr(magnify, "_candidate_blocks", recorded)
    got = is_pseudo_magnifier(g, R, gamma, mode="sampled", trials=100,
                              seed=0, fibre_blocks=blocks)
    assert got == reference_sampled_magnifier(g, R, gamma, 100, 0, blocks)
    assert max(widths) <= max(3, cells // (g.n + 1)) and len(widths) > 1
    assert sum(widths[:-1]) < got.trials <= sum(widths)
    if gamma == 1.0:
        assert got.witness == _ball(g, 3, 3)


# a 640-vertex K4 cover: fibre blocks have ratio 3, the balls of radius 1,
# 2 and 3 around vertex 0 have 1.5, 1.2 and 1.0, and no ball of radius 3
# reaches 23 vertices
_K4_COVER_640 = sample_lift(complete_graph(4), 160, ModelSpec(), seed=0)


@pytest.mark.parametrize("R, gamma, violator", [
    (2, 0.1, None),
    (23, 0.5, None),
    (2, 3.5, "fibre block"),
    (2, 2.0, 1),
    (2, 1.3, 2),
    (2, 1.1, 3),
    (23, 0.9, "uniform draw"),
])
def test_sampled_magnifier_on_a_640_vertex_cover(R, gamma, violator):
    from helpers import reference_sampled_magnifier
    g, blocks = _K4_COVER_640.cover, lift_fibre_blocks(_K4_COVER_640)
    got = is_pseudo_magnifier(g, R, gamma, mode="sampled", trials=100,
                              seed=0, fibre_blocks=blocks)
    assert got == reference_sampled_magnifier(g, R, gamma, 100, 0, blocks)
    assert got.holds == (violator is None)
    if violator == "fibre block":
        assert got.witness == frozenset(blocks[0]) and got.trials == 1
    elif violator == "uniform draw":
        assert len(got.witness) >= R and got.trials > len(blocks)
        assert got.witness not in {frozenset(b) for b in blocks}
    elif violator is not None:
        assert got.witness == _ball(g, 0, violator)
