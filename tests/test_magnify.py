import math

import numpy as np
import pytest

from nblifts.graphs import (
    bouquet, complete_graph, cycle_graph, dipole, from_pairs,
)
from nblifts.lifts import ModelSpec, sample_lift
from nblifts.magnify import (
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
