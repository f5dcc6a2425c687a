"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines and timings.  Criteria with an explicit runtime budget assert it.
"""

import math
import time
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest

from helpers import connected_multigraph_corpus, random_connected_multigraph
from nblifts.bounds import (
    binom_estimate_witness,
    h2,
    h2_second_derivative,
    involution_containment_bound,
    matchings,
    odd_binom_exact,
    perm_containment_prob,
    verify_binom_estimate,
)
from nblifts.experiments import (
    ExperimentConfig,
    fit_scaling,
    run_experiment,
    wilson_interval,
)
from nblifts.graphs import bouquet, complete_graph, dipole, from_pairs
from nblifts.lifts import ModelSpec, sample_lift
from nblifts.magnify import alon_gap_bound, best_gamma_exhaustive
from nblifts.spectral import (
    adjacency_spectrum,
    ihara_check,
    lambda2,
    multiset_difference,
    mu1,
)
from nblifts.tangles import (
    contract_nonloop_edge,
    example_tangles,
    identify_distance_two,
    m_no_whole,
    m_whole,
)
from nblifts.walks import count_snbc_dfs, snbc_count


def report(line):
    print(f"\n[PASS] {line}")


def test_criterion_1_snbc_trace_identity():
    start = time.time()
    corpus = connected_multigraph_corpus(max_vertices=3, max_orbits=5)
    assert len(corpus) > 150
    checked = 0
    for g in corpus:
        counts = count_snbc_dfs(g, 8, budget=10 ** 11)
        for k in range(1, 9):
            assert snbc_count(g, k) == counts[k - 1], (g, k)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 1 runtime {elapsed:.1f}s exceeds 2min"
    report(f"criterion 1: tr(H^k) = brute-force SNBC count for "
           f"{len(corpus)} graphs x k<=8 ({checked} checks, {elapsed:.1f}s)")


def test_criterion_2_ihara_consistency():
    start = time.time()
    cases = []
    for seed in range(10):
        cases.append(sample_lift(complete_graph(4), 4 + seed % 7,
                                 ModelSpec(), seed).cover)          # d=3
    for seed in range(10):
        cases.append(sample_lift(complete_graph(5), 3 + seed % 6,
                                 ModelSpec(), 100 + seed).cover)    # d=4
    for seed in range(10):
        cases.append(sample_lift(bouquet(2), 10 + 3 * seed,
                                 ModelSpec(), 200 + seed).cover)    # d=4
    for seed in range(10):
        cases.append(sample_lift(complete_graph(6), 2 + seed % 5,
                                 ModelSpec(), 300 + seed).cover)    # d=5
    for seed in range(10):
        cases.append(sample_lift(dipole(3), 2 + 2 * seed,
                                 ModelSpec(), 400 + seed).cover)    # d=3
    assert len(cases) == 50
    for g in cases:
        assert g.n <= 40 and not g.has_half_loops()
        res = ihara_check(g, tol=1e-6)
        assert res.status == "checked" and res.passed, res
    elapsed = time.time() - start
    assert elapsed < 300, f"criterion 2 runtime {elapsed:.1f}s exceeds 5min"
    report(f"criterion 2: Ihara-Bass determinant identity holds at three "
           f"seeded complex u on 50 regular graphs ({elapsed:.1f}s)")


def test_criterion_3_spectrum_containment():
    start = time.time()
    configurations = [
        (complete_graph(4), ModelSpec("permutation"), (2, 5, 12, 27, 40)),
        (bouquet(2), ModelSpec("cyclic"), (2, 5, 12, 27, 40)),
        (bouquet(1, 2), ModelSpec("permutation", "matching"), (2, 6, 12, 26, 40)),
        (bouquet(0, 3), ModelSpec("permutation", "near_matching"), (3, 7, 13, 27, 39)),
        (bouquet(2, 1), ModelSpec("cyclic", "matching"), (2, 6, 12, 26, 40)),
    ]
    total = 0
    for base, spec, degrees in configurations:
        base_vals = adjacency_spectrum(base)
        for n in degrees:
            for seed in range(4):
                lift = sample_lift(base, n, spec, seed=1000 * n + seed)
                cover_vals = adjacency_spectrum(lift.cover)
                new_vals, _ = multiset_difference(cover_vals, base_vals, 1e-7)
                assert len(new_vals) == (n - 1) * base.n
                total += 1
    assert total == 100
    report(f"criterion 3: base spectrum contained (1e-7) and |new| = "
           f"(n-1)#V_B on {total} lifts across the five basic models "
           f"({time.time() - start:.1f}s)")


def test_criterion_4_tau_tang_formulas_and_witnesses():
    for d in range(3, 101):
        m = m_whole(d)
        assert (2 * m - 1) ** 2 > d - 1, d
        assert (2 * (m - 1) - 1) ** 2 <= d - 1, d
        mp = m_no_whole(d)
        assert (mp - 1) ** 2 > d - 1, d
        assert (mp - 2) ** 2 <= d - 1, d
    witnesses = {w.name: w for w in example_tangles()}
    three = witnesses["three_vertex_witness"]
    assert three.graph.order() == 2
    assert mu1(three.graph) >= math.sqrt(6) - 1e-9
    four = witnesses["four_vertex_chain"]
    assert four.graph.order() == 2
    assert mu1(four.graph) > math.sqrt(3)
    for m in range(1, 7):
        assert mu1(bouquet(m)) == pytest.approx(2 * m - 1, abs=1e-9)
    report("criterion 4: m(d), m'(d) minimality for 3<=d<=100; witness "
           "graphs and bouquets verified by eigensolve")


def test_criterion_5_reduction_monotonicity():
    rng = np.random.default_rng(20240817)
    graphs = 0
    contracted = identified = 0
    while graphs < 500:
        g = random_connected_multigraph(rng, max_vertices=6)
        if not g.is_connected():
            continue
        graphs += 1
        before = mu1(g) if g.n else 0.0
        nonloop = [e for e in range(g.num_directed)
                   if g.tail[e] != g.head[e]]
        if nonloop:
            e = int(nonloop[int(rng.integers(0, len(nonloop)))])
            out = contract_nonloop_edge(g, e)
            assert out.order() == g.order()
            assert mu1(out) >= before - 1e-8
            contracted += 1
        triple = _distance_two_triple(g)
        if triple:
            out = identify_distance_two(g, *triple)
            assert out.order() == g.order()
            assert mu1(out) >= before - 1e-8
            assert sum(1 for e in range(out.num_directed)
                       if out.tail[e] == out.head[e]) == sum(
                1 for e in range(g.num_directed) if g.tail[e] == g.head[e])
            identified += 1
    assert contracted >= 400 and identified >= 100
    report(f"criterion 5: order preserved and mu1 monotone (1e-8) over "
           f"{graphs} random multigraphs ({contracted} contractions, "
           f"{identified} distance-two identifications)")


def _distance_two_triple(g):
    for w in range(g.n):
        nbrs = sorted({g.head[e] for e in g.out_edges(w)} - {w})
        for i, u in enumerate(nbrs):
            for v in nbrs[i + 1:]:
                if all(g.head[e] != v for e in g.out_edges(u)):
                    return u, v, w
    return None


def test_criterion_6_magnifier_gap():
    start = time.time()
    cases = []
    for seed in range(60):
        cases.append(sample_lift(complete_graph(4), 2 + seed % 3,
                                 ModelSpec(), seed))
    for seed in range(60):
        cases.append(sample_lift(bouquet(2), 4 + seed % 14,
                                 ModelSpec(), 7000 + seed))
    for seed in range(40):
        cases.append(sample_lift(dipole(3), 2 + seed % 8,
                                 ModelSpec(), 8000 + seed))
    for seed in range(40):
        cases.append(sample_lift(bouquet(1, 1), 3 + 2 * (seed % 8),
                                 ModelSpec("permutation", "near_matching"),
                                 9000 + seed))
    assert len(cases) == 200
    for lift in cases:
        g = lift.cover
        assert g.n <= 18
        d = g.regular_degree()
        gamma, _ = best_gamma_exhaustive(g)
        assert lambda2(g) <= alon_gap_bound(d, gamma) + 1e-8, (d, gamma)
    elapsed = time.time() - start
    report(f"criterion 6: lambda2 <= d - gamma^2/(4+2gamma^2) + 1e-8 with "
           f"exhaustive best gamma on 200 lifts, zero violations "
           f"({elapsed:.1f}s)")


def test_criterion_7_counting_lemmas():
    start = time.time()
    # permutation containment: exact equality against S_n enumeration
    for n in range(1, 8):
        perms = list(permutations(range(n)))
        for w in range(n + 1):
            for wp in range(w, n + 1):
                target = set(range(wp))
                count = sum(1 for p in perms
                            if all(p[i] in target for i in range(w)))
                assert perm_containment_prob(n, w, wp) == \
                    Fraction(count, len(perms))
    # involution bound dominates the exhaustive matching frequency
    for n in range(2, 13):
        sigmas = list(matchings(n))
        for w in range(1, n + 1):
            for wp in range(w, n + 1):
                target = set(range(wp))
                count = sum(1 for s in sigmas
                            if all(s[i] in target for i in range(w)))
                assert Fraction(count, len(sigmas)) <= \
                    involution_containment_bound(n, w, wp), (n, w, wp)
    # odd binomial sandwich on the full grid
    for n in range(2, 201):
        for t in range(2, n + 1, 2):
            sq = odd_binom_exact(n, t) ** 2
            assert Fraction(n - t, n) * comb(n, t) <= sq <= t * comb(n, t)
    # binomial estimate witness passes its verification grid
    theta, s0, n0 = binom_estimate_witness(2.0, 1)
    ok, worst = verify_binom_estimate(2.0, 1, theta, s0, n0)
    assert ok and worst <= 0
    # entropy second derivative against central differences
    for x in np.linspace(0.05, 0.95, 91):
        x = float(x)
        h = 7.7e-4 * min(x, 1 - x)
        approx = (h2(x + h) - 2 * h2(x) + h2(x - h)) / (h * h)
        exact = h2_second_derivative(x)
        assert abs(approx - exact) <= 1e-6 * abs(exact)
    report(f"criterion 7: containment probabilities, matching bound, odd "
           f"binomial sandwich (t<=n<=200), estimate witness and entropy "
           f"curvature all verified ({time.time() - start:.1f}s)")


def test_criterion_8_scaling_trend():
    start = time.time()
    cfg = ExperimentConfig(
        base=complete_graph(4),
        model=ModelSpec(),
        degrees=(10, 20, 40, 80),
        trials=1000,
        epsilon=0.2,
        seed=20240818,
    )
    rep = run_experiment(cfg)
    assert all(row["failed"] == 0 for row in rep.rows)
    intervals = [wilson_interval(row["nonalon_positive_count"], row["trials"])
                 for row in rep.rows]
    rates = [row["nonalon_positive_count"] / row["trials"]
             for row in rep.rows]
    for i in range(len(rates) - 1):
        overlap = intervals[i][0] <= intervals[i + 1][1] and \
            intervals[i + 1][0] <= intervals[i][1]
        assert overlap or rates[i + 1] <= rates[i]
    positives = sum(1 for row in rep.rows
                    if row["nonalon_positive_count"] > 0)
    if positives == 0:
        assert any("below detection" in note for note in rep.notes)
        detail = "all counts zero: below detection at desk scale"
    elif positives >= 3:
        fit = fit_scaling(rep.rows)
        assert fit["status"] == "ok" and fit["slope"] <= -0.5
        detail = f"fitted slope {fit['slope']:.2f}"
    else:
        detail = f"only {positives} positive rows; slope not fitted"
    elapsed = time.time() - start
    assert elapsed < 1800, f"criterion 8 runtime {elapsed:.0f}s exceeds 30min"
    report(f"criterion 8: Prob[NonAlon(0.2)>0] non-increasing over "
           f"n=10..80 x 1000 trials; {detail} ({elapsed:.1f}s)")


def test_criterion_9_determinism(tmp_path):
    from nblifts.tangles import TangleQuery
    cfg = ExperimentConfig(
        base=complete_graph(4),
        model=ModelSpec(),
        degrees=(2, 3, 4),
        trials=5,
        epsilon=0.2,
        seed=99,
        tangle=TangleQuery(nu=1.2, r=3),
        tangle_max_vertices=5,
        tangle_max_subgraphs=500,
        magnifier={"gamma": 0.1, "mode": "sampled", "trials": 20},
    )
    paths = []
    for tag in ("one", "two"):
        jp = tmp_path / f"{tag}.json"
        cp = tmp_path / f"{tag}.csv"
        run_experiment(cfg).dump(jp, cp)
        paths.append((jp.read_bytes(), cp.read_bytes()))
    assert paths[0] == paths[1]
    report("criterion 9: identical seed and config give byte-identical "
           "JSON and CSV reports")
