"""Generators shared by the test modules: the small-multigraph corpus and
random connected multigraphs."""

from collections import deque
from itertools import combinations_with_replacement

from nblifts.graphs import Graph, from_pairs
from nblifts.tangles import canonical_form


def _orbit_types(nv):
    types = []
    for v in range(nv):
        types.append(("half", v))
        types.append(("whole", v))
    for u in range(nv):
        for v in range(u + 1, nv):
            types.append(("edge", u, v))
    return types


def _build(nv, multiset):
    pairs = []
    halves = []
    for t in multiset:
        if t[0] == "half":
            halves.append(t[1])
        elif t[0] == "whole":
            pairs.append((t[1], t[1]))
        else:
            pairs.append((t[1], t[2]))
    return from_pairs(nv, pairs, halves)


def connected_multigraph_corpus(max_vertices=3, max_orbits=5):
    """All connected multigraphs up to isomorphism within the size caps.

    Includes half-loops and whole-loops; single isolated vertices count as
    connected, so the one-vertex edgeless graph is in the corpus.
    """
    seen = set()
    out = []
    for nv in range(1, max_vertices + 1):
        types = _orbit_types(nv)
        for count in range(0, max_orbits + 1):
            for multiset in combinations_with_replacement(types, count):
                g = _build(nv, multiset)
                if not g.is_connected():
                    continue
                key = canonical_form(g)
                if key in seen:
                    continue
                seen.add(key)
                out.append(g)
    return out


PETERSEN = from_pairs(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)])


def random_connected_multigraph(rng, max_vertices=6, max_extra=5,
                                half_loop_prob=0.15):
    """Random connected multigraph: a random tree plus extra random orbits."""
    n = int(rng.integers(1, max_vertices + 1))
    pairs = []
    for v in range(1, n):
        pairs.append((int(rng.integers(0, v)), v))
    for _ in range(int(rng.integers(0, max_extra + 1))):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        pairs.append((u, v))
    halves = [int(rng.integers(0, n))
              for _ in range(int(rng.integers(0, 3)))
              if rng.random() < half_loop_prob]
    return from_pairs(n, pairs, halves)


def reference_scan_tangles(g, query, max_vertices=8, max_subgraphs=50_000):
    """The tangle scan that materialises and eigensolves every candidate.

    A test-only reference for scan_tangles on lists and sets, with no
    bitmasks: the same caps and deduplication, and no shortcut for
    candidates of order at most 0.  Orbits are numbered by their position
    in core.orientation(), and each seed's tree (the connected sets with the
    seed as highest index) is grown by the extension-set method of Wernicke
    (2006).  A candidate keeps a sorted extension list; the child that adds
    ext[i] keeps ext[i + 1:] plus the orbits below the seed that touch the
    new orbit and touched no orbit of the candidate.

    Visit order, the same as scan_tangles': the seeds, and then each
    candidate's children, are pushed on a stack in ascending orbit index
    and popped last in, first out.
    """
    from nblifts.graphs import prune_with_map, subgraph_from_orbits
    from nblifts.spectral import mu1
    from nblifts.tangles import TangleReport, TooSymmetricError

    core, _, _ = prune_with_map(g)
    report = TangleReport(query)
    reps = core.orientation()
    ends = [{core.tail[r], core.head[r]} for r in reps]
    touching = [{k for k, other in enumerate(ends) if other & mine}
                for mine in ends]
    seen_iso = set()
    for s in reversed(range(len(reps))):
        stack = [([s], ends[s], touching[s],
                  sorted(k for k in touching[s] if k < s))]
        while stack:
            orbits, verts, frontier, ext = stack.pop()
            if len(orbits) - len(verts) >= query.r:
                continue
            if report.scanned >= max_subgraphs:
                report.caps_hit = True
                return report
            report.scanned += 1
            sub, _, _ = subgraph_from_orbits(core,
                                             sorted(reps[j] for j in orbits))
            value = mu1(sub)
            if query.admits(value) and sub.order() < query.r:
                try:
                    key = canonical_form(sub)
                except TooSymmetricError:
                    key = ("weak", frozenset(orbits))
                if key not in seen_iso:
                    seen_iso.add(key)
                    report.found.append(
                        (sub, value, sub.order(), query.boundary_band(value)))
            for i, j in enumerate(ext):
                nv = verts | ends[j]
                if len(nv) > max_vertices:
                    continue
                fresh = {k for k in touching[j] - frontier if k < s}
                stack.append((orbits + [j], nv, frontier | touching[j],
                              sorted(fresh.union(ext[i + 1:]))))
    return report


def reference_sampled_magnifier(g, R, gamma, trials=200, seed=0,
                                fibre_blocks=()):
    """is_pseudo_magnifier(..., mode="sampled") on Python sets.

    A test-only reference: candidate sets as frozensets, BFS balls and
    neighbourhoods as set unions, the same draws from the same generator.
    """
    import numpy as np
    from nblifts.magnify import MagnificationResult, check_magnifier_args, \
        neighborhood

    check_magnifier_args(R, gamma, "sampled", trials)
    hi = g.n // 2
    if hi < R:
        return MagnificationResult(True, None, "exhaustive", 0, None)

    def balls(start):
        ball = {start}
        frontier = {start}
        for _ in range(3):
            frontier = neighborhood(g, frontier) - ball
            ball |= frontier
            yield frozenset(ball)

    def candidates(rng):
        seen = set()
        for blk in fibre_blocks:
            blk = frozenset(blk)
            if R <= len(blk) <= hi and blk not in seen:
                seen.add(blk)
                yield blk
        for v in range(min(g.n, trials)):
            for ball in balls(v):
                if R <= len(ball) <= hi and ball not in seen:
                    seen.add(ball)
                    yield ball
        count = 0
        while count < trials:
            size = int(rng.integers(R, hi + 1))
            u = frozenset(int(x)
                          for x in rng.choice(g.n, size=size, replace=False))
            count += 1
            if u not in seen:
                seen.add(u)
                yield u

    checked = 0
    best = None
    for u in candidates(np.random.default_rng(seed)):
        checked += 1
        outside = len(neighborhood(g, u) - u)
        ratio = outside / len(u)
        if best is None or ratio < best:
            best = ratio
        if outside < gamma * len(u):
            return MagnificationResult(False, u, "sampled", checked, best)
    return MagnificationResult(True, None, "sampled", checked, best)


def loop_adjacency_matrix(g):
    """The adjacency matrix built one directed edge at a time; test-only
    reference for the vectorised adjacency_matrix."""
    import numpy as np
    a = np.zeros((g.n, g.n))
    for e in range(g.num_directed):
        a[g.tail[e], g.head[e]] += 1.0
    return a


def reference_nb_successors(g):
    """For each directed edge e, the out-edges of head[e] filtered one at a
    time against inv[e]: the per-edge form nb_successors replaced, kept as
    a test-only reference."""
    return tuple(tuple(f for f in g.out_edges(g.head[e]) if f != g.inv[e])
                 for e in range(g.num_directed))


def reference_hashimoto_matrix(g):
    """The Hashimoto matrix filled one non-backtracking pair at a time;
    test-only reference for the scattered hashimoto_matrix."""
    import numpy as np
    m = g.num_directed
    h = np.zeros((m, m))
    for e, succs in enumerate(reference_nb_successors(g)):
        for f in succs:
            h[e, f] = 1.0
    return h


def reference_count_snbc_dfs(g, kmax, budget=10_000_000_000):
    """SNBC walk counts for every length 1..kmax by explicit DFS.

    The per-walk depth-first search that count_snbc_dfs replaced, one stack
    entry per walk; a test-only reference for the level-by-level version.
    """
    from nblifts.walks import _max_out_degree

    _max_out_degree(g, kmax, budget)
    succ = reference_nb_successors(g)
    head = g.head
    counts = [0] * (kmax + 1)
    for start in range(g.num_directed):
        t0 = g.tail[start]
        bad_last = g.inv[start]
        stack = [(start, 1)]
        pop = stack.pop
        push = stack.append
        while stack:
            e, depth = pop()
            if head[e] == t0 and e != bad_last:
                counts[depth] += 1
            if depth < kmax:
                depth += 1
                for f in succ[e]:
                    push((f, depth))
    return counts[1:]


def reference_assignment_error(base, degree, sigma):
    """The message PermutationAssignment raises for sigma, or None; the
    per-edge loop it replaced, kept as a test-only reference."""
    import numpy as np
    ident = np.arange(degree)
    for e in range(base.num_directed):
        row = sigma[e]
        if sorted(row.tolist()) != list(range(degree)):
            return f"sigma[{e}] is not a permutation"
        if not np.array_equal(sigma[base.inv[e]][row], ident):
            return f"sigma on edge {e} and its partner are not inverse"
    return None


def reference_sort_assignment_error(base, degree, sigma):
    """The message PermutationAssignment raises for sigma, or None, by the
    sort-based check the range test and partner gather replaced: a row is
    a permutation when it sorts to 0..n-1.  Kept as a test-only reference."""
    import numpy as np
    sig = np.asarray(sigma, dtype=np.int64)
    ident = np.arange(degree)
    not_perm = (np.sort(sig, axis=1) != ident).any(axis=1)
    inv = np.asarray(base.inv, dtype=np.int64)
    back = sig[inv[:, None], sig.clip(0, degree - 1)]
    bad = not_perm | (back != ident).any(axis=1)
    if not bad.any():
        return None
    e = int(np.argmax(bad))
    if not_perm[e]:
        return f"sigma[{e}] is not a permutation"
    return f"sigma on edge {e} and its partner are not inverse"


def reference_summaries(values, threshold, base_spectrum, margin=0.0):
    """NewExtremes' count_above(margin), max_abs and lambda2(base_spectrum)
    by the formulas on the whole arrays that reading the ascending values
    from their ends replaced; kept as a test-only reference."""
    import numpy as np
    count = int(np.sum(np.abs(values) + margin > threshold))
    max_abs = float(np.abs(values).max()) if len(values) else None
    every = np.sort(np.concatenate([base_spectrum, values]))
    return count, max_abs, float(every[-2]) if len(every) >= 2 else None


def reference_holonomy_generators(lift):
    """lifts.holonomy_generators with the spanning tree searched again on
    every call, the form the per-base plan replaced; a test-only
    reference."""
    import numpy as np
    base, sig, n = lift.base, lift.assignment.sigma, lift.assignment.degree
    gauge = [None] * base.n
    gauge[0] = np.arange(n)
    tree = set()
    stack = [0]
    while stack:
        v = stack.pop()
        for e in base.out_edges(v):
            w = base.head[e]
            if gauge[w] is None:
                gauge[w] = sig[e][gauge[v]]
                tree.add(min(e, base.inv[e]))
                stack.append(w)
    gens = []
    for rep in base.orientation():
        if min(rep, base.inv[rep]) in tree:
            continue
        gw_inv = np.empty(n, dtype=np.int64)
        gw_inv[gauge[base.head[rep]]] = np.arange(n)
        gens.append(gw_inv[sig[rep][gauge[base.tail[rep]]]])
    return gens


def reference_lanczos_new_extremes(lift):
    """spectral.lanczos_new_extremes with A q as a bincount scatter-add over
    the cover's edges, the form the gather replaced; kept as a test-only
    reference that the gather's result must equal bit for bit."""
    import math
    import numpy as np
    from nblifts import spectral
    n = lift.assignment.degree
    size = lift.base.n * n
    if lift.base.n * (n - 1) == 0:
        return np.zeros(0)
    tail, head = lift.edge_arrays

    def sum_zero(x):
        fibres = x.reshape(-1, n)
        fibres -= fibres.sum(axis=1, keepdims=True) / n
        return x

    q = sum_zero(np.random.default_rng(0).standard_normal(size))
    q /= np.linalg.norm(q)
    alpha, beta = [], []
    low_start = high_start = math.nan
    check, last = spectral.LANCZOS_CHECK_EVERY, None
    for k in range(spectral.LANCZOS_MAX_STEPS):
        w = sum_zero(np.bincount(tail, weights=q[head], minlength=size))
        alpha.append(float(q @ w))
        w -= alpha[-1] * q
        if k:
            w -= beta[-1] * prev
        b = math.sqrt(w @ w)
        invariant = b <= spectral.LANCZOS_TOL
        if (invariant or k + 1 == check
                or k + 1 == spectral.LANCZOS_MAX_STEPS):
            low = spectral.tridiagonal_lowest(alpha, beta, low_start)
            high = -spectral.tridiagonal_lowest([-a for a in alpha], beta,
                                                high_start)
            pick = [low, high] if k else [low]
            bounds = [b * spectral.ritz_last_component(alpha, beta, x)
                      for x in pick]
            if all(r <= spectral.LANCZOS_TOL for r in bounds):
                return np.array(pick)
            if invariant:
                return None
            low_start = low - 1.001 * bounds[0]
            high_start = -high - 1.001 * bounds[-1]
            worst = float(np.max(bounds))
            check = k + 1 + spectral._check_gap(last, k + 1, worst)
            last = k + 1, worst
        beta.append(b)
        prev, q = q, w / b
    return None


def brute_force_orbit_count(generators, n):
    """Orbits of the group the permutations generate, by breadth-first
    search over i -> g[i] and its inverse edges."""
    neighbours = [set() for _ in range(n)]
    for g in generators:
        for i, j in enumerate(g):
            neighbours[i].add(int(j))
            neighbours[int(j)].add(i)
    seen, orbits = [False] * n, 0
    for s in range(n):
        if seen[s]:
            continue
        orbits += 1
        seen[s] = True
        queue = deque([s])
        while queue:
            for j in neighbours[queue.popleft()]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
    return orbits
