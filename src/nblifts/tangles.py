"""Tangle predicates, spectral-radius-monotone reductions and order bounds.

A tangle is a connected graph whose non-backtracking spectral radius reaches
a threshold nu while its order (edge orbits minus vertices) stays below r;
such subgraphs are the local obstructions that push new eigenvalues of a
random cover beyond the regular-graph bound.  scan_tangles is a bounded
search, not a decision procedure: when its caps are hit, an empty result
means "none found within caps", never certified tangle-freeness.
"""

from dataclasses import dataclass, field
from itertools import permutations
import math

from .graphs import Graph, bouquet, dipole, from_pairs, prune_with_map, \
    subgraph_from_orbits
from .spectral import mu1

MU1_TOL = 1e-9
SCAN_VERTEX_CAP = 12


@dataclass(frozen=True)
class TangleQuery:
    """Threshold nu, order bound r, and whether the inequality is strict."""

    nu: float
    r: int
    strict: bool = False
    tol: float = MU1_TOL

    def admits(self, value: float) -> bool:
        if self.strict:
            return value > self.nu + self.tol
        return value >= self.nu - self.tol

    def boundary_band(self, value: float) -> str:
        """Classify against the tolerance band around nu."""
        if value > self.nu + self.tol:
            return "above"
        if value < self.nu - self.tol:
            return "below"
        return "boundary"


def is_tangle(psi: Graph, query: TangleQuery) -> bool:
    """Connected, order below the bound, and mu1 at/above the threshold."""
    if psi.n == 0:
        raise ValueError("the empty graph cannot be a tangle")
    if not psi.is_connected():
        return False
    if psi.order() >= query.r:
        return False
    return query.admits(mu1(psi))


def contract_nonloop_edge(psi: Graph, e: int) -> Graph:
    """Identify the endpoints of e and discard its orbit.

    Preserves the order exactly and never lowers mu1; parallel edges to the
    merged pair become whole-loops.
    """
    u, v = psi.tail[e], psi.head[e]
    if u == v:
        raise ValueError("cannot contract a loop")
    drop = {e, psi.inv[e]}
    keep = [f for f in range(psi.num_directed) if f not in drop]
    vmap = [w if w != v else u for w in range(psi.n)]
    # compact vertex ids
    new_ids = {}
    for w in sorted(set(vmap)):
        new_ids[w] = len(new_ids)
    eidx = {f: i for i, f in enumerate(keep)}
    return Graph(
        len(new_ids),
        [new_ids[vmap[psi.tail[f]]] for f in keep],
        [new_ids[vmap[psi.head[f]]] for f in keep],
        [eidx[psi.inv[f]] for f in keep],
    )


def identify_distance_two(psi: Graph, u: int, v: int, w: int) -> Graph:
    """Identify non-adjacent u and v through their common neighbour w.

    Discards one edge between w and u, so the order is preserved; creates
    no new self-loops and never lowers mu1.
    """
    if u == v:
        raise ValueError("u and v must be distinct")
    if u == w or v == w:
        raise ValueError("w must differ from u and v")
    wu = [f for f in psi.out_edges(w) if psi.head[f] == u]
    wv = [f for f in psi.out_edges(w) if psi.head[f] == v]
    if not wu or not wv:
        raise ValueError("u and v must both be adjacent to w")
    if any(psi.head[f] == v for f in psi.out_edges(u)):
        raise ValueError("u and v must not be adjacent")
    e = wu[0]
    drop = {e, psi.inv[e]}
    keep = [f for f in range(psi.num_directed) if f not in drop]
    vmap = [x if x != v else u for x in range(psi.n)]
    new_ids = {}
    for x in sorted(set(vmap)):
        new_ids[x] = len(new_ids)
    eidx = {f: i for i, f in enumerate(keep)}
    return Graph(
        len(new_ids),
        [new_ids[vmap[psi.tail[f]]] for f in keep],
        [new_ids[vmap[psi.head[f]]] for f in keep],
        [eidx[psi.inv[f]] for f in keep],
    )


def m_whole(d: int) -> int:
    """Smallest m with 2m - 1 > sqrt(d - 1); equals isqrt-based floor form."""
    if d < 3:
        raise ValueError("d must be at least 3")
    return (math.isqrt(d - 1) + 1) // 2 + 1


def tau_tang_lower_whole(d: int) -> int:
    """Order bound for models where whole-loop bouquets occur."""
    return m_whole(d) - 1


def m_no_whole(d: int) -> int:
    """Smallest m' with m' - 1 > sqrt(d - 1)."""
    if d < 3:
        raise ValueError("d must be at least 3")
    return math.isqrt(d - 1) + 2


def tau_tang_lower_no_whole(d: int) -> int:
    """Order bound for models in which whole-loops never occur."""
    return m_no_whole(d) - 2


@dataclass(frozen=True)
class TangleWitness:
    """Named graph with its claimed order and spectral-radius bound."""

    name: str
    graph: Graph
    order: int
    mu1_bound: float
    bound_kind: str  # "ge", "gt" or "eq"


def example_tangles():
    """Catalog of small witness graphs used to pin the order bounds.

    The three-vertex witness (3 parallel edges plus 2 parallel edges in a
    chain) has order 2 with mu1 at least sqrt(6); the four-vertex chain of
    doubled edges has order 2 with mu1 strictly above sqrt(3); a bouquet of
    m whole-loops has mu1 exactly 2m - 1.
    """
    catalog = [
        TangleWitness(
            "three_vertex_witness",
            from_pairs(3, [(0, 1)] * 3 + [(1, 2)] * 2),
            2, math.sqrt(6), "ge"),
        TangleWitness(
            "four_vertex_chain",
            from_pairs(4, [(0, 1)] * 2 + [(1, 2)] * 2 + [(2, 3)] * 2),
            2, math.sqrt(3), "gt"),
    ]
    for m in (1, 2, 3, 4):
        catalog.append(TangleWitness(
            f"bouquet_{m}_whole_loops", bouquet(m), m - 1, 2 * m - 1, "eq"))
    catalog.append(TangleWitness("dipole_4", dipole(4), 2, 3.0, "eq"))
    return catalog


class TooSymmetricError(ValueError):
    """Canonical labeling would enumerate too many class-respecting maps."""


def _refined_classes(g: Graph):
    """Vertex classes under iterated neighbour-signature refinement."""
    half = [sum(1 for e in g.out_edges(v) if g.inv[e] == e)
            for v in range(g.n)]
    whole = [sum(1 for e in g.out_edges(v)
                 if g.head[e] == v and g.inv[e] != e) // 2
             for v in range(g.n)]
    color = {v: (g.degree(v), half[v], whole[v]) for v in range(g.n)}
    while True:
        refined = {
            v: (color[v], tuple(sorted(color[g.head[e]]
                                       for e in g.out_edges(v))))
            for v in range(g.n)
        }
        if len(set(refined.values())) == len(set(color.values())):
            break
        color = refined
    classes = {}
    for v in range(g.n):
        classes.setdefault(color[v], []).append(v)
    return [classes[key] for key in sorted(classes)]


def canonical_form(g: Graph, max_vertices: int = 12,
                   labeling_budget: int = 200_000):
    """Lexicographically minimal orbit encoding over class-respecting relabelings.

    Vertex classes come from iterated neighbour-signature refinement, which
    collapses the search for everything but genuinely vertex-transitive
    graphs; those raise TooSymmetricError once the number of labelings
    would exceed the budget.
    """
    if g.n > max_vertices:
        raise ValueError(f"canonical_form capped at {max_vertices} vertices")
    classes = _refined_classes(g)
    total = 1
    for cls in classes:
        total *= math.factorial(len(cls))
        if total > labeling_budget:
            raise TooSymmetricError(
                f"{total}+ class-respecting labelings exceed the budget")

    def encodings():
        def rec(i, mapping):
            if i == len(classes):
                rows = []
                for rep in g.orientation():
                    a = mapping[g.tail[rep]]
                    b = mapping[g.head[rep]]
                    rows.append((min(a, b), max(a, b), g.inv[rep] == rep))
                yield tuple(sorted(rows))
                return
            taken = len(mapping)
            for perm in permutations(range(taken, taken + len(classes[i]))):
                m2 = dict(mapping)
                for v, lab in zip(classes[i], perm):
                    m2[v] = lab
                yield from rec(i + 1, m2)
        yield from rec(0, {})

    return (g.n, min(encodings())) if g.n else (0, ())


@dataclass
class TangleReport:
    """Findings of a bounded subgraph scan."""

    query: TangleQuery
    found: list = field(default_factory=list)  # (subgraph, mu1, order, band)
    scanned: int = 0
    caps_hit: bool = False

    def has_tangles(self) -> bool:
        return bool(self.found)

    def to_json(self):
        from .graphs import graph_to_json
        return {
            "query": {"nu": self.query.nu, "r": self.query.r,
                      "strict": self.query.strict},
            "found": [
                {"graph": graph_to_json(sub), "mu1": mu, "order": order,
                 "band": band}
                for sub, mu, order, band in self.found
            ],
            "scanned": self.scanned,
            "caps_hit": self.caps_hit,
        }


def check_scan_caps(max_vertices: int, max_subgraphs: int) -> None:
    """Raise ValueError unless scan_tangles accepts these caps."""
    if max_vertices < 1 or max_subgraphs < 1:
        raise ValueError("caps must be positive")
    if max_vertices > SCAN_VERTEX_CAP:
        raise ValueError(f"max_vertices capped at {SCAN_VERTEX_CAP} "
                         "(canonical forms would blow up factorially)")


def scan_tangles(g: Graph, query: TangleQuery, max_vertices: int = 8,
                 max_subgraphs: int = 50_000) -> TangleReport:
    """Search connected subgraphs of the pruned core for tangles.

    Grows connected orbit sets by edge addition, one enumeration per seed
    orbit restricted to orbits with larger representatives, so each subgraph
    appears exactly once.  Branches stop once the order reaches the query
    bound (adding edges can only raise it) or the vertex cap is exceeded.
    Found subgraphs are deduplicated up to isomorphism.

    A connected orbit set of order -1 is a tree (mu1 = 0) and one of order 0
    prunes to nothing or to a single cycle (mu1 = 0 or 1).  When the query
    cannot admit a value of 1, as for every nu > 1, such candidates are
    counted in ``scanned`` and grown but never materialised as graphs.
    """
    check_scan_caps(max_vertices, max_subgraphs)
    core, _, _ = prune_with_map(g)
    report = TangleReport(query)
    reps = core.orientation()
    if not reps:
        return report
    rep_verts = {r: {core.tail[r], core.head[r]} for r in reps}
    vert_reps = {}
    for r in reps:
        for v in rep_verts[r]:
            vert_reps.setdefault(v, set()).add(r)
    seen_iso = set()
    # orders <= 0 have mu1 in {0, 1}; the margin covers eigensolver noise
    skip_low_order = not query.admits(1.0 + 1e-6)

    for seed in reps:
        stack = [(frozenset([seed]), frozenset(rep_verts[seed]))]
        visited = {stack[0][0]}
        while stack:
            edge_set, verts = stack.pop()
            order = len(edge_set) - len(verts)
            if order >= query.r:
                continue
            if report.scanned >= max_subgraphs:
                report.caps_hit = True
                return report
            report.scanned += 1
            if order > 0 or not skip_low_order:
                sub, _, _ = subgraph_from_orbits(core, sorted(edge_set))
                value = mu1(sub)
                if query.admits(value):
                    try:
                        key = canonical_form(sub)
                    except TooSymmetricError:
                        # vertex-transitive finds are deduplicated by location
                        key = ("weak", edge_set)
                    if key not in seen_iso:
                        seen_iso.add(key)
                        report.found.append(
                            (sub, value, order, query.boundary_band(value)))
            # grow by any adjacent orbit with a larger representative
            frontier = set()
            for v in verts:
                frontier |= vert_reps[v]
            for r in frontier - edge_set:
                if r <= seed:
                    continue
                nv = verts | rep_verts[r]
                if len(nv) > max_vertices:
                    continue
                ns = edge_set | {r}
                if ns not in visited:
                    visited.add(ns)
                    stack.append((ns, frozenset(nv)))
    return report
