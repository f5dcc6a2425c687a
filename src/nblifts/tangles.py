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
import numbers

from .graphs import ArgumentError, Graph, _check_ids, _subgraph, bouquet, \
    dipole, from_pairs, graph_to_json, prune_with_map, reduce_through_init, \
    subgraph_from_orbits
from .spectral import mu1

MU1_TOL = 1e-9
SCAN_VERTEX_CAP = 12
SCAN_MAX_VERTICES = 8  # scan_tangles' default caps
SCAN_MAX_SUBGRAPHS = 50_000


@dataclass(frozen=True)
class TangleQuery:
    """Threshold nu, order bound r, and whether the inequality is strict."""

    nu: float
    r: int
    strict: bool = False

    __reduce__ = reduce_through_init

    def __post_init__(self):
        # a non-finite nu admits nothing or everything and a fractional r
        # acts as its ceiling: each would answer another query than the one
        # asked
        if not math.isfinite(self.nu):
            raise ArgumentError(f"nu must be finite, got {self.nu!r}")
        if isinstance(self.r, bool) or not isinstance(self.r, numbers.Integral):
            raise ArgumentError(f"r must be an integer, got {self.r!r}")
        # with r < 1 no connected graph has order below r, so every scan
        # would report "no tangles" without looking
        if self.r < 1:
            raise ArgumentError("r must be at least 1")

    def admits(self, value: float) -> bool:
        if self.strict:
            return value > self.nu + MU1_TOL
        return value >= self.nu - MU1_TOL

    def boundary_band(self, value: float) -> str:
        """Classify against the MU1_TOL band around nu."""
        if value > self.nu + MU1_TOL:
            return "above"
        if value < self.nu - MU1_TOL:
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
    _check_ids([e], psi.num_directed, "directed edge")
    u, v = psi.tail[e], psi.head[e]
    if u == v:
        raise ValueError("cannot contract a loop")
    return _drop_and_merge(psi, e, u, v)


def identify_distance_two(psi: Graph, u: int, v: int, w: int) -> Graph:
    """Identify non-adjacent u and v through their common neighbour w.

    Discards one edge between w and u, so the order is preserved; creates
    no new self-loops and never lowers mu1.
    """
    _check_ids((u, v, w), psi.n, "vertex")
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
    return _drop_and_merge(psi, wu[0], u, v)


def _drop_and_merge(psi: Graph, e: int, u: int, v: int) -> Graph:
    """psi without e's orbit, with v identified with u."""
    verts = [w for w in range(psi.n) if w != v]
    vertex_id = {w: i for i, w in enumerate(verts)}
    vertex_id[v] = vertex_id[u]
    edges = [f for f in range(psi.num_directed) if f != e and f != psi.inv[e]]
    return _subgraph(psi, verts, edges, vertex_id)[0]


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


def canonical_form(g: Graph):
    """Lexicographically minimal orbit encoding over class-respecting relabelings.

    Vertex classes come from iterated neighbour-signature refinement, which
    collapses the search for everything but genuinely vertex-transitive
    graphs; those raise TooSymmetricError once the number of labelings
    would exceed 200 000.
    """
    if g.n > SCAN_VERTEX_CAP:
        raise ValueError(f"canonical_form capped at {SCAN_VERTEX_CAP} vertices")
    classes = _refined_classes(g)
    total = 1
    for cls in classes:
        total *= math.factorial(len(cls))
        if total > 200_000:
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
    """Raise ArgumentError unless scan_tangles accepts these caps."""
    if max_vertices < 1 or max_subgraphs < 1:
        raise ArgumentError("caps must be positive")
    if max_vertices > SCAN_VERTEX_CAP:
        raise ArgumentError(f"max_vertices capped at {SCAN_VERTEX_CAP} "
                            "(canonical forms would blow up factorially)")


def _orbit_masks(core, reps):
    """Bitmasks over the orbits reps (bit j for reps[j]) and the vertices:
    for each orbit the mask of its end vertices; for each vertex the mask
    of the orbits touching it and the mask of its loops (orbits with both
    ends at it, half-loops included)."""
    vert_fmask = [0] * core.n
    vert_lmask = [0] * core.n
    for j, r in enumerate(reps):
        vert_fmask[core.tail[r]] |= 1 << j
        vert_fmask[core.head[r]] |= 1 << j
        if core.tail[r] == core.head[r]:
            vert_lmask[core.tail[r]] |= 1 << j
    rep_vmask = [(1 << core.tail[r]) | (1 << core.head[r]) for r in reps]
    return rep_vmask, vert_fmask, vert_lmask


def scan_tangles(g: Graph, query: TangleQuery,
                 max_vertices: int = SCAN_MAX_VERTICES,
                 max_subgraphs: int = SCAN_MAX_SUBGRAPHS) -> TangleReport:
    """Search connected subgraphs of the pruned core for tangles.

    Candidates are connected orbit sets grown one orbit at a time by the
    extension-set method of Wernicke (2006), so each set appears exactly
    once and no visited set is kept.  Sets are int bitmasks (bit j for
    reps[j], or for vertex j): a candidate carries its orbits, its
    vertices, the orbits it has seen (those touching its vertices, and
    every orbit from its seed up) and its extensions (orbits it may still
    grow by).  Its children add one extension each; a child keeps the
    extensions above its own orbit plus the unseen orbits its orbit
    touches.

    Visit order: the seed orbits, and then each candidate's children, are
    pushed on a stack in ascending orbit index and popped last in, first
    out.  A seed's tree holds the sets that contain it and no seed popped
    before it, that is the sets with it as highest index.  This order
    decides which candidates a capped scan reaches and which
    representative a find keeps.

    Branches stop once the order reaches the query bound (adding edges can
    only raise it) or the vertex cap is reached.  Every extension touches
    the candidate's vertices, so a child adds at most one vertex: below
    max_vertices every child fits, at it only the orbits with both ends
    among the candidate's vertices fit, and above it (a two-vertex seed
    with max_vertices 1) none do.  A candidate therefore also carries
    ``inside``, the orbits below its seed with both ends among its
    vertices; a child that adds vertex x adds to it the orbits joining x
    to the old vertices (those touching x that the parent had seen) and
    the loops at x.  Found subgraphs are deduplicated up to isomorphism.

    A connected orbit set of order -1 is a tree (mu1 = 0) and one of order 0
    prunes to nothing or to a single cycle (mu1 = 0 or 1).  When the query
    cannot admit a value of 1, as for every nu > 1, such candidates are
    counted in ``scanned`` and grown but never materialised as graphs.
    """
    check_scan_caps(max_vertices, max_subgraphs)
    core, _, _ = prune_with_map(g)
    report = TangleReport(query)
    reps = core.orientation()
    rep_vmask, vert_fmask, vert_lmask = _orbit_masks(core, reps)
    seen_iso = set()
    # orders <= 0 have mu1 exactly 0.0 or 1.0, found with no eigensolve
    admits_one = query.admits(1.0)

    for s in reversed(range(len(reps))):
        below = (1 << s) - 1
        u, v = core.tail[reps[s]], core.head[reps[s]]
        touching = vert_fmask[u] | vert_fmask[v]
        joining = vert_fmask[u] & vert_fmask[v] if u != v else 0
        size = 1 + (u != v)
        stack = [(1 << s, rep_vmask[s], touching | ~below, touching & below,
                  (joining | vert_lmask[u] | vert_lmask[v]) & below,
                  1 - size, size)]
        while stack:
            orbits, verts, seen, ext, inside, order, size = stack.pop()
            if order >= query.r:
                continue
            if report.scanned >= max_subgraphs:
                report.caps_hit = True
                return report
            report.scanned += 1
            if order > 0 or admits_one:
                members, rest = [], orbits
                while rest:
                    low = rest & -rest
                    rest ^= low
                    members.append(reps[low.bit_length() - 1])
                sub, _, _ = subgraph_from_orbits(core, members)
                value = mu1(sub)
                if query.admits(value):
                    try:
                        key = canonical_form(sub)
                    except TooSymmetricError:
                        # vertex-transitive finds are deduplicated by location
                        key = ("weak", orbits)
                    if key not in seen_iso:
                        seen_iso.add(key)
                        report.found.append(
                            (sub, value, order, query.boundary_band(value)))
            if size >= max_vertices:
                ext = ext & inside if size == max_vertices else 0
            while ext:
                low = ext & -ext
                ext ^= low
                if low & inside:
                    # both ends already in: the vertices, seen orbits and
                    # inside stay, and the orbit touches nothing unseen
                    stack.append((orbits | low, verts, seen, ext, inside,
                                  order + 1, size))
                    continue
                j = low.bit_length() - 1
                x = (rep_vmask[j] & ~verts).bit_length() - 1
                stack.append((orbits | low, verts | 1 << x,
                              seen | vert_fmask[x],
                              ext | (vert_fmask[x] & ~seen),
                              inside | (vert_fmask[x] & seen
                                        | vert_lmask[x]) & below,
                              order, size + 1))
    return report
