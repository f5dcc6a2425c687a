"""Strictly non-backtracking closed (SNBC) walks and their homotopy types.

A length-k walk is SNBC when it is closed, never steps onto the reverse of
the edge it just used, and does not backtrack across the wrap-around either.
The number of such walks equals the trace of the k-th power of the Hashimoto
matrix, which hashimoto_matrix builds here; spectral imports it from this
module, so walks needs only graphs and numpy.  count_snbc_dfs is the
independent check of that identity: it enumerates walks level by level over
non-backtracking transitions, in bounded chunks with one array entry per
walk, and forms no matrix products.
A walk in a level is the pair (bad, end): its last directed edge end, and
bad = inv[first], the reverse of its first edge, at whose head the walk
started.  Levels are extended through the rows of graphs.nb_successors,
the one rule for which directed edges continue an edge, padded to the
largest out-degree.  A walk closes when its first edge is a successor of
its last.  count_snbc_dfs visits every walk shorter than kmax.  When
m = #E^dir has m^2 <= WALK_CHUNK, it counts the closed walks of each
length on their parents, one level shorter, through an m x m closing
table, so no level of length kmax is made; larger graphs test every walk
of every length on arrays.  Memory is O(kmax * WALK_CHUNK) for the levels
and the closing table plus O(#E^dir * max out-degree) for the successor
table.

Homotopy types: the visited subgraph of a walk carries a first-encountered
numbering (the from_orbits numbering); suppressing its beads (degree-2
vertices not carrying a self-loop) leaves a reduced graph, numbered the same
way, plus the path length of each reduced edge.
For closed walks we always suppress a maximal bead set; when the whole
visited subgraph is a cycle of beads, the walk's starting vertex is kept so
the suppression stays proper.
"""

from dataclasses import dataclass
import csv

import numpy as np

from .graphs import Graph, from_orbits, from_pairs, graph_to_json, \
    nb_successors, reduce_through_init, write_json


# Most walks count_snbc_dfs creates in one extension step; a level whose
# extension would create more is split in halves first.
WALK_CHUNK = 1 << 13


def hashimoto_matrix(g: Graph) -> np.ndarray:
    """0/1 directed-edge matrix of non-backtracking length-two walks.

    Entry (e, f) is 1 when f is in nb_successors(g)[e]: f leaves the
    vertex e enters and is not the reverse of e.  The ones are scattered
    at flat indices e * m + f of an m*m zero array.
    """
    m = g.num_directed
    flat = [e * m + f for e, succ in enumerate(nb_successors(g)) for f in succ]
    h = np.zeros((m, m))
    h.ravel()[np.array(flat, dtype=np.intp)] = 1.0  # a view: h is contiguous
    return h


class BudgetExceededError(RuntimeError):
    """The walk enumeration budget ran out."""


@dataclass(frozen=True)
class Walk:
    """Alternating vertex/edge sequence; vertices has one more entry than edges."""

    vertices: tuple
    edges: tuple

    def __len__(self):
        return len(self.edges)

    @classmethod
    def from_edges(cls, g: Graph, edges):
        edges = tuple(edges)
        if not edges:
            raise ValueError("a walk needs at least one edge")
        verts = [g.tail[edges[0]]]
        for e in edges:
            if g.tail[e] != verts[-1]:
                raise ValueError("edges do not chain")
            verts.append(g.head[e])
        return cls(tuple(verts), edges)

    def validate(self, g: Graph):
        if len(self.vertices) != len(self.edges) + 1:
            raise ValueError("vertex/edge lengths inconsistent")
        for i, e in enumerate(self.edges):
            if not (0 <= e < g.num_directed):
                raise ValueError(f"edge {e} not in graph")
            if g.tail[e] != self.vertices[i] or g.head[e] != self.vertices[i + 1]:
                raise ValueError(f"step {i} does not match head/tail maps")

    def is_closed(self):
        return self.vertices[0] == self.vertices[-1]

    def is_nonbacktracking(self, g: Graph):
        return _continues(nb_successors(g), self.edges)

    def is_snbc(self, g: Graph):
        """Closed, and non-backtracking across the wrap-around too."""
        return (self.is_closed()
                and _continues(nb_successors(g), self.edges + self.edges[:1]))


def _continues(succ, edges) -> bool:
    """Each of edges is a successor (succ, from nb_successors) of the one
    before it."""
    return all(f in succ[e] for e, f in zip(edges, edges[1:]))


def _max_out_degree(g: Graph, k: int, budget: int) -> int:
    """Most non-backtracking successors of a directed edge: the largest
    vertex degree less one, or 0 without edges.  Refuses enumerations whose
    worst case #E^dir * (max out-degree)^k passes the budget."""
    max_out = max(max(g.degrees(), default=0) - 1, 0)
    if g.num_directed * (max_out ** k) > budget:
        raise BudgetExceededError(
            f"{g.num_directed} * {max_out}^{k} exceeds the budget {budget}")
    return max_out


def enumerate_snbc(g: Graph, k: int, budget: int = 10_000_000):
    """All SNBC walks of length k, each starting edge counted separately."""
    if k < 1:
        raise ValueError("walk length must be at least 1")
    _max_out_degree(g, k, budget)
    succ = nb_successors(g)
    walks = []
    for start in range(g.num_directed):
        stack = [(start, (start,))]
        while stack:
            e, path = stack.pop()
            if len(path) == k:
                if start in succ[e]:  # the first edge continues the last
                    walks.append(Walk.from_edges(g, path))
                continue
            for f in succ[e]:
                stack.append((f, path + (f,)))
    return walks


def count_snbc_dfs(g: Graph, kmax: int, budget: int = 10_000_000_000):
    """SNBC walk counts for every length 1..kmax by explicit enumeration.

    Walks are enumerated level by level: a level holds one array entry per
    non-backtracking walk of its length, stored as the pair (bad, end) of
    directed edges, where end is the walk's last edge and bad = inv[first]
    the reverse of its first.  Since tail[first] == head[bad], the walk
    closes exactly when head[end] == head[bad] and end != bad, the array
    form of first in nb_successors(g)[end].  A level is extended through a
    successor table built once: row e is nb_successors(g)[e], padded to the
    largest out-degree with the dead index #E^dir, so the children of a
    level are table[end] raveled, each paired with its parent's bad; dead
    entries are dropped when out-degrees differ.

    With m = #E^dir and m^2 <= WALK_CHUNK, the closed walks of length j + 1
    are counted on their parents, the level of length j: entry
    end * m + bad of a closing table, built from the successor table by
    comparing arrays, counts the f in nb_successors(g)[end] with
    head[f] == head[bad] and f != bad.  So every walk shorter than kmax is
    visited, length 1 is tested as above, and no level of length kmax is
    made.  Larger graphs test every walk of every length 1..kmax.  A level
    whose extension would pass WALK_CHUNK entries is split in halves
    first, so memory stays O(kmax * WALK_CHUNK) for the levels and the
    closing table plus O(#E^dir * max out-degree) for the successor table.
    This is the brute-force side of the trace identity: no matrix algebra
    is used.
    """
    if kmax < 1:
        raise ValueError("walk length must be at least 1")
    width = _max_out_degree(g, kmax, budget)
    m = g.num_directed
    head = np.asarray(g.head, dtype=np.int64)
    inv = np.asarray(g.inv, dtype=np.int64)
    table = np.array([s + (m,) * (width - len(s)) for s in nb_successors(g)],
                     dtype=np.int64).reshape(m, width)
    padded = bool(np.any(table[:, -1:] == m))
    edges = np.arange(m, dtype=np.int64)
    counts = [0] * (kmax + 1)

    def closed(bad, end):
        return int(np.count_nonzero((head[end] == head[bad]) & (end != bad)))

    close = None
    if m * m <= WALK_CHUNK:
        # one successor slot at a time, so no temporary passes m * m
        # entries; a dead slot's head -1 matches no head
        head_of = np.append(head, -1)
        close = np.zeros((m, m), dtype=np.int64)
        for f in table.T:
            close += (head_of[f][:, None] == head) & (f[:, None] != edges)
        close = close.ravel()
    last = kmax if close is None else kmax - 1  # the longest level made

    def record(bad, end, depth):
        if close is None:
            counts[depth] += closed(bad, end)
        elif depth < kmax:
            counts[depth + 1] += int(close.take(end * m + bad).sum())
        if depth < last and end.size:
            stack.append((bad, end, depth))

    stack = []
    if close is not None:
        counts[1] = closed(inv, edges)
    record(inv, edges, 1)
    while stack:
        bad, end, depth = stack.pop()
        if len(end) * width > WALK_CHUNK and len(end) > 1:
            half = len(end) // 2
            stack.append((bad[:half], end[:half], depth))
            stack.append((bad[half:], end[half:], depth))
            continue
        # take on axis 0 copies whole rows, far faster than table[end]
        children = table.take(end, axis=0).ravel()
        bad = np.repeat(bad, width)
        if padded:
            live = children != m
            children, bad = children[live], bad[live]
        record(bad, children, depth + 1)
    return counts[1:]


def snbc_count(g: Graph, k: int) -> int:
    """tr(H^k), exactly.

    matrix_power forms only powers H^j with j <= k, whose entries are
    integers at most top^k (top the largest row sum of H: row e sums to
    deg(head e) - 1, so top is _max_out_degree), so float64 is exact while
    #E^dir * top^k < 2^52; past that H^k is formed in Python ints.
    """
    if k < 1:
        raise ValueError("walk length must be at least 1")
    h = hashimoto_matrix(g)
    top = _max_out_degree(g, k, budget=float("inf"))
    if g.num_directed * top ** k >= 2 ** 52:
        h = h.astype(np.int64).astype(object)
    return int(np.trace(np.linalg.matrix_power(h, k)))


def visited_subgraph(w: Walk, g: Graph) -> Graph:
    """Subgraph spanned by a walk, renumbered in first-encountered order.

    Vertices are renumbered by first occurrence; edge orbits by first
    traversal, oriented in the direction first traversed (the lower
    directed id of each orbit), so two walks visit order-isomorphic
    subgraphs exactly when these graphs are equal.
    """
    w.validate(g)
    vnew = {}
    for v in w.vertices:
        if v not in vnew:
            vnew[v] = len(vnew)
    seen = set()
    orbits = []  # one per orbit of g, in the direction first traversed
    for e in w.edges:
        rep = min(e, g.inv[e])
        if rep not in seen:
            seen.add(rep)
            orbits.append((vnew[g.tail[e]], vnew[g.head[e]], g.inv[e] == e))
    return from_orbits(len(vnew), orbits)


def beads(g: Graph):
    """Vertices of degree two not incident to any self-loop."""
    loopy = set()
    for e in range(g.num_directed):
        if g.tail[e] == g.head[e]:
            loopy.add(g.tail[e])
    return [v for v in range(g.n) if g.degree(v) == 2 and v not in loopy]


@dataclass(frozen=True)
class HomotopyType:
    """Reduced graph together with the length of each reduced edge.

    lengths is aligned with reduction.orientation().  The reduction is a
    from_orbits graph, equal to another exactly when their orbit lists
    are, so the dataclass's own equality and hash compare types; walk
    censuses group by type directly.
    """

    reduction: Graph
    lengths: tuple

    __reduce__ = reduce_through_init

    def __post_init__(self):
        if len(self.lengths) != self.reduction.num_edges:
            raise ValueError("lengths misaligned with reduced edges")
        if any(k < 1 for k in self.lengths):
            raise ValueError("edge lengths must be positive")

    def key(self):
        """Sort key: ((n, one (tail, head, is half-loop) row per orbit),
        lengths)."""
        g = self.reduction
        rows = tuple((g.tail[o], g.head[o], g.inv[o] == o)
                     for o in g.orientation())
        return ((g.n, rows), self.lengths)

    def total_length(self) -> int:
        return sum(self.lengths)

    def to_json(self):
        return {"reduction": graph_to_json(self.reduction),
                "lengths": list(self.lengths)}


def suppress_beads(g: Graph, bead_vertices) -> HomotopyType:
    """Contract maximal bead paths of a graph into long edges.

    bead_vertices must consist of beads only, and no connected component may
    lie entirely inside it.  Each directed edge of the result is a beaded
    path; the involution maps a path to its reverse, and a path of length
    one around a half-loop is its own reverse.  Vertices and paths keep the
    order of their ids: kept vertices ascending, and each path oriented
    along, and ranked by, the lowest directed id it or its reverse uses.
    """
    vprime = set(bead_vertices)
    bead_set = set(beads(g))
    for v in vprime:
        if v not in bead_set:
            raise ValueError(f"vertex {v} is not a bead")
    for comp in g.components():
        if comp and all(v in vprime for v in comp):
            raise ValueError("a component lies entirely in the bead set")
    new_v = {v: i for i, v in enumerate(
        v for v in range(g.n) if v not in vprime)}

    succ = nb_successors(g)

    # walk a beaded path forward from the directed edge e0; an edge into a
    # bead has exactly one successor
    def follow(e0):
        path = [e0]
        while g.head[path[-1]] in vprime:
            path.append(succ[path[-1]][0])
        return tuple(path)

    def reverse_path(p):
        return tuple(g.inv[e] for e in reversed(p))

    # the first directed id not yet covered is the lowest of its path and
    # that path's reverse; take the whole path through it, in its direction
    paths = []
    covered = set()
    for e in range(g.num_directed):
        if e not in covered:
            p = reverse_path(follow(g.inv[e]))[:-1] + follow(e)
            covered.update(p)
            covered.update(g.inv[f] for f in p)
            paths.append(p)

    # a path equal to its reverse is a single half-loop
    red = from_orbits(len(new_v), [
        (new_v[g.tail[p[0]]], new_v[g.head[p[-1]]], p == reverse_path(p))
        for p in paths])
    return HomotopyType(red, tuple(len(p) for p in paths))


def walk_reduction(w: Walk, g: Graph) -> HomotopyType:
    """Homotopy type of a closed walk: suppress a maximal proper bead set."""
    s = visited_subgraph(w, g)
    bs = set(beads(s))
    for comp in s.components():
        if comp and all(v in bs for v in comp):
            bs.discard(min(comp))  # keep the first-encountered vertex
    return suppress_beads(s, bs)


def vlg(t: Graph, lengths) -> Graph:
    """Variable-length graph: replace each orbit by a path of its length.

    lengths maps orbit representatives (lowest directed ids) to positive
    integers; a plain sequence aligned with t.orientation() also works.
    Half-loops must keep length one, since bead suppression can never
    produce a longer self-inverse path.
    """
    reps = t.orientation()
    if not isinstance(lengths, dict):
        lengths = dict(zip(reps, lengths))
    pairs = []
    halves = []
    next_v = t.n
    for rep in reps:
        k = lengths[rep]
        if k < 1:
            raise ValueError("edge lengths must be positive")
        a, b = t.tail[rep], t.head[rep]
        if t.inv[rep] == rep:
            if k != 1:
                raise ValueError("half-loops only admit length 1")
            halves.append(a)
            continue
        chain = [a] + list(range(next_v, next_v + k - 1)) + [b]
        next_v += k - 1
        pairs.extend(zip(chain, chain[1:]))
    return from_pairs(next_v, pairs, halves)


def snbc_by_type(g: Graph, k: int, budget: int = 10_000_000):
    """Group the SNBC walks of length k by homotopy type."""
    census = {}
    for w in enumerate_snbc(g, k, budget):
        ht = walk_reduction(w, g)
        census[ht] = census.get(ht, 0) + 1
    return census


def write_walk_census(g: Graph, ks, csv_path, catalog_path,
                      budget: int = 10_000_000):
    """CSV rows (k, type_id, lengths, count) plus a JSON type catalog."""
    catalog = {}
    type_ids = {}
    rows = []
    for k in ks:
        for ht, count in sorted(snbc_by_type(g, k, budget).items(),
                                key=lambda kv: kv[0].key()):
            if ht not in type_ids:
                type_ids[ht] = f"T{len(type_ids)}"
                catalog[type_ids[ht]] = ht.to_json()
            rows.append((k, type_ids[ht],
                         "-".join(map(str, ht.lengths)), count))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "type_id", "lengths", "count"])
        writer.writerows(rows)
    write_json(catalog, catalog_path)
    return rows
