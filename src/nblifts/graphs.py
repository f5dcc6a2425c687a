"""Multigraphs with an edge involution, supporting half-loops and whole-loops.

A graph is stored as dense arrays over directed-edge ids: ``tail``, ``head``
and an involution ``inv`` satisfying ``tail[inv[e]] == head[e]``.  The orbits
of ``inv`` are the undirected edges.  A fixed point of ``inv`` is a half-loop
(it contributes 1 to the degree of its vertex and a single directed edge);
an orbit of size two with equal endpoints is a whole-loop (contributing 2).

Every ``Graph`` passes the check in ``__post_init__``, and ``__reduce__``
sends copies and unpickled graphs through it too; there is no unchecked
constructor.  Every derived graph is built by one of two constructors:
``from_orbits`` numbers a list of (u, v, half) orbits in the order given,
and the private ``_subgraph`` keeps some directed edges of a graph and
renames its vertices.

Note on pruning: ``prune`` returns the maximal subgraph in which every vertex
has degree at least two.  This is stronger than merely removing leaves, since
a vertex carrying only a half-loop has degree one and is removed too.
"""

from dataclasses import dataclass, field, fields
from fractions import Fraction
import json
import math
import sys


class GraphFormatError(ValueError):
    """Raised when graph JSON fails validation; message pinpoints the record."""


class ArgumentError(ValueError):
    """A library call's argument is refused; the message names it."""


def reduce_through_init(self):
    """__reduce__ of a frozen dataclass: copies and loads are rebuilt by the
    constructor from the init fields, so they pass __post_init__'s checks."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self)
                             if f.init)


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable multigraph with half-loops, keyed by dense integer ids.

    Setting a field raises AttributeError, but setting any other name raises
    TypeError on Python 3.10 to 3.13, as in every frozen slotted dataclass."""

    n: int
    tail: tuple
    head: tuple
    inv: tuple
    _out: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("tail", "head", "inv"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n, tail, head, inv = self.n, self.tail, self.head, self.inv
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if not (len(tail) == len(head) == len(inv)):
            raise ValueError("tail/head/inv must have equal length")
        m = len(tail)
        for e in range(m):
            if not (0 <= tail[e] < n and 0 <= head[e] < n):
                raise ValueError(f"edge {e}: endpoint out of range")
            f = inv[e]
            if not (0 <= f < m):
                raise ValueError(f"edge {e}: involution partner {f} out of range")
            if inv[f] != e:
                raise ValueError(f"edge {e}: inv is not an involution")
            if tail[f] != head[e]:
                raise ValueError(f"edge {e}: tail(inv(e)) != head(e)")
        out = [[] for _ in range(n)]
        for e in range(m):
            out[tail[e]].append(e)
        object.__setattr__(self, "_out", tuple(tuple(es) for es in out))

    __reduce__ = reduce_through_init

    def __repr__(self):
        return f"Graph(n={self.n}, directed_edges={self.num_directed})"

    @property
    def num_directed(self) -> int:
        return len(self.tail)

    def orientation(self):
        """One representative per involution orbit: the lowest directed id."""
        return tuple(e for e in range(self.num_directed) if self.inv[e] >= e)

    @property
    def num_edges(self) -> int:
        """Number of involution orbits (half- and whole-loops count once)."""
        return len(self.orientation())

    def out_edges(self, v: int):
        """Directed edges with tail v."""
        return self._out[v]

    def degree(self, v: int) -> int:
        """Indegree in the underlying digraph; whole-loops add 2, half-loops 1."""
        if not (0 <= v < self.n):
            raise ValueError(f"unknown vertex {v}")
        return len(self._out[v])

    def degrees(self):
        return tuple(len(es) for es in self._out)

    def order(self) -> int:
        """Edge-orbit count minus vertex count."""
        return self.num_edges - self.n

    def euler_char(self) -> Fraction:
        """Vertex count minus half the directed-edge count; half-integral."""
        return Fraction(self.n) - Fraction(self.num_directed, 2)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def is_pruned(self) -> bool:
        """Every vertex has degree at least two (empty graphs qualify)."""
        return self.n == 0 or self.min_degree() >= 2

    def regular_degree(self):
        """The common degree if the graph is regular, else None."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        return None

    def has_half_loops(self) -> bool:
        return any(self.inv[e] == e for e in range(self.num_directed))

    def components(self):
        """Connected components as sorted vertex lists."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                v = stack.pop()
                for e in self._out[v]:
                    u = self.head[e]
                    if not seen[u]:
                        seen[u] = True
                        comp.append(u)
                        stack.append(u)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def is_bipartite(self) -> bool:
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] >= 0:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                for e in self._out[v]:
                    u = self.head[e]
                    if color[u] < 0:
                        color[u] = 1 - color[v]
                        stack.append(u)
                    elif color[u] == color[v]:
                        return False
        return True


def from_orbits(n: int, orbits) -> Graph:
    """Build a graph from (u, v, half) orbits, numbered in the order given.

    A whole orbit becomes directed edges u->v and v->u with consecutive ids
    (a whole-loop when u == v); a half orbit becomes one fixed edge at u == v.
    """
    tail, head, inv = [], [], []
    for u, v, half in orbits:
        e = len(tail)
        if half:
            tail.append(u)
            head.append(v)
            inv.append(e)
        else:
            tail += [u, v]
            head += [v, u]
            inv += [e + 1, e]
    return Graph(n, tail, head, inv)


def from_pairs(n: int, pairs=(), half_loops=()) -> Graph:
    """Build a graph from undirected pairs plus half-loop locations.

    Each (u, v) pair becomes an orbit of two directed edges (a whole-loop
    when u == v); each entry of half_loops becomes a single fixed edge.
    """
    return from_orbits(n, [(u, v, False) for u, v in pairs]
                       + [(v, v, True) for v in half_loops])


def empty_graph() -> Graph:
    return Graph(0, (), (), ())


def bouquet(whole: int, half: int = 0) -> Graph:
    """One vertex with the given numbers of whole-loops and half-loops."""
    return from_pairs(1, [(0, 0)] * whole, [0] * half)


def cycle_graph(k: int) -> Graph:
    """The k-cycle; k must be at least 2 (use bouquet(1) for a 1-cycle)."""
    if k < 2:
        raise ValueError("cycle_graph needs k >= 2")
    return from_pairs(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> Graph:
    """Path with k edges on k+1 vertices."""
    return from_pairs(k + 1, [(i, i + 1) for i in range(k)])


def complete_graph(k: int) -> Graph:
    return from_pairs(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def dipole(m: int) -> Graph:
    """Two vertices joined by m parallel edges."""
    return from_pairs(2, [(0, 1)] * m)


def nb_successors(g: Graph):
    """For each directed edge e, the out-edges of head[e] but inv[e], in
    out-edge order; the one rule for which edges continue an edge.  For
    the f at position i of a vertex's out-edges outs, the edge inv[f] into
    that vertex has the successors outs[:i] + outs[i + 1:]."""
    succ = [()] * g.num_directed
    for outs in g._out:
        for i, f in enumerate(outs):
            succ[g.inv[f]] = outs[:i] + outs[i + 1:]
    return tuple(succ)


def _check_ids(ids, count: int, kind: str):
    """Raise ValueError naming the first of ids outside range(count)."""
    for i in ids:
        if not 0 <= i < count:
            raise ValueError(f"unknown {kind} {i}")


def _subgraph(g: Graph, verts, edges, vertex_id=None):
    """Keep the given ascending directed edges of g, closed under inv, on
    len(verts) vertices.

    Vertex w of g becomes vertex_id[w], by default its index in verts.
    Returns (subgraph, vertex_ids, directed_edge_ids), the id tuples mapping
    the subgraph's dense ids back to g's.
    """
    if vertex_id is None:
        vertex_id = {v: i for i, v in enumerate(verts)}
    eidx = {e: i for i, e in enumerate(edges)}
    sub = Graph(
        len(verts),
        [vertex_id[g.tail[e]] for e in edges],
        [vertex_id[g.head[e]] for e in edges],
        [eidx[g.inv[e]] for e in edges],
    )
    return sub, tuple(verts), tuple(edges)


def subgraph_from_orbits(g: Graph, orbit_reps):
    """Subgraph spanned by the given orbit representatives.

    Returns (subgraph, vertex_ids, directed_edge_ids) where the id tuples map
    the subgraph's dense ids back to g's.
    """
    reps = set(orbit_reps)
    _check_ids(reps, g.num_directed, "directed edge")
    edges = sorted(reps | {g.inv[r] for r in reps})
    # edges is closed under inv, so its tails are also its heads
    return _subgraph(g, sorted({g.tail[e] for e in edges}), edges)


def induced_subgraph(g: Graph, vertices):
    """Subgraph on the given vertices with every orbit joining them.

    Vertices without incident edges are kept, unlike subgraph_from_orbits.
    """
    verts = sorted(set(vertices))
    _check_ids(verts, g.n, "vertex")
    keep = set(verts)
    return _subgraph(g, verts, [e for e in range(g.num_directed)
                                if g.tail[e] in keep and g.head[e] in keep])


def prune(g: Graph) -> Graph:
    """Maximal subgraph with all vertex degrees >= 2 (possibly empty)."""
    return prune_with_map(g)[0]


def prune_with_map(g: Graph):
    """Like prune, returning (subgraph, vertex_ids, directed_edge_ids).

    An already pruned g is returned itself, with identity id maps.
    """
    if g.is_pruned():
        return g, tuple(range(g.n)), tuple(range(g.num_directed))
    alive_v = [True] * g.n
    alive_e = [True] * g.num_directed
    deg = list(g.degrees())
    queue = [v for v in range(g.n) if deg[v] < 2]
    while queue:
        v = queue.pop()
        if not alive_v[v]:
            continue
        alive_v[v] = False
        for e in g.out_edges(v):
            if not alive_e[e]:
                continue
            f = g.inv[e]
            alive_e[e] = False
            deg[v] -= 1
            if f != e:
                alive_e[f] = False
                w = g.tail[f]
                deg[w] -= 1
                if alive_v[w] and deg[w] < 2:
                    queue.append(w)
    return _subgraph(g, [v for v in range(g.n) if alive_v[v]],
                     [e for e in range(g.num_directed) if alive_e[e]])


def girth(g: Graph):
    """Length of the shortest strictly non-backtracking closed walk.

    A whole-loop yields girth 1 and a parallel pair girth 2; a lone half-loop
    admits no such walk (backtracking across the wrap step), so forests and
    half-loop-only trees give math.inf.  BFS runs over directed edges with
    non-backtracking transitions, and a walk closes when its first edge is
    a successor of its last; a shortest walk never repeats a directed
    edge, so depth is capped at the number of directed edges.
    """
    m = g.num_directed
    succ = nb_successors(g)
    best = math.inf
    for e0 in range(m):
        seen = [False] * m
        seen[e0] = True
        frontier = [e0]
        depth = 1
        while frontier and depth < best and depth <= m:
            if any(e0 in succ[e] for e in frontier):
                best = depth
                break
            nxt = []
            for e in frontier:
                for f in succ[e]:
                    if not seen[f]:
                        seen[f] = True
                        nxt.append(f)
            frontier = nxt
            depth += 1
    return best


@dataclass(frozen=True)
class GraphMorphism:
    """Vertex and directed-edge maps intertwining head, tail and involution."""

    source: Graph
    target: Graph
    vertex_map: tuple
    edge_map: tuple

    __reduce__ = reduce_through_init

    def __post_init__(self):
        g, h = self.source, self.target
        vm, em = self.vertex_map, self.edge_map
        if len(vm) != g.n or len(em) != g.num_directed:
            raise ValueError("morphism maps have wrong length")
        for v in vm:
            if not (0 <= v < h.n):
                raise ValueError("vertex map out of range")
        for e in range(g.num_directed):
            f = em[e]
            if not (0 <= f < h.num_directed):
                raise ValueError("edge map out of range")
            if h.tail[f] != vm[g.tail[e]] or h.head[f] != vm[g.head[e]]:
                raise ValueError(f"edge {e}: head/tail not intertwined")
            if em[g.inv[e]] != h.inv[f]:
                raise ValueError(f"edge {e}: involution not intertwined")

    @classmethod
    def identity(cls, g: Graph):
        return cls(g, g, tuple(range(g.n)), tuple(range(g.num_directed)))


def _fibres_map_into(m: GraphMorphism, onto: bool) -> bool:
    """True when edge fibres map injectively at every vertex (head and
    tail); with onto, bijectively."""
    g, h = m.source, m.target
    for gmap, hmap in ((g.head, h.head), (g.tail, h.tail)):
        g_fib = {}
        for e in range(g.num_directed):
            g_fib.setdefault(gmap[e], []).append(e)
        h_count = {}
        for f in range(h.num_directed):
            h_count[hmap[f]] = h_count.get(hmap[f], 0) + 1
        for v in range(g.n):
            imgs = [m.edge_map[e] for e in g_fib.get(v, [])]
            if len(set(imgs)) != len(imgs):
                return False
            if onto and len(imgs) != h_count.get(m.vertex_map[v], 0):
                return False
    return True


def is_etale(m: GraphMorphism) -> bool:
    """True when edge fibres map injectively at every vertex (head and tail)."""
    return _fibres_map_into(m, onto=False)


def is_covering(m: GraphMorphism) -> bool:
    """True when edge fibres map bijectively at every vertex (head and tail)."""
    return _fibres_map_into(m, onto=True)


def graph_to_json(g: Graph) -> dict:
    """Serialize to the interchange format; half-loops have inv == id."""
    return {
        "vertices": g.n,
        "edges": [
            {"id": e, "tail": g.tail[e], "head": g.head[e], "inv": g.inv[e]}
            for e in range(g.num_directed)
        ],
    }


def check_keys(data, expected, where: str, error):
    """Raise error unless data is a dict whose keys all lie in expected."""
    if not isinstance(data, dict):
        raise error(f"{where} must be an object")
    unknown = sorted(set(data) - set(expected))
    if unknown:
        raise error(f"{where}: unknown keys {unknown}; "
                    f"expected {list(expected)}")


def _json_int(value) -> bool:
    """A JSON integer; true and false are not integers here, although
    Python's bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def graph_from_json(data) -> Graph:
    """Parse and fully validate the interchange format.

    Errors name the offending edge record so malformed files are easy to fix.
    """
    if not isinstance(data, dict):
        raise GraphFormatError("top level must be an object")
    if "vertices" not in data or "edges" not in data:
        raise GraphFormatError("missing required keys 'vertices' and 'edges'")
    n = data["vertices"]
    if not _json_int(n) or n < 0:
        raise GraphFormatError("'vertices' must be a non-negative integer")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError("'edges' must be a list")
    m = len(edges)
    tail = [0] * m
    head = [0] * m
    inv = [0] * m
    seen = set()
    for i, rec in enumerate(edges):
        where = f"edges[{i}]"
        if not isinstance(rec, dict):
            raise GraphFormatError(f"{where}: must be an object")
        for key in ("id", "tail", "head", "inv"):
            if key not in rec or not _json_int(rec[key]):
                raise GraphFormatError(f"{where}: missing or non-integer '{key}'")
        e = rec["id"]
        if not (0 <= e < m):
            raise GraphFormatError(f"{where}: id {e} out of range [0,{m})")
        if e in seen:
            raise GraphFormatError(f"{where}: duplicate id {e}")
        seen.add(e)
        if not (0 <= rec["tail"] < n and 0 <= rec["head"] < n):
            raise GraphFormatError(f"{where}: endpoint out of range")
        tail[e], head[e], inv[e] = rec["tail"], rec["head"], rec["inv"]
    for i, rec in enumerate(edges):
        e = rec["id"]
        f = inv[e]
        if not (0 <= f < m):
            raise GraphFormatError(f"edges[{i}]: inv {f} out of range")
        if inv[f] != e:
            raise GraphFormatError(f"edges[{i}]: inv is not an involution")
        if f == e and tail[e] != head[e]:
            raise GraphFormatError(f"edges[{i}]: half-loop endpoints differ")
        if tail[f] != head[e]:
            raise GraphFormatError(
                f"edges[{i}]: tail of partner {f} must equal head of {e}")
    return Graph(n, tail, head, inv)


def load_graph(path) -> Graph:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
        except ValueError as exc:  # not UTF-8, or an integer past 4300 digits
            raise GraphFormatError(str(exc))
    return graph_from_json(data)


def write_json(payload, path=None):
    """The package's one JSON writer: indent 2, sorted keys, final newline;
    to path, or to stdout when path is None."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def save_graph(g: Graph, path):
    write_json(graph_to_json(g), path)
