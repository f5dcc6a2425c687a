"""Vertex-expansion predicates: magnifiers and pseudo-magnifiers.

A graph is a gamma-magnifier when every vertex set U of size at most half
the graph has at least gamma * |U| neighbours strictly outside U; the
pseudo variant only tests sizes in a window [R, half].  A sufficiently good
magnifier forces a spectral gap: for d-regular graphs every non-top
adjacency eigenvalue is at most d - gamma^2 / (4 + 2 gamma^2).

The related notion of a gamma-spreader (|Gamma(U)| >= (1 + gamma)|U|,
neighbourhood not required to leave U) is documented here for orientation
but deliberately given no operation: covers of connected bipartite graphs
are never spreaders, so magnification is the robust notion.

Exhaustive checks enumerate all 2^n subsets with bit tricks and are capped
at 20 vertices; beyond that, sampling draws uniform subsets plus adversarial
seeds (BFS balls and single-fibre blocks) since imbalanced local sets are
the likely violators.  Sampled candidates are bool columns of a block of at
most BLOCK_CELLS cells; a block's neighbourhoods are the OR of one row
gather per neighbour slot, and a BFS ball's outside neighbourhood is the
BFS's next frontier.
"""

from dataclasses import dataclass
import math

import numpy as np

from .graphs import ArgumentError, Graph, _check_ids, check_finite, \
    check_integer, reduce_through_init
from .lifts import Lift
from .spectral import _edge_arrays, lambda2

EXHAUSTIVE_VERTEX_CAP = 20
MODES = ("auto", "exhaustive", "sampled")
MAGNIFIER_R = 1  # a magnifier is a pseudo-magnifier with R = 1; R's default
DEFAULT_MODE = "auto"  # a check's defaults: mode, sampled subsets, seed
DEFAULT_TRIALS = 200
DEFAULT_SEED = 0
QUERY_TRIALS = 100  # a MagnifierQuery's sampled subsets per cover
BLOCK_CELLS = 1 << 20  # most bool cells in a block of sampled candidates


@dataclass(frozen=True)
class VertexSubset:
    """Cover vertex set with its fibre decomposition over the base."""

    members: frozenset
    base_vertices: int
    degree: int

    @classmethod
    def from_cover_indices(cls, lift: Lift, indices):
        return cls(frozenset(int(i) for i in indices), lift.base.n,
                   lift.assignment.degree)

    def fibre(self, v: int):
        n = self.degree
        return {i for i in range(n) if v * n + i in self.members}

    def fibre_sizes(self):
        sizes = [0] * self.base_vertices
        for x in self.members:
            sizes[x // self.degree] += 1
        return sizes


@dataclass(frozen=True)
class MagnificationResult:
    holds: bool
    witness: frozenset | None
    mode: str  # "exhaustive" or "sampled"
    trials: int
    best_gamma: float | None = None


def neighborhood(g: Graph, subset) -> set:
    """Vertices joined by an edge to some vertex of the subset.

    Members of the subset with internal edges are included; a vertex with
    any self-loop is its own neighbour.
    """
    out = set()
    for v in subset:
        for e in g.out_edges(v):
            out.add(g.head[e])
    return out


def _subset_tables(g: Graph):
    """For every subset mask: its neighbourhood mask, by doubling over bits."""
    masks = [0] * g.n
    for t, h in zip(g.tail, g.head):
        masks[t] |= 1 << h
    table = np.zeros(1, dtype=np.uint32)  # n is within EXHAUSTIVE_VERTEX_CAP
    for v in range(g.n):
        table = np.concatenate([table, table | np.uint32(masks[v])])
    return table


def _popcount(arr):
    return np.bitwise_count(arr).astype(np.int64)


def _exhaustive_scan(g: Graph, gamma: float, lo: int, hi: int):
    """(holds, witness, best_gamma) over all subsets with lo <= |U| <= hi."""
    n = g.n
    if n > EXHAUSTIVE_VERTEX_CAP:
        raise ArgumentError(
            f"exhaustive magnification capped at {EXHAUSTIVE_VERTEX_CAP} vertices")
    table = _subset_tables(g)
    ids = np.arange(1 << n, dtype=np.uint32)
    sizes = _popcount(ids)
    window = (sizes >= max(lo, 1)) & (sizes <= hi)
    if not window.any():
        return True, None, None
    outside = _popcount(table[window] & ~ids[window])
    ratios = outside / sizes[window]
    best_idx = int(np.argmin(ratios))
    best_gamma = float(ratios[best_idx])
    if bool(np.all(outside >= gamma * sizes[window])):
        return True, None, best_gamma
    bad = int(ids[window][best_idx])
    witness = frozenset(v for v in range(n) if bad >> v & 1)
    return False, witness, best_gamma


def best_gamma_exhaustive(g: Graph):
    """Largest gamma for which g is a gamma-magnifier, plus an attaining set."""
    _, witness, best = _exhaustive_scan(g, math.inf, 1, g.n // 2)
    if best is None:
        raise ValueError("graph too small to contain a nonempty half-size set")
    return best, witness


def _neighbour_table(g: Graph):
    """Padded out-neighbour table: row s, column v holds the head of v's
    s-th out-edge, or n past v's out-degree; column n is all n."""
    tail, head = _edge_arrays(g)
    order = np.argsort(tail, kind="stable")
    tail, head = tail[order], head[order]
    slot = np.arange(len(tail)) - np.searchsorted(tail, tail)
    table = np.full((slot.max(initial=0) + 1, g.n + 1), g.n)
    table[slot, tail] = head
    return table


def _neighbours(table, cols):
    """N(U) for each column U of cols, one row gather per neighbour slot:
    v is in N(U) when an out-neighbour of v is (edges pair up by inv)."""
    out = np.take(cols, table[0], axis=0)
    for row in table[1:]:
        out |= np.take(cols, row, axis=0)
    return out


def _candidate_blocks(g: Graph, lo: int, hi: int, trials: int, rng,
                      fibre_blocks=()):
    """Candidate sets U in check order as column blocks (U, |U|,
    |N(U) minus U|): fibre blocks, BFS balls by start and radius, then
    uniform draws.  A column is a bool vertex flag whose pad row n is
    False; a column outside the window lo <= |U| <= hi or seen before is
    dropped.  A block holds at most BLOCK_CELLS // (n + 1) columns, or the
    three balls of one start, and its starts' balls grow together."""
    blocks = [list(blk) for blk in fibre_blocks]
    for blk in blocks:
        _check_ids(blk, g.n, "vertex")
    table = _neighbour_table(g)
    width = max(1, BLOCK_CELLS // (g.n + 1))
    seen = set()

    def columns(sets):
        cols = np.zeros((g.n + 1, len(sets)), dtype=bool)
        cols[np.concatenate(sets).astype(np.intp, copy=False),
             np.repeat(np.arange(len(sets)), [len(u) for u in sets])] = True
        return cols

    def fresh(cols, outside=None):
        if outside is None:
            outside = np.count_nonzero(_neighbours(table, cols) & ~cols, 0)
        packed = np.packbits(np.ascontiguousarray(cols.T), axis=1)
        sizes, step = _popcount(packed).sum(axis=1), packed.shape[1]
        keys, kept = packed.tobytes(), []
        for j in np.flatnonzero((lo <= sizes) & (sizes <= hi)).tolist():
            key = keys[j * step:(j + 1) * step]
            if key not in seen:
                seen.add(key)
                kept.append(j)
        if len(kept) < len(sizes):
            cols, sizes, outside = cols[:, kept], sizes[kept], outside[kept]
        if kept:
            yield cols, sizes, outside

    for first in range(0, len(blocks), width):
        yield from fresh(columns(blocks[first:first + width]))
    # frontier k + 1 is N(frontier k) minus ball k, which is N(ball k)
    # minus ball k since ball k holds every neighbour of ball k - 1: a
    # ball's outside neighbourhood is the next frontier
    starts, step = min(g.n, trials), max(1, width // 3)
    for first in range(0, starts, step):
        ball = columns(np.arange(first, min(starts, first + step))[:, None])
        frontier = _neighbours(table, ball) & ~ball
        balls = np.empty(ball.shape + (3,), dtype=bool)
        outside = np.empty((ball.shape[1], 3), dtype=np.intp)
        for radius in range(3):
            ball |= frontier
            frontier = _neighbours(table, frontier) & ~ball
            balls[:, :, radius] = ball
            outside[:, radius] = np.count_nonzero(frontier, axis=0)
        yield from fresh(balls.reshape(g.n + 1, -1), outside.reshape(-1))
    for first in range(0, trials, width):
        draws = []
        for _ in range(min(width, trials - first)):
            size = int(rng.integers(lo, hi + 1))
            draws.append(rng.choice(g.n, size=size, replace=False))
        yield from fresh(columns(draws))


def _sampled_scan(gamma: float, blocks):
    """Check blocks in order up to the first U with outside < gamma |U|."""
    trials, best = 0, None
    for cols, sizes, outside in blocks:
        bad = outside < gamma * sizes
        end = int(np.argmax(bad)) + 1 if bad.any() else len(bad)
        ratio = float(np.min(outside[:end] / sizes[:end]))
        best = ratio if best is None else min(best, ratio)
        trials += end
        if bad[end - 1]:
            witness = frozenset(np.flatnonzero(cols[:, end - 1]).tolist())
            return MagnificationResult(False, witness, "sampled", trials, best)
    return MagnificationResult(True, None, "sampled", trials, best)


def is_magnifier(g: Graph, gamma: float, **options) -> MagnificationResult:
    """Test the expansion inequality over all U with |U| <= |V|/2; options
    as for is_pseudo_magnifier."""
    return is_pseudo_magnifier(g, MAGNIFIER_R, gamma, **options)


def check_magnifier_args(R: int, gamma: float, mode: str,
                         trials: int) -> None:
    """Raise ArgumentError unless is_pseudo_magnifier accepts these arguments.

    An infinite gamma would refute at the first candidate.  trials must be
    positive in every mode: a sampled check of no subset would report that
    the graph magnifies.
    """
    check_integer(R, "R")
    check_finite(gamma, "gamma")
    check_integer(trials, "trials")
    if not gamma > 0:
        raise ArgumentError("gamma must be positive")
    if R < 1:
        raise ArgumentError("R must be at least 1")
    if mode not in MODES:
        raise ArgumentError(f"mode must be one of {', '.join(MODES)}; "
                            f"got {mode!r}")
    if trials < 1:
        raise ArgumentError("trials must be at least 1")


@dataclass(frozen=True)
class MagnifierQuery:
    """is_pseudo_magnifier's arguments for the check made on each cover."""

    gamma: float
    R: int = MAGNIFIER_R
    mode: str = DEFAULT_MODE
    trials: int = QUERY_TRIALS

    __reduce__ = reduce_through_init

    def __post_init__(self):
        check_magnifier_args(self.R, self.gamma, self.mode, self.trials)


def is_pseudo_magnifier(g: Graph, R: int, gamma: float,
                        mode: str = DEFAULT_MODE, trials: int = DEFAULT_TRIALS,
                        seed=DEFAULT_SEED,
                        fibre_blocks=()) -> MagnificationResult:
    """Like is_magnifier, restricted to the window R <= |U| <= |V|/2."""
    check_magnifier_args(R, gamma, mode, trials)
    hi = g.n // 2
    if hi < R:
        return MagnificationResult(True, None, "exhaustive", 0, None)
    if mode == "auto":
        mode = "exhaustive" if g.n <= EXHAUSTIVE_VERTEX_CAP else "sampled"
    if mode == "exhaustive":
        holds, witness, best = _exhaustive_scan(g, gamma, R, hi)
        return MagnificationResult(holds, witness, "exhaustive",
                                   1 << g.n, best)
    rng = np.random.default_rng(seed)
    return _sampled_scan(gamma, _candidate_blocks(g, R, hi, trials, rng,
                                                  fibre_blocks))


def lift_fibre_blocks(lift: Lift):
    """Single-fibre seed sets: all of one base vertex's fibre, and halves."""
    n = lift.assignment.degree
    blocks = []
    for v in range(lift.base.n):
        full = [v * n + i for i in range(n)]
        blocks.append(full)
        blocks.append(full[: n // 2])
    return blocks


def alon_gap_bound(d: int, gamma: float) -> float:
    return d - gamma * gamma / (4 + 2 * gamma * gamma)


def alon_gap_check(g: Graph, gamma: float) -> bool:
    """lambda_2 <= d - gamma^2/(4 + 2 gamma^2) + 1e-8, premise verified first.

    The premise (g is d-regular and a gamma-magnifier) is established by an
    exhaustive scan, so g must fit under the exhaustive vertex cap.
    """
    d = g.regular_degree()
    if d is None:
        raise ValueError("the gap bound applies to regular graphs")
    result = is_magnifier(g, gamma, mode="exhaustive")
    if not result.holds:
        raise ValueError(
            f"premise unverified: not a {gamma}-magnifier "
            f"(witness {sorted(result.witness)})")
    return lambda2(g) <= alon_gap_bound(d, gamma) + 1e-8


def imbalance_rate(eps: float, base_vertices: int) -> float:
    """Expansion rate nu_1 guaranteed for eps-imbalanced fibres.

    Solves (1 - eps')^(m-1) = 1 - eps for eps' and returns
    eps' * (1 - eps) / m, with m the number of base vertices.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie strictly between 0 and 1")
    m = base_vertices
    if m < 2:
        return 0.0
    eps_prime = 1.0 - (1.0 - eps) ** (1.0 / (m - 1))
    return eps_prime * (1.0 - eps) / m


def fibre_imbalance_expansion(lift: Lift, subset: VertexSubset, eps: float):
    """(applies, nu_1, satisfied) for the almost-equal-fibre dichotomy.

    applies is true when the smallest fibre of the subset is below
    (1 - eps) times the largest; in that case the external neighbourhood
    is guaranteed to reach nu_1 * |U| once the cover degree is large, and
    satisfied reports whether it already does for this subset.
    """
    sizes = subset.fibre_sizes()
    if not subset.members:
        raise ValueError("subset must be nonempty")
    applies = min(sizes) < (1.0 - eps) * max(sizes)
    nu1 = imbalance_rate(eps, lift.base.n)
    outside = len(neighborhood(lift.cover, subset.members) - subset.members)
    satisfied = outside >= nu1 * len(subset.members)
    return applies, nu1, satisfied
