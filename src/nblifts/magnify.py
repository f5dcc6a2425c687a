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
the likely violators.  Sampled candidates are int vertex masks, and a
candidate's neighbourhood is the OR of its vertices' neighbour masks; a
BFS ball's outside neighbourhood is the BFS's next frontier.
"""

from dataclasses import dataclass
import math

import numpy as np

from .graphs import ArgumentError, Graph, _check_ids
from .lifts import Lift
from .spectral import lambda2

EXHAUSTIVE_VERTEX_CAP = 20
MODES = ("auto", "exhaustive", "sampled")
MAGNIFIER_R = 1  # a magnifier is a pseudo-magnifier with R = 1; R's default
DEFAULT_MODE = "auto"  # a check's defaults: mode, sampled subsets, seed
DEFAULT_TRIALS = 200
DEFAULT_SEED = 0


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


def _neighbor_masks(g: Graph):
    masks = [0] * g.n
    for t, h in zip(g.tail, g.head):
        masks[t] |= 1 << h
    return masks


def _subset_tables(g: Graph):
    """For every subset mask: its neighbourhood mask, by doubling over bits."""
    masks = _neighbor_masks(g)
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


# _BYTE_BITS[x]: the positions of the set bits of the byte x
_BYTE_BITS = tuple(tuple(b for b in range(8) if x >> b & 1)
                   for x in range(256))


def _mask_rows(g: Graph):
    """g's neighbour masks in rows of eight: row i for vertices 8i..8i+7."""
    masks = _neighbor_masks(g)
    return [masks[i:i + 8] for i in range(0, g.n, 8)]


def _mask_neighborhood(rows, u: int) -> int:
    """Mask of the vertices joined by an edge to some vertex of mask u."""
    out = 0
    for row, byte in zip(rows, u.to_bytes(len(rows), "little")):
        if byte:
            for b in _BYTE_BITS[byte]:
                out |= row[b]
    return out


def _members_mask(n: int, members) -> int:
    """Vertex mask of a sequence of vertices below n."""
    flags = np.zeros(n, dtype=bool)
    flags[members] = True
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                          "little")


def _bfs_balls(rows, start: int, radius: int):
    """The balls of radius 1, ..., radius around start, from one BFS, each
    with the mask of its neighbours outside it.

    Frontier k + 1 is N(frontier k) minus ball k.  It equals N(ball k)
    minus ball k, since every vertex of ball k - 1 has all its neighbours
    in ball k; so a ball's outside neighbourhood is the next frontier.
    """
    ball = 1 << start
    frontier = _mask_neighborhood(rows, ball) & ~ball
    for _ in range(radius):
        ball |= frontier
        frontier = _mask_neighborhood(rows, frontier) & ~ball
        yield ball, frontier


def _candidates(g: Graph, rows, lo: int, hi: int, trials: int, rng,
                fibre_blocks=()):
    """Candidate sets U as pairs of vertex masks (U, N(U) minus U): fibre
    blocks, BFS balls, then uniform draws.  rows are g's _mask_rows.  A
    ball's outside neighbourhood comes from its BFS; any other candidate's
    is taken when the candidate is yielded."""
    block_masks = []
    for blk in fibre_blocks:
        blk = list(blk)
        _check_ids(blk, g.n, "vertex")
        block_masks.append(_members_mask(g.n, blk))
    seen = set()
    for blk in block_masks:
        if lo <= blk.bit_count() <= hi and blk not in seen:
            seen.add(blk)
            yield blk, _mask_neighborhood(rows, blk) & ~blk
    for v in range(min(g.n, trials)):
        for ball, outside in _bfs_balls(rows, v, 3):
            if lo <= ball.bit_count() <= hi and ball not in seen:
                seen.add(ball)
                yield ball, outside
    count = 0
    while count < trials:
        size = int(rng.integers(lo, hi + 1))
        u = _members_mask(g.n, rng.choice(g.n, size=size, replace=False))
        count += 1
        if u not in seen:
            seen.add(u)
            yield u, _mask_neighborhood(rows, u) & ~u


def _check_subsets(gamma: float, candidates):
    """Check (U, N(U) minus U) mask pairs in order, stopping at the first
    U with fewer than gamma * |U| outside neighbours.  For a BFS ball the
    second mask is the next frontier of its BFS (see _bfs_balls), not a
    neighbourhood taken again over the whole ball."""
    trials = 0
    best = None
    for u, out in candidates:
        trials += 1
        size = u.bit_count()
        outside = out.bit_count()
        ratio = outside / size
        if best is None or ratio < best:
            best = ratio
        if outside < gamma * size:
            witness = frozenset(v for v in range(u.bit_length())
                                if u >> v & 1)
            return MagnificationResult(False, witness, "sampled", trials, best)
    return MagnificationResult(True, None, "sampled", trials, best)


def is_magnifier(g: Graph, gamma: float, **options) -> MagnificationResult:
    """Test the expansion inequality over all U with |U| <= |V|/2; options
    as for is_pseudo_magnifier."""
    return is_pseudo_magnifier(g, MAGNIFIER_R, gamma, **options)


def check_magnifier_args(R: int, gamma: float, mode: str,
                         trials: int) -> None:
    """Raise ArgumentError unless is_pseudo_magnifier accepts these arguments.

    trials must be positive in every mode: a sampled check of no subset
    would report that the graph magnifies.
    """
    if not gamma > 0:
        raise ArgumentError("gamma must be positive")
    if R < 1:
        raise ArgumentError("R must be at least 1")
    if mode not in MODES:
        raise ArgumentError(f"mode must be one of {', '.join(MODES)}; "
                            f"got {mode!r}")
    if trials < 1:
        raise ArgumentError("trials must be at least 1")


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
    candidates = _candidates(g, _mask_rows(g), R, hi, trials, rng,
                             fibre_blocks)
    return _check_subsets(gamma, candidates)


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
