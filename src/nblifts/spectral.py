"""Adjacency and non-backtracking (Hashimoto) spectra of multigraphs.

The Hashimoto matrix is indexed by directed edges; its (e1, e2) entry is 1
exactly when e2 continues e1 without backtracking.  The new spectrum of a
lift is its spectrum on functions summing to zero over every fibre; the
fibre-constant functions carry the base spectrum.  Both are invariant under
A and H, so new eigenvalues are picked by index, with no matching.

Trials only need the extreme new adjacency eigenvalues.  For covers of at
least LANCZOS_MIN_VERTICES vertices these come from matrix-free Lanczos on
the sum-zero subspace: the plain three-term recurrence, O(N) memory, with a
residual test on every returned value and the dense solve as fallback
whenever an extreme reaches the threshold or the test never passes.
Smaller covers, and every full spectrum, take the dense solve.
"""

from dataclasses import dataclass
import math

import numpy as np

from .graphs import Graph, nb_successors, prune
from .lifts import Lift

DENSE_HASHIMOTO_CAP = 4000
# Covers with at least this many vertices get their extreme new adjacency
# eigenvalues by Lanczos, smaller ones by the dense solve.  Median ms of
# new_eigenvalues / lanczos_new_extremes over lifts of K5, K4, bouquet(2)
# and Petersen (3 seeds each, 2-core Xeon): N=200 3.0/6.3, 300 6.9/6.9,
# 400 12.5/8.8, 500 20.1/10.1, 800 52.2/16.0, 2000 539/27.3.  Lanczos
# needs 120 to 300 steps up to 2000 vertices.
LANCZOS_MIN_VERTICES = 400
LANCZOS_MAX_STEPS = 500
LANCZOS_CHECK_EVERY = 20
LANCZOS_TOL = 1e-10


class SpectralError(RuntimeError):
    """Numerical failure: unmatched eigenvalue, broken trace identity or
    unconverged power iteration."""


def _edge_arrays(g: Graph):
    """tail and head as integer arrays, indexed by directed-edge id."""
    return (np.asarray(g.tail, dtype=np.int64),
            np.asarray(g.head, dtype=np.int64))


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric vertex matrix; entry (u, v) counts directed edges u -> v."""
    a = np.zeros((g.n, g.n))
    np.add.at(a, _edge_arrays(g), 1.0)
    return a


def hashimoto_matrix(g: Graph) -> np.ndarray:
    """0/1 directed-edge matrix of non-backtracking length-two walks."""
    m = g.num_directed
    h = np.zeros((m, m))
    for e, succs in enumerate(nb_successors(g)):
        for f in succs:
            h[e, f] = 1.0
    return h


def adjacency_spectrum(g: Graph) -> np.ndarray:
    return np.linalg.eigvalsh(adjacency_matrix(g)) if g.n else np.zeros(0)


def _dense_hashimoto(g: Graph) -> np.ndarray:
    if g.num_directed > DENSE_HASHIMOTO_CAP:
        raise SpectralError(
            f"dense Hashimoto solve capped at {DENSE_HASHIMOTO_CAP} directed "
            f"edges; got {g.num_directed}")
    return hashimoto_matrix(g)


def hashimoto_spectrum(g: Graph) -> np.ndarray:
    """All Hashimoto eigenvalues, sorted by (real, imag); dense solve."""
    if g.num_directed == 0:
        return np.zeros(0, dtype=complex)
    return np.asarray(_sorted_tuple(np.linalg.eigvals(_dense_hashimoto(g))))


def _power_spectral_radius(g: Graph, tol: float = 1e-12,
                           max_iter: int = 100000) -> float:
    """Perron root of H via power iteration on H + I.

    The identity shift removes the periodicity that stalls plain power
    iteration on bipartite-like transition structures; the shift moves the
    Perron root by exactly one.  Raises SpectralError when the iterate has
    not converged after max_iter steps.
    """
    m = g.num_directed
    src = []
    dst = []
    for e, succs in enumerate(nb_successors(g)):
        src.extend([e] * len(succs))
        dst.extend(succs)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    x = np.full(m, 1.0 / math.sqrt(m))
    lam = 0.0
    for _ in range(max_iter):
        y = x + np.bincount(dst, weights=x[src], minlength=m)
        norm = float(np.linalg.norm(y))
        if norm == 0:
            return 0.0
        y /= norm
        if abs(norm - lam) <= tol * max(1.0, norm):
            return norm - 1.0
        lam, x = norm, y
    raise SpectralError(
        f"power iteration did not converge in {max_iter} steps "
        f"(last estimate {lam - 1.0})")


def mu1(g: Graph) -> float:
    """Spectral radius of the Hashimoto matrix.

    Computed on the pruned core: pendant trees only contribute nilpotent
    blocks, whose numerically ill-conditioned zero eigenvalues would
    otherwise pollute the result.  Forests give exactly 0.
    """
    if g.n == 0:
        raise ValueError("mu1 of the empty graph is undefined")
    core = prune(g)
    if core.n == 0:
        return 0.0
    m = core.num_directed
    if m <= DENSE_HASHIMOTO_CAP:
        vals = np.linalg.eigvals(hashimoto_matrix(core))
        return float(np.max(np.abs(vals)))
    return _power_spectral_radius(core)


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalues with the tolerance used for multiset operations."""

    values: tuple
    tolerance: float = 1e-7

    def __len__(self):
        return len(self.values)

    def multiplicity_pairs(self):
        """Cluster values within tolerance into (value, multiplicity) pairs."""
        pairs = []
        for v in self.values:
            if pairs and abs(v - pairs[-1][0]) <= self.tolerance * (1 + abs(v)):
                pairs[-1][1] += 1
            else:
                pairs.append([v, 1])
        return [(v, k) for v, k in pairs]

    def to_json(self):
        def enc(v):
            if isinstance(v, complex):
                return [v.real, v.imag]
            return float(v)
        return {
            "values": [enc(v) for v in self.values],
            "multiplicity_pairs": [[enc(v), k] for v, k in self.multiplicity_pairs()],
            "tolerance": self.tolerance,
        }


def _sorted_tuple(vals):
    return tuple(sorted(vals, key=lambda z: (np.real(z), np.imag(z))))


def multiset_difference(cover_vals, base_vals, tol):
    """Remove each base value's nearest unmatched cover value.

    Returns (remaining values, worst matching error).  Raises SpectralError
    when some base value has no cover value within tol * (1 + |value|).
    """
    cover = list(cover_vals)
    used = [False] * len(cover)
    worst = 0.0
    for b in base_vals:
        best, best_err = -1, math.inf
        for i, c in enumerate(cover):
            if used[i]:
                continue
            err = abs(c - b)
            if err < best_err:
                best, best_err = i, err
        if best < 0 or best_err > tol * (1 + abs(b)):
            raise SpectralError(
                f"eigenvalue {b} has no match within {tol * (1 + abs(b))} "
                f"(best {best_err})")
        used[best] = True
        worst = max(worst, best_err)
    rest = [c for i, c in enumerate(cover) if not used[i]]
    return _sorted_tuple(rest), worst


def multiset_contains(big_vals, small_vals, tol) -> bool:
    try:
        multiset_difference(big_vals, small_vals, tol)
        return True
    except SpectralError:
        return False


def new_eigenvalues(lift: Lift, which: str = "adjacency") -> np.ndarray:
    """Eigenvalues of the cover on functions summing to zero on every fibre.

    Adds c * P in place, P averaging each fibre (n x n blocks in build_lift's
    layout); P commutes with A and H, and c = 2 * maxdeg + 1 lifts every old
    eigenvalue past every new one, so the new ones are the lowest #V_B (n-1)
    (adjacency, ascending) or #E_B (n-1) (Hashimoto, complex, by real part).
    """
    n = lift.assignment.degree
    if which == "adjacency":
        blocks, m = lift.base.n, adjacency_matrix(lift.cover)
    elif which == "hashimoto":
        blocks, m = lift.base.num_directed, _dense_hashimoto(lift.cover)
    else:
        raise ValueError("which must be 'adjacency' or 'hashimoto'")
    k = blocks * (n - 1)
    shift = (2 * max(lift.base.degrees(), default=0) + 1) / n
    for b in range(blocks):
        m[b * n:(b + 1) * n, b * n:(b + 1) * n] += shift
    if which == "adjacency":
        return np.linalg.eigvalsh(m)[:k]
    vals = np.linalg.eigvals(m).astype(complex)
    return vals[np.argsort(vals.real)[:k]]


def new_spectrum(lift: Lift, which: str = "adjacency",
                 tol: float = 1e-7) -> SpectrumMultiset:
    """New eigenvalues as a multiset; tol only groups multiplicity pairs."""
    return SpectrumMultiset(_sorted_tuple(new_eigenvalues(lift, which)), tol)


def ritz_last_component(alpha, beta, theta: float) -> float:
    """|s_k| of the unit eigenvector s of the k x k tridiagonal T for its
    eigenvalue theta (diagonal alpha, nonzero off-diagonal beta).

    Twisted factorisation (Parlett and Dhillon; LAPACK's dlar1v), O(k): the
    pivots d of theta I - T from the top and p from the bottom meet at the
    row r where the twist d_r + p_r - (theta - alpha_r) is smallest, near
    the largest component of s.  From s_r = 1 the components are carried
    away from r, upward by s_i = beta_i s_{i+1} / d_i and downward by
    s_{i+1} = beta_i s_i / p_{i+1}, so each ratio runs the way s decays
    and rounding errors are damped.  A one-sided recurrence from the last
    row is not safe: when s peaks near the bottom it can report a tiny
    |s_k| for a large one.  Returns nan when a pivot is zero or the result
    is not finite, so that it never reads as converged.
    """
    k = len(alpha)
    shifted = [theta - a for a in alpha]
    down = shifted[:]  # pivots of theta I - T from the top
    up = shifted[:]    # and from the bottom
    try:
        for i in range(1, k):
            down[i] -= beta[i - 1] * (beta[i - 1] / down[i - 1])
            j = k - 1 - i
            up[j] -= beta[j] * (beta[j] / up[j + 1])
        twist = [abs(d + p - x) for d, p, x in zip(down, up, shifted)]
        r = min(range(k), key=twist.__getitem__)
        total = comp = 1.0
        for i in range(r - 1, -1, -1):
            comp *= beta[i] / down[i]
            total += comp * comp
        comp = 1.0
        for i in range(r, k - 1):
            comp *= beta[i] / up[i + 1]
            total += comp * comp
    except ZeroDivisionError:
        return math.nan
    last = abs(comp) / math.sqrt(total)
    # a nan entry makes every twist nan
    ok = math.isfinite(twist[r]) and math.isfinite(total)
    return last if ok and math.isfinite(last) else math.nan


def lanczos_new_extremes(lift: Lift):
    """Lowest and highest new adjacency eigenvalues, matrix-free.

    Plain Lanczos (three-term recurrence, no reorthogonalisation) on
    x -> A x minus each fibre's mean, from a fixed start vector summing to
    zero on every fibre; A x is a gather and a bincount over the cover's
    edges.  Only the current and previous vectors are kept, so memory is
    O(N) and k steps cost O(kN).  Lost orthogonality does not spoil the
    extremes: by Paige (1980) it only adds copies of Ritz values that have
    already converged, and a Ritz value theta with residual bound
    beta * |s_k| <= tol lies within tol + O(k eps |A|) of an eigenvalue.

    Every LANCZOS_CHECK_EVERY steps, and when beta <= LANCZOS_TOL (an
    invariant subspace), the tridiagonal's eigenvalues are taken by eigvalsh
    and |s_k| of the lowest and highest by ritz_last_component.  Returns
    [theta_min, theta_max] (every Ritz value when there are fewer than two)
    only once both residual bounds are <= LANCZOS_TOL; a nan bound never
    passes.  Returns None at an invariant subspace that fails the test or
    after LANCZOS_MAX_STEPS steps.
    """
    cover, n = lift.cover, lift.assignment.degree
    size = cover.n
    if lift.base.n * (n - 1) == 0:
        return np.zeros(0)
    tail, head = _edge_arrays(cover)

    def sum_zero(x):
        x = x.reshape(-1, n)
        return (x - x.mean(axis=1, keepdims=True)).ravel()

    q = sum_zero(np.random.default_rng(0).standard_normal(size))
    q /= np.linalg.norm(q)
    alpha, beta = [], []
    for k in range(LANCZOS_MAX_STEPS):
        w = sum_zero(np.bincount(tail, weights=q[head], minlength=size))
        alpha.append(float(q @ w))
        w -= alpha[-1] * q
        if k:
            w -= beta[-1] * prev
        b = float(np.linalg.norm(w))
        invariant = b <= LANCZOS_TOL
        if (invariant or (k + 1) % LANCZOS_CHECK_EVERY == 0
                or k + 1 == LANCZOS_MAX_STEPS):
            t = np.diag(alpha)  # and beta above and below the diagonal
            t.flat[1::k + 2] = t.flat[k + 1::k + 2] = beta
            theta = np.linalg.eigvalsh(t)
            pick = theta[[0, -1]] if k else theta
            if all(b * ritz_last_component(alpha, beta, float(x))
                   <= LANCZOS_TOL for x in pick):
                return pick
            if invariant:
                return None
        beta.append(b)
        prev, q = q, w / b
    return None


def new_adjacency_extremes(lift: Lift, threshold: float) -> np.ndarray:
    """New adjacency eigenvalues, as many as counting past threshold needs.

    Covers below LANCZOS_MIN_VERTICES vertices return new_eigenvalues(lift).
    Larger ones return lanczos_new_extremes(lift), [theta_min, theta_max].
    These give the full spectrum's count (zero), max |new| and lambda2: no
    new eigenvalue exceeds the base's largest, since cover and base share
    their spectral radius.  The dense solve runs instead when some |theta|
    comes within LANCZOS_TOL of threshold (the count may be positive and
    needs multiplicities) or when lanczos_new_extremes returns None.
    """
    if lift.cover.n < LANCZOS_MIN_VERTICES:
        return new_eigenvalues(lift)
    vals = lanczos_new_extremes(lift)
    if vals is None or np.any(np.abs(vals) + LANCZOS_TOL > threshold):
        return new_eigenvalues(lift)
    return vals


def alon_threshold(d: int, eps: float = 0.0) -> float:
    """2 sqrt(d-1) + eps, the bound new eigenvalues are tested against."""
    return 2.0 * math.sqrt(d - 1) + eps


def count_non_alon(new_vals, d: int, eps: float) -> int:
    """Number of new eigenvalues with |lambda| > 2 sqrt(d-1) + eps."""
    return int(np.sum(np.abs(new_vals) > alon_threshold(d, eps)))


def non_alon_count(lift: Lift, eps: float) -> int:
    """New adjacency eigenvalues exceeding the regular-base bound, with multiplicity."""
    d = lift.base.regular_degree()
    if d is None:
        raise ValueError("non-Alon counting requires a regular base graph")
    return count_non_alon(
        new_adjacency_extremes(lift, alon_threshold(d, eps)), d, eps)


def is_ramanujan(g: Graph, tol: float = 1e-9) -> bool:
    """d-regular with every adjacency eigenvalue in the extremal set or bulk."""
    d = g.regular_degree()
    if d is None:
        raise ValueError("Ramanujan test requires a regular graph")
    bulk = alon_threshold(d)
    for lam in adjacency_spectrum(g):
        if abs(lam - d) <= tol or abs(lam + d) <= tol or abs(lam) <= bulk + tol:
            continue
        return False
    return True


@dataclass(frozen=True)
class IharaResult:
    status: str  # "checked", "skipped-nonregular", "skipped-half-loop"
    passed: bool | None
    max_err: float | None = None


def ihara_check(g: Graph, tol: float = 1e-6) -> IharaResult:
    """Verify the determinantal link between adjacency and Hashimoto spectra.

    For d-regular g without half-loops, each adjacency eigenvalue lam yields
    the two roots of mu^2 - lam*mu + (d-1), and the remaining Hashimoto
    eigenvalues are +/-1, each with multiplicity #E - #V.
    """
    d = g.regular_degree()
    if d is None:
        return IharaResult("skipped-nonregular", None)
    if g.has_half_loops():
        return IharaResult("skipped-half-loop", None)
    lams = adjacency_spectrum(g)
    expected = []
    q = d - 1
    for lam in lams:
        disc = np.sqrt(complex(lam * lam - 4 * q))
        expected.append((lam + disc) / 2)
        expected.append((lam - disc) / 2)
    extra = g.num_edges - g.n
    expected.extend([1.0 + 0j] * extra)
    expected.extend([-1.0 + 0j] * extra)
    actual = hashimoto_spectrum(g)
    if len(actual) != len(expected):
        return IharaResult("checked", False, math.inf)
    _, worst = multiset_difference(actual, expected, math.inf)
    return IharaResult("checked", bool(worst <= tol), float(worst))


def lambda2(g: Graph) -> float:
    """Second-largest adjacency eigenvalue."""
    vals = adjacency_spectrum(g)
    if len(vals) < 2:
        raise ValueError("lambda2 needs at least two vertices")
    return float(vals[-2])


def hashimoto_radius_from_adjacency(lam_abs: float, d: int) -> float:
    """Largest-modulus root of mu^2 - lam*mu + (d-1) for |lam| = lam_abs.

    Exact for regular graphs without half-loops (by the determinantal
    formula); used as a fast proxy for the new Hashimoto radius.
    """
    q = d - 1
    if lam_abs * lam_abs <= 4 * q:
        return math.sqrt(q)
    return (lam_abs + math.sqrt(lam_abs * lam_abs - 4 * q)) / 2


@dataclass(frozen=True)
class SpectralReport:
    """Old/new spectra of a lift plus its non-Alon count."""

    adjacency_spectrum: SpectrumMultiset
    hashimoto_spectrum: SpectrumMultiset | None
    new_adjacency: SpectrumMultiset
    new_hashimoto: SpectrumMultiset | None
    non_alon_count: int | None
    epsilon: float
    base_regular_degree: int | None = None
    ramanujan_base: bool | None = None

    def to_json(self):
        return {
            "adjacency": self.adjacency_spectrum.to_json(),
            "hashimoto": (self.hashimoto_spectrum.to_json()
                          if self.hashimoto_spectrum else None),
            "new_adjacency": self.new_adjacency.to_json(),
            "new_hashimoto": (self.new_hashimoto.to_json()
                              if self.new_hashimoto else None),
            "non_alon_count": self.non_alon_count,
            "epsilon": self.epsilon,
            "base_regular_degree": self.base_regular_degree,
            "ramanujan_base": self.ramanujan_base,
        }


def spectral_report(lift: Lift, eps: float, tol: float = 1e-7,
                    with_hashimoto: bool = False) -> SpectralReport:
    """Cover spectra reported as base plus new; tol groups multiplicities."""
    d = lift.base.regular_degree()

    def old_and_new(base_vals, which):
        new = new_spectrum(lift, which, tol)
        every = np.concatenate([base_vals, new.values])
        return SpectrumMultiset(_sorted_tuple(every), tol), new

    cover_adj, new_adj = old_and_new(adjacency_spectrum(lift.base), "adjacency")
    hsp = new_h = None
    if with_hashimoto:
        hsp, new_h = old_and_new(hashimoto_spectrum(lift.base), "hashimoto")
    count = count_non_alon(new_adj.values, d, eps) if d is not None else None
    ram = is_ramanujan(lift.base) if d is not None else None
    return SpectralReport(cover_adj, hsp, new_adj, new_h, count, eps, d, ram)
