"""Adjacency and non-backtracking (Hashimoto) spectra of multigraphs.

The Hashimoto matrix is indexed by directed edges; its (e1, e2) entry is 1
exactly when e2 continues e1 without backtracking.  walks.hashimoto_matrix
builds it, and this module imports it from there.  The new spectrum of a
lift is its spectrum on functions summing to zero over every fibre; the
fibre-constant functions carry the base spectrum.  Both are invariant under
A and H, so new eigenvalues are picked by index, with no matching.

Trials only need the extreme new adjacency eigenvalues, which
new_adjacency_extremes returns as a NewExtremes record, the one place where
new eigenvalues are compared with a threshold; experiments.run_trial,
non_alon_count and spectral_report all read it.  For covers of at least
LANCZOS_MIN_VERTICES vertices (280, the measured size from which Lanczos
beats the dense solve on every base timed) the extremes come from
matrix-free Lanczos on the sum-zero subspace: the plain three-term
recurrence, O(N) memory, with a residual test on every returned value and
the dense solve as fallback whenever an extreme reaches the threshold or
the test never passes; above DENSE_MAX_VERTICES vertices the fallback is
refused with SpectralError.  Its convergence checks run where the decay of the
residual bounds predicts they can pass, and take the extremes of the k x k
tridiagonal by Laguerre's iteration in O(k) per pass, with no eigensolve.
A skipped check can only delay a return: a value is returned only after a
check at that step passes.  Smaller covers, and every full spectrum, take
the dense solve.
"""

from dataclasses import dataclass
from itertools import chain
import math

import numpy as np

from .graphs import Graph, nb_successors, prune
from .lifts import Lift, base_plan
from .walks import hashimoto_matrix

DENSE_HASHIMOTO_CAP = 4000
MULTIPLICITY_TOL = 1e-7  # relative; groups eigenvalues into pairs
# Covers with at least this many vertices get their extreme new adjacency
# eigenvalues by Lanczos, smaller ones by the dense solve.  Median ms per
# cover of new_eigenvalues / lanczos_new_extremes, over 4 seeded permutation
# covers of N vertices and 7 repeats, with 2 and 1 BLAS threads (2-core
# Xeon, numpy 2.4.6 with OpenBLAS 0.3.31):
#   N    BLAS  K4           K5           bouquet(2)   Petersen
#   160  2     2.20/4.72    1.63/4.19    1.78/4.78    1.39/3.07
#   160  1     2.10/4.81    1.83/4.96    1.82/5.04    1.79/4.72
#   200  2     3.44/4.54    2.60/4.01    2.90/4.65    2.17/2.83
#   200  1     3.45/4.83    2.77/4.67    2.81/4.37    2.74/4.60
#   240  2     4.87/4.34    4.15/4.64    4.14/5.03    3.10/2.78
#   240  1     4.98/4.92    4.11/4.54    4.04/4.73    4.12/4.80
#   260  2     6.12/4.87    4.97/5.08    4.86/4.87    3.84/3.21
#   260  1     5.75/5.03    4.82/4.72    4.70/4.78    4.89/5.52
#   280  2     7.20/4.12    5.74/5.35    4.81/2.98    4.40/3.06
#   280  1     6.67/5.02    5.47/4.87    5.61/4.86    5.65/5.20
#   320  2     8.84/3.64    7.19/4.96    7.27/4.89    5.81/3.54
#   320  1     8.77/5.51    7.32/4.97    7.42/4.80    7.45/6.10
#   400  2     14.81/6.40   14.57/5.88   12.17/3.21   12.13/3.77
#   400  1     14.14/6.05   14.70/5.84   14.17/5.04   14.52/6.47
# 280 is the smallest N at which Lanczos wins on every base at both thread
# counts (a repeat over N = 240..320 with 11 repeats agrees); the dense
# solve grows as N^3 and Lanczos, at 120 to 300 steps, about as N.
LANCZOS_MIN_VERTICES = 280
# Largest cover the dense fallback of new_adjacency_extremes may solve.  Its
# N x N float64 matrix takes 8 N^2 bytes, 128 MB here, twice the largest
# cover of the perfbench, README and CI configs (K5 at degree 400, 2000
# vertices); at N = 20000 the solve held 6.3 GB of an 8 GB host.  A
# constant, not the host's free memory, so that reports stay deterministic.
DENSE_MAX_VERTICES = 4000
LANCZOS_MAX_STEPS = 500
LANCZOS_TOL = 1e-10
# Lanczos convergence checks: the first comes after LANCZOS_CHECK_EVERY
# steps, and each later one where the last two checks' residual bounds
# predict it can pass (lanczos_new_extremes, _check_gap).  The constants
# come from recorded bound trajectories: the larger bound beta * |s_k| at
# every step of 96 lifts (K5, K4, bouquet(2), bouquet(3), dipole(3) and
# Petersen; N = 100, 500, 1000, 2000; seeds 0-3), on which schedules were
# replayed with a check costing 5.3 us per tridiagonal row and a step 37 to
# 73 us (N = 500 to 2000; 2-core Xeon).  The bound stays near 1e-2 to 1e-1
# for 40 to 60 steps and then falls ever faster, so a log-linear prediction
# overshoots unless it is capped.  Over the 72 lifts with N >= 500, against
# a check every 20 steps (modelled cost 1, median 9 checks, median 10 steps
# past the first step that passes): factor 0.8 with gaps in [5, 80] costs
# 0.80 with median 4 checks and 5.5 steps past (at most 37); a gap cap of
# 40 costs 0.87 (6 checks), of 120 costs 0.80 (4 checks, up to 49 steps
# past); factors 0.6 and 1.0 cost 0.82 and 0.80 at a cap of 80.
LANCZOS_CHECK_EVERY = 20  # first check, and the gap when the bound did not fall
LANCZOS_GAP_FACTOR = 0.8
LANCZOS_MIN_GAP = 5
LANCZOS_MAX_GAP = 80
# Laguerre passes per extreme from a cold start, over 40,000 random
# tridiagonals of size up to 40: median 6, or 24 where the two extremes
# nearly coincide, and at most 34.  Warm-started Lanczos checks take a
# median of 3.
LAGUERRE_MAX_PASSES = 64
_EPS = float(np.finfo(float).eps)


class SpectralError(RuntimeError):
    """Numerical failure or refused solve: an unmatched eigenvalue in
    multiset_difference, an unconverged power iteration in mu1, a dense
    Hashimoto solve above DENSE_HASHIMOTO_CAP directed edges, or a dense
    fallback above DENSE_MAX_VERTICES vertices in new_adjacency_extremes."""


def _edge_arrays(g: Graph):
    """tail and head as integer arrays, indexed by directed-edge id."""
    return (np.asarray(g.tail, dtype=np.int64),
            np.asarray(g.head, dtype=np.int64))


def _adjacency_from_arrays(size: int, edges) -> np.ndarray:
    tail, head = edges  # entry (u, v) counts the edges u -> v
    counts = np.bincount(tail * size + head, weights=np.ones(len(tail)),
                         minlength=size * size)  # int64 when there are none
    return counts.astype(float, copy=False).reshape(size, size)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric vertex matrix; entry (u, v) counts directed edges u -> v."""
    return _adjacency_from_arrays(g.n, _edge_arrays(g))


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


def _power_spectral_radius(g: Graph, max_iter: int = 100000) -> float:
    """Perron root of H via power iteration on H + I.

    The identity shift removes the periodicity that stalls plain power
    iteration on bipartite-like transition structures; the shift moves the
    Perron root by exactly one.  Raises SpectralError unless successive
    norms agree to 1e-12 relative within max_iter steps.
    """
    m = g.num_directed
    succ = nb_successors(g)
    src = np.repeat(np.arange(m), [len(s) for s in succ])
    dst = np.fromiter(chain.from_iterable(succ), dtype=np.int64,
                      count=len(src))
    x = np.full(m, 1.0 / math.sqrt(m))
    lam = 0.0
    for _ in range(max_iter):
        # H + I maps the positive x to a positive y, so norm > 0
        y = x + np.bincount(dst, weights=x[src], minlength=m)
        norm = float(np.linalg.norm(y))
        y /= norm
        if abs(norm - lam) <= 1e-12 * max(1.0, norm):
            return norm - 1.0
        lam, x = norm, y
    raise SpectralError(
        f"power iteration did not converge in {max_iter} steps "
        f"(last estimate {lam - 1.0})")


def mu1(g: Graph) -> float:
    """Spectral radius of the Hashimoto matrix.

    Computed on the pruned core: pendant trees only contribute nilpotent
    blocks, whose numerically ill-conditioned zero eigenvalues would
    otherwise pollute the result.  Forests give exactly 0.  A d-regular
    core gives exactly d - 1 with no eigensolve: inv e is always an
    out-edge of head e (a half-loop's too), so every row of H sums to
    d - 1, and a nonnegative matrix with equal row sums has that sum as
    its spectral radius.
    """
    if g.n == 0:
        raise ValueError("mu1 of the empty graph is undefined")
    core = prune(g)
    if core.n == 0:
        return 0.0
    d = core.regular_degree()
    if d is not None:
        return float(d - 1)
    m = core.num_directed
    if m <= DENSE_HASHIMOTO_CAP:
        vals = np.linalg.eigvals(hashimoto_matrix(core))
        return float(np.max(np.abs(vals)))
    return _power_spectral_radius(core)


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalues with the tolerance used for multiset operations."""

    values: tuple
    tolerance: float = MULTIPLICITY_TOL

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


def new_eigenvalues(lift: Lift, which: str = "adjacency") -> np.ndarray:
    """Eigenvalues of the cover on functions summing to zero on every fibre.

    Adds c * P in place, P averaging each fibre (n x n blocks in Lift's
    layout); P commutes with A and H, and c = 2 * maxdeg + 1 lifts every old
    eigenvalue past every new one, so the new ones are the lowest #V_B (n-1)
    (adjacency, ascending) or #E_B (n-1) (Hashimoto, complex, by real part).
    """
    n = lift.assignment.degree
    if which == "adjacency":
        blocks = lift.base.n
        m = _adjacency_from_arrays(lift.base.n * n, lift.edge_arrays)
    elif which == "hashimoto":
        blocks, m = lift.base.num_directed, _dense_hashimoto(lift.cover)
    else:
        raise ValueError("which must be 'adjacency' or 'hashimoto'")
    k = blocks * (n - 1)
    shift = (2 * base_plan(lift.base).maxdeg + 1) / n
    for b in range(blocks):
        m[b * n:(b + 1) * n, b * n:(b + 1) * n] += shift
    if which == "adjacency":
        return np.linalg.eigvalsh(m)[:k]
    vals = np.linalg.eigvals(m).astype(complex)
    return vals[np.argsort(vals.real)[:k]]


def new_spectrum(lift: Lift, which: str = "adjacency",
                 tol: float = MULTIPLICITY_TOL) -> SpectrumMultiset:
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


def tridiagonal_lowest(alpha, beta, start: float = math.nan) -> float:
    """Lowest eigenvalue of the k x k tridiagonal T (diagonal alpha,
    off-diagonal beta), in O(k) per pass and with no eigensolve.

    Laguerre's iteration (Li and Zeng, SIAM J. Sci. Comput. 1994) on the
    pivots d_i of T - xI: with a_i = d_i'/d_i and c_i = d_i''/d_i,
    S1 = sum a_i and S2 = sum a_i^2 - c_i are the first two power sums of
    1/(x - lambda_j).  From x below every eigenvalue the Laguerre step climbs
    monotonically to the lowest one and cannot pass it, so every pass first
    requires all pivots to be positive (Sturm count 0): an iterate is
    certified to lie below the extreme, not merely near some eigenvalue.
    The discriminant gets its rounding floor added: where it cancels, in a
    cluster that holds every eigenvalue (k = 2), a step could otherwise land
    between the two lowest.  A later pass that finds a non-positive pivot
    has then crossed the extreme by rounding only, and is returned.

    start is a guess below the extreme (the previous Lanczos check's value
    minus its residual bound); when its first pass finds a non-positive
    pivot, the iteration restarts below the Gershgorin bound.  Returns nan
    for non-finite entries or after LAGUERRE_MAX_PASSES passes, so that it
    never reads as converged.
    """
    k = len(alpha)
    if not math.isfinite(sum(alpha) + sum(beta)):
        return math.nan
    if k == 1:
        return float(alpha[0])
    radius = [0.0] * k
    for i, b in enumerate(beta):
        radius[i] += abs(b)
        radius[i + 1] += abs(b)
    scale = max(abs(a) + r for a, r in zip(alpha, radius))
    cold = min(a - r for a, r in zip(alpha, radius)) - 1e-3 * scale
    x = start if start > cold else cold
    climbed = False
    for _ in range(LAGUERRE_MAX_PASSES):
        s1 = s2 = a = c = t = 0.0
        d = 1.0
        for i in range(k):
            if i:
                t = beta[i - 1] * (beta[i - 1] / d)
            d = alpha[i] - x - t
            if not d > 0:
                break
            a, c = (t * a - 1.0) / d, t * (c - 2.0 * a * a) / d
            s1 += a
            s2 += a * a - c
        else:
            spread = max(k * s2 - s1 * s1, 0.0) + _EPS * k * (k * s2 + s1 * s1)
            step = k / (math.sqrt((k - 1) * spread) - s1)
            x += step
            climbed = True
            if not step > _EPS * scale:
                return x
            continue
        if climbed:
            return x
        if x == cold:
            return math.nan
        x = cold
    return math.nan


def _gather_index(lift: Lift):
    """Index that turns the cover's A x into a gather and a sum, with the
    two buffers _gather_matvec writes: (index, gathered, out).

    index, gathered through base_plan's out_table, has shape (maxdeg,
    base.n, n): [j, v, i] is the cover head of edge (e, i), e the j-th
    out-edge of v; rows past deg(v) hold N = base.n * n, the 0.0 after x.
    """
    base, n = lift.base, lift.assignment.degree
    heads = np.full((base.num_directed + 1, n), base.n * n)
    heads[:-1] = lift.edge_arrays[1].reshape(-1, n)
    index = heads[base_plan(base).out_table]
    return index, np.empty(index.shape), np.empty((base.n, n))


def _gather_matvec(qx: np.ndarray, gather) -> np.ndarray:
    """A q of the cover as a (base.n, n) array, for qx = q followed by 0.0,
    in gather's out buffer, which the next call overwrites.

    Its bits equal np.bincount(tail, weights=q[head], minlength=N): both add
    each vertex's terms one at a time in ascending base edge id (a sum over
    the leading axis is sequential, not pairwise), and padding adds +0.0.
    """
    index, gathered, out = gather  # mode "clip" lets take write unbuffered
    np.take(qx, index, out=gathered, mode="clip")
    return np.add.reduce(gathered, axis=0, out=out)


def lanczos_new_extremes(lift: Lift):
    """Lowest and highest new adjacency eigenvalues, matrix-free.

    Plain Lanczos (three-term recurrence, no reorthogonalisation) on
    x -> A x minus each fibre's mean, from a fixed start vector summing to
    zero on every fibre.  A x is _gather_matvec: each cover vertex sums the
    entries of x at its out-neighbours, read through _gather_index, built
    once per call.  Every vector lives in a buffer allocated once, so
    memory is O(N) and k steps cost O(kN).  Lost orthogonality does not
    spoil the extremes: by Paige (1980) it only adds copies of
    Ritz values that have already converged, and a Ritz value theta with
    residual bound beta * |s_k| <= tol lies within tol + O(k eps |A|) of an
    eigenvalue.

    A check takes the lowest and highest eigenvalues of the tridiagonal T
    from tridiagonal_lowest (of T and of -T), each started from the
    previous check's value minus 1.001 times its residual bound, and |s_k|
    of each from ritz_last_component.  Checks run after LANCZOS_CHECK_EVERY
    steps, then where _check_gap places the next one from the decay of the
    larger bound between the last two checks, and always when
    beta <= LANCZOS_TOL (an invariant subspace) and at LANCZOS_MAX_STEPS.
    Returns [theta_min, theta_max] (every Ritz value when there are fewer
    than two) only from a check whose residual bounds are both
    <= LANCZOS_TOL; a nan bound never passes.  So a step without a check
    can only delay a return, never change what is certified.  Returns None
    at an invariant subspace that fails the test or after LANCZOS_MAX_STEPS
    steps.
    """
    n = lift.assignment.degree
    size = lift.base.n * n
    if lift.base.n * (n - 1) == 0:
        return np.zeros(0)
    gather, scaled = _gather_index(lift), np.empty(size)  # alpha q, beta prev

    def sum_zero(fibres):
        # minus each fibre's mean, in place: the same bits as x.mean.  At
        # every 5th step only, q's fibre sums drifted to 2.4 by step 80 on
        # a K5 cover of 500 vertices, and 43 of 46 K5 covers got wrong
        # extremes (by up to 7.2) and 3 got None.
        fibres -= fibres.sum(axis=1, keepdims=True) / n
        return fibres.reshape(size)

    # q and prev, by the parity of the step, each followed by the 0.0 that
    # index pads with
    vecs = np.zeros((2, size + 1))
    q = vecs[0, :size]
    q[:] = sum_zero(np.random.default_rng(0).standard_normal((lift.base.n, n)))
    q /= np.linalg.norm(q)
    alpha, beta = [], []
    low_start = high_start = math.nan  # high_start is a start for -T
    check, last = LANCZOS_CHECK_EVERY, None
    for k in range(LANCZOS_MAX_STEPS):
        qx, prev = vecs[k % 2], vecs[1 - k % 2, :size]
        q = qx[:size]
        w = sum_zero(_gather_matvec(qx, gather))  # in gather's out buffer
        alpha.append(float(q @ w))
        w -= np.multiply(q, alpha[-1], out=scaled)
        if k:
            w -= np.multiply(prev, beta[-1], out=scaled)
        b = math.sqrt(w @ w)
        invariant = b <= LANCZOS_TOL
        if invariant or k + 1 == check or k + 1 == LANCZOS_MAX_STEPS:
            low = tridiagonal_lowest(alpha, beta, low_start)
            high = -tridiagonal_lowest([-a for a in alpha], beta, high_start)
            pick = [low, high] if k else [low]
            bounds = [b * ritz_last_component(alpha, beta, x) for x in pick]
            if all(r <= LANCZOS_TOL for r in bounds):
                return np.array(pick)
            if invariant:
                return None
            # every later T has an eigenvalue within bound of each value,
            # and by interlacing none has a higher lowest (or lower highest)
            low_start = low - 1.001 * bounds[0]
            high_start = -high - 1.001 * bounds[-1]
            worst = float(np.max(bounds))  # nan when either is
            check = k + 1 + _check_gap(last, k + 1, worst)
            last = k + 1, worst
        beta.append(b)
        np.divide(w, b, out=prev)  # the next step's q
    return None


def _check_gap(last, step, bound: float) -> int:
    """Steps from a failed convergence check to the next one.

    bound (> LANCZOS_TOL, or nan) is the larger residual bound at step, and
    last the (step, bound) of the previous check, if any.  When the bound
    fell, the next check goes LANCZOS_GAP_FACTOR of the way to where its
    log-linear decay since last reaches LANCZOS_TOL, at least
    LANCZOS_MIN_GAP and at most LANCZOS_MAX_GAP steps on; otherwise
    LANCZOS_CHECK_EVERY steps on.
    """
    if last is None or not bound < last[1]:
        return LANCZOS_CHECK_EVERY
    rate = math.log(last[1] / bound) / (step - last[0])
    gap = LANCZOS_GAP_FACTOR * math.log(bound / LANCZOS_TOL) / rate
    return math.ceil(min(max(gap, LANCZOS_MIN_GAP), LANCZOS_MAX_GAP))


@dataclass(frozen=True)
class NewExtremes:
    """New adjacency eigenvalues of a lift and the threshold they are
    counted against; every comparison of new eigenvalues is made here.

    values holds all of them (dense solve) or the lowest and highest
    (Lanczos, kept only when the count is zero), ascending; the summaries
    read its ends, with the bits of the formulas they name.  Both give the
    full spectrum's count, max |new| and lambda2, since no new eigenvalue
    exceeds the base's largest: cover and base share their spectral radius.
    The new eigenvalue d of a disconnected cover is exact and not read here.
    """

    values: np.ndarray
    threshold: float

    def count_above(self, margin: float = 0.0) -> int:
        """np.sum(np.abs(values) + margin > threshold), a run at each end."""
        vals, limit = self.values, self.threshold
        top, low = len(vals), 0
        while top and vals[top - 1] + margin > limit:  # so |v| + margin is too
            top -= 1
        while low < top and abs(vals[low]) + margin > limit:
            low += 1
        return len(vals) - top + low

    @property
    def max_abs(self) -> float | None:
        """np.abs(values).max()."""
        vals = self.values
        return float(max(abs(vals[0]), abs(vals[-1]))) if len(vals) else None

    def lambda2(self, base_spectrum) -> float | None:
        """Second-largest cover eigenvalue, np.sort(np.concatenate([base
        spectrum (ascending), values]))[-2], read from the two largest of
        each; a zero is read from that sort, which alone decides its sign."""
        top = sorted([*base_spectrum[-2:], *self.values[-2:]])
        if len(top) >= 2 and top[-2] == 0:
            top = np.sort(np.concatenate([base_spectrum, self.values]))
        return float(top[-2]) if len(top) >= 2 else None


def new_adjacency_extremes(lift: Lift, threshold: float) -> NewExtremes:
    """New adjacency eigenvalues, as many as counting past threshold needs.

    Covers below LANCZOS_MIN_VERTICES vertices take new_eigenvalues(lift).
    Larger ones take lanczos_new_extremes(lift), [theta_min, theta_max],
    unless some |theta| comes within LANCZOS_TOL of threshold (the count
    may be positive and needs multiplicities) or it returns None; then the
    dense solve runs instead, on covers of at most DENSE_MAX_VERTICES
    vertices.  Above that, SpectralError is raised.
    """
    size = lift.base.n * lift.assignment.degree
    if size >= LANCZOS_MIN_VERTICES:
        vals = lanczos_new_extremes(lift)
        if vals is not None:
            found = NewExtremes(vals, threshold)
            if not found.count_above(LANCZOS_TOL):
                return found
    if size > DENSE_MAX_VERTICES:
        raise SpectralError(
            f"Lanczos left a {size}-vertex cover undecided, and the dense "
            f"fallback is capped at {DENSE_MAX_VERTICES} vertices")
    return NewExtremes(new_eigenvalues(lift), threshold)


def alon_threshold(d: int, eps: float = 0.0) -> float:
    """2 sqrt(d-1) + eps, the bound new eigenvalues are tested against."""
    if d < 1:
        raise ValueError(f"no Alon bound 2 sqrt(d-1) for degree {d} < 1")
    return 2.0 * math.sqrt(d - 1) + eps


def non_alon_count(lift: Lift, eps: float) -> int:
    """New adjacency eigenvalues exceeding the regular-base bound, with multiplicity."""
    d = lift.base.regular_degree()
    if d is None:
        raise ValueError("non-Alon counting requires a regular base graph")
    return new_adjacency_extremes(lift, alon_threshold(d, eps)).count_above()


def is_ramanujan(g: Graph) -> bool:
    """d-regular with every adjacency eigenvalue within 1e-9 (absolute) of
    the extremal set {d, -d} or of the bulk [-2 sqrt(d-1), 2 sqrt(d-1)]."""
    d = g.regular_degree()
    if d is None:
        raise ValueError("Ramanujan test requires a regular graph")
    bulk = alon_threshold(d)
    tol = 1e-9
    return all(abs(lam - d) <= tol or abs(lam + d) <= tol
               or abs(lam) <= bulk + tol for lam in adjacency_spectrum(g))


@dataclass(frozen=True)
class IharaResult:
    status: str  # "checked", or "skipped-too-large" above DENSE_HASHIMOTO_CAP
    passed: bool | None
    max_err: float | None = None  # max over u of |1 - right/left|


def ihara_check(g: Graph, tol: float = 1e-6) -> IharaResult:
    """Check Bass's form of the Ihara identity, extended to half-loops,
    det(I - uH) = (1+u)^h (1 - u^2)^(#E - h - #V) det(I - uA + u^2 (D - I)),
    with h the number of half-loops and D the degree matrix, by slogdet at
    three complex u with seeded phases.  With d the largest degree,
    |u| = (d-1)^(-3/4) for d >= 3 lies between a d-regular Ramanujan
    graph's zeros 1/(d-1) and 1/sqrt(d-1); |u| = 1/2 for d <= 2, where a
    cycle's lie on |u| = 1.  Taken in log space, the powers need no
    special case for a forest's #E < #V.
    """
    if g.num_directed > DENSE_HASHIMOTO_CAP:
        return IharaResult("skipped-too-large", None)
    a, h = adjacency_matrix(g), hashimoto_matrix(g)
    deg = np.asarray(g.degrees(), dtype=np.int64)
    d = int(deg.max(initial=0))
    halves = sum(f == e for e, f in enumerate(g.inv))
    radius = (d - 1) ** -0.75 if d >= 3 else 0.5
    phases = np.random.default_rng(0).uniform(0, 2 * math.pi, 3)
    errs = []
    for u in radius * np.exp(1j * phases):
        left, right = -u * h, -u * a  # np.eye would add two m x m temporaries
        left.flat[::len(h) + 1] += 1
        right.flat[::g.n + 1] += 1 + (deg - 1) * u * u
        sign_l, log_l = np.linalg.slogdet(left)
        sign_r, log_r = np.linalg.slogdet(right)
        log_ratio = (log_r - log_l
                     + (g.num_edges - halves - g.n) * np.log(1 - u * u)
                     + halves * np.log(1 + u))
        errs.append(abs(1 - sign_r / sign_l * np.exp(log_ratio)))
    worst = float(np.max(errs))  # nan when any error is, and then fails
    return IharaResult("checked", bool(worst <= tol), worst)


def lambda2(g: Graph) -> float:
    """Second-largest adjacency eigenvalue."""
    vals = adjacency_spectrum(g)
    if len(vals) < 2:
        raise ValueError("lambda2 needs at least two vertices")
    return float(vals[-2])


def hashimoto_radius_from_adjacency(lam_abs: float, d: int) -> float:
    """Largest-modulus root of mu^2 - lam*mu + (d-1) for |lam| = lam_abs.

    Exact for d-regular graphs, half-loops included: there D - I = (d-1) I
    in the identity ihara_check tests, so every Hashimoto eigenvalue other
    than the +-1 of its power factors is a root of this quadratic for an
    adjacency eigenvalue lam.  Used as a fast proxy for the new Hashimoto
    radius.
    """
    q = d - 1
    if lam_abs * lam_abs <= 4 * q:
        return math.sqrt(q)
    return (lam_abs + math.sqrt(lam_abs * lam_abs - 4 * q)) / 2


def spectral_report(lift: Lift, eps: float, tol: float = MULTIPLICITY_TOL,
                    with_hashimoto: bool = False) -> dict:
    """Cover spectra as base plus new, and the non-Alon count of the new
    adjacency spectrum, as JSON; tol groups multiplicities."""
    d = lift.base.regular_degree()

    def old_and_new(base_vals, which):
        new = new_spectrum(lift, which, tol)
        every = np.concatenate([base_vals, new.values])
        return SpectrumMultiset(_sorted_tuple(every), tol), new

    cover_adj, new_adj = old_and_new(adjacency_spectrum(lift.base), "adjacency")
    hsp = new_h = None
    if with_hashimoto:
        hsp, new_h = old_and_new(hashimoto_spectrum(lift.base), "hashimoto")
    return {
        "adjacency": cover_adj.to_json(),
        "hashimoto": hsp.to_json() if with_hashimoto else None,
        "new_adjacency": new_adj.to_json(),
        "new_hashimoto": new_h.to_json() if with_hashimoto else None,
        "non_alon_count": None if not d else NewExtremes(
            np.array(new_adj.values), alon_threshold(d, eps)).count_above(),
        "epsilon": eps,
        "base_regular_degree": d,
        "ramanujan_base": None if not d else is_ramanujan(lift.base),
    }
