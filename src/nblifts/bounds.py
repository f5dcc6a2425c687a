"""Binomial-entropy estimates and containment probabilities for random
permutations, full cycles and (near-)perfect matchings.

Exact rational arithmetic backs every probability that small cases can
enumerate; the odd binomial coefficient gets a log-space float form for
large arguments.  The odd binomial used here is

    odd_binom(n, t) = [(n-1)(n-3)...(n-t+1)] / [(t-1)(t-3)...1]

with t/2 factors in each product (t even); its square is sandwiched between
(n-t)/n * C(n,t) and t * C(n,t), and a random involution pairs a fixed
t-subset internally with probability exactly 1/odd_binom(n, t).
"""

from dataclasses import dataclass
from fractions import Fraction
import math


def h2(x: float) -> float:
    """Binary entropy, continuously extended to 0 at the endpoints."""
    if x < 0 or x > 1:
        raise ValueError("entropy argument must lie in [0, 1]")
    if x == 0 or x == 1:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def h2_second_derivative(x: float) -> float:
    """-log2(e) / (x (1-x)) on the open unit interval."""
    if not (0 < x < 1):
        raise ValueError("second derivative defined on (0, 1) only")
    return -math.log2(math.e) / (x * (1 - x))


def log2_binom(a: int, b: int) -> float:
    if not (0 <= b <= a):
        raise ValueError("need 0 <= b <= a")
    return (math.lgamma(a + 1) - math.lgamma(b + 1)
            - math.lgamma(a - b + 1)) / math.log(2)


@dataclass(frozen=True)
class EntropyEstimate:
    """How far log2 C(a, b) sits from the entropy approximation a*H2(b/a)."""

    a: int
    b: int
    h2_value: float
    log_binom: float
    residual: float

    @classmethod
    def compute(cls, a: int, b: int) -> "EntropyEstimate":
        hv = h2(b / a)
        lb = log2_binom(a, b)
        return cls(a, b, hv, lb, abs(lb - a * hv))


def fit_entropy_constant(a_values) -> float:
    """Smallest K with residual <= K log2(a), b on a 33-point grid."""
    worst = 0.0
    for a in a_values:
        if a < 2:
            continue
        bs = sorted({round(a * i / 32) for i in range(33)} | {1, a - 1})
        for b in bs:
            est = EntropyEstimate.compute(a, b)
            worst = max(worst, est.residual / math.log2(a))
    return worst


def odd_binom_exact(n: int, t: int) -> Fraction:
    """(n-1)(n-3)...(n-t+1) over (t-1)(t-3)...1, exactly; t even."""
    if t % 2 != 0 or t < 0:
        raise ValueError("t must be a non-negative even integer")
    if t > n:
        raise ValueError("need t <= n")
    num = 1
    den = 1
    for i in range(1, t, 2):
        num *= n - i
        den *= i
    return Fraction(num, den)


def odd_binom(n: int, t: int) -> float:
    """Float form of odd_binom_exact, evaluated in log space."""
    if t % 2 != 0 or t < 0:
        raise ValueError("t must be a non-negative even integer")
    if t > n:
        raise ValueError("need t <= n")
    acc = 0.0
    for i in range(1, t, 2):
        acc += math.log(n - i) - math.log(i)
    return math.exp(acc)


def perm_containment_prob(n: int, w: int, w_prime: int) -> Fraction:
    """Probability a uniform permutation maps a w-set into a w'-superset."""
    if not (0 <= w <= w_prime <= n):
        raise ValueError("need 0 <= w <= w' <= n")
    return Fraction(math.comb(w_prime, w), math.comb(n, w))


def full_cycle_containment_bound(n: int, w: int, w_prime: int) -> Fraction:
    """Upper bound for the same event under a uniform single n-cycle.

    A given n-cycle is n times likelier than under the uniform permutation
    measure, so n times the permutation probability bounds it (capped at 1).
    """
    return min(Fraction(1), n * perm_containment_prob(n, w, w_prime))


def involution_containment_bound(n: int, w: int, w_prime: int) -> Fraction:
    """Upper bound on Prob[sigma(W) subset of W'] for a random matching.

    sigma is a uniform perfect matching (n even) or an involution with one
    fixed point (n odd), and W subset of W' with |W| = w, |W'| = w'.  At
    least s'' elements of W must be matched inside W, where s'' is the
    largest even integer at most 2w - w' - 1 (taken as 0 when negative,
    making the bound vacuous).
    """
    if not (0 <= w <= w_prime <= n):
        raise ValueError("need 0 <= w <= w' <= n")
    slack = 2 * w - w_prime - 1
    s2 = max(0, slack - (slack % 2))
    return Fraction(math.comb(w, s2)) / odd_binom_exact(n, s2)


def perfect_matchings(n: int):
    """All fixed-point-free involutions of range(n), as tuples."""
    if n % 2 != 0:
        raise ValueError("perfect matchings need n even")
    sigma = [0] * n

    def rec(remaining):
        if not remaining:
            yield tuple(sigma)
            return
        a = remaining[0]
        for idx in range(1, len(remaining)):
            b = remaining[idx]
            sigma[a], sigma[b] = b, a
            yield from rec(remaining[1:idx] + remaining[idx + 1:])

    yield from rec(list(range(n)))


def near_perfect_matchings(n: int):
    """All involutions of range(n) with exactly one fixed point (n odd)."""
    if n % 2 != 1:
        raise ValueError("near-perfect matchings need n odd")
    for fixed in range(n):
        rest = [i for i in range(n) if i != fixed]
        for sub in perfect_matchings(n - 1):
            sigma = [0] * n
            sigma[fixed] = fixed
            for pos, i in enumerate(rest):
                sigma[i] = rest[sub[pos]]
            yield tuple(sigma)


def matchings(n: int):
    return perfect_matchings(n) if n % 2 == 0 else near_perfect_matchings(n)


def entropy_gap(C: float, theta: float, x: float) -> float:
    """(1/C) H2(x) - H2(theta x), the function whose concavity drives the
    binomial estimate."""
    return h2(x) / C - h2(theta * x)


def binom_estimate_witness(C: float, j: int):
    """Constructive (theta, S0, n0) making C(n,s') <= n^-j C(n,s)^(1/C).

    theta is at most min(1/(2C), 1/4) and small enough that the entropy gap
    is positive at x = 3/4; S0 exceeds (j + 4)/(1/C - theta); n0 doubles,
    at most 24 times, until the inequality verifies on the (n, s, s') grid
    with n in {n0, 2 n0, 4 n0}.  The witness is constructive, not minimal.
    """
    if C <= 0 or j < 1:
        raise ValueError("need C > 0 and j >= 1")
    theta = min(1.0 / (2 * C), 0.25)
    while entropy_gap(C, theta, 0.75) <= 0:
        theta /= 2
        if theta < 1e-12:
            raise RuntimeError("could not find a positive entropy gap")
    j_pad = j + 4
    s0 = math.floor(j_pad / (1.0 / C - theta)) + 1
    n0 = max(4 * s0, 64)
    for _ in range(24):
        ok, _ = verify_binom_estimate(C, j, theta, s0, n0)
        if ok:
            return theta, s0, n0
        n0 *= 2
    raise RuntimeError("witness verification did not converge")


def verify_binom_estimate(C: float, j: int, theta: float, s0: int, n0: int):
    """Check the estimate on the grid; returns (ok, worst margin).

    margin = log2 lhs - log2 rhs, so every margin must be <= 0.  s' runs
    over {0, floor(theta*s/2), floor(theta*s)}; the top value dominates
    because C(n, .) increases up to n/2.
    """
    worst = -math.inf
    ok = True
    for n in (n0, 2 * n0, 4 * n0):
        s_hi = math.floor(n * (0.5 + theta))
        for s in range(s0, s_hi + 1):
            rhs = -j * math.log2(n) + log2_binom(n, s) / C
            sp_top = math.floor(theta * s)
            for sp in {0, sp_top // 2, sp_top}:
                margin = log2_binom(n, sp) - rhs
                worst = max(worst, margin)
                if margin > 0:
                    ok = False
    return ok, worst
