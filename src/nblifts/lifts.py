"""Random permutation assignments on a base graph and the covers they define.

A degree-n cover of B has vertex set V_B x [n] and directed edges
E_B x [n], glued by one permutation per directed base edge subject to
sigma(inv(e)) = sigma(e)^-1.  Sampling models:

* permutation: every edge orbit gets a uniform permutation;
* cyclic: whole-loops get a uniform single n-cycle instead;
* half-loops always get a uniform perfect matching (n even) or a uniform
  involution with exactly one fixed point (n odd), per the model's parity.

Draws are edge-independent on the lowest-id orientation, with one RNG
stream per (seed, edge id), so sampling is reproducible and parallelizable.

A lift is its base and its PermutationAssignment, whose check makes every
row of sigma a permutation and partner rows inverse.  The cover's edge
arrays, the cover Graph and its projection are built from them on first
use, through Graph's and GraphMorphism's own checks.  Whether the cover is
connected is read from the holonomy of sigma without building the cover:
the cover of a connected base is connected exactly when the holonomy acts
transitively on one fibre (Amit and Linial 2002).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, GraphMorphism, check_keys, reduce_through_init

MODEL_KINDS = ("permutation", "cyclic")
HALF_LOOP_RULES = (None, "matching", "near_matching")
MODEL_KEYS = ("model", "half_loop", "parity")


class ModelError(ValueError):
    """Illegal (base graph, model, degree) combination."""


@dataclass(frozen=True)
class ModelSpec:
    """Which distribution each kind of base edge receives."""

    kind: str = "permutation"
    half_loop: str | None = None

    __reduce__ = reduce_through_init

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        if self.half_loop not in HALF_LOOP_RULES:
            raise ModelError(f"unknown half-loop rule {self.half_loop!r}")

    @property
    def parity(self) -> str:
        if self.half_loop == "matching":
            return "even"
        if self.half_loop == "near_matching":
            return "odd"
        return "any"

    def to_json(self) -> dict:
        return {"model": self.kind, "half_loop": self.half_loop,
                "parity": self.parity}

    @classmethod
    def from_json(cls, data: dict) -> "ModelSpec":
        check_keys(data, MODEL_KEYS, "model", ModelError)
        spec = cls(kind=data.get("model", cls.kind),
                   half_loop=data.get("half_loop"))
        declared = data.get("parity")
        if declared is not None and declared != spec.parity:
            raise ModelError(
                f"declared parity {declared!r} conflicts with half-loop rule "
                f"{spec.half_loop!r} (implies {spec.parity!r})")
        return spec


def validate_model(base: Graph, spec: ModelSpec, n: int) -> bool:
    """True iff (base, spec, n) is a legal combination."""
    try:
        _check_model(base, spec, n)
    except ModelError:
        return False
    return True


def _check_model(base: Graph, spec: ModelSpec, n: int):
    if n < 1:
        raise ModelError("cover degree must be at least 1")
    if base.has_half_loops() and spec.half_loop is None:
        raise ModelError("base has half-loops but no half-loop rule was given")
    if spec.parity == "even" and n % 2 != 0:
        raise ModelError(f"model requires even degree, got {n}")
    if spec.parity == "odd" and n % 2 != 1:
        raise ModelError(f"model requires odd degree, got {n}")


def _uniform_cycle(rng, n):
    """Uniform permutation whose cycle structure is a single n-cycle."""
    order = rng.permutation(n)
    sigma = np.empty(n, dtype=np.int64)
    sigma[order] = np.roll(order, -1)
    return sigma


def _uniform_involution(rng, n):
    """Uniform perfect matching (n even) or uniform involution with exactly
    one fixed point (n odd): consecutive entries of one permutation are
    paired, and the last is fixed when n is odd."""
    order = rng.permutation(n)
    sigma = np.empty(n, dtype=np.int64)
    if n % 2:
        sigma[order[-1]] = order[-1]
        order = order[:-1]
    sigma[order[0::2]] = order[1::2]
    sigma[order[1::2]] = order[0::2]
    return sigma


def _invert(sigma):
    inv = np.empty_like(sigma)
    inv[sigma] = np.arange(len(sigma))
    return inv


@dataclass(frozen=True)
class PermutationAssignment:
    """One permutation of [n] per directed base edge, inverse on partners."""

    base: Graph
    degree: int
    sigma: np.ndarray  # shape (num_directed, degree)

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=np.int64)
        if sig.shape != (self.base.num_directed, self.degree):
            raise ValueError("sigma has wrong shape")
        object.__setattr__(self, "sigma", sig)
        ident = np.arange(self.degree)
        not_perm = (np.sort(sig, axis=1) != ident).any(axis=1)
        # sigma[inv e][sigma[e][i]] == i; a row that is no permutation fails
        # the check above first, so clipping its entries changes no error
        inv = np.asarray(self.base.inv, dtype=np.int64)
        back = sig[inv[:, None], sig.clip(0, self.degree - 1)]
        bad = not_perm | (back != ident).any(axis=1)
        if bad.any():
            e = int(np.argmax(bad))  # the lowest bad edge
            if not_perm[e]:
                raise ValueError(f"sigma[{e}] is not a permutation")
            raise ValueError(
                f"sigma on edge {e} and its partner are not inverse")
        sig.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, PermutationAssignment):
            return NotImplemented
        return (self.base == other.base and self.degree == other.degree
                and np.array_equal(self.sigma, other.sigma))

    def __hash__(self):
        return hash((self.base, self.degree, self.sigma.tobytes()))

    __reduce__ = reduce_through_init  # a load makes sigma read-only again

    @classmethod
    def from_dict(cls, base: Graph, degree: int, by_rep: dict):
        """Build from permutations keyed by orbit representative ids."""
        sig = np.empty((base.num_directed, degree), dtype=np.int64)
        for rep in base.orientation():
            perm = np.asarray(by_rep[rep], dtype=np.int64)
            sig[rep] = perm
            if base.inv[rep] != rep:
                sig[base.inv[rep]] = _invert(perm)
        return cls(base, degree, sig)

    @classmethod
    def identity(cls, base: Graph, degree: int):
        sig = np.tile(np.arange(degree), (base.num_directed, 1))
        return cls(base, degree, sig)


def sample_assignment(base: Graph, n: int, spec: ModelSpec,
                      seed) -> PermutationAssignment:
    """Draw a permutation assignment for the given model, deterministically."""
    _check_model(base, spec, n)
    try:
        sig = np.empty((base.num_directed, n), dtype=np.int64)
    except ValueError as exc:  # n is past what numpy can index
        raise ModelError(str(exc))
    for rep in base.orientation():
        rng = np.random.default_rng([int(seed), rep])
        if base.inv[rep] == rep:
            # _check_model matched n's parity to the half-loop rule
            perm = _uniform_involution(rng, n)
        elif base.tail[rep] == base.head[rep] and spec.kind == "cyclic":
            perm = _uniform_cycle(rng, n)
        else:
            perm = rng.permutation(n)
        sig[rep] = perm
        if base.inv[rep] != rep:
            sig[base.inv[rep]] = _invert(perm)
    return PermutationAssignment(base, n, sig)


@dataclass(frozen=True)
class Lift:
    """A coordinatized cover of base: vertex (v, i) is v*n + i and directed
    edge (e, i) is e*n + i, with (e, i) running to (head e, sigma_e(i)).

    The cover, its projection and its edge arrays are built on first use
    and kept; cached_property writes the instance __dict__, which a frozen
    dataclass allows, and only base and assignment are compared.
    """

    base: Graph
    assignment: PermutationAssignment

    __reduce__ = reduce_through_init

    @cached_property
    def edge_arrays(self):
        """The cover's tail and head as read-only int64 arrays."""
        n = self.assignment.degree
        tail = (np.asarray(self.base.tail, dtype=np.int64)[:, None] * n
                + np.arange(n)).ravel()
        head = (np.asarray(self.base.head, dtype=np.int64)[:, None] * n
                + self.assignment.sigma).ravel()
        tail.flags.writeable = False
        head.flags.writeable = False
        return tail, head

    @cached_property
    def cover(self) -> Graph:
        n = self.assignment.degree
        tail, head = self.edge_arrays
        inv = (np.asarray(self.base.inv, dtype=np.int64)[:, None] * n
               + self.assignment.sigma).ravel()
        return Graph(self.base.n * n, tail.tolist(), head.tolist(),
                     inv.tolist())

    @cached_property
    def projection(self) -> GraphMorphism:
        n = self.assignment.degree
        return GraphMorphism(
            self.cover, self.base,
            tuple((np.arange(self.base.n * n) // n).tolist()),
            tuple((np.arange(self.base.num_directed * n) // n).tolist()))

    def is_connected(self) -> bool:
        """Whether the cover is connected, read from sigma's holonomy
        without building the cover."""
        if self.base.n == 0:
            return True
        if not self.base.is_connected():
            return False
        return orbit_count(holonomy_generators(self),
                           self.assignment.degree) == 1


def build_lift(base: Graph, assignment: PermutationAssignment) -> Lift:
    """The lift of base given by a checked assignment; its cover is built
    on first use."""
    if assignment.base != base:
        raise ValueError("assignment was built for a different base graph")
    return Lift(base, assignment)


def sample_lift(base: Graph, n: int, spec: ModelSpec, seed) -> Lift:
    return build_lift(base, sample_assignment(base, n, spec, seed))


def holonomy_generators(lift: Lift):
    """Permutations whose orbit count equals the cover's component count.

    Gauges the fibres along a spanning tree of the (connected) base so tree
    edges act trivially; the remaining orbit representatives then generate
    the holonomy action on [n].
    """
    base, sig, n = lift.base, lift.assignment.sigma, lift.assignment.degree
    if not base.is_connected():
        raise ValueError("holonomy generators need a connected base")
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
        gv = gauge[base.tail[rep]]
        gw_inv = _invert(gauge[base.head[rep]])
        gens.append(gw_inv[sig[rep][gv]])
    return gens


def orbit_count(generators, n: int) -> int:
    """Number of orbits of the group generated by the given permutations:
    union-find with path halving, counting down from n at each merge."""
    parent = list(range(n))
    count = n
    for g in generators:
        for a, b in enumerate(g.tolist()):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                count -= 1
    return count
