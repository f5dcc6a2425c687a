"""The benchmark's workloads, their generated inputs and their output checks.

Every workload is a closed loop with one client in one process: the next
op starts when the previous one returns.  A repetition ("rep") is a fixed
batch of ops built from the seed alone, so all reps of a run do the same
work and produce the same output.  The library receives only the generated
configs and graphs.

Like spans.py, this module imports only the standard library at import
time; nblifts (and with it numpy) is imported inside the timed set-up.
"""

from dataclasses import dataclass, field
import hashlib
import importlib
import math
from pathlib import Path
import random
import time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import(module):
    """Import an nblifts module, refusing any copy outside this checkout."""
    mod = importlib.import_module(module)
    pkg = importlib.import_module("nblifts")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"nblifts was imported from {pkg.__file__}, "
                           f"not from {SRC}")
    return mod


def graph_json(n, pairs=(), half_loops=()):
    """Graph JSON in the library's format, orbit by orbit as from_pairs."""
    edges = []
    for u, v in pairs:
        e = len(edges)
        edges.append({"id": e, "tail": u, "head": v, "inv": e + 1})
        edges.append({"id": e + 1, "tail": v, "head": u, "inv": e})
    for v in half_loops:
        e = len(edges)
        edges.append({"id": e, "tail": v, "head": v, "inv": e})
    return {"vertices": n, "edges": edges}


def complete(k):
    return graph_json(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


@dataclass
class Rep:
    """What one repetition did: ops attempted and failed, its wall time, the
    digest of its output and the seconds each op took, by op key."""

    attempted: int
    failed: int
    wall_s: float
    digest: str
    op_s: dict


@dataclass
class Outcome:
    """Output checks made outside the timed region."""

    failed: int = 0
    notes: list = field(default_factory=list)


class ExperimentWorkload:
    """Sweeps of ``run_experiment``; one op is one trial.

    Op latency comes from wrapping ``experiments.run_trial`` from outside;
    a rep is one ``run_experiment`` call plus the report dump, which is
    what ``ops_per_s`` times.
    """

    kind = "experiment"

    def __init__(self, name, why, config, smoke_config, reference):
        self.name = name
        self.why = why
        self.reference = reference
        self._configs = {False: config, True: smoke_config}

    def config_json(self, seed, smoke):
        data = {"model": {"model": "permutation", "half_loop": None,
                          "parity": "any"},
                "tangle": None, "magnifier": None}
        data.update(self._configs[smoke])
        data["seed"] = seed
        return data

    def setup(self, seed, smoke):
        """Import, config validation, base spectrum and one warm-up op.

        Returns the seconds these took; everything here is paid once per
        process by a user of the library.
        """
        t0 = time.perf_counter()
        self.ex = _import("nblifts.experiments")
        self.cfg = self.ex.ExperimentConfig.from_json(
            self.config_json(seed, smoke))
        base_spectrum = self.ex.adjacency_spectrum(self.cfg.base)
        self.ex.run_trial(self.cfg, self.cfg.degrees[0], 0, base_spectrum)
        return time.perf_counter() - t0

    def prepare(self, out_dir):
        self.out_json = out_dir / f"{self.name}.report.json"
        self.out_csv = out_dir / f"{self.name}.report.csv"
        self.sample = {0, self.cfg.trials - 1}
        self.records = {}
        self.witnesses = []
        self.rows = None
        self.capture = True

    def start(self, patches, tracer=None):
        """Wrap run_trial (latency, sampled records) and scan_tangles
        (witnesses) around whatever the library binds now."""
        self._trial = self.ex.run_trial
        self._scan = self.ex.scan_tangles
        patches.set(self.ex, "run_trial", self._timed_trial)
        patches.set(self.ex, "scan_tangles", self._captured_scan)

    def _timed_trial(self, cfg, n, t, base_spectrum=None):
        t0 = time.perf_counter()
        rec = self._trial(cfg, n, t, base_spectrum)
        self._op_s[(n, t)] = time.perf_counter() - t0
        if self.capture and t in self.sample:
            self.records[(n, t)] = rec
        return rec

    def _captured_scan(self, g, query, *args, **kwargs):
        report = self._scan(g, query, *args, **kwargs)
        if self.capture and report.found:
            self.witnesses.extend((sub, query) for sub, *_ in report.found)
        return report

    def rep(self):
        self._op_s = {}
        t0 = time.perf_counter()
        report = self.ex.run_experiment(self.cfg)
        report.dump(self.out_json, self.out_csv)
        wall = time.perf_counter() - t0
        self.capture = False
        blob = self.out_json.read_bytes() + self.out_csv.read_bytes()
        self.report_bytes = len(blob)
        if self.rows is None:
            self.rows = report.rows
        failed = sum(row["failed"] for row in report.rows)
        attempted = len(self.cfg.degrees) * self.cfg.trials
        return Rep(attempted, failed, wall, hashlib.sha256(blob).hexdigest(),
                   self._op_s)

    def check(self):
        """Re-derive the sampled trials by the fibre decomposition and test
        every reported tangle witness."""
        out = Outcome()
        ex = self.ex
        tangles = _import("nblifts.tangles")
        graphs = _import("nblifts.graphs")
        base_vals = _dense_eigvalsh(self.cfg.base)
        for (n, t), rec in sorted(self.records.items()):
            lift = ex.sample_lift(self.cfg.base, n, self.cfg.model,
                                  ex.trial_seed(self.cfg.seed, n, t))
            problem = _check_trial(lift, rec, base_vals, self.cfg.epsilon,
                                   graphs.is_covering)
            if problem:
                out.failed += 1
                out.notes.append(f"n={n} trial={t}: {problem}")
        missing = {(n, t) for n in self.cfg.degrees for t in self.sample} \
            - set(self.records)
        for n, t in sorted(missing):
            out.notes.append(f"n={n} trial={t}: no record (trial raised)")
        for sub, query in self.witnesses:
            if not tangles.is_tangle(sub, query):
                out.failed += 1
                out.notes.append(f"reported witness {sub!r} is not a tangle")
        out.notes.append(f"re-derived {len(self.records)} sampled trials and "
                         f"{len(self.witnesses)} tangle witnesses")
        return out

    def describe(self):
        """Per-degree non-Alon positives of the first rep."""
        return {str(row["n"]): row["nonalon_positive_count"]
                for row in self.rows}


def _dense_eigvalsh(g):
    import numpy as np
    a = np.zeros((g.n, g.n))
    np.add.at(a, (list(g.tail), list(g.head)), 1.0)
    return np.linalg.eigvalsh(a)


def _check_trial(lift, rec, base_vals, eps, is_covering):
    """Compare a trial record with the benchmark's own solve.

    The functions whose sum over every fibre is zero form an invariant
    subspace of the cover's adjacency matrix A, and its spectrum is exactly
    the new spectrum.  With Q = I_V (x) basis(1^perp), the new eigenvalues
    are those of Q^T A Q.  Returns a description of the first mismatch, or
    None when the record agrees.
    """
    import numpy as np

    if not is_covering(lift.projection):
        return "projection is not a covering map"
    cover, base = lift.cover, lift.base
    n = lift.assignment.degree
    vmap = lift.projection.vertex_map
    fibres = [[x for x in range(cover.n) if vmap[x] == v]
              for v in range(base.n)]
    if any(len(f) != n for f in fibres):
        return "fibre sizes differ from the degree"
    perm = [x for f in fibres for x in f]
    a = np.zeros((cover.n, cover.n))
    np.add.at(a, (list(cover.tail), list(cover.head)), 1.0)
    a = a[np.ix_(perm, perm)].reshape(base.n, n, base.n, n)
    # Helmert basis of the sum-zero vectors in R^n, orthonormal columns
    b = np.zeros((n, n - 1))
    for k in range(1, n):
        b[:k, k - 1] = 1.0
        b[k, k - 1] = -k
        b[:, k - 1] /= math.sqrt(k * (k + 1))
    proj = np.einsum("ia,uivk,kb->uavb", b, a, b, optimize=True)
    m = base.n * (n - 1)
    new = np.linalg.eigvalsh(proj.reshape(m, m))
    d = base.regular_degree()
    tol = 1e-8 * (1 + abs(base_vals[-1]))
    if d is not None:
        bound = 2.0 * math.sqrt(d - 1) + eps
        lo = int(np.sum(np.abs(new) > bound + tol))
        hi = int(np.sum(np.abs(new) > bound - tol))
        if not lo <= rec.non_alon <= hi:
            return f"non-Alon count {rec.non_alon}, re-derived {lo}..{hi}"
    every = np.sort(np.concatenate([base_vals, new]))
    if len(every) >= 2 and abs(rec.lambda2 - every[-2]) > tol:
        return f"lambda2 {rec.lambda2}, re-derived {every[-2]}"
    if len(new) and abs(rec.max_new_abs - np.max(np.abs(new))) > tol:
        return f"max |new| {rec.max_new_abs}, re-derived {np.max(np.abs(new))}"
    return None


# (vertices, degree) of the census graphs, one of each per schedule pass.
# Every census graph is regular, so each row of its Hashimoto matrix sums
# to d - 1 and the DFS visits exactly m * sum_j (d-1)^j walks: the work of
# a rep does not depend on the seed, only the graphs' structure does.
CENSUS_SCHEDULE = ((2, 3), (3, 3), (4, 3), (1, 4), (2, 4), (3, 4), (2, 5))


def regular_multigraph(rng, nv, d, from_pairs):
    """A connected d-regular multigraph on nv vertices, drawn by pairing
    degree stubs at random.  Unpaired stubs become half-loops, a pair on
    one vertex a whole-loop, and repeated pairs parallel edges."""
    while True:
        stubs = [v for v in range(nv) for _ in range(d)]
        rng.shuffle(stubs)
        halves = min(len(stubs), (nv * d) % 2 + 2 * rng.randint(0, 1))
        rest = stubs[halves:]
        g = from_pairs(nv, list(zip(rest[0::2], rest[1::2])), stubs[:halves])
        if g.is_connected():
            return g


class CensusWorkload:
    """The SNBC trace identity over a seeded corpus; one op is one graph:
    ``count_snbc_dfs(g, kmax)`` checked against ``snbc_count(g, k)`` for
    every k <= kmax."""

    kind = "census"
    reference = "objects"

    def __init__(self, name, why, copies, kmax, smoke_copies, smoke_kmax):
        self.name = name
        self.why = why
        self._sizes = {False: (copies, kmax), True: (smoke_copies, smoke_kmax)}

    def setup(self, seed, smoke):
        """Import and one warm-up op; building the corpus is not set-up."""
        t0 = time.perf_counter()
        self.walks = _import("nblifts.walks")
        graphs = _import("nblifts.graphs")
        t1 = time.perf_counter()
        copies, self.kmax = self._sizes[smoke]
        rng = random.Random(seed)
        self.corpus = [regular_multigraph(rng, nv, d, graphs.from_pairs)
                       for _ in range(copies) for nv, d in CENSUS_SCHEDULE]
        t2 = time.perf_counter()
        self._op(self.corpus[0])
        return (t1 - t0) + (time.perf_counter() - t2)

    def _op(self, g):
        counts = self.walks.count_snbc_dfs(g, self.kmax)
        return all(self.walks.snbc_count(g, k) == counts[k - 1]
                   for k in range(1, self.kmax + 1))

    def prepare(self, out_dir):
        self.errors = []
        self.mismatched = set()

    def start(self, patches, tracer=None):
        self.op = self._op if tracer is None else tracer.wrap("census.op",
                                                              self._op)

    def rep(self):
        failed = 0
        digest = hashlib.sha256()
        op_s = {}
        t0 = time.perf_counter()
        for i, g in enumerate(self.corpus):
            s = time.perf_counter()
            try:
                ok = self.op(g)
                if not ok:
                    self.mismatched.add(i)
            except Exception as exc:  # a failed op is counted, not fatal
                ok = False
                if len(self.errors) < 20:
                    self.errors.append(f"graph {i}: {type(exc).__name__}: {exc}")
            op_s[i] = time.perf_counter() - s
            failed += not ok
            digest.update(b"1" if ok else b"0")
        wall = time.perf_counter() - t0
        return Rep(len(self.corpus), failed, wall, digest.hexdigest(), op_s)

    def check(self):
        out = Outcome()
        out.notes.extend(self.errors)
        for i in sorted(self.mismatched):
            out.notes.append(f"graph {i}: DFS count differs from tr(H^k)")
        return out

    def dfs_steps(self):
        """Non-backtracking walks of length <= kmax over one corpus pass,
        computed as sum_j 1^T H^j 1 for j < kmax."""
        import numpy as np
        total = 0
        for g in self.corpus:
            m = g.num_directed
            h = np.zeros((m, m))
            for e in range(m):
                for f in g.out_edges(g.head[e]):
                    if f != g.inv[e]:
                        h[e, f] = 1.0
            v = np.ones(m)
            for _ in range(self.kmax):
                total += int(round(v.sum()))
                v = h @ v
        return total

    def describe(self):
        def pairs(g):
            return [frozenset((g.tail[e], g.head[e])) for e in g.orientation()
                    if g.tail[e] != g.head[e]]

        def count(test):
            return sum(1 for g in self.corpus if test(g))
        return {
            "graphs": len(self.corpus),
            "kmax": self.kmax,
            "with_half_loops": count(lambda g: any(
                g.inv[e] == e for e in range(g.num_directed))),
            "with_whole_loops": count(lambda g: any(
                g.inv[e] != e and g.tail[e] == g.head[e]
                for e in range(g.num_directed))),
            "with_parallel_edges": count(
                lambda g: len(pairs(g)) != len(set(pairs(g)))),
        }


WORKLOADS = {w.name: w for w in (
    ExperimentWorkload(
        "readme_scan",
        "the README sweep users copy: K4, eps 0.2, tangle scan and sampled "
        "magnifier on; about 90% of a trial is scan_tangles building and "
        "pruning small graphs",
        {"base": complete(4), "degrees": [20, 40, 80], "trials": 4,
         "epsilon": 0.2,
         "tangle": {"nu": 1.8, "r": 3, "strict": False, "max_vertices": 6,
                    "max_subgraphs": 4000},
         "magnifier": {"R": 2, "gamma": 0.1, "mode": "sampled",
                       "trials": 100}},
        {"base": complete(4), "degrees": [8, 12], "trials": 2,
         "epsilon": 0.2,
         "tangle": {"nu": 1.8, "r": 3, "strict": False, "max_vertices": 6,
                    "max_subgraphs": 200},
         "magnifier": {"R": 2, "gamma": 0.1, "mode": "sampled",
                       "trials": 20}},
        reference="mixed"),
    ExperimentWorkload(
        "spectrum_large",
        "K5 covers of 500 to 2000 vertices with scan and magnifier off: the "
        "dense cover eigensolve dominates a trial and memory grows with N^2",
        {"base": complete(5), "degrees": [100, 200, 400], "trials": 2,
         "epsilon": 0.1},
        {"base": complete(5), "degrees": [10, 20, 40], "trials": 4,
         "epsilon": 0.1},
        reference="dense"),
    ExperimentWorkload(
        "nonalon_small",
        "bouquet(2) covers of 10 to 80 vertices that show non-Alon events; "
        "sub-millisecond trials are per-call overhead, the reverse of "
        "spectrum_large",
        {"base": graph_json(1, [(0, 0), (0, 0)]), "degrees": [10, 20, 40, 80],
         "trials": 250, "epsilon": 0.1},
        {"base": graph_json(1, [(0, 0), (0, 0)]), "degrees": [10, 20],
         "trials": 25, "epsilon": 0.1},
        reference="objects"),
    CensusWorkload(
        "walk_census",
        "SNBC trace identity on seeded regular multigraphs with half-loops, "
        "whole-loops and parallel edges: walks is in no experiment and is the "
        "slowest part of the tests",
        copies=15, kmax=8, smoke_copies=2, smoke_kmax=4),
)}
