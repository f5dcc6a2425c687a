"""Benchmark of nblifts: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports nblifts from the
checkout's ``src/`` and refuses any other copy.  The workloads are in
``workloads.py``.  A run:

1. caps BLAS threads at the number of usable cores, then times the set-up
   (import, config validation, base spectrum, one warm-up op) in this
   process and again in fresh processes, and reports the median, scaled
   to the reference host's speed (see ``timed_setup``);
2. runs repetitions of the workload back to back, untraced, for the given
   seconds (half of them with ``--trace 1``), at least MIN_REPS reps and
   at least MIN_OPS ops, and reports every time at the host's fastest (see
   ``fastest``), scaled to the reference host's speed (see
   ``REFERENCES``);
3. with ``--trace 1``, runs TRACE_REPS more repetitions with every layer
   wrapped by the span recorder in ``spans.py``;
4. checks the outputs outside the timed region and prints a summary, then
   one JSON object as the last line of standard output.

Reports, results and spans are written under ``perfbench/out/``.
"""

import argparse
from collections import deque
import functools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from spans import Patches, Tracer, layer_metrics
from workloads import ROOT, SRC, WORKLOADS

OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 7     # this process plus six fresh ones
SETUP_REF_S = 0.1     # seconds of reference timings after each set-up
MIN_OPS = 100
MIN_REPS = 5          # timings of each op to take the shortest of
TRACE_REPS = 1

END_TO_END_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def cap_blas_threads():
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def setup_in_fresh_processes(args, count):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(count):
        res = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=150, cwd=ROOT)
        samples.append(tuple(map(float, res.stdout.split()[-2:])))
    return samples


def environment(nproc):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def rate(reps):
    return (sum(r.attempted - r.failed for r in reps)
            / sum(r.wall_s for r in reps))


def fastest(reps):
    """Each op's shortest time over the reps, and the shortest time a rep
    spent outside its ops (the driver's loop, the report dump).

    Every rep repeats the same ops, so these are the times of one rep run
    at the host's fastest.  On a shared host the speed of the code
    drifts by up to 1.9x in phases of seconds to minutes; means and medians
    of a run follow the phases, the shortest of repeated timings of the
    same work much less so.
    """
    best = {}
    for r in reps:
        for op, s in r.op_s.items():
            best[op] = min(s, best.get(op, s))
    outside = min(r.wall_s - sum(r.op_s.values()) for r in reps)
    return best, outside


# Forty fixed multigraphs on 12 vertices with 18 edges each.
_rng = random.Random(0)
EDGE_LISTS = [[(_rng.randrange(12), _rng.randrange(12)) for _ in range(18)]
              for _ in range(40)]
OBJECTS_TOTAL = 2338  # what objects_kernel sums over EDGE_LISTS


def objects_kernel():
    """Python-object work like building and pruning small graphs: adjacency
    sets, a breadth-first search, sorted edge tuples, degree sequences."""
    total = 0
    for edges in EDGE_LISTS:
        adj = {}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        seen, queue = {edges[0][0]}, deque([edges[0][0]])
        while queue:
            for y in adj[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        canon = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        degrees = sorted(len(s) for s in adj.values())
        total += len(seen) + len(frozenset(canon)) + sum(degrees)
    if total != OBJECTS_TOTAL:
        raise RuntimeError(f"reference kernel gave {total}, "
                           f"not {OBJECTS_TOTAL}")


def small_numpy_kernel():
    """Many small numpy calls, like the per-trial overhead of small covers:
    five eigensolves each of the cycles on 10, 20 and 40 vertices."""
    import numpy as np
    for n in (10, 20, 40):
        a = np.zeros((n, n))
        np.add.at(a, (list(range(n)), list(range(1, n)) + [0]), 1.0)
        a = a + a.T
        for _ in range(5):
            top = np.sort(np.linalg.eigvalsh(a))[-1]
        if abs(top - 2.0) > 1e-9:
            raise RuntimeError(f"cycle C{n} has top eigenvalue {top}, not 2")


def mixed_kernel():
    """Graph building in Python objects, then small eigensolves."""
    objects_kernel()
    small_numpy_kernel()


@functools.cache
def _dense_matrix():
    import numpy as np
    a = np.random.default_rng(0).standard_normal((500, 500))
    return a + a.T


def dense_kernel():
    """LAPACK-bound work: the eigenvalues of a fixed dense symmetric 500x500
    matrix, on the run's BLAS threads."""
    import numpy as np
    a = _dense_matrix()
    if abs(np.linalg.eigvalsh(a).sum() - np.trace(a)) > 1e-6:
        raise RuntimeError("reference eigenvalues do not sum to the trace")


# Reference kernels: fixed work that no change to nblifts can alter.  The
# shortest time of a workload's kernel over a run, against its shortest
# time on the reference host (a 2-vCPU Intel Xeon virtual machine, Python
# 3.11, numpy 2.4 with OpenBLAS 0.3.31 on 2 threads), is the host's speed
# during that run.  The host's slow phases slow different code by
# different factors (1.4x to 1.9x in one recording), so each workload uses
# the kernel whose time moved most like its own ops' times.  Each entry:
# kernel, that time in seconds, timings before each rep.
REFERENCES = {
    "objects": (objects_kernel, 0.68e-3, 4),
    "mixed": (mixed_kernel, 1.16e-3, 4),
    "dense": (dense_kernel, 11.3e-3, 1),
}


def time_reference(kind, samples):
    kernel, _, count = REFERENCES[kind]
    for _ in range(count):
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)


def timed_setup(workload, args):
    """One set-up: its seconds, and the mean time of the workload's
    reference kernel over the next SETUP_REF_S seconds.

    A set-up runs once, through the host's fast and slow moments alike, so
    it is scaled by the kernel's mean time, not by its shortest.
    """
    seconds = workload.setup(args.seed, args.smoke)
    ref = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < SETUP_REF_S:
        time_reference(workload.reference, ref)
    return seconds, statistics.fmean(ref)


def run(args):
    workload = WORKLOADS[args.workload]
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(*map(repr, timed_setup(workload, args)))
        return

    setup = [timed_setup(workload, args)]
    OUT.mkdir(exist_ok=True)
    workload.prepare(OUT)
    budget = args.seconds / 2 if args.trace else args.seconds
    reps, traced, ref = [], [], []
    tracer = Tracer()
    patches = Patches()
    try:
        workload.start(patches)
        t0 = time.perf_counter()
        while (not reps or time.perf_counter() - t0 < budget
               or (not args.trace and (len(reps) < MIN_REPS or sum(
                   r.attempted for r in reps) < MIN_OPS))):
            time_reference(workload.reference, ref)
            reps.append(workload.rep())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if args.trace:
            patches.undo()
            tracer.install(patches)
            workload.start(patches, tracer)
            trace_t0 = time.perf_counter()
            traced = [workload.rep() for _ in range(TRACE_REPS)]
    finally:
        patches.undo()

    everything = reps + traced
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    # every rep of a run repeats the same inputs, so the outputs must agree
    failed += sum(r.attempted for r in everything if r.digest != reps[0].digest)
    outcome = workload.check()
    failed = min(attempted, failed + outcome.failed)
    setup += setup_in_fresh_processes(args, SETUP_SAMPLES - 1)

    if args.trace:
        untraced_rate = statistics.median(rate([r]) for r in reps)
        extra = {"overhead_ratio": rate(traced) / untraced_rate}
        if workload.kind == "experiment":
            extra["report_bytes"] = workload.report_bytes
        else:
            extra["dfs_steps"] = workload.dfs_steps() * len(traced)
        metrics = layer_metrics(tracer, tracer.ops, extra)
        tracer.write(OUT / f"{workload.name}.spans.jsonl", trace_t0)
        samples = scaling = None
    else:
        best, outside = fastest(reps)
        completed = statistics.median(r.attempted - r.failed for r in reps)
        lat = [x * 1e3 for x in best.values()]
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        raw = {"ops_per_s": completed / (sum(best.values()) + outside),
               "op_p50_ms": deciles[4], "op_p90_ms": deciles[8],
               "setup_s": statistics.median(s for s, _ in setup)}
        ref_s = REFERENCES[workload.reference][1]
        speed = ref_s / min(ref)
        values = {"ops_per_s": raw["ops_per_s"] / speed,
                  "op_p50_ms": raw["op_p50_ms"] * speed,
                  "op_p90_ms": raw["op_p90_ms"] * speed,
                  "setup_s": statistics.median(s * ref_s / r
                                               for s, r in setup),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        samples = len(lat)
        scaling = {"reference": workload.reference, "host_speed": speed,
                   "reference_min_s": min(ref),
                   "reference_median_s": statistics.median(ref),
                   "unscaled": raw}

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    details = {"workload": workload.name, "why": workload.why,
               "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "smoke": args.smoke,
               "reps": len(reps), "traced_reps": len(traced),
               "rep_ops_per_s": [rate([r]) for r in reps],
               "latency_samples": samples,
               "setup_samples_s": [s for s, _ in setup],
               "setup_reference_mean_s": [r for _, r in setup],
               "scaling": scaling,
               "fail_ratio": failed / attempted,
               "environment": environment(nproc),
               "inputs": workload.describe(), "checks": outcome.notes,
               **result}
    (OUT / f"{workload.name}.trace{args.trace}.result.json").write_text(
        json.dumps(details, indent=2) + "\n")

    print(f"workload {workload.name}, seed {args.seed}: {attempted} ops in "
          f"{len(reps)} reps untraced and {len(traced)} traced")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if samples is not None:
        print(f"  latency percentiles over the {samples} distinct ops of a "
              f"rep, each at its shortest of {len(reps)} timings")
        print(f"  host speed {speed:.4g} of the reference host by the "
              f"{workload.reference} kernel, unscaled: " + ", ".join(
                  f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"  fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted})")
    print(f"  inputs: {json.dumps(details['inputs'])}")
    for note in outcome.notes:
        print(f"  check: {note}")
    print(f"  environment: {json.dumps(details['environment'])}")
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print its seconds "
                             "and the mean reference kernel time after it "
                             "(the fresh-process set-up samples)")
    run(parser.parse_args(argv))


if __name__ == "__main__":
    main()
