"""Command-line front end.

Subcommands: sample, spectrum, tangle-scan, magnify-check, verify-lemmas,
experiment.  Exit codes: 0 on success, 2 when a verification or internal
invariant fails, 3 on configuration errors (bad JSON, illegal model/degree
combinations, malformed graphs).
"""

import argparse
import math
import os
import sys
from fractions import Fraction
from itertools import permutations as iter_permutations

import numpy as np

from .bounds import (
    binom_estimate_witness,
    h2,
    h2_second_derivative,
    involution_containment_bound,
    matchings,
    odd_binom_exact,
    perm_containment_prob,
    verify_binom_estimate,
)
from .experiments import ConfigError, ExperimentConfig, conditioned_rows, \
    run_experiment
from .graphs import ArgumentError, GraphFormatError, load_graph, \
    read_json, save_graph, write_json
from .lifts import HALF_LOOP_RULES, MODEL_KINDS, ModelError, ModelSpec, \
    sample_lift
from .magnify import DEFAULT_MODE, DEFAULT_SEED, DEFAULT_TRIALS, \
    EXHAUSTIVE_VERTEX_CAP, MAGNIFIER_R, MODES, is_pseudo_magnifier, \
    resolve_mode
from .spectral import MULTIPLICITY_TOL, SpectralError, adjacency_spectrum, \
    ihara_check, is_ramanujan, mu1, spectral_report
from .tangles import SCAN_MAX_SUBGRAPHS, SCAN_MAX_VERTICES, TangleQuery, \
    scan_tangles


class VerificationFailure(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type for a real option: nan and the infinities, which float()
    accepts and the JSON writer would print as NaN or Infinity, are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a margin or tolerance: finite and above zero."""
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type for a seed: numpy's generators take no negative seed.
    A non-integer keeps int's message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _model_from_args(args) -> ModelSpec:
    return ModelSpec(kind=args.model, half_loop=args.half_loop)


# The options only one mode of a command reads, with their defaults, and the
# refusal its other mode gives; the parser's default for each is None.
MODE_OPTIONS = {
    "spectrum": ({"model": ModelSpec.kind, "half_loop": None, "n": 2,
                  "seed": 0, "epsilon": 0.1, "hashimoto": False},
                 "a lift-mode option; --graph takes only --tol and --out"),
    "magnify-check": ({"trials": DEFAULT_TRIALS, "seed": DEFAULT_SEED},
                      "a sampled-mode option; --mode exhaustive takes only "
                      "--R and --gamma"),
}


def _mode_options(args, reads: bool, why: str = ""):
    """Fill in mode options' defaults; refuse one the mode does not read,
    with why appended to the refusal."""
    defaults, refusal = MODE_OPTIONS[args.command]
    for dest, value in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
        elif not reads:
            raise ConfigError(f"--{dest.replace('_', '-')} is {refusal}{why}")


def cmd_sample(args) -> int:
    base = load_graph(args.base)
    lift = sample_lift(base, args.n, _model_from_args(args), args.seed)
    summary = {
        "base_vertices": base.n,
        "cover_vertices": lift.cover.n,
        "cover_edges": lift.cover.num_edges,
        "connected": lift.is_connected(),
    }
    if args.out:
        save_graph(lift.cover, args.out)
        summary["out"] = args.out
    write_json(summary)
    return 0


def cmd_spectrum(args) -> int:
    _mode_options(args, reads=args.base is not None)
    if args.base is not None:
        base = load_graph(args.base)
        lift = sample_lift(base, args.n, _model_from_args(args), args.seed)
        payload = spectral_report(lift, eps=args.epsilon, tol=args.tol,
                                  with_hashimoto=args.hashimoto)
    else:
        g = load_graph(args.graph)
        d = g.regular_degree()
        payload = {
            "vertices": g.n,
            "edges": g.num_edges,
            "regular_degree": d,
            "mu1": mu1(g) if g.n else None,
            "adjacency_spectrum": [float(v) for v in adjacency_spectrum(g)],
        }
        if d:
            payload["ramanujan"] = is_ramanujan(g)
        res = ihara_check(g, args.tol)
        payload["ihara"] = {"status": res.status, "passed": res.passed,
                            "max_err": res.max_err}
    write_json(payload, args.out)
    return 0


def cmd_tangle_scan(args) -> int:
    g = load_graph(args.graph)
    query = TangleQuery(nu=args.nu, r=args.r, strict=args.strict)
    report = scan_tangles(g, query, max_vertices=args.max_vertices,
                          max_subgraphs=args.max_subgraphs)
    write_json(report.to_json(), args.out)
    return 0


def cmd_magnify_check(args) -> int:
    g = load_graph(args.graph)
    why = (f" (--mode auto runs exhaustive on at most {EXHAUSTIVE_VERTEX_CAP} "
           "vertices)" if args.mode == "auto" else "")
    _mode_options(args, resolve_mode(g, args.mode) == "sampled", why)
    if args.R > g.n // 2:  # the window R <= |U| <= |V|/2 holds no set
        raise ConfigError(f"--R {args.R} is above |V|/2 = {g.n / 2:g}")
    result = is_pseudo_magnifier(g, args.R, args.gamma, mode=args.mode,
                                 trials=args.trials, seed=args.seed)
    payload = {
        "holds": result.holds,
        "mode": result.mode,
        "trials": result.trials,
        "best_gamma_seen": result.best_gamma,
        "witness": sorted(result.witness) if result.witness else None,
    }
    write_json(payload)
    return 0


def _lemma_rows(max_n: int):
    rows = []

    def add(name, ok, detail=""):
        rows.append((name, ok, detail))

    # uniform permutation containment vs exhaustive enumeration
    ok = True
    for n in range(1, min(7, max_n) + 1):
        perms = list(iter_permutations(range(n)))
        for w in range(n + 1):
            for wp in range(w, n + 1):
                target = set(range(wp))
                count = sum(1 for p in perms
                            if all(p[i] in target for i in range(w)))
                if perm_containment_prob(n, w, wp) != Fraction(count, len(perms)):
                    ok = False
    add("permutation containment = exhaustive frequency", ok,
        f"n <= {min(7, max_n)}")

    # involution containment bound dominates exhaustive frequency
    ok = True
    for n in range(2, min(12, max_n) + 1):
        sigmas = list(matchings(n))
        for w in range(1, n + 1):
            for wp in range(w, n + 1):
                target = set(range(wp))
                count = sum(1 for s in sigmas
                            if all(s[i] in target for i in range(w)))
                if Fraction(count, len(sigmas)) > involution_containment_bound(n, w, wp):
                    ok = False
    add("involution containment bound dominates", ok, f"n <= {min(12, max_n)}")

    # odd binomial sandwich
    ok = True
    for n in range(2, max_n + 1):
        for t in range(2, n + 1, 2):
            sq = odd_binom_exact(n, t) ** 2
            if not (Fraction(n - t, n) * math.comb(n, t) <= sq
                    <= t * math.comb(n, t)):
                ok = False
    add("odd binomial sandwich", ok, f"even t <= n <= {max_n}")

    # constructive binomial estimate witness
    try:
        theta, s0, n0 = binom_estimate_witness(2.0, 1)
        ok, worst = verify_binom_estimate(2.0, 1, theta, s0, n0)
        add("binomial estimate witness (C=2, j=1)", ok,
            f"theta={theta} S0={s0} n0={n0} margin={worst:.2f}")
    except RuntimeError as exc:
        add("binomial estimate witness (C=2, j=1)", False, str(exc))

    # entropy second derivative vs finite differences
    ok = True
    for x in np.linspace(0.05, 0.95, 46):
        x = float(x)
        h = 7.7e-4 * min(x, 1 - x)
        approx = (h2(x + h) - 2 * h2(x) + h2(x - h)) / (h * h)
        if abs(approx - h2_second_derivative(x)) > 1e-6 * abs(
                h2_second_derivative(x)):
            ok = False
    add("entropy second derivative matches finite differences", ok,
        "x in [0.05, 0.95]")
    return rows


def cmd_verify_lemmas(args) -> int:
    # the involution and binomial rows start at n = 2: below it they would
    # pass without checking a case
    if args.max_n < 2:
        raise ConfigError(f"--max-n must be at least 2, got {args.max_n}")
    rows = _lemma_rows(args.max_n)
    width = max(len(name) for name, _, _ in rows)
    failed = False
    for name, ok, detail in rows:
        mark = "PASS" if ok else "FAIL"
        print(f"[{mark}] {name:<{width}}  {detail}")
        failed = failed or not ok
    if failed:
        raise VerificationFailure("some lemma checks failed")
    return 0


def cmd_experiment(args) -> int:
    data = read_json(args.config, ConfigError)
    cfg = ExperimentConfig.from_json(data)
    if args.conditioned and cfg.tangle is None:
        raise ConfigError("--conditioned requires a tangle query in the config")
    out = args.out or data.get("output")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"output must be a path prefix, got {out!r}")
    # a missing directory would otherwise only show after the whole sweep
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"output directory {os.path.dirname(out)!r} "
                          f"does not exist")
    report = run_experiment(cfg)
    if args.conditioned:
        report.conditioned = conditioned_rows(cfg, report.records)
    if out:
        report.dump(out + ".json", out + ".csv")
        print(f"wrote {out}.json and {out}.csv")
    else:
        write_json(report.to_json())
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="nblifts",
                     description="Random covers, non-backtracking spectra, "
                                 "tangles and magnification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--model", choices=MODEL_KINDS, default=ModelSpec.kind)
        p.add_argument("--half-loop",
                       choices=[r for r in HALF_LOOP_RULES if r is not None])

    p = sub.add_parser("sample", help="sample a random cover")
    p.add_argument("--base", required=True)
    add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("spectrum", help="spectra of a graph or a sampled lift")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--graph", help="single-graph mode")
    mode.add_argument("--base", help="lift mode: base graph path")
    add_model_args(p)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--epsilon", type=_positive_float)
    p.add_argument("--tol", type=_positive_float, default=MULTIPLICITY_TOL)
    p.add_argument("--hashimoto", action="store_true",
                   help="lift mode: include the dense Hashimoto spectrum")
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("tangle-scan", help="bounded tangle search")
    p.add_argument("--graph", required=True)
    p.add_argument("--nu", type=_finite_float, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--max-vertices", type=int, default=SCAN_MAX_VERTICES)
    p.add_argument("--max-subgraphs", type=int, default=SCAN_MAX_SUBGRAPHS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tangle_scan)

    p = sub.add_parser("magnify-check", help="vertex-expansion check")
    p.add_argument("--graph", required=True)
    p.add_argument("--R", type=int, default=MAGNIFIER_R)
    p.add_argument("--gamma", type=_finite_float, required=True)
    p.add_argument("--mode", choices=MODES, default=DEFAULT_MODE)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_magnify_check)

    p = sub.add_parser("verify-lemmas", help="pass/fail table of counting bounds")
    p.add_argument("--max-n", type=int, default=60)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("experiment", help="batch sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output path prefix")
    p.add_argument("--conditioned", action="store_true",
                   help="add rows conditioned on tangle-freeness")
    p.set_defaults(func=cmd_experiment)
    for command, (defaults, _) in MODE_OPTIONS.items():
        sub.choices[command].set_defaults(**dict.fromkeys(defaults))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # input errors only; any other exception, a ValueError included, is a
    # bug and propagates
    try:
        return args.func(args)
    except (ConfigError, ModelError, GraphFormatError, ArgumentError,
            FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (VerificationFailure, SpectralError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
