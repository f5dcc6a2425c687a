"""Batch Monte Carlo driver: sample lifts over a degree sweep, record
non-Alon counts, tangle hits and magnification failures, and fit how the
positive-rate decays with the cover degree.

Reports are byte-deterministic for a fixed config and seed: trial RNG
streams derive from (seed, degree, trial index), aggregation is
order-independent, and no timestamps enter the output.  Wilson score
intervals summarize the rare-event frequencies, since normal intervals
mislead at the counts seen here.
"""

from dataclasses import dataclass, field
import csv
import json
import math
import platform
import sys

import numpy as np

from . import __version__
from .graphs import Graph, graph_from_json, graph_to_json, load_graph
from .lifts import ModelSpec, sample_lift, validate_model
from .magnify import (
    EXHAUSTIVE_VERTEX_CAP,
    check_magnifier_args,
    is_pseudo_magnifier,
    lift_fibre_blocks,
)
from .spectral import (
    SpectralError,
    adjacency_spectrum,
    alon_threshold,
    count_non_alon,
    hashimoto_radius_from_adjacency,
    new_adjacency_extremes,
)
from .tangles import TangleQuery, check_scan_caps, scan_tangles


class ConfigError(ValueError):
    """Bad experiment configuration."""


MAGNIFIER_KEYS = ("R", "gamma", "mode", "trials")


def _magnifier_args(m: dict):
    """(R, gamma, mode, trials) of a magnifier block, defaults filled in."""
    return (int(m.get("R", 1)), float(m["gamma"]), m.get("mode", "auto"),
            int(m.get("trials", 100)))


@dataclass(frozen=True)
class ExperimentConfig:
    base: Graph
    model: ModelSpec
    degrees: tuple
    trials: int
    epsilon: float
    seed: int
    tangle: TangleQuery | None = None
    tangle_max_vertices: int = 6
    tangle_max_subgraphs: int = 4000
    magnifier: dict | None = None  # {"R", "gamma", "mode", "trials"}

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if not self.degrees:
            raise ConfigError("at least one cover degree is required")
        for n in self.degrees:
            if not validate_model(self.base, self.model, n):
                raise ConfigError(
                    f"degree {n} violates the model's parity or half-loop rules")
        if self.tangle is not None:
            try:
                check_scan_caps(self.tangle_max_vertices,
                                self.tangle_max_subgraphs)
            except ValueError as exc:
                raise ConfigError(f"tangle: {exc}")
        if self.magnifier is not None:
            self._check_magnifier()

    def _check_magnifier(self):
        m = self.magnifier
        if not isinstance(m, dict):
            raise ConfigError("magnifier must be an object")
        unknown = sorted(set(m) - set(MAGNIFIER_KEYS))
        if unknown:
            raise ConfigError(f"magnifier: unknown keys {unknown}; "
                              f"expected {list(MAGNIFIER_KEYS)}")
        if "gamma" not in m:
            raise ConfigError("magnifier: gamma is required")
        try:
            R, gamma, mode, trials = _magnifier_args(m)
            check_magnifier_args(R, gamma, mode)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"magnifier: {exc}")
        if trials < 1:
            raise ConfigError("magnifier: trials must be at least 1")
        largest = self.base.n * max(self.degrees)
        if mode == "exhaustive" and largest > EXHAUSTIVE_VERTEX_CAP:
            raise ConfigError(
                f"magnifier: exhaustive mode is capped at "
                f"{EXHAUSTIVE_VERTEX_CAP} vertices; covers reach {largest}")

    def to_json(self) -> dict:
        return {
            "base": graph_to_json(self.base),
            "model": self.model.to_json(),
            "degrees": list(self.degrees),
            "trials": self.trials,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "tangle": (None if self.tangle is None else {
                "nu": self.tangle.nu, "r": self.tangle.r,
                "strict": self.tangle.strict,
                "max_vertices": self.tangle_max_vertices,
                "max_subgraphs": self.tangle_max_subgraphs,
            }),
            "magnifier": self.magnifier,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        try:
            base = data["base"]
            if isinstance(base, str):
                base = load_graph(base)
            else:
                base = graph_from_json(base)
            model = ModelSpec.from_json(data.get("model", {}))
            tangle_cfg = data.get("tangle")
            tangle = None
            max_v, max_s = 6, 4000
            if tangle_cfg is not None:
                tangle = TangleQuery(nu=float(tangle_cfg["nu"]),
                                     r=int(tangle_cfg["r"]),
                                     strict=bool(tangle_cfg.get("strict", False)))
                max_v = int(tangle_cfg.get("max_vertices", 6))
                max_s = int(tangle_cfg.get("max_subgraphs", 4000))
            return cls(
                base=base,
                model=model,
                degrees=tuple(int(n) for n in data["degrees"]),
                trials=int(data["trials"]),
                epsilon=float(data["epsilon"]),
                seed=int(data.get("seed", 0)),
                tangle=tangle,
                tangle_max_vertices=max_v,
                tangle_max_subgraphs=max_s,
                magnifier=data.get("magnifier"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad experiment config: {exc}")


def trial_seed(seed: int, n: int, t: int) -> int:
    """Stable per-trial stream id derived from (seed, degree, index)."""
    return int(np.random.SeedSequence([seed, n, t]).generate_state(1)[0])


def wilson_interval(k: int, n: int, z: float = 1.96):
    """Wilson score interval for k successes out of n."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    z2 = z * z
    denom = 1 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def wilson_center(k: int, n: int, z: float = 1.96) -> float:
    z2 = z * z
    return (k + z2 / 2) / (n + z2)


@dataclass
class TrialRecord:
    n: int
    index: int
    non_alon: int
    max_new_abs: float | None
    lambda2: float | None
    connected: bool
    new_eig_near_d: bool | None
    has_tangles: bool | None
    tangle_caps_hit: bool | None
    magnifier_holds: bool | None


def run_trial(cfg: ExperimentConfig, n: int, t: int,
              base_spectrum=None) -> TrialRecord:
    seed = trial_seed(cfg.seed, n, t)
    lift = sample_lift(cfg.base, n, cfg.model, seed)
    cover = lift.cover
    d = cfg.base.regular_degree()
    if base_spectrum is None:
        base_spectrum = adjacency_spectrum(cfg.base)
    threshold = math.inf if d is None else alon_threshold(d, cfg.epsilon)
    new_vals = new_adjacency_extremes(lift, threshold)
    max_new = float(np.abs(new_vals).max()) if len(new_vals) else None
    non_alon = 0 if d is None else count_non_alon(new_vals, d, cfg.epsilon)
    every = np.sort(np.concatenate([base_spectrum, new_vals]))
    lam2 = float(every[-2]) if len(every) >= 2 else None
    connected = cover.is_connected()
    near_d = None
    if not connected and d is not None and len(new_vals):
        near_d = any(abs(abs(v) - d) <= 1e-6 for v in new_vals)
    has_t = caps = None
    if cfg.tangle is not None:
        rep = scan_tangles(cover, cfg.tangle,
                           max_vertices=cfg.tangle_max_vertices,
                           max_subgraphs=cfg.tangle_max_subgraphs)
        has_t, caps = rep.has_tangles(), rep.caps_hit
    mag = None
    if cfg.magnifier is not None:
        R, gamma, mode, trials = _magnifier_args(cfg.magnifier)
        mag = is_pseudo_magnifier(
            cover, R, gamma, mode=mode, trials=trials, seed=seed,
            fibre_blocks=lift_fibre_blocks(lift)).holds
    return TrialRecord(n, t, non_alon, max_new, lam2, connected, near_d,
                       has_t, caps, mag)


def _mean(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    return sum(values) / len(values)


def summarize_rows(cfg: ExperimentConfig, records_by_n: dict,
                   failures_by_n: dict) -> list:
    d = cfg.base.regular_degree()
    rows = []
    for n in cfg.degrees:
        recs = records_by_n[n]
        trials = len(recs)
        nonalon_pos = sum(1 for r in recs if r.non_alon > 0)
        has_t = sum(1 for r in recs if r.has_tangles)
        joint = sum(1 for r in recs
                    if r.non_alon > 0 and r.has_tangles is False)
        mu1_new = None
        if d is not None:
            mu1_new = _mean([
                hashimoto_radius_from_adjacency(r.max_new_abs, d)
                for r in recs if r.max_new_abs is not None])
        lo, hi = wilson_interval(nonalon_pos, trials) if trials else (0.0, 1.0)
        rows.append({
            "n": n,
            "trials": trials,
            "failed": failures_by_n.get(n, 0),
            "nonalon_positive_count": nonalon_pos,
            "hastangles_count": has_t,
            "nonalon_and_tanglefree_count": joint,
            "mean_lambda2": _mean([r.lambda2 for r in recs]),
            "mean_mu1_new": mu1_new,
            "disconnected_count": sum(1 for r in recs if not r.connected),
            "disconnected_with_eigenvalue_at_d": sum(
                1 for r in recs if r.new_eig_near_d),
            "tangle_caps_hit_count": sum(1 for r in recs if r.tangle_caps_hit),
            "magnifier_fail_count": sum(
                1 for r in recs if r.magnifier_holds is False),
            "wilson_nonalon": [lo, hi],
        })
    return rows


def fit_scaling(rows):
    """Least-squares slope of log(Wilson-adjusted rate) against log n.

    Returns {"status": "ok", "slope", "intercept", "stderr"} or an
    indeterminate marker when fewer than three degrees saw positives.
    """
    pts = [(row["n"], row["nonalon_positive_count"], row["trials"])
           for row in rows if row["nonalon_positive_count"] > 0]
    if len(pts) < 3:
        return {"status": "indeterminate",
                "reason": f"only {len(pts)} degrees with positive counts"}
    xs = np.array([math.log(n) for n, _, _ in pts])
    ys = np.array([math.log(wilson_center(k, t)) for _, k, t in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    dof = len(pts) - 2
    sxx = float(((xs - xs.mean()) ** 2).sum())
    stderr = math.sqrt(float((resid ** 2).sum()) / dof / sxx) if dof else 0.0
    return {"status": "ok", "slope": float(slope),
            "intercept": float(intercept), "stderr": stderr}


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list
    slope_fit: dict
    notes: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    # TrialRecords of the trials that completed, by degree; not serialised
    records: dict = field(default_factory=dict, repr=False)

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "rows": self.rows,
            "slope_fit": self.slope_fit,
            "notes": self.notes,
            "errors": self.errors,
            "environment": {
                "package": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }

    def dump(self, json_path, csv_path=None):
        text = json.dumps(self.to_json(), indent=2, sort_keys=True)
        with open(json_path, "w") as fh:
            fh.write(text)
            fh.write("\n")
        if csv_path:
            write_rows_csv(self.rows, csv_path)


CSV_COLUMNS = ("n", "trials", "failed", "nonalon_positive_count",
               "hastangles_count", "nonalon_and_tanglefree_count",
               "mean_lambda2", "mean_mu1_new", "disconnected_count",
               "tangle_caps_hit_count", "magnifier_fail_count")


def write_rows_csv(rows, csv_path):
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in CSV_COLUMNS])


# Numerical and model failures a trial can legitimately raise (ModelError is
# a ValueError); anything else is a bug and propagates.
TRIAL_ERRORS = (SpectralError, np.linalg.LinAlgError, ValueError)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    base_spectrum = adjacency_spectrum(cfg.base)
    records_by_n = {}
    failures_by_n = {}
    errors = []
    for n in cfg.degrees:
        recs = []
        for t in range(cfg.trials):
            try:
                recs.append(run_trial(cfg, n, t, base_spectrum))
            except TRIAL_ERRORS as exc:  # counted, not fatal; bugs propagate
                failures_by_n[n] = failures_by_n.get(n, 0) + 1
                if len(errors) < 20:
                    errors.append(
                        f"n={n} trial={t}: {type(exc).__name__}: {exc}")
        records_by_n[n] = recs
    rows = summarize_rows(cfg, records_by_n, failures_by_n)
    fit = fit_scaling(rows)
    notes = []
    if all(row["nonalon_positive_count"] == 0 for row in rows):
        notes.append("below detection at desk scale: no non-Alon events observed")
    d = cfg.base.regular_degree()
    if d is not None and alon_threshold(d, cfg.epsilon) >= d:
        notes.append(
            "threshold 2*sqrt(d-1) + epsilon is at least d: no adjacency "
            "eigenvalue of a d-regular cover can exceed it")
    return ExperimentReport(cfg, rows, fit, notes, errors, records_by_n)


def conditioned_rows(cfg: ExperimentConfig, records_by_n: dict) -> list:
    """Non-Alon positive frequency among tangle-free trials, per degree.

    Takes the records of an experiment with a tangle query.  Trials whose
    scans hit the caps count as tangle-free but flag the row, since freeness
    is then unverified.
    """
    rows = []
    for n in cfg.degrees:
        free = [r for r in records_by_n[n] if not r.has_tangles]
        positive_free = sum(1 for r in free if r.non_alon > 0)
        rows.append({
            "n": n,
            "tanglefree_trials": len(free),
            "nonalon_positive_among_tanglefree": positive_free,
            "frequency": (positive_free / len(free)) if free else None,
            "caps_hit_trials": sum(1 for r in free if r.tangle_caps_hit),
            "empty": not free,
        })
    return rows


def conditioned_nonalon(cfg: ExperimentConfig) -> list:
    """conditioned_rows of a fresh run of cfg."""
    if cfg.tangle is None:
        raise ConfigError("conditioned run needs a tangle query")
    return conditioned_rows(cfg, run_experiment(cfg).records)
