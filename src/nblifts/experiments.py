"""Batch Monte Carlo driver: sample lifts over a degree sweep, record
non-Alon counts, tangle hits and magnification failures, and fit how the
positive-rate decays with the cover degree.

run_trial draws a trial's lift; evaluate_lift computes the record on any
lift of the base, so lifts made another way get the same statistics.
EVENTS defines each counted event once, for every kind of row.

Reports are byte-deterministic for a fixed config and seed: trial RNG
streams derive from (seed, degree, trial index), aggregation is
order-independent, and no timestamps enter the output.  Wilson score
intervals summarize the rare-event frequencies, since normal intervals
mislead at the counts seen here.
"""

from dataclasses import asdict, dataclass, field
import csv
import math
import platform

import numpy as np

from . import __version__
from .graphs import ArgumentError, Graph, check_finite, check_integer, \
    check_keys, graph_from_json, graph_to_json, load_graph, \
    reduce_through_init, write_json
from .lifts import ModelError, ModelSpec, check_model, sample_lift
from .magnify import EXHAUSTIVE_VERTEX_CAP, MagnifierQuery, \
    is_pseudo_magnifier, lift_fibre_blocks
from .spectral import (
    SpectralError,
    adjacency_spectrum,
    alon_threshold,
    hashimoto_radius_from_adjacency,
    new_adjacency_extremes,
)
from .tangles import TangleQuery, check_scan_caps, scan_tangles


class ConfigError(ValueError):
    """Bad experiment configuration."""


# output is the CLI's output prefix; spectrum_tol is a legacy key, loaded
# and ignored
CONFIG_KEYS = ("base", "model", "degrees", "trials", "epsilon", "seed",
               "tangle", "magnifier", "output", "spectrum_tol")
TANGLE_KEYS = ("nu", "r", "strict", "max_vertices", "max_subgraphs")
MAGNIFIER_KEYS = ("R", "gamma", "mode", "trials")
WILSON_Z = 1.96  # normal quantile of the 95% Wilson intervals


def _integer(value, name: str) -> int:
    """value as an int; 8.0 loads, but a fraction, a boolean or a string is
    refused instead of being truncated or parsed."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    check_integer(value, name, ConfigError)
    return int(value)


def _real(value, name: str) -> float:
    """value as a float; a boolean, a string, nan, an infinity (json.load
    accepts NaN and Infinity) or an integer past float range is refused."""
    check_finite(value, name, ConfigError)
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep's settings; every rule is checked here, however it is made."""

    base: Graph
    model: ModelSpec
    degrees: tuple
    trials: int
    epsilon: float
    seed: int
    tangle: TangleQuery | None = None
    tangle_max_vertices: int = 6
    tangle_max_subgraphs: int = 4000
    magnifier: MagnifierQuery | None = None

    __reduce__ = reduce_through_init

    def __post_init__(self):
        try:
            degrees = iter(self.degrees)
        except TypeError:
            raise ConfigError("degrees must be a list of integers, got "
                              f"{self.degrees!r}") from None
        object.__setattr__(self, "degrees", tuple(
            _integer(n, "degrees") for n in degrees))
        object.__setattr__(self, "trials", _integer(self.trials, "trials"))
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        for cap in ("max_vertices", "max_subgraphs"):
            name = "tangle_" + cap
            object.__setattr__(self, name, _integer(getattr(self, name),
                                                    "tangle " + cap))
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.seed < 0:  # SeedSequence would fail every trial
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.degrees:
            raise ConfigError("at least one cover degree is required")
        if not self.base.regular_degree():  # None or 0: no threshold exists
            raise ConfigError("2*sqrt(d-1) + epsilon needs a d-regular base "
                              f"with d >= 1; got degrees "
                              f"{sorted(set(self.base.degrees()))}")
        if not self.base.is_connected():  # every cover would be disconnected
            raise ConfigError("the base must be connected; it has "
                              f"{len(self.base.components())} components")
        if len(set(self.degrees)) != len(self.degrees):
            raise ConfigError(
                f"cover degrees must be distinct, got {list(self.degrees)}")
        for n in self.degrees:
            try:
                check_model(self.base, self.model, n)
            except ModelError as exc:
                raise ConfigError(f"degree {n}: {exc}")
        if self.tangle is not None:
            try:
                check_scan_caps(self.tangle_max_vertices,
                                self.tangle_max_subgraphs)
            except ArgumentError as exc:
                raise ConfigError(f"tangle {exc}")
        if self.magnifier is not None:
            self._check_magnifier()

    def _check_magnifier(self):
        m = self.magnifier
        if not isinstance(m, MagnifierQuery):  # a block, as JSON gives it
            check_keys(m, MAGNIFIER_KEYS, "magnifier", ConfigError)
            if "gamma" not in m:
                raise ConfigError("magnifier: gamma is required")
            load = {"R": _integer, "gamma": _real, "trials": _integer}
            try:
                m = MagnifierQuery(**{key: load[key](value, key)
                                      if key in load else value
                                      for key, value in m.items()})
            except ValueError as exc:
                raise ConfigError(f"magnifier: {exc}")
            object.__setattr__(self, "magnifier", m)
        smallest = self.base.n * min(self.degrees)
        if m.R > smallest // 2:  # the window R <= |U| <= |V|/2 holds no set
            raise ConfigError(
                f"magnifier: R {m.R} is above |V|/2 = {smallest / 2:g} on "
                f"the covers of degree {min(self.degrees)}")
        largest = self.base.n * max(self.degrees)
        if m.mode == "exhaustive" and largest > EXHAUSTIVE_VERTEX_CAP:
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
                **asdict(self.tangle),
                "max_vertices": self.tangle_max_vertices,
                "max_subgraphs": self.tangle_max_subgraphs,
            }),
            "magnifier": (None if self.magnifier is None
                          else asdict(self.magnifier)),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        check_keys(data, CONFIG_KEYS, "config", ConfigError)
        try:
            base = data["base"]
            if isinstance(base, str):
                base = load_graph(base)
            else:
                base = graph_from_json(base)
            block = data.get("tangle")
            tangle = None
            if block is not None:
                check_keys(block, TANGLE_KEYS, "tangle", ConfigError)
                nu = _real(block["nu"], "tangle nu")
                r = _integer(block["r"], "tangle r")
                try:
                    tangle = TangleQuery(nu=nu, r=r, strict=block.get(
                        "strict", TangleQuery.strict))
                except ArgumentError as exc:  # "tangle r", as _integer says
                    raise ConfigError(f"tangle {exc}")
            caps = block or {}  # the absent caps keep the defaults
            return cls(
                base=base,
                model=ModelSpec.from_json(data.get("model", {})),
                degrees=data["degrees"],
                trials=data["trials"],
                epsilon=data["epsilon"],
                seed=data.get("seed", 0),
                tangle=tangle,
                tangle_max_vertices=caps.get("max_vertices",
                                             cls.tangle_max_vertices),
                tangle_max_subgraphs=caps.get("max_subgraphs",
                                              cls.tangle_max_subgraphs),
                magnifier=data.get("magnifier"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad experiment config: {exc}")


def trial_seed(seed: int, n: int, t: int) -> int:
    """Stable per-trial stream id derived from (seed, degree, index)."""
    return int(np.random.SeedSequence([seed, n, t]).generate_state(1)[0])


def wilson_interval(k: int, n: int):
    """Wilson score interval for k successes out of n."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    z2 = WILSON_Z * WILSON_Z
    denom = 1 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = WILSON_Z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def wilson_center(k: int, n: int) -> float:
    z2 = WILSON_Z * WILSON_Z
    return (k + z2 / 2) / (n + z2)


@dataclass
class TrialRecord:
    n: int
    index: int
    non_alon: int
    max_new_abs: float | None
    lambda2: float | None
    connected: bool
    has_tangles: bool | None
    tangle_caps_hit: bool | None
    magnifier_holds: bool | None


def run_trial(cfg: ExperimentConfig, n: int, t: int,
              base_spectrum=None) -> TrialRecord:
    seed = trial_seed(cfg.seed, n, t)
    return evaluate_lift(cfg, sample_lift(cfg.base, n, cfg.model, seed), t,
                         seed, base_spectrum)


def evaluate_lift(cfg: ExperimentConfig, lift, t: int, seed: int,
                  base_spectrum=None) -> TrialRecord:
    """Trial t on a supplied lift of cfg.base; seed feeds the magnifier."""
    if lift.base != cfg.base:
        raise ArgumentError("the lift is of another base than the config's")
    d = cfg.base.regular_degree()
    if base_spectrum is None:
        base_spectrum = adjacency_spectrum(cfg.base)
    new = new_adjacency_extremes(lift, alon_threshold(d, cfg.epsilon))
    has_t = caps = None
    if cfg.tangle is not None:
        rep = scan_tangles(lift.cover, cfg.tangle,
                           max_vertices=cfg.tangle_max_vertices,
                           max_subgraphs=cfg.tangle_max_subgraphs)
        has_t, caps = rep.has_tangles(), rep.caps_hit
    mag = None
    m = cfg.magnifier
    if m is not None:
        mag = is_pseudo_magnifier(
            lift.cover, m.R, m.gamma, mode=m.mode, trials=m.trials, seed=seed,
            fibre_blocks=lift_fibre_blocks(lift)).holds
    return TrialRecord(lift.assignment.degree, t, new.count_above(),
                       new.max_abs, new.lambda2(base_spectrum),
                       lift.is_connected(), has_t, caps, mag)


def _tangle_free(r):
    return r.has_tangles is False


# The events a row counts, in row order: (row key, predicate on a record)
EVENTS = (
    ("nonalon_positive_count", lambda r: r.non_alon > 0),
    ("hastangles_count", lambda r: r.has_tangles),
    ("nonalon_and_tanglefree_count",
     lambda r: r.non_alon > 0 and _tangle_free(r)),
    ("disconnected_count", lambda r: not r.connected),
    # d is a new eigenvalue of a disconnected cover of a connected base
    ("disconnected_with_eigenvalue_at_d", lambda r: not r.connected),
    ("tangle_caps_hit_count", lambda r: r.tangle_caps_hit),
    ("magnifier_fail_count", lambda r: r.magnifier_holds is False),
)


def count_events(records) -> dict:
    return {key: sum(1 for r in records if holds(r)) for key, holds in EVENTS}


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
        counts = count_events(recs)
        rows.append({
            "n": n,
            "trials": len(recs),
            "failed": failures_by_n.get(n, 0),
            **counts,
            "mean_lambda2": _mean([r.lambda2 for r in recs]),
            "mean_mu1_new": _mean([
                hashimoto_radius_from_adjacency(r.max_new_abs, d)
                for r in recs if r.max_new_abs is not None]),
            "wilson_nonalon": list(wilson_interval(
                counts["nonalon_positive_count"], len(recs))),
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
    stderr = math.sqrt(float((resid ** 2).sum()) / dof / sxx)
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
    # conditioned_rows of the records, serialised when set
    conditioned: list | None = field(default=None, init=False, repr=False)

    def to_json(self) -> dict:
        payload = {
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
        if self.conditioned is not None:
            payload["conditioned_rows"] = self.conditioned
        return payload

    def dump(self, json_path, csv_path=None):
        write_json(self.to_json(), json_path)
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


# Numerical failures a trial can legitimately raise.  ExperimentConfig checks
# the model at every degree, the scan caps and the magnifier arguments, so
# anything else, a ValueError included, is a bug and propagates.
TRIAL_ERRORS = (SpectralError, np.linalg.LinAlgError)


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
    # a sweep whose every trial failed observed nothing at all
    if any(records_by_n.values()) and all(
            row["nonalon_positive_count"] == 0 for row in rows):
        notes.append("below detection at desk scale: no non-Alon events observed")
    d = cfg.base.regular_degree()
    if alon_threshold(d, cfg.epsilon) >= d:
        notes.append(
            "threshold 2*sqrt(d-1) + epsilon is at least d: no adjacency "
            "eigenvalue of a d-regular cover can exceed it")
    return ExperimentReport(cfg, rows, fit, notes, errors, records_by_n)


def conditioned_rows(cfg: ExperimentConfig, records_by_n: dict) -> list:
    """Non-Alon positive frequency among tangle-free trials, per degree.

    Takes the records of an experiment with a tangle query; without one no
    trial was scanned, and every trial would count as tangle-free.  Trials
    whose scans hit the caps count as tangle-free but flag the row, since
    freeness is then unverified.
    """
    if cfg.tangle is None:
        raise ConfigError("conditioned rows need a tangle query")
    rows = []
    for n in cfg.degrees:
        free = [r for r in records_by_n[n] if _tangle_free(r)]
        counts = count_events(free)
        positive = counts["nonalon_positive_count"]
        rows.append({
            "n": n,
            "tanglefree_trials": len(free),
            "nonalon_positive_among_tanglefree": positive,
            "frequency": (positive / len(free)) if free else None,
            "caps_hit_trials": counts["tangle_caps_hit_count"],
            "empty": not free,
        })
    return rows
