"""Declarative experiment runner: sweeps, result tables, and artifacts.

An experiment config (strict JSON) names an initial measure, a target (a
benchmark field or a target measure), the synthesis settings and the
integrator settings. The synthesis section takes n_avg, m_width and n_osc,
each a value or a sweep list, plus fit_tolerance, region_margin and seed;
the fit itself has no tuning keys. Every sweep point's knobs are checked at
the parse, so a sweep whose schedule would exceed the piece cap is a config
error. Running it produces ``results.csv`` with
one row per sweep coordinate, a JSON manifest, and per-row
schedule/trajectory artifacts under ``rows/<key>/``. Rows run one after
another in sweep-point order, in the caller's process, on the one set of
inputs and the one reference the sweep builds. Rows that share (n_avg,
m_width) differ only in n_osc: they form a group that shares one
superposition fit, which the group's first computed row makes and counts in
its ``wall_s``. Rows are isolated: a failing coordinate is recorded as a failed row and never aborts
the sweep. Reruns with ``resume`` reuse a completed row only when it was
computed under the same config (every key but ``out_dir`` and the three sweep
lists) and its artifacts are present; every other row is recomputed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import asdict, dataclass
from functools import cache, partial
from itertools import groupby, product
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .fields import benchmark_field
from .flow import IntegratorConfig, MeasureTrajectory, integrate_flow, support_growth_check
from .measures import RNG_ALGORITHM, MeasureSpec, ParticleEnsemble, _number, _numbers, sample_measure
from .synthesis import (
    DISPLACEMENT_HORIZON,
    SynthesisParams,
    WindowFits,
    displacement_target_field,
    fit_windows,
    schedule_windows,
)
from .transport import sup_w2, w2_exact


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


def _object(value, where: str, allowed: set, required: set = frozenset()) -> Mapping:
    """``value``, checked to be an object whose keys are among ``allowed`` and include ``required``."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be an object")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(value)
    if missing:
        raise ConfigError(f"missing required key(s) {sorted(missing)} in {where}")
    return value


def _spec_entry(raw: Mapping, key: str, name: str) -> dict:
    """The config's ``key`` object normalized to {name: ..., "params": a deep copy of its params}."""
    entry = _object(raw[key], key, {name, "params"}, {name})
    return {name: entry[name], "params": copy.deepcopy(dict(entry.get("params", {})))}


def _count(value, name: str, minimum: int) -> int:
    count = _number(value, name, integer=True)
    if count < minimum:
        bound = f"an integer >= {minimum}" if minimum else "a nonnegative integer"
        raise ConfigError(f"{name} must be {bound}")
    return count


def _int_list(value, name: str) -> list:
    values = value if isinstance(value, (list, tuple)) else [value]
    if not values:
        raise ConfigError(f"{name} must be an integer or nonempty list of integers")
    out = {_number(v, f"{name} entries", integer=True) for v in values}
    if min(out) < 1:
        raise ConfigError(f"{name} entries must be integers >= 1")
    return sorted(out)


class ExperimentConfig:
    """A parsed experiment config, held as its normalized dict.

    :meth:`from_dict` checks every key and fills in every default it leaves
    out; :meth:`to_dict` returns a copy of that dict, which the manifest
    records and ``resume`` fingerprints. It also keeps the specs the parse
    built, by config key: the initial measure, a sampled target measure and
    a trajectory config's benchmark field.
    """

    def __init__(self, normalized: dict, specs: dict):
        self._config = normalized
        self._specs = specs

    @staticmethod
    def from_dict(raw: Mapping) -> "ExperimentConfig":
        top_allowed = {"kind", "seed", "n_particles", "initial_measure", "synthesis", "integrator", "field"}
        top_allowed |= {"target_measure", "smoothing", "out_dir", "schedule"}
        _object(raw, "config", top_allowed, {"kind", "initial_measure", "n_particles", "synthesis", "seed"})
        kind = raw["kind"]
        if kind not in ("trajectory", "endpoint"):
            raise ConfigError(f"kind must be 'trajectory' or 'endpoint', got {kind!r}")
        target, other = ("field", "target_measure") if kind == "trajectory" else ("target_measure", "field")
        if target not in raw:
            raise ConfigError(f"{kind} config needs a '{target}' entry")
        if other in raw:
            raise ConfigError(f"{kind} config takes no '{other}' entry")
        syn_allowed = {"n_avg", "m_width", "n_osc", "fit_tolerance", "region_margin", "seed"}
        syn = _object(raw["synthesis"], "synthesis", syn_allowed)
        integ_allowed = {"method", "base_step", "snap_count", "snap_times"}
        integ = _object(raw.get("integrator", {}), "integrator", integ_allowed)
        if "snap_count" in integ and "snap_times" in integ:
            raise ConfigError("give snap_count or snap_times, not both")

        defaults = SynthesisParams()
        try:
            # each spec checks its params as it is built
            initial = _spec_entry(raw, "initial_measure", "kind")
            specs = {"initial_measure": MeasureSpec(**initial)}
            dim = specs["initial_measure"].dim
            config = {
                "kind": kind,
                "seed": _count(raw["seed"], "seed", 0),
                "n_particles": _count(raw["n_particles"], "n_particles", 1),
                "initial_measure": initial,
                "synthesis": {
                    "n_avg": _int_list(syn.get("n_avg", defaults.n_avg), "synthesis.n_avg"),
                    "m_width": _int_list(syn.get("m_width", defaults.m_width), "synthesis.m_width"),
                    "n_osc": _int_list(syn.get("n_osc", defaults.n_osc), "synthesis.n_osc"),
                    "fit_tolerance": _number(
                        syn.get("fit_tolerance", defaults.fit_tolerance), "synthesis.fit_tolerance"
                    ),
                    "region_margin": _number(
                        syn.get("region_margin", defaults.region_margin), "synthesis.region_margin"
                    ),
                },
                "integrator": {
                    "method": integ.get("method", IntegratorConfig.method),
                    "base_step": _number(integ.get("base_step", 0.01), "integrator.base_step"),
                },
            }
            if "seed" in syn:
                config["synthesis"]["seed"] = _count(syn["seed"], "synthesis.seed", 0)
            if "snap_times" in integ:
                config["integrator"]["snap_times"] = [
                    _number(t, "integrator.snap_times entries") for t in integ["snap_times"]
                ]
            else:
                config["integrator"]["snap_count"] = _count(integ.get("snap_count", 11), "integrator.snap_count", 2)
            # a trajectory config reads no smoothing, but one it gives must still be valid
            smoothing = _number(raw.get("smoothing", 0.5), "smoothing")
            if smoothing <= 0:
                raise ConfigError("smoothing must be positive")
            if "field" in raw:
                config["field"] = _spec_entry(raw, "field", "name")
                specs["field"] = benchmark_field(**config["field"])
            if "target_measure" in raw:
                config["target_measure"] = entry = _spec_entry(raw, "target_measure", "kind")
                params = entry["params"]
                if entry["kind"] != "translate-of-initial":
                    specs["target_measure"] = MeasureSpec(**entry)
                elif set(params) != {"offset"} or _numbers(params["offset"], "offset").shape != (dim,):
                    raise ConfigError(f"translate-of-initial takes one param, an offset of {dim} numbers")
                config["smoothing"] = smoothing
            if target in specs and specs[target].dim != dim:
                raise ConfigError(f"initial_measure is {dim}-dimensional, {target} is {specs[target].dim}")
            for key in ("out_dir", "schedule"):
                if key in raw:
                    if not isinstance(raw[key], str):
                        raise ConfigError(f"{key} must be a path string")
                    config[key] = raw[key]

            # Checks the synthesis knobs (the piece cap included), the
            # integrator and the snap times against the field's horizon now,
            # so a bad value fails the parse instead of every row or the
            # sweep after its output directory exists.
            cfg = ExperimentConfig(config, specs)
            for coords in cfg.sweep_points():
                cfg.synthesis_params(coords)
            horizon = specs["field"].horizon if kind == "trajectory" else DISPLACEMENT_HORIZON
            end = cfg.integrator(horizon).snap_times[-1]
            if end > horizon + 1e-12:
                raise ConfigError(f"snap_times end at {end}, past the field's horizon {horizon}")
            return cfg
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(raw)

    def to_dict(self) -> dict:
        return copy.deepcopy(self._config)

    @property
    def kind(self) -> str:
        return self._config["kind"]

    @property
    def out_dir(self) -> Optional[str]:
        return self._config.get("out_dir")

    @property
    def schedule_path(self) -> Optional[str]:
        return self._config.get("schedule")

    # -- derived pieces ----------------------------------------------------

    def measure_seeds(self) -> tuple:
        s = np.random.SeedSequence(self._config["seed"]).generate_state(2)
        return int(s[0]), int(s[1])

    def _sample(self, key: str, which: int) -> ParticleEnsemble:
        return sample_measure(self._specs[key], self._config["n_particles"], self.measure_seeds()[which])

    def build_mu0(self) -> ParticleEnsemble:
        return self._sample("initial_measure", 0)

    def build_inputs(self) -> tuple:
        """(mu0, muf, field): the initial ensemble, the target ensemble, the target field.

        muf is None for trajectory configs, whose field is the named benchmark
        the parse built. For endpoint configs the field is the displacement
        interpolation from mu0 to muf; a translate-of-initial target shifts
        this same mu0.
        """
        mu0 = self.build_mu0()
        if self.kind == "trajectory":
            return mu0, None, self._specs["field"]
        target = self._config["target_measure"]
        if target["kind"] == "translate-of-initial":
            muf = mu0.translate(np.asarray(target["params"]["offset"], dtype=float))
        else:
            muf = self._sample("target_measure", 1)
        return mu0, muf, displacement_target_field(mu0, muf, self._config["smoothing"])

    def integrator(self, horizon: float) -> IntegratorConfig:
        integ = self._config["integrator"]
        snaps = (
            np.asarray(integ["snap_times"], dtype=float)
            if "snap_times" in integ
            else np.linspace(0.0, horizon, integ["snap_count"])
        )
        return IntegratorConfig(method=integ["method"], base_step=integ["base_step"], snap_times=snaps)

    def sweep_points(self) -> list:
        syn = self._config["synthesis"]
        return sorted(product(syn["n_avg"], syn["m_width"], syn["n_osc"]))

    def synthesis_params(self, coords) -> SynthesisParams:
        n_avg, m, n_osc = coords
        syn = self._config["synthesis"]
        return SynthesisParams(
            n_avg=n_avg,
            m_width=m,
            n_osc=n_osc,
            fit_tolerance=syn["fit_tolerance"],
            region_margin=syn["region_margin"],
            seed=syn.get("seed", self._config["seed"]),
        )


# -- result rows ---------------------------------------------------------------


def row_key(coords) -> str:
    n_avg, m, n_osc = coords
    return f"navg{n_avg}_m{m}_nosc{n_osc}"


# results.csv columns in order: (ResultRow field, CSV format, type read back)
_COLUMNS = (
    ("n_avg", "%d", int),
    ("m", "%d", int),
    ("n_osc", "%d", int),
    ("sup_w2", "%.12g", float),
    ("final_w2", "%.12g", float),
    ("max_fit_err", "%.12g", float),
    ("pieces", "%d", int),
    ("wall_s", "%.3f", float),
    ("status", "%s", str),
)
RESULTS_HEADER = ",".join(name for name, _, _ in _COLUMNS)


@dataclass(frozen=True)
class ResultRow:
    """One sweep coordinate's outcome: the results.csv columns plus an error."""

    n_avg: int
    m: int
    n_osc: int
    sup_w2: float
    final_w2: float
    max_fit_err: float
    pieces: int
    wall_s: float
    status: str
    error: Optional[str] = None

    @property
    def coords(self):
        return (self.n_avg, self.m, self.n_osc)

    @property
    def key(self) -> str:
        return row_key(self.coords)

    def to_csv_line(self) -> str:
        return ",".join(fmt % getattr(self, name) for name, fmt, _ in _COLUMNS)

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.error is None:
            del d["error"]
        return d

    @staticmethod
    def from_dict(d: Mapping) -> "ResultRow":
        return ResultRow(**{name: kind(d[name]) for name, _, kind in _COLUMNS}, error=d.get("error"))


@dataclass(frozen=True)
class ResultTable:
    config: ExperimentConfig
    rows: tuple
    out_dir: Path

    @property
    def all_failed(self) -> bool:
        return all(r.status == "failed" for r in self.rows)

    @property
    def any_failed(self) -> bool:
        return any(r.status == "failed" for r in self.rows)


# -- file plumbing ---------------------------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _prepare_shared(cfg: ExperimentConfig, out_dir: Path, inputs: tuple) -> MeasureTrajectory:
    """Integrate the reference from the built inputs and write both; returns the reference."""
    mu0, muf, vf = inputs
    reference = integrate_flow(vf, mu0, cfg.integrator(vf.horizon))
    _atomic_write(out_dir / "mu0.csv", mu0.to_csv())
    if muf is not None:
        _atomic_write(out_dir / "muf.csv", muf.to_csv())
    reference.save(out_dir / "reference")
    return reference


def compute_row(
    cfg: ExperimentConfig,
    coords,
    inputs: tuple,
    reference: MeasureTrajectory,
    fit: Callable[[], WindowFits],
) -> tuple:
    """Synthesize at one sweep coordinate and measure the schedule's flow.

    ``inputs`` is :meth:`ExperimentConfig.build_inputs`'s (mu0, muf, field)
    and ``reference`` the field's flow from mu0 on the config's snapshot grid.
    ``fit`` returns the fit stage's result for the row's (n_avg, m_width)
    (a sweep group's shared fit). Returns (synthesis result, report,
    synthesized trajectory, sup_w2, final_w2), where the report is the
    synthesis report's JSON dict plus the synthesized flow's
    ``support_growth`` check. ``final_w2`` is measured against muf for
    endpoint configs and against the reference's final snapshot for
    trajectory configs.
    """
    mu0, muf, vf = inputs
    params = cfg.synthesis_params(coords)
    fits = fit()
    result = schedule_windows(fits, params)
    synthesized = integrate_flow(result.schedule, mu0, cfg.integrator(vf.horizon))
    report = result.report.to_json_dict()
    # the synthesized flow's containment in Omega = B_{R+r}(0), where the fit holds
    report["support_growth"] = support_growth_check(
        synthesized, fits.support_radius, fits.region_R, fits.bound_C + fits.delta
    ).to_dict()
    sup_err = sup_w2(synthesized, reference)
    final_err = w2_exact(synthesized.final, reference.final if muf is None else muf).distance
    return result, report, synthesized, sup_err, final_err


def _config_fingerprint(cfg: ExperimentConfig) -> str:
    """sha256 of the config without ``out_dir`` and the three sweep lists.

    Two configs with one fingerprint compute the same row at the same
    coordinates, so ``resume`` may reuse a row only under its own fingerprint.
    """
    d = cfg.to_dict()
    d.pop("out_dir", None)
    for key in ("n_avg", "m_width", "n_osc"):
        del d["synthesis"][key]
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


# artifacts a completed row must still have for ``resume`` to reuse it
_ROW_ARTIFACTS = ("schedule.json", "report.json", "trajectory/trajectory.json")


def _execute_row(
    cfg: ExperimentConfig,
    out_dir: Path,
    coords,
    inputs: tuple,
    reference: MeasureTrajectory,
    fit: Callable[[], WindowFits],
    fingerprint: str,
) -> ResultRow:
    """Compute one sweep row into a fresh ``rows/<key>/``; never raises.

    ``inputs`` and ``reference`` are the sweep's own, shared by every row,
    and ``fit`` is the row's group's; the row writes only its own directory.
    The directory is cleared first, so a rerun leaves none of an earlier
    run's artifacts next to this row's.
    ``row.json`` records the config's ``fingerprint`` for ``resume``.
    """
    row_dir = out_dir / "rows" / row_key(coords)
    if row_dir.exists():
        shutil.rmtree(row_dir)
    row_dir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        result, report, synthesized, sup_err, final_err = compute_row(cfg, coords, inputs, reference, fit)

        _atomic_write(row_dir / "schedule.json", result.schedule.to_json() + "\n")
        _write_json(row_dir / "report.json", report)
        traj_dir = row_dir / "trajectory"
        traj_dir.mkdir(exist_ok=True)
        synthesized.save(traj_dir)
        outcome = dict(
            sup_w2=sup_err,
            final_w2=final_err,
            max_fit_err=result.report.max_fit_error,
            pieces=result.report.piece_count,
            status="ok" if result.report.tolerance_met else "tolerance-miss",
        )
    except Exception as exc:  # per-row isolation: a bad row must not kill the sweep
        outcome = dict(
            sup_w2=math.nan,
            final_w2=math.nan,
            max_fit_err=math.nan,
            pieces=0,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
        )
    row = ResultRow(*coords, wall_s=time.perf_counter() - start, **outcome)
    _write_json(row_dir / "row.json", {**row.to_dict(), "config_sha256": fingerprint})
    return row


def _load_completed_row(out_dir: Path, coords, fingerprint: str) -> Optional[ResultRow]:
    """The row at coords if it completed under this fingerprint with its artifacts."""
    row_dir = out_dir / "rows" / row_key(coords)
    path = row_dir / "row.json"
    if not path.exists():
        return None
    try:
        saved = json.loads(path.read_text())
        row = ResultRow.from_dict(saved)
    except (ValueError, KeyError, TypeError):
        return None
    if saved.get("config_sha256") != fingerprint or row.coords != coords or row.status == "failed":
        return None
    return row if all((row_dir / name).is_file() for name in _ROW_ARTIFACTS) else None


def _write_results_csv(out_dir: Path, rows: Sequence[ResultRow]) -> None:
    lines = [RESULTS_HEADER] + [r.to_csv_line() for r in sorted(rows, key=lambda r: r.coords)]
    _atomic_write(out_dir / "results.csv", "\n".join(lines) + "\n")


def _files_under(out_dir: Path, sub: str) -> list:
    return sorted(str(p.relative_to(out_dir)) for p in (out_dir / sub).rglob("*") if p.is_file())


def _write_manifest(cfg: ExperimentConfig, out_dir: Path, rows: Sequence[ResultRow]) -> None:
    inputs = ["mu0.csv"] + (["muf.csv"] if cfg.kind == "endpoint" else [])
    manifest = {
        "config": cfg.to_dict(),
        "rng": RNG_ALGORITHM,
        "results_csv": "results.csv",
        "inputs": inputs,
        "reference": _files_under(out_dir, "reference"),
        "rows": {
            r.key: {"status": r.status, "files": _files_under(out_dir, f"rows/{r.key}")}
            for r in sorted(rows, key=lambda r: r.coords)
        },
    }
    _write_json(out_dir / "manifest.json", manifest)


def _run_experiment(cfg: ExperimentConfig, kind: str, out_dir, parallel: int, resume: bool) -> ResultTable:
    """Run every row of a ``kind`` config on the sweep's shared inputs and reference.

    Rows run one after another in sweep-point order. The sorted sweep
    points split into (n_avg, m_width) groups; a group shares one fit, made
    by its first computed row and counted in that row's ``wall_s``. A fit
    that raises is not kept, so each row of its group fails the same way,
    and a group whose rows all resume never fits. With ``resume``, a row
    computed under the same config (see :func:`_config_fingerprint`) whose
    artifacts remain is kept as is. A config of another kind, ``parallel``
    other than 1, or inputs that fail to build fail before anything is
    written.
    """
    if cfg.kind != kind:
        raise ConfigError(f"{kind} sweep got a {cfg.kind!r} config")
    if parallel != 1:
        raise ConfigError(f"parallel must be 1, got {parallel}")
    inputs = cfg.build_inputs()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "rows").mkdir(exist_ok=True)
    reference = _prepare_shared(cfg, out_dir, inputs)

    fingerprint = _config_fingerprint(cfg)
    mu0, _, vf = inputs
    rows = []
    for _, group in groupby(cfg.sweep_points(), key=lambda coords: coords[:2]):
        points = list(group)
        fit = cache(partial(fit_windows, vf, mu0, cfg.synthesis_params(points[0])))
        for coords in points:
            prior = _load_completed_row(out_dir, coords, fingerprint) if resume else None
            rows.append(prior or _execute_row(cfg, out_dir, coords, inputs, reference, fit, fingerprint))
    rows = tuple(rows)
    _write_results_csv(out_dir, rows)
    _write_manifest(cfg, out_dir, rows)
    return ResultTable(config=cfg, rows=rows, out_dir=out_dir)


def run_trajectory_experiment(cfg: ExperimentConfig, out_dir, parallel: int = 1, resume: bool = False) -> ResultTable:
    """Sweep synthesis knobs against a benchmark field and tabulate errors.

    For each sweep coordinate: synthesize a schedule, integrate it from the
    shared initial ensemble on the shared snapshot grid, and record the sup-W2
    distance to the reference trajectory plus the final-time W2. ``parallel``
    accepts only 1; any other value is a :class:`ConfigError`.
    """
    return _run_experiment(cfg, "trajectory", out_dir, parallel, resume)


def run_endpoint_experiment(cfg: ExperimentConfig, out_dir, parallel: int = 1, resume: bool = False) -> ResultTable:
    """Steer the initial measure toward a target measure and tabulate errors.

    Builds the displacement-interpolation field between the sampled ensembles,
    then sweeps like the trajectory experiment. ``final_w2`` is measured
    against the target ensemble rather than the reference trajectory.
    """
    return _run_experiment(cfg, "endpoint", out_dir, parallel, resume)


# -- plot data -------------------------------------------------------------------

_AXIS_PRIORITY = ("n_osc", "m", "n_avg")
_AXIS_METRIC = {"n_osc": "sup_w2", "m": "max_fit_err", "n_avg": "sup_w2"}


def emit_plot_data(table: ResultTable, out_dir=None) -> list:
    """Write one CSV series per combination of non-primary sweep coordinates.

    The primary axis is the first of (n_osc, m, n_avg) that takes more than
    one value (n_osc when none does). Series pair the axis with sup_w2, except
    an m axis, which pairs with the fit error it controls. Failed rows are
    left out. Returns the written paths, one file per series, lines sorted by
    the axis value.
    """
    rows = [r for r in table.rows if r.status != "failed"]
    if not rows:
        raise ValueError("no completed rows to plot")
    out_dir = Path(out_dir) if out_dir is not None else table.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    axis = next(
        (a for a in _AXIS_PRIORITY if len({getattr(r, a) for r in rows}) > 1),
        "n_osc",
    )
    metric = _AXIS_METRIC[axis]
    others = [a for a in _AXIS_PRIORITY if a != axis]

    series = {}
    for r in rows:
        series.setdefault(tuple(getattr(r, a) for a in others), []).append(r)

    written = []
    for combo in sorted(series):
        suffix = "_".join(f"{a}{v}" for a, v in zip(others, combo))
        path = out_dir / f"plot_{axis}__{suffix}.csv"
        lines = [f"{axis},{metric}"]
        for r in sorted(series[combo], key=lambda r: getattr(r, axis)):
            lines.append(f"{getattr(r, axis)},{'%.12g' % getattr(r, metric)}")
        _atomic_write(path, "\n".join(lines) + "\n")
        written.append(path)
    return written
