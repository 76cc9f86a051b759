"""Declarative experiment runner: sweeps, result tables, and artifacts.

An experiment config (strict JSON) names an initial measure, a target (a
benchmark field or a target measure), the synthesis settings and the
integrator settings. The synthesis section takes n_avg, m_width and n_osc,
each a value or a sweep list, plus fit_tolerance, region_margin and seed;
the fit itself has no tuning keys. Running it produces ``results.csv`` with
one row per sweep coordinate, a JSON manifest, and per-row
schedule/trajectory artifacts under ``rows/<key>/``. Every row runs
in this process on the one set of inputs and the one reference the sweep
builds, in sequence or on worker threads. Rows that share (n_avg, m_width)
differ only in n_osc and share one superposition fit, computed once per
sweep; the row that computes it counts it in its ``wall_s``. Rows are
isolated: a failing coordinate is recorded as a failed row and never aborts
the sweep. Reruns with ``resume`` reuse a completed row only when it was
computed under the same config (every key but ``out_dir`` and the three sweep
lists) and its artifacts are present; every other row is recomputed.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .fields import benchmark_field
from .flow import IntegratorConfig, MeasureTrajectory, integrate_flow, support_growth_check
from .measures import RNG_ALGORITHM, MeasureSpec, ParticleEnsemble, sample_measure
from .synthesis import (
    SynthesisParams,
    WindowFits,
    _check_piece_cap,
    displacement_target_field,
    fit_windows,
    schedule_windows,
)
from .transport import sup_w2, w2_exact

RESULTS_HEADER = "n_avg,m,n_osc,sup_w2,final_w2,max_fit_err,pieces,wall_s,status"


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


def _require_keys(d: Mapping, allowed: set, required: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing required key(s) {sorted(missing)} in {where}")


def _number(value, name: str, integer: bool = False):
    """A config number, checked as given: an int when ``integer``, else unchanged.

    Bools, strings and other non-numbers are rejected, and so are the
    non-finite values ``json.loads`` reads from ``Infinity`` and ``NaN`` and a
    value with a fractional part where an integer is needed, so a mistyped
    number fails the parse instead of being coerced.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if integer:
        if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(value)
    return value


def _int_list(value, name: str) -> tuple:
    values = value if isinstance(value, (list, tuple)) else [value]
    if not values:
        raise ConfigError(f"{name} must be an integer or nonempty list of integers")
    out = {_number(v, f"{name} entries", integer=True) for v in values}
    if min(out) < 1:
        raise ConfigError(f"{name} entries must be integers >= 1")
    return tuple(sorted(out))


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; see :func:`ExperimentConfig.from_dict`."""

    kind: str
    initial_measure: MeasureSpec
    n_particles: int
    seed: int
    n_avg_values: tuple
    m_values: tuple
    n_osc_values: tuple
    fit_tolerance: float = 0.1
    region_margin: float = 1.5
    synthesis_seed: Optional[int] = None
    field_name: Optional[str] = None
    field_params: Mapping = field(default_factory=dict)
    target_measure: Optional[MeasureSpec] = None
    smoothing: float = 0.5
    method: str = "rk4"
    base_step: float = 0.01
    snap_count: int = 11
    snap_times: Optional[tuple] = None
    out_dir: Optional[str] = None
    schedule_path: Optional[str] = None

    @staticmethod
    def from_dict(raw: Mapping) -> "ExperimentConfig":
        if not isinstance(raw, Mapping):
            raise ConfigError("config must be a JSON object")
        top_allowed = {
            "kind",
            "initial_measure",
            "target_measure",
            "field",
            "n_particles",
            "synthesis",
            "integrator",
            "smoothing",
            "out_dir",
            "seed",
            "schedule",
        }
        _require_keys(raw, top_allowed, {"kind", "initial_measure", "n_particles", "synthesis", "seed"}, "config")
        kind = raw["kind"]
        if kind not in ("trajectory", "endpoint"):
            raise ConfigError(f"kind must be 'trajectory' or 'endpoint', got {kind!r}")
        if kind == "trajectory" and "field" not in raw:
            raise ConfigError("trajectory config needs a 'field' entry")
        if kind == "endpoint" and "target_measure" not in raw:
            raise ConfigError("endpoint config needs a 'target_measure' entry")

        seed = _number(raw["seed"], "seed", integer=True)
        if seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        n_particles = _number(raw["n_particles"], "n_particles", integer=True)
        if n_particles < 1:
            raise ConfigError("n_particles must be an integer >= 1")

        def parse_measure(entry, where):
            if not isinstance(entry, Mapping):
                raise ConfigError(f"{where} must be an object with kind/params")
            _require_keys(entry, {"kind", "params"}, {"kind"}, where)
            spec = MeasureSpec(entry["kind"], dict(entry.get("params", {})))
            if spec.kind == "translate-of-initial":
                if where != "target_measure":
                    raise ConfigError("translate-of-initial is only valid as a target_measure")
                if set(spec.params) != {"offset"}:
                    raise ConfigError("translate-of-initial takes exactly one param: offset")
            return spec

        syn = raw["synthesis"]
        if not isinstance(syn, Mapping):
            raise ConfigError("synthesis must be an object")
        syn_allowed = {"n_avg", "m_width", "n_osc", "fit_tolerance", "region_margin", "seed"}
        _require_keys(syn, syn_allowed, set(), "synthesis")
        synthesis_seed = None
        if "seed" in syn:
            synthesis_seed = _number(syn["seed"], "synthesis.seed", integer=True)
            if synthesis_seed < 0:
                raise ConfigError("synthesis.seed must be a nonnegative integer")

        field_name, field_params = None, {}
        if "field" in raw:
            f = raw["field"]
            if not isinstance(f, Mapping):
                raise ConfigError("field must be an object with name/params")
            _require_keys(f, {"name", "params"}, {"name"}, "field")
            field_name, field_params = f["name"], dict(f.get("params", {}))

        integ = raw.get("integrator", {})
        if not isinstance(integ, Mapping):
            raise ConfigError("integrator must be an object")
        _require_keys(integ, {"method", "base_step", "snap_count", "snap_times"}, set(), "integrator")
        if "snap_count" in integ and "snap_times" in integ:
            raise ConfigError("give snap_count or snap_times, not both")
        for key in ("schedule", "out_dir"):
            if key in raw and not isinstance(raw[key], str):
                raise ConfigError(f"{key} must be a path string")

        try:
            cfg = ExperimentConfig(
                kind=kind,
                initial_measure=parse_measure(raw["initial_measure"], "initial_measure"),
                n_particles=n_particles,
                seed=seed,
                n_avg_values=_int_list(syn.get("n_avg", 1), "synthesis.n_avg"),
                m_values=_int_list(syn.get("m_width", 16), "synthesis.m_width"),
                n_osc_values=_int_list(syn.get("n_osc", 4), "synthesis.n_osc"),
                fit_tolerance=float(_number(syn.get("fit_tolerance", 0.1), "synthesis.fit_tolerance")),
                region_margin=float(_number(syn.get("region_margin", 1.5), "synthesis.region_margin")),
                synthesis_seed=synthesis_seed,
                field_name=field_name,
                field_params=field_params,
                target_measure=(
                    parse_measure(raw["target_measure"], "target_measure")
                    if "target_measure" in raw
                    else None
                ),
                smoothing=float(_number(raw.get("smoothing", 0.5), "smoothing")),
                method=integ.get("method", "rk4"),
                base_step=float(_number(integ.get("base_step", 0.01), "integrator.base_step")),
                snap_count=_number(integ.get("snap_count", 11), "integrator.snap_count", integer=True),
                snap_times=(
                    tuple(float(_number(t, "integrator.snap_times entries")) for t in integ["snap_times"])
                    if "snap_times" in integ
                    else None
                ),
                out_dir=raw.get("out_dir"),
                schedule_path=raw.get("schedule"),
            )
            if cfg.smoothing <= 0:
                raise ConfigError("smoothing must be positive")
            if cfg.snap_count < 2:
                raise ConfigError("snap_count must be >= 2")
            # Checks the synthesis knobs and the integrator now, so a bad value
            # fails the parse instead of every row.
            for coords in cfg.sweep_points():
                cfg.synthesis_params(coords)
            cfg.integrator(1.0)
            return cfg
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(raw)

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "initial_measure": self.initial_measure.to_dict(),
            "n_particles": self.n_particles,
            "seed": self.seed,
            "synthesis": {
                "n_avg": list(self.n_avg_values),
                "m_width": list(self.m_values),
                "n_osc": list(self.n_osc_values),
                "fit_tolerance": self.fit_tolerance,
                "region_margin": self.region_margin,
                **({"seed": self.synthesis_seed} if self.synthesis_seed is not None else {}),
            },
            "integrator": {"method": self.method, "base_step": self.base_step},
        }
        if self.snap_times is not None:
            d["integrator"]["snap_times"] = list(self.snap_times)
        else:
            d["integrator"]["snap_count"] = self.snap_count
        if self.field_name is not None:
            d["field"] = {"name": self.field_name, "params": dict(self.field_params)}
        if self.target_measure is not None:
            d["target_measure"] = self.target_measure.to_dict()
            d["smoothing"] = self.smoothing
        if self.out_dir is not None:
            d["out_dir"] = self.out_dir
        if self.schedule_path is not None:
            d["schedule"] = self.schedule_path
        return d

    # -- derived pieces ----------------------------------------------------

    def measure_seeds(self) -> tuple:
        s = np.random.SeedSequence(self.seed).generate_state(2)
        return int(s[0]), int(s[1])

    def build_mu0(self) -> ParticleEnsemble:
        return sample_measure(self.initial_measure, self.n_particles, self.measure_seeds()[0])

    def build_inputs(self) -> tuple:
        """(mu0, muf, field): the initial ensemble, the target ensemble, the target field.

        muf is None for trajectory configs, whose field is the named benchmark.
        For endpoint configs the field is the displacement interpolation from
        mu0 to muf; a translate-of-initial target shifts this same mu0.
        """
        mu0 = self.build_mu0()
        if self.kind == "trajectory":
            return mu0, None, benchmark_field(self.field_name, self.field_params)
        if self.target_measure.kind == "translate-of-initial":
            muf = mu0.translate(np.asarray(self.target_measure.params["offset"], dtype=float))
        else:
            muf = sample_measure(self.target_measure, self.n_particles, self.measure_seeds()[1])
        return mu0, muf, displacement_target_field(mu0, muf, self.smoothing)

    def integrator(self, horizon: float) -> IntegratorConfig:
        snaps = (
            np.asarray(self.snap_times, dtype=float)
            if self.snap_times is not None
            else np.linspace(0.0, horizon, self.snap_count)
        )
        return IntegratorConfig(method=self.method, base_step=self.base_step, snap_times=snaps)

    def sweep_points(self) -> list:
        return sorted(product(self.n_avg_values, self.m_values, self.n_osc_values))

    def synthesis_params(self, coords) -> SynthesisParams:
        n_avg, m, n_osc = coords
        return SynthesisParams(
            n_avg=n_avg,
            m_width=m,
            fit_tolerance=self.fit_tolerance,
            n_osc=n_osc,
            region_margin=self.region_margin,
            seed=self.seed if self.synthesis_seed is None else self.synthesis_seed,
        )


# -- result rows ---------------------------------------------------------------


def row_key(coords) -> str:
    n_avg, m, n_osc = coords
    return f"navg{n_avg}_m{m}_nosc{n_osc}"


@dataclass(frozen=True)
class ResultRow:
    """One sweep coordinate's outcome."""

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
        return ",".join(
            [
                str(self.n_avg),
                str(self.m),
                str(self.n_osc),
                "%.12g" % self.sup_w2,
                "%.12g" % self.final_w2,
                "%.12g" % self.max_fit_err,
                str(self.pieces),
                "%.3f" % self.wall_s,
                self.status,
            ]
        )

    def to_dict(self) -> dict:
        d = {
            "n_avg": self.n_avg,
            "m": self.m,
            "n_osc": self.n_osc,
            "sup_w2": self.sup_w2,
            "final_w2": self.final_w2,
            "max_fit_err": self.max_fit_err,
            "pieces": self.pieces,
            "wall_s": self.wall_s,
            "status": self.status,
        }
        if self.error is not None:
            d["error"] = self.error
        return d

    @staticmethod
    def from_dict(d: Mapping) -> "ResultRow":
        return ResultRow(
            n_avg=int(d["n_avg"]),
            m=int(d["m"]),
            n_osc=int(d["n_osc"]),
            sup_w2=float(d["sup_w2"]),
            final_w2=float(d["final_w2"]),
            max_fit_err=float(d["max_fit_err"]),
            pieces=int(d["pieces"]),
            wall_s=float(d["wall_s"]),
            status=str(d["status"]),
            error=d.get("error"),
        )


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


def _prepare_shared(cfg: ExperimentConfig, out_dir: Path) -> tuple:
    """Build the inputs, integrate the reference, and write both; returns (inputs, reference)."""
    inputs = cfg.build_inputs()
    mu0, muf, vf = inputs
    reference = integrate_flow(vf, mu0, cfg.integrator(vf.horizon))
    _atomic_write(out_dir / "mu0.csv", mu0.to_csv())
    if muf is not None:
        _atomic_write(out_dir / "muf.csv", muf.to_csv())
    reference.save(out_dir / "reference")
    return inputs, reference


class _FitMemo:
    """One sweep's window fits, each (n_avg, m_width) fitted once.

    Called with a row's SynthesisParams, it returns that row's fits. Rows of
    one key differ only in n_osc, which the fit stage does not read. Each key
    has its own lock: a row waits for a fit of its key already running, while
    fits of different keys run at the same time on worker threads. A fit that
    raises is not stored, so the next row of its key fits again and fails the
    same way.
    """

    def __init__(self, fit: Callable[[SynthesisParams], WindowFits]):
        self._fit = fit
        self._lock = threading.Lock()
        self._key_locks = {}
        self._fits = {}

    def __call__(self, params: SynthesisParams) -> WindowFits:
        key = (params.n_avg, params.m_width)
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            if key not in self._fits:
                self._fits[key] = self._fit(params)
            return self._fits[key]


def compute_row(
    cfg: ExperimentConfig,
    coords,
    inputs: tuple,
    reference: MeasureTrajectory,
    window_fits: Optional[Callable[[SynthesisParams], WindowFits]] = None,
) -> tuple:
    """Synthesize at one sweep coordinate and measure the schedule's flow.

    ``inputs`` is :meth:`ExperimentConfig.build_inputs`'s (mu0, muf, field)
    and ``reference`` the field's flow from mu0 on the config's snapshot grid.
    ``window_fits`` supplies the fit stage's result for the row's params (a
    sweep's :class:`_FitMemo`); by default the row fits on its own. Returns
    (synthesis result, synthesized trajectory, sup_w2, final_w2).
    ``final_w2`` is measured against muf for endpoint configs and against the
    reference's final snapshot for trajectory configs.
    """
    mu0, muf, vf = inputs
    window_fits = window_fits or _FitMemo(partial(fit_windows, vf, mu0))
    params = cfg.synthesis_params(coords)
    _check_piece_cap(params)
    result = schedule_windows(window_fits(params), params)
    synthesized = integrate_flow(result.schedule, mu0, cfg.integrator(vf.horizon))
    sup_err = sup_w2(synthesized, reference)
    final_err = w2_exact(synthesized.final, reference.final if muf is None else muf).distance
    return result, synthesized, sup_err, final_err


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
    window_fits: Callable[[SynthesisParams], WindowFits],
    fingerprint: str,
) -> ResultRow:
    """Compute one sweep row into a fresh ``rows/<key>/``; never raises.

    ``inputs``, ``reference`` and ``window_fits`` are the sweep's own, shared
    by every row; the row writes only its own directory, so rows may run on
    concurrent threads. The directory is cleared first, so a rerun leaves
    none of an earlier run's artifacts next to this row's. ``row.json``
    records the config's ``fingerprint`` for ``resume``.
    """
    row_dir = out_dir / "rows" / row_key(coords)
    if row_dir.exists():
        shutil.rmtree(row_dir)
    row_dir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        result, synthesized, sup_err, final_err = compute_row(cfg, coords, inputs, reference, window_fits)

        _atomic_write(row_dir / "schedule.json", result.schedule.to_json() + "\n")
        report = result.report.to_json_dict()
        # the synthesized flow's containment in Omega = B_{R+r}(0), where the fit holds
        report["support_growth"] = support_growth_check(
            synthesized, report["support_radius"], report["region_R"], report["bound_C"] + report["delta"]
        ).to_dict()
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
    """Run every pending row of a ``kind`` config on the sweep's shared inputs and reference.

    Rows that share (n_avg, m_width) share one fit: the sweep's
    :class:`_FitMemo`, dropped when the sweep returns, fits each key once, in
    the ``wall_s`` of the row that needs it first. ``parallel > 1`` runs rows
    on up to that many worker threads (at most one per pending row), where
    fits of different keys may run at the same time; otherwise rows run in
    order on the calling thread. With ``resume``, a row computed under the
    same config (see :func:`_config_fingerprint`) whose artifacts remain is
    kept as is. A config of another kind fails before anything is written.
    """
    if cfg.kind != kind:
        raise ConfigError(f"{kind} sweep got a {cfg.kind!r} config")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "rows").mkdir(exist_ok=True)
    inputs, reference = _prepare_shared(cfg, out_dir)

    points = cfg.sweep_points()
    fingerprint = _config_fingerprint(cfg)
    rows_by_coords = {}
    pending = []
    for coords in points:
        prior = _load_completed_row(out_dir, coords, fingerprint) if resume else None
        if prior is not None:
            rows_by_coords[coords] = prior
        else:
            pending.append(coords)

    mu0, _, vf = inputs
    window_fits = _FitMemo(partial(fit_windows, vf, mu0))
    run_row = partial(
        _execute_row,
        cfg,
        out_dir,
        inputs=inputs,
        reference=reference,
        window_fits=window_fits,
        fingerprint=fingerprint,
    )
    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            rows_by_coords.update(zip(pending, pool.map(run_row, pending)))
    else:
        rows_by_coords.update(zip(pending, map(run_row, pending)))

    rows = tuple(rows_by_coords[c] for c in points)
    _write_results_csv(out_dir, rows)
    _write_manifest(cfg, out_dir, rows)
    return ResultTable(config=cfg, rows=rows, out_dir=out_dir)


def run_trajectory_experiment(cfg: ExperimentConfig, out_dir, parallel: int = 1, resume: bool = False) -> ResultTable:
    """Sweep synthesis knobs against a benchmark field and tabulate errors.

    For each sweep coordinate: synthesize a schedule, integrate it from the
    shared initial ensemble on the shared snapshot grid, and record the sup-W2
    distance to the reference trajectory plus the final-time W2.
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
