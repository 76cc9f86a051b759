"""Command-line entry points: synthesize, simulate, compare, sweep, endpoint.

Every subcommand consumes a JSON experiment config (see
:class:`nodesteer.harness.ExperimentConfig`) and writes its artifacts under
``--out``. Scalar config fields can be overridden by flags. Exit codes:
0 success, 1 config error, 2 all rows failed (or the single requested
operation failed), 3 partial failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .flow import integrate_flow
from .harness import (
    ConfigError,
    ExperimentConfig,
    _atomic_write,
    _write_json,
    compute_row,
    emit_plot_data,
    run_endpoint_experiment,
    run_trajectory_experiment,
)
from .measures import MeasureSpecError
from .synthesis import ControlSchedule, synthesize_controls

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ALL_FAILED = 2
EXIT_PARTIAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodesteer",
        description="Synthesize and evaluate piecewise-constant neural-ODE control schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("synthesize", "build a control schedule for the config's target"),
        ("simulate", "integrate the config's field or schedule and save the trajectory"),
        ("compare", "synthesize at one sweep point and report its errors as a sweep row does"),
        ("sweep", "run the full trajectory experiment sweep"),
        ("endpoint", "run the measure-steering experiment sweep"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name in ("sweep", "endpoint"):
            p.add_argument("--parallel", type=int, default=1, help="worker threads for sweep rows")
            p.add_argument("--resume", action="store_true", help="reuse completed rows from a prior run")
    return parser


def _load_config(args) -> tuple:
    path = Path(args.config)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if args.seed is not None and isinstance(raw, dict):
        # overridden before the parse, so the flag is validated like the key
        raw = {**raw, "seed": args.seed}
    cfg = ExperimentConfig.from_dict(raw)
    out_dir = args.out or cfg.out_dir
    if out_dir is None:
        raise ConfigError("no output directory: pass --out or set out_dir in the config")
    return cfg, Path(out_dir)


def _single_point(cfg: ExperimentConfig):
    points = cfg.sweep_points()
    if len(points) > 1:
        raise ConfigError(
            f"this subcommand needs scalar synthesis knobs, got {len(points)} sweep points"
        )
    return points[0]


def _cmd_synthesize(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    coords = _single_point(cfg)
    mu0, _, vf = cfg.build_inputs()
    result = synthesize_controls(vf, mu0, cfg.synthesis_params(coords))
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "schedule.json", result.schedule.to_json() + "\n")
    _write_json(out_dir / "report.json", result.report.to_json_dict())
    flag = "" if result.report.tolerance_met else " (fit tolerance missed; see report.json)"
    print(f"wrote {out_dir / 'schedule.json'} with {result.report.piece_count} pieces{flag}")
    return EXIT_OK


def _cmd_simulate(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    if cfg.schedule_path is not None:
        mu0, vf = cfg.build_mu0(), ControlSchedule.from_json(Path(cfg.schedule_path).read_text())
    else:
        mu0, _, vf = cfg.build_inputs()
    traj = integrate_flow(vf, mu0, cfg.integrator(vf.horizon))
    out_dir.mkdir(parents=True, exist_ok=True)
    traj.save(out_dir)
    print(f"wrote {traj.times.size} snapshots to {out_dir}")
    return EXIT_OK


def _cmd_compare(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    coords = _single_point(cfg)
    inputs = cfg.build_inputs()
    mu0, _, vf = inputs
    reference = integrate_flow(vf, mu0, cfg.integrator(vf.horizon))
    _, report, _, sup_err, final_err = compute_row(cfg, coords, inputs, reference)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "compare.json", {"sup_w2": sup_err, "final_w2": final_err, "report": report})
    print(f"sup_w2 = {sup_err:.6g}, final_w2 = {final_err:.6g} -> {out_dir / 'compare.json'}")
    return EXIT_OK


def _cmd_sweep(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    """``sweep`` and ``endpoint``; the runner rejects a config of the other kind."""
    run = run_trajectory_experiment if args.command == "sweep" else run_endpoint_experiment
    table = run(cfg, out_dir, parallel=args.parallel, resume=args.resume)
    if not table.all_failed:
        emit_plot_data(table)
    failed = sum(r.status == "failed" for r in table.rows)
    print(f"{len(table.rows)} rows ({failed} failed) -> {out_dir / 'results.csv'}")
    if table.all_failed:
        return EXIT_ALL_FAILED
    if table.any_failed:
        return EXIT_PARTIAL
    return EXIT_OK


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "endpoint": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, out_dir = _load_config(args)
        return _COMMANDS[args.command](cfg, out_dir, args)
    except (ConfigError, MeasureSpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ALL_FAILED


if __name__ == "__main__":
    sys.exit(main())
