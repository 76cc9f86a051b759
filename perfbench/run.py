#!/usr/bin/env python3
"""Sweep benchmark for nodesteer: end-to-end and per-layer metrics.

Run from the repository root, one workload at a time:

    python3 perfbench/run.py --workload traj-near --seed 0 --seconds 15 --trace 0

or every workload, untraced and traced, with ``--workload all``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (both counted in sweep rows) and ``metrics``.

Load model: a closed loop with one client. The workload's sweeps run back to
back in this process through ``run_trajectory_experiment`` or
``run_endpoint_experiment`` with ``parallel=1``, as a user's CLI run does.
BLAS keeps the machine's default thread count. ``--seed`` becomes the config
``seed``, which draws the particle ensembles; the synthesis seed is held at 0.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``sweep_s``: median wall time of one sweep call over the run's sweeps;
- ``setup_s``: median time for a fresh interpreter to import ``nodesteer``
  and ``nodesteer.cli`` and parse the config, over ``SETUP_REPEATS``
  interpreters, half started before the sweeps and half after them so that
  the median spans the whole run;
- ``peak_rss_mb``: peak resident set of this process after the sweeps;
- ``pass_rate``: rows that passed every check over rows attempted, which is
  one minus the fail rate (``failed`` / ``attempted`` in the same line).

With ``--trace 1`` each input set is swept once untraced and once traced, in
turn, and the run reports per-layer self times and work counters from the
traced sweeps, the tracing overhead (median over those pairs of traced minus
untraced seconds), and writes every span to
``.perfbench/spans-<workload>-seed<seed>.json``. Checks (see ``checks.py``)
run after the timed sweeps and never inside them.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# tests/configs/rotation_sweep.json and tests/configs/translation_endpoint.json
# as of the commit that added this benchmark, copied so that the benchmark's
# inputs stay fixed when the test configs change.
ROTATION = {
    "kind": "trajectory",
    "initial_measure": {"kind": "uniform-ball", "params": {"center": [0.0, 0.0], "radius": 1.0}},
    "field": {"name": "rotation", "params": {"omega": 1.0, "radius": 2.0, "horizon": 1.0}},
    "n_particles": 200,
    "synthesis": {"n_avg": 1, "m_width": 64, "fit_tolerance": 0.1, "n_osc": [1, 2, 4, 8, 16]},
    "integrator": {"method": "rk4", "base_step": 0.01, "snap_count": 11},
    "seed": 0,
}
TRANSLATION = {
    "kind": "endpoint",
    "initial_measure": {
        "kind": "gaussian-truncated",
        "params": {
            "mean": [0.0, 0.0],
            "std": 0.31622776601683794,
            "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        },
    },
    "target_measure": {"kind": "translate-of-initial", "params": {"offset": [2.0, 0.0]}},
    "n_particles": 200,
    "smoothing": 0.5,
    "synthesis": {"n_avg": 1, "m_width": 64, "fit_tolerance": 0.1, "n_osc": [1, 4, 16]},
    "integrator": {"method": "rk4", "base_step": 0.01, "snap_count": 11},
    "seed": 0,
}

# inputs: input sets per run. The cost of exact W2 depends on the sampled
# ensembles, so a run sweeps several sets and no single draw sets its median.
WORKLOADS = {
    "traj-near": {"base": ROTATION, "n_particles": 1000, "n_osc": 16, "inputs": 3},
    "traj-far": {"base": ROTATION, "n_particles": 1000, "n_osc": 1, "inputs": 1},
    "endpoint-sweep": {"base": TRANSLATION, "n_particles": 500, "n_osc": None, "inputs": 3},
}
SEED_STRIDE = 1_000_003  # input set j of seed s uses config seed s + j * SEED_STRIDE
WARMUP_PARTICLES = 50
SETUP_REPEATS = 10

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import nodesteer, nodesteer.cli
nodesteer.ExperimentConfig.from_json(sys.argv[2])
"""

END_TO_END_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "pass_rate": "1"}

# (metric, span whose self time it reports)
SELF_TIMES = [
    ("transport.w2_exact.s", "transport.w2_exact"),
    ("transport.sup_w2.s", "transport.sup_w2"),
    ("flow.integrate_flow.reference.s", "flow.integrate_flow.reference"),
    ("flow.integrate_flow.schedule.s", "flow.integrate_flow.schedule"),
    ("flow.MeasureTrajectory.save.s", "flow.MeasureTrajectory.save"),
    ("flow.MeasureTrajectory.load.s", "flow.MeasureTrajectory.load"),
    ("synthesis.synthesize_controls.s", "synthesis.synthesize_controls"),
    ("synthesis.fit_superposition.s", "synthesis.fit_superposition"),
    ("synthesis.oscillation_schedule.s", "synthesis.oscillation_schedule"),
    ("synthesis.displacement_target_field.s", "synthesis.displacement_target_field"),
    ("fields.benchmark_field.s", "fields.benchmark_field"),
    ("measures.sample_measure.s", "measures.sample_measure"),
    ("harness.self_s", "harness.sweep"),
]
PER_LAYER_UNITS = {
    **{metric: "s" for metric, _ in SELF_TIMES},
    "transport.w2_exact.calls": "count",
    "transport.identity_optimal_share": "1",
    "transport.cost_matrix_mb": "MiB",
    "flow.rhs_evals.reference": "count",
    "flow.rhs_evals.schedule": "count",
    "synthesis.displacement_target_field.calls": "count",
    "synthesis.pieces": "count",
    "harness.bytes_written": "bytes",
    "harness.files_written": "count",
    "trace.overhead_s": "s",
    "trace.counter_drift": "count",
}


def load_nodesteer():
    """Import nodesteer from this checkout's src/, or exit without a result."""
    if not (SRC / "nodesteer" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nodesteer sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import nodesteer

    if Path(nodesteer.__file__).resolve().parent != SRC / "nodesteer":
        sys.exit(f"perfbench: imported nodesteer from {nodesteer.__file__}, not {SRC}")
    return nodesteer


def workload_config(name: str, seed: int, n_particles=None) -> dict:
    wl = WORKLOADS[name]
    raw = copy.deepcopy(wl["base"])
    raw["n_particles"] = n_particles or wl["n_particles"]
    raw["seed"] = seed
    # The random features of the fit decide how far the synthesized flow
    # strays and so how hard each W2 assignment is; holding them fixed lets
    # the seed vary only the sampled particles.
    raw["synthesis"]["seed"] = 0
    if wl["n_osc"] is not None:
        raw["synthesis"]["n_osc"] = wl["n_osc"]
    return raw


def input_seeds(name: str, seed: int) -> list:
    return [seed + j * SEED_STRIDE for j in range(WORKLOADS[name]["inputs"])]


def host_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k, "default")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def time_setup(config_json: str, repeats: int) -> list:
    """Wall seconds of ``repeats`` fresh set-up interpreters, one after another."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), config_json]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        if subprocess.call(cmd) != 0:
            raise RuntimeError(f"set-up interpreter failed: {cmd[:3]}")
        times.append(time.perf_counter() - start)
    return times


def output_counters(rows, out_dir: Path) -> dict:
    """Files and bytes a sweep left in out_dir, and the pieces it built.

    The wall-clock field of each row (its repr in row.json and its %.3f form
    in results.csv) is left out of the byte count, so the count repeats
    exactly on repeated sweeps of one input.
    """
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    clock_bytes = sum(len(repr(r.wall_s)) + len("%.3f" % r.wall_s) for r in rows)
    return {
        "synthesis.pieces": sum(r.pieces for r in rows),
        "harness.files_written": len(files),
        "harness.bytes_written": sum(p.stat().st_size for p in files) - clock_bytes,
    }


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        from nodesteer import ExperimentConfig, run_endpoint_experiment, run_trajectory_experiment

        from checks import ExactW2
        from spans import Tracer

        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.expected = json.loads((HERE / "expected.json").read_text()).get(name, {})
        self.configs = [
            ExperimentConfig.from_dict(workload_config(name, s)) for s in input_seeds(name, seed)
        ]
        kind = self.configs[0].kind
        self.sweep_fn = run_trajectory_experiment if kind == "trajectory" else run_endpoint_experiment
        self.kind = kind
        self.w2 = ExactW2()
        self.tracer = Tracer()
        self.work = WORK / f"tmp-{os.getpid()}"
        self.sweeps = []  # one dict per sweep, see _sweep

    def _sweep(self, cfg, index: int, traced: bool, label: str) -> dict:
        from spans import ROOT_SPAN, instrument

        out_dir = self.work / label
        run_id = f"{self.name}/seed{self.seed}/{label}"
        if traced:
            self.tracer.start_run(run_id)
            with instrument(self.tracer), self.tracer.span(ROOT_SPAN):
                start = time.perf_counter()
                table = self.sweep_fn(cfg, out_dir, parallel=1)
                elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            table = self.sweep_fn(cfg, out_dir, parallel=1)
            elapsed = time.perf_counter() - start
        sweep = {
            "input": index,
            "traced": traced,
            "seconds": elapsed,
            "rows": table.rows,
            "points": len(cfg.sweep_points()),
            "out_dir": out_dir,
            "run_id": run_id,
            "counts": dict(self.tracer.counts) if traced else {},
        }
        sweep["counters"] = output_counters(table.rows, out_dir)
        return sweep

    def check(self, sweep, expected) -> dict:
        from checks import check_rows

        failures = check_rows(sweep["rows"], sweep["out_dir"], self.kind, self.w2, expected)
        for k in range(sweep["points"] - len(sweep["rows"])):
            failures[f"missing-{k}"] = "sweep point without a row"
        return failures

    def warm_up(self) -> dict:
        """One small, checked sweep so imports and lazy set-up finish before timing."""
        from nodesteer import ExperimentConfig

        cfg = ExperimentConfig.from_dict(workload_config(self.name, self.seed, WARMUP_PARTICLES))
        return self.check(self._sweep(cfg, 0, False, "warmup"), None)

    def measure(self) -> None:
        """Sweep every input set in turn until the timed sweeps fill the run."""
        timed, rounds = 0.0, 0
        while rounds == 0 or timed < self.seconds:
            for index, cfg in enumerate(self.configs):
                modes = (False, True) if self.trace else (False,)
                for traced in modes:
                    label = f"r{rounds}-i{index}-{'traced' if traced else 'plain'}"
                    sweep = self._sweep(cfg, index, traced, label)
                    self.sweeps.append(sweep)
                    timed += sweep["seconds"]
            rounds += 1

    def drift(self) -> list:
        """Work counters that differ between sweeps of one input set."""
        drifted = []
        for index in range(len(self.configs)):
            seen = [{**s["counters"], **s["counts"]} for s in self.sweeps if s["input"] == index]
            for key in sorted(set().union(*seen)):
                values = {c[key] for c in seen if key in c}
                if len(values) > 1:
                    drifted.append(f"input {index}: {key} {sorted(values)}")
        return drifted


def layer_metrics(bench: Bench, sweep: dict) -> dict:
    self_s = bench.tracer.self_times(sweep["run_id"])
    counts = sweep["counts"]
    calls = counts.get("transport.w2_exact.calls", 0)
    spans = [s for s in bench.tracer.spans if s.run_id == sweep["run_id"]]
    out = {metric: self_s.get(span, 0.0) for metric, span in SELF_TIMES}
    out.update(
        {
            "transport.w2_exact.calls": calls,
            "transport.identity_optimal_share": counts.get("transport.identity_optimal", 0) / calls if calls else 0.0,
            "transport.cost_matrix_mb": counts.get("transport.cost_matrix_mb", 0.0),
            "flow.rhs_evals.reference": counts.get("flow.rhs_evals.reference", 0),
            "flow.rhs_evals.schedule": counts.get("flow.rhs_evals.schedule", 0),
            "synthesis.displacement_target_field.calls": sum(
                s.name == "synthesis.displacement_target_field" for s in spans
            ),
            **sweep["counters"],
        }
    )
    return out


def write_spans(bench: Bench, host: dict, metrics: dict) -> Path:
    t0 = min((s.start for s in bench.tracer.spans), default=0.0)
    doc = {
        "workload": bench.name,
        "seed": bench.seed,
        "host": host,
        "tracing_overhead_s": metrics["trace.overhead_s"],
        "sweeps": [
            {
                "run_id": s["run_id"],
                "input_seed": input_seeds(bench.name, bench.seed)[s["input"]],
                "seconds": s["seconds"],
                "self_s": bench.tracer.self_times(s["run_id"]),
                "counts": s["counts"],
            }
            for s in bench.sweeps
            if s["traced"]
        ],
        "spans": [{**s.to_dict(), "start": s.start - t0, "end": s.end - t0} for s in bench.tracer.spans],
    }
    path = WORK / f"spans-{bench.name}-seed{bench.seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_nodesteer()
    host = host_info()
    print(f"host: {json.dumps(host)}")
    WORK.mkdir(exist_ok=True)
    bench = Bench(name, seed, seconds, trace)
    try:
        setup_json = json.dumps(workload_config(name, seed))
        setup_times = []
        if not trace:
            time_setup(setup_json, 1)  # compiles bytecode; not kept
            setup_times += time_setup(setup_json, SETUP_REPEATS // 2)
        warmup_failures = bench.warm_up()
        for key, reason in warmup_failures.items():
            print(f"FAILED warm-up {key}: {reason}", file=sys.stderr)
        bench.measure()
        if not trace:
            setup_times += time_setup(setup_json, SETUP_REPEATS - SETUP_REPEATS // 2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = failed = 0
        for sweep in bench.sweeps:
            cfg_seed = input_seeds(name, seed)[sweep["input"]]
            failures = bench.check(sweep, bench.expected.get(str(cfg_seed)))
            attempted += sweep["points"]
            failed += len(failures)
            for key, reason in failures.items():
                print(f"FAILED {sweep['run_id']} {key}: {reason}", file=sys.stderr)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    drifted = bench.drift()
    for line in drifted:
        print(f"COUNTER DRIFT {line}", file=sys.stderr)

    plain = [s["seconds"] for s in bench.sweeps if not s["traced"]]
    print(f"workload {name} seed {seed}: {len(plain)} timed sweeps over {len(bench.configs)} input set(s)")
    if trace:
        traced = [s for s in bench.sweeps if s["traced"]]
        per_sweep = [layer_metrics(bench, s) for s in traced]
        values = {k: statistics.median(m[k] for m in per_sweep) for k in per_sweep[0]}
        # measure() sweeps each input untraced and then traced, so the two
        # lists pair up; a difference within a pair, seconds apart, moves
        # less with host speed that drifts over minutes than a difference of
        # medians would.
        values["trace.overhead_s"] = statistics.median(
            t["seconds"] - p for t, p in zip(traced, plain, strict=True)
        )
        values["trace.counter_drift"] = len(drifted)
        units = PER_LAYER_UNITS
        print(f"spans: {write_spans(bench, host, values)}")
    else:
        # A tail percentile needs ten samples beyond it; a run has fewer
        # sweeps, so the median and the sample count are reported.
        print(f"sweep_s samples: {len(plain)}; min {min(plain):.4f} s, max {max(plain):.4f} s")
        values = {
            "sweep_s": statistics.median(plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "pass_rate": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, m in metrics.items():
        print(f"{k}: {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not warmup_failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0, help="timed sweep seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
