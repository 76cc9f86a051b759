"""Running a reproducible experiment sweep from a JSON config.

A config pins everything: the sampled measures, the target field, the
synthesis knobs (scalars or sweep lists), and the integrator. The harness
executes one synthesis + simulation per knob combination, writes per-row
artifacts plus a results table, and emits per-series CSVs ready to plot.
The same configs drive the command line (`nodesteer sweep --config ...`).
"""

import json
import tempfile
from pathlib import Path

from nodesteer import ExperimentConfig, emit_plot_data, run_trajectory_experiment

config = {
    "kind": "trajectory",
    "seed": 0,
    "n_particles": 100,
    "initial_measure": {
        "kind": "uniform-ball",
        "params": {"center": [0.0, 0.0], "radius": 1.0},
    },
    "field": {"name": "rotation", "params": {"omega": 1.0}},
    "synthesis": {
        "n_avg": 1,
        "m_width": [16, 64],
        "fit_tolerance": 0.1,
        "n_osc": [1, 4, 16],
    },
    "integrator": {"method": "rk4", "base_step": 0.01, "snap_count": 11},
}

cfg = ExperimentConfig.from_dict(config)
with tempfile.TemporaryDirectory(prefix="nodesteer-sweep-") as tmp:
    out = Path(tmp)
    table = run_trajectory_experiment(cfg, out)

    print((out / "results.csv").read_text())

    # one plot series per fixed (n_avg, m) pair, n_osc on the x axis
    for path in emit_plot_data(table):
        print(f"-- {path.name}")
        print(path.read_text())

    manifest = json.loads((out / "manifest.json").read_text())
    n_files = sum(len(entry["files"]) for entry in manifest["rows"].values())
    print(f"artifacts under {out}: {n_files} row files, reference trajectory, mu0.csv")
    print("rerunning with resume=True reuses every completed row; a second run is byte-identical")
