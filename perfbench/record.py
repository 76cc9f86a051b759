#!/usr/bin/env python3
"""Record the rows each workload produces, for the checks in run.py.

    python3 perfbench/record.py --seeds 20

Sweeps every input set that runs with seeds 0 to N-1 use, on every workload,
with the code in src/, and writes their rows to perfbench/expected.json,
keeping entries already there. Run it only at a commit whose outputs are trusted: a later run
of the benchmark fails every row that differs from these values.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True, help="record seeds 0 to N-1")
    args = parser.parse_args(argv)
    run.load_nodesteer()
    from nodesteer import ExperimentConfig, run_endpoint_experiment, run_trajectory_experiment

    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    work = run.WORK / "record"
    try:
        for name in run.WORKLOADS:
            table = expected.setdefault(name, {})
            for seed in range(args.seeds):
                for cfg_seed in run.input_seeds(name, seed):
                    if str(cfg_seed) in table:
                        continue
                    cfg = ExperimentConfig.from_dict(run.workload_config(name, cfg_seed))
                    sweep = run_trajectory_experiment if cfg.kind == "trajectory" else run_endpoint_experiment
                    rows = sweep(cfg, work / f"{name}-{cfg_seed}", parallel=1).rows
                    table[str(cfg_seed)] = [
                        {k: v for k, v in r.to_dict().items() if k not in ("wall_s", "error")} for r in rows
                    ]
                    print(f"{name} seed {cfg_seed}: {[(r.status, r.sup_w2) for r in rows]}", flush=True)
                    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
