"""Correctness checks on a finished sweep, independent of nodesteer's code.

Every row must have status ``ok`` and ``n_avg * m * n_osc`` pieces, and its
``sup_w2`` and ``final_w2`` must equal an exact W2 recomputed here with
scipy's ``linear_sum_assignment`` on a ``cdist`` cost matrix, over the
trajectory CSVs the sweep saved (written with ``repr(float)``, so lossless).
For input seeds with recorded values, the rows must also match the values the
seed commit produced. A row that fails any check counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


class ExactW2:
    """Exact W2 between ensemble CSV files, memoized by file content.

    Repeated sweeps of one input set write identical bytes, so each distinct
    pair of ensembles is solved once per benchmark run.
    """

    def __init__(self):
        self._memo: dict = {}

    @staticmethod
    def _read(path: Path) -> tuple:
        data = path.read_bytes()
        rows = list(csv.reader(data.decode().splitlines()))
        points = np.array([[float(v) for v in row] for row in rows[1:] if row])
        return hashlib.sha256(data).hexdigest(), points

    def __call__(self, path_a: Path, path_b: Path) -> float:
        key_a, a = self._read(path_a)
        key_b, b = self._read(path_b)
        key = (key_a, key_b)
        if key not in self._memo:
            cost = cdist(a, b, "sqeuclidean")
            rows, cols = linear_sum_assignment(cost)
            self._memo[key] = math.sqrt(cost[rows, cols].sum() / a.shape[0])
        return self._memo[key]


def _snapshot_paths(directory: Path) -> list:
    meta = json.loads((directory / "trajectory.json").read_text())
    return [directory / name for name in meta["snapshots"]]


def check_rows(rows, out_dir, kind: str, w2: ExactW2, expected=None) -> dict:
    """Return {row key: reason} for every row of a sweep that fails a check.

    rows are the sweep's ResultRow objects; expected, when given, is the list
    of recorded row dicts for this input seed.
    """
    out_dir = Path(out_dir)
    reference = _snapshot_paths(out_dir / "reference")
    recorded = {(r["n_avg"], r["m"], r["n_osc"]): r for r in (expected or [])}
    failures = {}
    for row in rows:
        coords = (row.n_avg, row.m, row.n_osc)
        if row.status != "ok":
            failures[row.key] = f"status {row.status}: {row.error}"
            continue
        if row.pieces != row.n_avg * row.m * row.n_osc:
            failures[row.key] = f"pieces {row.pieces} != n_avg*m*n_osc"
            continue
        synthesized = _snapshot_paths(out_dir / "rows" / row.key / "trajectory")
        if len(synthesized) != len(reference):
            failures[row.key] = "snapshot count differs from the reference"
            continue
        sup = max(w2(a, b) for a, b in zip(synthesized, reference))
        final_target = out_dir / "muf.csv" if kind == "endpoint" else reference[-1]
        final = w2(synthesized[-1], final_target)
        if not _close(row.sup_w2, sup):
            failures[row.key] = f"sup_w2 {row.sup_w2!r} != exact {sup!r}"
        elif not _close(row.final_w2, final):
            failures[row.key] = f"final_w2 {row.final_w2!r} != exact {final!r}"
        elif expected is not None:
            want = recorded.get(coords)
            if want is None:
                failures[row.key] = "no recorded row for these coordinates"
            elif row.pieces != want["pieces"] or not all(
                _close(getattr(row, k), want[k]) for k in ("sup_w2", "final_w2", "max_fit_err")
            ):
                failures[row.key] = f"differs from the recorded row {want}"
    return failures
