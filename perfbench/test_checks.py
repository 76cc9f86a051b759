"""Fault injection for the benchmark's correctness check.

    python3 -m pytest perfbench

Runs a small workload through the benchmark's own run loop, once as is and
once with ``sup_w2`` reporting 1e-6 more than it computed, and reads the
result line the benchmark prints.
"""

import json

import pytest

import run

run.load_nodesteer()

import nodesteer.harness  # noqa: E402  (importable only after load_nodesteer)

SMALL = {"base": run.ROTATION, "n_particles": 60, "n_osc": 4, "inputs": 2}


@pytest.fixture
def small_workload(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "small", SMALL)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_clean_run_passes(small_workload, capsys):
    run.run_workload("small", seed=0, seconds=0.0, trace=False)
    result = result_line(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == SMALL["inputs"]
    assert result["metrics"]["pass_rate"]["value"] == 1.0


def test_sup_w2_off_by_1e6_fails_every_row(small_workload, monkeypatch, capsys):
    exact = nodesteer.harness.sup_w2
    monkeypatch.setattr(nodesteer.harness, "sup_w2", lambda a, b: exact(a, b) + 1e-6)
    run.run_workload("small", seed=0, seconds=0.0, trace=False)
    result = result_line(capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == SMALL["inputs"]
    assert result["metrics"]["pass_rate"]["value"] == 0.0
