"""Acceptance gate: one test per shipping criterion, run in order.

Each test prints a single ``criterion N PASS`` line with its measured
numbers; a failed assert is the corresponding FAIL. Thresholds marked
"frozen" were recorded from a fresh oracle run of the same config before
these tests were written, and must not be edited to fit a regression.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from nodesteer.fields import NeuralTerm, NeuralField, benchmark_field
from nodesteer.flow import (
    IntegratorConfig,
    integrate_flow,
    lipschitz_curve_check,
    support_growth_check,
)
from nodesteer.harness import (
    ExperimentConfig,
    run_endpoint_experiment,
    run_trajectory_experiment,
)
from nodesteer.measures import MeasureSpec, ParticleEnsemble, sample_measure
from nodesteer.synthesis import ControlSchedule, oscillation_schedule
from nodesteer.transport import w2_bruteforce, w2_exact

CONFIG_DIR = Path(__file__).parent / "configs"

# frozen from the oracle run of tests/configs/rotation_sweep.json
# (sup_w2 at N_osc = 16 came out 0.2852; the margin covers platform noise)
ROTATION_N16_THRESHOLD = 0.30


def _ensemble(rng, n, d):
    return ParticleEnsemble(rng.normal(size=(n, d)))


def _load_config(name):
    return ExperimentConfig.from_json((CONFIG_DIR / name).read_text())


@pytest.fixture(scope="module")
def rotation_sweep(tmp_path_factory):
    cfg = _load_config("rotation_sweep.json")
    out = tmp_path_factory.mktemp("rotation_sweep")
    start = time.perf_counter()
    table = run_trajectory_experiment(cfg, out)
    return table, out, time.perf_counter() - start


def test_criterion_1_transport_solver_correctness():
    start = time.perf_counter()
    worst = 0.0
    for s in range(200):
        rng = np.random.default_rng(1000 + s)
        d, n = 1 + s % 3, 2 + s % 6
        mu, nu = _ensemble(rng, n, d), _ensemble(rng, n, d)
        gap = abs(w2_exact(mu, nu).distance - w2_bruteforce(mu, nu).distance)
        worst = max(worst, gap)
        assert gap <= 1e-9

    for s in range(100):
        rng = np.random.default_rng(2000 + s)
        d = 1 + s % 3
        a, b, c = (_ensemble(rng, 30, d) for _ in range(3))
        ab, ba = w2_exact(a, b).distance, w2_exact(b, a).distance
        assert abs(ab - ba) <= 1e-9
        assert w2_exact(a, a).distance <= 1e-9
        assert w2_exact(a, c).distance <= ab + w2_exact(b, c).distance + 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 1 PASS: max |exact-bruteforce| = {worst:.3g}, axioms ok, {elapsed:.1f}s")


def test_criterion_2_period_mean_identity():
    start = time.perf_counter()
    worst = 0.0
    for s in range(50):
        rng = np.random.default_rng(s)
        d, m, periods = 1 + s % 3, 1 + s % 8, 1 + s % 3
        terms = tuple(
            NeuralTerm(rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=d))
            for _ in range(m)
        )
        nf = NeuralField(terms)
        sched = oscillation_schedule(nf, (0.0, 1.0), periods)
        probes = rng.uniform(-2.0, 2.0, size=(20, d))
        expected = nf(probes)
        bp = sched.breakpoints
        for p in range(periods):
            lo, hi = p * m, (p + 1) * m
            acc = np.zeros_like(probes)
            for j in range(lo, hi):
                acc += (bp[j + 1] - bp[j]) * sched.static_piece(j)(probes)
            dev = np.abs(acc / (bp[hi] - bp[lo]) - expected).max()
            worst = max(worst, dev)
            assert dev <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 2 PASS: worst period-mean deviation = {worst:.3g}, {elapsed:.1f}s")


def test_criterion_3_integrator_order():
    start = time.perf_counter()
    vf = benchmark_field("rotation", {"omega": 1.0})
    x0 = ParticleEnsemble([[1.0, 0.0]])
    exact = np.array([np.cos(1.0), np.sin(1.0)])
    errors = []
    for h in (1.0 / 50.0, 1.0 / 100.0, 1.0 / 200.0):
        cfg = IntegratorConfig(method="rk4", base_step=h, snap_times=np.array([0.0, 1.0]))
        final = integrate_flow(vf, x0, cfg).final.points[0]
        errors.append(float(np.linalg.norm(final - exact)))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    for ratio in ratios:
        assert 12.0 <= ratio <= 20.0

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 3 PASS: halving ratios = {ratios[0]:.2f}, {ratios[1]:.2f}, {elapsed:.2f}s")


def test_criterion_4_support_containment():
    start = time.perf_counter()
    spec = MeasureSpec("uniform-ball", {"center": [0.0, 0.0], "radius": 1.0})
    mu0 = sample_measure(spec, 500, seed=4)
    r, R = 1.0, 3.0
    reports = {}
    for name in ("rotation", "contraction-to-point"):
        vf = benchmark_field(name, {"omega": 1.0} if name == "rotation" else {"rate": 1.0})
        assert vf.horizon < (R + r) / vf.bound_C
        cfg = IntegratorConfig(base_step=0.01, snap_times=np.linspace(0.0, vf.horizon, 11))
        traj = integrate_flow(vf, mu0, cfg)
        report = support_growth_check(traj, r=r, R=R, C=vf.bound_C)
        assert report.passed, f"{name}: radius {report.max_radius} vs bound {report.bound}"
        reports[name] = report

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    radii = ", ".join(f"{k} max radius {v.max_radius:.3f} <= {v.bound}" for k, v in reports.items())
    print(f"criterion 4 PASS: {radii}, {elapsed:.1f}s")


def test_criterion_5_lipschitz_curve():
    start = time.perf_counter()
    vf = benchmark_field("rotation", {"omega": 1.0})
    spec = MeasureSpec("uniform-ball", {"center": [0.0, 0.0], "radius": 1.0})
    mu0 = sample_measure(spec, 200, seed=5)
    cfg = IntegratorConfig(base_step=0.01, snap_times=np.linspace(0.0, 1.0, 50))
    traj = integrate_flow(vf, mu0, cfg)
    report = lipschitz_curve_check(traj, C=vf.bound_C)
    assert report.passed, f"quotient {report.max_quotient} vs allowed {report.allowed}"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        "criterion 5 PASS: max difference quotient "
        f"{report.max_quotient:.4f} <= {report.allowed}, {elapsed:.1f}s"
    )


def test_criterion_6_oscillation_convergence(rotation_sweep):
    table, _, elapsed = rotation_sweep
    assert elapsed < 600.0
    by_osc = {row.n_osc: row for row in table.rows}
    assert all(row.status == "ok" for row in table.rows)
    e1, e16 = by_osc[1].sup_w2, by_osc[16].sup_w2
    assert e16 <= 0.5 * e1, f"sup_w2 went {e1} -> {e16}"
    assert e16 <= ROTATION_N16_THRESHOLD
    print(
        f"criterion 6 PASS: sup_w2 {e1:.4f} (N=1) -> {e16:.4f} (N=16), "
        f"factor {e1 / e16:.1f}, threshold {ROTATION_N16_THRESHOLD}, {elapsed:.0f}s"
    )


def test_criterion_7_endpoint_steering(tmp_path):
    cfg = _load_config("translation_endpoint.json")
    start = time.perf_counter()
    table = run_endpoint_experiment(cfg, tmp_path)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0

    largest = max(cfg.sweep_points())
    row = {r.coords: r for r in table.rows}[largest]
    assert row.status == "ok"
    assert row.final_w2 <= 0.1

    sched = ControlSchedule.from_json((tmp_path / "rows" / row.key / "schedule.json").read_text())
    assert sched.piece_count == largest[0] * largest[1] * largest[2]
    for term in sched.terms:
        assert isinstance(term, NeuralTerm)
        assert term.A.shape == term.W.shape == (2, 2)
        assert term.theta.shape == (2,)
    print(
        f"criterion 7 PASS: final_w2 = {row.final_w2:.3g} <= 0.1 at {largest}, "
        f"{sched.piece_count} admissible pieces, {elapsed:.0f}s"
    )


def test_criterion_8_determinism(rotation_sweep, tmp_path):
    table, first_dir, _ = rotation_sweep
    cfg = _load_config("rotation_sweep.json")
    run_trajectory_experiment(cfg, tmp_path)

    def strip_wall(path):
        lines = []
        for line in (path / "results.csv").read_text().splitlines():
            parts = line.split(",")
            del parts[7]
            lines.append(",".join(parts))
        return lines

    first, second = strip_wall(first_dir), strip_wall(tmp_path)
    assert first == second
    print(f"criterion 8 PASS: {len(first) - 1} rows byte-identical (wall clock excluded)")
