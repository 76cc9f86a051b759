import json
import math
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import nodesteer.harness as harness
import nodesteer.synthesis as synthesis
from nodesteer.flow import MeasureTrajectory, support_growth_check
from nodesteer.measures import ParticleEnsemble
from nodesteer.synthesis import SynthesisParams
from nodesteer.harness import (
    RESULTS_HEADER,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    emit_plot_data,
    row_key,
    run_endpoint_experiment,
    run_trajectory_experiment,
)


def _trajectory_raw(**overrides):
    raw = {
        "kind": "trajectory",
        "seed": 0,
        "n_particles": 24,
        "initial_measure": {
            "kind": "uniform-ball",
            "params": {"center": [0.0, 0.0], "radius": 1.0},
        },
        "field": {"name": "translation", "params": {"velocity": [0.0, 0.0]}},
        "synthesis": {"n_avg": 1, "m_width": 4, "fit_tolerance": 0.1, "n_osc": [1, 2]},
        "integrator": {"method": "rk4", "base_step": 0.05, "snap_count": 3},
    }
    raw.update(overrides)
    return raw


def _endpoint_raw(**overrides):
    raw = {
        "kind": "endpoint",
        "seed": 3,
        "n_particles": 24,
        "initial_measure": {
            "kind": "uniform-ball",
            "params": {"center": [0.0, 0.0], "radius": 0.5},
        },
        "target_measure": {"kind": "translate-of-initial", "params": {"offset": [0.5, 0.0]}},
        "smoothing": 0.5,
        "synthesis": {"n_avg": 1, "m_width": 8, "fit_tolerance": 0.1, "n_osc": 2},
        "integrator": {"method": "rk4", "base_step": 0.05, "snap_count": 3},
    }
    raw.update(overrides)
    return raw


def _strip_wall(csv_text):
    out = []
    for line in csv_text.strip().splitlines():
        parts = line.split(",")
        del parts[7]
        out.append(",".join(parts))
    return out


class TestConfigParsing:
    def test_minimal_round_trip(self):
        cfg = ExperimentConfig.from_dict(_trajectory_raw())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_endpoint_round_trip(self):
        cfg = ExperimentConfig.from_dict(_endpoint_raw())
        assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda r: r.update(extra=1),
            lambda r: r["synthesis"].update(widthh=3),
            lambda r: r["field"].update(nmae="x"),
            lambda r: r["integrator"].update(steps=10),
            lambda r: r["initial_measure"].update(sigma=1.0),
            lambda r: r.update(field={"name": "rotation", "params": {"omega": 1.0, "horizn": 2.0}}),
            lambda r: r.update(field={"name": "rotation", "params": {"omega": 1.0, "omgea": 3.0}}),
            lambda r: r["initial_measure"]["params"].update(radus=5.0),
            lambda r: r.update(
                initial_measure={
                    "kind": "gaussian-truncated",
                    "params": {"sd": 3.0, "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}},
                }
            ),
            lambda r: r.update(
                initial_measure={
                    "kind": "gaussian-mixture-truncated",
                    "params": {
                        "components": [{"mean": [0.0, 0.0], "sd": 0.3}],
                        "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                    },
                }
            ),
        ],
    )
    def test_unknown_keys_rejected_at_every_level(self, mangle):
        raw = _trajectory_raw()
        mangle(raw)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("drop", ["kind", "seed", "n_particles", "initial_measure", "synthesis"])
    def test_missing_required_key(self, drop):
        raw = _trajectory_raw()
        del raw[drop]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_trajectory_needs_field(self):
        raw = _trajectory_raw()
        del raw["field"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_endpoint_needs_target(self):
        raw = _endpoint_raw()
        del raw["target_measure"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_trajectory_raw(kind="sweepy"))

    def test_snap_count_and_times_conflict(self):
        raw = _trajectory_raw()
        raw["integrator"] = {"snap_count": 5, "snap_times": [0.0, 1.0]}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_bool_seed_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_trajectory_raw(seed=True))

    def test_particle_count_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_trajectory_raw(n_particles=0))

    def test_sweep_list_entries_validated(self):
        raw = _trajectory_raw()
        raw["synthesis"]["n_osc"] = [1, "two"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_empty_sweep_list_rejected(self):
        raw = _trajectory_raw()
        raw["synthesis"]["n_osc"] = []
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_translate_of_initial_only_as_target(self):
        raw = _trajectory_raw()
        raw["initial_measure"] = {"kind": "translate-of-initial", "params": {"offset": [1.0, 0.0]}}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_translate_of_initial_param_set(self):
        raw = _endpoint_raw()
        raw["target_measure"]["params"] = {"offset": [1.0, 0.0], "scale": 2.0}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{not json")

    def test_smoothing_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_endpoint_raw(smoothing=0.0))

    def test_smoothing_must_be_a_number(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_endpoint_raw(smoothing="wide"))

    def test_sweep_points_sorted_and_deduped(self):
        raw = _trajectory_raw()
        raw["synthesis"]["n_osc"] = [4, 1, 4]
        raw["synthesis"]["m_width"] = [8, 2]
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.sweep_points() == [(1, 2, 1), (1, 2, 4), (1, 8, 1), (1, 8, 4)]

    @pytest.mark.parametrize(
        "name, normalized",
        [
            (
                "rotation_sweep.json",
                {
                    "kind": "trajectory",
                    "seed": 0,
                    "n_particles": 200,
                    "initial_measure": {"kind": "uniform-ball", "params": {"center": [0.0, 0.0], "radius": 1.0}},
                    "field": {"name": "rotation", "params": {"omega": 1.0, "radius": 2.0, "horizon": 1.0}},
                    "synthesis": {
                        "n_avg": [1],
                        "m_width": [64],
                        "n_osc": [1, 2, 4, 8, 16],
                        "fit_tolerance": 0.1,
                        "region_margin": 1.5,
                    },
                    "integrator": {"method": "rk4", "base_step": 0.01, "snap_count": 11},
                },
            ),
            (
                "translation_endpoint.json",
                {
                    "kind": "endpoint",
                    "seed": 0,
                    "n_particles": 200,
                    "initial_measure": {
                        "kind": "gaussian-truncated",
                        "params": {
                            "mean": [0.0, 0.0],
                            "std": 0.31622776601683794,
                            "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                        },
                    },
                    "target_measure": {"kind": "translate-of-initial", "params": {"offset": [2.0, 0.0]}},
                    "smoothing": 0.5,
                    "synthesis": {
                        "n_avg": [1],
                        "m_width": [64],
                        "n_osc": [1, 4, 16],
                        "fit_tolerance": 0.1,
                        "region_margin": 1.5,
                    },
                    "integrator": {"method": "rk4", "base_step": 0.01, "snap_count": 11},
                },
            ),
        ],
    )
    def test_shipped_configs_normalize_to_pinned_dicts(self, name, normalized):
        # every default filled in: a changed default changes manifest.json and
        # the resume fingerprint, so it must change this dict too
        path = Path(__file__).parent / "configs" / name
        assert ExperimentConfig.from_json(path.read_text()).to_dict() == normalized

    def test_to_dict_is_a_copy(self):
        raw = _trajectory_raw()
        cfg = ExperimentConfig.from_dict(raw)
        raw["field"]["params"]["velocity"][1] = 7.0
        cfg.to_dict()["synthesis"]["n_osc"].append(99)
        cfg.to_dict()["field"]["params"]["velocity"][0] = 5.0
        assert cfg.sweep_points() == [(1, 4, 1), (1, 4, 2)]
        assert cfg.to_dict()["field"]["params"]["velocity"] == [0.0, 0.0]

    def test_trajectory_field_built_once_per_sweep(self, tmp_path, monkeypatch):
        built = []
        benchmark_field = harness.benchmark_field

        def counted(*args, **kwargs):
            built.append(args or kwargs)
            return benchmark_field(*args, **kwargs)

        monkeypatch.setattr(harness, "benchmark_field", counted)
        cfg = ExperimentConfig.from_dict(_trajectory_raw())
        table = run_trajectory_experiment(cfg, tmp_path)
        assert [r.status for r in table.rows] == ["ok", "ok"]
        assert len(built) == 1

    def test_translate_target_builds_shifted_ensemble(self):
        cfg = ExperimentConfig.from_dict(_endpoint_raw())
        mu0, muf, _ = cfg.build_inputs()
        assert np.allclose(muf.points - mu0.points, [0.5, 0.0], atol=1e-15)

    def test_row_key_format(self):
        assert row_key((2, 16, 8)) == "navg2_m16_nosc8"


class TestResultRow:
    def _row(self, **kw):
        base = dict(
            n_avg=1, m=4, n_osc=2, sup_w2=0.125, final_w2=0.0625, max_fit_err=0.01,
            pieces=8, wall_s=1.23456, status="ok",
        )
        base.update(kw)
        return ResultRow(**base)

    def test_csv_line(self):
        assert self._row().to_csv_line() == "1,4,2,0.125,0.0625,0.01,8,1.235,ok"

    def test_dict_round_trip(self):
        row = self._row(status="failed", error="ValueError: boom")
        assert ResultRow.from_dict(row.to_dict()) == row

    def test_nan_metrics_survive_json(self):
        row = self._row(sup_w2=math.nan, final_w2=math.nan, max_fit_err=math.nan, status="failed")
        back = ResultRow.from_dict(json.loads(json.dumps(row.to_dict())))
        assert math.isnan(back.sup_w2)


class TestTrajectoryExperiment:
    def test_zero_field_rows_are_exact(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_trajectory_raw())
        table = run_trajectory_experiment(cfg, tmp_path)
        assert len(table.rows) == 2
        for row in table.rows:
            assert row.status == "ok"
            assert row.sup_w2 == 0.0
            assert row.final_w2 == 0.0

    def test_artifact_layout(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_trajectory_raw())
        table = run_trajectory_experiment(cfg, tmp_path)
        assert (tmp_path / "mu0.csv").exists()
        assert (tmp_path / "reference" / "trajectory.json").exists()
        text = (tmp_path / "results.csv").read_text()
        assert text.splitlines()[0] == RESULTS_HEADER
        assert len(text.strip().splitlines()) == 3
        for row in table.rows:
            row_dir = tmp_path / "rows" / row.key
            for name in ("row.json", "schedule.json", "report.json"):
                assert (row_dir / name).exists()
            assert (row_dir / "trajectory" / "trajectory.json").exists()

    def test_manifest_lists_every_file(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_trajectory_raw())
        table = run_trajectory_experiment(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == cfg.to_dict()
        assert manifest["inputs"] == ["mu0.csv"]
        listed = set(manifest["reference"])
        for entry in manifest["rows"].values():
            listed.update(entry["files"])
        listed.update(manifest["inputs"])
        listed.add(manifest["results_csv"])
        for rel in listed:
            assert (tmp_path / rel).exists(), rel
        on_disk = {
            str(p.relative_to(tmp_path))
            for p in tmp_path.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert on_disk == listed
        assert set(manifest["rows"]) == {r.key for r in table.rows}

    def test_deterministic_across_runs(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_trajectory_raw())
        run_trajectory_experiment(cfg, tmp_path / "a")
        run_trajectory_experiment(cfg, tmp_path / "b")
        a = _strip_wall((tmp_path / "a" / "results.csv").read_text())
        b = _strip_wall((tmp_path / "b" / "results.csv").read_text())
        assert a == b

    def test_parallel_matches_sequential(self, tmp_path):
        endpoint = _endpoint_raw()
        endpoint["synthesis"]["n_osc"] = [1, 2]
        for raw, run in [(_trajectory_raw(), run_trajectory_experiment), (endpoint, run_endpoint_experiment)]:
            cfg = ExperimentConfig.from_dict(raw)
            out = tmp_path / cfg.kind
            run(cfg, out / "seq", parallel=1)
            run(cfg, out / "par", parallel=2)
            seq = _strip_wall((out / "seq" / "results.csv").read_text())
            par = _strip_wall((out / "par" / "results.csv").read_text())
            assert seq == par

    def test_resume_reuses_completed_rows(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_trajectory_raw())
        first = run_trajectory_experiment(cfg, tmp_path)
        kept = tmp_path / "rows" / first.rows[0].key / "row.json"
        removed_key = first.rows[1].key
        kept_stamp = kept.stat().st_mtime_ns
        import shutil

        shutil.rmtree(tmp_path / "rows" / removed_key)
        second = run_trajectory_experiment(cfg, tmp_path, resume=True)
        assert kept.stat().st_mtime_ns == kept_stamp
        assert (tmp_path / "rows" / removed_key / "row.json").exists()
        assert _strip_wall("\n".join(r.to_csv_line() for r in first.rows)) == _strip_wall(
            "\n".join(r.to_csv_line() for r in second.rows)
        )

    def test_row_failure_is_isolated(self, tmp_path):
        raw = _trajectory_raw()
        raw["synthesis"]["m_width"] = [2, 1024]
        raw["synthesis"]["n_osc"] = 1
        cfg = ExperimentConfig.from_dict(raw)
        table = run_trajectory_experiment(cfg, tmp_path)
        by_m = {r.m: r for r in table.rows}
        assert by_m[2].status == "ok"
        assert by_m[1024].status == "failed"
        assert "coarse" in by_m[1024].error
        assert math.isnan(by_m[1024].sup_w2)
        assert table.any_failed and not table.all_failed
        line = (tmp_path / "results.csv").read_text().strip().splitlines()[2]
        assert line.split(",")[-1] == "failed"
        assert not (tmp_path / "rows" / by_m[1024].key / "schedule.json").exists()

    def test_failed_rows_recomputed_on_resume(self, tmp_path):
        raw = _trajectory_raw()
        raw["synthesis"]["m_width"] = [2, 1024]
        raw["synthesis"]["n_osc"] = 1
        cfg = ExperimentConfig.from_dict(raw)
        run_trajectory_experiment(cfg, tmp_path)
        failed_row = tmp_path / "rows" / row_key((1, 1024, 1)) / "row.json"
        stamp = failed_row.stat().st_mtime_ns
        table = run_trajectory_experiment(cfg, tmp_path, resume=True)
        assert failed_row.stat().st_mtime_ns != stamp
        assert {r.status for r in table.rows} == {"ok", "failed"}

    def test_rerun_clears_the_previous_row_artifacts(self, tmp_path, monkeypatch):
        raw = _trajectory_raw()
        raw["synthesis"].update(m_width=64, n_osc=1)
        cfg = ExperimentConfig.from_dict(raw)
        (first,) = run_trajectory_experiment(cfg, tmp_path).rows
        assert first.status == "ok"

        def too_coarse(*args, **kwargs):
            raise ValueError("region grid too coarse for the requested width")

        # the rerun fails the same coordinate, so it reuses the row's directory
        monkeypatch.setattr(synthesis, "fit_superposition", too_coarse)
        (second,) = run_trajectory_experiment(cfg, tmp_path).rows
        assert second.status == "failed"
        row_dir = tmp_path / "rows" / second.key
        assert sorted(p.name for p in row_dir.rglob("*")) == ["row.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["rows"][second.key]["files"] == [f"rows/{second.key}/row.json"]

    def test_rerun_with_fewer_snapshots_drops_the_old_reference_files(self, tmp_path):
        raw = _trajectory_raw()
        raw["integrator"]["snap_count"] = 5
        run_trajectory_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        raw["integrator"]["snap_count"] = 3
        run_trajectory_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        expected = [f"reference/snap_{i}.csv" for i in range(3)] + ["reference/trajectory.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["reference"] == expected
        assert sorted(str(p.relative_to(tmp_path)) for p in (tmp_path / "reference").iterdir()) == expected

    def _row_stamps(self, out_dir):
        return {p.parent.name: p.stat().st_mtime_ns for p in (out_dir / "rows").glob("*/row.json")}

    def test_resume_after_a_seed_change_recomputes_every_row(self, tmp_path):
        raw = _endpoint_raw(seed=0)
        raw["synthesis"]["n_osc"] = [1, 2]
        run_endpoint_experiment(ExperimentConfig.from_dict(raw), tmp_path / "out")
        stamps = self._row_stamps(tmp_path / "out")
        raw["seed"] = 7
        cfg = ExperimentConfig.from_dict(raw)
        resumed = run_endpoint_experiment(cfg, tmp_path / "out", resume=True)
        fresh = run_endpoint_experiment(cfg, tmp_path / "fresh")
        assert all(self._row_stamps(tmp_path / "out")[k] != v for k, v in stamps.items())
        assert _strip_wall("\n".join(r.to_csv_line() for r in resumed.rows)) == _strip_wall(
            "\n".join(r.to_csv_line() for r in fresh.rows)
        )

    def test_resume_after_adding_an_n_osc_value_computes_only_the_new_row(self, tmp_path, monkeypatch):
        raw = _trajectory_raw()
        first = run_trajectory_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        stamps = self._row_stamps(tmp_path)
        computed = []
        compute_row = harness.compute_row

        def recording_compute_row(cfg, coords, *rest):
            computed.append(coords)
            return compute_row(cfg, coords, *rest)

        monkeypatch.setattr(harness, "compute_row", recording_compute_row)
        raw["synthesis"]["n_osc"] = [1, 2, 4]
        second = run_trajectory_experiment(ExperimentConfig.from_dict(raw), tmp_path, resume=True)
        assert computed == [(1, 4, 4)]
        assert {k: v for k, v in self._row_stamps(tmp_path).items() if k in stamps} == stamps
        assert second.rows[:2] == first.rows
        assert second.rows[2].status == "ok"

    @pytest.mark.parametrize(
        "damage",
        [
            lambda row_dir: (row_dir / "schedule.json").unlink(),
            lambda row_dir: (row_dir / "row.json").write_text("[]\n"),
        ],
        ids=["schedule-missing", "row-json-not-an-object"],
    )
    def test_resume_recomputes_a_damaged_row(self, tmp_path, damage):
        cfg = ExperimentConfig.from_dict(_trajectory_raw())
        first = run_trajectory_experiment(cfg, tmp_path)
        stamps = self._row_stamps(tmp_path)
        broken, kept = first.rows[0].key, first.rows[1].key
        damage(tmp_path / "rows" / broken)
        second = run_trajectory_experiment(cfg, tmp_path, resume=True)
        after = self._row_stamps(tmp_path)
        assert after[broken] != stamps[broken]
        assert after[kept] == stamps[kept]
        assert (tmp_path / "rows" / broken / "schedule.json").exists()
        assert second.rows[0].status == "ok"

    def test_report_records_support_containment(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_trajectory_raw())
        table = run_trajectory_experiment(cfg, tmp_path)
        row_dir = tmp_path / "rows" / table.rows[0].key
        report = json.loads((row_dir / "report.json").read_text())
        growth = report["support_growth"]
        assert growth["passed"] and growth["first_violation"] is None
        assert growth["bound"] == report["omega_radius"]
        assert growth["max_radius"] <= report["support_radius"] + 1e-12

        # the same check on that trajectory with one particle pushed outside Omega
        traj = MeasureTrajectory.load(row_dir / "trajectory")
        points = np.array(traj.snapshots[1].points)
        points[5] = [report["omega_radius"] + 0.25, 0.0]
        snaps = list(traj.snapshots)
        snaps[1] = ParticleEnsemble(points)
        pushed = MeasureTrajectory(traj.times, snaps)
        check = support_growth_check(
            pushed, report["support_radius"], report["region_R"], report["bound_C"] + report["delta"]
        ).to_dict()
        assert check["passed"] is False
        assert check["first_violation"] == (float(traj.times[1]), 5)

    def test_support_containment_is_null_for_a_measure_at_the_origin(self, tmp_path):
        raw = _trajectory_raw(
            n_particles=1,
            initial_measure={"kind": "explicit-points", "params": {"points": [[0.0, 0.0]]}},
        )
        row = run_trajectory_experiment(ExperimentConfig.from_dict(raw), tmp_path).rows[0]
        assert row.status == "ok"
        report = json.loads((tmp_path / "rows" / row.key / "report.json").read_text())
        assert report["support_radius"] == 0.0
        growth = report["support_growth"]
        assert growth["passed"] and growth["bound"] == report["region_R"]

    def test_kind_mismatch(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_endpoint_raw())
        with pytest.raises(ConfigError):
            run_trajectory_experiment(cfg, tmp_path)


class TestEndpointExperiment:
    def test_translation_target_reached(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_endpoint_raw())
        table = run_endpoint_experiment(cfg, tmp_path)
        assert (tmp_path / "muf.csv").exists()
        (row,) = table.rows
        assert row.status == "ok"
        assert row.final_w2 < 0.05

    def test_kind_mismatch(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_trajectory_raw())
        with pytest.raises(ConfigError):
            run_endpoint_experiment(cfg, tmp_path)

    def test_sequential_rows_reuse_the_sweep_inputs(self, tmp_path, monkeypatch):
        calls = {"sample_measure": 0, "displacement_target_field": 0, "load": 0}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        monkeypatch.setattr(harness, "sample_measure", count(harness, "sample_measure"))
        monkeypatch.setattr(harness, "displacement_target_field", count(harness, "displacement_target_field"))
        monkeypatch.setattr(MeasureTrajectory, "load", staticmethod(count(MeasureTrajectory, "load")))
        raw = _endpoint_raw()
        raw["synthesis"]["n_osc"] = [1, 2, 4]
        table = run_endpoint_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert [r.status for r in table.rows] == ["ok"] * 3
        assert calls == {"sample_measure": 1, "displacement_target_field": 1, "load": 0}

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_rows_run_in_process_on_the_sweep_inputs(self, tmp_path, monkeypatch, parallel):
        built, ran = [], []
        build_inputs, compute_row = ExperimentConfig.build_inputs, harness.compute_row

        def recording_build_inputs(cfg):
            built.append(build_inputs(cfg))
            return built[-1]

        def recording_compute_row(cfg, coords, inputs, reference, *rest):
            ran.append((coords, os.getpid(), threading.get_ident(), inputs))
            return compute_row(cfg, coords, inputs, reference, *rest)

        monkeypatch.setattr(ExperimentConfig, "build_inputs", recording_build_inputs)
        monkeypatch.setattr(harness, "compute_row", recording_compute_row)
        raw = _endpoint_raw()
        raw["synthesis"]["n_osc"] = [1, 2, 4]
        table = run_endpoint_experiment(ExperimentConfig.from_dict(raw), tmp_path, parallel=parallel)
        assert [r.status for r in table.rows] == ["ok"] * 3
        assert len(built) == 1
        assert sorted(coords for coords, *_ in ran) == [r.coords for r in table.rows]
        assert all(pid == os.getpid() and inputs is built[0] for _, pid, _, inputs in ran)
        if parallel == 1:
            assert {thread for _, _, thread, _ in ran} == {threading.get_ident()}


def _count_fits(monkeypatch):
    widths = []
    fit = synthesis.fit_superposition

    def counted(target, region, m, *args, **kwargs):
        widths.append(m)
        return fit(target, region, m, *args, **kwargs)

    monkeypatch.setattr(synthesis, "fit_superposition", counted)
    return widths


class TestSharedFits:
    @pytest.mark.parametrize("parallel", [1, 2])
    def test_each_n_avg_m_pair_is_fitted_once(self, tmp_path, monkeypatch, parallel):
        widths = _count_fits(monkeypatch)
        raw = _endpoint_raw()
        raw["synthesis"].update(m_width=[8, 16], n_osc=[1, 2, 4])
        table = run_endpoint_experiment(ExperimentConfig.from_dict(raw), tmp_path, parallel=parallel)
        assert [r.status for r in table.rows] == ["ok"] * 6
        assert sorted(widths) == [8, 16]

    def test_rows_sharing_a_fit_match_one_row_sweeps(self, tmp_path):
        raw = _endpoint_raw()
        raw["synthesis"]["n_osc"] = [1, 2, 4]
        run_endpoint_experiment(ExperimentConfig.from_dict(raw), tmp_path / "all", parallel=2)
        for n_osc in (1, 2, 4):
            raw["synthesis"]["n_osc"] = n_osc
            one = tmp_path / f"nosc{n_osc}"
            run_endpoint_experiment(ExperimentConfig.from_dict(raw), one)
            key = row_key((1, 8, n_osc))
            files = sorted(
                p.relative_to(one / "rows" / key)
                for p in (one / "rows" / key).rglob("*")
                if p.is_file() and p.name != "row.json"
            )
            assert len(files) == 3 + 3  # schedule, report, trajectory.json and 3 snapshots
            for rel in files:
                shared = (tmp_path / "all" / "rows" / key / rel).read_bytes()
                assert shared == (one / "rows" / key / rel).read_bytes(), rel

    def test_piece_cap_fails_the_row_before_any_fit(self, tmp_path, monkeypatch):
        widths = _count_fits(monkeypatch)
        raw = _trajectory_raw()
        raw["synthesis"].update(m_width=1000, n_osc=1001)
        (row,) = run_trajectory_experiment(ExperimentConfig.from_dict(raw), tmp_path).rows
        assert row.error == "ValueError: 1001000 pieces exceed the 1000000 schedule cap"
        assert widths == []

    def test_memo_fits_each_key_once_under_contention(self):
        fitted = []

        def fit(params):
            fitted.append((params.n_avg, params.m_width))
            time.sleep(0.002)
            return object()

        memo = harness._FitMemo(fit)
        params = [SynthesisParams(n_avg=a, m_width=m, n_osc=k) for a in (1, 2) for m in (4, 8) for k in (1, 2, 4)]
        seen = {}

        def worker(i):
            for p in params[i % len(params):] + params[: i % len(params)]:
                seen.setdefault((p.n_avg, p.m_width), set()).add(id(memo(p)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(fitted) == [(1, 4), (1, 8), (2, 4), (2, 8)]
        assert all(len(ids) == 1 for ids in seen.values())

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_a_failing_fit_fails_every_row_of_its_key(self, tmp_path, monkeypatch, parallel):
        widths = _count_fits(monkeypatch)
        raw = _trajectory_raw()
        raw["synthesis"].update(m_width=[2, 1024], n_osc=[1, 2])
        table = run_trajectory_experiment(ExperimentConfig.from_dict(raw), tmp_path, parallel=parallel)
        by_coords = {r.coords: r for r in table.rows}
        for n_osc in (1, 2):
            assert by_coords[(1, 2, n_osc)].status == "ok"
            failed = by_coords[(1, 1024, n_osc)]
            assert failed.status == "failed"
            assert failed.error == "ValueError: region grid too coarse for the requested width"
        # a failed fit is not kept: each row of its key tries again
        assert sorted(widths) == [2, 1024, 1024]


def _plot_table(rows, tmp_path):
    cfg = ExperimentConfig.from_dict(_trajectory_raw())
    return ResultTable(config=cfg, rows=tuple(rows), out_dir=Path(tmp_path))


def _mk_row(n_avg, m, n_osc, **kw):
    base = dict(
        sup_w2=1.0 / n_osc, final_w2=0.5 / n_osc, max_fit_err=0.1 / m,
        pieces=n_avg * m * n_osc, wall_s=0.1, status="ok",
    )
    base.update(kw)
    return ResultRow(n_avg=n_avg, m=m, n_osc=n_osc, **base)


class TestEmitPlotData:
    def test_single_row_single_file(self, tmp_path):
        paths = emit_plot_data(_plot_table([_mk_row(1, 4, 2)], tmp_path))
        assert len(paths) == 1
        assert paths[0].name == "plot_n_osc__m4_n_avg1.csv"
        lines = paths[0].read_text().strip().splitlines()
        assert lines == ["n_osc,sup_w2", "2,0.5"]

    def test_osc_sweep_sorted_lines(self, tmp_path):
        rows = [_mk_row(1, 4, n) for n in (16, 1, 4, 8, 2)]
        (path,) = emit_plot_data(_plot_table(rows, tmp_path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n_osc,sup_w2"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "4", "8", "16"]

    def test_grid_gives_one_file_per_off_axis_combo(self, tmp_path):
        rows = [_mk_row(1, m, n) for m in (2, 4, 8) for n in (1, 2, 4, 8, 16)]
        paths = emit_plot_data(_plot_table(rows, tmp_path))
        assert len(paths) == 3
        for p in paths:
            lines = p.read_text().strip().splitlines()
            assert lines[0] == "n_osc,sup_w2"
            assert len(lines) == 6

    def test_m_axis_pairs_with_fit_error(self, tmp_path):
        rows = [_mk_row(1, m, 4) for m in (2, 8)]
        (path,) = emit_plot_data(_plot_table(rows, tmp_path))
        assert path.name == "plot_m__n_osc4_n_avg1.csv"
        lines = path.read_text().strip().splitlines()
        assert lines == ["m,max_fit_err", "2,0.05", "8,0.0125"]

    def test_failed_rows_excluded(self, tmp_path):
        rows = [
            _mk_row(1, 4, 1),
            _mk_row(1, 4, 2, status="failed", sup_w2=math.nan, final_w2=math.nan, max_fit_err=math.nan),
        ]
        (path,) = emit_plot_data(_plot_table(rows, tmp_path))
        lines = path.read_text().strip().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1"]

    def test_all_failed_raises(self, tmp_path):
        rows = [_mk_row(1, 4, 1, status="failed")]
        with pytest.raises(ValueError):
            emit_plot_data(_plot_table(rows, tmp_path))

    def test_explicit_out_dir(self, tmp_path):
        dest = tmp_path / "plots"
        paths = emit_plot_data(_plot_table([_mk_row(1, 4, 2)], tmp_path / "t"), out_dir=dest)
        assert paths[0].parent == dest
