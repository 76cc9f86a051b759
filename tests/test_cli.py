import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nodesteer.cli import EXIT_ALL_FAILED, EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, main
from nodesteer.flow import MeasureTrajectory
from nodesteer.harness import ConfigError, ExperimentConfig, run_endpoint_experiment, run_trajectory_experiment
from nodesteer.synthesis import ControlSchedule

CONFIGS = Path(__file__).parent / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"

def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def _trajectory_payload(**overrides):
    payload = {
        "kind": "trajectory",
        "seed": 0,
        "n_particles": 24,
        "initial_measure": {
            "kind": "uniform-ball",
            "params": {"center": [0.0, 0.0], "radius": 1.0},
        },
        "field": {"name": "translation", "params": {"velocity": [0.0, 0.0]}},
        "synthesis": {"n_avg": 1, "m_width": 4, "fit_tolerance": 0.1, "n_osc": 2},
        "integrator": {"method": "rk4", "base_step": 0.05, "snap_count": 3},
    }
    payload.update(overrides)
    return payload


def _endpoint_payload(**overrides):
    payload = {
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
    payload.update(overrides)
    return payload


class TestSynthesize:
    def test_writes_schedule_and_report(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload())
        out = tmp_path / "out"
        assert main(["synthesize", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sched = ControlSchedule.from_json((out / "schedule.json").read_text())
        assert sched.piece_count == 1
        report = json.loads((out / "report.json").read_text())
        assert report["piece_count"] == 1
        assert "schedule.json" in capsys.readouterr().out

    def test_sweep_lists_rejected(self, tmp_path):
        payload = _trajectory_payload()
        payload["synthesis"]["n_osc"] = [1, 2]
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestSimulate:
    def test_field_trajectory_saved(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload())
        out = tmp_path / "traj"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        traj = MeasureTrajectory.load(out)
        assert traj.times.size == 3

    def test_schedule_key_replays_synthesized_controls(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload())
        sched_dir = tmp_path / "sched"
        assert main(["synthesize", "--config", cfg, "--out", str(sched_dir)]) == EXIT_OK
        payload = _trajectory_payload(schedule=str(sched_dir / "schedule.json"))
        cfg2 = _write(tmp_path, "cfg2.json", payload)
        out = tmp_path / "replay"
        assert main(["simulate", "--config", cfg2, "--out", str(out)]) == EXIT_OK
        traj = MeasureTrajectory.load(out)
        # the zero field's schedule holds every particle still
        assert (traj.final.points == traj.snapshots[0].points).all()

    def test_missing_schedule_file_is_runtime_error(self, tmp_path):
        payload = _trajectory_payload(schedule=str(tmp_path / "nope.json"))
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_ALL_FAILED

    def test_non_logistic_schedule_writes_nothing(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload())
        sched_dir = tmp_path / "sched"
        assert main(["synthesize", "--config", cfg, "--out", str(sched_dir)]) == EXIT_OK
        sched = json.loads((sched_dir / "schedule.json").read_text())
        sched["activation"] = "relu"
        (sched_dir / "schedule.json").write_text(json.dumps(sched))
        cfg2 = _write(tmp_path, "cfg2.json", _trajectory_payload(schedule=str(sched_dir / "schedule.json")))
        out = tmp_path / "replay"
        capsys.readouterr()
        assert main(["simulate", "--config", cfg2, "--out", str(out)]) == EXIT_ALL_FAILED
        assert "'relu'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                lambda d: {
                    "activation": d["activation"],
                    "breakpoints": d["breakpoints"],
                    "pieces": [d["terms"][i] for i in d["order"]],
                },
                "'pieces', the older format",
            ),
            (lambda d: {**d, "order": [True] * len(d["order"])}, "list of integers"),
            (lambda d: {**d, "order": [len(d["terms"])] * len(d["order"])}, "term indices must lie in"),
            (lambda d: {**d, "order": d["order"][1:]}, "need as many term indices"),
        ],
    )
    def test_bad_schedule_file_fails_without_traceback(self, tmp_path, change, message):
        # a schedule file is outside input: the command reports it and exits non-zero
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload())
        sched_dir = tmp_path / "sched"
        assert main(["synthesize", "--config", cfg, "--out", str(sched_dir)]) == EXIT_OK
        path = sched_dir / "schedule.json"
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
        cfg2 = _write(tmp_path, "cfg2.json", _trajectory_payload(schedule=str(path)))
        out = tmp_path / "replay"
        cmd = [sys.executable, "-m", "nodesteer.cli", "simulate", "--config", cfg2, "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_ALL_FAILED
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
        assert not out.exists()


class TestSweep:
    def test_clean_sweep_exit_zero(self, tmp_path, capsys):
        payload = _trajectory_payload()
        payload["synthesis"]["n_osc"] = [1, 2]
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "results.csv").exists()
        assert (out / "manifest.json").exists()
        assert list(out.glob("plot_*.csv"))
        assert "2 rows (0 failed)" in capsys.readouterr().out

    def test_partial_failure_exit_three(self, tmp_path):
        payload = _trajectory_payload()
        payload["synthesis"].update(m_width=[2, 1024])
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_PARTIAL

    def test_all_failed_exit_two(self, tmp_path):
        payload = _trajectory_payload()
        payload["synthesis"].update(m_width=1024)
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ALL_FAILED
        assert not list(out.glob("plot_*.csv"))

    def test_endpoint_config_rejected(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json", _endpoint_payload())
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_out_dir_from_config(self, tmp_path):
        out = tmp_path / "configured"
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload(out_dir=str(out)))
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        assert (out / "results.csv").exists()

    def test_seed_override_changes_inputs(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload())
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "7"])
        a = (tmp_path / "a" / "mu0.csv").read_text()
        b = (tmp_path / "b" / "mu0.csv").read_text()
        assert a != b

    def test_resume_flag(self, tmp_path):
        payload = _trajectory_payload()
        payload["synthesis"]["n_osc"] = [1, 2]
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(out), "--resume"]) == EXIT_OK


class TestEndpoint:
    def test_endpoint_sweep(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json", _endpoint_payload())
        out = tmp_path / "o"
        assert main(["endpoint", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "muf.csv").exists()

    def test_trajectory_config_rejected(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload())
        assert main(["endpoint", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload(bogus=1))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_no_output_directory_anywhere(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload())
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG

    def test_non_string_out_dir(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload(out_dir=5))
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        assert "out_dir" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "section, entries",
        [
            pytest.param("integrator", {"method": "rk5"}, id="integrator0"),
            pytest.param("integrator", {"method": "euler"}, id="integrator-euler"),
            pytest.param("smoothing", 0, id="trajectory-smoothing-zero"),
            pytest.param("smoothing", -1, id="trajectory-smoothing-negative"),
            pytest.param(
                "field", {"name": "rotation", "params": {"omega": 1.0, "horizn": 2.0}}, id="field-param-horizn"
            ),
            pytest.param(
                "field", {"name": "rotation", "params": {"omega": 1.0, "omgea": 3.0}}, id="field-param-omgea"
            ),
            pytest.param(
                "initial_measure",
                {"kind": "uniform-ball", "params": {"center": [0.0, 0.0], "radus": 5.0}},
                id="measure-param-radus",
            ),
            pytest.param(
                "initial_measure",
                {
                    "kind": "gaussian-truncated",
                    "params": {"sd": 3.0, "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}},
                },
                id="measure-param-sd",
            ),
            pytest.param("integrator", {"base_step": 0}, id="integrator1"),
            pytest.param("integrator", {"base_step": "fast"}, id="integrator2"),
            pytest.param("integrator", {"snap_times": [0.5, 1.0]}, id="integrator3"),
            pytest.param("integrator", {"snap_times": [0.0]}, id="snap-times-one-entry"),
            pytest.param("synthesis", {"region_margin": 0.5}, id="synthesis0"),
            pytest.param("synthesis", {"fit_tolerance": -1}, id="synthesis1"),
            pytest.param("synthesis", {"seed": "x"}, id="synthesis2"),
            pytest.param("synthesis", {"grid_per_axis": 32}, id="synthesis3"),
            pytest.param("synthesis", {"refine_steps": 0}, id="synthesis4"),
            pytest.param("synthesis", {"ridge": 1e-9}, id="synthesis5"),
            pytest.param("synthesis", {"seed": -1}, id="synthesis6"),
            pytest.param("seed", -1, id="seed0"),
            pytest.param("integrator", {"snap_count": "5"}, id="snap-count-string"),
            pytest.param("integrator", {"snap_count": 2.7}, id="snap-count-fraction"),
            pytest.param("integrator", {"base_step": "0.01"}, id="base-step-string"),
            pytest.param("integrator", {"base_step": True}, id="base-step-bool"),
            pytest.param("synthesis", {"fit_tolerance": "0.1"}, id="fit-tolerance-string"),
            pytest.param("synthesis", {"fit_tolerance": True}, id="fit-tolerance-bool"),
            pytest.param("smoothing", "0.5", id="smoothing-string"),
            pytest.param("integrator", {"snap_times": ["0", "1"]}, id="snap-times-strings"),
            pytest.param("integrator", {"base_step": float("inf")}, id="base-step-inf"),
            pytest.param("smoothing", float("nan"), id="smoothing-nan"),
            pytest.param("smoothing", float("inf"), id="smoothing-inf"),
            pytest.param("synthesis", {"fit_tolerance": float("inf")}, id="fit-tolerance-inf"),
            pytest.param("synthesis", {"fit_tolerance": 10**400}, id="fit-tolerance-overflow"),
            pytest.param("integrator", {"snap_times": [0.0, float("inf")]}, id="snap-times-inf"),
            pytest.param("field", {"name": "vortex-street", "params": {}}, id="field-unknown-name"),
            pytest.param("field", {"name": "rotation", "params": {}}, id="field-missing-param"),
            pytest.param("field", {"name": "rotation", "params": {"omega": "fast"}}, id="field-param-string"),
            pytest.param("integrator", {"snap_times": [0, 0.5, 2.0]}, id="snap-times-past-horizon"),
            pytest.param(
                None,
                _trajectory_payload(target_measure={"kind": "translate-of-initial", "params": {"offset": [0.5, 0.0]}}),
                id="trajectory-with-target-measure",
            ),
            pytest.param(
                None, _endpoint_payload(field={"name": "bogus", "params": {}}), id="endpoint-with-field"
            ),
            pytest.param(
                None,
                _endpoint_payload(integrator={"snap_times": [0, 0.5, 2.0]}),
                id="endpoint-snap-times-past-horizon",
            ),
            pytest.param(
                "field",
                {
                    "name": "neural-static",
                    "params": {
                        "terms": [{"A": [[0.1, 0.0], [0.0, 0.1]], "W": [[1.0, 0.0], [0.0, 1.0]], "theta": [0.0, 0.0]}],
                        "activation": "relu",
                    },
                },
                id="field-neural-static-relu",
            ),
            pytest.param("field", {"name": "rotation", "params": {"omega": float("nan")}}, id="field-param-nan"),
            pytest.param("field", {"name": "rotation", "params": {"omega": float("inf")}}, id="field-param-inf"),
            pytest.param("field", {"name": "rotation", "params": {"omega": "1.0"}}, id="field-param-numeric-string"),
            pytest.param("field", {"name": "rotation", "params": {"omega": True}}, id="field-param-bool"),
            pytest.param(
                "initial_measure",
                {"kind": "uniform-ball", "params": {"center": [0.0, 0.0], "radius": "0.5"}},
                id="measure-param-numeric-string",
            ),
            pytest.param(
                "initial_measure",
                {"kind": "uniform-ball", "params": {"center": [0.0, 0.0, 0.0], "radius": 1.0}},
                id="measure-3d-field-2d",
            ),
            pytest.param(
                None,
                _endpoint_payload(
                    initial_measure={"kind": "explicit-points", "params": {"points": [[0.0, 0.0, 0.0]] * 24}},
                    target_measure={"kind": "explicit-points", "params": {"points": [[1.0, 0.0]] * 24}},
                ),
                id="explicit-points-3d-target-2d",
            ),
            pytest.param(
                None,
                _endpoint_payload(target_measure={"kind": "translate-of-initial", "params": {"offset": [0.5, 0.0, 0.0]}}),
                id="offset-3d-measure-2d",
            ),
        ],
    )
    def test_bad_integrator_rejected_at_parse(self, section, entries, tmp_path):
        # without a section, entries is the whole payload
        payload = entries if section is None else _trajectory_payload(**{section: entries})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(payload)
        cfg = _write(tmp_path, "cfg.json", payload)
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(sweep_out)]) == EXIT_CONFIG
        assert not sweep_out.exists()
        out = tmp_path / "synth"
        assert main(["synthesize", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command, payload", [("sweep", _trajectory_payload), ("endpoint", _endpoint_payload)])
    def test_unknown_measure_kind_writes_nothing(self, command, payload, tmp_path):
        cfg = _write(tmp_path, "cfg.json", payload(initial_measure={"kind": "blob", "params": {}}))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (
                lambda m: m["params"]["region"].update(radus=5.0),
                "ball region takes keys ['center', 'kind', 'radius'], got ['center', 'kind', 'radius', 'radus']",
            ),
            (
                lambda m: m["params"]["region"].pop("radius"),
                "ball region takes keys ['center', 'kind', 'radius'], got ['center', 'kind']",
            ),
            (
                lambda m: m.update(kind="explicit-points", params={"points": [[0.0, 0.0], [float("nan"), 1.0]]}),
                "explicit-points entries [1] are not finite",
            ),
            (lambda m: m["params"].update(region=5), "a region must be an object, got 5"),
            (
                lambda m: m.update(kind="explicit-points", params={}),
                "measure kind 'explicit-points' missing required parameter 'points'",
            ),
            (
                lambda m: m.update(
                    kind="gaussian-mixture-truncated",
                    params={"components": [{"std": 0.3}], "region": m["params"]["region"]},
                ),
                "measure kind 'gaussian-mixture-truncated' missing required parameter 'mean'",
            ),
            (lambda m: m.update(kind="two-moons", params={"scale": "big"}), "scale must be a number, got 'big'"),
            (lambda m: m["params"].update(std="0.3"), "std must be a number, got '0.3'"),
            (lambda m: m["params"].update(mean=[0.0, True]), "mean entries must be a number, got True"),
            (
                lambda m: m["params"]["region"].update(center=[0.0, float("nan")]),
                "region center entries [1] are not finite",
            ),
            (lambda m: m["params"].update(cov=[[0.1, 0.05], [0.0, 0.1]]), "cov must be symmetric"),
        ],
        ids=[
            "region-unknown-key",
            "region-missing-radius",
            "explicit-points-nan",
            "region-not-an-object",
            "explicit-points-without-points",
            "mixture-component-without-mean",
            "two-moons-scale-string",
            "std-string",
            "mean-bool",
            "region-center-nan",
            "cov-not-symmetric",
        ],
    )
    def test_bad_initial_measure_writes_nothing(self, mangle, message, tmp_path, capsys):
        payload = json.loads((CONFIGS / "translation_endpoint.json").read_text())
        mangle(payload["initial_measure"])
        cfg = _write(tmp_path, "cfg.json", payload)
        out = tmp_path / "o"
        assert main(["endpoint", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("feature_scale", 4.0),
            ("ridge", 1e-9),
            ("grid_per_axis", 32),
            ("refine_steps", 0),
            ("refine_lr", 1e-2),
        ],
    )
    def test_removed_fit_key_named_in_the_error(self, key, value, tmp_path, capsys):
        payload = _trajectory_payload()
        payload["synthesis"][key] = value
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(payload)
        cfg = _write(tmp_path, "cfg.json", payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"unknown key(s) ['{key}'] in synthesis" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "synthesize"])
    def test_seed_flag_validated_before_any_output(self, command, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload())
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload", [("sweep", _trajectory_payload), ("endpoint", _endpoint_payload)], ids=["sweep", "endpoint"]
    )
    def test_parallel_flag_rejected_before_any_output(self, command, payload, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", payload())
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(out), "--parallel", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "run, payload",
        [(run_trajectory_experiment, _trajectory_payload), (run_endpoint_experiment, _endpoint_payload)],
        ids=["trajectory", "endpoint"],
    )
    @pytest.mark.parametrize("parallel", [0, 2])
    def test_sweep_functions_take_parallel_1_only(self, run, payload, parallel, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match=f"parallel must be 1, got {parallel}"):
            run(ExperimentConfig.from_dict(payload()), out, parallel=parallel)
        assert not out.exists()

    def test_compare_is_not_a_subcommand(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload())
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", cfg, "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'compare'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_sweep_flags_rejected_by_single_point_commands(self, command, tmp_path):
        cfg = _write(tmp_path, "cfg.json", _trajectory_payload())
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(out), "--resume"])
        assert exc.value.code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synthesize", "simulate", "sweep", "endpoint"])
    def test_every_subcommand_validates_config(self, command, tmp_path):
        cfg = _write(tmp_path, "cfg.json", {"kind": "trajectory"})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
