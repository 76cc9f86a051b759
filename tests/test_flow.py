import numpy as np
import pytest

from nodesteer.fields import ControlSchedule, NeuralTerm, benchmark_field
from nodesteer.flow import (
    DivergenceError,
    IntegratorConfig,
    MeasureTrajectory,
    integrate_flow,
    lipschitz_curve_check,
    support_growth_check,
)
from nodesteer.measures import ParticleEnsemble, sample_measure, MeasureSpec
from nodesteer.transport import w2_exact


def _constant_term(v) -> NeuralTerm:
    """The term with velocity v everywhere: W = 0, theta = 0 give Sigma = 1/2, so A = 2 diag(v)."""
    v = np.asarray(v, dtype=float)
    return NeuralTerm(2.0 * np.diag(v), np.zeros((v.size, v.size)), np.zeros(v.size))


def _disk(n=100, seed=0, radius=1.0):
    spec = MeasureSpec("uniform-ball", {"center": [0.0, 0.0], "radius": radius})
    return sample_measure(spec, n, seed)


class TestIntegratorConfig:
    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.method == "rk4"
        assert cfg.snap_times[0] == 0.0

    def test_bad_method(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="rk45")

    def test_bad_step(self):
        with pytest.raises(ValueError):
            IntegratorConfig(base_step=0.0)

    def test_snaps_must_start_at_zero(self):
        with pytest.raises(ValueError):
            IntegratorConfig(snap_times=np.array([0.1, 0.5]))

    def test_snaps_must_increase(self):
        with pytest.raises(ValueError):
            IntegratorConfig(snap_times=np.array([0.0, 0.5, 0.5]))


class TestIntegrateFlow:
    def test_constant_field_exact(self):
        vf = benchmark_field("translation", {"velocity": [1.0, -2.0], "horizon": 1.0})
        mu0 = _disk(20)
        cfg = IntegratorConfig(base_step=0.1, snap_times=np.linspace(0, 1, 5))
        traj = integrate_flow(vf, mu0, cfg)
        assert np.allclose(traj.final.points, mu0.points + [1.0, -2.0], atol=1e-14)

    def test_rk4_order_on_rotation(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        x0 = ParticleEnsemble([[1.0, 0.0]])
        snap = np.array([0.0, 1.0])
        errors = []
        for h in (1 / 50, 1 / 100, 1 / 200):
            traj = integrate_flow(vf, x0, IntegratorConfig(base_step=h, snap_times=snap))
            exact = vf.analytic_flow(1.0, x0.points)
            errors.append(np.linalg.norm(traj.final.points - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_contraction_against_analytic(self):
        vf = benchmark_field("contraction-to-point", {"rate": 1.0, "center": [0.0, 0.0]})
        mu0 = _disk(50, seed=3)
        cfg = IntegratorConfig(base_step=0.01, snap_times=np.linspace(0, 1, 3))
        traj = integrate_flow(vf, mu0, cfg)
        exact = vf.analytic_flow(1.0, mu0.points)
        assert np.abs(traj.final.points - exact).max() < 1e-9
        radii = np.linalg.norm(traj.final.points, axis=1)
        assert np.allclose(radii, np.exp(-1.0) * np.linalg.norm(mu0.points, axis=1), atol=1e-9)

    def test_snapshots_match_requested_times(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        snap = np.array([0.0, 0.2, 0.7, 1.0])
        traj = integrate_flow(vf, _disk(10), IntegratorConfig(snap_times=snap))
        assert np.array_equal(traj.times, snap)
        assert len(traj.snapshots) == 4

    def test_initial_snapshot_is_mu0(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        mu0 = _disk(10)
        traj = integrate_flow(vf, mu0, IntegratorConfig())
        assert np.array_equal(traj.snapshots[0].points, mu0.points)

    def test_horizon_too_short(self):
        vf = benchmark_field("rotation", {"omega": 1.0, "horizon": 0.5})
        with pytest.raises(ValueError):
            integrate_flow(vf, _disk(5), IntegratorConfig(snap_times=np.array([0.0, 1.0])))

    def test_dim_mismatch(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        schedule = ControlSchedule([0.0, 1.0], [_constant_term([1.0, 0.0])])
        mu0 = ParticleEnsemble([[0.0, 0.0, 0.0]])
        for field in (vf, schedule):
            with pytest.raises(ValueError):
                integrate_flow(field, mu0, IntegratorConfig())

    def test_switching_cancellation_with_coarse_step(self):
        # +v then -v must cancel exactly; base_step larger than the window
        # forces the integrator to subdivide at the breakpoint
        v = np.array([2.0, 1.0])
        field = ControlSchedule([0.0, 0.5, 1.0], [_constant_term(v), _constant_term(-v)])
        mu0 = _disk(15, seed=2)
        cfg = IntegratorConfig(base_step=0.3, snap_times=np.array([0.0, 0.5, 1.0]))
        traj = integrate_flow(field, mu0, cfg)
        assert np.allclose(traj.snapshots[1].points, mu0.points + 0.5 * v, atol=1e-14)
        assert np.allclose(traj.final.points, mu0.points, atol=1e-14)

    def test_stage_evaluations_stay_in_piece(self):
        # piece 1 has gain 1e12; an RK4 stage leaking past t = 0.5 would throw
        # the state far off even though integration stops at 0.5
        huge = NeuralTerm(1e12 * np.eye(2), np.zeros((2, 2)), np.zeros(2))
        field = ControlSchedule([0.0, 0.5, 1.0], [_constant_term([1.0, 1.0]), huge])
        mu0 = ParticleEnsemble([[0.0, 0.0]])
        cfg = IntegratorConfig(base_step=0.25, snap_times=np.array([0.0, 0.5]))
        traj = integrate_flow(field, mu0, cfg)
        assert np.allclose(traj.final.points, [[0.5, 0.5]], atol=1e-15)

    def test_divergence_guard(self):
        class Exploding:
            dim = 1
            horizon = 1.0

            def velocity(self, t, x):
                return 60.0 * x

        mu0 = ParticleEnsemble([[1000.0]])
        with pytest.raises(DivergenceError) as err:
            integrate_flow(Exploding(), mu0, IntegratorConfig(base_step=0.01))
        assert "particle" in str(err.value)

    def test_provenance_records_field(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        traj = integrate_flow(vf, _disk(5), IntegratorConfig())
        assert traj.provenance["field"] == "rotation"
        assert traj.provenance["integrator"]["method"] == "rk4"


class TestTrajectoryIO:
    def test_save_load_round_trip(self, tmp_path):
        vf = benchmark_field("rotation", {"omega": 1.0})
        traj = integrate_flow(vf, _disk(12), IntegratorConfig(snap_times=np.linspace(0, 1, 4)))
        traj.save(tmp_path)
        back = MeasureTrajectory.load(tmp_path)
        assert np.array_equal(back.times, traj.times)
        for a, b in zip(back.snapshots, traj.snapshots):
            assert np.array_equal(a.points, b.points)

    def test_misaligned_construction(self):
        snaps = [ParticleEnsemble([[0.0]]), ParticleEnsemble([[1.0]])]
        with pytest.raises(ValueError):
            MeasureTrajectory(np.array([0.0]), snaps, {})

    def test_times_must_increase(self):
        snaps = [ParticleEnsemble([[0.0]]), ParticleEnsemble([[1.0]])]
        with pytest.raises(ValueError):
            MeasureTrajectory(np.array([0.0, 0.0]), snaps, {})


class TestSupportGrowth:
    def test_rotation_contained(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        mu0 = _disk(500, seed=1)
        traj = integrate_flow(vf, mu0, IntegratorConfig(snap_times=np.linspace(0, 1, 11)))
        report = support_growth_check(traj, r=1.0, R=1.5, C=2.0)
        assert report.precondition_ok  # T = 1 < (R + r)/C = 1.25
        assert report.passed
        assert report.max_radius <= 2.5

    def test_violation_detected(self):
        vf = benchmark_field("translation", {"velocity": [3.0, 0.0], "horizon": 1.0})
        mu0 = _disk(20, seed=4)
        traj = integrate_flow(vf, mu0, IntegratorConfig(snap_times=np.linspace(0, 1, 6)))
        # declared bounds violated on purpose: particles exit B_{R+r}
        report = support_growth_check(traj, r=1.0, R=1.0, C=1.0)
        assert not report.passed
        assert report.first_violation is not None

    def test_precondition_flagged(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        traj = integrate_flow(vf, _disk(10), IntegratorConfig())
        report = support_growth_check(traj, r=1.0, R=0.5, C=2.0)
        assert not report.precondition_ok

    def test_parameter_validation(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        traj = integrate_flow(vf, _disk(5), IntegratorConfig())
        with pytest.raises(ValueError):
            support_growth_check(traj, r=-1.0, R=1.0, C=1.0)


class TestLipschitzCurve:
    def test_rotation_within_declared_rate(self):
        vf = benchmark_field("rotation", {"omega": 1.0, "radius": 2.0})
        mu0 = _disk(100, seed=5)
        traj = integrate_flow(vf, mu0, IntegratorConfig(snap_times=np.linspace(0, 1, 21)))
        report = lipschitz_curve_check(traj, C=2.0)
        assert report.passed
        assert report.max_quotient <= 2.0 * 1.05
        # particles at radius ~1 move at speed ~1, so the curve is genuinely moving
        assert report.max_quotient > 0.5

    def test_stationary_curve(self):
        vf = benchmark_field("translation", {"velocity": [0.0, 0.0]})
        traj = integrate_flow(vf, _disk(20), IntegratorConfig())
        report = lipschitz_curve_check(traj, C=1.0)
        assert report.passed
        assert report.max_quotient == 0.0

    def test_matches_solving_every_pair(self):
        vf = benchmark_field("rotation", {"omega": 1.0, "radius": 2.0})
        traj = integrate_flow(vf, _disk(40, seed=2), IntegratorConfig(snap_times=np.linspace(0, 1, 9)))
        quotients = [
            w2_exact(traj.snapshots[j + 1], traj.snapshots[j]).distance / float(traj.times[j + 1] - traj.times[j])
            for j in range(traj.times.size - 1)
        ]
        j = int(np.argmax(quotients))
        report = lipschitz_curve_check(traj, C=2.0)
        assert report.max_quotient == max(quotients)
        assert report.argmax_pair == (float(traj.times[j]), float(traj.times[j + 1]))

    def test_needs_two_snapshots(self):
        traj = MeasureTrajectory(np.array([0.0]), [ParticleEnsemble([[0.0]])], {})
        with pytest.raises(ValueError):
            lipschitz_curve_check(traj, C=1.0)

    def test_violation_detected(self):
        # teleporting curve: speed 10 between snapshots against declared C = 1
        a = ParticleEnsemble([[0.0, 0.0]])
        b = ParticleEnsemble([[1.0, 0.0]])
        traj = MeasureTrajectory(np.array([0.0, 0.1]), [a, b], {})
        report = lipschitz_curve_check(traj, C=1.0)
        assert not report.passed
