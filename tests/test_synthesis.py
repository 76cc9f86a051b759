import json

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from nodesteer.fields import (
    NeuralField,
    NeuralTerm,
    Region,
    VectorFieldSpec,
    benchmark_field,
    estimate_bounds,
)
from nodesteer.flow import IntegratorConfig, integrate_flow
from nodesteer.measures import MeasureSpec, ParticleEnsemble, sample_measure
from nodesteer.synthesis import (
    _BLOCK_QUERIES,
    ControlSchedule,
    SynthesisParams,
    _window_average,
    displacement_target_field,
    fit_superposition,
    fit_windows,
    oscillation_schedule,
    synthesize_controls,
)
from nodesteer.transport import sup_w2, w2_exact


def _term(rng, d=2):
    return NeuralTerm(rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=d))


def _rotation_target(p):
    return np.stack([-p[:, 1], p[:, 0]], axis=1)


class TestControlSchedule:
    def _schedule(self):
        rng = np.random.default_rng(0)
        return ControlSchedule([0.0, 0.5, 1.0], [_term(rng), _term(rng)])

    def test_piece_evaluation_matches_single_term_field(self):
        sched = self._schedule()
        x = np.random.default_rng(1).normal(size=(6, 2))
        for j, t in [(0, 0.2), (1, 0.7)]:
            single = NeuralField((sched.pieces[j],))
            assert np.array_equal(sched.velocity(t, x), single(x))

    def test_piece_count_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 1.0], [_term(rng), _term(rng)])

    def test_pieces_must_be_single_terms(self):
        rng = np.random.default_rng(0)
        nf = NeuralField((_term(rng),))
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 1.0], [nf])

    def test_out_of_range_time(self):
        sched = self._schedule()
        with pytest.raises(ValueError):
            sched.velocity(1.5, np.zeros((1, 2)))

    def test_json_round_trip_exact(self):
        sched = self._schedule()
        back = ControlSchedule.from_json(sched.to_json())
        assert np.array_equal(back.breakpoints, sched.breakpoints)
        x = np.random.default_rng(2).normal(size=(4, 2))
        assert np.array_equal(back.velocity(0.3, x), sched.velocity(0.3, x))

    def test_json_fields(self):
        d = json.loads(self._schedule().to_json())
        assert set(d) == {"activation", "breakpoints", "pieces"}
        assert set(d["pieces"][0]) == {"A", "W", "theta"}
        assert d["activation"] == "logistic"

    def test_json_other_activation_rejected(self):
        d = json.loads(self._schedule().to_json())
        d["activation"] = "relu"
        with pytest.raises(ValueError, match="'relu'"):
            ControlSchedule.from_json(json.dumps(d))


class TestSynthesisParams:
    def test_defaults_valid(self):
        params = SynthesisParams()
        assert params.region_margin > 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_avg": 0},
            {"m_width": 0},
            {"n_osc": 0},
            {"fit_tolerance": 0.0},
            {"region_margin": 1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SynthesisParams(**kwargs)


class TestTimeAverage:
    """The fit stage's window target, the field's time average over one window."""

    def test_autonomous_identity_exact(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        edges = np.linspace(0.0, 1.0, 5)
        x = np.random.default_rng(0).uniform(-2, 2, size=(30, 2))
        expect = vf.velocity(0.0, x)
        for a, b in zip(edges[:-1], edges[1:]):
            assert np.array_equal(_window_average(vf, a, b)(x), expect)

    def test_linear_in_time_halves(self):
        # V_t(x) = t * v on [0,1]: the average is v/2
        v = np.array([1.0, -2.0])
        region = Region("ball", np.zeros(2), 1.0)
        vf = VectorFieldSpec(
            lambda t, x: np.broadcast_to(t * v, x.shape).copy(),
            bound_C=np.sqrt(5.0),
            lipschitz_K=0.0,
            horizon=1.0,
            region=region,
        )
        x = np.zeros((3, 2))
        assert np.allclose(_window_average(vf, 0.0, 1.0)(x), np.broadcast_to(v / 2, (3, 2)), atol=1e-15)

    def test_sine_window_averages(self):
        # V_t(x) = sin(2 pi t) v with two windows: averages are +-(2/pi) v
        v = np.array([1.0, 0.5])
        region = Region("ball", np.zeros(2), 1.0)
        vf = VectorFieldSpec(
            lambda t, x: np.broadcast_to(np.sin(2.0 * np.pi * t) * v, x.shape).copy(),
            bound_C=np.linalg.norm(v),
            lipschitz_K=0.0,
            horizon=1.0,
            region=region,
        )
        x = np.zeros((2, 2))
        first, second = _window_average(vf, 0.0, 0.5)(x), _window_average(vf, 0.5, 1.0)(x)
        # composite Simpson truncation on a half sine arch sits near 2e-8
        assert np.allclose(first, np.broadcast_to((2.0 / np.pi) * v, (2, 2)), rtol=1e-7)
        assert np.allclose(second, np.broadcast_to((-2.0 / np.pi) * v, (2, 2)), rtol=1e-7)

    def test_static_superposition_is_every_window(self):
        term = _term(np.random.default_rng(1))
        vf = benchmark_field("neural-static", {"terms": [term.to_dict()], "horizon": 2.0})
        edges = np.linspace(0.0, 2.0, 4)
        windows = tuple(zip(edges[:-1].tolist(), edges[1:].tolist()))
        assert all(_window_average(vf, a, b) is vf.static_superposition for a, b in windows)
        fits = fit_windows(vf, ParticleEnsemble([[0.0, 0.0]]), SynthesisParams(n_avg=3, m_width=1))
        assert fits.windows == windows


class TestFitSuperposition:
    def test_zero_target_exact(self):
        region = Region("ball", np.zeros(2), 2.0)
        fit = fit_superposition(lambda p: np.zeros_like(p), region, 6, 0.05, seed=1)
        assert fit.sup_error == 0.0
        assert all(np.all(t.A == 0.0) for t in fit.field.terms)
        assert fit.tolerance_met

    def test_self_representation_with_seeded_term(self):
        rng = np.random.default_rng(3)
        term = _term(rng)
        g = NeuralField((term,))
        region = Region("ball", np.zeros(2), 2.0)
        fit = fit_superposition(g, region, 1, 1e-6, seed=5, init_terms=[term])
        assert fit.sup_error <= 1e-6
        assert fit.tolerance_met

    def test_rotation_fit_quality(self):
        # oracle run recorded 0.0015 at this seed; spec ceiling is 0.05
        region = Region("ball", np.zeros(2), 2.0)
        fit = fit_superposition(_rotation_target, region, 64, 0.05, seed=0)
        assert fit.sup_error < 0.05
        assert fit.tolerance_met
        assert fit.field.width == 64

    def test_tolerance_miss_flagged_not_raised(self):
        region = Region("ball", np.zeros(2), 2.0)
        fit = fit_superposition(_rotation_target, region, 1, 1e-9, seed=0)
        assert not fit.tolerance_met
        assert fit.sup_error > 1e-9

    def test_deterministic_given_seed(self):
        region = Region("ball", np.zeros(2), 2.0)
        a = fit_superposition(_rotation_target, region, 4, 0.05, seed=9)
        b = fit_superposition(_rotation_target, region, 4, 0.05, seed=9)
        assert a.sup_error == b.sup_error
        for ta, tb in zip(a.field.terms, b.field.terms):
            assert np.array_equal(ta.A, tb.A)
            assert np.array_equal(ta.W, tb.W)

    def test_width_validated(self):
        region = Region("ball", np.zeros(2), 2.0)
        with pytest.raises(ValueError):
            fit_superposition(_rotation_target, region, 0, 0.05, seed=0)

    def test_grid_too_coarse(self):
        region = Region("ball", np.zeros(2), 2.0)
        with pytest.raises(ValueError):
            fit_superposition(_rotation_target, region, 1024, 0.05, seed=0)

    def test_bad_target_shape(self):
        region = Region("ball", np.zeros(2), 2.0)
        with pytest.raises(ValueError):
            fit_superposition(lambda p: p[:, :1], region, 2, 0.05, seed=0)


class TestOscillationSchedule:
    def test_piece_count_and_equal_lengths(self):
        rng = np.random.default_rng(0)
        nf = NeuralField(tuple(_term(rng) for _ in range(3)))
        sched = oscillation_schedule(nf, (0.0, 1.0), 5)
        assert sched.piece_count == 15
        lengths = np.diff(sched.breakpoints)
        assert np.allclose(lengths, 1.0 / 15.0, rtol=1e-12, atol=0)

    def test_periods_share_the_scaled_terms(self):
        rng = np.random.default_rng(0)
        nf = NeuralField(tuple(_term(rng) for _ in range(3)))
        sched = oscillation_schedule(nf, (0.0, 1.0), 4)
        assert all(sched.pieces[j] is sched.pieces[j + 3] for j in range(9))
        assert len({id(p) for p in sched.pieces}) == 3
        for j, piece in enumerate(sched.pieces):
            assert np.array_equal(piece.A, 3.0 * nf.terms[j % 3].A)

    def test_single_term_oscillation_is_constant(self):
        rng = np.random.default_rng(1)
        term = _term(rng)
        nf = NeuralField((term,))
        sched = oscillation_schedule(nf, (0.0, 1.0), 4)
        assert sched.piece_count == 4
        x = rng.normal(size=(5, 2))
        for t in (0.1, 0.3, 0.6, 0.9):
            assert np.array_equal(sched.velocity(t, x), nf(x))

    def test_two_term_gain_layout(self):
        # pieces are (2 A1, W1, th1) on [0, 1/2) and (2 A2, W2, th2) on [1/2, 1)
        rng = np.random.default_rng(2)
        t1, t2 = _term(rng), _term(rng)
        nf = NeuralField((t1, t2))
        sched = oscillation_schedule(nf, (0.0, 1.0), 1)
        assert np.array_equal(sched.breakpoints, [0.0, 0.5, 1.0])
        assert np.array_equal(sched.pieces[0].A, 2.0 * t1.A)
        assert np.array_equal(sched.pieces[0].W, t1.W)
        assert np.array_equal(sched.pieces[1].A, 2.0 * t2.A)
        assert np.array_equal(sched.pieces[1].theta, t2.theta)

    def test_period_mean_identity(self):
        # direct summation over the 6 pieces of an m = 3, N = 2 schedule
        rng = np.random.default_rng(4)
        nf = NeuralField(tuple(_term(rng) for _ in range(3)))
        sched = oscillation_schedule(nf, (0.0, 1.0), 2)
        probes = rng.uniform(-2, 2, size=(20, 2))
        bp = sched.breakpoints
        for period in range(2):
            lo, hi = period * 3, (period + 1) * 3
            acc = np.zeros_like(probes)
            for j in range(lo, hi):
                acc += (bp[j + 1] - bp[j]) * sched.static_piece(j)(probes)
            mean = acc / (bp[hi] - bp[lo])
            assert np.abs(mean - nf(probes)).max() <= 1e-12

    def test_empty_window_rejected(self):
        rng = np.random.default_rng(0)
        nf = NeuralField((_term(rng),))
        with pytest.raises(ValueError):
            oscillation_schedule(nf, (1.0, 1.0), 1)


class TestSynthesizeControls:
    def _mu0(self, n=100, seed=0):
        spec = MeasureSpec("uniform-ball", {"center": [0.0, 0.0], "radius": 1.0})
        return sample_measure(spec, n, seed)

    def test_region_formula(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        mu0 = self._mu0()
        params = SynthesisParams(n_avg=1, m_width=8, fit_tolerance=0.1, n_osc=1, region_margin=1.5)
        report = synthesize_controls(vf, mu0, params).report
        r = report.fits.support_radius
        assert report.fits.region_R == pytest.approx(1.5 * 1.0 * (vf.bound_C + 0.1), abs=1e-12)
        assert report.omega_radius == pytest.approx(report.fits.region_R + r, abs=1e-12)

    def test_schedule_covers_horizon(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        params = SynthesisParams(n_avg=3, m_width=4, n_osc=2)
        sched = synthesize_controls(vf, self._mu0(), params).schedule
        assert sched.breakpoints[0] == 0.0
        assert sched.breakpoints[-1] == pytest.approx(1.0, abs=1e-15)
        assert sched.piece_count == 3 * 4 * 2
        assert all(isinstance(p, NeuralTerm) for p in sched.pieces)

    def test_zero_field_gives_stationary_schedule(self):
        vf = benchmark_field("translation", {"velocity": [0.0, 0.0]})
        mu0 = self._mu0(60)
        params = SynthesisParams(n_avg=2, m_width=4, n_osc=3)
        result = synthesize_controls(vf, mu0, params)
        # zero windows collapse to one A = 0 piece each
        assert result.schedule.piece_count == 2
        assert all(np.all(p.A == 0.0) for p in result.schedule.pieces)
        cfg = IntegratorConfig(base_step=0.05, snap_times=np.linspace(0, 1, 5))
        traj = integrate_flow(result.schedule, mu0, cfg)
        for snap in traj.snapshots:
            assert np.array_equal(snap.points, mu0.points)

    def test_admissible_target_tracked_to_integrator_tolerance(self):
        rng = np.random.default_rng(6)
        term = NeuralTerm(0.4 * rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=2))
        vf = benchmark_field(
            "neural-static",
            {"terms": [term.to_dict()], "activation": "logistic", "radius": 2.0},
        )
        mu0 = self._mu0(80)
        params = SynthesisParams(n_avg=1, m_width=1, fit_tolerance=0.1, n_osc=4)
        result = synthesize_controls(vf, mu0, params)
        cfg = IntegratorConfig(base_step=0.01, snap_times=np.linspace(0, 1, 6))
        reference = integrate_flow(vf, mu0, cfg)
        synthesized = integrate_flow(result.schedule, mu0, cfg)
        assert sup_w2(synthesized, reference) < 1e-6

    def test_rotation_convergence_in_periods(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        mu0 = self._mu0(60, seed=2)
        cfg = IntegratorConfig(base_step=0.01, snap_times=np.linspace(0, 1, 6))
        reference = integrate_flow(vf, mu0, cfg)
        errors = {}
        for n_osc in (1, 8):
            params = SynthesisParams(n_avg=1, m_width=32, fit_tolerance=0.1, n_osc=n_osc, seed=0)
            sched = synthesize_controls(vf, mu0, params).schedule
            errors[n_osc] = sup_w2(integrate_flow(sched, mu0, cfg), reference)
        assert errors[8] < errors[1] / 2.0

    def test_piece_cap(self):
        SynthesisParams(n_avg=100, m_width=100, n_osc=100)
        with pytest.raises(ValueError, match="1010000 pieces exceed the 1000000 schedule cap"):
            SynthesisParams(n_avg=100, m_width=101, n_osc=100)

    def test_deterministic(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        params = SynthesisParams(n_avg=2, m_width=8, n_osc=2, seed=11)
        a = synthesize_controls(vf, self._mu0(), params).schedule
        b = synthesize_controls(vf, self._mu0(), params).schedule
        assert a.to_json() == b.to_json()

    def test_dim_mismatch(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        mu0 = ParticleEnsemble([[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            synthesize_controls(vf, mu0, SynthesisParams())

    def test_report_serializes(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        result = synthesize_controls(vf, self._mu0(), SynthesisParams(m_width=4))
        d = result.report.to_json_dict()
        json.dumps(d)
        assert d["piece_count"] == result.schedule.piece_count
        assert len(d["window_fits"]) == 1


class TestDisplacementTargetField:
    def _blob(self, seed=0, n=80):
        spec = MeasureSpec(
            "gaussian-truncated",
            {
                "mean": [0.0, 0.0],
                "std": 0.3,
                "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            },
        )
        return sample_measure(spec, n, seed)

    def test_identical_measures_zero_field(self):
        mu0 = self._blob()
        vf = displacement_target_field(mu0, mu0, smoothing=0.5)
        assert vf.bound_C == 0.0
        x = np.random.default_rng(0).normal(size=(10, 2))
        for t in (0.0, 0.5, 1.0):
            assert np.allclose(vf.velocity(t, x), 0.0, atol=1e-12)

    def test_pure_translation_constant_field(self):
        mu0 = self._blob(seed=1)
        shift = np.array([2.0, 0.0])
        vf = displacement_target_field(mu0, mu0.translate(shift), smoothing=0.5)
        assert vf.bound_C == pytest.approx(2.0, abs=1e-12)
        x = np.random.default_rng(1).normal(size=(20, 2))
        for t in (0.0, 0.5, 1.0):
            assert np.allclose(vf.velocity(t, x), shift, atol=1e-9)

    def test_flow_reaches_target_for_translation(self):
        mu0 = self._blob(seed=2)
        muf = mu0.translate([2.0, 0.0])
        vf = displacement_target_field(mu0, muf, smoothing=0.5)
        cfg = IntegratorConfig(base_step=0.01, snap_times=np.linspace(0, 1, 5))
        traj = integrate_flow(vf, mu0, cfg)
        assert w2_exact(traj.final, muf).distance <= 1e-9

    def test_bandwidth_validated(self):
        mu0 = self._blob()
        with pytest.raises(ValueError):
            displacement_target_field(mu0, mu0, smoothing=0.0)

    def test_count_mismatch(self):
        mu0 = self._blob()
        nu = ParticleEnsemble(mu0.points[:-1])
        with pytest.raises(ValueError):
            displacement_target_field(mu0, nu, smoothing=0.5)

    def test_velocity_is_convex_combination_of_moves(self):
        mu0 = self._blob(seed=3, n=40)
        muf = ParticleEnsemble(mu0.points * 0.5 + np.array([1.0, 1.0]))
        vf = displacement_target_field(mu0, muf, smoothing=0.3)
        moves_max = vf.bound_C
        x = np.random.default_rng(2).uniform(-2, 2, size=(50, 2))
        for t in (0.0, 0.5, 1.0):
            speeds = np.linalg.norm(vf.velocity(t, x), axis=1)
            assert (speeds <= moves_max + 1e-12).all()

    def _scaled_pair(self):
        """A non-translation pair and its matched moves, ordered like mu0."""
        mu0 = self._blob(seed=3, n=40)
        muf = ParticleEnsemble(mu0.points * 0.5 + np.array([1.0, 1.0]))
        assignment = w2_exact(mu0, muf).coupling.assignment
        return mu0, muf, muf.points[assignment] - mu0.points

    def test_velocity_matches_plain_softmax(self):
        mu0, muf, moves = self._scaled_pair()
        h = 0.3
        vf = displacement_target_field(mu0, muf, smoothing=h)
        x = np.random.default_rng(4).uniform(-2, 2, size=(50, 2))
        for t in (0.0, 0.37, 1.0):
            anchors = mu0.points + t * moves
            weights = np.exp(-cdist(x, anchors, "sqeuclidean") / (2.0 * h**2))
            weights /= weights.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(vf.velocity(t, x), weights @ moves, rtol=1e-13, atol=0.0)

    def test_block_edges_change_nothing(self):
        mu0, muf, _ = self._scaled_pair()
        vf = displacement_target_field(mu0, muf, smoothing=0.3)
        x = np.random.default_rng(5).uniform(-2, 2, size=(3 * _BLOCK_QUERIES + 5, 2))
        for t in (0.0, 0.37, 1.0):
            rows = np.vstack([vf.velocity(t, x[i : i + 1]) for i in range(len(x))])
            np.testing.assert_allclose(vf.velocity(t, x), rows, rtol=1e-14, atol=0.0)

    def test_far_queries_take_nearest_move(self):
        # Every unshifted kernel weight underflows to 0 this far out, so only
        # the max shift keeps the weighted mean from being 0/0.
        mu0, muf, moves = self._scaled_pair()
        vf = displacement_target_field(mu0, muf, smoothing=0.3)
        angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        x = 1e3 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for t in (0.0, 0.5, 1.0):
            nearest = cdist(x, mu0.points + t * moves).argmin(axis=1)
            vel = vf.velocity(t, x)
            assert np.isfinite(vel).all()
            np.testing.assert_allclose(vel, moves[nearest], rtol=1e-12)

    @pytest.mark.parametrize("h", [0.2, 0.5, 1.0])
    def test_lipschitz_bound_dominates_dense_estimate(self, h):
        mu0, muf, _ = self._scaled_pair()
        vf = displacement_target_field(mu0, muf, smoothing=h)
        assert vf.params["lipschitz_K"] == vf.lipschitz_K
        k_hat = estimate_bounds(vf, vf.region, t_samples=16, x_samples=400, seed=0).K_hat
        assert vf.lipschitz_K >= k_hat
