import json

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

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
    _WEIGHT_FLOOR,
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
        return ControlSchedule([0.0, 0.5, 1.0], [_term(rng), _term(rng)], [0, 1])

    def test_piece_evaluation_matches_single_term_field(self):
        sched = self._schedule()
        x = np.random.default_rng(1).normal(size=(6, 2))
        for j, t in [(0, 0.2), (1, 0.7)]:
            single = NeuralField((sched.static_piece(j),))
            assert np.array_equal(sched.velocity(t, x), single(x))

    def test_piece_count_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 1.0], [_term(rng), _term(rng)], [0, 1])

    def test_pieces_must_be_single_terms(self):
        rng = np.random.default_rng(0)
        nf = NeuralField((_term(rng),))
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 1.0], [nf], [0])

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
        assert list(d) == ["activation", "breakpoints", "terms", "order"]
        assert set(d["terms"][0]) == {"A", "W", "theta"}
        assert d["activation"] == "logistic"
        assert d["order"] == [0, 1]

    def test_to_json_is_json_dumps_of_the_dict(self):
        rng = np.random.default_rng(3)
        nf = NeuralField((_term(rng), _term(rng), _term(rng)))
        repeated = oscillation_schedule(nf, (0.0, 1.0), 4)
        quiescent = NeuralTerm(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        zero_window = ControlSchedule(
            np.concatenate([[0.0], repeated.breakpoints / 2.0 + 0.5]),
            [quiescent, *repeated.terms],
            np.concatenate([[0], repeated.order + 1]),
        )
        reloaded = ControlSchedule.from_json(repeated.to_json())
        assert len(repeated.terms) == len(reloaded.terms) == 3
        assert reloaded.piece_count == 12
        assert np.array_equal(reloaded.order, repeated.order)
        assert zero_window.to_json_dict()["order"] == [0] + [1, 2, 3] * 4
        for sched in (repeated, zero_window, reloaded):
            assert sched.to_json() == json.dumps(sched.to_json_dict())

    def test_json_other_activation_rejected(self):
        d = json.loads(self._schedule().to_json())
        d["activation"] = "relu"
        with pytest.raises(ValueError, match="'relu'"):
            ControlSchedule.from_json(json.dumps(d))

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: d.pop("order"), "the keys activation, breakpoints, terms and order"),
            (lambda d: d.update(seed=0), "the keys activation, breakpoints, terms and order"),
            (lambda d: d.update(pieces=[]), "'pieces', the older format"),
            (lambda d: d.update(order=[0]), r"2 windows need as many term indices, order has shape \(1,\)"),
            (lambda d: d.update(order=[0, 1, 1]), r"order has shape \(3,\)"),
            (lambda d: d.update(order=[]), r"order has shape \(0,\)"),
            (lambda d: d.update(order=[0, True]), "list of integers"),
            (lambda d: d.update(order=[False, True]), "list of integers"),
            (lambda d: d.update(order=[0, 1.0]), "list of integers"),
            (lambda d: d.update(order="01"), "list of integers"),
            (lambda d: d.update(order=[0, 2]), r"term indices must lie in \[0, 2\)"),
            (lambda d: d.update(order=[-1, 0]), r"term indices must lie in \[0, 2\)"),
            (lambda d: d.update(order=[0, 2**70]), "integer term indices"),
            (lambda d: d["terms"][1].pop("W"), "keys A, W and theta"),
            (lambda d: d["terms"][0].update(gain=2.0), "keys A, W and theta"),
            (lambda d: d["terms"][0].update(theta=[0.0, True]), "term theta entries must be a number, got True"),
        ],
    )
    def test_loaded_schedule_is_validated(self, change, message):
        d = json.loads(self._schedule().to_json())
        change(d)
        with pytest.raises(ValueError, match=message):
            ControlSchedule.from_json(json.dumps(d))

    def test_older_pieces_format_is_named(self):
        # the format that wrote each piece's term in full, and no order
        sched = self._schedule()
        old = {
            "activation": "logistic",
            "breakpoints": sched.breakpoints.tolist(),
            "pieces": [sched.static_piece(j).to_dict() for j in range(sched.piece_count)],
        }
        with pytest.raises(ValueError, match="'pieces', the older format"):
            ControlSchedule.from_json(json.dumps(old))

    def test_loaded_schedule_must_be_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            ControlSchedule.from_json("[]")


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
        assert len(sched.terms) == 3
        assert np.array_equal(sched.order, np.tile(np.arange(3), 4))
        assert not sched.order.flags.writeable
        for j in range(sched.piece_count):
            assert sched.static_piece(j) is sched.terms[j % 3]
            assert np.array_equal(sched.static_piece(j).A, 3.0 * nf.terms[j % 3].A)

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
        assert np.array_equal(sched.static_piece(0).A, 2.0 * t1.A)
        assert np.array_equal(sched.static_piece(0).W, t1.W)
        assert np.array_equal(sched.static_piece(1).A, 2.0 * t2.A)
        assert np.array_equal(sched.static_piece(1).theta, t2.theta)

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
        assert len(sched.terms) == 3 * 4
        assert all(isinstance(t, NeuralTerm) for t in sched.terms)
        # window w's order cycles through its own 4 terms, 2 periods each
        assert np.array_equal(sched.order, np.repeat(4 * np.arange(3), 8) + np.tile(np.arange(4), 6))

    def test_zero_field_gives_stationary_schedule(self):
        vf = benchmark_field("translation", {"velocity": [0.0, 0.0]})
        mu0 = self._mu0(60)
        params = SynthesisParams(n_avg=2, m_width=4, n_osc=3)
        result = synthesize_controls(vf, mu0, params)
        # zero windows collapse to one A = 0 piece each
        assert result.schedule.piece_count == 2
        assert np.array_equal(result.schedule.order, [0, 1])
        assert all(np.all(t.A == 0.0) for t in result.schedule.terms)
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

    def test_far_cloud_with_narrow_bandwidth(self):
        # At (1e7, 0) with h = 1e-3 the uncentred logits reach 1e20, whose
        # rounding swamps the gaps between neighbours; the centred ones do not.
        blob = self._blob(seed=6, n=40)
        mu0 = blob.translate([1e7, 0.0])
        muf = ParticleEnsemble(mu0.points + 0.5 * blob.points + np.array([1.0, 1.0]))
        moves = muf.points[w2_exact(mu0, muf).coupling.assignment] - mu0.points
        vf = displacement_target_field(mu0, muf, smoothing=1e-3)
        for t in (0.0, 0.5, 1.0):
            anchors = mu0.points + t * moves
            vel = vf.velocity(t, anchors)
            assert np.isfinite(vel).all()
            np.testing.assert_allclose(vel, moves, rtol=1e-12)
            far = 1e3 * anchors
            nearest = cdist(far, anchors).argmin(axis=1)
            vel = vf.velocity(t, far)
            assert np.isfinite(vel).all()
            np.testing.assert_allclose(vel, moves[nearest], rtol=1e-12)

    def test_rows_either_side_of_the_weight_floor(self):
        # Queries on rays from the region centre, placed where the unshifted
        # weight sum crosses _WEIGHT_FLOOR: just inside, the row keeps its
        # one-pass weights; just outside, it is redone with the max shift.
        # A third set sits where those weights are subnormal, which only the
        # redo keeps accurate.
        mu0, muf, moves = self._scaled_pair()
        h, t = 0.3, 0.37
        vf = displacement_target_field(mu0, muf, smoothing=h)
        anchors = mu0.points + t * moves

        def logits(x):
            return -cdist(x, anchors, "sqeuclidean") / (2.0 * h**2)

        angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        rays = np.stack([np.cos(angles), np.sin(angles)], axis=1)

        def radii_at(log_sum):
            lo, hi = np.zeros(len(rays)), np.full(len(rays), 50.0)
            for _ in range(200):
                r = 0.5 * (lo + hi)
                above = logsumexp(logits(vf.region.center + r[:, None] * rays), axis=1) > log_sum
                lo, hi = np.where(above, r, lo), np.where(above, hi, r)
            return lo, hi

        log_floor = np.log(_WEIGHT_FLOOR)
        inside, outside = radii_at(log_floor)
        radii = [(1.0 - 1e-6) * inside, (1.0 + 1e-6) * outside, radii_at(np.log(1e-315))[0]]
        x = vf.region.center + np.vstack([r[:, None] * rays for r in radii])
        sums = logsumexp(logits(x), axis=1)
        k = len(rays)
        assert (sums[:k] > log_floor).all() and (sums[k:] < log_floor).all()

        shifted = logits(x)
        weights = np.exp(shifted - shifted.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(vf.velocity(t, x), weights @ moves, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("h", [0.2, 0.5, 1.0])
    def test_lipschitz_bound_dominates_dense_estimate(self, h):
        mu0, muf, _ = self._scaled_pair()
        vf = displacement_target_field(mu0, muf, smoothing=h)
        assert vf.params["lipschitz_K"] == vf.lipschitz_K
        k_hat = estimate_bounds(vf, vf.region, t_samples=16, x_samples=400, seed=0).K_hat
        assert vf.lipschitz_K >= k_hat
