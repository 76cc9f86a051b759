import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from nodesteer.fields import (
    LOGISTIC_LIPSCHITZ,
    BoundDeclarationError,
    ControlSchedule,
    NeuralField,
    NeuralTerm,
    Region,
    VectorFieldSpec,
    benchmark_field,
    estimate_bounds,
    logistic,
)
from nodesteer.flow import IntegratorConfig, integrate_flow
from nodesteer.measures import ParticleEnsemble
from nodesteer.transport import _sq_dists


class TestActivation:
    def test_logistic_values(self):
        assert logistic(0.0) == 0.5
        assert logistic(np.array([100.0])) == pytest.approx(1.0)
        assert LOGISTIC_LIPSCHITZ == 0.25


class TestNeuralTerm:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NeuralTerm(np.eye(2), np.eye(3), np.zeros(2))

    def test_finite_validation(self):
        with pytest.raises(ValueError):
            NeuralTerm(np.array([[np.inf]]), np.eye(1), np.zeros(1))

    def test_scaled(self):
        term = NeuralTerm(2.0 * np.eye(2), np.eye(2), np.ones(2))
        scaled = term.scaled(3.0)
        assert np.array_equal(scaled.A, 6.0 * np.eye(2))
        assert np.array_equal(scaled.W, term.W)
        assert np.array_equal(scaled.theta, term.theta)

    def test_dict_round_trip(self):
        term = NeuralTerm([[0.5, 0.1], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [0.1, -0.3])
        back = NeuralTerm.from_dict(term.to_dict())
        assert np.array_equal(back.A, term.A)
        assert np.array_equal(back.W, term.W)
        assert np.array_equal(back.theta, term.theta)

    def test_call_matches_the_formula_bitwise(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 4):
            for n in (1, 7, 1000):
                term = NeuralTerm(
                    rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=d)
                )
                x = 3.0 * rng.normal(size=(n, d))
                expected = logistic(x @ term.W.T + term.theta) @ term.A.T
                assert np.array_equal(term(x), expected)
            # a 1-D point is a one-row batch
            assert np.array_equal(term(x[0]), logistic(x[:1] @ term.W.T + term.theta) @ term.A.T)

    def test_call_is_the_single_term_field(self):
        rng = np.random.default_rng(3)
        term = NeuralTerm(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=2))
        field = NeuralField((term,))
        x = rng.normal(size=(9, 2))
        assert term(x).shape == (9, 2)
        assert np.array_equal(term(x), field(x))
        # a single point evaluates as a one-row batch
        assert term(x[0]).shape == (1, 2)
        assert np.array_equal(term(x[0])[0], field(x[0]))


class TestNeuralField:
    def test_single_term_hand_value(self):
        # A = I, W = I, theta = 0 at x = 0: logistic(0) = 0.5 per coordinate
        field = NeuralField((NeuralTerm(np.eye(2), np.eye(2), np.zeros(2)),))
        assert np.array_equal(field(np.zeros(2)), [0.5, 0.5])

    def test_superposition_additivity(self):
        rng = np.random.default_rng(0)
        t1 = NeuralTerm(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=2))
        t2 = NeuralTerm(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=2))
        x = rng.normal(size=(7, 2))
        combined = NeuralField((t1, t2))(x)
        split = NeuralField((t1,))(x) + NeuralField((t2,))(x)
        assert np.allclose(combined, split, atol=1e-15)

    def test_zero_field_needs_dim(self):
        with pytest.raises(ValueError):
            NeuralField(())

    def test_dim_mismatch_terms(self):
        t1 = NeuralTerm(np.eye(2), np.eye(2), np.zeros(2))
        t2 = NeuralTerm(np.eye(3), np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            NeuralField((t1, t2))

    def test_lipschitz_bound_hand_value(self):
        # single diagonal term: ||A|| ||W|| K = 2 * 3 * 0.25
        term = NeuralTerm(2.0 * np.eye(2), 3.0 * np.eye(2), np.zeros(2))
        field = NeuralField((term,))
        assert field.lipschitz_bound() == pytest.approx(1.5, abs=1e-12)

    def test_lipschitz_bound_holds_empirically(self):
        rng = np.random.default_rng(8)
        terms = tuple(
            NeuralTerm(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=2))
            for _ in range(4)
        )
        field = NeuralField(terms)
        x = rng.uniform(-3, 3, size=(200, 2))
        y = rng.uniform(-3, 3, size=(200, 2))
        lhs = np.linalg.norm(field(x) - field(y), axis=1)
        rhs = field.lipschitz_bound() * np.linalg.norm(x - y, axis=1)
        assert (lhs <= rhs + 1e-12).all()


def _constant_term(v) -> NeuralTerm:
    """The term with velocity v everywhere: W = 0, theta = 0 give Sigma = 1/2, so A = 2 diag(v)."""
    v = np.asarray(v, dtype=float)
    return NeuralTerm(2.0 * np.diag(v), np.zeros((v.size, v.size)), np.zeros(v.size))


class TestPiecewiseConstField:
    """ControlSchedule as a piecewise-constant field: breakpoints, piece lookup, dispatch."""

    def _field(self):
        return ControlSchedule([0.0, 0.5, 1.0], [_constant_term([1.0, 1.0]), _constant_term([-1.0, -1.0])], [0, 1])

    def test_right_continuous_at_breakpoint(self):
        field = self._field()
        assert field.piece_index(0.0) == 0
        assert field.piece_index(0.5) == 1
        assert field.piece_index(1.0) == 1

    def test_velocity_dispatch(self):
        field = self._field()
        x = np.zeros((2, 2))
        assert np.array_equal(field.velocity(0.25, x), np.ones((2, 2)))
        assert np.array_equal(field.velocity(0.75, x), -np.ones((2, 2)))

    def test_out_of_range(self):
        field = self._field()
        with pytest.raises(ValueError):
            field.piece_index(-0.1)
        with pytest.raises(ValueError):
            field.piece_index(1.1)

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 0.0, 1.0], [_constant_term([1.0])], [0, 0])

    def test_piece_count_mismatch(self):
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 1.0], [_constant_term([1.0])], [0, 0])

    @pytest.mark.parametrize(
        "order, message",
        [
            (np.array([True, False]), "integer term indices"),
            (np.array([0.0, 1.0]), "integer term indices"),
            (np.array([[0, 1]]), r"order has shape \(1, 2\)"),
            (np.array([0, 2]), r"must lie in \[0, 2\)"),
            (np.array([-1, 1]), r"must lie in \[0, 2\)"),
        ],
    )
    def test_order_must_index_the_terms(self, order, message):
        terms = [_constant_term([1.0]), _constant_term([-1.0])]
        with pytest.raises(ValueError, match=message):
            ControlSchedule([0.0, 0.5, 1.0], terms, order)

    def test_pieces_share_their_term(self):
        term = _constant_term([1.0])
        field = ControlSchedule([0.0, 0.5, 1.0], [term], np.array([0, 0], dtype=np.uint8))
        assert field.piece_count == 2
        assert field.static_piece(0) is field.static_piece(1) is term
        assert field.order.dtype == np.intp


class TestEstimateBounds:
    def test_rotation_estimates(self):
        vf = benchmark_field("rotation", {"omega": 1.5, "radius": 2.0})
        est = estimate_bounds(vf, vf.region, t_samples=4, x_samples=200, seed=0)
        # difference quotient of a rotation is exactly |omega| for every pair
        assert est.K_hat == pytest.approx(1.5, abs=1e-9)
        assert 0.9 * 3.0 <= est.C_hat <= 3.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pairwise_distances_match_scipy_bit_for_bit(self, d):
        pts = np.random.default_rng(d).normal(size=(64, d))
        np.testing.assert_array_equal(np.sqrt(_sq_dists(pts, pts)), squareform(pdist(pts)))

    def test_sample_floor(self):
        vf = benchmark_field("rotation", {"omega": 1.0})
        with pytest.raises(ValueError):
            estimate_bounds(vf, vf.region, t_samples=1, x_samples=10)


class TestVectorFieldSpec:
    def test_understated_bound_rejected(self):
        region = Region("ball", np.zeros(2), 2.0)
        with pytest.raises(BoundDeclarationError):
            VectorFieldSpec(
                lambda t, x: np.stack([-x[:, 1], x[:, 0]], axis=1),
                bound_C=0.5,
                lipschitz_K=1.0,
                horizon=1.0,
                region=region,
            )

    def test_understated_lipschitz_rejected(self):
        region = Region("ball", np.zeros(2), 2.0)
        with pytest.raises(BoundDeclarationError):
            VectorFieldSpec(
                lambda t, x: np.stack([-x[:, 1], x[:, 0]], axis=1),
                bound_C=2.5,
                lipschitz_K=0.1,
                horizon=1.0,
                region=region,
            )

    def test_zero_field_zero_declarations(self):
        region = Region("ball", np.zeros(2), 1.0)
        vf = VectorFieldSpec(
            lambda t, x: np.zeros_like(x),
            bound_C=0.0,
            lipschitz_K=0.0,
            horizon=1.0,
            region=region,
        )
        assert vf.bound_C == 0.0

    def test_nonpositive_horizon(self):
        region = Region("ball", np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            VectorFieldSpec(lambda t, x: x, 1.0, 1.0, 0.0, region)


def _flow_to(vf, x0, t):
    """The RK4 flow of vf from the points x0 at time t, one snapshot from 0."""
    cfg = IntegratorConfig(base_step=0.01, snap_times=np.array([0.0, t]))
    return integrate_flow(vf, ParticleEnsemble(x0), cfg).final.points


class TestBenchmarks:
    def test_translation_flow(self):
        vf = benchmark_field("translation", {"velocity": [1.0, -2.0]})
        assert np.allclose(_flow_to(vf, [[0.0, 0.0]], 0.5), [[0.5, -1.0]], atol=1e-14)
        assert vf.lipschitz_K == 0.0

    def test_contraction_needs_positive_rate(self):
        with pytest.raises(ValueError):
            benchmark_field("contraction-to-point", {"rate": -1.0})

    def test_shear_flow(self):
        vf = benchmark_field("shear", {"rate": 2.0})
        # the flow moves x by t * rate * y and leaves y fixed
        assert np.allclose(_flow_to(vf, [[0.0, 1.0]], 1.0), [[2.0, 1.0]], atol=1e-14)

    def test_double_gyre_bound(self):
        vf = benchmark_field("double-gyre-static", {"amplitude": 0.2})
        assert vf.bound_C == pytest.approx(np.pi * 0.2)
        # stationary cell corners
        corners = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 0.0]])
        assert np.allclose(vf.velocity(0.0, corners), 0.0, atol=1e-12)

    def test_neural_static_matches_superposition(self):
        term = NeuralTerm([[0.4, 0.0], [0.0, 0.4]], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        vf = benchmark_field("neural-static", {"terms": [term.to_dict()]})
        nf = NeuralField((term,))
        x = np.random.default_rng(0).uniform(-2, 2, size=(20, 2))
        assert np.array_equal(vf.velocity(0.3, x), nf(x))
        assert vf.static_superposition is nf or np.array_equal(
            vf.static_superposition(x), nf(x)
        )

    @pytest.mark.parametrize("params", [{"omega": 1.0, "horizn": 2.0}, {"omega": 1.0, "omgea": 3.0}])
    def test_unknown_param_rejected(self, params):
        with pytest.raises(ValueError, match="takes no parameter"):
            benchmark_field("rotation", params)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            benchmark_field("vortex-street")

    def test_missing_param(self):
        with pytest.raises(ValueError):
            benchmark_field("rotation", {})

    @pytest.mark.parametrize(
        "name, params",
        [
            ("rotation", {"omega": "1.0"}),
            ("rotation", {"omega": True}),
            ("rotation", {"omega": float("nan")}),
            ("rotation", {"omega": 1.0, "horizon": float("inf")}),
            ("translation", {"velocity": [1.0, "2"]}),
        ],
    )
    def test_param_must_be_a_finite_number(self, name, params):
        with pytest.raises(ValueError, match="must be|not finite"):
            benchmark_field(name, params)

    def test_dim_is_the_region_dim(self):
        assert benchmark_field("translation", {"velocity": [1.0, 0.0, 0.0]}).dim == 3

    def test_neural_static_takes_only_logistic(self):
        terms = [NeuralTerm(np.eye(2), np.eye(2), np.zeros(2)).to_dict()]
        vf = benchmark_field("neural-static", {"terms": terms, "activation": "logistic"})
        assert vf.params["activation"] == "logistic"
        with pytest.raises(ValueError, match="'relu'"):
            benchmark_field("neural-static", {"terms": terms, "activation": "relu"})

    def test_neural_static_bound_from_sampled_speeds(self):
        # C is 1.25 x the largest speed at the 256 points estimate_bounds draws
        rng = np.random.default_rng(4)
        terms = [
            NeuralTerm(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=2)).to_dict()
            for _ in range(3)
        ]
        vf = benchmark_field("neural-static", {"terms": terms})
        est = estimate_bounds(vf, vf.region, t_samples=2, x_samples=256, seed=0)
        assert vf.bound_C == est.C_hat * 1.25 + 1e-9
