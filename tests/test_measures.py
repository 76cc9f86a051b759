import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodesteer.measures import (
    MeasureSpec,
    MeasureSpecError,
    ParticleEnsemble,
    Region,
    sample_measure,
    support_radius,
)


class TestRegion:
    def test_ball_contains(self):
        region = Region("ball", [0.0, 0.0], 2.0)
        mask = region.contains([[1.0, 1.0], [2.0, 1.0]])
        assert mask.tolist() == [True, False]

    def test_box_contains(self):
        region = Region("box", [1.0, 0.0], [1.0, 0.5])
        mask = region.contains([[1.9, 0.4], [1.9, 0.6], [-0.1, 0.0]])
        assert mask.tolist() == [True, False, False]

    def test_unknown_kind(self):
        with pytest.raises(MeasureSpecError):
            Region("simplex", [0.0], 1.0)

    def test_nonpositive_extent(self):
        with pytest.raises(MeasureSpecError):
            Region("ball", [0.0, 0.0], 0.0)

    def test_box_halfwidth_mismatch(self):
        with pytest.raises(MeasureSpecError):
            Region("box", [0.0, 0.0], [1.0, 1.0, 1.0])

    def test_sample_inside(self):
        region = Region("ball", [1.0, -1.0, 0.5], 0.7)
        pts = region.sample(np.random.default_rng(3), 500)
        assert pts.shape == (500, 3)
        assert region.contains(pts).all()

    def test_grid_inside_and_regular(self):
        region = Region("box", [0.0, 0.0], [1.0, 2.0])
        pts = region.grid(5)
        assert pts.shape == (25, 2)
        assert region.contains(pts, tol=1e-12).all()

    def test_ball_grid_filters_corners(self):
        region = Region("ball", [0.0, 0.0], 1.0)
        pts = region.grid(11)
        assert pts.shape[0] < 121
        assert region.contains(pts, tol=1e-12).all()

    def test_dict_round_trip(self):
        ball = Region.from_dict({"kind": "ball", "center": [1.0, 2.0], "radius": 1.5})
        box = Region.from_dict({"kind": "box", "center": [0.0, 0.0], "halfwidths": [1.0, 2.0]})
        assert ball.kind == "ball" and np.array_equal(ball.center, [1.0, 2.0])
        assert np.array_equal(ball.extent, [1.5])
        assert box.kind == "box" and np.array_equal(box.center, [0.0, 0.0])
        assert np.array_equal(box.extent, [1.0, 2.0])


class TestParticleEnsemble:
    def test_one_dim_promotion(self):
        ens = ParticleEnsemble([0.0, 1.0, 2.0])
        assert (ens.n, ens.dim) == (3, 1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ParticleEnsemble([[0.0, np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(np.empty((0, 2)))

    def test_points_read_only(self):
        ens = ParticleEnsemble([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ens.points[0, 0] = 5.0

    def test_translate_scale(self):
        ens = ParticleEnsemble([[1.0, 0.0]])
        assert np.array_equal(ens.translate([1.0, 2.0]).points, [[2.0, 2.0]])

    def test_csv_round_trip_exact(self):
        pts = np.array([[0.1, -0.2], [1.0 / 3.0, 2.0 / 7.0]])
        ens = ParticleEnsemble(pts)
        back = ParticleEnsemble.from_csv(ens.to_csv())
        assert np.array_equal(back.points, pts)

    def test_csv_header(self):
        text = ParticleEnsemble([[1.0, 2.0]]).to_csv()
        assert text.splitlines()[0] == "x0,x1"

    def test_csv_exact_bytes(self):
        pts = [[-0.0, 1e-300], [0.1, -2.5e10], [1.0 / 3.0, 5e-324]]
        assert ParticleEnsemble(pts).to_csv() == (
            "x0,x1\n-0.0,1e-300\n0.1,-25000000000.0\n0.3333333333333333,5e-324\n"
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_csv_matches_the_per_row_form_bytewise(self, d):
        special = [-0.0, 5e-324, 1e-300, 1e22, 3.0, -7.0, 0.0, 2.0**53]
        pts = np.concatenate([special, np.random.default_rng(d).normal(size=40 * d) * 1e3])
        pts = pts[: len(pts) // d * d].reshape(-1, d)
        lines = [",".join(f"x{k}" for k in range(d))]
        lines += [",".join(map(repr, row)) for row in pts.tolist()]
        assert ParticleEnsemble(pts).to_csv() == "\n".join(lines) + "\n"

    def test_csv_bad_header(self):
        with pytest.raises(ValueError):
            ParticleEnsemble.from_csv("a,b\n1.0,2.0\n")

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(0, 10_000),
    )
    def test_csv_round_trip_property(self, n, d, seed):
        pts = np.random.default_rng(seed).normal(size=(n, d)) * 10.0 ** (seed % 7 - 3)
        back = ParticleEnsemble.from_csv(ParticleEnsemble(pts).to_csv())
        assert np.array_equal(back.points, pts)


class TestSampleMeasure:
    def test_deterministic(self):
        spec = MeasureSpec("uniform-ball", {"center": [0.0, 0.0], "radius": 1.0})
        a = sample_measure(spec, 50, 7)
        b = sample_measure(spec, 50, 7)
        c = sample_measure(spec, 50, 8)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_uniform_ball_inside(self):
        spec = MeasureSpec("uniform-ball", {"center": [1.0, 1.0], "radius": 0.5})
        ens = sample_measure(spec, 400, 0)
        assert support_radius(ens, [1.0, 1.0]) <= 0.5

    def test_uniform_ball_support_fills_out(self):
        # P(max radius < 0.9) = 0.81^500, vanishingly small
        spec = MeasureSpec("uniform-ball", {"center": [0.0, 0.0], "radius": 1.0})
        ens = sample_measure(spec, 500, 123)
        assert support_radius(ens, [0.0, 0.0]) > 0.9

    def test_uniform_disk_second_moment(self):
        # E |x|^2 = r^2/2 on the unit disk; mean of 4000 has std ~5e-3
        spec = MeasureSpec("uniform-ball", {"center": [0.0, 0.0], "radius": 1.0})
        ens = sample_measure(spec, 4000, 21)
        assert abs(np.mean(np.sum(ens.points**2, axis=1)) - 0.5) < 0.02

    def test_gaussian_truncated_inside(self):
        spec = MeasureSpec(
            "gaussian-truncated",
            {
                "mean": [0.0, 0.0],
                "std": 1.0,
                "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            },
        )
        ens = sample_measure(spec, 300, 4)
        assert support_radius(ens, [0.0, 0.0]) <= 1.0
        assert ens.n == 300

    def test_gaussian_needs_region(self):
        with pytest.raises(MeasureSpecError):
            sample_measure(MeasureSpec("gaussian-truncated", {"mean": [0.0]}), 10, 0)

    def test_gaussian_bad_cov(self):
        with pytest.raises(MeasureSpecError):
            spec = MeasureSpec(
                "gaussian-truncated",
                {
                    "mean": [0.0, 0.0],
                    "cov": [[1.0, 2.0], [2.0, 1.0]],
                    "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                },
            )
            sample_measure(spec, 10, 0)

    def test_mixture_inside_and_weighted(self):
        spec = MeasureSpec(
            "gaussian-mixture-truncated",
            {
                "components": [
                    {"mean": [-2.0, 0.0], "std": 0.3, "weight": 1.0},
                    {"mean": [2.0, 0.0], "std": 0.3, "weight": 1.0},
                ],
                "region": {"kind": "box", "center": [0.0, 0.0], "halfwidths": [3.5, 1.5]},
            },
        )
        ens = sample_measure(spec, 600, 2)
        left = (ens.points[:, 0] < 0).mean()
        assert 0.35 < left < 0.65
        assert ens.n == 600

    def test_mixture_needs_components(self):
        with pytest.raises(MeasureSpecError):
            spec = MeasureSpec(
                "gaussian-mixture-truncated",
                {"components": [], "region": {"kind": "ball", "center": [0.0], "radius": 1.0}},
            )
            sample_measure(spec, 10, 0)

    def test_two_moons_shape(self):
        spec = MeasureSpec("two-moons", {"center": [0.0, 0.0], "scale": 1.0, "noise": 0.05})
        ens = sample_measure(spec, 500, 6)
        assert ens.dim == 2
        # the two arcs occupy distinct vertical bands
        assert (ens.points[:, 1] > 0.3).any()
        assert (ens.points[:, 1] < -0.05).any()

    def test_explicit_points(self):
        pts = [[0.0, 1.0], [2.0, 3.0]]
        ens = sample_measure(MeasureSpec("explicit-points", {"points": pts}), 2, 0)
        assert np.array_equal(ens.points, pts)

    def test_explicit_points_count_mismatch(self):
        spec = MeasureSpec("explicit-points", {"points": [[0.0, 1.0]]})
        with pytest.raises(MeasureSpecError):
            sample_measure(spec, 3, 0)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("uniform-ball", {"radus": 5.0}),
            ("gaussian-truncated", {"sd": 3.0, "region": {"kind": "ball", "center": [0.0], "radius": 1.0}}),
            (
                "gaussian-mixture-truncated",
                {
                    "components": [{"mean": [0.0], "sd": 0.3}],
                    "region": {"kind": "ball", "center": [0.0], "radius": 1.0},
                },
            ),
        ],
    )
    def test_unknown_param_rejected(self, kind, params):
        with pytest.raises(MeasureSpecError, match="takes no param"):
            sample_measure(MeasureSpec(kind, params), 10, 0)

    def test_unknown_kind(self):
        with pytest.raises(MeasureSpecError):
            sample_measure(MeasureSpec("cauchy", {}), 10, 0)

    @pytest.mark.parametrize(
        "kind, params, dim",
        [
            ("uniform-ball", {"center": [0.0, 0.0, 1.0]}, 3),
            ("gaussian-truncated", {"region": {"kind": "box", "center": [0.0], "halfwidths": 1.0}}, 1),
            ("two-moons", {}, 2),
            ("explicit-points", {"points": [[0.0, 1.0, 2.0, 3.0]]}, 4),
        ],
    )
    def test_dim(self, kind, params, dim):
        assert MeasureSpec(kind, params).dim == dim

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("explicit-points", {}),
            ("gaussian-truncated", {"region": 5}),
            ("uniform-ball", {"radius": "0.5"}),
            ("uniform-ball", {"radius": float("nan")}),
            ("two-moons", {"center": [0.0, 0.0, 0.0]}),
            # a cov that is positive definite in its lower triangle, which is all cholesky reads
            (
                "gaussian-truncated",
                {"cov": [[1.0, 0.5], [0.0, 1.0]], "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}},
            ),
            (
                "gaussian-mixture-truncated",
                {
                    "components": [{"mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.0, 1.0]]}],
                    "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                },
            ),
        ],
    )
    def test_bad_spec_fails_at_construction(self, kind, params):
        with pytest.raises(ValueError):
            MeasureSpec(kind, params)

    def test_n_below_one(self):
        spec = MeasureSpec("uniform-ball", {"center": [0.0], "radius": 1.0})
        with pytest.raises(ValueError):
            sample_measure(spec, 0, 0)

    def test_negligible_mass_region_fails(self):
        spec = MeasureSpec(
            "gaussian-truncated",
            {
                "mean": [100.0, 100.0],
                "std": 0.001,
                "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5},
            },
        )
        with pytest.raises(MeasureSpecError):
            sample_measure(spec, 10, 0)


class TestSummaries:
    def test_support_radius(self):
        ens = ParticleEnsemble([[3.0, 4.0], [0.0, 1.0]])
        assert support_radius(ens, [0.0, 0.0]) == 5.0

    def test_support_radius_center_mismatch(self):
        with pytest.raises(ValueError):
            support_radius(ParticleEnsemble([[1.0, 2.0]]), [0.0])
