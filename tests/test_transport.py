import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import nodesteer.transport as transport
from nodesteer.flow import IntegratorConfig, MeasureTrajectory, integrate_flow
from nodesteer.fields import benchmark_field
from nodesteer.measures import ParticleEnsemble
from nodesteer.transport import (
    _dense_slack,
    _identity_w2,
    _max_w2,
    _nearest,
    _sq_dists,
    sup_w2,
    w2_bruteforce,
    w2_exact,
)


def _random_pair(rng, n, d, scale=1.0):
    mu = ParticleEnsemble(rng.normal(size=(n, d)) * scale)
    nu = ParticleEnsemble(rng.normal(size=(n, d)) * scale)
    return mu, nu


def _brenier_pair(rng, n, d, kink=1.0):
    """(x, y) with y = x + grad phi(x) for a convex phi, so the identity is optimal.

    kink scales the slopes of phi's log-sum-exp term, which sharpens its
    bends: the larger it is, the further phi is from a quadratic.
    """
    x = rng.normal(size=(n, d))
    a = rng.normal(size=(d, d))
    slopes = kink * rng.normal(size=(4, d))
    logits = x @ slopes.T
    soft = np.exp(logits - logits.max(axis=1, keepdims=True))
    soft /= soft.sum(axis=1, keepdims=True)
    # phi = x'(a'a)x / 10 + b.x + 0.3 log sum_k exp(slopes_k . x)
    y = x + 0.2 * x @ a.T @ a + rng.normal(size=d) + 0.3 * soft @ slopes
    return ParticleEnsemble(x), ParticleEnsemble(y)


def _rotated(x, angle):
    c, s = np.cos(angle), np.sin(angle)
    return x @ np.array([[c, -s], [s, c]]).T


def _assignment_w2(mu, nu):
    cost_matrix = cdist(mu.points, nu.points, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost_matrix)
    return float(np.sqrt(cost_matrix[rows, cols].sum() / mu.n)), cols[np.argsort(rows)]


class TestDistanceKernels:
    """The numpy distance kernels equal scipy's, bit for bit; sizes straddle the 64-point block."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 500, 2000])
    def test_nearest_matches_kd_tree(self, n, d):
        x = np.random.default_rng(10 * n + d).normal(size=(n, d))
        k = min(32, n)
        assert np.array_equal(_nearest(x, k), cKDTree(x).query(x, k=k)[1].reshape(n, k))

    def test_duplicated_points_give_the_kd_tree_sets_nearest_first(self):
        base = np.random.default_rng(9).normal(size=(50, 2))
        x = np.vstack([base, base[:12], base[:4]])
        n, k = len(x), 32
        ours, theirs = _nearest(x, k), cKDTree(x).query(x, k=k)[1]
        dist = cdist(x, x, "sqeuclidean")
        ours_d = np.take_along_axis(dist, ours, axis=1)
        assert (np.diff(ours_d, axis=1) >= 0).all()
        # tied distances are listed by index: each point lists its copies first
        assert all(ours[i, 0] == i for i in range(50))
        assert all(ours[i, :3].tolist() == [i, 50 + i, 62 + i] for i in range(4))
        # where the k-th and (k+1)-th distances differ, the k nearest form one set
        kth = np.sort(dist, axis=1)
        clear = np.flatnonzero(kth[:, k - 1] < kth[:, k])
        assert clear.size > n // 2
        for i in clear:
            assert set(ours[i]) == set(theirs[i])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_sq_dists_matches_cdist(self, d):
        rng = np.random.default_rng(d)
        a, b = rng.normal(size=(130, d)), rng.normal(size=(70, d))
        assert np.array_equal(_sq_dists(a, b), cdist(a, b, "sqeuclidean"))
        assert np.array_equal(_sq_dists(b, a), cdist(b, a, "sqeuclidean"))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_dense_slack_matches_cdist(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        x, y, p = rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=n)
        cost = cdist(y, x, "sqeuclidean") + p
        floor = cost.min(axis=1) + 0.1 * rng.normal(size=n)
        expected = cost.min(axis=1) - floor
        violated = expected < 0
        slack, source = _dense_slack(x, y, p, floor)
        assert np.array_equal(slack, expected)
        assert np.array_equal(source, np.where(violated, cost.argmin(axis=1), np.arange(n)))
        assert n == 1 or 0 < violated.sum() < n


class TestExactSolver:
    def test_one_dim_hand_value(self):
        # points {0, 1} vs {0.5, 2}: monotone matching costs (0.25 + 1)/2
        mu = ParticleEnsemble([[0.0], [1.0]])
        nu = ParticleEnsemble([[0.5], [2.0]])
        assert w2_exact(mu, nu).distance == pytest.approx(np.sqrt(0.625), abs=1e-15)

    def test_identical_is_zero(self):
        ens = ParticleEnsemble(np.random.default_rng(0).normal(size=(40, 3)))
        assert w2_exact(ens, ens).distance == 0.0

    def test_translation_distance_exact(self):
        # W2(mu, mu + a) = |a|: identity coupling attains it, means force it
        rng = np.random.default_rng(5)
        mu = ParticleEnsemble(rng.normal(size=(30, 2)))
        shift = np.array([3.0, -4.0])
        assert w2_exact(mu, mu.translate(shift)).distance == pytest.approx(5.0, abs=1e-12)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(6)
        mu, nu = _random_pair(rng, 20, 2)
        base = w2_exact(mu, nu).distance
        scaled = w2_exact(ParticleEnsemble(mu.points * 2.5), ParticleEnsemble(nu.points * 2.5)).distance
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            w2_exact(ParticleEnsemble([[0.0]]), ParticleEnsemble([[0.0], [1.0]]))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            w2_exact(ParticleEnsemble([[0.0]]), ParticleEnsemble([[0.0, 1.0]]))

    def test_coupling_is_permutation(self):
        rng = np.random.default_rng(7)
        mu, nu = _random_pair(rng, 25, 3)
        result = w2_exact(mu, nu)
        assert sorted(result.coupling.assignment.tolist()) == list(range(25))


class TestBruteforceAgreement:
    def test_matches_exact_over_seeded_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, 4))
            mu, nu = _random_pair(rng, n, d)
            a = w2_exact(mu, nu).distance
            b = w2_bruteforce(mu, nu).distance
            assert abs(a - b) <= 1e-9

    def test_bruteforce_size_cap(self):
        rng = np.random.default_rng(1)
        mu, nu = _random_pair(rng, 9, 2)
        with pytest.raises(ValueError):
            w2_bruteforce(mu, nu)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 10_000))
    def test_agreement_property(self, n, d, seed):
        mu, nu = _random_pair(np.random.default_rng(seed), n, d)
        assert abs(w2_exact(mu, nu).distance - w2_bruteforce(mu, nu).distance) <= 1e-9


class TestIdentityCertificate:
    """w2_exact certifies the identity, cancels negative cycles from it, or falls back to assignment."""

    def _spy_cycles(self, monkeypatch):
        found = []
        original = transport._predecessor_cycles

        def spied(pred):
            nodes, count = original(pred)
            found.append(count > 0)
            return nodes, count

        monkeypatch.setattr(transport, "_predecessor_cycles", spied)
        return found

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 3), st.floats(0.0, 2.0), st.integers(0, 10_000))
    def test_agrees_with_bruteforce(self, n, d, spread, seed):
        rng = np.random.default_rng(seed)
        mu = ParticleEnsemble(rng.normal(size=(n, d)))
        nu = ParticleEnsemble(mu.points + rng.normal(size=d) + spread * rng.normal(size=(n, d)))
        result = w2_exact(mu, nu)
        brute = w2_bruteforce(mu, nu).distance
        assert result.distance == pytest.approx(brute, rel=1e-12, abs=1e-300)
        if result.method == "identity":
            assert result.distance == _identity_w2(mu, nu)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["random", "brenier"]), st.integers(1, 300), st.integers(1, 3), st.integers(0, 10_000))
    def test_agrees_with_the_assignment_solver(self, kind, n, d, seed):
        rng = np.random.default_rng(seed)
        mu, nu = _random_pair(rng, n, d) if kind == "random" else _brenier_pair(rng, n, d)
        result = w2_exact(mu, nu)
        expected, _ = _assignment_w2(mu, nu)
        assert result.distance == pytest.approx(expected, rel=1e-12, abs=1e-300)
        assert result.coupling.cost == pytest.approx(expected**2, rel=1e-12, abs=1e-300)
        if kind == "random" and n >= 50:
            assert result.method in ("cancelled", "assignment")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_brenier_pair_is_certified_bitwise(self, d):
        mu, nu = _brenier_pair(np.random.default_rng(d), 300, d)
        result = w2_exact(mu, nu)
        assert result.method == "identity"
        assert result.coupling.assignment.tolist() == list(range(300))
        assert result.distance == _identity_w2(mu, nu)
        expected, assignment = _assignment_w2(mu, nu)
        assert assignment.tolist() == list(range(300))
        assert result.distance == expected

    def test_swapped_far_targets_are_a_negative_cycle(self, monkeypatch):
        x = np.random.default_rng(0).normal(size=(200, 2))
        far = [int(np.argmin(x[:, 0])), int(np.argmax(x[:, 0]))]
        y = x.copy()
        y[far] = y[far[::-1]]
        found = self._spy_cycles(monkeypatch)
        result = w2_exact(ParticleEnsemble(x), ParticleEnsemble(y))
        assert True in found
        assert result.method == "cancelled"
        assert result.distance == 0.0
        assert result.coupling.assignment[far].tolist() == far[::-1]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_affine_brenier_pair_settles_at_once(self, d, monkeypatch):
        # y = S x + c with S symmetric positive definite is the gradient of a
        # convex quadratic, whose potentials are the affine start itself
        rng = np.random.default_rng(20 + d)
        x = rng.normal(size=(300, d))
        a = rng.normal(size=(d, d))
        y = x @ (a.T @ a + 0.5 * np.eye(d)) + rng.normal(size=d)
        found = self._spy_cycles(monkeypatch)
        result = w2_exact(ParticleEnsemble(x), ParticleEnsemble(y))
        assert result.method == "identity"
        assert len(found) <= 1

    def test_failed_dense_check_falls_back(self, monkeypatch):
        mu, nu = _brenier_pair(np.random.default_rng(4), 200, 2)
        assert w2_exact(mu, nu).method == "identity"
        found = self._spy_cycles(monkeypatch)
        monkeypatch.setattr(transport, "_NEIGHBOURS", 1)
        monkeypatch.setattr(transport, "_DENSE_CHECKS", 1)
        result = w2_exact(mu, nu)
        assert not any(found)
        assert result.method == "assignment"
        assert result.distance == _assignment_w2(mu, nu)[0]

    def test_violated_pairs_join_the_graph(self, monkeypatch):
        # the 32-nearest-source graph misses tight edges of this pair, whose
        # sharp bends the affine start potentials do not capture
        mu, nu = _brenier_pair(np.random.default_rng(3), 300, 3, kink=10.0)
        assert w2_exact(mu, nu).method == "identity"
        monkeypatch.setattr(transport, "_DENSE_CHECKS", 1)
        assert w2_exact(mu, nu).method == "assignment"

    @pytest.mark.parametrize("neighbours", [1, 32])
    @pytest.mark.parametrize("delta, method", [(1e-14, "identity"), (1e-10, "cancelled")])
    def test_certified_cost_is_within_eps_of_the_optimum(self, delta, method, neighbours, monkeypatch):
        # The swap beats the identity by 2 * delta per particle and eps is
        # 1e-12 * (0.5 + delta)^2. With one neighbour only the dense check
        # sees the swap; with both, relaxation sees it first.
        mu = ParticleEnsemble([[0.0], [1.0]])
        nu = ParticleEnsemble([[0.5 + delta], [0.5 - delta]])
        monkeypatch.setattr(transport, "_NEIGHBOURS", neighbours)
        result = w2_exact(mu, nu)
        assert result.method == method
        optimum = w2_bruteforce(mu, nu).coupling.cost
        assert optimum < _identity_w2(mu, nu) ** 2
        assert result.coupling.cost <= optimum + transport._EPS_REL * result.coupling.cost

    @pytest.mark.parametrize(
        "x, y",
        [
            ([[0.5, -1.0]], [[2.0, 3.0]]),
            ([[0.0], [1.0]], [[0.5], [2.0]]),
            ([[0.0], [1.0]], [[2.0], [0.5]]),
            ([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 3, [[0.1, 0.0]] * 3 + [[1.1, 1.0]] * 3),
            ([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 3, [[1.1, 1.0]] * 3 + [[0.1, 0.0]] * 3),
            ([[1.0, 2.0]] * 5, [[3.0, 0.0], [1.0, 1.0], [0.0, 2.0], [-1.0, 2.0], [5.0, 5.0]]),
            ([[1.0, 2.0]] * 5, [[1.0, 2.0]] * 5),
        ],
        ids=["n1", "n2-monotone", "n2-crossed", "duplicates", "duplicates-swapped", "all-equal-sources", "all-equal"],
    )
    def test_degenerate_inputs(self, x, y):
        mu, nu = ParticleEnsemble(x), ParticleEnsemble(y)
        result = w2_exact(mu, nu)
        assert result.distance == pytest.approx(w2_bruteforce(mu, nu).distance, rel=1e-12, abs=1e-300)
        identity_optimal = _identity_w2(mu, nu) == w2_bruteforce(mu, nu).distance
        assert result.method == ("identity" if identity_optimal else "cancelled")


class TestCycleCancelling:
    """A non-identity optimum is reached by cancelling negative cycles from the identity."""

    def _far_pair(self):
        # a cloud and a noisy copy turned by 1 rad, as a one-period schedule leaves it
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, size=(300, 2))
        return ParticleEnsemble(x), ParticleEnsemble(_rotated(x, 1.0) + 0.05 * rng.normal(size=(300, 2)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["rotated", "displaced"]),
        st.integers(2, 300),
        st.integers(2, 3),
        st.floats(0.2, 1.5),
        st.integers(0, 10_000),
    )
    def test_agrees_with_the_assignment_solver(self, kind, n, d, size, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        if kind == "rotated":
            y = x.copy()
            y[:, :2] = _rotated(x[:, :2], size)
        else:
            y = x + rng.normal(size=d) + 0.3 * size * rng.normal(size=(n, d))
        mu, nu = ParticleEnsemble(x), ParticleEnsemble(y)
        result = w2_exact(mu, nu)
        assume(result.method == "cancelled")
        expected, _ = _assignment_w2(mu, nu)
        assert result.distance == pytest.approx(expected, rel=1e-12)
        assert result.coupling.cost == pytest.approx(expected**2, rel=1e-12)

    def test_far_pair_matches_the_assignment_solver_bitwise(self):
        mu, nu = self._far_pair()
        result = w2_exact(mu, nu)
        cost_matrix = cdist(mu.points, nu.points, "sqeuclidean")
        rows, cols = linear_sum_assignment(cost_matrix)
        assert result.method == "cancelled"
        assert result.coupling.assignment.tolist() == cols.tolist()
        assert result.coupling.cost == cost_matrix[rows, cols].sum() / mu.n
        assert result.distance == _assignment_w2(mu, nu)[0]

    def test_warm_potentials_settle_in_few_rounds(self, monkeypatch):
        # affine start potentials, kept across cancels with the unrotated
        # predecessors, settle this pair in 150 cycle checks of 2 rounds; a
        # zero start that drops every predecessor at a cancel and checks
        # every 4 rounds needs 444 rounds
        checks = []
        original = transport._predecessor_cycles

        def counted(pred):
            checks.append(pred.size)
            return original(pred)

        monkeypatch.setattr(transport, "_predecessor_cycles", counted)
        assert w2_exact(*self._far_pair()).method == "cancelled"
        assert len(checks) * transport._CYCLE_CHECK_EVERY < 350

    def test_cycle_cap_falls_back_to_the_assignment_solve(self, monkeypatch):
        mu, nu = self._far_pair()
        monkeypatch.setattr(transport, "_CYCLES_PER_POINT", 0)
        result = w2_exact(mu, nu)
        assert result.method == "assignment"
        assert result.distance == _assignment_w2(mu, nu)[0]


class TestMetricAxioms:
    def test_symmetry_identity_triangle(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            mu, nu = _random_pair(rng, 30, 2)
            rho = ParticleEnsemble(rng.normal(size=(30, 2)))
            d_mn = w2_exact(mu, nu).distance
            d_nm = w2_exact(nu, mu).distance
            assert d_mn == pytest.approx(d_nm, abs=1e-12)
            assert w2_exact(mu, mu).distance <= 1e-12
            d_mr = w2_exact(mu, rho).distance
            d_rn = w2_exact(rho, nu).distance
            assert d_mn <= d_mr + d_rn + 1e-9

    def test_positivity(self):
        mu = ParticleEnsemble([[0.0, 0.0]])
        nu = ParticleEnsemble([[1.0, 0.0]])
        assert w2_exact(mu, nu).distance == 1.0


class TestSupW2:
    def _trajectories(self):
        mu0 = ParticleEnsemble(np.random.default_rng(0).normal(size=(30, 2)))
        vf = benchmark_field("rotation", {"omega": 1.0})
        zero = benchmark_field("translation", {"velocity": [0.0, 0.0]})
        cfg = IntegratorConfig(base_step=0.02, snap_times=np.linspace(0, 1, 6))
        return integrate_flow(vf, mu0, cfg), integrate_flow(zero, mu0, cfg)

    def test_self_distance_zero(self):
        traj, _ = self._trajectories()
        assert sup_w2(traj, traj) == 0.0

    def test_sup_dominates_every_snapshot(self):
        traj, frozen = self._trajectories()
        sup = sup_w2(traj, frozen)
        for i in range(traj.times.size):
            a = traj.snapshots[i]
            b = frozen.snapshots[i]
            assert w2_exact(a, b).distance <= sup + 1e-15

    def test_mismatched_times_raise(self):
        traj, frozen = self._trajectories()
        mu0 = frozen.snapshots[0]
        other = integrate_flow(
            benchmark_field("translation", {"velocity": [0.0, 0.0]}),
            mu0,
            IntegratorConfig(base_step=0.02, snap_times=np.linspace(0, 1, 5)),
        )
        with pytest.raises(ValueError):
            sup_w2(traj, other)


class TestPrunedMax:
    """sup_w2 solves only snapshots whose identity-coupling bound reaches the max."""

    def _count_solves(self, monkeypatch):
        calls = []
        original = transport.w2_exact

        def counted(mu, nu):
            calls.append((mu, nu))
            return original(mu, nu)

        monkeypatch.setattr(transport, "w2_exact", counted)
        return calls

    def test_equals_the_max_of_every_solve_when_identity_is_not_optimal(self):
        traj, frozen = TestSupW2()._trajectories()
        pairs = list(zip(traj.snapshots, frozen.snapshots))
        exact = [w2_exact(a, b).distance for a, b in pairs]
        j = int(np.argmax(exact))
        # the rotated cloud is better matched to a relabelling of itself
        assert w2_exact(*pairs[j]).distance < _identity_w2(*pairs[j])
        assert sup_w2(traj, frozen) == max(exact)

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_bound_equals_the_solve_bitwise_when_identity_is_optimal(self, d):
        rng = np.random.default_rng(d)
        mu = ParticleEnsemble(rng.normal(size=(200, d)))
        nu = mu.translate(rng.normal(size=d))
        assert _identity_w2(mu, nu) == w2_exact(mu, nu).distance

    def test_translated_copy_takes_one_solve(self, monkeypatch):
        mu0 = ParticleEnsemble(np.random.default_rng(3).normal(size=(40, 2)))
        times = np.linspace(0.0, 1.0, 6)
        moving = MeasureTrajectory(times, [mu0.translate([3.0 * t, -t]) for t in times])
        frozen = MeasureTrajectory(times, [mu0] * times.size)
        calls = self._count_solves(monkeypatch)
        assert sup_w2(moving, frozen) == pytest.approx(np.hypot(3.0, 1.0), rel=1e-12)
        assert len(calls) == 1
        assert calls[0][0] is moving.final

    def test_tied_maximum_reports_the_earliest_pair(self, monkeypatch):
        rng = np.random.default_rng(11)
        x = ParticleEnsemble(rng.normal(size=(12, 2)))
        shifted = x.translate([0.5, 0.25])
        relabelled = ParticleEnsemble(shifted.points[rng.permutation(12)])
        small = (x, x.translate([0.1, 0.0]))
        # pair 2 holds the same W2 as pair 1 but a looser bound, so it is solved first
        pairs = [small, (x, shifted), (x, relabelled), (x, shifted)]
        assert _identity_w2(*pairs[2]) > _identity_w2(*pairs[1])
        calls = self._count_solves(monkeypatch)
        value, j = _max_w2(pairs, [1.0] * len(pairs))
        assert (value, j) == (w2_exact(x, shifted).distance, 1)
        assert calls[0][1] is relabelled

    def test_all_zero_has_no_argmax(self):
        x = ParticleEnsemble([[0.0, 1.0], [2.0, 3.0]])
        assert _max_w2([(x, x), (x, x)], [0.5, 0.5]) == (0.0, None)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 3),
        st.integers(1, 3),
        st.floats(0.0, 2.0),
        st.integers(0, 10_000),
    )
    def test_agrees_with_bruteforce(self, n, d, snaps, spread, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(snaps, n, d))
        moved = base + rng.normal(size=(snaps, 1, d)) + spread * rng.normal(size=(snaps, n, d))
        times = np.arange(snaps, dtype=float)
        traj_a = MeasureTrajectory(times, [ParticleEnsemble(p) for p in base])
        traj_b = MeasureTrajectory(times, [ParticleEnsemble(p) for p in moved])
        brute = max(
            w2_bruteforce(a, b).distance for a, b in zip(traj_a.snapshots, traj_b.snapshots)
        )
        assert abs(sup_w2(traj_a, traj_b) - brute) <= 1e-12
