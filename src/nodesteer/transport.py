"""Exact 2-Wasserstein distance between equal-size, equal-weight ensembles.

For two n-point equal-weight measures an optimal transport plan is induced by
a permutation, so W2 reduces to a linear assignment problem on the squared
Euclidean cost matrix. `w2_exact` solves it with scipy's O(n^3) assignment
solver; `w2_bruteforce` enumerates all n! permutations and is the testing
oracle for small n.

`sup_w2` reports only the largest W2 over paired snapshots of two particle
curves, so it solves only the snapshots that can hold it. Paired snapshots
push the same labelled particles, so the identity coupling is feasible and its
cost is an upper bound on W2 that costs O(n d) to compute. Snapshots are
visited in descending bound; each is solved exactly until the next bound falls
strictly below the largest exact distance found, and every snapshot from there
on is bounded, not solved. The maximum stays exact: it is an exact solve, and
no skipped snapshot can exceed it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .measures import ParticleEnsemble

BRUTEFORCE_MAX_N = 8


@dataclass(frozen=True)
class Coupling:
    """Permutation coupling: source i is matched to target assignment[i].

    cost is the normalized squared-distance total (1/n) sum_i |x_i - y_{a(i)}|^2.
    """

    assignment: np.ndarray
    cost: float

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.intp)
        n = a.size
        if n < 1 or not np.array_equal(np.sort(a), np.arange(n)):
            raise ValueError("assignment must be a permutation of 0..n-1")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        if self.cost < 0:
            raise ValueError("coupling cost must be nonnegative")


@dataclass(frozen=True)
class W2Result:
    distance: float
    coupling: Coupling


def _check_pair(mu: ParticleEnsemble, nu: ParticleEnsemble) -> None:
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.n != nu.n:
        raise ValueError(f"particle count mismatch: {mu.n} vs {nu.n}")


def w2_exact(mu: ParticleEnsemble, nu: ParticleEnsemble) -> W2Result:
    """Exact W2 between equal-weight ensembles via optimal assignment."""
    _check_pair(mu, nu)
    cost_matrix = cdist(mu.points, nu.points, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost_matrix)
    assignment = np.empty(mu.n, dtype=np.intp)
    assignment[rows] = cols
    cost = float(cost_matrix[rows, cols].sum() / mu.n)
    return W2Result(float(np.sqrt(cost)), Coupling(assignment, cost))


def w2_bruteforce(mu: ParticleEnsemble, nu: ParticleEnsemble) -> W2Result:
    """Exhaustive-minimum W2 over all n! permutations (oracle, n <= 8)."""
    _check_pair(mu, nu)
    if mu.n > BRUTEFORCE_MAX_N:
        raise ValueError(f"brute force capped at n = {BRUTEFORCE_MAX_N}, got n = {mu.n}")
    cost_matrix = cdist(mu.points, nu.points, "sqeuclidean")
    idx = np.arange(mu.n)
    best_cost = np.inf
    best_perm = None
    for perm in itertools.permutations(range(mu.n)):
        total = cost_matrix[idx, perm].sum()
        if total < best_cost:
            best_cost = total
            best_perm = perm
    cost = float(best_cost / mu.n)
    return W2Result(float(np.sqrt(cost)), Coupling(np.asarray(best_perm), cost))


def _identity_w2(mu: ParticleEnsemble, nu: ParticleEnsemble) -> float:
    """W2 distance of the coupling x_i -> y_i, an upper bound on W2(mu, nu).

    Squares are summed over coordinates in order and the entries by
    ndarray.sum, as `w2_exact` costs a coupling, so the bound equals
    `w2_exact`'s distance bit for bit whenever the identity is optimal.
    """
    _check_pair(mu, nu)
    diff = mu.points - nu.points
    sq = diff[:, 0] * diff[:, 0]
    for k in range(1, mu.dim):
        sq = sq + diff[:, k] * diff[:, k]
    return float(np.sqrt(float(sq.sum() / mu.n)))


def _max_w2(pairs, divisors) -> tuple:
    """(value, index): the max over j of W2(a_j, b_j) / divisors[j], exactly.

    Pairs are solved in descending order of their identity-coupling bound
    until a bound falls strictly below the best exact value. The index is the
    earliest pair attaining a positive maximum, or None when every value is 0.
    """
    bounds = [_identity_w2(a, b) / div for (a, b), div in zip(pairs, divisors)]
    best, best_j = 0.0, None
    for j in sorted(range(len(pairs)), key=lambda j: -bounds[j]):
        if bounds[j] < best:
            break
        value = w2_exact(*pairs[j]).distance / divisors[j]
        if value > best or (value == best and best_j is not None and j < best_j):
            best, best_j = value, j
    return best, best_j


def sup_w2(traj_a, traj_b) -> float:
    """Max over shared grid times of the exact W2 between matching snapshots.

    Both arguments are MeasureTrajectory objects on identical time grids with
    identical particle counts. Only the snapshots whose identity-coupling
    bound reaches the running maximum get an exact solve; the others are
    bounded below it, so the result is still the exact maximum.
    """
    if not np.array_equal(traj_a.times, traj_b.times):
        raise ValueError("trajectories must share an identical time grid")
    pairs = list(zip(traj_a.snapshots, traj_b.snapshots))
    return _max_w2(pairs, [1.0] * len(pairs))[0]
