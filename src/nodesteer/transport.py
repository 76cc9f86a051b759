"""Exact 2-Wasserstein distance between equal-size, equal-weight ensembles.

For two n-point equal-weight measures an optimal transport plan is induced by
a permutation, so W2 reduces to a linear assignment problem on the squared
Euclidean cost matrix C_ij = |x_i - y_j|^2. `w2_exact` starts from the
identity coupling x_i -> y_i, the one a labelled flow pushes forward, cancels
negative cycles from it until dual potentials certify the permutation it
holds, and calls scipy's O(n^3) assignment solver only when that fails;
`w2_bruteforce` enumerates all n! permutations and is the testing oracle for
small n.

The certificate for a permutation a is a vector of dual potentials p with
p_i + C_ia(j) >= p_j + C_ja(j) - eps for every i and j. Summed along any
permutation the potentials telescope, so a certified permutation's normalized
cost is at most the optimum + eps, where eps is `_EPS_REL` times the
identity's cost. The potentials are shortest-path distances for the reduced
costs C_ia(j) - C_ja(j), found by Bellman-Ford rounds on a sparse graph whose
edges into j come from the `_NEIGHBOURS` sources nearest x_j: a near-identity
map's tight constraints and improving exchanges are short hops. A cycle among
the Bellman-Ford predecessors is a negative cycle (Klein's cycle cancelling):
its sources pass their targets round the cycle, which lowers the cost, the
rotated rows' weights are rebuilt and relaxation resumes from the same
potentials. Once relaxation settles the potentials are checked against every
(i, j), a block of sources at a time; each violated target gains an edge
from its worst source and relaxation resumes. The assignment solve runs after
`_DENSE_CHECKS` failed checks, after n rounds without a cycle or convergence,
or after more than `_CYCLES_PER_POINT` * n cancelled cycles, the cap that
bounds the work on unrelated labels.

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
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .measures import ParticleEnsemble

BRUTEFORCE_MAX_N = 8

# Certificate: sources per target in the sparse graph, the tolerance eps as a
# share of the identity cost, Bellman-Ford rounds between cycle checks, dense
# checks and cancelled cycles per point before giving up, and sources per
# block of a dense check.
_NEIGHBOURS = 32
_EPS_REL = 1e-12
_CYCLE_CHECK_EVERY = 4
_DENSE_CHECKS = 4
_CYCLES_PER_POINT = 1
_BLOCK_SOURCES = 256


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
    """W2 distance, its coupling, and the path that found it.

    method is "identity" when the identity coupling was certified,
    "cancelled" when a permutation reached by cancelling negative cycles from
    the identity was certified, "assignment" when the assignment solver ran,
    and "bruteforce" for the enumeration oracle.
    """

    distance: float
    coupling: Coupling
    method: str


def _check_pair(mu: ParticleEnsemble, nu: ParticleEnsemble) -> None:
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.n != nu.n:
        raise ValueError(f"particle count mismatch: {mu.n} vs {nu.n}")


def _sq_norm(diff: np.ndarray) -> np.ndarray:
    """Squared norms over the last axis, coordinates summed in order as cdist does."""
    sq = diff[..., 0] * diff[..., 0]
    for k in range(1, diff.shape[-1]):
        sq = sq + diff[..., k] * diff[..., k]
    return sq


def _identity_costs(mu: ParticleEnsemble, nu: ParticleEnsemble) -> tuple:
    """(C_jj = |x_j - y_j|^2 for every j, the identity coupling's normalized cost)."""
    diag = _sq_norm(mu.points - nu.points)
    return diag, float(diag.sum() / mu.n)


def _predecessor_cycles(pred: np.ndarray) -> tuple:
    """(the nodes on cycles of the predecessor graph, the number of cycles).

    pred[j] == n marks a root. Pointer doubling: after n.bit_length()
    squarings every node has walked at least n + 1 steps, so a node off the
    root has reached a cycle, and every cycle node is reached from the node
    that many steps behind it. The cycles are then counted by the smallest
    node on each, found by doubling again on the cycle nodes alone.
    """
    n = pred.size
    up = np.append(pred, n)
    for _ in range(n.bit_length()):
        up = up[up]
    on = np.zeros(n + 1, dtype=bool)
    on[up[:n]] = True
    nodes = np.flatnonzero(on[:n])
    step = np.searchsorted(nodes, pred[nodes])
    low = np.arange(nodes.size)
    for _ in range(nodes.size.bit_length()):
        low = np.minimum(low, low[step])
        step = step[step]
    return nodes, int((low == np.arange(nodes.size)).sum())


def _dense_slack(x: np.ndarray, y: np.ndarray, p: np.ndarray, floor: np.ndarray) -> tuple:
    """Per target j, min over sources i of p_i + C_ij - floor_j and an i attaining it.

    C is built `_BLOCK_SOURCES` sources at a time, never as a whole n x n matrix,
    and laid out as (target, source) so each minimum runs along a row.
    """
    n = x.shape[0]
    targets = np.arange(n)
    slack = np.full(n, np.inf)
    source = np.zeros(n, dtype=np.intp)
    for start in range(0, n, _BLOCK_SOURCES):
        block = cdist(y, x[start : start + _BLOCK_SOURCES], "sqeuclidean")
        block += p[start : start + _BLOCK_SOURCES]
        i = block.argmin(axis=1)
        value = block[targets, i] - floor
        lower = value < slack
        slack[lower] = value[lower]
        source[lower] = i[lower] + start
    return slack, source


def _certified_permutation(
    x: np.ndarray, y: np.ndarray, diag: np.ndarray, eps: float
) -> np.ndarray | None:
    """A permutation a with potentials p_i + C_ia(j) >= p_j + C_ja(j) - eps for all i, j.

    Starts from the identity. Node j is source j holding target a(j), and an
    edge i -> j of weight C_ia(j) - C_ja(j) hands that target to source i;
    the edges into j come from the sources nearest x_j. Jacobi Bellman-Ford
    from a virtual source relaxes these weights, taking only updates that
    gain more than eps. Every cycle among the predecessors is then a cycle
    of weight below -eps, so handing each target of every such cycle to its
    predecessor at once lowers the cost; only the rotated rows' weights are
    rebuilt, the predecessors restart at the roots, and the potentials stay
    warm. Once relaxation settles the potentials are checked against every
    (i, j); each violated target gains an edge from its worst source and
    relaxation resumes, for at most `_DENSE_CHECKS` checks. None after n
    rounds without a cycle or convergence, after more than
    `_CYCLES_PER_POINT` * n cycles, or when the checks run out.
    """
    n = x.shape[0]
    k = min(_NEIGHBOURS, n)
    nbr = cKDTree(x).query(x, k=k)[1].reshape(n, k)
    w = _sq_norm(x[nbr] - y[:, None, :]) - diag[:, None]
    rows = np.arange(n)
    perm = rows.copy()
    diag = diag.copy()
    p = np.zeros(n)
    pred = np.full(n, n)
    cycles = 0
    for _ in range(_DENSE_CHECKS):
        r = 0
        while True:
            r += 1
            cand = p[nbr] + w
            arg = cand.argmin(axis=1)
            best = cand[rows, arg]
            improved = best < p - eps
            if not improved.any():
                break
            p[improved] = best[improved]
            pred[improved] = nbr[improved, arg[improved]]
            if r % _CYCLE_CHECK_EVERY and r < n:
                continue
            nodes, count = _predecessor_cycles(pred)
            if not count:
                if r == n:
                    return None
                continue
            cycles += count
            if cycles > _CYCLES_PER_POINT * n:
                return None
            perm[pred[nodes]] = perm[nodes]
            target = y[perm[nodes]]
            diag[nodes] = _sq_norm(x[nodes] - target)
            w[nodes] = _sq_norm(x[nbr[nodes]] - target[:, None, :]) - diag[nodes, None]
            pred.fill(n)
            r = 0
        target = y[perm]
        slack, source = _dense_slack(x, target, p, p + diag - eps)
        violated = slack < 0
        if not violated.any():
            return perm
        # a target without a violation gains its own edge, of weight 0
        extra = np.where(violated, source, rows)
        nbr = np.column_stack([nbr, extra])
        w = np.column_stack([w, _sq_norm(x[extra] - target) - diag])
    return None


def w2_exact(mu: ParticleEnsemble, nu: ParticleEnsemble) -> W2Result:
    """Exact W2 between equal-weight ensembles.

    Starting from the identity coupling x_i -> y_i, negative cycles are
    cancelled until dual potentials certify that the permutation's
    normalized cost is at most the optimum + eps, with eps `_EPS_REL` times
    the identity's cost. When the certificate fails or the cycle cap is
    reached, scipy's O(n^3) assignment solver finds an optimal permutation.
    Every path costs its permutation by one expression, so an identity
    result's distance is `_identity_w2`'s, bit for bit. ``method`` says
    which path ran.
    """
    _check_pair(mu, nu)
    diag, identity_cost = _identity_costs(mu, nu)
    perm = _certified_permutation(mu.points, nu.points, diag, _EPS_REL * identity_cost)
    if perm is None:
        # the row indices of a square problem come back as 0..n-1
        perm = linear_sum_assignment(cdist(mu.points, nu.points, "sqeuclidean"))[1]
        method = "assignment"
    else:
        method = "identity" if np.array_equal(perm, np.arange(mu.n)) else "cancelled"
    cost = float(_sq_norm(mu.points - nu.points[perm]).sum() / mu.n)
    return W2Result(float(np.sqrt(cost)), Coupling(perm, cost), method)


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
    return W2Result(float(np.sqrt(cost)), Coupling(np.asarray(best_perm), cost), "bruteforce")


def _identity_w2(mu: ParticleEnsemble, nu: ParticleEnsemble) -> float:
    """W2 distance of the coupling x_i -> y_i, an upper bound on W2(mu, nu).

    Squares are summed over coordinates in order and the entries by
    ndarray.sum, as `w2_exact` costs a coupling, so the bound equals
    `w2_exact`'s distance bit for bit whenever the identity is optimal.
    """
    _check_pair(mu, nu)
    return float(np.sqrt(_identity_costs(mu, nu)[1]))


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
