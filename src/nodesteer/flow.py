"""Particle pushforward along a vector field or control schedule.

Each particle is integrated independently (the flow map applied pointwise),
so the recorded ensembles are the exact pushforward of the initial measure
modulo ODE-solver error. Steps never straddle a breakpoint of a
:class:`~nodesteer.fields.ControlSchedule`: the step grid is subdivided at
every breakpoint and at every requested snapshot time, and within a window
the active piece is frozen.

A piece's right-hand side A Sigma(W x + theta) depends on x only through
z = W x + theta, so schedule pieces step in z: the same RK4 on the same grid
as a general field's, with different last-digit rounding, from step tables
built once per term of the schedule.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .fields import ControlSchedule
from .measures import ParticleEnsemble
from .transport import _max_w2

DIVERGENCE_LIMIT = 1e8


class DivergenceError(RuntimeError):
    """A particle left the finite range the dynamics permit."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 integrator settings; ``method`` accepts only "rk4".

    snap_times is the requested output grid: at least 2 times, starting at 0
    and increasing. The effective step never exceeds base_step and is
    further subdivided at field breakpoints and snap times, so the default
    realizes min(piece length, horizon/1000) on a unit horizon.
    """

    method: str = "rk4"
    base_step: float = 0.001
    snap_times: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 1.0, 11))

    def __post_init__(self):
        if self.method != "rk4":
            raise ValueError(f"unknown method {self.method!r}; flows integrate with rk4 only")
        if not self.base_step > 0:
            raise ValueError("base_step must be positive")
        snaps = np.asarray(self.snap_times, dtype=float)
        if snaps.ndim != 1 or snaps.size < 2 or snaps[0] != 0.0:
            raise ValueError("snap_times must be a 1-D grid of at least 2 times starting at 0")
        if not np.all(np.diff(snaps) > 0):
            raise ValueError("snap_times must be strictly increasing")
        snaps = snaps.copy()
        snaps.setflags(write=False)
        object.__setattr__(self, "snap_times", snaps)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "base_step": self.base_step,
            "snap_times": self.snap_times.tolist(),
        }


@dataclass(frozen=True)
class MeasureTrajectory:
    """Time-stamped ensembles: the discrete curve t -> mu_t."""

    times: np.ndarray
    snapshots: tuple
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        snaps = tuple(self.snapshots)
        if times.ndim != 1 or times.size != len(snaps) or times.size < 1:
            raise ValueError("times and snapshots must align, one snapshot per time")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        n, d = snaps[0].n, snaps[0].dim
        if any(s.n != n or s.dim != d for s in snaps):
            raise ValueError("all snapshots must share n and d")
        times = times.copy()
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "snapshots", snaps)

    @property
    def n(self) -> int:
        return self.snapshots[0].n

    @property
    def dim(self) -> int:
        return self.snapshots[0].dim

    @property
    def final(self) -> ParticleEnsemble:
        return self.snapshots[-1]

    def save(self, directory) -> None:
        """Write trajectory.json plus one snap_<index>.csv per snapshot.

        Snapshot files an earlier save left in the directory are removed first.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for stale in directory.glob("snap_*.csv"):
            stale.unlink()
        files = []
        for idx, snap in enumerate(self.snapshots):
            fname = f"snap_{idx}.csv"
            (directory / fname).write_text(snap.to_csv())
            files.append(fname)
        meta = {
            "times": self.times.tolist(),
            "n": self.n,
            "dim": self.dim,
            "snapshots": files,
            "provenance": self.provenance,
        }
        (directory / "trajectory.json").write_text(json.dumps(meta, indent=2))

    @staticmethod
    def load(directory) -> "MeasureTrajectory":
        directory = Path(directory)
        meta = json.loads((directory / "trajectory.json").read_text())
        snaps = tuple(
            ParticleEnsemble.from_csv((directory / fname).read_text())
            for fname in meta["snapshots"]
        )
        return MeasureTrajectory(
            np.asarray(meta["times"], dtype=float), snaps, provenance=meta.get("provenance", {})
        )


def _check_finite(x: np.ndarray, t: float) -> None:
    # one reduction on the common path; a NaN fails the comparison and falls
    # through to the particle search
    if np.abs(x).max() <= DIVERGENCE_LIMIT:
        return
    bad = ~np.isfinite(x) | (np.abs(x) > DIVERGENCE_LIMIT)
    if bad.any():
        particle = int(np.argwhere(bad.any(axis=1))[0][0])
        raise DivergenceError(f"particle {particle} diverged at t = {t:.6g}")


def _rk4_step(f, t: float, x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _term_step_tables(term) -> tuple:
    """(C, D) such that T(h) = C + h D is one RK4 step of x' = A Sigma(W x + theta).

    On a single term RK4 reads x only through z = W x + theta:

        z_1 = W x + theta,
        z_2 = z_1 + (h/2) W A Sigma(z_1),
        z_3 = z_1 + (h/2) W A Sigma(z_2),
        z_4 = z_1 + h W A Sigma(z_3),
        x' = x + (h/6) A (Sigma(z_1) + 2 Sigma(z_2) + 2 Sigma(z_3) + Sigma(z_4)).

    With Sigma(z) = (1 + tanh(z/2)) / 2 and tau_k = tanh(z_k / 2), each line
    is linear in g = [1; x; tau_1; ...; tau_4]: row block k - 1 of T(h) maps g
    to z_k / 2, and the last row block maps it to x'.
    """
    A, W, theta = term.A, term.W, term.theta
    d = theta.size
    WA = W @ A
    C = np.zeros((5 * d, 1 + 5 * d))
    D = np.zeros_like(C)
    C[: 4 * d, 0] = np.tile(theta / 2.0, 4)
    C[: 4 * d, 1 : 1 + d] = np.tile(W / 2.0, (4, 1))
    for k, c in ((1, 0.5), (2, 0.5), (3, 1.0)):
        rows = slice(k * d, (k + 1) * d)
        D[rows, 0] = (c / 4.0) * WA.sum(axis=1)
        D[rows, 1 + k * d : 1 + (k + 1) * d] = (c / 4.0) * WA
    C[4 * d :, 1 : 1 + d] = np.eye(d)
    D[4 * d :, 0] = A.sum(axis=1) / 2.0
    D[4 * d :, 1 + d :] = np.hstack([A / 12.0, A / 6.0, A / 6.0, A / 12.0])
    return C, D


class _TermFlow:
    """Particles pushed by fused RK4 steps of a schedule's terms.

    The state is rows 1..d of a (1 + 5d, n) array g = [1; x; tau_1; ...;
    tau_4], so every stage is one matmul and one tanh on contiguous rows, and
    a step returns the state as an (n, d) Fortran-order view. The step's last
    matmul reads the whole of g, so it writes the new state into a second
    such array and the two swap. Each term's tables are built once, indexed
    as the schedule's terms are.
    """

    def __init__(self, x0: np.ndarray, terms):
        n, d = x0.shape
        self._d = d
        self._g, self._spare = np.empty((1 + 5 * d, n)), np.empty((1 + 5 * d, n))
        self._g[0] = self._spare[0] = 1.0
        self._g[1 : 1 + d] = x0.T
        self._tables = [_term_step_tables(term) for term in terms]

    def step(self, i: int, h: float) -> np.ndarray:
        C, D = self._tables[i]
        T = C + h * D
        d, g = self._d, self._g
        for k in range(1, 5):
            tau = g[1 + k * d : 1 + (k + 1) * d]
            np.matmul(T[(k - 1) * d : k * d, : 1 + k * d], g[: 1 + k * d], out=tau)
            np.tanh(tau, out=tau)
        np.matmul(T[4 * d :], g, out=self._spare[1 : 1 + d])
        self._g, self._spare = self._spare, g
        return self._g[1 : 1 + d].T


def integrate_flow(vf, mu0: ParticleEnsemble, cfg: IntegratorConfig) -> MeasureTrajectory:
    """Push mu0 forward along the field, recording snapshots at cfg.snap_times."""
    snaps_req = cfg.snap_times
    t_end = float(snaps_req[-1])
    if vf.horizon < t_end - 1e-12:
        raise ValueError(f"field horizon {vf.horizon} < final snap time {t_end}")
    if mu0.dim != vf.dim:
        raise ValueError(f"ensemble is {mu0.dim}-dimensional, field is {vf.dim}")

    piecewise = isinstance(vf, ControlSchedule)
    internal = vf.breakpoints if piecewise else np.empty(0)
    internal = internal[(internal > 0.0) & (internal < t_end)]
    boundaries = np.unique(np.concatenate([snaps_req, internal]))
    snap_set = set(snaps_req.tolist())

    x = np.array(mu0.points, dtype=float)
    recorded = [ParticleEnsemble(x)]
    term_flow = _TermFlow(x, vf.terms) if piecewise else None

    for a, b in zip(boundaries[:-1].tolist(), boundaries[1:].tolist()):
        if piecewise:
            # freeze the term active at a, so the window's right endpoint
            # cannot evaluate the next piece's
            term_index = vf.order[vf.piece_index(a)]
        span = b - a
        k = max(1, int(np.ceil(span / cfg.base_step - 1e-12)))
        h = span / k
        t = a
        for j in range(k):
            hj = b - t if j == k - 1 else h
            if piecewise:
                x = term_flow.step(term_index, hj)
            else:
                x = _rk4_step(vf.velocity, t, x, hj)
            t = b if j == k - 1 else t + h
            _check_finite(x, t)
        if b in snap_set:
            recorded.append(ParticleEnsemble(x))

    provenance = {
        "field": getattr(vf, "name", None) or type(vf).__name__,
        "field_params": getattr(vf, "params", None),
        "integrator": cfg.to_dict(),
    }
    return MeasureTrajectory(snaps_req, tuple(recorded), provenance=provenance)


@dataclass(frozen=True)
class SupportGrowthReport:
    """Outcome of the support containment check supp mu_t in B_{R+r}(0)."""

    passed: bool
    precondition_ok: bool
    bound: float
    max_radius: float
    first_violation: Optional[tuple] = None  # (t, particle index)

    def to_dict(self) -> dict:
        return asdict(self)


def support_growth_check(
    traj: MeasureTrajectory, r: float, R: float, C: float
) -> SupportGrowthReport:
    """Check T < (R+r)/C and that every snapshot stays inside B_{R+r}(0).

    r = 0 (a measure at the origin) is allowed: Omega is then B_R(0).
    """
    if r < 0 or R <= 0 or C <= 0:
        raise ValueError("r must be nonnegative and R, C positive")
    t_final = float(traj.times[-1])
    precondition_ok = t_final < (R + r) / C
    bound = R + r
    max_radius = 0.0
    first_violation = None
    for t, snap in zip(traj.times, traj.snapshots):
        radii = np.linalg.norm(snap.points, axis=1)
        max_radius = max(max_radius, float(radii.max()))
        if first_violation is None and radii.max() > bound:
            first_violation = (float(t), int(np.argmax(radii > bound)))
    passed = precondition_ok and first_violation is None
    return SupportGrowthReport(passed, precondition_ok, bound, max_radius, first_violation)


@dataclass(frozen=True)
class LipschitzCurveReport:
    """Largest adjacent difference quotient W2(mu_{t+dt}, mu_t)/dt on the grid."""

    passed: bool
    max_quotient: float
    allowed: float
    argmax_pair: Optional[tuple] = None  # (t_j, t_{j+1})


# slack on the per-particle rate bound: the curve constant is C up to numerics
LIPSCHITZ_CURVE_SLACK = 0.05


def lipschitz_curve_check(traj: MeasureTrajectory, C: float) -> LipschitzCurveReport:
    """Check the measure curve moves at W2-rate at most C (with 5% slack).

    The maximum quotient is exact; adjacent snapshots share particle labels,
    so only the pairs whose identity-coupling bound reaches it are solved.
    """
    if len(traj.snapshots) < 2:
        raise ValueError("need at least 2 snapshots to form difference quotients")
    snaps, times = traj.snapshots, traj.times
    pairs = list(zip(snaps[1:], snaps[:-1]))
    dts = [float(dt) for dt in np.diff(times)]
    max_q, j = _max_w2(pairs, dts)
    argmax = None if j is None else (float(times[j]), float(times[j + 1]))
    allowed = C * (1.0 + LIPSCHITZ_CURVE_SLACK)
    return LipschitzCurveReport(max_q <= allowed, max_q, allowed, argmax)
