"""Constructive synthesis of piecewise-constant neural-ODE control schedules.

The pipeline turns a bounded Lipschitz target field into an admissible weight
schedule (:class:`~nodesteer.fields.ControlSchedule`) in two stages. The fit
stage (:func:`fit_windows`) splits the horizon into n_avg equal windows,
takes each window's time average of the field (the field's own
superposition when it declares one, else composite Simpson quadrature) and
fits one logistic superposition per window on a compact set sized from the
declared bounds, by random features and one ridge solve whose scale, ridge
weight and grid are fixed constants; it depends on nothing but its inputs.
The schedule stage (:func:`schedule_windows`) switches each fitted
superposition in a periodic oscillation whose period-mean reproduces it
exactly. Only the schedule stage reads the period count n_osc, so one fit
serves every n_osc. :class:`SynthesisParams` rejects knobs whose schedule
would exceed ``MAX_SCHEDULE_PIECES`` pieces, so no stage checks the cap
again, and a run's :class:`SynthesisReport` is a view of the fit stage's
:class:`WindowFits`. A displacement-interpolation target builder covers the
steering problem between two given ensembles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import ControlSchedule, NeuralField, NeuralTerm, VectorFieldSpec, logistic
from .measures import ParticleEnsemble, Region, support_radius
from .transport import _sq_norm, w2_exact

MAX_SCHEDULE_PIECES = 1_000_000

SIMPSON_SUBINTERVALS = 64


@dataclass(frozen=True)
class SynthesisParams:
    """Knobs of the synthesis pipeline.

    n_avg: time-averaging window count; m_width: superposition width per
    window; fit_tolerance: sup-norm fit target delta; n_osc: oscillation
    period count per window; region_margin: multiplier sizing the fitting
    set, must exceed 1 so the support-growth window condition holds strictly.
    The schedule's n_avg * m_width * n_osc pieces may not exceed
    MAX_SCHEDULE_PIECES.
    """

    n_avg: int = 1
    m_width: int = 16
    fit_tolerance: float = 0.1
    n_osc: int = 4
    region_margin: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if min(self.n_avg, self.m_width, self.n_osc) < 1:
            raise ValueError("n_avg, m_width, n_osc must all be >= 1")
        if not self.fit_tolerance > 0:
            raise ValueError("fit_tolerance must be positive")
        if not self.region_margin > 1:
            raise ValueError("region_margin must exceed 1")
        total_pieces = self.n_avg * self.m_width * self.n_osc
        if total_pieces > MAX_SCHEDULE_PIECES:
            raise ValueError(f"{total_pieces} pieces exceed the {MAX_SCHEDULE_PIECES} schedule cap")

    def to_dict(self) -> dict:
        return asdict(self)


# -- window time averages ------------------------------------------------------


# composite Simpson weights 1, 4, 2, 4, ..., 2, 4, 1 on an even subinterval count
_SIMPSON_COEFFICIENTS = np.ones(SIMPSON_SUBINTERVALS + 1)
_SIMPSON_COEFFICIENTS[1:-1:2] = 4.0
_SIMPSON_COEFFICIENTS[2:-1:2] = 2.0


def _window_average(vf: VectorFieldSpec, a: float, b: float) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> (1/(b-a)) * integral of V_tau(x) over [a, b].

    It is the field's own superposition when it declares one
    (``vf.static_superposition``), else composite Simpson quadrature.
    """
    if vf.static_superposition is not None:
        return vf.static_superposition
    ts = np.linspace(a, b, SIMPSON_SUBINTERVALS + 1)
    total = _SIMPSON_COEFFICIENTS.sum()

    def piece(x: np.ndarray) -> np.ndarray:
        vals = np.stack([vf.velocity(float(t), x) for t in ts])
        if np.all(vals == vals[0]):
            # constant over the window: the average is the value, exactly
            return vals[0].copy()
        return np.tensordot(_SIMPSON_COEFFICIENTS, vals, axes=1) / total

    return piece


# -- superposition fitting ------------------------------------------------------

_DEFAULT_GRID_PER_AXIS = {1: 256, 2: 32, 3: 12}
# random-feature fit constants: feature directions at FEATURE_SCALE / (region
# radius), ridge weight RIDGE per training point
FEATURE_SCALE = 4.0
RIDGE = 1e-9


def _grid_per_axis(dim: int) -> int:
    return _DEFAULT_GRID_PER_AXIS.get(dim, max(3, int(round(2048 ** (1.0 / dim)))))


@dataclass(frozen=True)
class SuperpositionFit:
    """A fitted m-term superposition plus its measured sup error on Omega."""

    field: NeuralField
    sup_error: float
    tolerance: float
    train_points: int
    validation_points: int

    @property
    def tolerance_met(self) -> bool:
        return self.sup_error <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "sup_error": self.sup_error,
            "tolerance": self.tolerance,
            "tolerance_met": self.tolerance_met,
            "width": self.field.width,
            "gain_total": self.field.gain_total(),
            "train_points": self.train_points,
            "validation_points": self.validation_points,
        }


def _feature_matrix(x: np.ndarray, Ws: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    # (n, m*d) with block i holding Sigma(W_i x + theta_i)
    n, d = x.shape
    m = Ws.shape[0]
    z = np.einsum("nk,mjk->nmj", x, Ws) + thetas[None, :, :]
    return logistic(z).reshape(n, m * d)


def _sup_error(
    target: Callable[[np.ndarray], np.ndarray], nf: NeuralField, pts: np.ndarray
) -> float:
    diff = nf(pts) - target(pts)
    return float(np.max(np.linalg.norm(diff, axis=1)))


def fit_superposition(
    target: Callable[[np.ndarray], np.ndarray],
    region: Region,
    m: int,
    tol: float,
    seed: int,
    init_terms: Optional[Sequence[NeuralTerm]] = None,
) -> SuperpositionFit:
    """Fit an m-term logistic superposition to a static field on a compact region.

    Random feature directions W_i are drawn at scale FEATURE_SCALE / (region
    radius) with offsets theta_i centering each feature at a uniform point of
    the region; ``init_terms`` replace the first directions and offsets. The
    output matrices A_i come from one ridge least-squares solve on a regular
    training grid (random kitchen sinks, Rahimi & Recht 2008). The sup error
    is measured on a finer, offset validation grid; missing ``tol`` flags the
    result rather than raising.
    """
    if m < 1:
        raise ValueError("width m must be >= 1")
    if region.dim < 1:
        raise ValueError("degenerate region")
    d = region.dim
    per_axis = _grid_per_axis(d)
    train = region.grid(per_axis)
    validation = region.grid(per_axis + 1)
    if train.shape[0] < m or validation.shape[0] < 1:
        raise ValueError("region grid too coarse for the requested width")

    rng = np.random.default_rng(seed)
    rho = max(region.radius, 1e-12)
    Ws = rng.standard_normal((m, d, d)) * (FEATURE_SCALE / rho)
    centers = region.sample(rng, m)
    thetas = -np.einsum("mjk,mk->mj", Ws, centers)
    if init_terms:
        if len(init_terms) > m:
            raise ValueError("more init_terms than requested width")
        for i, term in enumerate(init_terms):
            Ws[i] = term.W
            thetas[i] = term.theta

    targets = np.asarray(target(train), dtype=float)
    if targets.shape != train.shape:
        raise ValueError("target must map (n, d) points to (n, d) velocities")

    phi = _feature_matrix(train, Ws, thetas)
    gram = phi.T @ phi + RIDGE * train.shape[0] * np.eye(m * d)
    B = np.linalg.solve(gram, phi.T @ targets)
    As = B.reshape(m, d, d).transpose(0, 2, 1)

    nf = NeuralField(tuple(NeuralTerm(As[i], Ws[i], thetas[i]) for i in range(m)))
    err = _sup_error(target, nf, validation)
    return SuperpositionFit(
        field=nf,
        sup_error=err,
        tolerance=float(tol),
        train_points=train.shape[0],
        validation_points=validation.shape[0],
    )


# -- oscillation scheduling -----------------------------------------------------


def oscillation_schedule(nf: NeuralField, window, N: int) -> ControlSchedule:
    """Periodic single-term switching whose period-mean equals the superposition.

    Splits the window into N periods of m equal subintervals; subinterval i
    carries the single term (m * A_i, W_i, theta_i), so over any full period
    the gain factor m cancels the 1/m time fraction exactly. The m scaled
    terms are built once and shared by all N periods.
    """
    t_a, t_b = float(window[0]), float(window[1])
    if not t_b > t_a:
        raise ValueError("window must have positive length")
    if N < 1:
        raise ValueError("period count N must be >= 1")
    m = nf.width
    scaled = [term.scaled(float(m)) for term in nf.terms]
    return ControlSchedule(np.linspace(t_a, t_b, m * N + 1), scaled * N)


# -- full pipeline: the fit stage and the schedule stage ------------------------


@dataclass(frozen=True)
class WindowFits:
    """The fit stage's output: Omega's sizing and one superposition per window.

    Nothing here depends on the period count n_osc, so one instance serves
    the schedule stage at every n_osc.
    """

    dim: int
    support_radius: float
    region_R: float
    bound_C: float
    delta: float
    windows: tuple  # (a, b) per averaging window, in time order
    fits: tuple  # SuperpositionFit per window


@dataclass(frozen=True)
class SynthesisReport:
    """Everything needed to audit one synthesis run, as a view of its window fits."""

    params: SynthesisParams
    fits: WindowFits
    piece_count: int

    @property
    def omega_radius(self) -> float:
        return self.fits.region_R + self.fits.support_radius

    @property
    def tolerance_met(self) -> bool:
        return all(f.tolerance_met for f in self.fits.fits)

    @property
    def max_fit_error(self) -> float:
        return max((f.sup_error for f in self.fits.fits), default=0.0)

    def to_json_dict(self) -> dict:
        fits = self.fits
        return {
            "params": self.params.to_dict(),
            "activation": "logistic",
            "support_radius": fits.support_radius,
            "region_R": fits.region_R,
            "omega_radius": self.omega_radius,
            "bound_C": fits.bound_C,
            "delta": fits.delta,
            "window_fits": [{"window": list(w), **f.to_dict()} for w, f in zip(fits.windows, fits.fits)],
            "piece_count": self.piece_count,
            "tolerance_met": self.tolerance_met,
        }


@dataclass(frozen=True)
class SynthesisResult:
    schedule: ControlSchedule
    report: SynthesisReport


def _window_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def fit_windows(
    vf: VectorFieldSpec,
    mu0: ParticleEnsemble,
    params: SynthesisParams,
) -> WindowFits:
    """Fit stage: size Omega, time-average the field, fit each window.

    Sizes the fitting set Omega = B_{R+r}(0) from the initial support radius r
    and R = region_margin * T * (C + delta), which keeps T < (R+r)/(C+delta)
    strictly; then averages the field over params.n_avg windows and fits one
    params.m_width-term superposition per window on Omega. params.n_osc is
    not read.
    """
    d = mu0.dim
    if vf.dim != d:
        raise ValueError(f"ensemble is {d}-dimensional, field is {vf.dim}")
    T = vf.horizon
    C = vf.bound_C
    delta = params.fit_tolerance
    r = support_radius(mu0, np.zeros(d))
    R = params.region_margin * T * (C + delta)
    omega = Region("ball", np.zeros(d), np.array([R + r]))

    edges = np.linspace(0.0, T, params.n_avg + 1)
    windows = tuple((float(a), float(b)) for a, b in zip(edges[:-1], edges[1:]))
    fits = []
    for (a, b), seed in zip(windows, _window_seeds(params.seed, params.n_avg)):
        target = _window_average(vf, a, b)
        # a window target that is already admissible warm-starts with its own terms
        admissible = isinstance(target, NeuralField) and target.width <= params.m_width
        fits.append(
            fit_superposition(target, omega, params.m_width, delta, seed, target.terms if admissible else None)
        )
    return WindowFits(d, r, R, C, delta, windows, tuple(fits))


def schedule_windows(fits: WindowFits, params: SynthesisParams) -> SynthesisResult:
    """Schedule stage: oscillate each window's fit over params.n_osc periods.

    Concatenates the window schedules and reports the run under params. A
    window whose fit is identically zero gets one quiescent piece instead.
    """
    d = fits.dim
    all_breakpoints = [0.0]
    all_pieces = []
    for (a, b), fit in zip(fits.windows, fits.fits):
        if all(np.all(t.A == 0.0) for t in fit.field.terms):
            # zero window: a single quiescent piece instead of an oscillation
            all_breakpoints.append(b)
            all_pieces.append(NeuralTerm(np.zeros((d, d)), np.eye(d), np.zeros(d)))
        else:
            window_schedule = oscillation_schedule(fit.field, (a, b), params.n_osc)
            all_breakpoints.extend(window_schedule.breakpoints[1:].tolist())
            all_pieces.extend(window_schedule.pieces)

    schedule = ControlSchedule(np.asarray(all_breakpoints), all_pieces)
    return SynthesisResult(schedule, SynthesisReport(params, fits, schedule.piece_count))


def synthesize_controls(
    vf: VectorFieldSpec,
    mu0: ParticleEnsemble,
    params: SynthesisParams,
) -> SynthesisResult:
    """Run the full synthesis pipeline against a declared-bound target field.

    Runs the fit stage (:func:`fit_windows`) and the schedule stage
    (:func:`schedule_windows`) at params.n_osc.
    """
    return schedule_windows(fit_windows(vf, mu0, params), params)


# -- steering target from two ensembles ------------------------------------------


# the displacement field carries mu0 to muf over [0, DISPLACEMENT_HORIZON]
DISPLACEMENT_HORIZON = 1.0
# query points per block of a displacement-field evaluation
_BLOCK_QUERIES = 128


def displacement_target_field(
    mu0: ParticleEnsemble, muf: ParticleEnsemble, smoothing: float
) -> VectorFieldSpec:
    """Bounded Lipschitz field carrying mu0 toward muf along the optimal coupling.

    Matches the ensembles with the exact W2 coupling, then kernel-regresses
    the matched displacements onto the straight-line interpolated positions
    with the given Gaussian bandwidth. The field is a convex combination of
    the particle displacements, so its sup norm is exactly their largest norm.

    Each evaluation writes the kernel logits -|x - a|^2 / (2h^2) as one
    matmul, ``[x | 1] @ [a^T / h^2 ; -|a|^2 / (2h^2)]``, which drops the
    -|x|^2 / (2h^2) term: it is constant along a row, and shifting each row by
    its maximum cancels it anyway. After the shift every row's weight sum is
    at least 1, so a query far from every anchor still takes its nearest
    move. The weights are exponentiated in place and normalised by one matmul
    against ``[moves | 1]``, whose last column is the weight sum that divides
    the rest. Queries are taken ``_BLOCK_QUERIES`` rows at a time, so the
    working set is one block of logits, never a whole n x n matrix.

    The declared Lipschitz constant K (also ``params["lipschitz_K"]``) is an
    analytic bound that holds for every x and t. The field's Jacobian is
    Cov_w(moves, anchors) / h^2, and Popoviciu's inequality bounds its norm
    by r_moves * span / h^2, where r_moves is the moves' support radius about
    their mean and every anchor lies within ``span`` of the region centre.
    """
    if smoothing <= 0:
        raise ValueError("smoothing bandwidth must be positive")
    result = w2_exact(mu0, muf)
    x0 = np.array(mu0.points)
    targets = np.array(muf.points)[result.coupling.assignment]
    moves = targets - x0
    max_move = float(np.max(np.linalg.norm(moves, axis=1)))
    inv_h2 = 1.0 / smoothing**2

    moves_and_one = np.hstack([moves, np.ones((len(moves), 1))])
    d = moves.shape[1]

    def evaluator(t, x):
        anchors = x0 + t * moves
        logit_coef = np.vstack([anchors.T * inv_h2, -0.5 * inv_h2 * _sq_norm(anchors)])
        x_and_one = np.hstack([x, np.ones((len(x), 1))])
        out = np.empty((len(x), d + 1))
        for start in range(0, len(x), _BLOCK_QUERIES):
            w = x_and_one[start : start + _BLOCK_QUERIES] @ logit_coef
            w -= w.max(axis=1, keepdims=True)
            np.exp(w, out=w)
            np.matmul(w, moves_and_one, out=out[start : start + _BLOCK_QUERIES])
        return out[:, :d] / out[:, d:]

    mid = 0.5 * (x0.mean(axis=0) + targets.mean(axis=0))
    span = max(
        support_radius(mu0, mid), support_radius(ParticleEnsemble(targets), mid)
    )
    region = Region("ball", mid, np.array([span + 2.0 * smoothing]))
    r_moves = support_radius(ParticleEnsemble(moves), moves.mean(axis=0))
    lipschitz_k = r_moves * span / smoothing**2

    return VectorFieldSpec(
        evaluator,
        bound_C=max_move,
        lipschitz_K=lipschitz_k,
        horizon=DISPLACEMENT_HORIZON,
        region=region,
        name="displacement-interpolation",
        params={"bandwidth": smoothing, "n": mu0.n, "lipschitz_K": lipschitz_k},
    )
