"""Constructive synthesis of piecewise-constant neural-ODE control schedules.

The pipeline turns a bounded Lipschitz target field into an admissible weight
schedule in two stages. The fit stage (:func:`fit_windows`) time-averages the
field over windows and fits one superposition per window on a compact set
sized from the declared bounds. The schedule stage (:func:`schedule_windows`)
switches each fitted superposition in a periodic oscillation whose
period-mean reproduces it exactly. Only the schedule stage reads the period
count n_osc, so one fit serves every n_osc. A displacement-interpolation
target builder covers the steering problem between two given ensembles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .fields import (
    Activation,
    NeuralField,
    NeuralTerm,
    PiecewiseConstField,
    VectorFieldSpec,
    estimate_bounds,
)
from .measures import ParticleEnsemble, Region, support_radius
from .transport import w2_exact

MAX_SCHEDULE_PIECES = 1_000_000

SIMPSON_SUBINTERVALS = 64


class ControlSchedule(PiecewiseConstField):
    """Piecewise-constant weights: one (A, W, theta) triple active per piece.

    Evaluation at (t, x) with active piece (A, W, theta) is A Sigma(W x + theta),
    so the schedule is an admissible neural-ODE right-hand side by construction.
    """

    def __init__(self, breakpoints: Sequence[float], pieces: Sequence[NeuralTerm], activation: Activation):
        super().__init__(breakpoints, pieces)
        if not all(isinstance(p, NeuralTerm) for p in self.pieces):
            raise ValueError("every schedule piece must be a single NeuralTerm")
        if any(p.dim != self.pieces[0].dim for p in self.pieces):
            raise ValueError("all pieces must share one dimension")
        self.activation = activation

    @property
    def dim(self) -> int:
        return self.pieces[0].dim

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    def static_piece(self, j: int) -> Callable[[np.ndarray], np.ndarray]:
        term = self.pieces[j]
        act = self.activation

        def piece(x: np.ndarray) -> np.ndarray:
            return act(np.atleast_2d(x) @ term.W.T + term.theta) @ term.A.T

        return piece

    def to_json_dict(self) -> dict:
        return {
            "activation": self.activation.kind,
            "breakpoints": self.breakpoints.tolist(),
            "pieces": [p.to_dict() for p in self.pieces],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(d: Mapping) -> "ControlSchedule":
        return ControlSchedule(
            np.asarray(d["breakpoints"], dtype=float),
            [NeuralTerm.from_dict(p) for p in d["pieces"]],
            Activation(d["activation"]),
        )

    @staticmethod
    def from_json(text: str) -> "ControlSchedule":
        return ControlSchedule.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class SynthesisParams:
    """Knobs of the synthesis pipeline.

    n_avg: time-averaging window count; m_width: superposition width per
    window; fit_tolerance: sup-norm fit target delta; n_osc: oscillation
    period count per window; region_margin: multiplier sizing the fitting
    set, must exceed 1 so the support-growth window condition holds strictly.
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

    def to_dict(self) -> dict:
        return {
            "n_avg": self.n_avg,
            "m_width": self.m_width,
            "fit_tolerance": self.fit_tolerance,
            "n_osc": self.n_osc,
            "region_margin": self.region_margin,
            "seed": self.seed,
        }


# -- window time averages ------------------------------------------------------


def _simpson_coefficients(subintervals: int) -> np.ndarray:
    if subintervals % 2:
        raise ValueError("composite Simpson needs an even subinterval count")
    c = np.ones(subintervals + 1)
    c[1:-1:2] = 4.0
    c[2:-1:2] = 2.0
    return c


def _quadrature_window_average(vf, a: float, b: float) -> Callable[[np.ndarray], np.ndarray]:
    ts = np.linspace(a, b, SIMPSON_SUBINTERVALS + 1)
    coeff = _simpson_coefficients(SIMPSON_SUBINTERVALS)
    total = coeff.sum()

    def piece(x: np.ndarray) -> np.ndarray:
        vals = np.stack([vf.velocity(float(t), x) for t in ts])
        if np.all(vals == vals[0]):
            # constant over the window: the average is the value, exactly
            return vals[0].copy()
        return np.tensordot(coeff, vals, axes=1) / total

    return piece


def _piecewise_window_average(vf, a: float, b: float) -> Callable[[np.ndarray], np.ndarray]:
    bp = np.asarray(vf.breakpoints, dtype=float)
    cuts = np.unique(np.concatenate([[a, b], bp[(bp > a) & (bp < b)]]))
    spans = np.diff(cuts)
    idx = [vf.piece_index(float(lo)) for lo in cuts[:-1]]
    if len(idx) == 1:
        return vf.static_piece(idx[0])

    def piece(x: np.ndarray) -> np.ndarray:
        acc = spans[0] * vf.static_piece(idx[0])(x)
        for span, j in zip(spans[1:], idx[1:]):
            acc += span * vf.static_piece(j)(x)
        return acc / (b - a)

    return piece


def time_average(vf, N: int, horizon: Optional[float] = None) -> PiecewiseConstField:
    """Average the field over N equal windows of [0, T].

    Piece n evaluates (N/T) * integral of V_tau(x) over window n: by composite
    Simpson quadrature for general fields, by exact subinterval weighting when
    the input is itself piecewise constant in time, and as the field itself
    when the input is a time-independent superposition.
    """
    if N < 1:
        raise ValueError("window count N must be >= 1")
    if horizon is None:
        horizon = getattr(vf, "horizon", None)
    if horizon is None:
        raise ValueError("field needs a time horizon to average over")
    windows = np.linspace(0.0, float(horizon), N + 1)
    static = vf if isinstance(vf, NeuralField) else getattr(vf, "static_superposition", None)
    if static is not None:
        return PiecewiseConstField(windows, [static] * N)
    builder = (
        _piecewise_window_average if hasattr(vf, "piece_index") else _quadrature_window_average
    )
    pieces = [builder(vf, float(a), float(b)) for a, b in zip(windows[:-1], windows[1:])]
    return PiecewiseConstField(windows, pieces)


# -- superposition fitting ------------------------------------------------------

_DEFAULT_GRID_PER_AXIS = {1: 256, 2: 32, 3: 12}


def _grid_per_axis(dim: int) -> int:
    return _DEFAULT_GRID_PER_AXIS.get(dim, max(3, int(round(2048 ** (1.0 / dim)))))


@dataclass(frozen=True)
class SuperpositionFit:
    """A fitted m-term superposition plus its measured sup error on Omega."""

    field: NeuralField
    sup_error: float
    tolerance: float
    tolerance_met: bool
    train_points: int
    validation_points: int

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


def _activation_derivative(activation: Activation, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    if activation.kind == "logistic":
        return s * (1.0 - s)
    if activation.kind == "relu":
        return (z > 0).astype(float)
    return 1.0 - s**2  # tanh


def _feature_matrix(x: np.ndarray, Ws: np.ndarray, thetas: np.ndarray, activation: Activation) -> np.ndarray:
    # (n, m*d) with block i holding Sigma(W_i x + theta_i)
    n, d = x.shape
    m = Ws.shape[0]
    z = np.einsum("nk,mjk->nmj", x, Ws) + thetas[None, :, :]
    return activation(z).reshape(n, m * d)


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
    activation: Activation = Activation("logistic"),
    init_terms: Optional[Sequence[NeuralTerm]] = None,
    grid_per_axis: Optional[int] = None,
    ridge: float = 1e-9,
    feature_scale: float = 4.0,
    refine_steps: int = 0,
    refine_lr: float = 1e-2,
) -> SuperpositionFit:
    """Fit an m-term superposition to a static field on a compact region.

    Random feature directions W_i are drawn at scale feature_scale / (region
    radius) with offsets theta_i centering each feature at a uniform point of
    the region; the output matrices A_i come from ridge least squares on a
    regular training grid. Optional joint gradient refinement of (A, W, theta)
    then polishes all parameters. The sup error is measured on a finer,
    offset validation grid; missing ``tol`` flags the result rather than
    raising.
    """
    if m < 1:
        raise ValueError("width m must be >= 1")
    if region.dim < 1:
        raise ValueError("degenerate region")
    d = region.dim
    per_axis = grid_per_axis or _grid_per_axis(d)
    train = region.grid(per_axis)
    validation = region.grid(per_axis + 1)
    if train.shape[0] < m or validation.shape[0] < 1:
        raise ValueError("region grid too coarse for the requested width")

    rng = np.random.default_rng(seed)
    rho = max(region.radius, 1e-12)
    Ws = rng.standard_normal((m, d, d)) * (feature_scale / rho)
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

    phi = _feature_matrix(train, Ws, thetas, activation)
    gram = phi.T @ phi + ridge * train.shape[0] * np.eye(m * d)
    B = np.linalg.solve(gram, phi.T @ targets)
    As = B.reshape(m, d, d).transpose(0, 2, 1)

    if refine_steps > 0:
        As, Ws, thetas = _refine_parameters(
            train, targets, As, Ws, thetas, activation, refine_steps, refine_lr
        )

    nf = NeuralField(
        tuple(NeuralTerm(As[i], Ws[i], thetas[i]) for i in range(m)), activation
    )
    err = _sup_error(target, nf, validation)
    return SuperpositionFit(
        field=nf,
        sup_error=err,
        tolerance=float(tol),
        tolerance_met=bool(err <= tol),
        train_points=train.shape[0],
        validation_points=validation.shape[0],
    )


def _refine_parameters(x, y, As, Ws, thetas, activation, steps, lr):
    """Full-batch Adam on the mean squared residual, updating all parameters."""
    params = [As.copy(), Ws.copy(), thetas.copy()]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    n = x.shape[0]
    best = None
    best_loss = np.inf
    for step in range(1, steps + 1):
        A, W, th = params
        z = np.einsum("nk,mjk->nmj", x, W) + th[None, :, :]
        s = activation(z)
        pred = np.einsum("nmj,mij->ni", s, A)
        resid = pred - y
        loss = float(np.mean(resid**2))
        if loss < best_loss:
            best_loss = loss
            best = [p.copy() for p in params]
        d_pred = (2.0 / (n * y.shape[1])) * resid
        dA = np.einsum("ni,nmj->mij", d_pred, s)
        ds = np.einsum("ni,mij->nmj", d_pred, A)
        dz = ds * _activation_derivative(activation, z, s)
        dW = np.einsum("nmj,nk->mjk", dz, x)
        dth = dz.sum(axis=0)
        for p, g, mom in zip(params, [dA, dW, dth], moments):
            m1, m2 = mom
            m1 *= beta1
            m1 += (1 - beta1) * g
            m2 *= beta2
            m2 += (1 - beta2) * g**2
            m1_hat = m1 / (1 - beta1**step)
            m2_hat = m2 / (1 - beta2**step)
            p -= lr * m1_hat / (np.sqrt(m2_hat) + eps)
    A, W, th = best if best is not None else params
    return A, W, th


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
    return ControlSchedule(np.linspace(t_a, t_b, m * N + 1), scaled * N, nf.activation)


# -- full pipeline: the fit stage and the schedule stage ------------------------


@dataclass(frozen=True)
class SynthesisReport:
    """Everything needed to audit one synthesis run."""

    params: SynthesisParams
    activation: str
    support_radius: float
    region_R: float
    omega_radius: float
    bound_C: float
    delta: float
    window_fits: tuple
    piece_count: int
    tolerance_met: bool

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "activation": self.activation,
            "support_radius": self.support_radius,
            "region_R": self.region_R,
            "omega_radius": self.omega_radius,
            "bound_C": self.bound_C,
            "delta": self.delta,
            "window_fits": [dict(w) for w in self.window_fits],
            "piece_count": self.piece_count,
            "tolerance_met": self.tolerance_met,
        }

    @property
    def max_fit_error(self) -> float:
        return max((w["sup_error"] for w in self.window_fits), default=0.0)


@dataclass(frozen=True)
class SynthesisResult:
    schedule: ControlSchedule
    report: SynthesisReport


def _window_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _check_piece_cap(params: SynthesisParams) -> None:
    """Reject a schedule of more than MAX_SCHEDULE_PIECES pieces before any fitting."""
    total_pieces = params.n_avg * params.m_width * params.n_osc
    if total_pieces > MAX_SCHEDULE_PIECES:
        raise ValueError(
            f"{total_pieces} pieces exceed the {MAX_SCHEDULE_PIECES} schedule cap"
        )


@dataclass(frozen=True)
class WindowFits:
    """The fit stage's output: Omega's sizing and one superposition per window.

    Nothing here depends on the period count n_osc, so one instance serves
    the schedule stage at every n_osc.
    """

    activation: Activation
    dim: int
    support_radius: float
    region_R: float
    bound_C: float
    delta: float
    windows: tuple  # (a, b) per averaging window, in time order
    fits: tuple  # SuperpositionFit per window


def fit_windows(
    vf: VectorFieldSpec,
    mu0: ParticleEnsemble,
    params: SynthesisParams,
    activation: Activation = Activation("logistic"),
    **fit_kwargs,
) -> WindowFits:
    """Fit stage: size Omega, time-average the field, fit each window.

    Sizes the fitting set Omega = B_{R+r}(0) from the initial support radius r
    and R = region_margin * T * (C + delta), which keeps T < (R+r)/(C+delta)
    strictly; then averages the field over params.n_avg windows and fits one
    params.m_width-term superposition per window on Omega. params.n_osc is
    not read.
    """
    d = mu0.dim
    if vf.dim and vf.dim != d:
        raise ValueError(f"ensemble is {d}-dimensional, field is {vf.dim}")
    T = vf.horizon
    C = vf.bound_C
    delta = params.fit_tolerance
    r = support_radius(mu0, np.zeros(d))
    R = params.region_margin * T * (C + delta)
    omega = Region("ball", np.zeros(d), np.array([R + r]))

    averaged = time_average(vf, params.n_avg)
    seeds = _window_seeds(params.seed, params.n_avg)

    windows, fits = [], []
    for w in range(params.n_avg):
        windows.append((float(averaged.breakpoints[w]), float(averaged.breakpoints[w + 1])))
        target = averaged.static_piece(w)
        window_kwargs = dict(fit_kwargs)
        if (
            "init_terms" not in window_kwargs
            and isinstance(target, NeuralField)
            and target.width <= params.m_width
            and target.activation == activation
        ):
            # window target already admissible: warm-start with its own terms
            window_kwargs["init_terms"] = target.terms
        fits.append(
            fit_superposition(
                target, omega, params.m_width, delta, seeds[w], activation=activation, **window_kwargs
            )
        )
    return WindowFits(activation, d, r, R, C, delta, tuple(windows), tuple(fits))


def schedule_windows(fits: WindowFits, params: SynthesisParams) -> SynthesisResult:
    """Schedule stage: oscillate each window's fit over params.n_osc periods.

    Concatenates the window schedules and reports the run under params. A
    window whose fit is identically zero gets one quiescent piece instead.
    The caller checks the piece cap first (:func:`_check_piece_cap`).
    """
    d, activation = fits.dim, fits.activation
    all_breakpoints = [0.0]
    all_pieces = []
    window_fits = []
    for (a, b), fit in zip(fits.windows, fits.fits):
        if all(np.all(t.A == 0.0) for t in fit.field.terms):
            # zero window: a single quiescent piece instead of an oscillation
            window_schedule = ControlSchedule(
                np.array([a, b]),
                [NeuralTerm(np.zeros((d, d)), np.eye(d), np.zeros(d))],
                activation,
            )
        else:
            window_schedule = oscillation_schedule(fit.field, (a, b), params.n_osc)
        all_breakpoints.extend(window_schedule.breakpoints[1:].tolist())
        all_pieces.extend(window_schedule.pieces)
        window_fits.append({"window": [a, b], **fit.to_dict()})

    schedule = ControlSchedule(np.asarray(all_breakpoints), all_pieces, activation)
    report = SynthesisReport(
        params=params,
        activation=activation.kind,
        support_radius=fits.support_radius,
        region_R=fits.region_R,
        omega_radius=fits.region_R + fits.support_radius,
        bound_C=fits.bound_C,
        delta=fits.delta,
        window_fits=tuple(window_fits),
        piece_count=schedule.piece_count,
        tolerance_met=all(w["tolerance_met"] for w in window_fits),
    )
    return SynthesisResult(schedule, report)


def synthesize_controls(
    vf: VectorFieldSpec,
    mu0: ParticleEnsemble,
    params: SynthesisParams,
    activation: Activation = Activation("logistic"),
    **fit_kwargs,
) -> SynthesisResult:
    """Run the full synthesis pipeline against a declared-bound target field.

    Checks the piece cap, then runs the fit stage (:func:`fit_windows`) and
    the schedule stage (:func:`schedule_windows`) at params.n_osc.
    """
    _check_piece_cap(params)
    return schedule_windows(fit_windows(vf, mu0, params, activation, **fit_kwargs), params)


# -- steering target from two ensembles ------------------------------------------


def displacement_target_field(
    mu0: ParticleEnsemble, muf: ParticleEnsemble, smoothing: float
) -> VectorFieldSpec:
    """Bounded Lipschitz field carrying mu0 toward muf along the optimal coupling.

    Matches the ensembles with the exact W2 coupling, then kernel-regresses
    the matched displacements onto the straight-line interpolated positions
    with the given Gaussian bandwidth. The field is a convex combination of
    the particle displacements, so its sup norm is exactly their largest norm;
    the Lipschitz constant is estimated empirically and declared with margin.

    Each evaluation shifts the kernel logits by their row maximum, so every
    row's weight sum is at least 1, exponentiates them in place, and fuses the
    normalisation into one matmul against ``[moves | 1]``: the last column is
    the weight sum that divides the rest.

    ``params`` records the declared K as ``lipschitz_K`` and, beside it, the
    analytic bound ``lipschitz_bound``. The field's Jacobian is
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
    inv_two_h2 = 1.0 / (2.0 * smoothing**2)

    moves_and_one = np.hstack([moves, np.ones((len(moves), 1))])
    d = moves.shape[1]

    def evaluator(t, x):
        anchors = x0 + t * moves
        w = cdist(x, anchors, "sqeuclidean")
        w *= -inv_two_h2
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        out = w @ moves_and_one
        return out[:, :d] / out[:, d:]

    mid = 0.5 * (x0.mean(axis=0) + targets.mean(axis=0))
    span = max(
        support_radius(mu0, mid), support_radius(ParticleEnsemble(targets), mid)
    )
    region = Region("ball", mid, np.array([span + 2.0 * smoothing]))
    r_moves = support_radius(ParticleEnsemble(moves), moves.mean(axis=0))

    declared = dict(
        bound_C=max_move,
        horizon=1.0,
        dim=mu0.dim,
        region=region,
        name="displacement-interpolation",
    )
    lipschitz_k = 0.0
    if max_move > 0.0:
        probe = VectorFieldSpec(evaluator, lipschitz_K=0.0, validate=False, **declared)
        lipschitz_k = estimate_bounds(probe, region, t_samples=8, x_samples=160, seed=1).K_hat * 1.25
    params = {
        "bandwidth": smoothing,
        "n": mu0.n,
        "lipschitz_K": lipschitz_k,
        "lipschitz_bound": r_moves * span / smoothing**2,
    }
    return VectorFieldSpec(evaluator, lipschitz_K=lipschitz_k, params=params, **declared)
