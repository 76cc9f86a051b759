"""Evaluable time-varying vector fields.

Field objects share one calling convention: ``velocity(t, X)`` maps a time and
an (n, d) array of positions to an (n, d) array of velocities. The concrete
kinds are

* :class:`NeuralField` -- a superposition sum_i A_i Sigma(W_i x + theta_i) of
  m >= 1 terms, time-independent, the class of admissible right-hand sides,
* :class:`VectorFieldSpec` -- an arbitrary evaluator with declared sup-norm and
  Lipschitz bounds over a region, validated against sampled estimates,
* :class:`ControlSchedule` -- one logistic term active on each of consecutive
  time windows, the piecewise-constant weights of a neural ODE; it round-trips
  through its ``schedule.json`` form.

Every term's activation Sigma is the logistic function :func:`logistic`,
whose Lipschitz constant is 1/4. A term :class:`NeuralTerm` evaluates itself,
and a superposition sums its terms' calls.

Each named analytic field of :func:`benchmark_field` is a function on the
registry helper of :mod:`nodesteer.measures` that reads its params by the
number rule measure params follow; the shared ``horizon`` is read once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .measures import Region, _number, _numbers, _Registry
from .transport import _sq_norm


class BoundDeclarationError(ValueError):
    """Declared C or K fell below the sampled empirical estimate."""


# 5% grace between sampled estimates (lower bounds) and declared constants,
# plus an absolute floor so float-level noise cannot fail a zero declaration.
DECLARED_BOUND_SLACK = 0.05
DECLARED_BOUND_ATOL = 1e-9


def logistic(z):
    """The activation Sigma of every term, applied componentwise."""
    return 1.0 / (1.0 + np.exp(-z))


# global Lipschitz constant of the logistic function, max Sigma' = Sigma'(0)
LOGISTIC_LIPSCHITZ = 0.25


@dataclass(frozen=True)
class NeuralTerm:
    """One superposition term (A, W, theta) with A, W in R^{d x d}, theta in R^d."""

    A: np.ndarray
    W: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        W = np.asarray(self.W, dtype=float)
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        d = theta.size
        if A.shape != (d, d) or W.shape != (d, d):
            raise ValueError(f"A and W must be {d}x{d} to match theta in R^{d}")
        for arr in (A, W, theta):
            if not np.all(np.isfinite(arr)):
                raise ValueError("term entries must be finite")
        A, W, theta = A.copy(), W.copy(), theta.copy()
        for arr in (A, W, theta):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return self.theta.size

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """A Sigma(W x + theta) at each row of x, as an (n, d) array."""
        return logistic(np.atleast_2d(x) @ self.W.T + self.theta) @ self.A.T

    def scaled(self, gain: float) -> "NeuralTerm":
        return NeuralTerm(self.A * gain, self.W, self.theta)

    def to_dict(self) -> dict:
        return {"A": self.A.tolist(), "W": self.W.tolist(), "theta": self.theta.tolist()}

    @staticmethod
    def from_dict(d: Mapping) -> "NeuralTerm":
        return NeuralTerm(np.asarray(d["A"]), np.asarray(d["W"]), np.asarray(d["theta"]))


@dataclass(frozen=True)
class NeuralField:
    """Superposition sum_i A_i Sigma(W_i x + theta_i) of m >= 1 terms.

    Its dimension is the terms' shared one. Evaluation is time-independent.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a superposition needs at least one term")
        if any(t.dim != terms[0].dim for t in terms):
            raise ValueError("all terms must share one dimension")
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return self.terms[0].dim

    @property
    def width(self) -> int:
        return len(self.terms)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points are {pts.shape[1]}-dimensional, field is {self.dim}")
        out = np.zeros_like(pts)
        for term in self.terms:
            out += term(pts)
        return out[0] if single else out

    def velocity(self, t: float, x: np.ndarray) -> np.ndarray:
        return self(x)

    def lipschitz_bound(self) -> float:
        """sum_i ||A_i||_2 ||W_i||_2 K_sigma, a global Lipschitz constant."""
        return float(
            sum(
                np.linalg.norm(t.A, 2) * np.linalg.norm(t.W, 2) * LOGISTIC_LIPSCHITZ
                for t in self.terms
            )
        )

    def gain_total(self) -> float:
        """sum_i ||A_i||_2; the logistic is [0,1]-valued, so |field| <= sqrt(d) * this."""
        return float(sum(np.linalg.norm(t.A, 2) for t in self.terms))


class ControlSchedule:
    """Piecewise-constant weights: one (A, W, theta) triple active per piece.

    Piece j governs [t_j, t_{j+1}); evaluation is right-continuous in t and
    t = T uses the last piece. Evaluation at (t, x) with active piece
    (A, W, theta) is A Sigma(W x + theta), the piece's own call, so the
    schedule is an admissible neural-ODE right-hand side by construction.
    ``schedule.json`` holds its breakpoints, its pieces' ``NeuralTerm``
    dicts and ``"activation": "logistic"``; loading accepts no other value.
    """

    def __init__(self, breakpoints: Sequence[float], pieces: Sequence[NeuralTerm]):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing with >= 2 entries")
        if len(pieces) != bp.size - 1:
            raise ValueError(f"{bp.size - 1} windows but {len(pieces)} pieces")
        if not all(isinstance(p, NeuralTerm) for p in pieces):
            raise ValueError("every schedule piece must be a single NeuralTerm")
        if any(p.dim != pieces[0].dim for p in pieces):
            raise ValueError("all pieces must share one dimension")
        bp = bp.copy()
        bp.setflags(write=False)
        self.breakpoints = bp
        self.pieces = list(pieces)

    @property
    def dim(self) -> int:
        return self.pieces[0].dim

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    def piece_index(self, t: float) -> int:
        if t < self.breakpoints[0] or t > self.breakpoints[-1]:
            raise ValueError(f"t = {t} outside [{self.breakpoints[0]}, {self.breakpoints[-1]}]")
        j = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return min(max(j, 0), len(self.pieces) - 1)

    def static_piece(self, j: int) -> NeuralTerm:
        return self.pieces[j]

    def velocity(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.static_piece(self.piece_index(t))(x)

    def to_json_dict(self) -> dict:
        return {
            "activation": "logistic",
            "breakpoints": self.breakpoints.tolist(),
            "pieces": [p.to_dict() for p in self.pieces],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(d: Mapping) -> "ControlSchedule":
        if d["activation"] != "logistic":
            raise ValueError(f"schedule pieces are logistic, got activation {d['activation']!r}")
        return ControlSchedule(
            np.asarray(d["breakpoints"], dtype=float),
            [NeuralTerm.from_dict(p) for p in d["pieces"]],
        )

    @staticmethod
    def from_json(text: str) -> "ControlSchedule":
        return ControlSchedule.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class BoundEstimate:
    C_hat: float
    K_hat: float


def _pairwise_distances(pts: np.ndarray) -> np.ndarray:
    """The n x n Euclidean distance matrix of the rows of pts."""
    return np.sqrt(_sq_norm(pts[:, None, :] - pts[None, :, :]))


def estimate_bounds(
    vf,
    region: Region,
    t_samples: int = 8,
    x_samples: int = 128,
    seed: int = 0,
) -> BoundEstimate:
    """Sampled lower bounds on the sup norm C and Lipschitz constant K.

    Evaluates the field at ``t_samples`` times spanning [0, vf.horizon] and
    ``x_samples`` points drawn uniformly from the region; C_hat is the largest
    speed seen and K_hat the largest pairwise difference quotient.
    """
    if t_samples < 2 or x_samples < 2:
        raise ValueError("estimate_bounds needs at least 2 samples per axis")
    rng = np.random.default_rng(seed)
    pts = region.sample(rng, x_samples)
    dists = _pairwise_distances(pts)
    np.fill_diagonal(dists, np.inf)
    dists[dists == 0.0] = np.inf
    c_hat = 0.0
    k_hat = 0.0
    for t in np.linspace(0.0, vf.horizon, t_samples):
        vel = vf.velocity(float(t), pts)
        c_hat = max(c_hat, float(np.max(np.linalg.norm(vel, axis=1))))
        vel_diff = _pairwise_distances(vel)
        k_hat = max(k_hat, float(np.max(vel_diff / dists)))
    return BoundEstimate(c_hat, k_hat)


class VectorFieldSpec:
    """A time-varying field with declared bound C and Lipschitz constant K.

    The declarations are trusted inputs downstream (support growth, window
    sizing), so construction cross-checks them against sampled estimates over
    the declared region and rejects declarations the samples exceed by more
    than 5%. Its dimension is the region's.
    """

    def __init__(
        self,
        evaluator: Callable[[float, np.ndarray], np.ndarray],
        bound_C: float,
        lipschitz_K: float,
        horizon: float,
        region: Region,
        name: Optional[str] = None,
        params: Optional[dict] = None,
        analytic_flow: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
        static_superposition: Optional[NeuralField] = None,
    ):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if bound_C < 0 or lipschitz_K < 0:
            raise ValueError("declared C and K must be nonnegative")
        self._evaluator = evaluator
        self.bound_C = float(bound_C)
        self.lipschitz_K = float(lipschitz_K)
        self.horizon = float(horizon)
        self.dim = region.dim
        self.region = region
        self.name = name
        self.params = dict(params) if params else {}
        self.analytic_flow = analytic_flow
        # set when the evaluator is a time-independent superposition, so
        # downstream averaging/fitting can exploit admissibility exactly
        self.static_superposition = static_superposition
        est = estimate_bounds(self, region, t_samples=5, x_samples=64, seed=0)
        if est.C_hat > self.bound_C * (1.0 + DECLARED_BOUND_SLACK) + DECLARED_BOUND_ATOL:
            raise BoundDeclarationError(
                f"declared C = {self.bound_C} but sampled C_hat = {est.C_hat:.6g}"
            )
        if est.K_hat > self.lipschitz_K * (1.0 + DECLARED_BOUND_SLACK) + DECLARED_BOUND_ATOL:
            raise BoundDeclarationError(
                f"declared K = {self.lipschitz_K} but sampled K_hat = {est.K_hat:.6g}"
            )

    def velocity(self, t: float, x: np.ndarray) -> np.ndarray:
        return self._evaluator(t, np.atleast_2d(np.asarray(x, dtype=float)))


# -- analytic benchmark fields -------------------------------------------------


# each field returns VectorFieldSpec's keyword arguments but the horizon and
# the name, which benchmark_field adds
_BENCHMARKS = _Registry("benchmark field", ValueError, "horizon")


def _ball(params: Mapping, center: np.ndarray) -> Region:
    """The ball about center whose radius is the ``radius`` param, 2.0 by default."""
    return Region("ball", center, np.array([_number(params.get("radius", 2.0), "radius")]))


@_BENCHMARKS.register("rotation", "omega", "radius")
def _rotation_spec(params: Mapping) -> dict:
    omega = _number(params["omega"], "omega")
    region = _ball(params, np.zeros(2))

    def evaluator(t, x):
        return omega * np.stack([-x[:, 1], x[:, 0]], axis=1)

    def flow(t, x):
        c, s = np.cos(omega * t), np.sin(omega * t)
        rot = np.array([[c, -s], [s, c]])
        return x @ rot.T

    return dict(
        evaluator=evaluator,
        bound_C=abs(omega) * region.radius,
        lipschitz_K=abs(omega),
        region=region,
        params={"omega": omega, "radius": region.radius},
        analytic_flow=flow,
    )


@_BENCHMARKS.register("translation", "velocity", "radius")
def _translation_spec(params: Mapping) -> dict:
    v = np.atleast_1d(_numbers(params["velocity"], "velocity"))
    region = _ball(params, np.zeros(v.size))

    def evaluator(t, x):
        return np.broadcast_to(v, x.shape).copy()

    def flow(t, x):
        return x + t * v

    return dict(
        evaluator=evaluator,
        bound_C=float(np.linalg.norm(v)),
        lipschitz_K=0.0,
        region=region,
        params={"velocity": v.tolist(), "radius": region.radius},
        analytic_flow=flow,
    )


@_BENCHMARKS.register("contraction-to-point", "rate", "center", "radius")
def _contraction_spec(params: Mapping) -> dict:
    rate = _number(params.get("rate", 1.0), "rate")
    if rate <= 0:
        raise ValueError("contraction rate must be positive")
    center = np.atleast_1d(_numbers(params.get("center", [0.0, 0.0]), "center"))
    region = _ball(params, center)

    def evaluator(t, x):
        return -rate * (x - center)

    def flow(t, x):
        return center + (x - center) * np.exp(-rate * t)

    return dict(
        evaluator=evaluator,
        bound_C=rate * region.radius,
        lipschitz_K=rate,
        region=region,
        params={"rate": rate, "center": center.tolist(), "radius": region.radius},
        analytic_flow=flow,
    )


@_BENCHMARKS.register("shear", "rate", "radius")
def _shear_spec(params: Mapping) -> dict:
    rate = _number(params.get("rate", 1.0), "rate")
    region = _ball(params, np.zeros(2))

    def evaluator(t, x):
        out = np.zeros_like(x)
        out[:, 0] = rate * x[:, 1]
        return out

    def flow(t, x):
        out = np.array(x, dtype=float)
        out[:, 0] = out[:, 0] + t * rate * x[:, 1]
        return out

    return dict(
        evaluator=evaluator,
        bound_C=abs(rate) * region.radius,
        lipschitz_K=abs(rate),
        region=region,
        params={"rate": rate, "radius": region.radius},
        analytic_flow=flow,
    )


@_BENCHMARKS.register("neural-static", "terms", "activation", "radius")
def _neural_static_spec(params: Mapping) -> dict:
    activation = params.get("activation", "logistic")
    if activation != "logistic":
        raise ValueError(f"neural-static terms are logistic, got activation {activation!r}")
    nf = NeuralField(
        tuple(NeuralTerm(*(_numbers(t[key], f"terms {key}") for key in ("A", "W", "theta"))) for t in params["terms"])
    )
    region = _ball(params, np.zeros(nf.dim))
    # C declared from the largest speed at 256 sampled points with headroom;
    # over-declaring is safe (it only enlarges downstream fitting regions),
    # while an understatement would be rejected by construction-time validation
    pts = region.sample(np.random.default_rng(0), 256)
    c_hat = float(np.max(np.linalg.norm(nf(pts), axis=1)))
    return dict(
        evaluator=nf.velocity,
        bound_C=c_hat * 1.25 + 1e-9,
        lipschitz_K=nf.lipschitz_bound(),
        region=region,
        params={"terms": [t.to_dict() for t in nf.terms], "activation": activation, "radius": region.radius},
        static_superposition=nf,
    )


@_BENCHMARKS.register("double-gyre-static", "amplitude")
def _double_gyre_spec(params: Mapping) -> dict:
    amplitude = _number(params.get("amplitude", 0.1), "amplitude")
    pi_a = np.pi * amplitude

    def evaluator(t, x):
        sx, cx = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
        sy, cy = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
        return pi_a * np.stack([-sx * cy, cx * sy], axis=1)

    return dict(
        evaluator=evaluator,
        bound_C=pi_a,
        lipschitz_K=2.0 * np.pi * pi_a,
        # classic two-cell stream pattern on [0, 2] x [0, 1]
        region=Region("box", np.array([1.0, 0.5]), np.array([1.0, 0.5])),
        params={"amplitude": amplitude},
    )


def benchmark_field(name: str, params: Optional[Mapping] = None) -> VectorFieldSpec:
    """Named analytic field with exact declared C, K on its declared region.

    Every field reads ``horizon`` (1.0 by default) besides its own params.
    Raises ``ValueError`` for an unknown name and for a param the field does
    not read, one it needs that is missing or a number that is not finite.
    """
    params = params or {}
    spec = _BENCHMARKS.build(name, params)
    horizon = _number(params.get("horizon", 1.0), "horizon")
    spec["params"]["horizon"] = horizon
    return VectorFieldSpec(horizon=horizon, name=name, **spec)
