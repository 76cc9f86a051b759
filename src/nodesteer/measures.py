"""Compactly supported probability measures as equal-weight particle ensembles.

An ensemble of n points in R^d stands in for the measure (1/n) sum_i delta_{x_i}.
All samplers are seeded and truncated to an explicit bounded region, so every
ensemble produced here has compact support and total mass exactly 1.

Each measure kind is a registered function that reads its params, builds
its truncation region and returns its sampler; :class:`MeasureSpec` runs it
when built, so :func:`sample_measure` only draws. The benchmark fields share
this module's registry helper and number rule.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

RNG_ALGORITHM = "numpy-pcg64"

_REJECTION_BATCH = 4096
_MAX_REJECTION_ROUNDS = 10_000


class MeasureSpecError(ValueError):
    """Invalid sampler specification parameters."""


def _number(value, name: str, integer: bool = False, finite: bool = True):
    """A config or spec number, checked as given: an int when ``integer``, else a float.

    Bools, strings and other non-numbers are rejected, and so are the
    non-finite values ``json.loads`` reads from ``Infinity`` and ``NaN``
    (unless ``finite`` is false) and a value with a fractional part where an
    integer is needed, so a mistyped number fails instead of being coerced.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if finite and not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if integer:
        if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _numbers(value, name: str) -> np.ndarray:
    """A number or nested lists of numbers as a float array, by the rule of :func:`_number`.

    Non-finite entries are named by their row, the index along the first axis.
    """
    entries = np.asarray(value, dtype=object)
    arr = np.array([_number(v, f"{name} entries", finite=False) for v in entries.flat]).reshape(entries.shape)
    bad = [i for i, row in enumerate(np.atleast_1d(arr)) if not np.all(np.isfinite(row))]
    if bad:
        raise ValueError(f"{name} entries {bad} are not finite")
    return arr


class _Registry:
    """Spec builders by name, each registered with the params it reads and the ``shared`` ones."""

    def __init__(self, what: str, error: type, *shared: str):
        self._what, self._error, self._shared, self._builders = what, error, shared, {}

    def register(self, name: str, *params: str):
        def add(build):
            self._builders[name] = (build, frozenset(params + self._shared))
            return build

        return add

    def build(self, name: str, params: Mapping):
        """Run name's builder on params; an unknown name or param, or a missing one, raises ``error``."""
        if name not in self._builders:
            raise self._error(f"unknown {self._what} {name!r}; choose from {sorted(self._builders)}")
        build, names = self._builders[name]
        _reject_unknown(params, names, f"{self._what} {name!r}", self._error)
        try:
            return build(params)
        except KeyError as exc:
            raise self._error(f"{self._what} {name!r} missing required parameter {exc}") from exc


def _reject_unknown(params: Mapping, names, where: str, error: type) -> None:
    """Reject any key of ``params`` outside ``names``."""
    unknown = set(params) - set(names)
    if unknown:
        raise error(f"{where} takes no parameter(s) {sorted(unknown)}; it reads {sorted(names)}")


@dataclass(frozen=True)
class Region:
    """A bounded region of R^d: a closed ball or an axis-aligned box.

    For ``kind="ball"``, ``extent`` is a scalar radius. For ``kind="box"``,
    ``extent`` is a vector of halfwidths per axis.
    """

    kind: str
    center: np.ndarray
    extent: np.ndarray

    def __post_init__(self):
        if self.kind not in ("ball", "box"):
            raise MeasureSpecError(f"unknown region kind {self.kind!r}")
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1 or not np.all(np.isfinite(center)):
            raise MeasureSpecError("region center must be a finite vector")
        extent = np.atleast_1d(np.asarray(self.extent, dtype=float))
        if self.kind == "ball":
            if extent.size != 1:
                raise MeasureSpecError("ball region takes a scalar radius")
        else:
            if extent.size == 1:
                extent = np.full(center.size, extent[0])
            if extent.size != center.size:
                raise MeasureSpecError("box halfwidths must match center dimension")
        if not np.all(extent > 0) or not np.all(np.isfinite(extent)):
            raise MeasureSpecError("region radius/halfwidths must be strictly positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "extent", extent)
        self.center.setflags(write=False)
        self.extent.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def radius(self) -> float:
        """Radius of the smallest origin-centered description of the extent."""
        if self.kind == "ball":
            return float(self.extent[0])
        return float(np.linalg.norm(self.extent))

    def contains(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Boolean mask of which points lie inside the region (within tol)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points are {pts.shape[1]}-dimensional, region is {self.dim}")
        if self.kind == "ball":
            return np.linalg.norm(pts - self.center, axis=1) <= self.extent[0] + tol
        return np.all(np.abs(pts - self.center) <= self.extent + tol, axis=1)

    def bounding_halfwidths(self) -> np.ndarray:
        if self.kind == "ball":
            return np.full(self.dim, float(self.extent[0]))
        return np.asarray(self.extent, dtype=float)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n uniform samples from the region."""
        if self.kind == "box":
            return self.center + rng.uniform(-1.0, 1.0, size=(n, self.dim)) * self.extent
        direction = rng.standard_normal((n, self.dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = self.extent[0] * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / self.dim)
        return self.center + direction * radii

    def grid(self, per_axis: int) -> np.ndarray:
        """Regular grid over the bounding box, filtered to points inside the region."""
        hw = self.bounding_halfwidths()
        axes = [
            np.linspace(self.center[k] - hw[k], self.center[k] + hw[k], per_axis)
            for k in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        return pts[self.contains(pts, tol=1e-12)]

    @staticmethod
    def from_dict(d: Mapping) -> "Region":
        """A region entry: kind, center and a ball's radius or a box's halfwidths, no other key."""
        if not isinstance(d, Mapping):
            raise MeasureSpecError(f"a region must be an object, got {d!r}")
        kind = d.get("kind")
        extent = "radius" if kind == "ball" else "halfwidths"
        keys = {"kind", "center", extent}
        if set(d) != keys:
            raise MeasureSpecError(f"{kind} region takes keys {sorted(keys)}, got {sorted(d)}")
        return Region(kind, _numbers(d["center"], "region center"), _numbers(d[extent], f"region {extent}"))


@dataclass(frozen=True)
class ParticleEnsemble:
    """Equal-weight empirical measure: n points in R^d, each of mass 1/n."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("ensemble needs an (n, d) array with n >= 1, d >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("ensemble points must be finite (no NaN/Inf)")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def translate(self, offset: Sequence[float]) -> "ParticleEnsemble":
        off = np.asarray(offset, dtype=float)
        if off.shape != (self.dim,):
            raise ValueError("offset dimension mismatch")
        return ParticleEnsemble(self.points + off)

    # -- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        lines = [",".join(f"x{k}" for k in range(self.dim))]
        lines += [",".join(map(repr, row)) for row in self.points.tolist()]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "ParticleEnsemble":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        expected = [f"x{k}" for k in range(len(header))]
        if header != expected:
            raise ValueError(f"bad ensemble CSV header {header!r}")
        rows = [[float(v) for v in row] for row in reader if row]
        return ParticleEnsemble(np.asarray(rows, dtype=float))


@dataclass(frozen=True)
class MeasureSpec:
    """Declarative sampler spec: a kind plus its parameters.

    Kinds: ``uniform-ball``, ``gaussian-truncated``, ``gaussian-mixture-truncated``,
    ``two-moons``, ``explicit-points``. Construction runs the kind's
    registered function and keeps its sampler, so an unknown kind or a
    missing, unknown or bad param raises ``ValueError`` here. ``dim`` is the
    dimension of the points the spec draws.
    """

    kind: str
    params: Mapping
    dim: int = field(init=False, compare=False)
    _sample: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim, sample = _KINDS.build(self.kind, self.params)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_sample", sample)


# each kind returns (dim, sampler); a sampler maps (rng, n) to n points
_KINDS = _Registry("measure kind", MeasureSpecError)


def _rejection_sample(draw, region: Region, rng: np.random.Generator, n: int) -> np.ndarray:
    """Accumulate draws from ``draw(rng, k)`` until n of them land inside region."""
    kept = []
    total = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        batch = draw(rng, max(n, _REJECTION_BATCH))
        inside = batch[region.contains(batch)]
        if inside.shape[0]:
            kept.append(inside)
            total += inside.shape[0]
        if total >= n:
            return np.concatenate(kept, axis=0)[:n]
    raise MeasureSpecError("rejection sampling failed: truncation region has negligible mass")


def _gaussian(params: Mapping, mean, dim: int) -> tuple:
    """(mean, Cholesky factor of the covariance) from a mean and the cov or std in params."""
    mean = np.atleast_1d(_numbers(mean, "mean"))
    if mean.size != dim:
        raise MeasureSpecError("mean dimension does not match region")
    if "cov" in params:
        cov = _numbers(params["cov"], "cov")
        if cov.ndim == 0:
            cov = np.eye(dim) * float(cov)
        if cov.shape != (dim, dim):
            raise MeasureSpecError("cov must be a d x d matrix or a scalar")
        if not np.array_equal(cov, cov.T):
            # cholesky reads the lower triangle alone and would ignore the rest
            raise MeasureSpecError("cov must be symmetric")
    else:
        std = _number(params.get("std", 1.0), "std")
        if std <= 0:
            raise MeasureSpecError("std must be positive")
        cov = np.eye(dim) * std**2
    try:
        return mean, np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise MeasureSpecError("covariance must be positive definite") from exc


@_KINDS.register("uniform-ball", "center", "radius")
def _uniform_ball(params: Mapping) -> tuple:
    center = np.atleast_1d(_numbers(params.get("center", [0.0, 0.0]), "center"))
    region = Region("ball", center, np.array([_number(params.get("radius", 1.0), "radius")]))
    return region.dim, region.sample


@_KINDS.register("gaussian-truncated", "region", "mean", "cov", "std")
def _gaussian_truncated(params: Mapping) -> tuple:
    region = Region.from_dict(params["region"])
    mean, chol = _gaussian(params, params.get("mean", np.zeros(region.dim)), region.dim)

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        return mean + rng.standard_normal((k, mean.size)) @ chol.T

    return region.dim, partial(_rejection_sample, draw, region)


@_KINDS.register("gaussian-mixture-truncated", "region", "components")
def _gaussian_mixture(params: Mapping) -> tuple:
    region = Region.from_dict(params["region"])
    if not params["components"]:
        raise MeasureSpecError("gaussian mixture needs a nonempty components list")
    means, chols, weights = [], [], []
    for comp in params["components"]:
        _reject_unknown(comp, ("mean", "cov", "std", "weight"), "a gaussian mixture component", MeasureSpecError)
        mean, chol = _gaussian(comp, comp["mean"], region.dim)
        means.append(mean)
        chols.append(chol)
        weights.append(_number(comp.get("weight", 1.0), "component weight"))
    weights = np.asarray(weights)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise MeasureSpecError("mixture weights must be nonnegative with positive sum")
    weights = weights / weights.sum()

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        idx = rng.choice(len(means), size=k, p=weights)
        out = np.empty((k, region.dim))
        for j in range(len(means)):
            mask = idx == j
            kj = int(mask.sum())
            if kj:
                out[mask] = means[j] + rng.standard_normal((kj, region.dim)) @ chols[j].T
        return out

    return region.dim, partial(_rejection_sample, draw, region)


@_KINDS.register("two-moons", "center", "scale", "noise")
def _two_moons(params: Mapping) -> tuple:
    center = _numbers(params.get("center", [0.0, 0.0]), "center")
    scale = _number(params.get("scale", 1.0), "scale")
    noise = _number(params.get("noise", 0.05), "noise")
    if center.shape != (2,) or scale <= 0 or noise < 0:
        raise MeasureSpecError("two-moons needs a 2-d center, scale > 0 and noise >= 0")
    # moon arcs live in [-1, 2] x [-0.75, 1]; pad by 4 noise sigmas
    pad = 4.0 * noise
    box_center = np.array([center[0] + scale * 0.5, center[1] + scale * 0.125])
    region = Region("box", box_center, np.array([scale * 1.5 + pad, scale * 0.875 + pad]))

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        upper = rng.random(k) < 0.5
        angle = rng.uniform(0.0, np.pi, size=k)
        x = np.where(upper, np.cos(angle), 1.0 - np.cos(angle))
        y = np.where(upper, np.sin(angle), 0.25 - np.sin(angle))
        pts = np.stack([x, y], axis=1)
        pts += noise * rng.standard_normal((k, 2))
        return center + scale * pts

    return 2, partial(_rejection_sample, draw, region)


@_KINDS.register("explicit-points", "points")
def _explicit_points(params: Mapping) -> tuple:
    pts = np.atleast_2d(_numbers(params["points"], "explicit-points"))
    return pts.shape[1], lambda rng, n: pts


def sample_measure(spec: MeasureSpec, n: int, seed: int) -> ParticleEnsemble:
    """Draw a seeded n-point ensemble from the spec'd distribution.

    Deterministic given (spec, n, seed); every drawn point lies inside the
    spec's truncation region, and explicit points are taken as given.
    Raises ``ValueError`` for n < 1 and :class:`MeasureSpecError` when
    explicit points are not n or the truncation region has negligible mass.
    """
    if n < 1:
        raise ValueError("sample_measure needs n >= 1")
    pts = spec._sample(np.random.default_rng(seed), n)
    if len(pts) != n:
        raise MeasureSpecError(f"{spec.kind} has {len(pts)} points, n = {n}")
    return ParticleEnsemble(pts)


def support_radius(ens: ParticleEnsemble, center: Sequence[float]) -> float:
    """Empirical support radius: max over points of |x - center|."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape != (ens.dim,):
        raise ValueError(f"center is {c.size}-dimensional, ensemble is {ens.dim}")
    return float(np.max(np.linalg.norm(ens.points - c, axis=1)))
