"""Compactly supported probability measures as equal-weight particle ensembles.

An ensemble of n points in R^d stands in for the measure (1/n) sum_i delta_{x_i}.
All samplers are seeded and truncated to an explicit bounded region, so every
ensemble produced here has compact support and total mass exactly 1.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

RNG_ALGORITHM = "numpy-pcg64"

_REJECTION_BATCH = 4096
_MAX_REJECTION_ROUNDS = 10_000


class MeasureSpecError(ValueError):
    """Invalid sampler specification parameters."""


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
        kind = d["kind"]
        extent = d["radius"] if kind == "ball" else d["halfwidths"]
        return Region(kind, np.asarray(d["center"], dtype=float), np.asarray(extent, dtype=float))


@dataclass(frozen=True)
class ParticleEnsemble:
    """Equal-weight empirical measure: n points in R^d, each of mass 1/n."""

    points: np.ndarray
    provenance: Optional[dict] = field(default=None, compare=False)

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
    ``two-moons``, ``explicit-points``.
    """

    kind: str
    params: Mapping

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": _jsonable(self.params)}


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Mapping):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _rejection_sample(draw, region: Region, n: int) -> np.ndarray:
    """Accumulate draws from ``draw(k)`` until n of them land inside region."""
    kept = []
    total = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        batch = draw(max(n, _REJECTION_BATCH))
        inside = batch[region.contains(batch)]
        if inside.shape[0]:
            kept.append(inside)
            total += inside.shape[0]
        if total >= n:
            return np.concatenate(kept, axis=0)[:n]
    raise MeasureSpecError("rejection sampling failed: truncation region has negligible mass")


def _gaussian_draw(rng: np.random.Generator, mean: np.ndarray, cov: np.ndarray):
    chol = np.linalg.cholesky(cov)

    def draw(k: int) -> np.ndarray:
        return mean + rng.standard_normal((k, mean.size)) @ chol.T

    return draw


def _parse_cov(params: Mapping, dim: int) -> np.ndarray:
    if "cov" in params:
        cov = np.asarray(params["cov"], dtype=float)
        if cov.ndim == 0:
            cov = np.eye(dim) * float(cov)
        if cov.shape != (dim, dim):
            raise MeasureSpecError("cov must be a d x d matrix or a scalar")
    else:
        std = float(params.get("std", 1.0))
        if std <= 0:
            raise MeasureSpecError("std must be positive")
        cov = np.eye(dim) * std**2
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise MeasureSpecError("covariance must be positive definite") from exc
    return cov


# the params each kind reads; a mixture's components are params of their kind
_PARAMS = {
    "uniform-ball": {"center", "radius"},
    "gaussian-truncated": {"region", "mean", "cov", "std"},
    "gaussian-mixture-truncated": {"region", "components"},
    "two-moons": {"center", "scale", "noise"},
    "explicit-points": {"points"},
}
_COMPONENT_PARAMS = {"mean", "cov", "std", "weight"}


def _check_params(spec: MeasureSpec) -> None:
    """Reject an unknown kind and any param (or mixture component key) its kind never reads."""
    if spec.kind not in _PARAMS:
        raise MeasureSpecError(f"unknown measure spec kind {spec.kind!r}")
    unknown = set(spec.params) - _PARAMS[spec.kind]
    if spec.kind == "gaussian-mixture-truncated":
        for comp in spec.params.get("components") or ():
            unknown |= {f"components.{key}" for key in set(comp) - _COMPONENT_PARAMS}
    if unknown:
        raise MeasureSpecError(f"{spec.kind} takes no param(s) {sorted(unknown)}")


def _spec_region(spec: MeasureSpec) -> Region:
    """The declared truncation region every sample must land inside."""
    kind, params = spec.kind, spec.params
    if kind == "uniform-ball":
        center = np.atleast_1d(np.asarray(params.get("center", [0.0, 0.0]), dtype=float))
        radius = float(params.get("radius", 1.0))
        if radius <= 0:
            raise MeasureSpecError("uniform-ball radius must be positive")
        return Region("ball", center, np.array([radius]))
    if kind in ("gaussian-truncated", "gaussian-mixture-truncated"):
        if "region" not in params:
            raise MeasureSpecError(f"{kind} requires an explicit truncation region")
        return Region.from_dict(params["region"])
    if kind == "two-moons":
        center = np.asarray(params.get("center", [0.0, 0.0]), dtype=float)
        scale = float(params.get("scale", 1.0))
        noise = float(params.get("noise", 0.05))
        if scale <= 0 or noise < 0:
            raise MeasureSpecError("two-moons needs scale > 0 and noise >= 0")
        # moon arcs live in [-1, 2] x [-0.75, 1]; pad by 4 noise sigmas
        pad = 4.0 * noise
        cx = center[0] + scale * 0.5
        cy = center[1] + scale * 0.125
        hw = np.array([scale * 1.5 + pad, scale * 0.875 + pad])
        return Region("box", np.array([cx, cy]), hw)
    # explicit-points
    pts = np.atleast_2d(np.asarray(params["points"], dtype=float))
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    hw = np.maximum(0.5 * (pts.max(axis=0) - pts.min(axis=0)), 1e-9)
    return Region("box", center, hw)


def _two_moons_draw(rng: np.random.Generator, params: Mapping):
    center = np.asarray(params.get("center", [0.0, 0.0]), dtype=float)
    scale = float(params.get("scale", 1.0))
    noise = float(params.get("noise", 0.05))

    def draw(k: int) -> np.ndarray:
        upper = rng.random(k) < 0.5
        angle = rng.uniform(0.0, np.pi, size=k)
        x = np.where(upper, np.cos(angle), 1.0 - np.cos(angle))
        y = np.where(upper, np.sin(angle), 0.25 - np.sin(angle))
        pts = np.stack([x, y], axis=1)
        pts += noise * rng.standard_normal((k, 2))
        return center + scale * pts

    return draw


def sample_measure(spec: MeasureSpec, n: int, seed: int) -> ParticleEnsemble:
    """Draw a seeded n-point ensemble from the spec'd distribution.

    Deterministic given (spec, n, seed); every point lies inside the spec's
    truncation region. Raises :class:`MeasureSpecError` for an unknown kind,
    a param the kind does not read or a bad param value, and ``ValueError``
    for n < 1.
    """
    if n < 1:
        raise ValueError("sample_measure needs n >= 1")
    _check_params(spec)
    rng = np.random.default_rng(seed)
    kind, params = spec.kind, spec.params
    region = _spec_region(spec)

    if kind == "uniform-ball":
        pts = region.sample(rng, n)
    elif kind == "gaussian-truncated":
        mean = np.atleast_1d(np.asarray(params.get("mean", np.zeros(region.dim)), dtype=float))
        if mean.size != region.dim:
            raise MeasureSpecError("mean dimension does not match region")
        cov = _parse_cov(params, mean.size)
        pts = _rejection_sample(_gaussian_draw(rng, mean, cov), region, n)
    elif kind == "gaussian-mixture-truncated":
        comps = params.get("components")
        if not comps:
            raise MeasureSpecError("gaussian mixture needs a nonempty components list")
        means, chols, weights = [], [], []
        for comp in comps:
            mean = np.atleast_1d(np.asarray(comp["mean"], dtype=float))
            if mean.size != region.dim:
                raise MeasureSpecError("component mean dimension does not match region")
            cov = _parse_cov(comp, mean.size)
            means.append(mean)
            chols.append(np.linalg.cholesky(cov))
            weights.append(float(comp.get("weight", 1.0)))
        weights = np.asarray(weights)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise MeasureSpecError("mixture weights must be nonnegative with positive sum")
        weights = weights / weights.sum()

        def draw(k: int) -> np.ndarray:
            idx = rng.choice(len(means), size=k, p=weights)
            out = np.empty((k, region.dim))
            for j in range(len(means)):
                mask = idx == j
                kj = int(mask.sum())
                if kj:
                    out[mask] = means[j] + rng.standard_normal((kj, region.dim)) @ chols[j].T
            return out

        pts = _rejection_sample(draw, region, n)
    elif kind == "two-moons":
        pts = _rejection_sample(_two_moons_draw(rng, params), region, n)
    else:  # explicit-points
        pts = np.atleast_2d(np.asarray(params["points"], dtype=float))
        if pts.shape[0] != n:
            raise MeasureSpecError(f"explicit-points has {pts.shape[0]} points, n = {n}")

    provenance = {"spec": spec.to_dict(), "n": n, "seed": seed, "rng": RNG_ALGORITHM}
    return ParticleEnsemble(pts, provenance=provenance)


def support_radius(ens: ParticleEnsemble, center: Sequence[float]) -> float:
    """Empirical support radius: max over points of |x - center|."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape != (ens.dim,):
        raise ValueError(f"center is {c.size}-dimensional, ensemble is {ens.dim}")
    return float(np.max(np.linalg.norm(ens.points - c, axis=1)))
