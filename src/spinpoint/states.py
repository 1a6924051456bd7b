"""Particle-spin states: Gaussian closed forms and grid samples.

A state assigns one spatial wavefunction to each spin configuration
(indexed by its bit code). Two concrete forms are supported:

* GaussianPacket: per channel, a sum of Gaussian components
  w * exp(-|x - c|^2 / (4 v) + i k . (x - c)) with complex variance v
  (Re v > 0). Norms and overlaps are exact; free evolution stays in
  this family.
* GridState: samples on a uniform grid with trapezoidal weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianComponent",
    "GaussianPacket",
    "UniformGrid",
    "GridState",
    "gaussian_overlap",
]


@dataclass(frozen=True)
class GaussianComponent:
    center: np.ndarray
    momentum: np.ndarray
    variance: complex
    weight: complex

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        k = np.atleast_1d(np.asarray(self.momentum, dtype=float))
        if c.shape != k.shape or c.shape not in ((1,), (3,)):
            raise ValueError("center and momentum must both be scalars or 3-vectors")
        v, w = complex(self.variance), complex(self.weight)
        if not np.isfinite([*c, *k, v, w]).all():
            raise ValueError("center, momentum, variance and weight must be finite")
        if not v.real > 0.0:
            raise ValueError("variance must have positive real part")
        c.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "momentum", k)
        object.__setattr__(self, "variance", v)
        object.__setattr__(self, "weight", w)

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.dimension == 1:
            dx = np.atleast_1d(pts) - self.center[0]
            phase = self.momentum[0] * dx
            r2 = dx * dx
        else:
            dx = np.atleast_2d(pts) - self.center[None, :]
            phase = dx @ self.momentum
            r2 = np.sum(dx * dx, axis=-1)
        return self.weight * np.exp(-r2 / (4.0 * self.variance) + 1j * phase)


def gaussian_overlap(g1: GaussianComponent, g2: GaussianComponent) -> complex:
    """Exact inner product <g1, g2> (antilinear in the first slot)."""
    if g1.dimension != g2.dimension:
        raise ValueError("dimension mismatch")
    a = np.conj(g1.variance)
    b = g2.variance
    p = 1.0 / (4.0 * a) + 1.0 / (4.0 * b)
    total = np.conj(g1.weight) * g2.weight
    log_terms = 0.0 + 0.0j
    for ax in range(g1.dimension):
        c1, c2 = g1.center[ax], g2.center[ax]
        k1, k2 = g1.momentum[ax], g2.momentum[ax]
        q = c1 / (2.0 * a) + c2 / (2.0 * b) + 1j * (k2 - k1)
        r = -(c1 * c1) / (4.0 * a) - (c2 * c2) / (4.0 * b) - 1j * (k2 * c2 - k1 * c1)
        log_terms += q * q / (4.0 * p) + r
    return complex(total * (np.pi / p) ** (g1.dimension / 2.0) * np.exp(log_terms))


class GaussianPacket:
    """Gaussian-sum state: components[code] lists the channel's Gaussians."""

    def __init__(self, dimension: int, n_channels: int, components):
        if dimension not in (1, 3):
            raise ValueError(f"dimension must be 1 or 3, got {dimension}")
        self.dimension = dimension
        self.n_channels = n_channels
        comps: list[tuple[GaussianComponent, ...]] = [() for _ in range(n_channels)]
        for code, items in (components.items() if isinstance(components, dict) else enumerate(components)):
            if not 0 <= code < n_channels:
                raise ValueError(f"channel {code} out of range 0..{n_channels - 1}")
            for g in items:
                if g.dimension != dimension:
                    raise ValueError("component dimension mismatch")
            comps[code] = tuple(items)
        self.components = tuple(comps)

    @classmethod
    def single(cls, dimension, n_channels, code, center, momentum, variance, weight=1.0):
        g = GaussianComponent(center, momentum, variance, weight)
        return cls(dimension, n_channels, {code: [g]})

    def evaluate(self, code: int, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        n = pts.shape[0] if pts.ndim > (0 if self.dimension == 1 else 1) else 1
        out = np.zeros(n, dtype=complex)
        for g in self.components[code]:
            out = out + g.evaluate(pts)
        return out

    def channel_weights(self) -> np.ndarray:
        """Squared L2 norm per channel, computed from exact overlaps."""
        weights = np.zeros(self.n_channels)
        for code, comps in enumerate(self.components):
            acc = 0.0
            for g1 in comps:
                for g2 in comps:
                    acc += gaussian_overlap(g1, g2).real
            weights[code] = acc
        return weights

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.channel_weights())))

    def sample(self, grid: "UniformGrid") -> "GridState":
        pts = grid.points
        values = np.stack([self.evaluate(code, pts) for code in range(self.n_channels)])
        return GridState(self.dimension, values, grid)


class UniformGrid:
    """Uniform tensor grid; one axis for d=1, three for d=3."""

    def __init__(self, *axes):
        if len(axes) not in (1, 3):
            raise ValueError("need 1 or 3 axes")
        cleaned = []
        for ax in axes:
            ax = np.asarray(ax, dtype=float)
            if ax.ndim != 1 or ax.size < 2 or not np.isfinite(ax).all():
                raise ValueError("each axis must be a finite 1d array with at least 2 points")
            steps = np.diff(ax)
            if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
                raise ValueError("axes must be uniformly spaced")
            cleaned.append(ax)
        self.axes = tuple(cleaned)
        self.dimension = 1 if len(cleaned) == 1 else 3
        if self.dimension == 1:
            self.points = cleaned[0]
        else:
            mesh = np.meshgrid(*cleaned, indexing="ij")
            self.points = np.stack([m.ravel() for m in mesh], axis=-1)
        w = None
        for ax in cleaned:
            h = ax[1] - ax[0]
            wa = np.full(ax.size, h)
            wa[0] = wa[-1] = h / 2.0
            w = wa if w is None else np.multiply.outer(w, wa)
        self.weights = w.ravel()

    @classmethod
    def linear(cls, lo: float, hi: float, n: int) -> "UniformGrid":
        return cls(np.linspace(lo, hi, n))

    @classmethod
    def cube(cls, lo: float, hi: float, n: int) -> "UniformGrid":
        ax = np.linspace(lo, hi, n)
        return cls(ax, ax, ax)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def spacing(self) -> float:
        ax = self.axes[0]
        return float(ax[1] - ax[0])

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(values * self.weights, axis=-1))


class GridState:
    """Channel wavefunctions sampled on a shared uniform grid."""

    def __init__(self, dimension: int, values: np.ndarray, grid: UniformGrid):
        values = np.asarray(values, dtype=complex)
        if grid.dimension != dimension:
            raise ValueError("grid dimension mismatch")
        if values.ndim != 2 or values.shape[1] != grid.n_points:
            raise ValueError(f"values must be (channels, {grid.n_points}), got {values.shape}")
        self.dimension = dimension
        self.values = values
        self.grid = grid

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    def channel_weights(self) -> np.ndarray:
        return np.sum(np.abs(self.values) ** 2 * self.grid.weights[None, :], axis=1).real

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.channel_weights())))

    def inner(self, other: "GridState") -> complex:
        if other.grid is not self.grid and not np.array_equal(other.grid.points, self.grid.points):
            raise ValueError("states live on different grids")
        return complex(np.sum(np.conj(self.values) * other.values * self.grid.weights[None, :]))
