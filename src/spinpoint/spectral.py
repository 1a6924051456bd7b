"""Discrete spectrum below the continuum threshold.

The essential spectrum starts at mu = min_sigma alpha . sigma. Below
it, eigenvalues are exactly the energies where the dressed channel
matrix B Gamma(E) + A becomes singular; they are located by scanning
its smallest singular value and polishing each local minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryPair, require_valid
from .krein import defect_matrix, gamma_dressed, gamma_free
from .spins import ModelSpec, channel_sum

__all__ = [
    "essential_spectrum_bottom",
    "detgamma_profile",
    "find_bound_states",
    "eigenfunction_eval",
    "BoundState",
]

GAP = 1e-9  # stand-off from the continuum threshold


def essential_spectrum_bottom(model: ModelSpec) -> float:
    """mu = min over configurations of alpha . sigma, i.e. -sum |alpha_j|."""
    return float(np.min(model.shifts()))


def _dressed_at(model: ModelSpec, pair: BoundaryPair, energy: float) -> np.ndarray:
    return gamma_dressed(pair, gamma_free(model, complex(energy)))


def detgamma_profile(model: ModelSpec, pair: BoundaryPair, energies) -> np.ndarray:
    """Smallest singular value and log|det| of the dressed matrix per energy.

    Energies must lie strictly below the essential spectrum bottom.
    Returns a (len(energies), 2) array of (sigma_min, logabsdet).
    """
    mu = essential_spectrum_bottom(model)
    energies = np.asarray(energies, dtype=float)
    if np.any(energies >= mu):
        raise ValueError(f"profile energies must lie below the continuum threshold {mu}")
    out = np.empty((energies.size, 2))
    for i, e in enumerate(energies):
        dressed = _dressed_at(model, pair, e)
        sv = np.linalg.svd(dressed, compute_uv=False)
        _, logdet = np.linalg.slogdet(dressed)
        out[i] = (sv[-1], logdet)
    return out


@dataclass(frozen=True)
class BoundState:
    energy: float
    charges: np.ndarray  # primary null vector, phase-fixed
    smallest_singular_value: float
    multiplicity: int
    charge_basis: np.ndarray = None  # (multiplicity, m) null-space rows

    def __post_init__(self):
        if self.charge_basis is None:
            object.__setattr__(self, "charge_basis", self.charges[None, :])


def _sigma_min(model: ModelSpec, pair: BoundaryPair, energy: float) -> float:
    return float(np.linalg.svd(_dressed_at(model, pair, energy), compute_uv=False)[-1])


def _golden_minimize(fn, a: float, b: float, xtol: float) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def default_search_floor(model: ModelSpec, pair: BoundaryPair) -> float:
    """Heuristic lower end of the bound-state scan window.

    mu - 10 * (1 + (4 pi * coupling scale)^2), with the coupling scale
    read off as max|A| / max|B| when B is nonzero.
    """
    mu = essential_spectrum_bottom(model)
    bmax = float(np.max(np.abs(pair.B)))
    if bmax == 0.0:
        return mu - 10.0
    scale = float(np.max(np.abs(pair.A))) / bmax
    return mu - 10.0 * (1.0 + (4.0 * np.pi * scale) ** 2)


def find_bound_states(model: ModelSpec, pair: BoundaryPair, e_min: float | None = None,
                      n_grid: int = 2000, tol: float = 1e-10,
                      unchecked: bool = False) -> list[BoundState]:
    """Eigenvalues below the essential spectrum, sorted ascending.

    Scans sigma_min of the dressed matrix on [e_min, mu - gap], refines
    each local minimum by golden-section search, and keeps minima with
    sigma_min <= tol * scale, where the scale is the largest singular
    value seen anywhere on the scan grid (the value at the minimum
    itself would collapse when the matrix vanishes identically there).
    The charge vector is the singular vector of the smallest singular
    value (largest entry made real positive); the multiplicity counts
    singular values below 1e3 * the acceptance threshold.
    """
    require_valid(model, pair, unchecked)
    mu = essential_spectrum_bottom(model)
    if e_min is None:
        e_min = default_search_floor(model, pair)
    hi = mu - GAP * (1.0 + abs(mu))
    if e_min >= hi:
        return []
    grid = np.linspace(e_min, hi, n_grid)
    sv_grid = np.array([np.linalg.svd(_dressed_at(model, pair, e), compute_uv=False)
                        for e in grid])
    sig = sv_grid[:, -1]
    norm_scale = float(np.max(sv_grid[:, 0]))
    candidates = []
    for i in range(n_grid):
        left = sig[i - 1] if i > 0 else np.inf
        right = sig[i + 1] if i < n_grid - 1 else np.inf
        if sig[i] <= left and sig[i] <= right:
            if i > 0 and sig[i] == sig[i - 1]:
                continue  # plateau: keep the first point only
            lo = grid[i - 1] if i > 0 else grid[i]
            up = grid[i + 1] if i < n_grid - 1 else grid[i]
            candidates.append((lo, up))
    states: list[BoundState] = []
    fn = lambda e: _sigma_min(model, pair, e)
    for lo, up in candidates:
        e_star = _golden_minimize(fn, lo, up, xtol=1e-13 * (1.0 + abs(lo)))
        dressed = _dressed_at(model, pair, e_star)
        u, sv, vh = np.linalg.svd(dressed)
        accept = tol * max(norm_scale, 1e-300)
        if sv[-1] > accept:
            continue
        if states and abs(states[-1].energy - e_star) <= 1e-9 * (1.0 + abs(e_star)):
            continue
        multiplicity = int(np.sum(sv <= 1e3 * accept))
        basis = vh[-multiplicity:].conj()
        for row in range(multiplicity):
            lead = np.argmax(np.abs(basis[row]))
            basis[row] = basis[row] / (basis[row][lead] / abs(basis[row][lead]))
        charges = basis[-1]
        states.append(BoundState(float(e_star), charges, float(sv[-1]), multiplicity, basis))
    states.sort(key=lambda s: s.energy)
    return states


def eigenfunction_eval(model: ModelSpec, energy: float, charges: np.ndarray, points) -> np.ndarray:
    """Defect-function combination sum_mu c_mu Phi^E_mu on given points.

    Returns an array of shape (2**N, n_points), one row per spin
    configuration. The energy must lie below the continuum threshold.
    """
    mu = essential_spectrum_bottom(model)
    if energy >= mu:
        raise ValueError("eigenfunction evaluation needs an energy below the continuum threshold")
    return channel_sum(model, charges, defect_matrix(model, complex(energy), points))
