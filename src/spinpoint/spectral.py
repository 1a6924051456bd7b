"""Discrete spectrum below the continuum threshold.

The essential spectrum starts at mu = min_sigma alpha . sigma; below it
the eigenvalues are the energies E where B Gamma(E) + A is singular. On
each block of the pair (BoundaryPair.blocks), with B_k = W S V* cut to
the nonzero singular values, every (q, f) with A q = B f has q = V y and
V* f = Lambda y, Lambda = V* A* W S^-1 (Hermitian for an admissible
pair). With f = -Gamma(E) q, a bound state at E is a null vector y of

    H_k(E) = V* Gamma_k(E) V + Lambda,

which is Hermitian and strictly decreasing in E below mu. The number
N(E) of its negative eigenvalues, summed over the blocks, thus counts
the bound states below E up to its E -> -inf limit: bisection on N finds
every level, the jump in N is its multiplicity, and the null vectors of
H_k, mapped back through V, are its charges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .boundary import RANK_RTOL, BlockGroup, BoundaryPair, require_valid
from .krein import defect_matrix, gamma_dressed, gamma_free
from .spins import ModelSpec, channel_sum, channel_tables

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
        dressed = gamma_dressed(pair, gamma_free(model, complex(e)))
        sv = np.linalg.svd(dressed, compute_uv=False)
        _, logdet = np.linalg.slogdet(dressed)
        out[i] = (sv[-1], logdet)
    return out


@dataclass(frozen=True)
class BoundState:
    energy: float
    charges: np.ndarray  # first row of charge_basis
    smallest_singular_value: float
    multiplicity: int
    charge_basis: np.ndarray  # (multiplicity, m) null vectors, phase-fixed


def _reduce(pair: BoundaryPair) -> list:
    """(group, V, Lambda) per block group of the pair.

    V keeps as many directions as the largest rank of B_k in the group;
    it is zero and Lambda the identity in those of zero singular values,
    which thus add no negative eigenvalue or null vector to H_k. Lambda
    is made Hermitian: no change for an admissible pair.
    """
    out = []
    for g in pair.blocks():
        w, s, vh = np.linalg.svd(g.B)
        keep = s > RANK_RTOL * np.maximum(s[:, :1], np.max(np.abs(g.A), axis=(1, 2))[:, None])
        r = int(np.max(np.sum(keep, axis=1)))  # s descends: H_k is r x r
        w, s, vh, keep = w[..., :r], s[:, :r], vh[:, :r], keep[:, :r]
        inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        lam = vh @ g.A.conj().swapaxes(-1, -2) @ (w * inv_s[:, None, :])
        lam = 0.5 * (lam + lam.conj().swapaxes(-1, -2)) * (keep[:, :, None] & keep[:, None, :])
        out.append((g, vh.conj().swapaxes(-1, -2) * keep[:, None, :],
                    lam + np.eye(r) * ~keep[:, None, :]))
    return out


def _hermitian(model: ModelSpec, red: list, energy: float, active=None):
    """(group, positions, V, Gamma_k, H_k(energy)) per group, for all or the active blocks.

    Blocks are numbered in group order; active is a mask over them.
    """
    start = 0
    for g, v, lam in red:
        sel = np.arange(len(v)) if active is None else np.flatnonzero(active[start:start + len(v)])
        start += len(v)
        if sel.size:
            gamma, vs = gamma_free(model, complex(energy), g.index[sel]), v[sel]
            yield g, sel, vs, gamma, vs.conj().swapaxes(-1, -2) @ gamma @ vs + lam[sel]


def _count(model: ModelSpec, red: list, energy: float, active=None) -> np.ndarray:
    """Negative eigenvalues of H_k(energy) per block (per active block)."""
    return np.concatenate([np.sum(np.linalg.eigvalsh(h) < 0.0, axis=-1)
                           for *_, h in _hermitian(model, red, energy, active)])


def _limit(model: ModelSpec, red: list) -> int:
    """lim N(E) for E -> -inf.

    In d=3 Gamma(E) grows like sqrt(|E|)/(4 pi) times the identity: 0.
    In d=1 its dipole block grows like sqrt(|E|)/2 while its charge block
    tends to 0 from below: the eigenvalues <= 0 of Lambda compressed to
    the directions of V without a dipole-layer component.
    """
    if model.dimension == 3:
        return 0
    p = channel_tables(model)[0]
    total = 0
    for g, v, lam in red:
        for index, vb, lb in zip(g.index, v, lam):
            keep = np.any(vb != 0.0, axis=0)
            if keep.any():
                basis = null_space(vb[p[index] == 1][:, keep])
                lr = lb[np.ix_(keep, keep)]
                ev = np.linalg.eigvalsh(basis.conj().T @ lr @ basis)
                total += int(np.sum(ev <= RANK_RTOL * np.max(np.abs(lr))))
    return total


def default_search_floor(model: ModelSpec, pair: BoundaryPair) -> float:
    """Certified lower end of the bound-state search.

    Starts at mu - 10 (1 + (4 pi max|A| / max|B|)^2) and moves to
    mu - 4 (mu - floor) until N(floor) equals its E -> -inf limit; as N
    is nondecreasing in E, no bound state lies below the result.
    """
    mu = essential_spectrum_bottom(model)
    bmax = float(np.max(np.abs(pair.B)))
    if bmax == 0.0:
        return mu - 10.0  # no bound states
    red = _reduce(pair)
    floor = mu - 10.0 * (1.0 + (4.0 * np.pi * float(np.max(np.abs(pair.A))) / bmax) ** 2)
    limit = _limit(model, red)
    for _ in range(30):
        if _count(model, red, floor).sum() <= limit:
            return floor
        floor = mu - 4.0 * (mu - floor)
    raise ValueError(f"no certified search floor above {floor:.3e}: the bound-state count "
                     f"did not fall to its limit {limit}")


def _level(model: ModelSpec, red: list, energy: float, n_below, n_above) -> BoundState:
    """Bound state at a root bracketed by per-block counts n_below < n_above."""
    jump = n_above > n_below
    lo, up = n_below[jump], n_above[jump]
    basis, sigma, i = [], np.inf, 0
    for g, sel, v, gamma, h in _hermitian(model, red, energy, jump):
        dressed = gamma_dressed(BlockGroup(g.index[sel], g.A[sel], g.B[sel]), gamma)
        sigma = min(sigma, float(np.min(np.linalg.svd(dressed, compute_uv=False))))
        for index, vb, vec in zip(g.index[sel], v, np.linalg.eigh(h)[1]):
            # eigenvalue i is nonincreasing in E: those with lo <= i < up cross zero
            for y in (vb @ vec[:, lo[i]:up[i]]).T:
                q = np.zeros(model.defect_dim, dtype=complex)
                q[index] = y
                lead = q[np.argmax(np.abs(q))]
                basis.append(q * (abs(lead) / lead))
            i += 1
    return BoundState(float(energy), basis[0], sigma, len(basis), np.array(basis))


def find_bound_states(model: ModelSpec, pair: BoundaryPair, e_min: float | None = None,
                      tol: float = 1e-13, unchecked: bool = False) -> list[BoundState]:
    """Eigenvalues below the essential spectrum, sorted ascending.

    Bisects [e_min, mu - gap] on N until every jump is bracketed to
    tol * (1 + |E|); the energy is the bracket midpoint. e_min defaults
    to default_search_floor. smallest_singular_value is that of
    B Gamma(E) + A, whose null space charge_basis spans (largest entry
    of each row real positive). Under unchecked, a pair that is not
    admissible is counted with the Hermitian part of Lambda, and its
    levels are not certified.
    """
    require_valid(model, pair, unchecked)
    if not np.any(pair.B):
        return []  # A q = 0 forces q = 0
    red = _reduce(pair)
    mu = essential_spectrum_bottom(model)
    lo = default_search_floor(model, pair) if e_min is None else float(e_min)
    hi = mu - GAP * (1.0 + abs(mu))
    if lo >= hi:
        return []
    states = []
    stack = [(lo, _count(model, red, lo), hi, _count(model, red, hi))]
    while stack:
        a, na, b, nb = stack.pop()
        active = nb > na  # blocks with a root in [a, b]
        mid = 0.5 * (a + b)
        if not active.any():
            continue
        if b - a <= tol * (1.0 + abs(a)) or not a < mid < b:
            states.append(_level(model, red, mid, na, nb))
            continue
        nm = na.copy()
        nm[active] = _count(model, red, mid, active)
        stack += [(mid, nm, b, nb), (a, na, mid, nm)]
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
