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
the bound states below E up to its E -> -inf limit. Counts at the ends
of a bracket certify every level in it: the jump in N is its
multiplicity, and the null vectors of H_k, mapped back through V, are
its charges. The search finds the levels by Newton steps: each sorted
eigenvalue lambda_i(E) of H_k is strictly decreasing, so it has at most
one root, and its slope is -y* V* G(E) V y with y its eigenvector and
G = -Gamma' the Gram matrix of the defect functions (krein.gamma_gram).
Newton steps on the next eigenvalue to cross zero in a bracket propose
its root e, and counts at e -+ tol (1 + |e|)/2 confirm it; bisection on
N takes over where a step fails. The blocks are those of the pair in
its spin frame U (BoundaryPair.frame): U commutes with Gamma(E), so the
rotated pair has the same levels, and its charges q' map back as
q = U q'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .boundary import RANK_RTOL, BlockGroup, BoundaryPair, SpinFrame, require_valid
from .krein import _frame_plans, defect_matrix, gamma_dressed, gamma_free
from .spins import ModelSpec, channel_sum, channel_tables

__all__ = [
    "essential_spectrum_bottom",
    "detgamma_profile",
    "find_bound_states",
    "eigenfunction_eval",
    "BoundState",
]

GAP = 1e-9  # stand-off from the continuum threshold
_NEWTON_STEPS = 8  # Newton steps tried per bracket before it is bisected


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


def _reduce(model: ModelSpec, frame: SpinFrame) -> list:
    """(group, its Gamma plan, V, Lambda) per block group of the pair in its spin frame (krein._frame_plans).

    V keeps as many directions as the largest rank of B_k in the group;
    it is zero and Lambda the identity in those of zero singular values,
    which thus add no negative eigenvalue or null vector to H_k. Lambda
    is made Hermitian: no change for an admissible pair.
    """
    out = []
    for g, plan in _frame_plans(model, frame):
        w, s, vh = np.linalg.svd(g.B)
        keep = s > RANK_RTOL * np.maximum(s[:, :1], np.max(np.abs(g.A), axis=(1, 2))[:, None])
        r = int(np.max(np.sum(keep, axis=1)))  # s descends: H_k is r x r
        w, s, vh, keep = w[..., :r], s[:, :r], vh[:, :r], keep[:, :r]
        inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        lam = vh @ g.A.conj().swapaxes(-1, -2) @ (w * inv_s[:, None, :])
        lam = 0.5 * (lam + lam.conj().swapaxes(-1, -2)) * (keep[:, :, None] & keep[:, None, :])
        out.append((g, plan, vh.conj().swapaxes(-1, -2) * keep[:, None, :], lam + np.eye(r) * ~keep[:, None, :]))
    return out


def _hermitian(red: list, energy: float, active=None, gram: bool = False):
    """(group, positions, V, Gamma_k, H_k(energy)) per group, for all or the active blocks.

    Blocks are numbered in group order; active is a mask over them.
    Gamma_k comes as its plan's stack: G_k = -Gamma_k' follows under gram.
    """
    start = 0
    for g, plan, v, lam in red:
        sel = np.arange(len(v)) if active is None else np.flatnonzero(active[start:start + len(v)])
        start += len(v)
        if sel.size:
            gamma, vs = plan(energy, None if active is None else sel, gram), v[sel]
            yield g, sel, vs, gamma, vs.conj().swapaxes(-1, -2) @ gamma[0] @ vs + lam[sel]


def _count(red: list, energy: float, active=None) -> np.ndarray:
    """Negative eigenvalues of H_k(energy) per block (per active block)."""
    return np.concatenate([np.sum(np.linalg.eigvalsh(h) < 0.0, axis=-1)
                           for *_, h in _hermitian(red, energy, active)])


def _between(red: list, energy: float, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Per-block counts at an energy between the ends of a bracket with counts low <= high.

    Blocks with low < high are counted, and every count is clamped into
    [low, high]: N is nondecreasing in E, so only rounding can leave that
    range, and the clamp keeps the brackets nested.
    """
    active = high > low
    n = low.copy()
    if active.any():
        n[active] = _count(red, energy, active)
    return np.clip(n, low, high)


def _crossing(red: list, energy: float, block: int, i: int) -> tuple[float, float]:
    """Eigenvalue i (ascending) of H_k(energy) on one block, and its slope in E.

    With y its unit eigenvector the slope is y* V* Gamma_k'(E) V y =
    -y* V* G_k(E) V y, G = gamma_gram, from Gamma_k's plan evaluation.
    Large blocks take the one eigenpair, small ones the full eigh (faster there).
    """
    only = np.arange(sum(len(v) for _, _, v, _ in red)) == block
    _, _, v, (_, gram), h = next(_hermitian(red, energy, only, gram=True))
    if h.shape[-1] > 16:
        lam, y = scipy.linalg.eigh(h[0], subset_by_index=[i, i])
        lam, y = lam[0], y[:, 0]
    else:
        lam, y = np.linalg.eigh(h[0])
        lam, y = lam[i], y[:, i]
    vy = v[0] @ y
    return float(lam), -float(np.real(vy.conj() @ gram[0] @ vy))


def _newton(red: list, a: float, b: float, start: float, block: int, i: int, tol: float):
    """Root of eigenvalue i of H_k in (a, b) by Newton steps from start, or None.

    Converged when a step, or the next one that quadratic convergence
    predicts from the last two, is at most tol * (1 + |E|). None when an
    iterate leaves (a, b), the slope is not negative, or _NEWTON_STEPS
    steps do not converge.
    """
    e, step = start, 0.0
    for _ in range(_NEWTON_STEPS):
        lam, slope = _crossing(red, e, block, i)
        if not slope < 0.0:
            return None
        step, prev = lam / slope, step
        e -= step
        if not a < e < b:
            return None
        ratio = min(1.0, abs(step / prev)) if prev else 1.0
        if abs(step) * ratio**2 <= tol * (1.0 + abs(e)):
            return e
    return None


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
    for g, _, v, lam in red:
        for index, vb, lb in zip(g.index, v, lam):
            keep = np.any(vb != 0.0, axis=0)
            if keep.any():
                u, sv, vh = np.linalg.svd(vb[p[index] == 1][:, keep])  # null space: scipy.linalg.null_space's cutoff
                null = vh[np.count_nonzero(sv > np.finfo(float).eps * max(len(u), len(vh)) * np.max(sv, initial=0.0)):]
                lr = lb[np.ix_(keep, keep)]
                ev = np.linalg.eigvalsh(null @ lr @ null.conj().T)
                total += int(np.sum(ev <= RANK_RTOL * np.max(np.abs(lr))))
    return total


def default_search_floor(model: ModelSpec, pair: BoundaryPair) -> float:
    """Certified lower end of the bound-state search.

    Starts at mu - 10 (1 + (4 pi max|A| / max|B|)^2) and moves to
    mu - 4 (mu - floor) until N(floor) equals its E -> -inf limit; as N
    is nondecreasing in E, no bound state lies below the result.
    """
    if not pair.entries.B.any():
        return essential_spectrum_bottom(model) - 10.0  # no bound states
    return _search_floor(model, pair, _reduce(model, pair.frame(model)))[0]


def _search_floor(model: ModelSpec, pair: BoundaryPair, red: list) -> tuple[float, np.ndarray]:
    """default_search_floor on the pair's reduction, with the per-block counts there."""
    mu = essential_spectrum_bottom(model)
    a, b = pair.entries.A, pair.entries.B  # every nonzero of A and of B is an entry
    floor = mu - 10.0 * (1.0 + (4.0 * np.pi * float(np.max(np.abs(a))) / float(np.max(np.abs(b)))) ** 2)
    limit = _limit(model, red)
    for _ in range(30):
        counts = _count(red, floor)
        if counts.sum() <= limit:
            return floor, counts
        floor = mu - 4.0 * (mu - floor)
    raise ValueError(f"no certified search floor above {floor:.3e}: the bound-state count "
                     f"did not fall to its limit {limit}")


def _level(model: ModelSpec, frame: SpinFrame, red: list, energy: float, n_below, n_above) -> BoundState:
    """Bound state at a root bracketed by per-block counts n_below < n_above."""
    jump = n_above > n_below
    lo, up = n_below[jump], n_above[jump]
    rotated, sigma, i = [], np.inf, 0
    for g, sel, v, gamma, h in _hermitian(red, energy, jump):
        dressed = gamma_dressed(BlockGroup(g.index[sel], g.A[sel], g.B[sel]), gamma[0])
        sigma = min(sigma, float(np.min(np.linalg.svd(dressed, compute_uv=False))))
        for index, vb, vec in zip(g.index[sel], v, np.linalg.eigh(h)[1]):
            # eigenvalue i is nonincreasing in E: those with lo <= i < up cross zero
            for y in (vb @ vec[:, lo[i]:up[i]]).T:
                q = np.zeros(model.defect_dim, dtype=complex)
                q[index] = y
                rotated.append(q)
            i += 1
    basis = []
    for q in frame.rotate(np.array(rotated)):
        lead = q[np.argmax(np.abs(q))]
        basis.append(q * (abs(lead) / lead))
    return BoundState(float(energy), basis[0], sigma, len(basis), np.array(basis))


def find_bound_states(model: ModelSpec, pair: BoundaryPair, e_min: float | None = None,
                      tol: float = 1e-13, unchecked: bool = False) -> list[BoundState]:
    """Eigenvalues below the essential spectrum, sorted ascending.

    Splits [e_min, mu - gap] at counts of N until every jump is
    bracketed to tol * (1 + |E|); the energy is the bracket midpoint. In
    a bracket with a jump, Newton steps on the next eigenvalue of one
    block to cross zero propose its root e, from the last root found (or
    the midpoint), and counts at e -+ delta/2, delta = tol * (1 + |e|),
    cut out the bracket of that level; where the steps fail, the bracket
    is bisected. Counts inside a bracket are clamped into those at its
    ends, so the brackets stay nested and the multiplicities add up to
    N(mu - gap) - N(e_min). e_min defaults to default_search_floor. smallest_singular_value is that of
    B Gamma(E) + A, whose null space charge_basis spans (largest entry
    of each row real positive). Under unchecked, a pair that is not
    admissible is counted with the Hermitian part of Lambda, and its
    levels are not certified.
    """
    require_valid(model, pair, unchecked)
    if not pair.entries.B.any():
        return []  # A q = 0 forces q = 0
    frame = pair.frame(model)
    red = _reduce(model, frame)
    mu = essential_spectrum_bottom(model)
    if e_min is None:
        lo, n_lo = _search_floor(model, pair, red)
    else:
        lo, n_lo = float(e_min), None
    hi = mu - GAP * (1.0 + abs(mu))
    if lo >= hi:
        return []
    states, last = [], None
    stack = [(lo, _count(red, lo) if n_lo is None else n_lo, hi, _count(red, hi))]
    while stack:
        a, na, b, nb = stack.pop()
        active = nb > na  # blocks with a root in [a, b]
        mid = 0.5 * (a + b)
        if not active.any():
            continue
        if b - a <= tol * (1.0 + abs(a)) or not a < mid < b:
            states.append(_level(model, frame, red, mid, na, nb))
            continue

        # levels cluster: start from the last one found, or the midpoint before the first
        start = mid if last is None else min(max(last, a), b)
        block = int(np.argmax(active))
        e = _newton(red, a, b, start, block, int(na[block]), tol)
        if e is None:
            nm = _between(red, mid, na, nb)
            stack += [(mid, nm, b, nb), (a, na, mid, nm)]
            continue
        last, half = e, 0.5 * tol * (1.0 + abs(e))
        left, right = max(a, e - half), min(b, e + half)
        n_left = na if left == a else _between(red, left, na, nb)
        n_right = nb if right == b else _between(red, right, n_left, nb)
        if np.any(n_right > n_left):
            states.append(_level(model, frame, red, 0.5 * (left + right), n_left, n_right))
        stack += [(right, n_right, b, nb), (a, na, left, n_left)]
    return sorted(states, key=lambda st: st.energy)


def eigenfunction_eval(model: ModelSpec, energy: float, charges: np.ndarray, points) -> np.ndarray:
    """Defect-function combination sum_mu c_mu Phi^E_mu on given points.

    Returns an array of shape (2**N, n_points), one row per spin
    configuration. The energy must lie below the continuum threshold.
    """
    mu = essential_spectrum_bottom(model)
    if energy >= mu:
        raise ValueError("eigenfunction evaluation needs an energy below the continuum threshold")
    return channel_sum(model, charges, defect_matrix(model, complex(energy), points))
