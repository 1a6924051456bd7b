"""Discrete spectrum below the continuum threshold.

The essential spectrum starts at mu = min_sigma alpha . sigma; below it
the eigenvalues are the energies E where B Gamma(E) + A is singular. On
each block of the pair (BoundaryPair.blocks), with B_k = W S V* cut to
the nonzero singular values, every (q, f) with A q = B f has q = V y and
V* f = Lambda y, Lambda = V* A* W S^-1 (Hermitian for an admissible
pair). With f = -Gamma(E) q, a bound state at E is a null vector y of

    H_k(E) = V* Gamma_k(E) V + Lambda,

which is Hermitian and strictly decreasing in E below mu. The number N(E) of
its negative eigenvalues, summed over the blocks, thus counts the bound
states below E up to its E -> -inf limit. Counts at the ends of a
bracket certify every level in it: the jump in N is its multiplicity,
and the null vectors of H_k, mapped back through V, are its charges.
The search finds the levels by Newton steps: each sorted eigenvalue
lambda_i(E) of H_k is strictly decreasing, so it has at most one root,
and its slope is -y* V* G(E) V y with y its eigenvector and G =
-Gamma' the Gram matrix of the defect functions (krein.gamma_gram). In
a bracket, every block whose count jumps steps on its next eigenvalue
to cross zero, all at once and each at its own energy: one paired
evaluation of the group's Gamma plan, one stacked eigh and one stacked
slope per step. One count of those blocks at every edge of the windows
e -+ tol (1 + |e|)/2 around the roots e confirms them, and bisection on
N takes over where no step converges. The blocks are those of the pair
in its spin frame U (BoundaryPair.frame): U commutes with Gamma(E), so
the rotated pair has the same levels, and its charges q' map back as
q = U q'.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy

from . import krein
from .boundary import RANK_RTOL, BlockGroup, BoundaryPair, SpinFrame, require_valid
from .krein import _frame_plans, defect_matrix, gamma_dressed
from .spins import ModelSpec, channel_sum, channel_tables

__all__ = [
    "essential_spectrum_bottom",
    "find_bound_states",
    "eigenfunction_eval",
    "BoundState",
]

GAP = 1e-9  # stand-off from the continuum threshold
_NEWTON_STEPS = 8  # batched Newton steps per bracket; a block not converged by then is searched again in a gap


def essential_spectrum_bottom(model: ModelSpec) -> float:
    """mu = min over configurations of alpha . sigma, i.e. -sum |alpha_j|."""
    return float(np.min(model.shifts()))


@dataclass(frozen=True)
class BoundState:
    energy: float
    charges: np.ndarray  # first row of charge_basis
    smallest_singular_value: float
    multiplicity: int
    charge_basis: np.ndarray  # (multiplicity, m) null vectors, phase-fixed


class _Reduced(NamedTuple):
    """One block group of the pair in its spin frame, with H_k(E) = V* Gamma_k(E) V + Lambda (_reduce)."""

    group: BlockGroup
    dress: Callable  # Gamma plan on the group's blocks
    cols: np.ndarray | None  # (g, r) positions in each block of the rows of H_k; None: every position
    plan: Callable  # Gamma plan on the rows of H_k, or on the blocks when v maps them
    v: np.ndarray | None  # (g, k, r); None: H_k = Gamma_k[cols, cols] + Lambda, with no product
    lam: np.ndarray  # (g, r, r)
    charge: bool  # every row of H_k lies in the d=1 charge layer
    mu: np.ndarray  # (g,) the lowest Zeeman shift of each block's rows: its own threshold

    def hermitian(self, gamma: np.ndarray, sel) -> np.ndarray:
        """H_k of the blocks sel from the stack of their plan's Gamma; leading axes carry through."""
        if self.v is None:
            return gamma + self.lam[sel]
        v = self.v[sel]
        return v.conj().swapaxes(-1, -2) @ gamma @ v + self.lam[sel]

    def rows(self, sel) -> np.ndarray:
        """Flat defect indices of the plan's rows for the blocks sel."""
        index = self.group.index[sel]
        return index if self.cols is None else np.take_along_axis(index, self.cols[sel], axis=-1)


def _reduce(model: ModelSpec, frame: SpinFrame) -> list:
    """_Reduced per block group of the pair in its spin frame (krein._frame_plans).

    With B_k = W S V* cut to its nonzero singular values, every (q, f)
    with A_k q = B_k f has q = V y and V* f = Lambda y, Lambda = V* A_k* W S^-1.
    V keeps as many directions as the largest rank of B_k in the group;
    it is zero and Lambda the identity in those of zero singular values,
    which thus add no negative eigenvalue or null vector to H_k. Where
    every B_k of the group has exactly as many nonzero columns J as its
    rank, V = E_J R with R unitary, and H_k in the coordinates J is the
    block Gamma_k[J, J] plus R Lambda R*: no product, and the plan
    evaluates those rows only. J is the whole block where B_k is
    invertible, and R Lambda R* = B_k^-1 A_k there. Lambda is made
    Hermitian: no change for an admissible pair.
    """
    p, _, code = channel_tables(model)
    out = []
    for g, dress in _frame_plans(model, frame):
        w, s, vh = np.linalg.svd(g.B)
        keep = s > RANK_RTOL * np.maximum(s[:, :1], np.max(np.abs(g.A), axis=(1, 2))[:, None])
        r = int(np.max(np.sum(keep, axis=1)))  # s descends: H_k is r x r
        w, s, vh, keep = w[..., :r], s[:, :r], vh[:, :r], keep[:, :r]
        inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        lam = vh @ g.A.conj().swapaxes(-1, -2) @ (w * inv_s[:, None, :])
        lam = 0.5 * (lam + lam.conj().swapaxes(-1, -2)) * (keep[:, :, None] & keep[:, None, :])
        v, lam = vh.conj().swapaxes(-1, -2) * keep[:, None, :], lam + np.eye(r) * ~keep[:, None, :]
        support = g.B.any(axis=1)  # the nonzero columns of each B_k
        cols, rows, plan = None, g.index, dress
        if r and keep.all() and np.all(np.sum(support, axis=1) == r):
            support = np.nonzero(support)[1].reshape(-1, r)
            rot = np.take_along_axis(v, support[:, :, None], axis=1)  # R = V[J]
            lam, v = rot @ lam @ rot.conj().swapaxes(-1, -2), None
            lam = 0.5 * (lam + lam.conj().swapaxes(-1, -2))
            if r < g.index.shape[1]:
                cols, rows = support, np.take_along_axis(g.index, support, axis=1)
                plan = krein._gamma_plan(model, rows)
        charge = model.dimension == 1 and v is None and not p[rows].any()
        out.append(_Reduced(g, dress, cols, plan, v, lam, charge, np.min(model.shifts()[code[rows]], axis=1)))
    return out


def _groups(red: list, blocks: np.ndarray):
    """(group, positions i of blocks in it, their numbers in the group) per group holding any of blocks.

    Blocks are numbered across the groups in order.
    """
    start = 0
    for rd in red:
        at = np.flatnonzero((blocks >= start) & (blocks < start + len(rd.lam)))
        if at.size:
            yield rd, at, blocks[at] - start
        start += len(rd.lam)


def _count(red: list, energy, blocks=None) -> np.ndarray:
    """Negative eigenvalues of H_k per energy and block: one plan call per group for all pairs.

    energy is a scalar or a 1-D array that leads the result; blocks are
    the block numbers counted (default all), which make its last axis.
    """
    blocks = np.arange(sum(len(rd.lam) for rd in red)) if blocks is None else blocks
    out = np.zeros(np.shape(energy) + blocks.shape, dtype=int)
    for rd, at, sel in _groups(red, blocks):
        h = rd.hermitian(rd.plan(energy, sel)[0], sel)
        out[..., at] = np.sum(np.linalg.eigvalsh(h) < 0.0, axis=-1)
    return out


def _eigenpairs(h: np.ndarray, lo, up) -> list:
    """(eigenvalues, eigenvectors) lo[i]..up[i] - 1, ascending, of each matrix h[i] of a Hermitian stack.

    Large matrices take those eigenpairs only (scipy's subset eigh),
    small ones one stacked eigh (faster there).
    """
    if h.shape[-1] > 16:
        return [scipy.linalg.eigh(m, subset_by_index=[i, j - 1]) for m, i, j in zip(h, lo, up)]
    lam, y = np.linalg.eigh(h)
    return [(lm[i:j], ym[:, i:j]) for lm, ym, i, j in zip(lam, y, lo, up)]


def _crossing(red: list, energy: np.ndarray, blocks: np.ndarray, index: np.ndarray):
    """Eigenvalue index[i] (ascending) of H_k on block blocks[i] at energy[i], and its slope in E.

    With y its unit eigenvector the slope is y* V* Gamma_k'(E) V y =
    -y* V* G_k(E) V y, G = gamma_gram, from the same plan evaluation:
    one paired call, one stacked eigh and one stacked slope per group.
    """
    lam, slope = np.empty(blocks.size), np.empty(blocks.size)
    for rd, at, sel in _groups(red, blocks):
        gamma, gram = rd.plan(energy[at], sel, gram=True, paired=True)
        pairs = _eigenpairs(rd.hermitian(gamma, sel), index[at], index[at] + 1)
        y = np.array([vec[:, 0] for _, vec in pairs])
        vy = y if rd.v is None else (rd.v[sel] @ y[..., None])[..., 0]
        lam[at] = [val[0] for val, _ in pairs]
        slope[at] = -np.real(np.einsum("pi,pij,pj->p", vy.conj(), gram, vy))
    return lam, slope


def _newton(red: list, a: float, b: float, start, blocks, index, tol: float):
    """Roots in (a, b) of eigenvalue index[i] of H_k on blocks[i], every block stepped at once; nan where none.

    Each block steps in t = kappa^s, kappa = sqrt(mu_k - E) with mu_k
    its own threshold: s = 1 where Gamma grows like kappa, and s = -1
    where the rows of H_k lie in the d=1 charge layer, where Gamma decays
    like 1/kappa, so the branch is nearly linear in t. The sign of each
    eigenvalue narrows the block's own bracket, and a step that leaves
    it, or a slope that is not negative, is replaced by bisection in
    kappa. A block converges when its step is at most delta = tol * (1 +
    |E|), or the next one that quadratic convergence predicts from the
    last two steps is at most delta/4 (half the half-width of the window
    that certifies the root), or when its bracket is delta narrow.
    """
    root, at = np.full(blocks.size, np.nan), np.arange(blocks.size)
    x, lo, hi, prev = np.array(start, dtype=float), np.full(at.size, a), np.full(at.size, b), np.zeros(at.size)
    mu = np.concatenate([rd.mu for rd in red])[blocks]
    s = np.concatenate([np.full(len(rd.lam), -1.0 if rd.charge else 1.0) for rd in red])[blocks]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            lam, slope = _crossing(red, x, blocks, index)
            lo, hi = np.where(lam > 0.0, x, lo), np.where(lam > 0.0, hi, x)  # decreasing: the root is above x
            kappa = np.sqrt(mu - x)
            t = kappa**s + s * lam / (2.0 * slope * kappa ** (2.0 - s))  # dE/dt = -2 kappa^(2 - s) / s
            new = mu - t ** (2.0 / s)
            newton, step = (slope < 0.0) & (t > 0.0), np.abs(new - x)
            width = tol * (1.0 + np.abs(new))
            done = newton & ((step <= width) | (step * np.fmin(1.0, step / prev) ** 2 <= 0.25 * width))
            narrow = hi - lo <= tol * (1.0 + np.abs(hi))
            root[at] = np.where(done, np.clip(new, lo, hi), np.where(narrow, 0.5 * (lo + hi), np.nan))
            live = ~(done | narrow)
            if not live.any():
                break
            inside = newton & (lo <= new) & (new <= hi)
            if not inside.all():
                new = np.where(inside, new, mu - (0.5 * (np.sqrt(mu - lo) + np.sqrt(mu - hi))) ** 2)
            x, prev = new, np.where(inside, step, 0.0)
            if not live.all():
                at, x, lo, hi, prev, mu, s, blocks, index = (v[live] for v in (at, x, lo, hi, prev, mu, s, blocks, index))
    return root


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
    for rd in red:
        if rd.charge:  # every direction of H_k lies in the charge layer: Lambda itself
            bound = RANK_RTOL * np.max(np.abs(rd.lam), axis=(1, 2))
            total += int(np.sum(np.linalg.eigvalsh(rd.lam) <= bound[:, None]))
            continue
        rows = rd.rows(slice(None))
        v = np.broadcast_to(np.eye(rows.shape[1]), rows.shape + rows.shape[1:]) if rd.v is None else rd.v
        for index, vb, lb in zip(rows, v, rd.lam):
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


def _levels(model: ModelSpec, frame: SpinFrame, red: list, found: list) -> list[BoundState]:
    """Bound states at roots bracketed by per-block counts, found = [(energy, n_below, n_above)].

    Every block whose count jumps is dressed at its level's energy, all
    levels at once: one paired plan call, one stacked SVD of B_k Gamma_k
    + A_k and one stacked eigh per group. Eigenvalue i of H_k is
    nonincreasing in E, so those with n_below <= i < n_above cross zero:
    their eigenvectors, mapped back to the defect space, span the charges.
    """
    energy = np.array([e for e, _, _ in found])
    lo, up = np.array([n for _, n, _ in found]), np.array([n for _, _, n in found])
    level, blocks = np.nonzero(up > lo)  # level by level, blocks in group order
    sigma, vectors = np.full(energy.size, np.inf), [None] * level.size
    for rd, at, sel in _groups(red, blocks):
        gamma = rd.dress(energy[level[at]], sel, paired=True)[0]
        dressed = gamma_dressed(BlockGroup(rd.group.index[sel], rd.group.A[sel], rd.group.B[sel]), gamma)
        np.minimum.at(sigma, level[at], np.linalg.svd(dressed, compute_uv=False)[:, -1])
        if rd.cols is not None:
            cols = rd.cols[sel]
            gamma = np.take_along_axis(np.take_along_axis(gamma, cols[:, :, None], axis=1), cols[:, None, :], axis=2)
        pairs = _eigenpairs(rd.hermitian(gamma, sel), lo[level[at], blocks[at]], up[level[at], blocks[at]])
        for i, b, rows, (_, y) in zip(at, sel, rd.rows(sel), pairs):
            vectors[i] = np.zeros((y.shape[1], model.defect_dim), dtype=complex)
            vectors[i][:, rows] = (y if rd.v is None else rd.v[b] @ y).T
    basis = frame.rotate(np.concatenate(vectors))
    lead = basis[np.arange(len(basis)), np.argmax(np.abs(basis), axis=1)]
    basis = basis * (np.abs(lead) / lead)[:, None]  # largest entry of each row real positive
    split = np.cumsum(np.sum(up - lo, axis=1))[:-1]  # the rows of each level, in level order
    return [BoundState(float(e), q[0], float(sg), len(q), q) for e, sg, q in zip(energy, sigma, np.split(basis, split))]


def find_bound_states(model: ModelSpec, pair: BoundaryPair, e_min: float | None = None,
                      tol: float = 1e-13, unchecked: bool = False) -> list[BoundState]:
    """Eigenvalues below the essential spectrum, sorted ascending.

    Splits [e_min, mu - gap] at counts of N until every jump is
    bracketed to tol * (1 + |E|); the energy is the bracket midpoint. In
    a bracket, every block whose count jumps there takes Newton steps on
    its next eigenvalue to cross zero, all blocks at once (_newton), from
    its last root found (or the midpoint). Each root e gets the window
    e -+ delta/2, delta = tol * (1 + |e|); windows that overlap are one
    level, and one count of every such block at every window edge
    certifies them: a window whose count jumps is a level whose
    multiplicity is the jump, and the gaps between windows are searched
    again. Where no block's steps converge, the bracket is bisected.
    Counts inside a bracket are clamped into those at its ends and made
    nondecreasing, so the brackets stay nested and the multiplicities
    add up to N(mu - gap) - N(e_min). e_min defaults to
    default_search_floor. smallest_singular_value is that of
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
    states, last = [], np.full(sum(len(rd.lam) for rd in red), np.nan)
    stack = [(lo, _count(red, lo) if n_lo is None else n_lo, hi, _count(red, hi))]
    while stack:
        a, na, b, nb = stack.pop()
        blocks = np.flatnonzero(nb > na)  # blocks with a root in [a, b]
        mid = 0.5 * (a + b)
        if not blocks.size:
            continue
        if b - a <= tol * (1.0 + abs(a)) or not a < mid < b:
            states += _levels(model, frame, red, [(mid, na, nb)])
            continue

        # levels cluster: each block starts from its last root found, or the midpoint before its first
        start = np.clip(np.where(np.isnan(last[blocks]), mid, last[blocks]), a, b)
        roots = _newton(red, a, b, start, blocks, na[blocks], tol)
        if np.isnan(roots).all():
            nm = na.copy()
            nm[blocks] = _count(red, mid, blocks)
            nm = np.clip(nm, na, nb)
            stack += [(mid, nm, b, nb), (a, na, mid, nm)]
            continue
        last[blocks] = np.where(np.isnan(roots), last[blocks], roots)
        windows = []
        for e in np.sort(roots[~np.isnan(roots)]):
            half = 0.5 * tol * (1.0 + abs(e))
            left, right = max(a, e - half), min(b, e + half)
            if windows and left <= windows[-1][1]:
                windows[-1][1] = max(windows[-1][1], right)
            else:
                windows.append([left, right])
        edges = np.ravel(windows)
        inner = (edges > a) & (edges < b)
        counts = np.tile(na, (edges.size, 1))
        counts[np.ix_(inner, blocks)] = _count(red, edges[inner], blocks)
        counts[edges >= b] = nb
        counts = np.maximum.accumulate(np.clip(counts, na, nb), axis=0)
        ends = [(a, na), *zip(edges, counts), (b, nb)]  # gap, window, gap, ..., window, gap
        found, gaps = [], []
        for k, ((x0, n0), (x1, n1)) in enumerate(zip(ends, ends[1:])):
            if k % 2 == 0:
                gaps.append((x0, n0, x1, n1))
            elif np.any(n1 > n0):
                found.append((0.5 * (x0 + x1), n0, n1))
        states += _levels(model, frame, red, found) if found else []
        stack += gaps[::-1]
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
