"""Discrete spectrum below the continuum threshold.

The essential spectrum starts at mu = min_sigma alpha . sigma; below it
the eigenvalues are the energies E where B Gamma(E) + A is singular. An
inert channel has zero charge, so the search runs on the charged blocks
of the pair in its spin frame (SpinFrame.charged, the dressing's
blocks). On each, with B_k = W S V* cut to the nonzero singular values,
every (q, f) with A_k q = B_k f has q = V y and V* f = Lambda y, Lambda
= V* A_k* W S^-1 (Hermitian for an admissible pair). With f = -Gamma(E)
q, a bound state at E is a null vector y of

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
a bracket, every block whose count jumps steps on eigenvalues that
cross zero there, all at once and each at its own energy: one paired
evaluation of the group's Gamma plan, one stacked eigh and one stacked
slope per step. A block of at most _SMALL_BLOCK channels steps on all
of them, each one more small matrix in the same stacked eigh; a larger
one on its next only, as each of its eigenvalues takes a subset eigh of
its own. An eigenvalue that the step cap stops resumes at its next
iterate in the next round. One count of those blocks at every edge of
the windows around the roots, each at most tol (1 + |e|) wide,
confirms them, and bisection on N takes over where no step converges.
U commutes with Gamma(E), so the rotated pair has the same levels, and
its charges q' map back as q = U q'.

Below mu the defect functions are real, so every search energy gets a
float64 Gamma from the plans (krein._gamma_plan), and H_k is real
symmetric wherever Lambda is real: a group whose A_k and B_k have
imaginary parts of exactly 0 is reduced in float64, and one whose
B_k^-1 A_k has entries that are each real or imaginary (offdiag in a
field) is gauged real by a phase D in {1, i} per spin code, read off
the code bits (_quarter_gauge), which commutes with Gamma_k; its null
vectors map back as y = D y'. Other groups (Haar pairs, or a singular
B_k with complex data) stay complex. Every step takes either dtype.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy

from . import krein
from .boundary import RANK_RTOL, BlockGroup, BoundaryPair, SpinFrame, require_valid
from .krein import defect_matrix, gamma_dressed
from .spins import ModelSpec, channel_sum, channel_tables

__all__ = [
    "essential_spectrum_bottom",
    "find_bound_states",
    "eigenfunction_eval",
    "BoundState",
]

GAP = 1e-9  # stand-off from the continuum threshold
_NEWTON_STEPS = 8  # batched Newton steps per round; an entry not converged by then resumes from its next iterate
_SMALL_BLOCK = 16  # H_k of at most this many channels: one stacked eigh, and a round steps on all its crossings


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
    """One group of the frame's charged blocks, with H_k(E) = V* Gamma_k(E) V + Lambda (_reduce)."""

    group: BlockGroup  # the charged sub-pair (A_JJ, B_JJ), stacked
    plan: Callable  # Gamma plan on the group's blocks
    v: np.ndarray | None  # (g, k, r); None: H_k = Gamma_k + Lambda, with no product
    lam: np.ndarray  # (g, r, r); float64 where the group's data is real or gauged real
    charge: bool  # every row of H_k lies in the d=1 charge layer
    mu: np.ndarray  # (g,) the lowest Zeeman shift of each block's rows: its own threshold
    scale: np.ndarray | None  # (g,) c_k where every B_k is c_k times a unitary: all its singular values c_k to rounding
    phase: np.ndarray | None  # (g, k) the gauge D where Lambda is D* (B_k^-1 A_k) D (_quarter_gauge): q = D y

    def hermitian(self, gamma: np.ndarray, sel) -> np.ndarray:
        """H_k of the blocks sel from the stack of their plan's Gamma; leading axes carry through."""
        if self.v is None:
            return gamma + self.lam[sel]
        v = self.v[sel]
        return v.conj().swapaxes(-1, -2) @ gamma @ v + self.lam[sel]


def _quarter_gauge(lam: np.ndarray, codes: np.ndarray) -> tuple:
    """(D, D* lam D) with D (g, k) in {1, i}, one phase per spin code of codes (g, k), and D* lam D exactly real.

    (None, lam) where this D does not make it real. Gamma only couples
    channels of one spin code, so D commutes with Gamma_k, and D* H_k D =
    Gamma_k + D* lam D has the spectrum of H_k with its null vectors y'
    mapped back as y = D y'. Entry (a, b) of D* lam D is i^(n_b - n_a)
    lam_ab for D_a = i^n_a, and n_c is read off the code bits: the parity
    of c xor c_0 (the block's first code) on the bits that the block's
    imaginary single-bit links flip. Multiplying by i is exact, so the
    product is then checked for an imaginary part of exactly 0.
    """
    odd = lam.imag != 0.0
    if (odd & (lam.real != 0.0)).any():
        return None, lam
    flips = codes[:, :, None] ^ codes[:, None, :]
    bits = np.bitwise_or.reduce(np.where(odd & ((flips & (flips - 1)) == 0), flips, 0), axis=(1, 2))
    parity = (codes ^ codes[:, :1]) & bits[:, None]
    for shift in (1, 2, 4, 8, 16, 32):  # fold the bits into bit 0 (np.bitwise_count needs numpy 2)
        parity ^= parity >> shift
    phase = np.where(parity & 1, 1j, 1.0)
    gauged = phase.conj()[:, :, None] * lam * phase[:, None, :]
    return (None, lam) if gauged.imag.any() else (phase, gauged.real)


def _reduce(model: ModelSpec, frame: SpinFrame) -> list:
    """_Reduced per group of the frame's charged blocks, each with its own Gamma plan.

    With B_k = W S V* cut to its nonzero singular values, every (q, f)
    with A_k q = B_k f has q = V y and V* f = Lambda y, Lambda = V* A_k* W S^-1.
    V keeps as many directions as the largest rank of B_k in the group;
    it is zero and Lambda the identity in those of zero singular values,
    which thus add no negative eigenvalue or null vector to H_k. Where
    every B_k of the group is invertible (every preset and every Haar
    pair), H_k in the block's own coordinates is Gamma_k + V Lambda V*,
    V Lambda V* = B_k^-1 A_k: no product, and v is None. Lambda is made
    Hermitian: no change for an admissible pair. scale, c_k = ||B_k||, is
    read off the same singular values (all c_k within k eps, relative).
    Where every B_k is exactly c_k I, c_k is read off the diagonal
    instead: Lambda = A_k / c_k and scale |c_k|, with no SVD.
    A group whose A_k and B_k have imaginary parts of exactly 0 is reduced
    in float64; one whose B_k^-1 A_k is complex is gauged real where the
    phase D of _quarter_gauge does so (Lambda = D* B_k^-1 A_k D), and stays
    complex elsewhere (Haar pairs) or where some B_k is singular.
    """
    p, _, code = channel_tables(model)
    out = []
    for g in frame.charged:
        a, b, k = g.A, g.B, g.index.shape[1]
        if not (a.imag.any() or b.imag.any()):
            a, b = a.real, b.real
        c = b[:, 0, 0]
        if np.all(c != 0.0) and np.array_equal(b, c[:, None, None] * np.eye(k)):
            v, lam, scale = None, a / c[:, None, None], np.abs(c)
            lam = 0.5 * (lam + lam.conj().swapaxes(-1, -2))
        else:
            w, s, vh = np.linalg.svd(b)
            uniform = np.all((s[:, 0] > 0.0) & (s[:, 0] - s[:, -1] <= s.shape[-1] * np.finfo(float).eps * s[:, 0]))
            keep = s > RANK_RTOL * np.maximum(s[:, :1], np.max(np.abs(a), axis=(1, 2))[:, None])
            r = int(np.max(np.sum(keep, axis=1)))  # s descends: H_k is r x r
            w, s, vh, keep = w[..., :r], s[:, :r], vh[:, :r], keep[:, :r]
            inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
            lam = vh @ a.conj().swapaxes(-1, -2) @ (w * inv_s[:, None, :])
            lam = 0.5 * (lam + lam.conj().swapaxes(-1, -2)) * (keep[:, :, None] & keep[:, None, :])
            v, lam = vh.conj().swapaxes(-1, -2) * keep[:, None, :], lam + np.eye(r) * ~keep[:, None, :]
            if r == k and keep.all():
                lam, v = v @ lam @ v.conj().swapaxes(-1, -2), None
                lam = 0.5 * (lam + lam.conj().swapaxes(-1, -2))
            scale = s[:, 0] if uniform else None
        phase, lam = _quarter_gauge(lam, code[g.index]) if v is None and np.iscomplexobj(lam) else (None, lam)
        charge = model.dimension == 1 and v is None and not p[g.index].any()
        out.append(_Reduced(g, krein._gamma_plan(model, g.index), v, lam, charge,
                            np.min(model.shifts()[code[g.index]], axis=1), scale, phase))
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


def _eigenpairs(h: np.ndarray, lo, up, near: bool = False) -> tuple:
    """Eigenpairs lo[i]..up[i] - 1 of each matrix h[i] of a Hermitian stack; under near, eigenvalues lo[i] - 1..up[i].

    Returns the list of (eigenvalues, eigenvectors), ascending, and the
    list of the wider ranges' eigenvalues (those that exist), or None.
    Matrices above _SMALL_BLOCK channels take those ranges only, one
    scipy subset eigh each: the eigenvectors stay those of lo..up - 1
    alone, as a subset eigh over the wider range could rotate them
    towards a neighbour that is nearly 0 as well. Small ones take one
    stacked eigh for both (faster there).
    """
    wide = list(zip(np.maximum(np.asarray(lo) - 1, 0), np.minimum(np.asarray(up) + 1, h.shape[-1])))
    if h.shape[-1] > _SMALL_BLOCK:
        pairs = [scipy.linalg.eigh(m, subset_by_index=[i, j - 1]) for m, i, j in zip(h, lo, up)]
        return pairs, [scipy.linalg.eigh(m, eigvals_only=True, subset_by_index=[i, j - 1])
                       for m, (i, j) in zip(h, wide)] if near else None
    lam, y = np.linalg.eigh(h)
    pairs = [(lm[i:j], ym[:, i:j]) for lm, ym, i, j in zip(lam, y, lo, up)]
    return pairs, [lm[i:j] for lm, (i, j) in zip(lam, wide)] if near else None


def _crossing(red: list, energy: np.ndarray, blocks: np.ndarray, index: np.ndarray):
    """Eigenvalue index[i] (ascending) of H_k on block blocks[i] at energy[i], and its slope in E.

    With y its unit eigenvector the slope is y* V* Gamma_k'(E) V y =
    -y* V* G_k(E) V y, G = gamma_gram, from the same plan evaluation:
    one paired call, one stacked eigh and one stacked slope per group.
    """
    lam, slope = np.empty(blocks.size), np.empty(blocks.size)
    for rd, at, sel in _groups(red, blocks):
        gamma, gram = rd.plan(energy[at], sel, gram=True, paired=True)
        pairs = _eigenpairs(rd.hermitian(gamma, sel), index[at], index[at] + 1)[0]
        y = np.array([vec[:, 0] for _, vec in pairs])
        vy = y if rd.v is None else (rd.v[sel] @ y[..., None])[..., 0]
        lam[at] = [val[0] for val, _ in pairs]
        slope[at] = -np.real(np.einsum("pi,pij,pj->p", vy.conj(), gram, vy))
    return lam, slope


def _newton(red: list, a: float, b: float, start, blocks, index, tol: float):
    """(root, ahead): roots in (a, b) of eigenvalue index[i] of H_k on blocks[i], every entry stepped at once.

    A block may repeat. root is nan where an entry did not converge in
    _NEWTON_STEPS steps, and ahead then holds its next iterate (nan
    elsewhere). Each entry steps in t = kappa^s, kappa = sqrt(mu_k - E)
    with mu_k its block's own threshold: s = 1 where Gamma grows like
    kappa, and s = -1 where the rows of H_k lie in the d=1 charge layer,
    where Gamma decays like 1/kappa, so the branch is nearly linear in
    t. The sign of each eigenvalue narrows the entry's own bracket, and a
    step that leaves it, or a slope that is not negative, is replaced by
    bisection in kappa. An entry converges when its step is at most
    delta = tol * (1 + |E|), or the next one that quadratic convergence
    predicts from the last two steps is at most delta/4 (half the
    half-width of the window that certifies the root), or when its
    bracket is delta narrow.
    """
    root, ahead, at = np.full(blocks.size, np.nan), np.full(blocks.size, np.nan), np.arange(blocks.size)
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
        else:  # the step cap stopped these
            ahead[at] = x
    return root, ahead


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
        rows = rd.group.index
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
    mu = essential_spectrum_bottom(model)
    if pair.max_abs[1] == 0.0:
        return mu - 10.0  # no bound states
    return _search_floor(model, pair, _reduce(model, pair.frame(model)), _search_top(mu))[0]


def _search_top(mu: float) -> float:
    """The top of the search: GAP below the threshold mu, relative to 1 + |mu|."""
    return mu - GAP * (1.0 + abs(mu))


def _search_floor(model: ModelSpec, pair: BoundaryPair, red: list, top: float) -> tuple:
    """(floor, N at the floor, N at top) per block: default_search_floor on the pair's reduction."""
    mu = essential_spectrum_bottom(model)
    a, b = pair.max_abs
    floor = mu - 10.0 * (1.0 + (4.0 * np.pi * a / b) ** 2)
    limit = _limit(model, red)
    counts, n_top = _count(red, np.array([floor, top]))
    for _ in range(30):
        if counts.sum() <= limit:
            return floor, counts, n_top
        floor = mu - 4.0 * (mu - floor)
        counts = _count(red, floor)
    raise ValueError(f"no certified search floor above {floor:.3e}: the bound-state count "
                     f"did not fall to its limit {limit}")


def _levels(model: ModelSpec, frame: SpinFrame, red: list, found: list, checked: bool) -> list[BoundState]:
    """Bound states at roots bracketed by per-block counts, found = [(energy, n_below, n_above)].

    Every block whose count jumps is dressed at its level's energy, all
    levels at once: one paired plan call and one stacked eigh per group.
    Eigenvalue i of H_k is nonincreasing in E, so those with n_below <= i
    < n_above cross zero: their eigenvectors, mapped back to the defect
    space, span the charges. The smallest singular value of D_J = B_k
    Gamma_k + A_k on the crossing blocks takes one stacked SVD, except in
    a group of B_k = c_k U, U unitary (_Reduced.scale), of a checked pair:
    there D_J = B_k H_k, its singular values c_k |eigenvalues of H_k|; the
    smallest lies among the crossing ones and their two neighbours, i =
    n_below - 1 .. n_above (_eigenpairs). A gauged group's eigenvectors
    map back through its phase D (_quarter_gauge).
    """
    energy = np.array([e for e, _, _ in found])
    lo, up = np.array([n for _, n, _ in found]), np.array([n for _, _, n in found])
    level, blocks = np.nonzero(up > lo)  # level by level, blocks in group order
    sigma, vectors = np.full(energy.size, np.inf), [None] * level.size
    for rd, at, sel in _groups(red, blocks):
        gamma = rd.plan(energy[level[at]], sel, paired=True)[0]
        first, last = lo[level[at], blocks[at]], up[level[at], blocks[at]]
        scaled = checked and rd.scale is not None
        pairs, near = _eigenpairs(rd.hermitian(gamma, sel), first, last, near=scaled)
        if scaled:
            np.minimum.at(sigma, level[at], rd.scale[sel] * [np.min(np.abs(val)) for val in near])
        else:
            dressed = gamma_dressed(BlockGroup(rd.group.index[sel], rd.group.A[sel], rd.group.B[sel]), gamma)
            np.minimum.at(sigma, level[at], np.linalg.svd(dressed, compute_uv=False)[:, -1])
        for i, b, (_, y) in zip(at, sel, pairs):
            y = y if rd.v is None else rd.v[b] @ y
            vectors[i] = np.zeros((y.shape[1], model.defect_dim), dtype=complex)
            vectors[i][:, rd.group.index[b]] = (y if rd.phase is None else rd.phase[b][:, None] * y).T
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
    a bracket, every block whose count jumps there takes Newton steps,
    all blocks at once (_newton): a block of at most _SMALL_BLOCK
    channels on every eigenvalue that crosses zero in the bracket, a
    larger one on its next. Each block starts where its last round left
    it: at the next iterate of its first eigenvalue that the step cap
    stopped, else at its lowest root (the midpoint before any round).
    Roots whose span fits in one window share the window c -+ delta/2,
    delta = tol * (1 + |c|), centred on them; windows never widen, and two
    that overlap are split at one edge between their roots. One count of
    every such block at every window edge certifies them: a window whose
    count jumps is a level whose multiplicity is the jump, and the gaps
    between windows are searched again. Where no block's steps converge,
    the bracket is bisected.
    Counts inside a bracket are clamped into those at its ends and made
    nondecreasing, so the brackets stay nested and the multiplicities
    add up to N(mu - gap) - N(e_min). e_min defaults to
    default_search_floor; a given one must be finite, and tol finite
    and > 0. charge_basis spans the null space of B Gamma(E) + A
    (largest entry of each row real positive); smallest_singular_value
    is that of D_J on the level's blocks (_levels), which is that of
    B Gamma(E) + A where no channel is inert. Under unchecked, a pair
    that is not admissible is counted with the Hermitian part of
    Lambda, and its levels are not certified.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if e_min is not None and not np.isfinite(e_min):
        raise ValueError(f"e_min must be finite, got {e_min}")
    require_valid(model, pair, unchecked)
    if pair.max_abs[1] == 0.0:
        return []  # A q = 0 forces q = 0
    frame = pair.frame(model)
    red = _reduce(model, frame)
    hi = _search_top(essential_spectrum_bottom(model))
    if e_min is None:
        lo, n_lo, n_hi = _search_floor(model, pair, red, hi)
    elif e_min >= hi:
        return []
    else:
        lo = float(e_min)
        n_lo, n_hi = _count(red, np.array([lo, hi]))
    channels = np.concatenate([np.full(len(rd.lam), rd.lam.shape[-1]) for rd in red])  # the size of each H_k
    states, last = [], np.full(channels.size, np.nan)
    stack = [(lo, n_lo, hi, n_hi)]
    while stack:
        a, na, b, nb = stack.pop()
        blocks = np.flatnonzero(nb > na)  # blocks with a root in [a, b]
        mid = 0.5 * (a + b)
        if not blocks.size:
            continue
        if b - a <= tol * (1.0 + abs(mid)) or not a < mid < b:
            states += _levels(model, frame, red, [(mid, na, nb)], not unchecked)
            continue

        # a small block steps on every eigenvalue that crosses zero in [a, b], a larger one on its next;
        # levels cluster, so each block starts where it last stopped or found a root (the midpoint before)
        runs = np.where(channels[blocks] <= _SMALL_BLOCK, nb[blocks] - na[blocks], 1)
        block = np.repeat(blocks, runs)
        index = na[block] + np.arange(block.size) - np.repeat(np.cumsum(runs) - runs, runs)
        start = np.clip(np.where(np.isnan(last[block]), mid, last[block]), a, b)
        roots, ahead = _newton(red, a, b, start, block, index, tol)
        stopped = np.isnan(roots)
        order = np.lexsort((~stopped, block))  # per block, its first stopped entry, else its first root
        first = order[np.unique(block[order], return_index=True)[1]]
        last[block[first]] = np.where(stopped, ahead, roots)[first]
        if stopped.all():
            nm = na.copy()
            nm[blocks] = _count(red, mid, blocks)
            nm = np.clip(nm, na, nb)
            stack += [(mid, nm, b, nb), (a, na, mid, nm)]
            continue
        spans = []  # the lowest and highest root of each window
        for e in np.sort(roots[~stopped]):
            if spans and e - spans[-1][0] <= tol * (1.0 + abs(0.5 * (spans[-1][0] + e))):
                spans[-1][1] = e
            else:
                spans.append([e, e])
        marks, top = [(a, False)], a  # each edge, and whether a window (else a gap) starts there
        for low, high in spans:
            centre = 0.5 * (low + high)
            half = 0.5 * tol * (1.0 + abs(centre))
            left, right = max(a, centre - half), min(b, centre + half)
            if left <= marks[-1][0]:  # it meets a or the last window: one edge between their roots, none widens
                left = min(max(0.5 * (top + low), left), marks.pop()[0])
            marks += [(left, True), (right, False)]
            top = high
        edges = np.array([x for x, _ in marks] + [b])
        inner = (edges > a) & (edges < b)
        counts = np.tile(na, (edges.size, 1))
        counts[np.ix_(inner, blocks)] = _count(red, edges[inner], blocks)
        counts[edges >= b] = nb
        counts = np.maximum.accumulate(np.clip(counts, na, nb), axis=0)
        found, gaps = [], []
        for k, (_, inside) in enumerate(marks):
            if not inside:
                gaps.append((edges[k], counts[k], edges[k + 1], counts[k + 1]))
            elif np.any(counts[k + 1] > counts[k]):
                found.append((0.5 * (edges[k] + edges[k + 1]), counts[k], counts[k + 1]))
        states += _levels(model, frame, red, found, not unchecked) if found else []
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
