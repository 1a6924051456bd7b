"""Time evolution: closed-form free propagation and the spectral route.

Conventions: hbar = 1, 2m = 1, so the free propagator kernel is
(4 pi i t)^(-d/2) exp(i|x - x'|^2 / (4t)) and a packet with momentum k
travels at group velocity 2k. Each spin channel additionally acquires
the Zeeman phase exp(-i (alpha . sigma) t).

The resolvent of an admissible pair is R(z) = R0(z) + Phi(z) C(z) s(z)
on a state, with C = (B Gamma + A)^{-1} B and s the defect overlaps, so
Stone's formula splits the interacting evolution into three parts:

    Psi(t) = e^{-i H0 t} Psi + sum_b e^{-i E_b t} <phi_b, Psi> phi_b
        + (1/pi) Integral_mu^lam_max e^{-i lam t} Im[Phi C s](lam + i0) dlam.

The free motion is the closed form below; the bound states lie below
the continuum threshold mu, where the defect functions are real and
their overlaps and Gram matrix are closed forms; only the rank-m
correction is integrated, on the cut. Only its upper side is dressed:
for a self-adjoint pair C(conj z) = C(z)*, so lam - i0 takes the adjoint
of the dressing at lam + i0. A grid only samples the result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy

from .boundary import BoundaryPair, require_valid
from .krein import (_defect_factors, _defect_overlaps_gaussian, _dress_gamma, _frame_plans, _require_match,
                    gamma_gram)
from .spectral import eigenfunction_eval, essential_spectrum_bottom, find_bound_states
from .spins import ModelSpec
from .states import GaussianComponent, GaussianPacket, GridState, UniformGrid

__all__ = [
    "free_evolve",
    "evolve_spectral",
    "EvolveResult",
    "spectral_defaults",
]

ETA = 1e-12  # distance from the cut at which the correction is evaluated
MIN_PANEL_NODES = 8
_CHUNK_ELEMENTS = 2**15  # complex entries of one cut stack: its site waves, or its dressing's m x m matrices


def _evolve_component(g: GaussianComponent, t: float, phase: complex) -> GaussianComponent:
    """Free evolution of one Gaussian; exact within the complex-variance family.

    variance -> variance + i t, center -> center + 2 k t, and the weight
    picks up sqrt(v/(v + i t))^d, the phase e^{+i k.k t} carried by the
    moving-center parametrization and the channel's Zeeman phase.
    """
    v = g.variance
    vt = v + 1j * t
    root = np.sqrt(v / vt)  # both in the right half plane, principal branch
    d = g.dimension
    k2 = float(np.dot(g.momentum, g.momentum))
    weight = g.weight * root**d * np.exp(1j * k2 * t) * phase
    return GaussianComponent(g.center + 2.0 * t * g.momentum, g.momentum, vt, weight)


def free_evolve(model: ModelSpec, packet: GaussianPacket, t: float) -> GaussianPacket:
    """Closed-form evolution under the free pair (no point interaction).

    Exactly unitary and exactly compositional: evolving by t1 then t2
    equals evolving by t1 + t2 to rounding.
    """
    _require_match(model, packet)
    phases = np.exp(-1j * model.shifts() * t)
    evolved = {code: [_evolve_component(g, t, phases[code]) for g in comps]
               for code, comps in enumerate(packet.components)}
    return GaussianPacket(model.dimension, packet.n_channels, evolved)


def _kinetic_scale(packet: GaussianPacket) -> float:
    """Characteristic kinetic energy: max over components of (|k| + 4 dk)^2.

    dk = 1/(2 sqrt(Re v)) is the momentum spread of a component; four
    spreads beyond the carrier covers the spectral weight to ~1e-14.
    """
    scale = 0.0
    for comps in packet.components:
        for g in comps:
            dk = 1.0 / (2.0 * np.sqrt(g.variance.real))
            scale = max(scale, (float(np.linalg.norm(g.momentum)) + 4.0 * dk) ** 2)
    return max(scale, 1.0)


def spectral_defaults(model: ModelSpec, packet: GaussianPacket) -> dict:
    """Documented default parameters of the spectral evolution."""
    mu = essential_spectrum_bottom(model)
    return {"n_nodes": 2048, "lam_max": mu + 40.0 * _kinetic_scale(packet)}


@functools.lru_cache(maxsize=16)  # Gauss-Legendre nodes and weights on [-1, 1], read-only and shared
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = scipy.special.roots_legendre(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _cut_nodes(model: ModelSpec, n_nodes: int, lam_max: float):
    """Gauss-Legendre nodes and weights on the continuum [mu, lam_max].

    The window is split at every distinct channel threshold below
    lam_max; each has a square-root behaviour on both sides. The last
    panel [a, lam_max] is mapped by lam = a + u^2, an interior panel
    [a, b] by lam = a + (b - a) sin^2(theta), whose Jacobian vanishes at
    both ends. Panel k gets round(n_nodes sqrt(w_k) / sum_i sqrt(w_i))
    nodes for the widths w, at least MIN_PANEL_NODES. The Gauss-Legendre
    rule is scipy's roots_legendre, O(n^2), cached per node count (_legendre).
    """
    edges = model.distinct_shifts()[0]
    edges = np.append(edges[edges < lam_max], lam_max)
    root = np.sqrt(np.diff(edges))
    counts = np.maximum(MIN_PANEL_NODES, np.rint(n_nodes * root / np.sum(root)).astype(int))
    lam, wts = [], []
    for k, n in enumerate(counts):
        x, w = _legendre(int(n))
        a, b = edges[k], edges[k + 1]
        if k == counts.size - 1:
            u = root[k] * (x + 1.0) / 2.0
            lam.append(a + u * u)
            wts.append(root[k] * u * w)  # 2u du, du = root w / 2
        else:
            theta = np.pi * (x + 1.0) / 4.0
            lam.append(a + (b - a) * np.sin(theta) ** 2)
            wts.append((b - a) * np.sin(2.0 * theta) * np.pi * w / 4.0)
    return np.concatenate(lam), np.concatenate(wts)


def _cut_correction(model: ModelSpec, pair: BoundaryPair, packet: GaussianPacket, times: np.ndarray,
                    grid: UniformGrid, lam: np.ndarray, wts: np.ndarray, unchecked: bool) -> np.ndarray:
    """(1/pi) sum_k w_k e^{-i lam_k t} Im[Phi C s](lam_k + i0) on the grid, for every t.

    Im f(lam + i0) is (f(lam + i ETA) - f(lam - i ETA)) / 2i, and only
    z = lam + i ETA is dressed: for a self-adjoint pair C(conj z) = C(z)*
    and Phi^{conj z} = conj Phi^z exactly, so nothing is formed at lam -
    i ETA but the packet's overlaps s(conj z). Two loops, each holding at
    most _CHUNK_ELEMENTS complex entries at a time and at least one lam.
    The first dresses the nodes z in stacks, counted as four m x m
    matrices per node (Gamma, the dressed matrix, its SVD copy and the
    solution): Gamma is one stack per block group of the pair's spin frame
    (krein._frame_plans, planned once per call), and a stack takes one
    dressing call, with one SVD, condition number and solve per node. It
    fills the charges C(z) s(z) and C(z)* s(conj z) of every node. The
    second forms the site waves exp(i s r), one per (lam, site, distinct
    shift, point), at z in chunks of nodes and conjugates them for the
    lower side. The weights w_k e^{-i lam_k t} (+-1/2i) / pi fold into the
    charges, the lower side's conjugated, so per distinct shift a chunk's
    sum is one batched matmul.
    """
    require_valid(model, pair, unchecked)
    n_sites, n_codes, m = model.n_spins, model.n_configs, model.defect_dim
    levels, level = model.distinct_shifts()
    z = lam + 1j * ETA
    charges = np.empty((lam.size, 2, m), dtype=complex)
    plans = _frame_plans(model, pair.frame(model))
    step = max(1, _CHUNK_ELEMENTS // (4 * m * m))
    for lo in range(0, lam.size, step):
        zs = z[lo:lo + step]
        dress = _dress_gamma(model, pair, zs, [plan(zs)[0] for _, plan in plans])
        s = _defect_overlaps_gaussian(model, np.concatenate([zs, zs.conj()]), packet)
        charges[lo:lo + step, 0] = dress.charges(s[:zs.size])
        charges[lo:lo + step, 1] = dress.charges(s[zs.size:], adjoint=True)
    weights = np.exp(-1j * np.outer(times, lam)) * wts / np.pi
    coef = weights[:, :, None, None, None, None] * (np.array([1.0, -1.0]) / 2j)[:, None, None, None]
    step = max(1, _CHUNK_ELEMENTS // (levels.size * n_sites * grid.n_points))
    out = np.zeros((times.size, n_codes, grid.n_points), dtype=complex)
    for lo in range(0, lam.size, step):
        scale, wave, layer, _ = _defect_factors(model, z[lo:lo + step], grid.points)
        n = wave.shape[0]
        # q[t, k, side, p, j, c]: the flat defect index is (layer p, site j, code c) in C order
        q = coef[:, lo:lo + step] * charges[lo:lo + step].reshape(n, 2, -1, n_sites, n_codes)
        np.conj(q[:, :, 1], out=q[:, :, 1])
        q = (q * (scale[:, None, ..., level, 0] if model.dimension == 1 else scale)).transpose(4, 5, 0, 2, 3, 1)
        for lv in range(levels.size):
            codes = np.flatnonzero(level == lv)
            # per site: (codes x times x sides x layers, nodes) @ (nodes, grid points)
            summed = np.matmul(q[:, codes].reshape(n_sites, -1, n), wave[:, 0, :, lv].transpose(1, 0, 2))
            summed = summed.reshape(n_sites, codes.size, times.size, 2, -1, grid.n_points)
            summed = summed[:, :, :, 0] + summed[:, :, :, 1].conj()
            out[:, codes] += np.einsum("jctpx,pjx->tcx", summed, layer[:, :, 0])
        del wave  # freed before the next chunk's waves are formed
    return out


@dataclass
class EvolveResult:
    state: GridState
    times: np.ndarray
    states: list[GridState]
    norm_initial: float
    norms: np.ndarray
    error_estimate: float
    bound_energies: np.ndarray
    params: dict


def evolve_spectral(model: ModelSpec, pair: BoundaryPair, packet: GaussianPacket, times,
                    grid: UniformGrid, n_nodes: int | None = None, drift_tol: float = 1e-2,
                    unchecked: bool = False) -> EvolveResult:
    """Evolve a packet under the dressed Hamiltonian at the given times.

    The free motion is free_evolve sampled on the grid. Each bound level
    adds its projection with phase e^{-i E t}: the level's charge basis
    q is orthonormalised against the exact Gram matrix -Gamma'(E) of the
    real defect functions (Cholesky factor of q* G q), and <phi, psi> is
    the conjugate charges against the closed-form overlaps s(E). The
    continuum adds (1/pi) int e^{-i lam t} Im[correction] dlam on the
    nodes of _cut_nodes, the correction at lam +- i ETA being Phi(z) on
    the grid times the closed-form charges of the packet. The grid only
    samples: no state is applied or projected on it. times is one time or
    a non-empty 1-D sequence of finite times, checked before any work
    (ValueError). The error estimate is the absolute drift |norm(t) -
    norm0| of the grid norm at the largest |t|; drift_tol bounds it
    relative to norm0, so drift beyond drift_tol * norm0 raises. lam_max
    comes from spectral_defaults and the bound-state search starts at its
    certified floor; params records the node count used and lam_max.
    """
    try:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        valid = times.ndim == 1 and times.size > 0 and bool(np.all(np.isfinite(times)))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValueError("times must be one finite number or a non-empty 1-D sequence of them")
    defaults = spectral_defaults(model, packet)
    n_nodes = defaults["n_nodes"] if n_nodes is None else int(n_nodes)
    lam_max = defaults["lam_max"]
    norm0 = packet.sample(grid).norm()
    values = np.stack([free_evolve(model, packet, float(t)).sample(grid).values for t in times])

    bound = find_bound_states(model, pair, unchecked=unchecked)
    for bs in bound:
        q = bs.charge_basis
        chol = np.linalg.cholesky(q.conj() @ gamma_gram(model, bs.energy) @ q.T)
        charges = np.linalg.solve(chol.conj(), q)
        coef = charges.conj() @ _defect_overlaps_gaussian(model, complex(bs.energy), packet)
        proj = eigenfunction_eval(model, bs.energy, coef @ charges, grid.points)
        values += np.exp(-1j * bs.energy * times)[:, None, None] * proj

    lam, wts = _cut_nodes(model, n_nodes, lam_max)
    if pair.entries.B.any():  # a pair with B = 0 has no correction
        values += _cut_correction(model, pair, packet, times, grid, lam, wts, unchecked)

    states = [GridState(model.dimension, v, grid) for v in values]
    norms = np.array([st.norm() for st in states])
    worst = int(np.argmax(np.abs(times)))
    drift = float(abs(norms[worst] - norm0))
    if not drift <= drift_tol * max(norm0, 1e-30):  # a NaN drift or tolerance fails too
        raise RuntimeError(f"norm drift {drift:.3e} exceeds tolerance {drift_tol:.1e}")
    return EvolveResult(
        state=states[-1],
        times=times,
        states=states,
        norm_initial=norm0,
        norms=norms,
        error_estimate=max(drift, 1e-15),
        bound_energies=np.array([bs.energy for bs in bound]),
        params={"n_nodes": int(lam.size), "lam_max": lam_max},
    )
