"""Time evolution: closed-form free propagation and the spectral route.

Conventions: hbar = 1, 2m = 1, so the free propagator kernel is
(4 pi i t)^(-d/2) exp(i|x - x'|^2 / (4t)) and a packet with momentum k
travels at group velocity 2k. Each spin channel additionally acquires
the Zeeman phase exp(-i (alpha . sigma) t).

The interacting evolution is reconstructed from boundary values of the
resolvent (a limiting-absorption form of the spectral theorem):

    Psi(t) ~= sum_b e^{-i E_b t} <phi_b, Psi> phi_b
        + (1/pi) Integral e^{-i lam t} Im[R(lam + i eps)] Psi dlam

over a window [mu - margin, lam_max]. Smearing the spectral measure
with a width-eps Lorentzian damps every component by exactly
e^{-eps |t|}, so the continuum integral is compensated by e^{+eps |t|}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryPair
from .krein import apply_resolvent
from .spectral import eigenfunction_eval, essential_spectrum_bottom, find_bound_states
from .spins import ModelSpec
from .states import GaussianComponent, GaussianPacket, GridState, UniformGrid

__all__ = [
    "free_evolve",
    "evolve_spectral",
    "EvolveResult",
    "spectral_defaults",
]


def _evolve_component(g: GaussianComponent, t: float) -> GaussianComponent:
    """Free evolution of one Gaussian; exact within the complex-variance family.

    variance -> variance + i t, center -> center + 2 k t, and the weight
    picks up sqrt(v/(v + i t))^d and the phase e^{+i k.k t} carried by
    the moving-center parametrization.
    """
    v = g.variance
    vt = v + 1j * t
    root = np.sqrt(v / vt)  # both in the right half plane, principal branch
    d = g.dimension
    k2 = float(np.dot(g.momentum, g.momentum))
    weight = g.weight * root**d * np.exp(1j * k2 * t)
    return GaussianComponent(g.center + 2.0 * t * g.momentum, g.momentum, vt, weight)


def free_evolve(model: ModelSpec, packet: GaussianPacket, t: float) -> GaussianPacket:
    """Closed-form evolution under the free pair (no point interaction).

    Exactly unitary and exactly compositional: evolving by t1 then t2
    equals evolving by t1 + t2 to rounding.
    """
    if packet.dimension != model.dimension or packet.n_channels != model.n_configs:
        raise ValueError("packet does not match the model")
    shifts = model.shifts()
    evolved = {}
    for code, comps in enumerate(packet.components):
        phase = np.exp(-1j * shifts[code] * t)
        out = []
        for g in comps:
            ge = _evolve_component(g, t)
            out.append(GaussianComponent(ge.center, ge.momentum, ge.variance, ge.weight * phase))
        evolved[code] = out
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
    return {
        "eps": 1e-3 * (1.0 + abs(mu)),
        "n_nodes": 2048,
        "lam_max": mu + 40.0 * _kinetic_scale(packet),
        "margin": 1.0 + abs(mu) * 0.1,
    }


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
                    grid: UniformGrid, eps: float | None = None, n_nodes: int | None = None,
                    lam_max: float | None = None, margin: float | None = None,
                    e_min: float | None = None, drift_tol: float = 1e-2,
                    unchecked: bool = False) -> EvolveResult:
    """Evolve a packet under the dressed Hamiltonian at the given times.

    The packet is sampled on the grid; bound states found below the
    continuum are propagated by explicit phases, the continuum by a
    trapezoidal window integral of the smeared spectral density built
    from resolvent boundary values at lam +- i eps. The norm drift at
    the largest |t| serves as the reported error estimate; drift beyond
    drift_tol raises.
    """
    defaults = spectral_defaults(model, packet)
    eps = defaults["eps"] if eps is None else float(eps)
    n_nodes = defaults["n_nodes"] if n_nodes is None else int(n_nodes)
    lam_max = defaults["lam_max"] if lam_max is None else float(lam_max)
    margin = defaults["margin"] if margin is None else float(margin)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    mu = essential_spectrum_bottom(model)

    initial = packet.sample(grid)
    norm0 = initial.norm()

    # discrete part
    bound = find_bound_states(model, pair, e_min=e_min, unchecked=unchecked)
    bound_kept = []
    bound_fields = []
    bound_coef = []
    for bs in bound:
        group: list[np.ndarray] = []
        for charges in bs.charge_basis:
            field = eigenfunction_eval(model, bs.energy, charges, grid.points)
            phi = GridState(model.dimension, field, grid)
            raw = phi.norm()
            if raw == 0.0:
                continue
            # orthogonalize within the degenerate group so the spectral
            # projection does not double count overlapping directions
            for prev in group:
                ov = GridState(model.dimension, prev, grid).inner(phi)
                phi = GridState(model.dimension, phi.values - ov * prev, grid)
            nrm = phi.norm()
            if nrm <= 1e-8 * raw:
                continue
            phi = GridState(model.dimension, phi.values / nrm, grid)
            group.append(phi.values)
            bound_kept.append(bs)
            bound_fields.append(phi)
            bound_coef.append(phi.inner(initial))

    # continuum part: trapezoid of e^{-i lam t} Im R(lam + i eps) Psi.
    # The quadratic node map lam = mu + sign(kap) kap^2 clusters nodes at
    # the band edge, where the 1d density behaves like 1/sqrt(lam - mu),
    # and its Jacobian 2|kap| cancels exactly that blowup. Bound-state
    # poles sit inside the window as width-eps Lorentzians; a coarse
    # grid aliases them, so their known residues are subtracted from
    # every sample (the discrete sum restores them exactly).
    kap = np.linspace(-np.sqrt(margin), np.sqrt(max(lam_max - mu, 1e-12)), n_nodes)
    lam = mu + np.sign(kap) * kap**2
    wts = np.full(n_nodes, kap[1] - kap[0])
    wts[0] *= 0.5
    wts[-1] *= 0.5
    wts = wts * 2.0 * np.abs(kap)
    im_fields = np.zeros((n_nodes, model.n_configs, grid.n_points), dtype=complex)
    for i, lam_i in enumerate(lam):
        up = apply_resolvent(model, pair, lam_i + 1j * eps, initial, unchecked=unchecked)
        dn = apply_resolvent(model, pair, lam_i - 1j * eps, initial, unchecked=unchecked)
        im_fields[i] = (up.values - dn.values) / 2j
        for coef, phi, bs in zip(bound_coef, bound_fields, bound_kept):
            spike = eps / ((lam_i - bs.energy) ** 2 + eps**2)
            im_fields[i] -= spike * coef * phi.values

    states: list[GridState] = []
    norms = np.empty(times.size)
    for ti, t in enumerate(times):
        phases = np.exp(-1j * lam * t) * wts
        cont = np.tensordot(phases, im_fields, axes=(0, 0)) / np.pi
        total = cont * np.exp(eps * abs(t))
        for coef, phi, bs in zip(bound_coef, bound_fields, bound_kept):
            total = total + coef * np.exp(-1j * bs.energy * t) * phi.values
        st = GridState(model.dimension, total, grid)
        states.append(st)
        norms[ti] = st.norm()

    worst = int(np.argmax(np.abs(times)))
    drift = float(abs(norms[worst] - norm0))
    if drift > drift_tol * max(norm0, 1e-30):
        raise RuntimeError(f"norm drift {drift:.3e} exceeds tolerance {drift_tol:.1e}")
    return EvolveResult(
        state=states[-1],
        times=times,
        states=states,
        norm_initial=norm0,
        norms=norms,
        error_estimate=max(drift, 1e-15),
        bound_energies=np.array([bs.energy for bs in bound]),
        params={"eps": eps, "n_nodes": n_nodes, "lam_max": lam_max, "margin": margin},
    )
