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
of the dressing at lam + i0. The defect functions are Green functions
centred at the sites, so the correction depends on a grid point only
through its distances to the sites: the nodes are summed on one table of
radii per distinct Zeeman shift, and every site samples its grid points
from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy

from .boundary import BoundaryPair, require_valid
from .greens import sqrt_upper
from .krein import _defect_overlaps_gaussian, _dress_gamma, _gamma_plan, _require_match, gamma_gram
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
# entries of one cut stack: a chunk of nodes' wave table or their dressings' r x r matrices, or the d=3
# interpolation rows of a chunk of grid points
_CHUNK_ELEMENTS = 2**15


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


def _ladder(model: ModelSpec, grid: UniformGrid):
    """The d=1 radial table: (step, length, offset, index).

    Right of site j the grid's distances are offset[0, j] + m step, and
    left of it offset[1, j] + m step, m = 0, 1, ...: one ladder of length
    radii, the most grid points on one side of a site, serves every site
    and side. index[j, n] is point n's entry in the flat (side, site, m)
    table, or 2 N length + j for a point on site j, where the dipole
    layer is 0. step is the mean spacing, so a ladder radius is
    |x_n - y_j| to rounding when x_n = x_0 + n h, as on every np.linspace
    axis. On another axis that UniformGrid admits (each step within
    1e-12 relative of the first) a radius is off by at most about 2e-12
    times the axis length, and the wave exp(i s r) by |s| times that.
    """
    n_sites, x = model.n_spins, grid.points
    disp = x - model.positions[:, None]
    sides = (disp > 0.0, disp < 0.0)
    length = max(int(np.count_nonzero(side, axis=1).max()) for side in sides)
    offset = np.zeros((2, n_sites))
    index = np.empty(disp.shape, dtype=np.intp)
    for g, side in enumerate(sides):
        for j in range(n_sites):
            at = np.flatnonzero(side[j])
            if at.size:
                near = at[np.argmin(np.abs(disp[j, at]))]
                offset[g, j] = abs(disp[j, near])
                index[j, at] = (g * n_sites + j) * length + np.abs(at - near)
    on_site = np.nonzero(disp == 0.0)
    index[on_site] = 2 * n_sites * length + on_site[0]
    return abs(x[-1] - x[0]) / (x.size - 1), length, offset, index


def _ladder_waves(s: np.ndarray, step: float, length: int) -> np.ndarray:
    """exp(i s m step) for m < length, per s: a coarse table exp(i s step fine a) times a fine one exp(i s step b).

    With fine about sqrt(length), a node takes about 2 sqrt(length) exps,
    not length; every factor has modulus at most 1, as Im s >= 0. The
    table is a view of the first length columns of the full product.
    """
    fine = int(np.ceil(np.sqrt(length)))
    coarse = np.exp(1j * s[:, None] * (step * fine * np.arange(-(-length // fine))))
    waves = coarse[:, :, None] * np.exp(1j * s[:, None] * (step * np.arange(fine)))[:, None, :]
    return waves.reshape(s.size, -1)[:, :length]


def _chebyshev_radii(model: ModelSpec, grid: UniformGrid, s_max: float):
    """The d=3 radial table: (nodes, mid, half), n_r Chebyshev points of the second kind on [-1, 1] for r in [lo, hi].

    [lo, hi] holds every distance from a site to a grid point, read off
    the tensor grid's axes per site. On it exp(i s r) is exp(i s mid)
    exp(i s half u) in u = (r - mid) / half, whose Chebyshev coefficients
    are 2 i^n J_n(s half) (Jacobi-Anger). The largest |s| of the cut,
    s_max, sets the bandwidth: n_r is one past the last order at which
    2 |J_n(s_max half)| exceeds the rounding unit, where the series of the
    least smooth wave is chopped (Aurentz and Trefethen, "Chopping a
    Chebyshev series", 2017). Orders past 2 omega + 100 need no look:
    there |J_n(omega)| <= (omega/2)^n / n! < (e/4)^n. A grid node on a site
    raises ValueError, as the pointwise defect functions do.
    """
    near = [np.sqrt(sum(float(np.min((ax - y) ** 2)) for ax, y in zip(grid.axes, pos))) for pos in model.positions]
    far = [np.sqrt(sum(float(np.max((ax - y) ** 2)) for ax, y in zip(grid.axes, pos))) for pos in model.positions]
    if min(near) == 0.0:
        raise ValueError("evaluation point coincides with a spin site")
    mid, half = (min(near) + max(far)) / 2.0, (max(far) - min(near)) / 2.0
    omega = s_max * half
    coefs = 2.0 * np.abs(scipy.special.jv(np.arange(int(2.0 * omega) + 100), omega))
    n_r = 1 + int(np.flatnonzero(coefs > np.finfo(float).eps)[-1])
    return np.cos(np.pi * np.arange(n_r) / max(n_r - 1, 1)), mid, half


def _interpolate(model: ModelSpec, grid: UniformGrid, nodes: np.ndarray, mid: float, half: float,
                 table: np.ndarray) -> np.ndarray:
    """sum_j F_j(r_j(x)) / (4 pi r_j(x)) on the grid, F_j at the radii mid + half nodes: table (T, C, N, n_r) -> (T, C, P).

    Each site's barycentric interpolation matrix (Trefethen, ATAP ch. 5;
    weights (-1)^i, halved at the ends) takes the factor 1/(4 pi r_j) into
    its rows, and is built in chunks of grid points of at most
    _CHUNK_ELEMENTS entries. The table's real and imaginary parts are
    interpolated together, as one real matrix product per chunk.
    """
    n_t, n_codes = table.shape[:2]
    n_r = nodes.size
    bary = (-1.0) ** np.arange(n_r)
    bary[[0, -1]] *= 0.5
    columns = np.ascontiguousarray(table.transpose(2, 3, 0, 1).reshape(-1, n_t * n_codes)).view(float)
    out = np.empty((n_t, n_codes, grid.n_points), dtype=complex)
    step = max(1, _CHUNK_ELEMENTS // (model.n_spins * n_r))
    for lo in range(0, grid.n_points, step):
        r = np.linalg.norm(grid.points[None, lo:lo + step] - model.positions[:, None], axis=-1)
        diff = ((r - mid) / (half or 1.0))[..., None] - nodes
        hit = diff == 0.0
        rows = bary / np.where(hit, 1.0, diff)
        rows = np.where(hit.any(axis=-1, keepdims=True), hit, rows)
        rows /= (rows.sum(axis=-1) * (4.0 * np.pi * r))[..., None]
        summed = rows.transpose(1, 0, 2).reshape(r.shape[1], -1) @ columns
        out[..., lo:lo + step] = summed.view(complex).T.reshape(n_t, n_codes, -1)
    return out


def _cut_correction(model: ModelSpec, pair: BoundaryPair, packet: GaussianPacket, times: np.ndarray,
                    grid: UniformGrid, lam: np.ndarray, wts: np.ndarray):
    """(1/pi) sum_k w_k e^{-i lam_k t} Im[Phi C s](lam_k + i0) on the grid, for every t; and the table's radii.

    Im f(lam + i0) is (f(lam + i ETA) - f(lam - i ETA)) / 2i, and only
    z = lam + i ETA is dressed: for a self-adjoint pair C(conj z) = C(z)*
    and Phi^{conj z} = conj Phi^z exactly, so nothing is formed at lam -
    i ETA but the packet's overlaps s(conj z). Two loops, each holding at
    most _CHUNK_ELEMENTS complex entries at a time and at least one lam.
    The first dresses the nodes z in stacks, counted as four matrices per
    node and charged block (Gamma, the dressed matrix, the solution and
    its rescaled copy or the inverse, each r x r): Gamma is one stack per
    group of the charged blocks of the pair's spin frame (krein._dress,
    planned once per call), and a stack takes one dressing call, with one
    solve and condition bound per node. It fills the charges C(z) s(z)
    and C(z)* s(conj z) of every node, 0 on the inert channels.

    The second sums the nodes on radial tables: per distinct shift a_l,
    with s = sqrt_upper(z - a_l), F(r) = sum_k q_k e^{i s_k r} is one
    matrix product of the charges onto the waves of a chunk of nodes at
    the table's radii. The weights w_k e^{-i lam_k t} (+-1/2i) / pi fold
    into the charges, the lower side's conjugated, and its sum is
    conjugated on the table. In d=1 the radii are the grid's ladder
    (_ladder); each site's offsets, the charge layer's i/(2 s) and the
    dipole layer's -sgn(x - y_j)/2 fold into the charges too, each grid
    point takes its entry of its site and side, and a point on a site the
    charge layer's sum at r = 0. In d=3 they are Chebyshev points
    (_chebyshev_radii) that each site interpolates (_interpolate). The
    pair is checked by the caller.
    """
    n_sites, n_codes, m = model.n_spins, model.n_configs, model.defect_dim
    levels, level = model.distinct_shifts()
    z = lam + 1j * ETA
    s = sqrt_upper(z[:, None] - levels)  # per node and distinct shift
    if model.dimension == 1:
        ladder, n_r, offset, index = _ladder(model, grid)
        sides, layers = 2, 2
    else:
        nodes, mid, half = _chebyshev_radii(model, grid, float(np.max(np.abs(s))))
        radii, n_r, sides, layers = mid + half * nodes, nodes.size, 1, 1
    charges = np.empty((lam.size, 2, m), dtype=complex)
    charged = pair.frame(model).charged
    plans = [_gamma_plan(model, g.index) for g in charged]
    step = max(1, _CHUNK_ELEMENTS // (4 * sum(g.index.size * g.index.shape[1] for g in charged)))
    for lo in range(0, lam.size, step):
        zs = z[lo:lo + step]
        dress = _dress_gamma(model, pair, zs, [plan(zs)[0] for plan in plans])
        overlaps = _defect_overlaps_gaussian(model, np.concatenate([zs, zs.conj()]), packet)
        charges[lo:lo + step, 0] = dress.charges(overlaps[:zs.size])
        charges[lo:lo + step, 1] = dress.charges(overlaps[zs.size:], adjoint=True)
    coef = np.exp(-1j * np.outer(times, lam)) * wts / np.pi
    # sums[side, t, cut side, j, c, radius]; on_site[t, cut side, j, c]: the d=1 charge layer at r = 0
    sums = np.zeros((sides, times.size, 2, n_sites, n_codes, n_r), dtype=complex)
    on_site = np.zeros((times.size, 2, n_sites, n_codes), dtype=complex)
    step = max(1, _CHUNK_ELEMENTS // n_r)
    halves = (np.array([0.5, -0.5]) / 1j)[:, None, None, None, None]  # (+-1/2i) per cut side
    for lo in range(0, lam.size, step):
        n = min(step, lam.size - lo)
        # [cut side, p, j, c, k]: the flat defect index is (layer p, site j, code c) in C order
        chunk = charges[lo:lo + step].reshape(n, 2, layers, n_sites, n_codes).transpose(1, 2, 3, 4, 0)
        weights = coef[:, None, None, None, None, lo:lo + step]
        for lv in range(levels.size):
            codes = np.flatnonzero(level == lv)
            sk = s[lo:lo + step, lv]
            q = chunk[..., codes, :] * halves * weights  # [t, cut side, p, j, c, k]
            np.conj(q[:, 1], out=q[:, 1])
            if model.dimension == 1:
                charge, dipole = q[:, :, 0] * (0.5j / sk), q[:, :, 1]
                on_site[..., codes] += charge.sum(axis=-1)
                # right of a site the dipole layer is -1/2, left of it +1/2
                folded = np.stack([charge - 0.5 * dipole, charge + 0.5 * dipole])
                folded *= np.exp(1j * offset[:, None, None, :, None, None] * sk)
                waves = _ladder_waves(sk, ladder, n_r)
            else:
                folded, waves = q[None, :, :, 0], 1j * sk[:, None] * radii
                np.exp(waves, out=waves)
            summed = folded.reshape(-1, n) @ waves
            del waves  # freed before the next level's table is formed
            sums[..., codes, :] += summed.reshape(sides, times.size, 2, n_sites, codes.size, n_r)
    table = sums[:, :, 0] + sums[:, :, 1].conj()  # [side, t, j, c, radius]
    if model.dimension == 3:
        return _interpolate(model, grid, nodes, mid, half, table[0].transpose(0, 2, 1, 3)), n_r
    table = np.concatenate([table.transpose(1, 3, 0, 2, 4).reshape(times.size, n_codes, -1),
                            (on_site[:, 0] + on_site[:, 1].conj()).transpose(0, 2, 1)], axis=-1)
    return table[..., index].sum(axis=-2), n_r


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
    samples: no state is applied or projected on it. The pair (unless
    unchecked; ValidationError) and times, one time or a non-empty 1-D
    sequence of finite times (ValueError), are checked before any work.
    The error estimate is the absolute drift |norm(t) - norm0| of the
    grid norm at the largest |t|; drift_tol bounds it relative to norm0,
    so drift beyond drift_tol * norm0 raises. lam_max comes from
    spectral_defaults and the bound-state search starts at its certified
    floor; params records the node count used, lam_max, and n_radii, the
    number of radii in the table every site samples the correction from
    (_cut_correction): in d=3 the Chebyshev count n_r, chosen from the
    largest |s| of the cut and the spread of site-to-grid distances; in
    d=1 the ladder's length, the most grid points on one side of a site.
    It is 0 for a pair with B = 0, which has no correction.
    """
    require_valid(model, pair, unchecked)
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
    n_radii = 0
    if pair.max_abs[1] > 0.0:  # a pair with B = 0 has no correction
        correction, n_radii = _cut_correction(model, pair, packet, times, grid, lam, wts)
        values += correction

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
        params={"n_nodes": int(lam.size), "lam_max": lam_max, "n_radii": n_radii},
    )
