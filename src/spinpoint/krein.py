"""Resolvent of the dressed Hamiltonian via the finite defect correction.

For spectral parameter z off the spectrum, the resolvent of the
interacting operator differs from the free one by a rank-m correction
built from the defect functions Phi^z_mu (Green functions, and their
derivative layer in d=1, attached to the spin sites):

    K(x, s; x', s') = delta_{s s'} G^{z - a.s}(x - x')
        + sum_{mu,nu} Phi^z_mu(x, s) [(B Gamma(z) + A)^{-1} B]_{mu nu} Phi^z_nu(x', s')

where Gamma(z) collects boundary values of the defect functions. The
identity conj(Phi^{conj z}) = Phi^z is used throughout to fold the
adjoint-side factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .boundary import BoundaryPair, SpinFrame, require_valid
from .greens import _check_energy, green, sqrt_upper
from .spins import ModelSpec, channel_blocks, channel_sum, channel_tables, spin_code
from .states import GaussianPacket, GridState, UniformGrid

__all__ = [
    "NearPoleError",
    "gamma_free",
    "gamma_gram",
    "gamma_dressed",
    "invert_dressed",
    "defect_matrix",
    "resolvent_kernel",
    "kernel_evaluator",
    "apply_resolvent",
    "resolvent_state_evaluator",
    "extract_boundary_data",
    "boundary_data_from_evaluator",
    "verify_boundary_conditions",
]

CONDITION_LIMIT = 1e12

_CHARGE = np.array([True, False]).reshape(2, 1, 1, 1)  # the d=1 layer axis of _defect_factors


class NearPoleError(ArithmeticError):
    """The dressed channel matrix is numerically singular at this z."""

    def __init__(self, z, smallest_singular_value, condition):
        self.z = z
        self.smallest_singular_value = smallest_singular_value
        self.condition = condition
        super().__init__(
            f"channel matrix near-singular at z={z}: smallest singular value "
            f"{smallest_singular_value:.3e}, condition {condition:.3e}"
        )


def _gamma_plan(model: ModelSpec, index):
    """Gamma(z) on a (g, k, k) stack of index blocks, planned once: plan(z, sel=None, gram=False, paired=False).

    The plan holds the site distances and one flat index of each block
    entry into the (shift level, p, p', j, j') layer table, whose extra
    zero level fills entries of unequal spin codes. It evaluates the
    blocks sel, or all, at z (a scalar, or a 1-D array of nodes that leads
    the result) and stacks Gamma and, under gram, -dGamma/dz from the same
    s and waves: the bilinear Gram matrix int Phi^z_mu Phi^z_nu. Under
    paired, z and sel are 1-D arrays of one length and block sel[i] is
    evaluated at z[i] only: the result is (1 + gram, len(z), k, k).
    """
    levels, level = model.distinct_shifts()
    p, j, code = channel_tables(model)
    n, layers = model.n_spins, 2 if model.dimension == 1 else 1
    rows, cols = np.asarray(index)[:, :, None], np.asarray(index)[:, None, :]
    at = (((level[code[rows]] * layers + p[rows]) * layers + p[cols]) * n + j[rows] - 1) * n + j[cols] - 1
    at = np.where(code[rows] == code[cols], at, levels.size * layers**2 * n * n)
    diff = model.positions[:, None] - model.positions[None, :]
    dist = np.linalg.norm(diff, axis=-1) if model.dimension == 3 else np.abs(diff)
    off, sign = dist > 0.0, -np.sign(diff)  # the sites are distinct: only the diagonal is zero
    # complex operands: numpy would cast real ones on every evaluation
    scale, sign = (4.0 * np.pi * np.where(off, dist, 1.0)).astype(complex), sign.astype(complex)
    levels_c, dist = levels.astype(complex), dist.astype(complex)

    def evaluate(z, sel=None, gram=False, paired=False):
        z = np.asarray(z, dtype=complex)
        w = z[..., None] - levels_c
        s = sqrt_upper(w)
        if np.count_nonzero(s.imag) < s.size:  # Im s = 0 only on [0, inf), where the lowest level's w is too
            for w0 in w[..., 0].ravel():
                _check_energy(w0, False)
        s = s[..., None, None]
        e = np.exp(1j * s * dist)
        if model.dimension == 3:  # Gram: the diagonal is the r = 0 case of i e^{isr}/(8 pi s)
            parts = [np.where(off, -e / scale, -1j * s / (4.0 * np.pi))]
            if gram:
                parts.append(1j * e / (8.0 * np.pi * s))
        else:  # the (p, p') layers in row-major order, then under gram minus their d/dz
            g, gp = 1j * e / (2.0 * s), sign * e / 2.0
            parts = [-g, -gp, gp, -w[..., None, None] * g]
            if gram:
                dgp = sign * 1j * dist * e / (4.0 * s)
                parts += [-e * (dist * s + 1j) / (4.0 * s**3), dgp, -dgp, e * (1j - dist * s) / (4.0 * s)]
        table = np.zeros((1 + gram,) + z.shape + (levels.size + 1, layers**2, n, n), dtype=complex)
        for k, lay in enumerate(parts):
            table[k // layers**2, ..., :-1, k % layers**2, :, :] = lay
        table = table.reshape(table.shape[:-4] + (-1,))
        if paired:
            return table[:, np.arange(z.size)[:, None, None], at[sel]]
        return table.take(at if sel is None else at[sel], axis=-1)

    return evaluate


def _frame_plans(model: ModelSpec, frame: SpinFrame) -> list:
    """(group, its _gamma_plan) per block group of a pair's spin frame: the solvers' one Gamma layout."""
    return [(g, _gamma_plan(model, g.index)) for g in frame.blocks]


def _gamma_whole(model: ModelSpec, z, gram: bool) -> np.ndarray:
    """Gamma, or -dGamma/dz under gram, as the full matrix: its per-code blocks scattered into m x m."""
    blocks = channel_blocks(model)
    out = np.zeros(np.shape(z) + (model.defect_dim,) * 2, dtype=complex)
    out[..., blocks[:, :, None], blocks[:, None, :]] = _gamma_plan(model, blocks)(z, gram=gram)[-1]
    return out


def gamma_free(model: ModelSpec, z) -> np.ndarray:
    """Boundary-value matrix Gamma(z) of the free defect functions.

    Block diagonal across spin configurations. d=3 per configuration:
    diagonal sqrt(z - a.s)/(4 pi i), off-diagonal -G^{z-a.s}(y_j - y_j').
    d=1 per configuration, with p the charge/dipole layer:

        (0j, 0j') -> -G,  (1j, 1j') -> -(z - a.s) G  (including j = j'),
        (1j, 0j') -> +G', (0j, 1j') -> -G'           (zero at j = j').

    A 1-D array of z adds a leading node axis: (n_z, m, m). This is
    output (CLI gamma, the singular-value profile script): the solvers
    take Gamma on the blocks of the pair's spin frame only (_frame_plans).
    """
    return _gamma_whole(model, z, gram=False)


def gamma_gram(model: ModelSpec, z) -> np.ndarray:
    """-dGamma/dz, the bilinear Gram matrix int Phi^z_mu Phi^z_nu of the defect functions.

    Below the continuum threshold the defect functions are real, so at
    such a real z this is their Gram matrix <Phi_mu, Phi_nu>. A 1-D array
    of z adds a node axis as in gamma_free; the solvers use _gamma_plan.
    """
    return _gamma_whole(model, z, gram=True)


def gamma_dressed(pair, gamma: np.ndarray) -> np.ndarray:
    """Dressed channel matrix B Gamma(z) + A.

    pair is a BoundaryPair with gamma the m x m Gamma(z), or one of its
    BlockGroups with gamma restricted to the same (g, k, k) blocks; a
    leading node axis on gamma carries through.
    """
    return pair.B @ gamma + pair.A


def invert_dressed(dressed, rhs, z=None):
    """Solve dressed X = rhs block by block; raises NearPoleError past 1e12.

    dressed and rhs are sequences of (g, k, k) stacks, the diagonal
    blocks of a block-diagonal matrix, or of (n_z, g, k, k) stacks, one
    such matrix per node (rhs may stay (g, k, k)). Each stack takes one
    batched values-only SVD and one batched solve. A matrix's singular
    values are the union of its blocks' ones, so each node's 2-norm
    condition number comes from its own blocks alone. Returns the
    solution stacks and the condition number, one per node. The error
    names the first node past the limit, by its entry of z when given.
    """
    sv = [np.linalg.svd(d, compute_uv=False) for d in dressed]
    smallest = np.min(np.concatenate([s[..., -1] for s in sv], axis=-1), axis=-1)
    largest = np.max(np.concatenate([s[..., 0] for s in sv], axis=-1), axis=-1)
    cond = np.divide(largest, smallest, out=np.full_like(largest, np.inf), where=smallest > 0.0)
    bad = np.flatnonzero(cond > CONDITION_LIMIT)
    if bad.size:
        node = bad[0]
        at = None if z is None else complex(np.ravel(z)[node])
        raise NearPoleError(at, float(np.ravel(smallest)[node]), float(np.ravel(cond)[node]))
    solved = [np.linalg.solve(d, b) for d, b in zip(dressed, rhs)]
    return solved, (float(cond) if cond.ndim == 0 else cond)


@dataclass
class _Dressing:
    """Per-(model, pair, z) factorized data for kernel evaluations.

    The dressing runs in the pair's spin frame U (BoundaryPair.frame):
    solved holds, per group of frame.blocks, the (g, k, k) stack of the
    blocks of U* C U for the correction C = (B Gamma + A)^{-1} B, and
    charges maps vectors through U and each stack on its group's indices.
    For a 1-D array of z, z, solved and condition carry a leading node
    axis; column needs the one-node case.
    """

    model: ModelSpec
    z: complex | np.ndarray
    frame: SpinFrame
    solved: list  # per block group: the blocks of U* (Gamma^AB)^{-1} B U
    condition: float | np.ndarray

    def charges(self, overlaps, adjoint: bool = False) -> np.ndarray:
        """C s for overlap vectors s on the last axis of overlaps, one per node; C* s under adjoint."""
        inner = self.frame.rotate(overlaps, adjoint=True)
        out = np.zeros(np.shape(inner), dtype=complex)
        for g, x in zip(self.frame.blocks, self.solved):
            x = x.conj().swapaxes(-1, -2) if adjoint else x
            out[..., g.index] = np.matmul(x, inner[..., g.index, None])[..., 0]
        return self.frame.rotate(out)

    def column(self, xp, sigmap):
        """Closure evaluating K(x, sigma; xp, sigmap) for the fixed source column.

        The source-side defect values and sqrt_upper(z - a.s) are computed
        once per column, and every column of one dressing shares its
        factorization.
        """
        model = self.model
        code_p = spin_code(sigmap, model.n_spins)
        if _at_site(model, xp):
            raise ValueError("source point coincides with a spin site")
        s = sqrt_upper(self.z - model.distinct_shifts()[0])
        phi_src = _defect_rows(model, self.z, [xp] if model.dimension == 1 else [np.asarray(xp)], s)[:, 0]
        phi_src = np.where(channel_tables(model)[2] == code_p, phi_src, 0.0)
        weights = self.charges(phi_src)  # c_mu for the x side

        def evaluate(x, sigma) -> complex:
            code = spin_code(sigma, model.n_spins)
            if model.dimension == 1 and _at_site(model, x):  # d=3: _defect_factors rejects x
                raise ValueError("evaluation point coincides with a spin site")
            phi_out = _defect_rows(model, self.z, [x] if model.dimension == 1 else [np.asarray(x)], s)
            val = 0.0 + 0.0j
            if code == code_p:
                disp = (x - xp) if model.dimension == 1 else (np.asarray(x, dtype=float) - np.asarray(xp, dtype=float))
                val += green(model.dimension, self.z - model.shifts()[code], disp, allow_cut=True)
            return val + complex(channel_sum(model, weights, phi_out)[code, 0])

        return evaluate


def _dress(model: ModelSpec, pair: BoundaryPair, z, unchecked: bool = False) -> _Dressing:
    """Gamma(z), its dressing and the correction, on the blocks of the pair's spin frame.

    U commutes with Gamma(z), so U* (B Gamma + A) U = B' Gamma + A' on the
    frame's blocks, with (A', B') = (U* A U, U* B U); its condition number
    is that of B Gamma + A. Gamma is one stack per group (_frame_plans).
    z is one energy or a 1-D array of nodes. A node array is dressed as
    (n_z, g, k, k) stacks, one values-only SVD and one solve per block
    group for all nodes; the condition number is per node, and a
    NearPoleError names the first node past the limit in array order.
    """
    require_valid(model, pair, unchecked)
    z = np.asarray(z, dtype=complex)
    z = complex(z) if z.ndim == 0 else z
    return _dress_gamma(model, pair, z, [plan(z)[0] for _, plan in _frame_plans(model, pair.frame(model))])


def _dress_gamma(model: ModelSpec, pair: BoundaryPair, z, gammas: list) -> _Dressing:
    """_dress on given Gamma(z) stacks, one per group of the pair's frame blocks, for a pair its caller has gated."""
    frame = pair.frame(model)
    dressed = [gamma_dressed(g, gamma) for g, gamma in zip(frame.blocks, gammas)]
    return _Dressing(model, z, frame, *invert_dressed(dressed, [g.B for g in frame.blocks], z))


def _defect_factors(model: ModelSpec, z, points, s=None):
    """The defect functions in factored form, (scale, wave, layer, level).

    scale * wave * layer broadcasts to phi on (layer p, site j, distinct
    shift l, point), and level maps each spin code to its l (as
    model.distinct_shifts()); taking it on that axis gives the flat
    defect order. wave = exp(i s_l r_j(x)), s_l = sqrt_upper(z - a_l) and
    r_j the distance to site j, is formed once per (node, site, l, point)
    and shared by the codes of one shift and in d=1 by both layers: the
    charge layer has scale i/(2 s_l) and layer 1, the dipole layer scale
    1 and layer -sgn(x - y_j)/2. d=3 has one layer, scale 1.0 (a float)
    and layer 1/(4 pi r_j). Shapes: d=1 scale (..., 2, 1, L, 1), wave
    (..., 1, N, L, n_points), layer (P, N, 1, n_points), level (C,); a 1-D
    array of z is the leading axis of scale and wave. s, when given, is
    s_l per (node and) l, for callers that reuse one z.
    """
    levels, level = model.distinct_shifts()
    if s is None:
        s = sqrt_upper(np.asarray(z, dtype=complex)[..., None] - levels)
    s = s[..., None, None, :, None]
    pts = np.asarray(points, dtype=float)
    if model.dimension == 3:
        r = np.linalg.norm(np.atleast_2d(pts)[None, :, :] - model.positions[:, None, :], axis=-1)[:, None, :]
        if not r.all():
            raise ValueError("evaluation point coincides with a spin site")
        wave = s * (1j * r)
        return 1.0, np.exp(wave, out=wave), 1.0 / (4.0 * np.pi * r[None]), level
    disp = (np.atleast_1d(pts)[None, :] - model.positions[:, None])[:, None, :]
    wave = s * (1j * np.abs(disp))
    np.exp(wave, out=wave)
    return np.where(_CHARGE, 1j / (2.0 * s), 1.0), wave, np.where(_CHARGE, 1.0, -0.5 * np.sign(disp)), level


def defect_matrix(model: ModelSpec, z, points) -> np.ndarray:
    """phi_mu(points) for every flat mu; shape (m, n_points).

    A 1-D array of z adds a leading node axis. The channel selector
    delta_{code(state), code(mu)} is not applied here. In d=1 the
    dipole layer takes its mean value 0 at the site.
    """
    return _defect_rows(model, z, points)


def _defect_rows(model: ModelSpec, z, points, s=None) -> np.ndarray:
    """defect_matrix, with s as in _defect_factors."""
    scale, wave, layer, level = _defect_factors(model, z, points, s)
    phi = (scale * wave * layer).take(level, axis=-2)
    return phi.reshape(phi.shape[:-4] + (-1, phi.shape[-1]))


def _at_site(model: ModelSpec, x) -> bool:
    return bool(np.any(np.all(model.positions.reshape(model.n_spins, -1) == np.ravel(x), axis=-1)))


def resolvent_kernel(model: ModelSpec, pair: BoundaryPair, z, x, sigma, xp, sigmap,
                     unchecked: bool = False) -> complex:
    """Kernel of the dressed resolvent at one pair of space-spin points.

    sigma and sigmap are spin configurations (arrays of +-1) or their
    bit codes. Evaluation exactly at a spin site is an error.
    """
    return _dress(model, pair, z, unchecked).column(xp, sigmap)(x, sigma)


def kernel_evaluator(model: ModelSpec, pair: BoundaryPair, z, xp, sigmap,
                     unchecked: bool = False):
    """Closure evaluating K(x, sigma; xp, sigmap) for the fixed source column.

    Dresses once at z and precomputes the source-side defect values, so
    ladders of evaluations near the sites stay cheap.
    """
    return _dress(model, pair, z, unchecked).column(xp, sigmap)


# ---------------------------------------------------------------------------
# Gaussian-Green integrals in closed form


def _half_line(a, b, c):
    """Integral over y > 0 of exp(-a y^2 + b y + c), for Re a > 0.

    With zeta = -b / (2 sqrt a) it is sqrt(pi/a)/2 exp(c + zeta^2) erfc(zeta)
    (A&S 7.4.2). exp(zeta^2) erfc(zeta) is the Faddeeva function w(i zeta)
    for Re zeta >= 0 and 2 exp(zeta^2) - w(-i zeta) otherwise; w is
    bounded on the upper half plane, so neither branch overflows.
    """
    zeta = -b / (2.0 * np.sqrt(a))
    right = zeta.real >= 0.0
    tail = scipy.special.wofz(np.where(right, 1j * zeta, -1j * zeta)) * np.exp(c)
    full = 2.0 * np.exp(np.where(right, -np.inf, c + zeta * zeta))
    return np.sqrt(np.pi / a) / 2.0 * (np.where(right, tail, -tail) + full)


def _gaussian_green(packet: GaussianPacket, code: int, w: complex, points, s=None) -> np.ndarray:
    """Integral of G^w(u - x) psi_code(u) du at every point x, in closed form.

    Returns a (layers, n_points) array: d=3 has one layer; d=1 has the
    charge layer and the dipole layer, the integral with G' in place of G.
    A 1-D array of w adds a leading node axis.
    Per Gaussian component (weight W, centre c, momentum k, variance v,
    a = 1/(4v), s = sqrt_upper(w)) the integral is a sum of the half-line
    integrals H = _half_line:

    d=1, dc = c - x: H+- = W H(a, +-dc/(2v) + i(s +- k), -a dc^2 - i k dc),
        charge (i/2s)(H+ + H-), dipole -(H+ - H-)/2.
    d=3, dx = x - c: the shell average of the component over |u - x| = r
        is 4 pi W exp(c0 - a r^2) sinh(r xi)/(r xi), with
        xi^2 = (-dx/(2v) + ik).(-dx/(2v) + ik) and c0 = -a dx.dx + i k.dx,
        so the integral is W [H(a, is + xi, c0) - H(a, is - xi, c0)]/(2 xi).
        That difference quotient is even in xi; for |v xi^2| < 1e-6 its
        Taylor series M1 + xi^2 M3/6 in the moments M_n of
        exp(-a y^2 + is y + c0) over y > 0 replaces it.
    s, when given, is sqrt_upper(w), for callers that reuse one w.
    """
    if s is None:
        s = sqrt_upper(w)
    nodes = ()
    if isinstance(s, np.ndarray):
        nodes, s = s.shape, s[:, None]  # the nodes ahead of the points
    x = np.asarray(points, dtype=float)
    out = np.zeros(nodes + (2 if packet.dimension == 1 else 1, x.shape[0]), dtype=complex)
    for g in packet.components[code]:
        v = g.variance
        a = 1.0 / (4.0 * v)
        if packet.dimension == 1:
            k = g.momentum[0]
            dc = g.center[0] - x
            c = -a * dc * dc - 1j * k * dc
            hp = g.weight * _half_line(a, dc / (2.0 * v) + 1j * (s + k), c)
            hm = g.weight * _half_line(a, -dc / (2.0 * v) + 1j * (s - k), c)
            out[..., 0, :] += 1j / (2.0 * s) * (hp + hm)
            out[..., 1, :] -= (hp - hm) / 2.0
            continue
        dx = x - g.center
        q = -dx / (2.0 * v) + 1j * g.momentum
        xi2 = np.sum(q * q, axis=-1)  # complex bilinear length squared
        c0 = -a * np.sum(dx * dx, axis=-1) + 1j * (dx @ g.momentum)
        small = np.abs(v * xi2) < 1e-6
        xi = np.sqrt(np.where(small, 1.0, xi2))
        quotient = (_half_line(a, 1j * s + xi, c0) - _half_line(a, 1j * s - xi, c0)) / (2.0 * xi)
        # integration by parts: M_{n+1} = 2v (n M_{n-1} + is M_n), with e^c0 for n M_{n-1} at n = 0
        m0 = _half_line(a, 1j * s, c0)
        m1 = 2.0 * v * (np.exp(c0) + 1j * s * m0)
        m2 = 2.0 * v * (m0 + 1j * s * m1)
        m3 = 2.0 * v * (2.0 * m1 + 1j * s * m2)
        out[..., 0, :] += g.weight * np.where(small, m1 + xi2 * m3 / 6.0, quotient)
    return out


def _defect_overlaps_gaussian(model: ModelSpec, z, packet: GaussianPacket) -> np.ndarray:
    """s_mu = <Phi^{conj z}_mu, psi> using conj(Phi^{conj z}) = Phi^z; z may be real below mu.

    A 1-D array of z adds a leading node axis: (n_z, m).
    """
    p, j, code = channel_tables(model)
    shifts = model.shifts()
    out = np.zeros(np.shape(z) + (p.size,), dtype=complex)
    for c in range(packet.n_channels):
        if packet.components[c]:
            sel = code == c
            out[..., sel] = _gaussian_green(packet, c, z - shifts[c], model.positions)[..., p[sel], j[sel] - 1]
    return out


def _gaussian_charges(dress: _Dressing, packet: GaussianPacket) -> np.ndarray:
    """Charges (B Gamma + A)^{-1} B s of the rank-m correction applied to a Gaussian packet, per node."""
    return dress.charges(_defect_overlaps_gaussian(dress.model, dress.z, packet))


def _node_at(grid: UniformGrid, x: float) -> int | None:
    ax = grid.axes[0]
    h = grid.spacing
    k = int(round((x - ax[0]) / h))
    if 0 <= k < ax.size and abs(ax[k] - x) < 1e-9 * max(h, 1.0):
        return k
    return None


def _defect_overlaps_grid(dress: _Dressing, state: GridState) -> np.ndarray:
    """Grid-trapezoid defect overlaps, with d=1 kink corrections at on-node sites."""
    model = dress.model
    grid = state.grid
    p, sites, code = channel_tables(model)
    psi = state.values[code]
    out = np.sum(defect_matrix(model, dress.z, grid.points) * psi * grid.weights, axis=1)
    if model.dimension == 1:
        h = grid.spacing
        for j, site in enumerate(model.positions, start=1):
            node = _node_at(grid, float(site))
            if node is None:
                continue
            charge = (sites == j) & (p == 0)
            out[charge] -= h * h / 12.0 * psi[charge, node]
            if 0 < node < grid.n_points - 1:
                dipole = (sites == j) & (p == 1)
                out[dipole] -= h * h / 12.0 * (psi[dipole, node + 1] - psi[dipole, node - 1]) / (2.0 * h)
    return out


def _free_apply_grid(model: ModelSpec, z: complex, state: GridState) -> np.ndarray:
    """Trapezoid convolution with the free Green kernel on the state's own grid.

    Uniform spacing makes the kernel Toeplitz on the lag grid (per-axis
    steps), so each channel is one FFT convolution in d = 1 and d = 3.
    The lags span -(n-1)..n-1 per axis, so a circular convolution of
    period 2n - 1 wraps no lag onto another and is exact; the first n
    entries per axis are the result.
    The lag u = x gets a local term: the d=1 second-order kink correction
    -h^2/12 psi, or in d=3, in place of the singular kernel value, the
    average of 1/(4 pi r) over the volume-equivalent ball of the cell,
    a^2/2 psi with a = (3 V/(4 pi))^(1/3) for the cell volume V.
    """
    grid = state.grid
    shape = tuple(ax.size for ax in grid.axes)
    steps = [ax[1] - ax[0] for ax in grid.axes]
    period = tuple(2 * n - 1 for n in shape)
    axes = tuple(range(len(shape)))
    lags = np.meshgrid(*[np.arange(1 - n, n) * h for n, h in zip(shape, steps)], indexing="ij", sparse=True)
    r = np.sqrt(sum(lag * lag for lag in lags))
    if model.dimension == 1:
        local = -steps[0] ** 2 / 12.0
    else:
        local = (3.0 * np.prod(steps) / (4.0 * np.pi)) ** (2.0 / 3.0) / 2.0
        inv_r = 1.0 / np.where(r > 0.0, r, np.inf)  # the singular lag is the local term
    out = np.empty_like(state.values)
    levels, level = model.distinct_shifts()
    head = tuple(slice(n) for n in shape)
    transforms = []  # one per distinct shift, with lag 0 moved to index 0
    for s in sqrt_upper(z - levels):
        e = np.exp(1j * s * r)
        kernel = 1j * e / (2.0 * s) if model.dimension == 1 else e * inv_r / (4.0 * np.pi)
        transforms.append(np.fft.fftn(np.fft.ifftshift(kernel), axes=axes))
    for code in range(state.n_channels):
        weighted = (state.values[code] * grid.weights).reshape(shape)
        conv = np.fft.ifftn(transforms[level[code]] * np.fft.fftn(weighted, s=period, axes=axes), axes=axes)
        out[code] = conv[head].ravel() + local * state.values[code]
    return out


def _free_apply_gaussian(model: ModelSpec, z: complex, packet: GaussianPacket, grid: UniformGrid) -> np.ndarray:
    out = np.zeros((packet.n_channels, grid.n_points), dtype=complex)
    shifts = model.shifts()
    for code in range(packet.n_channels):
        if packet.components[code]:
            out[code] = _gaussian_green(packet, code, z - shifts[code], grid.points)[0]
    return out


def _require_match(model: ModelSpec, state, grid: UniformGrid | None = None) -> None:
    """The check in front of every state entry point: the state, and an output grid, are in the model's space."""
    if (state.dimension, state.n_channels) != (model.dimension, model.n_configs) or (
            grid is not None and grid.dimension != model.dimension):
        raise ValueError(f"state does not match the model (d={model.dimension}, {model.n_configs} channels)")


def apply_resolvent(model: ModelSpec, pair: BoundaryPair, z, state, grid: UniformGrid | None = None,
                    unchecked: bool = False) -> GridState:
    """Resolvent applied to a state, sampled on a grid.

    Gaussian input: defect overlaps and the free convolution are closed
    forms (an output grid must be supplied). Grid input: the state's own
    trapezoid rule is the quadrature and the output reuses the same grid.
    """
    if isinstance(state, GridState):
        if grid is not None and grid is not state.grid:
            raise ValueError("grid input is applied on its own grid")
        grid = state.grid
    elif not isinstance(state, GaussianPacket):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    elif grid is None:
        raise ValueError("Gaussian input needs an output grid")
    _require_match(model, state, grid)
    dress = _dress(model, pair, z, unchecked)
    z = dress.z
    gridded = isinstance(state, GridState)
    values = _free_apply_grid(model, z, state) if gridded else _free_apply_gaussian(model, z, state, grid)
    if any(np.any(x != 0.0) for x in dress.solved):  # coupled
        overlaps = _defect_overlaps_grid(dress, state) if gridded else _defect_overlaps_gaussian(model, z, state)
        values += channel_sum(model, dress.charges(overlaps), defect_matrix(model, z, grid.points))
    return GridState(model.dimension, values, grid)


def resolvent_state_evaluator(model: ModelSpec, pair: BoundaryPair, z, state,
                              unchecked: bool = False):
    """Pointwise evaluator of (R(z) state)(x, code) for Gaussian input.

    The same closed forms as apply_resolvent, at arbitrary points, e.g.
    for boundary-data extraction near the sites.
    """
    if not isinstance(state, GaussianPacket):
        raise TypeError("pointwise evaluation needs Gaussian input")
    _require_match(model, state)
    dress = _dress(model, pair, z, unchecked)
    charges = _gaussian_charges(dress, state)
    levels, level = model.distinct_shifts()
    s = sqrt_upper(dress.z - levels)  # once for the closure's one z

    def evaluate(x, sigma) -> complex:
        code = spin_code(sigma, model.n_spins)
        pts = [x] if model.dimension == 1 else [np.asarray(x, dtype=float)]
        val = _gaussian_green(state, code, dress.z - levels[level[code]], pts, complex(s[level[code]]))[0, 0]
        phi = _defect_rows(model, dress.z, pts, s)
        return complex(val + channel_sum(model, charges, phi)[code, 0])

    return evaluate


# ---------------------------------------------------------------------------
# boundary data


LADDER_LEVELS = 8  # dyadic probe radii per site


def _ladder_fit(t: np.ndarray, samples: np.ndarray, powers) -> np.ndarray:
    """Least-squares coefficients of samples (one column per ladder) on the powers t**k."""
    basis = np.stack([t**k for k in powers], axis=1)
    coef, *_ = np.linalg.lstsq(basis, samples, rcond=None)
    return coef


def extract_boundary_data(model: ModelSpec, evaluate, j: int, sigma, avoid=None):
    """Boundary data (q, f) of a wavefunction at site j in one spin channel.

    evaluate(x, code) -> complex must be defined near (but not at) the
    site. d=1 returns (q, f) with q = (q0, q1) the derivative and value
    jumps and f = (f0, f1) the averaged value and minus the averaged
    derivative. d=3 returns scalar (q, f) from the expansion
    psi = q/(4 pi |x - y_j|) + f + O(|x - y_j|).

    The LADDER_LEVELS probe radii halve from h0, a fifth of the smallest
    site separation (0.2 for one site). It assumes evaluate is
    smooth near the site apart from the site singularity itself; avoid
    lists additional singular points (e.g. the source of a kernel column)
    the ladder must not reach.

    Both dimensions fit the ladder on powers of t = r/h0. d=1 fits each
    side on t^0 .. t^7 (the interpolating polynomial; its t^0 and t^1
    coefficients are the value and h0 times the slope), 16 probes. d=3
    averages the six axis directions per radius and fits the radial
    profile on t^-1 .. t^5, 48 probes; the singular channel itself
    contributes all powers of r, so the odd columns are not optional.
    """
    code = spin_code(sigma, model.n_spins)
    site = model.site(j)
    h0 = 0.2
    if model.n_spins > 1:
        pos = model.positions.reshape(model.n_spins, -1)
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        h0 *= float(np.min(dist[~np.eye(model.n_spins, dtype=bool)]))
    if avoid is not None:
        for pt in avoid:
            d = float(np.linalg.norm(np.asarray(pt, dtype=float) - site))
            if d == 0.0:
                raise ValueError("avoid point coincides with the probed site")
            h0 = min(h0, 0.5 * d)
    t = 2.0 ** -np.arange(LADDER_LEVELS)
    if model.dimension == 1:
        y = float(site)
        # one column per side; t^0 and t^1 give the one-sided value and h0 * slope
        vals = np.array([[evaluate(y + h0 * r, code), evaluate(y - h0 * r, code)] for r in t])
        (vp, vm), (sp, sm) = _ladder_fit(t, vals, range(LADDER_LEVELS))[:2]
        dp, dm = sp / h0, -sm / h0
        q = np.array([dm - dp, vm - vp])
        f = np.array([(vp + vm) / 2.0, -(dp + dm) / 2.0])
        return q, f
    # +-e_x, +-e_y, +-e_z form a spherical 3-design: their average cancels
    # the l = 1, 2, 3 angular terms of the regular part
    axes = np.vstack([np.eye(3), -np.eye(3)])
    shells = site + h0 * t[:, None, None] * axes  # (radius, direction, xyz)
    averages = np.array([np.mean([evaluate(pt, code) for pt in shell]) for shell in shells])
    coef = _ladder_fit(t, averages, range(-1, 6))
    return complex(4.0 * np.pi * h0 * coef[0]), complex(coef[1])


def boundary_data_from_evaluator(model: ModelSpec, evaluate, avoid=None) -> tuple[np.ndarray, np.ndarray]:
    """Full boundary-data vectors (q, f) in the flat channel order."""
    m = model.defect_dim
    q = np.zeros(m, dtype=complex)
    f = np.zeros(m, dtype=complex)
    p, j, code = channel_tables(model)
    for site in range(1, model.n_spins + 1):
        for c in range(model.n_configs):
            qd, fd = extract_boundary_data(model, evaluate, site, c, avoid=avoid)
            sel = (j == site) & (code == c)  # one channel per layer p
            q[sel] = np.atleast_1d(qd)[p[sel]]
            f[sel] = np.atleast_1d(fd)[p[sel]]
    return q, f


def verify_boundary_conditions(pair: BoundaryPair, q: np.ndarray, f: np.ndarray) -> float:
    """Max-abs residual of the interface condition A q = B f, summed over the pair's entries."""
    rows, cols, a, b = pair.entries
    residual = np.zeros(pair.defect_dim, dtype=complex)
    np.add.at(residual, rows, a * np.asarray(q)[cols] - b * np.asarray(f)[cols])
    return float(np.max(np.abs(residual)))
