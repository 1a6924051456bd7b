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
from scipy import special

from .boundary import BoundaryPair, require_valid
from .greens import _check_energy, green, sqrt_upper
from .spins import ModelSpec, channel_blocks, channel_sum, channel_tables, spin_code
from .states import GaussianPacket, GridState, UniformGrid

__all__ = [
    "NearPoleError",
    "gamma_free",
    "gamma_gram",
    "gamma_dressed",
    "invert_dressed",
    "resolvent_kernel",
    "kernel_evaluator",
    "apply_resolvent",
    "resolvent_state_evaluator",
    "extract_boundary_data",
    "boundary_data_from_evaluator",
    "verify_boundary_conditions",
]

CONDITION_LIMIT = 1e12


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


def _gamma(model: ModelSpec, z, index, gram: bool) -> np.ndarray:
    """Gamma(z), or -dGamma/dz under gram, on the full matrix or the index blocks.

    -dGamma/dz applies d/dz = (1/2s) d/ds to every layer. It is the w -> z
    limit of Gamma(z) - Gamma(w) = (w - z) int Phi^w Phi^z, the bilinear
    Gram matrix int Phi^z_mu Phi^z_nu of the defect functions.
    """
    w = complex(z) - model.shifts()
    # the shifts are real: one w lies on the cut iff the largest does
    _check_energy(w[np.argmax(w.real)], False)
    s = sqrt_upper(w)[:, None, None]
    pos = model.positions
    if model.dimension == 3:
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        if gram:  # the diagonal is the r = 0 case of i e^{isr}/(8 pi s)
            site = 1j * np.exp(1j * s * dist) / (8.0 * np.pi * s)
        else:
            off = dist > 0.0  # the sites are distinct: only the diagonal is zero
            site = np.where(off, -np.exp(1j * s * dist) / (4.0 * np.pi * np.where(off, dist, 1.0)),
                            -1j * s / (4.0 * np.pi))
        layers = site[:, None, None]
    else:
        if np.any(s == 0.0):
            raise ValueError("d=1 boundary matrix diverges when z - a.s = 0")
        diff = pos[:, None] - pos[None, :]
        r = np.abs(diff)
        e = np.exp(1j * s * r)
        if gram:  # minus d/dz of the layers in the else branch
            dgp = -np.sign(diff) * 1j * r * e / (4.0 * s)
            lay = [[-e * (r * s + 1j) / (4.0 * s**3), dgp], [-dgp, e * (1j - r * s) / (4.0 * s)]]
        else:
            g = 1j * e / (2.0 * s)
            gp = -np.sign(diff) * e / 2.0  # zero on the diagonal
            lay = [[-g, -gp], [gp, -w[:, None, None] * g]]
        layers = np.stack([np.stack(row, axis=1) for row in lay], axis=1)
    # layers[code, p, p', j, j'] fills the equal-code block of each code
    p, j, code = channel_tables(model)
    rows = (channel_blocks(model) if index is None else np.asarray(index))[:, :, None]
    cols = rows.swapaxes(1, 2)
    vals = layers[code[rows], p[rows], p[cols], j[rows] - 1, j[cols] - 1]
    if index is not None:
        return np.where(code[rows] == code[cols], vals, 0.0)
    out = np.zeros((model.defect_dim,) * 2, dtype=complex)
    out[rows, cols] = vals
    return out


def gamma_free(model: ModelSpec, z, index=None) -> np.ndarray:
    """Boundary-value matrix Gamma(z) of the free defect functions.

    Block diagonal across spin configurations. d=3 per configuration:
    diagonal sqrt(z - a.s)/(4 pi i), off-diagonal -G^{z-a.s}(y_j - y_j').
    d=1 per configuration, with p the charge/dipole layer:

        (0j, 0j') -> -G,  (1j, 1j') -> -(z - a.s) G  (including j = j'),
        (1j, 0j') -> +G', (0j, 1j') -> -G'           (zero at j = j').

    With index, a (g, k) stack of flat defect indices, only the blocks
    Gamma[index[b], index[b]] are formed, as a (g, k, k) stack.
    """
    return _gamma(model, z, index, gram=False)


def gamma_gram(model: ModelSpec, z) -> np.ndarray:
    """-dGamma/dz, the bilinear Gram matrix int Phi^z_mu Phi^z_nu of the defect functions.

    Below the continuum threshold the defect functions are real, so at
    such a real z this is their Gram matrix <Phi_mu, Phi_nu>.
    """
    return _gamma(model, z, None, gram=True)


def gamma_dressed(pair, gamma: np.ndarray) -> np.ndarray:
    """Dressed channel matrix B Gamma(z) + A.

    pair is a BoundaryPair with gamma the m x m Gamma(z), or one of its
    BlockGroups with gamma restricted to the same (g, k, k) blocks.
    """
    return pair.B @ gamma + pair.A


def invert_dressed(dressed, rhs):
    """Solve dressed X = rhs block by block; raises NearPoleError past 1e12.

    dressed and rhs are sequences of (g, k, k) stacks, the diagonal
    blocks of a block-diagonal matrix. Each stack takes one batched
    values-only SVD and one batched solve. The singular values of the
    whole matrix are the union of the blocks' ones, so the smallest
    singular value and the 2-norm condition number are those of the
    whole matrix. Returns the solution stacks and the condition number.
    """
    sv = [np.linalg.svd(d, compute_uv=False) for d in dressed]
    smallest = min(float(np.min(s[..., -1])) for s in sv)
    largest = max(float(np.max(s[..., 0])) for s in sv)
    cond = float(np.inf) if smallest == 0.0 else largest / smallest
    if cond > CONDITION_LIMIT:
        raise NearPoleError(None, smallest, cond)
    return [np.linalg.solve(d, b) for d, b in zip(dressed, rhs)], cond


@dataclass
class _Dressing:
    """Per-(model, pair, z) factorized data for kernel evaluations."""

    model: ModelSpec
    pair: BoundaryPair
    z: complex
    correction: np.ndarray  # (Gamma^AB)^{-1} B
    condition: float
    shifts: np.ndarray
    p: np.ndarray
    j: np.ndarray
    code: np.ndarray

    def column(self, xp, sigmap):
        """Closure evaluating K(x, sigma; xp, sigmap) for the fixed source column.

        The source-side defect values are computed once per column, and
        every column of one dressing shares its factorization.
        """
        model = self.model
        code_p = spin_code(sigmap, model.n_spins)
        if _site_distance(model, xp) == 0.0:
            raise ValueError("source point coincides with a spin site")
        phi_src = defect_matrix(model, self.z, [xp] if model.dimension == 1 else [np.asarray(xp)])[:, 0]
        phi_src = np.where(self.code == code_p, phi_src, 0.0)
        weights = self.correction @ phi_src  # c_mu for the x side

        def evaluate(x, sigma) -> complex:
            code = spin_code(sigma, model.n_spins)
            if _site_distance(model, x) == 0.0:
                raise ValueError("evaluation point coincides with a spin site")
            val = 0.0 + 0.0j
            if code == code_p:
                w = self.z - self.shifts[code]
                disp = (x - xp) if model.dimension == 1 else (np.asarray(x, dtype=float) - np.asarray(xp, dtype=float))
                val += green(model.dimension, w, disp, allow_cut=True)
            phi_out = defect_matrix(model, self.z, [x] if model.dimension == 1 else [np.asarray(x)])
            return val + complex(channel_sum(model, weights, phi_out)[code, 0])

        return evaluate


def _dress(model: ModelSpec, pair: BoundaryPair, z, unchecked: bool = False) -> _Dressing:
    """Gamma(z), its dressing and the correction, on the pair's blocks."""
    require_valid(model, pair, unchecked)
    z = complex(z)
    gamma = gamma_free(model, z)
    groups = pair.blocks()
    subs = [(g.index[:, :, None], g.index[:, None, :]) for g in groups]
    dressed = [gamma_dressed(g, gamma[sub]) for g, sub in zip(groups, subs)]
    try:
        solved, cond = invert_dressed(dressed, [g.B for g in groups])
    except NearPoleError as err:
        raise NearPoleError(z, err.smallest_singular_value, err.condition) from None
    correction = np.zeros_like(gamma)
    for sub, x in zip(subs, solved):
        correction[sub] = x
    p, j, code = channel_tables(model)
    return _Dressing(model, pair, z, correction, cond, model.shifts(), p, j, code)


def defect_matrix(model: ModelSpec, z, points) -> np.ndarray:
    """phi_mu(points) for every flat mu; shape (m, n_points).

    The channel selector delta_{code(state), code(mu)} is not applied
    here. In d=1 the dipole layer takes its mean value 0 at the site.
    """
    p, j, code = channel_tables(model)
    s = sqrt_upper(complex(z) - model.shifts())[code][:, None]
    pts = np.asarray(points, dtype=float)
    if model.dimension == 3:
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts[None, :, :] - model.positions[:, None, :], axis=-1)[j - 1]
        if np.any(r == 0.0):
            raise ValueError("defect function evaluated at its own site")
        return np.exp(1j * s * r) / (4.0 * np.pi * r)
    r = (np.atleast_1d(pts)[None, :] - model.positions[:, None])[j - 1]
    e = np.exp(1j * s * np.abs(r))
    return np.where(p[:, None] == 0, 1j * e / (2.0 * s), -np.sign(r) * e / 2.0)


def _site_distance(model: ModelSpec, x) -> float:
    if model.dimension == 1:
        return float(np.min(np.abs(model.positions - float(x))))
    return float(np.min(np.linalg.norm(model.positions - np.asarray(x, dtype=float)[None, :], axis=-1)))


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
    tail = special.wofz(np.where(right, 1j * zeta, -1j * zeta)) * np.exp(c)
    full = 2.0 * np.exp(np.where(right, -np.inf, c + zeta * zeta))
    return np.sqrt(np.pi / a) / 2.0 * (np.where(right, tail, -tail) + full)


def _gaussian_green(packet: GaussianPacket, code: int, w: complex, points) -> np.ndarray:
    """Integral of G^w(u - x) psi_code(u) du at every point x, in closed form.

    Returns a (layers, n_points) array: d=3 has one layer; d=1 has the
    charge layer and the dipole layer, the integral with G' in place of G.
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
    """
    s = sqrt_upper(w)
    x = np.asarray(points, dtype=float)
    out = np.zeros((2 if packet.dimension == 1 else 1, x.shape[0]), dtype=complex)
    for g in packet.components[code]:
        v = g.variance
        a = 1.0 / (4.0 * v)
        if packet.dimension == 1:
            k = g.momentum[0]
            dc = g.center[0] - x
            c = -a * dc * dc - 1j * k * dc
            hp = g.weight * _half_line(a, dc / (2.0 * v) + 1j * (s + k), c)
            hm = g.weight * _half_line(a, -dc / (2.0 * v) + 1j * (s - k), c)
            out[0] += 1j / (2.0 * s) * (hp + hm)
            out[1] -= (hp - hm) / 2.0
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
        out[0] += g.weight * np.where(small, m1 + xi2 * m3 / 6.0, quotient)
    return out


def _defect_overlaps_gaussian(model: ModelSpec, z: complex, packet: GaussianPacket) -> np.ndarray:
    """s_mu = <Phi^{conj z}_mu, psi> using conj(Phi^{conj z}) = Phi^z; z may be real below mu."""
    p, j, code = channel_tables(model)
    shifts = model.shifts()
    out = np.zeros(p.size, dtype=complex)
    for c in range(packet.n_channels):
        if packet.components[c]:
            sel = code == c
            out[sel] = _gaussian_green(packet, c, z - shifts[c], model.positions)[p[sel], j[sel] - 1]
    return out


def _gaussian_charges(dress: _Dressing, packet: GaussianPacket) -> np.ndarray:
    """Charges (B Gamma + A)^{-1} B s of the rank-m correction applied to a Gaussian packet."""
    return dress.correction @ _defect_overlaps_gaussian(dress.model, dress.z, packet)


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
    psi = state.values[dress.code]
    out = np.sum(defect_matrix(model, dress.z, grid.points) * psi * grid.weights, axis=1)
    if model.dimension == 1:
        h = grid.spacing
        for j, site in enumerate(model.positions, start=1):
            node = _node_at(grid, float(site))
            if node is None:
                continue
            charge = (dress.j == j) & (dress.p == 0)
            out[charge] -= h * h / 12.0 * psi[charge, node]
            if 0 < node < grid.n_points - 1:
                dipole = (dress.j == j) & (dress.p == 1)
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
    lags = np.meshgrid(*[np.arange(1 - n, n) * h for n, h in zip(shape, steps)], indexing="ij")
    r = np.sqrt(sum(lag * lag for lag in lags))
    if model.dimension == 1:
        local = -steps[0] ** 2 / 12.0
    else:
        local = (3.0 * np.prod(steps) / (4.0 * np.pi)) ** (2.0 / 3.0) / 2.0
        inv_r = 1.0 / np.where(r > 0.0, r, np.inf)  # the singular lag is the local term
    out = np.empty_like(state.values)
    shifts = model.shifts()
    head = tuple(slice(n) for n in shape)
    kernels: dict[complex, np.ndarray] = {}  # transforms, with lag 0 moved to index 0
    for code in range(state.n_channels):
        w = z - shifts[code]
        if w not in kernels:
            s = sqrt_upper(w)
            e = np.exp(1j * s * r)
            kernel = 1j * e / (2.0 * s) if model.dimension == 1 else e * inv_r / (4.0 * np.pi)
            kernels[w] = np.fft.fftn(np.fft.ifftshift(kernel), axes=axes)
        weighted = (state.values[code] * grid.weights).reshape(shape)
        conv = np.fft.ifftn(kernels[w] * np.fft.fftn(weighted, s=period, axes=axes), axes=axes)
        out[code] = conv[head].ravel() + local * state.values[code]
    return out


def _free_apply_gaussian(model: ModelSpec, z: complex, packet: GaussianPacket, grid: UniformGrid) -> np.ndarray:
    out = np.zeros((packet.n_channels, grid.n_points), dtype=complex)
    shifts = model.shifts()
    for code in range(packet.n_channels):
        if packet.components[code]:
            out[code] = _gaussian_green(packet, code, z - shifts[code], grid.points)[0]
    return out


def apply_resolvent(model: ModelSpec, pair: BoundaryPair, z, state, grid: UniformGrid | None = None,
                    unchecked: bool = False) -> GridState:
    """Resolvent applied to a state, sampled on a grid.

    Gaussian input: defect overlaps and the free convolution are closed
    forms (an output grid must be supplied). Grid input: the state's own
    trapezoid rule is the quadrature and the output reuses the same grid.
    """
    dress = _dress(model, pair, z, unchecked)
    z = dress.z
    coupled = bool(np.any(dress.correction != 0.0))
    if isinstance(state, GridState):
        if grid is not None and grid is not state.grid:
            raise ValueError("grid input is applied on its own grid")
        grid = state.grid
        values = _free_apply_grid(model, z, state)
        charges = dress.correction @ _defect_overlaps_grid(dress, state) if coupled else None
    elif isinstance(state, GaussianPacket):
        if grid is None:
            raise ValueError("Gaussian input needs an output grid")
        values = _free_apply_gaussian(model, z, state, grid)
        charges = _gaussian_charges(dress, state) if coupled else None
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if state.n_channels != model.n_configs:
        raise ValueError("state channel count does not match the model")
    if coupled:
        values += channel_sum(model, charges, defect_matrix(model, z, grid.points))
    return GridState(model.dimension, values, grid)


def resolvent_state_evaluator(model: ModelSpec, pair: BoundaryPair, z, state,
                              unchecked: bool = False):
    """Pointwise evaluator of (R(z) state)(x, code) for Gaussian input.

    The same closed forms as apply_resolvent, at arbitrary points, e.g.
    for boundary-data extraction near the sites.
    """
    if not isinstance(state, GaussianPacket):
        raise TypeError("pointwise evaluation needs Gaussian input")
    dress = _dress(model, pair, z, unchecked)
    charges = _gaussian_charges(dress, state)
    shifts = model.shifts()

    def evaluate(x, sigma) -> complex:
        code = spin_code(sigma, model.n_spins)
        pts = [x] if model.dimension == 1 else [np.asarray(x, dtype=float)]
        val = _gaussian_green(state, code, dress.z - shifts[code], pts)[0, 0]
        phi = defect_matrix(model, dress.z, pts)
        return complex(val + channel_sum(model, charges, phi)[code, 0])

    return evaluate


# ---------------------------------------------------------------------------
# boundary data


def _neville(xs: np.ndarray, ys: np.ndarray) -> complex:
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    ys = np.array(ys, dtype=complex)
    n = ys.size
    for level in range(1, n):
        for i in range(n - level):
            ys[i] = ys[i + 1] + (ys[i + 1] - ys[i]) * xs[i + level] / (xs[i] - xs[i + level])
    return complex(ys[0])


LADDER_LEVELS = 8  # dyadic probe radii per site

# unit vectors from the centre of a cube to its 26 neighbours
_DIRECTIONS_3D = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)
                           if (i, j, k) != (0, 0, 0)], dtype=float)
_DIRECTIONS_3D /= np.linalg.norm(_DIRECTIONS_3D, axis=1)[:, None]
_DIRECTIONS_3D.setflags(write=False)


def extract_boundary_data(model: ModelSpec, evaluate, j: int, sigma, avoid=None):
    """Boundary data (q, f) of a wavefunction at site j in one spin channel.

    evaluate(x, code) -> complex must be defined near (but not at) the
    site. d=1 returns (q, f) with q = (q0, q1) the derivative and value
    jumps and f = (f0, f1) the averaged value and minus the averaged
    derivative. d=3 returns scalar (q, f) from the expansion
    psi = q/(4 pi |x - y_j|) + f + O(|x - y_j|).

    The probe ladder halves LADDER_LEVELS times from a fifth of the
    smallest site separation (0.2 for one site). It assumes evaluate is
    smooth near the site apart from the site singularity itself; avoid
    lists additional singular points (e.g. the source of a kernel column)
    the ladder must not reach.

    d=1 uses one-sided dyadic ladders with Richardson (Neville)
    extrapolation; d=3 averages 26 directions per radius (cancelling
    every odd and the l=2 angular term of the regular part) and fits
    the radial profile on the power basis r^-1 .. r^5. The singular
    channel itself contributes all powers of r, so the odd columns are
    not optional.
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
    steps = h0 / 2.0 ** np.arange(LADDER_LEVELS)
    if model.dimension == 1:
        y = float(site)
        sides = {}
        for sign in (+1.0, -1.0):
            vals = np.array([evaluate(y + sign * d, code) for d in steps])
            value = _neville(steps, vals)
            derivs = np.array(
                [(evaluate(y + sign * 1.5 * d, code) - evaluate(y + sign * 0.5 * d, code)) / (sign * d) for d in steps]
            )
            deriv = _neville(steps, derivs)
            sides[sign] = (value, deriv)
        vp, dp = sides[+1.0]
        vm, dm = sides[-1.0]
        q = np.array([dm - dp, vm - vp])
        f = np.array([(vp + vm) / 2.0, -(dp + dm) / 2.0])
        return q, f
    dirs = _DIRECTIONS_3D
    radii = steps
    averages = np.empty(radii.size, dtype=complex)
    for i, r in enumerate(radii):
        pts = site[None, :] + r * dirs
        averages[i] = np.mean([evaluate(pt, code) for pt in pts])
    t = radii / radii[0]  # normalized for conditioning
    basis = np.stack([1.0 / t] + [t**k for k in range(6)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, averages, rcond=None)
    q = 4.0 * np.pi * radii[0] * coef[0]
    return complex(q), complex(coef[1])


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
    """Max-abs residual of the interface condition A q = B f."""
    return float(np.max(np.abs(pair.A @ q - pair.B @ f)))
