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
from scipy import integrate, signal

from .boundary import BoundaryPair, require_valid
from .greens import _check_energy, green, green_derivative_1d, sqrt_upper
from .spins import ModelSpec, channel_blocks, channel_sum, channel_tables, spin_code
from .states import GaussianPacket, GridState, UniformGrid

__all__ = [
    "NearPoleError",
    "QuadratureError",
    "gamma_free",
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


class QuadratureError(RuntimeError):
    pass


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
    w = complex(z) - model.shifts()
    # the shifts are real: one w lies on the cut iff the largest does
    _check_energy(w[np.argmax(w.real)], False)
    s = sqrt_upper(w)[:, None, None]
    pos = model.positions
    if model.dimension == 3:
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        off = dist > 0.0  # the sites are distinct: only the diagonal is zero
        site = np.where(off, -np.exp(1j * s * dist) / (4.0 * np.pi * np.where(off, dist, 1.0)),
                        -1j * s / (4.0 * np.pi))
        layers = site[:, None, None]
    else:
        if np.any(s == 0.0):
            raise ValueError("d=1 boundary matrix diverges when z - a.s = 0")
        diff = pos[:, None] - pos[None, :]
        e = np.exp(1j * s * np.abs(diff))
        g = 1j * e / (2.0 * s)
        gp = -np.sign(diff) * e / 2.0  # zero on the diagonal
        layers = np.stack([np.stack([-g, -gp], axis=1),
                           np.stack([gp, -w[:, None, None] * g], axis=1)], axis=1)
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
# quadrature helpers


def _quad_complex(f, a, b, points=None, tol=1e-10):
    kw = {"limit": 200, "epsabs": tol, "epsrel": tol}
    if points:
        pts = sorted(pt for pt in points if a < pt < b)
        if pts:
            kw["points"] = pts
    re, re_err = integrate.quad(lambda t: f(t).real, a, b, **kw)
    im, im_err = integrate.quad(lambda t: f(t).imag, a, b, **kw)
    err = re_err + im_err
    val = complex(re, im)
    if err > 1e-6 * (1.0 + abs(val)):
        raise QuadratureError(f"integral did not converge: estimate {err:.2e} for value {val:.3e}")
    return val


def _sinhc(w):
    """sinh(w)/w, stable near w = 0."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-6
    safe = np.where(small, 1.0, w)
    out = np.where(small, 1.0 + w * w / 6.0, np.sinh(safe) / safe)
    return out


def _shell_average(packet: GaussianPacket, code: int, center: np.ndarray, r):
    """Integral of the channel wavefunction over the sphere |u - center| = r.

    Returns S(r) with S(r) = integral over the full solid angle (so the
    smooth-function limit at r=0 is 4 pi psi(center)). Exact per
    Gaussian component via the bilinear shell identity.
    """
    r = np.asarray(r, dtype=float)
    total = np.zeros(r.shape, dtype=complex)
    for g in packet.components[code]:
        d = center - g.center
        v = -d / (2.0 * g.variance) + 1j * g.momentum
        xi = np.sqrt(np.sum(v * v))  # complex bilinear length
        pref = g.weight * np.exp(-(np.dot(d, d) + r * r) / (4.0 * g.variance) + 1j * np.dot(g.momentum, d))
        total = total + 4.0 * np.pi * pref * _sinhc(r * xi)
    return total


def _gaussian_green_integral_3d(packet: GaussianPacket, code: int, w: complex, center: np.ndarray) -> complex:
    """Integral of G^w(|u - center|) psi_code(u) over R^3 by radial reduction."""
    s = sqrt_upper(w)
    radius = 0.0
    for g in packet.components[code]:
        radius = max(radius, float(np.linalg.norm(center - g.center)) + g.support_radius(1e-16))
    if radius == 0.0:
        return 0.0 + 0.0j

    def integrand(r):
        return (r / (4.0 * np.pi)) * np.exp(1j * s * r) * _shell_average(packet, code, center, r)

    return _quad_complex(integrand, 0.0, radius)


def _gaussian_green_integral_1d(packet: GaussianPacket, code: int, w: complex, center: float,
                                derivative: bool = False) -> complex:
    """Integral of G^w(u - center) (or its derivative) times psi_code(u)."""
    comps = packet.components[code]
    if not comps:
        return 0.0 + 0.0j
    lo = min(float(g.center[0]) - g.support_radius(1e-16) for g in comps)
    hi = max(float(g.center[0]) + g.support_radius(1e-16) for g in comps)
    lo = min(lo, center - 1.0)
    hi = max(hi, center + 1.0)

    def integrand(u):
        kernel = (
            green_derivative_1d(w, u - center, allow_cut=True)
            if derivative
            else green(1, w, u - center, allow_cut=True)
        )
        return kernel * packet.evaluate(code, np.atleast_1d(u))[0]

    return _quad_complex(integrand, lo, hi, points=[center])


def _defect_overlaps_gaussian(dress: _Dressing, packet: GaussianPacket) -> np.ndarray:
    """s_mu = <Phi^{conj z}_mu, psi> using conj(Phi^{conj z}) = Phi^z."""
    model = dress.model
    m = dress.p.size
    out = np.zeros(m, dtype=complex)
    for mu in range(m):
        code = int(dress.code[mu])
        if not packet.components[code]:
            continue
        w = dress.z - dress.shifts[code]
        site = model.positions[dress.j[mu] - 1]
        if model.dimension == 3:
            out[mu] = _gaussian_green_integral_3d(packet, code, w, site)
        else:
            out[mu] = _gaussian_green_integral_1d(packet, code, w, float(site), derivative=bool(dress.p[mu]))
    return out


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
    phi = defect_matrix(model, dress.z, grid.points)
    out = np.zeros(dress.p.size, dtype=complex)
    for mu in range(dress.p.size):
        code = int(dress.code[mu])
        psi = state.values[code]
        val = np.sum(phi[mu] * psi * grid.weights)
        if model.dimension == 1:
            node = _node_at(grid, float(model.positions[dress.j[mu] - 1]))
            if node is not None:
                h = grid.spacing
                if dress.p[mu] == 0:
                    val -= h * h / 12.0 * psi[node]
                elif 0 < node < grid.n_points - 1:
                    dpsi = (psi[node + 1] - psi[node - 1]) / (2.0 * h)
                    val -= h * h / 12.0 * dpsi
        out[mu] = complex(val)
    return out


def _free_apply_grid_1d(model: ModelSpec, z: complex, state: GridState) -> np.ndarray:
    """Trapezoid convolution with the d=1 Green kernel on the state's own grid.

    Uniform spacing makes the kernel Toeplitz, so each channel is one
    FFT convolution; the second-order kink correction at u = x is added
    explicitly.
    """
    grid = state.grid
    n = grid.n_points
    h = grid.spacing
    lags = np.arange(-(n - 1), n) * h
    out = np.empty_like(state.values)
    shifts = model.shifts()
    kernels: dict[complex, np.ndarray] = {}
    for code in range(state.n_channels):
        w = z - shifts[code]
        if w not in kernels:
            s = sqrt_upper(w)
            kernels[w] = 1j * np.exp(1j * s * np.abs(lags)) / (2.0 * s)
        weighted = state.values[code] * grid.weights
        conv = signal.fftconvolve(kernels[w], weighted)[n - 1 : 2 * n - 1]
        out[code] = conv - h * h / 12.0 * state.values[code]
    return out


def _free_apply_grid_3d(model: ModelSpec, z: complex, state: GridState) -> np.ndarray:
    """Dense kernel application on a 3d grid; the singular node is patched.

    The diagonal cell is replaced by the analytic cell average of
    1/(4 pi r) over the volume-equivalent ball, a^2/2 with
    a = h (3/(4 pi))^(1/3).
    """
    grid = state.grid
    pts = grid.points
    n = grid.n_points
    h = grid.spacing
    ball = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    out = np.empty_like(state.values)
    shifts = model.shifts()
    block = max(1, int(2**22 // max(n, 1)))
    for code in range(state.n_channels):
        w = z - shifts[code]
        s = sqrt_upper(w)
        weighted = state.values[code] * grid.weights
        acc = np.empty(n, dtype=complex)
        for start in range(0, n, block):
            stop = min(start + block, n)
            dist = np.linalg.norm(pts[start:stop, None, :] - pts[None, :, :], axis=-1)
            kern = np.empty_like(dist, dtype=complex)
            mask = dist > 0.0
            kern[mask] = np.exp(1j * s * dist[mask]) / (4.0 * np.pi * dist[mask])
            kern[~mask] = 0.0
            acc[start:stop] = kern @ weighted
            rows, cols = np.nonzero(~mask)
            acc[start + rows] += ball * ball / 2.0 * state.values[code][cols]
        out[code] = acc
    return out


def _free_apply_gaussian(model: ModelSpec, z: complex, packet: GaussianPacket, grid: UniformGrid) -> np.ndarray:
    out = np.zeros((packet.n_channels, grid.n_points), dtype=complex)
    shifts = model.shifts()
    for code in range(packet.n_channels):
        if not packet.components[code]:
            continue
        w = z - shifts[code]
        for i in range(grid.n_points):
            if model.dimension == 1:
                out[code, i] = _gaussian_green_integral_1d(packet, code, w, float(grid.points[i]))
            else:
                out[code, i] = _gaussian_green_integral_3d(packet, code, w, np.asarray(grid.points[i]))
    return out


def apply_resolvent(model: ModelSpec, pair: BoundaryPair, z, state, grid: UniformGrid | None = None,
                    unchecked: bool = False) -> GridState:
    """Resolvent applied to a state, sampled on a grid.

    Gaussian input: defect overlaps and the free convolution are done by
    adaptive quadrature on the packet's numerical support (an output
    grid must be supplied). Grid input: the state's own trapezoid rule
    is the quadrature and the output reuses the same grid.
    """
    dress = _dress(model, pair, z, unchecked)
    z = dress.z
    coupled = bool(np.any(dress.correction != 0.0))
    if isinstance(state, GridState):
        if grid is not None and grid is not state.grid:
            raise ValueError("grid input is applied on its own grid")
        grid = state.grid
        if model.dimension == 1:
            free = _free_apply_grid_1d(model, z, state)
        else:
            free = _free_apply_grid_3d(model, z, state)
        overlaps = _defect_overlaps_grid(dress, state) if coupled else None
        n_channels = state.n_channels
    elif isinstance(state, GaussianPacket):
        if grid is None:
            raise ValueError("Gaussian input needs an output grid")
        free = _free_apply_gaussian(model, z, state, grid)
        overlaps = _defect_overlaps_gaussian(dress, state) if coupled else None
        n_channels = state.n_channels
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if n_channels != model.n_configs:
        raise ValueError("state channel count does not match the model")
    values = free
    if coupled:
        charges = dress.correction @ overlaps
        values += channel_sum(model, charges, defect_matrix(model, z, grid.points))
    return GridState(model.dimension, values, grid)


def resolvent_state_evaluator(model: ModelSpec, pair: BoundaryPair, z, state,
                              unchecked: bool = False):
    """Pointwise evaluator of (R(z) state)(x, code) for Gaussian input.

    Slower than apply_resolvent but usable at arbitrary points, e.g. for
    boundary-data extraction near the sites.
    """
    if not isinstance(state, GaussianPacket):
        raise TypeError("pointwise evaluation needs Gaussian input")
    dress = _dress(model, pair, z, unchecked)
    overlaps = _defect_overlaps_gaussian(dress, state)
    charges = dress.correction @ overlaps
    shifts = model.shifts()

    def evaluate(x, sigma) -> complex:
        code = spin_code(sigma, model.n_spins)
        w = dress.z - shifts[code]
        if model.dimension == 1:
            val = _gaussian_green_integral_1d(state, code, w, float(x))
        else:
            val = _gaussian_green_integral_3d(state, code, w, np.asarray(x, dtype=float))
        phi = defect_matrix(model, dress.z, [x] if model.dimension == 1 else [np.asarray(x)])
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


_DIRECTIONS_3D = None


def _directions_3d() -> np.ndarray:
    global _DIRECTIONS_3D
    if _DIRECTIONS_3D is None:
        offs = np.array(
            [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1) if (i, j, k) != (0, 0, 0)],
            dtype=float,
        )
        _DIRECTIONS_3D = offs / np.linalg.norm(offs, axis=1)[:, None]
    return _DIRECTIONS_3D


def extract_boundary_data(model: ModelSpec, evaluate, j: int, sigma, h0: float | None = None,
                          levels: int = 8, avoid=None):
    """Boundary data (q, f) of a wavefunction at site j in one spin channel.

    evaluate(x, code) -> complex must be defined near (but not at) the
    site. d=1 returns (q, f) with q = (q0, q1) the derivative and value
    jumps and f = (f0, f1) the averaged value and minus the averaged
    derivative. d=3 returns scalar (q, f) from the expansion
    psi = q/(4 pi |x - y_j|) + f + O(|x - y_j|).

    The probe ladder assumes evaluate is smooth near the site apart
    from the site singularity itself; avoid lists additional singular
    points (e.g. the source of a kernel column) the ladder must not
    reach.

    d=1 uses one-sided dyadic ladders with Richardson (Neville)
    extrapolation; d=3 averages 26 directions per radius (cancelling
    every odd and the l=2 angular term of the regular part) and fits
    the radial profile on the power basis r^-1 .. r^5. The singular
    channel itself contributes all powers of r, so the odd columns are
    not optional.
    """
    code = spin_code(sigma, model.n_spins)
    site = model.site(j)
    if h0 is None:
        if model.n_spins > 1:
            if model.dimension == 1:
                sep = np.min(np.abs(np.subtract.outer(model.positions, model.positions))[
                    ~np.eye(model.n_spins, dtype=bool)])
            else:
                diffs = model.positions[:, None, :] - model.positions[None, :, :]
                sep = np.min(np.linalg.norm(diffs, axis=-1)[~np.eye(model.n_spins, dtype=bool)])
            h0 = 0.2 * float(sep)
        else:
            h0 = 0.2
    if avoid is not None:
        for pt in avoid:
            if model.dimension == 1:
                d = abs(float(pt) - float(site))
            else:
                d = float(np.linalg.norm(np.asarray(pt, dtype=float) - site))
            if d == 0.0:
                raise ValueError("avoid point coincides with the probed site")
            h0 = min(h0, 0.5 * d)
    steps = h0 / 2.0 ** np.arange(levels)
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
    dirs = _directions_3d()
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


def boundary_data_from_evaluator(model: ModelSpec, evaluate, h0: float | None = None,
                                 avoid=None) -> tuple[np.ndarray, np.ndarray]:
    """Full boundary-data vectors (q, f) in the flat channel order."""
    m = model.defect_dim
    q = np.zeros(m, dtype=complex)
    f = np.zeros(m, dtype=complex)
    p, j, code = channel_tables(model)
    for site in range(1, model.n_spins + 1):
        for c in range(model.n_configs):
            qd, fd = extract_boundary_data(model, evaluate, site, c, h0=h0, avoid=avoid)
            sel = (j == site) & (code == c)  # one channel per layer p
            q[sel] = np.atleast_1d(qd)[p[sel]]
            f[sel] = np.atleast_1d(fd)[p[sel]]
    return q, f


def verify_boundary_conditions(pair: BoundaryPair, q: np.ndarray, f: np.ndarray) -> float:
    """Max-abs residual of the interface condition A q = B f."""
    return float(np.max(np.abs(pair.A @ q - pair.B @ f)))
