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
from .greens import _check_energy, _green_at, sqrt_upper
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
    kappa and waves: the bilinear Gram matrix int Phi^z_mu Phi^z_nu. Under
    paired, z and sel are 1-D arrays of one length and block sel[i] is
    evaluated at z[i] only: the result is (1 + gram, len(z), k, k).

    The layers are written once, in kappa = -i sqrt_upper(z - a_l):
    e^{-kappa r}/(4 pi r) in d=3 and e^{-kappa |x|}/(2 kappa) in d=1 with
    its layers. The branches differ only in kappa's dtype: a real-dtype z
    below the lowest level takes kappa = sqrt(a_l - z) > 0, and the result
    is float64; any other z takes it in complex128, once z is off the cut.
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
    scale = 4.0 * np.pi * np.where(off, dist, 1.0)
    real = (scale, sign, dist, levels)  # with complex copies: numpy would cast these on every complex evaluation
    operands = {np.dtype(float): real, np.dtype(complex): tuple(v.astype(complex) for v in real)}

    def evaluate(z, sel=None, gram=False, paired=False):
        z = np.asarray(z)
        below = np.isrealobj(z) and np.all(z < levels[0])
        z = z.astype(float if below else complex)
        scale, sign, dist, shifts = operands[z.dtype]
        w = z[..., None] - shifts
        if below:
            kappa = np.sqrt(-w)
        else:
            s = sqrt_upper(w)
            if np.count_nonzero(s.imag) < s.size:  # Im s = 0 only on [0, inf), where the lowest level's w is too
                for w0 in w[..., 0].ravel():
                    _check_energy(w0, False)
            kappa = -(1j * s)
        kappa = kappa[..., None, None]
        e = np.exp(-kappa * dist)
        if model.dimension == 3:  # Gram: the diagonal is the r = 0 case of e^{-kappa r}/(8 pi kappa)
            parts = [np.where(off, -e / scale, kappa / (4.0 * np.pi))] + ([e / (8.0 * np.pi * kappa)] if gram else [])
        else:  # the (p, p') layers in row-major order, then under gram minus their d/dz
            g, gp = e / (2.0 * kappa), sign * e / 2.0
            parts = [-g, -gp, gp, -w[..., None, None] * g]
            if gram:
                dgp = sign * dist * e / (4.0 * kappa)
                parts += [e * (kappa * dist + 1.0) / (4.0 * kappa**3), dgp, -dgp, e * (1.0 - kappa * dist) / (4.0 * kappa)]
        table = np.zeros((1 + gram,) + z.shape + (levels.size + 1, layers**2, n, n), dtype=z.dtype)
        for k, lay in enumerate(parts):
            table[k // layers**2, ..., :-1, k % layers**2, :, :] = lay
        table = table.reshape(table.shape[:-4] + (-1,))
        if paired:
            return table[:, np.arange(z.size)[:, None, None], at[sel]]
        return table.take(at if sel is None else at[sel], axis=-1)

    return evaluate


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
    take Gamma on the charged blocks of the pair's spin frame only.
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


def invert_dressed(dressed, rhs, z=None, inert=()):
    """Solve dressed X = rhs block by block; raises NearPoleError past a 2-norm condition number of 1e12.

    dressed and rhs are sequences of (g, k, k) stacks, the diagonal
    blocks of a block-diagonal matrix D, or of (n_z, g, k, k) stacks, one
    such matrix per node (rhs may stay (g, k, k)). inert lists the moduli
    of further 1 x 1 diagonal blocks, the same at every node, that take
    no solve. Each stack takes one batched solve, and each node is gated
    on b = max_b ||D_b||_F max_b ||D_b^-1||_F from it (_extremes), with
    kappa_2(D) <= b <= k kappa_2(D), k the largest block. X solves
    (D + E) X = rhs with ||E||_2 <= delta ||D||_2, delta = k^2 eps to first
    order, so sigma_min(D) >= sigma_min(D + E) - ||E||_2 gives kappa_2(D)
    <= b / (1 - delta b), at most the limit L wherever b <= L / (1 + delta
    L). A node past that, a bound that is not finite or an exactly singular
    block sends every stack to a values-only SVD, whose exact values gate
    and name the first node past L, by its entry of z when given. Returns
    the solutions and, per node, the bound or the SVD's exact kappa_2.
    """
    try:
        solved = [np.linalg.solve(d, b) for d, b in zip(dressed, rhs)]
        cond = _condition([_extremes(d, b, x) for d, b, x in zip(dressed, rhs, solved)], z, inert)[1]
    except np.linalg.LinAlgError:  # an exactly singular block: the SVD names its node
        solved, cond = None, np.inf
    delta = max((d.shape[-1] for d in dressed), default=1) ** 2 * np.finfo(float).eps
    if not np.all(cond <= CONDITION_LIMIT / (1.0 + delta * CONDITION_LIMIT)):  # NaN fails too
        smallest, cond = _condition([np.linalg.svd(d, compute_uv=False) for d in dressed], z, inert)
        bad = np.flatnonzero(cond > CONDITION_LIMIT)
        if bad.size:
            node = bad[0]
            at = None if z is None else complex(np.ravel(z)[node])
            raise NearPoleError(at, float(np.ravel(smallest)[node]), float(np.ravel(cond)[node]))
    if solved is None:  # singular to the LU yet within the limit to the SVD
        raise np.linalg.LinAlgError("Singular matrix")
    return solved, (float(cond) if cond.ndim == 0 else cond)


def _extremes(d, b, x):
    """(||d||_F, 1 / ||d^-1||_F) per matrix of a stack, bounds on its extreme singular values, from x = d^-1 b."""
    # b with one nonzero per row and column (every preset's B_JJ): ||d^-1||_F is that of x, each column over its entry
    monomial = all((np.count_nonzero(b, axis=axis) == 1).all() for axis in (-1, -2))
    inv = x / np.abs(b).sum(axis=-2)[..., None, :] if monomial else np.linalg.inv(d)
    d, inv = (np.ascontiguousarray(v, dtype=complex).view(float) for v in (d, inv))
    return np.sqrt(np.stack([np.einsum("...ij,...ij->...", d, d), 1.0 / np.einsum("...ij,...ij->...", inv, inv)], -1))


def _condition(values, z, inert):
    """(smallest, largest / smallest) per node from inert and stacks of block values ordered largest to smallest."""
    # with no stack to factor, an empty one of z's node shape carries that shape
    values = values or [np.empty(np.shape(z) + (0, 1))]
    smallest = np.concatenate([v[..., -1] for v in values], axis=-1).min(axis=-1, initial=min(inert, default=np.inf))
    largest = np.concatenate([v[..., 0] for v in values], axis=-1).max(axis=-1, initial=max(inert, default=0.0))
    return smallest, np.divide(largest, smallest, out=np.full_like(largest, np.inf), where=smallest > 0.0)


@dataclass
class _Dressing:
    """Per-(model, pair, z) factorized data for kernel evaluations.

    The dressing runs in the pair's spin frame U (BoundaryPair.frame), on
    its charged channels J: solved holds, per group of frame.charged, the
    (g, r, r) stack of the blocks of D_J^{-1} B_JJ, which is U* C U on J
    for the correction C = (B Gamma + A)^{-1} B; C is 0 on every inert
    channel's row and column. charges maps vectors through U and each
    stack on its group's indices, and leaves the inert charges exactly 0.
    Kernel rows hold a source on one spin code and read one code, so they
    apply U per code (sources, _on_codes) instead of rotating all m
    channels. For a 1-D array of z, z, solved and condition carry a leading
    node axis; the kernel (rows, column, all rows in one pass) needs one node.
    """

    model: ModelSpec
    z: complex | np.ndarray
    frame: SpinFrame
    solved: list  # per charged block group: the blocks of U* (Gamma^AB)^{-1} B U on J
    condition: float | np.ndarray  # invert_dressed's bound on the 2-norm condition number, per node
    roots: np.ndarray | None = None  # sqrt_upper(z - a_l) per (node and) distinct shift l, from _dress

    def charges(self, overlaps, adjoint: bool = False) -> np.ndarray:
        """C s for overlap vectors s on the last axis of overlaps, one per node; C* s under adjoint."""
        return self.frame.rotate(self._solve(self.frame.rotate(overlaps, adjoint=True), adjoint))

    def _solve(self, inner, adjoint: bool = False) -> np.ndarray:
        """U* C U applied to vectors on the last axis of inner: each stack on its group's indices, 0 elsewhere."""
        out = np.zeros(np.shape(inner), dtype=complex)
        for g, x in zip(self.frame.charged, self.solved):
            x = x.conj().swapaxes(-1, -2) if adjoint else x
            out[..., g.index] = np.matmul(x, inner[..., g.index, None])[..., 0]
        return out

    def values(self, points, codes) -> np.ndarray:
        """phi_mu(points[i]) on the k channels of code codes[i] only, flat order: (R, k); one _defect_factors call."""
        scale, wave, layer, level = _defect_factors(self.model, points, self.roots)
        lv, at = level[codes], np.arange(len(codes))
        phi = wave[:, :, lv, at] * layer[:, :, 0]  # (P, N, R); a d=1 layer (1 or -sgn/2) scales exactly, d=3 scale is 1
        return (phi if self.model.dimension == 3 else scale[:, :, lv, 0] * phi).reshape(-1, at.size).T

    def sources(self, phi, codes_p) -> np.ndarray:
        """U* C s_i for source vectors s_i = phi[i] on the channels of code codes_p[i]: (R, k, 2^N), (p, j) by code.

        U* s_i is phi[i] times conj(row codes_p[i]) of U's code matrix
        (SpinFrame.code_rows), or phi[i] on code codes_p[i] alone when U = I.
        """
        u, at = self.frame.code_rows(codes_p), np.arange(len(codes_p))
        if u is None:
            inner = np.zeros(phi.shape + (self.model.n_configs,), dtype=complex)
            inner[at, :, codes_p] = phi
        else:
            inner = phi[:, :, None] * u.conj()[:, None, :]
        return self._solve(inner.reshape(at.size, -1)).reshape(inner.shape)

    def _on_codes(self, sources, codes) -> np.ndarray:
        """(U sources[i]) on the channels of code codes[i] for every row: (R, k), one spin code each."""
        u = self.frame.code_rows(codes)
        if u is None:
            return sources[np.arange(len(codes)), :, codes]
        return np.matmul(sources, u[:, :, None])[..., 0]

    def rows(self, x, codes, xp, codes_p, sources=None) -> np.ndarray:
        """K(x_i, codes[i]; xp_i, codes_p[i]) of every row i in one pass; x and xp are (R,) in d=1, (R, 3) in d=3.

        Without given sources (those of xp, codes_p), every row is checked
        first: a source at a site, a point at one, then d=3 x = x' in one
        code raise; one _defect_factors call then serves both sides.
        """
        r = len(codes)
        if sources is None:
            _check_sites(self.model, xp, "source point coincides with a spin site")
            _check_sites(self.model, x, "evaluation point coincides with a spin site")
            same = codes == codes_p
            if self.model.dimension == 3 and (x[same] == xp[same]).all(axis=-1).any():
                raise ValueError("d=3 Green function is singular at zero displacement")
            phi = self.values(np.concatenate([x, xp]), np.concatenate([codes, codes_p]))
            phi, sources = phi[:r], self.sources(phi[r:], codes_p)
        else:
            phi = self.values(x, codes)
        return self._kernel(self._weights(sources, codes, codes_p), phi, x - xp)

    def _weights(self, sources, codes, codes_p):
        """The per-code part of each row: its weights C phi(xp_i) on code codes[i] only (_on_codes), the rows
        of equal codes and the root s_l of their G term (green's sqrt_upper(z - a.s))."""
        same = (codes == codes_p).nonzero()[0]
        return self._on_codes(sources, codes), same, self.roots[self.model.distinct_shifts()[1][codes[same]]]

    def _kernel(self, weights, phi, disp) -> np.ndarray:
        """The one K formula: each row's weights against phi(x_i), summed in channel_sum's order; equal codes
        add G(x_i - xp_i), disp the displacements."""
        on_codes, same, s = weights
        out = np.einsum("rk,rk->r", on_codes, phi)
        if same.size:
            out[same] += _green_at(self.model.dimension, s, disp[same])
        return out

    def column(self, xp, sigmap):
        """Closure evaluating K(x, sigma; xp, sigmap): the source side once, each code's weights on its first
        point, then each point one values call and one _kernel."""
        model, code_p, xp = self.model, np.array([spin_code(sigmap, self.model.n_spins)]), np.asarray(xp, float)[None]
        _check_sites(model, xp, "source point coincides with a spin site")
        sources = self.sources(self.values(xp, code_p), code_p)
        weights = {}

        def evaluate(x, sigma) -> complex:
            x, code = np.asarray(x, dtype=float)[None], np.array([spin_code(sigma, model.n_spins)])
            if model.dimension == 1:  # d=3: _defect_factors rejects x at a site, green x = x'
                _check_sites(model, x, "evaluation point coincides with a spin site")
            if code[0] not in weights:
                weights[code[0]] = self._weights(sources, code, code_p)
            return complex(self._kernel(weights[code[0]], self.values(x, code), x - xp)[0])

        return evaluate


def _check_sites(model: ModelSpec, points, message: str) -> None:
    """Raise ValueError(message) where a point of an (R,) (d=1) or (R, 3) (d=3) array is a spin site."""
    equal = points[:, None] == model.positions
    if (equal.all(axis=-1) if model.dimension == 3 else equal).any():
        raise ValueError(message)


def _dress(model: ModelSpec, pair: BoundaryPair, z, unchecked: bool = False) -> _Dressing:
    """Gamma(z), its dressing and the correction, on the charged blocks of the pair's spin frame.

    U commutes with Gamma(z), so U* (B Gamma + A) U = B' Gamma + A' on the
    frame's blocks, with (A', B') = (U* A U, U* B U). An inert channel of
    (A', B') (boundary._charged_blocks) has zero charge at every z, so
    only D_J = B'_JJ Gamma_JJ + A'_JJ on the charged channels J is formed,
    one Gamma stack per group of frame.charged, and solved against B'_JJ.
    The condition number is invert_dressed's bound for D_J's blocks and
    each inert |a_i| (the dressed matrix without its coupling of J to the
    inert channels, whose kappa_2 is at most that of B Gamma + A). z is
    one energy or a 1-D array of nodes, dressed as (n_z, g, r, r) stacks.
    """
    require_valid(model, pair, unchecked)
    z = np.asarray(z, dtype=complex)
    z = complex(z) if z.ndim == 0 else z
    return _dress_gamma(model, pair, z, [_gamma_plan(model, g.index)(z)[0] for g in pair.frame(model).charged],
                        sqrt_upper(np.asarray(z)[..., None] - model.distinct_shifts()[0]))


def _dress_gamma(model: ModelSpec, pair: BoundaryPair, z, gammas: list, roots=None) -> _Dressing:
    """_dress on given Gamma(z) stacks, one per group of the frame's charged blocks, for a pair its caller has gated."""
    frame = pair.frame(model)
    dressed = [gamma_dressed(g, gamma) for g, gamma in zip(frame.charged, gammas)]
    return _Dressing(model, z, frame, *invert_dressed(dressed, [g.B for g in frame.charged], z, frame.inert), roots)


def _defect_factors(model: ModelSpec, points, s):
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
    (..., 1, N, L, n_points), layer (P, N, 1, n_points), level (C,); s is
    s_l per l, or (n_z, L) for a node array, whose axis leads scale and wave.
    """
    level = model.distinct_shifts()[1]
    s = s[..., None, None, :, None]
    pts = np.asarray(points, dtype=float)
    if model.dimension == 3:
        r = np.sqrt(np.add.reduce((pts.reshape(1, -1, 3) - model.positions[:, None, :]) ** 2, axis=-1))[:, None, :]
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
    s = sqrt_upper(np.asarray(z, dtype=complex)[..., None] - model.distinct_shifts()[0])
    scale, wave, layer, level = _defect_factors(model, points, s)
    phi = (scale * wave * layer).take(level, axis=-2)
    return phi.reshape(phi.shape[:-4] + (-1, phi.shape[-1]))


def resolvent_kernel(model: ModelSpec, pair: BoundaryPair, z, x, sigma, xp, sigmap,
                     unchecked: bool = False) -> complex:
    """Kernel of the dressed resolvent at one pair of space-spin points: one row of _Dressing.rows.

    sigma and sigmap are spin configurations (arrays of +-1) or their
    bit codes. Evaluation exactly at a spin site is an error.
    """
    return kernel_evaluator(model, pair, z, xp, sigmap, unchecked)(x, sigma)


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
        exp(-a y^2 + is y + c0) over y > 0 replaces it, formed only when
        some point needs it.
    Both half-line integrals of a component are one _half_line call on
    their stacked arguments: one Faddeeva pass.
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
            b = np.stack([dc / (2.0 * v) + 1j * (s + k), -dc / (2.0 * v) + 1j * (s - k)])
            hp, hm = g.weight * _half_line(a, b, c)
            out[..., 0, :] += 1j / (2.0 * s) * (hp + hm)
            out[..., 1, :] -= (hp - hm) / 2.0
            continue
        dx = x - g.center
        q = -dx / (2.0 * v) + 1j * g.momentum
        xi2 = np.sum(q * q, axis=-1)  # complex bilinear length squared
        c0 = -a * np.sum(dx * dx, axis=-1) + 1j * (dx @ g.momentum)
        small = np.abs(v * xi2) < 1e-6
        xi = np.sqrt(np.where(small, 1.0, xi2))
        hp, hm = _half_line(a, np.stack([1j * s + xi, 1j * s - xi]), c0)
        quotient = (hp - hm) / (2.0 * xi)
        if small.any():  # integration by parts: M_{n+1} = 2v (n M_{n-1} + is M_n), with e^c0 for n M_{n-1} at n = 0
            m0 = _half_line(a, 1j * s, c0)
            m1 = 2.0 * v * (np.exp(c0) + 1j * s * m0)
            m2 = 2.0 * v * (m0 + 1j * s * m1)
            m3 = 2.0 * v * (2.0 * m1 + 1j * s * m2)
            quotient = np.where(small, m1 + xi2 * m3 / 6.0, quotient)
        out[..., 0, :] += g.weight * quotient
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
    charges = _gaussian_charges(dress, state)[channel_blocks(model)]
    levels, level = model.distinct_shifts()

    def evaluate(x, sigma) -> complex:
        code, pts = spin_code(sigma, model.n_spins), np.asarray(x, dtype=float)[None]
        val = _gaussian_green(state, code, dress.z - levels[level[code]], pts, complex(dress.roots[level[code]]))[0, 0]
        return complex(val + np.einsum("rk,rk->r", charges[[code]], dress.values(pts, [code]))[0])

    return evaluate


# ---------------------------------------------------------------------------
# boundary data


LADDER_LEVELS = 8  # dyadic probe radii per site


def _ladder_fit(t: np.ndarray, samples: np.ndarray, powers) -> np.ndarray:
    """Least-squares coefficients of samples (one column per ladder) on the powers t**k."""
    basis = np.stack([t**k for k in powers], axis=1)
    coef, *_ = np.linalg.lstsq(basis, samples, rcond=None)
    return coef


def _probe_radius(model: ModelSpec, j: int, avoid) -> float:
    """h0 of site j: a fifth of the smallest site separation (0.2 for one site), at most half the distance to
    each avoid point; an avoid point at the site raises."""
    site = model.site(j)
    h0 = 0.2
    if model.n_spins > 1:
        pos = model.positions.reshape(model.n_spins, -1)
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        h0 *= float(np.min(dist[~np.eye(model.n_spins, dtype=bool)]))
    for pt in avoid if avoid is not None else ():
        d = float(np.linalg.norm(np.asarray(pt, dtype=float) - site))
        if d == 0.0:
            raise ValueError("avoid point coincides with the probed site")
        h0 = min(h0, 0.5 * d)
    return h0


def _boundary_ladders(model: ModelSpec, evaluate, sites, codes, avoid):
    """(q, f) of evaluate at every site of sites in every code of codes, as extract_boundary_data describes them.

    Returns (S, C, layers) arrays; d=3 has one layer. h0 is set once per
    site, each probe is one evaluate call, and every ladder is fitted in
    one _ladder_fit call on the shared basis t^k.
    """
    h0 = np.array([_probe_radius(model, j, avoid) for j in sites])
    t = 2.0 ** -np.arange(LADDER_LEVELS)
    if model.dimension == 1:  # one column per side; t^0 and t^1 give the one-sided value and h0 * slope
        probe, powers = lambda y, hr, code: [evaluate(y + hr, code), evaluate(y - hr, code)], range(LADDER_LEVELS)
    else:
        # +-e_x, +-e_y, +-e_z form a spherical 3-design: their average cancels
        # the l = 1, 2, 3 angular terms of the regular part
        axes = np.vstack([np.eye(3), -np.eye(3)])
        probe, powers = lambda y, hr, code: [np.mean([evaluate(pt, code) for pt in y + hr * axes])], range(-1, 6)
    samples = np.array([[[probe(y, h * r, code) for r in t] for code in codes]
                        for y, h in zip(model.positions[np.asarray(sites) - 1], h0)])  # (S, C, radius, column)
    coef = _ladder_fit(t, np.moveaxis(samples, 2, 0).reshape(t.size, -1), powers)[:2]
    coef = coef.reshape(2, *samples.shape[:2], -1)  # the two lowest powers per (S, C, column)
    if model.dimension == 3:
        return 4.0 * np.pi * h0[:, None, None] * coef[0], coef[1]
    (vp, vm), (sp, sm) = np.moveaxis(coef, -1, 1)
    dp, dm = sp / h0[:, None], -sm / h0[:, None]
    return np.stack([dm - dp, vm - vp], -1), np.stack([(vp + vm) / 2.0, -(dp + dm) / 2.0], -1)


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
    q, f = _boundary_ladders(model, evaluate, [j], [spin_code(sigma, model.n_spins)], avoid)
    return (q[0, 0], f[0, 0]) if model.dimension == 1 else (complex(q[0, 0, 0]), complex(f[0, 0, 0]))


def boundary_data_from_evaluator(model: ModelSpec, evaluate, avoid=None) -> tuple[np.ndarray, np.ndarray]:
    """Full boundary-data vectors (q, f) in the flat channel order: extract_boundary_data at every site and
    code, with every ladder in one fit."""
    p, j, code = channel_tables(model)
    ladders = _boundary_ladders(model, evaluate, range(1, model.n_spins + 1), range(model.n_configs), avoid)
    return tuple(v[j - 1, code, p].astype(complex, copy=False) for v in ladders)  # complex for a real evaluate too


def verify_boundary_conditions(pair: BoundaryPair, q: np.ndarray, f: np.ndarray) -> float:
    """Max-abs residual of the interface condition: max |A q - B f|, with the m x m A and B."""
    return float(np.max(np.abs(pair.A @ q - pair.B @ f)))
