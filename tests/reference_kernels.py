"""Independent oracles for the solvable special cases.

Everything in this module is written directly from closed-form
expressions for a single spin (or a single spinless center), without
going through the generic channel-matrix machinery. The generic solver
is tested against these, never the other way round. Tests validate the
oracles themselves by checking boundary conditions with plain finite
differences.

Also provides the d=1 Green-function derivative and the closed-form
overlap of two Green functions, brute-force quadrature oracles
(free-resolvent overlaps, two-center product integrals) used to
cross-check the fast paths in the main package, the presets' boundary
pairs as dense m x m matrices, built entry by entry, against which the
presets' sparse entries are checked, the validation report as a loop
over a pair's components and the spin frame's bases site by site,
against which the site-table paths of local pairs are checked, the
dense correction matrix of a dressing, the dressing restricted to the
charged channels from dense A and B, the kernel from one dense Krein
solve, and the spectral evolution's cut correction summed node by node.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import integrate, optimize

from spinpoint.boundary import FRAME_RTOL, HERMITICITY_RTOL, RANK_RTOL, ValidationReport, is_local
from spinpoint.greens import _check_energy, _dist, green, sqrt_upper
from spinpoint.spins import channel_tables


# ---------------------------------------------------------------------------
# free Green-function oracles
# ---------------------------------------------------------------------------

def green_derivative_1d(w, x, allow_cut: bool = False):
    """Spatial derivative of the d=1 Green function: -sgn(x)*exp(i*sqrt(w)|x|)/2.

    Undefined at x=0 (jump discontinuity); raises there.
    """
    w = _check_energy(w, allow_cut)
    s = sqrt_upper(w)
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("d=1 Green derivative has a jump at x=0")
    val = -np.sign(x) * np.exp(1j * s * np.abs(x)) / 2.0
    if val.ndim == 0:
        return complex(val)
    return val


def green_overlap(d: int, z, w, x, allow_cut: bool = False):
    """Pair overlap of Green functions centered a displacement x apart.

    Evaluates integral of G^z(u - y) * G^w(u - y') over u, with
    x = y - y', via the resolvent difference identity

        (G^z(x) - G^w(x)) / (z - w),

    which stays finite at coinciding centers: for d=3 and x=0 the limit
    i*(sqrt(z) - sqrt(w))/(4*pi*(z - w)) is used. Requires z != w.
    """
    z = _check_energy(z, allow_cut)
    w = _check_energy(w, allow_cut)
    if z == w:
        raise ValueError("overlap formula needs distinct energies z != w")
    r = _dist(d, x)
    if d == 3 and np.all(r == 0.0):
        return 1j * (sqrt_upper(z) - sqrt_upper(w)) / (4.0 * np.pi * (z - w))
    if d == 3 and np.any(r == 0.0):
        raise ValueError("mixed zero and nonzero displacements not supported")
    return (green(d, z, x, allow_cut) - green(d, w, x, allow_cut)) / (z - w)


# ---------------------------------------------------------------------------
# closed-form one-spin resolvents, d = 3
# ---------------------------------------------------------------------------

def delta_kernel_3d(z, alpha, beta_plus, beta_minus, x, code, xp, codep, y):
    """Spin-diagonal contact interaction, one spin at y, strengths per channel.

    Channel code 0 is spin up (Zeeman shift +alpha), code 1 is spin down.
    The kernel is diagonal in the spin: each channel sees an ordinary
    one-center point interaction at the shifted energy.
    """
    if code != codep:
        return 0.0j
    shift = alpha if code == 0 else -alpha
    w = z - shift
    s = sqrt_upper(w)
    beta = beta_plus if code == 0 else beta_minus
    coeff = 4.0j * np.pi / (s + 4.0j * np.pi * beta)
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    y = np.asarray(y, dtype=float)
    return green(3, w, x - xp, allow_cut=True) \
        + coeff * green(3, w, x - y, allow_cut=True) * green(3, w, y - xp, allow_cut=True)


def offdiag_kernel_3d(z, alpha, bhat_plus, bhat_minus, x, code, xp, codep, y,
                      printed_sign: bool = False):
    """Spin-flipping contact interaction, one spin at y.

    With printed_sign=False the common denominator is
        D = (4 pi)^2 bhat_plus bhat_minus + s_plus s_minus,
    the combination consistent with det(B Gamma + A) and with a direct
    solve of the boundary conditions. printed_sign=True flips the
    relative sign between the two terms; that variant is kept only so
    tests can demonstrate it violates the boundary conditions.
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    y = np.asarray(y, dtype=float)
    s_p = sqrt_upper(z - alpha)
    s_m = sqrt_upper(z + alpha)
    prod = (4.0 * np.pi) ** 2 * bhat_plus * bhat_minus
    denom = (prod - s_p * s_m) if printed_sign else (prod + s_p * s_m)

    def g_up(a, b):
        return green(3, z - alpha, a - b, allow_cut=True)

    def g_dn(a, b):
        return green(3, z + alpha, a - b, allow_cut=True)

    if code == 0 and codep == 0:
        return g_up(x, xp) + 4.0j * np.pi * s_m / denom * g_up(x, y) * g_up(y, xp)
    if code == 1 and codep == 1:
        return g_dn(x, xp) + 4.0j * np.pi * s_p / denom * g_dn(x, y) * g_dn(y, xp)
    if code == 0 and codep == 1:
        return 1.0j * (4.0 * np.pi) ** 2 * bhat_plus / denom * g_up(x, y) * g_dn(y, xp)
    return -1.0j * (4.0 * np.pi) ** 2 * bhat_minus / denom * g_dn(x, y) * g_up(y, xp)


def offdiag_bound_energy(bhat: float) -> float:
    """Bound-state energy of the spin-flip pair with equal strengths, alpha = 0.

    The denominator (4 pi)^2 bhat^2 + s^2 with s = i sqrt(|E|) vanishes
    at |E| = (4 pi bhat)^2.
    """
    return -((4.0 * np.pi) ** 2) * bhat * bhat


def delta_bound_energy_3d(beta: float) -> float:
    # root of s + 4 pi i beta with s = i sqrt(|E|), needs beta < 0
    if beta >= 0:
        raise ValueError("no bound state for beta >= 0")
    return -((4.0 * np.pi * beta) ** 2)


# ---------------------------------------------------------------------------
# closed-form one-center resolvents, d = 1 (spinless building blocks)
# ---------------------------------------------------------------------------

def delta_kernel_1d(z, beta, x, xp, y=0.0):
    """One delta well of strength beta at y: psi'(y+) - psi'(y-) = beta psi(y).

    Derivation: K = G + c G(x - y) keeps the value continuous; the jump
    of dG/du across 0 equals -1, so the derivative jump is -c and the
    condition -c = beta (G(y - xp) + c G(0)) fixes c.
    """
    g0 = green(1, z, 0.0, allow_cut=True)
    coeff = -beta / (1.0 + beta * g0)
    return green(1, z, x - xp, allow_cut=True) \
        + coeff * green(1, z, x - y, allow_cut=True) * green(1, z, y - xp, allow_cut=True)


def delta_prime_kernel_1d(z, gamma, x, xp, y=0.0):
    """One derivative-coupled center: psi(y+) - psi(y-) = gamma psi'(y).

    K = G + c G'(x - y) has the derivative continuous (G'' = -z G away
    from 0 on both sides), a value jump of -c, and the condition
    -c = gamma (G'(y - xp) - c z G(0)) gives c.
    """
    g0 = green(1, z, 0.0, allow_cut=True)
    coeff = gamma / (1.0 - gamma * z * g0)
    return green(1, z, x - xp, allow_cut=True) \
        + coeff * green_derivative_1d(z, x - y) * green_derivative_1d(z, xp - y)


def delta_bound_energy_1d(beta: float) -> float:
    if beta >= 0:
        raise ValueError("no bound state for beta >= 0")
    return -beta * beta / 4.0


def delta_prime_bound_energy_1d(gamma: float) -> float:
    if gamma >= 0:
        raise ValueError("no bound state for gamma >= 0")
    return -4.0 / (gamma * gamma)


# ---------------------------------------------------------------------------
# two equal contact sites at distance r, one spin channel: even/odd levels
# ---------------------------------------------------------------------------

def two_site_bound_energies_3d(beta: float, r: float) -> list[float]:
    """Levels of two d=3 contact sites of strength beta, ascending.

    With the even/odd charge combinations the 2 x 2 condition splits
    into kappa/4pi -+ e^{-kappa r}/(4 pi r) + beta = 0, E = -kappa^2.
    The even root exists for beta < 1/(4 pi r), the odd one for
    beta < -1/(4 pi r).
    """
    energies = []
    for sign in (1.0, -1.0):
        def cond(k):
            return k / (4.0 * np.pi) - sign * np.exp(-k * r) / (4.0 * np.pi * r) + beta
        hi = 4.0 * np.pi * abs(beta) + 1.0 / r + 1.0
        if cond(0.0) < 0.0:
            energies.append(-optimize.brentq(cond, 0.0, hi, xtol=1e-15, rtol=1e-15) ** 2)
    return sorted(energies)


def two_site_bound_energies_1d(beta: float, r: float) -> list[float]:
    """Levels of two d=1 delta wells of strength beta < 0, ascending.

    kappa = -(beta/2)(1 +- e^{-kappa r}); the odd root (minus sign)
    exists only for |beta| r / 2 > 1 and lies right of the minimum of
    kappa + (beta/2)(1 - e^{-kappa r}), at kappa = log(|beta| r / 2) / r.
    """
    energies = []
    for sign in (1.0, -1.0):
        def cond(k):
            return k + 0.5 * beta * (1.0 + sign * np.exp(-k * r))
        if sign < 0.0 and abs(beta) * r / 2.0 <= 1.0:
            continue
        lo = 0.0 if sign > 0.0 else np.log(abs(beta) * r / 2.0) / r
        energies.append(-optimize.brentq(cond, lo, abs(beta) + 1.0, xtol=1e-15, rtol=1e-15) ** 2)
    return sorted(energies)


def delta_chain_levels_1d(alpha, beta: float) -> list[float]:
    """Levels of d=1 delta wells of strength beta < 0 far apart, one spin 1/2 at each, ascending.

    Each well binds alone at kappa = -beta/2 in every spin configuration
    sigma, so the levels are alpha . sigma - beta^2/4, each as many-fold
    as there are wells (the intersite corrections go like e^{-kappa r}).
    """
    return sorted(float(np.dot(alpha, s)) + delta_bound_energy_1d(beta)
                  for s in itertools.product([1, -1], repeat=len(alpha)))


# ---------------------------------------------------------------------------
# dense preset pairs: the m x m constructions the sparse presets replace
# ---------------------------------------------------------------------------

def _dense_table(values, n_spins):
    table = np.asarray(values, dtype=float)
    return np.broadcast_to(table if table.ndim == 2 else table[..., None], (n_spins, 2))


def dense_preset_free(model):
    """(A, B) = (I, 0)."""
    m = model.defect_dim
    return np.eye(m, dtype=complex), np.zeros((m, m), dtype=complex)


def dense_preset_delta(model, beta, paper_literal=False):
    """Diagonal (A, B) of the contact interaction of strength beta[j, sigma_j]."""
    m = model.defect_dim
    table = _dense_table(beta, model.n_spins)
    p, j, code = channel_tables(model)
    spin_col = (code >> (j - 1)) & 1
    if model.dimension == 3:
        return np.diag(table[j - 1, spin_col]).astype(complex), np.eye(m, dtype=complex)
    B = np.zeros((m, m), dtype=complex)
    idx = np.flatnonzero(p == 0)
    B[idx, idx] = (-2.0 if paper_literal else -1.0) * table[j[idx] - 1, spin_col[idx]]
    return np.eye(m, dtype=complex), B


def dense_preset_offdiag(model, betahat):
    """(A, B) of the spin-flip interaction, each channel linked to the one with sigma_j flipped."""
    m = model.defect_dim
    table = _dense_table(betahat, model.n_spins)
    p, j, code = channel_tables(model)
    spin_col = (code >> (j - 1)) & 1
    sigma_j = 1 - 2 * spin_col
    # partner: same layer and site, code with bit j - 1 flipped, found by search
    key = {(int(a), int(b), int(c)): mu for mu, (a, b, c) in enumerate(zip(p, j, code))}
    partner = np.array([key[int(p[mu]), int(j[mu]), int(code[mu]) ^ (1 << int(j[mu] - 1))] for mu in range(m)])
    if model.dimension == 3:
        A = np.zeros((m, m), dtype=complex)
        A[np.arange(m), partner] = sigma_j * 1j * table[j - 1, spin_col]
        return A, np.eye(m, dtype=complex)
    B = np.zeros((m, m), dtype=complex)
    idx = np.flatnonzero(p == 0)
    B[idx, partner[idx]] = -2.0 * sigma_j[idx] * 1j * table[j[idx] - 1, spin_col[idx]]
    return np.eye(m, dtype=complex), B


def dense_preset_delta_prime(model, gamma):
    """d=1 (A, B) = (I, diag(gamma_j) on the dipole layer)."""
    m = model.defect_dim
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (model.n_spins,))
    p, j, _ = channel_tables(model)
    B = np.zeros((m, m), dtype=complex)
    idx = np.flatnonzero(p == 1)
    B[idx, idx] = gamma[j[idx] - 1]
    return np.eye(m, dtype=complex), B


# ---------------------------------------------------------------------------
# brute-force quadrature oracles
# ---------------------------------------------------------------------------

def quad_complex(fn, a, b, **kw):
    re = integrate.quad(lambda t: fn(t).real, a, b, **kw)[0]
    im = integrate.quad(lambda t: fn(t).imag, a, b, **kw)[0]
    return re + 1.0j * im


def overlap_green_1d(z, fn_state, site, lo, hi, derivative=False):
    """integral G_z(site - x) (or its site-derivative) fn_state(x) dx.

    fn_state maps a scalar to a complex value; integration runs over
    [lo, hi], which must cover the state's support.
    """
    def fn(t):
        if derivative:
            if t == site:
                return 0.0j
            gval = green_derivative_1d(z, site - t)
        else:
            gval = green(1, z, site - t)
        return gval * complex(fn_state(t))

    kw = {"limit": 400}
    if lo < site < hi:
        kw["points"] = [site]
    return quad_complex(fn, lo, hi, **kw)


def overlap_green_3d(z, fn_state, site, rmax, n_radial=600, n_theta=24):
    """integral G_z(site - x) fn_state(x) d^3x by radial Gauss-Legendre
    times a product rule on the sphere (Gauss on cos theta, trapezoid on
    phi), centered on the site so the 1/r factor is removable.

    fn_state maps an (n, 3) array to n complex values; rmax must cover
    the state's support as seen from the site.
    """
    y = np.asarray(site, dtype=float)
    rs, wr = np.polynomial.legendre.leggauss(n_radial)
    rs = 0.5 * rmax * (rs + 1.0)
    wr = 0.5 * rmax * wr
    ct, wt = np.polynomial.legendre.leggauss(n_theta)
    st = np.sqrt(1.0 - ct ** 2)
    phis = np.linspace(0.0, 2.0 * np.pi, 2 * n_theta, endpoint=False)
    wphi = 2.0 * np.pi / (2 * n_theta)
    dirs = np.stack([np.outer(st, np.cos(phis)).ravel(),
                     np.outer(st, np.sin(phis)).ravel(),
                     np.repeat(ct, phis.size)], axis=1)
    wdir = np.repeat(wt * wphi, phis.size)
    total = 0.0j
    for r, w in zip(rs, wr):
        vals = np.asarray(fn_state(y + r * dirs))
        total += w * green(3, z, r) * np.sum(wdir * vals) * r * r
    return total


def two_center_product_integral_3d(z1, z2, ya, yb, n=240):
    """integral G_{z1}(x - ya) G_{z2}(x - yb) d^3x for distinct centers.

    In bipolar coordinates r_a = |x - ya|, r_b = |x - yb| the volume
    element is 2 pi r_a r_b / R dr_a dr_b over the strip
    |r_a - r_b| <= R <= r_a + r_b, which cancels both 1/r singularities.
    Substituting u = r_a + r_b, v = r_a - r_b gives a rectangle.
    """
    ya = np.asarray(ya, dtype=float)
    yb = np.asarray(yb, dtype=float)
    R = float(np.linalg.norm(ya - yb))
    if R == 0.0:
        raise ValueError("centers must be distinct")
    s1 = sqrt_upper(z1)
    s2 = sqrt_upper(z2)
    rate = min(float(np.imag(s1)), float(np.imag(s2)))
    span = R + 45.0 / max(rate, 0.2)
    us, wu = np.polynomial.legendre.leggauss(n)
    us = 0.5 * (span - R) * (us + 1.0) + R
    wu = 0.5 * (span - R) * wu
    vs, wv = np.polynomial.legendre.leggauss(n)
    vs = R * vs
    wv = R * wv
    U, V = np.meshgrid(us, vs, indexing="ij")
    W = np.outer(wu, wv)
    ra = 0.5 * (U + V)
    rb = 0.5 * (U - V)
    vals = np.exp(1.0j * s1 * ra + 1.0j * s2 * rb) / (4.0 * np.pi) ** 2
    # dr_a dr_b = du dv / 2
    return complex(np.sum(W * vals) * (2.0 * np.pi / R) * 0.5)


def one_center_product_integral_3d(z1, z2, n=4000):
    """integral G_{z1}(x) G_{z2}(x) d^3x, both centers coincident."""
    s1 = sqrt_upper(z1)
    s2 = sqrt_upper(z2)
    rate = min(float(np.imag(s1)), float(np.imag(s2)))
    rmax = 60.0 / max(rate, 0.2)
    rs, wr = np.polynomial.legendre.leggauss(n)
    rs = 0.5 * rmax * (rs + 1.0)
    wr = 0.5 * rmax * wr
    vals = np.exp(1.0j * (s1 + s2) * rs) / (4.0 * np.pi) ** 2
    return complex(4.0 * np.pi * np.sum(wr * vals))


# ---------------------------------------------------------------------------
# validation and spin-frame bases without the site table
# ---------------------------------------------------------------------------

def component_report(pair, tol=None):
    """boundary.validate as one loop over the connected components of the nonzero pattern of A and B.

    The components come from scipy's csgraph, not from the package, and
    every copy of every component is factored; components of one size are
    factored as one stack.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    A, B = pair.A, pair.B
    norms = [float(np.max(np.abs(x), initial=0.0)) for x in (A, B)]
    labels = connected_components(csr_matrix((A != 0.0) | (B != 0.0)), directed=False)[1]
    sizes = np.bincount(labels)
    groups = []
    for k in np.unique(sizes):
        index = np.stack([np.flatnonzero(labels == c) for c in np.flatnonzero(sizes == k)])
        sub = (index[:, :, None], index[:, None, :])
        groups.append((A[sub], B[sub]))
    mantissas, (ka, kb) = np.frexp(norms)
    scaled = 0.0  # max|A B* - B A*| / 2**(ka + kb)
    sv = []
    for ga, gb in groups:
        a, b = (np.ldexp(x.view(float), -k).view(complex) for x, k in ((ga, ka), (gb, kb)))
        ah, bh = a.conj().swapaxes(-1, -2), b.conj().swapaxes(-1, -2)
        scaled = max(scaled, float(np.max(np.abs(a @ bh - b @ ah))))
        sv.append(np.linalg.svd(np.concatenate([ga, gb], axis=-1), compute_uv=False).ravel())
    sv = np.sort(np.concatenate(sv))[::-1]
    with np.errstate(over="ignore"):  # at the pair's own scale, a tolerance or defect may round to inf
        if tol is None:
            tol = HERMITICITY_RTOL * (norms[0] * norms[1])
            scaled_tol = HERMITICITY_RTOL * (mantissas[0] * mantissas[1])
        else:
            scaled_tol = np.ldexp(tol, -(ka + kb))
        defect = float(np.ldexp(scaled, ka + kb))
    rank = int(np.sum(sv > RANK_RTOL * sv[0])) if sv[0] > 0.0 else 0
    ok = bool(scaled <= scaled_tol) and rank == pair.defect_dim
    return ValidationReport(
        is_valid=ok,
        hermiticity_defect=defect,
        rank=rank,
        is_local=is_local(pair),
        singular_values=sv,
        tol=tol,
    )


def joint_basis(mats):
    """Unitary U with U* M U diagonal for every M of one site's (k, 2, 2) stack, or None; one eigh per site."""
    if not (mats[:, 0, 1].any() or mats[:, 1, 0].any()):
        return None
    adj = mats.conj().swapaxes(-1, -2)
    parts = np.concatenate([mats + adj, 1j * (mats - adj)])
    u = np.linalg.eigh(np.tensordot(np.sqrt(np.arange(2, 2 + len(parts))), parts, axes=1))[1]
    rot = u.conj().T @ mats @ u
    off = np.maximum(np.abs(rot[:, 0, 1]), np.abs(rot[:, 1, 0]))
    return u if np.max(off) <= FRAME_RTOL * np.max(np.abs(mats)) else None


def site_bases(mats):
    """{j: U_j} from joint_basis on each site j of a (2, P, P, N, 2, 2) site table, site by site."""
    per_site = np.moveaxis(mats, 3, 0).reshape(mats.shape[3], -1, 2, 2)
    bases = {j: joint_basis(m) for j, m in enumerate(per_site, start=1)}
    return {j: u for j, u in bases.items() if u is not None}


# ---------------------------------------------------------------------------
# dense correction of a dressing
# ---------------------------------------------------------------------------

def dressing_correction(dress):
    """(B Gamma + A)^{-1} B of a krein._Dressing in the pair's own frame, m x m per node.

    Column mu is the charges of the unit vector e_mu; a 1-D array of z
    leads the result with its node axis.
    """
    m, nodes = dress.model.defect_dim, np.shape(dress.z)
    unit = np.broadcast_to(np.eye(m).reshape((m,) + (1,) * len(nodes) + (m,)), (m,) + nodes + (m,))
    return np.moveaxis(dress.charges(unit), 0, -1)


def charged_channels(pair_A, pair_B):
    """(J, inert): the charged and the inert channels of dense m x m A and B.

    Channel i is inert when row i and column i of B are 0 and row i of A
    has its only nonzero entry a_i on the diagonal; J lists the others.
    """
    m = pair_A.shape[0]
    inert = [i for i in range(m)
             if not pair_B[i, :].any() and not pair_B[:, i].any()
             and pair_A[i, i] != 0.0 and np.count_nonzero(pair_A[i, :]) == 1]
    return [i for i in range(m) if i not in inert], inert


def charged_dressing(pair_A, pair_B, gamma):
    """(correction, condition) of the dressing on the charged channels J (charged_channels), from dense A, B and Gamma.

    The correction is D_J^-1 B_JJ, D_J = B_JJ Gamma_JJ + A_JJ, scattered
    into m x m with zeros on the inert rows and columns; the condition is
    the largest over the smallest of the singular values of D_J and the
    |a_i|.
    """
    m = pair_A.shape[0]
    J, inert = charged_channels(pair_A, pair_B)
    out = np.zeros((m, m), dtype=complex)
    scales = [abs(pair_A[i, i]) for i in inert]
    if J:
        sub = np.ix_(J, J)
        dressed = pair_B[sub] @ gamma[sub] + pair_A[sub]
        out[sub] = np.linalg.solve(dressed, pair_B[sub])
        scales.extend(np.linalg.svd(dressed, compute_uv=False))
    return out, max(scales) / min(scales)


def dense_kernel(model, pair, z, x, code, xp, codep):
    """K(z)(x, code; xp, codep) = G delta + phi(x) (B Gamma + A)^{-1} B phi(x'), from one dense m x m solve."""
    from spinpoint.krein import defect_matrix, gamma_free

    correction = np.linalg.solve(pair.B @ gamma_free(model, z) + pair.A, pair.B)
    chan = channel_tables(model)[2]

    def column(v):
        return defect_matrix(model, z, [v] if model.dimension == 1 else [np.asarray(v)])[:, 0]

    phi, phi_p = np.where(chan == code, column(x), 0.0), np.where(chan == codep, column(xp), 0.0)
    free = 0.0
    if code == codep:
        free = green(model.dimension, z - model.shifts()[code], np.asarray(x) - np.asarray(xp))
    return free + phi @ correction @ phi_p


# ---------------------------------------------------------------------------
# the cut correction of the spectral evolution, node by node
# ---------------------------------------------------------------------------

def cut_correction_per_node(model, pair, packet, times, grid, lam, wts):
    """(1/pi) sum_k w_k e^{-i lam_k t} Im[Phi C s](lam_k + i0) on the grid, with no tables.

    At each node and each side z = lam_k +- i ETA: one dressing of its
    own, the packet's charges C(z) s(z), and the defect functions of
    krein.defect_matrix at every grid point, summed with the weights
    (+-1/2i) w_k e^{-i lam_k t} / pi. Shape (times, codes, points).
    """
    from spinpoint.dynamics import ETA
    from spinpoint.krein import _dress, _gaussian_charges, defect_matrix
    from spinpoint.spins import channel_sum

    out = np.zeros((times.size, model.n_configs, grid.n_points), dtype=complex)
    phases = np.exp(-1j * np.outer(times, lam)) * wts / np.pi
    for k in range(lam.size):
        for sign in (1.0, -1.0):
            dress = _dress(model, pair, lam[k] + sign * 1j * ETA)
            field = channel_sum(model, _gaussian_charges(dress, packet), defect_matrix(model, dress.z, grid.points))
            out += (sign / 2j) * phases[:, k, None, None] * field
    return out
