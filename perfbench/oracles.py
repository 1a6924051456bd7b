"""Reference values the benchmark judges spinpoint's outputs against.

Nothing here imports spinpoint: each oracle is coded from the closed form
or the identity it states, with numpy and scipy only.

- kernel rows: the Krein formula evaluated with an independent dense
  solve, K = delta G + Phi (B Gamma + A)^-1 B Phi, from the model file's
  geometry and the pair's (A, B).
- bound states: closed forms of the two-site contact levels (brentq)
  and of well-separated chains, where each site binds alone.
- evolve: the closed-form free evolution of a Gaussian and conservation
  of the trapezoid norm.
- resolvent application: the equation (-Laplacian + alpha.sigma - z) u = psi
  checked by finite differences off the sites; grid input against the
  trapezoid Krein sum over the grid; boundary data against A q = B f.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

LEVEL_RTOL = 1e-10  # bound-state level match, relative to max(1, |E|)
KERNEL_RTOL = 1e-10  # kernel row against the independent Krein solve, relative
SYMMETRY_RTOL = 1e-12  # K(z) = conj K(conj z)^T, criterion 5
EVOLVE_RTOL = 1e-3  # free-pair values and norm drift, criterion 9
BOUNDARY_ATOL = 1e-5  # |A q - B f|, criterion 7
PDE_RTOL = {1: 1e-4, 3: 1e-3}  # 4th-order 1D and 2nd-order 3D stencils
GRID_RTOL = 1e-10  # 14^3 grid output against the trapezoid Krein sum, relative to max |u|


def sqrt_upper(w):
    s = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(s.imag < 0.0, -s, s)


def shifts(alpha):
    """alpha . sigma per spin code; bit j of the code set means sigma_j = -1."""
    alpha = np.asarray(alpha, dtype=float)
    codes = np.arange(2 ** alpha.size)
    sigma = 1 - 2 * ((codes[:, None] >> np.arange(alpha.size)[None, :]) & 1)
    return sigma @ alpha


class KernelReference:
    """Resolvent kernel at one z from the Krein formula, by a dense solve."""

    def __init__(self, dimension, positions, alpha, A, B, z):
        self.d = dimension
        self.pos = np.asarray(positions, dtype=float).reshape(len(positions), -1)
        n = self.pos.shape[0]
        ncfg = 2 ** n
        self.shift = shifts(alpha)
        layers = 2 if dimension == 1 else 1
        flat = np.arange(layers * n * ncfg)
        self.code = flat % ncfg
        self.site = (flat % (n * ncfg)) // ncfg
        self.layer = flat // (n * ncfg)
        self.z = complex(z)
        self.s = sqrt_upper(self.z - self.shift)
        gamma = self._gamma()
        self.correction = np.linalg.solve(B @ gamma + A, B)

    def _gamma(self):
        c, j, p = self.code, self.site, self.layer
        same = c[:, None] == c[None, :]
        s = self.s[c][:, None]
        if self.d == 3:
            dist = np.linalg.norm(self.pos[j][:, None, :] - self.pos[j][None, :, :], axis=-1)
            safe = np.where(dist > 0.0, dist, 1.0)
            g = np.where(dist > 0.0, -np.exp(1j * s * dist) / (4.0 * np.pi * safe),
                         -1j * s / (4.0 * np.pi))
            return np.where(same, g, 0.0)
        diff = self.pos[j, 0][:, None] - self.pos[j, 0][None, :]
        e = np.exp(1j * s * np.abs(diff))
        g = 1j * e / (2.0 * s)
        gp = -np.sign(diff) * e / 2.0
        w = (self.z - self.shift[c])[:, None]
        block = np.select(
            [(p[:, None] == 0) & (p[None, :] == 0), (p[:, None] == 0) & (p[None, :] == 1),
             (p[:, None] == 1) & (p[None, :] == 0)],
            [-g, -gp, gp], default=-w * g)
        return np.where(same, block, 0.0)

    def phi(self, x, code):
        """Defect functions at x in channel `code` (zero in other channels)."""
        return self.phi_many(np.asarray(x, dtype=float).reshape(1, -1), code)[:, 0]

    def phi_many(self, points, code):
        """Defect functions at each of `points` (npts x d) in channel `code`: m x npts."""
        s = self.s[self.code][:, None]
        if self.d == 3:
            r = np.linalg.norm(points[None, :, :] - self.pos[self.site][:, None, :], axis=-1)
            val = np.exp(1j * s * r) / (4.0 * np.pi * r)
        else:
            r = points[None, :, 0] - self.pos[self.site, 0][:, None]
            e = np.exp(1j * s * np.abs(r))
            val = np.where(self.layer[:, None] == 0, 1j * e / (2.0 * s), -np.sign(r) * e / 2.0)
        return np.where((self.code == code)[:, None], val, 0.0)

    def value(self, x, code, xp, codep) -> complex:
        val = complex(self.phi(x, code) @ self.correction @ self.phi(xp, codep))
        if code == codep:
            s = self.s[code]
            if self.d == 3:
                r = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)))
                val += np.exp(1j * s * r) / (4.0 * np.pi * r)
            else:
                val += 1j * np.exp(1j * s * abs(float(x) - float(xp))) / (2.0 * s)
        return complex(val)


def trapezoid_weights_3d(axis):
    w = np.full(axis.size, axis[1] - axis[0])
    w[0] = w[-1] = w[0] / 2.0
    return np.multiply.outer(np.multiply.outer(w, w), w).ravel()


def grid_resolvent_3d(ref, mesh, psi, i, code):
    """(R psi)(x_i) in channel `code` by the trapezoid rule on the mesh.

    The Krein formula summed over the grid: the free Green function of
    the channel over every node but x_i, plus Phi(x_i) C sum_j w_j Phi(x_j)
    psi(x_j). The singular node x_i is left out, so probe only nodes
    where psi is negligible. `psi` is channels x nodes.
    """
    w = trapezoid_weights_3d(np.unique(mesh[:, 0]))
    r = np.linalg.norm(mesh - mesh[i], axis=1)
    far = r > 0.0
    s = ref.s[code]
    free = np.sum(w[far] * np.exp(1j * s * r[far]) / (4.0 * np.pi * r[far]) * psi[code, far])
    overlaps = sum(ref.phi_many(mesh, c) @ (w * psi[c]) for c in range(psi.shape[0]))
    return complex(free + ref.phi(mesh[i], code) @ ref.correction @ overlaps)


def boundary_residual(A, B, q, f):
    """max |A q - B f|: the interface condition the defect data must meet."""
    return float(np.max(np.abs(A @ q - B @ f)))


# -- bound states


def _root(f, lo, hi):
    return brentq(f, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def pair_levels(dimension, positions, beta):
    """Even/odd levels of two equal contact sites, alpha = 0, each 4-fold (spin).

    3D: kappa/4pi -+ e^{-kappa r}/(4 pi r) + beta = 0.
    1D: kappa = -(beta/2)(1 +- e^{-kappa r}).
    """
    pos = np.asarray(positions, dtype=float).reshape(2, -1)
    r = float(np.linalg.norm(pos[0] - pos[1]))
    levels = []
    for label, sgn in (("even", 1.0), ("odd", -1.0)):
        if dimension == 3:
            def f(k):
                return k / (4.0 * np.pi) - sgn * np.exp(-k * r) / (4.0 * np.pi * r) + beta
            lo, hi = 1e-14, 8.0 * np.pi * abs(beta) + 1.0 / r
            if f(lo) >= 0.0:
                continue
        else:
            def f(k):
                return k + (beta / 2.0) * (1.0 + sgn * np.exp(-k * r))
            if sgn > 0.0:
                lo = 1e-14
            else:
                # f(0) = 0 and f is convex: a positive root exists iff
                # f'(0) < 0, and it lies right of the minimum
                if abs(beta) * r / 2.0 <= 1.0:
                    continue
                lo = np.log(abs(beta) * r / 2.0) / r
            hi = abs(beta) + 1.0
        kappa = _root(f, lo, hi)
        levels.append({"energy": -kappa * kappa, "multiplicity": 4, "label": label})
    return levels


def chain_levels(dimension, n_sites, alpha, beta):
    """Well-separated contact chain: every site binds alone in every channel.

    Level shift_sigma - kappa0^2 with kappa0 = 4 pi |beta| (3D) or |beta|/2
    (1D), n_sites-fold; intersite corrections are below 1e-16 here.
    """
    kappa0 = 4.0 * np.pi * abs(beta) if dimension == 3 else abs(beta) / 2.0
    return [{"energy": float(sh) - kappa0 ** 2, "multiplicity": n_sites, "label": "chain"}
            for sh in shifts(alpha)]


def match_levels(reported, oracle):
    """Assign reported (energy, multiplicity) to oracle levels, state by state.

    Returns (label, outcome, error) per state: "ok" for a reported state
    within LEVEL_RTOL of an oracle level with room left, "missing" for
    each oracle state left over, "spurious" for each reported one.
    """
    left = [lv["multiplicity"] for lv in oracle]
    out = []
    for energy, mult in reported:
        for _ in range(mult):
            best = None
            for i, lv in enumerate(oracle):
                err = abs(energy - lv["energy"])
                if left[i] > 0 and err <= LEVEL_RTOL * max(1.0, abs(lv["energy"])):
                    if best is None or err < best[1]:
                        best = (i, err)
            if best is None:
                out.append(("spurious", "spurious", None))
            else:
                left[best[0]] -= 1
                out.append((oracle[best[0]]["label"], "ok", best[1]))
    for i, lv in enumerate(oracle):
        out.extend((lv["label"], "missing", None) for _ in range(left[i]))
    return out


# -- evolution


def gaussian(center, momentum, variance, x, t=0.0):
    """w e^{-(x - c)^2/4v + ik(x - c)} evolved freely to time t (hbar = 2m = 1)."""
    vt = complex(variance) + 1j * t
    c = float(center) + 2.0 * float(momentum) * t
    k = float(momentum)
    return (np.sqrt(complex(variance) / vt) * np.exp(-(x - c) ** 2 / (4.0 * vt)
            + 1j * k * (x - c) + 1j * k * k * t))


def trapezoid_norm(values, x):
    h = x[1] - x[0]
    w = np.full(x.size, h)
    w[0] = w[-1] = h / 2.0
    return float(np.sqrt(np.sum(np.abs(values) ** 2 * w[None, :])))


# -- resolvent application


def pde_residual_1d(u, x, psi, shift, z):
    """max over channels of |-u'' + (shift - z) u - psi| / scale at the centre node."""
    h = x[1] - x[0]
    worst = 0.0
    for c in range(u.shape[0]):
        uc = u[c]
        upp = (-uc[0] + 16 * uc[1] - 30 * uc[2] + 16 * uc[3] - uc[4]) / (12.0 * h * h)
        res = -upp + (shift[c] - z) * uc[2] - psi[c]
        scale = abs(psi[c]) + abs(shift[c] - z) * abs(uc[2]) + abs(upp)
        if scale > 0.0:
            worst = max(worst, abs(res) / scale)
    return worst


def pde_residual_3d(u, h, psi, shift, z):
    """The same on a 3^3 cube with the 7-point Laplacian."""
    worst = 0.0
    for c in range(u.shape[0]):
        uc = u[c].reshape(3, 3, 3)
        lap = (uc[0, 1, 1] + uc[2, 1, 1] + uc[1, 0, 1] + uc[1, 2, 1] + uc[1, 1, 0]
               + uc[1, 1, 2] - 6.0 * uc[1, 1, 1]) / (h * h)
        res = -lap + (shift[c] - z) * uc[1, 1, 1] - psi[c]
        scale = abs(psi[c]) + abs(shift[c] - z) * abs(uc[1, 1, 1]) + abs(lap)
        if scale > 0.0:
            worst = max(worst, abs(res) / scale)
    return worst
