"""Branch-resolved square root and free-particle Green functions.

Everything downstream evaluates resolvents off the half-line [0, inf).
The square root used throughout is the branch with positive imaginary
part, continued onto the cut from the upper half plane, so that the
Green functions below decay (or at worst oscillate) at infinity.

Units: hbar = 1 and 2m = 1, so the free generator is -Laplacian.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sqrt_upper",
    "green",
]

_TINY_IMAG = 1j * np.finfo(float).smallest_subnormal


def sqrt_upper(w):
    """Square root with Im(sqrt) > 0 off [0, inf), upper-edge limit on it.

    For w not on [0, inf) the result s satisfies s**2 == w and Im(s) > 0.
    On the cut the limit from above is returned, i.e. the nonnegative
    real root for w >= 0. Accepts scalars or arrays.
    """
    w = np.asarray(w, dtype=complex)
    s = np.sqrt(w)
    # principal sqrt has Re >= 0; flip the lower-half-plane results. Read
    # the half plane off w as well as s: Im(s) underflows to 0 for tiny Im(w),
    # and off the cut Im(s) is kept > 0 even below the float range
    s = np.where((w.imag < 0.0) | (s.imag < 0.0), -s, s)
    if not s.imag.all():
        under = (s.imag == 0.0) & ((w.imag != 0.0) | (w.real < 0.0))
        s = np.where(under, s.real + _TINY_IMAG, s)
    if s.ndim == 0:
        return complex(s)
    return s


def _dist(d: int, x):
    """Length of a displacement or of each in an array: |x| entrywise for d=1, over a last axis of 3 for d=3."""
    x = np.asarray(x, dtype=float)
    if d == 1 or x.ndim == 0:
        return np.abs(x) if x.ndim else abs(float(x))
    if x.shape[-1] != 3:
        raise ValueError(f"d=3 displacements need a last axis of length 3, got shape {x.shape}")
    return np.sqrt(np.sum(x * x, axis=-1))


def _check_energy(w, allow_cut):
    w = complex(w)
    if not allow_cut and w.imag == 0.0 and w.real >= 0.0:
        raise ValueError(f"energy {w} lies on [0, inf); pass allow_cut=True for the upper-edge limit")
    return w


def green(d: int, w, x, allow_cut: bool = False):
    """Free resolvent kernel G^w(x) of (-Laplacian - w)^(-1) at displacement x.

    d=1: i*exp(i*sqrt(w)|x|)/(2*sqrt(w)), finite at x=0.
    d=3: exp(i*sqrt(w)|x|)/(4*pi*|x|), singular at x=0.

    x may be an array of displacements: any shape for d=1, a last axis
    of length 3 for d=3.
    """
    w = _check_energy(w, allow_cut)
    s = sqrt_upper(w)
    r = _dist(d, x)
    if d == 1:
        if s == 0.0:
            raise ValueError("d=1 Green function diverges at w=0")
        return 1j * np.exp(1j * s * r) / (2.0 * s)
    if d == 3:
        if np.any(r == 0.0):
            raise ValueError("d=3 Green function is singular at zero displacement")
        return np.exp(1j * s * r) / (4.0 * np.pi * r)
    raise ValueError(f"dimension must be 1 or 3, got {d}")

