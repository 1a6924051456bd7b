"""Spin configuration bookkeeping and the flat defect-index layout.

A model couples one particle in dimension d (1 or 3) to N spins 1/2
sitting at fixed, pairwise distinct positions y_1..y_N with Zeeman
couplings alpha_1..alpha_N. A spin configuration sigma is a tuple of
+1/-1 entries; configurations are enumerated by the bit code

    code(sigma) = sum_j ((1 - sigma_j)/2) * 2**(j-1),

so sigma_j = +1 maps to bit 0 at position j-1. Defect channels carry a
multi-index (p, j, sigma) for d=1 (p=0 charge layer, p=1 dipole layer)
and (j, sigma) for d=3, flattened p-major, then site, then spin code.
Other modules read that order only through channel_tables,
channel_blocks, channel_sum and site_slots.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_MAX_SPINS",
    "ModelSpec",
    "enumerate_configs",
    "config_code",
    "spin_code",
    "index_dimension",
    "channel_tables",
    "channel_blocks",
    "channel_sum",
    "site_slots",
]

DEFAULT_MAX_SPINS = 6
_MAX_SPINS_ENV = "SPINPOINT_MAX_N"


def _spin_cap() -> int:
    raw = os.environ.get(_MAX_SPINS_ENV)
    if raw is None:
        return DEFAULT_MAX_SPINS
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_MAX_SPINS_ENV} must be an integer, got {raw!r}") from None


def enumerate_configs(n_spins: int) -> np.ndarray:
    """All 2**N spin configurations as an (2**N, N) array of +-1, in code order."""
    if n_spins < 1:
        raise ValueError("need at least one spin")
    codes = np.arange(2**n_spins)
    bits = (codes[:, None] >> np.arange(n_spins)[None, :]) & 1
    return 1 - 2 * bits


def config_code(sigma) -> int:
    """Bit code of one configuration: its row in enumerate_configs."""
    sigma = np.asarray(sigma, dtype=int)
    if sigma.ndim != 1 or not np.all(np.abs(sigma) == 1):
        raise ValueError("configuration must be a 1d array of +-1")
    bits = (1 - sigma) // 2
    return int(np.sum(bits << np.arange(sigma.size)))


def spin_code(sigma, n_spins: int) -> int:
    """Bit code of sigma, given either as a bit code or as N entries of +-1."""
    if isinstance(sigma, (int, np.integer)):
        code = int(sigma)
        if not 0 <= code < 2**n_spins:
            raise ValueError(f"spin code {code} out of range for {n_spins} spins")
        return code
    if np.shape(sigma) != (n_spins,):
        raise ValueError(f"configuration of {n_spins} spins must have shape ({n_spins},), "
                         f"got shape {np.shape(sigma)}")
    return config_code(sigma)


def index_dimension(d: int, n_spins: int) -> int:
    """Number of defect channels: N*2**(N+1) for d=1, N*2**N for d=3."""
    if d == 1:
        return n_spins * 2 ** (n_spins + 1)
    if d == 3:
        return n_spins * 2**n_spins
    raise ValueError(f"dimension must be 1 or 3, got {d}")


@dataclass(frozen=True)
class ModelSpec:
    """Geometry and couplings of the spin-coupled point-interaction model.

    positions: shape (N,) for d=1, (N, 3) for d=3. alpha: shape (N,).
    Site count is capped at DEFAULT_MAX_SPINS (override with the
    SPINPOINT_MAX_N environment variable).
    """

    dimension: int
    positions: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        if self.dimension not in (1, 3):
            raise ValueError(f"dimension must be 1 or 3, got {self.dimension}")
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if self.dimension == 1:
            if pos.ndim != 1:
                raise ValueError("d=1 positions must be scalars")
        else:
            if pos.ndim != 2 or pos.shape[1] != 3:
                raise ValueError("d=3 positions must have shape (N, 3)")
        if not (np.isfinite(pos).all() and np.isfinite(alpha).all()):
            raise ValueError("positions and alpha must be finite")
        n = pos.shape[0]
        if n < 1:
            raise ValueError("need at least one spin site")
        if alpha.shape != (n,):
            raise ValueError(f"alpha must have shape ({n},), got {alpha.shape}")
        diffs = pos[:, None] - pos[None, :]
        gaps = diffs if self.dimension == 1 else (diffs * diffs).sum(axis=-1)  # 0 exactly where |y_j - y_k| is
        if np.count_nonzero(gaps == 0.0) > n:  # a zero off the diagonal
            raise ValueError("spin sites must be pairwise distinct")
        cap = _spin_cap()
        if n > cap:
            raise ValueError(f"N={n} exceeds the cap of {cap} (set {_MAX_SPINS_ENV})")
        configs = enumerate_configs(n)
        shifts = configs @ alpha
        levels, level = np.unique(shifts, return_inverse=True)
        # built once and shared by every caller
        for name, arr in (("positions", pos), ("alpha", alpha), ("_configs", configs), ("_shifts", shifts),
                          ("_levels", levels), ("_level", level)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_spins(self) -> int:
        return self.positions.shape[0]

    @property
    def n_configs(self) -> int:
        return 2**self.n_spins

    @property
    def defect_dim(self) -> int:
        return index_dimension(self.dimension, self.n_spins)

    def configs(self) -> np.ndarray:
        return self._configs

    def shifts(self) -> np.ndarray:
        """Zeeman shifts alpha . sigma for every configuration, read-only, in code order."""
        return self._shifts

    def distinct_shifts(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct shifts ascending, and each code's index into them; read-only."""
        return self._levels, self._level

    def site(self, j: int):
        """Position of site j (1-based)."""
        if not 1 <= j <= self.n_spins:
            raise ValueError(f"site index must be in 1..{self.n_spins}")
        return self.positions[j - 1]


@functools.lru_cache(maxsize=32)
def _layout(dimension: int, n_spins: int):
    ncfg = 2**n_spins
    flat = np.arange(index_dimension(dimension, n_spins))
    tables = (flat // (n_spins * ncfg), flat // ncfg % n_spins + 1, flat % ncfg)
    blocks = np.argsort(tables[2], kind="stable").reshape(ncfg, -1)
    for arr in (*tables, blocks):
        arr.setflags(write=False)  # shared by every caller
    return tables, blocks


def channel_tables(space):
    """Layer p, 1-based site j and spin code of every flat defect index.

    space is a ModelSpec or a BoundaryPair (anything with dimension and
    n_spins). Returns three read-only int arrays of the defect
    dimension; p is 0 throughout for d=3.
    """
    return _layout(space.dimension, space.n_spins)[0]


def channel_blocks(space) -> np.ndarray:
    """Flat indices grouped by spin code, shape (2**N, channels per code).

    Row c lists the channels of code c in flat order, so column a has
    the same (p, j) in every row. Gamma(z) is block diagonal on these
    rows.
    """
    return _layout(space.dimension, space.n_spins)[1]


def channel_sum(space, weights, rows) -> np.ndarray:
    """Per spin code c, the sum of weights[mu] * rows[mu] over channels mu of code c.

    rows carries the flat defect index on its first axis; the result
    carries the spin code there instead.
    """
    blocks = channel_blocks(space)
    return np.einsum("ck,ck...->c...", np.asarray(weights)[blocks], np.asarray(rows)[blocks])


@functools.lru_cache(maxsize=32)
def _slots(dimension: int, n_spins: int):
    layers = 2 if dimension == 1 else 1
    ncfg = 2**n_spins
    p, pp, j, b, bp, rest = np.ix_(range(layers), range(layers), range(n_spins), range(2), range(2),
                                   range(ncfg // 2))
    spectators = ((rest >> j) << (j + 1)) | (rest & ((1 << j) - 1))  # a 0 bit inserted at j
    rows = (p * n_spins + j) * ncfg + (spectators | (b << j))
    cols = (pp * n_spins + j) * ncfg + (spectators | (bp << j))
    rows, cols = (np.array(a) for a in np.broadcast_arrays(rows, cols))
    for arr in (rows, cols):
        arr.setflags(write=False)  # shared by every caller
    return rows, cols


def site_slots(space):
    """Flat (row, col) of every entry a local pair may fill.

    Two read-only int arrays of shape (P, P, N, 2, 2, 2**(N-1)) over
    (layer p, layer p', site j, spin bit of the row and of the column at
    site j, configuration of the other spins); P is 2 for d=1 and 1 for
    d=3. Row and column share the site and the spectator spins, and
    slot [..., 0] has every spectator bit 0. Entry (p, j, b, b') of site
    j's 2 x 2 spin matrices fills the 2**(N-1) slots along the last axis.
    """
    return _slots(space.dimension, space.n_spins)
