"""Boundary pairs (A, B) selecting a self-adjoint realization.

A pair of m x m complex matrices (A, B), with m the defect dimension of
the model, fixes the interface condition A q = B f between the singular
charges q and the regular boundary values f of wavefunctions at the
spin sites. The pair is admissible when A B* - B A* vanishes (* is the
conjugate transpose) and the m x 2m block (A | B) has maximal rank.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spins import ModelSpec, channel_blocks, channel_tables, index_dimension, site_slots

__all__ = [
    "BoundaryPair",
    "PairEntries",
    "BlockGroup",
    "SpinFrame",
    "ValidationReport",
    "ValidationError",
    "validate",
    "require_valid",
    "is_local",
    "preset_free",
    "preset_delta",
    "preset_offdiag",
    "preset_delta_prime",
    "random_valid_pair",
]

RANK_RTOL = 1e-10
HERMITICITY_TOL_FLOOR = 1e-10
FRAME_RTOL = 1e-12  # largest off-diagonal part of a rotated site's matrices, relative to their largest entry


class BlockGroup(NamedTuple):
    """Equal-size diagonal blocks of a pair, stacked.

    index[b] lists the flat defect indices of block b in ascending
    order; A[b] and B[b] are the pair's matrices restricted to them.
    """

    index: np.ndarray  # (g, k)
    A: np.ndarray  # (g, k, k)
    B: np.ndarray  # (g, k, k)


class SpinFrame(NamedTuple):
    """A unitary U = I (x) (U_N (x) ... (x) U_1) on the spin code, and a pair's blocks in it.

    sites lists the rotated sites (1-based) and bases their 2 x 2 U_j;
    every other U_j is the identity. blocks are the dressing blocks of
    (U* A U, U* B U), as BoundaryPair.blocks gives them; with no site
    rotated they are the pair's own blocks.
    """

    n_spins: int
    sites: tuple
    bases: tuple
    blocks: tuple

    def rotate(self, v, axis: int = -1, adjoint: bool = False):
        """U v, or U* v under adjoint, along the flat defect axis of v; v itself when U = I.

        Each U_j acts on its own bit of the spin code as a 2 x 2 factor; no
        m x m matrix is formed.
        """
        if not self.sites:
            return v
        v = np.moveaxis(np.asarray(v), axis, -1)
        shape = v.shape
        for j, u in zip(self.sites, self.bases):
            u = u.conj().T if adjoint else u
            # the code is the fastest part of the flat index: split off its bit j - 1
            v = v.reshape(-1, 2, 2 ** (j - 1))
            lo, hi = v[:, 0], v[:, 1]
            v = np.stack([u[0, 0] * lo + u[0, 1] * hi, u[1, 0] * lo + u[1, 1] * hi], axis=1)
        return np.moveaxis(v.reshape(shape), -1, axis)


def _joint_basis(mats: np.ndarray):
    """Unitary U with U* M U diagonal for every M of a (k, 2, 2) stack, or None.

    U is the eigenbasis of one fixed generic Hermitian combination of
    the Hermitian and skew-Hermitian parts of the M (the random-element
    method of Murota, Kanno, Kojima and Kojima, Japan J. Indust. Appl.
    Math. 27, 2010). It diagonalizes them all when they commute and are
    normal, which is checked on the result.
    """
    adj = mats.conj().swapaxes(-1, -2)
    parts = np.concatenate([mats + adj, 1j * (mats - adj)])
    u = np.linalg.eigh(np.tensordot(np.sqrt(np.arange(2, 2 + len(parts))), parts, axes=1))[1]
    rot = u.conj().T @ mats @ u
    off = np.maximum(np.abs(rot[:, 0, 1]), np.abs(rot[:, 1, 0]))
    return u if np.max(off) <= FRAME_RTOL * np.max(np.abs(mats)) else None


class PairEntries(NamedTuple):
    """The entries of a pair in row-major order: the m x m A holds A[i] at (rows[i], cols[i]), and likewise B.

    Every (row, col) where A or B is nonzero is listed once, so one of its
    two values may be 0; every other entry of A and B is 0.
    """

    rows: np.ndarray  # (nnz,) int
    cols: np.ndarray  # (nnz,) int
    A: np.ndarray  # (nnz,) complex
    B: np.ndarray  # (nnz,) complex


class BoundaryPair:
    """Interface matrices for a given dimension and spin count, held by their nonzero entries.

    BoundaryPair(d, N, A, B) reads the entries (PairEntries) of dense m x m
    input in one scan; the presets emit theirs directly. The m x m A and B
    are read-only views built from the entries on first read, for output
    and tests: validation, components, blocks and frames read the entries.
    Two partitions of the defect indices are cached as BlockGroups ascending
    in block size: components(), the finest on which A and B are block
    diagonal (for validation), and blocks(), on which B Gamma(z) + A is
    block diagonal for every z. The solvers run on frame(model).blocks, the
    blocks of the pair in its spin frame. Pairs are equal when dimension,
    spin count and entries are.
    """

    def __init__(self, dimension: int, n_spins: int, A, B):
        m = index_dimension(dimension, n_spins)
        A = np.asarray(A, dtype=complex)
        B = np.asarray(B, dtype=complex)
        if A.shape != (m, m) or B.shape != (m, m):
            raise ValueError(f"A and B must be {m} x {m}, got {A.shape} and {B.shape}")
        rows, cols = np.nonzero((A != 0.0) | (B != 0.0))
        self._hold(dimension, n_spins, rows, cols, A[rows, cols], B[rows, cols])

    @classmethod
    def _from_entries(cls, dimension: int, n_spins: int, rows, cols, A, B) -> "BoundaryPair":
        """The pair with values A, B at distinct positions (rows, cols) and 0 elsewhere.

        Positions where both values are 0 are dropped, as a dense scan would.
        """
        A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
        keep = (A != 0.0) | (B != 0.0)
        rows, cols, A, B = (np.asarray(x)[keep] for x in (rows, cols, A, B))
        order = np.lexsort((cols, rows))
        pair = cls.__new__(cls)
        pair._hold(dimension, n_spins, rows[order], cols[order], A[order], B[order])
        return pair

    def _hold(self, dimension: int, n_spins: int, rows, cols, A, B):
        self.dimension, self.n_spins = dimension, n_spins
        self.defect_dim = index_dimension(dimension, n_spins)
        for arr in (rows, cols, A, B):
            arr.setflags(write=False)
        self.entries = PairEntries(rows, cols, A, B)
        self._dense = None
        self._report = None
        self._components = None
        self._blocks = None
        self._sites = None
        self._frames = {}

    def __eq__(self, other):
        if not isinstance(other, BoundaryPair):
            return NotImplemented
        return ((self.dimension, self.n_spins) == (other.dimension, other.n_spins)
                and all(np.array_equal(x, y) for x, y in zip(self.entries, other.entries)))

    @property
    def A(self) -> np.ndarray:
        """A as a read-only m x m array, built from the entries on first read."""
        return self._dense_view()[0]

    @property
    def B(self) -> np.ndarray:
        """B as a read-only m x m array, built from the entries on first read."""
        return self._dense_view()[1]

    def _dense_view(self) -> np.ndarray:
        if self._dense is None:
            rows, cols, a, b = self.entries
            dense = np.zeros((2, self.defect_dim, self.defect_dim), dtype=complex)
            dense[:, rows, cols] = a, b
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    def validation(self, tol: float | None = None) -> "ValidationReport":
        if self._report is None or tol is not None:
            report = validate(self, tol=tol)
            if tol is not None:
                return report
            self._report = report
        return self._report

    def components(self) -> "tuple[BlockGroup, ...]":
        """Connected components of the nonzero pattern of A and B: the entries' (row, col) are its edges."""
        if self._components is None:
            rows, cols = self.entries[:2]
            self._components = self._grouped([np.stack([rows, cols], axis=1)])
        return self._components

    def blocks(self) -> "tuple[BlockGroup, ...]":
        """The components joined through the equal-spin-code blocks of Gamma(z)."""
        if self._blocks is None:
            chains = [g.index for g in self.components()] + [channel_blocks(self)]
            self._blocks = self._grouped(chains)
        return self._blocks

    def frame(self, model: ModelSpec) -> SpinFrame:
        """The spin frame of the solvers in this model, cached per set of rotated sites.

        Site j rotates when alpha_j = 0, the pair is local, and the 2 x 2
        spin matrices of A and B at site j (one per layer pair (p, p'))
        are not all diagonal but commute and are normal; U_j is their
        joint eigenbasis. Gamma(z) depends on sigma_j only through
        alpha_j sigma_j, so U commutes with it, and (U* A U, U* B U)
        splits into up to 2**N times more blocks; they are read off the
        diagonals of the rotated 2 x 2s without forming U or any m x m
        matrix. No rotated site: U = I and the pair's own blocks.
        Validation stays on the pair itself: a unitary similarity keeps
        admissibility.
        """
        mats, bases = self._site_bases()
        sites = tuple(j for j in bases if model.alpha[j - 1] == 0.0)
        if sites not in self._frames:
            if not sites:
                blocks = self.blocks()
            else:
                rot = mats.copy()
                for j in sites:
                    u = bases[j]
                    diag = np.einsum("ab,...ac,cb->...b", u.conj(), rot[:, :, :, j - 1], u)
                    rot[:, :, :, j - 1] = diag[..., None] * np.eye(2)  # off-diagonal exactly 0
                rows, cols = site_slots(self)
                filled = np.broadcast_to(np.any(rot != 0.0, axis=0)[..., None], rows.shape)
                edges = np.stack([rows[filled], cols[filled]], axis=1)
                blocks = self._grouped([edges, channel_blocks(self)],
                                       lambda index: self._local_entries(rot, index))
            self._frames[sites] = SpinFrame(self.n_spins, sites, tuple(bases[j] for j in sites), blocks)
        return self._frames[sites]

    @functools.cached_property
    def _site_matrices(self):
        """mats[w, p, p', j - 1], the 2 x 2 of A (w = 0) or B (w = 1) at site j; None for a pair that is not local.

        Each entry is looked up among the slots of spins.site_slots; the
        pair is local when every entry has a slot and the values in the
        slots do not change along the spectator axis (is_local). mats is
        read off spectator configuration 0. No m x m matrix is formed.
        """
        m = self.defect_dim
        slot_rows, slot_cols = site_slots(self)
        keys = (slot_rows * m + slot_cols).ravel()
        order = np.argsort(keys)
        rows, cols, a, b = self.entries
        flat = rows * m + cols
        at = order[np.minimum(np.searchsorted(keys, flat, sorter=order), keys.size - 1)]
        if np.any(keys[at] != flat):
            return None  # an entry outside the slots
        slots = np.zeros((2, keys.size), dtype=complex)
        slots[:, at] = a, b
        slots = slots.reshape((2,) + slot_rows.shape)
        return None if np.any(slots != slots[..., :1]) else slots[..., 0]

    def _site_bases(self):
        """(mats, bases): the spin matrices of a local pair (_site_matrices) and U_j per site that can rotate.

        bases maps j to U_j. A site whose matrices are all diagonal is
        skipped without arithmetic.
        """
        if self._sites is None:
            mats, bases = self._site_matrices, {}
            if mats is not None:
                per_site = np.moveaxis(mats, 3, 0).reshape(self.n_spins, -1, 2, 2)
                for j, m in enumerate(per_site, start=1):
                    if m[:, 0, 1].any() or m[:, 1, 0].any():
                        u = _joint_basis(m)
                        if u is not None:
                            bases[j] = u
            self._sites = (mats, bases)
        return self._sites

    def _local_entries(self, mats: np.ndarray, index: np.ndarray):
        """(A, B) on the (g, k, k) blocks of index of the local pair with site matrices mats.

        mats is laid out as in _site_matrices. An entry is that of its site's
        2 x 2 when row and column share the site and the spectator spins,
        and 0 otherwise: index arithmetic, no m x m matrix.
        """
        p, j, code = channel_tables(self)
        bit = (code >> (j - 1)) & 1
        r, c = index[:, :, None], index[:, None, :]
        local = (j[r] == j[c]) & (((code[r] ^ code[c]) & ~(1 << (j[r] - 1))) == 0)
        vals = np.where(local, mats[:, p[r], p[c], j[r] - 1, bit[r], bit[c]], 0.0)
        return vals[0], vals[1]

    def _block_entries(self, index: np.ndarray):
        """(A, B) on the (g, k, k) blocks of index, scattered from the entries on their rows.

        Every entry whose row lies in a block must have its column in the
        same block, as on the unions of components that _grouped forms.
        """
        g, k = index.shape
        at = np.full(self.defect_dim, -1)
        at[index.ravel()] = np.arange(index.size)  # block * k + position in the block
        rows, cols, a, b = self.entries
        r = at[rows]
        on = np.flatnonzero(r >= 0)
        out = np.zeros((2, g * k * k), dtype=complex)
        out[:, r[on] * k + at[cols[on]] % k] = a[on], b[on]
        return out.reshape(2, g, k, k)

    def _grouped(self, chains, entries=None) -> "tuple[BlockGroup, ...]":
        """Connected components of the graph linking neighbours along each row of each chain.

        entries(index) gives the (A, B) blocks of a (g, k) index stack;
        by default they are the pair's own (_block_entries).
        """
        m = self.defect_dim
        head = np.concatenate([c[:, :-1].ravel() for c in chains])
        tail = np.concatenate([c[:, 1:].ravel() for c in chains])
        # min-label hooking and pointer jumping (Shiloach-Vishkin): every root
        # takes the smallest root across its links, every channel then jumps
        # to its root; labels end as the smallest channel of each component
        labels, prev = np.arange(m), None
        while not np.array_equal(labels, prev):
            prev, labels = labels, labels.copy()
            np.minimum.at(labels, prev[head], prev[tail])
            np.minimum.at(labels, prev[tail], prev[head])
            while not np.array_equal(labels, labels[labels]):
                labels = labels[labels]
        size = np.bincount(labels)[labels]
        order = np.lexsort((np.arange(m), labels, size))
        groups = []
        for k in np.unique(size):
            index = order[size[order] == k].reshape(-1, k)
            index.setflags(write=False)
            groups.append(BlockGroup(index, *(entries or self._block_entries)(index)))
        return tuple(groups)


@dataclass(frozen=True)
class ValidationReport:
    is_valid: bool
    hermiticity_defect: float
    rank: int
    is_local: bool
    singular_values: np.ndarray
    tol: float

    def __str__(self):
        verdict = "valid" if self.is_valid else "INVALID"
        return (
            f"{verdict}: hermiticity defect {self.hermiticity_defect:.3e} (tol {self.tol:.3e}), "
            f"rank {self.rank}/{self.singular_values.size}, local={self.is_local}"
        )


def validate(pair: BoundaryPair, tol: float | None = None) -> ValidationReport:
    """Check self-adjointness of the interface condition.

    hermiticity_defect is the max-abs entry of A B* - B A*; the default
    tolerance is 1e-10 * max(1, ||A|| ||B||) in the max-abs norms. The
    rank of (A | B) is counted from singular values above a relative
    threshold of 1e-10.

    Neither needs Gamma(z): both are computed on the pair's components
    (BoundaryPair.components), where A and B are block diagonal, so
    A B* - B A* vanishes off them and the singular values of (A | B),
    ranked against the largest, are the union of those of the (A_k | B_k).
    """
    defect = 0.0
    sv = []
    for group in pair.components():
        a, b = group.A, group.B
        ah, bh = a.conj().swapaxes(-1, -2), b.conj().swapaxes(-1, -2)
        defect = max(defect, float(np.max(np.abs(a @ bh - b @ ah))))
        sv.append(np.linalg.svd(np.concatenate([a, b], axis=-1), compute_uv=False).ravel())
    sv = np.sort(np.concatenate(sv))[::-1]
    if tol is None:
        a, b = pair.entries.A, pair.entries.B  # every nonzero of A and of B is an entry
        scale = float(np.max(np.abs(a), initial=0.0) * np.max(np.abs(b), initial=0.0))
        tol = HERMITICITY_TOL_FLOOR * max(1.0, scale)
    rank = int(np.sum(sv > RANK_RTOL * sv[0])) if sv[0] > 0.0 else 0
    ok = defect <= tol and rank == pair.defect_dim
    return ValidationReport(
        is_valid=ok,
        hermiticity_defect=defect,
        rank=rank,
        is_local=is_local(pair),
        singular_values=sv,
        tol=tol,
    )


class ValidationError(ValueError):
    """A boundary pair that does not fit its model or fails validate()."""


def require_valid(model: ModelSpec, pair: BoundaryPair, unchecked: bool = False) -> None:
    """The admissibility gate in front of every solver entry point.

    The pair must have the model's dimension and spin count. Unless
    unchecked is set, it must also pass validate(); the error message is
    then the validation report.
    """
    if (pair.dimension, pair.n_spins) != (model.dimension, model.n_spins):
        raise ValidationError(
            f"boundary pair (d={pair.dimension}, N={pair.n_spins}) does not match the model "
            f"(d={model.dimension}, N={model.n_spins})"
        )
    if unchecked:
        return
    report = pair.validation()
    if not report.is_valid:
        raise ValidationError(str(report))


def is_local(pair: BoundaryPair) -> bool:
    """True when the condition couples each spin only at its own site.

    Requires (i) no coupling across distinct sites, (ii) no dependence
    on spins other than the one at the shared site, and (iii) surviving
    entries identical across the spectator spins' configurations. (i)
    and (ii) allow only the entries of spins.site_slots, so every entry of
    the pair must lie in a slot; (iii) holds when the values in those
    slots do not change along the spectator axis.
    """
    return pair._site_matrices is not None


def _beta_table(values, n_spins: int, name: str) -> np.ndarray:
    table = np.asarray(values, dtype=float)
    if table.shape not in ((), (n_spins,), (n_spins, 2)):
        raise ValueError(f"{name} must be a scalar, shape ({n_spins},) or ({n_spins}, 2) table")
    return np.broadcast_to(table if table.ndim == 2 else table[..., None], (n_spins, 2))


def preset_free(model: ModelSpec) -> BoundaryPair:
    """No interaction: A = I, B = 0 forces all charges to vanish."""
    m = model.defect_dim
    diag = np.arange(m)
    return BoundaryPair._from_entries(model.dimension, model.n_spins, diag, diag, np.ones(m), np.zeros(m))


def preset_delta(model: ModelSpec, beta, paper_literal: bool = False) -> BoundaryPair:
    """Spin-dependent contact interaction of strength beta[j, sigma_j].

    beta may be a scalar, per-site vector, or (N, 2) table indexed by
    site and sigma_j (+1 column first). For d=1 the default realizes the
    derivative jump psi'(y+) - psi'(y-) = beta * psi(y); paper_literal
    keeps the alternative convention with the coupling doubled.
    """
    n = model.n_spins
    m = model.defect_dim
    table = _beta_table(beta, n, "beta")
    p, j, code = channel_tables(model)
    spin_col = (code >> (j - 1)) & 1  # 0 for sigma_j = +1
    diag = np.arange(m)
    if model.dimension == 3:
        return BoundaryPair._from_entries(3, n, diag, diag, table[j - 1, spin_col], np.ones(m))
    factor = -2.0 if paper_literal else -1.0
    return BoundaryPair._from_entries(1, n, diag, diag, np.ones(m),
                                      np.where(p == 0, factor * table[j - 1, spin_col], 0.0))


def preset_offdiag(model: ModelSpec, betahat) -> BoundaryPair:
    """Spin-flip contact interaction with strengths betahat[j, sigma_j].

    The condition links the charge in one spin channel to the boundary
    value in the channel with sigma_j flipped. Hermiticity requires
    betahat[j, +] == betahat[j, -]; unequal tables are still assembled
    (validate() then reports the defect |betahat_+ - betahat_-|).
    """
    n = model.n_spins
    m = model.defect_dim
    table = _beta_table(betahat, n, "betahat")
    p, j, code = channel_tables(model)
    spin_col = (code >> (j - 1)) & 1
    sigma_j = 1 - 2 * spin_col
    # column partner: the same (p, j) slot in the block of the code with
    # sigma_j flipped
    blocks = channel_blocks(model)
    flipped = np.arange(model.n_configs)[:, None] ^ (1 << (j[blocks[0]] - 1))
    partner = np.empty(m, dtype=int)
    partner[blocks] = blocks[flipped, np.arange(blocks.shape[1])]
    diag = np.arange(m)
    if model.dimension == 3:
        # B = I on the diagonal, A on the partners
        flip = sigma_j * 1j * table[j - 1, spin_col]
        return BoundaryPair._from_entries(3, n, np.concatenate([diag, diag]), np.concatenate([diag, partner]),
                                          np.concatenate([np.zeros(m), flip]),
                                          np.concatenate([np.ones(m), np.zeros(m)]))
    # A = I on the diagonal, B on the partners of the charge layer
    idx = np.flatnonzero(p == 0)
    flip = -2.0 * sigma_j[idx] * 1j * table[j[idx] - 1, spin_col[idx]]
    return BoundaryPair._from_entries(1, n, np.concatenate([diag, idx]), np.concatenate([diag, partner[idx]]),
                                      np.concatenate([np.ones(m), np.zeros(idx.size)]),
                                      np.concatenate([np.zeros(m), flip]))


def preset_delta_prime(model: ModelSpec, gamma) -> BoundaryPair:
    """d=1 dipole-layer interaction: psi(y_j+) - psi(y_j-) = gamma_j psi'(y_j)."""
    if model.dimension != 1:
        raise ValueError("the dipole-layer preset exists only in d=1")
    n = model.n_spins
    m = model.defect_dim
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape == ():
        gamma = np.full(n, float(gamma))
    if gamma.shape != (n,):
        raise ValueError(f"gamma must be a scalar or shape ({n},)")
    p, j, _ = channel_tables(model)
    diag = np.arange(m)
    return BoundaryPair._from_entries(1, n, diag, diag, np.ones(m), np.where(p == 1, gamma[j - 1], 0.0))


def random_valid_pair(model: ModelSpec, rng) -> BoundaryPair:
    """Random admissible pair from a Haar-distributed unitary U.

    A = i(I + U), B = I - U satisfies A B* = i(U - U*) (Hermitian) and
    (A | B) has full rank for every unitary U. Generically dense, hence
    nonlocal; useful for stress tests.
    """
    m = model.defect_dim
    ginibre = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(ginibre)
    u = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    A = 1j * (np.eye(m) + u)
    B = np.eye(m) - u
    return BoundaryPair(model.dimension, model.n_spins, A, B)
