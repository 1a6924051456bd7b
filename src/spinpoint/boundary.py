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
HERMITICITY_RTOL = 1e-10
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
    """A unitary U = I (x) (U_N (x) ... (x) U_1) on the spin code, and a pair's charged blocks in it.

    sites lists the rotated sites (1-based) and bases their 2 x 2 U_j;
    every other U_j is the identity. charged are the blocks of pair =
    (U* A U, U* B U) on which B Gamma(z) + A is block diagonal
    (pair.blocks()), each on its charged channels only: the blocks of the
    dressing and of the bound-state search. inert holds the smallest and
    largest |a_i| of the inert channels, the 1 x 1 blocks that need no
    solve (_charged_blocks). Both are computed on first read and cached
    on pair.
    """

    sites: tuple
    bases: tuple
    pair: "BoundaryPair"  # (U* A U, U* B U); the pair itself when no site is rotated

    @property
    def charged(self) -> "tuple[BlockGroup, ...]":
        return self.pair._charged[0]

    @property
    def inert(self) -> tuple:
        return self.pair._charged[1]

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

    def code_rows(self, codes) -> "np.ndarray | None":
        """Rows codes of the 2**N x 2**N unitary U_N (x) ... (x) U_1 that U applies on the spin code; None when U = I.

        Entry (c, c') is the product of U_j[bit j - 1 of c, of c'] over the
        rotated sites, and 0 where c and c' differ in another bit. As the
        flat defect index is (p, j) major with the code fastest, U* v for a
        v held on the channels of one code c is the outer product of v's
        values there and conj(row c), and (U w) on code c is w, split into
        (p, j) by code, times row c: no pass over other codes.
        """
        if not self.sites:
            return None
        codes = np.asarray(codes)[:, None]
        other = np.arange(2**self.pair.n_spins)
        rows = np.ones((codes.size, other.size), dtype=complex)
        rotated = 0
        for j, u in zip(self.sites, self.bases):
            rows *= u[(codes >> (j - 1)) & 1, (other >> (j - 1)) & 1]
            rotated |= 1 << (j - 1)
        rows[(codes ^ other) & ~rotated != 0] = 0.0
        return rows


def _joint_bases(mats: np.ndarray):
    """(good, U, rotated): U[i] unitary, U[i]* M U[i] diagonal for every 2 x 2 M of site i of mats where good[i].

    mats is a (2, P, P, n, 2, 2) slice of a local pair's table on n sites.
    U[i] is the eigenbasis of one fixed generic Hermitian combination of
    the Hermitian and skew-Hermitian parts of site i's M (the random-element
    method of Murota, Kanno, Kojima and Kojima, Japan J. Indust. Appl. Math.
    27, 2010), one stacked eigh for all sites. It diagonalizes them all when
    they commute and are normal, as checked on rotated, (n, 2 P P, 2, 2).
    """
    m = mats.transpose(3, 0, 1, 2, 4, 5).reshape(mats.shape[3], -1, 2, 2)  # (n, 2 P P, 2, 2)
    adj = m.conj().swapaxes(-1, -2)
    parts = np.concatenate([m + adj, 1j * (m - adj)], axis=1)
    combination = np.sqrt(np.arange(2, 2 + parts.shape[1])) @ parts.reshape(len(m), -1, 4)
    u = np.linalg.eigh(combination.reshape(-1, 2, 2))[1]
    rot = np.einsum("jab,jkac,jcd->jkbd", u.conj(), m, u)
    off = np.abs(rot.reshape(len(m), -1, 4)[..., 1:3]).max(axis=(1, 2))  # entries (0, 1) and (1, 0)
    return off <= FRAME_RTOL * np.abs(m).max(axis=(1, 2, 3)), u, rot


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
    """Interface matrices for a given dimension and spin count, held by their nonzero entries or their site table.

    BoundaryPair(d, N, A, B) reads the entries (PairEntries) of dense m x m
    input in one scan. The presets write theirs with _local_pair, which
    keeps only the site table they are written from (_site_matrices): their
    entries are built from it on first read, and the m x m A and B, read-only
    views, from the entries, for output and tests. Validation, max_abs,
    blocks, frames and charged blocks read a local pair's site table (also
    for dense input found local) and any other pair's entries. A local
    pair's A and B are block diagonal over its N site matrices (A_j, B_j),
    2 P x 2 P, up to a permutation, and validation takes those; any other
    pair's over components(), the finest blocks of A and B, which
    partition its entries (_partition). blocks() are the BlockGroups,
    ascending in block size, on which B Gamma(z) + A is block diagonal for
    every z; a local pair's are in closed form (_site_blocks), any other
    pair partitions its entries with the spin-code blocks of Gamma. The
    solvers run on frame(model).charged. Pairs are equal when dimension,
    spin count and entries are.
    """

    def __init__(self, dimension: int, n_spins: int, A, B):
        m = index_dimension(dimension, n_spins)
        A = np.asarray(A, dtype=complex)
        B = np.asarray(B, dtype=complex)
        if A.shape != (m, m) or B.shape != (m, m):
            raise ValueError(f"A and B must be {m} x {m}, got {A.shape} and {B.shape}")
        rows, cols = np.nonzero((A != 0.0) | (B != 0.0))
        a, b = A[rows, cols], B[rows, cols]
        self._hold(dimension, n_spins, a, b)
        for arr in (rows, cols, a, b):
            arr.setflags(write=False)
        self.entries = PairEntries(rows, cols, a, b)

    @staticmethod
    def _from_entries(rows, cols, A, B) -> PairEntries:
        """The read-only entries of the pair with values A, B at distinct positions (rows, cols) and 0 elsewhere.

        The four arrays are broadcast to one shape. Positions where both
        values are 0 are dropped, as a dense scan would, and the rest are
        sorted in row-major order.
        """
        rows, cols, A, B = np.broadcast_arrays(rows, cols, A, B)
        keep = (A != 0.0) | (B != 0.0)
        rows, cols, A, B = (x[keep] for x in (rows, cols, A, B))
        order = np.lexsort((cols, rows))
        entries = PairEntries(*(x[order] for x in (rows, cols, A, B)))
        for arr in entries:
            arr.setflags(write=False)
        return entries

    def _hold(self, dimension: int, n_spins: int, *values):
        if not all(np.isfinite(x).all() for x in values):
            raise ValueError("A and B must be finite")
        self.dimension, self.n_spins = dimension, n_spins
        self.defect_dim = index_dimension(dimension, n_spins)
        self._report = None
        self._components = None
        self._blocks = None
        self._frames = {}

    @functools.cached_property
    def entries(self) -> PairEntries:
        """The entries of a pair written by _local_pair, built from its site table on first read; set on dense input."""
        return self._from_entries(*site_slots(self), *self._site_matrices[..., None])

    def __eq__(self, other):
        if not isinstance(other, BoundaryPair):
            return NotImplemented
        return ((self.dimension, self.n_spins) == (other.dimension, other.n_spins)
                and all(np.array_equal(x, y) for x, y in zip(self.entries, other.entries)))

    @property
    def A(self) -> np.ndarray:
        """A as a read-only m x m array, built from the entries on first read."""
        return self._dense[0]

    @property
    def B(self) -> np.ndarray:
        """B as a read-only m x m array, built from the entries on first read."""
        return self._dense[1]

    @functools.cached_property
    def max_abs(self) -> tuple:
        """(max |A_ij|, max |B_ij|): read off the site table of a local pair, else off the entries."""
        mats = self._site_matrices
        values = np.stack(self.entries[2:]) if mats is None else mats.reshape(2, -1)
        return tuple(np.abs(values).max(axis=1, initial=0.0).tolist())

    @functools.cached_property
    def _dense(self) -> np.ndarray:
        rows, cols, a, b = self.entries
        dense = np.zeros((2, self.defect_dim, self.defect_dim), dtype=complex)
        dense[:, rows, cols] = a, b
        dense.setflags(write=False)
        return dense

    def validation(self, tol: float | None = None) -> "ValidationReport":
        if tol is not None:
            return validate(self, tol=tol)
        if self._report is None:
            self._report = validate(self)
        return self._report

    def components(self) -> "tuple[BlockGroup, ...]":
        """Connected components of the nonzero pattern of A and B: the entries' (row, col) are its edges.

        validate factors them for a pair that is not local. A local pair's
        lie within its site matrices, and validate factors those instead:
        a site matrix is block diagonal over its components up to a
        permutation, so its singular values are theirs.
        """
        if self._components is None:
            groups = _partition(self.defect_dim, [np.stack(self.entries[:2], axis=1)])
            self._components = tuple(self._block_group(index) for index in groups)
        return self._components

    def blocks(self) -> "tuple[BlockGroup, ...]":
        """The components joined through the equal-spin-code blocks of Gamma(z); a local pair's are in closed form."""
        if self._blocks is None:
            mats = self._site_matrices
            if mats is None:
                chains = [np.stack(self.entries[:2], axis=1), channel_blocks(self)]
                self._blocks = tuple(self._block_group(index) for index in _partition(self.defect_dim, chains))
            else:
                self._blocks = _site_blocks(self)
        return self._blocks

    def frame(self, model: ModelSpec) -> SpinFrame:
        """The spin frame of the solvers in this model, cached per nonempty set of candidate sites.

        Site j rotates when alpha_j = 0, the pair is local, and the 2 x 2
        spin matrices of A and B at site j (one per layer pair (p, p'))
        are not all diagonal but commute and are normal; U_j is their
        joint eigenbasis, computed for these candidates only (_joint_bases).
        Gamma(z) depends on sigma_j only through alpha_j sigma_j, so U
        commutes with it, and (U* A U, U* B U) is an admissible pair with
        up to 2**N times more blocks. It is again local: _local_pair writes
        it from the rotated 2 x 2s (diagonal, exact zeros off it), and the
        frame's blocks are its own blocks(). No rotated site: U = I and the
        pair's own blocks. The charged blocks and inert channels are read
        off the site table of the frame's pair (of the pair's entries, for
        a pair that is not local) when a solver first asks. Validation
        stays on the pair itself: a unitary similarity keeps admissibility.
        """
        mats = self._site_matrices
        key = tuple(j for j in self._flips if model.alpha[j] == 0.0)
        if key and key not in self._frames:  # None when no candidate rotates
            good, u, rot = _joint_bases(mats[:, :, :, key])
            at = np.array(key)[good]
            diag = rot[good].diagonal(axis1=2, axis2=3).reshape((at.size,) + mats.shape[:3] + (2,))  # [j, w, p, p', s]
            table = mats.copy()
            table[:, :, :, at] = diag.transpose(1, 2, 3, 0, 4)[..., None] * np.eye(2)  # off-diagonal exactly 0
            frame = SpinFrame(tuple((at + 1).tolist()), tuple(u[good]), _local_pair(self, *table))
            self._frames[key] = frame if at.size else None
        # not cached without rotated sites: a frame holding its own pair would keep the pair in a reference cycle
        return self._frames.get(key) or SpinFrame((), (), self)

    @functools.cached_property
    def _site_matrices(self):
        """mats[w, p, p', j - 1], the 2 x 2 of A (w = 0) or B (w = 1) at site j; None for a pair that is not local.

        A pair written by _local_pair holds the table it was written from,
        and this search never runs. Otherwise mats reads the entries at the
        slots of spectator configuration 0 (spins.site_slots) in one search;
        the pair is local (is_local) exactly when _local_pair writes it back
        from mats. No m x m matrix is formed.
        """
        m = self.defect_dim
        rows, cols, a, b = self.entries
        flat = np.append(rows * m + cols, m * m)  # ascending, then a sentinel past every slot
        slot_rows, slot_cols = site_slots(self)
        keys = slot_rows[..., 0] * m + slot_cols[..., 0]
        at = np.searchsorted(flat, keys)
        at[flat[at] != keys] = -1  # a slot without an entry reads the 0 appended below
        mats = np.stack([np.append(a, 0.0), np.append(b, 0.0)])[:, at]
        return mats if _local_pair(self, *mats) == self else None

    @functools.cached_property
    def _flips(self) -> tuple:
        """The sites j - 1 where a local pair's 2 x 2s, of A or B, have an off-diagonal entry; () if not local."""
        mats = self._site_matrices
        if mats is None:
            return ()
        return tuple(np.flatnonzero((mats.reshape(-1, self.n_spins, 4)[..., 1:3] != 0.0).any(axis=(0, 2))).tolist())

    @functools.cached_property
    def _charged(self):
        """(charged blocks, extremes of the inert |a_i|) of this pair (_charged_blocks), for its spin frames."""
        return _charged_blocks(self)

    def _block_group(self, index: np.ndarray) -> BlockGroup:
        """The BlockGroup of A and B on the (g, k) blocks of index: each entry with row and column in one block."""
        g, k = index.shape
        rows, cols, a, b = self.entries
        at = np.full(self.defect_dim, -1)
        at[index.ravel()] = np.arange(index.size)  # block * k + position in the block
        r, c = at[rows], at[cols]
        on = np.flatnonzero((np.minimum(r, c) >= 0) & (r // k == c // k))
        out = np.zeros((2, g * k * k), dtype=complex)
        out[:, r[on] * k + c[on] % k] = a[on], b[on]
        return BlockGroup(index, *out.reshape(2, g, k, k))


def _site_blocks(pair: BoundaryPair) -> "tuple[BlockGroup]":
    """blocks() of a local pair, in closed form from its site table: one stack of equal blocks.

    Gamma(z) joins the channels of each spin code, and an entry of a local
    pair joins two codes only where a site's 2 x 2 has an off-diagonal
    entry (_flips), the codes then differing in that site's bit alone. With
    F those sites, every block is thus the channels of one coset code +
    span{bits of F}, in flat order, (p, j) major, then code; the rows ascend
    by their smallest code. Within a block, A and B join (p, j, c) and
    (p', j, c') where c and c' differ at most in bit j, with the table's
    entry [p, p', j - 1, bit j of c, bit j of c']: one gather of those
    entries, copied onto the block diagonal in j; every other entry is +0.
    """
    mats, n = pair._site_matrices, pair.n_spins
    layers, site_bit, codes = mats.shape[1], 1 << np.arange(n), np.arange(2**n)
    bits = sum(1 << j for j in pair._flips)
    span, reps = codes[(codes & ~bits) == 0], codes[(codes & bits) == 0]
    coset = reps[:, None, None] | span  # [block, 1, u]: the code of position u
    index = (np.arange(layers * n)[:, None] * 2**n + coset).reshape(reps.size, -1)  # (p, j) major, then code
    spin = (coset >> np.arange(n)[:, None]) & 1  # [block, j - 1, u]: bit j of its code
    joined = ((span[:, None] ^ span) & ~site_bit[:, None, None]) == 0  # [j - 1, u, u']
    table = mats.transpose(3, 4, 5, 0, 1, 2)  # [j - 1, s, s', w, p, p']
    values = table[np.arange(n)[:, None, None], spin[..., None], spin[..., None, :]]  # [block, j - 1, u, u', w, p, p']
    blocks = np.zeros((2, reps.size, layers, n, span.size, layers, n, span.size), dtype=complex)
    part = np.einsum("wbpjuqjv->wbjpuqv", blocks)  # a writable view: site j's part of each block
    np.copyto(part, values.transpose(4, 0, 1, 5, 2, 6, 3), where=joined[:, None, :, None, :])
    index.setflags(write=False)
    return (BlockGroup(index, *blocks.reshape(2, reps.size, index.shape[1], -1)),)


def _charged_blocks(pair: BoundaryPair):
    """(charged, inert): the pair's blocks() on its charged channels, and the extremes of |a_i| over its inert ones.

    Channel i is inert when row and column i of B are 0 and row i of A is
    a e_i with a != 0: row i of A q = B f then reads a q_i = 0, so q_i = 0
    at every z, and with the channels ordered (J, I), J the charged ones,
    B Gamma + A = [[D_J, X], [0, diag a]] with D_J = B_JJ Gamma_JJ + A_JJ.
    Its correction (B Gamma + A)^{-1} B is D_J^{-1} B_JJ on J and 0 on the
    rest, for any pair. The inert channels of a local pair are read per
    (layer, site, spin bit) off its site table (_inert_sites), any other
    pair's off its entries (_inert_entries). The blocks keep their charged
    positions, in order, regrouped by their count r ascending; a block
    with none drops out. Their values are those of blocks() on the
    charged positions, gathered from its stacks. inert is the smallest and
    largest |a_i|, all that the condition number reads of the 1 x 1
    blocks; with no inert channel it is () and charged is blocks() itself.
    """
    mats = pair._site_matrices
    inert, scale = _inert_entries(pair) if mats is None else _inert_sites(pair, mats)
    if not scale.size:
        return pair.blocks(), ()
    by_count = {}
    for group in pair.blocks():
        k = group.index.shape[1]
        keep = ~inert[group.index]
        count = keep.sum(axis=1)
        for r in np.bincount(count)[1:].nonzero()[0] + 1:
            sel = np.flatnonzero(count == r)
            at = np.nonzero(keep[sel])[1].reshape(-1, r)  # positions in the block
            rows = sel[:, None] * k + at  # and in the flat (g k) rows of the group
            on = rows[:, :, None] * k + at[:, None, :]  # the flat (g k k) entries between them
            by_count.setdefault(r, []).append([x.ravel()[y] for x, y in zip(group, (rows, on, on))])
    charged = []
    for r in sorted(by_count):
        index, a, b = (np.concatenate(x) for x in zip(*by_count[r]))
        for arr in (index, a, b):
            arr.setflags(write=False)
        charged.append(BlockGroup(index, a, b))
    return tuple(charged), (float(scale.min()), float(scale.max()))


def _inert_entries(pair: BoundaryPair):
    """(inert per channel, |a_i| of the inert channels), from the entries."""
    rows, cols, a, b = pair.entries
    on_b = b != 0.0
    # a diagonal entry without b, alone in its row, in a column where B has no entry: then a != 0
    lone = (rows == cols) & ~on_b & (np.bincount(rows, minlength=pair.defect_dim)[rows] == 1)
    inert, lone_rows = np.zeros(pair.defect_dim, dtype=bool), rows[lone]
    inert[lone_rows] = True
    inert[cols[on_b]] = False
    return inert, np.abs(a[lone][inert[lone_rows]])


def _inert_sites(pair: BoundaryPair, mats: np.ndarray):
    """_inert_entries of the local pair with the site table mats, read per (layer p, site j, spin bit s).

    Row (p, j, s) of a site's 2 x 2s is the row of every channel with that
    layer, site and bit of the code at j, whatever the spectator spins, and
    so is its column: the test holds for all 2**(N-1) channels or none. Each
    inert |a| thus counts once here, which leaves its extremes. Without an
    inert channel, the per-channel test is not expanded: it is None.
    """
    nonzero = mats != 0.0  # [w, p, p', j - 1, s, s']
    # the one nonzero of row (p, s) of (A_j | B_j) is A's diagonal, and column (p, s) of B_j is 0
    sites = (nonzero.sum(axis=(0, 2, 5)) == 1) & np.einsum("ppjss->pjs", nonzero[0]) & ~nonzero[1].any(axis=(0, 3))
    if not sites.any():
        return None, np.empty(0)
    p, j, code = channel_tables(pair)
    return sites[p, j - 1, (code >> (j - 1)) & 1], np.abs(np.einsum("ppjss->pjs", mats[0])[sites])


def _partition(m: int, chains) -> "tuple[np.ndarray, ...]":
    """Connected components of the graph on 0..m-1 linking neighbours along each row of each chain.

    One read-only (g, k) index stack per component size k, ascending in k;
    a row is one component, ascending, and rows ascend by their first index.
    """
    head = np.concatenate([c[:, :-1].ravel() for c in chains])
    tail = np.concatenate([c[:, 1:].ravel() for c in chains])
    head, tail = head[head != tail], tail[head != tail]  # a diagonal entry links nothing
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
    groups = tuple(order[size[order] == k].reshape(-1, k) for k in np.unique(size))
    for index in groups:
        index.setflags(write=False)
    return groups


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
    tolerance is 1e-10 * ||A|| ||B|| in the max-abs norms, so scaling
    (A, B), which leaves A q = B f unchanged, leaves the verdict. The
    rank of (A | B) is counted from singular values above a relative
    threshold of 1e-10.

    Neither needs Gamma(z): both are computed on diagonal blocks of A and
    B, off which A B* - B A* vanishes, and the singular values of (A | B)
    are the union of those of the (A_k | B_k). A local pair's blocks are
    its site matrices (A_j, B_j) on (layer, spin bit at j), 2 P x 2 P, in
    2**(N-1) copies: one stacked product and one stacked SVD take them all,
    and each singular value counts 2**(N-1) times. Any other pair's are its
    components. A B* - B A* is formed, and held against the tolerance, with
    A and B scaled exactly to max-abs below 1 by powers of two, so it is
    finite at any scale; the report gives both at the pair's own scale.
    """
    norms = pair.max_abs
    mantissas, (ka, kb) = np.frexp(norms)
    mats = pair._site_matrices
    if mats is None:
        stacks, copies = [np.concatenate([group.A, group.B], axis=-1) for group in pair.components()], 1
    else:  # [j - 1, (p, s), (w, p', s')]
        side = 2 * mats.shape[1]
        stacks = [mats.transpose(3, 1, 4, 0, 2, 5).reshape(pair.n_spins, side, 2 * side)]
        copies = 2 ** (pair.n_spins - 1)
    scaled = 0.0  # max|A B* - B A*| / 2**(ka + kb)
    sv = []
    for ab in stacks:
        k = ab.shape[-2]
        scaled_ab = np.ldexp(ab.view(float), np.repeat([-ka, -kb], 2 * k)).view(complex)  # float by float
        a, b = scaled_ab[..., :k], scaled_ab[..., k:]
        ah, bh = a.conj().swapaxes(-1, -2), b.conj().swapaxes(-1, -2)
        scaled = max(scaled, float(np.max(np.abs(a @ bh - b @ ah))))
        sv.append(np.linalg.svd(ab, compute_uv=False).ravel())
    sv = np.sort(np.concatenate(sv))[::-1].repeat(copies)
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
        is_local=mats is not None,
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
    entries identical across the spectator spins' configurations. Such a
    pair is its 2 x 2 site matrices (_site_matrices): a pair written by
    _local_pair is local by construction, and any other is local exactly
    when _local_pair writes it back from the matrices read off its slots.
    """
    return pair._site_matrices is not None


def _local_pair(space, a, b) -> BoundaryPair:
    """The local pair with the 2 x 2 spin matrices a and b, which broadcast to (P, P, N, 2, 2).

    a[p, p', j - 1, s, s'] is the value of A at every slot (p, p', j, s, s')
    of spins.site_slots, whatever the spectator spins; likewise b for B.
    space is a ModelSpec or a BoundaryPair. The pair holds only the
    (2, P, P, N, 2, 2) table of a and b, its _site_matrices, with +0 where
    both are 0, as the slot search reads an absent entry; its entries are
    built from the table on first read.
    """
    mats = np.empty((2,) + site_slots(space)[0].shape[:-1], dtype=complex)
    mats[0], mats[1] = a, b
    np.copyto(mats, 0.0, where=(mats == 0.0).all(axis=0))
    pair = BoundaryPair.__new__(BoundaryPair)
    pair._hold(space.dimension, space.n_spins, mats)
    mats.setflags(write=False)
    pair.__dict__["_site_matrices"] = mats  # the cached_property's slot: the search never runs
    return pair


def _identity(space) -> np.ndarray:
    """The 2 x 2s of the m x m identity: I in each layer (p, p)."""
    return np.eye(len(site_slots(space)[0]))[:, :, None, None, None] * np.eye(2)


def _beta_table(values, n_spins: int, name: str) -> np.ndarray:
    table = np.asarray(values, dtype=float)
    if table.shape not in ((), (n_spins,), (n_spins, 2)):
        raise ValueError(f"{name} must be a scalar, shape ({n_spins},) or ({n_spins}, 2) table")
    return np.broadcast_to(table if table.ndim == 2 else table[..., None], (n_spins, 2))


def preset_free(model: ModelSpec) -> BoundaryPair:
    """No interaction: A = I, B = 0 forces all charges to vanish."""
    return _local_pair(model, _identity(model), 0.0)


def preset_delta(model: ModelSpec, beta, paper_literal: bool = False) -> BoundaryPair:
    """Spin-dependent contact interaction of strength beta[j, sigma_j].

    beta may be a scalar, per-site vector, or (N, 2) table indexed by
    site and sigma_j (+1 column first). For d=1 the default realizes the
    derivative jump psi'(y+) - psi'(y-) = beta * psi(y); paper_literal
    keeps the alternative convention with the coupling doubled.
    """
    strength = _beta_table(beta, model.n_spins, "beta")[..., None] * np.eye(2)  # diagonal in sigma_j
    if model.dimension == 3:
        return _local_pair(model, strength, _identity(model))
    b = np.zeros((2, 2, model.n_spins, 2, 2))
    b[0, 0] = (-2.0 if paper_literal else -1.0) * strength  # charge layer
    return _local_pair(model, _identity(model), b)


def preset_offdiag(model: ModelSpec, betahat) -> BoundaryPair:
    """Spin-flip contact interaction with strengths betahat[j, sigma_j].

    The condition links the charge in one spin channel to the boundary
    value in the channel with sigma_j flipped. Hermiticity requires
    betahat[j, +] == betahat[j, -]; unequal tables are still assembled
    (validate() then reports the defect |betahat_+ - betahat_-|).
    """
    table = _beta_table(betahat, model.n_spins, "betahat")
    sigma = np.array([1, -1])  # sigma_j of spin bit 0 and 1
    if model.dimension == 3:  # B = I, and A flips sigma_j
        a = np.zeros((model.n_spins, 2, 2), dtype=complex)
        a[:, [0, 1], [1, 0]] = sigma * 1j * table
        return _local_pair(model, a, _identity(model))
    b = np.zeros((2, 2, model.n_spins, 2, 2), dtype=complex)  # A = I, and B flips sigma_j in the charge layer
    b[0, 0][:, [0, 1], [1, 0]] = -2.0 * sigma * 1j * table
    return _local_pair(model, _identity(model), b)


def preset_delta_prime(model: ModelSpec, gamma) -> BoundaryPair:
    """d=1 dipole-layer interaction: psi(y_j+) - psi(y_j-) = gamma_j psi'(y_j)."""
    if model.dimension != 1:
        raise ValueError("the dipole-layer preset exists only in d=1")
    n = model.n_spins
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape == ():
        gamma = np.full(n, float(gamma))
    if gamma.shape != (n,):
        raise ValueError(f"gamma must be a scalar or shape ({n},)")
    b = np.zeros((2, 2, n, 2, 2))
    b[1, 1] = gamma[:, None, None] * np.eye(2)  # dipole layer
    return _local_pair(model, _identity(model), b)


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
