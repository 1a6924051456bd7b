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


def _joint_bases(mats: np.ndarray) -> dict:
    """{j: U_j}, U_j unitary with U_j* M U_j diagonal for every 2 x 2 M of site j in the table mats.

    mats is a local pair's (2, P, P, N, 2, 2) table (_site_matrices). A
    site whose 2 x 2s are all diagonal already has no U_j, without
    arithmetic. U_j is the eigenbasis of one fixed generic Hermitian
    combination of the Hermitian and skew-Hermitian parts of site j's
    M (the random-element method of Murota, Kanno, Kojima and Kojima,
    Japan J. Indust. Appl. Math. 27, 2010), one stacked eigh for all
    sites. It diagonalizes them all when they commute and are normal,
    which is checked on the result; a site where it does not has no U_j.
    """
    per_site = mats.transpose(3, 0, 1, 2, 4, 5).reshape(mats.shape[3], -1, 2, 2)  # (N, 2 P P, 2, 2)
    sites = np.flatnonzero(per_site[:, :, 0, 1].any(axis=1) | per_site[:, :, 1, 0].any(axis=1))
    if not sites.size:
        return {}
    m = per_site[sites]
    adj = m.conj().swapaxes(-1, -2)
    parts = np.concatenate([m + adj, 1j * (m - adj)], axis=1)
    combination = np.sqrt(np.arange(2, 2 + parts.shape[1])) @ parts.reshape(len(sites), -1, 4)
    u = np.linalg.eigh(combination.reshape(-1, 2, 2))[1]
    rot = u.conj().swapaxes(-1, -2)[:, None] @ m @ u[:, None]
    off = np.maximum(np.abs(rot[..., 0, 1]), np.abs(rot[..., 1, 0]))
    ok = np.max(off, axis=1) <= FRAME_RTOL * np.max(np.abs(m), axis=(1, 2, 3))
    return {int(j) + 1: uj for j, uj, good in zip(sites, u, ok) if good}


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
    for dense input found local) and any other pair's entries. blocks() are
    the BlockGroups, ascending in block size, on which B Gamma(z) + A is
    block diagonal for every z; a local pair reads them off its site table in
    closed form, any other pair partitions its entries (_partition), as
    components() does, the finest blocks of A and B, for validating a pair
    that is not local. The solvers run on frame(model).charged. Pairs are
    equal when dimension, spin count and entries are.
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
        return tuple(float(np.max(np.abs(x), initial=0.0)) for x in (self.entries[2:] if mats is None else mats))

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

        validate reads them for a pair that is not local; a local pair's are
        the copies of its site components (_site_components).
        """
        if self._components is None:
            groups = _partition(self.defect_dim, [np.stack(self.entries[:2], axis=1)])
            self._components = tuple(BlockGroup(index, *self._block_entries(index)) for index in groups)
        return self._components

    def blocks(self) -> "tuple[BlockGroup, ...]":
        """The components joined through the equal-spin-code blocks of Gamma(z)."""
        if self._blocks is None:
            self._blocks = tuple(BlockGroup(index, *self._block_entries(index)) for index in self._block_index)
        return self._blocks

    @functools.cached_property
    def _block_index(self) -> "tuple[np.ndarray, ...]":
        """The index stacks of blocks(), without their values: _coset_blocks for a local pair, else _partition."""
        mats = self._site_matrices
        if mats is not None:
            return _coset_blocks(mats)
        return _partition(self.defect_dim, [np.stack(self.entries[:2], axis=1), channel_blocks(self)])

    def frame(self, model: ModelSpec) -> SpinFrame:
        """The spin frame of the solvers in this model, cached per nonempty set of rotated sites.

        Site j rotates when alpha_j = 0, the pair is local, and the 2 x 2
        spin matrices of A and B at site j (one per layer pair (p, p'))
        are not all diagonal but commute and are normal; U_j is their
        joint eigenbasis. Gamma(z) depends on sigma_j only through
        alpha_j sigma_j, so U commutes with it, and (U* A U, U* B U) is an
        admissible pair with up to 2**N times more blocks. It is again
        local: _local_pair writes it from the rotated 2 x 2s (diagonal,
        exact zeros off it), and the frame's blocks are its own blocks().
        No rotated site: U = I and the pair's own blocks. The charged blocks
        and inert channels are read off the site table of the frame's pair
        (of the pair's entries, for a pair that is not local) when a solver
        first asks. Validation stays on the pair itself:
        a unitary similarity keeps admissibility.
        """
        mats, bases = self._site_bases
        sites = tuple(j for j in bases if model.alpha[j - 1] == 0.0)
        if not sites:  # not cached: a frame holding its own pair would keep the pair in a reference cycle
            return SpinFrame(sites, (), self)
        if sites not in self._frames:
            u, at = np.array([bases[j] for j in sites]), np.array(sites) - 1
            rot = mats.copy()
            diag = np.einsum("jab,...jac,jcb->...jb", u.conj(), mats[:, :, :, at], u)
            rot[:, :, :, at] = diag[..., None] * np.eye(2)  # off-diagonal exactly 0
            self._frames[sites] = SpinFrame(sites, tuple(bases[j] for j in sites), _local_pair(self, *rot))
        return self._frames[sites]

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
    def _charged(self):
        """(charged blocks, extremes of the inert |a_i|) of this pair (_charged_blocks), for its spin frames."""
        return _charged_blocks(self)

    @functools.cached_property
    def _site_bases(self):
        """(mats, bases): the 2 x 2s of a local pair (_site_matrices); bases[j] = U_j if j rotates.

        The bases of all sites come from one stacked eigh (_joint_bases).
        """
        mats = self._site_matrices
        return mats, {} if mats is None else _joint_bases(mats)

    def _block_entries(self, index: np.ndarray):
        """(A, B) on the (g, k, k) blocks of index: each entry with row and column in one block, scattered there.

        A local pair scatters every slot of its site table (spins.site_slots)
        instead, with the value of its 2 x 2 entry; a slot of two zeros
        writes the +0 already there.
        """
        g, k = index.shape
        at = np.full(self.defect_dim, -1)
        at[index.ravel()] = np.arange(index.size)  # block * k + position in the block
        mats = self._site_matrices
        if mats is None:
            rows, cols, a, b = self.entries
            values, spread = np.stack([a, b]), 1
        else:
            rows, cols = (x.ravel() for x in site_slots(self))
            values, spread = mats.reshape(2, -1), 2 ** (self.n_spins - 1)  # slot // spread is its 2 x 2 entry
        r, c = at[rows], at[cols]
        on = np.flatnonzero((np.minimum(r, c) >= 0) & (r // k == c // k))
        out = np.zeros((2, g * k * k), dtype=complex)
        out[:, r[on] * k + c[on] % k] = values[:, on // spread]
        return out.reshape(2, g, k, k)


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
    charged positions only (BoundaryPair._block_entries). inert is the
    smallest and largest |a_i|, all that the condition number reads of
    the 1 x 1 blocks; with no inert channel it is () and charged is
    blocks() itself.
    """
    mats = pair._site_matrices
    inert, scale = _inert_entries(pair) if mats is None else _inert_sites(pair, mats)
    if not inert.any():
        return pair.blocks(), ()
    by_count = {}
    for index in pair._block_index:
        keep = ~inert[index]
        count = keep.sum(axis=1)
        for r in np.bincount(count)[1:].nonzero()[0] + 1:
            sel = count == r
            by_count.setdefault(int(r), []).append(index[sel][keep[sel]].reshape(-1, r))
    groups = []
    for r in sorted(by_count):
        index = np.concatenate(by_count[r])
        index.setflags(write=False)
        groups.append(BlockGroup(index, *pair._block_entries(index)))
    return tuple(groups), (float(scale.min()), float(scale.max()))


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
    inert |a| thus counts once here, which leaves its extremes.
    """
    a, b = mats != 0.0  # [p, p', j - 1, s, s']
    diag = np.einsum("ppjss->pjs", mats[0])
    sites = (diag != 0.0) & (a.sum(axis=(1, 4)) == 1) & ~b.any(axis=(1, 4)) & ~b.any(axis=(0, 3))
    p, j, code = channel_tables(pair)
    return sites[p, j - 1, (code >> (j - 1)) & 1], np.abs(diag[sites])


def _coset_blocks(mats: np.ndarray) -> "tuple[np.ndarray, ...]":
    """_partition(m, [entries, channel_blocks]) of the local pair with the site table mats, in closed form.

    Gamma(z) joins the channels of each spin code, and an entry of a
    local pair joins two codes only where a site's 2 x 2 has an
    off-diagonal entry, the codes then differing in that site's bit
    alone. With F the sites that have one (in A or B, at any layer pair),
    every block is thus the channels of one coset code + span{bits of F}:
    one stack of equal blocks, each ascending in flat order, the rows
    ascending by their smallest code.
    """
    _, layers, _, n = mats.shape[:4]
    flips = ((mats[..., 0, 1] != 0.0) | (mats[..., 1, 0] != 0.0)).any(axis=(0, 1, 2))
    bits = int(flips @ (1 << np.arange(n)))
    codes = np.arange(2**n)
    span, reps = codes[(codes & ~bits) == 0], codes[(codes & bits) == 0]
    index = (np.arange(layers * n)[:, None] * 2**n + span).ravel() + reps[:, None]  # (p, j) major, then code
    index.setflags(write=False)
    return (index,)


def _site_components(mats: np.ndarray) -> list:
    """(A, B) stacks of the components of the N site graphs of the site table mats, one per component size.

    Site j's graph joins (p, s) and (p', s') where its 2 x 2s of A or B
    have an entry at (p, p', s, s'). Copied over the 2**(N-1) spectator
    configurations, its components are those of the pair
    (BoundaryPair.components), each in flat order there as here, ordered
    by (p, s). A component has at most 2 P <= 4 nodes, so two squarings
    of the reachability matrix close it.
    """
    _, layers, _, n = mats.shape[:4]
    site = mats.transpose(0, 3, 1, 4, 2, 5).reshape(2, n, 2 * layers, 2 * layers)  # [w, j - 1, (p, s), (p', s')]
    link = (site != 0.0).any(axis=0)
    reach = link | link.swapaxes(1, 2) | np.eye(2 * layers, dtype=bool)
    for _ in range(2):
        reach = reach @ reach
    size = reach.sum(axis=2)
    root = reach.argmax(axis=2) == np.arange(2 * layers)  # the smallest node of its component
    out = []
    for k in np.unique(size):
        j, node = np.nonzero(root & (size == k))
        nodes = np.nonzero(reach[j, node])[1].reshape(-1, k)
        sub = (j[:, None, None], nodes[:, :, None], nodes[:, None, :])
        out.append((site[0][sub], site[1][sub]))
    return out


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

    Neither needs Gamma(z): both are computed on the pair's components,
    where A and B are block diagonal, so A B* - B A* vanishes off them
    and the singular values of (A | B), ranked against the largest, are
    the union of those of the (A_k | B_k). A local pair's components are
    the 2**(N-1) copies of its site components (_site_components), read
    off its site table: one copy of each is factored, and its singular
    values count 2**(N-1) times. Any other pair's are cached by
    BoundaryPair.components. A B* - B A* is formed, and held against the
    tolerance, with A and B scaled exactly to max-abs below 1 by powers
    of two, so it is finite at any scale; the report gives both at the
    pair's own scale.
    """
    norms = pair.max_abs
    mantissas, (ka, kb) = np.frexp(norms)
    mats = pair._site_matrices
    if mats is None:
        stacks, copies = [(group.A, group.B) for group in pair.components()], 1
    else:
        stacks, copies = _site_components(mats), 2 ** (pair.n_spins - 1)
    scaled = 0.0  # max|A B* - B A*| / 2**(ka + kb)
    sv = []
    for A, B in stacks:
        a, b = (np.ldexp(x.view(float), -k).view(complex) for x, k in ((A, ka), (B, kb)))
        ah, bh = a.conj().swapaxes(-1, -2), b.conj().swapaxes(-1, -2)
        scaled = max(scaled, float(np.max(np.abs(a @ bh - b @ ah))))
        sv.append(np.linalg.svd(np.concatenate([A, B], axis=-1), compute_uv=False).ravel())
    sv = np.sort(np.repeat(np.concatenate(sv), copies))[::-1]
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
