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

from .spins import ModelSpec, channel_blocks, index_dimension, site_slots

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
    """A unitary U = I (x) (U_N (x) ... (x) U_1) on the spin code, and a pair's blocks in it.

    sites lists the rotated sites (1-based) and bases their 2 x 2 U_j;
    every other U_j is the identity. blocks are the dressing blocks of
    (U* A U, U* B U), as BoundaryPair.blocks gives them; with no site
    rotated they are the pair's own blocks.
    """

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

    None also when every M is diagonal already, without arithmetic. U is
    the eigenbasis of one fixed generic Hermitian combination of the
    Hermitian and skew-Hermitian parts of the M (the random-element
    method of Murota, Kanno, Kojima and Kojima, Japan J. Indust. Appl.
    Math. 27, 2010). It diagonalizes them all when they commute and are
    normal, which is checked on the result.
    """
    if not (mats[:, 0, 1].any() or mats[:, 1, 0].any()):
        return None
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
    input in one scan; the presets write theirs with _local_pair. The m x m
    A and B are read-only views built from the entries on first read, for
    output and tests: validation, components, blocks and frames read them.
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

        The four arrays are broadcast to one shape. Positions where both
        values are 0 are dropped, as a dense scan would.
        """
        rows, cols, A, B = np.broadcast_arrays(rows, cols, np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))
        keep = (A != 0.0) | (B != 0.0)
        rows, cols, A, B = (x[keep] for x in (rows, cols, A, B))
        order = np.lexsort((cols, rows))
        pair = cls.__new__(cls)
        pair._hold(dimension, n_spins, rows[order], cols[order], A[order], B[order])
        return pair

    def _hold(self, dimension: int, n_spins: int, rows, cols, A, B):
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("A and B must be finite")
        self.dimension, self.n_spins = dimension, n_spins
        self.defect_dim = index_dimension(dimension, n_spins)
        for arr in (rows, cols, A, B):
            arr.setflags(write=False)
        self.entries = PairEntries(rows, cols, A, B)
        self._report = None
        self._components = None
        self._blocks = None
        self._frames = {}

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
        """Connected components of the nonzero pattern of A and B: the entries' (row, col) are its edges."""
        if self._components is None:
            self._components = self._grouped([np.stack(self.entries[:2], axis=1)])
        return self._components

    def blocks(self) -> "tuple[BlockGroup, ...]":
        """The components joined through the equal-spin-code blocks of Gamma(z)."""
        if self._blocks is None:
            self._blocks = self._grouped([np.stack(self.entries[:2], axis=1), channel_blocks(self)])
        return self._blocks

    def frame(self, model: ModelSpec) -> SpinFrame:
        """The spin frame of the solvers in this model, cached per set of rotated sites.

        Site j rotates when alpha_j = 0, the pair is local, and the 2 x 2
        spin matrices of A and B at site j (one per layer pair (p, p'))
        are not all diagonal but commute and are normal; U_j is their
        joint eigenbasis. Gamma(z) depends on sigma_j only through
        alpha_j sigma_j, so U commutes with it, and (U* A U, U* B U) is an
        admissible pair with up to 2**N times more blocks. It is again
        local: _local_pair writes it from the rotated 2 x 2s (diagonal,
        exact zeros off it), and the frame's blocks are its own blocks().
        No rotated site: U = I and the pair's own blocks. Validation stays
        on the pair itself: a unitary similarity keeps admissibility.
        """
        mats, bases = self._site_bases
        sites = tuple(j for j in bases if model.alpha[j - 1] == 0.0)
        if sites not in self._frames:
            pair = self
            if sites:
                rot = mats.copy()
                for j in sites:
                    diag = np.einsum("ab,...ac,cb->...b", bases[j].conj(), rot[:, :, :, j - 1], bases[j])
                    rot[:, :, :, j - 1] = diag[..., None] * np.eye(2)  # off-diagonal exactly 0
                pair = _local_pair(self, *rot)
            self._frames[sites] = SpinFrame(sites, tuple(bases[j] for j in sites), pair.blocks())
        return self._frames[sites]

    @functools.cached_property
    def _site_matrices(self):
        """mats[w, p, p', j - 1], the 2 x 2 of A (w = 0) or B (w = 1) at site j; None for a pair that is not local.

        mats reads the entries at the slots of spectator configuration 0
        (spins.site_slots) in one search; the pair is local (is_local) exactly
        when _local_pair writes it back from mats. No m x m matrix is formed.
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
    def _site_bases(self):
        """(mats, bases): the 2 x 2s of a local pair (_site_matrices); bases[j] = U_j (_joint_basis) if j rotates."""
        mats = self._site_matrices
        per_site = () if mats is None else np.moveaxis(mats, 3, 0).reshape(self.n_spins, -1, 2, 2)
        bases = {j: _joint_basis(m) for j, m in enumerate(per_site, start=1)}
        return mats, {j: u for j, u in bases.items() if u is not None}

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

    def _grouped(self, chains) -> "tuple[BlockGroup, ...]":
        """The blocks of _partition(defect_dim, chains), with the pair's values on them."""
        return tuple(BlockGroup(index, *self._block_entries(index)) for index in _partition(self.defect_dim, chains))


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

    Neither needs Gamma(z): both are computed on the pair's components
    (BoundaryPair.components), where A and B are block diagonal, so
    A B* - B A* vanishes off them and the singular values of (A | B),
    ranked against the largest, are the union of those of the (A_k | B_k).
    A B* - B A* is formed, and held against the tolerance, with A and B
    scaled exactly to max-abs below 1 by powers of two, so it is finite
    at any scale; the report gives both at the pair's own scale.
    """
    norms = [float(np.max(np.abs(x), initial=0.0)) for x in pair.entries[2:]]  # every nonzero is an entry
    mantissas, (ka, kb) = np.frexp(norms)
    scaled = 0.0  # max|A B* - B A*| / 2**(ka + kb)
    sv = []
    for group in pair.components():
        a, b = (np.ldexp(x.view(float), -k).view(complex) for x, k in ((group.A, ka), (group.B, kb)))
        ah, bh = a.conj().swapaxes(-1, -2), b.conj().swapaxes(-1, -2)
        scaled = max(scaled, float(np.max(np.abs(a @ bh - b @ ah))))
        sv.append(np.linalg.svd(np.concatenate([group.A, group.B], axis=-1), compute_uv=False).ravel())
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
    pair is its 2 x 2 site matrices (_site_matrices), so it is local
    exactly when _local_pair writes it back from them.
    """
    return pair._site_matrices is not None


def _local_pair(space, a, b) -> BoundaryPair:
    """The local pair with the 2 x 2 spin matrices a and b, which broadcast to (P, P, N, 2, 2).

    a[p, p', j - 1, s, s'] is the value of A at every slot (p, p', j, s, s')
    of spins.site_slots, whatever the spectator spins; likewise b for B.
    space is a ModelSpec or a BoundaryPair. The values are copied along
    the spectator axis, so that _from_entries broadcasts nothing for full input.
    """
    rows, cols = site_slots(space)
    a, b = (np.asarray(x, dtype=complex)[..., None].repeat(rows.shape[-1], -1) for x in (a, b))
    return BoundaryPair._from_entries(space.dimension, space.n_spins, rows, cols, a, b)


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
