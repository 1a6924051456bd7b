"""Admissibility checks and the built-in interface presets."""

import dataclasses

import numpy as np
import pytest

import reference_kernels as ref
from spinpoint import boundary
from spinpoint.boundary import (
    BoundaryPair,
    ValidationReport,
    _local_pair,
    _partition,
    is_local,
    preset_delta,
    preset_delta_prime,
    preset_free,
    preset_offdiag,
    random_valid_pair,
)
from spinpoint.spins import ModelSpec, channel_blocks, channel_tables


def model_for(dimension, n):
    if dimension == 1:
        positions = np.linspace(0.0, 1.5 * (n - 1), n) if n > 1 else [0.0]
    else:
        positions = [np.array([1.1 * k, 0.0, 0.0]) for k in range(n)]
    alpha = 0.3 * np.arange(1, n + 1)
    return ModelSpec(dimension, positions, alpha)


def test_free_preset_is_valid_and_local():
    for d in (1, 3):
        pair = preset_free(model_for(d, 2))
        rep = pair.validation()
        assert rep.is_valid
        assert rep.hermiticity_defect == 0.0
        assert rep.rank == pair.defect_dim
        assert rep.is_local


def test_pair_shape_check():
    with pytest.raises(ValueError):
        BoundaryPair(1, 1, np.eye(3), np.zeros((3, 3)))


def test_pair_arrays_are_read_only():
    pair = preset_free(model_for(3, 1))
    with pytest.raises(ValueError):
        pair.A[0, 0] = 5.0


def test_delta_preset_shapes_and_validity():
    model = model_for(3, 2)
    pair = preset_delta(model, -1.0)
    rep = pair.validation()
    assert rep.is_valid and rep.is_local
    assert np.allclose(pair.A, -np.eye(8))
    assert np.allclose(pair.B, np.eye(8))

    table = np.array([[-1.0, 0.3], [0.5, 0.5]])
    pair = preset_delta(model, table)
    assert pair.validation().is_valid
    diag = np.real(np.diag(pair.A))
    # flat order: site 1 codes 0..3, then site 2; sigma_j read from bit j-1
    assert diag[:4] == pytest.approx([-1.0, 0.3, -1.0, 0.3])
    assert diag[4:] == pytest.approx([0.5, 0.5, 0.5, 0.5])


def test_delta_preset_1d_conventions():
    model = model_for(1, 1)
    default = preset_delta(model, 1.7)
    literal = preset_delta(model, 1.7, paper_literal=True)
    assert np.allclose(default.A, np.eye(4))
    assert default.B[0, 0] == pytest.approx(-1.7)
    assert literal.B[0, 0] == pytest.approx(-3.4)
    # derivative-channel rows enforce continuity of the value
    assert np.all(default.B[2:] == 0.0)
    assert default.validation().is_valid
    assert literal.validation().is_valid


def test_offdiag_preset_validity_needs_equal_strengths():
    model = model_for(3, 1)
    good = preset_offdiag(model, 1.0)
    rep = good.validation()
    assert rep.is_valid and rep.is_local
    assert np.allclose(good.A, np.array([[0, 1j], [-1j, 0]]))

    bad = preset_offdiag(model, [[1.0, 0.25]])
    rep = bad.validation()
    assert not rep.is_valid
    assert rep.hermiticity_defect == pytest.approx(0.75, rel=1e-12)


def test_offdiag_preset_1d_is_valid():
    model = model_for(1, 2)
    pair = preset_offdiag(model, 0.8)
    rep = pair.validation()
    assert rep.is_valid and rep.is_local


def test_delta_prime_preset():
    model = model_for(1, 2)
    pair = preset_delta_prime(model, [-0.5, 2.0])
    rep = pair.validation()
    assert rep.is_valid and rep.is_local
    assert pair.B[8, 8] == pytest.approx(-0.5)
    assert pair.B[12, 12] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        preset_delta_prime(model_for(3, 1), 1.0)


def test_presets_valid_over_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.choice([1, 3]))
        n = int(rng.integers(1, 4))
        model = model_for(d, n)
        which = rng.integers(0, 4)
        if which == 0:
            pair = preset_free(model)
        elif which == 1:
            pair = preset_delta(model, rng.normal(size=(n, 2)))
        elif which == 2:
            pair = preset_offdiag(model, rng.normal(size=n))
        else:
            if d == 3:
                continue
            pair = preset_delta_prime(model, rng.normal(size=n))
        assert pair.validation().is_valid, which


def test_random_pairs_are_valid():
    rng = np.random.default_rng(3)
    for d, n in [(1, 1), (1, 2), (3, 1), (3, 2)]:
        for _ in range(5):
            pair = random_valid_pair(model_for(d, n), rng)
            rep = pair.validation()
            assert rep.is_valid
            assert rep.rank == pair.defect_dim


def test_hermiticity_violation_detected():
    m = 2
    pair = BoundaryPair(3, 1, np.eye(m), 1j * np.eye(m))
    rep = pair.validation()
    assert not rep.is_valid
    assert rep.hermiticity_defect == pytest.approx(2.0)


def test_hermiticity_violation_detected_at_any_scale():
    # A B* - B A* overflowed to inf - inf = NaN, and max(0.0, nan) kept 0.0:
    # once "valid: hermiticity defect 0.000e+00 (tol inf)"
    with np.errstate(over="raise", invalid="raise"):
        rep = BoundaryPair(3, 1, 1e200 * np.eye(2), 1e200 * np.array([[1.0, 1.0], [0.0, 2.0]])).validation()
        assert not rep.is_valid
        assert (rep.hermiticity_defect, rep.tol, rep.rank) == (np.inf, np.inf, 2)
        # the same pair scaled down, and admissible pairs scaled far up or down
        assert not BoundaryPair(3, 1, np.eye(2), np.array([[1.0, 1.0], [0.0, 2.0]])).validation().is_valid
        for scale in (1e-200, 1e200, 1e300):
            rep = BoundaryPair(3, 1, scale * np.eye(2), -scale * np.array([[1.0, 1.0], [1.0, 2.0]])).validation()
            assert rep.is_valid and rep.hermiticity_defect == 0.0


def test_rank_deficiency_detected():
    A = np.eye(2, dtype=complex)
    A[1, 1] = 0.0
    pair = BoundaryPair(3, 1, A, np.zeros((2, 2)))
    rep = pair.validation()
    assert not rep.is_valid
    assert rep.rank == 1


def test_locality_rejects_cross_site_coupling():
    model = model_for(3, 2)
    base = preset_delta(model, -1.0)
    A = np.array(base.A)
    # move one on-site entry to a slot coupling site 1 to site 2
    A[0, 4] = A[0, 0]
    A[0, 0] = 0.0
    moved = BoundaryPair(3, 2, A, base.B)
    assert not is_local(moved)


def test_locality_rejects_spectator_dependence():
    model = model_for(3, 2)
    base = preset_delta(model, -1.0)
    A = np.array(base.A)
    A[0, 0] = 2.5  # site 1 entry now differs between spectator configs
    tweaked = BoundaryPair(3, 2, A, base.B)
    assert not is_local(tweaked)


def test_locality_rejects_missing_spectator_entry():
    base = preset_delta(model_for(3, 2), -1.0)
    A = np.array(base.A)
    A[0, 0] = 0.0  # one of the two spectator configurations of its key left empty
    emptied = BoundaryPair(3, 2, A, base.B)
    assert not is_local(emptied)
    assert not _is_local_loop(emptied)


def test_pairs_compare_by_entries():
    model = model_for(3, 2)
    pair = preset_delta(model, -1.0)
    assert (pair == preset_delta(model, -1.0)) is True
    assert pair == BoundaryPair(3, 2, pair.A, pair.B)
    assert (pair == preset_delta(model, -0.5)) is False
    assert pair != preset_offdiag(model, 0.8)
    assert pair != preset_delta(model_for(1, 2), -1.0)
    assert pair != BoundaryPair(3, 2, pair.A, np.zeros((8, 8)))
    assert pair != "pair"


def test_validation_report_is_cached():
    pair = preset_free(model_for(1, 1))
    assert pair.validation() is pair.validation()
    # explicit tolerance bypasses the cache
    rep = pair.validation(tol=1e-3)
    assert rep.tol == 1e-3


# ---------------------------------------------------------------------------
# block structure: validate and is_local against dense references


def _is_local_loop(pair):
    """The per-entry loop is_local replaced; kept as the reference."""
    p, j, code = channel_tables(pair)
    for M in (pair.A, pair.B):
        site_mask = j[:, None] != j[None, :]
        if np.any(M[site_mask] != 0.0):
            return False
        spect = (code[:, None] ^ code[None, :]) & ~(1 << (j - 1))[:, None]
        if np.any(M[(~site_mask) & (spect != 0)] != 0.0):
            return False
        seen = {}
        rows, cols = np.nonzero(~site_mask & (spect == 0))
        for r, c in zip(rows, cols):
            key = (p[r], p[c], j[r], (code[r] >> (j[r] - 1)) & 1, (code[c] >> (j[c] - 1)) & 1)
            if key in seen:
                if seen[key] != M[r, c]:
                    return False
            else:
                seen[key] = M[r, c]
    return True


def _dense_report(pair):
    """validate() on the whole m x m matrices, without the block structure."""
    A, B = pair.A, pair.B
    defect = float(np.max(np.abs(A @ B.conj().T - B @ A.conj().T)))
    tol = 1e-10 * float(np.max(np.abs(A)) * np.max(np.abs(B)))
    sv = np.linalg.svd(np.hstack([A, B]), compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * sv[0])) if sv[0] > 0.0 else 0
    return ValidationReport(defect <= tol and rank == pair.defect_dim, defect, rank,
                            _is_local_loop(pair), sv, tol)


def _structured_pairs():
    """Presets at N = 1..4 in both dimensions, delta and offdiag at N = 6, random pairs."""
    rng = np.random.default_rng(5)
    pairs = []
    for d in (1, 3):
        for n in (1, 2, 3, 4):
            model = model_for(d, n)
            pairs += [preset_free(model), preset_delta(model, rng.normal(size=(n, 2))),
                      preset_offdiag(model, rng.normal(size=n)),
                      preset_offdiag(model, rng.normal(size=(n, 2))),  # asymmetric: invalid
                      random_valid_pair(model, rng)]
            if d == 1:
                pairs.append(preset_delta_prime(model, rng.normal(size=n)))
        pairs += [preset_delta(model_for(d, 6), rng.normal(size=(6, 2))),
                  preset_offdiag(model_for(d, 6), rng.normal(size=6))]  # one block
    pairs.append(preset_offdiag(model_for(3, 6), rng.normal(size=(6, 2))))  # asymmetric: invalid
    return pairs


def test_blocks_partition_the_defect_space():
    for pair in _structured_pairs():
        index = np.concatenate([g.index.ravel() for g in pair.blocks()])
        assert np.array_equal(np.sort(index), np.arange(pair.defect_dim))
        # A and B vanish between different blocks
        block_of = np.empty(pair.defect_dim, dtype=int)
        start = 0
        for g in pair.blocks():
            block_of[g.index] = start + np.arange(g.index.shape[0])[:, None]
            start += g.index.shape[0]
        cross = block_of[:, None] != block_of[None, :]
        assert np.all(pair.A[cross] == 0.0) and np.all(pair.B[cross] == 0.0)
        assert pair.blocks() is pair.blocks()


def _union_find_blocks(m, chains):
    """Components of the chains' links by union-find, as _partition orders them."""
    root = list(range(m))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for chain in chains:
        for row in np.asarray(chain).tolist():
            for a, b in zip(row, row[1:]):
                root[find(a)] = find(b)
    comps = {}
    for i in range(m):
        comps.setdefault(find(i), []).append(i)
    # comps lists channels ascending: order by size, then smallest channel
    return sorted(comps.values(), key=lambda c: (len(c), c[0]))


def _grouped_blocks(m, chains):
    groups = _partition(m, chains)
    sizes = [index.shape[1] for index in groups]
    assert sizes == sorted(set(sizes))
    return [row for index in groups for row in index.tolist()]


def test_grouping_matches_union_find_on_random_patterns():
    rng = np.random.default_rng(11)
    for trial in range(40):
        m = int(rng.integers(1, 80))
        mask = rng.random((m, m)) < rng.choice([0.005, 0.02, 0.08])
        mask |= mask.T
        chains = [np.argwhere(mask)]
        if trial % 2:
            k = int(rng.integers(1, 4))
            chains.append(rng.permutation(m)[: m - m % k].reshape(-1, k))
        assert _grouped_blocks(m, chains) == _union_find_blocks(m, chains)


def test_grouping_joins_a_shuffled_path():
    # one long path in random order: the most rounds of label propagation
    path = np.random.default_rng(3).permutation(768)
    for chains in ([path[None, :]], [np.stack([path[:-1], path[1:]], axis=1)]):
        assert _grouped_blocks(768, chains) == [list(range(768))]


def test_grouping_orders_equal_sizes_by_smallest_channel():
    rng = np.random.default_rng(5)
    m = 17
    perm = rng.permutation(m)
    # components of sizes 4, 4, 4, 3, 1, 1 on shuffled channels
    comps = np.split(perm, [4, 8, 12, 15, 16])
    chains = [c[None, :] for c in comps]
    want = _union_find_blocks(m, chains)
    assert [len(c) for c in want] == [1, 1, 3, 4, 4, 4]
    assert [c[0] for c in want[3:]] == sorted(c[0] for c in want[3:])
    assert _grouped_blocks(m, chains) == want


def test_grouping_without_links():
    assert _grouped_blocks(1, [np.zeros((0, 2), dtype=int)]) == [[0]]
    assert _grouped_blocks(1, [np.zeros((1, 1), dtype=int)]) == [[0]]
    pair = preset_delta(model_for(3, 2), -1.0)  # diagonal A and B
    (group,) = pair.components()
    assert np.array_equal(group.index, np.arange(pair.defect_dim)[:, None])


def test_block_validate_matches_dense_report():
    for pair in _structured_pairs():
        rep, ref = pair.validation(), _dense_report(pair)
        assert np.all(np.abs(rep.singular_values - ref.singular_values)
                      <= 1e-13 * ref.singular_values[0])
        assert rep.rank == ref.rank
        assert rep.hermiticity_defect == pytest.approx(ref.hermiticity_defect, rel=1e-13,
                                                       abs=1e-15 * ref.tol)
        assert (rep.is_local, rep.is_valid, rep.tol) == (ref.is_local, ref.is_valid, ref.tol)
        assert str(rep) == str(ref)


def test_asymmetric_offdiag_report_unchanged():
    pair = preset_offdiag(model_for(3, 1), [[1.0, 0.25]])
    rep = pair.validation()
    assert not rep.is_valid
    assert str(rep) == str(_dense_report(pair))
    assert str(rep) == ("INVALID: hermiticity defect 7.500e-01 (tol 1.000e-10), "
                        "rank 2/2, local=True")


def test_is_local_matches_reference_loop():
    pairs = _structured_pairs()
    rng = np.random.default_rng(8)
    for d, n in [(1, 2), (3, 2), (3, 3)]:
        base = preset_delta(model_for(d, n), -1.0)
        p, j, code = channel_tables(base)
        # one spectator entry perturbed: same site, same (p, p', sigma_j, sigma'_j)
        # as its neighbours, different spectator configuration
        r = int(np.flatnonzero((j == 1) & (code == 2))[0])
        A, B = np.array(base.A), np.array(base.B)
        A[r, r] += 1e-3
        B[r, r] += 1e-3
        pairs += [BoundaryPair(d, n, A, base.B), BoundaryPair(d, n, base.A, B)]
        A = np.array(base.A)
        A[0, int(np.flatnonzero(j == 2)[0])] = 0.5  # cross-site entry
        pairs.append(BoundaryPair(d, n, A, base.B))
        pairs.append(random_valid_pair(model_for(d, n), rng))
        # a local pair given densely, edited once: an entry added outside the
        # slots (same site, other spectator spins), a slot entry removed, a
        # value changed at one spectator configuration, an explicit -0.0
        local = preset_offdiag(model_for(d, n), 0.8)
        flips = 0 if d == 3 else 1  # A or B holds the spin flips
        r0, r2 = (int(np.flatnonzero((j == 1) & (code == c))[0]) for c in (0, 2))
        for edit in ("added", "removed", "spectator", "negative zero"):
            mats = np.array([local.A, local.B])
            c2 = int(np.flatnonzero(mats[flips, r2])[0])  # the spin-flip partner of r2
            if edit == "added":
                mats[flips, r0, r2] = 0.5  # same site, other spectator spins: no slot
            elif edit == "removed":
                mats[flips, r2, c2] = 0.0
            elif edit == "spectator":
                mats[flips, r2, c2] *= 2.0
            else:
                mats[1 - flips, r2, c2] = -0.0  # where the other matrix holds 0.0 at every other spectator
            pairs.append(BoundaryPair(d, n, *mats))
    verdicts = [is_local(pair) for pair in pairs]
    assert verdicts == [_is_local_loop(pair) for pair in pairs]
    assert True in verdicts and False in verdicts


def test_local_pairs_are_their_site_matrices():
    # _local_pair writes back every preset from the 2 x 2s read off it
    rng = np.random.default_rng(9)
    for d in (1, 3):
        for n in (1, 2, 3, 4):
            model = model_for(d, n)
            pairs = [preset_free(model), preset_delta(model, rng.normal(size=(n, 2))),
                     preset_delta(model, rng.normal(size=n), paper_literal=True),
                     preset_offdiag(model, rng.normal(size=n)), preset_offdiag(model, rng.normal(size=(n, 2)))]
            if d == 1:
                pairs.append(preset_delta_prime(model, rng.normal(size=n)))
            for pair in pairs:
                mats = pair._site_matrices
                assert mats.shape == (2,) + (1 if d == 3 else 2,) * 2 + (n, 2, 2)
                assert _local_pair(pair, *mats) == pair


@pytest.mark.parametrize("d, preset, param, widest", [
    (3, preset_offdiag, 0.8, (2, 4)),  # one dressing block of 384 channels
    (1, preset_delta, -1.0, (4, 8)),  # 2^6 dressing blocks of 12 channels
])
def test_validation_factorizes_only_components(monkeypatch, d, preset, param, widest):
    """One stacked SVD of the N site matrices (A_j | B_j), 2 P x 4 P, each a union of components: none at m scale."""
    pair = preset(model_for(d, 6), param)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert pair.validation().is_valid
    assert shapes == [(6, *widest)]


def _same_groups(groups, want):
    assert len(groups) == len(want)
    for g, w in zip(groups, want):
        assert all(np.array_equal(x, y) for x, y in zip(g, w))


def _preset_cases():
    """(model, sparse preset, dense reference (A, B)) for every preset, d = 1 and 3, N = 1..4."""
    rng = np.random.default_rng(17)
    for d in (1, 3):
        for n in (1, 2, 3, 4):
            zero_site = np.ones(n)
            zero_site[n // 2] = 0.0
            for model in (model_for(d, n), _zero_field_model(d, n)):
                yield model, preset_free(model), ref.dense_preset_free(model)
                for beta in (-1.0, rng.normal(size=n), rng.normal(size=(n, 2)), 0.7 * zero_site):
                    yield model, preset_delta(model, beta), ref.dense_preset_delta(model, beta)
                    if d == 1:
                        yield (model, preset_delta(model, beta, paper_literal=True),
                               ref.dense_preset_delta(model, beta, paper_literal=True))
                for betahat in (0.8, rng.normal(size=n), 0.8 * zero_site,
                                rng.normal(size=(n, 2))):  # unequal columns: invalid
                    yield model, preset_offdiag(model, betahat), ref.dense_preset_offdiag(model, betahat)
                if d == 1:
                    for gamma in (1.3, rng.normal(size=n), zero_site):
                        yield model, preset_delta_prime(model, gamma), ref.dense_preset_delta_prime(model, gamma)


def test_presets_match_dense_reference():
    """The presets' entries give the dense pairs of the m x m constructions, and every partition and report."""
    for model, pair, (A, B) in _preset_cases():
        assert np.array_equal(pair.A, A) and np.array_equal(pair.B, B)
        dense = BoundaryPair(model.dimension, model.n_spins, A, B)
        assert pair == dense
        _same_groups(pair.components(), dense.components())
        _same_groups(pair.blocks(), dense.blocks())
        frame, want = pair.frame(model), dense.frame(model)
        assert frame.sites == want.sites
        assert all(np.array_equal(u, w) for u, w in zip(frame.bases, want.bases))
        _same_groups(frame.pair.blocks(), want.pair.blocks())
        rep, want = pair.validation(), dense.validation()
        assert np.array_equal(rep.singular_values, want.singular_values)
        assert ((rep.is_valid, rep.hermiticity_defect, rep.rank, rep.is_local, rep.tol)
                == (want.is_valid, want.hermiticity_defect, want.rank, want.is_local, want.tol))


def _site_table_pairs():
    """Each _preset_cases pair, its frame pair at zero field and its dense copy; a local pair given densely with a beta table."""
    for model, pair, (A, B) in _preset_cases():
        yield pair
        yield pair.frame(_zero_field_model(model.dimension, model.n_spins)).pair
        yield BoundaryPair(model.dimension, model.n_spins, A, B)
    model = model_for(1, 3)
    yield BoundaryPair(1, 3, *ref.dense_preset_delta(model, np.random.default_rng(23).normal(size=(3, 2))))


def test_recorded_site_tables_are_the_searched_ones():
    recorded = 0
    for pair in _site_table_pairs():
        recorded += "_site_matrices" in vars(pair)  # written by _local_pair: no search
        dense = BoundaryPair(pair.dimension, pair.n_spins, pair.A, pair.B)
        assert "_site_matrices" not in vars(dense)
        mats, want = pair._site_matrices, dense._site_matrices
        assert np.array_equal(mats, want) and mats.tobytes() == want.tobytes()  # +0 where A and B are 0
    assert recorded > 200


def _scaled_and_deficient_pairs():
    """Hand-built local pairs: d=1, components of scales 1e6 and 1e-6 in each site matrix; d=3, a zero row at a site."""
    rng = np.random.default_rng(41)
    n = 3
    h = rng.normal(size=(2, n, 2, 2)) + 1j * rng.normal(size=(2, n, 2, 2))
    h = h + h.conj().swapaxes(-1, -2)  # exactly Hermitian
    b = np.zeros((2, 2, n, 2, 2), dtype=complex)
    b[0, 0], b[1, 1] = 1e6 * h[0], 1e-6 * h[1]  # the charge and the dipole layer: one component each
    yield _local_pair(_zero_field_model(1, n), np.eye(2)[:, :, None, None, None] * np.eye(2), b)
    a = rng.normal(size=(1, 1, n, 2))[..., None] * np.eye(2)
    b = np.ones((1, 1, n, 2))[..., None] * np.eye(2)
    a[0, 0, 1, 1, 1] = b[0, 0, 1, 1, 1] = 0.0  # site 2, spin bit 1: rank 1 short in each of 2**(N-1) copies
    yield _local_pair(_zero_field_model(3, n), a, b)


def test_site_table_reports_equal_the_component_loop():
    """validate on a local pair's stacked site matrices gives the report of its components and of its dense matrices.

    A site matrix is block diagonal over its components up to a
    permutation: rank, defect and verdict are those of the components
    (and of the dense (A | B)), and the singular values agree to
    rounding, within 1e-13 of the largest.
    """
    hand_built = list(_scaled_and_deficient_pairs())
    assert [pair.validation().rank for pair in hand_built] == [48, 24 - 4]
    for pair in [*_site_table_pairs(), *hand_built]:
        rep = pair.validation()
        assert rep.is_local
        components, entries, dense = ref.component_report(pair), _entry_copy(pair).validation(), _dense_report(pair)
        assert not entries.is_local
        for want in (components, entries, dense):
            assert np.all(np.abs(rep.singular_values - want.singular_values) <= 1e-13 * want.singular_values[0])
            assert (rep.rank, rep.is_valid, rep.tol) == (want.rank, want.is_valid, want.tol)
            assert str(rep) == str(dataclasses.replace(want, is_local=True))
        assert rep.hermiticity_defect == components.hermiticity_defect == entries.hermiticity_defect
        assert rep.hermiticity_defect == pytest.approx(dense.hermiticity_defect, rel=1e-13, abs=1e-15 * dense.tol)


def test_coset_blocks_are_the_partition():
    for pair in _site_table_pairs():
        chains = [np.stack(pair.entries[:2], axis=1), channel_blocks(pair)]
        want = _partition(pair.defect_dim, chains)
        index = [group.index for group in pair.blocks()]  # the cosets of the pair's site layout
        assert len(index) == len(want)
        assert all(np.array_equal(i, w) for i, w in zip(index, want))


def test_stacked_site_bases_are_the_per_site_ones():
    """frame(model) rotates exactly the sites at alpha 0 that the per-site reference diagonalizes, with its bases."""
    rotated = 0
    for pair in _site_table_pairs():
        want = ref.site_bases(pair._site_matrices)
        zero = _zero_field_model(pair.dimension, pair.n_spins)
        for model in (zero, ModelSpec(pair.dimension, zero.positions, 0.3 * (np.arange(pair.n_spins) % 2))):
            frame = pair.frame(model)
            assert frame.sites == tuple(j for j in want if model.alpha[j - 1] == 0.0)
            assert all(np.array_equal(u, want[j]) for j, u in zip(frame.sites, frame.bases))
            rotated += len(frame.sites)
    assert rotated > 100


def _entry_copy(pair):
    """pair as dense input held by its entries alone: the path of a pair that is not local."""
    copy = BoundaryPair(pair.dimension, pair.n_spins, pair.A, pair.B)
    copy.__dict__["_site_matrices"] = None
    return copy


def _random_site_tables():
    """(model, local pair) from random site tables, at alpha 0 and 0.3 in d = 1 and 3, N = 1..4.

    Each site's 2 x 2s are x I + y H_j for one random Hermitian H_j (the
    site rotates at alpha 0) or random entries with some diagonal a zeroed
    (it does not); some layer rows of B and some off-diagonal layers of A
    are 0, so channels are inert, in the pair and in its frame.
    """
    rng = np.random.default_rng(31)
    for d in (1, 3):
        layers = 2 if d == 1 else 1
        for n in (1, 2, 3, 4):
            for alpha in (0.0, 0.3):
                model = ModelSpec(d, _zero_field_model(d, n).positions, np.full(n, alpha))
                for _ in range(4):
                    h = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
                    h = h + h.conj().swapaxes(-1, -2)
                    x, y = rng.normal(size=(2, 2, layers, layers, n, 1, 1))
                    mats = x * np.eye(2) + y * h
                    scrambled = rng.random(n) < 0.4
                    mats[:, :, :, scrambled] = rng.normal(size=(2, layers, layers, scrambled.sum(), 2, 2))
                    zero_diag = (rng.random((layers, layers, n, 2)) < 0.3) & scrambled[:, None]
                    mats[0] *= ~(zero_diag[..., None] & np.eye(2, dtype=bool))
                    mats[1] *= rng.random((layers, 1, n, 1, 1)) < 0.5  # B rows of a layer at a site: 0
                    mats[0] *= (np.eye(layers, dtype=bool)[:, :, None] | (rng.random(n) < 0.5))[..., None, None]
                    yield model, _local_pair(model, *mats)


def _same_charged(got, want):
    """Equal charged groups and inert extremes, byte for byte."""
    _same_groups(got[0], want[0])
    assert all(x.tobytes() == y.tobytes() for g, w in zip(got[0], want[0]) for x, y in zip(g, w))
    assert got[1] == want[1]


def test_charged_blocks_from_the_site_table_are_those_from_the_entries():
    """A local pair's blocks(), frame.charged and frame.inert off its site table equal those of the entry path."""
    cases = [(model, pair) for model, pair, _ in _preset_cases()]
    cases += [(model, BoundaryPair(model.dimension, model.n_spins, A, B)) for model, _, (A, B) in _preset_cases()]
    cases += list(_random_site_tables())
    with_inert = rotated = 0
    for model, pair in cases:
        assert is_local(pair)
        for m in (model, _zero_field_model(model.dimension, model.n_spins)):
            frame = pair.frame(m)
            table_pair = frame.pair  # the pair itself, or the frame's pair written by _local_pair
            entry_pair = _entry_copy(table_pair)
            _same_groups(table_pair.blocks(), entry_pair.blocks())
            assert all(x.tobytes() == y.tobytes()
                       for g, w in zip(table_pair.blocks(), entry_pair.blocks()) for x, y in zip(g, w))
            _same_charged(boundary._charged_blocks(table_pair), boundary._charged_blocks(entry_pair))
            _same_charged((frame.charged, frame.inert), boundary._charged_blocks(entry_pair))
            with_inert += frame.inert != ()
            rotated += frame.sites != ()
    assert with_inert > 300 and rotated > 100


@pytest.mark.parametrize("d, preset, param, zero_field", [
    (1, preset_delta, -1.0, False),  # 2^6 dressing blocks of 12 channels, 6 charged
    (3, preset_offdiag, 0.8, True),  # one block of 384 channels, 2^6 of 6 in the rotated frame
])
def test_local_pairs_partition_nothing_at_m_scale(monkeypatch, d, preset, param, zero_field):
    model = _zero_field_model(d, 6) if zero_field else model_for(d, 6)
    pair = preset(model, param)
    sizes = []
    partition = boundary._partition

    def recording_partition(m, chains):
        sizes.append(m)
        return partition(m, chains)

    monkeypatch.setattr(boundary, "_partition", recording_partition)
    assert pair.validation().is_valid
    frame = pair.frame(model)
    assert frame.pair.blocks() and frame.charged
    assert (frame.sites != ()) == zero_field
    assert all(m < pair.defect_dim for m in sizes)


# ---------------------------------------------------------------------------
# spin frame: rotated sites and the blocks of the rotated pair


def _zero_field_model(d, n):
    positions = [1.3 * k for k in range(n)] if d == 1 else [[1.1 * k, 0.3 * (k % 2), 0.0] for k in range(n)]
    return ModelSpec(d, positions, np.zeros(n))


def _dense_frame(frame, m):
    """U as an m x m matrix, column by column (reference only)."""
    return frame.rotate(np.eye(m), axis=0)


@pytest.mark.parametrize("d, n, shape", [(3, 6, (64, 6)), (1, 5, (32, 10))])
def test_offdiag_at_zero_field_splits_in_the_spin_frame(d, n, shape):
    model = _zero_field_model(d, n)
    pair = preset_offdiag(model, 0.8)
    assert [g.index.shape for g in pair.blocks()] == [(1, pair.defect_dim)]
    frame = pair.frame(model)
    assert frame.sites == tuple(range(1, n + 1))
    assert [g.index.shape for g in frame.pair.blocks()] == [shape]
    assert pair.frame(model) is frame


@pytest.mark.parametrize("d", [1, 3])
def test_rotated_blocks_are_the_unitary_similarity(d):
    model = _zero_field_model(d, 3)
    pair = preset_offdiag(model, [0.8, -0.5, 1.3])
    frame = pair.frame(model)
    u = _dense_frame(frame, pair.defect_dim)
    assert np.allclose(u.conj().T @ u, np.eye(pair.defect_dim), atol=1e-14)
    rot_a, rot_b = u.conj().T @ pair.A @ u, u.conj().T @ pair.B @ u
    covered = np.zeros(pair.defect_dim, dtype=bool)
    for g in frame.pair.blocks():
        sub = (g.index[:, :, None], g.index[:, None, :])
        assert np.max(np.abs(g.A - rot_a[sub])) <= 1e-14 and np.max(np.abs(g.B - rot_b[sub])) <= 1e-14
        covered[g.index] = True
        for other in (rot_a, rot_b):  # nothing leaves a block
            mask = np.zeros(pair.defect_dim, dtype=bool)
            mask[g.index.ravel()] = True
            assert np.max(np.abs(other[np.ix_(mask, ~mask)]), initial=0.0) <= 1e-14
    assert covered.all()
    # rotate and its adjoint are inverse maps, with leading axes carried through
    v = np.random.default_rng(2).normal(size=(4, pair.defect_dim)) + 0j
    assert np.allclose(frame.rotate(frame.rotate(v, adjoint=True)), v, atol=1e-14)
    assert np.allclose(frame.rotate(v), v @ u.T, atol=1e-14)


def test_site_in_a_field_stays_unrotated():
    model = ModelSpec(3, [[0.0, 0.0, 0.0], [1.1, 0.3, 0.0], [2.2, 0.0, 0.0]], [0.0, 0.4, 0.0])
    pair = preset_offdiag(model, 0.8)
    frame = pair.frame(model)
    assert frame.sites == (1, 3)
    # site 2 still flips its spin: blocks of 2 channels x 2 codes
    assert [g.index.shape for g in frame.pair.blocks()] == [(4, 6)]
    # the field decides, not the pair: with every alpha_j != 0 the frame is U = I
    zeeman = ModelSpec(3, model.positions, [0.3, 0.4, 0.5])
    assert pair.frame(zeeman).sites == () and pair.frame(zeeman).pair.blocks() is pair.blocks()


def test_identity_frame_for_diagonal_dense_and_invalid_pairs():
    rng = np.random.default_rng(11)
    for d in (1, 3):
        for n in (2, 4):
            model, zeeman = _zero_field_model(d, n), model_for(d, n)
            cases = [(model, preset_delta(model, -1.0)),
                     (zeeman, preset_delta(zeeman, rng.normal(size=(n, 2)))),
                     (model, random_valid_pair(model, rng)),
                     (model, preset_offdiag(model, rng.normal(size=(n, 2))))]  # asymmetric: not normal
            for m, pair in cases:
                frame = pair.frame(m)
                assert frame.sites == () and frame.pair.blocks() is pair.blocks()
                v = rng.normal(size=pair.defect_dim)
                assert frame.rotate(v) is v


def test_frame_is_not_built_by_validation(monkeypatch):
    """Validation builds no frame, and a frame computes joint bases only for the sites at alpha 0 of its model."""
    model = _zero_field_model(3, 2)
    pair = preset_offdiag(model, 0.8)
    sizes = []
    joint_bases = boundary._joint_bases

    def recording_joint_bases(mats):
        sizes.append(mats.shape[3])
        return joint_bases(mats)

    monkeypatch.setattr(boundary, "_joint_bases", recording_joint_bases)
    assert pair.validation().is_valid
    assert not pair._frames and not sizes
    assert pair.frame(model_for(3, 2)).sites == () and not sizes  # every site in a field
    assert pair.frame(ModelSpec(3, model.positions, [0.0, 0.3])).sites == (1,) and sizes == [1]
    assert pair.frame(model).sites == (1, 2) and sizes == [1, 2]
    assert pair.frame(model) is pair.frame(model) and sizes == [1, 2]
