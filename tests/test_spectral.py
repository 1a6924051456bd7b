"""Bound-state search against analytically known energies."""

import itertools

import numpy as np
import pytest

import reference_kernels as ref
from spinpoint import krein, spectral
from spinpoint.boundary import (
    ValidationError,
    preset_delta,
    preset_delta_prime,
    preset_free,
    preset_offdiag,
    random_valid_pair,
)
from spinpoint.krein import gamma_dressed, gamma_free
from spinpoint.spectral import (
    default_search_floor,
    eigenfunction_eval,
    essential_spectrum_bottom,
    find_bound_states,
)
from spinpoint.spins import ModelSpec


def test_essential_spectrum_bottom():
    model = ModelSpec(1, [0.0, 1.0], [0.5, 0.25])
    assert essential_spectrum_bottom(model) == pytest.approx(-0.75)
    assert essential_spectrum_bottom(ModelSpec(3, [np.zeros(3)], [0.0])) == 0.0


def test_free_pair_has_no_bound_states():
    for model in (ModelSpec(1, [0.0], [0.4]), ModelSpec(3, [np.zeros(3)], [0.4])):
        assert find_bound_states(model, preset_free(model), e_min=-30.0) == []


def test_delta_bound_state_3d():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(model, -1.0)
    states = find_bound_states(model, pair, e_min=-200.0)
    assert len(states) == 1
    st = states[0]
    expect = ref.delta_bound_energy_3d(-1.0)
    assert st.energy == pytest.approx(expect, rel=1e-10)
    assert st.multiplicity == 2  # both spin channels bind at alpha = 0
    # positive beta binds nothing
    assert find_bound_states(model, preset_delta(model, 0.3), e_min=-200.0) == []


def test_delta_bound_state_3d_split_by_zeeman():
    alpha = 0.6
    model = ModelSpec(3, [np.zeros(3)], [alpha])
    pair = preset_delta(model, -1.0)
    states = find_bound_states(model, pair, e_min=-200.0)
    # channel shifts move the pair of roots apart
    expected = sorted([ref.delta_bound_energy_3d(-1.0) + alpha,
                       ref.delta_bound_energy_3d(-1.0) - alpha])
    assert len(states) == 2
    for st, e in zip(states, expected):
        assert st.energy == pytest.approx(e, rel=1e-9)
        assert st.multiplicity == 1


def test_delta_bound_state_1d():
    model = ModelSpec(1, [0.0], [0.0])
    pair = preset_delta(model, -2.0)
    states = find_bound_states(model, pair, e_min=-50.0)
    assert len(states) == 1
    assert states[0].energy == pytest.approx(-1.0, abs=1e-10)
    assert states[0].multiplicity == 2


def test_delta_prime_bound_state_1d():
    model = ModelSpec(1, [0.0], [0.0])
    gamma = -1.6
    pair = preset_delta_prime(model, gamma)
    states = find_bound_states(model, pair, e_min=-50.0)
    assert len(states) == 1
    assert states[0].energy == pytest.approx(ref.delta_prime_bound_energy_1d(gamma),
                                             rel=1e-10)


def test_offdiag_bound_state_3d():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_offdiag(model, 1.0)
    states = find_bound_states(model, pair, e_min=-200.0)
    assert len(states) == 1
    assert states[0].energy == pytest.approx(ref.offdiag_bound_energy(1.0), rel=1e-10)
    assert states[0].multiplicity == 1


def test_charges_span_dressed_null_space():
    model = ModelSpec(3, [np.zeros(3)], [0.6])
    pair = preset_delta(model, -1.0)
    for st in find_bound_states(model, pair, e_min=-200.0):
        dressed = gamma_dressed(pair, gamma_free(model, complex(st.energy)))
        assert np.linalg.norm(dressed @ st.charges) <= 1e-8
        lead = st.charges[np.argmax(np.abs(st.charges))]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0.0


def test_default_search_floor_covers_known_roots():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(model, -1.0)
    floor = default_search_floor(model, pair)
    assert floor < ref.delta_bound_energy_3d(-1.0)
    states = find_bound_states(model, pair)
    assert len(states) == 1


def test_eigenfunction_decays_and_localizes():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(model, -1.0)
    st = find_bound_states(model, pair, e_min=-200.0)[0]
    pts = [np.array([r, 0.0, 0.0]) for r in (0.2, 0.5, 1.0)]
    vals = eigenfunction_eval(model, st.energy, st.charges, pts)
    assert vals.shape == (2, 3)
    mags = np.abs(vals).max(axis=0)
    assert mags[0] > mags[1] > mags[2]
    # exponential decay rate sqrt(|E|)
    kappa = np.sqrt(-st.energy)
    ratio = (mags[2] * 1.0) / (mags[1] * 0.5)
    assert np.log(ratio) == pytest.approx(-kappa * 0.5, rel=1e-6)


def test_eigenfunction_rejects_continuum_energy():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    with pytest.raises(ValueError):
        eigenfunction_eval(model, 1.0, np.array([1.0, 0.0]), [np.ones(3)])


def test_invalid_pair_requires_unchecked():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    bad = preset_offdiag(model, [[1.0, 0.3]])
    with pytest.raises(ValueError):
        find_bound_states(model, bad, e_min=-50.0)
    find_bound_states(model, bad, e_min=-50.0, unchecked=True)


def test_mismatched_pair_is_rejected_even_unchecked():
    model = ModelSpec(3, [np.zeros(3)], [0.0])
    pair = preset_delta(ModelSpec(3, [np.zeros(3), np.ones(3)], [0.0, 0.0]), -1.0)
    for unchecked in (False, True):
        with pytest.raises(ValidationError, match="does not match the model"):
            find_bound_states(model, pair, e_min=-50.0, unchecked=unchecked)


def test_two_site_delta_well_count_1d():
    # two attractive wells: the single-well level splits into a
    # symmetric/antisymmetric pair straddling -1
    model = ModelSpec(1, [0.0, 4.0], [0.0, 0.0])
    pair = preset_delta(model, -2.0)
    states = find_bound_states(model, pair, e_min=-5.0)
    energies = sorted({round(st.energy, 6) for st in states})
    assert len(energies) == 2
    assert energies[0] < -1.0 < energies[1]
    for e in energies:
        assert e == pytest.approx(-1.0, abs=0.05)
    # tunneling splitting for kappa = 1, L = 4 is about 2 e^{-4}
    gap = energies[1] - energies[0]
    assert gap == pytest.approx(4.0 * np.exp(-4.0), rel=0.15)


def _two_site_model(dimension, r):
    # a generic direction and offset, so no coordinate is special
    if dimension == 1:
        return ModelSpec(1, [0.3, 0.3 + r], [0.0, 0.0])
    u = np.array([0.48, -0.6, 0.64])
    o = np.array([0.2, -0.7, 0.1])
    return ModelSpec(3, [o, o + r * u / np.linalg.norm(u)], [0.0, 0.0])


@pytest.mark.parametrize("r", [0.5, 0.7, 1.0, 1.5])
def test_two_site_even_odd_levels_3d(r):
    # each level binds in all 4 spin configurations; at r = 1.5 the even
    # and odd levels are about 2e-7 apart and must stay two levels
    model = _two_site_model(3, r)
    pair = preset_delta(model, -1.0)
    states = find_bound_states(model, pair)
    expect = ref.two_site_bound_energies_3d(-1.0, r)
    assert len(expect) == 2
    assert [st.multiplicity for st in states] == [4, 4]
    for st, e in zip(states, expect):
        assert st.energy == pytest.approx(e, rel=1e-12)
        # the odd level's charges are the second eigenvector of each block
        gamma = gamma_free(model, complex(st.energy))
        residual = np.linalg.norm(gamma_dressed(pair, gamma) @ st.charge_basis.T, axis=0)
        scale = np.linalg.norm(pair.B @ gamma, 2) + np.linalg.norm(pair.A, 2)
        assert np.all(residual <= 1e-12 * scale)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_two_site_even_odd_levels_1d(r):
    model = _two_site_model(1, r)
    states = find_bound_states(model, preset_delta(model, -2.0))
    expect = ref.two_site_bound_energies_1d(-2.0, r)
    assert [st.multiplicity for st in states] == [4] * len(expect)
    for st, e in zip(states, expect):
        assert st.energy == pytest.approx(e, rel=1e-12)


def test_zeeman_chain_levels_3d():
    # sites 3 apart bind alone to 1e-16: 16 Zeeman levels 0.2 apart,
    # each bound at all 4 sites
    alpha = [0.1, 0.2, 0.4, 0.8]
    u = np.array([0.36, 0.48, 0.8])
    model = ModelSpec(3, [3.0 * j * u for j in range(4)], alpha)
    states = find_bound_states(model, preset_delta(model, -1.0))
    shifts = sorted(np.dot(alpha, s) for s in itertools.product([1, -1], repeat=4))
    expect = [sh + ref.delta_bound_energy_3d(-1.0) for sh in shifts]
    assert [st.multiplicity for st in states] == [4] * 16
    for st, e in zip(states, expect):
        assert st.energy == pytest.approx(e, rel=1e-12)


def test_zeeman_chain_levels_1d():
    # wells 20 apart bind alone to e^{-40}: 16 Zeeman levels 0.2 apart,
    # each bound at all 4 wells
    alpha = [0.1, 0.2, 0.4, 0.8]
    model = ModelSpec(1, [0.3 + 20.0 * j for j in range(4)], alpha)
    states = find_bound_states(model, preset_delta(model, -4.0))
    expect = ref.delta_chain_levels_1d(alpha, -4.0)
    assert [st.multiplicity for st in states] == [4] * 16
    for st, e in zip(states, expect):
        assert st.energy == pytest.approx(e, rel=1e-12)


def _random_pairs(dimension, seed=None, sizes=(1, 2, 3, 1, 2, 3)):
    """Random admissible pairs with Zeeman couplings on random sites, one per size."""
    rng = np.random.default_rng(31 + dimension if seed is None else seed)
    for n in sizes:
        pos = rng.normal(size=n) * 2 if dimension == 1 else rng.normal(size=(n, 3)) * 2
        model = ModelSpec(dimension, pos, rng.uniform(-0.5, 0.5, n))
        yield model, random_valid_pair(model, rng)


@pytest.mark.parametrize("dimension", [1, 3])
def test_certified_floor_finds_every_state(dimension):
    # random admissible pairs often bind below the heuristic floor; the
    # certified floor must give the states that a floor 100 times
    # deeper gives. Deep states of such pairs can have charges almost
    # entirely in the charge layer, where Gamma(E) varies like |E|^-3/2:
    # rounding then moves their roots by ~1e-11 relative, whatever the
    # bracket
    moved = 0
    for model, pair in _random_pairs(dimension):
        mu = essential_spectrum_bottom(model)
        floor = default_search_floor(model, pair)
        scale = np.max(np.abs(pair.A)) / np.max(np.abs(pair.B))
        guess = mu - 10.0 * (1.0 + (4.0 * np.pi * scale) ** 2)
        moved += mu - floor > 2.0 * (mu - guess)  # each move multiplies mu - floor by 4
        states = find_bound_states(model, pair)
        deep = find_bound_states(model, pair, e_min=mu - 100.0 * (mu - floor))
        assert [st.multiplicity for st in states] == [st.multiplicity for st in deep]
        for st, dp in zip(states, deep):
            assert st.energy == pytest.approx(dp.energy, rel=1e-9)
            assert st.energy > floor
    assert moved > 0


# ---------------------------------------------------------------------------
# spin frame: offdiag at alpha = 0 against its isospectral delta pair


def _zero_field(d, n):
    positions = [1.3 * k for k in range(n)] if d == 1 else [[1.1 * k, 0.3 * (k % 2), 0.0] for k in range(n)]
    return ModelSpec(d, positions, np.zeros(n))


def _expanded(states):
    """Energies repeated by multiplicity, ascending."""
    return np.sort(np.concatenate([np.full(st.multiplicity, st.energy) for st in states]))


@pytest.mark.parametrize("d, n", [(d, n) for d in (1, 3) for n in (4, 5, 6)])
def test_offdiag_at_zero_field_is_isospectral_to_delta(d, n):
    """At alpha = 0, offdiag's spin parts are diagonal in the sigma_y basis of each site.

    Its eigenvalues there are +-betahat (d=3, with B = I) or +-2 betahat
    (d=1, in B), which is the delta pair with that per-site table, so the
    two pairs have the same levels. Compared as energies repeated by
    multiplicity: two roots within tol may share one bracket in one run.
    """
    betahat = 0.8
    model = _zero_field(d, n)
    pair = preset_offdiag(model, betahat)
    assert pair.frame(model).sites == tuple(range(1, n + 1))
    states = find_bound_states(model, pair)
    width = betahat if d == 3 else 2.0 * betahat
    twin = find_bound_states(model, preset_delta(model, [[width, -width]] * n))
    got, want = _expanded(states), _expanded(twin)
    assert got.size == want.size > 0
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # every charge basis is a null space of B Gamma(E) + A in the pair's own frame
    for st in states:
        q = st.charge_basis.T
        residual = pair.B @ (gamma_free(model, complex(st.energy)) @ q) + pair.A @ q
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8
        assert np.allclose(np.linalg.norm(st.charge_basis, axis=1), 1.0)


# ---------------------------------------------------------------------------
# Newton steps on the crossing eigenvalue, with the count as certificate


@pytest.mark.parametrize("dimension", [1, 3])
def test_multiplicities_add_up_to_the_count(dimension):
    """Every state between the floor and the top is reported once.

    The levels' multiplicities sum to N(top) - N(floor) exactly, also
    where a deep level's eigenvalue reads noisy counts near its root:
    the last d=1 pair has a level near -710 whose count at one side of
    its Newton bracket reads one less than at the bracket's lower end,
    and it gave a fourteenth row for 13 states without the clamp.
    """
    pairs = list(_random_pairs(dimension))
    if dimension == 1:
        pairs.append(list(_random_pairs(1, seed=7, sizes=(1, 2, 3)))[-1])
    for model, pair in pairs:
        red = spectral._reduce(model, pair.frame(model))
        _, n_floor = spectral._search_floor(model, pair, red)
        mu = essential_spectrum_bottom(model)
        n_top = spectral._count(red, mu - spectral.GAP * (1.0 + abs(mu)))
        states = find_bound_states(model, pair)
        assert sum(st.multiplicity for st in states) == n_top.sum() - n_floor.sum()
        energies = [st.energy for st in states]
        assert all(np.diff(energies) > 1e-13 * (1.0 + np.abs(energies[1:])))


def test_degenerate_level_is_one_row():
    """A twofold root of the one-block offdiag pair in a field is one row.

    Bisection split it into two rows 7.3e-12 apart, inside one
    tol * (1 + |E|) bracket.
    """
    model = ModelSpec(3, [[1.1 * k, 0.3 * (k % 2), 0.0] for k in range(4)], [0.3] * 4)
    states = find_bound_states(model, preset_offdiag(model, 0.8))
    assert len(states) == 24
    assert sum(st.multiplicity for st in states) == 32
    near = [st for st in states if abs(st.energy + 100.765136542) < 1e-6]
    assert [st.multiplicity for st in near] == [2]
    assert near[0].charge_basis.shape == (2, model.defect_dim)


@pytest.mark.parametrize("dimension", [1, 3])
def test_newton_slope_is_the_derivative_of_the_eigenvalue(dimension):
    """-y* V* G V y against a central difference of the sorted eigenvalue.

    Every eigenvalue of every block comes from one batched call, each
    block at its own energy. The one-block offdiag pair in a field
    (N = 3: 24 or 48 channels) takes the single-eigenpair path of large
    blocks.
    """
    field = ModelSpec(dimension, _zero_field(dimension, 3).positions, [0.3] * 3)
    for model, pair in list(_random_pairs(dimension))[:3] + [(field, preset_offdiag(field, 0.8))]:
        red = spectral._reduce(model, pair.frame(model))

        def eigenvalues(e):  # ascending, per block in group order, all blocks at energy e
            return [ev for rd in red for ev in np.linalg.eigvalsh(rd.hermitian(rd.plan(e)[0], slice(None)))]

        n_blocks = len(eigenvalues(essential_spectrum_bottom(model) - 0.7))
        energy = essential_spectrum_bottom(model) - 0.7 - 0.05 * np.arange(n_blocks)
        at = [eigenvalues(e) for e in energy]
        blocks = np.concatenate([np.full(len(at[b][b]), b) for b in range(n_blocks)])
        index = np.concatenate([np.arange(len(at[b][b])) for b in range(n_blocks)])
        lam, slope = spectral._crossing(red, energy[blocks], blocks, index)
        h = 1e-4
        up, down = [eigenvalues(e + h) for e in energy], [eigenvalues(e - h) for e in energy]
        for k, (b, i) in enumerate(zip(blocks, index)):
            assert lam[k] == pytest.approx(at[b][b][i], abs=1e-12)
            assert slope[k] < 0.0
            assert slope[k] == pytest.approx((up[b][b][i] - down[b][b][i]) / (2 * h), rel=1e-6)


def test_zeeman_chain_takes_few_assemblies_per_level(monkeypatch):
    """Gamma evaluations of the search's plans; a Newton step's Gram shares its Gamma's.

    Bisection to tol took 37 assemblies per level on this chain, and
    Newton steps on one block at a time 87 for its 16 levels. All 16
    blocks stepped at once take 6: a count at the floor and one at the
    top, two Newton steps, one count at every window edge and one
    dressing of all 16 levels.
    """
    alpha = [0.1, 0.2, 0.4, 0.8]
    u = np.array([0.36, 0.48, 0.8])
    model = ModelSpec(3, [3.0 * j * u for j in range(4)], alpha)
    calls = []
    plan = krein._gamma_plan

    def counted(*args):
        evaluate = plan(*args)
        return lambda *a, **kw: calls.append(1) or evaluate(*a, **kw)

    monkeypatch.setattr(krein, "_gamma_plan", counted)
    states = find_bound_states(model, preset_delta(model, -1.0))
    assert len(states) == 16
    assert len(calls) <= 6
