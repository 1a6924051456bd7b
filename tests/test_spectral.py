"""Bound-state search against analytically known energies."""

import itertools

import numpy as np
import pytest

import reference_kernels as ref
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
    detgamma_profile,
    eigenfunction_eval,
    essential_spectrum_bottom,
    find_bound_states,
)
from spinpoint.spins import ModelSpec


def test_essential_spectrum_bottom():
    model = ModelSpec(1, [0.0, 1.0], [0.5, 0.25])
    assert essential_spectrum_bottom(model) == pytest.approx(-0.75)
    assert essential_spectrum_bottom(ModelSpec(3, [np.zeros(3)], [0.0])) == 0.0


def test_profile_rejects_energies_above_threshold():
    model = ModelSpec(1, [0.0], [0.5])
    pair = preset_delta(model, -1.0)
    with pytest.raises(ValueError):
        detgamma_profile(model, pair, [-1.0, 0.0])
    out = detgamma_profile(model, pair, [-2.0, -1.5])
    assert out.shape == (2, 2)
    assert np.all(out[:, 0] >= 0.0)


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


@pytest.mark.parametrize("dimension", [1, 3])
def test_certified_floor_finds_every_state(dimension):
    # random admissible pairs often bind below the heuristic floor; the
    # certified floor must give the states that a floor 100 times
    # deeper gives. Deep states of such pairs can have charges almost
    # entirely in the charge layer, where Gamma(E) varies like |E|^-3/2:
    # rounding then moves their roots by ~1e-11 relative, whatever the
    # bracket
    rng = np.random.default_rng(31 + dimension)
    moved = 0
    for n in (1, 2, 3, 1, 2, 3):
        pos = rng.normal(size=n) * 2 if dimension == 1 else rng.normal(size=(n, 3)) * 2
        model = ModelSpec(dimension, pos, rng.uniform(-0.5, 0.5, n))
        pair = random_valid_pair(model, rng)
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
