"""Bound-state search against analytically known energies."""

import numpy as np
import pytest

import reference_kernels as ref
from spinpoint.boundary import (
    ValidationError,
    preset_delta,
    preset_delta_prime,
    preset_free,
    preset_offdiag,
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
