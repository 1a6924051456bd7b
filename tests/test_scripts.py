"""Smoke runs of the scripts: exit code, header and row count of their CSV.

The singular-value profile of scripts/singular_value_profile.py is also
checked against the bound-state search.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

from spinpoint import ModelSpec, find_bound_states, preset_delta, preset_offdiag

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    return runpy.run_path(str(SCRIPTS / f"{name}.py"))


def run_script(name, tmp_path, *argv):
    out = tmp_path / f"{name}.csv"
    assert load_script(name)["main"]([*argv, "--out", str(out)]) == 0
    return out.read_text().splitlines()


def test_scan_bound_levels(tmp_path):
    lines = run_script("scan_bound_levels", tmp_path, "--steps", "3")
    assert lines[0] == "coupling,energy,sigma_min,multiplicity"
    assert len(lines) == 1 + 3  # one level per coupling


def test_singular_value_profile(tmp_path):
    lines = run_script("singular_value_profile", tmp_path)
    assert lines[0] == "energy,sigma_min,logabsdet"
    assert len(lines) == 1 + 800


def test_profile_rejects_energies_above_threshold():
    detgamma_profile = load_script("singular_value_profile")["detgamma_profile"]
    model = ModelSpec(1, [0.0], [0.5])
    pair = preset_delta(model, -1.0)
    with pytest.raises(ValueError):
        detgamma_profile(model, pair, [-1.0, 0.0])
    out = detgamma_profile(model, pair, [-2.0, -1.5])
    assert out.shape == (2, 2)
    assert np.all(out[:, 0] >= 0.0)


@pytest.mark.parametrize("model, make", [
    (ModelSpec(1, [-2.0, 2.0], [0.0, 0.0]), lambda m: preset_delta(m, -2.0)),  # the script's default double well
    (ModelSpec(1, [0.0, 1.3], [0.3, 0.3]), lambda m: preset_offdiag(m, 0.8)),
], ids=["double-well", "offdiag-field-N2"])
def test_profile_dips_to_zero_at_every_level(model, make):
    """The dense profile at each level the search finds: sigma_min is zero, as the search's own."""
    detgamma_profile = load_script("singular_value_profile")["detgamma_profile"]
    pair = make(model)
    levels = find_bound_states(model, pair)
    assert levels
    sigma = detgamma_profile(model, pair, [st.energy for st in levels])[:, 0]
    assert np.all(sigma <= 1e-12)
    assert np.allclose(sigma, [st.smallest_singular_value for st in levels], rtol=0.0, atol=1e-14)


def test_spin_flip_weights(tmp_path):
    lines = run_script("spin_flip_weights", tmp_path, "--frames", "2", "--tmax", "0.4",
                       "--n-nodes", "256")
    tag, value = lines[0].split(":")
    assert tag == "# error-estimate"
    assert 0.0 < float(value) < 1e-4
    assert lines[1] == "time,norm,weight_up,weight_down"
    assert len(lines) == 2 + 2
