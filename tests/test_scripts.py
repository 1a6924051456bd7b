"""Smoke runs of the scripts: exit code, header and row count of their CSV."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, tmp_path, *argv):
    out = tmp_path / f"{name}.csv"
    main = runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text().splitlines()


def test_scan_bound_levels(tmp_path):
    lines = run_script("scan_bound_levels", tmp_path, "--steps", "3")
    assert lines[0] == "coupling,energy,sigma_min,multiplicity"
    assert len(lines) == 1 + 3  # one level per coupling


def test_singular_value_profile(tmp_path):
    lines = run_script("singular_value_profile", tmp_path)
    assert lines[0] == "energy,sigma_min,logabsdet"
    assert len(lines) == 1 + 800


def test_spin_flip_weights(tmp_path):
    lines = run_script("spin_flip_weights", tmp_path, "--frames", "2", "--tmax", "0.4",
                       "--n-nodes", "256")
    tag, value = lines[0].split(":")
    assert tag == "# error-estimate"
    assert 0.0 < float(value) < 1e-4
    assert lines[1] == "time,norm,weight_up,weight_down"
    assert len(lines) == 2 + 2
