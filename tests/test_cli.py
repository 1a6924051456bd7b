"""Front-end contract: file formats, exit codes, byte determinism.

Everything drives spinpoint.cli.main(argv) in process; one test goes
through the interpreter to cover the module entry point.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinpoint import cli
from spinpoint.greens import green
from spinpoint.krein import gamma_dressed, gamma_free, resolvent_kernel
from spinpoint.spins import ModelSpec


def run(*argv):
    return cli.main(list(argv))


def write_model(tmp_path, name="delta", dimension=1, positions="0.0", **flags):
    path = tmp_path / f"model_{name}_{dimension}.json"
    argv = ["preset", name, "--dimension", str(dimension), "--positions", positions,
            "--out", str(path)]
    for key, val in flags.items():
        argv.extend([f"--{key}", val])
    assert run(*argv) == 0
    return path


def read_table(path):
    meta, header, rows = [], None, []
    for line in open(path, newline="\n").read().split("\n"):
        if not line:
            continue
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def test_preset_and_validate_roundtrip(tmp_path, capsys):
    path = write_model(tmp_path, beta="-2.0")
    doc = json.loads(path.read_text())
    assert doc["schema"] == "spinpoint-model v1"
    assert doc["preset"]["parameters"]["beta"] == -2.0
    assert run("validate", str(path)) == 0
    out = capsys.readouterr().out
    assert "local: true" in out
    assert "valid: true" in out


def test_validate_rejects_asymmetric_offdiag(tmp_path, capsys):
    path = write_model(tmp_path, name="offdiag", dimension=3,
                       positions="0.0,0.0,0.0", betahat="[[1.0, 0.25]]")
    assert run("validate", str(path)) == 2
    out = capsys.readouterr().out
    assert "valid: false" in out
    defect = float(next(line for line in out.splitlines()
                        if line.startswith("hermiticity defect")).split(":")[1])
    assert defect > 0.1


def test_commands_share_the_validation_gate(tmp_path, capsys):
    path = write_model(tmp_path, name="offdiag", betahat="[[1.0, 0.25]]")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "schema": "spinpoint-state v1",
        "components": [{"channel": 0, "center": -2.0, "momentum": 1.0}],
        "grid": {"lo": -6.0, "hi": 6.0, "n": 48},
    }))
    commands = {
        "kernel": ["--z", "-1.0,0.5", "--n-points", "2"],
        "boundstates": ["--emin", "-5.0"],
        "gamma": ["--z", "-1.0,0.5"],
        "evolve": ["--state", str(state), "--t", "0.1", "--n-nodes", "16",
                   "--out", str(tmp_path / "run")],
    }
    for name, flags in commands.items():
        assert run(name, str(path), *flags) == 2, name
        assert "validation failed: INVALID" in capsys.readouterr().err
        assert run(name, str(path), *flags, "--unchecked") != 2, name
        assert "validation failed" not in capsys.readouterr().err


def test_readme_file_examples_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    docs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)]
    models, states = [], []
    for i, doc in enumerate(docs):
        path = tmp_path / f"example_{i}.json"
        path.write_text(json.dumps(doc))
        (models if doc["schema"] == cli.MODEL_SCHEMA else states).append(path)
    assert len(models) == 2 and len(states) == 1
    loaded = [cli.load_model(str(path)) for path in models]
    for _, pair, _ in loaded:
        assert pair.validation().is_valid
    packet, grid = cli.load_packet(str(states[0]), loaded[0][0])
    assert grid.n_points == 200 and packet.n_channels == 2


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("validate", str(bad)) == 1
    assert "input error" in capsys.readouterr().err


def test_unknown_flag_is_input_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("kernel", "whatever.json", "--nope")
    assert err.value.code == 1


def test_removed_flags_are_input_errors(tmp_path):
    # each subcommand takes only the flags it reads
    path = write_model(tmp_path, beta="-2.0")
    for argv in (["kernel", "--z", "-1.0,0.5", "--tol", "1e-6"],
                 ["gamma", "--z", "-1.0,0.5", "--tol", "1e-6"],
                 ["validate", "--unchecked"],
                 ["boundstates", "--paper-literal"]):
        with pytest.raises(SystemExit) as err:
            run(argv[0], str(path), *argv[1:])
        assert err.value.code == 1, argv


def test_cli_import_leaves_scipy_signal_unloaded():
    code = "import sys, spinpoint.cli; print('scipy.signal' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_missing_model_file_is_input_error(capsys):
    assert run("validate", "/nonexistent/model.json") == 1


def test_kernel_free_pair_matches_green(tmp_path):
    path = write_model(tmp_path, name="free")
    pts = tmp_path / "pts.csv"
    pts.write_text("x,sigma,xp,sigmap\n0.7,0,-0.4,0\n1.2,1,0.3,1\n0.5,0,0.6,1\n")
    out = tmp_path / "kernel.csv"
    z = complex(-2.0, 0.7)
    assert run("kernel", str(path), "--z", "-2.0,0.7", "--points", str(pts),
               "--out", str(out)) == 0
    _, _, rows = read_table(out)
    assert [r["flag"] for r in rows] == ["ok", "ok", "ok"]
    for r in rows[:2]:
        want = green(1, z, float(r["x"]) - float(r["xp"]))
        assert float(r["re"]) == pytest.approx(want.real, rel=1e-12)
        assert float(r["im"]) == pytest.approx(want.imag, rel=1e-12)
    assert float(rows[2]["re"]) == 0.0 and float(rows[2]["im"]) == 0.0


def test_kernel_reruns_are_byte_identical(tmp_path):
    path = write_model(tmp_path, beta="-1.5")
    out = tmp_path / "kernel.csv"
    argv = ["kernel", str(path), "--z", "-1.0,0.5", "--seed", "3", "--out", str(out)]
    assert run(*argv) == 0
    first = out.read_bytes()
    assert run(*argv) == 0
    assert out.read_bytes() == first
    assert b"\r" not in first


def test_kernel_at_bound_state_flags_rows(tmp_path):
    path = write_model(tmp_path, beta="-2.0")
    out = tmp_path / "pole.csv"
    assert run("kernel", str(path), "--z", "-1.0,0.0", "--out", str(out)) == 3
    _, _, rows = read_table(out)
    assert all(r["flag"] == "near-pole" for r in rows)
    assert all(r["re"] == "nan" for r in rows)


def _count_dressings(monkeypatch):
    from spinpoint import krein

    calls = []
    inner = krein.invert_dressed

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(krein, "invert_dressed", counted)
    return calls


def test_kernel_dresses_once_per_command(tmp_path, monkeypatch):
    path = write_model(tmp_path, dimension=3, positions="0.0,0.0,0.0;1.5,0.0,0.0",
                       beta="[[-1.0, 0.3], [0.5, -0.2]]", alpha="0.2,-0.1")
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3,sigma,xp1,xp2,xp3,sigmap\n"
                   "0.3,0.2,0.1,0,-0.4,0.1,0.0,0\n"
                   "1.2,-0.3,0.2,3,0.8,0.5,-0.1,3\n"
                   "0.5,0.5,0.5,1,0.6,-0.2,0.3,2\n"
                   "-1.0,0.0,0.4,2,2.0,0.1,0.1,2\n"
                   "0.9,0.1,-0.6,1,0.2,0.3,0.4,1\n")
    out = tmp_path / "kernel.csv"
    calls = _count_dressings(monkeypatch)
    assert run("kernel", str(path), "--z", "-1.0,0.5", "--points", str(pts),
               "--out", str(out)) == 0
    assert len(calls) == 1
    model, pair, _ = cli.load_model(str(path))
    _, _, rows = read_table(out)
    assert len(rows) == 5
    for r in rows:
        x = np.array([float(r[f"x{i}"]) for i in (1, 2, 3)])
        xp = np.array([float(r[f"xp{i}"]) for i in (1, 2, 3)])
        want = resolvent_kernel(model, pair, complex(-1.0, 0.5), x, int(r["sigma"]),
                                xp, int(r["sigmap"]))
        got = complex(float(r["re"]), float(r["im"]))
        assert r["flag"] == "ok"
        assert abs(got - want) <= 1e-14 * abs(want)
    assert len(calls) == 1 + len(rows)


def test_kernel_near_pole_flags_every_row_once(tmp_path, monkeypatch):
    path = write_model(tmp_path, beta="-2.0")  # bound state at E = -1
    pts = tmp_path / "pts.csv"
    pts.write_text("".join(f"{0.3 * k + 0.1},0,{-0.2 * k - 0.5},{k % 2}\n" for k in range(5)))
    out = tmp_path / "pole.csv"
    calls = _count_dressings(monkeypatch)
    assert run("kernel", str(path), "--z", "-1.0,0.0", "--points", str(pts),
               "--out", str(out)) == 3
    assert len(calls) == 1
    _, _, rows = read_table(out)
    assert len(rows) == 5
    assert all(r["flag"] == "near-pole" and r["re"] == r["im"] == "nan" for r in rows)


def test_boundstates_free_empty(tmp_path):
    path = write_model(tmp_path, name="free")
    out = tmp_path / "bs.csv"
    assert run("boundstates", str(path), "--out", str(out)) == 0
    _, header, rows = read_table(out)
    assert header[0] == "energy"
    assert rows == []


def test_boundstates_delta_1d(tmp_path):
    path = write_model(tmp_path, beta="-2.0")
    out = tmp_path / "bs.csv"
    assert run("boundstates", str(path), "--out", str(out)) == 0
    _, _, rows = read_table(out)
    assert len(rows) == 1
    assert float(rows[0]["energy"]) == pytest.approx(-1.0, abs=1e-8)
    assert int(rows[0]["multiplicity"]) == 2


def test_boundstates_delta_3d(tmp_path):
    path = write_model(tmp_path, dimension=3, positions="0.0,0.0,0.0", beta="-1.0")
    out = tmp_path / "bs.csv"
    assert run("boundstates", str(path), "--out", str(out)) == 0
    _, _, rows = read_table(out)
    assert len(rows) == 1
    want = -16.0 * np.pi**2
    assert float(rows[0]["energy"]) == pytest.approx(want, rel=1e-8)


def test_boundstates_respects_emin(tmp_path):
    path = write_model(tmp_path, beta="-2.0")
    out = tmp_path / "bs.csv"
    # floor above the bound level hides it
    assert run("boundstates", str(path), "--emin", "-0.5", "--out", str(out)) == 0
    assert read_table(out)[2] == []


def test_gamma_matches_library(tmp_path):
    path = write_model(tmp_path, beta="-2.0", alpha="0.4")
    out = tmp_path / "gamma.csv"
    assert run("gamma", str(path), "--z", "-4.0,0.0", "--out", str(out)) == 0
    _, _, rows = read_table(out)
    model = ModelSpec(1, [0.0], [0.4])
    pair = cli.load_model(str(path))[1]
    gam = gamma_free(model, complex(-4.0))
    dressed = gamma_dressed(pair, gam)
    assert len(rows) == 16
    for r in rows:
        i, j = int(r["row"]), int(r["col"])
        assert float(r["gamma_re"]) == pytest.approx(gam[i, j].real, abs=1e-14)
        assert float(r["dressed_re"]) == pytest.approx(dressed[i, j].real, abs=1e-14)


def test_evolve_writes_summary_and_snapshots(tmp_path):
    path = write_model(tmp_path, name="free")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "schema": "spinpoint-state v1",
        "components": [{"channel": 0, "center": [-2.0], "momentum": [2.0],
                        "variance": 1.0, "weight": 1.0}],
        "grid": {"lo": -10.0, "hi": 10.0, "n": 160},
    }))
    outdir = tmp_path / "run"
    assert run("evolve", str(path), "--state", str(state), "--t", "0.0,0.5",
               "--n-nodes", "512", "--out", str(outdir)) == 0
    meta, header, rows = read_table(outdir / "summary.csv")
    assert header == ["time", "norm", "weight_0", "weight_1"]
    assert len(rows) == 2
    norms = [float(r["norm"]) for r in rows]
    assert norms[1] == pytest.approx(norms[0], rel=1e-3)
    assert float(rows[1]["weight_1"]) == 0.0
    _, sheader, srows = read_table(outdir / "state_001.csv")
    assert sheader == ["x", "sigma_code", "re", "im"]
    assert len(srows) == 2 * 160


def test_evolve_drift_is_numerical_failure(tmp_path, capsys):
    path = write_model(tmp_path, name="free")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "schema": "spinpoint-state v1",
        "components": [{"channel": 0, "center": [0.0], "momentum": [3.0],
                        "variance": 2.0, "weight": 1.0}],
        "grid": {"lo": -8.0, "hi": 8.0, "n": 120},
    }))
    assert run("evolve", str(path), "--state", str(state), "--t", "1.0",
               "--n-nodes", "16", "--out", str(tmp_path / "run")) == 3
    assert "drift" in capsys.readouterr().err


def test_paper_literal_doubles_delta_coupling(tmp_path):
    path = write_model(tmp_path, beta="-1.5")
    literal = tmp_path / "literal.json"
    assert run("preset", "delta", "--dimension", "1", "--positions", "0.0", "--beta", "-1.5",
               "--paper-literal", "--out", str(literal)) == 0
    assert json.loads(literal.read_text())["preset"]["parameters"]["paper_literal"] is True
    _, pair_default, _ = cli.load_model(str(path))
    _, pair_literal, _ = cli.load_model(str(literal))
    assert pair_default.B[0, 0] == pytest.approx(1.5)
    assert pair_literal.B[0, 0] == pytest.approx(3.0)


def test_explicit_matrix_model_file(tmp_path):
    m = 4
    eye = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(m)] for i in range(m)]
    zero = [[[0.0, 0.0]] * m for _ in range(m)]
    doc = {"schema": "spinpoint-model v1", "dimension": 1, "n": 1,
           "positions": [0.0], "alpha": [0.0], "A": eye, "B": zero}
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(doc))
    assert run("validate", str(path)) == 0


def test_preset_d3_positions_parsing(tmp_path):
    path = write_model(tmp_path, name="free", dimension=3,
                       positions="0.0,0.0,0.0;2.0,0.0,0.0")
    doc = json.loads(path.read_text())
    assert doc["n"] == 2
    assert doc["positions"][1] == [2.0, 0.0, 0.0]


def test_spin_cap_env_applies(tmp_path, monkeypatch):
    path = write_model(tmp_path, name="free", positions="0.0,1.0,2.0")
    monkeypatch.setenv("SPINPOINT_MAX_N", "2")
    assert run("validate", str(path)) == 1


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "spinpoint.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "validate" in proc.stdout and "boundstates" in proc.stdout
