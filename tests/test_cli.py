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
from spinpoint.spectral import find_bound_states
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
    with open(path, newline="\n") as fh:
        text = fh.read()
    for line in text.split("\n"):
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


IMPORT_PROBE = """
import json, sys
from pathlib import Path
from spinpoint import cli

tmp = Path(sys.argv[1])

def loaded():
    return [name for name in ("scipy.sparse", "scipy.special", "scipy.linalg")
            if name in sys.modules]

seen = {"import": loaded()}
model = str(tmp / "offdiag-d3-n2.json")
cli.main(["preset", "offdiag", "--dimension", "3", "--positions", "0,0,0;1.1,0.3,0",
          "--betahat", "0.8", "--out", model])
assert cli.main(["validate", model]) == 0
seen["validate"] = loaded()
assert cli.main(["kernel", model, "--z", "-1.0,0.5", "--n-points", "2",
                 "--out", str(tmp / "kernel.csv")]) == 0
seen["kernel"] = loaded()
pair = str(tmp / "delta-d1-n2.json")
cli.main(["preset", "delta", "--dimension", "1", "--positions", "0.0,1.5", "--beta", "-1.0",
          "--out", pair])
assert cli.main(["boundstates", pair, "--out", str(tmp / "levels.csv")]) == 0
seen["boundstates"] = loaded()
line = str(tmp / "offdiag-d1-n1.json")
cli.main(["preset", "offdiag", "--dimension", "1", "--positions", "0.0", "--betahat", "0.8",
          "--out", line])
state = tmp / "state.json"
state.write_text(json.dumps({
    "schema": "spinpoint-state v1",
    "components": [{"channel": 0, "center": [-2.0], "momentum": [1.0], "variance": 1.0}],
    "grid": {"lo": -6.0, "hi": 6.0, "n": 48},
}))
assert cli.main(["evolve", line, "--state", str(state), "--t", "0.1", "--n-nodes", "256",
                 "--out", str(tmp / "run")]) == 0
seen["evolve"] = loaded()
print(json.dumps(seen))
"""


def test_cli_loads_heavy_scipy_submodules_only_at_the_call(tmp_path):
    # start-up pays for numpy and scipy's top level only: validate and
    # kernel need no scipy submodule, a d=1 boundstates with its certified
    # search floor needs no scipy.linalg, evolve loads scipy.special for
    # its Gauss-Legendre rule when it runs
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == seen["validate"] == seen["kernel"] == []
    assert "scipy.linalg" not in seen["boundstates"]
    assert "scipy.special" in seen["evolve"]
    assert "scipy.sparse" not in seen["evolve"]


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


def test_main_reuses_its_parser_in_one_process(tmp_path):
    # the parser is built once per process; each call parses only its own flags
    path = write_model(tmp_path, beta="-1.5")
    out = tmp_path / "kernel.csv"
    argv = ["kernel", str(path), "--z", "-1.0,0.5", "--out", str(out)]
    assert run(*argv, "--n-points", "3") == 0
    assert len(read_table(out)[2]) == 3
    assert run(*argv) == 0
    assert len(read_table(out)[2]) == 12
    levels = tmp_path / "bs.csv"
    assert run("boundstates", str(path), "--tol", "1e-10", "--out", str(levels)) == 0
    assert "# tolerances: tol=1e-10" in read_table(levels)[0]
    assert run("boundstates", str(path), "--out", str(levels)) == 0
    assert "# tolerances: tol=1e-13" in read_table(levels)[0]
    with pytest.raises(SystemExit) as err:
        run("kernel", str(path), "--nope")
    assert err.value.code == 1
    assert cli.build_parser() is cli.build_parser()


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


def test_boundstates_rows_format_every_charge_cell(tmp_path):
    path = write_model(tmp_path, name="offdiag", dimension=3,
                       positions="0,0,0;1.1,0.3,0", betahat="0.8", alpha="0.3,0.1")
    out = tmp_path / "bs.csv"
    assert run("boundstates", str(path), "--out", str(out)) == 0
    model, pair, _ = cli.load_model(str(path))
    states = find_bound_states(model, pair, tol=1e-13)
    assert states
    want = []
    for bs in states:
        cells = [cli._fmt(bs.energy), cli._fmt(bs.smallest_singular_value), str(bs.multiplicity)]
        for c in bs.charges:
            cells += [cli._fmt(c.real), cli._fmt(c.imag)]
        want.append(",".join(cells))
    lines = [ln for ln in out.read_text().split("\n") if ln and not ln.startswith("#")]
    assert lines[1:] == want


def test_column_rows_print_every_cell_as_fmt():
    # the bulk path formats whole columns through one tolist(); every cell keeps _fmt's text
    rng = np.random.default_rng(3)
    tiny = np.finfo(float).smallest_subnormal
    special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 3 * tiny,
               np.finfo(float).tiny / 2, np.finfo(float).tiny, 1e16, -1e16, 1e16 + 2, 1e-5, 0.1]
    col = np.concatenate([special, rng.normal(size=64) * 10.0 ** rng.integers(-300, 300, size=64)])
    pairs = np.stack([col[::-1], rng.uniform(-1.0, 1.0, col.size)], axis=1)
    labels = [str(k) for k in range(col.size)]
    writer = cli.ResultWriter("cmd", "0" * 64, "none", "ok")
    head = len(writer.lines)
    writer.columns(col, labels, *pairs.T, col.astype(complex).imag)
    want = [",".join([cli._fmt(a), lab, cli._fmt(b), cli._fmt(c), cli._fmt(0.0)])
            for a, lab, (b, c) in zip(col, labels, pairs)]
    assert writer.lines[head:] == want


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


def test_evolve_near_pole_is_numerical_failure(tmp_path, monkeypatch, capsys):
    # a near-singular dressing at a quadrature node exits 3 and writes nothing
    from spinpoint.krein import NearPoleError

    def near_pole(*args, **kwargs):
        raise NearPoleError(0.75 + 1e-12j, 3e-15, 4e13)

    path = write_model(tmp_path, name="free")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "schema": "spinpoint-state v1",
        "components": [{"channel": 0, "center": [0.0], "momentum": [1.0],
                        "variance": 1.0, "weight": 1.0}],
        "grid": {"lo": -8.0, "hi": 8.0, "n": 40},
    }))
    monkeypatch.setattr(cli, "evolve_spectral", near_pole)
    outdir = tmp_path / "run"
    assert run("evolve", str(path), "--state", str(state), "--out", str(outdir)) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "near-singular at z=(0.75+1e-12j)" in err
    assert not outdir.exists()


def test_evolve_without_out_is_input_error(tmp_path, monkeypatch, capsys):
    # --out names the output directory; without it nothing is evolved
    path = write_model(tmp_path, name="free")
    monkeypatch.setattr(cli, "evolve_spectral", lambda *a, **k: pytest.fail("evolved without --out"))
    with pytest.raises(SystemExit) as err:
        run("evolve", str(path), "--state", str(tmp_path / "state.json"))
    assert err.value.code == 1
    assert "--out" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run("evolve", "--help")
    out = capsys.readouterr().out
    assert "output directory" in out and "stdout" not in out


@pytest.mark.parametrize("name, flags", [("free", []), ("delta-prime", ["--gamma", "0.5"]),
                                         ("offdiag", ["--betahat", "0.5"])])
def test_paper_literal_is_input_error_off_delta(tmp_path, capsys, name, flags):
    out = tmp_path / "model.json"
    assert run("preset", name, "--dimension", "1", "--positions", "0.0", *flags,
               "--paper-literal", "--out", str(out)) == 1
    assert "--paper-literal" in capsys.readouterr().err
    assert not out.exists()


def test_solver_value_errors_are_input_errors(tmp_path, capsys):
    # a kernel row at a spin site, and gamma on the cut
    path = write_model(tmp_path, beta="-2.0")
    points = tmp_path / "points.csv"
    points.write_text("0.0,0,0.5,0\n")
    assert run("kernel", str(path), "--z", "-1.0,0.5", "--points", str(points)) == 1
    assert "input error: evaluation point coincides with a spin site" in capsys.readouterr().err
    path3 = write_model(tmp_path, dimension=3, positions="0.5,0.0,-0.25", beta="-2.0")
    points.write_text("0.5,0.0,-0.25,0,1.0,0.5,0.0,0\n")
    assert run("kernel", str(path3), "--z", "-1.0,0.5", "--points", str(points)) == 1
    assert "input error: evaluation point coincides with a spin site" in capsys.readouterr().err
    assert run("gamma", str(path), "--z", "1.0,0.0") == 1
    assert capsys.readouterr().err.startswith("input error: ")


def test_non_finite_model_fields_are_input_errors(tmp_path, capsys):
    # json.loads reads NaN; a NaN alpha once gave an empty level list and exit 0
    path = write_model(tmp_path, dimension=3, positions="0.0,0.0,0.0", beta="-1.0")
    assert run("boundstates", str(path)) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    for field, value in (("alpha", [float("nan")]), ("positions", [[0.0, float("nan"), 0.0]])):
        bad = tmp_path / f"bad_{field}.json"
        bad.write_text(json.dumps(dict(doc, **{field: value})))
        assert "NaN" in bad.read_text()
        assert run("boundstates", str(bad)) == 1
        assert capsys.readouterr().err.startswith("input error: ")


def test_input_files_are_closed(tmp_path):
    import gc
    import warnings

    path = write_model(tmp_path, beta="-2.0")
    points = tmp_path / "points.csv"
    points.write_text("0.5,0,1.0,0\n-0.5,1,1.0,1\n")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"schema": "spinpoint-state v1",
                                 "components": [{"channel": 0, "center": -2.0, "momentum": 1.0}],
                                 "grid": {"lo": -6.0, "hi": 6.0, "n": 48}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("kernel", str(path), "--z", "-1.0,0.5", "--points", str(points),
                   "--out", str(tmp_path / "kernel.csv")) == 0
        cli.load_packet(str(state), cli.load_model(str(path))[0])
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


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


_SIX_D1 = "0,1.3,2.6,3.9,5.2,6.5"
_SIX_D3 = "0,0,0;1.1,0.3,0;2.2,0,0;3.3,0.3,0;4.4,0,0;5.5,0.3,0"


@pytest.mark.parametrize("name, dimension, positions, alpha, strength, evolve", [
    ("delta", 1, _SIX_D1, "0.3,0.3,0.3,0.3,0.3,0.3", {"beta": "-1.2"}, True),  # 2^6 blocks
    # one 384-channel block; 3D evolve at N = 6 is beyond a unit test's time
    ("offdiag", 3, _SIX_D3, "0.3,0.3,0.3,0.3,0.3,0.3", {"betahat": "0.8"}, False),
    ("offdiag", 1, "0,1.3", "0,0", {"betahat": "0.8"}, True),  # split in the spin frame
], ids=["d1-delta-N6-field", "d3-offdiag-N6-field", "d1-offdiag-N2"])
def test_commands_never_read_the_dense_pair(tmp_path, monkeypatch, name, dimension, positions, alpha, strength,
                                            evolve):
    """validate, kernel, boundstates, evolve and apply_resolvent read the pair's entries, never its m x m A or B."""
    from spinpoint.boundary import BoundaryPair
    from spinpoint.krein import apply_resolvent
    from spinpoint.states import GaussianPacket, UniformGrid

    path = str(write_model(tmp_path, name, dimension, positions, alpha=alpha, **strength))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "schema": "spinpoint-state v1",
        "components": [{"channel": 1, "center": [-1.0] * dimension, "momentum": [1.0] * dimension}],
        "grid": {"lo": -4.0, "hi": 4.0, "n": 41},
    }))

    def refuse(pair):
        raise AssertionError("dense m x m view of a boundary pair read")

    monkeypatch.setattr(BoundaryPair, "A", property(refuse))
    monkeypatch.setattr(BoundaryPair, "B", property(refuse))
    assert run("validate", path) == 0
    assert run("kernel", path, "--z", "-0.7,0.9", "--n-points", "3") == 0
    assert run("boundstates", path, "--tol", "0.5") == 0  # a wide bracket keeps the 384-channel search short
    if evolve:
        assert run("evolve", path, "--state", str(state), "--t", "0.5", "--n-nodes", "4", "--tol", "1",
                   "--out", str(tmp_path / "run")) == 0
    model, pair, _ = cli.load_model(path)
    packet = GaussianPacket.single(dimension, model.n_configs, 1, [0.3] * dimension, [0.9] * dimension, 0.7)
    grid = UniformGrid.linear(-3.0, 3.0, 31) if dimension == 1 else UniformGrid.cube(-2.0, 2.0, 4)
    assert np.all(np.isfinite(apply_resolvent(model, pair, -0.7 + 0.9j, packet, grid).values))
