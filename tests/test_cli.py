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


def test_kernel_table_is_one_pass(tmp_path, monkeypatch):
    """One rows call and one _defect_factors call (both sides of every row) for the whole table, and no full rotation."""
    from spinpoint import cli, krein

    path = write_model(tmp_path, name="offdiag", dimension=3, positions="0,0,0;1.1,0.3,0", betahat="0.8")
    model, pair, _ = cli.load_model(str(path))
    assert pair.frame(model).sites == (1, 2)  # zero field: both sites rotate
    calls = []
    for owner, name in ((krein._Dressing, "rows"), (krein, "_defect_factors"), (krein.SpinFrame, "rotate")):
        inner = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _inner=inner, _name=name, **k: calls.append(_name) or _inner(*a, **k))
    out = tmp_path / "kernel.csv"
    assert run("kernel", str(path), "--z", "-1.0,0.5", "--n-points", "25", "--out", str(out)) == 0
    assert calls == ["rows", "_defect_factors"]
    assert len(read_table(out)[2]) == 25


@pytest.mark.parametrize("d, positions, flags", [
    (1, "0,1.3", {"name": "offdiag", "betahat": "0.8"}),  # zero field: both sites rotate
    (1, "0,1.3", {"name": "delta", "beta": "-1.0", "alpha": "0.3,0.2"}),
    (3, "0,0,0;1.1,0.3,0", {"name": "offdiag", "betahat": "0.8"}),
])
def test_preset_commands_build_no_entry_list(tmp_path, monkeypatch, d, positions, flags):
    """kernel, boundstates and evolve on a preset read its site table only; its A and B, read later, are the dense input's."""
    import functools

    from spinpoint.boundary import BoundaryPair

    path = write_model(tmp_path, dimension=d, positions=positions, **flags)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "schema": "spinpoint-state v1",
        "components": [{"channel": 0, "center": [-2.0] * d, "momentum": [1.0] * d}],
        "grid": {"lo": -12.0, "hi": 12.0, "n": 200} if d == 1 else {"lo": -6.0, "hi": 6.0, "n": 6},
    }))
    built = []
    inner = BoundaryPair.__dict__["_dense"].func
    counted = functools.cached_property(lambda pair: built.append(1) or inner(pair))
    counted.__set_name__(BoundaryPair, "_dense")
    monkeypatch.setattr(BoundaryPair, "_dense", counted)
    commands = {
        "kernel": ["--z", "-1.0,0.5", "--n-points", "5", "--out", str(tmp_path / "k.csv")],
        "boundstates": ["--out", str(tmp_path / "levels.csv")],
        # a coarse run: its norm drift is not under test here
        "evolve": ["--state", str(state), "--t", "0.1", "--n-nodes", "64", "--tol", "1", "--out", str(tmp_path / "run")],
    }
    for name, argv in commands.items():
        assert run(name, str(path), *argv) == 0, name
    assert not built
    model, pair, _ = cli.load_model(str(path))
    dense = BoundaryPair(d, model.n_spins, pair.A, pair.B)
    assert built == [1]  # pair.A scattered the site table once; dense input holds its own
    assert pair.A.tobytes() == dense.A.tobytes() and pair.B.tobytes() == dense.B.tobytes() and pair == dense
    assert built == [1]


def _cut_points(table, n, d):
    """The first n rows of a kernel CSV as a points file: the coordinate and code columns, repr floats as written."""
    body = [line for line in table.read_text().splitlines() if not line.startswith("#")]
    return "\n".join(",".join(line.split(",")[:2 * d + 2]) for line in body[:n + 1]) + "\n"


@pytest.mark.parametrize("d, positions, flags", [
    (1, "0,1.3,2.6", {"name": "offdiag", "betahat": "0.8"}),
    (3, "0,0,0;1.1,0.3,0;2.2,0,0", {"name": "offdiag", "betahat": "0.8", "alpha": "0.3,0.3,0.3"}),
])
def test_kernel_rows_do_not_depend_on_their_neighbours(tmp_path, d, positions, flags):
    """The first rows of a table, fed back as a points file, give the same value columns byte for byte."""
    path = write_model(tmp_path, dimension=d, positions=positions, **flags)
    table, again = tmp_path / "table.csv", tmp_path / "again.csv"
    assert run("kernel", str(path), "--z", "0.5,1.0", "--n-points", "60", "--seed", "7", "--out", str(table)) == 0
    points = tmp_path / "points.csv"
    points.write_text(_cut_points(table, 5, d))
    assert run("kernel", str(path), "--z", "0.5,1.0", "--points", str(points), "--out", str(again)) == 0
    assert read_table(again)[2] == read_table(table)[2][:5]


@pytest.mark.parametrize("d, rows, message", [
    (1, "0.3,0,0.5,1\n-0.4,1,1.3,1\n0.2,1,0.7,0\n", "source point coincides with a spin site"),
    (1, "0.3,0,0.5,1\n1.3,1,0.4,1\n0.2,1,0.7,0\n", "evaluation point coincides with a spin site"),
    (3, "0.3,0,0,0,0.5,0,0,1\n0.2,0.1,0,1,0.2,0.1,0,1\n0.2,0,0.1,1,0.7,0,0,0\n",
     "d=3 Green function is singular at zero displacement"),
])
def test_one_bad_row_rejects_the_whole_table(tmp_path, capsys, d, rows, message):
    positions = "0,1.3" if d == 1 else "0,0,0;1.3,0,0"
    path = write_model(tmp_path, dimension=d, positions=positions, beta="-1.0")
    points = tmp_path / "points.csv"
    points.write_text(rows)
    out = tmp_path / "kernel.csv"
    assert run("kernel", str(path), "--z", "-1.0,0.5", "--points", str(points), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


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


def _state_file(tmp_path, **component):
    state = tmp_path / "state.json"
    entry = dict({"channel": 0, "center": [-2.0], "momentum": [0.5], "variance": 1.0}, **component)
    state.write_text(json.dumps({"schema": "spinpoint-state v1", "components": [entry],
                                 "grid": {"lo": -6.0, "hi": 6.0, "n": 32}}))
    return state


def test_non_finite_preset_strength_is_input_error(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert run("preset", "delta", "--dimension", "1", "--positions", "0", "--beta", "NaN", "--out", str(out)) == 1
    assert capsys.readouterr().err == "input error: A and B must be finite\n"
    assert not out.exists()


def test_large_non_hermitian_dense_pair_is_invalid(tmp_path, capsys):
    # once "valid: true": A B* - B A* overflowed to NaN, which the running maximum dropped
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"schema": "spinpoint-model v1", "dimension": 3, "positions": [[0.0, 0.0, 0.0]],
                                "alpha": [0.0], "A": [[1e200, 0.0], [0.0, 1e200]],
                                "B": [[1e200, 1e200], [0.0, 2e200]]}))
    assert run("validate", str(path)) == 2
    assert "valid: false" in capsys.readouterr().out


def test_non_finite_dense_entry_is_input_error(tmp_path, capsys):
    # once reported as "hermiticity defect 0.000e+00 (tol inf)": max(0.0, nan) keeps 0.0
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"schema": "spinpoint-model v1", "dimension": 3, "positions": [[0.0, 0.0, 0.0]],
                                "alpha": [0.0], "A": [[-1.0, 0.0], [0.0, -1.0]],
                                "B": [[1.0, 0.0], [0.0, float("inf")]]}))
    assert "Infinity" in path.read_text()
    assert run("validate", str(path)) == 1
    assert capsys.readouterr().err.endswith("A and B must be finite\n")


@pytest.mark.parametrize("command, flag, value", [
    ("gamma", "--z", "nan,0"),  # once wrote NaN rows
    ("kernel", "--z", "nan,1"),  # once "SVD did not converge"
    ("boundstates", "--emin", "nan"),  # likewise
    ("validate", "--tol", "nan"),  # once exit 2
    ("evolve", "--t", "nan"),  # once "variance must have positive real part"
    ("evolve", "--tol", "inf"),
])
def test_non_finite_numeric_flags_are_input_errors(tmp_path, capsys, command, flag, value):
    path = write_model(tmp_path, beta="-1.0")
    argv = [command, str(path), f"{flag}={value}", "--out", str(tmp_path / "out")]
    if command == "evolve":
        argv += ["--state", str(_state_file(tmp_path)), "--n-nodes", "64"]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {flag}: ") and err.endswith(" is not finite\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [("center", [float("nan")]), ("momentum", [float("inf")]),
                                          ("variance", [1.0, float("nan")]), ("weight", float("nan"))])
def test_non_finite_state_fields_are_input_errors(tmp_path, capsys, field, value):
    # a NaN center once evolved to exit 0 with norm = nan
    path = write_model(tmp_path, beta="-1.0")
    state = _state_file(tmp_path, **{field: value})
    assert run("evolve", str(path), "--state", str(state), "--n-nodes", "64", "--out", str(tmp_path / "run")) == 1
    assert capsys.readouterr().err.endswith("center, momentum, variance and weight must be finite\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("channel", [-1, 2])
def test_state_channel_out_of_range_is_input_error(tmp_path, capsys, channel):
    # channel -1 once put the packet in the last channel and exited 0
    path = write_model(tmp_path, beta="-1.0")
    state = _state_file(tmp_path, channel=channel)
    assert run("evolve", str(path), "--state", str(state), "--n-nodes", "64", "--out", str(tmp_path / "run")) == 1
    assert capsys.readouterr().err.endswith(f"channel {channel} out of range 0..1\n")


@pytest.mark.parametrize("fields", [
    {"dimension": 3.7, "n": 2},  # once validated as d=3
    {"dimension": 3, "n": 2.9},  # once matched 2 sites
    {"dimension": True, "n": 2},  # once ran as d=1
    {"dimension": "3", "n": 2},
])
def test_model_integer_fields_must_be_json_integers(tmp_path, capsys, fields):
    path = write_model(tmp_path, dimension=3, positions="0,0,0;1.5,0,0", beta="-1.0")
    doc = dict(json.loads(path.read_text()), **fields)
    path.write_text(json.dumps(doc))
    assert run("validate", str(path), "--out", str(tmp_path / "report.txt")) == 1
    name, value = next((k, v) for k, v in fields.items() if type(v) is not int)
    assert capsys.readouterr().err.endswith(f"{name} must be an integer, got {json.dumps(value)}\n")
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("component, grid_n", [({"channel": 1.7}, 100), ({"channel": True}, 100),
                                               ({}, 100.9)])
def test_state_integer_fields_must_be_json_integers(tmp_path, capsys, component, grid_n):
    # channel 1.7 and grid n 100.9 once evolved channel 1 on 100 points, exit 0
    path = write_model(tmp_path, beta="-1.0")
    state = _state_file(tmp_path, **component)
    doc = json.loads(state.read_text())
    doc["grid"]["n"] = grid_n
    state.write_text(json.dumps(doc))
    assert run("evolve", str(path), "--state", str(state), "--n-nodes", "64", "--out", str(tmp_path / "run")) == 1
    assert re.search(r"(channel|grid n) must be an integer, got (1\.7|true|100\.9)\n$", capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("rows, message", [
    ("nan,0,0.5,0\n", "is not finite"),  # once skipped
    ("0.3,0,inf,0\n", "is not finite"),  # once written as nan,nan,ok with exit 0
    ("0.3,1.5,0.5,0\n", "must be integers"),  # once ran as spin code 1
    ("0.3,0,0.5,2\n", "spin codes 0 and 2 must lie in 0..1"),  # once a ValueError of the row's evaluation
    ("0.3,0,0.5,0\nx,sigma,xp,sigmap\n", "cannot parse"),  # a header after a row, once skipped
    ("x,sigma,xp,sigmap\nx,sigma,xp,sigmap\n0.3,0,0.5,0\n", "cannot parse"),  # two headers
    ("0.3,0,,0\n", "cannot parse"),
    ("0.3,0,0.5\n", "columns"),
    ("# comment only\n\n", "no rows"),
])
def test_points_file_rows_are_read_whole(tmp_path, capsys, rows, message):
    path = write_model(tmp_path, beta="-1.0")
    points = tmp_path / "points.csv"
    points.write_text(rows)
    out = tmp_path / "kernel.csv"
    assert run("kernel", str(path), "--z", "-1.0,0.5", "--points", str(points), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {points}") and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "MODEL", "--z", "-1.0,,0.5"],  # once read as -1.0 + 0.5i
    ["evolve", "MODEL", "--state", "STATE", "--t", "0.1,,0.2", "--n-nodes", "64"],
    ["preset", "delta", "--dimension", "1", "--positions", "0,,1.5", "--beta", "-1"],
    ["preset", "delta", "--dimension", "3", "--positions", "0,0,,1;1,1,1", "--beta", "-1"],
])
def test_comma_lists_have_no_empty_items(tmp_path, capsys, argv):
    path = write_model(tmp_path, beta="-1.0")
    paths = {"MODEL": str(path), "STATE": str(_state_file(tmp_path))}
    assert run(*[paths.get(tok, tok) for tok in argv], "--out", str(tmp_path / "out")) == 1
    assert "cannot parse" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_points_file_header_comments_and_blank_lines(tmp_path):
    # a header is the line before the first row whose first cell is not a number;
    # a quoted header once failed to parse, as its first character is no letter
    path = write_model(tmp_path, beta="-1.0")
    points = tmp_path / "points.csv"
    points.write_text("0.3,0,0.5,1\n-0.5,1,1.0,1\n")
    assert run("kernel", str(path), "--z", "-1.0,0.5", "--points", str(points), "--out", str(tmp_path / "a.csv")) == 0
    points.write_text('# rows\n\n"x","sigma","xp","sigmap"\n  \n0.3,0,0.5,1\n# between\n-0.5, 1,1.0,1\n\n')
    assert run("kernel", str(path), "--z", "-1.0,0.5", "--points", str(points), "--out", str(tmp_path / "b.csv")) == 0
    assert read_table(tmp_path / "a.csv")[1:] == read_table(tmp_path / "b.csv")[1:]
    assert len(read_table(tmp_path / "b.csv")[2]) == 2


@pytest.mark.parametrize("command", ["validate", "boundstates", "evolve"])
@pytest.mark.parametrize("value", ["-1e-3", "0"])
def test_tol_must_be_positive(tmp_path, monkeypatch, capsys, command, value):
    # validate --tol -1e-3 once called a valid pair invalid (exit 2), boundstates ran with
    # a negative bracket width (exit 0), and evolve could only fail its drift guard (exit 3)
    path = write_model(tmp_path, name="offdiag", positions="0,1.3", betahat="0.8")
    monkeypatch.setattr(cli, "load_model", lambda *a: pytest.fail("work began"))
    argv = [command, str(path), "--tol", value, "--out", str(tmp_path / "out")]
    if command == "evolve":
        argv += ["--state", str(_state_file(tmp_path)), "--n-nodes", "64"]
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"input error: --tol: {float(value)!r} is not positive\n"
    assert not (tmp_path / "out").exists()


_WORK = {"kernel": "_dress", "boundstates": "find_bound_states", "gamma": "gamma_free",
         "evolve": "evolve_spectral", "validate": "load_model", "preset": "_build_preset"}


@pytest.mark.parametrize("command", list(_WORK))
@pytest.mark.parametrize("where", ["missing parent", "kind"])
def test_out_that_cannot_be_written_is_refused_before_any_work(tmp_path, monkeypatch, capsys, command, where):
    # a missing parent once computed every kernel row, then ended in a FileNotFoundError traceback
    path = write_model(tmp_path, beta="-1.0")
    argv = {"kernel": [str(path), "--z", "0.5,1", "--n-points", "2"], "boundstates": [str(path)],
            "gamma": [str(path), "--z", "-2,0"], "validate": [str(path)],
            "evolve": [str(path), "--state", str(_state_file(tmp_path)), "--n-nodes", "64"],
            "preset": ["delta", "--dimension", "1", "--positions", "0", "--beta", "-1"]}[command]
    if where == "kind":  # a directory where a file is written, a file where evolve makes a directory
        out = tmp_path / "taken"
        out.mkdir() if command != "evolve" else out.write_text("")
    else:
        out = tmp_path / "missing" / "out"
    monkeypatch.setattr(cli, _WORK[command], lambda *a, **k: pytest.fail("worked before refusing --out"))
    assert run(command, *argv, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("input error: --out: ")
    assert not (tmp_path / "missing").exists()
    assert out.exists() == (where == "kind")


@pytest.mark.parametrize("field, value", [("lo", "-12"), ("hi", True), ("variance", True), ("weight", True),
                                          ("weight", [1.0, "0"]), ("center", ["-2"]), ("momentum", [None])])
def test_state_number_fields_must_be_json_numbers(tmp_path, capsys, field, value):
    # "lo": "-12", "variance": true and "weight": true once loaded as -12.0, 1.0 and 1.0 and evolved
    path = write_model(tmp_path, beta="-1.0")
    state = _state_file(tmp_path)
    doc = json.loads(state.read_text())
    (doc["grid"] if field in ("lo", "hi") else doc["components"][0])[field] = value
    state.write_text(json.dumps(doc))
    assert run("evolve", str(path), "--state", str(state), "--n-nodes", "64", "--out", str(tmp_path / "run")) == 1
    bad = "|".join(map(re.escape, ['"-12"', "true", '"0"', '"-2"', "null"]))
    assert re.search(rf"{field} must be a number, got ({bad})\n$", capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("lo, hi", [(6.0, -6.0), (2.0, 2.0)])
def test_state_grid_must_increase(tmp_path, capsys, lo, hi):
    # lo > hi once evolved on a descending grid to "norm drift nan exceeds tolerance" (exit 3)
    path = write_model(tmp_path, beta="-1.0")
    state = _state_file(tmp_path)
    doc = json.loads(state.read_text())
    doc["grid"].update(lo=lo, hi=hi)
    state.write_text(json.dumps(doc))
    assert run("evolve", str(path), "--state", str(state), "--n-nodes", "64", "--out", str(tmp_path / "run")) == 1
    assert capsys.readouterr().err.endswith("each axis must strictly increase\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("dimension, positions, n", [(1, "0.0,1.5", 40), (3, "0,0,0;1.5,0,0", 6)], ids=["d1", "d3"])
def test_evolve_snapshots_match_per_row_repr(tmp_path, dimension, positions, n):
    """Each snapshot row is repr of the point's coordinates, the code, and repr of re and im, code-major."""
    from spinpoint.dynamics import evolve_spectral

    path = write_model(tmp_path, "offdiag", dimension, positions, alpha="0.3,0.55", betahat="0.8")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "schema": "spinpoint-state v1",
        "components": [{"channel": 1, "center": [-1.0] * dimension, "momentum": [1.0] * dimension}],
        "grid": {"lo": -4.0, "hi": 4.0, "n": n},
    }))
    outdir = tmp_path / "run"
    assert run("evolve", str(path), "--state", str(state), "--t", "0.2,0.5", "--n-nodes", "32", "--tol", "1",
               "--out", str(outdir)) == 0
    model, pair, _ = cli.load_model(str(path))
    packet, grid = cli.load_packet(str(state), model)
    res = evolve_spectral(model, pair, packet, [0.2, 0.5], grid, n_nodes=32, drift_tol=1.0)
    points = grid.points.reshape(grid.n_points, -1)
    assert model.n_configs == 4
    for i, snapshot in enumerate(res.states):
        want = [",".join([*map(repr, map(float, points[k])), str(code), repr(float(v.real)), repr(float(v.imag))])
                for code in range(model.n_configs) for k, v in enumerate(snapshot.values[code])]
        lines = (outdir / f"state_{i:03d}.csv").read_text().split("\n")
        body = [ln for ln in lines if ln and not ln.startswith("#")]
        assert body[1:] == want


@pytest.mark.parametrize("field, value", [("A", [[True, 0.0], [0.0, -1.0]]), ("B", [[1.0, [0.0, False]], [0.0, 1.0]]),
                                          ("positions", [[0.0, "0", 0.0]]), ("alpha", [True])])
def test_model_number_fields_must_be_json_numbers(tmp_path, capsys, field, value):
    # a true entry of A once read as 1.0
    path = tmp_path / "model.json"
    doc = {"schema": "spinpoint-model v1", "dimension": 3, "positions": [[0.0, 0.0, 0.0]], "alpha": [0.0],
           "A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}
    path.write_text(json.dumps(dict(doc, **{field: value})))
    assert run("boundstates", str(path), "--out", str(tmp_path / "levels.csv")) == 1
    assert re.search(rf"{field} must be a number, got (true|false|\"0\")\n$", capsys.readouterr().err)
    assert not (tmp_path / "levels.csv").exists()


@pytest.mark.parametrize("value, message", [([[1.0, 0.0, 0.0]] * 3, "A must be 2 x 2 in flat-index order, got (3, 3)"),
                                            ([[1.0, 0.0], [0.0]], "inhomogeneous shape"),
                                            ([[[1, 2, 3], 0.0], [0.0, -1.0]], "A must be a number, got [1, 2, 3]")],
                         ids=["3x3", "ragged", "triple"])
def test_dense_matrix_shapes_are_input_errors(tmp_path, capsys, value, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema": "spinpoint-model v1", "dimension": 3, "positions": [[0.0, 0.0, 0.0]],
                                "alpha": [0.0], "A": value, "B": [[1.0, 0.0], [0.0, 1.0]]}))
    assert run("validate", str(path)) == 1
    assert message in capsys.readouterr().err


def test_dense_matrix_cells_mix_numbers_and_pairs(tmp_path):
    doc = {"schema": "spinpoint-model v1", "dimension": 3, "positions": [[0.0, 0.0, 0.0]], "alpha": [0.0]}
    paths = [tmp_path / "pairs.json", tmp_path / "mixed.json"]
    paths[0].write_text(json.dumps(dict(doc, A=[[[-1.0, 0.0], [0.0, 0.5]], [[0.0, -0.5], [-1.0, 0.0]]],
                                        B=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])))
    paths[1].write_text(json.dumps(dict(doc, A=[[-1, [0.0, 0.5]], [[0, -0.5], -1.0]], B=[[1.0, 0], [0.0, [1, 0]]])))
    pairs = [cli.load_model(str(p))[1] for p in paths]
    assert np.array_equal(pairs[0].A, pairs[1].A) and np.array_equal(pairs[0].B, pairs[1].B)
    assert pairs[1].A[0, 1] == 0.5j and pairs[1].A.dtype == complex


def test_preset_strength_must_be_a_json_number(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert run("preset", "delta", "--dimension", "1", "--positions", "0", "--beta", '"-1"', "--out", str(out)) == 1
    assert capsys.readouterr().err == 'input error: beta must be a number, got "-1"\n'
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e6])
def test_hermiticity_verdict_does_not_depend_on_the_pair_scale(tmp_path, capsys, scale):
    # at scale 1e-6 the defect 1e-12 once fell under an absolute tolerance 1e-10: "valid: true"
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"schema": "spinpoint-model v1", "dimension": 3, "positions": [[0.0, 0.0, 0.0]],
                                "alpha": [0.0], "A": [[scale, 0.0], [0.0, scale]],
                                "B": [[scale, scale], [0.0, 2 * scale]]}))
    assert run("validate", str(path)) == 2
    assert "valid: false" in capsys.readouterr().out
    assert str(cli.load_model(str(path))[1].validation()).startswith(
        f"INVALID: hermiticity defect {scale * scale:.3e} (tol {1e-10 * 2 * scale * scale:.3e})")


@pytest.mark.parametrize("dimension, flags, field, value", [
    # each once "expected one argument" and exit 1; the "=" form worked
    (1, ["--positions", "-1.3,0", "--beta", "-1"], "positions", [-1.3, 0.0]),
    (1, ["--positions", "0,1.3", "--alpha", "-0.3,0.3", "--beta", "-1"], "alpha", [-0.3, 0.3]),
    (1, ["--positions", "0", "--beta", "-1e-1"], "preset", {"name": "delta", "parameters": {"beta": -0.1}}),
    (3, ["--positions", "-1,0,0;1,0,0", "--beta", "-1"], "positions", [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
])
def test_negative_values_follow_flags_as_separate_tokens(tmp_path, dimension, flags, field, value):
    out = tmp_path / "model.json"
    assert run("preset", "delta", "--dimension", str(dimension), *flags, "--out", str(out)) == 0
    assert json.loads(out.read_text())[field] == value


def test_negative_search_floor_follows_its_flag(tmp_path):
    path = write_model(tmp_path, name="offdiag", positions="-1.3,0", alpha="-0.3,0.3", betahat="0.8")
    assert run("boundstates", str(path), "--emin", "-1e3", "--out", str(tmp_path / "a.csv")) == 0
    assert run("boundstates", str(path), "--emin=-1e3", "--out", str(tmp_path / "b.csv")) == 0
    assert read_table(tmp_path / "a.csv")[1:] == read_table(tmp_path / "b.csv")[1:]
    assert read_table(tmp_path / "a.csv")[2]
    for argv in (["--emin"], ["--emin", "--unchecked"]):  # a flag without its value
        with pytest.raises(SystemExit) as err:
            run("boundstates", str(path), *argv)
        assert err.value.code == 1, argv


@pytest.mark.parametrize("command, flag", [("kernel", "--n-points"), ("evolve", "--n-nodes")])
@pytest.mark.parametrize("value", ["-3", "0"])
def test_counts_must_be_positive(tmp_path, monkeypatch, capsys, command, flag, value):
    # kernel --n-points -3 once wrote an empty table and exit 0; evolve --n-nodes -5
    # and 0 once ran at 8 nodes per panel into the drift guard (exit 3)
    path = write_model(tmp_path, beta="-1.0")
    monkeypatch.setattr(cli, "load_model", lambda *a: pytest.fail("work began"))
    argv = [command, str(path), flag, value, "--out", str(tmp_path / "out")]
    argv += ["--z", "0.5,1.0"] if command == "kernel" else ["--state", str(_state_file(tmp_path))]
    with pytest.raises(SystemExit) as err:
        run(*argv)
    assert err.value.code == 1
    assert f"argument {flag}: '{value}' is not a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def _package_modules():
    import pkgutil

    import spinpoint

    return sorted(info.name for info in pkgutil.iter_modules(spinpoint.__path__))


@pytest.mark.parametrize("name", _package_modules())
def test_every_public_name_resolves(name):
    """Each module's __all__ names what it binds, once each, so a star import works."""
    import importlib

    module = importlib.import_module(f"spinpoint.{name}")
    public = module.__all__
    assert len(public) == len(set(public))
    assert [n for n in public if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from spinpoint.{name} import *", namespace)
    assert set(public) <= set(namespace)


def test_package_reexports_public_names_of_their_modules():
    """Every name the package re-exports is the object of the same name in its module's __all__."""
    import importlib
    import types

    import spinpoint

    reexports = {k: v for k, v in vars(spinpoint).items()
                 if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert "ModelSpec" in reexports and "find_bound_states" in reexports
    for attr, obj in reexports.items():
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("spinpoint.") and attr in home.__all__, attr
        assert getattr(home, attr) is obj
