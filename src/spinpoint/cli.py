"""Batch front end: model files in, machine-readable tables out.

Inputs are JSON ("spinpoint-model v1"); numerical outputs are CSV with
'.' decimal point, ',' separator, LF line endings, and '#' metadata
lines (command echo, input digest, tolerances, validation verdict)
ahead of the header row. Floats are written with repr, so identical
invocations produce byte-identical files.

Exit codes: 0 success, 1 input error, 2 validation failure,
3 numerical failure (near-pole kernel or evolve node, norm drift).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from .boundary import (BoundaryPair, ValidationError, preset_delta, preset_delta_prime,
                       preset_free, preset_offdiag, require_valid)
from .dynamics import evolve_spectral
from .krein import NearPoleError, _dress, gamma_dressed, gamma_free
from .spectral import essential_spectrum_bottom, find_bound_states
from .spins import ModelSpec
from .states import GaussianComponent, GaussianPacket, UniformGrid

__all__ = ["main"]

MODEL_SCHEMA = "spinpoint-model v1"
STATE_SCHEMA = "spinpoint-state v1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # validation failures, so remap usage errors to the input code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _numbers(text: str, name: str) -> list[float]:
    """The comma-separated numbers of a flag's value or of a file's cells, every one finite."""
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"{name}: cannot parse {text!r}")
    if not all(map(math.isfinite, values)):
        raise InputError(f"{name}: {text!r} is not finite")
    return values


def _parse_z(text: str) -> complex:
    parts = _numbers(text, "--z")
    if len(parts) != 2:
        raise InputError('--z expects "re,im"')
    return complex(*parts)


_NUMBER = (int, float)  # the types json gives numbers, exactly: true is a bool, an int subclass


def _complex_entry(value, name: str) -> complex:
    """A JSON number or [re, im] pair of numbers."""
    re, im = value if isinstance(value, list) and len(value) == 2 else (value, 0.0)
    if type(re) not in _NUMBER or type(im) not in _NUMBER:
        raise InputError(f"{name} must be a number, got {json.dumps(im if type(re) in _NUMBER else re)}")
    return complex(re, im)


def _matrix(entries, m: int, name: str) -> np.ndarray:
    arr = np.asarray([[_complex_entry(e, name) for e in row] for row in entries], dtype=complex)
    if arr.shape != (m, m):
        raise InputError(f"{name} must be {m} x {m} in flat-index order, got {arr.shape}")
    return arr


# name -> (pair builder from the file's parameters, required parameter);
# `spinpoint preset` takes the required parameter as the flag of that name
PRESETS = {
    "free": (lambda model, params: preset_free(model), None),
    "delta": (lambda model, params: preset_delta(
        model, params["beta"], paper_literal=bool(params.get("paper_literal", False))), "beta"),
    "delta-prime": (lambda model, params: preset_delta_prime(model, params["gamma"]), "gamma"),
    "offdiag": (lambda model, params: preset_offdiag(model, params["betahat"]), "betahat"),
}


def _build_preset(model: ModelSpec, name: str, params: dict) -> BoundaryPair:
    if name not in PRESETS:
        raise InputError(f"unknown preset {name!r}")
    key = PRESETS[name][1]
    if key in params:
        params = {**params, key: _number(params[key], key)}
    return PRESETS[name][0](model, params)


def _read(path: str, schema: str):
    """The decoded JSON document of a file tagged with schema, and its raw bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise InputError(f'{path}: expected "schema": "{schema}"')
    return doc, raw


def _integer(value, name: str) -> int:
    """A JSON integer field; true, 2.5 and "2" are not integers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def _number(value, name: str):
    """A JSON number as a float, or nested lists of them as lists; true, "2" and null are not numbers."""
    if isinstance(value, list):
        return [_number(v, name) for v in value]
    if type(value) not in _NUMBER:
        raise InputError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def load_model(path: str):
    """Parse a model file into (ModelSpec, BoundaryPair, digest)."""
    doc, raw = _read(path, MODEL_SCHEMA)
    try:
        model = ModelSpec(_integer(doc["dimension"], f"{path}: dimension"),
                          _number(doc["positions"], f"{path}: positions"), _number(doc["alpha"], f"{path}: alpha"))
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}")
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")
    if "n" in doc and _integer(doc["n"], f"{path}: n") != model.n_spins:
        raise InputError(f"{path}: n={doc['n']} does not match {model.n_spins} positions")
    try:
        if "preset" in doc:
            spec = doc["preset"]
            pair = _build_preset(model, spec.get("name", ""), spec.get("parameters", {}))
        elif "A" in doc and "B" in doc:
            m = model.defect_dim
            pair = BoundaryPair(model.dimension, model.n_spins,
                                _matrix(doc["A"], m, f"{path}: A"), _matrix(doc["B"], m, f"{path}: B"))
        else:
            raise InputError(f"{path}: needs either a preset block or explicit A and B")
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: bad boundary block ({exc})")
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")
    return model, pair, _digest(raw)


def load_packet(path: str, model: ModelSpec):
    """Parse a state file into (GaussianPacket, UniformGrid)."""
    doc, _ = _read(path, STATE_SCHEMA)
    comps: dict[int, list] = {}
    try:
        for entry in doc["components"]:
            code = _integer(entry["channel"], f"{path}: channel")
            comps.setdefault(code, []).append(GaussianComponent(
                _number(entry["center"], f"{path}: center"), _number(entry["momentum"], f"{path}: momentum"),
                _complex_entry(entry.get("variance", 1.0), f"{path}: variance"),
                _complex_entry(entry.get("weight", 1.0), f"{path}: weight")))
        g = doc["grid"]
        axis = np.linspace(_number(g["lo"], f"{path}: grid lo"), _number(g["hi"], f"{path}: grid hi"),
                           _integer(g["n"], f"{path}: grid n"))
        return GaussianPacket(model.dimension, model.n_configs, comps), UniformGrid(*[axis] * model.dimension)
    except (KeyError, TypeError, IndexError) as exc:
        raise InputError(f"{path}: bad state file ({exc})")
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _check_out(out: str, directory: bool):
    """Refuse an --out that cannot be written, before any work.

    Its parent must be an existing directory that can be written; out
    itself, if it exists, must be a writable file, or a directory when
    the command writes a directory (evolve).
    """
    parent = os.path.dirname(os.path.abspath(out))
    if not out or not os.path.isdir(parent) or not os.access(parent, os.W_OK | os.X_OK):
        raise InputError(f"--out: {parent} is not a writable directory")
    if os.path.exists(out) and (os.path.isdir(out) != directory or not os.access(out, os.W_OK)):
        raise InputError(f"--out: {out} exists and is not a writable {'directory' if directory else 'file'}")


def _emit(text: str, out: str | None):
    """Write text to the file out, with LF line endings, or to stdout."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


class ResultWriter:
    """CSV sink with the metadata preamble; text goes through unchanged."""

    def __init__(self, command: str, digest: str, tolerances: str, validation: str):
        self.lines = [
            "# spinpoint-result v1",
            f"# command: {command}",
            f"# input-digest: sha256:{digest}",
            f"# tolerances: {tolerances}",
            f"# validation: {validation}",
        ]

    def comment(self, text: str):
        self.lines.append(f"# {text}")

    def header(self, *names: str):
        self.lines.append(",".join(names))

    def columns(self, *cols):
        """One row per entry of the columns: a list of str as given, a 1-D float array as _fmt prints it."""
        cells = [c if isinstance(c, list) else map(repr, c.astype(float, copy=False).tolist()) for c in cols]
        self.lines.extend(map(",".join, zip(*cells)))

    def dump(self, out: str | None):
        _emit("\n".join(self.lines) + "\n", out)


def _echo(args) -> str:
    return " ".join(args.argv)


def _load_gated(args):
    """Model, pair, digest and validation note; the pair is gated unless --unchecked."""
    model, pair, digest = load_model(args.model)
    require_valid(model, pair, args.unchecked)
    note = "skipped (unchecked)" if args.unchecked else str(pair.validation())
    return model, pair, digest, note


def cmd_validate(args) -> int:
    model, pair, _ = load_model(args.model)
    report = pair.validation(tol=args.tol)
    out = [
        f"model: dimension {model.dimension}, {model.n_spins} site(s)",
        f"hermiticity defect: {_fmt(report.hermiticity_defect)}",
        f"rank: {report.rank}/{pair.defect_dim}",
        f"local: {'true' if report.is_local else 'false'}",
        f"valid: {'true' if report.is_valid else 'false'}",
    ]
    text = "\n".join(out) + "\n"
    if args.out:
        _emit(text, args.out)
    sys.stdout.write(text)
    return EXIT_OK if report.is_valid else EXIT_INVALID


def _kernel_points(args, model: ModelSpec):
    """Kernel rows (x, sigma, x', sigma'): those of the points file, or n_points random ones."""
    d = model.dimension
    if args.points is not None:
        try:
            with open(args.points) as fh:
                lines = [(i, line.strip().split(",")) for i, line in enumerate(fh, 1)]
        except OSError as exc:
            raise InputError(f"cannot read {args.points}: {exc}")
        lines = [(i, cells) for i, cells in lines if cells != [""] and not cells[0].startswith("#")]
        if lines:
            try:
                float(lines[0][1][0])
            except ValueError:
                del lines[0]  # the header: its first cell is not a number
        rows = []
        for i, cells in lines:
            where = f"{args.points}: line {i}"
            if len(cells) != 2 * d + 2:
                raise InputError(f"{where}: points file rows need {2 * d + 2} columns for d={d}")
            coords = _numbers(",".join(cells[:d] + cells[d + 1:-1]), where)
            try:
                sigma, sigmap = int(cells[d]), int(cells[-1])
            except ValueError:
                raise InputError(f"{where}: spin codes {cells[d]!r} and {cells[-1]!r} must be integers")
            x, xp = (coords[0], coords[1]) if d == 1 else (np.array(coords[:d]), np.array(coords[d:]))
            rows.append((x, sigma, xp, sigmap))
        if not rows:
            raise InputError(f"{args.points}: no rows")
        return rows
    rng = np.random.default_rng(args.seed)
    pos = np.atleast_2d(np.asarray(model.positions, dtype=float).reshape(model.n_spins, -1))
    center = pos.mean(axis=0)
    span = 2.0 + float(np.max(np.abs(pos - center)))
    rows = []
    for _ in range(args.n_points):
        x = center + rng.uniform(-span, span, size=d)
        xp = center + rng.uniform(-span, span, size=d)
        if d == 1:
            x, xp = float(x[0]), float(xp[0])
        sigma = int(rng.integers(model.n_configs))
        sigmap = int(rng.integers(model.n_configs))
        rows.append((x, sigma, xp, sigmap))
    return rows


def cmd_kernel(args) -> int:
    model, pair, digest, note = _load_gated(args)
    z = _parse_z(args.z)
    points = _kernel_points(args, model)
    writer = ResultWriter(_echo(args), digest, "none", note)
    writer.comment(f"z: {_fmt(z.real)},{_fmt(z.imag)}")
    d = model.dimension
    axes = [""] if d == 1 else ["1", "2", "3"]
    writer.header(*[f"x{a}" for a in axes], "sigma", *[f"xp{a}" for a in axes], "sigmap", "re", "im", "flag")
    # one dressing serves every row; near a pole every row is flagged
    try:
        dress = _dress(model, pair, z, args.unchecked)
    except NearPoleError:
        dress = None
    n = len(points)
    values = np.array([complex(np.nan, np.nan) if dress is None else dress.column(xp, sigmap)(x, sigma)
                       for x, sigma, xp, sigmap in points], dtype=complex)
    writer.columns(*np.reshape([r[0] for r in points], (n, d)).T, [str(r[1]) for r in points],
                   *np.reshape([r[2] for r in points], (n, d)).T, [str(r[3]) for r in points],
                   values.real, values.imag, ["near-pole" if dress is None else "ok"] * n)
    writer.dump(args.out)
    return EXIT_NUMERIC if dress is None else EXIT_OK


def cmd_boundstates(args) -> int:
    model, pair, digest, note = _load_gated(args)
    tol = 1e-13 if args.tol is None else args.tol  # relative bracket width
    states = find_bound_states(model, pair, e_min=args.emin, tol=tol,
                               unchecked=args.unchecked)
    writer = ResultWriter(_echo(args), digest, f"tol={_fmt(tol)}", note)
    writer.comment(f"continuum-threshold: {_fmt(essential_spectrum_bottom(model))}")
    charge_cols = [f"charge_{i}_{part}" for i in range(pair.defect_dim)
                   for part in ("re", "im")]
    writer.header("energy", "sigma_min", "multiplicity", *charge_cols)
    charges = np.array([bs.charges for bs in states], dtype=complex).reshape(len(states), pair.defect_dim)
    writer.columns(np.array([bs.energy for bs in states]), np.array([bs.smallest_singular_value for bs in states]),
                   [str(bs.multiplicity) for bs in states], *charges.view(float).T)
    writer.dump(args.out)
    return EXIT_OK


def cmd_gamma(args) -> int:
    model, pair, digest, note = _load_gated(args)
    z = _parse_z(args.z)
    gam = gamma_free(model, z if z.imag != 0.0 else complex(z.real))
    dressed = gamma_dressed(pair, gam)
    writer = ResultWriter(_echo(args), digest, "none", note)
    writer.comment(f"z: {_fmt(z.real)},{_fmt(z.imag)}")
    writer.header("row", "col", "gamma_re", "gamma_im", "dressed_re", "dressed_im")
    index = np.arange(pair.defect_dim).astype(str)
    writer.columns(np.repeat(index, index.size).tolist(), np.tile(index, index.size).tolist(),
                   gam.real.ravel(), gam.imag.ravel(), dressed.real.ravel(), dressed.imag.ravel())
    writer.dump(args.out)
    return EXIT_OK


def cmd_evolve(args) -> int:
    model, pair, digest, note = _load_gated(args)
    packet, grid = load_packet(args.state, model)
    times = _numbers(args.t, "--t")
    drift_tol = 1e-2 if args.tol is None else args.tol
    try:
        res = evolve_spectral(model, pair, packet, times, grid, n_nodes=args.n_nodes,
                              drift_tol=drift_tol, unchecked=args.unchecked)
    except (RuntimeError, NearPoleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    os.makedirs(args.out, exist_ok=True)
    tolstr = f"drift_tol={_fmt(drift_tol)};n_nodes={res.params['n_nodes']}"

    summary = ResultWriter(_echo(args), digest, tolstr, note)
    summary.comment("bound-energies: " +
                    (";".join(_fmt(e) for e in res.bound_energies) or "none"))
    summary.comment(f"error-estimate: {_fmt(res.error_estimate)}")
    weight_cols = [f"weight_{c}" for c in range(model.n_configs)]
    summary.header("time", "norm", *weight_cols)
    summary.columns(res.times, res.norms, *np.array([st.channel_weights() for st in res.states]).T)
    summary.dump(os.path.join(args.out, "summary.csv"))

    names = ["x"] if model.dimension == 1 else ["x1", "x2", "x3"]
    coords = np.concatenate([grid.points] * model.n_configs).reshape(model.n_configs * grid.n_points, -1).T
    codes = np.repeat(np.arange(model.n_configs).astype(str), grid.n_points).tolist()
    for i, t in enumerate(res.times):
        snap = ResultWriter(_echo(args), digest, tolstr, note)
        snap.comment(f"time: {_fmt(float(t))}")
        snap.header(*names, "sigma_code", "re", "im")
        values = res.states[i].values.ravel()
        snap.columns(*coords, codes, values.real, values.imag)  # code-major, as values.ravel()
        snap.dump(os.path.join(args.out, f"state_{i:03d}.csv"))
    return EXIT_OK


def cmd_preset(args) -> int:
    if args.dimension == 1:
        positions = _numbers(args.positions, "--positions")
    else:
        positions = [_numbers(chunk, "--positions") for chunk in args.positions.split(";") if chunk.strip()]
        if any(len(triple) != 3 for triple in positions):
            raise InputError("d=3 positions are semicolon-separated x,y,z triples")
    n = len(positions)
    if n == 0:
        raise InputError("need at least one position")
    alpha = _numbers(args.alpha, "--alpha") if args.alpha else [0.0] * n
    params: dict = {}
    key = PRESETS[args.name][1]
    if key is not None:
        if getattr(args, key) is None:
            raise InputError(f"preset {args.name} needs --{key}")
        params[key] = json.loads(getattr(args, key))
    if args.paper_literal:
        if args.name != "delta":
            raise InputError(f"--paper-literal applies only to the delta preset, not {args.name}")
        params["paper_literal"] = True
    doc = {
        "schema": MODEL_SCHEMA,
        "dimension": args.dimension,
        "n": n,
        "positions": positions,
        "alpha": alpha,
        "preset": {"name": args.name, "parameters": params},
    }
    _build_preset(ModelSpec(args.dimension, positions, alpha), args.name, params)  # rejects bad parameters
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def positive_int(text: str) -> int:
    """The value of a count flag; argparse names this function when the value is no integer."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _add_model(sub, tol_help=None, gated=True, out_dir=False):
    """The model argument and --out (a required directory under out_dir);
    --unchecked on gated commands; --tol where it is read."""
    sub.add_argument("model", help="model JSON file")
    if out_dir:
        sub.add_argument("--out", required=True, metavar="DIR",
                         help="output directory for summary.csv and state_NNN.csv")
    else:
        sub.add_argument("--out", default=None, help="output path (default: stdout)")
    if gated:
        sub.add_argument("--unchecked", action="store_true",
                         help="skip boundary-pair validation")
    if tol_help is not None:
        sub.add_argument("--tol", type=float, default=None, help=tol_help)


@functools.cache  # parse_args leaves the parser as it was: main reuses it
def build_parser() -> _Parser:
    parser = _Parser(prog="spinpoint",
                     description="point-interaction spin-coupling toolbox",
                     epilog="SPINPOINT_MAX_N overrides the spin-count cap")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", help="check a boundary pair")
    _add_model(sub, "validation tolerance", gated=False)
    sub.set_defaults(func=cmd_validate)

    sub = subs.add_parser("kernel", help="tabulate resolvent kernel values")
    _add_model(sub)
    sub.add_argument("--z", required=True, metavar="RE,IM")
    sub.add_argument("--points", default=None, help="CSV of evaluation rows")
    sub.add_argument("--n-points", type=positive_int, default=12,
                     help="random rows when --points is absent")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=cmd_kernel)

    sub = subs.add_parser("boundstates", help="search point spectrum below the continuum")
    _add_model(sub, "relative bracket width (default 1e-13)")
    sub.add_argument("--emin", type=float, default=None, help="search floor (default: certified)")
    sub.set_defaults(func=cmd_boundstates)

    sub = subs.add_parser("gamma", help="dump the channel matrix and its dressing")
    _add_model(sub)
    sub.add_argument("--z", required=True, metavar="RE,IM")
    sub.set_defaults(func=cmd_gamma)

    sub = subs.add_parser("evolve", help="spectral time evolution on a grid")
    _add_model(sub, "relative norm-drift tolerance (default 1e-2)", out_dir=True)
    sub.add_argument("--state", required=True, help="state JSON file")
    sub.add_argument("--t", default="1.0", help="comma-separated times")
    sub.add_argument("--n-nodes", type=positive_int, default=None)
    sub.set_defaults(func=cmd_evolve)

    sub = subs.add_parser("preset", help="write a model file for a named pair")
    sub.add_argument("name", choices=list(PRESETS))
    sub.add_argument("--dimension", type=int, choices=[1, 3], required=True)
    sub.add_argument("--positions", required=True,
                     help="d=1: comma list; d=3: semicolon-separated triples")
    sub.add_argument("--alpha", default=None, help="comma list, default zeros")
    sub.add_argument("--beta", default=None, help="delta strengths (JSON scalar or table)")
    sub.add_argument("--gamma", default=None, help="delta-prime strengths")
    sub.add_argument("--betahat", default=None, help="offdiag strengths")
    sub.add_argument("--paper-literal", action="store_true", help="delta: doubled-coupling reading")
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_preset)
    return parser


@functools.cache  # main passes the one cached parser
def _value_flags(parser: _Parser) -> frozenset:
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return frozenset(s for sub in commands.values() for a in sub._actions if a.nargs != 0 for s in a.option_strings)


def _merge_value_flags(parser: _Parser, argv: list[str]) -> list[str]:
    # "--beta -1e-1" trips argparse's negative-number heuristic: fold the token after
    # each flag that takes a value into it ("--beta=-1e-1"), unless it is a flag itself
    flags = _value_flags(parser)
    merged = []
    for tok in argv:
        if merged and merged[-1] in flags and not tok.startswith("--"):
            merged[-1] += f"={tok}"
        else:
            merged.append(tok)
    return merged


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_merge_value_flags(parser, argv))
    args.argv = argv
    try:
        for name, value in vars(args).items():  # the float flags, --emin and --tol
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"--{name}: {value!r} is not finite")
        if getattr(args, "tol", None) is not None and args.tol <= 0.0:
            raise InputError(f"--tol: {args.tol!r} is not positive")
        if getattr(args, "out", None) is not None:
            _check_out(args.out, directory=args.command == "evolve")
        code = args.func(args)
    except ValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
