"""Seeded input generator for the four benchmark workloads.

Every model, points and state file the benchmark feeds to spinpoint is
made here from one integer seed; the same seed writes byte-identical
files. The seed moves what the physics does not care about (a rigid
translation or rotation of a bound-state geometry) or what changes the
values but not the amount of work (kernel points, z, packet jitter), so
the work per run is the same for every seed.

Model files use the format `spinpoint.cli.load_model` accepts: a
top-level "preset" block, or explicit "A" and "B" matrices.

    python3 perfbench/inputs.py --seed 0 --out perfbench/canonical

regenerates the committed canonical set (seed 0).
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

MODEL_SCHEMA = "spinpoint-model v1"
STATE_SCHEMA = "spinpoint-state v1"

# evolve runs the default quadrature on an eighth of the default node
# count: the same per-node work, a pass short enough to repeat in a run
EVOLVE_NODES = 256


def _model(dimension, positions, alpha, preset=None, params=None, A=None, B=None):
    doc = {
        "schema": MODEL_SCHEMA,
        "dimension": dimension,
        "n": len(positions),
        "positions": positions,
        "alpha": alpha,
    }
    if preset is not None:
        doc["preset"] = {"name": preset, "parameters": params or {}}
    else:
        doc["A"] = [[[float(v.real), float(v.imag)] for v in row] for row in A]
        doc["B"] = [[[float(v.real), float(v.imag)] for v in row] for row in B]
    return doc


def _state(channel, center, momentum, variance, lo, hi, n):
    return {
        "schema": STATE_SCHEMA,
        "components": [{"channel": channel, "center": center, "momentum": momentum,
                        "variance": variance, "weight": [1.0, 0.0]}],
        "grid": {"lo": lo, "hi": hi, "n": n},
    }


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _r(x, digits=6):
    return round(float(x), digits)


def _sites_3d(rng, n, box=2.0, min_sep=0.9):
    sites = []
    while len(sites) < n:
        p = rng.uniform(-box, box, size=3)
        if all(np.linalg.norm(p - q) >= min_sep for q in sites):
            sites.append(p)
    return [[_r(c) for c in p] for p in sites]


def _sites_1d(rng, n):
    steps = rng.uniform(1.0, 1.6, size=n)
    return [_r(x) for x in np.cumsum(steps) - steps.sum() / 2.0]


def _away(rng, sites, d, min_dist=0.1):
    """A point within 2 of the sites' hull, at least min_dist from each site."""
    pos = np.asarray(sites, dtype=float).reshape(len(sites), -1)
    lo, hi = pos.min(axis=0) - 2.0, pos.max(axis=0) + 2.0
    while True:
        x = rng.uniform(lo, hi)
        if np.min(np.linalg.norm(pos - x[None, :], axis=1)) >= min_dist:
            return [_r(c) for c in x] if d == 3 else _r(x[0])


def _kernel_rows(rng, sites, d, n_spins, n_rows, flips):
    """Rows within coupled channels: sigma' = sigma, or one spin flipped."""
    rows = []
    for i in range(n_rows):
        x = _away(rng, sites, d)
        xp = _away(rng, sites, d)
        code = int(rng.integers(2 ** n_spins))
        codep = code ^ (1 << int(rng.integers(n_spins))) if (flips and i % 2) else code
        xs = [x] if d == 1 else x
        xps = [xp] if d == 1 else xp
        rows.append([*xs, code, *xps, codep])
    return rows


def _haar_pair(rng, m):
    """A = i(I + U), B = I - U with U Haar unitary: an admissible dense pair."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    return 1j * (np.eye(m) + u), np.eye(m) - u


def kernel_table(rng):
    z = [_r(rng.uniform(-1.5, -0.3)), _r(rng.uniform(0.6, 1.4))]
    files, cases = {}, []

    def add(name, d, sites, alpha, preset, params, n_rows, flips):
        n = len(sites)
        files[f"{name}.model.json"] = _model(d, sites, alpha, preset, params)
        files[f"{name}.points.csv"] = _kernel_rows(rng, sites, d, n, n_rows, flips)
        cases.append({"name": name, "model": f"{name}.model.json",
                      "points": f"{name}.points.csv", "rows": n_rows})

    # N = 6: one 768-dimensional spin-diagonal pair (2^N blocks), one
    # 384-dimensional spin-diagonal pair and one connected spin-flip pair
    sites1 = _sites_1d(rng, 6)
    alpha1 = [_r(a) for a in rng.uniform(0.1, 0.6, size=6)]
    add("d1-delta-N6", 1, sites1, alpha1, "delta", {"beta": _r(rng.uniform(-2.5, -1.5))}, 2, False)
    sites3 = _sites_3d(rng, 6)
    add("d3-delta-N6", 3, sites3, [0.0] * 6, "delta", {"beta": -1.0}, 4, False)
    add("d3-offdiag-N6", 3, sites3, [0.0] * 6, "offdiag",
        {"betahat": _r(rng.uniform(0.5, 1.0))}, 4, True)
    for n in range(1, 6):
        alpha = [_r(a) for a in rng.uniform(0.1, 0.6, size=n)]
        add(f"d1-delta-N{n}", 1, _sites_1d(rng, n), alpha, "delta", {"beta": -2.0}, 2, False)
        add(f"d3-offdiag-N{n}", 3, _sites_3d(rng, n), [0.0] * n, "offdiag",
            {"betahat": 0.8}, 2, True)
    return {"z": z, "cases": cases}, files


def boundstates_oracle(rng):
    files, cases = {}, []
    for r in (0.5, 0.7, 1.0, 1.5):
        u, o = _unit(rng), rng.uniform(-1.0, 1.0, size=3)
        name = f"d3-pair-r{r}"
        files[f"{name}.model.json"] = _model(
            3, [[_r(c) for c in o], [_r(c) for c in o + r * u]], [0.0, 0.0], "delta", {"beta": -1.0})
        cases.append({"name": name, "model": f"{name}.model.json", "kind": "pair",
                      "dimension": 3, "r": r, "beta": -1.0})
    for r in (0.5, 1.0, 2.0):
        o = _r(rng.uniform(-1.0, 1.0), 3)
        name = f"d1-pair-r{r}"
        files[f"{name}.model.json"] = _model(1, [o, o + r], [0.0, 0.0], "delta", {"beta": -2.0})
        cases.append({"name": name, "model": f"{name}.model.json", "kind": "pair",
                      "dimension": 1, "r": r, "beta": -2.0})
    u, o = _unit(rng), rng.uniform(-1.0, 1.0, size=3)
    alpha = [0.1 * 2 ** j for j in range(4)]
    files["d3-chain-N4.model.json"] = _model(
        3, [[_r(c) for c in o + 3.0 * j * u] for j in range(4)], alpha, "delta", {"beta": -1.0})
    cases.append({"name": "d3-chain-N4", "model": "d3-chain-N4.model.json", "kind": "chain",
                  "dimension": 3, "alpha": alpha, "beta": -1.0})
    o = _r(rng.uniform(-1.0, 1.0), 3)
    alpha = [0.1 * 2 ** j for j in range(3)]
    files["d1-chain-N3.model.json"] = _model(
        1, [o + 20.0 * j for j in range(3)], alpha, "delta", {"beta": -4.0})
    cases.append({"name": "d1-chain-N3", "model": "d1-chain-N3.model.json", "kind": "chain",
                  "dimension": 1, "alpha": alpha, "beta": -4.0})
    return {"cases": cases}, files


def evolve_1d(rng):
    files, cases = {}, []

    def add(name, model, state, times):
        files[f"{name}.model.json"] = model
        files[f"{name}.state.json"] = state
        cases.append({"name": name, "model": f"{name}.model.json", "state": f"{name}.state.json",
                      "t": times, "n_nodes": EVOLVE_NODES, "free": model["preset"]["name"] == "free"})

    def times():
        return sorted(_r(t, 4) for t in rng.uniform(0.3, 1.0, size=2))

    add("free-N1", _model(1, [0.0], [0.0], "free"),
        _state(0, [_r(rng.uniform(-0.5, 0.5))], [_r(rng.uniform(2.8, 3.2))], 2.0, -10.0, 16.0, 200),
        times())
    add("offdiag-N1", _model(1, [0.0], [0.0], "offdiag", {"betahat": 0.8}),
        _state(0, [_r(rng.uniform(-4.2, -3.8))], [_r(rng.uniform(2.4, 2.6))], 1.0, -14.0, 12.0, 220),
        times())
    add("offdiag-zeeman-N2", _model(1, [0.0, 1.5], [_r(rng.uniform(0.25, 0.35)), _r(rng.uniform(0.55, 0.65))],
                                    "offdiag", {"betahat": 0.8}),
        _state(0, [_r(rng.uniform(-4.2, -3.8))], [_r(rng.uniform(2.4, 2.6))], 1.0, -14.0, 12.0, 220),
        times())
    return {"cases": cases}, files


def resolvent_apply(rng):
    files, cases = {}, []
    z = [_r(rng.uniform(-1.0, -0.4)), _r(rng.uniform(0.7, 1.1))]

    # Gaussian input onto a five-point stencil (1D) or a 3^3 cube (3D)
    # around a point off the sites: the output must solve
    # (-Laplacian + alpha.sigma - z) u = psi there
    h1, x1 = 0.05, _r(rng.uniform(-2.5, -2.1))
    files["gauss-d1.model.json"] = _model(1, [0.0, 1.1], [0.3, 0.6], "offdiag", {"betahat": 0.8})
    files["gauss-d1.state.json"] = _state(1, [_r(rng.uniform(-1.6, -1.4))], [_r(rng.uniform(0.9, 1.1))],
                                          0.5, x1 - 2 * h1, x1 + 2 * h1, 5)
    cases.append({"name": "gauss-d1", "kind": "gaussian", "model": "gauss-d1.model.json",
                  "state": "gauss-d1.state.json", "z": z})
    h3, x3 = 0.02, _r(rng.uniform(-0.9, -0.7))
    files["gauss-d3.model.json"] = _model(3, [[0.3, 0.0, 0.0]], [0.4], "offdiag", {"betahat": 0.8})
    files["gauss-d3.state.json"] = _state(
        1, [_r(rng.uniform(-1.1, -0.9)), 0.2, 0.1], [_r(rng.uniform(0.45, 0.55)), 0.0, 0.0],
        0.5, x3 - h3, x3 + h3, 3)
    cases.append({"name": "gauss-d3", "kind": "gaussian", "model": "gauss-d3.model.json",
                  "state": "gauss-d3.state.json", "z": z})
    # grid input: the dense 3D free application on 14^3 points
    files["grid-d3.state.json"] = _state(
        1, [_r(rng.uniform(-1.1, -0.9)), 0.2, 0.1], [_r(rng.uniform(0.45, 0.55)), 0.0, 0.0],
        1.0, -4.0, 4.0, 14)
    cases.append({"name": "grid-d3", "kind": "grid", "model": "gauss-d3.model.json",
                  "state": "grid-d3.state.json", "z": z, "probes": 4})
    # kernel columns of dense admissible pairs (criterion 7 set-up)
    for d, sites in ((1, [0.0, 1.1]), (3, [[0.0, 0.0, 0.0], [1.0, 0.3, -0.2]])):
        A, B = _haar_pair(rng, 2 * 2 * 4 if d == 1 else 2 * 4)
        name = f"kcol-d{d}"
        files[f"{name}.model.json"] = _model(d, sites, [0.3, 0.6], A=A, B=B)
        src = _r(rng.normal() * 1.5) if d == 1 else [_r(c) for c in rng.normal(size=3) * 1.2]
        cases.append({"name": name, "kind": "kernel-column", "model": f"{name}.model.json",
                      "z": [_r(rng.uniform(-2.0, 0.0)), _r(rng.uniform(0.5, 2.0))],
                      "source": src, "code": int(rng.integers(4))})
    return {"cases": cases}, files


WORKLOADS = {
    "kernel-table": kernel_table,
    "boundstates-oracle": boundstates_oracle,
    "evolve-1d": evolve_1d,
    "resolvent-apply": resolvent_apply,
}


def _write(path, content):
    with open(path, "w", newline="\n") as fh:
        if path.endswith(".csv"):
            d3 = len(content[0]) == 8
            fh.write("x1,x2,x3,sigma,xp1,xp2,xp3,sigmap\n" if d3 else "x,sigma,xp,sigmap\n")
            for row in content:
                fh.write(",".join(repr(v) for v in row) + "\n")
        else:
            fh.write(json.dumps(content, indent=1, sort_keys=True) + "\n")


def generate(seed: int, out_dir: str) -> dict:
    """Write every input file for `seed` under out_dir; return the manifest."""
    manifest = {"seed": seed, "workloads": {}}
    for i, (name, build) in enumerate(WORKLOADS.items()):
        # one stream per workload, so adding a case to one workload
        # leaves the others' inputs unchanged
        rng = np.random.default_rng([seed, i])
        spec, files = build(rng)
        sub = os.path.join(out_dir, name)
        os.makedirs(sub, exist_ok=True)
        for fname, content in files.items():
            _write(os.path.join(sub, fname), content)
        manifest["workloads"][name] = spec
    with open(os.path.join(out_dir, "manifest.json"), "w", newline="\n") as fh:
        fh.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.seed, args.out)


if __name__ == "__main__":
    main()
