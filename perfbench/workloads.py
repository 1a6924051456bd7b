"""The four workloads: how each case runs, and how its output is judged.

A workload is a list of cases. `run(case)` drives a public entry point
(`spinpoint.cli.main` for kernel, boundstates and evolve; the `krein`
API for resolvent application) and returns the case's raw output;
`check(case, output)` turns that output into one outcome per operation:
(label, kind, error), kind one of KINDS. Checking happens outside the
timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import oracles

KINDS = ("ok", "wrong", "missing", "spurious", "near-pole", "exception", "timeout")

EXIT_NUMERIC = 3


def _cli(argv) -> int:
    """Exit code of spinpoint.cli.main, its stdout and stderr silenced."""
    from spinpoint import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _take(path) -> bytes:
    """Contents of an output file, removed so the next pass starts clean."""
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        raw = fh.read()
    os.remove(path)
    return raw


def _csv_rows(raw: bytes):
    lines = raw.decode().splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    header = body[0].split(",")
    return header, [ln.split(",") for ln in body[1:]]


class Workload:
    name = ""
    # labels whose error is the workload's err_max; None takes every label
    err_labels = None

    def __init__(self, spec, in_dir, out_dir):
        self.spec = spec
        self.in_dir = in_dir
        self.out_dir = out_dir
        self.cases = spec["cases"]

    def path(self, fname):
        return os.path.join(self.in_dir, fname)

    def model_files(self):
        return sorted({c["model"] for c in self.cases})

    def n_ops(self, case) -> int:
        raise NotImplementedError

    def distinct_z(self) -> int:
        """Spectral parameters the inputs ask for, per model."""
        return 0

    def oracle_states(self) -> int:
        return 0

    def quadrature_nodes(self) -> int:
        return 0

    def failed_ops(self, case, kind):
        return [("all", kind, None)] * self.n_ops(case)


class KernelTable(Workload):
    name = "kernel-table"

    def n_ops(self, case):
        return case["rows"]

    def distinct_z(self):
        return len(self.cases)

    def _z(self):
        re, im = self.spec["z"]
        return f"{re!r},{im!r}"

    def run(self, case):
        out = os.path.join(self.out_dir, f"{case['name']}.csv")
        code = _cli(["kernel", self.path(case["model"]), "--z", self._z(),
                          "--points", self.path(case["points"]), "--out", out])
        return {"exit": code, "csv": _take(out)}

    def check(self, case, output):
        from spinpoint import cli
        from spinpoint.krein import resolvent_kernel

        if output["exit"] not in (0, EXIT_NUMERIC) or not output["csv"]:
            return self.failed_ops(case, "exception")
        model, pair, _ = cli.load_model(self.path(case["model"]))
        d = model.dimension
        with open(self.path(case["model"])) as fh:
            doc = json.load(fh)
        z = complex(*self.spec["z"])
        ref = oracles.KernelReference(d, doc["positions"], doc["alpha"], pair.A, pair.B, z)
        _, rows = _csv_rows(output["csv"])
        result = []
        for vals in rows:
            x = float(vals[0]) if d == 1 else np.array([float(v) for v in vals[:3]])
            code = int(vals[d])
            xp = float(vals[d + 1]) if d == 1 else np.array([float(v) for v in vals[d + 1:2 * d + 1]])
            codep = int(vals[2 * d + 1])
            label = f"{code}->{codep}"
            if vals[-1] != "ok":
                result.append((label, "near-pole", None))
                continue
            k = complex(float(vals[-3]), float(vals[-2]))
            k_ref = ref.value(x, code, xp, codep)
            # the kernel command has validated this pair already
            k_conj = resolvent_kernel(model, pair, np.conj(z), xp, codep, x, code, unchecked=True)
            # rows stay in coupled channels, so K_ref is nonzero; relative,
            # not floored at 1, because kernels far from the sites are small
            dev_ref = abs(k - k_ref) / abs(k_ref)
            dev_sym = abs(np.conj(k) - k_conj) / max(1.0, abs(k))
            ok = dev_ref <= oracles.KERNEL_RTOL and dev_sym <= oracles.SYMMETRY_RTOL
            result.append((label, "ok" if ok else "wrong", max(dev_ref, dev_sym)))
        result.extend([("row", "missing", None)] * (case["rows"] - len(rows)))
        return result


class BoundstatesOracle(Workload):
    name = "boundstates-oracle"

    def _levels(self, case):
        with open(self.path(case["model"])) as fh:
            doc = json.load(fh)
        if case["kind"] == "pair":
            return oracles.pair_levels(case["dimension"], doc["positions"], case["beta"])
        return oracles.chain_levels(case["dimension"], len(doc["positions"]), doc["alpha"],
                                    case["beta"])

    def n_ops(self, case):
        return sum(lv["multiplicity"] for lv in self._levels(case))

    def oracle_states(self):
        return sum(self.n_ops(c) for c in self.cases)

    def run(self, case):
        out = os.path.join(self.out_dir, f"{case['name']}.csv")
        code = _cli(["boundstates", self.path(case["model"]), "--out", out])
        return {"exit": code, "csv": _take(out)}

    def check(self, case, output):
        levels = self._levels(case)
        if output["exit"] != 0 or not output["csv"]:
            return [(lv["label"], "exception", None) for lv in levels
                    for _ in range(lv["multiplicity"])]
        header, rows = _csv_rows(output["csv"])
        ie, im = header.index("energy"), header.index("multiplicity")
        reported = [(float(r[ie]), int(r[im])) for r in rows]
        return oracles.match_levels(reported, levels)


class Evolve1D(Workload):
    name = "evolve-1d"

    def n_ops(self, case):
        return len(case["t"])

    def quadrature_nodes(self):
        return sum(c["n_nodes"] for c in self.cases)

    def distinct_z(self):
        # lam + i eps and lam - i eps at every quadrature node
        return 2 * self.quadrature_nodes()

    def run(self, case):
        out = os.path.join(self.out_dir, case["name"])
        code = _cli(["evolve", self.path(case["model"]), "--state", self.path(case["state"]),
                          "--t", ",".join(repr(t) for t in case["t"]),
                          "--n-nodes", str(case["n_nodes"]), "--out", out])
        files = {}
        if os.path.isdir(out):
            for fname in sorted(os.listdir(out)):
                files[fname] = _take(os.path.join(out, fname))
        return {"exit": code, "files": files}

    def check(self, case, output):
        n = len(case["t"])
        if output["exit"] == EXIT_NUMERIC:
            return [("snapshot", "near-pole", None)] * n
        if output["exit"] != 0:
            return self.failed_ops(case, "exception")
        with open(self.path(case["state"])) as fh:
            state = json.load(fh)
        comp = state["components"][0]
        g = state["grid"]
        x = np.linspace(g["lo"], g["hi"], g["n"])
        args = (comp["center"][0], comp["momentum"][0], comp["variance"])
        norm0 = oracles.trapezoid_norm(oracles.gaussian(*args, x)[None, :], x)
        result = []
        for i, t in enumerate(case["t"]):
            raw = output["files"].get(f"state_{i:03d}.csv")
            if raw is None:
                result.append(("snapshot", "missing", None))
                continue
            _, rows = _csv_rows(raw)
            n_ch = max(int(r[1]) for r in rows) + 1
            values = np.zeros((n_ch, x.size), dtype=complex)
            for k, r in enumerate(rows):
                values[int(r[1]), k % x.size] = complex(float(r[2]), float(r[3]))
            err = abs(oracles.trapezoid_norm(values, x) - norm0) / norm0
            if case["free"]:
                exact = oracles.gaussian(*args, x, t=t)
                err = max(err, float(np.max(np.abs(values[comp["channel"]] - exact)))
                          / float(np.max(np.abs(exact))))
            result.append(("snapshot", "ok" if err <= oracles.EVOLVE_RTOL else "wrong", err))
        return result


class ResolventApply(Workload):
    name = "resolvent-apply"
    err_labels = {"boundary"}

    def n_ops(self, case):
        # an application and a boundary-condition check for Gaussian
        # input; one application for grid input; one check per column
        return {"gaussian": 2, "grid": 1, "kernel-column": 1}[case["kind"]]

    def distinct_z(self):
        return len({(c["model"], tuple(c["z"])) for c in self.cases})

    def run(self, case):
        from spinpoint import cli
        from spinpoint.krein import (apply_resolvent, boundary_data_from_evaluator,
                                     kernel_evaluator, resolvent_state_evaluator)

        model, pair, _ = cli.load_model(self.path(case["model"]))
        z = complex(*case["z"])
        if case["kind"] == "kernel-column":
            src = case["source"] if model.dimension == 1 else np.asarray(case["source"])
            evaluate = kernel_evaluator(model, pair, z, src, case["code"])
            q, f = boundary_data_from_evaluator(model, evaluate, avoid=[src])
            return {"q": q, "f": f}
        packet, grid = cli.load_packet(self.path(case["state"]), model)
        if case["kind"] == "grid":
            out = apply_resolvent(model, pair, z, packet.sample(grid))
            return {"values": out.values}
        out = apply_resolvent(model, pair, z, packet, grid)
        evaluate = resolvent_state_evaluator(model, pair, z, packet)
        q, f = boundary_data_from_evaluator(model, evaluate)
        return {"values": out.values, "q": q, "f": f}

    def check(self, case, output):
        from spinpoint import cli

        _, pair, _ = cli.load_model(self.path(case["model"]))
        result = []
        if "q" in output:
            r = oracles.boundary_residual(pair.A, pair.B, output["q"], output["f"])
            result.append(("boundary", "ok" if r <= oracles.BOUNDARY_ATOL else "wrong", r))
        if case["kind"] == "kernel-column":
            return result
        with open(self.path(case["model"])) as fh:
            doc = json.load(fh)
        with open(self.path(case["state"])) as fh:
            state = json.load(fh)
        comp = state["components"][0]
        g = state["grid"]
        axis = np.linspace(g["lo"], g["hi"], g["n"])
        h = axis[1] - axis[0]
        z = complex(*case["z"])
        shift = oracles.shifts(doc["alpha"])
        u = output["values"]
        center = np.atleast_1d(comp["center"])
        k = np.atleast_1d(comp["momentum"])
        weight = complex(*comp["weight"])
        if case["kind"] == "grid":
            # the output at the nodes where psi is smallest (far corners)
            # against the trapezoid Krein sum over the whole grid; the
            # oracle leaves out the singular node, whose cell integral of
            # 1/(4 pi r) is about 0.19 h^2 psi there, so allow h^2/4 |psi|
            mesh = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
            dx = mesh - center
            psi = np.zeros(u.shape, dtype=complex)
            psi[comp["channel"]] = weight * np.exp(-np.sum(dx * dx, axis=1) / (4 * comp["variance"])
                                                   + 1j * (dx @ k))
            ref = oracles.KernelReference(3, doc["positions"], doc["alpha"], pair.A, pair.B, z)
            picks = np.argsort(np.abs(psi[comp["channel"]]))[:case["probes"]]
            scale = float(np.max(np.abs(u)))
            devs = [(abs(u[c, i] - oracles.grid_resolvent_3d(ref, mesh, psi, i, c)),
                     oracles.GRID_RTOL * scale + h * h / 4.0 * abs(psi[c, i]))
                    for i in picks for c in range(u.shape[0])]
            ok = all(dev <= tol for dev, tol in devs)
            result.append(("grid", "ok" if ok else "wrong", max(dev for dev, _ in devs) / scale))
            return result
        if doc["dimension"] == 1:
            x0 = axis[2]
            psi = np.zeros(u.shape[0], dtype=complex)
            psi[comp["channel"]] = weight * np.exp(-(x0 - center[0]) ** 2 / (4 * comp["variance"])
                                                   + 1j * k[0] * (x0 - center[0]))
            dev = oracles.pde_residual_1d(u, axis, psi, shift, z)
        else:
            x0 = np.full(3, axis[1])
            dx = x0 - center
            psi = np.zeros(u.shape[0], dtype=complex)
            psi[comp["channel"]] = weight * np.exp(-dx @ dx / (4 * comp["variance"]) + 1j * (k @ dx))
            dev = oracles.pde_residual_3d(u, h, psi, shift, z)
        tol = oracles.PDE_RTOL[doc["dimension"]]
        result.insert(0, ("apply", "ok" if dev <= tol else "wrong", dev))
        return result


WORKLOADS = {w.name: w for w in (KernelTable, BoundstatesOracle, Evolve1D, ResolventApply)}
