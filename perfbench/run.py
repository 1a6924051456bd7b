"""spinpoint benchmark: four oracle-checked workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload kernel-table --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from src/.
One run generates its inputs from the seed, sets up, then repeats the
workload's fixed set of operations (one pass) in a closed loop in this
process until --seconds have passed, and judges the outputs of the
passes against independent oracles (perfbench/oracles.py).

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
interpreters that import spinpoint, parse the inputs and validate the
pairs), wall_s (a typical pass: each case's median time, summed, at the
reference speed of perfbench/calib.py) and peak_rss_mb. --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
taken from wrappers installed around the calls into each module
(perfbench/tracer.py). Both print failed_frac and
err_max on the lines before the last. The last line of stdout is the
JSON result.

Operations that fail, for a documented defect of the program, at the
commit this benchmark was written against are listed in
perfbench/known_defects.json. They count in failed_frac and ops.* but
not in the result's "failed", which counts only new failures; "correct"
is true when there are none.
"""

from __future__ import annotations

import os

# one BLAS thread: steadier, and faster at these sizes (the d=1 N=6
# validation SVD took 0.57 s on one thread and 1.29 s on two on a
# 2-core box); must be set before numpy loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calib  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 9
CASE_CAP_S = 60.0  # a case running longer fails as "timeout"
RUN_CAP_S = 150.0  # no case starts, and none runs on, past this


class CaseTimeout(BaseException):
    """Raised by SIGALRM inside a case; BaseException so no handler in the program eats it."""


def _alarm(signum, frame):
    raise CaseTimeout()


def _median(values):
    return statistics.median(values) if values else 0.0


def _digest(output) -> str:
    h = hashlib.sha256()
    for key in sorted(output):
        val = output[key]
        if isinstance(val, dict):
            for name in sorted(val):
                h.update(name.encode())
                h.update(val[name])
        elif hasattr(val, "tobytes"):
            h.update(val.tobytes())
        elif isinstance(val, bytes):
            h.update(val)
        else:
            h.update(repr(val).encode())
    return h.hexdigest()


def run_pass(wl, hard_deadline, sampler=None):
    """Every case of the workload once: {case: (status, output)},
    {case: seconds} and, with a calib.Sampler, {case: seconds at the
    reference speed}."""
    results, times, scaled = {}, {}, {}
    for case in wl.cases:
        name = case["name"]
        t0 = time.perf_counter()
        remaining = hard_deadline - t0
        if remaining <= 0.0:
            results[name] = ("timeout", None)
            continue
        if sampler:
            sampler.start()
        try:
            signal.setitimer(signal.ITIMER_REAL, min(CASE_CAP_S, remaining))
            results[name] = ("done", wl.run(case))
        except CaseTimeout:
            results[name] = ("timeout", None)
        except Exception as exc:  # any failure of the program is an outcome
            results[name] = ("exception", repr(exc))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            if sampler:
                times[name], scaled[name] = sampler.stop()
            else:
                times[name] = time.perf_counter() - t0
    return results, times, scaled


def typical_pass(times):
    """Sum over cases of each case's median time over the passes.

    Per-case medians drop a slow outlier of one case without needing a
    whole slow pass to be outvoted, which matters with the few passes a
    run of long cases allows."""
    names = {name for t in times for name in t}
    return sum(_median([t[name] for t in times if name in t]) for name in names)


def judge(wl, passes, ledger):
    """Outcomes over all passes: the first is checked by the oracles, the
    rest must reproduce its outputs byte for byte."""
    first = passes[0]
    checked, digests = {}, {}
    for case in wl.cases:
        status, output = first[case["name"]]
        if status == "done":
            try:
                checked[case["name"]] = wl.check(case, output)
            except Exception as exc:  # an unreadable output is a wrong one
                print(f"check {case['name']}: {exc!r}", file=sys.stderr)
                checked[case["name"]] = wl.failed_ops(case, "wrong")
            digests[case["name"]] = _digest(output)
        else:
            checked[case["name"]] = wl.failed_ops(case, status)
    # per pass, a known defect excuses at most its recorded count of
    # failures of its (case, label, kind); any more, or another kind, is new
    known = {(d["case"], d["label"], d["kind"]): d["count"] for d in ledger.get(wl.name, [])}
    outcomes = []  # (case, label, kind, err)
    unexpected = []
    for results in passes:
        failures = collections.Counter()
        for case in wl.cases:
            name = case["name"]
            status, output = results[name]
            if status != "done":
                ops = wl.failed_ops(case, status)
            elif name in digests and _digest(output) != digests[name]:
                ops = wl.failed_ops(case, "wrong")
            else:
                ops = checked[name]
            outcomes.extend((name, label, kind, err) for label, kind, err in ops)
            failures.update((name, label, kind) for label, kind, _ in ops if kind != "ok")
        for key, n in failures.items():
            unexpected.extend([key] * max(0, n - known.get(key, 0)))
    failed = [o for o in outcomes if o[2] != "ok"]
    errs = [o[3] for o in outcomes if o[2] == "ok" and o[3] is not None
            and (wl.err_labels is None or o[1] in wl.err_labels)]
    kinds = {k: sum(1 for o in outcomes if o[2] == k) // len(passes) for k in workloads.KINDS}
    return {
        "attempted": len(outcomes),
        "failed_all": len(failed),
        "failed": len(unexpected),
        "unexpected": sorted(collections.Counter(unexpected).items()),
        "failed_frac": len(failed) / max(1, len(outcomes)),
        "err_max": max(errs) if errs else 0.0,
        "kinds": kinds,
    }


def setup_times(workload, in_dir):
    """Seconds from spawning a fresh interpreter until it has the inputs ready."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe, SRC, in_dir, workload],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], CASE_CAP_S)
            line = proc.stdout.readline().strip() if ready else ""
            elapsed = time.perf_counter() - t0
            if not line:
                proc.kill()
            proc.stdout.close()
            code = proc.wait(timeout=CASE_CAP_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


def environment(args):
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"), "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def layer_metrics(wl, tracers, plain, traced):
    first = tracers[0]

    def self_s(name):
        return _median([t.self_s.get(name, 0.0) for t in tracers])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("boundary.validate", "krein.gamma_free", "krein.invert_dressed",
                 "krein.defect_matrix", "krein.apply_resolvent", "krein.extract_boundary_data",
                 "spectral.find_bound_states", "cli.ResultWriter.dump", "fft.fftconvolve", "quad"):
        m[f"{name}.calls"] = (first.calls[name], "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("krein.gamma_dressed", "dynamics.evolve_spectral", "cli.load_model"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("greens.sqrt_upper", "greens.green", "linalg.factor", "linalg.svd",
                 "linalg.solve"):
        m[f"{name}.calls"] = (first.calls[name], "count")
    m["linalg.factor.n3"] = (first.n3, "count")
    m["cli.bytes_out"] = (first.bytes_out, "B")
    m["boundary.validate_per_pair"] = (
        ratio(first.calls["boundary.validate"], len(wl.model_files())), "1")
    m["krein.dressings_per_z"] = (ratio(first.calls["krein.invert_dressed"], wl.distinct_z()), "1")
    m["spectral.factor_per_level"] = (
        ratio(first.nested[("linalg.factor", "spectral.find_bound_states")], wl.oracle_states()),
        "1")
    m["dynamics.resolvent_per_node"] = (
        ratio(first.nested[("krein.apply_resolvent", "dynamics.evolve_spectral")],
              wl.quadrature_nodes()), "1")
    m["trace.overhead_frac"] = (typical_pass(traced) / typical_pass(plain) - 1.0, "1")
    return m


def run_workload(args):
    sys.path.insert(0, SRC)
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    in_root, out_dir = os.path.join(run_dir, "inputs"), os.path.join(run_dir, "out")
    os.makedirs(out_dir)
    manifest = inputs.generate(args.seed, in_root)
    in_dir = os.path.join(in_root, args.workload)
    with open(os.path.join(HERE, "known_defects.json")) as fh:
        ledger = json.load(fh)

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    setup = [] if args.trace else setup_times(args.workload, in_dir)

    import spinpoint

    if not os.path.abspath(spinpoint.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"spinpoint imported from {spinpoint.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[args.workload](manifest["workloads"][args.workload], in_dir, out_dir)

    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    hard_deadline = start + RUN_CAP_S
    # plain, traced: per-pass case times; scaled: plain at the reference speed
    passes, plain, scaled, traced, tracers = [], [], [], [], []
    while True:
        results, times, times_scaled = run_pass(wl, hard_deadline,
                                                None if args.trace else calib.Sampler())
        passes.append(results)
        plain.append(times)
        scaled.append(times_scaled)
        if args.trace:
            tr = tracer.Tracer(f"{args.workload}-seed{args.seed}-pass{len(passes) + 1}")
            tr.install()
            try:
                results, times, _ = run_pass(wl, hard_deadline)
            finally:
                tr.uninstall()
            passes.append(results)
            traced.append(times)
            tracers.append(tr)
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = judge(wl, passes, ledger)
    for (case, label, kind), n in verdict["unexpected"]:
        print(f"unexpected failures: {case} {label} {kind} x{n}", file=sys.stderr)
    print("outcomes " + json.dumps(verdict["kinds"]))
    summary = {"failed_frac": (verdict["failed_frac"], "1"), "err_max": (verdict["err_max"], "oracle")}
    if args.trace:
        metrics = layer_metrics(wl, tracers, plain, traced)
        metrics.update(summary)
        metrics.update({f"ops.{k}": (v, "count") for k, v in verdict["kinds"].items()})
        with open(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"), "w") as fh:
            for tr in tracers:
                for sid, name, t_start, t_end, parent, run_id in tr.spans:
                    fh.write(json.dumps({"id": sid, "name": name, "start": t_start, "end": t_end,
                                         "parent": parent, "run": run_id}) + "\n")
    else:
        metrics = {"setup_s": (_median(setup), "s"), "wall_s": (typical_pass(scaled), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
        # the unscaled time, for reference; not a metric of BENCHMARK.json
        summary["wall_raw_s"] = (typical_pass(plain), "s")
        print("summary " + json.dumps({k: {"value": v, "unit": u}
                                       for k, (v, u) in {**metrics, **summary}.items()}))
    for key, (value, unit) in sorted({**metrics, **summary}.items()):
        print(f"{key:34s} {value:.6g} {unit}")
    print("pass_s " + json.dumps({"untraced": [sum(t.values()) for t in plain],
                                  "traced": [sum(t.values()) for t in traced]}))
    print(f"passes {len(passes)}, known-defect failures "
          f"{verdict['failed_all'] - verdict['failed']}, new failures {verdict['failed']}")
    shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def invoke(workload, seed, seconds, trace):
    """One run of one workload in a fresh interpreter: its env record, its
    summary line (None when traced) and its JSON result."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    summary = [json.loads(ln[8:]) for ln in lines if ln.startswith("summary ")]
    return {"seed": seed, "env": env, "summary": summary[0] if summary else None,
            "result": json.loads(lines[-1])}


def run_all(args):
    """Every workload in its own interpreter, one table of the five metrics."""
    rows, total = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        run = invoke(name, args.seed, args.seconds, args.trace)
        result = run["result"]
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = val
        rows[name] = run["summary"] or result["metrics"]
    names = sorted({k for r in rows.values() for k in r})
    print(f"{'workload':20s}" + "".join(f"{n:>22s}" for n in names))
    for name, metrics in rows.items():
        cells = "".join(f"{metrics[n]['value']:>15.6g} {metrics[n]['unit']:6s}"
                        if n in metrics else f"{'':>22s}" for n in names)
        print(f"{name:20s}{cells}")
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "spinpoint", "__init__.py")):
        print(f"no spinpoint sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
