"""In-process tracing: wrappers around the calls into each layer.

The tracer patches functions from the outside, in the module that
defines them and in every spinpoint module that bound the same object by
name (`from .krein import apply_resolvent`), and restores them on
`uninstall`. Nothing under src/ is edited. Span wrappers keep spans in
memory (name, start, end, parent, run id) and accumulate self time, the
span's duration minus the time covered by its child spans. Count
wrappers only count: they sit on functions called ~10^5 times a pass.

A target the program no longer has is skipped, so its metrics read 0
calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, metric prefix, kind); kind "span" records spans
# and self time, "count" only counts calls
TARGETS = [
    ("spinpoint.boundary", "validate", "boundary.validate", "span"),
    ("spinpoint.krein", "gamma_free", "krein.gamma_free", "span"),
    ("spinpoint.krein", "gamma_dressed", "krein.gamma_dressed", "span"),
    ("spinpoint.krein", "invert_dressed", "krein.invert_dressed", "span"),
    ("spinpoint.krein", "defect_matrix", "krein.defect_matrix", "span"),
    ("spinpoint.krein", "apply_resolvent", "krein.apply_resolvent", "span"),
    ("spinpoint.krein", "extract_boundary_data", "krein.extract_boundary_data", "span"),
    ("spinpoint.spectral", "find_bound_states", "spectral.find_bound_states", "span"),
    ("spinpoint.dynamics", "evolve_spectral", "dynamics.evolve_spectral", "span"),
    ("spinpoint.greens", "sqrt_upper", "greens.sqrt_upper", "count"),
    ("spinpoint.greens", "green", "greens.green", "count"),
    ("spinpoint.cli", "load_model", "cli.load_model", "span"),
    ("spinpoint.cli", "ResultWriter.dump", "cli.ResultWriter.dump", "span"),
    ("scipy.signal", "fftconvolve", "fft.fftconvolve", "span"),
    ("scipy.integrate", "quad", "quad", "span"),
]


def _shape_n3(a, kind):
    """Computed operation count of one dense factorization: batch * m n min(m, n)."""
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        return 0
    m, n = int(shape[-2]), int(shape[-1])
    batch = 1
    for s in shape[:-2]:
        batch *= int(s)
    if kind == "square":
        return batch * n ** 3
    return batch * m * n * min(m, n)


# dense factorizations counted at the library entry points; "square"
# counts n^3 of the (n, n) operand, "rect" m n min(m, n)
LINALG = [
    ("numpy.linalg", "svd", "rect"), ("numpy.linalg", "solve", "square"),
    ("numpy.linalg", "lstsq", "rect"), ("numpy.linalg", "slogdet", "square"),
    ("numpy.linalg", "det", "square"), ("numpy.linalg", "inv", "square"),
    ("numpy.linalg", "eig", "square"), ("numpy.linalg", "eigh", "square"),
    ("numpy.linalg", "eigvals", "square"), ("numpy.linalg", "eigvalsh", "square"),
    ("numpy.linalg", "qr", "rect"), ("numpy.linalg", "cholesky", "square"),
    ("scipy.linalg", "svd", "rect"), ("scipy.linalg", "svdvals", "rect"),
    ("scipy.linalg", "solve", "square"), ("scipy.linalg", "lu_factor", "square"),
    ("scipy.linalg", "lu", "square"), ("scipy.linalg", "eig", "square"),
    ("scipy.linalg", "eigh", "square"), ("scipy.linalg", "eigvalsh", "square"),
    ("scipy.linalg", "qr", "rect"), ("scipy.linalg", "cho_factor", "square"),
    ("scipy.linalg", "inv", "square"), ("scipy.linalg", "det", "square"),
    ("scipy.linalg", "lstsq", "rect"),
]

# (call, ancestor) pairs whose nesting is counted, for the per-layer ratios
NESTED = [("linalg.factor", "spectral.find_bound_states"),
          ("krein.apply_resolvent", "dynamics.evolve_spectral")]


class Tracer:
    """Span and call-count recorder for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()
        self.n3 = 0
        self.bytes_out = 0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next = 0
        self._patched: list[tuple] = []

    # -- recording

    def _ancestors(self, ancestor):
        return any(frame[1] == ancestor for frame in self._stack)

    def _count_nested(self, name):
        for call, ancestor in NESTED:
            if call == name and self._ancestors(ancestor):
                self.nested[(call, ancestor)] += 1

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            self._count_nested(name)
            sid = self._next
            self._next += 1
            frame = [sid, name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - frame[2]
                self.self_s[name] += dur - frame[3]
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[3] += dur
                self.spans.append((sid, name, frame[2], end,
                                   parent[0] if parent else None, self.run_id))
        return wrapped

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _factor(self, name, kind, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            a = args[0] if args else next(iter(kwargs.values()), None)
            self.calls[name] += 1
            self.calls["linalg.factor"] += 1
            self._count_nested("linalg.factor")
            self.n3 += _shape_n3(a, kind)
            return fn(*args, **kwargs)
        return wrapped

    def _dump(self, fn):
        span = self._span("cli.ResultWriter.dump", fn)

        @functools.wraps(fn)
        def wrapped(writer, *args, **kwargs):
            out = span(writer, *args, **kwargs)
            self.bytes_out += len(("\n".join(writer.lines) + "\n").encode())
            return out
        return wrapped

    # -- patching

    def _replace(self, home, attr, wrapper_for):
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(home, owner, None) if owner else home
        orig = getattr(holder, leaf, None)
        if orig is None:
            return
        wrapped = wrapper_for(orig)
        self._patch(holder, leaf, wrapped)
        if owner:
            return
        # every spinpoint module that bound the same object by name
        for modname, mod in list(sys.modules.items()):
            if mod is None or mod is home or not modname.startswith("spinpoint"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, key, wrapped)

    def _patch(self, holder, key, value):
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def install(self):
        for modname, attr, name, kind in TARGETS:
            try:
                home = importlib.import_module(modname)
            except ImportError:
                continue
            if name == "cli.ResultWriter.dump":
                self._replace(home, attr, self._dump)
            elif kind == "span":
                self._replace(home, attr, functools.partial(self._span, name))
            else:
                self._replace(home, attr, functools.partial(self._count, name))
        for modname, attr, kind in LINALG:
            home = sys.modules.get(modname)
            if home is None:
                continue
            family = "svd" if "svd" in attr else ("solve" if attr == "solve" else attr)
            self._replace(home, attr, functools.partial(self._factor, f"linalg.{family}", kind))

    def uninstall(self):
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched.clear()
