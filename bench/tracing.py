"""Spans around walsh_lab's public functions, recorded from outside the package.

``install()`` rebinds every public function the benchmark traces, in every
walsh_lab module that holds a reference to it (``opnorm.fwht``,
``multiplier.fwht``, the package namespace, ...), and wraps ``values`` and
``closure_distance`` on every ``Symbol`` subclass.  A span is
``(id, parent_id, name, start, end, info)``; spans stay in memory and are
written once, at exit.  ``layer_metrics`` turns spans into the per-layer
metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# Modules are reached through importlib: the package attribute
# ``walsh_lab.opnorm`` is the function, not the module.
TRACED_FUNCTIONS = {
    "dyadic": ("fwht", "walsh_step", "analysis", "synthesis"),
    "metrics": ("pnorm", "lp_norm"),
    "multiplier": ("apply", "apply_diag", "compose_check"),
    "opnorm": ("opnorm", "tail_norm", "multiplier_bound_check", "constant_probe"),
    "spectral": ("membership", "compactness_report", "point_spectrum"),
    "cli": ("main",),
}
SYMBOL_METHODS = ("values", "closure_distance")
ESTIMATORS = ("opnorm", "multiplier_bound_check", "constant_probe", "tail_norm")
# Transforms with rows * N at or below this are dominated by per-call overhead.
SMALL_CALL_ELEMS = 1 << 10


def _fwht_info(args, out):
    a = args[0]
    if not isinstance(a, np.ndarray):
        a = np.asarray(a)
    n = a.shape[-1]
    itemsize = 16 if a.dtype.kind == "c" else 8
    return (a.size // n, n, itemsize)


def _values_info(tracer, args, out):
    # Frozen-dataclass symbols compare by value, the others by identity; the
    # set holds them, so an identity is never reused within a run.
    key = (args[0], int(args[1]))
    with tracer.lock:
        seen = key in tracer.seen_values
        tracer.seen_values.add(key)
    return int(seen)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.ids = itertools.count()
        self.local = threading.local()
        self.lock = threading.Lock()
        self.seen_values: set = set()
        # Cleared while the benchmark runs its own checks, which call the package too.
        self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self.ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, None if info is None else info(args, out)))

        return traced

    def install(self) -> None:
        infos = {
            "dyadic.fwht": _fwht_info,
            "opnorm.opnorm": lambda args, out: None if out is None else int(out.kind == "exact"),
            "spectral.membership": lambda args, out: None if out is None else int(out.verdict == "undetermined"),
            "multiplier.dense": lambda args, out: args[0].resolution.dim,
        }
        replace = {}
        for mod_name, names in TRACED_FUNCTIONS.items():
            mod = importlib.import_module(f"walsh_lab.{mod_name}")
            for fname in names:
                orig = getattr(mod, fname)
                full = f"{mod_name}.{fname}"
                replace[id(orig)] = (orig, self.wrap(full, orig, infos.get(full)))
        for mod in [m for n, m in sys.modules.items() if n == "walsh_lab" or n.startswith("walsh_lab.")]:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        mult = importlib.import_module("walsh_lab.multiplier")
        cls = mult.MultiplierMatrix
        cls.dense = self.wrap("multiplier.dense", cls.dense, infos["multiplier.dense"])
        symbols = importlib.import_module("walsh_lab.symbols")
        for obj in list(vars(symbols).values()):
            if isinstance(obj, type) and issubclass(obj, symbols.Symbol):
                for meth in SYMBOL_METHODS:
                    if meth in obj.__dict__:
                        info = functools.partial(_values_info, self) if meth == "values" else None
                        setattr(obj, meth, self.wrap(f"symbols.{meth}", obj.__dict__[meth], info))

    def add_span(self, name: str, t0: float, t1: float) -> None:
        self.spans.append((next(self.ids), None, name, t0, t1, None))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_spans(paths, first_id: int = 0) -> list[tuple]:
    """Merge span files from several processes, renumbering ids from first_id."""
    merged: list[tuple] = []
    offset = first_id
    for path in paths:
        with open(path) as fh:
            spans = json.load(fh)
        top = -1
        for sid, parent, name, t0, t1, info in spans:
            merged.append((sid + offset, None if parent is None else parent + offset, name, t0, t1, info))
            top = max(top, sid)
        offset += top + 1
    return merged


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and self times; self time = duration - direct children."""
    child_time: dict[int, float] = defaultdict(float)
    parent_of: dict[int, int | None] = {}
    name_of: dict[int, str] = {}
    for sid, parent, name, t0, t1, _ in spans:
        parent_of[sid] = parent
        name_of[sid] = name
        if parent is not None:
            child_time[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    infos: dict[str, list] = defaultdict(list)
    fwht_under: dict[str, int] = defaultdict(int)
    for sid, parent, name, t0, t1, info in spans:
        calls[name] += 1
        self_s[name] += (t1 - t0) - child_time[sid]
        if info is not None:
            infos[name].append(info)
        if name == "dyadic.fwht":
            ancestors = set()
            up = parent
            while up is not None:
                ancestors.add(name_of[up])
                up = parent_of[up]
            for est in ESTIMATORS:
                if f"opnorm.{est}" in ancestors:
                    fwht_under[est] += 1

    fw = infos["dyadic.fwht"]
    rows = sum(r for r, n, _ in fw)
    elems = sum(r * n for r, n, _ in fw)
    butterflies = sum(r * n * (n.bit_length() - 1) for r, n, _ in fw)
    fwht_self = self_s["dyadic.fwht"]

    def frac(name: str) -> float:
        vals = infos[name]
        return sum(vals) / len(vals) if vals else 0.0

    out = {
        "dyadic.fwht.calls": calls["dyadic.fwht"],
        "dyadic.fwht.rows": rows,
        "dyadic.fwht.elems": elems,
        "dyadic.fwht.self_s": fwht_self,
        "dyadic.fwht.butterfly_ops": butterflies,
        "dyadic.fwht.bytes_computed": sum(r * n * size * 2 for r, n, size in fw),
        "dyadic.fwht.gops_per_s": butterflies / fwht_self / 1e9 if fwht_self > 0 else 0.0,
        "dyadic.fwht.small_call_frac": (
            sum(1 for r, n, _ in fw if r * n <= SMALL_CALL_ELEMS) / len(fw) if fw else 0.0
        ),
        "dyadic.walsh_step.calls": calls["dyadic.walsh_step"],
        "dyadic.walsh_step.self_s": self_s["dyadic.walsh_step"],
        "dyadic.analysis.self_s": self_s["dyadic.analysis"],
        "dyadic.synthesis.self_s": self_s["dyadic.synthesis"],
        "symbols.values.calls": calls["symbols.values"],
        "symbols.values.self_s": self_s["symbols.values"],
        "symbols.values.repeat_frac": frac("symbols.values"),
        "symbols.closure_distance.calls": calls["symbols.closure_distance"],
        "symbols.closure_distance.self_s": self_s["symbols.closure_distance"],
        "metrics.pnorm.calls": calls["metrics.pnorm"],
        "metrics.pnorm.self_s": self_s["metrics.pnorm"],
        "metrics.lp_norm.self_s": self_s["metrics.lp_norm"],
        "multiplier.apply_diag.calls": calls["multiplier.apply_diag"],
        "multiplier.apply_diag.self_s": self_s["multiplier.apply_diag"],
        "multiplier.apply.self_s": self_s["multiplier.apply"],
        "multiplier.dense.calls": calls["multiplier.dense"],
        "multiplier.dense.self_s": self_s["multiplier.dense"],
        "multiplier.dense.bytes_computed": sum(n * n * 8 for n in infos["multiplier.dense"]),
        "multiplier.compose_check.calls": calls["multiplier.compose_check"],
        "multiplier.compose_check.self_s": self_s["multiplier.compose_check"],
    }
    for est in ESTIMATORS:
        n = calls[f"opnorm.{est}"]
        out[f"opnorm.{est}.calls"] = n
        out[f"opnorm.{est}.self_s"] = self_s[f"opnorm.{est}"]
        out[f"opnorm.{est}.fwht_per_call"] = fwht_under[est] / n if n else 0.0
    out["opnorm.opnorm.exact_frac"] = frac("opnorm.opnorm")
    out["spectral.membership.calls"] = calls["spectral.membership"]
    out["spectral.membership.self_s"] = self_s["spectral.membership"]
    out["spectral.membership.undetermined_frac"] = frac("spectral.membership")
    out["spectral.compactness_report.self_s"] = self_s["spectral.compactness_report"]
    out["spectral.point_spectrum.self_s"] = self_s["spectral.point_spectrum"]
    imports = [t1 - t0 for _, _, name, t0, t1, _ in spans if name == "cli.import"]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    out["cli.main.self_s"] = self_s["cli.main"]
    out["trace.spans"] = len(spans)
    return out
