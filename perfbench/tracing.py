"""Runtime span tracing of the ``instanton3`` layers, installed from outside.

``Tracer.install`` wraps every public function of each layer module, plus a
few methods, and rebinds the copies of those functions that other modules
(and the package namespace) imported by name.  Each call records a span:
name, start, end, parent span and operation id.  Spans stay in memory until
``write`` saves them; ``layer_metrics`` turns them into per-operation
counts and self times.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import operator
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import reference as ref

#: The package's layer modules, one span prefix each.
LAYERS = ("binomials", "chowring", "chern", "cubics", "cohomtable", "spectrum", "curvelink", "moduli", "verify", "cli")

#: Methods traced besides the public module-level functions.
METHODS = (
    ("chowring", "ChowClass", "scale"),
    ("chern", "ChiPolynomial", "__call__"),
    ("cubics", "CubicSignAnalysis", "__init__"),
    ("cubics", "CubicSignAnalysis", "odd_roots_below"),
    ("cohomtable", "CohomTable", "row"),
    ("cohomtable", "CohomTable", "to_text"),
    ("cohomtable", "CohomTable", "to_json_dict"),
)

ROOT = "bench.op"


def _rows(args, result):
    return args["t_max"] - args["t_min"] + 1


def _spectra(args, result):
    n, bound = args["n"], args["bound"]
    return math.comb(2 * bound + n, n), None if result is None else len(result)


def _claim(args, result):
    return args["claim"].id


#: Span annotations: what a call's arguments, by parameter name, and its
#: result say about the size of the work.
INFO_OF = {
    "cohomtable.natural_table": _rows,
    "spectrum.enumerate_spectra": _spectra,
    "verify.run_claim": _claim,
}


class Tracer:
    """Spans in columns: span i has name ``names[name_id[i]]``, start, end,
    parent span (-1 for none), operation id, a raised flag and, for the
    calls in INFO_OF, an entry in ``info``.  Columns of machine integers
    keep a million spans in tens of megabytes."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.raised = bytearray()
        self.info: dict[int, object] = {}
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.raised.append(0)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def start_op(self, start_ns: int) -> None:
        self._op += 1
        self._stack.clear()
        self.start[self._open(0)] = start_ns

    def end_op(self, end_ns: int) -> None:
        self.end[self._stack.pop()] = end_ns

    def wrap(self, name: str, fn):
        self.names.append(name)
        name_id, info_of = len(self.names) - 1, INFO_OF.get(name)
        signature = inspect.signature(fn) if info_of else None
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_id)
            result = None
            start[sid] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.raised[sid] = 1
                raise
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
                if info_of is not None:
                    self.info[sid] = info_of(signature.bind(*args, **kwargs).arguments, result)

        return traced

    def install(self) -> None:
        """Wrap every layer, then rebind each imported copy to its wrapper."""
        wrapped = {}
        modules = [importlib.import_module("instanton3")]
        for layer in LAYERS:
            mod = importlib.import_module(f"instanton3.{layer}")
            modules.append(mod)
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                    wrapped[obj] = self.wrap(f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(mod, name, wrapped[obj])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"instanton3.{layer}"), cls_name)
            self._rebind(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", cls.__dict__[method]))

    def _rebind(self, owner, name, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def write(self, path: Path) -> None:
        """Save the spans, one tab-separated line each, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\top\tparent\tname\tstart_ns\tend_ns\traised\tinfo\n")
            for sid in range(len(self)):
                fh.write(
                    f"{sid}\t{self.op[sid]}\t{self.parent[sid]}\t{self.names[self.name_id[sid]]}\t"
                    f"{self.start[sid]}\t{self.end[sid]}\t{self.raised[sid]}\t{self.info.get(sid, '')}\n"
                )


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tr: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer counts and times from one traced pass of ``ops`` operations."""
    duration = array("q", map(operator.sub, tr.end, tr.start))
    child_ns = array("q", bytes(8 * len(duration)))
    for sid, parent in enumerate(tr.parent):
        if parent >= 0:
            child_ns[parent] += duration[sid]
    layer_of = [_layer(name) for name in tr.names]
    n_names = len(tr.names)
    n_calls, total, own, leaked = [0] * n_names, [0] * n_names, [0] * n_names, [0] * n_names
    for sid, nid in enumerate(tr.name_id):
        n_calls[nid] += 1
        total[nid] += duration[sid]
        own[nid] += duration[sid] - child_ns[sid]
        if tr.raised[sid]:
            parent = tr.parent[sid]
            if parent < 0 or layer_of[tr.name_id[parent]] != layer_of[nid]:
                leaked[nid] += 1  # the exception leaves the layer here
    calls, total_ns = defaultdict(int), defaultdict(int)
    self_ns, raised = defaultdict(int), defaultdict(int)
    for nid, name in enumerate(tr.names):
        calls[name] += n_calls[nid]
        total_ns[name] += total[nid]
        self_ns[layer_of[nid]] += own[nid]
        raised[layer_of[nid]] += leaked[nid]
        if name.startswith("cli.cmd_"):
            self_ns["cli.dispatch"] += own[nid]
    rows = candidates = kept = 0
    claim_ns = defaultdict(int)
    for sid, info in tr.info.items():
        name = tr.names[tr.name_id[sid]]
        if name == "cohomtable.natural_table":
            rows += info
        elif name == "spectrum.enumerate_spectra":
            candidates += info[0]
            kept += info[1] or 0
        else:
            claim_ns[info] += duration[sid]

    def per_op(x: float) -> float:
        return x / ops

    def us(ns: float) -> float:
        return ns / ops / 1e3

    def layer_calls(layer: str) -> float:
        return per_op(sum(n for name, n in calls.items() if _layer(name) == layer))

    metrics = {
        "chowring.mul.calls_per_op": (per_op(calls["chowring.mul"]), "count"),
        "chowring.exp_line.calls_per_op": (per_op(calls["chowring.exp_line"]), "count"),
        "chowring.self_us_per_op": (us(self_ns["chowring"]), "us"),
        "chern.euler_characteristic.calls_per_op": (per_op(calls["chern.euler_characteristic"]), "count"),
        "chern.chi_polynomial.calls_per_op": (per_op(calls["chern.chi_polynomial"]), "count"),
        "chern.self_us_per_op": (us(self_ns["chern"]), "us"),
        "chern.raised_per_op": (per_op(raised["chern"]), "count"),
        "cubics.queries_per_op": (per_op(calls["cubics.CubicSignAnalysis.odd_roots_below"]), "count"),
        "cubics.query_us_per_op": (us(total_ns["cubics.CubicSignAnalysis.odd_roots_below"]), "us"),
        "cubics.builds_per_op": (per_op(calls["cubics.CubicSignAnalysis.__init__"]), "count"),
        "cubics.build_us_per_op": (us(total_ns["cubics.CubicSignAnalysis.__init__"]), "us"),
        "cohomtable.rows_per_op": (per_op(rows), "count"),
        "cohomtable.self_us_per_op": (us(self_ns["cohomtable"]), "us"),
        "cohomtable.raised_per_op": (per_op(raised["cohomtable"]), "count"),
        "spectrum.candidates_per_op": (per_op(candidates), "count"),
        "spectrum.kept_ratio": (kept / candidates if candidates else 0.0, "ratio"),
        "spectrum.self_us_per_op": (us(self_ns["spectrum"]), "us"),
    }
    for layer in ("curvelink", "moduli", "binomials"):
        metrics[f"{layer}.calls_per_op"] = (layer_calls(layer), "count")
        metrics[f"{layer}.self_us_per_op"] = (us(self_ns[layer]), "us")
    for cid in ref.CLAIM_IDS:
        metrics[f"verify.claim.{cid}.us"] = (us(claim_ns[cid]), "us")
    metrics["verify.self_us_per_op"] = (us(self_ns["verify"]), "us")
    metrics["cli.build_parser.us_per_op"] = (us(total_ns["cli.build_parser"]), "us")
    metrics["cli.dispatch_us_per_op"] = (us(self_ns["cli.dispatch"]), "us")
    metrics["cli.self_us_per_op"] = (us(self_ns["cli"]), "us")
    layer_self = sum(self_ns[layer] for layer in LAYERS)
    metrics["trace.self_sum_ratio"] = (layer_self / total_ns[ROOT], "ratio")
    return metrics
