"""Span tracing around calls into ewcones, installed from outside the package.

Every public function of every timed module is rebound at run time to a
wrapper that records a span (name, start, end, parent, op id). The wrapper is
installed in the defining module and wherever the function was imported by
name, e.g. ewcones.certify.hermitian_eig or ewcones.cli.certify_decomposability.
numpy.linalg.eigh is wrapped with a counter only. Spans stay in memory and are
written when the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from metrics import LAYERS

ROW_SOURCES = ("cones.sample_cloud", "cones.bd_curve")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.op_id = 0
        self.ops = 0
        self.counts: dict = defaultdict(int)
        self.max_eig_err = 0.0
        self._stack: list[int] = []
        self._eig_pending: list = []
        self._restore: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of each layer in every ewcones module."""
        modules = {m: importlib.import_module(f"ewcones.{m}") for m in LAYERS}
        modules["init"] = importlib.import_module("ewcones")
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._rebind(mod, attr, wrappers[id(value)][1])
        self._rebind(np.linalg, "eigh", self._count("numpy.linalg.eigh", np.linalg.eigh))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _rebind(self, mod, attr, value) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        is_eig = name == "linalg.hermitian_eig"
        counts_rows = name in ROW_SOURCES

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if is_eig:
                self._eig_pending.append((args[0] if args else kwargs["m"], result.values))
            elif counts_rows:
                self.counts["cones.rows"] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per operation ----------------------------------------------------------

    def begin_op(self) -> None:
        self.op_id += 1

    def end_op(self, **counts) -> None:
        """Close an operation: add its counts and check eigenvalues against LAPACK.

        The LAPACK comparison runs here, outside every span.
        """
        self.ops += 1
        for key, value in counts.items():
            self.counts[key] += value
        for m, values in self._eig_pending:
            m = np.asarray(m)
            if m.shape == (16, 16):
                self.counts["linalg.hermitian_eig.calls_n16"] += 1
            ref = np.linalg.eigvalsh(m)
            self.max_eig_err = max(self.max_eig_err, float(np.max(np.abs(values - ref))))
        self._eig_pending.clear()

    # -- results -----------------------------------------------------------------

    def totals(self) -> dict:
        """Calls and self time (span minus its direct children) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[k]
        return {"calls": dict(calls), "self_s": dict(self_s)}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

    def export(self) -> dict:
        """What a child process hands back for absorb()."""
        return {"spans": self.spans, "counts": dict(self.counts), "max_eig_err": self.max_eig_err}

    def absorb(self, part: dict) -> None:
        """Take in a child process's export as part of the current operation."""
        offset = len(self.spans)
        for name, start, end, parent, _ in part["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, self.op_id))
        for key, value in part["counts"].items():
            self.counts[key] += value
        self.max_eig_err = max(self.max_eig_err, part["max_eig_err"])
