"""Outside-in span tracer for the layers of ``affdim``.

The program has no tracing of its own, so this module wraps its public
functions from outside.  :meth:`Tracer.install` replaces each target with a
recording wrapper in its defining module and in every ``affdim`` module that
imported it by name (``io_cli``, ``dimension`` and ``code_tree`` do), and
:meth:`Tracer.uninstall` puts the originals back.  Modules are reached
through ``sys.modules`` because some package attributes shadow submodules:
``affdim.singular_values`` is the function, not the module.

Spans are kept in memory as ``[name, parent, start, end, counters]`` and the
self time of a span is its duration minus that of its children.  Tracing is
meant for single-threaded runs; spans opened in other threads become roots.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time

import numpy as np


def _batch(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


# (defining module, attribute, span name, counters(arguments, result) or None,
#  whether the counters need the bound arguments)
TARGETS = (
    ("numpy.linalg", "svd", "singular_values.svd",
     lambda a, r: {"matrices": _batch(a[0])}, False),
    ("affdim.singular_values", "phi_from_singular_values", "singular_values.phi",
     lambda a, r: {"values": int(np.size(r))}, False),
    ("affdim.code_tree", "partition_sums", "code_tree.partition_sums",
     lambda a, r: {"words": a["tree"].word_count(a["k"])}, True),
    ("affdim.code_tree", "enumerate_points", "code_tree.enumerate_points",
     lambda a, r: {"points": int(r[0].shape[0])}, True),
    ("affdim.dimension", "pressure_zero", "dimension.pressure_zero",
     lambda a, r: {"iterations": int(r.iterations)}, True),
    ("affdim.dimension", "box_dimension", "dimension.box_dimension",
     lambda a, r: {"points": int(np.shape(a["points"])[0])}, True),
    ("affdim.io_cli", "parse_system", "io_cli.parse_system", None, False),
    ("affdim.io_cli", "cli", "io_cli.cli", None, False),
    ("affdim.fs_checker", "iterate_closure", "fs_checker.iterate_closure",
     lambda a, r: {"closure_maps": len(r)}, True),
    ("affdim.fs_checker", "check_cm", "fs_checker.check_cm",
     lambda a, r: {"samples": int(r.samples)}, True),
    ("affdim.fs_checker", "criterion_cscm", "fs_checker.criterion_cscm", None, False),
    ("affdim.exterior_algebra", "compound_matrix", "exterior_algebra.compound_matrix",
     None, False),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counters, bind):
        spans = self.spans
        stack_of = self._stack
        binder = _bound(fn) if bind else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[2] = t0
                stack.pop()
            if counters is not None:
                span[4] = counters(binder(args, kwargs) if bind else args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        holders = [m for n, m in sys.modules.items() if n == "affdim" or n.startswith("affdim.")]
        for modname, attr, name, counters, bind in TARGETS:
            home = sys.modules[modname]
            orig = getattr(home, attr)
            wrapper = self._wrap(orig, name, counters, bind)
            for mod in [home, *holders]:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()

    def summary(self) -> dict:
        """Per span name: total self time ``s``, ``calls`` and summed counters.

        ``dimension.pressure_zero`` also gets ``passes``: the enumeration
        passes (``code_tree.partition_sums`` spans) it made as children.
        """
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, parent, t0, t1, counters) in enumerate(self.spans):
            row = out.setdefault(name, {"s": 0.0, "calls": 0})
            row["s"] += (t1 - t0) - child[i]
            row["calls"] += 1
            for key, value in (counters or {}).items():
                row[key] = row.get(key, 0) + value
            if (name == "code_tree.partition_sums" and parent >= 0
                    and self.spans[parent][0] == "dimension.pressure_zero"):
                pz = out.setdefault("dimension.pressure_zero", {"s": 0.0, "calls": 0})
                pz["passes"] = pz.get("passes", 0) + 1
        return out

    def dump(self) -> list:
        return [
            {"name": n, "parent": p, "start": t0, "end": t1, "counters": c or {}}
            for n, p, t0, t1, c in self.spans
        ]
