"""Span tracing from outside the program: wrap every public lgw function.

`Tracer.install()` wraps each plain function named in `__all__` of the
layer modules and rebinds the wrapper in every loaded `lgw` module
namespace that holds the original, so calls between layers are traced
too. A span is (name, parent, start, end, raised), kept in flat arrays and
written to disk by `dump()`. A public name that is missing from its module
is recorded as absent rather than failing, so a later refactor that moves
or removes a function shows up in `trace.absent` instead of crashing the
benchmark.

`load()` and `summarize()` turn a dump into per-name call counts, busy time
(span duration) and self time (duration minus child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = ("wfunc", "solver", "fields", "survey", "cli")


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.run"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack: list[int] = []
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        # (k, z.real, z.imag, w.real, w.imag, iterations) per lambert_w call
        self.w_calls: list[tuple] = []
        self.unit_args: list[int] = []
        self.out_bytes: dict[str, int] = {}
        self._probes = {
            "wfunc.lambert_w": self._probe_w,
            "fields.fundamental_unit": self._probe_unit,
            "survey.summary_to_json": self._probe_bytes,
            "survey.records_to_csv": self._probe_bytes,
        }

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- probes: counts read from arguments and return values -------------------

    def _probe_w(self, name, args, kwargs, result):
        z = complex(_arg(args, kwargs, 1, "z"))
        w = result.value
        self.w_calls.append((int(_arg(args, kwargs, 0, "k")), z.real, z.imag,
                             w.real, w.imag, result.iterations))

    def _probe_unit(self, name, args, kwargs, result):
        self.unit_args.append(int(_arg(args, kwargs, 0, "d")))

    def _probe_bytes(self, name, args, kwargs, result):
        self.out_bytes[name] = self.out_bytes.get(name, 0) + len(result.encode())

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_of = _cli_span_name if name == "cli.run" else None
        fixed_id = self._intern(name) if name_of is None else -1
        probe = self._probes.get(name)
        name_id, parent, start, end, raised = (
            self.name_id, self.parent, self.start, self.end, self.raised)
        stack = self._stack
        clock = time.perf_counter
        intern = self._intern

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed_id if name_of is None else intern(name_of(args, kwargs)))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            raised.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layers, in every lgw namespace."""
        by_id: dict[int, tuple] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"lgw.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if obj is None:
                    self.absent.append(f"{layer}.{attr}")
                elif inspect.isfunction(obj) and id(obj) not in by_id:
                    name = f"{layer}.{attr}"
                    by_id[id(obj)] = (obj, self._wrap(name, obj))
                    self.wrapped.append(name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lgw" or mod_name.startswith("lgw.")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])

    def dump(self, directory: str) -> None:
        with open(os.path.join(directory, "spans.bin"), "wb") as f:
            for arr in (self.name_id, self.parent, self.start, self.end, self.raised):
                arr.tofile(f)
        header = {
            "count": len(self.start),
            "names": self.names,
            "wrapped": self.wrapped,
            "absent": self.absent,
            "w_calls": self.w_calls,
            "unit_args": self.unit_args,
            "out_bytes": self.out_bytes,
        }
        with open(os.path.join(directory, "spans.json"), "w") as f:
            json.dump(header, f)


# -- reading a dump back ------------------------------------------------------------

def load(directory: str):
    import numpy as np

    with open(os.path.join(directory, "spans.json")) as f:
        header = json.load(f)
    n = header["count"]
    with open(os.path.join(directory, "spans.bin"), "rb") as f:
        cols = {}
        for key, code in (("name_id", "i"), ("parent", "i"), ("start", "d"),
                          ("end", "d"), ("raised", "b")):
            arr = array(code)
            arr.fromfile(f, n)
            cols[key] = np.frombuffer(arr, dtype=code)
    return header, cols


def summarize(header: dict, cols: dict) -> dict:
    """Per span name: calls, busy_s, self_s, errors.

    busy_s sums the durations of spans whose parent has another name, so a
    directly recursive call is not counted twice.
    """
    import numpy as np

    names = header["names"]
    nid, par = cols["name_id"], cols["parent"]
    dur = cols["end"] - cols["start"]
    has_parent = par >= 0
    child_time = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    same_as_parent = np.zeros(len(dur), dtype=bool)
    same_as_parent[has_parent] = nid[par[has_parent]] == nid[has_parent]
    outer = np.where(same_as_parent, 0.0, dur)
    m = len(names)
    calls = np.bincount(nid, minlength=m)
    busy = np.bincount(nid, weights=outer, minlength=m)
    selfs = np.bincount(nid, weights=self_time, minlength=m)
    errors = np.bincount(nid, weights=cols["raised"].astype(float), minlength=m)
    roots = np.bincount(nid[~has_parent], weights=dur[~has_parent], minlength=m)
    return {
        name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(selfs[i]),
               "errors": int(errors[i]), "root_s": float(roots[i])}
        for i, name in enumerate(names)
    }
