"""Spans around calls into the workbench's public functions.

``Tracer.install`` wraps every public module-level function of the traced
modules and rebinds the wrapper wherever the package looks the original
up: in its defining module, in every package module that imported it by
name (``verify`` binds ``comass`` at import, ``planes`` binds
``reconcile``, ...), and in ``verify.ALL_CRITERIA``.  ``KForm.to_tensor``
is wrapped on its class.  ``uninstall`` puts every original back.

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory and written out once at the end; self time is derived from them.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "cayley_workbench"
MODULES = ("forms", "octonions", "cayley", "representations", "planes",
           "frame_identities", "mirror", "topology", "verify", "cli", "reporting")

# Bit-level helpers of the blade encoding.  One reconcile fallback calls them
# millions of times at well under a microsecond each, so a span per call would
# cost more than the call; their time counts as their callers' self time.
UNTRACED = {"forms.indices_of", "forms.mask_of", "forms.merge_sign"}

# name of a wrapped function -> number of items one call processes
_SIZES = {
    "planes.calibration_values_batch": lambda a, k: len(a[0]),
    "planes.random_planes_batch": lambda a, k: int(a[0]),
}


class _Traced:
    """Callable stand-in for one function; keeps ``__code__`` so that
    ``verify.run_all`` still sees the original signature."""

    def __init__(self, tracer: "Tracer", name: str, fn):
        self._tracer = tracer
        self._id = tracer.name_id(name)
        self._size = _SIZES.get(name)
        self.__wrapped__ = fn
        if hasattr(fn, "__code__"):
            self.__code__ = fn.__code__

    def __call__(self, *args, **kwargs):
        tr = self._tracer
        idx = tr.open(self._id)
        try:
            result = self.__wrapped__(*args, **kwargs)
        finally:
            tr.close(idx)
        if self._size is not None:
            tr.add_items(self._id, self._size(args, kwargs))
        if tr.fallback_type is not None and isinstance(result, tr.fallback_type):
            tr.rename(idx, "cayley.reconcile:fallback")
        return result


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_arr = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.items: dict[int, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.fallback_type = None

    # -- span recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_arr.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def rename(self, idx: int, name: str) -> None:
        self.name_arr[idx] = self.name_id(name)

    def add_items(self, name_id: int, n: int) -> None:
        self.items[name_id] = self.items.get(name_id, 0) + n

    def mark(self) -> int:
        return len(self.start)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        pkg = sys.modules[PACKAGE]
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES}
        wrappers: dict[int, _Traced] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                name = f"{short}.{attr}"
                if getattr(obj, "__module__", None) != mod.__name__ or name in UNTRACED:
                    continue
                wrappers[id(obj)] = _Traced(self, name, obj)
        holders = [pkg] + [m for n, m in sorted(sys.modules.items())
                           if n.startswith(PACKAGE + ".")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._patch(mod, attr, w)
        verify = mods["verify"]
        self._patch(verify, "ALL_CRITERIA",
                    tuple(wrappers.get(id(fn), fn) for fn in verify.ALL_CRITERIA))
        KForm = mods["forms"].KForm
        original = KForm.to_tensor
        tid = self.name_id("forms.to_tensor")
        tracer = self

        def to_tensor(form):
            idx = tracer.open(tid)
            try:
                return original(form)
            finally:
                tracer.close(idx)

        self._patch(KForm, "to_tensor", to_tensor)
        self.fallback_type = mods["cayley"].BestMismatch

    def _patch(self, holder, attr, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(name ids, parents, starts, ends) of spans lo..hi, all closed."""
        hi = len(self.start) if hi is None else hi
        return (np.array(self.name_arr[lo:hi], dtype=np.int64),
                np.array(self.parent[lo:hi], dtype=np.int64),
                np.array(self.start[lo:hi], dtype=np.float64),
                np.array(self.end[lo:hi], dtype=np.float64))

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """name -> (calls, total seconds, self seconds) over spans lo..hi.

        A span's self time is its duration minus the durations of its
        direct children; children always lie inside their parent.
        """
        names, parent, start, end = self.arrays(lo, hi)
        dur = end - start
        child = np.zeros(len(dur))
        inside = parent >= lo
        np.add.at(child, parent[inside] - lo, dur[inside])
        self_t = dur - child
        out = {}
        for nid in np.unique(names):
            sel = names == nid
            out[self.names[nid]] = (int(sel.sum()), float(dur[sel].sum()),
                                    float(self_t[sel].sum()))
        return out

    def save(self, path: str) -> None:
        names, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=names, parent=parent,
                 start=start, end=end)
