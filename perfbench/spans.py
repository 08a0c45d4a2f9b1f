"""Span recorder that wraps freecalc's public functions from the outside.

``Tracer.install`` rebinds each target in every ``freecalc.*`` module (and on
the class, for methods) that holds it, because ``from .matrix_core import
op_norm`` copies the name into the importing module.  ``Tracer.uninstall``
puts every original object back.  Spans are (name, start, end, parent) rows
kept in flat arrays, and are only recorded while ``active`` is set, so input
making and output checks between operations leave no spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._rebound: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    # --- recording ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """A function that records a span per call while tracing is active.

        ``before(args)`` and ``after(result)`` run outside the span, to update
        counters with ``count`` and ``peak``.
        """
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result)
            return result

        self._wrappers.add(id(traced))
        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function whose every ``next()`` is one span."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                if not self.active:
                    item = next(inner, StopIteration)
                else:
                    idx = self._open(nid)
                    try:
                        item = next(inner, StopIteration)
                    finally:
                        self._close(idx)
                if item is StopIteration:
                    return
                yield item

        self._wrappers.add(id(traced))
        return traced

    # --- installing -----------------------------------------------------------

    def install(self, module_name: str, attr: str, wrapper_factory) -> None:
        """Rebind ``module_name.attr`` wherever a freecalc module holds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_factory(original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "freecalc" or mod_name.startswith("freecalc.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebound.append((module, key, original))
                    setattr(module, key, wrapper)

    def install_method(self, cls, attr: str, wrapper_factory) -> None:
        original = cls.__dict__[attr]
        self._rebound.append((cls, attr, original))
        setattr(cls, attr, wrapper_factory(original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._rebound):
            setattr(owner, key, original)
        self._rebound.clear()

    def leftover_wrappers(self) -> list[str]:
        """Names in freecalc modules or their classes still bound to a wrapper."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "freecalc" or mod_name.startswith("freecalc.")):
                continue
            for key, value in vars(module).items():
                if id(value) in self._wrappers:
                    found.append(f"{mod_name}.{key}")
                elif isinstance(value, type) and value.__module__ == mod_name:
                    for attr, member in vars(value).items():
                        if id(member) in self._wrappers:
                            found.append(f"{mod_name}.{key}.{attr}")
        return found

    # --- summarising ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly because the run has one thread.
        """
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {"calls": float(sel.sum()), "self_s": float(self_time[sel].sum())}
        # Self times of all spans add up to the durations of the top-level spans.
        out["<all>"] = {"self_s": float(self_time.sum())}
        return out
