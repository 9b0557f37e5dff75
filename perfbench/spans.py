"""Wrap mlsd's public functions from outside the package.

``Patcher`` rebinds a function everywhere the loaded ``mlsd`` modules refer
to it, so calls through import-site bindings (``mlsd.learning.build_lp``,
``mlsd.analysis.simulate_planner``) go through the wrapper as well, and puts
every binding back on ``undo``.

``Tracer`` keeps spans in memory as ``[name, start, end, parent]`` rows and
accumulates per-name call counts and self time (a span's duration minus the
time its child spans cover). Hot leaf functions get count-only wrappers,
because a span per call would cost more than the call.
"""

from __future__ import annotations

import gzip
import sys
import time


def _mlsd_namespaces():
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "mlsd" or name.startswith("mlsd.")):
            yield mod


class Patcher:
    """Rebinds functions in the mlsd modules and classes; ``undo`` restores them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` at every binding.

        ``owner`` is a module (the function is also rebound in every other
        mlsd module that imported it by name) or a class (a method).
        """
        orig = getattr(owner, attr)
        new = make(orig)
        if isinstance(owner, type):
            self._set(owner, attr, new)
            return
        for mod in _mlsd_namespaces():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, new)

    def _set(self, ns, key: str, val) -> None:
        self._undo.append((ns, key, getattr(ns, key)))
        setattr(ns, key, val)

    def undo(self) -> None:
        for ns, key, val in reversed(self._undo):
            setattr(ns, key, val)
        self._undo.clear()


class Tracer:
    """In-memory spans with per-name call counts and self time."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []          # [span index, child seconds]

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError("spans closed out of order")
        span = self.spans[frame[0]]
        span[2] = end
        dur = end - span[1]
        name = span[0]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    def span(self, name, fn):
        """Wrapper recording one span per call; ``name`` may be a function
        of the call's arguments."""
        namer = name if callable(name) else (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            frame = self.open(namer(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return wrapper

    def counter(self, name: str, fn):
        """Count-only wrapper for hot leaf calls."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        """Spans as gzipped CSV: id, name, start, end, parent id (-1 for roots)."""
        with gzip.open(path, "wt") as f:
            f.write("id,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")
