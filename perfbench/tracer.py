"""Spans around sgds functions, recorded by patching them from outside.

The program binds names at import (``from .rng import stream_rng``), so a
function is wrapped in every module namespace where a caller looks it up.
A target is ``(module, attribute, span name, annotate)``; ``attribute`` may
be ``Class.method``.  ``annotate(*args, **kwargs)``, when given, stores one
value per span (for example the size of the tape ``backward`` receives).

Spans are kept in flat arrays while the program runs and are written out
once, at the end.  Everything runs in one thread, so spans nest strictly.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Patch targets on ``install``, put every original back on ``restore``.

    ``before_top``, when given, is called before each span that has no
    parent, outside every span.
    """

    def __init__(self, targets, before_top=None):
        self.targets = tuple(targets)
        self.before_top = before_top
        self.names = sorted({t[2] for t in self.targets})
        self._name_idx = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("H")
        self.info: dict[int, object] = {}
        self.run_ids: list[str] = []
        self._run = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin_run(self, run_id: str) -> None:
        """Spans recorded from now on belong to ``run_id``."""
        self.run_ids.append(run_id)
        self._run = len(self.run_ids) - 1

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, annotate in self.targets:
            owner, leaf = _resolve(module, attr)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, annotate))

    def restore(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, fn, name, annotate):
        name_idx = self._name_idx[name]
        stack = self._stack
        before_top = self.before_top

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before_top is not None and not stack:
                before_top()
            i = len(self.start)
            self.name.append(name_idx)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self._run)
            self.end.append(0.0)
            if annotate is not None:
                self.info[i] = annotate(*args, **kwargs)
            stack.append(i)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                stack.pop()

        return traced

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def spans_by_run(self) -> dict[str, list[int]]:
        """Span indices grouped by run id, in recording order."""
        out = {r: [] for r in self.run_ids}
        for i, r in enumerate(self.run):
            out[self.run_ids[r]].append(i)
        return out

    def save(self, path) -> None:
        """Write every span (name, start, end, parent, run id) as one npz file."""
        import numpy as np
        np.savez(path,
                 names=np.array(self.names), run_ids=np.array(self.run_ids),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 run=np.frombuffer(self.run, dtype=np.uint16))


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the part of it its child spans cover.

    Overlapping children are merged first and clipped to the parent, so
    no instant is subtracted twice.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered, cur_lo, cur_hi = 0.0, None, None
        for k in sorted(kids, key=lambda k: start[k]):
            lo, hi = max(start[k], lo_p), min(end[k], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out
