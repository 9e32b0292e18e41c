"""Span tracer for the layers of mhlerch.

The tracer replaces every public function of a module (a module attribute
that is a function defined in that module) with a wrapper that records one
span per call: name, start, end and the span that was open when the call
began.  Calls between functions of one module go through module globals, so
they are traced too.  A generator returned by a traced function records one
span per `next`, so lazy work is charged where it happens.

Spans live in flat arrays in memory; `self_times` aggregates them when the run
ends.  The wrappers are installed only inside `with tracer:` so untraced code
runs the original functions.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from typing import Dict, Iterable, List, Tuple


class Tracer:
    def __init__(self, modules: Iterable, watch: Iterable[str] = ()):
        self.modules = list(modules)
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        #: watched qualified name -> [(args, kwargs, result, span)]
        self.calls: Dict[str, list] = {name: [] for name in watch}

    def __enter__(self):
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _open(self, ix: int) -> int:
        span = len(self.start)
        self.name_ix.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        ix = self._index.setdefault(name, len(self.names))
        if ix == len(self.names):
            self.names.append(name)
        watched = self.calls.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if watched is not None:
                watched.append((args, kwargs, result, span))
            if inspect.isgenerator(result):
                return self._iterate(ix, result)
            return result

        return wrapper

    def _iterate(self, ix: int, gen):
        while True:
            span = self._open(ix)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(span)
            yield item

    def duration(self, span: int) -> float:
        return self.end[span] - self.start[span]

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """name -> (spans, self seconds); self = duration minus direct children."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: Dict[str, Tuple[int, float]] = {}
        for i in range(n):
            name = self.names[self.name_ix[i]]
            count, total = out.get(name, (0, 0.0))
            out[name] = (count + 1, total + (self.end[i] - self.start[i]) - covered[i])
        return out
