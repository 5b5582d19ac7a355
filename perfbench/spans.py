"""Spans around tolchain's public functions, recorded from outside the library.

:meth:`Tracer.installed` wraps every function in the ``__all__`` of the
traced modules and puts the wrapper in every ``tolchain`` module that holds a
reference to the function, since ``cli`` and ``synthesis`` import names such
as ``sample_chain`` directly. Spans stay in memory until the run writes them
out. Only the calling thread is traced: time that thread spends waiting on
the sampler's worker threads counts as the sampler's own time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterator

# Derives counts at a span's boundary from the call's arguments and result.
Counter = Callable[[tuple, dict, Any], dict[str, float]]


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """A span's duration minus the part of it its direct children cover."""
    return span.duration - covered([(c.start, c.end) for c in children], span.start, span.end)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        span = Span(len(self.spans), stack[-1].id if stack else None, self.op, name, 0.0)
        self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, modules: list[ModuleType], counters: dict[str, Counter]) -> Iterator[None]:
        """Trace the public functions of ``modules`` while the block runs."""
        wrappers: dict[int, Callable] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = self.wrap(name, fn, counters.get(name))
        package = modules[0].__name__.split(".", 1)[0]
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module_name != package and not module_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def by_op(self) -> dict[int, list[Span]]:
        grouped: dict[int, list[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.op, []).append(span)
        return grouped
