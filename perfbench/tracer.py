"""In-memory span tracer that wraps co2fuse functions by module attribute.

Each hook names one or more attributes by their full dotted path, for example
``co2fuse.models.gbt.fit_tree`` (the name the caller looks up at call time)
rather than the function object, because the package binds most functions
with ``from .x import f``. A hook whose attribute no longer exists is reported
as absent and the run goes on, so a refactor that deletes or renames a
function loses only that layer's metrics.

Spans are (name, start, end, parent) and stay in memory; a layer's self time
is its span time minus the time of its direct child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence


class Tracer:
    def __init__(self):
        # one [name, start, end, parent_index, outermost] list per span
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.read_paths: list[str] = []  # input files the traced readers opened
        self.hook_errors: dict[str, str] = {}  # hook -> first counter error
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        outermost = all(self.spans[i][0] != name for i in self._stack)
        self.spans.append([name, time.perf_counter(), 0.0, parent, outermost])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive seconds, self seconds and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, outermost) in enumerate(self.spans):
            if outermost:  # a recursive span is counted once
                inclusive[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        return inclusive, self_time, calls


# on_return(tracer, args, kwargs, result) records counts for one call
OnReturn = Callable[[Tracer, tuple, dict, object], None]


@dataclass(frozen=True)
class Hook:
    span: Optional[str]  # None: count only, no span
    targets: Sequence[str]
    on_return: Optional[OnReturn] = None

    @property
    def key(self) -> str:
        return self.span if self.span is not None else self.targets[0]


def _resolve(path: str):
    """(owner, attribute name) for a dotted path, or None if it is missing."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


def _wrapper(tracer: Tracer, hook: Hook, fn):
    span, on_return = hook.span, hook.on_return

    def traced(*args, **kwargs):
        if span is None:
            result = fn(*args, **kwargs)
        else:
            index = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
        if on_return is not None:
            try:
                on_return(tracer, args, kwargs, result)
            except Exception as exc:  # a counter must never fail the traced call
                tracer.hook_errors.setdefault(hook.key, repr(exc))
        return result

    traced.__wrapped__ = fn
    return traced


class Instrumentation:
    """Installs the hooks into the loaded package and removes them again."""

    def __init__(self, tracer: Tracer, hooks: Sequence[Hook]):
        self.tracer = tracer
        self.hooks = hooks
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def __enter__(self):
        for hook in self.hooks:
            for path in hook.targets:
                found = _resolve(path)
                if found is None:
                    self.absent.append(path)
                    continue
                owner, name = found
                # an inherited attribute is restored by deleting the wrapper
                self._undo.append((owner, name, vars(owner).get(name)))
                setattr(owner, name, _wrapper(self.tracer, hook, getattr(owner, name)))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()
        return False
