"""Outside-in span tracing for the benchmark's per-layer metrics.

The traced run wraps the public functions of each layer *from here*,
at the name its caller looks up, and restores every original object
afterwards; nothing under ``src/`` changes.  Spans live in memory as
``(name, start, end, parent)`` and are written out when the run ends.

Counting that inspects arrays (tie tallies, active lanes) runs inside
:meth:`Tracer.untimed`, which stops the tracer's clock: the counted
work shows in the traced wall time (the tracing overhead) but in no
span, so it never inflates the span it happens in.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_MISSING = object()


class Tracer:
    """In-memory span recorder with a pausable clock."""

    def __init__(self):
        self._excluded = 0.0
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (the clock keeps running)."""
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(float)
        self._stack = []

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(index)
        self.starts.append(self.now())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def untimed(self):
        """Run a block with the span clock stopped."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - start

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def write(self, path: Path) -> None:
        """Append every span to ``path`` as JSON lines ``[name, start, end, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write(json.dumps(row) + "\n")


class SpanTable:
    """Durations and self times of every span a tracer holds.

    ``durations[name]`` lists the inclusive duration of each span of
    that name not nested in another of the same name; ``self_time`` is
    each span's duration minus its children's, summed per name.
    """

    def __init__(self, tracer: Tracer):
        members = range(len(tracer.names))
        self.durations = defaultdict(list)
        children = defaultdict(float)
        same_name_ancestor = set()
        for index in members:
            duration = tracer.ends[index] - tracer.starts[index]
            parent = tracer.parents[index]
            if parent >= 0:
                children[parent] += duration
            ancestor = parent
            while ancestor >= 0:
                if tracer.names[ancestor] == tracer.names[index]:
                    same_name_ancestor.add(index)
                    break
                ancestor = tracer.parents[ancestor]
        self.self_time = defaultdict(float)
        for index in members:
            duration = tracer.ends[index] - tracer.starts[index]
            name = tracer.names[index]
            self.self_time[name] += duration - children[index]
            if index not in same_name_ancestor:
                self.durations[name].append(duration)

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def percentile(self, name: str, q: float) -> float:
        values = self.durations.get(name)
        return float(np.percentile(values, q)) if values else 0.0


class Patcher:
    """Installs span wrappers and puts every original object back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def wrap(self, owner, attr: str, span: str, before=None, after=None) -> None:
        """Wrap ``owner.attr`` in span ``span``.

        ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)``
        run with the clock stopped.  Static and class methods keep their
        descriptor kind; an inherited method is shadowed on ``owner``
        and the shadow deleted again on restore.
        """
        static = inspect.getattr_static(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        kind = type(static) if isinstance(static, (staticmethod, classmethod)) else None
        function = static.__func__ if kind is not None else static
        tracer = self.tracer

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if before is not None:
                with tracer.untimed():
                    before(*args, **kwargs)
            index = tracer.open(span)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                with tracer.untimed():
                    after(result, *args, **kwargs)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._saved.append((owner, attr, own))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attr, span, before, after)`` for a block."""
        snapshot = snapshot_targets(targets)
        try:
            for owner, attr, span, before, after in targets:
                self.wrap(owner, attr, span, before, after)
            yield
        finally:
            self.restore()
        if not all_restored(targets, snapshot):
            raise RuntimeError("a traced function was not restored to its original object")


def snapshot_targets(targets) -> list:
    """Each target's own class or module entry (for restore checks)."""
    return [vars(owner).get(attr, _MISSING) for owner, attr, *_ in targets]


def all_restored(targets, snapshot) -> bool:
    """Whether every target entry is the very object in ``snapshot`` again."""
    return all(a is b for a, b in zip(snapshot_targets(targets), snapshot))
