"""Spans recorded around the program's public entry points, from outside.

:class:`Tracer` replaces a function or method with a wrapper that times
each call and restores the original on :meth:`Tracer.close`.  Nothing in
``src/`` knows it is being traced: the wrappers are installed on module
and class attributes, and every ``repro`` module that imported the same
function object under its own name is patched as well, so ``from x
import f`` call sites are covered.

A span is ``(name, start, end, parent)``.  Each span name belongs to the
layer named by its prefix (``runtime.execute`` → ``runtime``).  A span's
self time is its duration minus the durations of its direct child spans,
so self times over all spans never count a second twice and add up, with
the time no span covers, to the traced wall time.

Spans of "hot" names (one per interaction, block or draw batch) are only
aggregated: keeping millions of tuples would cost more memory than the
traced program.  Every other span is kept in memory and written out by
:meth:`Tracer.write`.  Calls from threads other than the one that created
the tracer run untraced, so spans always nest.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.monotonic


class SpanStats:
    """Running totals of one span name."""

    __slots__ = ("calls", "total_s", "self_s", "first_start", "samples")

    def __init__(self, keep_samples: bool) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.first_start: Optional[float] = None
        self.samples: Optional[List[float]] = [] if keep_samples else None


class Tracer:
    """Wraps entry points and accumulates spans, self times and counters."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[List[Any]] = []
        # One frame per open span: [child seconds, index of the nearest kept span].
        self._stack: List[List[Any]] = []
        self._thread = threading.get_ident()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, name)

    def _enter(self, name: str, keep: bool, start: float) -> List[Any]:
        parent = self._stack[-1][1] if self._stack else -1
        index = parent
        if keep:
            index = len(self.spans)
            self.spans.append([name, start, None, parent])
        frame = [0.0, index, keep]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: List[Any], start: float, end: float) -> float:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats(False)
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame[0]
        if stats.first_start is None:
            stats.first_start = start
        if stats.samples is not None:
            stats.samples.append(duration)
        if frame[2]:
            self.spans[frame[1]][2] = end
        return duration

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def keep_samples(self, name: str) -> None:
        """Also record the duration of every call of span ``name``."""
        self.stats.setdefault(name, SpanStats(True))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        keep: bool = True,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> None:
        """Trace ``owner.attr`` (a module function or a class method) as ``name``.

        ``after(tracer, args, result)`` runs once the call returned, outside
        the span, to count what the call produced.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            start = clock()
            frame = tracer._enter(name, keep, start)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name, frame, start, clock())
            if after is not None:
                after(tracer, args, result)
            return result

        self.patch(owner, attr, traced)
        if getattr(owner, "__name__", "").startswith("repro") and not isinstance(owner, type):
            # Rebind every ``from module import attr`` alias of the same object.
            for module_name, module in list(sys.modules.items()):
                if module is owner or not module_name.startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self.patch(module, alias, traced)

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`close`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def close(self) -> None:
        """Restore every wrapped attribute (in reverse order)."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n].self_s for n in names if n in self.stats)

    def samples(self, name: str) -> List[float]:
        stats = self.stats.get(name)
        return list(stats.samples) if stats is not None and stats.samples else []

    def first_start(self, name: str) -> Optional[float]:
        stats = self.stats.get(name)
        return stats.first_start if stats is not None else None

    def covered_s(self) -> float:
        """Seconds covered by some span: the sum of all self times."""
        return sum(stats.self_s for stats in self.stats.values())

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name call counts and self times, plus counters (JSON-native)."""
        return {
            "calls": {name: s.calls for name, s in self.stats.items()},
            "self_s": {name: s.self_s for name, s in self.stats.items()},
            "counters": dict(self.counters),
        }

    def write(self, path: str) -> None:
        """Write kept spans and per-name totals as one JSON document."""
        document = {
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "totals": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for name, s in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.start = clock()
        self.frame = self.tracer._enter(self.name, True, self.start)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer._exit(self.name, self.frame, self.start, clock())
