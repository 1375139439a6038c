"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start_ns, end_ns, parent, root)``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``root`` the id of the
burst or deploy the span belongs to, shared by every span under it. The
recorder wraps public entry points of the program (module functions and
class attributes) for the lifetime of a ``with recorder.installed(...)``
block and restores them afterwards, so untraced runs execute the
unmodified code.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; children never overlap one another
(one thread), so that part is the sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

NAME, START, END, PARENT, ROOT = range(5)


class SpanRecorder:
    """Records nested spans and per-layer counts in memory."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._root = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0, parent, self._root])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A top-level span opening a new burst or deploy id."""
        self._root += 1
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextlib.contextmanager
    def excluded(self) -> Iterator[None]:
        """Discard the spans and counts recorded inside (checker work)."""
        mark, counts = len(self.spans), dict(self.counts)
        try:
            yield
        finally:
            del self.spans[mark:]
            self.counts = defaultdict(float, counts)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        when: Callable[..., bool] | None = None,
        skip: Callable[..., bool] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``skip(*args)`` true calls ``fn`` without a span or hook (used
        for cheap early-outs such as an already parsed packet);
        ``when(*args)`` false does the same but still runs ``after``;
        ``after(result, *args)`` records counts from the call.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if skip is not None and skip(*args):
                return fn(*args, **kwargs)
            if when is not None and not when(*args):
                result = fn(*args, **kwargs)
            else:
                index = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(index)
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, patches: Iterable[tuple[Any, str, Callable]]) -> Iterator[None]:
        """Replace ``owner.attr`` by ``make(original)`` while inside."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, make in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    setattr(owner, attr, classmethod(make(original.__func__)))
                else:
                    setattr(owner, attr, make(original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, root)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: list[list[Any]], since: int = 0) -> dict[str, int]:
    """Self ns per span name, over the spans recorded from index ``since``.

    Children are found over the whole list, so a window that starts
    inside a span still subtracts every child from the spans it holds.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    totals: dict[str, int] = defaultdict(int)
    for index in range(since, len(spans)):
        span = spans[index]
        totals[span[NAME]] += span[END] - span[START] - child_ns[index]
    return dict(totals)
