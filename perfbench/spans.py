"""Spans recorded from outside the program, around calls into its modules.

A span is a name, a start, an end and the index of its parent span (-1 for
none). ``Tracer.patch`` swaps a module attribute for a timing wrapper; since
the engine looks its collaborators up as module globals at call time, a
wrapped ``sprego.formula.tokenize`` is the one ``parse`` calls. ``restore``
puts every original back. Spans are kept in flat arrays, which the garbage
collector does not scan, and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from pathlib import Path

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._own: array | None = None

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = _now()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")
        self._own = None

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- reading the spans -------------------------------------------------

    def self_times(self) -> array:
        """Duration minus the time covered by direct children, per span."""
        if self._own is None:
            own = array("d", (e - s for s, e in zip(self.starts, self.ends)))
            for i, parent in enumerate(self.parents):
                if parent >= 0:
                    own[parent] -= self.ends[i] - self.starts[i]
            self._own = own
        return self._own

    def durations(self, name: str, *, own: bool = False, parent: str | None = None) -> list[float]:
        """Durations (or self times) of the spans called *name*, optionally
        only those whose parent span is called *parent*."""
        times = self.self_times() if own else None
        out = []
        for i, n in enumerate(self.names):
            if n != name:
                continue
            par = self.parents[i]
            if parent is not None and (par < 0 or self.names[par] != parent):
                continue
            out.append(times[i] if own else self.ends[i] - self.starts[i])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [list(span) for span in zip(self.names, self.starts, self.ends, self.parents)],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default
