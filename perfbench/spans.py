"""In-memory spans for the traced benchmark run.

A span records one call into a layer of the package: its name, start,
end, the span that was open when it started, and the item it belongs
to. Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; a child inherits its parent's item id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, item: str | None = None, **attrs):
        parent = self._open[-1] if self._open else None
        if item is None and parent is not None:
            item = parent.item
        sp = Span(id=next(self._ids), name=name, start=0.0,
                  end=0.0, parent=None if parent is None else parent.id,
                  item=item, attrs=attrs)
        self._open.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()
            self.spans.append(sp)

    def named(self, name: str, **attrs) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def children(self, sp: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == sp.id]

    def self_seconds(self, sp: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        return sp.seconds - sum(c.seconds for c in self.children(sp))

    def dump(self, path: str, label: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sp in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"tracer": label, **asdict(sp)}) + "\n")


def median_ms(spans: list[Span]) -> float:
    return 1e3 * statistics.median(s.seconds for s in spans)


def quantile_ms(spans: list[Span], q: int) -> float:
    """q-th percentile (1..99) of the span durations, in ms."""
    vals = sorted(1e3 * s.seconds for s in spans)
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=100, method="inclusive")[q - 1]
