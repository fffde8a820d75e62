"""In-memory spans and the small statistics the benchmark reports.

A span is (name, start, end, parent, commit).  Spans and counters stay
in memory while the benchmark runs and are written out once at the end.
A span's *self time* is its duration minus the part of its interval that
its child spans cover; overlapping children are counted once.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    commit: int


class Tracer:
    """Records spans around calls into the program's layers, plus
    per-commit counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.commit = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent, self.commit)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float) -> None:
        self.counts[self.commit][name] += n

    def busy_by_commit(self) -> dict[int, dict[str, float]]:
        """Per commit, the summed self time of the spans of each name."""
        own = self_times(self.spans)
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s.commit][s.name] += own[s.id]
        return out

    def to_json(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counts": {str(c): dict(v) for c, v in self.counts.items()},
        }


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children[s.id], s.start, s.end) for s in spans
    }


def median_with_count(values: list[float]) -> tuple[float, int]:
    """(median, sample count); a run with no samples is an error."""
    if not values:
        raise ValueError("no samples")
    return statistics.median(values), len(values)


def freshness(
    sent: list[float], committed: list[float], stolen: list[float] | None = None
) -> tuple[float, int]:
    """Median over commits of commit time minus the time the increment's
    last event was sent, with the number of commits it rests on.  With
    ``stolen`` (per commit, the share of the time the hypervisor took),
    each lag keeps only its unstolen part."""
    stolen = [0.0] * len(sent) if stolen is None else stolen
    if not len(sent) == len(committed) == len(stolen):
        raise ValueError("one send stamp and steal share per commit")
    return median_with_count([(c - s) * (1 - f) for s, c, f in zip(sent, committed, stolen)])
