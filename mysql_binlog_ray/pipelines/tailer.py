"""Live tailing daemon: the reference's endless event loop + 1 s stats
timer, as a micro-batch follow loop.

The reference runs ``foreach ($eventStream as $event)`` forever with a
``StatisticsCollector`` printing a line per second
(`/root/reference/src/StatisticsCollector.php:13-95`,
`examples/print-row-events.php:37-43`).  The Ray-native equivalent polls
the stream's manifest (the distributed stand-in for "the server has more
binlog"), applies whatever lies beyond the lake's watermark as an
idempotent ``follow`` step, and reports per-interval statistics.

Every iteration is crash-safe: ``follow`` is an exactly-once resume, so
killing the daemon at any point and restarting it never corrupts or
duplicates lake state.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from .cdc import CdcConfig, follow, read_manifest

log = logging.getLogger(__name__)

# an endless run keeps only this many of the latest TailStats in the
# history it returns, so a long-lived daemon runs in bounded memory
HISTORY_LIMIT = 1_000
# a snapshotless tick is logged on the first occurrence and every this
# many after it
SNAPSHOTLESS_LOG_EVERY = 100


@dataclass
class TailStats:
    """One follow iteration's accounting (StatisticsCollector analog)."""

    iteration: int
    wall_time: float
    elapsed_sec: float
    watermark: int
    prev_watermark: int | None
    rows_total: int
    rows_delta: int
    advanced: bool
    # the stream manifest's max last_event_seq when the tick read it
    source_head: int

    @property
    def rows_per_sec(self) -> float:
        return self.rows_delta / self.elapsed_sec if self.elapsed_sec > 0 else 0.0

    @property
    def lag_events(self) -> int:
        """Events the lake was behind the source when the tick began
        (no prior watermark counts as -1).  Unlike ``rows_delta``, this
        moves on update-only traffic too."""
        prev = -1 if self.prev_watermark is None else self.prev_watermark
        return self.source_head - prev


@dataclass
class FollowDaemon:
    """Poll a stream manifest and keep a lake caught up.

    ``run(max_iterations=...)`` for tests / bounded catch-up; without it
    the loop is endless (the reference's behavior) until ``stop()`` is
    called from another thread or the callback returns False.  A bounded
    run returns every iteration's stats; an endless one only the last
    ``HISTORY_LIMIT``.
    """

    manifest_path: str
    lake_dir: str
    cfg: CdcConfig | None = None
    interval_sec: float = 1.0
    on_stats: Callable[[TailStats], Any] | None = None
    # transient-error budget: a manifest being republished concurrently
    # (partial JSON, shard paths mid-move) skips the tick; only
    # max_consecutive_errors failures in a row abort the daemon
    max_consecutive_errors: int = 30
    _stop: bool = field(default=False, repr=False)
    _errors: int = field(default=0, repr=False)
    # ticks spent waiting on a cleanly-parsed manifest with no
    # table_maps yet (idle stream) — logged, never aborts
    _snapshotless_ticks: int = field(default=0, repr=False)

    def stop(self) -> None:
        self._stop = True

    def _load_manifest(self) -> dict[str, Any] | None:
        if not os.path.exists(self.manifest_path):
            return None
        with open(self.manifest_path) as f:
            return json.load(f)

    def run(self, max_iterations: int | None = None) -> list[TailStats]:
        history: list[TailStats] | deque[TailStats] = (
            [] if max_iterations is not None else deque(maxlen=HISTORY_LIMIT)
        )
        i = 0
        while not self._stop and (max_iterations is None or i < max_iterations):
            t0 = time.time()
            try:
                stream = self._load_manifest()
            except (json.JSONDecodeError, OSError):
                stream = None  # producer mid-publish: try next tick
                self._errors += 1
            if stream is not None and "table_maps" not in stream:
                # a tail that hasn't seen a TABLE_MAP yet (or a pre-scan
                # manifest) — decode can't bind row events; wait for the
                # next republish.  The manifest parsed CLEANLY, so this is
                # a healthy-but-idle stream (heartbeat/rotate-only traffic
                # can look like this indefinitely): it must NOT consume
                # the consecutive-error abort budget.  It does not RESET
                # the budget either — a producer alternating corrupt and
                # snapshotless manifests must still trip the abort, so a
                # parse-error streak survives these ticks untouched.
                stream = None
                self._snapshotless_ticks += 1
                if self._snapshotless_ticks % SNAPSHOTLESS_LOG_EVERY == 1:
                    log.warning(
                        "FollowDaemon: stream manifest %s has no table_maps "
                        "yet (%d snapshotless ticks so far)",
                        self.manifest_path,
                        self._snapshotless_ticks,
                    )
            prior = read_manifest(self.lake_dir)
            prev_wm = prior["watermark"] if prior else None
            prev_rows = prior["totals"]["rows"] if prior else 0
            if stream is not None:
                try:
                    m = follow(stream, self.lake_dir, self.cfg)
                    self._errors = 0
                except FileNotFoundError:
                    # shard paths mid-move during a manifest republish;
                    # follow is idempotent, so skipping the tick is safe
                    self._errors += 1
                    m = None
            else:
                m = None
            if self._errors > self.max_consecutive_errors:
                raise RuntimeError(
                    f"FollowDaemon: {self._errors} consecutive manifest/"
                    f"stream errors reading {self.manifest_path}"
                )
            if m is not None:
                stats = TailStats(
                    iteration=i,
                    wall_time=t0,
                    elapsed_sec=round(time.time() - t0, 4),
                    watermark=m["watermark"],
                    prev_watermark=prev_wm,
                    rows_total=m["totals"]["rows"],
                    rows_delta=m["totals"]["rows"] - prev_rows,
                    advanced=prev_wm is None or m["watermark"] > prev_wm,
                    source_head=max(
                        (s["last_event_seq"] for s in stream["shards"]), default=-1
                    ),
                )
                history.append(stats)
                if self.on_stats is not None:
                    if self.on_stats(stats) is False:
                        break
            i += 1
            # fixed cadence: sleep the remainder of the interval, like the
            # reference's 1 s timer — never busy-spin on an idle stream
            remain = self.interval_sec - (time.time() - t0)
            if remain > 0 and not self._stop and (
                max_iterations is None or i < max_iterations
            ):
                time.sleep(remain)
        return list(history)
