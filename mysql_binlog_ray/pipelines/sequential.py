"""Per-shard sequential decode (exact M4 commit stamping + E13 integrity).

The block-parallel decode stage (`decode_changefeed`) stamps
``commit_seq = -1`` on rows whose XID lands in a different block (or
their GTID, per ``commit_source``).  This mode, the package's one
exact-commit path, trades a little parallelism granularity for
exactness: one task per shard ("binlog file"), each decoding the shard
as ONE block, so its events are walked strictly in order like the
reference's EventsIterator — so

- every row image gets its transaction's XID (`EventsIterator.php:335-341`),
- with ``strict=True``, :func:`position_discontinuities` checks the
  shard's header columns before the decode: each header's ``log_pos``
  must equal the running offset mod 2^32 (`EventsIterator.php:175-196`),
  a FORMAT_DESCRIPTION must come first (`EventsIterator.php:137-139`)
  and a ROTATE resets the position,
- ROTATE drops in-band table maps (`EventsIterator.php:163-173`), in
  the decode's walk.

Shards are independent files, so the stream still decodes embarrassingly
parallel across shards (SURVEY §4.2) — the unit of order is the file,
exactly as in the source database.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..protocol.constants import BINLOG_START_POS, EventType
from ..stages.decode_stage import BinlogDecoder, event_headers


def position_discontinuities(hdr: np.ndarray) -> int:
    """E13 over one shard's header columns (``decode_stage.event_headers``),
    in stream order; returns the count of events whose ``log_pos`` breaks
    continuity (`EventsIterator.php:175-196`):

    - a FORMAT_DESCRIPTION must come first, else ``ValueError``
      (`EventsIterator.php:137-139`);
    - a ROTATE resets the running offset to 4;
    - the first event after a FORMAT_DESCRIPTION seeds it from its own
      ``log_pos``;
    - every other event's ``log_pos`` must equal (running offset +
      ``event_size``) mod 2^32, and that sum is the new offset."""
    types = hdr["type"]
    fd = types == EventType.FORMAT_DESCRIPTION
    if len(types) and not fd[0]:
        raise ValueError("Expected FORMAT_DESCRIPTION first")  # EventsIterator.php:137-139
    rotate = types == EventType.ROTATE
    after_fd = np.roll(fd, 1)  # event 0 is a FORMAT_DESCRIPTION, so the wrap never matters
    checked = ~(fd | rotate | after_fd)
    log_pos = hdr["log_pos"].astype(np.int64)
    # each checked event's offset runs from the last reset (a ROTATE, or
    # the event seeding it after a FORMAT_DESCRIPTION)
    reset = (rotate | after_fd) & ~fd
    last = np.maximum.accumulate(np.where(reset, np.arange(len(types)), 0))
    run = np.cumsum(np.where(checked, hdr["event_size"].astype(np.int64), 0))
    seed = np.where(rotate, BINLOG_START_POS, log_pos)
    want = (seed[last] + run - run[last]) & 0xFFFFFFFF
    return int((checked & (want != log_pos)).sum())


def decode_shards_sequential(
    manifest: dict[str, Any],
    registry_snapshot: list[dict[str, Any]] | None = None,
    start_after_seq: int | None = None,
    output: str = "changefeed",
    key_cols: tuple[str, ...] | None = None,
    strict: bool = True,
    **decoder_kwargs: Any,
) -> rd.Dataset:
    """One decode task per shard file; rows get exact commit stamps."""
    registry_snapshot = registry_snapshot or manifest["table_maps"]
    shards = manifest["shards"]
    if start_after_seq is not None:
        shards = [s for s in shards if s["last_event_seq"] > start_after_seq]

    def decode_shard(batch: dict) -> pa.Table:
        tables = []
        for path in batch["path"]:
            dec = BinlogDecoder(registry_snapshot=registry_snapshot, start_after_seq=start_after_seq,
                                output=output, key_cols=key_cols, **decoder_kwargs)
            t = pq.read_table(path, columns=["shard_id", "event_seq", "payload"])
            if strict:
                n_bad = position_discontinuities(event_headers(t))
                if n_bad:
                    raise ValueError(f"{n_bad} event-position discontinuities in {path}")
            tables.append(dec(t))
        return pa.concat_tables(tables)

    paths = rd.from_items([{"path": s["path"]} for s in shards])
    return paths.map_batches(decode_shard, batch_size=1, batch_format="numpy")
