"""Checkpoint / watermark manifest (SURVEY.md §2.7 M7, M9).

The reference's checkpoint token is the yielded BinlogPosition the caller
persists (`/root/reference/src/BinlogPosition.php:9-19`,
`examples/print-row-events.php:45-49`); resume replays past it via the
skip filter (`EventsIterator.php:92-101,207-215`).  Our equivalent is an
``event_seq`` watermark plus per-partition lineage, committed atomically
as ``_manifest.json`` next to the partitioned Parquet lake.

Exactly-once = idempotent replay: partition files have deterministic
names, writes go through fsync'd tmp + rename + dir fsync
(:func:`atomic_write_parquet`), and the manifest commit is the single
atomicity point — a rerun from any checkpoint overwrites partitions
with byte-identical content (SURVEY §7.3).  The CDC lake writes every
commit's partition files into a staging dir and moves them into place
only once every merge task succeeded, so a failed task leaves the
committed files as they were.  The wire tail spools its event shards
through the same :func:`atomic_write_parquet`, so a shard a lake
watermark has passed survives a power loss.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

MANIFEST_NAME = "_manifest.json"


def manifest_path(lake_dir: str) -> str:
    return os.path.join(lake_dir, MANIFEST_NAME)


def read_manifest(lake_dir: str) -> dict[str, Any] | None:
    p = manifest_path(lake_dir)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def commit_manifest(
    lake_dir: str,
    watermark: int,
    partitions: list[dict[str, Any]],
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Atomically publish the manifest (tmp + rename on the same fs)."""
    m = {
        "watermark": watermark,
        "num_partitions": len(partitions),
        "partitions": sorted(partitions, key=lambda p: p["part"]),
        "totals": {
            "rows": sum(p["rows"] for p in partitions),
            "bytes": sum(p["bytes"] for p in partitions),
        },
    }
    if extra:
        m.update(extra)
    atomic_write_json(lake_dir, m)
    return m


def atomic_write_json(
    lake_dir: str, payload: dict[str, Any], filename: str | None = None
) -> None:
    """Atomically publish ``payload`` as the dir's manifest (fsync'd tmp
    + rename on the same fs); shared by the CDC lake, the training-shard
    sink, and the wire-tail spool (which uses the stream-manifest name
    ``manifest.json`` via ``filename``)."""
    os.makedirs(lake_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=lake_dir, prefix="._manifest-")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f)
            f.flush()
            os.fsync(f.fileno())  # data durable BEFORE the rename commits
        dest = (
            manifest_path(lake_dir)
            if filename is None
            else os.path.join(lake_dir, filename)
        )
        os.replace(tmp, dest)
        _fsync_dir(lake_dir)  # rename durable too (power-loss safety)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_parquet(table, path: str, **kwargs) -> int:
    """Write one parquet file atomically; returns bytes written."""
    import pyarrow.parquet as pq

    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix="." + os.path.basename(path) + "-")
    os.close(fd)
    try:
        pq.write_table(table, tmp, **kwargs)
        size = os.path.getsize(tmp)
        fd2 = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd2)  # data durable before the rename commits
        finally:
            os.close(fd2)
        os.replace(tmp, path)
        _fsync_dir(d)
        return size
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
