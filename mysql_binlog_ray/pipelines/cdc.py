"""The flagship CDC pipeline: binlog shards -> exactly-once Parquet lake.

Ray-native realization of the reference's whole dataflow plus the sink
it leaves to the consumer (SURVEY.md §2.7), as plain Ray tasks over a
filesystem exchange:

    _event_sources(event shards[, cut])              # S3/S6: resumable source
      -> per CPU (or per ~16 MiB), a spill task;     # task count by CPUs
         per shard in turn: key pass (merge keys,    # M2/M3/M4
           seqs, commit stamps, tombstones)
           -> partial LWW combine over the keys      # M6 combiner half, M8
           -> value pass: newest image per key only
           -> `_part` hash                           # M5
           -> one Arrow IPC file per unit, one       # keyed exchange
              record batch per partition
      -> per CPU, a merge task, started by Ray once
         the last spill ended; per partition of its
         share: one sort + one take (final LWW in
         key order), parquet into _compact/          # M6/M7 exactly-once sink
      -> once every merge task succeeded, the files
         move into place                             # one write path
      -> watermark manifest commit                   # M7 atomicity point

Nothing materializes the full stream; the only all-to-all exchange
carries partially-combined rows, so a hot key reaches its merge task as
at most one row per read unit.  Resume reads back only touched
partitions, inside the merge task that rewrites them, so a
``run_to_lake`` commit runs no Ray Data execution.  The snapshot seed
and ``compact_lake`` feed the same exchange (snapshot blocks, committed
partition files) and write through the same merge task; the lake has
one writer, :func:`_merge_write_partition`, and one write path: every
commit stages its files and :func:`_exchange` moves them into place, so
a failed merge task leaves every committed file as it was.  The
Dataset-returning paths (``run_to_dataset``, ``state_as_of``) and
``audit_lake``'s replay side take ``run_to_lake``'s event sources
(:func:`_event_sources`, the one source plan and the one decode) and
run the same exchange into a scratch dir.  Every reader of partition
files, committed or scratch, gets their paths from one resolver,
:func:`_partition_files`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import uuid
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..protocol.constants import EventType
from ..stages.decode_stage import BinlogDecoder, event_headers
from ..stages.merge import (
    PARTITION_HASH_ALGO,
    SEQ_COLS,
    add_partition_column,
    lww_final,
    lww_partial,
)
from ..state.checkpoint import (
    _fsync_dir,
    atomic_write_parquet,
    commit_manifest,
    read_manifest,
)

DEFAULT_KEY_COLS = ("repo", "path")


@dataclass
class CdcConfig:
    key_cols: tuple[str, ...] = DEFAULT_KEY_COLS
    num_partitions: int = 32
    verify_checksums: bool = True
    databases: list[str] | None = None
    tables: list[str] | None = None
    exclude_databases: list[str] | None = None
    exclude_tables: list[str] | None = None
    target_table: tuple[str, str] | None = None
    decoder_kwargs: dict[str, Any] = field(default_factory=dict)


# compressed event payload per read block, and the block cap (see
# event_read_units)
_EVENT_BLOCK_BYTES = 1 << 24
_MAX_EVENT_BLOCKS = 512


def event_read_units(
    manifest: dict[str, Any], start_after_seq: int | None = None
) -> list[tuple[str, int, int]]:
    """The one block plan for event shards: ``(path, i, k)``, slice ``i``
    of ``k`` equal row slices of ``path``, for the shards past
    ``start_after_seq`` (resume, F2 `EventsIterator.php:92-101`).  ~16 MiB
    of compressed payload per block, at most 512 unless there are more
    files, spread evenly, at least one per file.  Smaller blocks pay
    per-block overhead; larger ones weaken parallelism and the partial
    combine.  Measured fastest and stablest at both 8 and 32 CPUs.  The
    lake's spill tasks take whole shards (a shard is read once) and
    :func:`_pack_sources` packs them by the same ~16 MiB rule with at
    least one task per CPU instead of one per file, so a stream of many
    small shards runs as one task per CPU.  That packing, and the merge
    half's one task per CPU, are timed only at 1 CPU (BASELINE.md
    "PR 16"); at more CPUs only their task counts and lake bytes are
    checked."""
    shards = manifest["shards"]
    if start_after_seq is not None:
        shards = [s for s in shards if s["last_event_seq"] > start_after_seq]
    paths = [s["path"] for s in shards]
    if not paths:
        return []
    total = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
    n = max(len(paths), min(_MAX_EVENT_BLOCKS, total // _EVENT_BLOCK_BYTES))
    base, extra = divmod(n, len(paths))
    ks = [base + (j < extra) for j in range(len(paths))]
    return [(p, i, k) for p, k in zip(paths, ks) for i in range(k)]


def read_event_stream(manifest: dict[str, Any], start_after_seq: int | None = None) -> rd.Dataset:
    """Source stage of the changefeed consumers (``decode_changefeed``,
    ``decode_all_tables``, the payload scans): the shard files past
    ``start_after_seq``, one block per :func:`event_read_units` unit up
    to the block cap.  Column pruning is irrelevant here (payload is the
    data).  The merged-table paths read shards in the spill tasks
    instead (:func:`_event_sources`)."""
    units = event_read_units(manifest, start_after_seq)
    if not units:
        return rd.from_items([])
    paths = list(dict.fromkeys(path for path, _i, _k in units))
    return rd.read_parquet(paths, override_num_blocks=min(_MAX_EVENT_BLOCKS, len(units)))


def _map_decoder(events: rd.Dataset, decoder_kwargs: dict[str, Any]) -> rd.Dataset:
    """Shared decode-stage dispatch: stateless tasks over whole blocks
    with a per-worker cached decoder.  Decoder setup is ~0.5 ms once a
    worker built the layouts' table states, so an actor pool buys nothing and its
    ramp-up adds seconds of variance (measured); registry-actor mode reaches its actor from the cached
    decoder via ``decoder_kwargs["registry_actor_name"]``."""
    cache: dict[str, BinlogDecoder] = {}

    def decode_fn(batch: pa.Table) -> pa.Table:
        dec = cache.get("d")
        if dec is None:
            dec = cache["d"] = BinlogDecoder(**decoder_kwargs)
        return dec(batch)

    return events.map_batches(decode_fn, batch_format="pyarrow", zero_copy_batch=True)


def decode_changefeed(
    events: rd.Dataset,
    registry_snapshot: list[dict[str, Any]],
    cfg: CdcConfig,
    start_after_seq: int | None = None,
) -> rd.Dataset:
    """Decode stage: map_batches over zero-copy Arrow batches of payloads.

    Each block decodes on its own, so a transaction whose XID lands in
    another block keeps its GTID stamp (``commit_source``), or -1 on a
    GTID-less stream; ``sequential.decode_shards_sequential`` decodes
    each shard as one block and is the exact path.
    """
    return _map_decoder(events, _decoder_kwargs(registry_snapshot, cfg, start_after_seq))


def _decoder_kwargs(
    registry_snapshot: list[dict[str, Any]], cfg: CdcConfig, start_after_seq: int | None
) -> dict[str, Any]:
    """``BinlogDecoder`` arguments of a table-targeted decode."""
    return dict(
        registry_snapshot=registry_snapshot,
        target_table=cfg.target_table,
        databases=cfg.databases,
        tables=cfg.tables,
        exclude_databases=cfg.exclude_databases,
        exclude_tables=cfg.exclude_tables,
        verify_checksums=cfg.verify_checksums,
        start_after_seq=start_after_seq,
        **cfg.decoder_kwargs,
    )


def decode_all_tables(
    events: rd.Dataset,
    registry_snapshot: list[dict[str, Any]],
    cfg: CdcConfig | None = None,
    start_after_seq: int | None = None,
) -> rd.Dataset:
    """Multi-table single-pass decode: ONE walk over the stream yields
    every non-filtered table's row events as a JSON changefeed
    ``(schema_name, table_name, op, seq..., before, after)`` — the
    reference's all-tables iteration shape (`print-row-events.php:37-43`).
    Table-targeted pipelines (``decode_changefeed`` / ``run_to_lake``)
    stay the fast path for a single table; this is the fan-out source
    when one stream must feed many per-table consumers."""
    cfg = cfg or CdcConfig()
    decoder_kwargs = dict(cfg.decoder_kwargs)  # e.g. checksum_size overrides
    decoder_kwargs.pop("output", None)
    decoder_kwargs.pop("key_cols", None)
    decoder_kwargs.update(
        registry_snapshot=registry_snapshot,
        output="json",
        databases=cfg.databases,
        tables=cfg.tables,
        exclude_databases=cfg.exclude_databases,
        exclude_tables=cfg.exclude_tables,
        verify_checksums=cfg.verify_checksums,
        start_after_seq=start_after_seq,
    )
    return _map_decoder(events, decoder_kwargs)


def merge_lww(flat: rd.Dataset, cfg: CdcConfig) -> rd.Dataset:
    """Dataset-returning LWW merge of flat rows (``[value cols..., op,
    event_seq, row_seq[, commit_seq]]``) that do not come from event
    shards (``queries.lww_merge_events``): a per-batch partial combine
    (a hot key ships one row per block), then :func:`_exchange_to_dataset`."""
    combined = flat.map_batches(lww_partial, batch_format="pyarrow", fn_args=(cfg.key_cols,))
    return _exchange_to_dataset(((ref, None) for ref in _block_refs(combined)), cfg)


def _exchange_to_dataset(sources: Iterable[tuple], cfg: CdcConfig) -> rd.Dataset:
    """The Dataset paths' one tail: :func:`_exchange` of ``sources``
    into a ``tempfile.mkdtemp()`` scratch dir as in a lake commit, then
    the partition files (:func:`_partition_files`) read back by one
    small Ray task each (:func:`_file_task`; Ray Data's ``read_parquet``
    set-up was nearly all of the read-back's time), every read finished
    before the scratch dir is removed.  Merge tasks write the scratch dir
    on whichever worker runs them, so on a multi-node cluster ``TMPDIR``
    has to be a shared filesystem, like the lake."""
    scratch = tempfile.mkdtemp()
    try:
        parts, _ = _exchange(sources, scratch, cfg, {})
        refs = [_file_task.remote(path) for path in _partition_files(scratch, parts).values()]
        if not refs:
            return rd.from_items([])
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
        return rd.from_arrow_refs(refs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _with_flat_decode(cfg: CdcConfig) -> CdcConfig:
    dk = dict(cfg.decoder_kwargs)
    dk.setdefault("output", "flat")
    dk.setdefault("key_cols", cfg.key_cols)
    return replace(cfg, decoder_kwargs=dk)


def _event_sources(
    manifest: dict[str, Any],
    cfg: CdcConfig,
    start_after: int | None = None,
    stop_at: int | None = None,
) -> list[tuple[tuple, dict[str, Any]]]:
    """The one source plan of every shard replay: ``((path, k),
    decoder_kwargs)`` per shard past ``start_after``, ``k`` its
    :func:`event_read_units` count, for :func:`_spill_task`'s fused flat
    decode.  With ``stop_at``, shards that start past it are pruned and
    the one straddling it becomes ``(path, k, stop_at)``, cut to
    ``event_seq <= stop_at`` before decode.  A manifest purged through
    ``purged_through`` (``sources.wire.purge_spool``; the field of the
    manifest or of a shard entry, as ``spool_shards`` sets it on its
    first) lacks the events up to it: a replay from the start or from
    before it raises."""
    marks = [manifest.get("purged_through")] + [s.get("purged_through") for s in manifest["shards"]]
    purged = max((m for m in marks if m is not None), default=None)
    if purged is not None and (start_after is None or start_after < purged):
        raise ValueError(
            f"the stream's shards are purged through event_seq {purged}: a replay from "
            f"{'its start' if start_after is None else start_after} would miss events; "
            f"resume a lake at or past {purged}"
        )
    cut: dict[str, tuple[int]] = {}
    if stop_at is not None:
        shards = [s for s in manifest["shards"] if s["first_event_seq"] <= stop_at]
        manifest = dict(manifest, shards=shards)
        cut = {s["path"]: (stop_at,) for s in shards if s["last_event_seq"] > stop_at}
    dk = _decoder_kwargs(manifest["table_maps"], _with_flat_decode(cfg), start_after)
    units = event_read_units(manifest, start_after)
    return [((path, k, *cut.get(path, ())), dk) for path, i, k in units if i == 0]


def run_to_dataset(manifest: dict[str, Any], cfg: CdcConfig | None = None) -> rd.Dataset:
    """Full pipeline, returning the merged final table as a Dataset equal
    to a one-shot ``run_to_lake``'s lake: its sources
    (:func:`_event_sources`) through :func:`_exchange_to_dataset`.  As
    there, every ``cfg.key_cols`` column in the target must be a merge
    key of the decoder, else ``ValueError``.  Changefeed consumers
    decode with ``decode_changefeed`` instead."""
    cfg = cfg or CdcConfig()
    return _exchange_to_dataset(_event_sources(manifest, cfg), cfg)


def state_as_of(
    manifest: dict[str, Any],
    watermark: int,
    cfg: CdcConfig | None = None,
) -> rd.Dataset:
    """Time travel by log replay: :func:`run_to_dataset` AS OF
    ``watermark`` (inclusive).  Whole shards past it never leave
    storage (the read-side mirror of the F2 start-position skip); the
    one shard straddling it is cut inside its spill task, before decode.
    The replay needs every event from the stream's start up to
    ``watermark``, so a manifest that ``sources.wire.purge_spool``
    truncated raises ``ValueError``."""
    cfg = cfg or CdcConfig()
    return _exchange_to_dataset(_event_sources(manifest, cfg, stop_at=watermark), cfg)


# ---------------------------------------------------------------------------
# exactly-once lake sink (M7) + resume
# ---------------------------------------------------------------------------


# where a commit's merge tasks write before _exchange moves the files
# into place; it also holds the spill dir
_STAGING_DIR = "_compact"


def _lake_partition_path(lake_dir: str, part: int) -> str:
    return os.path.join(lake_dir, f"part={part:05d}", "data.parquet")


def _cleanup_orphan_parts(lake_dir: str, live_parts: set[int]) -> None:
    """Remove ``part=NNNNN`` dirs not referenced by the committed
    manifest.  Orphans appear when a re-merge under a different partition
    layout (changed num_partitions or hash algorithm) rewrites rows into
    new partitions: leaving the old files would duplicate keys on any
    path listing that ignores the manifest, and wastes lake storage."""
    for entry in os.listdir(lake_dir):
        if entry.startswith("part="):
            try:
                part = int(entry.split("=")[1])
            except ValueError:
                continue
            if part not in live_parts:
                shutil.rmtree(os.path.join(lake_dir, entry), ignore_errors=True)


def _commit_lake(
    lake_dir: str,
    watermark: int,
    parts: list[dict[str, Any]],
    key_cols: tuple[str, ...],
    num_partitions: int,
    **extra: Any,
) -> dict[str, Any]:
    """The lake's one commit path: publish the manifest with the
    partition layout record (``key_cols``, ``num_partitions``,
    ``hash_algo``) that selective resume and ``lake_point_lookup`` rely
    on, plus the caller's ``extra`` fields, then remove the ``part=``
    dirs the new manifest no longer lists.  Returns the manifest."""
    m = commit_manifest(
        lake_dir,
        watermark,
        parts,
        extra={
            "key_cols": list(key_cols),
            "num_partitions": num_partitions,
            "hash_algo": PARTITION_HASH_ALGO,
            **extra,
        },
    )
    _cleanup_orphan_parts(lake_dir, {p["part"] for p in parts})
    return m


def _partition_files(lake_dir: str, entries: Iterable[dict[str, Any]]) -> dict[int, str]:
    """The one resolver of partition files: ``{part: path}`` for the
    partition entries (a manifest's ``partitions`` or :func:`_exchange`'s
    result, in a lake or a scratch dir) that hold rows, in entry order.
    Every reader of partition files gets its paths here; only this and
    the writer spell the file layout (:func:`_lake_partition_path`)."""
    return {p["part"]: _lake_partition_path(lake_dir, p["part"]) for p in entries if p["rows"] > 0}


def _read_lake_file(path: str) -> pa.Table:
    """One partition file as Arrow (``ParquetFile`` infers no hive
    ``part`` column)."""
    return pq.ParquetFile(path).read()


@ray.remote
def _file_task(path: str, fn: Any = None, *args: Any) -> Any:
    """One small Ray task per partition file: :func:`_read_lake_file`,
    then ``fn(table, *args)`` when ``fn`` is given (a point lookup's
    semi-join, the audit's :func:`_file_digest`)."""
    tab = _read_lake_file(path)
    return tab if fn is None else fn(tab, *args)


def _rows_as_inserts(tab: pa.Table, snapshot_seq: int | None = None) -> pa.Table:
    """Rows as flat merge input, [values..., op='insert', event_seq,
    row_seq] (the spilled rows' order).  Lake rows keep their lineage so
    newer events win; snapshot rows get ``(snapshot_seq, 0)``."""
    n = tab.num_rows
    drop = ("op", *SEQ_COLS, "commit_seq")
    cols = {c: tab.column(c) for c in tab.column_names if c not in drop}
    cols["op"] = pa.array(["insert"] * n, pa.string())
    if snapshot_seq is None:
        cols["event_seq"] = tab.column("event_seq")
        cols["row_seq"] = tab.column("row_seq")
    else:
        cols["event_seq"] = pa.array([snapshot_seq] * n, pa.int64())
        cols["row_seq"] = pa.array([0] * n, pa.int32())
    return pa.table(cols)


def _block_refs(ds: rd.Dataset):
    """``ds``'s output block refs as its ONE execution streams them
    (``to_arrow_refs()`` would re-execute the plan for ``schema()``)."""
    return (ref for bundle in ds.iter_internal_ref_bundles() for ref, _md in bundle.blocks)


def _as_arrow(block: Any) -> pa.Table:
    """A Dataset block as Arrow: a caller's snapshot Dataset may hold
    pandas blocks."""
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


def _merge_write_partition(
    new: list[pa.Table],
    part: int,
    lake_dir: str,
    key_cols: tuple[str, ...],
    prior_file: str | None,
    zorder: tuple[list[str], int] | None,
) -> dict[str, Any]:
    """The lake's one writer, the per-partition final merge of the keyed
    exchange: the increment's rows for ``part``, then (selective resume)
    the partition's committed lake rows, read back here from
    ``prior_file`` rather than shipped through the exchange;
    final LWW, row order, one atomic zstd write (plain pages, statistics
    kept) into ``lake_dir/_compact``, which :func:`_exchange` moves into
    place.

    The read-back goes AFTER the new rows so that a column added by DDL
    inside the increment keeps the position the decoder gives it.  Rows
    stay in the key order ``lww_final`` returns, or with ``zorder =
    (cols, bits)`` (compaction only) go along the Morton curve over
    ``cols`` with ties in key order; either way a rerun produces
    byte-identical files (exactly-once via idempotence, SURVEY §7.3).
    Returns the manifest entry plus ``prior_rows``, the committed rows
    read back for it.
    """
    from ..stages.layout import zorder_sort_indices

    prior_rows = 0
    if prior_file:
        prior = _read_lake_file(prior_file)
        prior_rows = prior.num_rows
        new = [*new, _rows_as_inserts(prior)]
    final = lww_final(pa.concat_tables(new, promote_options="default"), key_cols)
    if zorder:
        final = final.take(zorder_sort_indices(final, *zorder, key_cols))
    staged = _lake_partition_path(os.path.join(lake_dir, _STAGING_DIR), part)
    # no dictionary pages: content is unique per row, so the writer would
    # hash every cell into a dictionary that overflows to plain pages
    size = atomic_write_parquet(final, staged, compression="zstd", use_dictionary=False)
    mx = int(pc.max(final.column("event_seq")).as_py()) if final.num_rows else -1
    return {
        "part": part,
        "rows": final.num_rows,
        "bytes": size,
        "max_event_seq": mx,
        "prior_rows": prior_rows,
    }


@ray.remote
def _merge_spilled_partition(
    parts: list[int],
    lake_dir: str,
    key_cols: tuple[str, ...],
    prior_files: dict[int, str],
    zorder: tuple[list[str], int] | None,
    *spilled: tuple[list[tuple[int, str, int]], dict[str, int]],
) -> list[dict[str, Any]]:
    """Merge half of the keyed exchange, one plain Ray task per CPU:
    ``spilled`` are the spill tasks' results, passed as object refs, so
    Ray starts the task once the last spill task has ended.  For each of
    ``parts`` that the spill files hold rows of, in ascending order:
    read its record batches, one ``(path, batch)`` per spill file that
    holds its rows, in spill order, then :func:`_merge_write_partition`
    (which reads back the files ``prior_files`` lists).  Returns
    their manifest entries."""
    chunks: dict[int, list[tuple[str, int]]] = {p: [] for p in parts}
    for entries, _counts in spilled:
        for part, path, i in entries:
            if part in chunks:
                chunks[part].append((path, i))
    out = []
    for part in sorted(p for p, c in chunks.items() if c):
        new = []
        for path, i in chunks[part]:
            # mapped, not read: the batches point at the page cache, so
            # lww_final's take makes the only copy
            with pa.memory_map(path) as f:
                new.append(pa.Table.from_batches([pa.ipc.open_file(f).get_batch(i)]))
        out.append(
            _merge_write_partition(new, part, lake_dir, key_cols, prior_files.get(part), zorder)
        )
    return out


def _spill(parted: pa.Table, spill_dir: str) -> tuple[list[tuple[int, str, int]], int]:
    """ONE uncompressed Arrow IPC file per block, ONE record batch per
    touched partition in ascending partition order; returns its chunk
    index, ``(part, path, batch)`` per partition, and the file's size.
    A block touching 64 partitions costs 1 file + 64 batches instead of
    64 small files, which is the difference between ~N_blocks and
    ~N_blocks x N_parts filesystem ops on the shared scratch dir.  The
    file is read back once and deleted in the same commit, so it is
    written for a cheap hand-over, not for size: no compression, no
    encoding (Exoshuffle's point, Luan et al., SIGCOMM 2023)."""
    pn = parted.column("_part").to_numpy(zero_copy_only=False)
    order = np.argsort(pn, kind="stable")
    sorted_tab = parted.take(pa.array(order)).drop_columns(["_part"]).combine_chunks()
    uniq, bounds = np.unique(pn[order], return_index=True)
    bounds = np.append(bounds, len(pn))
    path = os.path.join(spill_dir, f"chunk-{uuid.uuid4().hex}.arrow")
    os.makedirs(spill_dir, exist_ok=True)
    # combine_chunks leaves one chunk per column, so one batch
    (batch,) = sorted_tab.to_batches()
    with pa.OSFile(path, "wb") as f, pa.ipc.new_file(f, sorted_tab.schema) as w:
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            w.write_batch(batch.slice(int(lo), int(hi - lo)))
    return [(int(part), path, i) for i, part in enumerate(uniq)], os.path.getsize(path)


def _cluster_cpus() -> int:
    """The cluster's CPU count, which sizes the exchange's task counts."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _pack_sources(
    sources: list[tuple[Any, dict[str, Any] | None]], cpus: int
) -> list[list[tuple[Any, dict[str, Any] | None]]]:
    """The spill tasks of planned sources (event shards ``((path, k),
    decoder_kwargs)`` or ``((path, k, stop), decoder_kwargs)``,
    committed partition files ``(path, None)``): the
    read-unit rule's ~16 MiB per task, at least one task per CPU,
    ``min(sources, max(cpus, ceil(bytes / 16 MiB)))`` tasks, each a run
    of consecutive sources of about equal bytes, so the spill order
    stays the source order."""
    sizes = [os.path.getsize(src if isinstance(src, str) else src[0]) for src, _dk in sources]
    total = sum(sizes)
    n = min(len(sources), max(cpus, -(-total // _EVENT_BLOCK_BYTES)))
    tasks: list[list[tuple[Any, dict[str, Any] | None]]] = [[]]
    done = 0
    for j, (source, size) in enumerate(zip(sources, sizes)):
        tasks[-1].append(source)
        done += size
        # close the run at its byte share, or when each task left needs
        # one of the sources left
        left = len(sources) - j - 1
        if len(tasks) < n and (done * n >= total * len(tasks) or left == n - len(tasks)):
            tasks.append([])
    return tasks if tasks[-1] else tasks[:-1]


@ray.remote
def _spill_task(
    sources: list[tuple[Any, dict[str, Any] | None]],
    spill_dir: str,
    key_cols: tuple[str, ...],
    num_partitions: int,
) -> tuple[list[tuple[int, str, int]], dict[str, int]]:
    """Spill half of the keyed exchange, one plain Ray task per packed
    run of planned sources (:func:`_pack_sources`) or per streamed
    Dataset block (see :func:`_exchange`).  Its ``(src,
    decoder_kwargs)`` sources run in turn, one source's tables in
    memory at a time.  With ``decoder_kwargs``,
    ``src`` is an event shard ``(path, k[, stop])``: read ONCE (a unit
    is a row slice of the shard, not a row group of its own), cut to
    ``event_seq <= stop`` when a ``stop`` is given (``state_as_of``),
    then its ``k`` read units decoded with the partial combine fused in
    (``BinlogDecoder.flat_combined``: a located decode that gathers
    value cells only for each key's newest row image; Arrow-equal to
    ``lww_partial`` over the flat decode) and spilled in turn, one IPC
    file each.  Without, a committed lake file path (the layout-change
    re-merge and ``compact_lake``) or a snapshot Dataset block ref,
    already flat.  Every block is spilled without ``commit_seq``.
    Returns :func:`_spill`'s chunk index entries and the counters:
    ``spill_bytes`` (the files' summed size) and, when it decoded, the
    decoders' summed counters."""
    entries, counts = [], Counter(spill_bytes=0)
    for src, decoder_kwargs in sources:
        dec = None
        if decoder_kwargs is None:
            if isinstance(src, str):
                blocks = [_rows_as_inserts(_read_lake_file(src))]
            else:
                blocks = [_as_arrow(ray.get(src))]
        else:
            (path, k, *stop), dec = src, BinlogDecoder(**decoder_kwargs)
            tab = pq.ParquetFile(path).read()
            if stop:
                tab = tab.filter(pc.less_equal(tab.column("event_seq"), stop[0]))
            bounds = [tab.num_rows * i // k for i in range(k + 1)]
            blocks = (
                dec.flat_combined(tab.slice(lo, hi - lo), key_cols)
                for lo, hi in zip(bounds, bounds[1:])
            )
        for flat in blocks:
            if flat.num_rows:
                # nothing after the spill reads commit_seq (lww_final
                # drops it): it is not shipped
                if "commit_seq" in flat.column_names:
                    flat = flat.drop_columns(["commit_seq"])
                got, size = _spill(add_partition_column(flat, key_cols, num_partitions), spill_dir)
                entries += got
                counts["spill_bytes"] += size
        if dec is not None:
            n = dec.n_events, dec.n_rows, dec.n_checksum_failures
            counts.update(dict(zip(("events_decoded", "row_images", "checksum_failures"), n)))
        # one source's tables in memory at a time: drop them before the
        # next source is read
        tab = blocks = flat = None
    return entries, dict(counts)


def _exchange(
    sources: Iterable[tuple[Any, dict[str, Any] | None]],
    lake_dir: str,
    cfg: CdcConfig,
    prior_files: dict[int, str],
    zorder: tuple[list[str], int] | None = None,
) -> tuple[list[dict[str, Any]], dict[str, int]]:
    """The engine's one keyed exchange (Spark-external-shuffle shape) in
    plain Ray tasks and the lake's one write path: ``run_to_lake``
    (event read units, plus the committed partition files on a layout
    change), ``seed_lake_from_snapshot`` (snapshot blocks) and
    ``compact_lake`` (committed partition files, ``zorder`` row order);
    :func:`_exchange_to_dataset` runs it into a scratch dir for the
    Dataset-returning paths (``run_to_dataset`` and ``state_as_of`` with
    ``run_to_lake``'s event sources, :func:`merge_lww` with partially
    combined flat blocks).

    The task count follows the cluster's CPUs, not the input's files
    and partitions.  Spill half: ``sources`` are ``(src,
    decoder_kwargs)`` pairs; a list (planned sources) is packed into
    CPU-sized :func:`_spill_task` runs by :func:`_pack_sources`, any
    other iterable (streamed Dataset blocks) gets one task per source.
    Two tasks per CPU are in flight so streamed blocks stay under Ray
    Data's backpressure; each task writes one Arrow IPC file per block
    into ``_compact/_shuffle``, one record batch per touched partition.
    Merge half: ``min(CPUs, num_partitions)`` :func:`_merge_spilled_partition`
    tasks, partition ``p`` dealt to task ``p % n``, each given the spill
    results' refs, so Ray starts them as the last spill task ends with
    no driver round trip in between; each writes
    ``_compact/part=NNNNN/data.parquet`` for its touched partitions (and
    reads back the committed file that ``prior_files``, the resolver's
    ``{part: path}`` of a selective resume, lists for the partition).
    The driver waits on the merge results and then reads the counters
    from the spill results.

    Only once every merge task succeeded are the files moved into place,
    each destination dir fsync'd, so a failed task leaves every committed
    file untouched; the moves are not atomic as a group.  ``_compact`` is
    removed before (a crashed commit's leftovers) and after, on failure
    too once every submitted task has ended (a running task would
    re-create it).  Returns the manifest entries of the rewritten
    partitions and the summed counters: ``spill_bytes``,
    ``readback_rows`` (the prior rows the merge tasks read) and
    ``partitions_rewritten`` always, the decode
    counters when events were decoded.

    The staging dir lives under the lake, so a multi-node cluster needs
    nothing the lake itself does not: merge tasks read back live files
    on whichever worker runs them, so the lake must be a shared
    filesystem anyway.
    """
    staging = os.path.join(lake_dir, _STAGING_DIR)
    spill_dir = os.path.join(staging, "_shuffle")
    shutil.rmtree(staging, ignore_errors=True)
    cpus = _cluster_cpus()
    if isinstance(sources, list):
        tasks: Iterable[list] = _pack_sources(sources, cpus)
    else:
        tasks = ([source] for source in sources)
    spills: list[ray.ObjectRef] = []
    merges: list[ray.ObjectRef] = []
    try:
        running: list[ray.ObjectRef] = []
        for task in tasks:  # the next task is pulled only when the window has room
            spills.append(_spill_task.remote(task, spill_dir, cfg.key_cols, cfg.num_partitions))
            running.append(spills[-1])
            if len(running) >= 2 * cpus:
                _, running = ray.wait(running, num_returns=1)
        # each merge task reads its partitions' chunks in spill order,
        # sources first to last: decoded rows come before the committed
        # rows a layout change re-merges, so the merged columns keep the
        # decoder's order whatever the spill files are named.  An
        # increment with no row events touches no partition
        n = min(cpus, cfg.num_partitions)
        merges = [
            _merge_spilled_partition.remote(
                list(range(j, cfg.num_partitions, n)),
                lake_dir,
                cfg.key_cols,
                prior_files,
                zorder,
                *spills,
            )
            for j in range(n)
        ]
        parts = sorted((p for got in ray.get(merges) for p in got), key=lambda p: p["part"])
        counters: Counter[str] = Counter()
        for _entries, counts in ray.get(spills):
            counters.update(counts)
        counters["readback_rows"] = sum(p.pop("prior_rows") for p in parts)
        counters["partitions_rewritten"] = len(parts)
        for p in parts:
            dst = _lake_partition_path(lake_dir, p["part"])
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            os.replace(_lake_partition_path(staging, p["part"]), dst)
            _fsync_dir(os.path.dirname(dst))
        return parts, dict(counters)
    finally:
        pending = spills + merges
        if pending:
            ray.wait(pending, num_returns=len(pending))
        shutil.rmtree(staging, ignore_errors=True)


def run_to_lake(
    manifest: dict[str, Any],
    lake_dir: str,
    cfg: CdcConfig | None = None,
    resume: bool = True,
) -> dict[str, Any] | None:
    """Run the pipeline into a partitioned Parquet lake with an atomic
    watermark manifest; rerun/resume reproduces the identical table.

    Returns the committed manifest.  A stream manifest with no shards
    (a tail session that spooled no events) is nothing new: it returns
    the prior manifest, or None for a lake never committed (or with
    ``resume=False``), and writes nothing.  Besides ``elapsed_sec`` it records
    :func:`_exchange`'s counters: ``readback_rows`` (committed rows the
    merge tasks read back), ``partitions_rewritten``, ``spill_bytes``,
    the size of the exchange's spill files, and the spill tasks' decode
    counters ``events_decoded``, ``row_images`` and
    ``checksum_failures``.  Every commit made here records them (fresh,
    selective or layout change); a snapshot seed and ``compact_lake``
    decode nothing and record the first three.  Every commit is staged:
    :func:`_exchange` moves its files into place only once every merge
    task succeeded.
    """
    t_start = time.time()
    cfg = cfg or CdcConfig()
    prior = read_manifest(lake_dir) if resume else None
    start_after = prior["watermark"] if prior else None

    if not manifest["shards"]:
        return prior  # no events: nothing new
    watermark = max(s["last_event_seq"] for s in manifest["shards"])
    if prior and prior["watermark"] >= watermark:
        return prior  # nothing new: idempotent no-op

    # selective (O(increment)) resume requires the prior lake's partition
    # layout to be reproducible: same partition count AND same hash
    # algorithm.  Then resume reads back only touched partitions, inside
    # the merge task: each task that rewrites a partition reads its
    # committed file itself (``prior_files``), and untouched partitions
    # keep their files and manifest rows.  Otherwise fall back to a full
    # re-merge of prior state, re-hashed into the new layout — prior
    # partition files/manifest rows must NOT be carried over then
    # (carrying them would duplicate keys on read_lake; their orphaned
    # files are cleaned after the commit).
    selective = (
        prior is not None
        and prior.get("num_partitions") == cfg.num_partitions
        and prior.get("hash_algo") == PARTITION_HASH_ALGO
    )
    sources = _event_sources(manifest, cfg, start_after)
    committed = _partition_files(lake_dir, prior["partitions"]) if prior else {}
    if not selective:
        sources += [(path, None) for path in committed.values()]
    parts, counters = _exchange(sources, lake_dir, cfg, committed if selective else {})
    if selective:
        have = {p["part"] for p in parts}
        parts.extend(p for p in prior["partitions"] if p["part"] not in have)
    return _commit_lake(
        lake_dir,
        watermark,
        parts,
        cfg.key_cols,
        cfg.num_partitions,
        elapsed_sec=round(time.time() - t_start, 3),
        resumed_from=start_after,
        **counters,
    )


def seed_lake_from_snapshot(
    snapshot: rd.Dataset,
    snapshot_seq: int,
    lake_dir: str,
    cfg: CdcConfig | None = None,
) -> dict[str, Any]:
    """Write a consistent table snapshot as a lake baseline at watermark
    ``snapshot_seq`` (the Debezium-style *initial load*: reference users
    bootstrap replicas by dump-then-stream; the reference itself only
    streams, `README.md:60-66` assumes a server-given start position).

    The snapshot must be transactionally consistent as of
    ``snapshot_seq`` and must carry the stream's CURRENT decoded schema
    (same value columns, same order — take the snapshot after any DDL,
    or pre-align columns).  Snapshot rows get lineage
    ``(event_seq=snapshot_seq, row_seq=0)``: any catch-up event is
    strictly newer, and events at or before the watermark are skipped by
    the normal resume path — so ``run_to_lake(..., resume=True)``
    afterwards is an ordinary incremental step.  Scale shape: the
    snapshot streams through the same partition hash + keyed exchange as
    the CDC sink; nothing is driver-materialized.
    """
    cfg = cfg or CdcConfig()
    if read_manifest(lake_dir) is not None:
        raise ValueError(
            f"lake {lake_dir} already has a manifest; "
            "seed_lake_from_snapshot only initializes empty lakes"
        )

    flat = snapshot.map_batches(
        _rows_as_inserts, batch_format="pyarrow", fn_kwargs={"snapshot_seq": snapshot_seq}
    )
    parts, counters = _exchange(((ref, None) for ref in _block_refs(flat)), lake_dir, cfg, {})
    return _commit_lake(
        lake_dir, snapshot_seq, parts, cfg.key_cols, cfg.num_partitions, bootstrap=True, **counters
    )


def bootstrap_lake(
    snapshot: rd.Dataset,
    snapshot_seq: int,
    manifest: dict[str, Any],
    lake_dir: str,
    cfg: CdcConfig | None = None,
) -> dict[str, Any]:
    """Initial load + binlog catch-up in one call: seed the lake from a
    snapshot consistent at ``snapshot_seq``, then apply everything the
    stream manifest holds beyond it.  The catch-up is the ordinary
    idempotent resume — a crashed bootstrap can simply be re-run: if the
    seed already committed (manifest watermark >= snapshot_seq), seeding
    is skipped and the catch-up resumes from the committed watermark.  A
    pre-existing lake BEHIND the snapshot point is refused — it cannot
    have come from this bootstrap, and resuming over it would interleave
    two histories."""
    prior = read_manifest(lake_dir)
    if prior is None:
        seed_lake_from_snapshot(snapshot, snapshot_seq, lake_dir, cfg)
    elif prior["watermark"] < snapshot_seq:
        raise ValueError(
            f"lake {lake_dir} has a manifest at watermark "
            f"{prior['watermark']} < snapshot_seq {snapshot_seq}; it was "
            "not produced by this bootstrap — use a fresh lake_dir"
        )
    return run_to_lake(manifest, lake_dir, cfg, resume=True)


def run_tables_to_lakes(
    manifest: dict[str, Any],
    base_dir: str,
    table_cfgs: dict[tuple[str, str], CdcConfig],
    resume: bool = True,
) -> dict[str, dict[str, Any]]:
    """Per-table exactly-once lakes from one binlog stream.

    Each table runs its own targeted flat-decode pipeline (one full
    stream pass per table — other tables' row events are filtered
    BEFORE row decode, so only the event walk repeats, not row decode)
    into ``base_dir/<schema>.<table>``; every lake keeps its own
    watermark manifest, so each table resumes independently.  Tables
    run one after another; each table's exchange already runs one task
    per CPU.  For every table from literally ONE stream pass, use
    ``decode_all_tables`` — the trade is its JSON row rendering vs this
    path's typed flat decode and exactly-once sinks.
    """
    return {
        f"{schema}.{table}": run_to_lake(
            manifest,
            os.path.join(base_dir, f"{schema}.{table}"),
            replace(cfg, target_table=(schema, table)),
            resume=resume,
        )
        for (schema, table), cfg in table_cfgs.items()
    }


def read_lake(lake_dir: str) -> rd.Dataset:
    """The committed lake rows: the files :func:`_partition_files`
    resolves from the manifest, read with ``partitioning=None`` so no
    hive ``part`` column comes from the ``part=`` dirs.  A partition
    untouched since an ``ALTER`` lacks the added columns; its blocks
    carry the schema it was written with."""
    m = read_manifest(lake_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest in {lake_dir}")
    paths = list(_partition_files(lake_dir, m["partitions"]).values())
    # read_parquet refuses an empty path list
    return rd.read_parquet(paths, partitioning=None) if paths else rd.from_items([])


def lake_point_lookup(lake_dir: str, keys) -> pa.Table:
    """Partition-pruned point lookup over the exactly-once lake: hash the
    requested keys with the manifest's recorded algorithm and read ONLY
    the partition files they map to (:func:`_partition_files`), then keep
    exactly the requested keys (semi-join).  O(distinct requested
    partitions) I/O — the query-side payoff of the hash-clustered layout
    at 100 TB: a single-key audit touches one file, never the lake.

    ``keys`` is a ``pa.Table`` carrying the lake's key columns (manifest
    ``key_cols``), or a list of scalars for a single-column key.  Returns
    the matching live rows as one Arrow table (point lookups are small by
    contract; use ``read_lake`` for scans).  A partition untouched since
    an ``ALTER`` lacks the added columns: its rows hold nulls there.  The
    columns come in the newest file's order (the file of the partition
    entry with the largest ``max_event_seq``), then any other column of
    the files read.
    """
    from ..stages.bucketed import _type_family, normalize_probe, probe_semi_join
    from ..stages.merge import partition_codes

    m = read_manifest(lake_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest in {lake_dir}")
    if m.get("hash_algo") != PARTITION_HASH_ALGO:
        raise ValueError(
            f"lake hashed with {m.get('hash_algo')!r}; this build computes "
            f"{PARTITION_HASH_ALGO!r} — compact_lake() rewrites the layout"
        )
    key_cols = tuple(m["key_cols"])
    files = _partition_files(lake_dir, m["partitions"])
    if not files:
        return pa.table({k: pa.array([], pa.null()) for k in key_cols})
    # family guard BEFORE pruning: the lake manifest predates families,
    # so derive them from the newest partition file's schema — a float
    # probe of an int-keyed lake would hash to the wrong partition and miss
    newest = max((p for p in m["partitions"] if p["part"] in files), key=lambda p: p["max_event_seq"])
    schema = pq.read_schema(files[newest["part"]])
    families = {
        k: _type_family(schema.field(k).type) for k in key_cols if k in schema.names
    }
    keys = normalize_probe(keys, key_cols, families)
    codes = partition_codes(keys, key_cols, int(m["num_partitions"]))
    wanted = sorted(set(int(c) for c in np.unique(codes)) & files.keys())
    if not wanted:
        return schema.empty_table()
    if len(wanted) <= 8:
        # a handful of files: driver-side reads beat task overhead
        out = [probe_semi_join(_read_lake_file(files[p]), keys, key_cols) for p in wanted]
    else:
        # wide probe set: one Ray task per partition, probe broadcast once
        keys_ref = ray.put(keys)
        out = ray.get(
            [_file_task.remote(files[p], probe_semi_join, keys_ref, key_cols) for p in wanted]
        )
    # the newest schema first: unification keeps the first table's column order
    return pa.concat_tables([schema.empty_table(), *out], promote_options="default")


def follow(
    manifest: dict[str, Any],
    lake_dir: str,
    cfg: CdcConfig | None = None,
) -> dict[str, Any] | None:
    """Tailing/incremental ingest step: apply whatever the stream
    manifest contains beyond the lake's watermark (micro-batch follow
    mode — the batch-replay equivalent of the reference's endless
    `foreach ($eventStream ...)` loop, `examples/print-row-events.php:37-43`).

    Call repeatedly as the stream grows; each call is an idempotent
    resume, so a crashed or repeated step never corrupts the lake.  A
    manifest with no shards yet returns the lake's manifest (None
    before its first commit).
    """
    return run_to_lake(manifest, lake_dir, cfg, resume=True)


def compact_lake(
    lake_dir: str,
    new_num_partitions: int,
    cfg: CdcConfig | None = None,
    zorder_cols: list[str] | None = None,
    zorder_bits: int = 16,
) -> dict[str, Any]:
    """Lake maintenance: rewrite the lake under a new partition count
    (e.g. after data growth made partitions lopsided).  Content is
    unchanged — rows re-hash to new partitions, lineage preserved —
    and the switch is atomic via the manifest commit.  Old partition
    dirs beyond the new count are removed after the commit.

    The committed partition files go through the keyed exchange and
    its one writer (:func:`_exchange`), so the files equal a one-shot
    run at ``new_num_partitions`` byte for byte, a failure while they
    are written leaves the committed lake as is, and the manifest
    records the exchange's counters as a ``run_to_lake`` commit does.

    ``zorder_cols`` (integer columns) switches the intra-partition row
    order from the key sort to the Morton curve over those columns (the
    OPTIMIZE ZORDER analog), with ties in key order: parquet row-group
    min/max stats then prune on EVERY listed column for range scans
    over the lake.  Partition membership, content, watermark, and
    resume metadata are untouched — only row order inside each
    partition file changes.  The order lasts until the next
    ``follow`` step that touches the partition, which rewrites it in
    key order.
    """
    cfg = cfg or CdcConfig()
    m = read_manifest(lake_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest in {lake_dir}")
    key_cols = tuple(m.get("key_cols") or cfg.key_cols)
    cfg = replace(cfg, key_cols=key_cols, num_partitions=new_num_partitions)
    sources = [(path, None) for path in _partition_files(lake_dir, m["partitions"]).values()]
    zorder = (zorder_cols, zorder_bits) if zorder_cols else None
    parts, counters = _exchange(sources, lake_dir, cfg, {}, zorder)
    return _commit_lake(lake_dir, m["watermark"], parts, key_cols, new_num_partitions, **counters)


def _file_digest(tab: pa.Table, fields: list[pa.Field]) -> tuple[int, int]:
    """A partition file's row count and order-independent content digest
    over ``fields``: the sum mod 2^64 of per-row hashes
    (``hash_pandas_object`` over the fields in order).  Numeric columns
    are normalized to float64 so parquet nullable-int round trips hash
    like the replay; a field the file lacks (a partition untouched since
    an ``ALTER``) hashes as an all-null column of its type."""
    import pandas as pd

    n = tab.num_rows
    pdf = pa.table(
        [tab.column(f.name) if f.name in tab.column_names else pa.nulls(n, f.type) for f in fields],
        names=[f.name for f in fields],
    ).to_pandas()
    for c in pdf.columns:
        if pd.api.types.is_numeric_dtype(pdf[c]):
            pdf[c] = pdf[c].astype("float64")
    h = pd.util.hash_pandas_object(pdf, index=False).to_numpy().astype(np.uint64)
    return n, int(h.sum(dtype=np.uint64))  # uint64 wraps mod 2^64


def audit_lake(
    manifest: dict[str, Any],
    lake_dir: str,
    cfg: CdcConfig | None = None,
):
    """Anti-entropy audit of the exactly-once lake: re-derive the
    expected final state by log replay and compare per PARTITION against
    the committed files — row count plus an order-independent content
    digest (:func:`_file_digest`), so a single flipped value, duplicated
    row, or lost row pinpoints its partition.

    The replay is :func:`_exchange` of ``run_to_lake``'s event sources
    into a scratch dir, merged and partitioned by the lake manifest's
    ``key_cols`` and ``num_partitions`` (not ``cfg``'s), so each scratch
    file holds exactly the rows its partition should.  The LAKE side
    digests each committed file :func:`_partition_files` resolves, so a
    row stored in the WRONG partition file — the misplacement class a
    partition-pruned lookup would silently miss — shows up as a digest
    mismatch in both the partition it left and the one it invaded.  The
    compared columns are the replay's columns that some lake file holds
    (a side with no file adds no constraint); a file that lacks one
    hashes it as all-null.

    Scale shape: one plain Ray task per file on each side, each
    returning ``(rows, digest)``; the driver reads only the files'
    schemas.  No Ray Data execution runs and no copy of the final table
    enters the object store.

    Returns a pandas frame (part, expected_rows, actual_rows, match)
    sorted by part, one row per partition holding data on either side.
    """
    import pandas as pd

    cfg = cfg or CdcConfig()
    m = read_manifest(lake_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest in {lake_dir}")
    key_cols = tuple(m.get("key_cols") or cfg.key_cols)
    cfg = replace(cfg, key_cols=key_cols, num_partitions=int(m["num_partitions"]))
    lake = _partition_files(lake_dir, m["partitions"])
    scratch = tempfile.mkdtemp()
    try:
        parts, _ = _exchange(_event_sources(manifest, cfg), scratch, cfg, {})
        sides = (_partition_files(scratch, parts), lake)
        # the replay's columns that some lake file holds, typed as the
        # replay has them
        schemas = [[pq.read_schema(path) for path in side.values()] for side in sides]
        names = [set().union(*(sc.names for sc in side)) for side in schemas if side]
        types = {f.name: f.type for side in reversed(schemas) for sc in side for f in sc}
        common = sorted(set.intersection(*names)) if names else []
        fields = [pa.field(c, types[c]) for c in common]
        refs = [[_file_task.remote(p, _file_digest, fields) for p in s.values()] for s in sides]
        # every replay digest is read before the scratch dir goes; a
        # file with no rows holds no data
        exp, act = [{p: d for p, d in zip(s, ray.get(r)) if d[0]} for s, r in zip(sides, refs)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    parts = sorted(exp.keys() | act.keys())
    return pd.DataFrame(
        {
            "part": np.array(parts, dtype=np.int64),
            "expected_rows": np.array([exp.get(p, (0,))[0] for p in parts], dtype=np.int64),
            "actual_rows": np.array([act.get(p, (0,))[0] for p in parts], dtype=np.int64),
            "match": np.array([exp.get(p) == act.get(p) for p in parts], dtype=bool),
        }
    )


def schema_history(
    manifest: dict[str, Any],
    start_after_seq: int | None = None,
    checksum_size: int = 4,
) -> rd.Dataset:
    """DDL changelog of the stream: one row per QUERY event —
    ``(event_seq, schema_name, sql)`` in stream order.  The lineage
    surface for schema evolution (M3/M9): which DDL landed, where in
    the sequence, against which schema.

    Scale shape: a distributed scan of the header columns
    (``decode_stage.event_headers``), full parse only for the rare QUERY
    events; output is O(DDL count)."""
    from ..protocol.decode import parse_header, parse_query

    def extract(batch: pa.Table) -> pa.Table:
        queries = np.flatnonzero(event_headers(batch)["type"] == EventType.QUERY)
        schemas: list[str] = []
        sqls: list[str] = []
        for payload in batch.column("payload").take(queries).to_pylist():
            schema, sql = parse_query(payload, parse_header(payload, checksum_size))
            schemas.append(schema)
            sqls.append(sql)
        return pa.table(
            {
                "event_seq": batch.column("event_seq").take(queries).cast(pa.int64()),
                "schema_name": pa.array(schemas, pa.string()),
                "sql": pa.array(sqls, pa.string()),
            }
        )

    events = read_event_stream(manifest, start_after_seq)
    return events.map_batches(extract, batch_format="pyarrow").sort("event_seq")
