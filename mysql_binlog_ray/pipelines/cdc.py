"""The flagship CDC pipeline: binlog shards -> exactly-once Parquet lake.

Ray-Data-native realization of the reference's whole dataflow plus the
sink it leaves to the consumer (SURVEY.md §2.7):

    read_parquet(event shards)                       # S3/S6: resumable source
      -> map_batches(decode, pyarrow, zero-copy)     # M2/M3/M4: flat decode+stamp
      -> map_batches(partial LWW combine)            # M6 combiner half
      -> add `_part` hash column                     # M5 key routing
      -> keyed exchange                              # external fs shuffle
      |    (or groupby("_part") object-store sort)   #   (cfg.shuffle)
      -> per-partition final LWW + atomic parquet    # M6/M7 exactly-once sink
      -> watermark manifest commit                   # M7 atomicity point

Streaming execution end-to-end: nothing materializes the full stream;
the only all-to-all exchange carries partially-combined rows.  Resume
reads back only touched partitions, inside the merge task: the task
that rewrites a partition reads that partition's committed file itself,
so a follow step is one Ray Data execution (spill) plus one plain Ray
task per touched partition (merge), and the prior lake rows never
transit the exchange.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

import pyarrow as pa
import ray
import ray.data as rd

from ..stages.decode_stage import BinlogDecoder
from ..stages.merge import (
    PARTITION_HASH_ALGO,
    SEQ_COLS,
    add_partition_column,
    lww_final,
    lww_partial,
)
from ..state.checkpoint import (
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
    # keyed-exchange implementation for the lake sink: 'external' spills
    # per-partition parquet chunks to the lake filesystem (fast, needs a
    # shared fs on multi-node); 'object_store' uses Ray Data's groupby
    # sort shuffle (no fs requirement)
    shuffle: str = "external"
    # M8 active hot-key salting: detect keys with more than salt_threshold
    # row images (distributed sketch) and pre-reduce them under
    # (key, event_seq % n_salts) before the single keyed exchange, so a
    # pathologically hot key contributes <= n_salts rows to its final
    # partition instead of one per upstream batch.  Costs one
    # materialization of the (already partially combined) flat stream;
    # off by default — the partial combiner alone bounds ordinary skew.
    salt_hot_keys: bool = False
    salt_threshold: int = 10_000
    n_salts: int = 16
    decoder_kwargs: dict[str, Any] = field(default_factory=dict)


def read_event_stream(manifest: dict[str, Any], start_after_seq: int | None = None) -> rd.Dataset:
    """Source stage: the shard files listed in the generator manifest.

    Column pruning is irrelevant here (payload is the data), but resume
    (F2, `EventsIterator.php:92-101`) prunes whole shards whose
    last_event_seq is already behind the watermark — the distributed
    version of "start at the configured file/offset".
    """
    shards = manifest["shards"]
    if start_after_seq is not None:
        shards = [s for s in shards if s["last_event_seq"] > start_after_seq]
    paths = [s["path"] for s in shards]
    if not paths:
        return rd.from_items([])
    # Block sizing: ~16 MiB of compressed payload per block (the default
    # splitter makes hundreds of ~1 MiB blocks from these shards and the
    # per-block overhead then dominates; much larger blocks weaken both
    # pipeline parallelism and the per-batch partial combine).  Block
    # count scales with DATA size, deliberately not with CPU count —
    # measured fastest and stablest at both 8 and 32 CPUs.
    total = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
    nblocks = min(512, max(len(paths), total >> 24))
    return rd.read_parquet(paths, override_num_blocks=nblocks)


def _map_decoder(events: rd.Dataset, decoder_kwargs: dict[str, Any]) -> rd.Dataset:
    """Shared decode-stage dispatch: stateless tasks over whole blocks
    with a per-worker cached decoder.  Decoder setup is ~3 ms, so an
    actor pool buys nothing and its ramp-up adds seconds of variance
    (measured); registry-actor mode reaches its actor from the cached
    decoder via ``decoder_kwargs["registry_actor_name"]``."""
    cache: dict[str, BinlogDecoder] = {}

    def decode_fn(batch: pa.Table) -> pa.Table:
        dec = cache.get("d")
        if dec is None:
            dec = cache["d"] = BinlogDecoder(**decoder_kwargs)
        return dec(batch)

    return events.map_batches(decode_fn, batch_format="pyarrow", zero_copy_batch=True)


def build_xid_index(events: rd.Dataset) -> tuple[Any, Any, Any]:
    """(sorted XID event_seqs, XID values, per-file seq boundaries) via a
    distributed payload-prefix scan — one byte peek per event, one output
    row per transaction plus one per file.

    Commit-stamping fallback for GTID-less streams: with GTIDs in the
    stream the decoder stamps exactly in-band and needs no index.  The
    index is one (int64, int64) pair per transaction, collected on the
    driver and broadcast once — suitable whenever the transaction count
    (not the row count) fits driver memory; with GTIDs enabled (any
    modern MySQL/MariaDB) prefer the in-band path at unbounded scale.
    """
    import numpy as np

    from ..protocol.constants import EventType
    from ..protocol.decode import parse_xid
    from ..stages.decode_stage import BinlogDecoder

    def extract(batch: pa.Table) -> pa.Table:
        seqs: list[int] = []
        vals: list[int] = []
        event_seqs = batch.column("event_seq").to_numpy(zero_copy_only=False)
        shard_ids = batch.column("shard_id").to_numpy(zero_copy_only=False)
        shard_lo: dict[int, int] = {}
        for sid in np.unique(shard_ids):  # few shards per batch; min is C
            shard_lo[int(sid)] = int(event_seqs[shard_ids == sid].min())
        for seq, payload in zip(event_seqs, BinlogDecoder._payload_views(batch)):
            if payload[5] == EventType.XID:
                seqs.append(int(seq))
                vals.append(parse_xid(payload))
        n = len(seqs)
        lo_items = sorted(shard_lo.items())
        return pa.table(
            {
                "xid_seq": pa.array(seqs + [-1] * len(lo_items), pa.int64()),
                "xid": pa.array(vals + [-1] * len(lo_items), pa.int64()),
                "shard_id": pa.array([-1] * n + [sid for sid, _ in lo_items], pa.int64()),
                "shard_lo": pa.array([-1] * n + [lo for _, lo in lo_items], pa.int64()),
            }
        )

    idx = events.map_batches(extract, batch_format="pyarrow").to_pandas()
    xids = idx[idx["xid_seq"] >= 0].sort_values("xid_seq")
    # per-shard GLOBAL minimum event_seq = file boundaries (blocks split
    # shards, so take the min across the per-block partials): a row must
    # never be stamped by an XID from a different file (a truncated-tail
    # transaction stays -1 rather than stealing the next file's commit)
    lows = idx[idx["shard_id"] >= 0].groupby("shard_id")["shard_lo"].min()
    bounds = lows.sort_values().to_numpy()
    return xids["xid_seq"].to_numpy(), xids["xid"].to_numpy(), bounds


def repair_commit_seqs(cf: rd.Dataset, xid_index: tuple[Any, Any, Any]) -> rd.Dataset:
    """Fill commit_seq = -1 rows with the first XID at-or-after their
    event_seq (transactions are contiguous within a binlog file, so that
    XID is exactly the row's commit marker).  Vectorized searchsorted per
    batch against the broadcast index.  A row whose candidate XID lies
    beyond its own file's boundary (truncated-tail transaction) stays -1
    — unknown is honest; a foreign file's commit id is not."""
    import numpy as np

    xid_seqs, xid_vals, shard_bounds = xid_index
    ref = ray.put(
        (
            np.asarray(xid_seqs, dtype=np.int64),
            np.asarray(xid_vals, dtype=np.int64),
            np.asarray(shard_bounds, dtype=np.int64),
        )
    )
    cache: dict = {}

    def fix(batch: pa.Table) -> pa.Table:
        commit = batch.column("commit_seq").to_numpy(zero_copy_only=False).copy()
        mask = commit == -1
        if not mask.any():
            return batch
        state = cache.get("i")
        if state is None:
            state = cache["i"] = ray.get(ref)  # one object-store read per worker
        xs, xv, bounds = state
        es = batch.column("event_seq").to_numpy(zero_copy_only=False)[mask]
        pos = np.searchsorted(xs, es, side="left")
        vals = np.full(len(es), -1, dtype=np.int64)
        in_range = pos < len(xs)
        if in_range.any():
            cand = np.minimum(pos, len(xs) - 1)
            same_file = np.searchsorted(bounds, es, side="right") == np.searchsorted(
                bounds, xs[cand], side="right"
            )
            ok = in_range & same_file
            vals[ok] = xv[pos[ok]]
        commit[mask] = vals
        i = batch.column_names.index("commit_seq")
        return batch.set_column(i, "commit_seq", pa.array(commit, pa.int64()))

    return cf.map_batches(fix, batch_format="pyarrow")


def decode_changefeed(
    events: rd.Dataset,
    registry_snapshot: list[dict[str, Any]],
    cfg: CdcConfig,
    start_after_seq: int | None = None,
    exact_commits: bool = False,
) -> rd.Dataset:
    """Decode stage: map_batches over zero-copy Arrow batches of payloads.

    ``exact_commits=True`` adds the XID-index repair pass for GTID-less
    streams (see ``build_xid_index``); GTID streams are exact without it.
    The repair stamps XID-domain values, so it refuses to combine with
    ``commit_source="gtid"`` (it would silently mix numbering domains).
    """
    if exact_commits and cfg.decoder_kwargs.get("commit_source") == "gtid":
        raise ValueError(
            "exact_commits repairs with XID-domain values; "
            "commit_source='gtid' would mix numbering domains — "
            "use 'xid' or 'hybrid'"
        )
    decoder_kwargs = dict(
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
    cf = _map_decoder(events, decoder_kwargs)
    if exact_commits:
        cf = repair_commit_seqs(cf, build_xid_index(events))
    return cf


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
    event_seq, row_seq[, commit_seq]]``): per-batch partial combine ->
    hash partition on ``cfg.key_cols`` into ``cfg.num_partitions`` ->
    ``groupby("_part").map_groups`` final LWW.  The lake sink runs the
    same kernels through its own exchange (``_exchange``)."""
    key_cols = cfg.key_cols

    def _combine_and_partition(batch: pa.Table) -> pa.Table:
        return add_partition_column(lww_partial(batch, key_cols), key_cols, cfg.num_partitions)

    def _final(group: pa.Table) -> pa.Table:
        return lww_final(group, key_cols)

    parted = flat.map_batches(_combine_and_partition, batch_format="pyarrow")
    return parted.groupby("_part").map_groups(_final, batch_format="pyarrow")


def _with_flat_decode(cfg: CdcConfig) -> CdcConfig:
    from dataclasses import replace

    dk = dict(cfg.decoder_kwargs)
    dk.setdefault("output", "flat")
    dk.setdefault("key_cols", cfg.key_cols)
    return replace(cfg, decoder_kwargs=dk)


def run_to_dataset(manifest: dict[str, Any], cfg: CdcConfig | None = None) -> rd.Dataset:
    """Full pipeline, returning the merged final table as a Dataset.

    Uses the flat decode path: before-images are byte-skipped (merge
    keys only for deletes) — the changefeed-shape decode remains
    available via ``decode_changefeed`` for changefeed consumers.
    """
    cfg = _with_flat_decode(cfg or CdcConfig())
    events = read_event_stream(manifest)
    return merge_lww(decode_changefeed(events, manifest["table_maps"], cfg), cfg)


def state_as_of(
    manifest: dict[str, Any],
    watermark: int,
    cfg: CdcConfig | None = None,
) -> rd.Dataset:
    """Time travel by log replay: the merged table state AS OF
    ``watermark`` (inclusive) — every event with ``event_seq`` beyond it
    is excluded BEFORE decode.  Shard pruning first (whole shards past
    the watermark never leave storage — the read-side mirror of the F2
    start-position skip), then a vectorized in-batch cut for the one
    shard that straddles it.  As long as the spool/stream retains
    events up to ``watermark`` (see ``sources.wire.purge_spool``), any
    historical state is reproducible exactly.
    """
    import pyarrow.compute as pc

    cfg = _with_flat_decode(cfg or CdcConfig())
    keep = [s for s in manifest["shards"] if s["first_event_seq"] <= watermark]
    pruned = dict(manifest, shards=keep)
    events = read_event_stream(pruned)
    events = events.map_batches(
        lambda b: b.filter(pc.less_equal(b.column("event_seq"), watermark)),
        batch_format="pyarrow",
    )
    return merge_lww(decode_changefeed(events, manifest["table_maps"], cfg), cfg)


# ---------------------------------------------------------------------------
# exactly-once lake sink (M7) + resume
# ---------------------------------------------------------------------------


def _lake_partition_path(lake_dir: str, part: int) -> str:
    return os.path.join(lake_dir, f"part={part:05d}", "data.parquet")


def _cleanup_orphan_parts(lake_dir: str, live_parts: set[int]) -> None:
    """Remove ``part=NNNNN`` dirs not referenced by the committed
    manifest.  Orphans appear when a re-merge under a different partition
    layout (changed num_partitions or hash algorithm) rewrites rows into
    new partitions: leaving the old files would duplicate keys on any
    path listing that ignores the manifest, and wastes lake storage."""
    import shutil as _shutil

    for entry in os.listdir(lake_dir):
        if entry.startswith("part="):
            try:
                part = int(entry.split("=")[1])
            except ValueError:
                continue
            if part not in live_parts:
                _shutil.rmtree(os.path.join(lake_dir, entry), ignore_errors=True)


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


def _read_live_partitions(lake_dir: str, m: dict[str, Any]) -> rd.Dataset:
    """Hive read of the committed partition files that hold rows (the
    physical ``part`` directory column included).  A lake with no live
    row reads as an empty Dataset — ``read_parquet`` refuses an empty
    path list."""
    paths = [
        _lake_partition_path(lake_dir, p["part"]) for p in m["partitions"] if p["rows"] > 0
    ]
    return rd.read_parquet(paths) if paths else rd.from_items([])


def _lake_rows_as_inserts(tab: pa.Table) -> pa.Table:
    """Committed lake rows as flat merge input: op='insert', original
    (event_seq, row_seq) lineage kept so newer events win, commit_seq
    unknown (-1).  Column order matches flatten_changefeed's output,
    [value cols..., op, event_seq, row_seq, commit_seq].  A hive-inferred
    ``part`` directory column is layout metadata, not table data, and is
    dropped."""
    if "part" in tab.column_names:
        tab = tab.drop_columns(["part"])
    n = tab.num_rows
    cols = {c: tab.column(c) for c in tab.column_names if c not in SEQ_COLS}
    cols["op"] = pa.array(["insert"] * n, pa.string())
    cols["event_seq"] = tab.column("event_seq")
    cols["row_seq"] = tab.column("row_seq")
    cols["commit_seq"] = pa.array([-1] * n, pa.int64())
    return pa.table(cols)


def _group_rgs(entries: list[tuple[str, int]]) -> list[tuple[str, list[int]]]:
    """Group (path, row_group) pairs by path so each segment file is
    opened once per reader."""
    by_path: dict[str, list[int]] = {}
    for path, rg in entries:
        by_path.setdefault(path, []).append(rg)
    return [(p, sorted(rgs)) for p, rgs in sorted(by_path.items())]


def _collect_table(ds: rd.Dataset) -> pa.Table | None:
    """Execute ``ds`` ONCE and return it as a single Arrow table via
    block refs, or ``None`` when it produced no rows — the small-result
    collect (bounded: O(tasks) index rows / O(parts) manifest rows
    here).  ``take_all()`` materializes Python row dicts one at a time
    on the driver (~0.3 s of driver CPU on the sf0.1 headline);
    ``to_arrow_refs()`` re-executes the plan for ``schema()`` — deadly
    when a stage has side effects (the merge writes lake files) — so
    this walks ``iter_internal_ref_bundles`` directly.  Our callers'
    stages emit Arrow blocks (map_batches returning pa.Table)."""
    import ray

    refs = [
        block_ref
        for bundle in ds.iter_internal_ref_bundles()
        for block_ref, _md in bundle.blocks
    ]
    # Ray's groupby shuffle can emit empty PANDAS blocks that bypassed
    # the map UDF (the repo's documented empty-block wart) — len() works
    # for both block kinds; convert any non-Arrow stragglers rather than
    # assuming .num_rows exists
    tabs = []
    for t in ray.get(refs):
        if not len(t):
            continue
        if not isinstance(t, pa.Table):
            t = pa.Table.from_pandas(t, preserve_index=False)
        tabs.append(t)
    if not tabs:
        return None
    return pa.concat_tables(tabs, promote_options="default")


def _merge_write_partition(
    new: list[pa.Table],
    part: int,
    lake_dir: str,
    key_cols: tuple[str, ...],
    prior_rows: int,
) -> dict[str, Any]:
    """The per-partition final merge of both exchanges: the increment's
    rows for ``part``, then (selective resume, ``prior_rows > 0``) the
    partition's committed lake rows, read back here rather than shipped
    through the exchange; final LWW, key sort, one atomic zstd write.

    The read-back goes AFTER the new rows so that a column added by DDL
    inside the increment keeps the position the decoder gives it.  Rows
    are sorted by key, so a rerun produces byte-identical files
    (exactly-once via idempotence, SURVEY §7.3).  Returns the manifest
    entry plus ``prior_rows``, the committed rows read back for it.
    """
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    path = _lake_partition_path(lake_dir, part)
    if prior_rows:
        # ParquetFile, not read_table: no hive `part` column is inferred
        new = [*new, _lake_rows_as_inserts(pq.ParquetFile(path).read())]
    final = lww_final(pa.concat_tables(new, promote_options="default"), key_cols)
    final = final.take(pc.sort_indices(final, sort_keys=[(k, "ascending") for k in key_cols]))
    size = atomic_write_parquet(final, path, compression="zstd")
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
    chunks: list[tuple[str, list[int]]],
    part: int,
    lake_dir: str,
    key_cols: tuple[str, ...],
    prior_rows: int,
) -> dict[str, Any]:
    """Merge half of the external exchange, one plain Ray task per
    touched partition: read the partition's spill row groups, then
    :func:`_merge_write_partition`."""
    import pyarrow.parquet as pq

    new = [pq.ParquetFile(path).read_row_groups(rgs) for path, rgs in chunks]
    return _merge_write_partition(new, part, lake_dir, key_cols, prior_rows)


def _external_shuffle_merge(
    parted: rd.Dataset,
    lake_dir: str,
    cfg: CdcConfig,
    prior_rows: dict[int, int],
) -> list[dict[str, Any]]:
    """Filesystem-based keyed exchange (Spark-external-shuffle shape).

    Stage A, the one Ray Data execution: every upstream task appends its
    partial rows, split by ``_part``, as one parquet chunk per touched
    partition under a scratch dir — fused with decode/flatten, so
    partials never transit the object store.  Its chunk index lists
    every touched partition.  Stage B: one plain Ray task per touched
    partition, :func:`_merge_spilled_partition`.  The scratch dir is
    removed on failure too, once every merge task has ended.

    On a multi-node cluster the scratch dir must be a shared filesystem
    (lake storage itself qualifies); the object-store path
    (``shuffle='object_store'``) has no such requirement.
    """
    import shutil as _shutil
    import uuid

    import pyarrow.parquet as pq

    spill_dir = os.path.join(lake_dir, "_shuffle")

    def spill(batch: pa.Table) -> pa.Table:
        """ONE segment file per task, ONE row group per touched partition
        (plus an index of (part, path, row_group)) — a task touching 64
        partitions costs 1 file + 64 row groups instead of 64 small
        files, which is the difference between ~N_tasks and
        ~N_tasks x N_parts filesystem ops on the shared scratch dir."""
        import numpy as np

        pn = batch.column("_part").to_numpy(zero_copy_only=False)
        if not len(pn):
            return pa.table(
                {
                    "part": pa.array([], pa.int32()),
                    "chunk": pa.array([], pa.string()),
                    "rg": pa.array([], pa.int32()),
                    "rows": pa.array([], pa.int64()),
                }
            )
        order = np.argsort(pn, kind="stable")
        sorted_tab = batch.take(pa.array(order)).drop_columns(["_part"])
        uniq, bounds = np.unique(pn[order], return_index=True)
        bounds = np.append(bounds, len(pn))
        path = os.path.join(spill_dir, f"chunk-{uuid.uuid4().hex}.parquet")
        os.makedirs(spill_dir, exist_ok=True)
        out_parts, out_rgs, out_rows = [], [], []
        with pq.ParquetWriter(path, sorted_tab.schema, compression="lz4") as w:
            for i, part in enumerate(uniq):
                n = int(bounds[i + 1] - bounds[i])
                # row_group_size >= n guarantees exactly one row group
                w.write_table(sorted_tab.slice(int(bounds[i]), n), row_group_size=n)
                out_parts.append(int(part))
                out_rgs.append(i)
                out_rows.append(n)
        return pa.table(
            {
                "part": pa.array(out_parts, pa.int32()),
                "chunk": pa.array([path] * len(out_parts), pa.string()),
                "rg": pa.array(out_rgs, pa.int32()),
                "rows": pa.array(out_rows, pa.int64()),
            }
        )

    refs: list[ray.ObjectRef] = []
    try:
        chunk_index = _collect_table(parted.map_batches(spill, batch_format="pyarrow"))
        by_part: dict[int, list[tuple[str, int]]] = {}
        if chunk_index is not None:
            for part, chunk, rg in zip(
                chunk_index.column("part").to_pylist(),
                chunk_index.column("chunk").to_pylist(),
                chunk_index.column("rg").to_pylist(),
            ):
                by_part.setdefault(int(part), []).append((chunk, int(rg)))
        # an increment with no row events touches no partition
        refs = [
            _merge_spilled_partition.remote(
                _group_rgs(by_part[p]), p, lake_dir, cfg.key_cols, prior_rows.get(p, 0)
            )
            for p in sorted(by_part)
        ]
        return ray.get(refs)
    finally:
        if refs:  # a failed merge must not race its siblings' spill reads
            ray.wait(refs, num_returns=len(refs))
        _shutil.rmtree(spill_dir, ignore_errors=True)


def _groupby_merge_parts(
    parted: rd.Dataset,
    lake_dir: str,
    cfg: CdcConfig,
    prior_rows: dict[int, int],
) -> list[dict[str, Any]]:
    """Object-store keyed exchange: ``groupby('_part').map_groups`` with
    :func:`_merge_write_partition` per group (touched partitions only, so
    the selective-resume read-back happens in the same task).  The
    ``shuffle='object_store'`` counterpart of
    :func:`_external_shuffle_merge`."""
    key_cols = cfg.key_cols

    def _merge_and_write(group: pa.Table) -> pa.Table:
        part = int(group.column("_part")[0].as_py())
        row = _merge_write_partition([group], part, lake_dir, key_cols, prior_rows.get(part, 0))
        return pa.Table.from_pylist([row])

    stats = parted.groupby("_part").map_groups(_merge_and_write, batch_format="pyarrow")
    stats = _collect_table(stats)  # tiny: one row per partition
    return [] if stats is None else stats.to_pylist()


def _exchange(cfg: CdcConfig):
    """The keyed exchange + per-partition merge selected by ``cfg.shuffle``."""
    return _external_shuffle_merge if cfg.shuffle == "external" else _groupby_merge_parts


def run_to_lake(
    manifest: dict[str, Any],
    lake_dir: str,
    cfg: CdcConfig | None = None,
    resume: bool = True,
) -> dict[str, Any]:
    """Run the pipeline into a partitioned Parquet lake with an atomic
    watermark manifest; rerun/resume reproduces the identical table.

    Returns the committed manifest.  Besides ``elapsed_sec`` it records
    ``readback_rows`` (committed rows the merge tasks read back) and
    ``partitions_rewritten`` for the commit.
    """
    import time as _time

    t_start = _time.time()
    cfg = cfg or CdcConfig()
    prior = read_manifest(lake_dir) if resume else None
    start_after = prior["watermark"] if prior else None

    watermark = max(s["last_event_seq"] for s in manifest["shards"])
    if prior and prior["watermark"] >= watermark:
        return prior  # nothing new: idempotent no-op

    events = read_event_stream(manifest, start_after)
    flat_cfg = _with_flat_decode(cfg)
    cf = decode_changefeed(events, manifest["table_maps"], flat_cfg, start_after)
    key_cols = cfg.key_cols

    def _flatten_combine(batch: pa.Table) -> pa.Table:
        return lww_partial(batch, key_cols)

    if cfg.salt_hot_keys:
        import ray

        from ..stages.merge import (
            _CountAccumulator,
            collect_hot_keys,
            make_counting_combine,
            salted_presqueeze,
        )

        # the hot-key sketch PIGGYBACKS on the combine pass (per-batch
        # count partials stream to a small accumulator-actor pool) — no
        # separate detection scan; the one materialize is still needed
        # because the cold/hot split consumes the stream twice.
        # Shard count scales with the cluster; actors are NOT killed
        # afterwards — the materialized dataset's lineage still closes
        # over their handles, and a lineage reconstruction of a lost
        # block must be able to re-run the counting combine (handles are
        # dropped naturally with the dataset; the actors are num_cpus=0)
        n_shards = min(64, max(4, int(ray.cluster_resources().get("CPU", 8)) // 8))
        actors = [_CountAccumulator.remote() for _ in range(n_shards)]
        counting = make_counting_combine(_flatten_combine, key_cols, actors)
        flat = cf.map_batches(counting, batch_format="pyarrow").materialize()
        hot = collect_hot_keys(actors, cfg.salt_threshold)
        if len(hot):
            flat = salted_presqueeze(flat, key_cols, hot, cfg.n_salts)
    else:
        flat = cf.map_batches(_flatten_combine, batch_format="pyarrow")

    # selective (O(increment)) resume requires the prior lake's partition
    # layout to be reproducible: same partition count AND same hash
    # algorithm.  Then resume reads back only touched partitions, inside
    # the merge task: each task that rewrites a partition reads its
    # committed file itself (``prior_rows`` says how many rows it holds),
    # and untouched partitions keep their files and manifest rows.
    # Otherwise fall back to a full re-merge of prior state, re-hashed
    # into the new layout — prior partition files/manifest rows must NOT
    # be carried over then (carrying them would duplicate keys on
    # read_lake; their orphaned files are cleaned after the commit).
    selective = (
        prior is not None
        and prior.get("num_partitions") == cfg.num_partitions
        and prior.get("hash_algo") == PARTITION_HASH_ALGO
    )
    prior_rows: dict[int, int] = {}
    if selective:
        prior_rows = {p["part"]: p["rows"] for p in prior["partitions"]}
    elif prior:
        prior_flat = _read_live_partitions(lake_dir, prior)
        flat = flat.union(prior_flat.map_batches(_lake_rows_as_inserts, batch_format="pyarrow"))
    parted = flat.map_batches(
        lambda b: add_partition_column(b, key_cols, cfg.num_partitions),
        batch_format="pyarrow",
    )

    parts = _exchange(cfg)(parted, lake_dir, cfg, prior_rows)
    readback_rows = sum(p.pop("prior_rows") for p in parts)
    partitions_rewritten = len(parts)
    if selective:
        have = {p["part"] for p in parts}
        parts.extend(p for p in prior["partitions"] if p["part"] not in have)
    return _commit_lake(
        lake_dir,
        watermark,
        parts,
        key_cols,
        cfg.num_partitions,
        elapsed_sec=round(_time.time() - t_start, 3),
        readback_rows=readback_rows,
        partitions_rewritten=partitions_rewritten,
        resumed_from=start_after,
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
    key_cols = cfg.key_cols

    def _as_flat(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        value_cols = [
            c for c in batch.column_names
            if c not in ("op", "event_seq", "row_seq", "commit_seq", "part")
        ]
        cols = {c: batch.column(c) for c in value_cols}
        cols["op"] = pa.array(["insert"] * n, pa.string())
        cols["event_seq"] = pa.array([snapshot_seq] * n, pa.int64())
        cols["row_seq"] = pa.array([0] * n, pa.int32())
        cols["commit_seq"] = pa.array([-1] * n, pa.int64())
        return add_partition_column(pa.table(cols), key_cols, cfg.num_partitions)

    parted = snapshot.map_batches(_as_flat, batch_format="pyarrow")
    parts = _exchange(cfg)(parted, lake_dir, cfg, {})
    for p in parts:
        del p["prior_rows"]
    return _commit_lake(
        lake_dir, snapshot_seq, parts, key_cols, cfg.num_partitions, bootstrap=True
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
    concurrency: int = 1,
) -> dict[str, dict[str, Any]]:
    """Per-table exactly-once lakes from one binlog stream.

    Each table runs its own targeted flat-decode pipeline (one full
    stream pass per table — other tables' row events are filtered
    BEFORE row decode, so only the event walk repeats, not row decode)
    into ``base_dir/<schema>.<table>``; every lake keeps its own
    watermark manifest, so each table resumes independently.  With
    ``concurrency > 1``, that many tables run AT ONCE from driver
    threads — each thread drives its own Ray Data streaming executor, so
    their stages interleave on the cluster (per-table state is fully
    disjoint: lake dir, spill dir, watermark manifest; the pipelines
    only share the immutable input shards).  Useful when tables are
    small enough that per-pipeline setup/latency dominates a sequential
    walk.  For every table from literally ONE stream pass, use
    ``decode_all_tables`` — the trade is its JSON row rendering vs this
    path's typed flat decode and exactly-once sinks.
    """
    from dataclasses import replace as _replace

    def one(schema: str, table: str, cfg: CdcConfig) -> dict[str, Any]:
        cfg = _replace(cfg, target_table=(schema, table))
        lake = os.path.join(base_dir, f"{schema}.{table}")
        return run_to_lake(manifest, lake, cfg, resume=resume)

    if concurrency <= 1:
        return {
            f"{schema}.{table}": one(schema, table, cfg)
            for (schema, table), cfg in table_cfgs.items()
        }

    from concurrent.futures import ThreadPoolExecutor

    undo = _pin_fsspec_http_module()
    try:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            futs = {
                f"{schema}.{table}": pool.submit(one, schema, table, cfg)
                for (schema, table), cfg in table_cfgs.items()
            }
            return {name: f.result() for name, f in futs.items()}
    finally:
        undo()


def _pin_fsspec_http_module():
    """Ray's read path lazily imports ``fsspec.implementations.http`` and
    treats ModuleNotFoundError (no aiohttp) as "not an http filesystem".
    A FAILED import is removed from ``sys.modules``, so two driver
    threads racing that import can observe each other's half-initialized
    module and get a bare ImportError Ray does NOT catch.  When the real
    import fails, pin an inert placeholder for the duration of the
    threaded section (isinstance against the placeholder class is False
    — identical semantics to the ModuleNotFoundError path).  Returns an
    undo callable."""
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401

        return lambda: None
    except ModuleNotFoundError:
        # the documented no-aiohttp case; anything else (broken fsspec,
        # SyntaxError) must propagate, not be masked by an inert stub
        pass
    name = "fsspec.implementations.http"
    mod = types.ModuleType(name)
    mod.HTTPFileSystem = type("HTTPFileSystem", (), {})
    sys.modules[name] = mod
    return lambda: sys.modules.pop(name, None)


def read_lake(lake_dir: str) -> rd.Dataset:
    m = read_manifest(lake_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest in {lake_dir}")
    ds = _read_live_partitions(lake_dir, m)

    def _strip_hive(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["part"]) if "part" in batch.column_names else batch

    return ds.map_batches(_strip_hive, batch_format="pyarrow")


def lake_point_lookup(lake_dir: str, keys) -> pa.Table:
    """Partition-pruned point lookup over the exactly-once lake: hash the
    requested keys with the manifest's recorded algorithm and read ONLY
    the ``part=NNNNN`` files they map to, then keep exactly the requested
    keys (semi-join).  O(distinct requested partitions) I/O — the
    query-side payoff of the hash-clustered layout at 100 TB: a single-key
    audit touches one file, never the lake.

    ``keys`` is a ``pa.Table`` carrying the lake's key columns (manifest
    ``key_cols``), or a list of scalars for a single-column key.  Returns
    the matching live rows as one Arrow table (point lookups are small by
    contract; use ``read_lake`` for scans).
    """
    import numpy as np
    import pyarrow.parquet as pq

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
    any_part = next((p["part"] for p in m["partitions"] if p["rows"] > 0), None)
    if any_part is None:
        return pa.table({k: pa.array([], pa.null()) for k in key_cols})
    # family guard BEFORE pruning: the lake manifest predates families,
    # so derive them from the stored partition schema — a float probe of
    # an int-keyed lake would hash to the wrong partition and miss
    schema = pq.read_schema(_lake_partition_path(lake_dir, any_part))
    families = {
        k: _type_family(schema.field(k).type) for k in key_cols if k in schema.names
    }
    keys = normalize_probe(keys, key_cols, families)
    live = {p["part"] for p in m["partitions"] if p["rows"] > 0}
    codes = partition_codes(keys, key_cols, int(m["num_partitions"]))
    wanted = sorted(set(int(c) for c in np.unique(codes)) & live)
    if not wanted:
        return schema.empty_table()
    if len(wanted) <= 8:
        # a handful of files: driver-side reads beat task overhead
        out = []
        for part in wanted:
            t = pq.read_table(_lake_partition_path(lake_dir, part))
            out.append(probe_semi_join(t, keys, key_cols))
        return pa.concat_tables(out)
    # wide probe set: one Ray task per partition, probe broadcast once
    keys_ref = ray.put(keys)

    @ray.remote
    def _lookup(part: int):
        probe = ray.get(keys_ref)
        t = pq.read_table(_lake_partition_path(lake_dir, part))
        return probe_semi_join(t, probe, key_cols)

    return pa.concat_tables(ray.get([_lookup.remote(p) for p in wanted]))


def follow(
    manifest: dict[str, Any],
    lake_dir: str,
    cfg: CdcConfig | None = None,
) -> dict[str, Any]:
    """Tailing/incremental ingest step: apply whatever the stream
    manifest contains beyond the lake's watermark (micro-batch follow
    mode — the batch-replay equivalent of the reference's endless
    `foreach ($eventStream ...)` loop, `examples/print-row-events.php:37-43`).

    Call repeatedly as the stream grows; each call is an idempotent
    resume, so a crashed or repeated step never corrupts the lake.
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

    ``zorder_cols`` (integer columns) switches the intra-partition row
    order from the key sort to the Morton curve over those columns (the
    OPTIMIZE ZORDER analog): parquet row-group min/max stats then prune
    on EVERY listed column for range scans over the lake.  Partition
    membership, content, watermark, and resume metadata are untouched —
    only row order inside each partition file changes.
    """
    import shutil as _shutil

    import pyarrow.compute as pc

    cfg = cfg or CdcConfig()
    m = read_manifest(lake_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest in {lake_dir}")
    key_cols = tuple(m.get("key_cols") or cfg.key_cols)
    ds = read_lake(lake_dir)
    parted = ds.map_batches(
        lambda b: add_partition_column(b, key_cols, new_num_partitions),
        batch_format="pyarrow",
    )

    staging = os.path.join(lake_dir, "_compact")
    _shutil.rmtree(staging, ignore_errors=True)

    def write_part(group: pa.Table) -> pa.Table:
        part = int(group.column("_part")[0].as_py())
        final = group.drop_columns(["_part"])
        if zorder_cols:
            import numpy as np

            from ..stages.layout import zorder_values

            # Each column is MIN-MAX NORMALIZED into the bits budget per
            # file before interleaving — without this, any column whose
            # range exceeds 2^bits aliases (x & 0xFFFF) and the curve
            # degenerates to ordering by the low bits, destroying the
            # promised min/max pruning.  NULL/NaN map to the column min
            # (sort first, deterministic).  All of this is a PHYSICAL
            # row-order choice only; values are untouched, so no
            # oracle/SQL parity is at stake (unlike add_zorder_key,
            # which refuses NULLs and keeps mask semantics for its SQL
            # twin).
            top = float((1 << zorder_bits) - 1)
            quantized = []
            for c in zorder_cols:
                x = final[c].to_numpy(zero_copy_only=False).astype(np.float64)
                finite = np.isfinite(x)
                lo = float(x[finite].min()) if finite.any() else 0.0
                hi = float(x[finite].max()) if finite.any() else 0.0
                x = np.where(finite, x, lo)
                span = hi - lo
                q = (
                    ((x - lo) * (top / span)).astype(np.int64)
                    if span > 0
                    else np.zeros(len(x), np.int64)
                )
                quantized.append(q)
            z = zorder_values(quantized, zorder_bits)
            final = final.take(pa.array(np.argsort(z, kind="stable")))
        else:
            final = final.take(
                pc.sort_indices(final, sort_keys=[(k, "ascending") for k in key_cols])
            )
        size = atomic_write_parquet(
            final, _lake_partition_path(staging, part), compression="zstd"
        )
        mx = int(pc.max(final.column("event_seq")).as_py()) if final.num_rows else -1
        return pa.table(
            {
                "part": pa.array([part], pa.int32()),
                "rows": pa.array([final.num_rows], pa.int64()),
                "bytes": pa.array([size], pa.int64()),
                "max_event_seq": pa.array([mx], pa.int64()),
            }
        )

    stats = parted.groupby("_part").map_groups(write_part, batch_format="pyarrow").take_all()
    # move staged partitions into place, then commit the new layout
    for r in stats:
        part = int(r["part"])
        src = _lake_partition_path(staging, part)
        dst = _lake_partition_path(lake_dir, part)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        os.replace(src, dst)
    _shutil.rmtree(staging, ignore_errors=True)
    parts = [
        {
            "part": int(r["part"]),
            "rows": int(r["rows"]),
            "bytes": int(r["bytes"]),
            "max_event_seq": int(r["max_event_seq"]),
        }
        for r in stats
    ]
    return _commit_lake(lake_dir, m["watermark"], parts, key_cols, new_num_partitions)


def audit_lake(
    manifest: dict[str, Any],
    lake_dir: str,
    cfg: CdcConfig | None = None,
):
    """Anti-entropy audit of the exactly-once lake: re-derive the
    expected final state by log replay and compare per PARTITION against
    the committed files — row count plus an order-independent content
    digest (sum mod 2^64 of vectorized row hashes), so a single flipped
    value, duplicated row, or lost row pinpoints its partition.

    The LAKE side buckets each row by the ``part=`` directory it was
    physically read from (not by re-hashing its key), so a row stored in
    the WRONG partition file — the misplacement class a partition-pruned
    lookup would silently miss — shows up as a digest mismatch in both
    the partition it left and the one it invaded.  The replay side
    buckets by the expected key hash.

    Scale shape: both sides reduce inside ``map_batches`` to per-
    (batch, partition) partial rows of (part, rows, digest); the driver
    folds O(batches x touched-partitions) slim rows with a numpy
    groupby.  The replay output is materialized ONCE (its schema is
    needed for the column intersection and ``Dataset.schema()`` on a
    lazy plan would execute the shuffle a second time) — the audit holds
    one copy of the final table in the object store while it runs.

    Returns a pandas frame (part, expected_rows, actual_rows, match)
    sorted by part, one row per partition holding data on either side.
    Numeric columns are normalized to float64 before hashing so parquet
    nullable-int round-trips hash identically to the in-memory replay.
    """
    import numpy as np
    import pandas as pd

    cfg = cfg or CdcConfig()
    m = read_manifest(lake_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest in {lake_dir}")
    key_cols = tuple(m.get("key_cols") or cfg.key_cols)
    nparts = int(m["num_partitions"])

    expected = run_to_dataset(manifest, cfg).materialize()
    # hive-partitioned read keeps the physical `part` column
    actual = _read_live_partitions(lake_dir, m)
    # a side with no rows may have no schema (a lake with no live row
    # reads as an empty, schemaless Dataset): it adds no column constraint
    # and folds to nothing
    names = [set(sc.names) for sc in (expected.schema(), actual.schema()) if sc is not None]
    common = sorted(set.intersection(*names) - {"part"}) if names else []

    def digest_partials(tab: pa.Table) -> pa.Table:
        if "part" in tab.column_names:
            # lake side: the directory the row physically lives in
            part = tab.column("part").to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            # replay side: where the row SHOULD live
            tab = add_partition_column(tab, key_cols, nparts)
            part = tab.column("_part").to_numpy()
        pdf = tab.select(common).to_pandas()
        for c in common:
            if pd.api.types.is_numeric_dtype(pdf[c]):
                pdf[c] = pdf[c].astype("float64")
        h = (
            pd.util.hash_pandas_object(pdf, index=False)
            .to_numpy()
            .astype(np.uint64)
        )
        order = np.argsort(part, kind="stable")
        part_s, h_s = part[order], h[order]
        starts = np.flatnonzero(np.diff(part_s, prepend=-1))
        sums = np.add.reduceat(h_s, starts)  # uint64 wraps mod 2^64
        counts = np.diff(np.append(starts, len(part_s)))
        return pa.table(
            {
                "part": pa.array(part_s[starts].astype(np.int64)),
                "rows": pa.array(counts.astype(np.int64)),
                "digest": pa.array(sums.view(np.int64)),
            }
        )

    def wrap_sum(s: pd.Series):
        # digest fold wraps mod 2^64, order-independent by construction
        tot = s.to_numpy().view(np.uint64).sum(dtype=np.uint64)
        return np.array(tot, np.uint64).view(np.int64).item()

    def fold(ds: rd.Dataset) -> pd.DataFrame:
        pdf = ds.map_batches(digest_partials, batch_format="pyarrow").to_pandas()
        if pdf.empty:
            return pd.DataFrame({"part": [], "rows": [], "digest": []})
        g = pdf.groupby("part", sort=True)
        return pd.DataFrame(
            {
                "part": list(g.groups),
                "rows": g["rows"].sum().to_numpy(),
                "digest": g["digest"].apply(wrap_sum).to_numpy(),
            }
        )

    exp = fold(expected)
    act = fold(actual)
    out = exp.merge(act, on="part", how="outer", suffixes=("_exp", "_act"))
    # nullable Int64 keeps the 64-bit digests exact through the outer
    # merge — a float64 promotion would compare at 53-bit precision and
    # a subtle corruption near 2^63 could falsely match
    for c in ("rows_exp", "rows_act", "digest_exp", "digest_act"):
        out[c] = out[c].astype("Int64")
    out["match"] = (
        (out["rows_exp"] == out["rows_act"])
        & (out["digest_exp"] == out["digest_act"])
    ).fillna(False).astype(bool)
    return pd.DataFrame(
        {
            "part": out["part"].astype(np.int64),
            "expected_rows": out["rows_exp"].fillna(0).astype(np.int64),
            "actual_rows": out["rows_act"].fillna(0).astype(np.int64),
            "match": out["match"],
        }
    ).sort_values("part").reset_index(drop=True)


def schema_history(
    manifest: dict[str, Any],
    start_after_seq: int | None = None,
    checksum_size: int = 4,
) -> rd.Dataset:
    """DDL changelog of the stream: one row per QUERY event —
    ``(event_seq, schema_name, sql)`` in stream order.  The lineage
    surface for schema evolution (M3/M9): which DDL landed, where in
    the sequence, against which schema.

    Scale shape: a distributed payload-prefix scan (one type-byte peek
    per event, full parse only for the rare QUERY events) — the same
    pattern as ``build_xid_index``; output is O(DDL count)."""
    from ..protocol.constants import EventType
    from ..protocol.decode import parse_header, parse_query
    from ..stages.decode_stage import BinlogDecoder

    def extract(batch: pa.Table) -> pa.Table:
        seqs: list[int] = []
        schemas: list[str] = []
        sqls: list[str] = []
        event_seqs = batch.column("event_seq").to_numpy(zero_copy_only=False)
        for seq, payload in zip(event_seqs, BinlogDecoder._payload_views(batch)):
            if payload[5] == EventType.QUERY:
                header = parse_header(payload, checksum_size)
                schema, sql = parse_query(bytes(payload), header)
                seqs.append(int(seq))
                schemas.append(schema)
                sqls.append(sql)
        return pa.table(
            {
                "event_seq": pa.array(seqs, pa.int64()),
                "schema_name": pa.array(schemas, pa.string()),
                "sql": pa.array(sqls, pa.string()),
            }
        )

    events = read_event_stream(manifest, start_after_seq)
    return events.map_batches(extract, batch_format="pyarrow").sort("event_seq")
