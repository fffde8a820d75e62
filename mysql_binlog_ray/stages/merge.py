"""Last-writer-wins merge (SURVEY.md §2.7 M5/M6/M8).

Replays the insert/update/delete ACTION semantics of the reference's row
events (`WriteRows.php:13`, `UpdateRows.php:13`, `DeleteRows.php:13`) in
total order.  The total-order key is ``(event_seq, row_seq)`` — stream
position, exactly the monotone cursor the reference exposes as
BinlogPosition (`src/BinlogPosition.php:9-19`), made explicit per row.

Scale design (the part the single-threaded reference never needed):

1. flat upsert rows       — every merge path decodes straight to them
   (``BinlogDecoder(output="flat")`` via ``cdc._with_flat_decode``): key
   columns from the after-image, from the before-image for deletes and
   key-change tombstones.  ``flatten_changefeed`` derives the same rows
   from a struct changefeed for callers that hold one.
2. ``lww_partial``         — per-batch combiner: keep only the newest
   image per key within the batch *before* the shuffle, so repeatedly
   updated (hot) keys ship one row per batch, not one per update.  The
   spill tasks of every shard replay (``run_to_lake``,
   ``run_to_dataset``, ``state_as_of``) combine inside the decode
   (``BinlogDecoder.flat_combined``: a located decode finds every row
   image's merge-key cells with numpy, then :func:`_winner_indices`,
   then gathers value cells for the winners only, with a result
   Arrow-equal to ``lww_partial`` over the flat rows);
   ``lww_partial`` itself runs only on flat Datasets that do not come
   from shards (``cdc.merge_lww``).
3. partition column        — deterministic hash of the primary key mod
   ``num_partitions`` (stable across runs/processes: required for the
   resumable, idempotent sink).
4. keyed exchange on ``_part``, then ``lww_final`` per partition — the
   same vectorized kernel picks winners and drops delete tombstones.
   There is one exchange, plain Ray tasks over the filesystem
   (``cdc._exchange``): the lake sink runs it into the lake, and the
   Dataset-returning paths (``cdc._exchange_to_dataset``) into a
   scratch dir whose partition files they read back.

Skew (M8): the partition hash spreads keys uniformly; a pathologically
hot *single key* is collapsed to one row per upstream batch by the
partial combine (a read unit of a shard replay, a Dataset block in
``cdc.merge_lww``), so its fan-in to the merge stage is bounded by the
number of upstream batches, not by the number of updates.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SEQ_COLS = ("event_seq", "row_seq")


def flatten_changefeed(batch: pa.Table, key_cols: tuple[str, ...]) -> pa.Table:
    """Changefeed batch -> flat merge rows.

    Output columns: every target-table column (from ``after``; for deletes
    the key columns are taken from ``before``), plus ``op``, ``event_seq``,
    ``row_seq``, ``commit_seq``.
    """
    if batch.num_rows == 0:
        # column order must match the non-empty branch exactly — Ray Data
        # concatenates blocks by schema: [...values, op, event_seq,
        # row_seq, commit_seq]
        after = batch.schema.field("after").type
        cols = {f.name: pa.array([], f.type) for f in after}
        cols["op"] = pa.array([], pa.string())
        cols["event_seq"] = pa.array([], pa.int64())
        cols["row_seq"] = pa.array([], pa.int32())
        cols["commit_seq"] = pa.array([], pa.int64())
        return pa.table(cols)

    after = batch.column("after")
    before = batch.column("before")
    if isinstance(after, pa.ChunkedArray):
        after = after.combine_chunks()
        before = before.combine_chunks()
    is_delete = pc.equal(batch.column("op"), pa.scalar("delete"))
    is_update = pc.equal(batch.column("op"), pa.scalar("update"))

    out: dict[str, pa.Array] = {}
    struct_type = after.type
    for i in range(struct_type.num_fields):
        name = struct_type.field(i).name
        a = after.field(i)
        if name in key_cols:
            # deletes carry the key in the before-image
            out[name] = pc.if_else(is_delete, before.field(i), a)
        else:
            out[name] = a
    out["op"] = batch.column("op")
    out["event_seq"] = batch.column("event_seq")
    out["row_seq"] = batch.column("row_seq")
    out["commit_seq"] = batch.column("commit_seq")
    main = pa.table(out)

    # a key-CHANGING update (e.g. a file rename when the key is
    # (repo, path)) must also tombstone the OLD key, or the stale row
    # survives the merge forever
    changed = None
    for name in key_cols:
        i = struct_type.get_field_index(name)
        diff = pc.not_equal(before.field(i), after.field(i))
        diff = pc.fill_null(diff, False)
        changed = diff if changed is None else pc.or_(changed, diff)
    if changed is not None:
        key_moved = pc.and_(is_update, changed)
        if pc.any(key_moved).as_py():
            sub = batch.filter(key_moved)
            b = sub.column("before")
            if isinstance(b, pa.ChunkedArray):
                b = b.combine_chunks()
            tomb: dict[str, pa.Array] = {}
            for i in range(struct_type.num_fields):
                name = struct_type.field(i).name
                if name in key_cols:
                    tomb[name] = b.field(i)
                else:
                    tomb[name] = pa.nulls(sub.num_rows, struct_type.field(i).type)
            tomb["op"] = pa.array(["delete"] * sub.num_rows, pa.string())
            tomb["event_seq"] = sub.column("event_seq")
            tomb["row_seq"] = sub.column("row_seq")
            tomb["commit_seq"] = sub.column("commit_seq")
            main = pa.concat_tables([main, pa.table(tomb)])
    return main


def _winner_indices(table: pa.Table, key_cols: tuple[str, ...]) -> np.ndarray:
    """Indices of the newest row per key (vectorized, no Python loop).

    Each key column is dictionary-encoded to integer codes and ALL code
    columns join the single lexsort with (event_seq, row_seq) — exact
    for any number of columns and any cardinality (no combined-code
    multiply that could wrap uint64 and silently merge two keys); null
    key values get code -1.  The within-group-order trap called out in
    SURVEY §7.3 is handled by always sorting on the sequence tuple,
    never trusting block arrival order.
    """
    code_cols: list[np.ndarray] = []
    for kc in key_cols:
        dict_arr = pc.dictionary_encode(table.column(kc).combine_chunks())
        idx = dict_arr.indices
        if idx.null_count:
            idx = idx.fill_null(-1)
        code_cols.append(idx.to_numpy(zero_copy_only=False).astype(np.int64))
    ev = table.column("event_seq").to_numpy(zero_copy_only=False)
    rs = table.column("row_seq").to_numpy(zero_copy_only=False)
    # lexsort: last key varies slowest -> (code_1, ..., code_k, ev, rs)
    order = np.lexsort((rs, ev, *reversed(code_cols)))
    same_as_next = np.ones(len(order), dtype=bool)
    for cc in code_cols:
        sc = cc[order]
        same = np.r_[sc[1:] == sc[:-1], False]
        same_as_next &= same
    return order[~same_as_next]


def lww_partial(batch: pa.Table, key_cols: tuple[str, ...]) -> pa.Table:
    """Per-batch LWW combiner: newest image per key, tombstones kept."""
    if batch.num_rows <= 1:
        return batch
    return batch.take(_winner_indices(batch, key_cols))


def lww_final(batch: pa.Table, key_cols: tuple[str, ...]) -> pa.Table:
    """Final per-partition merge: newest image per key, tombstones
    dropped, rows in ascending key order (nulls last), bookkeeping
    columns removed (sequence columns retained as lineage for
    checkpoint/resume).

    One ``sort_indices`` over (keys, ``event_seq``, ``row_seq``) gives
    the key order and each key's newest row at once, the last of its
    run (a stable sort, so a duplicate sequence tuple keeps the later
    row, as :func:`_winner_indices` does); null keys group together, as
    there.  Then one ``take`` of the winners that are not deletes."""
    drop = [c for c in ("op", "commit_seq", "_part") if c in batch.column_names]
    if batch.num_rows == 0:
        return batch.drop_columns(drop)
    sort_keys = [(k, "ascending") for k in (*key_cols, *SEQ_COLS)]
    order = pc.sort_indices(batch, sort_keys=sort_keys).to_numpy()
    # last row of each key run: the key differs from the next row's
    same = np.ones(len(order) - 1, dtype=bool)
    for kc in key_cols:
        col = batch.column(kc).take(order)
        a, b = col.slice(0, len(order) - 1), col.slice(1)
        eq = pc.or_(pc.fill_null(pc.equal(a, b), False), pc.and_(pc.is_null(a), pc.is_null(b)))
        same &= eq.to_numpy(zero_copy_only=False)
    winners = order[np.append(~same, True)]
    live = pc.not_equal(batch.column("op").take(winners), pa.scalar("delete"))
    live = pc.fill_null(live, False).to_numpy(zero_copy_only=False)
    return batch.drop_columns(drop).take(pa.array(winners[live]))


# -- Arrow-native deterministic key hash (no pandas, no per-row Python) --
#
# Algorithm "poly64v2": per column, a 64-bit polynomial hash computed
# directly over the Arrow data buffers with numpy prefix products/sums
# (mod 2^64 wraparound), then a splitmix64-style avalanche combining the
# column hashes.  Pure integer arithmetic on fixed constants: stable
# across processes, runs, library versions and platforms — required
# because the hash gates the exactly-once lake's selective resume.
# The manifest records the algorithm name so a lake written under the
# old pandas-siphash layout falls back to a full re-merge on resume.

PARTITION_HASH_ALGO = "poly64v2"

_PM = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier (golden-ratio)
_PM_INV = np.uint64(pow(0x9E3779B97F4A7C15, -1, 1 << 64))


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized (uint64 wraparound)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _hash_varbin(arr: pa.Array) -> np.ndarray:
    """Per-row polynomial hash over a string/binary column's flat data
    buffer.  H_r = (sum_{i in row} (b[i]+1) * M^i) * M^{-start_r} — the
    prefix-product trick makes variable-length row hashing a cumsum."""
    off_buf, data_buf = arr.buffers()[1], arr.buffers()[2]
    odt = np.int64 if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type) else np.int32
    offs = np.frombuffer(off_buf, dtype=odt)[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    total = int(offs[-1])
    start = int(offs[0])
    if data_buf is None or total == start:
        b = np.zeros(0, dtype=np.uint64)
    else:
        b = np.frombuffer(data_buf, dtype=np.uint8)[start:total].astype(np.uint64)
    offs = offs - start
    n = len(b)
    pw = np.empty(n + 1, dtype=np.uint64)
    pw[0] = 1
    if n:
        pw[1:] = _PM
        np.cumprod(pw, out=pw)  # M^i mod 2^64
    pw_inv = np.empty(n + 1, dtype=np.uint64)
    pw_inv[0] = 1
    if n:
        pw_inv[1:] = _PM_INV
        np.cumprod(pw_inv, out=pw_inv)  # M^-i mod 2^64
    s = np.zeros(n + 1, dtype=np.uint64)
    if n:
        np.cumsum((b + np.uint64(1)) * pw[:n], out=s[1:])
    starts, ends = offs[:-1], offs[1:]
    h = (s[ends] - s[starts]) * pw_inv[starts]
    # mix in the length so concatenation boundaries between key columns
    # can't alias ("ab","c") vs ("a","bc")
    h = _mix64(h ^ ((ends - starts).astype(np.uint64) * np.uint64(0xFF51AFD7ED558CCD)))
    if arr.null_count:
        h[np.asarray(pa.compute.is_null(arr))] = np.uint64(0x5CA1AB1E)
    return h


def _hash_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_binary(t) or pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        return _hash_varbin(arr)
    if pa.types.is_dictionary(t):
        return _hash_varbin(arr.cast(t.value_type))
    # fixed-width numerics/temporals: hash the 64-bit widened value
    if pa.types.is_floating(t):
        v = arr.to_numpy(zero_copy_only=False).astype(np.float64).view(np.uint64)
    else:
        try:
            widened = arr.cast(pa.int64(), safe=False)
        except pa.lib.ArrowNotImplementedError:
            # date32 and friends only widen via their storage type
            widened = arr.cast(pa.int32()).cast(pa.int64())
        filled = widened.fill_null(0) if arr.null_count else widened
        v = filled.to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
    h = _mix64(v.copy())
    if arr.null_count:
        h[np.asarray(pa.compute.is_null(arr))] = np.uint64(0x5CA1AB1E)
    return h


def key_hash64(table: pa.Table, key_cols: tuple[str, ...]) -> np.ndarray:
    """Combined deterministic 64-bit hash of the key columns (vectorized,
    Arrow-buffer-native)."""
    h = np.full(table.num_rows, np.uint64(0x8445D61A4E774912), dtype=np.uint64)
    for kc in key_cols:
        h = _mix64(h * _PM + _hash_column(table.column(kc)))
    return h


def partition_codes(table: pa.Table, key_cols: tuple[str, ...], num_partitions: int) -> np.ndarray:
    """Deterministic partition id per row: stable across processes, runs
    and Python hash randomization (algorithm ``poly64v2`` above)."""
    return (key_hash64(table, key_cols) % np.uint64(num_partitions)).astype(np.int32)


def add_partition_column(batch: pa.Table, key_cols: tuple[str, ...], num_partitions: int) -> pa.Table:
    return batch.append_column("_part", pa.array(partition_codes(batch, key_cols, num_partitions)))

