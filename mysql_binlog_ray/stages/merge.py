"""Last-writer-wins merge (SURVEY.md §2.7 M5/M6/M8).

Replays the insert/update/delete ACTION semantics of the reference's row
events (`WriteRows.php:13`, `UpdateRows.php:13`, `DeleteRows.php:13`) in
total order.  The total-order key is ``(event_seq, row_seq)`` — stream
position, exactly the monotone cursor the reference exposes as
BinlogPosition (`src/BinlogPosition.php:9-19`), made explicit per row.

Scale design (the part the single-threaded reference never needed):

1. ``flatten_changefeed``  — changefeed -> flat upsert rows (vectorized,
   pyarrow; key columns come from ``after``, falling back to ``before``
   for deletes).
2. ``lww_partial``         — per-batch combiner: keep only the newest
   image per key within the batch *before* the shuffle, so repeatedly
   updated (hot) keys ship one row per batch, not one per update.
3. partition column        — deterministic hash of the primary key mod
   ``num_partitions`` (stable across runs/processes: required for the
   resumable, idempotent sink).
4. keyed exchange on ``_part``, then ``lww_final`` per partition — the
   same vectorized kernel picks winners and drops delete tombstones.
   The lake sink's exchange is chosen by ``CdcConfig.shuffle``
   (filesystem spill or ``groupby("_part")``); the Dataset-returning
   paths go through ``cdc.merge_lww``'s ``groupby("_part").map_groups``.

Skew (M8): the partition hash spreads keys uniformly; a pathologically
hot *single key* is already collapsed to ~one row per upstream batch by
the partial combine, which is the salting effect — the per-key fan-in to
the merge stage is bounded by the number of upstream batches, not by the
number of updates.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

SEQ_COLS = ("event_seq", "row_seq")


def flatten_changefeed(batch: pa.Table, key_cols: tuple[str, ...]) -> pa.Table:
    """Changefeed batch -> flat merge rows.

    Output columns: every target-table column (from ``after``; for deletes
    the key columns are taken from ``before``), plus ``op``, ``event_seq``,
    ``row_seq``, ``commit_seq``.
    """
    if batch.num_rows == 0:
        # column order must match the non-empty branch exactly — Ray Data
        # concatenates blocks by schema and _lake_rows_as_inserts (cdc.py)
        # depends on [...values, op, event_seq, row_seq, commit_seq]
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
    """Final per-partition merge: newest image per key, tombstones dropped,
    bookkeeping columns removed (sequence columns retained as lineage for
    checkpoint/resume)."""
    if batch.num_rows == 0:
        return batch.drop_columns([c for c in ("op", "commit_seq", "_part") if c in batch.column_names])
    winners = batch.take(_winner_indices(batch, key_cols))
    live = winners.filter(pc.not_equal(winners.column("op"), pa.scalar("delete")))
    drop = [c for c in ("op", "commit_seq", "_part") if c in live.column_names]
    return live.drop_columns(drop)


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


# -- M8: active hot-key salting (two-phase combine for skewed keys) --------
#
# The per-batch lww_partial already collapses a hot key to one row per
# upstream batch, but at 100 TB "one row per batch" is still millions of
# rows converging on a single final partition.  The salted pre-squeeze
# bounds that fan-in to ``n_salts`` rows per hot key: hot rows are
# re-keyed by (key, event_seq % n_salts), reduced per salted bucket with
# the same LWW kernel (associative: newest-per-key commutes with any
# grouping), then rejoin the normal single-exchange merge.


def _key_hash53(batch: pa.Table, key_cols: tuple[str, ...]) -> np.ndarray:
    """key_hash64 truncated to 53 bits: survives Ray groupby/aggregate's
    float64 key round-trip exactly."""
    return (key_hash64(batch, key_cols) >> np.uint64(11)).astype(np.int64)


@ray.remote(num_cpus=0)
class _CountAccumulator:
    """Shard of the piggybacked hot-key sketch: receives (hash, count)
    partials from combine tasks (keys pre-partitioned by hash so each
    key's totals live on exactly one shard) and compacts periodically so
    memory stays O(distinct keys / shards), not O(partials)."""

    def __init__(self) -> None:
        self._h: list[np.ndarray] = []
        self._n: list[np.ndarray] = []
        self._buf = 0

    def add(self, hashes: np.ndarray, counts: np.ndarray) -> None:
        self._h.append(hashes)
        self._n.append(counts)
        self._buf += len(hashes)
        if self._buf > 2_000_000:
            self._compact()

    def _compact(self) -> None:
        if not self._h:
            return
        h = np.concatenate(self._h)
        n = np.concatenate(self._n)
        uniq, inv = np.unique(h, return_inverse=True)
        tot = np.bincount(inv, weights=n.astype(np.float64)).astype(np.int64)
        self._h, self._n, self._buf = [uniq], [tot], len(uniq)

    def hot(self, threshold: int) -> np.ndarray:
        self._compact()
        if not self._h:
            return np.zeros(0, dtype=np.int64)
        return self._h[0][self._n[0] > threshold]


def make_counting_combine(
    combine_fn, key_cols: tuple[str, ...], actors: list
):
    """Wrap the per-batch LWW combine so it ALSO emits its (key hash,
    count) partial to the sketch shards — the hot-key detection rides the
    combine pass instead of costing its own scan of the materialized
    stream.  The ray.get ensures counts land before the pass finishes
    (the hot set read after materialize() is then complete, which the
    byte-equality tests rely on); the round-trip is to at most
    len(actors) shards IN PARALLEL and the caller scales the shard count
    with the cluster, so the sketch adds ~one actor RPC of latency per
    batch, not a fixed-size funnel.  A re-executed task double-counts,
    which can only over-salt (correctness is independent of WHICH keys
    get salted)."""
    n_shards = len(actors)

    def counting(batch: pa.Table) -> pa.Table:
        out = combine_fn(batch)
        if out.num_rows:
            uniq, cnt = np.unique(_key_hash53(out, key_cols), return_counts=True)
            shard = uniq % n_shards
            refs = []
            for i, a in enumerate(actors):
                m = shard == i
                if m.any():
                    refs.append(a.add.remote(uniq[m], cnt[m].astype(np.int64)))
            if refs:
                ray.get(refs)
        return out

    return counting


def collect_hot_keys(actors: list, threshold: int) -> np.ndarray:
    """Gather + sort the hot set from the sketch shards."""
    parts = ray.get([a.hot.remote(threshold) for a in actors])
    return np.sort(np.concatenate(parts)) if parts else np.zeros(0, np.int64)


def salted_presqueeze(
    flat,
    key_cols: tuple[str, ...],
    hot_hashes: np.ndarray,
    n_salts: int = 16,
):
    """Phase-A reduce for hot keys: rows of hot keys are grouped by
    (key hash, event_seq % n_salts) and LWW-combined, bounding each hot
    key to <= n_salts surviving rows; cold rows pass through untouched.
    Returns a dataset with the same schema as ``flat``."""
    import ray

    ref = ray.put(np.sort(np.asarray(hot_hashes, dtype=np.int64)))
    cache: dict = {}

    def tag(batch: pa.Table) -> pa.Table:
        hot = cache.get("h")
        if hot is None:
            hot = cache["h"] = ray.get(ref)
        h = _key_hash53(batch, key_cols)
        is_hot = np.isin(h, hot)
        salt = (
            batch.column("event_seq").to_numpy(zero_copy_only=False) % n_salts
        ).astype(np.int64)
        # (h >> 4)*n_salts + salt stays under 53 bits for n_salts <= 16
        # (groupby float64 key safety); a rare hash-prefix collision only
        # co-groups two hot keys, which lww_partial handles per key
        spart = np.where(is_hot, (h >> 4) * np.int64(n_salts) + salt, np.int64(-1))
        return batch.append_column("_spart", pa.array(spart, pa.int64()))

    # NO materialize here: ``flat`` is already materialized by the caller
    # (it feeds both the sketch and the merge), so running the cheap
    # vectorized tag twice — once per consumer below — costs two scans of
    # object-store blocks instead of a third full copy of the stream
    tagged = flat.map_batches(tag, batch_format="pyarrow")

    def only_cold(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.equal(batch.column("_spart"), pa.scalar(-1)))
        return keep.drop_columns(["_spart"])

    def only_hot(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.not_equal(batch.column("_spart"), pa.scalar(-1)))

    cold = tagged.map_batches(only_cold, batch_format="pyarrow")
    hot_rows = tagged.map_batches(only_hot, batch_format="pyarrow")

    # hash-partitioned vectorized squeeze (keyed_reduce shape, arrow-
    # native): a hot key's n_salts groups scatter across partitions, each
    # partition runs ONE lww_partial over its co-located (key, salt)
    # groups — no Ray per-group call, no sort shuffle.  Fanout is small:
    # the hot subset is bounded by hot_keys x n_salts x upstream blocks.
    n_parts = 32

    def tag_part(batch: pa.Table) -> pa.Table:
        sp = batch.column("_spart").to_numpy(zero_copy_only=False)
        rp = (sp.view(np.uint64) % np.uint64(n_parts)).astype(np.int64)
        return batch.drop_columns(["_spart"]).append_column(
            "_rp", pa.array(rp, pa.int64())
        )

    def squeeze_part(group: pa.Table) -> pa.Table:
        return lww_partial(group.drop_columns(["_rp"]), key_cols)

    squeezed = (
        hot_rows.map_batches(tag_part, batch_format="pyarrow")
        .groupby("_rp")
        .map_groups(squeeze_part, batch_format="pyarrow")
    )
    return cold.union(squeezed)
