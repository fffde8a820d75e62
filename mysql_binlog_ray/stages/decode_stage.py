"""Decode stage: serialized binlog events -> Arrow changefeed.

SURVEY.md §2.7 M2/M3/M4: ``BinlogDecoder`` is a stateful callable over
pyarrow batches ``(shard_id, event_seq, payload)``.  All expensive setup
happens before ``__call__``, so it only walks payload bytes: per-table
decode plans, cell layouts and the column remap for late-binding casts
are built once per table layout per process (``_table_state``), and the
target schema is resolved once per decoder in ``__init__``.  The
exchange's ``_spill_task`` (every shard replay) builds one decoder per
shard and ``_map_decoder`` (the changefeed consumers) caches one per
worker.

Every scan of a block's events reads the header fields from ONE numpy
pass, ``protocol.decode.header_columns`` over :func:`_payload_base`'s
buffer (:func:`event_headers`): type, timestamp, ``event_size``,
``log_pos``, flags and the u64 at byte 20 (table id, XID value,
MARIA_GTID seqno) as columns.  The three output modes (changefeed,
flat, json) share ONE event walk, ``_row_events`` — the reference's
single ``EventsIterator`` loop (`EventsIterator.php:73-88`) — over the
ROWS events and state-changing markers those columns select, and ONE
ROWS-event prologue, ``protocol.decode.rows_body_offset``; a mode only
chooses how it emits the rows of each accepted ROWS event.  Json mode
decodes rows through ``parse_rows_event``, the conformance reference.
The changefeed mode, ``__call__``'s flat mode and ``flat_combined`` (the
lake's spill tasks) run ONE row decoder, a located decode with no
per-row Python: it finds the cells of every row image with one numpy
pass per layout (``_locate_images``, all events at once, one row image
of each per iteration, widths from ``protocol.decode.cell_layout``) and
gathers the cells it keeps from the block's payload buffer with numpy
and Arrow takes (``_decode_cells``), reading only the types no gather
covers through the layout's cell readers.  The flat modes decode merge keys in
that pass and walk only the after-images they keep again for their
value cells (``flat_combined`` keeps each key's newest row, ``__call__``
every row); the changefeed decodes every target column in that pass.

The block is the unit of decode order: blocks reach workers in any
order, so every block starts from the broadcast snapshot and all decode
state lives in the walk's per-block context (``_BlockCtx``: table
bindings, checksum gate, open transaction, one commit stamp per ROWS
event).  A decoder keeps only its counters and which layouts it
decodes (``_accepts``, a function of the layout alone) across blocks,
so one decoder over blocks in any order equals a fresh decoder per
block.  A transaction whose XID falls in another block keeps its
GTID stamp or -1; ``pipelines.sequential.decode_shards_sequential``
decodes each shard as one block for exact stamps.

Semantics reproduced from the reference (citations in protocol/decode.py):

- FORMAT_DESCRIPTION gates checksum handling (`EventsIterator.php:141-151`)
- TABLE_MAP events bind into the block's copy of the registry
  (`EventsIterator.php:198-205`), which starts as the broadcast
  registry snapshot (our distributed stand-in for the single-process
  dict at `EventsIterator.php:40`); ROTATE resets it to the snapshot
  (`EventsIterator.php:163-173`)
- include/exclude db.table filters are applied BEFORE row decode, so
  filtered tables are never deserialized (`EventsIterator.php:103-130`)
- skip events advance position only (`EventsIterator.php:244-254`)
- CRC32 verification per event (`EventsIterator.php:260-261`)
- XID commit markers stamp ``commit_seq`` onto the transaction's row
  images (`EventsIterator.php:335-341` made explicit, SURVEY M4)

Late binding / schema evolution (M3): every decoded row is cast to the
*target* schema (the registry's latest version for the target table);
columns absent in an older TABLE_MAP layout are null-filled, so one
changefeed batch schema covers all in-flight schema versions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..protocol.constants import INTEGER_TYPES, ColumnType, EventType, collation_codec
from ..protocol.decode import (
    TABLE_ID_MASK,
    DecodePlan,
    cell_layout,
    header_columns,
    parse_format_description,
    parse_header,
    parse_rows_event,
    parse_table_map,
    rows_body_offset,
    rows_overrun,
    verify_checksum,
)
from ..protocol.model import ColumnDef, TableMapDef
from .merge import _winner_indices

_ROWS_TYPES = {0x17, 0x18, 0x19, 0x1E, 0x1F, 0x20}
# the event types the walk visits: ROWS events and the markers that
# change decode state (``_handle_marker``); the rest are only counted
_WALKED = np.zeros(256, dtype=bool)
_WALKED[[*_ROWS_TYPES, EventType.FORMAT_DESCRIPTION, EventType.ROTATE, EventType.MARIA_GTID,
         EventType.GTID, EventType.TABLE_MAP, EventType.XID]] = True
# op codes into _OP_NAMES_ARROW, one per event (expanded via np.repeat)
_OP_NAMES_ARROW = pa.array(["insert", "update", "delete"], pa.string())
_OP_CODE_BY_TYPE = {0x17: 0, 0x1E: 0, 0x18: 1, 0x1F: 1, 0x19: 2, 0x20: 2}
_OP_INSERT_CODE = 0
_OP_UPDATE_CODE = 1
_OP_DELETE_CODE = 2


def changefeed_arrow_type(col: ColumnDef) -> pa.DataType:
    """Arrow type of one column in the changefeed (reference JSON shape:
    temporals/decimals/bits stay strings — SURVEY §1.4 compat boundary)."""
    t = col.type
    if t in (ColumnType.TINY, ColumnType.SHORT, ColumnType.INT24, ColumnType.LONG, ColumnType.YEAR):
        return pa.int64()
    if t is ColumnType.LONGLONG:
        return pa.int64() if col.signed else pa.uint64()
    if t in (ColumnType.FLOAT, ColumnType.DOUBLE):
        return pa.float64()
    return pa.string()


def target_struct_type(tm: TableMapDef) -> pa.StructType:
    return pa.struct([pa.field(c.name, changefeed_arrow_type(c)) for c in tm.columns])


def changefeed_schema(tm: TableMapDef) -> pa.Schema:
    st = target_struct_type(tm)
    return pa.schema(
        [
            pa.field("op", pa.string()),
            pa.field("schema_name", pa.string()),
            pa.field("table_name", pa.string()),
            pa.field("table_map_id", pa.int64()),
            pa.field("schema_ver", pa.int32()),
            pa.field("file_seq", pa.int32()),
            pa.field("event_seq", pa.int64()),
            pa.field("row_seq", pa.int32()),
            pa.field("commit_seq", pa.int64()),
            pa.field("ts", pa.int64()),
            pa.field("before", st),
            pa.field("after", st),
        ]
    )


def _stamp_xid(commit_seqs: list, txn_start: int, xid: int) -> int:
    """XID commit: stamp exactly the current transaction's rows
    ([txn_start, end) — from the last marker boundary), overwriting any
    provisional GTID stamp so one transaction carries one id.  Never
    walks past txn_start: rows before the boundary either already carry
    their own transaction's id or are honestly unknown (-1) — e.g. a
    GTID-delimited group whose XID is absent, or a truncated
    transaction — and stamping them with a LATER transaction's XID
    would be silent corruption.  Returns the new boundary.  One
    definition, used by all three decode modes.
    """
    for i in range(txn_start, len(commit_seqs)):
        commit_seqs[i] = xid
    return len(commit_seqs)


def _meta_arrays(
    ops: np.ndarray, ev: np.ndarray, row_seqs: np.ndarray, commit_seqs: np.ndarray
) -> list[pa.Array]:
    """The rows' ``op``, ``event_seq``, ``row_seq`` and ``commit_seq``
    columns from their numpy forms (``ops`` holds codes into
    ``_OP_NAMES_ARROW``)."""
    return [
        pa.DictionaryArray.from_arrays(pa.array(ops), _OP_NAMES_ARROW).dictionary_decode(),
        pa.array(ev),
        pa.array(row_seqs),
        pa.array(commit_seqs),
    ]


def _payload_base(batch: pa.Table) -> tuple[pa.Buffer, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A block's byte source: one buffer holding every event's bytes, as
    a pyarrow Buffer and a numpy view, each event's start and end offsets
    in it, and the header pass over them
    (``protocol.decode.header_columns``).  One chunk's data buffer is
    used as it is (sliced or not, binary or large_binary); several chunks
    are concatenated into one."""
    col = batch.column("payload")
    chunks = [c for c in col.chunks if len(c)] if isinstance(col, pa.ChunkedArray) else [col]
    arr = chunks[0] if len(chunks) == 1 else pa.concat_arrays(chunks or [pa.array([], col.type)])
    _validity, offsets, data = arr.buffers()
    dtype = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    offs = np.frombuffer(offsets, dtype=dtype)[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    data = data or pa.py_buffer(b"")
    buf, starts, ends = np.frombuffer(data, dtype=np.uint8), offs[:-1], offs[1:]
    return data, buf, starts, ends, header_columns(buf, starts, ends)


def event_headers(batch: pa.Table) -> np.ndarray:
    """The header pass over a block's payload column: one record per
    event, each header field a column (:func:`_payload_base`)."""
    return _payload_base(batch)[4]


def _prefix_views(buf: np.ndarray) -> dict[int, np.ndarray]:
    """Unaligned little-endian views of ``buf`` by byte width: element
    ``j`` of ``views[w]`` is the ``w``-byte integer at byte ``j``, so one
    index reads a 1-, 2- or 4-byte length prefix at any offset."""
    views = {1: buf}
    for w, dtype in ((2, "<u2"), (4, "<u4")):
        views[w] = np.ndarray((max(1, len(buf) - w + 1),), dtype, buffer=buf, strides=(1,))
    return views


def _walk_images(
    views: dict[int, np.ndarray], pos: np.ndarray, st: "_TableState", record
) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """One row image of layout ``st`` from each offset in ``pos`` at
    once: its null bitmap, then each column's :func:`cell_layout` width.
    Returns the offsets past the images and, for each source column in
    ``record``, every image's cell as ``(start, length)``, the length
    counting any length prefix, -1 for NULL.  Reads are clipped to the
    buffer, so a misaligned image cannot index past it (the caller
    checks where the images end)."""
    buf = views[1]
    nb = [buf.take(pos + b, mode="clip") for b in range(len(st.not_null))]
    # columns declared NOT NULL skip the null test unless an image sets
    # one of their bits
    trusted = not any((byte & m).any() for byte, m in zip(nb, st.not_null) if m)
    p, acc = pos, len(nb)  # an image's offset is p + acc
    out = {}
    for i, (w, lb) in enumerate(st.cells):
        null = None if trusted and st.not_null[i >> 3] >> (i & 7) & 1 else nb[i >> 3] & (1 << (i & 7))
        if null is None and i not in record and not lb:
            acc += w
            continue
        if acc:
            p, acc = p + acc, 0
        if not lb:
            step = np.full(len(p), w, dtype=np.int64)
        elif lb == 1:
            step = np.add(buf.take(p, mode="clip"), 1, dtype=np.int64)
        else:
            view = views[2 if lb == 3 else lb]
            step = np.add(view[np.minimum(p, len(view) - 1)], lb, dtype=np.int64)
            if lb == 3:
                step += buf.take(p + 2, mode="clip").astype(np.int64) << 16
        if null is not None:
            step = np.where(null, 0, step)
        if i in record:
            out[i] = (p, step if null is None else np.where(null, -1, step))
        p = p + step
    return p + acc if acc else p, out


def _cell_view(base: pa.Buffer, lo: np.ndarray, hi: np.ndarray) -> pa.Array:
    """A zero-copy binary array over ``base`` whose elements alternate
    cell, gap, cell: cell ``j`` of the non-overlapping byte ranges
    ``[lo, hi)``, sorted by ``lo``, is element ``2 * j``."""
    offsets = np.empty(2 * len(lo), dtype=np.int64)
    offsets[0::2], offsets[1::2] = lo, hi
    if len(offsets) and offsets[-1] > np.iinfo(np.int32).max:
        return pa.Array.from_buffers(pa.large_binary(), len(offsets) - 1, [None, pa.py_buffer(offsets), base])
    offsets = offsets.astype(np.int32)
    return pa.Array.from_buffers(pa.binary(), len(offsets) - 1, [None, pa.py_buffer(offsets), base])


def _place(values: pa.Array, valid: np.ndarray) -> pa.Array:
    """``values`` (one per valid slot, in order) spread over ``valid``'s
    slots, null elsewhere."""
    if valid.all():
        return values
    idx = np.cumsum(valid) - 1
    return values.take(pa.array(idx, mask=~valid))


def _decode_cells(
    readers, i: int, col: ColumnDef, base: pa.Buffer, buf: np.ndarray, at: np.ndarray, ln: np.ndarray
) -> pa.Array:
    """The located cells ``(at, ln)`` of source column ``i`` (one per
    output row, ``ln`` -1 for NULL) as an Arrow array of the column's
    changefeed type, in that order.  Integers, FLOAT and DOUBLE are
    assembled little-endian in numpy; utf-8 text is one take over a
    :func:`_cell_view` of ``base`` and a cast (utf-8 validated in C);
    every other type is read by the layout's ``readers[i]`` at the
    located offsets."""
    typ = changefeed_arrow_type(col)
    valid = ln >= 0
    start, n = at[valid], int(valid.sum())
    if not n:
        return pa.nulls(len(ln), typ)
    t = col.type
    w, lb = cell_layout(col)
    if t in INTEGER_TYPES or t in (ColumnType.FLOAT, ColumnType.DOUBLE):
        raw = buf[start[:, None] + np.arange(w)]
        if w == 3:  # INT24: widen to 4 bytes, then sign-extend by hand
            raw = np.concatenate([raw, np.zeros((n, 1), np.uint8)], axis=1)
        kind = "f" if t in (ColumnType.FLOAT, ColumnType.DOUBLE) else ("i" if col.signed and w != 3 else "u")
        vals = raw.view(f"<{kind}{raw.shape[1]}").ravel()
        if w == 3 and col.signed:
            vals = vals.astype(np.int64) - ((vals >= 1 << 23) << 24)
        if t is ColumnType.FLOAT:
            # rounded to the metadata's digits, as the reader does
            vals = [round(v, col.size) for v in vals.astype(np.float64).tolist()]
        values = pa.array(vals, typ)
    elif t in (ColumnType.VARCHAR, ColumnType.STRING, ColumnType.BLOB) and collation_codec(col.charset) == "utf-8":
        lo, hi = start + lb, start + ln[valid]
        order = np.argsort(lo, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(0, 2 * n, 2)
        idx = np.zeros(len(ln), dtype=np.int64)
        idx[valid] = rank
        cells = _cell_view(base, lo[order], hi[order]).take(pa.array(idx, mask=None if n == len(ln) else ~valid))
        return cells.cast(pa.string())
    else:
        data = memoryview(base).cast("B")
        values = pa.array([readers[i](data, off)[0] for off in start.tolist()], typ)
    return _place(values, valid)


class _Located:
    """Pass 1 over one layout's ROWS events (:func:`_locate_images`):
    every row image in (event, image) order with its event, its start
    offset, its row in the event and its decoded key cells; which images
    are rows (all but update before-images) and which are update
    before-images (``bef``, each followed by its row's after-image)."""

    __slots__ = ("st", "events", "start", "row_of", "keys", "rows", "bef")

    def __init__(self, st, events, start, row_of, keys, rows, bef) -> None:
        self.st = st
        self.events = events
        self.start = start
        self.row_of = row_of
        self.keys = keys  # key source ordinal -> Arrow array over the images
        self.rows = rows
        self.bef = bef


def _locate_images(
    base: pa.Buffer,
    buf: np.ndarray,
    st: "_TableState",
    events: np.ndarray,
    update: np.ndarray,
    pos: np.ndarray,
    end: np.ndarray,
    cap: np.ndarray,
    seqs: np.ndarray,
) -> _Located:
    """Pass 1 of the located decode over layout ``st``'s ROWS events
    (``events``, its lanes), each from its first row image at ``pos``.
    Every numpy iteration walks one row image of each lane still short
    of its ``end`` (:func:`_walk_images`), recording the image's start
    and key cells (``st.key_list``): memory is O(images x key columns).
    A lane must end exactly at ``end``, inside the event's bytes
    (``cap``), after an even image count for an update; else
    ``ValueError`` names the table and the event."""
    views = _prefix_views(buf)
    pos = pos.copy()
    record = set(st.key_list)
    steps = []
    while True:
        live = np.flatnonzero(pos < end)
        if not len(live):
            break
        at = pos[live]
        pos[live], cells = _walk_images(views, at, st, record)
        steps.append((live, at, cells))
    n_img = np.zeros(len(pos), dtype=np.int64)
    for live, _at, _cells in steps:
        n_img[live] += 1
    bad = np.flatnonzero((pos != end) | (end > cap) | (update & (n_img % 2 == 1)))
    if len(bad):
        raise rows_overrun(st.plan.table_map, int(seqs[bad[0]]))
    # image k of lane l goes to first[l] + k: (event, image) order
    first = np.cumsum(n_img) - n_img
    total = int(n_img.sum())
    start = np.empty(total, dtype=np.int64)
    cells = {s: (np.empty(total, np.int64), np.empty(total, np.int64)) for s in st.key_list}
    for k, (live, at, step_cells) in enumerate(steps):
        dest = first[live] + k
        start[dest] = at
        for s, (c_at, c_ln) in step_cells.items():
            cells[s][0][dest] = c_at
            cells[s][1][dest] = c_ln
    columns = st.plan.table_map.columns
    keys = {s: _decode_cells(st.plan.readers, s, columns[s], base, buf, *cells[s]) for s in st.key_list}

    lane = np.repeat(np.arange(len(pos)), n_img)
    k = np.arange(total) - first[lane]
    two = update[lane]
    before = two & (k & 1 == 0)  # an update's images alternate before, after
    row_of = np.where(two, k >> 1, k)
    return _Located(st, events[lane], start, row_of, keys, np.flatnonzero(~before), np.flatnonzero(before))


def _key_moved(loc: _Located) -> np.ndarray:
    """The before-images of ``loc``'s key-changing update rows: Arrow
    finds the before and after values different in a key column (the
    target's dropped ones too)."""
    bef = loc.bef
    moved = np.zeros(len(bef), dtype=bool)
    for arr in loc.keys.values():
        b, a = arr.take(bef), arr.take(bef + 1)
        moved |= pc.fill_null(pc.not_equal(b, a), False).to_numpy(zero_copy_only=False)
        moved |= b.is_null().to_numpy(zero_copy_only=False) != a.is_null().to_numpy(zero_copy_only=False)
    return bef[moved]


def _target_column(located: list[_Located], t: int, typ: pa.DataType) -> pa.Array:
    """Target column ``t`` over every located row image (all layouts, in
    ``located``'s order): each layout's decoded key cells of the column,
    cast to ``typ``, or nulls where the layout lacks it."""
    pieces = []
    for loc in located:
        s = loc.st.remap[t]
        arr = loc.keys[s] if s is not None else pa.nulls(len(loc.events), typ)
        pieces.append(arr if arr.type == typ else arr.cast(typ))
    return pieces[0] if len(pieces) == 1 else pa.concat_arrays(pieces)


class _TableState:
    """Per-table-map decode state: compiled plan, cell layouts and remap
    into the target column order (late-binding cast, null-fill for added
    columns).  Never mutated after construction, so every decoder in a
    process shares one instance per layout and target
    (:func:`_table_state`)."""

    __slots__ = ("plan", "remap", "src_to_tgt", "key_list", "schema_ver", "cells", "not_null")

    def __init__(
        self,
        tm: TableMapDef,
        target_names: tuple[str, ...],
        key_names: tuple[str, ...] = (),
    ) -> None:
        self.plan = DecodePlan.compile(tm)
        name_to_src = {n: i for i, n in enumerate(self.plan.names)}
        # target ordinal -> source ordinal (None = added column, null);
        # source ordinal -> target ordinal (None = dropped column)
        self.remap = tuple(name_to_src.get(n) for n in target_names)
        tgt_of = {s: t for t, s in enumerate(self.remap) if s is not None}
        self.src_to_tgt = tuple(tgt_of.get(s) for s in range(len(self.plan.names)))
        # source ordinals of the key columns, decoded over every row
        # image in pass 1 (a merge-key column the target dropped too: it
        # still drives the key-change compare)
        self.key_list = sorted(name_to_src[k] for k in set(key_names) if k in name_to_src)
        self.schema_ver = tm.schema_ver
        # each column's (width, length-prefix bytes): the located decode
        # walks row images by these
        self.cells = tuple(cell_layout(c) for c in tm.columns)
        # per null-bitmap byte, the bits of the columns declared NOT NULL
        not_null = [0] * ((len(tm.columns) + 7) >> 3)
        for i, c in enumerate(tm.columns):
            if not c.nullable:
                not_null[i >> 3] |= 1 << (i & 7)
        self.not_null = tuple(not_null)


@lru_cache(maxsize=1024)
def _table_state(
    tm: TableMapDef, target_names: tuple[str, ...], key_names: tuple[str, ...]
) -> _TableState:
    """The one constructor of :class:`_TableState`: each layout's plan
    and cell layouts are built once per process, not once per decoder
    (``_spill_task`` builds a decoder per task).  All
    three keys are frozen; the bound keeps a long-lived worker's cache
    small when table ids keep changing."""
    return _TableState(tm, target_names, key_names)


class _BlockCtx:
    """One block's decode state, owned by the walk (``_row_events``):
    every block starts from the broadcast snapshot, so nothing here
    outlives the block.  The table bindings (``states``, a copy of the
    snapshot that in-band TABLE_MAPs bind into and a ROTATE resets), the
    table ids bound in-band, the checksum size (set by
    FORMAT_DESCRIPTION), the open transaction's provisional commit id and
    start, and one commit stamp per accepted ROWS event (``commits``)."""

    __slots__ = ("states", "bound", "checksum_size", "cur_commit", "txn_start", "commits")

    def __init__(self, states: dict[int, _TableState], checksum_size: int) -> None:
        self.states = dict(states)
        self.bound: set[int] = set()
        self.checksum_size = checksum_size
        self.cur_commit = -1
        self.txn_start = 0
        self.commits: list[int] = []


class BinlogDecoder:
    """map_batches callable: pa.Table(shard_id, event_seq, payload) ->
    changefeed pa.Table (one row per row image)."""

    def __init__(
        self,
        registry_snapshot: Iterable[dict[str, Any]] | None = None,
        target_table: tuple[str, str] | None = None,
        databases: list[str] | None = None,
        tables: list[str] | None = None,
        exclude_databases: list[str] | None = None,
        exclude_tables: list[str] | None = None,
        verify_checksums: bool = True,
        checksum_size: int = 4,
        start_after_seq: int | None = None,
        registry_actor_name: str | None = None,
        output: str = "changefeed",
        key_cols: tuple[str, ...] | None = None,
        commit_source: str = "hybrid",
    ) -> None:
        """``commit_source`` picks the commit-id numbering domain:

        - ``"hybrid"`` (default): transactions whose XID lands in-block
          are stamped with the XID value (the reference's commit marker,
          overwriting any provisional GTID stamp so one transaction
          never carries two ids); only a transaction spanning past the
          block end keeps its MARIA_GTID sequence number.  Exact and
          single-domain whenever GTID seqno == XID (as in the fixture
          streams); on servers where they differ, cross-block tails are
          GTID-domain — use ``"xid"`` + ``decode_shards_sequential`` for
          one strict domain.
        - ``"xid"``: strict XID domain; GTIDs only mark transaction
          boundaries; rows whose XID is out-of-block stay -1 (exact with
          ``pipelines.sequential.decode_shards_sequential``, one block
          per shard).
        - ``"gtid"``: strict MariaDB GTID-seqno domain; rows whose GTID
          is out-of-block stay -1.
        """
        maps = [TableMapDef.from_dict(d) for d in (registry_snapshot or [])]
        assert output in ("changefeed", "flat", "json")
        self.output = output
        if output == "json":
            # multi-table mode: every non-filtered table decodes in ONE
            # pass (the reference's `foreach ($eventStream ...)` shape);
            # rows render as JSON strings so one Arrow schema covers all
            # tables.  No target table, no remap.
            self.target_table = None
            self.target_map = None
            self.target_names = ()
            self.struct_type = None
        else:
            if target_table is None:
                if maps:
                    latest = max(maps, key=lambda m: (m.schema_ver, m.table_id))
                    target_table = (latest.schema_name, latest.table_name)
                else:
                    raise ValueError("target_table required when no registry snapshot given")
            self.target_table = target_table
            candidates = [m for m in maps if (m.schema_name, m.table_name) == target_table]
            if not candidates:
                raise ValueError(f"no registry entry for target table {target_table}")
            self.target_map = max(candidates, key=lambda m: (m.schema_ver, m.table_id))
            self.target_names = tuple(c.name for c in self.target_map.columns)
            self.struct_type = target_struct_type(self.target_map)
        # merge-key columns: default = the table's SIMPLE_PRIMARY_KEY from
        # the TABLE_MAP metadata (ColumnMetadataFactory.php:290-296); the
        # changefeed keys on every column, so pass 1 decodes every cell
        if output == "changefeed":
            self.key_names = self.target_names
        elif key_cols:
            self.key_names = tuple(key_cols)
        else:
            self.key_names = self.target_map.pk_names if self.target_map else ()
        if output == "flat":
            fields = [
                pa.field(n, self.struct_type.field(i).type)
                for i, n in enumerate(self.target_names)
            ] + [
                pa.field("op", pa.string()),
                pa.field("event_seq", pa.int64()),
                pa.field("row_seq", pa.int32()),
                pa.field("commit_seq", pa.int64()),
            ]
            self.out_schema = pa.schema(fields)
        elif output == "json":
            self.out_schema = pa.schema(
                [
                    pa.field("schema_name", pa.string()),
                    pa.field("table_name", pa.string()),
                    pa.field("op", pa.string()),
                    pa.field("table_map_id", pa.int64()),
                    pa.field("event_seq", pa.int64()),
                    pa.field("row_seq", pa.int32()),
                    pa.field("commit_seq", pa.int64()),
                    pa.field("ts", pa.int64()),
                    pa.field("before", pa.string()),
                    pa.field("after", pa.string()),
                ]
            )
        else:
            self.out_schema = changefeed_schema(self.target_map)
        self._empty = self.out_schema.empty_table()

        # the broadcast snapshot, never mutated: every block's bindings
        # start from a copy of it (``_BlockCtx.states``)
        self.states: dict[int, _TableState] = {
            m.table_id: _table_state(m, self.target_names, self.key_names) for m in maps
        }
        # _accepts' answer per layout
        self._accepted: dict[_TableState, bool] = {}
        assert commit_source in ("hybrid", "xid", "gtid")
        self.commit_source = commit_source

        self.databases = databases
        self.tables = tables
        self.exclude_databases = exclude_databases
        self.exclude_tables = exclude_tables
        self._check = bool(databases or tables or exclude_databases or exclude_tables)

        self.verify = verify_checksums
        self.checksum_size = checksum_size
        self.start_after_seq = start_after_seq
        self.registry_actor_name = registry_actor_name
        self._registry_handle = None

        # metrics (M9): per-decoder counters, kept by the one event walk;
        # _spill_task returns them with its chunk index and the exchange
        # sums them into the commit's stats
        self.n_events = 0
        self.n_rows = 0
        self.n_bytes = 0
        self.n_checksum_failures = 0

    # -- reference F1 semantics (`EventsIterator.php:103-130`) --
    def _filtered(self, tm: TableMapDef) -> bool:
        if not self._check:
            return False
        if self.databases is not None and tm.schema_name not in self.databases:
            return True
        if self.tables is not None and f"{tm.schema_name}.{tm.table_name}" not in self.tables:
            return True
        if self.exclude_databases is not None and tm.schema_name in self.exclude_databases:
            return True
        if (
            self.exclude_tables is not None
            and f"{tm.schema_name}.{tm.table_name}" in self.exclude_tables
        ):
            return True
        return False

    def _accepts(self, st: _TableState) -> bool:
        """Whether the walk decodes layout ``st``'s ROWS events: its table
        is the target (any table in json mode) and passes the F1 filters.
        A function of the layout alone, cached per decoder."""
        ok = self._accepted.get(st)
        if ok is None:
            tm = st.plan.table_map
            target = self.target_table
            ok = (target is None or (tm.schema_name, tm.table_name) == target) and not self._filtered(tm)
            self._accepted[st] = ok
        return ok

    def _bind_table_map(self, tm: TableMapDef, ctx: _BlockCtx) -> None:
        """In-band TABLE_MAP binding into the block's ``ctx.states``:
        in-band wins over the snapshot for the current file (a real
        server reuses table ids across files with different layouts; the
        in-band map is the authoritative one, `EventsIterator.php:198-205`).
        Identical layouts reuse the compiled state from
        :func:`_table_state` — no recompilation."""
        cur = ctx.states.get(tm.table_id)
        if cur is not None:
            ctm = cur.plan.table_map
            if (
                ctm.columns == tm.columns
                and (ctm.schema_name, ctm.table_name) == (tm.schema_name, tm.table_name)
            ):
                # identical layout: keep the bound state — the snapshot
                # entry carries schema_ver lineage the wire map lacks
                return
        ctx.states[tm.table_id] = _table_state(tm, self.target_names, self.key_names)

    def _resolve(self, table_id: int, ctx: _BlockCtx) -> _TableState:
        """Registry lookup: the block's bindings (in-band, then the
        broadcast snapshot they start from) first, the registry actor
        last (M3); an actor hit is bound for the rest of the block."""
        st = ctx.states.get(table_id)
        if st is not None:
            return st
        if self.registry_actor_name is not None:
            import ray

            if self._registry_handle is None:
                self._registry_handle = ray.get_actor(self.registry_actor_name)
            d = ray.get(self._registry_handle.get.remote(table_id))
            if d is not None:
                tm = TableMapDef.from_dict(d)
                st = ctx.states[table_id] = _table_state(tm, self.target_names, self.key_names)
                return st
        raise KeyError(f"unknown table_map id {table_id}; no registry entry")

    def _handle_marker(self, etype: int, word: int, payload, ctx: _BlockCtx) -> None:
        """ONE definition of the non-ROWS event semantics, shared by all
        three decode modes (changefeed/flat/json) — commit stamping,
        ROTATE, checksum gating and in-band TABLE_MAP binding must never
        diverge between output modes.  ``word`` is the event's ``body_u64``
        (XID value, MARIA_GTID seqno, TABLE_MAP table id).

        - FORMAT_DESCRIPTION gates checksum handling
          (`EventsIterator.php:141-151`).
        - ROTATE resets the block's bindings to the snapshot (table maps
          never cross files, `EventsIterator.php:163-173`) AND closes the
          open transaction (its unstamped rows stay -1 rather than being
          claimed by the next file's first XID).
        - MARIA_GTID opens a transaction: provisional forward stamp in
          gtid/hybrid modes, boundary marker always.
        - TABLE_MAP parses once per block per table id; in-band wins
          over the snapshot for the current file.
        - XID stamps exactly ``ctx.commits[txn_start:]`` via _stamp_xid in
          xid/hybrid modes (one transaction, one commit id).
        """
        if etype == EventType.FORMAT_DESCRIPTION:
            payload = bytes(payload)
            h = parse_header(payload, 0)
            _, _, alg = parse_format_description(payload, h)
            ctx.checksum_size = 4 if alg > 0 else 0
        elif etype == EventType.ROTATE:
            ctx.states = dict(self.states)
            ctx.bound.clear()
            ctx.cur_commit = -1
            ctx.txn_start = len(ctx.commits)
        elif etype == EventType.MARIA_GTID:
            if self.commit_source in ("hybrid", "gtid"):
                ctx.cur_commit = word
            ctx.txn_start = len(ctx.commits)
        elif etype == EventType.GTID:
            # MySQL-flavor GTID_LOG_EVENT (0x21): flags(1) + SID(16) +
            # GNO(8 LE) [+ logical-clock suffix, ignored].  The GNO is
            # per-source-UUID monotone, so it serves as the provisional
            # commit id exactly like the MariaDB seqno (reference skips
            # this family entirely, `EventsIterator.php:244-254`).
            if self.commit_source in ("hybrid", "gtid"):
                ctx.cur_commit = int.from_bytes(payload[37:45], "little")
            ctx.txn_start = len(ctx.commits)
        elif etype == EventType.TABLE_MAP:
            tid = word & TABLE_ID_MASK
            if tid in ctx.bound:
                return
            payload = bytes(payload)
            h = parse_header(payload, ctx.checksum_size)
            if self.verify and not verify_checksum(payload, ctx.checksum_size):
                self.n_checksum_failures += 1
                return
            self._bind_table_map(parse_table_map(payload, h), ctx)
            ctx.bound.add(tid)
        elif etype == EventType.XID:
            if self.commit_source in ("hybrid", "xid"):
                ctx.txn_start = _stamp_xid(ctx.commits, ctx.txn_start, word)
            else:
                ctx.txn_start = len(ctx.commits)
            ctx.cur_commit = -1
        # QUERY / skip events: no state change, no output

    def _row_events(self, batch: pa.Table, block=None) -> tuple[list[tuple], _BlockCtx]:
        """The ONE event walk shared by the three output modes (the
        reference's single `EventsIterator` loop, `EventsIterator.php:73-88`).
        ``block`` is :func:`_payload_base` of ``batch`` (computed if not
        given); its header columns select the events visited, in order:
        ROWS events and the markers that change decode state.  Returns
        each accepted ROWS event as ``(row, event_seq, etype, table_id,
        state, payload, checksum_size)``, ``row`` being its row in
        ``batch``, and the block's context, whose ``commits`` holds one
        commit stamp per returned event.  The walk owns all decode state
        (:class:`_BlockCtx`); across blocks the decoder keeps only its
        counters, :meth:`_accepts`' cache and the registry actor's handle."""
        base, _buf, starts, ends, hdr = block or _payload_base(batch)
        event_seqs = batch.column("event_seq").to_numpy(zero_copy_only=False)
        live = np.arange(len(starts))
        if self.start_after_seq is not None:
            live = live[event_seqs > self.start_after_seq]  # F2 replay-skip (`EventsIterator.php:207-215`)
        self.n_events += len(live)
        self.n_bytes += int((ends[live] - starts[live]).sum())
        walked = live[_WALKED[hdr["type"][live]]]
        ctx = _BlockCtx(self.states, self.checksum_size)
        events = []
        # pyarrow Buffers expose a SIGNED ('b') memoryview; cast to
        # unsigned so single-byte indexing returns 0..255
        data = memoryview(base).cast("B")
        for row, event_seq, etype, word, lo, hi in zip(
            walked.tolist(), event_seqs[walked].tolist(), hdr["type"][walked].tolist(),
            hdr["body_u64"][walked].tolist(), starts[walked].tolist(), ends[walked].tolist(),
        ):
            payload = data[lo:hi]
            if etype not in _ROWS_TYPES:
                self._handle_marker(etype, word, payload, ctx)
                continue
            table_id = word & TABLE_ID_MASK
            st = self._resolve(table_id, ctx)
            if not self._accepts(st):
                continue  # F1: filtered tables never deserialized
            if self.verify and not verify_checksum(payload, ctx.checksum_size):
                self.n_checksum_failures += 1
                continue
            events.append((row, event_seq, etype, table_id, st, payload, ctx.checksum_size))
            ctx.commits.append(ctx.cur_commit)
        return events, ctx

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.output == "flat":
            return self._call_flat(batch)
        if self.output == "json":
            return self._call_json(batch)
        return self._call_changefeed(batch)

    def _locate(
        self, batch: pa.Table
    ) -> tuple[dict[str, np.ndarray], list[_Located], pa.Buffer, np.ndarray] | None:
        """The walk and pass 1 of the located decode, shared by the
        changefeed and flat modes.  :meth:`_row_events` over
        :func:`_payload_base`'s buffer and its header columns and, per
        accepted ROWS event, the one prologue, ``rows_body_offset``, give
        where its row images start and end in that buffer (the end from
        ``event_size``); :func:`_locate_images` then walks each layout's
        events at once.
        Returns the events' columns (``row`` in the batch, ``layout``
        into the located list, ``op`` code, ``seq``, ``table_id``,
        ``ts``, ``commit``), the located layouts and the payload buffer,
        or None when the walk accepted no ROWS event."""
        block = base, buf, starts, ends, hdr = _payload_base(batch)
        accepted, ctx = self._row_events(batch, block)
        if not accepted:
            return None
        layouts: dict[_TableState, int] = {}
        events = []
        for row, event_seq, etype, tid, st, payload, checksum_size in accepted:
            off, _ = rows_body_offset(payload, etype, st.plan)
            layout = layouts.setdefault(st, len(layouts))
            events.append((row, layout, _OP_CODE_BY_TYPE[etype], event_seq, tid, off, 1 - checksum_size))
        row, layout, op, seq, tid, off, trail = np.array(events, dtype=np.int64).T
        h = hdr[row]
        ts = h["timestamp"].astype(np.int64)
        pos, end, cap = starts[row] + off, starts[row] + h["event_size"] + trail, ends[row]
        located = []
        for st, j in layouts.items():
            lanes = np.flatnonzero(layout == j)
            update = op[lanes] == _OP_UPDATE_CODE
            bounds = pos[lanes], end[lanes], cap[lanes]
            located.append(_locate_images(base, buf, st, lanes, update, *bounds, seq[lanes]))
        commit = np.asarray(ctx.commits, dtype=np.int64)
        ev = {"row": row, "layout": layout, "op": op, "seq": seq, "table_id": tid, "ts": ts, "commit": commit}
        return ev, located, base, buf

    def _call_changefeed(self, batch: pa.Table) -> pa.Table:
        """Changefeed rows through the located decode (:meth:`_locate`):
        the decoder's keys are every target column, so pass 1 decoded
        every target cell of every row image, and each row's ``before``
        and ``after`` structs are takes of those columns by the row's
        images (`EventsIterator.php:370-506` + `RowFactory.php:28-182`).
        An insert has no before-image and a delete no after-image; a
        column the row's layout lacks is null."""
        p = self._locate(batch)
        if p is None:
            return self._empty
        ev, located, _base, _buf = p
        n_ev = len(ev["op"])
        rows_e = np.zeros(n_ev, dtype=np.int64)
        for loc in located:
            rows_e += np.bincount(loc.events[loc.rows], minlength=n_ev)
        n = int(rows_e.sum())
        self.n_rows += n
        if not n:
            return self._empty
        first = np.cumsum(rows_e) - rows_e
        ops = np.repeat(ev["op"], rows_e)
        before_img = np.empty(n, dtype=np.int64)  # each row's images, over all layouts
        after_img = np.empty(n, dtype=np.int64)
        row_seqs = np.empty(n, dtype=np.int32)
        img_base = 0
        for loc in located:
            rows = loc.rows
            at = first[loc.events[rows]] + loc.row_of[rows]
            row_seqs[at] = loc.row_of[rows]
            after_img[at] = before_img[at] = img_base + rows
            img_base += len(loc.events)
        before_img[ops == _OP_UPDATE_CODE] -= 1  # an update's before-image precedes its after-image
        fields = list(self.struct_type)
        cols = [_target_column(located, t, f.type) for t, f in enumerate(fields)]

        def image(img: np.ndarray, absent: np.ndarray) -> pa.StructArray:
            idx = pa.array(img, mask=absent)
            return pa.StructArray.from_arrays(
                [c.take(idx) for c in cols], fields=fields, mask=pa.array(absent, pa.bool_())
            )

        ver = np.array([loc.st.schema_ver for loc in located], dtype=np.int32)
        shard_ids = batch.column("shard_id").to_numpy(zero_copy_only=False)
        op_arr, ev_arr, rs_arr, commit_arr = _meta_arrays(
            ops, np.repeat(ev["seq"], rows_e), row_seqs, np.repeat(ev["commit"], rows_e)
        )
        return pa.Table.from_arrays(
            [
                op_arr,
                pa.array([self.target_table[0]] * n, pa.string()),
                pa.array([self.target_table[1]] * n, pa.string()),
                pa.array(np.repeat(ev["table_id"], rows_e)),
                pa.array(np.repeat(ver[ev["layout"]], rows_e)),
                pa.array(np.repeat(shard_ids[ev["row"]].astype(np.int32), rows_e)),
                ev_arr,
                rs_arr,
                commit_arr,
                pa.array(np.repeat(ev["ts"], rows_e)),
                image(before_img, ops == _OP_INSERT_CODE),
                image(after_img, ops == _OP_DELETE_CODE),
            ],
            schema=self.out_schema,
        )

    def _call_json(self, batch: pa.Table) -> pa.Table:
        """Multi-table single-pass decode: EVERY non-filtered table's row
        events in one walk, rendered as JSON row images — the Ray batch
        analog of the reference's all-tables event iteration
        (`examples/print-row-events.php:37-43`, JSON shape per
        `WriteRows.php:26-32` and friends).  Rows decode through
        ``parse_rows_event`` in source column order (no target remap)."""
        import json as _json

        def dump(row: dict | None) -> str | None:
            return None if row is None else _json.dumps(row, ensure_ascii=False)

        schemas: list[str] = []
        tables: list[str] = []
        ops: list[str] = []
        tm_ids: list[int] = []
        ev_seqs: list[int] = []
        row_seqs: list[int] = []
        tss: list[int] = []
        befores: list[str | None] = []
        afters: list[str | None] = []
        rows_e: list[int] = []  # rows per event: each repeats its event's commit stamp

        events, ctx = self._row_events(batch)
        for _row, event_seq, _etype, table_id, st, payload, checksum_size in events:
            h = parse_header(payload, checksum_size)
            ev = parse_rows_event(payload, h, {table_id: st.plan}, event_seq)
            n_rows = len(ev.rows)
            rows_e.append(n_rows)
            if ev.op == "update":
                befores.extend(dump(r["before"]) for r in ev.rows)
                afters.extend(dump(r["after"]) for r in ev.rows)
            else:
                images = [dump(r) for r in ev.rows]
                nones = [None] * n_rows
                befores.extend(images if ev.op == "delete" else nones)
                afters.extend(nones if ev.op == "delete" else images)
            tm = st.plan.table_map
            schemas.extend([tm.schema_name] * n_rows)
            tables.extend([tm.table_name] * n_rows)
            ops.extend([ev.op] * n_rows)
            tm_ids.extend([table_id] * n_rows)
            ev_seqs.extend([event_seq] * n_rows)
            row_seqs.extend(range(n_rows))
            tss.extend([h.timestamp] * n_rows)
            self.n_rows += n_rows

        if not ops:
            return self._empty
        return pa.table(
            {
                "schema_name": pa.array(schemas, pa.string()),
                "table_name": pa.array(tables, pa.string()),
                "op": pa.array(ops, pa.string()),
                "table_map_id": pa.array(tm_ids, pa.int64()),
                "event_seq": pa.array(ev_seqs, pa.int64()),
                "row_seq": pa.array(row_seqs, pa.int32()),
                "commit_seq": pa.array(np.repeat(np.asarray(ctx.commits, dtype=np.int64), rows_e)),
                "ts": pa.array(tss, pa.int64()),
                "before": pa.array(befores, pa.string()),
                "after": pa.array(afters, pa.string()),
            },
            schema=self.out_schema,
        )

    def _call_flat(self, batch: pa.Table, key_cols: tuple[str, ...] | None = None) -> pa.Table:
        """Flat decode for the merge pipeline, through the located decode
        (:meth:`_locate`): one row per row image, no struct images.  An
        update's row is its after-image, and a key-changing update also
        gets a tombstone (op ``delete``, its before-image's keys); a
        delete's row holds only the merge keys; an added column is null.
        Each event's rows come first, then its tombstones.

        With ``key_cols`` only each key's newest row is kept, as
        :meth:`flat_combined` documents; without, every row is.  Value
        cells are built only for the rows kept (:meth:`_kept_values`)."""
        p = self._locate(batch)
        if p is None:
            return self._empty
        ev, located, base, buf = p
        n_ev = len(ev["op"])
        tombs = [_key_moved(loc) for loc in located]
        # flat order: each event's rows, then its tombstones
        rows_e = np.zeros(n_ev, dtype=np.int64)
        tombs_e = np.zeros(n_ev, dtype=np.int64)
        for loc, tb in zip(located, tombs):
            rows_e += np.bincount(loc.events[loc.rows], minlength=n_ev)
            tombs_e += np.bincount(loc.events[tb], minlength=n_ev)
        self.n_rows += int(rows_e.sum())
        counts = rows_e + tombs_e
        n_flat = int(counts.sum())
        if not n_flat:
            return self._empty
        first = np.cumsum(counts) - counts
        ops = np.repeat(ev["op"], counts)
        flat_img = np.empty(n_flat, dtype=np.int64)  # each row's image, over all layouts
        row_seqs = np.empty(n_flat, dtype=np.int32)
        img_base = 0
        for loc, tb in zip(located, tombs):
            ev_of, rows = loc.events, loc.rows
            at = first[ev_of[rows]] + loc.row_of[rows]
            flat_img[at] = img_base + rows
            row_seqs[at] = loc.row_of[rows]
            # a tombstone reuses its row's row_seq: a later row of the same
            # event may re-fill the vacated key and must outrank it
            te = ev_of[tb]  # ascending: images are in event order
            at = first[te] + rows_e[te] + np.arange(len(tb)) - np.searchsorted(te, te)
            flat_img[at] = img_base + tb
            row_seqs[at] = loc.row_of[tb]
            ops[at] = _OP_DELETE_CODE
            img_base += len(ev_of)
        seqs = np.repeat(ev["seq"], counts)
        commit_seqs = np.repeat(ev["commit"], counts)

        key_tgts = {t for t, n in enumerate(self.target_names) if n in self.key_names}
        idx = pa.array(flat_img)
        keys = {
            self.target_names[t]: _target_column(located, t, self.struct_type.field(t).type).take(idx)
            for t in sorted(key_tgts)
        }
        if key_cols is None or n_flat <= 1:
            win = np.arange(n_flat)
        else:
            win = _winner_indices(pa.table({**keys, "event_seq": seqs, "row_seq": row_seqs}), key_cols)
        values = self._kept_values(located, flat_img[win], ops[win] != _OP_DELETE_CODE, key_tgts, base, buf)
        arrays = [
            keys[n].take(win) if t in key_tgts else values[t] for t, n in enumerate(self.target_names)
        ] + _meta_arrays(ops[win], seqs[win], row_seqs[win], commit_seqs[win])
        return pa.Table.from_arrays(arrays, schema=self.out_schema)

    def flat_combined(self, batch: pa.Table, key_cols: tuple[str, ...]) -> pa.Table:
        """Flat decode fused with the partial combine: Arrow-equal to
        ``merge.lww_partial(self(batch), key_cols)`` (same schema, rows
        and row order), but value cells are built only for the rows the
        combine keeps.  ``key_cols`` must be among the decoder's merge
        keys (``key_cols=`` / the table's primary key).

        1. The walk and pass 1, :meth:`_locate`: per layout,
           :func:`_locate_images` walks one row image of every event per
           numpy iteration and records each image's start and merge-key
           cells; the key cells decode once per column
           (:func:`_decode_cells`).  A key-changing update gets its
           tombstone when Arrow says the before and after key values
           differ (:func:`_key_moved`).
        2. Winners: ``merge._winner_indices`` over the key and sequence
           columns, the function ``lww_partial`` runs.
        3. Pass 2, :meth:`_kept_values`: :func:`_walk_images` once over
           the winning after-images of each layout, vectorized over the
           winners, locates their value cells, which :func:`_decode_cells`
           gathers from the payload buffer.  Deletes, tombstones and
           added columns are null.
        """
        assert self.output == "flat"
        not_decoded = [k for k in key_cols if k in self.target_names and k not in self.key_names]
        if not_decoded:
            raise ValueError(f"merge keys {not_decoded} are not decoder merge keys {self.key_names}")
        return self._call_flat(batch, key_cols)

    def _kept_values(
        self,
        located: list[_Located],
        win_img: np.ndarray,
        is_image: np.ndarray,
        key_tgts: set[int],
        base: pa.Buffer,
        buf: np.ndarray,
    ) -> dict[int, pa.Array]:
        """Pass 2 of the flat modes: the non-key target columns of the
        rows kept, whose images (over all layouts, in ``located``'s
        order) are ``win_img``.  :func:`_walk_images` walks the kept
        after-images (``is_image``) of each layout once, vectorized over
        them, and :func:`_decode_cells` gathers each column's cells; a
        delete or tombstone, and a column the image's layout lacks, is
        null.  Cells of layouts that share a column definition decode
        together."""
        n = len(win_img)
        ends = np.cumsum([len(loc.events) for loc in located])
        layout_of = np.searchsorted(ends, win_img, side="right")
        views = _prefix_views(buf)
        groups: dict[tuple[int, ColumnDef], tuple] = {}
        for j, loc in enumerate(located):
            sel = np.flatnonzero(is_image & (layout_of == j))
            if not len(sel):
                continue
            st = loc.st
            record = {s for s, t in enumerate(st.src_to_tgt) if t is not None and t not in key_tgts}
            at = loc.start[win_img[sel] - (ends[j - 1] if j else 0)]
            _end, cells = _walk_images(views, at, st, record)
            for s, (c_at, c_ln) in cells.items():
                key = (st.src_to_tgt[s], st.plan.table_map.columns[s])
                if key not in groups:
                    groups[key] = (st.plan.readers, s, np.zeros(n, np.int64), np.full(n, -1, np.int64))
                g = groups[key]
                g[2][sel], g[3][sel] = c_at, c_ln
        out = {}
        for t, f in enumerate(self.struct_type):
            if t in key_tgts:
                continue
            vals = [
                _decode_cells(readers, s, col, base, buf, at, ln).cast(f.type)
                for (tt, col), (readers, s, at, ln) in groups.items()
                if tt == t
            ]
            if not vals:
                out[t] = pa.nulls(n, f.type)
            else:
                out[t] = vals[0] if len(vals) == 1 else pc.coalesce(*vals)
        return out
