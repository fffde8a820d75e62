"""Decode stage: serialized binlog events -> Arrow changefeed.

SURVEY.md §2.7 M2/M3/M4: ``BinlogDecoder`` is a stateful callable over
pyarrow batches ``(shard_id, event_seq, payload)``.  All expensive setup
happens before ``__call__``, so it only walks payload bytes: per-table
decode plans, their code-generated row decoders and the column remap
for late-binding casts are compiled once per table layout per process
(``_table_state``), and the target schema is resolved once per decoder
in ``__init__``.  The exchange's ``_spill_task`` (every shard replay)
builds one decoder per shard and ``_map_decoder`` (the changefeed
consumers) caches one per worker.

The three output modes (changefeed, flat, json) share ONE event walk,
``_row_events`` — the reference's single ``EventsIterator`` loop
(`EventsIterator.php:73-88`) — and ONE ROWS-event prologue,
``protocol.decode.rows_body_offset``; a mode only chooses how it emits
the rows of each accepted ROWS event.  The changefeed mode and
``__call__``'s flat mode decode rows through ONE kernel per op, the
layout's code-generated row decoder (``_TableState.codegen``); json
mode uses ``parse_rows_event``.  ``flat_combined`` (the lake's spill
tasks) runs no kernel: a located decode finds the cells of every row
image with one numpy pass per layout (``_locate_images``, all events at
once, one row image of each per iteration, widths from
``protocol.decode.cell_layout``), picks each key's newest row, walks
only those after-images again to find their value cells, and gathers
the cells it keeps from the block's payload buffer with numpy and Arrow
takes (``_decode_cells``), reading only the types no gather covers
through the layout's cell readers.

Semantics reproduced from the reference (citations in protocol/decode.py):

- FORMAT_DESCRIPTION gates checksum handling (`EventsIterator.php:141-151`)
- TABLE_MAP events update the in-band schema registry
  (`EventsIterator.php:198-205`); unknown table ids fall back to the
  broadcast registry snapshot (our distributed stand-in for the
  single-process dict at `EventsIterator.php:40`)
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
    DecodePlan,
    cell_layout,
    parse_format_description,
    parse_header,
    parse_rows_event,
    parse_table_map,
    parse_xid,
    rows_body_offset,
    rows_overrun,
    verify_checksum,
)
from ..protocol.model import ColumnDef, TableMapDef
from .merge import _winner_indices

_ROWS_TYPES = {0x17, 0x18, 0x19, 0x1E, 0x1F, 0x20}
_OP_BY_TYPE = {
    0x17: "insert",
    0x1E: "insert",
    0x18: "update",
    0x1F: "update",
    0x19: "delete",
    0x20: "delete",
}
# run-length op encoding for the flat path (expanded via np.repeat)
_OP_NAMES_ARROW = pa.array(["insert", "update", "delete"], pa.string())
_OP_CODE_BY_TYPE = {0x17: 0, 0x1E: 0, 0x18: 1, 0x1F: 1, 0x19: 2, 0x20: 2}
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
    would be silent corruption the repair pass cannot detect.  Returns
    the new boundary.  One definition, used by all three decode modes.
    """
    for i in range(txn_start, len(commit_seqs)):
        commit_seqs[i] = xid
    return len(commit_seqs)


def _build_child(values: list, typ: pa.DataType) -> pa.Array:
    """pa.array with two quirks handled:

    - u64 parity: the decoder emits values >= 2^63 as decimal strings
      (reference GMP fallback, `UIntLeReadTrait.php:133-138`); a
      uint64-typed Arrow column takes them back as integers.
    - utf-8 text fast path: the codegen row kernel appends RAW BYTES
      for utf-8-charset text cells; build as binary and cast, so utf-8
      validation happens once in C (never a per-cell Python decode).
    """
    if pa.types.is_uint64(typ):
        # optimistic C-path first: the decimal-string fallback only
        # exists for values >= 2^63, so scanning/converting every cell
        # up front costs ~20% of the whole flat decode for nothing on
        # typical batches — convert only when pa.array actually trips
        try:
            return pa.array(values, type=typ)
        except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError):
            values = [int(v) if isinstance(v, str) else v for v in values]
    elif pa.types.is_string(typ):
        for v in values:
            if v is None:
                continue
            if isinstance(v, bytes):
                return pa.array(values, type=pa.binary()).cast(pa.string())
            break
    return pa.array(values, type=typ)


def _meta_arrays(
    ops: np.ndarray, ev: np.ndarray, row_seqs: np.ndarray, commit_seqs: np.ndarray
) -> list[pa.Array]:
    """The flat rows' ``op``, ``event_seq``, ``row_seq`` and
    ``commit_seq`` columns from their numpy forms (``ops`` holds codes
    into ``_OP_NAMES_ARROW``)."""
    return [
        pa.DictionaryArray.from_arrays(pa.array(ops), _OP_NAMES_ARROW).dictionary_decode(),
        pa.array(ev),
        pa.array(row_seqs),
        pa.array(commit_seqs),
    ]


def _payload_base(batch: pa.Table) -> tuple[pa.Buffer, np.ndarray, list[int]]:
    """The located decode's byte source: one buffer holding every
    event's bytes, as a pyarrow Buffer and a numpy view, and each event's
    start offset in it.  One chunk's data buffer is used as it is
    (sliced or not, binary or large_binary); several chunks are copied
    into one buffer, their used byte ranges back to back."""
    col = batch.column("payload")
    spans = []
    for chunk in col.chunks if isinstance(col, pa.ChunkedArray) else [col]:
        if not len(chunk):
            continue
        _validity, offsets, data = chunk.buffers()
        dtype = np.int64 if pa.types.is_large_binary(chunk.type) else np.int32
        offs = np.frombuffer(offsets, dtype=dtype)[chunk.offset : chunk.offset + len(chunk) + 1]
        spans.append((data or pa.py_buffer(b""), offs.astype(np.int64)))
    if len(spans) == 1:
        data, offs = spans[0]
        return data, np.frombuffer(data, dtype=np.uint8), offs[:-1].tolist()
    parts, starts, at = [], [], 0
    for data, offs in spans:
        parts.append(np.frombuffer(data, dtype=np.uint8)[offs[0] : offs[-1]])
        starts += (offs[:-1] - offs[0] + at).tolist()
        at += int(offs[-1] - offs[0])
    joined = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
    return pa.py_buffer(joined), joined, starts


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
    offset, its row in the event and its decoded merge keys; which
    images are rows (all but update before-images) and which are
    key-change tombstones (the before-images of rows whose key moved)."""

    __slots__ = ("st", "events", "start", "row_of", "keys", "rows", "tombs")

    def __init__(self, st, events, start, row_of, keys, rows, tombs) -> None:
        self.st = st
        self.events = events
        self.start = start
        self.row_of = row_of
        self.keys = keys  # key source ordinal -> Arrow array over the images
        self.rows = rows
        self.tombs = tombs


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
    and merge-key cells: memory is O(images x key columns).  A lane must
    end exactly at ``end``, inside the event's bytes (``cap``), after an
    even image count for an update; else ``ValueError`` names the table
    and the event.  An update row is a key change when Arrow finds its
    before and after key values different in any merge-key column (the
    target's dropped ones too, ``key_trash_srcs``)."""
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
    bef = np.flatnonzero(before)
    moved = np.zeros(len(bef), dtype=bool)
    for arr in keys.values():
        b, a = arr.take(bef), arr.take(bef + 1)
        moved |= pc.fill_null(pc.not_equal(b, a), False).to_numpy(zero_copy_only=False)
        moved |= b.is_null().to_numpy(zero_copy_only=False) != a.is_null().to_numpy(zero_copy_only=False)
    row_of = np.where(two, k >> 1, k)
    return _Located(st, events[lane], start, row_of, keys, np.flatnonzero(~before), bef[moved])


class _TableState:
    """Per-table-map decode state: compiled plan + remap into the target
    column order (late-binding cast, null-fill for added columns).
    Never mutated after construction, so every decoder in a process
    shares one instance per layout and target (:func:`_table_state`)."""

    __slots__ = (
        "plan",
        "remap",
        "src_to_tgt",
        "null_fill_tgts",
        "key_list",
        "key_trash_srcs",
        "schema_ver",
        "key_src",
        "cells",
        "not_null",
        "codegen",
    )

    def __init__(
        self,
        tm: TableMapDef,
        target_names: tuple[str, ...],
        key_names: tuple[str, ...] = (),
    ) -> None:
        self.plan = DecodePlan.compile(tm)
        name_to_src = {n: i for i, n in enumerate(self.plan.names)}
        self.remap = tuple(name_to_src.get(n) for n in target_names)
        # inverse map for the flat path's direct-write decode: source
        # ordinal -> target ordinal (None = dropped column, goes to a
        # per-decoder trash list), plus the target ordinals with no
        # source (added columns, null-filled per event)
        tgt_of = {s: t for t, s in enumerate(self.remap) if s is not None}
        self.src_to_tgt = tuple(tgt_of.get(s) for s in range(len(self.plan.names)))
        self.null_fill_tgts = tuple(
            t for t, s in enumerate(self.remap) if s is None
        )
        # source ordinals of the merge-key columns (delete before-images
        # only need these decoded; everything else is skipped)
        self.key_src = frozenset(
            name_to_src[k] for k in key_names if k in name_to_src
        )
        self.key_list = sorted(self.key_src)
        # merge-key source columns with NO target slot (a DDL dropped
        # them from the latest layout): their after-images must go to
        # dedicated per-event lists, never the shared trash — the
        # key-change tombstone compare reads them back
        self.key_trash_srcs = tuple(
            s for s in self.key_list if self.src_to_tgt[s] is None
        )
        self.schema_ver = tm.schema_ver
        # each column's (width, length-prefix bytes): flat_combined's
        # located decode walks row images by these
        self.cells = tuple(cell_layout(c) for c in tm.columns)
        # per null-bitmap byte, the bits of the columns declared NOT NULL
        not_null = [0] * ((len(tm.columns) + 7) >> 3)
        for i, c in enumerate(tm.columns):
            if not c.nullable:
                not_null[i >> 3] |= 1 << (i & 7)
        self.not_null = tuple(not_null)
        # per-(table, op) code-generated row decoders: the one row
        # kernel of the changefeed mode and __call__'s flat mode
        from ..protocol.codegen import compile_flat_decoders

        self.codegen = compile_flat_decoders(self.plan, self.key_src)


@lru_cache(maxsize=1024)
def _table_state(
    tm: TableMapDef, target_names: tuple[str, ...], key_names: tuple[str, ...]
) -> _TableState:
    """The one constructor of :class:`_TableState`: each layout's plan
    and code-generated row decoders are compiled once per process, not
    once per decoder (``_spill_task`` builds a decoder per task).  All
    three keys are frozen; the bound keeps a long-lived worker's cache
    small when table ids keep changing."""
    return _TableState(tm, target_names, key_names)


class _BlockCtx:
    """Per-block decode context threaded through the shared marker
    handler: checksum size (set by FORMAT_DESCRIPTION), the open
    transaction's provisional commit id and start index, and the
    table ids bound in-band this block."""

    __slots__ = ("checksum_size", "cur_commit", "txn_start", "bound")

    def __init__(self, checksum_size: int) -> None:
        self.checksum_size = checksum_size
        self.cur_commit = -1
        self.txn_start = 0
        self.bound: set[int] = set()


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
          GTID-domain — use ``"xid"`` + ``exact_commits`` for one strict
          domain.
        - ``"xid"``: strict XID domain; GTIDs only mark transaction
          boundaries; rows whose XID is out-of-block stay -1 (repair
          with ``decode_changefeed(exact_commits=True)``).
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
        # changefeed keys on every column, so both images decode in full
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

        self.states: dict[int, _TableState] = {
            m.table_id: _table_state(m, self.target_names, self.key_names) for m in maps
        }
        # ROTATE must drop in-band bindings (schema binding never crosses
        # a binlog file, `EventsIterator.php:163-173`); the broadcast
        # snapshot is the cross-file registry we fall back to
        self._snapshot_states: dict[int, _TableState] = dict(self.states)
        self.filtered: dict[int, bool] = {}
        self._states_dirty = False
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
        # kernel buffers: dropped-column sink (cleared per event) and
        # flat mode's before-image key lists (cleared per update event)
        self._trash: list = []
        self._bkey_lists: list[list] = []
        self._akey_lists: list[list] = []  # dropped-key after-images

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

    def _begin_block(self) -> None:
        """Reset per-block decode state.  Blocks are scheduled to workers
        in arbitrary order across shards/files, so in-band bindings must
        NEVER leak from one block into the next (a stale binding from
        file 2 would mis-decode a file-1 block that starts mid-
        transaction).  Every block starts from the broadcast snapshot —
        the documented cross-file registry — exactly like a fresh
        decoder."""
        if self._states_dirty:
            self.states = dict(self._snapshot_states)
            self.filtered = {}
            self._states_dirty = False

    def _bind_table_map(self, tm: TableMapDef) -> _TableState:
        """In-band TABLE_MAP binding: in-band wins over the snapshot for
        the current file (a real server reuses table ids across files
        with different layouts; the in-band map is the authoritative one,
        `EventsIterator.php:198-205`).  Identical layouts reuse the
        compiled state from :func:`_table_state` — no recompilation."""
        cur = self.states.get(tm.table_id)
        if cur is not None:
            ctm = cur.plan.table_map
            if (
                ctm.columns == tm.columns
                and (ctm.schema_name, ctm.table_name) == (tm.schema_name, tm.table_name)
            ):
                # identical layout: keep the bound state — the snapshot
                # entry carries schema_ver lineage the wire map lacks
                self.filtered[tm.table_id] = self._filtered(tm)
                return cur
        st = _table_state(tm, self.target_names, self.key_names)
        self.states[tm.table_id] = st
        self.filtered[tm.table_id] = self._filtered(tm)
        self._states_dirty = True
        return st

    def _on_rotate(self, bound_this_block: set[int]) -> None:
        """ROTATE: drop in-band bindings, keep the snapshot registry
        (`EventsIterator.php:163-173` — table maps never cross files)."""
        self.states = dict(self._snapshot_states)
        self.filtered = {}
        bound_this_block.clear()

    def _row_filtered(self, table_id: int, st: _TableState) -> bool:
        """F1 filter status for a table resolved WITHOUT an in-band
        TABLE_MAP in this block (snapshot/actor fallback): the filter
        must still apply — a missing cache entry is not a pass."""
        flt = self.filtered.get(table_id)
        if flt is None:
            flt = self.filtered[table_id] = self._filtered(st.plan.table_map)
        return flt

    def _resolve(self, table_id: int) -> _TableState | None:
        """Registry lookup: in-band first, broadcast snapshot second, the
        registry actor last (M3)."""
        st = self.states.get(table_id)
        if st is not None:
            return st
        if self.registry_actor_name is not None:
            import ray

            if self._registry_handle is None:
                self._registry_handle = ray.get_actor(self.registry_actor_name)
            d = ray.get(self._registry_handle.get.remote(table_id))
            if d is not None:
                tm = TableMapDef.from_dict(d)
                st = _table_state(tm, self.target_names, self.key_names)
                self.states[table_id] = st
                self._states_dirty = True
                return st
        raise KeyError(f"unknown table_map id {table_id}; no registry entry")

    def _handle_marker(self, etype: int, payload, ctx: _BlockCtx, commit_seqs: list) -> None:
        """ONE definition of the non-ROWS event semantics, shared by all
        three decode modes (changefeed/flat/json) — commit stamping,
        ROTATE, checksum gating and in-band TABLE_MAP binding must never
        diverge between output modes.

        - FORMAT_DESCRIPTION gates checksum handling
          (`EventsIterator.php:141-151`).
        - ROTATE drops in-band bindings AND closes the open transaction
          (its unstamped rows stay -1 rather than being claimed by the
          next file's first XID).
        - MARIA_GTID opens a transaction: provisional forward stamp in
          gtid/hybrid modes, boundary marker always.
        - TABLE_MAP parses once per block per table id; in-band wins
          over the snapshot for the current file.
        - XID stamps exactly [txn_start, end) via _stamp_xid in
          xid/hybrid modes (one transaction, one commit id).
        """
        if etype == EventType.FORMAT_DESCRIPTION:
            payload = bytes(payload)
            h = parse_header(payload, 0)
            _, _, alg = parse_format_description(payload, h)
            ctx.checksum_size = 4 if alg > 0 else 0
        elif etype == EventType.ROTATE:
            self._on_rotate(ctx.bound)
            ctx.cur_commit = -1
            ctx.txn_start = len(commit_seqs)
        elif etype == EventType.MARIA_GTID:
            if self.commit_source in ("hybrid", "gtid"):
                ctx.cur_commit = int.from_bytes(payload[20:28], "little")
            ctx.txn_start = len(commit_seqs)
        elif etype == EventType.GTID:
            # MySQL-flavor GTID_LOG_EVENT (0x21): flags(1) + SID(16) +
            # GNO(8 LE) [+ logical-clock suffix, ignored].  The GNO is
            # per-source-UUID monotone, so it serves as the provisional
            # commit id exactly like the MariaDB seqno (reference skips
            # this family entirely, `EventsIterator.php:244-254`).
            if self.commit_source in ("hybrid", "gtid"):
                ctx.cur_commit = int.from_bytes(payload[37:45], "little")
            ctx.txn_start = len(commit_seqs)
        elif etype == EventType.TABLE_MAP:
            tid = int.from_bytes(payload[20:26], "little")
            if tid in ctx.bound:
                return
            payload = bytes(payload)
            h = parse_header(payload, ctx.checksum_size)
            if self.verify and not verify_checksum(payload, ctx.checksum_size):
                self.n_checksum_failures += 1
                return
            tm = parse_table_map(payload, h)
            self._bind_table_map(tm)
            ctx.bound.add(tid)
        elif etype == EventType.XID:
            if self.commit_source in ("hybrid", "xid"):
                ctx.txn_start = _stamp_xid(commit_seqs, ctx.txn_start, parse_xid(payload))
            else:
                ctx.txn_start = len(commit_seqs)
            ctx.cur_commit = -1
        # QUERY / skip events: no state change, no output

    @staticmethod
    def _payload_views(batch: pa.Table):
        """Zero-copy memoryviews into the binary column's data buffer —
        the ~GB of payload bytes is never copied into Python objects."""
        col = batch.column("payload")
        chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
        out = []
        for chunk in chunks:
            bufs = chunk.buffers()
            dtype = np.int64 if pa.types.is_large_binary(chunk.type) else np.int32
            offs = np.frombuffer(bufs[1], dtype=dtype)[
                chunk.offset : chunk.offset + len(chunk) + 1
            ]
            # pyarrow Buffers expose a SIGNED ('b') memoryview; cast to
            # unsigned so single-byte indexing returns 0..255 (signed
            # values silently corrupt shift/arithmetic decode paths)
            mv = memoryview(bufs[2]).cast("B")
            out.extend(mv[offs[i] : offs[i + 1]] for i in range(len(chunk)))
        return out

    def _row_events(self, batch: pa.Table, commit_seqs: list):
        """The ONE event walk shared by the three output modes (the
        reference's single `EventsIterator` loop, `EventsIterator.php:73-88`).
        Yields each accepted ROWS event as ``(shard_id, event_seq, etype,
        table_id, state, header, payload, ctx)``; every other event goes
        through ``_handle_marker``, which stamps ``commit_seqs`` (the
        caller's per-row list) in place — so a caller reads
        ``ctx.cur_commit`` after each yield, never before.  Json mode has
        no target table, so it skips the target check."""
        shard_ids = batch.column("shard_id").to_numpy(zero_copy_only=False)
        event_seqs = batch.column("event_seq").to_numpy(zero_copy_only=False)
        payloads = self._payload_views(batch)
        self._begin_block()
        start_after = self.start_after_seq
        target = self.target_table
        ctx = _BlockCtx(self.checksum_size)
        for shard_id, event_seq, payload in zip(shard_ids, event_seqs, payloads):
            if start_after is not None and event_seq <= start_after:
                continue  # F2 replay-skip (`EventsIterator.php:207-215`)
            etype = payload[5]
            self.n_events += 1
            self.n_bytes += len(payload)
            if etype not in _ROWS_TYPES:
                self._handle_marker(etype, payload, ctx, commit_seqs)
                continue
            table_id = int.from_bytes(payload[20:26], "little")
            if self.filtered.get(table_id):
                continue  # F1: filtered tables never deserialized
            st = self._resolve(table_id)
            if target is not None:
                tm = st.plan.table_map
                if (tm.schema_name, tm.table_name) != target:
                    if self.filtered.get(table_id) is None:
                        self.filtered[table_id] = True
                    continue
            if self._row_filtered(table_id, st):
                continue  # F1 applies even without an in-band map
            if self.verify and not verify_checksum(payload, ctx.checksum_size):
                self.n_checksum_failures += 1
                continue
            h = parse_header(payload, ctx.checksum_size)
            yield shard_id, event_seq, etype, table_id, st, h, payload, ctx

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.output == "flat":
            return self._call_flat(batch)
        if self.output == "json":
            return self._call_json(batch)

        n_target = len(self.target_names)
        # accumulators (columnar; struct children + null masks)
        ops: list[str] = []
        tm_ids: list[int] = []
        schema_vers: list[int] = []
        file_seqs: list[int] = []
        ev_seqs: list[int] = []
        row_seqs: list[int] = []
        tss: list[int] = []
        before_cols: list[list] = [[] for _ in range(n_target)]
        after_cols: list[list] = [[] for _ in range(n_target)]
        before_null: list[bool] = []
        after_null: list[bool] = []
        commit_seqs: list[int] = []

        for shard_id, event_seq, etype, table_id, st, h, payload, ctx in self._row_events(
            batch, commit_seqs
        ):
            n_rows = self._decode_rows_into(
                payload,
                h,
                event_seq,
                etype,
                st,
                before_cols,
                after_cols,
                before_null,
                after_null,
            )
            op = _OP_BY_TYPE[etype]
            ops.extend([op] * n_rows)
            tm_ids.extend([table_id] * n_rows)
            schema_vers.extend([st.schema_ver] * n_rows)
            file_seqs.extend([int(shard_id)] * n_rows)
            ev_seqs.extend([int(event_seq)] * n_rows)
            row_seqs.extend(range(n_rows))
            tss.extend([h.timestamp] * n_rows)
            commit_seqs.extend([ctx.cur_commit] * n_rows)
            self.n_rows += n_rows

        if not ops:
            return self._empty

        fields = self.struct_type
        b_children = [
            _build_child(before_cols[i], fields.field(i).type) for i in range(n_target)
        ]
        a_children = [
            _build_child(after_cols[i], fields.field(i).type) for i in range(n_target)
        ]
        before_arr = pa.StructArray.from_arrays(
            b_children, fields=list(fields), mask=pa.array(before_null, pa.bool_())
        )
        after_arr = pa.StructArray.from_arrays(
            a_children, fields=list(fields), mask=pa.array(after_null, pa.bool_())
        )
        return pa.table(
            {
                "op": pa.array(ops, pa.string()),
                "schema_name": pa.array([self.target_table[0]] * len(ops), pa.string()),
                "table_name": pa.array([self.target_table[1]] * len(ops), pa.string()),
                "table_map_id": pa.array(tm_ids, pa.int64()),
                "schema_ver": pa.array(schema_vers, pa.int32()),
                "file_seq": pa.array(file_seqs, pa.int32()),
                "event_seq": pa.array(ev_seqs, pa.int64()),
                "row_seq": pa.array(row_seqs, pa.int32()),
                "commit_seq": pa.array(commit_seqs, pa.int64()),
                "ts": pa.array(tss, pa.int64()),
                "before": before_arr,
                "after": after_arr,
            },
            schema=self.out_schema,
        )

    def _decode_rows_into(
        self,
        payload,
        header,
        event_seq: int,
        etype: int,
        st: _TableState,
        before_cols: list[list],
        after_cols: list[list],
        before_null: list[bool],
        after_null: list[bool],
    ) -> int:
        """Decode a ROWS event with the layout's kernel, ``st.codegen``,
        straight into the target-order struct children; dropped columns
        go to the trash (`EventsIterator.php:370-506` + `RowFactory.php:28-182`).
        Row images that do not end at the event's end raise
        :func:`rows_overrun`."""
        op = _OP_BY_TYPE[etype]
        plan = st.plan
        off, is_update = rows_body_offset(payload, etype, plan)
        trash = self._trash
        if trash:
            trash.clear()
        src_to_tgt = st.src_to_tgt
        image = before_cols if op == "delete" else after_cols
        out_lists = [image[t] if t is not None else trash for t in src_to_tgt]
        bcols = (
            [before_cols[t] if t is not None else trash for t in src_to_tgt]
            if is_update
            else ()
        )
        n_rows, off = st.codegen[op](payload, off, header.payload_size, out_lists, bcols, plan.readers)
        if off != header.payload_size:
            raise rows_overrun(plan.table_map, int(event_seq))
        nones = [None] * n_rows
        # null-fill an absent image, and a present one's added columns
        for cols, absent in ((before_cols, op == "insert"), (after_cols, op == "delete")):
            for t_i in range(len(cols)) if absent else st.null_fill_tgts:
                cols[t_i].extend(nones)
        before_null.extend([op == "insert"] * n_rows)
        after_null.extend([op == "delete"] * n_rows)
        return n_rows

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
        commit_seqs: list[int] = []
        tss: list[int] = []
        befores: list[str | None] = []
        afters: list[str | None] = []

        for _shard_id, event_seq, _etype, table_id, st, h, payload, ctx in self._row_events(
            batch, commit_seqs
        ):
            ev = parse_rows_event(payload, h, {table_id: st.plan}, int(event_seq))
            n_rows = len(ev.rows)
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
            ev_seqs.extend([int(event_seq)] * n_rows)
            row_seqs.extend(range(n_rows))
            commit_seqs.extend([ctx.cur_commit] * n_rows)
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
                "commit_seq": pa.array(commit_seqs, pa.int64()),
                "ts": pa.array(tss, pa.int64()),
                "before": pa.array(befores, pa.string()),
                "after": pa.array(afters, pa.string()),
            },
            schema=self.out_schema,
        )

    def _call_flat(self, batch: pa.Table) -> pa.Table:
        """Flat decode path for the merge pipeline: one pass, no struct
        images.  Update before-images decode ONLY the merge-key columns
        (so key-changing updates tombstone the old key) and byte-skip the
        rest; delete before-images decode only the merge-key columns —
        the dominant memory-bandwidth saving at scale."""
        n_target = len(self.target_names)
        cols: list[list] = [[] for _ in range(n_target)]
        meta = self._flat_rows(batch, cols)
        if meta is None:
            return self._empty
        ops, ev, row_seqs, commit_seqs = meta
        st_type = self.struct_type
        arrays = [
            _build_child(cols[i], st_type.field(i).type) for i in range(n_target)
        ] + _meta_arrays(ops, ev, row_seqs, commit_seqs)
        return pa.Table.from_arrays(arrays, schema=self.out_schema)

    def flat_combined(self, batch: pa.Table, key_cols: tuple[str, ...]) -> pa.Table:
        """Flat decode fused with the partial combine: Arrow-equal to
        ``merge.lww_partial(self(batch), key_cols)`` (same schema, rows
        and row order), but value cells are built only for the rows the
        combine keeps.  ``key_cols`` must be among the decoder's merge
        keys (``key_cols=`` / the table's primary key).

        A located decode: no per-row Python and no codegen kernel.

        1. The one walk, :meth:`_row_events`, and per accepted ROWS event
           the one prologue, ``rows_body_offset``: where its row images
           start and end in :func:`_payload_base`'s buffer.
        2. Pass 1, per layout: :func:`_locate_images` walks one row
           image of every event per numpy iteration and records each
           image's start and merge-key cells; the key cells decode once
           per column (:func:`_decode_cells`).  A key-changing update
           gets its tombstone when Arrow says the before and after key
           values differ.  Rows come out in :meth:`_call_flat`'s order:
           each event's rows, then its tombstones.
        3. Winners: ``merge._winner_indices`` over the key and sequence
           columns, the function ``lww_partial`` runs.
        4. Pass 2: :func:`_walk_images` once over the winning after-images
           of each layout, vectorized over the winners, locates their
           value cells, which :func:`_decode_cells` gathers from the
           payload buffer.  Deletes, tombstones and added columns are
           null.
        """
        assert self.output == "flat"
        not_decoded = [k for k in key_cols if k in self.target_names and k not in self.key_names]
        if not_decoded:
            raise ValueError(f"merge keys {not_decoded} are not decoder merge keys {self.key_names}")
        base, buf, starts = _payload_base(batch)
        # the walk passes shard_id through untouched and the flat modes
        # never read it: it carries each event's row in the batch here
        tagged = pa.table(
            {
                "shard_id": np.arange(batch.num_rows),
                "event_seq": batch.column("event_seq"),
                "payload": batch.column("payload"),
            }
        )
        # one commit stamp per event: an XID stamps all of an event's rows
        commits: list[int] = []
        layouts: dict[_TableState, int] = {}
        ev_layout, ev_op, ev_seq, ev_pos, ev_end, ev_cap = [], [], [], [], [], []
        for row, event_seq, etype, _tid, st, h, payload, ctx in self._row_events(tagged, commits):
            off, _ = rows_body_offset(payload, etype, st.plan)
            at = starts[row]
            ev_layout.append(layouts.setdefault(st, len(layouts)))
            ev_op.append(_OP_CODE_BY_TYPE[etype])
            ev_seq.append(event_seq)
            ev_pos.append(at + off)
            ev_end.append(at + h.payload_size)
            ev_cap.append(at + len(payload))
            commits.append(ctx.cur_commit)
        if not ev_op:
            return self._empty
        ev_layout = np.asarray(ev_layout)
        ev_op = np.asarray(ev_op, dtype=np.int8)
        ev_seq = np.asarray(ev_seq, dtype=np.int64)
        bounds = [np.asarray(v, dtype=np.int64) for v in (ev_pos, ev_end, ev_cap)]

        located = []
        for st, j in layouts.items():
            lanes = np.flatnonzero(ev_layout == j)
            update = ev_op[lanes] == _OP_UPDATE_CODE
            pos, end, cap = (v[lanes] for v in bounds)
            located.append(_locate_images(base, buf, st, lanes, update, pos, end, cap, ev_seq[lanes]))

        # flat order: each event's rows, then its tombstones
        rows_e = np.zeros(len(ev_op), dtype=np.int64)
        tombs_e = np.zeros(len(ev_op), dtype=np.int64)
        for loc in located:
            rows_e += np.bincount(loc.events[loc.rows], minlength=len(ev_op))
            tombs_e += np.bincount(loc.events[loc.tombs], minlength=len(ev_op))
        self.n_rows += int(rows_e.sum())
        counts = rows_e + tombs_e
        n_flat = int(counts.sum())
        if not n_flat:
            return self._empty
        first = np.cumsum(counts) - counts
        ops = np.repeat(ev_op, counts)
        flat_img = np.empty(n_flat, dtype=np.int64)  # each row's image, over all layouts
        row_seqs = np.empty(n_flat, dtype=np.int32)
        img_base = 0
        for loc in located:
            ev, rows, tombs = loc.events, loc.rows, loc.tombs
            at = first[ev[rows]] + loc.row_of[rows]
            flat_img[at] = img_base + rows
            row_seqs[at] = loc.row_of[rows]
            te = ev[tombs]  # ascending: images are in event order
            at = first[te] + rows_e[te] + np.arange(len(tombs)) - np.searchsorted(te, te)
            flat_img[at] = img_base + tombs
            row_seqs[at] = loc.row_of[tombs]
            ops[at] = _OP_DELETE_CODE
            img_base += len(ev)
        ev = np.repeat(ev_seq, counts)
        commit_seqs = np.repeat(np.asarray(commits, dtype=np.int64), counts)

        st_type = self.struct_type
        key_tgts = {t for t, n in enumerate(self.target_names) if n in self.key_names}
        keys = {}
        for t in sorted(key_tgts):
            typ = st_type.field(t).type
            pieces = []
            for loc in located:
                s = loc.st.remap[t]
                arr = loc.keys[s] if s is not None else pa.nulls(len(loc.events), typ)
                pieces.append(arr if arr.type == typ else arr.cast(typ))
            joined = pieces[0] if len(pieces) == 1 else pa.concat_arrays(pieces)
            keys[self.target_names[t]] = joined.take(pa.array(flat_img))
        if n_flat <= 1:
            win = np.arange(n_flat)
        else:
            seq = {"event_seq": ev, "row_seq": row_seqs}
            win = _winner_indices(pa.table({**keys, **seq}), key_cols)
        values = self._winner_values(located, flat_img[win], ops[win] != _OP_DELETE_CODE, key_tgts, base, buf)
        arrays = [
            keys[n].take(win) if t in key_tgts else values[t] for t, n in enumerate(self.target_names)
        ] + _meta_arrays(ops[win], ev[win], row_seqs[win], commit_seqs[win])
        return pa.Table.from_arrays(arrays, schema=self.out_schema)

    def _winner_values(
        self,
        located: list[_Located],
        win_img: np.ndarray,
        is_image: np.ndarray,
        key_tgts: set[int],
        base: pa.Buffer,
        buf: np.ndarray,
    ) -> dict[int, pa.Array]:
        """Pass 2 of :meth:`flat_combined`: the non-key target columns
        of the winners, whose images (over all layouts, in ``located``'s
        order) are ``win_img``.  :func:`_walk_images` walks the winning
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

    def _flat_rows(
        self, batch: pa.Table, cols: list[list]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """:meth:`_call_flat`'s pass over :meth:`_row_events`: each ROWS
        event decoded into the target-order ``cols`` by its layout's
        kernel.  Returns the per-row op code, event_seq, row_seq and
        commit_seq as numpy arrays, or None when the batch has no row."""
        # metadata columns are run-length encoded per event and expanded
        # ONCE with numpy at the end: [op]*n / [seq]*n temp lists and the
        # per-element appends were ~10% of the kernel (measured)
        op_codes: list[int] = []  # index into _OP_NAMES_ARROW
        run_counts: list[int] = []
        ev_vals: list[int] = []
        row_seqs: list[int] = []
        # commit stamping mutates a per-row list in place (_handle_marker
        # XID backfill rewrites earlier rows), so commit_seqs stays a
        # plain per-row list
        commit_seqs: list[int] = []

        for _shard_id, event_seq, etype, _table_id, st, h, payload, ctx in self._row_events(
            batch, commit_seqs
        ):
            n_rows, tomb_rows = self._decode_rows_flat(payload, h, event_seq, etype, st, cols)
            if n_rows:
                op_codes.append(_OP_CODE_BY_TYPE[etype])
                run_counts.append(n_rows)
                ev_vals.append(int(event_seq))
            # tombstones for key-changing updates reuse their SOURCE row's
            # row_seq (as flatten_changefeed does): a later row in the same
            # UPDATE event may re-fill the vacated key, and its after-image
            # must outrank the tombstone in the merge's (event_seq, row_seq)
            # lexsort.  No tie is possible: a tombstone's key always differs
            # from its own row's after-image key, and row_seq is unique per
            # row within the event.
            if tomb_rows:
                op_codes.append(_OP_DELETE_CODE)
                run_counts.append(len(tomb_rows))
                ev_vals.append(int(event_seq))
            total = n_rows + len(tomb_rows)
            row_seqs.extend(range(n_rows))
            row_seqs.extend(tomb_rows)
            if total:
                commit_seqs.extend([ctx.cur_commit] * total)
            self.n_rows += n_rows

        if not run_counts:
            return None
        counts = np.asarray(run_counts, dtype=np.int64)
        return (
            np.repeat(np.asarray(op_codes, dtype=np.int8), counts),
            np.repeat(np.asarray(ev_vals, dtype=np.int64), counts),
            np.asarray(row_seqs, dtype=np.int32),
            np.asarray(commit_seqs, dtype=np.int64),
        )

    def _decode_rows_flat(
        self,
        payload,
        header,
        event_seq: int,
        etype: int,
        st: _TableState,
        cols: list[list],
    ) -> tuple[int, list[int]]:
        """One ROWS event into the target-order ``cols`` through the
        layout's kernel.  Returns the row count and the source row of each key-change
        tombstone, whose rows it appends after the event's rows.  Row
        images that do not end at the event's end raise
        :func:`rows_overrun`."""
        op = _OP_BY_TYPE[etype]
        plan = st.plan
        off, is_update = rows_body_offset(payload, etype, plan)
        end = header.payload_size

        # DIRECT WRITE: codegen appends straight into the batch output
        # lists (source ordinal -> target list; dropped columns go to a
        # shared trash list) — the per-event scratch allocation + full
        # extend-copy was ~10% of the kernel (measured).  A decode error
        # aborts the whole call either way, so partial appends can never
        # leak into a returned table.
        src_to_tgt = st.src_to_tgt
        trash = self._trash
        if st.key_trash_srcs:
            # a merge-key column was dropped from the target layout: its
            # after-image feeds the tombstone compare, so it gets a
            # dedicated per-event list instead of the shared trash
            akey = self._akey_lists
            while len(akey) < len(src_to_tgt):
                akey.append([])
            for s in st.key_trash_srcs:
                akey[s].clear()
            key_src_set = st.key_src
            out_lists = [
                cols[t] if t is not None else (akey[s] if s in key_src_set else trash)
                for s, t in enumerate(src_to_tgt)
            ]
        else:
            out_lists = [
                cols[t] if t is not None else trash for t in src_to_tgt
            ]
        if trash:
            trash.clear()
        bcols = self._bkey_lists
        key_list = st.key_list
        if is_update and key_list:
            while len(bcols) < len(src_to_tgt):
                bcols.append([])
            for k in key_list:
                bcols[k].clear()
        n_rows, off = st.codegen[op](payload, off, end, out_lists, bcols, plan.readers)
        if off != end:
            raise rows_overrun(plan.table_map, int(event_seq))
        for t_i in st.null_fill_tgts:  # added columns: no source bytes
            cols[t_i].extend([None] * n_rows)
        if not is_update or not key_list:
            return n_rows, []
        # key-CHANGING updates: the OLD key needs a tombstone row or its
        # stale image survives the merge (codegen decoded before-image
        # key columns into bcols).  Returns the SOURCE row index of each
        # tombstone so the caller can reuse that row's row_seq.
        if len(key_list) == 1:
            # dominant case (SIMPLE_PRIMARY_KEY is one column): a direct
            # pairwise compare against this event's tail of the output
            # column, no per-row any()/genexpr frames
            k0 = key_list[0]
            bs, asc = bcols[k0], out_lists[k0]
            base = len(asc) - n_rows
            moved = [r for r in range(n_rows) if bs[r] != asc[base + r]]
        else:
            # zip-based per-column masks: C-level iteration, no per-row
            # any()/genexpr frames (measured ~2x on multi-column keys)
            s0 = key_list[0]
            a0 = out_lists[s0]
            mask = [x != y for x, y in zip(bcols[s0], a0[len(a0) - n_rows :])]
            for s in key_list[1:]:
                a_s = out_lists[s]
                mask = [
                    a or (x != y)
                    for a, x, y in zip(
                        mask, bcols[s], a_s[len(a_s) - n_rows :]
                    )
                ]
            moved = [r for r, f in enumerate(mask) if f]
        if not moved:
            return n_rows, []
        key_src = st.key_src
        for t_i, s_i in enumerate(st.remap):
            if s_i is not None and s_i in key_src:
                cols[t_i].extend(bcols[s_i][r] for r in moved)
            else:
                cols[t_i].extend([None] * len(moved))
        return n_rows, moved
