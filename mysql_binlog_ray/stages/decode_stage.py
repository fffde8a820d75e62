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
the rows of each accepted ROWS event.  The typed modes (changefeed,
flat) decode rows through ONE kernel, the layout's code-generated row
decoder (``_TableState.codegen``); json mode uses ``parse_rows_event``.
Each layout has two kernel shapes per op: the full kernel
(``codegen[op]``: all cells of the after-image, merge keys of the
before-image) and the key-only kernel (``codegen[op + "_keys"]``: merge
keys of every image plus each after-image's byte range).  ``flat_combined``
(the lake's spill tasks) runs the key-only kernels, picks each key's
newest row, and decodes only those after-images with
``codegen["insert"]`` over their recorded ranges.

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

from ..protocol.constants import ColumnType, EventType
from ..protocol.decode import (
    DecodePlan,
    parse_format_description,
    parse_header,
    parse_rows_event,
    parse_table_map,
    parse_xid,
    rows_body_offset,
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
_OP_DELETE_CODE = 2


def changefeed_arrow_type(col: ColumnDef) -> pa.DataType:
    """Arrow type of one column in the changefeed (reference JSON shape:
    temporals/decimals/bits stay strings — SURVEY §1.4 compat boundary)."""
    t = col.type
    if t in (ColumnType.TINY, ColumnType.SHORT, ColumnType.INT24, ColumnType.LONG):
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
        # per-(table, op) code-generated row decoders: the typed modes'
        # one row kernel, plus the key-only kernels of flat_combined
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
        etype: int,
        st: _TableState,
        before_cols: list[list],
        after_cols: list[list],
        before_null: list[bool],
        after_null: list[bool],
    ) -> int:
        """Decode a ROWS event with the layout's kernel, ``st.codegen``,
        straight into the target-order struct children; dropped columns
        go to the trash (`EventsIterator.php:370-506` + `RowFactory.php:28-182`)."""
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
        n_rows, _ = st.codegen[op](
            payload, off, header.payload_size, out_lists, bcols, plan.readers, plan.skippers
        )
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
            ev = parse_rows_event(payload, h, {table_id: st.plan})
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

        1. Key pass: the one walk, each event through its layout's
           key-only kernel (``codegen[op + "_keys"]``), which decodes the
           merge-key columns, byte-skips the rest, and records each
           insert/update after-image's byte range.  Op, sequence columns
           and key-change tombstones come out exactly as in
           :meth:`_call_flat`.
        2. Winners: ``merge._winner_indices`` over the key and sequence
           columns, the function ``lww_partial`` runs.
        3. Value pass: each winning insert/update after-image decoded
           through the layout's ``codegen["insert"]`` over its recorded
           range; deletes and tombstones carry only their key.
        """
        assert self.output == "flat"
        not_decoded = [k for k in key_cols if k in self.target_names and k not in self.key_names]
        if not_decoded:
            raise ValueError(f"merge keys {not_decoded} are not decoder merge keys {self.key_names}")
        n_target = len(self.target_names)
        key_tgts = [t for t, n in enumerate(self.target_names) if n in self.key_names]
        # key pass: only key target columns get lists; the others share
        # the trash, which the key-only kernel never appends cells to
        cols: list[list] = [self._trash] * n_target
        for t in key_tgts:
            cols[t] = []
        spans: list[int] = []
        events: list[tuple[int, _TableState, Any]] = []
        meta = self._flat_rows(batch, cols, spans, events)
        if meta is None:
            return self._empty
        ops, ev, row_seqs, commit_seqs = meta
        st_type = self.struct_type
        keys = {
            self.target_names[t]: _build_child(cols[t], st_type.field(t).type) for t in key_tgts
        }
        if len(ops) <= 1:
            win = np.arange(len(ops))
        else:
            seq = {"event_seq": ev, "row_seq": row_seqs}
            win = _winner_indices(pa.table({**keys, **seq}), key_cols)
        vals = self._decode_winner_values(win, ops, spans, events, key_tgts)
        arrays = [
            keys[n].take(win) if t in key_tgts else _build_child(vals[t], st_type.field(t).type)
            for t, n in enumerate(self.target_names)
        ] + _meta_arrays(ops[win], ev[win], row_seqs[win], commit_seqs[win])
        return pa.Table.from_arrays(arrays, schema=self.out_schema)

    def _decode_winner_values(
        self,
        win: np.ndarray,
        ops: np.ndarray,
        spans: list[int],
        events: list[tuple[int, _TableState, Any]],
        key_tgts: list[int],
    ) -> list[list]:
        """The value pass of :meth:`flat_combined`: the non-key target
        columns of rows ``win``, in that order.  An insert/update row's
        after-image is decoded by its layout's ``codegen["insert"]`` over
        the byte range the key pass recorded (span ``j`` of the flat rows
        is the ``j``-th insert/update row); a delete or tombstone row, and
        an added column, gets None."""
        n_target = len(self.target_names)
        vals: list[list] = [[] for _ in range(n_target)]
        non_key = [t for t in range(n_target) if t not in key_tgts]
        is_image = ops != _OP_DELETE_CODE
        span_of = np.cumsum(is_image) - 1
        win_span = span_of[win]
        firsts = np.asarray([e[0] for e in events], dtype=np.int64)
        win_event = np.searchsorted(firsts, win_span, side="right") - 1
        trash = self._trash
        trash.clear()
        layouts: dict[_TableState, tuple[list[list], list[int]]] = {}
        for image, j, e in zip(is_image[win].tolist(), win_span.tolist(), win_event.tolist()):
            if not image:
                for t in non_key:
                    vals[t].append(None)
                continue
            _first, st, payload = events[e]
            lay = layouts.get(st)
            if lay is None:
                # key columns come from the key pass: their cells go to the trash
                out_lists = [
                    vals[t] if t is not None and t not in key_tgts else trash
                    for t in st.src_to_tgt
                ]
                lay = layouts[st] = (out_lists, [t for t in st.null_fill_tgts if t not in key_tgts])
            out_lists, fill = lay
            st.codegen["insert"](
                payload, spans[2 * j], spans[2 * j + 1], out_lists, (), st.plan.readers, st.plan.skippers
            )
            for t in fill:
                vals[t].append(None)
        trash.clear()
        return vals

    def _flat_rows(
        self,
        batch: pa.Table,
        cols: list[list],
        spans: list[int] | None = None,
        events: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """The flat modes' pass over :meth:`_row_events`: each ROWS event
        decoded into the target-order ``cols`` (by the full kernels, or
        with ``spans`` the key-only ones, which also note
        ``(first span, state, payload)`` of each insert/update event in
        ``events``).  Returns the per-row op code, event_seq, row_seq and
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
            if spans is not None and _OP_CODE_BY_TYPE[etype] != _OP_DELETE_CODE:
                events.append((len(spans) >> 1, st, payload))
            n_rows, tomb_rows = self._decode_rows_flat(payload, h, etype, st, cols, spans)
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
        etype: int,
        st: _TableState,
        cols: list[list],
        spans: list[int] | None = None,
    ) -> tuple[int, list[int]]:
        """One ROWS event into the target-order ``cols`` through the
        layout's full kernel, or with ``spans`` its key-only kernel.
        Returns the row count and the source row of each key-change
        tombstone, whose rows it appends after the event's rows."""
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
        n_rows, off = st.codegen[op if spans is None else op + "_keys"](
            payload, off, end, out_lists, bcols, plan.readers, plan.skippers, spans
        )
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
