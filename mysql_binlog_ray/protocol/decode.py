"""Binlog wire-format decoder.

Re-implements, from public MySQL replication-format knowledge, the decode
semantics of the reference (SURVEY.md §1.3/§2.2/§2.3): the 19-byte v4
header (`/root/reference/src/EventsIterator.php:285-299`), TABLE_MAP with
FULL optional metadata (`EventsIterator.php:301-324`,
`ColumnMetadataFactory.php:22-157`), WRITE/UPDATE/DELETE_ROWS v1/v2
(`EventsIterator.php:370-506`) and per-type cell decoding
(`RowFactory.php:72-165` + the Buffer read traits).

Performance design: for every TableMapDef we compile a *decode plan* — a
flat list of per-column reader closures — once, and cache it keyed by
``table_id``.  The per-row hot loop then only walks the null bitmap and
calls pre-bound readers; there is no type dispatch per cell.  This is the
"setup once per decoder, work per batch" discipline the decode stage wraps.

Known deliberate divergence from the reference: negative NEWDECIMAL
groups of 1 byte are read unsigned by the reference
(`Buffer.php:91-112` routes size-1 to ``readUInt8``) which corrupts the
digit math; we implement the correct MySQL complement semantics for all
group sizes (verified round-trip against our encoder, which emits the
standard MySQL packed layout).
"""

from __future__ import annotations

import base64
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .constants import (
    BINARY_TAG,
    CHARACTER_TYPES,
    COLLATION_BINARY,
    collation_codec,
    INTEGER_TYPES,
    ROW_EVENT_TYPES,
    SKIP_EVENT_TYPES,
    ColumnType,
    EventType,
    OptMeta,
)
from .model import ColumnDef, EventHeader, RowsEvent, TableMapDef

NUMERIC_TYPES = INTEGER_TYPES | {
    ColumnType.FLOAT,
    ColumnType.DOUBLE,
    ColumnType.NEWDECIMAL,
}

_DIG_PER_DEC = 9
_DIG2BYTES = (0, 1, 1, 2, 2, 3, 3, 4, 4, 4)

_u16 = struct.Struct("<H")
_u32 = struct.Struct("<I")
_header_struct = struct.Struct("<IBIIIH")

# ---------------------------------------------------------------------------
# primitive readers (Buffer read-trait equivalents)
# ---------------------------------------------------------------------------


def read_coded_binary(data: bytes, off: int) -> tuple[int | None, int]:
    """Length-encoded integer (`Buffer.php:34-60`)."""
    first = data[off]
    off += 1
    if first == 251:
        return None, off
    if first < 251:
        return first, off
    if first == 252:
        return int.from_bytes(data[off : off + 2], "little"), off + 2
    if first == 253:
        return int.from_bytes(data[off : off + 3], "little"), off + 3
    if first == 254:
        return int.from_bytes(data[off : off + 8], "little"), off + 8
    raise ValueError(f"bad length-encoded int lead byte {first}")


def _decode_decimal(data: bytes, off: int, precision: int, scale: int) -> tuple[str, int]:
    """MySQL packed decimal -> fixed-scale decimal string
    (`DecimalReadTrait.php:11-50`, with the 1-byte-group sign fix)."""
    intg = precision - scale
    intg0, intg0x = divmod(intg, _DIG_PER_DEC)
    frac0, frac0x = divmod(scale, _DIG_PER_DEC)
    size = (
        _DIG2BYTES[intg0x]
        + intg0 * 4
        + frac0 * 4
        + _DIG2BYTES[frac0x]
    )
    raw = bytearray(data[off : off + size])
    negative = not (raw[0] & 0x80)
    raw[0] ^= 0x80
    if negative:
        raw = bytearray(b ^ 0xFF for b in raw)

    pos = 0
    digits = []
    if _DIG2BYTES[intg0x]:
        k = _DIG2BYTES[intg0x]
        digits.append(str(int.from_bytes(raw[pos : pos + k], "big")))
        pos += k
    for _ in range(intg0):
        digits.append("%09d" % int.from_bytes(raw[pos : pos + 4], "big"))
        pos += 4
    int_part = "".join(digits) or "0"
    digits = []
    for _ in range(frac0):
        digits.append("%09d" % int.from_bytes(raw[pos : pos + 4], "big"))
        pos += 4
    if _DIG2BYTES[frac0x]:
        k = _DIG2BYTES[frac0x]
        digits.append(("%0" + str(frac0x) + "d") % int.from_bytes(raw[pos : pos + k], "big"))
        pos += k
    frac_part = "".join(digits)

    int_part = int_part.lstrip("0") or "0"
    s = ("-" if negative and (int_part != "0" or frac_part.strip("0")) else "") + int_part
    if scale:
        s += "." + frac_part
    return s, off + size


def _frac_str(data: bytes, off: int, fsp: int) -> tuple[str, int]:
    """Fractional-second rendering: the reference formats the raw int with
    ``sprintf('.%-03.3s', v)`` — left-justified, zero-padded to width 3,
    truncated to 3 chars (`DateTimeReadTrait.php:16,42,72,86`)."""
    nbytes = (fsp + 1) >> 1
    v = int.from_bytes(data[off : off + nbytes], "big")
    s = str(v)
    s = (s + "000")[:3]
    return "." + s, off + nbytes


def _decode_date(data: bytes, off: int) -> tuple[str, int]:
    v = int.from_bytes(data[off : off + 3], "little")
    off += 3
    if v == 0:
        return "0000-00-00", off
    return "%04d-%02d-%02d" % (v >> 9, (v >> 5) & 0x0F, v & 0x1F), off


def _decode_datetime2(data: bytes, off: int, fsp: int) -> tuple[str, int]:
    b0, b1, b2, b3, b4 = data[off : off + 5]
    ym = (b2 >> 6) + (b1 << 2) + ((b0 & 0x7F) << 10)
    s = "%04d-%02d-%02d %02d:%02d:%02d" % (
        ym // 13,
        ym % 13,
        (b2 & 0x3E) >> 1,
        ((b3 & 0xF0) >> 4) + ((b2 & 0x01) << 4),
        (b4 >> 6) + ((b3 & 0x0F) << 2),
        b4 & 0x3F,
    )
    off += 5
    if fsp:
        frac, off = _frac_str(data, off, fsp)
        return s + frac, off
    return s, off


def _decode_timestamp2(data: bytes, off: int, fsp: int) -> tuple[str, int]:
    # MySQL stores the seconds field UNSIGNED big-endian: post-2038
    # timestamps (>= 2^31) must not decode negative
    t = struct.unpack_from(">I", data, off)[0]
    off += 4
    if t == 0:
        s = "0000-00-00 00:00:00"
    else:
        s = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(t))
    if fsp:
        frac, off = _frac_str(data, off, fsp)
        return s + frac, off
    return s, off


def _decode_time2(data: bytes, off: int, fsp: int) -> tuple[str, int]:
    """MySQL TIME2: 3 bytes big-endian offset-binary — bit 23 set means
    non-negative; hour is 10 bits (21..12), minute 6 (11..6), second 6
    (5..0); negative values are stored as 0x800000 - magnitude with the
    fractional bytes complemented.  DOCUMENTED DIVERGENCE from the
    reference, which reads only 5 hour bits and no sign
    (`DateTimeReadTrait.php:75-87`): real TIME values >= 32:00:00 and
    all negative TIMEs silently corrupt there; here they decode
    exactly (-838:59:59 .. 838:59:59)."""
    v = int.from_bytes(data[off : off + 3], "big")
    off += 3
    if v & 0x800000:  # non-negative
        ipart = v & 0x7FFFFF
        s = "%02d:%02d:%02d" % ((ipart >> 12) & 0x3FF, (ipart >> 6) & 0x3F, ipart & 0x3F)
        if fsp:
            frac, off = _frac_str(data, off, fsp)
            return s + frac, off
        return s, off
    # negative: stored = 2^(23+8*nb) - magnitude (offset binary across
    # the intpart + fractional bytes, mysqld my_time_packed_to_binary)
    nb = (fsp + 1) >> 1 if fsp else 0
    frac_raw = int.from_bytes(data[off : off + nb], "big") if nb else 0
    off += nb
    magnitude = (1 << (23 + 8 * nb)) - ((v << (8 * nb)) | frac_raw)
    ipart = (magnitude >> (8 * nb)) & 0x7FFFFF
    s = "-%02d:%02d:%02d" % ((ipart >> 12) & 0x3FF, (ipart >> 6) & 0x3F, ipart & 0x3F)
    if fsp:
        frac_mag = magnitude & ((1 << (8 * nb)) - 1)
        fs = str(frac_mag)
        s += "." + (fs + "000")[:3]  # same render quirk as _frac_str
    return s, off


def _decode_bit(data: bytes, off: int, nbytes: int, bits: int) -> tuple[str, int]:
    """Bit-by-bit '0'/'1' expansion (`Buffer.php:151-182`)."""
    out = []
    for byte in range(nbytes):
        b = data[off + byte]
        if byte == 0:
            end = bits if nbytes == 1 else (bits % 8 or 8)
        else:
            end = 8
        out.append("".join("1" if b & (1 << i) else "0" for i in range(end))[::-1])
    return "".join(out), off + nbytes


def _text_value(raw: bytes, charset: int) -> str:
    if charset == COLLATION_BINARY:
        return BINARY_TAG + base64.b64encode(raw).decode("ascii")
    codec = collation_codec(charset)
    if codec is None:
        # unmapped collation: tagged-base64 passthrough instead of the
        # reference's exception — the bytes survive losslessly and the
        # pipeline keeps flowing (charset escape hatch)
        return BINARY_TAG + base64.b64encode(raw).decode("ascii")
    return raw.decode(codec)


# ---------------------------------------------------------------------------
# compiled per-column readers
# ---------------------------------------------------------------------------

CellReader = Callable[[bytes, int], tuple[Any, int]]


def make_cell_reader(col: ColumnDef) -> CellReader:
    """Compile the reader closure for one column (the per-type dispatch of
    `RowFactory.php:72-165`, resolved once instead of per cell)."""
    t = col.type
    if t in INTEGER_TYPES:
        size = _FIXED_WIDTH[t]
        signed = col.signed
        if t is ColumnType.LONGLONG and not signed:

            def read_u64(data: bytes, off: int) -> tuple[Any, int]:
                v = int.from_bytes(data[off : off + 8], "little")
                # >= 2^63 -> decimal string, mirroring the GMP fallback at
                # `UIntLeReadTrait.php:133-138`.
                return (str(v) if v >= 1 << 63 else v), off + 8

            return read_u64

        def read_int(data: bytes, off: int, _s: int = size, _g: bool = signed) -> tuple[Any, int]:
            return int.from_bytes(data[off : off + _s], "little", signed=_g), off + _s

        return read_int
    if t is ColumnType.FLOAT:
        digits = col.size

        def read_float(data: bytes, off: int) -> tuple[Any, int]:
            # rounded to metadata size digits (`RowFactory.php:91`)
            return round(struct.unpack_from("<f", data, off)[0], digits), off + 4

        return read_float
    if t is ColumnType.DOUBLE:
        return lambda data, off: (struct.unpack_from("<d", data, off)[0], off + 8)
    if t is ColumnType.NEWDECIMAL:
        p, s = col.precision, col.scale

        def read_dec(data: bytes, off: int) -> tuple[Any, int]:
            raw, off = _decode_decimal(data, off, p, s)
            # exact fixed-scale string straight from the digit groups.
            # The reference renders via sprintf('%.{scale}F') on a double
            # (`DecimalReadTrait.php:49`), which corrupts values beyond
            # ~16 significant digits — identical output below that, exact
            # (not lossy) above it.
            return raw, off

        return read_dec
    if t is ColumnType.BIT:
        nb, bits = col.bit_bytes, col.bits
        return lambda data, off: _decode_bit(data, off, nb, bits)
    if t in (ColumnType.VARCHAR, ColumnType.STRING):
        two = col.max_length > 255
        charset = col.charset

        def read_varchar(data: bytes, off: int) -> tuple[Any, int]:
            if two:
                ln = _u16.unpack_from(data, off)[0]
                off += 2
            else:
                ln = data[off]
                off += 1
            return _text_value(bytes(data[off : off + ln]), charset), off + ln

        return read_varchar
    if t is ColumnType.BLOB:
        lb = col.length_bytes
        charset = col.charset

        def read_blob(data: bytes, off: int) -> tuple[Any, int]:
            ln = int.from_bytes(data[off : off + lb], "little")
            off += lb
            return _text_value(bytes(data[off : off + ln]), charset), off + ln

        return read_blob
    if t is ColumnType.JSON:
        # the reference dies on JSON columns (`RowFactory.php:163-165`);
        # we decode the binary JSON storage format to a JSON string
        # (protocol/jsonb.py); unsupported JSONB subtypes fail lazily at
        # the cell, never at plan compile
        from .jsonb import jsonb_to_json_string

        jlb = col.length_bytes

        def read_json(data: bytes, off: int) -> tuple[Any, int]:
            ln = int.from_bytes(data[off : off + jlb], "little")
            off += jlb
            return jsonb_to_json_string(bytes(data[off : off + ln])), off + ln

        return read_json
    if t is ColumnType.GEOMETRY:
        # SRID+WKB parsed to 'SRID=n;WKT' for point/linestring/polygon
        # (beyond the reference, which THROWS here — RowFactory.php:163-165);
        # other geometry types / malformed payloads keep the tagged-base64
        # passthrough, never a wrong answer
        from .geometry import wkb_to_ewkt

        glb = col.length_bytes

        def read_geometry(data: bytes, off: int) -> tuple[Any, int]:
            ln = int.from_bytes(data[off : off + glb], "little")
            off += glb
            raw = bytes(data[off : off + ln])
            ewkt = wkb_to_ewkt(raw)
            if ewkt is not None:
                return ewkt, off + ln
            return BINARY_TAG + base64.b64encode(raw).decode("ascii"), off + ln

        return read_geometry
    if t is ColumnType.DATE:
        return _decode_date
    if t is ColumnType.YEAR:
        # one byte, years since 1900; 0 is the zero year
        return lambda data, off: ((data[off] + 1900) if data[off] else 0, off + 1)
    if t is ColumnType.DATETIME2:
        fsp = col.fsp
        return lambda data, off: _decode_datetime2(data, off, fsp)
    if t is ColumnType.TIMESTAMP2:
        fsp = col.fsp
        return lambda data, off: _decode_timestamp2(data, off, fsp)
    if t is ColumnType.TIME2:
        fsp = col.fsp
        return lambda data, off: _decode_time2(data, off, fsp)
    if t is ColumnType.ENUM:
        size, values, charset = col.size, col.values, col.charset

        def read_enum(data: bytes, off: int) -> tuple[Any, int]:
            idx = int.from_bytes(data[off : off + size], "little")
            raw = values[idx - 1] if 1 <= idx <= len(values) else ""
            if charset == COLLATION_BINARY:
                return BINARY_TAG + base64.b64encode(raw.encode()).decode("ascii"), off + size
            return raw, off + size

        return read_enum
    if t is ColumnType.SET:
        size, values, charset = col.size, col.values, col.charset

        def read_set(data: bytes, off: int) -> tuple[Any, int]:
            bm = int.from_bytes(data[off : off + size], "little")
            members = [v for k, v in enumerate(values) if bm & (1 << k)]
            if charset == COLLATION_BINARY:
                members = [BINARY_TAG + base64.b64encode(v.encode()).decode("ascii") for v in members]
            return ",".join(members), off + size

        return read_set
    raise ValueError(f"unsupported column type {t!r}")  # JSON/GEOMETRY per RowFactory.php:163-165


_FIXED_WIDTH: dict[ColumnType, int] = {
    ColumnType.TINY: 1,
    ColumnType.SHORT: 2,
    ColumnType.INT24: 3,
    ColumnType.LONG: 4,
    ColumnType.LONGLONG: 8,
    ColumnType.FLOAT: 4,
    ColumnType.DOUBLE: 8,
    ColumnType.DATE: 3,
    ColumnType.YEAR: 1,
}
_TEMPORAL2_BASE = {ColumnType.DATETIME2: 5, ColumnType.TIMESTAMP2: 4, ColumnType.TIME2: 3}


def cell_layout(col: ColumnDef) -> tuple[int, int]:
    """The ONE byte-layout rule of a non-NULL cell, mirroring
    `make_cell_reader`: ``(width, 0)`` for a fixed-width type, ``(0,
    length_bytes)`` for a little-endian length prefix of 1-4 bytes
    followed by that many bytes.  The stage's located decode walks row
    images by it."""
    t = col.type
    if t in _FIXED_WIDTH:
        return _FIXED_WIDTH[t], 0
    if t is ColumnType.NEWDECIMAL:
        intg0, intg0x = divmod(col.precision - col.scale, _DIG_PER_DEC)
        frac0, frac0x = divmod(col.scale, _DIG_PER_DEC)
        return _DIG2BYTES[intg0x] + intg0 * 4 + frac0 * 4 + _DIG2BYTES[frac0x], 0
    if t is ColumnType.BIT:
        return col.bit_bytes, 0
    if t in _TEMPORAL2_BASE:
        return _TEMPORAL2_BASE[t] + ((col.fsp + 1) >> 1 if col.fsp else 0), 0
    if t in (ColumnType.ENUM, ColumnType.SET):
        return col.size, 0
    if t in (ColumnType.VARCHAR, ColumnType.STRING):
        return 0, 2 if col.max_length > 255 else 1
    if t in (ColumnType.BLOB, ColumnType.JSON, ColumnType.GEOMETRY):
        return 0, col.length_bytes
    raise ValueError(f"unsupported column type {t!r}")


@dataclass
class DecodePlan:
    """Compiled row-decode plan for one TableMapDef."""

    table_map: TableMapDef
    names: tuple[str, ...]
    readers: tuple[CellReader, ...]
    full_bitmap: bytes = b""  # columns-present bitmap with every column sent

    @staticmethod
    def compile(tm: TableMapDef) -> "DecodePlan":
        n = len(tm.columns)
        full = bytearray((n + 7) >> 3)
        for i in range(n):
            full[i >> 3] |= 1 << (i & 7)
        return DecodePlan(
            table_map=tm,
            names=tuple(c.name for c in tm.columns),
            readers=tuple(make_cell_reader(c) for c in tm.columns),
            full_bitmap=bytes(full),
        )


def check_full_row_image(payload, off: int, plan: DecodePlan) -> None:
    """The row decoders assume binlog_row_image=FULL (every column in
    every image).  A MINIMAL/NOBLOB image has a different cell layout
    and would mis-decode silently — refuse loudly instead.  (The
    reference never checks either: it requires FULL server-side via
    config; our raw-file source can ingest anything.)"""
    full = plan.full_bitmap
    bml = len(full)
    got = bytes(payload[off : off + bml])
    # padding bits beyond the n-th column are writer-defined — compare
    # only the meaningful bits (the encoder pads with 1s, mysqld varies)
    if (
        got[: bml - 1] != full[: bml - 1]
        or (got[bml - 1] & full[bml - 1]) != full[bml - 1]
    ):
        raise ValueError(
            f"non-FULL row image for table "
            f"{plan.table_map.schema_name}.{plan.table_map.table_name}: "
            "binlog_row_image=FULL is required"
        )


# ---------------------------------------------------------------------------
# event parsing
# ---------------------------------------------------------------------------


def parse_header(payload: bytes, checksum_size: int) -> EventHeader:
    """Parse the v4 header; the packet starts with the OK byte so the
    header sits at offset 1 (`EventsIterator.php:285-299`)."""
    ts, etype, server_id, event_size, log_pos, flags = _header_struct.unpack_from(payload, 1)
    return EventHeader(
        timestamp=ts,
        type=etype,
        server_id=server_id,
        event_size=event_size,
        log_pos=log_pos,
        flags=flags,
        checksum_size=checksum_size,
        payload_size=event_size + 1 - checksum_size,
    )


# The OK byte, the v4 header and the first 8 body bytes as one record:
# ``body_u64`` holds the 6-byte table id of TABLE_MAP and ROWS events,
# the XID value and the MARIA_GTID seqno.
HEADER_COLUMNS = np.dtype(
    [("ok", "u1"), ("timestamp", "<u4"), ("type", "u1"), ("server_id", "<u4"),
     ("event_size", "<u4"), ("log_pos", "<u4"), ("flags", "<u2"), ("body_u64", "<u8")]
)
TABLE_ID_MASK = (1 << 48) - 1


def header_columns(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The header pass: :func:`parse_header`'s fields of every event at
    once, as a structured array of :data:`HEADER_COLUMNS` (one record per
    event, each field a column).  Event ``i`` is ``buf[starts[i]:ends[i]]``;
    its bytes past its end read as 0 and reads past the buffer are
    clipped, so a short event yields the integers of the bytes it has.
    One byte column at a time: the temporaries stay O(events)."""
    raw = np.zeros((len(starts), HEADER_COLUMNS.itemsize), np.uint8)
    for j in range(HEADER_COLUMNS.itemsize if len(buf) else 0):
        at = starts + j
        raw[:, j] = np.where(at < ends, buf.take(at, mode="clip"), 0)
    return raw.view(HEADER_COLUMNS).reshape(len(starts))


def parse_table_map(payload: bytes, header: EventHeader) -> TableMapDef:
    """TABLE_MAP body + FULL optional metadata
    (`EventsIterator.php:301-324`, `ColumnMetadataFactory.php:22-157`)."""
    off = 1 + 19
    table_id = int.from_bytes(payload[off : off + 6], "little")
    off += 6
    flags = _u16.unpack_from(payload, off)[0]
    off += 2
    slen = payload[off]
    off += 1
    schema = payload[off : off + slen].decode()
    off += slen + 1
    tlen = payload[off]
    off += 1
    table = payload[off : off + tlen].decode()
    off += tlen + 1
    n, off = read_coded_binary(payload, off)
    assert n is not None

    type_bytes = payload[off : off + n]
    off += n
    meta_len, off = read_coded_binary(payload, off)
    meta_end = off + (meta_len or 0)

    # phase 1: physical per-type metadata (`ColumnMetadataFactory.php:22-84`)
    raw_cols: list[dict[str, Any]] = []
    for i in range(n):
        ct = ColumnType(type_bytes[i])
        c: dict[str, Any] = {"type": ct}
        if ct in (ColumnType.FLOAT, ColumnType.DOUBLE):
            c["size"] = payload[off]
            off += 1
        elif ct in (ColumnType.TIMESTAMP2, ColumnType.DATETIME2, ColumnType.TIME2):
            c["fsp"] = payload[off]
            off += 1
        elif ct is ColumnType.VARCHAR:
            c["max_length"] = _u16.unpack_from(payload, off)[0]
            off += 2
        elif ct in (ColumnType.VAR_STRING, ColumnType.STRING):
            metadata = (payload[off] << 8) + payload[off + 1]
            off += 2
            real = metadata >> 8
            if real in (int(ColumnType.SET), int(ColumnType.ENUM)):
                c["type"] = ColumnType(real)
                c["size"] = metadata & 0xFF
            else:
                c["max_length"] = (((metadata >> 4) & 0x300) ^ 0x300) + (metadata & 0xFF)
        elif ct in (ColumnType.BLOB, ColumnType.GEOMETRY, ColumnType.JSON):
            c["length_bytes"] = payload[off]
            off += 1
        elif ct is ColumnType.NEWDECIMAL:
            c["precision"] = payload[off]
            c["scale"] = payload[off + 1]
            off += 2
        elif ct is ColumnType.BIT:
            bits_rem = payload[off]
            nbytes = payload[off + 1]
            off += 2
            c["bits"] = nbytes * 8 + bits_rem
        raw_cols.append(c)
    assert off == meta_end, f"metadata length mismatch: {off} != {meta_end}"

    nullable_bm = payload[off : off + ((n + 7) >> 3)]
    off += (n + 7) >> 3

    # phase 2: optional metadata TLVs (`ColumnMetadataFactory.php:91-157`)
    meta: dict[int, Any] = {}
    while off < header.payload_size:
        tag = payload[off]
        off += 1
        ln, off = read_coded_binary(payload, off)
        assert ln is not None
        sub = payload[off : off + ln]
        off += ln
        if tag == OptMeta.SIGNEDNESS:
            meta[tag] = sub
        elif tag in (OptMeta.DEFAULT_CHARSET, OptMeta.ENUM_AND_SET_DEFAULT_CHARSET):
            # default collation, then (character-column ordinal,
            # collation) override pairs for columns whose charset
            # differs.  The reference keeps only the default and drops
            # the pairs (`ColumnMetadataFactory.php:107-112`) —
            # DOCUMENTED DIVERGENCE: we honor the overrides.
            v, p = read_coded_binary(sub, 0)
            pairs: dict[int, int] = {}
            while p < len(sub):
                ci, p = read_coded_binary(sub, p)
                coll, p = read_coded_binary(sub, p)
                pairs[ci] = coll
            meta[tag] = (v, pairs)
        elif tag in (OptMeta.COLUMN_CHARSET, OptMeta.ENUM_AND_SET_COLUMN_CHARSET):
            ids, p = [], 0
            while p < len(sub):
                v, p = read_coded_binary(sub, p)
                ids.append(v)
            meta[tag] = ids
        elif tag == OptMeta.COLUMN_NAME:
            names, p = [], 0
            while p < len(sub):
                ln2, p = read_coded_binary(sub, p)
                names.append(sub[p : p + ln2].decode())
                p += ln2
            meta[tag] = names
        elif tag in (OptMeta.ENUM_STR_VALUE, OptMeta.SET_STR_VALUE):
            groups, p = [], 0
            while p < len(sub):
                cnt, p = read_coded_binary(sub, p)
                vals = []
                for _ in range(cnt):
                    ln2, p = read_coded_binary(sub, p)
                    vals.append(sub[p : p + ln2].decode())
                    p += ln2
                groups.append(vals)
            meta[tag] = groups
        elif tag == OptMeta.SIMPLE_PRIMARY_KEY:
            pks, p = [], 0
            while p < len(sub):
                v, p = read_coded_binary(sub, p)
                pks.append(v)
            meta[tag] = pks
        elif tag == OptMeta.COLUMN_VISIBILITY:
            pass
        else:
            raise ValueError(f"unknown optional metadata tag {tag}")

    if OptMeta.COLUMN_NAME not in meta:
        raise RuntimeError(
            "Column names not found in TABLE_MAP event; binlog_row_metadata=FULL required"
        )
    names = meta[OptMeta.COLUMN_NAME]

    # phase 3: bind names / signedness / charsets / values
    # (`ColumnMetadataFactory.php:163-288`)
    def _enumset_charset(ordinal: int) -> int | None:
        if OptMeta.ENUM_AND_SET_DEFAULT_CHARSET in meta:
            default, pairs = meta[OptMeta.ENUM_AND_SET_DEFAULT_CHARSET]
            return pairs.get(ordinal, default)
        if OptMeta.ENUM_AND_SET_COLUMN_CHARSET in meta:
            return meta[OptMeta.ENUM_AND_SET_COLUMN_CHARSET][ordinal]
        return None

    columns: list[ColumnDef] = []
    num_i = char_i = enum_i = set_i = enumset_i = 0
    for i, rc in enumerate(raw_cols):
        ct = rc["type"]
        kw: dict[str, Any] = {
            "name": names[i],
            "type": ct,
            "nullable": bool(nullable_bm[i >> 3] & (1 << (i & 7))),
        }
        kw.update({k: v for k, v in rc.items() if k != "type"})
        if ct in NUMERIC_TYPES:
            # the SIGNEDNESS bitmap holds one bit per NUMERIC column
            # (ints, FLOAT, DOUBLE, NEWDECIMAL — mysqld's
            # init_signedness_field iterates is_numeric_type()); the
            # reference indexes it by integer columns only
            # (`ColumnMetadataFactory.php:176-185`) — DOCUMENTED
            # DIVERGENCE: a table mixing floats and unsigned ints
            # misaligns there.  The flag is only *applied* to ints.
            bm = meta[OptMeta.SIGNEDNESS]
            unsigned = bool(bm[num_i >> 3] & (1 << (7 - (num_i & 7))))
            if ct in INTEGER_TYPES:
                kw["signed"] = not unsigned
            num_i += 1
        if ct in CHARACTER_TYPES:
            if OptMeta.DEFAULT_CHARSET in meta:
                default, pairs = meta[OptMeta.DEFAULT_CHARSET]
                kw["charset"] = pairs.get(char_i, default)
            else:
                kw["charset"] = meta[OptMeta.COLUMN_CHARSET][char_i]
            char_i += 1
        elif ct is ColumnType.ENUM:
            kw["charset"] = _enumset_charset(enumset_i)
            kw["values"] = tuple(meta[OptMeta.ENUM_STR_VALUE][enum_i])
            enum_i += 1
            enumset_i += 1
        elif ct is ColumnType.SET:
            kw["charset"] = _enumset_charset(enumset_i)
            kw["values"] = tuple(meta[OptMeta.SET_STR_VALUE][set_i])
            set_i += 1
            enumset_i += 1
        columns.append(ColumnDef(**kw))

    pk = tuple(meta.get(OptMeta.SIMPLE_PRIMARY_KEY, ()))
    return TableMapDef(
        table_id=table_id,
        schema_name=schema,
        table_name=table,
        columns=tuple(columns),
        primary_key=pk,
        flags=flags,
    )


_ROWS_OP = {
    EventType.WRITE_ROWS_V1: ("insert", False, False),
    EventType.WRITE_ROWS_V2: ("insert", True, False),
    EventType.UPDATE_ROWS_V1: ("update", False, True),
    EventType.UPDATE_ROWS_V2: ("update", True, True),
    EventType.DELETE_ROWS_V1: ("delete", False, False),
    EventType.DELETE_ROWS_V2: ("delete", True, False),
}


def rows_body_offset(payload, etype: int, plan: DecodePlan) -> tuple[int, bool]:
    """The ONE ROWS-event prologue (`EventsIterator.php:370-420`): skip
    table id, flags and the v2 extra data, check the column count and
    the columns-present bitmap(s) against ``plan``.  Returns the offset
    of the first row image and whether each row carries an after-image.

    A column count that is NULL or differs from the plan's width means
    the event was resolved against the wrong table map (e.g. a table id
    reused across files); the row images would decode misaligned, so
    refuse loudly instead."""
    _op, v2, has_after = _ROWS_OP[etype]
    off = 1 + 19 + 6 + 2  # OK byte + header + table id + row-event flags
    if v2:
        # extra_row_info length INCLUDES its own two bytes (spec); the
        # reference divides by 8 instead (`EventsIterator.php:408`) —
        # DOCUMENTED DIVERGENCE, identical when extra == 2 (no info)
        off += max(2, _u16.unpack_from(payload, off)[0])
    n, off = read_coded_binary(payload, off)
    width = len(plan.names)
    if n != width:
        tm = plan.table_map
        got = "a NULL column count" if n is None else f"{n} columns"
        raise ValueError(
            f"ROWS event for table {tm.schema_name}.{tm.table_name} carries "
            f"{got} but its table map has {width}"
        )
    bml = len(plan.full_bitmap)
    check_full_row_image(payload, off, plan)
    off += bml  # columns-present bitmap (verified: all set)
    if has_after:
        check_full_row_image(payload, off, plan)
        off += bml  # after-image bitmap
    return off, has_after


def _read_row(payload: bytes, off: int, plan: DecodePlan) -> tuple[dict[str, Any], int]:
    """One row image: null bitmap walk + pre-bound cell readers
    (`RowFactory.php:56-169`).  FULL row image assumed (all columns
    present), which the reference enforces server-side
    (`Connection.php:102-115`)."""
    nbl = len(plan.full_bitmap)
    null_bm = payload[off : off + nbl]
    off += nbl
    row: dict[str, Any] = {}
    names = plan.names
    readers = plan.readers
    for i in range(len(readers)):
        if null_bm[i >> 3] & (1 << (i & 7)):
            row[names[i]] = None
        else:
            row[names[i]], off = readers[i](payload, off)
    return row, off


def rows_overrun(table_map: TableMapDef, event_seq: int | None = None) -> ValueError:
    """The error of a ROWS event whose row images do not end exactly at
    the event's end (its last image ran into the checksum or past it):
    every decode mode raises it rather than return cells read from
    bytes that are not the row's."""
    at = "" if event_seq is None else f"{event_seq} "
    return ValueError(
        f"ROWS event {at}for table {table_map.schema_name}.{table_map.table_name}: "
        "its row images do not end at the event's end"
    )


def parse_rows_event(
    payload: bytes,
    header: EventHeader,
    plans: dict[int, DecodePlan],
    event_seq: int | None = None,
) -> RowsEvent:
    """WRITE/UPDATE/DELETE_ROWS v1/v2 (`EventsIterator.php:370-506`).
    Row images that do not end at the event's end raise
    :func:`rows_overrun`, naming ``event_seq`` when given."""
    table_id = int.from_bytes(payload[20:26], "little")
    plan = plans[table_id]
    off, has_after = rows_body_offset(payload, header.type, plan)
    rows: list[dict[str, Any]] = []
    end = header.payload_size
    if has_after:
        while off < end:
            before, off = _read_row(payload, off, plan)
            after, off = _read_row(payload, off, plan)
            rows.append({"before": before, "after": after})
    else:
        while off < end:
            row, off = _read_row(payload, off, plan)
            rows.append(row)
    if off != end:
        raise rows_overrun(plan.table_map, event_seq)
    return RowsEvent(
        op=_ROWS_OP[header.type][0], table_id=table_id, table_map=plan.table_map, rows=rows
    )


def parse_rotate(payload: bytes, header: EventHeader) -> tuple[str, int]:
    off = 1 + 19
    pos = struct.unpack_from("<Q", payload, off)[0]
    off += 8
    filename = payload[off : header.payload_size].decode()
    return filename, pos


def parse_xid(payload: bytes) -> int:
    return struct.unpack_from("<Q", payload, 20)[0]


def parse_query(payload: bytes, header: EventHeader) -> tuple[str, str]:
    """-> (schema, sql) (`EventsIterator.php:343-355`)."""
    off = 1 + 19
    off += 8  # slave proxy id + execution time
    schema_len = payload[off]
    off += 1
    off += 2  # error code
    status_len = _u16.unpack_from(payload, off)[0]
    off += 2 + status_len
    schema = payload[off : off + schema_len].decode()
    off += schema_len
    sql = payload[off : header.payload_size].decode()
    return schema, sql


def parse_format_description(payload: bytes, header: EventHeader) -> tuple[int, str, int]:
    """-> (format_version, server_version, checksum_algorithm)
    (`EventsIterator.php:357-368`)."""
    off = 1 + 19
    fmt = _u16.unpack_from(payload, off)[0]
    off += 2
    server_version = payload[off : off + 50].rstrip(b"\x00").decode()
    off += 50 + 4  # create timestamp
    header_len = payload[off]
    off += 1
    skip = header.event_size - header_len - (2 + 50 + 4 + 1) - 1 - 4
    off += skip
    checksum_alg = payload[off]
    return fmt, server_version, checksum_alg


def verify_checksum(payload: bytes, checksum_size: int) -> bool:
    """CRC32 over header+body, stored LE at the tail
    (`EventsIterator.php:260-261`)."""
    if checksum_size == 0:
        return True
    stored = _u32.unpack_from(payload, len(payload) - 4)[0]
    return zlib.crc32(payload[1:-4]) == stored


__all__ = [
    "DecodePlan",
    "EventHeader",
    "HEADER_COLUMNS",
    "RowsEvent",
    "ROW_EVENT_TYPES",
    "SKIP_EVENT_TYPES",
    "TABLE_ID_MASK",
    "cell_layout",
    "header_columns",
    "make_cell_reader",
    "parse_format_description",
    "parse_header",
    "parse_query",
    "parse_rotate",
    "parse_rows_event",
    "parse_table_map",
    "parse_xid",
    "read_coded_binary",
    "rows_body_offset",
    "rows_overrun",
    "verify_checksum",
]
