"""Binlog wire-format encoder (fixture generator side).

Produces byte-exact packets in the layout the reference parses: each
packet is ``b"\\x00" + 19-byte v4 header + body + crc32(LE)`` — the
leading OK byte and trailing CRC32 match what
`/root/reference/src/Connection/Connection.php:419-443` hands to
`EventsIterator::parse` and what its checksum assert verifies
(`/root/reference/src/EventsIterator.php:260-261,272-273`).

This is the *inverse* of the reference's decode path (SURVEY.md §2.2/§2.3,
operator M1): value encodings invert `RowFactory.php:72-165` and the
Buffer read traits; TABLE_MAP bodies invert `EventsIterator.php:301-324`
plus `ColumnMetadataFactory.php:22-157`.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Iterable

from .constants import (
    BINLOG_START_POS,
    CHARACTER_TYPES,
    COLLATION_BINARY,
    collation_codec,
    EVENT_HEADER_LEN,
    INTEGER_TYPES,
    ColumnType,
    EventType,
    OptMeta,
)
from .model import ColumnDef, TableMapDef

_DIG_PER_DEC = 9
_DIG2BYTES = [0, 1, 1, 2, 2, 3, 3, 4, 4, 4]


def write_coded_binary(n: int | None) -> bytes:
    """Length-encoded integer (`Buffer.php:34-60` inverse)."""
    if n is None:
        return b"\xfb"
    if n < 251:
        return bytes([n])
    if n < 1 << 16:
        return b"\xfc" + struct.pack("<H", n)
    if n < 1 << 24:
        return b"\xfd" + n.to_bytes(3, "little")
    return b"\xfe" + struct.pack("<Q", n)


def _encode_text(value: str, charset: int) -> bytes:
    if charset == COLLATION_BINARY:
        return value.encode("utf-8") if isinstance(value, str) else bytes(value)
    codec = collation_codec(charset)
    if codec is None:
        raise ValueError(f"encoder: unmapped collation id {charset}")
    return value.encode(codec)


def _encode_decimal(value: str, precision: int, scale: int) -> bytes:
    """Inverse of MySQL packed-decimal decode (`DecimalReadTrait.php:11-50`).

    ``value`` is a decimal string like ``-123.4500`` with exactly ``scale``
    fractional digits.
    """
    neg = value.startswith("-")
    if neg:
        value = value[1:]
    if "." in value:
        int_part, frac_part = value.split(".")
    else:
        int_part, frac_part = value, ""
    frac_part = (frac_part + "0" * scale)[:scale]
    intg = precision - scale
    int_part = int_part.lstrip("0")
    if len(int_part) > intg:
        raise ValueError(f"integer part {int_part!r} exceeds precision {precision},{scale}")
    int_part = int_part.rjust(intg, "0")  # '' when intg == 0 (pure-fraction decimal)

    intg0, intg0x = divmod(intg, _DIG_PER_DEC)
    frac0, frac0x = divmod(scale, _DIG_PER_DEC)

    out = bytearray()
    pos = 0
    if intg0x:
        size = _DIG2BYTES[intg0x]
        out += int(int_part[:intg0x] or "0").to_bytes(size, "big")
        pos = intg0x
    for _ in range(intg0):
        out += struct.pack(">i", int(int_part[pos : pos + 9]))
        pos += 9
    pos = 0
    for _ in range(frac0):
        out += struct.pack(">i", int(frac_part[pos : pos + 9]))
        pos += 9
    if _DIG2BYTES[frac0x]:
        out += int(frac_part[pos : pos + frac0x] or "0").to_bytes(_DIG2BYTES[frac0x], "big")

    if neg:
        out = bytearray(b ^ 0xFF for b in out)
    out[0] ^= 0x80
    return bytes(out)


def _encode_datetime2(value: str) -> bytes:
    """Inverse of `DateTimeReadTrait.php:54-73` (5-byte BE bitfield)."""
    date_s, time_s = value.split(" ")
    y, mo, d = (int(x) for x in date_s.split("-"))
    h, mi, s = (int(x) for x in time_s.split(":"))
    ym = y * 13 + mo
    packed = (
        (1 << 39)  # sign bit (always set for valid datetimes >= year 0)
        | (ym << 22)
        | (d << 17)
        | (h << 12)
        | (mi << 6)
        | s
    )
    # The reference reads the top bit via `& 0x7f`, so the sign bit is
    # masked off; layout: [sign|ym(17)][day(5)][hour(5)][min(6)][sec(6)].
    return packed.to_bytes(5, "big")


def _encode_time2(value: str) -> bytes:
    h, mi, s = (int(x) for x in value.split(":"))
    packed = (1 << 23) | (h << 12) | (mi << 6) | s
    return packed.to_bytes(3, "big")


def _encode_date(value: str) -> bytes:
    if value == "0000-00-00":
        return b"\x00\x00\x00"
    y, mo, d = (int(x) for x in value.split("-"))
    return ((y << 9) | (mo << 5) | d).to_bytes(3, "little")


def _encode_frac(frac_digits: str, fsp: int) -> bytes:
    """Fractional seconds: (fsp+1)>>1 bytes BE holding the raw int the
    reference renders with ``sprintf('.%-03.3s', v)``."""
    nbytes = (fsp + 1) >> 1
    return int(frac_digits or "0").to_bytes(nbytes, "big")


def encode_value(col: ColumnDef, value: Any) -> bytes:
    """Encode one non-NULL cell for a row image (inverse of
    `RowFactory.php:72-165`)."""
    t = col.type
    if t in INTEGER_TYPES:
        sizes = {
            ColumnType.TINY: 1,
            ColumnType.SHORT: 2,
            ColumnType.INT24: 3,
            ColumnType.LONG: 4,
            ColumnType.LONGLONG: 8,
        }
        size = sizes[t]
        v = int(value)
        if col.signed:
            return v.to_bytes(size, "little", signed=True)
        return v.to_bytes(size, "little", signed=False)
    if t is ColumnType.FLOAT:
        return struct.pack("<f", float(value))
    if t is ColumnType.DOUBLE:
        return struct.pack("<d", float(value))
    if t is ColumnType.NEWDECIMAL:
        return _encode_decimal(str(value), col.precision, col.scale)
    if t is ColumnType.BIT:
        bits = str(value)
        return int(bits, 2).to_bytes(col.bit_bytes, "big")
    if t in (ColumnType.VARCHAR, ColumnType.STRING):
        raw = _encode_text(value, col.charset)
        if col.max_length > 255:
            return struct.pack("<H", len(raw)) + raw
        return bytes([len(raw)]) + raw
    if t is ColumnType.BLOB:
        raw = _encode_text(value, col.charset)
        return len(raw).to_bytes(col.length_bytes, "little") + raw
    if t is ColumnType.JSON:
        # value: any JSON-able Python value, or a JSON text string
        import json as _json

        from .jsonb import encode_jsonb

        v = _json.loads(value) if isinstance(value, str) else value
        raw = encode_jsonb(v)
        return len(raw).to_bytes(col.length_bytes, "little") + raw
    if t is ColumnType.GEOMETRY:
        raw = value if isinstance(value, bytes) else bytes(value)
        return len(raw).to_bytes(col.length_bytes, "little") + raw
    if t is ColumnType.DATE:
        return _encode_date(str(value))
    if t is ColumnType.YEAR:
        v = int(value)
        return bytes([v - 1900 if v else 0])
    if t is ColumnType.DATETIME2:
        s = str(value)
        frac = ""
        if "." in s:
            s, frac = s.split(".")
        return _encode_datetime2(s) + (_encode_frac(frac, col.fsp) if col.fsp else b"")
    if t is ColumnType.TIMESTAMP2:
        s = str(value)
        frac = ""
        if "." in s:
            s, frac = s.split(".")
        epoch = int(s)  # encoder takes raw epoch seconds (unsigned field)
        return struct.pack(">I", epoch) + (_encode_frac(frac, col.fsp) if col.fsp else b"")
    if t is ColumnType.TIME2:
        s = str(value)
        frac = ""
        if "." in s:
            s, frac = s.split(".")
        neg = s.startswith("-")
        if not neg:
            return _encode_time2(s) + (_encode_frac(frac, col.fsp) if col.fsp else b"")
        # negative TIME: stored = 2^(23+8*nb) - magnitude (offset binary
        # across intpart + frac bytes, mysqld my_time_packed_to_binary)
        h, mi, sec = (int(x) for x in s[1:].split(":"))
        nb = (col.fsp + 1) >> 1 if col.fsp else 0
        magnitude = (((h << 12) | (mi << 6) | sec) << (8 * nb)) | int(frac or "0")
        stored = (1 << (23 + 8 * nb)) - magnitude
        return stored.to_bytes(3 + nb, "big")
    if t is ColumnType.ENUM:
        idx = col.values.index(value) + 1 if value in col.values else 0
        return idx.to_bytes(col.size, "little")
    if t is ColumnType.SET:
        bitmap = 0
        members = [m for m in str(value).split(",") if m] if value else []
        for k, v in enumerate(col.values):
            if v in members:
                bitmap |= 1 << k
        return bitmap.to_bytes(col.size, "little")
    raise ValueError(f"unsupported column type {t!r}")


def _column_meta_bytes(col: ColumnDef) -> bytes:
    """Per-type TABLE_MAP metadata (inverse of
    `ColumnMetadataFactory.php:22-84`)."""
    t = col.type
    if t in (ColumnType.FLOAT, ColumnType.DOUBLE):
        return bytes([col.size])
    if t in (ColumnType.TIMESTAMP2, ColumnType.DATETIME2, ColumnType.TIME2):
        return bytes([col.fsp])
    if t is ColumnType.VARCHAR:
        return struct.pack("<H", col.max_length)
    if t is ColumnType.STRING:
        # Packed STRING metadata: byte0 carries real type bits, byte1 the
        # length; ((metadata >> 4) & 0x300) ^ 0x300) + (metadata & 0xff)
        # recovers max_length (`ColumnMetadataFactory.php:45-55`).
        ml = col.max_length
        byte0 = int(ColumnType.STRING) ^ ((ml >> 8) << 4)
        return bytes([byte0, ml & 0xFF])
    if t in (ColumnType.ENUM, ColumnType.SET):
        # Emitted as STRING with real type in high byte.
        return bytes([int(t), col.size])
    if t in (ColumnType.BLOB, ColumnType.JSON, ColumnType.GEOMETRY):
        return bytes([col.length_bytes])
    if t is ColumnType.NEWDECIMAL:
        return bytes([col.precision, col.scale])
    if t is ColumnType.BIT:
        return bytes([col.bits % 8, col.bits // 8])
    return b""


def _opt_meta_tlv(tag: OptMeta, payload: bytes) -> bytes:
    return bytes([int(tag)]) + write_coded_binary(len(payload)) + payload


def encode_table_map_body(tm: TableMapDef) -> bytes:
    """TABLE_MAP event body (inverse of `EventsIterator.php:301-324` +
    optional metadata per `ColumnMetadataFactory.php:91-157`)."""
    out = bytearray()
    out += tm.table_id.to_bytes(6, "little")
    out += struct.pack("<H", tm.flags)
    schema_b = tm.schema_name.encode()
    table_b = tm.table_name.encode()
    out += bytes([len(schema_b)]) + schema_b + b"\x00"
    out += bytes([len(table_b)]) + table_b + b"\x00"
    n = tm.column_count
    out += write_coded_binary(n)
    # column type bytes; ENUM/SET are transmitted as STRING
    type_bytes = bytearray()
    for c in tm.columns:
        if c.type in (ColumnType.ENUM, ColumnType.SET):
            type_bytes.append(int(ColumnType.STRING))
        else:
            type_bytes.append(int(c.type))
    out += bytes(type_bytes)
    meta = b"".join(_column_meta_bytes(c) for c in tm.columns)
    out += write_coded_binary(len(meta)) + meta
    # nullable bitmap (LSB-first per column)
    nullable = bytearray((n + 7) >> 3)
    for i, c in enumerate(tm.columns):
        if c.nullable:
            nullable[i >> 3] |= 1 << (i & 7)
    out += bytes(nullable)

    # --- optional metadata TLVs ---
    from .decode import NUMERIC_TYPES

    num_cols = [c for c in tm.columns if c.type in NUMERIC_TYPES]
    if num_cols:
        # SIGNEDNESS: MSB-first within byte, one bit per NUMERIC column
        # (ints + FLOAT/DOUBLE/NEWDECIMAL — mysqld's
        # init_signedness_field); bit set == unsigned.  The reference
        # indexes integer columns only (`ColumnMetadataFactory.php:183`)
        # — we emit and parse the real layout.
        bm = bytearray((n + 7) >> 3)
        for j, c in enumerate(num_cols):
            if c.type in INTEGER_TYPES and not c.signed:
                bm[j >> 3] |= 1 << (7 - (j & 7))
        out += _opt_meta_tlv(OptMeta.SIGNEDNESS, bytes(bm))

    char_cols = [c for c in tm.columns if c.type in CHARACTER_TYPES]
    if char_cols:
        payload = b"".join(write_coded_binary(c.charset) for c in char_cols)
        out += _opt_meta_tlv(OptMeta.COLUMN_CHARSET, payload)

    names = b"".join(
        write_coded_binary(len(c.name.encode())) + c.name.encode() for c in tm.columns
    )
    out += _opt_meta_tlv(OptMeta.COLUMN_NAME, names)

    enum_cols = [c for c in tm.columns if c.type is ColumnType.ENUM]
    set_cols = [c for c in tm.columns if c.type is ColumnType.SET]
    if enum_cols or set_cols:
        charsets = b"".join(
            write_coded_binary(c.charset) for c in tm.columns if c.type in (ColumnType.ENUM, ColumnType.SET)
        )
        out += _opt_meta_tlv(OptMeta.ENUM_AND_SET_COLUMN_CHARSET, charsets)
    if enum_cols:
        payload = bytearray()
        for c in enum_cols:
            payload += write_coded_binary(len(c.values))
            for v in c.values:
                vb = v.encode()
                payload += write_coded_binary(len(vb)) + vb
        out += _opt_meta_tlv(OptMeta.ENUM_STR_VALUE, bytes(payload))
    if set_cols:
        payload = bytearray()
        for c in set_cols:
            payload += write_coded_binary(len(c.values))
            for v in c.values:
                vb = v.encode()
                payload += write_coded_binary(len(vb)) + vb
        out += _opt_meta_tlv(OptMeta.SET_STR_VALUE, bytes(payload))

    if tm.primary_key:
        payload = b"".join(write_coded_binary(i) for i in tm.primary_key)
        out += _opt_meta_tlv(OptMeta.SIMPLE_PRIMARY_KEY, payload)

    return bytes(out)


def _row_image(tm: TableMapDef, row: dict[str, Any]) -> bytes:
    """Null bitmap + values for one FULL row image
    (inverse of `RowFactory.php:56-169`)."""
    n = tm.column_count
    null_bm = bytearray((n + 7) >> 3)
    cells = bytearray()
    for i, col in enumerate(tm.columns):
        v = row.get(col.name)
        if v is None:
            null_bm[i >> 3] |= 1 << (i & 7)
        else:
            cells += encode_value(col, v)
    return bytes(null_bm) + bytes(cells)


def encode_rows_body(
    tm: TableMapDef,
    rows: Iterable[dict[str, Any]],
    op: str,
    v2: bool = True,
) -> bytes:
    """WRITE/UPDATE/DELETE_ROWS v1/v2 body
    (inverse of `EventsIterator.php:370-506`)."""
    out = bytearray()
    out += tm.table_id.to_bytes(6, "little")
    out += struct.pack("<H", 1)  # row-event flags (end-of-statement)
    if v2:
        # extra-data length; reference skips (u16 / 8) bytes
        # (`EventsIterator.php:408,457,501`) so 2 -> skip 0.
        out += struct.pack("<H", 2)
    n = tm.column_count
    out += write_coded_binary(n)
    full = bytes(b"\xff" * ((n + 7) >> 3))  # columns-present bitmap: FULL image
    # mask trailing bits to match (n+7)>>3 coverage; reference only tests the
    # low n bits so all-ones is equivalent, but keep it tidy:
    out += full
    if op == "update":
        out += full
        for pair in rows:
            out += _row_image(tm, pair["before"])
            out += _row_image(tm, pair["after"])
    else:
        for row in rows:
            out += _row_image(tm, row)
    return bytes(out)


def encode_format_description_body(
    server_version: str = "8.0.36-ray", create_ts: int = 0, checksum_alg: int = 1
) -> bytes:
    """FORMAT_DESCRIPTION body (read at `EventsIterator.php:357-368`)."""
    sv = server_version.encode()[:50].ljust(50, b"\x00")
    # 40 filler bytes stand in for the per-event-type header-length table
    # (read but unused by the reference).
    return (
        struct.pack("<H", 4)
        + sv
        + struct.pack("<I", create_ts)
        + bytes([EVENT_HEADER_LEN])
        + b"\x00" * 40
        + bytes([checksum_alg])
    )


def encode_rotate_body(next_file: str, position: int = BINLOG_START_POS) -> bytes:
    return struct.pack("<Q", position) + next_file.encode()


def encode_xid_body(xid: int) -> bytes:
    return struct.pack("<Q", xid)


def encode_query_body(schema: str, sql: str, exec_time: int = 0) -> bytes:
    """QUERY event body (read at `EventsIterator.php:343-355`)."""
    schema_b = schema.encode()
    return (
        struct.pack("<I", 1)  # slave proxy id
        + struct.pack("<I", exec_time)
        + bytes([len(schema_b)])
        + struct.pack("<H", 0)  # error code
        + struct.pack("<H", 0)  # status vars length
        + schema_b
        + sql.encode()
    )


def encode_gtid_body(seq_no: int, domain: int = 0) -> bytes:
    """MariaDB GTID event body (u64 seq, u32 domain, u8 flags) — consumed
    for position advance only (`EventsIterator.php:249`)."""
    return struct.pack("<QIB", seq_no, domain, 0)


def encode_mysql_gtid_body(
    gno: int, sid: bytes = b"\x11" * 16, last_committed: int = 0
) -> bytes:
    """MySQL-flavor GTID_LOG_EVENT (0x21) body: commit-flag(1) + SID(16)
    + GNO(8 LE) + logical-clock suffix (type byte 0x02 + last_committed
    + sequence_number, as written by 5.7+).  The decoder reads only
    flags/SID/GNO; the suffix exercises the ignored-tail framing."""
    assert len(sid) == 16
    return (
        struct.pack("<B", 1)
        + sid
        + struct.pack("<Q", gno)
        + struct.pack("<Bqq", 0x02, last_committed, gno)
    )


class BinlogWriter:
    """Stateful per-"file" event writer tracking byte positions so headers
    carry consistent ``log_pos`` values (`EventsIterator.php:285-299`)."""

    def __init__(self, server_id: int = 1, checksum: bool = True) -> None:
        self.server_id = server_id
        self.checksum = checksum
        self.pos = BINLOG_START_POS

    def packet(self, etype: EventType, body: bytes, timestamp: int = 0) -> bytes:
        crc_size = 4 if self.checksum else 0
        event_size = EVENT_HEADER_LEN + len(body) + crc_size
        self.pos += event_size
        header = struct.pack(
            "<IBIIIH",
            timestamp,
            int(etype),
            self.server_id,
            event_size,
            self.pos & 0xFFFFFFFF,
            0,
        )
        frame = header + body
        if self.checksum:
            frame += struct.pack("<I", zlib.crc32(frame))
        return b"\x00" + frame

    def rotate(self, next_file: str, timestamp: int = 0) -> bytes:
        """ROTATE resets position to the new file's start
        (`EventsIterator.php:163-173`)."""
        body = encode_rotate_body(next_file)
        crc_size = 4 if self.checksum else 0
        event_size = EVENT_HEADER_LEN + len(body) + crc_size
        header = struct.pack(
            "<IBIIIH",
            timestamp,
            int(EventType.ROTATE),
            self.server_id,
            event_size,
            0,  # rotate's log_pos is ignored; position comes from the body
            0,
        )
        frame = header + body
        if self.checksum:
            frame += struct.pack("<I", zlib.crc32(frame))
        self.pos = BINLOG_START_POS
        return b"\x00" + frame
