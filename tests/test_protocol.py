"""Decode-conformance corpus (FIXTURES.md §F4, SURVEY.md §5.2 item 1).

The reference ships zero tests; these encode/decode round-trips + fixed
expected values substitute for the missing unit coverage of
`RowFactory.php:72-165` and the Buffer read traits.
"""

import base64
import struct
import zlib

import pyarrow as pa
import pytest

from mysql_binlog_ray.protocol import decode as D
from mysql_binlog_ray.protocol import encode as E
from mysql_binlog_ray.protocol.constants import (
    BINARY_TAG,
    COLLATION_BINARY,
    COLLATION_LATIN1,
    COLLATION_UTF8MB4,
    ColumnType,
    EventType,
)
from mysql_binlog_ray.protocol.model import ColumnDef, TableMapDef
from mysql_binlog_ray.stages.decode_stage import BinlogDecoder


def kernel_rows(tm, packets, mode):
    """Decode ``packets`` with ``BinlogDecoder`` in a typed mode, i.e.
    through the table's code-generated row kernel, as Python rows."""
    batch = pa.table(
        {
            "shard_id": pa.array([0] * len(packets), pa.int32()),
            "event_seq": pa.array(range(1, len(packets) + 1), pa.int64()),
            "payload": pa.array(packets, pa.binary()),
        }
    )
    dec = BinlogDecoder(
        registry_snapshot=[tm.to_dict()],
        target_table=(tm.schema_name, tm.table_name),
        output=mode,
    )
    return dec(batch).to_pylist()


def assert_same_image(got, want):
    """Kernel row image vs ``parse_rows_event``'s: u64 values >= 2^63
    come back as integers from the uint64 Arrow column, not as the
    decimal strings of the GMP fallback."""
    assert set(got) == set(want)
    for k, v in want.items():
        g = got[k]
        if isinstance(v, str) and isinstance(g, int):
            v = int(v)
        assert g == v, (k, g, v)


def one_row_roundtrip(cols, row, expect=None):
    """Encode a single-row WRITE_ROWS_v2 stream slice and decode it back."""
    tm = TableMapDef(table_id=9, schema_name="s", table_name="t", columns=tuple(cols), primary_key=(0,))
    w = E.BinlogWriter()
    fd = w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body())
    tmev = w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm))
    wr = w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row], "insert"))
    h = D.parse_header(tmev, 4)
    tm2 = D.parse_table_map(tmev, h)
    plans = {tm2.table_id: D.DecodePlan.compile(tm2)}
    h = D.parse_header(wr, 4)
    assert D.verify_checksum(wr, 4)
    ev = D.parse_rows_event(wr, h, plans)
    assert ev.op == "insert" and len(ev.rows) == 1
    got = ev.rows[0]
    for k, v in (expect or row).items():
        assert got[k] == v, (k, got[k], v)
    # the typed modes decode through the code-generated kernel: every
    # column must match the conformance decoder's row
    (cf,) = kernel_rows(tm2, [fd, tmev, wr], "changefeed")
    assert cf["op"] == "insert" and cf["before"] is None
    assert_same_image(cf["after"], got)
    (flat,) = kernel_rows(tm2, [fd, tmev, wr], "flat")
    assert flat["op"] == "insert"
    assert_same_image({c.name: flat[c.name] for c in tm2.columns}, got)
    return got, tm2


class TestIntegers:
    def test_signed_ranges(self):
        cols = [
            ColumnDef("t", ColumnType.TINY),
            ColumnDef("s", ColumnType.SHORT),
            ColumnDef("m", ColumnType.INT24),
            ColumnDef("l", ColumnType.LONG),
            ColumnDef("b", ColumnType.LONGLONG),
        ]
        row = {"t": -128, "s": -32768, "m": -(1 << 23), "l": -(1 << 31), "b": -(1 << 63)}
        one_row_roundtrip(cols, row)

    def test_unsigned_ranges(self):
        cols = [
            ColumnDef("t", ColumnType.TINY, signed=False),
            ColumnDef("s", ColumnType.SHORT, signed=False),
            ColumnDef("m", ColumnType.INT24, signed=False),
            ColumnDef("l", ColumnType.LONG, signed=False),
        ]
        row = {"t": 255, "s": 65535, "m": (1 << 24) - 1, "l": (1 << 32) - 1}
        one_row_roundtrip(cols, row)

    def test_u64_overflow_to_string(self):
        # mirrors the GMP fallback at UIntLeReadTrait.php:133-138
        cols = [ColumnDef("b", ColumnType.LONGLONG, signed=False)]
        one_row_roundtrip(cols, {"b": (1 << 64) - 1}, expect={"b": str((1 << 64) - 1)})
        one_row_roundtrip(cols, {"b": (1 << 63)}, expect={"b": str(1 << 63)})
        one_row_roundtrip(cols, {"b": (1 << 63) - 1}, expect={"b": (1 << 63) - 1})

    def test_signedness_bitmap_mixed(self):
        # >8 integer columns to cross the SIGNEDNESS byte boundary
        cols = [
            ColumnDef(f"c{i}", ColumnType.LONG, signed=(i % 3 != 0)) for i in range(10)
        ]
        row = {f"c{i}": (-5 * i if i % 3 != 0 else 3_000_000_000 + i) for i in range(10)}
        one_row_roundtrip(cols, row)


class TestFloats:
    def test_float_rounded_to_meta_digits(self):
        # FLOAT is rounded to meta->size digits (RowFactory.php:91)
        cols = [ColumnDef("f", ColumnType.FLOAT, size=4)]
        got, _ = one_row_roundtrip(cols, {"f": 1.25}, expect={"f": 1.25})
        got, _ = one_row_roundtrip(cols, {"f": 3.14159265}, expect={"f": round(struct.unpack("<f", struct.pack("<f", 3.14159265))[0], 4)})

    def test_double(self):
        cols = [ColumnDef("d", ColumnType.DOUBLE, size=8)]
        one_row_roundtrip(cols, {"d": -2.718281828459045})


class TestDecimal:
    @pytest.mark.parametrize(
        "precision,scale,value",
        [
            (10, 2, "12345.67"),
            (10, 2, "-12345.67"),
            (3, 2, "-1.23"),
            (18, 0, "123456789012345678"),
            (20, 6, "-99999999999999.999999"),
            (9, 9, "0.000000001"),
            (12, 4, "0.0000"),
            (12, 4, "-0.5000"),
            (30, 10, "12345678901234567890.1234567890"),
        ],
    )
    def test_roundtrip(self, precision, scale, value):
        cols = [ColumnDef("d", ColumnType.NEWDECIMAL, precision=precision, scale=scale)]
        # exact fixed-scale round-trip; the reference's %.{scale}F double
        # render (DecimalReadTrait.php:49) corrupts values beyond ~16
        # significant digits — we return the exact digit string instead
        one_row_roundtrip(cols, {"d": value}, expect={"d": value})

    def test_leading_zero_groups(self):
        cols = [ColumnDef("d", ColumnType.NEWDECIMAL, precision=20, scale=4)]
        one_row_roundtrip(cols, {"d": "0000000000000042.5000"}, expect={"d": "42.5000"})


class TestBit:
    @pytest.mark.parametrize("bits,value", [(1, "1"), (5, "10110"), (8, "10000001"), (10, "1010110011"), (24, "101010101111000011001100")])
    def test_roundtrip(self, bits, value):
        cols = [ColumnDef("b", ColumnType.BIT, bits=bits)]
        one_row_roundtrip(cols, {"b": value})


class TestStrings:
    def test_varchar_one_vs_two_byte_length(self):
        # the >255 maxLength switch (RowFactory.php:108)
        cols = [
            ColumnDef("a", ColumnType.VARCHAR, max_length=255),
            ColumnDef("b", ColumnType.VARCHAR, max_length=256),
        ]
        row = {"a": "x" * 200, "b": "y" * 300}
        one_row_roundtrip(cols, row)

    def test_charsets(self):
        cols = [
            ColumnDef("u", ColumnType.VARCHAR, max_length=50, charset=COLLATION_UTF8MB4),
            ColumnDef("l", ColumnType.VARCHAR, max_length=50, charset=COLLATION_LATIN1),
        ]
        # latin1 == cp1252: Euro sign at 0x80 (the documented MySQL quirk)
        one_row_roundtrip(cols, {"u": "héllo — 你好", "l": "café€"})

    def test_binary_base64_tag(self):
        cols = [ColumnDef("bin", ColumnType.VARCHAR, max_length=50, charset=COLLATION_BINARY)]
        raw = "\x00\x01\xfe"
        expect = BINARY_TAG + base64.b64encode(raw.encode("utf-8")).decode()
        one_row_roundtrip(cols, {"bin": raw}, expect={"bin": expect})

    @pytest.mark.parametrize("length_bytes", [1, 2, 3, 4])
    def test_blob_length_of_length(self, length_bytes):
        cols = [ColumnDef("b", ColumnType.BLOB, length_bytes=length_bytes, charset=COLLATION_UTF8MB4)]
        one_row_roundtrip(cols, {"b": "data" * 20})


class TestTemporal:
    def test_date(self):
        cols = [ColumnDef("d", ColumnType.DATE)]
        one_row_roundtrip(cols, {"d": "2024-02-29"})
        one_row_roundtrip(cols, {"d": "0000-00-00"})  # zero-date sentinel
        one_row_roundtrip(cols, {"d": "9999-12-31"})

    @pytest.mark.parametrize("fsp,value", [(0, "2024-03-01 10:20:30"), (3, "2024-03-01 10:20:30.500"), (3, "1999-12-31 23:59:59.999")])
    def test_datetime2(self, fsp, value):
        cols = [ColumnDef("dt", ColumnType.DATETIME2, fsp=fsp)]
        one_row_roundtrip(cols, {"dt": value})

    def test_timestamp2_epoch_render(self):
        cols = [ColumnDef("ts", ColumnType.TIMESTAMP2, fsp=0)]
        one_row_roundtrip(cols, {"ts": "1700000000"}, expect={"ts": "2023-11-14 22:13:20"})
        one_row_roundtrip(cols, {"ts": "0"}, expect={"ts": "0000-00-00 00:00:00"})

    def test_time2(self):
        cols = [ColumnDef("t", ColumnType.TIME2, fsp=0)]
        one_row_roundtrip(cols, {"t": "23:59:59"})
        one_row_roundtrip(cols, {"t": "00:00:00"})

    def test_frac_render_pads_and_truncates(self):
        # sprintf('.%-03.3s') semantics: left-justified zero-pad width 3,
        # truncate to 3 (DateTimeReadTrait.php:16)
        cols = [ColumnDef("dt", ColumnType.DATETIME2, fsp=6)]
        got, _ = one_row_roundtrip(
            cols, {"dt": "2024-01-01 00:00:00.123456"}, expect={"dt": "2024-01-01 00:00:00.123"}
        )


class TestEnumSet:
    def test_enum(self):
        cols = [ColumnDef("e", ColumnType.ENUM, size=1, values=("a", "b", "c"))]
        one_row_roundtrip(cols, {"e": "b"})
        one_row_roundtrip(cols, {"e": "zzz"}, expect={"e": ""})  # out-of-range -> ''

    def test_enum_two_byte(self):
        values = tuple(f"v{i}" for i in range(300))
        cols = [ColumnDef("e", ColumnType.ENUM, size=2, values=values)]
        one_row_roundtrip(cols, {"e": "v299"})

    def test_set(self):
        cols = [ColumnDef("s", ColumnType.SET, size=1, values=("a", "b", "c", "d"))]
        one_row_roundtrip(cols, {"s": "a,c"})
        one_row_roundtrip(cols, {"s": ""})
        one_row_roundtrip(cols, {"s": "a,b,c,d"})


class TestNulls:
    def test_null_bitmap_combinations(self):
        cols = [
            ColumnDef("a", ColumnType.LONG),
            ColumnDef("b", ColumnType.VARCHAR, max_length=20),
            ColumnDef("c", ColumnType.LONG),
            ColumnDef("d", ColumnType.VARCHAR, max_length=20),
        ]
        one_row_roundtrip(cols, {"a": None, "b": "x", "c": None, "d": None})
        one_row_roundtrip(cols, {"a": 1, "b": None, "c": 2, "d": "y"})

    def test_nine_columns_crosses_bitmap_byte(self):
        cols = [ColumnDef(f"c{i}", ColumnType.LONG) for i in range(9)]
        row = {f"c{i}": (None if i % 2 else i) for i in range(9)}
        one_row_roundtrip(cols, row)


class TestUpdateEvent:
    def test_before_after_pairing(self):
        cols = (
            ColumnDef("k", ColumnType.LONG),
            ColumnDef("v", ColumnType.VARCHAR, max_length=20),
        )
        tm = TableMapDef(table_id=5, schema_name="s", table_name="t", columns=cols, primary_key=(0,))
        w = E.BinlogWriter()
        fd = w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body())
        tmev = w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm))
        pairs = [
            {"before": {"k": 1, "v": "old1"}, "after": {"k": 1, "v": "new1"}},
            {"before": {"k": 2, "v": None}, "after": {"k": 2, "v": "new2"}},
        ]
        up = w.packet(EventType.UPDATE_ROWS_V2, E.encode_rows_body(tm, pairs, "update"))
        tm2 = D.parse_table_map(tmev, D.parse_header(tmev, 4))
        plans = {tm2.table_id: D.DecodePlan.compile(tm2)}
        ev = D.parse_rows_event(up, D.parse_header(up, 4), plans)
        assert ev.op == "update"
        assert ev.rows == pairs
        cf = kernel_rows(tm2, [fd, tmev, up], "changefeed")
        assert [r["op"] for r in cf] == ["update", "update"]
        assert [{"before": r["before"], "after": r["after"]} for r in cf] == pairs

    def test_delete_before_image(self):
        cols = (ColumnDef("k", ColumnType.LONG), ColumnDef("v", ColumnType.VARCHAR, max_length=20))
        tm = TableMapDef(table_id=6, schema_name="s", table_name="t", columns=cols)
        w = E.BinlogWriter()
        fd = w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body())
        tmev = w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm))
        de = w.packet(EventType.DELETE_ROWS_V2, E.encode_rows_body(tm, [{"k": 7, "v": "gone"}], "delete"))
        tm2 = D.parse_table_map(tmev, D.parse_header(tmev, 4))
        ev = D.parse_rows_event(de, D.parse_header(de, 4), {tm2.table_id: D.DecodePlan.compile(tm2)})
        assert ev.op == "delete" and ev.rows == [{"k": 7, "v": "gone"}]
        (cf,) = kernel_rows(tm2, [fd, tmev, de], "changefeed")
        assert cf["op"] == "delete" and cf["after"] is None
        assert cf["before"] == {"k": 7, "v": "gone"}


class TestEventFraming:
    def test_header_fields_and_positions(self):
        w = E.BinlogWriter(server_id=77)
        fd = w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body(), timestamp=111)
        h = D.parse_header(fd, 0)
        assert h.server_id == 77 and h.timestamp == 111
        assert h.type == EventType.FORMAT_DESCRIPTION
        # position advances by event_size from BINLOG_START_POS
        assert h.log_pos == 4 + h.event_size

    def test_checksum_detects_corruption(self):
        w = E.BinlogWriter()
        pkt = bytearray(w.packet(EventType.XID, E.encode_xid_body(1)))
        assert D.verify_checksum(bytes(pkt), 4)
        pkt[21] ^= 0xFF
        assert not D.verify_checksum(bytes(pkt), 4)

    def test_rotate_roundtrip(self):
        w = E.BinlogWriter()
        w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body())
        r = w.rotate("binlog.000042")
        fn, pos = D.parse_rotate(r, D.parse_header(r, 4))
        assert fn == "binlog.000042" and pos == 4

    def test_query_roundtrip(self):
        w = E.BinlogWriter()
        q = w.packet(EventType.QUERY, E.encode_query_body("code", "ALTER TABLE repos ADD COLUMN stars BIGINT"))
        schema, sql = D.parse_query(q, D.parse_header(q, 4))
        assert schema == "code" and sql.startswith("ALTER TABLE repos")

    def test_coded_binary(self):
        for n in (0, 1, 250, 251, 65535, 65536, (1 << 24) - 1, 1 << 24):
            data = E.write_coded_binary(n)
            v, off = D.read_coded_binary(data, 0)
            assert v == n and off == len(data)
        v, _ = D.read_coded_binary(E.write_coded_binary(None), 0)
        assert v is None


class TestMultiRowEvents:
    def test_many_rows_one_event(self):
        cols = (ColumnDef("k", ColumnType.LONG), ColumnDef("v", ColumnType.VARCHAR, max_length=300))
        tm = TableMapDef(table_id=8, schema_name="s", table_name="t", columns=cols)
        rows = [{"k": i, "v": f"val{i}" * (i % 11)} for i in range(100)]
        w = E.BinlogWriter()
        w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body())
        tmev = w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm))
        wr = w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, rows, "insert"))
        tm2 = D.parse_table_map(tmev, D.parse_header(tmev, 4))
        ev = D.parse_rows_event(wr, D.parse_header(wr, 4), {tm2.table_id: D.DecodePlan.compile(tm2)})
        assert ev.rows == rows


class TestJsonColumns:
    """JSON columns: the reference dies (`RowFactory.php:163-165`); we
    decode the binary JSON storage format (protocol/jsonb.py)."""

    def _tm(self):
        from mysql_binlog_ray.protocol.constants import COLLATION_UTF8MB4, ColumnType
        from mysql_binlog_ray.protocol.model import ColumnDef, TableMapDef

        return TableMapDef(
            table_id=400,
            schema_name="app",
            table_name="docs",
            columns=(
                ColumnDef("id", ColumnType.LONG, nullable=False, signed=True),
                ColumnDef("meta", ColumnType.JSON, nullable=True, length_bytes=4),
                ColumnDef("name", ColumnType.VARCHAR, nullable=False, max_length=64, charset=COLLATION_UTF8MB4),
            ),
            primary_key=(0,),
            schema_ver=1,
        )

    def test_jsonb_roundtrip_all_scalar_and_container_types(self):
        from mysql_binlog_ray.protocol.jsonb import decode_jsonb, encode_jsonb

        cases = [
            None, True, False, 0, -1, 32767, -32768, 1 << 20, -(1 << 40),
            (1 << 63) + 5, 2.5, "", "héllo 你好", [1, [2, [3]]],
            {"a": {"b": {"c": [None, False]}}},
            {"k" * 100: "v" * 500, "n": -7},
        ]
        for c in cases:
            assert decode_jsonb(encode_jsonb(c)) == c

    def test_json_column_roundtrips_through_rows_event(self):
        from mysql_binlog_ray.protocol import decode as D
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import EventType
        from mysql_binlog_ray.protocol.encode import BinlogWriter

        tm = self._tm()
        rows = [
            {"id": 1, "meta": {"tags": ["a", "b"], "rank": 3}, "name": "x"},
            {"id": 2, "meta": None, "name": "y"},
            {"id": 3, "meta": [1, 2.5, "z", None], "name": "w"},
        ]
        w = BinlogWriter(server_id=1)
        tmev = w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm))
        wr = w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, rows, "insert"))
        tm2 = D.parse_table_map(tmev, D.parse_header(tmev, 4))
        ev = D.parse_rows_event(
            wr, D.parse_header(wr, 4), {tm2.table_id: D.DecodePlan.compile(tm2)}
        )
        import json

        got = ev.rows
        assert json.loads(got[0]["meta"]) == {"tags": ["a", "b"], "rank": 3}
        assert got[1]["meta"] is None
        assert json.loads(got[2]["meta"]) == [1, 2.5, "z", None]
        # neighbouring columns decode correctly around the JSON cell
        assert [r["name"] for r in got] == ["x", "y", "w"]

    def test_json_skipper_advances_correctly(self):
        """Flat mode byte-skips before-images: the JSON skipper must land
        exactly after the cell."""
        from mysql_binlog_ray.protocol import decode as D
        from mysql_binlog_ray.protocol.jsonb import encode_jsonb

        tm = self._tm()
        plan = D.DecodePlan.compile(tm)
        doc = encode_jsonb({"a": [1, 2, 3], "b": "xyz"})
        cell = len(doc).to_bytes(4, "little") + doc
        data = b"\x00" * 7 + cell + b"\xff"
        skipper = plan.skippers[1]
        assert skipper(data, 7) == 7 + len(cell)


class TestAdviceFixes:
    def test_timestamp2_post_2038_unsigned(self):
        """TIMESTAMP2 seconds are unsigned: 2^31 <= t < 2^32 must render
        a real post-2038 date, not a negative epoch."""
        import struct

        from mysql_binlog_ray.protocol.decode import _decode_timestamp2

        t = (1 << 31) + 12345  # 2038-01-19 + ~3.4h
        data = struct.pack(">I", t)
        s, off = _decode_timestamp2(data, 0, 0)
        assert off == 4
        assert s.startswith("2038-01-19")

    def test_newdecimal_exact_beyond_double_precision(self):
        """DECIMAL(20,2) round-trips digits a double cannot represent."""
        from mysql_binlog_ray.protocol import decode as D
        from mysql_binlog_ray.protocol.encode import _encode_decimal

        val = "12345678901234567.89"
        raw = _encode_decimal(val, 20, 2)
        got, off = D._decode_decimal(raw, 0, 20, 2)
        assert off == len(raw)
        assert got == val  # '%.2f' % float(val) would end in ...68.00
        # negative high-precision too
        nraw = _encode_decimal("-" + val, 20, 2)
        ngot, _ = D._decode_decimal(nraw, 0, 20, 2)
        assert ngot == "-" + val


class TestJsonbProperty:
    def test_jsonb_roundtrip_hypothesis(self):
        from hypothesis import given, settings, strategies as st

        from mysql_binlog_ray.protocol.jsonb import decode_jsonb, encode_jsonb

        scalars = st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(1 << 63), max_value=(1 << 64) - 1),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=40),
        )
        json_vals = st.recursive(
            scalars,
            lambda children: st.one_of(
                st.lists(children, max_size=6),
                st.dictionaries(st.text(max_size=12), children, max_size=6),
            ),
            max_leaves=20,
        )

        @settings(max_examples=200, deadline=None)
        @given(json_vals)
        def check(v):
            assert decode_jsonb(encode_jsonb(v)) == v

        check()


class TestGeometryColumn:
    def test_geometry_roundtrips_as_tagged_base64(self):
        import base64

        from mysql_binlog_ray.protocol import decode as D
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import BINARY_TAG, EventType
        from mysql_binlog_ray.protocol.encode import BinlogWriter

        tm = TableMapDef(
            table_id=401, schema_name="s", table_name="g",
            columns=(
                ColumnDef("id", ColumnType.LONG, nullable=False, signed=True),
                ColumnDef("geom", ColumnType.GEOMETRY, nullable=True, length_bytes=4),
            ),
            primary_key=(0,), schema_ver=1,
        )
        wkb = bytes.fromhex("0101000000000000000000f03f0000000000000040")  # POINT(1 2)
        w = BinlogWriter(server_id=1)
        tmev = w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm))
        wr = w.packet(
            EventType.WRITE_ROWS_V2,
            E.encode_rows_body(tm, [{"id": 1, "geom": wkb}, {"id": 2, "geom": None}], "insert"),
        )
        tm2 = D.parse_table_map(tmev, D.parse_header(tmev, 4))
        ev = D.parse_rows_event(wr, D.parse_header(wr, 4), {tm2.table_id: D.DecodePlan.compile(tm2)})
        assert ev.rows[0]["geom"] == BINARY_TAG + base64.b64encode(wkb).decode("ascii")
        assert ev.rows[1]["geom"] is None
        # skipper parity
        plan = D.DecodePlan.compile(tm2)
        cell = len(wkb).to_bytes(4, "little") + wkb
        data = b"\x00" * 3 + cell + b"\xff"
        assert plan.skippers[1](data, 3) == 3 + len(cell)

    def test_wkb_point_both_byte_orders(self):
        from mysql_binlog_ray.protocol.geometry import ewkt_point, wkb_to_ewkt

        assert wkb_to_ewkt(ewkt_point(4326, 1.0, 2.0)) == "SRID=4326;POINT(1 2)"
        assert (
            wkb_to_ewkt(ewkt_point(0, -0.5, 1e10, big_endian=True))
            == "SRID=0;POINT(-0.5 10000000000)"
        )

    def test_wkb_linestring_and_polygon_with_hole(self):
        import struct

        from mysql_binlog_ray.protocol.geometry import wkb_to_ewkt

        def pts(*xy):
            return b"".join(struct.pack("<dd", x, y) for x, y in xy)

        ls = (
            (4326).to_bytes(4, "little")
            + b"\x01"
            + struct.pack("<I", 2)
            + struct.pack("<I", 3)
            + pts((0, 0), (1.5, 2), (3, 4))
        )
        assert wkb_to_ewkt(ls) == "SRID=4326;LINESTRING(0 0,1.5 2,3 4)"
        poly = (
            (0).to_bytes(4, "little")
            + b"\x01"
            + struct.pack("<I", 3)
            + struct.pack("<I", 2)  # two rings
            + struct.pack("<I", 4)
            + pts((0, 0), (4, 0), (4, 4), (0, 0))
            + struct.pack("<I", 4)
            + pts((1, 1), (2, 1), (2, 2), (1, 1))
        )
        assert (
            wkb_to_ewkt(poly)
            == "SRID=0;POLYGON((0 0,4 0,4 4,0 0),(1 1,2 1,2 2,1 1))"
        )

    def test_wkb_unsupported_and_malformed_return_none(self):
        import struct

        from mysql_binlog_ray.protocol.geometry import ewkt_point, wkb_to_ewkt

        # MULTIPOINT (type 4): not parsed -> passthrough
        mp = (0).to_bytes(4, "little") + b"\x01" + struct.pack("<I", 4) + b"\x00" * 8
        assert wkb_to_ewkt(mp) is None
        # truncated point
        assert wkb_to_ewkt(ewkt_point(0, 1, 2)[:-3]) is None
        # trailing junk after a clean point
        assert wkb_to_ewkt(ewkt_point(0, 1, 2) + b"\x00") is None
        # bogus byte-order flag
        bad = bytearray(ewkt_point(0, 1, 2))
        bad[4] = 9
        assert wkb_to_ewkt(bytes(bad)) is None
        assert wkb_to_ewkt(b"") is None

    def test_geometry_changefeed_emits_ewkt(self):
        from mysql_binlog_ray.protocol import decode as D
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import EventType
        from mysql_binlog_ray.protocol.encode import BinlogWriter
        from mysql_binlog_ray.protocol.geometry import ewkt_point

        tm = TableMapDef(
            table_id=402, schema_name="s", table_name="g2",
            columns=(
                ColumnDef("id", ColumnType.LONG, nullable=False, signed=True),
                ColumnDef("geom", ColumnType.GEOMETRY, nullable=True, length_bytes=4),
            ),
            primary_key=(0,), schema_ver=1,
        )
        cell = ewkt_point(3857, 2.5, -7.25)
        w = BinlogWriter(server_id=1)
        tmev = w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm))
        wr = w.packet(
            EventType.WRITE_ROWS_V2,
            E.encode_rows_body(tm, [{"id": 1, "geom": cell}], "insert"),
        )
        tm2 = D.parse_table_map(tmev, D.parse_header(tmev, 4))
        ev = D.parse_rows_event(
            wr, D.parse_header(wr, 4), {tm2.table_id: D.DecodePlan.compile(tm2)}
        )
        assert ev.rows[0]["geom"] == "SRID=3857;POINT(2.5 -7.25)"


class TestWireFormatFixes:
    """Round-2 review pass 4: real-MySQL wire-format correctness the
    reference gets wrong (each a documented divergence)."""

    @pytest.mark.parametrize(
        "fsp,value",
        [
            (0, "32:00:00"),      # > 5-bit hour (reference corrupts)
            (0, "838:59:59"),     # max TIME
            (0, "-01:00:00"),     # negative
            (0, "-838:59:59"),
            (3, "100:30:15.250"),
            (3, "-02:00:00.500"),
        ],
    )
    def test_time2_wide_and_negative(self, fsp, value):
        cols = [ColumnDef("t", ColumnType.TIME2, fsp=fsp)]
        one_row_roundtrip(cols, {"t": value})

    def test_signedness_bitmap_spans_all_numeric_columns(self):
        """One SIGNEDNESS bit per NUMERIC column (floats/decimals
        included): an unsigned int AFTER a float must still decode
        unsigned (the reference's int-only indexing shifts this bit)."""
        cols = [
            ColumnDef("price", ColumnType.FLOAT, size=4),
            ColumnDef("qty", ColumnType.LONG, signed=False),
            ColumnDef("w", ColumnType.NEWDECIMAL, precision=6, scale=2),
            ColumnDef("delta", ColumnType.LONG, signed=True),
        ]
        row = {"price": 1.5, "qty": (1 << 32) - 1, "w": "12.34", "delta": -5}
        one_row_roundtrip(cols, row)

    def test_default_charset_override_pairs(self):
        """DEFAULT_CHARSET TLV: (char-column ordinal, collation) override
        pairs must be honored — a latin1 column among utf8mb4 ones."""
        from mysql_binlog_ray.protocol import decode as D
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import EventType, OptMeta
        from mysql_binlog_ray.protocol.encode import (
            BinlogWriter,
            _opt_meta_tlv,
            write_coded_binary,
        )

        tm = TableMapDef(
            table_id=77, schema_name="s", table_name="t",
            columns=(
                ColumnDef("a", ColumnType.VARCHAR, max_length=50, charset=COLLATION_UTF8MB4),
                ColumnDef("b", ColumnType.VARCHAR, max_length=50, charset=COLLATION_LATIN1),
            ),
            primary_key=(0,), schema_ver=1,
        )
        # hand-build a TABLE_MAP whose charsets use DEFAULT_CHARSET+pair
        # (the encoder normally emits COLUMN_CHARSET)
        w = BinlogWriter(server_id=1)
        body = bytearray(E.encode_table_map_body(tm))
        # rebuild: swap the COLUMN_CHARSET TLV for DEFAULT_CHARSET+pair
        raw = bytes(body)
        cc_tlv = _opt_meta_tlv(
            OptMeta.COLUMN_CHARSET,
            write_coded_binary(COLLATION_UTF8MB4) + write_coded_binary(COLLATION_LATIN1),
        )
        assert cc_tlv in raw
        dc_payload = (
            write_coded_binary(COLLATION_UTF8MB4)
            + write_coded_binary(1)  # char-column ordinal 1 ('b')
            + write_coded_binary(COLLATION_LATIN1)
        )
        raw = raw.replace(cc_tlv, _opt_meta_tlv(OptMeta.DEFAULT_CHARSET, dc_payload))
        pkt = w.packet(EventType.TABLE_MAP, raw)
        tm2 = D.parse_table_map(pkt, D.parse_header(pkt, 4))
        assert tm2.columns[0].charset == COLLATION_UTF8MB4
        assert tm2.columns[1].charset == COLLATION_LATIN1

    def test_extra_row_info_skipped_by_length(self):
        """v2 extra data longer than 2 (e.g. partition info) must be
        skipped by its full length (the reference's /8 mis-frames it)."""
        from mysql_binlog_ray.protocol import decode as D
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import EventType
        from mysql_binlog_ray.protocol.encode import BinlogWriter

        tm = TableMapDef(
            table_id=88, schema_name="s", table_name="t",
            columns=(ColumnDef("k", ColumnType.LONG, signed=True),),
            primary_key=(0,), schema_ver=1,
        )
        w = BinlogWriter(server_id=1)
        tmev = w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm))
        body = bytearray(E.encode_rows_body(tm, [{"k": 7}], "insert", v2=True))
        # inject 3 bytes of extra row info: length field 2 -> 5
        import struct as _struct
        assert _struct.unpack_from("<H", body, 8)[0] == 2
        _struct.pack_into("<H", body, 8, 5)
        body[10:10] = b"\xaa\xbb\xcc"
        wr = w.packet(EventType.WRITE_ROWS_V2, bytes(body))
        tm2 = D.parse_table_map(tmev, D.parse_header(tmev, 4))
        ev = D.parse_rows_event(wr, D.parse_header(wr, 4), {tm2.table_id: D.DecodePlan.compile(tm2)})
        assert ev.rows == [{"k": 7}]

    def test_minimal_row_image_rejected_loudly(self):
        """A non-FULL columns-present bitmap must raise, never mis-decode."""
        from mysql_binlog_ray.protocol import decode as D
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import EventType
        from mysql_binlog_ray.protocol.encode import BinlogWriter

        tm = TableMapDef(
            table_id=89, schema_name="s", table_name="t",
            columns=(
                ColumnDef("k", ColumnType.LONG, signed=True),
                ColumnDef("v", ColumnType.LONG, signed=True),
            ),
            primary_key=(0,), schema_ver=1,
        )
        w = BinlogWriter(server_id=1)
        body = bytearray(E.encode_rows_body(tm, [{"k": 1, "v": 2}], "insert", v2=True))
        # clear column 1's present bit (simulate binlog_row_image=MINIMAL)
        bitmap_off = 6 + 2 + 2 + 1  # table id + flags + extra-len + colcount varint
        body[bitmap_off] &= ~0x02
        wr = w.packet(EventType.WRITE_ROWS_V2, bytes(body))
        plan = D.DecodePlan.compile(tm)
        with pytest.raises(ValueError, match="FULL"):
            D.parse_rows_event(wr, D.parse_header(wr, 4), {tm.table_id: plan})


class TestCharsetBreadth:
    """Round-4 charset escape hatch: the reference (and rounds 1-3)
    threw on anything outside latin1/utf8mb3/utf8mb4/binary; now the
    published collation families decode and anything unmapped passes
    through as tagged base64 — never an exception in the decode path."""

    def test_collation_codec_families_and_ranges(self):
        from mysql_binlog_ray.protocol.constants import collation_codec

        assert collation_codec(51) == "cp1251"   # cp1251_general_ci
        assert collation_codec(28) == "gbk"      # gbk_chinese_ci
        assert collation_codec(11) == "ascii"    # ascii_general_ci
        assert collation_codec(255) == "utf-8"   # utf8mb4_0900_ai_ci (MySQL 8 DEFAULT)
        assert collation_codec(201) == "utf-8"   # utf8mb3_*_ci block (192-223)
        assert collation_codec(230) == "utf-8"   # utf8mb4_*_ci block (224-247)
        assert collation_codec(96) is None       # cp932_japanese_ci — unmapped

    def test_text_value_decodes_cp1251_and_gbk(self):
        from mysql_binlog_ray.protocol.decode import _text_value

        assert _text_value("привет".encode("cp1251"), 51) == "привет"
        assert _text_value("你好".encode("gbk"), 28) == "你好"

    def test_unmapped_collation_base64_passthrough(self):
        from mysql_binlog_ray.protocol.decode import _text_value

        raw = "日本語".encode("cp932")
        got = _text_value(raw, 96)
        assert got == BINARY_TAG + base64.b64encode(raw).decode()
        # lossless: the original bytes survive the tag round trip
        assert base64.b64decode(got[len(BINARY_TAG):]) == raw
