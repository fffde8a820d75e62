"""BinlogDecoder stage tests (no Ray needed: the callable is exercised
directly on pyarrow batches, as `map_batches` would)."""

import os

import pyarrow as pa
import pytest
import pyarrow.compute as pc

from mysql_binlog_ray.fixtures.generator import (
    StreamSpec,
    build_op_plan,
    generate_stream,
    repos_table_map,
)
from mysql_binlog_ray.protocol import encode as E
from mysql_binlog_ray.protocol.constants import ColumnType, EventType
from mysql_binlog_ray.protocol.model import ColumnDef, TableMapDef
from mysql_binlog_ray.stages.decode_stage import BinlogDecoder


def _batch(payloads, shard=0, seq0=1):
    return pa.table(
        {
            "shard_id": pa.array([shard] * len(payloads), pa.int32()),
            "event_seq": pa.array(range(seq0, seq0 + len(payloads)), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def _rows_events(tm, rows_events, w=None):
    """Packets for ``[(op, rows), ...]`` of ``tm`` (no TABLE_MAP)."""
    w = w or E.BinlogWriter()
    etype = {
        "insert": EventType.WRITE_ROWS_V2,
        "update": EventType.UPDATE_ROWS_V2,
        "delete": EventType.DELETE_ROWS_V2,
    }
    return [w.packet(etype[op], E.encode_rows_body(tm, rows, op)) for op, rows in rows_events]


def _simple_stream(tm, rows_events):
    w = E.BinlogWriter()
    out = [w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body())]
    out.append(w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm)))
    out += _rows_events(tm, rows_events, w)
    out.append(w.packet(EventType.XID, E.encode_xid_body(99)))
    return out


TM = repos_table_map(False)


def _mk_row(i):
    return {
        "repo": f"org0/repo{i}",
        "path": f"a/b{i}.py",
        "commit": "c" * 40,
        "lang": "py",
        "content": f"content {i}",
    }


class TestDecoderBasics:
    def test_insert_update_delete_shapes(self):
        events = _simple_stream(
            TM,
            [
                ("insert", [_mk_row(1), _mk_row(2)]),
                ("update", [{"before": _mk_row(1), "after": {**_mk_row(1), "commit": "d" * 40}}]),
                ("delete", [_mk_row(2)]),
            ],
        )
        dec = BinlogDecoder(registry_snapshot=[TM.to_dict()])
        out = dec(_batch(events))
        assert out.num_rows == 4
        assert out.column("op").to_pylist() == ["insert", "insert", "update", "delete"]
        # inserts: before null; deletes: after null
        assert out.column("before").is_valid().to_pylist() == [False, False, True, True]
        assert out.column("after").is_valid().to_pylist() == [True, True, True, False]
        # commit stamped from the XID inside the batch (M4)
        assert out.column("commit_seq").to_pylist() == [99, 99, 99, 99]
        # row_seq restarts per event
        assert out.column("row_seq").to_pylist() == [0, 1, 0, 0]

    def test_commit_seq_unknown_when_xid_outside_batch(self):
        events = _simple_stream(TM, [("insert", [_mk_row(1)])])[:-1]  # drop XID
        dec = BinlogDecoder(registry_snapshot=[TM.to_dict()])
        out = dec(_batch(events))
        assert out.column("commit_seq").to_pylist() == [-1]

    def test_in_band_table_map_only(self):
        """Schema discovered purely in-band (reference semantics §1.2):
        the snapshot names the target table but the layout arrives in the
        stream."""
        tm_unseen = TableMapDef(
            table_id=999,
            schema_name="code",
            table_name="repos",
            columns=TM.columns,
            primary_key=TM.primary_key,
        )
        events = _simple_stream(tm_unseen, [("insert", [_mk_row(5)])])
        dec = BinlogDecoder(registry_snapshot=[TM.to_dict()])
        out = dec(_batch(events))
        assert out.num_rows == 1
        assert out.column("table_map_id").to_pylist() == [999]

    def test_start_after_seq_skips(self):
        events = _simple_stream(TM, [("insert", [_mk_row(1)]), ("insert", [_mk_row(2)])])
        # event_seq: 1=FD, 2=TM, 3=ins, 4=ins, 5=XID
        dec = BinlogDecoder(registry_snapshot=[TM.to_dict()], start_after_seq=3)
        out = dec(_batch(events))
        assert out.num_rows == 1
        assert out.column("event_seq").to_pylist() == [4]

    def test_corrupt_event_dropped_not_crash(self):
        events = _simple_stream(TM, [("insert", [_mk_row(1)]), ("insert", [_mk_row(2)])])
        bad = bytearray(events[2])
        bad[40] ^= 0xFF  # flip a byte inside the first WRITE_ROWS body
        events[2] = bytes(bad)
        dec = BinlogDecoder(registry_snapshot=[TM.to_dict()])
        out = dec(_batch(events))
        assert out.num_rows == 1  # poison event skipped (E13)
        assert dec.n_checksum_failures == 1


class TestTableFilters:
    """F1 semantics (`EventsIterator.php:103-130`)."""

    def _other(self):
        return TableMapDef(
            table_id=55,
            schema_name="otherdb",
            table_name="t",
            columns=(ColumnDef("x", ColumnType.LONG),),
        )

    def test_exclude_database(self):
        dec = BinlogDecoder(
            registry_snapshot=[TM.to_dict()],
            target_table=("code", "repos"),
            exclude_databases=["code"],
        )
        out = dec(_batch(_simple_stream(TM, [("insert", [_mk_row(1)])])))
        assert out.num_rows == 0

    def test_include_tables_list(self):
        dec = BinlogDecoder(
            registry_snapshot=[TM.to_dict()],
            tables=["code.repos"],
        )
        out = dec(_batch(_simple_stream(TM, [("insert", [_mk_row(1)])])))
        assert out.num_rows == 1
        dec2 = BinlogDecoder(
            registry_snapshot=[TM.to_dict()],
            tables=["code.other"],
        )
        out2 = dec2(_batch(_simple_stream(TM, [("insert", [_mk_row(1)])])))
        assert out2.num_rows == 0

    def test_non_target_table_ignored(self):
        other = self._other()
        w = E.BinlogWriter()
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body()),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(other)),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(other, [{"x": 1}], "insert")),
        ]
        dec = BinlogDecoder(registry_snapshot=[TM.to_dict()])
        out = dec(_batch(evs))
        assert out.num_rows == 0


class TestSchemaEvolution:
    def test_late_binding_null_fill(self):
        """Rows decoded under schema v1 surface in the v2 target schema
        with `stars` null-filled (M3 late binding)."""
        tm1, tm2 = repos_table_map(False), repos_table_map(True)
        w = E.BinlogWriter()
        r = _mk_row(1)
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body()),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm1)),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm1, [r], "insert")),
            w.packet(EventType.QUERY, E.encode_query_body("code", "ALTER TABLE repos ADD COLUMN stars BIGINT")),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm2)),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm2, [{**_mk_row(2), "stars": 7}], "insert")),
        ]
        dec = BinlogDecoder(registry_snapshot=[tm1.to_dict(), tm2.to_dict()])
        out = dec(_batch(evs))
        assert out.num_rows == 2
        afters = out.column("after").to_pylist()
        assert afters[0]["stars"] is None
        assert afters[1]["stars"] == 7
        assert out.column("schema_ver").to_pylist() == [1, 2]


class TestDroppedKeyTombstones:
    def test_key_change_compare_with_key_dropped_from_target(self):
        """A merge-key column dropped from the LATEST target layout must
        still drive the key-change tombstone compare from its own
        per-event list — the shared trash list interleaves cells from
        every dropped column, so reading key after-images out of it
        misindexes (direct-write regression guard).  Here the target
        drops BOTH path (a key) and commit, so a trash-based compare
        would interleave path/commit cells."""
        from mysql_binlog_ray.protocol.constants import COLLATION_UTF8MB4

        tm0 = repos_table_map(False)  # repo, path, commit, lang, content
        tm1 = TableMapDef(
            table_id=tm0.table_id + 1,
            schema_name="code",
            table_name="repos",
            columns=tuple(c for c in tm0.columns if c.name not in ("path", "commit")),
            primary_key=(0,),
            schema_ver=tm0.schema_ver + 1,
        )
        r1, r2 = _mk_row(1), _mk_row(2)
        w = E.BinlogWriter()
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body()),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm0)),
            # one UPDATE event, two rows: row 0 keeps its key (but
            # changes commit — a trash-interleaved compare would see the
            # commit cell), row 1 changes its path
            w.packet(
                EventType.UPDATE_ROWS_V2,
                E.encode_rows_body(
                    tm0,
                    [
                        {"before": r1, "after": {**r1, "commit": "d" * 40}},
                        {"before": r2, "after": {**r2, "path": "moved.py"}},
                    ],
                    "update",
                ),
            ),
        ]
        dec = BinlogDecoder(
            registry_snapshot=[tm0.to_dict(), tm1.to_dict()],
            output="flat",
            key_cols=("repo", "path"),
        )
        out = dec(_batch(evs))
        # 2 update rows + exactly ONE tombstone (row 1's key changed)
        assert out.column("op").to_pylist() == ["update", "update", "delete"]
        assert out.column("row_seq").to_pylist() == [0, 1, 1]
        # the tombstone carries the OLD key's surviving target column
        assert out.column("repo").to_pylist()[2] == r2["repo"]


class TestGeneratedStream:
    def test_decode_counts_match_oplog(self, tmp_path):
        spec = StreamSpec(n_keys=100, n_ops=400, n_shards=2)
        m = generate_stream(spec, str(tmp_path))
        import pyarrow.parquet as pq

        dec = BinlogDecoder(registry_snapshot=m["table_maps"])
        total = 0
        for s in m["shards"]:
            t = pq.read_table(s["path"])
            out = dec(t)
            total += out.num_rows
        assert total == spec.n_ops


class TestArrowViewSignedness:
    """Regression: pyarrow Buffer memoryviews are signed ('b'); every
    single-byte read in the decode hot path must see 0..255.  Caught by
    the typed issues table (datetime bytes >= 0x80); strings shorter than
    128 chars never trip it."""

    def test_high_bit_bytes_through_arrow_path(self):
        from mysql_binlog_ray.protocol.constants import COLLATION_UTF8MB4

        cols = (
            ColumnDef("k", ColumnType.LONG),
            ColumnDef("long_name", ColumnType.VARCHAR, max_length=255, charset=COLLATION_UTF8MB4),
            ColumnDef("dt", ColumnType.DATETIME2, fsp=0),
            ColumnDef("big", ColumnType.LONGLONG, signed=False),
        )
        tm = TableMapDef(table_id=31, schema_name="code", table_name="repos", columns=cols, primary_key=(0,))
        row = {
            "k": -1,
            "long_name": "x" * 200,  # 1-byte length prefix 200 (> 127)
            "dt": "2024-12-31 23:59:59",
            "big": (1 << 64) - 2,
        }
        w = E.BinlogWriter()
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body()),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm)),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row], "insert")),
        ]
        out = BinlogDecoder(registry_snapshot=[tm.to_dict()])(_batch(evs))
        got = out.column("after").to_pylist()[0]
        assert got["long_name"] == "x" * 200
        assert got["dt"] == "2024-12-31 23:59:59"
        assert got["big"] == (1 << 64) - 2
        assert got["k"] == -1


@pytest.mark.usefixtures("ray_session")
class TestMultiTableJsonDecode:
    def test_json_changefeed_covers_all_tables_and_matches_targeted(self, tmp_path):
        """One decode pass over a two-table stream must yield exactly the
        union of the two targeted decodes (row counts, seqs, and row
        images)."""
        import json

        import ray.data as rd

        from mysql_binlog_ray.fixtures.generator import StreamSpec, generate_stream
        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            decode_all_tables,
            decode_changefeed,
            read_event_stream,
        )

        spec = StreamSpec(n_keys=120, n_ops=600, n_shards=2, issues_every=3)
        manifest = generate_stream(spec, str(tmp_path / "stream"))
        events = read_event_stream(manifest)
        allcf = decode_all_tables(events, manifest["table_maps"]).to_pandas()
        assert set(allcf["table_name"]) == {"repos", "issues"}

        for table, key in [("repos", ("repo", "path")), ("issues", ("issue_id",))]:
            targeted = decode_changefeed(
                read_event_stream(manifest),
                manifest["table_maps"],
                CdcConfig(target_table=("code", table)),
            ).to_pandas()
            sub = allcf[allcf["table_name"] == table]
            assert len(sub) == len(targeted)
            assert set(zip(sub["event_seq"], sub["row_seq"])) == set(
                zip(targeted["event_seq"], targeted["row_seq"])
            )
            # commit stamps identical between the two paths
            a = sub.set_index(["event_seq", "row_seq"])["commit_seq"]
            b = targeted.set_index(["event_seq", "row_seq"])["commit_seq"]
            assert (a.sort_index() == b.sort_index()).all()

        # spot-check row images: JSON after == targeted struct after
        sub = allcf[(allcf["table_name"] == "repos") & (allcf["op"] == "insert")].head(20)
        targeted = decode_changefeed(
            read_event_stream(manifest),
            manifest["table_maps"],
            CdcConfig(target_table=("code", "repos")),
        ).to_pandas()
        tmap = targeted.set_index(["event_seq", "row_seq"])
        for _, r in sub.iterrows():
            got = json.loads(r["after"])
            exp = tmap.loc[(r["event_seq"], r["row_seq"])]["after"]
            for k in ("repo", "path", "commit", "content"):
                assert got[k] == exp[k]
            assert r["before"] is None

    def test_json_mode_respects_filters(self, tmp_path):
        from mysql_binlog_ray.fixtures.generator import StreamSpec, generate_stream
        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            decode_all_tables,
            read_event_stream,
        )

        spec = StreamSpec(n_keys=80, n_ops=400, n_shards=2, issues_every=3)
        manifest = generate_stream(spec, str(tmp_path / "stream"))
        cf = decode_all_tables(
            read_event_stream(manifest),
            manifest["table_maps"],
            CdcConfig(exclude_tables=["code.issues"]),
        ).to_pandas()
        assert set(cf["table_name"]) == {"repos"}


@pytest.mark.usefixtures("ray_session")
class TestTruncatedEvent:
    def test_truncated_tail_event_skipped_not_crash(self, small_stream):
        """A partially-written (crash-truncated) event fails CRC verify
        and is poison-skipped, like any corrupt event (E13) — the rest of
        the stream decodes."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from mysql_binlog_ray.stages.decode_stage import BinlogDecoder

        spec, out, manifest = small_stream
        t = pq.read_table(manifest["shards"][0]["path"])
        payloads = t.column("payload").to_pylist()
        # truncate the LAST rows event to half its bytes
        rows_idx = [i for i, p in enumerate(payloads) if p[5] in (0x1E, 0x1F, 0x20)]
        cut = rows_idx[-1]
        expected_lost = None
        dec0 = BinlogDecoder(registry_snapshot=manifest["table_maps"])
        full = dec0(t)
        payloads[cut] = payloads[cut][: len(payloads[cut]) // 2]
        t2 = pa.table(
            {
                "shard_id": t.column("shard_id"),
                "event_seq": t.column("event_seq"),
                "payload": pa.array(payloads, pa.binary()),
            }
        )
        dec = BinlogDecoder(registry_snapshot=manifest["table_maps"])
        got = dec(t2)
        assert dec.n_checksum_failures == 1
        assert got.num_rows < full.num_rows  # only the truncated event lost
        lost_seq = t.column("event_seq")[cut].as_py()
        remaining = set(got.column("event_seq").to_pylist())
        assert lost_seq not in remaining


@pytest.mark.usefixtures("ray_session")
class TestNoCrossBlockLeak:
    def test_inband_binding_does_not_leak_into_next_block(self):
        """Blocks are scheduled in arbitrary order across files: an
        in-band TABLE_MAP binding from one block must not survive into
        the next block (which may belong to a different file and start
        mid-transaction).  Block 2 has a rows event with NO table map —
        it must resolve against the broadcast snapshot, not block 1's
        leaked layout."""
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import COLLATION_UTF8MB4
        from mysql_binlog_ray.protocol.encode import BinlogWriter

        def tmdef(cols, ver):
            return TableMapDef(
                table_id=300, schema_name="code", table_name="repos",
                columns=tuple(cols), primary_key=(0,), schema_ver=ver,
            )

        base_cols = [
            ColumnDef("repo", ColumnType.VARCHAR, nullable=False, max_length=255, charset=COLLATION_UTF8MB4),
            ColumnDef("path", ColumnType.VARCHAR, nullable=False, max_length=255, charset=COLLATION_UTF8MB4),
        ]
        v2_cols = [ColumnDef("extra", ColumnType.LONG, nullable=True, signed=True), *base_cols]
        tm_a, tm_b = tmdef(base_cols, 1), tmdef(v2_cols, 2)

        def block(events, eseq0):
            seqs = list(range(eseq0, eseq0 + len(events)))
            return pa.table(
                {
                    "shard_id": pa.array([0] * len(events), pa.int32()),
                    "event_seq": pa.array(seqs, pa.int64()),
                    "payload": pa.array(events, pa.binary()),
                }
            )

        w = BinlogWriter(server_id=1)
        fd = w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body(), 1)
        # block 1 (file 2): binds layout B in-band and decodes with it
        blk1 = block(
            [
                fd,
                w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm_b), 2),
                w.packet(
                    EventType.WRITE_ROWS_V2,
                    E.encode_rows_body(tm_b, [{"repo": "r2", "path": "p2", "extra": 7}], "insert"),
                    2,
                ),
            ],
            1000,
        )
        # block 2 (file 1, mid-transaction): rows event only — layout A
        blk2 = block(
            [
                fd,
                w.packet(
                    EventType.WRITE_ROWS_V2,
                    E.encode_rows_body(tm_a, [{"repo": "r1", "path": "p1"}], "insert"),
                    3,
                ),
            ],
            1,
        )
        dec = BinlogDecoder(
            registry_snapshot=[tm_a.to_dict()], target_table=("code", "repos")
        )
        out1 = dec(blk1)
        assert out1.num_rows == 1  # layout B decoded via in-band map
        out2 = dec(blk2)
        got = out2.column("after").to_pylist()[0]
        # snapshot layout A applies — a leaked layout B would shift every
        # value (reading 'extra' bytes that aren't there)
        assert (got["repo"], got["path"]) == ("r1", "p1")


@pytest.mark.usefixtures("ray_session")
class TestReviewFindings:
    """Regression tests for the round-2 self-review findings."""

    def _two_block_stream(self, gtid_seq, xid_val):
        """One transaction split across two blocks: block 1 carries
        FD/GTID/TABLE_MAP + first rows, block 2 the rest + XID."""
        from mysql_binlog_ray.fixtures.generator import repos_table_map
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import EventType
        from mysql_binlog_ray.protocol.encode import BinlogWriter

        tm = repos_table_map(False)
        w = BinlogWriter(server_id=1)

        def row(i):
            return {
                "repo": f"org0/r{i}", "path": f"f{i}.py", "commit": "c" * 40,
                "lang": "py", "content": f"body {i}",
            }

        evs1 = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body(), 1),
            w.packet(EventType.MARIA_GTID, E.encode_gtid_body(gtid_seq), 1),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm), 1),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row(1)], "insert"), 1),
        ]
        evs2 = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body(), 1),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row(2)], "insert"), 1),
            w.packet(EventType.XID, E.encode_xid_body(xid_val)),
        ]

        def block(events, eseq0):
            return pa.table(
                {
                    "shard_id": pa.array([0] * len(events), pa.int32()),
                    "event_seq": pa.array(list(range(eseq0, eseq0 + len(events))), pa.int64()),
                    "payload": pa.array(events, pa.binary()),
                }
            )

        return tm, block(evs1, 1), block(evs2, 10)

    def test_one_transaction_one_commit_id_in_block(self):
        """A transaction fully inside one block must carry ONE commit id
        (the XID value), even when GTID seqno != XID."""
        from mysql_binlog_ray.fixtures.generator import repos_table_map
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import EventType
        from mysql_binlog_ray.protocol.encode import BinlogWriter

        tm = repos_table_map(False)
        w = BinlogWriter(server_id=1)
        row = {"repo": "a/b", "path": "p", "commit": "c" * 40, "lang": "py", "content": "x"}
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body(), 1),
            w.packet(EventType.MARIA_GTID, E.encode_gtid_body(100), 1),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm), 1),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row], "insert"), 1),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row], "insert"), 1),
            w.packet(EventType.XID, E.encode_xid_body(5555)),
        ]
        t = pa.table(
            {
                "shard_id": pa.array([0] * len(evs), pa.int32()),
                "event_seq": pa.array(list(range(1, len(evs) + 1)), pa.int64()),
                "payload": pa.array(evs, pa.binary()),
            }
        )
        dec = BinlogDecoder(registry_snapshot=[tm.to_dict()], target_table=("code", "repos"))
        out = dec(t)
        assert set(out.column("commit_seq").to_pylist()) == {5555}

    def test_commit_source_strict_modes(self):
        """Strict domains: 'xid' leaves GTID-only tails -1; 'gtid' uses
        seqnos and leaves XID-only heads -1 — never a mixed domain."""
        tm, b1, b2 = self._two_block_stream(gtid_seq=100, xid_val=5555)
        for source, exp1, exp2 in [
            ("xid", -1, 5555),
            ("gtid", 100, -1),
            ("hybrid", 100, 5555),  # documented cross-block mix when gtid != xid
        ]:
            dec = BinlogDecoder(
                registry_snapshot=[tm.to_dict()],
                target_table=("code", "repos"),
                commit_source=source,
            )
            c1 = dec(b1).column("commit_seq").to_pylist()
            c2 = dec(b2).column("commit_seq").to_pylist()
            assert c1 == [exp1] and c2 == [exp2], (source, c1, c2)

    def test_json_mode_filter_applies_without_inband_map(self):
        """Excluded tables must stay excluded even when their TABLE_MAP
        fell in a previous block (snapshot resolution path)."""
        from mysql_binlog_ray.fixtures.generator import repos_table_map
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import EventType
        from mysql_binlog_ray.protocol.encode import BinlogWriter

        tm = repos_table_map(False)
        w = BinlogWriter(server_id=1)
        row = {"repo": "a/b", "path": "p", "commit": "c" * 40, "lang": "py", "content": "x"}
        # block with rows but NO table map: decoder must fall back to the
        # snapshot AND apply the exclude filter from there
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body(), 1),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row], "insert"), 1),
            w.packet(EventType.XID, E.encode_xid_body(7)),
        ]
        t = pa.table(
            {
                "shard_id": pa.array([0] * len(evs), pa.int32()),
                "event_seq": pa.array([1, 2, 3], pa.int64()),
                "payload": pa.array(evs, pa.binary()),
            }
        )
        for kwargs in [
            dict(output="json", exclude_databases=["code"]),
            dict(output="json", exclude_tables=["code.repos"]),
        ]:
            dec = BinlogDecoder(registry_snapshot=[tm.to_dict()], **kwargs)
            assert dec(t).num_rows == 0, kwargs
        # targeted paths too
        dec = BinlogDecoder(
            registry_snapshot=[tm.to_dict()],
            target_table=("code", "repos"),
            exclude_tables=["code.repos"],
        )
        assert dec(t).num_rows == 0
        # sanity: without the filter the row decodes
        dec = BinlogDecoder(registry_snapshot=[tm.to_dict()], output="json")
        assert dec(t).num_rows == 1

    def test_repair_does_not_steal_next_files_xid(self, tmp_path):
        """A truncated-tail transaction (XID lost) must stay -1 under
        exact_commits, not get the next file's first XID."""
        import json

        import ray.data as rd

        from mysql_binlog_ray.fixtures.generator import StreamSpec, generate_stream
        from mysql_binlog_ray.pipelines.cdc import CdcConfig, decode_changefeed
        import pyarrow.parquet as pq

        spec = StreamSpec(n_keys=60, n_ops=300, n_shards=2, include_noise_events=False)
        manifest = generate_stream(spec, str(tmp_path / "stream"))
        # drop shard 0's trailing XID (simulated crash mid-write)
        p0 = manifest["shards"][0]["path"]
        t = pq.read_table(p0)
        payloads = t.column("payload").to_pylist()
        xid_idx = [i for i, p in enumerate(payloads) if p[5] == 0x10]
        cut = xid_idx[-1]
        t2 = t.take(list(range(cut)) + list(range(cut + 1, t.num_rows)))
        p0b = str(tmp_path / "shard0-truncated.parquet")
        pq.write_table(t2, p0b)
        manifest = json.loads(json.dumps(manifest))
        manifest["shards"][0]["path"] = p0b

        paths = [s["path"] for s in manifest["shards"]]
        events = rd.read_parquet(paths, override_num_blocks=16)
        cf = decode_changefeed(
            events, manifest["table_maps"], CdcConfig(), exact_commits=True
        ).to_pandas()
        # the orphaned transaction's rows stay -1 (honest unknown)...
        orphans = cf[cf["commit_seq"] == -1]
        assert len(orphans) > 0
        # ...and every orphan belongs to shard 0's seq window, i.e. no
        # shard-0 row was stamped with a shard-1 XID
        s1_first = manifest["shards"][1]["first_event_seq"]
        assert (orphans["event_seq"] < s1_first).all()
        stamped = cf[cf["commit_seq"] != -1]
        s0_rows = stamped[stamped["event_seq"] < s1_first]
        s1_xids = set()
        for p in pq.read_table(manifest["shards"][1]["path"]).column("payload").to_pylist():
            if p[5] == 0x10:
                import struct as _struct
                s1_xids.add(_struct.unpack_from("<Q", p, 20)[0])
        assert not (set(s0_rows["commit_seq"]) & s1_xids)


@pytest.mark.usefixtures("ray_session")
class TestXidFence:
    def test_gtid_group_without_xid_stays_unknown(self):
        """A GTID-delimited group whose XID is absent (non-transactional
        statement / truncated commit) must keep commit_seq = -1 in 'xid'
        mode — never the NEXT transaction's XID."""
        from mysql_binlog_ray.fixtures.generator import repos_table_map
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import EventType
        from mysql_binlog_ray.protocol.encode import BinlogWriter

        tm = repos_table_map(False)
        w = BinlogWriter(server_id=1)

        def row(i):
            return {"repo": f"a/r{i}", "path": f"p{i}", "commit": "c" * 40, "lang": "py", "content": "x"}

        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body(), 1),
            w.packet(EventType.MARIA_GTID, E.encode_gtid_body(100), 1),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm), 1),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row(1)], "insert"), 1),
            # no XID for the first group
            w.packet(EventType.MARIA_GTID, E.encode_gtid_body(101), 1),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm), 1),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row(2)], "insert"), 1),
            w.packet(EventType.XID, E.encode_xid_body(5555)),
        ]
        t = pa.table(
            {
                "shard_id": pa.array([0] * len(evs), pa.int32()),
                "event_seq": pa.array(list(range(1, len(evs) + 1)), pa.int64()),
                "payload": pa.array(evs, pa.binary()),
            }
        )
        dec = BinlogDecoder(
            registry_snapshot=[tm.to_dict()],
            target_table=("code", "repos"),
            commit_source="xid",
        )
        out = dec(t)
        assert out.column("commit_seq").to_pylist() == [-1, 5555]

    def test_rotate_closes_open_transaction(self):
        """Rows before an in-block ROTATE must not be stamped by the next
        file's first XID."""
        from mysql_binlog_ray.fixtures.generator import repos_table_map
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import EventType
        from mysql_binlog_ray.protocol.encode import BinlogWriter

        tm = repos_table_map(False)
        w = BinlogWriter(server_id=1)
        row = {"repo": "a/b", "path": "p", "commit": "c" * 40, "lang": "py", "content": "x"}
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body(), 1),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm), 1),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row], "insert"), 1),
            # file ends mid-transaction (XID lost); next file begins
            w.rotate("binlog.000002", timestamp=2),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm), 2),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row], "insert"), 2),
            w.packet(EventType.XID, E.encode_xid_body(777)),
        ]
        t = pa.table(
            {
                "shard_id": pa.array([0] * len(evs), pa.int32()),
                "event_seq": pa.array(list(range(1, len(evs) + 1)), pa.int64()),
                "payload": pa.array(evs, pa.binary()),
            }
        )
        dec = BinlogDecoder(registry_snapshot=[tm.to_dict()], target_table=("code", "repos"))
        out = dec(t)
        assert out.column("commit_seq").to_pylist() == [-1, 777]



class TestRowsColumnCountMismatch:
    """A ROWS event whose column count disagrees with the resolved table
    map must fail closed in every decode mode and in ``parse_rows_event``
    — never decode cells from past the row image or drop a column."""

    def _null_count_case(self):
        body = bytearray(E.encode_rows_body(TM, [_mk_row(1)], "insert"))
        body[6 + 2 + 2] = 0xFB  # table id + flags + extra-len, then the count
        w = E.BinlogWriter()
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body()),
            w.packet(EventType.WRITE_ROWS_V2, bytes(body)),
        ]
        return TM, evs, r"code\.repos carries a NULL column count but its table map has 5"

    def _width_case(self):
        # a 5-column WRITE_ROWS resolved from the snapshot against a
        # 6-column map registered under the same table id
        import dataclasses

        wide = dataclasses.replace(repos_table_map(True), table_id=TM.table_id)
        w = E.BinlogWriter()
        evs = [w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body())]
        evs += _rows_events(TM, [("insert", [_mk_row(1)])], w)
        return wide, evs, r"code\.repos carries 5 columns but its table map has 6"

    @pytest.mark.parametrize("case", ["_null_count_case", "_width_case"])
    @pytest.mark.parametrize("output", ["changefeed", "flat", "json"])
    def test_decoder_modes_raise(self, case, output):
        tm, evs, msg = getattr(self, case)()
        kw = {} if output == "json" else {"target_table": ("code", "repos")}
        dec = BinlogDecoder(registry_snapshot=[tm.to_dict()], output=output, **kw)
        with pytest.raises(ValueError, match=msg):
            dec(_batch(evs))

    @pytest.mark.parametrize("case", ["_null_count_case", "_width_case"])
    def test_parse_rows_event_raises(self, case):
        from mysql_binlog_ray.protocol import decode as D

        tm, evs, msg = getattr(self, case)()
        wr = evs[-1]
        with pytest.raises(ValueError, match=msg):
            D.parse_rows_event(wr, D.parse_header(wr, 4), {tm.table_id: D.DecodePlan.compile(tm)})


class TestRowsOverrun:
    """A CRC-valid ROWS event whose last row image overruns the event
    (its body cut by one byte before the checksum was computed) must
    fail closed in every decode mode, as ``flat_combined`` does, never
    return a cell read partly from the checksum."""

    KV = TableMapDef(
        table_id=61,
        schema_name="code",
        table_name="kv",
        columns=(
            ColumnDef("k", ColumnType.LONG, nullable=False, signed=True),
            ColumnDef("v", ColumnType.LONG, nullable=False, signed=True),
        ),
        primary_key=(0,),
    )

    def _events(self, op):
        w = E.BinlogWriter()
        etype = {"insert": EventType.WRITE_ROWS_V2, "update": EventType.UPDATE_ROWS_V2}[op]
        rows = [{"k": 1, "v": 7}, {"k": 2, "v": 8}]
        if op == "update":
            rows = [{"before": {"k": r["k"], "v": 0}, "after": r} for r in rows]
        body = E.encode_rows_body(self.KV, rows, op)
        return [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body()),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(self.KV)),
            w.packet(etype, body[:-1]),
            w.packet(EventType.XID, E.encode_xid_body(5)),
        ]

    @pytest.mark.parametrize("op", ["insert", "update"])
    @pytest.mark.parametrize("output", ["changefeed", "flat", "json", "flat_combined"])
    def test_decoder_modes_raise(self, output, op):
        kw = {} if output == "json" else {"target_table": ("code", "kv")}
        dec = BinlogDecoder(registry_snapshot=[self.KV.to_dict()], output=output.split("_")[0], **kw)
        decode = (lambda b: dec.flat_combined(b, ("k",))) if output == "flat_combined" else dec
        with pytest.raises(ValueError, match=r"ROWS event 3 for table code\.kv: its row images"):
            decode(_batch(self._events(op)))
        assert dec.n_checksum_failures == 0


class TestCrossModeParity:
    """The three output modes walk one event loop, so one block must give
    the same counters and the same target-table rows in each."""

    SECRET = TableMapDef(
        table_id=77,
        schema_name="code",
        table_name="secret",
        columns=(ColumnDef("x", ColumnType.LONG, signed=True),),
    )
    OTHER = TableMapDef(
        table_id=55,
        schema_name="otherdb",
        table_name="t",
        columns=(ColumnDef("x", ColumnType.LONG, signed=True),),
    )

    def _block(self):
        """One block (event_seq 101..) whose repos TABLE_MAP fell in an
        earlier block, so repos rows resolve from the snapshot."""
        w = E.BinlogWriter()
        moved = {"before": _mk_row(3), "after": dict(_mk_row(3), path="moved.py")}
        kept = {"before": _mk_row(4), "after": dict(_mk_row(4), lang="rs")}
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body()),
            w.packet(EventType.MARIA_GTID, E.encode_gtid_body(40)),
            *_rows_events(TM, [("insert", [_mk_row(1), _mk_row(2)])], w),
            w.packet(EventType.XID, E.encode_xid_body(40)),
            w.packet(EventType.MARIA_GTID, E.encode_gtid_body(41)),  # 105: the cut
            *_rows_events(TM, [("insert", [_mk_row(5)])], w),
            *_rows_events(TM, [("insert", [_mk_row(6)])], w),  # corrupted below
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(self.SECRET)),
            *_rows_events(self.SECRET, [("insert", [{"x": 1}])], w),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(self.OTHER)),
            *_rows_events(self.OTHER, [("insert", [{"x": 2}, {"x": 3}])], w),
            *_rows_events(TM, [("update", [moved, kept]), ("delete", [_mk_row(1)])], w),
            w.packet(EventType.XID, E.encode_xid_body(41)),
            *_rows_events(TM, [("insert", [_mk_row(7)])], w),  # txn open at block end
        ]
        bad = bytearray(evs[6])
        bad[40] ^= 0xFF
        evs[6] = bytes(bad)
        return _batch(evs, seq0=101)

    def test_counters_and_rows_equal_across_modes(self):
        block = self._block()
        out, decs = {}, {}
        for output in ("changefeed", "flat", "json"):
            kw = {} if output == "json" else {"target_table": ("code", "repos")}
            dec = decs[output] = BinlogDecoder(
                registry_snapshot=[TM.to_dict(), self.SECRET.to_dict(), self.OTHER.to_dict()],
                exclude_tables=["code.secret"],
                start_after_seq=105,
                output=output,
                **kw,
            )
            out[output] = dec(block)

        counters = {
            o: (d.n_events, d.n_rows, d.n_checksum_failures) for o, d in decs.items()
        }
        # json has no target table: it also decodes otherdb.t's two rows
        n_events, n_rows, n_bad = counters["changefeed"]
        assert (n_events, n_rows, n_bad) == (10, 5, 1)
        assert counters["flat"] == counters["changefeed"]
        assert counters["json"] == (n_events, n_rows + 2, n_bad)

        def stamped(t, keep):
            cols = t.select(["event_seq", "row_seq", "commit_seq"]).to_pylist()
            return sorted(
                (r["event_seq"], r["row_seq"], r["commit_seq"])
                for r, k in zip(cols, keep)
                if k
            )

        cf = out["changefeed"]
        js = out["json"]
        flat = out["flat"]
        ops = flat.column("op").to_pylist()
        seqs = flat.column("event_seq").to_pylist()
        update_seqs = {s for s, op in zip(seqs, ops) if op == "update"}
        not_tomb = [not (op == "delete" and s in update_seqs) for s, op in zip(seqs, ops)]
        assert not_tomb.count(False) == 1  # the key-changing update's tombstone
        want = stamped(cf, [True] * cf.num_rows)
        # the cut skips txn 41's GTID; its XID still stamps every row before it
        assert want == [(106, 0, 41), (112, 0, 41), (112, 1, 41), (113, 0, 41), (115, 0, -1)]
        assert stamped(flat, not_tomb) == want
        is_repos = [t == "repos" for t in js.column("table_name").to_pylist()]
        assert stamped(js, is_repos) == want


class TestOneDecodeWalk:
    """Structural guard: the three decode modes share one event walk
    (``BinlogDecoder._row_events``) and the package has one ROWS-event
    prologue (``protocol.decode.rows_body_offset``), so skip, filter,
    checksum and column-count semantics cannot diverge between modes."""

    PKG = os.path.join(os.path.dirname(__file__), os.pardir, "mysql_binlog_ray")

    @staticmethod
    def _calls(path, name):
        """``{function: [call nodes]}`` for calls to ``name`` in ``path``,
        keyed by the innermost enclosing function."""
        import ast

        found: dict[str, list] = {}

        class V(ast.NodeVisitor):
            fn = None

            def visit_FunctionDef(self, node):
                outer, self.fn = self.fn, node.name
                self.generic_visit(node)
                self.fn = outer

            def visit_Call(self, node):
                if name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found.setdefault(self.fn, []).append(node)
                self.generic_visit(node)

        V().visit(ast.parse(open(path).read()))
        return found

    def _stage(self):
        return os.path.join(self.PKG, "stages", "decode_stage.py")

    def test_one_loop_over_the_batch(self):
        import ast

        loops = []
        for fn in ast.walk(ast.parse(open(self._stage()).read())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.For)
                    and isinstance(node.iter, ast.Call)
                    and getattr(node.iter.func, "id", None) == "zip"
                    and [getattr(a, "id", None) for a in node.iter.args]
                    == ["shard_ids", "event_seqs", "payloads"]
                ):
                    loops.append(fn.name)
        assert loops == ["_row_events"]

    def test_walk_resolves_filters_and_parses_rows_headers(self):
        for name in ("_resolve", "_row_filtered"):
            assert list(self._calls(self._stage(), name)) == ["_row_events"], name
        # _handle_marker parses the headers of FORMAT_DESCRIPTION and
        # TABLE_MAP; every ROWS event header is parsed by the walk
        calls = self._calls(self._stage(), "parse_header")
        assert sorted(calls) == ["_handle_marker", "_row_events"]
        assert len(calls["_row_events"]) == 1

    def test_checksum_only_in_walk_and_table_map_branch(self):
        import ast

        calls = self._calls(self._stage(), "verify_checksum")
        assert sorted(calls) == ["_handle_marker", "_row_events"]
        assert len(calls["_row_events"]) == 1
        tree = ast.parse(open(self._stage()).read())
        branch = next(
            n
            for n in ast.walk(tree)
            if isinstance(n, ast.If)
            and isinstance(n.test, ast.Compare)
            and getattr(n.test.comparators[0], "attr", None) == "TABLE_MAP"
        )
        inside = {
            (getattr(n, "lineno", None), getattr(n, "col_offset", None))
            for stmt in branch.body
            for n in ast.walk(stmt)
        }
        assert all((c.lineno, c.col_offset) in inside for c in calls["_handle_marker"])

    def test_one_rows_prologue_in_package(self):
        import glob as _glob

        def callers(name):
            out = set()
            for path in _glob.glob(os.path.join(self.PKG, "**", "*.py"), recursive=True):
                rel = os.path.relpath(path, self.PKG)
                out |= {(rel, fn) for fn in self._calls(path, name)}
            return out

        decode = os.path.join("protocol", "decode.py")
        wire = os.path.join("sources", "wire.py")
        assert callers("check_full_row_image") == {(decode, "rows_body_offset")}
        # the other length-encoded-int readers parse TABLE_MAP bodies and
        # wire-protocol packets, never a ROWS body
        assert callers("read_coded_binary") == {
            (decode, "rows_body_offset"),
            (decode, "parse_table_map"),
            (wire, "read_lenc_str"),
            (wire, "execute"),
        }
        assert callers("rows_body_offset") == {
            (decode, "parse_rows_event"),
            (os.path.join("stages", "decode_stage.py"), "_decode_rows_into"),
            (os.path.join("stages", "decode_stage.py"), "_decode_rows_flat"),
            (os.path.join("stages", "decode_stage.py"), "flat_combined"),
        }

    def test_json_rows_decode_through_parse_rows_event(self):
        import ast

        names = {
            n.name
            for n in ast.walk(ast.parse(open(self._stage()).read()))
            if isinstance(n, ast.FunctionDef)
        }
        assert "_decode_rows_dicts" not in names
        assert list(self._calls(self._stage(), "parse_rows_event")) == ["_call_json"]

    def test_typed_modes_decode_through_one_kernel(self):
        """The changefeed and flat modes decode rows only through the
        layout's code-generated kernel (``st.codegen[op]``), and
        ``flat_combined`` calls none: its located decode reads the cells
        no numpy or Arrow gather covers through ``readers[i](...)`` at
        one call site, ``_decode_cells``; no per-cell closure walk is
        left in the stage."""
        import ast

        kernel_calls, reader_calls = [], []

        class V(ast.NodeVisitor):
            fn = None

            def visit_FunctionDef(self, node):
                outer, self.fn = self.fn, node.name
                self.generic_visit(node)
                self.fn = outer

            def visit_Call(self, node):
                f = node.func
                if isinstance(f, ast.Subscript):
                    base = f.value
                    name = getattr(base, "attr", None) or getattr(base, "id", None)
                    if name == "codegen":
                        kernel_calls.append(self.fn)
                    elif name == "readers":
                        reader_calls.append(self.fn)
                self.generic_visit(node)

        V().visit(ast.parse(open(self._stage()).read()))
        assert reader_calls == ["_decode_cells"]
        assert sorted(kernel_calls) == ["_decode_rows_flat", "_decode_rows_into"]


class TestTableStateCache:
    """Each table layout's plan and code-generated row decoders are
    compiled once per process (``decode_stage._table_state``) and shared
    by every decoder built for the same target and merge keys."""

    @staticmethod
    def _flat(maps, **kw):
        return BinlogDecoder(registry_snapshot=maps, output="flat", **kw)

    def test_decoders_share_states(self, tmp_path):
        m = generate_stream(StreamSpec(n_keys=100, n_ops=400, n_shards=2), str(tmp_path))
        a, b = self._flat(m["table_maps"]), self._flat(m["table_maps"])
        assert len(a.states) == 2 and a.states.keys() == b.states.keys()
        assert all(a.states[t] is b.states[t] for t in a.states)
        # the post-DDL layout is a state of its own
        v1, v2 = (a.states[t] for t in sorted(a.states))
        assert v1 is not v2 and v1.codegen is not v2.codegen
        assert "stars" not in v1.plan.names and "stars" in v2.plan.names
        # another merge key is another state
        c = self._flat(m["table_maps"], key_cols=("repo",))
        assert all(c.states[t] is not a.states[t] for t in a.states)

    def test_flat_output_equals_uncached_decoder(self, tmp_path):
        import pyarrow.parquet as pq

        from mysql_binlog_ray.stages import decode_stage

        m = generate_stream(StreamSpec(n_keys=100, n_ops=400, n_shards=2), str(tmp_path))
        shards = [pq.read_table(s["path"]) for s in m["shards"]]
        shared = self._flat(m["table_maps"])
        got = [shared(t) for t in shards]
        decode_stage._table_state.cache_clear()
        fresh = self._flat(m["table_maps"])
        assert all(fresh.states[t] is not shared.states[t] for t in shared.states)
        want = [fresh(t) for t in shards]
        assert sum(t.num_rows for t in got) == 400
        assert all(g.equals(w, check_metadata=True) for g, w in zip(got, want))

    def test_table_state_built_in_one_place(self):
        import ast

        src = open(os.path.join(TestOneDecodeWalk.PKG, "stages", "decode_stage.py")).read()
        tree = ast.parse(src)
        callers = [
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_TableState"
        ]
        assert callers == ["_table_state"]
        assert "_state_cache" not in src


# -- generated layouts for the located decode: one column per
# ``protocol.decode.cell_layout`` family --------------------------------

_INT_BITS = {
    ColumnType.TINY: 8,
    ColumnType.SHORT: 16,
    ColumnType.INT24: 24,
    ColumnType.LONG: 32,
    ColumnType.LONGLONG: 64,
}


def _layout_columns():
    """Every other column is declared NOT NULL, yet the generated rows
    hold NULLs in every column: the decode must follow the bitmap."""
    import dataclasses

    from mysql_binlog_ray.protocol.constants import COLLATION_BINARY, COLLATION_LATIN1

    ints = [
        ColumnDef(f"{'i' if signed else 'u'}{bits}", t, signed=signed)
        for t, bits in _INT_BITS.items()
        for signed in (True, False)
    ]
    blobs = [ColumnDef(f"b{lb}", ColumnType.BLOB, length_bytes=lb) for lb in (1, 2, 3, 4)]
    cols = tuple(
        [
            ColumnDef("k", ColumnType.VARCHAR, max_length=60),  # 1-byte length
            ColumnDef("k2", ColumnType.LONG, signed=False),
            *ints,
            ColumnDef("f32", ColumnType.FLOAT, size=4),
            ColumnDef("f64", ColumnType.DOUBLE, size=8),
            ColumnDef("dec", ColumnType.NEWDECIMAL, precision=12, scale=3),
            ColumnDef("dt", ColumnType.DATETIME2, fsp=3),
            ColumnDef("ts", ColumnType.TIMESTAMP2, fsp=6),
            ColumnDef("tm", ColumnType.TIME2, fsp=2),
            ColumnDef("date", ColumnType.DATE),
            ColumnDef("bit", ColumnType.BIT, bits=10),
            ColumnDef("en", ColumnType.ENUM, size=1, values=("a", "b", "c")),
            ColumnDef("st", ColumnType.SET, size=1, values=("x", "y", "z")),
            ColumnDef("yr", ColumnType.YEAR),
            ColumnDef("vc2", ColumnType.VARCHAR, max_length=600),  # 2-byte length
            *blobs,
            ColumnDef("js", ColumnType.JSON, length_bytes=4),
            ColumnDef("geo", ColumnType.GEOMETRY, length_bytes=4),
            ColumnDef("lat", ColumnType.VARCHAR, max_length=40, charset=COLLATION_LATIN1),
            ColumnDef("bin", ColumnType.BLOB, length_bytes=2, charset=COLLATION_BINARY),
        ]
    )
    return tuple(dataclasses.replace(c, nullable=i % 2 == 0) for i, c in enumerate(cols))


def _layout_value(col, rng):
    import struct

    t = col.type
    if t in _INT_BITS:
        bits = _INT_BITS[t]
        lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if col.signed else (0, (1 << bits) - 1)
        return rng.choice([lo, hi, 0, rng.randint(lo, hi), hi // 2 + 1])
    if t in (ColumnType.FLOAT, ColumnType.DOUBLE):
        return rng.choice([0.0, -0.0, 1.25, -3.5e7, rng.uniform(-1e3, 1e3)])
    if t is ColumnType.NEWDECIMAL:
        return f"{rng.choice(['-', ''])}{rng.randint(0, 10**9 - 1)}.{rng.randint(0, 999):03d}"
    if t is ColumnType.DATETIME2:
        return f"20{rng.randint(10, 30)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d} 0{rng.randint(0, 9)}:1{rng.randint(0, 9)}:2{rng.randint(0, 9)}.{rng.randint(0, 999)}"
    if t is ColumnType.TIMESTAMP2:
        return f"{rng.choice([0, 1, 2**31 + 5, rng.randint(0, 2**32 - 1)])}.{rng.randint(0, 999999)}"
    if t is ColumnType.TIME2:
        return f"{rng.choice(['', '-'])}{rng.randint(0, 838):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}.{rng.randint(0, 99)}"
    if t is ColumnType.DATE:
        return rng.choice(["0000-00-00", f"{rng.randint(1000, 9999)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"])
    if t is ColumnType.BIT:
        return format(rng.getrandbits(col.bits), "b")
    if t is ColumnType.ENUM:
        return rng.choice(col.values)
    if t is ColumnType.SET:
        return ",".join(v for v in col.values if rng.random() < 0.5)
    if t is ColumnType.YEAR:
        return rng.choice([0, 1901, 2024, 2155])
    if t is ColumnType.JSON:
        return {"a": rng.randint(0, 9), "s": rng.choice(["x", "é"]), "l": [1, None, True]}
    if t is ColumnType.GEOMETRY:
        return struct.pack("<IBIdd", 4326, 1, 1, rng.uniform(-90, 90), rng.uniform(-90, 90))
    if col.charset == 63:  # binary
        return rng.randbytes(rng.randint(0, 40))
    if col.charset == 8:  # latin1
        return "".join(rng.choice("abcé€ü ") for _ in range(rng.randint(0, 12)))
    # utf-8 text: short, long and multi-byte; BLOB lengths span the prefix
    n = {1: 200, 2: 3000, 3: 70_000, 4: 300}.get(col.length_bytes, 0) if t is ColumnType.BLOB else 0
    n = n or (300 if col.max_length > 255 else 20)
    if rng.random() < 0.1:  # a cell past the 1- or 2-byte length limit
        return "é" * (n // 2)
    return "".join(rng.choice("ab漢é ") for _ in range(rng.randint(0, min(n, 60))))


def _layout_rows_events(tm, key_cols, seed, n_events=40):
    """``[(op, rows), ...]`` over ``tm``: every column NULL now and then
    (key columns included), keys drawn from small pools so inserts,
    updates (some key-changing) and deletes collide."""
    import random

    rng = random.Random(seed)
    pools = {k: [_layout_value(c, rng) for _ in range(4)] + [None] for c in tm.columns for k in [c.name] if k in key_cols}

    def image():
        row = {c.name: None if rng.random() < 0.15 else _layout_value(c, rng) for c in tm.columns}
        row.update({k: rng.choice(p) for k, p in pools.items()})
        return row

    events = []
    for _ in range(n_events):
        op = rng.choice(["insert", "insert", "update", "update", "delete"])
        n = rng.choice([1, 1, 2, 5, 9])
        if op != "update":
            events.append((op, [image() for _ in range(n)]))
            continue
        pairs = []
        for _ in range(n):
            before, after = image(), image()
            if rng.random() < 0.7:  # keep the key
                after.update({k: before[k] for k in pools})
            pairs.append({"before": before, "after": after})
        events.append(("update", pairs))
    return events


def _payload_variants(block):
    """``block`` as decoders may receive it: whole, sliced (the stream's
    FORMAT_DESCRIPTION and TABLE_MAP cut off), its payload in two
    chunks over one buffer, in chunks over two buffers, and as
    ``large_binary``."""
    payload = block.column("payload").combine_chunks()
    k = block.num_rows // 2

    def with_payload(col):
        return block.set_column(2, "payload", col)

    return {
        "whole": block,
        "sliced": block.slice(2),
        "one_buffer_chunks": with_payload(pa.chunked_array([payload.slice(0, k), payload.slice(k)])),
        "two_buffer_chunks": with_payload(
            pa.chunked_array([pa.array(payload.slice(0, k).to_pylist(), pa.binary()), pa.array(payload.slice(k).to_pylist(), pa.binary())])
        ),
        "large_binary": with_payload(payload.cast(pa.large_binary())),
    }


LAYOUT_KEYS = [
    ("k", "k2"),
    ("i8",),
    ("u8", "i16"),
    ("u16", "i24", "u24"),
    ("i32",),
    ("u32", "i64"),
    ("u64",),
    ("f32",),
    ("f64",),
    ("dec", "dt"),
    ("ts", "tm", "date"),
    ("bit", "en", "st", "yr"),
    ("vc2",),
    ("b1", "b2"),
    ("b3", "b4"),
    ("js", "geo"),
    ("lat", "bin"),
]


class TestFusedCombine:
    """``BinlogDecoder.flat_combined`` (the lake's spill tasks decode
    through it) is Arrow-equal to ``lww_partial`` over the flat decode:
    same schema, rows and row order, and the same decoder counters."""

    @staticmethod
    def _assert_fused(blocks, key_cols, dec_keys=None, **kw):
        from mysql_binlog_ray.stages.merge import lww_partial

        kw = dict(output="flat", key_cols=dec_keys or key_cols, **kw)
        flat, fused = BinlogDecoder(**kw), BinlogDecoder(**kw)
        outs = []
        for blk in blocks:
            want = lww_partial(flat(blk), key_cols)
            outs.append(fused.flat_combined(blk, key_cols))
            assert outs[-1].schema.equals(want.schema, check_metadata=True)
            assert outs[-1].equals(want), (outs[-1].to_pylist()[:3], want.to_pylist()[:3])
        counters = ("n_events", "n_rows", "n_checksum_failures")
        assert [getattr(fused, c) for c in counters] == [getattr(flat, c) for c in counters]
        return pa.concat_tables(outs), fused

    @staticmethod
    def _blocks(m, size):
        import pyarrow.parquet as pq

        tabs = [pq.read_table(s["path"], columns=["shard_id", "event_seq", "payload"]) for s in m["shards"]]
        return [t.slice(i, size) for t in tabs for i in range(0, t.num_rows, size)]

    # these streams hold at most a few hundred events per shard, so a
    # 700-event block is a whole shard
    SIZES = (64, 700)

    @pytest.mark.parametrize("size", SIZES)
    def test_small_stream(self, small_stream, size):
        _spec, _out, m = small_stream
        blocks = self._blocks(m, size)
        got, dec = self._assert_fused(blocks, ("repo", "path"), registry_snapshot=m["table_maps"])
        assert 0 < got.num_rows < dec.n_rows
        # a resume position inside the first block
        mid = blocks[0].column("event_seq")[blocks[0].num_rows // 2].as_py()
        self._assert_fused(
            blocks, ("repo", "path"), registry_snapshot=m["table_maps"], start_after_seq=mid
        )

    def test_mid_stream_ddl(self, tmp_path):
        """Blocks that hold two layouts; the older one null-fills the
        column the ALTER added."""
        m = generate_stream(StreamSpec(n_keys=80, n_ops=400, n_shards=2, ddl_at=0.5), str(tmp_path))
        for size in self.SIZES:
            _got, dec = self._assert_fused(
                self._blocks(m, size), ("repo", "path"), registry_snapshot=m["table_maps"]
            )
            assert len(dec.states) == 2

    def test_typed_issues_table(self, tmp_path):
        """``code.issues``: unsigned PK, ENUM, DATETIME2 and NEWDECIMAL
        columns, read through the layout's ``readers``."""
        spec = StreamSpec(n_keys=400, n_ops=3000, n_shards=3, issues_every=3)
        m = generate_stream(spec, str(tmp_path))
        for size in self.SIZES:
            blocks = self._blocks(m, size)
            for table, keys in ((("code", "repos"), ("repo", "path")), (("code", "issues"), ("issue_id",))):
                got, _ = self._assert_fused(
                    blocks, keys, registry_snapshot=m["table_maps"], target_table=table
                )
                assert got.num_rows > 0

    def test_key_changing_updates_and_refill(self):
        """Row 0 moves key A to B and row 1 of the same event moves C to
        the vacated A: A's after-image outranks row 0's tombstone."""
        a, b, c = _mk_row(1), _mk_row(2), _mk_row(3)
        moved = {**a, "path": "moved.py", "commit": "d" * 40}
        refill = {**c, "repo": a["repo"], "path": a["path"], "content": "refilled"}
        evs = _simple_stream(
            TM,
            [
                ("insert", [a, c]),
                ("update", [{"before": a, "after": moved}, {"before": c, "after": refill}]),
                ("update", [{"before": b, "after": {**b, "lang": "go"}}]),
                ("delete", [moved]),
            ],
        )
        got, _ = self._assert_fused([_batch(evs)], ("repo", "path"), registry_snapshot=[TM.to_dict()])
        by_key = {(r["repo"], r["path"]): r for r in got.to_pylist()}
        assert got.num_rows == 4
        assert by_key[(a["repo"], a["path"])]["content"] == "refilled"
        assert by_key[(c["repo"], c["path"])]["op"] == "delete"  # C's tombstone
        assert by_key[(moved["repo"], moved["path"])]["op"] == "delete"
        assert by_key[(b["repo"], b["path"])]["lang"] == "go"

    def test_merge_key_dropped_by_ddl(self):
        """A merge-key column the latest layout dropped still drives the
        tombstone compare (``key_trash_srcs``); the combine keys on the
        surviving target key."""
        tm0 = repos_table_map(False)
        tm1 = TableMapDef(
            table_id=tm0.table_id + 1,
            schema_name="code",
            table_name="repos",
            columns=tuple(c for c in tm0.columns if c.name not in ("path", "commit")),
            primary_key=(0,),
            schema_ver=tm0.schema_ver + 1,
        )
        r1, r2 = _mk_row(1), _mk_row(2)
        evs = _simple_stream(
            tm0,
            [
                ("insert", [r1, r2]),
                ("update", [{"before": r1, "after": {**r1, "commit": "d" * 40}},
                            {"before": r2, "after": {**r2, "path": "moved.py"}}]),
            ],
        )
        got, dec = self._assert_fused(
            [_batch(evs)],
            ("repo",),
            dec_keys=("repo", "path"),
            registry_snapshot=[tm0.to_dict(), tm1.to_dict()],
        )
        assert got.num_rows == 2 and next(iter(dec.states.values())).key_trash_srcs

    def test_u64_at_and_above_2_63(self):
        cols = (
            ColumnDef("k", ColumnType.LONGLONG, signed=False),
            ColumnDef("v", ColumnType.LONGLONG, signed=False),
            ColumnDef("s", ColumnType.LONG),
        )
        tm = TableMapDef(table_id=41, schema_name="code", table_name="u", columns=cols, primary_key=(0,))
        hi, top = 1 << 63, (1 << 64) - 1
        evs = _simple_stream(
            tm,
            [
                ("insert", [{"k": hi + 5, "v": top, "s": 1}, {"k": 3, "v": hi, "s": 2}]),
                ("update", [{"before": {"k": 3, "v": hi, "s": 2}, "after": {"k": hi, "v": 1, "s": 3}}]),
                ("insert", [{"k": top, "v": hi + 1, "s": 4}]),
                ("delete", [{"k": hi + 5, "v": top, "s": 1}]),
            ],
        )
        got, _ = self._assert_fused([_batch(evs)], ("k",), registry_snapshot=[tm.to_dict()])
        assert {r["k"]: (r["op"], r["v"]) for r in got.to_pylist()} == {
            hi + 5: ("delete", None),
            3: ("delete", None),
            hi: ("update", 1),
            top: ("insert", hi + 1),
        }
        assert got.num_rows == 4

    def test_corrupt_event_skipped_and_counted(self, small_stream):
        _spec, _out, m = small_stream
        blk = self._blocks(m, 64)[0]
        payloads = blk.column("payload").to_pylist()
        i = next(j for j, p in enumerate(payloads) if p[5] == EventType.WRITE_ROWS_V2)
        bad = bytearray(payloads[i])
        bad[len(bad) // 2] ^= 0xFF
        payloads[i] = bytes(bad)
        blk = blk.set_column(2, "payload", pa.array(payloads, pa.binary()))
        _got, dec = self._assert_fused([blk], ("repo", "path"), registry_snapshot=m["table_maps"])
        assert dec.n_checksum_failures == 1

    def test_spill_builds_values_for_the_newest_image_only(self, tmp_path, monkeypatch):
        """One key inserted, then updated ``n`` times: the spill task
        builds the non-key value cells of exactly one row."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines import cdc
        from mysql_binlog_ray.stages import decode_stage

        n = 40
        r = _mk_row(1)
        images = [{**r, "content": f"v{i}"} for i in range(n + 1)]
        evs = _simple_stream(
            TM,
            [("insert", [images[0]])]
            + [("update", [{"before": images[i], "after": images[i + 1]}]) for i in range(n)],
        )
        shard = str(tmp_path / "shard.parquet")
        pq.write_table(_batch(evs), shard)
        built = []
        real = decode_stage._decode_cells

        def spy(readers, i, col, base, buf, at, ln):
            built.append(int((ln >= 0).sum()))
            return real(readers, i, col, base, buf, at, ln)

        monkeypatch.setattr(decode_stage, "_decode_cells", spy)
        cfg = cdc.CdcConfig(num_partitions=4)
        dk = cdc._decoder_kwargs([TM.to_dict()], cdc._with_flat_decode(cfg), None)
        entries, counts = cdc._spill_task._function(
            [((shard, 1), dk)], str(tmp_path / "spill"), cfg.key_cols, cfg.num_partitions
        )
        # the two key columns over every row image (each update has a
        # before- and an after-image), the three value columns over the
        # one winner
        assert sorted(built) == [1, 1, 1, 2 * n + 1, 2 * n + 1]
        assert counts["row_images"] == n + 1
        ((_part, path, i),) = entries
        with pa.OSFile(path) as f:
            spilled = pa.ipc.open_file(f).get_batch(i).to_pylist()
        assert [row["content"] for row in spilled] == [f"v{n}"]

    def test_spill_task_cuts_before_decode(self, small_stream, tmp_path):
        """A straddling shard's ``stop`` (``state_as_of``'s cut) drops
        the events past it before decode: the decoder counts only the
        row images at or before the cut, and none past it is spilled."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines import cdc

        _spec, out, m = small_stream
        shard = m["shards"][1]
        w = (shard["first_event_seq"] + shard["last_event_seq"]) // 2
        seqs = pq.read_table(f"{out}/oplog.parquet", columns=["event_seq"])["event_seq"].to_numpy()
        cfg = cdc.CdcConfig(num_partitions=4)
        ((src, dk),) = cdc._event_sources(dict(m, shards=[shard]), cfg, stop_at=w)
        assert src == (shard["path"], 1, w)

        def spill(src, name):
            return cdc._spill_task._function(
                [(src, dk)], str(tmp_path / name), cfg.key_cols, cfg.num_partitions
            )

        entries, counts = spill(src, "cut")
        in_shard = seqs >= shard["first_event_seq"]
        assert counts["row_images"] == int((in_shard & (seqs <= w)).sum())
        _entries, whole = spill(src[:2], "whole")
        assert whole["row_images"] == int((in_shard & (seqs <= shard["last_event_seq"])).sum())
        assert whole["row_images"] > counts["row_images"]
        spilled = []
        for _part, path, i in entries:
            with pa.OSFile(path) as f:
                spilled += pa.ipc.open_file(f).get_batch(i).column("event_seq").to_pylist()
        assert spilled and max(spilled) <= w

    def test_spill_task_does_not_decode_then_combine(self):
        cdc_py = os.path.join(TestOneDecodeWalk.PKG, "pipelines", "cdc.py")
        assert "_spill_task" not in TestOneDecodeWalk._calls(cdc_py, "lww_partial")
        assert list(TestOneDecodeWalk._calls(cdc_py, "flat_combined")) == ["_spill_task"]

    # -- the located decode over every cell layout --

    @staticmethod
    def _layout_table(table_id=61, columns=None, schema_ver=1):
        return TableMapDef(
            table_id=table_id,
            schema_name="code",
            table_name="layouts",
            columns=columns or _layout_columns(),
            schema_ver=schema_ver,
        )

    @pytest.mark.parametrize("keys", LAYOUT_KEYS, ids="-".join)
    def test_every_cell_layout(self, keys):
        """Generated rows over one column per ``cell_layout`` family,
        NULLs in every column: ``flat_combined`` equals ``lww_partial``
        over the codegen flat decode for merge keys of every family (two
        columns and more, uint64 past 2^63, FLOAT/DOUBLE with +-0.0)."""
        tm = self._layout_table()
        evs = _simple_stream(tm, _layout_rows_events(tm, keys, seed=len(keys) * 31 + ord(keys[0][0])))
        got, dec = self._assert_fused(
            [_batch(evs)], keys, registry_snapshot=[tm.to_dict()], target_table=("code", "layouts")
        )
        assert 0 < got.num_rows <= dec.n_rows

    @pytest.mark.parametrize("variant", ["whole", "sliced", "one_buffer_chunks", "two_buffer_chunks", "large_binary"])
    def test_mid_block_ddl_and_payload_shapes(self, variant):
        """One block holds both layouts of a DDL that drops two columns
        and adds one; the payload column arrives whole, sliced, in
        chunks and as ``large_binary``."""
        tm1 = self._layout_table()
        cols2 = tuple(c for c in tm1.columns if c.name not in ("i16", "lat")) + (
            ColumnDef("added", ColumnType.LONGLONG),
        )
        tm2 = self._layout_table(table_id=62, columns=cols2, schema_ver=2)
        keys = ("k", "k2")
        w = E.BinlogWriter()
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body()),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm1)),
            *_rows_events(tm1, _layout_rows_events(tm1, keys, seed=5, n_events=25), w),
            w.packet(EventType.XID, E.encode_xid_body(7)),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm2)),
            *_rows_events(tm2, _layout_rows_events(tm2, keys, seed=6, n_events=25), w),
            w.packet(EventType.XID, E.encode_xid_body(8)),
        ]
        block = _payload_variants(_batch(evs))[variant]
        got, dec = self._assert_fused(
            [block], keys, registry_snapshot=[tm1.to_dict(), tm2.to_dict()], target_table=("code", "layouts")
        )
        assert len(dec.states) == 2 and "added" in got.column_names and "lat" not in got.column_names
        assert got.column("added").null_count < got.num_rows

    def test_small_stream_payload_shapes(self, small_stream):
        _spec, _out, m = small_stream
        for block in self._blocks(m, 700):
            for variant in _payload_variants(block).values():
                self._assert_fused([variant], ("repo", "path"), registry_snapshot=m["table_maps"])

    def test_misaligned_event_raises(self):
        """A CRC-valid event whose last row image overruns the event (its
        body cut by one byte before the checksum was computed) raises,
        naming the table and the event, even without checksum checks."""
        w = E.BinlogWriter()
        body = E.encode_rows_body(TM, [_mk_row(1), _mk_row(2)], "insert")
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body()),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(TM)),
            w.packet(EventType.WRITE_ROWS_V2, body[:-1]),
        ]
        dec = BinlogDecoder(
            registry_snapshot=[TM.to_dict()], output="flat", key_cols=("repo", "path"), verify_checksums=False
        )
        with pytest.raises(ValueError, match=r"ROWS event 3 for table code\.repos"):
            dec.flat_combined(_batch(evs), ("repo", "path"))

    def test_cell_views_are_valid_arrays(self, monkeypatch):
        """Every zero-copy cell view (cell, gap, cell over the payload
        buffer) passes Arrow's full validation, for every payload shape."""
        from mysql_binlog_ray.stages import decode_stage

        views = []
        real = decode_stage._cell_view

        def spy(base, lo, hi):
            v = real(base, lo, hi)
            v.validate(full=True)
            views.append(v)
            return v

        monkeypatch.setattr(decode_stage, "_cell_view", spy)
        tm = self._layout_table()
        evs = _simple_stream(tm, _layout_rows_events(tm, ("k", "k2"), seed=11))
        for block in _payload_variants(_batch(evs)).values():
            self._assert_fused([block], ("k", "k2"), registry_snapshot=[tm.to_dict()])
        assert len(views) >= 5 * 2 and any(pa.types.is_binary(v.type) for v in views)

    def test_wide_table_pass_one_memory(self, monkeypatch):
        """Pass 1 over a 200-column table of small rows keeps O(images x
        key columns) memory: its traced numpy allocations stay under 256
        bytes per row image (about 140 measured), where one int64 per
        image and column alone would be 1600."""
        import tracemalloc

        from mysql_binlog_ray.stages import decode_stage

        cols = (ColumnDef("k", ColumnType.LONG),) + tuple(
            ColumnDef(f"c{i}", ColumnType.TINY) for i in range(199)
        )
        tm = TableMapDef(table_id=63, schema_name="code", table_name="wide", columns=cols, primary_key=(0,))
        rows = [{"k": i % 500, **{f"c{j}": None if (i + j) % 7 == 0 else j % 100 for j in range(199)}} for i in range(4000)]
        evs = _simple_stream(tm, [("insert", rows[i : i + 20]) for i in range(0, len(rows), 20)])
        peaks = []
        real = decode_stage._locate_images

        def traced(*a):
            tracemalloc.start()
            try:
                return real(*a)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(decode_stage, "_locate_images", traced)
        got, _ = self._assert_fused([_batch(evs)], ("k",), registry_snapshot=[tm.to_dict()])
        assert got.num_rows == 500
        assert peaks and max(peaks) < 256 * len(rows)
