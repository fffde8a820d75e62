"""Tests for JSON projection (P1), DDL parsing (E6), skew behavior (M8),
registry actor resolution (M3), and property-based round-trips."""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mysql_binlog_ray.fixtures.generator import (
    StreamSpec,
    build_op_plan,
    final_state_oracle,
    generate_stream,
    repos_table_map,
)
from mysql_binlog_ray.protocol import decode as D
from mysql_binlog_ray.protocol import encode as E
from mysql_binlog_ray.protocol.constants import ColumnType, EventType
from mysql_binlog_ray.protocol.model import ColumnDef, TableMapDef
from mysql_binlog_ray.stages.decode_stage import BinlogDecoder
from mysql_binlog_ray.stages.json_sink import JsonProjector, changefeed_row_to_json_dict
from mysql_binlog_ray.state.ddl import apply_ddl


def _stream_batch(tm, rows_events):
    w = E.BinlogWriter()
    out = [w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body())]
    out.append(w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm)))
    for op, rows in rows_events:
        etype = {"insert": EventType.WRITE_ROWS_V2, "update": EventType.UPDATE_ROWS_V2, "delete": EventType.DELETE_ROWS_V2}[op]
        out.append(w.packet(etype, E.encode_rows_body(tm, rows, op)))
    out.append(w.packet(EventType.XID, E.encode_xid_body(7)))
    return pa.table(
        {
            "shard_id": pa.array([0] * len(out), pa.int32()),
            "event_seq": pa.array(range(1, len(out) + 1), pa.int64()),
            "payload": pa.array(out, pa.binary()),
        }
    )


TM = repos_table_map(False)


def _row(i):
    return {"repo": f"o/r{i}", "path": f"p{i}.py", "commit": "c" * 40, "lang": "py", "content": f"body {i}"}


class TestJsonProjection:
    def test_reference_shape(self):
        batch = _stream_batch(
            TM,
            [
                ("insert", [_row(1)]),
                ("update", [{"before": _row(1), "after": {**_row(1), "commit": "d" * 40}}]),
                ("delete", [_row(1)]),
            ],
        )
        cf = BinlogDecoder(registry_snapshot=[TM.to_dict()])(batch)
        out = JsonProjector()(cf)
        docs = [json.loads(x) for x in out.column("json").to_pylist()]
        assert [d["action"] for d in docs] == ["insert", "update", "delete"]
        assert docs[0]["row"]["repo"] == "o/r1"          # insert: after image
        assert docs[1]["row"]["after"]["commit"] == "d" * 40  # update: both images
        assert docs[1]["row"]["before"]["commit"] == "c" * 40
        assert docs[2]["row"]["path"] == "p1.py"          # delete: before image
        assert docs[0]["schema"] == "code" and docs[0]["table"] == "repos"
        assert docs[0]["position"]["commit_seq"] == 7


class TestDdl:
    BASE = TableMapDef(
        table_id=10,
        schema_name="code",
        table_name="repos",
        columns=(
            ColumnDef("repo", ColumnType.VARCHAR, max_length=255),
            ColumnDef("path", ColumnType.VARCHAR, max_length=512),
        ),
        primary_key=(0, 1),
        schema_ver=1,
    )

    def test_add_column(self):
        tm = apply_ddl("ALTER TABLE repos ADD COLUMN stars BIGINT", "code", self.BASE, 11)
        assert tm is not None
        assert tm.table_id == 11 and tm.schema_ver == 2
        assert tm.columns[-1].name == "stars" and tm.columns[-1].type is ColumnType.LONGLONG

    def test_add_varchar_with_length(self):
        tm = apply_ddl("ALTER TABLE `repos` ADD `branch` VARCHAR(300)", "code", self.BASE, 11)
        assert tm.columns[-1].max_length == 300

    def test_drop_column_repacks_pk(self):
        tm = apply_ddl("ALTER TABLE repos DROP COLUMN repo", "code", self.BASE, 12)
        assert tm is not None
        assert [c.name for c in tm.columns] == ["path"]
        assert tm.primary_key == (0,)

    def test_unknown_statement_falls_back(self):
        assert apply_ddl("TRUNCATE TABLE repos", "code", self.BASE, 13) is None
        assert apply_ddl("ALTER TABLE other ADD COLUMN x INT", "code", self.BASE, 13) is None


@pytest.mark.usefixtures("ray_session")
class TestRegistryActor:
    def test_unknown_table_id_resolved_via_actor(self):
        import ray

        from mysql_binlog_ray.state.registry import SchemaRegistry

        name = "test_schema_registry"
        reg = SchemaRegistry.options(name=name).remote()
        tm_unseen = TableMapDef(
            table_id=777,
            schema_name="code",
            table_name="repos",
            columns=TM.columns,
            primary_key=TM.primary_key,
            schema_ver=1,
        )
        ray.get(reg.put.remote(tm_unseen.to_dict()))
        # stream contains rows for table 777 but NO in-band TABLE_MAP for it
        w = E.BinlogWriter()
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body()),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm_unseen, [_row(1)], "insert")),
        ]
        batch = pa.table(
            {
                "shard_id": pa.array([0, 0], pa.int32()),
                "event_seq": pa.array([1, 2], pa.int64()),
                "payload": pa.array(evs, pa.binary()),
            }
        )
        dec = BinlogDecoder(registry_snapshot=[TM.to_dict()], registry_actor_name=name)
        out = dec(batch)
        assert out.num_rows == 1
        assert out.column("table_map_id").to_pylist() == [777]
        ray.kill(reg)


@pytest.mark.usefixtures("ray_session")
class TestSkew:
    def test_zipf_hot_key_correct_and_bounded(self, tmp_path):
        """FIXTURES §F6 scenario 4: heavy key skew merges to the replay
        oracle (the fan-in bound: test_merge_fan_in_bounded_by_read_units)."""
        spec = StreamSpec(n_keys=100, n_ops=4000, n_shards=2, zipf_a=1.2, ddl_at=None)
        out = str(tmp_path)
        m = generate_stream(spec, out)
        plan = build_op_plan(spec)
        counts = np.bincount(plan.key, minlength=spec.n_keys)
        assert counts.max() > spec.n_ops * 0.1, "fixture not skewed enough"

        from mysql_binlog_ray.pipelines.cdc import CdcConfig, run_to_dataset

        import hashlib

        ds = run_to_dataset(m, CdcConfig(num_partitions=8))
        got = ds.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        got["content_sha256"] = got["content"].map(lambda s: hashlib.sha256(s.encode()).hexdigest())
        exp = final_state_oracle(spec, out).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        assert got[["repo", "path", "commit", "content_sha256"]].equals(
            exp[["repo", "path", "commit", "content_sha256"]]
        )

    def test_partial_bounds_hot_key_rows(self):
        """A key updated K times in one batch ships exactly ONE row to the
        shuffle (the M8 skew bound, realized by the combiner)."""
        from mysql_binlog_ray.stages.merge import lww_partial

        n = 5000
        t = pa.table(
            {
                "repo": pa.array(["hot/repo"] * n),
                "path": pa.array(["a.py"] * n),
                "content": pa.array([f"v{i}" for i in range(n)]),
                "op": pa.array(["update"] * n),
                "event_seq": pa.array(range(n), pa.int64()),
                "row_seq": pa.array([0] * n, pa.int32()),
            }
        )
        out = lww_partial(t, ("repo", "path"))
        assert out.num_rows == 1
        assert out.column("content").to_pylist() == [f"v{n-1}"]

    def test_merge_fan_in_bounded_by_read_units(self, tmp_path):
        """On a zipf-2.0 stream whose hottest key carries over 40% of the
        row images, no key reaches the merge tasks as more rows than
        there are read units: every spill task partially combines each
        unit it decodes before it spills."""
        from mysql_binlog_ray.pipelines import cdc

        spec = StreamSpec(seed=3, n_keys=320, n_ops=20_000, n_shards=8, zipf_a=2.0)
        manifest = generate_stream(spec, str(tmp_path / "stream"))
        counts = np.bincount(build_op_plan(spec).key, minlength=spec.n_keys)
        assert counts.max() > spec.n_ops * 0.4, "fixture not skewed enough"

        cfg = cdc.CdcConfig(num_partitions=8)
        dk = cdc._decoder_kwargs(manifest["table_maps"], cdc._with_flat_decode(cfg), None)
        units = cdc.event_read_units(manifest)
        spill = str(tmp_path / "spill")
        entries = []
        for path, i, k in units:
            if i == 0:
                got, _ = cdc._spill_task._function(
                    [((path, k), dk)], spill, cfg.key_cols, cfg.num_partitions
                )
                entries += got
        keys = pa.Table.from_batches(
            [
                pa.ipc.open_file(chunk).get_batch(i).select(["repo", "path"])
                for _part, chunk, i in entries
            ]
        ).to_pandas()
        per_key = keys.value_counts()
        assert len(per_key) == spec.n_keys
        assert 1 < per_key.max() <= len(units)


class TestPropertyRoundTrip:
    def test_random_rows_roundtrip(self):
        """Property/randomized round-trip (SURVEY §5.2 item 2): seeded
        random rows over a wide schema encode -> decode to equality."""
        from hypothesis import given, settings, strategies as st

        cols = (
            ColumnDef("k", ColumnType.LONG),
            ColumnDef("u", ColumnType.LONGLONG, signed=False),
            ColumnDef("s", ColumnType.VARCHAR, max_length=300),
            ColumnDef("b", ColumnType.BLOB, length_bytes=2),
            ColumnDef("f", ColumnType.DOUBLE, size=8),
            ColumnDef("d", ColumnType.NEWDECIMAL, precision=12, scale=3),
        )
        tm = TableMapDef(table_id=3, schema_name="s", table_name="t", columns=cols)

        text = st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=200)

        @settings(max_examples=60, deadline=None)
        @given(
            k=st.integers(-(1 << 31), (1 << 31) - 1),
            u=st.integers(0, (1 << 64) - 1),
            s=text,
            b=text,
            f=st.floats(allow_nan=False, allow_infinity=False, width=64),
            dec_int=st.integers(0, 10**9 - 1),
            dec_frac=st.integers(0, 999),
            neg=st.booleans(),
        )
        def check(k, u, s, b, f, dec_int, dec_frac, neg):
            dec = f"{'-' if neg and (dec_int or dec_frac) else ''}{dec_int}.{dec_frac:03d}"
            row = {"k": k, "u": u, "s": s, "b": b, "f": f, "d": dec}
            w = E.BinlogWriter()
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body())
            tmev = w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm))
            wr = w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row], "insert"))
            tm2 = D.parse_table_map(tmev, D.parse_header(tmev, 4))
            ev = D.parse_rows_event(wr, D.parse_header(wr, 4), {tm2.table_id: D.DecodePlan.compile(tm2)})
            got = ev.rows[0]
            assert got["k"] == k
            assert got["u"] == (str(u) if u >= 1 << 63 else u)
            assert got["s"] == s
            assert got["b"] == b
            assert got["f"] == f
            assert got["d"] == "%.3f" % float(dec)

        check()


@pytest.mark.usefixtures("ray_session")
class TestSequentialDecode:
    def test_commit_seq_exact_vs_oplog(self, small_stream, tmp_path):
        """Sequential mode stamps every row with its transaction's XID;
        must equal the generator's oplog ground truth row-for-row, on a
        GTID stream and on a GTID-less one."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.fixtures.generator import StreamSpec, generate_stream
        from mysql_binlog_ray.pipelines.sequential import decode_shards_sequential

        spec, out, manifest = small_stream
        gtidless = str(tmp_path / "gtidless")
        spec = StreamSpec(n_keys=120, n_ops=600, n_shards=2, include_noise_events=False)
        for out, manifest in ((out, manifest), (gtidless, generate_stream(spec, gtidless))):
            cf = decode_shards_sequential(manifest).to_pandas()
            assert (cf["commit_seq"] != -1).all()
            oplog = pq.read_table(f"{out}/oplog.parquet").to_pandas()
            merged = cf.merge(
                oplog, on=["event_seq", "row_seq"], suffixes=("_cf", "_op"), how="inner"
            )
            assert len(merged) == len(oplog) == len(cf)
            assert (merged["commit_seq_cf"] == merged["commit_seq_op"]).all()

    def test_position_discontinuity_detected(self, small_stream):
        import pyarrow.parquet as pq

        spec, out, manifest = small_stream
        t = pq.read_table(manifest["shards"][0]["path"])
        payloads = t.column("payload").to_pylist()
        assert _discontinuities(payloads) == 0
        # corrupt one header's log_pos
        bad = bytearray(payloads[5])
        bad[14] ^= 0x01  # log_pos byte
        assert _discontinuities([bytes(bad) if i == 5 else p for i, p in enumerate(payloads[:10])]) >= 1

    def test_strict_decode_refuses_a_corrupted_shard(self, small_stream, tmp_path):
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.sequential import decode_shards_sequential

        spec, out, manifest = small_stream
        t = pq.read_table(manifest["shards"][0]["path"])
        payloads = t.column("payload").to_pylist()
        bad = bytearray(payloads[5])
        bad[14] ^= 0x01
        payloads[5] = bytes(bad)
        path = str(tmp_path / "events-00000.parquet")
        pq.write_table(t.set_column(2, "payload", pa.array(payloads, pa.binary())), path)
        corrupted = dict(manifest, shards=[dict(manifest["shards"][0], path=path)])
        with pytest.raises(Exception, match="1 event-position discontinuities"):
            decode_shards_sequential(corrupted).materialize()
        assert decode_shards_sequential(corrupted, strict=False).count() > 0


def _header_event(etype: int, event_size: int, log_pos: int) -> bytes:
    """An event's OK byte, v4 header and 8 body bytes (the position
    check reads only the header)."""
    import struct

    return b"\x00" + struct.pack("<IBIIIH", 0, etype, 1, event_size, log_pos, 0) + bytes(8)


def _discontinuities(payloads) -> int:
    from mysql_binlog_ray.pipelines.sequential import position_discontinuities
    from mysql_binlog_ray.stages.decode_stage import event_headers

    return position_discontinuities(event_headers(pa.table({"payload": pa.array(payloads, pa.binary())})))


def _discontinuities_per_event(events) -> int:
    """The position rules as a loop over ``(type, event_size, log_pos)``,
    one event at a time (`EventsIterator.php:175-196`)."""
    expected, seen_fd, bad = None, False, 0
    for etype, size, pos in events:
        if etype == EventType.FORMAT_DESCRIPTION:
            expected, seen_fd = None, True
        elif not seen_fd:
            raise ValueError("Expected FORMAT_DESCRIPTION first")
        elif etype == EventType.ROTATE:
            expected = 4
        elif expected is None:
            expected = pos
        else:
            bad += pos != (expected + size) & 0xFFFFFFFF
            expected += size
    return bad


class TestPositionCheck:
    """``sequential.position_discontinuities`` over header columns."""

    FD, ROT, WR = EventType.FORMAT_DESCRIPTION, EventType.ROTATE, EventType.WRITE_ROWS_V2

    def _count(self, events):
        return _discontinuities([_header_event(*e) for e in events])

    def test_must_start_with_format_description(self):
        with pytest.raises(ValueError, match="FORMAT_DESCRIPTION first"):
            self._count([(self.WR, 30, 130), (self.FD, 120, 250)])
        assert self._count([]) == 0

    def test_rotate_mid_shard_resets_to_4(self):
        ok = [(self.FD, 120, 124), (self.WR, 30, 154), (self.WR, 20, 174), (self.ROT, 44, 0),
              (self.WR, 30, 34), (self.WR, 10, 44)]
        assert self._count(ok) == 0
        # after the ROTATE the offset restarts at 4, not at 174
        assert self._count(ok[:4] + [(self.WR, 30, 204), (self.WR, 10, 214)]) == 2

    def test_log_pos_wraps_past_2_32(self):
        top = (1 << 32) - 10
        assert self._count([(self.FD, 120, 124), (self.WR, 30, top), (self.WR, 30, 20), (self.WR, 5, 25)]) == 0
        assert self._count([(self.FD, 120, 124), (self.WR, 30, top), (self.WR, 30, top + 9)]) == 1

    def test_equals_the_per_event_rules(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            types = rng.choice([self.FD, self.ROT, self.WR, EventType.XID], size=n, p=[0.1, 0.1, 0.5, 0.3])
            types[0] = self.FD
            sizes = rng.integers(19, 1 << 31, size=n)
            events, at = [], 4
            for t, size in zip(types.tolist(), sizes.tolist()):
                at = 4 if t == self.ROT else (at + size) & 0xFFFFFFFF
                pos = at if rng.random() < 0.8 else int(rng.integers(0, 1 << 32))
                events.append((t, size, pos))
            assert self._count(events) == _discontinuities_per_event(events), events


class TestConnectedComponents:
    def test_union_find_clusters(self):
        from mysql_binlog_ray.stages.dedup import connected_components

        pairs = pd.DataFrame({"doc_a": [1, 2, 10, 20], "doc_b": [2, 3, 11, 21]})
        out = connected_components(pairs)
        by = dict(zip(out["doc_id"], out["cluster_id"]))
        assert by[1] == by[2] == by[3] == 1
        assert by[10] == by[11] == 10
        assert by[20] == by[21] == 20


class TestArrowNative:
    def test_native_casts(self):
        from mysql_binlog_ray.stages.arrow_native import to_arrow_native
        import base64

        cols = (
            ColumnDef("i", ColumnType.LONG),
            ColumnDef("u", ColumnType.LONGLONG, signed=False),
            ColumnDef("dec", ColumnType.NEWDECIMAL, precision=12, scale=3),
            ColumnDef("day", ColumnType.DATE),
            ColumnDef("dt", ColumnType.DATETIME2, fsp=3),
            ColumnDef("t", ColumnType.TIME2, fsp=0),
            ColumnDef("bits", ColumnType.BIT, bits=10),
            ColumnDef("tags", ColumnType.SET, size=1, values=("a", "b", "c")),
            ColumnDef("raw", ColumnType.BLOB, length_bytes=2, charset=63),
        )
        tm = TableMapDef(table_id=1, schema_name="s", table_name="t", columns=cols)
        from mysql_binlog_ray.protocol.constants import BINARY_TAG

        table = pa.table(
            {
                "i": pa.array([5, None], pa.int64()),
                "u": pa.array([str((1 << 63) + 9), 7], pa.string()) if False else pa.array([str((1 << 63) + 9), "7"]),
                "dec": pa.array(["-12345.678", None]),
                "day": pa.array(["2024-02-29", "0000-00-00"]),
                "dt": pa.array(["2024-03-01 10:20:30.500", "2024-03-01 10:20:30"]),
                "t": pa.array(["13:14:15", None]),
                "bits": pa.array(["1010110011", None]),
                "tags": pa.array(["a,c", ""]),
                "raw": pa.array([BINARY_TAG + base64.b64encode(b"\x00\x01").decode(), None]),
                "event_seq": pa.array([1, 2], pa.int64()),
            }
        )
        out = to_arrow_native(table, tm)
        assert out.schema.field("dec").type == pa.decimal128(12, 3)
        assert str(out.column("dec")[0].as_py()) == "-12345.678"
        assert out.schema.field("day").type == pa.date32()
        assert out.column("day")[1].as_py() is None  # zero-date -> null
        assert out.schema.field("dt").type == pa.timestamp("ms")
        assert out.column("dt")[0].as_py().microsecond == 500000
        assert out.schema.field("t").type == pa.time64("us")
        assert out.column("t")[0].as_py().hour == 13
        assert out.column("bits")[0].as_py() == int("1010110011", 2)
        assert out.column("u")[0].as_py() == (1 << 63) + 9
        assert out.column("tags")[0].as_py() == ["a", "c"]
        assert out.column("raw")[0].as_py() == b"\x00\x01"
        assert out.column("event_seq")[0].as_py() == 1

    def test_native_roundtrip_through_decoder(self):
        """Wire bytes -> parity decode -> native cast: value integrity."""
        from mysql_binlog_ray.stages.arrow_native import to_arrow_native

        tm = repos_table_map(True)
        batch = _stream_batch(tm, [("insert", [{**_row(3), "stars": 42}])])
        flat = BinlogDecoder(
            registry_snapshot=[tm.to_dict()], output="flat", key_cols=("repo", "path")
        )(batch)
        out = to_arrow_native(flat, tm)
        r = out.to_pylist()[0]
        assert r["repo"] == "o/r3" and r["stars"] == 42


class TestPrintRowEventsCli:
    def test_cli_prints_reference_shaped_json(self, small_stream):
        import subprocess
        import sys

        spec, out, manifest = small_stream
        r = subprocess.run(
            [sys.executable, "-m", "mysql_binlog_ray.print_row_events",
             "--stream-dir", out, "--limit", "3", "--num-cpus", "2"],
            capture_output=True, text=True, timeout=240, cwd="/root/repo",
        )
        assert r.returncode == 0, r.stderr[-500:]
        lines = [l for l in r.stdout.splitlines() if l.strip()]
        assert len(lines) == 3
        doc = json.loads(lines[0])
        assert doc["action"] in ("insert", "update", "delete")
        assert "position" in doc and "row" in doc


class TestDdlModify:
    def test_modify_widens_type(self):
        base = TestDdl.BASE
        tm = apply_ddl("ALTER TABLE repos MODIFY COLUMN path VARCHAR(1024)", "code", base, 14)
        assert tm is not None and tm.schema_ver == 2
        assert tm.columns[1].max_length == 1024
        assert [c.name for c in tm.columns] == ["repo", "path"]

    def test_modify_unknown_column_falls_back(self):
        assert apply_ddl("ALTER TABLE repos MODIFY nope BIGINT", "code", TestDdl.BASE, 15) is None


class TestLwwProperty:
    def test_random_op_sequences_match_replay(self):
        """Property: for random op sequences, the vectorized LWW kernel
        equals a sequential dict replay (any batch split)."""
        from hypothesis import given, settings, strategies as st

        from mysql_binlog_ray.stages.merge import lww_final, lww_partial

        ops_strategy = st.lists(
            st.tuples(
                st.integers(0, 5),                      # key
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(0, 30),                     # event_seq
                st.integers(0, 3),                      # row_seq
            ),
            min_size=1,
            max_size=40,
        )

        @settings(max_examples=60, deadline=None)
        @given(ops=ops_strategy, split=st.integers(1, 10))
        def check(ops, split):
            # dedupe identical (key, seq) tuples: the engine's order key is
            # unique per row image by construction
            seen = set()
            uniq = []
            for k, op, e, r in ops:
                if (k, e, r) not in seen:
                    seen.add((k, e, r))
                    uniq.append((k, op, e, r))
            # sequential replay in seq order
            state = {}
            for k, op, e, r in sorted(uniq, key=lambda t: (t[2], t[3])):
                if op == "delete":
                    state.pop(k, None)
                else:
                    state[k] = (e, r)
            # vectorized: partial per chunk then final
            def table(rows):
                return pa.table(
                    {
                        "key": pa.array([str(k) for k, *_ in rows], pa.string()),
                        "op": pa.array([op for _, op, *_ in rows], pa.string()),
                        "event_seq": pa.array([e for *_, e, _ in rows], pa.int64()),
                        "row_seq": pa.array([r for *_, r in rows], pa.int32()),
                    }
                )

            chunks = [uniq[i::split] for i in range(split) if uniq[i::split]]
            partials = [lww_partial(table(c), ("key",)) for c in chunks]
            merged = lww_final(pa.concat_tables(partials), ("key",))
            got = {
                row["key"]: (row["event_seq"], row["row_seq"])
                for row in merged.to_pylist()
            }
            exp = {str(k): v for k, v in state.items()}
            assert got == exp

        check()


class TestGiantRows:
    def test_18mb_row_image_roundtrip(self):
        """The reference reassembles >16 MiB packets split at
        MAX_PACKET_SIZE (`Connection.php:402-414`); our packets live in
        Arrow binary cells with no 16 MiB limit — one 18 MiB row image
        must decode bit-exactly."""
        tm = repos_table_map(False)
        big = "x" * (18 * 1024 * 1024) + "€"  # 18 MiB + non-ascii tail
        row = {"repo": "big/repo", "path": "huge.bin", "commit": "f" * 40, "lang": "py", "content": big}
        w = E.BinlogWriter()
        evs = [
            w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body()),
            w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm)),
            w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row], "insert")),
        ]
        batch = pa.table(
            {
                "shard_id": pa.array([0] * 3, pa.int32()),
                "event_seq": pa.array([1, 2, 3], pa.int64()),
                "payload": pa.array(evs, pa.binary()),
            }
        )
        out = BinlogDecoder(registry_snapshot=[tm.to_dict()], output="flat", key_cols=("repo", "path"))(batch)
        assert out.num_rows == 1
        got = out.column("content").to_pylist()[0]
        assert len(got) == len(big) and got[-1] == "€" and got[:8] == "xxxxxxxx"


@pytest.mark.usefixtures("ray_session")
class TestParallelCommitStamping:
    """M4: the block-parallel decoder must stamp commit_seq exactly like
    sequential mode, even when transactions span block boundaries."""

    def _parallel_cf(self, manifest, num_blocks):
        import ray.data as rd

        from mysql_binlog_ray.pipelines.cdc import CdcConfig, decode_changefeed

        paths = [s["path"] for s in manifest["shards"]]
        events = rd.read_parquet(paths, override_num_blocks=num_blocks)
        return decode_changefeed(events, manifest["table_maps"], CdcConfig()).to_pandas()

    def _assert_matches_sequential(self, manifest, par, known_only=False):
        """``par``'s stamps equal the per-shard decode's on every row
        (with ``known_only``, on the rows ``par`` stamped)."""
        from mysql_binlog_ray.pipelines.sequential import decode_shards_sequential

        seq = decode_shards_sequential(manifest).to_pandas()
        m = par.merge(
            seq[["event_seq", "row_seq", "commit_seq"]],
            on=["event_seq", "row_seq"],
            suffixes=("_par", "_seq"),
            how="outer",
            indicator=True,
        )
        assert (m["_merge"] == "both").all()
        assert (seq["commit_seq"] != -1).all()
        if known_only:
            m = m[m["commit_seq_par"] != -1]
        assert (m["commit_seq_par"] == m["commit_seq_seq"]).all()

    def test_gtid_stamping_exact_across_block_boundaries(self, small_stream):
        """GTID streams: blocks of ~3 transactions force many txns to
        span block boundaries; forward-stamp + XID backfill must still
        stamp every row exactly (no -1)."""
        spec, out, manifest = small_stream
        assert spec.include_noise_events  # MARIA_GTID present
        total_events = sum(s["events"] for s in manifest["shards"])
        par = self._parallel_cf(manifest, num_blocks=max(4, total_events // 30))
        assert (par["commit_seq"] != -1).all()
        self._assert_matches_sequential(manifest, par)

    def test_mysql_flavor_gtid_stamping_exact_across_blocks(self, tmp_path):
        """MySQL-flavor (0x21 GTID_LOG_EVENT) streams: the GNO must be
        consumed as the sequencing source exactly like MARIA_GTID —
        parallel == sequential with no -1 even when transactions span
        block boundaries."""
        from mysql_binlog_ray.fixtures.generator import StreamSpec, generate_stream

        spec = StreamSpec(
            n_keys=150, n_ops=900, n_shards=2, gtid_flavor="mysql"
        )
        manifest = generate_stream(spec, str(tmp_path / "mysql_stream"))
        total_events = sum(s["events"] for s in manifest["shards"])
        par = self._parallel_cf(manifest, num_blocks=max(4, total_events // 30))
        assert (par["commit_seq"] != -1).all()
        self._assert_matches_sequential(manifest, par)

    def test_gtidless_stream_exact_by_per_shard_decode(self, tmp_path):
        """GTID-less streams at pathologically tiny blocks (smaller than
        a transaction) leave -1 where a transaction's XID is in another
        block; every stamp they do give is exact, and the per-shard
        decode (``decode_shards_sequential``: each shard one block)
        stamps every row."""
        from mysql_binlog_ray.fixtures.generator import StreamSpec, generate_stream

        spec = StreamSpec(
            n_keys=120, n_ops=600, n_shards=2, include_noise_events=False
        )
        manifest = generate_stream(spec, str(tmp_path / "stream"))
        total_events = sum(s["events"] for s in manifest["shards"])
        nb = max(8, total_events // 4)  # ~4 events per block << txn size
        par = self._parallel_cf(manifest, num_blocks=nb)
        assert (par["commit_seq"] == -1).any(), "blocks too large to leave a transaction open"
        self._assert_matches_sequential(manifest, par, known_only=True)


@pytest.mark.usefixtures("ray_session")
class TestRotateTableMapDrop:
    def test_table_id_reuse_across_files(self, tmp_path):
        """Reference semantics (`EventsIterator.php:163-173`): a table id
        bound in one binlog file must not leak past ROTATE.  Two shards
        reuse table id 300 with DIFFERENT layouts; the parallel decoder
        must decode each file with its own in-band map."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data as rd

        from mysql_binlog_ray.fixtures.generator import repos_table_map
        from mysql_binlog_ray.pipelines.cdc import CdcConfig, decode_changefeed
        from mysql_binlog_ray.protocol import encode as E
        from mysql_binlog_ray.protocol.constants import COLLATION_UTF8MB4, ColumnType, EventType
        from mysql_binlog_ray.protocol.encode import BinlogWriter
        from mysql_binlog_ray.protocol.model import ColumnDef, TableMapDef

        def tmdef(cols, ver):
            return TableMapDef(
                table_id=300,
                schema_name="code",
                table_name="repos",
                columns=tuple(cols),
                primary_key=(0,),
                schema_ver=ver,
            )

        base_cols = [
            ColumnDef("repo", ColumnType.VARCHAR, nullable=False, max_length=255, charset=COLLATION_UTF8MB4),
            ColumnDef("path", ColumnType.VARCHAR, nullable=False, max_length=255, charset=COLLATION_UTF8MB4),
        ]
        # file 2's layout inserts a column BEFORE the existing ones so a
        # stale binding would shift every value
        v2_cols = [
            ColumnDef("extra", ColumnType.LONG, nullable=True, signed=True),
            *base_cols,
        ]
        tm_a, tm_b = tmdef(base_cols, 1), tmdef(v2_cols, 2)

        def shard(shard_id, tm, rows, eseq0):
            w = BinlogWriter(server_id=1)
            payloads, seqs = [], []

            def emit(p):
                payloads.append(p)
                seqs.append(eseq0 + len(seqs))

            emit(w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body(), 1))
            emit(w.rotate(f"binlog.{shard_id:06d}", timestamp=1))
            emit(w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm), 2))
            emit(w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, rows, "insert"), 2))
            emit(w.packet(EventType.XID, E.encode_xid_body(eseq0 + 100)))
            path = str(tmp_path / f"ev-{shard_id}.parquet")
            pq.write_table(
                pa.table(
                    {
                        "shard_id": pa.array([shard_id] * len(payloads), pa.int32()),
                        "event_seq": pa.array(seqs, pa.int64()),
                        "payload": pa.array(payloads, pa.binary()),
                    }
                ),
                path,
            )
            return {"shard_id": shard_id, "path": path,
                    "first_event_seq": seqs[0], "last_event_seq": seqs[-1]}

        rows_a = [{"repo": "r1", "path": "p1"}]
        rows_b = [{"repo": "r2", "path": "p2", "extra": 7}]
        s0 = shard(0, tm_a, rows_a, 1)
        s1 = shard(1, tm_b, rows_b, 1000)
        manifest = {
            "shards": [s0, s1],
            # snapshot carries only the v2 layout: a decoder that lets the
            # snapshot override the in-band map would mis-decode shard 0
            "table_maps": [tm_b.to_dict()],
        }
        events = rd.read_parquet([s0["path"], s1["path"]], override_num_blocks=2)
        cf = decode_changefeed(
            events, manifest["table_maps"], CdcConfig(target_table=("code", "repos"))
        ).to_pandas()
        assert len(cf) == 2
        by_seq = {r["event_seq"]: r for _, r in cf.iterrows()}
        a = by_seq[s0["first_event_seq"] + 3]["after"]
        b = by_seq[s1["first_event_seq"] + 3]["after"]
        assert (a["repo"], a["path"]) == ("r1", "p1") and a["extra"] is None
        assert (b["repo"], b["path"], b["extra"]) == ("r2", "p2", 7)


@pytest.mark.usefixtures("ray_session")
class TestMultiTableOplogAlignment:
    def test_oplog_event_seqs_exact_with_interleaved_issues(self, tmp_path):
        """Interleaved code.issues transactions emit ROWS events carrying
        no oplog tuples; the oplog builder must not consume repos tuples
        for them (every later op's event_seq would shift)."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.sequential import decode_shards_sequential

        spec = StreamSpec(n_keys=150, n_ops=900, n_shards=2, issues_every=3)
        out = str(tmp_path / "stream")
        manifest = generate_stream(spec, out)
        cf = decode_shards_sequential(manifest).to_pandas()  # repos only
        oplog = pq.read_table(f"{out}/oplog.parquet").to_pandas()
        merged = cf.merge(
            oplog, on=["event_seq", "row_seq"], suffixes=("_cf", "_op"), how="inner"
        )
        # every decoded repos row must align with exactly one oplog row
        assert len(merged) == len(oplog) == len(cf)
        assert (merged["commit_seq_cf"] == merged["commit_seq_op"]).all()
        # and the decoded commit hash matches the op's planned version
        from mysql_binlog_ray.fixtures.generator import ContentFactory

        fac = ContentFactory(spec)
        sample = merged[merged["op_op"] != 2].head(200)
        for _, r in sample.iterrows():
            assert r["after"]["commit"] == fac.commit(int(r["key"]), int(r["version"]))


class TestDdlExtensions:
    from mysql_binlog_ray.fixtures.generator import repos_table_map

    BASE = repos_table_map(False)

    def test_rename_column(self):
        tm = apply_ddl("ALTER TABLE repos RENAME COLUMN lang TO language", "code", self.BASE, 21)
        assert tm is not None
        assert [c.name for c in tm.columns] == ["repo", "path", "commit", "language", "content"]
        assert tm.schema_ver == self.BASE.schema_ver + 1

    def test_rename_table_alter_form(self):
        tm = apply_ddl("ALTER TABLE repos RENAME TO repos_v2", "code", self.BASE, 22)
        assert tm is not None and tm.table_name == "repos_v2"

    def test_rename_table_rename_form(self):
        tm = apply_ddl("RENAME TABLE repos TO archived_repos", "code", self.BASE, 23)
        assert tm is not None and tm.table_name == "archived_repos"

    def test_rename_column_not_confused_with_rename_table(self):
        tm = apply_ddl("ALTER TABLE repos RENAME COLUMN lang TO language", "code", self.BASE, 24)
        assert tm.table_name == "repos"  # table name untouched

    def test_add_json_column(self):
        from mysql_binlog_ray.protocol.constants import ColumnType

        tm = apply_ddl("ALTER TABLE repos ADD COLUMN meta JSON", "code", self.BASE, 25)
        assert tm is not None
        assert tm.columns[-1].type is ColumnType.JSON
        assert tm.columns[-1].length_bytes == 4


class TestDdlRenameIndexNoOp:
    def test_rename_index_and_key_do_not_rename_table(self):
        from mysql_binlog_ray.fixtures.generator import repos_table_map

        base = repos_table_map(False)
        assert apply_ddl("ALTER TABLE repos RENAME INDEX idx_a TO idx_b", "code", base, 31) is None
        assert apply_ddl("ALTER TABLE repos RENAME KEY k_a TO k_b", "code", base, 32) is None
