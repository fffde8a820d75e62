"""MySQL wire-protocol transport tests (S1/S4/S5/S6): packet framing
with >16MB reassembly, handshake/auth, replica registration, binlog
dump, and the full socketpair session feeding the standard pipeline."""

import hashlib
import socket
import struct
import threading

import pytest

from mysql_binlog_ray.fixtures.wire_server import (
    NONCE,
    build_handshake_v10,
    serve_session,
)
from mysql_binlog_ray.sources.wire import (
    MAX_PACKET_SIZE,
    BinlogWireClient,
    PacketConn,
    WireError,
    build_register_slave,
    parse_handshake_v10,
    scramble_native_password,
    tail_to_shards,
)


class _BytesConn:
    """recv()-only stub over a fixed byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = memoryview(data)
        self._off = 0

    def recv(self, n: int) -> bytes:
        chunk = bytes(self._data[self._off : self._off + n])
        self._off += len(chunk)
        return chunk

    def sendall(self, b: bytes) -> None:  # pragma: no cover
        raise AssertionError("read-only stub")


def _frame(payload: bytes, seq: int) -> bytes:
    return struct.pack("<I", len(payload))[:3] + bytes([seq]) + payload


class TestFraming:
    def test_reassembles_split_packet(self):
        big = bytes(range(256)) * ((MAX_PACKET_SIZE // 256) + 3)
        big = big[: MAX_PACKET_SIZE + 777]
        wire = _frame(big[:MAX_PACKET_SIZE], 0) + _frame(big[MAX_PACKET_SIZE:], 1)
        conn = PacketConn(_BytesConn(wire))
        assert conn.read_packet() == big

    def test_exact_multiple_needs_empty_terminator(self):
        # a payload of exactly MAX_PACKET_SIZE promises a continuation;
        # the terminator is the empty packet
        big = b"\xab" * MAX_PACKET_SIZE
        wire = _frame(big, 0) + _frame(b"", 1)
        conn = PacketConn(_BytesConn(wire))
        assert conn.read_packet() == big

    def test_out_of_order_continuation_raises(self):
        big = b"\x01" * (MAX_PACKET_SIZE + 5)
        wire = _frame(big[:MAX_PACKET_SIZE], 0) + _frame(big[MAX_PACKET_SIZE:], 5)
        conn = PacketConn(_BytesConn(wire))
        with pytest.raises(WireError, match="out of order"):
            conn.read_packet()

    def test_err_packet_raises_with_code_and_clean_message(self):
        payload = b"\xff" + struct.pack("<H", 1045) + b"#28000Access denied"
        conn = PacketConn(_BytesConn(_frame(payload, 0)))
        with pytest.raises(WireError, match="Access denied") as ei:
            conn.read_response()
        assert ei.value.code == 1045

    def test_mid_packet_death_raises_not_truncates(self):
        # a peer dying halfway through a frame must raise, never look
        # like a clean end-of-stream (silent binlog-tail loss)
        wire = _frame(b"\x00abc", 0) + _frame(b"\x00defgh", 1)[:7]
        conn = PacketConn(_BytesConn(wire))
        assert conn.read_packet() == b"\x00abc"
        with pytest.raises(WireError, match="mid-read"):
            conn.read_packet()

    def test_clean_close_only_at_packet_boundary(self):
        from mysql_binlog_ray.sources.wire import CleanClose

        conn = PacketConn(_BytesConn(_frame(b"\x00abc", 0)))
        assert conn.read_packet() == b"\x00abc"
        with pytest.raises(CleanClose):
            conn.read_packet()

    def test_long_eof_is_auth_switch_not_eof(self):
        # 0xFE with len >= 9 is an AuthSwitchRequest (e.g. MySQL 8's
        # caching_sha2_password) — surface the plugin name
        payload = b"\xfe" + b"caching_sha2_password" + b"\x00" + b"nonce123"
        conn = PacketConn(_BytesConn(_frame(payload, 0)))
        with pytest.raises(WireError, match="caching_sha2_password"):
            conn.read_response()

    def test_send_refuses_large_packet(self):
        conn = PacketConn(_BytesConn(b""))
        with pytest.raises(WireError, match="not implemented"):
            conn.send_packet(b"x" * (MAX_PACKET_SIZE + 1))


class TestHandshake:
    def test_parse_round_trip(self):
        hs = parse_handshake_v10(build_handshake_v10(connection_id=99))
        assert hs.protocol_version == 10
        assert hs.connection_id == 99
        assert hs.is_mariadb
        assert hs.auth_plugin_name == "mysql_native_password"
        assert hs.auth_plugin_data[:20] == NONCE

    def test_scramble_known_composition(self):
        # independent recomputation of the public mysql_native_password
        # formula: SHA1(pw) XOR SHA1(nonce . SHA1(SHA1(pw)))
        pw, nonce = "secret", NONCE
        h1 = hashlib.sha1(pw.encode()).digest()
        want = bytes(
            a ^ b
            for a, b in zip(
                h1, hashlib.sha1(nonce + hashlib.sha1(h1).digest()).digest()
            )
        )
        assert scramble_native_password(pw, nonce) == want
        assert scramble_native_password("", nonce) == b""

    def test_sha2_scramble_known_composition(self):
        # independent recomputation of the public caching_sha2_password
        # fast-path formula: SHA256(pw) XOR SHA256(SHA256(SHA256(pw)) . nonce)
        from mysql_binlog_ray.sources.wire import scramble_caching_sha2

        pw, nonce = "secret", NONCE
        h1 = hashlib.sha256(pw.encode()).digest()
        want = bytes(
            a ^ b
            for a, b in zip(
                h1,
                hashlib.sha256(
                    hashlib.sha256(h1).digest() + nonce
                ).digest(),
            )
        )
        assert scramble_caching_sha2(pw, nonce) == want
        assert scramble_caching_sha2("", nonce) == b""

    def test_register_slave_layout_is_spec_not_reference_bug(self):
        # published layout: port immediately after ONE copy of the
        # password (the reference writes it twice — Connection.php:169-171)
        pkt = build_register_slave(7, "u", "pw", 3307)
        off = 1 + 4
        for want in (b"localhost", b"u", b"pw"):
            ln = pkt[off]
            assert pkt[off + 1 : off + 1 + ln] == want
            off += 1 + ln
        port, rank, master_id = struct.unpack_from("<HII", pkt, off)
        assert (port, rank, master_id) == (3307, 0, 0)
        assert off + 10 == len(pkt)


def _serve_in_thread(sock, payloads, **kw):
    out: dict = {}

    def run():
        try:
            serve_session(sock, payloads, seen=out, **kw)
        except Exception as e:  # surfaced by the joining test
            out["exception"] = repr(e)
        finally:
            sock.close()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t, out


class TestFramingProperties:
    """Property tests: any payload, any fragmentation, survives the
    framing round-trip byte-exactly."""

    def test_split_reassembly_round_trip(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from mysql_binlog_ray.fixtures.wire_server import _send_large

        class _Pipe:
            def __init__(self):
                self.buf = bytearray()

            def sendall(self, b):
                self.buf += b

            def recv(self, n):
                out = bytes(self.buf[:n])
                del self.buf[:n]
                return out

        @given(
            sizes=st.lists(
                st.integers(min_value=0, max_value=300), min_size=1, max_size=6
            ),
            near_boundary=st.booleans(),
        )
        @settings(max_examples=30, deadline=None)
        def check(sizes, near_boundary):
            pipe = _Pipe()
            tx = PacketConn(pipe)
            payloads = []
            for i, s in enumerate(sizes):
                if near_boundary and i == 0:
                    # force the continuation machinery (exact multiple
                    # and off-by-a-few around MAX_PACKET_SIZE)
                    s = MAX_PACKET_SIZE + (s % 3) - 1
                payloads.append(bytes([i % 251]) * s)
            for p in payloads:
                _send_large(tx, p)
            rx = PacketConn(pipe)
            for p in payloads:
                assert rx.read_packet() == p
            assert pipe.buf == b""  # nothing left over

        check()


class TestSqlAndSetup:
    """S7 text-protocol executor + S2/S3 session setup, all driven
    through the strict fixture server (no Ray needed)."""

    def _client(self, **server_kw):
        srv, cli = socket.socketpair()
        t, seen = _serve_in_thread(srv, [], **server_kw)
        c = BinlogWireClient(cli, user="repl", password="secret")
        c.handshake()
        return c, cli, t, seen

    def test_caching_sha2_fast_path(self):
        # MySQL 8 default plugin, auth-cache hit: AuthMoreData
        # fast_auth_success then OK; the full session proceeds normally
        c, cli, t, seen = self._client(
            auth_plugin="caching_sha2_password", server_version="8.0.36"
        )
        assert seen["errors"] == []
        assert seen["client_plugin"] == "caching_sha2_password"
        rows = c.query("SELECT @@global.binlog_format AS value")
        assert rows == [{"value": "ROW"}]
        cli.close()
        t.join(timeout=10)

    def test_caching_sha2_full_auth_actionable_error(self):
        srv, cli = socket.socketpair()
        t, seen = _serve_in_thread(
            srv, [], auth_plugin="caching_sha2_password", sha2_full_auth=True
        )
        c = BinlogWireClient(cli, user="repl", password="secret")
        with pytest.raises(WireError, match="full authentication.*auth cache|prime the server"):
            c.handshake()
        cli.close()
        t.join(timeout=10)
        assert "sha2_full_auth_requested" in seen["errors"]

    def test_caching_sha2_wrong_password_denied(self):
        srv, cli = socket.socketpair()
        t, seen = _serve_in_thread(srv, [], auth_plugin="caching_sha2_password")
        c = BinlogWireClient(cli, user="repl", password="WRONG")
        with pytest.raises(WireError, match="Access denied"):
            c.handshake()
        cli.close()
        t.join(timeout=10)
        assert seen["errors"] == ["auth"]

    def test_auth_switch_native_to_sha2(self):
        # greeting says native, server switches to sha2 with a fresh
        # nonce; the client must re-scramble with the NEW nonce/plugin
        c, cli, t, seen = self._client(
            auth_plugin="mysql_native_password",
            auth_switch_to="caching_sha2_password",
            server_version="8.0.36",
        )
        assert seen["errors"] == []
        cli.close()
        t.join(timeout=10)

    def test_auth_switch_sha2_to_native(self):
        c, cli, t, seen = self._client(
            auth_plugin="caching_sha2_password",
            auth_switch_to="mysql_native_password",
        )
        assert seen["errors"] == []
        cli.close()
        t.join(timeout=10)

    @pytest.mark.parametrize("tail", [b"\x00", b"\x00\x00", b"\x07\x00"])
    def test_auth_switch_nonce_with_trailing_zeros(self, tail):
        """A real server's 20-byte random switch scramble ends in 0x00
        ~1/256 of the time; the client must strip ONLY the terminator
        NUL — an rstrip would truncate the nonce and scramble to Access
        denied (regression test for exactly that bug)."""
        nonce = bytes(range(101, 121 - len(tail))) + tail
        assert len(nonce) == 20 and nonce.endswith(b"\x00")
        c, cli, t, seen = self._client(
            auth_plugin="mysql_native_password",
            auth_switch_to="mysql_native_password",
            switch_nonce=nonce,
        )
        assert seen["errors"] == []
        cli.close()
        t.join(timeout=10)

    def test_unknown_plugin_actionable_error(self):
        srv, cli = socket.socketpair()
        t, seen = _serve_in_thread(srv, [], auth_plugin="sha256_password")
        c = BinlogWireClient(cli, user="repl", password="secret")
        with pytest.raises(WireError, match="sha256_password"):
            c.handshake()
        cli.close()
        t.join(timeout=10)

    def test_resultset_typed_conversion(self):
        c, cli, t, seen = self._client(
            sql_responses={
                "SELECT mix": [
                    {"i": 7, "f": 1.5, "s": "x", "n": None},
                    {"i": -2, "f": 0.25, "s": "y", "n": None},
                ]
            }
        )
        rows = c.query("SELECT mix")
        assert rows == [
            {"i": 7, "f": 1.5, "s": "x", "n": None},
            {"i": -2, "f": 0.25, "s": "y", "n": None},
        ]
        assert isinstance(rows[0]["i"], int) and isinstance(rows[0]["f"], float)
        with pytest.raises(WireError, match="Unknown query"):
            c.execute("SELECT nope")
        cli.close()
        t.join(timeout=10)

    def test_session_setup_selects_natural_first_file(self):
        c, cli, t, seen = self._client()
        f, pos = c.session_setup()
        # natural sort of {000002, 000001, 000010} -> 000001; position is
        # validated then reset to 4 (reference parity, Connection.php:156)
        assert (f, pos) == ("binlog.000001", 4)
        assert c.flags == 0  # annotate_row_events = 0
        assert c.master_status == [{"File": "binlog.000002", "Position": 4}]
        # the whole reference constructor sequence went over the wire
        cli.close()
        t.join(timeout=10)
        qs = seen["queries"]
        assert qs[0].startswith("SET NAMES")
        assert "SHOW BINARY LOGS" in qs
        assert "SET @master_binlog_checksum = @@global.binlog_checksum" in qs
        assert "SET @mariadb_slave_capability=4" in qs  # MariaDB branch
        assert any(q.startswith("SET @master_heartbeat_period") for q in qs)

    def test_mysql_flavor_skips_mariadb_vars(self):
        # non-MariaDB server: no @mariadb_slave_capability / gtid SETs,
        # no annotate query, flags stay 0
        c, cli, t, seen = self._client(server_version="8.0.36")
        f, pos = c.session_setup()
        assert (f, pos) == ("binlog.000001", 4)
        assert c.flags == 0
        cli.close()
        t.join(timeout=10)
        qs = seen["queries"]
        assert not any("mariadb" in q or "gtid" in q for q in qs)
        assert not any("annotate" in q for q in qs)

    def test_empty_password_sends_empty_auth(self):
        srv, cli = socket.socketpair()
        t, seen = _serve_in_thread(srv, [], password="")
        c = BinlogWireClient(cli, user="repl", password="")
        c.handshake()  # raises if the server rejects the empty auth
        cli.close()
        t.join(timeout=10)
        # server verified the (empty) scramble and moved past auth; the
        # client hanging up afterwards is the expected session end here
        assert seen["errors"] == []
        assert seen["user"] == "repl"

    def test_validation_failure_raises(self):
        c, cli, t, seen = self._client(
            sql_responses={
                "SELECT @@global.binlog_format AS value": [{"value": "STATEMENT"}]
            }
        )
        with pytest.raises(WireError, match="binlog_format=ROW"):
            c.session_setup()
        cli.close()
        t.join(timeout=10)

    def test_missing_requested_file_raises(self):
        c, cli, t, seen = self._client()
        with pytest.raises(WireError, match="not found on server"):
            c.session_setup(binlog_file="binlog.999999")
        cli.close()
        t.join(timeout=10)

    def test_annotate_flag_set_for_mariadb(self):
        from mysql_binlog_ray.sources.wire import BINLOG_SEND_ANNOTATE_ROWS_EVENT

        c, cli, t, seen = self._client(
            sql_responses={
                "SELECT @@global.binlog_annotate_row_events AS value": [
                    {"value": "1"}
                ]
            }
        )
        c.session_setup()
        assert c.flags & BINLOG_SEND_ANNOTATE_ROWS_EVENT
        cli.close()
        t.join(timeout=10)


@pytest.mark.usefixtures("ray_session")
class TestWireSession:
    def test_full_session_feeds_standard_pipeline(self, small_stream, tmp_path):
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import CdcConfig, run_to_dataset

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )

        srv, cli = socket.socketpair()
        t, seen = _serve_in_thread(srv, payloads, heartbeat_every=7)
        client = BinlogWireClient(cli, user="repl", password="secret", slave_id=123)
        spool = str(tmp_path / "wire_shards")
        res = tail_to_shards(client, spool, shard_events=64, binlog_file="binlog.000001")
        cli.close()
        t.join(timeout=30)

        assert "exception" not in seen, seen
        # the server saw exactly what the client was configured to send
        assert seen["user"] == "repl"
        assert seen["slave_id"] == seen["dump_slave_id"] == 123
        assert seen["register"] == ["localhost", "repl", "secret"]
        assert seen["binlog_file"] == "binlog.000001"
        assert seen["pos"] == 4
        # every event arrived; heartbeats were counted and skipped
        assert res["events"] == seen["events_sent"] == len(payloads)
        assert res["heartbeats"] == (len(payloads) - 1) // 7
        # the spooled shards run the UNCHANGED distributed pipeline and
        # reproduce the same final state as the original parquet shards
        wire_manifest = dict(manifest, shards=res["shards"])
        # value columns only: the wire tail renumbers event_seq (its own
        # contiguous spool order), so lineage columns legitimately differ
        value_cols = ["repo", "path", "commit", "lang", "content", "stars"]

        def final(mf):
            df = run_to_dataset(mf, CdcConfig(num_partitions=4)).to_pandas()
            return (
                df[[c for c in value_cols if c in df.columns]]
                .sort_values(["repo", "path"])
                .reset_index(drop=True)
            )

        assert final(manifest).equals(final(wire_manifest))

    def test_reconnect_resume_tail_plus_follow_equals_single_shot(
        self, small_stream, tmp_path
    ):
        """The production loop: tail a session, ingest, the connection
        drops, a NEW session resumes the dump from the saved position,
        the spool keeps numbering, follow() ingests the increment — the
        lake equals a single-shot run (value columns; the lake watermark
        makes the second ingest exactly-once)."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            follow,
            read_lake,
            run_to_lake,
        )
        from mysql_binlog_ray.sources.wire import spool_shards, spool_state

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )
        k = len(payloads) // 2
        spool = str(tmp_path / "spool")
        lake = str(tmp_path / "lake")
        cfg = CdcConfig(num_partitions=4)

        # session 1: first half of the dump
        srv, cli = socket.socketpair()
        t, _ = _serve_in_thread(srv, payloads[:k])
        c1 = BinlogWireClient(cli, user="repl", password="secret")
        r1 = tail_to_shards(c1, spool, shard_events=64)
        cli.close()
        t.join(timeout=30)
        run_to_lake(dict(manifest, shards=spool_shards(spool)), lake, cfg)

        # session 2 (reconnect): the rest, spliced into the same spool
        assert spool_state(spool) == (len(r1["shards"]), k)
        srv, cli = socket.socketpair()
        t, _ = _serve_in_thread(srv, payloads[k:])
        c2 = BinlogWireClient(cli, user="repl", password="secret")
        r2 = tail_to_shards(c2, spool, shard_events=64, resume=True)
        cli.close()
        t.join(timeout=30)
        assert r2["next_event_seq"] == len(payloads)
        follow(dict(manifest, shards=spool_shards(spool)), lake, cfg)

        # single-shot reference lake over the original parquet shards
        lake_ref = str(tmp_path / "lake_ref")
        run_to_lake(manifest, lake_ref, cfg)
        cols = ["repo", "path", "commit", "lang", "content", "stars"]

        def snap(d):
            df = read_lake(d).to_pandas()
            return (
                df[[c for c in cols if c in df.columns]]
                .sort_values(["repo", "path"])
                .reset_index(drop=True)
            )

        assert snap(lake).equals(snap(lake_ref))

    def test_full_replay_resume_skips_spooled_prefix(
        self, small_stream, tmp_path
    ):
        """Reference reconnect semantics: the dump restarts at position
        4 and replays EVERYTHING; skip_events drops the already-spooled
        prefix so nothing is double-counted or renumbered."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.sources.wire import spool_shards, spool_state

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )
        k = len(payloads) // 3
        spool = str(tmp_path / "spool_replay")

        srv, cli = socket.socketpair()
        t, _ = _serve_in_thread(srv, payloads[:k])
        c1 = BinlogWireClient(cli, user="repl", password="secret")
        tail_to_shards(c1, spool, shard_events=64)
        cli.close()
        t.join(timeout=30)

        # reconnect: server replays the FULL stream from the start
        _, next_seq = spool_state(spool)
        srv, cli = socket.socketpair()
        t, _ = _serve_in_thread(srv, payloads)
        c2 = BinlogWireClient(cli, user="repl", password="secret")
        r2 = tail_to_shards(
            c2, spool, shard_events=64, resume=True, skip_events=next_seq
        )
        cli.close()
        t.join(timeout=30)

        assert r2["skipped"] == k
        assert r2["events"] == len(payloads) - k
        entries = spool_shards(spool)
        total = sum(e["events"] for e in entries)
        assert total == len(payloads)  # no duplicates, no gaps
        seqs = []
        for e in entries:
            seqs.extend(
                pq.read_table(e["path"], columns=["event_seq"])["event_seq"].to_pylist()
            )
        assert sorted(seqs) == list(range(len(payloads)))
        # and the spooled payload BYTES equal the original stream in order
        by_seq = {}
        for e in entries:
            t2 = pq.read_table(e["path"])
            for s_, p_ in zip(
                t2["event_seq"].to_pylist(), t2["payload"].to_pylist()
            ):
                by_seq[s_] = p_
        assert [by_seq[i] for i in range(len(payloads))] == payloads

    def test_live_tail_with_concurrent_follow_daemon(self, small_stream, tmp_path):
        """The full streaming loop, all concurrent: socket -> spool
        (manifest republished per flush) -> FollowDaemon -> exactly-once
        lake.  The daemon ingests WHILE the tail runs; the final lake
        equals a single-shot batch run."""
        import time

        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            follow,
            read_lake,
            run_to_lake,
        )
        from mysql_binlog_ray.pipelines.tailer import FollowDaemon

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )
        meta = {k: v for k, v in manifest.items() if k != "shards"}
        spool = str(tmp_path / "live_spool")
        lake = str(tmp_path / "live_lake")
        cfg = CdcConfig(num_partitions=4)

        def throttled():
            for i, p in enumerate(payloads):
                if i and i % 400 == 0:
                    time.sleep(0.3)  # give the daemon time to overlap
                yield p

        srv, cli = socket.socketpair()
        t, seen = _serve_in_thread(srv, throttled())
        daemon = FollowDaemon(
            manifest_path=f"{spool}/manifest.json",
            lake_dir=lake,
            cfg=cfg,
            interval_sec=0.1,
        )
        dt = threading.Thread(target=daemon.run, daemon=True)
        dt.start()
        client = BinlogWireClient(cli, user="repl", password="secret")
        res = tail_to_shards(
            client, spool, shard_events=64, manifest_extra=meta
        )
        cli.close()
        t.join(timeout=60)
        time.sleep(0.5)
        daemon.stop()
        dt.join(timeout=60)
        assert res["events"] == len(payloads)
        # deterministic catch-up: one final synchronous follow
        follow(dict(meta, shards=res["shards"]), lake, cfg)

        lake_ref = str(tmp_path / "live_lake_ref")
        run_to_lake(manifest, lake_ref, cfg)
        cols = ["repo", "path", "commit", "lang", "content", "stars"]

        def snap(d):
            df = read_lake(d).to_pandas()
            return (
                df[[c for c in cols if c in df.columns]]
                .sort_values(["repo", "path"])
                .reset_index(drop=True)
            )

        assert snap(lake).equals(snap(lake_ref))

    def test_server_crash_mid_event_then_resume_exact(self, small_stream, tmp_path):
        """Production crash story: the server dies halfway through an
        event frame.  The tail RAISES (a silent truncation would commit
        a hole), the spool keeps only complete shards, and a resumed
        session with skip_events replays to an exact lake."""
        import struct

        import pyarrow.parquet as pq

        from mysql_binlog_ray.fixtures.wire_server import serve_session
        from mysql_binlog_ray.pipelines.cdc import CdcConfig, read_lake, run_to_lake
        from mysql_binlog_ray.sources.wire import spool_shards, spool_state

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )
        k = len(payloads) * 2 // 3
        meta = {k2: v for k2, v in manifest.items() if k2 != "shards"}
        spool = str(tmp_path / "spool_crash")

        def crashing_server(sock):
            # serve the first k events normally, then die mid-frame
            try:
                seen: dict = {}
                serve_session(sock, payloads[:k], seen=seen)
                # hand-craft a TRUNCATED frame: full header promising
                # more bytes than we send, then hard close
                frame = struct.pack("<I", 100)[:3] + bytes([99]) + b"\x00partial"
                sock.sendall(frame)
            finally:
                sock.close()

        srv, cli = socket.socketpair()
        t = threading.Thread(target=crashing_server, args=(srv,), daemon=True)
        t.start()
        c1 = BinlogWireClient(cli, user="repl", password="secret")
        with pytest.raises(WireError, match="mid-read"):
            tail_to_shards(c1, spool, shard_events=32, manifest_extra=meta)
        cli.close()
        t.join(timeout=30)

        # only COMPLETE shards were committed; nothing partial
        entries = spool_shards(spool)
        n_spooled = sum(e["events"] for e in entries)
        assert n_spooled <= k
        assert n_spooled % 32 == 0  # whole shards only
        seqs = [e["last_event_seq"] for e in entries]
        assert max(seqs) == n_spooled - 1  # contiguous, no holes

        # reconnect: full replay from the start, skip what's committed
        _, next_seq = spool_state(spool)
        srv, cli = socket.socketpair()
        t, _ = _serve_in_thread(srv, payloads)
        c2 = BinlogWireClient(cli, user="repl", password="secret")
        tail_to_shards(
            c2, spool, shard_events=32, resume=True, skip_events=next_seq
        )
        cli.close()
        t.join(timeout=30)

        lake = str(tmp_path / "lake_crash")
        lake_ref = str(tmp_path / "lake_crash_ref")
        cfg = CdcConfig(num_partitions=4)
        run_to_lake(dict(meta, shards=spool_shards(spool)), lake, cfg)
        run_to_lake(manifest, lake_ref, cfg)
        cols = ["repo", "path", "commit", "lang", "content", "stars"]

        def snap(d):
            df = read_lake(d).to_pandas()
            return (
                df[[c for c in cols if c in df.columns]]
                .sort_values(["repo", "path"])
                .reset_index(drop=True)
            )

        assert snap(lake).equals(snap(lake_ref))

    def test_purge_spool_then_resume_still_exact(self, small_stream, tmp_path):
        """PURGE BINARY LOGS analog: shards fully below the lake
        watermark are deleted (manifest republished FIRST), the newest
        shard always survives to carry the numbering, and a resumed
        tail + follow after the purge still reproduces the single-shot
        lake."""
        import json
        import os

        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            follow,
            read_lake,
            run_to_lake,
        )
        from mysql_binlog_ray.sources.wire import purge_spool, spool_shards

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )
        k = len(payloads) // 2
        meta = {k2: v for k2, v in manifest.items() if k2 != "shards"}
        spool = str(tmp_path / "spool_purge")
        lake = str(tmp_path / "lake_purge")
        cfg = CdcConfig(num_partitions=4)

        srv, cli = socket.socketpair()
        t, _ = _serve_in_thread(srv, payloads[:k])
        c1 = BinlogWireClient(cli, user="repl", password="secret")
        tail_to_shards(c1, spool, shard_events=32, manifest_extra=meta)
        cli.close()
        t.join(timeout=30)
        run_to_lake(dict(meta, shards=spool_shards(spool)), lake, cfg)

        from mysql_binlog_ray.state.checkpoint import read_manifest

        wm = read_manifest(lake)["watermark"]
        res = purge_spool(spool, wm)
        assert res["purged"] > 0 and res["freed_bytes"] > 0
        # manifest agrees with the surviving files, newest shard kept
        with open(f"{spool}/manifest.json") as f:
            m2 = json.load(f)
        on_disk = {e["shard_id"] for e in spool_shards(spool)}
        assert {s["shard_id"] for s in m2["shards"]} == on_disk
        assert max(on_disk) == max(
            e["shard_id"] for e in m2["shards"]
        )  # numbering high-water mark survives
        for s in m2["shards"]:
            assert os.path.exists(s["path"])
        # idempotent re-purge
        assert purge_spool(spool, wm)["purged"] == 0

        # resume the tail and catch the lake up: still exact — and the
        # resumed session's publish() must NOT resurrect purged paths
        # (it filters through the _purge.json watermark sidecar)
        srv, cli = socket.socketpair()
        t, _ = _serve_in_thread(srv, payloads[k:])
        c2 = BinlogWireClient(cli, user="repl", password="secret")
        tail_to_shards(c2, spool, shard_events=32, resume=True)
        cli.close()
        t.join(timeout=30)
        with open(f"{spool}/manifest.json") as f:
            m3 = json.load(f)
        for s in m3["shards"]:
            assert os.path.exists(s["path"]), "manifest references a purged file"
            assert s["last_event_seq"] > wm  # nothing at/below the purge line
        follow(dict(meta, shards=spool_shards(spool)), lake, cfg)

        lake_ref = str(tmp_path / "lake_purge_ref")
        run_to_lake(manifest, lake_ref, cfg)
        cols = ["repo", "path", "commit", "lang", "content", "stars"]

        def snap(d):
            df = read_lake(d).to_pandas()
            return (
                df[[c for c in cols if c in df.columns]]
                .sort_values(["repo", "path"])
                .reset_index(drop=True)
            )

        assert snap(lake).equals(snap(lake_ref))

    def test_replay_of_purged_spool_fails_closed(self, small_stream, tmp_path):
        """After a purge the spool's ``manifest.json`` records
        ``purged_through``, and a replay that would need the purged
        shards (a fresh lake, ``state_as_of``) raises instead of
        answering with the retained shards' partial state; a later tail
        session keeps the record even when it publishes with its own
        ``manifest_extra``."""
        import json

        from mysql_binlog_ray.pipelines.cdc import CdcConfig, follow, run_to_lake, state_as_of
        from mysql_binlog_ray.sources.wire import purge_spool, spool_shards
        from mysql_binlog_ray.state.checkpoint import read_manifest

        _spec, _out, manifest = small_stream
        payloads = _stream_payloads(manifest)
        meta = {k: v for k, v in manifest.items() if k != "shards"}
        spool, lake, fresh = (str(tmp_path / d) for d in ("spool", "lake", "fresh"))
        cfg = CdcConfig(num_partitions=4)
        k = len(payloads) // 2
        _tail_session(spool, payloads[:k], shard_events=32, manifest_extra=meta)
        wm = run_to_lake(dict(meta, shards=spool_shards(spool)), lake, cfg)["watermark"]
        assert purge_spool(spool, wm)["purged"] > 0

        def spool_manifest():
            with open(f"{spool}/manifest.json") as f:
                return json.load(f)

        assert spool_manifest()["purged_through"] == wm
        _tail_session(spool, payloads[k:], shard_events=32, resume=True, manifest_extra=meta)
        purged = spool_manifest()
        assert purged["purged_through"] == wm
        with pytest.raises(ValueError, match=f"purged through event_seq {wm}"):
            follow(purged, fresh, cfg)
        assert read_manifest(fresh) is None
        with pytest.raises(ValueError, match="purged"):
            state_as_of(purged, wm + 1, cfg)
        # a lake at the purge line resumes
        assert follow(purged, lake, cfg)["watermark"] > wm

    def test_manifest_from_spool_shards_fails_closed_after_purge(self, small_stream, tmp_path):
        """A spool tailed without ``manifest_extra`` has no
        ``manifest.json``; a manifest assembled from ``spool_shards``
        after ``purge_spool`` carries the purge line on its first entry,
        so a fresh replay raises instead of committing the retained
        shards' partial state, and a lake at the line still resumes."""
        import os

        from mysql_binlog_ray.pipelines.cdc import CdcConfig, follow, run_to_lake
        from mysql_binlog_ray.sources.wire import purge_spool, spool_shards
        from mysql_binlog_ray.state.checkpoint import read_manifest

        _spec, _out, manifest = small_stream
        meta = {k: v for k, v in manifest.items() if k != "shards"}
        spool, lake, fresh = (str(tmp_path / d) for d in ("spool", "lake", "fresh"))
        cfg = CdcConfig(num_partitions=4)
        _tail_session(spool, _stream_payloads(manifest), shard_events=32)
        assert not os.path.exists(f"{spool}/manifest.json")
        shards = spool_shards(spool)
        assert all("purged_through" not in e for e in shards)
        wm = run_to_lake(dict(meta, shards=shards[: len(shards) // 2]), lake, cfg)["watermark"]
        assert purge_spool(spool, wm)["purged"] > 0
        after = dict(meta, shards=spool_shards(spool))
        assert after["shards"][0]["purged_through"] == wm
        with pytest.raises(ValueError, match=f"purged through event_seq {wm}"):
            run_to_lake(after, fresh, cfg)
        assert read_manifest(fresh) is None
        assert follow(after, lake, cfg)["watermark"] > wm

    def test_resumed_tail_keeps_publishing_prior_manifest(
        self, small_stream, tmp_path
    ):
        """A resumed tail run WITHOUT manifest_extra must keep the
        spool's manifest.json current using the prior session's
        metadata — a stale manifest would freeze a FollowDaemon at the
        old shard list forever, silently."""
        import json

        import pyarrow.parquet as pq

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )
        k = len(payloads) // 2
        meta = {k2: v for k2, v in manifest.items() if k2 != "shards"}
        spool = str(tmp_path / "spool_manifest")

        srv, cli = socket.socketpair()
        t, _ = _serve_in_thread(srv, payloads[:k])
        c1 = BinlogWireClient(cli, user="repl", password="secret")
        tail_to_shards(c1, spool, shard_events=64, manifest_extra=meta)
        cli.close()
        t.join(timeout=30)

        srv, cli = socket.socketpair()
        t, _ = _serve_in_thread(srv, payloads[k:])
        c2 = BinlogWireClient(cli, user="repl", password="secret")
        tail_to_shards(c2, spool, shard_events=64, resume=True)  # no meta
        cli.close()
        t.join(timeout=30)

        with open(f"{spool}/manifest.json") as f:
            m2 = json.load(f)
        assert sum(s["events"] for s in m2["shards"]) == len(payloads)
        assert "table_maps" in m2  # prior metadata carried forward

    def test_giant_event_reassembles_through_session(self, tmp_path):
        # one synthetic >16MB "event" packet exercises server-side split
        # + client-side reassembly inside a real session
        giant = b"\x00" + b"\x42" * (MAX_PACKET_SIZE + 1234)
        srv, cli = socket.socketpair()
        t, seen = _serve_in_thread(srv, [giant])
        client = BinlogWireClient(cli, user="repl", password="secret")
        client.handshake()
        client.register_slave()
        client.dump_binlog("binlog.000001")
        got = list(client.events())
        cli.close()
        t.join(timeout=30)
        assert "exception" not in seen, seen
        assert len(got) == 1 and got[0] == giant

    def test_wrong_password_is_access_denied(self):
        srv, cli = socket.socketpair()
        t, seen = _serve_in_thread(srv, [], password="other")
        client = BinlogWireClient(cli, user="repl", password="secret")
        with pytest.raises(WireError, match="Access denied") as ei:
            client.handshake()
        assert ei.value.code == 1045
        cli.close()
        t.join(timeout=30)


class TestSpoolDurability:
    def test_every_spooled_shard_is_fsynced(self, small_stream, tmp_path, monkeypatch):
        """Each ``events-*.parquet`` the tail spools is fsync'd before its
        rename (the inode the tail fsync'd is the one left in place), so
        a power loss cannot drop a shard a lake watermark has passed;
        ``spool_shards`` ignores the writer's ``.events-`` temp names."""
        import glob
        import os

        import pyarrow.parquet as pq

        from mysql_binlog_ray.sources.wire import spool_shards

        spec, out, manifest = small_stream
        payloads = [
            p
            for s in manifest["shards"]
            for p in pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
        ][:150]
        synced = set()
        real_fsync = os.fsync

        def fsync(fd):
            synced.add(os.fstat(fd).st_ino)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        srv, cli = socket.socketpair()
        t, seen = _serve_in_thread(srv, payloads)
        spool = str(tmp_path / "spool")
        client = BinlogWireClient(cli, user="repl", password="secret")
        res = tail_to_shards(client, spool, shard_events=64)
        cli.close()
        t.join(timeout=30)
        assert not t.is_alive() and "exception" not in seen, seen

        files = sorted(glob.glob(os.path.join(spool, "events-*.parquet")))
        assert len(files) == len(res["shards"]) == 3
        assert all(os.stat(f).st_ino in synced for f in files)
        open(os.path.join(spool, ".events-00099.parquet-stray"), "wb").close()
        assert [e["path"] for e in spool_shards(spool)] == files


def _column_spool_shards(out_dir):
    """Reference listing: every shard's ``event_seq`` column read in
    full (the definition before footers replaced it), the first entry
    carrying a purged spool's ``_purge.json`` watermark as
    ``purged_through``."""
    import json
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    out = []
    if not os.path.isdir(out_dir):
        return out
    for f in sorted(os.listdir(out_dir)):
        if not (f.startswith("events-") and f.endswith(".parquet")):
            continue
        path = os.path.join(out_dir, f)
        t = pq.read_table(path, columns=["event_seq"])
        if t.num_rows == 0:
            continue
        out.append(
            {
                "shard_id": int(f[len("events-") : -len(".parquet")]),
                "path": path,
                "events": t.num_rows,
                "first_event_seq": int(pc.min(t.column("event_seq")).as_py()),
                "last_event_seq": int(pc.max(t.column("event_seq")).as_py()),
            }
        )
    purge = os.path.join(out_dir, "_purge.json")
    if out and os.path.exists(purge):
        with open(purge) as f:
            out[0]["purged_through"] = json.load(f)["purge_watermark"]
    return out


def _column_spool_state(out_dir):
    entries = _column_spool_shards(out_dir)
    if not entries:
        return 0, 0
    return (
        max(e["shard_id"] for e in entries) + 1,
        max(e["last_event_seq"] for e in entries) + 1,
    )


def _stream_payloads(manifest):
    import pyarrow.parquet as pq

    return [
        p
        for s in manifest["shards"]
        for p in pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
    ]


def _tail_session(spool, payloads, **kw):
    srv, cli = socket.socketpair()
    t, seen = _serve_in_thread(srv, payloads)
    client = BinlogWireClient(cli, user="repl", password="secret")
    res = tail_to_shards(client, spool, **kw)
    cli.close()
    t.join(timeout=30)
    assert not t.is_alive() and "exception" not in seen, seen
    return res


class _ShardOpenSpy:
    """Records every spooled shard opened through ``pq.ParquetFile`` or
    ``pq.read_table`` (by file name) while installed."""

    def __init__(self, monkeypatch):
        import os

        import pyarrow.parquet as pq

        self.footers: list[str] = []
        self.tables: list[str] = []
        real_file, real_read = pq.ParquetFile, pq.read_table

        def parquet_file(source, *a, **kw):
            self.footers.append(os.path.basename(str(source)))
            return real_file(source, *a, **kw)

        def read_table(source, *a, **kw):
            self.tables.append(os.path.basename(str(source)))
            return real_read(source, *a, **kw)

        monkeypatch.setattr(pq, "ParquetFile", parquet_file)
        monkeypatch.setattr(pq, "read_table", read_table)

    def clear(self):
        self.footers.clear()
        self.tables.clear()


class TestSpoolFooterResume:
    """A resumed tail session reads the newest shard's footer only, and
    ``spool_shards`` / ``spool_state`` built from footers return exactly
    what reading every shard's ``event_seq`` column returns."""

    N_SESSIONS = 21

    def _assert_column_equal(self, spool):
        from mysql_binlog_ray.sources.wire import spool_shards, spool_state

        assert spool_shards(spool) == _column_spool_shards(spool)
        assert spool_state(spool) == _column_spool_state(spool)

    def _sessions(self, spool, payloads, spy=None, **kw):
        """One resumed tail session per increment, as a benchmark follow
        loop runs them; with ``spy``, returns each session's opens."""
        step = len(payloads) // self.N_SESSIONS
        opens = []
        for i in range(self.N_SESSIONS):
            if spy is not None:
                spy.clear()
            _tail_session(
                spool, payloads[i * step : (i + 1) * step], shard_events=1 << 30, resume=True, **kw
            )
            if spy is not None:
                opens.append((list(spy.footers), list(spy.tables)))
        return opens

    def test_resumed_session_opens_one_shard(self, small_stream, tmp_path, monkeypatch):
        _spec, _out, manifest = small_stream
        spool = str(tmp_path / "spool")
        spy = _ShardOpenSpy(monkeypatch)
        opens = self._sessions(spool, _stream_payloads(manifest), spy)
        assert opens[0] == ([], [])  # an empty spool has no shard to open
        for i, (footers, tables) in enumerate(opens[1:]):
            # whatever the spool's size, only the newest shard's footer
            assert footers == [f"events-{i:05d}.parquet"]
            assert tables == []
        self._assert_column_equal(spool)

    def test_publishing_session_reads_each_footer_once(
        self, small_stream, tmp_path, monkeypatch
    ):
        import json

        _spec, _out, manifest = small_stream
        meta = {k: v for k, v in manifest.items() if k != "shards"}
        payloads = _stream_payloads(manifest)
        spool = str(tmp_path / "spool")
        self._sessions(spool, payloads, manifest_extra=meta)
        n = self.N_SESSIONS
        spy = _ShardOpenSpy(monkeypatch)
        # one session with manifest_extra, one resolving it from the
        # prior manifest.json
        for i, kw in enumerate(({"manifest_extra": meta}, {})):
            spy.clear()
            _tail_session(spool, payloads[i : i + 5], shard_events=1 << 30, resume=True, **kw)
            # the prior manifest names the newest shard: only its footer
            assert spy.footers == [f"events-{n + i - 1:05d}.parquet"]
            assert spy.tables == []
        monkeypatch.undo()
        with open(f"{spool}/manifest.json") as f:
            assert json.load(f)["shards"] == _column_spool_shards(spool)
        self._assert_column_equal(spool)

    def test_unpublished_shard_lists_every_footer(self, small_stream, tmp_path, monkeypatch):
        """A crash between a shard write and its publish leaves a manifest
        whose last entry is not the newest shard: the next publishing
        session lists the prior shards from their footers, so its
        manifest names every shard."""
        import json

        _spec, _out, manifest = small_stream
        meta = {k: v for k, v in manifest.items() if k != "shards"}
        payloads = _stream_payloads(manifest)
        spool = str(tmp_path / "spool")
        _tail_session(spool, payloads[:40], shard_events=16, manifest_extra=meta)
        with open(f"{spool}/manifest.json") as f:
            published = json.load(f)
        published["shards"].pop()
        with open(f"{spool}/manifest.json", "w") as f:
            json.dump(published, f)
        spy = _ShardOpenSpy(monkeypatch)
        _tail_session(spool, payloads[40:60], shard_events=16, resume=True)
        assert sorted(set(spy.footers)) == [f"events-{k:05d}.parquet" for k in range(3)]
        assert spy.tables == []
        monkeypatch.undo()
        with open(f"{spool}/manifest.json") as f:
            assert json.load(f)["shards"] == _column_spool_shards(spool)

    def test_fresh_and_replay_resumed_spools(self, small_stream, tmp_path):
        from mysql_binlog_ray.sources.wire import spool_state

        _spec, _out, manifest = small_stream
        payloads = _stream_payloads(manifest)
        k = len(payloads) // 3
        spool = str(tmp_path / "spool")
        _tail_session(spool, payloads[:k], shard_events=64)
        self._assert_column_equal(spool)
        # the dump replays from the start: skip the spooled prefix
        _, next_seq = spool_state(spool)
        assert next_seq == k
        _tail_session(spool, payloads, shard_events=64, resume=True, skip_events=next_seq)
        self._assert_column_equal(spool)

    def test_purged_spool_and_stray_temp_file(self, small_stream, tmp_path):
        import os

        from mysql_binlog_ray.sources.wire import purge_spool

        _spec, _out, manifest = small_stream
        payloads = _stream_payloads(manifest)
        spool = str(tmp_path / "spool")
        _tail_session(spool, payloads[:400], shard_events=32)
        assert purge_spool(spool, 10**9)["purged"] > 0  # all but the newest
        self._assert_column_equal(spool)
        open(os.path.join(spool, ".events-00099.parquet-stray"), "wb").close()
        self._assert_column_equal(spool)
        _tail_session(spool, payloads[400:500], shard_events=32, resume=True)
        self._assert_column_equal(spool)

    def test_empty_newest_shard_and_statistics_fallback(self, small_stream, tmp_path):
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from mysql_binlog_ray.sources.wire import spool_state

        _spec, _out, manifest = small_stream
        payloads = _stream_payloads(manifest)
        spool = str(tmp_path / "spool")
        _tail_session(spool, payloads[:200], shard_events=64)
        first = pq.read_table(os.path.join(spool, "events-00000.parquet"))
        # the walk steps past an empty newest shard
        pq.write_table(first.slice(0, 0), os.path.join(spool, "events-00007.parquet"))
        self._assert_column_equal(spool)

        def shard(sid, lo, n):
            return pa.table(
                {
                    "shard_id": pa.array([sid] * n, pa.int32()),
                    "event_seq": pa.array(range(lo, lo + n), pa.int64()),
                    "payload": first["payload"].slice(0, n),
                }
            )

        # several row groups with statistics, then one shard without
        path8 = os.path.join(spool, "events-00008.parquet")
        pq.write_table(shard(8, 200, 50), path8, row_group_size=7)
        self._assert_column_equal(spool)
        path9 = os.path.join(spool, "events-00009.parquet")
        pq.write_table(shard(9, 250, 40), path9, write_statistics=False)
        assert pq.ParquetFile(path9).metadata.row_group(0).column(1).statistics is None
        self._assert_column_equal(spool)
        assert spool_state(spool) == (10, 290)

    def test_empty_and_missing_spool_dirs(self, tmp_path):
        from mysql_binlog_ray.sources.wire import spool_shards, spool_state

        empty = tmp_path / "empty"
        empty.mkdir()
        for d in (str(empty), str(tmp_path / "missing")):
            self._assert_column_equal(d)
            assert spool_shards(d) == [] and spool_state(d) == (0, 0)


class TestDaemonCli:
    """The long-lived listener CLI (`python -m mysql_binlog_ray.daemon`)
    over REAL TCP: tail a fixture server into a spool (manifest gains
    the scanned in-band TABLE_MAP snapshot), then follow the spool into
    an exactly-once lake and match the direct pipeline's final state."""

    def test_tail_then_follow_over_tcp(
        self, small_stream, tmp_path, ray_session, capsys
    ):
        import json
        import os

        import pyarrow.parquet as pq

        from mysql_binlog_ray import daemon
        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            read_lake,
            run_to_dataset,
        )

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )

        lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lsock.bind(("127.0.0.1", 0))
        lsock.listen(1)
        port = lsock.getsockname()[1]
        seen: dict = {}

        def serve():
            try:
                conn, _ = lsock.accept()
            except Exception as e:
                seen["exception"] = repr(e)
                return
            try:
                serve_session(conn, payloads, seen=seen)
            except Exception as e:
                seen["exception"] = repr(e)
            finally:
                conn.close()
                lsock.close()

        t = threading.Thread(target=serve, daemon=True)
        t.start()

        spool = str(tmp_path / "spool")
        rc = daemon.main(
            [
                "tail",
                "--host", "127.0.0.1",
                "--port", str(port),
                "--user", "repl",
                "--password", "secret",
                "--out-dir", spool,
                "--binlog-file", "binlog.000001",
                "--shard-events", "64",
            ]
        )
        t.join(timeout=30)
        assert rc == 0
        assert "exception" not in seen, seen
        assert seen["user"] == "repl"

        with open(os.path.join(spool, "manifest.json")) as f:
            spool_man = json.load(f)
        assert spool_man["shards"]
        # the scanned in-band snapshot reproduces the generator's
        # published layouts (latest per table_id)
        gen_by_id = {d["table_id"]: d for d in manifest["table_maps"]}
        assert spool_man["table_maps"], "tail must scan in-band TABLE_MAPs"
        for d in spool_man["table_maps"]:
            ref = gen_by_id[d["table_id"]]
            assert d["columns"] == ref["columns"]
            assert (d["schema_name"], d["table_name"]) == (
                ref["schema_name"], ref["table_name"],
            )

        lake = str(tmp_path / "lake")
        rc = daemon.main(
            [
                "follow",
                "--manifest", os.path.join(spool, "manifest.json"),
                "--lake", lake,
                "--max-iterations", "1",
                "--interval", "0.01",
                "--num-partitions", "4",
            ]
        )
        assert rc == 0
        stats_line = [
            json.loads(l)
            for l in capsys.readouterr().out.splitlines()
            if l.startswith("{")
        ]
        assert stats_line, "follow must emit stats JSON"

        value_cols = ["repo", "path", "commit", "lang", "content", "stars"]
        got = (
            read_lake(lake)
            .to_pandas()[value_cols]
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        ref = (
            run_to_dataset(manifest, CdcConfig(num_partitions=4))
            .to_pandas()[value_cols]
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        assert got.equals(ref)


class TestInStreamMapScan:
    """tail_to_shards publishes the scanned in-band TABLE_MAP snapshot
    with every manifest flush (a concurrent follower needs it — real
    streams carry maps only in-band)."""

    @staticmethod
    def _tail_manifest(manifest, tmp_path):
        """Serve the stream over the wire into a spool that publishes
        its scanned maps; returns the published manifest."""
        import json
        import os

        import pyarrow.parquet as pq

        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )
        srv, cli = socket.socketpair()
        t, seen = _serve_in_thread(srv, payloads)
        client = BinlogWireClient(cli, user="repl", password="secret")
        spool = str(tmp_path / "spool")
        tail_to_shards(
            client, spool, shard_events=64, binlog_file="binlog.000001",
            manifest_extra={},
        )
        cli.close()
        t.join(timeout=30)
        assert "exception" not in seen, seen
        with open(os.path.join(spool, "manifest.json")) as f:
            return json.load(f)

    def test_manifest_gains_table_maps_in_stream(self, small_stream, tmp_path):
        spec, out, manifest = small_stream
        man = self._tail_manifest(manifest, tmp_path)
        gen_by_id = {d["table_id"]: d for d in manifest["table_maps"]}
        assert man["table_maps"], "in-stream scan must publish maps"
        for d in man["table_maps"]:
            assert d["columns"] == gen_by_id[d["table_id"]]["columns"]

    def test_scan_table_maps_equals_tail_scan(self, small_stream, tmp_path):
        """The spool-side scan (``scan_table_maps``, the daemon's
        fallback for a manifest without maps) over the spooled shards
        finds exactly the maps the tail published while spooling."""
        import json

        from mysql_binlog_ray.sources.wire import scan_table_maps

        spec, out, manifest = small_stream
        man = self._tail_manifest(manifest, tmp_path)
        scanned = scan_table_maps([s["path"] for s in man["shards"]])
        assert len(scanned) >= 2  # the stream's ALTER re-maps the table
        assert json.loads(json.dumps(scanned)) == man["table_maps"]

    def test_follow_daemon_skips_snapshotless_manifest(self, tmp_path, ray_session):
        """A manifest without table_maps (tail hasn't seen a TABLE_MAP
        yet, or a pre-scan producer) must be treated like a mid-publish:
        skip the tick, don't crash with KeyError — and, because the
        manifest parsed CLEANLY (healthy-but-idle stream), the wait must
        NOT consume the consecutive-error abort budget: more ticks than
        max_consecutive_errors must not abort."""
        import json

        from mysql_binlog_ray.pipelines.tailer import FollowDaemon

        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"shards": []}))
        daemon = FollowDaemon(
            manifest_path=str(mpath),
            lake_dir=str(tmp_path / "lake"),
            interval_sec=0.001,
            max_consecutive_errors=3,
        )
        # 10 snapshotless ticks > budget of 3: healthy idle, no abort
        history = daemon.run(max_iterations=10)
        assert history == []  # no ingest ticks, no exception
        assert daemon._errors == 0
        assert daemon._snapshotless_ticks == 10

    def test_follow_daemon_still_aborts_on_parse_errors(self, tmp_path, ray_session):
        """Genuine manifest corruption (unparseable JSON every tick) must
        still trip the consecutive-error abort."""
        import pytest

        from mysql_binlog_ray.pipelines.tailer import FollowDaemon

        mpath = tmp_path / "manifest.json"
        mpath.write_text("{not json")
        daemon = FollowDaemon(
            manifest_path=str(mpath),
            lake_dir=str(tmp_path / "lake"),
            interval_sec=0.001,
            max_consecutive_errors=3,
        )
        with pytest.raises(RuntimeError, match="consecutive"):
            daemon.run(max_iterations=10)


class TestDaemonCliConcurrent:
    def test_follow_races_live_tail(self, small_stream, tmp_path, ray_session, capsys):
        """CLI follow ticks CONCURRENTLY with a live CLI tail: early
        manifests may lack shards or (briefly) the TABLE_MAP snapshot —
        the follower must skip those ticks, never crash, and converge to
        the direct pipeline's final state once the tail completes."""
        import json
        import os
        import time

        import pyarrow.parquet as pq

        from mysql_binlog_ray import daemon
        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            read_lake,
            run_to_dataset,
        )

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )

        lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lsock.bind(("127.0.0.1", 0))
        lsock.listen(1)
        port = lsock.getsockname()[1]
        seen: dict = {}
        spool = str(tmp_path / "spool")
        lake = str(tmp_path / "lake")

        def serve():
            try:
                conn, _ = lsock.accept()
                serve_session(conn, payloads, seen=seen)
                conn.close()
            except Exception as e:
                seen["exception"] = repr(e)
            finally:
                lsock.close()

        tail_rc: dict = {}

        def run_tail():
            try:
                tail_rc["rc"] = daemon.main(
                    [
                        "tail",
                        "--host", "127.0.0.1",
                        "--port", str(port),
                        "--user", "repl",
                        "--password", "secret",
                        "--out-dir", spool,
                        "--binlog-file", "binlog.000001",
                        "--shard-events", "16",  # many flushes -> many republishes
                    ]
                )
            except Exception as e:
                tail_rc["exception"] = repr(e)

        ts = threading.Thread(target=serve, daemon=True)
        tt = threading.Thread(target=run_tail, daemon=True)
        ts.start()
        tt.start()

        value_cols = ["repo", "path", "commit", "lang", "content", "stars"]
        ref = (
            run_to_dataset(manifest, CdcConfig(num_partitions=4))
            .to_pandas()[value_cols]
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )

        # race follow ticks against the live tail; converge within budget
        deadline = time.time() + 60
        got = None
        while time.time() < deadline:
            if os.path.exists(os.path.join(spool, "manifest.json")):
                rc = daemon.main(
                    [
                        "follow",
                        "--manifest", os.path.join(spool, "manifest.json"),
                        "--lake", lake,
                        "--max-iterations", "2",
                        "--interval", "0.02",
                        "--num-partitions", "4",
                    ]
                )
                assert rc == 0
            if not tt.is_alive() and os.path.isdir(lake):
                try:
                    got = (
                        read_lake(lake)
                        .to_pandas()[value_cols]
                        .sort_values(["repo", "path"])
                        .reset_index(drop=True)
                    )
                except Exception:
                    got = None
                if got is not None and got.equals(ref):
                    break
            time.sleep(0.05)

        tt.join(timeout=30)
        ts.join(timeout=30)
        capsys.readouterr()
        assert "exception" not in seen, seen
        assert tail_rc.get("rc") == 0, tail_rc
        assert got is not None and got.equals(ref)


class TestDaemonCliReconnect:
    def test_tail_reconnects_after_mid_frame_crash(
        self, small_stream, tmp_path, ray_session, capsys
    ):
        """CLI tail with --reconnect: session 1 dies mid-frame, session 2
        replays from the start; the spool holds the exact stream once
        (committed prefix skipped), and the follow lake equals the
        direct pipeline."""
        import json
        import os
        import struct

        import pyarrow.parquet as pq

        from mysql_binlog_ray import daemon
        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            read_lake,
            run_to_dataset,
        )
        from mysql_binlog_ray.sources.wire import spool_shards

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )
        k = len(payloads) * 2 // 3

        lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lsock.bind(("127.0.0.1", 0))
        lsock.listen(2)
        port = lsock.getsockname()[1]
        seen2: dict = {}

        def serve_two_sessions():
            try:
                # session 1: first k events, then die mid-frame
                conn, _ = lsock.accept()
                try:
                    serve_session(conn, payloads[:k], seen={})
                    conn.sendall(
                        struct.pack("<I", 100)[:3] + bytes([99]) + b"\x00partial"
                    )
                finally:
                    conn.close()
                # session 2: full replay from the start
                conn, _ = lsock.accept()
                try:
                    serve_session(conn, payloads, seen=seen2)
                finally:
                    conn.close()
            except Exception as e:
                seen2["exception"] = repr(e)
            finally:
                lsock.close()

        t = threading.Thread(target=serve_two_sessions, daemon=True)
        t.start()

        spool = str(tmp_path / "spool")
        rc = daemon.main(
            [
                "tail",
                "--host", "127.0.0.1",
                "--port", str(port),
                "--user", "repl",
                "--password", "secret",
                "--out-dir", spool,
                "--binlog-file", "binlog.000001",
                "--shard-events", "32",
                "--reconnect", "2",
                "--retry-delay", "0.05",
            ]
        )
        t.join(timeout=30)
        assert rc == 0
        assert "exception" not in seen2, seen2
        cap = capsys.readouterr()
        assert "reconnect 1/2" in cap.err

        # exact stream, once: contiguous seqs covering every payload
        entries = spool_shards(spool)
        assert sum(e["events"] for e in entries) == len(payloads)
        assert max(e["last_event_seq"] for e in entries) == len(payloads) - 1

        # summary accumulates across ALL sessions: k events from the
        # dropped session + a full replay from session 2 — and reports
        # the whole spool's shard count, not the final session's
        summary = json.loads(
            [l for l in cap.out.splitlines() if l.startswith("{")][-1]
        )
        assert summary["events"] == k + len(payloads)
        assert summary["shards"] == len(entries)

        with open(os.path.join(spool, "manifest.json")) as f:
            man = json.load(f)
        assert man["table_maps"]

        lake = str(tmp_path / "lake")
        rc = daemon.main(
            [
                "follow",
                "--manifest", os.path.join(spool, "manifest.json"),
                "--lake", lake,
                "--max-iterations", "1",
                "--interval", "0.01",
                "--num-partitions", "4",
            ]
        )
        assert rc == 0
        value_cols = ["repo", "path", "commit", "lang", "content", "stars"]
        got = (
            read_lake(lake)
            .to_pandas()[value_cols]
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        ref = (
            run_to_dataset(manifest, CdcConfig(num_partitions=4))
            .to_pandas()[value_cols]
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        assert got.equals(ref)

    def test_fresh_restart_resume_skips_committed_prefix(
        self, small_stream, tmp_path, ray_session, capsys
    ):
        """A FRESH process restart with --resume (attempts == 0, no
        --session-setup) against a server that replays the dump from the
        requested position must compute the replay-skip from the spool —
        not only the in-process reconnect path — or the committed prefix
        is re-spooled under new event_seq numbers (duplicate events,
        duplicate lake rows)."""
        import json

        import pyarrow.parquet as pq

        from mysql_binlog_ray import daemon
        from mysql_binlog_ray.sources.wire import spool_shards

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )
        k = len(payloads) * 2 // 3

        def one_tail_run(serve_payloads, extra_args):
            lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            lsock.bind(("127.0.0.1", 0))
            lsock.listen(1)
            port = lsock.getsockname()[1]
            seen: dict = {}

            def serve():
                try:
                    conn, _ = lsock.accept()
                    try:
                        serve_session(conn, serve_payloads, seen=seen)
                    finally:
                        conn.close()
                except Exception as e:
                    seen["exception"] = repr(e)
                finally:
                    lsock.close()

            t = threading.Thread(target=serve, daemon=True)
            t.start()
            rc = daemon.main(
                [
                    "tail",
                    "--host", "127.0.0.1",
                    "--port", str(port),
                    "--user", "repl",
                    "--password", "secret",
                    "--out-dir", str(tmp_path / "spool"),
                    "--binlog-file", "binlog.000001",
                    "--shard-events", "32",
                    *extra_args,
                ]
            )
            t.join(timeout=30)
            assert rc == 0
            assert "exception" not in seen, seen
            return seen

        # run 1: a clean session that only got the first k events
        one_tail_run(payloads[:k], [])
        entries = spool_shards(str(tmp_path / "spool"))
        n_first = sum(e["events"] for e in entries)
        assert n_first > 0
        # run 2: NEW process, --resume; server replays the full stream
        # from the start (reference semantics, Connection.php:156)
        one_tail_run(payloads, ["--resume"])

        # exact stream, once: no duplicated prefix, contiguous seqs
        entries = spool_shards(str(tmp_path / "spool"))
        assert sum(e["events"] for e in entries) == len(payloads)
        assert max(e["last_event_seq"] for e in entries) == len(payloads) - 1
        summary = json.loads(
            [
                l
                for l in capsys.readouterr().out.splitlines()
                if l.startswith("{")
            ][-1]
        )
        assert summary["shards"] == len(entries)


class TestDaemonCrashMatrix:
    """Combined tail+follow crash matrix: each side killed independently
    (round-4 verdict #8).  The follower dies as a REAL subprocess under
    SIGKILL mid-ingest (no atexit, no cleanup — temp files may be left
    mid-write); a fresh follower must converge to the direct pipeline's
    lake through the exactly-once sink's atomic-rename protocol."""

    @staticmethod
    def _spawn_follow(manifest_path, lake, extra=()):
        import os
        import subprocess
        import sys

        return subprocess.Popen(
            [
                sys.executable, "-m", "mysql_binlog_ray.daemon", "follow",
                "--manifest", manifest_path,
                "--lake", lake,
                "--interval", "0.05",
                "--num-partitions", "4",
                "--num-cpus", "2",
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ),
        )

    @staticmethod
    def _wait_for(path_predicate, timeout=90.0):
        import time

        t0 = time.time()
        while time.time() - t0 < timeout:
            if path_predicate():
                return True
            time.sleep(0.05)
        return False

    def test_follower_sigkill_mid_ingest_then_restart(
        self, small_stream, tmp_path, ray_session
    ):
        import os as _os
        import signal
        import subprocess

        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            read_lake,
            run_to_dataset,
        )

        spec, out, manifest = small_stream
        manifest_path = _os.path.join(out, "manifest.json")
        lake = str(tmp_path / "lake")

        # follower 1: endless loop, killed the moment the first lake
        # partition directory appears — i.e. MID-write of the full set
        proc = self._spawn_follow(manifest_path, lake)
        try:
            appeared = self._wait_for(
                lambda: _os.path.isdir(lake)
                and any(d.startswith("part=") for d in _os.listdir(lake))
            )
            assert appeared, (
                "follower never started writing",
                proc.poll(),
                proc.stderr.read().decode() if proc.poll() is not None else "",
            )
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        # follower 2: fresh process, bounded catch-up, must converge
        proc2 = self._spawn_follow(
            manifest_path, lake, extra=("--max-iterations", "2")
        )
        try:
            out2, err2 = proc2.communicate(timeout=180)
        except subprocess.TimeoutExpired:
            proc2.kill()
            raise
        assert proc2.returncode == 0, err2.decode()

        value_cols = ["repo", "path", "commit", "lang", "content", "stars"]
        got = (
            read_lake(lake)
            .to_pandas()[value_cols]
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        ref = (
            run_to_dataset(manifest, CdcConfig(num_partitions=4))
            .to_pandas()[value_cols]
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        assert got.equals(ref)

    def test_tail_and_follower_both_crash(
        self, small_stream, tmp_path, ray_session, capsys
    ):
        """Tail session dies mid-frame AND the follower is SIGKILLed
        mid-ingest of the partial spool; the tail reconnects (replay-skip)
        and a fresh follower converges to the direct pipeline."""
        import os as _os
        import signal
        import struct
        import subprocess

        import pyarrow.parquet as pq

        from mysql_binlog_ray import daemon
        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            read_lake,
            run_to_dataset,
        )

        spec, out, manifest = small_stream
        payloads = []
        for s in manifest["shards"]:
            payloads.extend(
                pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
            )
        k = len(payloads) * 2 // 3

        lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lsock.bind(("127.0.0.1", 0))
        lsock.listen(2)
        port = lsock.getsockname()[1]
        seen2: dict = {}

        def serve_two_sessions():
            try:
                conn, _ = lsock.accept()
                try:
                    serve_session(conn, payloads[:k], seen={})
                    conn.sendall(
                        struct.pack("<I", 100)[:3] + bytes([99]) + b"\x00partial"
                    )
                finally:
                    conn.close()
                conn, _ = lsock.accept()
                try:
                    serve_session(conn, payloads, seen=seen2)
                finally:
                    conn.close()
            except Exception as e:
                seen2["exception"] = repr(e)
            finally:
                lsock.close()

        t = threading.Thread(target=serve_two_sessions, daemon=True)
        t.start()

        spool = str(tmp_path / "spool")
        lake = str(tmp_path / "lake")

        # follower 1 races the crashing tail from the start; killed as
        # soon as it writes anything
        proc = self._spawn_follow(_os.path.join(spool, "manifest.json"), lake)
        try:
            rc = daemon.main(
                [
                    "tail",
                    "--host", "127.0.0.1",
                    "--port", str(port),
                    "--user", "repl",
                    "--password", "secret",
                    "--out-dir", spool,
                    "--binlog-file", "binlog.000001",
                    "--shard-events", "32",
                    "--reconnect", "2",
                    "--retry-delay", "0.05",
                ]
            )
            t.join(timeout=30)
            assert rc == 0
            assert "exception" not in seen2, seen2
            appeared = self._wait_for(
                lambda: _os.path.isdir(lake)
                and any(d.startswith("part=") for d in _os.listdir(lake))
            )
            assert appeared, (proc.poll(), proc.stderr.read().decode() if proc.poll() is not None else "")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        # fresh follower over the complete spool converges
        proc2 = self._spawn_follow(
            _os.path.join(spool, "manifest.json"), lake,
            extra=("--max-iterations", "2"),
        )
        try:
            out2, err2 = proc2.communicate(timeout=180)
        except subprocess.TimeoutExpired:
            proc2.kill()
            raise
        assert proc2.returncode == 0, err2.decode()

        value_cols = ["repo", "path", "commit", "lang", "content", "stars"]
        got = (
            read_lake(lake)
            .to_pandas()[value_cols]
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        ref = (
            run_to_dataset(manifest, CdcConfig(num_partitions=4))
            .to_pandas()[value_cols]
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        assert got.equals(ref)
