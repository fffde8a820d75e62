"""Tests for the binlog-file source format, snapshot bootstrap, and lake
maintenance."""

import hashlib
import json
import time

import pyarrow.parquet as pq
import pytest

import ray.data as rd

from mysql_binlog_ray.fixtures.generator import final_state_oracle
from mysql_binlog_ray.pipelines.cdc import (
    CdcConfig,
    compact_lake,
    follow,
    read_lake,
    run_to_lake,
    seed_lake_from_snapshot,
)
from mysql_binlog_ray.sources.binlog_file import (
    binlog_files_to_dataset,
    export_stream_to_binlog_files,
    read_binlog_file,
    write_binlog_file,
)


def _normalize(df):
    df = df.copy()
    df["content_sha256"] = df["content"].map(lambda s: hashlib.sha256(s.encode()).hexdigest())
    cols = ["repo", "path", "commit", "lang", "content_sha256"]
    if "stars" in df.columns:
        df["stars"] = df["stars"].astype("float64")
        cols.append("stars")
    return df[cols].sort_values(["repo", "path"]).reset_index(drop=True)


class TestBinlogFileFormat:
    def test_roundtrip(self, small_stream, tmp_path):
        spec, out, manifest = small_stream
        t = pq.read_table(manifest["shards"][0]["path"], columns=["payload"])
        packets = t.column("payload").to_pylist()
        path = str(tmp_path / "binlog.000000")
        n = write_binlog_file(path, packets)
        assert n == len(packets)
        with open(path, "rb") as f:
            back = read_binlog_file(f.read())
        assert back == packets

    def test_bad_magic_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="magic"):
            read_binlog_file(b"nope" + b"\x00" * 40)


@pytest.mark.usefixtures("ray_session")
class TestBinlogFilePipeline:
    def test_full_pipeline_from_binlog_files(self, small_stream, tmp_path):
        """The engine runs the SAME pipeline off raw binlog files: decode
        -> merge -> oracle equality (second source format end to end)."""
        from mysql_binlog_ray.pipelines.cdc import decode_changefeed, merge_lww, _with_flat_decode

        spec, out, manifest = small_stream
        paths = export_stream_to_binlog_files(manifest, str(tmp_path / "bl"))
        events = binlog_files_to_dataset(paths)
        cfg = _with_flat_decode(CdcConfig(num_partitions=8))
        cf = decode_changefeed(events, manifest["table_maps"], cfg)
        merged = merge_lww(cf, cfg)
        got = _normalize(merged.to_pandas())
        exp = final_state_oracle(spec, out).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
        # the binlog-file event_seq is (file_idx << 32 | pos): a different
        # numbering but the SAME total order, so LWW winners carry the
        # same commit/content — compare everything except lineage
        assert got.equals(exp)


@pytest.mark.usefixtures("ray_session")
class TestSnapshotBootstrap:
    def test_snapshot_then_stream_equals_full_replay(self, small_stream, tmp_path):
        """Seed a lake from a snapshot consistent with shard 0's end, then
        follow the remaining shards — final lake equals the full-stream run."""
        from mysql_binlog_ray.pipelines.cdc import run_to_dataset

        spec, out, manifest = small_stream
        watermark = manifest["shards"][0]["last_event_seq"]

        # the "snapshot" = merged state of shard 0 only (consistent as-of
        # the watermark), flattened to plain table rows + lineage dropped
        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:1]
        snap_df = run_to_dataset(prefix, CdcConfig(num_partitions=8)).to_pandas()
        snap_df = snap_df.drop(columns=["event_seq", "row_seq"])
        lake = str(tmp_path / "lake")
        seed_lake_from_snapshot(
            rd.from_pandas(snap_df), watermark, lake, CdcConfig(num_partitions=8)
        )

        follow(manifest, lake, CdcConfig(num_partitions=8))

        lake_full = str(tmp_path / "full")
        run_to_lake(manifest, lake_full, CdcConfig(num_partitions=8))
        a = _normalize(read_lake(lake_full).to_pandas())
        b = _normalize(read_lake(lake).to_pandas())
        assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
class TestCompaction:
    def test_compact_changes_layout_not_content(self, small_stream, tmp_path):
        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake")
        run_to_lake(manifest, lake, CdcConfig(num_partitions=16))
        before = _normalize(read_lake(lake).to_pandas())
        m2 = compact_lake(lake, 4)
        assert m2["num_partitions"] == 4
        after = _normalize(read_lake(lake).to_pandas())
        assert before.equals(after)
        # follow still works on the compacted lake
        follow(manifest, lake, CdcConfig(num_partitions=4))
        assert _normalize(read_lake(lake).to_pandas()).equals(before)

    def test_zorder_compact_preserves_content_and_orders_rows(
        self, small_stream, tmp_path
    ):
        import glob

        import numpy as np
        import pyarrow.parquet as pq

        from mysql_binlog_ray.stages.layout import zorder_values

        spec, out, manifest = small_stream
        lake = str(tmp_path / "zlake")
        run_to_lake(manifest, lake, CdcConfig(num_partitions=8))
        before = _normalize(read_lake(lake).to_pandas())
        m2 = compact_lake(lake, 8, zorder_cols=["stars", "event_seq"])
        assert m2["num_partitions"] == 8
        after = _normalize(read_lake(lake).to_pandas())
        assert before.equals(after)
        # every partition file is physically ordered by the Morton key
        # over the per-file min-max-normalized columns (the compaction's
        # quantization — raw masking would alias ranges > 2^bits)
        def quantize(col):
            x = col.to_numpy(zero_copy_only=False).astype(np.float64)
            finite = np.isfinite(x)
            lo = x[finite].min() if finite.any() else 0.0
            hi = x[finite].max() if finite.any() else 0.0
            x = np.where(finite, x, lo)
            span = hi - lo
            if span <= 0:
                return np.zeros(len(x), np.int64)
            return ((x - lo) * (65535.0 / span)).astype(np.int64)

        for f in glob.glob(f"{lake}/part=*/*.parquet"):
            t = pq.read_table(f, columns=["stars", "event_seq"])
            z = zorder_values([quantize(t["stars"]), quantize(t["event_seq"])], 16)
            assert (np.diff(z) >= 0).all(), f
        # follow still works on the z-ordered lake
        follow(manifest, lake, CdcConfig(num_partitions=8))
        assert _normalize(read_lake(lake).to_pandas()).equals(before)

    def test_moved_files_fsynced_before_commit(self, small_stream, tmp_path, monkeypatch):
        """After a power loss, the committed manifest must not name a
        layout whose ``part=`` dir still holds the old file: every
        destination dir is fsync'd after its rename, before the manifest
        commit."""
        import os

        from mysql_binlog_ray.pipelines import cdc
        from mysql_binlog_ray.state import checkpoint

        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake")
        run_to_lake(manifest, lake, CdcConfig(num_partitions=8))
        calls = []

        def fsync_dir(path):
            calls.append(("fsync", os.path.normpath(path)))
            checkpoint._fsync_dir(path)

        def commit(lake_dir, *a, **k):
            calls.append(("commit", lake_dir))
            return checkpoint.commit_manifest(lake_dir, *a, **k)

        monkeypatch.setattr(cdc, "_fsync_dir", fsync_dir, raising=False)
        monkeypatch.setattr(cdc, "commit_manifest", commit)
        m = compact_lake(lake, 5)
        dirs = {os.path.normpath(f"{lake}/part={p['part']:05d}") for p in m["partitions"]}
        assert len(dirs) == 5
        assert calls[-1] == ("commit", lake)
        assert {path for kind, path in calls[:-1] if kind == "fsync"} == dirs


@pytest.mark.usefixtures("ray_session")
class TestSelectiveResume:
    def test_untouched_partitions_not_rewritten(self, small_stream, tmp_path):
        """Incremental follow reads and rewrites only partitions touched
        by the increment; the rest keep their files byte-identical (and
        their mtimes — they are never opened for write)."""
        import glob
        import os

        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake")
        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:2]
        # 128 partitions so the increment's ~120 distinct keys leave a
        # statistically certain number of partitions untouched (with 32
        # the expected untouched count is < 1 under any uniform hash)
        run_to_lake(prefix, lake, CdcConfig(num_partitions=128))
        before = {
            p: (open(p, "rb").read(), os.path.getmtime(p))
            for p in glob.glob(f"{lake}/part=*/data.parquet")
        }

        follow(manifest, lake, CdcConfig(num_partitions=128))

        m = json.load(open(f"{lake}/_manifest.json"))
        rewritten = unchanged = 0
        for p, (content, mtime) in before.items():
            now = open(p, "rb").read()
            if now == content and os.path.getmtime(p) == mtime:
                unchanged += 1
            else:
                rewritten += 1
        # the last shard touches a subset of keys: some partitions must
        # survive untouched, and correctness still holds vs the oracle
        assert unchanged > 0, "selective resume rewrote every partition"
        got = _normalize(read_lake(lake).to_pandas())
        exp = final_state_oracle(spec, out).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
        assert got.equals(exp)


@pytest.mark.usefixtures("ray_session")
class TestFollowDaemon:
    def test_daemon_tails_growing_stream(self, small_stream, tmp_path):
        """The follow daemon catches up a growing stream manifest: each
        iteration applies only the new shards (idempotent resume) and
        reports per-interval stats like the reference's 1s
        StatisticsCollector; an idle iteration is a watermark no-op."""
        import threading

        from mysql_binlog_ray.pipelines.cdc import CdcConfig, read_lake, run_to_lake
        from mysql_binlog_ray.pipelines.tailer import FollowDaemon

        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake")
        mpath = str(tmp_path / "stream_manifest.json")

        # stream starts with 1 shard
        grown = json.loads(json.dumps(manifest))
        grown["shards"] = manifest["shards"][:1]
        json.dump(grown, open(mpath, "w"))

        seen = []
        daemon = FollowDaemon(
            manifest_path=mpath,
            lake_dir=lake,
            cfg=CdcConfig(num_partitions=8),
            interval_sec=0.05,
            on_stats=seen.append,
        )
        t = threading.Thread(target=daemon.run, daemon=True)
        t.start()
        try:
            deadline = time.time() + 60
            while not seen and time.time() < deadline:
                time.sleep(0.05)
            assert seen, "daemon produced no stats"
            first_wm = seen[-1].watermark

            # the stream grows: full manifest published
            json.dump(manifest, open(mpath, "w"))
            while time.time() < deadline:
                if seen and seen[-1].watermark > first_wm:
                    break
                time.sleep(0.05)
            assert seen[-1].watermark > first_wm, "daemon never saw new shards"
            # let one idle iteration happen, then stop
            n = len(seen)
            while len(seen) <= n and time.time() < deadline:
                time.sleep(0.05)
        finally:
            daemon.stop()
            t.join(timeout=120)
        assert not t.is_alive()

        # idle iterations are watermark no-ops with zero row delta
        idle = [s for s in seen if not s.advanced]
        assert idle and all(s.rows_delta == 0 for s in idle)
        # caught-up lake equals a clean full run
        lake_clean = str(tmp_path / "clean")
        run_to_lake(manifest, lake_clean, CdcConfig(num_partitions=8))
        a = read_lake(lake).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        b = read_lake(lake_clean).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        assert a.equals(b)


class TestFollowDaemonBounds:
    """Ray-free: ``follow`` and the lake manifest read are stubbed."""

    def test_endless_run_keeps_last_history(self, tmp_path, monkeypatch):
        """An endless run returns only the last HISTORY_LIMIT ticks; a
        bounded run of the same length returns them all."""
        from mysql_binlog_ray.pipelines import tailer

        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"shards": [], "table_maps": []}))
        lake = {"watermark": 7, "totals": {"rows": 3}}
        monkeypatch.setattr(tailer, "follow", lambda *a: lake)
        monkeypatch.setattr(tailer, "read_manifest", lambda d: lake)
        n = tailer.HISTORY_LIMIT + 50

        def stop_after_n(stats):
            return stats.iteration < n - 1

        daemon = tailer.FollowDaemon(str(mpath), str(tmp_path), interval_sec=0, on_stats=stop_after_n)
        endless = daemon.run()
        assert len(endless) == tailer.HISTORY_LIMIT
        assert [s.iteration for s in endless] == list(range(50, n))
        bounded = tailer.FollowDaemon(str(mpath), str(tmp_path), interval_sec=0).run(max_iterations=n)
        assert len(bounded) == n

    def test_snapshotless_ticks_are_logged(self, tmp_path, monkeypatch, caplog):
        """The first snapshotless tick and every 100th after it log a
        warning naming the manifest."""
        import logging

        from mysql_binlog_ray.pipelines import tailer

        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"shards": []}))
        monkeypatch.setattr(tailer, "read_manifest", lambda d: None)
        daemon = tailer.FollowDaemon(str(mpath), str(tmp_path), interval_sec=0)
        with caplog.at_level(logging.WARNING, logger=tailer.__name__):
            assert daemon.run(max_iterations=250) == []
        warned = [r for r in caplog.records if r.name == tailer.__name__]
        assert len(warned) == 3  # ticks 1, 101 and 201
        assert all(str(mpath) in r.getMessage() for r in warned)
        assert "201 snapshotless ticks" in warned[-1].getMessage()

    def test_source_lag_moves_on_update_only_traffic(self, tmp_path, monkeypatch):
        """Each tick records the stream head; ``lag_events`` is the head
        minus the lake's prior watermark (-1 before the first commit), so
        a tick that applies only updates (``rows_delta`` 0) still shows
        the progress it made, and so does ``row_images``, the commit's
        row images.  A tick that does not advance the watermark gets back
        the prior manifest, whose counters belong to the previous commit:
        it applied 0 row images."""
        from mysql_binlog_ray.pipelines import tailer

        mpath = tmp_path / "manifest.json"

        def publish(head):
            shards = [{"last_event_seq": 4}, {"last_event_seq": head}]
            mpath.write_text(json.dumps({"shards": shards, "table_maps": []}))

        lake = {}

        def follow(stream, *a):
            head = max(s["last_event_seq"] for s in stream["shards"])
            if lake and lake["watermark"] >= head:
                return dict(lake)  # a no-op step returns the prior manifest
            lake.update(watermark=head, totals={"rows": 5}, row_images=3 * head)
            return dict(lake)

        publish(9)
        monkeypatch.setattr(tailer, "follow", follow)
        monkeypatch.setattr(tailer, "read_manifest", lambda d: dict(lake) if lake else None)

        def on_stats(stats):
            publish(25)

        daemon = tailer.FollowDaemon(str(mpath), str(tmp_path), interval_sec=0, on_stats=on_stats)
        first, second, third = daemon.run(max_iterations=3)
        assert (first.source_head, first.prev_watermark, first.lag_events) == (9, None, 10)
        assert first.row_images == 27
        assert (second.source_head, second.prev_watermark, second.lag_events) == (25, 9, 16)
        assert second.rows_delta == 0 and second.advanced and second.row_images == 75
        assert not third.advanced and third.lag_events == 0
        assert third.rows_delta == 0 and third.row_images == 0 == third.row_images_per_sec


class TestConfigEnvArgsLayering:
    """Reference Config.php:21-171: fromEnv overrides defaults, fromArgs
    overrides fromEnv — the CLI reproduces that precedence."""

    def test_env_provides_defaults(self):
        from mysql_binlog_ray.print_row_events import build_parser

        env = {
            "STREAM_DIR": "/tmp/s",
            "BINLOG_POSITION": "42",
            "TABLES": "code.repos , code.issues",
            "EXCLUDE_DATABASES": "tmp",
        }
        args = build_parser(env).parse_args([])
        assert args.stream_dir == "/tmp/s"
        assert args.start_after_seq == 42
        assert args.tables == ["code.repos", "code.issues"]  # trimmed
        assert args.exclude_databases == ["tmp"]
        assert args.databases is None  # untouched default

    def test_args_override_env(self):
        from mysql_binlog_ray.print_row_events import build_parser

        env = {"STREAM_DIR": "/tmp/env", "BINLOG_POSITION": "42", "TABLES": "a.b"}
        args = build_parser(env).parse_args(
            ["--stream-dir", "/tmp/cli", "--start-after-seq", "7", "--tables", "x.y", "z.w"]
        )
        assert args.stream_dir == "/tmp/cli"
        assert args.start_after_seq == 7
        assert args.tables == ["x.y", "z.w"]

    def test_stream_dir_required_without_env(self):
        import pytest

        from mysql_binlog_ray.print_row_events import build_parser

        with pytest.raises(SystemExit):
            build_parser({}).parse_args([])

    def test_empty_env_values_treated_as_unset(self):
        import pytest

        from mysql_binlog_ray.print_row_events import build_parser, env_defaults

        assert env_defaults({"TABLES": "", "BINLOG_POSITION": "", "STREAM_DIR": ""}) == {}
        with pytest.raises(SystemExit):
            env_defaults({"BINLOG_POSITION": "abc"})
        # empty STREAM_DIR must not satisfy the required= check
        with pytest.raises(SystemExit):
            build_parser({"STREAM_DIR": ""}).parse_args([])


@pytest.mark.usefixtures("ray_session")
class TestAuditLake:
    def test_clean_lake_matches_and_tamper_is_pinpointed(self, small_stream, tmp_path):
        import glob

        import pyarrow as pa
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import audit_lake

        spec, out, manifest = small_stream
        lake = str(tmp_path / "audit_lake")
        run_to_lake(manifest, lake, CdcConfig(num_partitions=8))

        rep = audit_lake(manifest, lake)
        assert rep["match"].all()
        assert (rep["expected_rows"] == rep["actual_rows"]).all()

        # tamper: flip one row's content in one partition file
        victim = sorted(glob.glob(f"{lake}/part=*/*.parquet"))[0]
        t = pq.read_table(victim)
        content = t["content"].to_pylist()
        content[0] = content[0] + "!TAMPERED"
        t = t.set_column(
            t.schema.get_field_index("content"), "content", pa.array(content)
        )
        pq.write_table(t, victim)
        vpart = int(victim.split("part=")[1].split("/")[0])

        rep2 = audit_lake(manifest, lake)
        bad = rep2[~rep2["match"]]
        assert list(bad["part"]) == [vpart]
        # counts still line up — only the digest catches a value flip
        assert (bad["expected_rows"] == bad["actual_rows"]).all()

    def test_lost_row_detected_by_count(self, small_stream, tmp_path):
        import glob

        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import audit_lake

        spec, out, manifest = small_stream
        lake = str(tmp_path / "audit_lake2")
        run_to_lake(manifest, lake, CdcConfig(num_partitions=8))
        victim = sorted(glob.glob(f"{lake}/part=*/*.parquet"))[-1]
        t = pq.read_table(victim)
        pq.write_table(t.slice(1), victim)  # drop one row
        vpart = int(victim.split("part=")[1].split("/")[0])
        rep = audit_lake(manifest, lake)
        bad = rep[~rep["match"]]
        assert list(bad["part"]) == [vpart]
        assert (bad["actual_rows"] == bad["expected_rows"] - 1).all()

    def test_misplaced_row_detected_in_both_partitions(self, small_stream, tmp_path):
        """A row stored in the WRONG part= file (right content, wrong
        placement) must flag BOTH partitions — the lake side buckets by
        physical file, not by re-hashing the key."""
        import glob

        import pyarrow as pa
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import audit_lake

        spec, out, manifest = small_stream
        lake = str(tmp_path / "audit_lake3")
        run_to_lake(manifest, lake, CdcConfig(num_partitions=8))
        files = sorted(glob.glob(f"{lake}/part=*/*.parquet"))
        src, dst = files[0], files[1]
        ts, td = pq.read_table(src), pq.read_table(dst)
        moved = ts.slice(0, 1)
        pq.write_table(ts.slice(1), src)
        pq.write_table(pa.concat_tables([td, moved]), dst)
        p_src = int(src.split("part=")[1].split("/")[0])
        p_dst = int(dst.split("part=")[1].split("/")[0])
        rep = audit_lake(manifest, lake)
        bad = set(rep[~rep["match"]]["part"])
        assert bad == {p_src, p_dst}

    def test_lake_with_no_live_rows(self, small_stream, tmp_path):
        """A lake seeded from an empty snapshot has no file that holds
        rows: the audit digests none on the lake side and reports every
        partition the replay fills as missing its rows."""
        import ray.data as rd

        from mysql_binlog_ray.pipelines.cdc import audit_lake, seed_lake_from_snapshot

        spec, out, manifest = small_stream
        lake = str(tmp_path / "audit_empty")
        snapshot_seq = manifest["shards"][0]["first_event_seq"] - 1
        seed_lake_from_snapshot(rd.from_items([]), snapshot_seq, lake, CdcConfig(num_partitions=8))
        rep = audit_lake(manifest, lake)
        assert len(rep) and (rep["expected_rows"] > 0).all()
        assert (rep["actual_rows"] == 0).all()
        assert not rep["match"].any()


@pytest.mark.usefixtures("ray_session")
class TestSchemaHistory:
    def test_ddl_changelog_matches_generator(self, small_stream):
        from mysql_binlog_ray.pipelines.cdc import schema_history

        spec, out, manifest = small_stream
        pdf = schema_history(manifest).to_pandas()
        # the generator emits exactly one ALTER at ddl_op
        assert len(pdf) == 1
        assert pdf.loc[0, "schema_name"] == "code"
        assert pdf.loc[0, "sql"] == "ALTER TABLE repos ADD COLUMN stars BIGINT"
        assert pdf.loc[0, "event_seq"] > 0

    def test_no_ddl_stream_is_empty(self, tmp_path):
        from mysql_binlog_ray.fixtures.generator import StreamSpec, generate_stream
        from mysql_binlog_ray.pipelines.cdc import schema_history

        spec = StreamSpec(n_keys=50, n_ops=200, n_shards=1, ddl_at=None)
        m = generate_stream(spec, str(tmp_path / "noddl"))
        pdf = schema_history(m).to_pandas()
        assert len(pdf) == 0
