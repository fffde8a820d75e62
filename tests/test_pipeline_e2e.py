"""End-to-end pipeline tests (SURVEY.md §5.2 items 3-5): replay-golden
final state vs the sequential oracle, exactly-once resume, idempotent
reruns, and schema evolution through the whole Ray pipeline."""

import glob
import hashlib
import json
import os
import shutil

import pytest

from mysql_binlog_ray.fixtures.generator import (
    StreamSpec,
    final_state_oracle,
    generate_stream,
)
from mysql_binlog_ray.pipelines.cdc import (
    CdcConfig,
    read_lake,
    run_to_dataset,
    run_to_lake,
)


def _normalize(df):
    df = df.copy()
    df["content_sha256"] = df["content"].map(lambda s: hashlib.sha256(s.encode()).hexdigest())
    cols = ["repo", "path", "commit", "lang", "content_sha256"]
    if "stars" in df.columns:
        df["stars"] = df["stars"].astype("float64")
        cols.append("stars")
    return df[cols].sort_values(["repo", "path"]).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
class TestReplayGolden:
    def test_final_state_matches_oracle(self, small_stream):
        spec, out, manifest = small_stream
        ds = run_to_dataset(manifest, CdcConfig(num_partitions=8))
        got = _normalize(ds.to_pandas())
        exp = final_state_oracle(spec, out).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
        assert got.equals(exp), "merged table differs from sequential replay"

    def test_content_sha_equality_is_per_row(self, small_stream):
        spec, out, manifest = small_stream
        ds = run_to_dataset(manifest, CdcConfig(num_partitions=4))
        df = ds.to_pandas()
        # content is the regenerable pure function of (key, version):
        # every row's sha must match its own commit's synthesis
        assert df["content"].map(lambda s: len(s) > 0).all()


@pytest.mark.usefixtures("ray_session")
class TestExactlyOnce:
    def test_resume_from_checkpoint_identical(self, small_stream, tmp_path):
        spec, out, manifest = small_stream
        lake_full = str(tmp_path / "full")
        lake_resumed = str(tmp_path / "resumed")

        run_to_lake(manifest, lake_full, CdcConfig(num_partitions=8))

        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:2]
        run_to_lake(prefix, lake_resumed, CdcConfig(num_partitions=8))
        run_to_lake(manifest, lake_resumed, CdcConfig(num_partitions=8), resume=True)

        a = read_lake(lake_full).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        b = read_lake(lake_resumed).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        assert a.equals(b)

    def test_rerun_is_idempotent_noop(self, small_stream, tmp_path):
        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake")
        m1 = run_to_lake(manifest, lake, CdcConfig(num_partitions=8))
        before = {p: open(p, "rb").read() for p in glob.glob(f"{lake}/part=*/data.parquet")}
        m2 = run_to_lake(manifest, lake, CdcConfig(num_partitions=8), resume=True)
        after = {p: open(p, "rb").read() for p in glob.glob(f"{lake}/part=*/data.parquet")}
        assert before == after
        assert m2["watermark"] == m1["watermark"]

    def test_lake_matches_oracle(self, small_stream, tmp_path):
        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake2")
        m = run_to_lake(manifest, lake, CdcConfig(num_partitions=8))
        got = _normalize(read_lake(lake).to_pandas())
        exp = final_state_oracle(spec, out).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
        assert got.equals(exp)
        assert m["totals"]["rows"] == len(exp)


@pytest.mark.usefixtures("ray_session")
class TestLakePointLookup:
    def test_lookup_matches_scan_and_prunes(self, small_stream, tmp_path):
        import pyarrow as pa

        from mysql_binlog_ray.pipelines.cdc import lake_point_lookup
        from mysql_binlog_ray.stages.merge import partition_codes
        from mysql_binlog_ray.state.checkpoint import read_manifest

        spec, out, manifest = small_stream
        lake = str(tmp_path / "lk")
        run_to_lake(manifest, lake, CdcConfig(num_partitions=16))
        full = read_lake(lake).to_pandas()
        # a few live keys + one absent composite key + a duplicate request
        sample = full[["repo", "path"]].drop_duplicates().head(4)
        req = pa.table(
            {
                "repo": pa.array(
                    list(sample["repo"]) + [sample["repo"].iloc[0], "no/such"]
                ),
                "path": pa.array(
                    list(sample["path"]) + [sample["path"].iloc[0], "nope.txt"]
                ),
            }
        )
        got = (
            lake_point_lookup(lake, req)
            .to_pandas()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        pairs = set(zip(sample["repo"], sample["path"]))
        want = (
            full[[tuple(x) in pairs for x in zip(full["repo"], full["path"])]]
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        assert got.equals(want[got.columns])
        # pruning: the requested keys map to at most len(req) of the 16
        # partitions, so the lookup reads a strict subset of the lake
        m = read_manifest(lake)
        codes = set(partition_codes(req, ("repo", "path"), m["num_partitions"]))
        assert len(codes) <= req.num_rows
        assert len(codes) < sum(1 for p in m["partitions"] if p["rows"] > 0)

    def test_lookup_all_absent_is_empty_with_schema(self, small_stream, tmp_path):
        from mysql_binlog_ray.pipelines.cdc import lake_point_lookup

        spec, out, manifest = small_stream
        lake = str(tmp_path / "lk2")
        run_to_lake(manifest, lake, CdcConfig(num_partitions=8))
        import pyarrow as pa

        got = lake_point_lookup(
            lake, pa.table({"repo": pa.array(["x/y"]), "path": pa.array(["z"])})
        )
        assert got.num_rows == 0
        assert "repo" in got.schema.names and "path" in got.schema.names
        # a probe whose type hashes in a different family than the
        # stored keys would prune to the wrong partition: refuse loudly
        with pytest.raises(ValueError, match="hashes as"):
            lake_point_lookup(
                lake, pa.table({"repo": pa.array([1]), "path": pa.array([2])})
            )

    def test_wide_probe_takes_distributed_path(self, small_stream, tmp_path):
        # >8 touched partitions fans out one Ray task per partition;
        # result must equal a full-scan filter, same as the narrow path
        import pyarrow as pa

        from mysql_binlog_ray.pipelines.cdc import lake_point_lookup

        spec, out, manifest = small_stream
        lake = str(tmp_path / "lk3")
        run_to_lake(manifest, lake, CdcConfig(num_partitions=16))
        full = read_lake(lake).to_pandas()
        # stride across the WHOLE lake: read_lake returns rows in
        # partition-file order, so a head() sample clusters into the
        # first few partitions and never reaches the distributed branch
        uniq = full[["repo", "path"]].drop_duplicates()
        sample = uniq.iloc[:: max(1, len(uniq) // 60)].head(60)
        req = pa.table(
            {"repo": pa.array(list(sample["repo"])), "path": pa.array(list(sample["path"]))}
        )
        # guard the premise: this probe must actually exceed the 8-
        # partition threshold, or the distributed branch has no coverage
        from mysql_binlog_ray.stages.merge import partition_codes

        assert len(set(partition_codes(req, ("repo", "path"), 16))) > 8
        got = (
            lake_point_lookup(lake, req)
            .to_pandas()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        pairs = set(zip(sample["repo"], sample["path"]))
        want = (
            full[[tuple(x) in pairs for x in zip(full["repo"], full["path"])]]
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        assert got.equals(want[got.columns])
        assert len(got) == len(sample)


@pytest.mark.usefixtures("ray_session")
class TestTimeTravel:
    def test_state_as_of_matches_truncated_replay_oracle(self, small_stream):
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import state_as_of

        spec, out, manifest = small_stream
        oplog = pq.read_table(f"{out}/oplog.parquet", columns=["event_seq"])
        seqs = sorted(oplog["event_seq"].to_pylist())
        for w in (seqs[len(seqs) // 3], seqs[-1] + 100):
            got = _normalize(
                state_as_of(manifest, w, CdcConfig(num_partitions=4)).to_pandas()
            )
            exp = final_state_oracle(spec, out, max_event_seq=w).to_pandas()
            exp["stars"] = exp["stars"].astype("float64")
            exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
            assert got.equals(exp), f"time-travel state differs at watermark {w}"

    def test_state_as_of_zero_is_empty(self, small_stream):
        from mysql_binlog_ray.pipelines.cdc import state_as_of

        spec, out, manifest = small_stream
        assert state_as_of(manifest, 0, CdcConfig(num_partitions=4)).count() == 0

    def test_state_as_of_mid_ddl_watermark(self, tmp_path):
        # the tricky truncation point: AFTER the ALTER but BEFORE stream
        # end — surviving state mixes null-padded pre-DDL rows with
        # post-DDL rows carrying stars
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import state_as_of

        spec = StreamSpec(n_keys=80, n_ops=400, n_shards=2, ddl_at=0.5)
        out = str(tmp_path / "ddl_tt")
        manifest = generate_stream(spec, out)
        oplog = pq.read_table(f"{out}/oplog.parquet").to_pandas()
        ddl_seq = int(oplog.loc[oplog["op_idx"] >= spec.ddl_op, "event_seq"].min())
        last = int(oplog["event_seq"].max())
        w = (ddl_seq + last) // 2
        assert ddl_seq < w < last  # genuinely mid-DDL-to-end
        got = _normalize(
            state_as_of(manifest, w, CdcConfig(num_partitions=4)).to_pandas()
        )
        # both populations must be present at this watermark
        assert got["stars"].notna().any() and got["stars"].isna().any()
        exp = final_state_oracle(spec, out, max_event_seq=w).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
        assert got.equals(exp)


@pytest.mark.usefixtures("ray_session")
class TestSchemaEvolutionE2E:
    def test_ddl_mid_stream(self, tmp_path):
        spec = StreamSpec(n_keys=80, n_ops=400, n_shards=2, ddl_at=0.5)
        out = str(tmp_path / "s")
        m = generate_stream(spec, out)
        ds = run_to_dataset(m, CdcConfig(num_partitions=4))
        df = ds.to_pandas()
        assert "stars" in df.columns
        exp = final_state_oracle(spec, out).to_pandas()
        got = _normalize(df)
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
        assert got.equals(exp)

    def test_no_ddl_stream(self, tmp_path):
        spec = StreamSpec(n_keys=60, n_ops=200, n_shards=1, ddl_at=None)
        out = str(tmp_path / "s")
        m = generate_stream(spec, out)
        ds = run_to_dataset(m, CdcConfig(num_partitions=4))
        df = ds.to_pandas()
        assert "stars" not in df.columns
        got = _normalize(df)
        exp = final_state_oracle(spec, out).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        assert got.equals(exp)


def _part_files(lake):
    """{part dir: file bytes} of every lake partition file."""
    return {
        path.split("/")[-2]: open(path, "rb").read()
        for path in sorted(glob.glob(f"{lake}/part=*/data.parquet"))
    }


def _file_ids(lake):
    """{part: (inode, mtime_ns)}: an atomic rewrite replaces the inode."""
    out = {}
    for path in glob.glob(f"{lake}/part=*/data.parquet"):
        st = os.stat(path)
        out[int(path.split("/")[-2].split("=")[1])] = (st.st_ino, st.st_mtime_ns)
    return out


def _prefix(manifest, upto, table_maps=None):
    m = json.loads(json.dumps(manifest))
    m["shards"] = manifest["shards"][:upto]
    if table_maps is not None:
        m["table_maps"] = table_maps
    return m


@pytest.mark.usefixtures("ray_session")
class TestFollowMode:
    @pytest.mark.parametrize("shuffle", ["external", "object_store"])
    def test_three_increments_equal_full(self, small_stream, tmp_path, shuffle):
        """Tailing mode: growing the stream shard-by-shard and following
        writes the same partition files, byte for byte, as one full run."""
        from mysql_binlog_ray.pipelines.cdc import follow

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8, shuffle=shuffle)
        lake_inc = str(tmp_path / "inc")
        for upto in (1, 2, 3):
            follow(_prefix(manifest, upto), lake_inc, cfg)
        lake_full = str(tmp_path / "full")
        run_to_lake(manifest, lake_full, cfg)
        full = _part_files(lake_full)
        assert full and _part_files(lake_inc) == full
        a = read_lake(lake_full).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        b = read_lake(lake_inc).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        assert a.equals(b)

    @pytest.mark.parametrize("shuffle", ["external", "object_store"])
    def test_alter_inside_increment(self, small_stream, tmp_path, shuffle):
        """The ALTER adding `stars` lands inside the second increment, and
        the first step saw only the old table map (as a wire tail does), so
        the read-back files lack the new column: the merged partitions
        still equal a one-shot run byte for byte."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import follow

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8, shuffle=shuffle)
        lake = str(tmp_path / "inc")
        follow(_prefix(manifest, 1, manifest["table_maps"][:1]), lake, cfg)
        first = glob.glob(f"{lake}/part=*/data.parquet")
        assert first and all("stars" not in pq.read_schema(f).names for f in first)
        for upto in (2, 3):
            follow(_prefix(manifest, upto), lake, cfg)
            lake_full = str(tmp_path / f"full{upto}")
            run_to_lake(_prefix(manifest, upto), lake_full, cfg)
            assert _part_files(lake) == _part_files(lake_full)
        got = _normalize(read_lake(lake).to_pandas())
        exp = final_state_oracle(spec, out).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        assert got.equals(exp.sort_values(["repo", "path"]).reset_index(drop=True))

    def test_increment_empties_a_partition(self, tmp_path):
        """An increment that deletes every live row of a touched partition
        leaves a 0-row file and a 0-row manifest entry, byte-identical to
        a one-shot run (stream seed chosen so partition 3 of 16 holds rows
        after the first shard and none after the second)."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import follow

        spec = StreamSpec(seed=1, n_keys=40, n_ops=240, n_shards=2, p_delete=0.4, ddl_at=None)
        out = str(tmp_path / "s")
        manifest = generate_stream(spec, out)
        cfg = CdcConfig(num_partitions=16)
        lake = str(tmp_path / "inc")
        m1 = follow(_prefix(manifest, 1), lake, cfg)
        assert {p["part"]: p["rows"] for p in m1["partitions"]}.get(3, 0) > 0
        m2 = follow(manifest, lake, cfg)
        assert {p["part"]: p["rows"] for p in m2["partitions"]}[3] == 0
        assert pq.ParquetFile(f"{lake}/part=00003/data.parquet").metadata.num_rows == 0
        lake_full = str(tmp_path / "full")
        full = run_to_lake(manifest, lake_full, cfg)
        assert _part_files(lake) == _part_files(lake_full)
        assert m2["partitions"] == full["partitions"]

    def test_increment_without_row_events(self, small_stream, tmp_path):
        """An increment holding no row events touches no partition: no
        file is rewritten, the partition entries carry over unchanged and
        the watermark still advances."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import follow
        from mysql_binlog_ray.protocol.constants import EventType

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8)
        lake = str(tmp_path / "inc")
        m1 = follow(_prefix(manifest, 2), lake, cfg)
        before = _file_ids(lake)

        row_types = {int(t) for t in EventType if "ROWS" in t.name}
        shard = dict(manifest["shards"][2], path=str(tmp_path / "no-rows.parquet"))
        events = pq.read_table(manifest["shards"][2]["path"])
        keep = [p[5] not in row_types for p in events.column("payload").to_pylist()]
        pq.write_table(events.filter(keep), shard["path"])
        m = _prefix(manifest, 2)
        m["shards"].append(shard)

        m2 = follow(m, lake, cfg)
        assert m2["watermark"] == shard["last_event_seq"] > m1["watermark"]
        assert m2["partitions"] == m1["partitions"]
        assert m2["readback_rows"] == 0 and m2["partitions_rewritten"] == 0
        assert _file_ids(lake) == before

    def test_resume_stats_in_manifest(self, small_stream, tmp_path):
        """Each commit records how many committed rows its merge tasks
        read back and how many partitions it rewrote: exactly the prior
        manifest's rows of the partitions whose files were replaced."""
        from mysql_binlog_ray.pipelines.cdc import follow

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8)
        lake = str(tmp_path / "inc")
        m1 = follow(_prefix(manifest, 1), lake, cfg)
        assert m1["readback_rows"] == 0
        assert m1["partitions_rewritten"] == len(m1["partitions"])
        for upto in (2, 3):
            prior = {p["part"]: p["rows"] for p in m1["partitions"]}
            before = _file_ids(lake)
            m2 = follow(_prefix(manifest, upto), lake, cfg)
            after = _file_ids(lake)
            rewritten = [p for p in after if before.get(p) != after[p]]
            assert rewritten
            assert m2["partitions_rewritten"] == len(rewritten)
            assert m2["readback_rows"] == sum(prior.get(p, 0) for p in rewritten)
            assert m2["readback_rows"] > 0
            m1 = m2

    @pytest.mark.parametrize("shuffle,executions", [("external", 1), ("object_store", 1)])
    def test_selective_step_reads_back_inside_merge(
        self, small_stream, tmp_path, monkeypatch, shuffle, executions
    ):
        """Structural guard: a selective follow step reads no lake file
        through Ray Data, materializes nothing, runs no `unique` pass,
        builds no Dataset from driver items, and runs one Ray Data
        execution (the spill for the external exchange, whose merge half
        runs as plain tasks; the groupby merge for the object store)."""
        import ray.data
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        from mysql_binlog_ray.pipelines.cdc import follow

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8, shuffle=shuffle)
        lake = str(tmp_path / "inc")
        follow(_prefix(manifest, 1), lake, cfg)

        real_read = ray.data.read_parquet

        def read_parquet(paths, *a, **k):
            listed = [paths] if isinstance(paths, str) else list(paths)
            if any(str(p).startswith(lake) for p in listed):
                raise AssertionError(f"lake file read through Ray Data: {listed}")
            return real_read(paths, *a, **k)

        def forbidden(name):
            def fail(*a, **k):
                raise AssertionError(f"Dataset.{name} during a selective follow step")

            return fail

        runs = []
        real_execute = StreamingExecutor.execute

        def execute(self, *a, **k):
            runs.append(1)
            return real_execute(self, *a, **k)

        monkeypatch.setattr(ray.data, "read_parquet", read_parquet)
        monkeypatch.setattr(ray.data.Dataset, "materialize", forbidden("materialize"))
        monkeypatch.setattr(ray.data.Dataset, "unique", forbidden("unique"))
        monkeypatch.setattr(ray.data, "from_items", forbidden("from_items"))
        monkeypatch.setattr(StreamingExecutor, "execute", execute)
        m = follow(_prefix(manifest, 2), lake, cfg)
        monkeypatch.undo()
        assert m["readback_rows"] > 0
        assert len(runs) == executions

    def test_failed_merge_keeps_commit_and_removes_spill(self, small_stream, tmp_path):
        """A merge task that cannot read back its committed partition
        fails the step: the manifest stays byte-identical and the spill
        dir is removed once the other merge tasks have ended."""
        from mysql_binlog_ray.pipelines.cdc import follow
        from mysql_binlog_ray.state.checkpoint import manifest_path

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8)
        lake, probe = str(tmp_path / "inc"), str(tmp_path / "probe")
        m1 = follow(_prefix(manifest, 1), lake, cfg)
        # a partition the next step rewrites and must read back
        shutil.copytree(lake, probe)
        before = _file_ids(probe)
        follow(_prefix(manifest, 2), probe, cfg)
        after = _file_ids(probe)
        victim = min(
            p["part"] for p in m1["partitions"] if p["rows"] and before[p["part"]] != after[p["part"]]
        )

        with open(f"{lake}/part={victim:05d}/data.parquet", "r+b") as f:
            f.truncate(10)
        with open(manifest_path(lake), "rb") as f:
            committed = f.read()
        with pytest.raises(Exception):
            follow(_prefix(manifest, 2), lake, cfg)
        with open(manifest_path(lake), "rb") as f:
            assert f.read() == committed
        assert not os.path.exists(f"{lake}/_shuffle")


@pytest.mark.usefixtures("ray_session")
class TestBatchSplitInvariance:
    def test_decode_invariant_to_batch_boundaries(self, small_stream):
        """Stateless decode must produce the same row images no matter how
        the event stream is sliced into batches (commit_seq excepted: it
        is exact only when the XID shares the batch)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from mysql_binlog_ray.stages.decode_stage import BinlogDecoder

        spec, out, manifest = small_stream
        t = pq.read_table(manifest["shards"][0]["path"])
        whole = BinlogDecoder(registry_snapshot=manifest["table_maps"])(t).drop_columns(["commit_seq"])
        dec = BinlogDecoder(registry_snapshot=manifest["table_maps"])
        parts = []
        for lo in range(0, t.num_rows, 7):
            piece = dec(t.slice(lo, 7))
            if piece.num_rows:
                parts.append(piece.drop_columns(["commit_seq"]))
        sliced = pa.concat_tables(parts)
        assert whole.to_pylist() == sliced.to_pylist()


@pytest.mark.usefixtures("ray_session")
class TestMultiTableStream:
    def test_two_tables_two_pipelines(self, tmp_path):
        """One stream carrying two tables: each pipeline targets its own
        table; the other table's events are never decoded (F1), and the
        typed issues table (uint, enum, datetime, decimal) merges
        correctly."""
        from mysql_binlog_ray.fixtures.generator import issues_table_map
        from mysql_binlog_ray.pipelines.cdc import CdcConfig

        spec = StreamSpec(n_keys=120, n_ops=600, n_shards=2, ddl_at=None, issues_every=2)
        out = str(tmp_path)
        m = generate_stream(spec, out)

        # repos pipeline: unaffected by the interleaved issues txns
        repos_cfg = CdcConfig(num_partitions=4, target_table=("code", "repos"))
        got = _normalize(run_to_dataset(m, repos_cfg).to_pandas())
        exp = final_state_oracle(spec, out).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        assert got.equals(exp)

        # issues pipeline: LWW keyed on issue_id over the typed columns
        iss_cfg = CdcConfig(
            num_partitions=4, key_cols=("issue_id",), target_table=("code", "issues")
        )
        iss = run_to_dataset(m, iss_cfg).to_pandas()
        assert len(iss) > 0
        assert iss["issue_id"].is_unique
        assert set(iss["state"]) <= {"open", "closed", "merged"}
        assert iss["opened_at"].str.match(r"^20\d\d-\d\d-\d\d \d\d:\d\d:\d\d$").all()
        # LWW: each issue carries the image from its highest event_seq;
        # verify against a brute-force decode of the whole stream
        import pyarrow.parquet as pq

        from mysql_binlog_ray.stages.decode_stage import BinlogDecoder

        frames = []
        for sh in m["shards"]:
            dec = BinlogDecoder(
                registry_snapshot=m["table_maps"],
                target_table=("code", "issues"),
                output="flat",
                key_cols=("issue_id",),
            )
            frames.append(dec(pq.read_table(sh["path"])).to_pandas())
        import pandas as pd

        all_rows = pd.concat(frames).sort_values(["event_seq", "row_seq"])
        exp_iss = all_rows.groupby("issue_id").tail(1)
        merged = iss.sort_values("issue_id").reset_index(drop=True)
        exp_iss = exp_iss.sort_values("issue_id").reset_index(drop=True)
        for c in ["repo", "state", "opened_at", "weight", "n_comments"]:
            assert merged[c].fillna("_").tolist() == exp_iss[c].fillna("_").tolist(), c


@pytest.mark.usefixtures("ray_session")
class TestShuffleModes:
    def test_object_store_sink_equals_external(self, small_stream, tmp_path):
        spec, out, manifest = small_stream
        lake_ext = str(tmp_path / "ext")
        lake_obj = str(tmp_path / "obj")
        run_to_lake(manifest, lake_ext, CdcConfig(num_partitions=8, shuffle="external"))
        run_to_lake(manifest, lake_obj, CdcConfig(num_partitions=8, shuffle="object_store"))
        a = read_lake(lake_ext).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        b = read_lake(lake_obj).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
class TestCrashRecovery:
    def test_crash_before_manifest_commit_recovers(self, small_stream, tmp_path, monkeypatch):
        """Crash window: partitions written, manifest NOT committed.  The
        next run resumes from the old watermark; because partition files
        carry sequence lineage and the merge is LWW, replay over the
        partially-updated lake converges to the same final table."""
        from mysql_binlog_ray.pipelines import cdc as cdc_mod

        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake")

        # step 1: commit a prefix checkpoint normally
        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:1]
        run_to_lake(prefix, lake, CdcConfig(num_partitions=8))

        # step 2: full run that crashes at the atomicity point
        real_commit = cdc_mod.commit_manifest

        def boom(*a, **k):
            raise RuntimeError("simulated crash before manifest commit")

        monkeypatch.setattr(cdc_mod, "commit_manifest", boom)
        with pytest.raises(RuntimeError):
            run_to_lake(manifest, lake, CdcConfig(num_partitions=8), resume=True)
        monkeypatch.setattr(cdc_mod, "commit_manifest", real_commit)

        # step 3: recovery run + compare against a clean single run
        run_to_lake(manifest, lake, CdcConfig(num_partitions=8), resume=True)
        lake_clean = str(tmp_path / "clean")
        run_to_lake(manifest, lake_clean, CdcConfig(num_partitions=8))
        a = read_lake(lake_clean).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        b = read_lake(lake).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
class TestResumeRepartition:
    @pytest.mark.parametrize("shuffle", ["external", "object_store"])
    def test_resume_with_shrunk_num_partitions_no_duplicates(
        self, small_stream, tmp_path, shuffle
    ):
        """Resume under a smaller num_partitions re-merges the whole lake
        into the new layout; prior partition files/manifest rows must NOT
        survive (they would duplicate every key on read_lake)."""
        import glob

        spec, out, manifest = small_stream
        lake = str(tmp_path / f"lake_{shuffle}")
        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:2]
        run_to_lake(prefix, lake, CdcConfig(num_partitions=16, shuffle=shuffle))
        run_to_lake(manifest, lake, CdcConfig(num_partitions=8, shuffle=shuffle), resume=True)

        m = json.load(open(f"{lake}/_manifest.json"))
        assert m["num_partitions"] == 8
        assert max(p["part"] for p in m["partitions"]) < 8
        # no orphaned part dirs beyond the new layout
        on_disk = {int(d.split("=")[1]) for d in
                   (p.split("/")[-2] for p in glob.glob(f"{lake}/part=*/data.parquet"))}
        assert on_disk == {p["part"] for p in m["partitions"]}

        got = read_lake(lake).to_pandas()
        assert not got.duplicated(["repo", "path"]).any(), "duplicate keys after repartitioned resume"
        # and content matches a clean single run
        lake_clean = str(tmp_path / f"clean_{shuffle}")
        run_to_lake(manifest, lake_clean, CdcConfig(num_partitions=8, shuffle=shuffle))
        a = got.sort_values(["repo", "path"]).reset_index(drop=True)
        b = read_lake(lake_clean).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        assert a.equals(b)

    def test_resume_with_legacy_hash_algo_falls_back(self, small_stream, tmp_path):
        """A lake written under a different partition-hash algorithm must
        not be selectively resumed (keys would be looked up in the wrong
        partitions); the fallback full re-merge still converges."""
        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake")
        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:2]
        run_to_lake(prefix, lake, CdcConfig(num_partitions=8))
        # simulate a lake written by an older release
        mpath = f"{lake}/_manifest.json"
        m = json.load(open(mpath))
        m["hash_algo"] = "pandas-siphash-v1"
        json.dump(m, open(mpath, "w"))

        run_to_lake(manifest, lake, CdcConfig(num_partitions=8), resume=True)
        got = read_lake(lake).to_pandas()
        assert not got.duplicated(["repo", "path"]).any()
        lake_clean = str(tmp_path / "clean")
        run_to_lake(manifest, lake_clean, CdcConfig(num_partitions=8))
        a = got.sort_values(["repo", "path"]).reset_index(drop=True)
        b = read_lake(lake_clean).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
class TestMultiTableLakes:
    def test_one_stream_two_lakes(self, tmp_path):
        """run_tables_to_lakes: one binlog stream feeds independent
        exactly-once lakes per table; repos matches the replay oracle,
        issues carries its typed columns; incremental follow per table."""
        from mysql_binlog_ray.fixtures.generator import final_state_oracle
        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            read_lake,
            run_tables_to_lakes,
        )

        spec = StreamSpec(n_keys=150, n_ops=900, n_shards=3, issues_every=3)
        out = str(tmp_path / "stream")
        manifest = generate_stream(spec, out)
        base = str(tmp_path / "lakes")
        cfgs = {
            ("code", "repos"): CdcConfig(num_partitions=8, key_cols=("repo", "path")),
            ("code", "issues"): CdcConfig(num_partitions=4, key_cols=("issue_id",)),
        }
        # incremental: first 2 shards, then resume with all 3
        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:2]
        run_tables_to_lakes(prefix, base, cfgs)
        res = run_tables_to_lakes(manifest, base, cfgs)
        assert set(res) == {"code.repos", "code.issues"}

        repos = _normalize(read_lake(f"{base}/code.repos").to_pandas())
        exp = final_state_oracle(spec, out).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
        assert repos.equals(exp)

        issues = read_lake(f"{base}/code.issues").to_pandas()
        assert len(issues) > 0
        assert not issues.duplicated(["issue_id"]).any()
        assert set(issues["state"]) <= {"open", "closed", "merged"}
        # typed columns survived decode + merge + parquet round-trip
        assert issues["n_comments"].dtype.kind == "i"

    def test_concurrent_tables_equal_sequential(self, tmp_path):
        """concurrency=2 runs both tables' pipelines from driver threads;
        lakes are identical to the sequential run (disjoint lake/spill
        state; only the immutable input shards are shared)."""
        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            read_lake,
            run_tables_to_lakes,
        )

        spec = StreamSpec(n_keys=120, n_ops=700, n_shards=3, issues_every=3)
        out = str(tmp_path / "stream")
        manifest = generate_stream(spec, out)
        cfgs = {
            ("code", "repos"): CdcConfig(num_partitions=8, key_cols=("repo", "path")),
            ("code", "issues"): CdcConfig(num_partitions=4, key_cols=("issue_id",)),
        }
        seq = str(tmp_path / "seq")
        conc = str(tmp_path / "conc")
        run_tables_to_lakes(manifest, seq, cfgs)
        res = run_tables_to_lakes(manifest, conc, cfgs, concurrency=2)
        assert set(res) == {"code.repos", "code.issues"}
        for name, keys in [("code.repos", ["repo", "path"]), ("code.issues", ["issue_id"])]:
            a = read_lake(f"{seq}/{name}").to_pandas().sort_values(keys).reset_index(drop=True)
            b = read_lake(f"{conc}/{name}").to_pandas().sort_values(keys).reset_index(drop=True)
            assert a.equals(b), name


@pytest.mark.usefixtures("ray_session")
class TestCdcWindowedActivity:
    def test_windowed_activity_matches_sequential_replay(self, tmp_path):
        """Tumbling-window aggregate over the parallel changefeed equals
        the same aggregation over the single-threaded sequential decode
        (the replay oracle for non-SQL-expressible CDC operators)."""
        import pandas as pd

        from mysql_binlog_ray.pipelines.cdc import (
            CdcConfig,
            decode_changefeed,
            read_event_stream,
        )
        from mysql_binlog_ray.pipelines.queries import windowed_changefeed_activity
        from mysql_binlog_ray.pipelines.sequential import decode_shards_sequential

        spec = StreamSpec(n_keys=100, n_ops=600, n_shards=3)
        manifest = generate_stream(spec, str(tmp_path / "stream"))

        cf = decode_changefeed(
            read_event_stream(manifest), manifest["table_maps"], CdcConfig()
        )

        # the PRODUCTION aggregation body — not a copy of it
        got = (
            windowed_changefeed_activity(cf)
            .to_pandas()
            .sort_values(["table_name", "op", "window_start"])
            .reset_index(drop=True)
        )

        seq = decode_shards_sequential(manifest).to_pandas()
        seq["window_start"] = (seq["ts"] // 60) * 60
        exp = (
            seq.groupby(["table_name", "op", "window_start"])
            .agg(
                n_rows=("event_seq", "size"),
                min_seq=("event_seq", "min"),
                max_seq=("event_seq", "max"),
            )
            .reset_index()
            .sort_values(["table_name", "op", "window_start"])
            .reset_index(drop=True)
        )
        assert got["window_start"].nunique() > 1  # window grid is real
        pd.testing.assert_frame_equal(
            got.astype({"n_rows": "int64"}), exp.astype({"n_rows": "int64"})
        )


@pytest.mark.usefixtures("ray_session")
class TestSnapshotBootstrap:
    """Debezium-style initial load: seed the lake from a consistent
    snapshot at a mid-stream watermark, then catch up from the binlog.
    The bootstrapped lake must equal a clean full-stream lake on every
    value column (lineage differs by construction: snapshot rows carry
    (snapshot_seq, 0))."""

    @pytest.mark.parametrize("shuffle", ["object_store", "external"])
    def test_bootstrap_equals_full_replay(self, small_stream, tmp_path, shuffle):
        from mysql_binlog_ray.pipelines.cdc import bootstrap_lake

        spec, out, manifest = small_stream
        # consistent snapshot at the 2-shard prefix watermark, built by
        # the engine itself (merged state as of that point)
        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:2]
        snapshot_seq = max(s["last_event_seq"] for s in prefix["shards"])
        merged = run_to_dataset(prefix, CdcConfig(num_partitions=8)).materialize()
        exp = final_state_oracle(spec, out).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)

        # the engine's merged state carries event_seq/row_seq lineage; a
        # plain table dump has value columns only — both must seed
        snapshots = {
            "lineage": merged,
            "plain": merged.drop_columns(["event_seq", "row_seq"]),
        }
        for name, snapshot in snapshots.items():
            lake_boot = str(tmp_path / f"boot_{shuffle}_{name}")
            cfg = CdcConfig(num_partitions=8, shuffle=shuffle)
            m = bootstrap_lake(snapshot, snapshot_seq, manifest, lake_boot, cfg)
            assert m["watermark"] == max(s["last_event_seq"] for s in manifest["shards"])

            got = _normalize(read_lake(lake_boot).to_pandas())
            assert got.equals(exp), f"{name} snapshot: bootstrapped lake differs from oracle"

    @pytest.mark.parametrize("shuffle", ["object_store", "external"])
    def test_empty_snapshot_lake_reads_compacts_follows(self, small_stream, tmp_path, shuffle):
        """A lake with zero live rows is a valid lake: read_lake returns
        an empty Dataset, compact_lake commits, and follow (under a
        partition count that differs from the compacted one, so the full
        re-merge path unions the empty prior state) catches up to the
        replay oracle."""
        import ray.data as rd

        from mysql_binlog_ray.pipelines.cdc import compact_lake, follow, seed_lake_from_snapshot
        from mysql_binlog_ray.state.checkpoint import read_manifest

        spec, out, manifest = small_stream
        lake = str(tmp_path / f"empty_{shuffle}")
        # an empty table snapshotted before the stream's first event
        snapshot_seq = manifest["shards"][0]["first_event_seq"] - 1
        m = seed_lake_from_snapshot(rd.from_items([]), snapshot_seq, lake, CdcConfig())
        assert m["partitions"] == [] and m["watermark"] == snapshot_seq

        assert read_lake(lake).count() == 0
        m = compact_lake(lake, 4)
        assert m["num_partitions"] == 4 and m["partitions"] == []
        assert read_manifest(lake)["watermark"] == snapshot_seq

        follow(manifest, lake, CdcConfig(num_partitions=8, shuffle=shuffle))
        got = _normalize(read_lake(lake).to_pandas())
        exp = final_state_oracle(spec, out).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
        assert got.equals(exp)

    def test_catchup_delete_removes_snapshot_row(self, small_stream, tmp_path):
        """A key deleted between snapshot and head must not survive: the
        snapshot row's (snapshot_seq, 0) lineage loses to any catch-up
        tombstone."""
        from mysql_binlog_ray.pipelines.cdc import bootstrap_lake

        spec, out, manifest = small_stream
        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:2]
        snapshot_seq = max(s["last_event_seq"] for s in prefix["shards"])
        snapshot = run_to_dataset(prefix, CdcConfig(num_partitions=8))
        snap_df = snapshot.to_pandas()
        exp = final_state_oracle(spec, out).to_pandas()
        snap_keys = set(zip(snap_df["repo"], snap_df["path"]))
        final_keys = set(zip(exp["repo"], exp["path"]))
        gone = snap_keys - final_keys
        assert gone, "fixture must delete at least one snapshot key in the tail"

        lake = str(tmp_path / "boot_del")
        bootstrap_lake(
            snapshot, snapshot_seq, manifest, lake, CdcConfig(num_partitions=8)
        )
        lk = read_lake(lake).to_pandas()
        lake_keys = set(zip(lk["repo"], lk["path"]))
        if lake_keys != final_keys:
            # rare-flake diagnostics: which lake partitions the diff
            # concentrates in, the committed manifest, and whether the
            # SNAPSHOT itself already disagreed with the prefix replay
            import pandas as _pd
            import pyarrow as _pa

            from mysql_binlog_ray.pipelines.cdc import add_partition_column, read_manifest

            diff = sorted((lake_keys - final_keys) | (final_keys - lake_keys))
            ddf = _pd.DataFrame(diff, columns=["repo", "path"])
            t = _pa.Table.from_pandas(ddf, preserve_index=False)
            ddf["part"] = add_partition_column(t, ("repo", "path"), 8).column("_part").to_numpy()
            ddf["kind"] = [
                "extra" if k in lake_keys else "missing" for k in map(tuple, diff)
            ]
            m = read_manifest(lake)
            raise AssertionError(
                f"lake != final replay: extra={len(lake_keys - final_keys)} "
                f"missing={len(final_keys - lake_keys)}\n"
                f"by partition:\n{ddf.groupby(['part', 'kind']).size()}\n"
                f"manifest: {[(p['part'], p['rows'], p['max_event_seq']) for p in sorted(m['partitions'], key=lambda p: p['part'])]}\n"
                f"watermark={m['watermark']} snapshot_seq={snapshot_seq}\n"
                f"lake dup keys={int(lk.duplicated(subset=['repo', 'path']).sum())} "
                f"lake rows={len(lk)} snap rows={len(snap_df)} "
                f"snap dup keys={int(snap_df.duplicated(subset=['repo', 'path']).sum())}\n"
                f"snapshot-vs-final gone kept in lake: {sorted(gone & lake_keys)[:10]}"
            )
        assert not (gone & lake_keys)

    def test_seed_refuses_nonempty_lake(self, small_stream, tmp_path):
        from mysql_binlog_ray.pipelines.cdc import seed_lake_from_snapshot

        spec, out, manifest = small_stream
        lake = str(tmp_path / "seeded")
        run_to_lake(manifest, lake, CdcConfig(num_partitions=4))
        snap = run_to_dataset(manifest, CdcConfig(num_partitions=4))
        with pytest.raises(ValueError, match="already has a manifest"):
            seed_lake_from_snapshot(snap, 10, lake, CdcConfig(num_partitions=4))

    def test_bootstrap_rerun_after_seed_commit(self, small_stream, tmp_path):
        """Crash between seed commit and catch-up: re-running
        bootstrap_lake must skip the (already committed) seed and finish
        the catch-up idempotently."""
        from mysql_binlog_ray.pipelines.cdc import (
            bootstrap_lake,
            seed_lake_from_snapshot,
        )

        spec, out, manifest = small_stream
        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:2]
        snapshot_seq = max(s["last_event_seq"] for s in prefix["shards"])
        snapshot = run_to_dataset(prefix, CdcConfig(num_partitions=8))

        lake = str(tmp_path / "boot_crash")
        cfg = CdcConfig(num_partitions=8)
        # simulate the crash: the seed committed, the catch-up never ran
        seed_lake_from_snapshot(snapshot, snapshot_seq, lake, cfg)
        bootstrap_lake(snapshot, snapshot_seq, manifest, lake, cfg)

        got = _normalize(read_lake(lake).to_pandas())
        exp = final_state_oracle(spec, out).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
        assert got.equals(exp)

    def test_bootstrap_refuses_lake_behind_snapshot(self, small_stream, tmp_path):
        """A pre-existing lake at a watermark BEHIND the snapshot point
        cannot have come from this bootstrap -> hard error."""
        from mysql_binlog_ray.pipelines.cdc import bootstrap_lake

        spec, out, manifest = small_stream
        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:1]
        lake = str(tmp_path / "boot_behind")
        run_to_lake(prefix, lake, CdcConfig(num_partitions=8))
        snapshot_seq = max(s["last_event_seq"] for s in manifest["shards"][:2])
        snapshot = run_to_dataset(prefix, CdcConfig(num_partitions=8))
        with pytest.raises(ValueError, match="not produced by this bootstrap"):
            bootstrap_lake(
                snapshot, snapshot_seq, manifest, lake, CdcConfig(num_partitions=8)
            )


class TestOneLakeWriter:
    """Structural guard: the lake has one commit path and one final LWW
    per flavor (Dataset-returning ``merge_lww`` and the per-partition
    lake writer).  A second writer would have to re-derive the layout
    record that selective resume and point lookups depend on."""

    PIPELINES = os.path.join(
        os.path.dirname(__file__), os.pardir, "mysql_binlog_ray", "pipelines"
    )

    def _calls(self, path, name):
        """Top-level functions of ``path`` that call ``name``, with counts."""
        import ast

        tree = ast.parse(open(path).read())
        found = {}
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    found[top.name] = found.get(top.name, 0) + 1
        return found

    def _modules(self):
        return sorted(glob.glob(os.path.join(self.PIPELINES, "*.py")))

    def test_only_cdc_imports_commit_manifest(self):
        import ast

        importers, callers = [], []
        for path in self._modules():
            for node in ast.walk(ast.parse(open(path).read())):
                if isinstance(node, ast.ImportFrom) and any(
                    a.name == "commit_manifest" for a in node.names
                ):
                    importers.append(os.path.basename(path))
            if self._calls(path, "commit_manifest"):
                callers.append(os.path.basename(path))
        assert importers == ["cdc.py"] and callers == ["cdc.py"]

    def test_commit_manifest_called_from_one_function(self):
        calls = self._calls(os.path.join(self.PIPELINES, "cdc.py"), "commit_manifest")
        assert list(calls) == ["_commit_lake"] and calls["_commit_lake"] == 1

    def test_lww_final_called_from_merge_lww_and_lake_writer(self):
        callers = {}
        for path in self._modules():
            for fn in self._calls(path, "lww_final"):
                callers.setdefault(os.path.basename(path), []).append(fn)
        assert callers == {"cdc.py": ["merge_lww", "_merge_write_partition"]}
