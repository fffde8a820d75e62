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
class TestDatasetPathsShareExchange:
    """The Dataset-returning paths merge through the lake's keyed
    exchange (``merge_lww``): every block carries the full schema, the
    blocks concatenate, and the rows equal the sequential replay."""

    def _check(self, ds, exp):
        import pyarrow as pa
        import ray

        blocks = ray.get(ds.to_arrow_refs())
        assert blocks
        assert {"repo", "path", "content", "event_seq", "row_seq"} <= set(blocks[0].column_names)
        for b in blocks:
            assert b.schema.equals(blocks[0].schema), b.schema
        got = _normalize(pa.concat_tables(blocks).to_pandas())
        exp = exp.to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        assert got.equals(exp.sort_values(["repo", "path"]).reset_index(drop=True))

    def test_blocks_concat_and_match_oracle(self, small_stream):
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import (
            _with_flat_decode,
            decode_changefeed,
            merge_lww,
            read_event_stream,
            state_as_of,
        )

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=4)
        self._check(run_to_dataset(manifest, cfg), final_state_oracle(spec, out))
        seqs = sorted(pq.read_table(f"{out}/oplog.parquet")["event_seq"].to_pylist())
        w = seqs[len(seqs) // 2]
        self._check(state_as_of(manifest, w, cfg), final_state_oracle(spec, out, max_event_seq=w))
        flat_cfg = _with_flat_decode(cfg)
        flat = decode_changefeed(read_event_stream(manifest), manifest["table_maps"], flat_cfg)
        self._check(merge_lww(flat, flat_cfg), final_state_oracle(spec, out))

    def _assert_equals_lake(self, manifest, cfg, lake, monkeypatch):
        """``run_to_dataset``'s blocks, concatenated, equal ``read_lake``
        of a one-shot ``run_to_lake`` (read in partition order): schema,
        column order, rows and row order."""
        import pyarrow as pa
        import ray
        from ray.data import DataContext

        run_to_lake(manifest, lake, cfg)
        got = pa.concat_tables(ray.get(run_to_dataset(manifest, cfg).to_arrow_refs()))
        options = DataContext.get_current().execution_options
        monkeypatch.setattr(options, "preserve_order", True)
        want = pa.concat_tables(ray.get(read_lake(lake).to_arrow_refs()))
        assert got.num_rows > 0
        assert got.schema.equals(want.schema), (got.schema, want.schema)
        assert got.equals(want)

    @pytest.mark.parametrize("num_partitions", [4, 8])
    def test_run_to_dataset_equals_one_shot_lake(
        self, small_stream, tmp_path, monkeypatch, num_partitions
    ):
        # small_stream's ALTER adds `stars` mid-stream
        _spec, _out, manifest = small_stream
        cfg = CdcConfig(num_partitions=num_partitions)
        self._assert_equals_lake(manifest, cfg, str(tmp_path), monkeypatch)

    def test_issues_run_to_dataset_equals_one_shot_lake(self, tmp_path, monkeypatch):
        spec = StreamSpec(n_keys=400, n_ops=3000, n_shards=3, issues_every=3)
        manifest = generate_stream(spec, str(tmp_path / "stream"))
        cfg = CdcConfig(num_partitions=4, key_cols=("issue_id",), target_table=("code", "issues"))
        self._assert_equals_lake(manifest, cfg, str(tmp_path / "lake"), monkeypatch)

    def test_scratch_dir_removed(self, small_stream, tmp_path, monkeypatch):
        """The exchange's scratch dir lives under ``TMPDIR`` and is gone
        after a successful merge and after a failed spill task."""
        import tempfile

        import ray
        import ray.data as rd

        from mysql_binlog_ray.pipelines.cdc import merge_lww

        spec, out, manifest = small_stream
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        made = []
        real_mkdtemp = tempfile.mkdtemp

        def mkdtemp(*a, **k):
            made.append(real_mkdtemp(*a, **k))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        assert run_to_dataset(manifest, CdcConfig(num_partitions=4)).count() > 0
        assert len(made) == 1 and made[0].startswith(str(scratch))
        assert os.listdir(scratch) == []

        # one row without the key columns: the partial combine passes a
        # 1-row block through, and the spill task's partition hash raises
        flat = rd.from_items([{"x": 1, "op": "insert", "event_seq": 1, "row_seq": 0}])
        with pytest.raises(ray.exceptions.RayTaskError, match="repo"):
            merge_lww(flat, CdcConfig(num_partitions=4))
        assert len(made) == 2 and made[1].startswith(str(scratch))
        assert os.listdir(scratch) == []


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


def _guard_ray_data(monkeypatch, refuse_read):
    """Patch Ray Data so that ``read_parquet`` raises for any path
    ``refuse_read`` accepts and ``materialize``, ``unique`` and
    ``from_items`` raise; returns the list that every streaming
    execution appends to.  ``monkeypatch.undo()`` lifts the guard."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    real_read = ray.data.read_parquet

    def read_parquet(paths, *a, **k):
        listed = [paths] if isinstance(paths, str) else list(paths)
        if any(refuse_read(str(p)) for p in listed):
            raise AssertionError(f"read through Ray Data: {listed}")
        return real_read(paths, *a, **k)

    def forbidden(name):
        def fail(*a, **k):
            raise AssertionError(f"Dataset.{name} under the Ray Data guard")

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
    return runs


@pytest.mark.usefixtures("ray_session")
class TestFollowMode:
    def test_three_increments_equal_full(self, small_stream, tmp_path):
        """Tailing mode: growing the stream shard-by-shard and following
        writes the same partition files, byte for byte, as one full run."""
        from mysql_binlog_ray.pipelines.cdc import follow

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8)
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

    def test_alter_inside_increment(self, small_stream, tmp_path):
        """The ALTER adding `stars` lands inside the second increment, and
        the first step saw only the old table map (as a wire tail does), so
        the read-back files lack the new column: the merged partitions
        still equal a one-shot run byte for byte."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import follow

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8)
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
        assert m2["spill_bytes"] == 0
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

    def test_selective_step_reads_back_inside_merge(self, small_stream, tmp_path, monkeypatch):
        """Structural guard: a selective follow step reads nothing through
        Ray Data (`read_parquet` refuses every path), materializes
        nothing, runs no `unique` pass, builds no Dataset with
        `from_items` and runs no Ray Data execution: the spill and merge
        halves of the exchange are plain tasks, and the merge tasks read
        back their own committed partitions."""
        from mysql_binlog_ray.pipelines.cdc import follow

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8)
        lake = str(tmp_path / "inc")
        follow(_prefix(manifest, 1), lake, cfg)

        runs = _guard_ray_data(monkeypatch, lambda p: True)
        m = follow(_prefix(manifest, 2), lake, cfg)
        monkeypatch.undo()
        assert m["readback_rows"] > 0
        assert runs == []

    def test_fresh_external_commit_runs_no_ray_data(self, small_stream, tmp_path, monkeypatch):
        """A fresh commit is plain Ray tasks only: no Ray Data execution
        and no `read_parquet`, yet every partition file holds exactly the
        rows of the sequential replay (`final_state_oracle`) that hash to
        its partition, sorted by key."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from mysql_binlog_ray.stages.merge import partition_codes

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8)
        lake = str(tmp_path / "lake")
        runs = _guard_ray_data(monkeypatch, lambda p: True)
        m = run_to_lake(manifest, lake, cfg, resume=False)
        monkeypatch.undo()
        assert runs == [] and m["partitions_rewritten"] > 0

        oracle = final_state_oracle(spec, out)
        codes = partition_codes(oracle, cfg.key_cols, cfg.num_partitions)
        oracle = oracle.to_pandas()
        oracle["stars"] = oracle["stars"].astype("float64")
        files = _part_files(lake)
        assert sorted(files) == [f"part={p['part']:05d}" for p in m["partitions"]]
        for p in m["partitions"]:
            got = pq.ParquetFile(pa.BufferReader(files[f"part={p['part']:05d}"])).read()
            want = oracle[codes == p["part"]].sort_values(list(cfg.key_cols))
            assert got.num_rows == p["rows"] > 0
            assert got.equals(got.sort_by([(k, "ascending") for k in cfg.key_cols]))
            assert _normalize(got.to_pandas()).equals(want.reset_index(drop=True)), p["part"]

    def test_failed_spill_keeps_commit_and_removes_spill(self, small_stream, tmp_path):
        """A spill task that cannot read its stream shard (the newest one,
        truncated) fails the step: the manifest stays byte-identical, and
        the spill dir stays removed after the other spill tasks end."""
        import time

        from mysql_binlog_ray.pipelines.cdc import follow
        from mysql_binlog_ray.state.checkpoint import manifest_path

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8)
        lake = str(tmp_path / "inc")
        follow(_prefix(manifest, 1), lake, cfg)
        broken = _prefix(manifest, 2)
        newest = dict(manifest["shards"][2], path=str(tmp_path / "newest.parquet"))
        broken["shards"].append(newest)
        shutil.copyfile(manifest["shards"][2]["path"], newest["path"])
        with open(newest["path"], "r+b") as f:
            f.truncate(os.path.getsize(newest["path"]) // 2)
        with open(manifest_path(lake), "rb") as f:
            committed = f.read()
        with pytest.raises(Exception):
            follow(broken, lake, cfg)
        time.sleep(1.0)  # a spill task left running would re-create the dir
        with open(manifest_path(lake), "rb") as f:
            assert f.read() == committed
        assert not os.path.exists(f"{lake}/_shuffle")
        assert not os.path.exists(f"{lake}/_compact")

    def test_split_shard_files(self, small_stream, tmp_path, monkeypatch):
        """Blocks that split shard files (a smaller block-byte target, so
        ``k > 1``) write the same partition files, fresh and under a
        3-step follow, as whole-file blocks, and match the oracle."""
        from mysql_binlog_ray.pipelines import cdc

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8)
        whole = str(tmp_path / "whole")
        run_to_lake(manifest, whole, cfg)
        assert all(k == 1 for _p, _i, k in cdc.event_read_units(manifest))

        monkeypatch.setattr(cdc, "_EVENT_BLOCK_BYTES", 64 << 10)
        assert max(k for _p, _i, k in cdc.event_read_units(manifest)) > 1
        fresh, inc = str(tmp_path / "fresh"), str(tmp_path / "inc")
        run_to_lake(manifest, fresh, cfg)
        for upto in (1, 2, 3):
            cdc.follow(_prefix(manifest, upto), inc, cfg)
        assert _part_files(fresh) == _part_files(whole) == _part_files(inc)
        exp = final_state_oracle(spec, out).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
        assert _normalize(read_lake(inc).to_pandas()).equals(exp)

    def test_more_shard_files_than_block_cap(self, small_stream, tmp_path, monkeypatch):
        """More shard files than the block cap: every file still gets a
        read unit, so the commit, whose watermark passes every file,
        holds every file's row images and matches the oracle."""
        from mysql_binlog_ray.pipelines import cdc

        spec, out, manifest = small_stream
        monkeypatch.setattr(cdc, "_MAX_EVENT_BLOCKS", 2)
        monkeypatch.setattr(cdc, "_EVENT_BLOCK_BYTES", 1)
        paths = sorted(s["path"] for s in manifest["shards"])
        assert len(paths) > 2
        assert sorted(p for p, _i, _k in cdc.event_read_units(manifest)) == paths
        lake = str(tmp_path / "lake")
        m = run_to_lake(manifest, lake, CdcConfig(num_partitions=8))
        assert m["row_images"] == sum(s["num_ops"] for s in manifest["shards"])
        exp = final_state_oracle(spec, out).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        exp = exp.sort_values(["repo", "path"]).reset_index(drop=True)
        assert _normalize(read_lake(lake).to_pandas()).equals(exp)

    def test_spill_tasks_in_flight_are_bounded(self, tmp_path, monkeypatch):
        """The keyed exchange keeps at most two spill tasks per CPU in
        flight, so a streamed Dataset's blocks (here a snapshot seed's)
        stay under Ray Data's backpressure rather than all landing in
        the object store while slow spill tasks queue."""
        import time

        import ray
        import ray.data as rd

        from mysql_binlog_ray.pipelines import cdc

        window = 2 * int(ray.cluster_resources()["CPU"])
        spill = cdc._spill_task._function

        @ray.remote
        def slow_spill(*a):
            time.sleep(0.2)
            return spill(*a)

        refs, unfinished = [], []

        class Counting:
            def remote(self, *a):
                unfinished.append(len(ray.wait(refs, num_returns=len(refs), timeout=0)[1]))
                refs.append(slow_spill.remote(*a))
                return refs[-1]

        monkeypatch.setattr(cdc, "_spill_task", Counting())
        rows = [
            {"repo": f"r{i % 7}", "path": f"p{i}", "commit": "c", "lang": "py", "content": "x"}
            for i in range(6 * window)
        ]
        snapshot = rd.from_items(rows, override_num_blocks=3 * window)
        lake = str(tmp_path / "seeded")
        cdc.seed_lake_from_snapshot(snapshot, 0, lake, CdcConfig(num_partitions=4))
        assert len(unfinished) == 3 * window
        assert max(unfinished) < window
        assert read_lake(lake).count() == len(rows)

    def test_failed_merge_keeps_commit_and_removes_spill(self, small_stream, tmp_path):
        """A merge task that cannot read back its committed partition
        fails the step: the manifest and every partition file stay
        byte-identical (the other merge tasks' files are staged, never
        moved into place), the staging and spill dirs are removed once
        the other merge tasks have ended, and with the victim repaired
        the lake reads as the committed watermark's state."""
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

        victim_path = f"{lake}/part={victim:05d}/data.parquet"
        with open(victim_path, "rb") as f:
            good = f.read()
        with open(victim_path, "r+b") as f:
            f.truncate(10)
        files = _part_files(lake)
        with open(manifest_path(lake), "rb") as f:
            committed = f.read()
        with pytest.raises(Exception):
            follow(_prefix(manifest, 2), lake, cfg)
        with open(manifest_path(lake), "rb") as f:
            assert f.read() == committed
        assert _part_files(lake) == files
        assert not os.path.exists(f"{lake}/_shuffle")
        assert not os.path.exists(f"{lake}/_compact")

        with open(victim_path, "wb") as f:
            f.write(good)
        got = _normalize(read_lake(lake).to_pandas())
        exp = final_state_oracle(spec, out, max_event_seq=m1["watermark"]).to_pandas()
        exp["stars"] = exp["stars"].astype("float64")
        assert got.equals(exp.sort_values(["repo", "path"]).reset_index(drop=True))


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
class TestDecodeCounters:
    def test_counters_count_every_row_image(self, small_stream, tmp_path):
        """A commit records its spill tasks' decode counters: a fresh run
        counts every row image the generator wrote, and a follow counts
        each increment's once."""
        from mysql_binlog_ray.pipelines.cdc import follow

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8)
        n_ops = sum(s["num_ops"] for s in manifest["shards"])
        fresh = run_to_lake(manifest, str(tmp_path / "fresh"), cfg)
        assert fresh["row_images"] == n_ops
        assert fresh["events_decoded"] > n_ops // 10
        assert fresh["checksum_failures"] == 0
        assert fresh["spill_bytes"] > 0
        steps = [follow(_prefix(manifest, upto), str(tmp_path / "inc"), cfg) for upto in (1, 2, 3)]
        assert sum(m["row_images"] for m in steps) == n_ops
        assert sum(m["events_decoded"] for m in steps) == fresh["events_decoded"]
        assert all(m["spill_bytes"] > 0 for m in steps)

    def test_seed_and_compaction_record_counters(self, small_stream, tmp_path):
        """A snapshot seed and a compaction record the exchange's
        counters as a ``run_to_lake`` commit does: spill bytes, no
        read-back, one rewritten partition per manifest entry; they
        decode nothing, so they record no decode counter."""
        from mysql_binlog_ray.pipelines.cdc import compact_lake, seed_lake_from_snapshot

        spec, out, manifest = small_stream
        cfg = CdcConfig(num_partitions=8)
        fresh = str(tmp_path / "fresh")
        m = run_to_lake(manifest, fresh, cfg)
        seeded = seed_lake_from_snapshot(read_lake(fresh), m["watermark"], str(tmp_path / "seed"), cfg)
        compacted = compact_lake(fresh, 4)
        for c in (seeded, compacted):
            assert c["spill_bytes"] > 0
            assert c["readback_rows"] == 0
            assert c["partitions_rewritten"] == len(c["partitions"]) > 0
            assert "row_images" not in c and "events_decoded" not in c

    def test_checksum_failure_is_counted(self, small_stream, tmp_path):
        """One flipped byte in one WRITE_ROWS event (on a copy of the
        shard): the corrupt event's rows are missing from the commit, and
        the manifest now says so."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        spec, out, manifest = small_stream
        m = _prefix(manifest, 3)
        m["shards"][0] = dict(m["shards"][0], path=str(tmp_path / "flipped.parquet"))
        t = pq.read_table(manifest["shards"][0]["path"])
        payloads = t.column("payload").to_pylist()
        i = next(k for k, p in enumerate(payloads) if p[5] == 0x1E)  # WRITE_ROWS_V2
        flipped = bytearray(payloads[i])
        flipped[len(flipped) // 2] ^= 0xFF
        payloads[i] = bytes(flipped)
        col = t.schema.get_field_index("payload")
        pq.write_table(
            t.set_column(col, "payload", pa.array(payloads, pa.binary())), m["shards"][0]["path"]
        )
        got = run_to_lake(m, str(tmp_path / "lake"), CdcConfig(num_partitions=8))
        assert got["checksum_failures"] == 1
        assert got["row_images"] < sum(s["num_ops"] for s in manifest["shards"])


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
    def test_resume_with_shrunk_num_partitions_no_duplicates(
        self, small_stream, tmp_path, monkeypatch
    ):
        """Resume under a smaller num_partitions re-merges the whole lake
        into the new layout; prior partition files/manifest rows must NOT
        survive (they would duplicate every key on read_lake).  The
        re-merge runs no Ray Data execution and counts the increment's
        row images only."""
        import glob

        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake")
        prefix = json.loads(json.dumps(manifest))
        prefix["shards"] = manifest["shards"][:2]
        run_to_lake(prefix, lake, CdcConfig(num_partitions=16))
        runs = _guard_ray_data(monkeypatch, lambda p: True)
        step = run_to_lake(manifest, lake, CdcConfig(num_partitions=8), resume=True)
        monkeypatch.undo()
        assert runs == []
        assert step["row_images"] == sum(s["num_ops"] for s in manifest["shards"][2:])

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
        lake_clean = str(tmp_path / "clean")
        run_to_lake(manifest, lake_clean, CdcConfig(num_partitions=8))
        a = got.sort_values(["repo", "path"]).reset_index(drop=True)
        b = read_lake(lake_clean).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        assert a.equals(b)

    def test_relayout_over_pre_alter_lake_keeps_decoder_column_order(self, small_stream, tmp_path):
        """A layout change re-merges a lake committed before the ALTER
        (no `stars`) with decoded rows that carry it.  Each new partition
        holds rows from all 16 old files and from the 2 decoded shards;
        the merge reads the decoded rows first, so every file has the
        decoder's column order, not one that depends on which spill file
        name sorts first, and equals a one-shot run byte for byte."""
        import pyarrow.parquet as pq

        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake")
        run_to_lake(_prefix(manifest, 1, manifest["table_maps"][:1]), lake, CdcConfig(num_partitions=16))
        run_to_lake(manifest, lake, CdcConfig(num_partitions=5))
        lake_clean = str(tmp_path / "clean")
        run_to_lake(manifest, lake_clean, CdcConfig(num_partitions=5))
        names = {tuple(pq.read_schema(f).names) for f in glob.glob(f"{lake}/part=*/data.parquet")}
        assert names == {("repo", "path", "commit", "lang", "content", "stars", "event_seq", "row_seq")}
        assert _part_files(lake) == _part_files(lake_clean)

    def test_failed_relayout_keeps_committed_lake(self, small_stream, tmp_path):
        """A layout change whose merge task fails must leave the committed
        lake as it was: the manifest and every partition file byte for
        byte, no staging or spill dir, no duplicate key on read.  The
        fault: committed part 3 holds only rows that hash to new
        partition 0, with ``lang`` as large_string, so that partition's
        merge cannot concatenate its inputs while the other four
        succeed.  With the fault repaired, a rerun equals a one-shot
        run."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from mysql_binlog_ray.stages.merge import partition_codes
        from mysql_binlog_ray.state.checkpoint import manifest_path

        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake")
        run_to_lake(_prefix(manifest, 1), lake, CdcConfig(num_partitions=16))
        victim = f"{lake}/part=00003/data.parquet"
        good = open(victim, "rb").read()
        tab = pq.read_table(victim)
        tab = tab.filter(pa.array(partition_codes(tab, ("repo", "path"), 5) == 0))
        assert tab.num_rows > 0
        i = tab.schema.get_field_index("lang")
        pq.write_table(tab.set_column(i, "lang", tab.column(i).cast(pa.large_string())), victim)
        committed = _part_files(lake)
        with open(manifest_path(lake), "rb") as f:
            committed_manifest = f.read()

        with pytest.raises(Exception):
            run_to_lake(manifest, lake, CdcConfig(num_partitions=5))
        with open(manifest_path(lake), "rb") as f:
            assert f.read() == committed_manifest
        assert _part_files(lake) == committed
        assert not os.path.exists(f"{lake}/_compact")
        assert not os.path.exists(f"{lake}/_shuffle")
        got = read_lake(lake).to_pandas()
        assert len(got) and not got.duplicated(["repo", "path"]).any()

        with open(victim, "wb") as f:
            f.write(good)
        run_to_lake(manifest, lake, CdcConfig(num_partitions=5))
        clean = str(tmp_path / "clean")
        run_to_lake(manifest, clean, CdcConfig(num_partitions=5))
        assert _part_files(lake) == _part_files(clean)

    def test_resume_with_legacy_hash_algo_falls_back(self, small_stream, tmp_path, monkeypatch):
        """A lake written under a different partition-hash algorithm must
        not be selectively resumed (keys would be looked up in the wrong
        partitions); the fallback full re-merge still converges, runs no
        Ray Data execution and counts the increment's row images only."""
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

        runs = _guard_ray_data(monkeypatch, lambda p: True)
        step = run_to_lake(manifest, lake, CdcConfig(num_partitions=8), resume=True)
        monkeypatch.undo()
        assert runs == []
        assert step["row_images"] == sum(s["num_ops"] for s in manifest["shards"][2:])
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

    def test_concurrent_tables_equal_sequential(self, tmp_path, monkeypatch):
        """concurrency=2 runs both tables' pipelines from driver threads;
        lakes are identical to the sequential run (disjoint lake/spill
        state; only the immutable input shards are shared).  The threads
        drive plain Ray tasks only, no Ray Data executor, so nothing needs
        to guard Ray Data's lazy imports against thread races."""
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
        runs = _guard_ray_data(monkeypatch, lambda p: True)
        res = run_tables_to_lakes(manifest, conc, cfgs, concurrency=2)
        assert runs == []
        monkeypatch.undo()
        assert set(res) == {"code.repos", "code.issues"}
        for name, keys in [("code.repos", ["repo", "path"]), ("code.issues", ["issue_id"])]:
            a = read_lake(f"{seq}/{name}").to_pandas().sort_values(keys).reset_index(drop=True)
            b = read_lake(f"{conc}/{name}").to_pandas().sort_values(keys).reset_index(drop=True)
            assert a.equals(b), name


@pytest.mark.usefixtures("ray_session")
class TestCompactionOneWriter:
    """``compact_lake`` re-layouts through the keyed exchange and the
    lake's one writer, ``_merge_write_partition``."""

    @pytest.mark.parametrize("new_parts", [4, 5])
    def test_compact_equals_one_shot_without_ray_data(
        self, small_stream, tmp_path, monkeypatch, new_parts
    ):
        """16 -> ``new_parts`` runs no Ray Data execution and leaves every
        partition file and manifest entry equal to a one-shot run at the
        new count."""
        from mysql_binlog_ray.pipelines.cdc import compact_lake

        spec, out, manifest = small_stream
        lake = str(tmp_path / "lake")
        run_to_lake(manifest, lake, CdcConfig(num_partitions=16))
        runs = _guard_ray_data(monkeypatch, lambda p: True)
        m = compact_lake(lake, new_parts)
        assert runs == []
        monkeypatch.undo()
        lake_full = str(tmp_path / "full")
        full = run_to_lake(manifest, lake_full, CdcConfig(num_partitions=new_parts))
        files = _part_files(lake)
        assert len(files) == new_parts and files == _part_files(lake_full)
        assert m["num_partitions"] == new_parts
        assert m["partitions"] == full["partitions"]
        assert not os.path.exists(os.path.join(lake, "_compact"))

    def test_zorder_compact_is_deterministic_with_key_ties(self, small_stream, tmp_path):
        """Two z-order compactions of copies of one lake write identical
        bytes, and each file's rows ascend by (Morton value, key).  Two
        bits per column make equal Morton values common, so the key must
        break the ties (spill chunks reach a merge task in the order of
        their random names)."""
        import numpy as np
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines.cdc import compact_lake
        from mysql_binlog_ray.stages.layout import zorder_values

        spec, out, manifest = small_stream
        src = str(tmp_path / "src")
        run_to_lake(manifest, src, CdcConfig(num_partitions=8))
        written = []
        for i in range(2):
            lake = str(tmp_path / f"z{i}")
            shutil.copytree(src, lake)
            compact_lake(lake, 4, zorder_cols=["stars", "event_seq"], zorder_bits=2)
            written.append(_part_files(lake))
        assert len(written[0]) == 4 and written[0] == written[1]

        def quantize(col):
            x = col.to_numpy(zero_copy_only=False).astype(np.float64)
            finite = np.isfinite(x)
            lo = x[finite].min() if finite.any() else 0.0
            hi = x[finite].max() if finite.any() else 0.0
            x = np.where(finite, x, lo)
            span = hi - lo
            if span <= 0:
                return np.zeros(len(x), np.int64)
            return ((x - lo) * (3.0 / span)).astype(np.int64)

        ties = 0
        for f in glob.glob(f"{tmp_path}/z0/part=*/data.parquet"):
            t = pq.ParquetFile(f).read()
            z = zorder_values([quantize(t["stars"]), quantize(t["event_seq"])], 2)
            rows = list(zip(z.tolist(), t["repo"].to_pylist(), t["path"].to_pylist()))
            assert rows == sorted(rows), f
            ties += int((np.diff(z) == 0).sum())
        assert ties > 0


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

    def test_bootstrap_equals_full_replay(self, small_stream, tmp_path):
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
            lake_boot = str(tmp_path / f"boot_{name}")
            cfg = CdcConfig(num_partitions=8)
            m = bootstrap_lake(snapshot, snapshot_seq, manifest, lake_boot, cfg)
            assert m["watermark"] == max(s["last_event_seq"] for s in manifest["shards"])

            got = _normalize(read_lake(lake_boot).to_pandas())
            assert got.equals(exp), f"{name} snapshot: bootstrapped lake differs from oracle"

    def test_empty_snapshot_lake_reads_compacts_follows(self, small_stream, tmp_path):
        """A lake with zero live rows is a valid lake: read_lake returns
        an empty Dataset, compact_lake commits, and follow (under a
        partition count that differs from the compacted one, so the full
        re-merge path unions the empty prior state) catches up to the
        replay oracle."""
        import ray.data as rd

        from mysql_binlog_ray.pipelines.cdc import compact_lake, follow, seed_lake_from_snapshot
        from mysql_binlog_ray.state.checkpoint import read_manifest

        spec, out, manifest = small_stream
        lake = str(tmp_path / "empty")
        # an empty table snapshotted before the stream's first event
        snapshot_seq = manifest["shards"][0]["first_event_seq"] - 1
        m = seed_lake_from_snapshot(rd.from_items([]), snapshot_seq, lake, CdcConfig())
        assert m["partitions"] == [] and m["watermark"] == snapshot_seq

        assert read_lake(lake).count() == 0
        m = compact_lake(lake, 4)
        assert m["num_partitions"] == 4 and m["partitions"] == []
        assert read_manifest(lake)["watermark"] == snapshot_seq

        follow(manifest, lake, CdcConfig(num_partitions=8))
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
    """Structural guard: the lake has one commit path and one final LWW,
    the per-partition lake writer, which the Dataset-returning paths
    reach through the same keyed exchange.  A second writer would have
    to re-derive the layout record that selective resume and point
    lookups depend on."""

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

    def test_lww_final_called_from_lake_writer_only(self):
        callers = {}
        for path in self._modules():
            for fn in self._calls(path, "lww_final"):
                callers.setdefault(os.path.basename(path), []).append(fn)
        assert callers == {"cdc.py": ["_merge_write_partition"]}

    def test_cdc_runs_no_groupby(self):
        """``merge_lww`` and every Dataset path merge through the keyed
        exchange: no ``groupby`` or ``map_groups`` call is left."""
        path = os.path.join(self.PIPELINES, "cdc.py")
        assert self._calls(path, "groupby") == {} and self._calls(path, "map_groups") == {}

    def test_one_write_path(self):
        """Every commit stages its partition files and ``_exchange``
        alone moves them into place: no second exchange wrapper, no
        other function of ``cdc.py`` renames a file or fsyncs a dir, and
        every lake commit (and ``merge_lww``) calls ``_exchange`` once."""
        import ast

        from mysql_binlog_ray.pipelines import cdc

        path = os.path.join(self.PIPELINES, "cdc.py")
        assert not hasattr(cdc, "_staged_exchange")
        movers = {}
        for top in ast.parse(open(path).read()).body:
            if not isinstance(top, ast.FunctionDef):
                continue
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if (
                    isinstance(node, ast.Call)
                    and isinstance(func, ast.Attribute)
                    and getattr(func.value, "id", None) == "os"
                    and func.attr in ("replace", "rename")
                ):
                    movers[top.name] = movers.get(top.name, 0) + 1
        assert movers == {"_exchange": 1}
        assert self._calls(path, "_fsync_dir") == {"_exchange": 1}
        assert self._calls(path, "_exchange") == {
            "_exchange_to_dataset": 1,
            "run_to_lake": 1,
            "seed_lake_from_snapshot": 1,
            "compact_lake": 1,
        }

    def test_shard_replays_share_one_source_plan(self):
        """``run_to_dataset`` and ``state_as_of`` plan their sources as
        ``run_to_lake`` does and share ``merge_lww``'s scratch-dir tail;
        none of them decodes through Ray Data."""
        import ast

        path = os.path.join(self.PIPELINES, "cdc.py")
        replays = {"run_to_lake": 1, "run_to_dataset": 1, "state_as_of": 1}
        assert self._calls(path, "_event_sources") == replays
        assert self._calls(path, "_exchange_to_dataset") == {
            "merge_lww": 1,
            "run_to_dataset": 1,
            "state_as_of": 1,
        }
        for name in ("decode_changefeed", "read_event_stream", "map_batches"):
            calls = self._calls(path, name)
            assert not set(calls) & set(replays), (name, calls)
        # the per-block combine runs only for flat Datasets (merge_lww)
        users = set()
        for top in ast.parse(open(path).read()).body:
            if isinstance(top, ast.FunctionDef) and any(
                isinstance(n, ast.Name) and n.id == "lww_partial" for n in ast.walk(top)
            ):
                users.add(top.name)
        assert users == {"merge_lww"}

    def test_atomic_write_parquet_called_from_lake_writer_only(self):
        """Every lake file write (run_to_lake, snapshot seed, compaction)
        goes through the per-partition merge of the keyed exchange."""
        calls = self._calls(os.path.join(self.PIPELINES, "cdc.py"), "atomic_write_parquet")
        assert calls == {"_merge_write_partition": 1}


# The two shard writers' options before they shared ``write_event_shard``:
# streams and spools already on disk are written so.
_PRIOR_SHARD_OPTIONS = {
    "generator": {"compression": "zstd"},
    "wire": {"compression": "zstd", "use_dictionary": ["shard_id", "event_seq"]},
}


def _rewrite_shards(manifest, out, **options):
    """The stream's event shards rewritten under ``out`` with the Parquet
    writer ``options``; returns the manifest that points at them."""
    import pyarrow.parquet as pq

    m = json.loads(json.dumps(manifest))
    os.makedirs(out)
    for s in m["shards"]:
        path = os.path.join(out, os.path.basename(s["path"]))
        pq.write_table(pq.read_table(s["path"]), path, **options)
        s["path"] = path
    return m


class TestOneShardWriter:
    """The fixture generator and the wire spool write their event shards
    through one function, ``sources.wire.write_event_shard``, and a
    reader does not depend on the shard codec: shards written with the
    writers' prior options replay to the same lake bytes."""

    PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "mysql_binlog_ray")
    PARQUET_WRITERS = {"write_table", "atomic_write_parquet", "ParquetWriter", "write_dataset"}

    def _functions(self):
        """(module path relative to the package, function node) for
        every top-level function and method of the package."""
        import ast

        for path in sorted(glob.glob(os.path.join(self.PACKAGE, "**", "*.py"), recursive=True)):
            rel = os.path.relpath(path, self.PACKAGE)
            for top in ast.parse(open(path).read()).body:
                body = top.body if isinstance(top, ast.ClassDef) else [top]
                for fn in body:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield rel, fn

    def test_write_event_shard_is_the_one_shard_writer(self):
        """The functions that name ``events-`` files write them only
        through ``write_event_shard``: none calls a Parquet writer
        itself, and the generator's and the spool's shard writers call
        it."""
        import ast

        raw_writers, callers = [], {}
        for rel, fn in self._functions():
            doc = fn.body[0].value if ast.get_docstring(fn) is not None else None
            names_shards = any(
                isinstance(n, ast.Constant) and isinstance(n.value, str) and "events-" in n.value
                for n in ast.walk(fn)
                if n is not doc
            )
            called = {
                getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                for n in ast.walk(fn)
                if isinstance(n, ast.Call)
            }
            if names_shards and called & self.PARQUET_WRITERS:
                raw_writers.append(f"{rel}:{fn.name}")
            if "write_event_shard" in called:
                callers.setdefault(rel, []).append(fn.name)
        assert raw_writers == []
        assert callers == {
            os.path.join("fixtures", "generator.py"): ["encode_shard"],
            os.path.join("sources", "wire.py"): ["tail_to_shards"],
        }

    def test_generated_shards_are_lz4_without_payload_dictionary(self, small_stream):
        import pyarrow.parquet as pq

        _spec, _out, manifest = small_stream
        for s in manifest["shards"]:
            md = pq.ParquetFile(s["path"]).metadata
            cols = {md.row_group(0).column(i).path_in_schema: md.row_group(0).column(i) for i in range(3)}
            assert {c.compression for c in cols.values()} == {"LZ4"}
            assert not cols["payload"].has_dictionary_page
            assert cols["event_seq"].statistics.has_min_max

    def test_prior_shard_formats_replay_to_identical_lakes(self, small_stream, tmp_path, ray_session):
        """Shards written as the generator (zstd, default dictionaries)
        and the wire spool (zstd, dictionaries on ``shard_id`` /
        ``event_seq``) wrote them before: a fresh ``run_to_lake``, a
        3-step ``follow`` and ``state_as_of`` give the LZ4 stream's lake
        bytes and rows, and the spool listing reads equal entries."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray

        from mysql_binlog_ray.pipelines.cdc import follow, state_as_of
        from mysql_binlog_ray.sources.wire import spool_shards, spool_state

        _spec, out, manifest = small_stream
        streams = {"lz4": manifest}
        for writer, options in _PRIOR_SHARD_OPTIONS.items():
            streams[writer] = _rewrite_shards(manifest, str(tmp_path / writer / "stream"), **options)
            md = pq.ParquetFile(streams[writer]["shards"][0]["path"]).metadata
            assert md.row_group(0).column(2).compression == "ZSTD"
        cut = manifest["shards"][1]["first_event_seq"] + 7  # inside shard 1
        got = {}
        for name, m in streams.items():
            fresh, steps = str(tmp_path / name / "fresh"), str(tmp_path / name / "follow")
            run_to_lake(m, fresh, CdcConfig(num_partitions=8))
            for upto in (1, 2, 3):
                follow(_prefix(m, upto), steps, CdcConfig(num_partitions=8))
            ds = state_as_of(m, cut, CdcConfig(num_partitions=4))
            rows = pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by([("repo", "ascending"), ("path", "ascending")])
            got[name] = (_part_files(fresh), _part_files(steps), rows)
        def entries(spool):
            return [{k: v for k, v in e.items() if k != "path"} for e in spool_shards(spool)]

        for writer in _PRIOR_SHARD_OPTIONS:
            assert got[writer][0] == got["lz4"][0] and len(got["lz4"][0]) == 8
            assert got[writer][1] == got["lz4"][1]
            assert got[writer][2].equals(got["lz4"][2]) and got["lz4"][2].num_rows > 0
            spool = os.path.dirname(streams[writer]["shards"][0]["path"])
            assert entries(spool) == entries(out) != []
            assert spool_state(spool) == spool_state(out)


class TestStreamCacheFormat:
    """``generate_stream`` reuses a stream only when its manifest records
    both the spec and this version's ``SHARD_FORMAT``: a stream another
    shard writer wrote is regenerated, never measured as this one."""

    SPEC = StreamSpec(n_keys=40, n_ops=160, n_shards=2)

    def _spy(self, monkeypatch):
        from mysql_binlog_ray.fixtures import generator

        calls = []
        real = generator.encode_shard

        def spy(*a, **kw):
            calls.append(a[2])
            return real(*a, **kw)

        monkeypatch.setattr(generator, "encode_shard", spy)
        return calls

    def test_same_spec_and_format_is_reused(self, tmp_path, monkeypatch):
        from mysql_binlog_ray.sources.wire import SHARD_FORMAT

        out = str(tmp_path / "s")
        m = generate_stream(self.SPEC, out)
        assert m["shard_format"] == SHARD_FORMAT
        calls = self._spy(monkeypatch)
        assert generate_stream(self.SPEC, out) == m and calls == []

    @pytest.mark.parametrize("recorded", ["missing", "zstd"])
    def test_other_shard_format_is_regenerated(self, tmp_path, monkeypatch, recorded):
        """A manifest without ``shard_format`` (written before it was
        recorded) or with another one: the stream is generated again,
        in ``SHARD_FORMAT``."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.sources.wire import SHARD_FORMAT

        out = str(tmp_path / "s")
        generate_stream(self.SPEC, out)
        mpath = os.path.join(out, "manifest.json")
        with open(mpath) as f:
            m = json.load(f)
        for s in m["shards"]:
            pq.write_table(pq.read_table(s["path"]), s["path"], compression="zstd")
        if recorded == "missing":
            del m["shard_format"]
        else:
            m["shard_format"] = _PRIOR_SHARD_OPTIONS["generator"]
        with open(mpath, "w") as f:
            json.dump(m, f)
        calls = self._spy(monkeypatch)
        again = generate_stream(self.SPEC, out)
        assert calls == [0, 1] and again["shard_format"] == SHARD_FORMAT
        with open(mpath) as f:
            assert json.load(f) == again
        for s in again["shards"]:
            assert pq.ParquetFile(s["path"]).metadata.row_group(0).column(2).compression == "LZ4"


class TestSpillFormat:
    """The keyed exchange spills each block as one uncompressed Arrow IPC
    file with one record batch per touched partition (Ray-free: the
    spill and merge functions are called directly)."""

    def _block(self, manifest, shard, table_maps):
        """A decoded, partially combined, partitioned block of ``shard``,
        decoded against ``table_maps`` as a spill task would."""
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines import cdc
        from mysql_binlog_ray.stages.decode_stage import BinlogDecoder
        from mysql_binlog_ray.stages.merge import add_partition_column, lww_partial

        cfg = CdcConfig(num_partitions=8)
        dec = BinlogDecoder(**cdc._decoder_kwargs(table_maps, cdc._with_flat_decode(cfg), None))
        flat = lww_partial(dec(pq.read_table(manifest["shards"][shard]["path"])), cfg.key_cols)
        return add_partition_column(flat, cfg.key_cols, cfg.num_partitions), dec.out_schema

    def test_spill_round_trip_across_alter(self, small_stream, tmp_path):
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from mysql_binlog_ray.pipelines import cdc

        spec, out, manifest = small_stream
        pre, _ = self._block(manifest, 0, manifest["table_maps"][:1])
        post, dec_schema = self._block(manifest, 2, manifest["table_maps"])
        assert "stars" not in pre.column_names and "stars" in post.column_names
        spill = str(tmp_path / "spill")
        index = {}
        for name, parted in (("post", post), ("pre", pre)):
            entries, size = cdc._spill(parted, spill)
            (path,) = {p for _part, p, _i in entries}
            assert path.endswith(".arrow") and size == os.path.getsize(path)
            with pa.OSFile(path) as f:
                assert f.read(6) == b"ARROW1"  # the IPC file magic, not Parquet's PAR1
            r = pa.ipc.open_file(path)
            parts = [part for part, _p, _i in entries]
            assert parts == sorted(set(parts)) == sorted(set(parted.column("_part").to_pylist()))
            assert [i for _part, _p, i in entries] == list(range(r.num_record_batches))
            batches = [r.get_batch(i) for i in range(r.num_record_batches)]
            assert all(b.num_rows for b in batches)
            pn = parted.column("_part").to_numpy()
            want = parted.take(pa.array(np.argsort(pn, kind="stable"))).drop_columns(["_part"])
            assert r.schema.equals(want.schema, check_metadata=True)
            assert r.schema.field("row_seq").type == pa.int32()
            assert r.schema.field("commit_seq").type == pa.int64()
            got = pa.Table.from_batches(batches)
            assert got.equals(want)
            for part, b in zip(parts, batches):
                assert b.num_rows == int((pn == part).sum())
            index[name] = {part: (path, i) for part, path, i in entries}

        # one partition both blocks touch, merged in spill order: the
        # decoder's columns, `op` and `commit_seq` dropped
        part = min(set(index["post"]) & set(index["pre"]))
        lake = str(tmp_path / "lake")
        (stats,) = cdc._merge_spilled_partition._function(
            [part],
            lake,
            ("repo", "path"),
            {},
            None,
            *(([(part, *index[name][part])], {}) for name in ("post", "pre")),
        )
        # merge tasks write into the staging dir; _exchange moves the file
        staged = os.path.join(lake, cdc._STAGING_DIR)
        written = pq.read_schema(cdc._lake_partition_path(staged, part))
        assert written.names == [n for n in dec_schema.names if n not in ("op", "commit_seq")]
        assert stats["rows"] > 0


class _Submits:
    """Stands in for a Ray remote function: counts ``.remote`` calls."""

    def __init__(self, task, counts, name):
        self.task, self.counts, self.name = task, counts, name

    def remote(self, *a, **kw):
        self.counts[self.name] += 1
        return self.task.remote(*a, **kw)


@pytest.mark.usefixtures("ray_session")
class TestCpuSizedExchange:
    """The keyed exchange sizes its task counts by the cluster's CPUs
    (``cdc._cluster_cpus``, patched here to emulate 1, 3 and 8 CPUs in
    the test session), not by shard files or partitions, and the lake
    bytes do not depend on it."""

    def _commits(self, manifest, root, monkeypatch, cpus):
        """Every commit kind on an 8-shard stream at ``cpus`` CPUs:
        ``({name: part files}, {commit: (spill tasks, merge tasks)})``."""
        from mysql_binlog_ray.pipelines import cdc

        counts = {"spill": 0, "merge": 0}
        monkeypatch.setattr(cdc, "_cluster_cpus", lambda: cpus)
        monkeypatch.setattr(cdc, "_spill_task", _Submits(cdc._spill_task, counts, "spill"))
        monkeypatch.setattr(
            cdc, "_merge_spilled_partition", _Submits(cdc._merge_spilled_partition, counts, "merge")
        )
        files, tasks = {}, {}

        def commit(name, lake, fn, *a, **kw):
            counts.update(spill=0, merge=0)
            fn(*a, **kw)
            files[name], tasks[name] = _part_files(lake), (counts["spill"], counts["merge"])

        fresh = f"{root}/fresh"
        commit("fresh", fresh, run_to_lake, manifest, fresh, CdcConfig(num_partitions=8))
        inc = f"{root}/inc"
        # the ALTER lands inside the second increment
        for upto in (3, 6, 8):
            step = _prefix(manifest, upto)
            commit(f"follow{upto}", inc, cdc.follow, step, inc, CdcConfig(num_partitions=8))
        relayout = f"{root}/relayout"
        run_to_lake(_prefix(manifest, 4), relayout, CdcConfig(num_partitions=16))
        commit("relayout", relayout, run_to_lake, manifest, relayout, CdcConfig(num_partitions=5))
        for z in (None, ["stars", "event_seq"]):
            lake = f"{root}/compact{bool(z)}"
            run_to_lake(manifest, lake, CdcConfig(num_partitions=16))
            commit(f"compact{bool(z)}", lake, cdc.compact_lake, lake, 4, zorder_cols=z)
        monkeypatch.undo()
        return files, tasks

    def test_tasks_follow_cpus_and_bytes_do_not(self, tmp_path, monkeypatch):
        import ray

        from mysql_binlog_ray.pipelines import cdc

        assert cdc._cluster_cpus() == int(ray.cluster_resources()["CPU"])
        spec = StreamSpec(n_keys=250, n_ops=1600, n_shards=8)
        manifest = generate_stream(spec, str(tmp_path / "stream"))
        assert len(manifest["shards"]) == 8
        runs = {c: self._commits(manifest, tmp_path / f"cpus{c}", monkeypatch, c) for c in (1, 3, 8)}
        assert runs[1][1]["fresh"] == (1, 1)
        assert runs[3][1]["fresh"] == (3, 3)
        assert runs[8][1]["fresh"] == (8, 8)
        assert all(n_merge == 1 for _s, n_merge in runs[1][1].values())
        assert all(files for files in runs[1][0].values())
        assert runs[1][0] == runs[3][0] == runs[8][0]
