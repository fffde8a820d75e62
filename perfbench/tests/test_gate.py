"""The oracle gate against real lakes, and pass one against the oracle."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mysql_binlog_ray.fixtures.generator import StreamSpec, final_state_oracle, generate_stream
from mysql_binlog_ray.pipelines.cdc import CdcConfig, run_to_lake
from mysql_binlog_ray.state.checkpoint import read_manifest

import oracle
import workloads
from kernels import replay_commit
from spans import Tracer

WORK = os.path.join(os.path.dirname(workloads.HERE), ".perfbench")
CFG = CdcConfig(num_partitions=8)


@pytest.fixture(scope="module")
def ray_session():
    import ray

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    workloads.start_ray(WORK)
    yield
    ray.shutdown()


def _flip_one_byte_of_first_write_rows(shard_path: str) -> None:
    t = pq.read_table(shard_path)
    payloads = t.column("payload").to_pylist()
    i = next(k for k, p in enumerate(payloads) if p[5] == 0x1E)  # WRITE_ROWS_V2
    p = bytearray(payloads[i])
    p[len(p) // 2] ^= 0xFF
    payloads[i] = bytes(p)
    col = t.schema.get_field_index("payload")
    pq.write_table(t.set_column(col, "payload", pa.array(payloads, pa.binary())), shard_path)


def test_gate_catches_a_one_byte_flip(ray_session, tmp_path):
    spec = StreamSpec(n_keys=200, n_ops=2000, n_shards=2)
    stream = str(tmp_path / "stream")
    manifest = generate_stream(spec, stream)
    want = final_state_oracle(spec, stream)
    watermark = max(s["last_event_seq"] for s in manifest["shards"])

    clean = str(tmp_path / "clean")
    run_to_lake(manifest, clean, CFG)
    assert oracle.gate(clean, want, watermark) == []

    # one corrupt event: today the commit goes through with 180 of the 188
    # rows and nothing reports it; the gate fails the op.  A pipeline that
    # refuses the commit instead fails it too.
    _flip_one_byte_of_first_write_rows(manifest["shards"][0]["path"])
    lake = str(tmp_path / "lake")
    run = workloads.Run(workloads.WORKLOADS["bulk_replay"], spec.seed, 1, False, WORK)
    run.spec, run.stream_dir = spec, stream
    if run.commit(lambda: run_to_lake(manifest, lake, CFG)):
        rows, _ = oracle.read_lake_rows(lake, read_manifest(lake))
        assert (len(rows), want.num_rows) == (180, 188)
        run.check(lake, None, watermark)
        assert "differ from the oracle" in run.problems[0]
    assert (run.attempted, run.failed) == (1, 1)


def test_pass_one_replays_the_pipeline(tmp_path):
    """Pass one, run as a pipeline of its own (a fresh commit, then a
    selective resume into the same directory), builds the oracle's lake."""
    spec = StreamSpec(n_keys=300, n_ops=3000, n_shards=6)
    stream = str(tmp_path / "stream")
    manifest = generate_stream(spec, stream)
    lake = str(tmp_path / "lake")
    tr = Tracer()
    replay_commit(tr, dict(manifest, shards=manifest["shards"][:4]), lake, lake, CFG)
    tr.commit = 1
    replay_commit(tr, manifest, lake, lake, CFG)

    m = read_manifest(lake)
    assert m["watermark"] == manifest["shards"][-1]["last_event_seq"]
    assert oracle.gate(lake, final_state_oracle(spec, stream), m["watermark"]) == []

    first, second = tr.counts[0], tr.counts[1]
    assert first["stages.decode_stage.row_images"] == sum(s["num_ops"] for s in manifest["shards"][:4])
    assert second["stages.decode_stage.row_images"] == sum(s["num_ops"] for s in manifest["shards"][4:])
    assert first["pipelines.cdc.resume.readback_rows"] == 0
    assert second["pipelines.cdc.resume.readback_rows"] > 0
    assert second["pipelines.cdc.exchange.rows"] == (
        second["stages.merge.combine.rows_out"] + second["pipelines.cdc.resume.readback_rows"]
    )
    assert {s.name for s in tr.spans} >= {"pipelines.cdc.commit", *workloads.KERNELS}
