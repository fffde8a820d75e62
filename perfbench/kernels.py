"""Traced pass one: a commit's input through each layer's public function,
in pipeline order, single-threaded in this process.

Kernels running inside Ray tasks cannot be timed from outside, so the
traced run replays the same input here first: one batch per block that
``read_event_stream`` would make, so the partial combine sees the same
batches as in the real run; then the keyed exchange, the selective-resume
read-back of the touched lake partitions, the final merge and the
partition writes.  Writes and the manifest commit go to a scratch
directory, so the real lake is left for the real ``run_to_lake`` /
``follow`` that follows.  Span names are the program's module names.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from mysql_binlog_ray.pipelines.cdc import CdcConfig
from mysql_binlog_ray.stages.decode_stage import BinlogDecoder
from mysql_binlog_ray.stages.merge import (
    PARTITION_HASH_ALGO,
    add_partition_column,
    lww_final,
    lww_partial,
)
from mysql_binlog_ray.state.checkpoint import atomic_write_parquet, commit_manifest, read_manifest

from oracle import lake_partition_file
from spans import Tracer


def block_plan(paths: list[str]) -> list[int]:
    """Blocks per shard file under ``read_event_stream``'s sizing rule
    (about 16 MiB of compressed payload per block, at least one block per
    file, at most 512), spread evenly over the files."""
    total = sum(os.path.getsize(p) for p in paths)
    nblocks = min(512, max(len(paths), total >> 24))
    base, extra = divmod(nblocks, len(paths))
    return [base + (i < extra) for i in range(len(paths))]


def _slices(tab: pa.Table, k: int) -> list[pa.Table]:
    bounds = np.linspace(0, tab.num_rows, k + 1).astype(int)
    return [tab.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _as_upserts(lake_tab: pa.Table, key_cols, num_partitions: int) -> pa.Table:
    """Prior lake rows as merge input: op='insert', lineage kept, commit
    unknown -- the shape the selective resume unions with the increment."""
    if "part" in lake_tab.column_names:
        lake_tab = lake_tab.drop_columns(["part"])
    n = lake_tab.num_rows
    cols = {c: lake_tab.column(c) for c in lake_tab.column_names if c not in ("event_seq", "row_seq")}
    cols["op"] = pa.array(["insert"] * n, pa.string())
    cols["event_seq"] = lake_tab.column("event_seq")
    cols["row_seq"] = lake_tab.column("row_seq")
    cols["commit_seq"] = pa.array([-1] * n, pa.int64())
    return add_partition_column(pa.table(cols), key_cols, num_partitions)


def replay_commit(
    tracer: Tracer, manifest: dict, lake_dir: str, scratch_dir: str, cfg: CdcConfig
) -> None:
    """One commit's kernels, spans and counters recorded on ``tracer``."""
    key_cols = tuple(cfg.key_cols)
    nparts = cfg.num_partitions
    with tracer.span("pipelines.cdc.commit"):
        prior = read_manifest(lake_dir)
        start_after = prior["watermark"] if prior else None
        shards = [
            s for s in manifest["shards"] if start_after is None or s["last_event_seq"] > start_after
        ]
        paths = [s["path"] for s in shards]
        dec = BinlogDecoder(
            registry_snapshot=manifest["table_maps"],
            target_table=cfg.target_table,
            verify_checksums=cfg.verify_checksums,
            start_after_seq=start_after,
            output="flat",
            key_cols=key_cols,
        )
        partials = []
        for path, k in zip(paths, block_plan(paths)):
            with tracer.span("pipelines.cdc.read"):
                tab = pq.read_table(path)
            tracer.count("pipelines.cdc.read.bytes", os.path.getsize(path))
            for block in _slices(tab, k):
                with tracer.span("stages.decode_stage"):
                    flat = dec(block)
                with tracer.span("stages.merge.combine"):
                    combined = lww_partial(flat, key_cols)
                with tracer.span("stages.merge.partition"):
                    partials.append(add_partition_column(combined, key_cols, nparts))
                tracer.count("stages.merge.combine.rows_in", flat.num_rows)
                tracer.count("stages.merge.combine.rows_out", combined.num_rows)
        tracer.count("stages.decode_stage.events", dec.n_events)
        tracer.count("stages.decode_stage.row_images", dec.n_rows)
        tracer.count("stages.decode_stage.checksum_failures", dec.n_checksum_failures)

        # the benchmark never changes the partition layout, so a prior lake
        # is always resumed selectively: only touched partitions are read back
        prior_parts = {p["part"]: p for p in prior["partitions"]} if prior else {}
        with tracer.span("pipelines.cdc.exchange"):
            new = pa.concat_tables(partials, promote_options="default")
            codes = new.column("_part").to_numpy()
            per_part = np.bincount(codes, minlength=nparts)
            touched = np.flatnonzero(per_part).tolist()
            out_parts = [p for part, p in prior_parts.items() if part not in touched]
            for part in touched:
                group = new.filter(pa.array(codes == part))
                entry = prior_parts.get(part)
                if entry is not None and entry["rows"] > 0:
                    with tracer.span("pipelines.cdc.resume"):
                        path = lake_partition_file(lake_dir, entry)
                        back = _as_upserts(pq.read_table(path), key_cols, nparts)
                    tracer.count("pipelines.cdc.resume.readback_rows", back.num_rows)
                    tracer.count("pipelines.cdc.resume.readback_bytes", os.path.getsize(path))
                    group = pa.concat_tables([group, back], promote_options="default")
                tracer.count("pipelines.cdc.exchange.rows", group.num_rows)
                with tracer.span("stages.merge.final"):
                    final = lww_final(group, key_cols)
                    final = final.take(
                        pc.sort_indices(final, sort_keys=[(c, "ascending") for c in key_cols])
                    )
                with tracer.span("state.checkpoint.write"):
                    size = atomic_write_parquet(
                        final,
                        os.path.join(scratch_dir, f"part={part:05d}", "data.parquet"),
                        compression="zstd",
                    )
                tracer.count("state.checkpoint.write.bytes", size)
                tracer.count("state.checkpoint.write.files", 1)
                tracer.count("state.checkpoint.write.rows", final.num_rows)
                mx = int(pc.max(final.column("event_seq")).as_py()) if final.num_rows else -1
                out_parts.append(
                    {"part": part, "rows": final.num_rows, "bytes": size, "max_event_seq": mx}
                )
        tracer.count("pipelines.cdc.exchange.partitions_touched", len(touched))
        tracer.count("stages.merge.partition.skew", float(per_part.max() / per_part.mean()))
        with tracer.span("state.checkpoint.commit"):
            commit_manifest(
                scratch_dir,
                max(s["last_event_seq"] for s in shards),
                out_parts,
                extra={
                    "key_cols": list(key_cols),
                    "num_partitions": nparts,
                    "hash_algo": PARTITION_HASH_ALGO,
                },
            )
