"""Training-shard writer: the final stage of an LM data pipeline.

Deterministic global shuffle (``splitmix64(id + seed)`` order) ->
distributed exclusive prefix sum of token counts -> fixed-token-budget
shard assignment -> one atomically-written parquet file per shard, plus
a manifest for resume.  The reference engine's exactly-once lake sink
(`pipelines/cdc.py`, `state/checkpoint.py`) provides the durability
pattern; this applies it to training-data export.

Scale shape: the only all-to-all exchanges are the prefix sum's bucket
exchange (`stages/ordered.py`) and the shard-key exchange
(`relational.keyed_reduce`, adaptive fanout); each shard's file is
written by the one reduce task that owns its rows (tmp + fsync +
rename, so a file's existence proves completeness) and the driver
handles only the per-shard summary rows — never document bodies.
Resume: a re-run skips every shard whose file already exists under the
same manifest params; changed params force a clean rewrite.

Shard semantics are standard concat-and-slice: a shard owns the
documents whose global token offset starts inside its token budget
(``seq_len * seqs_per_shard`` tokens); a document's tail may flow into
the next shard's first sequence, which training readers handle by
reading one ragged boundary — documents are never split across files.
"""

from __future__ import annotations

import os
import shutil
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..stages.ordered import SHUFFLE_SEED, bucketed_prefix_sum, tag_hash_order
from ..state.checkpoint import (
    atomic_write_json,
    atomic_write_parquet,
    read_manifest,
)

def write_training_shards(
    ds: rd.Dataset,
    out_dir: str,
    id_col: str = "doc_id",
    tokens_col: str = "n_tokens",
    seq_len: int = 1024,
    seqs_per_shard: int = 1024,
    seed: int = SHUFFLE_SEED,
    resume: bool = True,
) -> pa.Table:
    """Write ``ds`` (one row per document, ``tokens_col`` pre-counted)
    into deterministic-shuffle-ordered training shards under
    ``out_dir/shard=NNNNN/data.parquet``; returns the per-shard summary
    ``(shard_id, n_docs, n_tokens, skipped)`` as an Arrow table
    (``skipped`` = the file already existed and was left untouched)."""
    tokens_per_shard = seq_len * seqs_per_shard
    params = {
        "kind": "training_shards",
        "id_col": id_col,
        "tokens_col": tokens_col,
        "seq_len": seq_len,
        "seqs_per_shard": seqs_per_shard,
        "seed": seed,
        "shuffle": "splitmix64+seed",
    }
    prev = read_manifest(out_dir)
    if prev is not None and any(prev.get(k) != v for k, v in params.items()):
        # params changed: stale shard files would silently survive a
        # resume, so clear the lake and rewrite from scratch
        resume = False
    if prev is None and os.path.isdir(out_dir) and os.listdir(out_dir):
        # shard files but no manifest = a run died before its params
        # manifest committed; their params are unknowable, so file
        # existence must NOT be trusted as completeness — clean rewrite
        resume = False
    if not resume and os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    # commit the params BEFORE any shard writes: from here on, a shard
    # file's existence under a matching manifest proves completeness
    # (the final commit below only adds the run totals)
    atomic_write_json(out_dir, {**params, "complete": False})

    empty_summary = pa.table(
        {
            "shard_id": pa.array([], pa.int64()),
            "n_docs": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "skipped": pa.array([], pa.bool_()),
        }
    )

    tagged = tag_hash_order(ds, id_col, seed).materialize()
    if tagged.count() == 0:
        atomic_write_json(
            out_dir, {**params, "complete": True, "n_shards": 0, "total_tokens": 0}
        )
        return empty_summary

    offs = bucketed_prefix_sum(tagged, "_h", tokens_col, "tok_start")

    def assign(b: pa.Table) -> pa.Table:
        shard = b.column("tok_start").to_numpy() // tokens_per_shard
        return b.append_column("shard_id", pa.array(shard.astype(np.int64)))

    assigned = offs.map_batches(assign, batch_format="pyarrow")

    from ..stages.relational import keyed_reduce

    def write_part(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for shard, grp in g.groupby("shard_id", sort=False):
            grp = grp.sort_values("_h", kind="mergesort")
            d = os.path.join(out_dir, f"shard={int(shard):05d}")
            path = os.path.join(d, "data.parquet")
            skipped = os.path.exists(path)  # rename-commit => complete
            if not skipped:
                os.makedirs(d, exist_ok=True)
                t = pa.Table.from_pandas(
                    grp.drop(columns=["shard_id"]).rename(
                        columns={"_h": "shuffle_key"}
                    ),
                    preserve_index=False,
                )
                atomic_write_parquet(t, path)
            rows.append(
                {
                    "shard_id": int(shard),
                    "n_docs": int(len(grp)),
                    "n_tokens": int(grp[tokens_col].sum()),
                    "skipped": bool(skipped),
                }
            )
        return pd.DataFrame(rows, columns=["shard_id", "n_docs", "n_tokens", "skipped"])

    summary = (
        keyed_reduce(assigned, ["shard_id"], write_part)
        .to_pandas()  # one row per shard: tiny
        .sort_values("shard_id")
        .reset_index(drop=True)
    )
    atomic_write_json(
        out_dir,
        {
            **params,
            "complete": True,
            "n_shards": int(len(summary)),
            "total_tokens": int(summary["n_tokens"].sum()),
        },
    )
    if summary.empty:
        return empty_summary
    return pa.Table.from_pandas(summary, preserve_index=False)


def read_training_shards(out_dir: str) -> rd.Dataset:
    """Read a shard lake back in global shuffle order per shard (files
    carry ``shuffle_key``; hive partitioning adds ``shard``, which is
    stripped here; ``cdc.read_lake`` instead reads the files its
    manifest resolves with ``partitioning=None``)."""
    ds = rd.read_parquet(out_dir)

    def strip(b: pa.Table) -> pa.Table:
        drop = [c for c in ("shard",) if c in b.column_names]
        return b.drop_columns(drop) if drop else b

    return ds.map_batches(strip, batch_format="pyarrow")


def shard_manifest(out_dir: str) -> dict[str, Any] | None:
    return read_manifest(out_dir)
