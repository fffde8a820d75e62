"""Bucketed (hash-clustered) parquet storage and shuffle-free joins.

The single biggest all-to-all cost in a repeated pipeline is re-shuffling
the same fact tables on the same key every run.  Bucketed storage pays
the partitioning ONCE at write time — and the write itself is MAP-ONLY:
each task sorts its block by ``hash(key) % num_buckets`` (the same
``poly64v2`` Arrow-buffer hash the CDC merge uses, recorded in the
manifest) and writes ONE segment file with one row group per touched
bucket, returning a ``(bucket, path, row_group)`` index as its task
output.  The manifest stores that index; readers fetch ONLY indexed row
groups.  The CDC keyed exchange spills with the same one-file-per-block
index, but as Arrow IPC record batches read back once (`pipelines/cdc.py`);
buckets are durable, so they stay Parquet.  O(tasks) filesystem objects
instead of O(tasks x buckets), and a RETRIED task can never duplicate rows —
its dead attempt's segment is simply absent from the consumed index
(and swept as an orphan at commit).

``join_bucketed`` joins two lakes bucketed with the SAME
(num_buckets, hash_algo, key-type family) without any runtime shuffle:
one task per bucket reads both sides' indexed row groups and joins
locally.  Because every row of a key lives in exactly one bucket on
each side, per-key aggregates can run inside the same task
(``finish=``), turning join+groupby into a single map-only stage.

Scale sizing: a join task materializes one bucket of BOTH sides —
choose ``num_buckets >= total_bytes / 256MB`` at write time (same rule
as ``relational.adaptive_num_parts``).  The manifest index is one entry
per (task, touched bucket); at extreme scale ship it to workers via
``ray.put`` rather than the task closure.
"""

from __future__ import annotations

import os
import shutil
import uuid
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..state.checkpoint import atomic_write_json, read_manifest
from .merge import partition_codes

HASH_ALGO = "poly64v2"

_INDEX_COLS = ["bucket", "path", "row_group", "rows"]


def _type_family(t: pa.DataType) -> str:
    """The hash-equivalence class of a key type under merge._hash_column:
    every fixed-width integer/temporal widens to int64 before hashing,
    floats hash their float64 bits, var-size types hash bytes."""
    if (
        pa.types.is_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_string(t)
        or pa.types.is_large_binary(t)
        or pa.types.is_dictionary(t)
    ):
        return "varbin"
    if pa.types.is_floating(t):
        return "floating"
    return "integer"


def write_bucketed(
    ds: rd.Dataset,
    out_dir: str,
    key_cols: tuple[str, ...] | str,
    num_buckets: int = 64,
) -> dict:
    """Map-only bucketed write (no shuffle): one fsync'd segment file per
    task, one row group per touched bucket, membership via the manifest
    index.  Overwrites ``out_dir`` (bucketed lakes are derived data; no
    manifest => not readable, so a dead run can never be mistaken for a
    lake)."""
    if isinstance(key_cols, str):
        key_cols = (key_cols,)
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    def spill(batch: pa.Table) -> pd.DataFrame:
        if batch.num_rows == 0:
            return pd.DataFrame(columns=_INDEX_COLS)
        codes = partition_codes(batch, key_cols, num_buckets)
        order = np.argsort(codes, kind="stable")
        t = batch.take(pa.array(order))
        sorted_codes = codes[order]
        bounds = np.flatnonzero(np.diff(sorted_codes)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(sorted_codes)]))
        rel = f"seg-{uuid.uuid4().hex}.parquet"
        tmp = os.path.join(out_dir, "." + rel)
        with pq.ParquetWriter(tmp, t.schema) as w:
            for s, e in zip(starts, ends):
                w.write_table(t.slice(s, e - s))  # one row group per bucket run
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, os.path.join(out_dir, rel))
        return pd.DataFrame(
            {
                "bucket": sorted_codes[starts].astype(np.int64),
                "path": rel,
                "row_group": np.arange(len(starts), dtype=np.int64),
                "rows": (ends - starts).astype(np.int64),
            }
        )

    index = ds.map_batches(spill, batch_format="pyarrow").to_pandas()
    if len(index) == 0:
        index = pd.DataFrame(columns=_INDEX_COLS)
    sch = ds.schema()
    # a repartitioned-empty dataset can lose its schema; an empty lake's
    # families are never consulted (no rows -> inner joins short-circuit,
    # non-inner joins refuse on the empty side before the family check)
    families = {
        k: (_type_family(sch.types[sch.names.index(k)]) if sch is not None else None)
        for k in key_cols
    }
    # sweep orphans from dead task attempts: on disk but not in the
    # consumed index (only indexed row groups are ever read, so this is
    # hygiene, not correctness)
    live = set(index["path"]) if len(index) else set()
    for f in os.listdir(out_dir):
        if f.endswith(".parquet") and f not in live:
            os.unlink(os.path.join(out_dir, f))
    manifest = {
        "kind": "bucketed",
        "key_cols": list(key_cols),
        "key_families": families,
        "num_buckets": num_buckets,
        "hash_algo": HASH_ALGO,
        "total_rows": int(index["rows"].sum()) if len(index) else 0,
        "files": index.to_dict("records"),
    }
    atomic_write_json(out_dir, manifest)
    return manifest


def _bucket_index(manifest: dict) -> dict[int, list[tuple[str, int]]]:
    idx: dict[int, list[tuple[str, int]]] = {}
    for e in manifest["files"]:
        idx.setdefault(int(e["bucket"]), []).append((e["path"], int(e["row_group"])))
    return idx


def _read_bucket(
    out_dir: str,
    entries: list[tuple[str, int]],
    columns: list[str] | None = None,
) -> pa.Table:
    parts = []
    by_path: dict[str, list[int]] = {}
    for path, rg in entries:
        by_path.setdefault(path, []).append(rg)
    for path, rgs in by_path.items():
        pf = pq.ParquetFile(os.path.join(out_dir, path))
        parts.append(pf.read_row_groups(sorted(rgs), columns=columns))
    return pa.concat_tables(parts)


def normalize_probe(
    keys, key_cols: tuple[str, ...], families: dict[str, str | None]
) -> pa.Table:
    """Shared point-lookup probe prep (bucketed lakes AND the CDC lake):
    promote a scalar list to a one-column table, select the key columns,
    and REFUSE a probe whose hash family differs from the stored one —
    e.g. a float probe against an int-keyed lake hashes to a different
    bucket under poly64v2 (int64 widening vs float64 bits), so it would
    silently miss instead of failing loudly."""
    if not isinstance(keys, pa.Table):
        if len(key_cols) != 1:
            raise ValueError(
                f"lake is keyed by {key_cols}; pass a pa.Table with those columns"
            )
        keys = pa.table({key_cols[0]: pa.array(keys)})
    for k in key_cols:
        if k not in keys.column_names:
            raise ValueError(f"keys table is missing key column {k!r}")
        t = keys.column(k).type
        if pa.types.is_null(t):
            # an empty probe (pa.array([]) infers null) legitimately
            # matches nothing — no family to check; a NON-empty all-NULL
            # probe is a caller bug worth naming
            if keys.num_rows == 0:
                continue
            raise ValueError(f"probe column {k!r} is untyped/all-NULL")
        fam_stored = families.get(k)
        fam_req = _type_family(t)
        if fam_stored is not None and fam_stored != fam_req:
            raise ValueError(
                f"key column {k!r} hashes as {fam_req}, lake stores {fam_stored} "
                f"— cast the probe values"
            )
    return keys.select(list(key_cols)).combine_chunks()


def probe_semi_join(
    t: pa.Table, probe: pa.Table, key_cols: tuple[str, ...]
) -> pa.Table:
    """Keep exactly the probed keys: cast the probe to the stored key
    types (safe within a hash family) and left-semi join — duplicate
    requests do not duplicate rows, absent keys return nothing."""
    for k in key_cols:
        probe = probe.set_column(
            probe.column_names.index(k), k, probe.column(k).cast(t.column(k).type)
        )
    return t.join(probe, keys=list(key_cols), join_type="left semi")


def wanted_buckets(manifest: dict, keys: pa.Table) -> set[int]:
    """Bucket ids the requested keys hash into under the manifest's
    recorded (hash_algo, num_buckets) — the pruning set a point lookup
    reads.  Exposed for tests/planning."""
    if manifest.get("hash_algo") != HASH_ALGO:
        raise ValueError(
            f"lake hashed with {manifest.get('hash_algo')!r}, this build "
            f"computes {HASH_ALGO!r} — rewrite the lake to look up by key"
        )
    key_cols = tuple(manifest["key_cols"])
    codes = partition_codes(keys, key_cols, int(manifest["num_buckets"]))
    return set(int(c) for c in np.unique(codes))


def point_lookup(
    out_dir: str,
    keys,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Bucket-pruned point lookup: hash the requested key values with the
    manifest's recorded algorithm and read ONLY the indexed row groups of
    the buckets they map to — O(distinct requested buckets) I/O, never a
    lake scan.  ``keys`` is a list of scalars (single-column key) or a
    ``pa.Table`` with the lake's key columns.  Returns the matching rows
    (semi-join semantics: duplicate requested keys do not duplicate rows;
    absent keys return nothing).

    The reference engine has no lake at all (it re-streams the binlog per
    consumer); this is the query-side payoff of hash-clustered storage —
    the same pruning a 256-node cluster needs so a single-key audit does
    not touch 100 TB.
    """
    m = read_manifest(out_dir)
    if m is None:
        raise ValueError(f"no manifest in {out_dir} — not a bucketed lake")
    key_cols = tuple(m["key_cols"])
    keys = normalize_probe(keys, key_cols, m.get("key_families") or {})
    idx = _bucket_index(m)
    wanted = sorted(wanted_buckets(m, keys) & set(idx))
    if not wanted:
        # zero rows WITH the lake's schema on Dataset.schema() (Ray
        # drops 0-row blocks in to_pandas(), but a schema-less
        # rd.from_items([]) would lose the column names entirely)
        if idx:
            first = next(iter(idx.values()))[0][0]
            t = pq.read_schema(os.path.join(out_dir, first)).empty_table()
            if columns is not None:
                t = t.select(list(columns))
            return rd.from_arrow(t)
        return rd.from_items([])

    # the semi-join needs the key columns even when the caller prunes
    # them out; read the union, trim after the join
    read_cols = (
        None if columns is None else list(dict.fromkeys(list(columns) + list(key_cols)))
    )

    def lookup_one(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for b in batch["bucket"]:
            t = _read_bucket(out_dir, idx[int(b)], read_cols)
            # exact-match filter: hash pruning over-selects (other keys
            # share the bucket)
            hit = probe_semi_join(t, keys, key_cols)
            if columns is not None:
                hit = hit.select(list(columns))
            outs.append(hit.to_pandas())
        return pd.concat(outs, ignore_index=True)

    buckets = rd.from_items([{"bucket": b} for b in wanted])
    return buckets.map_batches(lookup_one, batch_format="pandas", batch_size=1)


def join_bucketed(
    dir_left: str,
    dir_right: str,
    left_on: str,
    right_on: str,
    how: str = "inner",
    finish: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    left_columns: list[str] | None = None,
    right_columns: list[str] | None = None,
) -> rd.Dataset:
    """Shuffle-free equi-join of two compatibly-bucketed lakes: one task
    per bucket, local pandas merge, optional per-bucket ``finish`` (all
    rows of a key are in the task, so key-grouped aggregates are exact
    with no further exchange)."""
    ml, mr = read_manifest(dir_left), read_manifest(dir_right)
    for name, m, key in (("left", ml, left_on), ("right", mr, right_on)):
        if m is None:
            raise ValueError(
                f"{name} side has no manifest — not a bucketed lake (or a write died early)"
            )
        if m.get("key_cols") != [key]:
            raise ValueError(
                f"{name} side is bucketed by {m.get('key_cols')}, join key is {key}"
            )
    if (ml["num_buckets"], ml["hash_algo"]) != (mr["num_buckets"], mr["hash_algo"]):
        raise ValueError(
            f"incompatible bucketing: {ml['num_buckets']}/{ml['hash_algo']} vs "
            f"{mr['num_buckets']}/{mr['hash_algo']} — rewrite one side"
        )
    fl, fr = ml["key_families"][left_on], mr["key_families"][right_on]
    # None = schema-less empty lake: no rows exist to mis-bucket, and the
    # empty-side handling below gives the right answer or refuses
    if fl is not None and fr is not None and fl != fr:
        # e.g. int-keyed vs float-keyed: equal logical values hash to
        # DIFFERENT buckets (int64 widening vs float64 bits), so the join
        # would silently drop matches — refuse instead
        raise ValueError(
            f"incompatible key types: left {left_on} hashes as {fl}, "
            f"right {right_on} as {fr} — cast one side and rewrite"
        )
    idx_l, idx_r = _bucket_index(ml), _bucket_index(mr)

    def _template(d: str, idx: dict, columns: list[str] | None) -> pd.DataFrame | None:
        if not idx:
            return None
        first = next(iter(idx.values()))[0][0]
        t = pq.read_schema(os.path.join(d, first)).empty_table()
        if columns is not None:
            t = t.select(columns)
        return t.to_pandas()

    lt0 = _template(dir_left, idx_l, left_columns)
    rt0 = _template(dir_right, idx_r, right_columns)
    if lt0 is None or rt0 is None:
        if how == "inner":
            return rd.from_items([])  # an empty side inner-joins to nothing
        raise ValueError(
            f"{'left' if lt0 is None else 'right'} side has no rows — cannot "
            f"synthesize its null columns for how={how!r} (no schema in an empty lake)"
        )
    tmpl = lt0.merge(rt0, left_on=left_on, right_on=right_on, how=how)
    if finish is not None:
        tmpl = finish(tmpl)

    wanted = {
        "inner": set(idx_l) & set(idx_r),
        "left": set(idx_l),
        "right": set(idx_r),
        "outer": set(idx_l) | set(idx_r),
    }[how]

    def join_one(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for b in batch["bucket"]:
            b = int(b)
            # a missing side becomes its zero-row template, so pandas
            # merge produces the correct inner/left/outer semantics
            ldf = _read_bucket(dir_left, idx_l[b], left_columns).to_pandas() if b in idx_l else lt0
            rdf = _read_bucket(dir_right, idx_r[b], right_columns).to_pandas() if b in idx_r else rt0
            j = ldf.merge(rdf, left_on=left_on, right_on=right_on, how=how)
            if finish is not None:
                j = finish(j)
            outs.append(j)
        if not outs:
            return tmpl
        return pd.concat(outs, ignore_index=True)

    if not wanted:
        return rd.from_items([])
    buckets = rd.from_items([{"bucket": b} for b in sorted(wanted)])
    return buckets.map_batches(join_one, batch_format="pandas", batch_size=1)
