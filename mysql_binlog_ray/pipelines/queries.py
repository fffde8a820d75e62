"""Driver-contract query catalog: every implemented operator exposed as a
callable over an sf_dir of parquet tables, each with (where expressible)
an exactly-matching DuckDB oracle in ``oracle_sql()``.

Column names here are chosen to match the oracle SQL *exactly* (the
driver hashes values under sorted column names).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..stages import relational as R
from ..stages.dedup import exact_dedup_stats, minhash_lsh_pairs, simhash_pairs
from ..stages.similarity import IvfIndex, brute_force_topk
from ..stages.text import Fingerprinter, LangId, QualityScorer, TokenCounter



def _parquet_files(path) -> list[str]:
    """``path`` (a file or directory, or a list of them) as the parquet
    files it names: a directory counts as the parquet files under it."""
    out: list[str] = []
    for p in [path] if isinstance(path, str) else path:
        if os.path.isdir(p):
            out.extend(
                sorted(
                    os.path.join(root, f)
                    for root, _dirs, files in os.walk(p)
                    for f in files
                    if f.endswith(".parquet")
                )
            )
        else:
            out.append(p)
    return out


def _rp(path, *, columns=None, **kw):
    """``read_parquet`` with a DATA-scaled block count for SMALL tables
    (~4 MiB of file per block, floor 8 for per-batch compute
    parallelism): Ray's default splitter targets CPU-proportional block
    counts, which turns a 160 KB table into 64 blocks at 32 CPUs —
    per-block overhead then dominates every downstream stage of a
    small-scale query (full sf0.01 contract at 32 CPUs: 163 s -> 55 s).
    The 4 MiB target keeps mid-size tables (100-500 MB) at 25-125
    blocks so compute-bound map stages without their own repartition
    still fan out.  Tables over 1 GiB keep Ray's default splitter
    untouched: there the default block count is already data-dominated,
    and a hard block-count cap would grow block SIZE past worker heaps
    at TB scale.  The arithmetic is `adaptive_num_parts`' (one copy of
    the size-partitions-to-data rule); only the 1 GiB passthrough is
    read-specific.  A directory counts as the parquet files under it.

    Why 4 MiB and not the 16 MiB of compressed payload per block of
    ``cdc.event_read_units``: no measurement says.  The record
    (BASELINE.md, "Round 5: data-scaled read blocks" and its correction
    paragraph) measures only the switch from Ray's CPU-proportional
    split to a data-scaled one (the 163 s -> 55 s above), and that run
    cannot tell the two targets apart: every sf0.01 table is under
    32 MiB, where both leave the floor of 8 blocks.  (The entry first
    named ~16 MiB; its correction records the shipped 4 MiB.)  The
    fan-out reason above is a design reason, not a measured one; the
    two rules also size different bytes, decoded query columns here
    and binlog payload still to be decoded there.  Fold them only
    after an A/B on tables over 32 MiB."""
    if "override_num_blocks" not in kw:
        try:
            paths = _parquet_files(path)
            total = sum(os.path.getsize(p) for p in paths)
            if total <= (1 << 30):
                kw["override_num_blocks"] = R.adaptive_num_parts(
                    total,
                    target_part_bytes=4 << 20,
                    min_parts=max(8, len(paths)),
                )
        except OSError:
            pass
    return rd.read_parquet(path, columns=columns, **kw)

def _t(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _query_vec(sf_dir: str, vec_id: int) -> np.ndarray:
    """One query vector, via parquet column pruning + row-group predicate
    pushdown — never the whole embeddings table on the driver."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        _t(sf_dir, "embeddings"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "=", vec_id)],
    )
    return np.asarray(t.column("embedding").to_pylist()[0], dtype=np.float64)


# ---------------------------------------------------------------------------
# CDC-semantic operators checked against SQL oracles on the events table
# ---------------------------------------------------------------------------


def lww_merge_events(sf_dir: str):
    """The LWW merge operator (M6) applied to the events table: each event
    upserts the per-user state, ordered by event_id — the exact semantics
    the CDC merge uses, with a window-function SQL oracle."""
    from .cdc import CdcConfig, merge_lww

    ds = _rp(_t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value", "props"])

    def to_flat(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_type": batch.column("event_type"),
                "value": batch.column("value"),
                "props": batch.column("props"),
                "op": pa.array(["insert"] * batch.num_rows, pa.string()),
                "event_seq": batch.column("event_id"),
                "row_seq": pa.array([0] * batch.num_rows, pa.int32()),
            }
        )

    merged = merge_lww(
        ds.map_batches(to_flat, batch_format="pyarrow"),
        CdcConfig(key_cols=("user_id",), num_partitions=16),
    )
    return merged.map_batches(
        lambda b: b.select(["user_id", "event_type", "value", "props"]),
        batch_format="pyarrow",
    )


def events_table_counts(sf_dir: str):
    """A1 StatisticsCollector analog: per-type event/row accounting."""
    ds = _rp(_t(sf_dir, "events"), columns=["event_type", "value"])
    return R.preagg_groupby(
        ds,
        ["event_type"],
        {
            "n_events": (None, "count"),
            "min_value": ("value", "min"),
            "max_value": ("value", "max"),
        },
    )


def filter_events(sf_dir: str):
    """F1 include/exclude predicate pushdown analog."""
    ds = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    )

    def pred(batch: pa.Table) -> pa.Array:
        t = pc.is_in(batch.column("event_type"), value_set=pa.array(["click", "view"]))
        u = pa.array(batch.column("user_id").to_numpy(zero_copy_only=False) % 10 == 3)
        return pc.and_(t, u)

    return R.filter_project(ds, pred, ["event_id", "user_id", "event_type", "value"])


def watermark_skip_events(sf_dir: str):
    """F2 start-position replay-skip analog: events after a watermark."""
    ds = _rp(_t(sf_dir, "events"), columns=["event_id", "user_id"])

    def pred(batch: pa.Table) -> pa.Array:
        return pc.greater(batch.column("event_id"), 500)

    filtered = R.filter_project(ds, pred, ["event_id", "user_id"])
    return R.preagg_groupby(
        filtered.map_batches(
            lambda b: b.append_column("all", pa.array([1] * b.num_rows, pa.int8())),
            batch_format="pyarrow",
        ),
        ["all"],
        {"n": (None, "count"), "min_seq": ("event_id", "min"), "max_seq": ("event_id", "max")},
    ).map_batches(lambda b: b.drop_columns(["all"]), batch_format="pyarrow")


def window_events_hourly(sf_dir: str):
    """Tumbling 1h event-time window per event_type (windowed aggregate —
    a gap operator the reference lacks)."""
    ds = _rp(_t(sf_dir, "events"), columns=["ts", "event_type", "value"])
    return R.tumbling_window(
        ds,
        "ts",
        ["event_type"],
        3600,
        {"n": (None, "count"), "max_value": ("value", "max")},
    )


# ---------------------------------------------------------------------------
# relational breadth (TPC-H-ish oracles)
# ---------------------------------------------------------------------------


def q1_lineitem_agg(sf_dir: str):
    ds = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )
    return R.preagg_groupby(
        ds,
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("l_quantity", "sum"),
            "n": (None, "count"),
            "max_qty": ("l_quantity", "max"),
        },
    )


def join_orders_customer(sf_dir: str):
    """Broadcast join: customer is the small side, shipped once."""
    import pyarrow.parquet as pq

    customer = pq.read_table(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    orders = _rp(_t(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])
    joined = R.broadcast_join(
        orders, customer, left_on="o_custkey", right_on="c_custkey", take_cols=["c_mktsegment"]
    )
    return R.preagg_groupby(
        joined,
        ["c_mktsegment"],
        {"n_orders": (None, "count"), "max_price": ("o_totalprice", "max")},
    )


def _events_user_set(sf_dir: str, event_type: str):
    ds = _rp(_t(sf_dir, "events"), columns=["user_id", "event_type"])
    return ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), event_type)).select(
            ["user_id"]
        ),
        batch_format="pyarrow",
    )


def users_click_and_purchase(sf_dir: str):
    """INTERSECT over distinct user sets (set_op, one keyed exchange of
    per-batch distinct partials)."""
    return R.set_op(
        _events_user_set(sf_dir, "click"),
        _events_user_set(sf_dir, "purchase"),
        ["user_id"],
        "intersect",
    )


def ordering_customers_not_in_events(sf_dir: str):
    """EXCEPT over distinct key sets: customers who placed orders but
    never appear in the event stream."""
    orders = _rp(_t(sf_dir, "orders"), columns=["o_custkey"])
    events = _rp(_t(sf_dir, "events"), columns=["user_id"])
    return R.set_op(
        orders.map_batches(
            lambda b: b.rename_columns(["custkey"]), batch_format="pyarrow"
        ),
        events.map_batches(
            lambda b: b.rename_columns(["custkey"]), batch_format="pyarrow"
        ),
        ["custkey"],
        "except",
    )


def customers_with_orders(sf_dir: str):
    """Semi join (EXISTS): customers that placed at least one order —
    distinct order keys reduced first, broadcast once, isin probe."""
    customer = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment", "c_acctbal"]
    )
    orders = _rp(_t(sf_dir, "orders"), columns=["o_custkey"])
    return R.broadcast_semi_join(customer, orders, "c_custkey", "o_custkey")


def cohort_retention_events(sf_dir: str):
    """Daily cohort retention over the event stream: one keyed exchange
    on the user computes cohorts, offsets, and the distinct-user partials
    in-partition."""
    from ..stages.window import cohort_retention

    ds = _rp(_t(sf_dir, "events"), columns=["user_id", "ts"])
    return cohort_retention(ds, "user_id", "ts", period_seconds=86400)


def skew_join_events_customer(sf_dir: str):
    """Skew-aware hybrid join: hot event users join map-side against a
    broadcast of their customer rows; the cold tail hash-joins.  Result
    is aggregate-verified against a plain SQL join (the split is
    semantically invisible)."""
    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "event_type", "event_id", "value"]
    )
    customer = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    joined = R.skew_join(events, customer, "user_id", "c_custkey", hot_threshold=50)
    return R.preagg_groupby(
        joined,
        ["c_mktsegment", "event_type"],
        {
            "n_events": (None, "count"),
            "sum_event_id": ("event_id", "sum"),
            "min_value": ("value", "min"),
            "max_value": ("value", "max"),
        },
    )


def bloom_join_events_rich_customers(sf_dir: str):
    """Bloom-prefiltered join: the filtered dimension side (acctbal >
    8000, ~20% of customers) streams once into a Bloom filter that drops
    non-joinable event rows BEFORE the hash-join shuffle — identical
    results to a plain join (no false negatives), ~80% less shuffled
    fact data."""
    events = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "value"]
    )
    cust = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_acctbal", "c_mktsegment"]
    )
    cust = R.filter_project(
        cust,
        lambda b: pc.greater(b.column("c_acctbal"), 8000.0),
        ["c_custkey", "c_mktsegment"],
    )
    joined = R.bloom_join(events, cust, "user_id", "c_custkey")
    return R.preagg_groupby(
        joined,
        ["c_mktsegment"],
        {
            "n_events": (None, "count"),
            "sum_event_id": ("event_id", "sum"),
            "max_value": ("value", "max"),
        },
    )


def topk_orders(sf_dir: str):
    ds = _rp(_t(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"])
    return R.top_k(ds, [("o_totalprice", True), ("o_orderkey", False)], 10)


def tpch_q3_building(sf_dir: str):
    """TPC-H Q3-shaped 3-table star join: selective filters on every side,
    per-order revenue, global top-10.  Composition showcase for the scale
    path: the dimension side collapses to a broadcast semi-join (no
    shuffle), the fact side pre-aggregates per order key BEFORE the only
    hash-partitioned exchange, and the ranking is bounded local-top-k +
    driver merge — never a global sort.  Revenue is integer 1e-4-dollar
    units (single near-integer products rounded BEFORE any sum) so the
    engine and the SQL oracle agree bit-for-bit regardless of summation
    order; o_orderdate rides as epoch micros (int64) because pandas
    round-trips would silently retype a raw timestamp column."""
    cutoff = pa.scalar(np.datetime64("1998-06-01", "us"), type=pa.timestamp("us"))

    cust = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    cust = R.filter_project(
        cust,
        lambda b: pc.equal(b.column("c_mktsegment"), "BUILDING"),
        ["c_custkey"],
    )

    orders = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def prep_orders(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less(b.column("o_orderdate"), cutoff))
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_custkey": b.column("o_custkey"),
                "o_orderdate_us": b.column("o_orderdate").cast(pa.int64()),
                "o_orderpriority": b.column("o_orderpriority"),
            }
        )

    orders = orders.map_batches(prep_orders, batch_format="pyarrow")
    orders = R.broadcast_semi_join(orders, cust, "o_custkey", "c_custkey")

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b.column("l_shipdate"), cutoff))
        cents = np.round(
            b.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        disc = np.round(
            b.column("l_discount").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "revenue_e4": pa.array(cents * (100 - disc), pa.int64()),
            }
        )

    liagg = R.preagg_groupby(
        li.map_batches(rev, batch_format="pyarrow"),
        ["l_orderkey"],
        {"revenue_e4": ("revenue_e4", "sum")},
    )
    joined = R.hash_join(liagg, orders, on="l_orderkey", right_on="o_orderkey")
    top = R.top_k(joined, [("revenue_e4", True), ("l_orderkey", False)], 10)
    return top.select(
        ["l_orderkey", "revenue_e4", "o_orderdate_us", "o_orderpriority"]
    )


def distinct_users(sf_dir: str):
    ds = _rp(_t(sf_dir, "events"), columns=["user_id"])
    n = R.distinct_count(ds, "user_id")
    return pa.table({"n_users": pa.array([n], pa.int64())})


# ---------------------------------------------------------------------------
# dedup / text / similarity over documents + embeddings
# ---------------------------------------------------------------------------


def dedup_exact_documents(sf_dir: str):
    """Exact dedup keyed on the first 8 tokens (prefix-normalized): the
    hash-partitioned group-first pattern with a pure-SQL oracle."""
    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return exact_dedup_stats(ds, normalize_prefix_tokens=8)


def doc_token_stats(sf_dir: str):
    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    stage = TokenCounter()
    out = ds.map_batches(stage, batch_format="pandas", batch_size=1024)
    return out.map_batches(
        lambda b: b.select(["doc_id", "n_tokens"]), batch_format="pyarrow"
    )


def knn_embeddings(sf_dir: str):
    """Brute-force cosine top-10 of every vector against the vec_id=1
    query vector (broadcast query, local top-k per batch)."""
    qvec = _query_vec(sf_dir, 1)
    ds = _rp(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = brute_force_topk(ds, qvec[None, :], k=10)
    return pa.table(
        {
            "vec_id": pa.array(out["vec_id"].astype("int64")),
        }
    )


# minhash/simhash/multimodal are SQL-oracled (md5-derived hashing — see
# __ray_entry__ oracles; changes to their tokenization or hash functions
# must keep bit-exact oracle parity); langid is oracled too.  Rows-only:
# IVF (iterative float kmeans is not SQL-reproducible) and HLL.


def minhash_neardup_documents(sf_dir: str):
    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return minhash_lsh_pairs(ds, threshold=0.4)


def simhash_neardup_documents(sf_dir: str):
    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return simhash_pairs(ds, max_hamming=3)


def langid_documents(sf_dir: str):
    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text", "lang"])
    out = ds.map_batches(LangId(), batch_format="pandas")
    return out.map_batches(
        lambda b: b.select(["doc_id", "lang", "pred_lang"]), batch_format="pyarrow"
    )


def quality_documents(sf_dir: str):
    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(QualityScorer(), batch_format="pandas")
    return out.map_batches(
        lambda b: b.select(
            ["doc_id", "q_n_chars", "q_punct_ratio", "q_stop_ratio", "q_score"]
        ),
        batch_format="pyarrow",
    )


def fingerprint_documents(sf_dir: str):
    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(Fingerprinter(), batch_format="pandas")
    return out.map_batches(
        lambda b: b.select(["doc_id", "fingerprint", "content_md5"]),
        batch_format="pyarrow",
    )


def doc_md5_documents(sf_dir: str):
    """Content-hash fingerprint alone (the SQL-expressible half of
    fingerprint_documents, oracled as md5(text))."""
    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(Fingerprinter(), batch_format="pandas")
    return out.map_batches(
        lambda b: b.select(["doc_id", "content_md5"]), batch_format="pyarrow"
    )


def ann_ivf_embeddings(sf_dir: str):
    """IVF approximate variant of knn_embeddings (scale path)."""
    qvec = _query_vec(sf_dir, 1)
    ds = _rp(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    idx = IvfIndex.build(ds, nlist=8)
    out = idx.search(qvec[None, :], k=10, nprobe=3)
    return pa.Table.from_pandas(out, preserve_index=False)


def ngram_neardup_documents(sf_dir: str):
    """EXACT n-gram Jaccard near-dup pairs (distributed inverted-index
    join — deterministic, unlike the MinHash estimate, so it carries a
    full SQL oracle)."""
    from ..stages.dedup import ngram_jaccard_dedup

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return ngram_jaccard_dedup(ds, threshold=0.5)


def quantile_sketch_events(sf_dir: str):
    """Mergeable MRL quantile sketch over events.value — the bounded-
    state scale path next to the exact percentiles.  k=8192 keeps the
    sf0.01 oracle scale (10k rows) below the 2k compaction threshold,
    so answers there are EXACT quantile_disc (the regime the SQL oracle
    checks — disclosed); at bench scale and beyond the sketch compacts
    and the approximate regime is rank-error-bounded in
    TestMrlQuantileSketch."""
    from ..stages.sketches import quantile_sketch

    ds = _rp(_t(sf_dir, "events"), columns=["value"])
    sk = quantile_sketch(ds, "value", k=8192)
    qs = [0.05, 0.25, 0.5, 0.75, 0.95]
    import pandas as pd

    return pd.DataFrame({"q": qs, "estimate": sk.quantiles(qs)})


def bpe_tokens_documents(sf_dir: str):
    """BPE vocabulary induction (200 merges) + application over the
    documents corpus — per-doc word and subword-token counts.  Iterative
    training is not SQL-expressible (rows-only); the learner is
    pytest-oracled against a naive reference implementation and the
    Sennrich et al. 2016 worked example."""
    from ..stages.bpe import apply_bpe, train_bpe

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    merges = train_bpe(ds, num_merges=200)
    return apply_bpe(ds, merges)


def quantile_sketch_per_type_events(sf_dir: str):
    """Per-event_type mergeable quantiles (MRL).  k=4096 keeps every
    sf0.01 group (~2000 rows) below the 2k compaction threshold, so the
    sketch is in its EXACT quantile_disc regime at oracle scale — the
    approximate regime is bound-checked in TestMrlQuantileSketch."""
    from ..stages.sketches import quantile_sketch_per_group

    ds = _rp(_t(sf_dir, "events"), columns=["event_type", "value"])
    return quantile_sketch_per_group(
        ds, ["event_type"], "value", [0.5, 0.95], k=4096
    )


def mad_outliers_events(sf_dir: str):
    """Robust per-event_type outlier flags via median absolute
    deviation — exact quantile_disc statistics, bit-exact flag math."""
    ds = _rp(
        _t(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )
    out = R.mad_outliers(ds, ["event_type"], "value", k=3.0)
    return out.select_columns(["event_id", "event_type", "is_outlier"])


def rank_events_per_user(sf_dir: str):
    """RANK / PERCENT_RANK of each event within its user's timeline —
    tie-aware SQL rank semantics; percent_rank is one IEEE division of
    the same two integers on both sides, so the oracle is bit-exact."""
    from ..stages.window import window_over

    ds = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    out = window_over(
        ds,
        "user_id",
        ["event_id"],
        {"rnk": ("rank", "ts"), "prnk": ("percent_rank", "ts")},
    )
    def finish(b: pa.Table) -> pa.Table:
        # rebuild (not select) to drop the pandas Int64 extension
        # metadata the window combine's pandas blocks carry — it would
        # round-trip back as a nullable extension dtype downstream
        return pa.table({c: b[c] for c in ["event_id", "user_id", "rnk", "prnk"]})

    return out.map_batches(finish, batch_format="pyarrow")


def winsorize_events(sf_dir: str):
    """Per-event_type winsorization of value at the exact p05/p95
    discrete percentiles (outlier clipping for feature pipelines)."""
    ds = _rp(
        _t(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )
    out = R.winsorize(ds, ["event_type"], "value", 0.05, 0.95)
    return out.select_columns(["event_id", "event_type", "clipped"])


def resample_fill_events(sf_dir: str):
    """Hourly per-event_type counts with gap fill over the dense global
    hour range (time-series regularization)."""
    from ..stages.window import resample_fill

    ds = _rp(_t(sf_dir, "events"), columns=["ts", "event_type"])
    return resample_fill(ds, ts_col="ts", group_col="event_type", unit_sec=3600)


def zorder_events(sf_dir: str):
    """Z-order (Morton) clustering key over (user_id, floor(value)) —
    the multi-column lake-layout sort; exact integer interleave, so the
    oracle is the same bit expression."""
    from ..stages.layout import add_zorder_key

    ds = _rp(_t(sf_dir, "events"), columns=["event_id", "user_id", "value"])

    def quantize(tab: pa.Table) -> pa.Table:
        v = tab["value"].to_numpy(zero_copy_only=False)
        # NULL -> 0 like the SQL twin's COALESCE; +/-inf must NOT reach
        # astype(int64) (undefined bit pattern, and the SQL CAST would
        # error) — clip to the exactly-representable int64 envelope first
        y = np.floor(np.nan_to_num(v, nan=0.0, posinf=2.0**62, neginf=-(2.0**62)))
        y = np.clip(y, -(2.0**62), 2.0**62).astype(np.int64)
        return pa.table(
            {
                "event_id": tab["event_id"],
                "user_id": tab["user_id"],
                "_y": pa.array(y),
            }
        )

    keyed = add_zorder_key(
        ds.map_batches(quantize, batch_format="pyarrow"), ["user_id", "_y"], bits=16
    )
    return keyed.select_columns(["event_id", "zval"]).sort("zval")


def vector_stats_by_label(sf_dir: str):
    """Per-label elementwise embedding range profile (normalization
    stats per class) — exact float min/max, no arithmetic reordering."""
    from ..stages.similarity import vector_stats_by_group

    ds = _rp(_t(sf_dir, "embeddings"), columns=["label", "embedding"])
    return vector_stats_by_group(ds, group_col="label", vec_col="embedding")


def editdist_pairs_customers(sf_dir: str):
    """EXACT byte-level Levenshtein near-dup pairs over customer names
    (entity-resolution fuzzy matching; DuckDB ``levenshtein`` is also
    byte-level, so the oracle is a plain brute-force join)."""
    from ..stages.fuzzy import editdist_pairs

    ds = _rp(_t(sf_dir, "customer"), columns=["c_custkey", "c_name"])
    out = editdist_pairs(ds, max_dist=1, col="c_name", id_col="c_custkey")
    return pa.Table.from_pandas(out, preserve_index=False)


def embedding_neardup_exact_embeddings(sf_dir: str):
    """EXACT cosine near-dup pairs (broadcast-corpus matmul, pair ids
    only — similarity values differ from DuckDB's float32 kernel in the
    7th decimal, so the oracle compares the pair set)."""
    from ..stages.similarity import embedding_neardup_exact

    ds = _rp(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = embedding_neardup_exact(ds, threshold=0.42)
    return pa.Table.from_pandas(out[["id_a", "id_b"]], preserve_index=False)


def multimodal_image_pipeline(sf_dir: str):
    """Multimodal pipeline over GENUINELY encoded images: each document's
    text bytes become an 8-bit grayscale PNG (width 32, zero-padded final
    row; a real zlib-compressed, CRC'd file), which the decode->resize
    actor stages then REALLY decode (inflate + unfilter + CRC check) and
    nearest-neighbor resize.  The oracle recomputes dims and mean luma
    from character ordinals — exact because the pixel bytes ARE the text
    bytes."""
    from ..stages.multimodal import ImageDecoder, ImageResizer, encode_png

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def to_png(batch: pa.Table) -> pa.Table:
        payloads = []
        for t in batch.column("text").to_pylist():
            raw = (t or "").encode()[:4096]
            h = max(1, -(-len(raw) // 32))
            px = np.zeros(32 * h, dtype=np.uint8)
            px[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
            payloads.append(encode_png(px.reshape(h, 32)))
        return pa.table(
            {"doc_id": batch.column("doc_id"), "image": pa.array(payloads, pa.binary())}
        )

    imgs = ds.map_batches(to_png, batch_format="pyarrow")
    decoded = imgs.map_batches(
        ImageDecoder, batch_format="pyarrow", batch_size=64, concurrency=(1, 4)
    )
    resized = decoded.map_batches(
        ImageResizer,
        fn_constructor_kwargs={"target": (8, 8)},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 4),
    )
    return resized.map_batches(
        lambda b: b.select(
            ["doc_id", "width", "height", "n_pixels", "mean_luma", "thumb_w", "thumb_h"]
        ),
        batch_format="pyarrow",
    )


def multimodal_av_pipeline(sf_dir: str):
    """Audio + video pipeline over GENUINELY encoded payloads: each
    document's text bytes become (a) a real 16 kHz 16-bit mono WAV whose
    samples are ``byte * 16`` (stdlib ``wave`` writer), and (b) a
    concatenated-PNG frame stream (PNG-MJPEG) with ``1 + doc_id % 5``
    real frames.  The featurize stage decodes the WAV header + samples
    via ``wave``; the sampler splits the stream into real frames.  The
    oracle recomputes duration/energy from character ordinals (exact —
    the samples ARE the text bytes x16) and the sampled frame count from
    ``doc_id``."""
    from ..stages.multimodal import (
        AudioFeaturizer,
        VideoFrameSampler,
        encode_png,
        encode_wav,
    )

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def to_binary(batch: pa.Table) -> pa.Table:
        audio, video = [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            raw = (t or "").encode()[:8192]
            samples = np.frombuffer(raw, dtype=np.uint8).astype(np.int16) * 16
            audio.append(encode_wav(samples, sample_rate=16000))
            k = 1 + int(doc_id) % 5
            frame_px = np.zeros(32, dtype=np.uint8)
            frame_px[: min(32, len(raw))] = np.frombuffer(
                raw[:32], dtype=np.uint8
            )
            frame = encode_png(frame_px.reshape(4, 8))
            video.append(frame * k)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "audio": pa.array(audio, pa.binary()),
                "video": pa.array(video, pa.binary()),
            }
        )

    av = ds.map_batches(to_binary, batch_format="pyarrow")
    feat = av.map_batches(
        AudioFeaturizer, batch_format="pyarrow", batch_size=64, concurrency=(1, 4)
    )
    sampled = feat.map_batches(
        VideoFrameSampler, batch_format="pyarrow", batch_size=64, concurrency=(1, 4)
    )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_

        n_frames = pc_.list_value_length(batch.column("frames"))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "duration_sec": batch.column("duration_sec"),
                "n_frames_audio": batch.column("n_frames"),
                "energy": batch.column("energy"),
                "n_frames_video": n_frames,
            }
        )

    return sampled.map_batches(finish, batch_format="pyarrow")


def multimodal_header_pipeline(sf_dir: str):
    """Real-world-format header pipeline: per document, a genuine JPEG
    header (SOI + SOF0 with dims derived from doc_id), a genuine MPEG
    Layer III stream (``1 + doc_id % 7`` valid 128 kbps/44.1 kHz frames,
    zeroed audio data), and a genuine Ogg Vorbis container (granule =
    ``doc_id * 441``).  The decode stages parse ONLY the public headers
    (:func:`multimodal.parse_jpeg_dimensions`, ``parse_mp3_duration``,
    ``parse_ogg_duration`` — no codec library), so the oracle recomputes
    every output from doc_id arithmetic, bit-exact (durations are int /
    44100.0 double divisions on both sides)."""
    import struct

    from ..stages.multimodal import AudioFeaturizer, ImageDecoder

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id"])

    _MP3_HDR = b"\xff\xfb\x90\x00"  # V1 L3 128 kbps 44100 Hz no padding
    _MP3_FLEN = 144 * 128000 // 44100  # 417 bytes

    def synth(batch: pa.Table) -> pa.Table:
        jpg, mp3, ogg = [], [], []
        for doc_id in batch.column("doc_id").to_pylist():
            w, h = 16 + doc_id % 100, 16 + doc_id % 50
            sof = struct.pack(">BHHB", 8, h, w, 1) + b"\x01\x11\x00"
            jpg.append(
                b"\xff\xd8"
                + b"\xff\xc0" + struct.pack(">H", len(sof) + 2) + sof
                + b"\xff\xd9"
            )
            k = 1 + doc_id % 7
            mp3.append((_MP3_HDR + bytes(_MP3_FLEN - 4)) * k)
            granule = doc_id * 441
            ident = b"\x01vorbis" + struct.pack("<IB", 0, 2) + struct.pack("<I", 44100)
            page0 = (
                b"OggS\x00\x02" + struct.pack("<q", 0)
                + struct.pack("<IIi", 7, 0, 0) + bytes([1, len(ident)]) + ident
            )
            page1 = (
                b"OggS\x00\x04" + struct.pack("<q", granule)
                + struct.pack("<IIi", 7, 1, 0) + bytes([1, 1]) + b"\x00"
            )
            ogg.append(page0 + page1)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "image": pa.array(jpg, pa.binary()),
                "mp3": pa.array(mp3, pa.binary()),
                "ogg": pa.array(ogg, pa.binary()),
            }
        )

    # header parses are stateless and cheap — plain task stages, no
    # actor pools (the stateful actor-pool shape is exercised by the
    # image/av pipelines above; three pools here would triple-charge
    # startup for zero amortizable state)
    payloads = ds.map_batches(synth, batch_format="pyarrow")
    dims = payloads.map_batches(
        ImageDecoder(fake=False), batch_format="pyarrow"
    )

    def keep_dims(b: pa.Table) -> pa.Table:
        return b.select(["doc_id", "mp3", "ogg", "width", "height"])

    feat_mp3 = dims.map_batches(keep_dims, batch_format="pyarrow").map_batches(
        AudioFeaturizer(data_col="mp3", fake=False), batch_format="pyarrow"
    )

    def rename_mp3(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "ogg": b.column("ogg"),
                "width": b.column("width"),
                "height": b.column("height"),
                "mp3_frames": b.column("n_frames"),
                "mp3_sec": b.column("duration_sec"),
            }
        )

    feat_ogg = feat_mp3.map_batches(rename_mp3, batch_format="pyarrow").map_batches(
        AudioFeaturizer(data_col="ogg", fake=False), batch_format="pyarrow"
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "width": b.column("width"),
                "height": b.column("height"),
                "mp3_frames": b.column("mp3_frames"),
                "mp3_sec": b.column("mp3_sec"),
                "ogg_samples": b.column("n_frames"),
                "ogg_sec": b.column("duration_sec"),
            }
        )

    return feat_ogg.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# the CDC pipeline itself (rows-only: its oracle is the replay in tests)
# ---------------------------------------------------------------------------

_SF_SPECS = {
    "0.001": dict(n_keys=400, n_ops=2000, n_shards=2),
    "0.01": dict(n_keys=2000, n_ops=12000, n_shards=4),
    "0.1": dict(n_keys=10000, n_ops=120000, n_shards=8),
}


def _sf_of(sf_dir: str) -> str:
    base = os.path.basename(os.path.normpath(sf_dir))
    return base[2:] if base.startswith("sf") else "0.01"


def cdc_stream_dir(sf_dir: str) -> str:
    sf = _sf_of(sf_dir)
    return f"/tmp/mysql_binlog_ray/streams/sf{sf}"


def cdc_manifest(sf_dir: str):
    from ..fixtures.generator import StreamSpec, generate_stream

    sf = _sf_of(sf_dir)
    spec = StreamSpec(**_SF_SPECS.get(sf, _SF_SPECS["0.01"]))
    return spec, generate_stream(spec, cdc_stream_dir(sf_dir))


def cdc_multi_manifest(sf_dir: str):
    """The two-table (repos + issues) stream — ONE definition so every
    multi-table query decodes the same stream."""
    from ..fixtures.generator import StreamSpec, generate_stream

    sf = _sf_of(sf_dir)
    base = _SF_SPECS.get(sf, _SF_SPECS["0.01"])
    spec = StreamSpec(**base, issues_every=3)
    return spec, generate_stream(spec, f"/tmp/mysql_binlog_ray/streams/sf{sf}_multi")


def _sha_content(batch: pa.Table) -> pa.Table:
    """content -> content_sha256 (stable, compact) — ONE definition
    shared by every cdc_* query that returns merged-table rows."""
    sha = [
        hashlib.sha256(c.encode()).hexdigest()
        for c in batch.column("content").to_pylist()
    ]
    return batch.drop_columns(["content"]).append_column(
        "content_sha256", pa.array(sha, pa.string())
    )


def cdc_final_state(sf_dir: str):
    """Flagship: full binlog decode -> LWW merge; returns the final table
    with content reduced to its sha256 (stable, compact)."""
    from .cdc import CdcConfig, run_to_dataset

    _, manifest = cdc_manifest(sf_dir)
    ds = run_to_dataset(manifest, CdcConfig(num_partitions=16))
    return ds.map_batches(_sha_content, batch_format="pyarrow")


def cdc_table_stats(sf_dir: str):
    """A1 StatisticsCollector equivalent (`StatisticsCollector.php:13-95`):
    per-(schema, table, op) row counts + sequence range over the decoded
    changefeed, as a distributed aggregate instead of a timer."""
    from .cdc import CdcConfig, decode_changefeed, read_event_stream

    _, manifest = cdc_manifest(sf_dir)
    cfg = CdcConfig()
    cf = decode_changefeed(read_event_stream(manifest), manifest["table_maps"], cfg)
    return R.preagg_groupby(
        cf.map_batches(
            lambda b: b.select(["schema_name", "table_name", "op", "event_seq"]),
            batch_format="pyarrow",
        ),
        ["schema_name", "table_name", "op"],
        {
            "n_rows": (None, "count"),
            "min_seq": ("event_seq", "min"),
            "max_seq": ("event_seq", "max"),
        },
    )


def cdc_all_tables_changefeed(sf_dir: str):
    """Multi-table single-pass decode (reference parity: one stream walk
    feeds every table): per-(schema, table, op) row counts + seq ranges
    over BOTH `code.repos` and `code.issues` from one decode."""
    from .cdc import CdcConfig, decode_all_tables, read_event_stream

    _, manifest = cdc_multi_manifest(sf_dir)
    cf = decode_all_tables(
        read_event_stream(manifest), manifest["table_maps"], CdcConfig()
    )
    return R.preagg_groupby(
        cf.map_batches(
            lambda b: b.select(["schema_name", "table_name", "op", "event_seq"]),
            batch_format="pyarrow",
        ),
        ["schema_name", "table_name", "op"],
        {
            "n_rows": (None, "count"),
            "min_seq": ("event_seq", "min"),
            "max_seq": ("event_seq", "max"),
        },
    )


def cdc_hot_keys(sf_dir: str):
    """M8 skew surface: per-key change frequency sketch (top 20 hottest
    primary keys by row-image count).  The lake's partial combine bounds
    each of these keys to one row per read unit at the merge."""
    from .cdc import CdcConfig, _with_flat_decode, decode_changefeed, read_event_stream

    _, manifest = cdc_manifest(sf_dir)
    cfg = _with_flat_decode(CdcConfig())
    flat = decode_changefeed(read_event_stream(manifest), manifest["table_maps"], cfg)
    counts = R.preagg_groupby(
        flat.map_batches(lambda b: b.select(["repo", "path"]), batch_format="pyarrow"),
        ["repo", "path"],
        {"n_changes": (None, "count")},
    )
    return R.top_k(counts, [("n_changes", True), ("repo", False), ("path", False)], 20)


def cdc_changefeed_stats(sf_dir: str):
    """Decoded-changefeed accounting (per-op row counts + seq range)."""
    from .cdc import CdcConfig, decode_changefeed, read_event_stream

    _, manifest = cdc_manifest(sf_dir)
    cfg = CdcConfig()
    events = read_event_stream(manifest)
    cf = decode_changefeed(events, manifest["table_maps"], cfg)
    return R.preagg_groupby(
        cf.map_batches(
            lambda b: b.select(["op", "event_seq"]), batch_format="pyarrow"
        ),
        ["op"],
        {"n_rows": (None, "count"), "min_seq": ("event_seq", "min"), "max_seq": ("event_seq", "max")},
    )


def cdc_schema_history(sf_dir: str):
    """DDL changelog of the stream (schema-evolution lineage): one row
    per QUERY event with its position in the sequence.  Binlog wire
    format is not SQL-parseable (rows-only); the generator's known DDL
    is pytest-asserted."""
    from .cdc import schema_history

    _, manifest = cdc_manifest(sf_dir)
    return schema_history(manifest)


def cdc_time_travel(sf_dir: str):
    """Time travel by log replay (`pipelines/cdc.py::state_as_of`): the
    merged table state AS OF the stream's median event_seq — whole
    shards past the watermark are pruned before decode.  Pytest oracle:
    truncated sequential replay (`final_state_oracle(max_event_seq=w)`)."""
    from .cdc import CdcConfig, state_as_of

    _, manifest = cdc_manifest(sf_dir)
    last = max(s["last_event_seq"] for s in manifest["shards"])
    w = last // 2  # deterministic mid-stream watermark
    ds = state_as_of(manifest, w, CdcConfig(num_partitions=16))
    return ds.map_batches(_sha_content, batch_format="pyarrow")


def cdc_wire_tail(sf_dir: str):
    """S1/S4/S5 transport end-to-end: a full MySQL replica-protocol
    session (handshake/auth scramble, COM_REGISTER_SLAVE,
    COM_BINLOG_DUMP, heartbeat skipping, >16MB-safe framing) over an
    in-process socketpair replaying the fixture stream byte-for-byte,
    spooled to shards, then the UNCHANGED distributed decode.  Returns
    per-op row counts — deterministic and equal to what the parquet
    source yields on the same stream (only lineage seq numbering
    differs, and it is excluded here)."""
    import shutil
    import socket
    import threading

    import pyarrow.parquet as pq

    from ..fixtures.wire_server import serve_session
    from ..sources.wire import BinlogWireClient, tail_to_shards
    from .cdc import CdcConfig, decode_changefeed, read_event_stream

    _, manifest = cdc_manifest(sf_dir)
    payloads = []
    for s in manifest["shards"]:
        payloads.extend(
            pq.read_table(s["path"], columns=["payload"])["payload"].to_pylist()
        )

    srv, cli = socket.socketpair()

    def run_server():
        try:
            serve_session(srv, payloads, heartbeat_every=100)
        finally:
            srv.close()

    t = threading.Thread(target=run_server, daemon=True)
    t.start()
    client = BinlogWireClient(cli, user="repl", password="secret", slave_id=7)
    sf = _sf_of(sf_dir)
    spool = f"/tmp/mysql_binlog_ray/wire_spool_sf{sf}"
    shutil.rmtree(spool, ignore_errors=True)
    res = tail_to_shards(client, spool, shard_events=4096, session_setup=True)
    cli.close()
    t.join(timeout=60)

    wire_manifest = dict(manifest, shards=res["shards"])
    cf = decode_changefeed(
        read_event_stream(wire_manifest), manifest["table_maps"], CdcConfig()
    )
    return R.preagg_groupby(
        cf.map_batches(lambda b: b.select(["op"]), batch_format="pyarrow"),
        ["op"],
        {"n_rows": (None, "count")},
    )


def ivm_view_events(sf_dir: str):
    """Incremental materialized-view maintenance (stages/ivm.py) on the
    events table: each event upserts the per-user state (the CDC merge's
    LWW semantics, ordered by event_id); an 'error' event deletes it.
    The maintained view — per event_type, live-user count and sum of
    value in cents — is computed purely from retraction/insertion
    deltas; the SQL oracle recomputes it from the window-function final
    state, so the delta algebra must telescope exactly (integer cents)."""
    from ..stages.ivm import changefeed_to_deltas, maintained_view

    ds = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        cents = np.rint(b.column("value").to_numpy() * 100.0).astype(np.int64)
        op = pc.if_else(
            pc.equal(b.column("event_type"), pa.scalar("error")),
            pa.scalar("delete"),
            pa.scalar("insert"),
        )
        return pa.table(
            {
                "user_id": b.column("user_id"),
                "event_type": b.column("event_type"),
                "cents": pa.array(cents),
                "op": op,
                "event_id": b.column("event_id"),
            }
        )

    feed = ds.map_batches(prep, batch_format="pyarrow")
    deltas = changefeed_to_deltas(
        feed,
        key_cols=("user_id",),
        group_col="event_type",
        value_col="cents",
        seq_cols=("event_id",),
        op_col="op",
        num_parts=16,
    )
    return maintained_view(
        deltas, "event_type", count_name="n_users", value_name="sum_cents"
    )


def ivm_segment_view_events(sf_dir: str):
    """Incrementally maintained aggregate over a STAR JOIN: per customer
    market segment, live-user count + sum of value cents, where each
    event upserts the per-user state ('error' deletes it) and the
    segment comes from a broadcast dimension join applied to the change
    stream BEFORE delta computation — the delta algebra then maintains
    the joined view exactly (dimension is static, so enrich-then-delta
    equals join-then-reaggregate, which is what the SQL oracle does)."""
    from ..stages.ivm import changefeed_to_deltas, maintained_view

    ev = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    )
    import pyarrow.parquet as pq

    cust = pq.read_table(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()

    def prep(b: pa.Table) -> pa.Table:
        cents = np.rint(b.column("value").to_numpy() * 100.0).astype(np.int64)
        op = pc.if_else(
            pc.equal(b.column("event_type"), pa.scalar("error")),
            pa.scalar("delete"),
            pa.scalar("insert"),
        )
        return pa.table(
            {
                "user_id": b.column("user_id"),
                "cents": pa.array(cents),
                "op": op,
                "event_id": b.column("event_id"),
            }
        )

    feed = R.broadcast_join(
        ev.map_batches(prep, batch_format="pyarrow"),
        cust,
        "user_id",
        "c_custkey",
        ["c_mktsegment"],
    )
    deltas = changefeed_to_deltas(
        feed,
        key_cols=("user_id",),
        group_col="c_mktsegment",
        value_col="cents",
        seq_cols=("event_id",),
        op_col="op",
        num_parts=16,
    )
    return maintained_view(
        deltas, "c_mktsegment", count_name="n_users", value_name="sum_cents"
    )


def cdc_incremental_view(sf_dir: str):
    """Maintained aggregate view over the REAL binlog changefeed
    (stages/ivm.py): per-lang live-file count + total content bytes,
    derived from retraction/insertion deltas of the flat changefeed —
    never by re-aggregating the lake.  Pytest oracle: equals the groupby
    over the replayed final state, and ``refresh_view`` across a
    mid-stream watermark equals the from-scratch view
    (tests/test_ivm.py)."""
    from ..stages.ivm import changefeed_to_deltas, maintained_view
    from .cdc import CdcConfig, _with_flat_decode, decode_changefeed, read_event_stream

    _, manifest = cdc_manifest(sf_dir)
    cfg = _with_flat_decode(CdcConfig())
    flat = decode_changefeed(read_event_stream(manifest), manifest["table_maps"], cfg)
    feed = flat.map_batches(_ivm_prep_flat, batch_format="pyarrow")
    deltas = changefeed_to_deltas(
        feed,
        key_cols=("repo", "path"),
        group_col="lang",
        value_col="content_bytes",
        seq_cols=("event_seq", "row_seq"),
        op_col="op",
        num_parts=16,
    )
    view = maintained_view(
        deltas, "lang", count_name="n_files", value_name="content_bytes"
    )
    return view.sort("lang")


def _ivm_prep_flat(b: pa.Table) -> pa.Table:
    """Project the flat changefeed to IVM feed columns.  Delete rows have
    null lang/content — their group/value are never read by the delta
    kernel (a delete only retracts the previous state), but must be
    valid, so fill ''/0."""
    nbytes = pc.coalesce(
        pc.cast(pc.binary_length(b.column("content")), pa.int64()),
        pa.scalar(0, pa.int64()),
    )
    return pa.table(
        {
            "repo": b.column("repo"),
            "path": b.column("path"),
            "lang": pc.coalesce(b.column("lang"), pa.scalar("", pa.string())),
            "content_bytes": nbytes,
            "op": b.column("op"),
            "event_seq": b.column("event_seq"),
            "row_seq": pc.cast(b.column("row_seq"), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# joins / sampling / sketches (round-1 additions)
# ---------------------------------------------------------------------------


def asof_clicks_purchases(sf_dir: str):
    """As-of join (SURVEY §2.7 gap operator): for every click, the user's
    most recent purchase at or before it.  Right side pre-deduped to
    max(event_id) per (user_id, ts) so tie-breaks are deterministic in
    both engines."""
    ev_cols = ["event_id", "user_id", "event_type", "ts"]
    clicks = _rp(_t(sf_dir, "events"), columns=ev_cols)
    clicks = R.filter_project(
        clicks,
        lambda b: pc.equal(b.column("event_type"), pa.scalar("click")),
        ["event_id", "user_id", "ts"],
    )
    purchases = _rp(_t(sf_dir, "events"), columns=ev_cols)
    purchases = R.filter_project(
        purchases,
        lambda b: pc.equal(b.column("event_type"), pa.scalar("purchase")),
        ["event_id", "user_id", "ts"],
    )
    p_dedup = R.preagg_groupby(
        purchases, ["user_id", "ts"], {"p_event_id": ("event_id", "max")}
    )
    joined = R.asof_join(
        clicks, p_dedup, by="user_id", on="ts", right_cols=["p_event_id"], suffix=""
    )

    def finish(batch: pa.Table) -> pa.Table:
        prev = batch.column("p_event_id").fill_null(-1).cast(pa.int64())
        return pa.table(
            {
                "click_id": batch.column("event_id").cast(pa.int64()),
                "prev_purchase_id": prev,
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def join_orders_lineitem(sf_dir: str):
    """Large-large equi-join via Ray Data's hash-partitioned join, then a
    pre-aggregated groupby."""
    li = _rp(_t(sf_dir, "lineitem"), columns=["l_orderkey", "l_quantity"])
    orders = _rp(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_orderpriority"]
    )
    joined = R.hash_join(li, orders, on="l_orderkey", right_on="o_orderkey")
    return R.preagg_groupby(
        joined,
        ["o_orderpriority"],
        {"n_items": (None, "count"), "max_qty": ("l_quantity", "max")},
    )


def bucketed_join_orders_lineitem(sf_dir: str):
    """Shuffle-free co-partitioned join: both tables are written ONCE as
    hash-bucketed lakes on the order key (map-only write), then joined
    AND per-order-aggregated inside one task per bucket — no runtime
    exchange at all.  Revenue is computed in integer 1e-4-dollar
    units (price-cents x discount-complement-percent) so the engine and
    the SQL oracle agree bit-for-bit regardless of float summation order."""
    import hashlib as _hl
    import tempfile

    from ..stages.bucketed import join_bucketed, write_bucketed

    tag = _hl.md5(sf_dir.encode()).hexdigest()[:10]
    base = f"{tempfile.gettempdir()}/mysql_binlog_ray/bucketed_{tag}"
    orders = _rp(_t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"])
    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    write_bucketed(orders, f"{base}/orders", "o_orderkey", num_buckets=16)
    write_bucketed(lineitem, f"{base}/lineitem", "l_orderkey", num_buckets=16)

    def fin(j: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(j["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc = np.round(j["l_discount"].to_numpy() * 100).astype(np.int64)
        j = j.assign(_rev=cents * (100 - disc))
        g = (
            j.groupby(["o_orderkey", "o_custkey"], sort=False)
            .agg(
                n_items=("l_orderkey", "size"),
                sum_qty=("l_quantity", "sum"),
                revenue_e4=("_rev", "sum"),
            )
            .reset_index()
        )
        # quantities are integral doubles: the float sum is exact
        g["sum_qty"] = g["sum_qty"].astype(np.int64)
        return g

    return join_bucketed(
        f"{base}/orders",
        f"{base}/lineitem",
        "o_orderkey",
        "l_orderkey",
        how="inner",
        finish=fin,
    )


# fixed probe set for the point-lookup queries: doc_ids that exist at
# every sf (documents is 500 rows at all scales) plus one absent id and
# one duplicate request — the SQL oracle carries the same literal list
POINT_LOOKUP_DOC_IDS = (3, 17, 17, 42, 128, 250, 333, 444, 499, 100000)


def bucketed_point_lookup_documents(sf_dir: str):
    """Bucket-pruned point lookup: documents written ONCE as a
    hash-bucketed lake on doc_id (map-only write), then a fixed key set
    is fetched by reading ONLY the row groups of the buckets those keys
    hash to — never a table scan.  Semi-join semantics: the duplicate
    request and the absent id contribute nothing."""
    import hashlib as _hl
    import os as _os
    import shutil as _sh
    import tempfile

    from ..stages.bucketed import point_lookup, write_bucketed
    from ..state.checkpoint import read_manifest

    # cache key includes the SOURCE file identity (path, size, mtime):
    # regenerated testdata gets a fresh dir instead of stale answers
    src = _t(sf_dir, "documents")
    st = _os.stat(src)
    # dir name = source id + content fingerprint: regenerated testdata
    # gets a fresh dir, and superseded fingerprints OF THE SAME SOURCE
    # are swept (other sf_dirs' caches are untouched)
    src_id = _hl.md5(src.encode()).hexdigest()[:8]
    fp = _hl.md5(f"{st.st_size}|{st.st_mtime_ns}".encode()).hexdigest()[:8]
    parent = f"{tempfile.gettempdir()}/mysql_binlog_ray"
    prefix = f"bucketed_docs_{src_id}_"
    base = f"{parent}/{prefix}{fp}"
    if read_manifest(base) is None:
        if _os.path.isdir(parent):
            import time as _time

            now = _time.time()
            for entry in _os.listdir(parent):
                p = _os.path.join(parent, entry)
                if not entry.startswith(prefix) or p == base:
                    continue
                if ".build-" in entry:
                    continue  # never race ANY in-progress build
                try:
                    age = now - _os.path.getmtime(p)
                except OSError:
                    continue
                # only sweep dirs quiescent for a minute: a concurrent
                # process that just published a NEWER fingerprint (we
                # stat'ed before a testdata regeneration) is spared
                if age > 60:
                    _sh.rmtree(p, ignore_errors=True)
        # build in a private dir, publish with an atomic rename; a
        # concurrent builder that wins the rename just makes ours a
        # discarded duplicate (content is identical by construction)
        tmp = f"{base}.build-{_os.getpid()}"
        docs = _rp(
            src, columns=["doc_id", "lang", "source", "n_chars"]
        )
        write_bucketed(docs, tmp, "doc_id", num_buckets=32)
        try:
            _os.rename(tmp, base)
        except OSError:
            _sh.rmtree(tmp, ignore_errors=True)  # another run won the race
    return point_lookup(base, list(POINT_LOOKUP_DOC_IDS))


def cdc_point_lookup(sf_dir: str):
    """M7 query-side payoff: partition-pruned point lookup over the
    exactly-once lake — the requested primary keys hash (poly64v2, the
    manifest-recorded algorithm) to their ``part=NNNNN`` files and ONLY
    those files are read.  Keys are derived from the generator's pure
    key->(repo, path) function, so the probe set is deterministic;
    deleted keys simply return nothing (semi-join)."""
    from ..fixtures.generator import ContentFactory
    from .cdc import CdcConfig, lake_point_lookup, run_to_lake

    spec, manifest = cdc_manifest(sf_dir)
    sf = _sf_of(sf_dir)
    lake = f"/tmp/mysql_binlog_ray/lookup_lake_sf{sf}"
    run_to_lake(manifest, lake, CdcConfig(num_partitions=16), resume=True)
    gen = ContentFactory(spec)
    pairs = [gen.repo_path(k) for k in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55)]
    req = pa.table(
        {
            "repo": pa.array([p[0] for p in pairs]),
            "path": pa.array([p[1] for p in pairs]),
        }
    )
    return _sha_content(lake_point_lookup(lake, req))


def gear_chunks_documents(sf_dir: str):
    """Content-defined chunking (Gear rolling hash, the FastCDC / dedup-
    storage boundary primitive): per-document chunk count and first/last
    cut positions under the pure boundary rule (low 6 hash bits zero,
    expected chunk ~64 chars).  Boundaries move WITH the content, so an
    early edit shifts one chunk instead of re-chunking the document —
    the property fixed-size chunking lacks.  Exact SQL oracle (HUGEINT
    windowed Gear sum; terms stay under 2^127 by construction)."""
    from ..stages.text import gear_chunk_stats

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return ds.map_batches(gear_chunk_stats, batch_format="pandas")


def chunk_dedup_documents(sf_dir: str):
    """Chunk-level storage dedup — the metric content-defined chunking
    exists for: chunk every document at Gear boundaries, count distinct
    chunks and the bytes a chunk store would actually hold.  Only slim
    (hash64, len) rows shuffle (bodies never leave the chunking task);
    ONE keyed exchange to distinct-count, then a 4-number reduce.
    Integer columns only (no float ratio) so the oracle hashes exactly."""
    from ..stages.text import gear_chunk_rows

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    rows = ds.map_batches(gear_chunk_rows, batch_format="pandas")
    per_hash = R.preagg_groupby(
        rows, ["h"], {"cnt": (None, "count"), "l": ("l", "min")}
    )

    def part(b: pa.Table) -> pa.Table:
        cnt = b.column("cnt").to_numpy()
        length = b.column("l").to_numpy()
        return pa.table(
            {
                "_k": pa.array([1], pa.int64()),
                "n_chunks": pa.array([int(cnt.sum())], pa.int64()),
                "total_chars": pa.array([int((cnt * length).sum())], pa.int64()),
                "n_unique_chunks": pa.array([len(cnt)], pa.int64()),
                "unique_chars": pa.array([int(length.sum())], pa.int64()),
            }
        )

    one = R.preagg_groupby(
        per_hash.map_batches(part, batch_format="pyarrow"),
        ["_k"],
        {
            "n_chunks": ("n_chunks", "sum"),
            "total_chars": ("total_chars", "sum"),
            "n_unique_chunks": ("n_unique_chunks", "sum"),
            "unique_chars": ("unique_chars", "sum"),
        },
    )
    return one.map_batches(
        lambda b: b.drop_columns(["_k"]), batch_format="pyarrow"
    )


def stratified_sample_documents(sf_dir: str):
    """Deterministic stratified sample: first 5 docs per language."""
    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "lang"])
    return R.stratified_first_n(ds, "lang", "doc_id", 5)


def distinct_lang_source(sf_dir: str):
    """Distinct pairs (set op) via pre-aggregated groupby."""
    ds = _rp(_t(sf_dir, "documents"), columns=["lang", "source"])
    pairs = R.preagg_groupby(ds, ["lang", "source"], {"n": (None, "count")})
    return pairs.map_batches(lambda b: b.select(["lang", "source"]), batch_format="pyarrow")


def approx_distinct_users_per_type(sf_dir: str):
    """GROUPED HLL approximate count-distinct (approx_count_distinct ...
    GROUP BY): sketches shuffle, values don't; per-partition merge is one
    np.maximum.reduceat over stacked register matrices.  Pytest oracle:
    <2.5% error per group vs exact (SQL hash parity impossible by
    construction)."""
    from ..stages.sketches import approx_distinct_per_group

    ds = _rp(_t(sf_dir, "events"), columns=["event_type", "user_id"])
    out = approx_distinct_per_group(
        ds, ["event_type"], "user_id", out_col="approx_users", num_parts=8
    )
    return out.sort("event_type")


def approx_distinct_users(sf_dir: str):
    """HLL approximate count-distinct (mergeable-sketch pattern); exact
    parity is impossible by construction, so the pytest oracle asserts
    <2.5% error instead of the SQL hash gate."""
    from ..stages.sketches import approx_distinct

    ds = _rp(_t(sf_dir, "events"), columns=["user_id"])
    est = approx_distinct(ds, "user_id")
    return pa.table({"approx_users": pa.array([int(round(est))], pa.int64())})


def minhash_dedup_clusters_documents(sf_dir: str):
    """Near-dup clusters (doc_id -> cluster id) over documents."""
    from ..stages.dedup import minhash_dedup_clusters

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return minhash_dedup_clusters(ds, threshold=0.4)


def minhash_clusters_dataset_path(sf_dir: str):
    """Same clusters as :func:`minhash_dedup_clusters_documents` but with
    the candidate PAIR LIST kept as a Dataset from LSH through the BSP
    connected components (``dataset_pairs=True``) — driver-visible
    intermediates are O(1) rows + degenerate-bucket sentinels, the path
    for corpora so duplicate-dense that even the deduped pair list would
    blow the driver.  Oracle: identical SQL to the classic path (the
    result must not depend on the route)."""
    from ..stages.dedup import minhash_dedup_clusters

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return minhash_dedup_clusters(ds, threshold=0.4, dataset_pairs=True)


def neardup_clusters_distributed(sf_dir: str):
    """Near-dup clusters via DISTRIBUTED min-label propagation (the
    scale path for when the verified-pair set no longer fits a driver
    union-find): exact n-gram Jaccard pairs -> BSP connected components
    -> (doc_id, cluster_id)."""
    from ..stages.dedup import ngram_jaccard_dedup
    from ..stages.graph import connected_components_distributed

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    pairs = ngram_jaccard_dedup(ds, threshold=0.5)
    comp = connected_components_distributed(pairs).to_pandas()
    comp = comp.sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(comp, preserve_index=False)


def semdedup_keep_documents(sf_dir: str):
    """Canonical-document selection over near-dup clusters — the "which
    copy do we keep for training" step after dedup: exact n-gram Jaccard
    pairs -> distributed connected components -> per-cluster winner
    (longest text, tie-break smallest doc_id).  The keep/drop decision is
    computed inside ONE keyed exchange on cluster_id (sort + first-row
    mark per cluster, vectorized); no winner set is ever broadcast or
    collected on the driver."""
    from ..stages.dedup import ngram_jaccard_dedup
    from ..stages.graph import connected_components_distributed

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    pairs = ngram_jaccard_dedup(ds, threshold=0.5)
    comp = connected_components_distributed(pairs)

    def with_len(b: pa.Table) -> pa.Table:
        txt = pc.coalesce(b.column("text"), pa.scalar("", pa.string()))
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_chars": pc.utf8_length(txt).cast(pa.int64()),
            }
        )

    lens = ds.map_batches(with_len, batch_format="pyarrow")
    scored = R.hash_join(comp, lens, on="doc_id", right_on="doc_id")

    def decide(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["cluster_id", "n_chars", "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        g = g.assign(keep=~g["cluster_id"].duplicated())
        return g[["doc_id", "cluster_id", "n_chars", "keep"]]

    return R.keyed_reduce(scored, ["cluster_id"], decide)


def neardup_clusters_bigstar(sf_dir: str):
    """Same clusters as :func:`neardup_clusters_distributed` but through
    the alternating large-star/small-star rounds (O(log n) rounds on any
    topology — the chain-graph escape hatch; Kiveris et al. SoCC'14)."""
    from ..stages.dedup import ngram_jaccard_dedup
    from ..stages.graph import connected_components_bigstar

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    pairs = ngram_jaccard_dedup(ds, threshold=0.5)
    comp = connected_components_bigstar(pairs).to_pandas()
    comp = comp.sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(comp, preserve_index=False)


def cdc_changefeed_sequential(sf_dir: str):
    """Per-shard sequential decode: exact commit stamping + position
    integrity (E13); per-commit row counts."""
    from .sequential import decode_shards_sequential

    _, manifest = cdc_manifest(sf_dir)
    cf = decode_shards_sequential(manifest)
    return R.preagg_groupby(
        cf.map_batches(lambda b: b.select(["op", "commit_seq"]), batch_format="pyarrow"),
        ["op"],
        {
            "n_rows": (None, "count"),
            "min_commit": ("commit_seq", "min"),
            "max_commit": ("commit_seq", "max"),
        },
    )


def cdc_issues_final_state(sf_dir: str):
    """Multi-table stream: second pipeline off the same binlog shards
    targeting the typed `code.issues` table (unsigned int PK, ENUM,
    DATETIME2, NEWDECIMAL columns), LWW keyed on issue_id."""
    from .cdc import CdcConfig, run_to_dataset

    _, manifest = cdc_multi_manifest(sf_dir)
    cfg = CdcConfig(
        num_partitions=8, key_cols=("issue_id",), target_table=("code", "issues")
    )
    return run_to_dataset(manifest, cfg)


def embedding_neardup_embeddings(sf_dir: str):
    """Embedding-cosine near-duplicate pairs via IVF clustering."""
    from ..stages.similarity import embedding_neardup_pairs

    # testdata embeddings are unclustered gaussians (max cosine ~0.5), so
    # the "near-dup" threshold here is calibrated to that distribution;
    # real corpora would use ~0.9+
    ds = _rp(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    # nlist=None auto-scales cluster count with corpus size (min 8 — at
    # testdata scale this resolves to 8, matching the prior fixed value)
    out = embedding_neardup_pairs(ds, threshold=0.42, nlist=None)
    return pa.Table.from_pandas(out, preserve_index=False)


def sessionize_events(sf_dir: str):
    """Gap-based sessionization of the event stream (30-min gap): one
    row per (user, session) — the streaming-window operator class next
    to window_events_hourly, distributed via one keyed exchange."""
    ds = _rp(_t(sf_dir, "events"), columns=["user_id", "ts"])
    out = R.sessionize(ds, "user_id", "ts", gap_sec=1800)
    return out.map_batches(
        lambda b: b.select(["user_id", "session_id", "n_events", "t_start_us", "t_end_us"]),
        batch_format="pyarrow",
    )


def interval_click_in_purchase_window(sf_dir: str):
    """RANGE join: clicks falling inside each user's [first, last]
    purchase-timestamp window (intervals computed distributed, then
    broadcast to the fact scan — no shuffle)."""
    ev_cols = ["event_id", "user_id", "ts", "event_type"]
    purchases = _rp(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
    )
    purchases = R.filter_project(
        purchases,
        lambda b: pc.equal(b.column("event_type"), pa.scalar("purchase")),
        ["user_id", "ts"],
    )
    windows = R.preagg_groupby(
        purchases, ["user_id"], {"lo": ("ts", "min"), "hi": ("ts", "max")}
    ).to_pandas()  # one row per user: the broadcast side
    clicks = _rp(_t(sf_dir, "events"), columns=ev_cols)
    clicks = R.filter_project(
        clicks,
        lambda b: pc.equal(b.column("event_type"), pa.scalar("click")),
        ["event_id", "user_id", "ts"],
    )
    joined = R.interval_join(clicks, windows, by="user_id", ts_col="ts", lo_col="lo", hi_col="hi")
    return joined.map_batches(
        lambda b: pa.table(
            {
                "click_id": b.column("event_id").cast(pa.int64()),
                "user_id": b.column("user_id").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def heavy_hitter_users(sf_dir: str):
    """EXACT frequent-items: users with > 70 events, via the two-pass
    Space-Saving sketch -> candidate superset -> exact count of
    candidates only (the shuffle never carries the full key space)."""
    from ..stages.sketches import exact_heavy_hitters

    ds = _rp(_t(sf_dir, "events"), columns=["user_id"])
    out = exact_heavy_hitters(ds, "user_id", threshold=70)
    return pa.table(
        {
            "user_id": pa.array(out["user_id"].astype("int64")),
            "n": pa.array(out["n"].astype("int64")),
        }
    )


def hopping_window_events(sf_dir: str):
    """Hopping (sliding) window count: 1-hour windows every 15 min —
    each event lands in 4 overlapping windows (vectorized explode +
    pre-aggregated groupby; the shuffle carries per-window partials)."""
    ds = _rp(_t(sf_dir, "events"), columns=["ts"])
    out = R.hopping_window(ds, "ts", [], width_sec=3600, hop_sec=900,
                           spec={"n": (None, "count")})
    return out.map_batches(
        lambda b: b.select(["window_start", "n"]), batch_format="pyarrow"
    )


def percentiles_lineitem(sf_dir: str):
    """Exact per-group discrete percentiles (p50/p95 of extendedprice
    per returnflag) — one keyed exchange, vectorized offset pick."""
    ds = _rp(
        _t(sf_dir, "lineitem"), columns=["l_returnflag", "l_extendedprice"]
    )
    out = R.group_percentiles(ds, ["l_returnflag"], "l_extendedprice", [0.5, 0.95])
    return out.map_batches(
        lambda b: b.select(["l_returnflag", "p50", "p95"]), batch_format="pyarrow"
    )


def top3_orders_per_customer(sf_dir: str):
    """Per-group top-N (ROW_NUMBER window pattern): each customer's 3
    most expensive orders, deterministic (price desc, orderkey asc)."""
    ds = _rp(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderkey", "o_totalprice"]
    )
    out = R.grouped_top_n(
        ds, ["o_custkey"], [("o_totalprice", True), ("o_orderkey", False)], 3
    )
    return out.map_batches(
        lambda b: b.select(["o_custkey", "o_orderkey", "o_totalprice"]),
        batch_format="pyarrow",
    )


def customers_without_orders(sf_dir: str):
    """Anti join (NOT EXISTS): customers who never placed a big
    (>300k) order — right side filtered then reduced to distinct keys,
    broadcast once, vectorized isin-negation probe."""
    cust = _rp(_t(sf_dir, "customer"), columns=["c_custkey", "c_name"])
    orders = _rp(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"]
    )
    big = R.filter_project(
        orders,
        lambda b: pc.greater(b.column("o_totalprice"), pa.scalar(300000.0)),
        ["o_custkey"],
    )
    return R.broadcast_anti_join(cust, big, "c_custkey", "o_custkey")


def pivot_user_event_counts(sf_dir: str):
    """Pivot: per-user count of each event type as fixed columns
    (count FILTER pattern) — per-batch crosstab, per-category Sum."""
    ds = _rp(_t(sf_dir, "events"), columns=["user_id", "event_type"])
    cats = ["click", "error", "purchase", "signup", "view"]
    return R.pivot_counts(ds, "user_id", "event_type", cats)


def term_frequency_documents(sf_dir: str):
    """Corpus-wide term-frequency top-50 (ascii [a-z0-9]+ tokens):
    one findall+unique pass per batch, vocabulary reduce through one
    keyed exchange, bounded top-k."""
    from ..stages.text import term_frequency_topk

    ds = _rp(_t(sf_dir, "documents"), columns=["text"])
    return term_frequency_topk(ds, "text", k=50)


def windowed_changefeed_activity(cf, width_sec: int = 60):
    """Tumbling-window aggregate over a decoded changefeed dataset: per
    (table, op, ``width_sec`` window of binlog header ts), row count +
    event_seq range.  Windowing is vectorized per batch; the shuffle
    carries per-window partials.  Shared by :func:`cdc_windowed_activity`
    and its sequential-replay pytest oracle — the test must exercise THIS
    body, not a copy of it."""

    def win(b: pa.Table) -> pa.Table:
        ws = (b.column("ts").to_numpy() // width_sec) * width_sec
        return pa.table(
            {
                "table_name": b.column("table_name"),
                "op": b.column("op"),
                "window_start": pa.array(ws),
                "event_seq": b.column("event_seq"),
            }
        )

    return R.preagg_groupby(
        cf.map_batches(win, batch_format="pyarrow"),
        ["table_name", "op", "window_start"],
        {
            "n_rows": (None, "count"),
            "min_seq": ("event_seq", "min"),
            "max_seq": ("event_seq", "max"),
        },
    )


def json_field_stats_events(sf_dir: str):
    """Vectorized JSON scalar extraction over the events ``props`` column
    (regex fast path + json.loads fallback), then per-event-type stats of
    the extracted field — metadata extraction, a standard training-data
    prep step over crawled/props columns."""
    from ..stages.jsonx import add_json_number_field

    ds = _rp(_t(sf_dir, "events"), columns=["event_type", "props"])
    ds = add_json_number_field(ds, "props", "k")
    return R.preagg_groupby(
        ds,
        ["event_type"],
        {"n": (None, "count"), "min_k": ("k", "min"), "max_k": ("k", "max"), "sum_k": ("k", "sum")},
    )


def repetition_documents(sf_dir: str):
    """Gopher-style per-document repetition counts (word / distinct-word /
    top-word / top-2-gram) — integer outputs for exact oracle parity."""
    from ..stages.text import repetition_stats

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return repetition_stats(ds, "text", "doc_id")


def contamination_documents(sf_dir: str):
    """Benchmark-contamination screen: training docs (doc_id >= 25)
    sharing any word 3-gram with the benchmark slice (doc_id < 25),
    with the count of distinct overlapping grams.  Benchmark grams are
    broadcast once; the corpus probe is shuffle-free."""
    import pyarrow.dataset as pds

    from ..stages.dedup import contamination_check

    # pushed-down row filter: benchmark row groups are pruned at the read
    bench = _rp(
        _t(sf_dir, "documents"),
        columns=["doc_id", "text"],
        filter=pds.field("doc_id") < 25,
    )
    corpus = _rp(
        _t(sf_dir, "documents"),
        columns=["doc_id", "text"],
        filter=pds.field("doc_id") >= 25,
    )
    return contamination_check(corpus, bench, "text", "doc_id", ngram=3)


def redact_customer_names(sf_dir: str):
    """PII/identifier scrub (Redactor stage, 'id' preset): anonymize the
    numeric id embedded in customer names, counting redacted spans."""
    from ..stages.text import Redactor

    ds = _rp(_t(sf_dir, "customer"), columns=["c_custkey", "c_name"])
    return ds.map_batches(
        Redactor,  # class, not instance: patterns compile once per actor
        fn_constructor_args=("c_name", ["id"]),
        fn_constructor_kwargs={"out_col": "c_name_redacted"},
        batch_format="pandas",
        concurrency=4,
    ).select_columns(["c_custkey", "c_name_redacted", "n_redacted"])


def cdc_windowed_activity(sf_dir: str):
    """Tumbling-window aggregate OVER THE DECODED CHANGEFEED (the
    streaming-window analog of the reference's 1 s StatisticsCollector
    timer, `src/Statistic/StatisticCollector.php` semantics widened to
    event-time): per (table, op, 60 s window of binlog header ts), row
    count + event_seq range.  Oracle: sequential-replay pytest parity
    (binlog wire format is not SQL-expressible)."""
    from .cdc import CdcConfig, decode_changefeed, read_event_stream

    _, manifest = cdc_manifest(sf_dir)
    cf = decode_changefeed(read_event_stream(manifest), manifest["table_maps"], CdcConfig())
    return windowed_changefeed_activity(cf)


SPLIT_FRACTIONS = {"train": 0.8, "val": 0.1, "test": 0.1}
SPLIT_SEED = 7


def split_documents(sf_dir: str):
    """Deterministic leakage-safe train/val/test split by keyed hash
    (splitmix64(doc_id + seed) % 10000 against cumulative-fraction cut
    points) — stable under corpus growth and re-sharding.  Row-level
    output so the oracle checks every single assignment."""
    from ..stages.split import hash_split

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id"])
    return hash_split(ds, "doc_id", SPLIT_FRACTIONS, seed=SPLIT_SEED)


MIXTURE_RATES = {"en": 0.9, "zh": 0.5}
MIXTURE_DEFAULT_RATE = 0.25


def mixture_sample_documents(sf_dir: str):
    """Domain-mixing sample: keep 90% of English, 50% of Chinese, 25% of
    every other language — deterministic per-group Bernoulli on
    splitmix64(doc_id), map-only.  Row-level output so the oracle checks
    every keep decision."""
    from ..stages.split import mixture_sample

    ds = _rp(
        _t(sf_dir, "documents"), columns=["doc_id", "lang", "source"]
    )
    return mixture_sample(
        ds, "doc_id", "lang", MIXTURE_RATES, default_rate=MIXTURE_DEFAULT_RATE
    )


CHUNK_CHARS = 512
CHUNK_OVERLAP = 64


def chunk_documents_query(sf_dir: str):
    """Context-window chunking: explode each document into 512-char
    windows with 64-char overlap (stride 448), stopping once a window
    reaches the end of the document."""
    from ..stages.split import chunk_documents

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return chunk_documents(
        ds, "text", "doc_id", chunk_chars=CHUNK_CHARS, overlap=CHUNK_OVERLAP
    )


def incremental_dedup_documents(sf_dir: str):
    """Incremental dedup of a 'new crawl' (odd doc_ids) against a
    reference corpus (even doc_ids) on the 8-token prefix key: Bloom
    prescreen (definite-new rows never shuffle) + exact confirm of the
    candidates only.  Returns the surviving new doc_ids."""
    from ..stages.dedup import prefix_key_series
    from ..stages.sketches import incremental_dedup

    full = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def with_key(b):
        b = b.copy()
        b["key"] = prefix_key_series(b["text"].fillna(""), 8)
        b["_odd"] = (b["doc_id"] % 2).astype("int8")
        return b[["doc_id", "key", "_odd"]]

    # materialize: the keyed scan feeds THREE consumers inside
    # incremental_dedup (bloom build, probe, corpus re-stream) — without
    # this the parquet read + tokenize re-executes for each
    keyed = full.map_batches(with_key, batch_format="pandas").materialize()
    new = keyed.filter(expr="_odd == 1").drop_columns(["_odd"])
    corpus = keyed.filter(expr="_odd == 0").drop_columns(["_odd"])
    out = incremental_dedup(new, corpus, text_col="key")
    return out.select_columns(["doc_id"])


SEQ_LEN = 1024


def shuffle_order_documents(sf_dir: str):
    """Deterministic global training shuffle: every document's 0-based
    position under splitmix64(doc_id + seed) order — the same
    permutation at any worker count / shard layout.  Distributed rank
    via the two-pass bucketed prefix-sum (nothing O(corpus) on the
    driver); oracle = row_number() OVER (ORDER BY hash)."""
    from ..stages.ordered import SHUFFLE_SEED, hash_order_rank

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id"])
    return hash_order_rank(ds, "doc_id", seed=SHUFFLE_SEED)


def pack_sequences_documents(sf_dir: str):
    """Concat-and-slice sequence packing: global token offset of each
    document (exclusive prefix sum of token counts in doc_id order) and
    the first/last SEQ_LEN-token training sequence it lands in."""
    from ..stages.ordered import pack_sequences

    # one source of truth for token counting: the doc_token_stats
    # pipeline (its oracle defines the n_tokens contract)
    counted = doc_token_stats(sf_dir)
    return pack_sequences(counted, "doc_id", "n_tokens", seq_len=SEQ_LEN)


def corpus_pipeline_documents(sf_dir: str):
    """Flagship corpus-preparation COMPOSITION — the end-to-end pipeline
    a pre-training data engineer runs: Gopher quality gate (Rae et al.
    2021) -> exact dedup (keep min doc_id per distinct text) ->
    deterministic global shuffle -> concat-and-slice sequence packing.
    Every stage is an independently-oracled operator; this query proves
    they compose into one streaming plan and oracles the composition
    end-to-end (one SQL statement reproduces all four stages).

    The gate uses the Gopher word-count + mean-word-length rules only:
    the full rule set's stopword criterion is tautologically false on
    this synthetic corpus (<=1 distinct stopword per doc), so the
    composed pipeline would be a 0-row no-op — the full gate is
    exercised by `gopher_quality_documents`."""
    from ..stages.dedup import exact_dedup
    from ..stages.ordered import hash_order_rank, pack_sequences
    from ..stages.text import GopherQualityFilter, TokenCounter

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    scored = ds.map_batches(GopherQualityFilter(), batch_format="pandas")

    def gate(b: pa.Table) -> pa.Table:
        nw = b.column("g_n_words")
        mwl = b.column("g_mean_word_len")
        keep = pc.and_(
            pc.and_(pc.greater_equal(nw, 50), pc.less_equal(nw, 100_000)),
            pc.and_(pc.greater_equal(mwl, 3.0), pc.less_equal(mwl, 10.0)),
        )
        return b.filter(keep).select(["doc_id", "text"])

    kept = scored.map_batches(gate, batch_format="pyarrow")
    unique = exact_dedup(kept, "text", "doc_id")
    counted = unique.map_batches(TokenCounter(), batch_format="pandas", batch_size=1024)
    slim = counted.map_batches(
        lambda b: b.select(["doc_id", "n_tokens"]), batch_format="pyarrow"
    )
    ranked = hash_order_rank(slim, "doc_id")
    packed = pack_sequences(ranked, id_col="position", tokens_col="n_tokens",
                            seq_len=SEQ_LEN)
    return packed.map_batches(
        lambda b: b.select(
            ["doc_id", "position", "n_tokens", "tok_start", "seq_first", "seq_last"]
        ),
        batch_format="pyarrow",
    )


SHARD_SEQS = 16


def training_shards_documents(sf_dir: str):
    """End-to-end training-shard export: deterministic shuffle -> token
    prefix sum -> fixed-budget shards atomically written under /tmp;
    returns the per-shard summary (shard_id, n_docs, n_tokens)."""
    import hashlib as _hl
    import tempfile

    from .shards import write_training_shards

    counted = doc_token_stats(sf_dir)
    # deterministic scratch path per sf_dir (reruns overwrite in place
    # via resume=False instead of leaking a new /tmp dir per invocation)
    tag = _hl.md5(sf_dir.encode()).hexdigest()[:10]
    out_dir = f"{tempfile.gettempdir()}/mysql_binlog_ray/shards_{tag}"
    summary = write_training_shards(
        counted, out_dir, seq_len=SEQ_LEN, seqs_per_shard=SHARD_SEQS, resume=False
    )
    return summary.select(["shard_id", "n_docs", "n_tokens"])


def histogram_events(sf_dir: str):
    """Fixed-bin histogram of events.value (bin = floor(value/25)):
    per-batch Arrow combiner, shuffle carries one row per bin per batch —
    the profile primitive for numeric-column QA.  floor of an IEEE
    division is bit-identical to the SQL twin."""
    ev = _rp(_t(sf_dir, "events"), columns=["value"])

    def bin_col(b: pa.Table) -> pa.Table:
        v = b.column("value")
        keep = pc.is_valid(v)
        v = pc.filter(v, keep)
        bins = pc.cast(pc.floor(pc.divide(v, 25.0)), pa.int64())
        return pa.table({"bin": bins})

    out = R.preagg_groupby(
        ev.map_batches(bin_col, batch_format="pyarrow"), ["bin"], {"n": (None, "count")}
    )
    return R.normalize_empty_blocks(out, {"bin": "int64", "n": "int64"})


def unpivot_lineitem(sf_dir: str):
    """UNPIVOT/melt: wide numeric measures -> (key, measure, value) long
    form (the feature-table reshape); map-only vectorized explode, no
    shuffle.  Deterministic 1%-of-orderkeys subset keeps the compare
    tractable."""
    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    li = _rp(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_linenumber", *cols]
    )

    def melt(b: pa.Table) -> pa.Table:
        ok_np = b.column("l_orderkey").to_numpy()
        b = b.filter(pa.array(ok_np % 100 == 0))
        n = b.num_rows
        ok = pa.concat_arrays([b.column("l_orderkey").combine_chunks()] * len(cols))
        ln = pa.concat_arrays([b.column("l_linenumber").combine_chunks()] * len(cols))
        # explicit type: an empty batch would otherwise infer pa.null()
        # and poison the dataset with a second schema
        measure = pa.array(np.repeat(np.asarray(cols, dtype=object), n), type=pa.string())
        value = pa.concat_arrays(
            [b.column(c).cast(pa.float64()).combine_chunks() for c in cols]
        )
        return pa.table(
            {"l_orderkey": ok, "l_linenumber": ln, "measure": measure, "value": value}
        )

    return li.map_batches(melt, batch_format="pyarrow")


def running_totals_events(sf_dir: str):
    """Per-user SQL window functions over the event stream: row_number,
    gap to the previous event (lag diff, microseconds), and the running
    value total in integer cents (float running sums are
    association-order-dependent; pre-scaling to cents keeps the running
    total exact and SQL-oracle-able).  One keyed exchange, vectorized
    per-partition kernel (stages/window.py)."""
    from ..stages.window import window_over

    ds = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        # arrow kernels, not to_numpy(): NULL ts must stay NULL (NaT ->
        # INT64_MIN would sort first instead of SQL's NULLS LAST) and a
        # NULL value must stay NULL (NaN -> int64 cast raises)
        ts_us = b.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
        cents = pc.floor(pc.multiply(b.column("value"), pa.scalar(100.0))).cast(
            pa.int64()
        )
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "ts_us": ts_us,
                "cents": cents,
            }
        )

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    out = window_over(
        prepped,
        "user_id",
        ["ts_us", "event_id"],
        {
            "rn": ("row_number", None),
            "gap_us": ("lag_diff", "ts_us"),
            "run_cents": ("run_sum", "cents"),
        },
    )

    def finish(b: pa.Table) -> pa.Table:
        # first-row gaps become -1 (COALESCE in the oracle): nullable int
        # columns round-trip as float64 through pandas and break the
        # value-hash — the asof query established this sentinel pattern
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "rn": b.column("rn").cast(pa.int64()),
                "gap_us": b.column("gap_us").fill_null(-1).cast(pa.int64()),
                "run_cents": b.column("run_cents").cast(pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def moving_sum_events(sf_dir: str):
    """Bounded sliding-frame window aggregate: per-user 7-row moving sum
    of value (integer cents) ordered by event_id — ``ROWS BETWEEN 6
    PRECEDING AND CURRENT ROW``.  Two prefix-sum gathers per partition
    (stages/window.py moving_sum); integer cents keep the frame sums
    exact against the SQL oracle."""
    from ..stages.window import window_over

    ds = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(b.column("value"), pa.scalar(100.0))).cast(
            pa.int64()
        )
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "cents": cents,
            }
        )

    out = window_over(
        ds.map_batches(prep, batch_format="pyarrow"),
        "user_id",
        ["event_id"],
        {
            "mov7_cents": ("moving_sum", "cents", 7),
            "first_cents": ("first_value", "cents"),
            "last_cents": ("last_value", "cents"),
        },
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "mov7_cents": b.column("mov7_cents").cast(pa.int64()),
                "first_cents": b.column("first_cents").cast(pa.int64()),
                "last_cents": b.column("last_cents").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def lag_lead_events(sf_dir: str):
    """Raw LAG/LEAD window values (offsets 1 and 3) per user ordered by
    event_id — the value-shift class ``lag_diff``/``run_sum`` don't
    cover.  One keyed exchange; the shift is two numpy gathers per
    partition (stages/window.py lag/lead).  NULL-outside-partition is
    surfaced as -1 (COALESCE convention of the other window oracles;
    cents are non-negative)."""
    from ..stages.window import window_over

    ds = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(b.column("value"), pa.scalar(100.0))).cast(
            pa.int64()
        )
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "cents": cents,
            }
        )

    out = window_over(
        ds.map_batches(prep, batch_format="pyarrow"),
        "user_id",
        ["event_id"],
        {
            "lag_cents": ("lag", "cents", 1),
            "lead_cents": ("lead", "cents", 1),
            "lag3_cents": ("lag", "cents", 3),
        },
    )

    def finish(b: pa.Table) -> pa.Table:
        cols = {"event_id": b.column("event_id"), "user_id": b.column("user_id")}
        for c in ("lag_cents", "lead_cents", "lag3_cents"):
            cols[c] = pc.fill_null(b.column(c).cast(pa.int64()), pa.scalar(-1))
        return pa.table(cols)

    return out.map_batches(finish, batch_format="pyarrow")


def dense_rank_cume_events(sf_dir: str):
    """DENSE_RANK + CUME_DIST of integer cents per user — the gap-free
    rank and cumulative-distribution window class; cume_dist is one IEEE
    division of two exact integers, so the float column is bit-exact
    against the SQL oracle."""
    from ..stages.window import window_over

    ds = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(b.column("value"), pa.scalar(100.0))).cast(
            pa.int64()
        )
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "cents": cents,
            }
        )

    out = window_over(
        ds.map_batches(prep, batch_format="pyarrow"),
        "user_id",
        ["event_id"],
        {"dr": ("dense_rank", "cents"), "cd": ("cume_dist", "cents")},
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "dr": b.column("dr").cast(pa.int64()),
                "cd": b.column("cd"),
            }
        ),
        batch_format="pyarrow",
    )


def mode_event_type_per_user(sf_dir: str):
    """Per-user modal event type with deterministic lexicographic
    tie-break — the argmax-of-counts aggregate class.  Per-batch partial
    counts collapse duplicates before the single exchange
    (stages/relational.py mode_per_group)."""
    ds = _rp(
        _t(sf_dir, "events"), columns=["user_id", "event_type"]
    )
    out = R.mode_per_group(ds, ["user_id"], "event_type", count_col="n_mode")
    return out.map_batches(
        lambda b: pa.table(
            {
                "user_id": b.column("user_id"),
                "mode_event_type": b.column("event_type"),
                "n_mode": b.column("n_mode").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def user_journey_events(sf_dir: str):
    """Ordered list/collect aggregate (SQL string_agg ... ORDER BY): each
    user's full event-type journey in event_id order plus their event
    count — one keyed exchange, C-level per-group join."""
    ds = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "event_type"]
    )
    return R.grouped_string_agg(
        ds,
        ["user_id"],
        "event_type",
        ["event_id"],
        sep=",",
        out_col="journey",
        count_col="n_events",
    )


APPROXQ_RATE = 0.2
APPROXQ_SEED = 13


def approx_percentiles_events_value(sf_dir: str):
    """APPROXIMATE global p50/p95/p99 of events.value via deterministic
    hash-threshold sampling (20% of rows by splitmix64(event_id)) + exact
    selection over the sample — the mergeable, rerun-stable alternative
    to a randomized quantile sketch, and the only kind of approximate
    quantile that admits a bit-exact SQL oracle."""
    ds = _rp(_t(sf_dir, "events"), columns=["event_id", "value"])

    def prep(b: pa.Table) -> pa.Table:
        cents = pc.round(pc.multiply(b.column("value"), pa.scalar(100.0))).cast(
            pa.int64()
        )
        return pa.table({"event_id": b.column("event_id"), "cents": cents})

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    # value domain ~1..49002 cents -> coarse_shift=8 keeps ~200 buckets
    return R.approx_percentiles_by_sample(
        prepped,
        "event_id",
        "cents",
        [0.5, 0.95, 0.99],
        rate=APPROXQ_RATE,
        coarse_shift=8,
        seed=APPROXQ_SEED,
    )


def rollup_lineitem(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus): row count, quantity
    sum, and integer-cent revenue at every rollup level, lvl = the SQL
    GROUPING() bitmask.  Revenue is floor(extprice*(1-disc)*100) as
    int64 BEFORE summing — identical IEEE ops in Ray and DuckDB, so the
    sums are exact at every level."""
    from ..stages.window import rollup_aggregate

    ds = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)
        rev = np.floor(price * (1.0 - disc) * 100.0)
        qty = b.column("l_quantity").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                "qty": pa.array(qty).cast(pa.int64()),
                "rev_cents": pa.array(rev).cast(pa.int64()),
            }
        )

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    return rollup_aggregate(
        prepped,
        ["l_returnflag", "l_linestatus"],
        {
            "n": (None, "count"),
            "sum_qty": ("qty", "sum"),
            "rev_cents": ("rev_cents", "sum"),
        },
    )


def tfidf_documents(sf_dir: str):
    """Per-document top-3 terms by tf-idf (score = tf * n_docs / df —
    the raw idf quotient; one float divide, bit-identical to the SQL
    oracle).  Pairs built with the shared blob tokenizer, df attached in
    place by ONE adaptive keyed exchange on term (no join stage), per-doc
    top-3 via grouped_top_n."""
    from ..stages.text import tfidf_top_terms

    src = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    n_docs = src.count()  # parquet metadata count: no data scan
    return tfidf_top_terms(src, n_docs, k=3)


def ntile_documents(sf_dir: str):
    """NTILE(8) OVER (ORDER BY n_chars, doc_id) — the equal-depth range
    partitioner a sorted lake write uses for exact (sampling-free) range
    boundaries: global rank via the distributed prefix sum, tile by
    arithmetic on the rank."""
    from ..stages.ordered import ntile_assign

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "n_chars"])
    return ntile_assign(ds, ["n_chars", "doc_id"], 8)


def cube_lineitem(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus): the full grouping-sets
    lattice over the same integer-exact measures as rollup_lineitem
    (one shared prep; ROLLUP/CUBE/GROUPING SETS all reduce the input
    once and explode only the tiny aggregated frame)."""
    from ..stages.window import cube_aggregate

    ds = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)
        rev = np.floor(price * (1.0 - disc) * 100.0)
        qty = b.column("l_quantity").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                "qty": pa.array(qty).cast(pa.int64()),
                "rev_cents": pa.array(rev).cast(pa.int64()),
            }
        )

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    return cube_aggregate(
        prepped,
        ["l_returnflag", "l_linestatus"],
        {
            "n": (None, "count"),
            "sum_qty": ("qty", "sum"),
            "rev_cents": ("rev_cents", "sum"),
        },
    )


def grouping_sets_lineitem(sf_dir: str):
    """Explicit GROUP BY GROUPING SETS — a non-lattice set list
    ((rf, ls), (rf), (ls), ()) that neither ROLLUP nor CUBE expresses
    as-is, with the SQL GROUPING() bitmask disambiguating aggregated-away
    keys.  Same one-finest-reduce-then-explode shape as cube_lineitem."""
    from ..stages.window import grouping_sets_aggregate

    ds = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                "qty": b.column("l_quantity").cast(pa.int64()),
            }
        )

    return grouping_sets_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {"n": (None, "count"), "sum_qty": ("qty", "sum")},
        [frozenset({0, 1}), frozenset({0}), frozenset({1}), frozenset()],
    )


SNAPSHOT_WATERMARKS = [250, 500, 1_000_000_000]


def scd2_events(sf_dir: str):
    """SCD2 validity intervals over the per-user event stream: each
    version row gains valid_to (the next version's event_id; -1 for the
    current version) and is_current — the temporal-versioning view a CDC
    changefeed feeds a warehouse with.  One keyed exchange, vectorized
    shifted compare (stages/window.py::scd2_history)."""
    from ..stages.window import scd2_history

    ds = _rp(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "event_type", "value"],
    )
    out = scd2_history(ds, "user_id", "event_id")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b.column("user_id").cast(pa.int64()),
                "valid_from": b.column("event_id").cast(pa.int64()),
                "valid_to": b.column("valid_to").cast(pa.int64()),
                "is_current": b.column("is_current").cast(pa.int64()),
                "event_type": b.column("event_type"),
                "value": b.column("value"),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def snapshot_export_events(sf_dir: str):
    """Multi-version time-travel export: per-user state as of THREE
    watermarks in one pass (one keyed exchange for all versions, one
    masked reduceat per watermark) — what a consumer rebuilding
    historical snapshots from the changefeed runs instead of |W| full
    LWW merges."""
    from ..stages.window import asof_snapshots

    ds = _rp(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "event_type", "value"],
    )
    out = asof_snapshots(ds, "user_id", "event_id", SNAPSHOT_WATERMARKS)

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "watermark": b.column("watermark").cast(pa.int64()),
                "user_id": b.column("user_id").cast(pa.int64()),
                "event_id": b.column("event_id").cast(pa.int64()),
                "event_type": b.column("event_type"),
                "value": b.column("value"),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def gopher_quality_documents(sf_dir: str):
    """Gopher document-quality rules (Rae et al. 2021 §A1.1) — the
    standard pre-training gate; every ratio is one int/int division so
    the oracle comparison is bit-exact with no rounding."""
    from ..stages.text import GopherQualityFilter

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(GopherQualityFilter(), batch_format="pandas")
    return out.select_columns(
        [
            "doc_id",
            "g_n_words",
            "g_mean_word_len",
            "g_symbol_ratio",
            "g_bullet_ratio",
            "g_ellipsis_ratio",
            "g_alpha_ratio",
            "g_n_stopwords",
            "g_keep",
        ]
    )


def normalize_documents(sf_dir: str):
    """Canonical text normalization (ASCII case-fold + NFC + whitespace/
    control collapse) — map-only actor-free stage, exact SQL twin."""
    from ..stages.text import TextNormalizer

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(TextNormalizer(), batch_format="pandas")
    return out.select_columns(["doc_id", "norm_text", "n_chars_norm"])


def distinct_ngram_ratio_documents(sf_dir: str):
    """Corpus 3-gram diversity (distinct-n metric): one keyed exchange,
    O(num_parts) rows to the driver."""
    from ..stages.dedup import distinct_ngram_stats

    ds = _rp(_t(sf_dir, "documents"), columns=["text"])
    return distinct_ngram_stats(ds, n=3)


def dedup_spans_documents(sf_dir: str):
    """Substring-level exact dedup (Lee et al. 2021 ExactSubstr, the
    rolling-fingerprint variant): remove every 5-word span occurring
    >= 2 times anywhere in the corpus; two keyed exchanges, no driver."""
    from ..stages.dedup import remove_duplicate_spans

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return remove_duplicate_spans(ds, w=5, min_count=2)


def outer_join_user_funnel(sf_dir: str):
    """FULL OUTER join of two aggregate branches (per-user click counts
    vs purchase counts): users in either branch survive with NULLs on
    the missing side — the funnel-audit shape.  Each branch pre-aggregates
    per batch before its shuffle; the join is Ray's hash-partitioned
    full_outer with adaptive fanout."""
    # ONE pass aggregates BOTH branches (per-user per-type counts — the
    # shuffle carries per-batch partials), then the tiny result splits
    # into the two join sides; the full_outer exercise is unchanged but
    # the 1M-row input is read and aggregated once, not twice
    ev = _rp(_t(sf_dir, "events"), columns=["user_id", "event_type"])

    def keep(b: pa.Table) -> pa.Table:
        m = pc.is_in(b.column("event_type"), value_set=pa.array(["click", "purchase"]))
        return b.filter(m)

    counts = R.preagg_groupby(
        ev.map_batches(keep, batch_format="pyarrow"),
        ["user_id", "event_type"],
        {"n": (None, "count")},
    ).materialize()

    def branch(ev_type: str, out_col: str):
        def side(b: pa.Table) -> pa.Table:
            sub = b.filter(pc.equal(b.column("event_type"), ev_type))
            return pa.table(
                {"user_id": sub.column("user_id"), out_col: sub.column("n")}
            )

        proto = {"user_id": "int64", out_col: "int64"}
        # the aggregate's schema-less empty blocks would crash the
        # block-level outer join — physically drop them (see helper)
        return R.drop_empty_blocks(
            R.normalize_empty_blocks(
                counts.map_batches(side, batch_format="pyarrow"), proto
            ),
            proto,
        )

    j = R.hash_join(
        branch("click", "n_clicks"),
        branch("purchase", "n_purchases"),
        on="user_id",
        right_on="user_id",
        join_type="full_outer",
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b.column("user_id").cast(pa.int64()),
                "n_clicks": b.column("n_clicks").cast(pa.float64()),
                "n_purchases": b.column("n_purchases").cast(pa.float64()),
            }
        )

    return j.map_batches(finish, batch_format="pyarrow")


WEIGHTED_SAMPLE_DENOM = 600  # chars: p = min(1, n_chars/600)


def weighted_sample_documents(sf_dir: str):
    """Deterministic length-proportional document sample (mixture
    reweighting by token mass): keep with p = min(1, n_chars/600),
    integer-exact inclusion — map-only, no shuffle."""
    from ..stages.split import weighted_bernoulli_sample

    ds = _rp(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def with_len(b: pa.Table) -> pa.Table:
        n = pc.cast(pc.utf8_length(pc.fill_null(b.column("text"), "")), pa.int64())
        return pa.table({"doc_id": b.column("doc_id"), "n_chars": n})

    sized = ds.map_batches(with_len, batch_format="pyarrow")
    return weighted_bernoulli_sample(sized, "doc_id", "n_chars", WEIGHTED_SAMPLE_DENOM)


def snapshot_diff_events(sf_dir: str):
    """Audit-diff of two as-of snapshots (the table-compare a CDC
    consumer runs over a catch-up window): per user, added/changed state
    between watermarks 250 and 500, in ONE keyed exchange — never two
    materialized snapshots joined."""
    from ..stages.window import snapshot_diff

    ds = _rp(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "event_type", "value"],
    )
    out = snapshot_diff(
        ds, "user_id", "event_id", SNAPSHOT_WATERMARKS[0], SNAPSHOT_WATERMARKS[1]
    )

    def finish(b: pa.Table) -> pa.Table:
        # nullable Int64 -> float64 for oracle parity (DuckDB returns
        # nullable BIGINT as float64 through pandas); ids < 2^53 exact
        return pa.table(
            {
                "user_id": b.column("user_id").cast(pa.int64()),
                "change": b.column("change"),
                "old_event_id": b.column("old_event_id").cast(pa.float64()),
                "new_event_id": b.column("new_event_id").cast(pa.float64()),
                "old_event_type": b.column("old_event_type"),
                "new_event_type": b.column("new_event_type"),
                "old_value": b.column("old_value").cast(pa.float64()),
                "new_value": b.column("new_value").cast(pa.float64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def distinct_users_per_type(sf_dir: str):
    """count(DISTINCT user_id) per event_type — the distinct-aggregate
    two-level reduce (duplicates collapse per batch before the only
    large shuffle), plus the total event count carried through the
    second level."""
    ds = _rp(_t(sf_dir, "events"), columns=["event_type", "user_id"])
    out = R.grouped_count_distinct(
        ds, ["event_type"], "user_id", out_col="n_users", total_col="n_events"
    )
    return out.map_batches(
        lambda b: b.select(["event_type", "n_users", "n_events"]),
        batch_format="pyarrow",
    )


def corr_lineitem(sf_dir: str):
    """Pearson correlation between quantity and discount per returnflag,
    via mergeable integer-moment partials (exact int64 sums; ONE final
    float expression mirrored verbatim by the SQL oracle, so the float
    output is bit-deterministic regardless of batch layout)."""
    ds = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_quantity", "l_discount"],
    )

    def prep(b: pa.Table) -> pa.Table:
        qty = pc.round(b.column("l_quantity")).cast(pa.int64())
        disc = pc.round(pc.multiply(b.column("l_discount"), pa.scalar(100.0))).cast(
            pa.int64()
        )
        return pa.table(
            {"l_returnflag": b.column("l_returnflag"), "qty": qty, "disc_pct": disc}
        )

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    out = R.grouped_corr(prepped, ["l_returnflag"], "qty", "disc_pct", out_col="corr_qty_disc")
    return out.map_batches(
        lambda b: b.select(["l_returnflag", "n", "avg_x", "avg_y", "corr_qty_disc"]),
        batch_format="pyarrow",
    )


def global_percentiles_lineitem(sf_dir: str):
    """EXACT global p50/p95/p99 of l_extendedprice (integer cents)
    WITHOUT a global sort: two-pass histogram selection — coarse-bucket
    counts, then an exact value histogram of ONLY the selected buckets.
    The driver holds histograms, never rows."""
    ds = _rp(_t(sf_dir, "lineitem"), columns=["l_extendedprice"])

    def prep(b: pa.Table) -> pa.Table:
        cents = pc.round(
            pc.multiply(b.column("l_extendedprice"), pa.scalar(100.0))
        ).cast(pa.int64())
        return pa.table({"cents": cents})

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    # coarse_shift=12: price domain ~9e4..1.05e7 cents -> ~2.5k buckets
    return R.exact_global_percentiles(prepped, "cents", [0.5, 0.95, 0.99], coarse_shift=12)
