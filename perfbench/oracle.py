"""Oracle gate: every committed lake must equal the sequential replay.

The gate reads the partition files the committed manifest lists, as a
lake reader does, and compares them with ``final_state_oracle`` on
(repo, path) -> (commit, lang, sha256 of content, stars); the manifest's
watermark must be the last event the commit was given, and its row
counts must match the files.  Any difference fails the op that committed
the lake.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq

Rows = dict[tuple[str, str], tuple]


def _column(tab: pa.Table, name: str) -> list:
    return tab.column(name).to_pylist() if name in tab.column_names else [None] * tab.num_rows


def rows_of(tab: pa.Table) -> Rows:
    """Key -> value tuple.  Takes a lake table (with ``content``) or an
    oracle table (with ``content_sha256``); a table without ``stars``
    (a lake written before the column was added) reads as all-null."""
    if "content" in tab.column_names:
        sha = [hashlib.sha256(c.encode()).hexdigest() for c in _column(tab, "content")]
    else:
        sha = _column(tab, "content_sha256")
    return {
        (repo, path): (commit, lang, h, stars)
        for repo, path, commit, lang, h, stars in zip(
            _column(tab, "repo"),
            _column(tab, "path"),
            _column(tab, "commit"),
            _column(tab, "lang"),
            sha,
            _column(tab, "stars"),
        )
    }


def diff_count(got: Rows, want: Rows) -> int:
    """Keys present on one side only, plus keys whose values differ."""
    return len(got.keys() ^ want.keys()) + sum(
        1 for k in got.keys() & want.keys() if got[k] != want[k]
    )


def lake_partition_file(lake_dir: str, entry: dict) -> str:
    """The file of a manifest partition entry, in the lake sink's
    ``part=NNNNN/data.parquet`` layout."""
    return os.path.join(lake_dir, f"part={entry['part']:05d}", "data.parquet")


def read_lake_rows(lake_dir: str, manifest: dict) -> tuple[Rows, int]:
    """The rows of every partition ``manifest`` lists, and how many
    rows the files hold."""
    rows: Rows = {}
    n = 0
    for entry in manifest["partitions"]:
        if entry["rows"]:
            tab = pq.read_table(lake_partition_file(lake_dir, entry))
            rows.update(rows_of(tab))
            n += tab.num_rows
    return rows, n


def gate(lake_dir: str, oracle: pa.Table, watermark: int) -> list[str]:
    """Problems found in the committed lake; empty when it is exact."""
    from mysql_binlog_ray.state.checkpoint import read_manifest

    m = read_manifest(lake_dir)
    if m is None:
        return ["no committed manifest"]
    problems = []
    if m["watermark"] != watermark:
        problems.append(f"watermark {m['watermark']} != {watermark}")
    rows, n = read_lake_rows(lake_dir, m)
    listed = sum(p["rows"] for p in m["partitions"])
    if n != listed or n != len(rows):
        problems.append(f"manifest lists {listed} rows, files hold {n}, {len(rows)} distinct keys")
    want = rows_of(oracle)
    n = diff_count(rows, want)
    if n:
        problems.append(f"{n} rows differ from the oracle ({len(rows)} in lake, {len(want)} expected)")
    return problems
