import hashlib

import pyarrow as pa

from oracle import diff_count, rows_of


def _oracle_table(rows):
    return pa.table(
        {
            "repo": [r[0] for r in rows],
            "path": [r[1] for r in rows],
            "commit": [r[2] for r in rows],
            "lang": ["py"] * len(rows),
            "content_sha256": [hashlib.sha256(r[3].encode()).hexdigest() for r in rows],
            "stars": [r[4] for r in rows],
        }
    )


def _lake_table(rows, with_stars=True):
    cols = {
        "repo": [r[0] for r in rows],
        "path": [r[1] for r in rows],
        "commit": [r[2] for r in rows],
        "lang": ["py"] * len(rows),
        "content": [r[3] for r in rows],
        "event_seq": list(range(len(rows))),
    }
    if with_stars:
        cols["stars"] = pa.array([r[4] for r in rows], pa.int64())
    return pa.table(cols)


ROWS = [
    ("org0/repo0", "a.py", "c1", "x = 1", 5),
    ("org0/repo0", "b.py", "c2", "y = 2", None),
    ("org1/repo3", "a.py", "c3", "z = 3", 7),
]


def test_equal_lake_has_no_drift():
    assert diff_count(rows_of(_lake_table(ROWS)), rows_of(_oracle_table(ROWS))) == 0


def test_one_row_drift_is_one_mismatch():
    want = rows_of(_oracle_table(ROWS))
    changed = list(ROWS)
    changed[1] = ("org0/repo0", "b.py", "c2", "y = 3", None)  # content only
    assert diff_count(rows_of(_lake_table(changed)), want) == 1
    stale = list(ROWS)
    stale[2] = ("org1/repo3", "a.py", "c3", "z = 3", 8)  # stars only
    assert diff_count(rows_of(_lake_table(stale)), want) == 1
    assert diff_count(rows_of(_lake_table(ROWS[:2])), want) == 1  # lost row
    extra = ROWS + [("org2/repo1", "c.py", "c4", "w", None)]
    assert diff_count(rows_of(_lake_table(extra)), want) == 1  # resurrected row


def test_lake_without_stars_column_reads_as_null():
    rows = [r[:4] + (None,) for r in ROWS]
    assert diff_count(rows_of(_lake_table(rows, with_stars=False)), rows_of(_oracle_table(rows))) == 0
    assert diff_count(rows_of(_lake_table(rows, with_stars=False)), rows_of(_oracle_table(ROWS))) == 2
