"""Deterministic synthetic binlog-stream generator (SURVEY.md §2.7 M1).

Produces, from a seed only (no external data):

- a change stream over the source-code ``repos`` table
  ``(repo, path, commit, lang, content[, stars])`` — BASELINE.json
  ``input_hint`` — serialized into the *real* binlog wire layout our
  decoder parses (FORMAT_DESCRIPTION / ROTATE / MARIA_GTID / TABLE_MAP /
  WRITE|UPDATE|DELETE_ROWS v2 / QUERY(DDL) / XID, with CRC32 checksums),
  written as Parquet shards of ``(shard_id, event_seq, payload)``;
- ``manifest.json`` — shard list + every TableMapDef (the schema-registry
  snapshot broadcast to decode workers, SURVEY M3);
- ``oplog.parquet`` — the generator's ground truth
  ``(event_seq, row_seq, shard_id, commit_seq, op, key, version)``, from
  which tests derive the last-writer-wins oracle without touching the
  decoder.

Everything is a pure function of ``(spec.seed, op index)`` so shards can
be produced independently and the whole stream scales by parameter, never
by materializing state.  Stream grammar follows FIXTURES.md §F3.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..protocol.constants import (
    COLLATION_UTF8MB4,
    ColumnType,
    EventType,
)
from ..protocol.encode import (
    BinlogWriter,
    encode_format_description_body,
    encode_gtid_body,
    encode_mysql_gtid_body,
    encode_query_body,
    encode_rows_body,
    encode_table_map_body,
    encode_xid_body,
)
from ..protocol.model import ColumnDef, TableMapDef
from ..sources.wire import SHARD_FORMAT, write_event_shard

REPOS_TABLE_ID_V1 = 101
REPOS_TABLE_ID_V2 = 102  # after DDL: + stars BIGINT

LANGS = ("py", "js", "ts", "go", "rs", "java", "c", "md")
_EXT = {"py": "py", "js": "js", "ts": "ts", "go": "go", "rs": "rs", "java": "java", "c": "c", "md": "md"}


def repos_table_map(with_stars: bool = False) -> TableMapDef:
    cols = [
        ColumnDef("repo", ColumnType.VARCHAR, nullable=False, max_length=255, charset=COLLATION_UTF8MB4),
        ColumnDef("path", ColumnType.VARCHAR, nullable=False, max_length=512, charset=COLLATION_UTF8MB4),
        ColumnDef("commit", ColumnType.VARCHAR, nullable=False, max_length=40, charset=COLLATION_UTF8MB4),
        ColumnDef("lang", ColumnType.VARCHAR, nullable=False, max_length=16, charset=COLLATION_UTF8MB4),
        ColumnDef("content", ColumnType.BLOB, nullable=False, length_bytes=4, charset=COLLATION_UTF8MB4),
    ]
    if with_stars:
        cols.append(ColumnDef("stars", ColumnType.LONGLONG, nullable=True, signed=True))
    return TableMapDef(
        table_id=REPOS_TABLE_ID_V2 if with_stars else REPOS_TABLE_ID_V1,
        schema_name="code",
        table_name="repos",
        columns=tuple(cols),
        primary_key=(0, 1),
        schema_ver=2 if with_stars else 1,
    )


ISSUES_TABLE_ID = 201


def issues_table_map() -> TableMapDef:
    """Second logical table (`code.issues`), deliberately typed with
    non-string columns so the full pipeline exercises INT / ENUM /
    DATETIME2 / NEWDECIMAL decode + merge paths."""
    return TableMapDef(
        table_id=ISSUES_TABLE_ID,
        schema_name="code",
        table_name="issues",
        columns=(
            ColumnDef("issue_id", ColumnType.LONG, nullable=False, signed=False),
            ColumnDef("repo", ColumnType.VARCHAR, nullable=False, max_length=255, charset=COLLATION_UTF8MB4),
            ColumnDef("state", ColumnType.ENUM, nullable=False, size=1, values=("open", "closed", "merged")),
            ColumnDef("opened_at", ColumnType.DATETIME2, nullable=False, fsp=0),
            ColumnDef("weight", ColumnType.NEWDECIMAL, nullable=True, precision=8, scale=2),
            ColumnDef("n_comments", ColumnType.SHORT, nullable=False, signed=True),
        ),
        primary_key=(0,),
        schema_ver=1,
    )


@dataclass(frozen=True)
class StreamSpec:
    """Sizing knobs; all content derives from ``seed``."""

    seed: int = 42
    n_keys: int = 2_000           # distinct (repo, path) primary keys
    n_ops: int = 10_000           # total row images in the stream
    n_shards: int = 4             # binlog "files" == parquet shards
    rows_per_event: int = 32      # max row images per ROWS event
    events_per_txn: int = 8       # ROWS events per XID transaction
    p_delete: float = 0.08        # post-initial-load delete probability
    ddl_at: float | None = 0.6    # fraction of ops after which ALTER adds `stars`
    n_orgs: int = 20
    repos_per_org: int = 10
    zipf_a: float = 1.4           # key-pick skew (hot repos)
    mean_content_lines: float = 28.0
    include_noise_events: bool = True  # HEARTBEAT / GTID interleave
    # "mariadb" emits MARIA_GTID (0xA2); "mysql" emits GTID_LOG_EVENT
    # (0x21) with GNO == commit_seq — both are consumed as the
    # transaction-sequencing source by the decoder
    gtid_flavor: str = "mariadb"
    # emit a second table's transactions every N repos-txns (0 = off);
    # exercises multi-table streams + include/exclude filters (F1)
    issues_every: int = 0

    @property
    def ddl_op(self) -> int | None:
        if self.ddl_at is None:
            return None
        return int(self.n_ops * self.ddl_at)


# --------------------------------------------------------------------------
# deterministic content synthesis
# --------------------------------------------------------------------------


def _build_blocks(seed: int, n_blocks: int = 512) -> list[str]:
    rng = np.random.default_rng(seed ^ 0x5EED)
    words = [
        "def", "return", "import", "class", "self", "value", "index", "token",
        "buffer", "stream", "batch", "merge", "commit", "partition", "shard",
        "fn", "mut", "let", "const", "struct", "impl", "match", "async",
    ]
    blocks = []
    for _ in range(n_blocks):
        n = int(rng.integers(4, 12))
        line = " ".join(str(words[int(i)]) for i in rng.integers(0, len(words), n))
        blocks.append(line + " // " + format(int(rng.integers(0, 1 << 32)), "08x"))
    return blocks


class ContentFactory:
    """Pure-functional row synthesis: row(key, version) is fully determined
    by (seed, key, version)."""

    def __init__(self, spec: StreamSpec) -> None:
        self.spec = spec
        self.blocks = _build_blocks(spec.seed)
        self.nb = len(self.blocks)

    def _h(self, key: int, version: int, salt: int) -> int:
        d = hashlib.blake2b(
            f"{self.spec.seed}:{key}:{version}:{salt}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(d, "big")

    def repo_path(self, key: int) -> tuple[str, str]:
        h = self._h(key, 0, 0)
        org = h % self.spec.n_orgs
        rep = (h >> 16) % self.spec.repos_per_org
        lang = LANGS[(h >> 32) % len(LANGS)]
        depth = 1 + (h >> 40) % 3
        segs = [f"src{(h >> (44 + 4 * i)) % 7}" for i in range(depth - 1)]
        fname = f"file{key}.{_EXT[lang]}"
        return f"org{org}/repo{rep}", "/".join([*segs, fname])

    def lang(self, key: int) -> str:
        return LANGS[(self._h(key, 0, 0) >> 32) % len(LANGS)]

    def commit(self, key: int, version: int) -> str:
        return hashlib.sha1(f"{self.spec.seed}:{key}:{version}".encode()).hexdigest()

    def content(self, key: int, version: int) -> str:
        h = self._h(key, version, 1)
        n_lines = max(2, int(self.spec.mean_content_lines * (0.25 + (h & 0xFFFF) / 0x8000)))
        start = h % self.nb
        step = 1 + (h >> 24) % 7
        body = "\n".join(self.blocks[(start + i * step) % self.nb] for i in range(n_lines))
        head = f"// key={key} v={version} commit={self.commit(key, version)}\n"
        # a few keys carry non-ASCII to exercise charset paths (F1 spec)
        if key % 97 == 0:
            head += "// naïve café — привет — 你好\n"
        return head + body

    def issue_row(self, issue_id: int, version: int) -> dict[str, Any]:
        h = self._h(issue_id, version, 3)
        repo, _ = self.repo_path(issue_id % self.spec.n_keys if self.spec.n_keys else issue_id)
        states = ("open", "closed", "merged")
        return {
            "issue_id": issue_id,
            "repo": repo,
            "state": states[(h >> 8) % 3],
            "opened_at": "20%02d-%02d-%02d %02d:%02d:%02d"
            % (20 + h % 5, 1 + (h >> 4) % 12, 1 + (h >> 9) % 28, h % 24, (h >> 5) % 60, (h >> 11) % 60),
            "weight": None if h % 7 == 0 else "%d.%02d" % ((h >> 16) % 1000, (h >> 26) % 100),
            "n_comments": int((h >> 13) % 500) - 50,
        }

    def row(self, key: int, version: int, with_stars: bool) -> dict[str, Any]:
        repo, path = self.repo_path(key)
        r: dict[str, Any] = {
            "repo": repo,
            "path": path,
            "commit": self.commit(key, version),
            "lang": self.lang(key),
            "content": self.content(key, version),
        }
        if with_stars:
            h = self._h(key, version, 2)
            r["stars"] = int(h % 100_000) if h % 5 else None
        return r


# --------------------------------------------------------------------------
# op plan (vectorized, driver-side; tiny relative to payload bytes)
# --------------------------------------------------------------------------


@dataclass
class OpPlan:
    """Columnar op list: op j touches key[j] with its version[j]-th image."""

    key: np.ndarray       # int64
    op: np.ndarray        # int8: 0 insert, 1 update, 2 delete
    version: np.ndarray   # int64: occurrence ordinal of key within stream


def build_op_plan(spec: StreamSpec) -> OpPlan:
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n_ops, spec.n_keys
    assert n >= k, "need at least one op per key for the initial load"
    key = np.empty(n, dtype=np.int64)
    op = np.empty(n, dtype=np.int8)
    # initial load: every key inserted once, in shuffled order
    perm = rng.permutation(k)
    key[:k] = perm
    op[:k] = 0
    # tail: zipf-skewed updates / deletes
    tail = n - k
    z = rng.zipf(spec.zipf_a, size=tail)
    key[k:] = (z - 1) % k
    op[k:] = np.where(rng.random(tail) < spec.p_delete, 2, 1)
    # version = occurrence ordinal of each key
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    occ = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
    version = np.empty(n, dtype=np.int64)
    version[order] = occ
    return OpPlan(key=key, op=op, version=version)


# --------------------------------------------------------------------------
# shard encoding
# --------------------------------------------------------------------------

_OP_EVENT = {0: EventType.WRITE_ROWS_V2, 1: EventType.UPDATE_ROWS_V2, 2: EventType.DELETE_ROWS_V2}
_OP_NAME = {0: "insert", 1: "update", 2: "delete"}


def encode_shard(
    spec: StreamSpec,
    plan: OpPlan,
    shard_id: int,
    out_dir: str,
) -> dict[str, Any]:
    """Encode one shard (binlog "file") to ``events-{shard:05d}.parquet``.

    Pure function of (spec, plan slice, shard_id): shards may be produced
    concurrently.  Returns the manifest entry.  Event/commit sequence
    numbers are globally unique and monotone: each op index contributes at
    most one row image, and every shard's sequence block is
    ``[base, base + ops_in_shard + overhead)`` with base derived from the
    (deterministic) shard slicing.
    """
    n = spec.n_ops
    per = (n + spec.n_shards - 1) // spec.n_shards
    lo, hi = shard_id * per, min(n, (shard_id + 1) * per)
    # sequence-number budget: reserve a fixed window per shard so numbering
    # is deterministic and disjoint without cross-shard coordination
    window = 4 * per + 64
    eseq_base = 1 + shard_id * window

    factory = ContentFactory(spec)
    tm_v1 = repos_table_map(False)
    tm_v2 = repos_table_map(True)
    ddl_op = spec.ddl_op

    w = BinlogWriter(server_id=1)
    eseq = eseq_base
    payloads: list[bytes] = []
    seqs: list[int] = []
    oplog: list[tuple[int, int, int, int]] = []  # (op_idx, row_seq, op, commit_seq)

    def emit(etype_body: bytes) -> None:
        nonlocal eseq
        payloads.append(etype_body)
        seqs.append(eseq)
        eseq += 1

    ts = 1_700_000_000 + lo
    emit(w.packet(EventType.FORMAT_DESCRIPTION, encode_format_description_body(), ts))
    emit(w.rotate(f"binlog.{shard_id:06d}", timestamp=ts))

    # table maps are re-sent before row events (MySQL re-emits per
    # statement); we send once per transaction per active schema version.
    i = lo
    commit_seq = eseq_base  # monotone + globally unique via the seq window
    noise = spec.include_noise_events
    while i < hi:
        with_stars = ddl_op is not None and i >= ddl_op
        # DDL boundary inside this shard -> QUERY event (E6 surface)
        if ddl_op is not None and i == ddl_op:
            emit(
                w.packet(
                    EventType.QUERY,
                    encode_query_body("code", "ALTER TABLE repos ADD COLUMN stars BIGINT"),
                    ts,
                )
            )
        tm = tm_v2 if with_stars else tm_v1
        commit_seq += 1
        if noise:
            if spec.gtid_flavor == "mysql":
                emit(w.packet(EventType.GTID, encode_mysql_gtid_body(commit_seq), ts))
            else:
                emit(w.packet(EventType.MARIA_GTID, encode_gtid_body(commit_seq), ts))
        emit(w.packet(EventType.TABLE_MAP, encode_table_map_body(tm), ts))
        # one transaction: up to events_per_txn row events
        for _ in range(spec.events_per_txn):
            if i >= hi:
                break
            if ddl_op is not None and (i < ddl_op <= min(hi, i + spec.rows_per_event)):
                cap = ddl_op - i  # stop the txn at the DDL boundary
                if cap == 0:
                    break
            else:
                cap = spec.rows_per_event
            opc = int(plan.op[i])
            j = i
            stop = min(hi, i + cap)
            while j < stop and int(plan.op[j]) == opc:
                j += 1
            batch = range(i, j)
            if opc == 1:  # update: before/after pairs
                rows = [
                    {
                        "before": factory.row(int(plan.key[x]), int(plan.version[x]) - 1, with_stars),
                        "after": factory.row(int(plan.key[x]), int(plan.version[x]), with_stars),
                    }
                    for x in batch
                ]
            elif opc == 0:
                rows = [factory.row(int(plan.key[x]), int(plan.version[x]), with_stars) for x in batch]
            else:  # delete: before image only
                rows = [factory.row(int(plan.key[x]), int(plan.version[x]) - 1, with_stars) for x in batch]
            emit(
                w.packet(
                    _OP_EVENT[opc],
                    encode_rows_body(tm, rows, _OP_NAME[opc], v2=True),
                    ts,
                )
            )
            for row_seq, x in enumerate(batch):
                oplog.append((x, row_seq, opc, commit_seq))
            i = j
            ts += 1
            if ddl_op is not None and i == ddl_op:
                break  # commit before applying DDL
        emit(w.packet(EventType.XID, encode_xid_body(commit_seq)))
        if noise and (commit_seq % 7 == 0):
            emit(w.packet(EventType.HEARTBEAT, b""))
        if spec.issues_every and (commit_seq % spec.issues_every == 0):
            # interleaved second-table transaction (upserts keyed issue_id)
            commit_seq += 1
            tm_iss = issues_table_map()
            emit(w.packet(EventType.TABLE_MAP, encode_table_map_body(tm_iss), ts))
            iss_rows = [
                factory.issue_row((commit_seq * 13 + j) % max(64, spec.n_keys // 4), commit_seq)
                for j in range(4)
            ]
            emit(
                w.packet(
                    EventType.WRITE_ROWS_V2,
                    encode_rows_body(tm_iss, iss_rows, "insert"),
                    ts,
                )
            )
            emit(w.packet(EventType.XID, encode_xid_body(commit_seq)))

    assert eseq - eseq_base <= window, "sequence window overflow; raise `window`"

    path = os.path.join(out_dir, f"events-{shard_id:05d}.parquet")
    table = pa.table(
        {
            "shard_id": pa.array([shard_id] * len(payloads), pa.int32()),
            "event_seq": pa.array(seqs, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )
    write_event_shard(table, path)

    # oplog: event_seq of the ROWS event each op landed in
    # reconstruct: we appended oplog rows right after emitting the event;
    # recover event_seq per op by replaying the same association:
    return {
        "shard_id": shard_id,
        "path": path,
        "events": len(payloads),
        "first_event_seq": seqs[0],
        "last_event_seq": seqs[-1],
        "first_op": lo,
        "num_ops": hi - lo,
        "_oplog": oplog,
    }


def _oplog_with_event_seqs(
    spec: StreamSpec, plan: OpPlan, shard_entries: list[dict[str, Any]], out_dir: str
) -> str:
    """Build oplog.parquet.  Re-derives each op's enclosing ROWS event_seq
    by decoding nothing: encode_shard recorded (op_idx, row_seq, op,
    commit_seq) in emit order; event_seq assignment replays that order."""
    # We need (event_seq, row_seq) per op for the LWW order key.  Decode it
    # from the shard parquet cheaply: row events are the only events whose
    # op entries exist; we stored oplog in emission order so we can align
    # by walking events again.  Simpler: recompute from stored tuples.
    ops_idx: list[int] = []
    row_seqs: list[int] = []
    op_codes: list[int] = []
    commit_seqs: list[int] = []
    event_seqs: list[int] = []
    shard_ids: list[int] = []
    for entry in shard_entries:
        sid = entry["shard_id"]
        # align: walk the shard's events; for each ROWS event, pop as many
        # oplog tuples as it carried (consecutive row_seq starting at 0)
        t = pq.read_table(entry["path"], columns=["event_seq", "payload"])
        payload_col = t.column("payload").to_pylist()
        seq_col = t.column("event_seq").to_pylist()
        pending = list(entry["_oplog"])
        pi = 0
        for seq, payload in zip(seq_col, payload_col):
            etype = payload[5]
            if etype in (0x1E, 0x1F, 0x20):
                # only repos-table events carry oplog tuples; interleaved
                # code.issues transactions (spec.issues_every) emit ROWS
                # events with no tuples and must not consume any — else
                # every later op's event_seq shifts onto the wrong event
                table_id = int.from_bytes(payload[20:26], "little")
                if table_id not in (REPOS_TABLE_ID_V1, REPOS_TABLE_ID_V2):
                    continue
                # consume ops with row_seq restarting at 0
                first = True
                while pi < len(pending) and (first or pending[pi][1] != 0):
                    op_idx, row_seq, opc, cseq = pending[pi]
                    ops_idx.append(op_idx)
                    row_seqs.append(row_seq)
                    op_codes.append(opc)
                    commit_seqs.append(cseq)
                    event_seqs.append(seq)
                    shard_ids.append(sid)
                    pi += 1
                    first = False
        assert pi == len(pending), f"oplog misalignment in shard {sid}"

    idx = np.asarray(ops_idx)
    table = pa.table(
        {
            "op_idx": pa.array(idx, pa.int64()),
            "key": pa.array(plan.key[idx], pa.int64()),
            "version": pa.array(plan.version[idx], pa.int64()),
            "op": pa.array(np.asarray(op_codes, dtype=np.int8)),
            "event_seq": pa.array(event_seqs, pa.int64()),
            "row_seq": pa.array(row_seqs, pa.int32()),
            "commit_seq": pa.array(commit_seqs, pa.int64()),
            "shard_id": pa.array(shard_ids, pa.int32()),
        }
    )
    path = os.path.join(out_dir, "oplog.parquet")
    pq.write_table(table, path, compression="zstd")
    return path


def generate_stream(
    spec: StreamSpec, out_dir: str, force: bool = False, processes: int | None = None
) -> dict[str, Any]:
    """Generate all shards + manifest (idempotent: returns the existing
    manifest when present, parameter-identical and written in this
    version's ``SHARD_FORMAT``, else regenerates).  Shards are pure
    functions of (spec, shard_id) and encode in parallel worker
    processes when the stream is large."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not force and os.path.exists(manifest_path):
        with open(manifest_path) as f:
            m = json.load(f)
        if m.get("spec") == asdict(spec) and m.get("shard_format") == SHARD_FORMAT:
            return m
        force = True  # replace the other stream, never reuse it
    # concurrent-safe cache fill: build in a private tmp dir, then rename
    # into place; a losing racer just adopts the winner's output
    build_dir = f"{out_dir}.tmp.{os.getpid()}"
    plan = build_op_plan(spec)
    if processes is None:
        processes = min(spec.n_shards, os.cpu_count() or 1) if spec.n_ops >= 100_000 else 1
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as ex:
            entries = list(
                ex.map(encode_shard, [spec] * spec.n_shards, [plan] * spec.n_shards,
                       range(spec.n_shards), [build_dir] * spec.n_shards)
            )
    else:
        entries = [encode_shard(spec, plan, s, build_dir) for s in range(spec.n_shards)]
    oplog_path = _oplog_with_event_seqs(spec, plan, entries, build_dir)
    for e in entries:
        e.pop("_oplog")
    manifest = {
        "spec": asdict(spec),
        "shard_format": SHARD_FORMAT,
        "shards": entries,
        "oplog": oplog_path,
        "table_maps": (
            [repos_table_map(False).to_dict(), repos_table_map(True).to_dict()]
            if spec.ddl_op is not None
            else [repos_table_map(False).to_dict()]
        )
        + ([issues_table_map().to_dict()] if spec.issues_every else []),
        "target_table_id": REPOS_TABLE_ID_V2 if spec.ddl_op is not None else REPOS_TABLE_ID_V1,
    }
    # write the manifest with the FINAL paths BEFORE the rename: the
    # single os.rename then atomically publishes a fully-consistent
    # directory (no crash/reader window where manifest.json points at
    # the build dir)
    def _fix(p: str) -> str:
        return os.path.join(out_dir, os.path.basename(p))

    for e in manifest["shards"]:
        e["path"] = _fix(e["path"])
    manifest["oplog"] = _fix(manifest["oplog"])
    with open(os.path.join(build_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    import shutil as _shutil

    if force:
        _shutil.rmtree(out_dir, ignore_errors=True)
    try:
        os.rename(build_dir, out_dir)
    except OSError:
        _shutil.rmtree(build_dir, ignore_errors=True)  # racer won; use theirs
        with open(manifest_path) as f:
            return json.load(f)
    return manifest


def final_state_oracle(
    spec: StreamSpec, out_dir: str, max_event_seq: int | None = None
) -> pa.Table:
    """Sequential-replay oracle: last op per key in (event_seq, row_seq)
    order wins; delete removes the key (SURVEY §5.2 item 3).  Built from
    the oplog + the same pure row synthesis the encoder used.
    ``max_event_seq`` truncates the replay — the oracle for time-travel
    reads (``pipelines.cdc.state_as_of``)."""
    oplog = pq.read_table(os.path.join(out_dir, "oplog.parquet"))
    df = oplog.to_pandas()
    if max_event_seq is not None:
        df = df[df["event_seq"] <= max_event_seq]
    df = df.sort_values(["event_seq", "row_seq"])
    last = df.groupby("key").tail(1)
    live = last[last["op"] != 2]
    factory = ContentFactory(spec)
    with_stars = spec.ddl_op is not None
    ddl_op = spec.ddl_op if spec.ddl_op is not None else spec.n_ops + 1
    rows = []
    for key, version, op_idx in zip(live["key"], live["version"], live["op_idx"]):
        r = factory.row(int(key), int(version), with_stars and op_idx >= ddl_op)
        if with_stars and "stars" not in r:
            r["stars"] = None
        r["content_sha256"] = hashlib.sha256(r.pop("content").encode()).hexdigest()
        rows.append(r)
    rows.sort(key=lambda r: (r["repo"], r["path"]))
    cols = ["repo", "path", "commit", "lang", "content_sha256"] + (["stars"] if with_stars else [])
    return pa.table({c: [r.get(c) for r in rows] for c in cols})
