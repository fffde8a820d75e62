"""Load generator for ``wire_follow``: a process of its own that serves
increments of a generated stream over the MySQL replica protocol, one
replica connection per increment.

    python3 perfbench/wire_gen.py <repo_root> <stream_dir>

Line protocol, commands on stdin and replies on stdout:

- at start it prints ``port <n>`` (a listening socket on 127.0.0.1);
- ``serve <lo> <hi>`` accepts one connection, streams the events of the
  stream's shards ``[lo, hi)`` through ``serve_session``, closes the
  connection and prints ``sent <events> <bytes> <t>``, where ``t`` is
  ``time.monotonic()`` (one clock for every process on Linux) taken just
  after the last event was handed to the socket;
- ``quit`` or end of input exits.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time


def main(repo_root: str, stream_dir: str) -> None:
    sys.path.insert(0, repo_root)
    import pyarrow.parquet as pq

    from mysql_binlog_ray.fixtures.wire_server import serve_session

    with open(os.path.join(stream_dir, "manifest.json")) as f:
        manifest = json.load(f)
    shards = [
        pq.read_table(s["path"], columns=["payload"]).column("payload").to_pylist()
        for s in manifest["shards"]
    ]
    with socket.create_server(("127.0.0.1", 0)) as srv:
        srv.settimeout(120)
        print("port", srv.getsockname()[1], flush=True)
        for line in sys.stdin:
            cmd = line.split()
            if not cmd or cmd[0] == "quit":
                break
            lo, hi = int(cmd[1]), int(cmd[2])
            packets = [p for s in shards[lo:hi] for p in s]
            conn, _ = srv.accept()
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                serve_session(conn, packets)
                sent_at = time.monotonic()
            print("sent", len(packets), sum(map(len, packets)), repr(sent_at), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:3])
