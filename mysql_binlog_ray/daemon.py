"""Long-lived listener CLI — the process shape the reference runs as
(`/root/reference/examples/dump-events.php` + `Config.php` env layer):
one command tails a server's binlog into the parquet spool, another
keeps an exactly-once lake caught up from that spool.  Run both against
the same directory and you have the reference's listener, split at the
engine's spool handoff so each side restarts/retries independently.

Usage:
    python -m mysql_binlog_ray.daemon tail \\
        --host 127.0.0.1 --port 3306 --user replica --password pw \\
        --out-dir /var/spool/cdc [--binlog-file F] [--binlog-position N] \\
        [--shard-events 4096] [--max-events N] [--resume] [--session-setup]

    python -m mysql_binlog_ray.daemon follow \\
        --manifest /var/spool/cdc/manifest.json --lake /data/lake \\
        [--interval 1.0] [--num-partitions 64] [--max-iterations N] \\
        [--num-cpus N]

Env defaults use the reference's `Config.php` names (CLI args override):
``HOST PORT USER PASSWORD SLAVE_ID BINLOG_FILE BINLOG_POSITION``.
``tail`` needs no Ray session (socket + parquet only); ``follow`` owns a
guarded Ray session like the other CLI entry points.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _conn_env_defaults(env: dict[str, str] | None = None) -> dict:
    """Connection-layer env -> config (`Config.php:21-86` names).  Empty
    values are treated as unset; non-numeric ints raise a clear error
    (same footgun policy as print_row_events.env_defaults)."""
    env = os.environ if env is None else env
    out: dict = {}
    if v := env.get("HOST"):
        out["host"] = v
    if v := env.get("USER"):
        out["user"] = v
    if v := env.get("PASSWORD"):
        out["password"] = v
    if v := env.get("BINLOG_FILE"):
        out["binlog_file"] = v
    for name, key in [
        ("PORT", "port"),
        ("SLAVE_ID", "slave_id"),
        ("BINLOG_POSITION", "binlog_position"),
    ]:
        if v := env.get(name):
            try:
                out[key] = int(v)
            except ValueError:
                raise SystemExit(f"{name} must be an integer, got {v!r}")
    return out


def _build_ssl_context(args: argparse.Namespace):
    """TLS context from the CLI flags: ``--ssl`` verifies against the
    system CA store (RDS/Cloud SQL certs chain to public roots when the
    bundle is installed), ``--ssl-ca`` pins a CA bundle file,
    ``--ssl-insecure`` encrypts without verification (lab use — still
    better than cleartext, but vulnerable to MITM)."""
    if not (args.ssl or args.ssl_ca or args.ssl_insecure):
        return None
    import ssl

    if args.ssl_insecure:
        ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        ctx.check_hostname = False
        ctx.verify_mode = ssl.CERT_NONE
        return ctx
    return ssl.create_default_context(cafile=args.ssl_ca)


def _tail(args: argparse.Namespace) -> int:
    import time

    from .sources.wire import (
        BinlogWireClient,
        WireError,
        scan_table_maps,
        spool_state,
        tail_to_shards,
    )
    from .state.checkpoint import atomic_write_json

    ssl_context = _build_ssl_context(args)
    attempts = 0
    # events/heartbeats are per-session counters on the client; a
    # --reconnect run spans several sessions, so accumulate across them
    # (including the dropped ones) or the summary under-reports.
    total_events = 0
    total_heartbeats = 0
    while True:
        client = None
        try:
            client = BinlogWireClient.connect(
                args.host,
                args.port,
                user=args.user,
                password=args.password,
                slave_id=args.slave_id,
                timeout=args.timeout,
                ssl_context=ssl_context,
                compress=args.compress,
            )
            # reconnect semantics (the proven crash-resume story,
            # tests/test_wire.py server-crash test): the spool holds only
            # COMPLETE shards; without --session-setup the server replays
            # the dump from the requested position — on RECONNECTS and
            # equally on a fresh --resume process restart — so skip
            # exactly the committed prefix; with --session-setup the
            # server resumes at its CURRENT file/position and nothing is
            # replayed.
            skip = None
            if (args.resume or attempts > 0) and not args.session_setup:
                _sid, skip = spool_state(args.out_dir)
            result = tail_to_shards(
                client,
                args.out_dir,
                shard_events=args.shard_events,
                binlog_file=args.binlog_file,
                position=args.binlog_position,
                max_events=args.max_events,
                session_setup=args.session_setup,
                resume=args.resume or attempts > 0,
                skip_events=skip,
                manifest_extra={},  # publish manifest.json for a follower
            )
            total_events += client.n_events
            total_heartbeats += client.n_heartbeats
            break
        except (WireError, OSError) as e:
            if client is not None:
                total_events += client.n_events
                total_heartbeats += client.n_heartbeats
            attempts += 1
            if attempts > args.reconnect:
                raise
            print(
                f"warning: tail session died ({e}); reconnect "
                f"{attempts}/{args.reconnect} in {args.retry_delay}s",
                file=sys.stderr,
            )
            time.sleep(args.retry_delay)
    # tail_to_shards scans TABLE_MAP/FDE in-stream and publishes the
    # registry snapshot with EVERY manifest flush (concurrent followers
    # included).  Fallback: a resumed spool whose prior manifest predates
    # that scanning may still lack maps — rescan ALL listed shards (not
    # just this session's: prior-session shards may hold the only copy
    # of a map or the checksum-gating FORMAT_DESCRIPTION).
    del result  # summary reports the whole spool, not the final session
    with open(os.path.join(args.out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    table_maps = manifest.get("table_maps", [])
    if not table_maps:
        table_maps = scan_table_maps([s["path"] for s in manifest["shards"]])
        manifest["table_maps"] = table_maps
        atomic_write_json(args.out_dir, manifest, filename="manifest.json")
    print(
        json.dumps(
            {
                # manifest lists ALL committed shards (earlier sessions
                # included) — the per-result shard list would under-count
                # after reconnects
                "shards": len(manifest["shards"]),
                "events": total_events,
                "heartbeats": total_heartbeats,
                "table_maps": len(table_maps),
                "out_dir": args.out_dir,
            }
        )
    )
    return 0


def _follow(args: argparse.Namespace) -> int:
    import ray

    owns_session = not ray.is_initialized()
    if owns_session:  # CLI owns its session (the driver never calls this)
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .pipelines.cdc import CdcConfig
    from .pipelines.tailer import FollowDaemon

    cfg_kwargs: dict = {"num_partitions": args.num_partitions}
    if args.key_cols:
        cfg_kwargs["key_cols"] = tuple(s.strip() for s in args.key_cols.split(","))
    if args.target_table:
        schema_name, _, table_name = args.target_table.partition(".")
        if not table_name:
            raise SystemExit(
                f"--target-table must be schema.table, got {args.target_table!r}"
            )
        cfg_kwargs["target_table"] = (schema_name, table_name)
    daemon = FollowDaemon(
        manifest_path=args.manifest,
        lake_dir=args.lake,
        cfg=CdcConfig(**cfg_kwargs),
        interval_sec=args.interval,
        on_stats=lambda s: print(
            json.dumps(
                {
                    "rows_delta": s.rows_delta,
                    "row_images": s.row_images,
                    "row_images_per_sec": round(s.row_images_per_sec, 1),
                    "elapsed_sec": round(s.elapsed_sec, 3),
                }
            ),
            flush=True,
        ),
    )
    history = daemon.run(max_iterations=args.max_iterations)
    print(json.dumps({"iterations": len(history), "lake": args.lake}))
    if owns_session:  # never tear down a caller's (or test fixture's) session
        ray.shutdown()
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m mysql_binlog_ray.daemon")
    sub = p.add_subparsers(dest="cmd", required=True)
    envd = _conn_env_defaults()

    t = sub.add_parser("tail", help="wire session -> parquet spool")
    t.add_argument("--host", default=envd.get("host", "127.0.0.1"))
    t.add_argument("--port", type=int, default=envd.get("port", 3306))
    # default=None sentinel: the USER env var is set by every Unix shell
    # (the OS login), so a silent fallback would auth as e.g. 'root'
    # without the operator ever choosing it — resolve + warn in main()
    t.add_argument(
        "--user",
        default=None,
        help="replication user (falls back to the USER env var, with a warning)",
    )
    t.add_argument(
        "--password", default=envd.get("password", ""), help="empty = no password"
    )
    t.add_argument("--slave-id", type=int, default=envd.get("slave_id", 666))
    t.add_argument("--timeout", type=float, default=None)
    t.add_argument("--out-dir", required=True)
    t.add_argument("--shard-events", type=int, default=4096)
    t.add_argument("--binlog-file", default=envd.get("binlog_file"))
    t.add_argument(
        "--binlog-position", type=int, default=envd.get("binlog_position", 4)
    )
    t.add_argument("--max-events", type=int, default=None)
    t.add_argument("--session-setup", action="store_true")
    t.add_argument("--resume", action="store_true")
    t.add_argument(
        "--reconnect",
        type=int,
        default=0,
        help="retry a dropped session up to N times (resume + replay-skip)",
    )
    t.add_argument("--retry-delay", type=float, default=1.0)
    t.add_argument(
        "--ssl", action="store_true",
        help="TLS with system-CA verification (managed MySQL usually requires TLS)",
    )
    t.add_argument("--ssl-ca", default=None, help="CA bundle file (implies TLS)")
    t.add_argument(
        "--ssl-insecure", action="store_true",
        help="TLS without certificate verification (lab use only)",
    )
    t.add_argument(
        "--compress", action="store_true",
        help="zlib compressed protocol (helps WAN replica links)",
    )
    t.set_defaults(fn=_tail)

    f = sub.add_parser("follow", help="spool manifest -> exactly-once lake")
    f.add_argument("--manifest", required=True)
    f.add_argument("--lake", required=True)
    f.add_argument("--interval", type=float, default=1.0)
    f.add_argument("--num-partitions", type=int, default=64)
    f.add_argument("--max-iterations", type=int, default=None)
    f.add_argument("--num-cpus", type=int, default=8)
    f.add_argument(
        "--key-cols", default=None, help="comma-separated merge key columns"
    )
    f.add_argument(
        "--target-table", default=None, help="schema.table to decode/merge"
    )
    f.set_defaults(fn=_follow)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.cmd == "tail" and args.user is None:
        env_user = _conn_env_defaults().get("user")
        if env_user is None:
            raise SystemExit("tail: --user is required (or set the USER env var)")
        print(
            f"warning: --user not given; using USER env var ({env_user!r}) "
            "as the replication user (Config.php parity — every Unix shell "
            "sets USER to the OS login, which is rarely the account you want)",
            file=sys.stderr,
        )
        args.user = env_user
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
