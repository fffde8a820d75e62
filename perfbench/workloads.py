"""The workloads: set-up, the measured closed loop, the oracle gate after
every commit, and the end-to-end and per-layer metrics.

Every workload is closed loop with one client: the next op starts only
after the previous commit and its oracle check.  One op is one commit (a
``run_to_lake`` or one ``follow`` step).  Checks and lake clean-up are
not timed.  In a traced run, odd-numbered ops are traced: the commit's
input first goes through ``kernels.replay_commit`` (pass one), then the
real call runs inside a span (pass two); even-numbered ops run untraced,
so the same run also yields the tracing overhead.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import oracle
from spans import Tracer, freshness, median_with_count

NUM_PARTITIONS = 8
SETUP_REPS = 3  # set-ups per run (after one Ray start); setup_s takes their median
MIN_OPS = 3  # timed ops per run, however long they take
OBJECT_STORE_BYTES = 512 << 20
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    name: str
    n_keys: int
    n_ops: int
    n_shards: int
    zipf_a: float = 1.4
    ddl_at: float = 0.6  # share of the row images before the ALTER TABLE
    # follow workloads: the first ``base_shards`` shards seed the lake in
    # set-up; every later shard is one increment
    base_shards: int = 0

    def spec(self, seed: int):
        from mysql_binlog_ray.fixtures.generator import StreamSpec

        return StreamSpec(
            seed=seed,
            n_keys=self.n_keys,
            n_ops=self.n_ops,
            n_shards=self.n_shards,
            zipf_a=self.zipf_a,
            ddl_at=self.ddl_at,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk_replay", n_keys=8_000, n_ops=32_000, n_shards=8),
        Workload("hot_key_replay", n_keys=320, n_ops=32_000, n_shards=8, zipf_a=2.0),
        # a lake seeded from the first 5,000 row images (the ALTER TABLE
        # among them, so every increment has the new column), then
        # 500-row-image increments, each one stream shard
        Workload(
            "wire_follow",
            n_keys=5_000,
            n_ops=20_000,
            n_shards=40,
            ddl_at=0.125,
            base_shards=10,
        ),
    )
}

# pass-one spans that time a layer kernel (the root span is the glue)
PASS1_ROOT = "pipelines.cdc.commit"
KERNELS = (
    "pipelines.cdc.read",
    "stages.decode_stage",
    "stages.merge.combine",
    "stages.merge.partition",
    "pipelines.cdc.exchange",
    "pipelines.cdc.resume",
    "stages.merge.final",
    "state.checkpoint.write",
    "state.checkpoint.commit",
)

# name -> (unit, better); the traced run reports every one of them, with
# 0 for a layer the workload does not run
PER_LAYER = {
    "sources.wire.busy_s": ("s", "lower"),
    "sources.wire.events": ("count", "lower"),
    "sources.wire.bytes": ("bytes", "lower"),
    "sources.wire.events_per_s": ("1/s", "higher"),
    "pipelines.cdc.read.busy_s": ("s", "lower"),
    "pipelines.cdc.read.bytes": ("bytes", "lower"),
    "stages.decode_stage.busy_s": ("s", "lower"),
    "stages.decode_stage.events": ("count", "lower"),
    "stages.decode_stage.row_images": ("count", "lower"),
    "stages.decode_stage.row_images_per_s": ("1/s", "higher"),
    "stages.decode_stage.checksum_failures": ("count", "lower"),
    "stages.merge.combine.busy_s": ("s", "lower"),
    "stages.merge.combine.rows_in": ("count", "lower"),
    "stages.merge.combine.rows_out": ("count", "lower"),
    "stages.merge.combine_ratio": ("ratio", "lower"),
    "stages.merge.partition.busy_s": ("s", "lower"),
    "stages.merge.partition.skew": ("ratio", "lower"),
    "stages.merge.final.busy_s": ("s", "lower"),
    "pipelines.cdc.exchange.busy_s": ("s", "lower"),
    "pipelines.cdc.exchange.rows": ("count", "lower"),
    "pipelines.cdc.exchange.partitions_touched": ("count", "lower"),
    "pipelines.cdc.resume.readback_rows": ("count", "lower"),
    "pipelines.cdc.resume.readback_bytes": ("bytes", "lower"),
    "pipelines.cdc.resume.readback_busy_s": ("s", "lower"),
    "state.checkpoint.write.busy_s": ("s", "lower"),
    "state.checkpoint.write.bytes": ("bytes", "lower"),
    "state.checkpoint.write.files": ("count", "lower"),
    "state.checkpoint.commit.busy_s": ("s", "lower"),
    "state.checkpoint.rows_rewritten_per_row_image": ("ratio", "lower"),
    "pipelines.cdc.orchestration_s": ("s", "lower"),
    "pipelines.cdc.orchestration_share": ("ratio", "lower"),
    "pipelines.cdc.follow.step_s": ("s", "lower"),
    "kernels_only_row_images_per_s": ("1/s", "higher"),
    "tracing.delta_row_images_per_s": ("1/s", "higher"),
    "tracing.delta_freshness_p50_s": ("s", "lower"),
}

END_TO_END = {
    "row_images_per_s": ("1/s", "higher"),
    "freshness_p50_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def nproc() -> int:
    """The CPU count ``nproc`` reports: the affinity mask, capped by
    ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def ray_temp_dir(work: str) -> str:
    """Ray's session directory inside ``work``.  Ray's socket paths must
    fit in 107 bytes; when ``work`` is too deep, the same directory is
    named through ``/proc/self/cwd`` (every Ray process keeps the
    benchmark's working directory)."""
    path = os.path.join(work, "ray")
    # session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
    if len(path) + 64 <= 107:
        return path
    return os.path.join("/proc/self/cwd", os.path.relpath(path))


def start_ray(work: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=ray_temp_dir(work),
    )
    DataContext.get_current().enable_progress_bars = False


def cpu_jiffies() -> tuple[int, int]:
    """(stolen, busy) CPU time of the whole machine from ``/proc/stat``.
    Stolen is time a vCPU wanted to run while the hypervisor ran other
    guests; busy is time it ran (idle and iowait excluded)."""
    with open("/proc/stat") as f:
        user, nice, system, _idle, _iowait, irq, softirq, steal = (
            int(x) for x in f.readline().split()[1:9]
        )
    return steal, user + nice + system + irq + softirq


def cpu_speed(seconds: float = 0.25) -> float:
    """Millions of turns per CPU-second of an empty Python loop: the
    host's single-thread speed at the moment.  It moves with the load of
    other guests even when nothing is stolen."""
    n, w0, c0 = 0, time.perf_counter(), time.process_time()
    while time.perf_counter() - w0 < seconds:
        n += 1
    return n / (time.process_time() - c0) / 1e6


def steal_share(j0: tuple[int, int], j1: tuple[int, int]) -> float:
    """Share of the wanted CPU time (busy + stolen) that the hypervisor
    withheld between two ``cpu_jiffies`` readings."""
    stolen, busy = j1[0] - j0[0], j1[1] - j0[1]
    return stolen / (stolen + busy) if stolen + busy > 0 else 0.0


def op_start() -> tuple[float, tuple[int, int]]:
    """The start of a timed interval: (``time.monotonic()``, ``cpu_jiffies()``)."""
    return time.monotonic(), cpu_jiffies()


def unstolen(start: tuple[float, tuple[int, int]]) -> tuple[float, float]:
    """(wall time since ``start``, the part of it the hypervisor did not
    steal)."""
    wall = time.monotonic() - start[0]
    return wall, wall * (1 - steal_share(start[1], cpu_jiffies()))


class PeakRss:
    """Peak summed RSS of this process and its descendants (the Ray
    processes), sampled every 0.5 s; ``exclude`` names pids left out
    (the load generator)."""

    def __init__(self, exclude: set[int]) -> None:
        self.exclude = exclude
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> int:
        import psutil  # Ray's vendored copy, on sys.path once ray is imported

        me = psutil.Process()
        total = 0
        for p in [me, *me.children(recursive=True)]:
            if p.pid in self.exclude:
                continue
            try:
                total += p.memory_info().rss
            except (psutil.NoSuchProcess, psutil.AccessDenied):
                pass
        return total

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, self.sample())
            self._stop.wait(0.5)

    def __enter__(self) -> PeakRss:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


class WireGenerator:
    """The separate generator process (``wire_gen.py``) and its control
    pipe."""

    def __init__(self, root: str, stream_dir: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "wire_gen.py"), root, stream_dir],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = int(self._reply("port")[0])

    def _reply(self, tag: str) -> list[str]:
        line = self.proc.stdout.readline().split()
        if not line or line[0] != tag:
            raise RuntimeError(f"wire generator: expected {tag!r}, got {line!r}")
        return line[1:]

    def fetch(self, spool: str, lo: int, hi: int, tracer: Tracer | None):
        """Serve shards [lo, hi) and tail them into ``spool``.  Returns
        (tail result, events, bytes, monotonic time of the last send)."""
        from mysql_binlog_ray.sources.wire import BinlogWireClient, tail_to_shards

        self.proc.stdin.write(f"serve {lo} {hi}\n")
        self.proc.stdin.flush()
        with tracer.span("sources.wire") if tracer else nullcontext():
            with socket.create_connection(("127.0.0.1", self.port), timeout=120) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                client = BinlogWireClient(sock, user="repl", password="secret")
                res = tail_to_shards(client, spool, shard_events=1 << 30, resume=True)
        events, nbytes, sent_at = self._reply("sent")
        return res, int(events), int(nbytes), float(sent_at)

    def close(self) -> None:
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)


class Run:
    """One benchmark process: its ops, the gate's verdicts and the trace."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, work: str):
        from mysql_binlog_ray.pipelines.cdc import CdcConfig

        self.w = workload
        self.spec = workload.spec(seed)
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.work = work
        # named by the whole spec: generate_stream keeps a directory's
        # existing stream when asked for a different one
        digest = hashlib.sha1(repr(self.spec).encode()).hexdigest()[:12]
        self.stream_dir = os.path.join(work, "streams", f"{workload.name}-{digest}")
        self.run_dir = os.path.join(work, f"run-{os.getpid()}")
        self.cfg = CdcConfig(num_partitions=NUM_PARTITIONS)
        self.setups: list[tuple[float, float]] = []  # (wall, unstolen) per set-up
        self.ops: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss = 0
        self.check_s = 0.0
        self.steal_share = 0.0
        self._oracles: dict = {}

    # -- helpers -----------------------------------------------------------
    def path(self, *parts: str) -> str:
        return os.path.join(self.run_dir, *parts)

    def traced(self, i: int) -> bool:
        return self.tracer is not None and i % 2 == 1

    def span(self, name: str, on: bool):
        return self.tracer.span(name) if on else nullcontext()

    def oracle(self, max_event_seq: int | None):
        from mysql_binlog_ray.fixtures.generator import final_state_oracle

        if max_event_seq not in self._oracles:
            self._oracles[max_event_seq] = final_state_oracle(
                self.spec, self.stream_dir, max_event_seq
            )
        return self._oracles[max_event_seq]

    def commit(self, fn) -> bool:
        """Run one commit; an exception fails the op."""
        self.attempted += 1
        try:
            fn()
            return True
        except Exception:
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            traceback.print_exc()
            return False

    def check(self, lake: str, max_event_seq: int | None, watermark: int) -> None:
        t0 = time.perf_counter()
        problems = oracle.gate(lake, self.oracle(max_event_seq), watermark)
        self.check_s += time.perf_counter() - t0
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            print("oracle gate:", problems, file=sys.stderr)

    def record(self, i: int, row_images: int, start: tuple, sent: float, done: float) -> None:
        """One timed op: it began at ``start`` (``op_start()``), its
        input's last event was sent at ``sent`` and its commit returned at
        ``done``; ``stolen`` is the op's ``steal_share``."""
        self.ops.append(
            {
                "i": i,
                "traced": self.traced(i),
                "row_images": row_images,
                "wall_s": done - start[0],
                "sent": sent,
                "done": done,
                "stolen": steal_share(start[1], cpu_jiffies()),
            }
        )

    def measure(self, step, exclude: set[int]) -> None:
        """Closed loop over ``step(i)`` (False when the workload has no
        input left), with the RSS sampler on, for ``seconds`` of timed op
        time and at least MIN_OPS ops.  Also records the loop's
        ``steal_share``."""
        j0 = cpu_jiffies()
        i = 1
        with PeakRss(exclude) as rss:
            while step(i):
                i += 1
                if len(self.ops) >= MIN_OPS and sum(op["wall_s"] for op in self.ops) >= self.seconds:
                    break
        self.peak_rss = rss.peak
        self.steal_share = steal_share(j0, cpu_jiffies())

    def set_up(self, extra=None) -> dict:
        """Start Ray once, then SETUP_REPS times: get the stream and run
        ``extra`` (lake seeding, which returns its own ``unstolen`` times).
        The first repetition gets the run's stream (generated, or reused
        through ``generate_stream``'s spec check); the others generate it
        afresh into a directory of their own, so that the median times a
        generation whether or not the cache held the stream.  ``setups``
        holds Ray's start-up plus each repetition; ``setup_s`` is their
        median."""
        from mysql_binlog_ray.fixtures.generator import generate_stream

        t0 = op_start()
        start_ray(self.work)
        ray_wall, ray_own = unstolen(t0)
        manifest = None
        for rep in range(SETUP_REPS):
            out = self.stream_dir if rep == 0 else self.path(f"stream-{rep}")
            t0 = op_start()
            m = generate_stream(self.spec, out)
            wall, own = unstolen(t0)
            if rep == 0:
                manifest = m
            else:
                shutil.rmtree(out)
            if extra is not None:
                more = extra(rep, manifest)
                wall, own = wall + more[0], own + more[1]
            self.setups.append((ray_wall + wall, ray_own + own))
        return manifest

    # -- workloads -----------------------------------------------------------
    def replay(self) -> None:
        """A fresh lake from the whole stream per op."""
        from mysql_binlog_ray.pipelines.cdc import run_to_lake

        manifest = self.set_up()
        watermark = max(s["last_event_seq"] for s in manifest["shards"])

        def step(i: int) -> bool:
            on = self.traced(i)
            lake, scratch = self.path(f"lake-{i}"), self.path(f"scratch-{i}")
            t0 = op_start()
            if on:
                from kernels import replay_commit

                self.tracer.commit = i
                replay_commit(self.tracer, manifest, lake, scratch, self.cfg)
            with self.span("pipelines.cdc.run_to_lake", on):
                ok = self.commit(lambda: run_to_lake(manifest, lake, self.cfg, resume=False))
            done = time.monotonic()
            if i > 0:  # the whole stream is on disk when the op starts
                self.record(i, self.spec.n_ops, t0, t0[0], done)
            if ok:
                self.check(lake, None, watermark)
            shutil.rmtree(lake, ignore_errors=True)
            shutil.rmtree(scratch, ignore_errors=True)
            return True

        step(0)  # warm-up: the session's first Ray Data execution
        self.measure(step, exclude=set())

    def wire_follow(self, root: str) -> None:
        """Seed a lake over the wire, then follow one increment at a time."""
        from mysql_binlog_ray.pipelines.cdc import follow, run_to_lake

        w = self.w
        gen: WireGenerator | None = None
        state: dict = {}

        def seed(rep: int, manifest: dict) -> tuple[float, float]:
            nonlocal gen
            if gen is None:  # the generator is the load, not the system
                gen = WireGenerator(root, self.stream_dir)
            spool, lake = self.path(f"spool-{rep}"), self.path(f"lake-{rep}")
            t0 = op_start()
            res, _, _, _ = gen.fetch(spool, 0, w.base_shards, None)
            meta = {k: v for k, v in manifest.items() if k != "shards"}
            spooled = list(res["shards"])
            ok = self.commit(lambda: run_to_lake(dict(meta, shards=spooled), lake, self.cfg))
            took = unstolen(t0)
            if ok:
                base_last = manifest["shards"][w.base_shards - 1]["last_event_seq"]
                self.check(lake, base_last, res["next_event_seq"] - 1)
            state.update(manifest=manifest, meta=meta, spool=spool, lake=lake, spooled=spooled)
            return took

        try:
            self.set_up(seed)
            manifest, spool, lake = state["manifest"], state["spool"], state["lake"]

            def step(i: int) -> bool:
                shard = w.base_shards + i
                if shard >= w.n_shards:
                    return False
                on = self.traced(i)
                if on:
                    self.tracer.commit = i
                t0 = op_start()
                res, events, nbytes, sent_at = gen.fetch(
                    spool, shard, shard + 1, self.tracer if on else None
                )
                state["spooled"].extend(res["shards"])
                m = dict(state["meta"], shards=list(state["spooled"]))
                if on:
                    from kernels import replay_commit

                    self.tracer.count("sources.wire.events", events)
                    self.tracer.count("sources.wire.bytes", nbytes)
                    replay_commit(self.tracer, m, lake, self.path(f"scratch-{i}"), self.cfg)
                with self.span("pipelines.cdc.follow", on):
                    ok = self.commit(lambda: follow(m, lake, self.cfg))
                done = time.monotonic()
                if i > 0:
                    row_images = manifest["shards"][shard]["num_ops"]
                    self.record(i, row_images, t0, sent_at, done)
                if ok:
                    last = manifest["shards"][shard]["last_event_seq"]
                    self.check(lake, last, res["next_event_seq"] - 1)
                shutil.rmtree(self.path(f"scratch-{i}"), ignore_errors=True)
                return True

            step(0)  # warm-up: the session's first selective resume
            self.measure(step, exclude={gen.proc.pid})
        finally:
            if gen is not None:
                gen.close()

    # -- metrics -------------------------------------------------------------
    def end_to_end(self, traced: bool = False) -> dict[str, float]:
        """The end-to-end metrics over the untraced (or traced) ops.  Times
        are unstolen; ``wall_*`` are the same figures on raw wall time."""
        ops = [op for op in self.ops if op["traced"] == traced]
        sent, done = [op["sent"] for op in ops], [op["done"] for op in ops]
        fresh, n = freshness(sent, done, [op["stolen"] for op in ops])
        return {
            "row_images_per_s": statistics.median(
                op["row_images"] / (op["wall_s"] * (1 - op["stolen"])) for op in ops
            ),
            "freshness_p50_s": fresh,
            "setup_s": statistics.median(own for _, own in self.setups),
            "peak_rss_mb": self.peak_rss / 1e6,
            "commits": n,
            "wall_row_images_per_s": statistics.median(op["row_images"] / op["wall_s"] for op in ops),
            "wall_freshness_p50_s": freshness(sent, done)[0],
            "wall_setup_s": statistics.median(wall for wall, _ in self.setups),
        }

    def per_layer(self) -> dict[str, float]:
        busy = self.tracer.busy_by_commit()
        traced = [op for op in self.ops if op["traced"]]
        per_commit = []
        for op in traced:
            b, c = busy[op["i"]], self.tracer.counts[op["i"]]
            rows = op["row_images"]
            kernels = sum(b[k] for k in KERNELS)
            wall = b["pipelines.cdc.run_to_lake"] + b["pipelines.cdc.follow"]
            m = {name: c.get(name, 0.0) for name in PER_LAYER}
            for name in PER_LAYER:
                if name.endswith(".busy_s"):  # self time of the span named after the layer
                    m[name] = b[name.removesuffix(".busy_s")]
            m["sources.wire.events_per_s"] = c["sources.wire.events"] / b["sources.wire"] if b["sources.wire"] else 0.0
            m["stages.decode_stage.row_images_per_s"] = c["stages.decode_stage.row_images"] / b["stages.decode_stage"]
            m["stages.merge.combine_ratio"] = c["stages.merge.combine.rows_out"] / c["stages.merge.combine.rows_in"]
            m["pipelines.cdc.resume.readback_busy_s"] = b["pipelines.cdc.resume"]
            m["state.checkpoint.rows_rewritten_per_row_image"] = c["state.checkpoint.write.rows"] / rows
            m["pipelines.cdc.orchestration_s"] = wall - kernels
            m["pipelines.cdc.orchestration_share"] = (wall - kernels) / wall
            m["pipelines.cdc.follow.step_s"] = b["pipelines.cdc.follow"]
            m["kernels_only_row_images_per_s"] = rows / (kernels + b[PASS1_ROOT])
            per_commit.append(m)
        out = {name: median_with_count([m[name] for m in per_commit])[0] for name in PER_LAYER}
        on, off = self.end_to_end(traced=True), self.end_to_end()
        for name in ("row_images_per_s", "freshness_p50_s"):
            out[f"tracing.delta_{name}"] = on[name] - off[name]
        return out
