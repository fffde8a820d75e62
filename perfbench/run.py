"""CDC lake benchmark: replay throughput and wire-to-lake freshness.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each run is one process with one Ray
session sized to the machine's CPU count.  It builds its inputs from the
seed, checks every commit against the sequential-replay oracle and
prints, as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` and
``failed`` count commits; a commit fails on an exception or an oracle
mismatch.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones.  The line before it starts with
``# perfbench`` and records the host, versions, seed and settings.

Everything the run writes stays under ``.perfbench/`` in the repository
root: cached streams, lakes (removed at the end), Ray's session
directory, the captured log of each run, and each run's record with its
ops and spans.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import json
import os
import platform
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def stop_ray() -> None:
    """Shut Ray down and wait for every process it started to end.  The
    raylet's agents outlive it for a minute or more once orphaned, so the
    process tree is taken before the shutdown and stragglers are killed."""
    import psutil  # Ray's vendored copy, on sys.path once ray is imported
    import ray

    procs = psutil.Process().children(recursive=True)
    ray.shutdown()
    _, alive = psutil.wait_procs(procs, timeout=5)
    for p in alive:
        try:
            p.kill()
        except psutil.NoSuchProcess:
            pass
    psutil.wait_procs(alive, timeout=10)


def execute(args: argparse.Namespace, work: str) -> tuple[dict, dict]:
    import pyarrow
    import ray

    from workloads import END_TO_END, NUM_PARTITIONS, PER_LAYER, WORKLOADS, Run, cpu_speed, nproc

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    speed = [cpu_speed()]
    try:
        if args.workload == "wire_follow":
            run.wire_follow(ROOT)
        else:
            run.replay()
    finally:
        stop_ray()
        shutil.rmtree(run.run_dir, ignore_errors=True)
    speed.append(cpu_speed())

    # Ray's session directory of a run that completed holds nothing the
    # run's own log and record lack; dropping it keeps .perfbench/ small
    for d in glob.glob(os.path.join(work, "ray", f"session_*_{os.getpid()}")):
        shutil.rmtree(d, ignore_errors=True)
    e2e = run.end_to_end()
    if args.trace:
        values, declared = run.per_layer(), PER_LAYER
    else:
        values, declared = e2e, END_TO_END
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "num_partitions": NUM_PARTITIONS,
        "commits_measured": e2e["commits"],
        "setup_runs_wall_unstolen_s": run.setups,
        "wall_row_images_per_s": e2e["wall_row_images_per_s"],
        "wall_freshness_p50_s": e2e["wall_freshness_p50_s"],
        "wall_setup_s": e2e["wall_setup_s"],
        "check_s": run.check_s,
        "host_steal_share": run.steal_share,
        "host_speed_start_end": speed,
        "problems": run.problems,
    }
    record = dict(facts, ops=run.ops, spans=run.tracer.to_json() if run.tracer else None)
    os.makedirs(os.path.join(work, "records"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    with open(os.path.join(work, "records", name), "w") as f:
        json.dump(record, f)
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": unit} for n, (unit, _) in declared.items()},
    }
    return facts, result


def main(argv: list[str]) -> int:
    sys.path.insert(1, ROOT)
    args = parse_args(argv)
    os.chdir(ROOT)
    if importlib.util.find_spec("mysql_binlog_ray") is None:
        print("perfbench: the mysql_binlog_ray package is not in this checkout", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(os.path.join(work, "logs"), exist_ok=True)
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    # Ray, Ray Data and the C++ processes Ray starts write to fds 1 and 2;
    # all of it goes to the run's log so that the result stays the last
    # line of standard output
    log_path = os.path.join(
        work, "logs", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.log"
    )
    out_fd, err_fd = os.dup(1), os.dup(2)
    with open(log_path, "w") as log:
        os.dup2(log.fileno(), 1)
        os.dup2(log.fileno(), 2)
        try:
            t0 = time.perf_counter()
            facts, result = execute(args, work)
            print(f"run took {time.perf_counter() - t0:.1f} s", flush=True)
        except Exception:
            traceback.print_exc()
            result = None
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os.dup2(out_fd, 1)
            os.dup2(err_fd, 2)
    if result is None:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        print(f"perfbench: run failed; full log in {log_path}", file=sys.stderr)
        return 1
    print("# perfbench " + json.dumps(facts))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
