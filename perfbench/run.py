"""qbench benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's protocol back to back, each run with its own seed drawn
from ``--seed``, until the next run would end more than half a run past
``--seconds``, and checks each run's verdict.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` one more run of the first seed is made
with every layer traced, and the last line reports the per-layer metrics.
The line before it is the full record (runs, digests, machine), also written
under ``perfbench/out/``.  Exits 2 when the qbench sources are missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str) -> list[float]:
    """Cold set-up times, each in a fresh interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload], capture_output=True,
                              text=True, check=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def scalars_digest(scalars: dict) -> str:
    """sha256 of the canonical scalars section, without the wall-clock clops."""
    kept = {k: v for k, v in scalars.items() if k != "clops"}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy
    import qbench

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "qbench": qbench.__version__,
        "qbench_commit": git_commit(),
    }


def protocol_run(workload, seed: int, tag: str, execute=None) -> dict:
    """Prepare, time and check one protocol run; a raising run is a failed run."""
    job = workload.prepare(seed, os.path.join(OUT, "work", tag))
    execute = execute or workload.execute
    run = {"seed": seed}
    start = time.perf_counter()
    try:
        execute(job)
        run["wall_s"] = time.perf_counter() - start
        run["failures"], scalars = workload.check(job)
        run["digest"] = scalars_digest(scalars)
        for key in ("flags", "clops"):
            if key in job:
                run[key] = job[key]
    except Exception:
        run.setdefault("wall_s", time.perf_counter() - start)
        run["failures"] = [traceback.format_exc()]
        run["digest"] = None
    finally:
        workload.close(job)
    for failure in run["failures"]:
        print(f"{workload.name} seed {seed}: {failure}", file=sys.stderr)
    return run


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qbench", "__init__.py")):
        print(f"error: qbench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup_samples = [] if args.trace else measure_setup(args.workload)
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(protocol_run(workload, args.seed * 1000 + len(runs), f"{tag}-{len(runs)}"))
        median_wall = statistics.median(r["wall_s"] for r in runs)
        # the window ends at --seconds on average: a next run starts while,
        # at the median pace, it would end less than half a run past it
        if time.perf_counter() - start + median_wall / 2 > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "settings": workload.settings,
        "machine": machine(),
        "runs": runs,
    }
    if args.trace:
        from tracing import Tracer, per_layer_metrics

        tracer = Tracer()
        with tracer:
            traced = protocol_run(workload, runs[0]["seed"], f"{tag}-traced",
                                  tracer.wrap("benchmark.protocol", workload.execute))
        if traced["digest"] != runs[0]["digest"]:
            traced["failures"].append(
                f"traced scalars digest {traced['digest']} != untraced {runs[0]['digest']}")
        runs_all = runs + [traced]
        spans_path = os.path.join(OUT, f"{tag}-spans.jsonl")
        tracer.dump(spans_path)
        metrics = per_layer_metrics(tracer, traced["wall_s"], median_wall)
        record["traced"] = {**traced, "spans": os.path.relpath(spans_path, ROOT)}
    else:
        runs_all = runs
        metrics = {
            "wall_s": {"value": median_wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        record["setup_samples_s"] = setup_samples
    clops = [r["clops"] for r in runs if "clops" in r]
    if clops:
        record["clops_median"] = statistics.median(clops)
    failed = sum(1 for r in runs_all if r["failures"])
    record["error_rate"] = failed / len(runs_all)
    record["metrics"] = metrics

    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs_all),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
