"""metriq benchmark: the simulate, verify and oracle workloads, end to end.

    python3 perfbench/run.py --workload simulate|verify|oracle|all --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

With --trace 0 it times each workload with no instrumentation and prints its
end-to-end metrics; with --trace 1 it runs the traced passes and prints the
per-layer metrics (see perfbench/README.md). Each workload runs in fresh
interpreters started from here: SETUP_RUNS set-up-only processes, then one
that sets up and measures. setup_s is the median time from process start
to the first timed request over all of them. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; a results
file with the environment goes to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("simulate", "verify", "oracle")
SETUP_RUNS = 4
BUDGET_S = 170  # every process of one workload's run, so a run ends within 180 s
# work units behind work_per_s, per workload
WORK_UNITS = {"simulate": "successes", "verify": "shots", "oracle": "probes"}


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, mode, size, deadline):
    """Run one worker; return (seconds from start to READY, its final JSON or None).

    The worker is killed if it is still running at `deadline` (a perf_counter value).
    """
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)
    cmd = [sys.executable, WORKER, workload, str(seed), str(seconds), mode, size, workdir]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = perf_counter() - start
            else:
                lines.append(line)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or ready is None:
        raise BenchError(f"{workload} {mode} worker exited with code {code}")
    return ready, (json.loads(lines[-1]) if mode != "setup" else None)


def percentile(values, q):
    """Linear-interpolated q-th percentile of values."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(setups, res):
    lat_ms = [x * 1e3 for x in res["latencies_s"]]
    elapsed = res["elapsed_s"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (len(lat_ms) / elapsed, "1/s"),
        "work_per_s": (res["work"] / elapsed, "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


PER_LAYER_UNITS = (("_ms", "ms"), ("ms_per_call", "ms"), (".bytes_computed", "B"), ("_pct", "%"),
                   (".slots", "count"), (".states", "count"), (".calls", "count"), (".attempts", "count"),
                   (".successes", "count"), (".threads", "count"), (".passes", "count"),
                   (".spans", "count"), ("_pass", "count"))


def unit_of(name):
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "ratio"


def commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed, res):
    return {"commit": commit(), "seed": seed, "python": res["python"], "numpy": res["numpy"],
            "nproc": len(os.sched_getaffinity(0)), "METRIQ_THREADS": res["metriq_threads"], **res["blas_threads"]}


def bench(workload, seed, seconds, trace, size):
    deadline = perf_counter() + BUDGET_S
    if trace:
        _, res = spawn(workload, seed, seconds, "trace", size, deadline)
        metrics = {k: (v, unit_of(k)) for k, v in sorted(res.pop("per_layer").items())}
    else:
        setups = [spawn(workload, seed, seconds, "setup", size, deadline)[0] for _ in range(SETUP_RUNS)]
        ready, res = spawn(workload, seed, seconds, "run", size, deadline)
        setups.append(ready)
        metrics = end_to_end(setups, res)
        res["setup_samples_s"] = setups
        res["latency_samples"] = len(res["latencies_s"])
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "size": size, "seconds": seconds,
                   "environment": environment(seed, res), "result": result, "raw": res}, fh, indent=1)
    return result, res, path


def report(workload, result, res, path):
    n = res.get("latency_samples")
    print(f"== {workload}: {result['attempted']} requests attempted, {result['failed']} failed, "
          f"failed_ratio {result['failed'] / result['attempted']:.4g} (base {result['attempted']})")
    for reason in res["failures"]:
        print(f"   FAILED {reason}")
    for name, m in result["metrics"].items():
        note = ""
        if name.startswith("latency"):
            note = f"  (over {n} requests)"
        elif name == "work_per_s":
            note = f"  ({WORK_UNITS[workload]}_per_s)"
        elif name == "setup_s":
            note = f"  (median of {len(res['setup_samples_s'])} fresh processes)"
        print(f"   {name:<52} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"   results: {os.path.relpath(path, ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "metriq", "__init__.py")):
        print(f"error: no metriq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result, res, path = bench(workload, args.seed, args.seconds, bool(args.trace), args.size)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(workload, result, res, path)
        results.append(result)
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
