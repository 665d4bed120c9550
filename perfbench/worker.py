"""One benchmark process: set up a workload, then measure it.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE SIZE WORKDIR

MODE is `setup` (set up, print READY, exit), `run` (set up, print READY,
run the untraced timed phase) or `trace` (set up, then alternate untraced
and traced passes over a fixed request list). The last line on stdout is
one JSON object for `run.py`. Set-up is everything before READY: importing
metriq, generating and writing the inputs, and one untimed warm-up request
of each kind. It is run in a fresh interpreter so that `run.py` can time it
from process start.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
MAX_FAILURES_KEPT = 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One prover thread and one BLAS thread, so that the closed loop of one client
# runs on one core: on a small shared machine a thread pool's speed depends on
# what else runs. Set before numpy is imported, which reads the BLAS settings.
os.environ["METRIQ_THREADS"] = "1"
for _blas in BLAS_THREAD_VARS:
    os.environ[_blas] = "1"
sys.path.insert(0, SRC)
import numpy  # noqa: E402

import metriq  # noqa: E402

if not os.path.abspath(metriq.__file__).startswith(SRC + os.sep):
    sys.exit(f"metriq imported from {metriq.__file__}, not from {SRC}")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Requests attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def gate(self, wl, req, rc, text):
        self.attempted += 1
        reason = wl.check(req, rc, text)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_FAILURES_KEPT:
                self.reasons.append(f"{req.kind}: {reason}")


def run_list(wl, requests, tally, tracer=None):
    """Run requests back to back; gate them afterwards. Returns the wall time."""
    outputs = []
    start = perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        outputs.append(wl.run(req))
    wall = perf_counter() - start
    for req, (rc, text) in zip(requests, outputs):
        tally.gate(wl, req, rc, text)
    return wall


def timed_phase(wl, seconds, tally):
    """Closed loop, one client: cycle through the pool until `seconds` pass."""
    pool = wl.requests
    latencies, outputs = [], []
    start = perf_counter()
    now = start
    while now - start < seconds or not latencies:
        req = pool[len(latencies) % len(pool)]
        t0 = perf_counter()
        outputs.append(wl.run(req))
        now = perf_counter()
        latencies.append(now - t0)
    elapsed = now - start
    done = [pool[i % len(pool)] for i in range(len(latencies))]
    for req, (rc, text) in zip(done, outputs):
        tally.gate(wl, req, rc, text)
    return {"elapsed_s": elapsed, "latencies_s": latencies, "work": sum(r.work for r in done)}


def trace_phase(wl, seconds, tally, spans_path):
    """Alternate untraced and traced passes over the trace list until `seconds` pass."""
    requests = wl.trace_requests()
    tr = tracing.Tracer()
    untraced, traced, per_pass, lines = [], [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds or not traced:
        untraced.append(run_list(wl, requests, tally))
        tr.install()
        try:
            traced.append(run_list(wl, requests, tally, tr))
        finally:
            tr.uninstall()
        spans = tr.take()
        per_pass.append(tracing.pass_metrics(spans))
        # kept as JSON text: live span objects would slow the collector in later passes
        ids = {id(s): i for i, s in enumerate(spans)}
        lines.extend(json.dumps({"pass": len(traced) - 1, **s.to_json(ids)}) + "\n" for s in spans)
    metrics = tracing.median_metrics(per_pass)
    metrics["trace.passes"] = len(traced)
    metrics["trace.requests_per_pass"] = len(requests)
    metrics["trace.untraced_pass_ms"] = statistics.median(untraced) * 1e3
    metrics["trace.traced_pass_ms"] = statistics.median(traced) * 1e3
    # pass pairs run back to back, so their ratio cancels slow drifts of the machine
    metrics["trace.overhead_pct"] = statistics.median(t / u - 1.0 for t, u in zip(traced, untraced)) * 100.0
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return metrics


def rerun(wl, first_runs, tally):
    """Run each (request, output) pair's request again; the bytes must match."""
    for req, output in first_runs:
        tally.attempted += 1
        if wl.run(req) != output:
            tally.failed += 1
            tally.reasons.append(f"{req.kind}: rerun output differs from the first run")


def main(argv):
    """WORKDIR, an empty directory for the inputs, belongs to the caller."""
    name, seed, seconds, mode, size, workdir = argv[0], int(argv[1]), float(argv[2]), argv[3], argv[4], argv[5]
    tally = Tally()
    wl = workloads.WORKLOADS[name](seed, size, workdir)
    warm = [(req, wl.run(req)) for req in wl.warm_requests()]
    print("READY", flush=True)
    if mode == "setup":
        return 0
    for req, (rc, text) in warm:
        tally.gate(wl, req, rc, text)
    if mode == "run":
        result = timed_phase(wl, seconds, tally)
    else:
        spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
        result = {"per_layer": trace_phase(wl, seconds, tally, spans_path), "spans_file": spans_path}
    rerun(wl, warm, tally)
    result.update({
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.reasons,
        "pool_size": len(wl.requests),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "metriq_threads": os.environ["METRIQ_THREADS"],
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
