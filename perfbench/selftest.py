"""Self-test of the benchmark: python3 perfbench/selftest.py

1. Each workload, at the tiny size, untraced and traced, ends with one JSON
   line whose metrics are exactly BENCHMARK.json's end_to_end (untraced) or
   per_layer (traced) names, each with its unit, and no failed request.
2. A corrupted output (a flipped verdict, a wrong count, a shifted oracle
   value, a changed rerun) raises failed_ratio through the real gates.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import worker  # sets up sys.path for metriq, as a benchmark run does
import workloads

HERE = worker.HERE
ROOT = worker.ROOT
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SEED = 7

failures = []


def expect(ok, what):
    print(f"[selftest] {'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def check_contract(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            cmd = RUN + ["--workload", name, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{name} trace={trace}: last line is not JSON (exit {proc.returncode})")
                continue
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            numbers = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            expect(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: exit 0 and the four result keys")
            expect(got == wanted and numbers, f"{name} trace={trace}: every {key} metric with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: correct, {result['failed']}/{result['attempted']} failed")


def corrupt_simulate(rc, text):
    head, row = text.splitlines()
    cells = row.split(",")
    cells[2] = str(2 * int(cells[2]))  # twice the copies: a 5-sigma miss
    return rc, f"{head}\n{','.join(cells)}\n"


def flip_verdict(rc, text):
    blob = json.loads(text)
    blob["verdict"] = "reject" if blob["verdict"] == "accept" else "accept"
    return 1 - rc, json.dumps(blob)


def shift_oracle(rc, text):
    return rc, repr(float(text) + 1e-3)


CORRUPTIONS = {"simulate": corrupt_simulate, "verify": flip_verdict, "oracle": shift_oracle}


def check_gates():
    for name, corrupt in CORRUPTIONS.items():
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=worker.OUT)
        try:
            wl = workloads.WORKLOADS[name](SEED, "tiny", workdir)
            tally = worker.Tally()
            worker.timed_phase(wl, 0.0, tally)
            expect(tally.failed == 0, f"{name}: clean output passes its gate")

            first_runs = [(req, wl.run(req)) for req in wl.warm_requests()]
            honest_run = wl.run
            wl.run = lambda req: corrupt(*honest_run(req))
            tally = worker.Tally()
            worker.timed_phase(wl, 0.0, tally)
            expect(tally.failed == tally.attempted == 1,
                   f"{name}: corrupted output raises failed_ratio to {tally.failed}/{tally.attempted}")
            tally = worker.Tally()
            worker.rerun(wl, first_runs, tally)
            expect(tally.failed == tally.attempted == len(first_runs),
                   f"{name}: a rerun that differs from the first run fails")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory():
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=worker.OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"without the sources: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    os.makedirs(worker.OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_gates()
    check_bare_directory()
    check_contract(spec)
    print(f"[selftest] {'all checks passed' if not failures else f'{len(failures)} checks failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
