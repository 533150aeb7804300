"""Smoke test of the benchmark itself: every workload at its smallest size.

    python3 perfbench/selfcheck.py

Checks, for each workload:

* the untraced and traced runs exit 0 and print exactly one line on stdout,
  the result object, so cli-mix's captured CLI output never leaks;
* every metric of BENCHMARK.json is emitted with its unit, and the human
  summary names failed_frac, op_p50_ms and op_p90_ms;
* no op fails except those tagged with a known engine defect;
* two traced runs of one seed give identical hardware-independent counts and
  identical op outputs, and a non-default seed runs and passes;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fail(msg):
    raise SystemExit(f"selfcheck FAILED: {msg}")


def bench(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                           "--size", "smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc, what):
    if proc.returncode != 0:
        fail(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    if len(lines) != 1:
        fail(f"{what}: stdout has {len(lines)} lines, expected only the result")
    res = json.loads(lines[0])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(res)}")
    if not res["correct"]:
        fail(f"{what}: correct is false\n{proc.stderr[-2000:]}")
    return res


def record(workload, seed, trace):
    path = OUT / f"{workload}-seed{seed}-trace{trace}-smoke.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check_metrics(res, spec_key, what):
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"{what}: metrics {got} differ from BENCHMARK.json {want}")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail(f"{what}: {k} is not a number")


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    for w in names:
        proc = bench(w, 1, 0)
        res = result_of(proc, f"{w} untraced")
        check_metrics(res, "end_to_end", f"{w} untraced")
        for extra in ("failed_frac", "op_p50_ms", "op_p90_ms"):
            if extra not in proc.stderr:
                fail(f"{w}: summary lacks {extra}")
        rec = record(w, 1, 0)
        for key in ("seed", "python", "nproc", "commit", "source_sha256"):
            if key not in rec:
                fail(f"{w}: record lacks {key}")
        unexpected = [f for f in rec["failures"] if f["defect"] is None]
        if unexpected or res["failed"] != len(rec["failures"]):
            fail(f"{w}: unexpected failures {unexpected}")

        runs = []
        for _ in range(2):
            res = result_of(bench(w, 1, 1), f"{w} traced")
            check_metrics(res, "per_layer", f"{w} traced")
            counts = {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}
            runs.append((counts, record(w, 1, 1)["outputs_sha256"]))
        if runs[0] != runs[1]:
            fail(f"{w}: two traced runs of seed 1 differ: {runs[0]} vs {runs[1]}")
        result_of(bench(w, 7, 0), f"{w} seed 7")
        print(f"selfcheck {w}: ok", file=sys.stderr)

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(names[0], 1, 0, cwd=bare, script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("without the engine source the benchmark must fail without a result")
    print("selfcheck: all ok", file=sys.stderr)


if __name__ == "__main__":
    main()
