"""Benchmark of the jetbrackets engine: four seeded workloads, known answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qt-ladder --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --seconds 18            # all four workloads in turn
    python3 perfbench/selfcheck.py                   # smoke test of the benchmark

One run measures one workload in this process (every run is a fresh,
single-threaded process; nothing else runs beside it).  The engine is imported
from ``src/`` of the checkout; nothing is installed or built.

``--trace 0`` times as many whole passes of the workload as take about
``--seconds`` of reference time (see ``hostspeed.py``) and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed
number of passes twice, once untraced in a child process and once here with
every layer boundary wrapped by ``tracer.Tracer``, and reports the per-layer
metrics.  Either way the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a human summary goes to
stderr and the full record, with seed, Python version, nproc and commit, to
``.perfbench-out/`` in the checkout.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("qt-ladder", "sym-scan", "jacobi", "cli-mix")

# mean reference time of one pass, measured on the engine this benchmark was
# written against; `--seconds` buys round(seconds / PASS_REF_S) passes, so
# every run of one code does the same work however fast the host is
PASS_REF_S = {"qt-ladder": 10.2, "sym-scan": 5.5, "jacobi": 0.344, "cli-mix": 0.129}
# passes of the fixed traced run, sized to a few seconds untraced
TRACE_PASSES = {"qt-ladder": 1, "sym-scan": 1, "jacobi": 24, "cli-mix": 6}
SETUP_REPEATS = {"full": 15, "smoke": 3}
# fresh process: import plus pencil certification, caches cold
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import jetbrackets\n"
    "jetbrackets.dkdv_pencil()\n"
    "print(time.perf_counter() - t0)\n"
)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(repeats):
    """Median over fresh processes of `import jetbrackets` + `dkdv_pencil()`,
    in reference time: each child's wall time is scaled by calibration chunks
    run for a while just before and just after it."""
    import hostspeed

    times, wall = [], []
    for _ in range(repeats):
        before = hostspeed.scale_of(0.03)
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=_child_env(),
                             cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        after = hostspeed.scale_of(0.03)
        t = float(out.stdout.strip().splitlines()[-1])
        wall.append(t)
        times.append(t * (before + after) / 2)
    return statistics.median(times), {"ref_s": times, "wall_s": wall}


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "jetbrackets").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def passes_for(args):
    if args.size == "smoke":
        return 1
    return max(1, round(args.seconds / PASS_REF_S[args.workload]))


def run_passes(name, seed, size, passes, tracer=None, inside=True):
    """Run `passes` whole passes.

    Only the engine call of each op is timed; input generation, the
    known-answer check and the host-speed calibration run between timings.
    Latencies are returned in reference time (see hostspeed.py).
    `inside` lets calibration chunks run inside the timed calls; a traced run
    turns it off so that no chunk lands in a span.
    """
    from hostspeed import Clock
    from workloads import make_pass

    clock = Clock(inside=inside and tracer is None)
    wall, labels, pass_ends = [], [], []
    failures = []
    attempted = failed = stdout_bytes = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    try:
        for k in range(passes):
            for op in make_pass(name, seed, k, size, OUT / "work"):
                if tracer is not None:
                    tracer.begin_op(op.label)
                clock.begin_op()
                t0 = time.perf_counter()
                try:
                    res, err = op.run(), None
                except Exception as e:  # noqa: BLE001 - a failed op, recorded below
                    res, err = None, e
                dt = time.perf_counter() - t0
                clock.end_op(t0, dt)
                if tracer is not None:
                    tracer.end_op()
                attempted += 1
                if err is None:
                    try:
                        ok, text = op.check(res)
                    except Exception as e:  # noqa: BLE001 - a wrong answer shape
                        ok, text = False, f"check raised {type(e).__name__}: {e}"
                else:
                    ok, text = False, f"{type(err).__name__}: {err}"
                digest.update(f"{op.label}\0{text}\n".encode())
                if not ok:
                    failed += 1
                    failures.append({"label": op.label, "defect": op.defect, "detail": text[:300]})
                wall.append(dt)
                labels.append(op.label)
                stdout_bytes += op.stdout_bytes
            pass_ends.append(len(wall))
    finally:
        lat = clock.finish()
    return {
        "passes": passes, "latencies": lat, "labels": labels, "attempted": attempted,
        "failed": failed, "failures": failures, "stdout_bytes": stdout_bytes,
        "busy_s": sum(lat), "wall_busy_s": sum(wall), "wall_s": time.perf_counter() - start,
        "pass_busy_s": [sum(lat[a:b]) for a, b in zip([0] + pass_ends, pass_ends)],
        "calibration_chunks": len(clock.chunk_s), "outputs_sha256": digest.hexdigest(),
    }


def _tail(lat):
    """p90 when at least 10 samples lie beyond it, and the highest whole
    percentile that still has 10 samples beyond it."""
    n = len(lat)
    if n < 100:
        return None, None
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    top = max(p for p in range(1, 100) if n * (100 - p) / 100 >= 10)
    return cuts[89] * 1e3, (top, cuts[top - 1] * 1e3)


def _per_label(run):
    out = {}
    for label in sorted(set(run["labels"])):
        xs = [t for t, lb in zip(run["latencies"], run["labels"]) if lb == label]
        out[label] = {"n": len(xs), "median_ms": statistics.median(xs) * 1e3}
    return out


def _record(args, result, extra):
    OUT.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _commit(), "source_sha256": _source_digest(),
        "result": result, **extra,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _result(run, metrics):
    unexpected = [f for f in run["failures"] if f["defect"] is None]
    return {"correct": not unexpected, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _summary(name, metrics, run, extra):
    lines = [f"{name}: {run['attempted']} ops in {run['passes']} passes, "
             f"{run['failed']} failed"]
    for key, (v, u) in metrics.items():
        lines.append(f"  {key:36s} {v:.6g} {u}")
    for key, val in extra.items():
        lines.append(f"  {key:36s} {val}")
    for f in run["failures"]:
        tag = f"known defect {f['defect']}" if f["defect"] else "UNEXPECTED"
        lines.append(f"  failed {f['label']} ({tag}): {f['detail'][:120]}")
    print("\n".join(lines), file=sys.stderr)


def untraced(args):
    setup_s, setup_samples = measure_setup(SETUP_REPEATS[args.size])
    import jetbrackets
    jetbrackets.dkdv_pencil()
    run = run_passes(args.workload, args.seed, args.size, passes_for(args))
    lat = run["latencies"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run["attempted"] / run["busy_s"], "1/s"),
        # the geometric mean: op costs in a mix span up to three orders of
        # magnitude, and single short ops read up to 2x off on a host that
        # switches speed every few ms; the median then sits in a sparse part
        # of the mix and moves with those errors, the mean of logs does not
        "op_gmean_ms": (statistics.geometric_mean(lat) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    p90, top = _tail(lat)
    p50 = statistics.median(lat) * 1e3
    extra = {
        "failed_frac [1]": run["failed"] / run["attempted"],
        "op_p50_ms [ms]": f"{p50:.6g} (n={len(lat)})",
        "op_p90_ms [ms]": "undefined (fewer than 100 ops)" if p90 is None else
        f"{p90:.6g} (n={len(lat)}, highest with 10 beyond: p{top[0]} = {top[1]:.6g} ms)",
    }
    result = _result(run, metrics)
    _record(args, result, {
        "setup_samples": setup_samples, "failed_frac": run["failed"] / run["attempted"],
        "op_p50_ms": p50, "op_p90_ms": p90, "op_tail": top, "op_samples": len(lat), "per_label": _per_label(run),
        "failures": run["failures"], "passes": run["passes"], "busy_s": run["busy_s"],
        "wall_s": run["wall_s"], "wall_busy_s": run["wall_busy_s"],
        "pass_busy_s": run["pass_busy_s"], "calibration_chunks": run["calibration_chunks"],
        "outputs_sha256": run["outputs_sha256"]})
    _summary(args.workload, metrics, run, extra)
    return result


def fixed(args):
    """Internal: the traced run's passes, untraced, for the overhead baseline."""
    import jetbrackets
    jetbrackets.dkdv_pencil()
    run = run_passes(args.workload, args.seed, args.size, args.fixed_passes, inside=False)
    return {"busy_s": run["busy_s"], "outputs_sha256": run["outputs_sha256"],
            "attempted": run["attempted"]}


def traced(args):
    passes = 1 if args.size == "smoke" else TRACE_PASSES[args.workload]
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--size", args.size, "--fixed-passes", str(passes)],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    base = json.loads(child.stdout.strip().splitlines()[-1])

    import jetbrackets
    from jetbrackets import algebra
    from tracer import Tracer
    jetbrackets.dkdv_pencil()
    tracer = Tracer()
    boundaries = tracer.install()
    run = run_passes(args.workload, args.seed, args.size, passes, tracer=tracer)
    tracer.counts["cli.stdout_bytes"] = run["stdout_bytes"]
    metrics, traced_s = tracer.layer_metrics()
    cache = getattr(algebra, "_DERIV_CACHE", None)
    # -1 marks the private cache as absent from this version of the engine
    metrics["algebra.deriv_cache_entries"] = (len(cache) if cache is not None else -1, "count")
    # both sides in reference time, so host-speed swings between them cancel
    metrics["trace.overhead_frac"] = (run["busy_s"] / base["busy_s"] - 1, "1")
    result = _result(run, metrics)
    deterministic = base["outputs_sha256"] == run["outputs_sha256"]
    if not deterministic:
        result["correct"] = False
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}-{args.size}.csv.gz"
    tracer.write_spans(spans)
    _record(args, result, {
        "boundaries": len(boundaries), "spans": len(tracer.span_name), "spans_file": spans.name,
        "untraced_busy_s": base["busy_s"], "traced_busy_s": run["busy_s"],
        "traced_span_s": traced_s, "passes": passes,
        "outputs_sha256": run["outputs_sha256"], "outputs_match_untraced": deterministic,
        "failures": run["failures"]})
    _summary(args.workload, metrics, run, {"boundaries wrapped": len(boundaries),
                                           "spans": len(tracer.span_name),
                                           "outputs match untraced run": deterministic})
    return result


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return None
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload; all four in turn when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: every workload at its smallest size")
    ap.add_argument("--fixed-passes", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "jetbrackets" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {SRC}/jetbrackets", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    if args.workload is None:
        result = run_all(args)
    elif args.fixed_passes is not None:
        result = fixed(args)
    elif args.trace:
        result = traced(args)
    else:
        result = untraced(args)
    if result is None:
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
