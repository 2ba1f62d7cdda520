"""Benchmark of schubsmooth: four workloads, each pass in a fresh interpreter.

    python3 bench/run.py --workload avoiders --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout that holds ``src/schubsmooth``.  Passes of
the workload run one after another, each in its own interpreter, until
--seconds have gone by (at least one pass).  Set-up is also timed alone in
SETUP_ONLY_RUNS extra interpreters.  With --trace 1 one more pass runs
traced and the per-layer metrics are reported instead of the end-to-end
ones.  The last line of standard output is one JSON object; the exit code
is 1 when any check failed and 2 when the benchmark could not run.
See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("avoiders", "diagrams", "queries", "series")
SETUP_ONLY_RUNS = 3
OVERRUN = 1.05  # no pass starts that would end after OVERRUN * --seconds
# Host probe time (worker.host_probe) that the time metrics are scaled to;
# the fast state of a shared two-vCPU Xeon virtual machine, Python 3.11.
PROBE_REF_S = 0.008
TIME_LIMIT_S = 170  # every child ends by then, or the run fails


class BenchError(Exception):
    """The benchmark could not run to the end."""


def child(args: list[str], deadline: float) -> dict:
    """Run worker.py once and return its JSON line, with setup_s added."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S} s reached")
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"time limit of {TIME_LIMIT_S} s reached in {' '.join(args)}") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{tail}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready"] - spawned
    return doc


def best_of(passes: list[dict], key: str) -> list[float]:
    """Each timed call at its fastest over the passes.

    Every pass makes the same calls in the same order from a cold start, so
    call i does the same work on every pass.  On a shared host the same
    call can take half as long again while a neighbour is busy; its fastest
    repetition is the estimate least disturbed by that.
    """
    rows = [p[key] for p in passes]
    if len({len(r) for r in rows}) != 1:
        raise BenchError(f"passes timed different numbers of calls: {sorted({len(r) for r in rows})}")
    return [min(col) for col in zip(*rows)]


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, list[str]]:
    """Run the passes of one workload; return the result object and notes."""
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setups = [child(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(child(base, deadline))
        now = time.monotonic()
        if now - start >= seconds or now - start + (now - began) > OVERRUN * seconds:
            break
    setups += [p["setup_s"] for p in passes]
    probe = min(p["probe_s"] for p in passes)
    scale = PROBE_REF_S / probe
    latencies = [scale * t for t in best_of(passes, "latencies")]
    wall = sum(latencies) + scale * sum(best_of(passes, "rest"))
    done = list(passes)

    notes = [
        f"host_probe_s {probe:.6f}, the fastest of the run; time metrics scaled by {scale:.4f}",
        f"best-of pass time {wall / scale:.6f} s unscaled",
        f"passes {len(passes)}, set-ups {len(setups)}, op latency samples {len(latencies)} per pass",
        "pass times " + " ".join(f"{p['wall_s']:.4f}" for p in passes) + " s",
    ]
    if trace:
        spans = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.tsv.gz"
        traced = child(base + ["--trace", "--spans", str(spans)], deadline)
        done.append(traced)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - statistics.median(p["wall_s"] for p in passes)
        notes.append(f"spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": wall,
            "ops_per_s": passes[0]["ops"] / wall,
            "op_p50_ms": 1000 * percentile(latencies, 50),
            "op_p99_ms": 1000 * percentile(latencies, 99),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
    if workload == "queries":
        notes.append(f"smooth share of requests {passes[0]['smooth_share']:.3f}")
    attempted = sum(p["attempted"] for p in done)
    failed = sum(p["failed"] for p in done)
    for p in done:
        notes += [f"FAILED: {e}" for e in p["errors"]]
    notes.append(f"failed_share {failed / attempted if attempted else 1.0:.6g} ({failed} of {attempted})")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(metrics: dict, spec: list[dict]) -> dict:
    units = {m["name"]: m["unit"] for m in spec}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def smoke() -> int:
    """Tiny sizes, every workload, both modes: the emitted metric names
    must be exactly those declared in BENCHMARK.json."""
    spec = declared()
    status = int(sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS))
    if status:
        print("smoke: the workloads in BENCHMARK.json are not those of run.py")
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = measure(workload, 0, 0, trace, smoke=True)
            want = {m["name"] for m in spec[key]}
            got = set(result["metrics"])
            ok = got == want and result["correct"]
            status |= not ok
            print(f"smoke {workload} trace={int(trace)}: {'ok' if ok else 'FAILED'}"
                  + ("" if got == want else f" missing {sorted(want - got)} extra {sorted(got - want)}")
                  + ("" if result["correct"] else " checks failed"))
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; check metric names")
    args = ap.parse_args()

    if not (ROOT / "src" / "schubsmooth" / "__init__.py").is_file():
        print(f"no package at {ROOT / 'src' / 'schubsmooth'}: run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    spec = declared()["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = with_units(result["metrics"], spec)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"{args.workload} {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
