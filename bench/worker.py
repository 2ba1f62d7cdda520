"""One pass of one workload in a fresh interpreter; started by run.py.

Prints a single JSON line: when set-up ended (``time.monotonic``, which
the parent shares), the pass's timings, the host probe taken around them,
its checks and, when traced, the per-layer counts.  With --setup-only it stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_probe() -> float:
    """Best of three timings of a fixed pure-Python loop that does not touch
    the package: the host's speed just before or after a pass."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file for the spans of a traced pass")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports schubsmooth

    inputs = workloads.make_inputs(args.workload, args.seed, args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    probe = host_probe()
    res = workloads.RUNNERS[args.workload](inputs)
    probe = min(probe, host_probe())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks
    layers = tracer.layer_metrics() if tracer else None
    if tracer and args.spans:
        tracer.write_spans(Path(args.spans))
    workloads.CHECKS[args.workload](inputs, res, args.seed, args.smoke)
    doc = {
        "ready": ready,
        "wall_s": res.wall_s,
        "probe_s": probe,
        "ops": res.ops,
        "latencies": res.latencies,
        "rest": res.rest,
        "rss_mb": rss_mb,
        "attempted": res.attempted,
        "failed": min(res.failed, res.attempted),
        "errors": res.errors,
        "layers": layers,
    }
    if args.workload == "queries":
        doc["smooth_share"] = sum(1 for out in res.outputs if out[0] is True) / len(inputs)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
