"""Recompute the frozen digests in reference.json from the current code.

    python3 bench/freeze.py [--seeds 128]

Run it only at a commit whose outputs are trusted: the digests are the
reference that later commits are checked against.  It stores the digest of
the closed-form coefficients at the full series order, and the queries
answer digest for seeds 0..seeds-1.  The other checks need no freezing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=128)
    args = ap.parse_args()

    order = workloads.SIZES["series"]["full"]
    closed = workloads.run_series(order).outputs[0]
    ref = {"series_digest": {str(order): workloads.digest(list(closed))}, "queries_digest": {}}
    for seed in range(args.seeds):
        res = workloads.run_queries(workloads.make_inputs("queries", seed, smoke=False))
        if res.failed:
            print(f"seed {seed}: {res.errors}", file=sys.stderr)
            return 1
        ref["queries_digest"][str(seed)] = workloads.digest(res.outputs)
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
