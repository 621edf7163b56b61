"""Record the expected `check` output digest of every query-pool input.

    python3 perfbench/record_digests.py

Run once, at the commit that defines the benchmark; the file it writes,
perfbench/query_digests.json, is what later runs compare against, so
rerunning it on changed library code would hide a wrong answer.
"""

from __future__ import annotations

import json
import time

import queries
from run import BENCH_DIR, WORK_DIR, run_child


def main() -> None:
    names = [name for name, _ in queries.pool()]
    paths = queries.write_inputs(names, WORK_DIR / "queries")
    result = run_child({"batches": [paths], "warmup": None, "trace": False, "setup_only": False},
                       time.perf_counter() + 600)
    payload = {"pool_seed": queries.POOL_SEED, "digests": dict(zip(names, result["digests"]))}
    (BENCH_DIR / "query_digests.json").write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
