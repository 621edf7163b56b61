"""One measured sample in a fresh interpreter.

Usage: python3 child.py < spec.json   (with the library on PYTHONPATH)

The spec names either a verify suite and its arguments or batches of
`check` inputs.  The child times set-up (importing the library plus the
one-time tables), then the body, and prints one JSON object: timings,
peak RSS, the suite's report lines or each query's output digest, the
guards read from the modules and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

GUARDS = (
    ("setsystem", "MAX_CANON"),
    ("duality", "ORBIT_GUARD"),
    ("graphs", "CIRCLE_GUARD"),
    ("graphs", "VERTEX_MINOR_GUARD"),
    ("graphs", "OBSTRUCTION_GUARD"),
    ("graphs", "RIBBON_GUARD"),
)


def check_digest(cli, ref: str) -> str:
    """Digest of the exit code and stdout of `deltamatroids check ref`."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(["check", ref])
    except Exception as exc:  # a crash is a wrong answer, not an abort
        rc = f"exception {type(exc).__name__}"
    return hashlib.sha256(f"{rc}\n{out.getvalue()}".encode()).hexdigest()


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    import deltamatroids
    from deltamatroids import catalog, cli, graphs, verify

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer().install()
    catalog.s3_twisted_duals()
    graphs.circle_obstructions()
    if spec.get("warmup"):
        check_digest(cli, spec["warmup"])
    result: dict = {"setup_s": time.perf_counter() - t0}

    if not spec["setup_only"]:
        if "suite" in spec:
            t1 = time.perf_counter()
            report = getattr(verify, spec["suite"])(*spec["args"])
            result["wall_s"] = time.perf_counter() - t1
            result["lines"] = report.lines()
            result["instances"] = report.instances
            result["failures"] = len(report.failures)
        else:
            digests, latencies, walls = [], [], []
            for batch in spec["batches"]:
                b0 = time.perf_counter()
                for path in batch:
                    q0 = time.perf_counter()
                    digests.append(check_digest(cli, path))
                    latencies.append(time.perf_counter() - q0)
                walls.append(time.perf_counter() - b0)
            result["wall_s"] = sum(walls)
            result["batch_walls_s"] = walls
            result["digests"] = digests
            result["latencies_s"] = latencies

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["guards"] = {
        name: getattr(getattr(deltamatroids, mod, None), name, None) for mod, name in GUARDS
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing_entry_points"] = tracer.missing
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.load(sys.stdin))))
