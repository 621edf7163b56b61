"""Benchmark runner for the deltamatroids library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload, one table
    python3 perfbench/run.py --smoke                      # all four, untraced and traced, tiny scale

Run from the root of a source checkout; the library is imported from
src/.  Every sample runs in a fresh interpreter started by this process,
one at a time, so module caches start cold and peak RSS is per sample.

Untraced runs (--trace 0) repeat samples until --seconds have passed (at
least the workload's minimum) and report the end-to-end metrics as
medians, peak RSS as a mean.  Traced runs (--trace 1) alternate untraced
and traced samples for the same time and report the per-layer metrics of
tracing.py plus trace.overhead_ratio.
Every sample's output is checked: suite report lines against pinned
strings, `check` outputs against digests recorded at the commit that
defined this benchmark.  The last line of stdout is one JSON object;
the full run record, raw samples included, goes to .bench_work/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import queries

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RUN_DEADLINE_S = 175  # a run must end within 180 s

# Each workload: the body per scale, its pinned report lines, the minimum
# number of samples in an untraced run, and the layers its traced run must
# see called (zero calls means an entry point was not patched).
WORKLOADS = {
    "vf-exhaustive": {
        "suite": "verify_main_theorem",
        "full": {"args": [4], "lines": [
            "PASS main-theorem(max_n=4): 65790 instances, 0 failures",
            "  note: n=3: 255 proper systems",
            "  note: n=4: 65535 proper systems"]},
        "smoke": {"args": [3], "lines": [
            "PASS main-theorem(max_n=3): 255 instances, 0 failures",
            "  note: n=3: 255 proper systems"]},
        "min_samples": 3,
        "seed_use": "exhaustive: the seed is not used",
        "layers": ["verify.suite", "duality.is_vf_safe", "duality.find_catalog_3_minor",
                   "setsystem.three_minor", "setsystem.canonical_key", "setsystem.twist",
                   "setsystem.loop_complement", "exchange.check_symmetric_exchange",
                   "exchange.is_delta_matroid_cached", "catalog.s3_twisted_duals"],
    },
    "ppt-random": {
        "suite": "verify_ppt",
        # the first 50 matrices of the acceptance stream (suite seed 11)
        "full": {"args": [50, 8, 11], "lines": [
            "PASS ppt(trials=50, max_n=8, seed=11): 50 instances, 0 failures"]},
        "smoke": {"args": [10, 5, 11], "lines": [
            "PASS ppt(trials=10, max_n=5, seed=11): 10 instances, 0 failures"]},
        "min_samples": 3,
        "seed_use": "pinned suite seed 11: the benchmark seed is not used",
        "layers": ["verify.suite", "gf2.feasible_masks", "gf2.ppt", "setsystem.twist"],
    },
    "circle-derive": {
        "suite": "verify_circle_obstructions",
        # max_n=8 would take about 50 s per sample: see README.md
        "full": {"args": [7], "lines": [
            "PASS circle-obstructions(max_n=7): 996 instances, 0 failures",
            "  note: connected graphs scanned: 996"]},
        "smoke": {"args": [6], "lines": [
            "PASS circle-obstructions(max_n=6): 143 instances, 0 failures",
            "  note: connected graphs scanned: 143"]},
        "min_samples": 3,
        "seed_use": "exhaustive: the seed is not used",
        "layers": ["verify.suite", "graphs.connected_graph_keys", "graphs.graph_canonical_key",
                   "graphs.is_circle_graph", "graphs.lc_orbit_keys",
                   "formats.load_obstruction_cache"],
    },
    "check-queries": {
        # 4 batches of 10 distinct inputs from each (kind, size) cell: 360 queries
        "full": {"per_cell": 10, "batches": 4, "sizes": [4, 5, 6],
                 "warmup": "catalog:S6"},  # builds the 6-element ribbon tables outside the stream
        "smoke": {"per_cell": 1, "batches": 2, "sizes": [4], "warmup": "catalog:S4"},
        "min_samples": 2,
        "seed_use": "selects the inputs and their order",
        "layers": ["cli.main", "formats.loads", "gf2.is_binary", "gf2.feasible_masks",
                   "graphs.is_ribbon_graphic", "graphs.delta_matroid",
                   "exchange.check_symmetric_exchange", "duality.find_catalog_3_minor",
                   "setsystem.three_minor", "setsystem.canonical_key"],
    },
}
SETUP_SAMPLES = 3  # set-up is measured at least this often per untraced run


class ChildFailed(Exception):
    pass


def run_child(spec: dict, deadline: float) -> dict:
    """Run one sample in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py")], input=json.dumps(spec),
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"sample exceeded the run deadline ({timeout:.0f} s left)") from None
    if proc.returncode != 0:
        raise ChildFailed(f"sample exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """The median as the value, with quartiles and sample count."""
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def p95(values: list[float]) -> float:
    """The 95th percentile when at least ten values lie beyond it, else
    the median: with fewer than 200 values no percentile above the
    median has ten beyond it."""
    if len(values) < 200:
        return statistics.median(values)
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


class Run:
    """One invocation of one workload: its samples, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: float, traced: bool, smoke: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.scale = self.workload["smoke" if smoke else "full"]
        self.seed, self.seconds, self.traced, self.smoke = seed, seconds, traced, smoke
        self.samples: list[dict] = []
        self.setup_only: list[float] = []
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.layers: dict | None = None  # per-layer metrics of a traced run
        self.missing: list[str] = []
        self.spec = self._spec()

    def _spec(self) -> dict:
        if "suite" in self.workload:
            return {"suite": self.workload["suite"], "args": self.scale["args"],
                    "trace": False, "setup_only": False}
        batches = queries.stream(self.seed, self.scale["per_cell"], self.scale["batches"],
                                 self.scale["sizes"])
        self.query_names = [name for batch in batches for name in batch]
        qdir = WORK_DIR / "queries"
        paths = [queries.write_inputs(batch, qdir) for batch in batches]  # before any timing
        self.expected = json.loads((BENCH_DIR / "query_digests.json").read_text())["digests"]
        return {"batches": paths, "warmup": self.scale["warmup"], "trace": False, "setup_only": False}

    def _check(self, result: dict) -> None:
        if "lines" in result:
            self.attempted += result["instances"]
            mismatch = result["lines"] != self.scale["lines"]
            self.failed += result["failures"] or int(mismatch)
            if mismatch:
                self.problems.append(f"report lines differ: {result['lines'][:3]}")
        else:
            self.attempted += len(result["digests"])
            wrong = [n for n, d in zip(self.query_names, result["digests"]) if self.expected.get(n) != d]
            self.failed += len(wrong)
            if wrong:
                self.problems.append(f"wrong check output for {wrong[:5]} ({len(wrong)} total)")

    def _sample(self, deadline: float, **overrides) -> dict | None:
        try:
            result = run_child({**self.spec, **overrides}, deadline)
        except ChildFailed as exc:
            self.problems.append(str(exc))
            self.attempted += 1
            self.failed += 1
            return None
        if "wall_s" in result:
            self._check(result)
        return result

    def execute(self) -> None:
        start = time.perf_counter()
        deadline = start + RUN_DEADLINE_S
        seconds = 0 if self.smoke else self.seconds
        if self.traced:
            # untraced and traced samples alternate, so the overhead ratio
            # compares medians taken over the same stretch of time
            pairs = self._repeat(1, seconds, start, deadline,
                                 lambda: (self._sample(deadline), self._sample(deadline, trace=True)))
            plain = [p for p, _ in pairs]
            traced = [t for _, t in pairs]
            self.samples = plain + traced
            if traced:
                self.layers = dict(traced[0]["layers"])
                self.layers["trace.overhead_ratio"] = (
                    statistics.median(t["wall_s"] for t in traced)
                    / statistics.median(p["wall_s"] for p in plain))
                self.missing = traced[0]["missing_entry_points"]
                for span in self.workload["layers"]:
                    if not self.layers.get(f"{span}.calls"):
                        self.problems.append(f"traced run saw no calls to {span}: patch missed")
            return
        min_samples = 1 if self.smoke else self.workload["min_samples"]
        self.samples = self._repeat(min_samples, seconds, start, deadline,
                                    lambda: self._sample(deadline))
        setup_target = 1 if self.smoke else SETUP_SAMPLES
        while self.samples and len(self.samples) + len(self.setup_only) < setup_target:
            result = self._sample(deadline, setup_only=True)
            if result is None:
                return
            self.setup_only.append(result["setup_s"])

    @staticmethod
    def _repeat(min_count: int, seconds: float, start: float, deadline: float, step) -> list:
        """Results of step() until at least min_count are in and `seconds`
        have passed since start; stops at a failed step (None, or a pair
        holding None) and before a step that would overrun the deadline."""
        out: list = []
        last = 0.0
        while len(out) < min_count or time.perf_counter() - start < seconds:
            if time.perf_counter() + last > deadline:
                break
            t0 = time.perf_counter()
            result = step()
            if result is None or (isinstance(result, tuple) and None in result):
                break
            last = time.perf_counter() - t0
            out.append(result)
        return out

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and bool(self.samples)

    def end_to_end(self) -> dict[str, dict]:
        # a check-queries sample times each of its batches
        walls = [w for s in self.samples for w in s.get("batch_walls_s", [s["wall_s"]])]
        if "latencies_s" in self.samples[0]:
            latencies_ms = [x * 1e3 for s in self.samples for x in s["latencies_s"]]
        else:  # a batch workload makes one request per sample: the suite call
            latencies_ms = [w * 1e3 for w in walls]
        n = len(latencies_ms)
        rss = [s["peak_rss_mb"] for s in self.samples]
        return {
            "wall_s": summary(walls),
            "setup_s": summary([s["setup_s"] for s in self.samples] + self.setup_only),
            # memory is nearly deterministic, so a median would repeat to the
            # kilobyte from run to run; the mean still shows every sample
            "peak_rss_mb": {**summary(rss), "value": statistics.fmean(rss)},
            "query_p50_ms": {**summary(latencies_ms), "n": n},
            "query_p95_ms": {"value": p95(latencies_ms), "q1": None, "q3": None, "n": n},
        }

    def result(self, bench: dict) -> dict:
        metrics = {}
        if self.layers is not None:
            metrics = {m["name"]: {"value": self.layers[m["name"]], "unit": m["unit"]}
                       for m in bench["per_layer"] if m["name"] in self.layers}
        elif self.samples and not self.traced:
            e2e = self.end_to_end()
            metrics = {m["name"]: {"value": e2e[m["name"]]["value"], "unit": m["unit"]}
                       for m in bench["end_to_end"]}
        return {"correct": self.correct, "attempted": max(self.attempted, 1),
                "failed": self.failed, "metrics": metrics}

    def record(self) -> dict:
        rec = {
            "workload": self.name, "seed": self.seed, "seed_use": self.workload["seed_use"],
            "seconds": self.seconds, "trace": int(self.traced), "smoke": self.smoke,
            "python": sys.version, "nproc": os.cpu_count(), "platform": platform.platform(),
            "guards": self.samples[0]["guards"] if self.samples else None,
            "attempted": self.attempted, "failed": self.failed,
            "failed_ratio": self.failed / max(self.attempted, 1), "problems": self.problems,
            "samples": [{k: v for k, v in s.items() if k not in ("digests", "guards")}
                        for s in self.samples],
            "setup_only_samples_s": self.setup_only,
        }
        if self.samples and not self.traced:
            rec["end_to_end"] = self.end_to_end()
        if self.layers is not None:
            rec["per_layer"], rec["missing_entry_points"] = self.layers, self.missing
        return rec


def report(run: Run, bench: dict, out) -> None:
    """Human-readable table: every metric by name and unit."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"== {run.name} (seed {run.seed}, trace {int(run.traced)}"
          f"{', smoke' if run.smoke else ''}): correct={run.correct}", file=out)
    if run.samples and not run.traced:
        for name, s in run.end_to_end().items():
            spread = f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  " if s["q1"] is not None else ""
            print(f"  {name:<14} {s['value']:>12.6g} {units[name]:<6} {spread}n {s['n']}", file=out)
    elif run.layers is not None:
        for name, value in sorted(run.layers.items()):
            print(f"  {name:<48} {value:>14.6g} {units.get(name, '')}", file=out)
    print(f"  {'failed_ratio':<14} {run.failed / max(run.attempted, 1):>12.6g} "
          f"({run.failed} of {run.attempted})", file=out)
    for problem in run.problems:
        print(f"  problem: {problem}", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, one sample, untraced and traced runs of each workload")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running sample.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "deltamatroids" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: run from a deltamatroids checkout ({SRC}/deltamatroids or "
              f"{bench_file.name} is missing)", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.smoke else (bool(args.trace),)
    runs = []
    for name in names:
        for traced in modes:
            run = Run(name, args.seed, args.seconds, traced, args.smoke)
            run.execute()
            runs.append(run)
            report(run, bench, sys.stdout)
            path = WORK_DIR / "records" / f"{name}-seed{args.seed}-trace{int(traced)}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(run.record(), indent=1) + "\n")
            print(f"  record: {path.relative_to(ROOT)}", file=sys.stdout)
    if len(runs) == 1:
        print(json.dumps(runs[0].result(bench)))
    else:
        print(json.dumps({f"{r.name}/trace{int(r.traced)}": r.result(bench) for r in runs}))
    return 0 if all(r.correct for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
