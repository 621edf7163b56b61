"""The benchmark's per-layer trace names library attributes by string;
a rename or deletion in the library must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_is_a_callable_of_its_module():
    tracing = _tracing()
    for span, mod, path in tracing.ENTRY_POINTS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{span}: {mod}.{path}"


def test_every_traced_cache_exists():
    tracing = _tracing()
    for name, (mod, attr) in tracing.CACHES.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        assert hasattr(module, attr), f"{name}: {mod}.{attr}"


def test_benchmark_smoke_run_sees_every_traced_layer():
    """Every workload, untraced and traced, at its smallest scale; a layer
    a workload no longer calls is reported as a missed patch."""
    run = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "patch missed" not in run.stdout
