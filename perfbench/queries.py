"""The check-queries input pool: graphs, matrices and set systems on 4-6
elements, generated from a fixed seed with the standard library only, so
the inputs do not depend on the code under test."""

from __future__ import annotations

import json
import random
from pathlib import Path

POOL_SEED = 20180704
KINDS = ("graph", "matrix", "system")
SIZES = (4, 5, 6)
PER_KIND_SIZE = 60  # pool = 3 kinds x 3 sizes x 60 = 540 distinct inputs


def _graph(rng: random.Random, n: int) -> dict:
    labels = list("abcdef"[:n])
    edges = [[labels[j], labels[i]] for i in range(n) for j in range(i) if rng.getrandbits(1)]
    loops = [lab for lab in labels if rng.random() < 0.25]
    return {"vertices": labels, "edges": edges, "loops": loops}


def _matrix(rng: random.Random, n: int) -> dict:
    bits = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            bits[i][j] = bits[j][i] = rng.getrandbits(1)
    return {"labels": [str(i + 1) for i in range(n)], "rows": ["".join(map(str, r)) for r in bits]}


def _system(rng: random.Random, n: int) -> dict:
    labels = list("pqrstu"[:n])
    family = [m for m in range(1 << n) if rng.getrandbits(1)] or [0]
    return {"ground": labels,
            "feasible": [[labels[i] for i in range(n) if m >> i & 1] for m in family]}


_MAKERS = {"graph": _graph, "matrix": _matrix, "system": _system}


def pool() -> list[tuple[str, str]]:
    """(name, JSON text) for every pool input, in a fixed order."""
    rng = random.Random(POOL_SEED)
    out = []
    for k in range(PER_KIND_SIZE):
        for n in SIZES:
            for kind in KINDS:
                out.append((f"{kind}{n}-{k:02d}", json.dumps(_MAKERS[kind](rng, n))))
    return out


def stream(seed: int, per_cell: int, batches: int, sizes=SIZES) -> list[list[str]]:
    """The names one run queries, in batches of the same make-up: each
    batch holds per_cell distinct inputs from every (kind, size) cell of
    the pool, in a seeded order, and no input repeats across batches."""
    rng = random.Random(seed)
    picks = [rng.sample([f"{kind}{n}-{k:02d}" for k in range(PER_KIND_SIZE)], per_cell * batches)
             for n in sizes for kind in KINDS]
    out = []
    for b in range(batches):
        batch = [name for cell in picks for name in cell[b * per_cell:(b + 1) * per_cell]]
        rng.shuffle(batch)
        out.append(batch)
    return out


def write_inputs(names: list[str], directory: Path) -> list[str]:
    """Write the named pool inputs as JSON files; return their paths."""
    texts = dict(pool())
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in names:
        path = directory / f"{name}.json"
        path.write_text(texts[name])
        paths.append(str(path))
    return paths
