"""Seeded input generation for the benchmark; independent of isoreduce.

The instance is fixed: INSTANCE_SEED draws the synthetic incidence pattern
and the removed node set, whatever the run's --seed. Exact elimination cost
swings by 2x or more with the graph and with the elimination order, so an
instance drawn from the run seed would measure a different problem on every
run. isoreduce keeps nodes in file order and never orders them by name, so
node names do not change the arithmetic either.
"""

from __future__ import annotations

import random
from pathlib import Path

INSTANCE_SEED = 1
ROWS, COLS, DENSITY = 60, 40, 0.25  # synth-hierarchy incidence
REMOVE = 16  # nodes removed in block-reduce-verify


def random_incidence(seed: int, rows: int, cols: int, density: float) -> list[list[int]]:
    """0/1 grid with each cell set independently with probability density."""
    rng = random.Random(seed)
    return [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]


def read_incidence(path: Path) -> tuple[list[str], list[str], list[list[int]]]:
    """Row labels, column labels and grid of a CSV file; a date row is skipped."""
    lines = [ln.split(",") for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    cols = [c.strip() for c in lines[0][1:]]
    body = lines[1:]
    if body and body[0][0].strip() == "date":
        body = body[1:]
    return [r[0].strip() for r in body], cols, [[int(c) for c in r[1:]] for r in body]


def incidence_csv(row_labels: list[str], col_labels: list[str], grid: list[list[int]]) -> str:
    lines = ["name," + ",".join(col_labels)]
    for label, row in zip(row_labels, grid):
        lines.append(label + "," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def removed_sample(seed: int, labels: list[str], count: int) -> set[int]:
    """Positions (in bipartite label order) of the nodes to remove."""
    return {labels.index(lab) for lab in random.Random(seed).sample(labels, count)}
