"""Core-periphery hierarchies by sequential isospectral reduction.

A selection rule maps a matrix to the set of nodes worth keeping; reducing
over that set repeatedly peels the network down to a core. Nodes removed at
the same step share one peripheral level; the level removed first sits at
the bottom of the hierarchy. A result stores only its stages: core, levels
and step count are read off them, so a restriction filters the stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import isored
from .netmat import RfMatrix

__all__ = [
    "SelectionRule",
    "TraceStep",
    "HierarchyResult",
    "row_degree",
    "min_degree_rule",
    "sequential_reduce",
    "restrict_hierarchy",
]

SelectionRule = Callable[[RfMatrix], frozenset]


def row_degree(m: RfMatrix, node: str) -> int:
    """Count of nonzero entries in the node's row, self-loop included once;
    read off RfMatrix.degrees."""
    return m.degrees[m.index(node)]


def min_degree_rule(m: RfMatrix) -> frozenset:
    """Keep every node whose degree strictly exceeds the minimum degree.

    Returns the empty set when all degrees are equal, which is the
    termination signal for the sequential reduction.
    """
    if not len(m):
        raise ValueError("rule requires a nonempty matrix")
    lowest = min(m.degrees)
    return frozenset(lab for lab, d in zip(m.labels, m.degrees) if d > lowest)


@dataclass(frozen=True)
class TraceStep:
    """Degree table of one stage; removed lists the nodes the next reduction
    drops (empty on the final stage). A stage's number is its position in
    the trace."""

    degrees: dict[str, int]
    removed: tuple[str, ...]


@dataclass(frozen=True)
class HierarchyResult:
    """The stages of a sequential reduction; everything else is read off them.

    The core is the last stage's label set. Each stage that removed nodes
    gives one level: levels[0] is the level removed last before the core
    froze, levels[-1] was removed first. Core and levels partition the
    original label set.
    """

    trace: tuple[TraceStep, ...]

    @property
    def core(self) -> tuple[str, ...]:
        return tuple(self.trace[-1].degrees)

    @property
    def levels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(t.removed for t in reversed(self.trace) if t.removed)

    @property
    def step_count(self) -> int:
        return len(self.trace) - 1

    @property
    def all_labels(self) -> tuple[str, ...]:
        out = list(self.core)
        for level in self.levels:
            out.extend(level)
        return tuple(out)


def sequential_reduce(m: RfMatrix, rule: SelectionRule = min_degree_rule) -> HierarchyResult:
    """Reduce m under the rule until the rule keeps nothing or everything.

    Each round evaluates the rule, records the degree table, removes the
    complement by isospectral reduction, and repeats on the smaller matrix.
    Terminates in at most len(m) steps since every round strictly shrinks
    the label set. A rule that names a label outside the matrix makes
    isored.reduce raise ValueError naming it.
    """
    if not len(m):
        raise ValueError("cannot reduce an empty matrix")
    current = m
    trace: list[TraceStep] = []
    while True:
        degrees = dict(zip(current.labels, current.degrees))
        keep = frozenset(rule(current))
        if not keep or keep == set(current.labels):
            trace.append(TraceStep(degrees, ()))
            break
        step = isored.reduce(current, keep)
        trace.append(TraceStep(degrees, step.removed))
        current = step.reduced
    result = HierarchyResult(tuple(trace))
    if sorted(result.all_labels) != sorted(m.labels):
        raise RuntimeError("core and levels do not partition the input labels")
    return result


def restrict_hierarchy(h: HierarchyResult, subset: Iterable[str]) -> HierarchyResult:
    """Filter every stage to subset; core and levels follow from the stages.

    Relative level order is preserved, and nodes that shared a level still
    do; levels left empty drop out. Raises ValueError when subset is empty
    or names a label outside the hierarchy.
    """
    keep = set(subset)
    if not keep:
        raise ValueError("restriction subset must not be empty")
    unknown = keep.difference(h.all_labels)
    if unknown:
        names = ", ".join(repr(lab) for lab in sorted(unknown))
        raise ValueError(f"unknown node label in the restriction: {names}")
    return HierarchyResult(
        tuple(
            TraceStep(
                {lab: d for lab, d in t.degrees.items() if lab in keep},
                tuple(lab for lab in t.removed if lab in keep),
            )
            for t in h.trace
        )
    )
