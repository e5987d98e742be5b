"""Chronological attendance analysis of a dated two-mode network.

Events are ordered by calendar date within named classes; group attendance
over those orderings gives the time series whose exact means and sample
variances summarize how steadily each group showed up. A series is the
counts tuple of group_attendance, paired with the events in the order the
caller gave them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .hierarchy import HierarchyResult
from .netmat import IncidenceData

__all__ = [
    "chronological_order",
    "group_attendance",
    "series_stats",
    "classify_activity",
    "level_mean_attendance",
]


def chronological_order(data: IncidenceData, event_subset: Sequence[str]) -> list[str]:
    """Sort the given events ascending by date, ties by original column order."""
    if data.dates is None:
        raise ValueError("incidence data carries no event dates")
    order = []
    for label in event_subset:
        j = data.col_index(label)
        order.append((data.dates[j], j, label))
    return [label for _, _, label in sorted(order)]


def group_attendance(
    data: IncidenceData, group: Sequence[str], events: Sequence[str]
) -> tuple[int, ...]:
    """How many group members attended each of the listed events, in the
    order given; the series is these counts paired with the events."""
    rows = [data.row_index(lab) for lab in group]
    cols = [data.col_index(lab) for lab in events]
    return tuple(sum(data.matrix[r][c] for r in rows) for c in cols)


def series_stats(counts: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Exact mean and sample variance (n-1 divisor) of the counts."""
    if len(counts) < 2:
        raise ValueError("sample variance needs at least two counts")
    n = len(counts)
    mean = Fraction(sum(counts), n)
    variance = sum((c - mean) ** 2 for c in counts) / (n - 1)
    return mean, variance


def classify_activity(data: IncidenceData) -> tuple[frozenset, frozenset]:
    """Rows more active than the mean row and columns more popular than the
    mean column, both by strict comparison against the exact mean."""
    n, m = data.shape
    total = sum(sum(row) for row in data.matrix)
    row_mean = Fraction(total, n) if n else Fraction(0)
    col_mean = Fraction(total, m) if m else Fraction(0)
    active = frozenset(
        lab for lab, row in zip(data.row_labels, data.matrix) if sum(row) > row_mean
    )
    popular = frozenset(
        lab
        for j, lab in enumerate(data.col_labels)
        if sum(row[j] for row in data.matrix) > col_mean
    )
    return active, popular


def level_mean_attendance(
    data: IncidenceData, h: HierarchyResult
) -> dict[str, dict[str, Fraction]]:
    """Exact mean attendance of each hierarchy level, split by mode.

    Row members average their row sums, column members their column sums;
    mixed levels report both under the keys "rows" and "cols".
    """
    rows = set(data.row_labels)
    cols = set(data.col_labels)
    named = [("core", h.core)]
    named.extend((f"h_{k}", level) for k, level in enumerate(h.levels, start=1))
    out: dict[str, dict[str, Fraction]] = {}
    for name, members in named:
        row_members = [lab for lab in members if lab in rows]
        col_members = [lab for lab in members if lab in cols]
        unknown = [lab for lab in members if lab not in rows and lab not in cols]
        if unknown:
            raise ValueError(f"hierarchy labels not in the data: {unknown}")
        per_mode: dict[str, Fraction] = {}
        if row_members:
            per_mode["rows"] = Fraction(
                sum(data.row_sum(lab) for lab in row_members), len(row_members)
            )
        if col_members:
            per_mode["cols"] = Fraction(
                sum(data.col_sum(lab) for lab in col_members), len(col_members)
            )
        out[name] = per_mode
    return out
