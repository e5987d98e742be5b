"""Expected values for the bundled Southern Women dataset.

The co-attendance tables and the stage-0/1 degree rows are typed from the
published tables for this dataset; the later degree rows were derived by
hand from the incidence matrix (several published cells for those stages
are misaligned or misprinted; the derivation notes live with the project's
review records, and every spot-checkable published cell agrees).
"""

W = [f"W_{i}" for i in range(1, 19)]
E = [f"E_{j}" for j in range(1, 15)]


def _row(labels, values):
    return dict(zip(labels, values))


# Women-to-women co-attendance counts (diagonal = events attended).
TABLE_W2W = [
    [8, 6, 7, 6, 3, 4, 3, 3, 3, 2, 2, 2, 2, 2, 1, 2, 1, 1],
    [6, 7, 6, 6, 3, 4, 4, 2, 3, 2, 1, 1, 2, 2, 2, 1, 0, 0],
    [7, 6, 8, 6, 4, 4, 4, 3, 4, 3, 2, 2, 3, 3, 2, 2, 1, 1],
    [6, 6, 6, 7, 4, 4, 4, 2, 3, 2, 1, 1, 2, 2, 2, 1, 0, 0],
    [3, 3, 4, 4, 4, 2, 2, 0, 2, 1, 0, 0, 1, 1, 1, 0, 0, 0],
    [4, 4, 4, 4, 2, 4, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 0, 0],
    [3, 4, 4, 4, 2, 3, 4, 2, 3, 2, 1, 1, 2, 2, 2, 1, 0, 0],
    [3, 2, 3, 2, 0, 2, 2, 3, 2, 2, 2, 2, 2, 2, 1, 2, 1, 1],
    [3, 3, 4, 3, 2, 2, 3, 2, 4, 3, 2, 2, 3, 2, 2, 2, 1, 1],
    [2, 2, 3, 2, 1, 1, 2, 2, 3, 4, 3, 3, 4, 3, 3, 2, 1, 1],
    [2, 1, 2, 1, 0, 1, 1, 2, 2, 3, 4, 4, 4, 3, 3, 2, 1, 1],
    [2, 1, 2, 1, 0, 1, 1, 2, 2, 3, 4, 6, 6, 5, 3, 2, 1, 1],
    [2, 2, 3, 2, 1, 1, 2, 2, 3, 4, 4, 6, 7, 6, 4, 2, 1, 1],
    [2, 2, 3, 2, 1, 1, 2, 2, 2, 3, 3, 5, 6, 8, 4, 1, 2, 2],
    [1, 2, 2, 2, 1, 1, 2, 1, 2, 3, 3, 3, 4, 4, 5, 1, 1, 1],
    [2, 1, 2, 1, 0, 1, 1, 2, 2, 2, 2, 2, 2, 1, 1, 2, 1, 1],
    [1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2],
    [1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2],
]

# Event-to-event co-attendance counts (diagonal = attendance).
TABLE_E2E = [
    [3, 2, 3, 2, 3, 3, 2, 3, 1, 0, 0, 0, 0, 0],
    [2, 3, 3, 2, 3, 3, 2, 3, 2, 0, 0, 0, 0, 0],
    [3, 3, 6, 4, 6, 5, 4, 5, 2, 0, 0, 0, 0, 0],
    [2, 2, 4, 4, 4, 3, 3, 3, 2, 0, 0, 0, 0, 0],
    [3, 3, 6, 4, 8, 6, 6, 7, 3, 0, 0, 0, 0, 0],
    [3, 3, 5, 3, 6, 8, 5, 7, 4, 1, 1, 1, 1, 1],
    [2, 2, 4, 3, 6, 5, 10, 8, 5, 3, 2, 4, 2, 2],
    [3, 3, 5, 3, 7, 7, 8, 14, 9, 4, 1, 5, 2, 2],
    [1, 2, 2, 2, 3, 4, 5, 9, 12, 4, 3, 5, 3, 3],
    [0, 0, 0, 0, 0, 1, 3, 4, 4, 5, 2, 5, 3, 3],
    [0, 0, 0, 0, 0, 1, 2, 1, 3, 2, 4, 2, 1, 1],
    [0, 0, 0, 0, 0, 1, 4, 5, 5, 5, 2, 6, 3, 3],
    [0, 0, 0, 0, 0, 1, 2, 2, 3, 3, 1, 3, 3, 3],
    [0, 0, 0, 0, 0, 1, 2, 2, 3, 3, 1, 3, 3, 3],
]

# Eight-level hierarchy of the 32-node two-mode network.
CORE = ("W_1", "W_2", "W_3", "W_4", "E_3", "E_5", "E_6", "E_7", "E_8")
LEVELS = (
    ("E_9",),
    ("W_14",),
    ("W_13", "E_10", "E_12"),
    ("W_12", "W_15"),
    ("W_5", "W_6", "W_7", "W_9", "W_10", "W_11", "E_4", "E_11"),
    ("W_8", "E_1", "E_2", "E_13", "E_14"),
    ("W_16", "W_17", "W_18"),
)

# Per-stage degree tables of the sequential reduction (self-loop counts once).
TRACE_DEGREES = {
    0: _row(W, [8, 7, 8, 7, 4, 4, 4, 3, 4, 4, 4, 6, 7, 8, 5, 2, 2, 2])
    | _row(E, [3, 3, 6, 4, 8, 8, 10, 14, 12, 5, 4, 6, 3, 3]),
    1: _row(W[:15], [8, 7, 8, 7, 4, 4, 4, 3, 4, 4, 4, 6, 7, 8, 5])
    | _row(E, [3, 3, 6, 4, 8, 8, 10, 15, 12, 5, 4, 6, 3, 3]),
    2: _row(
        ["W_1", "W_2", "W_3", "W_4", "W_5", "W_6", "W_7", "W_9", "W_10", "W_11", "W_12", "W_13", "W_14", "W_15"],
        [10, 9, 10, 9, 4, 4, 4, 4, 4, 4, 7, 8, 9, 5],
    )
    | _row(
        ["E_3", "E_4", "E_5", "E_6", "E_7", "E_8", "E_9", "E_10", "E_11", "E_12"],
        [6, 4, 8, 10, 10, 15, 12, 5, 4, 6],
    ),
    3: _row(["W_1", "W_2", "W_3", "W_4", "W_12", "W_13", "W_14", "W_15"], [10, 9, 10, 9, 7, 8, 9, 7])
    | _row(["E_3", "E_5", "E_6", "E_7", "E_8", "E_9", "E_10", "E_12"], [9, 10, 11, 14, 15, 13, 8, 9]),
    4: _row(["W_1", "W_2", "W_3", "W_4", "W_13", "W_14"], [10, 9, 10, 9, 7, 8])
    | _row(["E_3", "E_5", "E_6", "E_7", "E_8", "E_9", "E_10", "E_12"], [9, 10, 11, 14, 14, 11, 7, 7]),
    5: _row(["W_1", "W_2", "W_3", "W_4", "W_14"], [10, 9, 10, 9, 5])
    | _row(["E_3", "E_5", "E_6", "E_7", "E_8", "E_9"], [9, 10, 11, 11, 11, 8]),
    6: _row(["W_1", "W_2", "W_3", "W_4"], [10, 9, 10, 9])
    | _row(["E_3", "E_5", "E_6", "E_7", "E_8", "E_9"], [9, 10, 10, 10, 10, 7]),
    7: _row(["W_1", "W_2", "W_3", "W_4"], [9, 9, 9, 9])
    | _row(["E_3", "E_5", "E_6", "E_7", "E_8"], [9, 9, 9, 9, 9]),
}

TRACE_REMOVED = {
    0: ("W_16", "W_17", "W_18"),
    1: ("W_8", "E_1", "E_2", "E_13", "E_14"),
    2: ("W_5", "W_6", "W_7", "W_9", "W_10", "W_11", "E_4", "E_11"),
    3: ("W_12", "W_15"),
    4: ("W_13", "E_10", "E_12"),
    5: ("W_14",),
    6: ("E_9",),
    7: (),
}

# Restrictions of the hierarchy.
RESTRICT_WOMEN = {
    "core": ("W_1", "W_2", "W_3", "W_4"),
    "levels": (
        ("W_14",),
        ("W_13",),
        ("W_12", "W_15"),
        ("W_5", "W_6", "W_7", "W_9", "W_10", "W_11"),
        ("W_8",),
        ("W_16", "W_17", "W_18"),
    ),
}
RESTRICT_EVENTS = {
    "core": ("E_3", "E_5", "E_6", "E_7", "E_8"),
    "levels": (("E_9",), ("E_10", "E_12"), ("E_4", "E_11"), ("E_1", "E_2", "E_13", "E_14")),
}
RESTRICT_G1 = {
    "core": ("W_1", "W_2", "W_3", "W_4"),
    "levels": (("W_5", "W_6", "W_7", "W_9"),),
}
RESTRICT_G2 = {
    "core": (),
    "levels": (("W_14",), ("W_13",), ("W_12", "W_15"), ("W_10", "W_11"), ("W_17", "W_18")),
}

# Single-mode hierarchies.
ROWS_MODE = {
    "core": tuple(f"W_{i}" for i in (1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)),
    "levels": (("W_17", "W_18"), ("W_5",)),
}
COLS_MODE = {
    "core": ("E_6", "E_7", "E_8", "E_9"),
    "levels": ((tuple(f"E_{j}" for j in (1, 2, 3, 4, 5, 10, 11, 12, 13, 14))),),
}

# Group definitions and chronological attendance.
G1 = tuple(f"W_{i}" for i in (1, 2, 3, 4, 5, 6, 7, 9))
G2 = tuple(f"W_{i}" for i in (10, 11, 12, 13, 14, 15, 17, 18))
G3 = ("W_8", "W_16")
GROUP1_EVENTS = tuple(f"E_{j}" for j in range(1, 6))
JOINT_EVENTS = tuple(f"E_{j}" for j in range(6, 10))
GROUP2_EVENTS = tuple(f"E_{j}" for j in range(10, 15))

CHRON_GROUP1 = ("E_5", "E_2", "E_3", "E_1", "E_4")
CHRON_JOINT = ("E_7", "E_9", "E_6", "E_8")
CHRON_GROUP2 = ("E_11", "E_12", "E_10", "E_13", "E_14")

SERIES_G1_GROUP = (8, 3, 6, 3, 4)
SERIES_G2_GROUP = (4, 6, 5, 3, 3)
SERIES_G1_JOINT = (6, 3, 6, 7)
SERIES_G2_JOINT = (4, 7, 1, 5)

ACTIVE_WOMEN = frozenset(f"W_{i}" for i in (1, 2, 3, 4, 12, 13, 14, 15))
POPULAR_EVENTS = frozenset(f"E_{j}" for j in (5, 6, 7, 8, 9))

# The keep set of the benchmark's block-reduce-verify workload: a 16-node elimination.
BLOCK_KEEP = "W_1 W_2 W_5 W_6 W_8 W_10 W_11 W_12 W_14 W_17 W_18 E_2 E_5 E_9 E_11 E_13"
