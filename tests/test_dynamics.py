from fractions import Fraction

import pytest

from isoreduce.dynamics import (
    chronological_order,
    classify_activity,
    group_attendance,
    level_mean_attendance,
    series_stats,
)
from isoreduce.netmat import IncidenceData, parse_incidence_csv

import dgg_expected as exp


# -- chronological ordering -----------------------------------------------------


def test_order_first_group_events(dgg):
    assert tuple(chronological_order(dgg, exp.GROUP1_EVENTS)) == exp.CHRON_GROUP1


def test_order_joint_events(dgg):
    assert tuple(chronological_order(dgg, exp.JOINT_EVENTS)) == exp.CHRON_JOINT


def test_order_second_group_events(dgg):
    assert tuple(chronological_order(dgg, exp.GROUP2_EVENTS)) == exp.CHRON_GROUP2


def test_order_single_event(dgg):
    assert chronological_order(dgg, ["E_3"]) == ["E_3"]


def test_order_requires_dates():
    data = parse_incidence_csv("name,c1\nr1,1\n")
    with pytest.raises(ValueError):
        chronological_order(data, ["c1"])


def test_order_ties_fall_back_to_column_order():
    data = parse_incidence_csv("name,c1,c2,c3\ndate,2/1,1/5,2/1\nr1,1,1,1\n")
    assert chronological_order(data, ["c3", "c2", "c1"]) == ["c2", "c1", "c3"]


# -- attendance series -------------------------------------------------------------


def test_group1_series(dgg):
    s = group_attendance(dgg, exp.G1, chronological_order(dgg, exp.GROUP1_EVENTS))
    assert s == exp.SERIES_G1_GROUP


def test_group2_series(dgg):
    s = group_attendance(dgg, exp.G2, chronological_order(dgg, exp.GROUP2_EVENTS))
    assert s == exp.SERIES_G2_GROUP


def test_empty_group_gives_zeros(dgg):
    s = group_attendance(dgg, [], ["E_1", "E_2"])
    assert s == (0, 0)


def test_unknown_labels(dgg):
    with pytest.raises(ValueError):
        group_attendance(dgg, ["nobody"], ["E_1"])
    with pytest.raises(ValueError):
        group_attendance(dgg, ["W_1"], ["E_99"])


def test_joint_only_pair_series(dgg):
    # the two women who attended joint meetings only: absent from the first,
    # present at the second and fourth, and split on the third
    s = group_attendance(dgg, exp.G3, chronological_order(dgg, exp.JOINT_EVENTS))
    assert s == (0, 2, 1, 2)
    solo = group_attendance(dgg, ["W_8"], chronological_order(dgg, exp.JOINT_EVENTS))
    assert solo == (0, 1, 1, 1)


def test_subgroup_counts_sum_to_whole(dgg):
    events = list(exp.JOINT_EVENTS)
    whole = group_attendance(dgg, list(dgg.row_labels), events)
    parts = [group_attendance(dgg, list(g), events) for g in (exp.G1, exp.G2, exp.G3)]
    for k in range(len(events)):
        assert sum(p[k] for p in parts) == whole[k]


# -- statistics ----------------------------------------------------------------------


def test_joint_meeting_statistics(dgg):
    j1 = group_attendance(dgg, exp.G1, chronological_order(dgg, exp.JOINT_EVENTS))
    assert j1 == exp.SERIES_G1_JOINT
    assert series_stats(j1) == (Fraction(11, 2), Fraction(3))
    j2 = group_attendance(dgg, exp.G2, chronological_order(dgg, exp.JOINT_EVENTS))
    assert j2 == exp.SERIES_G2_JOINT
    assert series_stats(j2) == (Fraction(17, 4), Fraction(25, 4))


def test_variance_is_exact():
    mean, var = series_stats((4, 7, 1, 5))
    assert var == Fraction(25, 4)


def test_constant_series():
    assert series_stats((3, 3, 3)) == (Fraction(3), Fraction(0))


def test_too_short_for_variance():
    with pytest.raises(ValueError):
        series_stats((5,))
    with pytest.raises(ValueError, match="at least two counts"):
        series_stats(())


# -- activity and popularity -----------------------------------------------------------


def test_dgg_activity_sets(dgg):
    active, popular = classify_activity(dgg)
    assert active == exp.ACTIVE_WOMEN
    assert popular == exp.POPULAR_EVENTS


def test_dgg_means_are_the_documented_fractions(dgg):
    total = sum(sum(r) for r in dgg.matrix)
    assert Fraction(total, 18) == Fraction(89, 18)
    assert Fraction(total, 14) == Fraction(89, 14)
    # the borderline members that force the strict comparison
    assert dgg.row_sum("W_15") == 5 and 5 > Fraction(89, 18)
    assert dgg.col_sum("E_3") == 6 and 6 < Fraction(89, 14)


def test_uniform_matrix_has_no_standouts():
    data = IncidenceData(("r1", "r2"), ("c1", "c2"), ((1, 1), (1, 1)))
    active, popular = classify_activity(data)
    assert active == frozenset() and popular == frozenset()


# -- level means -------------------------------------------------------------------------


def test_level_mean_attendance(dgg, dgg_hierarchy):
    means = level_mean_attendance(dgg, dgg_hierarchy)
    assert means["core"]["rows"] == Fraction(15, 2)
    assert means["core"]["cols"] == Fraction(46, 5)
    assert means["h_1"] == {"cols": Fraction(12)}
    assert means["h_2"] == {"rows": Fraction(8)}
    assert means["h_3"] == {"rows": Fraction(7), "cols": Fraction(11, 2)}
    assert means["h_5"] == {"rows": Fraction(4), "cols": Fraction(4)}
    assert means["h_6"] == {"rows": Fraction(3), "cols": Fraction(3)}
    assert means["h_7"] == {"rows": Fraction(2)}


def test_pooled_low_level_women_mean(dgg, dgg_hierarchy):
    # women of the four levels nearest the core pool to an average of 6.5
    women = [
        lab
        for level in dgg_hierarchy.levels[:4]
        for lab in level
        if lab in dgg.row_labels
    ]
    assert sorted(women) == ["W_12", "W_13", "W_14", "W_15"]
    mean = Fraction(sum(dgg.row_sum(w) for w in women), len(women))
    assert mean == Fraction(13, 2)


def test_level_means_reject_foreign_labels(dgg, dgg_hierarchy):
    from isoreduce.hierarchy import HierarchyResult, TraceStep

    bogus = HierarchyResult((TraceStep({"nobody": 0}, ()),))
    with pytest.raises(ValueError):
        level_mean_attendance(dgg, bogus)
