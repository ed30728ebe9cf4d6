import numpy as np
import pytest

from spreekit import (
    AreaHierarchy,
    Composition,
    MarginLevel,
    MarginVector,
    aggregate_to_large,
    column_margins,
    row_margins,
    to_probabilities,
)

from conftest import make_composition, two_region_hierarchy


def test_composition_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError, match="shape"):
        Composition(("a1",), ("c1", "c2"), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="negative"):
        make_composition([[1.0, -1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        make_composition([[1.0, np.nan]])
    with pytest.raises(ValueError, match="duplicate"):
        Composition(("a1", "a1"), ("c1",), np.ones((2, 1)))


def test_composition_is_immutable():
    c = make_composition([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        c.counts[0, 0] = 9.0


def test_margins_carry_labels_and_time():
    c = make_composition([[1.0, 2.0], [3.0, 4.0]], reference_time=5)
    rows = row_margins(c)
    cols = column_margins(c)
    assert rows.ids == c.area_ids
    assert rows.level is MarginLevel.SMALL_AREA
    assert rows.reference_time == 5
    assert np.array_equal(rows.values, [3.0, 7.0])
    assert cols.ids == c.category_ids
    assert cols.level is MarginLevel.CATEGORY
    assert np.array_equal(cols.values, [4.0, 6.0])


def test_hierarchy_from_pairs_orders_and_validates():
    h = AreaHierarchy.from_pairs([("a1", "g1"), ("a2", "g2"), ("a3", "g1")])
    assert h.large_ids == ("g1", "g2")
    assert h.large_of("a3") == "g1"
    with pytest.raises(ValueError, match="assigned twice"):
        AreaHierarchy.from_pairs([("a1", "g1"), ("a1", "g2")])
    with pytest.raises(KeyError):
        h.large_of("missing")


def test_group_positions_follow_large_id_order():
    h = two_region_hierarchy(4)
    pos = h.group_positions(("a3", "a1", "a4", "a2"))
    assert list(pos) == ["g1", "g2"]
    assert pos["g1"].tolist() == [1, 3]
    assert pos["g2"].tolist() == [0, 2]


def test_aggregate_to_large_conserves_mass():
    c = make_composition([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    agg = aggregate_to_large(c, two_region_hierarchy(4))
    assert agg.area_ids == ("g1", "g2")
    assert np.array_equal(agg.counts, [[4.0, 6.0], [12.0, 14.0]])
    assert agg.total() == c.total()
    with pytest.raises(KeyError, match="not assigned"):
        aggregate_to_large(c, two_region_hierarchy(2))


def test_to_probabilities_flags_zero_rows():
    c = make_composition([[2.0, 2.0], [0.0, 0.0]])
    p = to_probabilities(c)
    assert np.array_equal(p.probs, [[0.5, 0.5], [0.0, 0.0]])
    assert p.zero_row_ids == ("a2",)


def test_margin_vector_helpers():
    m = MarginVector(("x", "y"), np.array([2.0, 3.0]), MarginLevel.CATEGORY, 1)
    assert m.total() == 5.0
    assert m.as_dict() == {"x": 2.0, "y": 3.0}
    m2 = m.with_values(np.array([4.0, 6.0]))
    assert m2.ids == m.ids and m2.reference_time == 1
    with pytest.raises(ValueError, match="shape"):
        m.with_values(np.array([1.0]))
