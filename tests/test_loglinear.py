import math

import numpy as np
import pytest

from spreekit import Composition, LogLinearDecomposition, association_distance, decompose

from conftest import make_composition, random_positive_table


def test_decompose_reconstructs_and_centers():
    rng = np.random.default_rng(21)
    for _ in range(20):
        c = make_composition(random_positive_table(rng, 4, 5))
        d = decompose(c)
        np.testing.assert_allclose(d.reconstruct(), c.counts, rtol=1e-12)
        assert abs(d.area_effects.sum()) < 1e-9
        assert abs(d.category_effects.sum()) < 1e-9
        assert np.abs(d.interaction.sum(axis=0)).max() < 1e-9
        assert np.abs(d.interaction.sum(axis=1)).max() < 1e-9


def test_two_by_two_interaction_is_quarter_log_odds_ratio():
    # For a 2x2 table the centered interaction has one free parameter:
    # each |entry| equals log(odds ratio) / 4.
    c = make_composition([[2.0, 3.0], [5.0, 7.0]])
    d = decompose(c)
    want = math.log((2.0 * 7.0) / (3.0 * 5.0)) / 4.0
    assert d.interaction[0, 0] == pytest.approx(want, abs=1e-12)
    assert d.interaction[0, 1] == pytest.approx(-want, abs=1e-12)
    assert d.interaction[1, 0] == pytest.approx(-want, abs=1e-12)
    assert d.interaction[1, 1] == pytest.approx(want, abs=1e-12)


def test_row_column_scaling_moves_only_main_effects():
    rng = np.random.default_rng(22)
    c = make_composition(random_positive_table(rng, 3, 4))
    r = np.exp(rng.normal(size=3))
    s = np.exp(rng.normal(size=4))
    scaled = Composition(c.area_ids, c.category_ids, c.counts * r[:, None] * s[None, :])
    assert association_distance(c, scaled) < 1e-10


def test_independent_table_has_zero_interaction():
    row = np.array([1.0, 2.0, 5.0])
    col = np.array([3.0, 4.0])
    c = make_composition(np.outer(row, col))
    d = decompose(c)
    assert np.abs(d.interaction).max() < 1e-12


def test_association_distance_detects_changed_association():
    base = make_composition([[2.0, 3.0], [5.0, 7.0]])
    bumped = Composition(base.area_ids, base.category_ids, [[2.0 * 1.5, 3.0], [5.0, 7.0]])
    # In a 2x2, multiplying one cell by k moves the odds ratio by k, which
    # spreads log(k)/4 across the four centered interaction entries.
    assert association_distance(base, bumped) == pytest.approx(math.log(1.5) / 4)


def test_a_large_table_decomposes():
    """Rounding in the effects' sums grows with the table, past the
    constructor's absolute tolerance; ``decompose`` does not re-check them."""
    counts = np.random.default_rng(1).uniform(1.0, 1e9, size=(20000, 12))
    c = make_composition(counts)
    d = decompose(c)
    np.testing.assert_allclose(d.reconstruct(), counts, rtol=1e-13)
    assert association_distance(c, c) == 0.0


def test_zero_cells_rejected():
    c = make_composition([[0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="non-positive"):
        decompose(c)


def test_mismatched_labels_rejected():
    a = make_composition([[1.0, 2.0]])
    b = make_composition([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match="share"):
        association_distance(a, b)


def _effects(**overrides):
    """The effects of a valid 2 x 2 decomposition, with ``overrides``."""
    kw = dict(
        area_ids=("a1", "a2"),
        category_ids=("c1", "c2"),
        overall=1.0,
        area_effects=[0.5, -0.5],
        category_effects=[0.25, -0.25],
        interaction=[[0.1, -0.1], [-0.1, 0.1]],
    )
    kw.update(overrides)
    return LogLinearDecomposition(**kw)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"area_effects": [0.5, -0.25, -0.25]}, "main effect shapes do not match ids"),
        ({"category_effects": [0.0]}, "main effect shapes do not match ids"),
        ({"interaction": [[0.1, -0.1]]}, "interaction shape does not match ids"),
        ({"area_effects": [0.5, -0.4]}, "main effects must sum to zero"),
        ({"category_effects": [0.25, 0.25]}, "main effects must sum to zero"),
        ({"interaction": [[0.1, -0.1], [0.1, -0.1]]}, "interaction rows and columns must sum to zero"),
    ],
    ids=["area-shape", "category-shape", "interaction-shape", "area-sum", "category-sum",
         "interaction-sum"],
)
def test_decomposition_checks_its_effects(overrides, message):
    _effects()
    with pytest.raises(ValueError, match=f"^{message}$"):
        _effects(**overrides)


@pytest.fixture(scope="module")
def large_decomposition():
    """``decompose`` of a 20000 x 12 table of counts in [1, 1e9]: its column
    sums of the interaction round to about 2e-9, past an absolute 1e-9."""
    rng = np.random.default_rng(1)
    counts = rng.uniform(1, 1e9, size=(20000, 12))
    areas, categories = [f"a{i}" for i in range(20000)], [f"c{j}" for j in range(12)]
    return decompose(Composition(areas, categories, counts))


def _rebuilt(d, **overrides):
    fields = ("area_ids", "category_ids", "overall", "area_effects", "category_effects",
              "interaction")
    return LogLinearDecomposition(**{**{f: getattr(d, f) for f in fields}, **overrides})


def test_a_large_decomposition_goes_back_through_the_constructor(large_decomposition):
    d = large_decomposition
    again = _rebuilt(d)
    for name in ("area_effects", "category_effects", "interaction"):
        assert np.array_equal(getattr(again, name), getattr(d, name))


@pytest.mark.parametrize(
    "effect, message",
    [("area_effects", "main effects must sum to zero"),
     ("category_effects", "main effects must sum to zero"),
     ("interaction", "interaction rows and columns must sum to zero")],
)
def test_a_large_decomposition_off_by_more_than_rounding_is_rejected(
    large_decomposition, effect, message
):
    values = getattr(large_decomposition, effect).copy()
    values.flat[0] += 1e-3
    with pytest.raises(ValueError, match=f"^{message}$"):
        _rebuilt(large_decomposition, **{effect: values})
