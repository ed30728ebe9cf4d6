import dataclasses
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreekit import (
    AreaHierarchy,
    BootstrapConfig,
    Composition,
    Households,
    LogLinearDecomposition,
    MarginLevel,
    MarginVector,
    MpiProfile,
    ProbabilityMatrix,
    ShareVector,
    UpdateRequest,
    aggregate_to_large,
    bootstrap_mse,
    column_margins,
    fixed_shares,
    row_margins,
    run_simulation,
    to_probabilities,
)
from spreekit import io as sio
from spreekit.composition import _adopted
from spreekit.margins import SHARE_SUM_TOL

from conftest import FIXTURES, make_composition, two_region_hierarchy


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
    with pytest.raises(ValueError, match=r"^areas not assigned in hierarchy: \['missing'\]$"):
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
    with pytest.raises(ValueError, match=r"^areas not assigned in hierarchy: \['a3', 'a4'\]$"):
        aggregate_to_large(c, two_region_hierarchy(2))


@pytest.mark.parametrize("seed", range(5))
def test_join_matches_per_area_loop(seed):
    """``group_positions`` and ``aggregate_to_large`` equal a loop over the
    areas bitwise, with assignments, large ids and rows each in their own
    shuffled order and some large areas left empty."""
    rng = np.random.default_rng(seed)
    n_areas, n_large = 40, 9
    small = [f"s{i}" for i in rng.permutation(n_areas)]
    large = [f"L{k}" for k in rng.permutation(n_large)]
    used = large[: n_large - 3]
    h = AreaHierarchy({s: used[rng.integers(len(used))] for s in small}, tuple(large))
    rows = tuple(rng.permutation(small))
    c = Composition(rows, ("x", "y", "z"), rng.exponential(size=(n_areas, 3)))

    groups: dict[str, list[int]] = {l: [] for l in h.large_ids}
    summed = np.zeros((n_large, 3))
    for i, a in enumerate(c.area_ids):
        groups[h.assignments[a]].append(i)
        summed[h.large_ids.index(h.assignments[a])] += c.counts[i]

    positions = h.group_positions(c.area_ids)
    assert list(positions) == list(h.large_ids)
    for l, want in groups.items():
        assert positions[l].dtype == np.asarray(want, dtype=int).dtype
        assert positions[l].tolist() == want
    assert sum(p.size == 0 for p in positions.values()) == 3
    agg = aggregate_to_large(c, h)
    assert agg.area_ids == h.large_ids
    assert agg.counts.tobytes() == summed.tobytes()

    # An unassigned area is named by the one join, the first 20 in input order.
    partial = AreaHierarchy({s: h.assignments[s] for s in small[:10]}, h.large_ids)
    unassigned = [a for a in c.area_ids if a not in partial.assignments]
    message = f"areas not assigned in hierarchy: {unassigned[:20]}"
    with pytest.raises(ValueError) as e:
        partial.group_positions(c.area_ids)
    assert str(e.value) == message
    with pytest.raises(ValueError) as e:
        aggregate_to_large(c, partial)
    assert str(e.value) == message


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


def test_probability_rows_name_the_first_bad_row():
    probs = [[0.5, 0.5], [0.0, 0.0], [0.25, 0.25], [0.125, 0.125]]
    with pytest.raises(ValueError) as e:
        ProbabilityMatrix(("a1", "a2", "a3", "a4"), ("c1", "c2"), probs, ("a2",))
    assert str(e.value) == f"row 'a3' sums to {np.float64(0.5)!r}, expected 1"
    with pytest.raises(ValueError, match="row 'a2' sums to"):
        ProbabilityMatrix(("a1", "a2"), ("c1", "c2"), probs[:2])


def _households(ids, indicators):
    n, k = len(ids), len(indicators)
    return Households(ids, ("a",) * n, ("s",) * n, [1] * n, [1.0] * n, indicators,
                      np.zeros((n, k), bool), np.zeros((n, k), bool))


_C = make_composition([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Composition(("a", "a"), ("c",), np.ones((2, 1))), "duplicate area ids: ['a']"),
        (lambda: Composition(("a",), ("c", "c"), np.ones((1, 2))),
         "duplicate category ids: ['c']"),
        (lambda: ProbabilityMatrix(("a", "a"), ("c",), np.ones((2, 1))),
         "duplicate area ids: ['a']"),
        (lambda: ProbabilityMatrix(("a",), ("c", "c"), [[0.5, 0.5]]),
         "duplicate category ids: ['c']"),
        (lambda: MarginVector(("k", "k"), [1.0, 2.0], MarginLevel.CATEGORY),
         "duplicate margin ids: ['k']"),
        (lambda: AreaHierarchy({"a1": "g"}, ("g", "g")), "duplicate large ids: ['g']"),
        (lambda: ShareVector(("a1", "a1"), [0.5, 0.5], two_region_hierarchy(2)),
         "duplicate small ids: ['a1']"),
        (lambda: LogLinearDecomposition(("a", "a"), ("c",), 0.0, [0, 0], [0], [[0], [0]]),
         "duplicate area ids: ['a']"),
        (lambda: MpiProfile(("x", "x"), (Fraction(1, 2),) * 2), "duplicate indicator ids: ['x']"),
        (lambda: _households(("h", "h"), ("x",)), "duplicate household ids: ['h']"),
        (lambda: _households(("h",), ("x", "x")), "duplicate indicator ids: ['x']"),
        # A slice or concatenation of checked ids is checked again.
        (lambda: Composition(_C.area_ids + _C.area_ids[:1], _C.category_ids, np.ones((3, 2))),
         "duplicate area ids: ['a1']"),
        (lambda: MarginVector(_C.category_ids[:1] * 2, [1.0, 2.0], MarginLevel.CATEGORY),
         "duplicate margin ids: ['c1']"),
    ],
)
def test_duplicate_ids_are_rejected_at_every_public_constructor(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


def _count_slow_checks(monkeypatch) -> list[str]:
    """Wrap ``_check_unique`` in every spreekit module that uses it; the
    returned list gets the ``what`` of each call that did not return its
    argument unchanged, that is, each call that checked its ids."""
    slow: list[str] = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "spreekit"]
    real = sys.modules["spreekit.composition"]._check_unique

    def counting(ids, what):
        out = real(ids, what)
        if out is not ids:
            slow.append(what)
        return out

    for module in modules:
        if hasattr(module, "_check_unique"):
            monkeypatch.setattr(module, "_check_unique", counting)
    return slow


def _simulate(replicates: int) -> None:
    plan = sio.load_plan(FIXTURES / "mini_plan.json")
    run_simulation(dataclasses.replace(plan, replicates=replicates))


def _bootstrap(replicates: int) -> None:
    mini = FIXTURES / "mini"
    census = sio.load_composition(mini / "census2002.csv")
    h = sio.load_hierarchy(mini / "hierarchy.csv")
    totals = sio.load_projections(mini / "projections.csv")[2013]
    col = sio.load_margin(mini / "survey_margin.csv", MarginLevel.CATEGORY, 2013)
    req = UpdateRequest(census, col, totals, fixed_shares(census, h))
    aux = sio.load_aux_populations(mini / "aux.csv")[2013]
    pool = [aux.with_values(aux.values * (1.0 + 0.05 * k)) for k in range(3)]
    design = sio.load_design(mini / "design.csv")
    bootstrap_mse(req, design, pool, BootstrapConfig(replicates=replicates, seed=7))


@pytest.mark.parametrize("run", [_simulate, _bootstrap], ids=["simulation", "bootstrap"])
def test_ids_are_checked_at_the_boundary_only(monkeypatch, run):
    counts = []
    for replicates in (2, 6):
        with monkeypatch.context() as m:
            slow = _count_slow_checks(m)
            run(replicates)
            counts.append(len(slow))
    assert counts[0] > 0
    assert counts[0] == counts[1]


_CONSTRUCTED = {"counts": Composition, "margin values": MarginVector, "shares": ShareVector}


@st.composite
def constructor_calls(draw):
    """A public constructor, its arguments with at most one fault, and the
    message it gives for that fault (None for valid arguments)."""
    name = draw(st.sampled_from(sorted(_CONSTRUCTED)))
    faults = [None, "nan", "inf", "-inf", "negative", "duplicate", "shape"]
    fault = draw(st.sampled_from(faults + ["sum"] * (name == "shares")))
    n = draw(st.integers(2 if fault == "duplicate" else 1, 5))
    ids = tuple(f"a{i}" for i in range(n))
    cells = st.one_of(st.just(-0.0), st.floats(0.0, 1e300))
    if name == "counts":
        j = draw(st.integers(1, 3))
        values = np.array(draw(st.lists(cells, min_size=n * j, max_size=n * j))).reshape(n, j)
        args = [ids, tuple(f"c{k}" for k in range(j)), values, 3]
    elif name == "margin values":
        values = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
        args = [ids, values, MarginLevel.SMALL_AREA, 3]
    else:
        regions = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        h = AreaHierarchy.from_pairs((a, f"g{r}") for a, r in zip(ids, regions))
        weights = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
        values = np.empty(n)
        for pos in h.group_positions(ids).values():
            values[pos] = weights[pos] / weights[pos].sum()
        args = [ids, values, h, 3, "dynamic-auxiliary"]
    if fault is None:
        return name, args, None
    if fault in ("nan", "inf", "-inf", "negative"):
        bad = -draw(st.floats(5e-324, 1e300)) if fault == "negative" else float(fault)
        values.flat[draw(st.integers(0, values.size - 1))] = bad
        if name == "shares":
            return name, args, "shares must lie in [0, 1]"
        problem = "negative" if fault == "negative" else "non-finite"
        return name, args, f"{name} contains {problem} values"
    if fault == "duplicate":
        args[0] = ids[:-1] + ids[:1]
        what = {"counts": "area", "margin values": "margin", "shares": "small"}[name]
        return name, args, f"duplicate {what} ids: ['a0']"
    if fault == "shape":
        # One value too many, or the values in one dimension too many or too few.
        flat = values.ravel() if values.ndim == 2 else values.reshape(1, -1)
        wrong = draw(st.sampled_from([np.append(values, values[:1], axis=0), flat]))
        args[2 if name == "counts" else 1] = wrong
        if name == "counts":
            return name, args, f"counts shape {wrong.shape} does not match ({n}, {values.shape[1]})"
        if name == "margin values":
            return name, args, f"margin values shape {wrong.shape} does not match {n} ids"
        return name, args, "shares shape does not match small ids"
    # A region whose shares sum to less than one by more than the tolerance.
    large, pos = draw(st.sampled_from([g for g in h.group_positions(ids).items() if g[1].size]))
    values[pos] *= draw(st.floats(0.5, 1 - 1e3 * SHARE_SUM_TOL))
    return name, args, f"shares in large area {large!r} sum to {values[pos].sum()!r}, expected 1"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(constructor_calls())
def test_public_constructors_check_and_the_private_one_adopts(call):
    """Composition, MarginVector and ShareVector reject a non-finite or
    negative value, a repeated id, a wrong shape and (shares) a region sum
    off by more than SHARE_SUM_TOL, each with its message.  On valid values
    ``_adopted`` keeps the array it is given, read-only, bitwise equal to
    the public constructor's copy, with equal other fields."""
    name, args, message = call
    cls = _CONSTRUCTED[name]
    if message is not None:
        with pytest.raises(ValueError) as e:
            cls(*args)
        assert str(e.value) == message
        return
    public = cls(*args)
    given_array = next(a for a in args if isinstance(a, np.ndarray))
    adopted = _adopted(cls, *args)
    for field in dataclasses.fields(cls):
        a, b = getattr(public, field.name), getattr(adopted, field.name)
        if isinstance(a, np.ndarray):
            assert b is given_array and a is not given_array
            assert not a.flags.writeable and not b.flags.writeable
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert a == b
