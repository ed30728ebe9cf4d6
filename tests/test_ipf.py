import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spreekit import Composition, IpfConfig, IpfError, MarginLevel, ipf_fit
from spreekit.composition import column_margins, row_margins
from spreekit.ipf import IpfResult

from conftest import make_composition, make_margin, random_positive_table

# Bounded and derandomised so the properties stay fast and repeatable.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def seed_tables(draw, decades: float = 3.0, sparse: bool = True) -> np.ndarray:
    """1-6 x 1-6 tables with cells spread over ``decades`` orders of magnitude.

    Sparse tables get a random zero pattern, including all-zero rows and
    columns; a single row or column is the near-degenerate extreme.
    """
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    exponents = draw(hnp.arrays(float, shape, elements=st.floats(0.0, decades)))
    support = draw(hnp.arrays(bool, shape)) if sparse else np.ones(shape, dtype=bool)
    return np.where(support, 10.0**exponents, 0.0)


@st.composite
def feasible_fits(draw, sparse: bool = True):
    """A seed and margins some rescaling of it meets exactly.

    The margins are those of ``diag(a) @ seed @ diag(b)`` for random ``a`` and
    ``b`` within a decade of 1, so they are feasible on the seed's own
    support and every target is positive wherever the seed has mass.
    """
    seed = draw(seed_tables(sparse=sparse))
    rows, cols = seed.shape
    a = 10.0 ** draw(hnp.arrays(float, rows, elements=st.floats(-1.0, 1.0)))
    b = 10.0 ** draw(hnp.arrays(float, cols, elements=st.floats(-1.0, 1.0)))
    solution = a[:, None] * seed * b[None, :]
    return (
        make_composition(seed),
        make_margin(solution.sum(axis=1), MarginLevel.SMALL_AREA, "a"),
        make_margin(solution.sum(axis=0), MarginLevel.CATEGORY, "c"),
    )


def reference_raking(seed, row_target, col_target, sweeps):
    """Independent alternating-scaling loop used as the oracle.

    Deliberately written loop-per-entry so it shares no code path with the
    library implementation.
    """
    x = [[float(v) for v in row] for row in seed]
    for _ in range(sweeps):
        for i, target in enumerate(row_target):
            s = sum(x[i])
            if s > 0:
                x[i] = [v * target / s for v in x[i]]
        for j, target in enumerate(col_target):
            s = sum(row[j] for row in x)
            if s > 0:
                for row in x:
                    row[j] *= target / s
    return np.array(x)


def fit_random(rng, rows, cols, cfg=IpfConfig()):
    seed = make_composition(random_positive_table(rng, rows, cols))
    rt = np.exp(rng.uniform(0.0, 4.0, size=rows))
    ct = np.exp(rng.uniform(0.0, 4.0, size=cols))
    ct *= rt.sum() / ct.sum()
    row_m = make_margin(rt, MarginLevel.SMALL_AREA, "a")
    col_m = make_margin(ct, MarginLevel.CATEGORY, "c")
    return seed, row_m, col_m, ipf_fit(seed, row_m, col_m, cfg)


def test_matches_reference_raking_sweep_for_sweep():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows, cols = rng.integers(2, 7, size=2)
        seed, row_m, col_m, res = fit_random(rng, int(rows), int(cols))
        oracle = reference_raking(
            seed.counts, row_m.values, col_m.values, res.iterations_used
        )
        np.testing.assert_allclose(res.fitted.counts, oracle, rtol=0, atol=1e-8)


@PROPERTY
@given(st.booleans(), st.data())
def test_converged_fit_hits_margins(sparse, data):
    seed, row_m, col_m = data.draw(feasible_fits(sparse=sparse))
    res = ipf_fit(seed, row_m, col_m)
    if not sparse:
        # Full support within three decades converges well inside the
        # default sweep budget.
        assert res.converged
    fitted = res.fitted.counts
    misses = np.concatenate(
        [
            np.abs(fitted.sum(axis=1) - row_m.values) / np.maximum(row_m.values, 1.0),
            np.abs(fitted.sum(axis=0) - col_m.values) / np.maximum(col_m.values, 1.0),
        ]
    )
    # A sparse support can route mass through one small cell that raking
    # fills only slowly; such a fit may stop at the sweep cap, and must say so.
    assert res.converged == (misses.max() <= res.config.tolerance)
    assert res.final_deviation == pytest.approx(misses.max(), rel=1e-12, abs=1e-15)


@PROPERTY
@given(feasible_fits())
def test_odds_ratios_preserved(problem):
    seed, row_m, col_m = problem
    s, f = seed.counts, ipf_fit(seed, row_m, col_m).fitted.counts
    # Every cross-product ratio t[i,j] t[k,l] / (t[i,l] t[k,j]) at once.
    rows, cols = range(s.shape[0]), range(s.shape[1])
    i, k, j, l = np.ix_(rows, rows, cols, cols)
    num_s, den_s = s[i, j] * s[k, l], s[i, l] * s[k, j]
    num_f, den_f = f[i, j] * f[k, l], f[i, l] * f[k, j]
    positive = (num_s > 0) & (den_s > 0)
    np.testing.assert_allclose(
        num_f[positive] / den_f[positive], num_s[positive] / den_s[positive], rtol=1e-6
    )


@PROPERTY
@given(feasible_fits())
def test_structural_zeros_stay_zero(problem):
    seed, row_m, col_m = problem
    fitted = ipf_fit(seed, row_m, col_m).fitted.counts
    assert np.all(fitted[seed.counts == 0] == 0.0)


def test_structural_zero_fit_converges():
    # A zero with a feasible support: raking converges and leaves it zero.
    seed = make_composition([[0.0, 5.0], [5.0, 5.0]])
    row_m = make_margin([4.0, 6.0], MarginLevel.SMALL_AREA, "a")
    col_m = make_margin([3.0, 7.0], MarginLevel.CATEGORY, "c")
    res = ipf_fit(seed, row_m, col_m)
    assert res.converged
    assert res.fitted.counts[0, 0] == 0.0


def test_epsilon_mode_fills_zeros():
    seed = make_composition([[0.0, 5.0], [5.0, 5.0]])
    row_m = make_margin([4.0, 6.0], MarginLevel.SMALL_AREA, "a")
    col_m = make_margin([3.0, 7.0], MarginLevel.CATEGORY, "c")
    res = ipf_fit(seed, row_m, col_m, IpfConfig(zero_mode="epsilon", epsilon=0.5))
    assert res.fitted.counts[0, 0] > 0.0
    assert res.converged


@PROPERTY
@given(seed_tables(decades=9.0))
def test_self_fit_is_single_sweep_identity(counts):
    # Raking a table to its own margins multiplies by factors of exactly 1.0.
    seed = make_composition(counts)
    res = ipf_fit(seed, row_margins(seed), column_margins(seed))
    assert res.iterations_used == 1
    np.testing.assert_array_equal(res.fitted.counts, seed.counts)


def test_error_contracts():
    seed = make_composition([[1.0, 1.0], [1.0, 1.0]])
    good_rows = make_margin([2.0, 2.0], MarginLevel.SMALL_AREA, "a")
    good_cols = make_margin([2.0, 2.0], MarginLevel.CATEGORY, "c")
    with pytest.raises(IpfError, match="disagree"):
        ipf_fit(seed, good_rows, make_margin([3.0, 2.0], MarginLevel.CATEGORY, "c"))
    with pytest.raises(IpfError, match="ids"):
        bad = make_margin([2.0, 2.0], MarginLevel.SMALL_AREA, "z")
        ipf_fit(seed, bad, good_cols)
    zero_row = make_composition([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(IpfError, match="all-zero seed row"):
        ipf_fit(zero_row, good_rows, good_cols)


def test_non_convergence_is_flagged_not_raised():
    rng = np.random.default_rng(11)
    seed, row_m, col_m, res = fit_random(
        rng, 5, 5, IpfConfig(tolerance=1e-12, max_iterations=2)
    )
    assert not res.converged
    assert res.iterations_used == 2
    assert res.final_deviation > 1e-12
    assert res.worst_margin[0] in ("row", "column")


def test_small_target_deviation_uses_absolute_floor():
    # Targets below 1 switch the denominator to 1, making the tolerance
    # absolute there.  A fit to tiny margins must still converge.
    seed = make_composition([[1e-3, 2e-3], [3e-3, 4e-3]])
    rows = make_margin([2e-3, 8e-3], MarginLevel.SMALL_AREA, "a")
    cols = make_margin([4e-3, 6e-3], MarginLevel.CATEGORY, "c")
    res = ipf_fit(seed, rows, cols)
    assert res.converged
    assert res.final_deviation <= 1e-8


def _ipf_fit_six_pass(seed, row_target, col_target, cfg=IpfConfig()):
    """Oracle: the kernel as it was, summing rows and columns afresh for
    every check (six passes per sweep) and finding dead rows by zip."""
    rt = np.asarray(row_target.values, dtype=float)
    ct = np.asarray(col_target.values, dtype=float)
    total_r, total_c = rt.sum(), ct.sum()
    if abs(total_r - total_c) > 1e-6 * max(total_r, total_c, 1.0):
        raise IpfError(
            f"margin totals disagree (rows {total_r!r}, columns {total_c!r}); "
            "reconcile the margins before fitting"
        )
    counts = np.array(seed.counts, dtype=float)
    if cfg.zero_mode == "epsilon":
        counts[counts == 0] = cfg.epsilon
    dead_rows = [
        a for a, s, t in zip(seed.area_ids, counts.sum(axis=1), rt) if s == 0 and t > 0
    ]
    if dead_rows:
        raise IpfError(f"positive row target but all-zero seed row for: {dead_rows}")
    dead_cols = [
        c for c, s, t in zip(seed.category_ids, counts.sum(axis=0), ct) if s == 0 and t > 0
    ]
    if dead_cols:
        raise IpfError(f"positive column target but all-zero seed column for: {dead_cols}")

    def deviations(counts):
        return (
            np.abs(counts.sum(axis=1) - rt) / np.maximum(rt, 1.0),
            np.abs(counts.sum(axis=0) - ct) / np.maximum(ct, 1.0),
        )

    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        row_sums = counts.sum(axis=1)
        factors = np.divide(rt, row_sums, out=np.ones_like(rt), where=row_sums > 0)
        counts *= factors[:, None]
        col_sums = counts.sum(axis=0)
        factors = np.divide(ct, col_sums, out=np.ones_like(ct), where=col_sums > 0)
        counts *= factors[None, :]
        row_dev, col_dev = deviations(counts)
        dev = max(row_dev.max(), col_dev.max())
        if dev <= cfg.tolerance:
            converged = True
            break
    if row_dev.max() >= col_dev.max():
        worst = ("row", seed.area_ids[int(row_dev.argmax())], float(row_dev.max()))
    else:
        worst = ("column", seed.category_ids[int(col_dev.argmax())], float(col_dev.max()))
    fitted = Composition(seed.area_ids, seed.category_ids, counts, row_target.reference_time)
    return IpfResult(fitted, iterations, converged, float(dev), worst, cfg)


# Seed and target scales: subnormal, ordinary, and up to about 1e300.
SEED_SCALES = (1e-320, 1.0, 1e294)
TARGET_SCALES = (1e-318, 1.0, 1e296)


@st.composite
def any_fits(draw):
    """Sparse or dense seeds with arbitrary targets of equal total: feasible
    or not, dead rows and columns, zero targets, a small or default sweep
    budget, and both zero modes.  Seeds and targets are scaled from
    subnormal to about 1e300, and a zero column target may hold a row's
    whole mass, so that the row empties during the fit."""
    seed = draw(seed_tables(decades=6.0, sparse=draw(st.booleans())))
    seed = seed * draw(st.sampled_from(SEED_SCALES))
    rows, cols = seed.shape
    target_scale = draw(st.sampled_from(TARGET_SCALES))
    # About one target in eight is zero, and most problems give the empty
    # rows and columns of their seed zero targets, so that most fits move mass.
    zero = st.sampled_from([False] * 7 + [True])

    def targets(n):
        exponents = draw(hnp.arrays(float, n, elements=st.floats(-3.0, 4.0), fill=st.nothing()))
        drawn = 10.0**exponents * target_scale
        return np.where(draw(hnp.arrays(bool, n, elements=zero)), 0.0, drawn)

    rt, ct = targets(rows), targets(cols)
    if cols > 1 and draw(st.sampled_from([False] * 3 + [True])):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        mass = seed[i].max()
        seed[i] = 0.0
        seed[i, j] = mass if mass > 0 else 1.0
        ct[j] = 0.0
    if draw(st.sampled_from([True] * 3 + [False])):
        rt[seed.sum(axis=1) == 0] = 0.0
        ct[seed.sum(axis=0) == 0] = 0.0
    if rt.sum() > 0 and ct.sum() > 0:
        ct = ct * (rt.sum() / ct.sum())
    elif rt.sum() != ct.sum():
        rt = ct = None
    cfg = IpfConfig(
        tolerance=draw(st.sampled_from([1e-8, 1e-3, 1e-14])),
        max_iterations=draw(st.sampled_from([1, 2, 7, 1000])),
        zero_mode=draw(st.sampled_from(["structural", "epsilon"])),
    )
    if rt is None:
        rt, ct = np.zeros(rows), np.zeros(cols)
    return (
        make_composition(seed),
        make_margin(rt, MarginLevel.SMALL_AREA, "a"),
        make_margin(ct, MarginLevel.CATEGORY, "c"),
        cfg,
    )


def _outcome(fit, *args):
    """The fit's result, or the type and message of what it raised, such as
    an ``IpfError`` or a numpy overflow ``RuntimeWarning``, which the test
    settings raise as an error."""
    try:
        return fit(*args)
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(any_fits())
# Row a1's mass sits in column c2, whose target is zero: the row empties in
# the first sweep, and later sweeps scale its zero sum, unconverged.
@example((
    make_composition([[0.0, 4.0], [3.0, 5.0]]),
    make_margin([2.0, 6.0], MarginLevel.SMALL_AREA, "a"),
    make_margin([8.0, 0.0], MarginLevel.CATEGORY, "c"),
    IpfConfig(max_iterations=7),
))
# A zero row target empties its row in the first sweep; later sweeps scale
# the zero sum, unconverged.
@example((
    make_composition([[1.0, 2.0], [3.0, 4.0], [0.5, 6.0]]),
    make_margin([0.0, 9.0, 7.0], MarginLevel.SMALL_AREA, "a"),
    make_margin([4.0, 12.0], MarginLevel.CATEGORY, "c"),
    IpfConfig(max_iterations=7),
))
# A zero column target empties its column in the first sweep.
@example((
    make_composition([[1.0, 2.0, 1.0], [3.0, 4.0, 2.0]]),
    make_margin([5.0, 11.0], MarginLevel.SMALL_AREA, "a"),
    make_margin([0.0, 9.0, 7.0], MarginLevel.CATEGORY, "c"),
    IpfConfig(max_iterations=7),
))
# Subnormal row and column sums, scaled up by 1e6 in the first sweep, and a
# zero column target.
@example((
    make_composition([[0.0, 4e-315, 0.0], [3e-315, 5e-315, 1e-320], [2e-320, 0.0, 7e-316]]),
    make_margin([2e-9, 5e-9, 1e-9], MarginLevel.SMALL_AREA, "a"),
    make_margin([0.0, 6e-9, 2e-9], MarginLevel.CATEGORY, "c"),
    IpfConfig(tolerance=1e-20, max_iterations=7),
))
# -0.0 targets: the factor of a row or column that has emptied is 1.0, not
# the -0.0 of its last sweep with mass, which would flip the signs of its
# zeros once per sweep.
@example((
    make_composition([[1.0, 2.0], [3.0, 4.0], [0.5, 6.0]]),
    make_margin([-0.0, 9.0, 7.0], MarginLevel.SMALL_AREA, "a"),
    make_margin([4.0, 12.0], MarginLevel.CATEGORY, "c"),
    IpfConfig(max_iterations=6),
))
@example((
    make_composition([[1.0, 2.0, 1.0], [3.0, 4.0, 2.0]]),
    make_margin([5.0, 11.0], MarginLevel.SMALL_AREA, "a"),
    make_margin([-0.0, 9.0, 7.0], MarginLevel.CATEGORY, "c"),
    IpfConfig(max_iterations=7),
))
def test_kernel_matches_six_pass_oracle(problem):
    got, want = _outcome(ipf_fit, *problem), _outcome(_ipf_fit_six_pass, *problem)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.fitted.counts.view(np.uint64).tolist() == want.fitted.counts.view(np.uint64).tolist()
    assert got.iterations_used == want.iterations_used
    assert got.converged == want.converged
    assert got.final_deviation == want.final_deviation
    assert got.worst_margin == want.worst_margin


def test_dead_row_and_column_messages_match_oracle():
    rows = make_margin([2.0, 2.0, 0.0], MarginLevel.SMALL_AREA, "a")
    cols = make_margin([2.0, 2.0], MarginLevel.CATEGORY, "c")
    # The last seed's first column sums past the float range: the dead row
    # is still reported, before that sum can warn.
    for counts in (
        [[0, 0], [1, 1], [0, 0]],
        [[0, 0], [0, 0], [1, 1]],
        [[0, 1], [0, 1], [0, 1]],
        [[0, 0], [1e308, 1], [1e308, 1]],
    ):
        seed = make_composition(counts)
        want = _outcome(_ipf_fit_six_pass, seed, rows, cols)
        assert want[0] is IpfError and want[1].startswith("positive")
        assert _outcome(ipf_fit, seed, rows, cols) == want


def test_nan_deviation_stops_the_fit_at_its_sweep():
    # The row factors overflow in the first sweep (1e296 / 3e-320), and the
    # NaN cells they leave would last through the whole sweep budget.
    seed = make_composition([[1e-320, 2e-320], [3e-320, 1e-320]])
    rows = make_margin([1e296, 2e296], MarginLevel.SMALL_AREA, "a")
    cols = make_margin([1.5e296, 1.5e296], MarginLevel.CATEGORY, "c")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(
            IpfError, match=r"^margin deviation is NaN at sweep 1: the raking overflowed$"
        ):
            ipf_fit(seed, rows, cols)


@pytest.mark.parametrize(
    "sweeps, message",
    [
        (1, "margin deviation is infinite at sweep 1: the raking overflowed"),
        (2, "margin deviation is NaN at sweep 2: the raking overflowed"),
    ],
)
def test_infinite_cells_on_the_last_sweep_stop_the_fit(sweeps, message):
    # Epsilon mode gives the seed 0.5 + 0.5 + 1e-320, and the third column's
    # factor (1/3) / 1e-320 overflows to inf in the first sweep.  The second
    # sweep's row factor 1 / inf turns the cells NaN.
    seed = make_composition([[0.0, 0.0, 1e-320]])
    rows = make_margin([1.0], MarginLevel.SMALL_AREA, "a")
    cols = make_margin([1 / 3] * 3, MarginLevel.CATEGORY, "c")
    cfg = IpfConfig(max_iterations=sweeps, zero_mode="epsilon")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(IpfError, match=f"^{message}$"):
            ipf_fit(seed, rows, cols, cfg)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tolerance": 0.0}, "tolerance must be > 0"),
        ({"tolerance": -1e-8}, "tolerance must be > 0"),
        ({"tolerance": float("nan")}, "tolerance must be > 0"),
        ({"max_iterations": 0}, "max_iterations must be >= 1"),
        ({"zero_mode": "drop"}, "unknown zero_mode 'drop'"),
        ({"zero_mode": "epsilon", "epsilon": 0.0}, "epsilon must be > 0"),
        ({"zero_mode": "epsilon", "epsilon": float("nan")}, "epsilon must be > 0"),
    ],
)
def test_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        IpfConfig(**kwargs)


def test_converged_result_above_tolerance_is_rejected():
    seed, _, _, res = fit_random(np.random.default_rng(3), 2, 2)
    with pytest.raises(ValueError, match="^converged result above tolerance$"):
        IpfResult(res.fitted, 1, True, 2 * res.config.tolerance, res.worst_margin, res.config)


def test_column_ids_must_match_the_seed_categories():
    seed = make_composition([[1.0, 1.0], [1.0, 1.0]])
    rows = make_margin([2.0, 2.0], MarginLevel.SMALL_AREA, "a")
    cols = make_margin([2.0, 2.0], MarginLevel.CATEGORY, "z")
    with pytest.raises(IpfError, match="^column target ids do not match seed category ids$"):
        ipf_fit(seed, rows, cols)


def _ipf_fit_both_margins(seed, row_target, col_target, cfg=IpfConfig()):
    """Oracle: the kernel's sweep loop as it was when it summed the columns
    and took both margins' deviations on every sweep, with the kernel's rule
    that a fit whose last sweep leaves infinite cells raises."""
    rt, ct = row_target.values, col_target.values
    total_r, total_c = np.add.reduce(rt), np.add.reduce(ct)
    if abs(total_r - total_c) > 1e-6 * max(total_r, total_c, 1.0):
        raise IpfError(
            f"margin totals disagree (rows {total_r!r}, columns {total_c!r}); "
            "reconcile the margins before fitting"
        )
    counts = np.array(seed.counts, dtype=float)
    if cfg.zero_mode == "epsilon":
        counts[counts == 0] = cfg.epsilon
    n_rows = len(rt)
    targets = np.concatenate((rt, ct))
    sums, devs = np.empty_like(targets), np.empty_like(targets)
    row_sums, col_sums = sums[:n_rows], sums[n_rows:]
    row_dev, col_dev = devs[:n_rows], devs[n_rows:]
    np.add.reduce(counts, axis=1, out=row_sums)
    dead_rows = [seed.area_ids[i] for i in np.flatnonzero((row_sums == 0) & (rt > 0))]
    if dead_rows:
        raise IpfError(f"positive row target but all-zero seed row for: {dead_rows}")
    np.add.reduce(counts, axis=0, out=col_sums)
    dead_cols = [seed.category_ids[i] for i in np.flatnonzero((col_sums == 0) & (ct > 0))]
    if dead_cols:
        raise IpfError(f"positive column target but all-zero seed column for: {dead_cols}")

    scales = np.maximum(targets, 1.0)
    row_factors, col_factors = np.empty_like(rt), np.empty_like(ct)
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        row_factors.fill(1.0)
        np.divide(rt, row_sums, out=row_factors, where=row_sums > 0)
        counts *= row_factors[:, None]
        np.add.reduce(counts, axis=0, out=col_sums)
        col_factors.fill(1.0)
        np.divide(ct, col_sums, out=col_factors, where=col_sums > 0)
        counts *= col_factors
        np.add.reduce(counts, axis=1, out=row_sums)
        np.add.reduce(counts, axis=0, out=col_sums)
        np.subtract(sums, targets, out=devs)
        np.abs(devs, out=devs)
        np.divide(devs, scales, out=devs)
        dev = np.maximum.reduce(devs)
        if dev <= cfg.tolerance:
            converged = True
            break
        if dev != dev:
            raise IpfError(f"margin deviation is NaN at sweep {iterations}: the raking overflowed")

    if dev == np.inf:
        raise IpfError(f"margin deviation is infinite at sweep {iterations}: the raking overflowed")
    row_max, col_max = np.maximum.reduce(row_dev), np.maximum.reduce(col_dev)
    if row_max >= col_max:
        worst = ("row", seed.area_ids[int(row_dev.argmax())], float(row_max))
    else:
        worst = ("column", seed.category_ids[int(col_dev.argmax())], float(col_max))
    fitted = Composition(seed.area_ids, seed.category_ids, counts, row_target.reference_time)
    return IpfResult(fitted, iterations, converged, float(dev), worst, cfg)


@st.composite
def rake_problems(draw):
    """Sparse 1-7 x 1-7 seeds with cells over 24 decades, scaled from
    subnormal to about 1e306, against targets of which about one in four is
    0.0 or -0.0: dead rows and columns, rows and columns that empty during
    the fit, and targets so far above their seed that the raking overflows
    into NaN.  Most sweep budgets are 1-5, so that many fits stop on a sweep
    whose rows are still out of tolerance."""
    shape = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    # No fill value: a table of equal cells would converge in one sweep.
    exponents = draw(hnp.arrays(float, shape, elements=st.floats(-12.0, 12.0), fill=st.nothing()))
    support = draw(hnp.arrays(bool, shape))
    seed = np.where(support, 10.0**exponents, 0.0) * draw(st.sampled_from(SEED_SCALES))
    # Ordinary targets twice as often as the other scales: a subnormal
    # target is met within any tolerance in one sweep.
    target_scale = draw(st.sampled_from((*TARGET_SCALES, 1.0, 1e4)))
    zero = st.sampled_from([None] * 6 + [0.0, -0.0])

    def targets(n):
        exponents = draw(hnp.arrays(float, n, elements=st.floats(-3.0, 4.0), fill=st.nothing()))
        drawn = 10.0**exponents * target_scale
        return np.array([v if z is None else z for v, z in zip(drawn, [draw(zero) for _ in drawn])])

    rt, ct = targets(shape[0]), targets(shape[1])
    # Most problems give the empty rows and columns of their seed zero
    # targets, so that most fits move mass.
    if draw(st.sampled_from([True] * 3 + [False])):
        rt[seed.sum(axis=1) == 0] = draw(st.sampled_from([0.0, -0.0]))
        ct[seed.sum(axis=0) == 0] = draw(st.sampled_from([0.0, -0.0]))
    if rt.sum() > 0 and ct.sum() > 0:
        ct = ct * (rt.sum() / ct.sum())
    cfg = IpfConfig(
        tolerance=draw(st.sampled_from([1e-8, 1e-3, 1e-14])),
        max_iterations=draw(st.sampled_from([1, 2, 3, 4, 5, 1000])),
        zero_mode=draw(st.sampled_from(["structural", "epsilon"])),
    )
    return (
        make_composition(seed),
        make_margin(rt, MarginLevel.SMALL_AREA, "a"),
        make_margin(ct, MarginLevel.CATEGORY, "c"),
        cfg,
    )


def _rake_bits(fit, *args):
    """Everything a fit returns, floats as their bits or repr, or the type
    and text of what it raised.  numpy's warnings are not the subject."""
    with np.errstate(all="ignore"):
        try:
            res = fit(*args)
        except ValueError as e:
            return type(e).__name__, str(e)
    axis, worst_id, worst_dev = res.worst_margin
    return (
        res.fitted.counts.view(np.uint64).tolist(),
        res.iterations_used,
        res.converged,
        repr(res.final_deviation),
        (axis, worst_id, repr(worst_dev)),
    )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rake_problems())
# Rows within tolerance while a column is not: column c2 empties with row a1,
# whose target is zero, and its target 0.5 is out of reach in every sweep.
@example((
    make_composition([[1.0, 1.0], [1000.0, 0.0]]),
    make_margin([0.0, 1000.5], MarginLevel.SMALL_AREA, "a"),
    make_margin([1000.0, 0.5], MarginLevel.CATEGORY, "c"),
    IpfConfig(tolerance=1e-3, max_iterations=3),
))
# The budget ends on a sweep whose rows are still out of tolerance.
@example((
    make_composition([[1.0, 2.0, 0.0], [3.0, 1.0, 5.0], [0.0, 4.0, 2.0]]),
    make_margin([4.0, 9.0, 7.0], MarginLevel.SMALL_AREA, "a"),
    make_margin([8.0, 5.0, 7.0], MarginLevel.CATEGORY, "c"),
    IpfConfig(tolerance=1e-14, max_iterations=2),
))
# The row factors overflow in the first sweep and leave NaN cells.
@example((
    make_composition([[1e-320, 2e-320], [3e-320, 1e-320]]),
    make_margin([1e296, 2e296], MarginLevel.SMALL_AREA, "a"),
    make_margin([1.5e296, 1.5e296], MarginLevel.CATEGORY, "c"),
    IpfConfig(),
))
# The third column's factor overflows to inf on the only sweep allowed.
@example((
    make_composition([[0.0, 0.0, 1e-320]]),
    make_margin([1.0], MarginLevel.SMALL_AREA, "a"),
    make_margin([1 / 3] * 3, MarginLevel.CATEGORY, "c"),
    IpfConfig(max_iterations=1, zero_mode="epsilon"),
))
# -0.0 targets on a row and a column.
@example((
    make_composition([[1.0, 2.0, 1.0], [3.0, 4.0, 2.0], [0.5, 6.0, 1.0]]),
    make_margin([-0.0, 9.0, 7.0], MarginLevel.SMALL_AREA, "a"),
    make_margin([-0.0, 12.0, 4.0], MarginLevel.CATEGORY, "c"),
    IpfConfig(max_iterations=5),
))
# A dead row, then a dead column.
@example((
    make_composition([[0.0, 0.0], [1.0, 1.0]]),
    make_margin([2.0, 2.0], MarginLevel.SMALL_AREA, "a"),
    make_margin([2.0, 2.0], MarginLevel.CATEGORY, "c"),
    IpfConfig(),
))
@example((
    make_composition([[0.0, 1.0], [0.0, 1.0]]),
    make_margin([2.0, 2.0], MarginLevel.SMALL_AREA, "a"),
    make_margin([2.0, 2.0], MarginLevel.CATEGORY, "c"),
    IpfConfig(),
))
def test_kernel_matches_both_margin_sweep_oracle_bitwise(problem):
    """Checking the columns only on a sweep that can stop the fit changes no
    bit of what the fit returns or raises."""
    assert _rake_bits(ipf_fit, *problem) == _rake_bits(_ipf_fit_both_margins, *problem)
