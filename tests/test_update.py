from dataclasses import replace

import numpy as np
import pytest

from spreekit import (
    AreaHierarchy,
    Composition,
    IpfConfig,
    MarginLevel,
    MarginVector,
    UpdateError,
    UpdateRequest,
    aggregate_to_large,
    column_margins,
    dynamic_shares,
    fixed_shares,
    row_margins,
    spree_update,
)
from spreekit.margins import ShareVector
from spreekit.update import _config_digest

from conftest import make_composition, random_positive_table, two_region_hierarchy


def self_request(census, h, **kw):
    """Update a census onto its own margins: the result must be the census."""
    large = aggregate_to_large(census, h)
    large_totals = MarginVector(
        large.area_ids, large.counts.sum(axis=1), MarginLevel.LARGE_AREA,
        census.reference_time,
    )
    return UpdateRequest(
        seed=census,
        col_margin=column_margins(census),
        large_totals=large_totals,
        shares=fixed_shares(census, h),
        **kw,
    )


def test_self_update_returns_census():
    rng = np.random.default_rng(41)
    for _ in range(25):
        census = make_composition(random_positive_table(rng, 6, 3))
        h = two_region_hierarchy(6)
        res = spree_update(self_request(census, h))
        assert res.ipf.converged
        np.testing.assert_allclose(
            res.fitted.counts, census.counts, rtol=1e-7, atol=1e-8
        )


def test_margins_hit_and_structure_preserved():
    census = make_composition(
        [[400.0, 600.0], [300.0, 700.0], [550.0, 450.0], [200.0, 800.0]]
    )
    h = two_region_hierarchy(4)
    large_totals = MarginVector(
        ("g1", "g2"), np.array([2200.0, 2100.0]), MarginLevel.LARGE_AREA, 1
    )
    col = MarginVector(
        ("c1", "c2"), np.array([1500.0, 2800.0]), MarginLevel.CATEGORY, 1
    )
    req = UpdateRequest(census, col, large_totals, fixed_shares(census, h))
    res = spree_update(req)
    assert res.ipf.converged
    # Row margins: large totals split by census shares.
    np.testing.assert_allclose(
        res.fitted.counts.sum(axis=1), [1100.0, 1100.0, 1050.0, 1050.0], rtol=1e-8
    )
    np.testing.assert_allclose(res.fitted.counts.sum(axis=0), [1500.0, 2800.0],
                               rtol=1e-8)
    # Odds ratio of the seed survives the update.
    s, f = census.counts, res.fitted.counts
    seed_or = (s[0, 0] * s[1, 1]) / (s[0, 1] * s[1, 0])
    fit_or = (f[0, 0] * f[1, 1]) / (f[0, 1] * f[1, 0])
    assert fit_or == pytest.approx(seed_or, rel=1e-6)


def test_reconcile_factor_recorded_and_applied():
    census = make_composition([[10.0, 10.0], [10.0, 10.0]])
    h = two_region_hierarchy(2)
    large_totals = MarginVector(("g1", "g2"), np.array([30.0, 30.0]),
                                MarginLevel.LARGE_AREA)
    # Column total 30 vs row total 60: default policy doubles the columns.
    col = MarginVector(("c1", "c2"), np.array([10.0, 20.0]), MarginLevel.CATEGORY)
    res = spree_update(UpdateRequest(census, col, large_totals, fixed_shares(census, h)))
    assert res.provenance["reconcile_factor"] == pytest.approx(2.0)
    np.testing.assert_allclose(res.col_margin_used.values, [20.0, 40.0])
    np.testing.assert_allclose(res.fitted.counts.sum(), 60.0)


def test_dynamic_shares_flow_through():
    census = make_composition([[10.0, 10.0], [10.0, 10.0]])
    h = AreaHierarchy.from_pairs([("a1", "g1"), ("a2", "g1")])
    aux = MarginVector(("a1", "a2"), np.array([90.0, 10.0]), MarginLevel.SMALL_AREA, 1)
    large_totals = MarginVector(("g1",), np.array([200.0]), MarginLevel.LARGE_AREA, 1)
    col = MarginVector(("c1", "c2"), np.array([100.0, 100.0]), MarginLevel.CATEGORY, 1)
    res = spree_update(
        UpdateRequest(census, col, large_totals, dynamic_shares(aux, h))
    )
    np.testing.assert_allclose(res.row_margin_used.values, [180.0, 20.0])
    assert res.provenance["shares_mode"] == "dynamic-auxiliary"


def test_stage_tagged_errors():
    census = make_composition([[10.0, 10.0], [10.0, 10.0]])
    h = two_region_hierarchy(2)
    shares = fixed_shares(census, h)
    bad_totals = MarginVector(("zz", "g2"), np.array([30.0, 30.0]),
                              MarginLevel.LARGE_AREA)
    col = MarginVector(("c1", "c2"), np.array([30.0, 30.0]), MarginLevel.CATEGORY)
    with pytest.raises(UpdateError, match=r"\[margins\]") as exc:
        spree_update(UpdateRequest(census, col, bad_totals, shares))
    assert exc.value.stage == "margins"

    good_totals = MarginVector(("g1", "g2"), np.array([30.0, 30.0]),
                               MarginLevel.LARGE_AREA)
    with pytest.raises(UpdateError, match=r"\[reconcile\]"):
        spree_update(
            UpdateRequest(
                census,
                col.with_values(np.array([0.0, 0.0])),
                good_totals,
                shares,
            )
        )

    zero_col_seed = Composition(("a1", "a2"), ("c1", "c2"),
                                [[10.0, 0.0], [10.0, 0.0]])
    with pytest.raises(UpdateError, match=r"\[ipf\]"):
        spree_update(
            UpdateRequest(zero_col_seed, col, good_totals,
                          fixed_shares(zero_col_seed, h))
        )


def test_request_validates_label_coverage():
    census = make_composition([[1.0, 2.0], [3.0, 4.0]])
    h = two_region_hierarchy(2)
    col = MarginVector(("c1", "c2"), np.array([5.0, 5.0]), MarginLevel.CATEGORY)
    totals = MarginVector(("g1", "g2"), np.array([5.0, 5.0]), MarginLevel.LARGE_AREA)
    other = make_composition([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    with pytest.raises(ValueError, match="cover the seed"):
        UpdateRequest(census, col, totals, fixed_shares(other, two_region_hierarchy(4)))
    bad_col = MarginVector(("x", "y"), np.array([5.0, 5.0]), MarginLevel.CATEGORY)
    with pytest.raises(ValueError, match="column margin ids"):
        UpdateRequest(census, bad_col, totals, fixed_shares(census, h))


def test_provenance_fields():
    census = make_composition([[10.0, 10.0], [10.0, 10.0]], reference_time=0)
    h = two_region_hierarchy(2)
    req = self_request(census, h, ipf_config=IpfConfig(zero_mode="epsilon"))
    res = spree_update(req)
    prov = res.provenance
    assert prov["shares_mode"] == "fixed-census"
    assert prov["zero_mode"] == "epsilon"
    assert prov["converged"] is True
    assert prov["seed_time"] == 0
    assert isinstance(prov["config_digest"], str) and len(prov["config_digest"]) == 16
    # Same request, same digest; different config, different digest.
    assert spree_update(req).provenance["config_digest"] == prov["config_digest"]
    other = spree_update(self_request(census, h))
    assert other.provenance["config_digest"] != prov["config_digest"]


def test_config_digest_is_the_same_on_every_call():
    census = make_composition([[10.0, 10.0], [10.0, 10.0]])
    h = two_region_hierarchy(2)
    reqs = [self_request(census, h, ipf_config=IpfConfig(max_iterations=k)) for k in range(1, 258)]
    digests = [_config_digest(req) for req in reqs]
    assert [_config_digest(req) for req in reqs] == digests
    assert len(set(digests)) == 257


def test_config_digest_pins_its_six_fields():
    census = make_composition([[10.0, 10.0], [10.0, 10.0]])
    h = two_region_hierarchy(2)
    req = self_request(census, h)
    assert _config_digest(req) == "6c12bc72c84efb75"
    equal = IpfConfig()
    assert equal == req.ipf_config and equal is not req.ipf_config
    assert _config_digest(replace(req, ipf_config=equal)) == "6c12bc72c84efb75"
    changed = [
        replace(req, ipf_config=IpfConfig(tolerance=1e-6)),
        replace(req, ipf_config=IpfConfig(max_iterations=50)),
        replace(req, ipf_config=IpfConfig(zero_mode="epsilon")),
        replace(req, ipf_config=IpfConfig(epsilon=0.25)),
        replace(req, reconcile_policy="scale-row-to-col"),
        replace(req, shares=ShareVector(census.area_ids, req.shares.shares, h,
                                        provenance="hybrid")),
    ]
    digests = {_config_digest(r) for r in changed}
    assert len(digests) == 6 and "6c12bc72c84efb75" not in digests
    # Equal values that JSON writes differently keep their own digests.
    for cfg, digest in [
        (IpfConfig(max_iterations=1000.0), "257e817bc2aeac68"),
        (IpfConfig(epsilon=-0.0), "35f187eb36daf317"),
        (IpfConfig(epsilon=0.0), "61edd2dba011b9bb"),
    ]:
        assert _config_digest(replace(req, ipf_config=cfg)) == digest
    assert _config_digest(req) == "6c12bc72c84efb75"


def test_updates_always_run_from_census_seed():
    # Two years produce independent fits of the same seed; the second year
    # must not depend on the first year's output.
    census = make_composition([[40.0, 60.0], [30.0, 70.0]])
    h = two_region_hierarchy(2)
    shares = fixed_shares(census, h)

    def year(t, col_vals, totals):
        return UpdateRequest(
            census,
            MarginVector(("c1", "c2"), np.asarray(col_vals, float),
                         MarginLevel.CATEGORY, t),
            MarginVector(("g1", "g2"), np.asarray(totals, float),
                         MarginLevel.LARGE_AREA, t),
            shares,
        )

    first = spree_update(year(1, [80.0, 120.0], [100.0, 100.0]))
    second = spree_update(year(2, [90.0, 130.0], [110.0, 110.0]))
    only_second = spree_update(year(2, [90.0, 130.0], [110.0, 110.0]))
    np.testing.assert_array_equal(second.fitted.counts, only_second.fitted.counts)
    assert first.provenance["seed_time"] == second.provenance["seed_time"] == 0
    assert second.provenance["target_time"] == 2
