"""End-to-end census update for a target year.

Builds the small-area row margin from large-area totals and shares,
reconciles it with the survey column margin, rakes the census seed to both,
and returns the fitted table with the request it came from.  Its provenance
(shares mode, scaling factor, config digest), which keeps fixed, dynamic,
and hybrid runs distinguishable downstream, is built from them each time it
is read; an update writes nothing onto its request.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from spreekit.composition import Composition, MarginVector
from spreekit.ipf import IpfConfig, IpfResult, ipf_fit
from spreekit.margins import ReconcilePolicy, ShareVector, distribute, reconcile_margins


class UpdateError(RuntimeError):
    """Failure of one stage of an update, with that stage named."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class UpdateRequest:
    """Inputs for one target-year update.

    The seed is the census-year composition; every update runs directly from
    it (never chained year over year, which would compound survey noise).
    """

    seed: Composition
    col_margin: MarginVector
    large_totals: MarginVector
    shares: ShareVector
    ipf_config: IpfConfig = IpfConfig()
    reconcile_policy: ReconcilePolicy = "scale-col-to-row"

    def __post_init__(self) -> None:
        if self.shares.small_ids != self.seed.area_ids:
            raise ValueError("share vector does not cover the seed areas")
        if self.col_margin.ids != self.seed.category_ids:
            raise ValueError("column margin ids do not match seed categories")


@dataclass(frozen=True)
class UpdateResult:
    fitted: Composition
    row_margin_used: MarginVector
    col_margin_used: MarginVector
    ipf: IpfResult
    request: UpdateRequest
    reconcile_factor: float

    @property
    def provenance(self) -> dict[str, object]:
        """How the fit was produced, built afresh on each read."""
        from spreekit import __version__

        req = self.request
        return {
            "shares_mode": req.shares.provenance,
            "reconcile_policy": req.reconcile_policy,
            "reconcile_factor": self.reconcile_factor,
            "zero_mode": req.ipf_config.zero_mode,
            "config_digest": _config_digest(req),
            "target_time": self.row_margin_used.reference_time,
            "seed_time": req.seed.reference_time,
            "converged": self.ipf.converged,
            "library_version": __version__,
        }


def _config_digest(req: UpdateRequest) -> str:
    cfg = {
        "tolerance": req.ipf_config.tolerance,
        "max_iterations": req.ipf_config.max_iterations,
        "zero_mode": req.ipf_config.zero_mode,
        "epsilon": req.ipf_config.epsilon,
        "reconcile_policy": req.reconcile_policy,
        "shares_provenance": req.shares.provenance,
    }
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def spree_update(req: UpdateRequest) -> UpdateResult:
    """Run one update: distribute totals, reconcile margins, rake the seed."""
    try:
        row = distribute(req.large_totals, req.shares)
    except Exception as e:
        raise UpdateError("margins", str(e)) from e
    try:
        row, col, factor = reconcile_margins(row, req.col_margin, req.reconcile_policy)
    except Exception as e:
        raise UpdateError("reconcile", str(e)) from e
    try:
        result = ipf_fit(req.seed, row, col, req.ipf_config)
    except Exception as e:
        raise UpdateError("ipf", str(e)) from e
    return UpdateResult(result.fitted, row, col, result, req, factor)
