"""End-to-end census update for a target year.

Builds the small-area row margin from large-area totals and shares,
reconciles it with the survey column margin, rakes the census seed to both,
and packages the fitted table with provenance (shares mode, scaling factor,
config digest) so fixed, dynamic, and hybrid runs stay distinguishable
downstream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

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
    provenance: dict[str, object] = field(default_factory=dict)


# Config digests by the repr of the hashed values: 1 and 1.0, or 0.0 and
# -0.0, compare equal but JSON writes them differently.
_digests: dict[str, str] = {}


def _config_digest(req: UpdateRequest) -> str:
    cfg = {
        "tolerance": req.ipf_config.tolerance,
        "max_iterations": req.ipf_config.max_iterations,
        "zero_mode": req.ipf_config.zero_mode,
        "epsilon": req.ipf_config.epsilon,
        "reconcile_policy": req.reconcile_policy,
        "shares_provenance": req.shares.provenance,
    }
    key = repr(list(cfg.values()))
    digest = _digests.get(key)
    if digest is None:
        if len(_digests) >= 256:
            _digests.clear()
        blob = json.dumps(cfg, sort_keys=True).encode()
        digest = _digests[key] = hashlib.sha256(blob).hexdigest()[:16]
    return digest


def spree_update(req: UpdateRequest) -> UpdateResult:
    """Run one update: distribute totals, reconcile margins, rake the seed."""
    from spreekit import __version__

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

    provenance = {
        "shares_mode": req.shares.provenance,
        "reconcile_policy": req.reconcile_policy,
        "reconcile_factor": factor,
        "zero_mode": req.ipf_config.zero_mode,
        "config_digest": _config_digest(req),
        "target_time": row.reference_time,
        "seed_time": req.seed.reference_time,
        "converged": result.converged,
        "library_version": __version__,
    }
    return UpdateResult(result.fitted, row, col, result, provenance)
