"""spreekit: small-area census updating with structure preserving estimation.

The package updates a census cross-tabulation (small areas x categories) to a
later year by raking it to fresh row and column margins while keeping the
census interaction structure fixed.  Row margins can come from fixed census
population shares, from auxiliary population estimates (dynamic shares), or
from a hybrid of the two; uncertainty is quantified with a mixed
semiparametric bootstrap, and a design-based simulation harness compares the
margin strategies against a known truth.
"""

from spreekit.composition import (
    AreaHierarchy,
    Composition,
    MarginLevel,
    MarginVector,
    ProbabilityMatrix,
    aggregate_to_large,
    column_margins,
    row_margins,
    to_probabilities,
)
from spreekit.ipf import IpfConfig, IpfError, IpfResult, ipf_fit
from spreekit.loglinear import LogLinearDecomposition, association_distance, decompose
from spreekit.margins import (
    HybridSelection,
    ReconcileResult,
    ShareVector,
    distribute,
    dynamic_shares,
    fixed_shares,
    hybrid_shares,
    reconcile_margins,
    select_by_change,
)
from spreekit.mpi import (
    Households,
    MpiProfile,
    MpiResult,
    compute_mpi,
    deprivation_score,
    headcount_from_composition,
    is_poor,
    tabulate_poverty,
)
from spreekit.update import (
    UpdateError,
    UpdateRequest,
    UpdateResult,
    spree_update,
)
from spreekit.bootstrap import (
    BootstrapConfig,
    BootstrapError,
    CellUncertainty,
    SurveyDesign,
    bootstrap_mse,
    resample_aux_margin,
    resample_column_margin,
)
from spreekit.simulation import (
    SimulationPlan,
    SimulationReport,
    quartile_grouping,
    replicate_census,
    run_simulation,
)
from spreekit.scenario import ScenarioConfig, build_scenario, migration_shock_config
from spreekit.geo import (
    AreaPolygonSet,
    PixelAggregation,
    PixelTable,
    aggregate_pixels,
)
from spreekit.io import IngestError

__version__ = "0.1.0"
