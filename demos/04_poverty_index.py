"""
Multidimensional poverty from household deprivation records
===========================================================

Computes the adjusted headcount index on the bundled three-household
fixture, loaded as one household table: each row carries nine deprivation
flags, a person count, and a survey weight.  A household is poor when its
weighted deprivation score reaches one third; the index is the product of
the poor share H and their average score A.
"""

from pathlib import Path

import numpy as np

from spreekit import (
    compute_mpi,
    deprivation_score,
    headcount_from_composition,
    tabulate_poverty,
)
from spreekit import io as sio

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

profile = sio.load_profile(FIXTURES / "profile9.json")
households = sio.load_households(FIXTURES / "households3.csv", profile)

# One row per household; deprivation_score is the exact per-row reference.
print("household scores:")
for i, hid in enumerate(households.household_ids):
    flags = sorted(k for k, v in zip(households.indicators, households.flags[i]) if v)
    print(f"  {hid} ({households.size[i]} persons): "
          f"score={deprivation_score(households, i, profile)}  deprived in {flags}")

res = compute_mpi(households, profile)
print(f"\nheadcount H            = {res.headcount:.4f}")
print(f"intensity A            = {res.intensity:.4f}")
print(f"index   M = H * A      = {res.mpi:.4f}")
print(f"population base        = {res.population_base:.1f}")

# Decomposition by indicator: weighted uncensored headcounts normalised
# to sum to one, showing which deprivations drive the index.
print("\ncontributions by indicator:")
for ind, share in sorted(res.contributions.items(), key=lambda kv: -kv[1]):
    if share > 0:
        print(f"  {ind:<22} {share:6.1%}")

# Subgroup decomposition is just a row subset of the table.
groups = np.array(households.subgroup_ids, dtype=object)
for group in sorted(set(households.subgroup_ids)):
    sub = compute_mpi(households.subset(groups == group), profile)
    print(f"\n{group}: H={sub.headcount:.3f}  A={sub.intensity:.3f}"
          f"  M={sub.mpi:.3f}")

# Tabulating poor and non-poor persons by area yields a composition that
# plugs straight into the census-update pipeline, and the headcount can
# be read back from any such composition.
hierarchy = sio.load_hierarchy(FIXTURES / "mini" / "hierarchy.csv")
comp = tabulate_poverty(households, profile, hierarchy)
rates = headcount_from_composition(comp)
print("\nper-area composition and headcount (NaN where no one lives):")
for area, row, rate in zip(comp.area_ids, comp.counts, rates):
    print(f"  {area}: poor={row[0]:.1f} non-poor={row[1]:.1f}  H={rate:.3f}")
