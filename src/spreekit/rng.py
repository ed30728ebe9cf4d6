"""Stream-indexed random number generation.

Every stochastic routine takes a master seed and derives one independent
stream per replicate from it, so replicate b sees the same randomness no
matter how many replicates run or in which order.  Streams use the Philox
counter-based bit generator keyed by the master seed and the stream index.
"""

from __future__ import annotations

import numpy as np


def stream(master_seed: int, index: int) -> np.random.Generator:
    """Generator for stream ``index`` under ``master_seed``."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))

