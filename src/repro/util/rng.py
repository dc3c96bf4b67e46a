"""Deterministic random-number plumbing.

Every stochastic component (synthetic load generators, sensor noise,
workload traces) draws from a :class:`numpy.random.Generator` seeded through
this module, so identical experiment configurations replay identical system
dynamics -- the property the paper's controlled evaluation depends on
("the experimentation was performed in a controlled environment so that the
dynamics of the system state was the same in both cases", section 6.1.1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int | None) -> np.random.Generator:
    """A fresh PCG64 generator; ``None`` gives OS entropy (tests always seed)."""
    return np.random.default_rng(seed)

