"""Parameter settings (paper Table III) — defaults in the paper's bold.

The only deviation is scale: the paper defaults to |V(G)| = 50K and sweeps
10K→1M on a bare-metal i9; this single-container reproduction defaults to
|V(G)| = 2K and sweeps 500→5K, or 500→10K with REPRO_SWEEP_NV_MAX=10000
(``SWEEP_NV``; DESIGN.md §4). All claims compared are relative (orderings /
factors / trend shapes).
"""
from __future__ import annotations

import random
from typing import FrozenSet, Tuple

#: offline influence-threshold grid θ_1 < θ_2 < θ_3 (Sec. IV-D, m = 3)
THETAS: Tuple[float, ...] = (0.1, 0.2, 0.3)
R_MAX = 3

# Table III defaults (bold)
THETA = 0.2
Q_SIZE = 5
K = 4
R = 2
L = 5
W_PER_VERTEX = 3
SIGMA_DOMAIN = 20
N_DTOPL = 5
N_VERTICES = 2_000  # paper: 50K (scale substitution)

# Table III sweep values
SWEEP_THETA = (0.1, 0.2, 0.3)
SWEEP_Q = (2, 3, 5, 8, 10)
SWEEP_K = (3, 4, 5)
SWEEP_R = (1, 2, 3)
SWEEP_L = (2, 3, 5, 8, 10)
SWEEP_W = (1, 2, 3, 4, 5)
SWEEP_SIGMA = (10, 20, 50, 80)
# paper: 10K..1M. Quick-profile default tops at 5K; the full profile
# (REPRO_SWEEP_NV_MAX=10000) adds 10K.
SWEEP_NV = tuple(
    n
    for n in (500, 1_000, 2_000, 5_000, 10_000)
    if n <= int(__import__("os").environ.get("REPRO_SWEEP_NV_MAX", "5000"))
)
SWEEP_N_DTOPL = (2, 3, 5, 8, 10)

DISTRIBUTIONS = ("uniform", "gaussian", "zipf")

#: query-keyword draws are averaged over these seeds per measurement
QUERY_SEEDS: Tuple[int, ...] = (0, 1, 2)


def query_keywords(sigma: int = SIGMA_DOMAIN, qsize: int = Q_SIZE, seed: int = 0) -> FrozenSet[str]:
    """|Q| distinct keywords drawn uniformly from the domain (Sec. VIII-A)."""
    rng = random.Random(seed)
    return frozenset(f"kw{i}" for i in rng.sample(range(sigma), min(qsize, sigma)))
