"""Statistical thresholds with a stated false-alarm rate.

Every threshold here is exceeded with probability at most ``ALPHA`` when the
program is correct, whatever the seed, so a changed RNG key or a held-out
seed cannot read as a failure.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

#: false-alarm rate per check
ALPHA = 1e-4


def dkw_threshold(n: int, alpha: float = ALPHA) -> float:
    """Kolmogorov-Smirnov distance exceeded with probability <= ``alpha``
    (Dvoretzky-Kiefer-Wolfowitz with Massart's constant)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def l1_threshold(n: int, categories: int, alpha: float = ALPHA) -> float:
    """L1 distance between empirical and true frequencies over
    ``categories`` cells exceeded with probability <= ``alpha``
    (Bretagnolle-Huber-Carol: ``P(L1 >= l) <= 2^k exp(-n l^2 / 2)``)."""
    return math.sqrt(2.0 * (categories * math.log(2.0) + math.log(1.0 / alpha)) / n)


def binomial_outliers(counts, masses, n: int, alpha: float = ALPHA) -> np.ndarray:
    """Cells whose count fails an exact two-sided binomial test at the
    Bonferroni level ``alpha / cells``; returns a boolean array."""
    counts = np.asarray(counts, dtype=float)
    masses = np.clip(np.asarray(masses, dtype=float), 0.0, 1.0)
    lower = stats.binom.cdf(counts, n, masses)
    upper = stats.binom.sf(counts - 1.0, n, masses)
    p_value = np.minimum(1.0, 2.0 * np.minimum(lower, upper))
    return p_value < alpha / counts.size


def max_rare_events(n: int, p: float, alpha: float = ALPHA) -> int:
    """Largest count of independent events of probability ``p`` in ``n``
    trials that is reached with probability > ``alpha``."""
    k = 0
    while stats.binom.sf(k, n, p) > alpha:
        k += 1
    return k
