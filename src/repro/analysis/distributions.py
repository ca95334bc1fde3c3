"""Distribution-comparison utilities shared by fitting and experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["ecdf", "mean_squared_error", "KSResult", "ks_two_sample"]


def ecdf(samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns ``(sorted_values, cumulative_probabilities)``."""
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    probs = np.arange(1, arr.size + 1) / arr.size
    return arr, probs


def mean_squared_error(a: Sequence[float], b: Sequence[float]) -> float:
    """Plain MSE between two equal-length vectors."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.mean((x - y) ** 2))


@dataclass(frozen=True)
class KSResult:
    """Two-sample Kolmogorov–Smirnov test result."""

    statistic: float
    p_value: float

    def similar(self, *, threshold: float = 0.01) -> bool:
        """The paper's Section 4.3 criterion: distributions are treated as
        similar when the K-S p-value exceeds 0.01."""
        return self.p_value > threshold


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KSResult:
    """Two-sample K-S test (used for the day/night price comparison)."""
    from scipy import stats

    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    result = stats.ks_2samp(x, y)
    return KSResult(statistic=float(result.statistic), p_value=float(result.pvalue))
