"""Recency-weight schedules for training instances.

Two decaying schedules are supported, both anchored at the most recent
instance which gets the initial weight ``alpha0``:

* exponential: each step back in time multiplies the weight by
  ``alpha0`` (so the j-th newest instance, j=0 being the newest, has
  weight ``alpha0**(j+1)``),
* linear: each step back subtracts ``beta / n`` where n is the number
  of instances being weighted.

Weights enter base learners as per-instance loss weights by default;
the ``literal_value_scaling`` flag instead multiplies the observation
values themselves by their weights (a fidelity mode, see README).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from driftcast.core import ConfigError

WEIGHTING_METHODS = ("none", "exponential", "linear")


@dataclass(frozen=True)
class WeightingScheme:
    """Recency weighting config. ``alpha0`` and ``beta`` live in (0, 1]."""

    method: str = "none"
    alpha0: float = 0.9
    beta: float = 0.9
    literal_value_scaling: bool = False

    def __post_init__(self) -> None:
        if self.method not in WEIGHTING_METHODS:
            raise ConfigError(f"unknown weighting method {self.method!r}")
        if not 0.0 < self.alpha0 <= 1.0:
            raise ConfigError("alpha0 must be in (0, 1]")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError("beta must be in (0, 1]")


def weight_schedule(scheme: WeightingScheme, series_length: int) -> np.ndarray:
    """Weights for ``series_length`` instances, ordered oldest to newest.

    The newest instance always receives ``alpha0`` (or 1 for method
    'none') and weights are non-decreasing toward the newest instance.
    Exponential weights are positive until ``alpha0**(j+1)`` underflows
    (j around 7,000 for alpha0=0.9); the oldest instances then get
    exact zeros and drop out of a weighted fit. Raises if a linear
    schedule would produce a non-positive weight (possible with
    beta > alpha0).
    """
    if series_length < 1:
        raise ConfigError("series_length must be >= 1")
    n = series_length
    if scheme.method == "none":
        return np.ones(n)
    if scheme.method == "exponential":
        # newest-first alpha0**1, alpha0**2, ... then flipped
        return (scheme.alpha0 ** np.arange(1, n + 1, dtype=np.float64))[::-1].copy()
    weights = scheme.alpha0 - np.arange(n, dtype=np.float64) * (scheme.beta / n)
    if weights[-1] <= 0.0:
        raise ConfigError(
            f"{scheme.method} schedule hits non-positive weights for length {n} "
            f"(alpha0={scheme.alpha0}, beta={scheme.beta})"
        )
    return weights[::-1].copy()
