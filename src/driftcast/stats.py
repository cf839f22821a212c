"""Rank-based significance testing across methods.

Per-series errors are ranked within each series (average ranks on
ties), an omnibus chi-square rank-sum statistic decides whether any
method differs, and a step-up multiple-comparison procedure then
compares every method against the best-ranked control. The chi-square
upper tail is computed here in closed form, a finite sum for the
integer degrees of freedom the rank test needs, rather than pulled from
a stats library, so extreme p-values stay meaningful and
dependency-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from driftcast.core import ConfigError

P_VALUE_FLOOR = 1e-30


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution at an integer ``df``.

    That is the regularized upper incomplete gamma Q(df/2, x/2). For an
    integer or half-integer order it is a finite sum of positive terms:
    with h = x/2, erfc(sqrt(h)) when ``df`` is odd, plus
    h^a e^-h / Gamma(a + 1) for a = (df mod 2)/2 + j, j < df // 2."""
    if df < 1:
        raise ConfigError("df must be >= 1")
    if x < 0:
        raise ConfigError("chi-square statistic must be nonnegative")
    if x == 0:
        return 1.0
    h = x / 2.0
    total = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    for j in range(df // 2):
        a = df % 2 / 2.0 + j
        total += math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
    return min(total, 1.0)


def normal_sf_two_sided(z: float) -> float:
    """P(|Z| >= |z|) for a standard normal."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def format_p(p: float) -> str:
    """Render a p-value, flooring anything below 1e-30."""
    if p < P_VALUE_FLOOR:
        return "< 1e-30"
    return f"{p:.3g}"


def rank_rows(errors: np.ndarray) -> np.ndarray:
    """Within-row ascending ranks (1 = smallest), average on ties: the
    values of a row below an entry, plus half of one more than those
    equal to it, itself included."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 2 or errors.shape[0] < 2 or errors.shape[1] < 2:
        raise ConfigError("errors must be an N x k matrix with N, k >= 2")
    if not np.all(np.isfinite(errors)):
        raise ConfigError("errors must be finite")
    entry, other = errors[:, :, None], errors[:, None, :]
    return (other < entry).sum(axis=2) + ((other == entry).sum(axis=2) + 1) / 2.0


def friedman_test(ranks: np.ndarray) -> tuple[float, float]:
    """Chi-square rank-sum statistic over an N x k rank matrix and its
    upper-tail p-value at k-1 degrees of freedom."""
    ranks = np.asarray(ranks, dtype=np.float64)
    n, k = ranks.shape
    mean_ranks = ranks.mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * float(np.sum((mean_ranks - (k + 1) / 2.0) ** 2))
    return stat, chi2_sf(stat, k - 1)


def control_comparisons(mean_ranks: Mapping[str, float], n_series: int) -> tuple[str, dict, dict]:
    """Two-sided mean-rank z-tests of every method against the
    best-ranked control.

    Returns (control, z by method, raw p by method). The standard
    error is sqrt(k(k+1) / 6N).
    """
    if len(mean_ranks) < 2:
        raise ConfigError("need at least two methods to compare")
    k = len(mean_ranks)
    control = min(mean_ranks, key=lambda name: (mean_ranks[name], name))
    se = math.sqrt(k * (k + 1) / (6.0 * n_series))
    z_values = {}
    raw_p = {}
    for name, rank in mean_ranks.items():
        if name == control:
            continue
        z = (rank - mean_ranks[control]) / se
        z_values[name] = z
        raw_p[name] = normal_sf_two_sided(z)
    return control, z_values, raw_p


def hochberg(p_values: Mapping[str, float], alpha: float = 0.05) -> tuple[dict, set]:
    """Step-up adjusted p-values and the rejection set at ``alpha``.

    With p sorted ascending p(1) <= ... <= p(m), the adjusted value of
    p(i) is min over j >= i of (m - j + 1) * p(j), clipped to 1; this
    makes adjusted values monotone and >= raw ones, and rejects method
    i iff its adjusted value is <= alpha.
    """
    if not p_values:
        raise ConfigError("no p-values to adjust")
    items = sorted(p_values.items(), key=lambda kv: (kv[1], kv[0]))
    m = len(items)
    p_sorted = np.array([p for _, p in items], dtype=np.float64)
    running_min = np.minimum.accumulate(((m - np.arange(m)) * p_sorted)[::-1])[::-1]
    adjusted = {name: adj for (name, _), adj in zip(items, np.minimum(running_min, 1.0).tolist())}
    rejected = {name for name, adj in adjusted.items() if adj <= alpha}
    return adjusted, rejected


@dataclass(frozen=True)
class TestResult:
    """Everything the significance report needs."""

    mean_ranks: dict
    friedman_statistic: float
    friedman_p: float
    control: str
    z_values: dict
    raw_p: dict
    adjusted_p: dict
    rejected: set


def run_rank_tests(errors: np.ndarray, methods: Sequence[str], alpha: float = 0.05) -> TestResult:
    """Full pipeline: rank per series, omnibus test, control
    comparisons, step-up adjustment."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.shape[1] != len(methods):
        raise ConfigError("method names must match error matrix columns")
    ranks = rank_rows(errors)
    stat, p = friedman_test(ranks)
    mean_ranks = {name: float(r) for name, r in zip(methods, ranks.mean(axis=0))}
    control, z_values, raw_p = control_comparisons(mean_ranks, errors.shape[0])
    adjusted, rejected = hochberg(raw_p, alpha)
    return TestResult(
        mean_ranks=mean_ranks,
        friedman_statistic=stat,
        friedman_p=p,
        control=control,
        z_values=z_values,
        raw_p=raw_p,
        adjusted_p=adjusted,
        rejected=rejected,
    )
