"""Reference implementations the package no longer carries, kept as the
oracles of its array code:

* ``rmse`` and ``mae`` score one series, as ``evaluate.build_report``
  scores every row of a method's matrix at once;
* ``from_series`` builds a ``Dataset`` from a list of ``TimeSeries``;
* ``make_series`` simulates one series alone, as ``make_dataset``
  simulates it among the others of its kind;
* ``rank_rows`` walks each sorted row's runs of ties, as
  ``stats.rank_rows`` counts them in one array expression.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from driftcast.core import ConfigError, Dataset, SeriesIndex, TimeSeries
from driftcast.simulate import SimConfig, _batch_series


def rmse(actuals: Sequence[float], forecasts: Sequence[float]) -> float:
    """Root mean squared error over a horizon."""
    a, f = _metric_inputs(actuals, forecasts)
    return float(np.sqrt(np.mean((f - a) ** 2)))


def mae(actuals: Sequence[float], forecasts: Sequence[float]) -> float:
    """Mean absolute error over a horizon."""
    a, f = _metric_inputs(actuals, forecasts)
    return float(np.mean(np.abs(f - a)))


def _metric_inputs(actuals, forecasts):
    a = np.asarray(actuals, dtype=np.float64)
    f = np.asarray(forecasts, dtype=np.float64)
    if a.shape != f.shape or a.ndim != 1 or a.size == 0:
        raise ConfigError("actuals and forecasts must be equal-length non-empty vectors")
    return a, f


def from_series(name: str, series: Sequence[TimeSeries], generator_config: Optional[dict] = None) -> Dataset:
    """A dataset of ``series``, which must share length and ``train_len``."""
    if len({(len(s.values), s.train_len) for s in series}) != 1:
        raise ConfigError("a dataset needs series that share length and train_len")
    index = SeriesIndex([s.id for s in series], len(series[0].values), series[0].train_len, [s.drift for s in series])
    return Dataset(name, index, np.stack([s.values for s in series]), generator_config)


def make_series(cfg: SimConfig, ordinal: int) -> TimeSeries:
    """Series ``ordinal`` of the dataset described by ``cfg``, simulated
    in a batch of its own."""
    values = np.empty((1, cfg.series_length))
    (drift,) = _batch_series(cfg, [ordinal], values)
    return TimeSeries(id=f"{cfg.drift_kind}_{ordinal:04d}", values=values[0], train_len=cfg.train_len, drift=drift)


def rank_rows(errors: np.ndarray) -> np.ndarray:
    """Within-row ascending ranks (1 = smallest), average on ties: each
    run of equal values in a sorted row takes the mean of its 1-based
    positions."""
    errors = np.asarray(errors, dtype=np.float64)
    n, k = errors.shape
    ranks = np.empty_like(errors)
    for r in range(n):
        row = errors[r]
        order = np.argsort(row, kind="stable")
        i = 0
        while i < k:
            j = i
            while j + 1 < k and row[order[j + 1]] == row[order[i]]:
                j += 1
            ranks[r, order[i : j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
    return ranks
