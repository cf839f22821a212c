"""Base forecasting models for the evaluation harness.

Three families, each trainable on the full history or the most recent
200 observations:

* ``global_ar``: one pooled autoregressive ridge model fitted across
  every series of a dataset (the built-in stand-in for a gradient
  boosted global learner; a replacement plugs into the global phase of
  the engine in :mod:`driftcast.evaluate`, which reads only ``coef``
  and ``intercept`` of the fitted model),
* ``local_ar``: per-series AR(p) by ordinary least squares,
* ``ets``: per-series simple exponential smoothing (level only) with
  the smoothing constant grid-searched on in-sample one-step error.

Recency weighting (see :mod:`driftcast.weighting`) enters the global
learner as per-row loss weights; local benchmarks are unweighted.
The local AR fit builds its design rows ``[lag 1 ... lag p, 1]`` from
one contiguous slice per lag. The pooled fit
builds no rows: every series shares its rows' weights, so its normal
equations are weighted sums along time of one table of cross-series
lag products, built once per dataset (``_lag_products``). They agree
with the row-by-row system to rounding, not bit for bit.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from driftcast.core import ConfigError, Dataset, FitError
from driftcast.weighting import WeightingScheme, weight_schedule

WINDOW_LAST_200 = "last_200"
WINDOW_ALL = "all"
PARTIAL_WINDOW = 200

DEFAULT_GLOBAL_LAGS = 10
DEFAULT_RIDGE_LAMBDA = 1e-3

ETS_ALPHA_GRID = np.arange(1, 100) / 100.0


def resolve_window(window: str, available: int) -> int:
    """Concrete training-window length for a window spec."""
    if window == WINDOW_ALL:
        return available
    if window == WINDOW_LAST_200:
        return min(PARTIAL_WINDOW, available)
    raise ConfigError(f"unknown window {window!r}")


@dataclass(frozen=True)
class LearnerSpec:
    """What to fit: model family, lag order, window, and weighting."""

    family: str
    p: int = 1
    window: str = WINDOW_ALL
    weighting: WeightingScheme = field(default_factory=WeightingScheme)
    ridge_lambda: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("global_ar", "local_ar", "ets"):
            raise ConfigError(f"unknown learner family {self.family!r}")
        if self.p < 1:
            raise ConfigError("lag order must be >= 1")
        if self.window not in (WINDOW_LAST_200, WINDOW_ALL):
            raise ConfigError(f"unknown window {self.window!r}")
        if self.ridge_lambda < 0:
            raise ConfigError("ridge_lambda must be nonnegative")


@dataclass(frozen=True)
class ForecastModel:
    """A fitted model. AR families carry ``coef``/``intercept``; ets
    carries ``level``/``smoothing``. ``fitted_through`` is the number
    of series observations seen at fit time."""

    spec: LearnerSpec
    fitted_through: int
    coef: Optional[np.ndarray] = None
    intercept: Optional[float] = None
    level: Optional[float] = None
    smoothing: Optional[float] = None


# positions per block of ``_lag_table``: its products of a block are one
# (n_series, _TABLE_BLOCK) temporary
_TABLE_BLOCK = 64

_lag_tables = weakref.WeakKeyDictionary()  # dataset -> {p: its lag-product table}, dropped with the dataset


def _lag_table(values: np.ndarray, p: int) -> np.ndarray:
    """The (length, p + 2) sums across the series (rows) of ``values``
    that every pooled fit of lag order ``p`` is built from: at position
    t, column d <= p holds sum_i v_i[t] * v_i[t - d] (0 where t < d),
    and column p + 1 sum_i v_i[t]. Each sum runs over the series in
    dataset order."""
    length = values.shape[1]
    table = np.zeros((length, p + 2))
    for lo in range(0, length, _TABLE_BLOCK):
        hi = min(lo + _TABLE_BLOCK, length)
        table[lo:hi, p + 1] = values[:, lo:hi].sum(axis=0)
        for d in range(min(p, hi - 1) + 1):
            first = max(lo, d)
            table[first:hi, d] = (values[:, first:hi] * values[:, first - d : hi - d]).sum(axis=0)
    return table


def _lag_products(dataset: Dataset, p: int) -> np.ndarray:
    """``dataset``'s lag-product table of order ``p`` (``_lag_table``),
    built on first use and kept until the dataset is freed. Its values
    are read-only, so the table never goes stale."""
    tables = _lag_tables.setdefault(dataset, {})
    if p not in tables:
        tables[p] = _lag_table(dataset.values, p)
    return tables[p]


def fit_global_ar(dataset: Dataset, train_through: int, spec: LearnerSpec) -> ForecastModel:
    """Pooled weighted autoregressive ridge fit across all series.

    Uses observations 1..train_through of every series. With a
    ``last_200`` window only rows whose target falls in the final 200
    training positions enter the pooled system; lags may reach further
    back. Every series has the same rows, so one weighting schedule,
    oldest row lowest, is computed per fit and shared by all series;
    with literal value scaling it scales each series' window instead.

    Every series also shares the rows' loss weights and value scaling,
    so each entry of the normal equations X'WX and X'Wy is a weighted
    sum along t of one column of the dataset's lag-product table
    (``_lag_products``), built once per dataset and lag order: the entry
    of lags j and k is sum_t w[t] * P[t - j, k - j], and with literal
    value scaling s the products enter as s[t - j] * s[t - k] *
    P[t - j, k - j]. A fit reads the table only before
    ``train_through``. The sums run in another order than the
    row-by-row system's, so the coefficients agree with it to rounding,
    not bit for bit.
    """
    p = spec.p
    if train_through < p + 1:
        raise FitError(f"need at least {p + 1} observations, have {train_through}")
    if train_through > dataset.series_length:
        raise FitError("train_through exceeds series length")
    window_len = resolve_window(spec.window, train_through)
    literal = spec.weighting.literal_value_scaling
    if literal:
        # Eq-style value scaling: the window's observations are
        # multiplied by their weights and rows are built inside the
        # scaled window with unit loss weights.
        start, first = train_through - window_len, p
        scale = weight_schedule(spec.weighting, window_len)
    else:
        start, first = 0, max(p, train_through - window_len)
    rows = train_through - start - first
    if rows <= 0:  # every series has these rows: the first one names the failure
        raise FitError(f"series {dataset.ids[0]!r} contributes no rows")
    table = _lag_products(dataset, p)[start:train_through]
    if literal:
        w = np.ones(rows)
        table = table.copy()
        for lag in range(p + 1):
            table[lag:, lag] *= scale[lag:] * scale[: window_len - lag]
        table[:, p + 1] *= scale
    else:
        w = weight_schedule(spec.weighting, rows)
    # row j: the weighted sum of each table column over the rows' lag-j
    # positions (lag 0: the targets)
    sums = np.stack([w @ table[first - j : first - j + rows] for j in range(p + 1)])
    d = p + 1
    gram = np.zeros((d + 1, d + 1))  # of [target, lag 1 ... lag p, 1], upper triangle first
    for j in range(d):
        gram[j, j:d] = sums[j, : d - j]
        gram[j, d] = sums[j, d]
    gram[d, d] = len(dataset) * w.sum()
    gram += np.triu(gram, 1).T
    A, rhs = gram[1:, 1:], gram[1:, 0]
    A[np.arange(p), np.arange(p)] += spec.ridge_lambda
    try:
        beta = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular pooled system: {exc}") from exc
    if not np.all(np.isfinite(beta)):
        raise FitError("pooled solve produced non-finite coefficients")
    return ForecastModel(
        spec=spec,
        fitted_through=train_through,
        coef=beta[:p],
        intercept=float(beta[p]),
    )


def fit_local_ar(values: Sequence[float], p: int, window: str = WINDOW_ALL) -> ForecastModel:
    """Per-series AR(p) with intercept, unweighted least squares on the
    resolved window. Rank-deficient but consistent systems (constant
    series) resolve to the minimum-norm solution."""
    values = np.asarray(values, dtype=np.float64)
    window_len = resolve_window(window, len(values))
    if window_len < 2 * p + 2:
        raise FitError(f"window of {window_len} too short for AR({p})")
    segment = values[len(values) - window_len :]
    Xa = np.empty((window_len - p, p + 1))  # rows [lag 1 ... lag p, 1], one slice copy per lag
    for k in range(1, p + 1):
        Xa[:, k - 1] = segment[p - k : window_len - k]
    Xa[:, p] = 1.0
    beta, *_ = np.linalg.lstsq(Xa, segment[p:], rcond=None)
    if not np.all(np.isfinite(beta)):
        raise FitError("least squares produced non-finite coefficients")
    spec = LearnerSpec(family="local_ar", p=p, window=window)
    return ForecastModel(spec=spec, fitted_through=len(values), coef=beta[:p], intercept=float(beta[p]))


def ets_window(window: str, available: int) -> int:
    """Resolved ets training-window length; raises FitError when it is
    too short to rank the smoothing constants."""
    window_len = resolve_window(window, available)
    if window_len < 3:
        raise FitError("ets needs a window of at least 3 observations")
    return window_len


def fit_ets(values: Sequence[float], window: str = WINDOW_ALL) -> ForecastModel:
    """Simple exponential smoothing with the level seeded at the first
    window observation and the smoothing constant chosen from
    {0.01, ..., 0.99} by in-sample one-step squared error."""
    values = np.asarray(values, dtype=np.float64)
    window_len = ets_window(window, len(values))
    segment = values[len(values) - window_len :]
    alphas = ETS_ALPHA_GRID
    level = np.full(alphas.size, segment[0])
    sse = np.zeros(alphas.size)
    for y in segment[1:]:
        sse += (y - level) ** 2
        level = alphas * y + (1.0 - alphas) * level
    best = int(np.argmin(sse))
    spec = LearnerSpec(family="ets", window=window)
    return ForecastModel(
        spec=spec,
        fitted_through=len(values),
        level=float(level[best]),
        smoothing=float(alphas[best]),
    )


def predict_one(model: ForecastModel, history: Sequence[float]) -> float:
    """One-step-ahead forecast given all observations so far.

    AR families read their lags off the end of ``history``; ets rolls
    its level forward through any observations that arrived after the
    fit (the smoothing constant stays fixed). Pure: the model is never
    mutated.
    """
    history = np.asarray(history, dtype=np.float64)
    if model.spec.family in ("global_ar", "local_ar"):
        p = model.spec.p
        if len(history) < p:
            raise ConfigError(f"need at least {p} observations of history")
        # the lags as a reversed view: its negative stride keeps numpy's dot
        # off BLAS, so the dot sums coef[k] * lag_{k+1} in lag order from
        # zero, as the engine does. A contiguous copy of the view would go
        # to BLAS, whose summation order can change the last bits
        return float(model.intercept + model.coef @ history[-1 : -p - 1 : -1])
    if len(history) < model.fitted_through:
        raise ConfigError("history is shorter than the data the model was fitted on")
    level = model.level
    alpha = model.smoothing
    for y in history[model.fitted_through :]:
        level = alpha * y + (1.0 - alpha) * level
    return float(level)
