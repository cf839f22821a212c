"""Prequential evaluation harness and error reporting.

The forecast horizon is split into equal blocks, and each block
boundary of ``prequential_run`` runs one protocol on all observations
seen so far: fit the pooled global models that the methods read
(``_submodels``) and forecast the block with them; refit each method
in a fit step that returns its forecaster of the block; then count the
fits and store the forecasts. A captured weight trace holds each
sub-model's forecasts once, stored by the global phase, and per
combiner step the weights and combined forecast of each pairing.
Inside a block, forecasts are one step ahead with the origin rolling
over the true observations and no refitting. The adaptive combiners
keep their weights across block boundaries (weights belong to the
online stream, models are refreshed). A fit step fails a whole method
by raising ``FitError`` (an ETS window too short, a failed global fit
or combiner sub-model), and single series through ``fail`` (a local AR
fit, a diverged combiner).

The engine advances every series of the dataset, held as one
(n_series x length) array, through a block with numpy operations
across the batch:

* AR forecasts, global and local, are one array operation per lag for
  a whole block, summed in lag order from zero like ``predict_one``;
* the ETS grid search runs on an (n_series x 99) array of levels and
  squared errors. A window that keeps its first observation (always
  for ``ETS_All``) extends the same grid from block to block, and the
  fitted level rolls forward once per step;
* ECW/GDW hold their state as (n_series x 4 pairings) arrays updated
  with the elementwise formulas of ``ecw_step``/``gdw_step``.

Every operation is elementwise across series: no sum, product or
choice ever mixes two series, and each series' values pass through
the same IEEE operations in the same order as in the scalar functions
of :mod:`driftcast.learners` and :mod:`driftcast.combine` (the test
oracles). The engine's results therefore do not depend on how series
are grouped into batches or ordered within one; only the pooled fits,
which sum over series in dataset order, see that order.

Every method is one record of ``METHODS``, in report order; its
family drives the fits and the engine's dispatch, and its group the
reports.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from driftcast.core import (
    ConfigError,
    Dataset,
    FitError,
    SeriesIndex,
    Spans,
    csv_field,
    csv_rows,
    format_floats,
    key_runs,
    open_csv,
    read_csv,
    write_csv,
)
from driftcast.learners import (
    DEFAULT_GLOBAL_LAGS,
    DEFAULT_RIDGE_LAMBDA,
    ETS_ALPHA_GRID,
    WINDOW_ALL,
    WINDOW_LAST_200,
    LearnerSpec,
    ets_window,
    fit_global_ar,
    fit_local_ar,
)
from driftcast.weighting import WeightingScheme

DEFAULT_ETA = 0.01

# a diverged combiner's failure reason: the error of the scalar ``rss_point``
NON_FINITE_RSS = "rss_point requires finite inputs"


@dataclass(frozen=True)
class MethodRecord:
    """What a method is: its ``family`` (``local_ar``, ``ets``,
    ``global_ar``, ``ecw``, ``gdw`` or ``oracle``), its report ``group``,
    and the fields its family needs: ``lags`` and ``window`` for local
    AR, ``window`` for ETS, ``weighting`` and ``window`` for global
    models."""

    family: str
    group: str
    lags: Optional[int] = None
    window: Optional[str] = None
    weighting: Optional[str] = None


# the method matrix, in report order; Oracle cheats by reading the next
# actual and only serves harness sanity checks
METHODS = {
    "AR3_200": MethodRecord("local_ar", "statistical", lags=3, window=WINDOW_LAST_200),
    "AR3_All": MethodRecord("local_ar", "statistical", lags=3, window=WINDOW_ALL),
    "AR5_200": MethodRecord("local_ar", "statistical", lags=5, window=WINDOW_LAST_200),
    "AR5_All": MethodRecord("local_ar", "statistical", lags=5, window=WINDOW_ALL),
    "ETS_200": MethodRecord("ets", "statistical", window=WINDOW_LAST_200),
    "ETS_All": MethodRecord("ets", "statistical", window=WINDOW_ALL),
    "EXP_200": MethodRecord("global_ar", "gfm", window=WINDOW_LAST_200, weighting="exponential"),
    "EXP_All": MethodRecord("global_ar", "gfm", window=WINDOW_ALL, weighting="exponential"),
    "Linear_200": MethodRecord("global_ar", "gfm", window=WINDOW_LAST_200, weighting="linear"),
    "Linear_All": MethodRecord("global_ar", "gfm", window=WINDOW_ALL, weighting="linear"),
    "Plain_200": MethodRecord("global_ar", "gfm", window=WINDOW_LAST_200, weighting="none"),
    "Plain_All": MethodRecord("global_ar", "gfm", window=WINDOW_ALL, weighting="none"),
    "GDW": MethodRecord("gdw", "proposed"),
    "ECW": MethodRecord("ecw", "proposed"),
    "Oracle": MethodRecord("oracle", "diagnostic"),
}

# (partial, full) sub-model names of each pairing a combiner averages
PAIRING_SUBMODELS = (("EXP_200", "EXP_All"), ("EXP_200", "Linear_All"), ("Linear_200", "EXP_All"), ("Linear_200", "Linear_All"))

# (partial-model weighting, all-model weighting) of each pairing
DEFAULT_PAIRINGS = tuple((METHODS[partial].weighting, METHODS[full].weighting) for partial, full in PAIRING_SUBMODELS)


def method_group(name: str) -> str:
    """Report group of a method of the table."""
    return METHODS[name].group


def report_order(names) -> list:
    """``names``, each a method of the table, in table order."""
    return [m for m in METHODS if m in names]


@dataclass(frozen=True)
class MethodSpec:
    """One configured method. ``eta``, ``true_gradient`` and ``clamp``
    are GDW's flags and other methods ignore them; a config's method
    entry of any other method that holds one exits 1."""

    name: str
    eta: float = DEFAULT_ETA
    true_gradient: bool = False
    clamp: bool = False

    def __post_init__(self) -> None:
        if self.name not in METHODS:
            raise ConfigError(f"unknown method {self.name!r}")
        if self.eta <= 0:
            raise ConfigError("eta must be positive")


def default_method_specs() -> tuple:
    """The full benchmark matrix (every non-diagnostic method) in report
    order."""
    return tuple(MethodSpec(name=name) for name, r in METHODS.items() if r.group != "diagnostic")


@dataclass(frozen=True)
class EvalConfig:
    """Harness parameters plus shared learner hyperparameters. Every
    value is checked when the config is built: the global models' values
    by building a global-learner spec."""

    horizon: int = 350
    block_size: int = 50
    methods: tuple = field(default_factory=default_method_specs)
    global_lags: int = DEFAULT_GLOBAL_LAGS
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA
    alpha0: float = 0.9
    beta: float = 0.9
    literal_value_scaling: bool = False

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.block_size < 1:
            raise ConfigError("horizon and block_size must be positive")
        if self.horizon % self.block_size != 0:
            raise ConfigError("horizon must be divisible by block_size")
        if self.global_lags < 1:
            raise ConfigError("global_lags must be >= 1")
        methods = tuple(self.methods)
        names = [m.name for m in methods]
        if not names or len(set(names)) != len(names):
            raise ConfigError("methods must be non-empty and unique")
        object.__setattr__(self, "methods", methods)
        self.global_spec("Plain_All")

    def global_spec(self, name: str) -> LearnerSpec:
        """The learner spec of global model ``name``: its window and
        weighting method, with this config's lags, ridge and weighting
        values."""
        record = METHODS[name]
        weighting = WeightingScheme(record.weighting, self.alpha0, self.beta, self.literal_value_scaling)
        return LearnerSpec("global_ar", self.global_lags, record.window, weighting, self.ridge_lambda)


@dataclass
class RunResult:
    """Everything a prequential campaign produced for one dataset.

    ``failures`` maps each method to the message of each failed series,
    keyed by series id.

    ``weight_traces`` (with ``capture_weights``) maps each combiner to
    ``(steps, table)``: ``steps`` is an (n_series,) int array of the
    steps recorded per series, and ``table`` an (n_series, horizon,
    pairings, 3) float array whose last axis holds ``w_p``, ``w_a`` and
    the pairing's combined forecast of each step, pairings in
    ``DEFAULT_PAIRINGS`` order. Only the first ``steps[i]`` rows of
    series ``i`` are recorded: a series stops at its combiner's failure.
    ``submodel_forecasts`` (with ``capture_weights`` too) maps each
    model of ``PAIRING_SUBMODELS`` that a combiner read to its
    (n_series, horizon) forecasts: the partial and full forecasts of
    every recorded step, held once for all pairings and combiners.

    A run loaded from a trace file (:func:`load_traces`) has its
    sidecar's series, in the sidecar's order, and its ``train_len``, and
    the config's methods, in the config's order, and its ``horizon``. The
    trace must hold every (method, series, position) cell of that test
    region once, so a pair absent from it is rejected, not read as a
    failed series. The run carries neither fit counts nor failures: both
    dicts are empty, and a failed series shows only as a non-finite
    forecast."""

    series_ids: tuple
    methods: tuple
    train_len: int
    horizon: int
    actuals: np.ndarray
    predictions: dict
    fit_counts: dict
    failures: dict
    weight_traces: Optional[dict] = None
    submodel_forecasts: Optional[dict] = None


def _submodels(name: str) -> tuple:
    """The pooled global models method ``name`` reads, sorted: a global
    model reads itself, a combiner the sub-models of every pairing."""
    family = METHODS[name].family
    if family == "global_ar":
        return (name,)
    if family in ("ecw", "gdw"):
        return tuple(sorted({sub for pair in PAIRING_SUBMODELS for sub in pair}))
    return ()


def needed_global_models(methods: Sequence[MethodSpec]) -> tuple:
    """Global fits required by the configured methods, sorted."""
    return tuple(sorted({g for m in methods for g in _submodels(m.name)}))


_ETS_DECAY = 1.0 - ETS_ALPHA_GRID


def _ar_forecasts(V: np.ndarray, start: int, stop: int, coef: np.ndarray, intercept) -> np.ndarray:
    """One-step AR forecasts of positions [start, stop) for every column
    of the time-major array ``V``; ``coef`` is (p,) for a shared model
    or (n, p) per series. Sums ``coef[k] * lag_{k+1}`` in lag order from
    zero, then adds the intercept, as ``predict_one`` does: its dot keeps
    that order only because its reversed lag view's negative stride keeps
    numpy off BLAS."""
    p = coef.shape[-1]
    # the block's lags, gathered once: V may be a strided view of the dataset
    lagged = np.ascontiguousarray(V[start - p : stop - 1])
    acc = np.zeros((stop - start, V.shape[1]))
    for k in range(p):
        acc = acc + coef[..., k] * lagged[p - 1 - k : stop - start + p - 1 - k]
    return intercept + acc


class _EtsGrid:
    """Simple-exponential-smoothing grid search for every series at once:
    level and in-sample squared error per (series, alpha) over the
    observations [first, seen), with ``fit_ets``'s arithmetic. A window
    that keeps its first observation (``ETS_All``) extends the same grid
    from one block to the next."""

    def __init__(self, V: np.ndarray, first: int) -> None:
        self.first = first
        self.seen = first + 1
        self.level = np.repeat(V[first][:, None], ETS_ALPHA_GRID.size, axis=1)
        self.sse = np.zeros_like(self.level)

    def fit(self, V: np.ndarray, stop: int) -> tuple:
        """Extend the grid through position ``stop`` and return the best
        alpha's level and the alpha, per series."""
        for y in V[self.seen : stop, :, None]:
            self.sse += (y - self.level) ** 2
            self.level = ETS_ALPHA_GRID * y + _ETS_DECAY * self.level
        self.seen = stop
        best = np.argmin(self.sse, axis=1)
        return self.level[np.arange(best.size), best], ETS_ALPHA_GRID[best]


def _ets_forecasts(V: np.ndarray, start: int, stop: int, level: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Roll the fitted levels forward one observation per step."""
    out = np.empty((stop - start, V.shape[1]))
    for k, y in enumerate(V[start:stop]):
        out[k] = level
        level = alpha * y + (1.0 - alpha) * level
    return out


def _normalised(a: np.ndarray, b: np.ndarray) -> tuple:
    """``a`` and ``b`` as shares of their sum; 0.5 each where it is zero.
    A sum of finite values that overflows is taken of their halves."""
    total = a + b
    over = np.isinf(total)
    if over.any():
        over &= np.isfinite(a) & np.isfinite(b)
        a, b = np.where(over, a * 0.5, a), np.where(over, b * 0.5, b)
        total = a + b
    zero = total == 0.0
    return np.where(zero, 0.5, a / total), np.where(zero, 0.5, b / total)


class _CombinerBank:
    """ECW or GDW state of every series in a batch: one row per series,
    one column per pairing of ``DEFAULT_PAIRINGS``. Each step applies
    ``ecw_step``/``gdw_step``'s formulas elementwise, and the pairings
    are averaged as ``PairingEnsemble.step`` does."""

    def __init__(self, spec: MethodSpec, n: int) -> None:
        self.spec = spec
        self.rule = METHODS[spec.name].family
        self.w_p = np.full((n, len(DEFAULT_PAIRINGS)), 0.5)
        self.w_a = np.full((n, len(DEFAULT_PAIRINGS)), 0.5)
        self.y_partial = self.y_all = self.pred = None

    def step(self, y_partial: np.ndarray, y_all: np.ndarray, prev_actual: np.ndarray) -> tuple:
        """Forecast one step from the sub-model forecasts (n, pairings),
        given the actual that followed the previous step. Returns the
        combined forecast per series and the rows whose previous step
        left non-finite inputs, where ``rss_point`` would raise."""
        spec = self.spec
        diverged = np.zeros(len(y_all), dtype=bool)
        if self.pred is None:
            pred = y_all
        else:
            actual = prev_actual[:, None]
            if self.rule == "ecw":
                diverged = ~np.all(np.isfinite(self.y_partial) & np.isfinite(self.y_all), axis=1)
                r_p = actual - self.y_partial
                r_a = actual - self.y_all
                self.w_p, self.w_a = _normalised(r_a * r_a, r_p * r_p)
            else:
                residual = actual - self.pred
                if spec.true_gradient:
                    err = residual
                else:
                    diverged = ~np.all(np.isfinite(self.pred), axis=1)
                    err = residual * residual
                g_p = -2.0 * self.y_partial * err
                g_a = -2.0 * self.y_all * err
                w_p = self.w_p - g_p * spec.eta
                w_a = self.w_a - g_a * spec.eta
                if spec.clamp:
                    w_p, w_a = _normalised(np.clip(w_p, 0.0, 1.0), np.clip(w_a, 0.0, 1.0))
                self.w_p, self.w_a = w_p, w_a
            pred = self.w_p * y_partial + self.w_a * y_all
        self.y_partial, self.y_all, self.pred = y_partial, y_all, pred
        combined = 0.0
        for j in range(pred.shape[1]):
            combined = combined + pred[:, j]
        return combined / pred.shape[1], diverged

    def weight_row(self) -> np.ndarray:
        """(n, pairings, 3): weights and combined forecast of the last
        step, as the weight traces record them."""
        return np.stack([self.w_p, self.w_a, self.pred], axis=-1)


def prequential_run(
    dataset: Dataset, cfg: EvalConfig, capture_weights: bool = False, spans: Optional[Spans] = None
) -> RunResult:
    """Run every configured method over the horizon of every series of
    ``dataset``, all series together, one block at a time.

    Any fit failure marks the (series, method) pair as failed and is
    surfaced in the result rather than silently skipped.
    ``capture_weights`` additionally records the combiners' weight
    traces and their sub-models' forecasts. ``spans``, when given,
    times the block-level phases: ``pooled_fits``, ``local_ar_fits``,
    ``ets_grid``, ``forecasts`` (AR and ETS, global and local) and
    ``combiner_steps``.
    """
    if dataset.train_len + cfg.horizon > dataset.series_length:
        raise ConfigError(
            f"series of length {dataset.series_length} cannot host train_len "
            f"{dataset.train_len} plus horizon {cfg.horizon}"
        )
    spans = spans or Spans()
    values, train_len, series_ids = dataset.values, dataset.train_len, dataset.ids
    n = len(dataset)
    V = values.T  # V[t]: every series' value at position t; a view, not a copy, of the dataset
    names = [m.name for m in cfg.methods]
    preds = {name: np.full((n, cfg.horizon), np.nan) for name in names}
    fit_counts = {name: np.zeros(n, dtype=int) for name in names}
    failed: dict = {name: {} for name in names}
    ok = {name: np.ones(n, dtype=bool) for name in names}
    global_specs = {g: cfg.global_spec(g) for g in needed_global_models(cfg.methods)}
    # per method, the state kept from block to block: a combiner's bank, or an ETS grid once fitted
    carried = {m.name: _CombinerBank(m, n) for m in cfg.methods if METHODS[m.name].family in ("ecw", "gdw")}
    weights = submodels = None
    if capture_weights:
        weights = {
            name: (np.zeros(n, dtype=int), np.full((n, cfg.horizon, len(DEFAULT_PAIRINGS), 3), np.nan)) for name in carried
        }
        submodels = {g: np.full((n, cfg.horizon), np.nan) for name in carried for g in _submodels(name)}

    def fail(name: str, rows, message: str) -> None:
        """Mark the working series among ``rows`` (a mask, or True for
        all) failed for ``name``."""
        rows = np.flatnonzero(ok[name] & rows)
        for i in rows:
            failed[name][series_ids[i]] = message
        ok[name][rows] = False

    # each fit step fits method ``m`` on the positions before ``start`` and
    # returns the forecaster of the block [start, stop)

    def local_ar(m: MethodSpec, start: int, stop: int):
        record = METHODS[m.name]
        coef, intercept = np.zeros((n, record.lags)), np.zeros(n)
        with spans("local_ar_fits"):
            for i in np.flatnonzero(ok[m.name]):
                try:
                    model = fit_local_ar(values[i, :start], record.lags, record.window)
                except FitError as exc:
                    fail(m.name, i == np.arange(n), str(exc))
                    continue
                coef[i], intercept[i] = model.coef, model.intercept
        return lambda: _ar_forecasts(V, start, stop, coef, intercept)

    def ets(m: MethodSpec, start: int, stop: int):
        first = start - ets_window(METHODS[m.name].window, start)
        with spans("ets_grid"):
            grid = carried.get(m.name)
            if grid is None or grid.first != first:
                grid = carried[m.name] = _EtsGrid(V, first)
            level, alpha = grid.fit(V, start)
        return lambda: _ets_forecasts(V, start, stop, level, alpha)

    def global_ar(m: MethodSpec, start: int, stop: int):
        forecasts = block_globals[m.name]
        if isinstance(forecasts, FitError):
            raise forecasts
        return lambda: forecasts

    def combiner(m: MethodSpec, start: int, stop: int):
        broken = [g for g in _submodels(m.name) if isinstance(block_globals[g], FitError)]
        if broken:
            raise FitError(f"sub-model fit failed: {broken}")
        name, bank = m.name, carried[m.name]

        def forecast() -> np.ndarray:
            y_partial = np.stack([block_globals[partial] for partial, _ in PAIRING_SUBMODELS], axis=-1)
            y_all = np.stack([block_globals[full] for _, full in PAIRING_SUBMODELS], axis=-1)
            out = np.empty((stop - start, n))
            previous = np.ascontiguousarray(V[start - 1 : stop - 1])  # each step's previous actual, gathered once
            for k, t in enumerate(range(start, stop)):
                out[k], bad = bank.step(y_partial[k], y_all[k], previous[k])
                preds[name][bad & ok[name]] = np.nan  # a diverged combiner keeps no forecasts
                fail(name, bad, f"combiner diverged at t={t + 1}: {NON_FINITE_RSS}")
                if capture_weights:
                    steps, table = weights[name]
                    table[:, t - train_len] = bank.weight_row()
                    steps[ok[name]] += 1
            return out

        return forecast

    def oracle(m: MethodSpec, start: int, stop: int):  # reads the actuals; it needs no fit
        return lambda: V[start:stop]

    fit_step = dict(local_ar=local_ar, ets=ets, global_ar=global_ar, ecw=combiner, gdw=combiner, oracle=oracle)

    # diverging data overflows by design: it surfaces as non-finite
    # forecasts (failures in build_report) or a diverged combiner
    with np.errstate(all="ignore"):
        for start in range(train_len, train_len + cfg.horizon, cfg.block_size):
            stop = start + cfg.block_size
            block_globals = {}  # per global model: its fit, then its forecasts of the block; or its fit's FitError
            with spans("pooled_fits"):
                for g, spec in global_specs.items():
                    try:
                        block_globals[g] = fit_global_ar(dataset, start, spec)
                    except FitError as exc:
                        block_globals[g] = exc
            with spans("forecasts"):
                for g, model in block_globals.items():
                    if not isinstance(model, FitError):
                        block_globals[g] = _ar_forecasts(V, start, stop, model.coef, model.intercept)
                        if capture_weights and g in submodels:
                            submodels[g][:, start - train_len : stop - train_len] = block_globals[g].T
            for m in cfg.methods:
                name = m.name
                if not ok[name].any():
                    continue
                try:
                    forecast = fit_step[METHODS[name].family](m, start, stop)
                except FitError as exc:
                    fail(name, True, str(exc))
                    continue
                if not ok[name].any():  # every series' fit failed
                    continue
                fit_counts[name][ok[name]] += 1
                with spans("combiner_steps" if METHODS[name].family in ("ecw", "gdw") else "forecasts"):
                    forecasts = forecast()
                    preds[name][:, start - train_len : stop - train_len] = np.where(ok[name], forecasts, np.nan).T

    return RunResult(
        series_ids=series_ids,
        methods=tuple(names),
        train_len=train_len,
        horizon=cfg.horizon,
        actuals=values[:, train_len : train_len + cfg.horizon].copy(),
        predictions=preds,
        fit_counts=fit_counts,
        failures=failed,
        weight_traces=weights,
        submodel_forecasts=submodels,
    )


@dataclass
class EvalReport:
    """Per-series errors plus dataset-level aggregates per method.

    A (series, method) pair whose RMSE is not finite has failed: it is
    excluded from the aggregates and counted in ``failure_counts``.
    """

    methods: tuple
    series_ids: tuple
    rmse_per_series: dict
    mae_per_series: dict
    summary: dict
    failure_counts: dict

    @property
    def failure_fractions(self) -> dict:
        """Each method's failed share of the series, by name."""
        return {name: self.failure_counts[name] / len(self.series_ids) for name in self.methods}


def _median(x: np.ndarray) -> float:
    """The median of a non-empty 1-D array without NaN: its middle value,
    or the two middle values' ``(a + b) / 2``, the sum and division that
    ``np.median`` takes their mean with. That gives ``np.median``'s bits
    without its NaN check, which imports ``numpy.ma``."""
    k = x.size // 2
    if x.size % 2:
        return float(np.partition(x, k)[k])
    s = np.partition(x, (k - 1, k))
    return float((s[k - 1] + s[k]) / 2)


def build_report(run: RunResult) -> EvalReport:
    """Score a campaign: RMSE/MAE per series, mean/median per method.

    Each method is scored over its whole (n_series x horizon) matrix at
    once, one score per row. A failed series holds a non-finite
    forecast, so its score is not finite either; so does a series whose
    errors overflow when squared, which counts as failed without a
    warning. The medians are ``np.median``'s, bit for bit."""
    rmse_ps: dict[str, np.ndarray] = {}
    mae_ps: dict[str, np.ndarray] = {}
    summary: dict[str, dict] = {}
    failure_counts: dict[str, int] = {}
    for name in run.methods:
        with np.errstate(all="ignore"):
            error = run.predictions[name] - run.actuals
            rmse_ps[name] = r = np.sqrt(np.mean(error**2, axis=1))
            mae_ps[name] = m = np.mean(np.abs(error), axis=1)
        ok = np.isfinite(r)
        failure_counts[name] = int(np.sum(~ok))
        if ok.any():
            summary[name] = {
                "mean_rmse": float(np.mean(r[ok])),
                "median_rmse": _median(r[ok]),
                "mean_mae": float(np.mean(m[ok])),
                "median_mae": _median(m[ok]),
            }
        else:
            summary[name] = dict.fromkeys(("mean_rmse", "median_rmse", "mean_mae", "median_mae"), float("nan"))
    return EvalReport(
        methods=run.methods,
        series_ids=run.series_ids,
        rmse_per_series=rmse_ps,
        mae_per_series=mae_ps,
        summary=summary,
        failure_counts=failure_counts,
    )


@dataclass
class SensitivityTable:
    """Series bucketed by their drift parameter: the bucket ``edges``,
    the ``counts`` of series and, per method in the report's order, the
    ``means`` of its finite metric (NaN in a bucket without one)."""

    edges: np.ndarray
    counts: np.ndarray
    means: dict


def _drift_parameter(dataset: Dataset | SeriesIndex) -> tuple[str, np.ndarray]:
    kinds = {drift.kind for drift in dataset.drifts}
    if kinds == {"sudden"}:
        return "t_drift", np.array([drift.t_drift for drift in dataset.drifts], dtype=np.float64)
    if kinds == {"incremental"}:
        return "drift_length", np.array([drift.t_end - drift.t_start for drift in dataset.drifts], dtype=np.float64)
    raise ConfigError(f"no drift parameter for drift kinds {sorted(kinds)}")


def _bucket_means(dataset: Dataset | SeriesIndex, report: EvalReport, metric: str, bucket) -> SensitivityTable:
    """Average ``report``'s per-series ``metric`` per bucket of
    ``dataset``'s series. The report must score the dataset's series in
    its order. ``bucket`` takes the drift parameter's name and
    per-series values and returns the buckets' edges and each series'
    bucket."""
    if report.series_ids != dataset.ids:
        raise ConfigError(f"the report does not score the dataset's {len(dataset.ids)} series in its order")
    if metric not in ("rmse", "mae"):
        raise ConfigError(f"metric must be 'rmse' or 'mae', got {metric!r}")
    per_series = report.rmse_per_series if metric == "rmse" else report.mae_per_series
    edges, idx = bucket(*_drift_parameter(dataset))
    buckets = [idx == b for b in range(len(edges) - 1)]
    means = {}
    for name in report.methods:
        vals = per_series[name]
        kept = [vals[b & np.isfinite(vals)] for b in buckets]
        means[name] = np.array([np.mean(v) if v.size else np.nan for v in kept])
    return SensitivityTable(edges=edges, counts=np.bincount(idx, minlength=len(buckets)), means=means)


# buckets of a sensitivity table whose series differ in their drift parameter
SENSITIVITY_BUCKETS = 10


def drift_sensitivity(dataset: Dataset | SeriesIndex, report: EvalReport, metric: str = "rmse") -> SensitivityTable:
    """Bucket series by drift point (sudden) or drift length
    (incremental) and average the chosen metric per bucket."""

    def equal_width(parameter: str, values: np.ndarray) -> tuple:
        lo, hi = float(values.min()), float(values.max())
        n = SENSITIVITY_BUCKETS if hi > lo else 1  # one bucket when every series shares its value
        return np.linspace(lo, hi, n + 1), np.minimum(((values - lo) / ((hi - lo) or 1.0) * n).astype(int), n - 1)

    return _bucket_means(dataset, report, metric, equal_width)


def drift_region_split(dataset: Dataset | SeriesIndex, report: EvalReport, metric: str = "rmse") -> dict:
    """Per-method mean metric for series whose sudden drift lands in
    the test region vs the first half of training, plus the excess."""

    def regions(parameter: str, values: np.ndarray) -> tuple:
        if parameter != "t_drift":
            raise ConfigError("drift-region split needs a sudden-drift dataset")
        # buckets early (t_drift <= train_len / 2), neither, and test (t_drift >
        # train_len): searchsorted puts a value equal to an inner edge below it
        edges = np.array([-np.inf, dataset.train_len / 2.0, dataset.train_len, np.inf])
        return edges, np.searchsorted(edges[1:-1], values)

    table = _bucket_means(dataset, report, metric, regions)
    if not table.counts[0] or not table.counts[2]:
        raise ConfigError("dataset lacks series in one of the drift regions")
    return {
        name: {"early_train": float(early), "test_region": float(test), "excess": float(test - early)}
        for name, (early, _, test) in table.means.items()
    }


TRACE_COLUMNS = {"series_id": object, "method": object, "t": np.int64, "actual": np.float64, "prediction": np.float64}


def write_traces(path: str | Path, run: RunResult) -> Path:
    """Forecast trace CSV: ``series_id,method,t,actual,prediction``
    with t the 1-based series position."""
    positions = [str(run.train_len + k + 1) for k in range(run.horizon)]
    ids = [csv_field(sid) for sid in run.series_ids]
    # each series' "t,actual" fields, shared by every method: held as one
    # string per series and split on use, not as a string per value
    actuals = [csv_rows((), positions, format_floats(row)) for row in run.actuals]
    return write_csv(
        path,
        list(TRACE_COLUMNS),
        (
            csv_rows((sid, csv_name), actuals[i].splitlines(), format_floats(run.predictions[name][i]))
            for name, csv_name in zip(run.methods, map(csv_field, run.methods))
            for i, sid in enumerate(ids)
        ),
    )


def write_weight_traces(directory: str | Path, kind: str, run: RunResult) -> list[Path]:
    """Weight trace CSVs of ``run``'s combiners, one file per (combiner,
    pairing): ``weights_<method>_<pairing>_<kind>.csv`` with columns
    ``series_id,t,y,yhat_partial,yhat_all,w_p,w_a,yhat_combined``, one
    row per recorded step, y being the actual.

    The files are written side by side, one series at a time. A
    series' actuals and sub-model forecasts are formatted once, for
    every pairing of every combiner, and each file takes the first
    ``steps[i]`` of them (:attr:`RunResult.weight_traces`)."""
    header = ["series_id", "t", "y", "yhat_partial", "yhat_all", "w_p", "w_a", "yhat_combined"]
    positions = [str(run.train_len + k + 1) for k in range(run.horizon)]
    # a combiner that never stepped gets no file
    traces = {method: trace for method, trace in run.weight_traces.items() if trace[0].any()}
    paths = {
        (method, j): Path(directory) / f"weights_{method}_{partial[:3]}{full[:3]}_{kind}.csv"
        for method in traces
        for j, (partial, full) in enumerate(DEFAULT_PAIRINGS)
    }
    with ExitStack() as stack:
        files = {key: stack.enter_context(open_csv(path, header)) for key, path in paths.items()}
        for i, sid in enumerate(map(csv_field, run.series_ids)):
            y = format_floats(run.actuals[i])
            sub = {g: format_floats(forecasts[i]) for g, forecasts in run.submodel_forecasts.items()}
            for method, (steps, table) in traces.items():
                k = steps[i]
                for j, (partial, full) in enumerate(PAIRING_SUBMODELS):
                    weights = map(format_floats, table[i, :k, j].T)
                    files[method, j].write(csv_rows((sid,), positions[:k], y[:k], sub[partial][:k], sub[full][:k], *weights))
    return list(paths.values())


def load_traces(path: str | Path, index: SeriesIndex, methods: Sequence[str], horizon: int) -> RunResult:
    """Rebuild the run of ``index``'s series under the config's
    ``methods`` and ``horizon`` from a trace CSV, without fit counts or
    failures. The trace must hold exactly the test region of that run:
    for every configured method and every series of ``index``, the
    positions t = train_len + 1 .. train_len + horizon once each, and no
    other row, with every method a series' same actuals. The rows may
    come in any order; the series keep ``index``'s order and the methods
    the config's. The (method, series, t) arrays are sized once, from
    those three, and each chunk is scattered into them."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"trace file missing: {path}")
    row_of = {sid: i for i, sid in enumerate(index.ids)}
    method_of = {name: j for j, name in enumerate(methods)}
    lo, hi = index.train_len + 1, index.train_len + horizon  # the test region's positions t
    if hi > index.series_length:
        raise ConfigError(f"test region t={lo}..{hi} runs past the {index.series_length} positions of the sidecar of {path}")
    shape, size = (len(methods), len(row_of), horizon), path.stat().st_size
    # each cell needs a row of its own, of more than a byte: the config and
    # the sidecar size the arrays, which must not outgrow the file that fills them
    if len(methods) * len(row_of) * horizon > size:
        raise ConfigError(
            f"{len(methods)} methods of {len(row_of)} series of {horizon} positions "
            f"are more rows than the {size} bytes of {path} can hold"
        )
    counts = np.zeros(shape, dtype=np.uint8)  # rows read per (method, series, t), up to 2
    predictions = np.empty(shape)
    actuals = np.empty(shape[1:])  # per (series, t), from the first row that holds it
    differ = None  # a series whose actuals differ between rows
    for chunk in read_csv(path, TRACE_COLUMNS):
        sid, name, t, actual = chunk["series_id"], chunk["method"], chunk["t"], chunk["actual"]
        starts, stops = key_runs(sid, name)
        for k in starts:
            if sid[k] not in row_of:
                raise ConfigError(f"trace file {path} holds series {sid[k]!r} absent from its sidecar")
            if name[k] not in method_of:
                raise ConfigError(f"trace file {path} holds method {name[k]!r} absent from the config")
        s = np.repeat([row_of[sid[k]] for k in starts], stops - starts)
        m = np.repeat([method_of[name[k]] for k in starts], stops - starts)
        outside = (t < lo) | (t > hi)
        if outside.any():
            raise ConfigError(f"trace file {path} holds t={t[np.argmax(outside)]} outside the test region t={lo}..{hi}")
        col = t - lo
        new = ~counts[:, s, col].any(axis=0)
        actuals[s[new], col[new]] = actual[new]
        kept = actuals[s, col]
        mismatch = (kept != actual) & ~(np.isnan(kept) & np.isnan(actual))
        if differ is None and mismatch.any():
            differ = sid[np.argmax(mismatch)]
        cells, times = np.unique(np.ravel_multi_index((m, s, col), shape), return_counts=True)
        counts.flat[cells] = np.minimum(counts.flat[cells] + times, 2)
        predictions[m, s, col] = chunk["prediction"]
    wrong = np.argwhere(np.any(counts != 1, axis=2))
    if wrong.size:
        name, sid = methods[wrong[0, 0]], index.ids[wrong[0, 1]]
        raise ConfigError(f"trace of ({name!r}, {sid!r}) does not hold t={lo}..{hi} once each in {path}")
    if differ is not None:
        raise ConfigError(f"actuals of series {differ!r} differ between methods in {path}")
    return RunResult(
        series_ids=index.ids,
        methods=tuple(methods),
        train_len=index.train_len,
        horizon=horizon,
        actuals=actuals,
        predictions={name: predictions[j] for j, name in enumerate(methods)},
        fit_counts={},
        failures={},
    )
