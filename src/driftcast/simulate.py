"""Synthetic drifting-series generation.

Each simulated series splices two stationary AR trajectories: an
instant switch (sudden), a linear cross-fade over a window
(incremental), or per-index Bernoulli selection with linearly rising
switch probability (gradual). Drift locations are drawn per series
and may land in the training or test region.

The two trajectories come from the same kind of generator but with
two different coefficient vectors (``ar_coeffs`` before the drift,
``ar_coeffs_2`` after), so the switch is a real change of dynamics
that forecasting models can fail to track; setting both vectors equal
reduces the drift to a pure trajectory splice. The defaults have
nearly equal stationary variance, so the drift changes the dependence
structure rather than the scale.

Everything is deterministic given the config: series ordinal ``i``
gets seed ``base_seed + i``, from which the component trajectories,
drift parameters, and gradual selection stream are derived as
independent sub-streams.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from driftcast.core import (
    ConfigError,
    Dataset,
    DriftMeta,
    SeriesIndex,
    derive_series_seed,
    require_finite,
    spawned_seed,
)

# sub-stream ids hung off each per-series seed
_STREAM_TS1 = 0
_STREAM_TS2 = 1
_STREAM_TS2_INIT = 2
_STREAM_DRIFT_PARAMS = 3
_STREAM_GRADUAL = 4
_STREAM_MEAN2 = 5

SIM_DRIFT_KINDS = ("sudden", "incremental", "gradual")

DEFAULT_AR_COEFFS = (0.5, -0.3, 0.2)
DEFAULT_AR_COEFFS_2 = (-0.3, 0.15, 0.05)

# series simulated at a time: one block's AR trajectory array, burn-in
# rows included, is all that ``make_dataset`` holds beside the dataset
_SIM_BLOCK = 256


def check_stationary(coeffs: Sequence[float], name: str = "ar_coeffs") -> None:
    """Reject AR coefficients ``name`` whose characteristic roots touch
    the unit circle (the generated process would not be stationary)."""
    coeffs = require_finite(coeffs, name)
    if coeffs.size == 0:
        raise ConfigError(f"{name} must be non-empty")
    # The roots z of 1 - phi_1 z - ... - phi_p z^p are the reciprocals of
    # the roots of z^p - phi_1 z^(p-1) - ... - phi_p, whose leading
    # coefficient is 1: a tiny phi_p leaves a tiny root there instead of
    # a division by phi_p that overflows.
    inverse_roots = np.roots(np.concatenate([[1.0], -coeffs]))
    if np.any(np.abs(inverse_roots) * (1.0 + 1e-9) >= 1.0):
        raise ConfigError(f"{name} {coeffs.tolist()} are not stationary")


@dataclass(frozen=True)
class SimConfig:
    """Configuration for one simulated dataset (one drift kind)."""

    drift_kind: str
    n_series: int = 2000
    series_length: int = 2000
    train_len: int = 1650
    ar_coeffs: tuple = DEFAULT_AR_COEFFS
    ar_coeffs_2: tuple = DEFAULT_AR_COEFFS_2
    mean: float = 0.0
    mean_2: float = 0.0
    mean_2_high: Optional[float] = None
    noise_sd: float = 1.0
    burn_in: int = 200
    base_seed: int = 20250101

    def __post_init__(self) -> None:
        if self.drift_kind not in SIM_DRIFT_KINDS:
            raise ConfigError(f"drift_kind must be one of {SIM_DRIFT_KINDS}")
        if self.n_series < 1:
            raise ConfigError("n_series must be positive")
        if self.series_length < 20:
            raise ConfigError("series_length too short for drift placement")
        if not 1 <= self.train_len < self.series_length:
            raise ConfigError("need 1 <= train_len < series_length")
        object.__setattr__(self, "ar_coeffs", tuple(float(c) for c in self.ar_coeffs))
        object.__setattr__(self, "ar_coeffs_2", tuple(float(c) for c in self.ar_coeffs_2))
        check_stationary(self.ar_coeffs)
        check_stationary(self.ar_coeffs_2, "ar_coeffs_2")
        if len(self.ar_coeffs_2) != len(self.ar_coeffs):
            raise ConfigError("ar_coeffs and ar_coeffs_2 must share the AR order")
        if not self.noise_sd > 0:
            raise ConfigError("noise_sd must be positive")
        if not (math.isfinite(self.mean) and math.isfinite(self.mean_2)):
            raise ConfigError("process means must be finite")
        if self.mean_2_high is not None and not self.mean_2_high >= self.mean_2:
            raise ConfigError("mean_2_high must be >= mean_2")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be nonnegative")
        if not 0 <= self.base_seed < 2**64:
            raise ConfigError("base_seed must fit in 64 bits")


def combine_sudden(ts1: np.ndarray, ts2: np.ndarray, t_drift: int) -> np.ndarray:
    """ts1 strictly before 1-based index ``t_drift``, ts2 from it on."""
    ts1, ts2 = _paired(ts1, ts2)
    if not 1 <= t_drift <= len(ts1):
        raise ConfigError(f"t_drift={t_drift} outside [1, {len(ts1)}]")
    out = ts1.copy()
    out[t_drift - 1 :] = ts2[t_drift - 1 :]
    return out


def combine_incremental(ts1: np.ndarray, ts2: np.ndarray, t_start: int, t_end: int) -> np.ndarray:
    """Linear cross-fade from ts1 to ts2 over [t_start, t_end] (1-based).

    At index i inside the window the ts2 share is
    ``(i - t_start) / (t_end - t_start)``, so the boundaries reproduce
    ts1 and ts2 exactly.
    """
    ts1, ts2 = _paired(ts1, ts2)
    n = len(ts1)
    if not (1 <= t_start < t_end <= n):
        raise ConfigError(f"need 1 <= t_start < t_end <= {n}, got ({t_start}, {t_end})")
    out = ts1.copy()
    idx = np.arange(t_start, t_end + 1)
    w = (idx - t_start) / (t_end - t_start)
    out[t_start - 1 : t_end] = (1.0 - w) * ts1[t_start - 1 : t_end] + w * ts2[t_start - 1 : t_end]
    out[t_end:] = ts2[t_end:]
    return out


def combine_gradual(ts1: np.ndarray, ts2: np.ndarray, seed: int) -> np.ndarray:
    """Per-index Bernoulli pick of ts2 with probability i/length.

    Draws are consumed in index order from a generator seeded with
    ``seed``, so the combination is reproducible from the recorded
    drift metadata alone. The final index always comes from ts2.
    """
    ts1, ts2 = _paired(ts1, ts2)
    n = len(ts1)
    rng = np.random.default_rng(seed)
    take_ts2 = rng.random(n) < np.arange(1, n + 1) / n
    return np.where(take_ts2, ts2, ts1)


def _paired(ts1, ts2) -> tuple[np.ndarray, np.ndarray]:
    ts1 = require_finite(ts1, "ts1")
    ts2 = require_finite(ts2, "ts2")
    if ts1.shape != ts2.shape or ts1.ndim != 1 or ts1.size == 0:
        raise ConfigError("ts1/ts2 must be non-empty 1-D sequences of equal length")
    return ts1, ts2


def series_mean_2(cfg: SimConfig, series_seed: int) -> float:
    """The post-drift process mean for one series: fixed at ``mean_2``,
    or drawn uniformly from [mean_2, mean_2_high] when a range is
    configured (per-series drift magnitudes)."""
    if cfg.mean_2_high is None or cfg.mean_2_high == cfg.mean_2:
        return cfg.mean_2
    rng = np.random.default_rng(spawned_seed(series_seed, _STREAM_MEAN2))
    return float(rng.uniform(cfg.mean_2, cfg.mean_2_high))


def draw_drift_meta(cfg: SimConfig, series_seed: int) -> DriftMeta:
    """Sample the drift placement for one series.

    Sudden points fall in [0.1L, 0.95L]; incremental windows start in
    [0.1L, 0.7L] with widths in [0.05L, 0.25L], so transitions always
    finish inside the series.
    """
    length = cfg.series_length
    rng = np.random.default_rng(spawned_seed(series_seed, _STREAM_DRIFT_PARAMS))
    if cfg.drift_kind == "sudden":
        t_drift = int(rng.integers(math.ceil(0.1 * length), math.floor(0.95 * length) + 1))
        return DriftMeta(kind="sudden", t_drift=t_drift, seed=series_seed)
    if cfg.drift_kind == "incremental":
        t_start = int(rng.integers(math.ceil(0.1 * length), math.floor(0.7 * length) + 1))
        width = int(rng.integers(math.ceil(0.05 * length), math.floor(0.25 * length) + 1))
        return DriftMeta(kind="incremental", t_start=t_start, t_end=t_start + width, seed=series_seed)
    return DriftMeta(kind="gradual", seed=spawned_seed(series_seed, _STREAM_GRADUAL))


def _ar_batch(
    coeffs: tuple,
    noise_sd: float,
    initial: np.ndarray,
    seeds: Sequence[int],
    means: np.ndarray,
    n: int,
    burn_in: int,
) -> np.ndarray:
    """``n`` values, after ``burn_in`` discarded, of ``k`` trajectories of
    the AR process x_t = mean + sum_q phi_q (x_{t-q} - mean) + N(0, sd^2).
    ``coeffs`` are a ``SimConfig``'s, which checked them for stationarity.

    Trajectory j starts from ``initial[j]`` (oldest first), draws its
    noise from its own generator seeded with ``seeds[j]`` and runs
    around ``means[j]``. The recursion runs time-major, elementwise
    across trajectories, with the operations of the scalar reference
    (``gen_ar`` in the tests) in its order, so each row of the ``(k,
    n)`` result equals that reference bit for bit, whatever else is in
    the batch.
    """
    p = len(coeffs)
    xs = np.empty((p + burn_in + n, len(seeds)))
    xs[:p] = (initial - means[:, None]).T
    for j, seed in enumerate(seeds):
        xs[p:, j] = np.random.default_rng(seed).normal(0.0, noise_sd, size=burn_in + n)
    term = np.empty(len(seeds))
    for t in range(p, len(xs)):
        x = xs[t]  # holds this step's noise
        for q, phi in enumerate(coeffs):
            np.multiply(phi, xs[t - 1 - q], out=term)
            x += term
    out = xs[p + burn_in :]
    # as the scalar reference, add only a non-zero mean, so the two agree operation for operation
    shifted = means != 0.0
    if shifted.any():
        out[:, shifted] += means[shifted]
    return out.T


def _batch_series(cfg: SimConfig, ordinals: Sequence[int], values: np.ndarray) -> list:
    """Fill ``values``, one row per ordinal, with series ``ordinals`` of
    the dataset described by ``cfg``, and return their drift metadata.

    Every draw stays per series, as in the scalar reference; only the
    two AR recursions (ts1 and ts2, which have different coefficients)
    run across the batch. ts1 goes straight into ``values``, and each
    row is then spliced with its ts2, so only one trajectory array (with
    its burn-in rows) is held beside ``values`` at a time.
    """
    seeds = [derive_series_seed(cfg.base_seed, i) for i in ordinals]
    p, k = len(cfg.ar_coeffs), len(seeds)
    sd, n, burn_in = cfg.noise_sd, cfg.series_length, cfg.burn_in
    ts1_seeds = [spawned_seed(s, _STREAM_TS1) for s in seeds]
    values[:] = _ar_batch(cfg.ar_coeffs, sd, np.full((k, p), cfg.mean), ts1_seeds, np.full(k, cfg.mean), n, burn_in)
    means_2 = [series_mean_2(cfg, s) for s in seeds]
    init_2 = [
        np.random.default_rng(spawned_seed(s, _STREAM_TS2_INIT)).normal(m, sd, size=p) for s, m in zip(seeds, means_2)
    ]
    ts2_seeds = [spawned_seed(s, _STREAM_TS2) for s in seeds]
    ts2 = _ar_batch(cfg.ar_coeffs_2, sd, np.array(init_2), ts2_seeds, np.array(means_2), n, burn_in)
    drifts = [draw_drift_meta(cfg, s) for s in seeds]
    for j, meta in enumerate(drifts):
        if meta.kind == "sudden":
            values[j] = combine_sudden(values[j], ts2[j], meta.t_drift)
        elif meta.kind == "incremental":
            values[j] = combine_incremental(values[j], ts2[j], meta.t_start, meta.t_end)
        else:
            values[j] = combine_gradual(values[j], ts2[j], meta.seed)
    return drifts


def make_dataset(cfg: SimConfig) -> Dataset:
    """Generate the full dataset for ``cfg``, named after its drift kind
    and ordered by series ordinal, ``_SIM_BLOCK`` series at a time."""
    values = np.empty((cfg.n_series, cfg.series_length))
    drifts = []
    for start in range(0, cfg.n_series, _SIM_BLOCK):
        stop = min(start + _SIM_BLOCK, cfg.n_series)
        drifts += _batch_series(cfg, range(start, stop), values[start:stop])
    values.setflags(write=False)  # handed over to the Dataset, which keeps it
    ids = [f"{cfg.drift_kind}_{i:04d}" for i in range(cfg.n_series)]
    return Dataset(cfg.drift_kind, SeriesIndex(ids, cfg.series_length, cfg.train_len, drifts), values, asdict(cfg))
