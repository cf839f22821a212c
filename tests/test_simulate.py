import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcast import simulate
from driftcast.core import ConfigError, derive_series_seed, save_dataset, spawned_seed
from driftcast.simulate import (
    SIM_DRIFT_KINDS,
    SimConfig,
    check_stationary,
    combine_gradual,
    combine_incremental,
    combine_sudden,
    draw_drift_meta,
    make_dataset,
)
from reference import make_series
from test_core import traced_peak


# The scalar AR generator that the simulator ran once per trajectory
# before it ran all series of a kind at once: the reference for
# ``make_dataset`` and ``make_series``.


@dataclass(frozen=True)
class ArProcess:
    """An AR(p) recursion around ``mean``:
    x_t = mean + sum_k phi_k (x_{t-k} - mean) + N(0, noise_sd^2).

    ``initial`` supplies the p values preceding the first generated
    point, oldest first.
    """

    coeffs: tuple
    noise_sd: float
    initial: tuple
    seed: int
    mean: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "initial", tuple(float(v) for v in self.initial))
        if len(self.initial) != len(self.coeffs):
            raise ConfigError("need exactly one initial value per AR coefficient")
        if not self.noise_sd > 0:
            raise ConfigError("noise_sd must be positive")
        if not math.isfinite(self.mean):
            raise ConfigError("mean must be finite")


def gen_ar(proc: ArProcess, n: int, burn_in: int = 0) -> np.ndarray:
    """Simulate ``n`` values of the process after discarding ``burn_in``.

    The scalar reference for the series-batched recursion that
    ``make_dataset`` runs: its rows must equal this output bit for bit.
    """
    check_stationary(proc.coeffs)
    if n < 1 or burn_in < 0:
        raise ConfigError("need n >= 1 and burn_in >= 0")
    rng = np.random.default_rng(proc.seed)
    eps = rng.normal(0.0, proc.noise_sd, size=burn_in + n)
    phi = proc.coeffs
    p = len(phi)
    mu = proc.mean
    xs = [v - mu for v in proc.initial]
    for e in eps.tolist():
        x = e
        for k in range(p):
            x += phi[k] * xs[-1 - k]
        xs.append(x)
    out = np.asarray(xs[p + burn_in :])
    if mu != 0.0:
        out += mu
    return out


def component_pair(cfg: SimConfig, series_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The two source trajectories for one series.

    The pre-drift trajectory uses ``ar_coeffs`` around ``mean``; the
    post-drift one uses ``ar_coeffs_2`` around this series' post-drift
    mean. Noise streams are independent; ts1 starts at its mean, ts2
    from Gaussian draws under its own stream.

    The scalar reference for ``make_dataset``, which draws the same
    streams and runs both recursions across all series at once.
    """
    p = len(cfg.ar_coeffs)
    proc1 = ArProcess(
        coeffs=cfg.ar_coeffs,
        noise_sd=cfg.noise_sd,
        initial=(cfg.mean,) * p,
        seed=spawned_seed(series_seed, simulate._STREAM_TS1),
        mean=cfg.mean,
    )
    mean_2 = simulate.series_mean_2(cfg, series_seed)
    init2 = np.random.default_rng(spawned_seed(series_seed, simulate._STREAM_TS2_INIT)).normal(
        mean_2, cfg.noise_sd, size=p
    )
    proc2 = ArProcess(
        coeffs=cfg.ar_coeffs_2,
        noise_sd=cfg.noise_sd,
        initial=tuple(init2),
        seed=spawned_seed(series_seed, simulate._STREAM_TS2),
        mean=mean_2,
    )
    ts1 = gen_ar(proc1, cfg.series_length, cfg.burn_in)
    ts2 = gen_ar(proc2, cfg.series_length, cfg.burn_in)
    return ts1, ts2


def yule_walker_variance(phi, sd):
    """Solve the linear Yule-Walker system for the stationary variance."""
    p = len(phi)
    A = np.zeros((p + 1, p + 1))
    b = np.zeros(p + 1)
    A[0, 0] = 1.0
    for k in range(1, p + 1):
        A[0, k] = -phi[k - 1]
    b[0] = sd**2
    for j in range(1, p + 1):
        A[j, j] += 1.0
        for k in range(1, p + 1):
            A[j, abs(j - k)] -= phi[k - 1]
    return np.linalg.solve(A, b)[0]


class TestGenAr:
    def test_zero_coeffs_is_noise_stream(self):
        proc = ArProcess(coeffs=(0.0, 0.0, 0.0), noise_sd=1.0, initial=(0.0, 0.0, 0.0), seed=77)
        out = gen_ar(proc, 50, burn_in=0)
        expected = np.random.default_rng(77).normal(0.0, 1.0, size=50)
        assert np.array_equal(out, expected)

    def test_deterministic(self):
        proc = ArProcess(coeffs=(0.5, -0.3, 0.2), noise_sd=1.0, initial=(0.0, 0.0, 0.0), seed=5)
        assert np.array_equal(gen_ar(proc, 200, 50), gen_ar(proc, 200, 50))

    def test_variance_matches_yule_walker(self):
        phi = (0.5, -0.3, 0.2)
        proc = ArProcess(coeffs=phi, noise_sd=1.0, initial=(0.0, 0.0, 0.0), seed=11)
        x = gen_ar(proc, 100_000, burn_in=500)
        assert np.var(x) == pytest.approx(yule_walker_variance(phi, 1.0), rel=0.05)

    def test_mean_honoured(self):
        proc = ArProcess(coeffs=(0.5, -0.3, 0.2), noise_sd=0.5, initial=(3.0,) * 3, seed=2, mean=3.0)
        x = gen_ar(proc, 50_000, burn_in=300)
        assert np.mean(x) == pytest.approx(3.0, abs=0.05)

    def test_rejects_nonstationary(self):
        proc = ArProcess(coeffs=(1.0, 0.0, 0.0), noise_sd=1.0, initial=(0.0, 0.0, 0.0), seed=1)
        with pytest.raises(ConfigError):
            gen_ar(proc, 10)


class TestCombineSudden:
    def test_boundary_all_ts2(self):
        ts1, ts2 = np.arange(5.0), np.arange(5.0) + 10
        assert np.array_equal(combine_sudden(ts1, ts2, 1), ts2)

    def test_boundary_last_only(self):
        ts1, ts2 = np.arange(5.0), np.arange(5.0) + 10
        out = combine_sudden(ts1, ts2, 5)
        assert np.array_equal(out[:4], ts1[:4])
        assert out[4] == ts2[4]
        with pytest.raises(ConfigError):
            combine_sudden(ts1, ts2, 6)

    def test_direct_substitution(self):
        out = combine_sudden(np.array([1.0, 2, 3, 4]), np.array([9.0, 9, 9, 9]), 3)
        assert np.array_equal(out, [1, 2, 9, 9])
        # the splicers' input checks: equal lengths, finite values
        with pytest.raises(ConfigError, match="equal length"):
            combine_sudden(np.array([1.0, 2, 3, 4]), np.array([9.0, 9, 9]), 3)
        with pytest.raises(ConfigError, match="ts2 contains non-finite values"):
            combine_sudden(np.array([1.0, 2, 3, 4]), np.array([9.0, np.nan, 9, 9]), 3)


class TestCombineIncremental:
    def test_boundaries_exact(self):
        rng = np.random.default_rng(3)
        ts1, ts2 = rng.normal(size=20), rng.normal(size=20)
        out = combine_incremental(ts1, ts2, 5, 12)
        assert out[4] == ts1[4]  # w = 0 at t_start
        assert out[11] == ts2[11]  # w = 1 at t_end

    def test_midpoint(self):
        out = combine_incremental(np.zeros(5), np.full(5, 2.0), 2, 4)
        assert np.array_equal(out, [0, 0, 1, 2, 2])

    def test_envelope(self):
        rng = np.random.default_rng(4)
        ts1, ts2 = rng.normal(size=50), rng.normal(size=50)
        out = combine_incremental(ts1, ts2, 10, 30)
        lo, hi = np.minimum(ts1, ts2), np.maximum(ts1, ts2)
        inside = slice(9, 30)
        assert np.all(out[inside] >= lo[inside] - 1e-12)
        assert np.all(out[inside] <= hi[inside] + 1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ConfigError):
            combine_incremental(np.zeros(5), np.ones(5), 4, 4)


class TestCombineGradual:
    def test_last_index_from_ts2(self):
        for seed in range(20):
            out = combine_gradual(np.zeros(10), np.ones(10), seed)
            assert out[-1] == 1.0

    def test_identical_sources(self):
        ts = np.arange(8.0)
        assert np.array_equal(combine_gradual(ts, ts.copy(), 123), ts)

    def test_elementwise_membership(self):
        rng = np.random.default_rng(9)
        ts1, ts2 = rng.normal(size=300), rng.normal(size=300)
        out = combine_gradual(ts1, ts2, 55)
        assert np.all((out == ts1) | (out == ts2))

    def test_selection_frequency_law_of_large_numbers(self):
        n = 100_000
        out = combine_gradual(np.zeros(n), np.ones(n), seed=2024)
        window = slice(int(0.4 * n), int(0.5 * n))
        freq = out[window].mean()
        assert abs(freq - 0.45) <= 0.01
        # independent check: fresh draws from a different generator
        idx = np.arange(int(0.4 * n), int(0.5 * n)) + 1
        sim = (np.random.default_rng(1).random(idx.size) < idx / n).mean()
        assert abs(freq - sim) <= 0.02


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(drift_kind="cyclic")
        with pytest.raises(ConfigError):
            SimConfig(drift_kind="sudden", train_len=100, series_length=100)
        with pytest.raises(ConfigError):
            SimConfig(drift_kind="sudden", ar_coeffs=(1.1, 0.0, 0.0))
        with pytest.raises(ConfigError):
            SimConfig(drift_kind="sudden", ar_coeffs_2=(0.5,))
        with pytest.raises(ConfigError):
            SimConfig(drift_kind="sudden", noise_sd=0.0)
        with pytest.raises(ConfigError):
            SimConfig(drift_kind="sudden", mean_2=1.0, mean_2_high=0.5)

    def test_tiny_last_coefficient_is_stationary(self):
        # np.roots on 1 - phi_1 z - ... divided by the tiny phi_p: it
        # overflowed (LinAlgError) or found a spurious root inside the circle
        for coeffs in [(0.5, 1e-310), (0.5, -0.2, 1e-200), (0.0, 0.0, 0.125, 9.2e-248)]:
            check_stationary(coeffs)
        for coeffs in [(1.0,), (0.5, 0.5), (0.0, 0.0, 0.0, 1.0), (-1.2, 1e-300)]:
            with pytest.raises(ConfigError):
                check_stationary(coeffs)


def small_cfg(kind, **kw):
    defaults = dict(n_series=5, series_length=120, train_len=90, burn_in=50, base_seed=314)
    defaults.update(kw)
    return SimConfig(drift_kind=kind, **defaults)


class TestMakeDataset:
    def test_single_series_meta(self):
        for kind in ("sudden", "incremental", "gradual"):
            ds = make_dataset(small_cfg(kind, n_series=1))
            assert len(ds) == 1
            meta = ds.series[0].drift
            assert meta.kind == kind
            if kind == "sudden":
                assert meta.t_drift is not None
            elif kind == "incremental":
                assert meta.t_start < meta.t_end

    def test_deterministic_files(self, tmp_path):
        cfg = small_cfg("incremental")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(make_dataset(cfg), p1)
        save_dataset(make_dataset(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()

    def test_sudden_segments_match_components(self):
        cfg = small_cfg("sudden", n_series=8)
        ds = make_dataset(cfg)
        for i, s in enumerate(ds.series):
            ts1, ts2 = component_pair(cfg, cfg.base_seed + i)
            td = s.drift.t_drift
            assert np.array_equal(s.values[: td - 1], ts1[: td - 1])
            assert np.array_equal(s.values[td - 1 :], ts2[td - 1 :])

    def test_gradual_reconstructible_from_meta(self):
        cfg = small_cfg("gradual", n_series=4)
        ds = make_dataset(cfg)
        for i, s in enumerate(ds.series):
            ts1, ts2 = component_pair(cfg, cfg.base_seed + i)
            rebuilt = combine_gradual(ts1, ts2, s.drift.seed)
            assert np.array_equal(s.values, rebuilt)

    def test_drift_parameter_ranges(self):
        cfg = small_cfg("incremental", n_series=40)
        length = cfg.series_length
        for s in make_dataset(cfg).series:
            assert np.ceil(0.1 * length) <= s.drift.t_start <= np.floor(0.7 * length)
            width = s.drift.t_end - s.drift.t_start
            assert np.ceil(0.05 * length) <= width <= np.floor(0.25 * length)

    def test_all_values_finite(self):
        for kind in ("sudden", "incremental", "gradual"):
            ds = make_dataset(small_cfg(kind))
            assert np.all(np.isfinite(ds.values))

    def test_make_series_matches_dataset(self):
        cfg = small_cfg("sudden")
        ds = make_dataset(cfg)
        again = make_series(cfg, 2)
        assert np.array_equal(ds.series[2].values, again.values)
        assert ds.series[2].drift == again.drift


def bits(values):
    """The IEEE bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def scalar_series(cfg, ordinal):
    """Series ``ordinal`` built from the scalar reference: gen_ar twice
    (through component_pair), then the per-series splice."""
    seed = derive_series_seed(cfg.base_seed, ordinal)
    ts1, ts2 = component_pair(cfg, seed)
    meta = draw_drift_meta(cfg, seed)
    if meta.kind == "sudden":
        return combine_sudden(ts1, ts2, meta.t_drift), meta
    if meta.kind == "incremental":
        return combine_incremental(ts1, ts2, meta.t_start, meta.t_end), meta
    return combine_gradual(ts1, ts2, meta.seed), meta


def stationary_coeffs(order):
    # sum |phi_k| < 1 keeps every characteristic root outside the unit circle
    return st.tuples(*[st.floats(-0.95 / order, 0.95 / order) for _ in range(order)])


@st.composite
def sim_configs(draw):
    order = draw(st.integers(1, 5))
    length = draw(st.integers(20, 60))
    means = st.one_of(st.just(0.0), st.floats(-50, 50))
    mean_2 = draw(means)
    spread = draw(st.one_of(st.none(), st.floats(0, 20)))
    return SimConfig(
        drift_kind=draw(st.sampled_from(SIM_DRIFT_KINDS)),
        n_series=draw(st.integers(1, 4)),
        series_length=length,
        train_len=draw(st.integers(1, length - 1)),
        ar_coeffs=draw(stationary_coeffs(order)),
        ar_coeffs_2=draw(stationary_coeffs(order)),
        mean=draw(means),
        mean_2=mean_2,
        mean_2_high=None if spread is None else mean_2 + spread,
        noise_sd=draw(st.floats(0.01, 5)),
        burn_in=draw(st.integers(0, 30)),
        base_seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestBatchedSimulator:
    """make_dataset runs the AR recursions across series; each series
    must still be what the scalar reference makes of it alone."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=sim_configs())
    def test_matches_scalar_reference(self, cfg):
        ds = make_dataset(cfg)
        assert len(ds) == cfg.n_series
        for i, s in enumerate(ds.series):
            values, meta = scalar_series(cfg, i)
            assert np.array_equal(bits(s.values), bits(values))
            assert s.drift == meta
            alone = make_series(cfg, i)
            assert np.array_equal(bits(alone.values), bits(s.values))
            assert (alone.id, alone.drift) == (s.id, s.drift)

    def test_stationarity_checked_once_per_batch(self, monkeypatch):
        # the frozen config checks both vectors once, where it is built;
        # simulating its series checks them no more
        checked = []
        real = simulate.check_stationary
        monkeypatch.setattr(simulate, "check_stationary", lambda c, name="ar_coeffs": checked.append(c) or real(c, name))
        cfg = small_cfg("gradual", n_series=6)
        assert checked == [cfg.ar_coeffs, cfg.ar_coeffs_2]
        checked.clear()
        make_dataset(cfg)
        assert checked == []


class TestSimulationBlocks:
    """make_dataset simulates ``_SIM_BLOCK`` series at a time, straight
    into the dataset's array; blocks change neither rows nor memory."""

    def test_holds_one_trajectory_block_beside_the_values(self):
        cfg = small_cfg("sudden", n_series=600, series_length=300, train_len=250)
        assert cfg.n_series > simulate._SIM_BLOCK
        make_dataset(small_cfg("sudden", n_series=1))  # numpy.random loads on first use, outside the trace
        ds, peak = traced_peak(make_dataset, cfg)
        assert peak < 2 * ds.values.nbytes

    def test_rows_across_a_block_boundary_match_the_references(self):
        block = simulate._SIM_BLOCK
        cfg = small_cfg("incremental", n_series=block + 2, series_length=20, train_len=15, burn_in=5, mean_2=1.0, mean_2_high=3.0)
        ds = make_dataset(cfg)
        for i in range(block - 2, block + 2):
            alone = make_series(cfg, i)
            values, meta = scalar_series(cfg, i)
            assert np.array_equal(bits(ds.values[i]), bits(alone.values))
            assert np.array_equal(bits(ds.values[i]), bits(values))
            assert (ds.ids[i], ds.drifts[i]) == (alone.id, alone.drift) == (f"incremental_{i:04d}", meta)
