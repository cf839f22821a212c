import csv
import dataclasses
import io
import itertools
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftcast import core, evaluate, learners
from driftcast.combine import DEFAULT_PAIRINGS, PairingEnsemble
from driftcast.core import ConfigError, DriftcastError, DriftMeta, FitError, SeriesIndex, TimeSeries
from driftcast.evaluate import (
    METHODS,
    PAIRING_SUBMODELS,
    EvalConfig,
    MethodSpec,
    RunResult,
    build_report,
    drift_region_split,
    drift_sensitivity,
    load_traces,
    prequential_run,
    write_traces,
    write_weight_traces,
)
from driftcast.learners import ForecastModel, fit_ets, predict_one
from driftcast.simulate import SimConfig, make_dataset
from reference import from_series, mae, rmse
from test_core import bits, traced_peak, write_rows


def tiny_dataset(kind="sudden", n_series=6, length=120, train_len=90, seed=2718):
    return make_dataset(
        SimConfig(
            drift_kind=kind,
            n_series=n_series,
            series_length=length,
            train_len=train_len,
            burn_in=50,
            base_seed=seed,
        )
    )


def specs(*names, **flags):
    return tuple(MethodSpec(name=n, **flags) for n in names)


ALL_METHODS = tuple(METHODS)

COMBINERS = ("ecw", "gdw")


def scalar_replay(dataset, cfg):
    """The reference for the batch engine: every method replayed series
    by series and step by step from the scalar oracles (``fit_ets``,
    ``fit_local_ar``, ``predict_one``, ``PairingEnsemble``), with the
    harness's failure rules. Fits go through the ``evaluate`` module's
    names so that a test's substitutes reach both paths."""
    globals_by_block = []
    for b in range(cfg.horizon // cfg.block_size):
        fit_through = dataset.train_len + b * cfg.block_size
        models, failures = {}, {}
        for name in evaluate.needed_global_models(cfg.methods):
            try:
                models[name] = evaluate.fit_global_ar(dataset, fit_through, cfg.global_spec(name))
            except FitError as exc:
                failures[name] = str(exc)
        globals_by_block.append((models, failures))
    with np.errstate(all="ignore"):
        per_series = [_replay_series(s.values, s.train_len, cfg, globals_by_block) for s in dataset.series]
    names = [m.name for m in cfg.methods]
    preds = {name: np.vstack([r[0][name] for r in per_series]) for name in names}
    fit_counts = {name: np.array([r[1][name] for r in per_series]) for name in names}
    failures = {name: {s.id: r[2][name] for s, r in zip(dataset.series, per_series) if name in r[2]} for name in names}
    weights = {
        name: {s.id: r[3][name] for s, r in zip(dataset.series, per_series)}
        for name in names
        if METHODS[name].family in COMBINERS
    }
    return preds, fit_counts, failures, weights


def _replay_series(values, train_len, cfg, globals_by_block):
    names = [m.name for m in cfg.methods]
    preds = {name: np.full(cfg.horizon, np.nan) for name in names}
    fit_counts = {name: 0 for name in names}
    failed = {}
    local_models = {}
    ensembles = {
        m.name: PairingEnsemble(rule=METHODS[m.name].family, eta=m.eta, true_gradient=m.true_gradient, clamp=m.clamp)
        for m in cfg.methods
        if METHODS[m.name].family in COMBINERS
    }
    log = {name: [] for name in ensembles}
    for b, (block_globals, block_failures) in enumerate(globals_by_block):
        fit_through = train_len + b * cfg.block_size
        for name in names:
            if name in failed:
                continue
            record = METHODS[name]
            if record.family in ("local_ar", "ets"):
                try:
                    if record.family == "ets":
                        local_models[name] = fit_ets(values[:fit_through], record.window)
                    else:
                        local_models[name] = evaluate.fit_local_ar(values[:fit_through], record.lags, record.window)
                except FitError as exc:
                    failed[name] = str(exc)
                    continue
            elif record.family == "global_ar" and name in block_failures:
                failed[name] = block_failures[name]
                continue
            elif record.family in COMBINERS:
                broken = sorted({sub for pair in PAIRING_SUBMODELS for sub in pair if sub in block_failures})
                if broken:
                    failed[name] = f"sub-model fit failed: {broken}"
                    continue
            fit_counts[name] += 1
        for k in range(cfg.block_size):
            t = fit_through + k
            history = values[:t]
            g = {gname: predict_one(model, history) for gname, model in block_globals.items()}
            for name in names:
                if name in failed:
                    continue
                family = METHODS[name].family
                if family in ("local_ar", "ets"):
                    preds[name][t - train_len] = predict_one(local_models[name], history)
                elif family == "global_ar":
                    preds[name][t - train_len] = g[name]
                elif family in COMBINERS:
                    sub = {pairing: (g[partial], g[full]) for pairing, (partial, full) in zip(DEFAULT_PAIRINGS, PAIRING_SUBMODELS)}
                    try:
                        preds[name][t - train_len] = ensembles[name].step(sub)
                    except DriftcastError as exc:
                        failed[name] = f"combiner diverged at t={t + 1}: {exc}"
                        preds[name][:] = np.nan
                else:
                    preds[name][t - train_len] = values[t]
            for name, ensemble in ensembles.items():
                if name not in failed:
                    row = {
                        p: (st.prev_pred_partial, st.prev_pred_all, st.w_p, st.w_a, st.prev_pred_combined)
                        for p, st in ensemble.states.items()
                    }
                    log[name].append((t + 1, float(values[t]), row))
                    ensemble.observe(values[t])
    return preds, fit_counts, failed, log


def weight_table(rows, run, i):
    """A replayed weight trace of series ``i`` as the engine records it,
    a (steps, pairings, 5) array, after checking its t and y columns,
    which the engine leaves to the positions and ``run.actuals``."""
    assert [t for t, _, _ in rows] == list(range(run.train_len + 1, run.train_len + 1 + len(rows)))
    assert [actual for _, actual, _ in rows] == run.actuals[i, : len(rows)].tolist()
    assert all(list(row) == list(DEFAULT_PAIRINGS) for _, _, row in rows)
    return np.array([list(row.values()) for _, _, row in rows]).reshape(len(rows), len(DEFAULT_PAIRINGS), 5)


def recorded_weights(run, name, i):
    """The recorded steps of combiner ``name`` on series ``i`` as the
    replay logs them, a (steps, pairings, 5) array: per pairing, the
    partial and full forecasts from ``run.submodel_forecasts``, then the
    weights and combined forecast from ``run.weight_traces``."""
    steps, table = run.weight_traces[name]
    k = steps[i]
    sub = np.array([[run.submodel_forecasts[g][i, :k] for g in pair] for pair in PAIRING_SUBMODELS])
    return np.concatenate([sub.transpose(2, 0, 1), table[i, :k]], axis=-1)


def assert_matches_replay(run, dataset, cfg):
    preds, fit_counts, failures, weights = scalar_replay(dataset, cfg)
    for name in run.methods:
        assert np.array_equal(run.predictions[name], preds[name], equal_nan=True), name
        assert np.array_equal(run.fit_counts[name], fit_counts[name]), name
        assert run.failures[name] == failures[name], name
    if run.weight_traces is not None:
        assert set(run.weight_traces) == set(weights)
        for name, per_series in weights.items():
            steps, table = run.weight_traces[name]
            assert table.shape == (len(dataset), cfg.horizon, len(DEFAULT_PAIRINGS), 3)
            for i, rows in enumerate(per_series.values()):
                assert steps[i] == len(rows), (name, i)
                assert np.array_equal(recorded_weights(run, name, i), weight_table(rows, run, i), equal_nan=True), (name, i)


def spiked_dataset(n_series=4, spike_series=1, length=80, train_len=50, spike_at=60):
    """Small random series, one of which holds two 1e308 values in the
    test region, so that a model summing two lags overflows on it."""
    rng = np.random.default_rng(5)
    series = []
    for i in range(n_series):
        values = rng.normal(scale=0.1, size=length)
        if i == spike_series:
            values[spike_at : spike_at + 2] = 1e308
        series.append(TimeSeries(id=f"s{i}", values=values, train_len=train_len))
    return from_series(name="spiked", series=tuple(series))


def two_lag_sum_models(dataset, train_through, spec):
    """Hand-built pooled model: forecast = lag 1 + lag 2."""
    coef = np.zeros(spec.p)
    coef[:2] = 1.0
    return ForecastModel(spec=spec, fitted_through=train_through, coef=coef, intercept=0.0)


class TestMetrics:
    def test_rmse_examples(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0
        assert rmse([0, 0, 0], [1, 1, 1]) == pytest.approx(1.0)
        assert rmse([0, 0], [3, 4]) == pytest.approx(np.sqrt(12.5))

    def test_mae_examples(self):
        assert mae([1, 2], [1, 2]) == 0.0
        assert mae([0, 0], [1, 1]) == pytest.approx(1.0)
        assert mae([0, 0], [3, -4]) == pytest.approx(3.5)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            rmse([1, 2], [1, 2, 3])
        with pytest.raises(ConfigError):
            mae([1], [])

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, f = rng.normal(size=(2, 40))
            assert rmse(a, f) >= mae(a, f) - 1e-12


class TestPrequentialRun:
    def test_fit_counts_and_shapes(self):
        ds = tiny_dataset()
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("AR3_All", "Plain_All", "GDW"))
        run = prequential_run(ds, cfg)
        for name in run.methods:
            assert run.predictions[name].shape == (len(ds), 30)
            assert np.all(run.fit_counts[name] == 3)
            assert np.all(np.isfinite(run.predictions[name]))

    def test_oracle_zero_error(self):
        ds = tiny_dataset()
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("Oracle"))
        run = prequential_run(ds, cfg)
        report = build_report(run)
        assert report.summary["Oracle"]["mean_rmse"] == pytest.approx(0.0, abs=1e-14)

    def test_single_block_degeneracy(self):
        ds = tiny_dataset()
        cfg = EvalConfig(horizon=30, block_size=30, methods=specs("AR3_All"))
        run = prequential_run(ds, cfg)
        assert np.all(run.fit_counts["AR3_All"] == 1)

    def test_leakage_sentinel(self):
        ds = tiny_dataset()
        alt = tiny_dataset(seed=999)  # plausible but different future values
        cfg = EvalConfig(
            horizon=30, block_size=10, methods=specs("AR3_All", "ETS_200", "Plain_All", "EXP_200", "GDW", "ECW")
        )
        baseline = prequential_run(ds, cfg)
        corrupt_from = ds.train_len + 15
        corrupted = []
        for s, other in zip(ds.series, alt.series):
            values = s.values.copy()
            values[corrupt_from:] = other.values[corrupt_from:]
            corrupted.append(TimeSeries(id=s.id, values=values, train_len=s.train_len, drift=s.drift))
        run2 = prequential_run(from_series(name="corrupt", series=tuple(corrupted)), cfg)
        for name in baseline.methods:
            a = baseline.predictions[name][:, :15]
            b = run2.predictions[name][:, :15]
            assert not np.array_equal(
                baseline.predictions[name], run2.predictions[name]
            ), f"{name} corruption had no effect at all"
            assert np.array_equal(a, b), f"{name} leaked future information"

    def test_series_reordering_invariance(self, monkeypatch):
        ds = tiny_dataset()
        reordered = from_series(name=ds.name, series=tuple(reversed(ds.series)), generator_config=None)
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs(*ALL_METHODS))
        rep1 = build_report(prequential_run(ds, cfg))
        rep2 = build_report(prequential_run(reordered, cfg))
        for name in rep1.methods:
            assert rep1.summary[name]["mean_rmse"] == pytest.approx(rep2.summary[name]["mean_rmse"], rel=1e-12)

        # the pooled fit sums series in dataset order, so its last bits
        # depend on that order; pooled in id order, both runs share the
        # same global models and every series must come out bit for bit
        real_fit = evaluate.fit_global_ar

        def fit_in_id_order(dataset, train_through, spec):
            canonical = from_series(name=dataset.name, series=tuple(sorted(dataset.series, key=lambda s: s.id)))
            return real_fit(canonical, train_through, spec)

        monkeypatch.setattr(evaluate, "fit_global_ar", fit_in_id_order)
        run = prequential_run(ds, cfg, capture_weights=True)
        rev = prequential_run(reordered, cfg, capture_weights=True)
        assert rev.series_ids == run.series_ids[::-1]
        for name in run.methods:
            assert run.failures[name] == rev.failures[name], name
            for i, sid in enumerate(run.series_ids):
                j = len(run.series_ids) - 1 - i
                assert np.array_equal(run.predictions[name][i], rev.predictions[name][j], equal_nan=True), (name, sid)
                assert run.fit_counts[name][i] == rev.fit_counts[name][j], (name, sid)
        assert set(run.weight_traces) == set(rev.weight_traces) == {"GDW", "ECW"}
        for name, (steps, table) in run.weight_traces.items():
            rev_steps, rev_table = rev.weight_traces[name]
            for i, sid in enumerate(run.series_ids):
                j = len(run.series_ids) - 1 - i
                assert steps[i] == rev_steps[j], (name, sid)
                assert np.array_equal(table[i, : steps[i]], rev_table[j, : steps[i]], equal_nan=True), (name, sid)
        assert set(run.submodel_forecasts) == set(rev.submodel_forecasts) == {g for pair in PAIRING_SUBMODELS for g in pair}
        for g, forecasts in run.submodel_forecasts.items():
            assert np.array_equal(bits(forecasts), bits(rev.submodel_forecasts[g][::-1])), g

    def test_submodel_forecasts_are_the_global_forecasts(self):
        ds = tiny_dataset()
        cfg = EvalConfig(horizon=30, block_size=10)  # every method of the benchmark matrix
        assert len(cfg.methods) == 14
        assert prequential_run(ds, cfg).submodel_forecasts is None
        run = prequential_run(ds, cfg, capture_weights=True)
        assert set(run.submodel_forecasts) == {"EXP_200", "EXP_All", "Linear_200", "Linear_All"}
        for g, forecasts in run.submodel_forecasts.items():
            assert np.all(np.isfinite(forecasts)), g
            assert np.array_equal(bits(forecasts), bits(run.predictions[g])), g

    def test_fit_failure_reported_not_silent(self):
        ds = tiny_dataset(length=60, train_len=10)
        cfg = EvalConfig(horizon=50, block_size=50, methods=specs("AR3_All", "AR5_200"), global_lags=4)
        run = prequential_run(ds, cfg)
        assert len(run.failures["AR5_200"]) == len(ds)  # window 10 < 2*5+2
        assert len(run.failures["AR3_All"]) == 0
        report = build_report(run)
        assert report.failure_counts["AR5_200"] == len(ds)
        assert np.isnan(report.summary["AR5_200"]["mean_rmse"])
        assert np.isfinite(report.summary["AR3_All"]["mean_rmse"])

    def test_history_shorter_than_lag_order(self):
        ds = tiny_dataset(length=60, train_len=4)
        cfg = EvalConfig(horizon=50, block_size=50, methods=specs("AR5_All", "ETS_All"), global_lags=3)
        run = prequential_run(ds, cfg)
        assert len(run.failures["AR5_All"]) == len(ds)
        assert run.failures["ETS_All"] == {}
        assert_matches_replay(run, ds, cfg)

    def test_horizon_must_fit(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError):
            prequential_run(ds, EvalConfig(horizon=50, block_size=10, methods=specs("AR3_All")))

    def test_combiner_state_persists_across_blocks(self):
        # one block vs three blocks differ only through refits; the GDW
        # weight stream must not reset at boundaries, which shows up as
        # identical predictions when the models happen to be identical
        ds = tiny_dataset(n_series=2)
        cfg3 = EvalConfig(horizon=30, block_size=10, methods=specs("GDW"))
        run3 = prequential_run(ds, cfg3)
        assert np.all(np.isfinite(run3.predictions["GDW"]))


class TestBatchEngine:
    """The series-batched engine against the scalar replay, bit for bit."""

    @pytest.mark.parametrize("literal_value_scaling", [False, True])
    @pytest.mark.parametrize("gdw_flags", [{}, {"true_gradient": True}, {"clamp": True}])
    def test_matches_scalar_replay(self, gdw_flags, literal_value_scaling):
        # train_len 180 in blocks of 10: the ETS_200 window keeps its
        # first observation for three blocks, then starts sliding
        ds = tiny_dataset(n_series=5, length=240, train_len=180)
        methods = tuple(MethodSpec(name=n, **(gdw_flags if n == "GDW" else {})) for n in ALL_METHODS)
        cfg = EvalConfig(horizon=40, block_size=10, methods=methods, literal_value_scaling=literal_value_scaling)
        run = prequential_run(ds, cfg, capture_weights=True)
        assert_matches_replay(run, ds, cfg)

    def test_run_builds_one_lag_product_table_per_dataset(self, monkeypatch):
        built = []
        real = learners._lag_table
        monkeypatch.setattr(learners, "_lag_table", lambda values, p: built.append(values.shape) or real(values, p))
        cfg = EvalConfig(horizon=40, block_size=10, methods=specs(*ALL_METHODS))
        # four blocks, each fitting the six pooled models
        for ds in (tiny_dataset(n_series=5, length=240, train_len=200), tiny_dataset(n_series=3, length=250, train_len=210, seed=1)):
            prequential_run(ds, cfg)
        assert built == [(5, 240), (3, 250)]

    def test_failed_local_fit_keeps_earlier_forecasts(self, monkeypatch):
        ds = tiny_dataset(n_series=4)
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("AR3_All", "AR5_200", "ETS_All"))
        baseline = prequential_run(ds, cfg)
        victim = ds.series[2].values
        real_fit = evaluate.fit_local_ar

        def fit_failing_from_block_2(values, p, window="all"):
            if len(values) >= ds.train_len + 20 and np.array_equal(values, victim[: len(values)]):
                raise FitError("synthetic failure")
            return real_fit(values, p, window)

        monkeypatch.setattr(evaluate, "fit_local_ar", fit_failing_from_block_2)
        run = prequential_run(ds, cfg)
        assert_matches_replay(run, ds, cfg)
        for name in ("AR3_All", "AR5_200"):
            assert run.failures[name] == {ds.series[2].id: "synthetic failure"}
            assert list(run.fit_counts[name]) == [3, 3, 2, 3]
            kept = np.ones(len(ds), dtype=bool)
            kept[2] = False
            assert np.array_equal(run.predictions[name][kept], baseline.predictions[name][kept])
            assert np.array_equal(run.predictions[name][2, :20], baseline.predictions[name][2, :20])
            assert np.all(np.isnan(run.predictions[name][2, 20:]))
        assert np.array_equal(run.predictions["ETS_All"], baseline.predictions["ETS_All"])

    def test_diverged_combiner_fails_alone(self, monkeypatch):
        monkeypatch.setattr(evaluate, "fit_global_ar", two_lag_sum_models)
        ds = spiked_dataset()
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("ECW", "GDW", "Plain_All"), global_lags=3)
        run = prequential_run(ds, cfg, capture_weights=True)
        assert_matches_replay(run, ds, cfg)
        for name in ("ECW", "GDW"):
            (sid, message), = run.failures[name].items()
            assert sid == "s1"
            assert message.startswith("combiner diverged at t=") and message.endswith("rss_point requires finite inputs")
            assert np.all(np.isnan(run.predictions[name][1]))
            assert run.weight_traces[name][0][1] < cfg.horizon  # steps recorded for s1
        assert run.failures["Plain_All"] == {}
        # the other series of the batch come out as if run on their own
        rest = from_series(name="rest", series=tuple(s for s in ds.series if s.id != "s1"))
        alone = prequential_run(rest, cfg)
        for name in run.methods:
            assert np.array_equal(np.delete(run.predictions[name], 1, axis=0), alone.predictions[name]), name

    def test_true_gradient_divergence_is_silent(self, monkeypatch):
        monkeypatch.setattr(evaluate, "fit_global_ar", two_lag_sum_models)
        ds = spiked_dataset()
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("GDW", true_gradient=True), global_lags=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = prequential_run(ds, cfg)
        assert run.failures["GDW"] == {}
        assert not np.all(np.isfinite(run.predictions["GDW"][1]))
        assert np.all(np.isfinite(np.delete(run.predictions["GDW"], 1, axis=0)))
        with np.errstate(over="ignore"):
            assert build_report(run).failure_counts["GDW"] == 1
        assert_matches_replay(run, ds, cfg)

    @pytest.mark.parametrize("literal_value_scaling", [False, True])
    def test_exponential_weights_underflow_on_long_series(self, literal_value_scaling):
        # 0.9**n underflows to zero past n of about 7,070
        ds = tiny_dataset(n_series=3, length=7200, train_len=7180)
        cfg = EvalConfig(
            horizon=20, block_size=10, methods=specs("EXP_All", "ECW"), literal_value_scaling=literal_value_scaling
        )
        run = prequential_run(ds, cfg)
        assert run.failures == {"EXP_All": {}, "ECW": {}}
        for name in run.methods:
            assert np.all(np.isfinite(run.predictions[name]))


    @staticmethod
    def assert_failures_not_scored(run):
        """Every failed (series, method) pair holds a non-finite forecast,
        so ``build_report`` scores it as a failure."""
        with np.errstate(all="ignore"):
            report = build_report(run)
        assert any(run.failures.values())
        for name, failed in run.failures.items():
            for sid in failed:
                i = run.series_ids.index(sid)
                assert not np.all(np.isfinite(run.predictions[name][i])), (name, sid)
                assert not np.isfinite(report.rmse_per_series[name][i]), (name, sid)
            assert report.failure_counts[name] >= len(failed)

    def test_failed_local_fit_is_not_scored(self, monkeypatch):
        ds = tiny_dataset(n_series=4)
        victim = ds.series[1].values
        real_fit = evaluate.fit_local_ar

        def fit_failing_from_block_3(values, p, window="all"):
            if len(values) >= ds.train_len + 20 and np.array_equal(values, victim[: len(values)]):
                raise FitError("synthetic failure")
            return real_fit(values, p, window)

        monkeypatch.setattr(evaluate, "fit_local_ar", fit_failing_from_block_3)
        run = prequential_run(ds, EvalConfig(horizon=30, block_size=10, methods=specs("AR3_All", "AR5_200")))
        sid = ds.series[1].id
        assert {name: list(failed) for name, failed in run.failures.items()} == {"AR3_All": [sid], "AR5_200": [sid]}
        assert np.all(np.isfinite(run.predictions["AR3_All"][1, :20]))  # forecasts made before the failure stay
        self.assert_failures_not_scored(run)

    def test_failed_global_fit_is_not_scored(self, monkeypatch):
        ds = tiny_dataset(n_series=3)
        real_fit = evaluate.fit_global_ar

        def fit_failing_from_block_2(dataset, train_through, spec):
            if train_through > dataset.train_len:
                raise FitError("synthetic failure")
            return real_fit(dataset, train_through, spec)

        monkeypatch.setattr(evaluate, "fit_global_ar", fit_failing_from_block_2)
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("Plain_All", "GDW", "ECW", "AR3_All"), global_lags=3)
        run = prequential_run(ds, cfg, capture_weights=True)
        assert_matches_replay(run, ds, cfg)
        assert run.failures["Plain_All"] == dict.fromkeys(run.series_ids, "synthetic failure")
        broken = "sub-model fit failed: ['EXP_200', 'EXP_All', 'Linear_200', 'Linear_All']"
        for name in ("GDW", "ECW"):
            assert run.failures[name] == dict.fromkeys(run.series_ids, broken), name
            assert list(run.weight_traces[name][0]) == [10] * len(ds), name  # steps of the first block
        for name in ("Plain_All", "GDW", "ECW"):
            assert list(run.fit_counts[name]) == [1] * len(ds), name
            assert np.all(np.isfinite(run.predictions[name][:, :10])), name
        assert run.failures["AR3_All"] == {}
        self.assert_failures_not_scored(run)

    def test_diverged_combiner_is_not_scored(self, monkeypatch):
        monkeypatch.setattr(evaluate, "fit_global_ar", two_lag_sum_models)
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("ECW", "GDW", "Plain_All"), global_lags=3)
        run = prequential_run(spiked_dataset(), cfg)
        assert list(run.failures["ECW"]) == list(run.failures["GDW"]) == ["s1"]
        self.assert_failures_not_scored(run)


class TestEvalConfig:
    def test_divisibility(self):
        with pytest.raises(ConfigError):
            EvalConfig(horizon=100, block_size=30)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            MethodSpec(name="ARIMA")

    def test_duplicate_methods(self):
        with pytest.raises(ConfigError):
            EvalConfig(methods=specs("AR3_All", "AR3_All"))


class TestMethodTable:
    """The table as typed out independently of the engine and the
    scalar replay, which both read it: it matches the README matrix."""

    def test_records_in_report_order(self):
        expected = [
            # name, family, group, lags, window, weighting
            ("AR3_200", "local_ar", "statistical", 3, "last_200", None),
            ("AR3_All", "local_ar", "statistical", 3, "all", None),
            ("AR5_200", "local_ar", "statistical", 5, "last_200", None),
            ("AR5_All", "local_ar", "statistical", 5, "all", None),
            ("ETS_200", "ets", "statistical", None, "last_200", None),
            ("ETS_All", "ets", "statistical", None, "all", None),
            ("EXP_200", "global_ar", "gfm", None, "last_200", "exponential"),
            ("EXP_All", "global_ar", "gfm", None, "all", "exponential"),
            ("Linear_200", "global_ar", "gfm", None, "last_200", "linear"),
            ("Linear_All", "global_ar", "gfm", None, "all", "linear"),
            ("Plain_200", "global_ar", "gfm", None, "last_200", "none"),
            ("Plain_All", "global_ar", "gfm", None, "all", "none"),
            ("GDW", "gdw", "proposed", None, None, None),
            ("ECW", "ecw", "proposed", None, None, None),
            ("Oracle", "oracle", "diagnostic", None, None, None),
        ]
        got = [(name, r.family, r.group, r.lags, r.window, r.weighting) for name, r in METHODS.items()]
        assert got == expected

    def test_pairing_sub_models(self):
        assert dict(zip(DEFAULT_PAIRINGS, PAIRING_SUBMODELS)) == {
            ("exponential", "exponential"): ("EXP_200", "EXP_All"),
            ("exponential", "linear"): ("EXP_200", "Linear_All"),
            ("linear", "exponential"): ("Linear_200", "EXP_All"),
            ("linear", "linear"): ("Linear_200", "Linear_All"),
        }


class TestSensitivity:
    def test_partition_identity(self):
        ds = tiny_dataset(n_series=30)
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("AR3_All", "Plain_All"))
        report = build_report(prequential_run(ds, cfg))
        table = drift_sensitivity(ds, report, metric="rmse")
        for name in report.methods:
            means = table.means[name]
            counts = table.counts
            mask = counts > 0
            recombined = np.sum(means[mask] * counts[mask]) / counts.sum()
            assert recombined == pytest.approx(np.nanmean(report.rmse_per_series[name]), abs=1e-10)

    def test_single_bucket_when_shared_point(self):
        values = np.random.default_rng(0).normal(size=(4, 60))
        series = tuple(
            TimeSeries(
                id=f"s{i}", values=v, train_len=40, drift=DriftMeta(kind="sudden", t_drift=20, seed=i)
            )
            for i, v in enumerate(values)
        )
        ds = from_series(name="d", series=series)
        cfg = EvalConfig(horizon=20, block_size=10, methods=specs("AR3_All"))
        report = build_report(prequential_run(ds, cfg))
        table = drift_sensitivity(ds, report)
        assert len(table.counts) == 1
        assert table.means["AR3_All"][0] == pytest.approx(np.mean(report.rmse_per_series["AR3_All"]))

    def test_oracle_flat_zero(self):
        ds = tiny_dataset(n_series=20)
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("Oracle"))
        report = build_report(prequential_run(ds, cfg))
        table = drift_sensitivity(ds, report)
        assert np.allclose(table.means["Oracle"][table.counts > 0], 0.0, atol=1e-14)

    def test_gradual_has_no_parameter(self):
        ds = tiny_dataset(kind="gradual")
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("AR3_All"))
        report = build_report(prequential_run(ds, cfg))
        with pytest.raises(ConfigError):
            drift_sensitivity(ds, report)

    def test_unknown_metric_rejected(self):
        ds = tiny_dataset(n_series=30)
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("AR3_All"))
        report = build_report(prequential_run(ds, cfg))
        with pytest.raises(ConfigError):
            drift_sensitivity(ds, report, metric="rsme")
        with pytest.raises(ConfigError):
            drift_region_split(ds, report, metric="rsme")

    def test_tables_need_the_report_of_the_dataset(self):
        ds = tiny_dataset(n_series=12)
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("AR3_All"))
        reordered = from_series(name=ds.name, series=tuple(reversed(ds.series)))
        report = build_report(prequential_run(reordered, cfg))
        for table in (drift_sensitivity, drift_region_split):
            for dataset in (ds, ds.index):
                with pytest.raises(ConfigError, match="does not score the dataset's 12 series in its order"):
                    table(dataset, report)
        drift_sensitivity(reordered.index, report)

    def test_region_split_needs_both_groups(self):
        ds = tiny_dataset(kind="incremental")
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("AR3_All"))
        report = build_report(prequential_run(ds, cfg))
        with pytest.raises(ConfigError):
            drift_region_split(ds, report)

    def test_region_without_a_finite_score_reads_nan(self):
        ds = tiny_dataset(n_series=30)
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("AR3_All", "Plain_All"))
        report = build_report(prequential_run(ds, cfg))
        t_drift = np.array([drift.t_drift for drift in ds.drifts])
        early = t_drift <= ds.train_len / 2
        assert early.any() and (t_drift > ds.train_len).any()
        report.rmse_per_series["AR3_All"][early] = np.nan  # AR3_All failed on every early-drift series
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = drift_region_split(ds, report)
        assert np.isnan(split["AR3_All"]["early_train"]) and np.isnan(split["AR3_All"]["excess"])
        test = report.rmse_per_series["AR3_All"][t_drift > ds.train_len]
        assert split["AR3_All"]["test_region"] == float(np.mean(test))
        assert all(np.isfinite(v) for v in split["Plain_All"].values())


def reference_trace_csv(run, path):
    """The per-row writer that ``write_traces`` replaced: the oracle for
    its bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series_id", "method", "t", "actual", "prediction"])
        for name in run.methods:
            for i, sid in enumerate(run.series_ids):
                for k in range(run.horizon):
                    writer.writerow(
                        [sid, name, run.train_len + k + 1, repr(float(run.actuals[i][k])), repr(float(run.predictions[name][i][k]))]
                    )


def reference_weight_traces(run, kind):
    """The per-row writer the weight trace files came from before
    (csv.writer, ``repr`` floats): the oracle for their bytes, by file
    name."""
    files = {}
    for method, (steps, table) in run.weight_traces.items():
        if not steps.any():  # a combiner that never stepped has no file
            continue
        for j, (partial, full) in enumerate(DEFAULT_PAIRINGS):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["series_id", "t", "y", "yhat_partial", "yhat_all", "w_p", "w_a", "yhat_combined"])
            for i, sid in enumerate(run.series_ids):
                for k, row in enumerate(recorded_weights(run, method, i)):
                    values = (run.actuals[i, k], *row[j])
                    writer.writerow([sid, run.train_len + k + 1] + [repr(float(v)) for v in values])
            files[f"weights_{method}_{partial[:3]}{full[:3]}_{kind}.csv"] = buf.getvalue().encode()
    return files


def hand_made_run(series_ids, train_len, actuals, predictions, weight_traces=None, submodel_forecasts=None):
    n, horizon = actuals.shape
    return RunResult(
        series_ids=tuple(series_ids),
        methods=tuple(predictions),
        train_len=train_len,
        horizon=horizon,
        actuals=actuals,
        predictions=predictions,
        fit_counts={name: np.zeros(n, dtype=int) for name in predictions},
        failures={name: {} for name in predictions},
        weight_traces=weight_traces,
        submodel_forecasts=submodel_forecasts,
    )


# ids that need csv quoting, and forecasts whose repr is easy to get wrong
EDGE_IDS = ("", "a,b", 'q"t', "line\nbreak")
EDGE_PREDICTIONS = (np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1)

# any text the files' utf-8 can hold but "\r", which SeriesIndex
# rejects; any float64, the edge values drawn often
NAMES = st.text(st.characters(codec="utf-8", exclude_characters="\r"), max_size=6)
FLOATS = st.floats() | st.sampled_from(EDGE_PREDICTIONS + (-5e-324, 2.2250738585072014e-308, -1e308))


def write_trace_text(path, rows):
    path.write_text("series_id,method,t,actual,prediction\n" + "".join(f"{r}\n" for r in rows))
    return path


def index_of(ids, train_len, series_length):
    """The index of a sidecar of series ``ids``, none of which drifts."""
    return SeriesIndex(ids, series_length, train_len, [DriftMeta(kind="none")] * len(ids))


def run_index(run):
    """The index of the sidecar of the dataset ``run`` evaluated, whose
    series end with the horizon."""
    return index_of(run.series_ids, run.train_len, run.train_len + run.horizon)


def reference_load_traces(path):
    """The row-by-row loader that the columnar ``load_traces`` replaced
    (csv.reader, ``float()``, one tuple per row): the oracle for what it
    reads."""
    rows_by_key = {}
    methods, series_ids = {}, {}  # name -> first-seen position
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["series_id", "method", "t", "actual", "prediction"]:
            raise ConfigError(f"unexpected trace header {header!r} in {path}")
        try:
            for sid, name, t, actual, prediction in reader:
                methods.setdefault(name, len(methods))
                series_ids.setdefault(sid, len(series_ids))
                rows_by_key.setdefault((name, sid), []).append((int(t), float(actual), float(prediction)))
        except (ValueError, csv.Error) as exc:
            raise ConfigError(f"malformed row at line {reader.line_num} of {path}: {exc}") from exc
    if not rows_by_key:
        raise ConfigError(f"trace file {path} holds no rows")
    horizons = {len(v) for v in rows_by_key.values()}
    if len(horizons) != 1:
        raise ConfigError("inconsistent horizon lengths across traces")
    horizon = horizons.pop()
    predictions = {name: np.full((len(series_ids), horizon), np.nan) for name in methods}
    actuals = np.full((len(series_ids), horizon), np.nan)
    first_actuals = {}
    positions = None
    for (name, sid), rows in rows_by_key.items():
        rows.sort()
        t, actual, prediction = zip(*rows)
        if positions is None:
            train_len = t[0] - 1
            positions = tuple(range(train_len + 1, train_len + horizon + 1))
        if t != positions:
            raise ConfigError(f"trace of ({name!r}, {sid!r}) does not hold t={positions} once each in {path}")
        i = series_ids[sid]
        first = first_actuals.setdefault(i, actual)
        if first is actual:
            actuals[i] = actual
        elif actual != first and not np.array_equal(first, actual, equal_nan=True):
            raise ConfigError(f"actuals of series {sid!r} differ between methods in {path}")
        predictions[name][i] = prediction
    return RunResult(tuple(series_ids), tuple(methods), train_len, horizon, actuals, predictions, {}, {})


def trace_rows(run):
    """The rows of ``run``'s trace file, in the order write_traces writes them."""
    return [
        (sid, name, run.train_len + k + 1, repr(float(run.actuals[i, k])), repr(float(run.predictions[name][i, k])))
        for name in run.methods
        for i, sid in enumerate(run.series_ids)
        for k in range(run.horizon)
    ]


def trace_pairs(path):
    """The (method, series) pairs that a trace file's rows name."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {(name, sid) for sid, name, *_ in itertools.islice(csv.reader(fh), 1, None)}


def reference_in_index(path, index, methods, horizon):
    """The oracle's run of a trace file as ``load_traces`` reads it
    against the sidecar's ``index`` and the config's ``methods`` and
    ``horizon``: its series in the index's order, its methods in the
    config's. A trace of other series, of another ``train_len``, past
    the series' end, of other methods or of another horizon is
    rejected, and so is one that lacks a (method, series) pair."""
    run = reference_load_traces(path)
    if set(run.series_ids) != set(index.ids) or run.train_len != index.train_len:
        raise ConfigError("the trace holds other series or another train_len than its sidecar")
    if run.train_len + run.horizon > index.series_length:
        raise ConfigError("the trace holds positions past the end of its sidecar's series")
    if set(run.methods) != set(methods) or run.horizon != horizon:
        raise ConfigError("the trace holds other methods or another horizon than its config")
    if len(trace_pairs(path)) != len(methods) * len(index.ids):
        raise ConfigError("the trace lacks a (method, series) pair")
    order = [run.series_ids.index(sid) for sid in index.ids]
    predictions = {name: run.predictions[name][order] for name in methods}
    return dataclasses.replace(run, series_ids=index.ids, methods=tuple(methods), actuals=run.actuals[order], predictions=predictions)


def load_both(path, index, methods, horizon):
    """``load_traces`` and the oracle composed with ``index``,
    ``methods`` and ``horizon`` on one file: each result, or the
    ConfigError it raised."""
    outcomes = []
    for load in (load_traces, reference_in_index):
        try:
            outcomes.append(load(path, index, methods, horizon))
        except ConfigError as exc:
            outcomes.append(exc)
    return outcomes


def assert_same_run(got, expected):
    assert (got.series_ids, got.methods) == (expected.series_ids, expected.methods)
    assert (got.train_len, got.horizon) == (expected.train_len, expected.horizon)
    # bit patterns: sign bits count, and every NaN reads back as the same one
    assert np.array_equal(got.actuals.view(np.uint64), expected.actuals.view(np.uint64))
    for name in got.methods:
        assert np.array_equal(got.predictions[name].view(np.uint64), expected.predictions[name].view(np.uint64))


# ids that need quoting, ids with outer spaces, an empty id, or any text
TRACE_IDS = st.sampled_from(EDGE_IDS + (" a", "b ", " ", "\n", 'x"\ny')) | NAMES


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        ds = tiny_dataset()
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("AR3_All", "GDW"))
        run = prequential_run(ds, cfg)
        predictions = {name: p.copy() for name, p in run.predictions.items()}
        predictions["GDW"][1, : len(EDGE_PREDICTIONS)] = EDGE_PREDICTIONS
        edge_run = dataclasses.replace(run, series_ids=EDGE_IDS + ("s4", "s5"), predictions=predictions)
        for run in (run, edge_run):
            path = tmp_path / "traces.csv"
            write_traces(path, run)
            reference_trace_csv(run, tmp_path / "reference.csv")
            assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
            loaded = load_traces(path, run_index(run), run.methods, run.horizon)
            assert loaded.methods == run.methods
            assert loaded.series_ids == run.series_ids
            assert loaded.train_len == run.train_len
            assert np.array_equal(loaded.actuals, run.actuals)
            for name in run.methods:
                assert np.array_equal(loaded.predictions[name], run.predictions[name], equal_nan=True)
                assert np.array_equal(np.signbit(loaded.predictions[name]), np.signbit(run.predictions[name]))

    def test_actual_text_held_per_series(self, tmp_path):
        def random_run(n, horizon):
            rng = np.random.default_rng(n)
            predictions = {name: rng.normal(size=(n, horizon)) for name in ("A", "B")}
            return hand_made_run([f"s{i}" for i in range(n)], 100, rng.normal(size=(n, horizon)), predictions)

        # what any call holds (file buffers and the like), measured on one row
        _, fixed = traced_peak(write_traces, tmp_path / "one.csv", random_run(1, 1))
        run = random_run(100, 50)
        _, peak = traced_peak(write_traces, tmp_path / "traces.csv", run)
        # the actuals' text, kept for every method, as one string per series:
        # about 25 bytes per actual, where a string per actual takes 70-odd
        assert peak - fixed < 40 * run.actuals.size

    def test_carriage_return_left_unquoted(self, tmp_path):
        # csv.writer with "\n" line ends does not quote "\r"; the bytes
        # follow it, although csv.reader cannot read such a row back
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("Plain_All"))
        run = prequential_run(tiny_dataset(n_series=2), cfg)
        run = dataclasses.replace(run, series_ids=("cr\rx", "b"))
        write_traces(tmp_path / "traces.csv", run)
        reference_trace_csv(run, tmp_path / "reference.csv")
        assert (tmp_path / "traces.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert b"\ncr\rx,Plain_All,91," in (tmp_path / "traces.csv").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_roundtrip_property(self, data):
        series_ids = data.draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
        methods = data.draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
        shape = (len(series_ids), data.draw(st.integers(1, 4)))
        actuals = data.draw(arrays(np.float64, shape, elements=FLOATS))
        predictions = {name: data.draw(arrays(np.float64, shape, elements=FLOATS)) for name in methods}
        run = hand_made_run(series_ids, data.draw(st.integers(1, 10**6)), actuals, predictions)
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_traces(write_traces(f"{tmp}/traces.csv", run), run_index(run), methods, shape[1])
        assert (loaded.series_ids, loaded.methods) == (run.series_ids, run.methods)
        assert (loaded.train_len, loaded.horizon) == (run.train_len, run.horizon)
        for got, expected in [(loaded.actuals, actuals)] + [(loaded.predictions[m], predictions[m]) for m in methods]:
            assert np.array_equal(got, expected, equal_nan=True)
            signed = ~np.isnan(expected)  # repr writes every NaN as "nan"
            assert np.array_equal(np.signbit(got[signed]), np.signbit(expected[signed]))

    @pytest.mark.parametrize(
        "row",
        ["a,M,12,2.0", "a,M,12,2.0,2.5,0", "a,M,twelve,2.0,2.5", "a,M,12,2.0,half", "cr\rx,M,12,2.0,2.5"],
    )
    def test_malformed_row_rejected(self, tmp_path, row):
        path = write_trace_text(tmp_path / "t.csv", ["a,M,11,1.0,1.5", row])
        with pytest.raises(ConfigError, match=re.escape(f"line 3 of {path}")):
            load_traces(path, index_of(["a"], 10, 12), ["M"], 2)

    def test_train_len_is_the_sidecars(self, tmp_path):
        path = write_trace_text(tmp_path / "t.csv", ["a,M,12,2.0,2.5", "a,M,11,1.0,1.5", "b,M,11,3.0,3.5", "b,M,12,4.0,4.5"])
        run = load_traces(path, index_of(["a", "b"], 10, 12), ["M"], 2)
        assert run.train_len == 10
        assert np.array_equal(run.actuals, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(run.predictions["M"], [[1.5, 2.5], [3.5, 4.5]])
        # t = 11, 12 start no other sidecar's test region
        for train_len in (9, 11):
            with pytest.raises(ConfigError, match=re.escape(str(path))):
                load_traces(path, index_of(["a", "b"], train_len, 12), ["M"], 2)

    @pytest.mark.parametrize(
        "rows",
        [
            ["a,M,11,1.0,1.5", "a,M,12,2.0,2.5", "b,M,40,3.0,3.5", "b,M,41,4.0,4.5"],  # two horizons
            ["a,M,11,1.0,1.5", "a,M,12,2.0,2.5", "b,M,11,3.0,3.5", "b,M,13,4.0,4.5"],  # a gap
            ["a,M,11,1.0,1.5", "a,M,12,2.0,2.5", "b,M,11,3.0,3.5", "b,M,11,4.0,4.5"],  # a repeat
            ["a,M,11,1.0,1.5", "a,M,12,2.0,2.5", "a,N,11,1.0,1.5", "a,N,12,2.5,2.5"],  # actuals disagree
        ],
    )
    def test_inconsistent_rows_rejected(self, tmp_path, rows):
        index = index_of(sorted({row.split(",")[0] for row in rows}), 10, 50)
        methods = sorted({row.split(",")[1] for row in rows})
        with pytest.raises(ConfigError):
            load_traces(write_trace_text(tmp_path / "t.csv", rows), index, methods, 2)

    @pytest.mark.parametrize("t", [9, 10, 14, 10**15])
    def test_position_outside_the_test_region_rejected(self, tmp_path, t):
        # train_len 10 of 13 positions: the test region is t = 11..13
        path = write_trace_text(tmp_path / "t.csv", ["a,M,11,1.0,1.5", "a,M,12,2.0,2.5", f"a,M,{t},3.0,3.5"])
        with pytest.raises(ConfigError, match=re.escape(f"{path} holds t={t} outside the test region t=11..13")):
            load_traces(path, index_of(["a"], 10, 13), ["M"], 3)

    def test_reports_recomputable_from_traces(self, tmp_path):
        ds = tiny_dataset()
        cfg = EvalConfig(horizon=30, block_size=10, methods=specs("AR3_All", "Plain_All"))
        run = prequential_run(ds, cfg)
        path = tmp_path / "traces.csv"
        write_traces(path, run)
        direct = build_report(run)
        replayed = build_report(load_traces(path, ds.index, run.methods, cfg.horizon))
        for name in direct.methods:
            assert direct.summary[name] == replayed.summary[name]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_traces(tmp_path / "nope.csv", index_of(["a"], 10, 12), ["M"], 2)


class TestWeightTraces:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bytes_match_row_writer(self, data):
        series_ids = data.draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
        n, horizon = len(series_ids), data.draw(st.integers(1, 4))
        weight_traces = {}
        for name in ("GDW", "ECW"):
            # no step, some steps or the full horizon, series by series
            steps = np.array(data.draw(st.lists(st.integers(0, horizon), min_size=n, max_size=n)))
            table = data.draw(arrays(np.float64, (n, horizon, len(DEFAULT_PAIRINGS), 3), elements=FLOATS))
            weight_traces[name] = (steps, table)
        actuals, *forecasts = data.draw(arrays(np.float64, (5, n, horizon), elements=FLOATS))
        submodels = dict(zip(("EXP_200", "EXP_All", "Linear_200", "Linear_All"), forecasts))
        run = hand_made_run(series_ids, data.draw(st.integers(0, 10**6)), actuals, {}, weight_traces, submodels)
        with tempfile.TemporaryDirectory() as tmp:
            written = {path.name: path.read_bytes() for path in write_weight_traces(tmp, "sudden", run)}
        assert written == reference_weight_traces(run, "sudden")


# sub-model forecasts of moderate size, or any float64 at all
STREAM = st.floats(-1e3, 1e3) | st.floats()


class TestCombinerBank:
    """The batch state of ECW/GDW against ``ecw_step``/``gdw_step``
    (through ``PairingEnsemble``), on random streams."""

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("ECW", {}),
            ("GDW", {}),
            ("GDW", {"true_gradient": True}),
            ("GDW", {"clamp": True}),
            ("GDW", {"true_gradient": True, "clamp": True}),
        ],
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_steps(self, name, flags, data):
        n, steps = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
        eta = data.draw(st.floats(1e-4, 1.0))
        y = data.draw(arrays(np.float64, (2, steps, n, len(DEFAULT_PAIRINGS)), elements=STREAM))
        # and a few non-finite ones, which the scalar steps refuse
        where = st.tuples(st.integers(0, 1), st.integers(0, steps - 1), st.integers(0, n - 1), st.integers(0, 3))
        for at, value in data.draw(st.lists(st.tuples(where, st.sampled_from([np.nan, np.inf, -np.inf])), max_size=3)):
            y[at] = value
        y_partial, y_all = y
        actuals = data.draw(arrays(np.float64, (steps, n), elements=st.floats(allow_nan=False, allow_infinity=False)))
        bank = evaluate._CombinerBank(MethodSpec(name=name, eta=eta, **flags), n)
        ensembles = [PairingEnsemble(rule=name.lower(), eta=eta, **flags) for _ in range(n)]
        alive = np.ones(n, dtype=bool)
        for k in range(steps):
            with np.errstate(all="ignore"):
                combined, diverged = bank.step(y_partial[k], y_all[k], actuals[k - 1])
            for i in np.flatnonzero(alive):
                sub = {p: (float(y_partial[k, i, j]), float(y_all[k, i, j])) for j, p in enumerate(DEFAULT_PAIRINGS)}
                try:
                    expected = ensembles[i].step(sub)
                except DriftcastError:  # the scalar step refuses non-finite inputs
                    assert diverged[i]
                    alive[i] = False
                    continue
                assert not diverged[i]
                assert np.array_equal(combined[i], expected, equal_nan=True)
                states = [ensembles[i].states[p] for p in DEFAULT_PAIRINGS]
                row = [(s.w_p, s.w_a, s.prev_pred_combined) for s in states]
                assert np.array_equal(bank.weight_row()[i], row, equal_nan=True)
                ensembles[i].observe(float(actuals[k, i]))
            w_p, w_a = bank.w_p[alive], bank.w_a[alive]
            if name == "ECW":  # the shares of the total error sum to one
                finite = np.isfinite(w_p) & np.isfinite(w_a)
                assert np.all(np.abs(w_p[finite] + w_a[finite] - 1.0) <= 4 * np.finfo(float).eps)
            if flags.get("clamp"):
                assert not np.any((w_p < 0.0) | (w_p > 1.0) | (w_a < 0.0) | (w_a > 1.0))


def summary_of(errors):
    """The report summary of one method whose series ``i`` misses its one
    actual by ``errors[i]``, so that both its RMSE and its MAE are
    ``errors[i]``."""
    errors = np.asarray(errors, dtype=np.float64)
    ids = [f"s{i}" for i in range(len(errors))]
    return build_report(hand_made_run(ids, 10, np.zeros((len(errors), 1)), {"AR3_All": errors[:, None]})).summary["AR3_All"]


class TestBuildReport:
    """The array scoring of ``build_report`` against the scalar
    ``rmse``/``mae`` oracles, one series at a time, and its summary on
    hand-made scores."""

    def test_single_series_mean_is_median(self):
        summary = summary_of([0.7])
        assert summary["mean_rmse"] == summary["median_rmse"] == pytest.approx(0.7)
        assert summary["mean_mae"] == summary["median_mae"] == pytest.approx(0.7)

    def test_even_count_median_is_the_midpoint(self):
        summary = summary_of([1.0, 2.0, 3.0, 10.0])
        for metric in ("rmse", "mae"):
            assert summary[f"mean_{metric}"] == pytest.approx(4.0)
            assert summary[f"median_{metric}"] == pytest.approx(2.5)

    def test_series_order_leaves_the_summary(self):
        errors = [0.4, 1.9, 0.2, 5.5, 3.1]
        assert summary_of(errors) == summary_of(errors[::-1])

    def test_overflowing_errors_fail_without_a_warning(self):
        # a diverging combiner's errors can be finite yet overflow when squared
        predictions = {"GDW": np.array([[1e200, 1.0], [-3e307, 3e307], [0.5, -0.5]])}
        run = hand_made_run(["a", "b", "c"], 10, np.zeros((3, 2)), predictions)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = build_report(run)
        assert report.failure_counts == {"GDW": 2}
        assert np.array_equal(report.rmse_per_series["GDW"], [np.inf, np.inf, 0.5])
        assert report.summary["GDW"] == {"mean_rmse": 0.5, "median_rmse": 0.5, "mean_mae": 0.5, "median_mae": 0.5}

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_oracles(self, data):
        # up to 40 series, odd and even counts, over at most ~1200 points per matrix
        n = data.draw(st.integers(1, 40))
        horizon = data.draw(st.integers(1, max(1, 1200 // n)))
        ids = [f"s{i}" for i in range(n)]
        actuals = data.draw(arrays(np.float64, (n, horizon), elements=st.floats(-1e6, 1e6)))
        predictions, failures = {}, {}
        names = data.draw(st.lists(st.sampled_from(ALL_METHODS), min_size=1, max_size=3, unique=True))
        for name in names:
            # moderate forecasts with some edge values (NaN, +-inf, huge) among them
            values = st.floats(-1e6, 1e6) | st.sampled_from(EDGE_PREDICTIONS + (1e308, -1e308))
            predictions[name] = data.draw(arrays(np.float64, (n, horizon), elements=values))
            # a shift of its own per series, so that sparse draws do not tie every score
            predictions[name] += data.draw(arrays(np.float64, (n, 1), elements=st.floats(-1e3, 1e3), unique=True))
        # series that repeat another's actuals and forecasts tie with it on every score
        for i, j in data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, n - 1))).items():
            actuals[i] = actuals[j]
            for name in names:
                predictions[name][i] = predictions[name][j]
        for name in names:
            # a failed series keeps the forecasts made before its failure, then NaN
            failed = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, horizon - 1)))
            for i, since in failed.items():
                predictions[name][i, since:] = np.nan
            failures[name] = {ids[i]: "failed" for i in sorted(failed)}
        run = dataclasses.replace(hand_made_run(ids, 10, actuals, predictions), failures=failures)
        with np.errstate(all="ignore"):
            report = build_report(run)
            for name, forecasts in predictions.items():
                r = np.array([rmse(a, f) for a, f in zip(actuals, forecasts)])
                m = np.array([mae(a, f) for a, f in zip(actuals, forecasts)])
                assert np.array_equal(report.rmse_per_series[name], r, equal_nan=True)
                assert np.array_equal(report.mae_per_series[name], m, equal_nan=True)
                ok = np.isfinite(r)
                assert report.failure_counts[name] == n - ok.sum()
                expected = [np.mean(r[ok]), np.median(r[ok]), np.mean(m[ok]), np.median(m[ok])] if ok.any() else [np.nan] * 4
                got = [report.summary[name][k] for k in ("mean_rmse", "median_rmse", "mean_mae", "median_mae")]
                assert np.array_equal(bits(got), bits(expected)), name


class TestTraceReader:
    """The columnar ``load_traces`` against the row-by-row oracle,
    composed with the sidecar's index."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_row_by_row_oracle(self, data):
        series_ids = data.draw(st.lists(TRACE_IDS, min_size=1, max_size=4, unique=True))
        methods = data.draw(st.lists(TRACE_IDS, min_size=1, max_size=3, unique=True))
        shape = (len(series_ids), data.draw(st.integers(1, 4)))
        actuals = data.draw(arrays(np.float64, shape, elements=FLOATS))
        predictions = {name: data.draw(arrays(np.float64, shape, elements=FLOATS)) for name in methods}
        run = hand_made_run(series_ids, data.draw(st.integers(1, 10**6)), actuals, predictions)
        shuffled = data.draw(st.booleans())
        rows = data.draw(st.permutations(trace_rows(run))) if shuffled else trace_rows(run)
        # and now and then a fault: a row dropped, repeated, moved in t,
        # or holding another actual, or a whole series dropped
        fault = data.draw(st.sampled_from([None, "drop", "repeat", "shift", "actual", "series"]))
        k = data.draw(st.integers(0, len(rows) - 1))
        sid, name, t, actual, prediction = rows[k]
        if fault == "drop":
            del rows[k]
        elif fault == "repeat":
            rows.insert(data.draw(st.integers(0, len(rows))), rows[k])
        elif fault == "shift":
            rows[k] = (sid, name, t + data.draw(st.sampled_from([-2, -1, 1, 2, 10**7])), actual, prediction)
        elif fault == "actual":
            rows[k] = (sid, name, t, "1.5" if actual == "nan" else "nan", prediction)
        elif fault == "series":
            rows = [row for row in rows if row[0] != sid]
        # the sidecar: the series in any order, now and then another
        # train_len, and series that run on past the horizon
        order = data.draw(st.permutations(series_ids))
        train_len = max(1, run.train_len + data.draw(st.sampled_from([0, 0, 0, -1, 1])))
        index = index_of(order, train_len, run.train_len + shape[1] + data.draw(st.integers(0, 3)))
        # the config: the methods in any order, now and then one left out
        # (a config names one at least) or one more, and now and then
        # another horizon
        config_methods = data.draw(st.permutations(methods))
        change = data.draw(st.sampled_from([None, None, None, "less", "more"]))
        if change == "less" and len(methods) > 1:
            del config_methods[data.draw(st.integers(0, len(methods) - 1))]
        elif change == "more":
            config_methods.append(data.draw(TRACE_IDS.filter(lambda name: name not in methods)))
        horizon = max(1, shape[1] + data.draw(st.sampled_from([0, 0, 0, -1, 1])))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "CSV_CHUNK_ROWS", data.draw(st.integers(1, 7)))
            path = write_rows(Path(tmp) / "traces.csv", list(evaluate.TRACE_COLUMNS), rows)
            got, expected = load_both(path, index, config_methods, horizon)
        if isinstance(expected, ConfigError):
            assert isinstance(got, ConfigError)
        else:
            assert not isinstance(got, ConfigError), got
            assert_same_run(got, expected)
            if fault is None and not shuffled:  # the run written, but for NaN payloads: repr writes "nan"
                assert (got.series_ids, got.methods, got.train_len) == (tuple(order), tuple(config_methods), run.train_len)
                rows_of = [series_ids.index(sid) for sid in order]
                for value, written in [(got.actuals, actuals)] + [(got.predictions[m], predictions[m]) for m in methods]:
                    written = written[rows_of]
                    assert np.array_equal(value, written, equal_nan=True)
                    signed = ~np.isnan(written)
                    assert np.array_equal(np.signbit(value[signed]), np.signbit(written[signed]))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 64])
    @pytest.mark.parametrize("bad", ["a,M,twelve,2.0,2.5", "a,M,12,2.0,half", "a,M,12,2.0", "a,M,12,2.0,2.5,0"])
    @pytest.mark.parametrize("at", [0, 2, 5])
    def test_malformed_row_names_its_line(self, tmp_path, monkeypatch, chunk, bad, at):
        rows = [f'"x\ny",M,{t},1.0,1.5\n' for t in (11, 12, 13)] + [f"a,M,{t},1.0,1.5\n" for t in (11, 12, 13)]
        rows.insert(at, bad + "\n")
        path = tmp_path / "t.csv"
        path.write_text("series_id,method,t,actual,prediction\n" + "".join(rows), encoding="utf-8", newline="")
        monkeypatch.setattr(core, "CSV_CHUNK_ROWS", chunk)
        with pytest.raises(ConfigError, match=re.escape(f"malformed row at line {at + 2} of {path}")):
            load_traces(path, index_of(["x\ny", "a"], 10, 13), ["M"], 3)

    def test_blank_line_is_skipped(self, tmp_path):
        # the row-by-row loader rejected a blank line (exit 1); loadtxt skips it
        path = write_trace_text(tmp_path / "t.csv", ["a,M,11,1.0,1.5", "", "a,M,12,2.0,2.5"])
        got, expected = load_both(path, index_of(["a"], 10, 12), ["M"], 2)
        assert isinstance(expected, ConfigError) and "line 3" in str(expected)
        assert np.array_equal(got.predictions["M"], [[1.5, 2.5]])

    def test_underscore_in_a_number_is_malformed(self, tmp_path):
        # float() reads "1_0" as 10.0; loadtxt rejects it
        path = write_trace_text(tmp_path / "t.csv", ["a,M,11,1.0,1.5", "a,M,12,2.0,1_0"])
        got, expected = load_both(path, index_of(["a"], 10, 12), ["M"], 2)
        assert expected.predictions["M"][0, 1] == 10.0
        assert isinstance(got, ConfigError) and f"malformed row at line 3 of {path}" in str(got)

    @pytest.mark.parametrize("chunk", [1, 64])
    def test_pair_absent_from_the_file_rejected(self, tmp_path, monkeypatch, chunk):
        # method N turns up after every series, and never for series b
        monkeypatch.setattr(core, "CSV_CHUNK_ROWS", chunk)
        rows = ["a,M,11,1.0,1.5", "b,M,11,2.0,2.5", "a,N,11,1.0,1.0"]
        path = write_trace_text(tmp_path / "t.csv", rows)
        got, expected = load_both(path, index_of(["a", "b"], 10, 11), ["M", "N"], 1)
        assert isinstance(expected, ConfigError)
        assert isinstance(got, ConfigError) and f"trace of ('N', 'b') does not hold t=11..11 once each in {path}" in str(got)

    def test_far_positions_rejected_before_any_array_is_sized(self, tmp_path):
        # a sidecar series_length of 10**15 sizes no array: the config's
        # horizon sizes the position axis
        index = index_of(["a"], 10, 10**15)
        path = write_trace_text(tmp_path / "t.csv", ["a,M,11,1.0,1.5", "a,M,12,2.0,2.5"])
        run = load_traces(path, index, ["M"], 2)
        assert (run.train_len, run.horizon) == (10, 2)
        assert np.array_equal(run.predictions["M"], [[1.5, 2.5]])
        assert run.actuals.shape == (1, 2)
        # and a horizon of more positions than the file holds bytes sizes none either
        with pytest.raises(ConfigError, match=re.escape(f"more rows than the {path.stat().st_size} bytes of {path} can hold")):
            load_traces(path, index, ["M"], 10**12)
        path = write_trace_text(tmp_path / "t.csv", ["a,M,11,1.0,1.5", f"a,M,{10**15},2.0,2.5"])
        with pytest.raises(ConfigError, match=re.escape(f"{path} holds t={10**15} outside the test region t=11..12")):
            load_traces(path, index, ["M"], 2)

    def test_positions_may_come_before_the_first(self, tmp_path, monkeypatch):
        # a later chunk holds smaller t, and the sidecar's order is not the file's
        monkeypatch.setattr(core, "CSV_CHUNK_ROWS", 2)
        rows = ["b,M,13,3.0,3.5", "b,M,14,4.0,4.5", "a,M,13,3.0,3.0", "a,M,14,4.0,4.0", "a,M,12,2.0,2.0", "a,M,11,1.0,1.0"]
        rows += ["b,M,12,2.0,2.5", "b,M,11,1.0,1.5"]
        run = load_traces(write_trace_text(tmp_path / "t.csv", rows), index_of(["a", "b"], 10, 14), ["M"], 4)
        assert (run.series_ids, run.methods, run.train_len, run.horizon) == (("a", "b"), ("M",), 10, 4)
        assert np.array_equal(run.predictions["M"], [[1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 4.5]])
        assert np.array_equal(run.actuals, [[1.0, 2.0, 3.0, 4.0]] * 2)

    @pytest.mark.parametrize(
        "ids, message",
        [
            (["a"], "trace file {path} holds series 'b' absent from its sidecar"),
            (["a", "b", "c"], "trace of ('M', 'c') does not hold t=11..11 once each in {path}"),
        ],
        ids=["ids0-holds series 'b' absent from its sidecar", "ids1-lacks series 'c' of its sidecar"],
    )
    def test_series_other_than_the_sidecars_rejected(self, tmp_path, ids, message):
        path = write_trace_text(tmp_path / "t.csv", ["a,M,11,1.0,1.5", "b,M,11,2.0,2.5"])
        with pytest.raises(ConfigError, match=re.escape(message.format(path=path))):
            load_traces(path, index_of(ids, 10, 11), ["M"], 1)
