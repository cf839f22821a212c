import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcast import learners
from driftcast.core import ConfigError, FitError, TimeSeries
from driftcast.learners import (
    DEFAULT_GLOBAL_LAGS,
    DEFAULT_RIDGE_LAMBDA,
    WINDOW_ALL,
    WINDOW_LAST_200,
    ForecastModel,
    LearnerSpec,
    fit_ets,
    fit_global_ar,
    fit_local_ar,
    predict_one,
    resolve_window,
)
from driftcast.simulate import SimConfig, make_dataset
from driftcast.weighting import WeightingScheme, weight_schedule
from reference import from_series


def recurrence_series(phi, intercept, start, n):
    xs = list(start)
    for _ in range(n - len(start)):
        xs.append(intercept + sum(p * xs[-1 - k] for k, p in enumerate(phi)))
    return np.array(xs)


def dataset_from(values_list, train_len=None):
    series = []
    for i, v in enumerate(values_list):
        series.append(TimeSeries(id=f"s{i}", values=v, train_len=train_len or len(v)))
    return from_series(name="d", series=tuple(series))


def lag_matrix(values, p, first, last):
    targets = np.arange(first, last)
    X = np.column_stack([values[targets - k] for k in range(1, p + 1)])
    return X, values[targets]


def _lag_rows(values, p, first_target, last_target):
    """Design rows for targets in [first_target, last_target) of
    ``values``; column k holds lag k+1."""
    targets = np.arange(first_target, last_target)
    y = values[targets]
    X = np.empty((targets.size, p))
    for k in range(1, p + 1):
        X[:, k - 1] = values[targets - k]
    return X, y


def reference_pooled_system(dataset, train_through, spec):
    """The normal equations ``(A, rhs)`` of the pooled fit, ridge
    included, built row by row with one weight schedule per series."""
    p = spec.p
    if train_through < p + 1:
        raise FitError(f"need at least {p + 1} observations, have {train_through}")
    if train_through > dataset.series_length:
        raise FitError("train_through exceeds series length")
    d = p + 1
    A = np.zeros((d, d))
    rhs = np.zeros(d)
    for sid, values in zip(dataset.ids, dataset.values[:, :train_through]):
        window_len = resolve_window(spec.window, train_through)
        if spec.weighting.literal_value_scaling:
            start = train_through - window_len
            scaled = values[start:] * weight_schedule(spec.weighting, window_len)
            X, y = _lag_rows(scaled, p, p, window_len)
            w = np.ones(len(y))
        else:
            first_target = max(p, train_through - window_len)
            X, y = _lag_rows(values, p, first_target, train_through)
            w = weight_schedule(spec.weighting, len(y))
        if len(y) == 0:
            raise FitError(f"series {sid!r} contributes no rows")
        Xa = np.hstack([X, np.ones((len(y), 1))])
        wX = Xa * w[:, None]
        A += Xa.T @ wX
        rhs += wX.T @ y
    A[np.arange(p), np.arange(p)] += spec.ridge_lambda
    return A, rhs


def reference_fit_global_ar(dataset, train_through, spec):
    """The pooled fit solved from ``reference_pooled_system``: the
    oracle for ``fit_global_ar``."""
    p = spec.p
    A, rhs = reference_pooled_system(dataset, train_through, spec)
    try:
        beta = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular pooled system: {exc}") from exc
    if not np.all(np.isfinite(beta)):
        raise FitError("pooled solve produced non-finite coefficients")
    return ForecastModel(spec=spec, fitted_through=train_through, coef=beta[:p], intercept=float(beta[p]))


def reference_fit_local_ar(values, p, window=WINDOW_ALL):
    """Per-series AR(p) least squares on rows built row by row: the
    oracle for ``fit_local_ar``."""
    values = np.asarray(values, dtype=np.float64)
    window_len = resolve_window(window, len(values))
    if window_len < 2 * p + 2:
        raise FitError(f"window of {window_len} too short for AR({p})")
    segment = values[len(values) - window_len :]
    X, y = _lag_rows(segment, p, p, window_len)
    Xa = np.hstack([X, np.ones((len(y), 1))])
    beta, *_ = np.linalg.lstsq(Xa, y, rcond=None)
    if not np.all(np.isfinite(beta)):
        raise FitError("least squares produced non-finite coefficients")
    spec = LearnerSpec(family="local_ar", p=p, window=window)
    return ForecastModel(spec=spec, fitted_through=len(values), coef=beta[:p], intercept=float(beta[p]))


def outcome(fit, *args):
    """A fit's coefficients and intercept as uint64 bits (sign bits
    count), or the type and message of the error it raised."""
    try:
        model = fit(*args)
    except (FitError, ConfigError) as exc:
        return type(exc).__name__, str(exc)
    return np.append(model.coef, model.intercept).view(np.uint64).tolist()


SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, -1e-310, 1.0, -3.5)


@st.composite
def ar_series(draw, n_series, length):
    """``n_series`` rows of ``length`` values: random normal draws,
    constant rows and rows sprinkled with ``-0.0`` and subnormals."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n_series, length)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    for row in values:
        mode = draw(st.sampled_from(["normal", "constant", "special"]))
        if mode == "constant":
            row[:] = draw(st.sampled_from(SPECIAL_VALUES))
        elif mode == "special":
            at = draw(st.lists(st.integers(0, length - 1), max_size=length))
            row[at] = draw(st.lists(st.sampled_from(SPECIAL_VALUES), min_size=len(at), max_size=len(at)))
    return values


# the benchmark's tolerance (perfbench/oracle.py) for a forecast that sums in another order
REL_TOL = 1e-9
# a pooled system whose 1-norm condition number exceeds this is singular to
# working precision; the strategy's well-posed systems stay below it
SINGULAR_CONDITION = 1e12


class TestReferenceOracle:
    """The pooled fit against the row-by-row oracle's normal equations,
    to rounding; the slice-built local rows give the bits of theirs."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_global_matches_reference(self, data):
        p = data.draw(st.integers(1, 12), label="p")
        length = data.draw(st.sampled_from([p + 1, p + 2, 2 * p + 3, 205, 230]), label="length")
        n_series = data.draw(st.integers(1, 5), label="n_series")
        values = data.draw(ar_series(n_series, length))
        ds = from_series(
            name="d", series=tuple(TimeSeries(id=f"s{i}", values=v, train_len=length) for i, v in enumerate(values))
        )
        scheme = WeightingScheme(
            method=data.draw(st.sampled_from(["none", "exponential", "linear"]), label="method"),
            alpha0=data.draw(st.sampled_from([0.5, 0.9, 1.0]), label="alpha0"),
            beta=data.draw(st.sampled_from([0.3, 0.9]), label="beta"),
            literal_value_scaling=data.draw(st.booleans(), label="literal"),
        )
        spec = LearnerSpec(
            family="global_ar",
            p=p,
            window=data.draw(st.sampled_from([WINDOW_ALL, WINDOW_LAST_200]), label="window"),
            weighting=scheme,
            ridge_lambda=data.draw(st.sampled_from([0.0, 1e-3, 0.5]), label="ridge_lambda"),
        )
        train_through = data.draw(st.integers(p + 1, length), label="train_through")
        with np.errstate(all="ignore"):
            fitted = outcome(fit_global_ar, ds, train_through, spec)
            expected = outcome(reference_fit_global_ar, ds, train_through, spec)
            if fitted == expected:  # the same FitError, or the same bits
                return
            # the lag-product table sums in another order than the rows:
            # the fit solves the oracle's own system, or that system is
            # singular to working precision, where whether either order
            # fits, and what it fits, is rounding
            A, rhs = reference_pooled_system(ds, train_through, spec)
            if not (isinstance(fitted, tuple) or isinstance(expected, tuple)):
                beta = np.array(fitted, dtype=np.uint64).view(np.float64)
                if np.linalg.norm(A @ beta - rhs) <= REL_TOL * np.linalg.norm(rhs):
                    return
            assert np.linalg.cond(A, 1) > SINGULAR_CONDITION

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_local_matches_reference(self, data):
        p = data.draw(st.integers(1, 12), label="p")
        length = data.draw(st.sampled_from([2 * p + 1, 2 * p + 2, 2 * p + 9, 205, 230]), label="length")
        (values,) = data.draw(ar_series(1, length))
        window = data.draw(st.sampled_from([WINDOW_ALL, WINDOW_LAST_200]), label="window")
        with np.errstate(all="ignore"):
            assert outcome(fit_local_ar, values, p, window) == outcome(reference_fit_local_ar, values, p, window)


class TestLagProductTable:
    """Each pooled fit reads the dataset's lag-product table only before
    its ``train_through``."""

    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("window", [WINDOW_ALL, WINDOW_LAST_200])
    def test_values_from_train_through_on_leave_the_fit(self, window, literal):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, 260)) + 2.0
        scheme = WeightingScheme(method="exponential", literal_value_scaling=literal)
        spec = LearnerSpec(family="global_ar", p=4, window=window, weighting=scheme, ridge_lambda=1e-3)
        for train_through in (5, 67, 130, 201, 250):
            fit = outcome(fit_global_ar, dataset_from(values), train_through, spec)
            for at in (train_through, train_through + 1, 259):  # one value at a time, then every value
                changed = values.copy()
                changed[rng.integers(5), at] = 1e6
                assert outcome(fit_global_ar, dataset_from(changed), train_through, spec) == fit
            changed = values.copy()
            changed[:, train_through:] = rng.normal(size=(5, 260 - train_through)) * 1e3
            assert outcome(fit_global_ar, dataset_from(changed), train_through, spec) == fit
            # and the last value before it does enter the fit
            changed[:, train_through - 1] += 1.0
            assert outcome(fit_global_ar, dataset_from(changed), train_through, spec) != fit

    def test_built_once_per_dataset_and_lag_order(self, monkeypatch):
        built = []
        real = learners._lag_table
        monkeypatch.setattr(learners, "_lag_table", lambda values, p: built.append(p) or real(values, p))
        rng = np.random.default_rng(4)
        ds = dataset_from([rng.normal(size=80) for _ in range(3)])
        for window in (WINDOW_ALL, WINDOW_LAST_200):
            for train_through in (20, 50, 80):
                fit_global_ar(ds, train_through, LearnerSpec(family="global_ar", p=3, window=window))
        fit_global_ar(ds, 80, LearnerSpec(family="global_ar", p=2))
        assert built == [3, 2]
        # the table goes with its dataset
        assert set(learners._lag_tables[ds]) == {3, 2}
        freed = weakref.ref(ds)
        gc.collect()
        held = len(learners._lag_tables)
        del ds
        gc.collect()
        assert freed() is None and len(learners._lag_tables) == held - 1


class TestGlobalAr:
    def test_noiseless_recovery(self):
        ds = dataset_from(
            [recurrence_series((0.5,), 0.0, (c,), 40) for c in (1.0, -2.0, 3.0)]
        )
        spec = LearnerSpec(family="global_ar", p=1, ridge_lambda=0.0)
        model = fit_global_ar(ds, 40, spec)
        assert model.coef[0] == pytest.approx(0.5, abs=1e-8)
        assert model.intercept == pytest.approx(0.0, abs=1e-8)

    def test_huge_ridge_shrinks_to_weighted_mean(self):
        rng = np.random.default_rng(0)
        ds = dataset_from([rng.normal(size=60) + 5.0 for _ in range(3)])
        scheme = WeightingScheme(method="exponential", alpha0=0.9)
        spec = LearnerSpec(family="global_ar", p=2, weighting=scheme, ridge_lambda=1e12)
        model = fit_global_ar(ds, 60, spec)
        assert np.all(np.abs(model.coef) < 1e-6)
        num = den = 0.0
        for s in ds.series:
            X, y = lag_matrix(s.values, 2, 2, 60)
            w = weight_schedule(scheme, len(y))
            num += w @ y
            den += w.sum()
        assert model.intercept == pytest.approx(num / den, rel=1e-6)

    def test_none_equals_alpha_one(self):
        rng = np.random.default_rng(1)
        ds = dataset_from([rng.normal(size=80) for _ in range(4)])
        m_none = fit_global_ar(
            ds, 80, LearnerSpec(family="global_ar", p=3, weighting=WeightingScheme(method="none"))
        )
        m_exp1 = fit_global_ar(
            ds,
            80,
            LearnerSpec(
                family="global_ar", p=3, weighting=WeightingScheme(method="exponential", alpha0=1.0)
            ),
        )
        assert np.allclose(m_none.coef, m_exp1.coef, atol=1e-12)
        assert m_none.intercept == pytest.approx(m_exp1.intercept, abs=1e-12)

    def test_weighted_normal_equations_residual(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n, p = 40, 3
            values = rng.normal(size=n)
            lam = float(rng.uniform(0, 0.5))
            scheme = WeightingScheme(method="exponential", alpha0=float(rng.uniform(0.7, 1.0)))
            ds = dataset_from([values])
            spec = LearnerSpec(family="global_ar", p=p, weighting=scheme, ridge_lambda=lam)
            model = fit_global_ar(ds, n, spec)
            X, y = lag_matrix(values, p, p, n)
            Xa = np.hstack([X, np.ones((len(y), 1))])
            w = weight_schedule(scheme, len(y))
            A = Xa.T @ (Xa * w[:, None])
            A[np.arange(p), np.arange(p)] += lam
            rhs = Xa.T @ (w * y)
            beta = np.concatenate([model.coef, [model.intercept]])
            assert np.linalg.norm(A @ beta - rhs) <= 1e-8 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("mean", [1e3, 1e4])
    def test_series_far_from_zero_fit(self, mean):
        # at level L with unit noise the pooled system's condition number
        # grows like L**4, yet it is well posed and the solve is accurate
        cfg = SimConfig(drift_kind="sudden", n_series=20, series_length=260, train_len=200, mean=mean, mean_2=mean)
        ds = make_dataset(cfg)
        for literal in (False, True):
            scheme = WeightingScheme(method="exponential", alpha0=0.9, literal_value_scaling=literal)
            for window in (WINDOW_ALL, WINDOW_LAST_200):
                spec = LearnerSpec(
                    family="global_ar",
                    p=DEFAULT_GLOBAL_LAGS,
                    window=window,
                    weighting=scheme,
                    ridge_lambda=DEFAULT_RIDGE_LAMBDA,
                )
                for train_through in (200, 260):
                    model = fit_global_ar(ds, train_through, spec)
                    A, rhs = reference_pooled_system(ds, train_through, spec)
                    beta = np.append(model.coef, model.intercept)
                    assert np.linalg.norm(A @ beta - rhs) <= REL_TOL * np.linalg.norm(rhs)

    def test_window_limits_rows(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=300)
        ds = dataset_from([values])
        full = fit_global_ar(ds, 300, LearnerSpec(family="global_ar", p=2, window="all"))
        short = fit_global_ar(ds, 300, LearnerSpec(family="global_ar", p=2, window="last_200"))
        X, y = lag_matrix(values, 2, 100, 300)
        Xa = np.hstack([X, np.ones((len(y), 1))])
        beta, *_ = np.linalg.lstsq(Xa, y, rcond=None)
        assert np.allclose(np.concatenate([short.coef, [short.intercept]]), beta, atol=1e-8)
        assert not np.allclose(full.coef, short.coef, atol=1e-12)

    def test_too_short_history(self):
        ds = dataset_from([np.arange(5.0)])
        with pytest.raises(FitError):
            fit_global_ar(ds, 5, LearnerSpec(family="global_ar", p=5))

    @pytest.mark.parametrize("p", [200, 250])
    def test_no_rows_in_a_scaled_window(self, p):
        # the scaled last-200 window holds no target once p >= 200
        ds = from_series(
            name="d", series=tuple(TimeSeries(id=sid, values=np.arange(300.0), train_len=300) for sid in ("a", "b"))
        )
        scheme = WeightingScheme(literal_value_scaling=True)
        spec = LearnerSpec(family="global_ar", p=p, window="last_200", weighting=scheme)
        with pytest.raises(FitError, match="^series 'a' contributes no rows$"):
            fit_global_ar(ds, 300, spec)

    def test_matches_local_on_single_series(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=120)
        ds = dataset_from([values])
        g = fit_global_ar(
            ds, 120, LearnerSpec(family="global_ar", p=3, ridge_lambda=0.0, weighting=WeightingScheme())
        )
        l = fit_local_ar(values, 3)
        assert np.allclose(g.coef, l.coef, atol=1e-8)
        assert g.intercept == pytest.approx(l.intercept, abs=1e-8)

    def test_literal_scaling_changes_fit(self):
        rng = np.random.default_rng(4)
        ds = dataset_from([rng.normal(size=100) for _ in range(2)])
        base = WeightingScheme(method="exponential", alpha0=0.9)
        literal = WeightingScheme(method="exponential", alpha0=0.9, literal_value_scaling=True)
        m1 = fit_global_ar(ds, 100, LearnerSpec(family="global_ar", p=2, weighting=base))
        m2 = fit_global_ar(ds, 100, LearnerSpec(family="global_ar", p=2, weighting=literal))
        assert not np.allclose(m1.coef, m2.coef)


class TestLocalAr:
    def test_exact_recovery(self):
        values = recurrence_series((0.6, -0.2), 0.3, (0.5, 1.5), 60)
        model = fit_local_ar(values, 2)
        assert np.allclose(model.coef, [0.6, -0.2], atol=1e-8)
        assert model.intercept == pytest.approx(0.3, abs=1e-8)

    def test_constant_series_predicts_constant(self):
        model = fit_local_ar(np.full(30, 4.2), 3)
        assert predict_one(model, np.full(30, 4.2)) == pytest.approx(4.2, abs=1e-8)

    def test_window_too_short(self):
        with pytest.raises(FitError):
            fit_local_ar(np.arange(3.0), 1)  # needs 2p + 2 = 4

    def test_window_resolution(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=400)
        m = fit_local_ar(values, 2, window="last_200")
        m_direct = fit_local_ar(values[-200:], 2, window="all")
        assert np.allclose(m.coef, m_direct.coef, atol=1e-10)


class TestEts:
    def test_constant_fixed_point(self):
        model = fit_ets(np.full(20, 7.0))
        assert model.level == pytest.approx(7.0)
        assert predict_one(model, np.full(20, 7.0)) == pytest.approx(7.0)

    def test_grid_argmin_matches_bruteforce(self):
        values = np.array([0.0, 1.0] * 15)
        model = fit_ets(values)
        best_alpha, best_sse = None, np.inf
        for alpha in np.arange(1, 100) / 100.0:
            level, sse = values[0], 0.0
            for y in values[1:]:
                sse += (y - level) ** 2
                level = alpha * y + (1 - alpha) * level
            if sse < best_sse:
                best_alpha, best_sse = alpha, sse
        assert model.smoothing == pytest.approx(best_alpha)

    def test_one_step_equals_level(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=50)
        model = fit_ets(values)
        assert predict_one(model, values) == pytest.approx(model.level)

    def test_forecast_within_window_range(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=80)
        model = fit_ets(values, window="last_200")
        assert values.min() - 1e-12 <= predict_one(model, values) <= values.max() + 1e-12

    def test_needs_three_points(self):
        with pytest.raises(FitError):
            fit_ets(np.array([1.0, 2.0]))


class TestPredictOne:
    def test_ar1_formula(self):
        spec = LearnerSpec(family="local_ar", p=1)
        model_args = dict(spec=spec, fitted_through=10, coef=np.array([0.5]), intercept=0.0)
        from driftcast.learners import ForecastModel

        model = ForecastModel(**model_args)
        assert predict_one(model, np.array([1.0, 2.0, 4.0])) == pytest.approx(2.0)

    def test_naive_coefficients(self):
        from driftcast.learners import ForecastModel

        model = ForecastModel(
            spec=LearnerSpec(family="local_ar", p=3),
            fitted_through=10,
            coef=np.array([1.0, 0.0, 0.0]),
            intercept=0.0,
        )
        assert predict_one(model, np.array([5.0, 6.0, 7.0])) == pytest.approx(7.0)

    def test_ets_updates_through_new_observations(self):
        values = np.linspace(1, 2, 30)
        model = fit_ets(values)
        extended = np.concatenate([values, [10.0]])
        expected = model.smoothing * 10.0 + (1 - model.smoothing) * model.level
        assert predict_one(model, extended) == pytest.approx(expected)
        # pure: calling twice gives the same answer
        assert predict_one(model, extended) == pytest.approx(expected)

    def test_insufficient_history(self):
        model = fit_local_ar(np.random.default_rng(8).normal(size=30), 3)
        with pytest.raises(ConfigError):
            predict_one(model, np.array([1.0, 2.0]))
