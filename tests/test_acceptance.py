"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 7 and 8 are asserted in full. Some of their clauses are not
attainable with this method family on this data family (the recency
weighted pooled model Linear_200 retains a small structural edge over
the adaptive combination, and a stale blended model is relieved, not
hurt, by drift landing in its test window); those tests fail honestly
rather than loosening the assertions. README discusses the outcome.
"""

import hashlib
import time

import mpmath
import numpy as np
import pytest

from driftcast.cli import SEED_ENV_VAR, cmd_run, main, preset_config, validate_config
from driftcast.combine import CombinerState, ecw_step, gdw_step
from driftcast.core import TimeSeries
from driftcast.evaluate import (
    EvalConfig,
    MethodSpec,
    drift_region_split,
    prequential_run,
)
from driftcast.learners import LearnerSpec, fit_global_ar, fit_local_ar
from driftcast.simulate import SimConfig, combine_gradual, make_dataset
from driftcast.stats import chi2_sf, friedman_test, hochberg, rank_rows
from driftcast.weighting import WeightingScheme, weight_schedule
from reference import from_series
from test_simulate import component_pair

mpmath.mp.dps = 40


def verdict(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """One full desk-preset campaign (single-threaded)."""
    cfg = validate_config(preset_config("desk"))
    out = tmp_path_factory.mktemp("desk_run")
    results = cmd_run(cfg, out)
    return cfg, out, results


def test_criterion_1_combiner_formula_oracles():
    rng = np.random.default_rng(20240101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        y_prev, yp_prev, ya_prev, yp, ya = rng.normal(scale=4.0, size=5)
        eps_p = (y_prev - yp_prev) ** 2
        eps_a = (y_prev - ya_prev) ** 2
        if eps_p + eps_a == 0:
            continue
        state = CombinerState(step=2, prev_actual=y_prev, prev_pred_partial=yp_prev, prev_pred_all=ya_prev)
        pred, _ = ecw_step(state, yp, ya)
        expected = (eps_a / (eps_p + eps_a)) * yp + (eps_p / (eps_p + eps_a)) * ya
        worst = max(worst, abs(pred - expected) / max(1e-300, abs(expected)))
    for _ in range(1000):
        y_prev, comb_prev, yp_prev, ya_prev, yp, ya = rng.normal(scale=4.0, size=6)
        w_p, w_a = rng.uniform(-1, 2, size=2)
        state = CombinerState(
            step=2,
            w_p=w_p,
            w_a=w_a,
            prev_actual=y_prev,
            prev_pred_partial=yp_prev,
            prev_pred_all=ya_prev,
            prev_pred_combined=comb_prev,
            eta=0.01,
        )
        pred, _ = gdw_step(state, yp, ya)
        eps = (y_prev - comb_prev) ** 2
        expected = (w_p + 2 * yp_prev * eps * 0.01) * yp + (w_a + 2 * ya_prev * eps * 0.01) * ya
        worst = max(worst, abs(pred - expected) / max(1e-300, abs(expected)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert verdict(1, ok, f"max rel err {worst:.2e}, runtime {elapsed:.2f}s"), worst


def test_criterion_2_weight_schedule_closed_forms():
    worst = 0.0
    for n in (1, 3, 200, 1650):
        exp = weight_schedule(WeightingScheme(method="exponential", alpha0=0.9), n)
        j = np.arange(n)  # age: 0 = newest
        closed_exp = (0.9 ** (j + 1))[::-1]
        lin = weight_schedule(WeightingScheme(method="linear", alpha0=0.9, beta=0.9), n)
        closed_lin = (0.9 - j * 0.9 / n)[::-1]
        worst = max(worst, np.max(np.abs(exp - closed_exp)), np.max(np.abs(lin - closed_lin)))
    ok = worst <= 1e-15
    assert verdict(2, ok, f"max abs deviation {worst:.2e} over L in {{1,3,200,1650}}"), worst


def test_criterion_3_simulator_structure():
    start = time.perf_counter()
    problems = []
    sudden_cfg = SimConfig(
        drift_kind="sudden", n_series=100, series_length=600, train_len=450, base_seed=77
    )
    for i, s in enumerate(make_dataset(sudden_cfg).series):
        ts1, ts2 = component_pair(sudden_cfg, sudden_cfg.base_seed + i)
        td = s.drift.t_drift
        if not (np.array_equal(s.values[: td - 1], ts1[: td - 1]) and np.array_equal(s.values[td - 1 :], ts2[td - 1 :])):
            problems.append(f"sudden segments differ for {s.id}")
    inc_cfg = SimConfig(
        drift_kind="incremental", n_series=100, series_length=600, train_len=450, base_seed=78
    )
    for i, s in enumerate(make_dataset(inc_cfg).series):
        ts1, ts2 = component_pair(inc_cfg, inc_cfg.base_seed + i)
        a, b = s.drift.t_start, s.drift.t_end
        lo = np.minimum(ts1, ts2)[a - 1 : b]
        hi = np.maximum(ts1, ts2)[a - 1 : b]
        seg = s.values[a - 1 : b]
        if not (np.all(seg >= lo - 1e-12) and np.all(seg <= hi + 1e-12)):
            problems.append(f"incremental envelope violated for {s.id}")
        if s.values[a - 1] != ts1[a - 1] or s.values[b - 1] != ts2[b - 1]:
            problems.append(f"incremental boundary identity violated for {s.id}")
    n = 100_000
    out = combine_gradual(np.zeros(n), np.ones(n), seed=424242)
    freq = out[int(0.4 * n) : int(0.5 * n)].mean()
    if abs(freq - 0.45) > 0.03:
        problems.append(f"gradual window frequency {freq:.4f} outside 0.45 +- 0.03")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s")
    ok = not problems
    assert verdict(3, ok, f"runtime {elapsed:.1f}s" if ok else "; ".join(problems)), problems


def test_criterion_4_learner_recovery():
    problems = []
    # noiseless recurrence, local and global at lambda = 0
    phi = (0.6, -0.2)
    xs = [0.5, 1.5]
    for _ in range(80):
        xs.append(0.3 + phi[0] * xs[-1] + phi[1] * xs[-2])
    values = np.array(xs)
    local = fit_local_ar(values, 2)
    if not (np.allclose(local.coef, phi, atol=1e-8) and abs(local.intercept - 0.3) < 1e-8):
        problems.append("local recovery off")
    g = fit_global_ar(
        from_series(name="d", series=(TimeSeries(id="s0", values=values, train_len=len(values)),)),
        len(values),
        LearnerSpec(family="global_ar", p=2, ridge_lambda=0.0),
    )
    if not (np.allclose(g.coef, phi, atol=1e-8) and abs(g.intercept - 0.3) < 1e-8):
        problems.append("global recovery off")
    # weighted normal equations on 100 random instances
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(100):
        n, p = 50, 3
        vals = rng.normal(size=n)
        lam = float(rng.uniform(0.0, 1.0))
        scheme = WeightingScheme(method="exponential", alpha0=float(rng.uniform(0.6, 1.0)))
        model = fit_global_ar(
            from_series(name="d", series=(TimeSeries(id="s", values=vals, train_len=n),)),
            n,
            LearnerSpec(family="global_ar", p=p, weighting=scheme, ridge_lambda=lam),
        )
        targets = np.arange(p, n)
        X = np.column_stack([vals[targets - k] for k in range(1, p + 1)] + [np.ones(len(targets))])
        w = weight_schedule(scheme, len(targets))
        A = X.T @ (X * w[:, None])
        A[np.arange(p), np.arange(p)] += lam
        rhs = X.T @ (w * vals[targets])
        beta = np.concatenate([model.coef, [model.intercept]])
        worst = max(worst, np.linalg.norm(A @ beta - rhs) / np.linalg.norm(rhs))
    if worst > 1e-8:
        problems.append(f"normal-equation residual {worst:.2e}")
    ok = not problems
    assert verdict(4, ok, f"residual {worst:.2e}" if ok else "; ".join(problems)), problems


def test_criterion_5_harness_integrity():
    start = time.perf_counter()
    cfg = SimConfig(drift_kind="sudden", n_series=20, series_length=600, train_len=450, base_seed=909)
    ds = make_dataset(cfg)
    ec = EvalConfig(
        horizon=150,
        block_size=50,
        methods=(MethodSpec(name="AR3_All"), MethodSpec(name="EXP_200"), MethodSpec(name="GDW")),
    )
    run = prequential_run(ds, ec)
    problems = []
    for name in run.methods:
        if not np.all(run.fit_counts[name] == 3):
            problems.append(f"{name} fit count != horizon/block_size")
    corrupt_from = ds.train_len + 70
    alt = make_dataset(
        SimConfig(drift_kind="sudden", n_series=20, series_length=600, train_len=450, base_seed=910)
    )
    corrupted = tuple(
        TimeSeries(
            id=s.id,
            values=np.concatenate([s.values[:corrupt_from], other.values[corrupt_from:]]),
            train_len=s.train_len,
            drift=s.drift,
        )
        for s, other in zip(ds.series, alt.series)
    )
    run2 = prequential_run(from_series(name="corrupt", series=corrupted), ec)
    for name in run.methods:
        if not np.array_equal(run.predictions[name][:, :70], run2.predictions[name][:, :70]):
            problems.append(f"{name} predictions changed by future corruption")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.0f}s exceeds 2min")
    ok = not problems
    assert verdict(5, ok, f"runtime {elapsed:.1f}s" if ok else "; ".join(problems)), problems


def test_criterion_6_statistics_oracles():
    problems = []
    errors = np.array([[1.0, 2.0, 3.0]] * 3)
    stat, p = friedman_test(rank_rows(errors))
    if abs(stat - 6.0) > 1e-12:
        problems.append(f"statistic {stat} != 6")
    if abs(p - 0.0498) > 1e-3:
        problems.append(f"p {p} not within 1e-3 of 0.0498")
    stat0, p0 = friedman_test(rank_rows(np.full((4, 3), 1.0)))
    if stat0 != 0.0 or p0 != 1.0:
        problems.append("full-tie case not (0, 1)")
    adjusted, rejected = hochberg({"a": 0.04, "b": 0.04}, alpha=0.05)
    if not (abs(adjusted["a"] - 0.04) < 1e-12 and rejected == {"a", "b"}):
        problems.append("hochberg two-equal example off")
    rng = np.random.default_rng(3)
    worst = 0.0
    for x in np.concatenate([[0.0, 200.0], rng.uniform(0, 200, size=48)]):
        df = int(rng.integers(1, 21))
        ref = float(mpmath.gammainc(df / 2, x / 2, mpmath.inf, regularized=True))
        worst = max(worst, abs(chi2_sf(float(x), df) - ref))
    if worst > 1e-10:
        problems.append(f"chi-square tail deviation {worst:.2e}")
    ok = not problems
    assert verdict(6, ok, f"chi2 max dev {worst:.2e}" if ok else "; ".join(problems)), problems


def test_criterion_7_headline_ordering(desk):
    _, _, results = desk
    problems = []
    for kind in ("sudden", "incremental"):
        summary = results[kind].report.summary
        for baseline in ("Plain_All", "Plain_200", "EXP_All", "Linear_200"):
            if not summary["GDW"]["mean_rmse"] < summary[baseline]["mean_rmse"]:
                problems.append(
                    f"{kind}: GDW mean RMSE {summary['GDW']['mean_rmse']:.4f} !< "
                    f"{baseline} {summary[baseline]['mean_rmse']:.4f}"
                )
    for kind in ("sudden", "incremental", "gradual"):
        test = results[kind].test
        best = min(test.mean_ranks, key=test.mean_ranks.get)
        if best != "GDW":
            problems.append(f"{kind}: best rank is {best} ({test.mean_ranks[best]:.2f}) not GDW ({test.mean_ranks['GDW']:.2f})")
        if not test.friedman_p < 0.05:
            problems.append(f"{kind}: Friedman p {test.friedman_p:.3g} not < 0.05")
    ok = not problems
    assert verdict(7, ok, "orderings reproduced" if ok else "; ".join(problems)), problems


def test_criterion_8_drift_sensitivity_shape(desk):
    _, _, results = desk
    res = results["sudden"]
    split = drift_region_split(res.dataset, res.report, metric="rmse")
    problems = []
    for name, d in split.items():
        if not d["excess"] > 0:
            problems.append(f"{name} test-region excess {d['excess']:+.4f} not positive")
    smallest = min(split, key=lambda m: split[m]["excess"])
    if smallest != "GDW":
        problems.append(f"smallest excess belongs to {smallest}, not GDW")
    ok = not problems
    assert verdict(8, ok, "excess shape reproduced" if ok else "; ".join(problems)), problems


def test_criterion_9_thread_determinism(desk, tmp_path_factory, monkeypatch):
    _, out1, _ = desk
    out2 = tmp_path_factory.mktemp("desk_run_mt")
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(["run", "--preset", "desk", "--out", str(out2), "--threads", "8"]) == 0
    mismatches = []
    for sub in ("reports", "traces"):
        for path in sorted((out1 / sub).glob("*")):
            other = out2 / sub / path.name
            h1 = hashlib.sha256(path.read_bytes()).hexdigest()
            h2 = hashlib.sha256(other.read_bytes()).hexdigest()
            if h1 != h2:
                mismatches.append(path.name)
    ok = not mismatches
    assert verdict(9, ok, "1-thread and 8-thread outputs hash-identical" if ok else f"differs: {mismatches}"), mismatches
