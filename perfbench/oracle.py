"""Scalar-oracle check of the forecasts in a driftcast trace file.

``check_forecasts`` recomputes every method's forecasts for a few
sampled series from the scalar oracles (``fit_global_ar``,
``fit_local_ar``, ``fit_ets``, ``predict_one``, ``ecw_step`` /
``gdw_step``) and compares them with ``traces/<kind>.csv``. A forecast
matches when it is within ``REL_TOL`` of the oracle, relative to
max(1, |oracle|), and every stored actual must equal the dataset value
at its position. A pair whose forecasts the oracle cannot produce must
hold NaN in the trace. The tolerance leaves room for an engine that
sums in another order; today the two agree bit for bit.

The method table below restates the README's method matrix; it is kept
apart from the harness's own tables on purpose, so that a harness bug
in them shows up here.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from driftcast.combine import CombinerState, ecw_step, gdw_step, observe
from driftcast.core import DriftcastError, load_dataset
from driftcast.learners import LearnerSpec, fit_ets, fit_global_ar, fit_local_ar, predict_one
from driftcast.weighting import WeightingScheme

REL_TOL = 1e-9

# local method -> (AR order, or None for ETS; window)
LOCAL = {
    "AR3_200": (3, "last_200"), "AR3_All": (3, "all"),
    "AR5_200": (5, "last_200"), "AR5_All": (5, "all"),
    "ETS_200": (None, "last_200"), "ETS_All": (None, "all"),
}
# pooled global method -> (recency weighting, window)
GLOBAL = {
    "Plain_200": ("none", "last_200"), "Plain_All": ("none", "all"),
    "EXP_200": ("exponential", "last_200"), "EXP_All": ("exponential", "all"),
    "Linear_200": ("linear", "last_200"), "Linear_All": ("linear", "all"),
}
# the four (recent, full-history) sub-model pairings a combiner averages
PAIRINGS = (("EXP_200", "EXP_All"), ("EXP_200", "Linear_All"), ("Linear_200", "EXP_All"), ("Linear_200", "Linear_All"))


def _global_models(dataset, evaluate: dict, names, n_blocks) -> list[dict]:
    models = []
    for b in range(n_blocks):
        fit_through = dataset.train_len + b * evaluate["block_size"]
        block = {}
        for name in names:
            weighting, window = GLOBAL[name]
            spec = LearnerSpec(
                family="global_ar",
                p=evaluate["global_lags"],
                window=window,
                weighting=WeightingScheme(
                    method=weighting,
                    alpha0=evaluate["alpha0"],
                    beta=evaluate["beta"],
                    literal_value_scaling=evaluate["literal_value_scaling"],
                ),
                ridge_lambda=evaluate["ridge_lambda"],
            )
            try:
                block[name] = fit_global_ar(dataset, fit_through, spec)
            except DriftcastError:
                pass
        models.append(block)
    return models


def oracle_forecasts(values: np.ndarray, train_len: int, evaluate: dict, methods: list, global_models: list) -> dict:
    """Forecasts of every configured method on one series, replayed
    step by step from the scalar implementations; NaN where the method
    cannot produce them. Like the harness, a failed fit keeps the
    forecasts made before it and a diverged combiner keeps none."""
    horizon, block_size = evaluate["horizon"], evaluate["block_size"]
    names = [m["name"] for m in methods]
    preds = {name: np.full(horizon, np.nan) for name in names}
    dead: set = set()
    diverged: set = set()
    states = {m["name"]: [CombinerState(eta=m.get("eta", 0.01)) for _ in PAIRINGS] for m in methods if m["name"] in ("ECW", "GDW")}
    flags = {m["name"]: m for m in methods}
    local_models = {}
    for b in range(horizon // block_size):
        fit_through = train_len + b * block_size
        block_globals = global_models[b]
        for name in names:
            if name in LOCAL and name not in dead:
                p, window = LOCAL[name]
                try:
                    local_models[name] = (
                        fit_ets(values[:fit_through], window) if p is None else fit_local_ar(values[:fit_through], p, window)
                    )
                except DriftcastError:
                    dead.add(name)
            elif name in GLOBAL and name not in block_globals:
                dead.add(name)
            elif name in states and any(sub not in block_globals for pair in PAIRINGS for sub in pair):
                dead.add(name)
        for k in range(block_size):
            t = fit_through + k
            history = values[:t]
            g = {name: predict_one(model, history) for name, model in block_globals.items()}
            for name in names:
                if name in dead:
                    continue
                if name in LOCAL:
                    preds[name][b * block_size + k] = predict_one(local_models[name], history)
                elif name in GLOBAL:
                    preds[name][b * block_size + k] = g[name]
                else:
                    total = 0.0
                    try:
                        for i, (partial, full) in enumerate(PAIRINGS):
                            if name == "ECW":
                                pred, states[name][i] = ecw_step(states[name][i], g[partial], g[full])
                            else:
                                pred, states[name][i] = gdw_step(
                                    states[name][i],
                                    g[partial],
                                    g[full],
                                    true_gradient=flags[name].get("true_gradient", False),
                                    clamp=flags[name].get("clamp", False),
                                )
                            total += pred
                        preds[name][b * block_size + k] = total / len(PAIRINGS)
                    except DriftcastError:
                        dead.add(name)
                        diverged.add(name)
            for name in states:
                if name not in dead:
                    states[name] = [observe(s, float(values[t])) for s in states[name]]
    for name in diverged:
        preds[name][:] = np.nan
    return preds


def _trace_rows(path: Path, series_ids: list[str]) -> dict:
    """(series_id, method) -> {t: (actual, prediction)} for the given series."""
    prefixes = tuple(f"{sid}," for sid in series_ids)
    rows: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(prefixes):
                sid, method, t, actual, prediction = line.rstrip("\n").split(",")
                rows.setdefault((sid, method), {})[int(t)] = (float(actual), float(prediction))
    return rows


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isfinite(got) and abs(got - want) <= REL_TOL * max(1.0, abs(want))


def check_forecasts(out_dir: Path, config: dict, kind: str, sample: list[int]) -> tuple[int, list[str]]:
    """Compare the stored trace of ``kind`` with the oracle on the
    series at the ``sample`` ordinals. Returns the number of (series,
    method) pairs checked and a description of each mismatch."""
    dataset = load_dataset(out_dir / "datasets" / f"{kind}.csv")
    evaluate, methods = config["evaluate"], config["methods"]
    names = [m["name"] for m in methods]
    needed = {n for n in names if n in GLOBAL}
    if {"ECW", "GDW"} & set(names):
        needed |= {sub for pair in PAIRINGS for sub in pair}
    global_models = _global_models(dataset, evaluate, sorted(needed), evaluate["horizon"] // evaluate["block_size"])
    series = [dataset.series[i] for i in sample]
    rows = _trace_rows(out_dir / "traces" / f"{kind}.csv", [s.id for s in series])
    ts = range(dataset.train_len + 1, dataset.train_len + evaluate["horizon"] + 1)
    bad = []
    for s in series:
        want = oracle_forecasts(s.values, dataset.train_len, evaluate, methods, global_models)
        for name in names:
            got = rows.get((s.id, name), {})
            if sorted(got) != list(ts):
                bad.append(f"{kind}/{s.id}/{name}: trace rows missing or extra")
                continue
            wrong = [t for k, t in enumerate(ts) if got[t][0] != s.values[t - 1] or not _close(got[t][1], want[name][k])]
            if wrong:
                t = wrong[0]
                bad.append(
                    f"{kind}/{s.id}/{name}: {len(wrong)} step(s) differ, first t={t}: "
                    f"trace {got[t][1]!r} vs oracle {float(want[name][t - dataset.train_len - 1])!r}"
                )
    return len(series) * len(names), bad
