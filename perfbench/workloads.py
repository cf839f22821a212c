"""Workloads of the driftcast benchmark and the provenance of every metric.

Each workload is a complete, standalone driftcast config document, so a
change to a CLI preset does not silently change what is measured. The
seed given to the benchmark replaces every ``base_seed`` through the
``DRIFTCAST_SEED`` environment variable; nothing else about the inputs
varies between seeds.

The shapes follow the block-wise prequential protocol of the source
paper (refit at each block boundary, one-step forecasts inside a
block). ``paper-slice`` and ``combiner-stream`` keep the roadmap's paper
slice per series (2000 points, train length 1650, horizon 350 in 7
blocks) with fewer series than its 200. At 200 series one paper-slice
campaign takes 38-48 s on a 2-core box, which leaves room for a single
sample per run within the contract's cap on the time of all runs
together; ``paper-slice`` uses 50. ``combiner-stream`` uses 100 because
its campaign is short: each traced process spends about 0.1 s starting
and stopping the interpreter, outside every layer, and at 50 series
that alone would leave 8% of the traced wall time unattributed. Work per
series, and so the share of each layer, does not depend on the count.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_METHODS = (
    "AR3_200", "AR3_All", "AR5_200", "AR5_All", "ETS_200", "ETS_All",
    "EXP_200", "EXP_All", "Linear_200", "Linear_All", "Plain_200", "Plain_All",
    "GDW", "ECW",
)

# GDW as both CLI presets configure it
GDW_FLAGS = {"eta": 0.01, "true_gradient": True, "clamp": False}


def _config(kinds, n_series, series_length, train_len, horizon, methods) -> dict:
    sim = {
        "n_series": n_series,
        "series_length": series_length,
        "train_len": train_len,
        "ar_coeffs": [0.5, -0.3, 0.2],
        "ar_coeffs_2": [-0.3, 0.15, 0.05],
        "noise_sd": 1.0,
        "burn_in": 200,
        "base_seed": 20250404,
    }
    return {
        "simulate": {kind: dict(sim) for kind in kinds},
        "methods": [dict(name=m, **GDW_FLAGS) if m == "GDW" else {"name": m} for m in methods],
        "evaluate": {
            "horizon": horizon,
            "block_size": 50,
            "global_lags": 10,
            "ridge_lambda": 1e-3,
            "alpha0": 0.9,
            "beta": 0.9,
            "literal_value_scaling": True,
        },
        "stats": {"alpha": 0.05},
        "output": {"formats": ["csv", "md"], "weight_traces": False},
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a config document, the worker count
    passed to ``driftcast run --threads``, and how many series per drift
    kind the scalar oracles recompute."""

    name: str
    why: str
    config: dict
    workers: int
    oracle_series: int

    @property
    def methods(self) -> tuple:
        return tuple(m["name"] for m in self.config["methods"])

    def shape(self) -> str:
        sim = next(iter(self.config["simulate"].values()))
        ev = self.config["evaluate"]
        return (
            f"{len(self.config['simulate'])} kind(s) x {sim['n_series']} series x {sim['series_length']} points, "
            f"train {sim['train_len']}, horizon {ev['horizon']} in {ev['horizon'] // ev['block_size']} blocks, "
            f"{len(self.methods)} methods, {self.workers} worker(s)"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why="everyday campaign (the desk preset): every layer works, trace writing is about a fifth, "
            "and it is the only workload with a worker pool",
            config=_config(("sudden", "incremental", "gradual"), 100, 600, 450, 150, ALL_METHODS),
            workers=2,
            oracle_series=2,
        ),
        Workload(
            name="paper-slice",
            why="long paper-length histories on one worker: the ETS grid search and roll-forward dominate",
            config=_config(("sudden",), 50, 2000, 1650, 350, ALL_METHODS),
            workers=1,
            oracle_series=4,
        ),
        Workload(
            name="combiner-stream",
            why="paper-slice series with only GDW and ECW: combiner stepping dominates and no local learner runs",
            config=_config(("sudden",), 100, 2000, 1650, 350, ("GDW", "ECW")),
            workers=1,
            oracle_series=4,
        ),
    )
}

# per-layer metric -> (unit, better, which end-to-end metric it should
# move, and on which workloads)
LAYER_METRICS = {
    "simulate.make_dataset.s": ("s", "lower", "setup_s on every workload"),
    "simulate.series": ("count", "lower", "setup_s on every workload"),
    "core.save_dataset.s": ("s", "lower", "setup_s on every workload"),
    "core.save_dataset.bytes": ("bytes", "lower", "setup_s on every workload"),
    "core.load_dataset.s": ("s", "lower", "campaign_s and rerender_s; largest share in combiner-stream rerender_s"),
    "core.load_dataset.bytes": ("bytes", "lower", "campaign_s and rerender_s on every workload"),
    "weighting.weight_schedule.calls": ("count", "lower", "campaign_s on every workload"),
    "weighting.weight_schedule.s": ("s", "lower", "campaign_s on every workload"),
    "learners.fit_global_ar.calls": ("count", "lower", "campaign_s on every workload"),
    "learners.fit_global_ar.s": ("s", "lower", "campaign_s on every workload"),
    "learners.fit_local_ar.calls": ("count", "lower", "campaign_s on desk and paper-slice; 0 on combiner-stream"),
    "learners.fit_local_ar.s": ("s", "lower", "campaign_s on desk and paper-slice"),
    "learners.fit_ets.calls": ("count", "lower", "campaign_s on paper-slice and desk; 0 on combiner-stream"),
    "learners.fit_ets.s": ("s", "lower", "campaign_s on paper-slice and desk"),
    "learners.fit_ets.grid_updates": ("count", "lower", "campaign_s on paper-slice and desk"),
    "learners.predict_one.calls": ("count", "lower", "campaign_s on desk and paper-slice"),
    "learners.predict_one.s": ("s", "lower", "campaign_s on desk and paper-slice"),
    "learners.predict_one.ets_rollforward_steps": ("count", "lower", "campaign_s on desk and paper-slice"),
    "combine.step.calls": ("count", "lower", "campaign_s on combiner-stream, desk and paper-slice"),
    "combine.step.s": ("s", "lower", "campaign_s on combiner-stream, desk and paper-slice"),
    "combine.observe.calls": ("count", "lower", "campaign_s on combiner-stream, desk and paper-slice"),
    "combine.observe.s": ("s", "lower", "campaign_s on combiner-stream, desk and paper-slice"),
    "combine.states_built": ("count", "lower", "campaign_s on combiner-stream, desk and paper-slice"),
    "evaluate.prequential_run.s": ("s", "lower", "campaign_s on every workload"),
    "evaluate.series_loop_s": ("s", "lower", "campaign_s on desk (measured at 2 workers there)"),
    "evaluate.write_traces.s": ("s", "lower", "campaign_s on desk, paper-slice and combiner-stream"),
    "evaluate.write_traces.rows": ("count", "lower", "campaign_s on every workload"),
    "evaluate.write_traces.bytes": ("bytes", "lower", "campaign_s on every workload"),
    "evaluate.load_traces.s": ("s", "lower", "rerender_s on every workload; never inside campaign_s"),
    "evaluate.load_traces.rows": ("count", "lower", "rerender_s on every workload"),
    "evaluate.build_report.s": ("s", "lower", "campaign_s and rerender_s; below 1%, predict no change"),
    "evaluate.drift_sensitivity.s": ("s", "lower", "campaign_s and rerender_s; below 1%, predict no change"),
    "stats.run_rank_tests.calls": ("count", "lower", "campaign_s and rerender_s; predict no change"),
    "stats.run_rank_tests.s": ("s", "lower", "campaign_s and rerender_s; below 1%, predict no change"),
    "cli.render_reports.s": ("s", "lower", "campaign_s and rerender_s; below 1%, predict no change"),
    "cli.self_s": ("s", "lower", "campaign_s and rerender_s: imports, orchestration, manifest digests"),
    "trace.coverage": ("ratio", "higher", "none: share of traced wall time covered by self times"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced campaign_s at 1 worker"),
}
