"""Run one driftcast CLI command with its layer entry points timed.

Usage: ``python3 perfbench/tracecli.py SPANS_JSON ARGS...`` runs
``driftcast ARGS...`` in this process and writes, per traced function,
its call count, inclusive time and self time (inclusive time minus that
of traced callees), plus counters computed from argument sizes.

Tracing works from outside the package: each function is replaced by a
timing wrapper under the module attribute its caller looks it up by
(``driftcast.evaluate.fit_ets`` for the harness's ETS fits, and so on).
A name the program no longer has is skipped and reads as 0 calls.
Worker processes forked by ``--threads`` inherit the wrappers, but their
spans stay in the workers; only the parent's are written.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    """Per-name call counts and inclusive/self times, plus counters."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts: dict[str, int] = {}
        self._children: list[float] = []  # traced-callee time of each open call

    def wrap(self, name: str, fn, count=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
            if count is not None:
                for key, value in count(args, kwargs, result):
                    counts[key] = counts.get(key, 0) + int(value)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, count=None) -> None:
        fn = getattr(owner, attribute, None)
        self.stats.setdefault(name, [0, 0.0, 0.0])
        if fn is None:
            print(f"tracecli: {getattr(owner, '__name__', owner)}.{attribute} not found; not traced", file=sys.stderr)
            return
        setattr(owner, attribute, self.wrap(name, fn, count))

    def to_dict(self) -> dict:
        return {
            "stats": {n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in self.stats.items()},
            "counts": self.counts,
        }


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _size(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p is not None and os.path.exists(p))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point at the attribute its caller uses."""
    from driftcast import cli, combine, core, evaluate, learners

    def series_made(args, kwargs, dataset):
        yield "simulate.series", len(dataset)

    def dataset_saved(args, kwargs, meta_path):
        yield "core.save_dataset.bytes", _size(_arg(args, kwargs, 1, "csv_path"), meta_path)

    def dataset_loaded(args, kwargs, dataset):
        csv_path = _arg(args, kwargs, 0, "csv_path")
        yield "core.load_dataset.bytes", _size(csv_path, core.sidecar_path(csv_path))

    def ets_grid(args, kwargs, model):
        values = _arg(args, kwargs, 0, "values")
        window = _arg(args, kwargs, 1, "window", learners.WINDOW_ALL)
        window_len = learners.resolve_window(window, len(values))
        yield "learners.fit_ets.grid_updates", (window_len - 1) * learners.ETS_ALPHA_GRID.size

    def rollforward(args, kwargs, prediction):
        model = _arg(args, kwargs, 0, "model")
        if model.spec.family == "ets":
            yield "learners.predict_one.ets_rollforward_steps", len(_arg(args, kwargs, 1, "history")) - model.fitted_through

    def states(args, kwargs, result):
        yield "combine.states_built", len(args[0].pairings)

    def traces_written(args, kwargs, path):
        run = _arg(args, kwargs, 1, "run")
        yield "evaluate.write_traces.rows", len(run.methods) * len(run.series_ids) * run.horizon
        yield "evaluate.write_traces.bytes", _size(path)

    def traces_loaded(args, kwargs, run):
        yield "evaluate.load_traces.rows", len(run.methods) * len(run.series_ids) * run.horizon

    tracer.patch(cli, "make_dataset", "simulate.make_dataset", series_made)
    tracer.patch(cli, "save_dataset", "core.save_dataset", dataset_saved)
    tracer.patch(cli, "load_dataset", "core.load_dataset", dataset_loaded)
    tracer.patch(learners, "weight_schedule", "weighting.weight_schedule")
    tracer.patch(evaluate, "fit_global_ar", "learners.fit_global_ar")
    tracer.patch(evaluate, "fit_local_ar", "learners.fit_local_ar")
    tracer.patch(evaluate, "fit_ets", "learners.fit_ets", ets_grid)
    tracer.patch(evaluate, "predict_one", "learners.predict_one", rollforward)
    tracer.patch(combine.PairingEnsemble, "step", "combine.step", states)
    tracer.patch(combine.PairingEnsemble, "observe", "combine.observe", states)
    tracer.patch(cli, "prequential_run", "evaluate.prequential_run")
    tracer.patch(cli, "write_traces", "evaluate.write_traces", traces_written)
    tracer.patch(cli, "load_traces", "evaluate.load_traces", traces_loaded)
    tracer.patch(cli, "build_report", "evaluate.build_report")
    tracer.patch(cli, "drift_sensitivity", "evaluate.drift_sensitivity")
    tracer.patch(cli, "run_rank_tests", "stats.run_rank_tests")
    tracer.patch(cli, "render_reports", "cli.render_reports")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()

    def driftcast_cli(args):
        install(tracer)
        from driftcast import cli

        return cli.main(args)

    # the root span covers the package imports too
    code = tracer.wrap("cli", driftcast_cli)(cli_args)
    spans_path.write_text(json.dumps(dict(tracer.to_dict(), exit_code=code)), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
