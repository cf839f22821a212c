"""The driftcast benchmark: one workload, timed end to end or per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Every campaign runs the checkout's own CLI (``python3 -m driftcast.cli``
with ``src`` on ``PYTHONPATH``) as child processes, closed loop, one at
a time. The seed reaches the program only as ``DRIFTCAST_SEED``, passed
the same way to ``simulate``, ``run`` and ``report``.

``--trace 0`` repeats a cycle of ``simulate`` (twice), ``run`` and
``report`` (twice) until ``--seconds`` have passed (at least twice),
with tracing off, and reports the median of each metric over the run:

* ``setup_s``: wall time of ``driftcast simulate`` writing the datasets,
* ``campaign_s``: wall time of ``driftcast run`` with the datasets on disk,
* ``rerender_s``: wall time of ``driftcast report`` from that run's traces,
* ``peak_rss_mb``: peak resident memory of the ``run`` process and its
  workers, from ``os.wait4``.

Interleaving the three spreads each metric's samples over the whole
run, which matters on a shared machine whose speed drifts by 10-20%
within seconds. ``--trace 1`` instead runs the traced CLI
(``tracecli.py``) at 1 worker and reports the per-layer metrics listed
in ``workloads.LAYER_METRICS``.

Each campaign is checked: the report files must match the digests in
``manifest.json``, ``run`` must reuse the simulated datasets unchanged,
and sampled series must match the scalar oracles (``oracle.py``). The
traced run also checks that tracing and the worker count leave the
traces byte-identical. Failed (series, method) pairs and pairs that fail
a check are counted in ``failed``; ``failed / attempted`` is the
``failed_fraction``. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import LAYER_METRICS, WORKLOADS

SETUPS_PER_CYCLE = 2
REPORTS_PER_CYCLE = 2
MIN_CYCLES = 2
OUT_ROOT = ".perfbench_out"
HERE = Path(__file__).resolve().parent


class Child:
    """Runs CLI commands as child processes of this benchmark."""

    def __init__(self, root: Path, out_dir: Path, config_path: Path, seed: int) -> None:
        self.root = root
        self.out_dir = out_dir
        self.data_dir = out_dir / "data"
        self.config_path = config_path
        src = str(root / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""), DRIFTCAST_SEED=str(seed))
        self.n = 0

    def cli_args(self, command: str, workers: int | None = None) -> list[str]:
        args = [command, "--config", str(self.config_path), "--out", str(self.data_dir)]
        return args + ["--threads", str(workers)] if workers is not None else args

    def run(self, args: list[str], traced: bool = False) -> tuple[float, float, dict | None]:
        """Run ``driftcast args`` (traced or not). Returns wall seconds,
        peak RSS in MiB and, if traced, the span summary. Raises on a
        nonzero exit other than 3 (the CLI's "some method failed" code)."""
        self.n += 1
        log = self.out_dir / f"child{self.n}.log"
        spans = self.out_dir / f"spans{self.n}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracecli.py"), str(spans)] + args
        else:
            cmd = [sys.executable, "-m", "driftcast.cli"] + args
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 3):
            raise RuntimeError(f"driftcast {' '.join(args)} exited {proc.returncode}:\n{log.read_text()[-2000:]}")
        summary = json.loads(spans.read_text(encoding="utf-8")) if traced else None
        return wall, usage.ru_maxrss / 1024.0, summary


def digests(directory: Path) -> dict:
    """sha256 of every file directly under ``directory``, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.glob("*")) if p.is_file()}


def dataset_state(data_dir: Path) -> dict:
    """sha256 and modification time of every dataset file: ``run`` must
    leave both alone, since re-simulating inside the timed region would
    rewrite the files even with identical bytes."""
    return {
        name: (digest, (data_dir / "datasets" / name).stat().st_mtime_ns)
        for name, digest in digests(data_dir / "datasets").items()
    }


def stale_reports(data_dir: Path) -> list[str]:
    """Report files that differ from, or are missing in, the manifest."""
    manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
    expected = {e["path"]: e["sha256"] for e in manifest["files"] if e["path"].startswith("reports/")}
    actual = {f"reports/{name}": digest for name, digest in digests(data_dir / "reports").items()}
    return sorted(p for p in set(expected) | set(actual) if expected.get(p) != actual.get(p))


class Checks:
    """Correctness bookkeeping over all campaigns of one run."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.pairs_per_kind = {
            kind: sim["n_series"] * len(workload.methods) for kind, sim in workload.config["simulate"].items()
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        rng = random.Random(seed)
        n_series = next(iter(workload.config["simulate"].values()))["n_series"]
        self.sample = sorted(rng.sample(range(n_series), workload.oracle_series))

    def fail(self, pairs: int, problem: str) -> None:
        self.failed += pairs
        self.problems.append(problem)

    def campaign(self, data_dir: Path, datasets_before: dict, with_oracle: bool) -> None:
        """Account for one finished run + report in ``data_dir``."""
        self.attempted += sum(self.pairs_per_kind.values())
        manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
        for kind, fractions in manifest["failure_fractions"].items():
            n_series = self.workload.config["simulate"][kind]["n_series"]
            self.failed += sum(round(f * n_series) for f in fractions.values())
        after = dataset_state(data_dir)
        changed = sorted(name for name in set(after) | set(datasets_before) if after.get(name) != datasets_before.get(name))
        for kind, pairs in self.pairs_per_kind.items():
            if any(name.startswith(f"{kind}.") for name in changed):
                self.fail(pairs, f"run re-wrote the {kind} dataset instead of reusing it")
        stale = stale_reports(data_dir)
        if stale:
            kinds = [k for k in self.pairs_per_kind if any(f"_{k}" in p for p in stale)]
            if any(p.endswith(".md") for p in stale):
                kinds = list(self.pairs_per_kind)
            self.fail(sum(self.pairs_per_kind[k] for k in kinds), f"re-rendered reports differ from the manifest: {stale}")
        if with_oracle:
            from oracle import REL_TOL, check_forecasts  # imports driftcast from the checkout

            for kind in self.pairs_per_kind:
                checked, bad = check_forecasts(data_dir, self.workload.config, kind, self.sample)
                print(f"oracle {kind}: {checked - len(bad)} of {checked} (series, method) pairs within {REL_TOL:g}")
                if bad:
                    self.fail(len(bad), "oracle mismatch: " + "; ".join(bad[:5]))

    def same_traces(self, reference: dict, other: dict, what: str) -> None:
        for name in sorted(set(reference) | set(other)):
            if reference.get(name) != other.get(name):
                kind = name.removesuffix(".csv")
                self.fail(self.pairs_per_kind.get(kind, 0), f"{what}: traces/{name} differs")


def machine_facts() -> dict:
    """Core count, cache sizes and interpreter versions of this machine."""
    import numpy

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        facts[f"cache_l{level}_{kind.lower()}"] = size
    return facts


def timed(workload, child: Child, checks: Checks, seconds: float) -> dict:
    samples: dict = {"campaign_s": [], "rerender_s": [], "setup_s": [], "peak_rss_mb": []}
    first_datasets = None
    start = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_CYCLE):
            samples["setup_s"].append(child.run(child.cli_args("simulate"))[0])
            datasets = dataset_state(child.data_dir)
            shas = {name: sha for name, (sha, _) in datasets.items()}
            if first_datasets is None:
                first_datasets = shas
            elif shas != first_datasets:
                checks.fail(sum(checks.pairs_per_kind.values()), "simulate wrote different datasets for the same seed")
        wall, peak, _ = child.run(child.cli_args("run", workload.workers))
        samples["campaign_s"].append(wall)
        samples["peak_rss_mb"].append(peak)
        for _ in range(REPORTS_PER_CYCLE):
            samples["rerender_s"].append(child.run(child.cli_args("report"))[0])
        checks.campaign(child.data_dir, datasets, with_oracle=len(samples["campaign_s"]) == 1)
        if len(samples["campaign_s"]) >= MIN_CYCLES and time.perf_counter() - start >= seconds:
            break
    units = {"campaign_s": "s", "rerender_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    for name, values in samples.items():
        # a run holds too few samples for any percentile below the max
        print(f"{name:<12} median {statistics.median(values):9.4f} {units[name]:<4} max {max(values):9.4f}  n={len(values)}")
    return {name: {"value": statistics.median(values), "unit": units[name]} for name, values in samples.items()}


def _layer_totals(summaries: list[dict]) -> tuple[dict, dict]:
    stats: dict = {}
    counts: dict = {}
    for summary in summaries:
        for name, s in summary["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return stats, counts


def _series_loop_s(summary: dict) -> float:
    stats = summary["stats"]
    return stats["evaluate.prequential_run"]["total_s"] - stats["learners.fit_global_ar"]["total_s"]


def traced(workload, child: Child, checks: Checks) -> dict:
    sim_wall, _, sim_spans = child.run(child.cli_args("simulate"), traced=True)
    datasets = dataset_state(child.data_dir)
    plain_wall, _, _ = child.run(child.cli_args("run", 1))
    plain_traces = digests(child.data_dir / "traces")
    run_wall, _, run_spans = child.run(child.cli_args("run", 1), traced=True)
    checks.same_traces(plain_traces, digests(child.data_dir / "traces"), "tracing changed the output")
    series_loop_s = _series_loop_s(run_spans)
    if workload.workers > 1:
        _, _, pool_spans = child.run(child.cli_args("run", workload.workers), traced=True)
        checks.same_traces(
            plain_traces, digests(child.data_dir / "traces"), f"{workload.workers} workers vs 1 worker"
        )
        series_loop_s = _series_loop_s(pool_spans)
    report_wall, _, report_spans = child.run(child.cli_args("report"), traced=True)
    checks.campaign(child.data_dir, datasets, with_oracle=True)

    stats, counts = _layer_totals([sim_spans, run_spans, report_spans])
    metrics: dict = {}
    for name, s in stats.items():
        if name == "cli":
            metrics["cli.self_s"] = s["self_s"]
            continue
        metrics[f"{name}.s"] = s["self_s"]
        metrics[f"{name}.calls"] = s["calls"]
    metrics.update(counts)
    metrics["evaluate.series_loop_s"] = series_loop_s
    metrics["trace.coverage"] = sum(s["self_s"] for s in stats.values()) / (sim_wall + run_wall + report_wall)
    metrics["trace.overhead_s"] = run_wall - plain_wall
    print(f"traced walls: simulate {sim_wall:.3f} s, run {run_wall:.3f} s (untraced {plain_wall:.3f} s), report {report_wall:.3f} s")
    result = {}
    for name, (unit, _, target) in LAYER_METRICS.items():
        value = metrics.get(name, 0)
        result[name] = {"value": value, "unit": unit}
        print(f"{name:<44} {value:>14.6g} {unit:<6} -> {target}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so Child.run stops the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "driftcast" / "cli.py").is_file():
        print(f"error: no driftcast source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**64
    out_dir = root / OUT_ROOT / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "data").mkdir(parents=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=1), encoding="utf-8")
    child = Child(root, out_dir, config_path, seed)
    # compile the package's bytecode before anything is timed
    subprocess.run([sys.executable, "-c", "import driftcast.cli"], cwd=root, env=child.env, check=True)

    checks = Checks(workload, seed)
    print(f"workload {workload.name} (seed {seed}): {workload.shape()}")
    print(f"why: {workload.why}")
    try:
        metrics = traced(workload, child, checks) if args.trace else timed(workload, child, checks, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(checks.attempted, 1), "failed": max(checks.attempted, 1), "metrics": {}}))
        return 1
    for problem in checks.problems:
        print(f"check failed: {problem}")
    failed = min(checks.failed, checks.attempted)  # a pair can fail more than one check
    print(f"failed_fraction {failed / checks.attempted:.6g} ratio ({failed} of {checks.attempted} pairs)")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(json.dumps({"correct": not checks.problems, "attempted": checks.attempted, "failed": failed, "metrics": metrics}))
    shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
