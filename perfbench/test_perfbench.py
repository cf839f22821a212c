"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

The traced-workload tests run every workload's traced benchmark twice
and take about five minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from oracle import check_forecasts  # noqa: E402
from tracecli import Tracer  # noqa: E402
from workloads import LAYER_METRICS, WORKLOADS  # noqa: E402

# counters computed from argument sizes; they must repeat exactly
EXACT = (
    "learners.fit_ets.grid_updates",
    "learners.predict_one.ets_rollforward_steps",
    "combine.states_built",
    "evaluate.write_traces.rows",
    "evaluate.load_traces.rows",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_benchmark_json_lists_the_workloads_and_layers():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in doc["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in LAYER_METRICS.items()
    }
    assert "setup_s" in {m["name"] for m in doc["end_to_end"]}


def test_tracer_self_time_excludes_traced_callees():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, count=lambda args, kwargs, result: [("seen", args[0])])
    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    stats = tracer.to_dict()["stats"]
    assert stats["inner"]["calls"] == 2 and stats["outer"]["calls"] == 1
    assert stats["outer"]["total_s"] - stats["outer"]["self_s"] == pytest.approx(stats["inner"]["total_s"], abs=1e-12)
    assert stats["inner"]["self_s"] == stats["inner"]["total_s"]
    assert tracer.counts == {"seen": 3}


def test_oracle_accepts_a_campaign_and_catches_a_changed_forecast(tmp_path):
    config = json.loads(json.dumps(WORKLOADS["desk"].config))
    for sim in config["simulate"].values():
        sim.update(n_series=4, series_length=320, train_len=270)
    config["simulate"] = {"sudden": config["simulate"]["sudden"]}
    config["evaluate"]["horizon"] = 50
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-m", "driftcast.cli", "run", "--config", str(config_path), "--out", str(out)],
        env={"PYTHONPATH": str(ROOT / "src")},
        check=True,
        capture_output=True,
    )
    checked, bad = check_forecasts(out, config, "sudden", [0, 3])
    assert checked == 2 * 14 and bad == []

    trace = out / "traces" / "sudden.csv"
    lines = trace.read_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith("sudden_0003,GDW,"))
    sid, method, t, actual, prediction = lines[index].rstrip("\n").split(",")
    lines[index] = f"{sid},{method},{t},{actual},{float(prediction) * (1 + 1e-6)!r}\n"
    trace.write_text("".join(lines))
    _, bad = check_forecasts(out, config, "sudden", [0, 3])
    assert len(bad) == 1 and bad[0].startswith(f"sudden/sudden_0003/GDW: 1 step(s) differ, first t={t}")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def traced_pairs():
    results = {}
    for name in WORKLOADS:
        runs = []
        for _ in range(2):
            done = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
            assert done.returncode == 0, done.stderr
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        results[name] = runs
    return results


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_is_correct_and_counts_repeat(traced_pairs, name):
    first, second = traced_pairs[name]
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(LAYER_METRICS)
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    for metric in EXACT + tuple(m for m in LAYER_METRICS if m.endswith(".calls")):
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric


def _largest_self_time(metrics: dict) -> str:
    layers: dict = {}
    for name, m in metrics.items():
        if name.endswith(".s"):
            layer = "combine" if name.startswith("combine.") else name[: -len(".s")]
            layers[layer] = layers.get(layer, 0.0) + m["value"]
    return max(layers, key=layers.get)


def test_workloads_separate_the_layers(traced_pairs):
    for first, _ in (traced_pairs[n] for n in WORKLOADS):
        assert first["metrics"]["learners.predict_one.calls"]["value"] > 0
    assert traced_pairs["combiner-stream"][0]["metrics"]["learners.fit_ets.calls"]["value"] == 0
    assert traced_pairs["combiner-stream"][0]["metrics"]["learners.fit_local_ar.calls"]["value"] == 0
    assert _largest_self_time(traced_pairs["paper-slice"][0]["metrics"]) == "learners.fit_ets"
    assert _largest_self_time(traced_pairs["combiner-stream"][0]["metrics"]) == "combine"
