import csv
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import weakref

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_core import traced_peak
from test_evaluate import reference_weight_traces

from driftcast import cli, evaluate
from driftcast.cli import (
    PRESETS,
    apply_seed_override,
    cmd_report,
    cmd_run,
    cmd_simulate,
    config_hash,
    deep_merge,
    load_config_document,
    main,
    preset_config,
    validate_config,
)
from driftcast.core import ConfigError, FitError, SeriesIndex, load_dataset
from driftcast.evaluate import METHODS, prequential_run


def tiny_document(**overrides):
    sim = {
        "n_series": 4,
        "series_length": 120,
        "train_len": 90,
        "burn_in": 50,
        "base_seed": 11,
    }
    doc = {
        "simulate": {"sudden": dict(sim), "gradual": dict(sim)},
        "methods": [{"name": "AR3_All"}, {"name": "Plain_All"}, {"name": "GDW"}],
        "evaluate": {"horizon": 30, "block_size": 10},
        "stats": {"alpha": 0.05},
        "output": {"directory": "out", "formats": ["csv", "md"]},
    }
    return deep_merge(doc, overrides)


# config documents that name no drift kind: one without a simulate section, one with an empty one
KINDLESS = {
    "absent": {key: value for key, value in tiny_document().items() if key != "simulate"},
    "empty": tiny_document() | {"simulate": {}},
}


class TestValidation:
    def test_presets_validate(self):
        for name in PRESETS:
            cfg = validate_config(preset_config(name))
            assert len(cfg.eval_config.methods) == 14
            assert set(cfg.sim_configs) == {"sudden", "incremental", "gradual"}

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            validate_config(tiny_document(extra={}))

    def test_unknown_sim_key(self):
        doc = tiny_document()
        doc["simulate"]["sudden"]["n_serie"] = 4
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_unknown_drift_kind(self):
        doc = tiny_document()
        doc["simulate"]["recurring"] = doc["simulate"]["sudden"]
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_wrong_type(self):
        doc = tiny_document()
        doc["evaluate"]["horizon"] = "thirty"
        with pytest.raises(ConfigError):
            validate_config(doc)
        doc = tiny_document()
        doc["evaluate"]["horizon"] = True
        with pytest.raises(ConfigError):
            validate_config(doc)

    @pytest.mark.parametrize("key", ["ar_coeffs", "ar_coeffs_2"])
    @pytest.mark.parametrize("coeffs", [["x", -0.5, 0.1], [[0.5], -0.5, 0.1], [True, -0.5, 0.1]])
    def test_coefficients_must_be_numbers(self, tmp_path, key, coeffs):
        doc = tiny_document()
        doc["simulate"]["sudden"][key] = coeffs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize(
        "override",
        [
            {"simulate": {"sudden": {"mean_2_high": None}}},
            {"simulate": {"sudden": {"noise_sd": False}}},
            {"simulate": {"sudden": {"n_series": 4.0}}},
            {"methods": [{"name": "GDW", "eta": True}]},
            {"methods": [{"name": "GDW", "clamp": 1}]},
            {"evaluate": {"literal_value_scaling": 0}},
            {"stats": {"alpha": None}},
            {"simulate": {"sudden": [1]}},
            {"methods": [5]},
            {"methods": [{"eta": 0.1}]},
            {"evaluate": [1]},
            {"stats": 0.05},
            {"output": "out"},
            {"methods": [{"name": "GDW", "eta": float("nan")}]},
            {"evaluate": {"ridge_lambda": float("inf")}},
            {"evaluate": {"beta": float("-inf")}},
            {"simulate": {"sudden": {"mean_2_high": float("inf")}}},
            {"methods": [{"name": "GDW", "eta": 10**400}]},
            {"stats": {"alpha": -(10**400)}},
        ],
    )
    def test_json_types(self, override):
        with pytest.raises(ConfigError):
            validate_config(tiny_document(**override))

    def test_literal_nan_in_a_config_file_names_the_key(self, tmp_path, capsys):
        # json reads the literals NaN and Infinity, which no config value may hold
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()).replace('{"name": "GDW"}', '{"name": "GDW", "eta": NaN}'))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "methods[2].eta must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_huge_integer_passes_the_type_check(self):
        # an integer field takes any int; the range check of its field rejects it
        with pytest.raises(ConfigError, match="base_seed must fit in 64 bits"):
            validate_config(tiny_document(simulate={"sudden": {"base_seed": 10**400}}))

    def test_method_flags(self):
        doc = tiny_document()
        doc["methods"] = [{"name": "GDW", "eta": 0.05, "true_gradient": True}, {"name": "ECW"}]
        cfg = validate_config(doc)
        gdw = [m for m in cfg.eval_config.methods if m.name == "GDW"][0]
        assert gdw.eta == 0.05 and gdw.true_gradient

    @settings(max_examples=80, deadline=None)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                "global_lags": st.integers(-2, 30),
                "ridge_lambda": st.floats(-1.0, 1.0),
                "alpha0": st.one_of(st.integers(-1, 2), st.floats(-0.5, 1.5)),
                "beta": st.one_of(st.integers(-3, 2), st.floats(-3.0, 1.5)),
                "literal_value_scaling": st.booleans(),
            },
        )
    )
    def test_accepted_evaluate_section_builds_every_global_spec(self, section):
        try:
            cfg = validate_config(tiny_document(evaluate=section)).eval_config
        except ConfigError:
            return
        for name, record in METHODS.items():
            if record.family == "global_ar":
                cfg.global_spec(name)

    @pytest.mark.parametrize("doc", KINDLESS.values(), ids=KINDLESS)
    def test_config_without_kinds(self, doc):
        with pytest.raises(ConfigError, match="^config has no simulate section$"):
            validate_config(doc)

    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            validate_config(tiny_document(stats={"alpha": 1.5}))

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"simulate": {"sudden": {"n_series": 0}}}, "simulate.sudden: n_series must be positive"),
            ({"simulate": {"sudden": {"series_length": 19}}}, "simulate.sudden: series_length too short for drift placement"),
            ({"simulate": {"sudden": {"burn_in": -1}}}, "simulate.sudden: burn_in must be nonnegative"),
            ({"simulate": {"sudden": {"ar_coeffs": []}}}, "simulate.sudden: ar_coeffs must be non-empty"),
            ({"evaluate": {"block_size": 0}}, "evaluate: horizon and block_size must be positive"),
            ({"methods": [{"name": "GDW", "eta": 0}]}, "methods[0]: eta must be positive"),
            ({"methods": []}, "methods must be a non-empty list"),
            ({"output": {"formats": ["pdf"]}}, "output: unknown format 'pdf' in formats"),
            ({"simulate": {"gradual": {"ar_coeffs_2": []}}}, "simulate.gradual: ar_coeffs_2 must be non-empty"),
            (
                {"simulate": {"gradual": {"ar_coeffs_2": [1.0, 0, 0]}}},
                "simulate.gradual: ar_coeffs_2 [1.0, 0.0, 0.0] are not stationary",
            ),
            ({"simulate": {"gradual": {"n_series": 0}}}, "simulate.gradual: n_series must be positive"),
            ({"stats": {"alpha": 1.5}}, "stats: alpha must be in (0, 1)"),
            ({"methods": [{"name": "Foo"}]}, "methods[0]: unknown method 'Foo'"),
            ({"methods": [{"eta": 0.1}]}, "methods[0] has no 'name'"),
            ({"evaluate": {"global_lags": 0}}, "evaluate: global_lags must be >= 1"),
            ({"methods": [{"name": "GDW"}, {"name": "ECW"}, {"name": "GDW"}]}, "methods[2] repeats method 'GDW'"),
            ({"methods": [{"name": "GDW"}, {"name": "ECW", "eta": 5.0, "clamp": True}]}, "methods[1]: ECW takes no 'eta'"),
            ({"methods": [{"name": "AR3_All", "true_gradient": True}]}, "methods[0]: AR3_All takes no 'true_gradient'"),
            ({"methods": [{"name": "Oracle", "clamp": False}]}, "methods[0]: Oracle takes no 'clamp'"),
        ],
        ids=[
            "n_series",
            "series_length",
            "burn_in",
            "ar_coeffs",
            "block_size",
            "eta",
            "methods",
            "formats",
            "ar_coeffs_2_empty",
            "ar_coeffs_2_nonstationary",
            "n_series_second_kind",
            "alpha",
            "unknown_method",
            "method_without_name",
            "global_lags",
            "repeated_method",
            "ecw_eta",
            "ar_true_gradient",
            "oracle_default_clamp",
        ],
    )
    def test_range_checks_name_the_value(self, override, message):
        # the whole message, its key path first
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            validate_config(tiny_document(**override))


class TestConfigPlumbing:
    def test_deep_merge_nested(self):
        base = {"a": {"x": 1, "y": 2}, "b": [1, 2]}
        merged = deep_merge(base, {"a": {"y": 3}, "b": [9]})
        assert merged == {"a": {"x": 1, "y": 3}, "b": [9]}
        assert base["a"]["y"] == 2  # no mutation

    def test_hash_is_canonical(self):
        d1 = {"b": 1, "a": {"y": 2, "x": [1, 2]}}
        d2 = {"a": {"x": [1, 2], "y": 2}, "b": 1}
        assert config_hash(d1) == config_hash(d2)

    def test_hash_changes_on_field_change(self):
        doc = tiny_document()
        changed = deep_merge(doc, {"evaluate": {"horizon": 20}})
        assert config_hash(doc) != config_hash(changed)

    def test_seed_env_override(self):
        doc = tiny_document()
        out = apply_seed_override(doc, env={"DRIFTCAST_SEED": "777"})
        assert all(s["base_seed"] == 777 for s in out["simulate"].values())
        assert doc["simulate"]["sudden"]["base_seed"] == 11
        assert apply_seed_override(doc, env={"DRIFTCAST_SEED": str(2**64 - 1)})["simulate"]["sudden"]["base_seed"] == 2**64 - 1
        # the message names the variable, not a config key the user never wrote
        for raw in ("not-a-number", "-1", str(2**64)):
            message = f"DRIFTCAST_SEED must be an integer in [0, 2**64), got {raw!r}"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                apply_seed_override(doc, env={"DRIFTCAST_SEED": raw})

    @pytest.mark.parametrize("simulate", [[1], {"sudden": 5}])
    def test_seed_env_leaves_malformed_simulate_to_validation(self, tmp_path, monkeypatch, simulate):
        doc = tiny_document()
        doc["simulate"] = simulate
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert apply_seed_override(doc, env={"DRIFTCAST_SEED": "5"}) == doc
        monkeypatch.setenv("DRIFTCAST_SEED", "5")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_preset_hashes_pinned(self):
        assert config_hash(preset_config("desk")) == "8bd551f4d212fe1ec24aaf8525758e2f869331c21cfc4cc8e6e256d3ac8e9a50"
        assert config_hash(preset_config("paper")) == "55d41813c0a6cc35379288a01e1d251d3ac3968a699f61305118a31468ac77b2"

    def test_load_requires_source(self):
        with pytest.raises(ConfigError):
            load_config_document(None, None)

    def test_config_file_merges_over_preset(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"evaluate": {"horizon": 100}}))
        doc = load_config_document("desk", str(path))
        assert doc["evaluate"]["horizon"] == 100
        assert doc["simulate"]["sudden"]["n_series"] == 100


class TestSimulateCommand:
    def test_idempotent_bytes(self, tmp_path):
        cfg = validate_config(tiny_document())
        out = tmp_path / "run"
        cmd_simulate(cfg, out)
        first = (out / "datasets" / "sudden.csv").read_bytes()
        cmd_simulate(cfg, out)
        assert (out / "datasets" / "sudden.csv").read_bytes() == first
        assert (out / "datasets" / "sudden.meta.json").exists()


class TestRunCommand:
    def test_full_pipeline_outputs(self, tmp_path):
        cfg = validate_config(tiny_document())
        out = tmp_path / "run"
        results = cmd_run(cfg, out)
        assert set(results) == {"sudden", "gradual"}
        for kind in results:
            assert (out / "traces" / f"{kind}.csv").exists()
            assert (out / "reports" / f"accuracy_{kind}.csv").exists()
            assert (out / "reports" / f"stats_{kind}.csv").exists()
        assert (out / "reports" / "accuracy.md").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg.document)
        outer = ["datasets", "evaluate", "traces", "reports"]
        assert [phase for phase in manifest["phases"] if phase in outer] == outer
        assert all(manifest["phases"][phase]["seconds"] >= 0 for phase in outer)
        for entry in manifest["files"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_manifest_spans_the_phases_per_block(self, tmp_path):
        methods = [{"name": name} for name in ("AR3_All", "ETS_All", "Plain_All", "GDW")]
        cfg = validate_config(tiny_document(methods=methods))
        out = tmp_path / "run"
        kinds, blocks = 2, 3  # each kind's horizon of 30 in blocks of 10
        for load in ("simulate", "load_dataset"):  # the second run reuses the datasets on disk
            cmd_run(cfg, out)
            manifest = json.loads((out / "manifest.json").read_text())
            phases = manifest["phases"]
            # one span per block and phase, never one per step
            assert {name: entry["calls"] for name, entry in phases.items()} == {
                "datasets": kinds,
                load: kinds,
                "evaluate": kinds,
                "pooled_fits": kinds * blocks,
                "forecasts": kinds * blocks * 4,  # the pooled models', AR3_All's, ETS_All's and Plain_All's
                "local_ar_fits": kinds * blocks,
                "ets_grid": kinds * blocks,
                "combiner_steps": kinds * blocks,
                "scoring": kinds,
                "traces": kinds,
                "write_traces": kinds,
                "hashing": kinds + 1,
                "reports": 1,
                "rendering": 1,
            }
            assert all(entry["seconds"] >= 0 for entry in phases.values())
            # the four outer phases hold the others
            for outer, inner in (("evaluate", ("pooled_fits", "local_ar_fits", "ets_grid", "scoring")), ("reports", ("rendering",))):
                assert phases[outer]["seconds"] >= sum(phases[name]["seconds"] for name in inner)

    def test_rerun_reuses_datasets_and_reproduces_reports(self, tmp_path):
        cfg = validate_config(tiny_document())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cmd_run(cfg, out1)
        cmd_run(cfg, out2)
        for rel in ("traces/sudden.csv", "reports/accuracy_sudden.csv", "reports/stats_sudden.csv"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_single_method_skips_stats(self, tmp_path):
        doc = tiny_document()
        doc["methods"] = [{"name": "Plain_All"}]
        cfg = validate_config(doc)
        out = tmp_path / "run"
        results = cmd_run(cfg, out)
        assert all(r.test is None for r in results.values())
        text = (out / "reports" / "stats_sudden.csv").read_text()
        assert "skipped" in text

    def test_too_few_series_scored_by_all_methods_skips_stats(self, tmp_path, monkeypatch):
        # AR3_All fails every series but the first, so Plain_All and AR3_All
        # share one scored series: too few for the rank tests
        doc = tiny_document()
        del doc["simulate"]["gradual"]
        cfg = validate_config(doc)
        out = tmp_path / "run"
        cmd_simulate(cfg, out)
        first = load_dataset(out / "datasets" / "sudden.csv").values[0]
        real_fit = evaluate.fit_local_ar

        def fit_first_series_only(values, p, window="all"):
            if not np.array_equal(values, first[: len(values)]):
                raise FitError("synthetic failure")
            return real_fit(values, p, window)

        monkeypatch.setattr(evaluate, "fit_local_ar", fit_first_series_only)
        results = cmd_run(cfg, out)
        note = "statistical testing skipped: fewer than 2 series scored by all methods"
        assert results["sudden"].test is None and results["sudden"].stats_note == note
        assert results["sudden"].report.failure_counts["AR3_All"] == 3
        assert note in (out / "reports" / "stats.md").read_text()
        assert (out / "reports" / "stats_sudden.csv").read_text() == f"note\n{note}\n"

    def test_single_method_writes_sensitivity(self, tmp_path):
        doc = tiny_document()
        doc["methods"] = [{"name": "AR3_All"}]
        out = tmp_path / "run"
        cmd_run(validate_config(doc), out)
        listed = {entry["path"] for entry in json.loads((out / "manifest.json").read_text())["files"]}
        for metric in ("rmse", "mae"):
            assert f"reports/sensitivity_sudden_{metric}.csv" in listed
            assert f"reports/sensitivity_gradual_{metric}.csv" not in listed

    def test_report_rerender_matches(self, tmp_path):
        cfg = validate_config(tiny_document())
        out = tmp_path / "run"
        cmd_run(cfg, out)
        before = (out / "reports" / "accuracy_sudden.csv").read_bytes()
        (out / "reports" / "accuracy_sudden.csv").unlink()
        cmd_report(cfg, out)
        assert (out / "reports" / "accuracy_sudden.csv").read_bytes() == before

    def test_report_pairs_series_by_id(self, tmp_path):
        cfg = validate_config(tiny_document())
        out = tmp_path / "run"
        cmd_run(cfg, out)
        reports = {path.name: path.read_bytes() for path in (out / "reports").iterdir()}
        trace = out / "traces" / "sudden.csv"
        header, *rows = trace.read_text().splitlines(keepends=True)
        trace.write_text(header + "".join(reversed(rows)))
        cmd_report(cfg, out)
        assert {path.name: path.read_bytes() for path in (out / "reports").iterdir()} == reports

    def test_report_rejects_trace_of_other_series(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        trace = out / "traces" / "sudden.csv"
        header, first, *rows = trace.read_text().splitlines(keepends=True)
        missing = first.split(",")[0]
        trace.write_text(header + "".join(row for row in [first, *rows] if row.split(",")[0] != missing))
        assert main(["report", "--config", str(path), "--out", str(out)]) == 1
        assert str(trace) in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", [20, 30])
    @pytest.mark.parametrize("shift", [-1, 1, 7])
    def test_report_rejects_trace_of_other_positions(self, tmp_path, capsys, horizon, shift):
        # series of 120 points, 90 for training: the test region is t = 91..120
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document(evaluate={"horizon": horizon})))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        trace = out / "traces" / "sudden.csv"
        header, *rows = list(csv.reader(io.StringIO(trace.read_text(), newline="")))
        with open(trace, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows([header] + [[sid, name, int(t) + shift, *values] for sid, name, t, *values in rows])
        capsys.readouterr()
        assert main(["report", "--config", str(path), "--out", str(out)]) == 1
        assert str(trace) in capsys.readouterr().err

    def test_rerun_resimulates_only_changed_kinds(self, tmp_path, monkeypatch):
        doc = tiny_document()
        out = tmp_path / "run"
        cmd_run(validate_config(doc), out)
        kept = ["datasets/gradual.csv", "datasets/gradual.meta.json", "traces/gradual.csv"]
        before = {rel: ((out / rel).read_bytes(), (out / rel).stat().st_mtime_ns) for rel in kept}
        sudden = (out / "datasets" / "sudden.csv").read_bytes()
        doc["simulate"]["sudden"]["base_seed"] += 1
        loaded = []
        real_load = cli.load_dataset
        monkeypatch.setattr(cli, "load_dataset", lambda path: loaded.append(Path(path).name) or real_load(path))
        cmd_run(validate_config(doc), out)
        # the stale sudden CSV is not parsed: its sidecar already differs
        assert loaded == ["gradual.csv"]
        assert (out / "datasets" / "sudden.csv").read_bytes() != sudden
        for rel in kept[:2]:  # reused, not written again
            assert ((out / rel).read_bytes(), (out / rel).stat().st_mtime_ns) == before[rel]
        # every run evaluates every kind and writes its trace again
        assert (out / kept[2]).read_bytes() == before[kept[2]][0]

    def test_bad_later_dataset_fails_after_earlier_traces(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        (out / "datasets" / "gradual.csv").write_text("series_id,t,value\ns0,1,x\n")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert (out / "traces" / "sudden.csv").exists()
        assert not (out / "traces" / "gradual.csv").exists()

    @pytest.mark.parametrize("command", ["run", "report"])
    @pytest.mark.parametrize(
        "sidecar",
        [
            lambda text: "{ not json",
            lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "train_len"}),
            lambda text: text.replace('"kind"', '"kinds"', 1),
            lambda text: "[]",
        ],
        ids=["not-json", "no-train_len", "no-drift-kind", "not-an-object"],
    )
    def test_malformed_sidecar_is_a_validation_error(self, tmp_path, capsys, command, sidecar):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        meta = out / "datasets" / "gradual.meta.json"
        meta.write_text(sidecar(meta.read_text()))
        bad = meta.read_bytes()
        capsys.readouterr()
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert f"sidecar {meta}" in capsys.readouterr().err
        assert meta.read_bytes() == bad  # not simulated over

    def test_missing_sidecar_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        meta = out / "datasets" / "gradual.meta.json"
        meta.unlink()
        assert main(["report", "--config", str(path), "--out", str(out)]) == 1
        assert f"sidecar {meta} is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "report"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta: meta["series"][1].update(id=meta["series"][0]["id"]), "series ids must be unique"),
            (lambda meta: meta["series"][0].update(id="cr\rx"), "holds a carriage return"),
            (lambda meta: meta.update(train_len=0), "train_len=0 outside [1, 120]"),
            (lambda meta: meta.update(train_len=121), "train_len=121 outside [1, 120]"),
            (lambda meta: meta["series"][2]["drift"].update(t_drift=0), "t_drift=0 outside [1, 120]"),
            (lambda meta: meta["series"][2]["drift"].update(t_drift=121), "t_drift=121 outside [1, 120]"),
            (lambda meta: meta.update(series_length="120"), "series_length='120', not an integer"),
            (lambda meta: meta.update(series_length=None), "series_length=None, not an integer"),
            (lambda meta: meta.update(series_length=True), "series_length=True, not an integer"),
            (lambda meta: meta.update(series_length=120.0), "series_length=120.0, not an integer"),
            (lambda meta: meta.update(train_len="90"), "train_len='90', not an integer"),
            (lambda meta: meta.update(train_len=None), "train_len=None, not an integer"),
            (lambda meta: meta.update(train_len=True), "train_len=True, not an integer"),
            (lambda meta: meta.update(train_len=90.0), "train_len=90.0, not an integer"),
            (lambda meta: meta["series"][2]["drift"].update(t_drift="100"), "t_drift='100', not an integer"),
            (lambda meta: meta["series"][2]["drift"].update(t_drift=None), "sudden drift needs t_drift only"),
            (lambda meta: meta["series"][2]["drift"].update(t_drift=True), "t_drift=True, not an integer"),
            (lambda meta: meta["series"][2]["drift"].update(t_drift=100.0), "t_drift=100.0, not an integer"),
            (lambda meta: meta["series"][1]["drift"].update(seed="7"), "seed='7', not an integer"),
            (lambda meta: meta["series"][1]["drift"].update(seed=None), "seed=None, not an integer"),
            (lambda meta: meta["series"][1]["drift"].update(seed=False), "seed=False, not an integer"),
            (lambda meta: meta["series"][1]["drift"].update(seed=7.0), "seed=7.0, not an integer"),
            (lambda meta: meta["series"][3].update(id=7), "series id 7, not a string"),
            (lambda meta: meta["series"][3].update(id=None), "series id None, not a string"),
        ],
        ids=[
            "duplicate-id", "carriage-return", "train_len-0", "train_len-past-end", "t_drift-0", "t_drift-past-end",
            "series_length-string", "series_length-null", "series_length-bool", "series_length-float",
            "train_len-string", "train_len-null", "train_len-bool", "train_len-float",
            "t_drift-string", "t_drift-null", "t_drift-bool", "t_drift-float",
            "seed-string", "seed-null", "seed-bool", "seed-float", "id-number", "id-null",
        ],
    )
    def test_sidecar_checks_reject_a_bad_sidecar(self, tmp_path, capsys, command, edit, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        meta_path = out / "datasets" / "sudden.meta.json"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        bad = meta_path.read_bytes()
        capsys.readouterr()
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert meta_path.read_bytes() == bad  # not simulated over

    def test_sidecar_longer_than_its_csv_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        meta_path = out / "datasets" / "sudden.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["series_length"] = 10**15
        meta_path.write_text(json.dumps(meta))
        bad = meta_path.read_bytes()
        capsys.readouterr()
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert f"sidecar {meta_path} gives 4 series of {10**15} positions" in capsys.readouterr().err
        assert meta_path.read_bytes() == bad  # not simulated over

    def test_report_loads_no_dataset(self, tmp_path, monkeypatch):
        cfg = validate_config(tiny_document())
        out = tmp_path / "run"
        cmd_run(cfg, out)
        loaded = []
        real_load = cli.load_dataset
        monkeypatch.setattr(cli, "load_dataset", lambda path: loaded.append(Path(path).name) or real_load(path))
        cmd_report(cfg, out)
        assert loaded == []

    def test_report_needs_no_dataset_csv(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        reports = {p.name: p.read_bytes() for p in (out / "reports").iterdir()}
        for csv_path in (out / "datasets").glob("*.csv"):
            csv_path.unlink()
        for p in (out / "reports").iterdir():
            p.unlink()
        assert main(["report", "--config", str(path), "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in (out / "reports").iterdir()} == reports

    def test_accuracy_report_layout(self, tmp_path):
        doc = tiny_document()
        doc["methods"] = [
            {"name": "AR3_All"},
            {"name": "ETS_200"},
            {"name": "EXP_All"},
            {"name": "Plain_All"},
            {"name": "GDW"},
            {"name": "ECW"},
        ]
        cfg = validate_config(doc)
        out = tmp_path / "run"
        cmd_run(cfg, out)
        lines = (out / "reports" / "accuracy_sudden.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "method", "group", "mean_rmse", "median_rmse", "mean_mae", "median_mae",
            "failures", "group_best", "overall_best",
        ]
        methods = [line.split(",")[0] for line in lines[1:]]
        # statistical group, then gfm baselines, then proposed
        assert methods == ["AR3_All", "ETS_200", "EXP_All", "Plain_All", "GDW", "ECW"]
        groups = [line.split(",")[1] for line in lines[1:]]
        assert groups == ["statistical", "statistical", "gfm", "gfm", "proposed", "proposed"]
        flags = [line.split(",")[7] for line in lines[1:]]
        assert flags.count("true") == 3  # one best per group
        md = (out / "reports" / "accuracy.md").read_text()
        assert "Group best" in md and "## Sudden" in md
        stats_header = (out / "reports" / "stats_sudden.csv").read_text().splitlines()[0]
        assert stats_header.endswith("significantly_worse")
        # control method comes first with blank comparison columns
        first = (out / "reports" / "stats_sudden.csv").read_text().splitlines()[1].split(",")
        assert first[2] == "" and first[3] == ""

    def test_sensitivity_report_partitions(self, tmp_path):
        cfg = validate_config(tiny_document())
        out = tmp_path / "run"
        cmd_run(cfg, out)
        lines = (out / "reports" / "sensitivity_sudden_rmse.csv").read_text().splitlines()
        assert lines[0].startswith("bucket_low,bucket_high,n_series,")
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 4  # every series lands in exactly one bucket

    def test_run_frees_each_dataset_before_the_reports(self, tmp_path, monkeypatch):
        datasets = []
        real_run, real_render = cli.prequential_run, cli.render_reports

        def run(dataset, *args, **kwargs):
            datasets.append(weakref.ref(dataset))
            return real_run(dataset, *args, **kwargs)

        def render(*args):
            gc.collect()
            assert [ref() for ref in datasets] == [None, None]
            return real_render(*args)

        monkeypatch.setattr(cli, "prequential_run", run)
        monkeypatch.setattr(cli, "render_reports", render)
        results = cmd_run(validate_config(tiny_document()), tmp_path / "run")
        assert len(datasets) == 2
        assert all(type(res.dataset) is SeriesIndex for res in results.values())

    def test_weight_traces_schema(self, tmp_path):
        doc = tiny_document(output={"weight_traces": True})
        cfg = validate_config(doc)
        out = tmp_path / "run"
        results = cmd_run(cfg, out)
        files = sorted((out / "traces").glob("weights_GDW_*_sudden.csv"))
        assert len(files) == 4
        header = files[0].read_text().splitlines()[0]
        assert header == "series_id,t,y,yhat_partial,yhat_all,w_p,w_a,yhat_combined"
        expected = {}
        for kind, res in results.items():
            run = prequential_run(load_dataset(out / "datasets" / f"{kind}.csv"), cfg.eval_config, capture_weights=True)
            expected.update(reference_weight_traces(run, kind))
        assert {path.name: path.read_bytes() for path in (out / "traces").glob("weights_*")} == expected

    @pytest.mark.parametrize(
        "size", [0, 1, cli._HASH_BLOCK - 1, cli._HASH_BLOCK, cli._HASH_BLOCK + 1, (1 << 20) - 1, 1 << 20, (5 << 19) + 3]
    )
    def test_manifest_digest_reads_blocks(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(bytes(range(256)) * (size // 256) + bytes(size % 256))
        assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_manifest_digest_reads_into_one_small_buffer(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(bytes(range(256)) * (6 << 12))  # 6 MiB
        digest, peak = traced_peak(cli._sha256, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest() and peak < 256 << 10

    def test_run_and_report_leave_numpy_ma_unloaded(self, tmp_path):
        # np.median's NaN check imports numpy.ma, and the engine needs no
        # scalar combiner; a fresh interpreter shows whether a command loads
        # either, whatever this test process has loaded
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        out = tmp_path / "out"
        script = "\n".join(
            [
                "import sys",
                "from driftcast import cli",
                f"assert cli.main(['run', '--config', {str(path)!r}, '--out', {str(out)!r}]) == 0",
                f"assert cli.main(['report', '--config', {str(path)!r}, '--out', {str(out)!r}]) == 0",
                "print('numpy.ma' in sys.modules, 'driftcast.combine' in sys.modules)",
            ]
        )
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "False False"


class TestMainExitCodes:
    def test_missing_config_is_validation_error(self, capsys):
        assert main(["run"]) == 1

    @pytest.mark.parametrize(
        "content, preset",
        [(None, []), (b"[1, 2]", ["--preset", "desk"]), ('{"output": {"directory": "caf\xe9"}}'.encode("latin-1"), []), (b"{ not json", [])],
        ids=["missing", "list", "latin-1", "not-json"],
    )
    def test_bad_config_path(self, tmp_path, capsys, content, preset):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_bytes(content)
        assert main(["simulate", *preset, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: config {path} " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_and_report_flow(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", str(path), "--out", out]) == 0
        assert main(["run", "--config", str(path), "--out", out, "--threads", "1"]) == 0
        assert main(["report", "--config", str(path), "--out", out, "--format", "csv"]) == 0

    def test_report_without_traces_fails(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        assert main(["report", "--config", str(path), "--out", str(tmp_path / "empty")]) == 1

    def test_report_without_a_configured_kinds_trace_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        doc = tiny_document()
        doc["simulate"] = {"incremental": doc["simulate"]["sudden"]}
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--config", str(path), "--out", str(out)]) == 1
        assert f"config error: sidecar {out / 'datasets' / 'incremental.meta.json'} is missing" in capsys.readouterr().err

    def test_report_missing_one_kinds_trace_fails_and_rewrites_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        trace = out / "traces" / "gradual.csv"
        trace.unlink()
        reports = {p.name: p.read_bytes() for p in (out / "reports").iterdir()}
        capsys.readouterr()
        assert main(["report", "--config", str(path), "--out", str(out)]) == 1
        assert f"config error: trace file missing: {trace}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (out / "reports").iterdir()} == reports

    @pytest.mark.parametrize(
        "drop, overrides, message",
        [
            (lambda sid, method: method == "GDW", {}, "trace of ('GDW', 'sudden_0000') does not hold t=91..120 once each in {trace}"),
            (
                lambda sid, method: (method, sid) == ("AR3_All", "sudden_0001"),
                {},
                "trace of ('AR3_All', 'sudden_0001') does not hold t=91..120 once each in {trace}",
            ),
            (None, {"evaluate": {"horizon": 20}}, "trace file {trace} holds t=111 outside the test region t=91..110"),
            (None, {"methods": [{"name": "AR3_All"}]}, "trace file {trace} holds method 'Plain_All' absent from the config"),
        ],
        ids=["no-GDW-rows", "one-pair-deleted", "horizon-20", "methods-AR3_All"],
    )
    def test_report_of_a_trace_unlike_the_config_fails_and_rewrites_nothing(self, tmp_path, capsys, drop, overrides, message):
        # the trace must hold the config's methods x the sidecar's series x
        # evaluate.horizon positions, each once: a pair is never read as failed
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document()))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        trace = out / "traces" / "sudden.csv"
        header, *rows = trace.read_text().splitlines(keepends=True)
        trace.write_text(header + "".join(row for row in rows if not (drop and drop(*row.split(",")[:2]))))
        path.write_text(json.dumps(tiny_document(**overrides)))
        reports = {p.name: p.read_bytes() for p in (out / "reports").iterdir()}
        capsys.readouterr()
        assert main(["report", "--config", str(path), "--out", str(out)]) == 1
        assert f"config error: {message.format(trace=trace)}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (out / "reports").iterdir()} == reports

    @pytest.mark.parametrize("command", ["simulate", "run", "report"])
    def test_config_without_simulate_section_fails(self, tmp_path, capsys, command):
        for doc in KINDLESS.values():
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
            assert "config error: config has no simulate section" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "run"])
    @pytest.mark.parametrize("method", ["AR3_200", "EXP_All"])
    @pytest.mark.parametrize(
        "key, value", [("alpha0", 0), ("alpha0", 1.5), ("beta", 0), ("beta", -3.0)], ids=["alpha0-0", "alpha0-1.5", "beta-0", "beta--3"]
    )
    def test_weighting_values_checked_before_any_dataset(self, tmp_path, capsys, command, method, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document(methods=[{"name": method}], evaluate={key: value})))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert f"{key} must be in (0, 1]" in capsys.readouterr().err
        assert not (out / "datasets").exists()

    @pytest.mark.parametrize("command", ["simulate", "run"])
    def test_horizon_checked_against_every_kind_before_any_dataset(self, tmp_path, capsys, command):
        # the sudden kind fits train_len 90 plus horizon 30; the shorter gradual kind does not
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_document(simulate={"gradual": {"series_length": 110}})))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert "simulate.gradual: train_len 90 plus evaluate.horizon 30 exceeds series_length 110" in capsys.readouterr().err
        assert not (out / "datasets").exists()

    def test_partial_failure_exit_code(self, tmp_path):
        doc = tiny_document()
        doc["simulate"] = {"sudden": dict(doc["simulate"]["sudden"], train_len=10, series_length=60)}
        doc["methods"] = [{"name": "AR3_All"}, {"name": "AR5_200"}]
        doc["evaluate"] = {"horizon": 50, "block_size": 50, "global_lags": 4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3

    def test_global_fit_without_rows_exits_3(self, tmp_path, capsys):
        # 250 lags leave no target in Plain_200's scaled last-200 window:
        # the pooled fit fails the method instead of crashing the run
        doc = {
            "simulate": {"sudden": {"n_series": 3, "series_length": 290, "train_len": 270, "burn_in": 50, "base_seed": 5}},
            "methods": [{"name": "Plain_200"}, {"name": "AR3_All"}],
            "evaluate": {"horizon": 20, "block_size": 20, "global_lags": 250, "literal_value_scaling": True},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert "warning: a method failed on 100.0% of series" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure_fractions"] == {"sudden": {"Plain_200": 1.0, "AR3_All": 0.0}}

    def test_every_method_failing_exits_3(self, tmp_path, capsys):
        doc = {
            "simulate": {"sudden": {"n_series": 5, "series_length": 40, "train_len": 5, "base_seed": 1}},
            "methods": [{"name": "AR5_All"}, {"name": "AR3_All"}],
            "evaluate": {"horizon": 10, "block_size": 10},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "sudden: no method scored" in captured.out
        assert "warning: a method failed on 100.0% of series" in captured.err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure_fractions"] == {"sudden": {"AR5_All": 1.0, "AR3_All": 1.0}}
        assert "need at least 2 methods, have 0" in (out / "reports" / "stats_sudden.csv").read_text()
