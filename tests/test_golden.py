"""Golden output digests: every file a campaign writes, pinned by sha256.

Three campaigns are pinned in ``golden/outputs.json``: the desk preset
at ``DRIFTCAST_SEED=7`` with weight traces on; a small config that
takes the failure paths (a GDW at eta 0.5 that diverges, ECW, Oracle
and AR3_All); and the paper preset cut to 8 series of the sudden and
incremental kinds, whose paper-length series (2000 points, horizon 350
in 7 blocks) carry the ETS grid across blocks and fit the pooled
models on windows of 1,640 rows and more. Each test reruns its
campaign and compares the manifest's ``files`` list (path, sha256,
bytes, in order), the exit code and stdout with the recorded ones,
then checks that ``driftcast report`` re-renders the same report bytes
from the stored traces.

The bytes depend on the numpy version, the BLAS build and the CPU's
SIMD extensions, so the recorded environment is stored beside the
digests; elsewhere the tests skip and name the difference. A change
that means to alter output bytes records the digests again in the same
commit (``python tests/test_golden.py``) and says why.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from driftcast.cli import SEED_ENV_VAR, main, preset_config

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"

# name -> (preset, config override, DRIFTCAST_SEED or None)
CAMPAIGNS = {
    "desk_seed7_weights": ("desk", {"output": {"weight_traces": True}}, "7"),
    "failure_paths": (
        None,
        {
            "simulate": {
                "sudden": {"n_series": 12, "series_length": 260, "train_len": 200, "burn_in": 50, "base_seed": 606}
            },
            "methods": [{"name": "GDW", "eta": 0.5}, {"name": "ECW"}, {"name": "Oracle"}, {"name": "AR3_All"}],
            "evaluate": {"horizon": 60, "block_size": 20},
            "output": {"weight_traces": True},
        },
        None,
    ),
    "paper_length": (
        None,
        {
            **preset_config("paper"),
            "simulate": {kind: dict(preset_config("paper")["simulate"][kind], n_series=8) for kind in ("sudden", "incremental")},
        },
        None,
    ),
}


def environment() -> dict:
    """What the output bytes depend on besides the code."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd": config["SIMD Extensions"]["found"],
    }


def run_command(name: str, command: str, out: Path) -> tuple:
    """Run ``driftcast <command>`` for campaign ``name`` into ``out``,
    with the campaign's seed; its exit code and stdout."""
    preset, override, seed = CAMPAIGNS[name]
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps(override), encoding="utf-8")
    argv = [command, "--config", str(config), "--out", str(out)] + (["--preset", preset] if preset else [])
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        if seed is None:
            mp.delenv(SEED_ENV_VAR, raising=False)
        else:
            mp.setenv(SEED_ENV_VAR, seed)
        exit_code = main(argv)
    return exit_code, stdout.getvalue()


def run_campaign(name: str, out: Path) -> dict:
    """Exit code, stdout and the manifest's ``files`` list of a run."""
    exit_code, stdout = run_command(name, "run", out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return {"exit_code": exit_code, "stdout": stdout, "files": manifest["files"]}


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = environment()
    differ = {key: (recorded["environment"].get(key), value) for key, value in here.items() if recorded["environment"].get(key) != value}
    if differ:
        pytest.skip(f"outputs were recorded on another environment; (recorded, here): {differ}")
    return recorded["campaigns"]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_outputs_match_golden_digests(name, golden, tmp_path):
    out = tmp_path / "out"
    assert run_campaign(name, out) == golden[name]

    reports = {entry["path"]: entry["sha256"] for entry in golden[name]["files"] if entry["path"].startswith("reports/")}
    for path in reports:
        (out / path).unlink()
    assert run_command(name, "report", out)[0] == 0
    rendered = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest() for path in (out / "reports").iterdir()}
    assert rendered == reports


def record() -> None:
    """Rerun every campaign and write its outputs to the golden file."""
    campaigns = {}
    for name in sorted(CAMPAIGNS):
        with tempfile.TemporaryDirectory() as tmp:
            campaigns[name] = run_campaign(name, Path(tmp) / "out")
    GOLDEN.parent.mkdir(exist_ok=True)
    document = {"environment": environment(), "campaigns": campaigns}
    GOLDEN.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
