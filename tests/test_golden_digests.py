"""Golden master: the shipped configs' artifacts, digested, against a committed reference.

golden_digests.txt holds, for every (experiment, config, worker count) at
--paths 300 and for the multi-chunk experiments at --paths 8193, the line
scripts/artifact_digests.py prints: the exit code and one sha256 over every
artifact.  A change that moves artifact bytes regenerates the file in the
same diff and says which lines moved and why:

    PYTHONPATH=src python tests/test_golden_digests.py > tests/golden_digests.txt

Digests depend on numpy's and Python's float formatting and math, so the
file names the versions it was made with, and on any other the test fails
rather than compare.
"""

import importlib.util
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from futopt.config import EXPERIMENTS, load_config
from futopt.experiments import run_experiment

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "golden_digests.txt"
REGENERATE = "PYTHONPATH=src python tests/test_golden_digests.py > tests/golden_digests.txt"

_spec = importlib.util.spec_from_file_location("artifact_digests", ROOT / "scripts" / "artifact_digests.py")
_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_script)

CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
#: --paths 8193 puts one path in a second chunk: every experiment that merges chunks.
RUNS = {
    300: [(config, name) for config in CONFIGS for name in EXPERIMENTS],
    8193: [(ROOT / "configs" / config, name) for config in ("daily_backtest.yaml", "two_asset_measure.yaml")
           for name in ("backtest", "verify-measure", "optimality-probe")],
}


def _versions() -> str:
    return f"python {platform.python_version()}, numpy {np.__version__}"


def digest_lines(out: Path, setenv) -> list[str]:
    """Run every reference run in process, in the script's order, and digest it."""
    lines = []
    for paths, runs in RUNS.items():
        lines.append(f"--paths {paths}")
        for config, name in runs:
            for workers in (1, 2):
                setenv("FUTOPT_WORKERS", str(workers))
                run_dir = out / str(paths) / config.stem / name / f"w{workers}"
                cfg = load_config(config)
                cfg.experiment = name
                status = run_experiment(cfg, out_dir=run_dir, n_paths=paths).status
                lines.append(f"{name} {config.name} workers={workers} exit={status} "
                             f"{_script.artifact_digest(run_dir)}")
    return lines


def test_shipped_artifacts_match_the_golden_digests(tmp_path, monkeypatch):
    lines = REFERENCE.read_text().splitlines()
    made_with = lines[0].removeprefix("# made with ")
    if made_with != _versions():
        pytest.fail(f"{REFERENCE.name} was made with {made_with}, this is {_versions()}: "
                    f"regenerate it on a checkout whose artifacts are known to be right, with {REGENERATE}")
    want = [line for line in lines if not line.startswith("#")]
    got = digest_lines(tmp_path, monkeypatch.setenv)
    moved = [f"{w}  ->  {g}" for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not moved, "artifact bytes moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(Path(tmp), os.environ.__setitem__)
    print(f"# made with {_versions()}")
    print(f"# regenerate: {REGENERATE}")
    print("\n".join(lines))
