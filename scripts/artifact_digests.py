#!/usr/bin/env python3
"""Digest the artifacts of every experiment on every shipped config, at 1 and 2 workers.

Example:

    python scripts/artifact_digests.py --out out/digests --paths 300 > digests.txt

Each (experiment, config, worker count) runs the CLI in a fresh process with
FUTOPT_WORKERS set, into its own directory under --out, and prints one line:
the exit code and one sha256 over every artifact's name and bytes, with
created_at removed from manifest.json (the one field a rerun may change).
It is the digest perfbench prints.  Two checkouts wrote the same artifacts
when `diff` finds no difference between their outputs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import futopt
from futopt.config import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]


def artifact_digest(out: Path) -> str:
    """sha256 over every artifact's name and bytes, manifest minus created_at."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        data = path.read_bytes()
        if rel == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("created_at", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, type=Path, help="parent directory for the runs' artifacts")
    ap.add_argument("--paths", type=int, default=None, help="override mc.n_paths in every run")
    ap.add_argument("--config", action="append", type=Path, default=None,
                    help="scenario YAML, repeatable (default: every configs/*.yaml)")
    args = ap.parse_args()

    configs = args.config or sorted((ROOT / "configs").glob("*.yaml"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(futopt.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    for config in configs:
        for name in EXPERIMENTS:
            for workers in (1, 2):
                run_dir = args.out / config.stem / name / f"w{workers}"
                if run_dir.exists() and any(run_dir.iterdir()):
                    print(f"error: {run_dir} is not empty; give a new --out", file=sys.stderr)
                    return 2
                cmd = [sys.executable, "-m", "futopt", name, "--config", str(config), "--out", str(run_dir)]
                if args.paths is not None:
                    cmd += ["--paths", str(args.paths)]
                proc = subprocess.run(cmd, env={**env, "FUTOPT_WORKERS": str(workers)},
                                      capture_output=True, text=True)
                digest = artifact_digest(run_dir) if run_dir.exists() else "-"
                print(f"{name} {config.name} workers={workers} exit={proc.returncode} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
