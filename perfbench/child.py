"""Run one futopt CLI experiment in this fresh process and report on it.

run.py starts this script once per sample, with ``PYTHONPATH`` pointing at
the checkout's ``src`` and the worker and BLAS thread counts already set in
the environment.  It prints the CLI's own output, then one JSON line with
the set-up time, the wall time of ``futopt.cli.main``, peak RSS, an artifact
digest and, when traced, the per-layer metrics.

``--experiment`` empty means set-up only: import futopt, load the config and
stop, which gives run.py extra set-up samples cheaply.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path


def artifact_digest(out: Path) -> tuple[str, dict[str, int]]:
    """sha256 over every artifact's name and bytes, manifest minus created_at."""
    h = hashlib.sha256()
    sizes = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        data = path.read_bytes()
        sizes[rel] = len(data)
        if rel == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("created_at", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), sizes


def environment(futopt, cfg) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "futopt": futopt.__version__,
        "workers": futopt.montecarlo.resolve_workers(cfg.mc.workers),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--experiment", default="")
    parser.add_argument("--seed-offset", type=int, default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's perf_counter() just before starting this process")
    args = parser.parse_args()

    import futopt
    import futopt.cli
    import futopt.config

    src = Path(args.root, "src").resolve()
    if src not in Path(futopt.__file__).resolve().parents:
        raise SystemExit(f"futopt imported from {futopt.__file__}, not from {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = futopt.config.load_config(Path(args.root, args.config))
    setup_s = time.perf_counter() - args.t0   # CLOCK_MONOTONIC, shared across processes
    report = {"setup_s": setup_s, "env": environment(futopt, cfg)}

    if args.experiment:
        seed = cfg.mc.seed + args.seed_offset
        argv = [args.experiment, "--config", str(Path(args.root, args.config)),
                "--seed", str(seed), "--out", args.out]
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = futopt.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            report["error"] = traceback.format_exc()
        report["wall_s"] = time.perf_counter() - start
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["exit"] = code
        report["lines"] = buf.getvalue().splitlines()
        report["digest"], report["artifacts"] = artifact_digest(Path(args.out))
        if tracer is not None:
            report["layers"] = tracer.metrics(Path(args.out))

    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
