"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hot_loop --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). The line before it is a JSON report with
the run's metadata, phase accounting and any failed check. The exit
status is 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hot_loop", "adhoc_advise", "retrain")


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def run_metadata(seed: int) -> dict:
    import numpy as np

    inside_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git("rev-parse", "HEAD") if inside_repo else None,
        "git_dirty": (bool(_git("status", "--porcelain", "--", "src"))
                      if inside_repo else None),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"imported repro from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import layers
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    report = {key: value for key, value in result.items()
              if key not in ("metrics", "per_layer")}
    report["workload"] = args.workload
    report["meta"] = run_metadata(args.seed)
    print(json.dumps(report, default=str))
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
