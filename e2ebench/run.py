#!/usr/bin/env python3
"""Run one workload of the Graph500 end-to-end benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload sssp-batch64-s13 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Standard output ends with two JSON lines: the
run's provenance (host, versions, git sha, seed, workload parameters,
per-iteration samples, failures), then the result
``{"correct", "attempted", "failed", "metrics"}``.  The program under test
is imported from ``src/`` beside this directory; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level: int) -> int | None:
    try:
        size = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
    except (ValueError, OSError):
        size = 0
    if size > 0:
        return size
    # Virtual machines often hide the sizes from sysconf; sysfs has them.
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if int((index / "level").read_text()) != level:
                continue
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
    return None


def _git_sha() -> str | None:
    # The ceiling keeps git from finding an enclosing repository when the
    # checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(result) -> dict:
    import numpy as np

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "l2_cache_bytes": _cache_bytes(2),
        "l3_cache_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "seed": result.seed,
        "instance_seeds": result.instance_seeds,
        "workload": result.workload.params(),
        "trace": result.trace,
        "samples": result.samples,
        "failures": result.failures,
        "nondeterministic": result.nondeterministic,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        import bench
    except ImportError as exc:
        print(f"e2ebench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"e2ebench: unknown workload {args.workload!r}; "
            f"options: {', '.join(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    result = bench.run_workload(workload, args.seed, args.seconds, bool(args.trace))
    units = bench.LAYER_METRICS if args.trace else bench.E2E_METRICS
    print(json.dumps({"provenance": provenance(result)}))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
