"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ids_corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the run prints every end-to-end metric; with ``--trace 1``
it installs span wrappers and prints every per-layer metric instead.
Human-readable lines (metric, unit, sample count, provenance) come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run
also appends one stamped line to ``perfbench/runs/history.jsonl``,
which ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(HERE, "runs")
HISTORY = os.path.join(RUNS_DIR, "history.jsonl")
WORKLOADS = ("ids_corpus", "unfolded_dense", "served_flows", "cluster_flows")
#: measured, printed and kept in the history, but left out of the
#: result line: not steady enough to gate on (README.md, "Steadiness")
RECORDED_ONLY = ("flow_p90_ms", "flow_p99_ms")


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it;
    exit with a non-zero status when the checkout holds no program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"error: no program sources at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def git_state() -> tuple[str | None, bool | None]:
    """``(sha, dirty)`` of the checkout, ``(None, None)`` outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def src_digest() -> str:
    """SHA-256 over the path and bytes of every file under ``src/``:
    the identity of the measured code, with or without git."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(args: argparse.Namespace, info: dict) -> dict:
    import numpy

    sha, dirty = git_state()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_digest": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "unix_time": time.time(),
        **info,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", choices=("ids_corpus", "unfolded_dense"), metavar="WORKLOAD",
        help="internal: time one cold set-up in this process and print it",
    )
    args = parser.parse_args(argv)
    import_program()
    sys.path.insert(0, HERE)
    import workloads

    if args.setup_probe:
        print(json.dumps({"setup_s": workloads.setup_probe(args.setup_probe)}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RUNS_DIR)
    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = provenance(args, outcome.info)
    for key, value in stamp.items():
        print(f"# {key}: {value}")
    for name, metric in outcome.metrics.items():
        note = "  (recorded, not gated)" if name in RECORDED_ONLY else ""
        print(f"{name:32s} {metric.value:14.6g} {metric.unit:6s} n={metric.samples}{note}")
    print(f"attempted {outcome.attempted}  failed {outcome.failed}")

    record = {
        **stamp,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit, "samples": m.samples}
            for name, m in outcome.metrics.items()
        },
    }
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit}
            for name, m in outcome.metrics.items() if name not in RECORDED_ONLY
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
