"""The repository benchmark: one command, four traffic workloads.

Run from the repository root::

    python3 perfbench/run.py --workload replay_zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics (see
``perfbench/README.md``).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  When a correctness gate
fails the run prints the failure to standard error, prints no result
and exits with status 1.  ``--workload all`` runs every workload, each
in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Traced runs write their spans and full reports here.
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("replay_zipf", "http_mixed", "cold_100k", "burst_sharded")


def _stamp(workload: str, seed: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    import importlib

    from layers import PER_LAYER, instrument
    from tracer import Tracer

    tracer = None
    if trace:
        tracer = Tracer()
        instrument(tracer)
    module = importlib.import_module(workload)
    try:
        result = module.run(seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()

    stamp = _stamp(workload, seed, trace)
    print("# " + " ".join(f"{key}={value}" for key, value in stamp.items()))
    for line in result.notes:
        print("# " + line)
    failed_checks = [c for c in result.checks if not c[1]]
    for name, passed, detail in result.checks:
        print(f"# check {'ok  ' if passed else 'FAIL'} {name} ({detail})")
    if failed_checks:
        for name, _, detail in failed_checks:
            print(f"correctness gate failed: {name} ({detail})", file=sys.stderr)
        return 1

    result.extra["failed_frac"] = (result.failed / max(result.attempted, 1), "ratio")
    print("# end-to-end metrics (* = printed only, not gated)")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<26}{value:>16.4f} {unit}")
    for name, (value, unit) in result.extra.items():
        print(f"* {name:<26}{value:>16.4f} {unit}")
    if tracer is not None:
        print("# per-layer metrics (metric, value, unit, moves, on)")
        for name, unit, moves, on in PER_LAYER:
            value = result.layers[name][0]
            print(f"{name:<34}{value:>16.4f} {unit:<6} -> {moves} on {on}")
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    if tracer is not None:
        tracer.dump(str(OUT / f"spans-{tag}.jsonl"))
    chosen = result.layers if trace else result.metrics
    line = {
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }
    (OUT / f"report-{tag}.json").write_text(
        json.dumps(
            {
                "stamp": stamp,
                "result": line,
                "printed_only": result.extra,
                "notes": result.notes,
            },
            indent=1,
        )
    )
    print(json.dumps(line))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=600,
        )
        lines = proc.stdout.splitlines()
        print(f"## {workload}")
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} failed", file=sys.stderr)
            return proc.returncode or 1
        one = json.loads(lines[-1])
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        for name, metric in one["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
