"""Benchmark of besovlab: complete analyses timed end to end, answers checked.

    python3 bench/run.py --workload detect-l2 --seed 1 --seconds 30 --trace 0

Runs one workload in fresh worker processes, one at a time, with BLAS and
OpenMP capped at one thread.  With --trace 0 it sets up three times (two
set-up-only workers and the measuring worker) and reports the median set-up
time with the measuring worker's end-to-end metrics.  With --trace 1 one
worker reports the per-layer metrics of a traced pass.  Every metric is
printed by name with its unit; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Times are at a reference
host speed (see worker.py); the wall-clock figures are printed beside them.
The full record (provenance, failures, answer digest, wall times and the
host-speed scales) is written to bench/out/.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BUDGET_S = 170.0  # the whole run ends within 180 s
SETUP_REPEATS = 3
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
import spec  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args, role, deadline):
    env = dict(os.environ, **{k: "1" for k in THREAD_CAPS})
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--role", role, "--out", str(OUT),
    ]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} worker exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} worker printed no result")
    return json.loads(lines[-1])


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(out.stdout) if out.returncode == 0 and out.stdout.strip().isdigit() else None


def _commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: no history to name
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    return out.stdout.strip() if out.returncode == 0 else None


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(args):
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "seed": args.seed,
        "commit": _commit(),
        "thread_caps": {k: "1" for k in THREAD_CAPS},
    }


def measure(args):
    """Run the workers and return (record, metrics by name)."""
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        workers = [_worker(args, "trace", deadline)]
        metrics = workers[0]["metrics"]
        names = [m[0] for m in spec.PER_LAYER]
    else:
        workers = [_worker(args, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
        workers.append(_worker(args, "run", deadline))
        metrics = dict(workers[-1]["metrics"])
        metrics["setup_s"] = statistics.median(w["setup_s"] for w in workers)
        names = [m[0] for m in spec.END_TO_END]
    last = workers[-1]
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, whole mix blocks",
        "provenance": provenance(args),
        "setup_s_each": [w["setup_s"] for w in workers],
        "setup_wall_s_each": [w["setup_wall_s"] for w in workers],
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "failures": [f for w in workers for f in w["failures"]],
        **{k: v for k, v in last.items() if k not in ("metrics", "attempted", "failed", "failures")},
    }
    return record, {n: metrics[n] for n in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "besovlab").is_dir():
        print(f"bench: no besovlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, metrics = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    units = {m[0]: m[1] for m in spec.END_TO_END + [p[:3] for p in spec.PER_LAYER]}
    correct = record["failed"] == 0 and record.get("answers_identical", True)
    prov = record["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  {record['loop']}  samples {record['samples']}")
    print("  " + "  ".join(f"{k} {prov[k]}" for k in ("python", "numpy", "scipy", "nproc", "l2_bytes", "l3_bytes", "commit")))
    print("  mix " + ", ".join(f"{k} {v:.1%}" for k, v in record["mix"].items()))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if "wall" in record:
        wall = record["wall"]
        deciles = statistics.quantiles(record["speed_scales"], n=10)
        scales = (deciles[0], deciles[4], deciles[8])
        print("  wall clock: " + "  ".join(f"{k} {v:.6g}" for k, v in wall.items())
              + f"  setup_s {statistics.median(record['setup_wall_s_each']):.6g}"
              + "  host-speed scale p10/p50/p90 " + "/".join(f"{x:.3f}" for x in scales))
    print(f"  error_ratio = {record['failed']}/{record['attempted']}")
    for f in record["failures"]:
        print(f"  FAILED {f}")
    if "digest" in record:
        print(f"  answer digest of the first {record['digest_covers']} analyses = {record['digest']}")
    if args.trace:
        print(f"  traced answers identical to untraced: {record['answers_identical']}")
        for m in record["count_mismatches"]:
            print(f"  COUNT {m}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "metrics": metrics, "correct": correct}, indent=1) + "\n")
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
