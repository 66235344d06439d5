"""mapclean benchmark: per-frame latency, map memory and removal quality.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): street-stationary, street-driving, crowd-labels.
BENCHMARK.json lists only the first two: on a shared 2-vCPU host the
crowd-labels frame_ms.p50 (13 ms frames) varied by a coefficient of 0.14
between runs, too much for any bound the benchmark may set. It stays
runnable for per-layer work, e.g. as the workload a ground change must
leave alone.
One closed-loop caller drives `OnlinePipeline.process` synchronously, one
frame after the other, in a fresh interpreter (worker.py). The inputs are
generated from the seed and cached under `.perfbench_cache/`, together with
the brute-force oracle's classification; every pipeline the worker builds
must match the oracle voxel for voxel.

With `--trace 0` the last line of output is a JSON object holding the
end-to-end metrics listed in BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics, taken from spans recorded around the calls into each
layer (tracing.py). The lines above it are a readable report: environment,
inputs, every metric with its unit, the tail percentile and sample count.
Exit status is 0 when the outputs are correct, 1 when they are not and 2
when the program or the inputs cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5          # fresh interpreters per run; setup_s is their median
WORKER_TIMEOUT_S = 160
COVERAGE_TOLERANCE_PCT = 5.0


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy
    import mapclean.ground
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    blas = {k: os.environ.get(k, "unset") for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": bool(getattr(mapclean.ground, "HAVE_NUMBA", False)),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": blas, "commit": commit}


def setup_seconds() -> list:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_worker(args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _terminated(signum, _frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps its child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, _terminated)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mapclean" / "__init__.py").is_file():
        return fail(f"no mapclean sources under {ROOT / 'src'}")
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        return fail(f"missing {spec_file}")
    spec = json.loads(spec_file.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.NAMES:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")

    started = perf_counter()
    entry = workloads.Entry(args.workload, args.seed)
    prep = entry.prepare()
    setup = [] if args.trace else setup_seconds()
    raw = run_worker(args)

    failed = raw["failed"]
    correct = failed == 0 and raw["mismatched_pipelines"] == 0
    if args.trace:
        if abs(raw["trace.coverage_pct"] - 100.0) > COVERAGE_TOLERANCE_PCT:
            correct = False
            raw["errors"].append("spans do not account for the process() wall time")
        wanted = spec["per_layer"]
    else:
        raw["setup_s"] = statistics.median(setup)
        raw["completed_frac"] = 1.0 - failed / raw["attempted"]
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload   {args.workload} (seed {args.seed}): {workloads.WHY[args.workload]}")
    print(f"inputs     {raw['frames']} frames, {raw['points_per_frame']:.0f} points/frame, "
          f"cache {prep}")
    print(f"env        {json.dumps(environment())}")
    if args.trace:
        selfs = ", ".join(f"{k} {v:.2f}" for k, v in sorted(raw["self_ms_per_frame"].items()))
        print(f"self ms/frame  {selfs}")
    else:
        print(f"tail       p{raw['tail_percentile']} of {raw['samples']} frames "
              f"({raw['tail_beyond']} beyond) over {raw['reps']} timed passes; "
              f"setup probes {setup}")
    print(f"failed     {failed} of {raw['attempted']} frames "
          f"(failed_frac {failed / raw['attempted']:.4f}); {raw['errors'] or 'no errors'}")
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:>14.4f} {m['unit']}")
    print(f"wall       {perf_counter() - started:.1f} s")
    result = {"correct": correct, "attempted": raw["attempted"], "failed": failed,
              "metrics": metrics}
    log_dir = workloads.CACHE_DIR / "results"
    log_dir.mkdir(parents=True, exist_ok=True)
    (log_dir / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "raw": raw, "prep": prep}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
