"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. Runs
are made one after another, never in parallel. `--out` writes the same
figures, with every value and the environment, as a JSON baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list, bound=None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / median if median else 0.0, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    report, env = {}, None
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            env = env or next((json.loads(line.split(None, 1)[1]) for line in lines
                               if line.startswith("env ")), None)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            runs.append(json.loads(lines[-1])["metrics"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1].items()), flush=True)
        if len(runs) < 2:
            continue
        report[workload] = {m["name"]: summary([r[m["name"]]["value"] for r in runs],
                                               m.get("bound")) for m in metrics}
    for workload, table in report.items():
        print(f"\n{workload}: {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, s in table.items():
            flag = ""
            if "bound" in s:
                flag = "OVER" if s["spread"] > s["bound"] else (
                    "wide" if s["spread"] > s["bound"] / 3 else "")
            print(f"{'':<{len(workload) + 2}}{name:<26} {s['median']:>12.4f} {s['q1']:>12.4f} "
                  f"{s['q3']:>12.4f} {s['spread']:>7.4f} {s.get('bound', ''):>6} {flag}")
    if args.out:
        args.out.write_text(json.dumps({"environment": env, "seeds": args.seeds,
                                        "run_seconds": args.seconds, "trace": args.trace,
                                        "workloads": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
