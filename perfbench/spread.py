"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload std-d512 --seeds 1-10
    python3 perfbench/spread.py --workload std-d512 --seeds 1-3 --trace 1

Each seed runs ``perfbench/run.py`` in a fresh process, one after another.
For every metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the distance between the quartiles as a share of
the median.  Results go to ``perfbench/out/spread-<workload>-t<trace>.json``.
A traced set is also compared with the untraced set of the same workload,
if one was saved: the tracing overhead per end-to-end metric, and the share
of each phase's untraced wall time that the per-layer self times cover.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["phases"] = {m[1]: float(m[2]) for m in
                        (re.match(r"phase (\S+): (\S+) s", line) for line in lines) if m}
    result["traced"] = {m[1]: float(m[2]) for m in
                        (re.match(r"traced metric (\S+) = (\S+)", line) for line in lines)
                        if m}
    result["coverage"] = {m[1]: float(m[2]) for m in
                          (re.match(r"coverage phase\.(\S+): \S+ s traced, layer self "
                                    r"time (\S+) s", line) for line in lines) if m}
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runs = []
    for seed in _seeds(args.seeds):
        result = _run(args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} phases={result['phases']}", flush=True)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spread-{args.workload}-t{args.trace}.json"
    path.write_text(json.dumps(runs, indent=1))

    print(f"{args.workload}, {len(runs)} seeds, trace {args.trace}")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, entry in runs[0]["metrics"].items():
        median, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
        print(f"{name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {entry['unit']}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share of attempted, per run: {sorted(shares)}")

    untraced_path = OUT / f"spread-{args.workload}-t0.json"
    if args.trace and untraced_path.exists():
        untraced = json.loads(untraced_path.read_text())
        print("tracing overhead: traced median minus untraced median")
        for name in runs[0]["traced"]:
            traced = statistics.median(r["traced"][name] for r in runs)
            plain = statistics.median(r["metrics"][name]["value"] for r in untraced)
            print(f"  {name:30s} {traced:12.6g} - {plain:12.6g} = {traced - plain:+.6g} "
                  f"({(traced - plain) / plain:+.1%})")
        print("per-layer self time as a share of the untraced phase wall time")
        for phase in runs[0]["coverage"]:
            covered = statistics.median(r["coverage"][phase] for r in runs)
            wall = statistics.median(r["phases"][phase] for r in untraced)
            print(f"  {phase:20s} {covered:9.3f} s of {wall:9.3f} s ({covered / wall:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
