"""Run one benchmark workload of seqrig and print its metrics.

    python3 perfbench/run.py --workload copy-d64 --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
process uses one BLAS thread and imports seqrig from ``src/`` next to this
directory; everything it writes goes under ``perfbench/out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

END_TO_END = {  # name -> unit
    "setup_s": "s", "train_words_per_s": "words/s", "greedy_sents_per_s": "sentences/s",
    "beam5_sents_per_s": "sentences/s", "checkpoint_save_s": "s",
    "checkpoint_load_s": "s", "peak_rss_mb": "MB",
}


def _import_seqrig() -> None:
    src = ROOT / "src"
    if not (src / "seqrig" / "__init__.py").is_file():
        sys.exit(f"error: no seqrig sources at {src}; run from a seqrig checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import seqrig
    if Path(seqrig.__file__).resolve().parent != src / "seqrig":
        sys.exit(f"error: imported seqrig from {seqrig.__file__}, not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40,
                        help="nominal run length; the workloads are sized to it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _import_seqrig()

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    tracer = spans.NullTracer()
    span_cost = 0.0
    if args.trace:
        span_cost = spans.per_span_cost()
        tracer = spans.Tracer(run_id)
        tracer.install()
    work = OUT / run_id
    try:
        run = workloads.run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                     work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for phase, seconds in run.walls.items():
        print(f"phase {phase}: {seconds:.3f} s")
    for kind in workloads.OP_KINDS:
        print(f"ops {kind}: attempted={run.attempted[kind]} failed={run.failed[kind]}")
    for name, ok, detail in run.checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for name, unit in END_TO_END.items():
        if name in run.metrics:
            prefix = "traced " if args.trace else ""
            print(f"{prefix}metric {name} = {run.metrics[name]:.6g} {unit}")
    if args.trace:
        metrics = _report_trace(tracer, span_cost, args.workload, args.seed)
    else:
        metrics = {name: {"value": run.metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in run.metrics}
    print(json.dumps({"correct": all(ok for _, ok, _ in run.checks),
                      "attempted": sum(run.attempted.values()),
                      "failed": sum(run.failed.values()),
                      "metrics": metrics}))
    return 0


def _report_trace(tracer, span_cost: float, workload: str, seed: int) -> dict:
    import spans

    values = tracer.metrics(span_cost)
    for phase, (wall, covered) in tracer.phase_coverage().items():
        share = covered / wall if wall > 0 else 0.0
        print(f"coverage {phase}: {wall:.3f} s traced, layer self time {covered:.3f} s "
              f"({share:.0%})")
    print(f"trace overhead: {values['trace.spans']} spans x {span_cost * 1e6:.2f} us "
          f"= {values['trace.overhead_s']:.3f} s")
    for name, unit, _ in spans.per_layer_metrics():
        print(f"layer {name} = {values[name]:.6g} {unit}")
    tracer.write(OUT / f"spans-{workload}-s{seed}.jsonl")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in spans.per_layer_metrics()}


if __name__ == "__main__":
    sys.exit(main())
