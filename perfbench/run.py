#!/usr/bin/env python3
"""Pipeline benchmark for kgdial: runs one workload in-process, checks its
outputs and prints its metrics.

    python3 perfbench/run.py --workload decode-short --seed 0 --seconds 10 --trace 0

Workloads: decode-short, decode-long, train (see README.md). Run from any
directory; the program under test is the src/ next to this directory, and
everything the run writes goes under .bench_build/ there. The report goes
to stdout; its last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json, or with
--trace 1 its per-layer metrics. Exit codes: 0 ok, 1 correctness gate
failed, 2 the program or BENCHMARK.json is missing or an argument is bad.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# the models are single-threaded; pin BLAS/OpenMP pools so runs on a shared
# machine do not contend with themselves (recorded with the results)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decode-short", "decode-long", "train"))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed, >= 0: train on synth seed 5+n, "
                             "decode synth seed 6+n")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement budget; sets the input size")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kgdial" / "__init__.py").is_file():
        print(f"perfbench: no kgdial source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    import workloads

    bench = workloads.Bench(ROOT, ROOT / ".bench_build")
    outcome = workloads.run_workload(bench, args.workload, args.seed,
                                     args.seconds, bool(args.trace))
    declared = declared_metrics(bool(args.trace))
    values = outcome.layers if args.trace else outcome.metrics
    if outcome.correct and set(values) != {m["name"] for m in declared}:
        print(f"perfbench: measured {sorted(values)} but BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    environment = workloads.environment(bench)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6f} {metric['unit']}")
    for name, value in outcome.report.items():
        print(f"  {name:<44} {value}")
    print(f"  operations attempted {outcome.attempted}, failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"  CORRECTNESS GATE FAILED: {problem}")

    results = bench.build / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "correct": outcome.correct,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "problems": outcome.problems, "metrics": metrics,
              "report": outcome.report}
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
