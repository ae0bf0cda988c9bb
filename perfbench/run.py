#!/usr/bin/env python3
"""Standing benchmark of the repro fault-injection stack.

Run from the repository root::

    python3 perfbench/run.py --workload neuron-replay --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with tracing off; ``--trace 1`` is the separate traced run that reports
the per-layer metrics.  Detail lines (environment, timing percentiles
with sample counts, perf counts, ``failed_fraction``) and a readable
metric table come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 when every correctness check passed, 1 on a mismatch (the
result line still prints, with ``"correct": false``), 2 when the repro
sources are not next to the benchmark.
"""

import os

# BLAS sizes its thread pool when numpy loads: pin it before any import,
# for this process and every campaign worker it forks.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("neuron-replay", "weight-lanes-par", "sweep-accumulated", "fi-inference")


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: a quick run, not a measurement")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload tiny, traced and untraced, and "
                             "check the metric set and outcome agreement")
    return parser


def _run(args, benchmark):
    from perfbench import harness, runner

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            result = runner.trace(args.workload, args.seed, tmp, tiny=args.tiny)
        else:
            result = runner.measure(args.workload, args.seed, args.seconds, tmp,
                                    tiny=args.tiny)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    failures = list(result.failures)
    names = {m["name"] for m in declared}
    if set(result.metrics) != names:
        failures.append(f"metric set mismatch: missing {sorted(names - set(result.metrics))}, "
                        f"extra {sorted(set(result.metrics) - names)}")
    metrics = {m["name"]: {"value": float(result.metrics[m["name"]]), "unit": m["unit"]}
               for m in declared if m["name"] in result.metrics}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "environment": harness.environment(),
              "failures": failures, **result.detail}
    print(json.dumps({"detail": detail}, default=float))
    for name, entry in metrics.items():
        print(f"# {name:<34} {entry['value']:>16.6g} {entry['unit']}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": int(result.attempted),
                      "failed": int(result.failed), "metrics": metrics}))
    return 0 if correct else 1


def _self_test(benchmark):
    """Run each workload tiny in both modes; check metrics and outcomes."""
    problems = []
    for workload in WORKLOADS:
        known = len(problems)
        lines = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   workload, "--seed", "3", "--seconds", "1", "--trace",
                   str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            out = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not out:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(out[-1])
            lines[trace] = (json.loads(out[0])["detail"], result)
            declared = benchmark["per_layer" if trace else "end_to_end"]
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: {metric['name']} "
                                    f"missing or wrong unit: {got}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: correct is false")
        if len(lines) == 2 and (lines[0][0]["outcome_digest"]
                                != lines[1][0]["outcome_digest"]):
            problems.append(f"{workload}: traced and untraced outcomes differ")
        print(f"self-test {workload}: {'ok' if len(problems) == known else 'FAILED'}",
              flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.self_test:
        return _self_test(benchmark)
    if args.workload is None:
        _parser().error("--workload is required")
    return _run(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
