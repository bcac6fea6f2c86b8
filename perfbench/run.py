"""
tuma benchmark: the paper's sweep points timed end to end, or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload crowded --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload bits_sweep --trace 1   # per-layer pass
    python3 perfbench/run.py --workload all                    # every workload
    python3 perfbench/run.py --record-golden   # rewrite golden.json

Every run drives the public tuma.harness.run_sweep API on the tuma package
under src/, checks the output rows (against golden.json, and for sanity at
--seed), prints a table of every metric with its unit and ends with one
JSON line: {"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}.
The exit code is non-zero when any check fails.  A result file with the
machine, library and thread provenance, and for --trace 1 the spans, is
written under perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

# Pinned to 1 before numpy is imported; inherited by pool workers and the
# set-up probes, so processes x threads stays within the CPUs available.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_one(args, workloads):
    """One workload, one pass; prints the table and returns the result."""
    import measure
    from tracing import span_dump

    wl = workloads[args.workload]
    workers = min(wl.workers, measure.cpus())
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[wl.name]
    prov = measure.provenance(workers, THREAD_VARS)
    print(f"workload {wl.name}: {why}")
    print(f"seed {args.seed}, {'traced' if args.trace else 'end-to-end'}, "
          f"{args.seconds:g} s, workers {workers}, threads/process 1, "
          f"cpus {prov['cpus_available']}, git {prov['git_sha'][:12]}"
          + (", tiny" if args.tiny else ""))

    if args.trace:
        tally, metrics, detail, tracers = measure.run_traced(
            wl, args.seed, args.seconds, args.tiny, workers)
    else:
        tally, metrics, detail = measure.run_timed(
            wl, args.seed, args.seconds, args.tiny, workers)
        tracers = []
    failed_frac = tally.failed / max(tally.attempted, 1)
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in declared if m["name"] in metrics}
    print("metrics:")
    for m in declared:
        if m["name"] in metrics:
            print(f"  {m['name']:40s} {metrics[m['name']]:>14.6g} "
                  f"{m['unit']:6s} ({m['better']} is better)")
    print(f"  {'failed_frac':40s} {failed_frac:>14.6g} {'1':6s} "
          f"({tally.failed} of {tally.attempted} decoded trials)")
    if detail.get("layer_self_share"):
        print("layer self-time share of traced trials:")
        for layer, share in detail["layer_self_share"].items():
            print(f"  {layer:40s} {share:>14.1%}")
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": reported}
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "tiny": args.tiny, "provenance": prov,
         **result, "failed_frac": failed_frac, "problems": tally.problems,
         **detail}, indent=1))
    if tracers:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [span for t in tracers for span in span_dump(t)]))
    return result


def run_all(args, workloads):
    """Each workload in its own process, so set-up and peak RSS stay apart."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode or not result.get("correct"):
            summary["correct"] = False
        summary["attempted"] += result.get("attempted", 0)
        summary["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (BENCHMARK.json's "
                             "run_seconds by default)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="two trials per swept value, for the "
                             "benchmark's own tests")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    if not (SRC / "tuma" / "__init__.py").is_file():
        sys.exit(f"tuma sources not found under {SRC}; run from a checkout")
    if not SPEC.is_file():
        sys.exit(f"{SPEC.name} not found at the repository root")
    if args.seed < 0:
        sys.exit("--seed must be nonnegative")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import tuma
    if Path(tuma.__file__).resolve().parent != (SRC / "tuma").resolve():
        sys.exit(f"imported tuma from {tuma.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.record_golden:
        import measure
        measure.record_golden(WORKLOADS)
        print(f"wrote {measure.GOLDEN.relative_to(ROOT)}")
        return
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    if args.workload == "all":
        result = run_all(args, WORKLOADS)
    elif args.workload in WORKLOADS:
        result = run_one(args, WORKLOADS)
    else:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(result))
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
