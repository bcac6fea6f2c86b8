"""
The benchmark's measuring passes over one workload.

run_timed is the end-to-end pass (tracing off); run_traced is the per-layer
pass.  Both drive tuma.harness.run_sweep, check every sweep's rows and run
the golden check.  Import this module only after the BLAS/OpenMP thread
variables are pinned (run.py does so), because it imports numpy.
"""

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy
import scipy
from tuma.harness import run_sweep

from tracing import (POOL_ONLY, Tracer, decode_samples, layer_shares,
                     summarize, traced)
from workloads import COMMON_BOUNDARIES, rep_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

# Golden rows must match to the ROADMAP's 1e-12 bar for refactors.  The
# means are of values in [0, 1] over a handful of trials, so honest
# re-orderings of floating-point work stay around 1e-16; anything larger
# means a decoded estimate or a transport plan changed.
TOLERANCE = 1e-12
GOLDEN_FIELDS = ("tv_mean", "wp_mean", "distortion_mean")

SETUP_PROBES = 5
MIN_DECODE_SAMPLES = 100  # p90 with at least ten samples beyond it
TRACE_TIME_CAP = 120.0    # seconds; keeps a traced run within its limit


def cpus():
    return len(os.sched_getaffinity(0))


def git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(workers, thread_vars):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "system": f"{platform.system()} {platform.release()}",
        "machine": platform.machine(),
        "cpus_available": cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in thread_vars},
        "workers": workers,
        "git_sha": git_sha(),
    }


class Tally:
    """Decoded trials attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, trials, problem):
        self.failed += trials
        self.problems.append(problem)


def expected_trials(spec):
    return len(spec.values) * len(spec.decoders) * spec.base.trials


def _row_key(row):
    return f"{row['value']}/{row['decoder']}"


def check_rows(rows, spec, reference, tally, label):
    """Sanity-check one sweep's rows; rows must equal reference if given."""
    for i, row in enumerate(rows):
        bad = []
        if row["trials"] != spec.base.trials:
            bad.append("trial count")
        if row["diverged_count"]:
            bad.append(f"{row['diverged_count']} diverged")
        if not all(math.isfinite(row[f]) for f in GOLDEN_FIELDS):
            bad.append("non-finite mean")
        elif not (0.0 <= row["tv_mean"] <= 1.0 and row["wp_mean"] >= 0.0
                  and row["distortion_mean"] >= 0.0):
            bad.append("mean out of range")
        if reference is not None and row != reference[i]:
            bad.append("differs from the untraced sweep of these scenes")
        if bad:
            tally.fail(row["trials"], f"{label} row {_row_key(row)}: "
                                      + ", ".join(bad))


def sweep(spec, workers, tally, label, reference=None):
    """One run_sweep call; (wall seconds, rows), or None if it raised."""
    tally.attempted += expected_trials(spec)
    start = time.perf_counter()
    try:
        rows = run_sweep(spec, workers=workers)
    except Exception:  # a failed sweep is reported, never fatal
        tally.fail(expected_trials(spec),
                   f"{label} raised:\n{traceback.format_exc()}")
        return None
    wall = time.perf_counter() - start
    check_rows(rows, spec, reference, tally, label)
    return wall, rows


def golden_check(wl, workers, tally):
    """Compare the golden sweep with golden.json; returns its rows."""
    recorded = json.loads(GOLDEN.read_text())[wl.name]
    spec = wl.golden_spec()
    outcome = sweep(spec, workers, tally, "golden sweep")
    if outcome is None:
        return None
    rows = outcome[1]
    if [_row_key(r) for r in rows] != [_row_key(r) for r in recorded]:
        tally.fail(expected_trials(spec), "golden sweep: rows differ in shape")
        return rows
    for row, want in zip(rows, recorded):
        off = [f for f in GOLDEN_FIELDS
               if abs(row[f] - want[f]) > TOLERANCE * max(1.0, abs(want[f]))]
        off += [f for f in ("diverged_count", "trials") if row[f] != want[f]]
        if off:
            tally.fail(row["trials"], f"golden row {_row_key(row)} differs in "
                       + ", ".join(f"{f} ({row[f]!r} vs {want[f]!r})"
                                   for f in off))
    return rows


def record_golden(workloads):
    """Rewrite golden.json from the current tuma."""
    keep = ("value", "decoder", "trials", "tv_mean", "wp_mean",
            "distortion_mean", "diverged_count")
    golden = {}
    for wl in workloads.values():
        rows = run_sweep(wl.golden_spec(), workers=min(wl.workers, cpus()))
        golden[wl.name] = [{k: row[k] for k in keep} for row in rows]
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


def peak_rss_mb():
    """Largest resident set of this process and its waited-for children.

    The children are the pool workers and the set-up probes; a probe only
    imports tuma and builds assets, which stays below the sweeps' peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_probe(geometries):
    """Set-up seconds measured in one fresh process (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
         json.dumps([list(g) for g in geometries])],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def run_timed(wl, seed, seconds, tiny, workers):
    """End-to-end pass: warm-up, timed sweeps for seconds, golden check.

    Returns (tally, metrics, detail).  The set-up probes run between timed
    sweeps, spread over the run, so that they sample the machine's load as
    the sweeps do.
    """
    tally = Tally()
    trials = 2 if tiny else wl.trials
    probes = 2 if tiny else SETUP_PROBES
    geometries = wl.geometries()
    sweep(wl.spec(seed, 1), workers, tally, "warm-up")
    walls, setup_times, first_rows = [], [], None
    while not walls or sum(walls) < seconds:
        spec = wl.spec(rep_seed(seed, len(walls)), trials)
        outcome = sweep(spec, workers, tally, f"timed sweep {len(walls)}")
        if outcome is None:
            break
        walls.append(outcome[0])
        first_rows = first_rows or outcome[1]
        if len(setup_times) < probes * min(1.0, sum(walls) / seconds):
            setup_times.append(setup_probe(geometries))
    while len(setup_times) < probes:
        setup_times.append(setup_probe(geometries))
    golden = golden_check(wl, workers, tally)
    metrics = {"setup_s": statistics.median(setup_times),
               "peak_rss_mb": peak_rss_mb()}
    if walls:
        metrics["trials_per_s"] = statistics.median(
            expected_trials(spec) / w for w in walls)
    if golden:
        metrics["tv_mean"] = statistics.fmean(r["tv_mean"] for r in golden)
        metrics["wp_mean"] = statistics.fmean(r["wp_mean"] for r in golden)
    detail = {"sweep_walls_s": walls, "setup_times_s": setup_times,
              "rows": first_rows, "golden_rows": golden,
              "decoded_trials_per_sweep": expected_trials(spec)}
    return tally, metrics, detail


def run_traced(wl, seed, seconds, tiny, workers):
    """Per-layer pass; returns (tally, metrics, detail, tracers).

    Each cycle runs one sweep of fresh scenes untraced and then traced, both
    serial, and for pooled workloads once more on the pool with only the
    pool class wrapped.  Cycles repeat until seconds have passed and every
    decoder has MIN_DECODE_SAMPLES traced decodes.
    """
    tally = Tally()
    trials = 2 if tiny else wl.trials
    need = 0 if tiny else MIN_DECODE_SAMPLES
    warm = Tracer("warmup")
    with traced(warm):
        sweep(wl.spec(seed, 1), 1, tally, "warm-up")
    traced_run = Tracer("traced")
    pooled = Tracer("pooled") if workers > 1 else None
    plain_walls, traced_walls, pooled_walls = [], [], []
    start = time.perf_counter()
    while True:
        spec = wl.spec(rep_seed(seed, len(plain_walls)), trials)
        outcome = sweep(spec, 1, tally, "untraced sweep")
        if outcome is None:
            break
        plain_walls.append(outcome[0])
        reference = outcome[1]
        with traced(traced_run):
            outcome = sweep(spec, 1, tally, "traced sweep", reference)
        if outcome is None:
            break
        traced_walls.append(outcome[0])
        if pooled is not None:
            with traced(pooled, POOL_ONLY):
                outcome = sweep(spec, workers, tally, "pooled sweep",
                                reference)
            if outcome is None:
                break
            pooled_walls.append(outcome[0])
        elapsed = time.perf_counter() - start
        samples = decode_samples(traced_run)
        if elapsed >= TRACE_TIME_CAP or (
                elapsed >= seconds
                and min(samples[d] for d in wl.decoders) >= need):
            break
    golden_check(wl, workers, tally)

    tracers = [warm, traced_run] + ([pooled] if pooled else [])
    calls = sum((t.calls for t in tracers), Counter())
    silent = [b for b in COMMON_BOUNDARIES + wl.must_fire if not calls[b]]
    if silent:
        tally.problems.append("trace coverage: no calls recorded at "
                              + ", ".join(silent))
    samples = decode_samples(traced_run)
    if any(samples[d] < need for d in wl.decoders):
        tally.problems.append(f"fewer than {need} traced decodes per "
                              f"decoder: {dict(samples)}")
    metrics, shares = {}, {}
    if not tally.problems:
        metrics = summarize(warm, traced_run, pooled, plain_walls,
                            traced_walls, pooled_walls, workers)
        shares = layer_shares(traced_run.spans)
    detail = {"untraced_walls_s": plain_walls, "traced_walls_s": traced_walls,
              "pooled_walls_s": pooled_walls, "layer_self_share": shares,
              "decode_samples": dict(samples),
              "boundary_calls": dict(sorted(calls.items()))}
    return tally, metrics, detail, tracers
