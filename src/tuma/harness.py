"""
Monte Carlo harness: single trials, parameter sweeps, CSV reports.

A trial is one scene, simulated once and decoded by every decoder of the
sweep.  Each trial draws its own random stream from (seed, trial_index), so
scenes do not depend on execution order or worker count, and sweeps reuse
the same trial streams at every swept value (common random numbers — scene
draws are paired across values).  A decode can depend on the BLAS thread
count (ep's LAPACK calls round differently on one thread than on two), so
a sweep runs every decode on one BLAS thread, serial or pooled, and its
results do not depend on the worker count.  Diverged decodes contribute
their last finite estimate and are counted in the diverged column.
"""

import csv
import ctypes
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib.util import find_spec
from itertools import islice
from pathlib import Path

import numpy as np

from .scenario import (SystemConfig, _real, _require, _whole, assign_sensors,
                       draw_targets, trial_rng, true_multiplicity, true_type)
from .codebooks import grid_codebook, hadamard_codebook
from .channel import transmit
from .denoiser import multiplicity_prior
from .decoders import (_EP_WORKSPACE_BYTES, ALGORITHMS, DecoderDiverged,
                       DecoderOptions, decode)
from .metrics import (estimated_type, quantization_distortion,
                      total_variation, wasserstein)

CSV_COLUMNS = ("sweep_param", "value", "decoder", "n", "ka", "ma", "bits",
               "snr_db", "trials", "tv_mean", "tv_se", "wp_mean", "wp_se",
               "distortion_mean", "diverged_count", "iterations_mean",
               "fallback_count")

SWEEPABLE = ("ma", "bits", "n", "snr_db")

# The largest sizes a sweep accepts.  amp's memory is bounded in m, and one
# amp trial at n = 500, ka 100, ma 10 took 16 s and 451 MB at MAX_M on a
# 2-CPU VM.  Below n = m an ep decode holds a workspace of
# decoders._EP_WORKSPACE_BYTES per n^2 (tests/test_decoders.py bounds it),
# and MAX_EP_N = 10922 is the largest n whose workspace fits in
# EP_WORKSPACE_BUDGET.
MAX_M = 2**22
EP_WORKSPACE_BUDGET = 2**30
MAX_EP_N = math.isqrt(EP_WORKSPACE_BUDGET // _EP_WORKSPACE_BYTES)


def _check_decoders(decoders):
    _require(not isinstance(decoders, str) and len(decoders) >= 1,
             "decoders must be a nonempty sequence of decoder names")
    names = list(decoders)
    _require(all(names.count(name) == 1 for name in names),
             "decoders must not repeat a name")
    for name in names:
        _require(name in ALGORITHMS, f"unknown decoder {name!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base configuration, a swept field, and decoders to run.

    param may also be "none" (single-point run); values must then be
    (None,).  A swept field takes no None, and ma, n and bits take whole
    numbers only (see derive_config).  Every swept point must fit the size
    envelope: m <= MAX_M and, when ep runs with n < m, n <= MAX_EP_N.
    """

    base: SystemConfig
    param: str = "none"
    values: tuple = (None,)
    decoders: tuple = ("amp",)
    out: str = None

    def __post_init__(self):
        _require(self.param == "none" or self.param in SWEEPABLE,
                 f"param must be 'none' or one of {SWEEPABLE}")
        if self.param == "none":
            _require(tuple(self.values) == (None,),
                     "param 'none' takes values=(None,)")
        else:
            _require(len(self.values) >= 1, "values must be nonempty")
        _check_decoders(self.decoders)
        for value in self.values:
            config = derive_config(self.base, self.param, value)
            _require(config.m <= MAX_M,
                     f"m = 2**{config.bits} exceeds the largest supported "
                     f"m = 2**{MAX_M.bit_length() - 1}")
            if "ep" in self.decoders and config.n < config.m:
                _require(config.n <= MAX_EP_N,
                         f"ep with n = {config.n} < m needs n <= {MAX_EP_N},"
                         f" so that its workspace fits in "
                         f"{EP_WORKSPACE_BUDGET} bytes")


@dataclass(frozen=True)
class TrialResult:
    """Metrics of one scene decoded by one decoder."""

    trial_index: int
    decoder: str
    tv: float
    wp: float
    distortion: float
    iterations_run: int
    diverged: bool
    fallback_used: bool


@lru_cache(maxsize=16)
def _assets(n, ka, ma, m):
    """Quantizer, transmission codebook, and count prior for one geometry."""
    return grid_codebook(m), hadamard_codebook(n, m), multiplicity_prior(ka, ma, m)


def run_trial(config, decoders, trial_index):
    """Simulate one scene and decode it with each decoder in turn.

    The scene, the received signal and the decoder-free distortion are
    computed once; returns one TrialResult per decoder, in order.  The random
    stream depends only on (config.seed, trial_index), so the same trial can
    be reproduced in isolation.
    """
    _check_decoders(decoders)
    rng = trial_rng(config.seed, trial_index)
    quantizer, cb, prior = _assets(config.n, config.ka, config.ma, config.m)
    states = draw_targets(rng, config.ma)
    assignment = assign_sensors(rng, config.ka, config.ma)
    k = true_multiplicity(states, assignment, quantizer)
    received = transmit(cb, k, config.snr_db, rng)
    scene_type = true_type(states, assignment)
    distortion = quantization_distortion(scene_type, k, quantizer,
                                         config.p_order)

    results = []
    for decoder in decoders:
        options = DecoderOptions(algorithm=decoder,
                                 max_iters=config.max_iters)
        try:
            report = decode(received, cb, prior, options)
        except DecoderDiverged as err:
            report = err.report
        estimate = estimated_type(report.k_hat, quantizer)
        wp, _ = wasserstein(scene_type, estimate, config.p_order)
        results.append(TrialResult(
            trial_index=trial_index, decoder=decoder,
            tv=total_variation(k, report.k_hat), wp=wp,
            distortion=distortion, iterations_run=report.iterations_run,
            diverged=report.diverged,
            fallback_used=report.fallback_used))
    return results


def derive_config(base, param, value):
    """Base config with one swept field replaced ('bits' sets m = 2**value).

    ma, n and bits must be whole numbers: 3.0 is taken as 3, and 3.5 or True
    raises ConfigError rather than running as 3 or 1.
    """
    if param == "none":
        return base
    if param == "snr_db":
        return replace(base, snr_db=float(_real(value, param)))
    value = _whole(value, param, 1)
    if param == "bits":
        return replace(base, m=2 ** value)
    return replace(base, **{param: value})


def aggregate(results, config, decoder, param="none", value=None):
    """Mean/SE summary row (dict in CSV_COLUMNS order) for one cell."""
    trials = len(results)
    tvs = [r.tv for r in results]
    wps = [r.wp for r in results]
    dist = [r.distortion for r in results]

    def se(vals):
        if len(vals) < 2:
            return 0.0
        return float(np.std(vals, ddof=1) / np.sqrt(len(vals)))

    return {
        "sweep_param": param,
        "value": "" if value is None else value,
        "decoder": decoder,
        "n": config.n,
        "ka": config.ka,
        "ma": config.ma,
        "bits": config.bits,
        "snr_db": config.snr_db,
        "trials": trials,
        "tv_mean": float(np.mean(tvs)),
        "tv_se": se(tvs),
        "wp_mean": float(np.mean(wps)),
        "wp_se": se(wps),
        "distortion_mean": float(np.mean(dist)),
        "diverged_count": sum(r.diverged for r in results),
        "iterations_mean": float(np.mean([r.iterations_run for r in results])),
        "fallback_count": sum(r.fallback_used for r in results),
    }


# The OpenBLAS builds that the numpy and scipy wheels bundle in their
# <package>.libs directories: file pattern and the suffix of their symbols.
_BUNDLED_OPENBLAS = {"numpy": ("libscipy_openblas64_*.so", "64_"),
                     "scipy": ("libscipy_openblas*.so", "")}


def _bundled_openblas():
    """(library, symbol suffix) of each OpenBLAS in the numpy and scipy wheels.

    A package installed some other way (a source build, conda) has no
    <package>.libs directory and contributes nothing.
    """
    found = []
    for package, (pattern, suffix) in _BUNDLED_OPENBLAS.items():
        site = Path(find_spec(package).origin).parent.parent
        lib_dir = site / f"{package}.libs"
        found += [(ctypes.CDLL(str(path)), suffix)
                  for path in sorted(lib_dir.glob(pattern))]
    return found


def _one_blas_thread(restore=None):
    """Run every bundled OpenBLAS on one thread (pool initializer and serial
    sweeps), or on the counts in restore; returns the counts they had.

    Forked workers keep the parent's BLAS thread count, so each worker's
    LAPACK calls (EP's Cholesky factor and inverse) would spread over every
    CPU and the pool would oversubscribe them; a serial sweep runs on one
    thread too, so that it does the pool's arithmetic.  Only the OpenBLAS
    builds of the numpy and scipy wheels are reached; with a BLAS from
    elsewhere, set OPENBLAS_NUM_THREADS=1 (or that BLAS's own variable)
    before starting.
    """
    libs = _bundled_openblas()
    before = []
    for (lib, suffix), count in zip(libs, restore or [1] * len(libs)):
        symbol = "scipy_openblas_{}_num_threads" + suffix
        get_threads = getattr(lib, symbol.format("get"))
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads = getattr(lib, symbol.format("set"))
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        before.append(get_threads())
        set_threads(count)
    return before


def run_sweep(spec, workers=None, log=None):
    """Run every (value, decoder) cell of a sweep; returns the summary rows.

    Each scene is simulated once and decoded by every decoder, and the whole
    sweep shares one pool of `workers` processes (a whole number >= 1,
    default: the CPU count), capped at the number of scenes.  Every decode
    runs its BLAS on one thread (see _one_blas_thread), in a pool worker or
    in this process, which gets its thread count back afterwards; so the
    results do not depend on the worker count.  When spec.out
    is set, the CSV is written before the first scene and again each time a
    value's scenes are done, so an interrupted run leaves the rows finished
    so far.
    """
    configs = [derive_config(spec.base, spec.param, v) for v in spec.values]
    tasks = [(config, spec.decoders, t)
             for config in configs for t in range(config.trials)]
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(_whole(workers, "workers", 1), len(tasks))
    if spec.out:
        _write_csv(spec.out, [])
    if workers <= 1:
        threads = _one_blas_thread()
        try:
            return _summarize(spec, configs, map(run_trial, *zip(*tasks)),
                              log)
        finally:
            _one_blas_thread(restore=threads)
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_one_blas_thread) as pool:
        return _summarize(spec, configs, pool.map(run_trial, *zip(*tasks)),
                          log)


def _summarize(spec, configs, scenes, log):
    """Rows value by value (decoder inner) from the scenes in task order."""
    rows = []
    for value, config in zip(spec.values, configs):
        per_scene = list(islice(scenes, config.trials))
        for i, decoder in enumerate(spec.decoders):
            rows.append(aggregate([results[i] for results in per_scene],
                                  config, decoder, spec.param, value))
            if log is not None:
                log(rows[-1])
        if spec.out:
            _write_csv(spec.out, rows)
    return rows


def _write_csv(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
