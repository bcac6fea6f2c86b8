"""
In-memory span tracer for the benchmark's traced pass.

The tracer wraps public tuma functions under the name their caller looks
them up by (tuma.decoders.posterior_moments, tuma.harness.decode, ...), so
spans are recorded from the benchmark's own files and src/tuma stays
untouched.  No private name is wrapped.  Each span records its name,
start, end, parent span and trial id (the id of the enclosing run_trial
span), plus a few counts taken from the call's arguments or result.
Spans stay in memory; the caller writes them out at the end.
"""

import contextlib
import functools
import importlib
import statistics
import time
from collections import Counter, namedtuple

import numpy as np
from tuma.decoders import ALGORITHMS

Span = namedtuple("Span", "id name start end parent trial attrs")

TRIAL = "harness.trial"
POOL = "harness.pool"


class Tracer:
    """Collects spans and per-boundary call counts for one phase."""

    def __init__(self, phase):
        self.phase = phase
        self.spans = []
        self.calls = Counter()  # boundary -> calls recorded
        self._next_id = 0
        self._stack = []
        self._trial = None

    def call(self, boundary, name, describe, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        span_id = self._next_id
        self._next_id += 1
        self.calls[boundary] += 1
        parent = self._stack[-1] if self._stack else None
        outer_trial = self._trial
        trial = span_id if name == TRIAL else outer_trial
        self._stack.append(span_id)
        self._trial = trial
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            error = err
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._trial = outer_trial
            attrs = describe(args, result, error) if describe else {}
            self.spans.append(Span(span_id, name, start, end, parent, trial,
                                   attrs))

    def record(self, boundary, name, start, end):
        """Add a span that was timed outside call (no children)."""
        self.calls[boundary] += 1
        self.spans.append(Span(self._next_id, name, start, end, None, None,
                               {}))
        self._next_id += 1


# -- what each boundary records ---------------------------------------------


def _trial_attrs(args, result, error):
    config, decoder, trial_index = args
    return {"decoder": decoder,
            "scene": [config.n, config.ka, config.ma, config.m,
                      config.snr_db, config.seed, int(trial_index)]}


def _decode_attrs(args, result, error):
    options = args[3]
    report = result if error is None else getattr(error, "report", None)
    attrs = {"algorithm": options.algorithm, "max_iters": options.max_iters,
             "raised": error is not None}
    if report is not None:
        attrs.update(iterations=report.iterations_run,
                     fallback=bool(report.fallback_used),
                     diverged=bool(report.diverged))
    return attrs


def _denoiser_attrs(args, result, error):
    r, _, prior = args
    return {"cells": int(np.size(r)) * (prior.ka + 1)}


def _lp_attrs(args, result, error):
    mu, nu = args[0], args[1]
    return {"cells": int(mu.size) * int(nu.size)}


def _wrap_call(tracer, boundary, name, describe, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(boundary, name, describe, fn, args, kwargs)
    return traced


def _wrap_pool(tracer, boundary, name, describe, pool_class):
    class TracedPool(pool_class):
        """The harness's pool class, recording one span per pool lifetime."""

        def __init__(self, *args, **kwargs):
            self._span_start = time.perf_counter()
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            tracer.record(boundary, name, self._span_start,
                          time.perf_counter())

    return TracedPool


Boundary = namedtuple("Boundary", "module attr span describe wrap")


def _b(module, attr, span, describe=None, wrap=_wrap_call):
    return Boundary(module, attr, span, describe, wrap)


BOUNDARIES = (
    _b("tuma.harness", "run_trial", TRIAL, _trial_attrs),
    _b("tuma.harness", "draw_targets", "scenario.draw_targets"),
    _b("tuma.harness", "assign_sensors", "scenario.assign_sensors"),
    _b("tuma.harness", "true_multiplicity", "scenario.true_multiplicity"),
    _b("tuma.harness", "true_type", "scenario.true_type"),
    _b("tuma.harness", "transmit", "channel.transmit"),
    _b("tuma.channel", "apply", "codebooks.apply"),
    _b("tuma.harness", "decode", "decoders.decode", _decode_attrs),
    _b("tuma.decoders", "posterior_moments", "denoiser.posterior_moments",
       _denoiser_attrs),
    _b("tuma.decoders", "apply", "codebooks.apply"),
    _b("tuma.decoders", "adjoint", "codebooks.adjoint"),
    _b("tuma.decoders", "sq_apply", "codebooks.sq_apply"),
    _b("tuma.decoders", "sq_adjoint", "codebooks.sq_adjoint"),
    _b("tuma.harness", "wasserstein", "metrics.wasserstein", _lp_attrs),
    _b("tuma.harness", "quantization_distortion",
       "metrics.quantization_distortion"),
    _b("tuma.metrics", "wasserstein", "metrics.wasserstein", _lp_attrs),
    _b("tuma.harness", "grid_codebook", "codebooks.grid_codebook"),
    _b("tuma.harness", "hadamard_codebook", "codebooks.hadamard_codebook"),
    _b("tuma.harness", "multiplicity_prior", "denoiser.multiplicity_prior"),
    _b("tuma.harness", "ProcessPoolExecutor", POOL, wrap=_wrap_pool),
)

POOL_ONLY = tuple(b for b in BOUNDARIES if b.span == POOL)


@contextlib.contextmanager
def traced(tracer, boundaries=BOUNDARIES):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for b in boundaries:
            module = importlib.import_module(b.module)
            original = getattr(module, b.attr)
            saved.append((module, b.attr, original))
            setattr(module, b.attr,
                    b.wrap(tracer, f"{b.module}.{b.attr}", b.span,
                           b.describe, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- per-layer metrics -----------------------------------------------------

TRANSFORMS = ("codebooks.apply", "codebooks.adjoint", "codebooks.sq_apply",
              "codebooks.sq_adjoint")


def _dur(span):
    return span.end - span.start


def self_times(spans):
    """Span id -> duration minus the time covered by its direct children."""
    child_time = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += _dur(s)
    return {s.id: _dur(s) - child_time[s.id] for s in spans}


def layer_shares(spans):
    """Self time per layer (span-name prefix) over the traced trials."""
    selves = self_times(spans)
    per_layer = Counter()
    for s in spans:
        if s.trial is not None:
            per_layer[s.name.split(".")[0]] += selves[s.id]
    total = sum(per_layer.values())
    return {layer: t / total for layer, t in per_layer.most_common()}


def summarize(warm, traced_run, pooled, plain_walls, traced_walls,
              pooled_walls, workers):
    """Every per-layer metric, keyed by its BENCHMARK.json name.

    warm        -- tracer of the one-trial warm-up (asset builds)
    traced_run  -- tracer of the traced serial sweeps
    pooled      -- tracer of the pooled sweeps (pool boundary only), or None
    *_walls     -- wall seconds of each cycle's untraced serial, traced
                   serial and untraced pooled sweep (same scenes per cycle)
    """
    spans = traced_run.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(_dur(s) for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    trials = count(TRIAL)
    ms = 1e3 / trials
    selves = self_times(spans)
    out = {}

    denoise = by_name["denoiser.posterior_moments"]
    cells = [s.attrs["cells"] for s in denoise]
    out["denoiser.ms_per_trial"] = total("denoiser.posterior_moments") * ms
    out["denoiser.calls_per_trial"] = len(denoise) / trials
    out["denoiser.ns_per_cell"] = (total("denoiser.posterior_moments")
                                   / sum(cells) * 1e9)
    out["denoiser.peak_cells_per_call"] = max(cells)
    out["denoiser.prior_ms"] = sum(
        _dur(s) for s in warm.spans
        if s.name == "denoiser.multiplicity_prior") * 1e3

    decodes = by_name["decoders.decode"]
    for alg in ALGORITHMS:
        times = [_dur(s) * 1e3 for s in decodes
                 if s.attrs["algorithm"] == alg]
        p50, p90 = np.percentile(times, [50, 90]) if times else (0.0, 0.0)
        out[f"decoders.{alg}.decode_ms_p50"] = float(p50)
        out[f"decoders.{alg}.decode_ms_p90"] = float(p90)
    out["decoders.self_ms_per_trial"] = sum(selves[s.id]
                                            for s in decodes) * ms
    out["decoders.iterations_mean"] = statistics.fmean(
        s.attrs["iterations"] for s in decodes)
    out["decoders.early_stop_frac"] = statistics.fmean(
        s.attrs["iterations"] < s.attrs["max_iters"]
        and not s.attrs["diverged"] for s in decodes)
    out["decoders.fallback_frac"] = statistics.fmean(
        s.attrs["fallback"] for s in decodes)

    lps = by_name["metrics.wasserstein"]
    scenes = {tuple(s.attrs["scene"]) for s in by_name[TRIAL]}
    out["metrics.lp_ms_per_call"] = (total("metrics.wasserstein") * 1e3
                                     / len(lps))
    out["metrics.lp_calls_per_trial"] = len(lps) / trials
    out["metrics.lp_cells_mean"] = statistics.fmean(s.attrs["cells"]
                                                    for s in lps)
    out["metrics.distortion_calls_per_scene"] = (
        count("metrics.quantization_distortion") / len(scenes))

    out["scenario.ms_per_trial"] = sum(
        total(n) for n in by_name if n.startswith("scenario.")) * ms
    out["scenario.scenes_per_trial"] = count("scenario.draw_targets") / trials
    out["channel.ms_per_trial"] = total("channel.transmit") * ms

    out["codebooks.transform_ms_per_trial"] = sum(
        total(n) for n in TRANSFORMS) * ms
    out["codebooks.transform_calls_per_trial"] = sum(
        count(n) for n in TRANSFORMS) / trials
    out["codebooks.build_ms"] = sum(
        _dur(s) for s in warm.spans
        if s.name in ("codebooks.grid_codebook",
                      "codebooks.hadamard_codebook")) * 1e3

    trial_ids = {s.id for s in by_name[TRIAL]}
    layer_time = sum(_dur(s) for s in spans if s.parent in trial_ids)
    out["harness.overhead_ms_per_trial"] = (sum(traced_walls)
                                            - layer_time) * ms
    if pooled is None:
        out["harness.pools_started"] = 0
        out["harness.parallel_efficiency"] = 1.0
    else:
        out["harness.pools_started"] = (
            sum(1 for s in pooled.spans if s.name == POOL) / len(pooled_walls))
        out["harness.parallel_efficiency"] = statistics.median(
            plain / (workers * pool)
            for plain, pool in zip(plain_walls, pooled_walls))
    out["trace.overhead_frac"] = statistics.median(
        trace / plain for trace, plain in zip(traced_walls, plain_walls)) - 1
    return out


def decode_samples(tracer):
    """Traced decode spans per algorithm so far."""
    return Counter(s.attrs["algorithm"] for s in tracer.spans
                   if s.name == "decoders.decode")


def span_dump(tracer):
    """JSON-ready list of one tracer's spans."""
    return [{"phase": tracer.phase, **s._asdict()} for s in tracer.spans]
