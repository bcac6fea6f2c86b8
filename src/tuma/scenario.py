"""
Scene generation for type-based unsourced multiple access simulations.

A scene has Ma targets with states drawn on the unit square and Ka sensors,
each observing one target chosen uniformly at random.  The *type* of the
scene is the empirical distribution of the observed target states; the
*multiplicity vector* counts, per quantization cell, how many sensors ended
up reporting that cell.  A type is positive integer counts at points in the
plane; its weights are the counts' normalization, derived from them, so
downstream transport problems work with exact integer marginals.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """Invalid system configuration or malformed scene data."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _is_pow2(x):
    return x > 0 and (x & (x - 1)) == 0


def _whole(value, name, low):
    """value as an int, or ConfigError unless it is a whole number >= low.

    A whole float such as 3.0 is taken as 3; bools are refused.
    """
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    _require(whole and not isinstance(value, bool) and value >= low,
             f"{name} must be a whole number >= {low}")
    return int(value)


def _real(value, name):
    """value, or ConfigError unless it is a real number; bools are refused."""
    _require(isinstance(value, numbers.Real) and not isinstance(value, bool),
             f"{name} must be a real number")
    return value


def snr_from_db(snr_db):
    """Linear power P from its dB value, P = 10**(snr_db/10).

    snr_db must be a real number, not a bool, whose P is a positive finite
    float with a finite reciprocal; anything else raises ConfigError.
    """
    try:
        power = 10.0 ** (float(_real(snr_db, "snr_db")) / 10.0)
    except OverflowError:
        power = math.inf
    _require(0.0 < power < math.inf and 1.0 / power < math.inf,
             "snr_db must give a power P = 10**(snr_db/10) with P and 1/P "
             "positive and finite")
    return power


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one simulated system.

    n         -- channel uses (codeword length)
    ka        -- number of sensors (active users)
    ma        -- number of targets
    m         -- quantization codebook size, a power of two (bits = log2(m))
    snr_db    -- per-codeword transmit power P in dB, P = 10**(snr_db/10);
                 P and 1/P must be positive and finite (see snr_from_db)
    p_order   -- order of the Wasserstein metric used in reports
    max_iters -- decoder iteration cap
    trials    -- Monte Carlo trials per configuration
    seed      -- base seed; trial t uses the (seed, t) stream
    """

    n: int
    ka: int
    ma: int
    m: int
    snr_db: float
    p_order: float = 2.0
    max_iters: int = 10
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n", 1), ("ka", 1), ("ma", 1), ("m", 2),
                          ("max_iters", 1), ("trials", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name,
                                                  low))
        _require(_is_pow2(self.m), "m must be a power of two")
        snr_from_db(self.snr_db)
        _real(self.p_order, "p_order")
        _require(np.isfinite(self.p_order) and self.p_order >= 1.0,
                 "p_order must be finite and >= 1")

    @property
    def bits(self):
        """log2 of the quantization codebook size."""
        return int(self.m).bit_length() - 1


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """A type: positive integer counts at points in the plane.

    counts    -- (k,) positive integers
    locations -- (k, 2) support points
    weights   -- counts / counts.sum(), derived; like the others read-only
    """

    counts: np.ndarray
    locations: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.counts)
        loc = np.asarray(self.locations, dtype=float)
        _require(np.issubdtype(c.dtype, np.integer), "counts must be integers")
        _require(c.ndim == 1 and c.size >= 1 and np.all(c >= 1),
                 "counts must be a nonempty vector of positive integers")
        _require(loc.shape == (c.size, 2), "locations must be (k, 2)")
        _require(np.all(np.isfinite(loc)), "locations must be finite")
        c = c.astype(np.int64)
        loc = loc.copy()
        for name, arr in (("counts", c), ("locations", loc),
                          ("weights", c / c.sum())):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self):
        return self.counts.size


def trial_rng(seed, trial_index):
    """Independent random stream for one trial, insensitive to run order."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.default_rng(ss)


def draw_targets(rng, ma):
    """Draw ma target states uniformly on [0,1]^2, shape (ma, 2)."""
    return rng.random((_whole(ma, "ma", 1), 2))


def assign_sensors(rng, ka, ma):
    """Assign each of ka sensors a target index, uniform over range(ma)."""
    return rng.integers(0, _whole(ma, "ma", 1), size=_whole(ka, "ka", 1))


def _check_scene(states, assignment):
    states = np.asarray(states, dtype=float)
    assignment = np.asarray(assignment)
    _require(states.ndim == 2 and states.shape[1] == 2, "states must be (ma, 2)")
    _require(np.issubdtype(assignment.dtype, np.integer), "assignment must be integer")
    _require(assignment.ndim == 1 and assignment.size >= 1, "assignment must be nonempty")
    _require(assignment.min() >= 0 and assignment.max() < states.shape[0],
             "assignment indices out of range")
    return states, assignment


def true_type(states, assignment):
    """Empirical distribution of the observed target states.

    Target a gets weight (# sensors observing a) / ka; targets observed by
    no sensor are dropped from the support.
    """
    states, assignment = _check_scene(states, assignment)
    counts = np.bincount(assignment, minlength=states.shape[0])
    keep = counts > 0
    return DiscreteMeasure(counts[keep], states[keep])


def true_multiplicity(states, assignment, quantizer):
    """Per-message sensor counts k, shape (m,), sum(k) = ka.

    k_i = number of sensors whose observed target quantizes to cell i.
    """
    from .codebooks import quantize

    states, assignment = _check_scene(states, assignment)
    cells = quantize(quantizer, states)
    return np.bincount(cells[assignment], minlength=quantizer.m).astype(np.int64)
