"""
Scene generation for type-based unsourced multiple access simulations.

A scene has Ma targets with states drawn on the unit square and Ka sensors,
each observing one target chosen uniformly at random.  The *type* of the
scene is the empirical distribution of the observed target states; the
*multiplicity vector* counts, per quantization cell, how many sensors ended
up reporting that cell.  Weights of empirical measures are kept as integer
counts next to their float normalization so downstream transport problems
can work with exact marginals.
"""

from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """Invalid system configuration or malformed scene data."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _is_pow2(x):
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one simulated system.

    n         -- channel uses (codeword length)
    ka        -- number of sensors (active users)
    ma        -- number of targets
    m         -- quantization codebook size, a power of two (bits = log2(m))
    snr_db    -- per-codeword transmit power P in dB, P = 10**(snr_db/10)
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
        _require(int(self.n) == self.n and self.n >= 1, "n must be a positive integer")
        _require(int(self.ka) == self.ka and self.ka >= 1, "ka must be a positive integer")
        _require(int(self.ma) == self.ma and self.ma >= 1, "ma must be a positive integer")
        _require(int(self.m) == self.m and self.m >= 2 and _is_pow2(self.m),
                 "m must be a power of two, at least 2")
        _require(np.isfinite(self.snr_db), "snr_db must be finite")
        _require(self.p_order >= 1.0, "p_order must be >= 1")
        _require(int(self.max_iters) == self.max_iters and self.max_iters >= 1,
                 "max_iters must be a positive integer")
        _require(int(self.trials) == self.trials and self.trials >= 1,
                 "trials must be a positive integer")
        _require(int(self.seed) == self.seed and self.seed >= 0,
                 "seed must be a nonnegative integer")

    @property
    def bits(self):
        """log2 of the quantization codebook size."""
        return int(self.m).bit_length() - 1


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure on the plane.

    weights   -- (k,) strictly positive, summing to one (within 1e-12)
    locations -- (k, 2) support points
    counts    -- optional (k,) positive integers with weights = counts/sum
    """

    weights: np.ndarray
    locations: np.ndarray
    counts: np.ndarray = field(default=None)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        loc = np.asarray(self.locations, dtype=float)
        _require(w.ndim == 1 and w.size >= 1, "weights must be a nonempty vector")
        _require(loc.shape == (w.size, 2), "locations must be (k, 2)")
        _require(np.all(np.isfinite(w)) and np.all(np.isfinite(loc)),
                 "measure data must be finite")
        _require(np.all(w > 0), "weights must be strictly positive")
        _require(abs(w.sum() - 1.0) <= 1e-12, "weights must sum to one")
        if self.counts is not None:
            c = np.asarray(self.counts)
            _require(c.shape == w.shape and np.issubdtype(c.dtype, np.integer),
                     "counts must be integers matching weights")
            _require(np.all(c >= 1), "counts must be positive")
            c = c.copy()
            c.setflags(write=False)
            object.__setattr__(self, "counts", c)
        w = w.copy()
        loc = loc.copy()
        w.setflags(write=False)
        loc.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "locations", loc)

    @classmethod
    def from_counts(cls, counts, locations):
        """Normalized empirical measure from positive integer counts."""
        c = np.asarray(counts)
        _require(np.issubdtype(c.dtype, np.integer), "counts must be integers")
        _require(c.size >= 1 and np.all(c >= 1), "counts must be positive")
        c = c.astype(np.int64)
        return cls(weights=c / c.sum(), locations=locations, counts=c)

    @property
    def size(self):
        return self.weights.size


def trial_rng(seed, trial_index):
    """Independent random stream for one trial, insensitive to run order."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.default_rng(ss)


def draw_targets(rng, ma):
    """Draw ma target states uniformly on [0,1]^2, shape (ma, 2)."""
    _require(ma >= 1, "ma must be positive")
    return rng.random((ma, 2))


def assign_sensors(rng, ka, ma):
    """Assign each of ka sensors a target index, uniform over range(ma)."""
    _require(ka >= 1 and ma >= 1, "ka and ma must be positive")
    return rng.integers(0, ma, size=ka)


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
    return DiscreteMeasure.from_counts(counts[keep], states[keep])


def true_multiplicity(states, assignment, quantizer):
    """Per-message sensor counts k, shape (m,), sum(k) = ka.

    k_i = number of sensors whose observed target quantizes to cell i.
    """
    from .codebooks import quantize

    states, assignment = _check_scene(states, assignment)
    cells = quantize(quantizer, states)
    return np.bincount(cells[assignment], minlength=quantizer.m).astype(np.int64)
