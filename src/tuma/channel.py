"""
Gaussian multiple-access channel.

All sensors holding message i transmit the same codeword, so the received
word is y = sqrt(n P) C k + z with k the multiplicity vector, z ~ N(0, I_n),
and P the per-codeword transmit power (linear).  Each transmitted codeword
sqrt(n P) c_i meets the power constraint ||x||^2 = n P exactly because the
codewords have unit norm.
"""

from dataclasses import dataclass

import numpy as np

from .scenario import _real, _require
from .codebooks import apply


def snr_from_db(snr_db):
    """Linear power P from its dB value, P = 10**(snr_db/10)."""
    _require(np.isfinite(_real(snr_db, "snr_db")), "snr_db must be finite")
    return 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True, eq=False)
class ReceivedSignal:
    """Channel output y (length n) plus the power it was produced with."""

    y: np.ndarray
    power: float  # linear per-codeword power P

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        _require(y.ndim == 1 and y.size >= 1, "y must be a nonempty vector")
        _require(np.all(np.isfinite(y)), "y must be finite")
        _require(self.power > 0, "power must be positive")
        y = y.copy()
        y.setflags(write=False)
        object.__setattr__(self, "y", y)


def transmit(cb, k, snr_db, rng):
    """Send multiplicity vector k through the Gaussian MAC.

    y = sqrt(n P) C k + z, z ~ N(0, I_n).
    """
    k = np.asarray(k)
    _require(k.shape == (cb.m,), "k must have one entry per message")
    _require(np.issubdtype(k.dtype, np.integer) and np.all(k >= 0),
             "k must be nonnegative integer counts")
    power = snr_from_db(snr_db)
    y = np.sqrt(cb.n * power) * apply(cb, k.astype(float))
    return ReceivedSignal(y=y + rng.standard_normal(cb.n), power=power)
