"""
Marginal multiplicity prior and scalar posterior computations.

The number of targets quantizing to a given cell is Bin(ma, 1/m); given m'
targets there, each of the ka sensors reports the cell with probability
m'/ma, so the per-message multiplicity follows the binomial mixture

    p(k) = sum_{m'=0}^{ma} Bin(m'; ma, 1/m) Bin(k; ka, m'/ma).

The decoders see each coordinate through an effective scalar observation
r = k + N(0, xi).  posterior_moments returns the tilted mean f and
variance g of that model, evaluated over the prior's support only (counts
with zero prior mass get exactly zero weight).  The log-weights are shifted
by their maximum, so small xi does not overflow, and floored at
_LOG_WEIGHT_FLOOR before exponentiation (see there).  The variance is the
centered second moment (no cancellation).  Coordinates are processed in
blocks of about _BLOCK_CELLS (coordinate, count) cells, so memory is
O(m + block) rather than O(m (ka + 1)).  The derivative of the
tilted mean obeys the exponential-family identity f'(r) = g(r) / xi.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from .scenario import _require, _whole

XI_FLOOR = 1e-12  # effective noise variances are clamped below at this


@dataclass(frozen=True, eq=False)
class CountPrior:
    """Distribution of one multiplicity K on {0, ..., ka}.

    support  -- the counts with positive mass, as floats
    log_mass -- their log pmf, so the posterior never sees a zero weight
    """

    pmf: np.ndarray
    ka: int
    support: np.ndarray = field(init=False, repr=False, compare=False)
    log_mass: np.ndarray = field(init=False, repr=False, compare=False)
    mean: float = field(init=False, compare=False)
    var: float = field(init=False, compare=False)

    def __post_init__(self):
        ka = _whole(self.ka, "ka", 0)
        pmf = np.asarray(self.pmf, dtype=float)
        _require(pmf.ndim == 1 and pmf.size == ka + 1,
                 "pmf must have ka + 1 entries")
        _require(np.all(pmf >= 0) and np.all(np.isfinite(pmf)),
                 "pmf must be finite and nonnegative")
        _require(abs(pmf.sum() - 1.0) <= 1e-10, "pmf must sum to one")
        pmf = pmf.copy()
        ks = np.arange(ka + 1, dtype=float)
        positive = pmf > 0
        # the moments sum over every count: the support-only dot could
        # round differently in the last bit
        mean = float(pmf @ ks)
        var = float(pmf @ (ks - mean) ** 2)
        for name, val in (("pmf", pmf), ("support", ks[positive]),
                          ("log_mass", np.log(pmf[positive]))):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        for name, val in (("ka", ka), ("mean", mean), ("var", var)):
            object.__setattr__(self, name, val)


def _binom_log_table(n_trials, log_p, log_1mp):
    """log Bin(k; n_trials, p) for k = 0..n_trials, given log p and log(1-p).

    Column vectors of log p and log(1-p) give one row per success
    probability.
    """
    k = np.arange(n_trials + 1)
    log_comb = gammaln(n_trials + 1) - gammaln(k + 1) - gammaln(n_trials - k + 1)
    return log_comb + k * log_p + (n_trials - k) * log_1mp


def multiplicity_prior(ka, ma, m):
    """Marginal prior of one multiplicity for a (ka, ma, m) system."""
    ka, ma = _whole(ka, "ka", 1), _whole(ma, "ma", 1)
    m = _whole(m, "m", 2)
    # mixture weights: log Bin(m'; ma, 1/m)
    log_w = _binom_log_table(ma, np.log(1.0 / m), np.log1p(-1.0 / m))
    # conditional: log Bin(k; ka, m'/ma), endpoint rows set exactly
    frac = np.arange(ma + 1)[:, None] / ma
    with np.errstate(divide="ignore", invalid="ignore"):
        log_cond = _binom_log_table(ka, np.log(frac), np.log1p(-frac))
    log_cond[0, :] = -np.inf
    log_cond[0, 0] = 0.0  # no targets in the cell -> K = 0 surely
    log_cond[ma, :] = -np.inf
    log_cond[ma, ka] = 0.0  # every target in the cell -> K = ka surely
    pmf = np.exp(logsumexp(log_w[:, None] + log_cond, axis=0))
    return CountPrior(pmf=pmf, ka=ka)


# Max-shifted log-weights are floored here before np.exp.  e^-600 (about
# 2.7e-261) is still a normal float64, while arguments below about -708 give
# subnormal or zero results, which take numpy's exp off its SIMD path and
# make every later product with them slow.  Against a largest weight of 1,
# each floored weight moves the mean by at most ka e^-600 and the variance
# by at most ka^2 e^-600, so all ka + 1 of them together stay under 1e-250
# for any ka below 3000.
_LOG_WEIGHT_FLOOR = -600.0

# (coordinate, count) cells per block.  Each block's two float64 work arrays
# then take 128 KB apiece and its dozen elementwise passes run in cache.
_BLOCK_CELLS = 2**14


def _sum_counts(a):
    """Sum a (count, coordinate) block over counts, in count order.

    numpy reduces several columns row by row but a single column pairwise;
    accumulate keeps a one-column block in row order too, so a coordinate's
    moments do not depend on the width of the block it falls in.
    """
    if a.shape[1] == 1:
        return np.add.accumulate(a, axis=0)[-1]
    return np.add.reduce(a, axis=0)


def posterior_moments(r, xi, prior):
    """Tilted mean f = E[K | r] and variance g = Var[K | r] in one pass.

    Shapes follow r: a scalar r gives two floats, a vector two arrays; xi
    is a scalar or shaped like r.  Only the prior's support enters.  Blocks
    lay the weights out as (count, coordinate), so per-coordinate scalars
    broadcast along contiguous rows and every reduction runs over axis 0.
    The log-weight of count k is log p(k) - (r - k)^2 / (2 xi), shifted by
    its maximum over k and floored at _LOG_WEIGHT_FLOOR; the mean and the
    centered variance are weighted sums divided by the weight total.
    Besides the two outputs the working memory is two blocks of
    _BLOCK_CELLS cells and, for a per-coordinate xi, one clamped copy of
    it: O(m + block) in all.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    _require(r_arr.ndim == 1, "observations must be a scalar or a vector")
    xi_arr = np.asarray(xi, dtype=float)
    _require(xi_arr.ndim == 0 or xi_arr.shape == r_arr.shape,
             "noise variance must be a scalar or shaped like the observations")
    _require(np.all(np.isfinite(r_arr)), "observations must be finite")
    _require(np.all(xi_arr > 0) and np.all(np.isfinite(xi_arr)),
             "noise variance must be positive and finite")
    # Doubling is exact, so q / (2 xi) has the same bits as 0.5 q / xi.
    two_xi = np.maximum(xi_arr, XI_FLOOR)
    two_xi *= 2.0
    two_xi = np.broadcast_to(two_xi, r_arr.shape)
    ks = prior.support[:, None]
    log_mass = prior.log_mass[:, None]
    n_k, size = ks.shape[0], r_arr.size
    cols = max(1, _BLOCK_CELLS // n_k)
    w_buf = np.empty(n_k * min(cols, size))
    t_buf = np.empty_like(w_buf)
    mean = np.empty(size)
    var = np.empty(size)
    for start in range(0, size, cols):
        blk = slice(start, min(start + cols, size))
        width = blk.stop - start
        w = w_buf[: n_k * width].reshape(n_k, width)
        t = t_buf[: n_k * width].reshape(n_k, width)
        np.subtract(r_arr[blk], ks, out=w)
        np.square(w, out=w)
        w /= two_xi[blk]
        np.subtract(log_mass, w, out=w)
        w -= w.max(axis=0)
        np.maximum(w, _LOG_WEIGHT_FLOOR, out=w)
        np.exp(w, out=w)
        total = _sum_counts(w)
        np.multiply(w, ks, out=t)
        mean[blk] = _sum_counts(t) / total
        np.subtract(ks, mean[blk], out=t)
        np.square(t, out=t)
        t *= w
        var[blk] = _sum_counts(t) / total
    if np.ndim(r) == 0:
        return float(mean[0]), float(var[0])
    return mean, var
