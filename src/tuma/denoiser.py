"""
Marginal multiplicity prior and scalar posterior computations.

The number of targets quantizing to a given cell is Bin(ma, 1/m); given m'
targets there, each of the ka sensors reports the cell with probability
m'/ma, so the per-message multiplicity follows the binomial mixture

    p(k) = sum_{m'=0}^{ma} Bin(m'; ma, 1/m) Bin(k; ka, m'/ma).

The decoders see each coordinate through an effective scalar observation
r = k + N(0, xi).  posterior_moments returns the tilted mean f and
variance g of that model, evaluated over the prior's support only (counts
with zero prior mass get exactly zero weight).  It is the one judge of its
inputs: it takes observations with |r| + ka + 1 <= R_LIMIT, so no squared
distance overflows, and a positive finite xi, and refuses anything else
with DenoiserInputError.  Each r is clamped to a short distance past the
ends of the support, beyond which the moments are exactly those of the end
count.  The log-weights are shifted by their maximum, so small xi does not
overflow, and floored at _LOG_WEIGHT_FLOOR before exponentiation (see
there).  Each coordinate evaluates only its window, the contiguous run of
support counts whose shifted log-weight can reach the floor: a cheap lower
bound on the largest log-weight caps the distance |r - k| of such a count
(_windows), and every count outside the window gets weight exactly 0.  The
variance is the centered second moment (no cancellation).  Coordinates are
processed in chunks of _CHUNK, sorted by window length, and in blocks of
about _BLOCK_CELLS (window position, coordinate) cells, so memory is
O(m + chunk + block) rather than O(m (ka + 1)).  The derivative of the
tilted mean obeys the exponential-family identity f'(r) = g(r) / xi.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from .scenario import ConfigError, _require, _whole

XI_FLOOR = 1e-12  # effective noise variances are clamped below at this

# The largest magnitude whose square over 2 XI_FLOOR is finite.  An
# observation r is accepted when |r| + ka + 1 is at most this, so every
# squared distance (r - k)^2 / (2 xi) and every window radius stays finite.
R_LIMIT = math.sqrt(2.0 * XI_FLOOR * np.finfo(float).max)


class DenoiserInputError(ConfigError, FloatingPointError):
    """An input posterior_moments refuses; decode reports it as divergence."""


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


# Max-shifted log-weights are floored here before np.exp, and a count
# whose log-weight provably lies below the floor gets weight exactly 0
# without being evaluated (see _windows).  Against a largest weight of 1,
# e^-100 (about 3.7e-44) is far below double resolution (any floor under
# about -37 is), and each floored or dropped weight moves the mean by at
# most ka e^-100 and the variance by at most ka^2 e^-100, so all ka + 1
# of them together move the variance by under 1e-32 for any ka below
# 3000.  A floor this high also keeps np.exp off subnormal results (below
# about -708), which take it off its SIMD path.
_LOG_WEIGHT_FLOOR = -100.0

# (coordinate, count) cells per block.  Each block's float64 work arrays
# then take 128 KB apiece and its dozen elementwise passes run in cache.
_BLOCK_CELLS = 2**14

# Coordinates whose windows are found in one pass, so the per-coordinate
# work arrays take O(_CHUNK) memory rather than O(m).
_CHUNK = 2**15


def _sum_counts(a):
    """Sum a (count, coordinate) block over counts, in count order.

    numpy reduces several columns row by row but a single column pairwise;
    accumulate keeps a one-column block in row order too, so a coordinate's
    moments do not depend on the width of the block it falls in.
    """
    if a.shape[1] == 1:
        return np.add.accumulate(a, axis=0)[-1]
    return np.add.reduce(a, axis=0)


def _log_weight(r, two_xi, ks, log_mass, out=None):
    """log p(k) - (r - k)^2 / (2 xi), given the counts ks and their log p."""
    w = np.subtract(r, ks, out=out)
    np.square(w, out=w)
    w /= two_xi
    return np.subtract(log_mass, w, out=w)


def _windows(r, two_xi, prior):
    """Each coordinate's window: its first support index and its length.

    L, the largest log-weight among the two support counts either side of
    r and the prior's mode, bounds the maximum log-weight from below, so
    every count with (r - k)^2 > 2 xi (max log p - L - _LOG_WEIGHT_FLOOR
    + 1) lies below the floor once shifted; the window is the contiguous run
    of support counts within that distance of r (the support need not be
    unimodal or gap-free).  The count achieving L is always kept, so
    roundoff in a huge distance cannot drop the largest weight.
    """
    # below[c] = searchsorted(prior.support, c) for the integers c in
    # 0..ka + 1.  Counts are integers, so it answers the query at any x
    # through ceil(x); a binary search per coordinate on unsorted keys
    # would cost more than the rest of this function.
    below = np.searchsorted(prior.support, np.arange(prior.ka + 2))

    def rank(x):  # searchsorted(prior.support, x), side "left"
        return below[np.clip(np.ceil(x), 0, prior.ka + 1).astype(np.intp)]

    def log_weight(idx):
        return _log_weight(r, two_xi, prior.support[idx], prior.log_mass[idx])

    up = rank(r)
    best_idx = np.minimum(up, prior.support.size - 1)
    best = log_weight(best_idx)
    l_below = log_weight(np.maximum(up - 1, 0))
    # the two candidates are adjacent, or one count with equal log-weights
    best_idx -= l_below > best
    np.maximum(best, l_below, out=best)
    mode = np.argmax(prior.log_mass)
    l_mode = log_weight(mode)
    best_idx += (l_mode > best) * (mode - best_idx)
    np.maximum(best, l_mode, out=best)
    best -= prior.log_mass.max() - _LOG_WEIGHT_FLOOR + 1.0
    best *= -two_xi
    radius = np.sqrt(best, out=best)
    first = np.minimum(rank(r - radius), best_idx)
    # side "right" of x is side "left" of the next integer above floor(x)
    stop = np.maximum(rank(np.floor(r + radius) + 1.0), best_idx + 1)
    return first, stop - first


def posterior_moments(r, xi, prior):
    """Tilted mean f = E[K | r] and variance g = Var[K | r] in one pass.

    Shapes follow r: a scalar r gives two floats, a vector two arrays; xi
    is a scalar or shaped like r.  Only the prior's support enters, and of
    it only each coordinate's window (see _windows): the counts whose
    max-shifted log-weight can reach _LOG_WEIGHT_FLOOR.  The log-weight of
    count k is log p(k) - (r - k)^2 / (2 xi), shifted by its maximum over
    k and floored at _LOG_WEIGHT_FLOOR; every count outside the window
    gets weight 0.  The mean and the centered variance are weighted sums
    divided by the weight total.

    A non-finite r or one with |r| + ka + 1 > R_LIMIT, or an xi that is not
    positive and finite, raises DenoiserInputError.  Each r is clamped to
    within reach = xi (max log p - min log p - _LOG_WEIGHT_FLOOR + 1) + 1
    of the ends of the support: past that distance the end count's window
    holds it alone, so the moments are exactly (end, 0), and the clamp
    keeps (r - k)^2 small enough that neighbouring counts stay apart in
    floating point.  So the moments are exact, to within roundoff, for every
    accepted r and every xi up to 1e12 (decoders.VAR_CEILING, the top of
    the decoders' variance range).

    Coordinates go in chunks of _CHUNK, sorted by window length within a
    chunk, and then in blocks of about _BLOCK_CELLS cells laid out as
    (window position, coordinate): each column gathers its own counts,
    so per-coordinate scalars broadcast along contiguous rows, every
    reduction runs over axis 0 in count order, and a column's cells past
    its own window are zeroed, which keeps every coordinate's moments
    independent of the block it falls in.  Besides the two outputs the
    working memory is O(_CHUNK + _BLOCK_CELLS).
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    _require(r_arr.ndim == 1, "observations must be a scalar or a vector")
    xi_arr = np.asarray(xi, dtype=float)
    _require(xi_arr.ndim == 0 or xi_arr.shape == r_arr.shape,
             "noise variance must be a scalar or shaped like the observations")
    if not np.all(np.abs(r_arr) <= R_LIMIT - (prior.ka + 1)):
        raise DenoiserInputError(
            "observations must be finite, with |r| + ka + 1 <= R_LIMIT")
    if not (np.all(xi_arr > 0) and np.all(np.isfinite(xi_arr))):
        raise DenoiserInputError("noise variance must be positive and finite")
    # Doubling is exact, so q / (2 xi) has the same bits as 0.5 q / xi.
    two_xi = np.maximum(xi_arr, XI_FLOOR)
    two_xi *= 2.0
    two_xi = np.broadcast_to(two_xi, r_arr.shape)
    # reach per unit of 2 xi; capping 2 xi at 2 R_LIMIT keeps reach finite
    # where the clamp could not move an accepted r anyway
    reach_rate = 0.5 * (prior.log_mass.max() - prior.log_mass.min()
                        - _LOG_WEIGHT_FLOOR + 1.0)
    support = prior.support
    n_k, size = support.size, r_arr.size
    steps = np.arange(n_k)[:, None]
    cells = min(max(_BLOCK_CELLS, n_k), n_k * size)
    work = np.empty((3, cells))
    idx_buf = np.empty(cells, dtype=np.intp)
    mean = np.empty(size)
    var = np.empty(size)
    for start in range(0, size, _CHUNK):
        chunk = slice(start, min(start + _CHUNK, size))
        two_xi_k = two_xi[chunk]
        reach = np.minimum(two_xi_k, 2.0 * R_LIMIT)
        reach *= reach_rate
        reach += 1.0
        r_k = np.clip(r_arr[chunk], support[0] - reach, support[-1] + reach)
        first, length = _windows(r_k, two_xi_k, prior)
        # Widest window first.  A window of _BLOCK_CELLS counts or more
        # fills a block alone, so capping the sort key there loses nothing
        # and lets numpy radix-sort 16-bit keys.
        key = np.minimum(length, _BLOCK_CELLS).astype(np.uint16)
        order = np.argsort(key, kind="stable")[::-1]
        first, length = first[order], length[order]
        r_c, two_xi_c = r_k[order], two_xi_k[order]
        order += start
        mean_c, var_c = np.empty((2, order.size))
        pos = 0
        while pos < order.size:
            rows = int(length[pos])
            blk = slice(pos, min(pos + max(1, _BLOCK_CELLS // rows),
                                 order.size))
            pos = blk.stop
            n_cells = rows * (blk.stop - blk.start)
            # contiguous (rows, columns) views: see _sum_counts
            w, t, ks = work[:, :n_cells].reshape(3, rows, -1)
            idx = idx_buf[:n_cells].reshape(rows, -1)
            np.add(steps[:rows], first[blk], out=idx)
            np.take(support, idx, out=ks, mode="clip")
            np.take(prior.log_mass, idx, out=t, mode="clip")
            _log_weight(r_c[blk], two_xi_c[blk], ks, t, out=w)
            w -= w.max(axis=0)
            np.maximum(w, _LOG_WEIGHT_FLOOR, out=w)
            np.exp(w, out=w)
            np.less(steps[:rows], length[blk], out=t)
            w *= t  # zero the cells past each column's own window
            total = _sum_counts(w)
            np.multiply(w, ks, out=t)
            mean_c[blk] = _sum_counts(t) / total
            np.subtract(ks, mean_c[blk], out=t)
            np.square(t, out=t)
            t *= w
            var_c[blk] = _sum_counts(t) / total
        mean[order] = mean_c
        var[order] = var_c
    if np.ndim(r) == 0:
        return float(mean[0]), float(var[0])
    return mean, var
