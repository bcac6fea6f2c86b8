"""
Distances between discrete measures and decoding-quality metrics.

wasserstein computes the exact optimal-transport coupling.  Both measures
carry integer counts, so the marginals are brought to the least common
multiple of the two totals and the problem is solved in integer units (exact
rational marginals; one division at the end).  If sending every row atom's
mass to its nearest column atom already meets the column marginals exactly,
that coupling is returned: it is optimal and a vertex of the transport
polytope (see wasserstein).  Otherwise the transport LP goes straight to
HiGHS's dual simplex through the bindings scipy bundles, with no Python
wrapper in between (see _transport_lp), so the solution is again a basic
(vertex) one.

total_variation compares normalized multiplicity vectors directly, and
quantization_distortion is the transport cost of quantization alone (true
type against the error-free type at cell centroids, see estimated_type).
Each target lies in the cell of its nearest centroid, so that coupling
always takes the nearest-atom path and solves no LP.
"""

import math

import numpy as np
# scipy's private HiGHS bindings (verified on scipy 1.17): a scipy without
# them fails here, at import, rather than at the first LP
from scipy.optimize._highspy._core import (HighsModelStatus, MatrixFormat,
                                           ObjSense, _Highs)
from scipy.spatial.distance import cdist

from .scenario import DiscreteMeasure, _require

MARGINAL_TOL = 1e-9


def wasserstein(mu, nu, p=2.0):
    """Exact p-Wasserstein distance between two discrete measures, p finite.

    Returns (distance, plan): plan is the optimal coupling of the two weight
    vectors, one row per atom of mu and one column per atom of nu.  The LP
        min sum_ij e_ij ||s_i - q_j||^p  s.t.  e >= 0, marginals fixed
    is solved exactly in integer units; distance = (sum plan * cost)^(1/p).

    The LP is skipped when the nearest-atom coupling, which sends each row
    atom's whole mass to its nearest column atom, meets the column marginals
    exactly.  That coupling is optimal: every unit of mass pays its row's
    minimum cost, which bounds the cost of any coupling with the same row
    marginal from below.  It is a vertex: each row has one nonzero entry, so
    its support is acyclic.  Ties go to the highest column index, as the grid
    quantizer sends a point on a cell edge to the upper cell, so the
    coupling always fits quantization_distortion.

    An order p whose p-th power of some positive distance underflows or
    overflows the normal float range raises ConfigError: the cost matrix
    would no longer tell those atoms apart and the distance would come
    out wrong (0 for a large p), not merely imprecise.
    """
    _require(1.0 <= p < math.inf, "order p must be finite and >= 1")
    dist = cdist(mu.locations, nu.locations)
    with np.errstate(over="ignore"):
        cost = dist**p if p != 1.0 else dist
    powered = cost[dist > 0]
    _require(np.all((powered >= np.finfo(float).tiny) & (powered < math.inf)),
             f"order p={p:g} takes a distance's p-th power out of the "
             "normal float range")
    rows, cols = cost.shape
    ta, tb = int(mu.counts.sum()), int(nu.counts.sum())
    scale = math.lcm(ta, tb)
    a = mu.counts * (scale // ta)
    b = nu.counts * (scale // tb)

    nearest = cols - 1 - cost[:, ::-1].argmin(axis=1)
    if np.array_equal(np.bincount(nearest, weights=a, minlength=cols), b):
        plan = np.zeros((rows, cols))
        plan[np.arange(rows), nearest] = a
    else:
        plan = _transport_lp(cost, a, b)
    plan /= scale

    row_err = np.abs(plan.sum(axis=1) - mu.weights).max()
    col_err = np.abs(plan.sum(axis=0) - nu.weights).max()
    if max(row_err, col_err) > MARGINAL_TOL:
        raise RuntimeError("transport plan marginals out of tolerance")
    return float((plan * cost).sum()) ** (1.0 / p), plan


def _transport_lp(cost, a, b):
    """Vertex solution of the balanced transport LP, in the units of a, b.

    The LP goes straight to HiGHS's dual simplex (presolve off: it finds
    nothing to remove in a transport LP) through scipy's bundled bindings.
    Column i * cols + j is cell (i, j); its equality rows are row sum i and,
    unless j is the last column, column sum j, whose row is rows + j (the
    last column sum is redundant once the problem is balanced).  A model
    HiGHS does not solve to optimality raises RuntimeError.
    """
    rows, cols = cost.shape
    cells, num_row = rows * cols, rows + cols - 1
    col = np.arange(cells + 1, dtype=np.int32)
    start = 2 * col - col // cols  # a row's last cell has one nonzero
    i, j = np.divmod(col[:-1], cols)
    index = np.stack([i, rows + j], axis=1).ravel()
    index = index[index < num_row]
    rhs = np.concatenate([a, b[:-1]]).astype(float)

    highs = _Highs()
    for option, value in (("output_flag", False), ("presolve", "off"),
                          ("solver", "simplex"), ("simplex_strategy", 1)):
        highs.setOptionValue(option, value)
    highs.passModel(cells, num_row, index.size, MatrixFormat.kColwise,
                    ObjSense.kMinimize, 0.0, cost.ravel(),
                    np.zeros(cells), np.full(cells, np.inf), rhs, rhs,
                    start, index, np.ones(index.size),
                    np.zeros(cells, dtype=np.int32))
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise RuntimeError(
            f"transport LP failed: {highs.modelStatusToString(status)}")
    plan = np.array(highs.getSolution().col_value).reshape(rows, cols)
    return np.where(plan > 0, plan, 0.0)  # simplex roundoff only


def total_variation(k, k_hat):
    """TV distance between normalized multiplicity vectors, 0.5 sum |.-.|."""
    k = np.asarray(k, dtype=float)
    k_hat = np.asarray(k_hat, dtype=float)
    _require(k.shape == k_hat.shape and k.ndim == 1,
             "multiplicity vectors must share a 1-d shape")
    _require(np.all(k >= 0) and np.all(k_hat >= 0), "counts must be nonnegative")
    ts, te = k.sum(), k_hat.sum()
    _require(ts > 0 and te > 0, "multiplicity vectors must not be all-zero")
    return 0.5 * float(np.abs(k / ts - k_hat / te).sum())


def estimated_type(k_hat, quantizer):
    """Discrete measure at cell centroids with counts k_hat.

    k_hat must not be all zero; a DecoderReport's k_hat never is.
    """
    k = np.asarray(k_hat)
    _require(k.ndim == 1 and k.size == quantizer.m, "k_hat must have m entries")
    _require(np.issubdtype(k.dtype, np.integer) and np.all(k >= 0),
             "k_hat must be nonnegative integers")
    _require(k.sum() > 0, "k_hat must not be all zero")
    keep = k > 0
    return DiscreteMeasure(k[keep], quantizer.centroids[keep])


def quantization_distortion(true_type_measure, k, quantizer, p=2.0):
    """W_p cost of quantization alone: true type vs the type at centroids.

    k is the true multiplicity vector, i.e. the channel-error-free decoder
    output; the returned value is the distortion floor any decoder inherits.
    """
    est = estimated_type(np.asarray(k), quantizer)
    distance, _ = wasserstein(true_type_measure, est, p)
    return distance
