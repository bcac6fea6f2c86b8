"""Reference implementations shared by unit and acceptance tests.

These are deliberately naive and independent of the package internals: they
trade speed for being obviously correct on small instances.
"""

import itertools
import math

import numpy as np
from mpmath import mp, mpf
from scipy import sparse
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpftrf, dpftri, dpftrs, dtrttf
from scipy.optimize import linprog
from scipy.spatial.distance import cdist

from tuma.channel import ReceivedSignal, snr_from_db
from tuma.codebooks import adjoint, apply, fwht
from tuma.denoiser import XI_FLOOR, posterior_moments
from tuma.scenario import DiscreteMeasure, _require


def transport_vertex_oracle(a, b, cost):
    """Minimum transport cost by enumerating basic solutions of the LP.

    The balanced transport polytope {X >= 0 : X 1 = a, X^T 1 = b} has
    equality rank p + q - 1 (one column constraint is redundant), so every
    vertex is the basic solution of some choice of p + q - 1 variables.
    The constraint matrix is totally unimodular, hence nonsingular bases
    have |det| = 1 and a determinant threshold of 0.5 separates them
    exactly.  Enumerating all feasible bases and taking the cheapest is
    exponential but exact - the reference for small instances.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = np.asarray(cost, dtype=float)
    p, q = a.size, b.size
    n_vars, rank = p * q, p + q - 1

    system = np.zeros((rank, n_vars))
    for i in range(p):
        system[i, i * q:(i + 1) * q] = 1.0
    for j in range(q - 1):
        system[p + j, j::q] = 1.0
    rhs = np.concatenate([a, b[:-1]])

    bases = np.array(list(itertools.combinations(range(n_vars), rank)))
    mats = system[:, bases].transpose(1, 0, 2)  # (n_bases, rank, rank)
    nonsingular = np.abs(np.linalg.det(mats)) > 0.5
    bases = bases[nonsingular]
    stacked_rhs = np.broadcast_to(rhs, (bases.shape[0], rank))
    solutions = np.linalg.solve(mats[nonsingular], stacked_rhs[..., None])
    solutions = solutions[..., 0]

    feasible = np.all(solutions >= -1e-9, axis=1)
    objectives = (cost.ravel()[bases] * solutions).sum(axis=1)
    return float(objectives[feasible].min())


def reference_wasserstein(mu, nu, p=2.0):
    """p-Wasserstein distance and coupling from the full transport LP.

    The LP form of tuma.metrics.wasserstein with no nearest-atom shortcut:
    both count vectors are scaled to the lcm of their totals, the equality
    constraints are built by Kronecker products and HiGHS runs its presolve.
    Returns (distance, plan).
    """
    cost = cdist(mu.locations, nu.locations) ** p
    rows, cols = cost.shape
    scale = math.lcm(int(mu.counts.sum()), int(nu.counts.sum()))
    a = mu.counts * (scale // mu.counts.sum())
    b = nu.counts * (scale // nu.counts.sum())
    row_block = sparse.kron(sparse.eye(rows), np.ones((1, cols))).tocsr()
    col_block = sparse.kron(np.ones((1, rows)), sparse.eye(cols)).tocsr()
    a_eq = sparse.vstack([row_block, col_block[:-1]], format="csr")
    b_eq = np.concatenate([a, b[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs-ds")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(rows, cols) / scale
    plan = np.where(plan > 0, plan, 0.0)
    return float((plan * cost).sum()) ** (1.0 / p), plan


def butterfly_fwht(v):
    """fwht by radix-2 butterfly stages, the reference for tuma.codebooks.fwht.

    Stage h = 1, 2, 4, ... replaces each pair (lo, hi) of entries h apart
    by (lo + hi, lo - hi) over (..., 2, h) views of the last axis.
    """
    a = np.array(v, dtype=float)
    size = a.shape[-1]
    rows = a.reshape(-1, size)
    h = 1
    while h < size:
        b = rows.reshape(rows.shape[0], -1, 2, h)
        lo, hi = b[:, :, 0, :], b[:, :, 1, :]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h *= 2
    return a


def dense_codebook(cb):
    """Materialize a HadamardCodebook as its (n, m) matrix C.

    Row j of the Sylvester matrix is fwht(e_j), so the kept rows are the
    transform of a basis block, scaled; for n > m the m x m matrix is
    zero-padded to n rows.
    """
    active = len(cb.row_ids)
    basis = np.zeros((active, cb.m))
    basis[np.arange(active), cb.row_ids] = 1.0
    mat = fwht(basis) * cb.scale
    if cb.n > cb.m:
        mat = np.vstack([mat, np.zeros((cb.n - cb.m, cb.m))])
    return mat


def dense_ep_projection(cb, xi1, eta1, lin, sigma2):
    """EP's Gaussian projection through the dense Woodbury identity.

    (Xi1^{-1} + C^T C / sigma2)^{-1}
        = Xi1 - Xi1 C^T (sigma2 I + C Xi1 C^T)^{-1} C Xi1,
    Cholesky-factored on the n side with C materialized.  Returns the
    marginal variances and means, as tuma.decoders._ep_projection does.
    """
    dense = dense_codebook(cb)
    s_mat = (dense * xi1) @ dense.T
    s_mat[np.diag_indices_from(s_mat)] += sigma2
    chol = cholesky(s_mat, lower=True)
    half = solve_triangular(chol, dense, lower=True)
    xi0_hat = xi1 - xi1**2 * np.einsum("ji,ji->i", half, half)
    w = xi1 * (eta1 + lin)
    u = cho_solve((chol, True), dense @ w)
    mu0_hat = w - xi1 * (dense.T @ u)
    return xi0_hat, mu0_hat


def copying_ep_projection(cb, work, xi1, eta1, lin, sigma2):
    """EP's structured projection with every copy the library avoids.

    The bit-identity reference for tuma.decoders._ep_projection, which it
    takes the same arguments as; work is ignored.  S and the r_a XOR r_b
    table are gathered whole from cb.row_ids by fancy indexing and packed
    into LAPACK's Rectangular Full Packed order by LAPACK trttf, so a wrong
    key map in the library's workspace cannot sit on both sides (keys below
    2**53 round-trip exactly as floats).  LAPACK pftrf, pftrs and pftri
    then run with every overwrite off, each on a fresh copy, and the packed
    S^{-1} is summed by key in RFP order, as the library reads it.
    Each floating-point operation is the one the library does, in the same
    order, so the outputs must be equal, not merely close.
    """
    n = cb.n
    xor = np.bitwise_xor.outer(cb.row_ids, cb.row_ids)
    scale2 = cb.scale**2
    s_mat = (scale2 * fwht(xi1))[xor]
    s_mat[np.diag_indices_from(s_mat)] += sigma2
    s_rfp, info = dtrttf(s_mat, uplo="L")
    keys, key_info = dtrttf(xor.astype(float), uplo="L")
    assert info == key_info == 0
    chol, info = dpftrf(n, s_rfp, uplo="L")
    if info == 0:
        s_inv, info = dpftri(n, chol, uplo="L")
    if info != 0:
        raise np.linalg.LinAlgError(
            f"EP projection matrix is not positive definite (info={info})")
    counts = np.bincount(keys.astype(np.intp), weights=s_inv, minlength=cb.m)
    xi0_hat = fwht(counts)
    xi0_hat *= -2.0 * scale2
    xi0_hat += scale2 * counts[0]  # bin 0 sums the diagonal: the trace
    xi0_hat *= xi1**2
    xi0_hat += xi1
    mu0_hat = xi1 * (eta1 + lin)  # w
    solved, info = dpftrs(n, chol, apply(cb, mu0_hat), uplo="L")
    assert info == 0
    correction = adjoint(cb, solved)
    correction *= xi1
    mu0_hat -= correction
    return xi0_hat, mu0_hat


def reference_tilted(r, xi, prior):
    """Posterior mean and centered variance arrays for r = K + N(0, xi).

    The direct form of tuma.denoiser.posterior_moments: one (m, ka + 1)
    log-weight array over every count, built from prior.pmf alone (log 0 =
    -inf at the zero-mass counts), max-shifted and exponentiated with no
    floor, normalized, then reduced by a matrix-vector product.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    xi_arr = np.broadcast_to(np.asarray(xi, dtype=float), r_arr.shape)
    _require(np.all(np.isfinite(r_arr)), "observations must be finite")
    _require(np.all(xi_arr > 0) and np.all(np.isfinite(xi_arr)),
             "noise variance must be positive and finite")
    xi_arr = np.maximum(xi_arr, XI_FLOOR)
    ks = np.arange(prior.pmf.size, dtype=float)
    with np.errstate(divide="ignore"):
        log_pmf = np.log(prior.pmf)
    a = log_pmf[None, :] - 0.5 * (r_arr[:, None] - ks[None, :]) ** 2 / xi_arr[:, None]
    a -= a.max(axis=1, keepdims=True)
    w = np.exp(a)
    w /= w.sum(axis=1, keepdims=True)
    mean = w @ ks
    dev = ks[None, :] - mean[:, None]
    var = np.einsum("ij,ij->i", w, dev * dev)
    return mean, var


def mp_posterior(r, xi, prior, dps):
    """Tilted mean and variance over the support, as mpf at dps digits."""
    with mp.workdps(dps):
        r, two_xi = mpf(r), 2 * mpf(xi)
        counts = [k for k in range(prior.ka + 1) if prior.pmf[k] > 0]
        logs = [mp.log(mpf(prior.pmf[k])) - (r - k) ** 2 / two_xi
                for k in counts]
        top = max(logs)
        w = [mp.exp(log - top) for log in logs]
        total = mp.fsum(w)
        mean = mp.fsum(wk * k for wk, k in zip(w, counts)) / total
        var = mp.fsum(wk * (k - mean) ** 2 for wk, k in zip(w, counts)) / total
        return mean, var


def exhaustive_posterior_mean(received, cb, prior, support):
    """Exact posterior mean of k over an explicit list of count vectors.

    Every vector in support is weighted by its Gaussian likelihood under
    y = sqrt(nP) C k + N(0, I) (C materialized) times its product prior.
    """
    dense = dense_codebook(cb)
    snp = np.sqrt(cb.n * received.power)
    vectors = np.array(list(support), dtype=float)
    residuals = received.y[None, :] - snp * (vectors @ dense.T)
    log_like = -0.5 * np.einsum("ij,ij->i", residuals, residuals)
    with np.errstate(divide="ignore"):  # zero prior mass is a valid -inf
        log_prior = np.log(prior.pmf)[vectors.astype(int)].sum(axis=1)
    log_w = log_like + log_prior
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    return w @ vectors


def random_measure(rng, max_atoms=4):
    """A measure of 1 to max_atoms atoms, counts 1..5, in the unit square."""
    size = int(rng.integers(1, max_atoms + 1))
    counts = rng.integers(1, 6, size=size)
    return DiscreteMeasure(counts, rng.random((size, 2)))


def half_away_from_zero(k_soft, ka):
    """tuma.decoders.round_estimate written out: round half away from zero
    on both half-lines (sign times the rounded magnitude), then clamp into
    [0, ka]."""
    k_soft = np.asarray(k_soft, dtype=float)
    rounded = np.sign(k_soft) * np.floor(np.abs(k_soft) + 0.5)
    return np.clip(rounded, 0, ka).astype(np.int64)


def noiseless_transmit(cb, k, snr_db):
    """Channel output with the noise left out: y = sqrt(n P) C k exactly."""
    power = snr_from_db(snr_db)
    y = np.sqrt(cb.n * power) * apply(cb, np.asarray(k).astype(float))
    return ReceivedSignal(y=y, power=power)


def posterior_mean_deriv(r, xi, prior):
    """df/dr of the posterior mean by the identity f' = g / xi.

    xi is clamped below at XI_FLOOR, as posterior_moments does.
    """
    xi_c = np.maximum(np.asarray(xi, dtype=float), XI_FLOOR)
    var = posterior_moments(r, xi_c, prior)[1]
    out = var / xi_c
    return float(out) if np.ndim(r) == 0 else out
