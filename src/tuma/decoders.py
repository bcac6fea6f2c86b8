"""
Iterative Bayesian decoders for multiplicity recovery.

All three decoders estimate the multiplicity vector k from
y = sqrt(nP) C k + z using the same scalar count posterior (denoiser) and
differ in how they track the effective observation and its uncertainty:

  amp        -- approximate message passing: matched-filter statistic with an
                Onsager-corrected residual z and one scalar noise-variance
                track xi = ||z||^2 / (n nP);
  scalar_amp -- generalized AMP, written with per-coordinate variances over
                elementwise-squared codebook products; on a Hadamard codebook
                those products are constant vectors, so the variance is one
                number per iteration (folding it into amp waits on the
                benchmark, see ROADMAP);
  ep         -- expectation propagation: Gaussian sites per coordinate, an
                exact multivariate Gaussian projection of the full likelihood,
                and moment matching against the count prior.

Each decoder is a private generator of per-iteration updates; decode, the
one entry point, runs all three through one loop.  It reports the soft
posterior-mean estimate, the rounded and clamped integer estimate, and
per-iteration diagnostics.  Iterations stop early once the rounded estimate
repeats (disable via options.early_stop to run the full iteration budget);
non-finite state, or an input the denoiser refuses, raises DecoderDiverged
carrying a report built from the last finite estimate.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dpotri

from .scenario import _require, _whole
from .codebooks import adjoint, apply, fwht, sq_adjoint, sq_apply
from .denoiser import XI_FLOOR, posterior_moments

# Every variance-like quantity is clamped into [XI_FLOOR, VAR_CEILING].
VAR_CEILING = 1e12
# EP site updates in natural parameters: new = (1 - d) raw + d old.
EP_DAMPING = 0.3


@dataclass(frozen=True)
class DecoderOptions:
    """Knobs shared by all decoders.

    algorithm  -- one of "amp", "scalar_amp", "ep"
    max_iters  -- iteration cap (early exit on a repeated rounded estimate)
    early_stop -- exit once the rounded estimate repeats (default).  The
                  repeat heuristic can fire while dense systems are still
                  converging slowly, so property tests that need the
                  iteration's actual fixed point turn it off.
    """

    algorithm: str = "amp"
    max_iters: int = 10
    early_stop: bool = True

    def __post_init__(self):
        _require(self.algorithm in ALGORITHMS,
                 f"algorithm must be one of {ALGORITHMS}")
        object.__setattr__(self, "max_iters",
                           _whole(self.max_iters, "max_iters", 1))
        _require(isinstance(self.early_stop, bool),
                 "early_stop must be a bool")


@dataclass(frozen=True, eq=False)
class DecoderReport:
    """Outcome of one decode.

    k_hat          -- rounded integer estimate, clamped to [0, ka], sum >= 1
    k_soft         -- posterior-mean estimate the rounding was applied to
    iterations_run -- iterations actually executed
    xi_track       -- mean effective noise variance per iteration
    residual_track -- ||y - sqrt(nP) C k_soft|| per iteration
    fallback_used  -- True if the all-zero rounding fallback fired
    diverged       -- True if the run was cut short by non-finite values
                      or an EP projection that failed to factor
    """

    algorithm: str
    k_hat: np.ndarray
    k_soft: np.ndarray
    iterations_run: int
    xi_track: tuple
    residual_track: tuple
    fallback_used: bool = False
    diverged: bool = False


class DecoderDiverged(RuntimeError):
    """Decoder state left the finite range; carries the last finite report."""

    def __init__(self, report):
        super().__init__(f"{report.algorithm} decoder diverged at iteration "
                         f"{report.iterations_run}")
        self.report = report


def round_estimate(k_soft, ka):
    """Round half away from zero, then clamp into [0, ka]."""
    k_soft = np.asarray(k_soft, dtype=float)
    rounded = np.sign(k_soft) * np.floor(np.abs(k_soft) + 0.5)
    return np.clip(rounded, 0, ka).astype(np.int64)


def _finite(*arrays):
    """Raise FloatingPointError unless every array is finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise FloatingPointError("non-finite decoder state")


def _amp(received, cb, prior, k):
    """AMP with a scalar effective-noise track.

    Per iteration: r = (C^T z + sqrt(nP) k_hat) / sqrt(nP) is treated as
    k + N(0, xi) with xi = ||z||^2 / (n nP); the denoised estimate feeds the
    next residual z = y - sqrt(nP) C k_hat + (m/n) <f'> z_prev, whose last
    term is the Onsager correction with <f'> the mean denoiser derivative
    g / xi.  The residual reported is ||y - sqrt(nP) C k_hat||, before the
    correction; ||z|| itself is sqrt(n nP xi) of the next iteration.
    """
    n, m = cb.n, cb.m
    npw = n * received.power
    snp = np.sqrt(npw)
    z = received.y - snp * apply(cb, k)
    while True:
        xi = float(z @ z) / (n * npw)
        r = adjoint(cb, z) / snp + k
        xi = max(xi, XI_FLOOR)
        k, v = posterior_moments(r, xi, prior)
        onsager = (m / n) * float(np.mean(v)) / xi
        residual = received.y - snp * apply(cb, k)
        z = residual + onsager * z
        _finite(k, z)
        yield k, xi, np.linalg.norm(residual)


def _scalar_amp(received, cb, prior, k):
    """Generalized AMP, written with per-coordinate variances.

    Works on the rescaled model y' = y/sqrt(nP) = C k + N(0, sigma2 I) with
    sigma2 = 1/(nP).  Per iteration: output variances v = |C|^2 v_hat,
    corrected output mean z = C k_hat - v (y' - z_prev)/(sigma2 + v_prev),
    input variances xi = 1 / ((|C|^2)^T (sigma2 + v)^{-1}), pseudo-
    observations r = k_hat + xi C^T ((y' - z)/(sigma2 + v)), then moment
    matching against the count prior.  On a Hadamard codebook sq_apply and
    sq_adjoint return constant vectors, so v and xi are one number each.
    """
    npw = cb.n * received.power
    snp = np.sqrt(npw)
    sigma2 = 1.0 / npw

    ys = received.y / snp
    v_soft = np.full(cb.m, prior.var)
    z, v = ys, 0.0  # ys - z = 0: no first-iteration correction term
    c_k = apply(cb, k)  # C k_hat, carried over between iterations
    while True:
        v_new = sq_apply(cb, v_soft)
        z = c_k - v_new * (ys - z) / (sigma2 + v)
        v = v_new
        scaled = (ys - z) / (sigma2 + v)
        with np.errstate(over="ignore"):
            xi = 1.0 / sq_adjoint(cb, 1.0 / (sigma2 + v))
        r = k + xi * adjoint(cb, scaled)
        xi = np.clip(xi, XI_FLOOR, VAR_CEILING)
        k, v_soft = posterior_moments(r, xi, prior)
        _finite(k, v_soft)
        c_k = apply(cb, k)
        yield k, np.mean(xi), np.linalg.norm(received.y - snp * c_k)


def _ep_projection(cb, xor, xi1, eta1, lin, sigma2):
    """Marginal variances/means of N(mu1, Xi1) x N(y'; C k, sigma2 I).

    lin is the likelihood's linear natural parameter C^T y' / sigma2.  When
    the columns of C are exactly orthonormal (n >= m) the posterior
    covariance is diagonal and everything is elementwise.  Otherwise the
    Woodbury identity
    (Xi1^{-1} + C^T C / sigma2)^{-1}
        = Xi1 - Xi1 C^T S^{-1} C Xi1,   S = sigma2 I + C Xi1 C^T,
    moves the work to the n side, and C is never materialized: with
    c_a the kept Sylvester rows r_a and H[p] H[q] = H[p XOR q] elementwise,

        S[a, b]           = sigma2 [a == b] + scale^2 fwht(xi1)[r_a XOR r_b]
        c_i^T S^{-1} c_i  = scale^2 fwht(g)[i],
        g                 = bincount(r_a XOR r_b, weights=S^{-1}[a, b]),

    so S is one FWHT plus a gather through xor (the n x n table of
    r_a XOR r_b, built once per decode) and the variance diagonal is one
    more FWHT.  The mean is w - xi1 C^T S^{-1} C w with w = xi1 (eta1 + lin).
    S^{-1} comes from LAPACK potri on the Cholesky factor.  Each call costs
    O(n^3 + m log m) time and O(n^2 + m) memory.  A factorization that
    finds S not positive definite raises numpy.linalg.LinAlgError.
    """
    if cb.orthonormal_columns:
        xi0_hat = 1.0 / (1.0 / xi1 + 1.0 / sigma2)
        mu0_hat = xi0_hat * (eta1 + lin)
        return xi0_hat, mu0_hat
    scale2 = cb.scale**2
    s_mat = (scale2 * fwht(xi1))[xor]
    s_mat[np.diag_indices_from(s_mat)] += sigma2
    chol, info = dpotrf(s_mat, lower=1)
    if info == 0:
        s_inv, info = dpotri(chol, lower=1)  # lower triangle only
    if info != 0:
        raise np.linalg.LinAlgError(
            f"EP projection matrix is not positive definite (info={info})")
    # xor and S^{-1} are symmetric and xor's diagonal is 0, so g is twice
    # the lower triangle's weighted count less the trace at g[0], and
    # fwht(e_0) is all ones.  Arithmetic on m-vectors is in place because
    # at large m each temporary costs O(m) memory.
    xi0_hat = fwht(np.bincount(xor.ravel(), weights=s_inv.ravel(),
                               minlength=cb.m))
    xi0_hat *= -2.0 * scale2
    xi0_hat += scale2 * np.trace(s_inv)
    xi0_hat *= xi1**2
    xi0_hat += xi1
    mu0_hat = xi1 * (eta1 + lin)  # w
    correction = adjoint(cb, cho_solve((chol, True), apply(cb, mu0_hat)))
    correction *= xi1
    mu0_hat -= correction
    return xi0_hat, mu0_hat


def _ep(received, cb, prior, k):
    """Expectation propagation with Gaussian sites.

    Sites start at the prior-matched Gaussian N(k, prior.var), k being the
    prior mean, so the first Gaussian projection is already the Gaussian
    approximation of the full posterior.  Per iteration: exact Gaussian
    projection of sites times likelihood, cavity update by natural-parameter
    subtraction, tilted moments of the cavity-tilted count prior, then the
    site update, damped in natural parameters.

    _ep_projection derives the projection and its cost.  A projection that
    fails to factor raises numpy.linalg.LinAlgError, which decode reports
    as DecoderDiverged.

    Two safeguards keep the natural parameters in range: a site update
    whose precision would be non-positive resets that site to (near-)flat,
    and a cavity precision that comes out non-positive (possible only
    through roundoff, since the projected variance never exceeds the site
    variance) is clamped to near-flat as well.  Clamping either to a
    near-delta spike instead is an absorbing state that pins the coordinate
    at zero, so the floor is reserved for true spikes coming out of the
    moment match.
    """
    npw = cb.n * received.power
    snp = np.sqrt(npw)
    sigma2 = 1.0 / npw  # noise variance of the y' = y/sqrt(nP) model
    lo, hi, damp = XI_FLOOR, VAR_CEILING, EP_DAMPING

    lin = snp * adjoint(cb, received.y)  # C^T y' / sigma2 = sqrt(nP) C^T y
    xor = (None if cb.orthonormal_columns
           else np.bitwise_xor.outer(cb.row_ids, cb.row_ids))
    var0 = np.clip(prior.var, lo, hi)
    lam1 = np.full(cb.m, 1.0 / var0)
    eta1 = k / var0
    while True:
        # Gaussian projection of sites x likelihood
        xi1 = np.clip(1.0 / lam1, lo, hi)
        xi0_hat, mu0_hat = _ep_projection(cb, xor, xi1, eta1, lin, sigma2)
        _finite(xi0_hat, mu0_hat)
        xi0_hat = np.clip(xi0_hat, lo, hi)
        # cavity update: remove each site from its marginal
        lam0 = np.clip(1.0 / xi0_hat - lam1, 1.0 / hi, 1.0 / lo)
        eta0 = mu0_hat / xi0_hat - eta1
        xi0 = 1.0 / lam0
        mu0 = xi0 * eta0
        # tilted moments of the cavity-tilted count prior
        k, v = posterior_moments(mu0, xi0, prior)
        _finite(k, v)
        v = np.clip(v, lo, hi)
        # site update: divide the tilted marginal by the cavity
        lam_raw = 1.0 / v - 1.0 / xi0
        eta_raw = k / v - mu0 / xi0
        valid = lam_raw > 0
        lam_new = np.where(valid, lam_raw, 1.0 / hi)
        eta_new = np.where(valid, eta_raw, 0.0)
        lam1 = (1.0 - damp) * lam_new + damp * lam1
        eta1 = (1.0 - damp) * eta_new + damp * eta1
        lam1 = np.clip(lam1, 1.0 / hi, 1.0 / lo)
        yield k, np.mean(xi0), np.linalg.norm(received.y - snp * apply(cb, k))


_UPDATES = {"amp": _amp, "scalar_amp": _scalar_amp, "ep": _ep}
ALGORITHMS = tuple(_UPDATES)


def decode(received, cb, prior, options):
    """Run the decoder options.algorithm names; returns a DecoderReport.

    Every decoder is a generator that starts from the prior mean and yields
    (k_soft, xi_mean, residual) once per iteration.  The loop stops after
    options.max_iters iterations, or once two consecutive iterations round
    to the same estimate (unless options.early_stop is off).  Non-finite
    decoder state, an input the denoiser refuses, or an EP projection that
    fails to factor, raises DecoderDiverged carrying the report of the last
    accepted estimate.
    """
    k_soft = np.full(cb.m, prior.mean)
    updates = _UPDATES[options.algorithm](received, cb, prior, k_soft)
    xi_track, residual_track = [], []
    iterations, rounded, failure = 0, None, None
    try:
        while iterations < options.max_iters:
            iterations += 1
            k_soft, xi_mean, residual = next(updates)
            xi_track.append(float(xi_mean))
            residual_track.append(float(residual))
            previous, rounded = rounded, round_estimate(k_soft, prior.ka)
            if (options.early_stop and previous is not None
                    and np.array_equal(rounded, previous)):
                break
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        failure = exc
    k_hat = round_estimate(k_soft, prior.ka)
    fallback = k_hat.sum() == 0  # estimated_type needs a nonzero count
    if fallback:
        k_hat[int(np.argmax(k_soft))] = 1
    report = DecoderReport(
        algorithm=options.algorithm, k_hat=k_hat, k_soft=k_soft,
        iterations_run=iterations, xi_track=tuple(xi_track),
        residual_track=tuple(residual_track), fallback_used=bool(fallback),
        diverged=failure is not None)
    if failure is not None:
        raise DecoderDiverged(report) from failure
    return report
