"""
Iterative Bayesian decoders for multiplicity recovery.

All three decoders estimate the multiplicity vector k from
y = sqrt(nP) C k + z using the same scalar count posterior (denoiser) and
differ in how they track the effective observation and its uncertainty:

  amp        -- approximate message passing: matched-filter statistic with an
                Onsager-corrected residual z and one noise variance per
                iteration, measured as xi = ||z||^2 / (n nP);
  scalar_amp -- the same recursion with the generalized-AMP variance rule:
                xi and the Onsager term are predicted from the denoiser
                variance through the elementwise-squared codebook;
  ep         -- expectation propagation: Gaussian sites per coordinate, an
                exact multivariate Gaussian projection of the full likelihood,
                and moment matching against the count prior.

On a codebook with orthonormal columns (n >= m), C^T y / sqrt(nP) is
exactly k + N(0, I/(nP)), so one posterior_moments call on it at
xi = 1/(nP) is the exact marginal posterior, and ep makes that one call
there (it is EP's fixed point).  amp and scalar_amp still run the AMP
recursion, whose Onsager term was derived for i.i.d. matrices, on this
orthogonal matrix, and do worse (README.md gives the measured TV).

Each decoder is a private generator of per-iteration updates (_amp serves
both AMP variance rules, _ep the third); decode, the one entry point, runs
them all through one loop.  It reports the soft posterior-mean estimate,
the rounded and clamped integer estimate, and per-iteration diagnostics.
Iterations stop early once the rounded estimate repeats (disable via
options.early_stop to run the full iteration budget); non-finite state, or
an input the denoiser refuses, raises DecoderDiverged carrying a report
built from the last finite estimate.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg.lapack import dpftrf, dpftri, dpftrs

from .scenario import _require, _whole
from .codebooks import adjoint, apply, fwht, sq_adjoint, sq_apply
from .denoiser import VAR_CEILING, XI_FLOOR, posterior_moments

# EP site updates in natural parameters: new = (1 - d) raw + d old.
EP_DAMPING = 0.3

# Bytes per n^2 that an EP workspace (_ep_workspace) holds and its build
# peaks at, 8 + 8/n, rounded up; tests/test_decoders.py measures it at
# n = 1024, and harness.MAX_EP_N is derived from it.
_EP_WORKSPACE_BYTES = 9


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
    """Round half away from zero, then clamp into [0, ka].

    On the negative half-line half away from zero and half up differ, but
    both land at or below 0, where the clamp takes them, so half up alone
    gives the same integers.
    """
    rounded = np.floor(np.asarray(k_soft, dtype=float) + 0.5)
    return np.clip(rounded, 0, ka).astype(np.int64)


def _finite(*arrays):
    """Raise FloatingPointError unless every array is finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise FloatingPointError("non-finite decoder state")


def _amp(received, cb, prior, k, predicted=False):
    """AMP; predicted picks the variance rule that tells scalar_amp from amp.

    Per iteration: r = C^T z / sqrt(nP) + k_hat is treated as k + N(0, xi),
    the denoiser returns the new k_hat and its variance g, and the next
    z = (y - sqrt(nP) C k_hat) + c z_prev carries the Onsager term; the
    residual reported is the part before that term.  The two rules:

      measured  (amp)        -- xi = ||z||^2 / (n nP), c = (m/n) <g> / xi_prev
                                (Bayati and Montanari, arXiv 1001.3448);
      predicted (scalar_amp) -- generalized AMP (Rangan, arXiv 1010.5141):
                                with v = |C|^2 g and sigma2 = 1/(nP),
                                xi = 1 / ((|C|^2)^T (sigma2 + v)^{-1}) and
                                the per-row c = v / (sigma2 + v_prev).

    On a Hadamard codebook the |C|^2 products are constant on the kept
    rows, so generalized AMP's pseudo-observation is this r and every entry
    of the predicted xi has the same value; c is zero on the padding rows
    (n > m).  xi is still formed as an m-vector of that value, so
    posterior_moments takes its per-coordinate path (a scalar xi gives the
    same moments bit for bit).
    An infinite previous variance makes the first c zero, and xi is
    clamped into [XI_FLOOR, VAR_CEILING].
    """
    n, m = cb.n, cb.m
    npw = n * received.power
    snp = np.sqrt(npw)
    sigma2 = 1.0 / npw
    g, xi, v = np.full(m, prior.var), np.inf, np.inf
    z = residual = received.y - snp * apply(cb, k)
    while True:
        if predicted:
            v_prev, v = v, sq_apply(cb, g)
            c = v / (sigma2 + v_prev)
        else:
            c = (m / n) * float(np.mean(g)) / xi
        z = residual + c * z
        if predicted:
            with np.errstate(over="ignore"):
                xi = 1.0 / sq_adjoint(cb, 1.0 / (sigma2 + v))
        else:
            xi = float(z @ z) / (n * npw)
        r = adjoint(cb, z) / snp + k
        xi = np.clip(xi, XI_FLOOR, VAR_CEILING)
        k, g = posterior_moments(r, xi, prior)
        _finite(k, g)
        residual = received.y - snp * apply(cb, k)
        yield k, np.mean(xi), np.linalg.norm(residual)


def _ep_workspace(cb):
    """Build _ep_projection's workspace for cb, whose n is below its m.

    Returns the pair (keys, buf).  Both hold the n(n+1)/2 entries of an
    n x n lower triangle in LAPACK's Rectangular Full Packed order
    (TRANSR = 'N', UPLO = 'L'):

    keys -- r_a XOR r_b over the kept Sylvester rows, as intp so bincount
            reads them without a copy
    buf  -- float64 buffer that S, its Cholesky factor and S^{-1} take
            turns in

    RFP stores the lower triangle of order n as an (n + 1 - n % 2) x
    ceil(n/2) Fortran array whose column j ends with column j of the
    triangle; above it sits row j (n even) or row j - 1 (n odd) of the
    trailing triangle, of order floor(n/2).  Read row-major, that array is
    keys.reshape(ceil(n/2), -1), so one broadcast XOR of the leading
    ceil(n/2) row ids against all of them writes the columns, and one more,
    under a triangular where-mask, writes the trailing triangle above
    them.  The workspace holds 8 n^2 bytes (keys and buffer, 4 n^2 each);
    the mask is freed before the buffer is made (_EP_WORKSPACE_BYTES).
    """
    n, row = cb.n, cb.row_ids
    half, odd = n // 2, n % 2
    keys = np.empty(n * (n + 1) // 2, dtype=np.intp)
    rfp = keys.reshape(n - half, n + 1 - odd)
    np.bitwise_xor(row[: n - half, None], row, out=rfp[:, 1 - odd:])
    np.bitwise_xor(row[n - half:, None], row[n - half:],
                   out=rfp[odd:, :half], where=np.tri(half, dtype=bool))
    return keys, np.empty(keys.size)


def _lapack(routine, *args, **kwargs):
    """Call one of _ep_projection's RFP routines (pftrf, pftrs, pftri) on
    the lower triangle and return its array, raising on its info:

      info > 0 -- S is not positive definite (pftrf met a non-positive
                  pivot, or pftri a zero one): numpy.linalg.LinAlgError,
                  which decode reports as DecoderDiverged;
      info < 0 -- argument -info was illegal, a bug: ValueError.
    """
    out, info = routine(*args, uplo="L", **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK "
                         f"{routine.__name__}")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"EP projection matrix is not positive definite (info={info})")
    return out


def _ep_projection(cb, work, xi1, eta1, lin, sigma2):
    """Marginal variances/means of N(mu1, Xi1) x N(y'; C k, sigma2 I).

    lin is the likelihood's linear natural parameter C^T y' / sigma2, and
    n < m (at n >= m, _ep makes one posterior call and no projection).  The
    Woodbury identity
    (Xi1^{-1} + C^T C / sigma2)^{-1}
        = Xi1 - Xi1 C^T S^{-1} C Xi1,   S = sigma2 I + C Xi1 C^T,
    moves the work to the n side, and C is never materialized: with
    c_a the kept Sylvester rows r_a and H[p] H[q] = H[p XOR q] elementwise,

        S[a, b]           = sigma2 [a == b] + scale^2 fwht(xi1)[r_a XOR r_b]
        c_i^T S^{-1} c_i  = scale^2 fwht(g)[i],
        g                 = bincount(r_a XOR r_b, weights=S^{-1}[a, b]),

    so S's lower triangle is one FWHT plus a gather through the keys (key
    0 is the diagonal and nothing else, so sigma2 goes on the transform's
    entry 0) and the variance diagonal is one more FWHT.  The mean is
    w - xi1 C^T S^{-1} C w with w = xi1 (eta1 + lin).

    work is the pair (keys, buf) that _ep_workspace builds once per decode,
    and the triangle lives in buf in RFP order: LAPACK pftrf factors it in
    place, pftrs solves for the mean on that factor, and pftri overwrites
    the factor with the lower triangle of S^{-1}, which one bincount sums.
    Each call costs O(n^3 + m log m) time and allocates O(n + m) beyond
    the workspace.  _lapack checks each routine's status: an S that is not
    positive definite raises numpy.linalg.LinAlgError.
    """
    n, (keys, buf) = cb.n, work
    scale2 = cb.scale**2
    # Arithmetic on m-vectors is in place, and one vector holds S's
    # distinct entries, then w, then the mean, because at large m each
    # vector costs O(m) memory.
    mu0_hat = fwht(xi1)
    mu0_hat *= scale2
    mu0_hat[0] += sigma2
    np.take(mu0_hat, keys, out=buf, mode="clip")  # clip is unbuffered
    _lapack(dpftrf, n, buf, overwrite_a=1)
    np.add(eta1, lin, out=mu0_hat)
    mu0_hat *= xi1  # w
    solved = _lapack(dpftrs, n, buf, apply(cb, mu0_hat), overwrite_b=1)
    _lapack(dpftri, n, buf, overwrite_a=1)
    # r_a XOR r_b and S^{-1} are symmetric and the XOR's diagonal is 0, so
    # g is twice the lower triangle's weighted count less the trace, which
    # is that count's bin 0, and fwht(e_0) is all ones.
    xi0_hat = np.bincount(keys, weights=buf, minlength=cb.m)
    trace = xi0_hat[0]
    xi0_hat = fwht(xi0_hat)
    xi0_hat *= -2.0 * scale2
    xi0_hat += scale2 * trace
    xi0_hat *= xi1**2
    xi0_hat += xi1
    correction = adjoint(cb, solved)
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

    On a codebook with orthonormal columns (n >= m) no site iteration runs:
    with C^T C = I every projection leaves the cavity at the likelihood
    N(C^T y', sigma2), so EP's fixed point is the first iteration's one
    posterior_moments call at xi = sigma2 (clamped like a cavity).  That
    estimate, that xi and its residual, computed once, are yielded at every
    iteration.

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
    if cb.orthonormal_columns:
        xi = np.clip(sigma2, lo, hi)
        k, v = posterior_moments(adjoint(cb, received.y) / snp, xi, prior)
        _finite(k, v)
        residual = np.linalg.norm(received.y - snp * apply(cb, k))
        while True:
            yield k, xi, residual

    lin = snp * adjoint(cb, received.y)  # C^T y' / sigma2 = sqrt(nP) C^T y
    work = _ep_workspace(cb)
    var0 = np.clip(prior.var, lo, hi)
    lam1 = np.full(cb.m, 1.0 / var0)
    eta1 = k / var0
    while True:
        # Gaussian projection of sites x likelihood
        xi1 = np.clip(1.0 / lam1, lo, hi)
        xi0_hat, mu0_hat = _ep_projection(cb, work, xi1, eta1, lin, sigma2)
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


_UPDATES = {"amp": _amp, "scalar_amp": partial(_amp, predicted=True),
            "ep": _ep}
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
    k_hat = round_estimate(k_soft, prior.ka) if rounded is None else rounded
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
