"""Iterative decoders: rounding, reports, exactness, and hand-checked updates.

The single- and double-iteration checks re-derive each decoder's update rule
with dense matrices and plain matmuls, so any drift in the fast-transform
wiring, the scaling between the channel and the rescaled model, or the
correction terms shows up as a mismatch.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtrttf

import tuma.decoders
from oracles import (copying_ep_projection, dense_codebook,
                     dense_ep_projection, exhaustive_posterior_mean,
                     half_away_from_zero, noiseless_transmit)
from tuma import (ALGORITHMS, ConfigError, DecoderDiverged, DecoderOptions,
                  ReceivedSignal, adjoint, decode, estimated_type,
                  grid_codebook, hadamard_codebook, multiplicity_prior,
                  posterior_moments, round_estimate, transmit, trial_rng)
from tuma.decoders import EP_DAMPING, VAR_CEILING
from tuma.denoiser import XI_FLOOR
from tuma.scenario import assign_sensors, draw_targets, true_multiplicity

EPS = np.finfo(float).eps


def make_instance(n, m, ka, ma, snr_db, seed, noiseless=False):
    rng = trial_rng(seed, 0)
    quantizer = grid_codebook(m)
    cb = hadamard_codebook(n, m)
    prior = multiplicity_prior(ka, ma, m)
    states = draw_targets(rng, ma)
    assignment = assign_sensors(rng, ka, ma)
    k = true_multiplicity(states, assignment, quantizer)
    received = (noiseless_transmit(cb, k, snr_db) if noiseless
                else transmit(cb, k, snr_db, rng))
    return cb, prior, k, received


# ---------------------------------------------------------------------------
# rounding and type construction


def test_round_estimate_half_away_from_zero():
    soft = np.array([0.4, 2.5, -0.2, 0.5, 1.5, 2.49])
    assert np.array_equal(round_estimate(soft, 5), [0, 3, 0, 1, 2, 2])


def test_round_estimate_clamps_to_range():
    assert np.array_equal(round_estimate(np.array([7.2, -0.6]), 5), [5, 0])
    assert round_estimate(np.array([1.2]), 5).dtype == np.int64


# signed zeros, infinities, halves, the largest double below one half and
# doubles from 2**52 up, where adding 0.5 itself rounds
_ROUNDING_EDGES = [0.0, -0.0, np.inf, -np.inf, 0.49999999999999994,
                   -0.49999999999999994, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
                   2.0**52 + 1, -(2.0**52 + 1), 2.0**53 + 1, -(2.0**53 + 1)]


@given(soft=st.lists(st.floats(allow_nan=False) | st.floats(-3.0, 2003.0)
                     | st.sampled_from(_ROUNDING_EDGES), max_size=50),
       ka=st.sampled_from([1, 5, 50, 2000]))
@example(soft=_ROUNDING_EDGES, ka=5)
@example(soft=_ROUNDING_EDGES, ka=2000)
def test_round_estimate_matches_half_away_from_zero(soft, ka):
    soft = np.array(soft, dtype=float)
    got = round_estimate(soft, ka)
    assert got.dtype == np.int64
    assert np.array_equal(got, half_away_from_zero(soft, ka))


def test_estimated_type_drops_empty_cells():
    quantizer = grid_codebook(4)
    measure = estimated_type(np.array([2, 0, 1, 0]), quantizer)
    assert np.allclose(measure.weights, [2 / 3, 1 / 3])
    assert np.allclose(measure.locations,
                       quantizer.centroids[[0, 2]])
    assert np.array_equal(measure.counts, [2, 1])


def test_estimated_type_rejects_all_zero_counts():
    # decoder reports are never all zero (the rounding fallback gives the
    # largest soft score a count of one), so an all-zero k_hat is an error
    with pytest.raises(ConfigError):
        estimated_type(np.zeros(4, dtype=np.int64), grid_codebook(4))


def test_estimated_type_rejects_malformed_counts():
    quantizer = grid_codebook(4)
    with pytest.raises(ConfigError):
        estimated_type(np.array([1, 0, 0]), quantizer)
    with pytest.raises(ConfigError):
        estimated_type(np.array([1.0, 0.0, 0.0, 0.0]), quantizer)
    with pytest.raises(ConfigError):
        estimated_type(np.array([1, -1, 0, 0]), quantizer)


# ---------------------------------------------------------------------------
# options


@pytest.mark.parametrize("bad", [
    dict(algorithm="gradient_descent"), dict(max_iters=0),
    dict(early_stop=1), dict(max_iters=2.5), dict(max_iters=True),
], ids=["bad0", "bad1", "bad6", "bad7", "bad8"])
def test_options_validation(bad):
    with pytest.raises(ConfigError):
        DecoderOptions(**bad)


def test_options_store_a_whole_iteration_cap_as_int():
    assert type(DecoderOptions(max_iters=3.0).max_iters) is int
    assert DecoderOptions(max_iters=3.0).max_iters == 3


# ---------------------------------------------------------------------------
# exact recovery and loop behavior


@pytest.mark.parametrize("algorithm", ["amp", "scalar_amp", "ep"])
def test_noiseless_square_codebook_recovers_exactly(algorithm):
    cb, prior, k, received = make_instance(32, 32, 10, 15, 0.0, seed=51,
                                           noiseless=True)
    report = decode(received, cb, prior, DecoderOptions(algorithm=algorithm))
    assert np.array_equal(report.k_hat, k)
    assert not report.diverged and not report.fallback_used


@pytest.mark.parametrize("algorithm", ["amp", "scalar_amp", "ep"])
def test_noiseless_truncated_codebook_recovers_exactly(algorithm):
    cb, prior, k, received = make_instance(32, 64, 10, 15, 0.0, seed=53,
                                           noiseless=True)
    report = decode(received, cb, prior, DecoderOptions(algorithm=algorithm))
    assert np.array_equal(report.k_hat, k)


def test_early_stopping_on_settled_estimates():
    cb, prior, k, received = make_instance(32, 32, 10, 15, 0.0, seed=55,
                                           noiseless=True)
    report = decode(received, cb, prior, DecoderOptions(max_iters=10))
    assert 2 <= report.iterations_run < 10
    assert len(report.xi_track) == report.iterations_run
    assert len(report.residual_track) == report.iterations_run


def test_early_stop_fires_on_consecutive_rounding_repeat(monkeypatch):
    # the scripted estimates round to [1, 2], then [2, 2] (moved), then
    # [2, 2] again (repeat: settled), so every decoder stops after three;
    # n < m, where every decoder iterates
    cb, prior, _, received = make_instance(1, 2, 5, 3, 0.0, seed=61)
    script = [np.array([1.1, 2.0]), np.array([1.9, 2.1]),
              np.array([2.1, 1.8])]
    for algorithm in ALGORITHMS:
        steps = iter(script)
        monkeypatch.setattr(tuma.decoders, "posterior_moments",
                            lambda r, xi, prior, steps=steps:
                            (next(steps), np.full(2, 0.5)))
        report = decode(received, cb, prior,
                        DecoderOptions(algorithm=algorithm))
        assert report.iterations_run == 3
        assert np.array_equal(report.k_soft, script[-1])
        assert len(report.xi_track) == len(report.residual_track) == 3


def test_early_stop_disabled_runs_full_budget():
    cb, prior, k, received = make_instance(32, 32, 10, 15, 0.0, seed=55,
                                           noiseless=True)
    options = DecoderOptions(max_iters=10, early_stop=False)
    report = decode(received, cb, prior, options)
    assert report.iterations_run == 10
    assert np.array_equal(report.k_hat, k)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_decode_rounds_each_estimate_once(algorithm, monkeypatch):
    # k_hat is the loop's last rounding; only a first iteration that fails
    # leaves the prior mean to round after the loop
    cb, prior, _, received = make_instance(32, 64, 10, 15, 0.0, seed=59)
    calls = []
    rounding = tuma.decoders.round_estimate

    def counted(k_soft, ka):
        calls.append(1)
        return rounding(k_soft, ka)

    monkeypatch.setattr(tuma.decoders, "round_estimate", counted)
    options = DecoderOptions(algorithm=algorithm, max_iters=5,
                             early_stop=False)
    report = decode(received, cb, prior, options)
    assert len(calls) == report.iterations_run == 5
    assert np.array_equal(report.k_hat, rounding(report.k_soft, prior.ka))
    calls.clear()
    nan = np.full(cb.m, np.nan)
    monkeypatch.setattr(tuma.decoders, "posterior_moments",
                        lambda r, xi, prior: (nan, nan))
    with pytest.raises(DecoderDiverged):
        decode(received, cb, prior, options)
    assert len(calls) == 1


def test_tracks_shrink_on_noiseless_decodes():
    cb, prior, k, received = make_instance(32, 32, 10, 15, 0.0, seed=57,
                                           noiseless=True)
    report = decode(received, cb, prior, DecoderOptions())
    assert report.xi_track[-1] < report.xi_track[0]
    assert report.residual_track[-1] < report.residual_track[0]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("max_iters", [1, 2, 5])
def test_residual_track_is_the_residual_of_k_soft(algorithm, max_iters):
    # amp once reported its Onsager-corrected ||z|| here instead
    cb, prior, _, received = make_instance(32, 64, 10, 15, 0.0, seed=59)
    options = DecoderOptions(algorithm=algorithm, max_iters=max_iters,
                             early_stop=False)
    report = decode(received, cb, prior, options)
    snp = np.sqrt(cb.n * received.power)
    expected = np.linalg.norm(
        received.y - snp * dense_codebook(cb) @ report.k_soft)
    assert len(report.residual_track) == max_iters
    assert abs(report.residual_track[-1] - expected) <= 1e-12 * expected


def test_pure_noise_falls_back_to_single_atom():
    cb = hadamard_codebook(64, 64)
    prior = multiplicity_prior(5, 3, 64)
    received = transmit(cb, np.zeros(64, dtype=np.int64), -30.0,
                        trial_rng(59, 0))
    report = decode(received, cb, prior, DecoderOptions())
    assert report.fallback_used
    assert report.k_hat.sum() == 1
    measure = estimated_type(report.k_hat, grid_codebook(64))
    assert measure.size == 1


def test_decode_dispatches_by_algorithm():
    cb, prior, _, received = make_instance(16, 16, 5, 3, 0.0, seed=61)
    soft = []
    for algorithm in ALGORITHMS:
        report = decode(received, cb, prior,
                        DecoderOptions(algorithm=algorithm))
        assert report.algorithm == algorithm
        soft.append(report.k_soft)
    # each algorithm runs its own update, so no two estimates coincide
    assert len({k_soft.tobytes() for k_soft in soft}) == len(ALGORITHMS)


@pytest.mark.parametrize("n,m", [(32, 64), (64, 32)])
@pytest.mark.parametrize("algorithm", ["amp", "scalar_amp"])
def test_amp_decoders_transform_each_estimate_forward_once(algorithm, n, m,
                                                           monkeypatch):
    # one forward transform of the initial estimate, then one per iteration
    # for the new estimate, reused by the residual and the next iteration
    cb, prior, _, received = make_instance(n, m, 10, 15, -3.0, seed=67)
    calls = []
    forward = tuma.decoders.apply

    def counted(cb, x):
        calls.append(x.shape)
        return forward(cb, x)

    monkeypatch.setattr(tuma.decoders, "apply", counted)
    options = DecoderOptions(algorithm=algorithm, max_iters=7,
                             early_stop=False)
    report = decode(received, cb, prior, options)
    assert report.iterations_run == 7 and not report.diverged
    assert len(calls) == options.max_iters + 1


@pytest.mark.parametrize("n,m", [(32, 64), (64, 32)])
def test_scalar_amp_squares_once_per_iteration(n, m, monkeypatch):
    # the first iteration has no correction term, so no squared transform
    # runs before the loop
    cb, prior, _, received = make_instance(n, m, 10, 15, -3.0, seed=67)
    calls = []
    for name in ("sq_apply", "sq_adjoint"):
        def counted(cb, x, name=name, transform=getattr(tuma.decoders, name)):
            calls.append(name)
            return transform(cb, x)

        monkeypatch.setattr(tuma.decoders, name, counted)
    options = DecoderOptions(algorithm="scalar_amp", max_iters=7,
                             early_stop=False)
    report = decode(received, cb, prior, options)
    assert report.iterations_run == 7 and not report.diverged
    assert calls.count("sq_apply") == report.iterations_run
    assert calls.count("sq_adjoint") == report.iterations_run


@pytest.mark.parametrize("algorithm", ["amp", "scalar_amp", "ep"])
def test_divergence_raises_with_last_finite_report(algorithm, monkeypatch):
    cb, prior, _, received = make_instance(16, 16, 5, 3, 0.0, seed=63)

    def poisoned(r, xi, prior):
        shape = np.shape(r) or (1,)
        return np.full(shape, np.nan), np.full(shape, np.nan)

    monkeypatch.setattr(tuma.decoders, "posterior_moments", poisoned)
    options = DecoderOptions(algorithm=algorithm)
    with pytest.raises(DecoderDiverged) as excinfo:
        decode(received, cb, prior, options)
    report = excinfo.value.report
    assert report.diverged
    assert report.algorithm == algorithm
    assert report.iterations_run == 1
    assert report.xi_track == () and report.residual_track == ()
    assert np.all(np.isfinite(report.k_soft))
    assert np.all(np.isfinite(report.k_hat))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_out_of_range_observation_raises_diverged(algorithm):
    # finite observations too large for the denoiser end the decode as a
    # divergence, not as the denoiser's ConfigError
    cb, prior, _, _ = make_instance(16, 16, 5, 3, 0.0, seed=63)
    received = ReceivedSignal(y=np.full(16, 1e150), power=1.0)
    with pytest.raises(DecoderDiverged) as excinfo:
        decode(received, cb, prior, DecoderOptions(algorithm=algorithm))
    assert isinstance(excinfo.value.__cause__, FloatingPointError)
    report = excinfo.value.report
    assert report.diverged and report.iterations_run == 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_xi_track_stays_in_the_variance_range(algorithm):
    # an observation far past the prior's reach drives amp's measured
    # variance ||z||^2 / (n nP) to about 6e16 before the clamp
    cb, prior, _, _ = make_instance(16, 16, 5, 3, 0.0, seed=63)
    received = ReceivedSignal(y=np.full(16, 1e9), power=1.0)
    report = decode(received, cb, prior, DecoderOptions(algorithm=algorithm))
    assert report.xi_track
    assert all(XI_FLOOR <= xi <= VAR_CEILING for xi in report.xi_track)


@pytest.mark.parametrize("factorization", ["dpftrf", "dpftri"])
def test_ep_non_positive_definite_projection_raises_diverged(factorization,
                                                             monkeypatch):
    # LAPACK reports failure through info > 0, not an exception; the second
    # projection's factorization is made to report it
    cb, prior, _, received = make_instance(12, 32, 5, 3, 0.0, seed=65)
    options = DecoderOptions(algorithm="ep", max_iters=5, early_stop=False)
    first = decode(received, cb, prior,
                   DecoderOptions(algorithm="ep", max_iters=1))
    real = getattr(tuma.decoders, factorization)
    calls = []

    def fails_second_time(*args, **kwargs):
        calls.append(1)
        out, info = real(*args, **kwargs)
        return out, (info if len(calls) == 1 else 7)

    monkeypatch.setattr(tuma.decoders, factorization, fails_second_time)
    with pytest.raises(DecoderDiverged) as excinfo:
        decode(received, cb, prior, options)
    report = excinfo.value.report
    assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)
    assert report.diverged and report.iterations_run == 2
    assert np.array_equal(report.k_soft, first.k_soft)
    assert np.array_equal(report.k_hat, first.k_hat)


@pytest.mark.parametrize("routine", ["dpftrf", "dpftrs", "dpftri"])
def test_ep_illegal_lapack_argument_is_a_bug_not_a_divergence(routine,
                                                              monkeypatch):
    # info < 0 names an illegal argument: decode must not report it as
    # DecoderDiverged, which the harness counts as a result
    cb, prior, _, received = make_instance(12, 32, 5, 3, 0.0, seed=65)
    real = getattr(tuma.decoders, routine)

    def illegal(*args, **kwargs):
        out, _ = real(*args, **kwargs)
        return out, -1

    monkeypatch.setattr(tuma.decoders, routine, illegal)
    with pytest.raises(ValueError, match="illegal value in argument 1"):
        decode(received, cb, prior, DecoderOptions(algorithm="ep"))


# ---------------------------------------------------------------------------
# hand-checked update rules


def amp_reference(received, dense, prior, iterations):
    """The matched-filter recursion with its residual correction, written out."""
    n, m = dense.shape
    npw = n * received.power
    snp = np.sqrt(npw)
    k = np.full(m, prior.mean)
    z = received.y - snp * (dense @ k)
    for _ in range(iterations):
        xi = max(float(z @ z) / (n * npw), XI_FLOOR)
        r = dense.T @ z / snp + k
        k, g = posterior_moments(r, xi, prior)
        correction = (m / n) * float(np.mean(g)) / xi
        z = received.y - snp * (dense @ k) + correction * z
    return k


def scalar_amp_reference(received, dense, prior, iterations):
    """The per-coordinate variance recursion, written out densely."""
    n, m = dense.shape
    npw = n * received.power
    snp = np.sqrt(npw)
    sigma2 = 1.0 / npw
    squared = dense**2
    ys = received.y / snp
    k = np.full(m, prior.mean)
    v_soft = np.full(m, prior.var)
    z = ys.copy()
    v = squared @ v_soft
    for _ in range(iterations):
        v_new = squared @ v_soft
        z = dense @ k - v_new * (ys - z) / (sigma2 + v)
        v = v_new
        scaled = (ys - z) / (sigma2 + v)
        xi = 1.0 / (squared.T @ (1.0 / (sigma2 + v)))
        r = k + xi * (dense.T @ scaled)
        xi = np.clip(xi, XI_FLOOR, VAR_CEILING)
        k, v_soft = posterior_moments(r, xi, prior)
    return k


def ep_reference(received, cb, prior, iterations):
    """The EP site recursion, written out with the dense projection."""
    m = cb.m
    npw = cb.n * received.power
    sigma2 = 1.0 / npw
    lin = dense_codebook(cb).T @ (received.y / np.sqrt(npw)) / sigma2
    var0 = np.clip(prior.var, XI_FLOOR, VAR_CEILING)
    lam1 = np.full(m, 1.0 / var0)
    eta1 = np.full(m, prior.mean / var0)
    for _ in range(iterations):
        xi1 = np.clip(1.0 / lam1, XI_FLOOR, VAR_CEILING)
        xi_hat, mu_hat = dense_ep_projection(cb, xi1, eta1, lin, sigma2)
        xi_hat = np.clip(xi_hat, XI_FLOOR, VAR_CEILING)
        xi0 = 1.0 / np.clip(1.0 / xi_hat - lam1, 1.0 / VAR_CEILING,
                            1.0 / XI_FLOOR)
        mu0 = xi0 * (mu_hat / xi_hat - eta1)
        k, v = posterior_moments(mu0, xi0, prior)
        v = np.clip(v, XI_FLOOR, VAR_CEILING)
        lam_site = 1.0 / v - 1.0 / xi0
        valid = lam_site > 0
        lam_site = np.where(valid, lam_site, 1.0 / VAR_CEILING)
        eta_site = np.where(valid, k / v - mu0 / xi0, 0.0)
        lam1 = np.clip((1.0 - EP_DAMPING) * lam_site + EP_DAMPING * lam1,
                       1.0 / VAR_CEILING, 1.0 / XI_FLOOR)
        eta1 = (1.0 - EP_DAMPING) * eta_site + EP_DAMPING * eta1
    return k


@pytest.mark.parametrize("n,m", [(2, 4), (4, 4), (8, 4), (64, 32)])
@pytest.mark.parametrize("iterations", [1, 2])
def test_amp_iterations_match_dense_reference(n, m, iterations):
    cb, prior, _, received = make_instance(n, m, 3, 2, 0.0, seed=67)
    report = decode(received, cb, prior,
                    DecoderOptions(max_iters=iterations))
    reference = amp_reference(received, dense_codebook(cb), prior, iterations)
    assert report.iterations_run == iterations
    assert np.abs(report.k_soft - reference).max() < 1e-10


@pytest.mark.parametrize("n,m", [(2, 4), (4, 4), (8, 4), (64, 32)])
@pytest.mark.parametrize("iterations", [1, 2])
def test_scalar_amp_iterations_match_dense_reference(n, m, iterations):
    cb, prior, _, received = make_instance(n, m, 3, 2, 0.0, seed=71)
    options = DecoderOptions(algorithm="scalar_amp", max_iters=iterations)
    report = decode(received, cb, prior, options)
    reference = scalar_amp_reference(received, dense_codebook(cb), prior,
                                     iterations)
    assert report.iterations_run == iterations
    assert np.abs(report.k_soft - reference).max() < 1e-10


# On these noisy instances EP's site recursion amplifies a roundoff-level
# change in the projection about tenfold per iteration from the fourth on
# (the XOR and dense projections differ by ~1e-14 after two iterations and
# by up to 2e-6 after ten), so the full ten-iteration budget is held to
# 1e-5 and the first two iterations to 1e-12.
@pytest.mark.parametrize("n,m,ka,ma,snr_db", [(12, 32, 5, 3, 0.0),
                                              (60, 256, 20, 10, -6.0)])
@pytest.mark.parametrize("iterations,tol", [(2, 1e-12), (10, 1e-5)])
def test_ep_iterations_match_dense_reference(n, m, ka, ma, snr_db,
                                             iterations, tol):
    cb, prior, _, received = make_instance(n, m, ka, ma, snr_db, seed=89)
    options = DecoderOptions(algorithm="ep", max_iters=iterations,
                             early_stop=False)
    report = decode(received, cb, prior, options)
    reference = ep_reference(received, cb, prior, iterations)
    assert report.iterations_run == iterations
    assert np.abs(report.k_soft - reference).max() < tol


# ---------------------------------------------------------------------------
# moment matching against exhaustive posteriors


def test_ep_matches_exhaustive_posterior_two_messages():
    cb, prior, _, received = make_instance(2, 2, 1, 1, 0.0, seed=73)
    report = decode(received, cb, prior,
                    DecoderOptions(algorithm="ep", max_iters=50))
    exact = exhaustive_posterior_mean(received, cb, prior,
                                      itertools.product(range(2), repeat=2))
    assert np.abs(report.k_soft - exact).max() < 1e-6


def test_ep_matches_exhaustive_posterior_four_messages():
    cb, prior, _, received = make_instance(4, 4, 3, 2, 0.0, seed=79)
    report = decode(received, cb, prior,
                    DecoderOptions(algorithm="ep", max_iters=50))
    exact = exhaustive_posterior_mean(received, cb, prior,
                                      itertools.product(range(4), repeat=4))
    assert np.abs(report.k_soft - exact).max() < 1e-6


def test_ep_high_snr_matches_constrained_enumeration():
    # with one sensor the true support is one count somewhere; at high SNR
    # the per-message model and the constrained one give the same answer
    cb, prior, k, received = make_instance(2, 2, 1, 1, 12.0, seed=83)
    report = decode(received, cb, prior,
                    DecoderOptions(algorithm="ep", max_iters=50))
    exact = exhaustive_posterior_mean(received, cb, prior, [(1, 0), (0, 1)])
    assert np.abs(report.k_soft - exact).max() < 1e-2
    assert np.array_equal(report.k_hat, k)


@pytest.mark.parametrize("n,m,ka,ma,snr_db", [
    (16, 16, 5, 3, 0.0), (32, 32, 10, 15, 0.0), (64, 32, 10, 15, -3.0),
    (500, 64, 100, 10, -27.0), (500, 256, 100, 10, -27.0)])
@pytest.mark.parametrize("early_stop", [True, False])
def test_ep_is_the_exact_posterior_on_orthonormal_columns(n, m, ka, ma,
                                                           snr_db,
                                                           early_stop):
    # C^T C = I, so C^T y / sqrt(nP) = k + N(0, I/(nP)) is sufficient and
    # one posterior call at xi = 1/(nP) is the exact marginal posterior
    options = DecoderOptions(algorithm="ep", early_stop=early_stop)
    for seed in range(30):
        cb, prior, _, received = make_instance(n, m, ka, ma, snr_db, seed)
        npw = n * received.power
        exact, _ = posterior_moments(adjoint(cb, received.y) / np.sqrt(npw),
                                     1.0 / npw, prior)
        k_hat = round_estimate(exact, ka)
        if k_hat.sum() == 0:  # decode's fallback
            k_hat[int(np.argmax(exact))] = 1
        report = decode(received, cb, prior, options)
        assert np.array_equal(report.k_soft, exact)
        assert np.array_equal(report.k_hat, k_hat)


@pytest.mark.parametrize("n,m", [(16, 16), (64, 32)])
def test_ep_calls_the_posterior_once_on_orthonormal_columns(n, m,
                                                            monkeypatch):
    # the one call is EP's fixed point, so later iterations repeat it, and
    # its residual is transformed once
    cb, prior, _, received = make_instance(n, m, 10, 15, 0.0, seed=61)
    calls, applies = [], []
    moments, forward = tuma.decoders.posterior_moments, tuma.decoders.apply

    def counted(r, xi, prior):
        calls.append(np.shape(r))
        return moments(r, xi, prior)

    def counted_apply(cb, x):
        applies.append(x.shape)
        return forward(cb, x)

    monkeypatch.setattr(tuma.decoders, "posterior_moments", counted)
    monkeypatch.setattr(tuma.decoders, "apply", counted_apply)
    options = DecoderOptions(algorithm="ep", max_iters=10, early_stop=False)
    report = decode(received, cb, prior, options)
    assert report.iterations_run == 10 and not report.diverged
    assert calls == [(m,)]
    assert applies == [(m,)]
    assert len(set(report.xi_track)) == len(set(report.residual_track)) == 1


# ---------------------------------------------------------------------------
# structured EP projection against the dense Woodbury oracle


def projection_error_scale(cb, xi1, w, sigma2):
    """Per-coordinate forward-error scale of the Woodbury projection.

    xi0 = xi1 - xi1^2 c_i^T S^{-1} c_i rounds at eps xi1 in the subtraction,
    and the quadratic form inherits the forward error of S^{-1}, about
    eps kappa(S) / lambda_min(S) for a unit-norm column.  The mean
    w - xi1 C^T S^{-1} C w likewise rounds at eps |w| and carries
    eps kappa(S) ||C w|| / lambda_min(S), with ||C w|| <= ||w||_1 since
    every entry of C is +-1/sqrt(n).  Both the fast and the dense path obey
    these scales, so a correct fast path differs from the oracle by a small
    multiple of them.
    """
    dense = dense_codebook(cb)
    eig = np.linalg.eigvalsh((dense * xi1) @ dense.T + sigma2 * np.eye(cb.n))
    growth = eig[-1] / eig[0] ** 2  # kappa(S) / lambda_min(S)
    var_scale = EPS * (xi1 + growth * xi1**2)
    mean_scale = EPS * (np.abs(w) + growth * xi1 * np.abs(w).sum())
    return var_scale, mean_scale


@st.composite
def truncated_geometries(draw, max_bits=9):
    m = 2 ** draw(st.sampled_from(range(1, max_bits + 1)))
    n = draw(st.one_of(st.just(1), st.just(m - 1),
                       st.integers(1, max(1, m // 4)), st.integers(1, m - 1)))
    return n, m


# Where the conditioning allows, fast and dense agree to 1e-12 relative.
# Elsewhere (S ill-conditioned, or xi0 cancelling far below xi1) the
# agreement required is 64 times the forward-error scale above; over 400
# random draws the observed gap stayed under 4 times that scale.
@given(geometry=truncated_geometries(),
       exponents=st.tuples(st.floats(-12, 12), st.floats(-12, 12)),
       sigma2_db=st.floats(-30, 30), seed=st.integers(0, 2**32 - 1))
@example(geometry=(250, 1024), exponents=(-1.0, 1.0), sigma2_db=-12.0,
         seed=0)
@example(geometry=(1024, 4096), exponents=(-1.0, 1.0), sigma2_db=-12.0,
         seed=0)
@settings(max_examples=200)
def test_ep_projection_matches_dense_oracle(geometry, exponents, sigma2_db,
                                            seed):
    n, m = geometry
    cb = hadamard_codebook(n, m)
    rng = np.random.default_rng(seed)
    xi1 = 10.0 ** rng.uniform(min(exponents), max(exponents), m)
    sigma2 = 10.0 ** (sigma2_db / 10)
    eta1 = rng.normal(0.0, 3.0, m) / xi1
    lin = rng.normal(0.0, 3.0, m) / sigma2
    try:
        xi_ref, mu_ref = dense_ep_projection(cb, xi1, eta1, lin, sigma2)
    except np.linalg.LinAlgError:
        reject()  # the oracle itself cannot factor S
    xi_fast, mu_fast = tuma.decoders._ep_projection(
        cb, tuma.decoders._ep_workspace(cb), xi1, eta1, lin, sigma2)
    var_scale, mean_scale = projection_error_scale(cb, xi1,
                                                   xi1 * (eta1 + lin), sigma2)
    assert np.all(np.abs(xi_fast - xi_ref)
                  <= np.maximum(1e-12 * np.abs(xi_ref), 64 * var_scale))
    assert np.all(np.abs(mu_fast - mu_ref)
                  <= np.maximum(1e-12 * np.abs(mu_ref), 64 * mean_scale))


def test_ep_projection_memory_is_bounded_at_largest_size():
    n, m = 250, 2**18
    cb = hadamard_codebook(n, m)
    rng = np.random.default_rng(97)
    xi1 = rng.uniform(0.1, 2.0, m)
    eta1 = rng.normal(0.0, 1.0, m)
    lin = rng.normal(0.0, 10.0, m)
    tracemalloc.start()
    try:
        tuma.decoders._ep_projection(cb, tuma.decoders._ep_workspace(cb), xi1,
                                     eta1, lin, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense n x m float64 array alone would take 524 MB
    assert peak <= 16 * 2**20


# ---------------------------------------------------------------------------
# the workspace's key table against LAPACK's own packing


# RFP lays out odd and even orders differently, and 1 is a lone diagonal
@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 250, 251, 1024])
def test_ep_workspace_keys_are_the_rfp_packed_xor_table(n):
    cb = hadamard_codebook(n, 4096)
    keys, buf = tuma.decoders._ep_workspace(cb)
    table = np.bitwise_xor.outer(cb.row_ids, cb.row_ids).astype(float)
    expected, info = dtrttf(table, uplo="L")  # keys < 2**53 are exact
    assert info == 0
    assert keys.dtype == np.intp and buf.shape == keys.shape
    assert np.array_equal(keys, expected)


# ---------------------------------------------------------------------------
# the in-place projection against the copying one it replaced
#
# EP amplifies a roundoff-level change in the projection about tenfold per
# iteration, so no tolerance could tell a reordered sum from a wrong one:
# the in-place path does the copying path's floating-point operations in
# the same order, and these tests hold it to equality.


@given(geometry=truncated_geometries(),
       exponents=st.tuples(st.floats(-12, 12), st.floats(-12, 12)),
       sigma2_db=st.floats(-30, 30), seed=st.integers(0, 2**32 - 1))
@example(geometry=(250, 1024), exponents=(-1.0, 1.0), sigma2_db=-12.0,
         seed=0)
@example(geometry=(1024, 4096), exponents=(-1.0, 1.0), sigma2_db=-12.0,
         seed=0)
@settings(max_examples=200)
def test_ep_projection_is_bit_identical_to_copying_projection(
        geometry, exponents, sigma2_db, seed):
    n, m = geometry
    cb = hadamard_codebook(n, m)
    _, buf = work = tuma.decoders._ep_workspace(cb)
    buf.fill(np.nan)  # the projection must read only what it writes
    rng = np.random.default_rng(seed)
    xi1 = 10.0 ** rng.uniform(min(exponents), max(exponents), m)
    sigma2 = 10.0 ** (sigma2_db / 10)
    eta1 = rng.normal(0.0, 3.0, m) / xi1
    lin = rng.normal(0.0, 3.0, m) / sigma2
    try:
        expected = copying_ep_projection(cb, work, xi1, eta1, lin, sigma2)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            tuma.decoders._ep_projection(cb, work, xi1, eta1, lin, sigma2)
        return
    got = tuma.decoders._ep_projection(cb, work, xi1, eta1, lin, sigma2)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])


@pytest.mark.parametrize("n,m,ka,ma,snr_db", [(12, 32, 5, 3, 0.0),
                                              (60, 256, 20, 10, -6.0),
                                              (250, 1024, 50, 150, -12.0)])
@pytest.mark.parametrize("early_stop", [True, False])
def test_ep_decode_is_bit_identical_to_copying_projection(
        n, m, ka, ma, snr_db, early_stop, monkeypatch):
    options = DecoderOptions(algorithm="ep", early_stop=early_stop)
    scenes = [make_instance(n, m, ka, ma, snr_db, seed) for seed in (5, 6)]
    reports = [decode(received, cb, prior, options)
               for cb, prior, _, received in scenes]
    monkeypatch.setattr(tuma.decoders, "_ep_projection",
                        copying_ep_projection)
    for (cb, prior, _, received), report in zip(scenes, reports):
        expected = decode(received, cb, prior, options)
        assert report.iterations_run == expected.iterations_run
        assert np.array_equal(report.k_soft, expected.k_soft)
        assert report.xi_track == expected.xi_track
        assert report.residual_track == expected.residual_track


def test_ep_projection_allocates_no_square_matrix():
    # the copying projection peaks at about five n x n float64 arrays
    n, m = 250, 1024
    cb = hadamard_codebook(n, m)
    work = tuma.decoders._ep_workspace(cb)
    rng = np.random.default_rng(101)
    xi1 = rng.uniform(0.1, 2.0, m)
    eta1 = rng.normal(0.0, 1.0, m)
    lin = rng.normal(0.0, 10.0, m)
    tracemalloc.start()
    try:
        tuma.decoders._ep_projection(cb, work, xi1, eta1, lin, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * n


def test_ep_workspace_memory_is_bounded_at_n_1024():
    # 8 n^2 bytes: the packed XOR keys and one buffer; the build's
    # n^2/4-byte triangular mask is freed before the buffer is made
    n, m = 1024, 4096
    cb = hadamard_codebook(n, m)
    tracemalloc.start()
    try:
        work = tuma.decoders._ep_workspace(cb)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert work is not None
    assert held <= tuma.decoders._EP_WORKSPACE_BYTES * n * n
    assert peak <= tuma.decoders._EP_WORKSPACE_BYTES * n * n


def test_ep_decode_does_not_carry_state_between_decodes():
    options = DecoderOptions(algorithm="ep", early_stop=False)
    cb, prior_a, _, received_a = make_instance(60, 256, 20, 10, -6.0, 11)
    _, prior_b, _, received_b = make_instance(60, 256, 20, 10, -6.0, 12)
    first = decode(received_a, cb, prior_a, options)
    decode(received_b, cb, prior_b, options)
    again = decode(received_a, cb, prior_a, options)
    assert np.array_equal(first.k_soft, again.k_soft)
    assert first.xi_track == again.xi_track
    assert first.residual_track == again.residual_track
