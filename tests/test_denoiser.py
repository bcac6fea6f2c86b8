"""Count prior and scalar posterior computations.

Oracles here are written from the generative definitions: the prior against
an exact-combinatorics direct sum in extended precision, the posterior
against a naive weighted sum over the support and against the direct
unblocked, unfloored form over every count, built from the pmf alone
rather than the prior's stored support (oracles.reference_tilted), and the
mean derivative against central finite differences.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tuma.denoiser
from oracles import mp_posterior, posterior_mean_deriv, reference_tilted
from tuma import (ConfigError, CountPrior, multiplicity_prior,
                  posterior_moments)
from tuma.decoders import VAR_CEILING
from tuma.denoiser import (R_LIMIT, XI_FLOOR, _BLOCK_CELLS, _LOG_WEIGHT_FLOOR,
                           DenoiserInputError, _windows)


def prior_oracle(ka, ma, m):
    """Direct mixture-of-binomials sum with exact combinatorics."""
    pmf = np.zeros(ka + 1, dtype=np.longdouble)
    one = np.longdouble(1.0)
    for targets in range(ma + 1):
        weight = (np.longdouble(math.comb(ma, targets))
                  * (one / m) ** targets * (one - one / m) ** (ma - targets))
        frac = np.longdouble(targets) / ma
        for k in range(ka + 1):
            pmf[k] += (weight * np.longdouble(math.comb(ka, k))
                       * frac**k * (one - frac) ** (ka - k))
    return pmf


def posterior_oracle(r, xi, prior):
    """Naive tilted mean/variance over the support, in extended precision."""
    ks = np.arange(prior.ka + 1, dtype=np.longdouble)
    w = prior.pmf.astype(np.longdouble) * np.exp(
        -0.5 * (np.longdouble(r) - ks) ** 2 / np.longdouble(xi))
    w /= w.sum()
    mean = float(w @ ks)
    var = float(w @ (ks - mean) ** 2)
    return mean, var


# ---------------------------------------------------------------------------
# prior


@pytest.mark.parametrize("ka,ma,m", [
    (1, 1, 2), (3, 2, 4), (50, 150, 1024), (100, 10, 2**14), (500, 500, 2**18),
])
def test_prior_is_normalized(ka, ma, m):
    prior = multiplicity_prior(ka, ma, m)
    assert abs(prior.pmf.sum() - 1.0) < 1e-10
    assert np.all(prior.pmf >= 0)
    assert prior.pmf.shape == (ka + 1,)


def test_prior_single_sensor_single_target():
    # the target lands in a given cell w.p. 1/2; the sensor then reports it
    prior = multiplicity_prior(1, 1, 2)
    assert np.abs(prior.pmf - [0.5, 0.5]).max() < 1e-12
    assert abs(prior.mean - 0.5) < 1e-12
    assert abs(prior.var - 0.25) < 1e-12


def test_prior_concentrates_at_zero_for_many_cells():
    p0 = [multiplicity_prior(5, 3, 2**b).pmf[0] for b in range(1, 17)]
    assert np.all(np.diff(p0) > 0)
    assert p0[-1] > 0.9999


@pytest.mark.parametrize("ka,ma,m", [
    (5, 3, 8), (20, 30, 64), (50, 150, 1024), (100, 10, 2**14),
])
def test_prior_matches_direct_summation(ka, ma, m):
    pmf = multiplicity_prior(ka, ma, m).pmf
    reference = prior_oracle(ka, ma, m)
    assert np.abs(pmf - reference.astype(float)).max() < 1e-12
    solid = reference > np.longdouble(1e-250)
    rel = np.abs(pmf[solid] / reference[solid].astype(float) - 1.0)
    assert rel.max() < 1e-9


def test_prior_mean_matches_sensor_budget():
    # each sensor reports a uniform cell, so E[K] = ka / m
    for ka, ma, m in [(5, 3, 8), (50, 150, 1024)]:
        prior = multiplicity_prior(ka, ma, m)
        assert abs(prior.mean - ka / m) < 1e-10


def test_prior_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        multiplicity_prior(0, 3, 8)
    with pytest.raises(ConfigError):
        multiplicity_prior(3, 0, 8)
    with pytest.raises(ConfigError):
        multiplicity_prior(3, 3, 1)


def test_count_prior_validation():
    with pytest.raises(ConfigError):
        CountPrior(pmf=np.array([0.5, 0.6]), ka=1)       # not normalized
    with pytest.raises(ConfigError):
        CountPrior(pmf=np.array([1.2, -0.2]), ka=1)      # negative mass
    with pytest.raises(ConfigError):
        CountPrior(pmf=np.array([0.5, 0.5]), ka=2)       # wrong length
    with pytest.raises(ConfigError):
        CountPrior(pmf=np.array([0.5, 0.5]), ka=True)    # a bool, not a count
    whole = CountPrior(pmf=np.array([0.5, 0.5]), ka=1.0)
    assert type(whole.ka) is int and whole.ka == 1


# ---------------------------------------------------------------------------
# posterior moments


def test_posterior_matches_direct_summation():
    rng = np.random.default_rng(23)
    for ka, ma, m in [(5, 3, 8), (20, 30, 64)]:
        prior = multiplicity_prior(ka, ma, m)
        r = rng.uniform(-1.0, ka + 1.0, size=150)
        xi = 10.0 ** rng.uniform(-3, 2, size=150)
        mean, var = posterior_moments(r, xi, prior)
        for i in range(150):
            mean_ref, var_ref = posterior_oracle(r[i], xi[i], prior)
            assert abs(mean[i] - mean_ref) < 1e-8
            assert abs(var[i] - var_ref) < 1e-8


def test_posterior_hand_case_six_terms():
    prior = multiplicity_prior(5, 3, 8)
    r, xi = 3.2, 0.5
    weights = [prior.pmf[k] * math.exp(-((r - k) ** 2) / (2 * xi))
               for k in range(6)]
    total = sum(weights)
    mean_ref = sum(k * w for k, w in enumerate(weights)) / total
    var_ref = sum((k - mean_ref) ** 2 * w
                  for k, w in enumerate(weights)) / total
    mean, var = posterior_moments(r, xi, prior)
    assert abs(mean - mean_ref) < 1e-10
    assert abs(var - var_ref) < 1e-10


def test_posterior_scalar_and_array_interfaces():
    prior = multiplicity_prior(5, 3, 8)
    scalar, scalar_var = posterior_moments(1.3, 0.7, prior)
    assert isinstance(scalar, float) and isinstance(scalar_var, float)
    arr, arr_var = posterior_moments(np.array([1.3, 1.3]), 0.7, prior)
    assert arr.shape == arr_var.shape == (2,)
    assert arr[0] == arr[1] == scalar
    assert arr_var[0] == arr_var[1] == scalar_var
    xi_vec, _ = posterior_moments(np.array([1.3, 1.3]), np.array([0.7, 2.0]),
                                  prior)
    assert xi_vec[0] == scalar and xi_vec[1] != scalar


def test_posterior_limits():
    prior = multiplicity_prior(5, 3, 8)
    # huge noise: the observation is ignored, the prior mean comes back
    assert abs(posterior_moments(4.7, 1e10, prior)[0] - prior.mean) < 1e-3
    # vanishing noise: the nearest supported count wins
    mean, var = posterior_moments(2.3, 1e-10, prior)
    assert abs(mean - 2.0) < 1e-6
    assert var < 1e-6


def test_posterior_noise_floor_is_applied():
    prior = multiplicity_prior(5, 3, 8)
    assert (posterior_moments(2.3, 1e-15, prior)
            == posterior_moments(2.3, 1e-12, prior))


def test_posterior_degenerate_priors():
    zero = CountPrior(pmf=np.array([1.0, 0.0, 0.0]), ka=2)
    mean, var = posterior_moments(1.7, 0.5, zero)
    assert mean == 0.0 and var == 0.0
    spike = CountPrior(pmf=np.array([0.0, 0.0, 1.0]), ka=2)
    mean, var = posterior_moments(-0.4, 0.25, spike)
    assert mean == 2.0 and var == 0.0
    assert posterior_mean_deriv(-0.4, 0.25, spike) == 0.0
    # the zero-mass middle count gets no weight: half at 0, half at 2
    gap = CountPrior(pmf=np.array([0.5, 0.0, 0.5]), ka=2)
    mean, var = posterior_moments(1.0, 0.5, gap)
    assert mean == 1.0 and var == 1.0


def test_posterior_ignores_zero_mass_counts():
    # The top 213 counts of this prior have zero mass.  Cutting them off
    # the prior must change no bit of the moments, even where the
    # observation sits among them and every supported weight is floored.
    prior = multiplicity_prior(500, 500, 2**18)
    top = int(np.flatnonzero(prior.pmf > 0)[-1])
    assert prior.ka - top == 213 and not prior.pmf[top + 1:].any()
    cut = CountPrior(pmf=prior.pmf[: top + 1], ka=top)
    r = np.concatenate([np.linspace(-5.0, 505.0, 511), [top + 0.5, 1e4]])
    for xi in (1e-12, 1e-3, 0.5, 1e6):
        mean, var = posterior_moments(r, xi, prior)
        mean_cut, var_cut = posterior_moments(r, xi, cut)
        assert np.array_equal(mean, mean_cut)
        assert np.array_equal(var, var_cut)
        assert mean.max() <= top


def _block_cols(prior):
    """Coordinates per block of the denoiser for this prior's support."""
    return max(1, _BLOCK_CELLS // int(np.count_nonzero(prior.pmf)))


@st.composite
def _hand_priors(draw):
    """Priors with interior zeros and zero tails."""
    ka = draw(st.integers(1, 120))
    mass = np.array(draw(st.lists(
        st.sampled_from([0.0, 1e-300, 1e-30, 1e-3, 0.2, 1.0]),
        min_size=ka + 1, max_size=ka + 1)))
    lo = draw(st.integers(0, ka))
    hi = draw(st.integers(lo, ka))
    mass[:lo] = 0.0
    mass[hi + 1:] = 0.0
    mass[draw(st.integers(lo, hi))] = 1.0
    return CountPrior(pmf=mass / mass.sum(), ka=ka)


_PRIORS = st.one_of(
    st.builds(multiplicity_prior, st.integers(1, 500), st.integers(1, 500),
              st.integers(1, 18).map(lambda b: 2**b)),
    _hand_priors())


@settings(max_examples=150)
@given(prior=_PRIORS,
       size=st.sampled_from(["one", "block-1", "block", "block+1",
                             "several"]),
       per_coordinate=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_posterior_matches_unblocked_reference(prior, size, per_coordinate,
                                               seed):
    cols = _block_cols(prior)
    count = {"one": 1, "block-1": max(1, cols - 1), "block": cols,
             "block+1": cols + 1, "several": 3 * cols + 5}[size]
    rng = np.random.default_rng(seed)
    r = rng.uniform(-5.0, prior.ka + 5.0, count)
    far = np.array([-1e4, prior.ka + 1e4, -300.0, prior.ka + 300.0])
    r[: far.size] = far[: count]
    xi = 10.0 ** rng.uniform(-14, 12, count if per_coordinate else None)
    mean, var = posterior_moments(r, xi, prior)
    mean_ref, var_ref = reference_tilted(r, xi, prior)
    # the normalization criterion 4 uses
    assert np.max(np.abs(mean - mean_ref) / (1 + np.abs(mean_ref))) <= 1e-12
    assert np.max(np.abs(var - var_ref) / (1 + np.abs(var_ref))) <= 1e-12


_BIMODAL = CountPrior(pmf=np.r_[0.5, np.full(39, 1e-300), 0.5 - 39e-300],
                      ka=40)
_GAPPED = CountPrior(pmf=np.array([0.3, 0.0, 0.0, 1e-30, 0.0, 0.7 - 1e-30]),
                     ka=5)


def _shifted_log_weights(r, xi, prior):
    """Max-shifted log-weights, one row per support count, by the formula."""
    two_xi = 2.0 * np.maximum(xi, XI_FLOOR)
    log_w = (prior.log_mass[:, None]
             - (r - prior.support[:, None]) ** 2 / two_xi)
    return log_w - log_w.max(axis=0)


@settings(max_examples=150)
@given(prior=_PRIORS, seed=st.integers(0, 2**32 - 1))
@example(prior=_BIMODAL, seed=1)
@example(prior=_GAPPED, seed=2)
def test_window_keeps_every_weight_above_the_floor(prior, seed):
    rng = np.random.default_rng(seed)
    r = rng.uniform(-5.0, prior.ka + 5.0, 64)
    r[:4] = [-1e4, prior.ka + 1e4, -300.0, prior.ka + 300.0]
    # xi spans both clamp ends, and a fifth of it sits on each
    xi = 10.0 ** rng.uniform(-14, 12, r.size)
    xi = np.where(rng.random(r.size) < 0.2, XI_FLOOR, xi)
    xi = np.where(rng.random(r.size) < 0.2, VAR_CEILING, xi)
    two_xi = 2.0 * np.maximum(xi, XI_FLOOR)
    first, length = _windows(r, two_xi, prior)
    shifted = _shifted_log_weights(r, xi, prior)
    index = np.arange(prior.support.size)[:, None]
    inside = (index >= first) & (index < first + length)
    assert np.all(length >= 1) and np.all(first + length <= index.size)
    assert np.all(shifted[~inside] < _LOG_WEIGHT_FLOOR)
    assert np.all(inside[np.argmax(shifted, axis=0), np.arange(r.size)])


@pytest.mark.parametrize("xi", [XI_FLOOR, 1e-3, 1.0, VAR_CEILING])
@pytest.mark.parametrize("prior", [
    multiplicity_prior(100, 10, 2**14), multiplicity_prior(50, 150, 1024),
    _BIMODAL, _GAPPED], ids=["bits14", "paper", "bimodal", "gapped"])
def test_posterior_far_in_the_tail(prior, xi):
    # r far below 0 and far above ka, where only an edge count can carry
    # weight unless xi is huge; at small xi the window's radius there is
    # a huge distance less a tiny margin, so roundoff alone can move it
    far = np.r_[0.5, 50.0, np.random.default_rng(43).uniform(10.0, 1e6, 100)]
    r = np.concatenate([-far, [0.5 * prior.ka], prior.ka + far])
    mean, var = posterior_moments(r, xi, prior)
    mean_ref, var_ref = reference_tilted(r, xi, prior)
    assert np.max(np.abs(mean - mean_ref) / (1 + np.abs(mean_ref))) <= 1e-12
    assert np.max(np.abs(var - var_ref) / (1 + np.abs(var_ref))) <= 1e-12
    one = [posterior_moments(value, xi, prior) for value in r]
    assert one == list(zip(mean, var))


def test_posterior_does_not_depend_on_block_boundaries():
    prior = multiplicity_prior(100, 10, 2**14)
    cols = _block_cols(prior)
    rng = np.random.default_rng(37)
    r = rng.uniform(-5.0, 105.0, 2 * cols + 1)
    xi_vec = 10.0 ** rng.uniform(-3, 2, r.size)
    for xi in (0.37, xi_vec):
        mean, var = posterior_moments(r, xi, prior)
        for i in (0, cols - 1, cols, 2 * cols - 1, 2 * cols):
            one = posterior_moments(r[i], xi if np.ndim(xi) == 0 else xi[i],
                                    prior)
            assert one == (mean[i], var[i])
        pair = slice(cols - 1, cols + 1)
        mean_pair, var_pair = posterior_moments(
            r[pair], xi if np.ndim(xi) == 0 else xi[pair], prior)
        assert np.array_equal(mean_pair, mean[pair])
        assert np.array_equal(var_pair, var[pair])


# decoders._amp forms scalar_amp's predicted xi as an m-vector of one value
# and states that a scalar xi gives the same moments bit for bit.  At a
# realistic xi the blocks are wide; at xi = 100 every window is the whole
# support, so 2 blocks + 1 coordinates leave a one-column last block.
@pytest.mark.parametrize("case", ["realistic", "one-column-tail"])
@pytest.mark.parametrize("ka,ma,m,xi", [(50, 150, 1024, 0.3),
                                        (100, 10, 2**14, 1.5)],
                         ids=["crowded", "bits14"])
def test_scalar_xi_gives_the_moments_of_a_constant_vector(ka, ma, m, xi,
                                                          case, monkeypatch):
    prior = multiplicity_prior(ka, ma, m)
    rng = np.random.default_rng(71)
    if case == "realistic":
        k = rng.choice(prior.ka + 1, size=m, p=prior.pmf)
        r = k + np.sqrt(xi) * rng.normal(size=m)
    else:
        xi = 100.0
        r = rng.uniform(-5.0, ka + 5.0, 2 * _block_cols(prior) + 1)
    widths = []
    sum_counts = tuma.denoiser._sum_counts

    def recorded(a):
        widths.append(a.shape[1])
        return sum_counts(a)

    monkeypatch.setattr(tuma.denoiser, "_sum_counts", recorded)
    scalar = posterior_moments(r, xi, prior)
    assert (widths[-1] == 1) == (case == "one-column-tail")
    vector = posterior_moments(r, np.full(r.size, xi), prior)
    assert np.array_equal(scalar[0], vector[0])
    assert np.array_equal(scalar[1], vector[1])


_UNIFORM = CountPrior(pmf=np.full(41, 1.0 / 41), ka=40)


def _one_block(prior, per_coordinate, same_length):
    """Observations and noise for one block of the denoiser whose windows
    all have one length (a mask of ones) or differ in length (masked)."""
    rng = np.random.default_rng(53)
    r = rng.uniform(-2.0, prior.ka + 2.0, 400)
    xi = 10.0 ** rng.uniform(-2.0, -0.5, r.size) if per_coordinate else 0.3
    length = _windows(r, 2.0 * np.maximum(xi, XI_FLOOR), prior)[1]
    if same_length:
        values, counts = np.unique(length, return_counts=True)
        keep = length == values[np.argmax(counts)]
    else:
        keep = np.arange(r.size) < 40
    r, length = r[keep], length[keep]
    xi = xi[keep] if per_coordinate else xi
    assert r.size >= 5 and length.max() * r.size <= _BLOCK_CELLS
    assert (length.min() == length.max()) == same_length
    return r, xi


@pytest.mark.parametrize("same_length", [True, False],
                         ids=["no-mask", "masked"])
@pytest.mark.parametrize("per_coordinate", [False, True],
                         ids=["scalar-xi", "vector-xi"])
@pytest.mark.parametrize("prior", [
    _UNIFORM, multiplicity_prior(100, 10, 2**14), _BIMODAL, _GAPPED,
    multiplicity_prior(2000, 2, 1024)],
    ids=["uniform", "bits14", "bimodal", "gapped", "ka2000"])
def test_both_kinds_of_block_match_the_reference(prior, per_coordinate,
                                                 same_length):
    r, xi = _one_block(prior, per_coordinate, same_length)
    mean, var = posterior_moments(r, xi, prior)
    mean_ref, var_ref = reference_tilted(r, xi, prior)
    assert np.max(np.abs(mean - mean_ref) / (1 + np.abs(mean_ref))) <= 1e-12
    assert np.max(np.abs(var - var_ref) / (1 + np.abs(var_ref))) <= 1e-12
    # a one-coordinate call is a block of one column, whose mask is all ones
    one = [posterior_moments(r[i], xi[i] if per_coordinate else xi, prior)
           for i in range(r.size)]
    assert one == list(zip(mean, var))


@pytest.mark.parametrize("same_length", [True, False],
                         ids=["no-mask", "masked"])
@pytest.mark.parametrize("per_coordinate", [False, True],
                         ids=["scalar-xi", "vector-xi"])
def test_gap_free_and_gapped_counts_agree(per_coordinate, same_length):
    # A count 40 behind a gap, with mass too small and too far for any
    # window here to reach, sends the same windows down the gathering path.
    gap_free = CountPrior(pmf=np.full(21, 1.0 / 21), ka=20)
    gapped = CountPrior(pmf=np.r_[gap_free.pmf, np.zeros(19), 1e-300], ka=40)
    assert gapped.support.size == 22 and gapped.support[-1] == 40
    r, xi = _one_block(gap_free, per_coordinate, same_length)
    two_xi = 2.0 * np.maximum(xi, XI_FLOOR)
    for got, want in zip(_windows(r, two_xi, gapped),
                         _windows(r, two_xi, gap_free)):
        assert np.array_equal(got, want)
    for got, want in zip(posterior_moments(r, xi, gapped),
                         posterior_moments(r, xi, gap_free)):
        assert np.array_equal(got, want)


def test_floor_meets_its_stated_bound():
    # all ka + 1 floored or dropped weights move the variance by at most
    # (ka + 1) ka^2 e^F; under 2^-53 for every ka below 3000, and the
    # floor is the largest whole number for which that holds
    def bound(floor):
        return (3000 + 1) * 3000**2 * math.exp(floor)

    assert _LOG_WEIGHT_FLOOR == int(_LOG_WEIGHT_FLOOR)
    assert bound(_LOG_WEIGHT_FLOOR) < 2**-53 <= bound(_LOG_WEIGHT_FLOOR + 1)


def test_posterior_memory_is_bounded():
    prior = multiplicity_prior(100, 10, 2**18)
    rng = np.random.default_rng(41)
    r = rng.uniform(-5.0, 105.0, 2**18)
    xi_vec = 10.0 ** rng.uniform(-3, 1, r.size)
    for xi in (0.37, xi_vec):
        tracemalloc.start()
        try:
            posterior_moments(r, xi, prior)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (m, ka + 1) float64 array alone would take 212 MB
        assert peak <= 16 * 2**20


def test_posterior_rejects_bad_inputs():
    prior = multiplicity_prior(5, 3, 8)
    with pytest.raises(ConfigError):
        posterior_moments(1.0, 0.0, prior)
    with pytest.raises(ConfigError):
        posterior_moments(1.0, -0.3, prior)
    with pytest.raises(ConfigError):
        posterior_moments(float("nan"), 0.5, prior)
    with pytest.raises(ConfigError):
        posterior_moments(float("inf"), 0.5, prior)
    r = np.linspace(0.0, 5.0, 6)
    with pytest.raises(ConfigError):
        posterior_moments(r, np.full(5, 0.5), prior)       # length mismatch
    with pytest.raises(ConfigError):
        posterior_moments(r, np.full((1, 6), 0.5), prior)  # 2-D xi


def test_observation_limit_is_the_largest_finite_distance():
    with np.errstate(over="ignore"):
        assert np.isfinite(np.float64(R_LIMIT) ** 2 / (2 * XI_FLOOR))
        assert np.isinf(np.nextafter(R_LIMIT, np.inf) ** 2 / (2 * XI_FLOOR))


@pytest.mark.parametrize("r", [1e200, -1e200, 2 * R_LIMIT])
def test_posterior_rejects_observations_that_overflow(r):
    # (r - k)^2 overflowed here and the moments came out NaN
    prior = multiplicity_prior(5, 3, 8)
    with pytest.raises(ConfigError):
        posterior_moments(r, 1.0, prior)
    with pytest.raises(ConfigError):
        posterior_moments(np.array([1.0, r]), XI_FLOOR, prior)


@pytest.mark.parametrize("r,xi", [(float("nan"), 1.0), (1e200, 1.0),
                                  (1.0, 0.0), (1.0, float("inf"))])
def test_refusals_are_config_and_floating_point_errors(r, xi):
    # a direct caller sees a ConfigError, decode a FloatingPointError
    with pytest.raises(DenoiserInputError) as excinfo:
        posterior_moments(r, xi, multiplicity_prior(5, 3, 8))
    assert isinstance(excinfo.value, ConfigError)
    assert isinstance(excinfo.value, FloatingPointError)


@pytest.mark.parametrize("ka,ma,m", [(5, 3, 8), (50, 150, 1024)])
@pytest.mark.parametrize("xi", [XI_FLOOR, 1.0, VAR_CEILING])
def test_posterior_is_exact_for_every_accepted_observation(ka, ma, m, xi):
    # far observations gave the plain support average, (2.5, 2.917) for
    # (5, 3, 8), once (r - k)^2 rounded alike for every count; the answer
    # is the end count with no spread
    prior = multiplicity_prior(ka, ma, m)
    far = [1e15, 1e16, 1e17, R_LIMIT - ka - 1]
    r = np.array(far + [-x for x in far] + [ka + 3.0, -3.0])
    mean, var = posterior_moments(r, xi, prior)
    for i, ri in enumerate(r):
        mean_ref, var_ref = map(float, mp_posterior(ri, xi, prior, 400))
        assert abs(mean[i] - mean_ref) <= 1e-14 * max(1.0, mean_ref)
        assert abs(var[i] - var_ref) <= 1e-14 * max(1.0, var_ref)


@pytest.mark.parametrize("xi", [XI_FLOOR, 1.0, 1e300])
def test_posterior_is_finite_up_to_the_observation_limit(xi):
    prior = multiplicity_prior(5, 3, 8)
    r = np.array([-R_LIMIT, 0.5, R_LIMIT])
    with np.errstate(all="raise"):
        f, g = posterior_moments(r, xi, prior)
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))


# ---------------------------------------------------------------------------
# derivative of the posterior mean


def test_derivative_matches_finite_differences():
    prior = multiplicity_prior(5, 3, 8)
    rng = np.random.default_rng(29)
    r = rng.uniform(-1.0, 6.0, size=100)
    xi = 10.0 ** rng.uniform(-1, 1, size=100)
    h = 1e-5
    fd = (posterior_moments(r + h, xi, prior)[0]
          - posterior_moments(r - h, xi, prior)[0]) / (2 * h)
    deriv = posterior_mean_deriv(r, xi, prior)
    assert np.abs(fd - deriv).max() < 1e-5 + 1e-4 * np.abs(deriv).max()


def test_derivative_is_variance_over_noise():
    prior = multiplicity_prior(20, 30, 64)
    r = np.linspace(-1.0, 21.0, 50)
    xi = 0.37
    assert np.allclose(posterior_mean_deriv(r, xi, prior),
                       posterior_moments(r, xi, prior)[1] / xi,
                       rtol=0, atol=1e-14)


def test_posterior_mean_is_nondecreasing():
    prior = multiplicity_prior(5, 3, 8)
    r = np.linspace(-2.0, 7.0, 400)
    f, _ = posterior_moments(r, 0.5, prior)
    assert np.all(np.diff(f) >= -1e-12)
    assert np.all(posterior_mean_deriv(r, 0.5, prior) >= 0.0)
