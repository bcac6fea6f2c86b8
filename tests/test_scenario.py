"""Scene generation: configurations, measures, random streams, type vectors."""

import numpy as np
import pytest

from tuma import (ConfigError, DiscreteMeasure, SystemConfig, assign_sensors,
                  draw_targets, grid_codebook, hadamard_codebook,
                  multiplicity_prior, trial_rng, true_multiplicity, true_type)

BASE = dict(n=4, ka=2, ma=2, m=4, snr_db=0.0)


# ---------------------------------------------------------------------------
# SystemConfig


def test_config_accepts_reference_parameters():
    cfg = SystemConfig(n=250, ka=50, ma=50, m=1024, snr_db=-12.0)
    assert cfg.bits == 10
    assert cfg.p_order == 2.0
    assert cfg.max_iters == 10
    assert cfg.trials == 100
    assert cfg.seed == 0


@pytest.mark.parametrize("bad", [
    dict(n=0), dict(n=-3), dict(ka=0), dict(ma=0),
    dict(m=3), dict(m=1), dict(m=0), dict(snr_db=float("nan")),
    dict(snr_db=float("inf")), dict(p_order=0.5), dict(max_iters=0),
    dict(trials=0), dict(seed=-1), dict(p_order=float("inf")),
    dict(n=True), dict(ma=True), dict(max_iters=True), dict(seed=False),
    dict(snr_db=True), dict(p_order=True), dict(snr_db=None),
    dict(snr_db="3"), dict(snr_db=4000.0), dict(snr_db=-4000.0),
])
def test_config_rejects_invalid_fields(bad):
    with pytest.raises(ConfigError):
        SystemConfig(**{**BASE, **bad})


WHOLE = dict(n=4, ka=2, ma=2, m=8, max_iters=3, trials=2, seed=1)


# the public constructors take counts by the rule SystemConfig uses
@pytest.mark.parametrize("build", [
    lambda: hadamard_codebook(True, 4),
    lambda: hadamard_codebook(4, 8.5),
    lambda: multiplicity_prior(2.5, 3, 8),
    lambda: multiplicity_prior(3, True, 8),
    lambda: grid_codebook(8.5),
    lambda: draw_targets(trial_rng(0, 0), 2.5),
    lambda: assign_sensors(trial_rng(0, 0), 3, True),
], ids=["codebook_n_bool", "codebook_m_fraction", "prior_ka_fraction",
        "prior_ma_bool", "grid_m_fraction", "targets_ma_fraction",
        "sensors_ma_bool"])
def test_count_arguments_take_whole_numbers_only(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("name", sorted(WHOLE))
def test_config_stores_whole_floats_as_int(name):
    # 3.0 runs as 3: seeds, array sizes and bit tests all need an int
    cfg = SystemConfig(**{**BASE, name: float(WHOLE[name])})
    assert type(getattr(cfg, name)) is int
    assert getattr(cfg, name) == WHOLE[name]


@pytest.mark.parametrize("m,bits", [(2, 1), (4, 2), (1024, 10), (2**18, 18)])
def test_config_bits_property(m, bits):
    assert SystemConfig(**{**BASE, "m": m}).bits == bits


# ---------------------------------------------------------------------------
# DiscreteMeasure


def test_measure_from_counts_normalizes():
    mu = DiscreteMeasure([1, 3], [[0.0, 0.0], [1.0, 1.0]])
    assert np.allclose(mu.weights, [0.25, 0.75])
    assert np.array_equal(mu.counts, [1, 3])
    assert mu.counts.dtype == np.int64
    assert mu.size == 2


def test_measure_arrays_are_read_only():
    mu = DiscreteMeasure([1, 1], [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        mu.weights[0] = 0.9
    with pytest.raises(ValueError):
        mu.counts[0] = 2
    with pytest.raises(ValueError):
        mu.locations[0, 0] = 0.5


@pytest.mark.parametrize("counts,locations", [
    ([], np.zeros((0, 2))),                  # empty
    ([[1, 1]], [[0, 0], [1, 1]]),            # counts not a vector
    ([1, 1], [[0, 0]]),                      # shape mismatch
    ([1], [[0, 0, 0]]),                      # locations not planar
    ([1], [[float("nan"), 0]]),              # non-finite
], ids=[f"weights{i}-locations{i}" for i in range(5)])
def test_measure_rejects_malformed_data(counts, locations):
    with pytest.raises(ConfigError):
        DiscreteMeasure(np.asarray(counts, dtype=np.int64), locations)


def test_measure_rejects_bad_counts():
    with pytest.raises(ConfigError):
        DiscreteMeasure([0, 2], np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        DiscreteMeasure([3, -1], np.zeros((2, 2)))


@pytest.mark.parametrize("counts", [[1.5, 2.0], [1.0, 2.0], [True, True]])
def test_measure_from_counts_rejects_non_integer_counts(counts):
    # casting before checking would build [1.5, 2.0] as counts [1, 2]
    with pytest.raises(ConfigError, match="integers"):
        DiscreteMeasure(counts, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# random streams


def test_trial_rng_is_reproducible():
    assert np.array_equal(trial_rng(3, 7).random(5), trial_rng(3, 7).random(5))


def test_trial_rng_separates_trials_and_seeds():
    base = trial_rng(3, 7).random(5)
    assert not np.array_equal(base, trial_rng(3, 8).random(5))
    assert not np.array_equal(base, trial_rng(4, 7).random(5))


def test_trial_rng_is_order_free():
    late = trial_rng(0, 1000).random(3)
    early = trial_rng(0, 2).random(3)
    assert np.array_equal(late, trial_rng(0, 1000).random(3))
    assert np.array_equal(early, trial_rng(0, 2).random(3))


# ---------------------------------------------------------------------------
# target and sensor draws


def test_draw_targets_shape_and_range():
    states = draw_targets(trial_rng(1, 0), 37)
    assert states.shape == (37, 2)
    assert np.all(states >= 0.0) and np.all(states <= 1.0)


def test_draw_targets_uniform_moments():
    states = draw_targets(trial_rng(5, 0), 200_000)
    assert np.abs(states.mean(axis=0) - 0.5).max() < 5e-3
    assert np.abs(states.var(axis=0) - 1.0 / 12.0).max() < 2e-3


def test_assign_sensors_single_target():
    assert np.array_equal(assign_sensors(trial_rng(2, 0), 4, 1), [0, 0, 0, 0])


def test_assign_sensors_uniform_over_targets():
    assignment = assign_sensors(trial_rng(2, 1), 100_000, 5)
    assert assignment.min() >= 0 and assignment.max() <= 4
    freq = np.bincount(assignment, minlength=5) / assignment.size
    assert np.abs(freq - 0.2).max() < 0.01


# ---------------------------------------------------------------------------
# true type and multiplicity


def test_true_type_hand_case():
    states = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
    mu = true_type(states, np.array([0, 1, 2, 2]))
    assert np.allclose(mu.weights, [0.25, 0.25, 0.5])
    assert np.array_equal(mu.locations, states)
    assert mu.counts.sum() == 4


def test_true_type_drops_unobserved_targets():
    states = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
    mu = true_type(states, np.array([1, 1]))
    assert mu.size == 1
    assert np.allclose(mu.weights, [1.0])
    assert np.array_equal(mu.locations, states[1:2])


def test_true_type_rejects_malformed_scenes():
    states = np.zeros((2, 2))
    with pytest.raises(ConfigError):
        true_type(states, np.array([0, 2]))           # index out of range
    with pytest.raises(ConfigError):
        true_type(states, np.array([0.0, 1.0]))       # non-integer assignment
    with pytest.raises(ConfigError):
        true_type(np.zeros((2, 3)), np.array([0, 1]))  # states not planar


def test_true_multiplicity_hand_case():
    # 2x2 grid: cell 0 is [0,.5)^2, cell 1 is right of it, cell 2 above it
    quantizer = grid_codebook(4)
    states = np.array([[0.1, 0.1], [0.9, 0.1], [0.4, 0.9]])
    k = true_multiplicity(states, np.array([0, 0, 1, 2, 2]), quantizer)
    assert np.array_equal(k, [2, 1, 2, 0])


def test_true_multiplicity_aggregates_shared_cells():
    quantizer = grid_codebook(4)
    states = np.array([[0.1, 0.1], [0.2, 0.2]])  # same cell, distinct states
    k = true_multiplicity(states, np.array([0, 1, 1]), quantizer)
    assert np.array_equal(k, [3, 0, 0, 0])


def test_true_multiplicity_totals_match_sensor_count():
    rng = trial_rng(11, 0)
    quantizer = grid_codebook(64)
    states = draw_targets(rng, 30)
    assignment = assign_sensors(rng, 500, 30)
    k = true_multiplicity(states, assignment, quantizer)
    assert k.shape == (64,)
    assert k.min() >= 0
    assert k.sum() == 500
