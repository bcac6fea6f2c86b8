"""Gaussian multiple-access channel."""

import numpy as np
import pytest

from tuma import (ConfigError, ReceivedSignal, hadamard_codebook, snr_from_db,
                  transmit)
from tuma.codebooks import apply
from oracles import noiseless_transmit


def test_snr_conversion_reference_points():
    assert snr_from_db(0.0) == 1.0
    assert abs(snr_from_db(-12.0) - 0.0630957344480193) < 1e-15
    assert abs(snr_from_db(-27.0) - 0.0019952623149688) < 1e-15
    assert abs(snr_from_db(6.0) - 3.9810717055349722) < 1e-12


def test_snr_rejects_non_finite():
    # +-4000 dB: the power overflows to inf or underflows to 0
    for snr_db in (float("nan"), 4000.0, -4000.0):
        with pytest.raises(ConfigError):
            snr_from_db(snr_db)


@pytest.mark.parametrize("snr_db", [True, "3", None],
                         ids=["bool", "str", "None"])
def test_snr_rejects_non_real(snr_db):
    with pytest.raises(ConfigError):
        snr_from_db(snr_db)
    with pytest.raises(ConfigError):
        transmit(hadamard_codebook(4, 4), np.ones(4, dtype=np.int64), snr_db,
                 np.random.default_rng(0))


def test_noiseless_transmit_is_exact():
    cb = hadamard_codebook(16, 16)
    k = np.zeros(16, dtype=np.int64)
    k[[1, 5, 5, 9]] = [2, 0, 3, 1]
    received = noiseless_transmit(cb, k, -12.0)
    expected = np.sqrt(16 * snr_from_db(-12.0)) * apply(cb, k.astype(float))
    assert np.array_equal(received.y, expected)
    assert received.y.size == 16
    assert received.power == snr_from_db(-12.0)


def test_transmitted_codewords_meet_the_power_budget():
    # one sensor sending message j transmits sqrt(nP) c_j with ||.||^2 = nP
    cb = hadamard_codebook(12, 16)
    for j in (0, 3, 15):
        k = np.zeros(16, dtype=np.int64)
        k[j] = 1
        received = noiseless_transmit(cb, k, -7.0)
        energy = float(received.y @ received.y)
        assert abs(energy - 12 * snr_from_db(-7.0)) < 1e-12


def test_noise_is_unit_variance_white():
    cb = hadamard_codebook(64, 64)
    k = np.zeros(64, dtype=np.int64)
    k[3] = 2
    clean = noiseless_transmit(cb, k, 0.0).y
    pooled = []
    for trial in range(200):
        rng = np.random.default_rng(1000 + trial)
        pooled.append(transmit(cb, k, 0.0, rng).y - clean)
    pooled = np.concatenate(pooled)  # 12800 N(0,1) samples
    assert abs(pooled.mean()) < 0.04
    assert abs(pooled.var() - 1.0) < 0.06


def test_zero_multiplicity_gives_pure_noise():
    cb = hadamard_codebook(2000, 2048)
    k = np.zeros(2048, dtype=np.int64)
    y = transmit(cb, k, 0.0, np.random.default_rng(5)).y
    assert abs(y.mean()) < 0.05
    assert abs(y.var() - 1.0) < 0.15


def test_transmit_rejects_malformed_counts():
    cb = hadamard_codebook(4, 4)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        transmit(cb, np.zeros(3, dtype=np.int64), 0.0, rng)
    with pytest.raises(ConfigError):
        transmit(cb, np.zeros(4), 0.0, rng)  # float counts
    with pytest.raises(ConfigError):
        transmit(cb, np.array([1, -1, 0, 0]), 0.0, rng)


def test_received_signal_validation():
    with pytest.raises(ConfigError):
        ReceivedSignal(y=np.array([1.0, float("nan")]), power=1.0)
    with pytest.raises(ConfigError):
        ReceivedSignal(y=np.array([1.0]), power=0.0)
    for power in (float("inf"), float("nan"), True, None):
        with pytest.raises(ConfigError):
            ReceivedSignal(y=np.array([1.0]), power=power)
    sig = ReceivedSignal(y=np.array([1.0, 2.0]), power=1.0)
    with pytest.raises(ValueError):
        sig.y[0] = 3.0
