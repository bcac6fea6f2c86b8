"""Transport distances, total variation, and the quantization floor."""

import math
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import tuma.metrics as metrics
from tuma import (ConfigError, DiscreteMeasure, assign_sensors, grid_codebook,
                  quantization_distortion, quantize, total_variation,
                  true_multiplicity, true_type, wasserstein)
from oracles import reference_wasserstein, transport_vertex_oracle


def random_measure(rng, max_atoms=4):
    size = int(rng.integers(1, max_atoms + 1))
    counts = rng.integers(1, 6, size=size)
    return DiscreteMeasure(counts, rng.random((size, 2)))


def nearest_pair(rng, rows, cols, p, grid=None):
    """(mu, nu) whose nearest-atom coupling meets nu's marginal exactly.

    mu has `rows` atoms with counts 1..5.  Each of them sends its count to
    the nearest of `cols` candidate points, ties to the highest index; nu
    holds the candidates that receive something, with what they receive.
    With `grid`, every coordinate is a multiple of 1/grid, so equal
    distances are exactly equal and ties are common.
    """
    if grid:
        sources = rng.integers(0, grid + 1, size=(rows, 2)) / grid
        targets = rng.integers(0, grid + 1, size=(cols, 2)) / grid
    else:
        sources = rng.random((rows, 2))
        targets = rng.random((cols, 2))
    counts = rng.integers(1, 6, size=rows)
    cost = cdist(sources, targets) ** p
    nearest = cols - 1 - cost[:, ::-1].argmin(axis=1)
    received = np.bincount(nearest, weights=counts, minlength=cols)
    hit = received > 0
    return (DiscreteMeasure(counts, sources),
            DiscreteMeasure(received[hit].astype(np.int64), targets[hit]))


# ---------------------------------------------------------------------------
# wasserstein


def test_wasserstein_identity_is_zero():
    mu = DiscreteMeasure([2, 3], [[0.1, 0.2], [0.7, 0.9]])
    dist, plan = wasserstein(mu, mu, 2.0)
    assert dist < 1e-9
    assert np.abs(plan.sum(axis=1) - mu.weights).max() < 1e-9
    assert np.abs(plan.sum(axis=0) - mu.weights).max() < 1e-9


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_wasserstein_single_atoms_is_plain_distance(p):
    mu = DiscreteMeasure([1], [[0.1, 0.4]])
    nu = DiscreteMeasure([1], [[0.7, 0.2]])
    dist, _ = wasserstein(mu, nu, p)
    assert abs(dist - np.hypot(0.6, 0.2)) < 1e-12


def test_wasserstein_parallel_shift():
    mu = DiscreteMeasure([1, 1], [[0.0, 0.0], [1.0, 0.0]])
    nu = DiscreteMeasure([1, 1], [[0.0, 1.0], [1.0, 1.0]])
    dist, plan = wasserstein(mu, nu, 2.0)
    assert abs(dist - 1.0) < 1e-9
    # the optimal coupling moves each atom straight up, never across
    assert np.abs(plan - 0.5 * np.eye(2)).max() < 1e-9


def test_wasserstein_splits_unequal_supports():
    mu = DiscreteMeasure([1], [[0.0, 0.0]])
    nu = DiscreteMeasure([1, 1], [[0.0, 0.0], [1.0, 0.0]])
    dist2, _ = wasserstein(mu, nu, 2.0)
    assert abs(dist2 - np.sqrt(0.5)) < 1e-9
    dist1, _ = wasserstein(mu, nu, 1.0)
    assert abs(dist1 - 0.5) < 1e-9


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_wasserstein_matches_vertex_enumeration(p):
    rng = np.random.default_rng(37)
    for trial in range(20):
        pairs = [(random_measure(rng), random_measure(rng)),
                 nearest_pair(rng, int(rng.integers(1, 5)),
                              int(rng.integers(1, 5)), p,
                              grid=4 if trial % 2 else None)]
        for mu, nu in pairs:
            dist, _ = wasserstein(mu, nu, p)
            cost = cdist(mu.locations, nu.locations) ** p
            best = transport_vertex_oracle(mu.weights, nu.weights, cost)
            assert abs(dist - best ** (1.0 / p)) < 1e-8


@settings(max_examples=150)
@given(rows=st.integers(1, 60), cols=st.integers(1, 60),
       kind=st.sampled_from(["random", "nearest", "ties"]),
       p=st.sampled_from([1.0, 2.0, 3.0]), seed=st.integers(0, 2**32 - 1))
def test_wasserstein_matches_full_lp(rows, cols, kind, p, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        mu = DiscreteMeasure(rng.integers(1, 6, size=rows),
                             rng.random((rows, 2)))
        nu = DiscreteMeasure(rng.integers(1, 6, size=cols),
                             rng.random((cols, 2)))
    else:
        mu, nu = nearest_pair(rng, rows, cols, p,
                              grid=8 if kind == "ties" else None)
    # in integer units the built pairs must skip the LP
    skips_lp = kind != "random"
    no_lp = mock.patch.object(metrics, "_transport_lp",
                              side_effect=AssertionError("LP solved"))
    with no_lp if skips_lp else nullcontext():
        dist, plan = wasserstein(mu, nu, p)
    ref, _ = reference_wasserstein(mu, nu, p)
    assert abs(dist - ref) <= 1e-12 * ref
    assert np.all(plan >= 0.0)
    assert np.abs(plan.sum(axis=1) - mu.weights).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - nu.weights).max() <= 1e-12
    # a vertex of the transport polytope has an acyclic support
    assert np.count_nonzero(plan) <= mu.size + nu.size - 1


def test_transport_lp_failure_is_typed():
    # the last column sum is dropped as redundant, so unbalanced marginals
    # leave column 0 asking for more mass than the rows hold
    cost = np.arange(6.0).reshape(2, 3)
    with pytest.raises(RuntimeError, match="transport LP failed"):
        metrics._transport_lp(cost, np.array([1, 1]), np.array([3, 3, 3]))


def test_wasserstein_metric_axioms():
    rng = np.random.default_rng(41)
    for _ in range(20):
        mu, nu, rho = (random_measure(rng) for _ in range(3))
        d_ab, _ = wasserstein(mu, nu, 2.0)
        d_ba, _ = wasserstein(nu, mu, 2.0)
        d_ac, _ = wasserstein(mu, rho, 2.0)
        d_bc, _ = wasserstein(nu, rho, 2.0)
        assert d_ab >= 0.0
        assert abs(d_ab - d_ba) < 1e-9
        assert d_ac <= d_ab + d_bc + 1e-9


def test_wasserstein_plan_marginals_are_tight():
    rng = np.random.default_rng(43)
    mu = random_measure(rng)
    nu = random_measure(rng)
    _, plan = wasserstein(mu, nu, 2.0)
    assert np.all(plan >= 0.0)
    assert np.abs(plan.sum(axis=1) - mu.weights).max() < 1e-9
    assert np.abs(plan.sum(axis=0) - nu.weights).max() < 1e-9


def test_wasserstein_rejects_order_below_one():
    mu = DiscreteMeasure([1], [[0.0, 0.0]])
    with pytest.raises(ConfigError):
        wasserstein(mu, mu, 0.5)


def test_wasserstein_rejects_an_infinite_order():
    # the p-th root of a p-th power cost is no W_inf: on this pair it
    # would give 1.0, where the largest distance moved is 0.566
    mu = DiscreteMeasure([1, 2], [[0.1, 0.1], [0.9, 0.9]])
    nu = DiscreteMeasure([1], [[0.5, 0.5]])
    with pytest.raises(ConfigError):
        wasserstein(mu, nu, math.inf)


@pytest.mark.parametrize("p,mu,nu", [
    (400.0, [[0.0, 0.0]], [[0.1, 0.0]]),                # W_p is 0.1
    (1000.0, [[0.0, 0.0], [0.5, 0.0]],
     [[0.2, 0.0], [0.7, 0.0]]),                         # W_p is 0.2
    (2100.0, [[0.0, 0.0]], [[1.0, 1.0]]),               # sqrt(2)^p overflows
])
def test_wasserstein_refuses_orders_whose_costs_leave_the_float_range(p, mu,
                                                                      nu):
    # cost**p underflowed to 0 here and the distance came out as 0.0
    mu = DiscreteMeasure(np.ones(len(mu), dtype=np.int64), mu)
    nu = DiscreteMeasure(np.ones(len(nu), dtype=np.int64), nu)
    with pytest.raises(ConfigError):
        wasserstein(mu, nu, p)


# ---------------------------------------------------------------------------
# total variation


def test_total_variation_hand_cases():
    assert total_variation([2, 1, 1], [2, 1, 1]) == 0.0
    assert abs(total_variation([2, 1, 1], [1, 2, 1]) - 0.25) < 1e-12
    assert abs(total_variation([1, 0], [0, 3]) - 1.0) < 1e-12
    assert total_variation([2, 0], [4, 0]) == 0.0  # scale invariant


def test_total_variation_single_misplaced_sensor():
    # moving one of ka sensors to another cell costs exactly 1/ka
    assert abs(total_variation([2, 2, 0], [2, 1, 1]) - 0.25) < 1e-12


def test_total_variation_rejects_malformed_vectors():
    with pytest.raises(ConfigError):
        total_variation([1, 2], [1, 2, 3])
    with pytest.raises(ConfigError):
        total_variation([1, -1], [1, 1])
    with pytest.raises(ConfigError):
        total_variation([0, 0], [1, 1])


# ---------------------------------------------------------------------------
# quantization distortion


def test_distortion_vanishes_at_centroids():
    quantizer = grid_codebook(16)
    states = quantizer.centroids[[3, 7, 9]]
    assignment = np.array([0, 1, 1, 2])
    scene = true_type(states, assignment)
    k = np.zeros(16, dtype=np.int64)
    k[[3, 7, 9]] = [1, 2, 1]
    assert quantization_distortion(scene, k, quantizer) < 1e-9


def test_distortion_single_target_is_offset_length():
    quantizer = grid_codebook(4)
    states = np.array([[0.3, 0.3]])
    scene = true_type(states, np.zeros(4, dtype=np.int64))
    k = np.array([4, 0, 0, 0], dtype=np.int64)
    expected = np.hypot(0.05, 0.05)  # distance to the (0.25, 0.25) centroid
    assert abs(quantization_distortion(scene, k, quantizer) - expected) < 1e-9


def test_distortion_shrinks_with_finer_grids():
    from tuma import assign_sensors, draw_targets, trial_rng, true_multiplicity

    averages = []
    for m in (4, 16, 64):
        quantizer = grid_codebook(m)
        values = []
        for trial in range(50):
            rng = trial_rng(47, trial)
            states = draw_targets(rng, 3)
            assignment = assign_sensors(rng, 6, 3)
            scene = true_type(states, assignment)
            k = true_multiplicity(states, assignment, quantizer)
            values.append(quantization_distortion(scene, k, quantizer))
        averages.append(np.mean(values))
    assert averages[0] > averages[1] > averages[2]


@pytest.mark.parametrize("m", [4, 64, 1024])
def test_distortion_solves_no_lp(m, monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("quantization_distortion solved an LP")

    monkeypatch.setattr(metrics, "_transport_lp", no_lp)
    quantizer = grid_codebook(m)
    rng = np.random.default_rng(m)
    for _ in range(20):
        ma = int(rng.integers(1, 151))
        states = rng.random((ma, 2))
        # targets on vertical, horizontal and both cell edges, 1.0 included;
        # a point on an edge is equidistant from the centroids on both sides
        on_x = rng.random(ma) < 0.5
        on_y = rng.random(ma) < 0.5
        states[on_x, 0] = rng.integers(0, quantizer.cols + 1,
                                       on_x.sum()) / quantizer.cols
        states[on_y, 1] = rng.integers(0, quantizer.rows + 1,
                                       on_y.sum()) / quantizer.rows
        states[0, 0] = 1.0
        assignment = assign_sensors(rng, int(rng.integers(1, 301)), ma)
        scene = true_type(states, assignment)
        k = true_multiplicity(states, assignment, quantizer)
        cells = quantize(quantizer, scene.locations)
        offsets = np.linalg.norm(
            scene.locations - quantizer.centroids[cells], axis=1)
        for p in (1.0, 2.0, 3.0):
            expected = float(scene.weights @ offsets**p) ** (1.0 / p)
            got = quantization_distortion(scene, k, quantizer, p)
            assert abs(got - expected) <= 1e-12
