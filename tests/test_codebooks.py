"""Quantization grids, the fast transform, and transmission codebooks."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import hadamard as dense_hadamard
from scipy.spatial.distance import cdist

from oracles import butterfly_fwht, dense_codebook
from tuma import (ConfigError, adjoint, apply, fwht, grid_codebook,
                  hadamard_codebook, quantize, sq_adjoint, sq_apply)

# (n, m) pairs covering truncation (n < m), square, and padding (n > m)
GEOMETRIES = [(2, 2), (2, 4), (3, 4), (4, 4), (2, 8), (5, 8), (8, 8),
              (12, 16), (16, 16), (6, 4), (10, 8), (20, 16)]


def _dense_from_ops(cb):
    """Materialize C column by column through apply, not via dense_codebook."""
    eye = np.eye(cb.m)
    return np.column_stack([apply(cb, eye[j]) for j in range(cb.m)])


# ---------------------------------------------------------------------------
# grid quantizer


def test_grid_square_layout():
    q = grid_codebook(16)
    assert (q.m, q.rows, q.cols) == (16, 4, 4)
    assert np.allclose(q.centroids[0], [0.125, 0.125])
    assert np.allclose(q.centroids[1], [0.375, 0.125])  # row-major
    assert np.allclose(q.centroids[-1], [0.875, 0.875])


def test_grid_four_cells():
    q = grid_codebook(4)
    expected = [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
    assert np.allclose(q.centroids, expected)


def test_grid_odd_bits_doubles_rows():
    q = grid_codebook(8)
    assert (q.rows, q.cols) == (4, 2)
    assert np.allclose(q.centroids[0], [0.25, 0.125])
    assert np.allclose(q.centroids[1], [0.75, 0.125])


def test_grid_rejects_non_power_of_two():
    for m in (0, 1, 3, 12):
        with pytest.raises(ConfigError):
            grid_codebook(m)


@pytest.mark.parametrize("m", [2, 4, 8, 16, 64])
def test_quantize_centroids_are_fixed_points(m):
    q = grid_codebook(m)
    assert np.array_equal(quantize(q, q.centroids), np.arange(m))


def test_quantize_corners_and_edges():
    q = grid_codebook(4)
    assert quantize(q, np.array([0.0, 0.0])) == 0
    assert quantize(q, np.array([1.0, 1.0])) == 3  # upper edge clamps
    assert quantize(q, np.array([1.0, 0.3])) == 1
    assert isinstance(quantize(q, np.array([0.2, 0.2])), int)


@pytest.mark.parametrize("m", [4, 8, 16])
def test_quantize_matches_nearest_centroid(m):
    q = grid_codebook(m)
    pts = np.random.default_rng(17).random((4000, 2))
    nearest = cdist(pts, q.centroids).argmin(axis=1)
    assert np.array_equal(quantize(q, pts), nearest)


def test_quantize_rejects_points_outside_unit_square():
    q = grid_codebook(4)
    with pytest.raises(ConfigError):
        quantize(q, np.array([1.2, 0.5]))
    with pytest.raises(ConfigError):
        quantize(q, np.array([-0.1, 0.5]))
    with pytest.raises(ConfigError):  # neither one point nor a (k, 2) batch
        quantize(q, np.full((1, 2, 2), 0.5))


# ---------------------------------------------------------------------------
# fast Walsh-Hadamard transform


def test_fwht_two_point_rows():
    assert np.array_equal(fwht(np.array([1.0, 0.0])), [1.0, 1.0])
    assert np.array_equal(fwht(np.array([0.0, 1.0])), [1.0, -1.0])


@pytest.mark.parametrize("size", [2, 4, 8, 16, 64])
def test_fwht_matches_dense_hadamard(size):
    assert np.abs(fwht(np.eye(size)) - dense_hadamard(size)).max() == 0.0


def test_fwht_is_an_involution_up_to_length():
    v = np.random.default_rng(3).standard_normal(128)
    assert np.abs(fwht(fwht(v)) - 128 * v).max() < 1e-9


def test_fwht_batches_along_last_axis():
    batch = np.random.default_rng(4).standard_normal((3, 8))
    rows = np.stack([fwht(batch[i]) for i in range(3)])
    assert np.allclose(fwht(batch), rows)


@pytest.mark.parametrize("bits", range(1, 19))
def test_transforms_match_the_butterfly_bit_for_bit(bits):
    # below and above the constant-geometry row length, 1-D and batched
    # (five rows fill the scratch unevenly), through every codebook branch
    m = 2**bits
    rng = np.random.default_rng(bits)
    v = rng.standard_normal(m)
    batch = rng.standard_normal((5, m))
    assert np.array_equal(fwht(v), butterfly_fwht(v))
    assert np.array_equal(fwht(batch), butterfly_fwht(batch))
    for n in (max(1, m // 2), m, m + 3):
        cb = hadamard_codebook(n, m)
        kept = len(cb.row_ids)
        z = rng.standard_normal(n)
        expected = np.zeros(n)
        expected[:kept] = (butterfly_fwht(v) * cb.scale)[cb.row_ids]
        assert np.array_equal(apply(cb, v), expected)
        spread = np.zeros(m)
        spread[cb.row_ids] = z[:kept]
        assert np.array_equal(adjoint(cb, z), butterfly_fwht(spread) * cb.scale)


def test_fwht_rejects_bad_lengths():
    with pytest.raises(ConfigError):
        fwht(np.zeros(3))


# ---------------------------------------------------------------------------
# transmission codebook


def test_codebook_square_is_orthogonal():
    cb = hadamard_codebook(8, 8)
    dense = _dense_from_ops(cb)
    assert cb.orthonormal_columns
    assert np.allclose(dense, dense_hadamard(8) / np.sqrt(8))
    assert np.abs(dense.T @ dense - np.eye(8)).max() < 1e-12


def test_codebook_truncated_invariants():
    cb = hadamard_codebook(2, 4)
    assert cb.scale == 1.0 / np.sqrt(2)
    assert len(cb.row_ids) == 2
    assert len(set(cb.row_ids.tolist())) == 2
    assert all(1 <= r <= 3 for r in cb.row_ids)  # all-ones row excluded
    dense = _dense_from_ops(cb)
    assert np.allclose(np.linalg.norm(dense, axis=0), 1.0)


@pytest.mark.parametrize("n,m", [(2, 4), (5, 8), (12, 16), (250, 1024)])
def test_codebook_columns_stay_distinct(n, m):
    dense = dense_codebook(hadamard_codebook(n, m))
    assert np.unique(dense.T, axis=0).shape[0] == m


def test_codebook_coherence_is_moderate():
    dense = dense_codebook(hadamard_codebook(250, 1024))
    gram = dense.T @ dense
    off = np.abs(gram - np.diag(np.diag(gram))).max()
    assert off < 0.3  # equal columns would reach 1.0


def test_codebook_construction_is_deterministic():
    first = hadamard_codebook(100, 1024)
    second = hadamard_codebook(100, 1024)
    assert np.array_equal(first.row_ids, second.row_ids)
    assert first.scale == second.scale


def test_codebook_padded_geometry():
    cb = hadamard_codebook(6, 4)
    dense = _dense_from_ops(cb)
    assert not np.any(dense[4:])  # zero rows appended
    assert np.allclose(dense[:4], dense_hadamard(4) / 2.0)
    assert np.abs(dense.T @ dense - np.eye(4)).max() < 1e-12


def test_codebook_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        hadamard_codebook(4, 6)
    with pytest.raises(ConfigError):
        hadamard_codebook(0, 4)


@pytest.mark.parametrize("n,m", GEOMETRIES)
def test_apply_and_adjoint_match_dense(n, m):
    cb = hadamard_codebook(n, m)
    dense = dense_codebook(cb)
    rng = np.random.default_rng(n * 100 + m)
    v = rng.standard_normal(m)
    z = rng.standard_normal(n)
    assert np.abs(apply(cb, v) - dense @ v).max() < 1e-10
    assert np.abs(adjoint(cb, z) - dense.T @ z).max() < 1e-10


@pytest.mark.parametrize("n,m", GEOMETRIES)
def test_adjoint_identity(n, m):
    cb = hadamard_codebook(n, m)
    rng = np.random.default_rng(n * 200 + m)
    v = rng.standard_normal(m)
    z = rng.standard_normal(n)
    assert abs(float(apply(cb, v) @ z) - float(v @ adjoint(cb, z))) < 1e-9


@pytest.mark.parametrize("n,m", GEOMETRIES)
def test_squared_products_match_dense(n, m):
    cb = hadamard_codebook(n, m)
    sq = dense_codebook(cb) ** 2
    rng = np.random.default_rng(n * 300 + m)
    v = rng.standard_normal(m)
    z = rng.standard_normal(n)
    assert np.abs(sq_apply(cb, v) - sq @ v).max() < 1e-10
    assert np.abs(sq_adjoint(cb, z) - sq.T @ z).max() < 1e-10


def test_apply_rejects_wrong_lengths():
    cb = hadamard_codebook(4, 8)
    with pytest.raises(ConfigError):
        apply(cb, np.zeros(4))
    with pytest.raises(ConfigError):
        adjoint(cb, np.zeros(8))


@pytest.mark.parametrize("n", [250, 2**18, 2**18 + 6])
def test_transforms_keep_temporaries_small(n):
    m = 2**18
    cb = hadamard_codebook(n, m)
    rng = np.random.default_rng(43)
    v = rng.standard_normal(m)
    z = rng.standard_normal(n)
    for transform, arg in ((fwht, v), (lambda x: apply(cb, x), v),
                           (lambda x: adjoint(cb, x), z)):
        tracemalloc.start()
        try:
            transform(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 2 MB result and a 1 MB scratch half; no second copy of the
        # result, also not for n >= m
        assert peak <= 3.5 * 2**20
