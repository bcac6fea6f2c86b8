"""
Quantization and transmission codebooks.

Quantization: a rectangular grid over [0,1]^2 with m = 2**b cells
(2**ceil(b/2) rows by 2**floor(b/2) columns); message indices are row-major
cell indices and reproduction points are cell centroids.

Transmission: m unit-norm codewords drawn from a Sylvester-ordered Hadamard
matrix so that C @ v and C.T @ z cost O(m log m) via the fast Walsh-Hadamard
transform instead of O(n m).  For n < m the kept rows are a fixed-seed
pseudorandom subset of rows 1..m-1 (the all-ones row is always excluded),
scaled by 1/sqrt(n); encoder and decoder deterministically share the same
subset for a given (n, m).  Subsampling must be spread over the rows: any
row subset lying in a GF(2) hyperplane (for example a contiguous block
1..n with n <= m/4) makes distinct columns exactly equal, so messages
would be undecodable.  For n == m all rows are kept (C is orthogonal); for
n > m the m x m matrix is zero-padded (scale 1/sqrt(m)).  Columns have
exactly unit norm in every case, and for n >= m they are exactly
orthonormal.
"""

from dataclasses import dataclass

import numpy as np

from .scenario import ConfigError, _require, _is_pow2, _whole


# ---------------------------------------------------------------------------
# quantization


@dataclass(frozen=True, eq=False)
class GridQuantizer:
    """Row-major rectangular grid quantizer on the unit square."""

    m: int
    rows: int
    cols: int
    centroids: np.ndarray  # (m, 2) cell centers, row-major

    @property
    def bits(self):
        return int(self.m).bit_length() - 1


def grid_codebook(m):
    """Build the m-cell grid quantizer, m a power of two (at least 2)."""
    m = _whole(m, "quantizer size", 2)
    _require(_is_pow2(m), "quantizer size must be a power of two >= 2")
    b = int(m).bit_length() - 1
    rows = 1 << ((b + 1) // 2)
    cols = 1 << (b // 2)
    r, c = np.divmod(np.arange(m), cols)
    centroids = np.column_stack(((c + 0.5) / cols, (r + 0.5) / rows))
    centroids.setflags(write=False)
    return GridQuantizer(m=m, rows=rows, cols=cols, centroids=centroids)


def quantize(quantizer, points):
    """Map points in [0,1]^2 to row-major cell indices.

    Cells are half-open boxes (floor with clamp at the upper edge), which is
    the nearest-centroid rule for a rectangular grid.  Accepts one point of
    shape (2,) or a batch of shape (k, 2).
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    _require(pts.shape[1] == 2, "points must have two coordinates")
    _require(np.all(pts >= 0) and np.all(pts <= 1), "points must lie in [0,1]^2")
    c = np.minimum((pts[:, 0] * quantizer.cols).astype(np.int64), quantizer.cols - 1)
    r = np.minimum((pts[:, 1] * quantizer.rows).astype(np.int64), quantizer.rows - 1)
    idx = r * quantizer.cols + c
    return int(idx[0]) if single else idx


# ---------------------------------------------------------------------------
# fast Walsh-Hadamard transform


def fwht(v):
    """Unnormalized Walsh-Hadamard transform along the last axis.

    Sylvester ordering: fwht(e_j) is row j of the usual H_L built from
    H_2 = [[1, 1], [1, -1]], and fwht(fwht(v)) == L * v.
    """
    return _fwht_in_place(np.array(v, dtype=float))


def _fwht_in_place(a):
    """fwht of a C-contiguous float array, overwriting it; returns it.

    Besides the array itself the only memory is one half-size scratch
    array shared by every butterfly stage.
    """
    size = a.shape[-1]
    _require(_is_pow2(size), "transform length must be a power of two")
    rows = a.reshape(-1, size)
    scratch = np.empty(a.size // 2)
    h = 1
    while h < size:
        b = rows.reshape(rows.shape[0], -1, 2, h)
        lo, hi = b[:, :, 0, :], b[:, :, 1, :]
        diff = scratch.reshape(lo.shape)
        np.subtract(lo, hi, out=diff)
        lo += hi
        hi[...] = diff
        h *= 2
    return a


# ---------------------------------------------------------------------------
# transmission codebook


@dataclass(frozen=True, eq=False)
class HadamardCodebook:
    """Truncated/padded Hadamard codebook with fast products.

    n x m implicit matrix C; entries are +-scale on the active rows and the
    columns are exactly unit norm.
    """

    n: int
    m: int
    row_ids: np.ndarray  # Sylvester row indices kept, length min(n, m)
    scale: float

    @property
    def orthonormal_columns(self):
        """True when C.T @ C is exactly the identity (n >= m)."""
        return self.n >= self.m


# Fixed entropy for the row-subset draw: every codebook with the same (n, m)
# geometry selects the same rows, so encoder and decoder agree without
# shipping the subset around.
_ROW_SEED = 0x5EED


def hadamard_codebook(n, m):
    """Build the n x m codebook; m must be a power of two >= 2."""
    n, m = _whole(n, "n", 1), _whole(m, "codebook size", 2)
    _require(_is_pow2(m), "codebook size must be a power of two >= 2")
    if n < m:
        # Pseudorandom subset of rows 1..m-1 (never the all-ones row 0),
        # seeded by the geometry alone.  A spread-out subset keeps distinct
        # columns distinguishable; see the module docstring.
        seq = np.random.SeedSequence(entropy=_ROW_SEED, spawn_key=(n, m))
        picker = np.random.default_rng(seq)
        row_ids = np.sort(picker.choice(m - 1, size=n, replace=False) + 1)
        scale = 1.0 / np.sqrt(n)
    else:
        row_ids = np.arange(m)
        scale = 1.0 / np.sqrt(m)
    row_ids.setflags(write=False)
    return HadamardCodebook(n=n, m=m, row_ids=row_ids, scale=scale)


def apply(cb, v):
    """C @ v for v of shape (m,)."""
    v = np.asarray(v, dtype=float)
    _require(v.shape == (cb.m,), "vector length must equal codebook size")
    if cb.n > cb.m:
        out = np.zeros(cb.n)
        out[: cb.m] = v
        t = _fwht_in_place(out[: cb.m])
        t *= cb.scale
        return out
    t = fwht(v)
    t *= cb.scale
    return t if cb.n == cb.m else t[cb.row_ids]


def adjoint(cb, z):
    """C.T @ z for z of shape (n,)."""
    z = np.asarray(z, dtype=float)
    _require(z.shape == (cb.n,), "vector length must equal codeword length")
    if cb.n <= cb.m:
        buf = np.zeros(cb.m)
        buf[cb.row_ids] = z
        out = _fwht_in_place(buf)  # H is symmetric
    else:
        out = fwht(z[: cb.m])
    out *= cb.scale
    return out


def sq_apply(cb, v):
    """(C*C) @ v, elementwise-squared matrix; constant columns make it a sum."""
    v = np.asarray(v, dtype=float)
    _require(v.shape == (cb.m,), "vector length must equal codebook size")
    s = v.sum() * cb.scale**2
    if cb.n <= cb.m:
        return np.full(cb.n, s)
    out = np.zeros(cb.n)
    out[: cb.m] = s
    return out


def sq_adjoint(cb, z):
    """(C*C).T @ z for z of shape (n,)."""
    z = np.asarray(z, dtype=float)
    _require(z.shape == (cb.n,), "vector length must equal codeword length")
    s = z[: cb.m].sum() if cb.n > cb.m else z.sum()
    return np.full(cb.m, s * cb.scale**2)
