"""Dense linear-algebra kernel.

Everything downstream (system generation, solvers, bound evaluation) sits on
these few operations: matrix-vector products, norms, direct least-squares and
least-norm oracles, and the smallest singular value. The oracles factor the
matrix itself with a Householder QR and sigma_min comes from a LAPACK SVD, so
neither squares the condition number the way the normal equations would.
"""

import math

import numpy as np

# Rank threshold on squared pivots, relative to the largest squared column norm.
CHOLESKY_PIVOT_RTOL = 1e-12


class RankError(ArithmeticError):
    """Matrix does not have the full rank the operation requires."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d float array and check it is nonempty and finite."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must have at least one row and column, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-d float array and check it is finite."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def matvec(A, v) -> np.ndarray:
    A = as_matrix(A)
    v = as_vector(v)
    if v.shape[0] != A.shape[1]:
        raise ValueError(f"dimension mismatch: matrix has {A.shape[1]} columns, vector has {v.shape[0]}")
    return A @ v


def norm_inf(v) -> float:
    v = as_vector(v)
    if v.size == 0:
        return 0.0
    return float(np.abs(v).max())


def frobenius_norm_sq(A) -> float:
    """Sum of squared entries, accumulated as compensated sum of row norms.

    The summation order is pinned (per-row squared norm, then fsum over rows)
    so that this equals fsum(row . row) exactly; for a row-normalized
    matrix with m rows the result is m up to the normalization tolerance.
    """
    A = as_matrix(A)
    return math.fsum(row_norms_sq(A).tolist())


def matvecs(A, X, out=None) -> np.ndarray:
    """The rows A @ x for each row x of X, into `out` when given; no checks.

    numpy's matmul of the stack X[:, None, :] with A.T makes one gemv call per
    stacked item, the very call of `A @ x`, so each row has the bits of
    `A @ x`. The gemm `X @ A.T` does not: its entries may differ in the last
    bits.
    """
    return np.matmul(X[:, None, :], A.T, out=None if out is None else out[:, None, :])[:, 0, :]


def row_norms_sq(M) -> np.ndarray:
    """np.dot(row, row) for each row of M, bit for bit; no checks.

    A stacked matmul of (1, n) by (n, 1) items runs np.dot's own dot kernel
    on each row.
    """
    return np.matmul(M[:, None, :], M[:, :, None])[:, 0, 0]


def _full_rank_qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factorization M = QR of a matrix with rows >= cols.

    R_jj^2 is the j-th Cholesky pivot of M'M, so rank deficiency is tested on
    it: RankError names the first column whose squared diagonal entry is at
    most CHOLESKY_PIVOT_RTOL times the largest squared column norm of M (the
    largest diagonal entry of M'M).
    """
    Q, R = np.linalg.qr(M)
    pivots = np.diag(R) ** 2
    pivot_floor = CHOLESKY_PIVOT_RTOL * float(np.einsum("ij,ij->j", M, M).max())
    low = np.flatnonzero(pivots <= pivot_floor)
    if low.size:
        j = int(low[0])
        raise RankError(f"squared QR pivot {pivots[j]:.3e} below threshold {pivot_floor:.3e} at column {j}")
    return Q, R


def least_squares(A, b) -> np.ndarray:
    """Least-squares solution of an overdetermined system.

    Factors A = QR and solves R x = Q'b, which avoids squaring the condition
    number through the normal equations. Requires rows >= cols and full
    column rank (RankError otherwise).
    """
    A = as_matrix(A)
    b = as_vector(b)
    m, n = A.shape
    if m < n:
        raise ValueError(f"least_squares requires rows >= cols, got {m} x {n}")
    if b.shape[0] != m:
        raise ValueError(f"dimension mismatch: matrix has {m} rows, rhs has {b.shape[0]}")
    Q, R = _full_rank_qr(A)
    return np.linalg.solve(R, Q.T @ b)


def least_norm(A, b) -> np.ndarray:
    """Minimum-Euclidean-norm solution of an underdetermined system.

    Factors A' = QR and returns x = Q R'^{-1} b, which satisfies Ax = b
    exactly (up to conditioning) and is orthogonal to the null space of A.
    Requires rows <= cols and full row rank.
    """
    A = as_matrix(A)
    b = as_vector(b)
    m, n = A.shape
    if m > n:
        raise ValueError(f"least_norm requires rows <= cols, got {m} x {n}")
    if b.shape[0] != m:
        raise ValueError(f"dimension mismatch: matrix has {m} rows, rhs has {b.shape[0]}")
    Q, R = _full_rank_qr(A.T)
    return Q @ np.linalg.solve(R.T, b)


def min_singular_value(A) -> float:
    """Smallest singular value of a matrix with rows >= cols (LAPACK SVD)."""
    A = as_matrix(A)
    m, n = A.shape
    if m < n:
        raise ValueError(f"min_singular_value requires rows >= cols, got {m} x {n}")
    return float(np.linalg.svd(A, compute_uv=False)[-1])
