"""Dense linear-algebra kernel.

Everything downstream (system generation, solvers, bound evaluation) sits on
these few operations: matrix-vector products, norms, and `lstsq`, one LAPACK
gelsd solve (SVD-based, so it never squares the condition number the way the
normal equations would) that gives a system's reference and all its singular
values at once; its rank test is RANK_RTOL on sigma / sigma_max.
"""

import math

import numpy as np

# Singular values at most this fraction of the largest count as zero.
RANK_RTOL = 1e-6


class RankError(ArithmeticError):
    """Matrix does not have the full rank the operation requires. `index` is
    the column (of a matrix with rows >= cols) or row (of a wider one) that
    depends on the ones before it."""

    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(message)


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


def lstsq(A, b) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solution of A x = b, least-norm when A is wide, and the
    singular values of A in non-increasing order (LAPACK gelsd).

    Raises RankError when the rank gelsd reports, counting singular values
    above RANK_RTOL * sigma_max, is below min(m, n). Only then a second SVD
    names the dependent column (row, when A is wide): the highest index whose
    weight in the singular vector of sigma_min is above RANK_RTOL times its
    largest weight.
    """
    A = as_matrix(A)
    b = as_vector(b)
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"dimension mismatch: matrix has {A.shape[0]} rows, rhs has {b.shape[0]}")
    x, _, rank, sigma = np.linalg.lstsq(A, b, rcond=RANK_RTOL)
    if rank < min(A.shape):
        u, _, vt = np.linalg.svd(A, full_matrices=False)
        tall = A.shape[0] >= A.shape[1]
        weights = np.abs(vt[-1] if tall else u[:, -1])
        index = int(np.flatnonzero(weights > RANK_RTOL * weights.max())[-1])
        axis = "column" if tall else "row"
        raise RankError(f"{axis} {index} depends on the {axis}s before it: sigma_min {sigma[-1]:.3e} "
                        f"<= RANK_RTOL {RANK_RTOL:g} * sigma_max {sigma[0]:.3e}", index)
    return x, sigma


def least_squares(A, b) -> np.ndarray:
    """Least-squares solution of an overdetermined system (see lstsq).
    Requires rows >= cols and full column rank (RankError otherwise)."""
    A = as_matrix(A)
    if A.shape[0] < A.shape[1]:
        raise ValueError(f"least_squares requires rows >= cols, got shape {A.shape}")
    return lstsq(A, b)[0]


def least_norm(A, b) -> np.ndarray:
    """Minimum-Euclidean-norm solution of an underdetermined system (see
    lstsq): it satisfies Ax = b up to conditioning and is orthogonal to the
    null space of A. Requires rows <= cols and full row rank."""
    A = as_matrix(A)
    if A.shape[0] > A.shape[1]:
        raise ValueError(f"least_norm requires rows <= cols, got shape {A.shape}")
    return lstsq(A, b)[0]


def min_singular_value(A) -> float:
    """Smallest singular value of a matrix with rows >= cols (LAPACK SVD)."""
    A = as_matrix(A)
    m, n = A.shape
    if m < n:
        raise ValueError(f"min_singular_value requires rows >= cols, got {m} x {n}")
    return float(np.linalg.svd(A, compute_uv=False)[-1])
