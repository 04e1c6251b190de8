"""Dense linear-algebra kernel.

Everything downstream (system generation, solvers, bound evaluation) sits on
these few operations: matrix-vector products, norms, and `lstsq`, one LAPACK
gelsd solve (SVD-based, so it never squares the condition number the way the
normal equations would) that gives a system's reference and all its singular
values at once; its rank test is RANK_RTOL on sigma / sigma_max.

`residuals` gives a stack of iterates their residuals A x - b with the bits
of one `A @ x - b` each, walking A in slabs of about SLAB_BYTES so that one
slab, read once, serves every iterate from a core's L2 cache. Every row run
that a product here gives to gemv is edged by `row_windows`, at multiples
of 64 rows: OpenBLAS's gemv sums the rows of a group of 4 in one order and
the leftover rows in another (64 leaves room for groups of 8 or 16). The
screens `largest_residual` (a float32 gemv) and `witness_screen` (a float64
product on a few rows) confirm with gemvs each entry they cannot rule out
within `rounding_band`, the one bound on their error, so they keep the bits.

`in_halves` gives the later half of a product's row runs to a helper
thread; each run keeps its `row_windows` edges, so no bit changes. Only
`solvers.run` passes a helper (see there).

These bits hold over every layout on each kernel of numpy's bundled OpenBLAS
0.3.31 the tests run on (tests/test_linalg.py checks whatever BLAS numpy
loads), but kernels round differently: `tools/digests.py` prints b82899d8...
on SkylakeX, e240fd3a... on Haswell and Zen (`OPENBLAS_CORETYPE`) and
d5d82ef4... on Sandybridge. Prescott (the library names its core Katmai)
is outside the contract: its dot kernel's sum order depends on where its
second operand starts mod 16 bytes. So a step's `a_i.dot(x)`, x a row of
an iterate buffer 8 bytes past a 16-byte boundary, differs from the same
dot of x's aligned copy (92 of 200 draws at n = 5), and `row_norms_sq` of
a strided A from that of its contiguous copy; gemv does not depend on it.

A gemv reads A fastest when every row starts on a 32-byte boundary.
`empty_aligned` gives that layout: a row stride of n rounded up to a
multiple of 4 doubles from a 32-byte-aligned base. `load_system` loads
every system file into it. Measured on a 2-core Xeon at one BLAS thread
(interquartile ranges of 60-300 interleaved calls), `residuals` of 64
iterates took:

  shape       aligned rows    row stride n + 1 (an [A | b] record's)
  10000x100   7.9-8.8 ms      10.3-11.2 ms
  300x180     0.34-0.49 ms    0.47-0.59 ms
  2000x50     0.89-0.95 ms    1.12-1.18 ms  (strides 52 and 51)

OpenBLAS's default (SkylakeX) and its Haswell kernels gave the same table.
At the aligned stride, a base 8 or 16 bytes past a 32-byte boundary was as
slow as the n + 1 stride; bases 0 and 32 bytes past a 64-byte boundary were
equally fast, so rows are not padded to 64 bytes, which would only take
more memory. The layout changes no bit: the kernels sum each row in the
same order wherever it starts, which tests/test_linalg.py checks.
"""

import contextvars
import ctypes
import functools
from pathlib import Path

import numpy as np

# Singular values at most this fraction of the largest count as zero.
RANK_RTOL = 1e-6
# bytes of A per slab of `residuals`; a sweep of 256 KB to 2 MB slabs over
# 4000-20000 rows found 1 MB as fast as any (BENCH_slab_residuals.json)
SLAB_BYTES = 2**20


class RankError(ArithmeticError):
    """Matrix does not have the full rank the operation requires. `index` is
    the column (of a matrix with rows >= cols) or row (of a wider one) that
    depends on the ones before it."""

    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(message)


@functools.cache
def bundled_openblas():
    """The OpenBLAS that numpy bundles, as a ctypes library whose thread
    count `scipy_openblas_set_num_threads64_` sets and
    `scipy_openblas_get_num_threads64_` reads, and whose thread pool
    `blas_thread_shutdown_` stops where the library exports it, or None
    where numpy bundles none (it uses another BLAS, or one of the system's)."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*")):
        openblas = ctypes.CDLL(str(path))
        if hasattr(openblas, "scipy_openblas_set_num_threads64_"):
            openblas.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            openblas.scipy_openblas_set_num_threads64_.restype = None
            if hasattr(openblas, "blas_thread_shutdown_"):
                openblas.blas_thread_shutdown_.argtypes = []  # it returns an int, ctypes' default
            return openblas
    return None


def blas_threads():
    """The thread count of numpy's bundled OpenBLAS, or None with another BLAS."""
    openblas = bundled_openblas()
    return openblas and openblas.scipy_openblas_get_num_threads64_()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d float array and check it is nonempty and finite: by
    the sum of its entries, with no m x n temporary, and only when that sum
    is not finite (an overflow, or a non-finite entry) by a scan of each."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must have at least one row and column, got {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(a.sum()) and not np.isfinite(a).all():
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


def norm_inf(v) -> float:
    v = as_vector(v)
    if v.size == 0:
        return 0.0
    return float(np.abs(v).max())


def empty_aligned(m, n) -> np.ndarray:
    """An uninitialized m x n float array whose rows start on 32-byte
    boundaries: a view of a buffer with rows of n rounded up to a multiple
    of 4 doubles, from its first 32-byte boundary (see the module docstring)."""
    stride = -(-n // 4) * 4
    buf = np.empty(m * stride + 3)
    lead = -buf.ctypes.data % 32 // 8
    return buf[lead:lead + m * stride].reshape(m, stride)[:, :n]


def slab_rows(n) -> int:
    """Rows of an n-column matrix per slab of `residuals`: SLAB_BYTES of
    them, rounded down to a multiple of 64, and at least 64."""
    return max(1, SLAB_BYTES // (8 * 64 * n)) * 64


def row_windows(m, rows) -> range:
    """The first rows of the runs of `rows` rows (a multiple of 64) that split
    m rows for gemv: each multiple of `rows` below m - 1, so that a last run of
    one row, which numpy's matmul gives to its dot kernel, joins the one before."""
    return range(0, max(1, m - 1), rows)


def rounding_band(dtype, n, scale):
    """How far an entry of A x - b on unit rows, from a float32 product of
    float32 copies of A, x and b or a float64 one in another order (`dtype`),
    can lie from the gemv's: 2 (n + k) (u scale + eta), scale = ||x||_2 +
    ||b||_inf + |entry|. The n products' sum and b_i's subtraction, each
    rounding by u of its result, err by (n + 1) u scale at most, as sum_j
    |a_j x_j| <= ||x||_2; float32's casts add 3 (k = 4, u = 2^-24; the factor
    2 holds the gemv's error), two float64 products double 2^-53 to u = 2^-52
    (k = 2, one spare), and a subnormal result rounds by eta, its spacing."""
    k, u, eta = (4, 2**-24, 2**-149) if dtype == np.float32 else (2, 2**-52, 2**-1074)
    return 2 * (n + k) * (u * scale + eta)


def in_halves(helper, edges, run):
    """run(lo, hi) for each pair of adjacent `edges`; with a `helper`
    executor and more than one pair, the later half of the pairs runs on it,
    in the caller's contextvars context (so np.errstate holds there too),
    while this thread runs the earlier half. It returns or raises once both
    halves are done; a helper's exception reaches the caller."""
    if helper is None or len(edges) < 3:
        return _runs(edges, run)
    half = len(edges) // 2
    later = helper.submit(contextvars.copy_context().run, _runs, edges[half:], run)
    try:
        _runs(edges[:half + 1], run)
    finally:
        later.result()


def _runs(edges, run):
    for lo, hi in zip(edges, edges[1:]):
        run(lo, hi)


def residuals(A, b, X, out, helper=None) -> np.ndarray:
    """The rows A @ x - b for each row x of X, into `out`; no checks.

    For each slab of `slab_rows(n)` rows of A, edged by `row_windows`,
    numpy's matmul of the stack X[:, None, :] with the slab's transpose
    makes one gemv call per stacked item, the call of `A @ x` on those rows,
    and b's slab is subtracted while the products are in cache. Each row
    has the bits of `A @ x - b` (see the module docstring). A matrix of one
    slab makes the single stacked call over all of A. The gemm `X @ A.T`
    would not keep the bits: its entries may differ in the last bits. With
    a `helper`, the later half of the slabs runs on it (`in_halves`).
    """
    def slab(lo, hi):
        np.matmul(X[:, None, :], A[lo:hi].T, out=out[:, None, lo:hi])
        out[:, lo:hi] -= b[lo:hi]

    in_halves(helper, [*row_windows(A.shape[0], slab_rows(A.shape[1])), A.shape[0]], slab)
    return out


def screen_copies(A, b) -> tuple[np.ndarray, np.ndarray, float]:
    """The float32 copies of A and b, and ||b||_inf, that `largest_residual` reads."""
    with np.errstate(over="ignore"):  # a b_i past float32's range screens as inf
        return A.astype(np.float32), b.astype(np.float32), float(np.abs(b).max())


def largest_residual(A, b, x, screen) -> tuple[int, float, int]:
    """The row i of the largest entry of |A @ x - b|, smallest i on ties,
    that entry, with the bits of the full `A @ x - b`, and the rows it took
    exactly, for an A of unit rows and its `screen_copies`; no checks: exact
    gemvs on the 64-row `row_windows`, adjacent ones in one call, of the
    rows whose float32 entry lies within 2 `rounding_band` of the largest."""
    A32, b32, b_inf = screen
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.subtract(A32 @ x.astype(np.float32), b32)
    top, m = float(np.abs(v, out=v).max()), A.shape[0]
    if not top < np.inf:  # a NaN or inf entry (x or b past float32's range): the full gemv
        r = np.abs(A @ x - b)
        i = int(r.argmax())
        return i, r.item(i), m
    band = rounding_band(np.float32, A.shape[1], x.dot(x) ** 0.5 + b_inf + top)
    starts = row_windows(m, 64)
    hit = np.zeros(len(starts) + 2, bool)  # hit[w + 1]: window w holds a candidate
    hit[np.minimum(np.flatnonzero(v >= top - 2 * band) // 64, len(starts) - 1) + 1] = True
    edges = (64 * np.flatnonzero(hit[1:] != hit[:-1])).tolist()  # runs of windows
    i, level, exact = 0, -1.0, 0
    for lo, hi in zip(edges[::2], edges[1::2]):
        hi = m if hi > starts[-1] else hi
        r = np.abs(A[lo:hi] @ x - b[lo:hi])
        j = int(r.argmax())
        if r.item(j) > level:  # strictly: an earlier row keeps a tie
            i, level = lo + j, r.item(j)
        exact += hi - lo
    return i, level, exact


def witness_screen(A, b, b_inf, iterates, threshold, witness):
    """The first j >= 1 whose `A @ x_j - b`, x_j = iterates[j], has sup norm
    at most `threshold`, else None, on unit rows; no checks. An x_j whose
    largest entry v on the `witness` rows (one product for all) exceeds the
    threshold by more than its float64 `rounding_band` does not stop; the
    first other one gets the gemv: it stops, or its largest entry's new row
    joins `witness` and raises v of the x_j after it."""
    xs = iterates[1:]
    v = np.abs(xs @ A[witness].T - b[witness]).max(axis=1)
    slack = np.sqrt(row_norms_sq(xs)) + b_inf
    j = 0  # x_1 .. x_j are settled
    while True:
        band = rounding_band(np.float64, A.shape[1], slack[j:] + v[j:])
        unproved = np.flatnonzero(~(v[j:] - band > threshold))
        if not unproved.size:
            return None
        j += 1 + int(unproved[0])
        r = A @ iterates[j] - b
        i = int(np.abs(r, out=r).argmax())  # solvers.select_motzkin(r)
        if r.item(i) <= threshold:
            return j
        if i not in witness:  # a witness row's entries are in v already
            witness.append(i)
            np.maximum(v[j:], np.abs(xs[j:] @ A[i] - b[i]), out=v[j:])


def row_norms_sq(M) -> np.ndarray:
    """np.dot(row, row) for each row of M, bit for bit; no checks.

    A stacked matmul of (1, n) by (n, 1) items runs np.dot's own dot kernel
    on each row.
    """
    return np.matmul(M[:, None, :], M[:, :, None])[:, 0, 0]


def lstsq(A, b) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solution of A x = b, least-norm when A is wide, and the
    singular values of A in non-increasing order, from one LAPACK gelsd
    solve; A and b are checked first.

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
