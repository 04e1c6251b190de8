import math
import threading
import time
import tracemalloc
import warnings
from concurrent import futures

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rowaction import linalg, systems

from oracles import frobenius_norm_sq, least_squares_oracle, min_singular_value_oracle


def test_norm_inf_sign_invariance():
    assert linalg.norm_inf([3, -4]) == 4.0


def test_norms_reject_nonfinite_entries():
    with pytest.raises(ValueError):
        linalg.norm_inf([1.0, np.inf])
    with pytest.raises(ValueError):
        linalg.norm_inf([np.nan])


def test_as_matrix_accepts_finite_entries_whose_sum_overflows():
    A = np.full((4, 3), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow of the sum warns nothing
        assert linalg.as_matrix(A) is A


@pytest.mark.parametrize("bad", [[math.nan], [math.inf], [math.inf, -math.inf]],
                         ids=["nan", "+inf", "inf-pair"])
def test_as_matrix_rejects_nonfinite_entries_without_a_warning(bad):
    A = np.ones((3, 4))
    A[1, :len(bad)] = bad  # the +inf/-inf pair sums to NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            linalg.as_matrix(A)


def test_as_matrix_checks_a_finite_matrix_without_an_m_by_n_temporary():
    A = np.random.default_rng(0).standard_normal((2000, 512))  # 8 MB; its bool mask is 1 MB
    tracemalloc.start()
    try:
        linalg.as_matrix(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_least_squares_identity_consistent():
    x = linalg.least_squares([[1, 0], [0, 1]], [2, 5])
    assert np.allclose(x, [2, 5], atol=1e-12)


def test_least_squares_mean_of_observations():
    x = linalg.least_squares([[1], [1]], [0, 2])
    assert np.allclose(x, [1], atol=1e-12)


def test_least_squares_hand_normal_equations():
    # A'A = [[2,1],[1,2]], A'b = (2,2): solution (2/3, 2/3)
    x = linalg.least_squares([[1, 0], [0, 1], [1, 1]], [1, 1, 1])
    assert np.allclose(x, [2 / 3, 2 / 3], atol=1e-12)


def test_least_squares_residual_orthogonality():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        m = n + int(rng.integers(1, 10))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        x = linalg.least_squares(A, b)
        lhs = np.abs(A.T @ (A @ x - b)).max()
        assert lhs <= 1e-8 * np.abs(A.T @ b).max() + 1e-12


def test_least_squares_matches_elimination_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = n + int(rng.integers(1, 5))
        A = rng.uniform(-2, 2, size=(m, n))
        if min_singular_value_oracle(A) < 1e-2:
            continue
        b = rng.uniform(-2, 2, size=m)
        x = linalg.least_squares(A, b)
        ref = least_squares_oracle(A, b)
        assert np.abs(x - ref).max() <= 1e-8 * (1 + np.abs(ref).max())


def test_least_squares_rank_error():
    with pytest.raises(linalg.RankError):
        linalg.least_squares([[1, 1], [2, 2], [3, 3]], [1, 2, 3])


def test_least_squares_shape_errors():
    with pytest.raises(ValueError):
        linalg.least_squares([[1, 2, 3]], [1])  # underdetermined
    with pytest.raises(ValueError):
        linalg.least_squares([[1], [1]], [1, 2, 3])  # rhs length


def test_least_norm_symmetric_split():
    assert np.allclose(linalg.least_norm([[1, 1]], [2]), [1, 1], atol=1e-12)


def test_least_norm_unconstrained_coordinate():
    assert np.allclose(linalg.least_norm([[1, 0]], [3]), [3, 0], atol=1e-12)


def test_least_norm_hand_case():
    # AA' = [[2,1],[1,2]], y = (1/3,1/3), x = A'y = (1/3, 2/3, 1/3)
    x = linalg.least_norm([[1, 1, 0], [0, 1, 1]], [1, 1])
    assert np.allclose(x, [1 / 3, 2 / 3, 1 / 3], atol=1e-12)


def test_least_norm_solves_exactly_and_is_orthogonal_to_null_space():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    x = linalg.least_norm(A, b)
    assert np.abs(A @ x - b).max() <= 1e-8 * np.abs(b).max() + 1e-12
    z = np.array([1.0, -1.0, 1.0])  # spans the null space of A
    assert abs(np.dot(x, z)) <= 1e-8 * np.linalg.norm(x) * np.linalg.norm(z)


def test_least_norm_random_consistency():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        n = m + int(rng.integers(1, 5))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        x = linalg.least_norm(A, b)
        assert np.abs(A @ x - b).max() <= 1e-8 * np.abs(b).max() + 1e-12


def test_least_norm_rank_error():
    with pytest.raises(linalg.RankError):
        linalg.least_norm([[1, 1, 0], [1, 1, 0]], [1, 1])


def test_lstsq_rank_error_names_the_dependent_column_or_row():
    # column 2 = column 0 + column 1, and row 2 = row 0 + row 1
    with pytest.raises(linalg.RankError, match="^column 2 depends on the columns before it") as err:
        linalg.least_squares([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 2, 0], [0, 0, 0, 1], [1, 2, 3, 4]], np.ones(5))
    assert err.value.index == 2
    with pytest.raises(linalg.RankError, match="^row 2 depends on the rows before it") as err:
        linalg.least_norm([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]], np.ones(3))
    assert err.value.index == 2


def test_lstsq_rank_tolerance_is_relative_to_sigma_max():
    for scale in (1.0, 1e-8, 1e8):
        A = scale * np.array([[1.0, 0.0], [0.0, 2 * linalg.RANK_RTOL], [0.0, 0.0]])
        x, singular_values = linalg.lstsq(A, np.ones(3))
        assert singular_values == pytest.approx([scale, 2 * linalg.RANK_RTOL * scale], rel=1e-12)
        A[1, 1] /= 4
        with pytest.raises(linalg.RankError):
            linalg.lstsq(A, np.ones(3))


def test_min_singular_value_identity():
    assert linalg.min_singular_value([[1, 0], [0, 1]]) == pytest.approx(1.0, abs=1e-12)


def test_min_singular_value_diagonal():
    assert linalg.min_singular_value([[2, 0], [0, 3], [0, 0]]) == pytest.approx(2.0, abs=1e-12)


def test_min_singular_value_hand_gram():
    # A'A = [[3,0],[0,2]], smallest eigenvalue 2
    got = linalg.min_singular_value([[1, 1], [1, -1], [1, 0]])
    assert got == pytest.approx(math.sqrt(2), rel=1e-12)


def test_min_singular_value_rayleigh_lower_bound():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(40, 8))
    smin = linalg.min_singular_value(A)
    for _ in range(100):
        v = rng.normal(size=8)
        v /= np.linalg.norm(v)
        assert smin ** 2 <= np.dot(A @ v, A @ v) + 1e-9


def test_min_singular_value_matches_reference_svd():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        m = n + int(rng.integers(0, 20))
        A = rng.normal(size=(m, n))
        ref = np.linalg.svd(A, compute_uv=False)[-1]
        if ref < 1e-3:
            continue
        assert linalg.min_singular_value(A) == pytest.approx(ref, rel=1e-8)


def correlated_system():
    # cond(A) is about 5e4, so normal equations would lose about 1e-6 relative
    return systems.generate(systems.GeneratorSpec(
        "correlated", m=2000, n=50, noise_std=0.01, row_std=1e-4, seed=1))


def test_least_squares_reference_accurate_on_ill_conditioned_system():
    sys_ = correlated_system()
    ref = np.linalg.lstsq(sys_.a, sys_.b, rcond=None)[0]
    assert np.linalg.norm(sys_.reference - ref) <= 1e-10 * np.linalg.norm(ref)


def test_min_singular_value_accurate_on_ill_conditioned_system():
    sys_ = correlated_system()
    ref = np.linalg.svd(sys_.a, compute_uv=False)[-1]
    assert linalg.min_singular_value(sys_.a) == pytest.approx(ref, rel=1e-10)


def test_min_singular_value_shape_error():
    with pytest.raises(ValueError):
        linalg.min_singular_value([[1, 2, 3]])


def test_frobenius_identity():
    assert frobenius_norm_sq(np.eye(2)) == 2.0


def test_frobenius_single_row():
    assert frobenius_norm_sq([[3, 4]]) == 25.0


def test_frobenius_equals_row_norm_sum_exactly():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(37, 5))
    total = math.fsum(float(np.dot(row, row)) for row in A)
    assert frobenius_norm_sq(A) == total


STACKED_CONTRACT = ("the stacked products must equal their one-row forms bit for bit: "
                    "randomized-Kaczmarz telemetry takes a block's residuals with "
                    "linalg.residuals and its squared norms with linalg.row_norms_sq, and "
                    "every telemetry CSV byte rests on them equalling `A @ x - b` and np.dot")


# load_system's layout (leading dimension n rounded up to 4 doubles), with
# its base this many bytes past a 32-byte boundary: 0 as load_system gives it
ALIGNED = {"aligned": 0, "aligned+8": 8, "aligned+16": 16, "aligned+24": 24}
# a C-contiguous A, the `body[:, :-1]` view of an [A | b] record (leading
# dimension n + 1), and the aligned layouts
LAYOUTS = [False, True, *ALIGNED]


def stacked_operands(m, n, layout, seed, rows=5):
    """A in `layout` (one of LAYOUTS) and a stack X of iterates; A has the
    same values in every layout."""
    rng = np.random.default_rng(seed)
    body = rng.normal(size=(m, n + 1))
    if layout in ALIGNED:
        stride, offset = -(-n // 4) * 4, ALIGNED[layout]
        buf = np.empty(m * stride + 4)
        lead = (offset - buf.ctypes.data) % 32 // 8
        A = buf[lead:lead + m * stride].reshape(m, stride)[:, :n]
        A[:] = body[:, :-1]
        assert A.strides == (stride * 8, 8) and A.ctypes.data % 32 == offset
    else:
        A = body[:, :-1] if layout else np.ascontiguousarray(body[:, :-1])
    return A, rng.normal(size=(rows, n)), rng.normal(size=m)


def assert_stacked_products_exact(A, X, b):
    residuals = linalg.residuals(A, b, X, np.empty((X.shape[0], A.shape[0])))
    for x, r in zip(X, residuals):
        assert r.tobytes() == (A @ x - b).tobytes(), STACKED_CONTRACT
    for M in (residuals, X, A):
        assert linalg.row_norms_sq(M).tolist() == [float(np.dot(v, v)) for v in M], STACKED_CONTRACT
    # and A's layout changes no bit of them
    C = np.ascontiguousarray(A)
    assert residuals.tobytes() == linalg.residuals(C, b, X, np.empty_like(residuals)).tobytes()
    # nor does a helper thread taking the later half of the slabs
    with futures.ThreadPoolExecutor(1) as helper:
        assert residuals.tobytes() == linalg.residuals(A, b, X, np.empty_like(residuals), helper).tobytes()
    assert all((A @ x).tobytes() == (C @ x).tobytes() for x in X)
    assert linalg.row_norms_sq(A).tobytes() == linalg.row_norms_sq(C).tobytes()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("m, n", [(1, 1), (2000, 50), (300, 180), (10000, 100)])
def test_stacked_products_equal_gemv_and_dot(m, n, layout):
    A, X, b = stacked_operands(m, n, layout, seed=m + n)
    if layout is True:
        assert A.strides == ((n + 1) * 8, 8)
    assert_stacked_products_exact(A, X, b)


@settings(max_examples=60)
@given(m=st.integers(1, 24), n=st.integers(1, 6), rows=st.integers(1, 4),
       layout=st.sampled_from(LAYOUTS), seed=st.integers(0, 2**32 - 1))
def test_stacked_products_equal_gemv_and_dot_small(m, n, rows, layout, seed):
    assert_stacked_products_exact(*stacked_operands(m, n, layout, seed, rows))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("m, n", [(1, 1), (2000, 50), (300, 180), (10000, 100)])
def test_frobenius_equals_fsum_of_row_dots_bit_for_bit(m, n, layout):
    A, _, _ = stacked_operands(m, n, layout, seed=7)
    assert frobenius_norm_sq(A) == math.fsum(float(np.dot(row, row)) for row in A)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (5, 3), (7, 4), (3, 5), (300, 181)])
def test_empty_aligned_rows_start_on_32_byte_boundaries(m, n):
    A = linalg.empty_aligned(m, n)
    assert A.shape == (m, n) and A.dtype == np.float64 and A.flags.writeable
    assert A.strides == (-(-n // 4) * 32, 8) and A.ctypes.data % 32 == 0


def test_slab_rows_are_a_positive_multiple_of_64_within_the_slab_bytes():
    for n in range(1, 5001):
        rows = linalg.slab_rows(n)
        assert rows >= 64 and rows % 64 == 0, n
        # as many as fit in SLAB_BYTES, or 64 when not even those fit
        assert rows == 64 or rows * 8 * n <= linalg.SLAB_BYTES < (rows + 64) * 8 * n, n


@pytest.mark.parametrize("layout", [False, True, "aligned", "aligned+8"])
@pytest.mark.parametrize("rows", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("m, n", [(10000, 100), (20000, 50), (4100, 70)])
def test_residuals_over_several_slabs_equal_gemv(m, n, rows, layout):
    # the real slab size: several slabs and a partial last one
    assert m > 2 * linalg.slab_rows(n) and m % linalg.slab_rows(n) and m % 64
    assert_stacked_products_exact(*stacked_operands(m, n, layout, seed=m + rows, rows=rows))


# m = 64 k + 1 would leave a one-row slab, which numpy's matmul sends to its
# dot kernel instead of gemv; that row joins the slab before it. The aligned
# examples have n % 4 != 0, so their rows are padded; the last example has
# one column.
@example(m=65, n=9, rows=3, layout=False, seed=65)
@example(m=129, n=9, rows=3, layout=True, seed=129)
@example(m=65, n=9, rows=3, layout="aligned", seed=66)
@example(m=193, n=10, rows=2, layout="aligned+8", seed=193)
@example(m=129, n=7, rows=4, layout="aligned+16", seed=130)
@example(m=257, n=5, rows=1, layout="aligned+24", seed=257)
@example(m=577, n=40, rows=4, layout=False, seed=577)
@example(m=128, n=1, rows=1, layout=True, seed=128)
@settings(max_examples=80)
@given(m=st.integers(1, 600), n=st.integers(1, 40), rows=st.integers(1, 4),
       layout=st.sampled_from(LAYOUTS), seed=st.integers(0, 2**32 - 1))
def test_residuals_on_64_row_slabs_equal_gemv(m, n, rows, layout, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "SLAB_BYTES", 1)
        assert linalg.slab_rows(n) == 64
        assert_stacked_products_exact(*stacked_operands(m, n, layout, seed, rows))


@pytest.mark.parametrize("rows", [64, 128])
def test_row_windows_edge_at_multiples_and_join_a_last_row_to_the_run_before(rows):
    for m in range(1, 3 * rows + 3):
        starts = linalg.row_windows(m, rows)
        edges = [*starts, m]
        sizes = [hi - lo for lo, hi in zip(edges, edges[1:])]
        assert starts[0] == 0 and all(lo % rows == 0 for lo in starts), m
        # full runs, then a last one of 2 to rows + 1 rows: never one row
        # (numpy's dot kernel) unless the matrix has one row
        assert sizes[:-1] == [rows] * (len(sizes) - 1), m
        assert 2 <= sizes[-1] <= rows + 1 or m == 1, m


# --------------------------------------------------------------------------
# rounding_band: how far a float32 product, or a float64 one in another
# order, lies from the gemv


@pytest.mark.parametrize("n", [1, 50, 180])
def test_rounding_band_keeps_the_screens_band_values(n):
    # the bits of the bands that the screens used before they shared one
    # function; float64's underflow term shows only below scale 2^-968
    scale = np.geomspace(2.0**-968, 1e300, 601)
    assert np.array_equal(linalg.rounding_band(np.float32, n, scale),
                          2 * (n + 4) * (2**-24 * scale + 2**-149))
    assert np.array_equal(linalg.rounding_band(np.float64, n, scale), 2 * (n + 2) * np.finfo(float).eps * scale)
    assert linalg.rounding_band(np.float64, n, 0.0) == 2 * (n + 2) * 2**-1074


@settings(max_examples=60)
@given(m=st.integers(1, 300), n=st.integers(1, 60),
       exponent=st.sampled_from([-322, -315, -308, -44, -40, 0, 30]), seed=st.integers(0, 2**32 - 1))
def test_rounding_band_bounds_each_cheaper_product(m, n, exponent, seed):
    # the float32 screen's entries, and a stacked float64 product's on a few
    # rows (the witness screen's), each within the band of the gemv's
    A, rng = unit_rows(m, n, seed)
    X, b = 10.0 ** exponent * rng.normal(size=(3, n)), 10.0 ** exponent * rng.normal(size=m)
    A32, b32, b_inf = linalg.screen_copies(A, b)
    rows = rng.choice(m, size=min(m, 5), replace=False)
    stacked = X @ A[rows].T - b[rows]
    for x, product in zip(X, stacked):
        gemv = A @ x - b
        for dtype, entries, exact in ((np.float32, (A32 @ x.astype(np.float32) - b32).astype(float), gemv),
                                      (np.float64, product, gemv[rows])):
            scale = x.dot(x) ** 0.5 + b_inf + np.maximum(np.abs(entries), np.abs(exact))
            assert (np.abs(entries - exact) <= linalg.rounding_band(dtype, n, scale)).all(), dtype


# --------------------------------------------------------------------------
# largest_residual: the greedy row from a float32 screen and exact 64-row windows


def unit_rows(m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    A /= np.sqrt(linalg.row_norms_sq(A))[:, None]
    return A, rng


def assert_largest_residual_exact(A, b, x):
    """`largest_residual` gives the argmax and the max of np.abs(A @ x - b),
    bit for bit, with every warning an error."""
    r = np.abs(A @ x - b)
    want = int(r.argmax())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i, level, exact = linalg.largest_residual(A, b, x, linalg.screen_copies(A, b))
    assert (i, np.float64(level).tobytes()) == (want, r[want].tobytes()), \
        "the screened greedy row must be the row and the value of the full gemv's |A x - b|"
    assert 0 < exact <= A.shape[0]
    return exact


def screened(A, b, x):
    """The float32 entries |A x - b| that `largest_residual` screens."""
    A32, b32, _ = linalg.screen_copies(A, b)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(A32 @ x.astype(np.float32) - b32)


@pytest.mark.parametrize("layout", [False, True, "aligned"])
@pytest.mark.parametrize("m, n", [(3000, 100), (4100, 70), (300, 180), (1, 1), (2, 3)])
def test_largest_residual_equals_the_full_gemv(m, n, layout):
    A, x, b = stacked_operands(m, n, layout, seed=m + n, rows=1)
    A[:] = A / np.sqrt(linalg.row_norms_sq(A))[:, None]
    for scale in (1e-3, 1.0, 1e3):
        assert_largest_residual_exact(A, b, scale * x[0])


@pytest.mark.parametrize("copies", [[5, 2900], [2900, 2950], [64, 127, 128, 2999]])
def test_largest_residual_breaks_ties_of_duplicated_rows_to_the_smallest_index(copies):
    # the row of the largest entry copied, with its b_i, into rows of the same
    # 64-row window and of others: every copy ties, the first one is the answer
    A, rng = unit_rows(3000, 100, seed=len(copies))
    b, x = rng.normal(size=3000), rng.normal(size=100)
    top = int(np.abs(A @ x - b).argmax())
    A[copies], b[copies] = A[top], b[top]
    r = np.abs(A @ x - b)
    assert (r == r.max()).sum() >= 2
    assert_largest_residual_exact(A, b, x)


@pytest.mark.parametrize("q, p", [(70, 200), (10, 20)], ids=["two-windows", "one-window"])
def test_largest_residual_confirms_a_float32_tie_in_float64(q, p):
    # rows q < p are both e_1, so their entries are x_1 - b_i exactly: 4 at p
    # and one ulp below at q; in float32 both are 4.0 and q comes first, so a
    # kernel that took the float32 argmax would return q
    A, rng = unit_rows(300, 100, seed=q)
    x = 0.1 * rng.normal(size=100)
    b = 0.01 * rng.normal(size=300)
    A[[q, p]] = np.eye(100)[0]
    x[0] = 0.5
    b[p], b[q] = -3.5, np.nextafter(-3.5, 0.0)
    r = A @ x - b
    assert (r[p], r[q]) == (4.0, np.nextafter(4.0, 0.0))
    v = screened(A, b, x)
    assert v[q] == v[p] == v.max() and int(v.argmax()) == q
    assert_largest_residual_exact(A, b, x)
    assert linalg.largest_residual(A, b, x, linalg.screen_copies(A, b))[0] == p


def test_largest_residual_takes_only_the_windows_of_its_candidates():
    # entries 10 at rows 70, 130, 500 and 999, every other one below 0.1:
    # windows 1 and 2 (rows 64-191, one span), 7 (448-511) and the last,
    # 960-999, hold the only candidates, 232 rows
    A, rng = unit_rows(1000, 40, seed=11)
    x = rng.normal(size=40)
    target = 0.01 * rng.normal(size=1000)
    target[[70, 130, 500, 999]] = 10.0
    b = A @ x - target
    assert assert_largest_residual_exact(A, b, x) == 128 + 64 + 40


@pytest.mark.parametrize("m", [65, 129, 4097])
def test_largest_residual_in_a_last_window_of_one_row(m):
    # m = 64 k + 1: the last row joins the window before it, as in `residuals`;
    # it holds the largest entry, a.x with b_i = 0, whose bits numpy's dot
    # kernel, which takes a matrix of one row, often gives otherwise
    A, rng = unit_rows(m, 30, seed=m)
    for _ in range(10):
        x = rng.normal(size=30)
        b = A @ x + 0.01 * rng.normal(size=m)
        b[-1] = 0.0
        assert int(np.abs(A @ x - b).argmax()) == m - 1
        assert_largest_residual_exact(A, b, x)


@pytest.mark.parametrize("x_scale, spread", [(1e3, 1e-4), (1e-42, 1e-3)], ids=["large-x", "subnormal-products"])
def test_largest_residual_keeps_every_row_within_the_band(x_scale, spread):
    # entries closer than the float32 rounding, so the float32 order is not
    # the float64 one: near a solution of norm 1e4, and from x_j whose
    # float32 products a_ij x_j underflow to a few subnormal steps. A band
    # much narrower than the bound, or one without its underflow term, misses
    # the largest entry in some of these
    flipped = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=100) + spread * rng.normal(size=(3000, 100))
        A /= np.sqrt(linalg.row_norms_sq(A))[:, None]
        x = x_scale * rng.normal(size=100)
        b = A @ x + 1e-4 * rng.normal(size=3000) if x_scale > 1 else np.zeros(3000)
        flipped += int(screened(A, b, x).argmax()) != int(np.abs(A @ x - b).argmax())
        assert_largest_residual_exact(A, b, x)
    assert flipped >= 3


@pytest.mark.parametrize("scale", [1e-39, 1e-41, 1e-44, 1e-46])
def test_largest_residual_with_x_below_float32s_smallest_normal(scale):
    # float32 holds these x_j as subnormals, or as zeros: the band's underflow
    # term keeps the rows whose entries it cannot tell apart
    A, rng = unit_rows(3000, 100, seed=7)
    x, b = scale * rng.normal(size=100), scale * rng.normal(size=3000)
    assert np.abs(x).max() < np.finfo(np.float32).tiny
    assert_largest_residual_exact(A, b, x)
    assert_largest_residual_exact(A, np.zeros(3000), x)


@pytest.mark.parametrize("x_0, b_0", [(1e39, 0.0), (-1e300, 0.0), (math.nan, 0.0), (1.0, 1e39)],
                         ids=["x-past-float32", "x-near-float64-max", "nan-x", "b-past-float32"])
def test_largest_residual_takes_the_full_gemv_past_float32s_range(x_0, b_0):
    A, rng = unit_rows(3000, 100, seed=3)
    x, b = rng.normal(size=100), rng.normal(size=3000)
    x[0], b[1000] = x_0, b[1000] + b_0
    assert not np.isfinite(screened(A, b, x).max())
    assert assert_largest_residual_exact(A, b, x) == 3000


@settings(max_examples=80)
@given(m=st.integers(1, 400), n=st.integers(1, 12), exponent=st.sampled_from([-44, -40, -20, 0, 20, 36]),
       duplicates=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_largest_residual_equals_the_full_gemv_small(m, n, exponent, duplicates, seed):
    A, rng = unit_rows(m, n, seed)
    x, b = 10.0 ** exponent * rng.normal(size=n), 10.0 ** exponent * rng.normal(size=m)
    if duplicates:  # copies of a few rows, each with its b_i, anywhere in A
        rows = rng.integers(m, size=(2, min(m, 4)))
        A[rows[0]], b[rows[0]] = A[rows[1]], b[rows[1]]
    assert_largest_residual_exact(A, b, x)


def test_in_halves_runs_the_later_half_on_the_helper_in_the_callers_context():
    seen = []

    def run(lo, hi):
        seen.append((lo, hi, threading.current_thread() is threading.main_thread(), np.geterr()["over"]))

    with futures.ThreadPoolExecutor(1) as helper, np.errstate(over="raise"):
        linalg.in_halves(helper, [0, 64, 128, 200], run)
        linalg.in_halves(helper, [0, 200], run)  # one run: this thread
        linalg.in_halves(None, [0, 64, 128], run)
    assert sorted(seen) == [(0, 64, True, "raise"), (0, 64, True, "raise"), (0, 200, True, "raise"),
                            (64, 128, True, "raise"), (64, 128, True, "raise"), (128, 200, False, "raise")]


def test_in_halves_raises_the_callers_error_once_the_helper_is_done():
    done = []

    def run(lo, hi):
        if lo == 0:
            raise ArithmeticError("the caller's half")
        time.sleep(0.05)  # the helper's half is still writing when the caller's raises
        done.append(lo)

    with futures.ThreadPoolExecutor(1) as helper:
        with pytest.raises(ArithmeticError, match="the caller's half"):
            linalg.in_halves(helper, [0, 64, 128], run)
        assert done == [64]
