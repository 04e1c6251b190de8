import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowaction import linalg, systems

from oracles import least_squares_oracle, min_singular_value_oracle


def test_matvec_identity():
    out = linalg.matvec([[1, 0], [0, 1]], [3, -2])
    assert np.array_equal(out, [3, -2])


def test_matvec_ones():
    assert np.array_equal(linalg.matvec([[1, 1]], [1, 1]), [2])


def test_matvec_hand_case():
    out = linalg.matvec([[2, 1], [0, 3], [1, 1]], [1, 2])
    assert np.array_equal(out, [4, 6, 3])


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.matvec([[1, 2], [3, 4]], [1, 2, 3])


def test_matvec_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.matvec([[1, np.nan]], [1, 1])


def test_norm_inf_sign_invariance():
    assert linalg.norm_inf([3, -4]) == 4.0


def test_norms_reject_nonfinite_entries():
    with pytest.raises(ValueError):
        linalg.norm_inf([1.0, np.inf])
    with pytest.raises(ValueError):
        linalg.norm_inf([np.nan])


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
    assert linalg.frobenius_norm_sq(np.eye(2)) == 2.0


def test_frobenius_single_row():
    assert linalg.frobenius_norm_sq([[3, 4]]) == 25.0


def test_frobenius_equals_row_norm_sum_exactly():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(37, 5))
    total = math.fsum(float(np.dot(row, row)) for row in A)
    assert linalg.frobenius_norm_sq(A) == total


STACKED_CONTRACT = ("the stacked products must equal their one-row forms bit for bit: "
                    "randomized-Kaczmarz telemetry takes a block's residuals with "
                    "linalg.matvecs and its squared norms with linalg.row_norms_sq, and "
                    "every telemetry CSV byte rests on them equalling `A @ x` and np.dot")


def stacked_operands(m, n, strided, seed, rows=5):
    """A and a stack X of iterates; the strided A is the `body[:, :-1]` view
    that load_system returns (leading dimension n + 1)."""
    rng = np.random.default_rng(seed)
    body = rng.normal(size=(m, n + 1))
    A = body[:, :-1] if strided else np.ascontiguousarray(body[:, :-1])
    return A, rng.normal(size=(rows, n)), rng.normal(size=m)


def assert_stacked_products_exact(A, X, b):
    residuals = np.empty((X.shape[0], A.shape[0]))
    linalg.matvecs(A, X, out=residuals)
    assert np.array_equal(residuals, linalg.matvecs(A, X)), STACKED_CONTRACT
    residuals -= b
    for x, r in zip(X, residuals):
        assert r.tobytes() == (A @ x - b).tobytes(), STACKED_CONTRACT
    for M in (residuals, X):
        assert linalg.row_norms_sq(M).tolist() == [float(np.dot(v, v)) for v in M], STACKED_CONTRACT


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("m, n", [(1, 1), (2000, 50), (300, 180), (10000, 100)])
def test_stacked_products_equal_gemv_and_dot(m, n, strided):
    A, X, b = stacked_operands(m, n, strided, seed=m + n)
    if strided:
        assert A.strides == ((n + 1) * 8, 8)
    assert_stacked_products_exact(A, X, b)


@settings(max_examples=60)
@given(m=st.integers(1, 24), n=st.integers(1, 6), rows=st.integers(1, 4),
       strided=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_products_equal_gemv_and_dot_small(m, n, rows, strided, seed):
    assert_stacked_products_exact(*stacked_operands(m, n, strided, seed, rows))


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("m, n", [(1, 1), (2000, 50), (300, 180), (10000, 100)])
def test_frobenius_equals_fsum_of_row_dots_bit_for_bit(m, n, strided):
    A, _, _ = stacked_operands(m, n, strided, seed=7)
    assert linalg.frobenius_norm_sq(A) == math.fsum(float(np.dot(row, row)) for row in A)
