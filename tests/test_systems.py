import io
import re

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowaction import linalg, systems


def test_make_rng_accepts_exactly_the_uint64_seeds():
    for seed in (0, 2**64 - 1):
        systems.make_rng(seed)
    for seed in (-1, 2**64, -2**70):
        with pytest.raises(ValueError, match=re.escape(f"seed {seed} is outside [0, 2**64)")):
            systems.make_rng(seed)


def test_normalize_rows_hand_case():
    A, b = systems.normalize_rows([[3, 4]], [10])
    assert np.allclose(A, [[0.6, 0.8]], atol=1e-15)
    assert np.allclose(b, [2.0], atol=1e-15)


def test_normalize_rows_idempotent():
    A0 = np.array([[0.6, 0.8], [1.0, 0.0]])
    b0 = np.array([1.0, 2.0])
    A, b = systems.normalize_rows(A0, b0)
    assert np.abs(A - A0).max() <= 1e-12
    assert np.abs(b - b0).max() <= 1e-12


def test_normalize_rows_zero_row_error():
    with pytest.raises(systems.DegenerateRowError) as err:
        systems.normalize_rows([[0, 0], [1, 0]], [1, 1])
    assert err.value.row_index == 0


def test_normalize_rows_preserves_sign_pattern():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(8, 3))
    b = rng.normal(size=8)
    An, bn = systems.normalize_rows(A, b)
    for _ in range(20):
        x = rng.normal(size=3)
        before = A @ x - b
        after = An @ x - bn
        assert np.array_equal(np.sign(before), np.sign(after))


def test_generate_zero_noise_is_consistent():
    spec = systems.GeneratorSpec("gaussian-noise", m=100, n=10, noise_std=0.0, seed=7)
    sys_ = systems.generate(spec)
    assert sys_.error_inf() <= 1e-8
    # the all-ones vector solves the pre-normalization system
    assert np.abs(sys_.reference - 1.0).max() <= 1e-8


def test_generate_spiky_raw_residual():
    spec = systems.GeneratorSpec("spiky-noise", m=100, n=10, noise_std=0.0,
                                 spike_count=5, spike_magnitude=15.0, seed=7)
    A, b = systems.build_unnormalized(spec)
    r = b - A @ np.ones(10)
    nonzero = np.nonzero(r)[0]
    assert nonzero.size == 5
    assert np.allclose(r[nonzero], 15.0, atol=1e-12)


def test_generate_deterministic():
    spec = systems.GeneratorSpec("gaussian-noise", m=50, n=5, noise_std=0.3, seed=99)
    s1 = systems.generate(spec)
    s2 = systems.generate(spec)
    assert np.array_equal(s1.a, s2.a)
    assert np.array_equal(s1.b, s2.b)
    assert np.array_equal(s1.reference, s2.reference)


def test_generate_pure_noise_rhs_is_noise_only():
    spec = systems.GeneratorSpec("pure-noise", m=60, n=6, noise_std=1.0, seed=1)
    A, b = systems.build_unnormalized(spec)
    # b never touches A: regenerating the matrix draws first reproduces them
    rng = systems.make_rng(1)
    systems.normal_draws(rng, 60 * 6)
    assert np.array_equal(b, systems.normal_draws(rng, 60))


def test_generate_correlated_entry_distribution():
    spec = systems.GeneratorSpec("correlated", m=200, n=20, noise_std=1.0, seed=3)
    A, _ = systems.build_unnormalized(spec)
    assert abs(A.mean() - 1.0) < 0.05
    assert abs(A.std() - 0.5) < 0.05


def test_generated_invariants():
    for kind in systems.GENERATOR_KINDS:
        spec = systems.GeneratorSpec(kind, m=80, n=8, noise_std=0.2,
                                     spike_count=4, spike_magnitude=15.0, seed=11)
        sys_ = systems.generate(spec)
        row_norms = np.sqrt((sys_.a * sys_.a).sum(axis=1))
        assert np.abs(row_norms - 1.0).max() <= 1e-12
        assert abs(linalg.frobenius_norm_sq(sys_.a) - sys_.m) <= 1e-9
        assert np.abs(sys_.residual(sys_.reference) - sys_.error_vec).max() <= 1e-10


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        systems.GeneratorSpec("nope", m=10, n=2)
    with pytest.raises(ValueError):
        systems.GeneratorSpec("gaussian-noise", m=5, n=5)
    with pytest.raises(ValueError):
        systems.GeneratorSpec("spiky-noise", m=10, n=2, spike_count=11)
    with pytest.raises(ValueError):
        systems.GeneratorSpec("gaussian-noise", m=10, n=2, noise_std=-1.0)


def test_residual_cases():
    sys_ = systems.LinearSystem(np.eye(2), np.array([1.0, 2.0]))
    assert np.array_equal(sys_.residual([0.0, 0.0]), [-1.0, -2.0])
    # first row reproduces the 0.6 + 0.8 - 2 hand case
    rows = systems.LinearSystem(np.array([[0.6, 0.8], [0.8, -0.6]]), np.array([2.0, 0.0]))
    assert rows.residual([1.0, 1.0])[0] == pytest.approx(-0.6, abs=1e-15)
    with pytest.raises(ValueError):
        sys_.residual([1.0, 2.0, 3.0])


def test_linear_system_validation():
    with pytest.raises(ValueError):
        systems.LinearSystem(np.array([[2.0, 0.0]]), np.array([1.0]))  # non-unit row
    with pytest.raises(ValueError):
        systems.LinearSystem(np.eye(3)[:2], np.array([1.0, 2.0, 3.0]))  # rhs length
    with pytest.raises(ValueError):
        systems.LinearSystem(np.eye(2)[:, :1].T, np.array([1.0]))  # m < n
    with pytest.raises(ValueError):
        systems.LinearSystem(np.eye(2), np.zeros(2), reference=np.zeros(3))  # reference length


def test_system_arrays_are_read_only():
    sys_ = systems.LinearSystem(np.eye(2), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        sys_.a[0, 0] = 5.0


def test_system_stores_read_only_float_arrays_of_any_input():
    sys_ = systems.LinearSystem([[1, 0], [0, 1]], [1, 2], reference=[1, 2], singular_values=[1, 1])
    for name in ("a", "b", "reference", "error_vec", "singular_values"):
        arr = getattr(sys_, name)
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64, name
        assert not arr.flags.writeable, name
    # a caller's float64 arrays are stored without a copy and stay writeable
    inputs = (np.eye(2), np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.ones(2))
    sys_ = systems.LinearSystem(*inputs)
    for arr, stored in zip(inputs, (sys_.a, sys_.b, sys_.reference, sys_.singular_values)):
        assert arr.flags.writeable and not stored.flags.writeable
        assert np.shares_memory(arr, stored)


def test_save_load_round_trip(tmp_path):
    spec = systems.GeneratorSpec("gaussian-noise", m=30, n=4, noise_std=0.5, seed=2)
    sys_ = systems.generate(spec)
    path = tmp_path / "sys.sys"
    systems.save_system(path, sys_)
    loaded = systems.load_system(path)
    assert np.array_equal(loaded.a, sys_.a)
    assert np.array_equal(loaded.b, sys_.b)
    assert np.array_equal(loaded.reference, sys_.reference)
    # serialization is deterministic byte for byte
    path2 = tmp_path / "sys2.sys"
    systems.save_system(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_save_rejects_system_without_reference_or_singular_values(tmp_path):
    full = systems.generate(systems.GeneratorSpec("gaussian-noise", m=30, n=4, seed=2))
    path = tmp_path / "plain.sys"
    for sys_ in (systems.LinearSystem(full.a, full.b),
                 systems.LinearSystem(full.a, full.b, full.reference)):
        with pytest.raises(ValueError, match="needs a system with a reference and singular values"):
            systems.save_system(path, sys_)
        assert not path.exists()


def kahan_type_pair(n=90, theta=1.2):
    """n rows of the Kahan matrix plus a repeat of its first row, with b = 1.
    Row normalization leaves I - cos(theta) U (U strictly upper ones), whose
    QR diagonal stays near 1 while sigma_min / sigma_max is about 2.6e-13."""
    K = np.diag(np.sin(theta) ** np.arange(n)) @ (np.eye(n) - np.cos(theta) * np.triu(np.ones((n, n)), 1))
    return np.vstack([K, K[:1]]), np.ones(n + 1)


def test_kahan_type_system_raises_rank_error():
    with pytest.raises(linalg.RankError, match=r"^column \d+ depends on the columns before it"):
        systems.from_unnormalized(*kahan_type_pair())


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


# finite doubles including -0.0 and subnormals, small enough that A @ x stays finite
_entries = st.floats(-1e6, 1e6, allow_subnormal=True)


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 12))
    raw = draw(hnp.arrays(np.float64, (m, n), elements=_entries))
    raw[:, 0] = draw(hnp.arrays(np.float64, m, elements=st.floats(0.5, 2.0)))  # no zero rows
    a, _ = systems.normalize_rows(raw, np.zeros(m))
    b = draw(hnp.arrays(np.float64, m, elements=_entries))
    ref = draw(hnp.arrays(np.float64, n, elements=_entries))
    singular_values = draw(hnp.arrays(np.float64, n, elements=st.floats(0, 1e6, allow_subnormal=True)))
    return systems.LinearSystem(a, b, ref, singular_values)


@settings(max_examples=60, deadline=None)
@given(sys_=_systems())
def test_save_load_is_bitwise_exact(tmp_path_factory, sys_):
    path = tmp_path_factory.mktemp("prop") / "s.sys"
    systems.save_system(path, sys_)
    loaded = systems.load_system(path)
    assert _bits(loaded.a) == _bits(sys_.a)
    assert _bits(loaded.b) == _bits(sys_.b)
    assert _bits(loaded.reference) == _bits(sys_.reference)
    assert _bits(loaded.error_vec) == _bits(loaded.a @ loaded.reference - loaded.b)
    assert _bits(loaded.singular_values) == _bits(sys_.singular_values)
    again = path.with_name("again.sys")
    systems.save_system(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def _npy(*arrays) -> bytes:
    buf = io.BytesIO()
    for arr in arrays:
        np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


_BODY = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.6, 0.8, 1.0]])  # unit rows, b = 1
_SV = np.ones(2)
_VALID = _npy(_BODY, np.zeros(2), _SV)


def test_load_accepts_valid_file(tmp_path):
    path = tmp_path / "ok.sys"
    path.write_bytes(_VALID)
    assert np.array_equal(systems.load_system(path).singular_values, _SV)


def test_load_rejects_truncated(tmp_path):
    path = tmp_path / "bad.sys"
    path.write_bytes(_VALID[:-5])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        systems.load_system(path)


@pytest.mark.parametrize("content", [
    pytest.param(b"", id="empty"),
    pytest.param(_VALID[:100], id="truncated-header"),
    pytest.param(_VALID[:140], id="truncated-body"),
    pytest.param(_VALID + b"\0", id="trailing-bytes"),
    pytest.param(_npy(_BODY, np.zeros(2)), id="two-records"),
    pytest.param(_VALID + _npy(np.zeros(2)), id="fourth-record"),
    pytest.param(_npy(_BODY.astype(np.int64), np.zeros(2), _SV), id="int64-body"),
    pytest.param(_npy(_BODY, np.zeros(2, dtype=np.float32), _SV), id="float32-reference"),
    pytest.param(_npy(_BODY, np.zeros(2), _SV.astype(np.float32)), id="float32-singular-values"),
    pytest.param(_npy(_BODY.ravel(), np.zeros(2), _SV), id="1-d-body"),
    pytest.param(_npy(np.ones((3, 1)), np.zeros(0), np.zeros(0)), id="one-column-body"),
    pytest.param(_npy(_BODY, np.zeros((2, 1)), _SV), id="2-d-reference"),
    pytest.param(_npy(_BODY, np.zeros(3), _SV), id="reference-length"),
    pytest.param(_npy(_BODY, np.zeros(2), np.ones(3)), id="singular-values-length"),
])
def test_load_rejects_malformed_file(tmp_path, content):
    path = tmp_path / "bad.sys"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        systems.load_system(path)


def test_load_rejects_legacy_text_file(tmp_path):
    path = tmp_path / "old.txt"
    path.write_text("3 2 0\n1 0 1\n0 1 1\n0 0 1\n")
    with pytest.raises(ValueError) as err:
        systems.load_system(path)
    assert str(path) in str(err.value)
    assert "regenerate it with `rowaction generate` or `rowaction netlib-prep`" in str(err.value)


def test_sample_distinct_properties():
    rng = systems.make_rng(5)
    idx = systems.sample_distinct(rng, 20, 7)
    assert len(set(idx.tolist())) == 7
    assert all(0 <= i < 20 for i in idx)
    with pytest.raises(ValueError):
        systems.sample_distinct(rng, 3, 4)


def test_normal_draws_moments():
    rng = systems.make_rng(8)
    z = systems.normal_draws(rng, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs((z < 0).mean() - 0.5) < 0.005
