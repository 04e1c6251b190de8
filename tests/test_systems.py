import io
import math
import re
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowaction import linalg, mps, systems

from oracles import frobenius_norm_sq


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


def test_normalize_rows_scales_rows_whose_squared_norm_overflows():
    # (1e200)^2 passes the float range: such a row is divided by its largest
    # entry first, with no overflow warning, and every other row keeps its bits
    A, b = systems.normalize_rows([[1e200, 1e200], [3, 4], [0, 1], [1.7e308, -1.7e308]],
                                  [1e200, 10, 1, 1e308])
    plain_A, plain_b = systems.normalize_rows([[3, 4], [0, 1]], [10, 1])
    assert np.allclose(A[0], [math.sqrt(0.5)] * 2, atol=1e-15) and abs(b[0] - math.sqrt(0.5)) <= 1e-15
    assert A[1:3].tobytes() == plain_A.tobytes() and b[1:3].tobytes() == plain_b.tobytes()
    assert np.allclose(A[3], [math.sqrt(0.5), -math.sqrt(0.5)], atol=1e-15)
    assert abs(b[3] - 1e308 / 1.7e308 * math.sqrt(0.5)) <= 1e-15
    assert np.abs(np.sqrt(linalg.row_norms_sq(A)) - 1.0).max() <= systems.ROW_NORM_TOL


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
        assert abs(frobenius_norm_sq(sys_.a) - sys_.m) <= 1e-9
        assert np.abs(sys_.residual(sys_.reference) - sys_.error_vec).max() <= 1e-10


def test_frobenius_sq_is_frobenius_norm_sq_bit_for_bit(tmp_path):
    """The squared Frobenius norm a system keeps from its unit-row check is
    the oracle frobenius_norm_sq of its matrix, to the bit, however it was made."""
    made = [systems.generate(systems.GeneratorSpec(kind, m=90, n=7, noise_std=0.3, spike_count=3,
                                                   spike_magnitude=9.0, seed=5))
            for kind in systems.GENERATOR_KINDS]
    systems.save_system(tmp_path / "s.sys", made[0])
    made.append(systems.load_system(tmp_path / "s.sys"))
    rng = np.random.default_rng(8)
    made.append(mps.overdetermine(rng.standard_normal((6, 11)), rng.standard_normal(6)))
    for sys_ in made:
        assert sys_.frobenius_sq.hex() == frobenius_norm_sq(sys_.a).hex()


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
        systems.LinearSystem(np.eye(2), np.zeros(2), np.zeros(3), np.ones(2))  # reference length
    for sv in ([1.0, 2.0], [1.0, 0.0], [1.0, -1.0], [np.inf, 1.0]):  # positive, non-increasing
        with pytest.raises(ValueError):
            systems.LinearSystem(np.eye(2), np.ones(2), np.ones(2), sv)
    systems.LinearSystem(np.eye(2), np.ones(2), np.ones(2), [1.0, 1.0])  # ties are non-increasing


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


def test_load_gives_a_contiguous_read_only_rhs_with_the_saved_bits(tmp_path):
    # the file holds [A | b]; b is copied out of it, so that a solve subtracts
    # it at unit stride, and A into rows that start on 32-byte boundaries
    sys_ = systems.generate(systems.GeneratorSpec("gaussian-noise", m=300, n=7, noise_std=0.5, seed=4))
    path = tmp_path / "sys.sys"
    systems.save_system(path, sys_)
    loaded = systems.load_system(path)
    assert loaded.b.flags.c_contiguous and not loaded.b.flags.writeable
    assert loaded.b.tobytes() == sys_.b.tobytes()
    assert loaded.a.strides == (8 * 8, 8) and loaded.a.ctypes.data % 32 == 0


@pytest.mark.parametrize("m, n", [(40, 5), (37, 8), (2000, 50)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_load_copies_the_body_chunk_by_chunk_into_aligned_rows(tmp_path, monkeypatch, m, n, order):
    # 3 rows a chunk, the last chunk partial or of one row; an A in Fortran
    # order in memory is saved in C order too
    monkeypatch.setattr(systems, "LOAD_CHUNK_BYTES", 3 * 8 * (n + 1) + 7)
    sys_ = systems.generate(systems.GeneratorSpec("gaussian-noise", m=m, n=n, noise_std=0.5, seed=m))
    path = tmp_path / "sys.sys"
    systems.save_system(path, systems.LinearSystem(np.asarray(sys_.a, order=order), sys_.b,
                                                   sys_.reference, sys_.singular_values))
    assert np.load(path, mmap_mode="r").flags.c_contiguous
    loaded = systems.load_system(path)
    assert loaded.a.strides == (-(-n // 4) * 32, 8) and loaded.a.ctypes.data % 32 == 0
    for name in ("a", "b", "reference", "singular_values", "error_vec"):
        assert _bits(getattr(loaded, name)) == _bits(getattr(sys_, name)), name


@pytest.mark.parametrize("shrinks_while_read", [False, True])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("cut", ["mid-row", "at-a-chunk-edge", "mid-chunk"])
def test_load_rejects_a_body_cut_short(tmp_path, monkeypatch, cut, order, shrinks_while_read):
    # the file of an A in either order in memory holds [A | b] in C order
    line = 6 * 8  # the bytes of one row of [A | b]
    monkeypatch.setattr(systems, "LOAD_CHUNK_BYTES", 3 * line)
    sys_ = systems.generate(systems.GeneratorSpec("gaussian-noise", m=40, n=5, noise_std=0.5, seed=3))
    whole, path = tmp_path / "whole.sys", tmp_path / "cut.sys"
    systems.save_system(whole, systems.LinearSystem(np.asarray(sys_.a, order=order), sys_.b,
                                                    sys_.reference, sys_.singular_values))
    header = len(_npy(np.zeros((40, 6)))) - 40 * line
    path.write_bytes(whole.read_bytes()[:header + {"mid-row": 4 * line + 20, "at-a-chunk-edge": 3 * line,
                                                   "mid-chunk": 4 * line}[cut]])
    if shrinks_while_read:  # its size was read before it was cut
        monkeypatch.setattr(systems.os, "fstat", lambda fd: whole.stat())
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a system file \(.+\); regenerate it") as err:
        systems.load_system(path)
    assert ("ended while it was read" if shrinks_while_read else "ends after") in str(err.value)


def test_save_system_bytes_do_not_depend_on_the_layout_of_a(tmp_path):
    sys_ = systems.generate(systems.GeneratorSpec("gaussian-noise", m=40, n=5, noise_std=0.5, seed=3))
    systems.save_system(tmp_path / "c.sys", sys_)
    loaded = systems.load_system(tmp_path / "c.sys")
    assert loaded.a.strides == (8 * 8, 8)  # rows padded to 8 doubles
    fortran = systems.LinearSystem(np.asfortranarray(sys_.a), sys_.b, sys_.reference, sys_.singular_values)
    assert fortran.a.flags.f_contiguous and not fortran.a.flags.c_contiguous
    for name, layout in (("f.sys", fortran), ("padded.sys", loaded)):
        systems.save_system(tmp_path / name, layout)
        assert (tmp_path / name).read_bytes() == (tmp_path / "c.sys").read_bytes(), name


def test_load_system_holds_a_b_and_one_chunk_at_most(tmp_path):
    # no copy of the whole [A | b] record: A and b are filled chunk by chunk
    m, n = 10000, 100
    path = tmp_path / "large.sys"
    systems.save_system(path, systems.generate(systems.GeneratorSpec(
        "gaussian-noise", m=m, n=n, noise_std=0.01, seed=1)))
    tracemalloc.start()
    try:
        loaded = systems.load_system(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.a.strides == (n * 8, 8)
    assert peak <= 8 * m * n + 8 * m + systems.LOAD_CHUNK_BYTES + 2**20, f"peak {peak / 2**20:.2f} MB"


def test_system_takes_its_reference_and_singular_values_both_or_neither():
    full = systems.generate(systems.GeneratorSpec("gaussian-noise", m=30, n=4, seed=2))
    for given in ({"reference": full.reference}, {"singular_values": full.singular_values}):
        with pytest.raises(ValueError, match="both its reference and its singular values, or neither"):
            systems.LinearSystem(full.a, full.b, **given)


@pytest.mark.parametrize("kind", systems.GENERATOR_KINDS)
def test_system_of_a_and_b_alone_has_the_bytes_of_generate_and_from_unnormalized(kind):
    spec = systems.GeneratorSpec(kind, m=60, n=5, noise_std=0.1, spike_count=3, spike_magnitude=2.0, seed=9)
    generated = systems.generate(spec)
    built = systems.LinearSystem(*systems.normalize_rows(*systems.build_unnormalized(spec)))
    own = systems.LinearSystem(generated.a, generated.b)
    for name in ("a", "b", "reference", "singular_values", "error_vec"):
        assert getattr(own, name).tobytes() == getattr(generated, name).tobytes(), name
        assert getattr(own, name).tobytes() == getattr(built, name).tobytes(), name


def test_rank_deficient_system_of_a_and_b_alone_raises_rank_error():
    with pytest.raises(linalg.RankError, match=r"^column 1 depends on the columns before it"):
        systems.LinearSystem(np.tile([1.0, 0.0], (4, 1)), np.ones(4))


def test_load_system_runs_no_gelsd(tmp_path, monkeypatch):
    sys_ = systems.generate(systems.GeneratorSpec("gaussian-noise", m=30, n=4, seed=2))
    path = tmp_path / "s.sys"
    systems.save_system(path, sys_)

    def no_gelsd(*args, **kwargs):
        raise AssertionError("gelsd ran")
    monkeypatch.setattr(linalg, "lstsq", no_gelsd)
    monkeypatch.setattr(np.linalg, "lstsq", no_gelsd)
    loaded = systems.load_system(path)
    assert loaded.reference.tobytes() == sys_.reference.tobytes()
    assert loaded.singular_values.tobytes() == sys_.singular_values.tobytes()


@pytest.mark.parametrize("case", ["nan entry", "non-unit row", "increasing singular values",
                                  "zero singular value"])
def test_load_system_names_the_file_for_content_the_system_rejects(tmp_path, case):
    sys_ = systems.generate(systems.GeneratorSpec("gaussian-noise", m=30, n=4, seed=2))
    body, sv = np.column_stack([sys_.a, sys_.b]), sys_.singular_values.copy()
    if case == "nan entry":
        body[3, 1] = np.nan
    elif case == "non-unit row":
        body[3, :-1] *= 2.0
    elif case == "increasing singular values":
        sv = sv[::-1].copy()
    else:
        sv[-1] = 0.0
    path = tmp_path / "bad.sys"
    with open(path, "wb") as fh:
        for record in (body, sys_.reference, sv):
            np.save(fh, record, allow_pickle=False)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a system file \(.+\); regenerate it"):
        systems.load_system(path)


@pytest.mark.parametrize("field, value", [
    ("noise_std", np.nan), ("noise_std", np.inf), ("row_std", np.nan), ("row_std", -0.5),
    ("row_mean", np.nan), ("row_mean", -np.inf), ("spike_magnitude", np.nan), ("spike_magnitude", np.inf),
])
def test_generator_spec_rejects_non_finite_values_naming_the_field(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        systems.GeneratorSpec("spiky-noise", m=10, n=2, **{field: value})


def kahan_type_pair(n=90, theta=1.2):
    """n rows of the Kahan matrix plus a repeat of its first row, with b = 1.
    Row normalization leaves I - cos(theta) U (U strictly upper ones), whose
    QR diagonal stays near 1 while sigma_min / sigma_max is about 2.6e-13."""
    K = np.diag(np.sin(theta) ** np.arange(n)) @ (np.eye(n) - np.cos(theta) * np.triu(np.ones((n, n)), 1))
    return np.vstack([K, K[:1]]), np.ones(n + 1)


def test_kahan_type_system_raises_rank_error():
    with pytest.raises(linalg.RankError, match=r"^column \d+ depends on the columns before it"):
        systems.LinearSystem(*systems.normalize_rows(*kahan_type_pair()))


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
    # positive and non-increasing, as a system requires
    singular_values = np.sort(draw(hnp.arrays(np.float64, n, elements=st.floats(
        0, 1e6, exclude_min=True, allow_subnormal=True))))[::-1]
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
    pytest.param(_VALID[:6] + b"\x03" + _VALID[7:], id="format-version-3"),
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


def _npy_2_0(arr) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, version=(2, 0), allow_pickle=False)
    return buf.getvalue()


@pytest.mark.parametrize("body", [
    pytest.param(_npy(np.asfortranarray(_BODY)), id="fortran-order"),
    pytest.param(_npy_2_0(_BODY), id="version-2.0"),
])
def test_load_rejects_an_a_b_record_in_another_layout(tmp_path, body):
    path = tmp_path / "other.sys"
    path.write_bytes(body + _npy(np.zeros(2), _SV))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a system file \(.+\); regenerate it"):
        systems.load_system(path)


def test_load_rejects_legacy_text_file(tmp_path):
    path = tmp_path / "old.txt"
    path.write_text("3 2 0\n1 0 1\n0 1 1\n0 0 1\n")
    with pytest.raises(ValueError) as err:
        systems.load_system(path)
    assert str(path) in str(err.value)
    assert "regenerate it with `rowaction generate` or `rowaction netlib-prep`" in str(err.value)


@pytest.mark.parametrize("content, at", [
    pytest.param(b"solver,trial\r\nmotzkin,0\r\n", 0, id="csv"),
    pytest.param(_VALID + b"\0", len(_VALID), id="trailing-byte"),
])
def test_load_names_the_byte_where_no_npy_record_starts(tmp_path, content, at):
    # numpy's own message for such bytes advises loading them with pickle
    path = tmp_path / "not.sys"
    path.write_bytes(content)
    pattern = rf"^{re.escape(str(path))}: not a system file \(.+\); regenerate it"
    with pytest.raises(ValueError, match=pattern) as err:
        systems.load_system(path)
    assert f"no .npy record starts at byte {at}" in str(err.value)
    assert "pickle" not in str(err.value)


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


# --------------------------------------------------------------------------
# in-place construction against the allocate-per-step expressions it replaced


def allocating_normal_draws(rng, size):
    """normal_draws as it was before it filled one output buffer: a new array
    at every step. Kept verbatim as the reference for its bits."""
    if size == 0:
        return np.zeros(0)
    half = (size + 1) // 2
    u1 = 1.0 - rng.random(half)  # in (0, 1], keeps the log finite
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return z[:size]


def allocating_generate(spec):
    """generate as it was before it scaled and normalized in place."""
    rng = systems.make_rng(spec.seed)
    m, n = spec.m, spec.n
    if spec.kind == "correlated":
        A = spec.row_mean + spec.row_std * allocating_normal_draws(rng, m * n).reshape(m, n)
    else:
        A = allocating_normal_draws(rng, m * n).reshape(m, n) / np.sqrt(n)
    if spec.kind == "pure-noise":
        b = spec.noise_std * allocating_normal_draws(rng, m)
    elif spec.kind == "spiky-noise":
        b = A @ np.ones(n)
        spikes = systems.sample_distinct(rng, m, spec.spike_count)
        b[spikes] += spec.spike_magnitude
    else:
        b = A @ np.ones(n) + spec.noise_std * allocating_normal_draws(rng, m)
    norms = np.sqrt((A * A).sum(axis=1))
    An, bn = A / norms[:, None], b / norms
    return systems.LinearSystem(An, bn, *linalg.lstsq(An, bn))


@pytest.mark.parametrize("size", [0, 1, 2, 3, 999, 1000, 1001, 10**6])
def test_normal_draws_equal_the_allocating_expression(size):
    got_rng, want_rng = systems.make_rng(size), systems.make_rng(size)
    got, want = systems.normal_draws(got_rng, size), allocating_normal_draws(want_rng, size)
    assert got.shape == (size,) and got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("kind", systems.GENERATOR_KINDS)
@pytest.mark.parametrize("m, n", [(2000, 50), (37, 5), (2001, 7)])
def test_generate_equals_the_allocating_construction(kind, m, n):
    spec = systems.GeneratorSpec(kind, m=m, n=n, noise_std=0.01, spike_count=3, spike_magnitude=5.0,
                                 row_mean=0.7, row_std=0.3, seed=m + n)
    got, want = systems.generate(spec), allocating_generate(spec)
    for name in ("a", "b", "reference", "singular_values", "error_vec"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_normalize_rows_and_from_unnormalized_leave_their_inputs_unchanged():
    rng = np.random.default_rng(2)
    A, b = rng.normal(size=(30, 4)), rng.normal(size=30)
    A0, b0 = A.copy(), b.copy()
    An, bn = systems.normalize_rows(A, b)
    assert A.tobytes() == A0.tobytes() and b.tobytes() == b0.tobytes()
    sys_ = systems.LinearSystem(*systems.normalize_rows(A, b))
    assert A.tobytes() == A0.tobytes() and b.tobytes() == b0.tobytes()
    assert sys_.a.tobytes() == An.tobytes() and sys_.b.tobytes() == bn.tobytes()


@pytest.mark.parametrize("kind", ["gaussian-noise", "correlated"])
def test_generate_peaks_at_about_twice_the_matrix(kind):
    # the draws fill one buffer, which is scaled and normalized in place; the
    # rest of the peak is the row-norm temporary or gelsd's copy of A
    m, n = 4000, 100
    tracemalloc.start()
    try:
        systems.generate(systems.GeneratorSpec(kind, m=m, n=n, noise_std=0.01, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * m * n * 8, f"peak {peak / (m * n * 8):.2f} x the matrix"
