import os
import warnings
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowaction import linalg, mps, systems

DATA = Path(__file__).parent / "data"


def parse(text):
    return mps.parse_mps(dedent(text))


MINIMAL = """\
    NAME TEST
    ROWS
     N  OBJ
     E  R1
    COLUMNS
        X1  R1  1.0
        X2  R1  1.0
    RHS
        RHS  R1  2.0
    ENDATA
    """


def test_parse_minimal_equality():
    problem = parse(MINIMAL)
    A, b = mps.extract_system(problem)
    assert np.array_equal(A, [[1.0, 1.0]])
    assert np.array_equal(b, [2.0])


def test_parse_tiny_golden_file():
    problem = mps.load_mps(DATA / "tiny.mps")
    assert problem.name == "TINY3"
    assert problem.row_senses == ["N", "E", "L", "G"]
    assert problem.row_lines == [4, 5, 6, 7]  # the comment line counts
    A, b = mps.extract_system(problem)
    # hand-derived from the file: rows R1, R2, R3 over columns X1, X2
    assert np.array_equal(A, [[2.0, 1.0], [-1.0, 3.0], [0.0, 4.0]])
    assert np.array_equal(b, [5.0, 6.0, 0.0])


def test_objective_only_problem_rejected_downstream():
    problem = parse("""\
    NAME ONLYOBJ
    ROWS
     N  OBJ
    COLUMNS
        X1  OBJ  1.0
    RHS
    ENDATA
    """)
    assert problem.constraint_rows() == []
    with pytest.raises(ValueError):
        mps.extract_system(problem)


def test_duplicate_coefficients_are_summed():
    problem = parse("""\
    NAME DUP
    ROWS
     N  OBJ
     E  R1
    COLUMNS
        X1  R1  1.0
        X1  R1  2.0
    RHS
        RHS  R1  1.0
    ENDATA
    """)
    A, _ = mps.extract_system(problem)
    assert A[0, 0] == 3.0


def test_l_and_g_rows_treated_as_equalities():
    problem = mps.load_mps(DATA / "tiny.mps")
    A, b = mps.extract_system(problem)
    assert A.shape[0] == 3  # E, L, G all extracted; N excluded


def test_missing_rhs_defaults_to_zero():
    problem = parse(MINIMAL.replace("        RHS  R1  2.0\n", ""))
    _, b = mps.extract_system(problem)
    assert np.array_equal(b, [0.0])


def test_rhs_line_without_set_name():
    problem = parse(MINIMAL.replace("        RHS  R1  2.0", "        R1  2.0"))
    _, b = mps.extract_system(problem)
    assert np.array_equal(b, [2.0])


def test_ranges_and_bounds_ignored_with_warning():
    text = MINIMAL.replace("    ENDATA", """\
    RANGES
        RNG  R1  1.0
    BOUNDS
     UP BND  X1  4.0
    ENDATA
    """)
    with pytest.warns(UserWarning) as caught:
        problem = parse(text)
    ignored = {str(w.message) for w in caught}
    assert any("RANGES" in msg for msg in ignored)
    assert any("BOUNDS" in msg for msg in ignored)
    A, b = mps.extract_system(problem)
    assert np.array_equal(A, [[1.0, 1.0]])
    assert np.array_equal(b, [2.0])


def test_comment_lines_skipped():
    problem = parse("* leading comment\n" + dedent(MINIMAL))
    assert problem.name == "TEST"


def test_unknown_section_is_an_error():
    with pytest.raises(mps.MpsParseError, match="line 2.*WEIRD"):
        parse("""\
    NAME X
    WEIRD
    ENDATA
    """)


def test_row_referenced_before_declaration():
    with pytest.raises(mps.MpsParseError, match="R9"):
        parse(MINIMAL.replace("X1  R1  1.0", "X1  R9  1.0"))


def test_non_numeric_coefficient():
    for token in ("abc", "nan", "inf", "-inf", "1e400"):
        with pytest.raises(mps.MpsParseError, match=f"line 6.*{token}"):
            parse(MINIMAL.replace("X1  R1  1.0", f"X1  R1  {token}"))


def test_duplicate_row_declaration():
    with pytest.raises(mps.MpsParseError, match="line 5.*R1"):
        parse(MINIMAL.replace(" E  R1\n", " E  R1\n     E  R1\n"))


def test_unknown_row_sense():
    with pytest.raises(mps.MpsParseError, match="sense"):
        parse(MINIMAL.replace(" E  R1", " Q  R1"))


def test_missing_required_section():
    with pytest.raises(mps.MpsParseError, match="COLUMNS"):
        parse("""\
    NAME X
    ROWS
     E  R1
    ENDATA
    """)


def test_content_after_endata_ignored():
    problem = parse(dedent(MINIMAL) + "garbage that would not parse\n")
    assert problem.name == "TEST"


def test_transform_spec_validation():
    with pytest.raises(ValueError):
        mps.TransformSpec(noise_std=-1e-3)


def test_overdetermine_single_row_zero_noise():
    sys_ = mps.overdetermine([[1.0, 1.0]], [2.0], mps.TransformSpec(noise_std=0.0, seed=1))
    assert sys_.m == 3 and sys_.n == 2
    assert sys_.error_inf() <= 1e-8
    assert np.allclose(sys_.reference, [1.0, 1.0], atol=1e-8)


def test_overdetermine_noise_only_touches_identity_rows():
    A = np.array([[1.0, 0.5, 0.25]])
    b = np.array([1.0])
    clean = mps.overdetermine(A, b, mps.TransformSpec(noise_std=0.0, seed=9))
    noisy = mps.overdetermine(A, b, mps.TransformSpec(noise_std=1e-6, seed=9))
    # the stacked rows of A keep identical pre-normalization content; only
    # the identity-block rhs entries move, and only by O(noise_std)
    assert np.array_equal(clean.a, noisy.a)
    assert np.array_equal(clean.b[:1], noisy.b[:1])
    diff = np.abs(clean.b[1:] - noisy.b[1:])
    assert 0 < diff.max() < 1e-4


def test_overdetermine_rejects_square_or_tall():
    with pytest.raises(ValueError):
        mps.overdetermine(np.eye(2), [1.0, 2.0])


def test_overdetermine_rank_error_propagates():
    with pytest.raises(linalg.RankError):
        mps.overdetermine([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1.0, 1.0])


def test_banded_problem_full_pipeline():
    problem = mps.load_mps(DATA / "bandm_style.mps")
    A, b = mps.extract_system(problem)
    assert A.shape == (40, 60)
    sys_ = mps.overdetermine(A, b, mps.TransformSpec(noise_std=1e-6, seed=5))
    assert (sys_.m, sys_.n) == (100, 60)
    row_norms = np.sqrt((sys_.a * sys_.a).sum(axis=1))
    assert np.abs(row_norms - 1.0).max() <= 1e-12
    assert np.abs(sys_.residual(sys_.reference) - sys_.error_vec).max() <= 1e-10
    # identity block keeps the stacked matrix full column rank
    assert linalg.min_singular_value(sys_.a) > 0.01


def test_overdetermine_zero_noise_consistent_on_banded_problem():
    problem = mps.load_mps(DATA / "bandm_style.mps")
    A, b = mps.extract_system(problem)
    sys_ = mps.overdetermine(A, b, mps.TransformSpec(noise_std=0.0, seed=5))
    assert sys_.error_inf() <= 1e-8


def test_prepared_system_serializes(tmp_path):
    problem = mps.load_mps(DATA / "tiny.mps")
    A, b = mps.extract_system(problem)
    # tiny problem is 3x2 (overdetermined); stack a wide slice instead
    sys_ = mps.overdetermine(A[:1], b[:1], mps.TransformSpec(noise_std=0.0, seed=2))
    path = tmp_path / "prepared.txt"
    systems.save_system(path, sys_)
    loaded = systems.load_system(path)
    assert np.array_equal(loaded.a, sys_.a)


NETLIB_DIR = os.environ.get("NETLIB_MPS_DIR", str(DATA / "netlib"))


def test_real_agg_dimensions_when_available():
    path = Path(NETLIB_DIR) / "agg.mps"
    if not path.exists():
        pytest.skip("real Netlib agg not available (put an uncompressed copy at "
                    f"{path} or set NETLIB_MPS_DIR)")
    problem = mps.load_mps(path)
    A, b = mps.extract_system(problem)
    assert A.shape == (488, 615)
    sys_ = mps.overdetermine(A, b, mps.TransformSpec(noise_std=1e-6, seed=1))
    assert (sys_.m, sys_.n) == (1103, 615)


BANDM_LINES = (DATA / "bandm_style.mps").read_text().splitlines()
FUZZ_TOKENS = ["", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA", "NAME", "E", "N",
               "R1", "R999", "X1", "COST", "'MARKER'", "'INTORG'", "nan", "-inf", "1e400",
               "0x1p3", "1_0", "--1", "2.5", "*"]


@settings(max_examples=300)
@given(data=st.data())
def test_parse_mps_mutations_raise_only_mps_parse_error(data):
    lines = list(BANDM_LINES)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(lines) - 1))
        how = data.draw(st.sampled_from(["delete", "duplicate", "swap", "token", "text", "cut"]))
        if how == "delete":
            del lines[at]
        elif how == "duplicate":
            lines.insert(at, lines[at])
        elif how == "swap":
            other = data.draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif how == "token":
            tokens = lines[at].split(" ")
            where = data.draw(st.integers(0, len(tokens) - 1))
            tokens[where] = data.draw(st.sampled_from(FUZZ_TOKENS) | st.text(max_size=6))
            lines[at] = " ".join(tokens)
        elif how == "text":
            lines[at] = data.draw(st.text(max_size=30))
        else:
            lines[at] = lines[at][:data.draw(st.integers(0, len(lines[at])))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # RANGES and BOUNDS sections warn
        try:
            mps.parse_mps("\n".join(lines))
        except mps.MpsParseError:
            pass
