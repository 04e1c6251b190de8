"""MPS ingestion and the underdetermined-to-overdetermined transform.

Linear-programming benchmark files (NAME / ROWS / COLUMNS / RHS / RANGES /
BOUNDS / ENDATA sections) are parsed in one pass, in whitespace-delimited
free format, which also accepts the classic fixed-column layout. Only the
constraint matrix and right-hand side are taken: every non-objective row is
an equality, and RANGES / BOUNDS sections are read and ignored with a
warning. A (row, column) given twice holds the sum of its values, and each
is stored as 0.0 + its sum, so a -0 is +0.0 in the problem and in A. The
constraint systems are naturally underdetermined (fewer rows than columns);
`overdetermine` stacks an identity block under the matrix with right-hand
side set to the least-norm solution plus small Gaussian noise, producing an
overdetermined, slightly inconsistent system whose least-squares solution
stays near the original one.
"""

import warnings
from dataclasses import dataclass
from itertools import chain
from math import isfinite, nan

import numpy as np

from . import linalg
from .systems import LinearSystem, _normalize_in_place, check_finite, make_rng, normal_draws

ROW_SENSES = ("N", "E", "L", "G")
SECTIONS = ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")


class MpsParseError(ValueError):
    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


@dataclass
class MpsProblem:
    """A parsed MPS file: named rows with senses and the file lines that
    declare them, named columns, coefficient map (duplicates summed on
    insert), and the RHS map (default 0)."""

    name: str
    row_names: list[str]
    row_senses: list[str]
    row_lines: list[int]
    col_names: list[str]
    coefficients: dict[tuple[int, int], float]
    rhs: dict[int, float]

    def constraint_rows(self) -> list[int]:
        """Indices of non-objective rows, in declaration order."""
        return [i for i, s in enumerate(self.row_senses) if s != "N"]


@dataclass(frozen=True)
class TransformSpec:
    """Noise level and seed for the identity-stacking transform."""

    noise_std: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_finite("noise_std", self.noise_std, nonnegative=True)


def parse_mps(text: str) -> MpsProblem:
    """Parse one problem from MPS text.

    Section keywords must start in the first column; data lines are
    whitespace-indented. Lines starting with '*' are comments. Raises
    MpsParseError (with the line number) on unknown sections, rows
    referenced before declaration, rows declared twice, and non-numeric or
    non-finite coefficients.
    """
    name = ""
    rows: dict[str, int] = {}  # name -> index, in declaration order
    row_senses: list[str] = []
    row_lines: list[int] = []
    cols: dict[str, int] = {}
    coefficients: dict[tuple[int, int], float] = {}
    rhs: dict[int, float] = {}
    section = None
    seen: set[str] = set()

    def number(token: str, lineno: int) -> float:
        try:
            value = float(token)
        except ValueError:
            raise MpsParseError(lineno, f"non-numeric coefficient {token!r}") from None
        if not isfinite(value):
            raise MpsParseError(lineno, f"non-finite coefficient {token!r}")
        return value

    def row_of(token: str, lineno: int) -> int:
        if token not in rows:
            raise MpsParseError(lineno, f"row {token!r} referenced before declaration")
        return rows[token]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or raw[0] == "*":
            continue
        if not raw[0].isspace():
            section = tokens[0]
            if section not in SECTIONS:
                raise MpsParseError(lineno, f"unknown section keyword {section!r}")
            if section == "ENDATA":
                break
            if section == "NAME":
                name = tokens[1] if len(tokens) > 1 else ""
            elif section in ("RANGES", "BOUNDS") and section not in seen:
                warnings.warn(f"MPS section {section} is read but ignored", stacklevel=2)
            seen.add(section)
        elif section == "COLUMNS":  # nearly every line of a file
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                continue  # integrality markers carry no coefficients
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MpsParseError(lineno, f"expected 'col row value [row value]', got {raw.strip()!r}")
            j = cols.setdefault(tokens[0], len(cols))
            for at in range(1, len(tokens), 2):
                r = rows.get(tokens[at])
                try:
                    value = float(tokens[at + 1])
                except ValueError:
                    value = nan
                if r is None or not isfinite(value):  # the helpers raise, naming the first fault
                    row_of(tokens[at], lineno)
                    number(tokens[at + 1], lineno)
                key = (r, j)
                coefficients[key] = coefficients.get(key, 0.0) + value
        elif section == "ROWS":
            if len(tokens) != 2:
                raise MpsParseError(lineno, f"expected 'sense name', got {raw.strip()!r}")
            sense, rname = tokens
            if sense not in ROW_SENSES:
                raise MpsParseError(lineno, f"unknown row sense {sense!r}")
            if rname in rows:
                raise MpsParseError(lineno, f"row {rname!r} declared twice")
            rows[rname] = len(rows)
            row_senses.append(sense)
            row_lines.append(lineno)
        elif section == "RHS":
            if len(tokens) % 2 == 0 and tokens[0] not in rows:
                raise MpsParseError(lineno, f"malformed RHS line {raw.strip()!r}")
            for at in range(len(tokens) % 2, len(tokens), 2):  # an odd count starts with the set name
                rhs[row_of(tokens[at], lineno)] = number(tokens[at + 1], lineno)
        elif section not in ("RANGES", "BOUNDS"):  # NAME, or no section yet
            raise MpsParseError(lineno, "data line outside of any section")

    for required in ("NAME", "ROWS", "COLUMNS"):
        if required not in seen:
            raise MpsParseError(1, f"missing required section {required}")
    return MpsProblem(name, list(rows), row_senses, row_lines, list(cols), coefficients, rhs)


def load_mps(path) -> MpsProblem:
    """parse_mps of the file at `path`; one that is not UTF-8 text raises
    ValueError naming it."""
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not an MPS file ({exc})") from None
    return parse_mps(text)


def extract_system(problem: MpsProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, b) over the non-objective rows, all senses as equalities.

    Rows and columns keep declaration order; missing RHS entries are 0.
    """
    rows = problem.constraint_rows()
    if not rows or not problem.col_names:
        raise ValueError("MPS problem has no constraint rows or no columns")
    A = np.zeros((len(problem.row_names), len(problem.col_names)))
    at = np.fromiter(chain.from_iterable(problem.coefficients), dtype=np.intp).reshape(-1, 2)
    A[at[:, 0], at[:, 1]] = np.fromiter(problem.coefficients.values(), dtype=float)
    A += 0.0  # a -0.0 entry becomes +0.0, as 0.0 + v gives it
    b = np.zeros(len(problem.row_names))
    b[list(problem.rhs)] = list(problem.rhs.values())
    return A[rows], b[rows]


def overdetermine(A, b, spec: TransformSpec = TransformSpec()) -> LinearSystem:
    """Stack an identity block to turn an underdetermined system into an
    overdetermined, slightly inconsistent one.

    Computes the least-norm solution x_ln of A x = b, stacks [A; I] with
    right-hand side [b; x_ln + eps] (eps Gaussian with spec.noise_std),
    row-normalizes in place, and makes the system, whose reference is the
    least-squares solution of the stacked system. With noise_std = 0 the
    stacked system is consistent and the reference recovers x_ln. RankError
    can come only from A (its index is a row of A): the identity rows keep
    the stacked sigma_min >= 1.
    """
    A = linalg.as_matrix(A)
    b = linalg.as_vector(b)
    rows, cols = A.shape
    if rows >= cols:
        raise ValueError(f"transform requires an underdetermined system, got {rows} x {cols}")
    x_ln = linalg.least_norm(A, b)
    eps = spec.noise_std * normal_draws(make_rng(spec.seed), cols)
    A, b = np.vstack([A, np.eye(cols)]), np.concatenate([b, x_ln + eps])
    return LinearSystem(*_normalize_in_place(A, b))
