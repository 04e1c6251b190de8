"""MPS ingestion and the underdetermined-to-overdetermined transform.

Linear-programming benchmark files (NAME / ROWS / COLUMNS / RHS / RANGES /
BOUNDS / ENDATA sections) are parsed in whitespace-delimited free format,
which also accepts the classic fixed-column layout. Only the constraint
matrix and right-hand side are taken: every non-objective row is treated as
an equality, and RANGES / BOUNDS sections are read and ignored with a
warning. The constraint systems are naturally underdetermined (fewer rows
than columns); `overdetermine` stacks an identity block under the matrix
with right-hand side set to the least-norm solution plus small Gaussian
noise, producing an overdetermined, slightly inconsistent system whose
least-squares solution stays near the original one.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .systems import LinearSystem, from_unnormalized, make_rng, normal_draws

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
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")


def parse_mps(text: str) -> MpsProblem:
    """Parse one problem from MPS text.

    Section keywords must start in the first column; data lines are
    whitespace-indented. Lines starting with '*' are comments. Raises
    MpsParseError (with the line number) on unknown sections, rows
    referenced before declaration, rows declared twice, and non-numeric or
    non-finite coefficients.
    """
    name = ""
    row_names: list[str] = []
    row_senses: list[str] = []
    row_lines: list[int] = []
    row_index: dict[str, int] = {}
    col_names: list[str] = []
    col_index: dict[str, int] = {}
    coefficients: dict[tuple[int, int], float] = {}
    rhs: dict[int, float] = {}
    section = None
    warned_ignored: set[str] = set()
    saw = {"NAME": False, "ROWS": False, "COLUMNS": False}
    ended = False

    def number(token: str, lineno: int) -> float:
        try:
            value = float(token)
        except ValueError:
            raise MpsParseError(lineno, f"non-numeric coefficient {token!r}") from None
        if not math.isfinite(value):
            raise MpsParseError(lineno, f"non-finite coefficient {token!r}")
        return value

    def row_of(token: str, lineno: int) -> int:
        if token not in row_index:
            raise MpsParseError(lineno, f"row {token!r} referenced before declaration")
        return row_index[token]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if ended:
            break
        if raw.startswith("*") or not raw.strip():
            continue
        tokens = raw.split()
        if not raw[0].isspace():
            keyword = tokens[0]
            if keyword not in SECTIONS:
                raise MpsParseError(lineno, f"unknown section keyword {keyword!r}")
            if keyword == "ENDATA":
                ended = True
                continue
            if keyword == "NAME":
                name = tokens[1] if len(tokens) > 1 else ""
                saw["NAME"] = True
                section = None
                continue
            section = keyword
            if keyword in saw:
                saw[keyword] = True
            if keyword in ("RANGES", "BOUNDS") and keyword not in warned_ignored:
                warned_ignored.add(keyword)
                warnings.warn(f"MPS section {keyword} is read but ignored", stacklevel=2)
            continue

        if section == "ROWS":
            if len(tokens) != 2:
                raise MpsParseError(lineno, f"expected 'sense name', got {raw.strip()!r}")
            sense, rname = tokens
            if sense not in ROW_SENSES:
                raise MpsParseError(lineno, f"unknown row sense {sense!r}")
            if rname in row_index:
                raise MpsParseError(lineno, f"row {rname!r} declared twice")
            row_index[rname] = len(row_names)
            row_names.append(rname)
            row_senses.append(sense)
            row_lines.append(lineno)
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                continue  # integrality markers carry no coefficients
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MpsParseError(lineno, f"expected 'col row value [row value]', got {raw.strip()!r}")
            cname = tokens[0]
            if cname not in col_index:
                col_index[cname] = len(col_names)
                col_names.append(cname)
            j = col_index[cname]
            for rname, val in zip(tokens[1::2], tokens[2::2]):
                key = (row_of(rname, lineno), j)
                coefficients[key] = coefficients.get(key, 0.0) + number(val, lineno)
        elif section == "RHS":
            if len(tokens) % 2 == 1:
                pairs = tokens[1:]  # first token is the RHS set name
            elif tokens[0] in row_index:
                pairs = tokens
            else:
                raise MpsParseError(lineno, f"malformed RHS line {raw.strip()!r}")
            for rname, val in zip(pairs[0::2], pairs[1::2]):
                rhs[row_of(rname, lineno)] = number(val, lineno)
        elif section in ("RANGES", "BOUNDS"):
            continue
        else:
            raise MpsParseError(lineno, "data line outside of any section")

    for required, present in saw.items():
        if not present:
            raise MpsParseError(1, f"missing required section {required}")
    return MpsProblem(name, row_names, row_senses, row_lines, col_names, coefficients, rhs)


def load_mps(path) -> MpsProblem:
    with open(path) as fh:
        return parse_mps(fh.read())


def extract_system(problem: MpsProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, b) over the non-objective rows, all senses as equalities.

    Rows and columns keep declaration order; missing RHS entries are 0.
    """
    rows = problem.constraint_rows()
    if not rows or not problem.col_names:
        raise ValueError("MPS problem has no constraint rows or no columns")
    position = {r: i for i, r in enumerate(rows)}
    A = np.zeros((len(rows), len(problem.col_names)))
    for (r, c), v in problem.coefficients.items():
        if r in position:
            A[position[r], c] += v
    b = np.zeros(len(rows))
    for r, v in problem.rhs.items():
        if r in position:
            b[position[r]] = v
    return A, b


def overdetermine(A, b, spec: TransformSpec = TransformSpec()) -> LinearSystem:
    """Stack an identity block to turn an underdetermined system into an
    overdetermined, slightly inconsistent one.

    Computes the least-norm solution x_ln of A x = b, stacks [A; I] with
    right-hand side [b; x_ln + eps] (eps Gaussian with spec.noise_std),
    row-normalizes, and attaches the least-squares solution of the stacked
    system as reference. With noise_std = 0 the stacked system is consistent
    and the reference recovers x_ln. RankError can come only from A (its
    index is a row of A): the identity rows keep the stacked sigma_min >= 1.
    """
    A = linalg.as_matrix(A)
    b = linalg.as_vector(b)
    rows, cols = A.shape
    if rows >= cols:
        raise ValueError(f"transform requires an underdetermined system, got {rows} x {cols}")
    x_ln = linalg.least_norm(A, b)
    eps = spec.noise_std * normal_draws(make_rng(spec.seed), cols)
    return from_unnormalized(np.vstack([A, np.eye(cols)]), np.concatenate([b, x_ln + eps]))
