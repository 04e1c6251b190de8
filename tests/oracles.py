"""Independent brute-force oracles used to cross-check the linalg kernel,
and the MPS reader that the package's one-pass reader must match.

The linalg oracles deliberately share no code path with the package: the
least-squares oracle solves the normal equations by exhaustive Gaussian
elimination with partial pivoting, and the smallest-eigenvalue oracle
expands the characteristic polynomial over all permutations (n <= 4) and
bisects with a Sturm chain. `frobenius_norm_sq` is the package's earlier
function, kept verbatim as the bit reference of `LinearSystem.frobenius_sq`.
`parse_mps` and `extract_system` are the package's earlier per-line reader
and per-coefficient assembly, kept verbatim: they share only the result and
error types and the section and sense tables of `rowaction.mps`.
"""

import itertools
import math
import warnings

import numpy as np

from rowaction import linalg
from rowaction.mps import ROW_SENSES, SECTIONS, MpsParseError, MpsProblem


def gaussian_elimination_solve(M, rhs):
    """Solve M x = rhs by Gaussian elimination with partial pivoting."""
    M = np.asarray(M, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = M.shape[0]
    aug = np.hstack([M.copy(), rhs.reshape(-1, 1)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < 1e-300:
            raise ZeroDivisionError("singular matrix in elimination oracle")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        for r in range(col + 1, n):
            f = aug[r, col] / aug[col, col]
            aug[r, col:] -= f * aug[col, col:]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (aug[i, n] - np.dot(aug[i, i + 1:n], x[i + 1:])) / aug[i, i]
    return x


def least_squares_oracle(A, b):
    """Normal equations A'A x = A'b via the elimination oracle."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return gaussian_elimination_solve(A.T @ A, A.T @ b)


def char_poly(M):
    """Coefficients of det(M - t I) in decreasing degree, by permutation expansion.

    Entry (i, j) contributes the linear polynomial M_ij - t [i == j]; each of
    the n! permutation products is formed by convolution. Intended for n <= 4.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    total = np.zeros(n + 1)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        poly = np.array([1.0])
        for i in range(n):
            entry = np.array([-1.0, M[i, perm[i]]]) if perm[i] == i else np.array([M[i, perm[i]]])
            poly = np.convolve(poly, entry)
        total[n + 1 - len(poly):] += sign * poly
    return total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _sturm_chain(p):
    chain = [np.trim_zeros(p, "f")]
    chain.append(np.polyder(chain[0]))
    while len(chain[-1]) > 1:
        _, rem = np.polydiv(chain[-2], chain[-1])
        rem = np.trim_zeros(rem, "f")
        if rem.size == 0:
            break
        chain.append(-rem)
    return chain


def _sign_variations(chain, x):
    signs = []
    for p in chain:
        v = np.polyval(p, x)
        if v != 0.0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def smallest_eigenvalue_oracle(M, iterations: int = 200):
    """Smallest eigenvalue of a symmetric matrix by Sturm bisection on its
    characteristic polynomial. Valid for n <= 4."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n > 4:
        raise ValueError("oracle limited to n <= 4")
    chain = _sturm_chain(char_poly(M))
    bound = float(np.abs(M).sum(axis=1).max()) + 1.0  # Gershgorin radius
    lo, hi = -bound, bound
    total_below = _sign_variations(chain, lo)

    def roots_at_most(x):
        return total_below - _sign_variations(chain, x)

    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if roots_at_most(mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-15 * bound:
            break
    return 0.5 * (lo + hi)


def min_singular_value_oracle(A):
    """sqrt of the smallest eigenvalue of A'A via the Sturm oracle."""
    A = np.asarray(A, dtype=float)
    lam = smallest_eigenvalue_oracle(A.T @ A)
    return math.sqrt(max(lam, 0.0))


def frobenius_norm_sq(A) -> float:
    """Sum of squared entries, accumulated as compensated sum of row norms.

    The summation order is pinned (per-row squared norm, then fsum over rows)
    so that this equals fsum(row . row) exactly; for a row-normalized
    matrix with m rows the result is m up to the normalization tolerance.
    """
    A = linalg.as_matrix(A)
    return math.fsum(linalg.row_norms_sq(A).tolist())


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
        if not math.isfinite(value):
            raise MpsParseError(lineno, f"non-finite coefficient {token!r}")
        return value

    def row_of(token: str, lineno: int) -> int:
        if token not in rows:
            raise MpsParseError(lineno, f"row {token!r} referenced before declaration")
        return rows[token]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("*") or not raw.strip():
            continue
        tokens = raw.split()
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
            continue

        if section == "ROWS":
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
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                continue  # integrality markers carry no coefficients
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MpsParseError(lineno, f"expected 'col row value [row value]', got {raw.strip()!r}")
            j = cols.setdefault(tokens[0], len(cols))
            for rname, val in zip(tokens[1::2], tokens[2::2]):
                key = (row_of(rname, lineno), j)
                coefficients[key] = coefficients.get(key, 0.0) + number(val, lineno)
        elif section == "RHS":
            if len(tokens) % 2 == 1:
                pairs = tokens[1:]  # first token is the RHS set name
            elif tokens[0] in rows:
                pairs = tokens
            else:
                raise MpsParseError(lineno, f"malformed RHS line {raw.strip()!r}")
            for rname, val in zip(pairs[0::2], pairs[1::2]):
                rhs[row_of(rname, lineno)] = number(val, lineno)
        elif section not in ("RANGES", "BOUNDS"):  # NAME, or no section yet
            raise MpsParseError(lineno, "data line outside of any section")

    for required in ("NAME", "ROWS", "COLUMNS"):
        if required not in seen:
            raise MpsParseError(1, f"missing required section {required}")
    return MpsProblem(name, list(rows), row_senses, row_lines, list(cols), coefficients, rhs)


def extract_system(problem: MpsProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, b) over the non-objective rows, all senses as equalities.

    Rows and columns keep declaration order; missing RHS entries are 0.
    """
    rows = problem.constraint_rows()
    if not rows or not problem.col_names:
        raise ValueError("MPS problem has no constraint rows or no columns")
    A = np.zeros((len(problem.row_names), len(problem.col_names)))
    for (r, c), v in problem.coefficients.items():
        A[r, c] += v
    b = np.zeros(len(problem.row_names))
    for r, v in problem.rhs.items():
        b[r] = v
    return A[rows], b[rows]
