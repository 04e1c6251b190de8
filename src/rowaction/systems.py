"""Construction and bookkeeping of the linear systems the solvers consume.

A `LinearSystem` always carries a row-normalized matrix (every row has unit
Euclidean norm), the matching right-hand side, and optionally a reference
solution, from which it derives its error vector A @ reference - b, and the
matrix's singular values.
Synthetic systems come from `generate`; arbitrary (A, b) pairs go through
`normalize_rows`, or `from_unnormalized`, whose one gelsd solve
(`linalg.lstsq`, rank tolerance `linalg.RANK_RTOL`) gives both the
least-squares reference and the singular values. `save_system` and
`load_system` keep a system in a binary file of three float64 `.npy` records.

Randomness is reproducible by construction: all draws come from a seeded
PCG64 stream, Gaussian variates use Box-Muller over uniforms, and distinct
index samples use a partial Fisher-Yates shuffle. Equal specs (seed
included) produce bitwise-equal systems.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg

ROW_NORM_TOL = 1e-12
# read only by the benchmark's stacked-system check in perfbench/workloads.py
REFERENCE_RESIDUAL_TOL = 1e-10

GENERATOR_KINDS = ("gaussian-noise", "spiky-noise", "correlated", "pure-noise")


class DegenerateRowError(ValueError):
    """A matrix row is (numerically) zero and cannot be normalized."""

    def __init__(self, row_index: int):
        self.row_index = row_index
        super().__init__(f"row {row_index} has norm below {ROW_NORM_TOL}; cannot normalize")


# --------------------------------------------------------------------------
# seeded randomness


def make_rng(seed: int) -> np.random.Generator:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return np.random.default_rng(np.uint64(seed))


def normal_draws(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal variates via Box-Muller over uniform draws."""
    if size == 0:
        return np.zeros(0)
    half = (size + 1) // 2
    u1 = 1.0 - rng.random(half)  # in (0, 1], keeps the log finite
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return z[:size]


def sample_distinct(rng: np.random.Generator, population: int, count: int) -> np.ndarray:
    """`count` distinct indices from 0..population-1 by partial Fisher-Yates."""
    if count > population:
        raise ValueError(f"cannot sample {count} distinct indices from {population}")
    pool = np.arange(population)
    for i in range(count):
        j = i + int(rng.integers(population - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count]


# --------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of a synthetic system.

    kind selects the construction:
      gaussian-noise  A_ij ~ N(0, 1/n),                b = A 1 + eps
      spiky-noise     A_ij ~ N(0, 1/n),                b = A 1 + spike_magnitude on spike_count random rows
      correlated      A_ij ~ N(row_mean, row_std^2),   b = A 1 + eps
      pure-noise      A_ij ~ N(0, 1/n),                b = eps
    with eps_i ~ N(0, noise_std^2), all pre-normalization. The generated
    system is row-normalized and carries the least-squares solution of the
    normalized system as its reference.
    """

    kind: str
    m: int = 2000
    n: int = 50
    noise_std: float = 1.0
    spike_count: int = 0
    spike_magnitude: float = 0.0
    row_mean: float = 1.0
    row_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}")
        if not (self.m > self.n >= 1):
            raise ValueError(f"generator requires m > n >= 1, got m={self.m}, n={self.n}")
        if self.spike_count > self.m or self.spike_count < 0:
            raise ValueError(f"spike_count must be in [0, m], got {self.spike_count}")
        if self.noise_std < 0 or self.row_std < 0:
            raise ValueError("noise_std and row_std must be nonnegative")


@dataclass(frozen=True)
class LinearSystem:
    """A row-normalized overdetermined system, optionally with a reference
    solution and the singular values of its matrix (non-increasing).

    Invariants checked at construction: unit row norms (within 1e-12),
    m >= n, finite entries, and n singular values when they are present.
    `error_vec` is not an argument: it is derived once as A @ reference - b
    (None without a reference). The stored arrays are read-only views of
    the coerced inputs; systems are safe to share across runs.
    """

    a: np.ndarray
    b: np.ndarray
    reference: np.ndarray | None = None
    singular_values: np.ndarray | None = None
    error_vec: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        a = linalg.as_matrix(self.a)
        b = linalg.as_vector(self.b)
        ref, sv = (None if v is None else linalg.as_vector(v)
                   for v in (self.reference, self.singular_values))
        m, n = a.shape
        if m < n:
            raise ValueError(f"system must be overdetermined (m >= n), got {m} x {n}")
        if b.shape[0] != m:
            raise ValueError(f"rhs length {b.shape[0]} does not match {m} rows")
        bad = np.abs(np.sqrt(linalg.row_norms_sq(a)) - 1.0).max()
        if bad > ROW_NORM_TOL:
            raise ValueError(f"rows must have unit norm within {ROW_NORM_TOL}, worst deviation {bad:.3e}")
        if ref is not None and ref.shape[0] != n:
            raise ValueError(f"reference length {ref.shape[0]} does not match {n} columns")
        if sv is not None and sv.shape != (n,):
            raise ValueError(f"a system with {n} columns needs {n} singular values")
        err = None if ref is None else a @ ref - b
        for name, arr in zip(("a", "b", "reference", "error_vec", "singular_values"),
                             (a, b, ref, err, sv)):
            if arr is not None:
                view = arr.view()
                view.setflags(write=False)
                object.__setattr__(self, name, view)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    def residual(self, x) -> np.ndarray:
        """A @ x - b."""
        return self.a @ linalg.as_vector(x) - self.b

    def error_inf(self) -> float:
        """Sup norm of the reference residual; requires a reference solution."""
        if self.error_vec is None:
            raise ValueError("system has no reference solution / error vector")
        return linalg.norm_inf(self.error_vec)


# --------------------------------------------------------------------------
# construction


def normalize_rows(A, b) -> tuple[np.ndarray, np.ndarray]:
    """Scale each equation so its matrix row has unit Euclidean norm.

    Dividing row i and b_i by ||a_i|| preserves the solution set of every
    equation. Raises DegenerateRowError (with the row index) if a row norm
    falls below 1e-12.
    """
    A = linalg.as_matrix(A)
    b = linalg.as_vector(b)
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"rhs length {b.shape[0]} does not match {A.shape[0]} rows")
    norms = np.sqrt((A * A).sum(axis=1))
    small = np.nonzero(norms < ROW_NORM_TOL)[0]
    if small.size:
        raise DegenerateRowError(int(small[0]))
    return A / norms[:, None], b / norms


def build_unnormalized(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray]:
    """The raw (A, b) pair of a generator spec, before row normalization.

    Draw order is fixed (matrix entries row-major, then rhs noise or spike
    indices) so that equal seeds give bitwise-equal systems.
    """
    rng = make_rng(spec.seed)
    m, n = spec.m, spec.n
    if spec.kind == "correlated":
        A = spec.row_mean + spec.row_std * normal_draws(rng, m * n).reshape(m, n)
    else:
        A = normal_draws(rng, m * n).reshape(m, n) / np.sqrt(n)
    if spec.kind == "pure-noise":
        b = spec.noise_std * normal_draws(rng, m)
    elif spec.kind == "spiky-noise":
        b = A @ np.ones(n)
        spikes = sample_distinct(rng, m, spec.spike_count)
        b[spikes] += spec.spike_magnitude
    else:  # gaussian-noise and correlated share b = A 1 + eps
        b = A @ np.ones(n) + spec.noise_std * normal_draws(rng, m)
    return A, b


def generate(spec: GeneratorSpec) -> LinearSystem:
    """Build, normalize, and annotate a synthetic system (see from_unnormalized)."""
    return from_unnormalized(*build_unnormalized(spec))


def from_unnormalized(A, b) -> LinearSystem:
    """Normalize an (A, b) pair and attach the least-squares solution of the
    normalized system as reference and the singular values of the normalized
    matrix, both from one linalg.lstsq; the system derives error_vec itself."""
    An, bn = normalize_rows(A, b)
    return LinearSystem(An, bn, *linalg.lstsq(An, bn))


# --------------------------------------------------------------------------
# binary serialization (used by the CLI to cache prepared systems)


def save_system(path, sys: LinearSystem) -> None:
    """Write [A | b] as one m x (n+1) float64 .npy record, then the reference
    and the singular values as one record each. Equal systems give equal
    bytes. A system without a reference or singular values raises ValueError."""
    if sys.reference is None or sys.singular_values is None:
        raise ValueError("a system file needs a system with a reference and singular values")
    with open(path, "wb") as fh:
        for record in (np.column_stack([sys.a, sys.b]), sys.reference, sys.singular_values):
            np.save(fh, record, allow_pickle=False)


def load_system(path) -> LinearSystem:
    """Read a save_system file. Anything else (an empty, truncated or text file,
    another record count, a wrong record dtype or shape, trailing bytes)
    raises ValueError with the path."""
    records = []
    with open(path, "rb") as fh:
        try:
            while not records or fh.peek(1):  # np.load raises EOFError on an empty file
                records.append(np.load(fh, allow_pickle=False))
            body, reference, singular_values = records
            if not (all(isinstance(r, np.ndarray) and r.dtype == np.float64 for r in records)
                    and body.ndim == 2 and body.shape[1] >= 2
                    and reference.shape == singular_values.shape == (body.shape[1] - 1,)):
                raise ValueError("expected float64 records [A | b] of shape (m, n+1), "
                                 "then the reference and the singular values of shape (n,)")
        except (ValueError, EOFError) as exc:
            raise ValueError(f"{path}: not a system file ({exc}); regenerate it with "
                             "`rowaction generate` or `rowaction netlib-prep`") from exc
    return LinearSystem(body[:, :-1], body[:, -1], reference, singular_values)
