"""Construction and bookkeeping of the linear systems the solvers consume.

A `LinearSystem` always carries a row-normalized matrix (every row has unit
Euclidean norm), the matching right-hand side, a reference solution, from
which it derives its error vector A @ reference - b, and the matrix's
singular values. Built from A and b alone, it takes the least-squares
reference and the singular values from one gelsd solve (`linalg.lstsq`,
rank tolerance `linalg.RANK_RTOL`); `load_system` passes the stored ones.
Synthetic systems come from `generate`; an arbitrary (A, b) pair becomes
`LinearSystem(*normalize_rows(A, b))`. `save_system` and `load_system`
keep a system in a binary file of three float64 `.npy` 1.0 records, the
first [A | b] in C order whatever A's layout; other layouts do not load.
`load_system` gives A rows that start on 32-byte boundaries (a row stride
of n rounded up to 4 doubles), so every stage that loads a system file
(`solve`, `bounds`, `timing`) runs its gemvs about 1.3 times as fast as on
the record's own rows, with the same bits. A system built in memory keeps
its caller's layout.

Randomness is reproducible by construction: all draws come from a seeded
PCG64 stream, Gaussian variates use Box-Muller over uniforms, and distinct
index samples use a partial Fisher-Yates shuffle. Equal specs (seed
included) produce bitwise-equal systems on an equal BLAS, in a library call
at an equal thread count too: gelsd's bits can depend on it (every CLI
command runs one). `generate` scales and normalizes the matrix in place, in
the two buffers of `normal_draws`, so it peaks at about twice the matrix
(with the row-norm temporary or gelsd's copy).
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import linalg

ROW_NORM_TOL = 1e-12
# bytes of the [A | b] record that load_system reads into one buffer at a time
LOAD_CHUNK_BYTES = 2**20
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


def check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return seed


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.uint64(check_seed(seed)))


def normal_draws(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal variates by Box-Muller over uniform draws u1, u2, in two
    buffers: the output, whose first half holds the radius sqrt(-2 log(1 - u1))
    until the halves take radius * cos and radius * sin, and one for 2 pi u2."""
    radius, sine = z = np.empty((2, (size + 1) // 2))
    np.subtract(1.0, rng.random(out=radius), out=radius)  # in (0, 1], keeps the log finite
    np.sqrt(np.multiply(np.log(radius, out=radius), -2.0, out=radius), out=radius)
    angle = rng.random(radius.size)
    angle *= 2.0 * np.pi
    np.multiply(np.sin(angle, out=sine), radius, out=sine)
    np.multiply(np.cos(angle, out=angle), radius, out=radius)
    return z.reshape(-1)[:size]


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


def check_finite(name: str, value: float, nonnegative: bool = False) -> None:
    """Raise ValueError naming `name` unless `value` is finite (and >= 0 if asked)."""
    if not (math.isfinite(value) and (value >= 0 or not nonnegative)):
        raise ValueError(f"{name} must be finite{' and nonnegative' if nonnegative else ''}, got {value!r}")


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
        for name in ("noise_std", "row_std", "row_mean", "spike_magnitude"):
            check_finite(name, getattr(self, name), nonnegative=name.endswith("_std"))


@dataclass(frozen=True)
class LinearSystem:
    """A row-normalized overdetermined system with its reference solution
    and the singular values of its matrix, given both or neither: then one
    `linalg.lstsq` gives them, or raises RankError on a rank-deficient A.

    Invariants checked at construction: unit row norms (within 1e-12),
    m >= n, finite entries, an n-vector reference, and n positive,
    non-increasing singular values. Derived once: `error_vec` as
    A @ reference - b, and `frobenius_sq` as the math.fsum of the check's
    squared row norms. The stored arrays are read-only views of the coerced
    inputs; systems are safe to share across runs.
    """

    a: np.ndarray
    b: np.ndarray
    reference: np.ndarray | None = None
    singular_values: np.ndarray | None = None
    error_vec: np.ndarray = field(init=False)
    frobenius_sq: float = field(init=False)

    def __post_init__(self):
        a = linalg.as_matrix(self.a)
        b = linalg.as_vector(self.b)
        m, n = a.shape
        if m < n:
            raise ValueError(f"system must be overdetermined (m >= n), got {m} x {n}")
        if b.shape[0] != m:
            raise ValueError(f"rhs length {b.shape[0]} does not match {m} rows")
        norms_sq = linalg.row_norms_sq(a)
        bad = np.abs(np.sqrt(norms_sq) - 1.0).max()
        if bad > ROW_NORM_TOL:
            raise ValueError(f"rows must have unit norm within {ROW_NORM_TOL}, worst deviation {bad:.3e}")
        if (self.reference is None) != (self.singular_values is None):
            raise ValueError("give a system both its reference and its singular values, or neither")
        ref, sv = (linalg.lstsq(a, b) if self.reference is None
                   else map(linalg.as_vector, (self.reference, self.singular_values)))
        if ref.shape[0] != n:
            raise ValueError(f"reference length {ref.shape[0]} does not match {n} columns")
        if sv.shape != (n,) or not (sv[-1] > 0 and (sv[:-1] >= sv[1:]).all()):
            raise ValueError(f"a system with {n} columns needs {n} positive, non-increasing singular values")
        for name, arr in zip(("a", "b", "reference", "error_vec", "singular_values"),
                             (a, b, ref, a @ ref - b, sv)):
            view = arr.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        object.__setattr__(self, "frobenius_sq", math.fsum(norms_sq.tolist()))

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
        """Sup norm of the reference residual."""
        return linalg.norm_inf(self.error_vec)


# --------------------------------------------------------------------------
# construction


def normalize_rows(A, b) -> tuple[np.ndarray, np.ndarray]:
    """Scale each equation so its matrix row has unit Euclidean norm, in copies.

    Dividing row i and b_i by ||a_i|| preserves the solution set of every
    equation. A row whose squared norm passes the float range is divided by
    its largest entry first. Raises DegenerateRowError (with the row index)
    if a row norm falls below 1e-12.
    """
    return _normalize_in_place(np.array(A, dtype=float), np.array(b, dtype=float))


def _normalize_in_place(A, b) -> tuple[np.ndarray, np.ndarray]:
    """normalize_rows of float arrays that no caller keeps, divided in place."""
    A = linalg.as_matrix(A)
    b = linalg.as_vector(b)
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"rhs length {b.shape[0]} does not match {A.shape[0]} rows")
    with np.errstate(over="ignore"):
        norms = np.sqrt((A * A).sum(axis=1))
    big = np.flatnonzero(np.isinf(norms))  # rows with a square past the float range
    if big.size:
        scale = np.abs(A[big]).max(axis=1)
        A[big] /= scale[:, None]
        b[big] /= scale
        norms[big] = np.sqrt((A[big] * A[big]).sum(axis=1))
    small = np.nonzero(norms < ROW_NORM_TOL)[0]
    if small.size:
        raise DegenerateRowError(int(small[0]))
    return np.divide(A, norms[:, None], out=A), np.divide(b, norms, out=b)


def build_unnormalized(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray]:
    """The raw (A, b) pair of a generator spec, before row normalization.

    Draw order is fixed (matrix entries row-major, then rhs noise or spike
    indices) so that equal seeds give bitwise-equal systems.
    """
    rng = make_rng(spec.seed)
    m, n = spec.m, spec.n
    A = normal_draws(rng, m * n).reshape(m, n)
    if spec.kind == "correlated":
        A *= spec.row_std
        A += spec.row_mean
    else:
        A /= np.sqrt(n)
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
    """Build and normalize (in place) a synthetic system."""
    return LinearSystem(*_normalize_in_place(*build_unnormalized(spec)))


# --------------------------------------------------------------------------
# binary serialization (used by the CLI to cache prepared systems)


def save_system(path, sys: LinearSystem) -> None:
    """Write [A | b] as one m x (n+1) float64 .npy 1.0 record in C order,
    whatever A's layout, then the reference and the singular values as one
    record each. Equal systems give equal bytes."""
    body = np.empty((sys.m, sys.n + 1))
    body[:, :-1], body[:, -1] = sys.a, sys.b
    with open(path, "wb") as fh:
        for record in (body, sys.reference, sys.singular_values):
            np.save(fh, record, allow_pickle=False)


def load_system(path) -> LinearSystem:
    """Read a save_system file. Anything else (an empty, truncated or text file,
    another record count, a wrong record dtype or shape, an [A | b] record
    in Fortran order or in another .npy version than 1.0, trailing bytes,
    or content that LinearSystem rejects) raises ValueError with the path.

    The [A | b] record is read LOAD_CHUNK_BYTES at a time and copied into
    two buffers, so no copy of the whole record is held: an A whose rows
    start on 32-byte boundaries (`linalg.empty_aligned`), which the record's
    rows, n + 1 doubles apart, mostly do not, and a contiguous b, which a
    solve subtracts from every residual it takes. A gemv on those rows runs
    about 1.3 times as fast and gives the same bits (see the linalg module
    docstring).
    """
    with open(path, "rb") as fh:
        try:
            records = [_read_body(fh)]
            while fh.peek(1):
                _check_record_start(fh)
                records.append(np.load(fh, allow_pickle=False))
            (a, b), reference, singular_values = records
            if not (all(isinstance(r, np.ndarray) and r.dtype == np.float64
                        for r in (reference, singular_values))
                    and reference.shape == singular_values.shape == (a.shape[1],)):
                raise ValueError(_RECORDS_EXPECTED)
            return LinearSystem(a, b, reference, singular_values)
        except (ValueError, EOFError) as exc:
            raise ValueError(f"{path}: not a system file ({exc}); regenerate it with "
                             "`rowaction generate` or `rowaction netlib-prep`") from exc


_RECORDS_EXPECTED = ("expected float64 records: [A | b] of shape (m, n+1) in C order, "
                     "as .npy 1.0, then the reference and the singular values of shape (n,)")


def _check_record_start(fh) -> None:
    """Raise ValueError unless a .npy record starts at fh's position, where fh stays."""
    at, magic = fh.tell(), np.lib.format.MAGIC_PREFIX  # peek may return fewer bytes than asked for
    if fh.read(len(magic)) != magic:  # else np.load suggests unpickling it
        raise ValueError(f"no .npy record starts at byte {at}")
    fh.seek(at)


def _read_body(fh) -> tuple[np.ndarray, np.ndarray]:
    """The [A | b] record at fh's position as an A with aligned rows and a
    contiguous b, copied from chunks of its rows in one reused buffer."""
    _check_record_start(fh)
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError(_RECORDS_EXPECTED)
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    if fortran_order or not (dtype == np.float64 and len(shape) == 2 and shape[1] >= 2):
        raise ValueError(_RECORDS_EXPECTED)
    m, n = shape[0], shape[1] - 1
    # checked before the buffers are allocated: a header can claim any size
    left, size = os.fstat(fh.fileno()).st_size - fh.tell(), 8 * m * (n + 1)
    if left < size:
        raise ValueError(f"the [A | b] record of shape {shape} ends after {left} of its {size} bytes")
    a, b = linalg.empty_aligned(m, n), np.empty(m)
    buf = np.empty((max(1, min(m, LOAD_CHUNK_BYTES // (8 * (n + 1)))), n + 1))
    for lo in range(0, m, len(buf)):
        chunk = buf[:m - lo]
        if fh.readinto(chunk) != chunk.nbytes:  # the file shrank while it was read
            raise EOFError("the [A | b] record ended while it was read")
        a[lo:lo + len(chunk)] = chunk[:, :-1]
        b[lo:lo + len(chunk)] = chunk[:, -1]
    return a, b
