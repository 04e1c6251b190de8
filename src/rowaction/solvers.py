"""Row-action iteration engine.

One iteration projects the current iterate onto the solution hyperplane of a
single selected equation. With unit-norm rows the projection is

    x'  =  x + (b_i - a_i . x) a_i

and the selection rule is what distinguishes the methods:

  motzkin      pick the row with the largest squared residual entry
               (ties broken to the smallest index),
  rk-uniform   pick uniformly at random (on unit rows this is also the
               norm-weighted draw of randomized Kaczmarz),
  hybrid       motzkin until the residual sup norm first drops to the
               configured threshold, then rk-uniform for good (the switch
               is one-way even if the residual later grows back).

Two loops perform every run: a step-by-step greedy loop, and a blocked loop
for uniform selection. A hybrid run is a greedy prefix, stopped at the
switch, plus a uniform continuation from the switch iterate. The greedy rule
never draws from the RNG, so `run_trials` computes a motzkin run, or a hybrid
prefix, once and shares it across all the seeds it is given.

Each performed iteration emits one IterationRecord, a named tuple whose
fields are the telemetry CSV columns, measured at the iterate *before* the
update, so record k describes x_k and the step producing x_{k+1}. Stopping
rules are checked against the same pre-update residual.
`time_to_threshold` times solves that record no telemetry, so its seconds
measure the solver alone.

With telemetry both loops buffer a block of iterates, their residuals and
their rows, and `_records` turns each block into records, greedy or uniform.
A greedy step needs its residual to pick the next row, so it takes it with
its own gemv. A uniform draw does not, so uniform steps run in blocks: one
RNG call draws a block's rows, the iterates are projected one by one, and
one call gives all their residuals: with telemetry a stacked gemv
(`linalg.matvecs`, the bits of `A @ x - b`), else one gemm per
BLOCK_STEPS = 64 steps with a guard band around the threshold. Either way
the iteration count, the stop reason, x and the records equal, bit for bit,
those of a loop that takes one step, one `A @ x - b` and one record at a
time. Only the RNG and a uniform block's iterates run up to a block past the
stop point, and nothing exposes them.
"""

import csv
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .systems import LinearSystem, make_rng

SELECTION_KINDS = ("motzkin", "rk-uniform", "hybrid")

STOP_RESIDUAL_THRESHOLD = "residual-threshold"
STOP_MAX_ITERATIONS = "max-iterations"

# steps per block of a uniform solve
BLOCK_STEPS = 64
# residual entries per block of a uniform solve with telemetry (256 KB of
# float64): a block has min(BLOCK_STEPS, max(1, BLOCK_ENTRIES // m)) steps
BLOCK_ENTRIES = 32768


@dataclass(frozen=True)
class SelectionRule:
    kind: str
    hybrid_threshold: float = 0.0

    def __post_init__(self):
        if self.kind not in SELECTION_KINDS:
            raise ValueError(f"unknown selection rule {self.kind!r}; expected one of {SELECTION_KINDS}")
        if self.kind == "hybrid" and not self.hybrid_threshold > 0:
            raise ValueError("hybrid selection requires hybrid_threshold > 0")


@dataclass(frozen=True)
class StopRule:
    """Stop at `max_iterations`, or earlier once the residual sup norm falls
    to `residual_inf_threshold` (4 * beta for an error bound beta)."""

    max_iterations: int
    residual_inf_threshold: float | None = None

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.residual_inf_threshold is not None and self.residual_inf_threshold < 0:
            raise ValueError("residual_inf_threshold must be nonnegative")


@dataclass
class SolverState:
    x: np.ndarray
    iteration: int


class IterationRecord(NamedTuple):
    """One telemetry row; the fields are the CSV columns in order. gamma and
    error_sq are None without a reference, gamma also where A x_k = A x_ref."""

    k: int
    selected_row: int
    residual_inf: float
    residual_2sq: float
    gamma: float | None
    error_sq: float | None
    selected_residual_sq: float


TELEMETRY_COLUMNS = IterationRecord._fields


@dataclass
class RunResult:
    state: SolverState
    records: list[IterationRecord]
    stop_reason: str
    switch_iteration: int | None = None


def select_motzkin(r) -> int:
    """Index of the largest squared residual entry, smallest index on ties."""
    r = np.asarray(r, dtype=float)
    return int(np.argmax(r * r))


def project_step(sys: LinearSystem, x, i: int) -> np.ndarray:
    """Project x onto the hyperplane of equation i (rows are unit norm)."""
    if not 0 <= i < sys.m:
        raise IndexError(f"row index {i} out of range for {sys.m} rows")
    return _project(sys.a, sys.b, np.asarray(x, dtype=float), i)


def _project(a, b, x, i, out=None):
    """x + (b_i - a_i . x) a_i, into `out` when given; no checks."""
    a_i = a[i]
    return np.add(x, (b[i] - float(np.dot(a_i, x))) * a_i, out=out)


def run(sys: LinearSystem,
        rule: SelectionRule,
        stop: StopRule,
        x0=None,
        seed: int = 0) -> RunResult:
    """Iterate a selection rule until a stopping rule fires.

    Args:
        sys: row-normalized system; when it carries a reference solution the
            telemetry also records gamma (residual dynamic range) and the
            squared error to the reference.
        rule: row selection rule; hybrid switches motzkin -> rk-uniform the
            first time the residual sup norm is <= rule.hybrid_threshold.
        stop: iteration cap plus optional residual threshold. The threshold
            is checked before each update, so the returned state is the
            first iterate satisfying it.
        x0: starting iterate, zero vector by default.
        seed: RNG seed for the randomized rules (motzkin runs ignore it).

    Returns:
        RunResult with the final state, one record per performed iteration,
        the stop reason, and the hybrid switch iteration when it happened.
    """
    return next(run_trials(sys, rule, stop, [seed], x0))


def run_trials(sys: LinearSystem,
               rule: SelectionRule,
               stop: StopRule,
               seeds,
               x0=None) -> Iterator[RunResult]:
    """Yield `run(sys, rule, stop, x0, seed)` for each seed in turn, lazily.

    The seed-independent part is computed once: the whole run for motzkin,
    the greedy prefix up to the switch for hybrid. Each result has its own
    iterate and records list; hybrid results share the prefix's records.
    """
    return _trials(sys, rule, stop, seeds, x0, telemetry=True)


def _trials(sys, rule, stop, seeds, x0, telemetry):
    if x0 is None:
        x = np.zeros(sys.n)
    else:
        x = linalg.as_vector(x0).copy()
        if x.shape[0] != sys.n:
            raise ValueError(f"x0 length {x.shape[0]} does not match {sys.n} columns")
    r = sys.a @ x - sys.b
    k, stop_reason, prefix = 0, None, []
    if rule.kind != "rk-uniform":
        greedy_stop = stop
        if rule.kind == "hybrid":
            # residual <= hybrid threshold ends the prefix: a stop when the stop
            # threshold or the cap also holds there, else the switch
            greedy_stop = StopRule(stop.max_iterations,
                                   max(stop.residual_inf_threshold or 0.0, rule.hybrid_threshold))
        x, r, k, stop_reason = _loop(sys, x, r, 0, greedy_stop, prefix if telemetry else None)
    for seed in seeds:
        rng = make_rng(seed)
        records = list(prefix)
        if rule.kind == "motzkin":
            yield RunResult(SolverState(x.copy(), k), records, stop_reason)
            continue
        x_t, k_t, reason_t = _blocked_uniform(sys, x, r, k, stop, rng,
                                              records if telemetry else None)
        moved = k_t > k
        switch_iteration = k if rule.kind == "hybrid" and moved else None
        yield RunResult(SolverState(x_t if moved else x.copy(), k_t), records, reason_t,
                        switch_iteration)


def _loop(sys, x, r, k, stop, records):
    """Iterate greedily from x_k, whose residual is r = A x_k - b, until
    `stop` fires. Unless `records` is None, buffers each step and appends the
    records of each full block, and of the rest at the stop, by `_records`.
    Returns the final x, its residual, its k and the stop reason."""
    threshold = stop.residual_inf_threshold
    a, b = sys.a, sys.b
    if records is not None:
        s = min(BLOCK_STEPS, max(1, BLOCK_ENTRIES // sys.m))
        # x_k and its residual sit in row len(rows) of the buffers
        iterates, residuals, rows = np.empty((s, sys.n)), np.empty((s, sys.m)), []
        iterates[0], residuals[0] = x, r
    while True:
        if threshold is not None and float(np.abs(r).max()) <= threshold:
            reason = STOP_RESIDUAL_THRESHOLD
            break
        if k >= stop.max_iterations:
            reason = STOP_MAX_ITERATIONS
            break

        i = select_motzkin(r)
        if records is None:
            x = _project(a, b, x, i)
            r = a @ x - b
        else:
            rows.append(i)
            if len(rows) == s:
                _records(sys, iterates, residuals, rows, k + 1 - s, records)
                rows = []
            x = _project(a, b, x, i, out=iterates[len(rows)])
            r = np.matmul(a, x, out=residuals[len(rows)])
            r -= b
        k += 1
    if records is not None:
        _records(sys, iterates, residuals, rows, k - len(rows), records)
    return x, r, k, reason


def _blocked_uniform(sys, x, r, k, stop, rng, records):
    """Iterate with uniform draws from x_k, whose residual is r = A x_k - b,
    until `stop` fires, a block of s steps at a time. Appends one record per
    iteration to `records` unless it is None. Returns the final x, its k and
    the stop reason.

    One `rng.integers(m, size=s)` call draws a block's rows, the same values
    as s scalar draws. The iterates are projected one by one, as in `_loop`,
    into a buffer, and one call then gives the residuals of the whole block:

    - With records, s = min(BLOCK_STEPS, max(1, BLOCK_ENTRIES // m)), so the
      residual buffer stays within 256 KB. The stacked gemv `linalg.matvecs`
      gives each residual the bits of `A @ x - b`, and `_records` turns them
      into the block's records, up to the first iterate at or below the
      threshold.
    - Without records, s = BLOCK_STEPS and one gemm gives the residuals.
      gemm and gemv may differ in the last bits of a sup norm v, by less
      than g = 2 (n+2) eps (||x||_2 + ||b||_inf + v) on unit rows
      (|a_i . x| <= ||x||_2). So every iterate whose gemm v is not above the
      threshold by more than g is checked again with the gemv. Without a
      threshold no residual is taken.

    The results keep the bit-for-bit contract of the module docstring.
    """
    threshold = stop.residual_inf_threshold
    if threshold is not None and float(np.abs(r).max()) <= threshold:
        return x, k, STOP_RESIDUAL_THRESHOLD
    a, b = sys.a, sys.b
    s = BLOCK_STEPS if records is None else min(BLOCK_STEPS, max(1, BLOCK_ENTRIES // sys.m))
    # row 0 holds x_k and its residual, rows 1..s the block's iterates and theirs
    iterates = np.empty((s + 1, sys.n))
    iterates[0] = x
    if records is not None or threshold is not None:
        residuals = np.empty((s + 1, sys.m))
        residuals[0] = r
    if records is None and threshold is not None:
        band = 2 * (sys.n + 2) * np.finfo(float).eps
        b_inf = float(np.abs(b).max())
    while k < stop.max_iterations:
        steps = min(s, stop.max_iterations - k)
        rows = rng.integers(sys.m, size=steps).tolist()
        x = iterates[0]
        for j, i in enumerate(rows, 1):
            x = _project(a, b, x, i, out=iterates[j])
        if records is not None:
            block = linalg.matvecs(a, iterates[1:steps + 1], out=residuals[1:steps + 1])
            block -= b
            hit = None
            if threshold is not None:
                below = np.flatnonzero(np.abs(block).max(axis=1) <= threshold)
                if below.size:
                    hit = int(below[0]) + 1
            _records(sys, iterates, residuals, rows[:hit], k, records)
            if hit is not None:
                return iterates[hit].copy(), k + hit, STOP_RESIDUAL_THRESHOLD
            residuals[0] = residuals[steps]
        elif threshold is not None:
            block = np.matmul(iterates[1:steps + 1], a.T, out=residuals[1:steps + 1])
            block -= b
            v = np.abs(block, out=block).max(axis=1)
            guard = band * (np.linalg.norm(iterates[1:steps + 1], axis=1) + b_inf + v)
            for j in (np.flatnonzero(~(v - guard > threshold)) + 1).tolist():
                if float(np.abs(a @ iterates[j] - b).max()) <= threshold:
                    return iterates[j].copy(), k + j, STOP_RESIDUAL_THRESHOLD
        iterates[0] = iterates[steps]
        k += steps
    return iterates[0].copy(), k, STOP_MAX_ITERATIONS


def _records(sys, iterates, residuals, rows, k, records):
    """Append to `records` the records of x_k, x_{k+1}, ..., one per selected
    row in `rows`, whose iterates and residuals A x - b lead `iterates` and
    `residuals`. Each column has the bits of the step-by-step expression: the
    sup norms are exact maxima, the squared norms come from
    `linalg.row_norms_sq` (the dot kernel of `np.dot`), and gamma and the
    squares are Python-float arithmetic."""
    t = len(rows)
    r = residuals[:t]
    selected = r[np.arange(t), rows].tolist()
    if sys.reference is None:
        gammas = error_sqs = [None] * t
    else:
        d = r - sys.error_vec  # A(x_j - reference)
        dds = linalg.row_norms_sq(d).tolist()
        gammas = [dd / v ** 2 if v ** 2 > 0.0 else None
                  for dd, v in zip(dds, np.abs(d, out=d).max(axis=1).tolist())]
        error_sqs = linalg.row_norms_sq(iterates[:t] - sys.reference).tolist()
    records.extend(
        IterationRecord(k + j, i, v, r2, gamma, error_sq, r_i ** 2)
        for j, (i, v, r2, gamma, error_sq, r_i) in enumerate(zip(
            rows, np.abs(r).max(axis=1).tolist(), linalg.row_norms_sq(r).tolist(), gammas,
            error_sqs, selected)))


@dataclass(frozen=True)
class TimingSummary:
    """Per-trial iteration counts and process times for one solver reaching a
    residual threshold; censored_mask marks trials that hit the cap instead."""

    trials: int
    iterations: list[int]
    seconds: list[float]
    censored_mask: list[bool]

    @property
    def censored(self) -> int:
        return sum(self.censored_mask)

    @property
    def mean_iterations(self) -> float:
        reached = [it for it, c in zip(self.iterations, self.censored_mask) if not c]
        return sum(reached) / len(reached) if reached else math.nan

    @property
    def mean_seconds(self) -> float:
        reached = [s for s, c in zip(self.seconds, self.censored_mask) if not c]
        return sum(reached) / len(reached) if reached else math.nan


def time_to_threshold(sys: LinearSystem,
                      rule: SelectionRule,
                      threshold: float,
                      trials: int,
                      seed: int = 0,
                      max_iterations: int = 1_000_000) -> TimingSummary:
    """Mean process time and iteration count to first reach a residual threshold.

    Runs `trials` independent solves with derived seeds (seed + t), each
    capped at max_iterations and timed on its own, recording no telemetry.
    A uniform solve checks its stop test in blocks of BLOCK_STEPS = 64 steps
    by one gemm; its counts equal those of the step-by-step loop exactly, and
    its RNG advances past the stop point, which nothing exposes. Trials that
    never reach the threshold are reported as censored rather than failing.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    iterations: list[int] = []
    seconds: list[float] = []
    censored_mask: list[bool] = []
    stop = StopRule(max_iterations=max_iterations, residual_inf_threshold=threshold)
    for t in range(trials):
        t0 = time.process_time()
        result = next(_trials(sys, rule, stop, [seed + t], None, telemetry=False))
        dt = time.process_time() - t0
        iterations.append(result.state.iteration)
        seconds.append(dt)
        censored_mask.append(result.stop_reason != STOP_RESIDUAL_THRESHOLD)
    return TimingSummary(trials=trials, iterations=iterations, seconds=seconds,
                         censored_mask=censored_mask)


# --------------------------------------------------------------------------
# telemetry CSV


def write_telemetry_csv(path, records: list[IterationRecord]) -> None:
    """A TELEMETRY_COLUMNS header, then one row per record. The csv module
    writes a float as its repr and None as an empty field, so the bytes are
    deterministic for equal records."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TELEMETRY_COLUMNS)
        writer.writerows(records)


def read_telemetry_csv(path) -> list[IterationRecord]:
    """Records of a telemetry CSV; blank rows are skipped, and a malformed
    row raises ValueError naming the path and the line."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != TELEMETRY_COLUMNS:
            raise ValueError(f"{path}: unexpected telemetry header {header}")
        for row in reader:
            if not row:
                continue
            try:
                k, i, residual_inf, residual_2sq, gamma, error_sq, selected_residual_sq = row
                records.append(IterationRecord(
                    int(k), int(i), float(residual_inf), float(residual_2sq),
                    float(gamma) if gamma else None, float(error_sq) if error_sq else None,
                    float(selected_residual_sq)))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return records
