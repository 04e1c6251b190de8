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

One loop performs every run, with greedy or uniform selection. A hybrid run
is a greedy prefix, stopped at the switch, plus a uniform continuation from
the switch iterate. The greedy rule never draws from the RNG, so
`run_trials` computes a motzkin run, or a hybrid prefix, once and shares it
across all the seeds it is given.

Each performed iteration emits one IterationRecord, a named tuple whose
fields are the telemetry CSV columns, measured at the iterate *before* the
update, so record k describes x_k and the step producing x_{k+1}. Stopping
rules are checked against the same pre-update residual.
`time_to_threshold` times solves that record no telemetry, so its seconds
measure the solver alone. A uniform solve without telemetry never needs a
residual to pick its rows, so its stop test is checked in blocks of
BLOCK_STEPS = 64 steps, by one gemm per block instead of one gemv per step.
The result is exact: the iteration count, the stop reason and x equal those
of the step-by-step loop bit for bit. Only the RNG advances past the stop
point, and nothing exposes it.
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

# steps per block of a uniform solve without telemetry
BLOCK_STEPS = 64


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
        x, r, k, stop_reason = _loop(sys, x, r, 0, greedy_stop, None, prefix if telemetry else None)
    for seed in seeds:
        rng = make_rng(seed)
        records = list(prefix)
        if rule.kind == "motzkin":
            yield RunResult(SolverState(x.copy(), k), records, stop_reason)
            continue
        x_t, _, k_t, reason_t = _loop(sys, x, r, k, stop, rng, records if telemetry else None)
        moved = k_t > k
        switch_iteration = k if rule.kind == "hybrid" and moved else None
        yield RunResult(SolverState(x_t if moved else x.copy(), k_t), records, reason_t,
                        switch_iteration)


def _loop(sys, x, r, k, stop, rng, records):
    """Iterate from x_k, whose residual is r = A x_k - b, until `stop` fires.
    Selects greedily when rng is None, else draws uniformly from rng. Appends
    one record per iteration to `records` unless it is None; a uniform draw
    without records runs in blocks (`_blocked_uniform`). Returns the final x,
    its residual, its k and the stop reason."""
    if rng is not None and records is None:
        return _blocked_uniform(sys, x, r, k, stop, rng)
    threshold = stop.residual_inf_threshold
    while True:
        residual_inf = float(np.abs(r).max())
        if threshold is not None and residual_inf <= threshold:
            return x, r, k, STOP_RESIDUAL_THRESHOLD
        if k >= stop.max_iterations:
            return x, r, k, STOP_MAX_ITERATIONS

        if rng is None:
            i = select_motzkin(r)
        else:
            i = int(rng.integers(sys.m))

        if records is not None:
            gamma = None
            error_sq = None
            if sys.reference is not None:
                d = r - sys.error_vec  # A(x_k - reference)
                d_inf_sq = float(np.abs(d).max()) ** 2
                if d_inf_sq > 0.0:
                    gamma = float(np.dot(d, d)) / d_inf_sq
                diff = x - sys.reference
                error_sq = float(np.dot(diff, diff))
            records.append(IterationRecord(k, i, residual_inf, float(np.dot(r, r)),
                                           gamma, error_sq, float(r[i]) ** 2))

        x = _project(sys.a, sys.b, x, i)
        r = sys.a @ x - sys.b
        k += 1


def _blocked_uniform(sys, x, r, k, stop, rng):
    """`_loop` with uniform draws and no records, BLOCK_STEPS steps at a time.

    One `rng.integers(m, size=steps)` call draws a block's rows, the same
    values as `steps` scalar draws. Each iterate is projected as in `_loop`
    and kept in a buffer; one gemm then gives the residuals of the whole
    block, and the stop test takes the first iterate at or below the
    threshold. gemm and gemv may differ in the last bits of a sup norm v,
    by less than g = 2 (n+2) eps (||x||_2 + ||b||_inf + v) on unit rows
    (|a_i . x| <= ||x||_2). So every iterate whose gemm v is not above the
    threshold by more than g is checked again with `_loop`'s gemv, and the
    count, the stop reason and x equal `_loop`'s bit for bit. Without a
    threshold no residual is taken. The RNG ends up past the stop point.
    """
    threshold = stop.residual_inf_threshold
    if threshold is not None and float(np.abs(r).max()) <= threshold:
        return x, r, k, STOP_RESIDUAL_THRESHOLD
    a, b = sys.a, sys.b
    iterates = np.empty((BLOCK_STEPS, sys.n))
    if threshold is not None:
        residuals = np.empty((BLOCK_STEPS, sys.m))
        band = 2 * (sys.n + 2) * np.finfo(float).eps
        b_inf = float(np.abs(b).max())
    while k < stop.max_iterations:
        steps = min(BLOCK_STEPS, stop.max_iterations - k)
        for j, i in enumerate(rng.integers(sys.m, size=steps).tolist()):
            x = _project(a, b, x, i, out=iterates[j])
        if threshold is not None:
            block = np.matmul(iterates[:steps], a.T, out=residuals[:steps])
            block -= b
            v = np.abs(block, out=block).max(axis=1)
            guard = band * (np.linalg.norm(iterates[:steps], axis=1) + b_inf + v)
            for j in np.flatnonzero(~(v - guard > threshold)).tolist():
                r = a @ iterates[j] - b
                if float(np.abs(r).max()) <= threshold:
                    return iterates[j].copy(), r, k + j + 1, STOP_RESIDUAL_THRESHOLD
        k += steps
    x = x.copy()
    return x, a @ x - b, k, STOP_MAX_ITERATIONS


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
