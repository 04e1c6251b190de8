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

Each performed iteration emits one IterationRecord measured at the iterate
*before* the update, so record k describes x_k and the step producing
x_{k+1}. Stopping rules are checked against the same pre-update residual.
"""

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .systems import LinearSystem, make_rng

SELECTION_KINDS = ("motzkin", "rk-uniform", "hybrid")

STOP_RESIDUAL_THRESHOLD = "residual-threshold"
STOP_MAX_ITERATIONS = "max-iterations"

TELEMETRY_COLUMNS = ("k", "selected_row", "residual_inf", "residual_2sq",
                     "gamma", "error_sq", "selected_residual_sq")


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
    rng: np.random.Generator


@dataclass(frozen=True)
class IterationRecord:
    k: int
    selected_row: int
    residual_inf: float
    residual_2sq: float
    selected_residual_sq: float
    gamma: float | None = None
    error_sq: float | None = None


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
    x = np.asarray(x, dtype=float)
    a_i = sys.a[i]
    return x + (sys.b[i] - float(np.dot(a_i, x))) * a_i


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
    if x0 is None:
        x = np.zeros(sys.n)
    else:
        x = linalg.as_vector(x0).copy()
        if x.shape[0] != sys.n:
            raise ValueError(f"x0 length {x.shape[0]} does not match {sys.n} columns")
    rng = make_rng(seed)
    threshold = stop.residual_inf_threshold

    records: list[IterationRecord] = []
    switched = False
    switch_iteration: int | None = None
    k = 0
    r = sys.a @ x - sys.b
    while True:
        residual_inf = float(np.abs(r).max())
        if threshold is not None and residual_inf <= threshold:
            stop_reason = STOP_RESIDUAL_THRESHOLD
            break
        if k >= stop.max_iterations:
            stop_reason = STOP_MAX_ITERATIONS
            break

        if rule.kind == "hybrid" and not switched and residual_inf <= rule.hybrid_threshold:
            switched = True
            switch_iteration = k

        if rule.kind == "motzkin" or (rule.kind == "hybrid" and not switched):
            i = select_motzkin(r)
        else:
            i = int(rng.integers(sys.m))

        gamma = None
        error_sq = None
        if sys.reference is not None:
            d = r - sys.error_vec  # A(x_k - reference)
            d_inf_sq = float(np.abs(d).max()) ** 2
            if d_inf_sq > 0.0:
                gamma = float(np.dot(d, d)) / d_inf_sq
            diff = x - sys.reference
            error_sq = float(np.dot(diff, diff))
        records.append(IterationRecord(
            k=k,
            selected_row=i,
            residual_inf=residual_inf,
            residual_2sq=float(np.dot(r, r)),
            selected_residual_sq=float(r[i]) ** 2,
            gamma=gamma,
            error_sq=error_sq,
        ))

        x = project_step(sys, x, i)
        r = sys.a @ x - sys.b
        k += 1

    return RunResult(SolverState(x, k, rng), records, stop_reason, switch_iteration)


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
    capped at max_iterations. Trials that never reach the threshold are
    reported as censored rather than failing.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    iterations: list[int] = []
    seconds: list[float] = []
    censored_mask: list[bool] = []
    stop = StopRule(max_iterations=max_iterations, residual_inf_threshold=threshold)
    for t in range(trials):
        t0 = time.process_time()
        result = run(sys, rule, stop, seed=seed + t)
        dt = time.process_time() - t0
        iterations.append(result.state.iteration)
        seconds.append(dt)
        censored_mask.append(result.stop_reason != STOP_RESIDUAL_THRESHOLD)
    return TimingSummary(trials=trials, iterations=iterations, seconds=seconds,
                         censored_mask=censored_mask)


# --------------------------------------------------------------------------
# telemetry CSV


def write_telemetry_csv(path, records: list[IterationRecord]) -> None:
    """One row per iteration, schema `k,selected_row,residual_inf,
    residual_2sq,gamma,error_sq,selected_residual_sq`; absent optionals are
    left empty. Deterministic byte-for-byte for equal records."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TELEMETRY_COLUMNS)
        for rec in records:
            writer.writerow([
                rec.k,
                rec.selected_row,
                repr(rec.residual_inf),
                repr(rec.residual_2sq),
                "" if rec.gamma is None else repr(rec.gamma),
                "" if rec.error_sq is None else repr(rec.error_sq),
                repr(rec.selected_residual_sq),
            ])


def read_telemetry_csv(path) -> list[IterationRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != TELEMETRY_COLUMNS:
            raise ValueError(f"{path}: unexpected telemetry header {reader.fieldnames}")
        for row in reader:
            records.append(IterationRecord(
                k=int(row["k"]),
                selected_row=int(row["selected_row"]),
                residual_inf=float(row["residual_inf"]),
                residual_2sq=float(row["residual_2sq"]),
                selected_residual_sq=float(row["selected_residual_sq"]),
                gamma=float(row["gamma"]) if row["gamma"] else None,
                error_sq=float(row["error_sq"]) if row["error_sq"] else None,
            ))
    return records
