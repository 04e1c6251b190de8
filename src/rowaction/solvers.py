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

Each performed iteration emits one IterationRecord measured at the iterate
*before* the update, so record k describes x_k and the step producing
x_{k+1}. Stopping rules are checked against the same pre-update residual.
`time_to_threshold` times solves that record no telemetry, so its seconds
measure the solver alone.
"""

import csv
import math
import time
from collections.abc import Iterator
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
    one record per iteration to `records` unless it is None. Returns the
    final x, its residual, its k and the stop reason."""
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
    Trials that never reach the threshold are reported as censored rather
    than failing.
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
