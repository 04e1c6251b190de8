"""Row-action iteration engine.

One iteration projects the current iterate onto the solution hyperplane of a
single selected equation. With unit-norm rows the projection is

    x'  =  x + (b_i - a_i . x) a_i

and the selection rule is what distinguishes the methods:

  motzkin      pick the row with the largest residual entry |r_i|
               (ties broken to the smallest index),
  rk-uniform   pick uniformly at random (on unit rows this is also the
               norm-weighted draw of randomized Kaczmarz),
  hybrid       motzkin until the residual sup norm first drops to the
               configured threshold, then rk-uniform for good (the switch
               is one-way even if the residual later grows back).

Two loops perform every run, `_head`'s step-by-step greedy loop and a
blocked loop for uniform selection, and each returns a RunResult. A hybrid
run is a greedy prefix, stopped at the switch, plus a uniform continuation
from the switch iterate. The greedy rule never draws from the RNG, so a run
splits into a seed-independent head (`_head`: the motzkin run, a hybrid's
greedy prefix, or x_0 at k = 0 for rk-uniform) and one continuation per seed
(`_continue`), each a RunResult. `run` and `time_to_threshold` compute one
head and one continuation per solve. `solve` computes each solver's head
once and runs every trial's continuation from it, as tasks in forked worker
processes or inline (see `cli`); each continuation has its own RNG and
buffers, so its bits do not depend on the process that ran it.

Each performed iteration emits one IterationRecord, a named tuple whose
fields are the telemetry CSV columns, measured at the iterate *before* the
update, so record k describes x_k and the step producing x_{k+1}. Stopping
rules are checked against the same pre-update residual, and each residual's
sup norm is taken once, for the stop test and the record alike: a greedy
step reads it as the |r_i| it selects. `time_to_threshold` times solves that
record no telemetry, so its seconds measure the solver alone.

Both loops buffer a block of iterates, and with telemetry `_records` turns
each block and its residuals into records. A step is one `a[i]`, one `.dot`,
one scaling of a_i into a reused vector and one add into a row view of the
buffer, with b_i a Python float; lists of A's rows and of b would hold
1.4 MB at 10000x100 for a whole solve and raise its peak RSS. A greedy step
selects by `abs(r).argmax()`, into one reused vector, from the residual its
own gemv takes, or without telemetry on an A of more than SCREEN_BYTES by
`linalg.largest_residual`'s float32 screen until it stops paying (see
`_head`). Uniform steps run in blocks, whose rows one RNG call draws and
whose b_i one gather takes. With telemetry `linalg.residuals` gives all
their residuals with the bits of `A @ x - b`, reading each cache-sized slab
of A once for the whole block, so a uniform block keeps BLOCK_STEPS steps
up to 16384 rows (at most 8 MB of residuals), while a greedy block, whose
steps take their own gemvs, holds at most 256 KB of them; without, only a
threshold needs any, and `linalg.witness_screen` shows most iterates above
it from a few witness rows. Either way the count, the stop reason, x and
the records equal, bit for bit, those of a loop of one step, one
`A @ x - b` and one record at a time; only the RNG and a uniform block's
iterates run up to a block past the stop point, which nothing exposes. The
screens and why they keep the bits are `linalg`'s; this module sets when.

`run` alone splits its gemvs between two threads (`linalg.in_halves`):
on an A of more than SCREEN_BYTES, when the process may run on two CPUs
and numpy's bundled OpenBLAS runs one thread, it opens one helper thread
(`_helper`) and shuts it down before it returns or raises. Each greedy
step's `A @ x - b` splits at the middle 64-row window, and each telemetry
block's `linalg.residuals` at the middle slab, with every bit kept.
`time_to_threshold` never splits: its process time would count both
threads. Nor do `solve`'s tasks, which run one worker per CPU already
(see `cli`). At 10000x100 the split took rk-uniform telemetry solves to
x0.61 of the time and motzkin ones to x0.70; one vCPU, a BLAS pool, or for
greedy steps an A within one core's L2, make it a loss (README, and
BENCH_row_split.json).
"""

import contextlib
import csv
import math
import os
import time
from concurrent import futures
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .systems import LinearSystem, check_seed, make_rng

SELECTION_KINDS = ("motzkin", "rk-uniform", "hybrid")

STOP_RESIDUAL_THRESHOLD = "residual-threshold"
STOP_MAX_ITERATIONS = "max-iterations"

# steps per block of a uniform solve, and at most per telemetry block
BLOCK_STEPS = 64
# residual entries per telemetry block (float64), which `_block_steps` turns
# into steps: 256 KB for greedy steps, whose every step takes its own gemv,
# and 8 MB for uniform ones, so that each slab of `linalg.residuals` serves
# BLOCK_STEPS iterates up to 16384 rows
BLOCK_ENTRIES = 32768
UNIFORM_BLOCK_ENTRIES = 2**20
# telemetry rows per write of `write_telemetry_csv` (about 30 KB of text)
CSV_CHUNK_ROWS = 256
# bytes of A (1.625 MiB) above which telemetry-off greedy steps take a float32 screen:
# no reliable gain up to 1.53 MiB, faster from 1.72 MiB on in two sweeps (BENCH_greedy_screen.json);
# and above which `run` splits its gemvs with a helper thread (BENCH_row_split.json)
SCREEN_BYTES = 13 * 2**17


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
        if self.residual_inf_threshold is not None and not self.residual_inf_threshold >= 0:
            raise ValueError("residual_inf_threshold must be nonnegative")


class IterationRecord(NamedTuple):
    """One telemetry row; the fields are the CSV columns in order. gamma is
    None where A x_k = A x_ref, since the dynamic range has no value there."""

    k: int
    selected_row: int
    residual_inf: float
    residual_2sq: float
    gamma: float | None
    error_sq: float
    selected_residual_sq: float


TELEMETRY_COLUMNS = IterationRecord._fields


@dataclass
class RunResult:
    """A run's last iterate x_k, its k, its records, why it stopped, and a hybrid's switch k."""

    x: np.ndarray
    iteration: int
    records: list[IterationRecord]
    stop_reason: str
    switch_iteration: int | None = None

    @property
    def state(self) -> "RunResult":
        """The result itself, as perfbench/ reads it; goes once perfbench/ reads `.x` and `.iteration`."""
        return self


def select_motzkin(r) -> int:
    """Index of the largest residual entry in absolute value, smallest index
    on ties. Nothing is squared, so no entry underflows or overflows."""
    return int(np.argmax(np.abs(np.asarray(r, dtype=float))))


def project_step(sys: LinearSystem, x, i: int) -> np.ndarray:
    """x + (b_i - a_i . x) a_i, x projected onto equation i's hyperplane (unit rows)."""
    if not 0 <= i < sys.m:
        raise IndexError(f"row index {i} out of range for {sys.m} rows")
    x, a_i = np.asarray(x, dtype=float), sys.a[i]
    return x + (sys.b.item(i) - a_i.dot(x)) * a_i


def run(sys: LinearSystem,
        rule: SelectionRule,
        stop: StopRule,
        x0=None,
        seed: int = 0) -> RunResult:
    """Iterate a selection rule until a stopping rule fires.

    Args:
        sys: row-normalized system; the telemetry records gamma (residual
            dynamic range) and the squared error against its reference.
        rule: row selection rule; hybrid switches motzkin -> rk-uniform the
            first time the residual sup norm is <= rule.hybrid_threshold.
        stop: iteration cap plus optional residual threshold. The threshold
            is checked before each update, so the returned state is the
            first iterate satisfying it.
        x0: starting iterate, zero vector by default.
        seed: RNG seed for the randomized rules (motzkin runs ignore it).

    Returns:
        RunResult with the final iterate and its k, one record per performed
        iteration, the stop reason, and the hybrid's switch k when it switched.
    """
    x = np.zeros(sys.n) if x0 is None else linalg.as_vector(x0).copy()
    if x.shape[0] != sys.n:
        raise ValueError(f"x0 length {x.shape[0]} does not match {sys.n} columns")
    with _helper(sys) as helper:
        head = _head(sys, rule, stop, x, telemetry=True, helper=helper)
        result = _continue(sys, rule, stop, head, seed, telemetry=True, helper=helper)
    result.records[:0] = head.records
    return result


def _helper(sys):
    """`run`'s helper thread, or none (see the module docstring)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if sys.a.nbytes > SCREEN_BYTES and cpus > 1 and linalg.blas_threads() == 1:
        return futures.ThreadPoolExecutor(1)
    return contextlib.nullcontext()


def _head(sys, rule, stop, x, telemetry, screen=None, helper=None):
    """The seed-independent part of a run from x_0 = x, with its records:
    the motzkin run, a hybrid's greedy prefix up to its switch or stop, or
    x_0 at k = 0 for rk-uniform. Its stop reason is the greedy loop's (None
    for rk-uniform); `_continue` tells a hybrid's switch from its stop.

    Each greedy step takes one `A @ x - b`, in halves with a `helper`, or
    `linalg.largest_residual` on `screen`, A's `screen_copies`, until that
    takes over a quarter of A exactly, where it no longer pays; the selected
    |r_i| is the sup norm that the stop test and the record read. Iterates
    and residuals go into block buffers, one step deep without telemetry;
    with it `_records` turns each full block into records, and the rest at
    the stop."""
    if rule.kind == "rk-uniform":
        return RunResult(x, 0, [], None)
    a, b, threshold, k, records = sys.a, sys.b, stop.residual_inf_threshold, 0, []
    if rule.kind == "hybrid":
        # residual <= hybrid threshold ends the prefix: a stop when the stop
        # threshold or the cap also holds there, else the switch
        threshold = max(threshold or 0.0, rule.hybrid_threshold)
    s = _block_steps(sys.m, BLOCK_ENTRIES) if telemetry else 1
    # x_k and its residual sit in row len(rows) of the buffers
    iterates, residuals, rows, levels = np.empty((s, sys.n)), np.empty((s, sys.m)), [], []
    iterates[0] = x
    xs, rs, abs_r, step = list(iterates), list(residuals), np.empty(sys.m), np.empty(sys.n)
    starts = linalg.row_windows(sys.m, 64)
    halves = [0, starts[len(starts) // 2], sys.m] if helper and len(starts) > 1 else None
    while True:
        if screen is None:
            r = rs[len(rows)]
            if halves:
                linalg.in_halves(helper, halves, lambda lo, hi: np.subtract(
                    np.matmul(a[lo:hi], x, out=r[lo:hi]), b[lo:hi], out=r[lo:hi]))
            else:
                np.subtract(np.matmul(a, x, out=r), b, out=r)
            i = int(np.abs(r, out=abs_r).argmax())  # select_motzkin(r)
            level = abs_r.item(i)
        else:
            i, level, exact = linalg.largest_residual(a, b, x, screen)
            if 4 * exact > sys.m:  # the float32 half and this much cost about a full gemv
                screen = None
        if threshold is not None and level <= threshold:
            reason = STOP_RESIDUAL_THRESHOLD
            break
        if k >= stop.max_iterations:
            reason = STOP_MAX_ITERATIONS
            break

        rows.append(i)
        levels.append(level)
        if len(rows) == s:
            if telemetry:
                _records(sys, len(records), iterates, residuals, rows, levels, records)
            rows, levels = [], []
        a_i = a[i]
        x = np.add(x, np.multiply(a_i, b.item(i) - a_i.dot(x), out=step), out=xs[len(rows)])
        k += 1
    if telemetry:
        _records(sys, len(records), iterates, residuals, rows, levels, records)
    return RunResult(x, k, records, reason)


def _continue(sys, rule, stop, head, seed, telemetry, helper=None):
    """The result of one seed: uniform steps from a `_head` result's iterate,
    none for motzkin. Its records are only those of its own steps, numbered
    on from the head's k; `run` puts the head's records in front of them."""
    if rule.kind == "motzkin":
        check_seed(seed)  # a bad seed fails for every rule
        return RunResult(head.x.copy(), head.iteration, [], head.stop_reason)
    result = _blocked_uniform(sys, head.x, head.iteration, stop, make_rng(seed), telemetry, helper)
    if rule.kind == "hybrid" and result.iteration > head.iteration:
        result.switch_iteration = head.iteration
    return result


def _block_steps(m, entries):
    """Steps per telemetry block on m rows: at most BLOCK_STEPS, and at most
    `entries` residual entries (BLOCK_ENTRIES for the greedy loop of `_head`,
    UNIFORM_BLOCK_ENTRIES for the uniform one) unless one step alone has more."""
    return min(BLOCK_STEPS, max(1, entries // m))


def _blocked_uniform(sys, x, k, stop, rng, telemetry, helper=None):
    """Iterate with uniform draws from x_k = x until `stop` fires, a block
    of steps at a time, starting from one `A @ x_k - b`, with one record per
    iteration under `telemetry`. Returns the RunResult of a copy of the
    final iterate; its records are those of its own steps.

    One `rng.integers(m, size=s)` call draws a block's s rows, the same
    values as s scalar draws. With telemetry, `linalg.residuals` puts the
    residuals of `_block_steps(m, UNIFORM_BLOCK_ENTRIES)` steps in a buffer
    whose row 0 alone comes from the start residual; their sup norms,
    max(|max r|, |min r|), need no copy and are +0.0 on a zero residual.
    Without, a block has BLOCK_STEPS steps, screened by `linalg.witness_screen`.
    """
    a, b, threshold, records = sys.a, sys.b, stop.residual_inf_threshold, []
    r = a @ x - b
    level = float(np.abs(r).max())
    if threshold is not None and level <= threshold:
        return RunResult(x.copy(), k, records, STOP_RESIDUAL_THRESHOLD)
    s = _block_steps(sys.m, UNIFORM_BLOCK_ENTRIES) if telemetry else BLOCK_STEPS
    # row 0 holds x_k and its residual, rows 1..s the block's iterates and theirs
    iterates = np.tile(x, (s + 1, 1))
    xs, step = list(iterates), np.empty(sys.n)
    residuals = None
    if telemetry:
        residuals = np.empty((s + 1, sys.m))
        residuals[0] = r
    witness, b_inf = [select_motzkin(r)], float(np.abs(b).max())
    while k < stop.max_iterations:
        steps = min(s, stop.max_iterations - k)
        drawn = rng.integers(sys.m, size=steps)
        x, rows = xs[0], drawn.tolist()
        for i, b_i, out in zip(rows, b[drawn].tolist(), xs[1:]):
            a_i = a[i]
            x = np.add(x, np.multiply(a_i, b_i - a_i.dot(x), out=step), out=out)
        hit = None
        if telemetry:
            block = linalg.residuals(a, b, iterates[1:steps + 1], residuals[1:steps + 1], helper)
            v = np.maximum(np.abs(block.max(axis=1)), np.abs(block.min(axis=1))).tolist()
            if threshold is not None:
                hit = next((j for j, v_j in enumerate(v, 1) if v_j <= threshold), None)
            _records(sys, k, iterates, residuals, rows[:hit], [level, *v], records)
            residuals[0], level = residuals[steps], v[-1]
        elif threshold is not None:
            hit = linalg.witness_screen(a, b, b_inf, iterates[:steps + 1], threshold, witness)
        if hit is not None:
            return RunResult(iterates[hit].copy(), k + hit, records, STOP_RESIDUAL_THRESHOLD)
        iterates[0] = iterates[steps]
        k += steps
    return RunResult(iterates[0].copy(), k, records, STOP_MAX_ITERATIONS)


def _records(sys, k, iterates, residuals, rows, levels, records):
    """Append to `records` the records of x_k, x_{k+1}, ..., one per selected
    row in `rows`, whose iterates, residuals A x - b and their sup norms lead
    `iterates`, `residuals` and `levels`; it overwrites those residual rows with
    A(x_j - reference). Each column has the bits of the step-by-step
    expression: the squared norms come from `linalg.row_norms_sq` (the dot
    kernel of `np.dot`), and gamma and the squares are Python-float
    arithmetic, which raises OverflowError where a square passes the float
    range; its message names the iteration and the square."""
    t = len(rows)
    r = residuals[:t]
    selected = r[np.arange(t), rows].tolist()
    r2s = linalg.row_norms_sq(r).tolist()
    d = np.subtract(r, sys.error_vec, out=r)  # A(x_j - reference), once r is read
    dds = linalg.row_norms_sq(d).tolist()
    d_infs = np.abs(d, out=d).max(axis=1).tolist()
    error_sqs = linalg.row_norms_sq(iterates[:t] - sys.reference).tolist()
    try:
        gammas = [dd / v ** 2 if v ** 2 > 0.0 else None for dd, v in zip(dds, d_infs)]
        records.extend(
            IterationRecord(k + j, i, v, r2, gamma, error_sq, r_i ** 2)
            for j, (i, v, r2, gamma, error_sq, r_i) in enumerate(zip(
                rows, levels, r2s, gammas, error_sqs, selected)))
    except OverflowError as exc:  # off the normal path: find the first square past the range
        for j, (d_inf, r_i) in enumerate(zip(d_infs, selected)):
            for column, term, value in (("gamma's denominator", "||A(x_k - reference)||_inf", d_inf),
                                        ("selected_residual_sq", "r_i", r_i)):
                if value * value == math.inf:
                    raise OverflowError(f"iteration {k + j}: {column}, the square of {term} = "
                                        f"{value!r}, passes the float range") from exc
        raise


@dataclass(frozen=True)
class TimingSummary:
    """Per-trial iteration counts and process times for one solver reaching a
    residual threshold; censored_mask marks trials that hit the cap instead."""

    iterations: list[int]
    seconds: list[float]
    censored_mask: list[bool]

    @property
    def trials(self) -> int:
        return len(self.iterations)

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


def _greedy_screen(sys, rule):
    """The `linalg.screen_copies` that `time_to_threshold`'s greedy steps
    read: for motzkin and hybrid on an A of more than SCREEN_BYTES, else None."""
    if rule.kind != "rk-uniform" and sys.a.nbytes > SCREEN_BYTES:
        return linalg.screen_copies(sys.a, sys.b)
    return None


def time_to_threshold(sys: LinearSystem,
                      rule: SelectionRule,
                      threshold: float,
                      trials: int,
                      seed: int = 0,
                      max_iterations: int = 1_000_000) -> TimingSummary:
    """Mean process time and iteration count to first reach a residual threshold.

    Runs `trials` independent solves with derived seeds (seed + t), each
    capped at max_iterations and timed on its own, recording no telemetry.
    A uniform solve screens each block of BLOCK_STEPS steps with
    `linalg.witness_screen`, and its RNG advances past the stop point, which
    nothing exposes. A motzkin or hybrid call on an A of more than
    SCREEN_BYTES casts A and b to float32 once (`_greedy_screen`) for
    `linalg.largest_residual`, outside every trial's seconds (the copy takes
    half of A's memory until the call returns); see `_head`.
    Trials that never reach the threshold are reported as censored.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    for s in (seed, seed + trials - 1):
        check_seed(s)
    iterations, seconds, censored_mask = [], [], []
    stop = StopRule(max_iterations=max_iterations, residual_inf_threshold=threshold)
    screen = _greedy_screen(sys, rule)
    for t in range(trials):
        t0 = time.process_time()
        head = _head(sys, rule, stop, np.zeros(sys.n), False, screen)
        result = _continue(sys, rule, stop, head, seed + t, telemetry=False)
        seconds.append(time.process_time() - t0)
        iterations.append(result.iteration)
        censored_mask.append(result.stop_reason != STOP_RESIDUAL_THRESHOLD)
    return TimingSummary(iterations=iterations, seconds=seconds, censored_mask=censored_mask)


# --------------------------------------------------------------------------
# telemetry CSV


def write_telemetry_csv(path, records: list[IterationRecord], rows: bytes = b"") -> None:
    """A TELEMETRY_COLUMNS header, then `rows`, the `telemetry_rows` of the
    records before `records`, then one row per record, in the bytes that
    `csv.writer` gives: each field as `str`, so a float as its repr, None as
    an empty field, and every line ended by \\r\\n. The rows are formatted as
    text and written CSV_CHUNK_ROWS to a `write`. Trials that share records
    pass their text as `rows`, so each shared row is formatted once."""
    with open(path, "wb") as fh:
        fh.write(",".join(TELEMETRY_COLUMNS).encode() + b"\r\n")
        fh.write(rows)
        fh.writelines(_row_chunks(records))


def telemetry_rows(records: list[IterationRecord]) -> bytes:
    """The rows that `write_telemetry_csv` writes for `records`."""
    return b"".join(_row_chunks(records))


def _row_chunks(records):
    for start in range(0, len(records), CSV_CHUNK_ROWS):
        chunk = records[start:start + CSV_CHUNK_ROWS]
        rows = "".join([f"{k},{i},{v!r},{r2!r},{gamma!r},{error_sq!r},{r_i_sq!r}\r\n"
                        for k, i, v, r2, gamma, error_sq, r_i_sq in chunk])
        yield rows.replace("None", "").encode()  # no number prints "None": each is a None field


def read_telemetry_csv(path) -> list[IterationRecord]:
    """Records of a telemetry CSV; blank rows are skipped, and a malformed
    row, an empty field other than gamma included, raises ValueError naming
    the path and the line. A file that is not UTF-8 text raises ValueError
    naming the path."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
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
                        float(gamma) if gamma else None, float(error_sq), float(selected_residual_sq)))
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a telemetry CSV ({exc})") from None
    return records
