"""Per-iteration microbenchmarks at a workload's shape.

They split one solver iteration into the parts the run loop performs and
time each through the library's public functions, so later changes to the
residual, the selection rules, the projection or the telemetry can quote
before/after numbers from the same benchmark output.
"""

import statistics
import time

from rowaction import linalg, solvers, systems

BATCH_SECONDS = 0.005
BATCHES = 25
RUN_REPEATS = 9


def per_call_us(fn) -> float:
    """Median over BATCHES timed batches of the per-call time of fn(), in µs.
    The batch size is calibrated so one batch lasts about BATCH_SECONDS."""
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= BATCH_SECONDS:
            break
        calls *= 2
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples) * 1e6


def microbenchmarks(system: systems.LinearSystem, run_iterations: int, seed: int) -> dict[str, float]:
    """Time the parts of one iteration on `system`; `run_iterations` sizes the
    whole-run measurement, which uses Motzkin selection with and without the
    reference solution (without it the loop records no gamma or error)."""
    noref = systems.LinearSystem(system.a, system.b)
    x = solvers.run(system, solvers.SelectionRule("motzkin"), solvers.StopRule(5)).state.x
    r = system.residual(x)
    i = solvers.select_motzkin(r)
    rng = systems.make_rng(seed)
    m = system.m
    fixed = solvers.StopRule(run_iterations)
    motzkin = solvers.SelectionRule("motzkin")

    out = {
        "solvers.residual.us": per_call_us(lambda: system.residual(x)),
        "linalg.norm_inf.us": per_call_us(lambda: linalg.norm_inf(r)),
        "solvers.select_motzkin.us": per_call_us(lambda: solvers.select_motzkin(r)),
        "solvers.rk_draw.us": per_call_us(lambda: int(rng.integers(m))),
        "solvers.project_step.us": per_call_us(lambda: solvers.project_step(system, x, i)),
    }
    out["solvers.run.us_per_iter.ref"], out["solvers.run.us_per_iter.noref"] = _run_us_per_iter(
        [lambda: solvers.run(system, motzkin, fixed), lambda: solvers.run(noref, motzkin, fixed)],
        run_iterations)
    # Bytes the residual's matrix-vector product touches, computed from the
    # shape; the matrix is cache-resident on the measured machines, so this is
    # an L3 rate, not a DRAM bandwidth.
    out["solvers.residual.gbps"] = system.m * system.n * 8 / out["solvers.residual.us"] / 1e3
    out["solvers.telemetry.us"] = out["solvers.run.us_per_iter.ref"] - out["solvers.run.us_per_iter.noref"]
    return out


def _run_us_per_iter(fns, iterations: int) -> list[float]:
    """Median µs per iteration of each whole run in `fns`, timed in turn so
    that a drift in machine speed hits them alike."""
    samples = [[] for _ in fns]
    for _ in range(RUN_REPEATS):
        for fn, times in zip(fns, samples):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return [statistics.median(times) / iterations * 1e6 for times in samples]
