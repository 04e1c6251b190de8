"""Command-line experiment harness.

Subcommands:
  generate      build a synthetic system and write it to a system file
  solve         run one or more solvers, write per-trial telemetry CSVs
  bounds        evaluate bound curves for a system, write curve CSVs
  netlib-prep   parse an MPS file and write the stacked, normalized system
  timing        mean time/iterations to a residual threshold, solver vs solver

solve, bounds and timing read their system only from --system, a file
written by generate or netlib-prep. solve computes its trials in one
worker process per CPU it may run on (os.sched_getaffinity), at most one per
trial, forked once per invocation so that they share the loaded system, not
a pickled copy; taskset limits them. Each solver's seed-independent head
(see `solvers`) is one task, and each trial's continuation another, started
once its head is done; both return a `solvers.RunResult`. The worker that
computes a trial also writes its telemetry CSV, into a temporary directory
in --out; the parent writes summary.csv there from the trials' results and
moves every file into place in (solver, trial) order, summary.csv last,
once every trial succeeded. No task starts past a failure known earlier in
that order. With one worker, or no os.sched_getaffinity, the tasks run in
the parent, starting no process and no thread. timing stays serial: it
measures process time. No command splits a gemv between threads as
`solvers.run` may: solve's tasks call `solvers._head` and `_continue`,
and timing `solvers.time_to_threshold`. Like solve, bounds and timing print their lines
only once every file is written, so a closed stdout costs no file. Every
command runs numpy's bundled OpenBLAS at one thread with no pool, as the
workers then do, and restores the caller's count on return, so no output
depends on that count; with another BLAS, main leaves the count as it is.

Every flag can also come from one `key = value` config file, given as
--config PATH or --config=PATH. Each line becomes a `--key=value` flag ahead of
the command-line flags, so it passes the same type, choice and required checks
as a typed flag, and a flag on the command line, spelled in full, overrides it.
`solver` takes a comma list; `empirical-gamma` takes true/false/1/0/yes/no.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.

The harness only measures and emits CSV artifacts; no inequality checking
happens here (the test suite owns the assertions).
"""

import argparse
import csv
import ctypes
import dataclasses
import functools
import itertools
import multiprocessing
import os
import shutil
import sys
import tempfile
import warnings
from concurrent import futures
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import linalg, solvers, systems
from . import mps as mps_mod

CONFIG_ERROR = 2
NUMERICAL_ERROR = 3

MADV_POPULATE_WRITE = 23  # <sys/mman.h>, Linux

COMMANDS = ("generate", "solve", "bounds", "netlib-prep", "timing")

CONFIG_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _read_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a config file ({exc})") from None
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _config_flags(argv: list[str]) -> list[str]:
    """Expand one --config file (`--config PATH` or `--config=PATH`) into
    `--key=value` flags placed right after the subcommand, ahead of the typed
    flags: argparse checks each config value as it checks a typed flag, and a
    typed scalar flag, parsed later, wins. A key whose flag is typed is
    dropped, so the append flag --solver is not doubled. Only `bounds` has the
    store_true flag --empirical-gamma; elsewhere its key fails as unknown.
    An argv that does not start with a subcommand is left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return argv
    command = argv[:1]
    argv = [t for arg in argv[1:] for t in (arg.split("=", 1) if arg.startswith("--config=") else [arg])]
    if argv.count("--config") > 1:
        raise ValueError("--config may be given only once")
    if "--config" not in argv:
        return command + argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise ValueError("--config requires a path")
    cfg = _read_config(argv[at + 1])
    argv = argv[:at] + argv[at + 2:]
    flags = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if any(arg == flag or arg.startswith(flag + "=") for arg in argv):
            continue
        if key == "solver":  # a comma list, one append flag per name
            flags += [f"{flag}={name.strip()}" for name in value.split(",")]
        elif key == "empirical_gamma" and command == ["bounds"]:
            if value.lower() not in CONFIG_BOOLEANS:
                raise ValueError(f"config key {key!r} takes true/false/1/0/yes/no, got {value!r}")
            flags += [flag] if CONFIG_BOOLEANS[value.lower()] else []
        else:
            flags.append(f"{flag}={value}")
    return command + flags + argv


def _check_run_flags(args) -> None:
    """Reject a repeated solver, or a trial count or seed range that would
    fail part-way through."""
    for name in args.solver:
        if args.solver.count(name) > 1:
            raise ValueError(f"--solver {name} is given more than once")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    for seed in (args.seed, args.seed + args.trials - 1):
        systems.check_seed(seed)


def _resolve_threshold(value: float | None, sys_: systems.LinearSystem) -> float:
    """The flag's value, else 4*||e||_inf of the system file's reference."""
    return 4.0 * sys_.error_inf() if value is None else value


# --------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    sys_ = systems.generate(systems.GeneratorSpec(
        kind=args.kind, m=args.m, n=args.n, noise_std=args.noise_std,
        spike_count=args.spike_count, spike_magnitude=args.spike_magnitude,
        row_mean=args.row_mean, row_std=args.row_std, seed=args.seed))
    systems.save_system(args.out, sys_)
    print(f"m={sys_.m} n={sys_.n} error_inf={sys_.error_inf():.8g} sigma_min={sys_.singular_values[-1]:.8g}")
    print(f"wrote {args.out}")
    return 0


def cmd_solve(args) -> int:
    _check_run_flags(args)
    sys_ = systems.load_system(args.system)
    stop = solvers.StopRule(max_iterations=args.max_iterations,
                            residual_inf_threshold=args.stop_residual_inf)
    rules = [solvers.SelectionRule(name, _resolve_threshold(args.hybrid_threshold, sys_))
             if name == "hybrid" else solvers.SelectionRule(name) for name in args.solver]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1  # not on macOS, Windows
    jobs = min(cpus, len(rules) * args.trials)
    seeds = range(args.seed, args.seed + args.trials)
    out = Path(args.out)
    made = [path for path in (out, *out.parents) if not path.exists()]  # removed again on failure
    out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".solve-", dir=out))
    try:
        if jobs == 1:
            results, caught = _solve_trials(functools.partial(_inline, sys_), rules, stop, seeds, tmp)
        else:
            with futures.ProcessPoolExecutor(jobs, multiprocessing.get_context("fork"),
                                             _adopt, (sys_,)) as pool:
                results, caught = _solve_trials(functools.partial(pool.submit, _in_worker),
                                                rules, stop, seeds, tmp)
            _rewrite_heap()
        with open(tmp / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["solver", "trial", "iterations", "final_error_sq", "stop_reason"])
            for (rule, trial), result in zip(itertools.product(rules, range(args.trials)), results):
                diff = result.x - sys_.reference
                writer.writerow([rule.kind, trial, result.iteration, repr(float(np.dot(diff, diff))),
                                 result.stop_reason])
    except BaseException:  # no file of this invocation stays, and none is replaced
        shutil.rmtree(tmp)
        for path in made:
            path.rmdir()
        raise
    names = [f"{rule.kind}_trial{trial}.csv" for rule in rules for trial in range(args.trials)]
    for name in [*names, "summary.csv"]:  # summary.csv last
        os.replace(tmp / name, out / name)
    tmp.rmdir()
    for warning in caught:
        warnings.warn_explicit(*warning)
    for name in [*names, "summary.csv"]:
        print(f"wrote {out / name}")
    return 0


def _solve_trials(submit, rules, stop, seeds, tmp):
    """Every solver's `_head_task`, then each trial's `_trial_task` once its
    head is done, through `submit(task, *args)`, a future of `_task`: heads
    done together in --solver order, and no task past a failure known in
    (solver, trial) order, where a head's failure is its trial 0's. Returns
    the trials' `RunResult`s and the warnings caught, once each, in that
    order; raises its first failure, an overflow named by its trial, and
    cancels the pending tasks."""
    # keys (solver, trial, is_trial): a head sorts before its trials
    tasks = {(at, 0, False): submit(_head_task, rule, stop) for at, rule in enumerate(rules)}
    waiting, failure = dict(enumerate(tasks.values())), (len(rules),)  # failure: the first failed key known
    while waiting:
        futures.wait(waiting.values(), return_when=futures.FIRST_COMPLETED)
        failure = min([failure, *(key for key, task in tasks.items() if task.done() and task.exception())])
        for at in [at for at, head in waiting.items() if head.done()]:  # in --solver order
            head = waiting.pop(at)
            for trial, seed in enumerate(seeds):
                if failure < (at, trial, True):
                    break
                task = tasks[at, trial, True] = submit(_trial_task, rules[at], stop, head.result()[0], seed,
                                                       tmp / f"{rules[at].kind}_trial{trial}.csv")
                if task.done() and task.exception():  # an inline task is done at once
                    failure = (at, trial, True)
    caught = {}
    try:
        for at, trial, is_trial in sorted(tasks):
            try:
                caught.update(dict.fromkeys(tasks[at, trial, is_trial].result()[1]))
            except OverflowError as exc:
                raise OverflowError(f"{rules[at].kind} trial {trial}: {exc}") from exc
    finally:
        for task in tasks.values():  # only tasks after a failure can still be pending
            task.cancel()
    return [tasks[key].result()[0] for key in sorted(tasks) if key[2]], list(caught)


def _head_task(sys_, rule, stop):
    """`solvers._head` from x_0 = 0, with its records formatted once, as the
    text that each trial's file repeats."""
    head = solvers._head(sys_, rule, stop, np.zeros(sys_.n), telemetry=True)
    return dataclasses.replace(head, records=solvers.telemetry_rows(head.records))


def _trial_task(sys_, rule, stop, head, seed, path):
    """One trial, `solvers._continue` from the head, written to `path`;
    returns its `RunResult` without the records it wrote."""
    result = solvers._continue(sys_, rule, stop, head, seed, telemetry=True)
    solvers.write_telemetry_csv(path, result.records, head.records)
    return dataclasses.replace(result, records=[])


def _task(fn, sys_, *args):
    """fn(sys_, *args) and the warnings it raised, as warn_explicit's
    arguments: a worker's warnings do not reach the parent's filters, so
    the parent re-emits them, and only once the solve succeeded."""
    with warnings.catch_warnings(record=True) as caught:
        value = fn(sys_, *args)
    return value, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _inline(sys_, fn, *args):
    """A done future of `_task(fn, sys_, *args)`, run on this thread."""
    future = futures.Future()
    try:
        future.set_result(_task(fn, sys_, *args))
    except Exception as exc:  # raised again, as a worker's would be, by future.result()
        future.set_exception(exc)
    return future


def _rewrite_heap() -> None:
    """Make the heap writable again once the workers have exited. A fork
    write-protects every page the parent had, and each stays protected
    until the parent's next write to it traps. The next stage that runs in
    this process reuses the freed heap page by page: in the benchmark,
    `bounds` after a 10000x100 `solve` took about 1.5k such traps, 2 us
    each on a 2-core Xeon VM. One madvise(MADV_POPULATE_WRITE), Linux 5.14
    and later, takes them in the kernel at once; where it or /proc is
    missing, only that cost stays."""
    try:
        with open("/proc/self/maps") as fh:
            spans = [line.split()[0] for line in fh if line.rstrip().endswith(" [heap]")]
    except OSError:
        return
    madvise = ctypes.CDLL(None).madvise
    madvise.argtypes, madvise.restype = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int], ctypes.c_int
    for span in spans:
        start, end = (int(address, 16) for address in span.split("-"))
        madvise(start, end - start, MADV_POPULATE_WRITE)  # on failure the traps stay, nothing else


_system = None  # set only in a forked worker, by _adopt: the system the fork handed over


def _adopt(sys_):
    global _system
    _system = sys_


def _in_worker(fn, *args):
    return _task(fn, _system, *args)


def cmd_bounds(args) -> int:
    if args.empirical_gamma and not args.telemetry:
        raise ValueError("--empirical-gamma requires --telemetry")
    sys_ = systems.load_system(args.system)
    inputs = bounds_mod.bound_inputs_from_system(sys_)
    if args.telemetry:
        records = solvers.read_telemetry_csv(args.telemetry)
        # gammas stop at the first record without one, so each stays at its k
        gammas = itertools.takewhile(lambda g: g is not None, (r.gamma for r in records))
        try:  # the system's own inputs passed above, so a failure here is the telemetry's
            inputs = dataclasses.replace(inputs, gamma_seq=tuple(gammas))
        except ValueError as exc:
            raise ValueError(f"{args.telemetry}: {exc}") from None
    k = args.iterations
    curves = {
        "rk_bound.csv": bounds_mod.rk_bound(inputs, k),
        "motzkin_worst_case.csv": bounds_mod.motzkin_bound_worst_case(inputs, k),
        "gaussian_rate.csv": bounds_mod.gaussian_rate_bound(inputs, k, conjectured=False),
        "gaussian_rate_conjectured.csv": bounds_mod.gaussian_rate_bound(inputs, k, conjectured=True),
    }
    if inputs.gamma_seq is not None:
        k_emp = min(k, len(inputs.gamma_seq))
        curves["motzkin_empirical_gamma.csv"] = bounds_mod.motzkin_bound_empirical_gamma(inputs, k_emp)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for filename, curve in curves.items():
        bounds_mod.write_curves_csv(out / filename, [curve])
    for filename in curves:
        print(f"wrote {out / filename}")
    return 0


def cmd_netlib_prep(args) -> int:
    problem = mps_mod.load_mps(args.mps)
    A, b = mps_mod.extract_system(problem)
    spec = mps_mod.TransformSpec(noise_std=args.noise_std, seed=args.seed)
    try:
        sys_ = mps_mod.overdetermine(A, b, spec)
    except linalg.RankError as exc:  # only the constraint block can lack rank
        row = problem.constraint_rows()[exc.index]
        raise linalg.RankError(f"MPS row {problem.row_names[row]} declared at line "
                               f"{problem.row_lines[row]}: {exc}", exc.index) from exc
    systems.save_system(args.out, sys_)
    print(f"problem={problem.name or Path(args.mps).stem} constraints={A.shape[0]}x{A.shape[1]} "
          f"stacked={sys_.m}x{sys_.n} error_inf={sys_.error_inf():.8g}")
    print(f"wrote {args.out}")
    return 0


def cmd_timing(args) -> int:
    _check_run_flags(args)
    sys_ = systems.load_system(args.system)
    threshold = _resolve_threshold(args.threshold, sys_)
    problem = Path(args.system).stem
    summaries = {name: solvers.time_to_threshold(sys_, solvers.SelectionRule(name), threshold, args.trials,
                                                 seed=args.seed, max_iterations=args.max_iterations)
                 for name in args.solver}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "timing.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "solver", "mean_seconds", "mean_iterations", "trials", "censored"])
        writer.writerows([problem, name, f"{s.mean_seconds:.6f}", f"{s.mean_iterations:.2f}", s.trials,
                          s.censored] for name, s in summaries.items())
    for name, s in summaries.items():
        print(f"{problem} {name}: mean_iterations={s.mean_iterations:.2f} "
              f"mean_seconds={s.mean_seconds:.4f} censored={s.censored}/{s.trials}")
    print(f"wrote {path}")
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, every subcommand attached, so that usage, help and error texts read as
    the full parser's; given one of COMMANDS, only that subcommand gets its arguments."""
    # no prefix matching: _config_flags recognizes flags by their full names
    parser = argparse.ArgumentParser(prog="rowaction", allow_abbrev=False,
                                     description="Row-action solver experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help_):  # the subparser, if it gets its arguments
        p = sub.add_parser(name, allow_abbrev=False, help=help_)
        return p if command not in COMMANDS or command == name else None

    if p := subcommand("generate", "generate a synthetic system file"):
        p.add_argument("--kind", choices=systems.GENERATOR_KINDS, required=True)
        p.add_argument("--m", type=int, default=2000)
        p.add_argument("--n", type=int, default=50)
        p.add_argument("--noise-std", type=float, default=1.0)
        p.add_argument("--spike-count", type=int, default=0)
        p.add_argument("--spike-magnitude", type=float, default=0.0)
        p.add_argument("--row-mean", type=float, default=1.0)
        p.add_argument("--row-std", type=float, default=0.5)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_generate)

    if p := subcommand("solve", "run solvers and write telemetry CSVs"):
        p.add_argument("--system", required=True, help="system file written by generate or netlib-prep")
        p.add_argument("--solver", action="append", choices=solvers.SELECTION_KINDS, default=None)
        p.add_argument("--max-iterations", type=int, default=1000)
        p.add_argument("--stop-residual-inf", type=float, default=None)
        p.add_argument("--hybrid-threshold", type=float, default=None)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", default=".")
        p.set_defaults(func=cmd_solve)

    if p := subcommand("bounds", "evaluate bound curves for a system"):
        p.add_argument("--system", required=True)
        p.add_argument("--iterations", type=int, default=200)
        p.add_argument("--telemetry", help="telemetry CSV supplying the empirical gamma sequence")
        p.add_argument("--empirical-gamma", action="store_true",
                       help="require the empirical-gamma curve (errors without --telemetry)")
        p.add_argument("--out", default=".")
        p.set_defaults(func=cmd_bounds)

    if p := subcommand("netlib-prep", "MPS file to stacked system file"):
        p.add_argument("--mps", required=True)
        p.add_argument("--noise-std", type=float, default=1e-6)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_netlib_prep)

    if p := subcommand("timing", "mean time/iterations to a residual threshold"):
        p.add_argument("--system", required=True,
                       help="system file written by generate or netlib-prep; its stem labels the rows")
        p.add_argument("--threshold", type=float, default=None,
                       help="residual sup-norm target; defaults to 4*||e||_inf of the reference")
        # hybrid needs a switch threshold, which timing has no flag for
        p.add_argument("--solver", action="append", choices=("motzkin", "rk-uniform"), default=None)
        p.add_argument("--trials", type=int, default=10)
        p.add_argument("--max-iterations", type=int, default=200_000)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", default=".")
        p.set_defaults(func=cmd_timing)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv else None)
    openblas = linalg.bundled_openblas()  # None with another BLAS, whose count main leaves as it is
    threads = linalg.blas_threads()
    try:
        args = parser.parse_args(_config_flags(argv))
        if args.command == "solve" and args.solver is None:
            args.solver = ["motzkin"]
        if args.command == "timing" and args.solver is None:
            args.solver = ["motzkin", "rk-uniform"]
        if openblas is not None:
            openblas.scipy_openblas_set_num_threads64_(1)
            if hasattr(openblas, "blas_thread_shutdown_"):
                openblas.blas_thread_shutdown_()  # at one thread no later call starts a pool
        return args.func(args)
    except SystemExit as exc:  # argparse reports its own errors on stderr
        return int(exc.code or 0)
    except (linalg.RankError, systems.DegenerateRowError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    finally:  # the caller's count back
        if openblas is not None:
            openblas.scipy_openblas_set_num_threads64_(threads)


if __name__ == "__main__":
    raise SystemExit(main())
