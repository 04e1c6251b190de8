"""Command-line experiment harness.

Subcommands:
  generate      build a synthetic system and write it to a system file
  solve         run one or more solvers, write per-trial telemetry CSVs
  bounds        evaluate bound curves for a system, write curve CSVs
  netlib-prep   parse an MPS file and write the stacked, normalized system
  timing        mean time/iterations to a residual threshold, solver vs solver

solve, bounds and timing read their system only from --system, a file
written by generate or netlib-prep.

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
import itertools
import shutil
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import linalg, solvers, systems
from . import mps as mps_mod

CONFIG_ERROR = 2
NUMERICAL_ERROR = 3

COMMANDS = ("generate", "solve", "bounds", "netlib-prep", "timing")

CONFIG_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _read_config(path: str) -> dict[str, str]:
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
        systems.make_rng(seed)


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
    out = Path(args.out)
    summary_rows = []
    seeds = range(args.seed, args.seed + args.trials)
    for rule in rules:
        name = rule.kind
        results = solvers.run_trials(sys_, rule, stop, seeds)
        for trial in range(args.trials):
            try:
                result = next(results)
            except OverflowError as exc:
                raise OverflowError(f"{name} trial {trial}: {exc}") from exc
            out.mkdir(parents=True, exist_ok=True)  # only once there is a file to write
            path = out / f"{name}_trial{trial}.csv"
            if name == "motzkin" and trial:
                # a motzkin run ignores its seed, so every trial has trial 0's rows
                shutil.copyfile(out / "motzkin_trial0.csv", path)
            else:
                solvers.write_telemetry_csv(path, result.records)
            diff = result.state.x - sys_.reference
            summary_rows.append([name, trial, result.state.iteration,
                                 repr(float(np.dot(diff, diff))), result.stop_reason])
            print(f"wrote {path}")
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "trial", "iterations", "final_error_sq", "stop_reason"])
        writer.writerows(summary_rows)
    print(f"wrote {out / 'summary.csv'}")
    return 0


def cmd_bounds(args) -> int:
    sys_ = systems.load_system(args.system)
    if args.empirical_gamma and not args.telemetry:
        raise ValueError("--empirical-gamma requires --telemetry")
    gamma_seq = None
    if args.telemetry:
        records = solvers.read_telemetry_csv(args.telemetry)
        # gammas stop at the first record without one, so each stays at its k
        gamma_seq = list(itertools.takewhile(lambda g: g is not None, (r.gamma for r in records)))
    inputs = bounds_mod.bound_inputs_from_system(sys_, gamma_seq=gamma_seq)
    k = args.iterations
    curves = {
        "rk_bound.csv": bounds_mod.rk_bound(inputs, k),
        "motzkin_worst_case.csv": bounds_mod.motzkin_bound_worst_case(inputs, k),
        "gaussian_rate.csv": bounds_mod.gaussian_rate_bound(inputs, k, conjectured=False),
        "gaussian_rate_conjectured.csv": bounds_mod.gaussian_rate_bound(inputs, k, conjectured=True),
    }
    if gamma_seq is not None:
        k_emp = min(k, len(gamma_seq))
        curves["motzkin_empirical_gamma.csv"] = bounds_mod.motzkin_bound_empirical_gamma(inputs, k_emp)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for filename, curve in curves.items():
        bounds_mod.write_curves_csv(out / filename, [curve])
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
    rows = []
    for name in args.solver:
        summary = solvers.time_to_threshold(sys_, solvers.SelectionRule(name), threshold, args.trials,
                                            seed=args.seed, max_iterations=args.max_iterations)
        rows.append([problem, name, f"{summary.mean_seconds:.6f}",
                     f"{summary.mean_iterations:.2f}", summary.trials, summary.censored])
        print(f"{problem} {name}: mean_iterations={summary.mean_iterations:.2f} "
              f"mean_seconds={summary.mean_seconds:.4f} censored={summary.censored}/{summary.trials}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "timing.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "solver", "mean_seconds", "mean_iterations", "trials", "censored"])
        writer.writerows(rows)
    print(f"wrote {path}")
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: _config_flags recognizes flags by their full names
    parser = argparse.ArgumentParser(prog="rowaction", allow_abbrev=False,
                                     description="Row-action solver experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", allow_abbrev=False, help="generate a synthetic system file")
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

    p = sub.add_parser("solve", allow_abbrev=False, help="run solvers and write telemetry CSVs")
    p.add_argument("--system", required=True, help="system file written by generate or netlib-prep")
    p.add_argument("--solver", action="append", choices=solvers.SELECTION_KINDS, default=None)
    p.add_argument("--max-iterations", type=int, default=1000)
    p.add_argument("--stop-residual-inf", type=float, default=None)
    p.add_argument("--hybrid-threshold", type=float, default=None)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bounds", allow_abbrev=False, help="evaluate bound curves for a system")
    p.add_argument("--system", required=True)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--telemetry", help="telemetry CSV supplying the empirical gamma sequence")
    p.add_argument("--empirical-gamma", action="store_true",
                   help="require the empirical-gamma curve (errors without --telemetry)")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("netlib-prep", allow_abbrev=False, help="MPS file to stacked system file")
    p.add_argument("--mps", required=True)
    p.add_argument("--noise-std", type=float, default=1e-6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_netlib_prep)

    p = sub.add_parser("timing", allow_abbrev=False, help="mean time/iterations to a residual threshold")
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
    parser = build_parser()
    try:
        args = parser.parse_args(_config_flags(argv))
        if args.command == "solve" and args.solver is None:
            args.solver = ["motzkin"]
        if args.command == "timing" and args.solver is None:
            args.solver = ["motzkin", "rk-uniform"]
        return args.func(args)
    except SystemExit as exc:  # argparse reports its own errors on stderr
        return int(exc.code or 0)
    except (linalg.RankError, systems.DegenerateRowError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
