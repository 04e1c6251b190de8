"""Print a sha256 digest of every file the rowaction CLI writes for a fixed
set of commands, to show that a change leaves its outputs byte-identical.

    PYTHONPATH=src python tools/digests.py --out DIR

runs, through `rowaction.cli.main` in this process and on a generated
2000x50 system and a netlib-prep one, `generate`, `netlib-prep`, `solve`
(three solvers, three trials: to the cap, to 4 ||e||_inf, and to
20 ||e||_inf with a hybrid switch at 8 ||e||_inf), `bounds --empirical-gamma`
and `timing` (to 4 ||e||_inf, and to ||e||_inf under a cap); on the 2000x50
system also `bounds --empirical-gamma` over 2000 iterations, the benchmark's
curve length. On a generated 10000x100 system it runs `generate`, `solve`
(three solvers, two trials, a cap of 200: to the cap and to 4 ||e||_inf),
`bounds --empirical-gamma` and `timing` (two trials), and the same on a
generated 4100x70 system with a cap of 300, raised to 3000 for the stop at
4 ||e||_inf so that randomized-Kaczmarz trials reach it; its residuals span
several slabs of `linalg.residuals` (the last one partial) in blocks of 7
steps. Last, `netlib-prep` at seeds 1 and 2 on the benchmark's banded
120x180 MPS file (band 61), written by `write_banded_mps` of
perfbench/workloads.py, and then the README's CLI examples, taken from it
by `readme_commands` of tests/test_readme.py and run as they are written in
DIR/readme, with tests/data linked in while they run. It writes under DIR,
which must be new or empty, and prints one `path sha256` line per file,
sorted, then `list sha256` over those lines. PYTHONPATH picks the tree
under test, so two trees compare by their list lines. timing.csv is
digested without its mean_seconds column, the one measured time among the
outputs. The run takes under ten seconds. Each `solve` forks one worker
per CPU of the process's affinity, at most one per trial, and none where os
has no `sched_getaffinity`; the list does not depend on their number, so
`taskset -c 0` prints the same list. With numpy's bundled OpenBLAS, which
every command runs at one thread (see `rowaction.cli`), it does not depend
on the thread count set in the environment either.
"""

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import os
import sys
from pathlib import Path

from rowaction import cli, systems

ROOT = Path(__file__).resolve().parents[1]
MPS = ROOT / "tests" / "data" / "bandm_style.mps"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
README_TESTS = ROOT / "tests" / "test_readme.py"


def run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(arg) for arg in argv])
    if code != 0:
        raise SystemExit(f"rowaction {' '.join(map(str, argv))} exited with {code}")


def write_outputs(out: Path) -> None:
    gauss, bandm, large, slabs = (out / f"{name}.sys" for name in ("gauss", "bandm", "large", "slabs"))
    for system, m, n in ((gauss, 2000, 50), (large, 10000, 100), (slabs, 4100, 70)):
        run("generate", "--kind", "gaussian-noise", "--m", m, "--n", n, "--noise-std", 0.01,
            "--seed", 1, "--out", system)
    run("netlib-prep", "--mps", MPS, "--seed", 5, "--out", bandm)
    for system in (gauss, bandm):
        e_inf = systems.load_system(system).error_inf()
        solve_and_bound(out, system, 3, 2000, [
            ("cap", []), ("stop", ["--stop-residual-inf", repr(4 * e_inf)]),
            ("switch", ["--stop-residual-inf", repr(20 * e_inf), "--hybrid-threshold", repr(8 * e_inf)])])
        # at ||e||_inf, where trials may reach the cap
        run("timing", "--system", system, "--threshold", repr(e_inf), "--trials", 3,
            "--max-iterations", 3000, "--seed", 1, "--out", out / f"timing-{system.stem}-censored")
    run("bounds", "--system", gauss, "--telemetry", out / "solve-gauss-cap" / "motzkin_trial0.csv",
        "--empirical-gamma", "--iterations", 2000, "--out", out / "bounds-gauss-2000")
    for system, cap, stop_cap in ((large, 200, 200), (slabs, 300, 3000)):
        e_inf = systems.load_system(system).error_inf()
        solve_and_bound(out, system, 2, cap, [
            ("cap", []), ("stop", ["--stop-residual-inf", repr(4 * e_inf), "--max-iterations", stop_cap])])
    banded = out / "banded.mps"
    load_module(WORKLOADS).write_banded_mps(banded, seed=1, rows=120, cols=180, band=61)
    for seed in (1, 2):
        run("netlib-prep", "--mps", banded, "--seed", seed, "--out", out / f"banded-{seed}.sys")
    readme = out / "readme"
    (readme / "tests").mkdir(parents=True)
    (readme / "tests" / "data").symlink_to(MPS.parent, target_is_directory=True)
    cwd = os.getcwd()
    os.chdir(readme)
    try:
        for argv in load_module(README_TESTS).readme_commands():
            run(*argv)
    finally:
        os.chdir(cwd)
        (readme / "tests" / "data").unlink()
        (readme / "tests").rmdir()


def load_module(path: Path):
    """The Python file at `path` as a module, imported by path without
    leaving a bytecode cache beside it."""
    spec = importlib.util.spec_from_file_location(f"digests_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
    return module


def solve_and_bound(out: Path, system: Path, trials: int, cap: int, variants) -> None:
    """`solve` with the three solvers once per (name, flags) variant, then
    `bounds` on motzkin's first trial of the first variant and `timing`.
    A variant's flags come last, so its own --max-iterations overrides `cap`."""
    name = system.stem
    for stop, flags in variants:
        run("solve", "--system", system, "--solver", "motzkin", "--solver", "rk-uniform",
            "--solver", "hybrid", "--trials", trials, "--max-iterations", cap, "--seed", 1,
            *flags, "--out", out / f"solve-{name}-{stop}")
    run("bounds", "--system", system, "--telemetry", out / f"solve-{name}-{variants[0][0]}" / "motzkin_trial0.csv",
        "--empirical-gamma", "--iterations", 200, "--out", out / f"bounds-{name}")
    run("timing", "--system", system, "--trials", trials, "--seed", 1, "--out", out / f"timing-{name}")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "timing.csv":  # without the measured seconds
        rows = list(csv.reader(io.StringIO(data.decode())))
        drop = rows[0].index("mean_seconds")
        buf = io.StringIO()
        csv.writer(buf).writerows([cell for i, cell in enumerate(row) if i != drop] for row in rows)
        data = buf.getvalue().encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 digests of the rowaction CLI's outputs")
    parser.add_argument("--out", required=True, type=Path, help="new or empty directory")
    args = parser.parse_args(argv)
    out = args.out
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    write_outputs(out)
    lines = sorted(f"{path.relative_to(out).as_posix()} {digest(path)}"
                   for path in out.rglob("*") if path.is_file())
    listing = "".join(f"{line}\n" for line in lines)
    print(listing, end="")
    print(f"list {hashlib.sha256(listing.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
