"""Workloads, the pipeline each one runs, and the checks on its outputs.

Every workload runs the same pipeline on inputs made from the seed:

  setup    `rowaction generate` or `rowaction netlib-prep`
  solve    motzkin, rk-uniform and hybrid, several trials, fixed iteration cap
  bounds   bound curves, empirical gamma from the motzkin trial-0 telemetry
  timing   motzkin vs rk-uniform to 4 * ||e||_inf
  tts      library solves `solvers.run(StopRule(cap, 4 * ||e||_inf))`, seeds seed + t

The stages go through `rowaction.cli.main` in this process, exactly as the
command line would run them; the tts solves call the library directly and
are timed one by one.
"""

import contextlib
import csv
import hashlib
import io
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rowaction import bounds, cli, mps, solvers, systems

NOISE_STD = 0.01           # gaussian-noise generator, as in the README example
TRANSFORM_NOISE_STD = 1e-6  # identity-stacking noise, the CLI default
TTS_CAP = 200_000          # the CLI timing default; no workload comes near it
TTS_PROBE_EVERY_S = 0.1
SOLVERS = ("motzkin", "rk-uniform", "hybrid")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup_reps: int      # setup stage repetitions; setup_s is their median
    solve_cap: int       # solve --max-iterations, bounds --iterations
    solve_trials: int
    timing_trials: int
    tts_motzkin: int     # library time-to-threshold solves per round
    tts_rk: int
    micro_iters: int     # iterations of the whole-run microbenchmark
    systems: int         # input systems per run, seeds seed * systems + k
    m: int = 0           # gaussian-noise shape
    n: int = 0
    mps_rows: int = 0    # banded MPS shape; stacked to (rows + cols) x cols
    mps_cols: int = 0
    mps_band: int = 0

    @property
    def shape(self) -> tuple[int, int]:
        if self.mps_rows:
            return self.mps_rows + self.mps_cols, self.mps_cols
        return self.m, self.n


WORKLOADS = {w.name: w for w in (
    Workload(
        "gauss-small",
        "4 gaussian-noise 2000x50 systems per run, noise 0.01, solve cap 2000: A is 800 KB, so "
        "per-iteration Python overhead, telemetry and CSV writing dominate; linalg and I/O are small",
        setup_reps=2, solve_cap=2000, solve_trials=3, timing_trials=10,
        tts_motzkin=10, tts_rk=20, micro_iters=500, systems=4, m=2000, n=50),
    Workload(
        "gauss-large",
        "1 gaussian-noise 10000x100 system per run, noise 0.01, solve cap 200: the residual matvec "
        "is most of an iteration and each stage re-reads a 21 MB system file; telemetry is minor",
        setup_reps=3, solve_cap=200, solve_trials=2, timing_trials=2,
        tts_motzkin=25, tts_rk=4, micro_iters=200, systems=1, m=10000, n=100),
    Workload(
        "netlib-stacked",
        "3 seeded banded MPS files per run, 120x180, band 61, stacked to 300x180: the only mps "
        "workload; wide n makes Jacobi sigma_min most of bounds; rk needs about 5k iterations",
        setup_reps=2, solve_cap=2000, solve_trials=3, timing_trials=3,
        tts_motzkin=10, tts_rk=4, micro_iters=1000, systems=3,
        mps_rows=120, mps_cols=180, mps_band=61),
)}

STAGES = ("generate", "netlib-prep", "solve", "bounds", "timing")


def write_banded_mps(path, seed: int, rows: int, cols: int, band: int) -> None:
    """A bandm-style underdetermined problem: `rows` equality rows, row i
    carrying a width-`band` band from column i, coefficients of two decimals
    drawn from the seed. The nonzero leading entries form a staircase, so the
    matrix has full row rank."""
    if rows + band - 1 > cols:
        raise ValueError("band runs past the last column")
    rng = np.random.default_rng(seed)
    magnitude = np.round(rng.uniform(0.05, 1.0, size=(rows, band)), 2)
    coef = np.where(rng.random((rows, band)) < 0.5, -magnitude, magnitude)
    rhs = np.round(rng.uniform(-1.0, 1.0, size=rows), 2)
    lines = [f"* banded underdetermined system, seed {seed}", "NAME          BANDSEED",
             "ROWS", " N  COST"]
    lines += [f" E  R{i}" for i in range(1, rows + 1)]
    lines.append("COLUMNS")
    for j in range(1, cols + 1):
        rows_for_col = [i for i in range(max(1, j - band + 1), min(rows, j) + 1)]
        for a in range(0, len(rows_for_col), 2):
            entry = f"    X{j:<9}"
            for i in rows_for_col[a:a + 2]:
                entry += f"R{i:<9}{coef[i - 1, j - i]:<11}"
            lines.append(entry.rstrip())
    lines.append("RHS")
    lines += [f"    RHS       R{i:<9}{rhs[i - 1]}" for i in range(1, rows + 1)]
    lines.append("ENDATA")
    Path(path).write_text("\n".join(lines) + "\n")


class Tally:
    """Operations and checks attempted and failed; error_rate = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    @contextlib.contextmanager
    def guard(self, what: str):
        """Count an exception escaping the block as one failed operation."""
        try:
            yield
        except Exception:  # the benchmark reports the failure and keeps measuring
            self.record(False, f"{what}\n{traceback.format_exc()}")


class Pipeline:
    """One workload's stages, tts solves and output checks, in one work directory."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, tracer, tally: Tally, speed):
        self.wl = workload
        self.seed = seed
        self.dir = workdir
        self.tracer = tracer
        self.tally = tally
        self.speed = speed
        self.raw: dict[str, list[tuple[float, float]]] = {}  # key -> (wall, factor)
        self.system_path = workdir / "system.txt"
        self.mps_path = workdir / "problem.mps"
        self.solve_dir = workdir / "solve"
        self.bounds_dir = workdir / "bounds"
        self.timing_dir = workdir / "timing"
        self.digests: dict[Path, str] = {}
        self.tts_seconds: dict[str, list[float]] = {"motzkin": [], "rk-uniform": []}
        self.tts_iters: dict[str, list[int]] = {}
        self.system = None
        workdir.mkdir(parents=True)

    # ----------------------------------------------------------------- stages

    def _stage(self, name: str, *argv) -> float:
        """Run one CLI stage; returns its calibrated wall time."""
        argv = [name, *map(str, argv)]

        def stage():
            with self.tracer.span(f"cli.{name}"):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                return code, time.perf_counter() - t0

        (code, wall), factor = self.speed.scaled(stage)
        self.tally.record(code == 0, f"rowaction {' '.join(argv)} exited with {code}")
        self.raw.setdefault(name, []).append((round(wall, 4), round(factor, 3)))
        return wall * factor

    def make_inputs(self) -> None:
        if self.wl.mps_rows:
            write_banded_mps(self.mps_path, self.seed, self.wl.mps_rows,
                             self.wl.mps_cols, self.wl.mps_band)

    def setup(self) -> float:
        if self.wl.mps_rows:
            seconds = self._stage("netlib-prep", "--mps", self.mps_path,
                                  "--noise-std", TRANSFORM_NOISE_STD,
                                  "--seed", self.seed, "--out", self.system_path)
        else:
            seconds = self._stage("generate", "--kind", "gaussian-noise", "--m", self.wl.m,
                                  "--n", self.wl.n, "--noise-std", NOISE_STD,
                                  "--seed", self.seed, "--out", self.system_path)
        self._check_repeats([self.system_path])
        return seconds

    def round(self) -> dict[str, float]:
        """solve, bounds, timing and the tts solves once, then the cheap
        output checks; returns the calibrated stage walls."""
        wl = self.wl
        walls = {
            "solve": self._stage("solve", "--system", self.system_path,
                                 *[a for s in SOLVERS for a in ("--solver", s)],
                                 "--trials", wl.solve_trials, "--max-iterations", wl.solve_cap,
                                 "--seed", self.seed, "--out", self.solve_dir),
            "bounds": self._stage("bounds", "--system", self.system_path,
                                  "--iterations", wl.solve_cap, "--empirical-gamma",
                                  "--telemetry", self.solve_dir / "motzkin_trial0.csv",
                                  "--out", self.bounds_dir),
            "timing": self._stage("timing", "--system", self.system_path,
                                  "--solver", "motzkin", "--solver", "rk-uniform",
                                  "--trials", wl.timing_trials, "--seed", self.seed,
                                  "--out", self.timing_dir),
        }
        with self.tracer.span("bench.tts"):
            self._tts()
        with self.tally.guard("output checks"):
            self._check_repeats(sorted(self.solve_dir.iterdir()) + sorted(self.bounds_dir.iterdir()))
            self._check_gamma_dominance()
            self._check_timing_counts()
        return walls

    def _tts(self) -> None:
        """The library solves, motzkin and rk-uniform spread evenly through
        each other. A speed probe runs whenever TTS_PROBE_EVERY_S has passed,
        and the solves since the previous probe are calibrated by the mean of
        the two."""
        stop = solvers.StopRule(TTS_CAP, residual_inf_threshold=self.threshold)
        counts = {"motzkin": self.wl.tts_motzkin, "rk-uniform": self.wl.tts_rk}
        order = sorted(((kind, t) for kind, count in counts.items() for t in range(count)),
                       key=lambda solve: (solve[1] + 0.5) / counts[solve[0]])
        iters = {kind: [] for kind in counts}
        pending = []
        last_probe, since = self.speed.probe(), time.perf_counter()
        for step, (kind, t) in enumerate(order):
            t0 = time.perf_counter()
            result = solvers.run(self.system, solvers.SelectionRule(kind), stop, seed=self.seed + t)
            pending.append((kind, time.perf_counter() - t0))
            iters[kind].append(result.state.iteration)
            self._check_tts_solve(kind, self.seed + t, result)
            if time.perf_counter() - since >= TTS_PROBE_EVERY_S or step == len(order) - 1:
                probe = self.speed.probe()
                factor = self.speed.factor(last_probe, probe)
                for k, wall in pending:
                    self.raw.setdefault(f"tts_{k}", []).append((round(wall, 4), round(factor, 3)))
                    self.tts_seconds[k].append(wall * factor)
                pending = []
                last_probe, since = probe, time.perf_counter()
        for kind, counted in iters.items():
            first = self.tts_iters.setdefault(kind, counted)
            self.tally.record(counted == first, f"{kind} iteration counts repeat across rounds")

    def _check_tts_solve(self, kind: str, seed: int, result) -> None:
        reached = result.stop_reason == solvers.STOP_RESIDUAL_THRESHOLD
        self.tally.record(reached, f"{kind} seed {seed} reached the threshold")
        if reached:
            diff = result.state.x - self.system.reference
            error_sq = float(np.dot(diff, diff))
            self.tally.record(error_sq <= self.at_stop * (1 + 1e-9),
                              f"{kind} seed {seed}: error {error_sq:.6g} "
                              f"within the at_stop bound {self.at_stop:.6g}")

    # ----------------------------------------------------------------- checks

    def load_reference(self) -> None:
        """Load the prepared system and the scalars the checks need. Runs
        once per system, outside every timed region. sigma_min comes from
        LAPACK rather than the program, so the at_stop check has an
        independent reference."""
        self.system = systems.load_system(self.system_path)
        self.threshold = 4.0 * self.system.error_inf()
        a = self.system.a
        inputs = bounds.BoundInputs(
            m=self.system.m, n=self.system.n,
            sigma_min=float(np.linalg.svd(a, compute_uv=False).min()),
            error_inf=self.system.error_inf(),
            initial_error_sq=float(np.dot(self.system.reference, self.system.reference)),
            frobenius_sq=float(np.einsum("ij,ij->", a, a)))
        self.at_stop = bounds.final_error_bounds(inputs)[0]
        if self.wl.mps_rows:
            with self.tally.guard("stacked system check"):
                self._check_stacked()

    def _check_stacked(self) -> None:
        problem = mps.load_mps(self.mps_path)
        A, b = mps.extract_system(problem)
        expected = mps.overdetermine(A, b, mps.TransformSpec(TRANSFORM_NOISE_STD, self.seed))
        got = self.system
        self.tally.record(all(np.array_equal(x, y) for x, y in (
            (got.a, expected.a), (got.b, expected.b), (got.reference, expected.reference))),
            "netlib-prep output equals the library's stacked system")
        drift = float(np.abs(expected.error_vec - (expected.a @ expected.reference - expected.b)).max())
        self.tally.record(drift <= systems.REFERENCE_RESIDUAL_TOL,
                          f"stacked error_vec agrees with A x_ref - b (drift {drift:.3e})")

    def _check_repeats(self, paths) -> None:
        for path in paths:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self.digests.setdefault(path, digest)
            self.tally.record(digest == first, f"{path.name} is byte-identical when repeated")

    def check_against_library(self) -> None:
        """Re-run every solve-stage trial through the library and compare the
        summary row and the telemetry file. Costs as much as the solve stage,
        so it runs once, after the measured window."""
        with self.tally.guard("summary check"):
            self._check_summary_against_library()

    def _check_summary_against_library(self) -> None:
        with open(self.solve_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.tally.record(len(rows) == len(SOLVERS) * self.wl.solve_trials,
                          f"summary.csv has {len(rows)} rows")
        stop = solvers.StopRule(self.wl.solve_cap)
        library_csv = self.dir / "library_telemetry.csv"
        for row in rows:
            name, trial = row["solver"], int(row["trial"])
            rule = (solvers.SelectionRule("hybrid", self.threshold) if name == "hybrid"
                    else solvers.SelectionRule(name))
            result = solvers.run(self.system, rule, stop, seed=self.seed + trial)
            self.tally.record(int(row["iterations"]) == result.state.iteration
                              and row["stop_reason"] == result.stop_reason,
                              f"summary.csv {name} trial {trial} matches a library run")
            solvers.write_telemetry_csv(library_csv, result.records)
            self.tally.record(
                library_csv.read_bytes() == (self.solve_dir / f"{name}_trial{trial}.csv").read_bytes(),
                f"{name}_trial{trial}.csv is byte-identical to the library run's telemetry")

    def _check_gamma_dominance(self) -> None:
        with open(self.bounds_dir / "motzkin_empirical_gamma.csv", newline="") as fh:
            curve = [float(r["value"]) for r in csv.DictReader(fh)]
        with open(self.solve_dir / "motzkin_trial0.csv", newline="") as fh:
            observed = [float(r["error_sq"]) for r in csv.DictReader(fh)]
        margins = [c * (1 + 1e-9) - o for c, o in zip(curve, observed)]
        self.tally.record(len(curve) == len(observed) + 1 and min(margins) >= 0,
                          f"empirical-gamma curve ({len(curve)} points) dominates error_sq "
                          f"({len(observed)} points), min margin {min(margins):.3g}")

    def _check_timing_counts(self) -> None:
        with open(self.timing_dir / "timing.csv", newline="") as fh:
            rows = {r["solver"]: r for r in csv.DictReader(fh)}
        for kind in ("motzkin", "rk-uniform"):
            counts = self.tts_iters[kind][:self.wl.timing_trials]
            expected = f"{sum(counts) / len(counts):.2f}"
            got = rows[kind]["mean_iterations"], rows[kind]["censored"]
            self.tally.record(got == (expected, "0"),
                              f"timing.csv {kind} mean_iterations/censored {got} "
                              f"match the library solves ({expected}, 0)")

