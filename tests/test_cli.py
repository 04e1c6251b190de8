import csv
import errno
import io
import math
import multiprocessing
import os
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from rowaction import cli, linalg, solvers, systems
from rowaction.solvers import SelectionRule, StopRule

from test_solvers import forced_split
from test_systems import kahan_type_pair

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    return cli.main(list(argv))


def set_cpus(monkeypatch, count):
    """Give the process `count` CPUs, as taskset would: `solve` forks
    min(count, solvers x trials) workers, and runs its tasks inline at 1."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def os_threads():
    """This process's OS thread count, field 20 of /proc/self/stat."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[17])  # fields from 3 on follow the ")"


# the parent's OS thread count after each fork, read while "on"; a fork hook
# cannot be removed, so it is registered once and reads only when asked
AT_FORK = {"on": False, "threads": []}


def _read_threads_at_fork():
    if AT_FORK["on"]:
        AT_FORK["threads"].append(os_threads())


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_parent=_read_threads_at_fork)


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "sys.txt"
    code = run_cli("generate", "--kind", "gaussian-noise", "--m", "80", "--n", "8",
                   "--noise-std", "0.05", "--seed", "7", "--out", str(path))
    assert code == 0
    return path


def test_generate_writes_system_and_echoes_stats(system_file):
    sys_ = systems.load_system(system_file)
    assert (sys_.m, sys_.n) == (80, 8)
    assert sys_.reference is not None


def test_generate_deterministic_output(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["generate", "--kind", "gaussian-noise", "--m", "40", "--n", "4",
            "--seed", "3", "--out"]
    assert run_cli(*args, str(a)) == 0
    assert run_cli(*args, str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_spiky_flags(tmp_path):
    path = tmp_path / "spiky.txt"
    code = run_cli("generate", "--kind", "spiky-noise", "--m", "120", "--n", "6",
                   "--noise-std", "0", "--spike-count", "50", "--spike-magnitude", "15",
                   "--seed", "11", "--out", str(path))
    assert code == 0
    sys_ = systems.load_system(path)
    assert sys_.m == 120
    # 50 corrupted equations leave a large reference residual
    assert sys_.error_inf() > 1.0


def test_solve_writes_telemetry_and_summary(system_file, tmp_path):
    out = tmp_path / "runs"
    code = run_cli("solve", "--system", str(system_file), "--solver", "motzkin",
                   "--solver", "rk-uniform", "--trials", "2", "--max-iterations", "500",
                   "--stop-residual-inf", "0.2", "--seed", "1", "--out", str(out))
    assert code == 0
    for name in ("motzkin", "rk-uniform"):
        for trial in (0, 1):
            assert (out / f"{name}_trial{trial}.csv").exists()
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["stop_reason"] for r in rows} <= {"residual-threshold", "max-iterations"}
    assert all(float(r["final_error_sq"]) >= 0 for r in rows)


def test_solve_trials_use_distinct_seeds(system_file, tmp_path):
    out = tmp_path / "runs"
    code = run_cli("solve", "--system", str(system_file), "--solver", "rk-uniform",
                   "--trials", "2", "--max-iterations", "50", "--seed", "1",
                   "--out", str(out))
    assert code == 0
    t0 = (out / "rk-uniform_trial0.csv").read_bytes()
    t1 = (out / "rk-uniform_trial1.csv").read_bytes()
    assert t0 != t1


def test_solve_outputs_reproducible(system_file, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = run_cli("solve", "--system", str(system_file), "--solver", "hybrid",
                       "--max-iterations", "200", "--seed", "5", "--out", str(out))
        assert code == 0
        outs.append((out / "hybrid_trial0.csv").read_bytes())
    assert outs[0] == outs[1]


def test_stop_beta_threshold_form(system_file, tmp_path):
    sys_ = systems.load_system(system_file)
    beta = sys_.error_inf()

    def cli_iterations(*flags):
        out = tmp_path / "_".join(flags)
        assert run_cli("solve", "--system", str(system_file), "--max-iterations", "5000",
                       "--seed", "1", "--out", str(out), *flags) == 0
        with open(out / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert row["stop_reason"] == "residual-threshold"
        return int(row["iterations"])

    def library_iterations(threshold):
        stop = StopRule(5000, residual_inf_threshold=threshold)
        return solvers.run(sys_, SelectionRule("motzkin"), stop).iteration

    # the paper's 4*beta stop test is given as its residual sup-norm level
    assert library_iterations(4 * beta) != library_iterations(8 * beta)
    assert cli_iterations("--stop-residual-inf", repr(4 * beta)) == library_iterations(4 * beta)
    assert cli_iterations("--stop-residual-inf", repr(8 * beta)) == library_iterations(8 * beta)


def test_removed_stop_beta_flag_is_config_error(system_file, tmp_path, capsys):
    out = tmp_path / "runs"
    code = run_cli("solve", "--system", str(system_file), "--stop-beta", "0.05",
                   "--seed", "1", "--out", str(out))
    assert code == cli.CONFIG_ERROR
    assert "unrecognized arguments: --stop-beta 0.05" in capsys.readouterr().err
    assert not out.exists()


def test_trials_below_one_is_config_error(system_file, tmp_path, capsys):
    for command in ("solve", "timing"):
        out = tmp_path / command
        code = run_cli(command, "--system", str(system_file), "--trials", "0",
                       "--seed", "1", "--out", str(out))
        assert code == cli.CONFIG_ERROR
        assert "trials" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


def test_solve_without_source_is_config_error(tmp_path):
    code = run_cli("solve", "--solver", "motzkin", "--seed", "1", "--out", str(tmp_path))
    assert code == cli.CONFIG_ERROR


@pytest.mark.parametrize("command", ["solve", "timing"])
@pytest.mark.parametrize("flag", [["--kind", "spiky-noise"], ["--mps", "missing.mps"],
                                  ["--transform-noise-std", "0.1"], ["--problem", "label"]],
                         ids=lambda flag: flag[0])
def test_system_source_flags_other_than_system_are_rejected(system_file, tmp_path, capsys,
                                                            command, flag):
    out = tmp_path / "out"
    code = run_cli(command, "--system", str(system_file), *flag, "--seed", "1", "--out", str(out))
    assert code == cli.CONFIG_ERROR
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "timing"])
@pytest.mark.parametrize("form", ["flags", "config"])
def test_repeated_solver_is_config_error(system_file, tmp_path, capsys, command, form):
    config = tmp_path / "c.cfg"
    config.write_text("solver = motzkin, rk-uniform, motzkin\n")
    solvers_ = (["--config", str(config)] if form == "config" else
                ["--solver", "motzkin", "--solver", "rk-uniform", "--solver", "motzkin"])
    out = tmp_path / "out"
    code = run_cli(command, "--system", str(system_file), *solvers_, "--max-iterations", "20",
                   "--trials", "1", "--seed", "1", "--out", str(out))
    assert code == cli.CONFIG_ERROR
    assert "--solver motzkin is given more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threshold, cap, switch", [(None, 300, 7), (0.2, 300, 7), (0.25, 300, None),
                                                    (None, 1, None)])
def test_hybrid_trials_equal_library_telemetry(system_file, tmp_path, threshold, cap, switch):
    # trials after the first take the header and greedy prefix rows from trial 0's file
    out = tmp_path / "runs"
    flags = [] if threshold is None else ["--stop-residual-inf", str(threshold)]
    assert run_cli("solve", "--system", str(system_file), "--solver", "hybrid", "--trials", "3",
                   "--hybrid-threshold", "0.3", "--max-iterations", str(cap), *flags,
                   "--seed", "4", "--out", str(out)) == 0
    sys_ = systems.load_system(system_file)
    for trial in range(3):
        result = solvers.run(sys_, SelectionRule("hybrid", 0.3), StopRule(cap, threshold), seed=4 + trial)
        assert result.switch_iteration == switch
        solvers.write_telemetry_csv(tmp_path / "library.csv", result.records)
        assert (out / f"hybrid_trial{trial}.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == [f"hybrid_trial{t}.csv" for t in range(3)] + ["summary.csv"]


def test_solve_leaves_a_file_it_did_not_write_alone(system_file, tmp_path):
    # a file in --out named as trial 1's file plus a suffix survives hybrid trials that switch
    out = tmp_path / "runs"
    out.mkdir()
    stray = out / "hybrid_trial1.csv.rest"
    stray.write_bytes(b"not telemetry\n")
    assert run_cli("solve", "--system", str(system_file), "--solver", "hybrid", "--trials", "2",
                   "--hybrid-threshold", "0.3", "--max-iterations", "300", "--seed", "4",
                   "--out", str(out)) == 0
    sys_ = systems.load_system(system_file)
    assert solvers.run(sys_, SelectionRule("hybrid", 0.3), StopRule(300), seed=5).switch_iteration == 7
    assert stray.read_bytes() == b"not telemetry\n"


def test_hybrid_switch_visible_in_telemetry(system_file, tmp_path):
    out = tmp_path / "hyb"
    code = run_cli("solve", "--system", str(system_file), "--solver", "hybrid",
                   "--max-iterations", "300", "--seed", "3", "--out", str(out))
    assert code == 0
    records = solvers.read_telemetry_csv(out / "hybrid_trial0.csv")
    sys_ = systems.load_system(system_file)
    threshold = 4 * sys_.error_inf()  # default hybrid threshold from the reference
    switch = next(k for k, rec in enumerate(records) if rec.residual_inf <= threshold)
    for rec in records[:switch]:
        assert rec.selected_residual_sq == pytest.approx(rec.residual_inf ** 2, rel=1e-12)


def test_bounds_outputs_curves(system_file, tmp_path):
    runs = tmp_path / "runs"
    assert run_cli("solve", "--system", str(system_file), "--solver", "motzkin",
                   "--max-iterations", "40", "--seed", "1", "--out", str(runs)) == 0
    out = tmp_path / "curves"
    code = run_cli("bounds", "--system", str(system_file), "--iterations", "40",
                   "--telemetry", str(runs / "motzkin_trial0.csv"), "--out", str(out))
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"rk_bound.csv", "motzkin_worst_case.csv", "gaussian_rate.csv",
                     "gaussian_rate_conjectured.csv", "motzkin_empirical_gamma.csv"}
    with open(out / "rk_bound.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["name"] == "rk"
    assert len(rows) == 41
    values = [float(r["value"]) for r in rows]
    assert values[0] >= values[-1] > 0


def test_bounds_empirical_gamma_stops_at_first_missing_gamma(system_file, tmp_path):
    # a gap at k=2 must not shift the k=3 gamma onto k=2
    records = [solvers.IterationRecord(k=k, selected_row=0, residual_inf=1.0, residual_2sq=1.0,
                                       selected_residual_sq=1.0, gamma=None if k == 2 else 2.0,
                                       error_sq=1.0)
               for k in range(4)]
    telemetry = tmp_path / "telemetry.csv"
    solvers.write_telemetry_csv(telemetry, records)
    out = tmp_path / "curves"
    code = run_cli("bounds", "--system", str(system_file), "--iterations", "4",
                   "--telemetry", str(telemetry), "--empirical-gamma", "--out", str(out))
    assert code == 0
    with open(out / "motzkin_empirical_gamma.csv") as fh:
        assert [int(r["k"]) for r in csv.DictReader(fh)] == [0, 1, 2]


SYSTEM = "<system file>"  # stands for the system_file fixture in parametrized argv
HEADER = ",".join(solvers.TELEMETRY_COLUMNS)
ROW = "0,1,1.0,1.0,2.0,0.5,1.0"


@pytest.mark.parametrize("bad_row, message", [
    ("1,1,1.0,1.0,2.0,0.5", "not enough values to unpack (expected 7, got 6)"),
    ("1,1,1.0,1.0,2.0,0.5,1.0,9", "too many values to unpack (expected 7"),
    ("1,1,1.0,abc,2.0,0.5,1.0", "could not convert string to float: 'abc'"),
])
def test_bounds_malformed_telemetry_row_names_path_and_line(system_file, tmp_path, capsys,
                                                              bad_row, message):
    telemetry = tmp_path / "telemetry.csv"
    telemetry.write_text(f"{HEADER}\n{ROW}\n{bad_row}\n")
    code = run_cli("bounds", "--system", str(system_file), "--iterations", "4",
                   "--telemetry", str(telemetry), "--out", str(tmp_path / "curves"))
    assert code == cli.CONFIG_ERROR
    assert f"{telemetry}:3: {message}" in capsys.readouterr().err
    assert not (tmp_path / "curves").exists()


def test_bounds_telemetry_skips_blank_rows(system_file, tmp_path):
    telemetry = tmp_path / "telemetry.csv"
    telemetry.write_text(f"{HEADER}\n{ROW}\n\n{ROW.replace('0', '1', 1)}\n\n")
    out = tmp_path / "curves"
    code = run_cli("bounds", "--system", str(system_file), "--iterations", "4",
                   "--telemetry", str(telemetry), "--empirical-gamma", "--out", str(out))
    assert code == 0
    with open(out / "motzkin_empirical_gamma.csv") as fh:
        assert [int(r["k"]) for r in csv.DictReader(fh)] == [0, 1, 2]


@pytest.mark.parametrize("argv", [
    ["solve", "--solver", "motzkin", "--solver", "hybrid", "--hybrid-threshold", "-1", "--seed", "1"],
    ["solve", "--max-iterations", "-1", "--seed", "1"],
    ["timing", "--threshold", "-1", "--seed", "1"],
    ["timing", "--max-iterations", "-1", "--seed", "1"],
    ["bounds", "--iterations", "-1"],
])
def test_bad_values_write_nothing(system_file, tmp_path, argv):
    out = tmp_path / "out"
    code = run_cli(*argv, "--system", str(system_file), "--out", str(out))
    assert code == cli.CONFIG_ERROR
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["timing", "--system", SYSTEM, "--threshold", "nan", "--trials", "2", "--max-iterations", "50000"],
     "residual_inf_threshold must be nonnegative"),
    (["solve", "--system", SYSTEM, "--stop-residual-inf", "nan"], "residual_inf_threshold must be nonnegative"),
    (["generate", "--kind", "gaussian-noise", "--m", "20", "--n", "2", "--noise-std", "nan"],
     "noise_std must be finite and nonnegative, got nan"),
    (["netlib-prep", "--mps", str(DATA / "bandm_style.mps"), "--noise-std", "nan"],
     "noise_std must be finite and nonnegative, got nan"),
], ids=["timing-threshold", "solve-stop-residual-inf", "generate-noise-std", "netlib-prep-noise-std"])
def test_non_finite_value_is_config_error_naming_its_field(system_file, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv = [str(system_file) if arg == SYSTEM else arg for arg in argv]
    assert run_cli(*argv, "--seed", "1", "--out", str(out)) == cli.CONFIG_ERROR
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_increasing_singular_values_are_config_error_naming_the_file(system_file, tmp_path, capsys):
    # stored in increasing order, the last one would be read as sigma_min
    sys_ = systems.load_system(system_file)
    bad = tmp_path / "increasing.sys"
    with open(bad, "wb") as fh:
        for record in (np.column_stack([sys_.a, sys_.b]), sys_.reference, sys_.singular_values[::-1]):
            np.save(fh, record, allow_pickle=False)
    out = tmp_path / "curves"
    assert run_cli("bounds", "--system", str(bad), "--out", str(out)) == cli.CONFIG_ERROR
    assert f"error: {bad}: not a system file (" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_negative_iterations_is_config_error(system_file, tmp_path, capsys):
    code = run_cli("bounds", "--system", str(system_file), "--iterations", "-1",
                   "--out", str(tmp_path))
    assert code == cli.CONFIG_ERROR
    assert "num_iterations" in capsys.readouterr().err


def test_bounds_gamma_outside_the_range_names_the_telemetry_and_its_k(system_file, tmp_path, capsys):
    # as a telemetry CSV of a larger system: the system file has m = 80
    records = [solvers.IterationRecord(k=k, selected_row=0, residual_inf=1.0, residual_2sq=1.0,
                                       selected_residual_sq=1.0, gamma=gamma, error_sq=1.0)
               for k, gamma in enumerate([2.0, 80.0, 1500.0, 0.5])]
    telemetry = tmp_path / "telemetry.csv"
    solvers.write_telemetry_csv(telemetry, records)
    code = run_cli("bounds", "--system", str(system_file), "--iterations", "4",
                   "--telemetry", str(telemetry), "--out", str(tmp_path / "curves"))
    assert code == cli.CONFIG_ERROR
    assert capsys.readouterr().err == \
        f"error: {telemetry}: gamma values must lie in [1, m=80]; k=2 has gamma 1500.0\n"
    assert not (tmp_path / "curves").exists()


def test_bounds_binary_telemetry_names_the_file(system_file, tmp_path, capsys):
    code = run_cli("bounds", "--system", str(system_file), "--iterations", "4",
                   "--telemetry", str(system_file), "--out", str(tmp_path / "curves"))
    assert code == cli.CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"error: {system_file}: not a telemetry CSV ('utf-8' codec")
    assert not (tmp_path / "curves").exists()


@pytest.mark.parametrize("message, argv", [
    pytest.param("not a config file", ["generate", "--config", "<file>"], id="config"),
    pytest.param("not an MPS file", ["netlib-prep", "--mps", "<file>", "--seed", "1", "--out", "x.sys"],
                 id="mps"),
])
def test_input_that_is_not_utf8_names_the_file(tmp_path, capsys, monkeypatch, message, argv):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"NAME caf\xe9\n")
    code = run_cli(*[str(path) if arg == "<file>" else arg for arg in argv])
    assert code == cli.CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"error: {path}: {message} ('utf-8' codec can't decode byte 0xe9")
    assert not (tmp_path / "x.sys").exists()


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as `| head -c 0` leaves it."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("command, argv, files", [
    pytest.param("bounds", ["--iterations", "40", "--telemetry", "<telemetry>"], 5, id="bounds"),
    pytest.param("timing", ["--trials", "2", "--seed", "1"], 1, id="timing"),
])
def test_closed_stdout_costs_no_file(system_file, tmp_path, monkeypatch, command, argv, files):
    # every file is written before the first line is printed; the failed
    # print is still an error, as any OSError is
    monkeypatch.setattr(time, "process_time", lambda: 0.0)  # so timing.csv's seconds are equal too
    runs = tmp_path / "runs"
    assert run_cli("solve", "--system", str(system_file), "--max-iterations", "40", "--seed", "1",
                   "--out", str(runs)) == 0
    argv = [command, "--system", str(system_file),
            *[str(runs / "motzkin_trial0.csv") if arg == "<telemetry>" else arg for arg in argv]]
    assert run_cli(*argv, "--out", str(tmp_path / "open")) == 0
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert run_cli(*argv, "--out", str(tmp_path / "closed")) == cli.CONFIG_ERROR
    written = {path.name: path.read_bytes() for path in (tmp_path / "open").iterdir()}
    assert len(written) == files
    assert {path.name: path.read_bytes() for path in (tmp_path / "closed").iterdir()} == written


def test_generate_rows_whose_squares_overflow_reach_the_rank_check(tmp_path, capsys):
    # row mean 1e200 makes every row's squared norm pass the float range; once
    # scaled, the rows are all nearly (1, 1) / sqrt(2), so column 1 is dependent
    path = tmp_path / "big.sys"
    code = run_cli("generate", "--kind", "correlated", "--row-mean", "1e200", "--m", "20", "--n", "2",
                   "--seed", "1", "--out", str(path))
    assert code == cli.NUMERICAL_ERROR
    assert "column 1 depends on the columns before it" in capsys.readouterr().err
    assert not path.exists()


def test_bounds_empirical_gamma_requires_telemetry(system_file, tmp_path, capsys):
    # the flag is checked before the system file is read, so a missing file
    # does not hide it
    for system in (system_file, tmp_path / "missing.sys"):
        code = run_cli("bounds", "--system", str(system), "--empirical-gamma",
                       "--out", str(tmp_path))
        assert code == cli.CONFIG_ERROR
        assert capsys.readouterr().err == "error: --empirical-gamma requires --telemetry\n"


def test_netlib_prep_and_timing(tmp_path):
    prepared = tmp_path / "band.txt"
    code = run_cli("netlib-prep", "--mps", str(DATA / "bandm_style.mps"),
                   "--noise-std", "1e-6", "--seed", "5", "--out", str(prepared))
    assert code == 0
    sys_ = systems.load_system(prepared)
    assert (sys_.m, sys_.n) == (100, 60)

    out = tmp_path / "timing"
    code = run_cli("timing", "--system", str(prepared), "--trials", "2",
                   "--seed", "1", "--out", str(out))
    assert code == 0
    with open(out / "timing.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["solver"] for r in rows] == ["motzkin", "rk-uniform"]
    assert all(r["censored"] == "0" for r in rows)
    by_solver = {r["solver"]: float(r["mean_iterations"]) for r in rows}
    assert by_solver["motzkin"] < by_solver["rk-uniform"]


def test_timing_iteration_counts_deterministic(tmp_path):
    prepared = tmp_path / "band.txt"
    assert run_cli("netlib-prep", "--mps", str(DATA / "bandm_style.mps"),
                   "--seed", "5", "--out", str(prepared)) == 0
    counts = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert run_cli("timing", "--system", str(prepared), "--trials", "3",
                       "--seed", "9", "--out", str(out)) == 0
        with open(out / "timing.csv") as fh:
            counts.append([r["mean_iterations"] for r in csv.DictReader(fh)])
    assert counts[0] == counts[1]


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "gen.cfg"
    config.write_text("kind = gaussian-noise\nm = 50\nn = 5\nnoise-std = 0.1\nseed = 4\n")
    out = tmp_path / "a.txt"
    code = run_cli("generate", "--config", str(config), "--out", str(out), "--m", "60")
    assert code == 0
    sys_ = systems.load_system(out)
    assert (sys_.m, sys_.n) == (60, 5)  # flag beats config, config fills the rest


def test_config_equals_form(tmp_path):
    config = tmp_path / "gen.cfg"
    config.write_text("kind = gaussian-noise\nm = 50\nn = 5\nnoise-std = 0.1\nseed = 4\n")
    out = tmp_path / "a.txt"
    assert run_cli("generate", f"--config={config}", "--out", str(out), "--m", "60") == 0
    sys_ = systems.load_system(out)
    assert (sys_.m, sys_.n) == (60, 5)


@pytest.mark.parametrize("flag", [["--solver", "hybrid"], ["--solver=hybrid"]])
def test_config_list_replaced_by_flag(system_file, tmp_path, flag):
    config = tmp_path / "solve.cfg"
    config.write_text("solver = motzkin\nmax-iterations = 20\n")
    out = tmp_path / "runs"
    code = run_cli("solve", "--config", str(config), "--system", str(system_file), *flag,
                   "--seed", "1", "--out", str(out))
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"hybrid_trial0.csv", "summary.csv"}


@pytest.mark.parametrize("second", [["--config", "missing.cfg"], ["--config=missing.cfg"]])
def test_config_given_twice_is_config_error(tmp_path, capsys, second):
    config = tmp_path / "gen.cfg"
    config.write_text("kind = gaussian-noise\nm = 50\nn = 5\nseed = 4\n")
    out = tmp_path / "a.txt"
    code = run_cli("generate", "--config", str(config), *second, "--out", str(out))
    assert code == cli.CONFIG_ERROR
    assert "--config may be given only once" in capsys.readouterr().err
    assert not out.exists()


def test_abbreviated_flag_is_rejected(system_file, tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text("solver = motzkin\nmax-iterations = 20\n")
    out = tmp_path / "runs"
    code = run_cli("solve", "--config", str(config), "--system", str(system_file),
                   "--solv", "hybrid", "--seed", "1", "--out", str(out))
    assert code == cli.CONFIG_ERROR
    assert "unrecognized arguments: --solv hybrid" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_system_file_is_config_error(tmp_path, capsys):
    empty = tmp_path / "empty.sys"
    empty.write_bytes(b"")
    code = run_cli("solve", "--system", str(empty), "--seed", "1", "--out", str(tmp_path / "runs"))
    assert code == cli.CONFIG_ERROR
    assert str(empty) in capsys.readouterr().err


def test_timing_rejects_hybrid_solver(system_file, tmp_path, capsys):
    code = run_cli("timing", "--system", str(system_file), "--solver", "hybrid",
                   "--seed", "1", "--out", str(tmp_path))
    assert code == cli.CONFIG_ERROR
    assert "argument --solver: invalid choice: 'hybrid'" in capsys.readouterr().err


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("bogus = 1\n")
    code = run_cli("generate", "--config", str(config), "--kind", "gaussian-noise",
                   "--seed", "1", "--out", str(tmp_path / "x.txt"))
    assert code == cli.CONFIG_ERROR
    # solve takes its worker count from the CPU affinity, and has no jobs flag
    config.write_text("jobs = 2\n")
    code = run_cli("solve", "--config", str(config), "--system", str(tmp_path / "x.txt"), "--seed", "1")
    assert code == cli.CONFIG_ERROR
    assert "unrecognized arguments: --jobs=2" in capsys.readouterr().err


def test_bad_flags_exit_code(tmp_path, capsys):
    assert run_cli("generate", "--kind", "nope", "--seed", "1",
                   "--out", str(tmp_path / "x.txt")) == cli.CONFIG_ERROR


def test_numerical_failure_exit_code(tmp_path, capsys):
    # rank-deficient constraint matrix: least-norm inside netlib-prep fails
    bad = tmp_path / "bad.mps"
    bad.write_text("""NAME BAD
ROWS
 N  OBJ
 E  R1
 E  R2
COLUMNS
    X1  R1  1.0   R2  1.0
    X2  R1  1.0   R2  1.0
    X3  R1  0.0   R2  0.0
RHS
    RHS  R1  1.0  R2  1.0
ENDATA
""")
    code = run_cli("netlib-prep", "--mps", str(bad), "--seed", "1",
                   "--out", str(tmp_path / "x.txt"))
    assert code == cli.NUMERICAL_ERROR
    # the dependent constraint is named by its MPS row and its ROWS line
    assert "MPS row R2 declared at line 5: row 1 depends on the rows before it" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


def pure_noise_system(tmp_path, noise_std):
    path = tmp_path / "noise.sys"
    assert run_cli("generate", "--kind", "pure-noise", "--m", "50", "--n", "3",
                   "--noise-std", noise_std, "--seed", "1", "--out", str(path)) == 0
    return path


# under two CPUs, two trials give two worker processes, whose numpy warnings are dropped, or kept once each
TWO_TRIALS = ("--trials", "2")


def overflowing_solve(system, out, capsys, *flags):
    """stderr's lines of a solve that fails; numpy warns of the overflow in
    the squared norms, and no such warning reaches the caller."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("solve", "--system", str(system), *flags, "--max-iterations", "3",
                       "--seed", "0", "--out", str(out))
    assert code == cli.NUMERICAL_ERROR
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return capsys.readouterr().err.splitlines()


# the iteration and the square that passed the float range are named too
OVERFLOW_AT_0 = "iteration 0: gamma's denominator, the square of ||A(x_k - reference)||_inf = "


def test_telemetry_overflow_is_numerical_error(tmp_path, capsys, flags=()):
    # residual entries near 1e200: their squares pass the float range
    system, out = pure_noise_system(tmp_path, "1e200"), tmp_path / "runs"
    [line] = overflowing_solve(system, out, capsys, *flags)
    assert line.startswith("numerical failure: motzkin trial 0: " + OVERFLOW_AT_0)
    assert line.endswith(", passes the float range")
    # the first solver fails, and the --out that the run made is removed again
    [line] = overflowing_solve(system, out, capsys, "--solver", "rk-uniform", "--solver", "motzkin", *flags)
    assert line.startswith("numerical failure: rk-uniform trial 0: " + OVERFLOW_AT_0)
    assert not out.exists()


def test_telemetry_overflow_is_numerical_error_on_two_jobs(tmp_path, capsys, monkeypatch):
    set_cpus(monkeypatch, 2)
    test_telemetry_overflow_is_numerical_error(tmp_path, capsys, TWO_TRIALS)
    # rk-uniform's trials overflow in continuations that the workers compute
    out = tmp_path / "rk"
    [line] = overflowing_solve(tmp_path / "noise.sys", out, capsys, "--solver", "rk-uniform", *TWO_TRIALS)
    assert line.startswith("numerical failure: rk-uniform trial 0: " + OVERFLOW_AT_0)
    assert not out.exists()


def test_telemetry_overflow_that_is_no_failure_still_warns(tmp_path, flags=()):
    # entries near 5e152: their squares fit the float range, sums of 400 do not
    system, out = tmp_path / "noise.sys", tmp_path / "runs"
    assert run_cli("generate", "--kind", "pure-noise", "--m", "400", "--n", "3", "--noise-std", "5e152",
                   "--seed", "1", "--out", str(system)) == 0
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert run_cli("solve", "--system", str(system), "--max-iterations", "3", "--seed", "0",
                       *flags, "--out", str(out)) == 0
    assert math.inf in [rec.residual_2sq for rec in solvers.read_telemetry_csv(out / "motzkin_trial0.csv")]


def test_telemetry_overflow_that_is_no_failure_still_warns_on_two_jobs(tmp_path, monkeypatch):
    set_cpus(monkeypatch, 2)
    test_telemetry_overflow_that_is_no_failure_still_warns(tmp_path, TWO_TRIALS)
    # both rk-uniform trials overflow in workers, and the caller sees the warning once
    out = tmp_path / "rk"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("solve", "--system", str(tmp_path / "noise.sys"), "--solver", "rk-uniform",
                       "--max-iterations", "3", "--seed", "0", *TWO_TRIALS, "--out", str(out)) == 0
    overflows = [(str(w.message), w.filename, w.lineno) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(overflows) == 1 and "overflow" in overflows[0][0]
    for trial in range(2):
        records = solvers.read_telemetry_csv(out / f"rk-uniform_trial{trial}.csv")
        assert math.inf in [rec.residual_2sq for rec in records]


def fail_hybrid_trial_one(monkeypatch):
    """Make hybrid trial 1 (seed 1) fail in `solvers._continue`, the function
    its task calls; a forked worker inherits the patch. Returns the (solver,
    seed) of each call made in this process."""
    calls, continue_ = [], solvers._continue

    def failing(sys_, rule, stop, head, seed, telemetry):
        calls.append((rule.kind, seed))
        if (rule.kind, seed) == ("hybrid", 1):
            raise OverflowError("int too large to convert to float")
        return continue_(sys_, rule, stop, head, seed, telemetry)

    monkeypatch.setattr(solvers, "_continue", failing)
    return calls


def test_numerical_failure_of_a_later_solver_leaves_no_file(system_file, tmp_path, capsys,
                                                             monkeypatch):
    out = tmp_path / "runs"
    out.mkdir()
    (out / "kept.csv").write_text("not this invocation's\n")
    fail_hybrid_trial_one(monkeypatch)
    code = run_cli("solve", "--system", str(system_file), "--solver", "motzkin", "--solver", "hybrid",
                   "--trials", "2", "--max-iterations", "30", "--seed", "0", "--out", str(out))
    assert code == cli.NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert "numerical failure: hybrid trial 1: " in captured.err
    # motzkin's two CSVs and hybrid's first were written, then removed, and
    # stdout names none of them
    assert [p.name for p in out.iterdir()] == ["kept.csv"]
    assert "wrote" not in captured.out and ".csv" not in captured.out


# the machine's CPUs, then one (inline) and two (forked workers); the ids
# stay those of earlier versions, so results compare across them
@pytest.mark.parametrize("cpus", [None, 1, 2], ids=["flags0", "flags1", "flags2"])
def test_failing_later_solver_keeps_older_files_of_the_same_names(system_file, tmp_path, capsys,
                                                                  monkeypatch, cpus):
    if cpus is not None:
        set_cpus(monkeypatch, cpus)
    out = tmp_path / "runs"
    out.mkdir()
    (out / "motzkin_trial0.csv").write_bytes(b"an older run's telemetry\n")
    (out / "summary.csv").write_bytes(b"an older run's summary\n")
    fail_hybrid_trial_one(monkeypatch)
    code = run_cli("solve", "--system", str(system_file), "--solver", "motzkin", "--solver", "hybrid",
                   "--trials", "2", "--max-iterations", "30", "--seed", "0", "--out", str(out))
    assert code == cli.NUMERICAL_ERROR
    assert "numerical failure: hybrid trial 1: int too large" in capsys.readouterr().err
    # no file is replaced, and no temporary file stays
    assert sorted(p.name for p in out.iterdir()) == ["motzkin_trial0.csv", "summary.csv"]
    assert (out / "motzkin_trial0.csv").read_bytes() == b"an older run's telemetry\n"
    assert (out / "summary.csv").read_bytes() == b"an older run's summary\n"


@pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "later-solver-fails"])
def test_solve_leaves_no_process_or_thread_running(system_file, tmp_path, monkeypatch, fails):
    if fails:
        fail_hybrid_trial_one(monkeypatch)
    set_cpus(monkeypatch, 2)
    threads = threading.active_count()
    code = run_cli("solve", "--system", str(system_file), "--solver", "motzkin", "--solver", "hybrid",
                   "--trials", "2", "--max-iterations", "30", "--seed", "0",
                   "--out", str(tmp_path / "runs"))
    assert code == (cli.NUMERICAL_ERROR if fails else 0)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_forked_tasks_run_one_blas_thread(system_file, tmp_path, monkeypatch):
    # the parent runs two OpenBLAS threads; every task of a forked solve reads
    # one, and after its gemvs runs one OS thread, with no pool thread left
    openblas = linalg.bundled_openblas()
    if openblas is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count setter")
    pool_checked = hasattr(openblas, "blas_thread_shutdown_") and os.path.exists("/proc/self/stat")
    threads, continue_ = openblas.scipy_openblas_get_num_threads64_(), solvers._continue
    read_path = tmp_path / "threads.txt"

    def reading(*args, **kwargs):  # each trial's task appends its process and its thread counts
        result = continue_(*args, **kwargs)
        with open(read_path, "a") as fh:
            fh.write(f"{os.getpid()} {openblas.scipy_openblas_get_num_threads64_()} "
                     f"{os_threads() if pool_checked else 1}\n")
        return result

    monkeypatch.setattr(solvers, "_continue", reading)
    set_cpus(monkeypatch, 2)
    openblas.scipy_openblas_set_num_threads64_(2)
    try:
        assert openblas.scipy_openblas_get_num_threads64_() == 2
        if pool_checked:
            assert os_threads() == 2  # the parent runs a pool thread
        assert run_cli("solve", "--system", str(system_file), "--solver", "rk-uniform", "--trials", "2",
                       "--max-iterations", "30", "--seed", "0", "--out", str(tmp_path / "runs")) == 0
        assert openblas.scipy_openblas_get_num_threads64_() == 2
    finally:
        openblas.scipy_openblas_set_num_threads64_(threads)
    read = [line.split() for line in read_path.read_text().splitlines()]
    assert len(read) == 2 and all(pid != str(os.getpid()) and count == "1" and os_count == "1"
                                  for pid, count, os_count in read), read


def test_solve_forks_from_a_parent_of_one_os_thread(system_file, tmp_path, monkeypatch):
    # a proxy for Python 3.12's DeprecationWarning on a fork with other
    # threads: the parent has one OS thread at each fork, although its
    # OpenBLAS pool ran a second one just before
    openblas = linalg.bundled_openblas()
    if (openblas is None or not hasattr(openblas, "blas_thread_shutdown_")
            or not hasattr(os, "register_at_fork") or not os.path.exists("/proc/self/stat")):
        pytest.skip("needs numpy's bundled OpenBLAS with its pool shutdown, os.register_at_fork and /proc")
    threads = openblas.scipy_openblas_get_num_threads64_()
    set_cpus(monkeypatch, 2)
    openblas.scipy_openblas_set_num_threads64_(2)
    AT_FORK["threads"].clear()
    try:
        np.ones((10000, 100)) @ np.ones(100)  # a gemv that OpenBLAS splits over its pool
        assert os_threads() == 2
        with forced_split() as splits:  # a run whose gemvs split leaves no thread behind
            solvers.run(systems.load_system(system_file), SelectionRule("motzkin"), StopRule(20))
        assert splits and os_threads() == 2
        AT_FORK["on"] = True
        assert run_cli("solve", "--system", str(system_file), "--solver", "rk-uniform", "--trials", "2",
                       "--max-iterations", "30", "--seed", "0", "--out", str(tmp_path / "runs")) == 0
    finally:
        AT_FORK["on"] = False
        openblas.scipy_openblas_set_num_threads64_(threads)
        openblas.blas_thread_shutdown_()  # the setter may start a pool; a later gemv restarts it
    assert AT_FORK["threads"] == [1, 1]
    # the reader counts any other thread the parent holds, so the proxy can fail
    helper_stop = threading.Event()
    helper = threading.Thread(target=helper_stop.wait)
    helper.start()
    try:
        assert os_threads() == 2
    finally:
        helper_stop.set()
        helper.join()


def test_system_files_do_not_depend_on_the_callers_blas_threads(tmp_path):
    # at 10000x100 gelsd's bits differ between one and two OpenBLAS threads;
    # generate and netlib-prep write the same bytes whichever the caller runs
    openblas = linalg.bundled_openblas()
    if openblas is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count setter")
    threads = openblas.scipy_openblas_get_num_threads64_()
    written, solved = {}, {}
    try:
        for count in (1, 2):
            openblas.scipy_openblas_set_num_threads64_(count)
            gauss, band = tmp_path / f"gauss-{count}.sys", tmp_path / f"band-{count}.sys"
            assert run_cli("generate", "--kind", "gaussian-noise", "--m", "10000", "--n", "100",
                           "--noise-std", "0.01", "--seed", "1", "--out", str(gauss)) == 0
            assert run_cli("netlib-prep", "--mps", str(DATA / "bandm_style.mps"), "--seed", "5",
                           "--out", str(band)) == 0
            assert openblas.scipy_openblas_get_num_threads64_() == count
            written[count] = gauss.read_bytes(), band.read_bytes()
            sys_ = systems.load_system(tmp_path / "gauss-1.sys")
            solved[count] = linalg.lstsq(sys_.a, sys_.b)
    finally:
        openblas.scipy_openblas_set_num_threads64_(threads)
    if all(np.array_equal(one, two) for one, two in zip(solved[1], solved[2])):
        pytest.skip("gelsd gives equal bits at one and two threads here, so the thread count shows nowhere")
    assert written[1] == written[2]


@pytest.mark.parametrize("raised, code", [(None, 0), (ValueError, cli.CONFIG_ERROR),
                                          (OverflowError, cli.NUMERICAL_ERROR)])
def test_timing_solves_at_one_blas_thread_and_gives_the_count_back(system_file, tmp_path, monkeypatch,
                                                                   raised, code):
    # time.process_time counts every thread, so timing's solves run with no
    # pool thread; main restores the caller's count however the command ends
    openblas = linalg.bundled_openblas()
    if openblas is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count setter")
    pool_checked = hasattr(openblas, "blas_thread_shutdown_") and os.path.exists("/proc/self/stat")
    threads, time_to_threshold, read = openblas.scipy_openblas_get_num_threads64_(), solvers.time_to_threshold, []

    def reading(*args, **kwargs):
        read.append((openblas.scipy_openblas_get_num_threads64_(), os_threads() if pool_checked else 1))
        if raised:
            raise raised("raised by the test")
        return time_to_threshold(*args, **kwargs)

    monkeypatch.setattr(solvers, "time_to_threshold", reading)
    openblas.scipy_openblas_set_num_threads64_(2)
    try:
        np.ones((10000, 100)) @ np.ones(100)  # a gemv that OpenBLAS splits over its pool
        assert run_cli("timing", "--system", str(system_file), "--trials", "2", "--seed", "0",
                       "--out", str(tmp_path / "timing")) == code
        assert openblas.scipy_openblas_get_num_threads64_() == 2
    finally:
        openblas.scipy_openblas_set_num_threads64_(threads)
    assert read == [(1, 1)] * (1 if raised else 2)


def test_first_failure_in_solver_and_trial_order_is_named(system_file, tmp_path, capsys, monkeypatch):
    # rk-uniform trial 1 fails last in time, and first in (solver, trial) order
    out = tmp_path / "runs"
    fails = {("rk-uniform", 1): ("late", 0.3), ("rk-uniform", 2): ("early", 0),
             ("hybrid", 0): ("early", 0), ("hybrid", 1): ("early", 0)}
    continue_ = solvers._continue

    def failing(sys_, rule, stop, state, seed, telemetry):
        if (rule.kind, seed) in fails:
            message, seconds = fails[rule.kind, seed]
            time.sleep(seconds)
            raise OverflowError(message)
        return continue_(sys_, rule, stop, state, seed, telemetry)

    monkeypatch.setattr(solvers, "_continue", failing)
    set_cpus(monkeypatch, 4)
    code = run_cli("solve", "--system", str(system_file), "--solver", "rk-uniform", "--solver", "hybrid",
                   "--trials", "3", "--max-iterations", "30", "--seed", "0", "--out", str(out))
    assert code == cli.NUMERICAL_ERROR
    assert capsys.readouterr().err == "numerical failure: rk-uniform trial 1: late\n"
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_solve_bytes_do_not_depend_on_jobs(system_file, tmp_path, monkeypatch, jobs):
    # three solvers, three trials: rk-uniform trials stop at the threshold, and hybrid ones switch
    def solve(out, cpus):
        set_cpus(monkeypatch, cpus)
        assert run_cli("solve", "--system", str(system_file), "--solver", "motzkin", "--solver", "rk-uniform",
                       "--solver", "hybrid", "--trials", "3", "--hybrid-threshold", "0.3",
                       "--stop-residual-inf", "0.2", "--max-iterations", "300", "--seed", "4",
                       "--out", str(out)) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    got, serial = solve(tmp_path / "got", jobs), solve(tmp_path / "serial", 1)
    assert got == serial and len(got) == 10
    sys_ = systems.load_system(system_file)
    rules = [SelectionRule("motzkin"), SelectionRule("rk-uniform"), SelectionRule("hybrid", 0.3)]
    for rule in rules:
        for trial in range(3):
            result = solvers.run(sys_, rule, StopRule(300, 0.2), seed=4 + trial)
            solvers.write_telemetry_csv(tmp_path / "library.csv", result.records)
            assert got[f"{rule.kind}_trial{trial}.csv"] == (tmp_path / "library.csv").read_bytes()
    with open(tmp_path / "got" / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["solver"], r["trial"]) for r in rows] == [(rule.kind, str(t)) for rule in rules for t in range(3)]
    assert {r["stop_reason"] for r in rows if r["solver"] == "rk-uniform"} == {"residual-threshold"}
    hybrid = solvers.run(sys_, rules[2], StopRule(300, 0.2), seed=4)
    assert hybrid.switch_iteration == 7


def forbid_processes_and_threads(monkeypatch):
    def no_thread(self):
        raise AssertionError("a thread was started")

    def no_process(*args):
        raise AssertionError("a process was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    monkeypatch.setattr(os, "fork", no_process)


def test_only_run_splits_its_gemvs(system_file, tmp_path, monkeypatch):
    # past the gate, on four CPUs: time_to_threshold measures process time,
    # and solve's tasks (here one, so inline) call _head and _continue
    set_cpus(monkeypatch, 4)
    monkeypatch.setattr(solvers, "SCREEN_BYTES", 0)
    forbid_processes_and_threads(monkeypatch)
    sys_ = systems.load_system(system_file)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "blas_threads", lambda: 1)  # main sets it for the commands below
        for kind in ("motzkin", "rk-uniform"):
            solvers.time_to_threshold(sys_, SelectionRule(kind), 4 * sys_.error_inf(), trials=2, seed=1)
    for solver in solvers.SELECTION_KINDS:
        assert run_cli("solve", "--system", str(system_file), "--solver", solver, "--max-iterations", "100",
                       "--seed", "1", "--out", str(tmp_path / "runs")) == 0


def test_one_job_starts_no_thread(system_file, tmp_path, monkeypatch):
    set_cpus(monkeypatch, 1)
    forbid_processes_and_threads(monkeypatch)
    assert run_cli("solve", "--system", str(system_file), "--solver", "motzkin", "--solver", "rk-uniform",
                   "--solver", "hybrid", "--trials", "3", "--max-iterations", "50", "--seed", "1",
                   "--out", str(tmp_path / "runs")) == 0


def test_one_trial_starts_no_thread_on_four_cpus(system_file, tmp_path, monkeypatch):
    # one solver and one trial are one task each: the workers are capped at solvers x trials
    set_cpus(monkeypatch, 4)
    forbid_processes_and_threads(monkeypatch)
    assert run_cli("solve", "--system", str(system_file), "--solver", "hybrid", "--max-iterations", "50",
                   "--seed", "1", "--out", str(tmp_path / "runs")) == 0


def test_failed_head_stops_the_later_solvers_trials(tmp_path, capsys, monkeypatch):
    # motzkin's head overflows; rk-uniform comes after it in --solver order, so
    # none of its trials is computed, and the failure is named as before
    calls, continue_ = [], solvers._continue

    def counting(*args, **kwargs):
        calls.append(args[1].kind)
        return continue_(*args, **kwargs)

    monkeypatch.setattr(solvers, "_continue", counting)
    set_cpus(monkeypatch, 1)
    system, out = pure_noise_system(tmp_path, "1e200"), tmp_path / "runs"
    [line] = overflowing_solve(system, out, capsys, "--solver", "motzkin", "--solver", "rk-uniform",
                               "--trials", "3")
    assert line.startswith("numerical failure: motzkin trial 0: " + OVERFLOW_AT_0)
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_failed_trial_stops_the_later_tasks_in_solver_and_trial_order(system_file, tmp_path, capsys,
                                                                      monkeypatch, cpus):
    # at one CPU both heads are done before any trial: hybrid's trials come
    # first, in --solver order, and none is computed after its trial 1 fails
    set_cpus(monkeypatch, cpus)
    calls = fail_hybrid_trial_one(monkeypatch)
    out = tmp_path / "runs"
    out.mkdir()
    (out / "hybrid_trial0.csv").write_bytes(b"an older run's telemetry\n")
    code = run_cli("solve", "--system", str(system_file), "--solver", "hybrid", "--solver", "rk-uniform",
                   "--trials", "3", "--max-iterations", "30", "--seed", "0", "--out", str(out))
    assert code == cli.NUMERICAL_ERROR
    assert capsys.readouterr().err == "numerical failure: hybrid trial 1: int too large to convert to float\n"
    assert [p.name for p in out.iterdir()] == ["hybrid_trial0.csv"]
    assert (out / "hybrid_trial0.csv").read_bytes() == b"an older run's telemetry\n"
    # forked workers make their calls in their own processes
    assert calls == ([("hybrid", 0), ("hybrid", 1)] if cpus == 1 else [])


def test_solve_tasks_pass_run_results_and_no_residual(system_file, tmp_path):
    # what crosses the fork: a head's RunResult with its records as text, and
    # a trial's without its records; the one vector in either is x, of n entries
    sys_, stop = systems.load_system(system_file), StopRule(40)
    for rule in (SelectionRule("motzkin"), SelectionRule("rk-uniform"), SelectionRule("hybrid", 0.3)):
        head = cli._head_task(sys_, rule, stop)
        trial = cli._trial_task(sys_, rule, stop, head, 2, tmp_path / "trial.csv")
        ref = solvers.run(sys_, rule, stop, seed=2)
        assert isinstance(head, solvers.RunResult) and isinstance(trial, solvers.RunResult)
        assert isinstance(head.records, bytes) and trial.records == []
        assert head.x.shape == trial.x.shape == (sys_.n,)
        assert trial.x.tobytes() == ref.x.tobytes()
        assert (trial.iteration, trial.stop_reason, trial.switch_iteration) == \
            (ref.iteration, ref.stop_reason, ref.switch_iteration)
        assert (trial.switch_iteration is not None) == (rule.kind == "hybrid")


def test_solve_without_an_affinity_call_runs_inline(system_file, tmp_path, monkeypatch):
    # as on macOS and Windows: no process or thread, and the bytes of solvers.run
    monkeypatch.delattr(os, "sched_getaffinity")
    forbid_processes_and_threads(monkeypatch)
    out = tmp_path / "runs"
    assert run_cli("solve", "--system", str(system_file), "--solver", "motzkin", "--solver", "rk-uniform",
                   "--solver", "hybrid", "--trials", "2", "--hybrid-threshold", "0.3",
                   "--max-iterations", "100", "--seed", "3", "--out", str(out)) == 0
    sys_, rows = systems.load_system(system_file), []
    for rule in (SelectionRule("motzkin"), SelectionRule("rk-uniform"), SelectionRule("hybrid", 0.3)):
        for trial in range(2):
            result = solvers.run(sys_, rule, StopRule(100), seed=3 + trial)
            solvers.write_telemetry_csv(tmp_path / "library.csv", result.records)
            assert (out / f"{rule.kind}_trial{trial}.csv").read_bytes() == \
                (tmp_path / "library.csv").read_bytes()
            diff = result.x - sys_.reference
            rows.append([rule.kind, str(trial), str(result.iteration),
                         repr(float(np.dot(diff, diff))), result.stop_reason])
    with open(out / "summary.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == rows


def test_motzkin_selects_the_largest_residual_when_squares_underflow(tmp_path):
    # residual entries near 1e-170: their squares are zero or subnormal
    system, out = pure_noise_system(tmp_path, "1e-170"), tmp_path / "runs"
    assert run_cli("solve", "--system", str(system), "--max-iterations", "20", "--seed", "0",
                   "--out", str(out)) == 0
    sys_ = systems.load_system(system)
    x = np.zeros(sys_.n)
    records = solvers.read_telemetry_csv(out / "motzkin_trial0.csv")
    assert len(records) == 20
    for rec in records:
        r = np.abs(sys_.a @ x - sys_.b)
        assert (rec.selected_row, rec.residual_inf) == (int(np.argmax(r)), float(r.max()))
        x = solvers.project_step(sys_, x, rec.selected_row)


def test_kahan_type_system_is_numerical_error(tmp_path, capsys, monkeypatch):
    # a rank test on the QR diagonal passed this system, with reference entries of 4e14
    monkeypatch.setattr(systems, "build_unnormalized", lambda spec: kahan_type_pair())
    out = tmp_path / "kahan.sys"
    code = run_cli("generate", "--kind", "gaussian-noise", "--seed", "1", "--out", str(out))
    assert code == cli.NUMERICAL_ERROR
    assert "depends on the columns before it" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    *[["generate", "--kind", kind, "--m", "120", "--n", "9", "--noise-std", "0.1",
       "--spike-count", "5", "--spike-magnitude", "3", "--seed", "4"] for kind in systems.GENERATOR_KINDS],
    ["netlib-prep", "--mps", str(DATA / "bandm_style.mps"), "--seed", "5"],
], ids=[*systems.GENERATOR_KINDS, "netlib-prep"])
def test_stored_sigma_min_is_the_svd_sigma_min(tmp_path, argv):
    out = tmp_path / "s.sys"
    assert run_cli(*argv, "--out", str(out)) == 0
    sys_ = systems.load_system(out)
    assert sys_.singular_values[-1] == pytest.approx(linalg.min_singular_value(sys_.a), rel=1e-12)


def counted(monkeypatch, names=("lstsq", "svd", "qr", "solve", "cholesky", "eigh", "eigvalsh")):
    """Record every call of the named numpy.linalg factorizations."""
    calls = []
    for name in names:
        def wrapper(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


def test_one_factorization_per_system_and_none_in_bounds(system_file, tmp_path, monkeypatch):
    calls = counted(monkeypatch)
    assert run_cli("generate", "--kind", "gaussian-noise", "--m", "80", "--n", "8",
                   "--seed", "7", "--out", str(tmp_path / "g.sys")) == 0
    assert calls == ["lstsq"]
    calls.clear()
    assert run_cli("netlib-prep", "--mps", str(DATA / "bandm_style.mps"), "--seed", "5",
                   "--out", str(tmp_path / "n.sys")) == 0
    assert calls == ["lstsq", "lstsq"]  # the least-norm step, then the stacked system
    calls.clear()
    assert run_cli("bounds", "--system", str(system_file), "--out", str(tmp_path / "curves")) == 0
    assert calls == []


def test_two_record_system_file_is_config_error(system_file, tmp_path, capsys):
    # the format before singular values were stored: [A | b], then the reference
    sys_ = systems.load_system(system_file)
    old = tmp_path / "old.sys"
    with open(old, "wb") as fh:
        np.save(fh, np.column_stack([sys_.a, sys_.b]), allow_pickle=False)
        np.save(fh, sys_.reference, allow_pickle=False)
    out = tmp_path / "runs"
    code = run_cli("solve", "--system", str(old), "--seed", "1", "--out", str(out))
    assert code == cli.CONFIG_ERROR
    assert "regenerate it" in capsys.readouterr().err
    assert not out.exists()


def test_mps_parse_failure_is_config_error(tmp_path):
    bad = tmp_path / "broken.mps"
    bad.write_text("NAME B\nROWS\n E R1\nNOTASECTION\nENDATA\n")
    code = run_cli("netlib-prep", "--mps", str(bad), "--seed", "1",
                   "--out", str(tmp_path / "x.txt"))
    assert code == cli.CONFIG_ERROR


def test_mps_duplicate_row_is_config_error(tmp_path, capsys):
    bad = tmp_path / "dup.mps"
    bad.write_text("NAME D\nROWS\n E R1\n E R1\nCOLUMNS\n X1 R1 1.0\n X2 R1 1.0\n X3 R1 1.0\nENDATA\n")
    code = run_cli("netlib-prep", "--mps", str(bad), "--seed", "1",
                   "--out", str(tmp_path / "x.txt"))
    assert code == cli.CONFIG_ERROR
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", "False", "NO", "0"])
def test_config_false_leaves_store_true_flag_off(system_file, tmp_path, value):
    config = tmp_path / "b.cfg"
    config.write_text(f"empirical-gamma = {value}\n")
    out = tmp_path / "curves"
    assert run_cli("bounds", "--config", str(config), "--system", str(system_file),
                   "--out", str(out)) == 0
    assert not (out / "motzkin_empirical_gamma.csv").exists()


@pytest.mark.parametrize("value", ["true", "TRUE", "Yes", "1"])
def test_config_true_turns_store_true_flag_on(system_file, tmp_path, capsys, value):
    config = tmp_path / "b.cfg"
    config.write_text(f"empirical-gamma = {value}\n")
    code = run_cli("bounds", "--config", str(config), "--system", str(system_file),
                   "--out", str(tmp_path / "curves"))
    assert code == cli.CONFIG_ERROR
    assert "--empirical-gamma requires --telemetry" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["maybe", "", "on", "2"])
def test_config_boolean_rejects_other_words(system_file, tmp_path, capsys, value):
    config = tmp_path / "b.cfg"
    config.write_text(f"empirical-gamma = {value}\n")
    out = tmp_path / "curves"
    code = run_cli("bounds", "--config", str(config), "--system", str(system_file),
                   "--out", str(out))
    assert code == cli.CONFIG_ERROR
    assert "'empirical_gamma' takes true/false/1/0/yes/no" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "gaussian-noise", "--m", "20", "--n", "2", "--seed", "-2"],
    ["netlib-prep", "--mps", str(DATA / "bandm_style.mps"), "--seed", "-1"],
    ["solve", "--system", SYSTEM, "--seed", "-1"],
    ["solve", "--system", SYSTEM, "--trials", "3", "--seed", str(2**64 - 2)],
    ["timing", "--system", SYSTEM, "--seed", "-1"],
    ["timing", "--system", SYSTEM, "--trials", "2", "--seed", str(2**64 - 1)],
])
def test_out_of_range_seed_is_config_error(system_file, tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [str(system_file) if arg == SYSTEM else arg for arg in argv]
    assert run_cli(*argv, "--out", str(out)) == cli.CONFIG_ERROR
    assert "is outside [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


def test_largest_seed_is_accepted(system_file, tmp_path):
    out = tmp_path / "runs"
    assert run_cli("solve", "--system", str(system_file),
                   "--solver", "rk-uniform", "--trials", "2", "--max-iterations", "5",
                   "--seed", str(2**64 - 2), "--out", str(out)) == 0
    assert (out / "rk-uniform_trial1.csv").exists()


@pytest.mark.parametrize("command, config_text, message", [
    ("timing", "solver = motzkin, hybrid\n", "argument --solver: invalid choice: 'hybrid'"),
    ("generate", "m = abc\n", "argument --m: invalid int value: 'abc'"),
], ids=["timing-solver", "generate-m"])
def test_config_values_checked_by_argparse_before_any_work(system_file, tmp_path, capsys,
                                                           command, config_text, message):
    config = tmp_path / "c.cfg"
    config.write_text(config_text)
    out = tmp_path / "out"
    source = (["--system", str(system_file)] if command == "timing" else
              ["--kind", "gaussian-noise", "--n", "4"])
    code = run_cli(command, "--config", str(config), *source, "--seed", "1", "--out", str(out))
    assert code == cli.CONFIG_ERROR
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("config", "missing.cfg"), ("help", "1"),
                                        ("empirical-gamma", "false")])
def test_config_key_that_is_not_a_user_flag_is_config_error(tmp_path, capsys, key, value):
    config = tmp_path / "gen.cfg"
    config.write_text(f"kind = gaussian-noise\nm = 20\nn = 2\nseed = 4\n{key} = {value}\n")
    out = tmp_path / "a.sys"
    code = run_cli("generate", "--config", str(config), "--out", str(out))
    assert code == cli.CONFIG_ERROR
    assert f"--{key}" in capsys.readouterr().err
    assert not out.exists()


def test_config_empty_solver_list_is_config_error(system_file, tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text("solver = ,\n")
    out = tmp_path / "runs"
    code = run_cli("solve", "--config", str(config), "--system", str(system_file),
                   "--seed", "1", "--out", str(out))
    assert code == cli.CONFIG_ERROR
    assert "argument --solver: invalid choice: ''" in capsys.readouterr().err
    assert not out.exists()


def test_commands_name_every_subcommand():
    assert "{" + ",".join(cli.COMMANDS) + "}" in cli.build_parser().format_usage()


@pytest.mark.parametrize("equals_form", [False, True])
def test_config_after_unknown_subcommand_is_left_to_argparse(tmp_path, capsys, equals_form):
    missing = str(tmp_path / "missing.cfg")
    code = run_cli("bogus", *([f"--config={missing}"] if equals_form else ["--config", missing]))
    assert code == cli.CONFIG_ERROR
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert "No such file" not in err


PARSER_CASES = [
    [],
    ["-h"],
    ["bogus", "--seed", "1"],
    ["generate", "--kind", "spiky-noise", "--m", "30", "--n", "3", "--spike-count", "2", "--seed", "1",
     "--out", "g.sys"],
    ["generate", "--kind", "bogus", "--seed", "1", "--out", "g.sys"],
    ["generate", "--help"],
    ["generate", "solve"],
    ["solve", "--system", "s.sys", "--solver", "hybrid", "--solver", "motzkin", "--trials", "3",
     "--hybrid-threshold", "0.5", "--seed", "2"],
    ["solve", "--system", "s.sys"],
    ["solve", "--sys", "s.sys", "--seed", "1"],
    ["solve", "--config", "{cfg}", "--system", "s.sys", "--seed", "9"],
    ["bounds", "--system", "s.sys", "--telemetry", "t.csv", "--empirical-gamma", "--iterations", "20"],
    ["bounds", "--system", "s.sys", "--unknown-flag"],
    ["bounds", "--config={bounds_cfg}"],
    ["netlib-prep", "--mps", "p.mps", "--seed", "1", "--out", "n.sys", "--noise-std", "0"],
    ["netlib-prep", "--mps", "p.mps", "--seed", "1", "--out", "n.sys", "--noise-std", "abc"],
    ["netlib-prep", "--config", "{cfg}", "--mps", "p.mps", "--out", "n.sys"],
    ["netlib-prep", "--config"],
    ["timing", "--system", "s.sys", "--threshold", "0.1", "--solver", "rk-uniform", "--seed", "4"],
    ["timing", "--system", "s.sys", "--solver", "hybrid", "--seed", "4"],
    ["timing", "--config", "{cfg}"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-args")
def test_main_parses_as_the_full_parser(argv, tmp_path, monkeypatch, capsys):
    """main builds only the invoked subcommand's arguments, yet gives the
    Namespace, exit code, stdout and stderr of the parser with all of them."""
    configs = {"{cfg}": "system = s.sys\nseed = 3\nsolver = motzkin, rk-uniform\n",
               "{bounds_cfg}": "system = s.sys\ntelemetry = t.csv\nempirical_gamma = yes\n"}
    for key, text in configs.items():
        (tmp_path / key.strip("{}")).write_text(text)
        argv = [arg.replace(key, str(tmp_path / key.strip("{}"))) for arg in argv]
    parsed = []
    for command in cli.COMMANDS:  # each records the Namespace it is called with
        name = "cmd_" + command.replace("-", "_")
        monkeypatch.setattr(cli, name, lambda args: parsed.append(args) or 0)

    def outcome():
        parsed.clear()
        code = cli.main(list(argv))
        return code, list(parsed), capsys.readouterr()

    lean = outcome()
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert lean == outcome()
    code, namespaces, _ = lean
    assert code != 0 or namespaces or argv[-1] in ("-h", "--help")  # a parse that ran reached its command
