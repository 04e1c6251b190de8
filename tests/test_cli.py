import csv
from pathlib import Path

import numpy as np
import pytest

from rowaction import cli, linalg, solvers, systems
from rowaction.solvers import SelectionRule, StopRule

from test_systems import kahan_type_pair

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    return cli.main(list(argv))


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
        return solvers.run(sys_, SelectionRule("motzkin"), stop).state.iteration

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
                                       error_sq=None)
               for k in range(4)]
    telemetry = tmp_path / "telemetry.csv"
    solvers.write_telemetry_csv(telemetry, records)
    out = tmp_path / "curves"
    code = run_cli("bounds", "--system", str(system_file), "--iterations", "4",
                   "--telemetry", str(telemetry), "--empirical-gamma", "--out", str(out))
    assert code == 0
    with open(out / "motzkin_empirical_gamma.csv") as fh:
        assert [int(r["k"]) for r in csv.DictReader(fh)] == [0, 1, 2]


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


def test_bounds_negative_iterations_is_config_error(system_file, tmp_path, capsys):
    code = run_cli("bounds", "--system", str(system_file), "--iterations", "-1",
                   "--out", str(tmp_path))
    assert code == cli.CONFIG_ERROR
    assert "num_iterations" in capsys.readouterr().err


def test_bounds_empirical_gamma_requires_telemetry(system_file, tmp_path):
    code = run_cli("bounds", "--system", str(system_file), "--empirical-gamma",
                   "--out", str(tmp_path))
    assert code == cli.CONFIG_ERROR


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


def test_config_file_unknown_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("bogus = 1\n")
    code = run_cli("generate", "--config", str(config), "--kind", "gaussian-noise",
                   "--seed", "1", "--out", str(tmp_path / "x.txt"))
    assert code == cli.CONFIG_ERROR


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


def test_telemetry_overflow_is_numerical_error(tmp_path, capsys):
    # residual entries near 1e200: their squares pass the float range
    system, out = pure_noise_system(tmp_path, "1e200"), tmp_path / "runs"
    with pytest.warns(RuntimeWarning, match="overflow"):  # numpy's, in the squared norms
        code = run_cli("solve", "--system", str(system), "--max-iterations", "3", "--seed", "0",
                       "--out", str(out))
    assert code == cli.NUMERICAL_ERROR
    assert "numerical failure: motzkin trial 0: " in capsys.readouterr().err
    # the first solver fails before its first file, so --out is never made
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = run_cli("solve", "--system", str(system), "--solver", "rk-uniform", "--solver", "motzkin",
                       "--max-iterations", "3", "--seed", "0", "--out", str(out))
    assert code == cli.NUMERICAL_ERROR
    assert "numerical failure: rk-uniform trial 0: " in capsys.readouterr().err
    assert not out.exists()


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


SYSTEM = "<system file>"  # stands for the system_file fixture in parametrized argv


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
