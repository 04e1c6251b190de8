import csv
import hashlib
import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_cover_every_output_and_repeat(digests, tmp_path, capsys, monkeypatch):
    # the machine's CPUs, one, three, and none known, as where os has no
    # sched_getaffinity (macOS, Windows): the list depends on none of them
    workers, pool = [], digests.cli.futures.ProcessPoolExecutor

    def spy(max_workers, *args):
        workers.append(max_workers)
        return pool(max_workers, *args)

    monkeypatch.setattr(digests.cli.futures, "ProcessPoolExecutor", spy)
    runs = []
    for name, cpus in (("a", None), ("b", 1), ("c", 3), ("d", 0)):
        if cpus == 0:
            monkeypatch.delattr(os, "sched_getaffinity")
        elif cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        workers.clear()
        assert digests.main(["--out", str(tmp_path / name)]) == 0
        runs.append(capsys.readouterr().out.splitlines())
        # every solve, the README's included, forks one worker per CPU, or
        # none on one CPU or with no affinity call
        if cpus is not None:
            assert workers == ([] if cpus <= 1 else [cpus] * 11)
    assert runs[0] == runs[1] == runs[2] == runs[3]
    *lines, last = runs[0]
    assert lines == sorted(lines)
    assert last == "list " + hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    out = tmp_path / "a"
    paths = [line.split()[0] for line in lines]
    assert sorted(paths) == sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert {"solve-gauss-stop/hybrid_trial2.csv", "bounds-bandm/motzkin_empirical_gamma.csv",
            "timing-gauss-censored/timing.csv", "large.sys", "solve-large-stop/hybrid_trial1.csv",
            "bounds-large/motzkin_empirical_gamma.csv", "timing-large/timing.csv", "slabs.sys",
            "solve-slabs-stop/rk-uniform_trial1.csv",
            "bounds-slabs/motzkin_empirical_gamma.csv", "bounds-gauss-2000/gaussian_rate.csv",
            "banded-1.sys", "banded-2.sys", "readme/gauss.sys", "readme/band.sys",
            "readme/runs/hybrid_trial2.csv", "readme/runs/summary.csv",
            "readme/curves/motzkin_empirical_gamma.csv", "readme/timing/timing.csv"} <= set(paths)
    # 18 of the 144 files come from the README's examples, which leave no link to tests/data behind
    assert len(paths) == 144 and sum(path.startswith("readme/") for path in paths) == 18
    assert not (out / "readme" / "tests").exists()
    # randomized-Kaczmarz trials stop at 4 ||e||_inf across the slabs, and curves have 2001 points
    with open(out / "solve-slabs-stop" / "summary.csv", newline="") as fh:
        assert {row["stop_reason"] for row in csv.DictReader(fh)
                if row["solver"] == "rk-uniform"} == {"residual-threshold"}
    assert len((out / "bounds-gauss-2000" / "rk_bound.csv").read_bytes().splitlines()) == 1 + 2001


def test_digests_refuse_a_directory_with_files(digests, tmp_path):
    (tmp_path / "old.csv").write_text("x\n")
    with pytest.raises(SystemExit) as exc:
        digests.main(["--out", str(tmp_path)])
    assert exc.value.code == 2


def test_timing_digest_leaves_out_mean_seconds(digests, tmp_path):
    header = "problem,solver,mean_seconds,mean_iterations,trials,censored\r\n"

    def timing_digest(row):
        path = tmp_path / f"{len(list(tmp_path.iterdir()))}" / "timing.csv"
        path.parent.mkdir()
        path.write_text(header + row + "\r\n", newline="")
        return digests.digest(path)

    assert timing_digest("g,rk-uniform,0.004422,603.67,3,0") == timing_digest("g,rk-uniform,0.1,603.67,3,0")
    assert timing_digest("g,rk-uniform,0.004422,603.67,3,0") != timing_digest("g,rk-uniform,0.004422,603.33,3,0")
