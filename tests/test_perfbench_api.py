"""The benchmark in perfbench/ calls the library by name and stays unchanged
between benchmark revisions, so a change to the library must keep every name
it uses. These tests read perfbench's modules and never edit them."""

import ast
import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from rowaction import cli, solvers, systems

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, monkeypatch):
    """Import perfbench/<name>.py without writing a bytecode cache beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_exist(monkeypatch):
    spans = load("spans", monkeypatch)
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in spans.TARGETS
               if not hasattr(module, attr)]
    assert not missing, f"perfbench/spans.py wraps names the library no longer has: {missing}"


@pytest.mark.parametrize("name", ["micro", "workloads"])
def test_module_attributes_the_benchmark_reads_exist(name):
    tree = ast.parse((PERFBENCH / f"{name}.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "rowaction"
                for alias in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in imported}
    missing = sorted(f"{module}.{attr}" for module, attr in used
                     if not hasattr(importlib.import_module(f"rowaction.{module}"), attr))
    assert not missing, f"perfbench/{name}.py reads names the library no longer has: {missing}"


def test_microbenchmarks_and_run_results(monkeypatch):
    # micro.py calls run(...).state.x, LinearSystem.residual, linalg.norm_inf,
    # select_motzkin, make_rng and project_step; one pass on a small system
    micro = load("micro", monkeypatch)
    monkeypatch.setattr(micro, "BATCH_SECONDS", 0.0)
    monkeypatch.setattr(micro, "BATCHES", 1)
    monkeypatch.setattr(micro, "RUN_REPEATS", 1)
    sys_ = systems.generate(systems.GeneratorSpec("gaussian-noise", m=40, n=4, noise_std=0.01, seed=3))
    out = micro.microbenchmarks(sys_, run_iterations=3, seed=1)
    assert all(np.isfinite(v) for v in out.values())
    # what workloads.py reads from a run
    result = solvers.run(sys_, solvers.SelectionRule("rk-uniform"), solvers.StopRule(5), seed=1)
    assert (result.state.iteration, result.stop_reason, len(result.records)) == \
        (5, solvers.STOP_MAX_ITERATIONS, 5)
    assert result.state.x.shape == (sys_.n,)
    assert result.state is result  # no second type and no copy


def test_stacked_system_checks_pass(monkeypatch, tmp_path):
    # Pipeline._check_stacked reads .a, .b, .reference and .error_vec of a
    # loaded system and of an overdetermine result; load_reference runs it
    # without the tracer or the speed probe
    workloads = load("workloads", monkeypatch)
    wl = dataclasses.replace(workloads.WORKLOADS["netlib-stacked"], mps_rows=6, mps_cols=10, mps_band=3)
    tally = workloads.Tally()
    pipeline = workloads.Pipeline(wl, 5, tmp_path / "work", tracer=None, tally=tally, speed=None)
    pipeline.make_inputs()
    assert cli.main(["netlib-prep", "--mps", str(pipeline.mps_path),
                     "--noise-std", str(workloads.TRANSFORM_NOISE_STD), "--seed", "5",
                     "--out", str(pipeline.system_path)]) == 0
    pipeline.load_reference()
    assert tally.attempted > 0 and tally.failed == 0


def test_parallel_solve_keeps_every_span_on_the_main_thread(monkeypatch, tmp_path):
    # the tracer keeps one span stack; a span opened on a worker thread would
    # break the nesting that the --trace 1 self-time check relies on
    spans = load("spans", monkeypatch)
    system = tmp_path / "sys.bin"
    assert cli.main(["generate", "--kind", "gaussian-noise", "--m", "300", "--n", "20",
                     "--noise-std", "0.01", "--seed", "2", "--out", str(system)]) == 0

    def traced_solve(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        tracer = spans.Tracer("test")
        with tracer.installed(), tracer.span("cli.solve"):
            assert cli.main(["solve", "--system", str(system), "--solver", "motzkin", "--solver", "rk-uniform",
                             "--solver", "hybrid", "--trials", "3", "--max-iterations", "400", "--seed", "1",
                             "--out", str(tmp_path / "runs")]) == 0
        return tracer, [s for s in tracer.spans if s.name == "solvers.write_telemetry_csv"]

    # at one CPU the traced process writes every file; at two the workers
    # do, so their write spans stay in the workers
    tracer, writes = traced_solve(1)
    assert len(writes) == 9 and all(s.parent == 0 for s in writes)
    tracer, writes = traced_solve(2)
    assert writes == []
    assert spans.worst_self_time_gap(tracer, 0) <= 1e-6
