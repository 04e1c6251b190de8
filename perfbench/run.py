"""rowaction benchmark: one workload, one seed, one measured run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload gauss-small --seed 1 --seconds 30 --trace 0

The program is imported from `src/` of the checkout. `--trace 0` measures
the end-to-end metrics; `--trace 1` measures the per-layer metrics of the
same pipeline (spans around every traced library call, plus per-iteration
microbenchmarks). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The lines before it give the
machine record, sample counts and the metrics that apply only to some
workloads. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: the measured machines have two cores shared with other
# work, and a single thread keeps run-to-run spread down. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


def import_program() -> None:
    """Put the checkout's src/ first on the path and make sure rowaction comes
    from there, never from an installed copy."""
    if not (SRC / "rowaction" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rowaction sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import rowaction
    if Path(rowaction.__file__).resolve().parent != SRC / "rowaction":
        raise SystemExit(f"perfbench: imported rowaction from {rowaction.__file__}, not {SRC}")


def machine_record(shape: tuple[int, int]) -> dict:
    import numpy as np
    l3 = None
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        value = libc.sysconf(194)  # glibc _SC_LEVEL3_CACHE_SIZE
        l3 = value if value > 0 else None
    except (OSError, AttributeError):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    m, n = shape
    return {
        "cores": len(os.sched_getaffinity(0)),
        "l3_mib": l3 / 2**20 if l3 else None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np) or BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "a_shape": [m, n],
        "a_mib": m * n * 8 / 2**20,
        "a_share_of_l3": m * n * 8 / l3 if l3 else None,
    }


def _blas_threads(np) -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles OpenBLAS."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def measure_untraced(pipes, wl, seconds: float) -> tuple[dict, dict]:
    for pipe in pipes:
        pipe.make_inputs()
    setup = [pipe.setup() for _ in range(wl.setup_reps) for pipe in pipes]
    for pipe in pipes:
        pipe.load_reference()
    # Whole cycles, one round per system, so every system weighs the same.
    cycles = _rounds(seconds, lambda: [p.round() for p in pipes])
    walls = [w for cycle in cycles for w in cycle]
    for pipe in pipes:
        pipe.check_against_library()
    stage = {k: statistics.median(w[k] for w in walls) for k in ("solve", "bounds", "timing")}
    motzkin = [s for p in pipes for s in p.tts_seconds["motzkin"]]
    rk = [s for p in pipes for s in p.tts_seconds["rk-uniform"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (stage["solve"], "s"),
        "bounds_s": (stage["bounds"], "s"),
        "timing_s": (stage["timing"], "s"),
        "pipeline_s": (statistics.median(setup) + sum(stage.values()), "s"),
        "tts_motzkin_s.p50": (statistics.median(motzkin), "s"),
        "tts_rk_s.p50": (statistics.median(rk), "s"),
        "iters_motzkin": (statistics.mean(i for p in pipes for i in p.tts_iters["motzkin"]), "count"),
        "iters_rk.mean": (statistics.mean(i for p in pipes for i in p.tts_iters["rk-uniform"]), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"systems": len(pipes), "rounds": len(walls), "setup_reps": len(setup),
             "tts_motzkin_samples": len(motzkin), "tts_rk_samples": len(rk),
             "raw": [p.raw for p in pipes]}
    # A tail percentile is reported only with at least ten samples beyond it.
    if len(rk) >= 100:
        extra["tts_rk_s.p90"] = statistics.quantiles(rk, n=10, method="inclusive")[8]
    return metrics, extra


def measure_traced(pipe, seconds: float, tracer) -> tuple[dict, dict]:
    from micro import microbenchmarks
    from spans import layer_metrics, worst_self_time_gap
    from workloads import STAGES

    pipe.make_inputs()
    pipe.setup()
    pipe.load_reference()

    def traced_pass():
        untraced = pipe.setup() + sum(pipe.round().values())
        mark = len(tracer.spans)
        with tracer.installed():
            traced = pipe.setup() + sum(pipe.round().values())
        worst = worst_self_time_gap(tracer, mark)
        pipe.tally.record(worst <= 1e-6, f"self times add up to each stage's wall (worst gap {worst:.2e} s)")
        layers = layer_metrics(tracer, mark, STAGES)
        layers["trace.overhead_s"] = traced - untraced
        return layers

    passes = _rounds(seconds, traced_pass)
    pipe.check_against_library()
    layers = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    layers.update(microbenchmarks(pipe.system, pipe.wl.micro_iters, pipe.seed))
    metrics = {k: (v, _layer_unit(k)) for k, v in layers.items()}
    return metrics, {"traced_passes": len(passes), "spans": len(tracer.spans)}


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"s": "s", "self_s": "s", "overhead_s": "s", "us": "us", "us_per_iter": "us",
            "ref": "us", "noref": "us", "gbps": "GB/s", "mb": "MB", "lines_per_s": "1/s",
            "censored_frac": "ratio"}.get(suffix, "count")


def _rounds(seconds: float, body) -> list:
    """Call body() until `seconds` have passed, always at least once, never
    starting a call that the previous one says would overrun."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from spans import Tracer
    from speed import SpeedProbe, Unscaled
    from workloads import WORKLOADS, Pipeline, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    tally = Tally()
    tracer = Tracer(wl.name)
    speed = Unscaled() if args.trace else SpeedProbe()
    # A traced run follows the first input system only.
    pipes = [Pipeline(wl, args.seed * wl.systems + k, workdir / f"system{k}", tracer, tally, speed)
             for k in range(1 if args.trace else wl.systems)]
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, extra = measure_traced(pipes[0], args.seconds, tracer)
            tracer.write(OUT / f"spans-{tag}.jsonl")
        else:
            metrics, extra = measure_untraced(pipes, wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra["error_rate"] = tally.failed / tally.attempted
    extra["run_s"] = time.perf_counter() - started
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "machine": machine_record(wl.shape), **extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"perfbench {tag}: " + json.dumps(report["machine"]))
    print(" ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                   for k, v in extra.items() if not isinstance(v, (dict, list))))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
