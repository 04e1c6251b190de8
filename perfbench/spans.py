"""In-memory span tracing around the public functions of each rowaction module.

Tracing lives entirely in the benchmark: `Tracer.installed()` swaps selected
module attributes for timing wrappers and puts the originals back on exit,
so the program under test is never edited. Call sites inside the package
look these names up through the module at call time (`linalg.least_squares`
in `systems`, `run` inside `solvers.time_to_threshold`), so nested calls are
traced too.

Per-iteration functions (`select_motzkin`, `project_step`) are deliberately
not wrapped: a wrapper per iteration would dominate the step it measures.
The microbenchmarks in `micro.py` time them instead.
"""

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field

from rowaction import bounds, linalg, mps, solvers, systems

MODULES = ("linalg", "systems", "solvers", "bounds", "mps", "bench")


def _path_arg(args, kwargs, result):
    return {"path": str(args[0])}


# (module, attribute, span name, note): note(args, kwargs, result) returns the
# counts recorded on the span; it runs after the span closes.
TARGETS = (
    (linalg, "min_singular_value", "linalg.min_singular_value", None),
    (linalg, "least_squares", "linalg.least_squares", None),
    (linalg, "least_norm", "linalg.least_norm", None),
    (systems, "generate", "systems.generate", None),
    (systems, "save_system", "systems.save_system", _path_arg),
    (systems, "load_system", "systems.load_system", None),
    (solvers, "run", "solvers.run",
     lambda a, k, r: {"iters": r.state.iteration, "switch_k": r.switch_iteration}),
    (solvers, "time_to_threshold", "solvers.time_to_threshold",
     lambda a, k, r: {"censored": r.censored, "trials": r.trials}),
    (solvers, "write_telemetry_csv", "solvers.write_telemetry_csv",
     lambda a, k, r: {"rows": len(a[1])}),
    (solvers, "read_telemetry_csv", "solvers.read_telemetry_csv", None),
    (bounds, "bound_inputs_from_system", "bounds.bound_inputs_from_system", None),
    (bounds, "rk_bound", "bounds.curves", None),
    (bounds, "motzkin_bound_worst_case", "bounds.curves", None),
    (bounds, "motzkin_bound_empirical_gamma", "bounds.curves", None),
    (bounds, "gaussian_rate_bound", "bounds.curves", None),
    (bounds, "write_curves_csv", "bounds.write_curves_csv", None),
    (mps, "load_mps", "mps.load_mps", _path_arg),
    (mps, "extract_system", "mps.extract_system", None),
    (mps, "overdetermine", "mps.overdetermine", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while enabled; `span()` costs one attribute test when not."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.enabled = False

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.workload)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if note is not None:
                record.info.update(note(args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every TARGETS function until the block exits."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
        for (module, attr, name, note), (_, _, fn) in zip(TARGETS, originals):
            setattr(module, attr, self._wrap(fn, name, note))
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of each span from index `first` on: its duration minus
        the part covered by its direct children."""
        own = [s.seconds for s in self.spans[first:]]
        for s in self.spans[first:]:
            if s.parent is not None and s.parent >= first:
                own[s.parent - first] -= s.seconds
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "workload": s.workload, **s.info}) + "\n")


def worst_self_time_gap(tracer: Tracer, first: int) -> float:
    """Largest |sum of the self times in a root span's subtree - the root's
    wall time| over the root spans from index `first` on. Zero up to
    rounding when every span nests properly."""
    own = tracer.self_times(first)
    spans = tracer.spans[first:]
    root_of: list[int] = []
    totals: dict[int, float] = {}
    for i, s in enumerate(spans):
        root = i if s.parent is None or s.parent < first else root_of[s.parent - first]
        root_of.append(root)
        totals[root] = totals.get(root, 0.0) + own[i]
    return max(abs(total - spans[r].seconds) for r, total in totals.items())


def layer_metrics(tracer: Tracer, first: int, stages: list[str]) -> dict[str, float]:
    """Per-layer totals of one traced pass: the spans from index `first` on."""
    spans = tracer.spans[first:]
    own = tracer.self_times(first)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes: dict[str, list[dict]] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.info:
            notes.setdefault(s.name, []).append(s.info)

    def seconds(name):
        return total.get(name, 0.0)

    def summed(name, key):
        return sum(n[key] for n in notes.get(name, ()) if n.get(key) is not None)

    out = {f"{name}.s": seconds(name) for module, attr, name, _ in TARGETS}
    out["linalg.min_singular_value.calls"] = calls.get("linalg.min_singular_value", 0)
    out["systems.load_system.calls"] = calls.get("systems.load_system", 0)

    out["systems.save_system.mb"] = sum(os.path.getsize(n["path"])
                                        for n in notes.get("systems.save_system", ())) / 1e6

    iters = summed("solvers.run", "iters")
    out["solvers.run.iters"] = iters
    out["solvers.run.us_per_iter"] = seconds("solvers.run") / iters * 1e6 if iters else 0.0
    switches = [n["switch_k"] for n in notes.get("solvers.run", ()) if n["switch_k"] is not None]
    out["solvers.hybrid_switch_k"] = sum(switches) / len(switches) if switches else 0.0
    trials = summed("solvers.time_to_threshold", "trials")
    out["solvers.censored_frac"] = (summed("solvers.time_to_threshold", "censored") / trials
                                    if trials else 0.0)
    out["solvers.write_telemetry_csv.rows"] = summed("solvers.write_telemetry_csv", "rows")

    lines = sum(_file_lines(n["path"]) for n in notes.get("mps.load_mps", ()))
    out["mps.load_mps.lines_per_s"] = lines / seconds("mps.load_mps") if lines else 0.0

    for module in MODULES:
        out[f"{module}.self_s"] = sum(t for s, t in zip(spans, own)
                                      if s.name.split(".")[0] == module)
    for stage in stages:
        out[f"cli.{stage}.self_s"] = sum(t for s, t in zip(spans, own) if s.name == f"cli.{stage}")
    out["trace.spans"] = len(spans)
    return out


def _file_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)
