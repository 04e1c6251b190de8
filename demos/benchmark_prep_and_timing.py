"""Benchmark-style pipeline: MPS file -> stacked system -> timing table.

Linear-programming benchmark constraints are underdetermined, so they get
stacked over an identity block whose right-hand side is the least-norm
solution plus tiny noise; the result is overdetermined, barely inconsistent,
and keeps nearly the same least-squares solution. The timing protocol then
races greedy against randomized selection to the residual target
4 * ||A x_ls - b||_inf, averaging over trials. Iteration counts are exactly
reproducible; wall-clock numbers of course are not.

Run:  python demos/benchmark_prep_and_timing.py [output_dir]
"""

import sys
from pathlib import Path

from rowaction import mps, solvers, systems

out = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
out.mkdir(parents=True, exist_ok=True)

mps_path = Path(__file__).parent.parent / "tests" / "data" / "bandm_style.mps"
problem = mps.load_mps(mps_path)
A, b = mps.extract_system(problem)
print(f"problem {problem.name}: {A.shape[0]} constraint rows x {A.shape[1]} columns")

system = mps.overdetermine(A, b, mps.TransformSpec(noise_std=1e-6, seed=5))
systems.save_system(out / "bandm_style_prepared.sys", system)
threshold = 4 * system.error_inf()
print(f"stacked to {system.m} x {system.n}, residual target {threshold:.3e}")

rows = []
for name in ("motzkin", "rk-uniform"):
    summary = solvers.time_to_threshold(system, solvers.SelectionRule(name),
                                        threshold, trials=10, seed=1)
    rows.append((name, summary))
    print(f"  {name:11s} mean iterations {summary.mean_iterations:8.1f}, "
          f"mean seconds {summary.mean_seconds:.4f}, censored {summary.censored}/10")

with open(out / "bandm_style_timing.csv", "w") as fh:
    fh.write("problem,solver,mean_seconds,mean_iterations,trials,censored\n")
    for name, summary in rows:
        fh.write(f"{problem.name},{name},{summary.mean_seconds:.6f},"
                 f"{summary.mean_iterations:.2f},{summary.trials},{summary.censored}\n")
print(f"wrote prepared system and timing table under {out}/")
