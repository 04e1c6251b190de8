"""Acceptance suite: one test per criterion, each reporting a pass/fail line.

Shared fixtures hold the two desk-scale workhorse systems:
  * a Gaussian-noise system (m=2000, n=50, noise 0.01) solved greedily to the
    4 * ||e||_inf stopping threshold (criteria 1, 2, 3, 6), and
  * a spiky-noise system with 50 corruptions of magnitude 15 (criterion 8).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from rowaction import bounds, cli, linalg, mps, solvers, systems
from rowaction.solvers import SelectionRule, StopRule

from conftest import ACCEPTANCE_LINES
from oracles import frobenius_norm_sq, least_squares_oracle, min_singular_value_oracle

DATA = Path(__file__).parent / "data"


def check(num, name, ok, detail=""):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def error_sq(sys_, x):
    diff = np.asarray(x) - sys_.reference
    return float(np.dot(diff, diff))


@pytest.fixture(scope="module")
def gaussian_run():
    t0 = time.process_time()
    sys_ = systems.generate(systems.GeneratorSpec(
        "gaussian-noise", m=2000, n=50, noise_std=0.01, seed=12345))
    e_inf = sys_.error_inf()
    stop = StopRule(20_000, residual_inf_threshold=4 * e_inf)
    result = solvers.run(sys_, SelectionRule("motzkin"), stop)
    elapsed = time.process_time() - t0
    assert result.stop_reason == solvers.STOP_RESIDUAL_THRESHOLD
    return {
        "sys": sys_,
        "result": result,
        "e_inf": e_inf,
        "sigma_min": linalg.min_singular_value(sys_.a),
        "elapsed": elapsed,
        "final_error_sq": error_sq(sys_, result.x),
    }


@pytest.fixture(scope="module")
def spiky_system():
    return systems.generate(systems.GeneratorSpec(
        "spiky-noise", m=2000, n=50, noise_std=0.0,
        spike_count=50, spike_magnitude=15.0, seed=777))


def test_criterion_01_per_iteration_decrease(gaussian_run):
    result = gaussian_run["result"]
    errors = [rec.error_sq for rec in result.records] + [gaussian_run["final_error_sq"]]
    worst = -math.inf
    for rec, e_now, e_next in zip(result.records, errors, errors[1:]):
        slack = e_next - (e_now - 0.5 * rec.residual_inf ** 2)
        worst = max(worst, slack)
    ok = worst <= 1e-10 and gaussian_run["elapsed"] < 10.0
    check(1, "greedy per-iteration decrease at rate residual_inf^2 / 2", ok,
          f"{len(result.records)} iterations, worst slack {worst:.2e}, "
          f"{gaussian_run['elapsed']:.2f}s")


def test_criterion_02_final_error_bounds(gaussian_run):
    sys_ = gaussian_run["sys"]
    m, s2 = sys_.m, gaussian_run["sigma_min"] ** 2
    e2 = gaussian_run["e_inf"] ** 2
    bound_at_stop = 25.0 * m / s2 * e2
    final = gaussian_run["final_error_sq"]
    ok_stop = final <= bound_at_stop * (1 + 1e-9)

    one_more = solvers.run(sys_, SelectionRule("motzkin"), StopRule(1),
                           x0=gaussian_run["result"].x)
    after = error_sq(sys_, one_more.x)
    bound_after = (25.0 * m / s2 + 8.0) * e2
    ok_after = after <= bound_after * (1 + 1e-9)
    check(2, "final-error guarantees at and one step past the threshold",
          ok_stop and ok_after,
          f"at stop {final:.3g} <= {bound_at_stop:.3g}; next {after:.3g} <= {bound_after:.3g}")


def test_criterion_03_empirical_gamma_dominance(gaussian_run):
    sys_ = gaussian_run["sys"]
    result = gaussian_run["result"]
    gammas = [rec.gamma for rec in result.records]
    inp = bounds.BoundInputs(
        m=sys_.m, n=sys_.n, sigma_min=gaussian_run["sigma_min"],
        error_inf=gaussian_run["e_inf"],
        initial_error_sq=result.records[0].error_sq,
        frobenius_sq=frobenius_norm_sq(sys_.a),
        gamma_seq=tuple(gammas))
    curve = bounds.motzkin_bound_empirical_gamma(inp, len(gammas))
    observed = [rec.error_sq for rec in result.records] + [gaussian_run["final_error_sq"]]
    margins = [c * (1 + 1e-9) - o for o, c in zip(observed, curve.values)]
    ok = min(margins) >= 0
    check(3, "observed error dominated by the empirical-gamma bound curve", ok,
          f"{len(observed)} points, min margin {min(margins):.3g}")


def test_criterion_04_rk_statistical_rate():
    t0 = time.process_time()
    sys_ = systems.generate(systems.GeneratorSpec(
        "gaussian-noise", m=500, n=20, noise_std=0.0, seed=2024))
    sigma_sq = linalg.min_singular_value(sys_.a) ** 2
    trials, horizon = 200, 200
    sums = np.zeros(horizon + 1)
    for t in range(trials):
        result = solvers.run(sys_, SelectionRule("rk-uniform"), StopRule(horizon),
                             seed=9000 + t)
        assert len(result.records) == horizon
        for rec in result.records:
            sums[rec.k] += rec.error_sq
        sums[horizon] += error_sq(sys_, result.x)
    means = sums / trials
    factor = 1.0 - sigma_sq / sys_.m
    bound = 1.05 * factor ** np.arange(horizon + 1) * means[0]
    elapsed = time.process_time() - t0
    ratios = means / bound
    ok = np.all(means <= bound) and elapsed < 30.0
    check(4, "mean randomized-Kaczmarz error under the expected-contraction bound",
          ok, f"{trials} trials, worst mean/bound {ratios.max():.3f}, {elapsed:.1f}s")


def test_criterion_05_consistent_exactness():
    sys_ = systems.generate(systems.GeneratorSpec(
        "gaussian-noise", m=300, n=20, noise_std=0.0, seed=55))
    result = solvers.run(sys_, SelectionRule("motzkin"), StopRule(150))
    errors = [rec.error_sq for rec in result.records] + [error_sq(sys_, result.x)]
    worst = max(abs(e_next - (e_now - rec.residual_inf ** 2))
                for rec, e_now, e_next in zip(result.records, errors, errors[1:]))
    ok_chain = worst <= 1e-10

    n = 8
    b = np.array([4.0, -3.0, 2.5, -2.0, 1.5, -1.0, 0.5, -0.25])
    identity = systems.LinearSystem(np.eye(n), b, reference=b, singular_values=np.ones(n))
    ident_run = solvers.run(identity, SelectionRule("motzkin"),
                            StopRule(100, residual_inf_threshold=0.0))
    ok_ident = ident_run.iteration == n and np.array_equal(ident_run.x, b)
    check(5, "noise-free runs shed exactly the selected residual each step",
          ok_chain and ok_ident,
          f"worst identity drift {worst:.2e}; identity solved in {ident_run.iteration}/{n}")


def test_criterion_06_gamma_range_and_acceleration(gaussian_run):
    sys_ = gaussian_run["sys"]
    gammas = np.array([rec.gamma for rec in gaussian_run["result"].records])
    in_range = bool(np.all(gammas >= 1.0 - 1e-12) and np.all(gammas <= sys_.m * (1 + 1e-12)))
    median = float(np.median(gammas))
    # m/2 is the stated proxy; the pre-build measurement (median ~ 1.8e2 at
    # this scale) leaves room to tighten to m/4
    ok = in_range and median < sys_.m / 4
    check(6, "gamma within [1, m] and median well below m", ok,
          f"median {median:.1f} vs m/4 = {sys_.m / 4:.0f} (spec proxy m/2 = {sys_.m / 2:.0f})")


def test_criterion_07_paired_acceleration():
    wins = 0
    counts = []
    for t in range(10):
        sys_ = systems.generate(systems.GeneratorSpec(
            "gaussian-noise", m=2000, n=50, noise_std=0.01, seed=1000 + t))
        stop = StopRule(50_000, residual_inf_threshold=4 * sys_.error_inf())
        k_greedy = solvers.run(sys_, SelectionRule("motzkin"), stop).iteration
        k_rk = solvers.run(sys_, SelectionRule("rk-uniform"), stop, seed=50 + t).iteration
        counts.append((k_greedy, k_rk))
        wins += k_greedy < k_rk
    check(7, "greedy reaches the threshold first in at least 9 of 10 pairs",
          wins >= 9, f"wins {wins}/10, counts {counts[:3]}...")


def test_criterion_08_spiky_horizon(spiky_system):
    sys_ = spiky_system
    e_inf = sys_.error_inf()
    threshold_run = solvers.run(sys_, SelectionRule("motzkin"),
                                StopRule(20_000, residual_inf_threshold=4 * e_inf))
    k_threshold = threshold_run.iteration
    # the corrupted rhs makes 4*||e||_inf fire almost immediately, so the
    # literal 3x window is degenerate; floor the run length to keep the
    # trailing-100 comparison meaningful
    length = max(3 * k_threshold, 400)

    def trailing_mean(rule, seed):
        result = solvers.run(sys_, rule, StopRule(length), seed=seed)
        return float(np.mean([rec.error_sq for rec in result.records[-100:]]))

    greedy = trailing_mean(SelectionRule("motzkin"), 0)
    rk = trailing_mean(SelectionRule("rk-uniform"), 3)
    hybrid = trailing_mean(SelectionRule("hybrid", hybrid_threshold=4 * e_inf), 4)
    ok = rk < greedy and hybrid <= 1.5 * rk
    check(8, "corrupted rows give greedy a worse horizon; hybrid tracks randomized",
          ok, f"threshold hit at k={k_threshold}, run {length}; trailing means "
              f"greedy {greedy:.0f}, rk {rk:.0f}, hybrid {hybrid:.0f}")


def test_criterion_09_mps_golden():
    problem = mps.load_mps(DATA / "tiny.mps")
    A, b = mps.extract_system(problem)
    ok_parse = (np.array_equal(A, [[2.0, 1.0], [-1.0, 3.0], [0.0, 4.0]])
                and np.array_equal(b, [5.0, 6.0, 0.0]))

    banded = mps.load_mps(DATA / "bandm_style.mps")
    A2, b2 = mps.extract_system(banded)
    stacked = mps.overdetermine(A2, b2, mps.TransformSpec(noise_std=0.0, seed=3))
    ok_consistent = stacked.error_inf() <= 1e-8

    agg_path = DATA / "netlib" / "agg.mps"
    agg_note = "real agg not present, dimension check skipped"
    ok_agg = True
    if agg_path.exists():
        agg = mps.load_mps(agg_path)
        A3, b3 = mps.extract_system(agg)
        stacked3 = mps.overdetermine(A3, b3, mps.TransformSpec(noise_std=1e-6, seed=1))
        ok_agg = A3.shape == (488, 615) and (stacked3.m, stacked3.n) == (1103, 615)
        agg_note = f"agg extracted {A3.shape}, stacked {stacked3.m}x{stacked3.n}"
    check(9, "MPS golden parse and zero-noise stacking consistency",
          ok_parse and ok_consistent and ok_agg,
          f"zero-noise ||e||_inf {stacked.error_inf():.2e}; {agg_note}")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(314)
    checked = 0
    worst_ls = worst_sv = 0.0
    while checked < 50:
        n = int(rng.integers(1, 5))
        m = n + int(rng.integers(1, 5))
        A = rng.uniform(-2.0, 2.0, size=(m, n))
        if min_singular_value_oracle(A) < 1e-2:
            continue  # conditioning filter uses the oracle, not the tested path
        b = rng.uniform(-2.0, 2.0, size=m)
        x_ref = least_squares_oracle(A, b)
        x = linalg.least_squares(A, b)
        worst_ls = max(worst_ls, float(np.abs(x - x_ref).max() / (1 + np.abs(x_ref).max())))
        sv_ref = min_singular_value_oracle(A)
        sv = linalg.min_singular_value(A)
        worst_sv = max(worst_sv, abs(sv - sv_ref) / sv_ref)
        checked += 1
    ok = worst_ls <= 1e-8 and worst_sv <= 1e-8
    check(10, "solver kernels match brute-force elimination and Sturm oracles",
          ok, f"50 instances, worst rel err ls {worst_ls:.1e}, sv {worst_sv:.1e}")


def test_criterion_11_timing_ordering(tmp_path):
    prepared = tmp_path / "band.txt"
    assert cli.main(["netlib-prep", "--mps", str(DATA / "bandm_style.mps"),
                     "--noise-std", "1e-6", "--seed", "5", "--out", str(prepared)]) == 0
    sys_ = systems.load_system(prepared)
    threshold = 4 * sys_.error_inf()
    greedy = [solvers.time_to_threshold(sys_, SelectionRule("motzkin"), threshold,
                                        trials=3, seed=1).iterations for _ in range(2)]
    rk = [solvers.time_to_threshold(sys_, SelectionRule("rk-uniform"), threshold,
                                    trials=3, seed=1).iterations for _ in range(2)]
    deterministic = greedy[0] == greedy[1] and rk[0] == rk[1]
    ordering = np.mean(greedy[0]) < np.mean(rk[0])
    check(11, "prepared-problem timing: deterministic counts, greedy needs fewer",
          deterministic and ordering,
          f"greedy {greedy[0]}, randomized {rk[0]}")
