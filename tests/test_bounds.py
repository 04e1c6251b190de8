import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rowaction import bounds, solvers, systems
from rowaction.bounds import BoundInputs


def inputs(m=10, n=4, sigma_min=1.0, error_inf=0.0, initial_error_sq=1.0,
           frobenius_sq=None, gamma_seq=None):
    return BoundInputs(m=m, n=n, sigma_min=sigma_min, error_inf=error_inf,
                       initial_error_sq=initial_error_sq,
                       frobenius_sq=m if frobenius_sq is None else frobenius_sq,
                       gamma_seq=gamma_seq)


def test_rk_bound_orthonormal_square_case():
    inp = inputs(m=4, sigma_min=2.0, frobenius_sq=4.0)  # sigma^2 == F^2
    curve = bounds.rk_bound(inp, 5)
    assert curve.values[0] == 1.0
    assert np.all(curve.values[1:] == 0.0)


def test_rk_bound_powers_of_three_quarters():
    inp = inputs(sigma_min=1.0, frobenius_sq=4.0)
    curve = bounds.rk_bound(inp, 3)
    assert curve.values == pytest.approx([1.0, 0.75, 0.5625, 0.421875], rel=1e-15)


def test_rk_bound_horizon():
    inp = inputs(m=8, sigma_min=1.0, frobenius_sq=8.0, error_inf=1.0)
    curve = bounds.rk_bound(inp, 4000)
    assert curve.values[-1] == pytest.approx(8.0, rel=1e-10)  # F^2/s^2 * e^2


def test_worst_case_single_row_factor():
    inp = inputs(m=1, sigma_min=1.0, frobenius_sq=1.0)
    curve = bounds.motzkin_bound_worst_case(inp, 2)
    assert curve.values == pytest.approx([1.0, 0.75, 0.5625], rel=1e-15)


def test_worst_case_zero_iterations_is_initial_error():
    inp = inputs(initial_error_sq=3.5)
    curve = bounds.motzkin_bound_worst_case(inp, 0)
    assert curve.values == pytest.approx([3.5])


def test_curves_reject_negative_iterations():
    inp = inputs(gamma_seq=(2.0,))
    for curve in (bounds.rk_bound, bounds.motzkin_bound_worst_case,
                  bounds.motzkin_bound_empirical_gamma, bounds.gaussian_rate_bound):
        with pytest.raises(ValueError, match="num_iterations"):
            curve(inp, -1)


def test_worst_case_horizon():
    inp = inputs(m=10, sigma_min=1.0, frobenius_sq=10.0, error_inf=1.0)
    curve = bounds.motzkin_bound_worst_case(inp, 20000)
    assert curve.values[-1] == pytest.approx(20.0, rel=1e-8)  # 2 m / s^2


def test_empirical_gamma_equals_worst_case_when_gamma_is_m():
    inp = inputs(m=6, sigma_min=1.0, frobenius_sq=6.0, error_inf=0.3,
                 gamma_seq=(6.0,) * 10)
    emp = bounds.motzkin_bound_empirical_gamma(inp, 10)
    worst = bounds.motzkin_bound_worst_case(inp, 10)
    assert emp.values == pytest.approx(worst.values, rel=1e-14)


def test_empirical_gamma_unit_gamma_factor():
    inp = inputs(m=4, sigma_min=1.0, frobenius_sq=4.0, gamma_seq=(1.0, 1.0))
    curve = bounds.motzkin_bound_empirical_gamma(inp, 2)
    assert curve.values == pytest.approx([1.0, 0.75, 0.5625], rel=1e-15)


def test_empirical_gamma_dominated_by_worst_case():
    rng = np.random.default_rng(0)
    gammas = tuple(rng.uniform(1.0, 12.0, size=30))
    inp = inputs(m=12, sigma_min=0.8, frobenius_sq=12.0, error_inf=0.1, gamma_seq=gammas)
    emp = bounds.motzkin_bound_empirical_gamma(inp, 30)
    worst = bounds.motzkin_bound_worst_case(inp, 30)
    assert np.all(emp.values <= worst.values + 1e-12)


def test_empirical_gamma_requires_sequence():
    with pytest.raises(ValueError):
        bounds.motzkin_bound_empirical_gamma(inputs(), 3)
    with pytest.raises(ValueError):
        bounds.motzkin_bound_empirical_gamma(inputs(gamma_seq=(2.0,)), 3)


def reference_empirical_gamma(inp, num_iterations):
    """motzkin_bound_empirical_gamma before it was vectorized: one clamped
    factor and one running product per step. Kept verbatim as the reference."""
    bounds._check_num_iterations(num_iterations)
    if inp.gamma_seq is None:
        raise ValueError("empirical-gamma bound requires gamma_seq")
    if len(inp.gamma_seq) < num_iterations:
        raise ValueError(f"gamma_seq has {len(inp.gamma_seq)} entries, need {num_iterations}")
    s2 = inp.sigma_min ** 2
    horizon = 2.0 * inp.m / s2 * inp.error_inf ** 2
    values = np.empty(num_iterations + 1)
    product = 1.0
    clamped = False
    values[0] = inp.initial_error_sq + horizon
    for k in range(num_iterations):
        factor, c = bounds._clamp_factor(1.0 - s2 / (4.0 * inp.gamma_seq[k]))
        clamped = clamped or c
        product *= factor
        values[k + 1] = product * inp.initial_error_sq + horizon
    return bounds.BoundCurve("motzkin-empirical-gamma", values, clamped)


@st.composite
def empirical_gamma_cases(draw):
    m = draw(st.integers(1, 40))
    # sigma_min up to sqrt(m) = ||A||_F: above 2, gammas below sigma_min^2/4 clamp
    sigma_min = draw(st.floats(0.05, 1.0)) * m ** 0.5
    gammas = draw(st.lists(st.floats(1.0, float(m)), max_size=30))
    num_iterations = draw(st.integers(0, len(gammas)))
    inp = inputs(m=m, sigma_min=sigma_min, frobenius_sq=float(m),
                 error_inf=draw(st.floats(0.0, 2.0)),
                 initial_error_sq=draw(st.floats(0.0, 1e3)), gamma_seq=tuple(gammas))
    return inp, num_iterations


@given(case=empirical_gamma_cases())
@example(case=(inputs(m=16, sigma_min=3.0, frobenius_sq=16.0, error_inf=0.5,
                      gamma_seq=(1.5, 16.0, 2.0, 3.0)), 3))
@example(case=(inputs(m=4, gamma_seq=(2.0, 3.0)), 0))
def test_empirical_gamma_equals_reference_loop(case):
    inp, num_iterations = case
    got = bounds.motzkin_bound_empirical_gamma(inp, num_iterations)
    want = reference_empirical_gamma(inp, num_iterations)
    assert (got.name, got.clamped) == (want.name, want.clamped)
    assert got.values.dtype == want.values.dtype
    assert got.values.tobytes() == want.values.tobytes()


def test_contraction_clamped_and_flagged():
    # sigma^2 > 4 gamma makes the factor negative; it is clamped to zero
    inp = inputs(m=10, sigma_min=3.0, frobenius_sq=10.0, gamma_seq=(1.0, 1.0))
    curve = bounds.motzkin_bound_empirical_gamma(inp, 2)
    assert curve.clamped
    assert np.all(curve.values[1:] == 0.0)


def test_final_error_bounds_zero_error():
    assert bounds.final_error_bounds(inputs(error_inf=0.0)) == (0.0, 0.0)


def test_final_error_bounds_hand_case():
    got = bounds.final_error_bounds(inputs(m=4, sigma_min=1.0, frobenius_sq=4.0, error_inf=1.0))
    assert got == pytest.approx((100.0, 108.0))


def test_final_error_bounds_difference_is_eight_error_sq():
    for e in (0.25, 1.0, 3.0):
        ii, iii = bounds.final_error_bounds(inputs(m=7, sigma_min=0.9,
                                                   frobenius_sq=7.0, error_inf=e))
        assert iii - ii == pytest.approx(8 * e ** 2, rel=1e-12)


def test_gaussian_rate_full_contraction_boundary():
    m = 16
    sigma = math.sqrt(4 * m / math.log(m))
    inp = inputs(m=m, sigma_min=sigma, frobenius_sq=4 * m / math.log(m) + 1)
    curve = bounds.gaussian_rate_bound(inp, 4, conjectured=True)
    assert curve.values[0] == 1.0
    assert np.all(curve.values[1:] == 0.0)


def test_gaussian_rate_conjectured_factor_value():
    m = int(round(math.e ** 2))  # log(m) ~= 2
    inp = inputs(m=m, sigma_min=1.0, frobenius_sq=m)
    curve = bounds.gaussian_rate_bound(inp, 1, conjectured=True)
    expected = 1.0 - math.log(m) / (4 * m)
    assert curve.values[1] == pytest.approx(expected, rel=1e-14)


def test_gaussian_rate_conjectured_below_proved_variant():
    inp = inputs(m=50, n=6, sigma_min=1.2, frobenius_sq=50.0, error_inf=0.0,
                 initial_error_sq=2.0)
    proved = bounds.gaussian_rate_bound(inp, 40, conjectured=False)
    conj = bounds.gaussian_rate_bound(inp, 40, conjectured=True)
    assert np.all(conj.values <= proved.values + 1e-12)


def test_curves_nonincreasing_without_noise():
    inp = inputs(m=30, n=5, sigma_min=1.1, frobenius_sq=30.0, error_inf=0.0,
                 initial_error_sq=4.0, gamma_seq=tuple(np.linspace(1, 30, 25)))
    for curve in (bounds.rk_bound(inp, 25),
                  bounds.motzkin_bound_worst_case(inp, 25),
                  bounds.motzkin_bound_empirical_gamma(inp, 25),
                  bounds.gaussian_rate_bound(inp, 25),
                  bounds.gaussian_rate_bound(inp, 25, conjectured=True)):
        assert np.all(np.diff(curve.values) <= 1e-15), curve.name


def test_rk_contracts_faster_than_greedy_worst_case():
    inp = inputs(m=20, sigma_min=1.3, frobenius_sq=20.0)
    rk_factor = 1 - inp.sigma_min ** 2 / inp.frobenius_sq
    greedy_factor = 1 - inp.sigma_min ** 2 / (4 * inp.m)
    assert rk_factor < greedy_factor


def test_gamma_expectation_bound_no_samples():
    assert bounds.gamma_expectation_bound(100, 5, []) == pytest.approx(
        5 * 100 / math.log(100), rel=1e-14)


def test_gamma_expectation_bound_unit_samples():
    s = 20
    got = bounds.gamma_expectation_bound(100, 5, np.ones(s))
    assert got == pytest.approx(5 * 100 / math.log(80), rel=1e-14)


def test_gamma_expectation_bound_monotone_in_samples():
    values = [bounds.gamma_expectation_bound(60, 3, np.ones(s)) for s in range(0, 50, 7)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_gamma_expectation_bound_requires_two_rows():
    with pytest.raises(ValueError):
        bounds.gamma_expectation_bound(10, 3, np.ones(9))


def test_sigma_min_estimate_quadruple_rows():
    assert bounds.sigma_min_gaussian_estimate(400, 100) == pytest.approx(1.0)


def test_sigma_min_estimate_near_square_expansion():
    n = 50
    got = bounds.sigma_min_gaussian_estimate(n + 1, n)
    assert got == pytest.approx(1 / (2 * n), rel=0.02)


def test_sigma_min_estimate_requires_m_gt_n():
    with pytest.raises(ValueError):
        bounds.sigma_min_gaussian_estimate(10, 10)


def test_sigma_min_estimate_matches_exact_on_gaussian_sample():
    from rowaction import linalg
    rng = systems.make_rng(42)
    m, n = 2000, 50
    A = systems.normal_draws(rng, m * n).reshape(m, n) / math.sqrt(n)
    exact = linalg.min_singular_value(A)
    estimate = bounds.sigma_min_gaussian_estimate(m, n)
    assert abs(exact - estimate) <= 0.15 * estimate


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        inputs(sigma_min=-1.0)
    with pytest.raises(ValueError):
        inputs(error_inf=-0.1)
    with pytest.raises(ValueError):
        inputs(sigma_min=10.0, frobenius_sq=4.0)
    with pytest.raises(ValueError):
        inputs(gamma_seq=(0.2,))  # below 1
    with pytest.raises(ValueError):
        inputs(m=10, gamma_seq=(11.5,))  # above m


def test_bound_inputs_from_system():
    sys_ = systems.generate(systems.GeneratorSpec(
        "gaussian-noise", m=60, n=6, noise_std=0.1, seed=14))
    inp = bounds.bound_inputs_from_system(sys_)
    assert inp.m == 60 and inp.n == 6
    assert inp.error_inf == sys_.error_inf()
    assert inp.initial_error_sq == pytest.approx(float(np.dot(sys_.reference, sys_.reference)))
    assert abs(inp.frobenius_sq - 60) <= 1e-9


def test_empirical_gamma_dominates_observed_run():
    # the certified chain: every pre-stop iterate sits below the curve built
    # from that same run's gamma telemetry
    sys_ = systems.generate(systems.GeneratorSpec(
        "gaussian-noise", m=200, n=10, noise_std=0.02, seed=3))
    stop = solvers.StopRule(5000, residual_inf_threshold=4 * sys_.error_inf())
    result = solvers.run(sys_, solvers.SelectionRule("motzkin"), stop)
    gammas = [rec.gamma for rec in result.records]
    inp = bounds.bound_inputs_from_system(sys_, gamma_seq=gammas)
    curve = bounds.motzkin_bound_empirical_gamma(inp, len(gammas))
    for rec in result.records:
        assert rec.error_sq <= curve.values[rec.k] * (1 + 1e-9)


@st.composite
def _generated_runs(draw):
    """A generated system of any kind and a starting point x0 at a drawn
    scale from 0.1 to 10."""
    kind = draw(st.sampled_from(systems.GENERATOR_KINDS))
    n = draw(st.integers(2, 16))
    m = draw(st.integers(n + 1, 12 * n + 1))
    spiky = kind == "spiky-noise"
    spec = systems.GeneratorSpec(
        kind, m=m, n=n, noise_std=10.0 ** draw(st.floats(-4.0, 0.0)),
        spike_count=draw(st.integers(1, min(m, 5))) if spiky else 0,
        spike_magnitude=draw(st.floats(0.5, 20.0)) if spiky else 0.0,
        seed=draw(st.integers(0, 2**32 - 1)))
    x0 = draw(st.floats(0.1, 10.0)) * np.random.default_rng(spec.seed).standard_normal(n)
    return systems.generate(spec), x0


@settings(max_examples=100)
@given(run=_generated_runs())
def test_motzkin_guarantees_hold_on_every_generator_kind(run):
    # the paper's deterministic results for a motzkin run stopped at
    # 4||e||_inf, each with slack at most 1e-9 ||x_0 - x||^2
    sys_, x0 = run

    def error_sq(x):
        return float(np.dot(x - sys_.reference, x - sys_.reference))

    e_inf = sys_.error_inf()
    result = solvers.run(sys_, solvers.SelectionRule("motzkin"),
                         solvers.StopRule(100_000, residual_inf_threshold=4 * e_inf), x0=x0)
    assert result.stop_reason == solvers.STOP_RESIDUAL_THRESHOLD
    e0 = error_sq(x0)
    slack = 1e-9 * e0
    errors = [rec.error_sq for rec in result.records] + [error_sq(result.state.x)]
    assert [rec.k for rec in result.records] == list(range(result.state.iteration))
    # every record is of a step taken while ||r_k||_inf > 4||e||_inf. Projecting
    # onto row i leaves ||x_k-x||^2 - r_i^2 + 2 r_i e_i, so the first bound holds
    # for every step, and the paper's decrease follows from it
    for rec, now, after in zip(result.records, errors, errors[1:]):
        assert after <= now - rec.residual_inf * (rec.residual_inf - 2 * e_inf) + slack
        assert after <= now - rec.residual_inf ** 2 / 2 + slack
    inp = dataclasses.replace(bounds.bound_inputs_from_system(sys_), initial_error_sq=e0)
    at_stop, one_more_step = bounds.final_error_bounds(inp)
    assert errors[-1] <= at_stop + slack
    one_more = solvers.run(sys_, solvers.SelectionRule("motzkin"), solvers.StopRule(1), x0=result.state.x)
    assert error_sq(one_more.state.x) <= one_more_step + slack
    gammas = [rec.gamma for rec in result.records]
    assert all(1 - 1e-9 <= g <= sys_.m * (1 + 1e-9) for g in gammas)
    curve = bounds.motzkin_bound_empirical_gamma(dataclasses.replace(inp, gamma_seq=tuple(gammas)),
                                                 len(gammas))
    assert all(error <= bound + slack for error, bound in zip(errors, curve.values))


def test_write_curves_csv(tmp_path):
    inp = inputs()
    path = tmp_path / "curves.csv"
    bounds.write_curves_csv(path, [bounds.rk_bound(inp, 2), bounds.motzkin_bound_worst_case(inp, 2)])
    lines = path.read_text().splitlines()
    assert lines[0] == "k,value,name"
    assert len(lines) == 7
    assert lines[1].endswith(",rk")
    assert lines[-1].endswith(",motzkin-worst-case")
