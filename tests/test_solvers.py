import numpy as np
import pytest

from rowaction import solvers, systems
from rowaction.solvers import SelectionRule, StopRule


def gaussian_system(m=120, n=8, noise_std=0.05, seed=17):
    return systems.generate(systems.GeneratorSpec(
        "gaussian-noise", m=m, n=n, noise_std=noise_std, seed=seed))


def test_select_motzkin_tie_breaks_to_smallest_index():
    assert solvers.select_motzkin([-1.0, 3.0, -3.0]) == 1


def test_select_motzkin_plain_max():
    assert solvers.select_motzkin([0.0, 0.0, 5.0]) == 2


def test_select_motzkin_squares_not_values():
    assert solvers.select_motzkin([0.1, -0.2, 0.15]) == 1


def test_select_motzkin_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = rng.normal(size=12)
        base = solvers.select_motzkin(r)
        for c in (0.01, -3.0, 250.0):
            assert solvers.select_motzkin(c * r) == base


def test_project_step_identity_row():
    sys_ = systems.LinearSystem(np.eye(2), np.array([1.0, 2.0]))
    out = solvers.project_step(sys_, [0.0, 0.0], 1)
    assert np.array_equal(out, [0.0, 2.0])


def test_project_step_fixed_point_is_exact():
    sys_ = systems.LinearSystem(np.eye(2), np.array([1.0, 2.0]))
    x = np.array([1.0, 7.0])  # already satisfies equation 0
    out = solvers.project_step(sys_, x, 0)
    assert np.array_equal(out, x)


def test_project_step_hand_case():
    sys_ = systems.LinearSystem(np.array([[0.6, 0.8], [0.8, -0.6]]), np.array([2.0, 0.0]))
    out = solvers.project_step(sys_, [1.0, 1.0], 0)
    assert out == pytest.approx([1.36, 1.48], abs=1e-15)


def test_project_step_lands_on_hyperplane():
    sys_ = gaussian_system()
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = rng.normal(size=sys_.n)
        i = int(rng.integers(sys_.m))
        out = solvers.project_step(sys_, x, i)
        assert abs(np.dot(sys_.a[i], out) - sys_.b[i]) <= 1e-12


def test_project_step_index_error():
    sys_ = gaussian_system()
    with pytest.raises(IndexError):
        solvers.project_step(sys_, np.zeros(sys_.n), sys_.m)


def test_identity_system_solves_in_exactly_n_iterations():
    n = 6
    b = np.array([3.0, -1.5, 2.0, 0.5, -4.0, 1.0])
    sys_ = systems.LinearSystem(np.eye(n), b, reference=b, error_vec=np.zeros(n))
    result = solvers.run(sys_, SelectionRule("motzkin"), StopRule(100, residual_inf_threshold=0.0))
    assert result.state.iteration == n
    assert np.array_equal(result.state.x, b)
    # with orthonormal rows each step removes exactly the selected residual
    errors = [rec.error_sq for rec in result.records] + [0.0]
    for rec, e_now, e_next in zip(result.records, errors, errors[1:]):
        assert e_now - e_next == pytest.approx(rec.residual_inf ** 2, abs=1e-12)


def test_consistent_run_per_step_identity():
    sys_ = gaussian_system(noise_std=0.0, seed=5)
    result = solvers.run(sys_, SelectionRule("motzkin"), StopRule(200))
    errors = [rec.error_sq for rec in result.records]
    final = float(np.dot(result.state.x - sys_.reference, result.state.x - sys_.reference))
    errors.append(final)
    for rec, e_now, e_next in zip(result.records, errors, errors[1:]):
        assert e_next == pytest.approx(e_now - rec.selected_residual_sq, abs=1e-10)


def test_motzkin_records_select_the_max_residual():
    sys_ = gaussian_system(seed=31)
    result = solvers.run(sys_, SelectionRule("motzkin"), StopRule(50))
    for rec in result.records:
        assert rec.selected_residual_sq == pytest.approx(rec.residual_inf ** 2, rel=1e-12)


def test_record_invariants_and_replay():
    sys_ = gaussian_system(seed=42)
    result = solvers.run(sys_, SelectionRule("rk-uniform"), StopRule(80), seed=9)
    x = np.zeros(sys_.n)
    for rec in result.records:
        r = sys_.residual(x)
        assert rec.residual_inf == pytest.approx(np.abs(r).max(), rel=1e-12)
        assert rec.residual_2sq == pytest.approx(float(np.dot(r, r)), rel=1e-12)
        assert rec.selected_residual_sq == pytest.approx(float(r[rec.selected_row]) ** 2, rel=1e-12)
        d = r - sys_.error_vec
        gamma = float(np.dot(d, d)) / float(np.abs(d).max()) ** 2
        assert rec.gamma == pytest.approx(gamma, rel=1e-12)
        diff = x - sys_.reference
        assert rec.error_sq == pytest.approx(float(np.dot(diff, diff)), rel=1e-12, abs=1e-300)
        assert rec.residual_inf ** 2 <= rec.residual_2sq <= sys_.m * rec.residual_inf ** 2 * (1 + 1e-12)
        assert 1.0 - 1e-12 <= rec.gamma <= sys_.m * (1 + 1e-12)
        x = solvers.project_step(sys_, x, rec.selected_row)
    assert np.abs(x - result.state.x).max() <= 1e-12


def test_zero_iteration_budget_returns_x0():
    sys_ = gaussian_system()
    x0 = np.full(sys_.n, 0.25)
    result = solvers.run(sys_, SelectionRule("motzkin"), StopRule(0), x0=x0)
    assert result.records == []
    assert np.array_equal(result.state.x, x0)
    assert result.stop_reason == solvers.STOP_MAX_ITERATIONS


def test_stop_reason_residual_threshold():
    sys_ = gaussian_system(seed=77)
    stop = StopRule(10_000, residual_inf_threshold=4 * sys_.error_inf())
    result = solvers.run(sys_, SelectionRule("motzkin"), stop)
    assert result.stop_reason == solvers.STOP_RESIDUAL_THRESHOLD
    assert np.abs(sys_.residual(result.state.x)).max() <= 4 * sys_.error_inf()


def test_selection_rule_validation():
    with pytest.raises(ValueError):
        SelectionRule("greedy")
    with pytest.raises(ValueError):
        SelectionRule("hybrid")  # needs a positive threshold
    with pytest.raises(ValueError):
        StopRule(-1)


def test_hybrid_switches_once_and_stays_switched():
    sys_ = systems.generate(systems.GeneratorSpec(
        "spiky-noise", m=400, n=10, noise_std=0.0, spike_count=10,
        spike_magnitude=15.0, seed=6))
    # sits inside the residual fluctuation band of this system, so the
    # residual is guaranteed to cross back over it after the switch
    threshold = 20.5
    rule = SelectionRule("hybrid", hybrid_threshold=threshold)
    result = solvers.run(sys_, rule, StopRule(300), seed=2)
    assert result.switch_iteration is not None
    switch = result.switch_iteration
    assert switch == next(k for k, rec in enumerate(result.records)
                          if rec.residual_inf <= threshold)
    for rec in result.records[:switch]:
        assert rec.selected_residual_sq == pytest.approx(rec.residual_inf ** 2, rel=1e-12)
    # the spiky system pushes the residual back above the threshold after the
    # switch; selection must remain randomized (one-way switch)
    above_after = [rec for rec in result.records[switch:]
                   if rec.residual_inf > threshold]
    assert above_after, "expected the residual to exceed the threshold again"
    assert any(rec.selected_residual_sq < rec.residual_inf ** 2 * (1 - 1e-9)
               for rec in above_after)


def test_motzkin_ignores_seed():
    sys_ = gaussian_system(seed=3)
    a = solvers.run(sys_, SelectionRule("motzkin"), StopRule(40), seed=1)
    b = solvers.run(sys_, SelectionRule("motzkin"), StopRule(40), seed=999)
    assert np.array_equal(a.state.x, b.state.x)


def test_rk_runs_reproducible_by_seed():
    sys_ = gaussian_system(seed=3)
    a = solvers.run(sys_, SelectionRule("rk-uniform"), StopRule(60), seed=5)
    b = solvers.run(sys_, SelectionRule("rk-uniform"), StopRule(60), seed=5)
    c = solvers.run(sys_, SelectionRule("rk-uniform"), StopRule(60), seed=6)
    assert np.array_equal(a.state.x, b.state.x)
    assert not np.array_equal(a.state.x, c.state.x)


def test_x0_length_validation():
    sys_ = gaussian_system()
    with pytest.raises(ValueError):
        solvers.run(sys_, SelectionRule("motzkin"), StopRule(5), x0=np.zeros(sys_.n + 1))


def test_time_to_threshold_identity_counts():
    n = 5
    b = np.array([2.0, -1.0, 3.0, 0.5, -0.25])
    sys_ = systems.LinearSystem(np.eye(n), b, reference=b, error_vec=np.zeros(n))
    summary = solvers.time_to_threshold(sys_, SelectionRule("motzkin"), 0.0, trials=4, seed=1)
    assert summary.iterations == [n] * 4
    assert summary.censored == 0
    assert summary.mean_iterations == n


def test_time_to_threshold_deterministic_counts():
    sys_ = gaussian_system(seed=20)
    threshold = 4 * sys_.error_inf()
    s1 = solvers.time_to_threshold(sys_, SelectionRule("rk-uniform"), threshold, trials=3, seed=7)
    s2 = solvers.time_to_threshold(sys_, SelectionRule("rk-uniform"), threshold, trials=3, seed=7)
    assert s1.iterations == s2.iterations
    assert len(set(s1.iterations)) > 1  # distinct derived seeds give distinct counts


def test_time_to_threshold_requires_a_trial():
    with pytest.raises(ValueError, match="trials"):
        solvers.time_to_threshold(gaussian_system(), SelectionRule("motzkin"), 0.0, trials=0)


def test_time_to_threshold_censoring():
    sys_ = gaussian_system(seed=20)
    summary = solvers.time_to_threshold(sys_, SelectionRule("rk-uniform"), 0.0,
                                        trials=2, seed=1, max_iterations=50)
    assert summary.censored == 2
    assert np.isnan(summary.mean_iterations)


def test_telemetry_csv_round_trip(tmp_path):
    sys_ = gaussian_system(seed=2)
    result = solvers.run(sys_, SelectionRule("motzkin"), StopRule(30))
    path = tmp_path / "telemetry.csv"
    solvers.write_telemetry_csv(path, result.records)
    header = path.read_text().splitlines()[0]
    assert header == "k,selected_row,residual_inf,residual_2sq,gamma,error_sq,selected_residual_sq"
    back = solvers.read_telemetry_csv(path)
    assert back == result.records
    path2 = tmp_path / "telemetry2.csv"
    solvers.write_telemetry_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_telemetry_csv_empty_optionals(tmp_path):
    sys_ = systems.LinearSystem(np.eye(2), np.array([1.0, 2.0]))  # no reference
    result = solvers.run(sys_, SelectionRule("motzkin"), StopRule(2))
    path = tmp_path / "t.csv"
    solvers.write_telemetry_csv(path, result.records)
    rows = path.read_text().splitlines()[1:]
    assert all(",," in row for row in rows)  # gamma and error_sq both empty
    back = solvers.read_telemetry_csv(path)
    assert back[0].gamma is None and back[0].error_sq is None
