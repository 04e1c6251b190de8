import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rowaction import linalg, solvers, systems
from rowaction.solvers import (
    STOP_MAX_ITERATIONS,
    STOP_RESIDUAL_THRESHOLD,
    IterationRecord,
    RunResult,
    SelectionRule,
    SolverState,
    StopRule,
    project_step,
    select_motzkin,
)
from rowaction.systems import make_rng


def gaussian_system(m=120, n=8, noise_std=0.05, seed=17):
    return systems.generate(systems.GeneratorSpec(
        "gaussian-noise", m=m, n=n, noise_std=noise_std, seed=seed))


def test_select_motzkin_tie_breaks_to_smallest_index():
    assert solvers.select_motzkin([-1.0, 3.0, -3.0]) == 1


def test_select_motzkin_plain_max():
    assert solvers.select_motzkin([0.0, 0.0, 5.0]) == 2
    assert solvers.select_motzkin([1e-170, 3e-170]) == 1  # squares underflow to 0


def test_select_motzkin_squares_not_values():
    assert solvers.select_motzkin([0.1, -0.2, 0.15]) == 1
    assert solvers.select_motzkin([1e200, -3e200]) == 1  # squares overflow to inf


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
    sys_ = systems.LinearSystem(np.eye(n), b, reference=b)
    result = solvers.run(sys_, SelectionRule("motzkin"), StopRule(100, residual_inf_threshold=0.0))
    assert result.state.iteration == n
    assert np.array_equal(result.state.x, b)
    # with orthonormal rows each step removes exactly the selected residual
    errors = [rec.error_sq for rec in result.records] + [0.0]
    for rec, e_now, e_next in zip(result.records, errors, errors[1:]):
        assert e_now - e_next == pytest.approx(rec.residual_inf ** 2, abs=1e-12)


@settings(max_examples=40)
@given(m=st.integers(20, 150), n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
@example(m=120, n=8, seed=5)
def test_consistent_run_per_step_identity(m, n, seed):
    sys_ = gaussian_system(m=m, n=n, noise_std=0.0, seed=seed)
    result = solvers.run(sys_, SelectionRule("motzkin"), StopRule(200))
    errors = [rec.error_sq for rec in result.records]
    final = float(np.dot(result.state.x - sys_.reference, result.state.x - sys_.reference))
    errors.append(final)
    for rec, e_now, e_next in zip(result.records, errors, errors[1:]):
        # acceptance criterion 5: each step sheds exactly the largest squared residual
        assert e_next == pytest.approx(e_now - rec.residual_inf ** 2, abs=1e-10)
        # acceptance criterion 1: so the error falls by at least half of it
        assert e_next - (e_now - 0.5 * rec.residual_inf ** 2) <= 1e-10


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
    sys_ = systems.LinearSystem(np.eye(n), b, reference=b)
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


def test_telemetry_csv_golden_bytes(tmp_path):
    # pins the format: floats as their shortest round-trip repr, None as empty
    records = [
        IterationRecord(k=0, selected_row=3, residual_inf=0.1 + 0.2, residual_2sq=-0.0,
                        gamma=5e-324, error_sq=1e16, selected_residual_sq=0.1),
        IterationRecord(k=1, selected_row=0, residual_inf=1e16, residual_2sq=5e-324,
                        gamma=None, error_sq=None, selected_residual_sq=-0.0),
    ]
    path = tmp_path / "golden.csv"
    solvers.write_telemetry_csv(path, records)
    assert path.read_bytes() == (
        b"k,selected_row,residual_inf,residual_2sq,gamma,error_sq,selected_residual_sq\r\n"
        b"0,3,0.30000000000000004,-0.0,5e-324,1e+16,0.1\r\n"
        b"1,0,1e+16,5e-324,,,-0.0\r\n")
    assert solvers.read_telemetry_csv(path) == records


# --------------------------------------------------------------------------
# run and run_trials against the one-pass-per-seed loop they replaced


def reference_run(sys, rule, stop, x0=None, seed=0):
    """The run loop before run_trials: one full pass per seed, with the hybrid
    switch taken inside the loop. Kept verbatim as the reference."""
    if x0 is None:
        x = np.zeros(sys.n)
    else:
        x = linalg.as_vector(x0).copy()
        if x.shape[0] != sys.n:
            raise ValueError(f"x0 length {x.shape[0]} does not match {sys.n} columns")
    rng = make_rng(seed)
    threshold = stop.residual_inf_threshold

    records: list[IterationRecord] = []
    switched = False
    switch_iteration: int | None = None
    k = 0
    r = sys.a @ x - sys.b
    while True:
        residual_inf = float(np.abs(r).max())
        if threshold is not None and residual_inf <= threshold:
            stop_reason = STOP_RESIDUAL_THRESHOLD
            break
        if k >= stop.max_iterations:
            stop_reason = STOP_MAX_ITERATIONS
            break

        if rule.kind == "hybrid" and not switched and residual_inf <= rule.hybrid_threshold:
            switched = True
            switch_iteration = k

        if rule.kind == "motzkin" or (rule.kind == "hybrid" and not switched):
            i = select_motzkin(r)
        else:
            i = int(rng.integers(sys.m))

        gamma = None
        error_sq = None
        if sys.reference is not None:
            d = r - sys.error_vec  # A(x_k - reference)
            d_inf_sq = float(np.abs(d).max()) ** 2
            if d_inf_sq > 0.0:
                gamma = float(np.dot(d, d)) / d_inf_sq
            diff = x - sys.reference
            error_sq = float(np.dot(diff, diff))
        records.append(IterationRecord(
            k=k,
            selected_row=i,
            residual_inf=residual_inf,
            residual_2sq=float(np.dot(r, r)),
            selected_residual_sq=float(r[i]) ** 2,
            gamma=gamma,
            error_sq=error_sq,
        ))

        x = project_step(sys, x, i)
        r = sys.a @ x - sys.b
        k += 1

    return RunResult(SolverState(x, k), records, stop_reason, switch_iteration)


def assert_matches_reference(sys_, rule, stop, seeds, x0, csv_path):
    """run_trials and run agree with reference_run for every seed: telemetry
    CSV bytes, iterate bits, iteration count, stop reason and switch; the
    trials share no iterate or records list. Returns the reference runs."""
    def csv_bytes(records):
        solvers.write_telemetry_csv(csv_path, records)
        return csv_path.read_bytes()

    trials = list(solvers.run_trials(sys_, rule, stop, seeds, x0=x0))
    assert len(trials) == len(seeds)
    assert len({id(t.state.x) for t in trials}) == len(trials)
    assert len({id(t.records) for t in trials}) == len(trials)
    refs = []
    for seed, trial in zip(seeds, trials):
        ref = reference_run(sys_, rule, stop, x0=x0, seed=seed)
        for got in (trial, solvers.run(sys_, rule, stop, x0=x0, seed=seed)):
            assert csv_bytes(got.records) == csv_bytes(ref.records)
            assert got.state.x.tobytes() == ref.state.x.tobytes()
            assert (got.state.iteration, got.stop_reason, got.switch_iteration) == \
                (ref.state.iteration, ref.stop_reason, ref.switch_iteration)
            assert [rec.k for rec in got.records] == list(range(got.state.iteration))
        refs.append(ref)
    return refs


@st.composite
def solve_cases(draw):
    m = draw(st.integers(2, 24))
    n = draw(st.integers(1, min(m, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(m, n))
    b = A @ rng.normal(size=n) + draw(st.sampled_from([0.0, 0.01, 1.0])) * rng.normal(size=m)
    sys_ = systems.from_unnormalized(A, b)
    if not draw(st.booleans()):
        sys_ = systems.LinearSystem(sys_.a, sys_.b)
    x0 = rng.normal(size=n) if draw(st.booleans()) else None
    start_inf = max(float(np.abs(sys_.residual(np.zeros(n) if x0 is None else x0)).max()), 1e-3)
    kind = draw(st.sampled_from(solvers.SELECTION_KINDS))
    rule = (SelectionRule(kind, draw(st.floats(0.05, 1.1)) * start_inf) if kind == "hybrid"
            else SelectionRule(kind))
    stop_threshold = draw(st.one_of(st.none(), st.floats(0.0, 1.0).map(lambda f: f * start_inf)))
    stop = StopRule(draw(st.integers(0, 200)), stop_threshold)
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
    return sys_, rule, stop, seeds, x0


@settings(max_examples=150)
@given(case=solve_cases(), base_seed=st.integers(0, 1000))
def test_run_trials_equal_reference_loop(tmp_path_factory, case, base_seed):
    sys_, rule, stop, seeds, x0 = case
    assert_matches_reference(sys_, rule, stop, seeds, x0,
                             tmp_path_factory.mktemp("eq") / "telemetry.csv")
    if stop.residual_inf_threshold is not None:
        summary = solvers.time_to_threshold(sys_, rule, stop.residual_inf_threshold, trials=3,
                                            seed=base_seed, max_iterations=stop.max_iterations)
        refs = [reference_run(sys_, rule, stop, seed=base_seed + t) for t in range(3)]
        assert summary.iterations == [ref.state.iteration for ref in refs]
        assert summary.censored_mask == [ref.stop_reason != STOP_RESIDUAL_THRESHOLD for ref in refs]


def test_hybrid_switch_edge_cases_equal_reference_loop(tmp_path):
    sys_ = gaussian_system(seed=8)
    path = tmp_path / "telemetry.csv"
    seeds = [3, 4, 5]
    greedy = reference_run(sys_, SelectionRule("motzkin"), StopRule(60))
    levels = [rec.residual_inf for rec in greedy.records]
    # a k > 2 whose residual is below every earlier one: the first k to reach it
    j = next(k for k in range(3, len(levels)) if levels[k] < min(levels[:k]))
    rule = SelectionRule("hybrid", hybrid_threshold=levels[j])

    def check(stop, switch, stop_reason, at=None, x0=None):
        refs = assert_matches_reference(sys_, rule, stop, seeds, x0, path)
        assert {ref.switch_iteration for ref in refs} == {switch}
        assert {ref.stop_reason for ref in refs} == {stop_reason}
        if at is not None:
            assert {ref.state.iteration for ref in refs} == {at}
        return refs

    refs = check(StopRule(200), j, STOP_MAX_ITERATIONS, at=200)
    assert len({ref.state.x.tobytes() for ref in refs}) == len(seeds)  # the continuations differ
    # a stop threshold at or above the hybrid threshold stops where it would switch
    check(StopRule(200, levels[j]), None, STOP_RESIDUAL_THRESHOLD, at=j)
    check(StopRule(200, 2 * levels[j]), None, STOP_RESIDUAL_THRESHOLD)
    # the cap before the switch, and at the switch: no switch is recorded
    check(StopRule(j - 1), None, STOP_MAX_ITERATIONS, at=j - 1)
    check(StopRule(j), None, STOP_MAX_ITERATIONS, at=j)
    # the switch at k == 0, from zero and from a given start
    rule = SelectionRule("hybrid", hybrid_threshold=levels[0])
    check(StopRule(50), 0, STOP_MAX_ITERATIONS, at=50)
    x0 = np.full(sys_.n, 0.5)
    start_inf = float(np.abs(sys_.residual(x0)).max())
    rule = SelectionRule("hybrid", hybrid_threshold=start_inf)
    check(StopRule(50), 0, STOP_MAX_ITERATIONS, at=50, x0=x0)


# --------------------------------------------------------------------------
# uniform draws with telemetry, run in blocks


telemetry_block = solvers._block_steps


def test_telemetry_block_keeps_its_residual_buffer_within_256_kb():
    # netlib-stacked, gauss-small, gauss-large, and an m past the cap
    assert [telemetry_block(m) for m in (300, 2000, 10000, 40000)] == [64, 16, 3, 1]
    assert all(telemetry_block(m) * m * 8 <= 256 * 1024 for m in (300, 2000, 10000))


# (m, n): a full 64-step block, a block shrunk to 16 steps, and to one step
BLOCK_SHAPES = [(120, 8), (2000, 50), (40000, 3)]


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
@pytest.mark.parametrize("to_threshold", [True, False])
def test_telemetry_block_caps_equal_reference_loop(tmp_path, shape, to_threshold):
    sys_ = gaussian_system(*shape, noise_std=0.01, seed=1)
    rule, seeds, s = SelectionRule("rk-uniform"), [2, 3], telemetry_block(sys_.m)
    threshold = None
    if to_threshold:  # tested at every step, but below every level the runs reach
        threshold = 0.5 * min(rec.residual_inf for seed in seeds
                              for rec in reference_run(sys_, rule, StopRule(2 * s + 1), seed=seed).records)
    for cap in sorted({0, 1, s - 1, s, s + 1, 2 * s + 1}):
        for ref in assert_matches_reference(sys_, rule, StopRule(cap, threshold), seeds, None,
                                            tmp_path / "telemetry.csv"):
            assert (ref.state.iteration, ref.stop_reason) == (cap, STOP_MAX_ITERATIONS)


@pytest.mark.parametrize("shape", BLOCK_SHAPES[:2])
def test_telemetry_block_stop_at_mid_block_threshold_equals_reference_loop(tmp_path, shape):
    sys_ = gaussian_system(*shape, noise_std=0.01, seed=1)
    rule, seed, s = SelectionRule("rk-uniform"), 5, telemetry_block(sys_.m)
    levels = [rec.residual_inf for rec in reference_run(sys_, rule, StopRule(600), seed=seed).records]
    # a new lowest residual past the second block, tested mid-block: the k-th
    # iterate is row (k - 1) % s + 1 of its block
    k = next(k for k in range(2 * s + 1, len(levels))
             if levels[k] < min(levels[:k]) and 0 < (k - 1) % s < s - 1)
    for threshold in (levels[k], np.nextafter(levels[k], 0.0), np.nextafter(levels[k], np.inf)):
        refs = assert_matches_reference(sys_, rule, StopRule(600, threshold), [seed, seed + 1],
                                        None, tmp_path / "telemetry.csv")
        if threshold == levels[k]:
            assert (refs[0].state.iteration, refs[0].stop_reason) == (k, STOP_RESIDUAL_THRESHOLD)


def test_telemetry_block_threshold_met_at_start_equals_reference_loop(tmp_path):
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    for start in (None, np.full(sys_.n, 0.5)):
        start_inf = float(np.abs(sys_.residual(np.zeros(sys_.n) if start is None else start)).max())
        for ref in assert_matches_reference(sys_, SelectionRule("rk-uniform"),
                                            StopRule(500, start_inf), [3, 4], start,
                                            tmp_path / "telemetry.csv"):
            assert (ref.state.iteration, ref.stop_reason, ref.records) == \
                (0, STOP_RESIDUAL_THRESHOLD, [])


@pytest.mark.parametrize("shape, to_threshold", [((2000, 50), True), ((2000, 50), False),
                                                 ((120, 8), False)])
def test_telemetry_block_hybrid_continuation_equals_reference_loop(tmp_path, shape, to_threshold):
    sys_ = gaussian_system(*shape, noise_std=0.01, seed=1)
    greedy = reference_run(sys_, SelectionRule("motzkin"), StopRule(20))
    rule = SelectionRule("hybrid", hybrid_threshold=greedy.records[2].residual_inf)
    stop = StopRule(20_000, 4 * sys_.error_inf()) if to_threshold else StopRule(300)
    for ref in assert_matches_reference(sys_, rule, stop, [1, 2], None, tmp_path / "telemetry.csv"):
        assert ref.switch_iteration is not None
        assert ref.state.iteration - ref.switch_iteration > 2 * telemetry_block(sys_.m)


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_greedy_telemetry_blocks_equal_reference_loop(tmp_path, shape):
    # greedy steps buffer their records in blocks of s steps too: motzkin and
    # a hybrid prefix cut by caps around s, and stopped by a threshold exactly
    # at a block boundary (nothing left in the buffer) and mid-block
    sys_ = gaussian_system(*shape, noise_std=0.0, seed=1)
    s, x0, path = telemetry_block(sys_.m), np.full(sys_.n, 1000.0), tmp_path / "telemetry.csv"
    motzkin, seeds = SelectionRule("motzkin"), [1, 2]
    levels = [rec.residual_inf for rec in reference_run(sys_, motzkin, StopRule(4 * s + 1), x0).records]
    new_lows = [k for k in range(s, len(levels)) if levels[k] < min(levels[:k])]
    # the first new low at a boundary, and the first mid-block one (none when s == 1)
    stops = [next(k for k in new_lows if k % s == 0)] + [k for k in new_lows if k % s][:1]
    assert len(stops) == (1 if s == 1 else 2)
    never = SelectionRule("hybrid", hybrid_threshold=0.5 * min(levels))  # a prefix cut by the cap
    for cap in sorted({0, 1, s - 1, s, s + 1, 2 * s + 1}):
        for rule in (motzkin, never):
            for ref in assert_matches_reference(sys_, rule, StopRule(cap), seeds, x0, path):
                assert (ref.state.iteration, ref.switch_iteration) == (cap, None)
    for k in stops:
        for ref in assert_matches_reference(sys_, motzkin, StopRule(4 * s + 1, levels[k]), seeds,
                                            x0, path):
            assert (ref.state.iteration, ref.stop_reason) == (k, STOP_RESIDUAL_THRESHOLD)
        hybrid = SelectionRule("hybrid", hybrid_threshold=levels[k])
        for ref in assert_matches_reference(sys_, hybrid, StopRule(k + s + 1), seeds, x0, path):
            assert (ref.switch_iteration, ref.state.iteration) == (k, k + s + 1)


# --------------------------------------------------------------------------
# the blocked stop test of uniform solves without telemetry


@pytest.mark.parametrize("m", [1, 2, 300, 2000, 10000, 2**32 + 1, 2**40 + 3])
def test_block_draw_equals_scalar_draws(m):
    block, scalar = make_rng(11), make_rng(11)
    drawn = block.integers(m, size=333).tolist()
    contract = ("numpy's rng.integers(m, size=s) must equal s scalar rng.integers(m) calls: "
                "the blocked rk-uniform solve relies on it, and every rk iteration count "
                "would change without it")
    assert drawn == [int(scalar.integers(m)) for _ in range(333)], contract
    assert block.bit_generator.state == scalar.bit_generator.state, contract


def assert_untimed_solve_matches_reference(sys_, rule, stop, seed, x0=None):
    """The telemetry-off solve that time_to_threshold times stops where
    reference_run does, with the same x bits. Returns the reference run."""
    got = next(solvers._trials(sys_, rule, stop, [seed], x0, telemetry=False))
    ref = reference_run(sys_, rule, stop, x0=x0, seed=seed)
    assert (got.state.iteration, got.stop_reason) == (ref.state.iteration, ref.stop_reason)
    assert got.state.x.tobytes() == ref.state.x.tobytes()
    return ref


def test_blocked_stop_at_exact_threshold_equals_reference_loop():
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    rule, seed, s = SelectionRule("rk-uniform"), 5, solvers.BLOCK_STEPS
    ref = reference_run(sys_, rule, StopRule(1000), seed=seed)
    levels = [rec.residual_inf for rec in ref.records]
    xs = [np.zeros(sys_.n)]
    for rec in ref.records:
        xs.append(project_step(sys_, xs[-1], rec.selected_row))

    def gemm_level(k):  # the sup norm of A x_k - b as the block gemm gives it
        start = (k - 1) // s * s + 1
        block = np.array(xs[start:start + s]) @ sys_.a.T - sys_.b
        return float(np.abs(block[k - start]).max())

    # from k = 100 on, a new lowest residual whose gemm sup norm lies above the
    # gemv one: without the guard band the blocked solve would step past it
    k = next(k for k in range(100, len(levels) - s)
             if levels[k] < min(levels[:k]) and gemm_level(k) > levels[k])
    assert 0 < (k - 1) % s < s - 1  # mid-block
    for threshold in (levels[k], np.nextafter(levels[k], 0.0), np.nextafter(levels[k], np.inf)):
        got = assert_untimed_solve_matches_reference(sys_, rule, StopRule(200_000, threshold), seed)
        if threshold == levels[k]:
            assert (got.state.iteration, got.stop_reason) == (k, STOP_RESIDUAL_THRESHOLD)


@pytest.mark.parametrize("cap", [0, 1, 63, 64, 65, 129])
@pytest.mark.parametrize("to_threshold", [True, False])
def test_blocked_caps_equal_reference_loop(cap, to_threshold):
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    stop = StopRule(cap, 4 * sys_.error_inf() if to_threshold else None)
    ref = assert_untimed_solve_matches_reference(sys_, SelectionRule("rk-uniform"), stop, seed=2)
    assert (ref.state.iteration, ref.stop_reason) == (cap, STOP_MAX_ITERATIONS)


def test_blocked_threshold_met_at_start_equals_reference_loop():
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    x0 = np.full(sys_.n, 0.5)
    rule = SelectionRule("rk-uniform")
    for start in (None, x0):
        start_inf = float(np.abs(sys_.residual(np.zeros(sys_.n) if start is None else start)).max())
        ref = assert_untimed_solve_matches_reference(sys_, rule, StopRule(500, start_inf), 3, start)
        assert (ref.state.iteration, ref.stop_reason) == (0, STOP_RESIDUAL_THRESHOLD)


def test_blocked_hybrid_continuation_equals_reference_loop():
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    greedy = reference_run(sys_, SelectionRule("motzkin"), StopRule(20))
    rule = SelectionRule("hybrid", hybrid_threshold=greedy.records[5].residual_inf)
    for stop in (StopRule(200_000, 4 * sys_.error_inf()), StopRule(300)):
        for seed in (1, 2):
            ref = assert_untimed_solve_matches_reference(sys_, rule, stop, seed)
            assert ref.switch_iteration is not None
            assert ref.state.iteration - ref.switch_iteration > 2 * solvers.BLOCK_STEPS


@st.composite
def untimed_cases(draw):
    """A small system, any selection rule, and a cap up to 400 whose
    threshold, when present, is a residual level the reference run reaches."""
    m = draw(st.integers(2, 40))
    n = draw(st.integers(1, min(m, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(m, n))
    b = A @ rng.normal(size=n) + draw(st.sampled_from([0.0, 0.01, 1.0])) * rng.normal(size=m)
    sys_ = systems.from_unnormalized(A, b)
    if not draw(st.booleans()):
        sys_ = systems.LinearSystem(sys_.a, sys_.b)
    x0 = rng.normal(size=n) if draw(st.booleans()) else None
    start_inf = max(float(np.abs(sys_.residual(np.zeros(n) if x0 is None else x0)).max()), 1e-3)
    kind = draw(st.sampled_from(solvers.SELECTION_KINDS))
    rule = (SelectionRule(kind, draw(st.floats(0.05, 1.1)) * start_inf) if kind == "hybrid"
            else SelectionRule(kind))
    cap = draw(st.integers(0, 400))
    seed = draw(st.integers(0, 2**64 - 1))
    threshold = None
    if draw(st.integers(0, 3)):
        levels = [rec.residual_inf for rec in reference_run(sys_, rule, StopRule(cap), x0, seed).records]
        if levels:
            level = levels[draw(st.integers(0, len(levels) - 1))]
            threshold = max(0.0, level + draw(st.sampled_from([0, -1, 1, -64, 64])) * np.spacing(level))
    return sys_, rule, StopRule(cap, threshold), seed, x0


@settings(max_examples=120)
@given(case=untimed_cases())
def test_untimed_solve_equals_reference_loop(case):
    sys_, rule, stop, seed, x0 = case
    ref = assert_untimed_solve_matches_reference(sys_, rule, stop, seed, x0)
    if stop.residual_inf_threshold is not None and x0 is None:
        summary = solvers.time_to_threshold(sys_, rule, stop.residual_inf_threshold, trials=1,
                                            seed=seed, max_iterations=stop.max_iterations)
        assert summary.iterations == [ref.state.iteration]
        assert summary.censored_mask == [ref.stop_reason != STOP_RESIDUAL_THRESHOLD]
