import contextlib
import csv
import math
import os
import re
import threading
import tracemalloc

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
        assert out.tobytes() == (x + (sys_.b[i] - float(np.dot(sys_.a[i], x))) * sys_.a[i]).tobytes()


def test_project_step_index_error():
    sys_ = gaussian_system()
    with pytest.raises(IndexError):
        solvers.project_step(sys_, np.zeros(sys_.n), sys_.m)


def test_identity_system_solves_in_exactly_n_iterations():
    n = 6
    b = np.array([3.0, -1.5, 2.0, 0.5, -4.0, 1.0])
    sys_ = systems.LinearSystem(np.eye(n), b, reference=b, singular_values=np.ones(n))
    result = solvers.run(sys_, SelectionRule("motzkin"), StopRule(100, residual_inf_threshold=0.0))
    assert result.iteration == n
    assert np.array_equal(result.x, b)
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
    final = float(np.dot(result.x - sys_.reference, result.x - sys_.reference))
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
    assert np.abs(x - result.x).max() <= 1e-12


def test_zero_iteration_budget_returns_x0():
    sys_ = gaussian_system()
    x0 = np.full(sys_.n, 0.25)
    result = solvers.run(sys_, SelectionRule("motzkin"), StopRule(0), x0=x0)
    assert result.records == []
    assert np.array_equal(result.x, x0)
    assert result.stop_reason == solvers.STOP_MAX_ITERATIONS


def test_stop_reason_residual_threshold():
    sys_ = gaussian_system(seed=77)
    stop = StopRule(10_000, residual_inf_threshold=4 * sys_.error_inf())
    result = solvers.run(sys_, SelectionRule("motzkin"), stop)
    assert result.stop_reason == solvers.STOP_RESIDUAL_THRESHOLD
    assert np.abs(sys_.residual(result.x)).max() <= 4 * sys_.error_inf()


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
    assert np.array_equal(a.x, b.x)


def test_rk_runs_reproducible_by_seed():
    sys_ = gaussian_system(seed=3)
    a = solvers.run(sys_, SelectionRule("rk-uniform"), StopRule(60), seed=5)
    b = solvers.run(sys_, SelectionRule("rk-uniform"), StopRule(60), seed=5)
    c = solvers.run(sys_, SelectionRule("rk-uniform"), StopRule(60), seed=6)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_x0_length_validation():
    sys_ = gaussian_system()
    with pytest.raises(ValueError):
        solvers.run(sys_, SelectionRule("motzkin"), StopRule(5), x0=np.zeros(sys_.n + 1))


def test_time_to_threshold_identity_counts():
    n = 5
    b = np.array([2.0, -1.0, 3.0, 0.5, -0.25])
    sys_ = systems.LinearSystem(np.eye(n), b, reference=b, singular_values=np.ones(n))
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


@pytest.mark.parametrize("kind", solvers.SELECTION_KINDS)
def test_time_to_threshold_checks_its_seed_range_before_the_first_trial(monkeypatch, kind):
    heads, head = [], solvers._head

    def spy(*args):
        heads.append(args[1].kind)
        return head(*args)

    monkeypatch.setattr(solvers, "_head", spy)
    rule = SelectionRule(kind, 1.0) if kind == "hybrid" else SelectionRule(kind)
    with pytest.raises(ValueError, match=r"^seed 18446744073709551616 is outside \[0, 2\*\*64\)$"):
        solvers.time_to_threshold(gaussian_system(), rule, 0.0, trials=3, seed=2**64 - 2)
    assert heads == []
    # and a motzkin continuation range-checks its seed without a generator
    monkeypatch.setattr(solvers, "make_rng", None)
    x = np.zeros(8)
    with pytest.raises(ValueError, match="is outside"):
        solvers._continue(gaussian_system(), SelectionRule("motzkin"), StopRule(0), RunResult(x, 0, [], None),
                          -1, telemetry=False)


def test_time_to_threshold_censoring():
    sys_ = gaussian_system(seed=20)
    summary = solvers.time_to_threshold(sys_, SelectionRule("rk-uniform"), 0.0,
                                        trials=2, seed=1, max_iterations=50)
    assert summary.censored == 2
    assert np.isnan(summary.mean_iterations)


def test_timing_summary_counts_its_trials_from_its_lists():
    summary = solvers.TimingSummary(iterations=[3, 5, 7], seconds=[0.1, 0.2, 0.3],
                                    censored_mask=[False, True, False])
    assert (summary.trials, summary.censored, summary.mean_iterations) == (3, 1, 5.0)


@pytest.mark.parametrize("threshold", [math.nan, -1.0, -math.inf])
def test_stop_rule_rejects_a_threshold_that_is_not_nonnegative(threshold):
    with pytest.raises(ValueError, match="^residual_inf_threshold must be nonnegative"):
        StopRule(10, threshold)


def test_stop_rule_accepts_an_infinite_threshold():
    sys_ = gaussian_system()
    assert solvers.run(sys_, SelectionRule("motzkin"), StopRule(10, math.inf)).stop_reason == \
        STOP_RESIDUAL_THRESHOLD


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


def test_telemetry_csv_empty_gamma_reads_as_none_and_empty_error_sq_is_malformed(tmp_path):
    header = ",".join(solvers.TELEMETRY_COLUMNS)
    path = tmp_path / "t.csv"
    path.write_text(f"{header}\n0,1,2.0,4.0,,0.5,4.0\n")
    assert solvers.read_telemetry_csv(path)[0].gamma is None
    path.write_text(f"{header}\n0,1,2.0,4.0,1.5,0.5,4.0\n1,0,1.0,1.0,1.0,,1.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: "):
        solvers.read_telemetry_csv(path)


def test_telemetry_csv_golden_bytes(tmp_path):
    # pins the format: floats as their shortest round-trip repr, None as empty
    records = [
        IterationRecord(k=0, selected_row=3, residual_inf=0.1 + 0.2, residual_2sq=-0.0,
                        gamma=5e-324, error_sq=1e16, selected_residual_sq=0.1),
        IterationRecord(k=1, selected_row=0, residual_inf=1e16, residual_2sq=5e-324,
                        gamma=None, error_sq=0.0, selected_residual_sq=-0.0),
    ]
    path = tmp_path / "golden.csv"
    solvers.write_telemetry_csv(path, records)
    assert path.read_bytes() == (
        b"k,selected_row,residual_inf,residual_2sq,gamma,error_sq,selected_residual_sq\r\n"
        b"0,3,0.30000000000000004,-0.0,5e-324,1e+16,0.1\r\n"
        b"1,0,1e+16,5e-324,,0.0,-0.0\r\n")
    assert solvers.read_telemetry_csv(path) == records


def reference_write_telemetry_csv(path, records):
    """write_telemetry_csv before it wrote its rows as text, a chunk at a
    time. Kept verbatim as the reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(solvers.TELEMETRY_COLUMNS)
        writer.writerows(records)


# floats whose text is the most likely to go wrong: nan, infinities, signed
# zeros, subnormals, the switch to an exponent at 1e16 and near 1e-5
EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-320,
                     2.2250738585072014e-308, 1e16, 9999999999999998.0, -1e16, 1e-05,
                     9.999999999999999e-06, 1.0000000000000002e-05, 0.0001, 0.1 + 0.2]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(5e-6, 5e-5),
    st.floats(),
)

telemetry_records = st.builds(
    IterationRecord, k=st.just(0), selected_row=st.integers(0, 10**6), residual_inf=EDGE_FLOATS,
    residual_2sq=EDGE_FLOATS, gamma=st.none() | EDGE_FLOATS, error_sq=st.none() | EDGE_FLOATS,
    selected_residual_sq=EDGE_FLOATS)


def row_counts(chunk):
    """Row counts on both sides of several boundaries of `chunk`-row writes, no rows included."""
    return st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk, 3 * chunk + 1]) \
        | st.integers(0, 3 * chunk + 2)


@settings(max_examples=60, deadline=None)
@given(pool=st.lists(telemetry_records, min_size=1, max_size=8), rows=row_counts(solvers.CSV_CHUNK_ROWS))
def test_telemetry_csv_equals_csv_writer_bytes(tmp_path_factory, pool, rows):
    records = [pool[j % len(pool)]._replace(k=j) for j in range(rows)]
    path = tmp_path_factory.mktemp("telemetry")
    solvers.write_telemetry_csv(path / "got.csv", records)
    reference_write_telemetry_csv(path / "want.csv", records)
    assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()


def test_telemetry_csv_peaks_no_higher_than_the_csv_writer(tmp_path):
    records = solvers.run(gaussian_system(), SelectionRule("rk-uniform"), StopRule(2000), seed=1).records
    assert len(records) == 2000

    def peak(write):
        tracemalloc.start()
        try:
            write(tmp_path / "t.csv", records)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(solvers.write_telemetry_csv) <= peak(reference_write_telemetry_csv)


def fresh_records(count, start=0):
    """`count` distinct record objects for rows start, start+1, ..., some with None fields."""
    return [IterationRecord(k, (7 * k) % 11, 1.0 / (k + 1), 0.1 * k, None if k % 3 else 1.5 + k,
                            None if k % 5 == 4 else 2.0 ** -k, k / 3) for k in range(start, start + count)]


@pytest.mark.parametrize("earlier_rows, shared, rows", [
    (5, 0, 5),      # nothing shared: the shared text is empty
    (5, 3, 6),      # some rows shared, then rows of its own
    (5, 5, 5),      # every row shared: the text is the earlier file's rows
    (5, 3, 3),      # the earlier file is longer
    (3, 3, 6),      # the earlier file is shorter, and shared whole
    (0, 0, 4),      # the earlier file is a header alone
    (5, 0, 0),      # no records
    (600, 300, 700),  # the shared rows and the formatted ones span chunks
])
def test_like_writes_the_bytes_of_a_fresh_write(tmp_path, earlier_rows, shared, rows):
    # a file written like an earlier one whose leading records it shares: their
    # rows come from text formatted once, the leading part of the earlier file's rows
    earlier = fresh_records(earlier_rows)
    records = earlier[:shared] + fresh_records(rows - shared, start=shared)
    header = ",".join(solvers.TELEMETRY_COLUMNS).encode() + b"\r\n"
    text = solvers.telemetry_rows(earlier[:shared])
    solvers.write_telemetry_csv(tmp_path / "earlier.csv", earlier)
    assert (tmp_path / "earlier.csv").read_bytes() == header + solvers.telemetry_rows(earlier)
    assert (tmp_path / "earlier.csv").read_bytes().startswith(header + text)
    solvers.write_telemetry_csv(tmp_path / "got.csv", records[shared:], text)
    solvers.write_telemetry_csv(tmp_path / "want.csv", records)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_overflow_names_its_iteration_and_square():
    # reference 2e200 and e = A reference - b = (-1e200, 1e200); numpy's overflow warnings are beside the point
    sys_ = systems.LinearSystem(*systems.normalize_rows(np.ones((2, 1)), np.array([3e200, 1e200])))
    with np.errstate(over="ignore"):
        # at the reference gamma has no value, and r_i^2 = e_i^2 passes the float range
        with pytest.raises(OverflowError, match=r"^iteration 0: selected_residual_sq, the square of r_i = "):
            solvers.run(sys_, SelectionRule("motzkin"), StopRule(3), x0=sys_.reference)
        # from x = 0, A(x - reference) near -2e200 comes first, in gamma's column
        with pytest.raises(OverflowError, match=r"^iteration 0: gamma's denominator, the square of "
                                                r"\|\|A\(x_k - reference\)\|\|_inf = 1\.99+\d*e\+200, "):
            solvers.run(sys_, SelectionRule("rk-uniform"), StopRule(3), seed=1)


# --------------------------------------------------------------------------
# run and the shared-head trials of solve against the one-pass-per-seed loop
# they replaced


def reference_run(sys, rule, stop, x0=None, seed=0):
    """The run loop before the head/continuation split: one full pass per
    seed, with the hybrid switch taken inside the loop. Kept verbatim as
    the reference."""
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

        # the projection as its own expression, not project_step, so that the
        # loops are checked against these bits and not against themselves
        x = x + (sys.b[i] - float(np.dot(sys.a[i], x))) * sys.a[i]
        r = sys.a @ x - sys.b
        k += 1

    return RunResult(x, k, records, stop_reason, switch_iteration)


def assert_matches_reference(sys_, rule, stop, seeds, x0, csv_path):
    """One head (`solvers._head`) continued once per seed (`solvers._continue`),
    as `solve` computes its trials, and `run` agree with reference_run for
    every seed: telemetry CSV bytes, a trial's written as `solve` writes it
    with the head's rows as text, iterate bits, iteration count, stop reason
    and switch; the trials share no iterate or records list. Returns the
    reference runs."""
    def csv_bytes(records, rows=b""):
        solvers.write_telemetry_csv(csv_path, records, rows)
        return csv_path.read_bytes()

    x = np.zeros(sys_.n) if x0 is None else np.array(x0, dtype=float)
    head = solvers._head(sys_, rule, stop, x, telemetry=True)
    trials = [solvers._continue(sys_, rule, stop, head, seed, telemetry=True) for seed in seeds]
    assert len({id(head.x), *(id(t.x) for t in trials)}) == len(trials) + 1
    assert len({id(head.records), *(id(t.records) for t in trials)}) == len(trials) + 1
    refs = []
    for seed, trial in zip(seeds, trials):
        ref = reference_run(sys_, rule, stop, x0=x0, seed=seed)
        assert csv_bytes(trial.records, solvers.telemetry_rows(head.records)) == csv_bytes(ref.records)
        trial.records[:0] = head.records
        for got in (trial, solvers.run(sys_, rule, stop, x0=x0, seed=seed)):
            assert csv_bytes(got.records) == csv_bytes(ref.records)
            assert got.x.tobytes() == ref.x.tobytes()
            assert (got.iteration, got.stop_reason, got.switch_iteration) == \
                (ref.iteration, ref.stop_reason, ref.switch_iteration)
            assert [rec.k for rec in got.records] == list(range(got.iteration))
        refs.append(ref)
    return refs


@st.composite
def solve_cases(draw):
    m = draw(st.integers(2, 24))
    n = draw(st.integers(1, min(m, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(m, n))
    b = A @ rng.normal(size=n) + draw(st.sampled_from([0.0, 0.01, 1.0])) * rng.normal(size=m)
    sys_ = systems.LinearSystem(*systems.normalize_rows(A, b))
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
def test_shared_head_trials_equal_reference_loop(tmp_path_factory, case, base_seed):
    sys_, rule, stop, seeds, x0 = case
    assert_matches_reference(sys_, rule, stop, seeds, x0,
                             tmp_path_factory.mktemp("eq") / "telemetry.csv")
    if stop.residual_inf_threshold is not None:
        refs = [reference_run(sys_, rule, stop, seed=base_seed + t) for t in range(3)]
        for gate in (None, 0):
            with screen_gate(gate) as screened:
                summary = solvers.time_to_threshold(sys_, rule, stop.residual_inf_threshold, trials=3,
                                                    seed=base_seed, max_iterations=stop.max_iterations)
            assert summary.iterations == [ref.iteration for ref in refs]
            assert summary.censored_mask == [ref.stop_reason != STOP_RESIDUAL_THRESHOLD for ref in refs]
            assert bool(screened) == (gate == 0 and rule.kind != "rk-uniform")


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
            assert {ref.iteration for ref in refs} == {at}
        return refs

    refs = check(StopRule(200), j, STOP_MAX_ITERATIONS, at=200)
    assert len({ref.x.tobytes() for ref in refs}) == len(seeds)  # the continuations differ
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
# run's gemvs split between this thread and a helper


def split_spy(patch):
    """A list of the edges of each `linalg.in_halves` call that a helper splits."""
    splits, in_halves = [], linalg.in_halves

    def spy(helper, edges, run):
        if helper is not None and len(edges) > 2:
            splits.append(list(edges))
        return in_halves(helper, edges, run)

    patch.setattr(linalg, "in_halves", spy)
    return splits


@contextlib.contextmanager
def forced_split():
    """`run` opens its helper on every A for the block: the gate at 0, two
    CPUs and one BLAS thread. The block gets its `split_spy` list."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "SCREEN_BYTES", 0)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        patch.setattr(linalg, "blas_threads", lambda: 1)
        yield split_spy(patch)


@pytest.mark.parametrize("gate, cpus, threads, opens", [
    (-1, 2, 1, True),      # A past the gate, two CPUs, one BLAS thread
    (0, 2, 1, False),      # A at the gate
    (-1, 1, 1, False),     # one CPU
    (-1, 2, 2, False),     # OpenBLAS's own pool splits each gemv already
    (-1, 2, None, False),  # another BLAS, whose thread count is not known
])
def test_run_opens_a_helper_only_past_every_gate(monkeypatch, gate, cpus, threads, opens):
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    monkeypatch.setattr(solvers, "SCREEN_BYTES", sys_.a.nbytes + gate)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(linalg, "blas_threads", lambda: threads)
    with solvers._helper(sys_) as helper:
        assert (helper is not None) == opens


# m = 64k + 1, an m that is not a multiple of 64, and one 64-row window, where nothing splits
@pytest.mark.parametrize("m", [193, 300, 65])
@pytest.mark.parametrize("kind", solvers.SELECTION_KINDS)
def test_split_run_equals_reference_loop(tmp_path, monkeypatch, m, kind):
    n = 8
    monkeypatch.setattr(linalg, "SLAB_BYTES", 8 * 64 * n)  # 64-row slabs: residuals splits too
    sys_ = gaussian_system(m, n, noise_std=0.01, seed=2)
    greedy = reference_run(sys_, SelectionRule("motzkin"), StopRule(20)).records
    rule = SelectionRule(kind, greedy[10].residual_inf) if kind == "hybrid" else SelectionRule(kind)
    levels = [rec.residual_inf for rec in reference_run(sys_, rule, StopRule(90), seed=3).records]
    # the last k < 90 whose level is below every earlier one: the run stops there
    threshold = levels[max(k for k in range(3, 90) if levels[k] < min(levels[:k]))]
    with forced_split() as splits:
        refs = [*assert_matches_reference(sys_, rule, StopRule(150, threshold), [3], None,
                                          tmp_path / "telemetry.csv"),
                *assert_matches_reference(sys_, rule, StopRule(150), [3], None, tmp_path / "telemetry.csv")]
    assert [ref.stop_reason for ref in refs] == [STOP_RESIDUAL_THRESHOLD, STOP_MAX_ITERATIONS]
    starts = linalg.row_windows(m, 64)
    halves = [0, starts[len(starts) // 2], m]
    slabs = [*linalg.row_windows(m, 64), m]
    assert {tuple(edges) for edges in splits} == (set() if m == 65 else {
        "motzkin": {tuple(halves)}, "rk-uniform": {tuple(slabs)}, "hybrid": {tuple(halves), tuple(slabs)}}[kind])


def test_run_past_the_gate_equals_an_unsplit_run(monkeypatch):
    # 10000x100 (7.6 MiB) at one BLAS thread splits wherever the process may run on two CPUs
    sys_ = gaussian_system(m=10000, n=100, noise_std=0.01, seed=5)
    stop = StopRule(300, 4 * sys_.error_inf())
    openblas = linalg.bundled_openblas()
    threads = linalg.blas_threads()
    splits = split_spy(monkeypatch)
    try:
        if openblas is not None:
            openblas.scipy_openblas_set_num_threads64_(1)
        for kind in solvers.SELECTION_KINDS:
            rule = SelectionRule(kind, 8 * sys_.error_inf()) if kind == "hybrid" else SelectionRule(kind)
            splits.clear()
            got = solvers.run(sys_, rule, stop, seed=4)
            assert bool(splits) == (openblas is not None and len(os.sched_getaffinity(0)) > 1)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solvers, "SCREEN_BYTES", 2**62)
                want = solvers.run(sys_, rule, stop, seed=4)
            assert got.records == want.records and got.x.tobytes() == want.x.tobytes()
            assert (got.iteration, got.stop_reason, got.switch_iteration) == \
                (want.iteration, want.stop_reason, want.switch_iteration)
    finally:
        if openblas is not None:
            openblas.scipy_openblas_set_num_threads64_(threads)


def test_no_helper_thread_outlives_a_split_run(monkeypatch):
    sys_ = gaussian_system(m=300, n=8, noise_std=0.01, seed=2)
    threads = threading.active_count()
    with forced_split() as splits:
        solvers.run(sys_, SelectionRule("hybrid", 4 * sys_.error_inf()), StopRule(100), seed=1)
    assert splits and threading.active_count() == threads
    # a square past the float range: _records raises once the split gemvs have run
    sys_ = systems.LinearSystem(*systems.normalize_rows(np.ones((130, 1)), np.r_[3e200, np.full(129, 1e200)]))
    with forced_split() as splits, np.errstate(over="ignore"), pytest.raises(OverflowError):
        solvers.run(sys_, SelectionRule("motzkin"), StopRule(3), x0=sys_.reference)
    assert splits and threading.active_count() == threads
    # the helper's half raises, and its exception reaches the caller
    runs = linalg._runs

    def fail_on_the_helper(edges, run):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("the helper's half")
        return runs(edges, run)

    monkeypatch.setattr(linalg, "_runs", fail_on_the_helper)
    monkeypatch.setattr(linalg, "SLAB_BYTES", 8 * 64 * 8)  # 64-row slabs: residuals splits too
    sys_ = gaussian_system(m=300, n=8, noise_std=0.01, seed=2)
    for kind in ("motzkin", "rk-uniform"):
        with forced_split(), pytest.raises(MemoryError, match="the helper's half"):
            solvers.run(sys_, SelectionRule(kind), StopRule(100), seed=1)
        assert threading.active_count() == threads


# --------------------------------------------------------------------------
# uniform draws with telemetry, run in blocks


def greedy_block(m):
    return solvers._block_steps(m, solvers.BLOCK_ENTRIES)


def uniform_block(m):
    return solvers._block_steps(m, solvers.UNIFORM_BLOCK_ENTRIES)


def test_telemetry_block_keeps_its_residual_buffer_within_256_kb():
    # the greedy loop's: netlib-stacked, gauss-small, gauss-large, and an m past the cap
    assert [greedy_block(m) for m in (300, 2000, 10000, 40000)] == [64, 16, 3, 1]
    assert all(greedy_block(m) * m * 8 <= 256 * 1024 for m in (300, 2000, 10000))


def test_uniform_telemetry_block_keeps_its_residual_buffer_within_8_mb():
    # 64 steps up to 16384 rows: each slab of A serves 64 iterates on gauss-large too
    assert [uniform_block(m) for m in (300, 2000, 10000, 40000)] == [64, 64, 64, 26]
    assert all(uniform_block(m) * m * 8 <= 8 * 2**20 for m in (300, 2000, 10000, 40000))


def test_uniform_telemetry_takes_one_residuals_call_per_64_steps(monkeypatch):
    # 200 steps on 2000 rows: four blocks, where blocks of 256 KB of
    # residuals (16 steps) took thirteen, each reading all of A again
    blocks, residuals = [], linalg.residuals

    def spy(a, b, iterates, out, helper=None):
        blocks.append(len(iterates))
        return residuals(a, b, iterates, out, helper)

    monkeypatch.setattr(linalg, "residuals", spy)
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    assert solvers.run(sys_, SelectionRule("rk-uniform"), StopRule(200), seed=1).iteration == 200
    assert blocks == [64, 64, 64, 8]


# (m, n, UNIFORM_BLOCK_ENTRIES): the 64-step uniform block on 2000 rows,
# and, with the entries patched, a block shrunk to 16 steps and one of one step
UNIFORM_BLOCKS = [(2000, 50, solvers.UNIFORM_BLOCK_ENTRIES), (2000, 50, 16 * 2000), (120, 8, 120)]
# (m, n): a full 64-step greedy block, one shrunk to 16 steps, and to one step
BLOCK_SHAPES = [(120, 8), (2000, 50), (40000, 3)]


@pytest.mark.parametrize("shape", UNIFORM_BLOCKS)
@pytest.mark.parametrize("to_threshold", [True, False])
def test_telemetry_block_caps_equal_reference_loop(tmp_path, monkeypatch, shape, to_threshold):
    m, n, entries = shape
    monkeypatch.setattr(solvers, "UNIFORM_BLOCK_ENTRIES", entries)
    sys_ = gaussian_system(m, n, noise_std=0.01, seed=1)
    rule, seeds, s = SelectionRule("rk-uniform"), [2, 3], uniform_block(sys_.m)
    threshold = None
    if to_threshold:  # tested at every step, but below every level the runs reach
        threshold = 0.5 * min(rec.residual_inf for seed in seeds
                              for rec in reference_run(sys_, rule, StopRule(2 * s + 1), seed=seed).records)
    for cap in sorted({0, 1, s - 1, s, s + 1, 2 * s + 1}):
        for ref in assert_matches_reference(sys_, rule, StopRule(cap, threshold), seeds, None,
                                            tmp_path / "telemetry.csv"):
            assert (ref.iteration, ref.stop_reason) == (cap, STOP_MAX_ITERATIONS)


@pytest.mark.parametrize("shape", UNIFORM_BLOCKS[:2])
def test_telemetry_block_stop_at_mid_block_threshold_equals_reference_loop(tmp_path, monkeypatch, shape):
    m, n, entries = shape
    monkeypatch.setattr(solvers, "UNIFORM_BLOCK_ENTRIES", entries)
    sys_ = gaussian_system(m, n, noise_std=0.01, seed=1)
    rule, seed, s = SelectionRule("rk-uniform"), 5, uniform_block(sys_.m)
    levels = [rec.residual_inf for rec in reference_run(sys_, rule, StopRule(600), seed=seed).records]
    # a new lowest residual past the second block, tested mid-block: the k-th
    # iterate is row (k - 1) % s + 1 of its block
    k = next(k for k in range(2 * s + 1, len(levels))
             if levels[k] < min(levels[:k]) and 0 < (k - 1) % s < s - 1)
    for threshold in (levels[k], np.nextafter(levels[k], 0.0), np.nextafter(levels[k], np.inf)):
        refs = assert_matches_reference(sys_, rule, StopRule(600, threshold), [seed, seed + 1],
                                        None, tmp_path / "telemetry.csv")
        if threshold == levels[k]:
            assert (refs[0].iteration, refs[0].stop_reason) == (k, STOP_RESIDUAL_THRESHOLD)


def test_telemetry_block_threshold_met_at_start_equals_reference_loop(tmp_path):
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    for start in (None, np.full(sys_.n, 0.5)):
        start_inf = float(np.abs(sys_.residual(np.zeros(sys_.n) if start is None else start)).max())
        for ref in assert_matches_reference(sys_, SelectionRule("rk-uniform"),
                                            StopRule(500, start_inf), [3, 4], start,
                                            tmp_path / "telemetry.csv"):
            assert (ref.iteration, ref.stop_reason, ref.records) == \
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
        assert ref.iteration - ref.switch_iteration > 2 * uniform_block(sys_.m)


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_greedy_telemetry_blocks_equal_reference_loop(tmp_path, shape):
    # greedy steps buffer their records in blocks of s steps too: motzkin and
    # a hybrid prefix cut by caps around s, and stopped by a threshold exactly
    # at a block boundary (nothing left in the buffer) and mid-block
    sys_ = gaussian_system(*shape, noise_std=0.0, seed=1)
    s, x0, path = greedy_block(sys_.m), np.full(sys_.n, 1000.0), tmp_path / "telemetry.csv"
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
                assert (ref.iteration, ref.switch_iteration) == (cap, None)
    for k in stops:
        for ref in assert_matches_reference(sys_, motzkin, StopRule(4 * s + 1, levels[k]), seeds,
                                            x0, path):
            assert (ref.iteration, ref.stop_reason) == (k, STOP_RESIDUAL_THRESHOLD)
        hybrid = SelectionRule("hybrid", hybrid_threshold=levels[k])
        for ref in assert_matches_reference(sys_, hybrid, StopRule(k + s + 1), seeds, x0, path):
            assert (ref.switch_iteration, ref.iteration) == (k, k + s + 1)


@pytest.mark.parametrize("shape", [(2000, 50), (1281, 20)])
def test_telemetry_blocks_over_several_slabs_equal_reference_loop(tmp_path, monkeypatch, shape):
    # 64-row slabs of linalg.residuals: 2000 rows end in a partial slab of 16
    # rows, and 1281 rows in one of 65, whose single last row joins the slab
    # before it; caps around block ends, and a threshold met mid-block
    monkeypatch.setattr(linalg, "SLAB_BYTES", 1)
    sys_ = gaussian_system(*shape, noise_std=0.01, seed=1)
    assert linalg.slab_rows(sys_.n) == 64 and sys_.m > 3 * 64
    s, path, seeds = uniform_block(sys_.m), tmp_path / "telemetry.csv", [2, 3]
    greedy = reference_run(sys_, SelectionRule("motzkin"), StopRule(20))
    rk, hybrid = SelectionRule("rk-uniform"), SelectionRule("hybrid", greedy.records[2].residual_inf)
    for rule, start in ((rk, 0), (hybrid, 2)):  # the hybrid switches at k = 2
        for cap in sorted({start + c for c in (0, 1, s - 1, s, s + 1, 2 * s + 1)}):
            for ref in assert_matches_reference(sys_, rule, StopRule(cap), seeds, None, path):
                assert ref.iteration == cap
        ref = reference_run(sys_, rule, StopRule(600), seed=5)
        assert ref.switch_iteration == (None if rule is rk else start)
        levels = [rec.residual_inf for rec in ref.records]
        # a new lowest residual past the second block, mid-block: the k-th
        # iterate is row (k - start - 1) % s + 1 of its block
        k = next(k for k in range(start + 2 * s + 1, len(levels))
                 if levels[k] < min(levels[:k]) and 0 < (k - start - 1) % s < s - 1)
        refs = assert_matches_reference(sys_, rule, StopRule(600, levels[k]), [5, 6], None, path)
        assert (refs[0].iteration, refs[0].stop_reason, refs[0].switch_iteration) == \
            (k, STOP_RESIDUAL_THRESHOLD, ref.switch_iteration)


@pytest.mark.parametrize("shape", BLOCK_SHAPES[:2])
def test_loaded_system_runs_equal_reference_loop(tmp_path, shape):
    # load_system gives A with 32-byte-aligned rows (a row stride of n
    # rounded up to 4 doubles) and b contiguous, the system that the CLI and
    # the benchmark solve: each rule to a cap past two blocks of either
    # loop, and to a threshold met mid-block
    systems.save_system(tmp_path / "system.sys", gaussian_system(*shape, noise_std=0.01, seed=1))
    sys_ = systems.load_system(tmp_path / "system.sys")
    assert sys_.a.strides[0] == -(-sys_.n // 4) * 32 and sys_.a.strides[0] % 32 == 0
    assert sys_.a.ctypes.data % 32 == 0 and sys_.b.flags.c_contiguous
    g, u, path, seeds = greedy_block(sys_.m), uniform_block(sys_.m), tmp_path / "telemetry.csv", [2, 3]
    assert g <= u
    greedy = reference_run(sys_, SelectionRule("motzkin"), StopRule(20))
    hybrid = SelectionRule("hybrid", greedy.records[2].residual_inf)
    for rule, start in ((SelectionRule("motzkin"), 0), (SelectionRule("rk-uniform"), 0), (hybrid, 2)):
        for ref in assert_matches_reference(sys_, rule, StopRule(start + 2 * u + 1), seeds, None, path):
            assert ref.iteration == start + 2 * u + 1
        levels = [rec.residual_inf for rec in reference_run(sys_, rule, StopRule(600), seed=5).records]
        # a new lowest residual past the first block, mid-block in both loops
        k = next(k for k in range(start + u + 1, len(levels))
                 if levels[k] < min(levels[:k]) and 0 < (k - start - 1) % u < u - 1 and k % g)
        refs = assert_matches_reference(sys_, rule, StopRule(600, levels[k]), [5, 6], None, path)
        assert (refs[0].iteration, refs[0].stop_reason) == (k, STOP_RESIDUAL_THRESHOLD)
        assert_untimed_solve_matches_reference(sys_, rule, StopRule(600, levels[k]), 5)


def test_zero_residual_in_a_block_equals_reference_loop(tmp_path):
    # orthonormal rows of both signs: once every row is selected, A x = b
    # exactly, so later iterates of the block have a zero residual, whose
    # sup norm the records give as 0.0, never -0.0, and whose gamma is None
    b = np.array([3.0, -1.5, 2.0, 0.5, -4.0, 1.0])
    a = np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    sys_ = systems.LinearSystem(a, b, reference=a @ b, singular_values=np.ones(6))
    path = tmp_path / "telemetry.csv"
    for rule in (SelectionRule("motzkin"), SelectionRule("rk-uniform"), SelectionRule("hybrid", 3.5)):
        for stop in (StopRule(100), StopRule(100, 0.0)):
            for ref in assert_matches_reference(sys_, rule, stop, [1, 2], None, path):
                zeros = [rec for rec in ref.records if rec.residual_inf == 0.0]
                assert bool(zeros) == (stop.residual_inf_threshold is None)
                assert all(math.copysign(1.0, rec.residual_inf) == 1.0 and rec.gamma is None
                           for rec in zeros)
            assert_untimed_solve_matches_reference(sys_, rule, stop, 1)
    assert "-0.0" not in path.read_text()


def test_telemetry_takes_no_block_sized_temporary():
    # the residual buffer of a block is the one block-sized allocation: the sup
    # norms and A(x_j - reference) reuse it; each loop has its own block size
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    for rule, s in ((SelectionRule("motzkin"), greedy_block(sys_.m)),
                    (SelectionRule("rk-uniform"), uniform_block(sys_.m))):
        solvers.run(sys_, rule, StopRule(s))
        tracemalloc.start()
        try:
            solvers.run(sys_, rule, StopRule(s), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (s + 1) * sys_.m * 8, (rule.kind, peak)


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


@contextlib.contextmanager
def screen_gate(gate):
    """`solvers.SCREEN_BYTES` at `gate` (None keeps it) for the block, which
    gets a list of the rows that each `linalg.largest_residual` call took
    exactly. At a gate it sets, the kernel reports none, so `_head` never
    turns the screen off and every greedy step takes it."""
    calls, kernel = [], linalg.largest_residual

    def spy(*args):
        i, level, exact = kernel(*args)
        calls.append(exact)
        return i, level, exact if gate is None else 0

    with pytest.MonkeyPatch.context() as patch:
        if gate is not None:
            patch.setattr(solvers, "SCREEN_BYTES", gate)
        patch.setattr(linalg, "largest_residual", spy)
        yield calls


def assert_untimed_solve_matches_reference(sys_, rule, stop, seed, x0=None):
    """The telemetry-off solve that time_to_threshold times, `_head`, with
    the float32 screen where time_to_threshold takes it, then `_continue`,
    stops where reference_run does, with the same x bits and no record.
    Returns the reference run."""
    x = np.zeros(sys_.n) if x0 is None else np.array(x0, dtype=float)
    head = solvers._head(sys_, rule, stop, x, False, solvers._greedy_screen(sys_, rule))
    got = solvers._continue(sys_, rule, stop, head, seed, telemetry=False)
    assert head.records == [] and got.records == []
    ref = reference_run(sys_, rule, stop, x0=x0, seed=seed)
    assert (got.iteration, got.stop_reason) == (ref.iteration, ref.stop_reason)
    assert got.x.tobytes() == ref.x.tobytes()
    return ref


@pytest.fixture()
def screens(monkeypatch):
    """One (rows at entry, witness list) pair per block that
    `linalg.witness_screen` checks: the witness rows it starts the block
    with, and the list it grows."""
    calls, screen = [], linalg.witness_screen

    def spy(a, b, b_inf, iterates, threshold, witness):
        calls.append((list(witness), witness))
        return screen(a, b, b_inf, iterates, threshold, witness)

    monkeypatch.setattr(linalg, "witness_screen", spy)
    return calls


def test_blocked_stop_at_exact_threshold_equals_reference_loop(screens):
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    rule, seed, s = SelectionRule("rk-uniform"), 5, solvers.BLOCK_STEPS
    ref = reference_run(sys_, rule, StopRule(1000), seed=seed)
    levels = [rec.residual_inf for rec in ref.records]
    xs = [np.zeros(sys_.n)]
    for rec in ref.records:
        xs.append(project_step(sys_, xs[-1], rec.selected_row))

    def screen_level(k):
        # the sup norm of A x_k - b over the witness rows, as the screen's one
        # product of x_k's block with them gives it in a solve to levels[k]
        screens.clear()
        assert_untimed_solve_matches_reference(sys_, rule, StopRule(200_000, levels[k]), seed)
        start = (k - 1) // s * s + 1
        rows = screens[(k - 1) // s][0]
        block = np.array(xs[start:start + s]) @ sys_.a[rows].T - sys_.b[rows]
        return float(np.abs(block[k - start]).max())

    # from k = 100 on, a mid-block new lowest residual whose screened sup norm
    # lies above the gemv one: without the guard band the blocked solve would
    # step past it. Which k that is depends on the BLAS kernel's rounding.
    k = next(k for k in range(100, len(levels) - s)
             if 0 < (k - 1) % s < s - 1 and levels[k] < min(levels[:k]) and screen_level(k) > levels[k])
    for threshold in (levels[k], np.nextafter(levels[k], 0.0), np.nextafter(levels[k], np.inf)):
        got = assert_untimed_solve_matches_reference(sys_, rule, StopRule(200_000, threshold), seed)
        if threshold == levels[k]:
            assert (got.iteration, got.stop_reason) == (k, STOP_RESIDUAL_THRESHOLD)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_blocked_censored_run_grows_its_witness_rows(screens, seed):
    # just below every level of 3 blocks and 5 steps: the start's largest row
    # does not show every iterate above it, so failed checks add rows
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    rule, cap = SelectionRule("rk-uniform"), 3 * solvers.BLOCK_STEPS + 5
    lowest = min(rec.residual_inf for rec in reference_run(sys_, rule, StopRule(cap + 1), seed=seed).records)
    ref = assert_untimed_solve_matches_reference(sys_, rule, StopRule(cap, np.nextafter(lowest, 0.0)), seed)
    assert (ref.iteration, ref.stop_reason) == (cap, STOP_MAX_ITERATIONS)
    assert len(screens) == 4 and len(screens[-1][1]) > 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_blocked_stop_as_the_largest_entry_moves_equals_reference_loop(screens, seed):
    # spiky noise: the largest residual entry moves between rows, so a run to
    # its lowest level, or censored just below it, adds witness rows
    sys_ = systems.generate(systems.GeneratorSpec("spiky-noise", m=2000, n=50, noise_std=0.01,
                                                  spike_count=20, spike_magnitude=5.0, seed=1))
    rule, cap = SelectionRule("rk-uniform"), 2000
    ref = reference_run(sys_, rule, StopRule(cap + 1), seed=seed)
    x, largest = np.zeros(sys_.n), set()
    for rec in ref.records:
        largest.add(select_motzkin(sys_.a @ x - sys_.b))
        x = project_step(sys_, x, rec.selected_row)
    assert len(largest) > 1
    levels = [rec.residual_inf for rec in ref.records]
    k = int(np.argmin(levels))
    for threshold, at, stop_reason in ((levels[k], k, STOP_RESIDUAL_THRESHOLD),
                                       (np.nextafter(levels[k], 0.0), cap, STOP_MAX_ITERATIONS)):
        screens.clear()
        got = assert_untimed_solve_matches_reference(sys_, rule, StopRule(cap, threshold), seed)
        assert (got.iteration, got.stop_reason) == (at, stop_reason)
        witness = screens[-1][1]
        assert len(witness) > 1
        assert len(set(witness)) == len(witness), f"a row joined the witnesses twice: {witness}"


@pytest.mark.parametrize("cap", [0, 1, 63, 64, 65, 129])
@pytest.mark.parametrize("to_threshold", [True, False])
def test_blocked_caps_equal_reference_loop(cap, to_threshold):
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    stop = StopRule(cap, 4 * sys_.error_inf() if to_threshold else None)
    ref = assert_untimed_solve_matches_reference(sys_, SelectionRule("rk-uniform"), stop, seed=2)
    assert (ref.iteration, ref.stop_reason) == (cap, STOP_MAX_ITERATIONS)


def test_blocked_threshold_met_at_start_equals_reference_loop():
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    x0 = np.full(sys_.n, 0.5)
    rule = SelectionRule("rk-uniform")
    for start in (None, x0):
        start_inf = float(np.abs(sys_.residual(np.zeros(sys_.n) if start is None else start)).max())
        ref = assert_untimed_solve_matches_reference(sys_, rule, StopRule(500, start_inf), 3, start)
        assert (ref.iteration, ref.stop_reason) == (0, STOP_RESIDUAL_THRESHOLD)


def test_blocked_hybrid_continuation_equals_reference_loop():
    sys_ = gaussian_system(m=2000, n=50, noise_std=0.01, seed=1)
    greedy = reference_run(sys_, SelectionRule("motzkin"), StopRule(20))
    rule = SelectionRule("hybrid", hybrid_threshold=greedy.records[5].residual_inf)
    for stop in (StopRule(200_000, 4 * sys_.error_inf()), StopRule(300)):
        for seed in (1, 2):
            ref = assert_untimed_solve_matches_reference(sys_, rule, stop, seed)
            assert ref.switch_iteration is not None
            assert ref.iteration - ref.switch_iteration > 2 * solvers.BLOCK_STEPS


@st.composite
def untimed_cases(draw):
    """A small system, any selection rule, and a cap up to 400 whose
    threshold, when present, is a residual level the reference run reaches."""
    m = draw(st.integers(2, 40))
    n = draw(st.integers(1, min(m, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(m, n))
    b = A @ rng.normal(size=n) + draw(st.sampled_from([0.0, 0.01, 1.0])) * rng.normal(size=m)
    sys_ = systems.LinearSystem(*systems.normalize_rows(A, b))
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
    # at the real gate, which no system of these sizes passes, and at a gate
    # of 0 bytes, where every greedy step takes `linalg.largest_residual`
    sys_, rule, stop, seed, x0 = case
    for gate in (None, 0):
        with screen_gate(gate) as screened:
            ref = assert_untimed_solve_matches_reference(sys_, rule, stop, seed, x0)
            if stop.residual_inf_threshold is not None and x0 is None:
                summary = solvers.time_to_threshold(sys_, rule, stop.residual_inf_threshold, trials=1,
                                                    seed=seed, max_iterations=stop.max_iterations)
                assert summary.iterations == [ref.iteration]
                assert summary.censored_mask == [ref.stop_reason != STOP_RESIDUAL_THRESHOLD]
        assert bool(screened) == (gate == 0 and rule.kind != "rk-uniform")


def test_untimed_solve_of_a_system_past_the_gate_equals_run():
    # 3000x100 (2.4 MB): motzkin time_to_threshold screens every greedy step,
    # and its counts and censoring equal run's, to 4 ||e||_inf and censored
    sys_ = gaussian_system(m=3000, n=100, noise_std=0.01, seed=5)
    assert sys_.a.nbytes > solvers.SCREEN_BYTES
    rule, threshold = SelectionRule("motzkin"), 4 * sys_.error_inf()
    for cap in (200_000, 20):
        with screen_gate(None) as screened:
            summary = solvers.time_to_threshold(sys_, rule, threshold, trials=2, seed=1, max_iterations=cap)
        ran = solvers.run(sys_, rule, StopRule(cap, threshold))
        assert len(screened) == 2 * (ran.iteration + 1)  # one per iterate, the last one included
        assert summary.iterations == [ran.iteration] * 2
        assert summary.censored_mask == [ran.stop_reason == STOP_MAX_ITERATIONS] * 2
        assert summary.censored_mask == [cap == 20] * 2
        with screen_gate(None) as screened:
            assert_untimed_solve_matches_reference(sys_, rule, StopRule(cap, threshold), 1)
        assert screened


def test_untimed_solve_turns_the_screen_off_once_it_takes_most_of_a():
    # at noise 1e-6 the last steps' residuals differ by less than the float32
    # band, so the screen leaves most rows to the exact gemvs: from the first
    # such step on, the solve takes the full gemv, with the same counts
    sys_ = gaussian_system(m=3000, n=100, noise_std=1e-6, seed=5)
    assert sys_.a.nbytes > solvers.SCREEN_BYTES
    rule, threshold = SelectionRule("motzkin"), 4 * sys_.error_inf()
    with screen_gate(None) as screened:
        summary = solvers.time_to_threshold(sys_, rule, threshold, trials=1, seed=1)
    ran = solvers.run(sys_, rule, StopRule(200_000, threshold))
    assert (summary.iterations, summary.censored_mask) == ([ran.iteration], [False])
    assert len(screened) < ran.iteration + 1
    assert 4 * screened[-1] > sys_.m and all(4 * exact <= sys_.m for exact in screened[:-1])
    with screen_gate(None) as screened:
        assert_untimed_solve_matches_reference(sys_, rule, StopRule(200_000, threshold), 1)
    assert 4 * screened[0] <= sys_.m < 4 * screened[-1]
