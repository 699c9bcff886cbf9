"""Tests of the benchmark's validators and harness: known-bad outputs must
count as failures, good ones as passes, and a failing op must not stop a run.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import math
from pathlib import Path

import pytest

import checks
import run
from stats import beyond, ladder_tail, percentile

run.load_program()

import tracing  # noqa: E402  (needs hypersum importable)
from workloads import Op, interleave, lowdisc  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SUM_EXPECT = {"records": [{"value": 1.4680827863644297}]}
GOOD_JSON = '{"eta": 2, "value": 1.4680827863644297, "status": "ok"}\n'


def test_good_json_record_passes():
    assert checks.check_cli(GOOD_JSON, "", 0, "json", SUM_EXPECT) is None


@pytest.mark.parametrize("token", ["inf", "Infinity", "nan", "NaN", "-inf"])
def test_nonfinite_inside_json_record_fails(token):
    out = '{"value": %s, "status": "ok"}\n' % token
    assert checks.check_cli(out, "", 0, "json", SUM_EXPECT) is not None


def test_nonfinite_csv_cell_under_status_ok_fails():
    out = "value,status\ninf,ok\n"
    assert checks.check_cli(out, "", 0, "csv", SUM_EXPECT) == checks.NONFINITE_OK


def test_exit_1_with_traceback_fails():
    err = ('Traceback (most recent call last):\n  File "x.py", line 1\n'
           'ZeroDivisionError: float division by zero\n')
    assert checks.check_cli("", err, 1, "json", SUM_EXPECT) == checks.TRACEBACK


def test_exit_1_without_traceback_fails():
    assert checks.check_cli(GOOD_JSON, "", 1, "json", SUM_EXPECT) == checks.EXIT_CODE


def test_value_off_by_1e6_relative_fails():
    off = 1.4680827863644297 * (1.0 + 1e-6)
    out = '{"value": %r, "status": "ok"}\n' % off
    assert checks.check_cli(out, "", 0, "json", SUM_EXPECT) == checks.WRONG_VALUE
    assert checks.rel_close(off, 1.4680827863644297, 1e-9) == checks.WRONG_VALUE


def test_typed_error_where_due_passes_and_where_not_due_fails():
    out = '{"status": "NotConvergent", "error": "diverges"}\n'
    assert checks.check_cli(out, "error: diverges\n", 2, "json", {"error": True}) is None
    assert checks.check_cli(out, "error: diverges\n", 2, "json", SUM_EXPECT) == checks.TYPED_ERROR
    assert checks.check_cli(GOOD_JSON, "", 0, "json", {"error": True}) == checks.MISSING_ERROR


def test_error_ok_accepts_a_typed_error_or_the_value():
    expect = {"records": [{"value": 1e300}], "rtol": 1e-9, "error_ok": True}
    out = '{"status": "DomainError", "error": "underflow"}\n'
    assert checks.check_cli(out, "error: underflow\n", 2, "json", expect) is None
    assert checks.check_cli('{"value": 1e+300, "status": "ok"}\n', "", 0, "json", expect) is None
    assert checks.check_cli('{"value": 1e+299, "status": "ok"}\n', "", 0, "json", expect) == checks.WRONG_VALUE


def test_json_error_record_inside_csv_stream_fails():
    out = '{"status": "NotConvergent", "error": "S(0.4, 2; 0.5) diverges"}\n'
    assert checks.check_cli(out, "", 2, "csv", {"error": True}) == checks.INVALID_CSV


def test_csv_rows_must_match_header():
    good = "eta,value,status\n2,1.4680827863644297,ok\n"
    assert checks.check_cli(good, "", 0, "csv", SUM_EXPECT) is None
    ragged = "eta,value,status\n2,1.4680827863644297\n"
    assert checks.check_cli(ragged, "", 0, "csv", SUM_EXPECT) == checks.INVALID_CSV


def test_chi_square_above_threshold_fails():
    assert checks.check_gof(30.0, 45.3, 1.2, 4.0) is None
    assert checks.check_gof(45.4, 45.3, 1.2, 4.0) == checks.CHI2
    assert checks.check_gof(30.0, 45.3, 4.5, 4.0) == checks.ZSCORE


def test_conservation_break_fails():
    assert checks.check_conservation({1: 6, 2: 3}, 1, 10, 100) is None
    assert checks.check_conservation({1: 6, 2: 3}, 0, 10, 100) == checks.CONSERVATION
    assert checks.check_conservation({1: 6, 200: 3}, 1, 10, 100) == checks.CONSERVATION


def test_failing_ops_are_counted_and_the_loop_goes_on():
    def boom(acc):
        return 1.0 / 0.0

    ops = [Op("a", lambda acc: None), Op("b", boom), Op("c", lambda acc: checks.WRONG_VALUE,
                                                       known=(checks.WRONG_VALUE,))]
    tally = run.Tally({("c", checks.WRONG_VALUE): (1.0, 0)})
    lat, scales, _, ok = run.closed_loop(ops, 0.02, {}, tally)
    tally.settle()
    n = tally.attempted
    assert n == len(lat) > 3 and scales == [1.0] * n and sum(ok) == tally.passed
    assert tally.passed + tally.failed + tally.known == n
    for count in (tally.passed, tally.failed, tally.known):
        assert abs(count - n / 3) <= 1
    assert tally.kinds() == {"b:traceback": tally.failed, "c:wrong_value (known defect)": tally.known}


def test_known_defects_beyond_their_ceiling_count_as_failures():
    tally = run.Tally({("boundary", checks.SLOW_CONVERGENCE): (0.1, 1)})
    for fail in [checks.SLOW_CONVERGENCE] * 4 + [None] * 6 + [checks.NON_CONVERGENT]:
        tally.add("boundary", fail, (checks.SLOW_CONVERGENCE, checks.NON_CONVERGENT))
    tally.add("interior", None, ())
    tally.settle()
    # floor(0.1 * 11) + 1 = 2 slow convergences are allowed; non_convergent has no ceiling.
    assert (tally.attempted, tally.passed, tally.known, tally.failed) == (12, 7, 2, 3)
    assert tally.kinds() == {"boundary:slow_convergence (known defect)": 2,
                             "boundary:slow_convergence over its known-defect ceiling": 2,
                             "boundary:non_convergent over its known-defect ceiling": 1}


def test_speed_probe_scales_each_op_by_the_probes_around_it():
    probe = run.SpeedProbe()
    probe.at = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]
    probe.kernel_s = [2e-3, 2e-3, 2e-3, 2e-3, 5e-4, 5e-4, 5e-4, 5e-4]
    slow, fast = probe.scales([1.5, 11.5], [0.1, 0.1])
    assert slow == run.REFERENCE_KERNEL_S / 2e-3
    assert fast == run.REFERENCE_KERNEL_S / 5e-4
    tally = run.Tally({})
    lat, scales, window, _ = run.closed_loop([Op("a", lambda acc: None)], 0.01, {}, tally,
                                             probe=run.SpeedProbe())
    assert len(scales) == len(lat) >= 1 and all(s > 0.0 for s in scales) and window >= 0.0


def test_sum_routes_that_miss_only_their_estimates_are_told_from_wrong_values():
    import hypersum
    from workloads import _sum_agree

    def result(v):
        return hypersum.EvalResult(value=v, abs_error_estimate=1e-16, terms_used=1,
                                   method=hypersum.Method.Series)

    assert _sum_agree(result(1.0), result(1.0 + 1e-12)) is None
    assert _sum_agree(result(1.0), result(1.0 + 1e-8)) == checks.ESTIMATE_MISS
    assert _sum_agree(result(1.0), result(1.0 + 1e-5)) == checks.WRONG_VALUE
    assert _sum_agree(result(1.0), result(math.inf)) == checks.NONFINITE_OK


def test_sum_grid_checks_auto_by_the_route_it_did_not_take():
    import hypersum
    from workloads import _check_route
    assert _check_route(hypersum.SumParams(2.0, 2.5, 0.5)) is hypersum.sum_direct
    # x < -eta with c = 2: the closed form answers by its continuation.
    assert _check_route(hypersum.SumParams(0.5, 2.0, -0.8)) is hypersum.sum_direct
    # x < -eta with c off the integers: the closed form raises DomainError,
    # auto sums directly, and no other route exists.
    assert _check_route(hypersum.SumParams(0.5, 2.5, -0.8)) is None


def test_typed_program_errors_are_classified():
    import hypersum

    def slow(acc):
        raise hypersum.SlowConvergence("cap")

    def capped(acc):
        raise hypersum.NonConvergent("cap")

    def typed(acc):
        raise hypersum.DomainError("no")

    assert run.run_op(Op("s", slow), {}) == checks.SLOW_CONVERGENCE
    assert run.run_op(Op("n", capped), {}) == checks.NON_CONVERGENT
    assert run.run_op(Op("t", typed), {}) == checks.TYPED_ERROR


def test_percentiles():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50.5
    assert beyond(100, 90.0) == 10
    assert ladder_tail([float(v) for v in values]) == (90.0, percentile(values, 90.0))


def test_inputs_depend_only_on_the_seed():
    import random
    a = lowdisc(random.Random(3), 50, 3)
    b = lowdisc(random.Random(3), 50, 3)
    assert a == b and a != lowdisc(random.Random(4), 50, 3)
    assert all(0.0 <= x < 1.0 for p in a for x in p)


def test_interleave_keeps_every_prefix_in_proportion():
    merged = interleave([["a"] * 100, ["b"] * 10])
    for n in range(11, len(merged) + 1, 11):
        assert abs(merged[:n].count("b") - n / 11) <= 1


def test_tracer_wraps_every_namespace_and_restores_it():
    import hypersum.special
    import hypersum.sums
    original = hypersum.special.hyp2f1_half_one
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hypersum.sums.hyp2f1_half_one is hypersum.special.hyp2f1_half_one
        assert hypersum.sums.hyp2f1_half_one is not original
        with tracer.span("op"):
            hypersum.sums.evaluate(hypersum.sums.SumParams(2.0, 2.5, 0.5))
    finally:
        tracer.uninstall()
    assert hypersum.sums.hyp2f1_half_one is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[:2] == ["op", "sums.evaluate"]
    assert "special.hyp2f1_half_one" in names
    assert all(t >= 0 for t in tracing.self_times(tracer.spans))


def test_self_time_subtracts_children():
    spans = [["op", 0, 100, -1, None, None, None],
             ["sums.evaluate", 10, 60, 0, None, None, None],
             ["sums.sum_closed", 20, 50, 1, None, None, None]]
    assert tracing.self_times(spans) == [50, 20, 30]


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in tracing.PER_LAYER]
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(run.END_TO_END_UNITS)
    assert all(run.END_TO_END_UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
