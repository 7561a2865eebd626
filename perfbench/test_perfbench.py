"""Tests of the benchmark itself: transparent tracing, self-time
arithmetic, the answer check and the metric names in BENCHMARK.json."""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import tracer  # noqa: E402
from cyclecoh import abelian, cli  # noqa: E402

JOBS = (
    ["cohomology", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "2,4", "--method", "all"],
    ["extensions", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "2", "--method", "all"],
    ["table", "--max-v", "4", "--coeff", "3", "--method", "all"],
)


def _report(argv):
    spec = cli.spec_from_args(cli.build_parser().parse_args(argv))
    return cli.render(cli.run(spec), spec)


def test_wrapped_and_unwrapped_reports_are_byte_identical():
    originals = {name: getattr(cli, name) for name in ("run", "cohomology")}
    methods = dict(vars(abelian.IntegerMatrix))
    for argv in JOBS:
        plain = _report(argv)
        t = tracer.Tracer(job=1).install()
        try:
            wrapped = _report(argv)
        finally:
            t.uninstall()
        assert wrapped == plain
        names = {s[1] for s in t.spans}
        assert {"cli.run", "lcs_cohomology.cohomology"} <= names
        assert all(s[2] == 1 for s in t.spans)
    for name, fn in originals.items():
        assert getattr(cli, name) is fn
    assert dict(vars(abelian.IntegerMatrix)) == methods


def _span(sid, name, parent, start, end, nested=False):
    return {"id": sid, "name": name, "job": 0, "parent": parent, "start": start, "end": end,
            "nested": nested, "attrs": None}


def test_self_time_on_synthetic_nesting():
    spans = [
        _span(1, "outer", None, 0.0, 10.0),
        _span(2, "inner", 1, 1.0, 3.0),
        _span(3, "inner", 1, 4.0, 8.0),
        _span(4, "leaf", 3, 5.0, 6.0),
        _span(5, "inner", 3, 6.5, 7.5, nested=True),  # recursion inside span 3
    ]
    per = tracer.summarize(spans)
    assert per["outer"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
    # the nested inner span counts as a call and for self time, not twice in s
    assert per["inner"] == {"calls": 3, "s": 6.0, "self_s": 2.0 + 2.0 + 1.0}
    assert per["leaf"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert sum(r["self_s"] for r in per.values()) == 10.0


def test_live_spans_nest_and_self_times_add_up():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_w = t.wrap(leaf, "leaf")

    def outer():
        leaf_w()
        leaf_w()

    t.wrap(outer, "outer")()
    per = tracer.summarize(t.dump()["spans"])
    assert per["leaf"]["calls"] == 2
    assert abs(per["outer"]["self_s"] - (per["outer"]["s"] - per["leaf"]["s"])) < 1e-9
    assert per["outer"]["self_s"] >= 0


def test_closed_formula_pins():
    answers = {name: bench.expected_answer(w.argv) for name, w in bench.WORKLOADS.items()}
    assert answers["full-v16"] == [2, 2, 4, 4]
    assert answers["reduced-v16"] == [4, 4]
    assert answers["extensions-v16"] == 16
    assert len(answers["sweep-v9"]) == 20  # 10 family members, degrees 1 and 2
    assert bench.invariant_factors([2, 4, 9]) == [2, 36]


def test_wrong_pinned_answer_is_a_failure():
    argv = bench.WORKLOADS["reduced-v16"].smoke
    right = bench.expected_answer(argv)
    deadline = time.perf_counter() + 60
    good = bench.run_pass(argv, right, 0, deadline, False, "test")
    assert [r["failure"] for r in good] == [None]
    bad = bench.run_pass(argv, right + [2], 0, deadline, False, "test")
    assert len(bad) == 1 and "differ" in bad[0]["failure"]
    assert bench.check_report(argv, right, 3, "") == "exit code 3"
    report = json.dumps({"agreement": {"all": False}, "results": []})
    assert bench.check_report(argv, right, 0, report) == "agreement.all is not true"


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER_METRICS
