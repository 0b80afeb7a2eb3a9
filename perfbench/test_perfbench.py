"""Tests of the benchmark's own logic (no Spark session is started).

    python3 -m pytest perfbench -q
"""
import json
import os
import sys

import pytest

import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402

TINY = workloads.StandaloneSpec(d=200, seg=(300, 500), prefix=1200,
                                setup_reps=1)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_union_of_children():
    # parent [0, 100]; children overlap on [30, 40] and one runs past
    # the parent's end; a grandchild does not count against the parent.
    recorded = [(0, -1, "p", 0, 100), (1, 0, "a", 10, 40),
                (2, 0, "b", 30, 60), (3, 0, "c", 90, 120),
                (4, 1, "g", 15, 20)]
    self_ns = spans.self_times(recorded)
    assert self_ns[0] == 100 - (50 + 10)
    assert self_ns[1] == 30 - 5
    assert self_ns[2] == 30 and self_ns[3] == 30 and self_ns[4] == 5


def test_tracer_nests_wrapped_calls():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    tot = tracer.totals()
    assert tot["outer"]["calls"] == tot["inner"]["calls"] == 1
    assert tot["outer"]["self_s"] == pytest.approx(
        tot["outer"]["s"] - tot["inner"]["s"])


def test_percentiles_need_ten_samples_beyond():
    assert spans.percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        spans.percentile(list(range(999)), 99)
    assert spans.typical(list(range(20))) == (9, "p50")
    assert spans.typical([1.0, 2.0, 6.0]) == (3.0, "mean")


def test_doctored_operator_cps_fail_and_count(monkeypatch, capsys, tmp_path):
    expected = {"k0": [1990, 4012], "k1": [2007], "k2": [], "k3": [2500]}
    assert workloads.check_operator(expected, expected) == []
    doctored = dict(expected, k1=[2008])
    checks = workloads.check_operator(doctored, expected)
    assert len(checks) == 1 and "k1" in checks[0]

    result = workloads.Result(
        metrics={"covering_pct": 100.0}, layers={}, extras={}, env={},
        attempted=len(expected),
        failed=len(checks), checks=checks)
    monkeypatch.setattr(workloads, "run", lambda *a: result)
    monkeypatch.setattr(run, "prepare_environment", lambda: None)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setenv("SPARK_DRIVER_MEM", "2g")
    code = run.main(["--workload", "operator", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out.splitlines()
    last = json.loads(out[-1])
    assert code == 1
    assert (last["correct"], last["attempted"],
            last["failed"]) == (False, 4, 1)
    assert "extra failed_ops_frac = 0.25" in out


def test_covering_below_recorded_figure_fails():
    ref = {"class-d1k": {"3": 95.0}}
    assert workloads.check_covering("class-d1k", 3, 95.0, ref) == []
    assert workloads.check_covering("class-d1k", 3, 99.0, ref) == []
    assert workloads.check_covering("class-d1k", 3, 94.6, ref) == []
    assert len(workloads.check_covering("class-d1k", 3, 94.4, ref)) == 1
    # No record for this seed or workload: only the per-stream floor.
    assert workloads.check_covering("class-d1k", 4, 10.0, ref) == []
    assert workloads.check_covering("table3", 3, 10.0, ref) == []


def test_lazy_input_matches_whole_stream():
    x, cps = workloads.regime_stream(5, 2500, (300, 500))
    parts, ends = [], []
    for values, end in workloads.regime_segments(5, (300, 500)):
        parts += values.tolist()
        ends.append(end)
        if end >= 2500:
            break
    assert parts[:2500] == x.tolist()
    assert cps == [e for e in ends if e < 2500]


def _wrapped_attrs():
    tracer = spans.Tracer()
    targets = (workloads.standalone_targets(tracer, 1e-50)
               + workloads.operator_targets(tracer)
               + workloads.table3_targets(tracer))
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]


def test_untraced_run_leaves_program_untouched():
    before = _wrapped_attrs()
    out = workloads.stream_run(TINY, 1, 0.05, trace=False)
    assert out["lat"] and "spans" not in out
    assert all(getattr(owner, attr) is fn for owner, attr, fn in before)


def test_traced_run_restores_program_and_reports_layers():
    before = _wrapped_attrs()
    out = workloads.stream_run(TINY, 1, 0.05, trace=True)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in before)
    assert {"class_stream.update", "streaming_knn.update",
            "scoring.cross_val_scores", "scoring.split_label_counts",
            "significance.test", "suss.learn_width"} <= set(out["totals"])
    assert out["totals"]["class_stream.update"]["self_s"] > 0


def test_reported_names_match_benchmark_json():
    res = workloads.run_standalone("tiny", 2, 0.05, trace=True, spec=TINY)
    assert res.layers["streaming_knn.update_calls"] > 0
    assert {m["name"] for m in SPEC["per_layer"]} >= set(res.layers)
    res = workloads.run_standalone("tiny", 2, 0.05, trace=False, spec=TINY)
    # One operation per stream: a failed stream counts once.
    failed_streams = {line.split(":")[0] for line in res.checks}
    assert res.attempted == res.extras["streams"]
    assert res.failed == len(failed_streams) <= res.attempted
    assert set(res.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_in_processes_waits_for_every_process():
    pids = workloads.in_processes(os.getpid, [(), ()])
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert run.child_pids() == []
