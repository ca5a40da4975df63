"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


@pytest.mark.parametrize("workload", ["audit-strong", "lp-flow"])
def test_other_seed_changes_only_random_instances(workload):
    a, b = workloads.make_inputs(workload, 1), workloads.make_inputs(workload, 2)
    assert a["fixed"] == b["fixed"]
    for part in a["random"]:
        assert a["random"][part] != b["random"][part]


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, "j", None],
        ["a", 1.0, 4.0, 0, "j", None],
        ["a.child", 2.0, 3.0, 1, "j", None],
        ["b", 5.0, 9.0, 0, "j", None],
        ["b.child1", 5.0, 7.0, 3, "j", None],
        ["b.child2", 6.0, 8.0, 3, "j", None],  # overlaps its sibling: counted once
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_min_alpha_pair_count_follows_the_early_exit():
    # |X|**2 on 3 elements: at X = {} the first short pair is Y = {0, 1},
    # the third Y in mask order; a finite result covers the whole scope.
    square = lambda mask: Fraction(mask.bit_count()) ** 2  # noqa: E731
    assert tracing.min_alpha_pairs(square, 3, range(8), "full", Fraction(1), False) == 3
    assert tracing.min_alpha_pairs(square, 3, range(8), "full", Fraction(1), True) == 4**3 - 3**3


def test_speed_probe_scales_by_its_samples_and_reports_failures():
    with run.SpeedProbe() as probe:
        result, error, raw, _, ref, _ = probe.measure(lambda: 1 / 0)
    assert result is None and error.startswith("ZeroDivisionError")
    expected = raw * run.CALIBRATION_REF_S / statistics.fmean(probe.samples)
    assert ref == pytest.approx(expected)


def _job(jobs, key):
    return next(job for job in jobs if job.key == key)


def test_corrupted_oracle_fails_its_checks():
    ga = run.import_fresh()
    inp = copy.deepcopy(workloads.make_inputs("audit-strong", 0))
    inp["random"]["coverage"][-1] += 100  # f(V) jumps: no longer submodular
    job = _job(workloads.build("audit-strong", ga, inp), "coverage.alpha1")
    result = job.run()
    assert job.check(result, {})
    assert run.golden_problems(job, result, run.load_golden("audit-strong"), 0)


def test_oracle_disagreeing_with_raw_values_fails_witness_check():
    ga = run.import_fresh()
    inp = workloads.make_inputs("audit-strong", 0)
    job = _job(workloads.build("audit-strong", ga, inp), "table0.alpha1")
    report = job.run()
    assert not report.member and not job.check(report, {})
    w = report.witness
    forged = type(report)(**{**report.__dict__,
                             "witness": type(w)(w.x_set, w.y_set, w.lhs + 1, w.rhs)})
    assert job.check(forged, {})


def test_corrupted_output_byte_fails_and_raises_fail_count(monkeypatch):
    golden = run.load_golden("paper-cli")
    key = "probe.trace"
    stdout = golden["fixed"][key]["stdout"]
    golden["fixed"][key]["stdout"] = stdout[:-2] + chr(ord(stdout[-2]) ^ 1) + stdout[-1]
    monkeypatch.setattr(workloads, "build", lambda workload, ga, inp: workloads.probe_jobs(ga))
    result = run.run_pass("paper-cli", {}, golden, 0, traced=False)
    assert (result["attempted"], result["failed"]) == (7, 1)
    assert result["problems"][0].startswith(key)


def test_ratio_table_check_compares_measured_with_closed_form():
    good = {"rc": 0, "stdout": "k,measured,closed_form,x\n2,4/3,4/3,1\n"}
    assert workloads._cli_check(good, {}) == []
    bad = {"rc": 0, "stdout": "k,measured,closed_form,x\n2,4/5,4/3,1\n"}
    assert workloads._cli_check(bad, {})


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
