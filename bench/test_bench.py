"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the traced spans account for the traced wall time, and that the output
checks turn injected faults into failed operations.
"""

from __future__ import annotations

import json
import time

import run  # pins BLAS threads before numpy loads
import workloads

import numpy as np
import pytest

import fairgrade
import fairgrade.cli
import fairgrade.grading
import fairgrade.io as fio

BENCHMARK = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
TINY = sorted(workloads.SELFTEST)
TINY_EXAMS = [name for name in TINY if workloads.SELFTEST[name].file_format]

# metrics that must be non-zero on a workload because it runs that layer
EXERCISED = {
    "tiny-exam-dense": ["cli.self_s", "io.read.rows", "io.write.bytes", "graph.scc.calls",
                        "model.mle_fit.calls", "grading.predict_matrix.self_s"],
    "tiny-exam-sparse": ["cli.self_s", "io.read.rows", "io.write.bytes", "graph.scc.calls",
                         "model.mle_fit.calls", "model.map_fit.calls",
                         "grading.map_rule.self_s", "grading.cells.incomparable"],
    "tiny-mc-published": ["simulation.replications", "simulation.runner.self_s",
                          "graph.generate_assignment.s", "graph.scc.calls",
                          "model.mle_fit.calls", "grading.simple_average.s"],
}


def tiny_run(name: str, trace: bool) -> dict:
    return run.run_benchmark(name, seed=3, seconds=0, trace=trace, setup_repeats=1)


def units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", TINY)
def test_end_to_end_metrics_emitted(name):
    result = tiny_run(name, trace=False)
    assert result["failed"] == 0
    emitted = {m: rec["unit"] for m, rec in result["metrics"].items()}
    assert emitted == units(BENCHMARK["end_to_end"])
    assert all(rec["value"] > 0 and rec["samples"] >= 1 for rec in result["metrics"].values())


def test_timings_are_scaled_to_the_reference_speed():
    assert run.Speedometer.scale(run.REFERENCE_KERNEL_S, run.REFERENCE_KERNEL_S) == 1.0
    assert run.Speedometer.scale(1.0, 3.0) == pytest.approx(run.REFERENCE_KERNEL_S / 2)
    result = tiny_run("tiny-mc-published", trace=False)
    assert result["scales"] and all(scale > 0 for scale in result["scales"])
    scaled = result["metrics"]["reps_per_s"]["value"]
    assert min(result["scales"]) <= result["raw"]["reps_per_s"] / scaled <= max(result["scales"])


@pytest.mark.parametrize("name", TINY)
def test_per_layer_metrics_emitted_and_accounted(name):
    result = tiny_run(name, trace=True)
    assert result["failed"] == 0
    emitted = {m: rec["unit"] for m, rec in result["metrics"].items()}
    assert emitted == units(BENCHMARK["per_layer"])
    for metric in EXERCISED[name]:
        assert result["metrics"][metric]["value"] > 0, metric
    # nested spans under one root per operation: self times add up to the
    # traced wall, the root's own share being the benchmark's time
    self_total = sum(entry["self_s"] for entry in result["layers"].values())
    assert self_total == pytest.approx(result["traced_s"], rel=1e-3, abs=1e-3)


def _half_predictions(real):
    def predict(g, **kwargs):
        pm = real(g, **kwargs)
        return fairgrade.PredictionMatrix(pm.roster, np.full_like(pm.entries, 0.5), pm.case_tags)

    return predict


def _half_grades(g, **kwargs):
    return fairgrade.GradeVector(g.roster, np.full(g.roster.n_students, 0.5), "ours")


@pytest.mark.parametrize("name", TINY)
def test_all_half_rule_is_a_failure(name, monkeypatch):
    if workloads.SELFTEST[name].file_format:
        monkeypatch.setattr(fairgrade.cli, "predict_matrix",
                            _half_predictions(fairgrade.cli.predict_matrix))
    else:
        monkeypatch.setattr(fairgrade.grading, "grade", _half_grades)
    result = tiny_run(name, trace=False)
    assert result["failed"] / result["attempted"] > 0
    assert result["wrong"] > 0


@pytest.mark.parametrize("name", TINY_EXAMS)
def test_flipped_observed_cell_is_a_failure(name, monkeypatch):
    def flip(real):
        def read(path):
            g = real(path)
            w = g.w.copy()
            w[0] ^= 1
            return fairgrade.ExamResultGraph(g.assignment, w)

        return read

    monkeypatch.setattr(fio, "read_edge_list", flip(fio.read_edge_list))
    monkeypatch.setattr(fio, "read_dense_matrix", flip(fio.read_dense_matrix))
    result = tiny_run(name, trace=False)
    assert result["failed"] / result["attempted"] > 0
    assert result["wrong"] > 0


def test_operation_past_the_deadline_fails(monkeypatch):
    def stall(g, **kwargs):
        time.sleep(10)

    monkeypatch.setattr(run, "OP_DEADLINE_S", 1)
    monkeypatch.setattr(fairgrade.cli, "predict_matrix", stall)
    result = tiny_run("tiny-exam-dense", trace=False)
    assert result["failed"] == result["attempted"] and result["wrong"] == 0


def test_reference_check_uses_the_tolerance(tmp_path):
    exam = workloads.ExamInput(tmp_path / "exam.csv", ["s0", "s1"], ["q0"],
                               {"s0": {"q0": 1}, "s1": {"q0": 0}}, 2)
    grades = tmp_path / "grades.csv"
    grades.write_text("student,grade,rule\ns0,0.75,ours\ns1,0.25,ours\n")
    assert workloads.check_grades(grades, exam, {"s0": 0.75, "s1": 0.25}) == []
    assert workloads.check_grades(grades, exam, {"s0": 0.75, "s1": 0.25 + 1e-13}) == []
    assert workloads.check_grades(grades, exam, {"s0": 0.75, "s1": 0.25 + 1e-9})
    grades.write_text("student,grade,rule\ns0,nan,ours\n")
    assert len(workloads.check_grades(grades, exam, None)) == 2


def test_reference_covers_every_exam_workload():
    reference = json.loads(workloads.REFERENCE_FILE.read_text())
    for name, spec in workloads.WORKLOADS.items():
        if spec.file_format:
            assert sorted(reference[name]) == sorted(spec.rules)
            assert all(len(g) == spec.students for g in reference[name].values())
