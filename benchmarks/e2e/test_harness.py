"""Tests of the benchmark harness itself (not part of tier-1).

    python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import lists  # noqa: E402
from tree import REPO  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=600,
    )


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def _outcomes(factor: float, served: bool):
    """A synthetic list on a machine ``factor`` times slower: CPU time and
    spins take ``factor`` times longer, waiting takes what it took."""
    import workloads

    outcomes = []
    for index, job in enumerate(lists.build("served_dispatch", 3, 1.0)):
        busy = 0.001 * (1 + index % 7) * factor
        wait = 0.004 if served and job.repeat_of is None else 0.0
        spin = 0.005 * (1 + (index % 3) / 10) * factor
        outcomes.append(
            workloads.Outcome(
                job,
                iterations=0 if job.repeat_of is not None else 128,
                sample=calib.Sample(
                    busy + wait, spin, cpu_s=1.5 * busy,
                    busy_s=busy if served else None,
                ),
            )
        )
    return outcomes


@pytest.mark.parametrize("served", [False, True])
def test_a_slower_machine_leaves_calibrated_metrics_unchanged(served):
    import workloads

    def metrics(factor: float) -> dict[str, float]:
        set_up = calib.Sample(
            2.0 * factor + 0.5, 0.005 * factor, busy_s=2.0 * factor
        )
        return workloads.end_to_end(_outcomes(factor, served), set_up.cal_s, 50.0)

    quiet, slow = metrics(1.0), metrics(1.7)
    assert quiet.keys() == {m["name"] for m in SPEC["end_to_end"]}
    for name, value in quiet.items():
        assert slow[name] == pytest.approx(value, rel=1e-12), name


def test_waiting_is_not_rescaled():
    quiet = calib.Sample(0.010, 0.005, busy_s=0.006)
    slow = calib.Sample(0.004 + 0.006 * 2, 0.010, busy_s=0.012)
    assert quiet.cal_s == pytest.approx(0.010)
    assert slow.cal_s == pytest.approx(0.010)
    # CPU time read from /proc can exceed the wall time of a parallel job
    assert calib.Sample(0.010, 0.010, busy_s=0.5).cal_s == pytest.approx(0.005)


def test_probe_estimators_are_scale_free():
    samples = [calib.Sample(0.01 * (i + 1), 0.005 + 0.0001 * i) for i in range(9)]
    slow = [replace(s, wall_s=s.wall_s * 3, spin_s=s.spin_s * 3) for s in samples]
    assert calib.mean_cal_ms(slow) == pytest.approx(calib.mean_cal_ms(samples))
    assert calib.rate_per_cal_s(1e4, slow) == pytest.approx(
        calib.rate_per_cal_s(1e4, samples)
    )
    assert calib.paired_overhead(samples, slow) == pytest.approx(0.0, abs=1e-12)
    assert calib.mean_raw_ms(slow) == pytest.approx(3 * calib.mean_raw_ms(samples))


def test_a_sample_on_the_reference_machine_is_not_rescaled():
    sample = calib.Sample(0.25, calib.REF_SPIN_MS / 1e3)
    assert sample.cal_s == pytest.approx(0.25)


# ----------------------------------------------------------------------
# job lists
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", lists.WORKLOADS)
def test_same_seed_same_list_other_seed_other_list(workload):
    first = lists.encode(lists.build(workload, 5, 15))
    assert first == lists.encode(lists.build(workload, 5, 15))
    assert first != lists.encode(lists.build(workload, 6, 15))


@pytest.mark.parametrize("workload", lists.WORKLOADS)
def test_a_repeat_follows_an_identical_first_time_job(workload):
    jobs = lists.build(workload, 5, 15)
    repeats = [(i, job) for i, job in enumerate(jobs) if job.repeat_of is not None]
    if workload != "served_compute":  # which re-sends its repeats twelve times
        assert len(repeats) * 3 == pytest.approx(len(jobs), abs=3)
    for index, job in repeats:
        source = jobs[job.repeat_of]
        assert job.repeat_of < index and source.repeat_of is None
        assert replace(job, repeat_of=None) == source


@pytest.mark.parametrize("workload", ["kernel_scalar", "multiwalk_vector"])
def test_time_to_solution_lists_run_one_population_whatever_the_seed(workload):
    def population(seed: int):
        return sorted(
            (j.problem, j.n, j.seed, j.repeat_of is None)
            for j in lists.build(workload, seed, 15)
        )

    assert population(5) == population(6)


# ----------------------------------------------------------------------
# BENCHMARK.json and what a run emits
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(lists.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(lists.WORKLOADS):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
    set_up = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert set_up["unit"] == "s" and set_up["better"] == "lower"
    assert set_up["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_exact_counter_is_a_declared_metric():
    import selfcheck

    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(selfcheck.EXACT) <= declared


def test_smoke_run_is_green():
    done = _run("--smoke")
    assert done.returncode == 0, done.stdout
    assert done.stdout.count("ok  ") == len(lists.WORKLOADS)


def test_a_run_emits_exactly_the_declared_end_to_end_metrics():
    import stack

    stack.adopt_orphans()  # whatever the run orphaned would now come to us
    done = _run("--workload", "served_dispatch", "--seconds", "2", "--trace", "0")
    assert done.returncode == 0, done.stdout
    assert stack._children() == [], "the run left a process behind"
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_traced_run_emits_every_per_layer_metric_and_its_spans():
    done = _run("--workload", "kernel_scalar", "--seconds", "4", "--trace", "1")
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    spans = [
        json.loads(line)
        for line in (REPO / "benchmarks/out/e2e/trace-kernel_scalar.jsonl")
        .read_text()
        .splitlines()
    ]
    assert spans and all(
        set(row) == {"name", "start", "end", "parent", "job"} for row in spans
    )
    assert all(row["end"] >= row["start"] for row in spans)


def test_refuses_to_measure_a_tree_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((REPO / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "kernel_scalar"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
