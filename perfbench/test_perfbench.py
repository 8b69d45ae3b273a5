"""Smoke tests of the benchmark at tiny sizes.

Every run goes through ``perfbench/run.py`` in a fresh interpreter, as the
benchmark is meant to be run, with the parallelism override removed from
the environment so the default configuration is what gets measured.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run(workload, *extra, seed=3, cwd=ROOT, script=RUN):
    env = {key: value for key, value in os.environ.items() if key != "REPRO_PARALLELISM"}
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--tiny", *extra],
        capture_output=True, text=True, timeout=120, cwd=cwd, env=env,
    )
    return done


def results(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def assert_declared(metrics, declared):
    assert set(metrics) == {entry["name"] for entry in declared}
    for entry in declared:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert isinstance(metrics[entry["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_correct_and_work_repeats(workload):
    report, result = results(run(workload, "--trace", "0"))
    assert_declared(result["metrics"], BENCHMARK["end_to_end"])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert report["metrics"]["fail_ratio"]["value"] == 0
    assert report["work_repeats"] is True
    assert report["host"]["seed"] == 3 and report["host"]["cpu_count"]
    _, again = results(run(workload, "--trace", "0"))
    assert again["metrics"]["work_per_op"] == result["metrics"]["work_per_op"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    report, result = results(run(workload, "--trace", "1"))
    assert_declared(result["metrics"], BENCHMARK["per_layer"])
    assert result["correct"] is True
    assert abs(sum(report["layer_shares"].values()) - 1.0) < 1e-9
    assert os.path.isfile(os.path.join(ROOT, report["spans"]))


def test_a_wrong_answer_counts_as_a_failure():
    report, result = results(run("oneshot-small", "--trace", "0", "--inject-failure"))
    assert result["failed"] == 1 and result["correct"] is False
    assert report["metrics"]["fail_ratio"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("oneshot-small", "--trace", "0", cwd=tmp_path,
               script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert not done.stdout.strip()
