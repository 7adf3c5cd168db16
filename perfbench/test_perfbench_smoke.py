"""Tiny-scale smoke test of every benchmark workload and of the traced run.

Keeps the benchmark from rotting silently: each workload must run, pass
its correctness check and print every metric ``BENCHMARK.json``
declares, and each workload's split setup/run path must reproduce the
``repro.experiments.runner`` helper it mirrors bit for bit.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [path for path in (HERE, os.path.join(ROOT, "src")) if path not in sys.path]

import bench_workloads  # noqa: E402
import run as bench_run  # noqa: E402
from bench_trace import LAYER_METRICS, TARGETS, SpanRecorder, target_owner, tracing  # noqa: E402
from repro import ChurnModel, EpochConfig, ProportionalCrashModel, RandomSource, TopologySpec  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    repeat_simulations,
    run_async_count,
    run_average_once,
    run_epoched_count,
    uniform_initial_values,
)
from repro.simulator.asynchrony import HOSTILE  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

SEED = 7


def _result(capsys, monkeypatch, workload: str, trace: int) -> dict:
    for name in bench_run.THREAD_VARIABLES:
        monkeypatch.setenv(name, os.environ.get(name, "1"))
    monkeypatch.setitem(bench_workloads.SCALES, "bench", bench_workloads.SCALES["tiny"])
    code = bench_run.main(
        ["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(bench_workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload, capsys, monkeypatch):
    result = _result(capsys, monkeypatch, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(bench_workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload, capsys, monkeypatch):
    # The traced run also checks its estimates against an untraced run.
    result = _result(capsys, monkeypatch, workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    layer = bench_workloads.WORKLOADS[workload].main_layer
    busy = [
        m["value"] for name, m in result["metrics"].items()
        if name.startswith(layer + ".") and m["unit"] == "s"
    ]
    assert busy and max(busy) > 0


def _tiny(name):
    return bench_workloads.make_workload(name, "tiny")


def test_static_crash_matches_run_average_once():
    workload = _tiny("static-crash")
    params = workload.params
    rng = RandomSource(SEED)
    simulator = run_average_once(
        TopologySpec("random", degree=20),
        params["size"],
        uniform_initial_values(params["size"], rng.child("values")),
        params["cycles"],
        rng,
        failure_model=ProportionalCrashModel(params["crash"]),
        engine="vectorized",
    )
    expected = np.asarray(simulator.finite_estimates(), dtype=np.float64)
    assert workload.whole_run(SEED).estimates.tobytes() == expected.tobytes()


def test_newscast_count_matches_run_epoched_count():
    workload = _tiny("newscast-count")
    params = workload.params
    result = run_epoched_count(
        TopologySpec("newscast", degree=30, params={"vectorized": True}),
        params["size"],
        params["epochs"],
        RandomSource(SEED),
        epoch_config=EpochConfig(cycles_per_epoch=params["gamma"]),
        failure_factory=ChurnModel(params["size"] // 1000),
        engine="vectorized",
        keep_cycle_traces=True,
    )
    assert workload.whole_run(SEED).estimates.tolist() == result.estimates()


def test_replicated_churn_matches_repeat_traces_plan():
    workload = _tiny("replicated-churn")
    plan = dataclasses.replace(workload.plan(), collect=lambda view: view.finite_estimates())
    per_replica = repeat_simulations(workload.params["replicas"], SEED, plan=plan, engine="replicated")
    expected = np.concatenate([np.asarray(e, dtype=np.float64) for e in per_replica])
    assert workload.whole_run(SEED).estimates.tobytes() == expected.tobytes()


def test_async_hostile_matches_run_async_count():
    workload = _tiny("async-hostile")
    params = workload.params
    protocol = run_async_count(
        TopologySpec("newscast", degree=30, params={"vectorized": True}),
        params["size"],
        params["epochs"],
        RandomSource(SEED),
        scenario=HOSTILE,
    )
    expected = list(protocol.size_estimates().values())
    assert workload.whole_run(SEED).estimates.tolist() == expected


@pytest.mark.parametrize("workload", sorted(bench_workloads.WORKLOADS))
def test_host_probe_between_steps_changes_no_result(workload):
    probe = bench_run.HostProbe()
    probe.INTERVAL = 0.0
    plain = _tiny(workload).whole_run(SEED)
    probed = _tiny(workload).whole_run(SEED, between_steps=probe.between_steps)
    assert probed.estimates.tobytes() == plain.estimates.tobytes()
    assert len(probe.times) == len(probed.step_s)
    assert probed.run_s == sum(probed.step_s)


def test_benchmark_json_mirrors_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench_workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert f"most time in {bench_workloads.WORKLOADS[entry['name']].main_layer}" in entry["why"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench_run.END_TO_END
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS
    ]
    names = set(bench_workloads.WORKLOADS)
    for metric in LAYER_METRICS:
        assert all(e2e in bench_run.END_TO_END and w in names for e2e, w in metric.moves)
        assert set(metric.flat) <= names


def test_tracing_restores_every_wrapped_attribute():
    from repro.simulator.asynchrony import AsynchronyScenario

    owners = [(target_owner(m, o), a) for m, o, a, _, _ in TARGETS]
    owners.append((AsynchronyScenario, "window_hook"))
    before = [(vars(owner).get(attribute), inspect.getattr_static(owner, attribute)) for owner, attribute in owners]
    with tracing(SpanRecorder()):
        assert all(
            inspect.getattr_static(owner, attribute) is not original
            for (owner, attribute), (_, original) in zip(owners, before)
        )
    after = [(vars(owner).get(attribute), inspect.getattr_static(owner, attribute)) for owner, attribute in owners]
    assert after == before


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static-crash", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
