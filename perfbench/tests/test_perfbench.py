"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
import spans  # noqa: E402
from calibrate import REFERENCE_S, at_reference_speed, run_sampled  # noqa: E402
from workloads import COFFEE_P1, WORKLOADS, Workload, check_verify  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
F = Fraction
TINY_SIM_OP = dataclasses.replace(WORKLOADS["sim-coffee"].op, trials=50)
TINY_VERIFY = Workload("tiny-verify", COFFEE_P1, TINY_SIM_OP)
TINY_SIM = Workload("tiny-sim", TINY_SIM_OP, COFFEE_P1)


def _metrics(workload, trace, spec):
    result, lines = harness.run_workload(workload, seed=1, seconds=0.05, trace=trace,
                                         setup_runs=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())
    return {name: entry["value"] for name, entry in result["metrics"].items()}, \
        "\n".join(lines)


def test_workloads_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]


def test_every_end_to_end_metric_printed_with_unit():
    for workload, user in ((TINY_VERIFY, r"verdict_s = \S+ s"),
                           (TINY_SIM, r"trials_per_s = \S+ trials/s")):
        _values, text = _metrics(workload, False, BENCHMARK["end_to_end"])
        for m in BENCHMARK["end_to_end"]:
            assert re.search(rf"^{m['name']} = \S+ {re.escape(m['unit'])}\b", text, re.M)
        assert re.search(rf"^{user}  \(from call_s\)$", text, re.M)
        assert re.search(r"^error_rate = 0 share", text, re.M)
        assert '"seed": 1' in text and '"numpy"' in text and '"nproc"' in text


def test_every_per_layer_metric_reported_with_unit():
    for workload in (TINY_VERIFY, TINY_SIM):
        values, text = _metrics(workload, True, BENCHMARK["per_layer"])
        assert (values["abstraction.sequences"], values["abstraction.pruned"],
                values["checker.policies"], values["simulate.trials"]) == (32, 5, 3, 50)
        assert 0 < values["simulate.engine_hit_ratio"] < 1
        assert all(values[m["name"]] > 0 for m in BENCHMARK["per_layer"]
                   if m["unit"] == "s" and not m["name"].startswith("trace."))
    assert "stress largest span: simulate.estimate_s" in text


def test_gate_catches_tampered_expected_value():
    tampered = dataclasses.replace(
        COFFEE_P1, per_type=(("0", F(1, 20), F(1, 21)),) + COFFEE_P1.per_type[1:])
    result, lines = harness.run_workload(Workload("t", tampered, TINY_SIM_OP), seed=1,
                                         seconds=0.05, trace=False, setup_runs=1)
    assert not result["correct"] and result["failed"] >= 1
    assert any("expected [1/20, 1/21]" in line for line in lines)
    tampered = dataclasses.replace(TINY_SIM_OP, contains=F(1, 2))
    result, lines = harness.run_workload(Workload("t", tampered, COFFEE_P1), seed=1,
                                         seconds=0.05, trace=False, setup_runs=1)
    assert not result["correct"] and result["failed"] >= 1
    assert any("misses 1/2" in line for line in lines)


def test_verify_gate_checks_each_reference_field():
    op = COFFEE_P1
    rc, out, _err, _s, _speed = harness.run_cli(op.argv(0))
    report = json.loads(out)
    assert check_verify(op, rc, report) == []
    for change in ({"holds": True}, {"pruned": 6}, {"per_type": op.per_type[:2]},
                   {"per_type": (("-1", F(1, 20), F(1, 20)),) + op.per_type[1:]}):
        assert check_verify(dataclasses.replace(op, **change), rc, report)


def test_reference_speed_cancels_a_uniform_slowdown():
    assert at_reference_speed(1.5, [REFERENCE_S]) == pytest.approx(1.5)
    assert at_reference_speed(3.0, [2 * REFERENCE_S]) == pytest.approx(1.5)
    assert at_reference_speed(1.5, [REFERENCE_S / 2, 3 * REFERENCE_S / 2]) == \
        pytest.approx(1.5)


def test_sampling_takes_its_loops_out_of_the_call():
    def busy():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        return "done"

    result, seconds, scaled, samples = run_sampled(busy)
    assert result == "done"
    assert len(samples) >= 3  # before, during, after
    assert 0.5 - sum(samples) < seconds < 0.5
    assert scaled == pytest.approx(at_reference_speed(seconds, samples))


def test_self_time_on_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.5, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    a, b = tracer.intern("layer.a"), tracer.intern("layer.b")
    with tracer.operation(7, root="root"):       # 0.0 .. 10.0
        i = tracer.open(a)                          # 1.0 .. 9.5
        j = tracer.open(b)                          # 2.0 .. 4.0
        tracer.close(j)
        k = tracer.open(b)                          # 5.0 .. 8.0
        tracer.close(k)
        tracer.close(i)
    tables = tracer.span_tables()
    assert list(tables) == [7]
    assert tables[7]["layer.b"] == [2, 5.0, 5.0]
    assert tables[7]["layer.a"] == [1, 8.5, 3.5]
    assert tables[7]["root"] == [1, 10.0, 1.5]


def test_tracing_restores_every_binding():
    plan = spans._plan(spans.Tracer())
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan]
    with spans.installed(spans.Tracer()):
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-coffee",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
