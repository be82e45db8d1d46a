"""Self-test of the benchmark:  python3 -m pytest perfbench/selftest.py -q

Runs each workload at the tiny size, untraced and traced, and checks that
every metric named in BENCHMARK.json and in the printed table appears with
its unit. Checks that the gate flags a wrong colouring, a wrong violation
count, a wrong expected verdict and an unexplained failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    printed = {tuple(line.split()[::2]) for line in lines if len(line.split()) == 3}
    units = tracing.LAYER_UNITS if trace else run.E2E_UNITS
    assert set(units.items()) <= printed
    meta = json.loads(lines[-2])["metadata"]
    assert meta["seed"] == 7 and len(meta["digest"]) == 64


def test_same_seed_same_digest():
    digests = []
    for _ in range(2):
        proc = _bench("--workload", "construct-large", "--seed", "5", "--seconds", "0",
                      "--size", "tiny")
        digests.append(json.loads(proc.stdout.splitlines()[-2])["metadata"]["digest"])
    assert digests[0] == digests[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "atlas-sweep", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_interval_checker():
    path = [(0, 1), (1, 2), (2, 3)]
    assert gate.interval_problems(4, path, [1, 2, 1], 2, "P4") == []
    assert gate.count_violations(4, path, [1, 1, 2], 2) == {"properness": 1, "gap": 0, "palette": 0}
    assert gate.count_violations(4, path, [1, 3, 1], 3) == {"properness": 0, "gap": 2, "palette": 1}
    assert gate.interval_problems(4, path, [1, 2, 1], 3, "P4")


def test_gate_flags_a_wrong_colouring(tmp_path):
    inputs = workloads.construct_setup(tmp_path, 1, workloads.SIZES["tiny"])
    construct = workloads.construct_ops(inputs)[0]
    outcome, _ = run.run_inprocess(construct.argv)
    assert construct.check(outcome) == []
    col = construct.outputs[0]
    lines = col.read_text().splitlines()
    k, u, v, c = lines[1].split()
    lines[1] = f"{k} {u} {v} {int(c) % 2 + 1}"
    col.write_text("\n".join(lines) + "\n")
    assert construct.check(outcome)
    outcome.stdout = outcome.stdout.replace("t=4", "t=5")
    assert any("theorem gives" in p for p in construct.check(outcome))


def test_gate_flags_a_wrong_violation_count():
    out = "\n".join([
        '{"schema": "gapfree.violation/1", "kind": "gap", "vertex": 3, "colors": [1, 3]}',
        '{"schema": "gapfree.verify/1", "valid": false, "t": 3}',
    ])
    assert gate.verify_output_problems(out, 3, {"properness": 0, "gap": 1, "palette": 0}) == []
    assert gate.verify_output_problems(out, 3, {"properness": 0, "gap": 2, "palette": 0})
    assert gate.verify_output_problems(out, 3, {"properness": 0, "gap": 0, "palette": 0})


def test_gate_flags_a_wrong_expected_verdict(tmp_path):
    inputs = workloads.oracle_setup(tmp_path, 1, workloads.SIZES["tiny"])
    q3 = next(op for op in workloads.oracle_ops(inputs) if op.name == "oracle Q3")
    outcome, _ = run.run_inprocess(q3.argv)
    assert q3.check(outcome) == []
    assert gate.verdict_problems(outcome.exit, outcome.stdout, 0, {"member": True, "w": 3, "W": 7})
    assert gate.verdict_problems(outcome.exit, outcome.stdout, 1, {"member": True})


def test_only_the_documented_failure_is_excused():
    def record(problems, defect_seen):
        return run._record("op", "oracle", 1.0, "d", lambda: problems, defect_seen=defect_seen)

    passes = [[record(["exit 1, expected 0"], True), record(["exit 1, expected 0"], False),
               record([], False)]]
    run.gate(passes)
    assert [r["known_defect"] for r in passes[0]] == [True, False, False]
