"""Tests of the benchmark itself: ``python3 -m pytest bench`` from the root."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_engine()

import workloads  # noqa: E402


def bench(*argv: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_run_emits_every_metric(workload, trace):
    detail, result = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "small"
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert detail["provenance"]["seed"] == 3
    assert detail["failed_ratio"] == result["failed"] / result["attempted"]
    if trace == "1":
        layers = detail["per_layer"]
        self_total = sum(v for k, v in layers.items() if k.startswith("self_s."))
        assert layers["trace.uncovered_s"] >= 0
        assert self_total + layers["trace.uncovered_s"] == pytest.approx(layers["trace.wall_s"])
        assert layers["trace.overhead_ratio"] > 0


def test_same_seed_same_inputs():
    a = workloads.document_requests(11, small=False)
    b = workloads.document_requests(11, small=False)
    assert a == b
    assert a != workloads.document_requests(12, small=False)


def test_classify_requests_have_exact_answers():
    # above LIGHT_ELEMENTS the pretopological flag is sampled, not exact
    for seed in (1, 2):
        for r in workloads.document_requests(seed, small=False):
            if r["argv"][0] == "classify":
                assert r["elements"] <= workloads.LIGHT_ELEMENTS


def test_wrong_expected_answer_is_counted():
    work = workloads.search_workload(0, small=True, expected="counterexample")
    answers, _, _ = run.run_batch(work)
    outcomes = run.tally(run.grades(work, answers))
    assert outcomes["wrong"] == len(work.operations)
    assert outcomes["ok"] == 0


def test_corrupted_documents_are_counted():
    work = workloads.documents_workload(5, small=True)
    requests = workloads.document_requests(5, small=True)
    ops = work.operations
    # an unparsable document, and a table that is not antitone
    broken = [dict(requests[0], text=requests[0]["text"][:-5])]
    doc = json.loads(requests[1]["text"])
    top = max(doc["lim"], key=len)
    doc["lim"].update({"{}": "{}", top: top})
    broken.append(dict(requests[1], text=json.dumps(doc)))
    for i, request in enumerate(broken):
        ops[i] = workloads.Operation(
            "broken",
            lambda r=request: workloads.call_cli(r["argv"], r["text"]),
            lambda answer, r=request: workloads.check_document_answer(r, answer),
        )
    answers, _, _ = run.run_batch(work)
    outcomes = run.tally(run.grades(work, answers))
    assert outcomes["error"] == 2
    assert outcomes["ok"] + outcomes["refused"] == len(ops) - 2


def test_wrong_document_answers_are_counted():
    request = next(
        r for r in workloads.document_requests(5, small=True) if r["argv"][0] == "classify"
    )
    code, out = workloads.call_cli(request["argv"], request["text"])
    report = json.loads(out)
    assert workloads.check_document_answer(request, (code, out))["ok"] == 1
    report["flags"].update(pretopological=True, strict=True, limit=False)
    assert workloads.check_document_answer(request, (code, json.dumps(report)))["wrong"] == 1


def test_missing_engine_exits_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
