"""Tests of the pipeline benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/tests

The decode checkpoints train on 24 dialogues here instead of 200, so the
whole module takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from kgdial import pipeline  # noqa: E402
from kgdial.corpus import Dialogue, Speaker, Turn  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
TINY_SECONDS = 0.5


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    return workloads.Bench(ROOT, tmp_path_factory.mktemp("bench_build"),
                           build_dialogues=24)


def test_benchmark_json_declares_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in E2E


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_metrics_match_benchmark_json(bench, workload):
    plain = workloads.run_workload(bench, workload, 0, TINY_SECONDS, trace=False)
    assert plain.correct, plain.problems
    assert set(plain.metrics) == E2E
    assert all(value > 0 for value in plain.metrics.values())
    assert plain.attempted == (4 if workload == "train"
                               else workloads.input_size(workload, TINY_SECONDS))

    traced = workloads.run_workload(bench, workload, 0, TINY_SECONDS, trace=True)
    assert traced.correct, traced.problems
    assert set(traced.layers) == PER_LAYER
    assert traced.report["hashes"] == plain.report["hashes"]
    spans = (bench.build / "traces" / f"{workload}-seed0.jsonl").read_text().splitlines()
    assert len(spans) == traced.report["spans"]
    assert set(json.loads(spans[0])) == {"id", "name", "start", "end", "parent", "turn"}
    if workload == "train":
        assert traced.layers["rank.train_pointwise.calls"] == 5
        assert traced.layers["models.optimizer.calls"] > 0
        assert traced.layers["entity_track.exact.calls"] > 0
    else:
        assert traced.layers["generate.beam.steps"] > 0
        assert traced.layers["entity_track.exact.calls"] == 0
        assert traced.layers["pipeline.decode.wall_s"] > 0


def test_gate_trips_on_a_tampered_prediction(bench, monkeypatch):
    real = pipeline.end_to_end_decode

    def tampered(dialogues, *args, **kwargs):
        records = real(dialogues, *args, **kwargs)
        if len(dialogues) == 1 and records[0]["target"]:
            records[0] = dict(records[0], response="tampered")
        return records

    monkeypatch.setattr(pipeline, "end_to_end_decode", tampered)
    outcome = workloads.run_workload(bench, "decode-short", 1, TINY_SECONDS, trace=False)
    assert not outcome.correct
    assert any("differ from stage_decode" in p for p in outcome.problems)


def test_gate_trips_when_hashes_drift_between_runs(bench):
    key = f"decode-short-n{workloads.input_size('decode-short', TINY_SECONDS)}-seed2"
    path = workloads.ledger_dir(bench) / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"predictions.json": "0" * 64, "metrics.json": "0" * 64}))
    outcome = workloads.run_workload(bench, "decode-short", 2, TINY_SECONDS, trace=False)
    assert not outcome.correct
    assert any("differ from an earlier run" in p for p in outcome.problems)


def test_failed_turn_is_a_miss_and_the_next_turn_runs(bench, monkeypatch):
    real = pipeline.end_to_end_decode
    turns_run = []

    def flaky(dialogues, *args, **kwargs):
        if len(dialogues) == 1:
            turns_run.append(dialogues[0].id)
            if len(turns_run) == 1:
                raise RuntimeError("injected failure")
        return real(dialogues, *args, **kwargs)

    monkeypatch.setattr(pipeline, "end_to_end_decode", flaky)
    outcome = workloads.run_workload(bench, "decode-short", 3, TINY_SECONDS, trace=False)
    n = workloads.input_size("decode-short", TINY_SECONDS)
    assert len(turns_run) == n
    assert outcome.attempted == n and outcome.failed == 1
    assert not outcome.correct
    # the failed turn sorts last, so it is the latency at every rank it reaches
    assert outcome.metrics["latency_p90_ms"] == 1e3 * workloads.FAILED_LATENCY


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert result.stdout == ""


def test_stitch_keeps_the_last_dialogue_label_and_id():
    dialogues = [
        Dialogue(id=f"x{i}", turns=(Turn(Speaker.USER, f"turn {i}"),))
        for i in range(6)]
    long = workloads.stitch(dialogues, 4, 4)
    assert long.id == "x4"
    assert [t.text for t in long.turns] == ["turn 1", "turn 2", "turn 3", "turn 4"]


def test_select_fixes_the_knowledge_seeking_share(bench):
    corpus = workloads.write_synth(bench.build / "select", 11, 200)
    picks = workloads.select(corpus, 40, start=3)
    assert len(picks) == 40 and picks == sorted(picks) and picks[0] >= 3
    seeking = [corpus[i] for i in picks if corpus[i].label.is_knowledge_seeking]
    assert len(seeking) == 30
    assert sum(d.label.response.endswith("?") for d in seeking) == 12


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 11)]
    assert workloads.percentile(values, 50) == 5.0
    assert workloads.percentile(values, 90) == 9.0
    assert workloads.percentile([3.0], 90) == 3.0
