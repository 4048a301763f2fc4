"""Workloads of the pipeline benchmark: inputs, decode-model preparation,
the timed loops and the correctness gate.

Everything drives kgdial through its public entry points: the
``pipeline.stage_*`` functions and ``pipeline.end_to_end_decode``. Inputs
come from ``kgdial.synth``. Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kgdial import kernels, pipeline
from kgdial.corpus import (Dialogue, load_corpus, load_knowledge_base,
                           save_corpus, save_knowledge_base)
from kgdial.augment import load_lexicon
from kgdial.models import load_checkpoint, scorer_from_checkpoint
from kgdial.synth import MiniCorpusConfig, build_mini_corpus, save_lexicon

from speed import SpeedSampler
from tracer import TRAIN_STAGES, Tracer

HERE = Path(__file__).resolve().parent

WORKLOADS = ("decode-short", "decode-long", "train")

# The README quick start: fuzzy tracking at 0.5, no MTL, 4 epochs, 2 folds.
QUICKSTART = {
    "seed": 5,
    "track.method": "fuzzy",
    "track.fuzzy_threshold": 0.5,
    "rank.use_mtl": False,
    "rank.kfolds": 2,
    "rank.epochs": 4,
    "rank.learning_rate": 0.01,
    "detect.epochs": 4,
    "detect.learning_rate": 0.02,
    "gen.epochs": 4,
    "gen.learning_rate": 0.01,
    "gen.kfolds": 2,
}

# --seed n trains on synth seed 5 + n and decodes the held-out synth seed
# 6 + n; every synth seed builds the same 150-snippet knowledge base.
TRAIN_SEED = 5
HELDOUT_SEED = 6
# the decode checkpoints train on the full quick-start corpus
BUILD_DIALOGUES = 200
# decode-long stitches this many consecutive held-out dialogues per turn
LONG_WINDOW = 4
SETUP_REPEATS = 16
# --seconds becomes an input size at these fixed rates (turns, or training
# dialogues, per second), so a given --seconds always means the same inputs;
# the measured part of a run then takes about --seconds of reference time
# (speed.py) with the numpy kernels.
NOMINAL_RATE = {"decode-short": 15.0, "decode-long": 4.8, "train": 5.0}
MIN_SIZE = {"decode-short": 4, "decode-long": 4, "train": 12}
PREPARE_TIMEOUT_S = 850
FAILED_LATENCY = sys.float_info.max


@dataclass
class Bench:
    """Where the benchmark reads the program (root/src) and keeps what it
    writes (build)."""
    root: Path
    build: Path
    build_dialogues: int = BUILD_DIALOGUES


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    report: dict[str, object] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def input_size(workload: str, seconds: float) -> int:
    return max(MIN_SIZE[workload], round(seconds * NOMINAL_RATE[workload]))


def quickstart_config(data: Path, out: Path, logs: Path | None = None,
                      labels: str | None = None) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(dict(QUICKSTART, **{
        "paths.logs": str(logs or data / "logs.json"),
        "paths.labels": str(data / "labels.json") if labels is None else labels,
        "paths.knowledge": str(data / "knowledge.json"),
        "paths.lexicon": str(data / "lexicon.tsv"),
        "paths.output": str(out),
    }))


def write_synth(data: Path, seed: int, n_dialogues: int) -> list[Dialogue]:
    """What `kgdial synth --seed <seed> --dialogues <n>` writes."""
    data.mkdir(parents=True, exist_ok=True)
    dialogues, kb, lexicon = build_mini_corpus(
        MiniCorpusConfig(n_dialogues=n_dialogues, seed=seed))
    save_corpus(dialogues, str(data / "logs.json"), str(data / "labels.json"))
    save_knowledge_base(kb, str(data / "knowledge.json"))
    save_lexicon(lexicon, str(data / "lexicon.tsv"))
    return dialogues


def _kind(dialogue: Dialogue) -> str:
    label = dialogue.label
    if not label.is_knowledge_seeking:
        return "other"
    return "seeking-question" if label.response.endswith("?") else "seeking"


def select(dialogues: list[Dialogue], n: int, start: int = 0) -> list[int]:
    """Indices of the first n dialogues from `start` on whose mix matches
    the shares synth draws at random per dialogue: 3/4 knowledge-seeking,
    and 0.4 of those with a trailing question in the response. Left to
    chance, these shares moved a run's cost by up to 40 % between seeds;
    the contents still vary with the seed."""
    config = MiniCorpusConfig()
    n_seeking = round(n * config.seeking_fraction)
    n_question = round(n_seeking * config.trailing_question_rate)
    quota = {"seeking-question": n_question, "seeking": n_seeking - n_question,
             "other": n - n_seeking}
    picked = []
    for i in range(start, len(dialogues)):
        kind = _kind(dialogues[i])
        if quota[kind]:
            quota[kind] -= 1
            picked.append(i)
            if len(picked) == n:
                return picked
    raise ValueError(f"corpus too small to select {n} dialogues")


def stitch(dialogues: list[Dialogue], last: int, window: int) -> Dialogue:
    """Dialogues last-window+1 .. last as one history, with the id and
    label of the last one."""
    parts = dialogues[last - window + 1:last + 1]
    return Dialogue(id=dialogues[last].id, label=dialogues[last].label,
                    turns=tuple(t for d in parts for t in d.turns))


def setup_points(n_units: int, repeats: int) -> Counter:
    """Before which unit each set-up after the first runs: spread evenly, so
    set-ups see the same machine as the units they are timed against."""
    return Counter(j * n_units // repeats for j in range(1, repeats))


# ---------------------------------------------------------------------------
# decode checkpoints: trained by the code under test, once per code version
# ---------------------------------------------------------------------------


def _hash_files(paths):
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest


def code_key(bench: Bench) -> str:
    """Hash of the program source, the training set-up and the numeric
    stack: the decode checkpoints are kept under it."""
    digest = _hash_files((bench.root / "src" / "kgdial").rglob("*.py"))
    digest.update(json.dumps({
        "config": QUICKSTART, "train_seed": TRAIN_SEED,
        "dialogues": bench.build_dialogues,
        "python": platform.python_version(), "numpy": np.__version__,
        "numba": kernels.HAVE_NUMBA}, sort_keys=True).encode())
    return digest.hexdigest()[:20]


def ledger_dir(bench: Bench) -> Path:
    """Output hashes are recorded per program and benchmark version."""
    digest = _hash_files(HERE.glob("*.py"))
    digest.update(code_key(bench).encode())
    return bench.build / f"ledger-{digest.hexdigest()[:20]}"


def build_models(code_dir: Path, n_dialogues: int) -> None:
    """Train the decode checkpoints: the four training stages of the quick
    start on synth seed 5."""
    data = code_dir / "data"
    write_synth(data, TRAIN_SEED, n_dialogues)
    config = quickstart_config(data, code_dir / "out")
    for stage in TRAIN_STAGES:
        getattr(pipeline, f"stage_{stage}")(config)


def ensure_models(bench: Bench) -> Path:
    """Directory holding data/ and out/ (checkpoints) for the code under
    test; trains the checkpoints in a child process when missing, so
    training leaves nothing behind in the measured process."""
    code_dir = bench.build / f"code-{code_key(bench)}"
    if code_dir.is_dir():
        return code_dir
    bench.build.mkdir(parents=True, exist_ok=True)
    tmp = bench.build / f"{code_dir.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    print(f"perfbench: training decode checkpoints into {code_dir}",
          file=sys.stderr, flush=True)
    subprocess.run([sys.executable, str(HERE / "prepare.py"), str(bench.root),
                    str(tmp), str(bench.build_dialogues)],
                   check=True, stdout=sys.stderr, timeout=PREPARE_TIMEOUT_S)
    try:
        os.rename(tmp, code_dir)
    except OSError:  # another run finished the same build first
        shutil.rmtree(tmp, ignore_errors=True)
    return code_dir


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setups: list[float], latencies: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def content_hash(path: Path) -> str:
    """Checkpoint archives carry zip timestamps, so hash their tensors."""
    if path.suffix != ".npz":
        return sha256_file(path)
    tensors, meta = load_checkpoint(str(path))
    digest = hashlib.sha256(json.dumps(meta, sort_keys=True).encode())
    for name in sorted(tensors):
        value = np.ascontiguousarray(tensors[name])
        digest.update(f"{name}:{value.dtype.str}:{value.shape}".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def check_ledger(bench: Bench, key: str, hashes: dict[str, str]) -> str | None:
    """Output hashes must repeat across every run of one code version with
    the same workload, input size and seed, traced or not."""
    path = ledger_dir(bench) / f"{key}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != hashes:
            return f"output hashes {hashes} differ from an earlier run's {recorded}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(hashes, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _paused(tracer: Tracer | None):
    return tracer.paused_layers() if tracer is not None else nullcontext()


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _dropped_frac(stats_path: Path) -> float:
    stats = json.loads(stats_path.read_text())
    return stats["dropped"] / stats["decoded"] if stats["decoded"] else 0.0


# ---------------------------------------------------------------------------
# timed passes: each unit's (start, end) is kept and put on the reference
# scale afterwards
# ---------------------------------------------------------------------------


class _Captured(Exception):
    def __init__(self, args, kwargs):
        super().__init__("end_to_end_decode captured")
        self.call = (args, kwargs)


def capture_decode_call(config: pipeline.PipelineConfig) -> tuple[list, tuple, dict]:
    """Run stage_decode up to its end_to_end_decode call: the program's own
    set-up (corpus, knowledge base, checkpoints, components). Returns that
    call's dialogues, other positional arguments and keyword arguments."""
    real = pipeline.end_to_end_decode

    def capture(*args, **kwargs):
        raise _Captured(args, kwargs)

    pipeline.end_to_end_decode = capture
    try:
        pipeline.stage_decode(config)
    except _Captured as captured:
        args, kwargs = captured.call
        if args:
            return args[0], args[1:], kwargs
        return kwargs.pop("dialogues"), (), kwargs
    finally:
        pipeline.end_to_end_decode = real
    raise RuntimeError("stage_decode returned without calling end_to_end_decode")


def write_with_stage_decode(config: pipeline.PipelineConfig,
                            records: list[dict]) -> bytes:
    """What stage_decode writes when its decode returns `records`."""
    real = pipeline.end_to_end_decode
    pipeline.end_to_end_decode = lambda *args, **kwargs: list(records)
    try:
        path = pipeline.stage_decode(config)[0]
    finally:
        pipeline.end_to_end_decode = real
    return Path(path).read_bytes()


def decode_pass(config: pipeline.PipelineConfig, tracer: Tracer | None = None,
                gold: list | None = None) -> dict:
    """Set up, then serve every turn with one end_to_end_decode call each,
    closed loop. A turn that raises is a failed operation (interval None)
    and the loop goes on. `gold` holds each turn's gold knowledge keys, for
    the tracer."""
    setups = []

    def set_up() -> tuple[list, tuple, dict]:
        start = time.perf_counter()
        with _span(tracer, "pipeline.load_models"):
            captured = capture_decode_call(config)
        setups.append((start, time.perf_counter()))
        return captured

    # the turns are served with the components of the first set-up
    dialogues, args, kwargs = set_up()
    if tracer is not None and gold is not None:  # the program numbers the turns
        tracer.gold = {d.id: keys for d, keys in zip(dialogues, gold)}
    points = setup_points(len(dialogues), SETUP_REPEATS)
    records, turns = [], []
    for i, dialogue in enumerate(dialogues):
        for _ in range(points[i]):
            set_up()
        if tracer is not None:
            tracer.turn = dialogue.id
        start = time.perf_counter()
        try:
            with _span(tracer, "pipeline.turn"):
                out = pipeline.end_to_end_decode([dialogue], *args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            turns.append(None)
        else:
            turns.append((start, time.perf_counter()))
            records.extend(out)
        if tracer is not None:
            tracer.turn = None
    return {"records": records, "units": turns, "setups": setups}


def train_pass(config: pipeline.PipelineConfig, tracer: Tracer | None = None) -> dict:
    """Set up, then run the four training stages in order. A stage that
    raises is a failed operation (interval None) and the next stage still
    runs."""
    setups = []

    def set_up() -> None:
        start = time.perf_counter()
        load_corpus(config["paths.logs"], config["paths.labels"])
        load_lexicon(config["paths.lexicon"])
        load_knowledge_base(config["paths.knowledge"])
        setups.append((start, time.perf_counter()))

    set_up()
    points = setup_points(len(TRAIN_STAGES), SETUP_REPEATS)
    stages = []
    for i, stage in enumerate(TRAIN_STAGES):
        for _ in range(points[i]):
            set_up()
        start = time.perf_counter()
        try:
            with _span(tracer, f"pipeline.{stage}"):
                getattr(pipeline, f"stage_{stage}")(config)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            stages.append(None)
        else:
            stages.append((start, time.perf_counter()))
    return {"units": stages, "setups": setups}


def measure(sampler: SpeedSampler, result: dict) -> dict:
    """Reference and wall seconds of a pass's set-ups and units; a failed
    unit is a miss at FAILED_LATENCY."""
    def each(intervals, scale):
        return [FAILED_LATENCY if iv is None else scale(*iv) for iv in intervals]

    def wall(start, end):
        return end - start

    return {"setups": each(result["setups"], sampler.reference_s),
            "units": each(result["units"], sampler.reference_s),
            "wall_setups": each(result["setups"], wall),
            "wall_units": each(result["units"], wall)}


def artefact_hashes(out: Path) -> dict[str, str]:
    """Content hash of every training output but the manifests, which
    embed file hashes of the timestamped checkpoint archives."""
    return {p.name: content_hash(p) for p in sorted(out.iterdir())
            if not p.name.endswith(".manifest.json")}


# ---------------------------------------------------------------------------
# decode workloads
# ---------------------------------------------------------------------------


def run_decode(bench: Bench, workload: str, seed: int, seconds: float,
               tracer: Tracer | None = None) -> Outcome:
    code_dir = ensure_models(bench)
    run_dir = _fresh_dir(bench.build / "runs" / f"{workload}-seed{seed}")
    data = run_dir / "data"
    n = input_size(workload, seconds)
    heldout = write_synth(data, HELDOUT_SEED + seed, 3 * n + 40)
    if (data / "knowledge.json").read_bytes() != \
            (code_dir / "data" / "knowledge.json").read_bytes():
        raise RuntimeError("held-out knowledge base differs from the training one")
    picks = select(heldout, n, start=LONG_WINDOW - 1)
    if workload == "decode-short":
        turns = [heldout[i] for i in picks]
    else:
        turns = [stitch(heldout, i, LONG_WINDOW) for i in picks]
    logs, labels = data / "turns.logs.json", data / "turns.labels.json"
    save_corpus(turns, str(logs), str(labels))
    shutil.copytree(code_dir / "out", run_dir / "out")
    config = quickstart_config(code_dir / "data", run_dir / "out", logs=logs,
                               labels="")

    if tracer is not None:
        tracer.install()
    with SpeedSampler(tracer.exclude if tracer else None) as sampler:
        result = decode_pass(config, tracer,
                             gold=[set(t.label.knowledge_refs) for t in turns])
    times = measure(sampler, result)
    latencies = times["units"]
    completed = [t for t in latencies if t != FAILED_LATENCY]
    outcome = Outcome(attempted=len(latencies),
                      failed=len(latencies) - len(completed))
    outcome.metrics = end_to_end(times["setups"], latencies)
    records = result["records"]

    # correctness gate: the per-turn records, written out by stage_decode,
    # must equal stage_decode's batch output byte for byte
    predictions = run_dir / "out" / "predictions.json"
    try:
        pipeline.validate_labels_schema(records)
        with _paused(tracer):
            per_turn = write_with_stage_decode(config, records)
        with _span(tracer, "pipeline.decode"), _paused(tracer):
            pipeline.stage_decode(config)
        batch = predictions.read_bytes()
        pipeline.validate_labels_schema(json.loads(batch))
        if batch != per_turn:
            outcome.problems.append(
                "per-turn decode records differ from stage_decode output")
        with _span(tracer, "pipeline.evaluate"):
            metrics_path = Path(pipeline.stage_evaluate(
                config, str(predictions), str(labels))[0])
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        outcome.problems.append(f"correctness gate: {exc!r}")
        return outcome
    hashes = {"predictions.json": sha256_file(predictions),
              "metrics.json": sha256_file(metrics_path)}
    drift = check_ledger(bench, f"{workload}-n{n}-seed{seed}", hashes)
    if drift:
        outcome.problems.append(drift)

    scores = json.loads(metrics_path.read_text())["scores"]
    wall = [t for t in times["wall_units"] if t != FAILED_LATENCY]
    outcome.report = {
        "turns": outcome.attempted,
        "turn_p50_ms": outcome.metrics["latency_p50_ms"],
        "turn_p90_ms": outcome.metrics["latency_p90_ms"],
        "turns_per_s": len(completed) / sum(completed) if completed else 0.0,
        "speed_factor": sampler.speed_factor(),
        "wall_setup_s": statistics.median(times["wall_setups"]),
        "wall_turn_p50_ms": 1e3 * percentile(times["wall_units"], 50),
        "wall_turn_p90_ms": 1e3 * percentile(times["wall_units"], 90),
        "wall_turns_per_s": len(wall) / sum(wall) if wall else 0.0,
        "selection_mrr5": scores.get("selection-mrr@5", 0.0),
        "selection_r1": scores.get("selection-r@1", 0.0),
        "generation_bleu4": scores.get("generation-bleu-4", 0.0),
        "hashes": hashes,
    }
    if tracer is not None:
        outcome.layers["rank.listwise_dropped_frac"] = _dropped_frac(
            code_dir / "out" / "listwise.stats.json")
    return outcome


# ---------------------------------------------------------------------------
# train workload
# ---------------------------------------------------------------------------


def run_train(bench: Bench, seed: int, seconds: float,
              tracer: Tracer | None = None) -> Outcome:
    # the first run in a checkout builds the decode checkpoints, whichever
    # workload it is
    ensure_models(bench)
    run_dir = _fresh_dir(bench.build / "runs" / f"train-seed{seed}")
    data = run_dir / "data"
    m = input_size("train", seconds)
    corpus = write_synth(data, TRAIN_SEED + seed, 3 * m + 40)
    save_corpus([corpus[i] for i in select(corpus, m)],
                str(data / "logs.json"), str(data / "labels.json"))
    out = run_dir / "out"
    config = quickstart_config(data, out)

    if tracer is not None:
        tracer.install()
    with SpeedSampler(tracer.exclude if tracer else None) as sampler:
        result = train_pass(config, tracer)
    times = measure(sampler, result)
    stage_s = dict(zip(TRAIN_STAGES, times["units"]))
    outcome = Outcome(attempted=len(TRAIN_STAGES),
                      failed=times["units"].count(FAILED_LATENCY))
    # one training job per run; its latency is its four stages
    train_s = FAILED_LATENCY if outcome.failed else sum(stage_s.values())
    outcome.metrics = end_to_end(times["setups"], [train_s])

    # correctness gate: every artefact loads and repeats bit for bit
    hashes = {}
    try:
        scorer_from_checkpoint(str(out / "detector.npz"))
        pipeline.load_generator(str(out / "generator.npz"))
        stats = json.loads((out / "listwise.stats.json").read_text())
        if stats["emitted"] + stats["dropped"] != stats["decoded"]:
            outcome.problems.append(f"inconsistent listwise stats {stats}")
        hashes = artefact_hashes(out)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        outcome.problems.append(f"training artefacts: {exc!r}")
    if hashes:
        drift = check_ledger(bench, f"train-n{m}-seed{seed}", hashes)
        if drift:
            outcome.problems.append(drift)

    outcome.report = {
        "dialogues": m,
        "train_s": train_s,
        **{f"{stage}_s": s for stage, s in stage_s.items()},
        "speed_factor": sampler.speed_factor(),
        "wall_setup_s": statistics.median(times["wall_setups"]),
        "wall_train_s": sum(times["wall_units"]),
        "hashes": hashes,
    }
    if tracer is not None and (out / "listwise.stats.json").exists():
        outcome.layers["rank.listwise_dropped_frac"] = _dropped_frac(
            out / "listwise.stats.json")
    return outcome


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def environment(bench: Bench) -> dict[str, object]:
    """What the figures depend on; runs that differ here are not comparable."""
    return {
        "kernel_backend": "numba" if kernels.HAVE_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: value for var, value in sorted(os.environ.items())
                    if var.endswith("_THREADS")},
        "git_commit": git_commit(bench.root),
        "code_key": code_key(bench),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, env=env,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def run_workload(bench: Bench, workload: str, seed: int, seconds: float,
                 trace: bool) -> Outcome:
    """Run one workload; a traced run also returns per-layer metrics and
    writes its spans under .bench_build/traces/."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    tracer = Tracer() if trace else None
    try:
        if workload == "train":
            outcome = run_train(bench, seed, seconds, tracer)
        else:
            outcome = run_decode(bench, workload, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        outcome.layers.update(tracer.layer_metrics())
        outcome.layers.setdefault("rank.listwise_dropped_frac", 0.0)
        for name in ("selection_mrr5", "selection_r1", "generation_bleu4"):
            outcome.layers[f"metrics.{name}"] = float(outcome.report.get(name, 0.0))
        for name, value in outcome.metrics.items():
            outcome.layers[f"traced.{name}"] = value
        traces = bench.build / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{workload}-seed{seed}.jsonl"
        tracer.write_spans(str(path))
        outcome.report["spans"] = len(tracer.spans)
        outcome.report["spans_path"] = os.path.relpath(path, bench.root)
    return outcome
