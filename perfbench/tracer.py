"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the kgdial modules from outside, at
the attribute their callers look up (for example
``kgdial.pipeline.fuzzy_match_entities`` or ``kgdial.rank.exact_match_entities``),
and restores them afterwards. Each wrapped call records one span: name,
start, end, parent span and turn id. A layer's self time is its spans'
duration minus the time covered by their child spans. Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (layer, module, attribute): "Class.method" wraps the method on the class
SPAN_SITES = (
    ("entity_track.fuzzy", "kgdial.pipeline", "fuzzy_match_entities"),
    ("entity_track.exact", "kgdial.pipeline", "exact_match_entities"),
    ("entity_track.exact", "kgdial.rank", "exact_match_entities"),
    ("kernels.levenshtein", "kgdial.entity_track", "levenshtein"),
    ("models.encoder_forward", "kgdial.models", "ToyEncoder.forward"),
    ("models.encoder_backward", "kgdial.models", "ToyEncoder.backward"),
    ("models.optimizer", "kgdial.models", "AdamW.step"),
    ("rank.pointwise_rank", "kgdial.pipeline", "pointwise_rank"),
    ("rank.pointwise_rank", "kgdial.rank", "pointwise_rank"),
    ("rank.listwise_rerank", "kgdial.pipeline", "listwise_rerank"),
    ("rank.sparse_features", "kgdial.rank", "extract_sparse_features"),
    ("rank.pointwise_loss", "kgdial.rank", "PointwiseModel.loss_and_grads"),
    ("rank.listwise_loss", "kgdial.rank", "ListwiseModel.loss_and_grads"),
    ("rank.train_pointwise", "kgdial.pipeline", "train_pointwise"),
    ("rank.train_pointwise", "kgdial.rank", "train_pointwise"),
    ("generate.beam", "kgdial.pipeline", "decode_nbest"),
    ("generate.loss", "kgdial.generate", "ToyGenerator.loss_and_grads"),
    ("consensus.select", "kgdial.pipeline", "consensus_select"),
    ("detect.score", "kgdial.models", "ToyPairScorer.score"),
    ("augment.corpus", "kgdial.pipeline", "augment_corpus"),
    ("augment.ena", "kgdial.rank", "augment_entity_name"),
    ("metrics.evaluate", "kgdial.pipeline", "evaluate_predictions"),
)

# layers that report calls and self time
TIMED_LAYERS = tuple(dict.fromkeys(
    layer for layer, _, _ in SPAN_SITES
    if layer not in ("rank.train_pointwise", "metrics.evaluate")))

# modules scanned for names bound to kgdial.corpus.tokenize
TOKENIZE_MODULES = ("kgdial.corpus", "kgdial.models", "kgdial.metrics",
                    "kgdial.rank", "kgdial.entity_track", "kgdial.generate",
                    "kgdial.pipeline", "kgdial.augment", "kgdial.detect",
                    "kgdial.consensus")

TRAIN_STAGES = ("augment", "train_detect", "train_select", "train_generate")
STAGES = TRAIN_STAGES + ("decode", "evaluate")


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    if "." in attribute:
        cls_name, attribute = attribute.split(".", 1)
        owner = getattr(owner, cls_name)
    return owner, attribute


def _dialogue_content(dialogue) -> tuple:
    return tuple((t.speaker.value, t.text) for t in dialogue.turns)


class Tracer:
    """Collects spans and counts; inactive until ``install`` is called."""

    def __init__(self):
        # gold knowledge keys by dialogue id, for label-stripped decode turns
        self.gold: dict = {}
        self.turn = None
        self.paused = False
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._exact_inputs: set = set()
        self._lev_pairs: set = set()
        self._last_dialogue = None

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.turn])
        self._stack.append([len(self.spans) - 1, 0.0])

    def end(self) -> None:
        index, child_s = self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        duration = span[2] - span[1]
        self.calls[span[0]] += 1
        self.self_s[span[0]] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    def exclude(self, duration: float) -> None:
        """Keep `duration` (a speed sample taken inside the open span) out
        of that span's self time."""
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    @contextmanager
    def paused_layers(self):
        """Call wrapped functions straight through; spans opened with
        ``span`` are still recorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _span_wrapper(self, layer: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _count_wrapper(self, counter: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not tracer.paused:
                tracer.counts[counter] += 1
                if hook is not None:
                    hook(args, result)
            return result

        return counted

    def _on_fuzzy(self, args, result) -> None:
        self._last_dialogue = args[0]

    def _on_exact(self, args, result) -> None:
        self._exact_inputs.add(_dialogue_content(args[0]))

    def _on_levenshtein(self, args, result) -> None:
        self._lev_pairs.add((args[0], args[1]))

    def _on_forward(self, args, result) -> None:
        self.counts["encoder_tokens"] += len(args[1])

    def _on_candidates(self, args, result) -> None:
        self.counts["candidates"] += len(result)
        dialogue = self._last_dialogue
        if dialogue is None:
            return
        if dialogue.label is not None:
            gold = set(dialogue.label.knowledge_refs)
        else:
            gold = self.gold.get(dialogue.id, set())
        if gold:
            self.counts["gold_turns"] += 1
            if any(s.key in gold for s in result):
                self.counts["gold_hits"] += 1

    def install(self) -> None:
        hooks = {"entity_track.fuzzy": self._on_fuzzy,
                 "entity_track.exact": self._on_exact,
                 "kernels.levenshtein": self._on_levenshtein,
                 "models.encoder_forward": self._on_forward}
        for layer, module, attribute in SPAN_SITES:
            owner, name = _resolve(module, attribute)
            self._patch(owner, name, self._span_wrapper(
                layer, owner.__dict__[name], hooks.get(layer)))

        owner, name = _resolve("kgdial.pipeline", "collect_candidates")
        self._patch(owner, name, self._count_wrapper(
            "collect_candidates", owner.__dict__[name], self._on_candidates))

        owner, name = _resolve("kgdial.generate", "ToyGenerator._step_forward")
        step = owner.__dict__[name]
        tracer = self

        @functools.wraps(step)
        def counted_step(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1][0]][0] == "generate.beam":
                tracer.counts["beam_steps"] += 1
            return step(*args, **kwargs)

        self._patch(owner, name, counted_step)

        tokenize = importlib.import_module("kgdial.corpus").tokenize
        counted_tokenize = self._count_wrapper("tokenize", tokenize)
        for module in TOKENIZE_MODULES:
            owner = importlib.import_module(module)
            if owner.__dict__.get("tokenize") is tokenize:
                self._patch(owner, "tokenize", counted_tokenize)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time, counts and ratios."""
        out: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        c = self.counts
        out["entity_track.candidates_per_turn"] = (
            c["candidates"] / c["collect_candidates"] if c["collect_candidates"] else 0.0)
        out["entity_track.gold_in_candidates_frac"] = (
            c["gold_hits"] / c["gold_turns"] if c["gold_turns"] else 0.0)
        exact_calls = self.calls["entity_track.exact"]
        out["entity_track.exact.distinct_input_frac"] = (
            len(self._exact_inputs) / exact_calls if exact_calls else 0.0)
        lev_calls = self.calls["kernels.levenshtein"]
        out["kernels.levenshtein.distinct_pair_frac"] = (
            len(self._lev_pairs) / lev_calls if lev_calls else 0.0)
        out["models.encoder_forward.tokens"] = c["encoder_tokens"]
        out["rank.train_pointwise.calls"] = self.calls["rank.train_pointwise"]
        out["generate.beam.steps"] = c["beam_steps"]
        out["corpus.tokenize.calls"] = c["tokenize"]
        out["metrics.evaluate.self_s"] = self.self_s["metrics.evaluate"]
        out["pipeline.load_models.self_s"] = self.self_s["pipeline.load_models"]
        out["pipeline.turn.self_s"] = self.self_s["pipeline.turn"]
        for stage in STAGES:
            out[f"pipeline.{stage}.wall_s"] = sum(
                s[2] - s[1] for s in self.spans if s[0] == f"pipeline.{stage}")
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, name, start, end, parent, turn."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, turn) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "turn": turn}) + "\n")
