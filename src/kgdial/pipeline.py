"""Pipeline orchestration: staged artifacts with manifests, configuration
file handling, and the end-to-end decode path (detect, track, rank,
rerank, ensemble, generate, consensus).

Every stage writes its outputs plus a manifest recording input hashes,
the seed, the resolved configuration and the package version; re-running
a stage with identical inputs produces identical artifacts. The decode
path never reads gold labels of the turns it predicts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .augment import (AugmentConfig, FakeSpeechAdapter, augment_corpus,
                      build_phonetic_index, load_lexicon)
from .consensus import (Candidate, CandidatePool, ConsensusWeights,
                        consensus_select, load_weights, save_weights,
                        tune_weights)
from .corpus import (Dialogue, KnowledgeBase, linearize_history,
                     load_corpus, load_knowledge_base, save_corpus,
                     strip_labels)
from .detect import build_detection_examples, predict
from .entity_track import (TrackMethod, build_tracking_examples,
                           collect_candidates, exact_match_entities,
                           fuzzy_match_entities, track_entities)
from .generate import (GenTrainConfig, ToyGenerator, build_gen_examples,
                       decode_nbest, mine_frequent_interrogatives,
                       preprocess_responses, train_generator)
from .metrics import MetricReport, generation_report
from .models import (ModelError, TrainConfig, load_checkpoint, restore_params,
                     save_checkpoint, scorer_from_checkpoint,
                     scorer_to_checkpoint, train_pair_classifier)
from .rank import (ListwiseConfig, PointwiseConfig, RankedKnowledgeList,
                   Variant, build_listwise_training_data, ensemble_rank,
                   listwise_rerank, pointwise_rank, train_listwise,
                   train_pointwise)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3


class ConfigError(Exception):
    pass


class DependencyError(Exception):
    pass


# every paper-sourced constant surfaces as a named key with its default
CONFIG_DEFAULTS: dict[str, object] = {
    "seed": 0,
    "paths.logs": "",
    "paths.labels": "",
    "paths.knowledge": "",
    "paths.lexicon": "",
    "paths.confusions": "",
    "paths.output": "out",
    "corpus.count_tags": True,
    "augment.replace_rate_low": 0.1,
    "augment.replace_rate_high": 0.3,
    "augment.ena_probability": 0.3,
    "augment.ena_delete_prob": 0.1,
    "augment.neighbor_k": 5,
    "augment.tasks": "AEI",
    "detect.epochs": 10,
    "detect.learning_rate": 1e-5,
    "detect.batch_size": 16,
    "detect.max_tokens": 512,
    "detect.delta_d": 0.3,
    "track.method": "learned",
    "track.fuzzy_threshold": 0.8,
    "track.delta_e": 0.5,
    "track.epochs": 10,
    "track.learning_rate": 1e-5,
    "track.negatives": 3,
    "rank.use_mtl": True,
    "rank.variant": "WD2",
    "rank.epochs": 2,
    "rank.learning_rate": 1e-5,
    "rank.batch_size": 16,
    "rank.negatives": 4,
    "rank.entity_negatives": 3,
    "rank.lambda_rank": 1.0,
    "rank.lambda_domain": 1.0,
    "rank.lambda_entity": 1.0,
    "rank.alpha": 100.0,
    "rank.kfolds": 5,
    "rank.listwise_epochs": 2,
    "gen.epochs": 6,
    "gen.batch_size": 32,
    "gen.learning_rate": 1e-5,
    "gen.max_history_tokens": 512,
    "gen.max_target_tokens": 96,
    "gen.p_s": 0.15,
    "gen.kfolds": 10,
    "gen.interrogative_min_count": 20,
    "gen.nbest": 5,
    "model.d": 24,
    "model.pooling": "mean",
    "model.max_len": 128,
}


@dataclass
class PipelineConfig:
    values: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(CONFIG_DEFAULTS)
        unknown = set(self.values) - set(CONFIG_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(self.values)
        self.values = merged

    def __getitem__(self, key: str):
        return self.values[key]

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    @property
    def seed(self) -> int:
        return int(self.values["seed"])

    def output_path(self, name: str) -> str:
        out = str(self.values["paths.output"])
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, name)


def _coerce(key: str, raw: str):
    default = CONFIG_DEFAULTS.get(key)
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def load_config(path: str, overrides: Sequence[str] = ()) -> PipelineConfig:
    """Flat key-path config file: one `key = value` per line, # comments."""
    values: dict[str, object] = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in CONFIG_DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _coerce(key, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"unknown override key {key!r}")
        values[key] = _coerce(key, raw)
    return PipelineConfig(values)


def _hash_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(config: PipelineConfig, stage: str, inputs: Sequence[str],
                   outputs: Sequence[str]) -> str:
    manifest = {
        "stage": stage,
        "version": __version__,
        "seed": config.seed,
        "config": config.values,
        "inputs": {os.path.basename(p): _hash_file(p) for p in inputs if p},
        "outputs": {os.path.basename(p): _hash_file(p) for p in outputs},
    }
    path = config.output_path(f"{stage}.manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path


def require(path: str, stage_hint: str) -> str:
    if not path or not os.path.exists(path):
        raise DependencyError(
            f"missing artifact {path!r}: run the {stage_hint!r} stage first")
    return path


def _model_train_config(config: PipelineConfig, section: str) -> TrainConfig:
    return TrainConfig(
        epochs=int(config[f"{section}.epochs"]),
        learning_rate=float(config[f"{section}.learning_rate"]),
        batch_size=int(config.get(f"{section}.batch_size", 16) or 16),
        seed=config.seed,
        d=int(config["model.d"]),
        pooling=str(config["model.pooling"]),
        max_len=int(config["model.max_len"]))


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_augment(config: PipelineConfig) -> list[str]:
    corpus = load_corpus(require(config["paths.logs"], "synth"),
                         config["paths.labels"] or None)
    lexicon = load_lexicon(require(config["paths.lexicon"], "synth"))
    index = build_phonetic_index(lexicon)
    tasks = {t.strip() for t in str(config["augment.tasks"]).split(",") if t.strip()}
    adapter = None
    if "TST" in tasks:
        adapter = FakeSpeechAdapter.from_file(
            require(config["paths.confusions"], "augment"))
    aug_config = AugmentConfig(
        replace_rate_low=float(config["augment.replace_rate_low"]),
        replace_rate_high=float(config["augment.replace_rate_high"]),
        ena_probability=float(config["augment.ena_probability"]),
        ena_delete_prob=float(config["augment.ena_delete_prob"]),
        neighbor_k=int(config["augment.neighbor_k"]),
        seed=config.seed)
    out = augment_corpus(corpus, index, aug_config, adapter=adapter, tasks=tasks)
    logs_path = config.output_path("augmented.logs.json")
    labels_path = config.output_path("augmented.labels.json")
    save_corpus(out, logs_path, labels_path)
    manifest = write_manifest(config, "augment",
                              [config["paths.logs"], config["paths.lexicon"]],
                              [logs_path, labels_path])
    return [logs_path, labels_path, manifest]


def _load_training_corpus(config: PipelineConfig
                          ) -> tuple[list[Dialogue], KnowledgeBase, list[str]]:
    """The augmented corpus (the synth one before augment has run), the
    knowledge base, and the paths of the three files read."""
    logs = config.output_path("augmented.logs.json")
    labels = config.output_path("augmented.labels.json")
    if not os.path.exists(logs):
        logs = require(config["paths.logs"], "synth")
        labels = require(config["paths.labels"], "synth")
    knowledge = require(config["paths.knowledge"], "synth")
    corpus = load_corpus(logs, labels)
    kb = load_knowledge_base(knowledge)
    return corpus, kb, [logs, labels, knowledge]


def stage_train_detect(config: PipelineConfig) -> list[str]:
    corpus, _, inputs = _load_training_corpus(config)
    examples = build_detection_examples(corpus, int(config["detect.max_tokens"]),
                                        bool(config["corpus.count_tags"]))
    scorer = train_pair_classifier([(text, "", int(label)) for text, label in examples],
                                   _model_train_config(config, "detect"))
    path = config.output_path("detector.npz")
    scorer_to_checkpoint(scorer, path)
    manifest = write_manifest(config, "train-detect", inputs, [path])
    return [path, manifest]


def stage_train_select(config: PipelineConfig) -> list[str]:
    corpus, kb, inputs = _load_training_corpus(config)
    outputs = []
    seed = config.seed
    ks = [d for d in corpus if d.label is not None and d.label.is_knowledge_seeking]

    tracker = None
    if str(config["track.method"]) == "learned":
        rng = np.random.default_rng(seed)
        examples = build_tracking_examples(
            ks, kb, rng, negatives_per_dialogue=int(config["track.negatives"]))
        positives = [e for e in examples if e[2] == 1]
        balanced = examples + positives * max(0, int(config["track.negatives"]) - 1)
        tracker = train_pair_classifier(balanced, _model_train_config(config, "track"))
        tracker_path = config.output_path("tracker.npz")
        scorer_to_checkpoint(tracker, tracker_path)
        outputs.append(tracker_path)

    pw_config = _pointwise_config(config)
    pointwise = train_pointwise(ks, kb, pw_config)
    pw_path = config.output_path("pointwise.npz")
    _save_rank_model(pointwise, pw_path)
    outputs.append(pw_path)

    tracker_fn = make_tracker(config, tracker)
    instances, stats = build_listwise_training_data(
        ks, kb, pw_config, k=int(config["rank.kfolds"]), seed=seed,
        tracker=lambda d, kb_: collect_candidates(tracker_fn(d, kb_), kb_))
    lw_config = ListwiseConfig(
        variant=pw_config.variant,
        epochs=int(config["rank.listwise_epochs"]),
        learning_rate=float(config["rank.learning_rate"]),
        batch_size=int(config["rank.batch_size"]),
        seed=seed,
        d=int(config["model.d"]),
        max_len=int(config["model.max_len"]))
    listwise = train_listwise(instances, kb, lw_config, init_from=pointwise)
    lw_path = config.output_path("listwise.npz")
    _save_rank_model(listwise, lw_path)
    outputs.append(lw_path)
    stats_path = config.output_path("listwise.stats.json")
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=1, sort_keys=True)
    outputs.append(stats_path)
    manifest = write_manifest(config, "train-select", inputs, outputs)
    return outputs + [manifest]


def _pointwise_config(config: PipelineConfig) -> PointwiseConfig:
    """The point-wise ranker's settings, as train-select trains it."""
    return PointwiseConfig(
        use_mtl=bool(config["rank.use_mtl"]),
        variant=Variant(str(config["rank.variant"])),
        epochs=int(config["rank.epochs"]),
        learning_rate=float(config["rank.learning_rate"]),
        batch_size=int(config["rank.batch_size"]),
        seed=config.seed,
        negatives=int(config["rank.negatives"]),
        entity_candidates=int(config["rank.entity_negatives"]) + 1,
        lambda_rank=float(config["rank.lambda_rank"]),
        lambda_domain=float(config["rank.lambda_domain"]),
        lambda_entity=float(config["rank.lambda_entity"]),
        d=int(config["model.d"]),
        max_len=int(config["model.max_len"]),
        ena=AugmentConfig(
            ena_probability=float(config["augment.ena_probability"]),
            ena_delete_prob=float(config["augment.ena_delete_prob"]),
            seed=config.seed))


def _save_rank_model(model, path: str) -> None:
    meta = {"kind": type(model).__name__, "vocab": model.encoder.vocab,
            "encoder": model.encoder.config(),
            "variant": model.config.variant.value}
    if meta["kind"] == "PointwiseModel":
        meta.update(use_mtl=model.config.use_mtl, domains=model.domains)
    save_checkpoint(path, model.all_params(), meta)


def stage_train_generate(config: PipelineConfig) -> list[str]:
    corpus, kb, inputs = _load_training_corpus(config)
    ks = [d for d in corpus if d.label is not None and d.label.is_knowledge_seeking
          and d.label.response]
    responses = [d.label.response for d in ks]
    interrogatives = mine_frequent_interrogatives(
        responses, int(config["gen.interrogative_min_count"]))
    ks = preprocess_responses(ks, interrogatives)

    gen_config = GenTrainConfig(
        epochs=int(config["gen.epochs"]),
        batch_size=int(config["gen.batch_size"]),
        max_history_tokens=int(config["gen.max_history_tokens"]),
        max_target_tokens=int(config["gen.max_target_tokens"]),
        p_s=float(config["gen.p_s"]),
        seed=config.seed,
        learning_rate=float(config["gen.learning_rate"]),
        d=int(config["model.d"]))

    # cross-validated selection outputs so generation sees realistic noise
    selection_outputs = kfold_selection_outputs(ks, kb, config)
    rng = np.random.default_rng(config.seed)
    examples = build_gen_examples(ks, selection_outputs, gen_config, rng)
    generator, history = train_generator(examples, gen_config)
    path = config.output_path("generator.npz")
    _save_generator(generator, path)
    inter_path = config.output_path("interrogatives.json")
    with open(inter_path, "w", encoding="utf-8") as fh:
        json.dump(interrogatives, fh, indent=1)
    manifest = write_manifest(config, "train-generate",
                              inputs + _tracker_inputs(config), [path, inter_path])
    return [path, inter_path, manifest]


def _save_generator(generator: ToyGenerator, path: str) -> None:
    meta = {"kind": "ToyGenerator", "vocab": generator.vocab,
            "d": generator.d, "max_target_tokens": generator.max_target_tokens,
            "seed": generator.seed}
    save_checkpoint(path, generator.params, meta)


def load_generator(path: str) -> ToyGenerator:
    tensors, meta = load_checkpoint(path, "ToyGenerator")
    gen = ToyGenerator(meta["vocab"], d=meta["d"],
                       max_target_tokens=meta["max_target_tokens"],
                       seed=meta["seed"])
    restore_params(path, gen.params, tensors)
    return gen


def kfold_selection_outputs(ks: Sequence[Dialogue], kb: KnowledgeBase,
                            config: PipelineConfig) -> dict[str, list]:
    """Decode every training turn with a ranker that never saw it."""
    from .corpus import split_kfold

    k = min(int(config["gen.kfolds"]), max(2, len(ks) // 2))
    folds = split_kfold(list(ks), k=k, seed=config.seed)
    tracker_fn = load_tracker(config)
    pw_config = replace(_pointwise_config(config), use_mtl=False, ena=None)
    outputs: dict[str, list] = {}
    for i, fold in enumerate(folds):
        train_set = [d for j, f in enumerate(folds) if j != i for d in f]
        model = train_pointwise(train_set, kb, pw_config)
        for d in fold:
            tracked = tracker_fn(d, kb)
            ranked = pointwise_rank(model, d, collect_candidates(tracked, kb),
                                    kb=kb, tracked=tracked)
            outputs[d.id] = [s for s, _ in ranked.items]
    return outputs


def make_tracker(config: PipelineConfig,
                 tracker_scorer=None) -> Callable:
    method = TrackMethod(str(config["track.method"]))
    threshold = float(config["track.fuzzy_threshold"])
    delta_e = float(config["track.delta_e"])

    def tracker(dialogue, kb):
        if method is TrackMethod.EXACT:
            return exact_match_entities(dialogue, kb)
        if method is TrackMethod.FUZZY:
            return fuzzy_match_entities(dialogue, kb, threshold)
        scorer = tracker_scorer
        if scorer is None:
            raise DependencyError("learned tracking needs a trained tracker; "
                                  "run train-select first")
        return track_entities(scorer, dialogue, kb, delta_e)

    return tracker


def _tracker_inputs(config: PipelineConfig) -> list[str]:
    """The checkpoint `load_tracker` reads, when tracking is learned."""
    if str(config["track.method"]) == "learned":
        return [config.output_path("tracker.npz")]
    return []


def load_tracker(config: PipelineConfig) -> Callable:
    """`make_tracker` with the tracker that train-select saved, when the
    configured method is the learned one."""
    tracker_scorer = None
    if str(config["track.method"]) == "learned":
        tracker_scorer = scorer_from_checkpoint(require(
            config.output_path("tracker.npz"), "train-select"))
    return make_tracker(config, tracker_scorer)


@dataclass
class DecodeComponents:
    """Pluggable pieces of the decode path; tests may inject oracles.

    `ranker` ranks a turn's candidates once. When `reranker` is set, it
    reorders that very list (called with the dialogue, the ranker's list
    and the tracked entities) and the two lists are ensembled; otherwise
    the ranker's list is ensembled alone."""
    detector: Callable[[Dialogue], float]
    tracker: Callable[[Dialogue, KnowledgeBase], list]
    ranker: Callable[[Dialogue, list, list], RankedKnowledgeList]
    generator: object
    consensus_weights: ConsensusWeights
    nbest: int = 5
    reranker: Optional[Callable[[Dialogue, RankedKnowledgeList, list],
                                RankedKnowledgeList]] = None


def end_to_end_decode(dialogues: Sequence[Dialogue], kb: KnowledgeBase,
                      components: DecodeComponents,
                      max_history_tokens: int = 512) -> list[dict]:
    """Full pipeline over label-stripped dialogues, emitting the labels
    schema per turn. An error raised for a turn propagates with its class
    kept (so the CLI still maps domain errors) and its message prefixed
    with the turn id."""
    from .corpus import build_generation_context

    results = []
    for dialogue in strip_labels(dialogues):
        try:
            prob = components.detector(dialogue)
            if prob < 0.5:
                results.append({"target": False})
                continue
            tracked = components.tracker(dialogue, kb)
            candidates = collect_candidates(tracked, kb)
            first = components.ranker(dialogue, candidates, tracked)
            ranked_lists = [first]
            if components.reranker is not None:
                ranked_lists.append(components.reranker(dialogue, first, tracked))
            merged = ensemble_rank(ranked_lists)
            top5 = [s for s, _ in merged.items]
            context = build_generation_context(dialogue, top5,
                                               max_tokens=max_history_tokens)
            nbest = decode_nbest(components.generator, context.text,
                                 components.nbest)
            pool = CandidatePool(
                turn_id=dialogue.id,
                candidates=tuple(
                    Candidate(text=text, system_id="gen", rank=i + 1,
                              logprob=logprob)
                    for i, (text, logprob) in enumerate(nbest)))
            chosen = consensus_select(pool, components.consensus_weights)
            results.append({
                "target": True,
                "knowledge": [
                    {"domain": s.domain, "entity_id": s.entity_id, "doc_id": s.doc_id}
                    for s, _ in merged.items],
                "response": chosen.text,
            })
        except Exception as exc:
            exc.args = (f"decode failed at turn {dialogue.id}: {exc}",)
            raise
    return results


def validate_labels_schema(records: Sequence[dict]) -> None:
    """Prediction-writer schema check for every turn."""
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "target" not in rec:
            raise ValueError(f"record {i}: missing target field")
        if not isinstance(rec["target"], bool):
            raise ValueError(f"record {i}: target must be boolean")
        if rec["target"]:
            knowledge = rec.get("knowledge")
            if not isinstance(knowledge, list) or not knowledge:
                raise ValueError(f"record {i}: positive turn needs knowledge")
            for k in knowledge:
                if not {"domain", "entity_id", "doc_id"} <= set(k):
                    raise ValueError(f"record {i}: malformed knowledge ref")
            if "response" in rec and not isinstance(rec["response"], str):
                raise ValueError(f"record {i}: response must be a string")
        else:
            if rec.get("knowledge"):
                raise ValueError(f"record {i}: negative turn carries knowledge")


def stage_decode(config: PipelineConfig) -> list[str]:
    corpus = load_corpus(require(config["paths.logs"], "synth"),
                         config["paths.labels"] or None)
    kb = load_knowledge_base(require(config["paths.knowledge"], "synth"))
    checkpoints = {name: require(config.output_path(f"{name}.npz"), stage)
                   for name, stage in (("detector", "train-detect"),
                                       ("pointwise", "train-select"),
                                       ("listwise", "train-select"),
                                       ("generator", "train-generate"))}
    detector = scorer_from_checkpoint(checkpoints["detector"])
    tracker = load_tracker(config)
    pointwise = _load_rank_model(checkpoints["pointwise"], "PointwiseModel", kb)
    listwise = _load_rank_model(checkpoints["listwise"], "ListwiseModel", kb)
    generator = load_generator(checkpoints["generator"])
    inputs = [config["paths.logs"], config["paths.labels"], config["paths.knowledge"],
              *checkpoints.values(), *_tracker_inputs(config)]
    weights_path = config.output_path("consensus.weights.json")
    weights = ConsensusWeights.uniform()
    if os.path.exists(weights_path):
        weights = load_weights(weights_path)
        inputs.append(weights_path)

    detect_tokens = int(config["detect.max_tokens"])
    count_tags = bool(config["corpus.count_tags"])
    alpha = float(config["rank.alpha"])

    def detector_fn(dialogue):
        return detector.score(
            linearize_history(dialogue, detect_tokens, count_tags), "")

    def ranker(dialogue, candidates, tracked):
        return pointwise_rank(pointwise, dialogue, candidates, kb=kb,
                              tracked=tracked)

    def reranker(dialogue, first, tracked):
        return listwise_rerank(listwise, dialogue, first, tracked, alpha=alpha)

    components = DecodeComponents(
        detector=detector_fn,
        tracker=tracker,
        ranker=ranker,
        reranker=reranker,
        generator=generator,
        consensus_weights=weights,
        nbest=int(config["gen.nbest"]))
    records = end_to_end_decode(
        corpus, kb, components,
        max_history_tokens=int(config["gen.max_history_tokens"]))
    validate_labels_schema(records)
    path = config.output_path("predictions.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, ensure_ascii=False, indent=1)
    manifest = write_manifest(config, "decode", inputs, [path])
    return [path, manifest]


def _load_rank_model(path: str, kind: str, kb: KnowledgeBase):
    """A rank model as train-select saved it: its variant, multi-task head
    and domain list come from the checkpoint, not from the decode config."""
    from .rank import ListwiseModel, PointwiseModel

    tensors, meta = load_checkpoint(path, kind)
    fields = ("variant", "use_mtl", "domains") if kind == "PointwiseModel" else ("variant",)
    for key in fields:
        if key not in meta:
            raise ModelError(f"checkpoint {path}: missing field {key!r}")
    enc = meta["encoder"]
    variant = Variant(meta["variant"])
    if kind == "PointwiseModel":
        model = PointwiseModel(meta["vocab"], meta["domains"], PointwiseConfig(
            use_mtl=meta["use_mtl"], variant=variant,
            seed=enc["seed"], d=enc["d"], max_len=enc["max_len"],
            pooling=enc["pooling"]))
        model.bind_kb(kb)
    else:
        model = ListwiseModel(meta["vocab"], ListwiseConfig(
            variant=variant, seed=enc["seed"], d=enc["d"],
            max_len=enc["max_len"], pooling=enc["pooling"]))
    restore_params(path, model.all_params(), tensors)
    return model


def stage_ensemble(config: PipelineConfig, prediction_paths: Sequence[str],
                   base_system: str) -> list[str]:
    """Error-fixing ensemble over several detection prediction files."""
    from .detect import ErrorFixConfig, error_fixing_ensemble

    tables = {}
    for path in prediction_paths:
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
        preds = [predict(f"d{i:05d}", float(r.get("detection_probability",
                                                  1.0 if r["target"] else 0.0)))
                 for i, r in enumerate(records)]
        tables[os.path.basename(path)] = preds
    fixed = error_fixing_ensemble(tables, ErrorFixConfig(
        base_system_id=base_system, delta_d=float(config["detect.delta_d"])))
    path = config.output_path("ensemble.detection.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"target": p.label, "detection_probability": p.probability}
                   for p in fixed], fh, indent=1)
    manifest = write_manifest(config, "ensemble", list(prediction_paths), [path])
    return [path, manifest]


def stage_tune_consensus(config: PipelineConfig, pools_path: str,
                         refs_path: str) -> list[str]:
    from .consensus import TuneConfig, load_pools

    pools = load_pools(require(pools_path, "decode"))
    with open(require(refs_path, "synth"), encoding="utf-8") as fh:
        references = json.load(fh)
    weights = tune_weights(pools, references,
                           config=TuneConfig(seed=config.seed))
    path = config.output_path("consensus.weights.json")
    save_weights(weights, path)
    manifest = write_manifest(config, "tune-consensus", [pools_path, refs_path],
                              [path])
    return [path, manifest]


def stage_evaluate(config: PipelineConfig, predictions_path: str,
                   references_path: str) -> list[str]:
    with open(require(predictions_path, "decode"), encoding="utf-8") as fh:
        predictions = json.load(fh)
    with open(require(references_path, "synth"), encoding="utf-8") as fh:
        references = json.load(fh)
    if len(predictions) != len(references):
        raise ConfigError("prediction/reference length mismatch")
    report = evaluate_predictions(predictions, references)
    path = config.output_path("metrics.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=1, sort_keys=True)
    text_path = config.output_path("metrics.txt")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(report.format_table() + "\n")
    manifest = write_manifest(config, "evaluate",
                              [predictions_path, references_path],
                              [path, text_path])
    return [path, text_path, manifest]


def evaluate_predictions(predictions: Sequence[dict],
                         references: Sequence[dict]) -> MetricReport:
    """All objective metrics: detection P/R/F1, selection MRR@5 R@1 R@5,
    generation BLEU/METEOR/ROUGE."""
    report = MetricReport()
    tp = fp = fn = 0
    for pred, ref in zip(predictions, references):
        if pred["target"] and ref["target"]:
            tp += 1
        elif pred["target"] and not ref["target"]:
            fp += 1
        elif not pred["target"] and ref["target"]:
            fn += 1
    from .metrics import precision_recall_f1

    p, r, f1 = precision_recall_f1(tp, fp, fn)
    report.add("detection-precision", p)
    report.add("detection-recall", r)
    report.add("detection-f1", f1)

    ranked_keys, ref_keys = [], []
    gen_pairs = []
    for pred, ref in zip(predictions, references):
        if not ref["target"]:
            continue
        refs = {(k["domain"], str(k["entity_id"]), str(k["doc_id"]))
                for k in ref.get("knowledge", [])}
        pred_list = [(k["domain"], str(k["entity_id"]), str(k["doc_id"]))
                     for k in pred.get("knowledge", [])] if pred["target"] else []
        ranked_keys.append(pred_list)
        ref_keys.append(refs)
        if ref.get("response"):
            gen_pairs.append((pred.get("response", "") if pred["target"] else "",
                              ref["response"]))
    from .metrics import mrr_at_k, recall_at_k

    report.add("selection-mrr@5", mrr_at_k(ranked_keys, ref_keys, 5))
    report.add("selection-r@1", recall_at_k(ranked_keys, ref_keys, 1))
    report.add("selection-r@5", recall_at_k(ranked_keys, ref_keys, 5))
    if gen_pairs:
        for name, value in generation_report(gen_pairs).scores.items():
            report.add(f"generation-{name}", value)
    return report
