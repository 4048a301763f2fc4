"""Pipeline orchestration: staged artifacts with manifests, configuration
file handling, and the end-to-end decode path (detect, track, rank,
rerank, ensemble, generate, consensus).

`run_stage` runs a stage and writes its manifest next to its outputs:
the package version, the config keys the stage read with their values,
and the hashes of the files it read and of the outputs it wrote.
Re-running a stage with identical inputs produces identical artifacts.
Every training stage reads augment's output alone, and decode reads the
logs it predicts but no labels file.
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
from .consensus import (Candidate, CandidatePool, ConsensusWeights, TuneConfig,
                        consensus_select, load_weights, save_weights,
                        tune_weights)
from .corpus import (CorpusError, Dialogue, KnowledgeBase, check_kfold,
                     check_turn_records, linearize_history, load_corpus,
                     load_knowledge_base, read_turn_records, save_corpus,
                     split_kfold, strip_labels)
from .detect import build_detection_examples, error_fixing_ensemble
from .entity_track import (TrackMethod, build_tracking_examples,
                           collect_candidates, exact_match_entities,
                           fuzzy_match_entities, track_entities)
from .generate import (GenTrainConfig, ToyGenerator, build_gen_examples,
                       decode_nbest, mine_frequent_interrogatives,
                       preprocess_responses, train_generator)
from .metrics import (MetricReport, generation_report, mrr_at_k,
                      precision_recall_f1, recall_at_k)
from .models import (POOLINGS, TrainConfig, check_fields, check_tensors,
                     load_checkpoint, save_checkpoint, scorer_from_checkpoint,
                     scorer_to_checkpoint, train_pair_classifier)
from .rank import (DialogueFeatures, PointwiseConfig,
                   RankedKnowledgeList, Variant, build_listwise_training_data,
                   dialogue_features, ensemble_rank, listwise_rerank, load_rankers,
                   pointwise_rank, save_rankers, train_listwise, train_pointwise)

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
    "augment.replace_rate_low": 0.1,
    "augment.replace_rate_high": 0.3,
    "augment.ena_probability": 0.3,
    "augment.ena_delete_prob": 0.1,
    "augment.neighbor_k": 5,
    "augment.tasks": "AEI",
    "detect.epochs": 10,
    "detect.learning_rate": 1e-5,
    "detect.batch_size": 16,
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

# the least valid value of each bounded integer key, in `CONFIG_DEFAULTS`
# order, so that the first bad key is the one reported
_INT_MINIMA = {
    "seed": 0, "augment.neighbor_k": 1, "detect.epochs": 0, "detect.batch_size": 1,
    "track.epochs": 0, "track.negatives": 0, "rank.epochs": 0, "rank.batch_size": 1,
    "rank.negatives": 0, "rank.entity_negatives": 0, "rank.kfolds": 2,
    "rank.listwise_epochs": 0, "gen.epochs": 0, "gen.batch_size": 1,
    "gen.max_target_tokens": 1, "gen.kfolds": 2, "gen.nbest": 1, "model.d": 1,
    "model.max_len": 1,
}


@dataclass
class PipelineConfig:
    """The resolved settings of a run: `CONFIG_DEFAULTS` updated with
    ``values``, each value converted to its default's type (`_coerce`) and
    range-checked when the config is built, so a dict config is typed
    exactly like a file config. It records what a stage running on it
    reads: every key looked up through it and every file `require` lets
    through."""
    values: dict[str, object] = field(default_factory=dict)
    keys_read: set[str] = field(default_factory=set, init=False, repr=False, compare=False)
    files_read: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self):
        unknown = set(self.values) - set(CONFIG_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(CONFIG_DEFAULTS)
        merged.update((key, _coerce(key, value)) for key, value in self.values.items())
        self.values = merged
        for key, allowed in (("rank.variant", [v.value for v in Variant]),
                             ("track.method", [m.value for m in TrackMethod]),
                             ("model.pooling", list(POOLINGS))):
            if merged[key] not in allowed:
                raise ConfigError(f"{key}: expected one of {allowed}, "
                                  f"got {merged[key]!r}")
        for key, low in _INT_MINIMA.items():
            if merged[key] < low:
                raise ConfigError(f"{key}: expected an int >= {low}, got {merged[key]!r}")
        for key in ("track.fuzzy_threshold", "track.delta_e", "detect.delta_d", "gen.p_s",
                    "augment.ena_probability", "augment.ena_delete_prob",
                    "augment.replace_rate_low", "augment.replace_rate_high"):
            if not 0.0 <= merged[key] <= 1.0:
                raise ConfigError(f"{key}: expected a number in [0, 1], got {merged[key]!r}")
        if not merged["rank.alpha"] > 0.0:
            raise ConfigError(f"rank.alpha: expected a number > 0, got {merged['rank.alpha']!r}")
        low, high = merged["augment.replace_rate_low"], merged["augment.replace_rate_high"]
        if low > high:
            raise ConfigError(f"augment.replace_rate_low: expected <= replace_rate_high, "
                              f"got {low!r} > {high!r}")

    def __getitem__(self, key: str):
        self.keys_read.add(key)
        return self.values[key]

    @property
    def seed(self) -> int:
        return self["seed"]

    def output_path(self, name: str) -> str:
        out = self["paths.output"]
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, name)


def _coerce(key: str, value: object):
    """``value`` as the type of ``key``'s default. A number or boolean is
    read as the string it prints as, so a dict, a file and an override type
    one setting alike; a string key takes a string or a path. A value that
    does not convert is a ConfigError naming the key."""
    kind = type(CONFIG_DEFAULTS[key])
    raw = str(value)
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    try:
        return os.fspath(value) if kind is str else kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from None


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
                values[key] = raw
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"unknown override key {key!r}")
        values[key] = raw
    return PipelineConfig(values)


def _hash_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(config: PipelineConfig, stage: str, outputs: Sequence[str]) -> str:
    """``stage``'s manifest: what ``config`` recorded it read, and the
    hashes of ``outputs``."""
    manifest = {
        "stage": stage,
        "version": __version__,
        "config": {key: config.values[key] for key in config.keys_read},
        "inputs": {os.path.basename(p): _hash_file(p) for p in config.files_read},
        "outputs": {os.path.basename(p): _hash_file(p) for p in outputs},
    }
    path = config.output_path(f"{stage}.manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path


def run_stage(config: PipelineConfig, stage: str, run: Callable[..., list[str]],
              *args) -> list[str]:
    """``run(config, *args)``, the stage named ``stage``, with a manifest
    of only what it read; returns its outputs, then the manifest's path."""
    config.keys_read.clear()
    config.files_read.clear()
    outputs = run(config, *args)
    return [*outputs, write_manifest(config, stage, outputs)]


def require(config: PipelineConfig, path: str, stage_hint: str) -> str:
    """``path``, recorded as an input of the stage running on ``config``;
    a missing file is a DependencyError naming the stage that writes it."""
    if not path or not os.path.exists(path):
        raise DependencyError(
            f"missing artifact {path!r}: run the {stage_hint!r} stage first")
    config.files_read.add(path)
    return path


def _model_train_config(config: PipelineConfig, section: str) -> TrainConfig:
    """The training loop and encoder settings of the model that
    ``section`` trains; a section without a batch-size key of its own (the
    tracker's) keeps `TrainConfig`'s."""
    batch_size = f"{section}.batch_size"
    return TrainConfig(
        epochs=config[f"{section}.epochs"],
        learning_rate=config[f"{section}.learning_rate"],
        batch_size=(config[batch_size] if batch_size in CONFIG_DEFAULTS
                    else TrainConfig.batch_size),
        seed=config.seed,
        d=config["model.d"],
        pooling=config["model.pooling"],
        max_len=config["model.max_len"])


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_augment(config: PipelineConfig) -> list[str]:
    """The corpus plus one copy per task in ``augment.tasks``, or as it is
    with none; the lexicon and AEI settings are read only when AEI runs."""
    corpus = load_corpus(require(config, config["paths.logs"], "synth"),
                         require(config, config["paths.labels"], "synth"))
    tasks = {t.strip() for t in config["augment.tasks"].split(",") if t.strip()}
    index, aug_config, adapter = None, None, None
    if "AEI" in tasks:
        index = build_phonetic_index(load_lexicon(
            require(config, config["paths.lexicon"], "synth")))
        aug_config = AugmentConfig(
            replace_rate_low=config["augment.replace_rate_low"],
            replace_rate_high=config["augment.replace_rate_high"],
            neighbor_k=config["augment.neighbor_k"],
            seed=config.seed)
    if "TST" in tasks:
        adapter = FakeSpeechAdapter.from_file(
            require(config, config["paths.confusions"], "augment"))
    out = augment_corpus(corpus, index, aug_config, adapter=adapter, tasks=tasks)
    logs_path = config.output_path("augmented.logs.json")
    labels_path = config.output_path("augmented.labels.json")
    save_corpus(out, logs_path, labels_path)
    return [logs_path, labels_path]


def _load_training_corpus(config: PipelineConfig) -> list[Dialogue]:
    """augment's output, the one corpus every model trains on."""
    return load_corpus(*(require(config, config.output_path(f"augmented.{name}.json"),
                                 "augment") for name in ("logs", "labels")))


def stage_train_detect(config: PipelineConfig) -> list[str]:
    corpus = _load_training_corpus(config)
    examples = build_detection_examples(corpus)
    scorer = train_pair_classifier([(text, "", int(label)) for text, label in examples],
                                   _model_train_config(config, "detect"))
    path = config.output_path("detector.npz")
    scorer_to_checkpoint(scorer, path)
    return [path]


def stage_train_select(config: PipelineConfig) -> list[str]:
    corpus = _load_training_corpus(config)
    kb = load_knowledge_base(require(config, config["paths.knowledge"], "synth"))
    outputs = []
    seed = config.seed
    ks = [d for d in corpus if d.label is not None and d.label.is_knowledge_seeking]
    # the list-wise folds deal the turns with knowledge labels; check them
    # before any model is trained
    check_kfold(sum(1 for d in ks if d.label.knowledge_refs), config["rank.kfolds"])

    tracker = None
    if config["track.method"] == "learned":
        rng = np.random.default_rng(seed)
        examples = build_tracking_examples(
            ks, kb, rng, negatives_per_dialogue=config["track.negatives"])
        positives = [e for e in examples if e[2] == 1]
        balanced = examples + positives * max(0, config["track.negatives"] - 1)
        tracker = train_pair_classifier(balanced, _model_train_config(config, "track"))
        tracker_path = config.output_path("tracker.npz")
        scorer_to_checkpoint(tracker, tracker_path)
        outputs.append(tracker_path)

    pw_config = _pointwise_config(config)
    if config["rank.use_mtl"]:
        pw_config = replace(pw_config, use_mtl=True,
                            entity_candidates=config["rank.entity_negatives"] + 1,
                            lambda_domain=config["rank.lambda_domain"],
                            lambda_entity=config["rank.lambda_entity"])
    if config["augment.ena_probability"] > 0:
        pw_config = replace(pw_config, ena=AugmentConfig(
            ena_probability=config["augment.ena_probability"],
            ena_delete_prob=config["augment.ena_delete_prob"]))
    pointwise = train_pointwise(ks, kb, pw_config)

    tracker_fn = load_tracker(config, tracker)
    instances, stats = build_listwise_training_data(
        ks, kb, pw_config, k=config["rank.kfolds"], seed=seed,
        tracker=lambda d, kb_: collect_candidates(tracker_fn(d, kb_), kb_))
    listwise = train_listwise(instances, pointwise, replace(
        pw_config.train, epochs=config["rank.listwise_epochs"]))
    rankers_path = config.output_path("rankers.npz")
    save_rankers(pointwise, listwise, rankers_path)
    outputs.append(rankers_path)
    stats_path = config.output_path("listwise.stats.json")
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=1, sort_keys=True)
    outputs.append(stats_path)
    return outputs


def _pointwise_config(config: PipelineConfig) -> PointwiseConfig:
    """The point-wise ranker's settings, as train-generate's fold rankers
    train: train-select adds the multi-task head and online ENA."""
    return PointwiseConfig(
        variant=Variant(config["rank.variant"]),
        negatives=config["rank.negatives"],
        lambda_rank=config["rank.lambda_rank"],
        train=_model_train_config(config, "rank"))


def stage_train_generate(config: PipelineConfig) -> list[str]:
    corpus = _load_training_corpus(config)
    kb = load_knowledge_base(require(config, config["paths.knowledge"], "synth"))
    ks = [d for d in corpus if d.label is not None and d.label.is_knowledge_seeking
          and d.label.response]
    responses = [d.label.response for d in ks]
    interrogatives = mine_frequent_interrogatives(
        responses, config["gen.interrogative_min_count"])
    ks = preprocess_responses(ks, interrogatives)

    gen_config = GenTrainConfig(
        max_history_tokens=config["gen.max_history_tokens"],
        max_target_tokens=config["gen.max_target_tokens"],
        p_s=config["gen.p_s"],
        train=_model_train_config(config, "gen"))

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
    return [path, inter_path]


def _save_generator(generator: ToyGenerator, path: str) -> None:
    meta = {"kind": "ToyGenerator", "vocab": generator.vocab,
            "d": generator.d, "max_target_tokens": generator.max_target_tokens,
            "seed": generator.seed}
    save_checkpoint(path, generator.params, meta)


def load_generator(path: str) -> ToyGenerator:
    tensors, meta = load_checkpoint(path, "ToyGenerator")
    check_fields(path, meta, ("vocab", "d", "max_target_tokens", "seed"))
    check_tensors(path, ToyGenerator.param_shapes(
        meta["vocab"], meta["d"], meta["max_target_tokens"]), tensors)
    return ToyGenerator(meta["vocab"], d=meta["d"],
                        max_target_tokens=meta["max_target_tokens"],
                        seed=meta["seed"], params=tensors)


def kfold_selection_outputs(ks: Sequence[Dialogue], kb: KnowledgeBase,
                            config: PipelineConfig) -> dict[str, list]:
    """Decode every training turn with a ranker that never saw it. Too
    many folds for ``ks`` fail in `split_kfold`, before any ranker trains."""
    folds = split_kfold(list(ks), k=config["gen.kfolds"], seed=config.seed)
    tracker_fn = load_tracker(config)
    pw_config = _pointwise_config(config)
    outputs: dict[str, list] = {}
    for i, fold in enumerate(folds):
        train_set = [d for j, f in enumerate(folds) if j != i for d in f]
        model = train_pointwise(train_set, kb, pw_config)
        for d in fold:
            tracked = tracker_fn(d, kb)
            ranked = pointwise_rank(model, collect_candidates(tracked, kb),
                                    dialogue_features(d, kb, tracked), kb)
            outputs[d.id] = [s for s, _ in ranked.items]
    return outputs


def load_tracker(config: PipelineConfig, scorer=None) -> Callable:
    """The configured entity tracker, its method resolved once. Learned
    tracking scores with ``scorer``, or else with the tracker that
    train-select saved; without either it is a DependencyError here. The
    matchers are looked up as module names on every call."""
    method = TrackMethod(config["track.method"])
    if method is TrackMethod.EXACT:
        return lambda dialogue, kb: exact_match_entities(dialogue, kb)
    if method is TrackMethod.FUZZY:
        threshold = config["track.fuzzy_threshold"]
        return lambda dialogue, kb: fuzzy_match_entities(dialogue, kb, threshold)
    if scorer is None:
        scorer = scorer_from_checkpoint(require(
            config, config.output_path("tracker.npz"), "train-select"))
    delta_e = config["track.delta_e"]
    return lambda dialogue, kb: track_entities(scorer, dialogue, kb, delta_e)


@dataclass
class DecodeComponents:
    """Pluggable pieces of the decode path; tests may inject oracles.

    The tracker's entities reach ranking one way: as the turn's
    `DialogueFeatures`, built once from the dialogue and those entities.
    `ranker` ranks a turn's candidates once (called with the candidates and
    the `DialogueFeatures`). When `reranker` is set, it reorders that very
    list (called with the ranker's list and the same `DialogueFeatures`)
    and the two lists, both of that turn, are ensembled; otherwise the
    ranker's list is ensembled alone."""
    detector: Callable[[Dialogue], float]
    tracker: Callable[[Dialogue, KnowledgeBase], list]
    ranker: Callable[[list, DialogueFeatures], RankedKnowledgeList]
    generator: object
    consensus_weights: ConsensusWeights
    nbest: int = 5
    reranker: Optional[Callable[[RankedKnowledgeList, DialogueFeatures],
                                RankedKnowledgeList]] = None


def _nbest_pool(turn_id: str, nbest: Sequence[dict]) -> CandidatePool:
    """The consensus pool of a turn record's ``nbest``, in rank order."""
    return CandidatePool(turn_id=turn_id, candidates=tuple(
        Candidate(text=c["text"], system_id="gen", rank=i + 1, logprob=c["logprob"])
        for i, c in enumerate(nbest)))


def end_to_end_decode(dialogues: Sequence[Dialogue], kb: KnowledgeBase,
                      components: DecodeComponents,
                      max_history_tokens: int = 512) -> list[dict]:
    """Full pipeline over label-stripped dialogues, emitting the labels
    schema per turn, each record with the detector's
    ``detection_probability`` (what `stage_ensemble` reads) and each
    targeted one with its ``nbest``, the generator's n-best in rank order
    that consensus chose ``response`` from (what `stage_tune_consensus`
    reads). A targeted turn reaches the ranker and the reranker only as
    its candidates and its `DialogueFeatures`, built once; the turn's
    lists are then ensembled with each other (`ensemble_rank`). An error
    raised for a turn propagates with its class kept (so the CLI still
    maps domain errors) and its message prefixed with the turn id."""
    from .corpus import build_generation_context

    results = []
    for dialogue in strip_labels(dialogues):
        try:
            prob = components.detector(dialogue)
            if prob < 0.5:
                results.append({"target": False, "detection_probability": prob})
                continue
            tracked = components.tracker(dialogue, kb)
            candidates = collect_candidates(tracked, kb)
            features = dialogue_features(dialogue, kb, tracked)
            first = components.ranker(candidates, features)
            ranked_lists = [first]
            if components.reranker is not None:
                ranked_lists.append(components.reranker(first, features))
            merged = ensemble_rank(ranked_lists)
            top5 = [s for s, _ in merged.items]
            context = build_generation_context(dialogue, top5,
                                               max_tokens=max_history_tokens)
            nbest = [{"text": text, "logprob": logprob} for text, logprob in
                     decode_nbest(components.generator, context, components.nbest)]
            chosen = consensus_select(_nbest_pool(dialogue.id, nbest),
                                      components.consensus_weights)
            results.append({
                "target": True,
                "detection_probability": prob,
                "knowledge": [
                    {"domain": s.domain, "entity_id": s.entity_id, "doc_id": s.doc_id}
                    for s, _ in merged.items],
                "response": chosen.text,
                "nbest": nbest,
            })
        except Exception as exc:
            exc.args = (f"decode failed at turn {dialogue.id}: {exc}",)
            raise
    return results


def validate_labels_schema(records: Sequence[dict]) -> None:
    """Prediction-writer schema check for every turn: a turn record with
    knowledge on every positive turn and on no negative one."""
    check_turn_records(records)
    for i, rec in enumerate(records):
        if rec["target"] and not rec.get("knowledge"):
            raise ValueError(f"record {i}: positive turn needs knowledge")
        if not rec["target"] and rec.get("knowledge"):
            raise ValueError(f"record {i}: negative turn carries knowledge")


def _read_predictions_and_references(config: PipelineConfig, predictions_path: str,
                                     references_path: str
                                     ) -> tuple[list[dict], list[dict]]:
    """A decode's turn records and the labels of the same turns, one
    record each per turn; files of different lengths are a CorpusError."""
    predictions = read_turn_records(require(config, predictions_path, "decode"))
    references = read_turn_records(require(config, references_path, "synth"))
    if len(predictions) != len(references):
        raise CorpusError(f"{predictions_path} has {len(predictions)} turn records but "
                          f"{references_path} has {len(references)}")
    return predictions, references


def stage_decode(config: PipelineConfig) -> list[str]:
    corpus = load_corpus(require(config, config["paths.logs"], "synth"))
    kb = load_knowledge_base(require(config, config["paths.knowledge"], "synth"))
    checkpoints = {name: require(config, config.output_path(f"{name}.npz"), stage)
                   for name, stage in (("detector", "train-detect"),
                                       ("rankers", "train-select"),
                                       ("generator", "train-generate"))}
    detector = scorer_from_checkpoint(checkpoints["detector"])
    tracker = load_tracker(config)
    pointwise, listwise = load_rankers(checkpoints["rankers"])
    generator = load_generator(checkpoints["generator"])
    weights_path = config.output_path("consensus.weights.json")
    weights = ConsensusWeights.uniform()
    if os.path.exists(weights_path):
        weights = load_weights(require(config, weights_path, "tune-consensus"))

    alpha = config["rank.alpha"]

    def detector_fn(dialogue):
        return detector.score(linearize_history(dialogue), "")

    def ranker(candidates, features):
        return pointwise_rank(pointwise, candidates, features, kb)

    def reranker(first, features):
        return listwise_rerank(listwise, first, features, alpha)

    components = DecodeComponents(
        detector=detector_fn,
        tracker=tracker,
        ranker=ranker,
        reranker=reranker,
        generator=generator,
        consensus_weights=weights,
        nbest=config["gen.nbest"])
    records = end_to_end_decode(
        corpus, kb, components,
        max_history_tokens=config["gen.max_history_tokens"])
    validate_labels_schema(records)
    path = config.output_path("predictions.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, ensure_ascii=False, indent=1)
    return [path]


def stage_ensemble(config: PipelineConfig, prediction_paths: Sequence[str],
                   base_system: str) -> list[str]:
    """Error-fixing ensemble over several detection prediction files, each
    file's ``detection_probability`` list, in record order, as its system's
    probabilities; a record without one is a CorpusError. A system is named
    by its file's base name, so two files of one name are a CorpusError
    too."""
    probabilities, paths = {}, {}
    for path in prediction_paths:
        name = os.path.basename(path)
        if name in paths:
            raise CorpusError(f"system name {name!r} is given twice: {paths[name]} "
                              f"and {path}; rename one file")
        paths[name] = path
        records = read_turn_records(require(config, path, "decode"))
        for i, r in enumerate(records):
            if "detection_probability" not in r:
                raise CorpusError(f"{path}: record {i}: missing detection_probability")
        probabilities[name] = [float(r["detection_probability"]) for r in records]
    labels, means = error_fixing_ensemble(probabilities, base_system,
                                          config["detect.delta_d"])
    path = config.output_path("ensemble.detection.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"target": label, "detection_probability": p}
                   for label, p in zip(labels, means)], fh, indent=1)
    return [path]


def stage_tune_consensus(config: PipelineConfig, predictions_path: str,
                         references_path: str) -> list[str]:
    """Tune the consensus weights on a dev split's decode: one pool per
    turn with a recorded n-best and a reference response, named by its
    record index, as decode built it."""
    predictions, references = _read_predictions_and_references(
        config, predictions_path, references_path)
    pools, responses = [], {}
    for i, (pred, ref) in enumerate(zip(predictions, references)):
        if pred.get("nbest") and ref.get("response"):
            pools.append(_nbest_pool(str(i), pred["nbest"]))
            responses[str(i)] = ref["response"]
    weights = tune_weights(pools, responses, config=TuneConfig(seed=config.seed))
    path = config.output_path("consensus.weights.json")
    save_weights(weights, path)
    return [path]


def stage_evaluate(config: PipelineConfig, predictions_path: str,
                   references_path: str) -> list[str]:
    predictions, references = _read_predictions_and_references(
        config, predictions_path, references_path)
    report = evaluate_predictions(predictions, references)
    path = config.output_path("metrics.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=1, sort_keys=True)
    text_path = config.output_path("metrics.txt")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(report.format_table() + "\n")
    return [path, text_path]


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
    report.add("selection-mrr@5", mrr_at_k(ranked_keys, ref_keys, 5))
    report.add("selection-r@1", recall_at_k(ranked_keys, ref_keys, 1))
    report.add("selection-r@5", recall_at_k(ranked_keys, ref_keys, 5))
    if gen_pairs:
        for name, value in generation_report(gen_pairs).scores.items():
            report.add(f"generation-{name}", value)
    return report
