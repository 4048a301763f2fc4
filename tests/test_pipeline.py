import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial import corpus, generate, pipeline, rank
from kgdial.consensus import (Candidate, CandidatePool, ConsensusError,
                              ConsensusWeights, TuneConfig, consensus_select,
                              load_weights, tune_weights)
from kgdial.corpus import linearize_history, save_corpus, save_knowledge_base
from kgdial.entity_track import TrackMethod
from kgdial.pipeline import (
    CONFIG_DEFAULTS, ConfigError, DecodeComponents, DependencyError,
    PipelineConfig, end_to_end_decode, evaluate_predictions, load_config,
    load_tracker, require, run_stage, stage_augment, stage_decode, stage_ensemble,
    stage_evaluate, stage_train_detect, stage_train_generate, stage_train_select,
    stage_tune_consensus, validate_labels_schema,
)
from kgdial.generate import GenerateError, ToyGenerator
from kgdial.models import (POOLINGS, ModelError, ToyEncoder, ToyPairScorer,
                           TrainConfig, load_checkpoint, prefixed, save_checkpoint,
                           scorer_from_checkpoint, scorer_to_checkpoint)
from kgdial.pipeline import _save_generator, load_generator
from kgdial.rank import (ListwiseModel, PointwiseConfig, PointwiseModel,
                         RankedKnowledgeList, Variant, ensemble_rank, load_rankers,
                         save_rankers)
from kgdial.synth import MiniCorpusConfig, build_mini_corpus, save_lexicon
from test_models import CHECKPOINT_DEFECTS, forbid_draws, rewrite_checkpoint

# the probability and threshold keys a config must hold in [0, 1]
UNIT_INTERVAL_KEYS = ["track.fuzzy_threshold", "track.delta_e", "detect.delta_d",
                      "gen.p_s", "augment.ena_probability", "augment.ena_delete_prob",
                      "augment.replace_rate_low", "augment.replace_rate_high"]
BOOL_KEYS = sorted(k for k, v in CONFIG_DEFAULTS.items() if isinstance(v, bool))


def config_text(key):
    """Strings a config file, an override and a dict all read as a valid
    value of ``key``."""
    default = CONFIG_DEFAULTS[key]
    enums = {"rank.variant": [v.value for v in Variant],
             "track.method": [m.value for m in TrackMethod],
             "model.pooling": list(POOLINGS)}
    if key in enums:
        return st.sampled_from(enums[key])
    if isinstance(default, bool):
        return st.sampled_from(["true", "false", "1", "0", "yes", "no", "True", "NO"])
    if isinstance(default, int):
        return st.integers(2, 10**6).map(str)
    if isinstance(default, float):
        # within every range check, and between the default replace rates
        return st.floats(0.1, 0.3).map(str)
    return st.text(st.characters(codec="ascii", categories=("L", "N", "P")), max_size=12)


class TestConfig:
    def test_defaults_carry_paper_constants(self):
        cfg = PipelineConfig()
        assert cfg["detect.delta_d"] == 0.3
        assert cfg["track.delta_e"] == 0.5
        assert cfg["rank.alpha"] == 100.0
        assert cfg["gen.p_s"] == 0.15
        assert cfg["augment.replace_rate_low"] == 0.1
        assert cfg["augment.replace_rate_high"] == 0.3
        assert cfg["augment.ena_probability"] == 0.3
        assert cfg["augment.ena_delete_prob"] == 0.1
        assert cfg["gen.kfolds"] == 10
        assert cfg["rank.entity_negatives"] == 3

    def test_file_parse_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed = 7\ndetect.delta_d = 0.2\n")
        cfg = load_config(str(path), overrides=["rank.alpha=50"])
        assert cfg.seed == 7
        assert cfg["detect.delta_d"] == 0.2
        assert cfg["rank.alpha"] == 50.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no.such.key = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    # the detector cuts its own input to model.max_len and the generation
    # context's gen.max_history_tokens counts every token, so neither key is
    # read any more; a config still naming one fails from every source
    @pytest.mark.parametrize("key", ["detect.max_tokens", "corpus.count_tags"])
    @pytest.mark.parametrize("source", ["file", "override", "dict"])
    def test_retired_key_rejected_from_every_source(self, tmp_path, key, source):
        path = tmp_path / "old.cfg"
        path.write_text(f"seed = 1\n{key} = 1\n")
        load = {"file": lambda: load_config(str(path)),
                "override": lambda: load_config("", [f"{key}=1"]),
                "dict": lambda: PipelineConfig({key: 1})}[source]
        with pytest.raises(ConfigError) as raised:
            load()
        assert str(raised.value) == {
            "file": f"{path}:2: unknown key {key!r}",
            "override": f"unknown override key {key!r}",
            "dict": f"unknown config keys: [{key!r}]"}[source]

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError):
            load_config("", overrides=["rank.use_mtl=maybe"])

    @pytest.mark.parametrize("key", sorted(CONFIG_DEFAULTS))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_file_override_and_dict_type_a_value_alike(self, key, data):
        text = data.draw(config_text(key))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"{key} = {text}\n")
            from_file = load_config(path).values
        from_override = load_config("", [f"{key}={text}"]).values
        from_dict = PipelineConfig({key: text}).values
        assert from_file == from_override == from_dict
        assert all(type(value) is type(CONFIG_DEFAULTS[k]) for k, value in from_dict.items())
        # a typed value reads as itself
        assert PipelineConfig({key: from_dict[key]}).values == from_dict

    @pytest.mark.parametrize("key", BOOL_KEYS)
    @pytest.mark.parametrize("text", ["false", "0", "no", "False", "NO"])
    def test_false_strings_read_as_false(self, key, text):
        assert PipelineConfig({key: text})[key] is False
        assert load_config("", [f"{key}={text}"])[key] is False

    @pytest.mark.parametrize("key,value,expected", [
        ("model.d", "abc", "int"), ("rank.epochs", "x", "int"), ("seed", 1.5, "int"),
        ("seed", True, "int"), ("rank.alpha", "fast", "float"),
        ("gen.p_s", None, "float"), ("rank.use_mtl", "maybe", "a boolean"),
        ("rank.use_mtl", 2, "a boolean"),
        ("paths.labels", None, "str"), ("augment.tasks", 5, "str")])
    def test_bad_value_is_a_config_error_naming_the_key(self, key, value, expected):
        with pytest.raises(ConfigError) as raised:
            PipelineConfig({key: value})
        assert str(raised.value) == f"{key}: expected {expected}, got {value!r}"

    @pytest.mark.parametrize("key", sorted(k for k in CONFIG_DEFAULTS
                                           if k.endswith(".batch_size")))
    @pytest.mark.parametrize("value", [0, -3])
    def test_batch_size_below_one_rejected(self, key, value):
        assert key.split(".")[0] in ("detect", "rank", "gen")
        with pytest.raises(ConfigError, match=f"{key}: expected an int >= 1"):
            PipelineConfig({key: value})

    @pytest.mark.parametrize("key", UNIT_INTERVAL_KEYS)
    @pytest.mark.parametrize("value", [1.5, -0.5, 2, float("nan")])
    def test_probability_out_of_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}: expected a number in"):
            PipelineConfig({key: value})
        PipelineConfig({key: 0.25 if key.endswith("_high") else 0.0})

    def test_replace_rates_must_be_ordered(self):
        with pytest.raises(ConfigError, match="replace_rate_low: expected <="):
            PipelineConfig({"augment.replace_rate_low": 0.4,
                            "augment.replace_rate_high": 0.2})
        PipelineConfig({"augment.replace_rate_low": 0.3,
                        "augment.replace_rate_high": 0.3})


class TestManifest:
    def test_identical_inputs_identical_manifests(self, tmp_path):
        source = tmp_path / "source.json"
        source.write_text('{"x": 1}')
        out = tmp_path / "out"
        cfg = PipelineConfig({"paths.output": str(out), "paths.logs": str(source)})

        def copy(config):
            path = config.output_path("artifact.json")
            shutil.copy(require(config, config["paths.logs"], "synth"), path)
            return [path]

        first = run_stage(cfg, "demo", copy)
        assert first == [str(out / "artifact.json"), str(out / "demo.manifest.json")]
        text = open(first[-1]).read()
        assert open(run_stage(cfg, "demo", copy)[-1]).read() == text
        manifest = json.loads(text)
        assert manifest["config"] == {"paths.logs": str(source), "paths.output": str(out)}
        assert set(manifest["inputs"]) == {"source.json"}
        assert set(manifest["outputs"]) == {"artifact.json"}

    def test_each_run_records_only_its_own_reads(self, tmp_path):
        source = tmp_path / "source.json"
        source.write_text('{"x": 1}')
        cfg = PipelineConfig({"paths.output": str(tmp_path), "paths.logs": str(source)})
        run_stage(cfg, "first", lambda c: [require(c, c["paths.logs"], "synth")])
        path = run_stage(cfg, "second", lambda c: [c.output_path("source.json")])[-1]
        manifest = json.loads(open(path).read())
        assert manifest["config"] == {"paths.output": str(tmp_path)}
        assert manifest["inputs"] == {}

    def test_require_names_missing_stage(self):
        with pytest.raises(DependencyError, match="train-detect"):
            require(PipelineConfig(), "/nope/never.npz", "train-detect")


class TestLabelsSchema:
    def test_valid_records_pass(self):
        validate_labels_schema([
            {"target": False},
            {"target": True,
             "knowledge": [{"domain": "hotel", "entity_id": "1", "doc_id": "0"}],
             "response": "yes"},
        ])

    def test_negative_with_knowledge_rejected(self):
        with pytest.raises(ValueError):
            validate_labels_schema([{"target": False, "knowledge": [{}]}])

    def test_positive_without_knowledge_rejected(self):
        with pytest.raises(ValueError):
            validate_labels_schema([{"target": True, "knowledge": []}])


class OracleGenerator:
    def __init__(self, table):
        self.table = table

    def generate_nbest(self, context, n):
        for key, response in self.table.items():
            if key in context:
                return [(response, -0.1)]
        return [("fallback response", -5.0)]


def oracle_components(dialogues, kb):
    """Components that look up gold answers from their own tables,
    without touching dialogue labels at decode time."""
    truth = {d.id: d.label for d in dialogues}
    entities_by_key = {e.key: e for e in kb.entities}

    def detector(dialogue):
        return 1.0 if truth[dialogue.id].is_knowledge_seeking else 0.0

    turn_refs = set()  # the gold keys of the turn being decoded

    def tracker(dialogue, kb_):
        refs = truth[dialogue.id].knowledge_refs
        turn_refs.clear()
        turn_refs.update(refs)
        return [entities_by_key[(dom, eid)] for dom, eid, _ in refs]

    def ranker(candidates, features):
        scored = tuple(
            (snip, 1.0 if snip.key in turn_refs else 0.0) for snip in candidates)
        return RankedKnowledgeList(tuple(sorted(scored, key=lambda t: -t[1])[:5]))

    generator = OracleGenerator({
        d.id: truth[d.id].response for d in dialogues
        if truth[d.id].is_knowledge_seeking and truth[d.id].response})

    class ContextualOracleGenerator:
        def generate_nbest(self, context, n):
            return [("oracle response", -0.5)]

    return truth, DecodeComponents(
        detector=detector, tracker=tracker, ranker=ranker,
        generator=ContextualOracleGenerator(),
        consensus_weights=ConsensusWeights.uniform(), nbest=1)


@pytest.fixture(scope="module")
def mini():
    dialogues, kb, _ = build_mini_corpus(MiniCorpusConfig(n_dialogues=40, seed=3))
    return dialogues, kb


class TestEndToEndOracle:

    def test_oracle_decode_is_perfect(self, mini):
        dialogues, kb = mini
        truth, components = oracle_components(dialogues, kb)
        records = end_to_end_decode(dialogues, kb, components)
        validate_labels_schema(records)
        refs = [
            {"target": t.is_knowledge_seeking,
             "knowledge": [{"domain": d_, "entity_id": e, "doc_id": doc}
                           for d_, e, doc in t.knowledge_refs],
             "response": t.response}
            for t in (truth[d.id] for d in dialogues)]
        report = evaluate_predictions(records, refs)
        assert report.scores["detection-f1"] == 1.0
        assert report.scores["selection-r@1"] == 1.0

    def test_negative_turns_skip_selection(self, mini):
        dialogues, kb = mini
        truth, components = oracle_components(dialogues, kb)
        calls = []
        original = components.tracker

        def counting_tracker(dialogue, kb_):
            calls.append(dialogue.id)
            return original(dialogue, kb_)

        components.tracker = counting_tracker
        records = end_to_end_decode(dialogues, kb, components)
        seeking_ids = {d.id for d in dialogues if truth[d.id].is_knowledge_seeking}
        assert set(calls) == seeking_ids
        for rec, d in zip(records, dialogues):
            if not truth[d.id].is_knowledge_seeking:
                assert rec == {"target": False, "detection_probability": 0.0}

    def test_decode_never_reads_labels(self, mini):
        # identical output whether or not the input corpus carries labels
        dialogues, kb = mini
        _, components = oracle_components(dialogues, kb)
        from kgdial.corpus import strip_labels

        with_labels = end_to_end_decode(dialogues, kb, components)
        without = end_to_end_decode(strip_labels(dialogues), kb, components)
        assert with_labels == without


@pytest.mark.parametrize("nbest, error, message", [
    ([], ConsensusError, "empty candidate pool"),
    ([("one", -1.0), ("two", -2.0)], GenerateError, "more than n candidates"),
])
def test_decode_error_keeps_its_class_and_names_the_turn(mini, nbest, error,
                                                         message):
    dialogues, kb = mini
    truth, components = oracle_components(dialogues, kb)
    first = next(d for d in dialogues if truth[d.id].is_knowledge_seeking)

    class FixedGenerator:
        def generate_nbest(self, context, n):
            return list(nbest)

    components.generator = FixedGenerator()
    with pytest.raises(error, match=f"^decode failed at turn "
                                    f"{re.escape(first.id)}: .*{message}"):
        end_to_end_decode(dialogues, kb, components)


def test_decode_ranks_each_turn_once_and_reranks_that_list(mini):
    dialogues, kb = mini
    truth, components = oracle_components(dialogues, kb)
    oracle_ranker = components.ranker
    # the ranker's lists in call order; each one's rerank, by list identity
    first_lists, reranked_lists = [], {}

    def counting_ranker(candidates, features):
        first_lists.append(oracle_ranker(candidates, features))
        return first_lists[-1]

    def reversing_reranker(first, features):
        assert first is first_lists[-1] and id(first) not in reranked_lists
        n = len(first.items)
        reordered = [snip for snip, _ in reversed(first.items)]
        reranked_lists[id(first)] = RankedKnowledgeList(tuple(
            (snip, (n - i) / n) for i, snip in enumerate(reordered)))
        return reranked_lists[id(first)]

    components.ranker = counting_ranker
    components.reranker = reversing_reranker
    records = end_to_end_decode(dialogues, kb, components)
    seeking = [rec for rec, d in zip(records, dialogues)
               if truth[d.id].is_knowledge_seeking]
    assert len(first_lists) == len(reranked_lists) == len(seeking)
    for rec, first in zip(seeking, first_lists):
        merged = ensemble_rank([first, reranked_lists[id(first)]])
        assert rec["knowledge"] == [
            {"domain": s.domain, "entity_id": s.entity_id, "doc_id": s.doc_id}
            for s, _ in merged.items]


@pytest.fixture(scope="module")
def every_command(tmp_path_factory):
    """Every command run once through `run_stage` on a small corpus, one
    epoch each: augment with both tasks, the training stages with the
    default learned tracking and multi-task head, decode, evaluate,
    ensemble and tune-consensus, and a decode with fuzzy tracking. Returns
    the config, the dialogues and each run's manifest, in run order."""
    assert CONFIG_DEFAULTS["track.method"] == "learned" and CONFIG_DEFAULTS["rank.use_mtl"]
    root = tmp_path_factory.mktemp("every-command")
    dialogues, kb, lexicon = build_mini_corpus(
        MiniCorpusConfig(n_dialogues=30, seed=4))
    data = root / "data"
    data.mkdir()
    save_corpus(dialogues, str(data / "logs.json"), str(data / "labels.json"))
    save_knowledge_base(kb, str(data / "knowledge.json"))
    save_lexicon(lexicon, str(data / "lexicon.tsv"))
    (data / "confusions.tsv").write_text("hotel\thostel\nmuseum\tmuseums\n")
    config = PipelineConfig({
        "paths.logs": str(data / "logs.json"),
        "paths.labels": str(data / "labels.json"),
        "paths.knowledge": str(data / "knowledge.json"),
        "paths.lexicon": str(data / "lexicon.tsv"),
        "paths.confusions": str(data / "confusions.tsv"),
        "paths.output": str(root / "out"),
        "augment.tasks": "AEI,TST", "model.d": 8,
        "detect.epochs": 1, "track.epochs": 1, "rank.epochs": 1,
        "rank.listwise_epochs": 1, "gen.epochs": 1})
    manifests = []

    def run(stage, *args, run_config=config):
        paths = run_stage(run_config, stage.__name__.removeprefix("stage_").replace("_", "-"),
                          stage, *args)
        with open(paths[-1], encoding="utf-8") as fh:
            manifests.append(json.load(fh))
        return paths[0]

    for stage in (stage_augment, stage_train_detect, stage_train_select,
                  stage_train_generate):
        run(stage)
    fuzzy = PipelineConfig(dict(config.values, **{
        "track.method": "fuzzy", "paths.output": str(root / "fuzzy")}))
    shutil.copytree(root / "out", root / "fuzzy")
    run(stage_decode, run_config=fuzzy)
    predictions = run(stage_decode)
    run(stage_evaluate, predictions, config["paths.labels"])
    twin = root / "twin.json"
    shutil.copy(predictions, twin)
    run(stage_ensemble, [predictions, str(twin)], "predictions.json")
    run(stage_tune_consensus, predictions, config["paths.labels"])
    return config, dialogues, manifests


def _manifest(manifests, stage):
    """The last manifest of ``stage``."""
    return [m for m in manifests if m["stage"] == stage][-1]


def test_default_learned_tracking_runs_end_to_end(every_command):
    config, dialogues, manifests = every_command
    assert os.path.exists(config.output_path("tracker.npz"))
    with open(config.output_path("predictions.json"), encoding="utf-8") as fh:
        records = json.load(fh)
    assert len(records) == len(dialogues)
    validate_labels_schema(records)
    for stage in ("train-generate", "decode"):
        assert "tracker.npz" in _manifest(manifests, stage)["inputs"], stage


def test_every_config_key_is_read_by_some_stage(every_command):
    _, _, manifests = every_command
    assert set().union(*(m["config"] for m in manifests)) == set(CONFIG_DEFAULTS)


def test_train_detect_reads_the_augmented_corpus_alone(every_command):
    manifest = _manifest(every_command[2], "train-detect")
    assert set(manifest["inputs"]) == {"augmented.logs.json", "augmented.labels.json"}
    assert not [key for key in manifest["config"]
                if key.split(".")[0] in ("rank", "gen", "track")]
    assert "paths.knowledge" not in manifest["config"]


def test_evaluate_reads_only_its_files_and_output_directory(every_command):
    config, _, manifests = every_command
    manifest = _manifest(manifests, "evaluate")
    assert manifest["config"] == {"paths.output": config["paths.output"]}
    assert set(manifest["inputs"]) == {"predictions.json", "labels.json"}


def test_train_generate_records_what_its_fold_rankers_read(every_command):
    config, _, manifests = every_command
    read = _manifest(manifests, "train-generate")["config"]
    # without the multi-task head and online ENA, whatever train-select uses
    assert {key for key in read if key.startswith("rank.")} == {
        "rank.variant", "rank.negatives", "rank.lambda_rank",
        "rank.epochs", "rank.learning_rate", "rank.batch_size"}
    assert not [key for key in read if key.startswith("augment.")]
    # fold decoding tracks as decode does: with the learned tracker
    assert {"track.method", "track.delta_e"} <= set(read)
    assert read == {key: config.values[key] for key in read}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small fuzzy-tracking pipeline trained on augment's un-augmented
    run (no task), so train and decode read the same dialogues."""
    root = tmp_path_factory.mktemp("trained")
    dialogues, kb, lexicon = build_mini_corpus(MiniCorpusConfig(n_dialogues=30, seed=4))
    save_corpus(dialogues, str(root / "logs.json"), str(root / "labels.json"))
    save_knowledge_base(kb, str(root / "knowledge.json"))
    save_lexicon(lexicon, str(root / "lexicon.tsv"))
    config = PipelineConfig({
        "paths.logs": str(root / "logs.json"),
        "paths.labels": str(root / "labels.json"),
        "paths.knowledge": str(root / "knowledge.json"),
        "paths.lexicon": str(root / "lexicon.tsv"),
        "paths.output": str(root / "out"), "augment.tasks": "",
        "track.method": "fuzzy", "track.fuzzy_threshold": 0.5,
        "model.d": 8, "model.max_len": 64,
        "detect.epochs": 4, "detect.learning_rate": 0.02,
        "rank.epochs": 2, "rank.learning_rate": 0.01,
        "rank.kfolds": 2, "rank.listwise_epochs": 1, "gen.epochs": 1,
        "gen.kfolds": 2})
    for stage in (stage_augment, stage_train_detect, stage_train_select,
                  stage_train_generate):
        stage(config)
    return config, dialogues


def test_decode_scores_the_detector_input_train_detect_trained_on(trained,
                                                                  monkeypatch):
    config, dialogues = trained
    trained_on, scored = [], []
    real_train, real_score = pipeline.train_pair_classifier, ToyPairScorer.score

    def recording_train(examples, *args):
        trained_on.extend(history for history, _, _ in examples)
        return real_train(examples, *args)

    def recording_score(self, sentence1, sentence2):
        scored.append(sentence1)
        return real_score(self, sentence1, sentence2)

    monkeypatch.setattr(pipeline, "train_pair_classifier", recording_train)
    monkeypatch.setattr(ToyPairScorer, "score", recording_score)
    stage_train_detect(config)
    stage_decode(config)
    assert scored == trained_on
    # both read the whole history, which the detector cuts to model.max_len
    assert scored == [linearize_history(d) for d in dialogues]


def test_decode_scores_a_long_history_by_its_last_max_len_positions(trained,
                                                                   tmp_path,
                                                                   monkeypatch):
    """Four consecutive fixture dialogues stitched into one history, as the
    benchmark's long-history decode stitches them, with the id and label of
    the last: decode's detection probability is the trained detector's
    score of the history's last model.max_len positions alone."""
    config, dialogues = trained
    parts = dialogues[-4:]
    stitched = corpus.Dialogue(id=parts[-1].id, label=parts[-1].label,
                               turns=tuple(t for d in parts for t in d.turns))
    save_corpus([stitched], str(tmp_path / "long.logs.json"),
                str(tmp_path / "long.labels.json"))
    config = _copy_outputs(config, tmp_path, **{
        "paths.logs": str(tmp_path / "long.logs.json"),
        "paths.labels": str(tmp_path / "long.labels.json")})
    decoded, _ = _decode_in_memory(config, monkeypatch)
    detector = scorer_from_checkpoint(config.output_path("detector.npz"))
    max_len = config["model.max_len"]
    assert detector.encoder.max_len == max_len
    tokens = corpus.tokenize(linearize_history(stitched))
    assert len(tokens) > max_len
    suffix = " ".join(tokens[-max_len:])
    assert corpus.tokenize(suffix) == tokens[-max_len:]
    assert len(decoded) == 1
    assert decoded[0]["detection_probability"] == detector.score(suffix, "")


@pytest.mark.parametrize("batch_size", [1, 5])
def test_train_detect_trains_with_its_batch_size(trained, tmp_path, monkeypatch,
                                                 batch_size):
    config = _copy_outputs(trained[0], tmp_path, **{"detect.batch_size": batch_size})
    used = []

    class Recorded(Exception):
        pass

    def recording_train(examples, train_config):
        used.append(train_config.batch_size)
        raise Recorded

    monkeypatch.setattr(pipeline, "train_pair_classifier", recording_train)
    with pytest.raises(Recorded):
        stage_train_detect(config)
    assert used == [batch_size]


def test_decode_uses_the_variant_the_rankers_were_trained_with(trained):
    config, _ = trained
    predictions = {}
    for variant in ("WD2", "WD"):
        path = stage_decode(PipelineConfig(dict(config.values,
                                                **{"rank.variant": variant})))[0]
        with open(path, encoding="utf-8") as fh:
            predictions[variant] = json.load(fh)
    assert any(record["target"] for record in predictions["WD2"])
    assert predictions["WD"] == predictions["WD2"]


def test_decode_builds_dialogue_features_once_per_targeted_turn(trained,
                                                                monkeypatch):
    config, _ = trained
    calls = []
    real = rank.dialogue_features

    def counting(dialogue, kb, tracked):
        calls.append(dialogue.id)
        return real(dialogue, kb, tracked)

    monkeypatch.setattr(rank, "dialogue_features", counting)
    monkeypatch.setattr(pipeline, "dialogue_features", counting)
    path = stage_decode(config)[0]
    with open(path, encoding="utf-8") as fh:
        targeted = sum(record["target"] for record in json.load(fh))
    assert targeted > 0
    assert len(calls) == len(set(calls)) == targeted


def test_decode_ranks_without_tokenizing_or_tracking_whole_dialogues(trained,
                                                                    monkeypatch,
                                                                    tmp_path):
    """The rankers read the history from the turn's features: decode with
    the whole-dialogue text path of rank disabled writes the same records."""
    config, _ = trained
    with open(stage_decode(config)[0], encoding="utf-8") as fh:
        expected = json.load(fh)

    def forbidden(*args):
        raise AssertionError("decode tokenized or tracked a whole dialogue")

    monkeypatch.setattr(rank, "linearize_history", forbidden)
    monkeypatch.setattr(rank, "exact_match_entities", forbidden)
    with open(stage_decode(_copy_outputs(config, tmp_path))[0], encoding="utf-8") as fh:
        assert json.load(fh) == expected


def _copy_outputs(config, tmp_path, **values):
    """The config with its trained outputs copied to a fresh directory."""
    out = tmp_path / "out"
    shutil.copytree(config["paths.output"], out)
    return PipelineConfig(dict(config.values, **values, **{"paths.output": str(out)}))


def _checkpoint_members(path):
    """The bytes of every member of a checkpoint archive (its zip entries
    carry timestamps, so the archive bytes themselves differ run to run)."""
    with np.load(path) as archive:
        return {name: archive[name].tobytes() for name in archive.files}


def _decode_in_memory(config, monkeypatch):
    """stage_decode's records as end_to_end_decode returned them, and the
    path of the predictions file it wrote."""
    decoded = []
    real = pipeline.end_to_end_decode

    def recording(*args, **kwargs):
        decoded.extend(real(*args, **kwargs))
        return decoded

    monkeypatch.setattr(pipeline, "end_to_end_decode", recording)
    return decoded, stage_decode(config)[0]


def _pool(turn_id, nbest):
    return CandidatePool(turn_id, tuple(
        Candidate(c["text"], "gen", rank, c["logprob"])
        for rank, c in enumerate(nbest, 1)))


def test_decode_records_the_nbest_consensus_chose_from(trained, tmp_path,
                                                       monkeypatch):
    config = _copy_outputs(trained[0], tmp_path)  # no tuned weights: uniform
    decoded, path = _decode_in_memory(config, monkeypatch)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == decoded
    targeted = [rec for rec in decoded if rec["target"]]
    assert targeted
    for rec in targeted:
        logprobs = [c["logprob"] for c in rec["nbest"]]
        assert 1 <= len(logprobs) <= config["gen.nbest"]
        assert logprobs == sorted(logprobs, reverse=True)
        chosen = consensus_select(_pool("t", rec["nbest"]), ConsensusWeights.uniform())
        assert chosen.text == rec["response"]


def test_tune_consensus_tunes_the_pools_decode_built(trained, tmp_path, monkeypatch):
    config = _copy_outputs(trained[0], tmp_path)
    decoded, path = _decode_in_memory(config, monkeypatch)
    with open(config["paths.labels"], encoding="utf-8") as fh:
        labels = json.load(fh)
    pools, references = [], {}
    for i, (rec, label) in enumerate(zip(decoded, labels)):
        if rec.get("nbest") and label.get("response"):
            pools.append(_pool(str(i), rec["nbest"]))
            references[str(i)] = label["response"]
    assert pools
    expected = tune_weights(pools, references, config=TuneConfig(seed=config.seed))
    written = stage_tune_consensus(config, path, config["paths.labels"])[0]
    assert load_weights(written).values.tobytes() == expected.values.tobytes()


def test_seeded_training_runs_give_identical_checkpoints(trained, tmp_path):
    """Every trainer (the detector, the learned tracker, the point-wise
    ranker with MTL and ENA, its k-fold retrains, the list-wise ranker and
    the generator) trains in minibatch passes; two runs of one config
    write the same checkpoint bytes."""
    runs = []
    for run in ("a", "b"):
        config = PipelineConfig(dict(trained[0].values, **{
            "paths.output": str(tmp_path / run), "track.method": "learned",
            "track.epochs": 1, "model.d": 24}))
        for stage in (stage_augment, stage_train_detect, stage_train_select,
                      stage_train_generate):
            stage(config)
        runs.append({name: _checkpoint_members(config.output_path(name))
                     for name in ("detector.npz", "tracker.npz", "rankers.npz",
                                  "generator.npz")})
    assert runs[0] == runs[1]


@pytest.mark.parametrize("stage,base,key,value", [
    (stage_augment, {"augment.tasks": "AEI"}, "augment.ena_probability", 0.9),
    (stage_train_select, {"rank.use_mtl": False}, "rank.lambda_entity", 0.5),
    (stage_train_select, {"augment.ena_probability": 0.0}, "augment.ena_delete_prob", 0.9),
    # train-generate's fold rankers have no multi-task head, MTL or not
    (stage_train_generate, {"rank.use_mtl": False}, "rank.use_mtl", True),
    (stage_train_generate, {}, "rank.lambda_domain", 0.5),
    (stage_decode, {}, "paths.labels", "no-such-labels.json"),
], ids=["augment-ena", "select-lambda-entity-without-mtl",
        "select-ena-delete-without-ena", "generate-use-mtl", "generate-lambda-domain",
        "decode-labels"])
def test_a_setting_a_stage_does_not_record_leaves_its_outputs(trained, tmp_path, stage,
                                                              base, key, value):
    """A stage run again with one setting changed that cannot shape its
    outputs: the setting is not in its manifest and every output is the
    same (a checkpoint member for member)."""
    runs = []
    for name, values in (("base", base), ("changed", {**base, key: value})):
        config = _copy_outputs(trained[0], tmp_path / name, **{"rank.epochs": 1, **values})
        *outputs, manifest = run_stage(
            config, stage.__name__.removeprefix("stage_").replace("_", "-"), stage)
        with open(manifest, encoding="utf-8") as fh:
            assert key not in json.load(fh)["config"]
        runs.append({os.path.basename(path): _checkpoint_members(path)
                     if path.endswith(".npz") else Path(path).read_bytes()
                     for path in outputs})
    assert runs[0] == runs[1]


def test_rankers_pool_as_configured(trained, tmp_path):
    config = _copy_outputs(trained[0], tmp_path, **{"model.pooling": "first"})
    stage_train_select(config)
    path = config.output_path("rankers.npz")
    assert load_checkpoint(path)[1]["encoder"]["pooling"] == "first"
    for model in load_rankers(path):
        assert model.encoder.pooling == "first", type(model).__name__
    with open(stage_decode(config)[0], encoding="utf-8") as fh:
        validate_labels_schema(json.load(fh))


def test_generation_contexts_follow_max_history_tokens(trained, tmp_path,
                                                       monkeypatch):
    # gen.max_history_tokens reaches every generation context, at train and
    # at decode time, and 30 tokens cut some of them
    config = _copy_outputs(trained[0], tmp_path, **{"gen.max_history_tokens": 30})
    real = corpus.build_generation_context
    built = []

    def recording(dialogue, topk, max_tokens=0):
        context = real(dialogue, topk, max_tokens)
        built.append((dialogue, list(topk), max_tokens, context))
        return context

    monkeypatch.setattr(generate, "build_generation_context", recording)
    monkeypatch.setattr(corpus, "build_generation_context", recording)
    stage_train_generate(config)
    n_train = len(built)
    stage_decode(config)
    assert 0 < n_train < len(built)
    truncated = 0
    for dialogue, topk, max_tokens, context in built:
        assert max_tokens == 30
        truncated += context != real(dialogue, topk)
    assert truncated > 0


def _loaded_params(loaded):
    """The tensors of a loaded model, or of a loaded ranker pair named as
    `save_rankers` names them."""
    if isinstance(loaded, tuple):
        pointwise, listwise = loaded
        return {**prefixed("pointwise.", pointwise.all_params()),
                **prefixed("listwise.", listwise.all_params())}
    return loaded.all_params()


class TestCheckpointValidation:
    VOCAB = {"a": 0, "b": 1, "c": 2}

    def loaders(self, kb):
        """{name: (save a good checkpoint to a path, load a path)} for every
        checkpoint that decode loads from train-* output."""
        domains = sorted({s.domain for s in kb.snippets})
        config = PointwiseConfig(use_mtl=True, train=TrainConfig(d=4, max_len=8))
        pointwise = PointwiseModel(self.VOCAB, domains, config)
        listwise = ListwiseModel(self.VOCAB, config)
        generator = ToyGenerator(self.VOCAB, d=4, max_target_tokens=5)
        scorer = ToyPairScorer(ToyEncoder(self.VOCAB, d=4, max_len=8))
        return {
            "rankers": (lambda path: save_rankers(pointwise, listwise, path),
                        load_rankers),
            "generator": (lambda path: _save_generator(generator, path), load_generator),
            "pair_scorer": (lambda path: scorer_to_checkpoint(scorer, path),
                            scorer_from_checkpoint),
        }

    @pytest.mark.parametrize("edit,pattern", CHECKPOINT_DEFECTS)
    def test_decode_loads_reject_defect(self, mini, tmp_path, edit, pattern):
        for name, (save, load) in self.loaders(mini[1]).items():
            good = str(tmp_path / f"{name}.npz")
            save(good)
            load(good)
            bad = rewrite_checkpoint(good, str(tmp_path / f"{name}.bad.npz"), edit)
            with pytest.raises(ModelError, match=pattern) as info:
                load(bad)
            assert bad in str(info.value), name

    # (loader, config field) of every field a loader reads; ``block.key`` is
    # a key of the ``block`` object
    @pytest.mark.parametrize("name,field", [
        ("rankers", "variant"), ("rankers", "use_mtl"), ("rankers", "domains"),
        *[(name, field) for name in ("rankers", "pair_scorer") for field in (
            "vocab", "encoder", *(f"encoder.{key}" for key in ToyEncoder.CONFIG_FIELDS))],
        *[("generator", field) for field in ("vocab", "d", "max_target_tokens", "seed")]])
    def test_rank_checkpoint_without_its_training_settings_is_rejected(
            self, mini, tmp_path, name, field):
        save, load = self.loaders(mini[1])[name]
        good = str(tmp_path / "good.npz")
        save(good)
        block, _, key = field.rpartition(".")

        def drop(tensors, meta):
            (meta[block] if block else meta).pop(key)

        bad = rewrite_checkpoint(good, str(tmp_path / "bad.npz"), drop)
        with pytest.raises(ModelError, match=f"missing field '{field}'") as info:
            load(bad)
        assert bad in str(info.value)

    @pytest.mark.parametrize("name,edit,pattern", [
        *[(name, lambda meta: meta["encoder"].update(epochs=3),
           "unknown field 'encoder.epochs'") for name in ("rankers", "pair_scorer")],
        ("rankers", lambda meta: meta.update(variant="bogus"),
         "'bogus' is not a valid Variant"),
        ("rankers", lambda meta: meta.update(vocab={"a": "0"}),
         "field 'vocab' is not an object of string -> integer"),
        ("pair_scorer", lambda meta: meta["encoder"].update(d=True),
         "field 'encoder.d' is not an integer >= 1"),
        ("rankers", lambda meta: meta["encoder"].update(max_len=0),
         "field 'encoder.max_len' is not an integer >= 1"),
        ("rankers", lambda meta: meta["encoder"].update(seed=1.5),
         "field 'encoder.seed' is not an integer"),
        ("pair_scorer", lambda meta: meta["encoder"].update(pooling="max"),
         "field 'encoder.pooling' is not 'mean' or 'first'"),
        ("rankers", lambda meta: meta.update(domains=["hotel", 3]),
         "field 'domains' is not a list of strings"),
        ("rankers", lambda meta: meta.update(use_mtl="yes"),
         "field 'use_mtl' is not a boolean"),
        ("generator", lambda meta: meta.update(max_target_tokens="5"),
         "field 'max_target_tokens' is not an integer"),
        ("generator", lambda meta: meta.update(seed=None), "field 'seed' is not an integer")],
        ids=["rankers-encoder", "pair_scorer-encoder", "rankers-variant",
             "vocab-id-a-string", "encoder-d-a-bool", "encoder-max-len-zero",
             "encoder-seed-a-float", "encoder-pooling-unknown", "domains-not-strings",
             "use-mtl-a-string", "generator-max-target-tokens-a-string",
             "generator-seed-null"])
    def test_checkpoint_with_an_unknown_config_value_is_rejected(self, mini, tmp_path,
                                                                 name, edit, pattern):
        save, load = self.loaders(mini[1])[name]
        good = str(tmp_path / "good.npz")
        save(good)
        bad = rewrite_checkpoint(good, str(tmp_path / "bad.npz"),
                                 lambda tensors, meta: edit(meta))
        with pytest.raises(ModelError, match=pattern) as info:
            load(bad)
        assert bad in str(info.value)

    def test_decode_loads_draw_no_weights(self, mini, tmp_path, monkeypatch):
        """Each loader builds its models around the checkpoint's tensors."""
        for name, (save, load) in self.loaders(mini[1]).items():
            path = str(tmp_path / f"{name}.npz")
            save(path)
            saved, _ = load_checkpoint(path)
            with monkeypatch.context() as patch:
                forbid_draws(patch)
                params = _loaded_params(load(path))
            assert sorted(params) == sorted(saved), name
            for key, value in saved.items():
                assert params[key].tobytes() == value.tobytes(), (name, key)

    def test_rank_checkpoint_round_trips(self, tmp_path):
        """Both rankers come back with their tensors, vocabulary, encoder
        config and variant bit for bit, and a re-save writes the same
        checkpoint."""
        config = PointwiseConfig(use_mtl=True, variant=Variant.WD, train=TrainConfig(
            seed=3, d=4, max_len=8, pooling="first"))
        domains = ["hotel", "restaurant"]
        models = (PointwiseModel(self.VOCAB, domains, config),
                  ListwiseModel(self.VOCAB, config))
        rng = np.random.default_rng(0)
        for model in models:
            for value in model.all_params().values():
                value[...] = rng.normal(size=value.shape)
        paths = [str(tmp_path / "rankers.npz"), str(tmp_path / "again.npz")]
        save_rankers(*models, paths[0])
        loaded = load_rankers(paths[0])
        for model, restored in zip(models, loaded):
            assert type(restored) is type(model)
            assert restored.encoder.vocab == self.VOCAB
            assert restored.encoder.config() == model.encoder.config()
            assert restored.config.variant is Variant.WD
            assert {k: v.tobytes() for k, v in restored.all_params().items()} == {
                k: v.tobytes() for k, v in model.all_params().items()}
        assert loaded[0].domains == domains and loaded[0].config.use_mtl
        save_rankers(*loaded, paths[1])
        (first, first_meta), (second, second_meta) = map(load_checkpoint, paths)
        assert first_meta == second_meta
        assert {k: v.tobytes() for k, v in first.items()} == {
            k: v.tobytes() for k, v in second.items()}

    def test_rank_checkpoint_of_the_other_kind_is_rejected(self, tmp_path):
        """A point-wise checkpoint of the two-file layout, which predates
        ``rankers.npz``, is refused by its kind, in one line."""
        pointwise = PointwiseModel(self.VOCAB, ["hotel"], PointwiseConfig(
            train=TrainConfig(d=4, max_len=8)))
        path = str(tmp_path / "pointwise.npz")
        save_checkpoint(path, pointwise.all_params(), {
            "kind": "PointwiseModel", "vocab": self.VOCAB,
            "encoder": pointwise.encoder.config(), "variant": "WD2", "use_mtl": False,
            "domains": ["hotel"]})
        with pytest.raises(ModelError) as info:
            load_rankers(path)
        assert str(info.value) == (f"checkpoint {path}: key 'kind' is 'PointwiseModel', "
                                   f"expected 'rankers'")


class TestTrackerFactory:
    def test_exact_and_fuzzy_need_no_model(self):
        dialogues, kb, _ = build_mini_corpus(MiniCorpusConfig(n_dialogues=10, seed=0))
        for method in ("exact", "fuzzy"):
            cfg = PipelineConfig({"track.method": method})
            tracker = load_tracker(cfg)
            assert isinstance(tracker(dialogues[0], kb), list)

    @pytest.mark.parametrize("method,name", [("exact", "exact_match_entities"),
                                             ("fuzzy", "fuzzy_match_entities")])
    def test_matcher_is_looked_up_when_called(self, monkeypatch, method, name):
        # the benchmark's tracer wraps the matchers as pipeline module names
        # after the tracker is built
        tracker = load_tracker(PipelineConfig({"track.method": method}))
        monkeypatch.setattr(pipeline, name, lambda *args: ["patched"])
        assert tracker(None, None) == ["patched"]

    def test_learned_without_model_is_dependency_error(self, tmp_path):
        cfg = PipelineConfig({"track.method": "learned", "paths.output": str(tmp_path)})
        with pytest.raises(DependencyError, match="train-select"):
            load_tracker(cfg)

    def test_learned_scores_with_the_given_scorer(self, tmp_path, monkeypatch):
        cfg = PipelineConfig({"track.method": "learned", "paths.output": str(tmp_path),
                              "track.delta_e": 0.25})
        scorer = object()
        monkeypatch.setattr(pipeline, "track_entities", lambda *args: list(args))
        assert load_tracker(cfg, scorer)("dialogue", "kb") == [
            scorer, "dialogue", "kb", 0.25]


class TestEvaluatePredictions:
    def test_detection_counts(self):
        preds = [{"target": True, "knowledge": [
            {"domain": "h", "entity_id": "1", "doc_id": "0"}], "response": "a b"},
            {"target": False}]
        refs = [{"target": True, "knowledge": [
            {"domain": "h", "entity_id": "1", "doc_id": "0"}], "response": "a b"},
            {"target": False}]
        report = evaluate_predictions(preds, refs)
        assert report.scores["detection-f1"] == 1.0
        assert report.scores["selection-r@1"] == 1.0
        assert report.scores["generation-bleu-4"] == 1.0
