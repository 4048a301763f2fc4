import json
import os
import re

import pytest

from kgdial import pipeline
from kgdial.consensus import ConsensusError, ConsensusWeights
from kgdial.corpus import linearize_history, save_corpus, save_knowledge_base
from kgdial.pipeline import (
    CONFIG_DEFAULTS, ConfigError, DecodeComponents, DependencyError,
    PipelineConfig, end_to_end_decode, evaluate_predictions, load_config,
    make_tracker, require, stage_augment, stage_decode, stage_train_detect,
    stage_train_generate, stage_train_select, validate_labels_schema,
    write_manifest,
)
from kgdial.generate import GenerateError, ToyGenerator
from kgdial.models import ModelError, ToyPairScorer
from kgdial.pipeline import (_load_rank_model, _save_generator, _save_rank_model,
                             load_generator)
from kgdial.rank import (ListwiseConfig, ListwiseModel, PointwiseConfig,
                         PointwiseModel, RankedKnowledgeList, ensemble_rank)
from kgdial.synth import MiniCorpusConfig, build_mini_corpus, save_lexicon
from test_models import CHECKPOINT_DEFECTS, rewrite_checkpoint


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

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError):
            load_config("", overrides=["rank.use_mtl=maybe"])


class TestManifest:
    def test_identical_inputs_identical_manifests(self, tmp_path):
        out = tmp_path / "out"
        cfg = PipelineConfig({"paths.output": str(out)})
        artifact = out / "artifact.json"
        os.makedirs(out, exist_ok=True)
        artifact.write_text('{"x": 1}')
        m1 = write_manifest(cfg, "demo", [], [str(artifact)])
        first = open(m1).read()
        m2 = write_manifest(cfg, "demo", [], [str(artifact)])
        assert open(m2).read() == first

    def test_require_names_missing_stage(self):
        with pytest.raises(DependencyError, match="train-detect"):
            require("/nope/never.npz", "train-detect")


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

    def tracker(dialogue, kb_):
        refs = truth[dialogue.id].knowledge_refs
        return [entities_by_key[(dom, eid)] for dom, eid, _ in refs]

    def ranker(dialogue, candidates, tracked):
        refs = set(truth[dialogue.id].knowledge_refs)
        scored = tuple(
            (snip, 1.0 if snip.key in refs else 0.0) for snip in candidates)
        ordered = tuple(sorted(scored, key=lambda t: -t[1])[:5])
        return RankedKnowledgeList(dialogue.id, ordered)

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
                assert rec == {"target": False}

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
    first_lists, reranked_lists = {}, {}

    def counting_ranker(dialogue, candidates, tracked):
        assert dialogue.id not in first_lists
        first_lists[dialogue.id] = oracle_ranker(dialogue, candidates, tracked)
        return first_lists[dialogue.id]

    def reversing_reranker(dialogue, first, tracked):
        assert first is first_lists[dialogue.id]
        n = len(first.items)
        reordered = [snip for snip, _ in reversed(first.items)]
        reranked_lists[dialogue.id] = RankedKnowledgeList(first.turn_id, tuple(
            (snip, (n - i) / n) for i, snip in enumerate(reordered)))
        return reranked_lists[dialogue.id]

    components.ranker = counting_ranker
    components.reranker = reversing_reranker
    records = end_to_end_decode(dialogues, kb, components)
    seeking = [d for d in dialogues if truth[d.id].is_knowledge_seeking]
    assert set(first_lists) == set(reranked_lists) == {d.id for d in seeking}
    for rec, d in zip(records, dialogues):
        if d.id not in first_lists:
            continue
        merged = ensemble_rank([first_lists[d.id], reranked_lists[d.id]])
        assert rec["knowledge"] == [
            {"domain": s.domain, "entity_id": s.entity_id, "doc_id": s.doc_id}
            for s, _ in merged.items]


def test_default_learned_tracking_runs_end_to_end(tmp_path):
    assert CONFIG_DEFAULTS["track.method"] == "learned"
    dialogues, kb, lexicon = build_mini_corpus(
        MiniCorpusConfig(n_dialogues=30, seed=4))
    data = tmp_path / "data"
    data.mkdir()
    save_corpus(dialogues, str(data / "logs.json"), str(data / "labels.json"))
    save_knowledge_base(kb, str(data / "knowledge.json"))
    save_lexicon(lexicon, str(data / "lexicon.tsv"))
    config = PipelineConfig({
        "paths.logs": str(data / "logs.json"),
        "paths.labels": str(data / "labels.json"),
        "paths.knowledge": str(data / "knowledge.json"),
        "paths.lexicon": str(data / "lexicon.tsv"),
        "paths.output": str(tmp_path / "out"),
        "detect.epochs": 1, "track.epochs": 1, "rank.epochs": 1,
        "rank.listwise_epochs": 1, "gen.epochs": 1})
    for stage in (stage_augment, stage_train_detect, stage_train_select,
                  stage_train_generate):
        stage(config)
    assert (tmp_path / "out" / "tracker.npz").exists()
    predictions_path = stage_decode(config)[0]
    with open(predictions_path, encoding="utf-8") as fh:
        records = json.load(fh)
    assert len(records) == len(dialogues)
    validate_labels_schema(records)
    for stage in ("train-generate", "decode"):
        with open(tmp_path / "out" / f"{stage}.manifest.json", encoding="utf-8") as fh:
            assert "tracker.npz" in json.load(fh)["inputs"], stage


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small fuzzy-tracking pipeline trained without augment, so train and
    decode read the same dialogues; the detector budget truncates histories
    and tags do not count against it."""
    root = tmp_path_factory.mktemp("trained")
    dialogues, kb, _ = build_mini_corpus(MiniCorpusConfig(n_dialogues=30, seed=4))
    save_corpus(dialogues, str(root / "logs.json"), str(root / "labels.json"))
    save_knowledge_base(kb, str(root / "knowledge.json"))
    config = PipelineConfig({
        "paths.logs": str(root / "logs.json"),
        "paths.labels": str(root / "labels.json"),
        "paths.knowledge": str(root / "knowledge.json"),
        "paths.output": str(root / "out"),
        "corpus.count_tags": False, "detect.max_tokens": 8,
        "track.method": "fuzzy", "track.fuzzy_threshold": 0.5,
        "model.d": 8, "model.max_len": 64,
        "detect.epochs": 4, "detect.learning_rate": 0.02,
        "rank.epochs": 2, "rank.learning_rate": 0.01,
        "rank.kfolds": 2, "rank.listwise_epochs": 1, "gen.epochs": 1,
        "gen.kfolds": 2})
    for stage in (stage_train_detect, stage_train_select, stage_train_generate):
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
    # counting tags, the default, would cut the histories shorter
    assert scored != [linearize_history(d, 8) for d in dialogues]


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


class TestCheckpointValidation:
    VOCAB = {"a": 0, "b": 1, "c": 2}

    def loaders(self, kb):
        """(name, save a good checkpoint to a path, load a path) for every
        model that decode loads from train-* output."""
        def rank_loader(kind):
            return lambda path: _load_rank_model(path, kind, kb)

        domains = sorted({s.domain for s in kb.snippets})
        pointwise = PointwiseModel(self.VOCAB, domains,
                                   PointwiseConfig(use_mtl=True, d=4, max_len=8))
        listwise = ListwiseModel(self.VOCAB, ListwiseConfig(d=4, max_len=8))
        generator = ToyGenerator(self.VOCAB, d=4, max_target_tokens=5)
        return [
            ("pointwise", lambda path: _save_rank_model(pointwise, path),
             rank_loader("PointwiseModel")),
            ("listwise", lambda path: _save_rank_model(listwise, path),
             rank_loader("ListwiseModel")),
            ("generator", lambda path: _save_generator(generator, path),
             load_generator),
        ]

    @pytest.mark.parametrize("edit,pattern", CHECKPOINT_DEFECTS)
    def test_decode_loads_reject_defect(self, mini, tmp_path, edit, pattern):
        for name, save, load in self.loaders(mini[1]):
            good = str(tmp_path / f"{name}.npz")
            save(good)
            load(good)
            bad = rewrite_checkpoint(good, str(tmp_path / f"{name}.bad.npz"), edit)
            with pytest.raises(ModelError, match=pattern) as info:
                load(bad)
            assert bad in str(info.value), name

    @pytest.mark.parametrize("index,field", [(0, "variant"), (0, "use_mtl"),
                                             (0, "domains"), (1, "variant")])
    def test_rank_checkpoint_without_its_training_settings_is_rejected(
            self, mini, tmp_path, index, field):
        _, save, load = self.loaders(mini[1])[index]
        good = str(tmp_path / "good.npz")
        save(good)
        bad = rewrite_checkpoint(good, str(tmp_path / "bad.npz"),
                                 lambda tensors, meta: meta.pop(field))
        with pytest.raises(ModelError, match=f"missing field '{field}'") as info:
            load(bad)
        assert bad in str(info.value)

    def test_rank_checkpoint_of_the_other_kind_is_rejected(self, mini, tmp_path):
        _, save, _ = self.loaders(mini[1])[1]
        path = str(tmp_path / "listwise.npz")
        save(path)
        with pytest.raises(ModelError, match="expected 'PointwiseModel'"):
            _load_rank_model(path, "PointwiseModel", mini[1])


class TestTrackerFactory:
    def test_exact_and_fuzzy_need_no_model(self):
        dialogues, kb, _ = build_mini_corpus(MiniCorpusConfig(n_dialogues=10, seed=0))
        for method in ("exact", "fuzzy"):
            cfg = PipelineConfig({"track.method": method})
            tracker = make_tracker(cfg)
            assert isinstance(tracker(dialogues[0], kb), list)

    def test_learned_without_model_is_dependency_error(self):
        dialogues, kb, _ = build_mini_corpus(MiniCorpusConfig(n_dialogues=10, seed=0))
        cfg = PipelineConfig({"track.method": "learned"})
        tracker = make_tracker(cfg)
        with pytest.raises(DependencyError):
            tracker(dialogues[0], kb)


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
