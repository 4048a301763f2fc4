import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial import rank
from kgdial.corpus import (
    DOMAIN_LEVEL, TOP_K, Dialogue, KnowledgeBase, KnowledgeSnippet, Speaker,
    Turn, TurnLabel, linearize_history, linearize_knowledge, tokenize,
)
from kgdial.entity_track import collect_candidates, exact_match_entities
from kgdial.augment import AugmentConfig, augment_entity_name
from kgdial import models
from kgdial.models import TrainConfig, finite_difference_check, sigmoid, softmax
from kgdial.rank import (
    ListwiseModel, PointwiseConfig, PointwiseInstance,
    RankedKnowledgeList, RankError, Variant,
    build_listwise_training_data,
    build_pointwise_instances, ensemble_rank, extract_sparse_features,
    listwise_rerank, mtl_forward, pointwise_rank,
    sample_entity_candidates, sample_negatives,
    train_listwise, train_pointwise,
)
from kgdial.pipeline import evaluate_predictions
from kgdial.rank import _mtl_backward, _mtl_forward_cache, _mtl_init
from kgdial.synth import MiniCorpusConfig, build_mini_corpus
from test_models import (assert_close_loss, mask_pair_readout_backward,
                         reference_backward, reference_bce, reference_forward,
                         reference_pair_readout, reference_softmax, reference_token_ids,
                         summed_losses)


def snip(domain, entity_id, name, doc_id, q=None, a=None):
    return KnowledgeSnippet(domain=domain, entity_id=entity_id, entity_name=name,
                            question=q or f"is {name} open on doc {doc_id}?",
                            answer=a or f"{name} answer {doc_id}",
                            doc_id=doc_id)


def make_kb():
    snippets = []
    names = {
        ("hotel", "1"): "Hamilton Lodge",
        ("hotel", "2"): "SW Hotel",
        ("hotel", "3"): "Union Square Inn",
        ("restaurant", "1"): "Palm Court",
        ("restaurant", "2"): "River Grill",
        ("taxi", "1"): "City Cab",
    }
    for (domain, eid), name in names.items():
        for doc in ("0", "1"):
            snippets.append(snip(domain, eid, name, doc))
    snippets.append(snip("hotel", DOMAIN_LEVEL, "hotel", "0",
                         q="do hotels allow pets?", a="policies vary"))
    return KnowledgeBase(snippets)


def ks_dialogue(id, entity_name, kb, text=None, final="does it have free wifi?"):
    entity = next(e for e in kb.entities if e.name == entity_name)
    gt = kb.snippets_for(entity.domain, entity.entity_id)[0]
    label = TurnLabel(is_knowledge_seeking=True, knowledge_refs=(gt.key,),
                      response=f"yes, {entity_name} does")
    turns = (
        Turn(Speaker.USER, text or f"i want to book {entity_name} downtown"),
        Turn(Speaker.SYSTEM, "sure, i can help with that"),
        Turn(Speaker.USER, final),
    )
    return Dialogue(id=id, turns=turns, label=label)


def make_corpus(kb, n=10):
    names = [e.name for e in kb.entities if e.entity_id != DOMAIN_LEVEL]
    return [ks_dialogue(f"d{i}", names[i % len(names)], kb) for i in range(n)]


class TestMTLForward:
    def fixture_params(self):
        eye = np.eye(2)
        return {"wq": eye.copy(), "wk": eye.copy(), "wv": eye.copy(),
                "v": np.ones(2), "dom": np.zeros((2, 1)), "bdom": np.zeros(1)}

    def test_hand_computed_fixture(self):
        # f=[1,0], H rows [1,0],[0,1],[1,1], identity projections, d=2:
        # scores = [1,0,1]/sqrt(2); the rest follows by scalar arithmetic
        f = np.array([1.0, 0.0])
        H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        spans = [(0, 1), (1, 3)]
        a, p = mtl_forward(f, H, spans, self.fixture_params())

        x = math.exp(1 / math.sqrt(2))
        denom = 2 * x + 1
        a_expected = [x / denom, 1 / denom, x / denom]
        assert a == pytest.approx(a_expected, abs=1e-6)

        # g1=[a1,0], g2=[0,a2], g3=[a3,a3]; s1=g1, s2=g2+g3; logits=s_k.[1,1]
        l1 = a_expected[0]
        l2 = a_expected[1] + 2 * a_expected[2]
        e1, e2 = math.exp(l1), math.exp(l2)
        assert p == pytest.approx([e1 / (e1 + e2), e2 / (e1 + e2)], abs=1e-6)

    def test_identical_rows_give_uniform_attention(self):
        f = np.array([0.3, -0.2])
        H = np.tile(np.array([[0.5, 1.0]]), (4, 1))
        a, _ = mtl_forward(f, H, [(0, 2), (2, 4)], self.fixture_params())
        assert a == pytest.approx([0.25] * 4)

    def test_single_entity_spanning_all_tokens(self):
        f = np.array([1.0, 2.0])
        H = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        a, p = mtl_forward(f, H, [(0, 3)], self.fixture_params())
        assert p == pytest.approx([1.0])

    def test_distributions_normalize(self):
        rng = np.random.default_rng(0)
        params = _mtl_init(d=6, n_domains=3, seed=1)
        for _ in range(20):
            T = int(rng.integers(2, 9))
            f = rng.normal(size=6)
            H = rng.normal(size=(T, 6))
            cut = int(rng.integers(1, T))
            a, p = mtl_forward(f, H, [(0, cut), (cut, T)], params)
            assert abs(a.sum() - 1.0) < 1e-6
            assert abs(p.sum() - 1.0) < 1e-6

    def test_aggregation_conservation(self):
        from kgdial.rank import _mtl_forward_cache

        rng = np.random.default_rng(3)
        params = _mtl_init(d=5, n_domains=2, seed=2)
        f = rng.normal(size=5)
        H = rng.normal(size=(7, 5))
        spans = [(0, 2), (2, 5), (5, 7)]
        cache = _mtl_forward_cache(f, H, spans, params)
        lhs = cache["S"].sum(axis=0)
        rhs = cache["G"].sum(axis=0)  # spans cover all tokens here
        # conservation is an identity; float summation order costs ~1 ulp
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_span_out_of_range(self):
        f = np.zeros(2)
        H = np.zeros((3, 2))
        with pytest.raises(RankError):
            mtl_forward(f, H, [(0, 4)], self.fixture_params())


# columns of an indicator row
IS_DOMAIN_LEVEL, IS_LAST_ENTITY, UNIGRAM, BIGRAM = range(rank.N_SPARSE)


class TestWideFeatures:
    def test_domain_level_indicator(self):
        kb = make_kb()
        d = ks_dialogue("x", "Hamilton Lodge", kb)
        domain_snip = kb.snippets_for("hotel", DOMAIN_LEVEL)[0]
        feats = extract_sparse_features(d, domain_snip, kb, list(kb.entities))
        assert feats[IS_DOMAIN_LEVEL] == 1

    def test_last_entity_rightmost_scan(self):
        kb = make_kb()
        turns = (Turn(Speaker.USER, "compare Hamilton Lodge with SW Hotel"),
                 Turn(Speaker.SYSTEM, "both are nice"),
                 Turn(Speaker.USER, "ok"))
        d = Dialogue(id="x", turns=turns)
        tracked = exact_match_entities(d, kb)
        lodge = kb.snippets_for("hotel", "1")[0]
        sw = kb.snippets_for("hotel", "2")[0]
        assert extract_sparse_features(d, lodge, kb, tracked)[IS_LAST_ENTITY] == 0
        assert extract_sparse_features(d, sw, kb, tracked)[IS_LAST_ENTITY] == 1

    def test_scattered_name_ngram_indicators(self):
        kb = KnowledgeBase([snip("hotel", "9", "Hilton San Francisco Union Square", "0")])
        turns = (Turn(Speaker.USER, "looking near union square please"),)
        d = Dialogue(id="x", turns=turns)
        target = kb.snippets[0]
        feats = extract_sparse_features(d, target, kb, list(kb.entities), Variant.WD2)
        assert feats[UNIGRAM] == 1
        assert feats[BIGRAM] == 1
        assert feats[IS_LAST_ENTITY] == 0  # full name never matches

    def test_wd_variant_zeroes_ngram_features(self):
        kb = make_kb()
        d = ks_dialogue("x", "Hamilton Lodge", kb)
        target = kb.snippets_for("hotel", "1")[0]
        feats = extract_sparse_features(d, target, kb, list(kb.entities), Variant.WD)
        assert feats[UNIGRAM] == 0
        assert feats[BIGRAM] == 0


class TestNegativeSampling:
    def test_pool_c_draws_an_other_mentioned_entity(self):
        kb = make_kb()
        d = ks_dialogue("x", "Hamilton Lodge", kb,
                        text="is Hamilton Lodge better than SW Hotel?")
        gt = kb.snippets_for("hotel", "1")[0]
        # mentioned non-gt entities: SW Hotel and the nested "hotel"
        # pseudo-entity; their three snippets outlast the draws of the kb
        # and mentioned pools, so pool c always adds one of them
        allowed = {("hotel", "2"), ("hotel", DOMAIN_LEVEL)}
        rng = np.random.default_rng(0)
        for _ in range(20):
            negs = sample_negatives(gt, kb, exact_match_entities(d, kb), rng, count=3)
            assert {n.entity_key for n in negs} & allowed

    def test_never_returns_ground_truth(self):
        kb = make_kb()
        d = ks_dialogue("x", "Hamilton Lodge", kb)
        gt = kb.snippets_for("hotel", "1")[0]
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert gt.key not in {n.key for n in sample_negatives(
                gt, kb, exact_match_entities(d, kb), rng)}

    def test_degenerate_redistribution_to_kb_pool(self):
        kb = KnowledgeBase([snip("hotel", "1", "Only Hotel", str(i)) for i in range(6)])
        d = Dialogue(id="x", turns=(Turn(Speaker.USER, "completely unrelated"),))
        gt = kb.snippets[0]
        rng = np.random.default_rng(2)
        negs = sample_negatives(gt, kb, exact_match_entities(d, kb), rng, count=4)
        assert len(negs) == 4
        assert all(n.key != gt.key for n in negs)

    def test_insufficient_snippets_error(self):
        kb = KnowledgeBase([snip("hotel", "1", "Tiny", "0"),
                            snip("hotel", "1", "Tiny", "1")])
        d = Dialogue(id="x", turns=(Turn(Speaker.USER, "hello"),))
        with pytest.raises(RankError, match="distinct"):
            sample_negatives(kb.snippets[0], kb, exact_match_entities(d, kb),
                             np.random.default_rng(0), count=4)

    def test_deterministic(self):
        kb = make_kb()
        d = ks_dialogue("x", "Palm Court", kb)
        gt = kb.snippets_for("restaurant", "1")[0]
        a = sample_negatives(gt, kb, exact_match_entities(d, kb), np.random.default_rng(7))
        b = sample_negatives(gt, kb, exact_match_entities(d, kb), np.random.default_rng(7))
        assert [s.key for s in a] == [s.key for s in b]


class TestEntityCandidates:
    def test_length_and_single_truth(self):
        kb = make_kb()
        d = ks_dialogue("x", "Hamilton Lodge", kb)
        gt = next(e for e in kb.entities if e.name == "Hamilton Lodge")
        rng = np.random.default_rng(0)
        for _ in range(30):
            names, idx = sample_entity_candidates(kb, exact_match_entities(d, kb), gt, rng)
            assert len(names) == 4
            assert names.count("Hamilton Lodge") == 1
            assert names[idx] == "Hamilton Lodge"

    def test_negatives_prefer_mentioned_and_same_domain(self):
        kb = make_kb()
        d = ks_dialogue("x", "Hamilton Lodge", kb,
                        text="Hamilton Lodge or SW Hotel or Palm Court?")
        gt = next(e for e in kb.entities if e.name == "Hamilton Lodge")
        mentioned_or_domain = {"SW Hotel", "Palm Court", "Union Square Inn", "hotel"}
        rng = np.random.default_rng(1)
        for _ in range(20):
            names, idx = sample_entity_candidates(kb, exact_match_entities(d, kb), gt, rng)
            negs = [n for j, n in enumerate(names) if j != idx]
            assert set(negs) <= mentioned_or_domain

    def test_true_position_uniform(self):
        kb = make_kb()
        d = ks_dialogue("x", "City Cab", kb)
        gt = next(e for e in kb.entities if e.name == "City Cab")
        rng = np.random.default_rng(5)
        counts = np.zeros(4)
        for _ in range(1000):
            _, idx = sample_entity_candidates(kb, exact_match_entities(d, kb), gt, rng)
            counts[idx] += 1
        chi2 = float(((counts - 250.0) ** 2 / 250.0).sum())
        assert chi2 < 11.345  # chi-square df=3 at p=0.01

    def test_too_few_entities_error(self):
        kb = KnowledgeBase([snip("hotel", "1", "A", "0"), snip("hotel", "2", "B", "0")])
        d = Dialogue(id="x", turns=(Turn(Speaker.USER, "hi"),))
        gt = kb.entities[0]
        with pytest.raises(RankError):
            sample_entity_candidates(kb, exact_match_entities(d, kb), gt,
                                     np.random.default_rng(0))


def exact_tracker(d, kb):
    return collect_candidates(exact_match_entities(d, kb), kb)


def exact_context(d, kb):
    return rank.dialogue_features(d, kb, exact_match_entities(d, kb))


TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}


def small_config(**kw):
    """A small point-wise config; keywords that name `TrainConfig` fields
    go to its ``train``."""
    train = dict(epochs=1, learning_rate=1e-3, batch_size=8, seed=0, d=10, max_len=96)
    train.update((key, kw.pop(key)) for key in list(kw) if key in TRAIN_FIELDS)
    return PointwiseConfig(train=TrainConfig(**train), **kw)


def untrained(cfg):
    """``cfg`` with no training epochs."""
    return replace(cfg, train=replace(cfg.train, epochs=0))


def pointwise_instance(dialogue, candidate, label, kb):
    """A point-wise instance of ``dialogue`` with the inputs
    `build_pointwise_instances` gives it."""
    turns = tuple(rank.turn_inputs(turn, kb) for turn in dialogue.turns)
    return PointwiseInstance(dialogue, candidate, label, 0, turns,
                             rank.dialogue_features(dialogue, kb, kb.entities))


def untrained_listwise(instances, dialogues, kb, epochs=1, variant=Variant.WD2):
    """The list-wise model trained from an untrained point-wise model on
    the vocabulary of ``dialogues``: training starts from the weights a
    point-wise model of that config draws."""
    pointwise = rank.PointwiseModel(
        rank._ranking_vocab(dialogues, kb), [],
        PointwiseConfig(variant=variant, train=TrainConfig(d=10)))
    return train_listwise(instances, pointwise, TrainConfig(epochs=epochs))


class TestPointwiseTraining:
    def test_mtl_off_equals_plain_bce(self):
        # at identical shared parameters, zero auxiliary weights reduce the
        # MTL loss exactly to the plain Wide & Deep BCE
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        rng = np.random.default_rng(0)
        plain_cfg = small_config(use_mtl=False, epochs=0)
        mtl_cfg = small_config(use_mtl=True, epochs=0,
                               lambda_domain=0.0, lambda_entity=0.0)
        plain = train_pointwise(corpus, kb, plain_cfg)
        mtl = train_pointwise(corpus, kb, mtl_cfg)
        instances = build_pointwise_instances(corpus, kb, plain_cfg, rng)
        names = [e.name for e in kb.entities][:4]
        for inst in instances[:5]:
            mtl_inst = replace(inst, entity_names=names, true_entity_index=0)
            l1, _ = plain.loss_and_grads([plain.compile(inst)])
            l2, _ = mtl.loss_and_grads([mtl.compile(mtl_inst)])
            assert l1 == pytest.approx(l2, rel=1e-12)

    def test_training_rows_track_exactly_ena_rewrites_rematch(self, monkeypatch):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        cfg = small_config(use_mtl=False, epochs=0)
        model = train_pointwise(corpus, kb, cfg)
        instances = build_pointwise_instances(corpus, kb, cfg,
                                              np.random.default_rng(0))
        # the positive row of d0, whose gt entity is the one mentioned
        inst = next(i for i in instances if i.label == 1)
        exact = exact_context(inst.dialogue, kb)
        assert exact.last_entity_key == inst.candidate.entity_key
        for i in instances:
            assert model.compile(i).features.tobytes() == exact_context(
                i.dialogue, kb).indicators([i.candidate]).tobytes()

        def with_ena(probability):
            """The model's weights under an ENA config."""
            twin = rank.PointwiseModel(
                model.encoder.vocab, model.domains,
                replace(cfg, ena=AugmentConfig(ena_probability=probability)),
                model.all_params())
            twin.bind_kb(kb)
            return twin

        # compiling and training never track a whole dialogue
        calls = []
        real = rank.exact_match_entities
        monkeypatch.setattr(rank, "exact_match_entities", lambda dialogue, kb_: (
            calls.append(dialogue) or real(dialogue, kb_)))
        for twin in (model, with_ena(0.0)):
            twin.loss_and_grads([twin.compile(inst)])
        assert calls == []
        # ENA that fires rewrites the dialogue, which is then matched afresh:
        # compiling matches nothing (the instance carries its turns' inputs),
        # the rewrite matches only the one or two turns it touched
        mentioned = []
        real_mentions = rank.exact_mentions
        monkeypatch.setattr(rank, "exact_mentions", lambda tokens, index: (
            mentioned.append(tokens) or real_mentions(tokens, index)))
        model = with_ena(1.0)
        row = model.compile(inst)
        assert mentioned == []
        model.loss_and_grads([row])
        assert calls == [] and 1 <= len(mentioned) <= 2
        assert all(tokens != tokenize(turn.text)
                   for tokens in mentioned for turn in inst.dialogue.turns)

    def test_ena_rewrites_need_a_bound_knowledge_base(self):
        kb = make_kb()
        corpus = make_corpus(kb, 2)
        cfg = small_config(ena=AugmentConfig(ena_probability=1.0))
        model = rank.PointwiseModel(rank._ranking_vocab(corpus, kb), ["hotel"], cfg)
        instances = build_pointwise_instances(corpus, kb, cfg, np.random.default_rng(0))
        rows = [model.compile(inst) for inst in instances]  # compiling needs none
        with pytest.raises(RankError, match="bind a knowledge base") as info:
            model.loss_and_grads(rows)
        assert "\n" not in str(info.value)

    def test_instances_of_a_dialogue_share_its_inputs(self):
        kb = make_kb()
        corpus = make_corpus(kb, 4) + [ks_dialogue(
            "c", "SW Hotel", kb, text="compare Hamilton Lodge with SW Hotel")]
        instances = build_pointwise_instances(corpus, kb, small_config(use_mtl=True),
                                              np.random.default_rng(0))
        for d in corpus:
            own = [inst for inst in instances if inst.dialogue is d]
            assert len(own) == 1 + small_config().negatives
            assert all(inst.context is own[0].context and inst.turns is own[0].turns
                       for inst in own)
            assert own[0].context == rank.dialogue_features(d, kb, kb.entities)
            assert own[0].turns == tuple(rank.turn_inputs(turn, kb) for turn in d.turns)

    def test_instances_match_entities_once_per_dialogue(self, monkeypatch):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        real = rank.exact_match_entities
        matched, sampled = [], []

        def counted(dialogue, kb_):
            matched.append(dialogue.id)
            return real(dialogue, kb_)

        def checked(sampler):
            def wrapper(*args, **kwargs):  # sampling for the last matched dialogue
                dialogue = next(d for d in corpus if d.id == matched[-1])
                mentioned = next(a for a in args if isinstance(a, list))
                assert mentioned == real(dialogue, kb)
                sampled.append(dialogue.id)
                return sampler(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rank, "exact_match_entities", counted)
        for name in ("sample_negatives", "sample_entity_candidates"):
            monkeypatch.setattr(rank, name, checked(getattr(rank, name)))
        instances = build_pointwise_instances(
            corpus, kb, small_config(use_mtl=True), np.random.default_rng(0))
        assert matched == [d.id for d in corpus]
        assert len(sampled) == len(corpus) + len(instances)

    def test_full_mtl_loss_gradient_check(self):
        kb = make_kb()
        corpus = make_corpus(kb, 5)
        cfg = small_config(use_mtl=True, epochs=1)
        model = train_pointwise(corpus, kb, cfg)
        instances = build_pointwise_instances(corpus, kb, cfg,
                                              np.random.default_rng(0))
        err = finite_difference_check(model, instances[:6], epsilon=1e-5)
        assert err < 1e-4

    def test_deterministic_training(self):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        cfg = small_config(use_mtl=True, epochs=2)
        a = train_pointwise(corpus, kb, cfg)
        b = train_pointwise(corpus, kb, cfg)
        for key, val in a.all_params().items():
            assert np.array_equal(val, b.all_params()[key])

    def test_unlabeled_corpus_rejected(self):
        kb = make_kb()
        bare = [Dialogue(id="x", turns=(Turn(Speaker.USER, "hi"),))]
        with pytest.raises(RankError):
            train_pointwise(bare, kb, small_config())


@pytest.fixture(scope="module")
def model():
    kb = make_kb()
    return kb, train_pointwise(make_corpus(kb, 6), kb, small_config())


class TestPointwiseRank:

    def test_single_candidate(self, model):
        kb, m = model
        d = ks_dialogue("x", "Hamilton Lodge", kb)
        only = kb.snippets_for("hotel", "1")[0]
        context = exact_context(d, kb)
        ranked = pointwise_rank(m, [only], context, kb)
        assert len(ranked.items) == 1
        assert ranked.items[0][0].key == only.key
        assert ranked.items[0][1] == pytest.approx(
            sigmoid(m.logits([only], context)[0]))

    def test_listwise_rerank_alpha_invariant_when_features_zero(self, model):
        # rank.alpha scales only the list-wise reranker's wide terms
        kb, m = model
        listwise = ListwiseModel(m.encoder.vocab, m.config, params=m.all_params())
        d = ks_dialogue("x", "City Cab", kb, text="no entity words here at all",
                        final="what should i do?")
        cands = list(kb.snippets_for("restaurant", "1"))
        context = exact_context(d, kb)
        assert not context.indicators(cands).any()
        ranked = pointwise_rank(m, cands, context, kb)
        assert (listwise_rerank(listwise, ranked, context, 1.0)
                == listwise_rerank(listwise, ranked, context, 100.0))

    def test_sorted_non_increasing(self, model):
        kb, m = model
        d = ks_dialogue("x", "SW Hotel", kb)
        ranked = pointwise_rank(m, list(kb.snippets), exact_context(d, kb), kb)
        probs = [p for _, p in ranked.items]
        assert probs == sorted(probs, reverse=True)
        assert len(ranked.items) == 5

    def test_empty_candidates_fall_back_to_kb(self, model):
        kb, m = model
        d = ks_dialogue("x", "SW Hotel", kb)
        ranked = pointwise_rank(m, [], exact_context(d, kb), kb)
        assert len(ranked.items) == 5


@pytest.fixture(scope="module")
def variant_models():
    kb = make_kb()
    corpus = make_corpus(kb, 6)
    return kb, {variant: train_pointwise(corpus, kb, small_config(variant=variant))
                for variant in Variant}


def text_pairs(encoder, d, candidates):
    """The encoder inputs of the dialogue's history followed by each
    candidate, tokenized from their text."""
    history = tokenize(linearize_history(d))
    return [reference_token_ids(encoder, history + tokenize(linearize_knowledge(s)),
                                len(history)) for s in candidates]


def reference_logit(m, d, snippet, kb, tracked):
    """One candidate scored on its own, as the point-wise model defines it."""
    pair, = text_pairs(m.encoder, d, [snippet])
    cache = reference_forward(m.encoder, *pair)
    feats = extract_sparse_features(d, snippet, kb, tracked, m.config.variant)
    return float(m.head["w"] @ reference_pair_readout(cache) + m.head["b"][0]
                 + m.wide["u"] @ feats)


class TestBatchedPointwise:
    """Scoring a list once per dialogue gives the per-candidate results up
    to rounding, and the same ranking."""

    def dialogues(self, kb):
        compare = Dialogue(id="c", turns=(
            Turn(Speaker.USER, "compare Hamilton Lodge with SW Hotel"),
            Turn(Speaker.SYSTEM, "both are nice, the river grill is close"),
            Turn(Speaker.USER, "does the lodge allow pets?")))
        return [ks_dialogue("x", "Palm Court", kb), compare]

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("given", [False, True])
    def test_logits_equal_reference(self, variant_models, variant, given):
        kb, models = variant_models
        m = models[variant]
        assert np.any(m.wide["u"] != 0.0)
        for d in self.dialogues(kb):
            tracked = list(kb.entities) if given else exact_match_entities(d, kb)
            context = rank.dialogue_features(d, kb, tracked)
            cands = list(kb.snippets)
            expected = [reference_logit(m, d, s, kb, tracked) for s in cands]
            got = m.logits(cands, context)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
            assert [m.logits([s], context)[0] for s in cands] == got
            ranked = pointwise_rank(m, cands, context, kb)
            want = sorted(((s.key, sigmoid(z)) for s, z in zip(cands, expected)),
                          key=lambda t: (-t[1], t[0]))[:TOP_K]
            assert ranked.keys == [key for key, _ in want]
            np.testing.assert_allclose([p for _, p in ranked.items],
                                       [p for _, p in want], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_rerank_features_equal_per_snippet_features(self, monkeypatch, variant):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        instances, _ = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=2, seed=0, tracker=exact_tracker)
        model = untrained_listwise(instances, corpus, kb, variant=variant)
        seen = []
        real = rank.DialogueFeatures.indicators

        def recording(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(rank.DialogueFeatures, "indicators", recording)
        for d in self.dialogues(kb):
            tracked = exact_match_entities(d, kb)
            cands = collect_candidates(list(kb.entities), kb)[:5]
            ranked = RankedKnowledgeList(tuple((s, 0.5) for s in cands))
            expected = [extract_sparse_features(d, s, kb, tracked, variant) for s in cands]
            seen.clear()
            listwise_rerank(model, ranked, rank.dialogue_features(d, kb, tracked),
                            alpha=100.0)
            assert len(seen) == 1 and np.array_equal(seen[0], expected)


# -- the per-candidate inference loops before the features became one array,
# kept as oracles ---------------------------------------------------------------


def reference_indicators(context, snippet, variant):
    """DialogueFeatures.indicators of one snippet before the n-gram table:
    the entity name tokenized and scanned on every call."""
    unigram = bigram = 0
    if variant is Variant.WD2:
        name_tokens = tokenize(snippet.entity_name)
        unigram = int(any(tok in context.words for tok in name_tokens))
        bigram = int(any((name_tokens[i], name_tokens[i + 1]) in context.bigrams
                         for i in range(len(name_tokens) - 1)))
    return (int(snippet.is_domain_level),
            int(context.last_entity_key == snippet.entity_key), unigram, bigram)


def reference_logits(m, d, candidates, kb, tracked):
    """PointwiseModel.logits as one loop over the candidates."""
    context = rank.dialogue_features(d, kb, tracked)
    out = []
    for candidate, pair in zip(candidates, text_pairs(m.encoder, d, candidates)):
        cache = reference_forward(m.encoder, *pair)
        feats = np.array(reference_indicators(context, candidate, m.config.variant),
                         dtype=np.float64)
        out.append(float(m.head["w"] @ reference_pair_readout(cache) + m.head["b"][0]
                         + m.wide["u"] @ feats))
    return out


def reference_distribution(model, d, candidates, features, alpha):
    """ListwiseModel.distribution as one loop over the candidates."""
    logits = np.empty(len(candidates))
    pairs = text_pairs(model.encoder, d, candidates)
    for j, (pair, row) in enumerate(zip(pairs, features)):
        u = reference_pair_readout(reference_forward(model.encoder, *pair))
        vec = row * alpha
        logits[j] = model.head["w"] @ u + model.head["b"][0] + model.wide["u"] @ vec
    return softmax(logits)


@pytest.fixture(scope="module")
def synth_case():
    dialogues, kb, _ = build_mini_corpus(MiniCorpusConfig(n_dialogues=12, seed=4))
    return dialogues, kb


class TestFeatureArrays:
    """The sparse features of a candidate list, built as one array from the
    model's n-gram table, equal the per-snippet features bit for bit."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_rows_equal_snippet_features(self, synth_case, variant):
        dialogues, kb = synth_case
        vocab = rank._ranking_vocab(dialogues, kb)
        pointwise = rank.PointwiseModel(vocab, ["hotel"], small_config(variant=variant))
        listwise = ListwiseModel(vocab, pointwise.config)
        snippets = list(kb.snippets)
        fired = np.zeros(4)
        for d in dialogues:
            tracked = exact_match_entities(d, kb)
            context = rank.dialogue_features(d, kb, tracked)
            feats = [extract_sparse_features(d, s, kb, tracked, variant) for s in snippets]
            assert [tuple(f) for f in feats] == [
                reference_indicators(context, s, variant) for s in snippets]
            for _ in range(2):  # the second pass reads the filled tables
                for model in (pointwise, listwise):
                    rows = context.indicators(snippets, variant, model._name_grams)
                    assert rows.shape == (len(snippets), rank.N_SPARSE)
                    assert rows.tobytes() == np.array(feats).tobytes()
            fired += np.array(feats).sum(axis=0)
        assert np.all(fired[:2 if variant is Variant.WD else 4] > 0)

    def test_alpha_must_be_positive(self, synth_case):
        dialogues, kb = synth_case
        listwise = ListwiseModel(rank._ranking_vocab(dialogues, kb), small_config())
        context = rank.dialogue_features(dialogues[0], kb, [])
        for alpha in (0.0, -1.0):
            with pytest.raises(RankError, match="alpha must be positive"):
                listwise.distribution(list(kb.snippets[:1]), context, alpha)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_logits_equal_per_candidate_loop(self, variant_models, variant):
        kb, models = variant_models
        m = models[variant]
        for d in TestBatchedPointwise().dialogues(kb):
            tracked = exact_match_entities(d, kb)
            context = rank.dialogue_features(d, kb, tracked)
            cands = list(kb.snippets)
            expected = reference_logits(m, d, cands, kb, tracked)
            np.testing.assert_allclose(m.logits(cands, context), expected,
                                       rtol=1e-12, atol=0)
            assert m.logits([], context) == []
            # an empty list falls back to the whole knowledge base
            ranked = pointwise_rank(m, [], context, kb)
            np.testing.assert_allclose([p for _, p in ranked.items], sorted(
                (sigmoid(z) for z in expected), reverse=True)[:TOP_K],
                rtol=1e-12, atol=0)
            assert ranked == pointwise_rank(m, cands, context, kb)

    @pytest.mark.parametrize("alpha", [1.0, 100.0])
    def test_distribution_equals_per_candidate_loop(self, variant_models, alpha):
        kb, models = variant_models
        instances, _ = build_listwise_training_data(
            make_corpus(kb, 4), kb, small_config(epochs=1), k=2, seed=0,
            tracker=exact_tracker)
        model = train_listwise(instances, models[Variant.WD2], TrainConfig(epochs=1))
        assert np.any(model.wide["u"] != 0.0)
        for d in TestBatchedPointwise().dialogues(kb):
            context = rank.dialogue_features(d, kb, list(kb.entities))
            for start in range(0, len(kb.snippets), 5):
                cands = list(kb.snippets[start:start + 5])
                np.testing.assert_allclose(
                    model.distribution(cands, context, alpha),
                    reference_distribution(model, d, cands, context.indicators(cands),
                                           alpha),
                    rtol=1e-12, atol=0)


class TestListwise:
    @pytest.mark.parametrize("use_mtl", [False, True])
    def test_model_derives_from_the_pointwise_model(self, use_mtl):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        instances, _ = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=2, seed=0, tracker=exact_tracker)
        pointwise = train_pointwise(corpus, kb, small_config(
            use_mtl=use_mtl, variant=Variant.WD, pooling="first", max_len=64, seed=3))
        before = {key: value.copy() for key, value in pointwise.all_params().items()}
        shared = {key: value for key, value in before.items() if not key.startswith("mtl.")}
        start = train_listwise(instances, pointwise, TrainConfig(epochs=0))
        assert start.encoder.vocab == pointwise.encoder.vocab
        assert start.config == pointwise.config and start.config.variant is Variant.WD
        assert start.encoder.config() == pointwise.encoder.config()
        params = start.all_params()
        assert params.keys() == shared.keys()
        assert all(params[key].tobytes() == value.tobytes() for key, value in shared.items())
        trained = train_listwise(instances, pointwise, TrainConfig(epochs=1,
                                                                   learning_rate=1e-2))
        assert any(not np.array_equal(trained.all_params()[key], value)
                   for key, value in shared.items())
        # the point-wise model's own tensors are left as they were
        assert all(np.array_equal(pointwise.all_params()[key], value)
                   for key, value in before.items())

    def test_identical_candidates_uniform(self):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        instances, _ = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=2, seed=0, tracker=exact_tracker)
        model = untrained_listwise(instances, corpus, kb)
        d = corpus[0]
        same = [kb.snippets_for("hotel", "1")[0]] * 5
        dist = model.distribution(same, rank.dialogue_features(d, kb, []), alpha=1.0)
        assert dist == pytest.approx([0.2] * 5)

    def test_distribution_sums_to_one(self):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        instances, _ = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=2, seed=0, tracker=exact_tracker)
        model = untrained_listwise(instances, corpus, kb)
        rng = np.random.default_rng(0)
        for _ in range(10):
            take = int(rng.integers(1, 6))
            picks = rng.choice(len(kb.snippets), size=take, replace=False)
            cands = [kb.snippets[int(i)] for i in picks]
            d = corpus[int(rng.integers(len(corpus)))]
            dist = model.distribution(cands, rank.dialogue_features(d, kb, []),
                                      alpha=100.0)
            assert abs(dist.sum() - 1.0) < 1e-6
            assert len(dist) == take  # no padding logits

    def test_listwise_gradient_check(self):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        instances, _ = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=2, seed=0, tracker=exact_tracker)
        model = untrained_listwise(instances, corpus, kb)
        err = finite_difference_check(model, instances[:3], epsilon=1e-5)
        assert err < 1e-4

    def test_rerank_reorders_by_distribution(self):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        instances, stats = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=2, seed=0, tracker=exact_tracker)
        model = untrained_listwise(instances, corpus, kb)
        ranked = RankedKnowledgeList(tuple((s, 0.5) for s in instances[0].candidates))
        out = listwise_rerank(model, ranked, rank.dialogue_features(corpus[0], kb, []),
                              alpha=1.0)
        assert sorted(out.keys) == sorted(ranked.keys)
        probs = [p for _, p in out.items]
        assert probs == sorted(probs, reverse=True)


class TestListwiseData:
    def test_instances_have_one_truth_and_counts_add_up(self):
        kb = make_kb()
        corpus = make_corpus(kb, 6)
        instances, stats = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=3, seed=1, tracker=exact_tracker)
        model = ListwiseModel(rank._ranking_vocab(corpus, kb), PointwiseConfig(train=TrainConfig(d=10)))
        features = [rank.dialogue_features(d, kb, exact_match_entities(d, kb))
                    for d in corpus]
        for inst in instances:
            # the instance's dialogue: one whose exact-tracked features it holds
            owners = [d for d, f in zip(corpus, features) if f == inst.context]
            assert owners
            d = owners[0]
            refs = set(d.label.knowledge_refs)
            assert all(set(o.label.knowledge_refs) == refs for o in owners)
            hits = [j for j, c in enumerate(inst.candidates) if c.key in refs]
            assert inst.true_index in hits
            tracked = exact_match_entities(d, kb)
            assert np.array_equal(model.compile(inst).features, [
                extract_sparse_features(d, c, kb, tracked) for c in inst.candidates])
        assert stats["decoded"] == len(corpus)
        assert stats["emitted"] + stats["dropped"] == len(corpus)

    def test_fold_coverage_partitions_corpus(self):
        kb = make_kb()
        corpus = make_corpus(kb, 7)
        _, stats = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=3, seed=2, tracker=exact_tracker)
        assert stats["decoded"] == 7


class TestEnsemble:
    def ranked(self, pairs):
        kb = make_kb()
        by_name = {e.name: e for e in kb.entities}
        items = []
        for name, prob in pairs:
            e = by_name[name]
            items.append((kb.snippets_for(e.domain, e.entity_id)[0], prob))
        items.sort(key=lambda t: -t[1])
        return RankedKnowledgeList(tuple(items))

    def test_single_system_identity(self):
        lst = self.ranked([("Hamilton Lodge", 0.8), ("SW Hotel", 0.3)])
        out = ensemble_rank([lst])
        assert out.keys == lst.keys

    def test_duplicated_system_same_argsort(self):
        lst = self.ranked([("Hamilton Lodge", 0.8), ("SW Hotel", 0.3),
                                ("Palm Court", 0.1)])
        out = ensemble_rank([lst, lst, lst])
        assert out.keys == lst.keys

    def test_hand_summed_scores(self):
        a = self.ranked([("Hamilton Lodge", 0.6), ("SW Hotel", 0.5)])
        b = self.ranked([("SW Hotel", 0.9), ("Hamilton Lodge", 0.1)])
        out = ensemble_rank([a, b])
        assert out.keys[0][0:2] == ("hotel", "2")  # B: 1.4 over A: 0.7
        probs = dict(zip([k[:2] for k in out.keys], [p for _, p in out.items]))
        assert probs[("hotel", "2")] / probs[("hotel", "1")] == pytest.approx(1.4 / 0.7)

    def test_no_system_rejected(self):
        with pytest.raises(RankError, match="at least one system"):
            ensemble_rank([])


class TestRankingMetrics:
    """Selection MRR@5/R@1/R@5 as ``evaluate_predictions`` scores the label
    records of one knowledge-seeking turn."""

    @staticmethod
    def scores(ranked, truth):
        def knowledge(snippets):
            return [{"domain": s.domain, "entity_id": s.entity_id,
                     "doc_id": s.doc_id} for s in snippets]

        report = evaluate_predictions(
            [{"target": True, "knowledge": knowledge(ranked)}],
            [{"target": True, "knowledge": knowledge([truth])}])
        return {m: report.scores[f"selection-{m}"] for m in ("mrr@5", "r@1", "r@5")}

    def test_truth_at_rank_one(self):
        kb = make_kb()
        gt = kb.snippets_for("hotel", "1")[0]
        got = self.scores([gt], gt)
        assert got == {"mrr@5": 1.0, "r@1": 1.0, "r@5": 1.0}

    def test_truth_at_rank_three(self):
        kb = make_kb()
        gt = kb.snippets_for("hotel", "1")[0]
        others = [kb.snippets_for("hotel", "2")[0], kb.snippets_for("restaurant", "1")[0]]
        got = self.scores([others[0], others[1], gt], gt)
        assert got["mrr@5"] == pytest.approx(1 / 3)
        assert got["r@1"] == 0.0
        assert got["r@5"] == 1.0


# -- the per-call training paths before rows were compiled, kept as oracles ----


def reference_pointwise_loss(model, instance, kb):
    """PointwiseModel.loss_and_grads re-tokenizing and re-featurizing its
    instance on every call."""
    cfg = model.config
    dialogue = instance.dialogue
    if cfg.ena is not None:
        dialogue = augment_entity_name(
            dialogue, instance.candidate, bool(instance.label), cfg.ena,
            model._ena_rng)
    grads = {k: np.zeros_like(v) for k, v in model.all_params().items()}
    history = tokenize(linearize_history(dialogue))
    tokens1 = history + tokenize(linearize_knowledge(instance.candidate))
    cache1 = reference_forward(
        model.encoder, *reference_token_ids(model.encoder, tokens1, len(history)))
    f1 = cache1["f"]
    u1 = reference_pair_readout(cache1)
    feats = extract_sparse_features(dialogue, instance.candidate, kb,
                                    exact_match_entities(dialogue, kb), cfg.variant)
    z = float(model.head["w"] @ u1 + model.head["b"][0] + model.wide["u"] @ feats)
    rank_loss, dz = reference_bce(z, float(instance.label))
    loss = cfg.lambda_rank * rank_loss
    dz *= cfg.lambda_rank
    grads["head.w"] += dz * u1
    grads["head.b"] += np.array([dz])
    grads["wide.u"] += dz * feats
    dH1, df1 = mask_pair_readout_backward(cache1, dz * model.head["w"])
    enc_grads = {name: grads[f"enc.{name}"] for name in model.encoder.params}
    if model.mtl is not None:
        mtl = model.mtl
        dom_p = reference_softmax(f1 @ mtl["dom"] + mtl["bdom"])
        loss += -cfg.lambda_domain * math.log(max(dom_p[instance.domain_id], 1e-300))
        ddom = cfg.lambda_domain * dom_p.copy()
        ddom[instance.domain_id] -= cfg.lambda_domain
        grads["mtl.dom"] += np.outer(f1, ddom)
        grads["mtl.bdom"] += ddom
        df1 = df1 + mtl["dom"] @ ddom
        tokens2, spans = model._input2(instance.entity_names)
        cache2 = reference_forward(model.encoder,
                                   *reference_token_ids(model.encoder, tokens2))
        mtl_cache = _mtl_forward_cache(f1, cache2["H"], spans, mtl)
        p_ent = mtl_cache["p"]
        true_entity = instance.true_entity_index
        loss += -cfg.lambda_entity * math.log(max(p_ent[true_entity], 1e-300))
        dlogits = cfg.lambda_entity * p_ent.copy()
        dlogits[true_entity] -= cfg.lambda_entity
        df_mtl, dH2 = _mtl_backward(mtl_cache, mtl, dlogits, grads)
        df1 = df1 + df_mtl
        reference_backward(model.encoder, cache2, dH2, None, enc_grads)
    reference_backward(model.encoder, cache1, dH1, df1, enc_grads)
    return loss, grads


def reference_listwise_loss(model, instance, dialogue):
    """ListwiseModel.loss_and_grads re-tokenizing its list (of ``dialogue``)
    on every call and computing each readout twice."""
    grads = {k: np.zeros_like(v) for k, v in model.all_params().items()}
    history = tokenize(linearize_history(dialogue))
    caches, logits = [], np.empty(len(instance.candidates))
    features = instance.context.indicators(instance.candidates, model.config.variant)
    for j, (snip, row) in enumerate(zip(instance.candidates, features)):
        tokens = history + tokenize(linearize_knowledge(snip))
        cache = reference_forward(
            model.encoder, *reference_token_ids(model.encoder, tokens, len(history)))
        vec = row  # indicator value 1: alpha is for inference
        logits[j] = (model.head["w"] @ reference_pair_readout(cache)
                     + model.head["b"][0] + model.wide["u"] @ vec)
        caches.append((cache, vec))
    p = reference_softmax(logits)
    loss = -math.log(max(p[instance.true_index], 1e-300))
    dlogits = p.copy()
    dlogits[instance.true_index] -= 1.0
    enc_grads = {name: grads[f"enc.{name}"] for name in model.encoder.params}
    for j, (cache, vec) in enumerate(caches):
        dz = dlogits[j]
        grads["head.w"] += dz * reference_pair_readout(cache)
        grads["head.b"] += np.array([dz])
        grads["wide.u"] += dz * vec
        dH, df = mask_pair_readout_backward(cache, dz * model.head["w"])
        reference_backward(model.encoder, cache, dH, df, enc_grads)
    return loss, grads


def twin_pointwise(model, kb):
    """A second model with the same parameters and ENA generator state."""
    twin = rank.PointwiseModel(model.encoder.vocab, model.domains, model.config)
    for key, value in model.all_params().items():
        twin.all_params()[key][...] = value
    if model.config.ena is not None:
        twin._ena_rng.bit_generator.state = model._ena_rng.bit_generator.state
    twin.bind_kb(kb)
    return twin


def long_dialogue(kb):
    text = " ".join(["i want to book Hamilton Lodge near City Cab"] * 12)
    return ks_dialogue("long", "Hamilton Lodge", kb, text=text)


@pytest.fixture(scope="module")
def training_pool():
    """A knowledge base, a corpus with one history longer than any max_len
    below, and its point-wise instances with and without MTL names, the
    first repeated last."""
    kb = make_kb()
    corpus = make_corpus(kb, 6) + [long_dialogue(kb)]
    instances = {use_mtl: build_pointwise_instances(
        corpus, kb, small_config(use_mtl=use_mtl), np.random.default_rng(1))
        for use_mtl in (False, True)}
    for pool in instances.values():
        pool.append(replace(pool[0]))
    return kb, corpus, instances


def randomized(model, seed):
    """``model`` with every weight drawn at random (heads and wide part too)."""
    rng = np.random.default_rng(seed)
    for value in model.all_params().values():
        value[...] = rng.normal(0.0, 0.5, size=value.shape)
    return model


def record_stacks(monkeypatch):
    """The (unit count, cache) of every stack `ToyEncoder.stacked_passes`
    yields from now on."""
    seen = []
    real = models.ToyEncoder.stacked_passes

    def recording(self, units):
        for idx, cache in real(self, units):
            seen.append((len(idx), cache))
            yield idx, cache

    monkeypatch.setattr(models.ToyEncoder, "stacked_passes", recording)
    return seen


def assert_within_block(seen, block, d):
    for n_units, cache in seen:
        rows, longest = cache["A"].shape[:2]
        assert n_units == 1 or rows * longest * max(longest, 3 * d) <= block


class TestBatchedTraining:
    """One ``loss_and_grads`` call on a minibatch of compiled rows equals the
    per-row training path, kept below as an oracle, summed over the rows up
    to rounding."""

    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=12),
           max_len=st.sampled_from([20, 48, 128]), use_mtl=st.booleans(),
           ena=st.sampled_from([None, 0.6]), pooling=st.sampled_from(["mean", "first"]),
           block=st.sampled_from([models._STACK_BLOCK, 3000]), seed=st.integers(0, 99))
    def test_pointwise_batch_equals_per_row_reference(
            self, training_pool, picks, max_len, use_mtl, ena, pooling, block, seed):
        kb, corpus, pool = training_pool
        instances = [pool[use_mtl][i % len(pool[use_mtl])] for i in picks]
        cfg = small_config(use_mtl=use_mtl, max_len=max_len, pooling=pooling,
                           ena=None if ena is None else AugmentConfig(
                               ena_probability=ena, seed=3))
        model = randomized(rank.PointwiseModel(rank._ranking_vocab(corpus, kb),
                                               sorted({s.domain for s in kb.snippets}),
                                               cfg), seed)
        model.bind_kb(kb)
        twin = twin_pointwise(model, kb)
        rows = [model.compile(inst) for inst in instances]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "_STACK_BLOCK", block)
            seen = record_stacks(patch)
            got = model.loss_and_grads(rows)
        assert_close_loss(got, summed_losses(reference_pointwise_loss(twin, inst, kb)
                                             for inst in instances))
        assert sum(n for n, _ in seen) == len(rows) * (2 if use_mtl else 1)
        assert_within_block(seen, block, cfg.train.d)
        if ena is not None:  # both drew the same rewrites, in row order
            assert model._ena_rng.random() == twin._ena_rng.random()

    @settings(max_examples=40, deadline=None)
    @given(lists=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                    st.lists(st.integers(0, 12), min_size=1,
                                             max_size=TOP_K, unique=True),
                                    st.integers(0, TOP_K - 1)),
                          min_size=1, max_size=6),
           max_len=st.sampled_from([20, 48, 128]), pooling=st.sampled_from(["mean", "first"]),
           block=st.sampled_from([models._STACK_BLOCK, 3000]), seed=st.integers(0, 99))
    def test_listwise_batch_equals_per_row_reference(self, training_pool, lists, max_len,
                                                     pooling, block, seed):
        kb, corpus, _ = training_pool
        instances, dialogues = [], []
        for pick, snippets, true_index in lists:
            d = corpus[pick % len(corpus)]
            cands = [kb.snippets[i] for i in snippets]
            dialogues.append(d)
            instances.append(rank.ListwiseInstance(
                candidates=cands, true_index=true_index % len(cands),
                context=exact_context(d, kb)))
        cfg = small_config(max_len=max_len, pooling=pooling)
        model = randomized(ListwiseModel(rank._ranking_vocab(corpus, kb), cfg), seed)
        rows = [model.compile(inst) for inst in instances]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "_STACK_BLOCK", block)
            seen = record_stacks(patch)
            got = model.loss_and_grads(rows)
        assert_close_loss(got, summed_losses(reference_listwise_loss(model, inst, d)
                                             for inst, d in zip(instances, dialogues)))
        assert sum(n for n, _ in seen) == len(rows)
        assert_within_block(seen, block, cfg.train.d)

    def test_ena_rewrites_the_rows_the_per_row_loop_rewrites(self, training_pool,
                                                             monkeypatch):
        kb, corpus, pool = training_pool
        cfg = small_config(ena=AugmentConfig(ena_probability=0.6, seed=3))
        model = train_pointwise(corpus, kb, untrained(cfg))
        twin = twin_pointwise(model, kb)
        rewritten = []
        real = rank.augment_entity_name

        def recording(dialogue, *args):
            out = real(dialogue, *args)
            rewritten.append(out is not dialogue)
            return out

        monkeypatch.setattr(rank, "augment_entity_name", recording)
        model.loss_and_grads([model.compile(inst) for inst in pool[False]])
        batched, rewritten[:] = rewritten[:], []
        for inst in pool[False]:
            twin.loss_and_grads([twin.compile(inst)])
        assert batched == rewritten and 0 < sum(batched) < len(batched)

    def test_training_is_one_call_per_minibatch(self, training_pool, monkeypatch):
        kb, corpus, _ = training_pool
        cfg = small_config(use_mtl=True, batch_size=16, epochs=2)
        calls = []
        for cls in (rank.PointwiseModel, ListwiseModel):
            real = cls.loss_and_grads
            monkeypatch.setattr(cls, "loss_and_grads", lambda self, rows, real=real: (
                calls.append((type(self), len(rows))) or real(self, rows)))
        train_pointwise(corpus, kb, cfg)
        n = len(build_pointwise_instances(corpus, kb, cfg, np.random.default_rng(0)))
        sizes = [16] * (n // 16) + [n % 16] * (n % 16 > 0)
        assert calls == [(rank.PointwiseModel, size) for size in sizes] * 2


TURN_WORDS = st.sampled_from([
    "i", "want", "Hamilton", "lodge", "LODGE", "sw", "Hotel", "hotel", "city", "cab",
    "Union", "square", "inn", "palm", "court", "river", "grill", "?", "wifi,", "it's",
    "ΣΑΣ", "(x)", "⟨user⟩", "a⟨kng⟩b", "naïve"])


def tie_kb():
    """`make_kb` plus a second "Palm Court" (a full tie with the first) and
    a "court", which sorts after it and whose mentions nest in it."""
    return KnowledgeBase(list(make_kb().snippets) + [
        snip("attraction", "1", "Palm Court", "0"), snip("attraction", "2", "court", "0")])


def reference_features(d, kb, tracked):
    """`dialogue_features` by brute force: the tokens of the history's text,
    the words and bigrams of each turn, and the tracked entity whose name's
    rightmost occurrence in the turns' words is greatest by (match end,
    name length, name), the first in ``kb.entities`` on a tie."""
    utterances = [tokenize(t.text) for t in d.turns]
    keys = {e.key for e in tracked}
    best = last = None
    for entity in kb.entities:
        name = tokenize(entity.name)
        ends, offset = [], 0
        for utt in utterances:
            ends += [offset + start + len(name) for start in range(len(utt) - len(name) + 1)
                     if name and utt[start:start + len(name)] == name]
            offset += len(utt)
        if entity.key in keys and ends and (best is None
                                            or (max(ends), len(name), entity.name) > best):
            best, last = (max(ends), len(name), entity.name), entity.key
    return rank.DialogueFeatures(
        tuple(tokenize(linearize_history(d))), last,
        frozenset(tok for utt in utterances for tok in utt),
        frozenset(pair for utt in utterances for pair in zip(utt, utt[1:])))


class TestDialogueFeatures:
    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(st.lists(TURN_WORDS, min_size=1, max_size=10).map(" ".join),
                          min_size=1, max_size=5),
           tracked=st.lists(st.integers(0, len(tie_kb().entities) - 1), unique=True))
    def test_composed_features_equal_brute_force(self, texts, tracked):
        kb = tie_kb()
        d = Dialogue(id="f", turns=tuple(
            Turn(Speaker.USER if i % 2 == 0 else Speaker.SYSTEM, text)
            for i, text in enumerate(texts)))
        entities = [kb.entities[i] for i in tracked]
        assert rank.dialogue_features(d, kb, entities) == reference_features(d, kb, entities)

    def test_ties_go_to_the_longer_name_then_the_first_entity(self):
        kb = tie_kb()
        d = Dialogue(id="t", turns=(Turn(Speaker.USER, "the palm court please"),))
        courts = [e for e in kb.entities if e.name in ("Palm Court", "court")]
        assert [e.domain for e in courts] == ["attraction", "attraction", "restaurant"]
        for tracked, last in ((courts, 0), (courts[::-1], 0), (courts[1:], 2),
                              (courts[1:2], 1)):
            assert rank.dialogue_features(d, kb, tracked).last_entity_key == \
                courts[last].key


class TestComposedRows:
    """A row that ENA rewrites is composed from its turns' inputs, the
    untouched turns' built when compiling; it equals the row compiled from
    the rewritten dialogue byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(st.lists(TURN_WORDS, min_size=1, max_size=10).map(" ".join),
                          min_size=1, max_size=5),
           pick=st.integers(0, 12), label=st.booleans(),
           delete=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2 ** 16))
    def test_rewritten_row_equals_compiled_row(self, texts, pick, label, delete, seed):
        kb = make_kb()
        dialogue = Dialogue(id="h", turns=tuple(
            Turn(Speaker.USER if i % 2 == 0 else Speaker.SYSTEM, text)
            for i, text in enumerate(texts)))
        candidate = kb.snippets[pick]
        cfg = small_config(ena=AugmentConfig(ena_probability=1.0, ena_delete_prob=delete))
        model = rank.PointwiseModel(rank._ranking_vocab([dialogue], kb),
                                    sorted({s.domain for s in kb.snippets}), cfg)
        model.bind_kb(kb)
        row = model.compile(pointwise_instance(dialogue, candidate, int(label), kb))
        rewritten = augment_entity_name(dialogue, candidate, label, cfg.ena,
                                        np.random.default_rng(seed))
        fresh = []
        real = rank.turn_inputs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rank, "turn_inputs",
                          lambda turn, kb_: fresh.append(turn) or real(turn, kb_))
            pair, feats = model._rewritten_inputs(row, rewritten)
        assert len(fresh) <= 2 and not set(map(id, fresh)) & set(map(id, dialogue.turns))
        compiled = model.compile(pointwise_instance(rewritten, candidate, int(label), kb))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(pair, compiled.pair))
        assert feats.tobytes() == compiled.features.tobytes()


class TestCompiledRows:
    """Rows compiled once give the per-call training path."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("use_mtl", [False, True])
    def test_compiled_rows_equal_per_row_inputs(self, training_pool, monkeypatch,
                                                variant, use_mtl):
        """Compiling composes no features (the instances carry them), and
        every compiled array equals the one built for its row alone."""
        kb, corpus, pool = training_pool
        cfg = small_config(use_mtl=use_mtl, variant=variant, max_len=48)
        model = train_pointwise(corpus, kb, untrained(cfg))
        built = []
        real = rank._composed_features
        monkeypatch.setattr(rank, "_composed_features",
                            lambda *args: built.append(args) or real(*args))
        rows = [model.compile(inst) for inst in pool[use_mtl]]
        assert built == []
        for inst, row in zip(pool[use_mtl], rows):
            history = tokenize(linearize_history(inst.dialogue))
            ids, segs = reference_token_ids(
                model.encoder, history + tokenize(linearize_knowledge(inst.candidate)),
                len(history))
            assert row.pair[0].tobytes() == ids.tobytes()
            assert row.pair[1].tobytes() == segs.tobytes()
            tracked = exact_match_entities(inst.dialogue, kb)
            feats = extract_sparse_features(inst.dialogue, inst.candidate, kb, tracked,
                                            variant)
            assert row.features.tobytes() == feats.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(st.sampled_from(
        ["i want Palm Court", "", "zzz unknown words", "book City Cab please " * 8]),
        min_size=1, max_size=4), max_len=st.integers(1, 40),
        picks=st.lists(st.integers(0, 12), max_size=6))
    def test_pair_inputs_equal_token_ids(self, texts, max_len, picks):
        kb = make_kb()
        snippets = list(kb.snippets) + [snip("hotel", "9", "Nowhere Inn", "0",
                                             q="", a="")]
        model = ListwiseModel(rank._ranking_vocab(make_corpus(kb, 2), kb),
                              PointwiseConfig(train=TrainConfig(d=4, max_len=max_len)))
        turns = tuple(Turn(Speaker.USER if i % 2 == 0 else Speaker.SYSTEM, t or "ok")
                      for i, t in enumerate(texts))
        d = Dialogue(id="p", turns=turns)
        cands = [snippets[i % len(snippets)] for i in picks]
        history = tokenize(linearize_history(d))
        for _ in range(2):  # the second pass reads the model's snippet table
            pairs = model.compile(rank.ListwiseInstance(
                cands, 0, rank.dialogue_features(d, kb, []))).pairs
            assert len(pairs) == len(cands)
            for (ids, segs), s in zip(pairs, cands):
                ref_ids, ref_segs = reference_token_ids(
                    model.encoder, history + tokenize(linearize_knowledge(s)),
                    len(history))
                assert np.array_equal(ids, ref_ids) and np.array_equal(segs, ref_segs)

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_training_tokenizes_each_row_once(self, monkeypatch, epochs):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        cfg = small_config(use_mtl=True, epochs=epochs)
        instances = build_pointwise_instances(corpus, kb, cfg, np.random.default_rng(0))
        model = train_pointwise(corpus, kb, untrained(cfg))
        calls = []
        real = rank.tokenize
        monkeypatch.setattr(rank, "tokenize",
                            lambda text: calls.append(text) or real(text))
        rank.train_model(model, instances, rank.TrainConfig(epochs=epochs, seed=0))
        per_run = len(calls)
        assert per_run > 0
        calls.clear()
        rows = [model.compile(inst) for inst in instances]
        assert len(calls) == per_run  # all tokenizing happens while compiling
        calls.clear()
        model.loss_and_grads(rows)
        assert calls == []


class TestSharedPairScorer:
    """The detector, the learned tracker and both rankers are one encoder
    plus logit head, `models.ToyPairScorer`; the rankers add wide terms."""

    def test_pair_logits_equal_ranker_logits_with_zero_wide_weights(self, training_pool):
        kb, corpus, _ = training_pool
        vocab = rank._ranking_vocab(corpus, kb)
        cands = kb.snippets[:TOP_K]
        for model in (rank.PointwiseModel(vocab, ["hotel"], small_config()),
                      ListwiseModel(vocab, small_config())):
            randomized(model, 5).wide["u"][...] = 0.0
            scorer = models.ToyPairScorer(model.encoder, model.head)
            rights = [model.encoder.vocab_ids(tokenize(linearize_knowledge(s)))
                      for s in cands]
            for d in corpus:
                want = scorer.pair_logits(
                    model.encoder.vocab_ids(tokenize(linearize_history(d))), rights)
                context = exact_context(d, kb)
                if isinstance(model, ListwiseModel):
                    got = model.distribution(cands, context, 100.0)
                    want = softmax(want)
                else:
                    got = model.logits(cands, context)
                assert np.array_equal(got, want)

    def test_mtl_init_draws_the_fixed_seed_values(self):
        # fixed-seed draws at d=2, 2 domains, seed 4: each tensor from its
        # own generator seeded by its checkpoint name, so mtl.* checkpoint
        # tensors do not depend on how the block is stored
        want = {
            "wq": [[-0.6939148287722322, -0.7903109947960903],
                   [-0.09774229710491754, 0.46459498287396295]],
            "wk": [[0.484259009414245, -0.25609774458500356],
                   [-1.2957929067645573, -0.2999955050560411]],
            "wv": [[0.051232886985575155, -0.48498328265965546],
                   [0.6040576122253062, -0.8704326562130509]],
            "v": [0.38412127255101713, -0.07506500702201874],
            "dom": [[0.9730476294983357, -0.4820489949458113],
                    [-0.07065753574446125, -0.7559281235656096]],
            "bdom": [0.0, 0.0]}
        got = _mtl_init(d=2, n_domains=2, seed=4)
        assert {k: v.tolist() for k, v in got.items()} == want

    @pytest.mark.parametrize("trainer", ["pair", "pointwise", "pointwise-mtl",
                                         "listwise"])
    def test_each_trainer_runs_the_head_backward_once_per_stack(
            self, training_pool, monkeypatch, trainer):
        kb, corpus, pool = training_pool
        vocab = rank._ranking_vocab(corpus, kb)
        if trainer == "pair":
            model = models.ToyPairScorer(models.ToyEncoder(vocab, d=10, max_len=96))
            items = [(linearize_history(d), linearize_knowledge(s), i % 2)
                     for i, (d, s) in enumerate(zip(corpus, kb.snippets))]
        elif trainer == "listwise":
            model = ListwiseModel(vocab, small_config())
            cands = kb.snippets[:3]
            items = [rank.ListwiseInstance(cands, 0, exact_context(d, kb))
                     for d in corpus]
        else:
            use_mtl = trainer == "pointwise-mtl"
            model = rank.PointwiseModel(vocab, sorted({s.domain for s in kb.snippets}),
                                        small_config(use_mtl=use_mtl))
            model.bind_kb(kb)
            items = pool[use_mtl]
        rows = [model.compile(item) for item in items]
        stacks, heads = [], []  # per stacked_passes call its caches; head caches
        real_passes = models.ToyEncoder.stacked_passes
        real_head = models.ToyPairScorer._head_backward

        def passes(self, units):
            stacks.append([])
            for idx, cache in real_passes(self, units):
                stacks[-1].append(cache)
                yield idx, cache

        def head(self, cache, *args):
            heads.append(cache)
            return real_head(self, cache, *args)

        monkeypatch.setattr(models, "_STACK_BLOCK", 3000)
        monkeypatch.setattr(models.ToyEncoder, "stacked_passes", passes)
        monkeypatch.setattr(models.ToyPairScorer, "_head_backward", head)
        model.loss_and_grads(rows)
        # the pair stacks are the last stacked_passes call's (entity-name
        # stacks, with MTL, come first and have no head)
        assert len(stacks) == (2 if trainer == "pointwise-mtl" else 1)
        assert len(stacks[-1]) > 1
        assert [id(c) for c in heads] == [id(c) for c in stacks[-1]]
