import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial import rank
from kgdial.corpus import (
    DOMAIN_LEVEL, Dialogue, KnowledgeBase, KnowledgeSnippet, Speaker, Turn,
    TurnLabel, linearize_history, linearize_knowledge, tokenize,
)
from kgdial.entity_track import collect_candidates, exact_match_entities
from kgdial.augment import AugmentConfig, augment_entity_name
from kgdial.models import (bce_loss, finite_difference_check, pair_readout,
                           pair_readout_backward, sigmoid, softmax)
from kgdial.rank import (
    ListwiseConfig, ListwiseModel, MTLParams, PointwiseConfig, PointwiseInstance,
    RankedKnowledgeList, RankError, SparseFeatures, Variant,
    build_listwise_training_data,
    build_pointwise_instances, ensemble_rank, extract_sparse_features,
    listwise_rerank, mtl_forward, pointwise_rank,
    ranking_metrics, sample_entity_candidates, sample_negatives,
    train_listwise, train_pointwise,
)
from kgdial.rank import _mtl_forward_cache, _mtl_backward, _pair_inputs
from kgdial.synth import MiniCorpusConfig, build_mini_corpus
from test_models import (assert_same_loss, reference_pair_readout, reference_softmax,
                         reference_token_ids)


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
        return MTLParams(wq=eye.copy(), wk=eye.copy(), wv=eye.copy(),
                         entity_vector=np.ones(2),
                         domain_weights=np.zeros((2, 1)),
                         domain_bias=np.zeros(1))

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
        params = MTLParams.create(d=6, n_domains=3, seed=1)
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
        params = MTLParams.create(d=5, n_domains=2, seed=2)
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


class TestSparseFeatures:
    def test_domain_level_indicator(self):
        kb = make_kb()
        d = ks_dialogue("x", "Hamilton Lodge", kb)
        domain_snip = kb.snippets_for("hotel", DOMAIN_LEVEL)[0]
        feats = extract_sparse_features(d, domain_snip, list(kb.entities))
        assert feats.is_domain_level == 1

    def test_last_entity_rightmost_scan(self):
        kb = make_kb()
        turns = (Turn(Speaker.USER, "compare Hamilton Lodge with SW Hotel"),
                 Turn(Speaker.SYSTEM, "both are nice"),
                 Turn(Speaker.USER, "ok"))
        d = Dialogue(id="x", turns=turns)
        tracked = exact_match_entities(d, kb)
        lodge = kb.snippets_for("hotel", "1")[0]
        sw = kb.snippets_for("hotel", "2")[0]
        assert extract_sparse_features(d, lodge, tracked).is_last_entity == 0
        assert extract_sparse_features(d, sw, tracked).is_last_entity == 1

    def test_scattered_name_ngram_indicators(self):
        kb = KnowledgeBase([snip("hotel", "9", "Hilton San Francisco Union Square", "0")])
        turns = (Turn(Speaker.USER, "looking near union square please"),)
        d = Dialogue(id="x", turns=turns)
        target = kb.snippets[0]
        feats = extract_sparse_features(d, target, list(kb.entities), Variant.WD2)
        assert feats.unigram_in_dialogue == 1
        assert feats.bigram_in_dialogue == 1
        assert feats.is_last_entity == 0  # full name never matches

    def test_wd_variant_zeroes_ngram_features(self):
        kb = make_kb()
        d = ks_dialogue("x", "Hamilton Lodge", kb)
        target = kb.snippets_for("hotel", "1")[0]
        feats = extract_sparse_features(d, target, list(kb.entities), Variant.WD)
        assert feats.unigram_in_dialogue == 0
        assert feats.bigram_in_dialogue == 0

    def test_alpha_scaling_and_mask(self):
        feats = extract_sparse_features(
            ks_dialogue("x", "Hamilton Lodge", make_kb()),
            make_kb().snippets_for("hotel", "1")[0],
            list(make_kb().entities), Variant.WD2, alpha=100.0)
        vec = feats.vector()
        assert set(np.unique(vec)) <= {0.0, 100.0}
        masked = feats.vector(mask=(0, 0, 1, 1))
        assert masked[0] in (0.0, 1.0) and masked[1] in (0.0, 1.0)


class TestNegativeSampling:
    def test_pool_c_only_other_mentioned_entities(self):
        kb = make_kb()
        d = ks_dialogue("x", "Hamilton Lodge", kb,
                        text="is Hamilton Lodge better than SW Hotel?")
        gt = kb.snippets_for("hotel", "1")[0]
        # mentioned non-gt entities: SW Hotel and the nested "hotel" pseudo-entity
        allowed = {("hotel", "2"), ("hotel", DOMAIN_LEVEL)}
        rng = np.random.default_rng(0)
        for _ in range(20):
            negs = sample_negatives(gt, kb, d, rng, count=3,
                                    strategy=("other_entity",))
            assert {n.entity_key for n in negs} <= allowed

    def test_never_returns_ground_truth(self):
        kb = make_kb()
        d = ks_dialogue("x", "Hamilton Lodge", kb)
        gt = kb.snippets_for("hotel", "1")[0]
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert gt.key not in {n.key for n in sample_negatives(gt, kb, d, rng)}

    def test_degenerate_redistribution_to_kb_pool(self):
        kb = KnowledgeBase([snip("hotel", "1", "Only Hotel", str(i)) for i in range(6)])
        d = Dialogue(id="x", turns=(Turn(Speaker.USER, "completely unrelated"),))
        gt = kb.snippets[0]
        rng = np.random.default_rng(2)
        negs = sample_negatives(gt, kb, d, rng, count=4)
        assert len(negs) == 4
        assert all(n.key != gt.key for n in negs)

    def test_insufficient_snippets_error(self):
        kb = KnowledgeBase([snip("hotel", "1", "Tiny", "0"),
                            snip("hotel", "1", "Tiny", "1")])
        d = Dialogue(id="x", turns=(Turn(Speaker.USER, "hello"),))
        with pytest.raises(RankError, match="distinct"):
            sample_negatives(kb.snippets[0], kb, d, np.random.default_rng(0), count=4)

    def test_deterministic(self):
        kb = make_kb()
        d = ks_dialogue("x", "Palm Court", kb)
        gt = kb.snippets_for("restaurant", "1")[0]
        a = sample_negatives(gt, kb, d, np.random.default_rng(7))
        b = sample_negatives(gt, kb, d, np.random.default_rng(7))
        assert [s.key for s in a] == [s.key for s in b]


class TestEntityCandidates:
    def test_length_and_single_truth(self):
        kb = make_kb()
        d = ks_dialogue("x", "Hamilton Lodge", kb)
        gt = next(e for e in kb.entities if e.name == "Hamilton Lodge")
        rng = np.random.default_rng(0)
        for _ in range(30):
            names, idx = sample_entity_candidates(kb, d, gt, rng)
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
            names, idx = sample_entity_candidates(kb, d, gt, rng)
            negs = [n for j, n in enumerate(names) if j != idx]
            assert set(negs) <= mentioned_or_domain

    def test_true_position_uniform(self):
        kb = make_kb()
        d = ks_dialogue("x", "City Cab", kb)
        gt = next(e for e in kb.entities if e.name == "City Cab")
        rng = np.random.default_rng(5)
        counts = np.zeros(4)
        for _ in range(1000):
            _, idx = sample_entity_candidates(kb, d, gt, rng)
            counts[idx] += 1
        chi2 = float(((counts - 250.0) ** 2 / 250.0).sum())
        assert chi2 < 11.345  # chi-square df=3 at p=0.01

    def test_too_few_entities_error(self):
        kb = KnowledgeBase([snip("hotel", "1", "A", "0"), snip("hotel", "2", "B", "0")])
        d = Dialogue(id="x", turns=(Turn(Speaker.USER, "hi"),))
        gt = kb.entities[0]
        with pytest.raises(RankError):
            sample_entity_candidates(kb, d, gt, np.random.default_rng(0))


def exact_tracker(d, kb):
    return collect_candidates(exact_match_entities(d, kb), kb)


def small_config(**kw):
    base = dict(epochs=1, learning_rate=1e-3, batch_size=8, seed=0, d=10,
                max_len=96)
    base.update(kw)
    return PointwiseConfig(**base)


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
            mtl_inst = PointwiseInstance(
                dialogue=inst.dialogue, candidate=inst.candidate,
                label=inst.label, domain_id=inst.domain_id,
                entity_names=names, true_entity_index=0)
            l1, _ = plain.loss_and_grads(inst)
            l2, _ = mtl.loss_and_grads(mtl_inst)
            assert l1 == pytest.approx(l2, rel=1e-12)

    def test_training_rows_carry_tracking_ena_rewrites_retrack(self, monkeypatch):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        cfg = small_config(use_mtl=False, epochs=0)
        model = train_pointwise(corpus, kb, cfg)
        instances = build_pointwise_instances(corpus, kb, cfg,
                                              np.random.default_rng(0))
        for inst in instances:
            assert inst.tracked == exact_match_entities(inst.dialogue, kb)
        # the positive row of d0, whose gt entity is the one mentioned
        inst = next(i for i in instances if i.label == 1)
        assert [e.name for e in inst.tracked] == [inst.candidate.entity_name]

        def wide_grad(instance):
            return model.loss_and_grads(instance)[1]["wide.u"]

        # the stored list is what the sparse features see
        assert not np.array_equal(wide_grad(replace(inst, tracked=[])),
                                  wide_grad(inst))
        calls = []
        real = rank.exact_match_entities

        def counted(dialogue, kb_):
            calls.append(dialogue)
            return real(dialogue, kb_)

        monkeypatch.setattr(rank, "exact_match_entities", counted)
        wide_grad(inst)
        model.config = replace(cfg, ena=AugmentConfig(ena_probability=0.0))
        wide_grad(inst)
        assert calls == []
        # ENA that fires rewrites the dialogue, which is then tracked afresh
        model.config = replace(cfg, ena=AugmentConfig(ena_probability=1.0))
        wide_grad(inst)
        assert len(calls) == 1 and calls[0] is not inst.dialogue

    def test_instances_match_entities_once_per_dialogue(self, monkeypatch):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        real = rank.exact_match_entities
        matched, sampled = [], []

        def counted(dialogue, kb_):
            matched.append(dialogue.id)
            return real(dialogue, kb_)

        def checked(sampler):
            def wrapper(*args, mentioned, **kwargs):
                dialogue = next(a for a in args if isinstance(a, Dialogue))
                assert mentioned == real(dialogue, kb)
                sampled.append(dialogue.id)
                return sampler(*args, mentioned=mentioned, **kwargs)
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
        err = finite_difference_check(model, instances[0], epsilon=1e-5)
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
        ranked = pointwise_rank(m, d, [only])
        assert len(ranked.items) == 1
        assert ranked.items[0][0].key == only.key
        assert ranked.items[0][1] == pytest.approx(m.score(d, only))

    def test_alpha_invariant_when_features_zero(self, model):
        kb, m = model
        d = ks_dialogue("x", "City Cab", kb, text="no entity words here at all",
                        final="what should i do?")
        cands = list(kb.snippets_for("restaurant", "1"))
        r1 = pointwise_rank(m, d, cands, alpha=1.0)
        r100 = pointwise_rank(m, d, cands, alpha=100.0)
        assert r1.keys == r100.keys

    def test_sorted_non_increasing(self, model):
        kb, m = model
        d = ks_dialogue("x", "SW Hotel", kb)
        ranked = pointwise_rank(m, d, list(kb.snippets))
        probs = [p for _, p in ranked.items]
        assert probs == sorted(probs, reverse=True)
        assert len(ranked.items) == 5

    def test_empty_candidates_fall_back_to_kb(self, model):
        kb, m = model
        d = ks_dialogue("x", "SW Hotel", kb)
        ranked = pointwise_rank(m, d, [], kb=kb)
        assert len(ranked.items) == 5
        with pytest.raises(RankError):
            pointwise_rank(m, d, [])


@pytest.fixture(scope="module")
def variant_models():
    kb = make_kb()
    corpus = make_corpus(kb, 6)
    return kb, {variant: train_pointwise(corpus, kb, small_config(variant=variant))
                for variant in Variant}


def reference_logit(m, kb, d, snippet, alpha, tracked):
    """One candidate scored on its own, as the point-wise model defines it."""
    history = tokenize(linearize_history(d))
    tokens = history + tokenize(linearize_knowledge(snippet))
    cache = m.encoder.forward(*reference_token_ids(m.encoder, tokens, len(history)))
    if tracked is None:
        tracked = exact_match_entities(d, kb)
    feats = extract_sparse_features(d, snippet, tracked, m.config.variant, alpha)
    return float(m.head["w"] @ reference_pair_readout(cache) + m.head["b"][0]
                 + m.wide["u"] @ feats.vector())


class TestBatchedPointwise:
    """Scoring a list once per dialogue gives the per-candidate results
    bit for bit."""

    def dialogues(self, kb):
        compare = Dialogue(id="c", turns=(
            Turn(Speaker.USER, "compare Hamilton Lodge with SW Hotel"),
            Turn(Speaker.SYSTEM, "both are nice, the river grill is close"),
            Turn(Speaker.USER, "does the lodge allow pets?")))
        return [ks_dialogue("x", "Palm Court", kb), compare]

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("alpha", [1.0, 100.0])
    @pytest.mark.parametrize("given", [False, True])
    def test_logits_equal_reference(self, variant_models, variant, alpha, given):
        kb, models = variant_models
        m = models[variant]
        assert np.any(m.wide["u"] != 0.0)
        for d in self.dialogues(kb):
            tracked = list(kb.entities) if given else None
            cands = list(kb.snippets)
            expected = [reference_logit(m, kb, d, s, alpha, tracked) for s in cands]
            assert m.logits(d, cands, alpha, tracked) == expected
            assert [m.logit(d, s, alpha, tracked) for s in cands] == expected
            ranked = pointwise_rank(m, d, cands, alpha=alpha, tracked=tracked,
                                    top_n=len(cands))
            assert dict((s.key, p) for s, p in ranked.items) == {
                s.key: sigmoid(z) for s, z in zip(cands, expected)}

    @pytest.mark.parametrize("variant", list(Variant))
    def test_untracked_rank_equals_exact_tracked(self, variant_models, variant):
        kb, models = variant_models
        for d in self.dialogues(kb):
            cands = list(kb.snippets)
            assert pointwise_rank(models[variant], d, cands, alpha=100.0) == \
                pointwise_rank(models[variant], d, cands, alpha=100.0,
                               tracked=exact_match_entities(d, kb))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_rerank_features_equal_per_snippet_features(self, monkeypatch, variant):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        instances, _ = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=2, seed=0, tracker=exact_tracker)
        model = train_listwise(instances, kb,
                               ListwiseConfig(epochs=1, d=10, variant=variant))
        seen = []
        real = ListwiseModel.distribution

        def recording(model_, dialogue, top5, features, alpha=None):
            seen.append(list(features))
            return real(model_, dialogue, top5, features, alpha)

        monkeypatch.setattr(ListwiseModel, "distribution", recording)
        for d in self.dialogues(kb):
            tracked = exact_match_entities(d, kb)
            cands = collect_candidates(list(kb.entities), kb)[:5]
            ranked = RankedKnowledgeList(d.id, tuple((s, 0.5) for s in cands))
            listwise_rerank(model, d, ranked, tracked, alpha=100.0)
            assert seen.pop() == [
                extract_sparse_features(d, s, tracked, variant) for s in cands]


# -- the per-candidate inference loops before the features became one array,
# kept as oracles ---------------------------------------------------------------


def reference_indicators(context, snippet, variant):
    """DialogueFeatures.snippet_features before the n-gram table: the entity
    name tokenized and scanned on every call."""
    unigram = bigram = 0
    if variant is Variant.WD2:
        name_tokens = tokenize(snippet.entity_name)
        unigram = int(any(tok in context.tokens for tok in name_tokens))
        bigram = int(any((name_tokens[i], name_tokens[i + 1]) in context.bigrams
                         for i in range(len(name_tokens) - 1)))
    return (int(snippet.is_domain_level),
            int(context.last_entity_key == snippet.entity_key), unigram, bigram)


def reference_logits(m, d, candidates, alpha, tracked):
    """PointwiseModel.logits as one loop over the candidates."""
    context = rank.dialogue_features(d, tracked)
    out = []
    for candidate, pair in zip(candidates, _pair_inputs(m.encoder, {}, d, candidates)):
        cache = m.encoder.forward(*pair)
        feats = context.snippet_features(candidate, m.config.variant, alpha).vector()
        out.append(float(m.head["w"] @ pair_readout(cache) + m.head["b"][0]
                         + m.wide["u"] @ feats))
    return out


def reference_distribution(model, d, candidates, features, alpha):
    """ListwiseModel.distribution as one loop over the candidates."""
    logits = np.empty(len(candidates))
    pairs = _pair_inputs(model.encoder, {}, d, candidates)
    for j, (pair, feat) in enumerate(zip(pairs, features)):
        u = pair_readout(model.encoder.forward(*pair))
        vec = replace(feat, alpha=alpha).vector(mask=model.config.alpha_mask)
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
    @pytest.mark.parametrize("alpha", [1.0, 100.0])
    def test_rows_equal_snippet_features(self, synth_case, variant, alpha):
        dialogues, kb = synth_case
        vocab = rank._ranking_vocab(dialogues, kb)
        pointwise = rank.PointwiseModel(vocab, ["hotel"], small_config(variant=variant))
        pointwise.bind_kb(kb)
        listwise = ListwiseModel(vocab, ListwiseConfig(variant=variant,
                                                       alpha_mask=(1, 0, 1, 0)))
        snippets = list(kb.snippets)
        fired = np.zeros(4)
        for d in dialogues:
            tracked = exact_match_entities(d, kb)
            context = rank.dialogue_features(d, tracked)
            feats = [context.snippet_features(s, variant, alpha) for s in snippets]
            assert [f.indicators for f in feats] == [
                reference_indicators(context, s, variant) for s in snippets]
            for _ in range(2):  # the second pass reads the filled tables
                rows = pointwise._vectors(d, snippets, None, alpha)
                assert rows.shape == (len(snippets), rank.N_SPARSE)
                assert all(np.array_equal(row, f.vector()) for row, f in zip(rows, feats))
                rows = listwise._vectors(feats, alpha)
                assert all(np.array_equal(row, f.vector(mask=(1, 0, 1, 0)))
                           for row, f in zip(rows, feats))
                named = context.indicators(snippets, variant, listwise._name_grams)
                assert np.array_equal(named, [f.indicators for f in feats])
            fired += np.array([f.indicators for f in feats]).sum(axis=0)
        assert np.all(fired[:2 if variant is Variant.WD else 4] > 0)

    def test_alpha_must_be_positive(self, synth_case):
        dialogues, kb = synth_case
        model = rank.PointwiseModel(rank._ranking_vocab(dialogues, kb), ["hotel"],
                                    small_config())
        listwise = ListwiseModel(model.encoder.vocab, ListwiseConfig())
        feats = [SparseFeatures(0, 1, 0, 0)]
        for alpha in (0.0, -1.0):
            with pytest.raises(RankError):
                model.logits(dialogues[0], list(kb.snippets[:2]), alpha, [])
            with pytest.raises(RankError):
                listwise.distribution(dialogues[0], list(kb.snippets[:1]), feats, alpha)
            with pytest.raises(RankError):
                SparseFeatures(0, 1, 0, 0, alpha=alpha)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("alpha", [1.0, 100.0])
    def test_logits_equal_per_candidate_loop(self, variant_models, variant, alpha):
        kb, models = variant_models
        m = models[variant]
        for d in TestBatchedPointwise().dialogues(kb):
            tracked = exact_match_entities(d, kb)
            cands = list(kb.snippets)
            expected = reference_logits(m, d, cands, alpha, tracked)
            assert np.array_equal(m.logits(d, cands, alpha), expected)
            assert m.logits(d, [], alpha) == []
            # an empty list falls back to the whole knowledge base
            ranked = pointwise_rank(m, d, [], alpha=alpha, kb=kb, top_n=len(cands))
            assert np.array_equal([p for _, p in ranked.items], sorted(
                (sigmoid(z) for z in expected), reverse=True))
            assert ranked == pointwise_rank(m, d, cands, alpha=alpha, top_n=len(cands))

    @pytest.mark.parametrize("alpha", [1.0, 100.0])
    def test_distribution_equals_per_candidate_loop(self, variant_models, alpha):
        kb, models = variant_models
        instances, _ = build_listwise_training_data(
            make_corpus(kb, 4), kb, small_config(epochs=1), k=2, seed=0,
            tracker=exact_tracker)
        model = train_listwise(instances, kb, ListwiseConfig(
            epochs=1, d=10, alpha_mask=(1, 0, 1, 1)), init_from=models[Variant.WD2])
        assert np.any(model.wide["u"] != 0.0)
        for d in TestBatchedPointwise().dialogues(kb):
            context = rank.dialogue_features(d, list(kb.entities))
            for start in range(0, len(kb.snippets), 5):
                cands = list(kb.snippets[start:start + 5])
                feats = [context.snippet_features(s) for s in cands]
                assert np.array_equal(model.distribution(d, cands, feats, alpha),
                                      reference_distribution(model, d, cands, feats,
                                                             alpha))


class TestListwise:
    def test_identical_candidates_uniform(self):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        instances, _ = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=2, seed=0, tracker=exact_tracker)
        model = train_listwise(instances, kb, ListwiseConfig(epochs=1, d=10))
        d = corpus[0]
        same = [kb.snippets_for("hotel", "1")[0]] * 5
        feats = [extract_sparse_features(d, s, []) for s in same]
        dist = model.distribution(d, same, feats, alpha=1.0)
        assert dist == pytest.approx([0.2] * 5)

    def test_distribution_sums_to_one(self):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        instances, _ = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=2, seed=0, tracker=exact_tracker)
        model = train_listwise(instances, kb, ListwiseConfig(epochs=1, d=10))
        rng = np.random.default_rng(0)
        for _ in range(10):
            take = int(rng.integers(1, 6))
            picks = rng.choice(len(kb.snippets), size=take, replace=False)
            cands = [kb.snippets[int(i)] for i in picks]
            d = corpus[int(rng.integers(len(corpus)))]
            feats = [extract_sparse_features(d, s, []) for s in cands]
            dist = model.distribution(d, cands, feats, alpha=100.0)
            assert abs(dist.sum() - 1.0) < 1e-6
            assert len(dist) == take  # no padding logits

    def test_listwise_gradient_check(self):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        instances, _ = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=2, seed=0, tracker=exact_tracker)
        model = train_listwise(instances, kb, ListwiseConfig(epochs=1, d=10))
        err = finite_difference_check(model, instances[0], epsilon=1e-5)
        assert err < 1e-4

    def test_rerank_reorders_by_distribution(self):
        kb = make_kb()
        corpus = make_corpus(kb, 4)
        instances, stats = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=2, seed=0, tracker=exact_tracker)
        model = train_listwise(instances, kb, ListwiseConfig(epochs=1, d=10))
        inst = instances[0]
        ranked = RankedKnowledgeList(
            inst.dialogue.id,
            tuple((s, 0.5) for s in inst.candidates))
        out = listwise_rerank(model, inst.dialogue, ranked, [], alpha=1.0)
        assert sorted(out.keys) == sorted(ranked.keys)
        probs = [p for _, p in out.items]
        assert probs == sorted(probs, reverse=True)


class TestListwiseData:
    def test_instances_have_one_truth_and_counts_add_up(self):
        kb = make_kb()
        corpus = make_corpus(kb, 6)
        instances, stats = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=3, seed=1, tracker=exact_tracker)
        for inst in instances:
            refs = set(inst.dialogue.label.knowledge_refs)
            hits = [j for j, c in enumerate(inst.candidates) if c.key in refs]
            assert inst.true_index in hits
            tracked = exact_match_entities(inst.dialogue, kb)
            assert inst.features == [
                extract_sparse_features(inst.dialogue, c, tracked)
                for c in inst.candidates]
        assert stats["decoded"] == len(corpus)
        assert stats["emitted"] + stats["dropped"] == len(corpus)

    def test_fold_coverage_partitions_corpus(self):
        kb = make_kb()
        corpus = make_corpus(kb, 7)
        _, stats = build_listwise_training_data(
            corpus, kb, small_config(epochs=1), k=3, seed=2, tracker=exact_tracker)
        assert stats["decoded"] == 7


class TestEnsemble:
    def ranked(self, turn, pairs):
        kb = make_kb()
        by_name = {e.name: e for e in kb.entities}
        items = []
        for name, prob in pairs:
            e = by_name[name]
            items.append((kb.snippets_for(e.domain, e.entity_id)[0], prob))
        items.sort(key=lambda t: -t[1])
        return RankedKnowledgeList(turn, tuple(items))

    def test_single_system_identity(self):
        lst = self.ranked("t", [("Hamilton Lodge", 0.8), ("SW Hotel", 0.3)])
        out = ensemble_rank([lst])
        assert out.keys == lst.keys

    def test_duplicated_system_same_argsort(self):
        lst = self.ranked("t", [("Hamilton Lodge", 0.8), ("SW Hotel", 0.3),
                                ("Palm Court", 0.1)])
        out = ensemble_rank([lst, lst, lst])
        assert out.keys == lst.keys

    def test_hand_summed_scores(self):
        a = self.ranked("t", [("Hamilton Lodge", 0.6), ("SW Hotel", 0.5)])
        b = self.ranked("t", [("SW Hotel", 0.9), ("Hamilton Lodge", 0.1)])
        out = ensemble_rank([a, b])
        assert out.keys[0][0:2] == ("hotel", "2")  # B: 1.4 over A: 0.7
        probs = dict(zip([k[:2] for k in out.keys], [p for _, p in out.items]))
        assert probs[("hotel", "2")] / probs[("hotel", "1")] == pytest.approx(1.4 / 0.7)

    def test_mismatched_turns_rejected(self):
        a = self.ranked("t1", [("Hamilton Lodge", 0.6)])
        b = self.ranked("t2", [("SW Hotel", 0.9)])
        with pytest.raises(RankError):
            ensemble_rank([a, b])


class TestRankingMetrics:
    def test_truth_at_rank_one(self):
        kb = make_kb()
        gt = kb.snippets_for("hotel", "1")[0]
        lst = RankedKnowledgeList("t", ((gt, 0.9),))
        got = ranking_metrics([lst], [{gt.key}])
        assert got == {"mrr@5": 1.0, "r@1": 1.0, "r@5": 1.0}

    def test_truth_at_rank_three(self):
        kb = make_kb()
        gt = kb.snippets_for("hotel", "1")[0]
        others = [kb.snippets_for("hotel", "2")[0], kb.snippets_for("restaurant", "1")[0]]
        lst = RankedKnowledgeList(
            "t", ((others[0], 0.9), (others[1], 0.8), (gt, 0.7)))
        got = ranking_metrics([lst], [{gt.key}])
        assert got["mrr@5"] == pytest.approx(1 / 3)
        assert got["r@1"] == 0.0
        assert got["r@5"] == 1.0


# -- the per-call training paths before rows were compiled, kept as oracles ----


def reference_pointwise_loss(model, instance):
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
    cache1 = model.encoder.forward(
        *reference_token_ids(model.encoder, tokens1, len(history)))
    f1 = cache1["f"]
    u1 = reference_pair_readout(cache1)
    tracked = instance.tracked if dialogue is instance.dialogue else None
    feats = model.features(dialogue, instance.candidate, tracked, alpha=1.0).vector()
    z = float(model.head["w"] @ u1 + model.head["b"][0] + model.wide["u"] @ feats)
    rank_loss, dz = bce_loss(z, float(instance.label))
    lam_rank = model.mtl.lambda_rank if model.mtl is not None else cfg.lambda_rank
    loss = lam_rank * rank_loss
    dz *= lam_rank
    grads["head.w"] += dz * u1
    grads["head.b"] += np.array([dz])
    grads["wide.u"] += dz * feats
    dH1, df1 = pair_readout_backward(cache1, dz * model.head["w"])
    enc_grads = {name: grads[f"enc.{name}"] for name in model.encoder.params}
    if model.mtl is not None:
        mtl = model.mtl
        dom_p = reference_softmax(f1 @ mtl.domain_weights + mtl.domain_bias)
        loss += -mtl.lambda_domain * math.log(max(dom_p[instance.domain_id], 1e-300))
        ddom = mtl.lambda_domain * dom_p.copy()
        ddom[instance.domain_id] -= mtl.lambda_domain
        grads["mtl.dom"] += np.outer(f1, ddom)
        grads["mtl.bdom"] += ddom
        df1 = df1 + mtl.domain_weights @ ddom
        tokens2, spans = model._input2(instance.entity_names)
        cache2 = model.encoder.forward(*reference_token_ids(model.encoder, tokens2))
        mtl_cache = _mtl_forward_cache(f1, cache2["H"], spans, mtl)
        p_ent = mtl_cache["p"]
        true_entity = instance.true_entity_index
        loss += -mtl.lambda_entity * math.log(max(p_ent[true_entity], 1e-300))
        dlogits = mtl.lambda_entity * p_ent.copy()
        dlogits[true_entity] -= mtl.lambda_entity
        df_mtl, dH2 = _mtl_backward(mtl_cache, mtl, dlogits, grads)
        df1 = df1 + df_mtl
        model.encoder.backward(cache2, dH2, None, enc_grads)
    model.encoder.backward(cache1, dH1, df1, enc_grads)
    return loss, grads


def reference_listwise_loss(model, instance):
    """ListwiseModel.loss_and_grads re-tokenizing its list on every call and
    computing each readout twice."""
    grads = {k: np.zeros_like(v) for k, v in model.all_params().items()}
    history = tokenize(linearize_history(instance.dialogue))
    caches, logits = [], np.empty(len(instance.candidates))
    for j, (snip, feat) in enumerate(zip(instance.candidates, instance.features)):
        tokens = history + tokenize(linearize_knowledge(snip))
        cache = model.encoder.forward(
            *reference_token_ids(model.encoder, tokens, len(history)))
        vec = replace(feat, alpha=1.0).vector(mask=model.config.alpha_mask)
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
        dH, df = pair_readout_backward(cache, dz * model.head["w"])
        model.encoder.backward(cache, dH, df, enc_grads)
    return loss, grads


def twin_pointwise(model, kb):
    """A second model with the same parameters and ENA generator state."""
    twin = rank.PointwiseModel(model.encoder.vocab, model.domains, model.config)
    for key, value in model.all_params().items():
        twin.all_params()[key][...] = value
    twin._ena_rng.bit_generator.state = model._ena_rng.bit_generator.state
    twin.bind_kb(kb)
    return twin


class TestCompiledRows:
    """Rows compiled once give the per-call training path bit for bit."""

    def long_dialogue(self, kb):
        text = " ".join(["i want to book Hamilton Lodge near City Cab"] * 12)
        return ks_dialogue("long", "Hamilton Lodge", kb, text=text)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("use_mtl", [False, True])
    @pytest.mark.parametrize("ena", [None, 0.6])
    def test_pointwise_rows_equal_per_call_path(self, monkeypatch, variant,
                                                use_mtl, ena):
        kb = make_kb()
        corpus = make_corpus(kb, 6) + [self.long_dialogue(kb)]
        cfg = small_config(use_mtl=use_mtl, variant=variant, epochs=2,
                           learning_rate=0.01, max_len=48,
                           ena=None if ena is None else AugmentConfig(
                               ena_probability=ena, seed=3))
        model = train_pointwise(corpus, kb, cfg)
        twin = twin_pointwise(model, kb)
        instances = build_pointwise_instances(corpus, kb, cfg, np.random.default_rng(1))
        instances.append(replace(instances[0], tracked=None))
        rewritten = []
        real = rank.augment_entity_name

        def recording(dialogue, *args):
            out = real(dialogue, *args)
            rewritten.append(out is not dialogue)
            return out

        monkeypatch.setattr(rank, "augment_entity_name", recording)
        for inst in instances:
            row = model.compile(inst)
            assert_same_loss(model.loss_and_grads(row),
                             reference_pointwise_loss(twin, inst))
        if ena is not None:
            assert len(rewritten) == len(instances)
            assert 0 < sum(rewritten) < len(instances)
        # an uncompiled instance takes the same path
        for inst in instances[:3]:
            assert_same_loss(model.loss_and_grads(inst),
                             reference_pointwise_loss(twin, inst))

    def test_listwise_rows_equal_per_call_path(self):
        kb = make_kb()
        corpus = make_corpus(kb, 6) + [self.long_dialogue(kb)]
        instances, _ = build_listwise_training_data(
            corpus, kb, small_config(epochs=1, max_len=48), k=2, seed=0,
            tracker=exact_tracker)
        model = train_listwise(instances, kb, ListwiseConfig(
            epochs=2, d=10, max_len=48, learning_rate=0.01, alpha_mask=(1, 0, 1, 0)))
        for inst in instances:
            expected = reference_listwise_loss(model, inst)
            assert_same_loss(model.loss_and_grads(model.compile(inst)), expected)
            assert_same_loss(model.loss_and_grads(inst), expected)

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
                              ListwiseConfig(d=4, max_len=max_len))
        turns = tuple(Turn(Speaker.USER if i % 2 == 0 else Speaker.SYSTEM, t or "ok")
                      for i, t in enumerate(texts))
        d = Dialogue(id="p", turns=turns)
        cands = [snippets[i % len(snippets)] for i in picks]
        history = tokenize(linearize_history(d))
        for _ in range(2):  # the second pass reads the model's snippet table
            pairs = _pair_inputs(model.encoder, model._snippet_ids, d, cands)
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
        model = train_pointwise(corpus, kb, replace(cfg, epochs=0))
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
        for row in rows:
            model.loss_and_grads(row)
        assert calls == []
