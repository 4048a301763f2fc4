"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (visible with pytest -s or -rA).

Ordering criteria (6, 7) run the bundled synthetic mini-corpus with the
training configurations documented in the README; they are medians over
5 seeds and deterministic end to end.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from kgdial.augment import (AugmentConfig, FakeSpeechAdapter,
                            augment_entity_name, build_phonetic_index,
                            inject_errors, tst_transform)
from kgdial.consensus import (Candidate, CandidatePool, ConsensusWeights,
                              TuneConfig, evaluate_selection, tune_weights)
from kgdial.corpus import (Dialogue, KnowledgeSnippet, Speaker, Turn,
                           linearize_history)
from kgdial.detect import ErrorFixConfig, error_fixing_ensemble, predict
from kgdial.entity_track import (build_tracking_examples, collect_candidates,
                                 entity_recall, exact_match_entities,
                                 fuzzy_match_entities, track_entities)
from kgdial.metrics import (bleu_n, meteor_lite, mrr_at_k, precision_recall_f1,
                            recall_at_k, rouge_l, rouge_n)
from kgdial.models import TrainConfig, finite_difference_check, train_pair_classifier
from kgdial.pipeline import (DecodeComponents, end_to_end_decode,
                             evaluate_predictions, validate_labels_schema)
from kgdial.rank import (ListwiseConfig, MTLParams, PointwiseConfig,
                         RankedKnowledgeList, Variant,
                         build_listwise_training_data,
                         build_pointwise_instances, ensemble_rank,
                         listwise_rerank, mtl_forward, pointwise_rank,
                         ranking_metrics, train_listwise, train_pointwise)
from kgdial.synth import MiniCorpusConfig, build_mini_corpus

from test_metrics import (oracle_bleu, oracle_meteor, oracle_mrr,
                          oracle_recall_at, oracle_rouge_l, oracle_rouge_n,
                          random_text)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {title}")


# ---------------------------------------------------------------------------


def test_criterion_1_metric_oracles():
    with criterion(1, "metrics match brute-force oracles (500 pairs, 1e-9)"):
        start = time.time()
        rng = random.Random(20240)
        for _ in range(500):
            hyp = random_text(rng)
            ref = random_text(rng, lo=1)
            for n in (1, 2, 3, 4):
                assert abs(bleu_n(hyp, [ref], n) - oracle_bleu(hyp, [ref], n)) < 1e-9
            for n in (1, 2):
                assert abs(rouge_n(hyp, ref, n) - oracle_rouge_n(hyp, ref, n)) < 1e-9
            assert abs(rouge_l(hyp, ref) - oracle_rouge_l(hyp, ref)) < 1e-9
            assert abs(meteor_lite(hyp, ref) - oracle_meteor(hyp, ref)) < 1e-9
        keys = [f"k{i}" for i in range(30)]
        preds, refs = [], []
        for _ in range(500):
            preds.append(rng.sample(keys, 8))
            refs.append(set(rng.sample(keys, 2)))
        for k in (1, 5):
            assert abs(mrr_at_k(preds, refs, k) - oracle_mrr(preds, refs, k)) < 1e-9
            assert abs(recall_at_k(preds, refs, k)
                       - oracle_recall_at(preds, refs, k)) < 1e-9
        # P/R/F1 against direct arithmetic on random confusion counts
        crng = random.Random(7)
        for _ in range(500):
            tp, fp, fn = crng.randint(0, 20), crng.randint(0, 20), crng.randint(0, 20)
            p, r, f1 = precision_recall_f1(tp, fp, fn)
            ep = tp / (tp + fp) if tp + fp else 0.0
            er = tp / (tp + fn) if tp + fn else 0.0
            ef = 2 * ep * er / (ep + er) if ep + er else 0.0
            assert abs(p - ep) < 1e-9 and abs(r - er) < 1e-9 and abs(f1 - ef) < 1e-9
        elapsed = time.time() - start
        assert elapsed < 30, f"metric oracle check took {elapsed:.1f}s"


def test_criterion_2_attention_head_equations():
    with criterion(2, "attention head matches hand computation (1e-6)"):
        eye = np.eye(2)
        params = MTLParams(wq=eye.copy(), wk=eye.copy(), wv=eye.copy(),
                           entity_vector=np.ones(2),
                           domain_weights=np.zeros((2, 1)),
                           domain_bias=np.zeros(1))
        f = np.array([1.0, 0.0])
        H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        spans = [(0, 1), (1, 3)]
        a, p = mtl_forward(f, H, spans, params)
        # scalar arithmetic straight from the formula: scores [1,0,1]/sqrt(2)
        x = math.exp(1.0 / math.sqrt(2.0))
        denom = 2 * x + 1
        expected_a = [x / denom, 1 / denom, x / denom]
        assert np.max(np.abs(a - np.array(expected_a))) < 1e-6
        l1 = expected_a[0]
        l2 = expected_a[1] + 2 * expected_a[2]
        e1, e2 = math.exp(l1), math.exp(l2)
        assert np.max(np.abs(p - np.array([e1, e2]) / (e1 + e2))) < 1e-6

        from kgdial.rank import _mtl_forward_cache

        rng = np.random.default_rng(0)
        rparams = MTLParams.create(d=8, n_domains=3, seed=1)
        for _ in range(25):
            T = int(rng.integers(2, 10))
            fv = rng.normal(size=8)
            Hm = rng.normal(size=(T, 8))
            cut = int(rng.integers(1, T))
            spans = [(0, cut), (cut, T)]
            a, p = mtl_forward(fv, Hm, spans, rparams)
            assert abs(a.sum() - 1.0) < 1e-6
            assert abs(p.sum() - 1.0) < 1e-6
            cache = _mtl_forward_cache(fv, Hm, spans, rparams)
            # conservation is exact mathematics; float addition order
            # costs at most a few ulps
            assert np.allclose(cache["S"].sum(axis=0), cache["G"].sum(axis=0),
                               rtol=0.0, atol=1e-12)


def test_criterion_3_gradient_checks():
    with criterion(3, "pointwise MTL gradients vs finite differences (1e-4, 10 seeds)"):
        start = time.time()
        dialogues, kb, _ = build_mini_corpus(MiniCorpusConfig(n_dialogues=30, seed=1))
        ks = [d for d in dialogues if d.label.is_knowledge_seeking]
        for seed in range(10):
            config = PointwiseConfig(use_mtl=True, variant=Variant.WD2,
                                     epochs=1, learning_rate=0.01,
                                     batch_size=8, seed=seed, d=10, max_len=96)
            model = train_pointwise(ks[:8], kb, config)
            instances = build_pointwise_instances(
                ks[:8], kb, config, np.random.default_rng(seed))
            instance = instances[seed % len(instances)]
            err = finite_difference_check(model, instance, epsilon=1e-5,
                                          max_entries_per_param=6, seed=seed)
            assert err < 1e-4, f"seed {seed}: max rel gradient error {err}"
        elapsed = time.time() - start
        assert elapsed < 120, f"gradient checks took {elapsed:.1f}s"


TOY_LEXICON = {
    "can": ["K", "AE", "N"], "i": ["AY"],
    "cooking": ["K", "UH", "K", "IH", "NG"],
    "booking": ["B", "UH", "K", "IH", "NG"],
    "at": ["AE", "T"],
    "hamilton": ["HH", "AE", "M", "AH", "L", "T", "AH", "N"],
    "lodge": ["L", "AA", "JH"],
    "launch": ["L", "AO", "N", "CH"],
    "zebra": ["Z", "IY", "B", "R", "AH"],
}


def test_criterion_4_augmentation_contracts():
    with criterion(4, "augmentation contracts and spoken-noise fixtures"):
        index = build_phonetic_index(TOY_LEXICON)
        config = AugmentConfig(neighbor_k=3)
        words = sorted(TOY_LEXICON)
        # replacement count equals ceil(r * n) on 1000 seeded utterances
        for seed in range(1000):
            srng = np.random.default_rng(seed)
            n = int(srng.integers(1, 13))
            sentence = " ".join(words[int(srng.integers(len(words)))]
                                for _ in range(n))
            r = np.random.default_rng(seed + 5000).uniform(0.1, 0.3)
            out = inject_errors(sentence, index, config,
                                np.random.default_rng(seed + 5000))
            changed = sum(a != b for a, b in zip(sentence.split(), out.split()))
            assert changed == math.ceil(r * n), (seed, sentence, out)
            assert 0.1 <= r <= 0.3

        # the four published noise examples
        fix = inject_errors("can I cooking at Hamilton lodge", index,
                            AugmentConfig(neighbor_k=1), np.random.default_rng(6))
        assert fix == "can I booking at Hamilton launch"
        fake = FakeSpeechAdapter({"at": "and high", "hamilton": "museum",
                                  "lodge": "large"})
        assert tst_transform("can I cooking at Hamilton lodge", fake) == \
            "can I cooking and high museum large"
        snip = KnowledgeSnippet(domain="hotel", entity_id="1",
                                entity_name="Hamilton Lodge", question="q?",
                                answer="a", doc_id="0")
        dlg = Dialogue(id="x", turns=(
            Turn(Speaker.USER, "can I cooking at Hamilton lodge"),))
        ena = AugmentConfig(ena_probability=1.0)
        pos = augment_entity_name(dlg, snip, True, ena, np.random.default_rng(23))
        assert pos.turns[0].text == "can I cooking lodge at Hamilton"
        neg_snip = KnowledgeSnippet(domain="hotel", entity_id="2",
                                    entity_name="SW Hotel", question="q?",
                                    answer="a", doc_id="0")
        neg = augment_entity_name(dlg, neg_snip, False, ena, np.random.default_rng(19))
        assert neg.turns[0].text == "can I SW Hotel cooking at Hamilton lodge"

        # applied rate at the configured probability
        rate_cfg = AugmentConfig(ena_probability=0.3, ena_delete_prob=0.0)
        rng = np.random.default_rng(77)
        applied = sum(
            augment_entity_name(dlg, snip, True, rate_cfg, rng) is not dlg
            for _ in range(10000))
        assert 0.28 <= applied / 10000 <= 0.32, applied / 10000


def test_criterion_5_ensemble_invariants():
    with criterion(5, "ensemble invariants and monotone consensus tuning"):
        # error-fixing with delta 0 equals the base system
        rng = np.random.default_rng(3)
        ids = [f"d{i}" for i in range(200)]
        tables = {
            system: [predict(i, float(rng.uniform())) for i in ids]
            for system in ("base", "a1", "a2", "a3")}
        fixed = error_fixing_ensemble(tables, ErrorFixConfig("base", delta_d=0.0))
        base_labels = {p.dialogue_id: p.label for p in tables["base"]}
        assert all(p.label == base_labels[p.dialogue_id] for p in fixed)

        # sum-of-probabilities argsort invariant under duplication
        snips = [KnowledgeSnippet(domain="hotel", entity_id=str(i),
                                  entity_name=f"H{i}", question="q?",
                                  answer="a", doc_id="0") for i in range(6)]
        for seed in range(20):
            srng = np.random.default_rng(seed)
            probs = sorted((float(p) for p in srng.uniform(size=4)), reverse=True)
            lst = RankedKnowledgeList(
                "t", tuple(zip(snips[:4], probs)))
            single = ensemble_rank([lst])
            doubled = ensemble_rank([lst, lst])
            assert single.keys == doubled.keys == lst.keys

        # consensus tuning never decreases dev BLEU over 20 seeded runs
        pools, references = [], {}
        for i in range(5):
            ref = f"the hotel {i} allows small pets in every room"
            references[f"t{i}"] = ref
            pools.append(CandidatePool(f"t{i}", (
                Candidate(ref, "good", 1, -2.0),
                Candidate(f"noise words {i} entirely", "bad", 1, -1.0),
                Candidate(f"the hotel {i} allows pets", "mid", 1, -1.5))))
        init = ConsensusWeights(np.full(10, 0.1))
        before = evaluate_selection(pools, references, init)
        for seed in range(20):
            tuned = tune_weights(pools, references, init,
                                 TuneConfig(restarts=2, seed=seed))
            after = evaluate_selection(pools, references, tuned)
            assert after >= before - 1e-12, (seed, before, after)


def _tracking_split(seed):
    dialogues, kb, _ = build_mini_corpus(MiniCorpusConfig(seed=seed))
    ks = [d for d in dialogues if d.label.is_knowledge_seeking]
    order = np.random.default_rng(seed).permutation(len(ks))
    test = [ks[i] for i in order[:50]]
    train = [ks[i] for i in order[50:]]
    refs = [{(dom, eid) for dom, eid, _ in d.label.knowledge_refs} for d in test]
    return train, test, refs, kb


def test_criterion_6_tracking_order():
    with criterion(6, "entity tracking: exact < fuzzy < learned (medians, 5 seeds)"):
        start = time.time()
        rows = []
        for seed in range(5):
            train, test, refs, kb = _tracking_split(seed)
            examples = build_tracking_examples(
                train, kb, np.random.default_rng(seed + 1),
                negatives_per_dialogue=6)
            positives = [e for e in examples if e[2] == 1]
            scorer = train_pair_classifier(
                examples + positives * 5,
                TrainConfig(epochs=30, learning_rate=0.02, batch_size=32,
                            seed=seed, d=32))
            r_exact = entity_recall(
                [exact_match_entities(d, kb) for d in test], refs)
            r_fuzzy = entity_recall(
                [fuzzy_match_entities(d, kb, 0.8) for d in test], refs)
            r_learned = entity_recall(
                [track_entities(scorer, d, kb, 0.5) for d in test], refs)
            rows.append((r_exact, r_fuzzy, r_learned))
        med = np.median(np.array(rows), axis=0)
        print(f"  tracking medians: exact {med[0]:.3f} fuzzy {med[1]:.3f} "
              f"learned {med[2]:.3f}")
        assert med[0] < med[1] < med[2], rows
        elapsed = time.time() - start
        assert elapsed < 600, f"tracking comparison took {elapsed:.1f}s"


def _rank_split(seed):
    dialogues, kb, _ = build_mini_corpus(MiniCorpusConfig(seed=seed))
    ks = [d for d in dialogues if d.label.is_knowledge_seeking]
    order = np.random.default_rng(seed).permutation(len(ks))
    return [ks[i] for i in order[50:]], [ks[i] for i in order[:50]], kb


def _fuzzy_candidates(d, kb):
    return collect_candidates(fuzzy_match_entities(d, kb, 0.5), kb)


def test_criterion_7_ranking_order():
    with criterion(7, "ranking: MTL >= plain and listwise >= pointwise (medians)"):
        rows = []
        for seed in range(5):
            train, test, kb = _rank_split(seed)
            refs = [set(d.label.knowledge_refs) for d in test]
            base = dict(epochs=25, learning_rate=0.01, batch_size=16,
                        seed=seed, d=24, max_len=96)
            plain = train_pointwise(train, kb, PointwiseConfig(
                use_mtl=False, variant=Variant.WD, **base))
            mtl = train_pointwise(train, kb, PointwiseConfig(
                use_mtl=True, variant=Variant.WD,
                lambda_domain=0.05, lambda_entity=0.05, **base))

            def decode(model):
                ranked = []
                for d in test:
                    tracked = fuzzy_match_entities(d, kb, 0.5)
                    ranked.append(pointwise_rank(
                        model, d, collect_candidates(tracked, kb),
                        kb=kb, tracked=tracked))
                return ranked

            plain_ranked, mtl_ranked = decode(plain), decode(mtl)
            r_plain = ranking_metrics(plain_ranked, refs)["r@1"]
            r_mtl = ranking_metrics(mtl_ranked, refs)["r@1"]

            wd2 = PointwiseConfig(use_mtl=False, variant=Variant.WD2, **base)
            instances, _ = build_listwise_training_data(
                train, kb, wd2, k=3, seed=seed, tracker=_fuzzy_candidates)
            pw_wd2 = train_pointwise(train, kb, wd2)
            lw = train_listwise(instances, kb, ListwiseConfig(
                epochs=4, learning_rate=0.003, batch_size=16, seed=seed,
                d=24, max_len=96), init_from=pw_wd2)
            base_ranked = mtl_ranked if r_mtl >= r_plain else plain_ranked
            lw_ranked = [
                listwise_rerank(lw, d, ranked,
                                fuzzy_match_entities(d, kb, 0.5), alpha=100.0)
                for d, ranked in zip(test, base_ranked)]
            r_lw = ranking_metrics(lw_ranked, refs)["r@1"]
            rows.append((r_plain, r_mtl, r_lw))
        med = np.median(np.array(rows), axis=0)
        print(f"  ranking medians: plain {med[0]:.3f} mtl {med[1]:.3f} "
              f"listwise {med[2]:.3f}")
        assert med[1] >= med[0], rows
        assert med[2] >= max(med[0], med[1]), rows


def test_criterion_8_ann_recall():
    with criterion(8, "phonetic ANN recall@10 >= 0.9 on 5k lexicon"):
        phones = ["AA", "AE", "AH", "AO", "B", "CH", "D", "EH", "ER", "EY",
                  "F", "G", "HH", "IH", "IY", "JH", "K", "L", "M", "N", "NG",
                  "OW", "P", "R", "S", "SH", "T", "TH", "UH", "UW", "V", "W",
                  "Y", "Z"]
        rng = np.random.default_rng(2024)
        lexicon = {}
        wid = 0
        while len(lexicon) < 5000:
            base = [phones[int(k)]
                    for k in rng.integers(0, len(phones), int(rng.integers(3, 9)))]
            for _ in range(int(rng.integers(1, 7))):
                variant = list(base)
                for _ in range(int(rng.integers(0, 3))):
                    pos = int(rng.integers(len(variant)))
                    variant[pos] = phones[int(rng.integers(len(phones)))]
                lexicon[f"w{wid:05d}"] = variant
                wid += 1
        index = build_phonetic_index(lexicon)
        queries = sorted(lexicon)[::37][:120]
        recalls = []
        for word in queries:
            ann = index.neighbors(word, 10)
            dists = [dist for _, dist in ann]
            assert dists == sorted(dists)
            exact = {w for w, _ in index.exact_neighbors(word, 10)}
            recalls.append(len({w for w, _ in ann} & exact) / 10)
        mean_recall = float(np.mean(recalls))
        print(f"  ann recall@10 = {mean_recall:.4f}")
        assert mean_recall >= 0.9


class SelectionOracleGenerator:
    """Emits the reference response for the turn id baked into a table."""

    def __init__(self, responses):
        self.responses = responses
        self.current = None

    def generate_nbest(self, context, n):
        return [(self.responses.get(self.current, "ok"), -0.1)]


def test_criterion_9_end_to_end():
    with criterion(9, "end-to-end pipeline: oracle perfection, trained determinism"):
        start = time.time()
        dialogues, kb, _ = build_mini_corpus(MiniCorpusConfig(seed=11))
        truth = {d.id: d.label for d in dialogues}
        entities_by_key = {e.key: e for e in kb.entities}

        def detector(dialogue):
            return 1.0 if truth[dialogue.id].is_knowledge_seeking else 0.0

        def tracker(dialogue, kb_):
            return [entities_by_key[(dom, eid)]
                    for dom, eid, _ in truth[dialogue.id].knowledge_refs]

        def ranker(dialogue, candidates, tracked):
            refs = set(truth[dialogue.id].knowledge_refs)
            scored = sorted(((s, 1.0 if s.key in refs else 0.0)
                             for s in candidates), key=lambda t: -t[1])
            return RankedKnowledgeList(dialogue.id, tuple(scored[:5]))

        responses = {d.id: truth[d.id].response for d in dialogues
                     if truth[d.id].is_knowledge_seeking}

        class PerTurnOracle:
            def __init__(self):
                self.turn = None

            def generate_nbest(self, context, n):
                return [(responses[self.turn], -0.1)]

        oracle_gen = PerTurnOracle()
        components = DecodeComponents(
            detector=detector, tracker=tracker, ranker=ranker,
            generator=oracle_gen,
            consensus_weights=ConsensusWeights.uniform(), nbest=1)

        records = []
        from kgdial.corpus import strip_labels
        for d in strip_labels(dialogues):
            oracle_gen.turn = d.id
            records.extend(end_to_end_decode([d], kb, components))
        validate_labels_schema(records)
        refs = [
            {"target": t.is_knowledge_seeking,
             "knowledge": [{"domain": dom, "entity_id": e, "doc_id": doc}
                           for dom, e, doc in t.knowledge_refs],
             "response": t.response}
            for t in (truth[d.id] for d in dialogues)]
        report = evaluate_predictions(records, refs)
        assert report.scores["detection-f1"] == 1.0
        assert report.scores["selection-r@1"] == 1.0

        # trained toy pipeline: deterministic full decode
        from kgdial.generate import GenTrainConfig, build_gen_examples, train_generator
        from kgdial.models import train_pair_classifier as train_detector

        seed = 11
        ks = [d for d in dialogues if d.label.is_knowledge_seeking]
        det_examples = [
            (linearize_history(d, 64), "", int(d.label.is_knowledge_seeking))
            for d in dialogues]
        det = train_detector(det_examples, TrainConfig(
            epochs=6, learning_rate=0.02, batch_size=32, seed=seed, d=16, max_len=64))
        pw = train_pointwise(ks, kb, PointwiseConfig(
            use_mtl=False, variant=Variant.WD2, epochs=8, learning_rate=0.01,
            batch_size=16, seed=seed, d=16, max_len=96))
        selection_outputs = {}
        for d in ks:
            tracked = fuzzy_match_entities(d, kb, 0.5)
            ranked = pointwise_rank(pw, d, collect_candidates(tracked, kb),
                                    kb=kb, tracked=tracked)
            selection_outputs[d.id] = [s for s, _ in ranked.items]
        gen_cfg = GenTrainConfig(epochs=10, batch_size=32, learning_rate=0.01,
                                 max_history_tokens=96, max_target_tokens=24,
                                 p_s=0.15, seed=seed, d=24)
        examples = build_gen_examples(ks, selection_outputs, gen_cfg,
                                      np.random.default_rng(seed))
        generator, _ = train_generator(examples, gen_cfg)

        def trained_detector(dialogue):
            return det.score(linearize_history(dialogue, 64), "")

        def trained_tracker(dialogue, kb_):
            return fuzzy_match_entities(dialogue, kb_, 0.5)

        def trained_ranker(dialogue, candidates, tracked):
            return pointwise_rank(pw, dialogue, candidates, kb=kb, tracked=tracked)

        trained = DecodeComponents(
            detector=trained_detector, tracker=trained_tracker,
            ranker=trained_ranker, generator=generator,
            consensus_weights=ConsensusWeights.uniform(), nbest=3)
        run1 = end_to_end_decode(dialogues, kb, trained, max_history_tokens=96)
        run2 = end_to_end_decode(dialogues, kb, trained, max_history_tokens=96)
        assert run1 == run2
        validate_labels_schema(run1)
        elapsed = time.time() - start
        print(f"  end-to-end wall time {elapsed:.1f}s")
        assert elapsed < 900, f"end-to-end took {elapsed:.1f}s"
