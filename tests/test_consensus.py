import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial import consensus, metrics
from kgdial.consensus import (
    Candidate, CandidatePool, ConsensusError, ConsensusWeights, TuneConfig,
    consensus_select, pool_features,
    save_weights, load_weights, tune_weights,
)
from kgdial.generate import GenTrainConfig
from kgdial.metrics import (bleu_n, char_f, corpus_bleu, meteor_lite, rouge_l,
                            rouge_n)

from test_metrics import (oracle_bleu, oracle_char_f, oracle_meteor,
                          oracle_rouge_l, oracle_rouge_n)


def cand(text, system="s1", rank=1, logprob=-1.0):
    return Candidate(text=text, system_id=system, rank=rank, logprob=logprob)


def pool(turn, *cands):
    return CandidatePool(turn_id=turn, candidates=tuple(cands))


class TestPoolValidation:
    def test_duplicate_system_rank_rejected(self):
        with pytest.raises(ConsensusError, match="duplicate"):
            pool("t", cand("a", "s1", 1), cand("b", "s1", 1))

    def test_noncontiguous_ranks_rejected(self):
        with pytest.raises(ConsensusError, match="contiguous"):
            pool("t", cand("a", "s1", 1), cand("b", "s1", 3))


class TestExtractFeatures:
    def test_singleton_pool(self):
        p = pool("t", cand("hello there", rank=1))
        feats = pool_features(p)[0]
        assert np.array_equal(feats[:9], np.zeros(9))
        assert feats[9] == 1.0

    def test_identical_texts_metric_values(self):
        text = "the room allows pets"
        p = pool("t", cand(text, "s1", 1), cand(text, "s2", 1), cand(text, "s3", 1))
        feats = pool_features(p)[0]
        # similarity features equal each metric on identical strings
        assert feats[0] == pytest.approx(bleu_n(text, text, 1))
        assert feats[3] == pytest.approx(bleu_n(text, text, 4))
        assert feats[4] == pytest.approx(rouge_n(text, text, 1))
        assert feats[6] == pytest.approx(rouge_l(text, text))
        assert feats[7] == pytest.approx(meteor_lite(text, text))
        assert feats[8] == pytest.approx(char_f(text, text))
        assert feats[:7].tolist() == pytest.approx([1.0] * 7)

    def test_three_candidate_fixture_means(self):
        texts = ["the cat sat", "the cat stood", "a dog ran"]
        p = pool("t", *(cand(t, f"s{i}", 1) for i, t in enumerate(texts)))
        feats = pool_features(p)[0]
        expect_rouge1 = (rouge_n(texts[0], texts[1], 1)
                         + rouge_n(texts[0], texts[2], 1)) / 2
        assert feats[4] == pytest.approx(expect_rouge1)
        expect_bleu1 = (bleu_n(texts[0], texts[1], 1)
                        + bleu_n(texts[0], texts[2], 1)) / 2
        assert feats[0] == pytest.approx(expect_bleu1)

    def test_reciprocal_rank(self):
        p = pool("t", cand("a a", "s1", 1), cand("b b", "s1", 2), cand("c c", "s1", 3))
        assert pool_features(p)[2][9] == pytest.approx(1 / 3)

    def test_permutation_invariance_over_peers(self):
        texts = ["x y z", "x y w", "u v w"]
        p1 = pool("t", cand(texts[0], "s1", 1), cand(texts[1], "s2", 1),
                  cand(texts[2], "s3", 1))
        p2 = pool("t", cand(texts[0], "s1", 1), cand(texts[2], "s3", 1),
                  cand(texts[1], "s2", 1))
        f1 = pool_features(p1)[0]
        f2 = pool_features(p2)[0]
        assert np.allclose(f1, f2)


# the definitions pool_features must reproduce bit for bit, in feature order
ORACLE_SIMILARITIES = (
    lambda h, r: bleu_n(h, r, 1),
    lambda h, r: bleu_n(h, r, 2),
    lambda h, r: bleu_n(h, r, 3),
    lambda h, r: bleu_n(h, r, 4),
    lambda h, r: rouge_n(h, r, 1),
    lambda h, r: rouge_n(h, r, 2),
    rouge_l,
    meteor_lite,
    char_f,
)


# the same definitions written out by brute force, independently of metrics
BRUTE_FORCE_SIMILARITIES = (
    lambda h, r: oracle_bleu(h, r, 1),
    lambda h, r: oracle_bleu(h, r, 2),
    lambda h, r: oracle_bleu(h, r, 3),
    lambda h, r: oracle_bleu(h, r, 4),
    lambda h, r: oracle_rouge_n(h, r, 1),
    lambda h, r: oracle_rouge_n(h, r, 2),
    oracle_rouge_l,
    oracle_meteor,
    oracle_char_f,
)


def oracle_features(p, similarities=ORACLE_SIMILARITIES):
    """Each candidate's metric against every other one, averaged in pool
    order, then 1/rank."""
    rows = []
    for i, c in enumerate(p.candidates):
        others = [o for j, o in enumerate(p.candidates) if j != i]
        row = [sum(metric(c.text, o.text) for o in others) / len(others)
               if others else 0.0 for metric in similarities]
        rows.append(row + [1.0 / c.rank])
    return np.array(rows)


# stem-related words, tags, punctuation and a casing variant
WORDS = ("the", "a", "room", "rooms", "roomy", "book", "booked", "booking",
         "bookings", "pet", "pets", "allowed", "allows", "is", "Room", "café",
         "?", "!", ".", ",", "'s", "⟨ent⟩", "⟨sys⟩")
TEXTS = st.one_of(
    st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join),
    st.lists(st.sampled_from("?!.,"), min_size=1, max_size=4).map(" ".join),
    st.just(""),
)


@st.composite
def candidate_pools(draw, max_size=6):
    """1..max_size candidates over 1-3 systems, texts drawn from a small
    palette so that duplicates are common."""
    palette = draw(st.lists(TEXTS, min_size=1, max_size=4))
    n = draw(st.integers(1, max_size))
    ranks: dict[str, int] = {}
    cands = []
    for _ in range(n):
        system = draw(st.sampled_from(("s1", "s2", "s3")))
        ranks[system] = ranks.get(system, 0) + 1
        cands.append(cand(draw(st.sampled_from(palette)), system, ranks[system],
                          -draw(st.floats(0.0, 10.0))))
    return pool("t", *cands)


class TestPoolFeaturesMatchMetrics:
    @settings(max_examples=300, deadline=None)
    @given(candidate_pools())
    def test_bit_identical_to_metric_definitions(self, p):
        assert np.array_equal(pool_features(p), oracle_features(p))

    # texts longer than 64 tokens, where repeats and stem matches abound
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(WORDS), min_size=60, max_size=90)
                    .map(" ".join), min_size=2, max_size=4))
    def test_bit_identical_on_long_texts(self, texts):
        p = pool("t", *(cand(t, "s1", i + 1) for i, t in enumerate(texts)))
        assert np.array_equal(pool_features(p), oracle_features(p))

    @settings(max_examples=300, deadline=None)
    @given(candidate_pools())
    def test_close_to_brute_force_definitions(self, p):
        np.testing.assert_allclose(
            pool_features(p), oracle_features(p, BRUTE_FORCE_SIMILARITIES),
            rtol=0, atol=1e-9)

    def test_tokenizes_each_text_once_then_none(self, monkeypatch):
        seen = []
        real = metrics.tokenize

        def counting(text):
            seen.append(text)
            return real(text)

        monkeypatch.setattr(metrics, "tokenize", counting)
        texts = ["the room allows pets", "the rooms allow pets .", "", "?",
                 "the room allows pets"]
        p = pool("t", *(cand(t, "s1", i + 1) for i, t in enumerate(texts)))
        consensus._pair_sims.cache_clear()
        first = pool_features(p)
        assert sorted(seen) == sorted(set(texts))
        seen.clear()
        assert np.array_equal(pool_features(p), first)
        assert seen == []

    @settings(max_examples=300, deadline=None)
    @given(candidate_pools())
    def test_kept_similarities_serve_either_order(self, p):
        consensus._pair_sims.cache_clear()
        cold = pool_features(p)
        assert np.array_equal(cold, oracle_features(p))
        consensus._pair_sims.cache_clear()
        # the same texts, in the other order
        pool_features(pool("u", *(cand(c.text, "s1", k + 1) for k, c
                                  in enumerate(reversed(p.candidates)))))
        misses = consensus._pair_sims.cache_info().misses
        assert np.array_equal(pool_features(p), cold)
        assert consensus._pair_sims.cache_info().misses == misses

    def test_a_full_cache_keeps_under_a_megabyte(self):
        """Every kept pair holds two texts of the generator's longest
        output, which only it references."""
        words = WORDS[:-2]
        rng = random.Random(0)
        tokens = GenTrainConfig().max_target_tokens

        def features(a, b):
            pool_features(pool("t", cand(a, "s1"), cand(b, "s2")))

        def text(i):
            return " ".join(rng.choice(words) for _ in range(tokens - 1)) + f" w{i}"

        # set-up that any metric use pays, and the interpreter's tuple free
        # lists filled by one long pair: neither is kept by the cache
        features(text(-1), " ".join([text(-2)] * 40))
        consensus._pair_sims.cache_clear()
        size = consensus._pair_sims.cache_info().maxsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(size + 1):
                features(text(2 * k), text(2 * k + 1))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert consensus._pair_sims.cache_info().currsize == size
        assert kept < 1_000_000

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(candidate_pools(max_size=4), TEXTS, st.integers(0, 3)),
        min_size=1, max_size=5))
    def test_tuning_objective_is_corpus_bleu(self, dev):
        dev_pools = [p for p, _, _ in dev]
        references = [ref for _, ref, _ in dev]
        selection = [k % len(p.candidates) for p, _, k in dev]
        stats = [[metrics.text_stats(c.text) for c in p.candidates]
                 for p in dev_pools]
        objective = consensus._selection_bleu(stats, references)
        expected = corpus_bleu([(p.candidates[k].text, ref) for p, ref, k
                                in zip(dev_pools, references, selection)], n=4)
        assert objective(selection) == expected


class TestConsensusSelect:
    def test_single_candidate(self):
        p = pool("t", cand("only one"))
        assert consensus_select(p, ConsensusWeights.uniform()).text == "only one"

    def test_zero_weights_tie_break_logprob(self):
        p = pool("t", cand("low", "s1", 1, logprob=-5.0),
                 cand("high", "s2", 1, logprob=-0.5))
        w = ConsensusWeights(np.zeros(10))
        assert consensus_select(p, w).text == "high"

    def test_reciprocal_rank_only_picks_a_rank_one(self):
        p = pool("t",
                 cand("a b c", "s1", 1, -3.0), cand("d e f", "s1", 2, -1.0),
                 cand("g h i", "s2", 1, -2.0), cand("j k l", "s2", 2, -0.5))
        w = ConsensusWeights(np.eye(10)[9] * 1.0)
        assert consensus_select(p, w).rank == 1

    def test_scale_invariance(self):
        texts = ["the cat sat on the mat", "the cat sat on a mat",
                 "dogs bark loudly", "the cat stood on the mat"]
        p = pool("t", *(cand(t, f"s{i}", 1, -float(i)) for i, t in enumerate(texts)))
        w1 = ConsensusWeights(np.linspace(0.1, 1.0, 10))
        w7 = ConsensusWeights(w1.values * 7.0)
        assert consensus_select(p, w1).text == consensus_select(p, w7).text

    def test_empty_pool_rejected(self):
        with pytest.raises(ConsensusError):
            consensus_select(CandidatePool("t", ()), ConsensusWeights.uniform())


def make_dev(n_pools=6):
    """One strictly better system: sys-good emits the reference, sys-bad noise."""
    pools = []
    refs = {}
    for i in range(n_pools):
        ref = f"the hotel {i} allows small pets in every room"
        refs[f"t{i}"] = ref
        pools.append(pool(
            f"t{i}",
            cand(ref, "sys-good", 1, -2.0),
            cand(f"completely unrelated words {i} here", "sys-bad", 1, -1.0),
            cand(f"the hotel {i} allows pets", "sys-mid", 1, -1.5),
        ))
    return pools, refs


class TestTuneWeights:
    """Tuning is judged by the corpus BLEU-4 of the ``consensus_select``
    picks against the references, the score it climbs."""

    @staticmethod
    def bleu(pools, refs, weights):
        return corpus_bleu([(consensus_select(p, weights).text, refs[p.turn_id])
                            for p in pools])

    def test_moves_mass_to_better_system(self):
        pools, refs = make_dev()
        # start from weights that pick the noisy system (its logprob wins ties)
        init = ConsensusWeights(np.zeros(10))
        tuned = tune_weights(pools, refs, init, TuneConfig(restarts=2, seed=0))
        final = self.bleu(pools, refs, tuned)
        oracle = self.bleu(
            pools, refs, ConsensusWeights(np.eye(10)[0]))  # similarity picks good
        for p in pools:
            assert consensus_select(p, tuned).system_id in ("sys-good", "sys-mid")
        assert final >= self.bleu(pools, refs, init)
        assert final == pytest.approx(max(final, oracle))

    def test_already_optimal_init_keeps_bleu(self):
        pools, refs = make_dev()
        init = ConsensusWeights(np.ones(10))
        before = self.bleu(pools, refs, init)
        tuned = tune_weights(pools, refs, init, TuneConfig(restarts=1, seed=1))
        assert self.bleu(pools, refs, tuned) >= before - 1e-12

    def test_monotone_over_seeds(self):
        pools, refs = make_dev(4)
        init = ConsensusWeights(np.full(10, 0.1))
        before = self.bleu(pools, refs, init)
        for seed in range(5):
            tuned = tune_weights(pools, refs, init,
                                 TuneConfig(restarts=2, seed=seed))
            assert self.bleu(pools, refs, tuned) >= before - 1e-12

    def test_no_references_error(self):
        pools, _ = make_dev(2)
        with pytest.raises(ConsensusError, match="missing"):
            tune_weights(pools, {}, ConsensusWeights.uniform())


class TestIO:
    def test_weights_round_trip(self, tmp_path):
        w = ConsensusWeights(np.linspace(-1, 1, 10))
        path = str(tmp_path / "w.json")
        save_weights(w, path)
        again = load_weights(path)
        assert np.allclose(again.values, w.values)
        header = json.load(open(path))
        assert header["features"][0] == "sim-bleu1"
