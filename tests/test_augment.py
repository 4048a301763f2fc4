import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdial.augment import (
    AdapterError, AugmentConfig, AugmentError, FakeSpeechAdapter,
    augment_corpus, augment_entity_name, build_phonetic_index,
    embed_phonemes, inject_errors, load_lexicon, phonetic_neighbors,
    tst_transform,
)
from kgdial.augment import _rebuild
from kgdial.corpus import Dialogue, KnowledgeSnippet, Speaker, Turn
from kgdial.synth import MiniCorpusConfig, build_mini_corpus

TOY_LEXICON = {
    "can": ["K", "AE", "N"],
    "i": ["AY"],
    "cooking": ["K", "UH", "K", "IH", "NG"],
    "booking": ["B", "UH", "K", "IH", "NG"],
    "at": ["AE", "T"],
    "hamilton": ["HH", "AE", "M", "AH", "L", "T", "AH", "N"],
    "lodge": ["L", "AA", "JH"],
    "launch": ["L", "AO", "N", "CH"],
    "zebra": ["Z", "IY", "B", "R", "AH"],
}


@pytest.fixture(scope="module")
def toy_index():
    return build_phonetic_index(TOY_LEXICON)


def dict_probing_candidates(index, vec):
    """`PhoneticIndex._candidates` as one dict of buckets per table, probed
    with every signature within two flipped bits of the query's, the found
    ids collected in a set."""
    found = set()
    for t in range(index.n_tables):
        table = {}
        for idx, sig in enumerate(index._signatures(index.embeddings, t).tolist()):
            table.setdefault(sig, []).append(idx)
        sig = int(index._signatures(vec[None, :], t)[0])
        probes = [sig]
        probes.extend(sig ^ (1 << b) for b in range(index.n_bits))
        for b1 in range(index.n_bits):
            for b2 in range(b1 + 1, index.n_bits):
                probes.append(sig ^ (1 << b1) ^ (1 << b2))
        for p in probes:
            found.update(table.get(p, ()))
    return np.fromiter(found, dtype=np.int64, count=len(found))


def user_dialogue(text, id="d0"):
    return Dialogue(id=id, turns=(Turn(Speaker.USER, text),))


def snippet(name, entity_id="1"):
    return KnowledgeSnippet(domain="hotel", entity_id=entity_id, entity_name=name,
                            question="q?", answer="a", doc_id="0")


class TestPhoneticIndex:
    def test_empty_lexicon_rejected(self):
        with pytest.raises(AugmentError):
            build_phonetic_index({})

    def test_similar_words_closer_than_unrelated(self, toy_index):
        # exact cosine oracle straight from the stored embeddings
        def exact_angular(w1, w2):
            cos = float(toy_index.embed(w1) @ toy_index.embed(w2))
            return math.acos(max(-1.0, min(1.0, cos)))

        assert exact_angular("lodge", "launch") < exact_angular("lodge", "zebra")

    def test_identical_phonemes_distance_zero(self):
        a = embed_phonemes(["L", "AA", "JH"])
        b = embed_phonemes(["L", "AA", "JH"])
        assert math.acos(min(1.0, float(a @ b))) == pytest.approx(0.0, abs=1e-12)

    def test_single_word_index_has_no_neighbors(self):
        index = build_phonetic_index({"only": ["OW", "N", "L", "IY"]})
        assert phonetic_neighbors(index, "only", 1) == []

    @pytest.mark.parametrize("lexicon", ["toy", "synth", "synth-5"])
    def test_candidates_equal_dict_probing(self, toy_index, lexicon):
        """The query's signatures in all tables come from one stacked
        product; the candidates equal those of per-table signatures, on
        every word of the lexicon (the quick start's, synth seed 5, too),
        words outside it and random vectors."""
        index = toy_index
        words = list(TOY_LEXICON) + ["zzyzx", "bookings"]
        if lexicon != "toy":
            index = build_phonetic_index(build_mini_corpus(MiniCorpusConfig(
                n_dialogues=4, seed=1 if lexicon == "synth" else 5))[2])
            words = index.vocabulary + ["zzyzx", "hamiltons", "bookings",
                                        "qwerty", "lodges"]
        assert index.probe_radius == 2
        rng = np.random.default_rng(2)
        vecs = [index.embed(w) for w in words]
        vecs += list(rng.normal(size=(20, index.embeddings.shape[1])))
        for vec in vecs:
            got = index._candidates(vec)
            expected = dict_probing_candidates(index, vec)
            assert np.array_equal(got, np.sort(expected))
            if lexicon != "toy":  # set order: ascending ids on these lexicons
                assert np.array_equal(got, expected)

    def test_neighbors_sorted_by_exact_distance(self, toy_index):
        got = toy_index.neighbors("lodge", 4)
        dists = [d for _, d in got]
        assert dists == sorted(dists)
        exact = dict(toy_index.exact_neighbors("lodge", len(toy_index.vocabulary)))
        for w, d in got:
            assert exact[w] == pytest.approx(d, abs=1e-12)

    def test_cooking_nearest_is_booking(self, toy_index):
        assert phonetic_neighbors(toy_index, "cooking", 1) == ["booking"]

    def test_oov_word_uses_char_fallback(self, toy_index):
        got = phonetic_neighbors(toy_index, "lunch", 3)
        assert isinstance(got, list)  # no crash and no self, just neighbors
        assert "lunch" not in got

    def test_all_similar_words_recalled(self, toy_index):
        # orthogonal words tie at pi/2 and may be scattered by the hash;
        # every strictly similar neighbor must be found
        for word in TOY_LEXICON:
            ann = set(phonetic_neighbors(toy_index, word, 5))
            near = {w for w, d in toy_index.exact_neighbors(word, 5)
                    if d < math.pi / 2 - 1e-9}
            assert near <= ann


class TestLexiconFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# comment\nlodge\tL AA JH\nLAUNCH\tL AO N CH\n")
        lex = load_lexicon(str(path))
        assert lex == {"lodge": ["L", "AA", "JH"], "launch": ["L", "AO", "N", "CH"]}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("no-tab-here\n")
        with pytest.raises(AugmentError, match="line 1"):
            load_lexicon(str(path))


class TestInjectErrors:
    def test_table_fixture(self, toy_index):
        cfg = AugmentConfig(neighbor_k=1)
        out = inject_errors("can I cooking at Hamilton lodge", toy_index, cfg,
                            np.random.default_rng(6))
        assert out == "can I booking at Hamilton launch"

    def test_replacement_count_is_ceiling(self, toy_index):
        cfg = AugmentConfig(neighbor_k=3)
        text = "can i cooking at hamilton lodge zebra can i cooking"  # 10 words
        for seed in range(40):
            rng = np.random.default_rng(seed)
            r = np.random.default_rng(seed).uniform(0.1, 0.3)
            out = inject_errors(text, toy_index, cfg, rng)
            changed = sum(a != b for a, b in zip(text.split(), out.split()))
            assert changed <= math.ceil(r * 10)
            assert len(out.split()) == 10

    def test_replacements_are_phonetic_neighbors(self, toy_index):
        cfg = AugmentConfig(neighbor_k=3)
        text = "cooking lodge cooking lodge cooking lodge cooking lodge cooking lodge"
        rng = np.random.default_rng(11)
        out = inject_errors(text, toy_index, cfg, rng)
        for orig, new in zip(text.split(), out.split()):
            if new != orig:
                assert new in phonetic_neighbors(toy_index, orig, 3)

    def test_single_word_always_attempted(self, toy_index):
        cfg = AugmentConfig(neighbor_k=1)
        out = inject_errors("cooking", toy_index, cfg, np.random.default_rng(0))
        assert out == "booking"  # ceil(r*1)=1 and the top neighbor is forced

    def test_tags_excluded(self, toy_index):
        cfg = AugmentConfig(neighbor_k=1)
        text = "⟨user⟩ cooking"
        out = inject_errors(text, toy_index, cfg, np.random.default_rng(0))
        assert out.startswith("⟨user⟩ ")

    def test_deterministic(self, toy_index):
        cfg = AugmentConfig(neighbor_k=2)
        a = inject_errors("can i cooking at hamilton lodge", toy_index, cfg,
                          np.random.default_rng(42))
        b = inject_errors("can i cooking at hamilton lodge", toy_index, cfg,
                          np.random.default_rng(42))
        assert a == b


class TestEntityNameAugment:
    def test_positive_table_fixture(self):
        d = user_dialogue("can I cooking at Hamilton lodge")
        cfg = AugmentConfig(ena_probability=1.0)
        out = augment_entity_name(d, snippet("Hamilton Lodge"), True, cfg,
                                  np.random.default_rng(23))
        assert out.turns[0].text == "can I cooking lodge at Hamilton"

    def test_negative_table_fixture(self):
        d = user_dialogue("can I cooking at Hamilton lodge")
        cfg = AugmentConfig(ena_probability=1.0)
        out = augment_entity_name(d, snippet("SW Hotel", "2"), False, cfg,
                                  np.random.default_rng(19))
        assert out.turns[0].text == "can I SW Hotel cooking at Hamilton lodge"

    def test_probability_zero_is_identity(self):
        d = user_dialogue("can I cooking at Hamilton lodge")
        cfg = AugmentConfig(ena_probability=0.0)
        out = augment_entity_name(d, snippet("Hamilton Lodge"), True, cfg,
                                  np.random.default_rng(0))
        assert out is d

    def test_positive_without_deletion_preserves_multiset(self):
        d = user_dialogue("please book the Grand River Hotel for two nights")
        cfg = AugmentConfig(ena_probability=1.0, ena_delete_prob=0.0)
        for seed in range(30):
            out = augment_entity_name(d, snippet("Grand River Hotel"), True, cfg,
                                      np.random.default_rng(seed))
            assert Counter(out.turns[0].text.split()) == Counter(d.turns[0].text.split())

    def test_single_word_name_skips_split(self):
        d = user_dialogue("is the Ritz open")
        cfg = AugmentConfig(ena_probability=1.0, ena_delete_prob=0.0)
        out = augment_entity_name(d, snippet("Ritz"), True, cfg,
                                  np.random.default_rng(1))
        assert out.turns[0].text == d.turns[0].text

    def test_applied_rate_tracks_probability(self):
        d = user_dialogue("visit the Palm Court today")
        cfg = AugmentConfig(ena_probability=0.3, ena_delete_prob=0.0)
        rng = np.random.default_rng(7)
        applied = sum(
            augment_entity_name(d, snippet("Palm Court"), True, cfg, rng) is not d
            for _ in range(10000))
        assert 0.28 <= applied / 10000 <= 0.32


def reference_augment_entity_name(dialogue, candidate, is_positive, config, rng):
    """`augment_entity_name` as first written: every turn resolved and
    rebuilt, and the gap drawn from a list of all (turn, gap) pairs."""
    if rng.uniform() >= config.ena_probability:
        return dialogue
    name_words = candidate.entity_name.split(" ")
    turn_words = [t.text.split(" ") for t in dialogue.turns]
    target = [w.lower() for w in name_words]
    match = next(((ti, start) for ti, words in enumerate(turn_words)
                  for start in range(len(words) - len(target) + 1)
                  if [w.lower() for w in words[start:start + len(target)]] == target),
                 None)

    def insert(words):
        gaps = [(ti, g) for ti, tw in enumerate(turn_words) for g in range(len(tw) + 1)]
        ti, g = gaps[int(rng.integers(len(gaps)))]
        turn_words[ti][g:g] = words

    if is_positive and match is not None:
        ti, start = match
        w = len(name_words)
        surface = turn_words[ti][start:start + w]
        sentinels = [("\x00ent", i) for i in range(w)]
        turn_words[ti][start:start + w] = sentinels
        if w >= 2:
            split = int(rng.integers(1, w))
            moving = sentinels[:split] if rng.integers(2) else sentinels[split:]
            turn_words[ti] = [x for x in turn_words[ti] if x not in moving]
            insert(list(moving))
        dropped = {i for i in range(w) if rng.uniform() < config.ena_delete_prob}
        turn_words = [[surface[x[1]] if isinstance(x, tuple) else x for x in words
                       if not isinstance(x, tuple) or x[1] not in dropped]
                      for words in turn_words]
    elif not is_positive and match is None:
        insert(list(name_words))
    else:
        return dialogue
    # a turn left blank keeps its text: a Turn cannot be empty
    return Dialogue(id=dialogue.id, label=dialogue.label, turns=tuple(
        Turn(t.speaker, " ".join(words)) if " ".join(words).strip() else t
        for t, words in zip(dialogue.turns, turn_words)))


ENA_WORDS = st.sampled_from(["can", "I", "book", "Hamilton", "lodge", "the", "Grand",
                             "River", "Hotel", "hotel", "river", "?", "a,", "Ritz",
                             "ΟΔΟΣ", "Σ", "İstanbul", "", "RITZ"])


class TestEntityNameRewrites:
    """Rewrites replace only the turns they touch, with the draws and texts
    of the first implementation."""

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(st.lists(ENA_WORDS, min_size=1, max_size=9).map(" ".join)
                          .filter(str.strip), min_size=1, max_size=5),
           name=st.sampled_from(["Hamilton Lodge", "Grand River Hotel", "Ritz",
                                 "River Hotel", "SW Hotel", "Οδος Σ", "istanbul"]),
           positive=st.booleans(), delete=st.sampled_from([0.0, 0.5]),
           seed=st.integers(0, 2 ** 16))
    # the only word of a turn that starts with a space is the deleted name
    @example(texts=[" RITZ"], name="Ritz", positive=True, delete=0.5, seed=0)
    def test_equals_reference_and_keeps_untouched_turns(self, texts, name, positive,
                                                        delete, seed):
        d = Dialogue(id="d", turns=tuple(
            Turn(Speaker.USER if i % 2 == 0 else Speaker.SYSTEM, text)
            for i, text in enumerate(texts)))
        cfg = AugmentConfig(ena_probability=1.0, ena_delete_prob=delete)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = augment_entity_name(d, snippet(name), positive, cfg, rng)
        expected = reference_augment_entity_name(d, snippet(name), positive, cfg,
                                                 ref_rng)
        assert out.turns == expected.turns
        assert rng.random() == ref_rng.random()  # the same draws
        changed = [t for t, before in zip(out.turns, d.turns) if t is not before]
        assert len(changed) <= 2
        assert all(t != before for t, before in zip(out.turns, d.turns)
                   if t is not before)

    def test_rebuild_keeps_untouched_turns(self):
        d = Dialogue(id="d", turns=(Turn(Speaker.USER, "book the Ritz"),
                                    Turn(Speaker.SYSTEM, "sure thing"),
                                    Turn(Speaker.USER, "is it open")))
        out = _rebuild(d, {1: ["sure", "Ritz", "thing"]})
        assert out is not d
        assert out.turns[0] is d.turns[0] and out.turns[2] is d.turns[2]
        assert out.turns[1].text == "sure Ritz thing"
        # a turn rewritten to its own text, or left without words, keeps its Turn
        out = _rebuild(d, {0: ["book", "the", "Ritz"], 2: [], 1: [""]})
        assert all(t is before for t, before in zip(out.turns, d.turns))


class TestSpeechAdapter:
    def test_table_fixture(self):
        fake = FakeSpeechAdapter({"at": "and high", "hamilton": "museum",
                                  "lodge": "large"})
        out = tst_transform("can I cooking at Hamilton lodge", fake)
        assert out == "can I cooking and high museum large"

    def test_identity_adapter(self):
        out = tst_transform("hello there", lambda s: s)
        assert out == "hello there"

    def test_failure_carries_utterance(self):
        def boom(_):
            raise RuntimeError("asr down")

        with pytest.raises(AdapterError, match="hello"):
            tst_transform("hello", boom)

    def test_confusion_file(self, tmp_path):
        path = tmp_path / "conf.tsv"
        path.write_text("at\tand high\nhamilton\tmuseum\n")
        fake = FakeSpeechAdapter.from_file(str(path))
        assert fake("stay at Hamilton") == "stay and high museum"


class TestAugmentCorpus:
    def make_corpus(self, n=10):
        return [user_dialogue("can I cooking at Hamilton lodge", id=f"d{i}")
                for i in range(n)]

    def test_aei_doubles(self, toy_index):
        cfg = AugmentConfig(seed=5)
        out = augment_corpus(self.make_corpus(100), toy_index, cfg, tasks={"AEI"})
        assert len(out) == 200

    def test_aei_plus_tst_triples(self, toy_index):
        cfg = AugmentConfig(seed=5)
        fake = FakeSpeechAdapter({"lodge": "large"})
        out = augment_corpus(self.make_corpus(100), toy_index, cfg, adapter=fake,
                             tasks={"AEI", "TST"})
        assert len(out) == 300

    def test_tst_without_adapter_rejected(self, toy_index):
        with pytest.raises(AugmentError, match="adapter"):
            augment_corpus(self.make_corpus(2), toy_index, AugmentConfig(), tasks={"TST"})

    def test_seed_reproducibility(self, toy_index):
        cfg = AugmentConfig(seed=99)
        a = augment_corpus(self.make_corpus(20), toy_index, cfg, tasks={"AEI"})
        b = augment_corpus(self.make_corpus(20), toy_index, cfg, tasks={"AEI"})
        assert [d.turns for d in a] == [d.turns for d in b]
        assert [d.id for d in a] == [d.id for d in b]
