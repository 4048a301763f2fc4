import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial import entity_track, models
from kgdial.corpus import (
    DOMAIN_LEVEL, Dialogue, KnowledgeBase, KnowledgeSnippet, Speaker, Turn,
    linearize_entity, linearize_history, tokenize,
)
from kgdial.entity_track import (
    collect_candidates, entity_recall, exact_match_entities,
    fuzzy_match_entities, fuzzy_similarity, track_entities,
)
from kgdial.models import ToyEncoder, ToyPairScorer, build_vocab


def snip(domain="hotel", entity_id="1", name="Hamilton Lodge", doc_id="0"):
    return KnowledgeSnippet(domain=domain, entity_id=entity_id, entity_name=name,
                            question=f"q{doc_id}?", answer=f"a{doc_id}",
                            doc_id=doc_id)


def make_kb():
    return KnowledgeBase([
        snip("hotel", "1", "Hamilton Lodge", "0"),
        snip("hotel", "1", "Hamilton Lodge", "1"),
        snip("hotel", "2", "SW Hotel", "0"),
        snip("hotel", DOMAIN_LEVEL, "hotel", "0"),
        snip("restaurant", "9", "Palm Court", "0"),
    ])


def dlg(*texts):
    turns = tuple(
        Turn(Speaker.USER if i % 2 == 0 else Speaker.SYSTEM, t)
        for i, t in enumerate(texts))
    return Dialogue(id="d0", turns=turns)


def names(entities):
    return sorted(e.name for e in entities)


class TestExactMatch:
    def test_case_folded_match(self):
        got = exact_match_entities(dlg("can I cooking at hamilton lodge"), make_kb())
        # the domain pseudo-entity "hotel" is not mentioned; only the entity
        assert names(got) == ["Hamilton Lodge"]

    def test_corrupted_name_not_matched(self):
        got = exact_match_entities(dlg("can I cooking at Hamilton launch"), make_kb())
        assert names(got) == []

    def test_scrambled_name_not_matched(self):
        got = exact_match_entities(dlg("cooking lodge at Hamilton please"), make_kb())
        assert names(got) == []

    def test_domain_pseudo_entity_by_domain_token(self):
        got = exact_match_entities(dlg("any hotel will do"), make_kb())
        assert names(got) == ["hotel"]


def _contains_subseq(haystack, needle):
    n = len(needle)
    if n == 0 or n > len(haystack):
        return False
    return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))


def exact_reference(dialogue, kb):
    """The definition exact_match_entities must reproduce: every entity's
    name tokens searched in every utterance."""
    utterances = [tokenize(t.text) for t in dialogue.turns]
    return [e for e in kb.entities
            if any(_contains_subseq(u, tokenize(e.name)) for u in utterances)]


# "Palm" is a prefix of "Palm Court", "court" of "Court Palm"; "hotel" is
# also a domain; "!" is a name of punctuation only
EXACT_NAMES = ("Palm", "Palm Court", "Court Palm", "palm court palm", "SW Hotel",
               "hotel", "Hotel Hotel", "!", "Lodge")
EXACT_WORDS = ("palm", "Palm", "court", "COURT", "sw", "hotel", "lodge", "!",
               "the", "é")


@st.composite
def exact_cases(draw):
    picks = draw(st.lists(
        st.tuples(st.sampled_from(("hotel", "restaurant")),
                  st.sampled_from(EXACT_NAMES)),
        min_size=1, max_size=8))
    # the same name may recur in both domains
    snippets = [snip(domain, str(i), name, "0")
                for i, (domain, name) in enumerate(picks)]
    for domain in draw(st.sets(st.sampled_from(("hotel", "restaurant")))):
        snippets.append(snip(domain, DOMAIN_LEVEL, domain, "0"))
    kb = KnowledgeBase(snippets)
    turns = draw(st.lists(
        st.lists(st.sampled_from(EXACT_WORDS), min_size=1, max_size=8),
        max_size=5))
    return kb, dlg(*(" ".join(t) for t in turns))


class TestExactIndex:
    @settings(max_examples=300, deadline=None)
    @given(exact_cases())
    def test_equals_reference_definition(self, case):
        kb, dialogue = case
        assert exact_match_entities(dialogue, kb) == exact_reference(dialogue, kb)

    def test_duplicate_names_and_overlapping_mentions(self):
        kb = KnowledgeBase([
            snip("hotel", "1", "Palm", "0"),
            snip("restaurant", "2", "Palm", "0"),
            snip("restaurant", "3", "Palm Court", "0"),
            snip("restaurant", "4", "Court Hotel", "0"),
            snip("hotel", DOMAIN_LEVEL, "hotel", "0"),
        ])
        got = exact_match_entities(dlg("the palm court hotel"), kb)
        assert [e.key for e in got] == [
            ("hotel", "*"), ("hotel", "1"), ("restaurant", "2"),
            ("restaurant", "3"), ("restaurant", "4")]

    def test_name_without_tokens_never_matches(self):
        kb = KnowledgeBase([snip("hotel", "1", "   ", "0"),
                            snip("hotel", "2", "Lodge", "0")])
        assert names(exact_match_entities(dlg("the lodge ."), kb)) == ["Lodge"]

    def test_empty_dialogue_matches_nothing(self):
        assert exact_match_entities(dlg(), make_kb()) == []


class TestFuzzyMatch:
    def test_similarity_frozen_value(self):
        # edit distance("hamilton lodge", "hamilton launch") = 5, max len 15
        sim = fuzzy_similarity("Hamilton Lodge",
                               "can i cooking at hamilton launch".split())
        assert sim == pytest.approx(1 - 5 / 15)

    def test_threshold_behavior_on_noisy_name(self):
        noisy = dlg("can I cooking at Hamilton launch")
        assert "Hamilton Lodge" in names(fuzzy_match_entities(noisy, make_kb(), 0.6))
        assert "Hamilton Lodge" not in names(fuzzy_match_entities(noisy, make_kb(), 0.7))

    def test_exact_occurrence_is_similarity_one(self):
        d = dlg("book the SW Hotel now")
        assert fuzzy_similarity("SW Hotel", "book the sw hotel now".split()) == 1.0
        assert "SW Hotel" in names(fuzzy_match_entities(d, make_kb(), 1.0))

    def test_threshold_zero_matches_everything(self):
        got = fuzzy_match_entities(dlg("totally unrelated words"), make_kb(), 0.0)
        assert len(got) == len(make_kb().entities)

    def test_exact_subset_of_fuzzy(self):
        for text in ("can I cooking at hamilton lodge",
                     "the palm court is nice",
                     "sw hotel and hamilton launch"):
            d = dlg(text)
            kb = make_kb()
            exact = {e.key for e in exact_match_entities(d, kb)}
            fuzzy = {e.key for e in fuzzy_match_entities(d, kb, 1.0)}
            assert exact <= fuzzy


def fuzzy_reference(dialogue, kb, threshold):
    """The definition fuzzy_match_entities must reproduce: every entity
    scored against every utterance with fuzzy_similarity."""
    utterances = [tokenize(t.text) for t in dialogue.turns]
    return [e for e in kb.entities
            if max((fuzzy_similarity(e.name, u) for u in utterances),
                   default=0.0) >= threshold]


NAME_WORDS = ("Palm", "court", "SW", "Hotel", "hamilton", "LODGE", "a", "Bo")
# near misses, punctuation and characters outside every name's alphabet
NOISE_WORDS = NAME_WORDS + ("plam", "cort", "hotels", "lodg", "ß", "zz", "42",
                            "?", "court!", "é", "hamiltom")


name_kbs = st.lists(
    st.lists(st.sampled_from(NAME_WORDS), min_size=1, max_size=3).map(" ".join),
    min_size=1, max_size=6).map(
        lambda name_list: KnowledgeBase([snip("hotel", str(i), name, "0")
                                         for i, name in enumerate(name_list)]))
thresholds = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def fuzzy_cases(draw):
    kb = draw(name_kbs)
    phrase = draw(st.lists(st.sampled_from(NOISE_WORDS), min_size=1, max_size=4))
    # a turn cannot be blank; "?" is the shortest, one token and no letter
    turns = draw(st.lists(
        st.one_of(st.just(phrase), st.just(["?"]),
                  st.lists(st.sampled_from(NOISE_WORDS), min_size=1, max_size=8)),
        max_size=5))
    threshold = draw(thresholds)
    return kb, dlg(*(" ".join(t) for t in turns)), threshold


class TestFuzzyPruning:
    @settings(max_examples=300, deadline=None)
    @given(fuzzy_cases())
    def test_equals_reference_definition(self, case):
        kb, dialogue, threshold = case
        assert (fuzzy_match_entities(dialogue, kb, threshold)
                == fuzzy_reference(dialogue, kb, threshold))

    def test_similarity_exactly_at_threshold_is_kept(self):
        # "abcd" vs "abxy": distance 2 over length 4, similarity exactly 0.5
        kb = KnowledgeBase([snip("hotel", "1", "abcd", "0")])
        d = dlg("see abxy there")
        assert fuzzy_similarity("abcd", tokenize("see abxy there")) == 0.5
        assert names(fuzzy_match_entities(d, kb, 0.5)) == ["abcd"]
        assert fuzzy_match_entities(d, kb, math.nextafter(0.5, 1.0)) == []

    def test_non_dyadic_boundary_is_bit_identical(self):
        noisy = dlg("can I cooking at Hamilton launch")
        t = 1.0 - 5 / 15
        assert "Hamilton Lodge" in names(fuzzy_match_entities(noisy, make_kb(), t))
        above = math.nextafter(t, 1.0)
        assert "Hamilton Lodge" not in names(fuzzy_match_entities(noisy, make_kb(), above))

    def test_repeated_phrase_runs_fewer_edit_distances(self, monkeypatch):
        real, real_many = entity_track.levenshtein, entity_track.levenshtein_many
        calls, pairs = [], []

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        def counted_many(a, b):
            pairs.extend(zip(a, b))
            return real_many(a, b)

        monkeypatch.setattr(entity_track, "levenshtein", counted)
        monkeypatch.setattr(entity_track, "levenshtein_many", counted_many)
        kb = make_kb()
        d = dlg(*["can I cooking at Hamilton launch"] * 6)
        expected = fuzzy_reference(d, kb, 0.5)
        windows_scanned = len(calls)
        assert fuzzy_match_entities(d, kb, 0.5) == expected
        assert pairs and len(calls) == windows_scanned
        utterance = tokenize("can I cooking at Hamilton launch")
        distinct_pairs = {
            (" ".join(tokenize(e.name)), " ".join(utterance[i:i + w]))
            for e in kb.entities
            for w in [len(tokenize(e.name))]
            for i in range(len(utterance) - w + 1)}
        assert len(pairs) <= len(distinct_pairs)
        assert len(pairs) < windows_scanned


def count_edit_distances(monkeypatch):
    """The (target, window) pairs each ``levenshtein_many`` call is given,
    one list per call."""
    real_many = entity_track.levenshtein_many
    calls = []

    def counted_many(a, b):
        calls.append(list(zip(a, b)))
        return real_many(a, b)

    monkeypatch.setattr(entity_track, "levenshtein_many", counted_many)
    return calls


def test_one_batched_edit_distance_call_per_call(monkeypatch):
    """Names of 1, 2 and 3 tokens all leave pairs open, and their edit
    distances still come from a single ``levenshtein_many`` call."""
    kb = KnowledgeBase([snip("hotel", "1", "Lodge", "0"),
                        snip("hotel", "2", "SW Hotel", "0"),
                        snip("hotel", "3", "Union Square Inn", "0"),
                        snip("taxi", "4", "City Cab", "0")])
    d = dlg("a lodg near the SW hotl", "or the Union Sqare Inn")
    calls = count_edit_distances(monkeypatch)
    got = fuzzy_match_entities(d, kb, 0.7)
    assert len(calls) == 1
    assert {len(t.split()) for t, _ in calls[0]} == {1, 2, 3}
    assert names(got) == ["Lodge", "SW Hotel", "Union Square Inn"]
    assert got == fuzzy_reference(d, kb, 0.7)
    calls.clear()
    assert fuzzy_match_entities(dlg("nothing alike here"), kb, 0.9) == []
    assert len(calls) <= 1


@st.composite
def fuzzy_sessions(draw):
    """A knowledge base and the calls of several interleaved dialogues
    against it: each call a (dialogue, threshold), the dialogue a run of
    consecutive turns of one conversation, as decode stitches histories."""
    kb = draw(name_kbs)
    turns = draw(st.lists(st.lists(st.sampled_from(NOISE_WORDS), min_size=1,
                                   max_size=8).map(" ".join),
                          min_size=1, max_size=8))
    levels = draw(st.lists(thresholds, min_size=1, max_size=3))
    calls = draw(st.lists(st.tuples(st.integers(0, len(turns) - 1),
                                    st.integers(1, len(turns)),
                                    st.sampled_from(levels)),
                          min_size=1, max_size=12))
    return kb, [(dlg(*turns[start:start + length]), threshold)
                for start, length, threshold in calls]


class TestFuzzyWindowTable:
    @settings(max_examples=200, deadline=None)
    @given(fuzzy_sessions())
    def test_warm_table_gives_the_cold_result(self, session):
        kb, calls = session
        for dialogue, threshold in calls:
            cold = fuzzy_match_entities(dialogue, KnowledgeBase(kb.snippets),
                                        threshold)
            assert fuzzy_match_entities(dialogue, kb, threshold) == cold
            assert cold == fuzzy_reference(dialogue, kb, threshold)

    def test_retracking_runs_no_edit_distance(self, monkeypatch):
        calls = count_edit_distances(monkeypatch)
        kb = make_kb()
        d = dlg("can I cooking at Hamilton launch", "the palm cort is nice")
        expected = fuzzy_match_entities(d, kb, 0.5)
        assert calls and expected == fuzzy_reference(d, kb, 0.5)
        calls.clear()
        assert fuzzy_match_entities(d, kb, 0.5) == expected
        assert calls == []
        # another threshold has a table of its own
        assert fuzzy_match_entities(d, kb, 0.7) == fuzzy_reference(d, kb, 0.7)
        assert len(calls) == 1

    def test_longer_history_matches_only_its_new_windows(self, monkeypatch):
        calls = count_edit_distances(monkeypatch)
        kb = make_kb()
        first = ("can I cooking at Hamilton launch", "the palm cort is nice")
        fuzzy_match_entities(dlg(*first), kb, 0.5)
        calls.clear()
        longer = dlg(*first, "and the sw hotl")
        assert fuzzy_match_entities(longer, kb, 0.5) == fuzzy_reference(longer, kb, 0.5)
        new_words = tokenize("and the sw hotl")
        assert len(calls) == 1
        assert {window for _, window in calls[0]} <= {
            " ".join(new_words[i:i + w]) for w in (1, 2)
            for i in range(len(new_words) - w + 1)}

    def test_full_table_is_cleared_and_results_hold(self, monkeypatch):
        monkeypatch.setattr(entity_track, "_WINDOW_TABLE_BOUND", 8)
        calls = count_edit_distances(monkeypatch)
        kb = make_kb()  # names of 1 and 2 tokens
        first = dlg("can I cooking at Hamilton launch")  # 6 + 5 windows
        second = dlg("the palm cort")  # 3 + 2 windows
        # each new dialogue finds the other's windows cleared away; a
        # dialogue tracked again finds its own
        for d, n_windows, n_calls in ((first, 11, 1), (second, 5, 1),
                                      (first, 11, 1), (first, 11, 0)):
            calls.clear()
            assert fuzzy_match_entities(d, kb, 0.5) == fuzzy_reference(d, kb, 0.5)
            tables = kb.name_index.fuzzy_windows
            assert sum(map(len, tables.values())) == n_windows
            assert len(calls) == n_calls


def count_bound_pairs(dialogue, kb, threshold, matched):
    """The (target, window) pairs whose character-count difference bound
    still allows ``threshold``, over the windows not in ``matched``: the
    reference definition of the pairs fuzzy matching sends to the edit
    distance, the bound written as it was first computed, as the count
    difference max(sum (a-b)+, sum (b-a)+) over the names' alphabet with
    every other character pooled into one count."""
    if threshold == 0.0:
        return []
    index = kb.name_index
    alphabet = sorted(set("".join(index.targets)))

    def char_counts(strings):
        return np.array([[sum(c not in alphabet for c in x)]
                         + [x.count(c) for c in alphabet] for x in strings])

    utterances = [tokenize(t.text) for t in dialogue.turns]
    pairs = []
    for w, (group, _) in index.groups.items():
        windows = [x for x in dict.fromkeys(
            " ".join(u[start:start + w])
            for u in utterances for start in range(len(u) - w + 1))
            if x not in matched]
        if not windows:
            continue
        group_counts, window_counts = char_counts(group), char_counts(windows)
        window_lens = np.array([len(x) for x in windows])
        target_lens = np.array([len(t) for t in group])[:, None]
        denom = np.maximum(window_lens, target_lens)
        diff = group_counts[:, None] - window_counts
        surplus = np.maximum(diff, 0).sum(axis=2)
        bound = np.maximum(surplus, surplus + window_lens - target_lens)
        rows, cols = np.nonzero(1.0 - bound / denom >= threshold)
        pairs += [(group[i], windows[j]) for i, j in zip(rows, cols)]
    return pairs


class TestBoundPairs:
    """The unit-product bound admits exactly the pairs the count-difference
    bound admits, and only those reach ``levenshtein_many``."""

    def check_calls(self, kb, calls):
        real_many = entity_track.levenshtein_many
        for dialogue, threshold in calls:
            matched = set(kb.name_index.fuzzy_windows.get(threshold, {}))
            seen = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(entity_track, "levenshtein_many",
                           lambda a, b: seen.append(list(zip(a, b))) or real_many(a, b))
                fuzzy_match_entities(dialogue, kb, threshold)
            expected = count_bound_pairs(dialogue, kb, threshold, matched)
            assert len(seen) == (1 if expected else 0)
            assert Counter(pair for call in seen for pair in call) == Counter(expected)

    @settings(max_examples=200, deadline=None)
    @given(fuzzy_cases())
    def test_cold_calls(self, case):
        kb, dialogue, threshold = case
        self.check_calls(kb, [(dialogue, threshold)])

    @settings(max_examples=100, deadline=None)
    @given(fuzzy_sessions())
    def test_sessions(self, session):
        self.check_calls(*session)


class OracleScorer:
    """Returns 1.0 exactly for one entity name, 0 for everything else."""

    def __init__(self, target):
        self.target = target

    def score(self, s1, s2):
        return 1.0 if self.target in s2 else 0.0

    def scores(self, s1, sentences2):
        return [self.score(s1, s2) for s2 in sentences2]


class TestLearnedTracking:
    def test_oracle_scorer_tracks_exactly_target(self):
        got = track_entities(OracleScorer("Hamilton Lodge"),
                             dlg("anything at all"), make_kb(), delta_e=0.5)
        assert names(got) == ["Hamilton Lodge"]

    def test_delta_one_tracks_nothing(self):
        got = track_entities(OracleScorer("Hamilton Lodge"),
                             dlg("anything"), make_kb(), delta_e=1.0)
        assert got == []


def toy_scorer(kb, dialogue):
    vocab = build_vocab([tokenize(linearize_history(dialogue))]
                        + [tokenize(linearize_entity(e.name)) for e in kb.entities])
    return ToyPairScorer(ToyEncoder(vocab, d=8, seed=3))


class TestLearnedTrackingBatched:
    """One ``scores`` call gives what a ``score`` call per entity gives."""

    def dialogue(self):
        return dlg("is the Hamilton Lodge near Palm Court?", "yes it is",
                   "and the SW hotel?")

    def test_scores_equal_per_entity_score(self):
        kb, d = make_kb(), self.dialogue()
        scorer = toy_scorer(kb, d)
        history = linearize_history(d)
        entity_texts = [linearize_entity(e.name) for e in kb.entities]
        expected = [scorer.score(history, t) for t in entity_texts]
        assert scorer.scores(history, entity_texts) == expected
        assert len(set(expected)) > 1
        delta = sorted(expected)[len(expected) // 2]
        got = track_entities(scorer, d, kb, delta_e=delta)
        assert got == [e for e, p in zip(kb.entities, expected) if p > delta]
        assert 0 < len(got) < len(kb.entities)

    def test_history_tokenized_once(self, monkeypatch):
        kb, d = make_kb(), self.dialogue()
        scorer = toy_scorer(kb, d)
        calls = []
        real = models.tokenize
        monkeypatch.setattr(models, "tokenize",
                            lambda text: calls.append(text) or real(text))
        track_entities(scorer, d, kb, delta_e=0.5)
        assert len(calls) == 1 + len(kb.entities)
        assert calls.count(linearize_history(d)) == 1


class TestCollectCandidates:
    def test_entity_docs_collected(self):
        kb = make_kb()
        ents = [e for e in kb.entities if e.name == "Hamilton Lodge"]
        got = collect_candidates(ents, kb)
        # 2 entity docs + 1 hotel domain-level doc
        assert len(got) == 3

    def test_no_duplicate_domain_snippets(self):
        kb = make_kb()
        ents = [e for e in kb.entities if e.domain == "hotel"]
        got = collect_candidates(ents, kb)
        assert len(got) == len({s.key for s in got}) == 4

    def test_count_oracle(self):
        kb = make_kb()
        ents = [e for e in kb.entities
                if e.name in ("Hamilton Lodge", "Palm Court")]
        got = collect_candidates(ents, kb)
        expected = (len(kb.snippets_for("hotel", "1"))
                    + len(kb.snippets_for("restaurant", "9"))
                    + len(kb.snippets_for("hotel", DOMAIN_LEVEL))
                    + len(kb.snippets_for("restaurant", DOMAIN_LEVEL)))
        assert len(got) == expected

    def test_empty_entities_empty_candidates(self):
        assert collect_candidates([], make_kb()) == []

    def test_subset_of_kb_and_deterministic(self):
        kb = make_kb()
        got1 = collect_candidates(list(kb.entities), kb)
        got2 = collect_candidates(list(reversed(kb.entities)), kb)
        assert [s.key for s in got1] == [s.key for s in got2]
        assert {s.key for s in got1} <= {s.key for s in kb.snippets}


class TestEntityRecall:
    def test_full_coverage(self):
        kb = make_kb()
        ents = list(kb.entities)
        refs = [{e.key for e in ents}]
        assert entity_recall([ents], refs) == 1.0

    def test_half_coverage(self):
        kb = make_kb()
        one = [e for e in kb.entities if e.name == "SW Hotel"]
        refs = [{("hotel", "2"), ("hotel", "1")}]
        assert entity_recall([one], refs) == 0.5

    def test_empty_predictions(self):
        assert entity_recall([[]], [{("hotel", "1")}]) == 0.0
