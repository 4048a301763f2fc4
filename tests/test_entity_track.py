import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial import entity_track
from kgdial.corpus import (
    DOMAIN_LEVEL, Dialogue, KnowledgeBase, KnowledgeSnippet, Speaker, Turn,
    tokenize,
)
from kgdial.entity_track import (
    collect_candidates, entity_recall, exact_match_entities,
    fuzzy_match_entities, fuzzy_similarity, track_entities,
)


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


@st.composite
def fuzzy_cases(draw):
    name_list = draw(st.lists(
        st.lists(st.sampled_from(NAME_WORDS), min_size=1, max_size=3)
        .map(" ".join), min_size=1, max_size=6))
    kb = KnowledgeBase([snip("hotel", str(i), name, "0")
                        for i, name in enumerate(name_list)])
    phrase = draw(st.lists(st.sampled_from(NOISE_WORDS), min_size=1, max_size=4))
    # a turn cannot be blank; "?" is the shortest, one token and no letter
    turns = draw(st.lists(
        st.one_of(st.just(phrase), st.just(["?"]),
                  st.lists(st.sampled_from(NOISE_WORDS), min_size=1, max_size=8)),
        max_size=5))
    threshold = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                               st.floats(0.0, 1.0)))
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
        real = entity_track.levenshtein
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(entity_track, "levenshtein", counted)
        kb = make_kb()
        d = dlg(*["can I cooking at Hamilton launch"] * 6)
        expected = fuzzy_reference(d, kb, 0.5)
        windows_scanned = len(calls)
        calls.clear()
        assert fuzzy_match_entities(d, kb, 0.5) == expected
        utterance = tokenize("can I cooking at Hamilton launch")
        distinct_pairs = {
            (" ".join(tokenize(e.name)), " ".join(utterance[i:i + w]))
            for e in kb.entities
            for w in [len(tokenize(e.name))]
            for i in range(len(utterance) - w + 1)}
        assert len(calls) <= len(distinct_pairs)
        assert len(calls) < windows_scanned


class OracleScorer:
    """Returns 1.0 exactly for one entity name, 0 for everything else."""

    def __init__(self, target):
        self.target = target

    def score(self, s1, s2):
        return 1.0 if self.target in s2 else 0.0


class TestLearnedTracking:
    def test_oracle_scorer_tracks_exactly_target(self):
        got = track_entities(OracleScorer("Hamilton Lodge"),
                             dlg("anything at all"), make_kb(), delta_e=0.5)
        assert names(got) == ["Hamilton Lodge"]

    def test_delta_one_tracks_nothing(self):
        got = track_entities(OracleScorer("Hamilton Lodge"),
                             dlg("anything"), make_kb(), delta_e=1.0)
        assert got == []


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
