import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial import corpus
from kgdial.corpus import (
    RESERVED_TAGS, Dialogue, Entity, EntityNameIndex, KnowledgeBase, KnowledgeSnippet, Speaker, Turn,
    build_generation_context, escape_tags, linearize_history,
    linearize_knowledge, load_corpus, load_knowledge_base, normalize_ws,
    parse_history, split_kfold, tokenize, truncate_left,
)
from kgdial.synth import MiniCorpusConfig, build_mini_corpus


def dlg(*texts, label=None, id="d0"):
    turns = tuple(
        Turn(speaker=Speaker.USER if i % 2 == 0 else Speaker.SYSTEM, text=t)
        for i, t in enumerate(texts))
    return Dialogue(id=id, turns=turns, label=label)


def snippet(domain="hotel", entity_id="1", name="Hamilton Lodge",
            question="Can I cook?", answer="No.", doc_id="0"):
    return KnowledgeSnippet(domain=domain, entity_id=entity_id,
                            entity_name=name, question=question,
                            answer=answer, doc_id=doc_id)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


class TestLoadCorpus:
    def test_basic_label_attach(self, tmp_path):
        logs = tmp_path / "logs.json"
        labels = tmp_path / "labels.json"
        write_json(logs, [[{"speaker": "U", "text": "hi"},
                           {"speaker": "S", "text": "hello"},
                           {"speaker": "U", "text": "thanks"}]])
        write_json(labels, [{"target": False}])
        out = load_corpus(str(logs), str(labels))
        assert len(out) == 1
        assert len(out[0].turns) == 3
        assert out[0].label.is_knowledge_seeking is False

    def test_alignment_error(self, tmp_path):
        logs = tmp_path / "logs.json"
        labels = tmp_path / "labels.json"
        write_json(logs, [[{"speaker": "U", "text": "a"}],
                          [{"speaker": "U", "text": "b"}],
                          [{"speaker": "U", "text": "c"}]])
        write_json(labels, [{"target": False}, {"target": False}])
        with pytest.raises(corpus.CorpusError, match="mismatch"):
            load_corpus(str(logs), str(labels))

    def test_malformed_record_names_index(self, tmp_path):
        logs = tmp_path / "logs.json"
        write_json(logs, [[{"speaker": "U", "text": "ok"}], [{"speaker": "X", "text": "bad"}]])
        with pytest.raises(corpus.CorpusError, match="index 1"):
            load_corpus(str(logs))

    def test_reserved_tag_escaped_and_round_trips(self, tmp_path):
        logs = tmp_path / "logs.json"
        write_json(logs, [[{"speaker": "U", "text": "say ⟨user⟩ now"}]])
        out = load_corpus(str(logs))
        text = out[0].turns[0].text
        assert "⟨user⟩" not in text
        logs2 = tmp_path / "logs2.json"
        corpus.save_corpus(out, str(logs2))
        again = load_corpus(str(logs2))
        assert again[0].turns[0].text == text

    def test_text_that_is_not_a_string_names_index(self, tmp_path):
        logs = tmp_path / "logs.json"
        write_json(logs, [[{"speaker": "U", "text": "ok"}], [{"speaker": "U", "text": 7}]])
        with pytest.raises(corpus.CorpusError, match="index 1"):
            load_corpus(str(logs))


# ASCII whitespace, then the file/group/record/unit separators, NEL, NBSP,
# line separator and ideographic space, which str.split and regex \s also
# split on
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
TEXT_PIECES = st.one_of(
    st.sampled_from(list(WHITESPACE)),
    st.sampled_from(RESERVED_TAGS + ("⟨", "⟩", "⟨kng_6⟩", "⟨user", "⟨⟨sys⟩⟩")),
    st.text(max_size=3))


def escape_tags_by_loop(text):
    """The reserved-tag escape as a plain loop over every tag."""
    for tag in RESERVED_TAGS:
        text = text.replace(tag, "(" + tag[1:-1] + ")")
    return text


class TestTextNormalisation:
    @settings(max_examples=300)
    @given(st.lists(TEXT_PIECES, max_size=12).map("".join))
    def test_normalize_ws_equals_regex_definition(self, text):
        assert normalize_ws(text) == re.sub(r"\s+", " ", text).strip()

    @settings(max_examples=300)
    @given(st.lists(TEXT_PIECES, max_size=12).map("".join))
    def test_escape_tags_equals_loop_definition(self, text):
        assert escape_tags(text) == escape_tags_by_loop(text)

    @given(st.text(alphabet=WHITESPACE, max_size=8))
    def test_turn_rejects_whitespace_only_text(self, text):
        with pytest.raises(corpus.CorpusError, match="empty"):
            Turn(speaker=Speaker.USER, text=text)
        assert Turn(speaker=Speaker.USER, text=text + "a" + text).text


class TestKnowledgeBase:
    def test_single_snippet(self, tmp_path):
        path = tmp_path / "kb.json"
        write_json(path, {"hotel": {"1": {"name": "Hamilton Lodge", "docs": {
            "0": {"title": "Can I cook?", "body": "No."}}}}})
        kb = load_knowledge_base(str(path))
        assert len(kb) == 1
        assert kb.snippets[0].entity_name == "Hamilton Lodge"
        assert kb.snippets[0].question == "Can I cook?"

    def test_domain_level_entry(self, tmp_path):
        path = tmp_path / "kb.json"
        write_json(path, {"hotel": {"*": {"name": None, "docs": {
            "0": {"title": "Do you allow pets?", "body": "Varies."}}}}})
        kb = load_knowledge_base(str(path))
        snip = kb.snippets[0]
        assert snip.entity_name == "hotel"
        assert snip.entity_id == corpus.DOMAIN_LEVEL
        assert snip.is_domain_level

    def test_snippet_count_is_entities_times_docs(self, tmp_path):
        entities, docs = 4, 3
        data = {"hotel": {
            str(e): {"name": f"Hotel {e}", "docs": {
                str(d): {"title": f"q{d}?", "body": f"a{d}"} for d in range(docs)}}
            for e in range(entities)}}
        path = tmp_path / "kb.json"
        write_json(path, data)
        kb = load_knowledge_base(str(path))
        assert len(kb) == entities * docs

    def test_duplicate_key_rejected(self):
        with pytest.raises(corpus.CorpusError, match="duplicate"):
            KnowledgeBase([snippet(), snippet()])

    def test_entity_index_covers_every_snippet_once(self, tmp_path):
        kb = KnowledgeBase([snippet(doc_id="0"), snippet(doc_id="1"),
                            snippet(entity_id="*", name="x", doc_id="0")])
        indexed = [s for group in kb.entity_index.values() for s in group]
        assert sorted(s.key for s in indexed) == sorted(s.key for s in kb.snippets)


def counter_union_alphabet(targets):
    """The names' code points as the multiset union of their `Counter`s,
    sorted: each as often as the name that holds it most."""
    most = Counter()
    for target in targets:
        most |= Counter(target)
    return sorted(map(ord, most.elements()))


class TestNameAlphabet:
    def test_synth_knowledge_base(self):
        _, kb, _ = build_mini_corpus(MiniCorpusConfig(n_dialogues=1, seed=0))
        index = kb.name_index
        assert index.alphabet.tolist() == counter_union_alphabet(index.targets)

    @settings(max_examples=200)
    @given(st.lists(st.text(alphabet="ab é\U0001F600", max_size=8), max_size=6))
    def test_generated_names(self, names):
        index = EntityNameIndex([Entity("hotel", str(i), name)
                                 for i, name in enumerate(names)])
        assert index.alphabet.dtype == np.int64
        assert index.alphabet.tolist() == counter_union_alphabet(index.targets)


class TestLinearize:
    def test_history_tags(self):
        d = dlg("hi", "hello", "thanks")
        assert linearize_history(d) == "⟨user⟩ hi ⟨sys⟩ hello ⟨user⟩ thanks"

    def test_left_truncation_keeps_suffix(self):
        d = dlg("hi", "hello", "thanks")
        assert truncate_left(linearize_history(d), 4) == "⟨sys⟩ hello ⟨user⟩ thanks"

    def test_no_truncation_when_budget_large(self):
        d = dlg("hi", "hello", "thanks")
        assert truncate_left(linearize_history(d), 100) == linearize_history(d)

    def test_empty_dialogue_raises(self):
        d = Dialogue(id="x", turns=())
        with pytest.raises(corpus.CorpusError):
            linearize_history(d)

    def test_parse_back_recovers_turns(self):
        d = dlg("can I cook at Hamilton Lodge?", "Sure, why not.", "thanks a lot!")
        parsed = parse_history(linearize_history(d))
        assert parsed == [(t.speaker, t.text) for t in d.turns]

    def test_knowledge_format(self):
        assert linearize_knowledge(snippet()) == "⟨kng⟩ Can I cook? ⟨ans⟩ No."

    def test_knowledge_empty_answer(self):
        assert linearize_knowledge(snippet(answer="")) == "⟨kng⟩ Can I cook? ⟨ans⟩"

    def test_knowledge_parse_back(self):
        s = snippet(question="Is breakfast free?", answer="Yes, on weekdays.")
        text = linearize_knowledge(s)
        body = text.split("⟨kng⟩", 1)[1]
        q, a = body.split("⟨ans⟩", 1)
        assert q.strip() == s.question
        assert a.strip() == s.answer

    def test_truncation_never_splits_a_tag(self):
        d = dlg("aa bb cc", "dd ee ff", "gg hh")
        for budget in range(1, 15):
            out = truncate_left(linearize_history(d), budget)
            assert "⟨" not in out or all(
                tok in corpus.RESERVED_TAGS for tok in tokenize(out)
                if tok.startswith("⟨"))
            assert corpus.count_tokens(out) <= budget


def truncate_left_by_suffix(text, max_tokens):
    """Left truncation written out plainly: drop one leading
    space-separated unit at a time, re-counting the whole remainder."""
    if max_tokens <= 0 or corpus.count_tokens(text) <= max_tokens:
        return text
    units = text.split(" ")
    for lo in range(len(units)):
        candidate = " ".join(units[lo:])
        if corpus.count_tokens(candidate) <= max_tokens:
            return candidate
    return ""


# tags (reserved and not), words, punctuation, characters whose lowercase
# changes length or depends on context, and tabs and newlines inside units
UNIT_PIECE = st.sampled_from([
    "⟨user⟩", "⟨sys⟩", "⟨kng⟩", "⟨x1⟩", "⟨", "⟩", "hi", "Cook", "a_b", "42",
    "?", "!!", ",", "İ", "ΟΔΟΣ", "\t", "\n", "x\ty", "é",
])
TRUNCATION_TEXT = st.lists(
    st.lists(UNIT_PIECE, max_size=4).map("".join), max_size=12).map(" ".join)


@st.composite
def truncation_cases(draw):
    text = draw(TRUNCATION_TEXT)
    units = text.split(" ")
    suffix = " ".join(units[draw(st.integers(0, len(units) - 1)):])
    total = corpus.count_tokens(text)
    budget = draw(st.one_of(
        st.sampled_from([0, 1, total, total + 1, max(total - 1, 0)]),
        st.just(corpus.count_tokens(suffix)),
        st.integers(0, total + 2)))
    return text, budget


class TestTruncateLeft:
    @settings(max_examples=400, deadline=None)
    @given(truncation_cases())
    def test_equals_suffix_by_suffix_loop(self, case):
        text, budget = case
        assert corpus.truncate_left(text, budget) == truncate_left_by_suffix(text, budget)

    @pytest.mark.parametrize("text,budget,expected", [
        ("  a b  ", 1, "b  "),
        ("a b c", 2, "b c"),
        ("⟨user⟩ a ⟨sys⟩ b", 2, "⟨sys⟩ b"),
        ("aaa bbb", 0, "aaa bbb"),
        ("a,b", 2, ""),
    ])
    def test_known(self, text, budget, expected):
        assert corpus.truncate_left(text, budget) == expected


class TestGenerationInput:
    def test_single_snippet_adjacent_to_user(self):
        d = dlg("hi", "hello", "can I cook there?")
        ctx = build_generation_context(d, [snippet()])
        assert ctx.endswith(
            "⟨kng_1⟩ ⟨ent⟩ Hamilton Lodge ⟨ans⟩ No. "
            "⟨user⟩ can I cook there?")

    def test_descending_order(self):
        d = dlg("hi", "hello", "ok?")
        k1 = snippet(doc_id="0", answer="first")
        k2 = snippet(doc_id="1", answer="second")
        ctx = build_generation_context(d, [k1, k2])
        assert ctx.index("⟨kng_2⟩") < ctx.index("⟨kng_1⟩")
        assert "⟨kng_2⟩ ⟨ent⟩ Hamilton Lodge ⟨ans⟩ second" in ctx

    def test_empty_topk_has_no_knowledge_block(self):
        d = dlg("hi", "hello", "ok?")
        ctx = build_generation_context(d, [])
        assert ctx == "⟨user⟩ hi ⟨sys⟩ hello ⟨user⟩ ok?"

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_token_budget_respected(self, budget):
        d = dlg("one two three four", "five six seven", "eight nine ten?")
        ctx = build_generation_context(d, [snippet(), snippet(doc_id="9")], max_tokens=budget)
        assert corpus.count_tokens(ctx) <= budget


class TestKFold:
    def test_ten_singletons(self):
        folds = split_kfold(list(range(10)), k=10, seed=3)
        assert sorted(len(f) for f in folds) == [1] * 10

    def test_sizes_differ_by_at_most_one(self):
        folds = split_kfold(list(range(7)), k=3, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 3]

    def test_deterministic(self):
        a = split_kfold(list(range(23)), k=4, seed=11)
        b = split_kfold(list(range(23)), k=4, seed=11)
        assert a == b

    def test_partition(self):
        items = [f"x{i}" for i in range(17)]
        folds = split_kfold(items, k=5, seed=2)
        flat = [x for f in folds for x in f]
        assert sorted(flat) == sorted(items)

    def test_k_too_large(self):
        with pytest.raises(corpus.CorpusError, match="cannot split 2 items into 3 folds"):
            split_kfold([1, 2], k=3, seed=0)


class TestTokenize:
    def test_punctuation_detached_and_lowercased(self):
        assert tokenize("Can I cook?") == ["can", "i", "cook", "?"]

    def test_tags_are_single_tokens(self):
        assert tokenize("⟨user⟩ Hi there!") == ["⟨user⟩", "hi", "there", "!"]
