"""Dialogue corpus model, DSTC-format JSON I/O, tagged linearization.

Conventions used throughout the package:
  * a token is a whitespace-separated unit after lowercasing and
    punctuation detachment; reserved tags count as one token each;
  * reserved tags never occur inside utterance text (escaped on load
    by bracket substitution), which keeps linearization invertible;
  * a model input is cut once, by the model that reads it, and always
    from the left, so the most recent context survives: an encoder keeps
    the last ``max_len`` positions of what it is given, and the generation
    context, whose generator has no length limit of its own, is cut to
    its token budget by `truncate_left`.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .kernels import char_units

DOMAIN_LEVEL = "*"
TOP_K = 5  # length of the ranked knowledge list that selection hands to generation

TAG_USER = "⟨user⟩"
TAG_SYS = "⟨sys⟩"
TAG_KNG = "⟨kng⟩"
TAG_ENT = "⟨ent⟩"
TAG_ANS = "⟨ans⟩"
TAG_RESP = "⟨resp⟩"


def tag_kng_k(k: int) -> str:
    if not 1 <= k <= TOP_K:
        raise ValueError(f"ranked knowledge tag index out of range: {k}")
    return f"⟨kng_{k}⟩"


RESERVED_TAGS = (
    TAG_USER, TAG_SYS, TAG_KNG,
    *(tag_kng_k(k) for k in range(1, TOP_K + 1)),
    TAG_ENT, TAG_ANS, TAG_RESP,
)

_TAG_RE = re.compile("⟨\\w+⟩")
_WORD_RE = re.compile(r"\w+|[^\w\s]")


class Speaker(Enum):
    USER = "U"
    SYSTEM = "S"


class CorpusError(Exception):
    """Malformed or misaligned corpus input."""


def escape_tags(text: str) -> str:
    """Replace reserved tag tokens by their round-bracket twins."""
    if "⟨" not in text:  # every reserved tag starts with it
        return text
    for tag in RESERVED_TAGS:
        if tag in text:
            text = text.replace(tag, "(" + tag[1:-1] + ")")
    return text


def normalize_ws(text: str) -> str:
    """Runs of whitespace (``str.isspace`` characters, as regex ``\\s``
    matches them) become one space; leading and trailing ones go."""
    return " ".join(text.split())


def _clean_text(text: str) -> str:
    """Text as the corpus holds it: whitespace-normalized, reserved tags
    escaped. A value that is not a string is a TypeError."""
    if not isinstance(text, str):
        raise TypeError(f"expected a string, got {type(text).__name__}")
    return escape_tags(normalize_ws(text))


def tokenize(text: str) -> list[str]:
    """Canonical token stream: tags kept whole, rest lowercased with
    punctuation detached."""
    tokens: list[str] = []
    pos = 0
    for m in _TAG_RE.finditer(text):
        tokens.extend(_WORD_RE.findall(text[pos:m.start()].lower()))
        tokens.append(m.group())
        pos = m.end()
    tokens.extend(_WORD_RE.findall(text[pos:].lower()))
    return tokens


def count_tokens(text: str) -> int:
    """Length of the canonical token stream, each tag one token."""
    return len(tokenize(text))


@dataclass(frozen=True)
class Turn:
    speaker: Speaker
    text: str

    def __post_init__(self):
        if not self.text or self.text.isspace():
            raise CorpusError("turn text empty after whitespace normalization")

    @property
    def tag(self) -> str:
        return TAG_USER if self.speaker is Speaker.USER else TAG_SYS


@dataclass(frozen=True)
class TurnLabel:
    is_knowledge_seeking: bool
    knowledge_refs: tuple[tuple[str, str, str], ...] = ()
    response: Optional[str] = None

    def __post_init__(self):
        if not self.is_knowledge_seeking and self.knowledge_refs:
            raise CorpusError("knowledge_refs must be empty for non-seeking turns")


@dataclass(frozen=True)
class Dialogue:
    id: str
    turns: tuple[Turn, ...]
    label: Optional[TurnLabel] = None

    def __post_init__(self):
        if self.label is not None and (not self.turns or self.turns[-1].speaker is not Speaker.USER):
            raise CorpusError(f"dialogue {self.id}: labeled final turn must be USER")


@dataclass(frozen=True)
class KnowledgeSnippet:
    domain: str
    entity_id: str
    entity_name: str
    question: str
    answer: str
    doc_id: str

    def __post_init__(self):
        if not self.entity_name:
            raise CorpusError("snippet entity_name must be non-empty")
        # ``key`` and ``entity_key``, built once: plain attributes, not
        # fields, so equality, hashing and serialisation see only the six
        # fields above
        object.__setattr__(self, "key", (self.domain, self.entity_id, self.doc_id))
        object.__setattr__(self, "entity_key", (self.domain, self.entity_id))

    @property
    def is_domain_level(self) -> bool:
        return self.entity_id == DOMAIN_LEVEL


@dataclass(frozen=True)
class Entity:
    domain: str
    entity_id: str
    name: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.domain, self.entity_id)

    @property
    def is_domain_level(self) -> bool:
        return self.entity_id == DOMAIN_LEVEL


class EntityNameIndex:
    """The entity names as the matchers of ``entity_track`` read them,
    built once per knowledge base.

    ``positions`` maps each non-empty name token tuple to the positions of
    its entities in the entity list, ``firsts`` holds those tuples' first
    tokens, ``lengths`` their token lengths in ascending order, and
    ``targets`` is each entity's name as
    its space-joined tokens. For fuzzy matching, ``alphabet`` holds the
    targets' code points, sorted, each as often as the most any target
    holds it, and ``groups`` maps a token length to the distinct targets of
    that length (first-seen order) and their ``char_units`` rows over it.

    ``fuzzy_windows`` is filled by fuzzy matching as it runs: one table per
    threshold, mapping each window string matched so far to the targets of
    its token length within that threshold of it. A window's entry depends
    only on the window, the threshold and the names, so it holds for every
    later dialogue; ``entity_track`` bounds the tables' size.
    """

    def __init__(self, entities: Sequence[Entity]):
        tokens = [tuple(tokenize(e.name)) for e in entities]
        self.targets: tuple[str, ...] = tuple(" ".join(t) for t in tokens)
        positions: dict[tuple[str, ...], list[int]] = {}
        grouped: dict[int, dict[str, None]] = {}
        for i, (name, target) in enumerate(zip(tokens, self.targets)):
            if name:
                positions.setdefault(name, []).append(i)
                grouped.setdefault(len(name), {})[target] = None
        self.positions: dict[tuple[str, ...], tuple[int, ...]] = {
            k: tuple(v) for k, v in positions.items()}
        self.firsts: frozenset[str] = frozenset(name[0] for name in positions)
        self.lengths: tuple[int, ...] = tuple(sorted(grouped))
        most: Counter[str] = Counter()
        for target in self.targets:
            for char in set(target):
                count = target.count(char)
                if count > most[char]:
                    most[char] = count
        # sorted in Python: np.unique would import numpy.ma (about 0.6 MB)
        self.alphabet = np.array(sorted(map(ord, most.elements())), dtype=np.int64)
        self.groups: dict[int, tuple[tuple[str, ...], np.ndarray]] = {
            w: (tuple(g), char_units(list(g), self.alphabet))
            for w, g in grouped.items()}
        self.fuzzy_windows: dict[float, dict[str, tuple[str, ...]]] = {}


class KnowledgeBase:
    """Snippet store with an entity index over (domain, entity_id) and the
    entity-name index that entity matching reads."""

    def __init__(self, snippets: Sequence[KnowledgeSnippet]):
        self.snippets: tuple[KnowledgeSnippet, ...] = tuple(
            sorted(snippets, key=lambda s: s.key))
        seen = set()
        for s in self.snippets:
            if s.key in seen:
                raise CorpusError(f"duplicate knowledge key {s.key}")
            seen.add(s.key)
        grouped: dict[tuple[str, str], list[KnowledgeSnippet]] = {}
        for s in self.snippets:
            grouped.setdefault(s.entity_key, []).append(s)
        self.entity_index: dict[tuple[str, str], tuple[KnowledgeSnippet, ...]] = {
            k: tuple(v) for k, v in grouped.items()}
        self.entities: tuple[Entity, ...] = tuple(
            Entity(domain=k[0], entity_id=k[1], name=v[0].entity_name)
            for k, v in sorted(self.entity_index.items()))
        self.name_index = EntityNameIndex(self.entities)

    def snippets_for(self, domain: str, entity_id: str) -> tuple[KnowledgeSnippet, ...]:
        return self.entity_index.get((domain, entity_id), ())

    def get(self, domain: str, entity_id: str, doc_id: str) -> KnowledgeSnippet:
        for s in self.snippets_for(domain, entity_id):
            if s.doc_id == doc_id:
                return s
        raise KeyError((domain, entity_id, doc_id))

    def __len__(self) -> int:
        return len(self.snippets)


def read_json(path: str):
    """The JSON value a file holds; a file that is not JSON is a one-line
    CorpusError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # json.JSONDecodeError is one
        raise CorpusError(f"{path}: {exc}") from exc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_turn_records(records) -> None:
    """Every turn record is an object with a boolean ``target``; its
    ``knowledge``, if any, is a list of {domain, entity_id, doc_id}
    objects, its ``response``, if any, a string, its
    ``detection_probability``, if any, a number in [0, 1] and its
    ``nbest``, if any, a list of {text, logprob} objects with a string text
    and a numeric logprob. A ValueError names the first record that is
    not."""
    if not isinstance(records, list):
        raise ValueError(f"expected a list of turn records, got {type(records).__name__}")
    for i, rec in enumerate(records):
        if not (isinstance(rec, dict) and isinstance(rec.get("target"), bool)):
            raise ValueError(f"record {i}: expected an object with a boolean 'target'")
        knowledge = rec.get("knowledge", [])
        if not (isinstance(knowledge, list) and all(
                isinstance(k, dict) and {"domain", "entity_id", "doc_id"} <= k.keys()
                for k in knowledge)):
            raise ValueError(f"record {i}: malformed knowledge ref")
        if not isinstance(rec.get("response", ""), str):
            raise ValueError(f"record {i}: response must be a string")
        prob = rec.get("detection_probability", 0.0)
        if not (_is_number(prob) and 0.0 <= prob <= 1.0):
            raise ValueError(f"record {i}: detection_probability must be a "
                             f"number in [0, 1]")
        nbest = rec.get("nbest", [])
        if not (isinstance(nbest, list) and all(
                isinstance(c, dict) and isinstance(c.get("text"), str)
                and _is_number(c.get("logprob")) for c in nbest)):
            raise ValueError(f"record {i}: nbest must be a list of objects with "
                             f"a string 'text' and a numeric 'logprob'")


def read_turn_records(path: str) -> list[dict]:
    """The turn records of a labels or predictions file, as
    `check_turn_records` checks them; anything else is a one-line
    CorpusError naming the file."""
    records = read_json(path)
    try:
        check_turn_records(records)
    except ValueError as exc:
        raise CorpusError(f"{path}: {exc}") from exc
    return records


def load_corpus(logs_path: str, labels_path: Optional[str] = None) -> list[Dialogue]:
    """Load DSTC-format logs (and optional aligned labels) into dialogues.

    Turn text is whitespace-normalized and reserved tags are escaped, so
    a write/read round trip is the identity.
    """
    logs = read_json(logs_path)
    if not isinstance(logs, list):
        raise CorpusError(f"{logs_path}: expected a list of dialogues, "
                          f"got {type(logs).__name__}")
    labels = None
    if labels_path is not None:
        labels = read_turn_records(labels_path)
        if len(labels) != len(logs):
            raise CorpusError(f"labels/logs length mismatch: {len(labels)} records in "
                              f"{labels_path}, {len(logs)} dialogues in {logs_path}")
    dialogues = []
    for i, raw_turns in enumerate(logs):
        try:
            turns = tuple(
                Turn(speaker=Speaker(t["speaker"]),
                     text=_clean_text(t["text"]))
                for t in raw_turns)
        except (KeyError, ValueError, TypeError) as exc:
            raise CorpusError(f"malformed log record at index {i}: {exc}") from exc
        label = None if labels is None else _parse_label(labels[i])
        dialogues.append(Dialogue(id=f"d{i:05d}", turns=turns, label=label))
    return dialogues


def _parse_label(raw: dict) -> TurnLabel:
    """A labels record that `check_turn_records` passed."""
    target = raw["target"]
    refs = tuple(
        (str(k["domain"]), str(k["entity_id"]), str(k["doc_id"]))
        for k in raw.get("knowledge", []))
    response = raw.get("response")
    if response is not None:
        response = _clean_text(response)
    return TurnLabel(is_knowledge_seeking=target,
                     knowledge_refs=refs if target else (),
                     response=response)


def save_corpus(dialogues: Sequence[Dialogue], logs_path: str,
                labels_path: Optional[str] = None) -> None:
    logs = [[{"speaker": t.speaker.value, "text": t.text} for t in d.turns]
            for d in dialogues]
    with open(logs_path, "w", encoding="utf-8") as fh:
        json.dump(logs, fh, ensure_ascii=False, indent=1)
    if labels_path is not None:
        labels = [label_to_json(d.label) for d in dialogues]
        with open(labels_path, "w", encoding="utf-8") as fh:
            json.dump(labels, fh, ensure_ascii=False, indent=1)


def label_to_json(label: Optional[TurnLabel]) -> dict:
    if label is None or not label.is_knowledge_seeking:
        return {"target": False}
    out = {
        "target": True,
        "knowledge": [
            {"domain": d, "entity_id": e, "doc_id": doc}
            for d, e, doc in label.knowledge_refs
        ],
    }
    if label.response is not None:
        out["response"] = label.response
    return out


def load_knowledge_base(path: str) -> KnowledgeBase:
    """Load nested domain -> entity -> docs JSON into a KnowledgeBase.

    Doc titles become questions, bodies become answers. Entries under the
    DOMAIN_LEVEL id become a pseudo-entity named after the domain. A domain,
    entity or doc that is not an object, and a name, title or body that is
    not a string, is a CorpusError naming where it sits; a file that is not
    JSON or holds no snippets is one naming the file.
    """
    data = read_json(path)
    snippets = []
    for domain, entities in _kb_items(data, "knowledge file"):
        for entity_id, entry in _kb_items(entities, f"knowledge domain {domain}"):
            where = f"knowledge entity {domain}/{entity_id}"
            _kb_items(entry, where)
            name = entry.get("name")
            if name is not None and not isinstance(name, str):
                raise CorpusError(f"{where}: name must be a string, "
                                  f"got {type(name).__name__}")
            if entity_id == DOMAIN_LEVEL or not name:
                name = domain
            for doc_id, doc in _kb_items(entry.get("docs", {}), f"{where} docs"):
                where_doc = f"knowledge doc {domain}/{entity_id}/{doc_id}"
                _kb_items(doc, where_doc)
                snippets.append(KnowledgeSnippet(
                    domain=domain, entity_id=entity_id, entity_name=_clean_text(name),
                    question=_kb_text(doc, "title", where_doc),
                    answer=_kb_text(doc, "body", where_doc),
                    doc_id=doc_id))
    if not snippets:
        raise CorpusError(f"{path}: no knowledge snippets")
    return KnowledgeBase(snippets)


def _kb_items(value, where: str):
    """The (key, value) pairs of a knowledge-file object."""
    if not isinstance(value, dict):
        raise CorpusError(f"{where}: expected an object, got {type(value).__name__}")
    return value.items()


def _kb_text(obj: dict, key: str, where: str) -> str:
    """``obj[key]`` as the corpus holds text."""
    if key not in obj:
        raise CorpusError(f"{where}: missing {key!r}")
    if not isinstance(obj[key], str):
        raise CorpusError(f"{where}: {key} must be a string, "
                          f"got {type(obj[key]).__name__}")
    return _clean_text(obj[key])


def save_knowledge_base(kb: KnowledgeBase, path: str) -> None:
    data: dict = {}
    for s in kb.snippets:
        ent = data.setdefault(s.domain, {}).setdefault(
            s.entity_id,
            {"name": None if s.is_domain_level else s.entity_name, "docs": {}})
        ent["docs"][s.doc_id] = {"title": s.question, "body": s.answer}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, ensure_ascii=False, indent=1)


def linearize_history(dialogue: Dialogue) -> str:
    """The whole tag-separated dialogue history, uncut: the model that
    reads it cuts it to its own input length."""
    if not dialogue.turns:
        raise CorpusError(f"dialogue {dialogue.id} has no turns")
    return " ".join(f"{t.tag} {normalize_ws(t.text)}" for t in dialogue.turns)


def truncate_left(text: str, max_tokens: int) -> str:
    """``text`` cut from the left to at most ``max_tokens`` tokens, each
    tag one token (`count_tokens`); max_tokens <= 0 means unlimited.

    Whole space-separated units are dropped, so a tag is never split. The
    generation context is the one model input cut this way, because the
    generator has no length limit of its own; the encoders cut their
    inputs themselves (`ToyEncoder.pair_ids`).
    """
    if max_tokens <= 0 or count_tokens(text) <= max_tokens:
        return text
    # drop leading space-separated units until the remainder fits; no
    # token spans a space, so the remainder's count is the sum of its
    # units' counts
    units = text.split(" ")
    counts = [count_tokens(u) for u in units]
    remaining = sum(counts)
    for lo, count in enumerate(counts):
        if remaining <= max_tokens:
            return " ".join(units[lo:])
        remaining -= count
    return ""


def parse_history(text: str) -> list[tuple[Speaker, str]]:
    """Invert linearize_history (exact, given the tag escape rule)."""
    out: list[tuple[Speaker, str]] = []
    pos = 0
    current: Optional[Speaker] = None
    for m in re.finditer(re.escape(TAG_USER) + "|" + re.escape(TAG_SYS), text):
        if current is not None:
            out.append((current, text[pos:m.start()].strip()))
        current = Speaker.USER if m.group() == TAG_USER else Speaker.SYSTEM
        pos = m.end()
    if current is not None:
        out.append((current, text[pos:].strip()))
    return out


def linearize_knowledge(snippet: KnowledgeSnippet) -> str:
    return f"{TAG_KNG} {snippet.question} {TAG_ANS} {snippet.answer}".rstrip()


def linearize_entity(name: str) -> str:
    return f"{TAG_ENT} {name}"


def build_generation_context(dialogue: Dialogue,
                             topk: Sequence[KnowledgeSnippet],
                             max_tokens: int = 0) -> str:
    """The tagged generation input: history, then knowledge blocks in
    descending rank order (worst first, best adjacent to the final user
    turn), then the last user turn, cut from the left to ``max_tokens``
    tokens by `truncate_left` (``gen.max_history_tokens``; <= 0 keeps it
    whole). It is the one input cut before its model reads it."""
    if not dialogue.turns:
        raise CorpusError(f"dialogue {dialogue.id} has no turns")
    if len(topk) > TOP_K:
        raise CorpusError(f"generation context accepts at most {TOP_K} knowledge snippets")
    last = dialogue.turns[-1]
    if last.speaker is not Speaker.USER:
        raise CorpusError(f"dialogue {dialogue.id}: final turn must be USER")
    parts = [f"{t.tag} {normalize_ws(t.text)}" for t in dialogue.turns[:-1]]
    for rank in range(len(topk), 0, -1):
        snip = topk[rank - 1]
        parts.append(f"{tag_kng_k(rank)} {TAG_ENT} {snip.entity_name} {TAG_ANS} {snip.answer}")
    parts.append(f"{TAG_USER} {normalize_ws(last.text)}")
    return truncate_left(" ".join(parts), max_tokens)


def check_kfold(n_items: int, k: int) -> None:
    """Fewer than 2 folds, or more folds than items, is a CorpusError."""
    if k < 2:
        raise CorpusError("k must be at least 2")
    if k > n_items:
        raise CorpusError(f"cannot split {n_items} items into {k} folds")


def split_kfold(items: Sequence, k: int, seed: int) -> list[list]:
    """Shuffle deterministically and deal into k folds with sizes
    differing by at most one; ``check_kfold`` rejects k first."""
    check_kfold(len(items), k)
    order = np.random.default_rng(seed).permutation(len(items))
    folds: list[list] = [[] for _ in range(k)]
    for pos, idx in enumerate(order):
        folds[pos % k].append(items[int(idx)])
    return folds


def strip_labels(dialogues: Iterable[Dialogue]) -> list[Dialogue]:
    return [replace(d, label=None) for d in dialogues]
