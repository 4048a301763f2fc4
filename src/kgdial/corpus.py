"""Dialogue corpus model, DSTC-format JSON I/O, tagged linearization.

Conventions used throughout the package:
  * a token is a whitespace-separated unit after lowercasing and
    punctuation detachment; reserved tags count as one token each;
  * reserved tags never occur inside utterance text (escaped on load
    by bracket substitution), which keeps linearization invertible;
  * truncation always drops the left-most tokens, so the most recent
    context survives.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .kernels import char_counts

DOMAIN_LEVEL = "*"

TAG_USER = "⟨user⟩"
TAG_SYS = "⟨sys⟩"
TAG_KNG = "⟨kng⟩"
TAG_ENT = "⟨ent⟩"
TAG_ANS = "⟨ans⟩"
TAG_RESP = "⟨resp⟩"


def tag_kng_k(k: int) -> str:
    if not 1 <= k <= 5:
        raise ValueError(f"ranked knowledge tag index out of range: {k}")
    return f"⟨kng_{k}⟩"


RESERVED_TAGS = (
    TAG_USER, TAG_SYS, TAG_KNG,
    tag_kng_k(1), tag_kng_k(2), tag_kng_k(3), tag_kng_k(4), tag_kng_k(5),
    TAG_ENT, TAG_ANS, TAG_RESP,
)

_TAG_RE = re.compile("⟨\\w+⟩")
_WORD_RE = re.compile(r"\w+|[^\w\s]")
_WS_RE = re.compile(r"\s+")


class Speaker(Enum):
    USER = "U"
    SYSTEM = "S"


class CorpusError(Exception):
    """Malformed or misaligned corpus input."""


def escape_tags(text: str) -> str:
    """Replace reserved tag tokens by their round-bracket twins."""
    for tag in RESERVED_TAGS:
        if tag in text:
            text = text.replace(tag, "(" + tag[1:-1] + ")")
    return text


def normalize_ws(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


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


def count_tokens(text: str, count_tags: bool = True) -> int:
    toks = tokenize(text)
    if count_tags:
        return len(toks)
    return sum(1 for t in toks if not _TAG_RE.fullmatch(t))


@dataclass(frozen=True)
class Turn:
    speaker: Speaker
    text: str

    def __post_init__(self):
        if not normalize_ws(self.text):
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

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.domain, self.entity_id, self.doc_id)

    @property
    def entity_key(self) -> tuple[str, str]:
        return (self.domain, self.entity_id)

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
    its entities in the entity list, ``lengths`` holds those tuples' token
    lengths in ascending order, and ``targets`` is each entity's name as
    its space-joined tokens. For fuzzy matching, ``groups`` maps a token
    length to the distinct targets of that length (first-seen order) and
    their ``char_counts`` rows over ``alphabet``, the sorted code points of
    all targets.
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
        self.lengths: tuple[int, ...] = tuple(sorted(grouped))
        # sorted code points; np.unique would import numpy.ma (about 0.6 MB)
        self.alphabet = np.array(sorted(set(map(ord, "".join(self.targets)))),
                                 dtype=np.int64)
        self.groups: dict[int, tuple[tuple[str, ...], np.ndarray]] = {
            w: (tuple(g), char_counts(list(g), self.alphabet))
            for w, g in grouped.items()}


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
        self.entity_set: tuple[str, ...] = tuple(
            dict.fromkeys(e.name for e in self.entities))
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


def load_corpus(logs_path: str, labels_path: Optional[str] = None) -> list[Dialogue]:
    """Load DSTC-format logs (and optional aligned labels) into dialogues.

    Turn text is whitespace-normalized and reserved tags are escaped, so
    a write/read round trip is the identity.
    """
    with open(logs_path, encoding="utf-8") as fh:
        logs = json.load(fh)
    if not isinstance(logs, list):
        raise CorpusError("logs file must contain an array of dialogues")
    labels = None
    if labels_path is not None:
        with open(labels_path, encoding="utf-8") as fh:
            labels = json.load(fh)
        if not isinstance(labels, list) or len(labels) != len(logs):
            raise CorpusError(
                f"labels/logs length mismatch: {len(labels) if isinstance(labels, list) else '?'} "
                f"vs {len(logs)}")
    dialogues = []
    for i, raw_turns in enumerate(logs):
        try:
            turns = tuple(
                Turn(speaker=Speaker(t["speaker"]),
                     text=escape_tags(normalize_ws(t["text"])))
                for t in raw_turns)
        except (KeyError, ValueError, TypeError) as exc:
            raise CorpusError(f"malformed log record at index {i}: {exc}") from exc
        label = None
        if labels is not None:
            try:
                label = _parse_label(labels[i])
            except (KeyError, TypeError) as exc:
                raise CorpusError(f"malformed label record at index {i}: {exc}") from exc
        dialogues.append(Dialogue(id=f"d{i:05d}", turns=turns, label=label))
    return dialogues


def _parse_label(raw: dict) -> TurnLabel:
    target = bool(raw["target"])
    refs = tuple(
        (str(k["domain"]), str(k["entity_id"]), str(k["doc_id"]))
        for k in raw.get("knowledge", []) or [])
    response = raw.get("response")
    if response is not None:
        response = escape_tags(normalize_ws(response))
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
    DOMAIN_LEVEL id become a pseudo-entity named after the domain.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    snippets = []
    for domain, entities in data.items():
        for entity_id, entry in entities.items():
            name = entry.get("name") or domain
            if str(entity_id) == DOMAIN_LEVEL:
                name = domain
            for doc_id, doc in entry.get("docs", {}).items():
                snippets.append(KnowledgeSnippet(
                    domain=str(domain),
                    entity_id=str(entity_id),
                    entity_name=escape_tags(normalize_ws(str(name))),
                    question=escape_tags(normalize_ws(doc["title"])),
                    answer=escape_tags(normalize_ws(doc["body"])),
                    doc_id=str(doc_id)))
    return KnowledgeBase(snippets)


def save_knowledge_base(kb: KnowledgeBase, path: str) -> None:
    data: dict = {}
    for s in kb.snippets:
        ent = data.setdefault(s.domain, {}).setdefault(
            s.entity_id,
            {"name": None if s.is_domain_level else s.entity_name, "docs": {}})
        ent["docs"][s.doc_id] = {"title": s.question, "body": s.answer}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, ensure_ascii=False, indent=1)


def linearize_history(dialogue: Dialogue, max_tokens: int = 0,
                      count_tags: bool = True) -> str:
    """Tag-separated dialogue history, left-truncated to max_tokens.

    max_tokens <= 0 means unlimited. Tags are single tokens and are never
    split; when the budget is exceeded, whole whitespace units are dropped
    from the left until the canonical token count fits.
    """
    if not dialogue.turns:
        raise CorpusError(f"dialogue {dialogue.id} has no turns")
    text = " ".join(f"{t.tag} {normalize_ws(t.text)}" for t in dialogue.turns)
    return truncate_left(text, max_tokens, count_tags=count_tags)


def truncate_left(text: str, max_tokens: int, count_tags: bool = True) -> str:
    if max_tokens <= 0 or count_tokens(text, count_tags) <= max_tokens:
        return text
    units = text.split(" ")
    # drop leading units until the canonical count of the remainder fits
    lo = 0
    while lo < len(units):
        candidate = " ".join(units[lo:])
        if count_tokens(candidate, count_tags) <= max_tokens:
            return candidate
        lo += 1
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


@dataclass(frozen=True)
class GenerationContext:
    """Tagged generation input plus bookkeeping for downstream checks."""
    text: str
    has_knowledge: bool
    snippet_keys: tuple[tuple[str, str, str], ...] = ()

    def __str__(self) -> str:
        return self.text


def build_generation_context(dialogue: Dialogue,
                             topk: Sequence[KnowledgeSnippet],
                             max_tokens: int = 0,
                             count_tags: bool = True) -> GenerationContext:
    """History, then knowledge blocks in descending rank order (worst
    first, best adjacent to the final user turn), then the last user turn.
    """
    if not dialogue.turns:
        raise CorpusError(f"dialogue {dialogue.id} has no turns")
    if len(topk) > 5:
        raise CorpusError("generation context accepts at most 5 knowledge snippets")
    last = dialogue.turns[-1]
    if last.speaker is not Speaker.USER:
        raise CorpusError(f"dialogue {dialogue.id}: final turn must be USER")
    parts = [f"{t.tag} {normalize_ws(t.text)}" for t in dialogue.turns[:-1]]
    for rank in range(len(topk), 0, -1):
        snip = topk[rank - 1]
        parts.append(f"{tag_kng_k(rank)} {TAG_ENT} {snip.entity_name} {TAG_ANS} {snip.answer}")
    parts.append(f"{TAG_USER} {normalize_ws(last.text)}")
    text = truncate_left(" ".join(parts), max_tokens, count_tags=count_tags)
    return GenerationContext(
        text=text,
        has_knowledge=len(topk) > 0,
        snippet_keys=tuple(s.key for s in topk))


def split_kfold(items: Sequence, k: int, seed: int) -> list[list]:
    """Shuffle deterministically and deal into k folds with sizes
    differing by at most one."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > len(items):
        raise ValueError(f"cannot split {len(items)} items into {k} folds")
    order = np.random.default_rng(seed).permutation(len(items))
    folds: list[list] = [[] for _ in range(k)]
    for pos, idx in enumerate(order):
        folds[pos % k].append(items[int(idx)])
    return folds


def strip_labels(dialogues: Iterable[Dialogue]) -> list[Dialogue]:
    return [replace(d, label=None) for d in dialogues]
