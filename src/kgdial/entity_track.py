"""Entity tracking: which knowledge-base entities does a dialogue mention.

Three interchangeable methods (exact token match, fuzzy windowed edit
distance, learned pair scorer over a threshold) feed candidate knowledge
collection for the ranking stage. The fuzzy method runs the edit-distance
DP only on (name, window) pairs that a character-count lower bound cannot
rule out, once per distinct window, and stops at a name's first hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .corpus import (DOMAIN_LEVEL, Dialogue, Entity, KnowledgeBase,
                     KnowledgeSnippet, linearize_entity, linearize_history,
                     tokenize)
from .kernels import encode_chars, levenshtein
from .models import SentencePairScorer


class TrackMethod(Enum):
    EXACT = "exact"
    FUZZY = "fuzzy"
    LEARNED = "learned"


@dataclass(frozen=True)
class EntityTrackConfig:
    method: TrackMethod = TrackMethod.FUZZY
    fuzzy_threshold: float = 0.8
    delta_e: float = 0.5
    max_history_tokens: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fuzzy_threshold <= 1.0:
            raise ValueError("fuzzy_threshold out of [0,1]")
        if not 0.0 <= self.delta_e <= 1.0:
            raise ValueError("delta_e out of [0,1]")


def _utterance_tokens(dialogue: Dialogue) -> list[list[str]]:
    return [tokenize(t.text) for t in dialogue.turns]


def _contains_subseq(haystack: list[str], needle: list[str]) -> bool:
    n = len(needle)
    if n == 0 or n > len(haystack):
        return False
    return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))


def exact_match_entities(dialogue: Dialogue, kb: KnowledgeBase) -> list[Entity]:
    """Entities whose normalized name is a contiguous token subsequence of
    some utterance. Domain pseudo-entities match on the domain name."""
    utterances = _utterance_tokens(dialogue)
    out = []
    for entity in kb.entities:
        name = tokenize(entity.name)
        if any(_contains_subseq(u, name) for u in utterances):
            out.append(entity)
    return out


def fuzzy_similarity(name: str, utterance_tokens: list[str]) -> float:
    """Best-window similarity: 1 - edit_distance / max_len over every
    same-token-length window of the utterance, compared at character level
    on the space-joined strings."""
    name_tokens = tokenize(name)
    w = len(name_tokens)
    if w == 0 or w > len(utterance_tokens):
        return 0.0
    target = " ".join(name_tokens)
    best = 0.0
    for start in range(len(utterance_tokens) - w + 1):
        window = " ".join(utterance_tokens[start:start + w])
        dist = levenshtein(target, window)
        denom = max(len(target), len(window))
        if denom == 0:
            continue
        best = max(best, 1.0 - dist / denom)
    return best


def _char_counts(strings: Sequence[str], alphabet: np.ndarray) -> np.ndarray:
    """Per-string character counts over ``alphabet``, one row per string.
    Column 0 pools every character outside the alphabet."""
    codes = encode_chars("".join(strings))
    pos = np.minimum(np.searchsorted(alphabet, codes), len(alphabet) - 1)
    column = np.where(alphabet[pos] == codes, pos + 1, 0)
    row = np.repeat(np.arange(len(strings)), [len(s) for s in strings])
    width = len(alphabet) + 1
    return np.bincount(row * width + column,
                       minlength=len(strings) * width).reshape(len(strings), width)


def fuzzy_match_entities(dialogue: Dialogue, kb: KnowledgeBase,
                         threshold: float = 0.8) -> list[Entity]:
    """Entities whose best ``fuzzy_similarity`` over the utterances reaches
    ``threshold``; an entity with no same-length window scores 0.0.

    Names are grouped by token length and each distinct window string of
    that length is compared once. The edit distance is bounded below by
    the character-count difference max(sum (a-b)+, sum (b-a)+) over the
    alphabet of the names, which also covers the length difference;
    characters outside that alphabet share one count, where the name's
    count is 0. ``levenshtein`` runs only on windows whose bound still
    allows the threshold, most promising first, up to the name's first hit.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold out of [0,1]")
    if threshold == 0.0:  # every score, 0.0 included, reaches it
        return list(kb.entities)
    utterances = _utterance_tokens(dialogue)
    names = [tokenize(e.name) for e in kb.entities]
    targets = [" ".join(tokens) for tokens in names]
    by_length: dict[int, dict[str, None]] = {}
    for tokens, target in zip(names, targets):
        if tokens:
            by_length.setdefault(len(tokens), {})[target] = None
    # sorted code points; np.unique would import numpy.ma (about 0.6 MB)
    alphabet = np.array(sorted(set(map(ord, "".join(targets)))), dtype=np.int64)
    hits = set()
    for w, group in by_length.items():
        windows = list(dict.fromkeys(
            " ".join(u[start:start + w])
            for u in utterances for start in range(len(u) - w + 1)))
        if not windows:
            continue
        window_counts = _char_counts(windows, alphabet)
        window_lens = np.array([len(x) for x in windows])
        for target, counts in zip(group, _char_counts(list(group), alphabet)):
            surplus = np.maximum(counts - window_counts, 0).sum(axis=1)
            bound = np.maximum(surplus, surplus + window_lens - len(target))
            denom = np.maximum(window_lens, len(target))
            reach = 1.0 - bound / denom
            open_ = np.flatnonzero(reach >= threshold)
            for j in open_[np.argsort(-reach[open_], kind="stable")]:
                dist = levenshtein(target, windows[j])
                if 1.0 - dist / int(denom[j]) >= threshold:
                    hits.add(target)
                    break
    return [e for e, target in zip(kb.entities, targets) if target in hits]


def track_entities(scorer: SentencePairScorer, dialogue: Dialogue,
                   kb: KnowledgeBase, delta_e: float = 0.5,
                   max_history_tokens: int = 0) -> list[Entity]:
    """Learned tracking: keep entities the scorer rates above delta_e."""
    history = linearize_history(dialogue, max_history_tokens)
    out = []
    for entity in kb.entities:
        if scorer.score(history, linearize_entity(entity.name)) > delta_e:
            out.append(entity)
    return out


def collect_candidates(entities: Sequence[Entity],
                       kb: KnowledgeBase) -> list[KnowledgeSnippet]:
    """Union of snippets of the tracked entities plus the domain-level
    snippets of their domains, deduplicated, in stable key order."""
    seen = {}
    for entity in entities:
        for snip in kb.snippets_for(entity.domain, entity.entity_id):
            seen[snip.key] = snip
        for snip in kb.snippets_for(entity.domain, DOMAIN_LEVEL):
            seen[snip.key] = snip
    return [seen[k] for k in sorted(seen)]


def build_tracking_examples(dialogues: Sequence[Dialogue], kb: KnowledgeBase,
                            rng, negatives_per_dialogue: int = 3,
                            max_history_tokens: int = 0) -> list[tuple[str, str, int]]:
    """(history, tagged entity name, label) pairs for the learned tracker.

    Positives come from the labeled ground-truth knowledge; negatives are
    sampled entities not referenced by the turn.
    """
    examples = []
    for d in dialogues:
        if d.label is None or not d.label.is_knowledge_seeking or not d.label.knowledge_refs:
            continue
        history = linearize_history(d, max_history_tokens)
        positive_keys = {(dom, eid) for dom, eid, _ in d.label.knowledge_refs}
        positives = [e for e in kb.entities if e.key in positive_keys]
        negatives = [e for e in kb.entities if e.key not in positive_keys]
        for entity in positives:
            examples.append((history, linearize_entity(entity.name), 1))
        take = min(negatives_per_dialogue, len(negatives))
        if take:
            picks = rng.choice(len(negatives), size=take, replace=False)
            for idx in sorted(int(i) for i in picks):
                examples.append((history, linearize_entity(negatives[idx].name), 0))
    return examples


def entity_recall(predicted: Sequence[Sequence[Entity]],
                  references: Sequence[set[tuple[str, str]]]) -> float:
    """Fraction of reference entity keys covered by the predictions."""
    if len(predicted) != len(references):
        raise ValueError("prediction/reference length mismatch")
    total = hit = 0
    for ents, refs in zip(predicted, references):
        keys = {e.key for e in ents}
        for ref in refs:
            total += 1
            if ref in keys:
                hit += 1
    return hit / total if total else 0.0
