"""Entity tracking: which knowledge-base entities does a dialogue mention.

Three interchangeable methods (exact token match, fuzzy windowed edit
distance, learned pair scorer over a threshold) feed candidate knowledge
collection for the ranking stage. The exact and fuzzy methods read the
knowledge base's ``name_index``, built once with the knowledge base: exact
matching is one dict lookup per (utterance position, name token length) at
the positions that hold some name's first token. Fuzzy matching matches each
distinct window string once per knowledge base and threshold and keeps the
result in the index's ``fuzzy_windows`` tables, so a turn served after the
turns before it computes only the windows its new utterances add: it bounds
the (name, new window) pairs of a token length by a character-count
difference, all pairs of the length as one product, then computes the edit
distances of the pairs the bound leaves open, those of every length
together, in one batched DP per call (``kernels.levenshtein_many``). Learned
tracking scores the history against every entity in one ``scores`` call of
the pair scorer, which maps the history to ids once and, for the reference
scorer, tables the attention between the history's and the names' distinct
tokens once, with shifts taken from the history alone, each truncation
window a count vector over the history's tokens
(``ToyEncoder.pair_readouts``; the encoder has no position parameters).
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .corpus import (DOMAIN_LEVEL, Dialogue, Entity, EntityNameIndex,
                     KnowledgeBase, KnowledgeSnippet, linearize_entity,
                     linearize_history, tokenize)
from .kernels import char_units, levenshtein, levenshtein_many
from .models import SentencePairScorer


# most windows the fuzzy tables of one knowledge base hold, under 100 bytes
# each (tracemalloc); decoding 150 held-out synth dialogues meets about 600
_WINDOW_TABLE_BOUND = 1 << 14


class TrackMethod(Enum):
    EXACT = "exact"
    FUZZY = "fuzzy"
    LEARNED = "learned"


def _utterance_tokens(dialogue: Dialogue) -> list[list[str]]:
    return [tokenize(t.text) for t in dialogue.turns]


def exact_mentions(tokens: Sequence[str],
                   index: EntityNameIndex) -> dict[int, tuple[int, int]]:
    """Position in the entity list -> (end, length) of the rightmost
    occurrence of that entity's name tokens in ``tokens``: the offset just
    past it and its token count. One dict lookup per (position, name token
    length), at the positions that hold the first token of some name."""
    found = {}
    for start in range(len(tokens)):
        if tokens[start] not in index.firsts:
            continue
        for w in index.lengths:
            if start + w > len(tokens):
                break
            for i in index.positions.get(tuple(tokens[start:start + w]), ()):
                found[i] = (start + w, w)
    return found


def exact_match_entities(dialogue: Dialogue, kb: KnowledgeBase) -> list[Entity]:
    """Entities whose normalized name is a contiguous token subsequence of
    some utterance, in knowledge-base order. Domain pseudo-entities match
    on the domain name; a name with no tokens never matches."""
    hits: set[int] = set()
    for u in _utterance_tokens(dialogue):
        hits.update(exact_mentions(u, kb.name_index))
    return [kb.entities[i] for i in sorted(hits)]


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


def fuzzy_match_entities(dialogue: Dialogue, kb: KnowledgeBase,
                         threshold: float = 0.8) -> list[Entity]:
    """Entities whose best ``fuzzy_similarity`` over the utterances reaches
    ``threshold``; an entity with no same-length window scores 0.0.

    Names are grouped by token length and each distinct window string of
    that length is matched once per knowledge base and threshold: the
    targets within the threshold of a window are kept in the name index's
    ``fuzzy_windows`` table of that threshold, and a dialogue's result is
    the union over its windows, so a turn whose history was matched before
    computes only its new windows. A new window is compared to every name
    of its length. The edit distance is bounded below by the
    character-count difference max(sum (a-b)+, sum (b-a)+) of the name's
    counts a and the window's b. No name holds a character outside the
    names' alphabet, so that is max(len a, len b) - sum min(a, b), and
    sum min(a, b) is the dot product of the two strings' repeat-unit rows
    (``char_units``): the bound of every (name, new window) pair of a group
    is one float64 product, exact for these small counts. The edit
    distances of all pairs, of every group, whose bound still allows the
    threshold are computed in one ``levenshtein_many`` call. The tables of
    one knowledge base hold at most ``_WINDOW_TABLE_BOUND`` windows (or one
    call's new windows, if more): a call that would pass it clears them.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold out of [0,1]")
    if threshold == 0.0:  # every score, 0.0 included, reaches it
        return list(kb.entities)
    index = kb.name_index
    table = index.fuzzy_windows.get(threshold, {})
    utterances = _utterance_tokens(dialogue)
    hits: set[str] = set()
    found: dict[str, list[str]] = {}  # each window not in the table -> its targets
    pair_targets, pair_windows, pair_denoms = [], [], []
    for w, (group, group_units) in index.groups.items():
        windows = []
        for window in dict.fromkeys(
                " ".join(u[start:start + w])
                for u in utterances for start in range(len(u) - w + 1)):
            targets = table.get(window)
            if targets is None:
                windows.append(window)
                found[window] = []
            else:
                hits.update(targets)
        if not windows:
            continue
        denom = np.maximum(np.array([len(x) for x in windows]),
                           np.array([len(t) for t in group])[:, None])
        bound = denom - group_units @ char_units(windows, index.alphabet).T
        rows, cols = np.nonzero(1.0 - bound / denom >= threshold)
        pair_targets += [group[i] for i in rows.tolist()]
        pair_windows += [windows[j] for j in cols.tolist()]
        pair_denoms.append(denom[rows, cols])
    if pair_targets:
        dist = levenshtein_many(pair_targets, pair_windows)
        keep = 1.0 - dist / np.concatenate(pair_denoms) >= threshold
        for target, window, k in zip(pair_targets, pair_windows, keep.tolist()):
            if k:
                found[window].append(target)
                hits.add(target)
    if found:
        tables = index.fuzzy_windows
        if sum(map(len, tables.values())) + len(found) > _WINDOW_TABLE_BOUND:
            tables.clear()
        tables.setdefault(threshold, {}).update(
            (window, tuple(targets)) for window, targets in found.items())
    return [e for e, target in zip(kb.entities, index.targets) if target in hits]


def track_entities(scorer: SentencePairScorer, dialogue: Dialogue,
                   kb: KnowledgeBase, delta_e: float = 0.5) -> list[Entity]:
    """Learned tracking: keep entities the scorer rates above delta_e. The
    history is scored against every entity in one ``scores`` call."""
    history = linearize_history(dialogue)
    scores = scorer.scores(history, [linearize_entity(e.name) for e in kb.entities])
    return [e for e, s in zip(kb.entities, scores) if s > delta_e]


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
                            rng, negatives_per_dialogue: int = 3) -> list[tuple[str, str, int]]:
    """(history, tagged entity name, label) pairs for the learned tracker.

    Positives come from the labeled ground-truth knowledge; negatives are
    sampled entities not referenced by the turn.
    """
    examples = []
    for d in dialogues:
        if d.label is None or not d.label.is_knowledge_seeking or not d.label.knowledge_refs:
            continue
        history = linearize_history(d)
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
