"""Bundled synthetic mini-corpus: a small FAQ world with spoken-style noise.

Builds ~200 task-oriented dialogues over 30 entities (27 named plus 3
domain pseudo-entities) and 150 knowledge snippets, then corrupts user
mentions with the augment module's own primitives: phonetic neighbor
substitution from a bundled pseudo-phoneme lexicon, entity-name
scattering, and word drops. Everything is deterministic under the seed.

The corpus is deliberately adversarial to exact string matching (a
configurable share of mentions is corrupted), mildly adversarial to
fuzzy matching (scatters and drops defeat windowed edit distance), and
learnable (every corrupted variant also occurs in training data).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .augment import AugmentConfig, PhoneticIndex, augment_entity_name, \
    build_phonetic_index, phonetic_neighbors
from .corpus import (DOMAIN_LEVEL, Dialogue, KnowledgeBase, KnowledgeSnippet,
                     Speaker, Turn, TurnLabel)

FIRST_WORDS = [
    "hamilton", "riverside", "golden", "imperial", "crystal", "summit",
    "harbor", "maple", "sterling", "willow", "copper", "marble", "falcon",
    "juniper", "ember", "cascade", "aurora", "bramble", "ivory", "lantern",
    "meadow", "nimbus", "orchid", "pinnacle", "quartz", "sequoia", "thistle",
]

DOMAIN_SUFFIXES = {
    "hotel": ["lodge", "inn", "suites"],
    "restaurant": ["grill", "bistro", "diner"],
    "attraction": ["museum", "gardens", "tower"],
}

QUESTIONS = {
    "hotel": [
        ("Can I cook my own food at {e}?", "can i cook my own meals there?"),
        ("Is breakfast included at {e}?", "is breakfast part of the price?"),
        ("Are pets allowed at {e}?", "could i bring my dog along?"),
        ("Is there parking at {e}?", "do they have a car park?"),
        ("What time is checkout at {e}?", "when do i need to check out?"),
    ],
    "restaurant": [
        ("Does {e} take reservations?", "can i reserve a table ahead?"),
        ("Is {e} open on Mondays?", "are they open on monday?"),
        ("Does {e} have vegan options?", "anything vegan on the menu?"),
        ("Is there outdoor seating at {e}?", "can we sit outside?"),
        ("Does {e} deliver?", "do they bring food to my place?"),
    ],
    "attraction": [
        ("Is {e} free to enter?", "do i have to pay to get in?"),
        ("Is {e} wheelchair accessible?", "is it wheelchair friendly?"),
        ("Are guided tours available at {e}?", "can i join a guided tour?"),
        ("Can I buy tickets online for {e}?", "can i get tickets on the web?"),
        ("Is photography allowed at {e}?", "am i allowed to take photos?"),
    ],
}

DOMAIN_QUESTIONS = {
    "hotel": ("Do hotels in town allow late checkout?",
              "Policies vary, ask each hotel directly."),
    "restaurant": ("Do restaurants in town add a service charge?",
                   "Most add ten percent for groups over six."),
    "attraction": ("Do attractions in town close on public holidays?",
                   "Many close on major holidays, check ahead."),
}

TRAILING_QUESTIONS = {
    "hotel": "Would you like to book a room?",
    "restaurant": "Would you like to reserve a table?",
    "attraction": "Would you like directions?",
}

OPENERS = [
    "hi i am looking at {e} for this weekend",
    "hello i heard about {e} from a friend",
    "hey can you tell me about {e}",
    "good morning i am interested in {e}",
]

SYSTEM_REPLIES = [
    "sure that is a fine choice what would you like to know",
    "of course happy to help with that place",
    "certainly i can look that up for you",
    "no problem i know the one you mean",
]

NON_SEEKING_FINALS = [
    "great please book it for two people",
    "sounds good make the booking for tomorrow",
    "thanks that is all i needed",
    "perfect go ahead and reserve it",
]

FILLER_WORDS = ["hi", "hello", "hey", "looking", "heard", "interested",
                "weekend", "friend", "morning", "book", "reserve", "tomorrow"]


_VOWEL_SWAPS = {"a": "e", "e": "i", "i": "y", "o": "u", "u": "o"}
_CONSONANT_SWAPS = {"t": "d", "d": "t", "n": "m", "m": "n", "l": "r",
                    "r": "l", "g": "k", "k": "g", "s": "z", "z": "s",
                    "b": "p", "p": "b", "c": "k", "v": "f", "f": "v"}


def _variant(word: str, heavy: bool = False) -> str:
    """Deterministic near-miss spelling used as the phonetic confusion.

    The light variant is one vowel swap (close enough for fuzzy matching
    to recover); the heavy variant adds a consonant swap and a dropped
    character, pushing windowed edit similarity below usual thresholds.
    """
    chars = list(word)
    for idx, ch in enumerate(chars):
        if ch in _VOWEL_SWAPS:
            chars[idx] = _VOWEL_SWAPS[ch]
            break
    if heavy:
        for idx in range(len(chars) - 1, -1, -1):
            if chars[idx] in _CONSONANT_SWAPS:
                chars[idx] = _CONSONANT_SWAPS[chars[idx]]
                break
        if len(chars) > 6:
            del chars[len(chars) // 2]
    out = "".join(chars)
    return out if out != word else word + ("ke" if heavy else "e")


def build_lexicon() -> dict[str, list[str]]:
    """Pseudo-phoneme lexicon: letters as phones, plus near-miss variants
    so every entity word has a close and a far phonetic neighbor."""
    lexicon: dict[str, list[str]] = {}
    words = set(FILLER_WORDS)
    entity_words = list(FIRST_WORDS)
    for suffixes in DOMAIN_SUFFIXES.values():
        entity_words.extend(suffixes)
    for word in entity_words:
        words.add(word)
        words.add(_variant(word))
        words.add(_variant(word, heavy=True))
    for word in sorted(words):
        lexicon[word] = [c.upper() for c in word]
    return lexicon


def save_lexicon(lexicon: dict[str, list[str]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word in sorted(lexicon):
            fh.write(f"{word}\t{' '.join(lexicon[word])}\n")


def build_mini_kb() -> KnowledgeBase:
    snippets = []
    name_iter = iter(FIRST_WORDS)
    for domain, suffixes in DOMAIN_SUFFIXES.items():
        for i in range(9):
            first = next(name_iter)
            name = f"{first} {suffixes[i % len(suffixes)]}"
            for doc_id, (question, _) in enumerate(QUESTIONS[domain]):
                answer = _answer_for(domain, doc_id, name)
                snippets.append(KnowledgeSnippet(
                    domain=domain, entity_id=str(i + 1), entity_name=name,
                    question=question.format(e=name), answer=answer,
                    doc_id=str(doc_id)))
        q, a = DOMAIN_QUESTIONS[domain]
        for doc_id in range(5):
            snippets.append(KnowledgeSnippet(
                domain=domain, entity_id=DOMAIN_LEVEL, entity_name=domain,
                question=f"{q} (note {doc_id})", answer=a, doc_id=str(doc_id)))
    return KnowledgeBase(snippets)


def _answer_for(domain: str, doc_id: int, name: str) -> str:
    polarity = "Yes" if (hash_stable(name) + doc_id) % 2 == 0 else "No"
    details = {
        "hotel": ["guests may use the shared kitchen", "breakfast is served until ten",
                  "small pets stay free", "the garage fits thirty cars",
                  "checkout is at eleven"],
        "restaurant": ["tables can be reserved by phone", "monday hours are noon to nine",
                       "the menu marks vegan dishes", "the terrace seats twenty",
                       "delivery runs within three miles"],
        "attraction": ["entry is covered by the city pass", "all floors have ramp access",
                       "tours start every hour", "online tickets skip the line",
                       "photos are fine without flash"],
    }
    return f"{polarity}, {details[domain][doc_id]} at {name}."


def hash_stable(text: str) -> int:
    import zlib

    return zlib.crc32(text.encode("utf-8"))


# per-entity cycle of mention corruption modes, shuffled per entity;
# stratifying (rather than iid rolls) keeps every entity's spoken variants
# represented in any sizable training split
CORRUPTION_PATTERN = ("none", "none", "none", "light", "heavy", "heavy", "scatter", "drop")


@dataclass
class MiniCorpusConfig:
    n_dialogues: int = 200
    seeking_fraction: float = 0.75
    trailing_question_rate: float = 0.4
    seed: int = 0


def _corrupt_phonetic(mention: str, entity_name: str, index: PhoneticIndex,
                      rng: np.random.Generator, heavy: bool) -> str:
    """Swap entity-name words for phonetic neighbors from the index.

    Light mode replaces words with their nearest neighbor, the one-edit
    variant that fuzzy matching still recovers. Heavy mode replaces every
    name word with a farther neighbor, modelling badly garbled speech
    recognition.
    """
    name_words = entity_name.split()
    words = mention.split()
    swapped = False
    for i, word in enumerate(words):
        if word not in name_words:
            continue
        if not heavy and swapped and rng.uniform() < 0.5:
            continue
        neighbors = phonetic_neighbors(index, word, 2)
        if not neighbors:
            continue
        pick = neighbors[1] if heavy and len(neighbors) > 1 else neighbors[0]
        words[i] = pick
        swapped = True
    return " ".join(words)


def build_mini_corpus(config: Optional[MiniCorpusConfig] = None
                      ) -> tuple[list[Dialogue], KnowledgeBase, dict[str, list[str]]]:
    """Deterministic noisy mini-corpus; returns (dialogues, kb, lexicon)."""
    config = config or MiniCorpusConfig()
    lexicon = build_lexicon()
    kb = build_mini_kb()
    index = build_phonetic_index(lexicon)
    rng = np.random.default_rng(config.seed)
    named = [e for e in kb.entities if not e.is_domain_level]
    cycles = {}
    for entity in named:
        pattern = list(CORRUPTION_PATTERN)
        erng = np.random.default_rng(hash_stable(f"{config.seed}:{entity.name}"))
        erng.shuffle(pattern)
        cycles[entity.key] = pattern
    dialogues = []
    for i in range(config.n_dialogues):
        entity = named[i % len(named)]
        occurrence = i // len(named)
        drng = np.random.default_rng(hash_stable(f"{config.seed}:{i}"))
        opener = OPENERS[int(drng.integers(len(OPENERS)))].format(e=entity.name)
        sys_reply = SYSTEM_REPLIES[int(drng.integers(len(SYSTEM_REPLIES)))]
        seeking = drng.uniform() < config.seeking_fraction
        snippets = [s for s in kb.snippets_for(entity.domain, entity.entity_id)]
        doc = snippets[int(drng.integers(len(snippets)))]
        final = QUESTIONS[entity.domain][int(doc.doc_id)][1] if seeking \
            else NON_SEEKING_FINALS[int(drng.integers(len(NON_SEEKING_FINALS)))]

        turns = [Turn(Speaker.USER, opener),
                 Turn(Speaker.SYSTEM, sys_reply),
                 Turn(Speaker.USER, final)]
        dialogue = Dialogue(id=f"m{i:04d}", turns=tuple(turns))

        cycle = cycles[entity.key]
        mode = cycle[occurrence % len(cycle)]
        if mode in ("light", "heavy"):
            noisy = _corrupt_phonetic(opener, entity.name, index, drng,
                                      heavy=mode == "heavy")
            dialogue = replace(dialogue, turns=(
                Turn(Speaker.USER, noisy),) + dialogue.turns[1:])
        elif mode == "scatter":
            ena = AugmentConfig(ena_probability=1.0, ena_delete_prob=0.0)
            dialogue = augment_entity_name(
                dialogue, doc, is_positive=True, config=ena, rng=drng)
        elif mode == "drop":
            dropped = _drop_one_name_word(opener, entity.name, drng)
            dialogue = replace(dialogue, turns=(
                Turn(Speaker.USER, dropped),) + dialogue.turns[1:])

        if seeking:
            response = doc.answer
            if drng.uniform() < config.trailing_question_rate:
                response = f"{response} {TRAILING_QUESTIONS[entity.domain]}"
            label = TurnLabel(is_knowledge_seeking=True,
                              knowledge_refs=(doc.key,), response=response)
        else:
            label = TurnLabel(is_knowledge_seeking=False, response=None)
        dialogues.append(replace(dialogue, label=label))
    return dialogues, kb, lexicon


def _drop_one_name_word(mention: str, entity_name: str,
                        rng: np.random.Generator) -> str:
    name_words = entity_name.split()
    victim = name_words[int(rng.integers(len(name_words)))]
    words = mention.split()
    if victim in words:
        words.remove(victim)
    return " ".join(words)
