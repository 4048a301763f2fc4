"""Speech-noise data augmentation.

Three strategies expand written training dialogues toward spoken style:

  * artificial error injection (AEI): replace a sampled fraction of words
    with phonetically similar ones found by approximate nearest-neighbor
    search under angular distance;
  * entity name augmentation (ENA): split/move or insert entity names to
    simulate scattered and spurious mentions (applied online in training);
  * text-speech-text (TST): round-trip through a TTS+ASR adapter; only
    the adapter protocol and a deterministic fake live here.

Words are embedded as L2-normalized bags of phoneme bigrams (character
bigrams for out-of-lexicon words), feature-hashed into a fixed dimension.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .corpus import Dialogue, KnowledgeSnippet, normalize_ws

EMBED_DIM = 512


class AugmentError(Exception):
    pass


@dataclass(frozen=True)
class AugmentConfig:
    replace_rate_low: float = 0.1
    replace_rate_high: float = 0.3
    ena_probability: float = 0.3
    ena_delete_prob: float = 0.1
    neighbor_k: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.replace_rate_low <= self.replace_rate_high <= 1.0:
            raise AugmentError("replace rates must satisfy 0 <= low <= high <= 1")
        for p in (self.ena_probability, self.ena_delete_prob):
            if not 0.0 <= p <= 1.0:
                raise AugmentError(f"probability out of range: {p}")


def _hash_dim(feature: str) -> int:
    return zlib.crc32(feature.encode("utf-8")) % EMBED_DIM


def _bigrams(units: Sequence[str]) -> list[str]:
    padded = ["^"] + list(units) + ["$"]
    return [padded[i] + "\x1f" + padded[i + 1] for i in range(len(padded) - 1)]


def embed_phonemes(phonemes: Sequence[str]) -> np.ndarray:
    """Unit-norm hashed bag of boundary-padded phoneme bigrams."""
    vec = np.zeros(EMBED_DIM, dtype=np.float64)
    for bg in _bigrams([p.upper() for p in phonemes]):
        vec[_hash_dim("P" + bg)] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def embed_chars(word: str) -> np.ndarray:
    """Character-bigram fallback for words without a lexicon entry."""
    vec = np.zeros(EMBED_DIM, dtype=np.float64)
    for bg in _bigrams(list(word.lower())):
        vec[_hash_dim("C" + bg)] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def angular_distance(cosine: np.ndarray | float) -> np.ndarray | float:
    return np.arccos(np.clip(cosine, -1.0, 1.0))


class PhoneticIndex:
    """Vocabulary embeddings plus a random-hyperplane hash for candidate
    generation; query results are exactly re-ranked by angular distance.

    Read-only after construction; safe to share across workers.
    """

    n_bits = 10
    n_tables = 16
    probe_radius = 2
    hash_seed = 1234

    def __init__(self, vocabulary: Sequence[str], embeddings: np.ndarray):
        if len(vocabulary) != embeddings.shape[0]:
            raise AugmentError("one embedding per vocabulary word required")
        self.vocabulary = list(vocabulary)
        self.embeddings = embeddings
        self.word_to_id = {w: i for i, w in enumerate(self.vocabulary)}
        rng = np.random.default_rng(self.hash_seed)
        self._planes = rng.standard_normal((self.n_tables, self.n_bits, EMBED_DIM))
        # (table, word) -> the word's signature in that table
        self._sigs = np.stack([self._signatures(embeddings, t)
                               for t in range(self.n_tables)])

    def _signatures(self, vecs: np.ndarray, table: int) -> np.ndarray:
        bits = (vecs @ self._planes[table].T) > 0
        weights = 1 << np.arange(self.n_bits)
        return bits @ weights

    def embed(self, word: str) -> np.ndarray:
        idx = self.word_to_id.get(word.lower())
        if idx is not None:
            return self.embeddings[idx]
        return embed_chars(word)

    def _candidates(self, vec: np.ndarray) -> np.ndarray:
        """Ids, ascending, of the words whose signature in some table is
        within ``probe_radius`` flipped bits of the query's (multiprobe:
        every bucket those flips reach is probed). The query's signatures in
        all tables come from one stacked product."""
        bits = (vec @ self._planes.transpose(0, 2, 1)) > 0
        query = bits @ (1 << np.arange(self.n_bits))
        near = np.bitwise_count(self._sigs ^ query[:, None]) <= self.probe_radius
        return np.flatnonzero(near.any(axis=0))

    def neighbors(self, word: str, k: int) -> list[tuple[str, float]]:
        """Up to k nearest distinct words by angular distance, self excluded."""
        if k < 1:
            raise AugmentError("k must be >= 1")
        vec = self.embed(word)
        cand = self._candidates(vec)
        if cand.size == 0:
            return []
        cos = self.embeddings[cand] @ vec
        dist = angular_distance(cos)
        order = np.lexsort((cand, dist))
        lower = word.lower()
        out = []
        for pos in order:
            w = self.vocabulary[int(cand[pos])]
            if w == lower:
                continue
            out.append((w, float(dist[pos])))
            if len(out) == k:
                break
        return out

    def exact_neighbors(self, word: str, k: int) -> list[tuple[str, float]]:
        """Exhaustive-scan reference used by tests and recall checks."""
        vec = self.embed(word)
        dist = angular_distance(self.embeddings @ vec)
        order = np.lexsort((np.arange(len(self.vocabulary)), dist))
        lower = word.lower()
        out = []
        for idx in order:
            w = self.vocabulary[int(idx)]
            if w == lower:
                continue
            out.append((w, float(dist[idx])))
            if len(out) == k:
                break
        return out


def build_phonetic_index(lexicon: dict[str, Sequence[str]]) -> PhoneticIndex:
    """Index every lexicon word by its phoneme-bigram embedding."""
    if not lexicon:
        raise AugmentError("lexicon must be non-empty")
    normalized = {w.lower(): phones for w, phones in lexicon.items()}
    words = sorted(normalized)
    embeddings = np.stack([embed_phonemes(normalized[w]) for w in words])
    return PhoneticIndex(words, embeddings)


def load_lexicon(path: str) -> dict[str, list[str]]:
    """CMU-style file: one entry per line, word TAB space-separated phonemes."""
    lexicon: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            try:
                word, phones = line.split("\t", 1)
            except ValueError as exc:
                raise AugmentError(f"lexicon line {lineno}: expected word<TAB>phonemes") from exc
            lexicon[word.strip().lower()] = phones.split()
    if not lexicon:
        raise AugmentError("lexicon file contains no entries")
    return lexicon


def phonetic_neighbors(index: PhoneticIndex, word: str, k: int) -> list[str]:
    return [w for w, _ in index.neighbors(word, k)]


def _is_tag(token: str) -> bool:
    return token.startswith("⟨") and token.endswith("⟩")


def inject_errors(utterance: str, index: PhoneticIndex, config: AugmentConfig,
                  rng: np.random.Generator) -> str:
    """Replace ceil(r*n) word positions with phonetic neighbors, r drawn
    uniformly from [replace_rate_low, replace_rate_high]. Tags are never
    touched; a word without neighbors stays put but still counts toward
    the replacement quota.
    """
    words = normalize_ws(utterance).split(" ")
    positions = [i for i, w in enumerate(words) if not _is_tag(w)]
    n = len(positions)
    if n == 0:
        raise AugmentError("utterance has no replaceable words")
    r = rng.uniform(config.replace_rate_low, config.replace_rate_high)
    count = int(np.ceil(r * n))
    chosen = rng.choice(len(positions), size=count, replace=False)
    for slot in sorted(int(c) for c in chosen):
        pos = positions[slot]
        options = phonetic_neighbors(index, words[pos], config.neighbor_k)
        if not options:
            continue
        words[pos] = options[int(rng.integers(len(options)))]
    return " ".join(words)


def _find_token_subseq(words: list[str], target: list[str]) -> Optional[int]:
    """The first position at which ``target`` occurs in ``words``."""
    start = -1
    while True:
        try:
            start = words.index(target[0], start + 1)
        except ValueError:
            return None
        if words[start:start + len(target)] == target:
            return start


def augment_entity_name(dialogue: Dialogue, candidate: KnowledgeSnippet,
                        is_positive: bool, config: AugmentConfig,
                        rng: np.random.Generator) -> Dialogue:
    """Scatter a matched entity name, or plant an absent one.

    Fires with probability ena_probability per call. Positive candidates
    whose name occurs in an utterance get the name split at a random word
    boundary with one half moved to a random gap; each name word is then
    independently dropped with ena_delete_prob. Negative candidates whose
    name is absent get the full name inserted at a random gap.
    """
    if rng.uniform() >= config.ena_probability:
        return dialogue
    name_words = candidate.entity_name.split(" ")
    turn_words = [t.text.split(" ") for t in dialogue.turns]

    # case-insensitive; lowering a whole text lowers each of its words alike
    target = candidate.entity_name.lower().split(" ")
    match = None
    for ti, turn in enumerate(dialogue.turns):
        start = _find_token_subseq(turn.text.lower().split(" "), target)
        if start is not None:
            match = (ti, start)
            break

    if is_positive and match is not None:
        ti, start = match
        w = len(name_words)
        surface = turn_words[ti][start:start + w]
        # stand-ins keep the name words addressable through the move
        sentinels: list = [("\x00ent", i) for i in range(w)]
        turn_words[ti][start:start + w] = sentinels
        touched = {ti}
        if w >= 2:
            split = int(rng.integers(1, w))
            moving = sentinels[:split] if rng.integers(2) else sentinels[split:]
            turn_words[ti] = [x for x in turn_words[ti] if x not in moving]
            touched.add(_insert_at_random_gap(turn_words, list(moving), rng))
        dropped = {i for i in range(w) if rng.uniform() < config.ena_delete_prob}
        return _rebuild(dialogue, {
            t: [surface[x[1]] if isinstance(x, tuple) else x for x in turn_words[t]
                if not isinstance(x, tuple) or x[1] not in dropped]
            for t in touched})

    if not is_positive and match is None:
        ti = _insert_at_random_gap(turn_words, list(name_words), rng)
        return _rebuild(dialogue, {ti: turn_words[ti]})

    return dialogue


def _insert_at_random_gap(turn_words: list[list[str]], words: list[str],
                          rng: np.random.Generator) -> int:
    """Insert ``words`` at a gap drawn uniformly from all turns' gaps (a
    turn of n words has n + 1, counted turn by turn); returns the turn's
    index."""
    gap = int(rng.integers(sum(len(tw) + 1 for tw in turn_words)))
    for ti, tw in enumerate(turn_words):
        if gap <= len(tw):
            tw[gap:gap] = words
            return ti
        gap -= len(tw) + 1


def _rebuild(dialogue: Dialogue, rewritten: dict[int, list[str]]) -> Dialogue:
    """A copy of ``dialogue`` whose turn ``t`` reads ``rewritten[t]``. Every
    other turn keeps its `Turn` object, and so does a rewritten turn left
    blank (a turn of only the deleted name) or with its own text again."""
    turns = list(dialogue.turns)
    for ti, words in rewritten.items():
        text = " ".join(words)
        if text and not text.isspace() and text != turns[ti].text:
            turns[ti] = replace(turns[ti], text=text)
    return replace(dialogue, turns=tuple(turns))


SpeechAdapter = Callable[[str], str]


class AdapterError(Exception):
    def __init__(self, message: str, utterance: str):
        super().__init__(f"{message} (utterance: {utterance!r})")
        self.utterance = utterance


class FakeSpeechAdapter:
    """Deterministic TTS+ASR stand-in driven by a word confusion table."""

    def __init__(self, confusions: dict[str, str]):
        self.confusions = {k.lower(): v for k, v in confusions.items()}

    @classmethod
    def from_file(cls, path: str) -> "FakeSpeechAdapter":
        table = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                try:
                    src, dst = line.split("\t", 1)
                except ValueError as exc:
                    raise AugmentError(f"{path} line {lineno}: expected "
                                       f"word<TAB>replacement") from exc
                table[src.strip()] = dst.strip()
        return cls(table)

    def __call__(self, utterance: str) -> str:
        out = [self.confusions.get(w.lower(), w)
               for w in normalize_ws(utterance).split(" ")]
        return " ".join(out)


def tst_transform(utterance: str, adapter: SpeechAdapter) -> str:
    """Round-trip an utterance through a text-speech-text adapter."""
    try:
        return adapter(utterance)
    except Exception as exc:
        raise AdapterError(f"speech adapter failed: {exc}", utterance) from exc


def _dialogue_rng(seed: int, dialogue_id: str, task: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(f"{seed}:{dialogue_id}:{task}".encode()))


def augment_corpus(dialogues: Sequence[Dialogue], index: Optional[PhoneticIndex],
                   config: AugmentConfig, adapter: Optional[SpeechAdapter] = None,
                   tasks: Iterable[str] = ("AEI",)) -> list[Dialogue]:
    """Original dialogues plus one augmented copy per offline strategy.

    AEI and TST run here; ENA is an online training-time transform and is
    deliberately not applied. Output is reproducible bit-for-bit from
    (input, config.seed).
    """
    tasks = set(tasks)
    unknown = tasks - {"AEI", "TST"}
    if unknown:
        raise AugmentError(f"unknown augmentation tasks: {sorted(unknown)}")
    if "TST" in tasks and adapter is None:
        raise AugmentError("TST augmentation requires a speech adapter")
    if "AEI" in tasks and index is None:
        raise AugmentError("AEI augmentation requires a phonetic index")
    out = list(dialogues)
    if "AEI" in tasks:
        for d in dialogues:
            rng = _dialogue_rng(config.seed, d.id, "aei")
            turns = tuple(
                replace(t, text=inject_errors(t.text, index, config, rng))
                for t in d.turns)
            out.append(replace(d, id=d.id + "-aei", turns=turns))
    if "TST" in tasks:
        for d in dialogues:
            turns = tuple(
                replace(t, text=tst_transform(t.text, adapter)) for t in d.turns)
            out.append(replace(d, id=d.id + "-tst", turns=turns))
    return out
