"""Reference text and ranking metrics.

All scores live in [0, 1]. Tokenization is shared with the corpus module
(lowercase, punctuation detached). METEOR here is a lite variant: exact
plus suffix-stem matching only, no synonym or paraphrase stages, so
absolute values are not comparable to full METEOR.

Each text score is implemented once, over per-text statistics
(`text_stats`): tokens, suffix stems, the tables METEOR-lite aligns with,
and word and character 1-4-gram multisets, the character ones built on
first read (only `char_f` reads them). A multiset is held as the set
of its occurrences (a gram's k-th repeat is the pair (gram, k)), so a
clipped overlap is the size of a set intersection. The scores (`bleu_n`,
`corpus_bleu`, `rouge_n`, `rouge_l`, `meteor_lite`, `char_f`) take texts
or their statistics. `generation_report` builds each text's statistics
once; consensus decoding builds each candidate's once per pool and
scores both orders of a pair from the symmetric parts (`clipped_overlap`,
`f_measure`, `bleu_orders`, `meteor_pair`), and tunes toward corpus BLEU
summed from `bleu_stats` rows, as evaluation does.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .corpus import tokenize
from .kernels import lcs_length_tokens

_MAX_N = 4  # word and character n-gram orders 1.._MAX_N

_STEM_SUFFIXES = ("ingly", "fully", "ings", "ing", "edly", "est", "ers",
                  "ies", "ed", "er", "es", "ly", "s")


def stem(word: str) -> str:
    """Tiny deterministic suffix stripper used by the stem match stage."""
    if not word.endswith(_STEM_SUFFIXES):
        return word
    for suf in _STEM_SUFFIXES:
        if word.endswith(suf) and len(word) - len(suf) >= 3:
            return word[:len(word) - len(suf)]
    return word


@dataclass
class TextStats:
    """What the text scores need of one text. Each n-gram multiset is held
    as the set of its occurrences (`_occurrences`)."""
    tokens: list[str]
    stems: list[str]
    words: list[frozenset]  # word n-gram occurrences, n = 1.._MAX_N
    n_chars: int  # length of the joined tokens
    keys: list  # each token's occurrence key (`_occurrence_keys`)
    positions: dict  # occurrence key -> token position
    stem_positions: dict[str, list[int]]  # stem -> its token positions, ascending

    @cached_property
    def chars(self) -> list[frozenset]:
        """Character n-gram occurrences of the joined tokens, n = 1.._MAX_N,
        built on first read: only char-F reads them, and evaluation reports
        no char-F."""
        return [_occurrences(grams) for grams in _char_ngrams(" ".join(self.tokens))]


def _occurrence_keys(items: list) -> list:
    """Each item's occurrence key: an item's first occurrence is the item
    itself, its k-th repeat the pair (item, k). Items here are strings or
    tuples of strings, so no item equals such a pair."""
    seen: dict = {}
    keys = []
    for item in items:
        k = seen.get(item, 0)
        seen[item] = k + 1
        keys.append((item, k) if k else item)
    return keys


def _occurrences(grams: list) -> frozenset:
    """The multiset ``grams`` as the set of its occurrence keys. Two such
    sets share min(a[g], b[g]) keys of each gram g, so the size of their
    intersection is the clipped overlap."""
    unique = frozenset(grams)
    if len(unique) == len(grams):
        return unique
    return frozenset(_occurrence_keys(grams))


def _char_ngrams(text: str) -> list[list[str]]:
    """The character n-grams of ``text`` in order, for n = 1.._MAX_N; the
    grams of order n + 1 extend those of order n by one character."""
    grams = [list(text)]
    for n in range(1, _MAX_N):
        grams.append(list(map(operator.add, grams[-1], text[n:])))
    return grams


def text_stats(text: str) -> TextStats:
    """The statistics of ``text``, tokenized once."""
    tokens = tokenize(text)
    stems = [stem(t) for t in tokens]
    keys = _occurrence_keys(tokens)
    stem_positions: dict[str, list[int]] = {}
    for i, key in enumerate(stems):
        stem_positions.setdefault(key, []).append(i)
    return TextStats(
        tokens=tokens,
        stems=stems,
        words=[frozenset(keys)] + [
            _occurrences([tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)])
            for n in range(2, _MAX_N + 1)],
        n_chars=len(" ".join(tokens)),
        keys=keys,
        positions=dict(zip(keys, range(len(keys)))),
        stem_positions=stem_positions)


def _stats(text: str | TextStats) -> TextStats:
    return text if isinstance(text, TextStats) else text_stats(text)


def clipped_overlap(a: frozenset, b: frozenset) -> int:
    """Clipped overlap sum_g min(a[g], b[g]) of two n-gram multisets given
    as `_occurrences`, symmetric in a and b."""
    return len(a & b)


def f_measure(overlap: int, a_total: int, b_total: int) -> float:
    """F1 of precision overlap/a_total and recall overlap/b_total; no
    overlap scores 0. The doubling in 2*p*r is exact, so swapping a and b
    gives the same bits."""
    if overlap == 0:
        return 0.0
    p = overlap / a_total
    r = overlap / b_total
    return 2 * p * r / (p + r)


def _bleu_scores(clipped: Sequence[int], totals: Sequence[int],
                 hyp_len: int, ref_len: int) -> list[float]:
    """BLEU-1..len(clipped): clipped precision, geometric mean over orders
    1..n and one brevity penalty. The log-precision sum of order n is a
    prefix of the one of order n + 1.

    Uses the effective-order convention: orders without a hypothesis
    n-gram (total <= 0) are skipped rather than zeroing the score. Any
    realizable order with zero matches yields 0 (no smoothing)."""
    if hyp_len == 0:
        return [0.0] * len(clipped)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    scores: list[float] = []
    log_sum = 0.0
    used = 0
    for order, (count, total) in enumerate(zip(clipped, totals)):
        if total > 0:
            if count == 0:
                return scores + [0.0] * (len(clipped) - order)
            log_sum += math.log(count / total)
            used += 1
        scores.append(bp * math.exp(log_sum / used))
    return scores


def bleu_orders(hyp_len: int, ref_len: int, clipped: Sequence[int]) -> list[float]:
    """Sentence BLEU-1.._MAX_N of a hypothesis from its length, its
    reference's and the clipped counts of each order."""
    return _bleu_scores(clipped, [hyp_len - order for order in range(_MAX_N)],
                        hyp_len, ref_len)


def bleu_stats(hyp: TextStats, ref: TextStats) -> np.ndarray:
    """Corpus-BLEU sufficient statistics of a hypothesis against its
    reference, as one int64 row that adds up over a corpus: the clipped
    counts of orders 1.._MAX_N, their totals, then hypothesis and reference
    length."""
    hyp_len = len(hyp.tokens)
    return np.array(
        [clipped_overlap(h, r) for h, r in zip(hyp.words, ref.words)]
        + [max(hyp_len - order, 0) for order in range(_MAX_N)]
        + [hyp_len, len(ref.tokens)], dtype=np.int64)


def bleu_from_stats(stats: np.ndarray, n: int) -> float:
    """BLEU-n of the summed rows of `bleu_stats`."""
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"BLEU order must be in 1..{_MAX_N}")
    stats = stats.tolist()
    return _bleu_scores(stats[:n], stats[_MAX_N:_MAX_N + n], *stats[-2:])[-1]


def meteor_pair(a: TextStats, b: TextStats) -> tuple[float, float]:
    """(meteor_lite(a, b), meteor_lite(b, a)). Each stage (exact, then
    stem) aligns the free hypothesis tokens left to right, each to the
    leftmost free reference token with the same key. All tokens are free
    in the exact stage, so there the k-th repeat of a token on one side
    takes its k-th repeat on the other: the token with the same occurrence
    key. In the stem stage the i-th free token of a stem on one side takes
    the i-th free token of that stem on the other. Both stages pair the
    same tokens whichever side is the hypothesis, and so does a chunk (a
    maximal run where both sides advance together); only precision and
    recall swap."""
    if not a.tokens or not b.tokens:
        return 0.0, 0.0
    # -2 marks an unaligned token, so j == prev + 1 holds only where two
    # aligned tokens advance together
    aligned = [b.positions.get(key, -2) for key in a.keys]
    used = set(aligned)
    # each position of b has one stem, so the stems' queues are disjoint
    free: dict[str, list[int]] = {}
    for i, j in enumerate(aligned):
        if j >= 0:
            continue
        stem_key = a.stems[i]
        queue = free.get(stem_key)
        if queue is None:
            queue = free[stem_key] = [
                k for k in reversed(b.stem_positions.get(stem_key, ()))
                if k not in used]
        if queue:
            aligned[i] = queue.pop()
    m = len(aligned) - aligned.count(-2)
    if m == 0:
        return 0.0, 0.0
    chunks = m - sum([j == prev + 1 for prev, j in zip(aligned, aligned[1:])])
    penalty = 0.5 * (chunks / m) ** 3
    scores = []
    for hyp_len, ref_len in ((len(a.tokens), len(b.tokens)),
                             (len(b.tokens), len(a.tokens))):
        p = m / hyp_len
        r = m / ref_len
        scores.append(10 * p * r / (r + 9 * p) * (1.0 - penalty))
    return scores[0], scores[1]


# Each score below takes texts, or their `text_stats`.


def bleu_n(hypothesis: str | TextStats, reference: str | TextStats,
           n: int = 4) -> float:
    """Sentence BLEU-n against one reference: corpus BLEU of the one pair."""
    return corpus_bleu([(hypothesis, reference)], n)


def corpus_bleu(pairs: Sequence[tuple[str | TextStats, str | TextStats]],
                n: int = 4) -> float:
    """Corpus BLEU of (hypothesis, reference) pairs: micro-aggregated
    clipped counts, one brevity penalty."""
    if not pairs:
        raise ValueError("corpus BLEU requires at least one pair")
    return bleu_from_stats(sum(bleu_stats(_stats(h), _stats(r)) for h, r in pairs), n)


def rouge_n(hypothesis: str | TextStats, reference: str | TextStats,
            n: int) -> float:
    """ROUGE-n F1 over clipped n-gram overlap."""
    if n not in (1, 2):
        raise ValueError("ROUGE-n supports n in {1, 2}")
    hyp, ref = _stats(hypothesis), _stats(reference)
    return f_measure(clipped_overlap(hyp.words[n - 1], ref.words[n - 1]),
                     len(hyp.tokens) - n + 1, len(ref.tokens) - n + 1)


def rouge_l(hypothesis: str | TextStats, reference: str | TextStats) -> float:
    """ROUGE-L: LCS-based F-measure with beta=1."""
    hyp, ref = _stats(hypothesis), _stats(reference)
    return f_measure(lcs_length_tokens(hyp.tokens, ref.tokens),
                     len(hyp.tokens), len(ref.tokens))


def meteor_lite(hypothesis: str | TextStats, reference: str | TextStats) -> float:
    """Harmonic-mean unigram metric with a fragmentation penalty.

    Matching runs in two stages (exact, then suffix stem). With matches m,
    precision P and recall R: F = 10PR / (R + 9P), penalty =
    0.5 * (chunks / m)^3, score = F * (1 - penalty). No matches scores 0.
    """
    return meteor_pair(_stats(hypothesis), _stats(reference))[0]


def char_f(hypothesis: str | TextStats, reference: str | TextStats) -> float:
    """Character n-gram F1 averaged over n = 1..4 (whitespace folded); the
    same either way round."""
    hyp, ref = _stats(hypothesis), _stats(reference)
    if not hyp.n_chars or not ref.n_chars:
        return 0.0
    scores = []
    for n, (x, y) in enumerate(zip(hyp.chars, ref.chars), start=1):
        if x and y:
            scores.append(f_measure(clipped_overlap(x, y),
                                    hyp.n_chars - n + 1, ref.n_chars - n + 1))
    return sum(scores) / len(scores) if scores else 0.0


def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Zero denominators yield 0 by convention."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def mrr_at_k(ranked_keys: Sequence[Sequence], reference_keys: Sequence[set],
             k: int = 5) -> float:
    """Mean reciprocal rank of the first correct item within the top-k."""
    if len(ranked_keys) != len(reference_keys):
        raise ValueError("prediction/reference length mismatch")
    if not ranked_keys:
        return 0.0
    total = 0.0
    for ranked, refs in zip(ranked_keys, reference_keys):
        for pos, key in enumerate(ranked[:k], start=1):
            if key in refs:
                total += 1.0 / pos
                break
    return total / len(ranked_keys)


def recall_at_k(ranked_keys: Sequence[Sequence], reference_keys: Sequence[set],
                k: int) -> float:
    """Fraction of turns whose top-k contains a correct item."""
    if len(ranked_keys) != len(reference_keys):
        raise ValueError("prediction/reference length mismatch")
    if not ranked_keys:
        return 0.0
    hits = sum(
        1 for ranked, refs in zip(ranked_keys, reference_keys)
        if any(key in refs for key in ranked[:k]))
    return hits / len(ranked_keys)


@dataclass
class MetricReport:
    scores: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, value: float, count: Optional[int] = None) -> None:
        if not -1e-9 <= value <= 1 + 1e-9:
            raise ValueError(f"metric {name} out of [0,1]: {value}")
        self.scores[name] = float(min(1.0, max(0.0, value)))
        if count is not None:
            self.counts[name] = count

    def to_json(self) -> dict:
        return {"scores": self.scores, "counts": self.counts}

    def format_table(self) -> str:
        width = max((len(k) for k in self.scores), default=6)
        lines = [f"{name.ljust(width)}  {value:.4f}"
                 for name, value in self.scores.items()]
        return "\n".join(lines)


def generation_report(pairs: Sequence[tuple[str, str]]) -> MetricReport:
    """All generation metrics for (hypothesis, reference) pairs, from each
    text's statistics, built once."""
    report = MetricReport()
    if not pairs:
        return report
    n_pairs = len(pairs)
    stats = [(text_stats(h), text_stats(r)) for h, r in pairs]
    bleu = sum(bleu_stats(h, r) for h, r in stats)
    for order in (1, 2, 3, 4):
        report.add(f"bleu-{order}", bleu_from_stats(bleu, order), n_pairs)
    report.add("meteor", sum(meteor_lite(h, r) for h, r in stats) / n_pairs, n_pairs)
    report.add("rouge-1", sum(rouge_n(h, r, 1) for h, r in stats) / n_pairs, n_pairs)
    report.add("rouge-2", sum(rouge_n(h, r, 2) for h, r in stats) / n_pairs, n_pairs)
    report.add("rouge-l", sum(rouge_l(h, r) for h, r in stats) / n_pairs, n_pairs)
    return report
