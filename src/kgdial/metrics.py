"""Reference text and ranking metrics.

All scores live in [0, 1]. Tokenization is shared with the corpus module
(lowercase, punctuation detached). METEOR here is a lite variant: exact
plus suffix-stem matching only, no synonym or paraphrase stages, so
absolute values are not comparable to full METEOR.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .corpus import tokenize
from .kernels import lcs_length_tokens


def ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clipped_counts(hyp_tokens, ref_token_lists, n):
    hyp_ngrams = ngrams(hyp_tokens, n)
    if not hyp_ngrams:
        return 0, 0
    max_ref = Counter()
    for ref in ref_token_lists:
        for gram, cnt in ngrams(ref, n).items():
            if cnt > max_ref[gram]:
                max_ref[gram] = cnt
    clipped = sum(min(cnt, max_ref[gram]) for gram, cnt in hyp_ngrams.items())
    return clipped, sum(hyp_ngrams.values())


def _closest_ref_len(hyp_len: int, ref_lens: Sequence[int]) -> int:
    return min(ref_lens, key=lambda r: (abs(r - hyp_len), r))


def bleu_n(hypothesis: str, references: Sequence[str], n: int = 4) -> float:
    """Sentence BLEU with clipped precision, geometric mean over orders
    1..n and brevity penalty.

    Uses the effective-order convention: orders the hypothesis is too
    short to realize are skipped rather than zeroing the score. Any
    realizable order with zero matches yields 0 (no smoothing).
    """
    if not 1 <= n <= 4:
        raise ValueError("BLEU order must be in 1..4")
    if not references:
        raise ValueError("BLEU requires at least one reference")
    hyp = tokenize(hypothesis)
    refs = [tokenize(r) for r in references]
    if not hyp:
        return 0.0
    log_sum = 0.0
    orders_used = 0
    for order in range(1, n + 1):
        clipped, total = _clipped_counts(hyp, refs, order)
        if total == 0:
            continue
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
        orders_used += 1
    if orders_used == 0:
        return 0.0
    r = _closest_ref_len(len(hyp), [len(t) for t in refs])
    bp = 1.0 if len(hyp) > r else math.exp(1.0 - r / len(hyp))
    return bp * math.exp(log_sum / orders_used)


def corpus_bleu(pairs: Sequence[tuple[str, Sequence[str]]], n: int = 4) -> float:
    """Corpus BLEU: micro-aggregated clipped counts, one brevity penalty."""
    if not pairs:
        raise ValueError("corpus BLEU requires at least one pair")
    if not 1 <= n <= 4:
        raise ValueError("BLEU order must be in 1..4")
    clipped = [0] * n
    totals = [0] * n
    hyp_len = 0
    ref_len = 0
    for hypothesis, references in pairs:
        if not references:
            raise ValueError("corpus BLEU pair without references")
        hyp = tokenize(hypothesis)
        refs = [tokenize(r) for r in references]
        hyp_len += len(hyp)
        ref_len += _closest_ref_len(len(hyp), [len(t) for t in refs])
        for order in range(1, n + 1):
            c, t = _clipped_counts(hyp, refs, order)
            clipped[order - 1] += c
            totals[order - 1] += t
    log_sum = 0.0
    orders_used = 0
    for order in range(n):
        c, t = clipped[order], totals[order]
        if t == 0:
            continue
        if c == 0:
            return 0.0
        log_sum += math.log(c / t)
        orders_used += 1
    if hyp_len == 0 or orders_used == 0:
        return 0.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum / orders_used)


def rouge_n(hypothesis: str, reference: str, n: int) -> float:
    """ROUGE-n F1 over clipped n-gram overlap."""
    if n not in (1, 2):
        raise ValueError("ROUGE-n supports n in {1, 2}")
    hyp = ngrams(tokenize(hypothesis), n)
    ref = ngrams(tokenize(reference), n)
    overlap = sum(min(cnt, ref[g]) for g, cnt in hyp.items())
    hyp_total = sum(hyp.values())
    ref_total = sum(ref.values())
    if overlap == 0 or hyp_total == 0 or ref_total == 0:
        return 0.0
    p = overlap / hyp_total
    r = overlap / ref_total
    return 2 * p * r / (p + r)


def rouge_l(hypothesis: str, reference: str) -> float:
    """ROUGE-L: LCS-based F-measure with beta=1."""
    hyp = tokenize(hypothesis)
    ref = tokenize(reference)
    if not hyp or not ref:
        return 0.0
    lcs = lcs_length_tokens(hyp, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return 2 * p * r / (p + r)


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


def _align_stage(hyp, ref, hyp_free, ref_free, key):
    """Left-to-right greedy stage alignment; returns hyp_pos -> ref_pos."""
    pairs = {}
    used_ref = set()
    for i in sorted(hyp_free):
        hk = key(hyp[i])
        for j in range(len(ref)):
            if j in ref_free and j not in used_ref and key(ref[j]) == hk:
                pairs[i] = j
                used_ref.add(j)
                break
    return pairs


def meteor_lite(hypothesis: str, reference: str) -> float:
    """Harmonic-mean unigram metric with a fragmentation penalty.

    Matching runs in two stages (exact, then suffix stem). With matches m,
    precision P and recall R: F = 10PR / (R + 9P), penalty =
    0.5 * (chunks / m)^3, score = F * (1 - penalty). No matches scores 0.
    """
    hyp = tokenize(hypothesis)
    ref = tokenize(reference)
    if not hyp or not ref:
        return 0.0
    alignment: dict[int, int] = {}
    hyp_free = set(range(len(hyp)))
    ref_free = set(range(len(ref)))
    for key in (lambda w: w, stem):
        stage = _align_stage(hyp, ref, hyp_free, ref_free, key)
        alignment.update(stage)
        hyp_free -= set(stage)
        ref_free -= set(stage.values())
    m = len(alignment)
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f_mean = 10 * p * r / (r + 9 * p)
    # a chunk is a maximal run where both sides advance together
    chunks = 0
    last_i = last_j = None
    for i in sorted(alignment):
        j = alignment[i]
        if last_i is None or i != last_i + 1 or j != last_j + 1:
            chunks += 1
        last_i, last_j = i, j
    penalty = 0.5 * (chunks / m) ** 3
    return f_mean * (1.0 - penalty)


def char_f(hypothesis: str, reference: str) -> float:
    """Character n-gram F1 averaged over n = 1..4 (whitespace folded)."""
    hyp = " ".join(tokenize(hypothesis))
    ref = " ".join(tokenize(reference))
    if not hyp or not ref:
        return 0.0
    scores = []
    for n in range(1, 5):
        hgrams = Counter(hyp[i:i + n] for i in range(len(hyp) - n + 1))
        rgrams = Counter(ref[i:i + n] for i in range(len(ref) - n + 1))
        if not hgrams or not rgrams:
            continue
        overlap = sum(min(c, rgrams[g]) for g, c in hgrams.items())
        if overlap == 0:
            scores.append(0.0)
            continue
        p = overlap / sum(hgrams.values())
        r = overlap / sum(rgrams.values())
        scores.append(2 * p * r / (p + r))
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
    """All generation metrics for (hypothesis, reference) pairs."""
    report = MetricReport()
    if not pairs:
        return report
    n_pairs = len(pairs)
    for order in (1, 2, 3, 4):
        report.add(f"bleu-{order}",
                   corpus_bleu([(h, [r]) for h, r in pairs], n=order), n_pairs)
    report.add("meteor", sum(meteor_lite(h, r) for h, r in pairs) / n_pairs, n_pairs)
    report.add("rouge-1", sum(rouge_n(h, r, 1) for h, r in pairs) / n_pairs, n_pairs)
    report.add("rouge-2", sum(rouge_n(h, r, 2) for h, r in pairs) / n_pairs, n_pairs)
    report.add("rouge-l", sum(rouge_l(h, r) for h, r in pairs) / n_pairs, n_pairs)
    return report
