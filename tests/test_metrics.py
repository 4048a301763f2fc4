import math
import random

import pytest

from kgdial import metrics
from kgdial.corpus import tokenize
from kgdial.metrics import (
    bleu_n, char_f, corpus_bleu, meteor_lite, mrr_at_k, precision_recall_f1,
    recall_at_k, rouge_l, rouge_n, stem,
)

# ---------------------------------------------------------------------------
# independent oracles, written against the documented definitions only
# ---------------------------------------------------------------------------


def oracle_ngram_list(tokens, n):
    return [" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def oracle_clipped(hyp, ref, order):
    """(clipped n-gram matches, hypothesis n-grams) of one order."""
    hgrams = oracle_ngram_list(hyp, order)
    rgrams = oracle_ngram_list(ref, order)
    clipped = sum(min(hgrams.count(g), rgrams.count(g)) for g in set(hgrams))
    return clipped, len(hgrams)


def oracle_corpus_bleu(pairs, n):
    """Corpus BLEU-n of (hypothesis, reference) texts: clipped counts and
    lengths summed over the pairs, then the geometric mean of the realized
    orders' precisions and one brevity penalty."""
    clipped, totals = [0] * n, [0] * n
    hyp_len = ref_len = 0
    for hyp_text, ref_text in pairs:
        hyp, ref = tokenize(hyp_text), tokenize(ref_text)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for order in range(1, n + 1):
            c, t = oracle_clipped(hyp, ref, order)
            clipped[order - 1] += c
            totals[order - 1] += t
    if hyp_len == 0:
        return 0.0
    logs = []
    for c, t in zip(clipped, totals):
        if t == 0:
            continue  # effective-order convention
        if c == 0:
            return 0.0
        logs.append(math.log(c / t))
    bp = 1.0 if hyp_len > ref_len else math.exp(1 - ref_len / hyp_len)
    return bp * math.exp(sum(logs) / len(logs))


def oracle_bleu(hyp_text, ref_text, n):
    hyp, ref = tokenize(hyp_text), tokenize(ref_text)
    if not hyp:
        return 0.0
    logs = []
    for order in range(1, n + 1):
        clipped, total = oracle_clipped(hyp, ref, order)
        if total == 0:
            continue  # effective-order convention
        if clipped == 0:
            return 0.0
        logs.append(math.log(clipped / total))
    bp = 1.0 if len(hyp) > len(ref) else math.exp(1 - len(ref) / len(hyp))
    return bp * math.exp(sum(logs) / len(logs))


def oracle_rouge_n(hyp_text, ref_text, n):
    hyp = oracle_ngram_list(tokenize(hyp_text), n)
    ref = oracle_ngram_list(tokenize(ref_text), n)
    overlap = 0
    for gram in set(hyp):
        overlap += min(hyp.count(gram), ref.count(gram))
    if overlap == 0 or not hyp or not ref:
        return 0.0
    p, r = overlap / len(hyp), overlap / len(ref)
    return 2 * p * r / (p + r)


def oracle_lcs(a, b):
    # recursive with memo, distinct from the DP kernels
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def oracle_rouge_l(hyp_text, ref_text):
    hyp, ref = tokenize(hyp_text), tokenize(ref_text)
    if not hyp or not ref:
        return 0.0
    lcs = oracle_lcs(tuple(hyp), tuple(ref))
    if lcs == 0:
        return 0.0
    p, r = lcs / len(hyp), lcs / len(ref)
    return 2 * p * r / (p + r)


def oracle_meteor(hyp_text, ref_text):
    hyp, ref = tokenize(hyp_text), tokenize(ref_text)
    if not hyp or not ref:
        return 0.0
    align = {}
    taken = set()
    for keyfn in (lambda w: w, stem):
        for i in range(len(hyp)):
            if i in align:
                continue
            for j in range(len(ref)):
                if j not in taken and keyfn(hyp[i]) == keyfn(ref[j]):
                    align[i] = j
                    taken.add(j)
                    break
    m = len(align)
    if m == 0:
        return 0.0
    p, r = m / len(hyp), m / len(ref)
    f = 10 * p * r / (r + 9 * p)
    chunks, prev = 0, None
    for i in sorted(align):
        if prev is None or i != prev[0] + 1 or align[i] != prev[1] + 1:
            chunks += 1
        prev = (i, align[i])
    return f * (1 - 0.5 * (chunks / m) ** 3)


def oracle_char_f(hyp_text, ref_text):
    """Character n-gram F1 of the space-joined tokens, averaged over the
    orders n = 1..4 that both texts realize."""
    hyp, ref = " ".join(tokenize(hyp_text)), " ".join(tokenize(ref_text))
    scores = []
    for n in range(1, 5):
        hgrams = [hyp[i:i + n] for i in range(len(hyp) - n + 1)]
        rgrams = [ref[i:i + n] for i in range(len(ref) - n + 1)]
        if not hgrams or not rgrams:
            continue
        overlap = sum(min(hgrams.count(g), rgrams.count(g)) for g in set(hgrams))
        if overlap == 0:
            scores.append(0.0)
            continue
        p, r = overlap / len(hgrams), overlap / len(rgrams)
        scores.append(2 * p * r / (p + r))
    return sum(scores) / len(scores) if scores else 0.0


def oracle_mrr(ranked, refs, k):
    vals = []
    for lst, rset in zip(ranked, refs):
        rr = 0.0
        for pos, key in enumerate(lst[:k], 1):
            if key in rset:
                rr = 1.0 / pos
                break
        vals.append(rr)
    return sum(vals) / len(vals)


def oracle_recall_at(ranked, refs, k):
    return sum(1 for lst, rset in zip(ranked, refs)
               if rset & set(lst[:k])) / len(ranked)


WORDS = ["the", "cat", "sat", "on", "a", "mat", "dogs", "bark", "hotel",
         "lodge", "room", "book", "booking", "free", "wifi", "?", "."]


def random_text(rng, lo=0, hi=9):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


# ---------------------------------------------------------------------------


class TestBleu:
    def test_identity(self):
        assert bleu_n("the cat sat on the mat", "the cat sat on the mat", 4) == pytest.approx(1.0)

    def test_clipping_hand_count(self):
        # "the the the the" vs "the cat": clipped 1/4, BP=1 (hyp longer)
        assert bleu_n("the the the the", "the cat", 1) == pytest.approx(0.25)

    def test_empty_hypothesis(self):
        assert bleu_n("", "the cat", 4) == 0.0

    def test_monotone_in_order_when_positive(self):
        hyp = "the cat sat on the mat"
        ref = "the cat sat on a mat"
        scores = [bleu_n(hyp, ref, n) for n in (1, 2, 3, 4)]
        assert all(scores[i] >= scores[i + 1] - 1e-12 for i in range(3))


class TestRouge:
    def test_identical(self):
        assert rouge_n("a b c", "a b c", 1) == pytest.approx(1.0)
        assert rouge_l("a b c", "a b c") == pytest.approx(1.0)

    def test_lcs_hand_value(self):
        # "a b c" vs "a c": LCS=2, P=2/3, R=1 -> F=0.8
        assert rouge_l("a b c", "a c") == pytest.approx(0.8)

    def test_disjoint(self):
        assert rouge_n("a b", "c d", 1) == 0.0
        assert rouge_l("a b", "c d") == 0.0

    def test_both_empty(self):
        assert rouge_n("", "", 1) == 0.0
        assert rouge_l("", "") == 0.0


class TestMeteor:
    def test_identical_single_chunk(self):
        # matches m=3 in one chunk: score = 1 - 0.5*(1/3)**3
        got = meteor_lite("a b c", "a b c")
        assert got == pytest.approx(1 - 0.5 * (1 / 3) ** 3)

    def test_no_overlap(self):
        assert meteor_lite("a b", "c d") == 0.0

    def test_stem_stage_matches(self):
        assert stem("booking") == "book"
        assert meteor_lite("booking", "book") > 0.0

    def test_reorder_penalized(self):
        same = meteor_lite("a b c d", "a b c d")
        shuffled = meteor_lite("d c b a", "a b c d")
        assert shuffled < same


class TestCorpusBleu:
    def test_all_identical(self):
        pairs = [("a b c", "a b c"), ("d e", "d e")]
        assert corpus_bleu(pairs, 4) == pytest.approx(1.0)

    def test_single_pair_equals_sentence(self):
        hyp, ref = "the cat sat on mat", "the cat sat on the mat"
        assert corpus_bleu([(hyp, ref)], 4) == pytest.approx(bleu_n(hyp, ref, 4))

    def test_two_pair_hand_aggregation(self):
        # pair 1: hyp "the cat" vs ref "the cat" -> 1-gram 2/2, 2-gram 1/1
        # pair 2: hyp "a dog" vs ref "a cat"     -> 1-gram 1/2, 2-gram 0/1
        # aggregate: p1 = 3/4, p2 = 1/2, hyp_len 4 = ref_len 4 -> BP = exp(0)
        expected = math.exp((math.log(3 / 4) + math.log(1 / 2)) / 2) * math.exp(1 - 4 / 4)
        got = corpus_bleu([("the cat", "the cat"), ("a dog", "a cat")], 2)
        assert got == pytest.approx(expected)


class TestClassificationAndRanking:
    def test_prf_hand_count(self):
        p, r, f1 = precision_recall_f1(tp=2, fp=1, fn=2)
        assert (p, r, f1) == pytest.approx((2 / 3, 0.5, 4 / 7))

    def test_prf_zero_conventions(self):
        assert precision_recall_f1(0, 0, 3) == (0.0, 0.0, 0.0)

    def test_mrr_rank3(self):
        assert mrr_at_k([["a", "b", "c"]], [{"c"}], k=5) == pytest.approx(1 / 3)
        assert recall_at_k([["a", "b", "c"]], [{"c"}], k=1) == 0.0
        assert recall_at_k([["a", "b", "c"]], [{"c"}], k=5) == 1.0

    def test_truth_at_rank_one(self):
        preds = [["x", "y"], ["z"]]
        refs = [{"x"}, {"z"}]
        assert mrr_at_k(preds, refs, 5) == 1.0
        assert recall_at_k(preds, refs, 1) == 1.0


class TestAgainstOracles:
    def test_500_random_pairs_exact(self):
        rng = random.Random(1234)
        for _ in range(500):
            hyp = random_text(rng)
            ref = random_text(rng, lo=1)
            for n in (1, 2, 3, 4):
                assert abs(bleu_n(hyp, ref, n) - oracle_bleu(hyp, ref, n)) < 1e-9
            for n in (1, 2):
                assert abs(rouge_n(hyp, ref, n) - oracle_rouge_n(hyp, ref, n)) < 1e-9
            assert abs(rouge_l(hyp, ref) - oracle_rouge_l(hyp, ref)) < 1e-9
            assert abs(meteor_lite(hyp, ref) - oracle_meteor(hyp, ref)) < 1e-9
            assert abs(char_f(hyp, ref) - oracle_char_f(hyp, ref)) < 1e-9

    def test_random_corpora_match_oracle(self):
        rng = random.Random(4321)
        for _ in range(500):
            pairs = [(random_text(rng), random_text(rng))
                     for _ in range(rng.randint(1, 6))]
            for n in (1, 2, 3, 4):
                assert abs(corpus_bleu(pairs, n) - oracle_corpus_bleu(pairs, n)) < 1e-9

    def test_random_rank_lists_match_oracle(self):
        rng = random.Random(99)
        keys = [f"k{i}" for i in range(20)]
        preds, refs = [], []
        for _ in range(100):
            lst = rng.sample(keys, 8)
            preds.append(lst)
            refs.append(set(rng.sample(keys, 2)))
        for k in (1, 5):
            assert abs(mrr_at_k(preds, refs, k) - oracle_mrr(preds, refs, k)) < 1e-12
            assert abs(recall_at_k(preds, refs, k) - oracle_recall_at(preds, refs, k)) < 1e-12


class TestCharF:
    def test_identical(self):
        assert char_f("hello there", "hello there") == pytest.approx(1.0)

    def test_disjoint(self):
        assert char_f("aaa", "zzz") == 0.0

    def test_bounded(self):
        rng = random.Random(5)
        for _ in range(50):
            v = char_f(random_text(rng), random_text(rng))
            assert 0.0 <= v <= 1.0


def test_generation_report_shapes():
    pairs = [("a b c", "a b c"), ("the cat", "the dog")]
    rep = metrics.generation_report(pairs)
    for key in ("bleu-1", "bleu-4", "meteor", "rouge-1", "rouge-2", "rouge-l"):
        assert key in rep.scores
        assert 0.0 <= rep.scores[key] <= 1.0
    assert "bleu-1" in rep.format_table()


def test_generation_report_builds_no_character_grams(monkeypatch):
    """Evaluation reports no char-F, so it never builds the character
    n-grams; char-F still reads them from the same statistics."""
    pairs = [("a b c", "a b c"), ("the cat", "the dog")]
    expected = metrics.generation_report(pairs).scores

    def unread(text):
        raise AssertionError("character n-grams built")

    monkeypatch.setattr(metrics, "_char_ngrams", unread)
    assert metrics.generation_report(pairs).scores == expected
    monkeypatch.undo()
    stats = metrics.text_stats("the cat")
    assert char_f(stats, stats) == char_f("the cat", "the cat") == 1.0


@pytest.mark.parametrize("seed", range(20))
def test_occurrences_are_the_occurrence_keys(seed):
    """`_occurrences` keys only the repeats past `unique`; the set equals
    that of `_occurrence_keys` over every gram, and two sets intersect in
    the clipped overlap."""
    rng = random.Random(seed)
    grams = [rng.choice("aab c") * rng.randint(1, 2) for _ in range(rng.randint(0, 40))]
    other = [rng.choice("abc ") for _ in range(rng.randint(0, 40))]
    assert metrics._occurrences(grams) == frozenset(metrics._occurrence_keys(grams))
    assert (metrics.clipped_overlap(metrics._occurrences(grams),
                                    metrics._occurrences(other))
            == sum(min(grams.count(g), other.count(g)) for g in set(grams)))
