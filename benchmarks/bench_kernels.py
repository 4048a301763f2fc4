#!/usr/bin/env python3
"""Benchmark the numpy edit-distance and LCS kernels.

Times the Levenshtein and LCS kernels on random integer sequences of
growing length, the batched edit distance (`kernels.levenshtein_many`)
against a per-pair `levenshtein_numpy` loop on (entity name, same-length
window) pairs, and `fuzzy_match_entities` over synth dialogues. Run after
`pip install -e .`:

    python3 benchmarks/bench_kernels.py

Before timing, the kernels are checked against a plain-Python DP of this
script's own (on the sequences of at most CHECK_MAX elements, where it
runs in seconds), and fuzzy matching against its scalar definition
(`fuzzy_similarity`); the whole script takes about half a minute on one
x86-64 core.
"""

import time

import numpy as np

from kgdial import kernels

SIZES = (64, 256, 1024, 4096)
CHECK_MAX = 256


def timeit(fn, *args, repeat=5, warmup=1):
    for _ in range(warmup):
        fn(*args)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def lev_dp(a, b):
    """Edit distance by the textbook row DP over two sequences."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (x != y), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def lcs_dp(a, b):
    """LCS length by the textbook row DP over two sequences."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def bench_pairwise(rng):
    print("\nnumpy kernels (best of 5, seconds)")
    for name, fn, reference in (("levenshtein", kernels.levenshtein_numpy, lev_dp),
                                ("lcs_length", kernels.lcs_length_numpy, lcs_dp)):
        for n in SIZES:
            a = rng.integers(0, 30, size=n)
            b = rng.integers(0, 30, size=n)
            if n <= CHECK_MAX:
                assert fn(a, b) == reference(a.tolist(), b.tolist())
            print(f"{name} n={n}: {timeit(fn, a, b):.6f}s")


def fuzzy_shaped_pairs(rng, n_names=30, n_utterances=50, words_per_utt=30):
    """Three-word names against every three-word window of the utterances,
    with the vocabulary fuzzy tracking sees."""
    words = [f"word{i:03d}" for i in range(400)]
    utterances = [
        [words[int(i)] for i in rng.integers(0, len(words), words_per_utt)]
        for _ in range(n_utterances)]
    names = [" ".join(words[int(i)] for i in rng.integers(0, len(words), 3))
             for _ in range(n_names)]
    return [(name, " ".join(utt[i:i + 3]))
            for name in names for utt in utterances
            for i in range(len(utt) - 2)]


def bench_batched_levenshtein(rng):
    """One levenshtein_many call against a per-pair levenshtein_numpy loop,
    both checked against the reference DP first."""
    pairs = fuzzy_shaped_pairs(rng, n_utterances=8)
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    codes = [(kernels.encode_chars(x), kernels.encode_chars(y)) for x, y in pairs]
    expected = [lev_dp(x, y) for x, y in pairs]
    assert kernels.levenshtein_many(a, b).tolist() == expected

    def per_pair():
        return [kernels.levenshtein_numpy(x, y) for x, y in codes]

    assert per_pair() == expected
    t_many = timeit(kernels.levenshtein_many, a, b, repeat=3)
    t_loop = timeit(per_pair, repeat=3)
    print(f"\nbatched edit distance, {len(pairs)} name/window pairs "
          f"(best of 3, seconds)")
    print(f"  levenshtein_many      {t_many:.4f}")
    print(f"  per-pair kernel loop  {t_loop:.4f}  ({t_loop / t_many:.1f}x)")


def bench_fuzzy_workload(threshold=0.5, n_dialogues=150):
    """`fuzzy_match_entities` over the synth knowledge base and dialogues
    (the pipeline's tracker at the README quick-start threshold), checked
    first against the scalar definition: every entity scored against every
    utterance with `fuzzy_similarity`."""
    from kgdial.corpus import tokenize
    from kgdial.entity_track import fuzzy_match_entities, fuzzy_similarity
    from kgdial.synth import MiniCorpusConfig, build_mini_corpus

    dialogues, kb, _ = build_mini_corpus(
        MiniCorpusConfig(n_dialogues=n_dialogues, seed=6))
    for d in dialogues:
        utterances = [tokenize(t.text) for t in d.turns]
        expected = [e for e in kb.entities
                    if max((fuzzy_similarity(e.name, u) for u in utterances),
                           default=0.0) >= threshold]
        assert fuzzy_match_entities(d, kb, threshold) == expected

    def run():
        return [fuzzy_match_entities(d, kb, threshold) for d in dialogues]

    elapsed = timeit(run, repeat=3)
    print(f"\nfuzzy-matching workload: {len(dialogues)} synth dialogues against "
          f"{len(kb.entities)} entities at threshold {threshold} in {elapsed:.3f}s "
          f"(best of 3; {elapsed / len(dialogues) * 1e3:.2f} ms per dialogue)")


def main():
    rng = np.random.default_rng(0)
    bench_pairwise(rng)
    bench_batched_levenshtein(rng)
    bench_fuzzy_workload()


if __name__ == "__main__":
    main()
