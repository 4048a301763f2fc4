#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallback.

Times the two Levenshtein and LCS implementations on random integer
sequences of growing length, the batched edit distance
(`kernels.levenshtein_many`) against a per-pair `levenshtein_kernel` loop
on (entity name, same-length window) pairs, and `fuzzy_match_entities`
over synth dialogues. Run after `pip install -e .`:

    python3 benchmarks/bench_kernels.py

Set KGDIAL_DISABLE_NUMBA=1 to confirm the package works on the numpy
path alone (this script always times both implementations directly).
Before timing, every kernel is checked against the plain-Python reference
DP (`kernels._levenshtein_py`, `kernels._lcs_py`) on the same inputs, and
fuzzy matching against its scalar definition (`fuzzy_similarity`);
the whole script takes about a minute on one x86-64 core.
"""

import time

import numpy as np

from kgdial import kernels


def timeit(fn, *args, repeat=5, warmup=1):
    for _ in range(warmup):
        fn(*args)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_pairwise(name, numba_fn, numpy_fn, reference, sizes, rng):
    print(f"\n{name}  (best of 5, seconds)")
    print(f"{'n':>6} {'numba':>12} {'numpy':>12} {'speedup':>9}")
    for n in sizes:
        a = rng.integers(0, 30, size=n)
        b = rng.integers(0, 30, size=n)
        assert numba_fn(a, b) == numpy_fn(a, b) == reference(a, b)
        t_nb = timeit(numba_fn, a, b)
        t_np = timeit(numpy_fn, a, b)
        print(f"{n:>6} {t_nb:>12.6f} {t_np:>12.6f} {t_np / t_nb:>8.1f}x")


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
    """One levenshtein_many call against a per-pair levenshtein_kernel loop,
    both checked against the reference DP first."""
    pairs = fuzzy_shaped_pairs(rng, n_utterances=8)
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    codes = [(kernels.encode_chars(x), kernels.encode_chars(y)) for x, y in pairs]
    expected = [kernels._levenshtein_py(x, y) for x, y in codes]
    assert kernels.levenshtein_many(a, b).tolist() == expected

    def per_pair():
        return [kernels.levenshtein_kernel(x, y) for x, y in codes]

    assert per_pair() == expected
    t_many = timeit(kernels.levenshtein_many, a, b, repeat=3)
    t_loop = timeit(per_pair, repeat=3)
    backend = "numba" if kernels.HAVE_NUMBA else "numpy"
    print(f"\nbatched edit distance ({backend} active), {len(pairs)} "
          f"name/window pairs (best of 3, seconds)")
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
    backend = "numba" if kernels.HAVE_NUMBA else "numpy"
    print(f"\nfuzzy-matching workload ({backend} active): {len(dialogues)} synth "
          f"dialogues against {len(kb.entities)} entities at threshold {threshold} "
          f"in {elapsed:.3f}s (best of 3; {elapsed / len(dialogues) * 1e3:.2f} ms "
          f"per dialogue)")


def main():
    rng = np.random.default_rng(0)
    print(f"numba available: {kernels.HAVE_NUMBA}")
    if kernels.HAVE_NUMBA:
        bench_pairwise("levenshtein", kernels.levenshtein_kernel,
                       kernels.levenshtein_numpy, kernels._levenshtein_py,
                       (64, 256, 1024, 4096), rng)
        bench_pairwise("lcs_length", kernels.lcs_length_kernel,
                       kernels.lcs_length_numpy, kernels._lcs_py,
                       (64, 256, 1024, 4096), rng)
    else:
        print("numba disabled; timing the numpy path only")
        for name, fn, reference in (
                ("levenshtein", kernels.levenshtein_numpy, kernels._levenshtein_py),
                ("lcs_length", kernels.lcs_length_numpy, kernels._lcs_py)):
            for n in (64, 256, 1024, 4096):
                a = rng.integers(0, 30, size=n)
                b = rng.integers(0, 30, size=n)
                assert fn(a, b) == reference(a, b)
                print(f"{name} n={n}: {timeit(fn, a, b):.6f}s")
    bench_batched_levenshtein(rng)
    bench_fuzzy_workload()


if __name__ == "__main__":
    main()
