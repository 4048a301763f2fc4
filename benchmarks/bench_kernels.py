#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallback.

Times the two Levenshtein and LCS implementations on random integer
sequences of growing length, plus one end-to-end fuzzy-matching workload.
Run after `pip install -e .`:

    python3 benchmarks/bench_kernels.py

Set KGDIAL_DISABLE_NUMBA=1 to confirm the package works on the numpy
path alone (this script always times both implementations directly).
Before timing, every kernel is checked against the plain-Python reference
DP (`kernels._levenshtein_py`, `kernels._lcs_py`) on the same inputs;
these checks take about 15 s in all on one x86-64 core.
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


def bench_fuzzy_workload(rng):
    """Windowed edit-distance scan, the shape fuzzy tracking produces."""
    from kgdial.entity_track import fuzzy_similarity

    words = [f"word{i:03d}" for i in range(400)]
    utterances = [
        [words[int(i)] for i in rng.integers(0, len(words), 30)]
        for _ in range(50)]
    names = [" ".join(words[int(i)] for i in rng.integers(0, len(words), 3))
             for _ in range(30)]
    t0 = time.perf_counter()
    total = 0.0
    for name in names:
        for utt in utterances:
            total += fuzzy_similarity(name, utt)
    elapsed = time.perf_counter() - t0
    backend = "numba" if kernels.HAVE_NUMBA else "numpy"
    print(f"\nfuzzy-matching workload ({backend} active): "
          f"{len(names) * len(utterances)} name/utterance scans "
          f"in {elapsed:.3f}s (checksum {total:.2f})")


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
    bench_fuzzy_workload(rng)


if __name__ == "__main__":
    main()
