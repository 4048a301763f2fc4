"""Hot inner-loop kernels: Levenshtein distance and LCS length.

Both are O(n*m) dynamic programs sitting on the critical path of fuzzy
entity matching (edit distance between an entity name and each distinct
same-length token window of the utterances that a character-count lower
bound cannot rule out) and of LCS-based text overlap scoring (evaluated
over all candidate pairs in a pool). The default implementations are numba
@njit kernels over integer code arrays; a vectorized pure-numpy path is
selected by setting the environment variable KGDIAL_DISABLE_NUMBA=1
(or automatically when numba is unavailable).

``benchmarks/bench_kernels.py`` times the two paths against each other.
"""

from __future__ import annotations

import os

import numpy as np

_DISABLE = os.environ.get("KGDIAL_DISABLE_NUMBA", "").strip() not in ("", "0", "false")

try:
    if _DISABLE:
        raise ImportError
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def _levenshtein_py(a: np.ndarray, b: np.ndarray) -> int:
    n, m = a.shape[0], b.shape[0]
    if n == 0:
        return m
    if m == 0:
        return n
    prev = np.arange(m + 1, dtype=np.int64)
    cur = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        cur[0] = i
        ai = a[i - 1]
        for j in range(1, m + 1):
            cost = 0 if ai == b[j - 1] else 1
            x = prev[j - 1] + cost
            y = prev[j] + 1
            z = cur[j - 1] + 1
            if y < x:
                x = y
            if z < x:
                x = z
            cur[j] = x
        prev, cur = cur, prev
    return int(prev[m])


def _lcs_py(a: np.ndarray, b: np.ndarray) -> int:
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        return 0
    prev = np.zeros(m + 1, dtype=np.int64)
    cur = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        ai = a[i - 1]
        for j in range(1, m + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                up = prev[j]
                left = cur[j - 1]
                cur[j] = up if up >= left else left
        prev, cur = cur, prev
        cur[:] = 0
    return int(prev[m])


def levenshtein_numpy(a: np.ndarray, b: np.ndarray) -> int:
    """Row-vectorized edit distance.

    The in-row insertion recurrence cur[j] = min(t[j], cur[j-1]+1) is a
    prefix scan: cur = min.accumulate(t - arange) + arange.
    """
    n, m = a.shape[0], b.shape[0]
    if n == 0:
        return m
    if m == 0:
        return n
    idx = np.arange(m + 1, dtype=np.int64)
    prev = idx.copy()
    row = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        sub = prev[:-1] + (a[i - 1] != b)
        dele = prev[1:] + 1
        row[0] = i
        np.minimum(sub, dele, out=row[1:])
        row = np.minimum.accumulate(row - idx) + idx
        prev, row = row, prev
    return int(prev[m])


def lcs_length_numpy(a: np.ndarray, b: np.ndarray) -> int:
    """Row-vectorized LCS length; the left-cell term is a max-scan."""
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        return 0
    prev = np.zeros(m + 1, dtype=np.int64)
    row = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        eq = (a[i - 1] == b).astype(np.int64)
        row[0] = 0
        np.maximum(prev[1:], prev[:-1] + eq, out=row[1:])
        row = np.maximum.accumulate(row)
        prev, row = row, prev
    return int(prev[m])


if HAVE_NUMBA:
    levenshtein_kernel = njit(cache=True)(_levenshtein_py)
    lcs_length_kernel = njit(cache=True)(_lcs_py)
else:
    levenshtein_kernel = levenshtein_numpy
    lcs_length_kernel = lcs_length_numpy


def encode_chars(s: str) -> np.ndarray:
    """Unicode code points of s as an int64 array."""
    if not s:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)


def levenshtein(a: str, b: str) -> int:
    return int(levenshtein_kernel(encode_chars(a), encode_chars(b)))


def lcs_length_ids(a: np.ndarray, b: np.ndarray) -> int:
    return int(lcs_length_kernel(np.ascontiguousarray(a, dtype=np.int64),
                                 np.ascontiguousarray(b, dtype=np.int64)))


def encode_tokens(tokens: list[str], vocab: dict[str, int]) -> np.ndarray:
    """Map tokens to shared integer ids, growing vocab in place."""
    out = np.empty(len(tokens), dtype=np.int64)
    for i, tok in enumerate(tokens):
        code = vocab.get(tok)
        if code is None:
            code = len(vocab)
            vocab[tok] = code
        out[i] = code
    return out


def lcs_length_tokens(a: list[str], b: list[str]) -> int:
    vocab: dict[str, int] = {}
    return lcs_length_ids(encode_tokens(a, vocab), encode_tokens(b, vocab))
