"""Hot inner-loop kernels: Levenshtein distance and LCS length.

Both are O(n*m) dynamic programs sitting on the critical path of fuzzy
entity matching and of LCS-based text overlap scoring (evaluated over all
candidate pairs in a pool). Fuzzy matching computes the edit distance of
every (name, same-length window) pair of a dialogue that a character-count
lower bound (``char_counts``) cannot rule out, all in one
``levenshtein_many`` call: a single row-recurrence DP vectorised over the
pairs. The default implementations are numba @njit kernels over integer
code arrays (``levenshtein_many`` then loops the scalar kernel over the
pairs); a vectorized pure-numpy path is selected by setting the environment
variable KGDIAL_DISABLE_NUMBA=1 (or automatically when numba is
unavailable).

``benchmarks/bench_kernels.py`` times the two paths against each other.
"""

from __future__ import annotations

import os
from typing import Sequence

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


def _pad_codes(strings: Sequence[str], fill: int) -> np.ndarray:
    """Code points of each string, one row per string, right-padded with
    ``fill``."""
    lens = np.array([len(s) for s in strings], dtype=np.int64)
    width = int(lens.max(initial=0))
    out = np.full((len(strings), width), fill, dtype=np.int64)
    out[np.arange(width) < lens[:, None]] = encode_chars("".join(strings))
    return out


def levenshtein_many_numpy(a: Sequence[str], b: Sequence[str]) -> np.ndarray:
    """Edit distance of every pair (a[k], b[k]): the row recurrence of
    ``levenshtein_numpy`` run over all pairs at once.

    The strings are right-padded with two sentinels that match no code
    point and each pair's distance is read at row len(a[k]), column
    len(b[k]); the DP's cell (i, j) depends on a[:i] and b[:j] only, so
    the padding never reaches it. Pairs are processed longest a[k] first,
    so each row runs over the pairs still unfinished, a prefix.
    """
    la = np.array([len(s) for s in a], dtype=np.int64)
    lb = np.array([len(s) for s in b], dtype=np.int64)
    order = np.argsort(-la, kind="stable")
    la, lb = la[order], lb[order]
    A = _pad_codes([a[k] for k in order], -1)
    B = _pad_codes([b[k] for k in order], -2)
    out = np.empty(len(la), dtype=np.int64)
    out[order] = np.where(la == 0, lb, 0)
    idx = np.arange(B.shape[1] + 1, dtype=np.int64)
    prev = np.broadcast_to(idx, (len(la), idx.shape[0]))
    for i in range(1, A.shape[1] + 1):
        active = int(np.count_nonzero(la >= i))
        row = np.empty((active, idx.shape[0]), dtype=np.int64)
        row[:, 0] = i
        np.minimum(prev[:active, :-1] + (A[:active, i - 1:i] != B[:active]),
                   prev[:active, 1:] + 1, out=row[:, 1:])
        row = np.minimum.accumulate(row - idx, axis=1) + idx
        done = np.flatnonzero(la[:active] == i)
        out[order[done]] = row[done, lb[done]]
        prev = row
    return out


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

    def levenshtein_many_kernel(a: Sequence[str], b: Sequence[str]) -> np.ndarray:
        return np.array([levenshtein_kernel(encode_chars(x), encode_chars(y))
                         for x, y in zip(a, b)], dtype=np.int64)
else:
    levenshtein_kernel = levenshtein_numpy
    lcs_length_kernel = lcs_length_numpy
    levenshtein_many_kernel = levenshtein_many_numpy


def encode_chars(s: str) -> np.ndarray:
    """Unicode code points of s as an int64 array."""
    if not s:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)


def levenshtein(a: str, b: str) -> int:
    return int(levenshtein_kernel(encode_chars(a), encode_chars(b)))


def levenshtein_many(a: Sequence[str], b: Sequence[str]) -> np.ndarray:
    """Edit distances of the pairs (a[k], b[k]) as an int64 array."""
    if len(a) != len(b):
        raise ValueError(f"levenshtein_many: {len(a)} strings against {len(b)}")
    return levenshtein_many_kernel(a, b)


def char_counts(strings: Sequence[str], alphabet: np.ndarray) -> np.ndarray:
    """Per-string character counts over ``alphabet`` (sorted code points),
    one int32 row per string. Column 0 pools every character outside the
    alphabet."""
    codes = encode_chars("".join(strings))
    pos = np.minimum(np.searchsorted(alphabet, codes), len(alphabet) - 1)
    column = np.where(alphabet[pos] == codes, pos + 1, 0)
    row = np.repeat(np.arange(len(strings)), [len(s) for s in strings])
    width = len(alphabet) + 1
    counts = np.bincount(row * width + column, minlength=len(strings) * width)
    return counts.astype(np.int32).reshape(len(strings), width)


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
