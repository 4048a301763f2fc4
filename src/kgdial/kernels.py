"""Hot inner-loop kernels: Levenshtein distance and LCS length.

Both sit on a critical path: the edit distance on fuzzy entity matching,
the LCS length on ROUGE-L, which consensus decoding evaluates over all
candidate pairs in a pool. The edit distance has one implementation,
``levenshtein_many``: one O(n*m) row DP in numpy, batched over string
pairs, the in-row recurrence a prefix minimum over shifted rows;
``levenshtein`` is that DP on a single pair. Fuzzy matching computes the
edit distance of every (name, same-length window) pair of a dialogue that a
character-count lower bound cannot rule out, all in one
``levenshtein_many`` call; the bound is max(len a, len b) less the dot
product of the two strings' repeat-unit rows (``char_units``). The LCS
length is bit-parallel: one row of its table is one Python int, updated
with a handful of integer operations per item of the first sequence.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

# no numba backend exists; perfbench/workloads.py still records this flag
HAVE_NUMBA = False


def _pad_codes(strings: Sequence[str],
               fill: int) -> tuple[np.ndarray, np.ndarray]:
    """Code points of each string, one row per string, right-padded with
    ``fill``, and the string lengths."""
    lens = np.array([len(s) for s in strings], dtype=np.int64)
    width = int(lens.max(initial=0))
    out = np.full((len(strings), width), fill, dtype=np.int64)
    out[np.arange(width) < lens[:, None]] = encode_chars("".join(strings))
    return out, lens


def encode_chars(s: str) -> np.ndarray:
    """Unicode code points of s as an int64 array."""
    if not s:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)


def levenshtein(a: str, b: str) -> int:
    return int(levenshtein_many([a], [b])[0])


def levenshtein_many(a: Sequence[str], b: Sequence[str]) -> np.ndarray:
    """Edit distances of the pairs (a[k], b[k]) as an int64 array.

    One row DP runs over all pairs at once, every pair through every row.
    The strings are right-padded with two sentinels that match no code
    point; the DP's cell (i, j) depends on a[:i] and b[:j] only, so the
    padding never reaches cell (len(a[k]), len(b[k])). The rows hold
    D[i, j] - j: row 0 is zero, a diagonal match costs -1 and an insertion
    nothing, so the in-row recurrence is a plain prefix minimum. Each row
    keeps its column len(b[k]) per pair, and pair k reads its distance at
    row len(a[k]), adding len(b[k]) back.
    """
    if len(a) != len(b):
        raise ValueError(f"levenshtein_many: {len(a)} strings against {len(b)}")
    A, la = _pad_codes(a, -1)
    B, lb = _pad_codes(b, -2)
    pairs = np.arange(len(a))
    # int32 rows move half the bytes of int64; |D[i, j] - j| <= max(i, j)
    prev = np.zeros((len(a), B.shape[1] + 1), dtype=np.int32)
    row = np.empty_like(prev)
    at_lb = np.zeros((A.shape[1] + 1, len(a)), dtype=np.int64)
    for i in range(1, A.shape[1] + 1):
        row[:, 0] = i
        np.minimum(prev[:, :-1] - (A[:, i - 1:i] == B), prev[:, 1:] + 1,
                   out=row[:, 1:])
        np.minimum.accumulate(row, axis=1, out=row)
        at_lb[i] = row[pairs, lb]
        prev, row = row, prev
    return at_lb[la, pairs] + lb


def char_units(strings: Sequence[str], alphabet: np.ndarray) -> np.ndarray:
    """Repeat units over ``alphabet`` (sorted code points, each as often as
    it may repeat), one float64 0/1 row per string: the column of the t-th
    copy of c is 1 where the string holds c more than t times. Two rows dot
    to sum_c min(count_a(c), count_b(c)) if one string holds no c more
    often than ``alphabet``; characters outside it fill no column."""
    codes = encode_chars("".join(strings))
    row = np.repeat(np.arange(len(strings)), [len(s) for s in strings])
    column = np.searchsorted(alphabet, codes)  # a code point's first copy
    inside = np.append(alphabet, -1)[column] == codes
    width = len(alphabet)
    counts = np.bincount(row[inside] * width + column[inside],
                         minlength=len(strings) * width)
    first = np.searchsorted(alphabet, alphabet)
    return (counts.reshape(len(strings), width)[:, first]
            > np.arange(width) - first).astype(np.float64)


def lcs_length_tokens(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two sequences of
    hashable items (tokens, code points, ids), bit-parallel over ``b``.

    Bit j of ``V`` is 0 where row i of the LCS table steps up at column
    j + 1, so the LCS so far is the number of zero bits among the low
    len(b). Per item t of ``a``, with M the bit set of the positions of t
    in ``b`` (Allison & Dix 1986, Hyyro 2004): U = V & M, then
    V = (V + U) | (V - U). The carries of V + U run upwards only, so bits
    at len(b) and above never reach the low bits and are masked off once,
    at the end. Python ints are unbounded, so ``b`` has no length limit.
    """
    masks: dict[Hashable, int] = {}
    for j, item in enumerate(b):
        masks[item] = masks.get(item, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for item in a:
        m = masks.get(item)
        if m:
            u = v & m
            v = (v + u) | (v - u)
    return len(b) - (v & full).bit_count()
