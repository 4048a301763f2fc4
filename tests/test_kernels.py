from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdial import kernels


def lev_oracle(a: str, b: str) -> int:
    # classic full-table DP, kept independent of the kernel implementations
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[n][m]


def lcs_oracle(a, b) -> int:
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                d[i][j] = d[i - 1][j - 1] + 1
            else:
                d[i][j] = max(d[i - 1][j], d[i][j - 1])
    return d[n][m]


@pytest.mark.parametrize("a,b,expected", [
    ("", "", 0),
    ("abc", "", 3),
    ("", "abc", 3),
    ("kitten", "sitting", 3),
    ("launch", "lodge", 5),
    ("hamilton launch", "hamilton lodge", 5),
])
def test_levenshtein_known(a, b, expected):
    assert kernels.levenshtein(a, b) == expected


@given(st.text(alphabet="abcdef ", max_size=30), st.text(alphabet="abcdef ", max_size=30))
@settings(max_examples=200, deadline=None)
def test_levenshtein_matches_oracle(a, b):
    assert kernels.levenshtein(a, b) == lev_oracle(a, b)


@given(st.text(alphabet="abcdef ", max_size=30), st.text(alphabet="abcdef ", max_size=30))
@settings(max_examples=200, deadline=None)
def test_numpy_path_matches_oracle(a, b):
    ca, cb = kernels.encode_chars(a), kernels.encode_chars(b)
    assert kernels.lcs_length_tokens(ca, cb) == lcs_oracle(a, b)


@given(st.lists(st.sampled_from(["a", "b", "cat", "dog"]), max_size=25),
       st.lists(st.sampled_from(["a", "b", "cat", "dog"]), max_size=25))
@settings(max_examples=200, deadline=None)
def test_lcs_tokens_matches_oracle(a, b):
    assert kernels.lcs_length_tokens(a, b) == lcs_oracle(a, b)


# long sides (one row of the bit-parallel LCS spans several 64-bit words),
# empty sides, heavily repeated items, and tokens as well as ids
LONG_SEQ = st.one_of(
    st.lists(st.integers(0, 3), max_size=200),
    st.lists(st.integers(0, 40), min_size=65, max_size=160),
    st.lists(st.just(7), max_size=150),
    st.lists(st.sampled_from(["a", "b", "cat", "⟨ent⟩"]), min_size=65, max_size=120),
)


@given(LONG_SEQ, LONG_SEQ)
@settings(max_examples=300, deadline=None)
@example([], [])
@example([1] * 70, [])
@example([], [1] * 70)
@example([1] * 130, [1] * 65)
@example(list(range(100)), list(range(99, -1, -1)))
def test_bit_parallel_lcs_matches_oracle(a, b):
    expected = lcs_oracle(a, b)
    assert kernels.lcs_length_tokens(a, b) == expected
    assert kernels.lcs_length_tokens(b, a) == expected
    assert kernels.lcs_length_tokens(np.array(a), np.array(b)) == expected


def _lev_reference(a: str, b: str) -> int:
    return lev_oracle(a, b)


# empty strings, unequal lengths, non-BMP code points and characters equal
# to neither padding sentinel
PAIR_TEXT = st.text(alphabet="ab é\U0001F600\U00010348", max_size=12)


@given(st.lists(st.tuples(PAIR_TEXT, PAIR_TEXT), max_size=12))
@settings(max_examples=300, deadline=None)
def test_levenshtein_many_matches_reference_pair_by_pair(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    got = kernels.levenshtein_many(a, b)
    assert got.dtype == np.int64 and got.shape == (len(pairs),)
    assert got.tolist() == [_lev_reference(x, y) for x, y in pairs]


def test_levenshtein_many_paths_agree_on_random_pairs():
    rng = np.random.default_rng(1)
    chars = np.array(list("abc \U0001F600"))
    a = ["".join(rng.choice(chars, size=rng.integers(0, 20))) for _ in range(60)]
    b = ["".join(rng.choice(chars, size=rng.integers(0, 20))) for _ in range(60)]
    expected = [_lev_reference(x, y) for x, y in zip(a, b)]
    assert kernels.levenshtein_many(a, b).tolist() == expected


def test_levenshtein_many_mixes_long_short_and_empty_pairs():
    # one call pads every pair to the longest side, so short and empty pairs
    # run through many rows past their own length, and the shifted rows of a
    # long pair move far from D[i, j] itself
    rng = np.random.default_rng(2)
    chars = np.array(list("ab \U0001F600"))
    long_a = "".join(rng.choice(chars, size=150))
    long_b = "".join(rng.choice(chars, size=90))
    a = [long_a, "", "ab", long_a, "a" * 120, long_b, ""]
    b = [long_b, long_b, "", "", "b" * 5, long_a, ""]
    expected = [lev_oracle(x, y) for x, y in zip(a, b)]
    assert kernels.levenshtein_many(a, b).tolist() == expected
    assert expected[2:5] == [2, 150, 120]


def test_levenshtein_many_rejects_unequal_lists():
    with pytest.raises(ValueError):
        kernels.levenshtein_many(["a"], [])


def repeat_alphabet(names):
    """The multiset union of the names' code points, sorted: the alphabet
    the name index builds its unit rows over."""
    most = Counter()
    for name in names:
        most |= Counter(name)
    return np.array(sorted(map(ord, most.elements())), dtype=np.int64)


def test_char_units_skip_characters_outside_alphabet():
    alphabet = repeat_alphabet(["abba"])  # a, a, b, b
    units = kernels.char_units(["abba", "", "a\U0001F600z", "aaab"], alphabet)
    assert units.dtype == np.float64
    assert units.tolist() == [[1, 1, 1, 1], [0, 0, 0, 0], [1, 0, 0, 0],
                              [1, 1, 1, 0]]


# name strings and window strings: windows may repeat a character more often
# than any name, and hold characters no name holds, non-BMP ones included
NAME_TEXT = st.text(alphabet="ab é\U0001F600", max_size=8)
WINDOW_TEXT = st.text(alphabet="ab é\U0001F600\U00010348z", max_size=16)


@given(st.lists(NAME_TEXT, min_size=1, max_size=4),
       st.lists(WINDOW_TEXT, max_size=4))
@example(["ab"], ["aaaaab", "", "zz\U00010348"])
@example([""], ["a"])
@settings(max_examples=300, deadline=None)
def test_char_units_dot_to_shared_character_counts(names, windows):
    alphabet = repeat_alphabet(names)
    name_units = kernels.char_units(names, alphabet)
    window_units = kernels.char_units(windows, alphabet)
    assert name_units.shape == (len(names), len(alphabet))
    assert window_units.shape == (len(windows), len(alphabet))
    for name, row in zip(names, name_units):
        for text, other in zip(names + windows,
                               np.vstack([name_units, window_units])):
            shared = sum((Counter(name) & Counter(text)).values())
            assert row @ other == shared
