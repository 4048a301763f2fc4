import numpy as np
import pytest
from hypothesis import given, settings
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
    assert kernels.levenshtein_numpy(ca, cb) == lev_oracle(a, b)
    assert kernels.lcs_length_numpy(ca, cb) == lcs_oracle(a, b)


@given(st.lists(st.sampled_from(["a", "b", "cat", "dog"]), max_size=25),
       st.lists(st.sampled_from(["a", "b", "cat", "dog"]), max_size=25))
@settings(max_examples=200, deadline=None)
def test_lcs_tokens_matches_oracle(a, b):
    assert kernels.lcs_length_tokens(a, b) == lcs_oracle(a, b)


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
    assert kernels.levenshtein_many_numpy(a, b).tolist() == expected


def test_levenshtein_many_rejects_unequal_lists():
    with pytest.raises(ValueError):
        kernels.levenshtein_many(["a"], [])


def test_char_counts_pools_characters_outside_alphabet():
    alphabet = np.array(sorted(map(ord, "ab")), dtype=np.int64)
    counts = kernels.char_counts(["abba", "", "a\U0001F600z"], alphabet)
    assert counts.tolist() == [[0, 2, 2], [0, 0, 0], [2, 1, 0]]
