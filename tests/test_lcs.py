import pytest
from hypothesis import given, strategies as st

from semiforge.lcs import lcs_length
from tests.conftest import lcs_quadratic

# Classic pairs with lengths worked out by the reference DP.
FROZEN = [
    ("abcbdab", "bdcaba", 4),
    ("", "abc", 0),
    ("abc", "", 0),
    ("abc", "abc", 3),
    ("abc", "def", 0),
    ("aab", "ab", 2),
    ("xaxbxcx", "abc", 3),
]


@pytest.mark.parametrize("a,b,expected", FROZEN)
def test_frozen_lengths(a, b, expected):
    a, b = list(a), list(b)
    assert lcs_quadratic(a, b) == expected
    assert lcs_length(a, b) == expected


def token_lists(alphabet_size: int, max_len: int = 200):
    """Lists of string tokens whose length is drawn uniformly up to max_len.

    Drawing the length first keeps rows past the 64- and 128-bit marks
    common instead of rare.
    """
    token = st.integers(0, alphabet_size - 1).map(lambda i: f"w{i}")
    return st.integers(0, max_len).flatmap(lambda n: st.lists(token, min_size=n, max_size=n))


def token_pairs(min_alphabet: int, max_alphabet: int):
    return st.integers(min_alphabet, max_alphabet).flatmap(
        lambda k: st.tuples(token_lists(k), token_lists(k))
    )


@given(token_pairs(1, 8))
def test_kernel_matches_reference_small_alphabet(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_quadratic(a, b)


@given(token_pairs(50, 400))
def test_kernel_matches_reference_large_alphabet(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_quadratic(a, b)


@given(token_pairs(1, 8))
def test_symmetry(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_length(b, a)
