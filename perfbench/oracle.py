"""Reference ROUGE-L dedup, independent of the package under test.

A plain quadratic dynamic program over whitespace tokens, with exact
integer arithmetic for the threshold test: F1 of the LCS is
2 * lcs / (len(a) + len(b)), and ``F1 > num / den`` is decided as
``2 * den * lcs > num * (len(a) + len(b))``.  It shares no code with
``semiforge`` and skips no pair.
"""

from __future__ import annotations

from fractions import Fraction


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def lcs_length(a: list[str], b: list[str]) -> int:
    previous = [0] * (len(b) + 1)
    for token in a:
        current = [0]
        left = 0  # current[j], the cell to the left
        for j, other in enumerate(b):
            if token == other:
                left = previous[j] + 1
            elif previous[j + 1] > left:
                left = previous[j + 1]
            current.append(left)
        previous = current
    return previous[-1]


def rouge_l(a: list[str], b: list[str]) -> Fraction:
    """ROUGE-L F1 of two token lists as an exact fraction; 0 if either is empty."""
    if not a or not b:
        return Fraction(0)
    return Fraction(2 * lcs_length(a, b), len(a) + len(b))


def dedup_decisions(texts: list[str], threshold: Fraction) -> list[bool]:
    """Streaming greedy dedup against retained texts: True where a text is kept."""
    pool: list[list[str]] = []
    keep = []
    for text in texts:
        tokens = tokenize(text)
        duplicate = any(rouge_l(tokens, prior) > threshold for prior in pool)
        keep.append(not duplicate)
        if not duplicate:
            pool.append(tokens)
    return keep


def pairs_worst(keep: list[bool]) -> int:
    """Comparisons a dedup without pruning or early exit makes: pool size per arrival."""
    total = pool = 0
    for kept in keep:
        total += pool
        pool += kept
    return total
