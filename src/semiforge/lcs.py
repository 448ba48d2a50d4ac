"""Exact longest-common-subsequence length, bit-parallel over Python ints.

The instruction-similarity filter needs one LCS length per
candidate/reference pair. This is the bit-parallel recurrence of Allison
& Dix (1986) in the form of Hyyrö (2004): bit j of ``row`` is cleared
where the DP row over ``b`` steps up by one at column j, so a single
arbitrary-width integer update per token of ``a`` replaces a scan over
``b``, and the LCS length is the number of cleared bits.
"""

from __future__ import annotations

from typing import Hashable, Sequence


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two token sequences."""
    masks: dict[Hashable, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    row = full
    for token in a:
        m = masks.get(token, 0) & row
        row = ((row + m) | (row - m)) & full
    return len(b) - row.bit_count()
