"""Ordering strategies for training data emission.

Records are the dicts ``dataset.record`` returns. All randomized
strategies draw the permutations ``numpy.random.default_rng(seed)``
draws (SeedSequence seeding a PCG64 generator), computed here with the
standard library, so a (strategy, seed) pair reproduces the same order
on any platform, with numpy installed or not. Sorts are stable: ties
keep their pipeline order.
"""

from __future__ import annotations

from typing import Sequence

from .errors import SemiforgeError

STRATEGIES = (
    "semi_ranked",
    "semi_unranked",
    "ni_shuffled",
    "si_generated_order",
    "combined_si_then_semi",
    "all_shuffled",
)


def _difficulty(record: dict, strategy_kind: str) -> int:
    value = record["difficulty"]
    if value is None:
        raise SemiforgeError(f"{strategy_kind} needs a difficulty on every record")
    return value


def _seq(record: dict, strategy_kind: str) -> int:
    seq = record["provenance"]["seq"]
    if seq is None:
        raise SemiforgeError(f"{strategy_kind} needs a generation sequence number on every record")
    return seq


def _problem_id(record: dict, strategy_kind: str) -> str:
    pid = record["provenance"]["problem_id"]
    if not pid:
        raise SemiforgeError(f"{strategy_kind} needs a problem id on every record")
    return pid


def rank_by_difficulty(samples: Sequence) -> list:
    """Non-increasing difficulty; ties keep their original order."""
    items = list(samples)
    return sorted(items, key=lambda s: -_difficulty(s, "ranking"))


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash: each call mixes one word and steps ``const``."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ result >> 16


class _PCG64:
    """numpy's ``default_rng(seed)``, as far as ``permutation`` needs it.

    The seed goes through SeedSequence's hash into four 64-bit words that
    seed a PCG64 (XSL-RR) stream. 32-bit draws take the low half of a
    64-bit draw first and keep its high half for the next one, and each
    bounded draw masks and rejects, as numpy's ``random_interval`` does.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        words = [seed & _MASK32]
        while seed := seed >> 32:
            words.append(seed & _MASK32)
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))

        # generate_state(4, uint64): eight 32-bit words, paired low word first.
        draw = _hasher(0x8B51F9DD, 0x58F38DED)
        state = [draw(pool[i % 4]) for i in range(8)]
        w0, w1, w2, w3 = (state[2 * k] | state[2 * k + 1] << 32 for k in range(4))
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._state = ((self._inc + (w0 << 64 | w1)) * _PCG_MULT + self._inc) & _MASK128
        self._high: int | None = None  # the unused half of the last 64-bit draw

    def _next32(self) -> int:
        if self._high is not None:
            value, self._high = self._high, None
            return value
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        folded = (self._state >> 64) ^ (self._state & _MASK64)
        rot = self._state >> 122
        value = (folded >> rot | folded << (64 - rot)) & _MASK64
        self._high = value >> 32
        return value & _MASK32

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates over ``range(n)`` from the top, as ``Generator.permutation(n)``."""
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            order[i], order[j] = order[j], order[i]
        return order


def _shuffled(items: list, rng) -> list:
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def order_records(records: Sequence, kind: str, seed: int = 0) -> list:
    """Apply one ordering strategy (one of STRATEGIES); always a permutation of the input."""
    items = list(records)

    if kind == "semi_ranked":
        return rank_by_difficulty(items)

    if kind in ("semi_unranked", "all_shuffled"):
        return _shuffled(items, _PCG64(seed))

    if kind == "ni_shuffled":
        # Problems first: shuffle problem ids, lay out each problem's
        # records contiguously, then shuffle the record stream once.
        rng = _PCG64(seed)
        ids: list[str] = []
        by_problem: dict[str, list] = {}
        for record in items:
            pid = _problem_id(record, kind)
            if pid not in by_problem:
                by_problem[pid] = []
                ids.append(pid)
            by_problem[pid].append(record)
        assembled = []
        for pid in _shuffled(ids, rng):
            assembled.extend(by_problem[pid])
        return _shuffled(assembled, rng)

    if kind == "si_generated_order":
        return sorted(items, key=lambda r: _seq(r, kind))

    if kind == "combined_si_then_semi":
        si_block = [r for r in items if r["source"] == "si"]
        rest = [r for r in items if r["source"] != "si"]
        si_block = sorted(si_block, key=lambda r: _seq(r, kind))
        return si_block + rank_by_difficulty(rest)

    raise ValueError(f"unknown ordering strategy: {kind!r}")
