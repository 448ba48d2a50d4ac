"""Ordering strategies for training data emission.

Records are the dicts ``dataset.record`` returns. All randomized
strategies draw from numpy's default_rng (the PCG64 generator), so a
(strategy, seed) pair reproduces the same permutation on any platform;
numpy is imported only when one of them runs. Sorts are stable: ties
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


def _rng(seed: int):
    import numpy as np  # kept off the import path: only the shuffles need it

    return np.random.default_rng(seed)


def _shuffled(items: list, rng) -> list:
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def order_records(records: Sequence, kind: str, seed: int = 0) -> list:
    """Apply one ordering strategy (one of STRATEGIES); always a permutation of the input."""
    items = list(records)

    if kind == "semi_ranked":
        return rank_by_difficulty(items)

    if kind in ("semi_unranked", "all_shuffled"):
        return _shuffled(items, _rng(seed))

    if kind == "ni_shuffled":
        # Problems first: shuffle problem ids, lay out each problem's
        # records contiguously, then shuffle the record stream once.
        rng = _rng(seed)
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
