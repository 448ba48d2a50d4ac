import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semiforge.curriculum import (
    STRATEGIES,
    _PCG64,
    order_records,
    rank_by_difficulty,
)
from semiforge.dataset import record
from semiforge.errors import SemiforgeError


def semi(problem_id, seq, difficulty):
    return record(
        {
            "instruction": f"task {seq}",
            "code": f"print({seq})",
            "source": "semi",
            "provenance": {"problem_id": problem_id, "solution_index": 0, "seq": seq},
            "difficulty": difficulty,
            "n_test_cases": difficulty,
            "test_cases": [
                {"mode": "stdin", "payload": str(i), "function_name": None, "expected_output": str(seq)}
                for i in range(difficulty)
            ],
        }
    )


def si(seq):
    return record(
        {
            "instruction": f"generated {seq}",
            "code": f"print({seq})",
            "source": "si",
            "provenance": {"problem_id": f"si-{seq}", "seq": seq},
        }
    )


MIXED = [
    semi("pa", 0, 2),
    semi("pb", 1, 3),
    semi("pa", 2, 3),
    semi("pc", 3, 1),
    semi("pb", 4, 2),
    semi("pc", 5, 4),
]


def ids(records):
    return [(r["provenance"]["problem_id"], r["provenance"]["seq"]) for r in records]


def test_strategy_names():
    assert STRATEGIES == (
        "semi_ranked",
        "semi_unranked",
        "ni_shuffled",
        "si_generated_order",
        "combined_si_then_semi",
        "all_shuffled",
    )


def test_strategy_validation():
    with pytest.raises(ValueError):
        order_records(MIXED, "hardest_first")


def test_rank_by_difficulty_descending_and_stable():
    ranked = rank_by_difficulty(MIXED)
    difficulties = [r["difficulty"] for r in ranked]
    assert difficulties == [4, 3, 3, 2, 2, 1]
    # Ties keep input order: seq 1 before seq 2 (both difficulty 3), 0 before 4.
    assert [r["provenance"]["seq"] for r in ranked] == [5, 1, 2, 0, 4, 3]


def test_rank_missing_difficulty():
    with pytest.raises(SemiforgeError, match="needs a difficulty on every record"):
        rank_by_difficulty([si(0)])


def test_semi_ranked_equals_rank():
    assert ids(order_records(MIXED, "semi_ranked")) == ids(
        rank_by_difficulty(MIXED)
    )


def test_seeded_strategies_reproducible():
    for kind in ("semi_unranked", "ni_shuffled", "all_shuffled"):
        first = order_records(MIXED, kind, seed=11)
        second = order_records(MIXED, kind, seed=11)
        assert ids(first) == ids(second)


def test_seed_changes_shuffle():
    outcomes = {
        tuple(ids(order_records(MIXED, "all_shuffled", seed=s)))
        for s in range(8)
    }
    assert len(outcomes) > 1


def test_ni_shuffled_matches_reference_algorithm():
    """Shuffle problem ids, assemble each problem contiguously, shuffle records."""
    seed = 3
    rng = np.random.default_rng(seed)
    ids_in_order = []
    by_problem = {}
    for record in MIXED:
        pid = record["provenance"]["problem_id"]
        if pid not in by_problem:
            by_problem[pid] = []
            ids_in_order.append(pid)
        by_problem[pid].append(record)
    shuffled_ids = [ids_in_order[i] for i in rng.permutation(len(ids_in_order))]
    assembled = [r for pid in shuffled_ids for r in by_problem[pid]]
    expected = [assembled[i] for i in rng.permutation(len(assembled))]

    ordered = order_records(MIXED, "ni_shuffled", seed=seed)
    assert ids(ordered) == ids(expected)


def test_si_generated_order_sorts_by_seq():
    records = [si(3), si(0), si(2), si(1)]
    ordered = order_records(records, "si_generated_order")
    assert [r["provenance"]["seq"] for r in ordered] == [0, 1, 2, 3]


def test_combined_si_then_semi():
    records = [semi("pa", 0, 2), si(10), semi("pb", 1, 5), si(4)]
    ordered = order_records(records, "combined_si_then_semi")
    assert [r["source"] for r in ordered] == ["si", "si", "semi", "semi"]
    assert [r["provenance"]["seq"] for r in ordered] == [4, 10, 1, 0]


@pytest.mark.parametrize("kind", STRATEGIES)
def test_every_strategy_permutes(kind):
    records = MIXED if kind != "si_generated_order" else [si(i) for i in range(6)]
    ordered = order_records(records, kind, seed=5)
    assert sorted(ids(ordered)) == sorted(ids(records))


def test_order_leaves_input_unmodified():
    before = json.dumps(MIXED)
    order_records(MIXED, "all_shuffled", seed=2)
    assert json.dumps(MIXED) == before


@pytest.mark.parametrize("kind", STRATEGIES)
def test_select_scale_prefix_nesting(kind):
    records = MIXED if kind != "si_generated_order" else [si(i) for i in range(6)]
    smaller = order_records(records, kind, seed=9)[:2]
    larger = order_records(records, kind, seed=9)[:5]
    assert ids(larger)[:2] == ids(smaller)


def test_byte_exact_reproducibility():
    render = lambda rs: "\n".join(
        json.dumps(r, sort_keys=True) for r in order_records(rs, "all_shuffled", seed=21)
    )
    assert render(MIXED) == render(MIXED)


seqs = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12, unique=True)


@given(seqs, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60)
def test_shuffles_are_permutations(seq_values, seed):
    records = [semi(f"p{v % 4}", v, v % 5 + 1) for v in seq_values]
    for kind in ("semi_unranked", "ni_shuffled", "all_shuffled"):
        ordered = order_records(records, kind, seed=seed)
        assert sorted(ids(ordered)) == sorted(ids(records))


@given(st.integers(min_value=0, max_value=2**128), st.lists(st.integers(min_value=0, max_value=3000), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
@example(2**128, [0, 7, 1000])  # seeds of five 32-bit words or more mix each word past the fourth into the pool
@example(2**200 + 12345, [1, 3000])
def test_permutations_are_numpys(seed, sizes):
    """Each permutation drawn in turn from one generator is the one numpy's default_rng draws."""
    ours, numpys = _PCG64(seed), np.random.default_rng(seed)
    for n in sizes:
        assert ours.permutation(n) == numpys.permutation(n).tolist()


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        order_records(MIXED, "all_shuffled", seed=-1)
