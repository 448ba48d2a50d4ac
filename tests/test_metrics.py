import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from semiforge.errors import SemiforgeError
from semiforge.executor import Invocation, ResourceLimits, SandboxSetupFailure, execute, sandbox
from semiforge.metrics import (
    EvalProblem,
    evaluate_candidates,
    pass_at_k,
)
from semiforge.validation import TestCase as Case


def brute_force(n: int, c: int, k: int) -> float:
    """Subset enumeration: fraction of k-subsets containing a correct sample."""
    hits = 0
    total = 0
    for subset in combinations(range(n), k):
        total += 1
        if any(i < c for i in subset):
            hits += 1
    return hits / total


def test_matches_enumeration_small():
    for n in range(1, 7):
        for c in range(n + 1):
            for k in range(1, n + 1):
                assert abs(pass_at_k(n, c, k) - brute_force(n, c, k)) < 1e-12


@pytest.mark.parametrize("n", [7, 64, 100, 333, 500, 999, 1000])
def test_matches_exact_ratio_large_n(n):
    """1 - C(n-c, k) / C(n, k) in exact arithmetic, where enumeration is out of reach."""
    for c in range(0, n + 1, max(1, n // 25)):
        for k in sorted({1, 2, 3, 10, n // 2, n - c, n - c + 1, n - 1, n}):
            if 1 <= k <= n:
                exact = 1 - Fraction(comb(n - c, k), comb(n, k))
                assert abs(pass_at_k(n, c, k) - float(exact)) < 1e-12, (n, c, k)


@pytest.mark.parametrize(
    "n,c,k,expected",
    [
        (5, 2, 3, 0.9),
        (10, 3, 1, 0.3),
        (4, 4, 2, 1.0),
        (4, 0, 2, 0.0),
        (3, 1, 3, 1.0),  # n - c < k forces a hit
    ],
)
def test_frozen_values(n, c, k, expected):
    assert pass_at_k(n, c, k) == pytest.approx(expected, abs=1e-12)


def test_k_equals_one_is_exact():
    for c in range(201):
        assert pass_at_k(200, c, 1) == c / 200


@pytest.mark.parametrize("n,c,k", [(5, 2, 0), (5, 2, 6), (5, -1, 1), (5, 6, 1), (0, 0, 1)])
def test_invalid_args(n, c, k):
    with pytest.raises(SemiforgeError, match="need 1 <= k <= n and 0 <= c <= n"):
        pass_at_k(n, c, k)


nck = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(min_value=0, max_value=n), st.integers(min_value=1, max_value=n)
    )
)


@given(nck)
def test_monotone_in_k(args):
    n, c, k = args
    if k < n:
        assert pass_at_k(n, c, k) <= pass_at_k(n, c, k + 1) + 1e-12


@given(nck)
def test_monotone_in_c(args):
    n, c, k = args
    if c < n:
        assert pass_at_k(n, c, k) <= pass_at_k(n, c + 1, k) + 1e-12


@given(nck)
def test_range_and_extremes(args):
    n, c, k = args
    value = pass_at_k(n, c, k)
    assert 0.0 <= value <= 1.0
    if c == 0:
        assert value == 0.0
    if c == n:
        assert value == 1.0


DOUBLE_CASES = (
    Case(Invocation.stdin("2"), "4"),
    Case(Invocation.stdin("5"), "10"),
)
GOOD = "print(int(input()) * 2)"
ALSO_GOOD = "n = int(input())\nprint(n + n)"
WRONG = "print(int(input()) * 3)"
CRASH = "raise SystemExit(1)"


def test_evaluate_candidates_basic():
    problems = [EvalProblem("double", DOUBLE_CASES, (GOOD, WRONG, ALSO_GOOD))]
    report = evaluate_candidates(problems, ks=(1, 2), limits=ResourceLimits(wall_timeout=5.0))
    assert report.problems[0].n == 3
    assert report.problems[0].c == 2
    assert report.estimates[1] == pytest.approx(2 / 3)
    assert report.estimates[2] == pytest.approx(1.0)  # n - c = 1 < 2
    blob = report.to_dict()
    assert blob["pass_at_k"]["1"] == pytest.approx(2 / 3)
    assert blob["problems"][0]["problem_id"] == "double"


def test_evaluate_candidates_applies_its_limits():
    problems = [EvalProblem("double", DOUBLE_CASES, (GOOD, "while True:\n    pass"))]
    started = time.monotonic()
    report = evaluate_candidates(problems, limits=ResourceLimits(wall_timeout=0.5))
    assert report.problems[0].c == 1
    assert time.monotonic() - started < 2.5  # the default limit alone is 5 s


def test_evaluate_averages_over_problems():
    problems = [
        EvalProblem("good-or-wrong", DOUBLE_CASES, (GOOD, WRONG)),
        EvalProblem("crash-or-wrong", DOUBLE_CASES, (CRASH, WRONG)),
    ]
    report = evaluate_candidates(problems, ks=(1,))
    assert [p.c for p in report.problems] == [1, 0]
    assert report.problems[0].problem_id == "good-or-wrong"
    assert report.estimates[1] == pytest.approx((0.5 + 0.0) / 2)


def test_evaluate_averages_k_above_one_over_problems():
    problems = [
        EvalProblem("two-of-four", DOUBLE_CASES, (GOOD, WRONG, ALSO_GOOD, WRONG)),
        EvalProblem("one-of-four", DOUBLE_CASES, (WRONG, GOOD, CRASH, WRONG)),
    ]
    report = evaluate_candidates(problems, ks=(2, 3), workers=2)
    assert [(p.n, p.c) for p in report.problems] == [(4, 2), (4, 1)]
    # pass@2: 1 - C(2,2)/C(4,2) = 5/6 and 1 - C(3,2)/C(4,2) = 1/2.
    assert report.estimates[2] == pytest.approx((5 / 6 + 1 / 2) / 2, abs=1e-12)
    # pass@3: n - c = 2 < 3 forces 1, and 1 - C(3,3)/C(4,3) = 3/4.
    assert report.estimates[3] == pytest.approx((1 + 3 / 4) / 2, abs=1e-12)


def test_one_evaluation_starts_one_server(sandbox_counts):
    problems = [EvalProblem("double", DOUBLE_CASES, (GOOD, WRONG, ALSO_GOOD, CRASH))]
    report = evaluate_candidates(problems, ks=(1,), workers=2)
    assert report.problems[0].c == 2
    assert len(sandbox_counts["starts"]) == 1
    assert len(sandbox_counts["calls"]) == len(sandbox_counts["runs"]) == 6


def test_a_candidate_that_kills_the_server_is_named():
    problems = [EvalProblem("double", DOUBLE_CASES, (GOOD, "import os; os.kill(os.getppid(), 9)", WRONG))]
    with pytest.raises(SandboxSetupFailure, match=r"^double candidate 1: the sandbox server is gone: "):
        evaluate_candidates(problems)


def test_evaluate_parallel_matches_serial():
    problems = [EvalProblem("double", DOUBLE_CASES, (GOOD, WRONG, ALSO_GOOD))]
    serial = evaluate_candidates(problems, ks=(1,), workers=1)
    threaded = evaluate_candidates(problems, ks=(1,), workers=4)
    assert serial.estimates == threaded.estimates


def test_insufficient_samples():
    problems = [EvalProblem("double", DOUBLE_CASES, (GOOD,))]
    with pytest.raises(SemiforgeError, match="double has 1 candidates, need >= 2"):
        evaluate_candidates(problems, ks=(2,))


def test_evaluate_invalid_inputs():
    with pytest.raises(SemiforgeError, match="no problems to evaluate"):
        evaluate_candidates([], ks=(1,))
    with pytest.raises(SemiforgeError, match="ks must be nonempty"):
        evaluate_candidates([EvalProblem("p", DOUBLE_CASES, (GOOD,))], ks=())
    with pytest.raises(SemiforgeError, match="p has no test cases"):
        evaluate_candidates([EvalProblem("p", (), (GOOD,))], ks=(1,))
    with pytest.raises(SemiforgeError, match="every k must be >= 1, got 0"):
        evaluate_candidates([EvalProblem("p", DOUBLE_CASES, (GOOD,))], ks=(0,))
    for workers in (0, -2):
        with pytest.raises(SemiforgeError, match=f"workers must be >= 1, got {workers}"):
            evaluate_candidates([EvalProblem("p", DOUBLE_CASES, (GOOD,))], ks=(1,), workers=workers)


def test_a_set_order_candidate_scores_alike_in_every_call():
    # Every scoring server has one fixed str hash secret, so a set prints in one order in every call.
    code = 'print(*{"alpha", "beta", "gamma", "delta", "epsilon"})'
    with sandbox(secret=0) as server:
        expected = execute(code, Invocation.stdin(""), server).stdout
    problem = EvalProblem("p", (Case(Invocation.stdin(""), expected),), (code,))
    assert [evaluate_candidates([problem]).problems[0].c for _ in range(3)] == [1, 1, 1]
