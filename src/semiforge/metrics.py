"""pass@k estimation and a candidate-evaluation harness.

pass_at_k uses the unbiased estimator 1 - C(n-c, k) / C(n, k) in
product form, which stays in float range for any realistic n. The
harness scores candidate programs with the same pass-all semantics the
pipeline uses for refined code.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import SemiforgeError
from .executor import ResourceLimits, sandbox
from .validation import TestCase, validate_refined_code


class InvalidArgs(SemiforgeError):
    pass


class InsufficientSamples(SemiforgeError):
    pass


def pass_at_k(n: int, c: int, k: int) -> float:
    """Probability that at least one of k draws (from n, c correct) passes."""
    if n < 1 or k < 1 or k > n or c < 0 or c > n:
        raise InvalidArgs(f"need 1 <= k <= n and 0 <= c <= n, got n={n} c={c} k={k}")
    if n - c < k:
        return 1.0
    if k == 1:
        return c / n
    return 1.0 - math.prod(1.0 - k / i for i in range(n - c + 1, n + 1))


@dataclass(frozen=True)
class EvalProblem:
    problem_id: str
    test_cases: tuple[TestCase, ...]
    candidates: tuple[str, ...]


@dataclass(frozen=True)
class ProblemEval:
    problem_id: str
    n: int
    c: int


@dataclass(frozen=True)
class PassAtKReport:
    estimates: Mapping[int, float]
    problems: tuple[ProblemEval, ...]

    def to_dict(self) -> dict:
        return {
            "pass_at_k": {str(k): v for k, v in sorted(self.estimates.items())},
            "problems": [
                {"problem_id": p.problem_id, "n": p.n, "c": p.c} for p in self.problems
            ],
        }


def evaluate_candidates(
    problems: Sequence[EvalProblem],
    limits: ResourceLimits | None = None,
    ks: Sequence[int] = (1,),
    interpreter: str | None = None,
    workers: int = 1,
) -> PassAtKReport:
    """Score candidates per problem and average pass@k across problems."""
    if not ks:
        raise InvalidArgs("ks must be nonempty")
    if not problems:
        raise InvalidArgs("no problems to evaluate")
    ks = sorted(set(int(k) for k in ks))
    if ks[0] < 1:
        raise InvalidArgs(f"every k must be >= 1, got {ks[0]}")
    k_max = ks[-1]
    for entry in problems:
        if not entry.test_cases:
            raise InvalidArgs(f"{entry.problem_id} has no test cases")
        if len(entry.candidates) < k_max:
            raise InsufficientSamples(
                f"{entry.problem_id} has {len(entry.candidates)} candidates, need >= {k_max}"
            )

    jobs = [
        (i, candidate)
        for i, entry in enumerate(problems)
        for candidate in entry.candidates
    ]

    def passes(job) -> bool:
        i, candidate = job
        return validate_refined_code(candidate, problems[i].test_cases, limits, interpreter).passed

    with sandbox(interpreter):
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(passes, jobs))
        else:
            outcomes = [passes(job) for job in jobs]

    correct = [0] * len(problems)
    for (i, _), passed in zip(jobs, outcomes):
        if passed:
            correct[i] += 1

    evals = tuple(
        ProblemEval(problem_id=entry.problem_id, n=len(entry.candidates), c=correct[i])
        for i, entry in enumerate(problems)
    )
    estimates = {k: math.fsum(pass_at_k(p.n, p.c, k) for p in evals) / len(evals) for k in ks}
    return PassAtKReport(estimates=estimates, problems=evals)
