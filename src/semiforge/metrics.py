"""pass@k estimation and a candidate-evaluation harness.

pass_at_k uses the unbiased estimator 1 - C(n-c, k) / C(n, k) in
product form, which stays in float range for any realistic n. The
harness scores candidate programs with the same pass-all semantics the
pipeline uses for refined code.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .errors import SemiforgeError
from .executor import ResourceLimits, SandboxSetupFailure, map_workers, sandbox
from .validation import TestCase, validate_refined_code


def pass_at_k(n: int, c: int, k: int) -> float:
    """Probability that at least one of k draws (from n, c correct) passes."""
    if n < 1 or k < 1 or k > n or c < 0 or c > n:
        raise SemiforgeError(f"need 1 <= k <= n and 0 <= c <= n, got n={n} c={c} k={k}")
    if n - c < k:
        return 1.0
    if k == 1:
        return c / n
    return 1.0 - math.prod(1.0 - k / i for i in range(n - c + 1, n + 1))


class EvalProblem(NamedTuple):
    problem_id: str
    test_cases: tuple[TestCase, ...]
    candidates: tuple[str, ...]


class ProblemEval(NamedTuple):
    problem_id: str
    n: int
    c: int


class PassAtKReport(NamedTuple):
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
    limits: ResourceLimits = ResourceLimits(),
    ks: Sequence[int] = (1,),
    interpreter: str | None = None,
    workers: int = 1,
) -> PassAtKReport:
    """Score candidates per problem and average pass@k across problems.

    A sandbox server lost mid-evaluation raises SandboxSetupFailure
    naming the problem and the candidate (counted from 0 in the
    problem's order) whose run found it gone.
    """
    if not ks:
        raise SemiforgeError("ks must be nonempty")
    if not problems:
        raise SemiforgeError("no problems to evaluate")
    ks = sorted(set(int(k) for k in ks))
    if ks[0] < 1:
        raise SemiforgeError(f"every k must be >= 1, got {ks[0]}")
    if workers < 1:
        raise SemiforgeError(f"workers must be >= 1, got {workers}")
    k_max = ks[-1]
    for entry in problems:
        if not entry.test_cases:
            raise SemiforgeError(f"{entry.problem_id} has no test cases")
        if len(entry.candidates) < k_max:
            raise SemiforgeError(
                f"{entry.problem_id} has {len(entry.candidates)} candidates, need >= {k_max}"
            )

    jobs = [
        (i, j, candidate)
        for i, entry in enumerate(problems)
        for j, candidate in enumerate(entry.candidates)
    ]

    def passes(job) -> bool:
        i, j, candidate = job
        try:
            return validate_refined_code(candidate, problems[i].test_cases, server) is None
        except SandboxSetupFailure as exc:  # the server is gone: say whose run found it so
            raise SandboxSetupFailure(f"{problems[i].problem_id} candidate {j}: {exc}") from exc

    with sandbox(interpreter, limits) as server:
        outcomes = map_workers(workers, passes, jobs)

    correct = [0] * len(problems)
    for (i, _, _), passed in zip(jobs, outcomes):
        if passed:
            correct[i] += 1

    evals = tuple(
        ProblemEval(problem_id=entry.problem_id, n=len(entry.candidates), c=correct[i])
        for i, entry in enumerate(problems)
    )
    estimates = {k: math.fsum(pass_at_k(p.n, p.c, k) for p in evals) / len(evals) for k in ks}
    return PassAtKReport(estimates=estimates, problems=evals)
