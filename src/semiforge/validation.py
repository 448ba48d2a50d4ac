"""Test-case construction, pass-all validation, and ROUGE-L dedup.

Expected outputs are never generated: they come from executing the
original corpus code on the generated inputs. Inputs whose execution
fails are dropped; a sample whose inputs all fail is discarded
outright. Refined code is retained only when it passes every surviving
case. A stored case (``TestCase.to_dict``) is checked by its reader
against ``CASE_FIELDS`` and the Invocation it runs as.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import SemiforgeError
from .executor import (
    Invocation,
    ResourceLimits,
    _Server,
    execute,
    normalize_output,
    outputs_match,
    using,
)
from .lcs import lcs_length

DEFAULT_DEDUP_THRESHOLD = 0.7


class EmptyTestCases(SemiforgeError):
    def __init__(self, message: str, drops: dict | None = None):
        super().__init__(message)
        self.drops = dict(drops or {})


# The kinds of a stored test case's keys (see TestCase.to_dict, dataset.check_fields); function_name may be absent.
CASE_FIELDS = {"mode": str, "payload": str, "function_name": str | None, "expected_output": str}
CASE_REQUIRED = ("mode", "payload", "expected_output")


@dataclass(frozen=True)
class TestCase:
    invocation: Invocation
    expected_output: str

    def to_dict(self) -> dict:
        return {
            "mode": self.invocation.mode,
            "payload": self.invocation.payload,
            "function_name": self.invocation.function_name,
            "expected_output": self.expected_output,
        }


def construct_test_cases(
    original_code: str,
    invocations: Sequence[Invocation],
    limits: ResourceLimits | None = None,
    server: _Server | None = None,
) -> tuple[list[TestCase], Counter]:
    """Execute the original code on every invocation; keep the Ok pairs.

    Every run forks from ``server``, or from one server started for this
    call. Returns the cases and a count of dropped inputs by exit status.
    """
    cases: list[TestCase] = []
    drops: Counter = Counter()
    with using(server) as server:
        for invocation in invocations:
            result = execute(original_code, invocation, limits, server)
            if result.ok:
                cases.append(TestCase(invocation=invocation, expected_output=normalize_output(result.stdout)))
            else:
                drops[result.status] += 1
    if not cases:
        raise EmptyTestCases(
            f"all {len(invocations)} inputs failed: {dict(drops)}", drops=dict(drops)
        )
    return cases, drops


def validate_refined_code(
    refined_code: str,
    test_cases: Sequence[TestCase],
    limits: ResourceLimits | None = None,
    server: _Server | None = None,
) -> tuple[int, str] | None:
    """Run the code on each case in turn; None if every run is ok and matches.

    Otherwise return the index of the first failing case and why it
    failed: "wrong_output", "timeout", or "runtime_error" (an output
    overflow included). Every run forks from ``server``, or from one
    server started for this call.
    """
    if not test_cases:
        raise ValueError("validation needs at least one test case")
    with using(server) as server:
        for index, case in enumerate(test_cases):
            result = execute(refined_code, case.invocation, limits, server)
            if not result.ok:
                return index, "timeout" if result.status == "timeout" else "runtime_error"
            if not outputs_match(result.stdout, case.expected_output):
                return index, "wrong_output"
    return None


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokens, the unit ROUGE-L operates on."""
    return text.lower().split()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """LCS-based F1 between two token lists; 0.0 when either is empty."""
    if not candidate or not reference:
        return 0.0
    lcs = lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return 2.0 * precision * recall / (precision + recall)


def _f1_upper_bound(len_a: int, len_b: int) -> float:
    # The F1 score cannot exceed the case where the shorter list is a
    # full subsequence of the longer.
    if len_a == 0 or len_b == 0:
        return 0.0
    return 2.0 * min(len_a, len_b) / (len_a + len_b)


def dedup_instructions(
    samples: Iterable,
    threshold: float = DEFAULT_DEDUP_THRESHOLD,
    key=None,
) -> list:
    """Streaming greedy dedup on sample.instruction similarity.

    A sample is kept iff its maximal ROUGE-L against the previously
    retained instructions stays at or below the threshold; the kept
    samples are returned in input order. ``key`` extracts the
    instruction text from a sample (defaults to ``.instruction``).
    """
    # A NaN threshold would make every pair look distinct and keep exact duplicates.
    if not math.isfinite(threshold):
        raise ValueError(f"dedup_threshold must be finite, got {threshold!r}")
    if not 0 <= threshold <= 1:
        raise ValueError(f"dedup_threshold must be in [0, 1], got {threshold!r}")
    if key is None:
        key = lambda sample: sample.instruction
    retained = []
    pool: list[list[str]] = []  # the tokens of each retained sample
    for sample in samples:
        tokens = tokenize(key(sample))
        for prior in pool:
            if _f1_upper_bound(len(tokens), len(prior)) > threshold and rouge_l(tokens, prior) > threshold:
                break
        else:
            retained.append(sample)
            pool.append(tokens)
    return retained
