"""Test-case construction, pass-all validation, and ROUGE-L dedup.

Expected outputs are never generated: they come from executing the
original corpus code on the generated inputs. Inputs whose execution
fails are dropped; a sample whose inputs all fail gets no test cases,
and the pipeline drops it. Refined code is retained only when it passes
every surviving case. Both run every snippet on the fork server they
are given, within its wall limit (see ``executor.sandbox``). A stored
case (``TestCase.to_dict``) is checked by its reader against
``CASE_FIELDS`` and the Invocation it runs as.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .executor import Invocation, _Server, execute, normalize_output, outputs_match
from .lcs import lcs_length

DEFAULT_DEDUP_THRESHOLD = 0.7


# The kinds of a stored test case's keys (see TestCase.to_dict, dataset.check_fields); function_name may be absent.
CASE_FIELDS = {"mode": str, "payload": str, "function_name": str | None, "expected_output": str}
CASE_REQUIRED = ("mode", "payload", "expected_output")


class TestCase(NamedTuple):
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
    original_code: str, invocations: Sequence[Invocation], server: _Server
) -> tuple[list[TestCase], Counter]:
    """Execute the original code on every invocation, each run forked from ``server``; keep the Ok pairs.

    Returns the cases, none if every input failed, and a count of the
    dropped inputs by exit status. An ok run whose stdout is not UTF-8
    gives no text to expect, and counts as a ``runtime_error``.
    """
    cases: list[TestCase] = []
    drops: Counter = Counter()
    for invocation in invocations:
        result = execute(original_code, invocation, server)
        status = "runtime_error" if result.ok and not _is_utf8(result.stdout) else result.status
        if status == "ok":
            cases.append(TestCase(invocation=invocation, expected_output=normalize_output(result.stdout)))
        else:
            drops[status] += 1
    return cases, drops


def _is_utf8(stdout: str) -> bool:
    """False if ``stdout`` holds a byte that was not UTF-8, which ``execute`` decodes to a lone surrogate."""
    if stdout.isascii():
        return True
    try:
        stdout.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def validate_refined_code(refined_code: str, test_cases: Sequence[TestCase], server: _Server) -> tuple[int, str] | None:
    """Run the code on each case in turn, forked from ``server``; None if every run is ok and matches.

    Otherwise return the index of the first failing case and why it
    failed: "wrong_output" (stdout that is not UTF-8 included, as no
    expected output holds such bytes), "timeout", or "runtime_error" (an
    output overflow included).
    """
    if not test_cases:
        raise ValueError("validation needs at least one test case")
    for index, case in enumerate(test_cases):
        result = execute(refined_code, case.invocation, server)
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
    key=itemgetter("instruction"),
) -> list:
    """Streaming greedy dedup on instruction similarity.

    A sample is kept iff its maximal ROUGE-L against the previously
    retained instructions stays at or below the threshold; the kept
    samples are returned in input order. ``key`` extracts the
    instruction text from a sample (by default its "instruction" item).
    """
    # A NaN threshold would make every pair look distinct and keep exact duplicates.
    if not math.isfinite(threshold):
        raise ValueError(f"dedup_threshold must be finite, got {threshold!r}")
    if not 0 <= threshold <= 1:
        raise ValueError(f"dedup_threshold must be in [0, 1], got {threshold!r}")
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
