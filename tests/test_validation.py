from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from semiforge.executor import Invocation, ResourceLimits, sandbox
from semiforge.validation import (
    TestCase as Case,
    construct_test_cases,
    dedup_instructions,
    rouge_l,
    tokenize,
    validate_refined_code,
)
from tests.conftest import rouge_oracle


def stdin_invocations(inputs):
    return [Invocation.stdin(raw) for raw in inputs]


@pytest.fixture(scope="module")
def server():
    with sandbox() as server:
        yield server


# ------------------------------------------------------------ construction

def test_construct_executes_original(server):
    cases, _ = construct_test_cases("print(int(input()) * 2)", stdin_invocations(["2", "5", "0"]), server)
    assert [c.expected_output for c in cases] == ["4", "10", "0"]
    assert all(c.invocation.mode == "stdin" for c in cases)


def test_construct_drops_crashing_inputs(server):
    cases, drops = construct_test_cases("print(int(input()) * 2)", stdin_invocations(["2", "oops", "5"]), server)
    assert [c.expected_output for c in cases] == ["4", "10"]
    assert drops == {"runtime_error": 1}


def test_construct_call_based_uses_repr(server):
    code = "def join_up(items):\n    return '-'.join(items)"
    cases, _ = construct_test_cases(code, [Invocation.call("join_up", "(['a', 'b'],)")], server)
    assert cases[0].expected_output == "'a-b'"
    assert cases[0].invocation.function_name == "join_up"


def test_construct_all_crash_returns_no_cases(server):
    cases, drops = construct_test_cases("print(10 // int(input()))", stdin_invocations(["0", "x"]), server)
    assert (cases, drops) == ([], {"runtime_error": 2})


def test_construct_drops_an_input_whose_output_is_not_utf8(server):
    code = "import sys\nn = input()\nsys.stdout.buffer.write(b'\\xff\\n' if n == '1' else n.encode() + b'\\n')"
    cases, drops = construct_test_cases(code, stdin_invocations(["1", "2"]), server)
    assert [c.expected_output for c in cases] == ["2"]
    assert drops == {"runtime_error": 1}


# -------------------------------------------------------------- validation

DOUBLE_CASES = [
    Case(Invocation.stdin("2"), "4"),
    Case(Invocation.stdin("5"), "10"),
    Case(Invocation.stdin("-3"), "-6"),
]


def test_validate_passes_equivalent_code(server):
    assert validate_refined_code("n = int(input())\nprint(n + n)", DOUBLE_CASES, server) is None


def test_validate_wrong_output_reports_index(server):
    cases = [Case(Invocation.stdin("0"), "0"), Case(Invocation.stdin("2"), "4")]
    assert validate_refined_code("print(int(input()) * 3)", cases, server) == (1, "wrong_output")


def test_validate_output_that_is_not_utf8_is_wrong_output(server):
    # U+FFFD is the text a decode that replaced the byte would have read.
    cases = [Case(Invocation.stdin(""), "\ufffd")]
    code = "import sys\nsys.stdout.buffer.write(b'\\xff\\n')"
    assert validate_refined_code(code, cases, server) == (0, "wrong_output")


def test_validate_runtime_error(server):
    assert validate_refined_code("raise RuntimeError('no')", DOUBLE_CASES, server) == (0, "runtime_error")


def test_validate_timeout():
    with sandbox(limits=ResourceLimits(wall_timeout=1.0)) as server:
        failure = validate_refined_code("while True:\n    pass", DOUBLE_CASES[:1], server)
    assert failure == (0, "timeout")


def test_validate_output_overflow_is_a_runtime_error(server):
    cases = [Case(Invocation.stdin("1"), "1"), Case(Invocation.stdin("2"), "2")]
    refined = 'n = input()\nprint(n if n == "1" else "x" * 2_000_000)'
    assert validate_refined_code(refined, cases, server) == (1, "runtime_error")


def test_validate_requires_cases(server):
    with pytest.raises(ValueError):
        validate_refined_code("print(1)", [], server)


# ------------------------------------------------------------------ ROUGE

def test_rouge_frozen_values():
    assert rouge_l(tokenize("the cat sat"), tokenize("the cat sat")) == 1.0
    assert rouge_l(tokenize(""), tokenize("anything")) == 0.0
    assert rouge_l(tokenize("alpha beta"), tokenize("")) == 0.0
    assert rouge_l(tokenize("aaa bbb"), tokenize("ccc ddd")) == 0.0
    # LCS=3 over 4/4 tokens: P=R=3/4, F1=0.75
    assert rouge_l(tokenize("a b c d"), tokenize("a b x d")) == pytest.approx(0.75)
    # Case-insensitive tokenization
    assert rouge_l(tokenize("The CAT"), tokenize("the cat")) == 1.0


def test_rouge_token_and_text_agree():
    assert rouge_l(tokenize("Some Words Here"), tokenize("some words there")) == rouge_l(
        ["some", "words", "here"], ["some", "words", "there"]
    )


token_texts = st.lists(
    st.sampled_from(["red", "green", "blue", "cyan", "lime", "teal"]), max_size=12
).map(" ".join)


@given(token_texts, token_texts)
@settings(max_examples=150)
def test_rouge_matches_oracle(a, b):
    assert rouge_l(tokenize(a), tokenize(b)) == rouge_oracle(a, b)


@given(token_texts, token_texts)
@settings(max_examples=80)
def test_rouge_symmetric_and_bounded(a, b):
    score = rouge_l(tokenize(a), tokenize(b))
    assert score == rouge_l(tokenize(b), tokenize(a))
    assert 0.0 <= score <= 1.0


@given(token_texts)
@settings(max_examples=40)
def test_rouge_identity(a):
    assert rouge_l(tokenize(a), tokenize(a)) == (1.0 if a.split() else 0.0)


# ------------------------------------------------------------------ dedup

class Sample:
    def __init__(self, instruction):
        self.instruction = instruction

    def __repr__(self):
        return f"Sample({self.instruction!r})"


def test_dedup_first_occurrence_wins():
    samples = [
        Sample("alpha beta gamma delta"),
        Sample("alpha beta gamma delta epsilon"),  # F1 vs first = 8/9 > 0.7
        Sample("totally different words here"),
    ]
    retained = dedup_instructions(samples, threshold=0.7, key=attrgetter("instruction"))
    assert retained == [samples[0], samples[2]]


def test_dedup_threshold_is_strict():
    a = "a b c d"
    b = "a b x d"  # scores exactly 0.75 against a
    assert rouge_oracle(a, b) == pytest.approx(0.75)
    keeps = dedup_instructions([Sample(a), Sample(b)], threshold=0.75, key=attrgetter("instruction"))
    assert len(keeps) == 2  # equal to the threshold is not above it -> retained
    drops = dedup_instructions([Sample(a), Sample(b)], threshold=0.74, key=attrgetter("instruction"))
    assert len(drops) == 1


def test_dedup_returns_retained_list():
    samples = [Sample("one two three four"), Sample("one two three four five"), Sample("zz yy")]
    retained = dedup_instructions(iter(samples), threshold=0.7, key=attrgetter("instruction"))
    assert isinstance(retained, list)
    assert retained == [samples[0], samples[2]]


def test_dedup_compares_against_retained_only():
    a = Sample("w1 w2 w3 w4")
    b = Sample("w1 w2 w3 w4 w5")           # dup of a (F1 = 8/9)
    c = Sample("w1 w2 w3 w4 w5 x1 x2 x3")  # vs a: 8/12 <= 0.7; vs the dropped b: 10/13 > 0.7
    assert rouge_oracle(c.instruction, a.instruction) == pytest.approx(2 * 4 / 12)
    assert rouge_oracle(c.instruction, b.instruction) == pytest.approx(2 * 5 / 13)
    assert dedup_instructions([a, b, c], threshold=0.7, key=attrgetter("instruction")) == [a, c]


def test_dedup_custom_key():
    rows = [{"text": "p q r s"}, {"text": "p q r s t"}]
    retained = dedup_instructions(rows, threshold=0.7, key=lambda r: r["text"])
    assert retained == [rows[0]]


def test_dedup_empty_stream():
    assert dedup_instructions([]) == []


@given(st.lists(token_texts, max_size=15))
@settings(max_examples=50)
def test_dedup_keeps_subsequence_of_input(texts):
    samples = [Sample(t) for t in texts]
    retained = dedup_instructions(samples, key=attrgetter("instruction"))
    it = iter(samples)
    assert all(any(r is s for s in it) for r in retained)  # order-preserving subsequence


@given(st.lists(token_texts, max_size=12))
@settings(max_examples=50)
def test_dedup_retained_pairs_below_threshold(texts):
    retained = dedup_instructions([Sample(t) for t in texts], threshold=0.7, key=attrgetter("instruction"))
    for i, a in enumerate(retained):
        for b in retained[:i]:
            assert rouge_oracle(a.instruction, b.instruction) <= 0.7
