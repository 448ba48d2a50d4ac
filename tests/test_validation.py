import pytest
from hypothesis import given, settings, strategies as st

from semiforge import executor
from semiforge.executor import Invocation, ResourceLimits
from semiforge.generation import AnswerType, GenerationBundle
from semiforge.validation import (
    EmptyTestCases,
    FailReason,
    TestCase as Case,
    Verdict,
    construct_test_cases,
    dedup_instructions,
    invocation_for,
    rouge_l,
    tokenize,
    validate_refined_code,
)
from tests.conftest import rouge_oracle

FAST = ResourceLimits(wall_timeout=5.0)


def bundle_for(code, inputs, answer=None):
    return GenerationBundle(
        instruction="double the number",
        refined_code=code,
        answer_type=answer or AnswerType.standard_input(),
        raw_inputs=tuple(inputs),
    )


# ------------------------------------------------------------ construction

@pytest.mark.parametrize("phase", ["construct", "validate"])
def test_one_call_starts_one_sandbox_server(monkeypatch, phase):
    starts = []

    class CountingServer(executor._Server):
        def __init__(self, python):
            starts.append(python)
            super().__init__(python)

    monkeypatch.setattr(executor, "_Server", CountingServer)
    inputs = ["1", "2", "3", "4"]
    if phase == "construct":
        cases, _ = construct_test_cases("print(input())", AnswerType.standard_input(), inputs, FAST)
        assert len(cases) == 4
    else:
        cases = [Case(Invocation.stdin(raw), raw) for raw in inputs]
        assert validate_refined_code("print(input())", cases, FAST).passed
    assert len(starts) == 1


def test_construct_executes_original():
    bundle = bundle_for("print(int(input()) * 2)", ["2", "5", "0"])
    cases, _ = construct_test_cases(
        "print(int(input()) * 2)", bundle.answer_type, bundle.raw_inputs, FAST
    )
    assert [c.expected_output for c in cases] == ["4", "10", "0"]
    assert all(c.invocation.mode == "stdin" for c in cases)


def test_construct_drops_crashing_inputs():
    bundle = bundle_for("print(int(input()) * 2)", ["2", "oops", "5"])
    cases, drops = construct_test_cases(
        "print(int(input()) * 2)", bundle.answer_type, bundle.raw_inputs, FAST
    )
    assert [c.expected_output for c in cases] == ["4", "10"]
    assert drops == {"runtime_error": 1}


def test_construct_call_based_uses_repr():
    answer = AnswerType.call_based("join_up")
    code = "def join_up(items):\n    return '-'.join(items)"
    bundle = bundle_for(code, ["(['a', 'b'],)"], answer)
    cases, _ = construct_test_cases(code, bundle.answer_type, bundle.raw_inputs, FAST)
    assert cases[0].expected_output == "'a-b'"
    assert cases[0].invocation.function_name == "join_up"


def test_construct_all_crash_raises_empty():
    bundle = bundle_for("print(10 // int(input()))", ["0", "x"])
    with pytest.raises(EmptyTestCases) as excinfo:
        construct_test_cases("print(10 // int(input()))", bundle.answer_type, bundle.raw_inputs, FAST)
    assert excinfo.value.drops == {"runtime_error": 2}


def test_invocation_for_both_kinds():
    stdin_inv = invocation_for(AnswerType.standard_input(), "1 2")
    assert stdin_inv.mode == "stdin" and stdin_inv.payload == "1 2"
    call_inv = invocation_for(AnswerType.call_based("f"), "(1,)")
    assert call_inv.mode == "call" and call_inv.function_name == "f"


# -------------------------------------------------------------- validation

DOUBLE_CASES = [
    Case(Invocation.stdin("2"), "4"),
    Case(Invocation.stdin("5"), "10"),
    Case(Invocation.stdin("-3"), "-6"),
]


def test_validate_passes_equivalent_code():
    verdict = validate_refined_code("n = int(input())\nprint(n + n)", DOUBLE_CASES, FAST)
    assert verdict == Verdict.pass_()
    assert verdict.passed


def test_validate_wrong_output_reports_index():
    cases = [Case(Invocation.stdin("0"), "0"), Case(Invocation.stdin("2"), "4")]
    verdict = validate_refined_code("print(int(input()) * 3)", cases, FAST)
    assert verdict == Verdict.fail(1, FailReason.WRONG_OUTPUT)


def test_validate_runtime_error():
    verdict = validate_refined_code("raise RuntimeError('no')", DOUBLE_CASES, FAST)
    assert not verdict.passed
    assert verdict.case_index == 0
    assert verdict.reason is FailReason.RUNTIME_ERROR


def test_validate_timeout():
    verdict = validate_refined_code(
        "while True:\n    pass", DOUBLE_CASES[:1], ResourceLimits(wall_timeout=1.0)
    )
    assert verdict.reason is FailReason.TIMEOUT


def test_validate_requires_cases():
    with pytest.raises(ValueError):
        validate_refined_code("print(1)", [], FAST)


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
    retained = dedup_instructions(samples, threshold=0.7)
    assert retained == [samples[0], samples[2]]


def test_dedup_threshold_is_strict():
    a = "a b c d"
    b = "a b x d"  # scores exactly 0.75 against a
    assert rouge_oracle(a, b) == pytest.approx(0.75)
    keeps = dedup_instructions([Sample(a), Sample(b)], threshold=0.75)
    assert len(keeps) == 2  # equal to the threshold is not above it -> retained
    drops = dedup_instructions([Sample(a), Sample(b)], threshold=0.74)
    assert len(drops) == 1


def test_dedup_returns_retained_list():
    samples = [Sample("one two three four"), Sample("one two three four five"), Sample("zz yy")]
    retained = dedup_instructions(iter(samples), threshold=0.7)
    assert isinstance(retained, list)
    assert retained == [samples[0], samples[2]]


def test_dedup_compares_against_retained_only():
    a = Sample("w1 w2 w3 w4")
    b = Sample("w1 w2 w3 w4 w5")           # dup of a (F1 = 8/9)
    c = Sample("w1 w2 w3 w4 w5 x1 x2 x3")  # vs a: 8/12 <= 0.7; vs the dropped b: 10/13 > 0.7
    assert rouge_oracle(c.instruction, a.instruction) == pytest.approx(2 * 4 / 12)
    assert rouge_oracle(c.instruction, b.instruction) == pytest.approx(2 * 5 / 13)
    assert dedup_instructions([a, b, c], threshold=0.7) == [a, c]


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
    retained = dedup_instructions(samples)
    it = iter(samples)
    assert all(any(r is s for s in it) for r in retained)  # order-preserving subsequence


@given(st.lists(token_texts, max_size=12))
@settings(max_examples=50)
def test_dedup_retained_pairs_below_threshold(texts):
    retained = dedup_instructions([Sample(t) for t in texts], threshold=0.7)
    for i, a in enumerate(retained):
        for b in retained[:i]:
            assert rouge_oracle(a.instruction, b.instruction) <= 0.7
