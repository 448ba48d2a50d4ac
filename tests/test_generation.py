import json

import pytest
from hypothesis import given, settings, strategies as st

from semiforge.errors import SemiforgeError
from semiforge.generation import (
    AnswerType,
    Completion,
    CompletionRequest,
    EmptyCode,
    GenerationBundle,
    LiveClient,
    ParseError,
    PromptTemplate,
    ReplayClient,
    build_generation_prompt,
    parse_components,
    prompt_digest,
)
from tests.conftest import GOLDEN


def make_completion(
    instruction="Sum the numbers.",
    refined="print(sum(map(int, input().split())))",
    answer="standard input",
    inputs=("1 2", "3 4"),
):
    blocks = "\n".join(f"#### Input\n{inp}\n" for inp in inputs)
    return (
        f"### Instruction\n{instruction}\n\n"
        f"### Refined Code\n```python\n{refined}\n```\n\n"
        f"### Answer Type\n{answer}\n\n"
        f"### Test Case Inputs\n{blocks}"
    )


def test_prompt_snapshot_stable():
    prompt = build_generation_prompt("print(1)", PromptTemplate.default())
    assert prompt == (GOLDEN / "prompt_snapshot.txt").read_text(encoding="utf-8")


def test_prompt_substitutions():
    template = PromptTemplate.default(input_count=6)
    prompt = build_generation_prompt("print('task')", template)
    assert "{{" not in prompt
    assert "print('task')" in prompt
    assert "6" in prompt
    assert "\n\n\n" not in prompt


def test_prompt_rejects_empty_code():
    with pytest.raises(EmptyCode):
        build_generation_prompt("   \n", PromptTemplate.default())


def test_template_validation():
    with pytest.raises(ValueError):
        PromptTemplate(preamble="no code slot here", input_count=4)
    with pytest.raises(ValueError):
        PromptTemplate(preamble="{{original_code}}", input_count=0)
    with pytest.raises(ValueError):
        PromptTemplate(preamble="{{original_code}} and {{original_code}}", input_count=4)


def test_template_from_file(tmp_path):
    path = tmp_path / "tpl.txt"
    path.write_text("Rewrite:\n\n{{original_code}}\n", encoding="utf-8")
    template = PromptTemplate.from_file(path, input_count=3)
    prompt = build_generation_prompt("x = 1", template)
    assert prompt.startswith("Rewrite:")
    assert "x = 1" in prompt


def test_prompt_digest_is_sha256():
    digest = prompt_digest("abc")
    assert len(digest) == 64
    assert digest == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_parse_round_trip():
    text = make_completion()
    bundle = parse_components(text)
    assert bundle.instruction == "Sum the numbers."
    assert bundle.refined_code == "print(sum(map(int, input().split())))"
    assert bundle.answer_type == AnswerType.standard_input()
    assert bundle.raw_inputs == ("1 2", "3 4")


def test_parse_call_based_function_name():
    text = make_completion(answer="call-based\nFunction Name: solve")
    bundle = parse_components(text)
    assert bundle.answer_type == AnswerType.call_based("solve")


@pytest.mark.parametrize(
    "answer,expected_kind",
    [
        ("standard input", "standard_input"),
        ("Standard Input", "standard_input"),
        ("standard-input", "standard_input"),
        ("stdin", "standard_input"),
        ("`stdin`", "standard_input"),
        ("Call-Based\nFunction Name: f", "call_based"),
        ("call based\nfunction name: f", "call_based"),
        ("callbased\nFunction Name: f", "call_based"),
    ],
)
def test_answer_type_spellings(answer, expected_kind):
    bundle = parse_components(make_completion(answer=answer))
    assert bundle.answer_type.kind == expected_kind


def test_headers_tolerate_case_and_colon():
    text = make_completion().replace("### Instruction", "### instruction:")
    assert parse_components(text).instruction == "Sum the numbers."


def test_missing_section_named():
    text = make_completion().replace("### Refined Code", "### Something Else")
    with pytest.raises(ParseError, match="completion is missing the 'Refined Code' section") as excinfo:
        parse_components(text)
    assert excinfo.value.reason == "missing_section:Refined Code"


def test_unknown_answer_type():
    with pytest.raises(ParseError, match="unrecognized answer type: 'interactive protocol'"):
        parse_components(make_completion(answer="interactive protocol"))


def test_call_based_requires_identifier():
    no_name = "call-based answer without a usable Function Name line"
    with pytest.raises(ParseError, match=no_name):
        parse_components(make_completion(answer="call-based"))
    with pytest.raises(ParseError, match=no_name):
        parse_components(make_completion(answer="call-based\nFunction Name: not valid!"))
    for keyword_name in ("None", "class"):
        with pytest.raises(ParseError, match=no_name):
            parse_components(make_completion(answer=f"call-based\nFunction Name: {keyword_name}"))


def test_no_inputs():
    text = (
        "### Instruction\nDo it.\n\n### Refined Code\n```python\nx = 1\n```\n\n"
        "### Answer Type\nstdin\n\n### Test Case Inputs\nnothing here\n"
    )
    with pytest.raises(ParseError, match="completion contains no test case input blocks"):
        parse_components(text)


def test_unfenced_code_kept_verbatim():
    text = make_completion().replace("```python\n", "").replace("\n```", "")
    bundle = parse_components(text)
    assert bundle.refined_code == "print(sum(map(int, input().split())))"


def test_empty_input_block_preserved():
    bundle = parse_components(make_completion(inputs=("1 2", "", "7")))
    assert bundle.raw_inputs == ("1 2", "", "7")


def test_multi_line_input_block():
    bundle = parse_components(make_completion(inputs=("3\n1\n2\n3",)))
    assert bundle.raw_inputs == ("3\n1\n2\n3",)


def test_first_duplicate_section_wins():
    text = make_completion() + "\n### Instruction\nA different instruction.\n"
    assert parse_components(text).instruction == "Sum the numbers."


@given(st.text(max_size=400))
@settings(max_examples=150)
def test_parser_total_on_arbitrary_text(text):
    try:
        bundle = parse_components(text)
    except ParseError:
        return
    assert isinstance(bundle, GenerationBundle)


section_soup = st.lists(
    st.sampled_from(
        [
            "### Instruction\nDo something.\n",
            "### Refined Code\n```python\nx = 1\n```\n",
            "### Answer Type\nstdin\n",
            "### Answer Type\nnonsense\n",
            "### Test Case Inputs\n#### Input\n1\n",
            "### Test Case Inputs\nno blocks\n",
            "random prose\n",
        ]
    ),
    max_size=6,
)


@given(section_soup)
@settings(max_examples=150)
def test_parser_total_on_section_soup(parts):
    try:
        bundle = parse_components("\n".join(parts))
    except ParseError:
        return
    assert isinstance(bundle, GenerationBundle)


def test_answer_type_validation():
    with pytest.raises(ValueError):
        AnswerType(kind="mystery")
    with pytest.raises(ValueError):
        AnswerType(kind="call_based", function_name=None)
    for name in (5, "None", "1bad"):
        with pytest.raises(ValueError, match="call-based answers need a function name"):
            AnswerType(kind="call_based", function_name=name)


def test_completion_request_validation():
    with pytest.raises(ValueError):
        CompletionRequest(prompt="", temperature=0.7)
    with pytest.raises(ValueError):
        CompletionRequest(prompt="p", temperature=-1.0)
    with pytest.raises(ValueError):
        CompletionRequest(prompt="p", max_tokens=0)
    request = CompletionRequest(prompt="p")
    assert request.temperature == 0.7
    assert request.top_p == 0.95


def test_replay_client_round_trip(tmp_path):
    request = CompletionRequest(prompt="hello prompt")
    (tmp_path / f"{prompt_digest(request.prompt)}.txt").write_text("canned", encoding="utf-8")
    completion = ReplayClient(tmp_path).complete(request)
    assert completion.text == "canned"
    assert completion.finish_reason == "replay"


def test_replay_miss_names_digest(tmp_path):
    request = CompletionRequest(prompt="absent prompt")
    with pytest.raises(SemiforgeError, match="no recorded completion for prompt") as excinfo:
        ReplayClient(tmp_path).complete(request)
    assert prompt_digest(request.prompt)[:16] in str(excinfo.value)


class StubClient:
    def __init__(self, text):
        self.text = text

    def complete(self, request):
        return Completion(text=self.text)


def test_replay_client_records_live_completion(tmp_path):
    request = CompletionRequest(prompt="record me")
    client = ReplayClient(tmp_path / "store", live=StubClient("stored text"))
    completion = client.complete(request)
    assert completion.text == "stored text"
    replay = ReplayClient(tmp_path / "store").complete(request)
    assert replay.text == "stored text"


def test_replay_client_failed_write_leaves_no_fixture(tmp_path):
    store = tmp_path / "store"
    client = ReplayClient(store, live=StubClient("lone surrogate \ud800"))
    with pytest.raises(SemiforgeError, match="could not write"):
        client.complete(CompletionRequest(prompt="record me"))
    assert list(store.iterdir()) == []


class FakeResponse:
    def __init__(self, status_code, body=None, headers=None):
        self.status_code = status_code
        self._body = body
        self.headers = headers or {}

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


def ok_body(text="generated"):
    return {"choices": [{"message": {"content": text}, "finish_reason": "stop"}], "usage": {"total_tokens": 5}}


@pytest.fixture()
def no_sleep(monkeypatch):
    naps = []
    monkeypatch.setattr("semiforge.generation.time.sleep", lambda s: naps.append(s))
    return naps


@pytest.fixture()
def api_key(monkeypatch):
    monkeypatch.setenv("SEMIFORGE_API_KEY", "test-key")


def patch_post(monkeypatch, outcomes):
    calls = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append({"url": url, "json": json, "headers": headers})
        outcome = outcomes[min(len(calls) - 1, len(outcomes) - 1)]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr("requests.post", fake_post)
    return calls


def test_live_client_requires_credentials(monkeypatch):
    monkeypatch.delenv("SEMIFORGE_API_KEY", raising=False)
    client = LiveClient("https://example.invalid/v1")
    with pytest.raises(SemiforgeError, match="set SEMIFORGE_API_KEY"):
        client.complete(CompletionRequest(prompt="p"))


def test_live_client_success(monkeypatch, api_key, no_sleep):
    calls = patch_post(monkeypatch, [FakeResponse(200, ok_body("answer text"))])
    client = LiveClient("https://example.invalid/v1")
    completion = client.complete(CompletionRequest(prompt="the prompt", model_id="m1"))
    assert completion.text == "answer text"
    assert completion.usage == {"total_tokens": 5}
    assert len(calls) == 1
    assert calls[0]["json"]["model"] == "m1"
    assert calls[0]["json"]["messages"][0]["content"] == "the prompt"
    assert calls[0]["headers"]["Authorization"] == "Bearer test-key"


def test_live_client_retries_with_backoff(monkeypatch, api_key, no_sleep):
    import requests

    calls = patch_post(
        monkeypatch,
        [
            requests.ConnectionError("down"),
            FakeResponse(503),
            FakeResponse(200, ok_body()),
        ],
    )
    client = LiveClient("https://example.invalid/v1")
    completion = client.complete(CompletionRequest(prompt="p"))
    assert completion.text == "generated"
    assert len(calls) == 3
    assert no_sleep == [0.5, 1.0]  # doubling per attempt


@pytest.mark.parametrize("retry_after, wait", [("3.5", 3.5), ("inf", 0.5)])  # a non-finite value is ignored
def test_live_client_honors_retry_after(monkeypatch, api_key, no_sleep, retry_after, wait):
    patch_post(
        monkeypatch,
        [FakeResponse(429, headers={"Retry-After": retry_after}), FakeResponse(200, ok_body())],
    )
    client = LiveClient("https://example.invalid/v1")
    client.complete(CompletionRequest(prompt="p"))
    assert no_sleep == [wait]


def test_live_client_gives_up_after_max_attempts(monkeypatch, api_key, no_sleep):
    patch_post(monkeypatch, [FakeResponse(500)])
    client = LiveClient("https://example.invalid/v1")
    with pytest.raises(SemiforgeError, match="giving up after") as excinfo:
        client.complete(CompletionRequest(prompt="p"))
    assert "4 attempts" in str(excinfo.value)
    assert no_sleep == [0.5, 1.0, 2.0]  # no sleep after the final attempt


def test_live_client_client_error_fails_fast(monkeypatch, api_key, no_sleep):
    calls = patch_post(monkeypatch, [FakeResponse(400)])
    client = LiveClient("https://example.invalid/v1")
    with pytest.raises(SemiforgeError, match="endpoint returned HTTP 400"):
        client.complete(CompletionRequest(prompt="p"))
    assert len(calls) == 1
    assert no_sleep == []


def test_live_client_bad_url_fails_fast(monkeypatch, api_key, no_sleep):
    import requests

    calls = patch_post(monkeypatch, [requests.exceptions.MissingSchema("No scheme supplied")])
    client = LiveClient("example.invalid/v1")
    with pytest.raises(SemiforgeError, match="bad request to 'example.invalid/v1': No scheme supplied"):
        client.complete(CompletionRequest(prompt="p"))
    assert len(calls) == 1
    assert no_sleep == []


def test_live_client_malformed_body(monkeypatch, api_key, no_sleep):
    # Endpoints send a null content for a refusal.
    for body, problem in (
        ({"unexpected": True}, "choices must be a non-empty array"),
        ({"choices": [{"message": {"content": None}}]}, "content must be a string, got None"),
    ):
        patch_post(monkeypatch, [FakeResponse(200, body)])
        client = LiveClient("https://example.invalid/v1")
        with pytest.raises(SemiforgeError, match=f"malformed completion response: {problem}"):
            client.complete(CompletionRequest(prompt="p"))


def test_live_client_invalid_json_body(monkeypatch, api_key, no_sleep):
    patch_post(monkeypatch, [FakeResponse(200, ValueError("not json"))])
    client = LiveClient("https://example.invalid/v1")
    with pytest.raises(SemiforgeError, match="malformed completion response: not json"):
        client.complete(CompletionRequest(prompt="p"))
