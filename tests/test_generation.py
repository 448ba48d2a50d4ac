import json
import re
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from semiforge.errors import SemiforgeError
from semiforge.generation import (
    Completion,
    EmptyCode,
    ParseError,
    PromptTemplate,
    ReplayClient,
    build_generation_prompt,
    parse_components,
    prompt_digest,
)
from semiforge.live import LiveClient
from semiforge.pipeline import UNIT_FIELDS, _check_row
from tests.conftest import FIXTURES, GOLDEN


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
    assert parse_components(text) == {
        "instruction": "Sum the numbers.",
        "refined_code": "print(sum(map(int, input().split())))",
        "answer_type": {"kind": "standard_input", "function_name": None},
        "raw_inputs": ["1 2", "3 4"],
    }


def test_parse_call_based_function_name():
    text = make_completion(answer="call-based\nFunction Name: solve")
    assert parse_components(text)["answer_type"] == {"kind": "call_based", "function_name": "solve"}


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
    assert parse_components(make_completion(answer=answer))["answer_type"]["kind"] == expected_kind


def test_headers_tolerate_case_and_colon():
    text = make_completion().replace("### Instruction", "### instruction:")
    assert parse_components(text)["instruction"] == "Sum the numbers."


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
    assert parse_components(text)["refined_code"] == "print(sum(map(int, input().split())))"


def test_empty_input_block_preserved():
    assert parse_components(make_completion(inputs=("1 2", "", "7")))["raw_inputs"] == ["1 2", "", "7"]


def test_multi_line_input_block():
    assert parse_components(make_completion(inputs=("3\n1\n2\n3",)))["raw_inputs"] == ["3\n1\n2\n3"]


def test_first_duplicate_section_wins():
    text = make_completion() + "\n### Instruction\nA different instruction.\n"
    assert parse_components(text)["instruction"] == "Sum the numbers."


# Characters where str.splitlines() breaks a line and a completion's line goes on: it ends at "\n" only.
NOT_LINE_ENDS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=lambda char: f"U+{ord(char):04X}")
def test_code_and_inputs_are_verbatim_slices_of_the_completion(char):
    code = f'print("a{char}b")\nx = "p{char}q"'
    inputs = (f"foo{char}bar", f"1{char}2\n3")
    text = make_completion(refined=code, inputs=inputs)
    fields = parse_components(text)
    assert fields["refined_code"] == code
    assert fields["raw_inputs"] == list(inputs)
    assert all(part in text for part in [fields["refined_code"], *fields["raw_inputs"]])


def parsed(text):
    """The fields of a completion, or the drop reason of its ParseError."""
    try:
        return parse_components(text)
    except ParseError as exc:
        return exc.reason


COMPLETIONS = {
    "made": make_completion(inputs=("3\n1 2", "", "  x  ")),
    "call_based": make_completion(answer="call-based\nFunction Name: solve"),
    "unfenced": make_completion().replace("```python\n", "").replace("\n```", ""),
    "missing_section": make_completion().replace("### Answer Type", "### Other"),
    **{path.stem[:12]: path.read_bytes().decode("utf-8") for path in sorted(FIXTURES.glob("completions/*.txt"))},
}


@pytest.mark.parametrize("text", COMPLETIONS.values(), ids=COMPLETIONS)
def test_a_crlf_completion_parses_as_its_lf_copy(text):
    assert "\r" not in text
    assert parsed(text.replace("\n", "\r\n")) == parsed(text)


INGEST_ROW = {"unit_id": "p:0", "problem_id": "p", "solution_index": 0, "seq": 0, "code": "x = 1", "prompt_sha256": ""}


def generate_row(**fields):
    return {**INGEST_ROW, **fields, "status": "ok", "reason": None}


def assert_generate_fields(fields):
    """A parse is exactly the generate fields of a unit row, as a resumed run reads them back."""
    assert fields.keys() == UNIT_FIELDS["generate"].keys() - {"prompt_sha256"}
    _check_row("generate", generate_row(**fields), set())


@given(st.text(max_size=400))
@settings(max_examples=150)
def test_parser_total_on_arbitrary_text(text):
    try:
        fields = parse_components(text)
    except ParseError:
        return
    assert_generate_fields(fields)


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
        fields = parse_components("\n".join(parts))
    except ParseError:
        return
    assert_generate_fields(fields)


def test_answer_type_validation():
    """A stored answer type is checked as the Invocation it runs as."""
    fields = parse_components(make_completion())

    def check(**answer_type):
        _check_row("generate", generate_row(**{**fields, "answer_type": answer_type}), set())

    with pytest.raises(ValueError, match="kind must be one of 'call_based', 'standard_input', got 'mystery'"):
        check(kind="mystery", function_name=None)
    with pytest.raises(ValueError, match="call mode needs a valid function name, got None"):
        check(kind="call_based", function_name=None)
    with pytest.raises(ValueError, match="function_name must be a string or null, got 5"):
        check(kind="call_based", function_name=5)
    for name in ("None", "1bad"):
        with pytest.raises(ValueError, match=f"call mode needs a valid function name, got '{name}'"):
            check(kind="call_based", function_name=name)


def test_replay_client_round_trip(tmp_path):
    (tmp_path / f"{prompt_digest('hello prompt')}.txt").write_text("canned", encoding="utf-8")
    completion = ReplayClient(tmp_path).complete("hello prompt")
    assert completion.text == "canned"
    assert completion.finish_reason == "replay"


def test_replay_miss_names_digest(tmp_path):
    with pytest.raises(SemiforgeError, match="no recorded completion for prompt") as excinfo:
        ReplayClient(tmp_path).complete("absent prompt")
    assert prompt_digest("absent prompt")[:16] in str(excinfo.value)


class StubClient:
    def __init__(self, text):
        self.text = text

    def complete(self, prompt):
        return Completion(text=self.text)


def test_replay_client_records_live_completion(tmp_path):
    client = ReplayClient(tmp_path / "store", live=StubClient("stored text"))
    completion = client.complete("record me")
    assert completion.text == "stored text"
    replay = ReplayClient(tmp_path / "store").complete("record me")
    assert replay.text == "stored text"


def test_a_replayed_completion_parses_as_the_live_answer(tmp_path):
    text = make_completion(refined="print('a\rb')", inputs=("x\ry",))
    live = ReplayClient(tmp_path, live=StubClient(text)).complete("ask once")
    replay = ReplayClient(tmp_path).complete("ask once")
    assert replay.text == live.text == text
    assert parse_components(replay.text) == parse_components(live.text)
    assert parse_components(text)["refined_code"] == "print('a\rb')"


def test_replay_client_failed_write_leaves_no_fixture(tmp_path):
    store = tmp_path / "store"
    client = ReplayClient(store, live=StubClient("lone surrogate \ud800"))
    with pytest.raises(SemiforgeError, match="could not write"):
        client.complete("record me")
    assert list(store.iterdir()) == []


def ok_body(text="generated"):
    return {"choices": [{"message": {"content": text}, "finish_reason": "stop"}], "usage": {"total_tokens": 5}}


@pytest.fixture()
def no_sleep(monkeypatch):
    naps = []
    monkeypatch.setattr("semiforge.live.time.sleep", lambda s: naps.append(s))
    return naps


@pytest.fixture()
def api_key(monkeypatch):
    monkeypatch.setenv("SEMIFORGE_API_KEY", "test-key")


# A 200 whose Content-Length promises more bytes than the server sends before it closes.
CUT_SHORT = (200, {"Content-Length": "1000"}, b'{"choices": [')


def ask(server, prompt="p", model_id="m"):
    return LiveClient(server.url, model_id).complete(prompt)


def test_live_client_requires_credentials(monkeypatch):
    monkeypatch.delenv("SEMIFORGE_API_KEY", raising=False)
    client = LiveClient("https://example.invalid/v1", "m")
    with pytest.raises(SemiforgeError, match="set SEMIFORGE_API_KEY"):
        client.complete("p")


def test_live_client_success(loopback_server, api_key, no_sleep):
    loopback_server.script = [(200, {}, ok_body("answer text"))]
    completion = ask(loopback_server, "the prompt", model_id="m1")
    assert completion.text == "answer text"
    assert completion.usage == {"total_tokens": 5}
    [sent] = loopback_server.received
    assert sent["path"] == "/v1/chat/completions"
    assert sent["json"] == {
        "model": "m1",
        "messages": [{"role": "user", "content": "the prompt"}],
        "temperature": 0.7,
        "top_p": 0.95,
        "max_tokens": 2048,
    }
    assert sent["headers"]["Authorization"] == "Bearer test-key"
    assert sent["headers"]["Content-Type"] == "application/json"


def test_loopback_server_answers_requests_at_once(loopback_server, api_key):
    def answer(request):
        time.sleep(0.3)
        return 200, {}, ok_body()

    loopback_server.answer = answer
    started = time.monotonic()
    with ThreadPoolExecutor(max_workers=2) as pool:
        texts = [run.result(timeout=10).text for run in [pool.submit(ask, loopback_server) for _ in range(2)]]
    assert texts == ["generated"] * 2
    assert time.monotonic() - started < 0.5
    assert sorted(request["index"] for request in loopback_server.received) == [0, 1]


def test_live_client_retries_with_backoff(loopback_server, api_key, no_sleep):
    # A body cut short is a network error; the refused connection is further down.
    loopback_server.script = [CUT_SHORT, (503, {}, b""), (200, {}, ok_body())]
    assert ask(loopback_server).text == "generated"
    assert len(loopback_server.received) == 3
    assert no_sleep == [0.5, 1.0]  # doubling per attempt


@pytest.mark.parametrize("retry_after, wait", [("3.5", 3.5), ("inf", 0.5)])  # a non-finite value is ignored
def test_live_client_honors_retry_after(loopback_server, api_key, no_sleep, retry_after, wait):
    loopback_server.script = [(429, {"Retry-After": retry_after}, b""), (200, {}, ok_body())]
    ask(loopback_server)
    assert no_sleep == [wait]


@pytest.mark.parametrize("retry_after", ["1e10", "9223372036.0"])  # time.sleep raises OverflowError, OSError
def test_live_client_caps_a_huge_retry_after(loopback_server, api_key, no_sleep, retry_after):
    loopback_server.script = [(429, {"Retry-After": retry_after}, b"")]
    with pytest.raises(SemiforgeError, match="giving up after 4 attempts"):
        ask(loopback_server)
    assert no_sleep == [LiveClient.MAX_WAIT_S] * 3


def test_live_client_gives_up_after_max_attempts(loopback_server, api_key, no_sleep):
    loopback_server.script = [(500, {}, b"")]
    with pytest.raises(SemiforgeError, match="giving up after") as excinfo:
        ask(loopback_server)
    assert "4 attempts" in str(excinfo.value)
    assert len(loopback_server.received) == 4
    assert no_sleep == [0.5, 1.0, 2.0]  # no sleep after the final attempt


def test_live_client_gives_up_on_a_refused_connection(loopback_server, api_key, no_sleep):
    with socket.socket() as unheard:
        unheard.bind(("127.0.0.1", 0))  # bound, not listening: a connect is refused
        client = LiveClient(f"http://127.0.0.1:{unheard.getsockname()[1]}/v1", "m")
        with pytest.raises(SemiforgeError, match="giving up after 4 attempts .*Connection refused"):
            client.complete("p")
    assert no_sleep == [0.5, 1.0, 2.0]
    assert loopback_server.received == []


def test_live_client_client_error_fails_fast(loopback_server, api_key, no_sleep):
    loopback_server.script = [(400, {}, b"")]
    with pytest.raises(SemiforgeError, match="endpoint returned HTTP 400"):
        ask(loopback_server)
    assert len(loopback_server.received) == 1
    assert no_sleep == []


def test_live_client_other_status_fails_fast(loopback_server, api_key, no_sleep):
    loopback_server.script = [(201, {}, ok_body())]  # the opener returns a 201 without raising
    with pytest.raises(SemiforgeError, match="endpoint returned HTTP 201"):
        ask(loopback_server)
    assert len(loopback_server.received) == 1
    assert no_sleep == []


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_live_client_refuses_redirects(start_loopback_server, api_key, no_sleep, status):
    endpoint, elsewhere = start_loopback_server(), start_loopback_server()
    endpoint.script = [(status, {"Location": elsewhere.url}, b"")]
    elsewhere.script = [(200, {}, ok_body())]
    with pytest.raises(SemiforgeError, match=f"endpoint returned HTTP {status}"):
        ask(endpoint)
    assert len(endpoint.received) == 1
    assert elsewhere.received == []  # neither the key nor the prompt goes there
    assert no_sleep == []


def test_live_client_bad_url_fails_fast(loopback_server, api_key, no_sleep):
    # The opener would retry the first three, port 0 and the last as network errors.
    needs = "the URL needs an http or https scheme, a host and a port above 0"
    for url, problem in (
        ("example.invalid/v1", needs),
        ("http://", needs),
        ("foo://x/y", needs),
        ("https://[::1", "Invalid IPv6 URL"),
        ("http://127.0.0.1:0/v1", needs),
        ("http://127.0.0.1:99999/v1", "Port out of range"),
        (f"{loopback_server.url} b", "URL can't contain control characters"),
    ):
        with pytest.raises(SemiforgeError, match=re.escape(f"bad request to {url!r}: {problem}")):
            LiveClient(url, "m").complete("p")
    assert loopback_server.received == []
    assert no_sleep == []


def test_live_client_unprintable_key_fails_fast_without_echoing_it(loopback_server, monkeypatch, no_sleep):
    monkeypatch.setenv("SEMIFORGE_API_KEY", "secret-key\n")  # as read from a file that ends in a newline
    with pytest.raises(SemiforgeError, match="SEMIFORGE_API_KEY contains a character that is not printable") as excinfo:
        ask(loopback_server)
    assert "secret-key" not in str(excinfo.value)
    assert loopback_server.received == []
    assert no_sleep == []


def test_live_client_malformed_body(loopback_server, api_key, no_sleep):
    # Endpoints send a null content for a refusal.
    for body, problem in (
        ({"unexpected": True}, "choices must be a non-empty array"),
        ({"choices": [{"message": {"content": None}}]}, "content must be a string, got None"),
    ):
        loopback_server.script = [(200, {}, body)]
        with pytest.raises(SemiforgeError, match=f"malformed completion response: {problem}"):
            ask(loopback_server)


def test_live_client_invalid_json_body(loopback_server, api_key, no_sleep):
    loopback_server.script = [(200, {}, b"not json")]
    with pytest.raises(SemiforgeError, match="malformed completion response: Expecting value: line 1 column 1"):
        ask(loopback_server)
