"""Prompt rendering, completion clients, and completion parsing.

A completion must contain four `### ` sections, in any order, found by
name: Instruction, Refined Code, Answer Type, Test Case Inputs. The
parser is total: any structural defect raises a ParseError carrying its
drop reason, never a partial bundle and never another exception.

Every completion is asked of a ReplayClient: it serves completions from
a content-addressed store keyed by the SHA-256 of the prompt, which
makes pipeline runs deterministic and offline. Given a LiveClient, it
asks that for a prompt the store lacks and records the answer in the
store before returning it. The live client POSTs to a chat-completion
endpoint with the standard library's urllib, with exponential backoff,
and requires the SEMIFORGE_API_KEY environment variable (checked before
any network traffic).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping

from .dataset import NonEmpty, atomic_write, check_fields
from .errors import SemiforgeError, is_function_name

logger = logging.getLogger(__name__)

DEFAULT_INPUT_COUNT = 8
SECTION_NAMES = ("Instruction", "Refined Code", "Answer Type", "Test Case Inputs")
API_KEY_ENV = "SEMIFORGE_API_KEY"
TEMPLATE_VERSION = "semiforge-template-v1"

CALL_BASED = "call_based"
STANDARD_INPUT = "standard_input"


class EmptyCode(SemiforgeError):
    pass


class ParseError(SemiforgeError):
    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason  # the unit's drop reason in the generate stage


@dataclass(frozen=True)
class AnswerType:
    """Either call-based (with a function name) or standard input."""

    kind: str
    function_name: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (CALL_BASED, STANDARD_INPUT):
            raise ValueError(f"unknown answer type kind: {self.kind!r}")
        if self.kind == CALL_BASED and not is_function_name(self.function_name):
            raise ValueError(f"call-based answers need a function name, got {self.function_name!r}")

    @classmethod
    def call_based(cls, function_name: str) -> "AnswerType":
        return cls(kind=CALL_BASED, function_name=function_name)

    @classmethod
    def standard_input(cls) -> "AnswerType":
        return cls(kind=STANDARD_INPUT)


@dataclass(frozen=True)
class GenerationBundle:
    instruction: str
    refined_code: str
    answer_type: AnswerType
    raw_inputs: tuple[str, ...]


@dataclass(frozen=True)
class PromptTemplate:
    """Template text plus the number of inputs to request.

    ``preamble`` holds the template body with its placeholders:
    ``{{original_code}}`` (exactly once) and ``{{input_count}}``. An
    ``{{exemplars}}`` slot is rendered empty.
    """

    preamble: str
    input_count: int = DEFAULT_INPUT_COUNT

    def __post_init__(self) -> None:
        if self.input_count < 1:
            raise ValueError(f"input_count must be >= 1, got {self.input_count!r}")
        if self.preamble.count("{{original_code}}") != 1:
            raise ValueError("template must contain exactly one {{original_code}} slot")

    @classmethod
    def default(cls, input_count: int = DEFAULT_INPUT_COUNT) -> "PromptTemplate":
        text = resources.files("semiforge.assets").joinpath("prompt_template.txt").read_text("utf-8")
        return cls(preamble=text, input_count=input_count)

    @classmethod
    def from_file(cls, path: str | Path, input_count: int = DEFAULT_INPUT_COUNT) -> "PromptTemplate":
        return cls(preamble=Path(path).read_text(encoding="utf-8"), input_count=input_count)


def build_generation_prompt(original_code: str, template: PromptTemplate | None = None) -> str:
    """Render the full generation prompt for one original program."""
    if not original_code.strip():
        raise EmptyCode("refusing to build a prompt for empty code")
    template = template or PromptTemplate.default()
    text = template.preamble
    text = text.replace("{{input_count}}", str(template.input_count))
    text = text.replace("{{exemplars}}", "")
    text = text.replace("{{original_code}}", original_code.rstrip("\n"))
    return re.sub(r"\n{3,}", "\n\n", text)


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Completion:
    text: str
    finish_reason: str = "stop"
    usage: Mapping[str, int] = field(default_factory=dict)


class ReplayClient:
    """Serve ``<store>/<sha256(prompt)>.txt``; ask ``live`` for a prompt the store lacks.

    A live completion is written to the store before it is returned, so
    a run that fails later keeps every completion it was given. With no
    live client, a prompt the store lacks raises SemiforgeError naming its digest.
    """

    def __init__(self, store: str | Path, live: LiveClient | None = None):
        self.store = Path(store)
        self.live = live

    def complete(self, prompt: str) -> Completion:
        digest = prompt_digest(prompt)
        path = self.store / f"{digest}.txt"
        if path.is_file():
            try:
                return Completion(text=path.read_text(encoding="utf-8"), finish_reason="replay")
            except UnicodeDecodeError as exc:
                raise SemiforgeError(f"recorded completion {path} is not UTF-8: {exc}") from exc
        if self.live is None:
            raise SemiforgeError(f"no recorded completion for prompt {digest[:16]}")
        completion = self.live.complete(prompt)
        self.store.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as fh:
            fh.write(completion.text)
        return completion


class LiveClient:
    """POST to a chat-completion endpoint with retry and backoff.

    Network errors such as a refused connection, a timeout or a body cut
    short, and rate-limit (429) and server (5xx) responses, are retried
    with exponential backoff, honoring a Retry-After header that gives a
    finite number of seconds, up to MAX_WAIT_S.
    A malformed request (a URL without an http or https scheme, a host
    and a port above 0, or with a space, a key that is not printable)
    and any status but 200, a redirect included, fail at once.
    """

    RETRYABLE = frozenset({429, 500, 502, 503, 504})
    ATTEMPTS = 4
    BACKOFF_S = 0.5  # the wait after the first failed attempt; it doubles after each
    MAX_WAIT_S = 600.0  # the longest Retry-After honored; time.sleep raises from threading.TIMEOUT_MAX up
    TIMEOUT_S = 120.0
    # The sampling every prompt is sent with.
    TEMPERATURE = 0.7
    TOP_P = 0.95
    MAX_TOKENS = 2048

    def __init__(self, endpoint: str, model_id: str):
        self.endpoint = endpoint
        self.model_id = model_id

    def complete(self, prompt: str) -> Completion:
        import http.client
        import urllib.error
        import urllib.parse
        import urllib.request

        key = os.environ.get(API_KEY_ENV)
        if not key:
            raise SemiforgeError(f"set {API_KEY_ENV} before using the live client")
        if not key.isprintable():  # http.client would quote the whole key in its error
            raise SemiforgeError(f"{API_KEY_ENV} contains a character that is not printable")
        payload = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.TEMPERATURE,
            "top_p": self.TOP_P,
            "max_tokens": self.MAX_TOKENS,
        }
        data = json.dumps(payload).encode("utf-8")
        headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

        class RefuseRedirects(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args):
                return None  # so a 3xx raises HTTPError, and the key goes to no other URL

        opener = urllib.request.build_opener(RefuseRedirects)
        last_error = "no attempts made"
        for attempt in range(1, self.ATTEMPTS + 1):
            wait = self.BACKOFF_S * (2 ** (attempt - 1))
            try:
                # The opener would retry "http://", "foo://x/y" and port 0 as network failures.
                url = urllib.parse.urlsplit(self.endpoint)  # its port raises ValueError above 65535
                if url.scheme not in ("http", "https") or not url.hostname or url.port == 0:
                    raise ValueError("the URL needs an http or https scheme, a host and a port above 0")
                post = urllib.request.Request(self.endpoint, data=data, headers=headers)
                with opener.open(post, timeout=self.TIMEOUT_S) as response:
                    status, body = response.status, response.read()
            except urllib.error.HTTPError as exc:  # a status outside 2xx, a redirect included
                exc.close()
                if exc.code not in self.RETRYABLE:
                    raise SemiforgeError(f"endpoint returned HTTP {exc.code}") from exc
                last_error = f"HTTP {exc.code}"
                retry_after = _parse_retry_after(exc.headers.get("Retry-After"))
                if retry_after is not None:
                    wait = min(retry_after, self.MAX_WAIT_S)
                logger.warning("completion attempt %d got %s", attempt, last_error)
            except (ValueError, http.client.InvalidURL) as exc:  # a malformed URL, a path with a space
                raise SemiforgeError(f"bad request to {self.endpoint!r}: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                last_error = str(exc)
                logger.warning("completion attempt %d failed: %s", attempt, exc)
            else:
                if status != 200:
                    raise SemiforgeError(f"endpoint returned HTTP {status}")
                return _completion_from_body(body)
            if attempt < self.ATTEMPTS:
                time.sleep(wait)
        raise SemiforgeError(f"giving up after {self.ATTEMPTS} attempts ({last_error})")


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds to wait, or None (use the backoff) when ``value`` is absent or not a finite number."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return max(0.0, seconds) if math.isfinite(seconds) else None


def _completion_from_body(body: bytes) -> Completion:
    try:
        data = check_fields(json.loads(body), {"choices": NonEmpty[dict], "usage": dict | None}, ("choices",))
        choice = check_fields(data["choices"][0], {"message": dict, "finish_reason": str | None}, ("message",))
        return Completion(
            text=check_fields(choice["message"], {"content": str})["content"],
            finish_reason=choice.get("finish_reason") or "stop",
            usage=data.get("usage") or {},
        )
    except ValueError as exc:  # a body that is not JSON or not UTF-8 included
        raise SemiforgeError(f"malformed completion response: {exc}") from exc


_HEADER = re.compile(r"^###\s+(?P<name>[^#].*?)\s*:?\s*$")
_INPUT_HEADER = re.compile(r"^####\s+Input\b.*$", re.IGNORECASE)
_FUNCTION_NAME = re.compile(r"^function\s+name\s*:\s*(?P<name>.+?)\s*$", re.IGNORECASE)


def _split_sections(raw: str) -> dict[str, str]:
    """Map canonical section names to body text, first occurrence wins."""
    canonical = {name.lower(): name for name in SECTION_NAMES}
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in raw.splitlines():
        match = _HEADER.match(line)
        if match:
            name = canonical.get(match.group("name").strip().lower())
            if name is not None and name not in sections:
                sections[name] = []
                current = sections[name]
            else:
                current = None
            continue
        if current is not None:
            current.append(line)
    return {name: "\n".join(body) for name, body in sections.items()}


def _strip_code_fence(body: str) -> str:
    lines = body.splitlines()
    fence_idx = [i for i, line in enumerate(lines) if line.lstrip().startswith("```")]
    if len(fence_idx) >= 2:
        lines = lines[fence_idx[0] + 1 : fence_idx[-1]]
    elif len(fence_idx) == 1:
        lines = lines[fence_idx[0] + 1 :]
    return "\n".join(lines).strip("\n")


def _parse_answer_type(body: str) -> AnswerType:
    first = next((line.strip() for line in body.splitlines() if line.strip()), "")
    label = first.strip("`'\". ").lower()
    if label in ("standard input", "standard-input", "stdin"):
        return AnswerType.standard_input()
    if label in ("call-based", "call based", "callbased"):
        for line in body.splitlines():
            match = _FUNCTION_NAME.match(line.strip())
            if match:
                name = match.group("name").strip("`'\"")
                if is_function_name(name):
                    return AnswerType.call_based(name)
        raise ParseError("missing_function_name", "call-based answer without a usable Function Name line")
    raise ParseError("unknown_answer_type", f"unrecognized answer type: {first!r}")


def _parse_inputs(body: str) -> tuple[str, ...]:
    blocks: list[list[str]] = []
    current: list[str] | None = None
    for line in body.splitlines():
        if _INPUT_HEADER.match(line):
            current = []
            blocks.append(current)
        elif current is not None:
            current.append(line)
    if not blocks:
        raise ParseError("no_inputs", "completion contains no test case input blocks")
    return tuple("\n".join(block).strip("\n") for block in blocks)


def parse_components(raw: str) -> GenerationBundle:
    """Parse a completion into its four components or raise a ParseError."""
    sections = _split_sections(raw)
    missing = [name for name in SECTION_NAMES if name not in sections]
    if not missing:
        sections["Refined Code"] = _strip_code_fence(sections["Refined Code"])
        # An empty Test Case Inputs section is left to _parse_inputs.
        missing = [name for name in SECTION_NAMES[:3] if not sections[name].strip()]
    if missing:
        raise ParseError(f"missing_section:{missing[0]}", f"completion is missing the {missing[0]!r} section")
    return GenerationBundle(
        instruction=sections["Instruction"].strip(),
        refined_code=sections["Refined Code"],
        answer_type=_parse_answer_type(sections["Answer Type"]),
        raw_inputs=_parse_inputs(sections["Test Case Inputs"]),
    )
