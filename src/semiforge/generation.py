r"""Prompt rendering, the replay client, and completion parsing.

A completion must contain four `### ` sections, in any order, found by
name: Instruction, Refined Code, Answer Type, Test Case Inputs. The
parser is total: it returns the four fields the generate stage adds to
a unit row, as the row stores them, or raises a ParseError carrying the
drop reason of a structural defect, never another exception. A stored
answer type is checked as the Invocation it runs as (pipeline.invocation_for).
A line of a completion ends at ``\n`` only, and the ``\r`` of a ``\r\n``
belongs to the line end; a lone ``\r``, ``\f``, U+2028 or any other
character where ``str.splitlines`` would also break is kept in the
code and inputs the parser returns.

Every completion is asked of a ReplayClient: it serves completions from
a content-addressed store keyed by the SHA-256 of the prompt, which
makes pipeline runs deterministic and offline. Given a live client
(``semiforge.live.LiveClient``), it asks that for a prompt the store
lacks, once however many threads want it, and records the answer in
the store before returning it. Only
that branch loads ``semiforge.dataset``: building prompts, replaying
and parsing load no network client, no ``logging`` and no ``dataset``.
The store is read as written, with no newline translation, so a
replayed completion parses as the live answer did.
"""

from __future__ import annotations

import hashlib
import re
import threading
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import SemiforgeError, is_function_name

if TYPE_CHECKING:
    from .live import LiveClient

DEFAULT_INPUT_COUNT = 8
SECTION_NAMES = ("Instruction", "Refined Code", "Answer Type", "Test Case Inputs")
TEMPLATE_VERSION = "semiforge-template-v1"

CALL_BASED = "call_based"
STANDARD_INPUT = "standard_input"


class EmptyCode(SemiforgeError):
    pass


class ParseError(SemiforgeError):
    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason  # the unit's drop reason in the generate stage


class _PromptTemplate(NamedTuple):
    preamble: str
    input_count: int = DEFAULT_INPUT_COUNT


class PromptTemplate(_PromptTemplate):
    """Template text plus the number of inputs to request.

    ``preamble`` holds the template body with its placeholders:
    ``{{original_code}}`` (exactly once) and ``{{input_count}}``.
    """

    __slots__ = ()

    def __new__(cls, preamble: str, input_count: int = DEFAULT_INPUT_COUNT) -> "PromptTemplate":
        if input_count < 1:
            raise ValueError(f"input_count must be >= 1, got {input_count!r}")
        if preamble.count("{{original_code}}") != 1:
            raise ValueError("template must contain exactly one {{original_code}} slot")
        return super().__new__(cls, preamble, input_count)

    @classmethod
    def default(cls, input_count: int = DEFAULT_INPUT_COUNT) -> "PromptTemplate":
        text = resources.files("semiforge.assets").joinpath("prompt_template.txt").read_text("utf-8")
        return cls(preamble=text, input_count=input_count)

    @classmethod
    def from_file(cls, path: str | Path, input_count: int = DEFAULT_INPUT_COUNT) -> "PromptTemplate":
        return cls(preamble=Path(path).read_text(encoding="utf-8"), input_count=input_count)


def build_generation_prompt(original_code: str, template: PromptTemplate) -> str:
    """Render the full generation prompt for one original program."""
    if not original_code.strip():
        raise EmptyCode("refusing to build a prompt for empty code")
    text = template.preamble
    text = text.replace("{{input_count}}", str(template.input_count))
    text = text.replace("{{original_code}}", original_code.rstrip("\n"))
    return re.sub(r"\n{3,}", "\n\n", text)


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class Completion(NamedTuple):
    text: str
    finish_reason: str = "stop"
    usage: Mapping[str, int] = MappingProxyType({})  # unchangeable: every default shares it


class ReplayClient:
    """Serve ``<store>/<sha256(prompt)>.txt``; ask ``live`` for a prompt the store lacks.

    A live completion is written to the store before it is returned, so
    a run that fails later keeps every completion it was given. A prompt
    is asked once, however many threads want it at once: the first
    asks, and each other waits for it and then reads its answer from the
    store, or asks in turn if it failed. With no live client, a prompt
    the store lacks raises SemiforgeError naming its digest.
    """

    def __init__(self, store: str | Path, live: LiveClient | None = None):
        self.store = Path(store)
        self.live = live
        self._lock = threading.Lock()  # guards _asking
        self._asking: dict[str, threading.Lock] = {}  # digest -> held by the thread asking for it, until stored

    def complete(self, prompt: str) -> Completion:
        digest = prompt_digest(prompt)
        path = self.store / f"{digest}.txt"
        if path.is_file():
            return _replayed(path)
        if self.live is None:
            raise SemiforgeError(f"no recorded completion for prompt {digest[:16]}")
        with self._lock:
            asking = self._asking.setdefault(digest, threading.Lock())
        with asking:
            if path.is_file():  # stored by the thread this one waited for
                return _replayed(path)
            completion = self.live.complete(prompt)
            from .dataset import atomic_write  # only a live answer is written, so replaying never loads dataset

            self.store.mkdir(parents=True, exist_ok=True)
            with atomic_write(path) as fh:
                fh.write(completion.text)
            with self._lock:
                del self._asking[digest]
        return completion


def _replayed(path: Path) -> Completion:
    try:  # read as written: read_text would turn a lone \r into \n
        return Completion(text=path.read_bytes().decode("utf-8"), finish_reason="replay")
    except UnicodeDecodeError as exc:
        raise SemiforgeError(f"recorded completion {path} is not UTF-8: {exc}") from exc


_HEADER = re.compile(r"^###\s+(?P<name>[^#].*?)\s*:?\s*$")
_INPUT_HEADER = re.compile(r"^####\s+Input\b.*$", re.IGNORECASE)
_FUNCTION_NAME = re.compile(r"^function\s+name\s*:\s*(?P<name>.+?)\s*$", re.IGNORECASE)


def _split_sections(lines: list[str]) -> dict[str, list[str]]:
    """Map canonical section names to their body lines, first occurrence wins."""
    canonical = {name.lower(): name for name in SECTION_NAMES}
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in lines:
        if match := _HEADER.match(line):
            name = canonical.get(match.group("name").strip().lower())
            current = None
            if name is not None and name not in sections:
                current = sections[name] = []
        elif current is not None:
            current.append(line)
    return sections


def _strip_code_fence(lines: list[str]) -> list[str]:
    fences = [i for i, line in enumerate(lines) if line.lstrip().startswith("```")]
    if not fences:
        return lines
    return lines[fences[0] + 1 : fences[-1] if len(fences) > 1 else None]


def _parse_answer_type(lines: list[str]) -> dict:
    stripped = [line.strip() for line in lines]
    first = next(filter(None, stripped), "")
    label = first.strip("`'\". ").lower()
    if label in ("standard input", "standard-input", "stdin"):
        return {"kind": STANDARD_INPUT, "function_name": None}
    if label in ("call-based", "call based", "callbased"):
        for line in stripped:
            if match := _FUNCTION_NAME.match(line):
                name = match.group("name").strip("`'\"")
                if is_function_name(name):
                    return {"kind": CALL_BASED, "function_name": name}
        raise ParseError("missing_function_name", "call-based answer without a usable Function Name line")
    raise ParseError("unknown_answer_type", f"unrecognized answer type: {first!r}")


def _parse_inputs(lines: list[str]) -> list[str]:
    starts = [i for i, line in enumerate(lines) if _INPUT_HEADER.match(line)]
    if not starts:
        raise ParseError("no_inputs", "completion contains no test case input blocks")
    return ["\n".join(lines[start + 1 : end]).strip("\n") for start, end in zip(starts, [*starts[1:], len(lines)])]


def parse_components(raw: str) -> dict:
    """Parse a completion into the generate fields of a unit row, or raise a ParseError.

    The fields are ``instruction``, ``refined_code``, ``answer_type``
    (``{"kind", "function_name"}``) and ``raw_inputs`` (a list of strings).
    """
    sections = _split_sections(raw.replace("\r\n", "\n").split("\n"))
    missing = [name for name in SECTION_NAMES if name not in sections]
    if not missing:
        sections["Refined Code"] = _strip_code_fence(sections["Refined Code"])
        # An empty Test Case Inputs section is left to _parse_inputs.
        missing = [name for name in SECTION_NAMES[:3] if not "".join(sections[name]).strip()]
    if missing:
        raise ParseError(f"missing_section:{missing[0]}", f"completion is missing the {missing[0]!r} section")
    return {
        "instruction": "\n".join(sections["Instruction"]).strip(),
        "refined_code": "\n".join(sections["Refined Code"]).strip("\n"),
        "answer_type": _parse_answer_type(sections["Answer Type"]),
        "raw_inputs": _parse_inputs(sections["Test Case Inputs"]),
    }
