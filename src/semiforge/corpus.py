"""Load judge-style archives and distill them into a clean problem corpus.

Three input layouts are understood:

* ``apps``: a directory of per-problem folders, each holding
  ``question.txt``, ``solutions.json`` (array of code strings) and an
  optional ``metadata.json`` with a boolean ``special_judge``.
* ``codecontest``: newline-delimited JSON, one object per problem with
  ``name``, ``description`` and ``solutions`` entries that carry a
  ``language`` tag and a ``correct`` flag.
* ``generic``: newline-delimited JSON with ``problem_id``,
  ``description`` and ``solutions`` (strings or objects).

JSONL files are split at line feeds only: a row written with
``ensure_ascii=False`` may hold U+2028, which ``str.splitlines()`` breaks
on. Malformed records are skipped with a warning; only an entirely
empty parse is fatal.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

from .errors import SemiforgeError

logger = logging.getLogger(__name__)

FORMATS = ("apps", "codecontest", "generic")
TOKEN_MODES = ("whitespace", "bytes")
DEFAULT_MAX_TOKENS = 1000
DEFAULT_SOLUTION_CAP = 25


class UnreadablePath(SemiforgeError):
    pass


class UnknownFormat(SemiforgeError):
    pass


class EmptyCorpus(SemiforgeError):
    pass


class InvalidCap(SemiforgeError):
    pass


@dataclass(frozen=True)
class Solution:
    code: str
    token_count: int
    origin: str = ""

    @classmethod
    def from_code(cls, code: str, origin: str = "") -> "Solution":
        return cls(code=code, token_count=len(code.split()), origin=origin)


@dataclass(frozen=True)
class Problem:
    problem_id: str
    description: str
    source: str
    solutions: tuple[Solution, ...]
    special_judge: bool = False


def load_corpus(path: str | Path, format: str, language: str = "python") -> list[Problem]:
    """Parse an archive into Problems, keeping only corpus-language solutions."""
    root = Path(path)
    if not root.exists():
        raise UnreadablePath(f"no such path: {root}")
    if format == "apps":
        problems = _load_apps(root)
    elif format == "codecontest":
        problems = _load_codecontest(root, language)
    elif format == "generic":
        problems = _load_generic(root, language)
    else:
        raise UnknownFormat(f"unknown corpus format: {format!r}")
    if not problems:
        raise EmptyCorpus(f"no problems parsed from {root} ({format})")
    return problems


def _load_apps(root: Path) -> list[Problem]:
    if not root.is_dir():
        raise UnknownFormat(f"apps format expects a directory, got {root}")
    problems = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        question = sub / "question.txt"
        solutions_file = sub / "solutions.json"
        if not question.is_file() or not solutions_file.is_file():
            logger.warning("skipping %s: missing question.txt or solutions.json", sub.name)
            continue
        try:
            codes = json.loads(solutions_file.read_text(encoding="utf-8"))
            description = question.read_text(encoding="utf-8")
        except (OSError, json.JSONDecodeError) as exc:
            logger.warning("skipping %s: %s", sub.name, exc)
            continue
        if not isinstance(codes, list) or not all(isinstance(c, str) for c in codes):
            logger.warning("skipping %s: solutions.json is not an array of strings", sub.name)
            continue
        special = False
        meta_file = sub / "metadata.json"
        if meta_file.is_file():
            try:
                meta = json.loads(meta_file.read_text(encoding="utf-8"))
                special = bool(meta.get("special_judge", False))
            except (OSError, json.JSONDecodeError) as exc:
                logger.warning("%s: unreadable metadata.json (%s), assuming no special judge", sub.name, exc)
        problems.append(
            Problem(
                problem_id=sub.name,
                description=description,
                source="apps",
                solutions=tuple(Solution.from_code(c) for c in codes),
                special_judge=special,
            )
        )
    return problems


def _language_matches(tag: str, language: str) -> bool:
    return tag.strip().lower().startswith(language.strip().lower())


def _load_codecontest(root: Path, language: str) -> list[Problem]:
    if not root.is_file():
        raise UnknownFormat(f"codecontest format expects a .jsonl file, got {root}")
    problems = []
    for lineno, line in enumerate(root.read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            name = obj["name"]
            description = obj["description"]
            raw_solutions = obj.get("solutions", [])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            logger.warning("skipping line %d of %s: %s", lineno, root.name, exc)
            continue
        kept = [
            Solution.from_code(s["code"], origin=str(s.get("origin", "")))
            for s in raw_solutions
            if isinstance(s, Mapping)
            and s.get("correct", False)
            and _language_matches(str(s.get("language", "")), language)
            and isinstance(s.get("code"), str)
        ]
        problems.append(
            Problem(
                problem_id=str(name),
                description=str(description),
                source="codecontest",
                solutions=tuple(kept),
                special_judge=bool(obj.get("special_judge", False)),
            )
        )
    return problems


def _load_generic(root: Path, language: str) -> list[Problem]:
    if not root.is_file():
        raise UnknownFormat(f"generic format expects a .jsonl file, got {root}")
    problems = []
    for lineno, line in enumerate(root.read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            problem_id = str(obj["problem_id"])
            description = str(obj["description"])
            raw_solutions = obj["solutions"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            logger.warning("skipping line %d of %s: %s", lineno, root.name, exc)
            continue
        solutions = []
        for entry in raw_solutions:
            if isinstance(entry, str):
                solutions.append(Solution.from_code(entry))
            elif isinstance(entry, Mapping) and isinstance(entry.get("code"), str):
                tag = entry.get("language")
                if tag is not None and not _language_matches(str(tag), language):
                    continue
                solutions.append(Solution.from_code(entry["code"], origin=str(entry.get("origin", ""))))
        problems.append(
            Problem(
                problem_id=problem_id,
                description=description,
                source=str(obj.get("source", "generic")),
                solutions=tuple(solutions),
                special_judge=bool(obj.get("special_judge", False)),
            )
        )
    return problems


def _solution_size(solution: Solution, token_mode: str) -> int:
    if token_mode == "whitespace":
        return solution.token_count
    if token_mode == "bytes":
        return len(solution.code.encode("utf-8"))
    raise ValueError(f"unknown token mode: {token_mode!r}")


def filter_problems(
    problems: Iterable[Problem],
    max_tokens: int = DEFAULT_MAX_TOKENS,
    token_mode: str = "whitespace",
) -> list[Problem]:
    """Drop special-judge problems, oversized solutions, then empty problems."""
    out = []
    for problem in problems:
        if problem.special_judge:
            continue
        kept = tuple(
            s for s in problem.solutions if _solution_size(s, token_mode) <= max_tokens
        )
        if not kept:
            continue
        out.append(replace(problem, solutions=kept))
    return out


def normalize_description(text: str) -> str:
    """Trim and collapse internal whitespace runs; case is preserved."""
    return " ".join(text.split())


def merge_duplicate_problems(problems: Iterable[Problem]) -> list[Problem]:
    """Collapse problems whose normalized descriptions match, concatenating their solutions.

    The first occurrence wins the id and description; solution order is the
    concatenation of occurrence order, which keeps the later cap stable.
    """
    order: list[str] = []
    groups: dict[str, Problem] = {}
    for problem in problems:
        k = normalize_description(problem.description)
        if k not in groups:
            groups[k] = problem
            order.append(k)
        else:
            first = groups[k]
            groups[k] = replace(first, solutions=first.solutions + problem.solutions)
    return [groups[k] for k in order]


def cap_solutions(problems: Iterable[Problem], cap: int = DEFAULT_SOLUTION_CAP) -> list[Problem]:
    """Keep at most the first ``cap`` solutions of every problem."""
    if cap < 1:
        raise InvalidCap(f"solution_cap must be >= 1, got {cap!r}")
    return [replace(p, solutions=p.solutions[:cap]) for p in problems]
