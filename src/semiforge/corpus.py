"""Load judge-style archives and distill them into a clean problem corpus.

Three input layouts are understood; CORPUS_FIELDS gives the kinds of
their keys (see dataset.check_fields):

* ``apps``: a directory of per-problem folders, each holding
  ``question.txt``, ``solutions.json`` and an optional ``metadata.json``.
* ``codecontest``: JSON lines, one problem a row, whose solution objects
  carry a ``language`` tag and a ``correct`` flag.
* ``generic``: JSON lines whose solutions are code strings or objects.

JSON-lines files are split at line feeds only (see
dataset.read_json_lines). A problem or row that is not UTF-8, not JSON,
or holds a key of the wrong kind is skipped with a warning naming the
key; only an entirely empty parse is fatal. A string that UTF-8 cannot
encode is of no kind (see dataset.check_fields), and a solution that is
not kept has its ``code`` left unread. A generic row's ``source`` and a
solution's ``origin`` are checked for kind but not kept: a Problem holds
its id, description, special-judge flag and the code of each solution.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from .dataset import check_fields
from .errors import SemiforgeError

logger = logging.getLogger(__name__)

FORMATS = ("apps", "codecontest", "generic")
DEFAULT_MAX_TOKENS = 1000
DEFAULT_SOLUTION_CAP = 25

# The kinds of each format's keys: those of an APPS problem's JSON files and of
# its metadata.json, or those of a JSON-lines row and of one of its solution objects.
CORPUS_FIELDS = {
    "apps": ({"solutions.json": list[str], "metadata.json": dict}, {"special_judge": bool}),
    "codecontest": (
        {"name": str | int, "description": str, "special_judge": bool, "solutions": list[dict]},
        {"code": str, "language": str, "origin": str, "correct": bool},
    ),
    "generic": (
        {"problem_id": str | int, "description": str, "source": str, "special_judge": bool,
         "solutions": list[str | dict]},
        {"code": str, "language": str, "origin": str},
    ),
}


@dataclass(frozen=True)
class Problem:
    problem_id: str
    description: str
    solutions: tuple[str, ...]  # the code of each kept solution
    special_judge: bool = False


def load_corpus(path: str | Path, format: str) -> list[Problem]:
    """Parse an archive into Problems, keeping only Python solutions."""
    root = Path(path)
    if not root.exists():
        raise SemiforgeError(f"no such path: {root}")
    if format == "apps":
        problems = _load_apps(root)
    elif format == "codecontest":
        problems = _load_json_lines(
            root, format, ("name", "description"),
            lambda s: s.get("correct", False) and _is_python(s.get("language", "")),
        )
    elif format == "generic":
        problems = _load_json_lines(
            root, format, ("problem_id", "description", "solutions"),
            lambda s: _is_python(s.get("language", "python")),
        )
    else:
        raise SemiforgeError(f"unknown corpus format: {format!r}")
    if not problems:
        raise SemiforgeError(f"no problems parsed from {root} ({format})")
    return problems


def _load_apps(root: Path) -> list[Problem]:
    if not root.is_dir():
        raise SemiforgeError(f"apps format expects a directory, got {root}")
    file_fields, meta_fields = CORPUS_FIELDS["apps"]
    problems = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        try:
            # A directory name that is not UTF-8 reads with lone surrogates, which the str kind rejects.
            check_fields({"problem_id": sub.name}, {"problem_id": str})
            description = (sub / "question.txt").read_text(encoding="utf-8")
            paths = [sub / name for name in file_fields if (sub / name).is_file()]
            files = {path.name: json.loads(path.read_text(encoding="utf-8")) for path in paths}
            check_fields(files, file_fields, required=("solutions.json",))
            meta = check_fields(files.get("metadata.json", {}), meta_fields, required=())
            problem = Problem(
                problem_id=sub.name,
                description=description,
                solutions=tuple(files["solutions.json"]),
                special_judge=meta.get("special_judge", False),
            )
        except (OSError, ValueError) as exc:  # UnicodeDecodeError, UnicodeEncodeError and JSONDecodeError included
            logger.warning("skipping %s: %s", sub.name, exc)
            continue
        problems.append(problem)
    return problems


def _is_python(tag: str) -> bool:
    return tag.strip().lower().startswith("python")


def _load_json_lines(root: Path, format: str, required: tuple[str, ...], keep) -> list[Problem]:
    """Parse a JSON-lines corpus: rows need the ``required`` keys (the id first); ``keep`` picks solutions."""
    if not root.is_file():
        raise SemiforgeError(f"{format} format expects a .jsonl file, got {root}")
    row_fields, solution_fields = CORPUS_FIELDS[format]
    # keep reads the other keys of a solution; only a kept one's code is written, so only it is read.
    picks = {key: kind for key, kind in solution_fields.items() if key != "code"}
    problems = []
    with open(root, "rb") as fh:  # split on b"\n" only, as read_json_lines does
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                # Without the newline, a JSON error position counts within the line.
                row = check_fields(json.loads(line.removesuffix(b"\n")), row_fields, required)
                solutions = [
                    {"code": entry} if isinstance(entry, str) else check_fields(entry, picks, ())
                    for entry in row.get("solutions", [])
                ]
                kept = [check_fields(s, solution_fields, ("code",)) for s in solutions if keep(s)]
                problem = Problem(
                    problem_id=str(row[required[0]]),
                    description=row["description"],
                    solutions=tuple(s["code"] for s in kept),
                    special_judge=row.get("special_judge", False),
                )
            except ValueError as exc:  # UnicodeDecodeError, UnicodeEncodeError and JSONDecodeError included
                logger.warning("skipping line %d of %s: %s", lineno, root.name, exc)
                continue
            problems.append(problem)
    return problems


def filter_problems(problems: Iterable[Problem], max_tokens: int = DEFAULT_MAX_TOKENS) -> list[Problem]:
    """Drop special-judge problems, oversized solutions, then empty problems."""
    if max_tokens < 1:
        raise ValueError(f"max_solution_tokens must be >= 1, got {max_tokens!r}")
    out = []
    for problem in problems:
        if problem.special_judge:
            continue
        kept = tuple(code for code in problem.solutions if len(code.split()) <= max_tokens)
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
    A merged problem whose id an earlier one holds is skipped with a
    warning, so no two problems give their units the same ids.
    """
    groups: dict[str, Problem] = {}  # in first-occurrence order
    for problem in problems:
        k = normalize_description(problem.description)
        first = groups.get(k)
        groups[k] = problem if first is None else replace(first, solutions=first.solutions + problem.solutions)
    by_id: dict[str, Problem] = {}
    for problem in groups.values():
        if problem.problem_id in by_id:
            logger.warning("skipping problem %s: an earlier problem has that id", problem.problem_id)
        else:
            by_id[problem.problem_id] = problem
    return list(by_id.values())


def cap_solutions(problems: Iterable[Problem], cap: int = DEFAULT_SOLUTION_CAP) -> list[Problem]:
    """Keep at most the first ``cap`` solutions of every problem."""
    if cap < 1:
        raise ValueError(f"solution_cap must be >= 1, got {cap!r}")
    return [replace(p, solutions=p.solutions[:cap]) for p in problems]
