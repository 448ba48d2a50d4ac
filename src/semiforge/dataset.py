"""Dataset records, the files semiforge reads and writes, and the funnel report.

A dataset record is the plain JSON object one line of ``dataset.jsonl``
holds: an instruction paired with code, tagged with its source stream
(semi, ni, si) and enough provenance to reconstruct any ordering. Semi
records additionally keep their test cases so correctness can be
re-checked from the emitted file alone. ``record`` is the one place
that format is checked and completed, and ``check_fields`` the one check
of the type of any JSON value read back.

Every file semiforge writes goes through ``atomic_write``, and every
JSON-lines file through ``emit_jsonl`` and ``read_json_lines``.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Callable, Iterable, Literal, Mapping, get_args, get_origin

from .errors import SemiforgeError


class Count:
    """The kind of an integer >= 0 (see check_fields)."""


class NonEmpty(list):
    """The kind of a non-empty array: ``NonEmpty[item kind]`` (see check_fields)."""


def _encodes(value: str) -> bool:
    """True if UTF-8 can encode ``value``, else raise UnicodeEncodeError: no file could hold it.

    Such a string holds a lone surrogate, as a JSON escape like ``"\\ud800"`` reads.
    """
    value.encode("utf-8")
    return True


def _encodes_all(value) -> None:
    """Raise UnicodeEncodeError if UTF-8 cannot encode a string anywhere in the JSON value ``value``, keys included."""
    stack = [value]
    while stack:  # a loop: json.loads nests values deeper than a recursive walk from here could go
        value = stack.pop()
        if isinstance(value, str):
            value.isascii() or _encodes(value)
        elif isinstance(value, dict):
            stack += value
            stack += value.values()
        elif isinstance(value, list):
            stack += value


# What each kind that is a JSON type is called, and whether a value is of it; true and false are bool only,
# and a string that UTF-8 cannot encode raises UnicodeEncodeError.
_TYPES = {
    bool: ("true or false", lambda value: isinstance(value, bool)),
    str: ("a string", lambda value: isinstance(value, str) and (value.isascii() or _encodes(value))),
    int: ("an integer", lambda value: isinstance(value, int) and not isinstance(value, bool)),
    float: ("a number", lambda value: isinstance(value, (int, float)) and not isinstance(value, bool)),
    Count: ("an integer >= 0", lambda value: isinstance(value, int) and not isinstance(value, bool) and value >= 0),
    list: ("an array", lambda value: isinstance(value, list)),
    NonEmpty: ("a non-empty array", lambda value: isinstance(value, list) and len(value) > 0),
    dict: ("an object", lambda value: isinstance(value, dict)),
    type(None): ("null", lambda value: value is None),
}


@cache
def _compile(kind) -> tuple[str, Callable]:
    """Turn a kind of check_fields into its words and its check, once.

    A check gives None for a value of the kind, else a fault: a function of the value's name giving its text.
    """
    origin, args, parts = get_origin(kind) or kind, get_args(kind), None
    if origin is UnionType:
        words, checks = " or ".join(map(describe_kind, args)), [_compile(arg)[1] for arg in args]
        shape = lambda value: any(not check(value) for check in checks)
    elif origin is Literal:
        words, shape = "one of " + ", ".join(map(repr, args)), lambda value: value in args
    else:
        words, shape = _TYPES[origin]
        roles = zip(("key", "value") if origin is dict else ("item",), args)
        words = ", ".join([words, *(f"each {role} {_compile(arg)[0]}" for role, arg in roles)])
        if args:
            key_check, item_check = _compile(args[0])[1], _compile(args[-1])[1]

            def parts(value):
                for key, item in value.items() if origin is dict else enumerate(value):
                    if origin is dict and (fault := key_check(key)):
                        return lambda name: fault(f"{name} key")
                    if fault := item_check(item):
                        return lambda name: fault(f"{name}[{key!r}]")

    def check(value):
        if not shape(value):
            return lambda name: f"{name} must be {words}, got {value!r}"
        return parts and parts(value)  # the fault of a part of the value, if any

    return words, check


def describe_kind(kind) -> str:
    """Name a kind of check_fields in words, as its messages do."""
    return _compile(kind)[0]


def check_fields(obj, schema: Mapping, required: Iterable[str] | None = None, name: str = "row") -> dict:
    """Return ``obj`` if it is a JSON object whose keys hold values of the kinds ``schema`` gives.

    A key of ``required`` (all of ``schema`` by default) must be there; keys ``schema`` lacks are
    left alone. A kind is a JSON type (bool, str, int, float, list, dict, type(None)), Count, a union such
    as ``str | None``, a Literal of the values allowed, ``list[kind]``, ``NonEmpty[kind]`` or
    ``dict[key kind, kind]``; a ``list`` or ``dict`` given no kinds leaves its contents unchecked. Else
    raise ValueError "<key> must be <kind>, got <value>", or UnicodeEncodeError (a ValueError) for a
    string of a checked kind that UTF-8 cannot encode.
    """
    if fault := _compile(dict)[1](obj):
        raise ValueError(fault(name))
    for key, kind in schema.items():
        if key in obj:
            if fault := _compile(kind)[1](obj[key]):
                raise ValueError(fault(key))
        elif required is None or key in required:
            raise ValueError(f"{key} must be {describe_kind(kind)}, got nothing")
    return obj


def check_only(obj, schema: Mapping, required: Iterable[str] | None = None, name: str = "row") -> None:
    """check_fields, and raise ValueError for a key of ``obj`` that ``schema`` lacks: no writer puts one there."""
    if extra := check_fields(obj, schema, required, name).keys() - schema.keys():
        raise ValueError(f"{name} must hold no key but {', '.join(schema)}, got {min(extra)!r}")


SOURCES = ("semi", "ni", "si")

# The kinds of a record's keys; instruction, code and source are required.
RECORD_FIELDS = {
    "instruction": str, "code": str, "source": Literal[SOURCES],
    "difficulty": Count | None, "n_test_cases": Count | None, "answer_type": dict | None,
    "test_cases": list | None, "provenance": dict | None,
}
PROVENANCE_FIELDS = {"problem_id": str, "solution_index": Count | None, "seq": Count | None}


def record(obj) -> dict:
    """Turn a JSON value read from a file into the record that gets written.

    Optional keys get their defaults and unknown keys are dropped; a
    value that cannot be a record raises ValueError naming the defect, a
    kept string that UTF-8 cannot encode UnicodeEncodeError (a ValueError).
    """
    check_fields(obj, RECORD_FIELDS, required=("instruction", "code", "source"), name="record")
    for key in ("answer_type", "test_cases"):  # kinds that leave their contents unchecked, but a file must hold them
        _encodes_all(obj.get(key))
    prov = check_fields(obj.get("provenance") or {}, PROVENANCE_FIELDS, required=(), name="provenance")
    if obj["source"] == "semi":
        if obj.get("difficulty") is None or obj.get("n_test_cases") is None:
            raise ValueError("semi records must carry difficulty and n_test_cases")
        if obj["difficulty"] != obj["n_test_cases"]:
            raise ValueError("semi difficulty must equal the test-case count")
        count = len(obj.get("test_cases") or ())
        if obj["n_test_cases"] != count:
            raise ValueError(f"n_test_cases must be {count}, the number of test cases, got {obj['n_test_cases']!r}")
    return {
        **{key: obj.get(key) for key in RECORD_FIELDS},
        "answer_type": obj.get("answer_type") or None,
        "test_cases": obj.get("test_cases") or [],
        "provenance": {key: prov.get(key, "" if key == "problem_id" else None) for key in PROVENANCE_FIELDS},
    }


@contextmanager
def atomic_write(path: str | Path):
    """Yield a UTF-8 text handle whose contents replace ``path`` when the block ends.

    The handle writes a temp file in ``path``'s directory, which is then
    ``os.replace``d over ``path``: a crash of the process leaves the old
    file or the new one, never a part (nothing is fsynced, so a crash of
    the machine may). The temp name holds the pid and thread id, so
    concurrent writers never share one, and it is created afresh with
    "x", so it gets the mode plain ``open`` gives. On failure the temp
    file is removed; an OSError or an unencodable string raises
    SemiforgeError naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    created = False
    try:
        # Only this thread writes this name, so one that exists was left by
        # a crashed process whose pid this one reuses.
        tmp.unlink(missing_ok=True)
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            created = True
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if created:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, (OSError, UnicodeError)):
            raise SemiforgeError(f"could not write {path}: {exc}") from exc
        raise


def json_line(rec: dict) -> str:
    """One record as a line of a JSON-lines file; byte-stable for equal input."""
    return json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n"


def emit_jsonl(records: Iterable[dict], path: str | Path) -> int:
    """Write records one JSON object per line; byte-stable for equal input."""
    count = 0
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json_line(rec))
            count += 1
    return count


def read_json_lines(path: str | Path, check) -> list:
    """Parse a JSON-lines file, passing each value through ``check``.

    A line that is not JSON, or whose value ``check`` rejects with
    ValueError, raises ValueError naming the file and line.
    """
    # Split on b"\n" only: rows are written with ensure_ascii=False, so a
    # string may hold U+2028 or U+0085, which str.splitlines() breaks on.
    rows = []
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rows.append(check(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {n}: {exc.msg}") from exc
            except ValueError as exc:  # UnicodeDecodeError included
                raise ValueError(f"{path} line {n}: {exc}") from exc
    return rows


STAGE_FIELDS = ("loaded_codes", "generated_ok", "with_test_cases", "refined_passed", "after_dedup")
FUNNEL_FIELDS = {**dict.fromkeys(STAGE_FIELDS, Count), "drop_reasons": dict[str, dict[str, Count]]}


@dataclass(frozen=True)
class FunnelStats:
    loaded_codes: int
    generated_ok: int
    with_test_cases: int
    refined_passed: int
    after_dedup: int
    drop_reasons: Mapping[str, Mapping[str, int]] = field(default_factory=dict)

    def counts(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in STAGE_FIELDS)

    def is_monotonic(self) -> bool:
        counts = self.counts()
        return all(c >= 0 for c in counts) and all(
            a >= b for a, b in zip(counts, counts[1:])
        )

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in STAGE_FIELDS}
        out["drop_reasons"] = {
            stage: dict(sorted(reasons.items())) for stage, reasons in sorted(self.drop_reasons.items())
        }
        return out

    @classmethod
    def from_dict(cls, obj) -> "FunnelStats":
        """Read what to_dict wrote; a value it could not have written raises ValueError."""
        check_only(obj, FUNNEL_FIELDS, STAGE_FIELDS, name="funnel")
        return cls(**{name: obj[name] for name in STAGE_FIELDS}, drop_reasons=obj.get("drop_reasons", {}))


def retention_ratios(stats: FunnelStats) -> list[float | None]:
    """Stage-over-stage survival, as percentages rounded to one decimal."""
    counts = stats.counts()
    ratios: list[float | None] = []
    for prev, cur in zip(counts, counts[1:]):
        ratios.append(round(100.0 * cur / prev, 1) if prev else None)
    return ratios


def funnel_report(stats: FunnelStats, format: str = "text") -> str:
    if not stats.is_monotonic():
        raise SemiforgeError(f"funnel counts must be non-negative and non-increasing: {stats.counts()}")
    ratios = retention_ratios(stats)
    if format == "json":
        payload = {
            "stages": {name: getattr(stats, name) for name in STAGE_FIELDS},
            "retention_pct": {
                STAGE_FIELDS[i + 1]: ratios[i] for i in range(len(ratios))
            },
            "drop_reasons": {
                stage: dict(sorted(reasons.items()))
                for stage, reasons in sorted(stats.drop_reasons.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if format != "text":
        raise ValueError(f"unknown report format: {format!r}")

    lines = [f"{STAGE_FIELDS[0]}: {stats.loaded_codes}"]
    for i, name in enumerate(STAGE_FIELDS[1:]):
        ratio = ratios[i]
        shown = "n/a" if ratio is None else f"{ratio:.1f}%"
        lines.append(f"{name}: {getattr(stats, name)} ({shown} of {STAGE_FIELDS[i]})")
    for stage in sorted(stats.drop_reasons):
        reasons = stats.drop_reasons[stage]
        if not reasons:
            continue
        breakdown = ", ".join(f"{reason}={count}" for reason, count in sorted(reasons.items()))
        lines.append(f"drops [{stage}]: {breakdown}")
    return "\n".join(lines)
