"""Dataset records, the files semiforge reads and writes, and the funnel report.

A dataset record is the plain JSON object one line of ``dataset.jsonl``
holds: an instruction paired with code, tagged with its source stream
(semi, ni, si) and enough provenance to reconstruct any ordering. Semi
records additionally keep their test cases so correctness can be
re-checked from the emitted file alone. ``record`` is the one place
that format is checked and completed.

Every file semiforge writes goes through ``atomic_write``, and every
JSON-lines file through ``emit_jsonl`` and ``read_json_lines``.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import SemiforgeError

SOURCES = ("semi", "ni", "si")


class IoFailure(SemiforgeError):
    pass


class InvalidStats(SemiforgeError):
    pass


def record(obj) -> dict:
    """Turn a JSON value read from a file into the record that gets written.

    Optional keys get their defaults and unknown keys are dropped; a
    value that cannot be a record raises ValueError naming the defect.
    """
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    missing = [key for key in ("instruction", "code", "source") if key not in obj]
    if missing:
        raise ValueError(f"record lacks {', '.join(missing)}")
    if obj["source"] not in SOURCES:
        raise ValueError(f"unknown record source: {obj['source']!r}")
    prov = obj.get("provenance") or {}
    if not isinstance(prov, dict):
        raise ValueError("record provenance is not a JSON object")
    if obj["source"] == "semi":
        if obj.get("difficulty") is None or obj.get("n_test_cases") is None:
            raise ValueError("semi records must carry difficulty and n_test_cases")
        if obj["difficulty"] != obj["n_test_cases"]:
            raise ValueError("semi difficulty must equal the test-case count")
    return {
        "instruction": obj["instruction"],
        "code": obj["code"],
        "source": obj["source"],
        "difficulty": obj.get("difficulty"),
        "n_test_cases": obj.get("n_test_cases"),
        "answer_type": obj.get("answer_type") or None,
        "test_cases": obj.get("test_cases") or [],
        "provenance": {
            "problem_id": prov.get("problem_id", ""),
            "solution_index": prov.get("solution_index"),
            "seq": prov.get("seq"),
        },
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
    IoFailure naming ``path``.
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
            raise IoFailure(f"could not write {path}: {exc}") from exc
        raise


def emit_jsonl(records: Iterable[dict], path: str | Path) -> int:
    """Write records one JSON object per line; byte-stable for equal input."""
    count = 0
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
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


def require_fields(row, keys) -> dict:
    """Return ``row`` if it is a JSON object holding every key, else raise ValueError."""
    if not isinstance(row, dict):
        raise ValueError("row is not a JSON object")
    missing = [key for key in keys if key not in row]
    if missing:
        raise ValueError(f"row lacks {', '.join(missing)}")
    return row


STAGE_FIELDS = ("loaded_codes", "generated_ok", "with_test_cases", "refined_passed", "after_dedup")


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
    def from_dict(cls, obj: Mapping) -> "FunnelStats":
        require_fields(obj, STAGE_FIELDS)
        return cls(
            **{name: int(obj[name]) for name in STAGE_FIELDS},
            drop_reasons={k: dict(v) for k, v in obj.get("drop_reasons", {}).items()},
        )


def retention_ratios(stats: FunnelStats) -> list[float | None]:
    """Stage-over-stage survival, as percentages rounded to one decimal."""
    counts = stats.counts()
    ratios: list[float | None] = []
    for prev, cur in zip(counts, counts[1:]):
        ratios.append(round(100.0 * cur / prev, 1) if prev else None)
    return ratios


def funnel_report(stats: FunnelStats, format: str = "text") -> str:
    if not stats.is_monotonic():
        raise InvalidStats(f"funnel counts must be non-negative and non-increasing: {stats.counts()}")
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
