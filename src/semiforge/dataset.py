"""Dataset records, JSONL emission, and the funnel report.

A dataset record is the plain JSON object one line of ``dataset.jsonl``
holds: an instruction paired with code, tagged with its source stream
(semi, ni, si) and enough provenance to reconstruct any ordering. Semi
records additionally keep their test cases so correctness can be
re-checked from the emitted file alone. ``record`` is the one place
that format is checked and completed.
"""

from __future__ import annotations

import json
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


def emit_jsonl(records: Iterable[dict], path: str | Path) -> int:
    """Write records one JSON object per line; byte-stable for equal input."""
    count = 0
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for rec in records:
                fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True))
                fh.write("\n")
                count += 1
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}") from exc
    return count


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
