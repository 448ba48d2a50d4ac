import json
import re
import threading
from typing import Literal

import pytest
from hypothesis import given, strategies as st

from semiforge.dataset import (
    Count,
    FunnelStats,
    NonEmpty,
    check_fields,
    describe_kind,
    emit_jsonl,
    funnel_report,
    record,
    retention_ratios,
)
from semiforge.errors import SemiforgeError
from semiforge.executor import STATUSES
from tests.conftest import load_jsonl


def semi_record(seq=0):
    return record(
        {
            "instruction": "do the thing",
            "code": "print(1)",
            "source": "semi",
            "provenance": {"problem_id": "p1", "solution_index": 0, "seq": seq},
            "difficulty": 1,
            "n_test_cases": 1,
            "answer_type": {"kind": "standard_input", "function_name": None},
            "test_cases": [
                {"mode": "stdin", "payload": "1", "function_name": None, "expected_output": "1"}
            ],
        }
    )


def test_semi_record_requires_matching_difficulty():
    base = {"instruction": "x", "code": "y", "source": "semi"}
    with pytest.raises(ValueError, match="difficulty must equal"):
        record({**base, "difficulty": 3, "n_test_cases": 2})
    with pytest.raises(ValueError, match="must carry difficulty"):
        record(base)
    with pytest.raises(ValueError, match="must carry difficulty"):
        record({**base, "difficulty": None, "n_test_cases": None})
    with pytest.raises(ValueError, match="n_test_cases must be 1, the number of test cases, got 4"):
        record({**semi_record(), "difficulty": 4, "n_test_cases": 4})


def test_unknown_source_rejected():
    with pytest.raises(ValueError, match="source must be one of 'semi', 'ni', 'si', got 'scraped'"):
        record({"instruction": "x", "code": "y", "source": "scraped"})


@pytest.mark.parametrize(
    "value, problem",
    [
        ([1, 2], "record must be an object, got [1, 2]"),
        ({"code": "y", "source": "si"}, "instruction must be a string, got nothing"),
        ({"instruction": "x"}, "code must be a string, got nothing"),
        ({"instruction": "x", "code": "y", "source": "si", "provenance": [1]}, "provenance must be an object or null, got [1]"),
    ],
    ids=[
        "value0-record is not a JSON object",
        "value1-record lacks instruction",
        "value2-record lacks code, source",
        "value3-provenance is not",
    ],
)
def test_record_names_its_first_defect(value, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        record(value)


@pytest.mark.parametrize(
    "value, kinds",
    [(True, {bool}), (False, {bool}), (1, {int, float, Count}), (0, {int, float, Count})],
    ids=["true", "false", "1", "0"],
)
def test_true_and_false_are_bool_only(value, kinds):
    for kind in (bool, str, int, float, Count, list, dict, type(None)):
        if kind in kinds:
            assert check_fields({"key": value}, {"key": kind}) == {"key": value}
        else:
            with pytest.raises(ValueError, match=re.escape(f"key must be {describe_kind(kind)}, got {value!r}")):
                check_fields({"key": value}, {"key": kind})


@pytest.mark.parametrize(
    "kind, value, message",
    [
        (Count | None, -1, "key must be an integer >= 0 or null, got -1"),
        (dict[str, Count] | None, {"a": "b"},
         "key must be an object, each key a string, each value an integer >= 0 or null, got {'a': 'b'}"),
        (Literal["ok", "drop"], "maybe", "key must be one of 'ok', 'drop', got 'maybe'"),
        (NonEmpty[dict], [], "key must be a non-empty array, each item an object, got []"),
        (NonEmpty[dict], [{"mode": "stdin"}, "stdin"], "key[1] must be an object, got 'stdin'"),
        (list[str], ["a", 1], "key[1] must be a string, got 1"),
        (list[str], "a", "key must be an array, each item a string, got 'a'"),
        (dict[str, dict[str, Count]], {"a": {"b": -1}}, "key['a']['b'] must be an integer >= 0, got -1"),
        (dict[Literal[STATUSES], Count], {"ok": 1, "x": 1},
         "key key must be one of 'ok', 'runtime_error', 'timeout', 'output_overflow', got 'x'"),
        (dict[Literal[STATUSES], Count], {"timeout": True}, "key['timeout'] must be an integer >= 0, got True"),
        # A string that UTF-8 cannot encode (a JSON "\ud800" reads as one) fails whatever kind holds it.
        (str, "say \ud800", "'utf-8' codec can't encode character '\\ud800' in position 4: surrogates not allowed"),
        (str | int, "\udc80", "'utf-8' codec can't encode character '\\udc80' in position 0: surrogates not allowed"),
        (dict[str, Count], {"\ud800": 1}, "'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed"),
    ],
    ids=[
        "union-no-member", "union-nested-value", "literal", "non-empty-empty", "non-empty-bad-case",
        "list-item", "list-not-array", "dict-nested-value", "dict-key", "dict-value",
        "str-unencodable", "union-unencodable", "dict-key-unencodable",
    ],
)
def test_each_kind_form_names_a_failing_value(kind, value, message):
    with pytest.raises(ValueError) as excinfo:
        check_fields({"key": value}, {"key": kind})
    assert str(excinfo.value) == message


def test_record_round_trip():
    once = semi_record()
    assert record(once) == once
    assert record(json.loads(json.dumps(once))) == once
    assert once["answer_type"]["kind"] == "standard_input"
    assert once["test_cases"][0]["payload"] == "1"


def test_record_fills_defaults_and_drops_unknown_keys():
    rec = record(
        {"instruction": "x", "code": "y", "source": "ni", "answer_type": {}, "extra": 1}
    )
    assert rec == {
        "instruction": "x",
        "code": "y",
        "source": "ni",
        "difficulty": None,
        "n_test_cases": None,
        "answer_type": None,
        "test_cases": [],
        "provenance": {"problem_id": "", "solution_index": None, "seq": None},
    }


def test_record_checks_every_string_its_free_form_keys_hold():
    """answer_type and test_cases take any shape, but every string in them, keys included, must encode as UTF-8."""
    fine = {"kind": ["caf\u00e9", {"\u00e9": [None, 1.5, True]}]}
    base = {"instruction": "x", "code": "y", "source": "si", "extra": ["\ud800"]}  # an unknown key is dropped unread
    assert record({**base, "answer_type": fine, "test_cases": [fine]})["test_cases"] == [fine]
    for key, value in (("test_cases", [{"payload": "\ud800"}]), ("answer_type", {"kind": {"\udfff": 1}})):
        with pytest.raises(UnicodeEncodeError, match="surrogates not allowed"):
            record({**base, key: value})


def test_si_record_without_difficulty():
    rec = record(
        {
            "instruction": "write a poem function",
            "code": "def poem():\n    return 'hi'",
            "source": "si",
            "provenance": {"problem_id": "si-1", "seq": 4},
        }
    )
    assert rec["difficulty"] is None
    assert rec["provenance"]["seq"] == 4


def test_emit_and_read_jsonl(tmp_path):
    records = [semi_record(seq=i) for i in range(3)]
    path = tmp_path / "out" / "dataset.jsonl"
    path.parent.mkdir()
    count = emit_jsonl(records, path)
    assert count == 3
    assert [record(obj) for obj in load_jsonl(path)] == records


def test_emit_is_byte_stable(tmp_path):
    records = [semi_record(seq=i) for i in range(3)]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    emit_jsonl(records, first)
    emit_jsonl(records, second)
    assert first.read_bytes() == second.read_bytes()


def test_emit_unwritable_path(tmp_path):
    with pytest.raises(SemiforgeError, match="could not write"):
        emit_jsonl([semi_record()], tmp_path / "missing" / "dataset.jsonl")


def test_concurrent_writers_leave_one_whole_payload(tmp_path):
    path = tmp_path / "shared.jsonl"
    payloads = [[{"writer": w, "row": i, "pad": "x" * 64} for i in range(2000)] for w in range(8)]
    barrier = threading.Barrier(len(payloads))

    def write(rows):
        barrier.wait()
        emit_jsonl(rows, path)

    threads = [threading.Thread(target=write, args=(rows,)) for rows in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert load_jsonl(path) in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["shared.jsonl"]


PUBLISHED = FunnelStats(
    loaded_codes=126, generated_ok=92, with_test_cases=69, refined_passed=54, after_dedup=40
)


def test_retention_ratios_reference_counts():
    assert retention_ratios(PUBLISHED) == [73.0, 75.0, 78.3, 74.1]


def test_retention_ratio_zero_guard():
    assert retention_ratios(FunnelStats(0, 0, 0, 0, 0)) == [None, None, None, None]


def test_monotonicity_check():
    assert PUBLISHED.is_monotonic()
    assert not FunnelStats(10, 12, 5, 4, 3).is_monotonic()
    assert not FunnelStats(10, -1, -1, -1, -1).is_monotonic()


def test_funnel_report_text():
    report = funnel_report(PUBLISHED, format="text")
    lines = report.splitlines()
    assert lines[0] == "loaded_codes: 126"
    assert "generated_ok: 92 (73.0% of loaded_codes)" in lines
    assert "after_dedup: 40 (74.1% of refined_passed)" in lines


def test_funnel_report_includes_drops():
    stats = FunnelStats(5, 4, 3, 2, 1, drop_reasons={"generate": {"parse_error": 1}})
    report = funnel_report(stats, format="text")
    assert "drops [generate]: parse_error=1" in report


def test_funnel_report_json():
    stats = FunnelStats(5, 4, 3, 2, 1, drop_reasons={"generate": {"parse_error": 1}})
    blob = json.loads(funnel_report(stats, format="json"))
    assert blob["stages"]["after_dedup"] == 1
    assert blob["retention_pct"]["generated_ok"] == 80.0
    assert blob["drop_reasons"]["generate"]["parse_error"] == 1


def test_funnel_report_rejects_non_monotonic():
    with pytest.raises(SemiforgeError, match="funnel counts must be non-negative and non-increasing"):
        funnel_report(FunnelStats(1, 2, 3, 4, 5))


def test_funnel_report_unknown_format():
    with pytest.raises(ValueError):
        funnel_report(PUBLISHED, format="yaml")


def test_stats_round_trip():
    stats = FunnelStats(5, 4, 3, 2, 1, drop_reasons={"dedup": {"near_duplicate": 1}})
    assert FunnelStats.from_dict(stats.to_dict()) == stats


decreasing = st.lists(st.integers(min_value=0, max_value=1000), min_size=5, max_size=5).map(
    lambda xs: sorted(xs, reverse=True)
)


@given(decreasing)
def test_ratios_bounded_for_monotone_counts(counts):
    for ratio in retention_ratios(FunnelStats(*counts)):
        assert ratio is None or 0.0 <= ratio <= 100.0
