import errno
import json
import os
import shutil
import stat
import sys
import tracemalloc
from pathlib import Path

import pytest

from semiforge import pipeline
from semiforge.corpus import Problem
from semiforge.dataset import emit_jsonl
from semiforge.errors import SemiforgeError
from semiforge.executor import Invocation, SandboxSetupFailure, resolve_interpreter
from semiforge.generation import prompt_digest
from semiforge.pipeline import (
    DATASET_FILE,
    EVENTS_FILE,
    FUNNEL_FILE,
    MANIFEST_FILE,
    STAGES,
    UNIT_FIELDS,
    InvalidConfig,
    PipelineConfig,
    StageFailure,
    _read_rows,
    canonical_stage,
    invocation_for,
    load_config,
    run_pipeline,
    stage_path,
)
from tests.conftest import FIXTURES, GOLDEN, load_jsonl, write_corpus
from tests.test_generation import ok_body

EXPECTED_FUNNEL = (33, 30, 28, 24, 21)


def test_invocation_for_both_kinds():
    stdin_inv = invocation_for({"kind": "standard_input", "function_name": None}, "1 2")
    assert stdin_inv.mode == "stdin" and stdin_inv.payload == "1 2"
    call_inv = invocation_for({"kind": "call_based", "function_name": "f"}, "(1,)")
    assert call_inv.mode == "call" and call_inv.function_name == "f"


def test_golden_funnel_counts(golden_run):
    _, _, stats = golden_run
    assert stats.counts() == EXPECTED_FUNNEL
    assert stats.is_monotonic()


def test_golden_drop_reasons(golden_run):
    _, _, stats = golden_run
    assert stats.drop_reasons["generate"] == {
        "missing_section:Refined Code": 1,
        "unknown_answer_type": 1,
        "missing_function_name": 1,
    }
    assert stats.drop_reasons["construct"] == {"empty_test_cases": 2}
    assert stats.drop_reasons["validate"] == {
        "wrong_output": 2,
        "runtime_error": 1,
        "timeout": 1,
    }
    assert stats.drop_reasons["dedup"] == {"near_duplicate": 3}


def test_golden_funnel_file_matches_committed(golden_run):
    _, out_dir, _ = golden_run
    produced = (out_dir / FUNNEL_FILE).read_bytes()
    assert produced == (GOLDEN / "funnel_stats.json").read_bytes()


def test_golden_dataset_matches_committed(golden_run):
    _, out_dir, _ = golden_run
    assert (out_dir / DATASET_FILE).read_bytes() == (GOLDEN / "dataset.jsonl").read_bytes()


def test_all_artifacts_written(golden_run):
    _, out_dir, _ = golden_run
    for stage in STAGES[:-1]:
        assert stage_path(out_dir, stage).is_file()
    for name in (DATASET_FILE, FUNNEL_FILE, EVENTS_FILE, MANIFEST_FILE):
        assert (out_dir / name).is_file()


def test_stage_files_keep_dropped_rows(golden_run):
    _, out_dir, _ = golden_run
    generate_rows = load_jsonl(stage_path(out_dir, "generate"))
    assert len(generate_rows) == 33
    by_status = {"ok": 0, "drop": 0}
    for row in generate_rows:
        by_status[row["status"]] += 1
        if row["status"] == "drop":
            assert row["reason"]
    assert by_status == {"ok": 30, "drop": 3}


def test_dataset_is_ranked_with_stable_ties(golden_run):
    _, out_dir, _ = golden_run
    records = load_jsonl(out_dir / DATASET_FILE)
    difficulties = [r["difficulty"] for r in records]
    assert difficulties == sorted(difficulties, reverse=True)
    seqs_within_difficulty: dict[int, list[int]] = {}
    for record in records:
        seqs_within_difficulty.setdefault(record["difficulty"], []).append(
            record["provenance"]["seq"]
        )
    for seqs in seqs_within_difficulty.values():
        assert seqs == sorted(seqs)


def test_resume_reproduces_outputs(golden_run, tmp_path):
    config, out_dir, _ = golden_run
    cold_manifest = json.loads((out_dir / MANIFEST_FILE).read_text(encoding="utf-8"))
    for stage in STAGES[1:]:
        resumed_dir = tmp_path / stage
        shutil.copytree(out_dir, resumed_dir)
        for name in (DATASET_FILE, FUNNEL_FILE, EVENTS_FILE, MANIFEST_FILE):
            (resumed_dir / name).unlink()
        stats = run_pipeline(resumed_from(config, resumed_dir, stage))
        assert stats.counts() == EXPECTED_FUNNEL, stage
        for name in (DATASET_FILE, FUNNEL_FILE, EVENTS_FILE, *(stage_path(out_dir, s).name for s in STAGES[:-1])):
            assert (resumed_dir / name).read_bytes() == (out_dir / name).read_bytes(), (stage, name)
        manifest = json.loads((resumed_dir / MANIFEST_FILE).read_text(encoding="utf-8"))
        assert manifest["row_counts"] == cold_manifest["row_counts"], stage
        assert manifest["stages_loaded"] == list(STAGES[: STAGES.index(stage)]), stage


def test_resume_from_emit_only(golden_run, golden_run_copy):
    config, out_dir, _ = golden_run
    resumed = PipelineConfig.from_dict(config.to_dict())
    resumed.out_dir = str(golden_run_copy)
    resumed.resume_from = "emit"
    (golden_run_copy / DATASET_FILE).unlink()
    run_pipeline(resumed)
    assert (golden_run_copy / DATASET_FILE).read_bytes() == (out_dir / DATASET_FILE).read_bytes()


def test_resume_without_stage_files(tmp_path, golden_config_path):
    config = load_config(golden_config_path)
    config.out_dir = str(tmp_path)
    config.resume_from = "generate"
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(config)
    assert excinfo.value.stage == "ingest"
    assert "run earlier stages first" in str(excinfo.value)


def truncate_mid_row(path) -> int:
    """Cut a stage file halfway through its middle row; return that row's line number."""
    lines = path.read_bytes().split(b"\n")
    cut = len(lines) // 2
    path.write_bytes(b"\n".join(lines[:cut] + [lines[cut][: len(lines[cut]) // 2]]))
    return cut + 1


@pytest.mark.parametrize(
    "stage, resume",
    [pytest.param(stage, STAGES[STAGES.index(stage) + 1], id=stage) for stage in UNIT_FIELDS]
    # A resumed run reads and checks every earlier stage file, not only the one its first stage works on.
    + [pytest.param(stage, "order", id=f"{stage}-resumed_at_order") for stage in list(UNIT_FIELDS)[:-1]],
)
def test_truncated_stage_file_fails_naming_line(golden_run, golden_run_copy, stage, resume):
    config, _, _ = golden_run
    line = truncate_mid_row(stage_path(golden_run_copy, stage))
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(resumed_from(config, golden_run_copy, resume))
    assert excinfo.value.stage == stage
    assert f"stage_{stage}.jsonl line {line}: " in str(excinfo.value)


def test_resumed_run_holds_one_stage_at_a_time(golden_run, tmp_path):
    # The golden unit-stage files 50 times over, each unit under an id of its own (1,650 units).
    config, out_dir, _ = golden_run
    for stage in UNIT_FIELDS:
        rows = load_jsonl(stage_path(out_dir, stage))
        copies = ({**row, "unit_id": f"{row['unit_id']}.{copy}"} for copy in range(50) for row in rows)
        emit_jsonl(copies, stage_path(tmp_path, stage))
    largest = max(UNIT_FIELDS, key=lambda stage: stage_path(tmp_path, stage).stat().st_size)
    tracemalloc.start()
    try:
        _read_rows(largest, stage_path(tmp_path, largest))
        alone = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        stats = run_pipeline(resumed_from(config, tmp_path, "order"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.counts() == tuple(50 * count for count in EXPECTED_FUNNEL)
    assert peak <= 1.5 * alone, f"peak {peak / 2**20:.1f} MiB, reading {largest} alone {alone / 2**20:.1f} MiB"


def resumed_from(config, out_dir, stage):
    resumed = PipelineConfig.from_dict(config.to_dict())
    resumed.out_dir = str(out_dir)
    resumed.resume_from = stage
    return resumed


def with_answer_type(ok, **changes):
    return {**ok, "answer_type": {**ok["answer_type"], **changes}}


def with_case(ok, **changes):
    case = {"mode": "stdin", "payload": "1", "function_name": None, "expected_output": "1", **changes}
    return {**ok, "test_cases": [case]}


@pytest.mark.parametrize(
    "stage, make_row, problem",
    [
        (
            "ingest",
            lambda ok: {"unit_id": "new:0", "status": "drop", "reason": "made_up"},
            "status must be one of 'ok', got 'drop'",
        ),
        ("validate", lambda ok: [1, 2], "row must be an object, got [1, 2]"),
        ("validate", lambda ok: "text", "row must be an object, got 'text'"),
        ("validate", lambda ok: {k: v for k, v in ok.items() if k != "instruction"}, "instruction must be a string, got nothing"),
        (
            "generate",
            lambda ok: with_answer_type(ok, kind="call_based", function_name="1bad"),
            "call mode needs a valid function name, got '1bad'",
        ),
        (
            "generate",
            lambda ok: with_answer_type(ok, kind="call_based", function_name="None"),
            "call mode needs a valid function name, got 'None'",
        ),
        (
            "generate",
            lambda ok: with_answer_type(ok, kind="standard_input", function_name="f"),
            "stdin mode takes no function name, got 'f'",
        ),
        (
            "generate",
            lambda ok: with_answer_type(ok, extra=1),
            "answer_type must hold no key but kind, function_name, got 'extra'",
        ),
        (
            "generate",
            lambda ok: {**ok, "answer_type": "stdin"},
            "answer_type must be an object, got 'stdin'",
        ),
        (
            "generate",
            lambda ok: with_answer_type(ok, kind="stdin"),
            "kind must be one of 'call_based', 'standard_input', got 'stdin'",
        ),
        ("generate", lambda ok: {**ok, "raw_inputs": [1]}, "raw_inputs[0] must be a string, got 1"),
        ("generate", lambda ok: {**ok, "raw_inputs": "abc"}, "raw_inputs must be an array, each item a string, got 'abc'"),
        ("generate", lambda ok: {**ok, "code": 5}, "code must be a string, got 5"),
        ("construct", lambda ok: {**ok, "refined_code": None}, "refined_code must be a string, got None"),
        ("generate", lambda ok: {**ok, "instruction": ["Do it."]}, "instruction must be a string, got ['Do it.']"),
        (
            "construct",
            lambda ok: with_case(ok, mode="call", function_name=5),
            "function_name must be a string or null, got 5",
        ),
        (
            "construct",
            lambda ok: with_case(ok, function_name="f"),
            "test_cases[0] must have mode 'stdin' and function_name None as answer_type gives, got 'stdin' and 'f'",
        ),
        ("construct", lambda ok: with_case(ok, payload=1), "payload must be a string, got 1"),
        (
            "construct",
            lambda ok: with_case(ok, mode="call", function_name="f"),
            "test_cases[0] must have mode 'stdin' and function_name None as answer_type gives, got 'call' and 'f'",
        ),
        ("construct", lambda ok: {**ok, "test_cases": []}, "test_cases must be a non-empty array, each item an object, got []"),
        (
            "construct",
            lambda ok: {**ok, "extra_field": 1},
            "row must hold no key but unit_id, problem_id, solution_index, seq, code, prompt_sha256, instruction,"
            " refined_code, answer_type, raw_inputs, test_cases, input_drops, status, reason, got 'extra_field'",
        ),
        (
            "construct",
            lambda ok: {**ok, "test_cases": [{**ok["test_cases"][0], "note": "hand-added"}, *ok["test_cases"][1:]]},
            "test_cases[0] must hold no key but mode, payload, function_name, expected_output, got 'note'",
        ),
        (
            "construct",
            lambda ok: with_case(ok, payload="caf\udfff"),
            "'utf-8' codec can't encode character '\\udfff' in position 3: surrogates not allowed",
        ),
        (
            "construct",
            lambda ok: {**ok, "input_drops": {"ok": 5, "timeout": 40}},
            "input_drops key must be one of 'runtime_error', 'timeout', 'output_overflow', got 'ok'",
        ),
        (
            "construct",
            lambda ok: {**ok, "input_drops": {"timeout": 40}},
            "input_drops must count 0, the inputs of raw_inputs that made no test case, got 40",
        ),
        ("validate", lambda ok: {**ok, "case_index": 7}, "case_index must be null on an ok row or a dedup row, got 7"),
        (
            "validate",
            lambda ok: {**ok, "status": "drop", "reason": "wrong_output", "case_index": 99},
            "case_index must be below 4, the number of test cases, got 99",
        ),
        (
            "dedup",
            lambda ok: {**ok, "status": "drop", "reason": "near_duplicate", "case_index": 0},
            "case_index must be null on an ok row or a dedup row, got 0",
        ),
    ],
    ids=[
        "ingest_drop",
        "array",
        "string",
        "ok_row_without_instruction",
        "function_name_not_identifier",
        "function_name_keyword",
        "stdin_answer_with_function_name",
        "answer_type_extra_key",
        "answer_type_not_object",
        "answer_type_unknown_kind",
        "raw_inputs_item_not_str",
        "raw_inputs_str",
        "code_not_str",
        "refined_code_not_str",
        "instruction_not_str",
        "case_function_name_not_str",
        "stdin_case_with_function_name",
        "case_payload_not_str",
        "call_case_of_stdin_unit",
        "no_test_cases",
        "row_extra_key",
        "case_extra_key",
        "case_payload_unencodable",
        "input_drops_ok_status",
        "input_drops_miscount",
        "ok_row_with_case_index",
        "case_index_past_cases",
        "dedup_row_with_case_index",
    ],
)
def test_non_unit_stage_row_fails_naming_line(golden_run, golden_run_copy, stage, make_row, problem):
    config, _, _ = golden_run
    path = stage_path(golden_run_copy, stage)
    rows = load_jsonl(path)
    ok = next(row for row in rows if row["status"] == "ok")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(make_row(ok)) + "\n")
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(resumed_from(config, golden_run_copy, STAGES[STAGES.index(stage) + 1]))
    assert excinfo.value.stage == stage
    assert f"stage_{stage}.jsonl line {len(rows) + 1}: {problem}" in str(excinfo.value)


def test_drop_row_needs_only_unit_id_status_and_reason(tmp_path):
    path = stage_path(tmp_path, "construct")
    emit_jsonl([{"unit_id": "p:0", "status": "drop", "reason": "sandbox_failure"}], path)
    assert len(_read_rows("construct", path)) == 1
    emit_jsonl([{"unit_id": "p:0", "status": "drop"}], path)
    with pytest.raises(StageFailure, match="line 1: reason must be a string, got nothing"):
        _read_rows("construct", path)


def test_a_resumed_validate_decodes_each_stored_case_once(golden_run, golden_run_copy, monkeypatch):
    """Validate builds one Invocation per stored case; the check of a stage file one per answer type, none per case."""
    config, _, _ = golden_run
    built = []
    new = Invocation.__new__  # where an Invocation's check runs

    def counted(cls, *args, **kwargs):
        built.append(new(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(Invocation, "__new__", counted)
    stats = run_pipeline(resumed_from(config, golden_run_copy, "validate"))
    assert stats.counts() == EXPECTED_FUNNEL
    checked = [row for stage in ("ingest", "generate", "construct") for row in load_jsonl(stage_path(golden_run_copy, stage))]
    cases = sum(len(row["test_cases"]) for row in load_jsonl(stage_path(golden_run_copy, "construct")) if row["status"] == "ok")
    answer_types = sum("answer_type" in row for row in checked)
    assert (cases, answer_types) == (103, 60)
    assert len(built) == cases + answer_types


def test_a_unit_listed_twice_fails_naming_file_line_and_unit(golden_run, golden_run_copy):
    config, _, _ = golden_run
    path = stage_path(golden_run_copy, "dedup")
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines) + lines[0])
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(resumed_from(config, golden_run_copy, "order"))
    unit_id = json.loads(lines[0])["unit_id"]
    assert excinfo.value.stage == "dedup"
    assert f"{path} line {len(lines) + 1}: unit_id {unit_id!r} is listed twice" in str(excinfo.value)
    assert (golden_run_copy / DATASET_FILE).read_bytes() == (GOLDEN / DATASET_FILE).read_bytes()


def test_stages_extend_the_unit_row(golden_run):
    _, out_dir, _ = golden_run
    stages = list(UNIT_FIELDS)
    fields = {"status", "reason"}
    for index, stage in enumerate(stages):
        fields |= set(UNIT_FIELDS[stage])
        rows = load_jsonl(stage_path(out_dir, stage))
        for row in rows:
            if row["status"] == "ok":
                assert set(row) == fields, (stage, row["unit_id"])
        if index == 0:
            continue
        before = {row["unit_id"]: row for row in load_jsonl(stage_path(out_dir, stages[index - 1]))}
        for row in rows:
            source = {k: v for k, v in before[row["unit_id"]].items() if k not in ("status", "reason")}
            assert {k: row[k] for k in source if k in row} == source, (stage, row["unit_id"])


def test_scale_slices_ordered_records(golden_run, golden_run_copy):
    config, _, _ = golden_run
    resumed = resumed_from(config, golden_run_copy, "order")
    golden = (GOLDEN / "dataset.jsonl").read_bytes()
    lines = golden.splitlines(keepends=True)
    for scale, expected in ((0, b""), (5, b"".join(lines[:5])), (100, golden)):
        resumed.scale = scale
        run_pipeline(resumed)
        assert (golden_run_copy / DATASET_FILE).read_bytes() == expected, scale
    resumed.scale = -1
    with pytest.raises(InvalidConfig, match="scale must be an integer >= 0 or null, got -1"):
        run_pipeline(resumed)


# Partial self-instruct records: optional keys missing, an unknown key,
# an empty answer type. The expected lines are what the previous record
# model (a frozen dataclass round-trip) wrote for this file.
PARTIAL_SI = [
    {"instruction": "Print hello.", "code": "print('hello')", "source": "si", "provenance": {"seq": 2}},
    {
        "instruction": "Add two numbers.",
        "code": "def add(a, b):\n    return a + b",
        "source": "si",
        "answer_type": {},
        "provenance": {"problem_id": "si-1", "seq": 0},
        "note": "unknown key",
    },
    {
        "instruction": "Echo a line.",
        "code": "print(input())",
        "source": "si",
        "difficulty": 1,
        "provenance": {"problem_id": "si-2", "solution_index": 3, "seq": 1},
    },
]
PARTIAL_SI_EMITTED = (
    b'{"answer_type": null, "code": "def add(a, b):\\n    return a + b", "difficulty": null, '
    b'"instruction": "Add two numbers.", "n_test_cases": null, "provenance": {"problem_id": '
    b'"si-1", "seq": 0, "solution_index": null}, "source": "si", "test_cases": []}\n'
    b'{"answer_type": null, "code": "print(input())", "difficulty": 1, "instruction": '
    b'"Echo a line.", "n_test_cases": null, "provenance": {"problem_id": "si-2", "seq": 1, '
    b'"solution_index": 3}, "source": "si", "test_cases": []}\n'
    b'{"answer_type": null, "code": "print(\'hello\')", "difficulty": null, "instruction": '
    b'"Print hello.", "n_test_cases": null, "provenance": {"problem_id": "", "seq": 2, '
    b'"solution_index": null}, "source": "si", "test_cases": []}\n'
)


def write_si(path, records, ensure_ascii=True):
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=ensure_ascii) + "\n" for r in records), encoding="utf-8"
    )
    return path


def test_partial_si_records_emit_unchanged(golden_run, golden_run_copy):
    config, _, _ = golden_run
    resumed = resumed_from(config, golden_run_copy, "order")
    resumed.si_path = str(write_si(golden_run_copy / "si.jsonl", PARTIAL_SI))
    resumed.order = "combined_si_then_semi"
    run_pipeline(resumed)
    golden = (GOLDEN / "dataset.jsonl").read_bytes()
    assert (golden_run_copy / DATASET_FILE).read_bytes() == PARTIAL_SI_EMITTED + golden
    resumed.resume_from = "emit"
    run_pipeline(resumed)
    assert (golden_run_copy / DATASET_FILE).read_bytes() == PARTIAL_SI_EMITTED + golden


def test_si_record_with_line_separator_is_emitted(golden_run, golden_run_copy):
    config, _, _ = golden_run
    resumed = resumed_from(config, golden_run_copy, "order")
    si = {"instruction": "Read\u2028two lines.", "code": "print(1)", "source": "si", "provenance": {"seq": 0}}
    resumed.si_path = str(write_si(golden_run_copy / "si.jsonl", [si], ensure_ascii=False))
    resumed.order = "combined_si_then_semi"
    run_pipeline(resumed)
    first = load_jsonl(golden_run_copy / DATASET_FILE)[0]
    assert first["instruction"] == "Read\u2028two lines."


BAD_SI = {
    "difficulty_mismatch": (
        {"instruction": "x", "code": "y", "source": "semi", "difficulty": 3, "n_test_cases": 2},
        "semi difficulty must equal the test-case count",
    ),
    "no_instruction": ({"code": "y", "source": "si"}, "instruction must be a string, got nothing"),
    "provenance_not_object": (
        {"instruction": "x", "code": "y", "source": "si", "provenance": "si-1"},
        "provenance must be an object or null, got 'si-1'",
    ),
}


@pytest.mark.parametrize(
    "order, missing, problem",
    [
        ("si_generated_order", "seq", "si_generated_order needs a generation sequence number on every record"),
        ("ni_shuffled", "problem_id", "ni_shuffled needs a problem id on every record"),
    ],
)
def test_si_record_without_what_its_ordering_reads_fails_order(golden_run, golden_run_copy, order, missing, problem):
    config, _, _ = golden_run
    resumed = resumed_from(config, golden_run_copy, "order")
    provenance = {key: value for key, value in {"problem_id": "si-9", "seq": 9}.items() if key != missing}
    si = {"instruction": "x", "code": "y", "source": "si", "provenance": provenance}
    resumed.si_path = str(write_si(golden_run_copy / "si.jsonl", [si]))
    resumed.order = order
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(resumed)
    assert excinfo.value.stage == "order"
    assert problem in str(excinfo.value)


@pytest.mark.parametrize("case", sorted(BAD_SI))
def test_bad_si_record_fails_naming_line(golden_run, golden_run_copy, case):
    config, _, _ = golden_run
    bad, problem = BAD_SI[case]
    resumed = resumed_from(config, golden_run_copy, "order")
    resumed.si_path = str(write_si(golden_run_copy / "si.jsonl", [PARTIAL_SI[0], bad]))
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(resumed)
    assert excinfo.value.stage == "order"
    assert f"si.jsonl line 2: {problem}" in str(excinfo.value)


def test_order_row_without_instruction_fails_emit(golden_run, golden_run_copy):
    config, _, _ = golden_run
    path = stage_path(golden_run_copy, "order")
    rows = load_jsonl(path)
    del rows[0]["instruction"]
    emit_jsonl(rows, path)
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(resumed_from(config, golden_run_copy, "emit"))
    assert excinfo.value.stage == "order"
    assert "stage_order.jsonl line 1: instruction must be a string, got nothing" in str(excinfo.value)


# A dedup row as the stages write it: every unit field, each of its type.
OK_DEDUP_ROW = {
    "unit_id": "p:0",
    "problem_id": "p",
    "solution_index": 0,
    "seq": 0,
    "code": "print(1)",
    "prompt_sha256": "0" * 64,
    "instruction": "Print one.",
    "refined_code": "print(1)",
    "answer_type": {"kind": "standard_input", "function_name": None},
    "raw_inputs": ["", "9"],
    "test_cases": [{"mode": "stdin", "payload": "", "function_name": None, "expected_output": "1"}],
    "input_drops": {"timeout": 1},
    "difficulty": 1,
    "case_index": None,
    "status": "ok",
    "reason": None,
}


# The record order makes of OK_DEDUP_ROW.
ORDER_RECORD = {
    "instruction": "Print one.",
    "code": "print(1)",
    "source": "semi",
    "difficulty": 1,
    "n_test_cases": 1,
    "answer_type": OK_DEDUP_ROW["answer_type"],
    "test_cases": OK_DEDUP_ROW["test_cases"],
    "provenance": {"problem_id": "p", "solution_index": 0, "seq": 0},
}


def stage_row(stage: str, status: str) -> dict:
    """A row of ``stage`` with ``status``: OK_DEDUP_ROW cut to the fields of an ok row, or ORDER_RECORD."""
    if stage == "order":
        return ORDER_RECORD
    names = {"unit_id", "status", "reason"}
    for name in STAGES[: STAGES.index(stage) + 1]:
        names |= set(UNIT_FIELDS.get(name, ()))
    row = {name: value for name, value in OK_DEDUP_ROW.items() if name in names}
    return {**row, "status": status, "reason": None if status == "ok" else "near_duplicate"}


def test_stage_rows_keep_unicode_line_separators(tmp_path):
    ok = {**OK_DEDUP_ROW, "instruction": "one\u2028two\x85three\u2029four"}
    rows = [ok, {"unit_id": "p:1", "status": "drop", "reason": "near_duplicate"}]
    path = stage_path(tmp_path, "dedup")
    emit_jsonl(rows, path)
    assert _read_rows("dedup", path) == rows


# One value of each JSON type, and the types each field of a unit row and of a record takes.
JSON_VALUES = {"null": None, "boolean": True, "integer": 7, "number": 1.5, "string": "x", "array": [], "object": {}}
ROW_TYPES = {
    **dict.fromkeys(("unit_id", "problem_id", "code", "prompt_sha256", "instruction", "refined_code"), {"string"}),
    **dict.fromkeys(("solution_index", "seq", "difficulty"), {"integer"}),
    **dict.fromkeys(("raw_inputs", "test_cases"), {"array"}),
    **dict.fromkeys(("answer_type", "input_drops"), {"object"}),
    "case_index": {"integer", "null"},
    "status": {"string"},
}
RECORD_TYPES = {
    **dict.fromkeys(("instruction", "code", "source"), {"string"}),
    **dict.fromkeys(("difficulty", "n_test_cases"), {"integer", "null"}),
    "answer_type": {"object", "null"},
    "test_cases": {"array", "null"},
    "provenance": {"object", "null"},
}


@pytest.mark.parametrize(
    "stage, status, field",
    [
        (stage, status, field)
        for stage in UNIT_FIELDS
        for status in ("ok", "drop")
        if (stage, status) != ("ingest", "drop")  # ingest drops no unit
        for field in stage_row(stage, status)
    ]
    + [("order", "ok", field) for field in ORDER_RECORD],
)
def test_field_of_wrong_json_type_fails_naming_file_and_line(tmp_path, stage, status, field):
    row = stage_row(stage, status)
    path = stage_path(tmp_path, stage)
    emit_jsonl([row], path)
    assert _read_rows(stage, path) == [row]
    takes = (RECORD_TYPES if stage == "order" else ROW_TYPES).get(field) or {"null" if status == "ok" else "string"}
    for json_type, value in JSON_VALUES.items():
        if json_type in takes:
            continue
        emit_jsonl([row, {**row, field: value}], path)
        with pytest.raises(StageFailure) as excinfo:
            _read_rows(stage, path)
        assert excinfo.value.stage == stage
        assert f"{path} line 2: {field} must be " in str(excinfo.value), json_type


def corpus_config(golden_config_path, tmp_path, problems):
    """The golden config, run on a generic corpus of ``problems`` into ``tmp_path / "out"``."""
    config = load_config(golden_config_path)
    config.corpus_path = str(tmp_path / "corpus.jsonl")
    config.out_dir = str(tmp_path / "out")
    write_corpus(problems, config.corpus_path)
    return config


def test_corpus_of_special_judge_problems_fails_ingest(tmp_path, golden_config_path):
    config = corpus_config(golden_config_path, tmp_path, [Problem("p", "Echo.", ("print(input())",), special_judge=True)])
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(config)
    assert excinfo.value.stage == "ingest"
    assert str(excinfo.value) == "stage ingest: corpus is empty after preprocessing"


def test_whitespace_only_code_drops_at_generate(tmp_path, golden_config_path):
    # Generate drops it before it asks for a completion: the replay store holds none for it.
    config = corpus_config(golden_config_path, tmp_path, [Problem("p", "Nothing.", ("   \n",))])
    run_pipeline(config, stop_after="generate")
    [row] = load_jsonl(stage_path(config.out_dir, "generate"))
    assert (row["unit_id"], row["status"], row["reason"]) == ("p:0", "drop", "empty_code")


def test_stop_after_ingest(tmp_path, golden_config_path):
    config = load_config(golden_config_path)
    config.out_dir = str(tmp_path)
    stats = run_pipeline(config, stop_after="ingest")
    assert stats is None
    assert stage_path(tmp_path, "ingest").is_file()
    assert not (tmp_path / DATASET_FILE).exists()
    rows = load_jsonl(stage_path(tmp_path, "ingest"))
    assert len(rows) == 33
    assert rows[0]["unit_id"] == "mp01:0"


def test_stop_after_dedup_writes_funnel(tmp_path, golden_config_path):
    config = load_config(golden_config_path)
    config.out_dir = str(tmp_path)
    stats = run_pipeline(config, stop_after="dedup")
    assert stats is not None and stats.counts() == EXPECTED_FUNNEL
    assert (tmp_path / FUNNEL_FILE).is_file()
    assert not (tmp_path / DATASET_FILE).exists()


def test_canonical_stage():
    assert [canonical_stage(stage) for stage in STAGES] == list(STAGES)
    for name in ("construct-cases", "construct_cases", "polish"):
        with pytest.raises(InvalidConfig, match=f"unknown stage: '{name}'"):
            canonical_stage(name)


def test_resume_after_stop_rejected(tmp_path, golden_config_path):
    config = load_config(golden_config_path)
    config.out_dir = str(tmp_path)
    config.resume_from = "order"
    with pytest.raises(ValueError):
        run_pipeline(config, stop_after="generate")


def test_unknown_client_mode(tmp_path, golden_config_path):
    config = load_config(golden_config_path)
    config.out_dir = str(tmp_path)
    config.client_mode = "psychic"
    with pytest.raises(InvalidConfig, match="client_mode must be one of 'replay', 'live', got 'psychic'"):
        run_pipeline(config, stop_after="generate")
    assert not tmp_path.joinpath("stage_ingest.jsonl").exists()


def test_replay_miss_fails_generate_stage(tmp_path, golden_config_path):
    config = load_config(golden_config_path)
    config.out_dir = str(tmp_path / "out")
    config.replay_store = str(tmp_path / "empty_store")
    (tmp_path / "empty_store").mkdir()
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(config, stop_after="generate")
    assert excinfo.value.stage == "generate"
    assert "no recorded completion" in str(excinfo.value)
    assert "mp01:0" in str(excinfo.value)


def serve_removed_completions(tmp_path, monkeypatch, server, k, fail_on=None):
    """Copy the replay store without its first ``k`` fixtures, and have ``server`` serve those.

    The server answers by prompt digest, and with HTTP 400 to its request
    number ``fail_on``. Returns the store, the removed fixtures' bytes by
    file name, and the digest of every prompt the server was asked.
    """
    store = tmp_path / "store"
    shutil.copytree(FIXTURES / "completions", store)
    removed = {}
    for path in sorted(store.iterdir())[:k]:
        removed[path.name] = path.read_bytes()
        path.unlink()
    asked = []

    def answer(request):
        asked.append(prompt_digest(request["json"]["messages"][0]["content"]))
        if len(asked) == fail_on:
            return 400, {}, b""
        return 200, {}, ok_body(removed[f"{asked[-1]}.txt"].decode("utf-8"))

    server.answer = answer
    monkeypatch.setenv("SEMIFORGE_API_KEY", "test-key")
    return store, removed, asked


def live_config(golden_config_path, server, store, out_dir):
    config = load_config(golden_config_path)
    config.client_mode = "live"
    config.endpoint = server.url
    config.replay_store = str(store)
    config.out_dir = str(out_dir)
    return config


def test_live_run_asks_only_for_missing_completions(tmp_path, golden_config_path, monkeypatch, loopback_server):
    store, removed, asked = serve_removed_completions(tmp_path, monkeypatch, loopback_server, k=5)
    config = live_config(golden_config_path, loopback_server, store, tmp_path / "out")
    assert run_pipeline(config).counts() == EXPECTED_FUNNEL
    assert sorted(f"{digest}.txt" for digest in asked) == sorted(removed)
    assert {name: (store / name).read_bytes() for name in removed} == removed
    golden = (GOLDEN / "dataset.jsonl").read_bytes()
    assert (tmp_path / "out" / DATASET_FILE).read_bytes() == golden

    # Every completion is in the store now: no credentials needed, no call made.
    monkeypatch.delenv("SEMIFORGE_API_KEY")
    config.out_dir = str(tmp_path / "again")
    run_pipeline(config)
    assert len(asked) == 5
    assert (tmp_path / "again" / DATASET_FILE).read_bytes() == golden


def test_endpoint_failure_keeps_paid_completions(tmp_path, golden_config_path, monkeypatch, loopback_server):
    store, removed, asked = serve_removed_completions(tmp_path, monkeypatch, loopback_server, k=5, fail_on=3)
    config = live_config(golden_config_path, loopback_server, store, tmp_path / "out")
    config.workers = 1
    with pytest.raises(StageFailure, match="HTTP 400") as excinfo:
        run_pipeline(config)
    assert excinfo.value.stage == "generate"
    paid = {f"{digest}.txt" for digest in asked[:2]}
    assert {path.name for path in store.iterdir()} & set(removed) == paid
    assert not list(store.glob("*.tmp"))

    config.resume_from = "generate"
    assert run_pipeline(config).counts() == EXPECTED_FUNNEL
    assert sorted(f"{digest}.txt" for digest in asked[3:]) == sorted(set(removed) - paid)
    assert (tmp_path / "out" / DATASET_FILE).read_bytes() == (GOLDEN / "dataset.jsonl").read_bytes()


def test_failed_store_write_names_the_unit(tmp_path, golden_config_path, monkeypatch, loopback_server):
    store, _, _ = serve_removed_completions(tmp_path, monkeypatch, loopback_server, k=1)
    config = live_config(golden_config_path, loopback_server, store, tmp_path / "out")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).parent == store:
            raise OSError(errno.EIO, "injected failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(StageFailure, match=rf"^stage generate: mp\d+:\d+: could not write {store}/.*injected failure"):
        run_pipeline(config)
    assert not list(store.glob("*.tmp"))


def test_empty_corpus_fails_ingest(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("", encoding="utf-8")
    config = PipelineConfig(corpus_path=str(corpus), out_dir=str(tmp_path / "out"))
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(config, stop_after="ingest")
    assert excinfo.value.stage == "ingest"


def test_missing_interpreter_fails_construct(golden_run, golden_run_copy):
    config, _, _ = golden_run
    resumed = PipelineConfig.from_dict(config.to_dict())
    resumed.out_dir = str(golden_run_copy)
    resumed.resume_from = "construct"
    resumed.interpreter = "no-such-python-anywhere"
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(resumed)
    assert excinfo.value.stage == "construct"
    resumed.resume_from = "validate"
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(resumed)
    assert excinfo.value.stage == "validate"


def units_config(golden_config_path, out_dir, codes, refined=None, raw_inputs=("1",)):
    """A run resumed at construct over one stdin unit per code, refined to ``refined`` (the same code if None)."""
    ingest = [
        {"unit_id": f"u{i}:0", "problem_id": f"u{i}", "solution_index": 0, "seq": i, "code": code}
        for i, code in enumerate(codes)
    ]
    generate = [
        {
            **row,
            "prompt_sha256": "0" * 64,
            "instruction": f"Unit {row['seq']}.",
            "refined_code": (refined or codes)[row["seq"]],
            "answer_type": {"kind": "standard_input", "function_name": None},
            "raw_inputs": list(raw_inputs),
        }
        for row in ingest
    ]
    for stage, rows in (("ingest", ingest), ("generate", generate)):
        emit_jsonl([{**row, "status": "ok", "reason": None} for row in rows], stage_path(out_dir, stage))
    config = load_config(golden_config_path)
    config.out_dir = str(out_dir)
    config.resume_from = "construct"
    return config


def test_construct_and_validate_fork_from_different_servers(tmp_path, golden_config_path):
    # The same program gives the same output within one server only: it
    # builds its cases in construct and must fail them in validate.
    config = units_config(golden_config_path, tmp_path, ['print(hash("semiforge"))', "print(input())"])
    run_pipeline(config, stop_after="validate")
    construct = load_jsonl(stage_path(tmp_path, "construct"))
    validate = load_jsonl(stage_path(tmp_path, "validate"))
    assert [row["status"] for row in construct] == ["ok", "ok"]
    assert [(row["status"], row["reason"]) for row in validate] == [("drop", "wrong_output"), ("ok", None)]


def test_output_overflow_fails_validation_as_runtime_error(tmp_path, golden_config_path):
    # The refined code matches case 0 and overflows the 1 MiB output cap on case 1.
    refined = 'n = input()\nprint(n if n == "1" else "x" * (2 << 20))'
    config = units_config(golden_config_path, tmp_path, ["print(input())"], [refined], raw_inputs=["1", "2"])
    run_pipeline(config, stop_after="validate")
    [row] = load_jsonl(stage_path(tmp_path, "validate"))
    assert (row["status"], row["reason"], row["case_index"], row["difficulty"]) == ("drop", "runtime_error", 1, 2)


def test_sandbox_failure_drops_the_unit_and_the_run_goes_on(tmp_path, golden_config_path, monkeypatch):
    codes = ["print(input())", "print(int(input()) + 1)", "print(int(input()) + 2)"]
    config = units_config(golden_config_path, tmp_path, codes)
    failing = {"construct_test_cases": codes[0], "validate_refined_code": codes[1]}

    def failing_on(name, function):
        def wrapper(code, *args):
            if code == failing[name]:
                raise SandboxSetupFailure("the sandbox server is gone")
            return function(code, *args)

        return wrapper

    for name in failing:
        monkeypatch.setattr(f"semiforge.pipeline.{name}", failing_on(name, getattr(pipeline, name)))
    stats = run_pipeline(config, stop_after="dedup")
    construct, validate = (load_jsonl(stage_path(tmp_path, stage)) for stage in ("construct", "validate"))
    assert [(row["unit_id"], row["status"], row["reason"]) for row in construct] == [
        ("u0:0", "drop", "sandbox_failure"),
        ("u1:0", "ok", None),
        ("u2:0", "ok", None),
    ]
    assert [(row["unit_id"], row["status"], row["reason"]) for row in validate] == [
        ("u1:0", "drop", "sandbox_failure"),
        ("u2:0", "ok", None),
    ]
    assert stats.counts() == (3, 3, 2, 1, 1)
    funnel = json.loads((tmp_path / FUNNEL_FILE).read_text(encoding="utf-8"))
    assert funnel["drop_reasons"] == {"construct": {"sandbox_failure": 1}, "validate": {"sandbox_failure": 1}}


@pytest.mark.parametrize("workers", [1, 4])
def test_cold_run_starts_one_server_per_sandbox_stage(tmp_path, golden_config_path, sandbox_counts, workers):
    config = load_config(golden_config_path)
    config.out_dir = str(tmp_path)
    config.workers = workers
    assert run_pipeline(config).counts() == EXPECTED_FUNNEL
    assert (tmp_path / DATASET_FILE).read_bytes() == (GOLDEN / "dataset.jsonl").read_bytes()
    assert len(sandbox_counts["starts"]) == 2
    assert len(sandbox_counts["calls"]) == len(sandbox_counts["runs"]) > 0
    assert all(isinstance(code, str) for code in sandbox_counts["calls"])


def test_validate_starts_before_construct_ends(tmp_path, golden_config_path, monkeypatch):
    # The last unit's construct is slow, so only a barrier between the
    # stages would hold back unit 0's validate until it ends.
    codes = [f"print(int(input()) + {i})" for i in range(4)]
    codes[-1] = "import time\ntime.sleep(0.5)\n" + codes[-1]
    config = units_config(golden_config_path, tmp_path, codes)
    config.workers = 2
    calls = []

    def recorded(name, function):
        def wrapper(code, *args):
            unit = codes.index(code)
            calls.append((name, "start", unit))
            try:
                return function(code, *args)
            finally:
                calls.append((name, "end", unit))

        return wrapper

    for name in ("construct_test_cases", "validate_refined_code"):
        monkeypatch.setattr(f"semiforge.pipeline.{name}", recorded(name, getattr(pipeline, name)))
    run_pipeline(config, stop_after="validate")
    assert len(calls) == 16
    first_validate = calls.index(("validate_refined_code", "start", 0))
    last_construct = calls.index(("construct_test_cases", "end", 3))
    assert first_validate < last_construct


def test_construct_and_validate_run_alone(golden_run, tmp_path, golden_config_path):
    _, out_dir, _ = golden_run
    config = load_config(golden_config_path)
    config.out_dir = str(tmp_path)
    run_pipeline(config, stop_after="construct")
    assert not stage_path(tmp_path, "validate").exists()
    config.resume_from = "validate"
    run_pipeline(config, stop_after="validate")
    for stage in ("construct", "validate"):
        assert stage_path(tmp_path, stage).read_bytes() == stage_path(out_dir, stage).read_bytes(), stage


@pytest.mark.parametrize(
    "target, failure, message",
    [
        ("stage_dedup.jsonl", StageFailure, "stage dedup: could not write"),
        ("stage_order.jsonl", StageFailure, "stage order: could not write"),
        (DATASET_FILE, StageFailure, "stage emit: could not write"),
        (FUNNEL_FILE, SemiforgeError, "^could not write"),
        (EVENTS_FILE, SemiforgeError, "^could not write"),
        (MANIFEST_FILE, SemiforgeError, "^could not write"),
    ],
)
def test_failed_replace_keeps_the_old_file(golden_run, golden_run_copy, monkeypatch, target, failure, message):
    config, _, _ = golden_run
    written = ("stage_dedup.jsonl", "stage_order.jsonl", DATASET_FILE, FUNNEL_FILE, EVENTS_FILE, MANIFEST_FILE)
    for name in written:
        (golden_run_copy / name).write_text("old\n", encoding="utf-8")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == target:
            raise OSError(errno.EIO, "injected failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(failure, match=f"{message} {golden_run_copy / target}: .*injected failure"):
        run_pipeline(resumed_from(config, golden_run_copy, "dedup"))
    assert (golden_run_copy / target).read_text(encoding="utf-8") == "old\n"
    assert not list(golden_run_copy.glob("*.tmp"))


def test_outputs_have_the_mode_plain_open_gives(golden_run, tmp_path):
    _, out_dir, _ = golden_run
    probe = tmp_path / "probe"
    with open(probe, "w", encoding="utf-8"):
        pass
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out_dir.iterdir()}
    assert modes == dict.fromkeys(modes, stat.S_IMODE(probe.stat().st_mode))
    assert not list(out_dir.glob("*.tmp"))


def test_manifest_contents(golden_run):
    config, out_dir, _ = golden_run
    manifest = json.loads((out_dir / MANIFEST_FILE).read_text(encoding="utf-8"))
    assert manifest["seed"] == 7
    assert manifest["template"]["input_count"] == 4
    assert manifest["template"]["path"] == "builtin"
    assert manifest["stages_executed"] == list(STAGES)
    assert manifest["stages_loaded"] == []
    assert manifest["row_counts"]["ingest"] == 33
    assert manifest["row_counts"]["emit"] == 21
    assert manifest["config"]["dedup_threshold"] == 0.7
    assert set(manifest["timings_sec"]) == set(STAGES)


def test_events_cover_every_unit(golden_run):
    _, out_dir, _ = golden_run
    events = load_jsonl(out_dir / EVENTS_FILE)
    by_stage: dict[str, int] = {}
    for event in events:
        by_stage[event["stage"]] = by_stage.get(event["stage"], 0) + 1
        if event["status"] == "drop":
            assert event["reason"]
    assert by_stage == {"ingest": 33, "generate": 33, "construct": 30, "validate": 28, "dedup": 24}


def test_config_round_trip():
    config = PipelineConfig(corpus_path="x.jsonl", seed=3, workers=2)
    clone = PipelineConfig.from_dict(config.to_dict())
    assert clone.to_dict() == config.to_dict()


def test_config_rejects_unknown_keys():
    with pytest.raises(InvalidConfig, match="unknown config keys: warp_speed"):
        PipelineConfig.from_dict({"corpus_path": "x", "warp_speed": True})


def test_load_config_resolves_paths(golden_config_path):
    config = load_config(golden_config_path)
    assert config.corpus_path == str(FIXTURES / "mini_corpus" / "problems.jsonl")
    assert config.replay_store == str(FIXTURES / "completions")


def test_load_config_resolves_an_interpreter_path_but_not_a_command(tmp_path, monkeypatch):
    cfgdir = tmp_path.resolve() / "cfgdir"
    (cfgdir / "venv").mkdir(parents=True)
    (cfgdir / "venv" / "py").symlink_to(sys.executable)
    monkeypatch.chdir(tmp_path)  # "venv/py" is not here
    path = cfgdir / "c.json"
    path.write_text(json.dumps({"interpreter": "venv/py"}), encoding="utf-8")
    interpreter = load_config(path).interpreter
    assert interpreter == str(cfgdir / "venv" / "py")
    assert resolve_interpreter(interpreter) == interpreter
    path.write_text(json.dumps({"interpreter": "python3"}), encoding="utf-8")
    assert load_config(path).interpreter == "python3"  # looked up on PATH


def test_stage_failure_message():
    failure = StageFailure("generate", "mp01:0: boom")
    assert failure.stage == "generate"
    assert str(failure) == "stage generate: mp01:0: boom"
