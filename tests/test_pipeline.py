import errno
import json
import os
import stat
from pathlib import Path

import pytest

from semiforge.dataset import IoFailure, emit_jsonl
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
    load_config,
    run_pipeline,
    stage_path,
)
from tests.conftest import FIXTURES, GOLDEN, load_jsonl

EXPECTED_FUNNEL = (33, 30, 28, 24, 21)


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


def test_resume_reproduces_outputs(golden_run, golden_run_copy):
    config, out_dir, _ = golden_run
    resumed = PipelineConfig.from_dict(config.to_dict())
    resumed.out_dir = str(golden_run_copy)
    resumed.resume_from = "dedup"
    (golden_run_copy / DATASET_FILE).unlink()
    (golden_run_copy / FUNNEL_FILE).unlink()
    stats = run_pipeline(resumed)
    assert stats.counts() == EXPECTED_FUNNEL
    assert (golden_run_copy / DATASET_FILE).read_bytes() == (out_dir / DATASET_FILE).read_bytes()
    assert (golden_run_copy / FUNNEL_FILE).read_bytes() == (out_dir / FUNNEL_FILE).read_bytes()


def test_resume_from_emit_only(golden_run, golden_run_copy):
    config, out_dir, _ = golden_run
    resumed = PipelineConfig.from_dict(config.to_dict())
    resumed.out_dir = str(golden_run_copy)
    resumed.resume_from = "emit"
    (golden_run_copy / DATASET_FILE).unlink()
    run_pipeline(resumed)
    assert (golden_run_copy / DATASET_FILE).read_bytes() == (out_dir / DATASET_FILE).read_bytes()


def test_resume_alias_construct_cases(golden_run, golden_run_copy):
    config, out_dir, _ = golden_run
    resumed = PipelineConfig.from_dict(config.to_dict())
    resumed.out_dir = str(golden_run_copy)
    resumed.resume_from = "construct-cases"
    stats = run_pipeline(resumed)
    assert stats.counts() == EXPECTED_FUNNEL
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


@pytest.mark.parametrize("stage", ["ingest", "generate", "construct", "validate", "dedup"])
def test_truncated_stage_file_fails_naming_line(golden_run, golden_run_copy, stage):
    config, _, _ = golden_run
    line = truncate_mid_row(stage_path(golden_run_copy, stage))
    resumed = PipelineConfig.from_dict(config.to_dict())
    resumed.out_dir = str(golden_run_copy)
    resumed.resume_from = STAGES[STAGES.index(stage) + 1]
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(resumed)
    assert excinfo.value.stage == stage
    assert f"stage_{stage}.jsonl line {line}: " in str(excinfo.value)


def resumed_from(config, out_dir, stage):
    resumed = PipelineConfig.from_dict(config.to_dict())
    resumed.out_dir = str(out_dir)
    resumed.resume_from = stage
    return resumed


@pytest.mark.parametrize(
    "make_row, problem",
    [
        (lambda ok: [1, 2], "row is not a JSON object"),
        (lambda ok: "text", "row is not a JSON object"),
        (lambda ok: {k: v for k, v in ok.items() if k != "instruction"}, "row lacks instruction"),
    ],
    ids=["array", "string", "ok_row_without_instruction"],
)
def test_non_unit_stage_row_fails_naming_line(golden_run, golden_run_copy, make_row, problem):
    config, _, _ = golden_run
    path = stage_path(golden_run_copy, "validate")
    rows = load_jsonl(path)
    ok = next(row for row in rows if row["status"] == "ok")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(make_row(ok)) + "\n")
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(resumed_from(config, golden_run_copy, "dedup"))
    assert excinfo.value.stage == "validate"
    assert f"stage_validate.jsonl line {len(rows) + 1}: {problem}" in str(excinfo.value)


def test_drop_row_needs_only_unit_id_status_and_reason(tmp_path):
    path = stage_path(tmp_path, "construct")
    emit_jsonl([{"unit_id": "p:0", "status": "drop", "reason": "sandbox_failure"}], path)
    assert len(_read_rows("construct", path)) == 1
    emit_jsonl([{"unit_id": "p:0", "status": "drop"}], path)
    with pytest.raises(StageFailure, match="line 1: row lacks reason"):
        _read_rows("construct", path)


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
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(resumed)
    assert excinfo.value.stage == "order"
    assert "scale must be >= 0" in str(excinfo.value)


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
    "no_instruction": ({"code": "y", "source": "si"}, "record lacks instruction"),
    "provenance_not_object": (
        {"instruction": "x", "code": "y", "source": "si", "provenance": "si-1"},
        "record provenance is not a JSON object",
    ),
}


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
    assert "stage_order.jsonl line 1: record lacks instruction" in str(excinfo.value)


def test_stage_rows_keep_unicode_line_separators(tmp_path):
    ok = dict.fromkeys(field for fields in UNIT_FIELDS.values() for field in fields)
    ok.update(unit_id="p:0", instruction="one\u2028two\x85three\u2029four", status="ok", reason=None)
    rows = [ok, {"unit_id": "p:1", "status": "drop", "reason": "near_duplicate"}]
    path = stage_path(tmp_path, "dedup")
    emit_jsonl(rows, path)
    assert _read_rows("dedup", path) == rows


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
    assert canonical_stage("construct-cases") == "construct"
    assert canonical_stage("construct_cases") == "construct"
    assert canonical_stage("order") == "order"
    with pytest.raises(ValueError):
        canonical_stage("polish")


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
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(config, stop_after="generate")
    assert excinfo.value.stage == "generate"


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


@pytest.mark.parametrize(
    "target, failure, message",
    [
        ("stage_dedup.jsonl", StageFailure, "stage dedup: could not write"),
        ("stage_order.jsonl", StageFailure, "stage order: could not write"),
        (DATASET_FILE, StageFailure, "stage emit: could not write"),
        (FUNNEL_FILE, IoFailure, "could not write"),
        (EVENTS_FILE, IoFailure, "could not write"),
        (MANIFEST_FILE, IoFailure, "could not write"),
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


def test_stage_failure_message():
    failure = StageFailure("generate", "mp01:0: boom")
    assert failure.stage == "generate"
    assert str(failure) == "stage generate: mp01:0: boom"
