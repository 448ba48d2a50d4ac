import json

import pytest

from semiforge.pipeline import (
    DATASET_FILE,
    EVENTS_FILE,
    FUNNEL_FILE,
    MANIFEST_FILE,
    STAGES,
    PipelineConfig,
    StageFailure,
    _read_rows,
    _write_rows,
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


def test_stage_rows_keep_unicode_line_separators(tmp_path):
    rows = [{"instruction": "one\u2028two\x85three\u2029four", "status": "ok"}, {"status": "drop"}]
    path = stage_path(tmp_path, "dedup")
    _write_rows(path, rows)
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
    with pytest.raises(ValueError):
        PipelineConfig.from_dict({"corpus_path": "x", "warp_speed": True})


def test_load_config_resolves_paths(golden_config_path):
    config = load_config(golden_config_path)
    assert config.corpus_path == str(FIXTURES / "mini_corpus" / "problems.jsonl")
    assert config.replay_store == str(FIXTURES / "completions")


def test_stage_failure_message():
    failure = StageFailure("generate", "mp01:0: boom")
    assert failure.stage == "generate"
    assert str(failure) == "stage generate: mp01:0: boom"
