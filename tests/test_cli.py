import argparse
import json
import logging
import shutil
from dataclasses import fields, replace

import pytest

from semiforge.cli import STAGE_COMMANDS, _config_from_args, build_parser, main
from semiforge.dataset import emit_jsonl
from semiforge.pipeline import STAGES, PipelineConfig
from tests.conftest import GOLDEN, load_jsonl


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_end_to_end(tmp_path, golden_config_path, capsys):
    code = run_cli("run", "--config", golden_config_path, "--out", tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert "loaded_codes: 33" in out
    assert "after_dedup: 21" in out
    assert "dataset ->" in out
    assert (tmp_path / "dataset.jsonl").read_bytes() == (GOLDEN / "dataset.jsonl").read_bytes()


def test_staged_subcommands_match_single_run(tmp_path, golden_config_path, capsys):
    for argv in (
        ("ingest",),
        ("generate",),
        ("validate",),
        ("rank",),
        ("emit",),
    ):
        code = run_cli(*argv, "--config", golden_config_path, "--out", tmp_path)
        assert code == 0, argv
    out = capsys.readouterr().out
    assert "dataset ->" in out
    assert (tmp_path / "dataset.jsonl").read_bytes() == (GOLDEN / "dataset.jsonl").read_bytes()
    assert (tmp_path / "funnel.json").read_bytes() == (GOLDEN / "funnel_stats.json").read_bytes()


def kept_lines(caplog) -> list[str]:
    """The run's per-stage reports, each cut before its timing."""
    return [record.getMessage().split(" (")[0] for record in caplog.records if " rows kept " in record.getMessage()]


def test_stage_summaries_report_kept_counts(tmp_path, golden_config_path, caplog):
    caplog.set_level(logging.INFO, logger="semiforge.pipeline")
    for command in ("ingest", "generate", "validate", "rank", "emit"):
        assert run_cli(command, "--config", golden_config_path, "--out", tmp_path) == 0, command
    assert kept_lines(caplog) == [
        "stage ingest: 33/33 rows kept",
        "stage generate: 30/33 rows kept",
        "stage construct: 28/30 rows kept",
        "stage validate: 24/28 rows kept",
        "stage dedup: 21/24 rows kept",
        "stage order: 21/21 rows kept",
        "stage emit: 21/21 rows kept",
    ]
    messages = [record.getMessage() for record in caplog.records]
    assert any(m.endswith(f"s) -> {tmp_path / 'stage_generate.jsonl'}") for m in messages)
    assert any(m.endswith(f"s) -> {tmp_path / 'dataset.jsonl'}") for m in messages)


@pytest.mark.parametrize("command", STAGE_COMMANDS)
def test_each_pipeline_command_runs_its_slice(golden_run_copy, golden_config_path, capsys, command):
    _, first, last = STAGE_COMMANDS[command]
    assert run_cli(command, "--config", golden_config_path, "--out", golden_run_copy) == 0
    manifest = json.loads((golden_run_copy / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["stages_executed"] == list(STAGES[STAGES.index(first or "ingest") : STAGES.index(last) + 1])
    out = capsys.readouterr().out
    assert ("after_dedup: 21" in out) == (STAGES.index(last) >= STAGES.index("dedup"))
    assert ("dataset ->" in out) == (last == "emit")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {*STAGE_COMMANDS, "eval", "report"}


# (flag, value given, config field, value expected in the field)
CONFIG_FLAGS = [
    ("--corpus", "c.jsonl", "corpus_path", "c.jsonl"),
    ("--format", "apps", "corpus_format", "apps"),
    ("--out", "o", "out_dir", "o"),
    ("--template", "t.txt", "template_path", "t.txt"),
    ("--input-count", "3", "input_count", 3),
    ("--client", "live", "client_mode", "live"),
    ("--replay-store", "store", "replay_store", "store"),
    ("--endpoint", "http://localhost:1", "endpoint", "http://localhost:1"),
    ("--model", "m", "model_id", "m"),
    ("--interpreter", "python3", "interpreter", "python3"),
    ("--wall-timeout", "1.5", "wall_timeout", 1.5),
    ("--threshold", "0.5", "dedup_threshold", 0.5),
    ("--order", "random", "order", "random"),
    ("--seed", "9", "seed", 9),
    ("--scale", "5", "scale", 5),
    ("--si", "si.jsonl", "si_path", "si.jsonl"),
    ("--workers", "3", "workers", 3),
    ("--resume-from", "dedup", "resume_from", "dedup"),
]


def test_every_config_flag_is_listed():
    parser = build_parser()
    run = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices["run"]
    fields = PipelineConfig.__dataclass_fields__
    assert {a.option_strings[0] for a in run._actions if a.dest in fields} == {f[0] for f in CONFIG_FLAGS}


@pytest.mark.parametrize("flag, value, field, expected", CONFIG_FLAGS, ids=[f[0] for f in CONFIG_FLAGS])
def test_config_flag_sets_its_field(flag, value, field, expected):
    config = _config_from_args(build_parser().parse_args(["run", flag, value]))
    assert config == replace(PipelineConfig(), **{field: expected})


def test_flag_overrides_config(tmp_path, golden_config_path):
    code = run_cli(
        "run", "--config", golden_config_path, "--out", tmp_path, "--scale", "5"
    )
    assert code == 0
    assert len(load_jsonl(tmp_path / "dataset.jsonl")) == 5


def test_run_resume_from(tmp_path, golden_config_path, capsys):
    assert run_cli("run", "--config", golden_config_path, "--out", tmp_path) == 0
    capsys.readouterr()
    code = run_cli(
        "run", "--config", golden_config_path, "--out", tmp_path, "--resume-from", "dedup"
    )
    assert code == 0
    assert "after_dedup: 21" in capsys.readouterr().out


def test_truncated_stage_file_exits_2(tmp_path, golden_config_path, capsys):
    assert run_cli("ingest", "--config", golden_config_path, "--out", tmp_path) == 0
    path = tmp_path / "stage_ingest.jsonl"
    path.write_bytes(path.read_bytes()[:-40])
    capsys.readouterr()
    code = run_cli("generate", "--config", golden_config_path, "--out", tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: stage ingest: ")
    assert "stage_ingest.jsonl line 33: " in err


def test_ingest_skips_malformed_corpus_rows(tmp_path, golden_config_path, capsys, caplog):
    good = {"description": "Echo the input.", "solutions": ["print(input())"]}
    rows = [
        json.dumps({**good, "problem_id": "a"}).encode(),
        json.dumps({**good, "problem_id": "b", "solutions": 5}).encode(),
        json.dumps({**good, "problem_id": "c", "special_judge": "no"}).encode(),
        b'{"problem_id": "caf\xe9", "description": "x", "solutions": []}',
        json.dumps({**good, "problem_id": 7, "description": "Echo it twice."}).encode(),
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"\n".join(rows) + b"\n")
    path = write_golden_config(tmp_path, golden_config_path, corpus_path=str(corpus))
    assert run_cli("ingest", "--config", path) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert [row["problem_id"] for row in load_jsonl(tmp_path / "out" / "stage_ingest.jsonl")] == ["a", "7"]
    assert "skipping line 2 of corpus.jsonl: solutions must be an array" in caplog.text
    assert "skipping line 3 of corpus.jsonl: special_judge must be true or false, got 'no'" in caplog.text
    assert "skipping line 4 of corpus.jsonl: 'utf-8' codec can't decode" in caplog.text


def test_stage_row_not_an_object_exits_2(tmp_path, golden_config_path, capsys):
    assert run_cli("run", "--config", golden_config_path, "--out", tmp_path) == 0
    with open(tmp_path / "stage_validate.jsonl", "a", encoding="utf-8") as fh:
        fh.write("[1, 2]\n")
    capsys.readouterr()
    code = run_cli("run", "--config", golden_config_path, "--out", tmp_path, "--resume-from", "dedup")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: stage validate: ")
    assert "stage_validate.jsonl line 29: row must be an object, got [1, 2]" in err
    assert "Traceback" not in err


def write_golden_config(tmp_path, golden_config_path, **overrides):
    """The golden config with absolute paths, out_dir under tmp_path and ``overrides`` applied."""
    config = json.loads(golden_config_path.read_text(encoding="utf-8"))
    for key in ("corpus_path", "replay_store"):
        config[key] = str(golden_config_path.parent / config[key])
    config["out_dir"] = str(tmp_path / "out")
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("warp_speed", True, "unknown config keys: warp_speed"),
        ("language", "cpp", "unknown config keys: language"),
        ("token_mode", "chars", "unknown config keys: token_mode"),
        ("dedup_compare", "everything", "unknown config keys: dedup_compare"),
        ("input_count", 0, "input_count must be >= 1, got 0"),
        ("wall_timeout", 0, "wall_timeout must be > 0, got 0"),
        # The sandbox caps and the sampling values are constants of executor and LiveClient.
        pytest.param("memory_bytes", 0, "unknown config keys: memory_bytes", id="memory_bytes-0-memory_bytes must be > 0, got 0"),
        pytest.param("output_bytes", 0, "unknown config keys: output_bytes", id="output_bytes-0-output_bytes must be > 0, got 0"),
        pytest.param("temperature", -1, "unknown config keys: temperature", id="temperature--1-temperature must be >= 0, got -1"),
        pytest.param("top_p", 0, "unknown config keys: top_p", id="top_p-0-top_p must be in (0, 1], got 0"),
        pytest.param("max_tokens", 0, "unknown config keys: max_tokens", id="max_tokens-0-max_tokens must be >= 1, got 0"),
        ("dedup_threshold", "x", "dedup_threshold must be a number, got 'x'"),
        pytest.param(
            "order", "bogus", "order must be one of 'semi_ranked', ", id="order-bogus-unknown ordering strategy: 'bogus'"
        ),
        pytest.param("scale", -1, "scale must be an integer >= 0 or null, got -1", id="scale--1-scale must be >= 0, got -1"),
        pytest.param(
            "corpus_format", "zip", "corpus_format must be one of 'apps', 'codecontest', 'generic', got 'zip'",
            id="corpus_format-zip-unknown corpus format: 'zip'",
        ),
        pytest.param(
            "client_mode", "cloud", "client_mode must be one of 'replay', 'live', got 'cloud'",
            id="client_mode-cloud-unknown client mode: 'cloud'",
        ),
        ("solution_cap", 0, "solution_cap must be >= 1, got 0"),
        ("max_solution_tokens", 0, "max_solution_tokens must be >= 1, got 0"),
        ("workers", 0, "workers must be >= 1, got 0"),
        ("workers", -2, "workers must be >= 1, got -2"),
        pytest.param("seed", -1, "seed must be an integer >= 0, got -1", id="seed--1-seed must be >= 0, got -1"),
        ("wall_timeout", float("nan"), "wall_timeout must be finite, got nan"),
        ("wall_timeout", float("inf"), "wall_timeout must be finite, got inf"),
        ("wall_timeout", 1e10, "wall_timeout must be <= 2147483.647, got 10000000000.0"),
        ("wall_timeout", 2147483.648, "wall_timeout must be <= 2147483.647, got 2147483.648"),
        pytest.param(
            "temperature", float("nan"), "unknown config keys: temperature", id="temperature-nan-temperature must be finite, got nan"
        ),
        ("dedup_threshold", float("nan"), "dedup_threshold must be finite, got nan"),
        ("dedup_threshold", float("inf"), "dedup_threshold must be finite, got inf"),
        ("dedup_threshold", -1, "dedup_threshold must be in [0, 1], got -1"),
        ("client_mode", "live", "endpoint must be non-empty when client_mode is 'live'"),
        ("record_completions", True, "unknown config keys: record_completions"),
    ],
)
def test_bad_config_value_exits_2(tmp_path, golden_config_path, capsys, key, value, message):
    path = write_golden_config(tmp_path, golden_config_path, **{key: value})
    code = run_cli("run", "--config", path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", ["", "sub"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, golden_config_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("a file\n", encoding="utf-8")
    out = taken / below
    code = run_cli("run", "--config", golden_config_path, "--out", out)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: could not create output directory {out}: ")
    assert "Traceback" not in err
    assert taken.read_text(encoding="utf-8") == "a file\n"


@pytest.mark.parametrize("field", fields(PipelineConfig), ids=lambda field: field.name)
def test_wrong_json_type_exits_2_before_ingest(tmp_path, golden_config_path, capsys, field):
    # No field takes a boolean.
    path = write_golden_config(tmp_path, golden_config_path, **{field.name: True})
    code = run_cli("run", "--config", path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {field.name} must be ")
    assert not list(tmp_path.rglob("stage_ingest.jsonl"))


def test_missing_template_exits_2(tmp_path, golden_config_path, capsys):
    template = tmp_path / "nonexistent.txt"
    path = write_golden_config(tmp_path, golden_config_path, template_path=str(template))
    code = run_cli("run", "--config", path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: stage generate: ")
    assert str(template) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content, problem",
    [
        (b"{{input_count}} inputs, no code slot", "template must contain exactly one {{original_code}} slot"),
        (b"\xff{{original_code}}", "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["no_slot", "not_utf8"],
)
def test_bad_template_exits_2(tmp_path, golden_config_path, capsys, content, problem):
    template = tmp_path / "template.txt"
    template.write_bytes(content)
    path = write_golden_config(tmp_path, golden_config_path, template_path=str(template))
    code = run_cli("run", "--config", path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: stage generate: template {template}: {problem}")
    assert err.count("\n") == 1


def test_replay_file_not_utf8_exits_2(tmp_path, golden_config_path, capsys):
    store = tmp_path / "store"
    shutil.copytree(golden_config_path.parent / "completions", store)
    corrupt = sorted(store.iterdir())[0]
    corrupt.write_bytes(b"\xff" + corrupt.read_bytes())
    path = write_golden_config(tmp_path, golden_config_path, replay_store=str(store))
    code = run_cli("run", "--config", path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: stage generate: ")
    assert f"recorded completion {corrupt} is not UTF-8" in err
    assert err.count("\n") == 1


def test_unknown_resume_stage_exits_2(tmp_path, golden_config_path, capsys):
    code = run_cli("run", "--config", golden_config_path, "--out", tmp_path, "--resume-from", "bogus")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: unknown stage: 'bogus'")
    assert "Traceback" not in err


def test_construct_case_without_expected_output_exits_2(golden_run_copy, golden_config_path, capsys):
    path = golden_run_copy / "stage_construct.jsonl"
    rows = load_jsonl(path)
    line, row = next((n, row) for n, row in enumerate(rows, 1) if row["status"] == "ok")
    del row["test_cases"][0]["expected_output"]
    emit_jsonl(rows, path)
    code = run_cli(
        "run", "--config", golden_config_path, "--out", golden_run_copy, "--resume-from", "validate"
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: stage construct: ")
    assert f"stage_construct.jsonl line {line}: expected_output must be a string, got nothing" in err
    assert "Traceback" not in err


def test_unwritable_stage_file_exits_2(golden_run_copy, golden_config_path, capsys):
    path = golden_run_copy / "stage_dedup.jsonl"
    path.unlink()
    path.mkdir()
    code = run_cli("run", "--config", golden_config_path, "--out", golden_run_copy, "--resume-from", "dedup")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: stage dedup: could not write {path}: ")
    assert "Traceback" not in err
    assert not list(golden_run_copy.glob("*.tmp"))


def test_unparsable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"seed": 1,', encoding="utf-8")
    code = run_cli("run", "--config", path, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: could not read config {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "resume_from, si_row, message",
    [
        ("order", {"instruction": "x", "code": "y", "source": "semi", "difficulty": 2, "n_test_cases": 1},
         "si.jsonl line 1: semi difficulty must equal the test-case count"),
        ("order", {"code": "y", "source": "si"}, "si.jsonl line 1: instruction must be a string, got nothing"),
        ("order", {"instruction": "x", "code": "y", "source": "si", "provenance": 7},
         "si.jsonl line 1: provenance must be an object or null, got 7"),
        ("emit", None, "stage_order.jsonl line 1: instruction must be a string, got nothing"),
        ("order", {"instruction": 5, "code": "y", "source": "si"}, "si.jsonl line 1: instruction must be a string, got 5"),
        ("order", {"instruction": "x", "code": "y", "source": "si", "provenance": {"seq": True}},
         "si.jsonl line 1: seq must be an integer >= 0 or null, got True"),
        ("order", {"instruction": "say \ud800", "code": "y", "source": "si"},
         "si.jsonl line 1: 'utf-8' codec can't encode character '\\ud800' in position 4: surrogates not allowed"),
        ("order", {"instruction": "x", "code": "y", "source": "si", "difficulty": 1, "test_cases": ["\ud800"]},
         "si.jsonl line 1: 'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed"),
        ("order", {"instruction": "x", "code": "y", "source": "si", "answer_type": {"kind": [{"\ud800": 1}]}},
         "si.jsonl line 1: 'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed"),
    ],
    ids=[
        "difficulty_mismatch",
        "si_without_instruction",
        "provenance_not_object",
        "order_row",
        "si_instruction_not_str",
        "si_seq_boolean",
        "si_instruction_lone_surrogate",
        "si_test_case_lone_surrogate",
        "si_answer_type_lone_surrogate",
    ],
)
def test_bad_record_exits_2(golden_run_copy, golden_config_path, capsys, resume_from, si_row, message):
    if si_row is None:
        rows = load_jsonl(golden_run_copy / "stage_order.jsonl")
        del rows[0]["instruction"]
        emit_jsonl(rows, golden_run_copy / "stage_order.jsonl")
        si_flags = ()
    else:
        si = golden_run_copy / "si.jsonl"
        si.write_text(json.dumps(si_row) + "\n", encoding="utf-8")
        si_flags = ("--si", si)
    order = (golden_run_copy / "stage_order.jsonl").read_bytes()
    code = run_cli(
        "run", "--config", golden_config_path, "--out", golden_run_copy, "--resume-from", resume_from, *si_flags
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: stage order: ")
    assert message in err
    assert "Traceback" not in err
    assert (golden_run_copy / "stage_order.jsonl").read_bytes() == order  # the read fails before any write


def with_first_case(row, **changes):
    return {**row, "test_cases": [{**row["test_cases"][0], **changes}, *row["test_cases"][1:]]}


# stage file -> how its first ok row is changed, and what the error says of it
BAD_UNIT_ROWS = {
    "difficulty_not_integer": ("validate", lambda row: {**row, "difficulty": "x"},
                               "difficulty must be an integer >= 0, got 'x'"),
    "input_drops_array": ("construct", lambda row: {**row, "input_drops": [1]}, "input_drops must be an object, "),
    "difficulty_not_case_count": ("validate", lambda row: {**row, "difficulty": 99},
                                  "difficulty must be 4, the number of test cases, got 99"),
    "seq_not_integer": ("validate", lambda row: {**row, "seq": "a"}, "seq must be an integer >= 0, got 'a'"),
    "problem_id_not_str": ("validate", lambda row: {**row, "problem_id": 5}, "problem_id must be a string, got 5"),
    "input_drops_unknown_status": ("construct", lambda row: {**row, "input_drops": {"x": "y"}},
                                   "input_drops key must be one of 'runtime_error', 'timeout', "
                                   "'output_overflow', got 'x'"),
    "case_index_not_integer": ("validate", lambda row: {**row, "case_index": "q"},
                               "case_index must be an integer >= 0 or null, got 'q'"),
    "expected_output_not_str": ("construct", lambda row: with_first_case(row, expected_output=5),
                                "expected_output must be a string, got 5"),
    "status_maybe": ("dedup", lambda row: {**row, "status": "maybe"},
                     "status must be one of 'ok', 'drop', got 'maybe'"),
}


@pytest.mark.parametrize("case", list(BAD_UNIT_ROWS))
def test_bad_unit_row_exits_2(golden_run_copy, golden_config_path, capsys, case):
    stage, change, message = BAD_UNIT_ROWS[case]
    path = golden_run_copy / f"stage_{stage}.jsonl"
    rows = load_jsonl(path)
    line = next(n for n, row in enumerate(rows, 1) if row["status"] == "ok")
    rows[line - 1] = change(rows[line - 1])
    emit_jsonl(rows, path)
    resume_from = STAGES[STAGES.index(stage) + 1]
    code = run_cli(
        "run", "--config", golden_config_path, "--out", golden_run_copy, "--resume-from", resume_from
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: stage {stage}: ")
    assert f"stage_{stage}.jsonl line {line}: {message}" in err
    assert "Traceback" not in err


def test_negative_scale_exits_2(tmp_path, golden_config_path, capsys):
    code = run_cli("run", "--config", golden_config_path, "--out", tmp_path, "--scale", "-1")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: scale must be an integer >= 0")
    assert "Traceback" not in err
    assert not (tmp_path / "dataset.jsonl").exists()


def test_stage_summary_reads_rows_with_line_separators(tmp_path, golden_config_path, caplog):
    assert run_cli("ingest", "--config", golden_config_path, "--out", tmp_path) == 0
    assert run_cli("generate", "--config", golden_config_path, "--out", tmp_path) == 0
    path = tmp_path / "stage_generate.jsonl"
    rows = load_jsonl(path)
    ok = next(row for row in rows if row["status"] == "ok")
    ok["instruction"] = ok["instruction"].replace(" ", "\u2028", 1)
    emit_jsonl(rows, path)
    caplog.set_level(logging.INFO, logger="semiforge.pipeline")
    assert run_cli("validate", "--config", golden_config_path, "--out", tmp_path) == 0
    assert kept_lines(caplog) == [
        "stage construct: 28/30 rows kept",
        "stage validate: 24/28 rows kept",
        "stage dedup: 21/24 rows kept",
    ]


def test_report_text_and_json(tmp_path, capsys):
    funnel = GOLDEN / "funnel_stats.json"
    assert run_cli("report", "--funnel", funnel) == 0
    text = capsys.readouterr().out
    assert "generated_ok: 30 (90.9% of loaded_codes)" in text
    assert run_cli("report", "--funnel", funnel, "--format", "json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["stages"]["after_dedup"] == 21


COUNTS = {"loaded_codes": 3, "generated_ok": 2, "with_test_cases": 2, "refined_passed": 1, "after_dedup": 1}


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file or directory"),
        (json.dumps({"loaded_codes": 3}), "generated_ok must be an integer >= 0, got nothing"),
        (json.dumps({**COUNTS, "loaded_codes": 3.9}), "loaded_codes must be an integer >= 0, got 3.9"),
        (json.dumps({**COUNTS, "loaded_codes": True}), "loaded_codes must be an integer >= 0, got True"),
        (json.dumps({**COUNTS, "drop_reasons": {"generate": {"x": "y"}}}),
         "drop_reasons['generate']['x'] must be an integer >= 0, got 'y'"),
        (json.dumps([3, 2, 1]), "funnel must be an object, got [3, 2, 1]"),
        (json.dumps({**COUNTS, "extra": 5}),
         "funnel must hold no key but loaded_codes, generated_ok, with_test_cases, refined_passed, after_dedup,"
         " drop_reasons, got 'extra'"),
    ],
    ids=["missing_file", "missing_count", "count_not_integer", "count_boolean", "reason_count_not_integer", "array",
         "extra_key"],
)
def test_report_unreadable_funnel_exits_2(tmp_path, capsys, content, message):
    funnel = tmp_path / "funnel.json"
    if content is not None:
        funnel.write_text(content, encoding="utf-8")
    code = run_cli("report", "--funnel", funnel)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: could not read funnel {funnel}: ")
    assert message in err


def test_eval_command(tmp_path, capsys):
    problems = tmp_path / "problems.jsonl"
    problems.write_text(
        json.dumps(
            {
                "problem_id": "double",
                "test_cases": [
                    {"mode": "stdin", "payload": "2", "function_name": None, "expected_output": "4"},
                    {"mode": "stdin", "payload": "5", "function_name": None, "expected_output": "10"},
                ],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    candidates = tmp_path / "candidates.jsonl"
    candidates.write_text(
        "\n".join(
            json.dumps({"problem_id": "double", "candidate_code": code})
            for code in ("print(int(input()) * 2)", "print(int(input()) * 9)")
        )
        + "\n",
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    code = run_cli(
        "eval",
        "--problems", problems,
        "--candidates", candidates,
        "--k", "1,2",
        "--out", report_path,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "report ->" in out
    blob = json.loads(report_path.read_text(encoding="utf-8"))
    assert blob["pass_at_k"]["1"] == pytest.approx(0.5)
    assert blob["pass_at_k"]["2"] == pytest.approx(1.0)
    assert blob["problems"][0]["c"] == 1


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    return path


DOUBLE_CASE = {"mode": "stdin", "payload": "2", "function_name": None, "expected_output": "4"}


def test_eval_reads_candidate_with_line_separator(tmp_path, capsys):
    problems = write_jsonl(tmp_path / "problems.jsonl", [{"problem_id": "d", "test_cases": [DOUBLE_CASE]}])
    code = "print(int(input()) * 2)  # twice\u2028over"
    candidates = write_jsonl(tmp_path / "candidates.jsonl", [{"problem_id": "d", "candidate_code": code}])
    assert run_cli("eval", "--problems", problems, "--candidates", candidates) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["problems"][0]["n"] == 1
    assert blob["problems"][0]["c"] == 1


@pytest.mark.parametrize(
    "problem, message",
    [
        ({"problem_id": "d", "test_cases": [{"mode": "stdin", "payload": "2"}]},
         "problems.jsonl line 1: expected_output must be a string, got nothing"),
        ({"problem_id": "d", "test_cases": [{**DOUBLE_CASE, "mode": "socket"}]},
         "problems.jsonl line 1: unknown execution mode: 'socket'"),
        ({"test_cases": []}, "problems.jsonl line 1: problem_id must be a string, got nothing"),
        ({"problem_id": "d", "test_cases": None}, "problems.jsonl line 1: test_cases must be a non-empty array, got None"),
        ({"problem_id": "d", "test_cases": []}, "problems.jsonl line 1: test_cases must be a non-empty array, got []"),
        ({"problem_id": "d", "test_cases": [{**DOUBLE_CASE, "expected_output": 1}]},
         "problems.jsonl line 1: expected_output must be a string, got 1"),
        ({"problem_id": "d", "test_cases": [{**DOUBLE_CASE, "function_name": 5}]},
         "problems.jsonl line 1: function_name must be a string or null, got 5"),
        ({"problem_id": 5, "test_cases": [DOUBLE_CASE]}, "problems.jsonl line 1: problem_id must be a string, got 5"),
        ({"problem_id": "d", "test_cases": [{**DOUBLE_CASE, "note": "x"}]},
         "problems.jsonl line 1: test case must hold no key but mode, payload, function_name, expected_output,"
         " got 'note'"),
    ],
    ids=[
        "case_without_expected_output",
        "unknown_mode",
        "no_problem_id",
        "cases_not_array",
        "no_test_cases",
        "expected_output_not_str",
        "function_name_not_str",
        "problem_id_not_str",
        "case_extra_key",
    ],
)
def test_eval_malformed_problem_exits_2(tmp_path, capsys, problem, message):
    problems = write_jsonl(tmp_path / "problems.jsonl", [problem])
    candidates = write_jsonl(tmp_path / "candidates.jsonl", [{"problem_id": "d", "candidate_code": "pass"}])
    code = run_cli("eval", "--problems", problems, "--candidates", candidates)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_eval_malformed_candidate_exits_2(tmp_path, capsys):
    problems = write_jsonl(tmp_path / "problems.jsonl", [{"problem_id": "d", "test_cases": [DOUBLE_CASE]}])
    candidates = tmp_path / "candidates.jsonl"
    candidates.write_text(json.dumps({"problem_id": "d"}) + "\n{\n", encoding="utf-8")
    code = run_cli("eval", "--problems", problems, "--candidates", candidates)
    err = capsys.readouterr().err
    assert code == 2
    assert "candidates.jsonl line 1: candidate_code must be a string, got nothing" in err


@pytest.mark.parametrize(
    "candidate, message",
    [
        ({"problem_id": "d", "candidate_code": 5}, "candidate_code must be a string, got 5"),
        ({"problem_id": "d", "candidate_code": None}, "candidate_code must be a string, got None"),
        ({"problem_id": "d", "candidate_code": ["print(1)"]}, "candidate_code must be a string, got ['print(1)']"),
        ({"problem_id": 5, "candidate_code": "pass"}, "problem_id must be a string, got 5"),
        ({"problem_id": "e", "candidate_code": "pass"}, "problem_id 'e' names no problem of "),
    ],
    ids=["code_integer", "code_null", "code_array", "problem_id_integer", "problem_id_unknown"],
)
def test_eval_candidate_of_wrong_type_exits_2(tmp_path, capsys, candidate, message):
    problems = write_jsonl(tmp_path / "problems.jsonl", [{"problem_id": "d", "test_cases": [DOUBLE_CASE]}])
    candidates = write_jsonl(tmp_path / "candidates.jsonl", [candidate])
    code = run_cli("eval", "--problems", problems, "--candidates", candidates)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert f"candidates.jsonl line 1: {message}" in err
    assert "Traceback" not in err


def test_eval_problem_listed_twice_exits_2(tmp_path, capsys):
    problem = {"problem_id": "d", "test_cases": [DOUBLE_CASE]}
    problems = write_jsonl(tmp_path / "problems.jsonl", [problem, problem])
    candidates = write_jsonl(tmp_path / "candidates.jsonl", [{"problem_id": "d", "candidate_code": "pass"}])
    code = run_cli("eval", "--problems", problems, "--candidates", candidates)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {problems} line 2: problem_id 'd' is listed twice")
    assert captured.out == ""


def test_eval_bad_k_exits_2(tmp_path, capsys):
    problems = write_jsonl(tmp_path / "problems.jsonl", [{"problem_id": "d", "test_cases": [DOUBLE_CASE]}])
    candidates = write_jsonl(tmp_path / "candidates.jsonl", [{"problem_id": "d", "candidate_code": "pass"}])
    code = run_cli("eval", "--problems", problems, "--candidates", candidates, "--k", "1,x")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --k takes comma-separated integers, got '1,x'")


def test_eval_unwritable_out_exits_2(tmp_path, capsys):
    problems = write_jsonl(tmp_path / "problems.jsonl", [{"problem_id": "d", "test_cases": [DOUBLE_CASE]}])
    candidates = write_jsonl(tmp_path / "candidates.jsonl", [{"problem_id": "d", "candidate_code": "pass"}])
    out = tmp_path / "missing" / "report.json"
    code = run_cli("eval", "--problems", problems, "--candidates", candidates, "--out", out)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: could not write {out}: ")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_eval_bad_workers_exits_2(tmp_path, capsys, value):
    problems = write_jsonl(tmp_path / "problems.jsonl", [{"problem_id": "d", "test_cases": [DOUBLE_CASE]}])
    candidates = write_jsonl(tmp_path / "candidates.jsonl", [{"problem_id": "d", "candidate_code": "pass"}])
    code = run_cli("eval", "--problems", problems, "--candidates", candidates, "--workers", value)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: workers must be >= 1, got {value}")
    assert "Traceback" not in err


BAD_WALL_TIMEOUTS = {
    "0": "wall_timeout must be > 0, got 0.0",
    "-1": "wall_timeout must be > 0, got -1.0",
    "1e7": "wall_timeout must be <= 2147483.647, got 10000000.0",
}


@pytest.mark.parametrize("value", list(BAD_WALL_TIMEOUTS))
def test_eval_bad_wall_timeout_exits_2(tmp_path, capsys, value):
    problems = write_jsonl(tmp_path / "problems.jsonl", [{"problem_id": "d", "test_cases": [DOUBLE_CASE]}])
    candidates = write_jsonl(tmp_path / "candidates.jsonl", [{"problem_id": "d", "candidate_code": "pass"}])
    code = run_cli("eval", "--problems", problems, "--candidates", candidates, "--wall-timeout", value)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {BAD_WALL_TIMEOUTS[value]}")
    assert "Traceback" not in err


def test_eval_insufficient_candidates(tmp_path, capsys):
    problems = tmp_path / "problems.jsonl"
    problems.write_text(
        json.dumps(
            {
                "problem_id": "p",
                "test_cases": [
                    {"mode": "stdin", "payload": "1", "function_name": None, "expected_output": "1"}
                ],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    candidates = tmp_path / "candidates.jsonl"
    candidates.write_text(
        json.dumps({"problem_id": "p", "candidate_code": "print(input())"}) + "\n",
        encoding="utf-8",
    )
    code = run_cli("eval", "--problems", problems, "--candidates", candidates, "--k", "5")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_corpus_is_cli_error(tmp_path, capsys):
    code = run_cli("run", "--corpus", tmp_path / "nope.jsonl", "--out", tmp_path)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_order_strategy(tmp_path, golden_config_path, capsys):
    code = run_cli(
        "run", "--config", golden_config_path, "--out", tmp_path, "--order", "spiral"
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_report_rejects_non_monotonic(tmp_path, capsys):
    bad = tmp_path / "funnel.json"
    bad.write_text(
        json.dumps(
            {
                "loaded_codes": 1,
                "generated_ok": 5,
                "with_test_cases": 1,
                "refined_passed": 1,
                "after_dedup": 1,
            }
        ),
        encoding="utf-8",
    )
    code = run_cli("report", "--funnel", bad)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verbose_flag(tmp_path, golden_config_path):
    assert run_cli("-v", "ingest", "--config", golden_config_path, "--out", tmp_path) == 0
