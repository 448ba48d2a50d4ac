import json

import pytest

from semiforge.cli import main
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


def test_stage_summaries_report_kept_counts(tmp_path, golden_config_path, capsys):
    assert run_cli("ingest", "--config", golden_config_path, "--out", tmp_path) == 0
    assert run_cli("generate", "--config", golden_config_path, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "ingest: 33/33 rows kept" in out
    assert "generate: 30/33 rows kept" in out


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


def test_report_text_and_json(tmp_path, capsys):
    funnel = GOLDEN / "funnel_stats.json"
    assert run_cli("report", "--funnel", funnel) == 0
    text = capsys.readouterr().out
    assert "generated_ok: 30 (90.9% of loaded_codes)" in text
    assert run_cli("report", "--funnel", funnel, "--format", "json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["stages"]["after_dedup"] == 21


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
