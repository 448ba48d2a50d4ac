"""Command-line interface.

The pipeline commands are one table, STAGE_COMMANDS: each runs a slice
of the stages against the stage files in the output directory (`run`
from its config's `resume_from` to the end), and prints the funnel
report once its run reached dedup and the dataset path once it reached
emit; the run logs each stage's kept rows. `eval` scores candidate
files with pass@k, and `report` renders a stored funnel. Options layer
as defaults < --config file < explicit flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .corpus import FORMATS
from .dataset import FunnelStats, NonEmpty, atomic_write, check_fields, check_only, funnel_report, read_json_lines
from .errors import SemiforgeError
from .executor import DEFAULT_WALL_TIMEOUT, Invocation, ResourceLimits
from .metrics import EvalProblem, evaluate_candidates
from .pipeline import CLIENT_MODES, DATASET_FILE, PipelineConfig, load_config, run_pipeline
from .validation import CASE_FIELDS, CASE_REQUIRED, TestCase

# Each pipeline command: (its help, the first stage it runs, the last); run's first is its config's resume_from.
STAGE_COMMANDS = {
    "ingest": ("load, filter, merge and cap the corpus", "ingest", "ingest"),
    "generate": ("run LLM generation over ingested codes", "generate", "generate"),
    "validate": ("construct test cases, validate refined code, dedup", "construct", "dedup"),
    "rank": ("order validated records by the configured strategy", "order", "order"),
    "emit": ("write the final dataset from the ordered records", "emit", "emit"),
    "run": ("run the full pipeline", None, "emit"),
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """Add one flag per overridable config field; each flag's dest is its field."""
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--corpus", dest="corpus_path", help="corpus archive path")
    parser.add_argument("--format", dest="corpus_format", choices=FORMATS, help="corpus layout")
    parser.add_argument("--out", dest="out_dir", help="output directory for stage files and the dataset")
    parser.add_argument("--template", dest="template_path", help="prompt template file (default: built-in)")
    parser.add_argument("--input-count", type=int, dest="input_count", help="test inputs to request")
    parser.add_argument("--client", dest="client_mode", choices=CLIENT_MODES, help="completion client mode")
    parser.add_argument("--replay-store", dest="replay_store", help="completion store (live mode adds to it)")
    parser.add_argument("--endpoint", dest="endpoint", help="live chat-completion endpoint URL")
    parser.add_argument("--model", dest="model_id", help="model id sent to the live endpoint")
    parser.add_argument("--interpreter", dest="interpreter", help="interpreter for sandboxed runs")
    parser.add_argument("--wall-timeout", type=float, dest="wall_timeout", help="per-run CPU seconds")
    parser.add_argument("--threshold", type=float, dest="dedup_threshold", help="ROUGE-L dedup threshold")
    parser.add_argument("--order", dest="order", help="ordering strategy")
    parser.add_argument("--seed", type=int, dest="seed", help="RNG seed for randomized orderings")
    parser.add_argument("--scale", type=int, dest="scale", help="emit only the first N ordered records")
    parser.add_argument("--si", dest="si_path", help="self-instruct records file to merge before ordering")
    parser.add_argument("--workers", type=int, dest="workers", help="worker pool width")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    for name, value in vars(args).items():
        if name in PipelineConfig.__dataclass_fields__ and value is not None:
            setattr(config, name, value)
    return config


def _cmd_stages(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, first, last = STAGE_COMMANDS[args.command]
    config.resume_from = first or config.resume_from
    stats = run_pipeline(config, stop_after=last)
    if stats is not None:
        print(funnel_report(stats))
    if last == "emit":
        print(f"dataset -> {Path(config.out_dir) / DATASET_FILE}")
    return 0


def _load_eval_problems(problems_path: str, candidates_path: str) -> list[EvalProblem]:
    """Read the eval inputs; a bad row fails naming its file and line.

    A row is bad if it is malformed, lists a problem a second time, or
    gives a candidate for no listed problem.
    """
    candidates: dict[str, list[str]] = {}  # problem_id -> its candidates, in file order

    def test_case(case) -> TestCase:
        check_only(case, CASE_FIELDS, CASE_REQUIRED, name="test case")
        return TestCase(Invocation(case["mode"], case["payload"], case.get("function_name")), case["expected_output"])

    def problem(row) -> tuple[str, tuple[TestCase, ...]]:
        check_fields(row, {"problem_id": str, "test_cases": NonEmpty})
        if row["problem_id"] in candidates:
            raise ValueError(f"problem_id {row['problem_id']!r} is listed twice")
        candidates[row["problem_id"]] = []
        return row["problem_id"], tuple(map(test_case, row["test_cases"]))

    def candidate(row) -> None:
        check_fields(row, {"problem_id": str, "candidate_code": str})
        if row["problem_id"] not in candidates:
            raise ValueError(f"problem_id {row['problem_id']!r} names no problem of {problems_path}")
        candidates[row["problem_id"]].append(row["candidate_code"])

    try:
        problem_rows = read_json_lines(problems_path, problem)
        read_json_lines(candidates_path, candidate)
    except (OSError, ValueError) as exc:
        raise SemiforgeError(str(exc)) from exc
    return [EvalProblem(pid, cases, tuple(candidates[pid])) for pid, cases in problem_rows]


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        ks = [int(part) for part in args.k.split(",") if part.strip()]
    except ValueError as exc:
        raise SemiforgeError(f"--k takes comma-separated integers, got {args.k!r}") from exc
    problems = _load_eval_problems(args.problems, args.candidates)
    try:
        limits = ResourceLimits(wall_timeout=args.wall_timeout)
    except ValueError as exc:
        raise SemiforgeError(str(exc)) from exc
    report = evaluate_candidates(
        problems,
        limits=limits,
        ks=ks,
        interpreter=args.interpreter,
        workers=args.workers,
    )
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(payload + "\n")
        print(f"report -> {args.out}")
    print(payload)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        stats = FunnelStats.from_dict(json.loads(Path(args.funnel).read_text(encoding="utf-8")))
    except (OSError, ValueError) as exc:
        raise SemiforgeError(f"could not read funnel {args.funnel}: {exc}") from exc
    print(funnel_report(stats, format=args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiforge",
        description="Turn judge-style code corpora into validated, difficulty-ordered instruction-code pairs.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, first, _) in STAGE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=_cmd_stages)
        _add_config_flags(p)
        if first is None:
            p.add_argument(
                "--resume-from",
                dest="resume_from",
                help="first stage to execute; earlier stages load from stage files",
            )

    p_eval = sub.add_parser("eval", help="score candidate completions with pass@k")
    p_eval.set_defaults(handler=_cmd_eval)
    p_eval.add_argument("--problems", required=True, help="JSONL of {problem_id, test_cases}")
    p_eval.add_argument("--candidates", required=True, help="JSONL of {problem_id, candidate_code}")
    p_eval.add_argument("--k", default="1", help="comma-separated k values (default 1)")
    p_eval.add_argument("--wall-timeout", type=float, dest="wall_timeout", default=DEFAULT_WALL_TIMEOUT,
                        help="per-run CPU seconds (default %(default)s)")
    p_eval.add_argument("--interpreter", help="interpreter for sandboxed runs")
    p_eval.add_argument("--workers", type=int, default=1, help="worker pool width (default 1)")
    p_eval.add_argument("--out", help="write the JSON report here as well")

    p_report = sub.add_parser("report", help="render a stored funnel report")
    p_report.set_defaults(handler=_cmd_report)
    p_report.add_argument("--funnel", required=True, help="funnel.json produced by run")
    p_report.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except SemiforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
