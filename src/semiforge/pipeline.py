"""Staged, resumable pipeline: ingest through emit.

Each stage persists its full row list (kept and dropped records alike)
to ``stage_<name>.jsonl`` in the output directory. Funnel statistics
are recomputed from those rows, so a run resumed from any stage is
byte-identical to a cold run. A fatal error anywhere is raised as
StageFailure carrying the stage name; per-record failures only become
drop rows.
"""

from __future__ import annotations

import json
import logging
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping

from . import corpus as corpus_mod
from .curriculum import OrderingStrategy, order_records
from .dataset import (
    DatasetRecord,
    FunnelStats,
    Provenance,
    emit_jsonl,
    read_jsonl,
    record_from_dict,
    record_to_dict,
)
from .errors import SemiforgeError
from .executor import (
    Invocation,
    ResourceLimits,
    SandboxSetupFailure,
    resolve_interpreter,
)
from .generation import (
    TEMPLATE_VERSION,
    AuthMissing,
    CompletionRequest,
    EmptyCode,
    EndpointUnreachable,
    GenerationBundle,
    LiveClient,
    MissingFunctionName,
    MissingSection,
    NoInputs,
    ParseError,
    PromptTemplate,
    RecordingClient,
    ReplayClient,
    ReplayMiss,
    UnknownAnswerType,
    build_generation_prompt,
    complete,
    parse_components,
    prompt_digest,
)
from .validation import (
    EmptyTestCases,
    TestCase,
    construct_test_cases,
    dedup_instructions,
    validate_refined_code,
)

logger = logging.getLogger(__name__)

STAGES = ("ingest", "generate", "construct", "validate", "dedup", "order", "emit")
_STAGE_ALIASES = {"construct-cases": "construct", "construct_cases": "construct"}
_ROW_STAGES = ("ingest", "generate", "construct", "validate", "dedup")

DATASET_FILE = "dataset.jsonl"
FUNNEL_FILE = "funnel.json"
MANIFEST_FILE = "run_manifest.json"
EVENTS_FILE = "events.jsonl"


class StageFailure(SemiforgeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


def canonical_stage(name: str) -> str:
    stage = _STAGE_ALIASES.get(name, name)
    if stage not in STAGES:
        raise ValueError(f"unknown stage: {name!r} (expected one of {', '.join(STAGES)})")
    return stage


@dataclass
class PipelineConfig:
    """Every knob of one pipeline run; echoed into the run manifest."""

    corpus_path: str = ""
    corpus_format: str = "generic"
    language: str = "python"
    out_dir: str = "out"
    template_path: str | None = None
    input_count: int = 8
    client_mode: str = "replay"
    replay_store: str = "fixtures/completions"
    record_completions: bool = False
    endpoint: str = ""
    model_id: str = "default"
    temperature: float = 0.7
    top_p: float = 0.95
    max_tokens: int = 2048
    max_solution_tokens: int = 1000
    token_mode: str = "whitespace"
    merge_key: str = "normalized_description"
    solution_cap: int = 25
    wall_timeout: float = 5.0
    memory_bytes: int = 256 * 1024 * 1024
    output_bytes: int = 1024 * 1024
    interpreter: str | None = None
    dedup_threshold: float = 0.7
    dedup_compare: str = "retained"
    order: str = "semi_ranked"
    seed: int = 0
    scale: int | None = None
    si_path: str | None = None
    workers: int = 4
    resume_from: str | None = None

    def limits(self) -> ResourceLimits:
        return ResourceLimits(
            wall_timeout=self.wall_timeout,
            memory_bytes=self.memory_bytes,
            output_bytes=self.output_bytes,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: Mapping) -> "PipelineConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**obj)


_PATH_KEYS = ("corpus_path", "out_dir", "template_path", "replay_store", "si_path")


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON config; relative paths resolve against the file's directory."""
    path = Path(path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise ValueError(f"config must be a JSON object: {path}")
    base = path.resolve().parent
    for key in _PATH_KEYS:
        value = obj.get(key)
        if value and not Path(value).is_absolute():
            obj[key] = str(base / value)
    return PipelineConfig.from_dict(obj)


def stage_path(out_dir: str | Path, stage: str) -> Path:
    return Path(out_dir) / f"stage_{stage}.jsonl"


def _write_rows(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def _read_rows(stage: str, path: Path) -> list[dict]:
    # Split on b"\n" only: rows are written with ensure_ascii=False, so a
    # string may hold U+2028 or U+0085, which str.splitlines() breaks on.
    rows = []
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise StageFailure(stage, f"{path} line {n}: {exc.msg}") from exc
            except UnicodeDecodeError as exc:
                raise StageFailure(stage, f"{path} line {n}: {exc.reason}") from exc
    return rows


def _map_rows(workers: int, fn, items: list) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _stage_ingest(config: PipelineConfig) -> list[dict]:
    problems = corpus_mod.load_corpus(config.corpus_path, config.corpus_format, config.language)
    problems = corpus_mod.filter_problems(problems, config.max_solution_tokens, config.token_mode)
    problems = corpus_mod.merge_duplicate_problems(problems, config.merge_key)
    problems = corpus_mod.cap_solutions(problems, config.solution_cap)
    rows = []
    for problem in problems:
        for index, solution in enumerate(problem.solutions):
            rows.append(
                {
                    "unit_id": f"{problem.problem_id}:{index}",
                    "problem_id": problem.problem_id,
                    "solution_index": index,
                    "description": problem.description,
                    "code": solution.code,
                    "status": "ok",
                    "reason": None,
                }
            )
    if not rows:
        raise StageFailure("ingest", "corpus is empty after preprocessing")
    return rows


def _make_client(config: PipelineConfig):
    if config.client_mode == "replay":
        return ReplayClient(config.replay_store)
    if config.client_mode == "live":
        client = LiveClient(config.endpoint)
        if config.record_completions:
            return RecordingClient(client, config.replay_store)
        return client
    raise StageFailure("generate", f"unknown client mode: {config.client_mode!r}")


def _parse_drop_reason(exc: ParseError) -> str:
    if isinstance(exc, MissingSection):
        return f"missing_section:{exc.section}"
    if isinstance(exc, UnknownAnswerType):
        return "unknown_answer_type"
    if isinstance(exc, NoInputs):
        return "no_inputs"
    if isinstance(exc, MissingFunctionName):
        return "missing_function_name"
    return "parse_error"


def _stage_generate(config: PipelineConfig, ingest_rows: list[dict]) -> list[dict]:
    template = (
        PromptTemplate.from_file(config.template_path, config.input_count)
        if config.template_path
        else PromptTemplate.default(config.input_count)
    )
    client = _make_client(config)

    def work(item) -> dict:
        seq, row = item
        base = {
            "unit_id": row["unit_id"],
            "problem_id": row["problem_id"],
            "solution_index": row["solution_index"],
            "seq": seq,
            "code": row["code"],
            "prompt_sha256": None,
            "bundle": None,
        }
        try:
            prompt = build_generation_prompt(row["code"], template)
        except EmptyCode:
            return {**base, "status": "drop", "reason": "empty_code"}
        base["prompt_sha256"] = prompt_digest(prompt)
        request = CompletionRequest(
            prompt=prompt,
            temperature=config.temperature,
            top_p=config.top_p,
            max_tokens=config.max_tokens,
            model_id=config.model_id,
        )
        try:
            completion = complete(client, request)
        except (ReplayMiss, AuthMissing, EndpointUnreachable) as exc:
            raise StageFailure("generate", f"{row['unit_id']}: {exc}") from exc
        try:
            bundle = parse_components(completion.text)
        except ParseError as exc:
            return {**base, "status": "drop", "reason": _parse_drop_reason(exc)}
        return {
            **base,
            "status": "ok",
            "reason": None,
            "bundle": {
                "instruction": bundle.instruction,
                "refined_code": bundle.refined_code,
                "answer_type": {
                    "kind": bundle.answer_type.kind,
                    "function_name": bundle.answer_type.function_name,
                },
                "raw_inputs": list(bundle.raw_inputs),
            },
        }

    return _map_rows(config.workers, work, list(enumerate(ingest_rows)))


def _bundle_from_row(row: dict) -> GenerationBundle:
    from .generation import AnswerType

    bundle = row["bundle"]
    at = bundle["answer_type"]
    return GenerationBundle(
        instruction=bundle["instruction"],
        refined_code=bundle["refined_code"],
        answer_type=AnswerType(kind=at["kind"], function_name=at.get("function_name")),
        raw_inputs=tuple(bundle["raw_inputs"]),
        raw_completion="",
    )


def _case_to_dict(case: TestCase) -> dict:
    return {
        "mode": case.invocation.mode,
        "payload": case.invocation.payload,
        "function_name": case.invocation.function_name,
        "expected_output": case.expected_output,
    }


def _case_from_dict(obj: Mapping) -> TestCase:
    return TestCase(
        invocation=Invocation(
            mode=obj["mode"],
            payload=obj["payload"],
            function_name=obj.get("function_name"),
        ),
        expected_output=obj["expected_output"],
    )


def _check_interpreter(config: PipelineConfig, stage: str) -> None:
    try:
        resolve_interpreter(config.interpreter)
    except SemiforgeError as exc:
        raise StageFailure(stage, str(exc)) from exc


def _stage_construct(config: PipelineConfig, generate_rows: list[dict]) -> list[dict]:
    _check_interpreter(config, "construct")
    limits = config.limits()
    ok_rows = [row for row in generate_rows if row["status"] == "ok"]

    def work(row: dict) -> dict:
        bundle = _bundle_from_row(row)
        base = {
            "unit_id": row["unit_id"],
            "problem_id": row["problem_id"],
            "solution_index": row["solution_index"],
            "seq": row["seq"],
            "code": row["code"],
            "instruction": bundle.instruction,
            "refined_code": bundle.refined_code,
            "answer_type": dict(row["bundle"]["answer_type"]),
            "test_cases": [],
            "input_drops": {},
        }
        try:
            cases, drops = construct_test_cases(row["code"], bundle, limits, config.interpreter)
        except EmptyTestCases as exc:
            return {**base, "status": "drop", "reason": "empty_test_cases", "input_drops": exc.drops}
        except SandboxSetupFailure as exc:
            logger.warning("sandbox failure on %s: %s", row["unit_id"], exc)
            return {**base, "status": "drop", "reason": "sandbox_failure"}
        return {
            **base,
            "status": "ok",
            "reason": None,
            "test_cases": [_case_to_dict(c) for c in cases],
            "input_drops": dict(drops),
        }

    return _map_rows(config.workers, work, ok_rows)


def _stage_validate(config: PipelineConfig, construct_rows: list[dict]) -> list[dict]:
    _check_interpreter(config, "validate")
    limits = config.limits()
    ok_rows = [row for row in construct_rows if row["status"] == "ok"]

    def work(row: dict) -> dict:
        cases = [_case_from_dict(c) for c in row["test_cases"]]
        base = {
            "unit_id": row["unit_id"],
            "problem_id": row["problem_id"],
            "solution_index": row["solution_index"],
            "seq": row["seq"],
            "instruction": row["instruction"],
            "refined_code": row["refined_code"],
            "answer_type": dict(row["answer_type"]),
            "test_cases": list(row["test_cases"]),
            "difficulty": len(cases),
            "case_index": None,
        }
        try:
            verdict = validate_refined_code(row["refined_code"], cases, limits, config.interpreter)
        except SandboxSetupFailure as exc:
            logger.warning("sandbox failure on %s: %s", row["unit_id"], exc)
            return {**base, "status": "drop", "reason": "sandbox_failure"}
        if verdict.passed:
            return {**base, "status": "ok", "reason": None}
        return {
            **base,
            "status": "drop",
            "reason": verdict.reason.value,
            "case_index": verdict.case_index,
        }

    return _map_rows(config.workers, work, ok_rows)


def _stage_dedup(config: PipelineConfig, validate_rows: list[dict]) -> list[dict]:
    ok_rows = [row for row in validate_rows if row["status"] == "ok"]
    retained = dedup_instructions(
        ok_rows,
        threshold=config.dedup_threshold,
        compare=config.dedup_compare,
        key=lambda row: row["instruction"],
    )
    retained_ids = {id(row) for row in retained}
    rows = []
    for row in ok_rows:
        kept = id(row) in retained_ids
        rows.append(
            {
                "unit_id": row["unit_id"],
                "problem_id": row["problem_id"],
                "solution_index": row["solution_index"],
                "seq": row["seq"],
                "instruction": row["instruction"],
                "refined_code": row["refined_code"],
                "answer_type": dict(row["answer_type"]),
                "test_cases": list(row["test_cases"]),
                "difficulty": row["difficulty"],
                "status": "ok" if kept else "drop",
                "reason": None if kept else "near_duplicate",
            }
        )
    return rows


def _stage_order(config: PipelineConfig, dedup_rows: list[dict]) -> list[dict]:
    records = []
    for row in dedup_rows:
        if row["status"] != "ok":
            continue
        records.append(
            DatasetRecord(
                instruction=row["instruction"],
                code=row["refined_code"],
                source="semi",
                difficulty=row["difficulty"],
                n_test_cases=row["difficulty"],
                answer_type=row["answer_type"],
                test_cases=tuple(row["test_cases"]),
                provenance=Provenance(
                    problem_id=row["problem_id"],
                    solution_index=row["solution_index"],
                    seq=row["seq"],
                ),
            )
        )
    if config.si_path:
        records.extend(read_jsonl(config.si_path))
    try:
        strategy = OrderingStrategy(kind=config.order, seed=config.seed)
    except ValueError as exc:
        raise StageFailure("order", str(exc)) from exc
    ordered = order_records(records, strategy)
    if config.scale is not None:
        ordered = ordered[: config.scale]
    return [record_to_dict(record) for record in ordered]


def _stage_emit(config: PipelineConfig, order_rows: list[dict]) -> list[dict]:
    records = [record_from_dict(row) for row in order_rows]
    count = emit_jsonl(records, Path(config.out_dir) / DATASET_FILE)
    logger.info("emitted %d records", count)
    return order_rows


def _funnel_from_rows(rows: Mapping[str, list[dict]]) -> FunnelStats:
    def ok_count(stage: str) -> int:
        return sum(1 for row in rows[stage] if row["status"] == "ok")

    drop_reasons: dict[str, dict[str, int]] = {}
    for stage in ("generate", "construct", "validate", "dedup"):
        reasons = Counter(row["reason"] for row in rows[stage] if row["status"] == "drop")
        if reasons:
            drop_reasons[stage] = dict(reasons)
    input_drops: Counter = Counter()
    for row in rows["construct"]:
        input_drops.update(row.get("input_drops") or {})
    if input_drops:
        drop_reasons["construct_inputs"] = dict(input_drops)

    return FunnelStats(
        loaded_codes=len(rows["ingest"]),
        generated_ok=ok_count("generate"),
        with_test_cases=ok_count("construct"),
        refined_passed=ok_count("validate"),
        after_dedup=ok_count("dedup"),
        drop_reasons=drop_reasons,
    )


def _write_events(out_dir: Path, rows: Mapping[str, list[dict]]) -> None:
    with open(out_dir / EVENTS_FILE, "w", encoding="utf-8", newline="\n") as fh:
        for stage in _ROW_STAGES:
            for row in rows.get(stage, []):
                event = {
                    "stage": stage,
                    "unit_id": row["unit_id"],
                    "status": row["status"],
                    "reason": row.get("reason"),
                }
                fh.write(json.dumps(event, ensure_ascii=False, sort_keys=True))
                fh.write("\n")


_RUNNERS = {
    "ingest": lambda config, rows: _stage_ingest(config),
    "generate": lambda config, rows: _stage_generate(config, rows["ingest"]),
    "construct": lambda config, rows: _stage_construct(config, rows["generate"]),
    "validate": lambda config, rows: _stage_validate(config, rows["construct"]),
    "dedup": lambda config, rows: _stage_dedup(config, rows["validate"]),
    "order": lambda config, rows: _stage_order(config, rows["dedup"]),
    "emit": lambda config, rows: _stage_emit(config, rows["order"]),
}


def run_pipeline(config: PipelineConfig, stop_after: str | None = None) -> FunnelStats | None:
    """Run (or resume) the pipeline; returns FunnelStats once dedup is reached.

    ``config.resume_from`` names the first stage to execute; earlier
    stages are loaded from their stage files. ``stop_after`` truncates
    the run after the named stage.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = canonical_stage(config.resume_from) if config.resume_from else "ingest"
    stop = canonical_stage(stop_after) if stop_after else "emit"
    start_idx = STAGES.index(start)
    stop_idx = STAGES.index(stop)
    if start_idx > stop_idx:
        raise ValueError(f"resume stage {start!r} is after stop stage {stop!r}")

    rows: dict[str, list[dict]] = {}
    loaded: list[str] = []
    executed: list[str] = []
    timings: dict[str, float] = {}

    for stage in STAGES[:start_idx]:
        if stage == "emit":
            continue
        path = stage_path(out_dir, stage)
        if not path.is_file():
            raise StageFailure(stage, f"missing stage file {path}; run earlier stages first")
        rows[stage] = _read_rows(stage, path)
        loaded.append(stage)

    for stage in STAGES[start_idx : stop_idx + 1]:
        began = time.monotonic()
        try:
            result = _RUNNERS[stage](config, rows)
        except StageFailure:
            raise
        except SemiforgeError as exc:
            raise StageFailure(stage, str(exc)) from exc
        timings[stage] = round(time.monotonic() - began, 3)
        rows[stage] = result
        if stage != "emit":
            _write_rows(stage_path(out_dir, stage), result)
        executed.append(stage)
        logger.info("stage %s: %d rows (%.3fs)", stage, len(result), timings[stage])

    stats: FunnelStats | None = None
    if stop_idx >= STAGES.index("dedup"):
        stats = _funnel_from_rows(rows)
        funnel_payload = json.dumps(stats.to_dict(), indent=2, sort_keys=True)
        (out_dir / FUNNEL_FILE).write_text(funnel_payload + "\n", encoding="utf-8")

    _write_events(out_dir, rows)

    manifest = {
        "config": config.to_dict(),
        "seed": config.seed,
        "template": {
            "path": config.template_path or "builtin",
            "version": TEMPLATE_VERSION,
            "input_count": config.input_count,
        },
        "stages_loaded": loaded,
        "stages_executed": executed,
        "timings_sec": timings,
        "row_counts": {stage: len(stage_rows) for stage, stage_rows in rows.items()},
    }
    (out_dir / MANIFEST_FILE).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return stats
