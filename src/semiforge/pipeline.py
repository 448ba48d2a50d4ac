"""Staged, resumable pipeline: ingest through emit.

One corpus solution moves through ingest -> generate -> construct ->
validate -> dedup as a *unit row*: one flat dict that each stage
extends with its own fields (see UNIT_FIELDS) and a new status and
reason, never rebuilds. Order turns the kept rows into dataset records
(see dataset.record) and emit passes them on as they are. Each stage
persists its full row list (kept and dropped records alike) to
``stage_<name>.jsonl`` in the output directory, emit to ``dataset.jsonl``.
The sandbox stages a run executes, construct and validate, run as one
chain (see _run_chain): a unit's task on the worker pool validates the
unit as soon as construct keeps it, so neither stage waits for the
other units, and both stage files are written once the chain ends.
run_pipeline is one pass over the stages: each stage's rows, read from
its file on a resumed run or made by the stage, are counted into the
funnel statistics and written to events.jsonl as they pass, and then
kept only as the next stage's input. So a run resumed from any stage is
byte-identical to a cold run, and a run holds one stage's rows at a
time besides those a running stage reads and makes. Once an executed
stage's rows are counted, one INFO line reports how many it kept. A bad
config value is raised as InvalidConfig before any stage runs
(PipelineConfig.check); a fatal error in a stage is raised as
StageFailure carrying the stage name; per-record failures only become
drop rows.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path
from typing import Literal, Mapping, get_type_hints

from . import corpus as corpus_mod
from .curriculum import STRATEGIES, order_records
from .dataset import (
    Count, FunnelStats, NonEmpty, atomic_write, check_fields, check_only, emit_jsonl, json_line, read_json_lines,
    record,
)
from .errors import SemiforgeError
from .executor import (
    DEFAULT_WALL_TIMEOUT, STATUSES, Invocation, ResourceLimits, SandboxSetupFailure, map_workers, sandbox,
)
from .generation import (
    CALL_BASED,
    DEFAULT_INPUT_COUNT,
    STANDARD_INPUT,
    TEMPLATE_VERSION,
    EmptyCode,
    ParseError,
    PromptTemplate,
    ReplayClient,
    build_generation_prompt,
    parse_components,
    prompt_digest,
)
from .live import LiveClient
from .validation import (
    CASE_FIELDS,
    CASE_REQUIRED,
    DEFAULT_DEDUP_THRESHOLD,
    TestCase,
    construct_test_cases,
    dedup_instructions,
    validate_refined_code,
)

logger = logging.getLogger(__name__)

STAGES = ("ingest", "generate", "construct", "validate", "dedup", "order", "emit")

# The fields each stage adds to the unit row, and their kinds (see dataset.check_fields);
# difficulty is also the number of test cases. Every row also holds "status", and a "reason":
# null on an "ok" row, why the unit dropped on a "drop" row. An ok row holds exactly the fields
# of its stage and the stages before it; a drop row may lack those its stage would have added.
# An answer type holds exactly ANSWER_TYPE_FIELDS, and a test case no key but CASE_FIELDS.
UNIT_FIELDS = {
    "ingest": {"unit_id": str, "problem_id": str, "solution_index": Count, "seq": Count, "code": str},
    "generate": {"prompt_sha256": str, "instruction": str, "refined_code": str, "answer_type": dict,
                 "raw_inputs": list[str]},
    "construct": {"test_cases": NonEmpty[dict],
                  "input_drops": dict[Literal[STATUSES[1:]], Count]},  # the inputs dropped, by status: any but "ok"
    "validate": {"difficulty": Count, "case_index": Count | None},
    "dedup": {},
}
ANSWER_TYPE_FIELDS = {"kind": Literal[CALL_BASED, STANDARD_INPUT], "function_name": str | None}
# Each unit stage's row schema by status: (the kinds of the keys a row may hold, the keys it must hold).
# Ingest drops no unit, so its rows have no drop form.
_ROW_SCHEMAS = {stage: {"ok": ({**fields, "status": str, "reason": type(None)}, None),
                        "drop": ({**fields, "status": str, "reason": str}, ("unit_id", "reason"))}
                for stage, fields in zip(UNIT_FIELDS, accumulate(UNIT_FIELDS.values(), lambda a, b: {**a, **b}))}
del _ROW_SCHEMAS["ingest"]["drop"]
_STATUS_FIELDS = {stage: {"status": Literal[tuple(schemas)]} for stage, schemas in _ROW_SCHEMAS.items()}

DATASET_FILE = "dataset.jsonl"
FUNNEL_FILE = "funnel.json"
MANIFEST_FILE = "run_manifest.json"
EVENTS_FILE = "events.jsonl"


class StageFailure(SemiforgeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


class InvalidConfig(SemiforgeError, ValueError):
    pass


def canonical_stage(name: str, field: str = "stage") -> str:
    if name not in STAGES:
        raise InvalidConfig(f"unknown stage: {name!r} ({field} must be one of {', '.join(STAGES)})")
    return name


CLIENT_MODES = ("replay", "live")


@dataclass
class PipelineConfig:
    """Every knob of one pipeline run; echoed into the run manifest.

    ``check`` is the one place that decides which values a run accepts.
    """

    corpus_path: str = ""
    corpus_format: Literal[corpus_mod.FORMATS] = "generic"
    out_dir: str = "out"
    template_path: str | None = None
    input_count: int = DEFAULT_INPUT_COUNT
    client_mode: Literal[CLIENT_MODES] = "replay"
    replay_store: str = "fixtures/completions"
    endpoint: str = ""
    model_id: str = "default"
    max_solution_tokens: int = corpus_mod.DEFAULT_MAX_TOKENS
    solution_cap: int = corpus_mod.DEFAULT_SOLUTION_CAP
    wall_timeout: float = DEFAULT_WALL_TIMEOUT
    interpreter: str | None = None
    dedup_threshold: float = DEFAULT_DEDUP_THRESHOLD
    order: Literal[STRATEGIES] = "semi_ranked"
    seed: Count = 0  # SeedSequence seeding, as numpy's, rejects a negative seed
    scale: Count | None = None
    si_path: str | None = None
    workers: int = 4
    resume_from: str | None = None

    def limits(self) -> ResourceLimits:
        return ResourceLimits(wall_timeout=self.wall_timeout)

    def check(self) -> None:
        """Raise InvalidConfig, naming the field and its value, unless a run accepts every value.

        Paths are left to the stage that reads them: a resumed run does
        not read them all. Kinds come from the annotations, range rules from the types a run builds.
        """
        try:
            check_fields(vars(self), get_type_hints(PipelineConfig), name="config")
            if self.resume_from:
                canonical_stage(self.resume_from, "resume_from")
            if self.client_mode == "live" and not self.endpoint:
                raise ValueError("endpoint must be non-empty when client_mode is 'live'")
            if self.workers < 1:
                raise ValueError(f"workers must be >= 1, got {self.workers!r}")
            corpus_mod.filter_problems((), self.max_solution_tokens)
            corpus_mod.cap_solutions((), self.solution_cap)
            dedup_instructions((), self.dedup_threshold)
            PromptTemplate("{{original_code}}", input_count=self.input_count)
            self.limits()
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from exc

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: Mapping) -> "PipelineConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise InvalidConfig(f"unknown config keys: {', '.join(unknown)}")
        return cls(**obj)


# An interpreter is a path only when it holds a separator; a bare command is looked up on PATH.
_PATH_KEYS = ("corpus_path", "out_dir", "template_path", "replay_store", "si_path", "interpreter")


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON config; relative paths resolve against the file's directory."""
    path = Path(path)
    try:
        obj = check_fields(json.loads(path.read_text(encoding="utf-8")), {}, name="config")
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"could not read config {path}: {exc}") from exc
    base = path.resolve().parent
    for key in _PATH_KEYS:
        value = obj.get(key)
        if isinstance(value, str) and value and not Path(value).is_absolute():
            if key != "interpreter" or os.sep in value:
                obj[key] = str(base / value)
    return PipelineConfig.from_dict(obj)


def stage_path(out_dir: str | Path, stage: str) -> Path:
    return Path(out_dir) / f"stage_{stage}.jsonl"


def _check_row(stage: str, row, unit_ids: set) -> dict:
    """Return ``row`` if ``stage`` could have written it after the rows of ``unit_ids``; add its unit there."""
    if stage == "order":  # order rows are dataset records, not unit rows
        return record(row)
    status = check_fields(row, _STATUS_FIELDS[stage])["status"]
    check_only(row, *_ROW_SCHEMAS[stage][status])
    runs = None  # validate runs each case as the answer type gives
    if "answer_type" in row:
        check_only(row["answer_type"], ANSWER_TYPE_FIELDS, name="answer_type")
        runs = invocation_for(row["answer_type"], "")
    for index, case in enumerate(row.get("test_cases", ())):
        check_only(case, CASE_FIELDS, CASE_REQUIRED, f"test_cases[{index}]")
        if runs and (case["mode"], case.get("function_name")) != (runs.mode, runs.function_name):
            raise ValueError(
                f"test_cases[{index}] must have mode {runs.mode!r} and function_name {runs.function_name!r}"
                f" as answer_type gives, got {case['mode']!r} and {case.get('function_name')!r}"
            )
    count = len(row.get("test_cases", ()))
    if row.get("difficulty", count) != count:
        raise ValueError(f"difficulty must be {count}, the number of test cases, got {row['difficulty']!r}")
    if "input_drops" in row:  # construct drops each input that makes no test case
        inputs, dropped = len(row.get("raw_inputs", ())), sum(row["input_drops"].values())
        if count + dropped != inputs:
            raise ValueError(f"input_drops must count {inputs - count}, the inputs of raw_inputs that made no test case,"
                             f" got {dropped}")
    if row.get("case_index") is not None:  # validate's drop rows alone name a failing case
        if status == "ok" or stage == "dedup":
            raise ValueError(f"case_index must be null on an ok row or a dedup row, got {row['case_index']!r}")
        if row["case_index"] >= count:
            raise ValueError(f"case_index must be below {count}, the number of test cases, got {row['case_index']!r}")
    if row["unit_id"] in unit_ids:
        raise ValueError(f"unit_id {row['unit_id']!r} is listed twice")
    unit_ids.add(row["unit_id"])
    return row


def _read_rows(stage: str, path: Path) -> list[dict]:
    """Parse a stage file; a row ``stage`` could not have written, or a unit listed twice, is a StageFailure."""
    unit_ids: set[str] = set()
    try:
        return read_json_lines(path, lambda row: _check_row(stage, row, unit_ids))
    except (OSError, ValueError) as exc:
        raise StageFailure(stage, str(exc)) from exc


@contextmanager
def _failing_as(stage: str):
    """Raise an error of the block as a StageFailure naming ``stage``."""
    try:
        yield
    except StageFailure:
        raise
    except (SemiforgeError, OSError) as exc:
        raise StageFailure(stage, str(exc)) from exc


def _ok(row: dict, **fields) -> dict:
    return {**row, **fields, "status": "ok", "reason": None}


def _drop(row: dict, reason: str, **fields) -> dict:
    return {**row, **fields, "status": "drop", "reason": reason}


def _ok_rows(rows: list[dict]) -> list[dict]:
    return [row for row in rows if row["status"] == "ok"]


def _stage_ingest(config: PipelineConfig, _: list[dict]) -> list[dict]:
    """Read the corpus; ingest has no stage before it, so it is handed no rows."""
    problems = corpus_mod.load_corpus(config.corpus_path, config.corpus_format)
    problems = corpus_mod.filter_problems(problems, config.max_solution_tokens)
    problems = corpus_mod.merge_duplicate_problems(problems)
    problems = corpus_mod.cap_solutions(problems, config.solution_cap)
    rows = []
    for problem in problems:
        for index, code in enumerate(problem.solutions):
            rows.append(
                {
                    "unit_id": f"{problem.problem_id}:{index}",
                    "problem_id": problem.problem_id,
                    "solution_index": index,
                    "seq": len(rows),
                    "code": code,
                    "status": "ok",
                    "reason": None,
                }
            )
    if not rows:
        raise StageFailure("ingest", "corpus is empty after preprocessing")
    return rows


def _stage_generate(config: PipelineConfig, ingest_rows: list[dict]) -> list[dict]:
    try:
        template = (
            PromptTemplate.from_file(config.template_path, config.input_count)
            if config.template_path
            else PromptTemplate.default(config.input_count)
        )
    except ValueError as exc:  # no single {{original_code}} slot, or not UTF-8
        raise StageFailure("generate", f"template {config.template_path}: {exc}") from exc
    live = LiveClient(config.endpoint, config.model_id) if config.client_mode == "live" else None
    client = ReplayClient(config.replay_store, live)

    def work(row: dict) -> dict:
        try:
            prompt = build_generation_prompt(row["code"], template)
        except EmptyCode:
            return _drop(row, "empty_code")
        digest = prompt_digest(prompt)
        try:
            completion = client.complete(prompt)
        except SemiforgeError as exc:
            raise StageFailure("generate", f"{row['unit_id']}: {exc}") from exc
        try:
            return _ok(row, prompt_sha256=digest, **parse_components(completion.text))
        except ParseError as exc:
            return _drop(row, exc.reason, prompt_sha256=digest)

    return map_workers(config.workers, work, _ok_rows(ingest_rows))


def invocation_for(answer_type: Mapping, raw_input: str) -> Invocation:
    """How a unit of ``answer_type`` (``{"kind", "function_name"}``) runs on ``raw_input``; Invocation checks the name."""
    mode = "call" if answer_type["kind"] == CALL_BASED else "stdin"
    return Invocation(mode, raw_input, answer_type["function_name"])


def _construct_unit(limits: ResourceLimits, server, row: dict) -> dict:
    invocations = [invocation_for(row["answer_type"], raw_input) for raw_input in row["raw_inputs"]]
    cases, drops = construct_test_cases(row["code"], invocations, limits, server)
    if not cases:
        return _drop(row, "empty_test_cases", input_drops=dict(drops))
    return _ok(row, test_cases=[c.to_dict() for c in cases], input_drops=dict(drops))


def _validate_unit(limits: ResourceLimits, server, row: dict) -> dict:
    cases = [TestCase(invocation_for(row["answer_type"], case["payload"]), case["expected_output"])
             for case in row["test_cases"]]
    failure = validate_refined_code(row["refined_code"], cases, limits, server)
    if failure is None:
        return _ok(row, difficulty=len(cases), case_index=None)
    case_index, reason = failure
    return _drop(row, reason, difficulty=len(cases), case_index=case_index)


# The sandbox stages, in order, and what each does to one unit row.
_UNIT_WORK = {"construct": _construct_unit, "validate": _validate_unit}


def _run_chain(config: PipelineConfig, chain: tuple[str, ...], rows: list[dict]) -> dict[str, list[dict]]:
    """Run each ok row through the sandbox stages of ``chain``, one unit task per row.

    A unit goes on to the next stage as soon as the one before keeps it,
    so no stage waits for the other units. Each stage forks its runs
    from a server of its own, started before any unit runs, so that its
    runs get a ``str`` hash secret of their own. A sandbox failure drops
    its unit as ``sandbox_failure`` and the other units go on. Returns
    each stage's rows in unit order.
    """
    limits = config.limits()
    servers = {}  # stage -> the fork server of its runs

    def work(row: dict) -> list[dict]:
        passed = []
        for stage in chain:
            with _failing_as(stage):
                try:
                    row = _UNIT_WORK[stage](limits, servers[stage], row)
                except SandboxSetupFailure as exc:
                    logger.warning("sandbox failure on %s: %s", row["unit_id"], exc)
                    row = _drop(row, "sandbox_failure")
            passed.append(row)
            if row["status"] != "ok":
                break
        return passed

    with ExitStack() as stack:
        for stage in chain:
            with _failing_as(stage):
                servers[stage] = stack.enter_context(sandbox(config.interpreter))
        units = map_workers(config.workers, work, _ok_rows(rows))
    return {stage: [unit[index] for unit in units if len(unit) > index] for index, stage in enumerate(chain)}


def _stage_dedup(config: PipelineConfig, validate_rows: list[dict]) -> list[dict]:
    ok_rows = _ok_rows(validate_rows)
    retained = dedup_instructions(ok_rows, threshold=config.dedup_threshold)
    retained_ids = {id(row) for row in retained}
    return [row if id(row) in retained_ids else _drop(row, "near_duplicate") for row in ok_rows]


def _stage_order(config: PipelineConfig, dedup_rows: list[dict]) -> list[dict]:
    records = [
        {
            "instruction": row["instruction"],
            "code": row["refined_code"],
            "source": "semi",
            "difficulty": row["difficulty"],
            "n_test_cases": row["difficulty"],
            "answer_type": row["answer_type"],
            "test_cases": row["test_cases"],
            "provenance": {
                "problem_id": row["problem_id"],
                "solution_index": row["solution_index"],
                "seq": row["seq"],
            },
        }
        for row in _ok_rows(dedup_rows)
    ]
    if config.si_path:
        records.extend(_read_rows("order", Path(config.si_path)))
    ordered = order_records(records, config.order, config.seed)
    if config.scale is not None:
        ordered = ordered[: config.scale]
    return ordered


# What each stage outside the sandbox chain makes of the rows of the stage before it; emit's rows,
# the ordered records as they are, are the dataset.
_RUNNERS = {"ingest": _stage_ingest, "generate": _stage_generate, "dedup": _stage_dedup, "order": _stage_order,
            "emit": lambda _, order_rows: order_rows}


def _output_path(out_dir: Path, stage: str) -> Path:
    return out_dir / DATASET_FILE if stage == "emit" else stage_path(out_dir, stage)


def run_pipeline(config: PipelineConfig, stop_after: str | None = None) -> FunnelStats | None:
    """Run (or resume) the pipeline; returns FunnelStats once dedup is reached.

    ``config.resume_from`` names the first stage to execute; earlier
    stages are loaded from their stage files, one at a time, each
    checked and counted as an executed stage's rows are. ``stop_after``
    truncates the run after the named stage.
    """
    config.check()
    start = canonical_stage(config.resume_from) if config.resume_from else "ingest"
    stop = canonical_stage(stop_after, "stop_after") if stop_after else "emit"
    start_idx = STAGES.index(start)
    stop_idx = STAGES.index(stop)
    if start_idx > stop_idx:
        raise InvalidConfig(f"resume stage {start!r} is after stop stage {stop!r}")

    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # say, a file where it or a directory above it should be
        raise SemiforgeError(f"could not create output directory {out_dir}: {exc}") from exc

    timings: dict[str, float] = {}
    row_counts: dict[str, int] = {}
    drops = defaultdict(Counter)  # stage -> its drop rows by reason; construct_inputs -> inputs by status
    chain = tuple(stage for stage in STAGES[start_idx : stop_idx + 1] if stage in _UNIT_WORK)
    produced: dict[str, list[dict]] = {}  # rows a run made for stages the loop has not reached
    rows: list[dict] = []  # the rows of the stage before

    def kept(stage: str) -> int:
        return row_counts[stage] - drops[stage].total()

    with atomic_write(out_dir / EVENTS_FILE) as events:
        for index, stage in enumerate(STAGES[: stop_idx + 1]):
            if index < start_idx:
                rows = []  # released before the next file is read
                path = stage_path(out_dir, stage)
                if not path.is_file():
                    raise StageFailure(stage, f"missing stage file {path}; run earlier stages first")
                rows = _read_rows(stage, path)
            else:
                if stage not in produced:
                    began = time.monotonic()
                    with _failing_as(stage):
                        produced = _run_chain(config, chain, rows) if stage in chain else {
                            stage: _RUNNERS[stage](config, rows)}
                    for name, result in produced.items():
                        with _failing_as(name):
                            emit_jsonl(result, _output_path(out_dir, name))
                    seconds = round(time.monotonic() - began, 3)
                    timings.update(dict.fromkeys(produced, seconds))
                rows = produced.pop(stage)

            row_counts[stage] = len(rows)
            if stage in UNIT_FIELDS:
                events.writelines(json_line({"stage": stage, "unit_id": row["unit_id"], "status": row["status"],
                                             "reason": row["reason"]}) for row in rows)
                drops[stage] = Counter(row["reason"] for row in rows if row["status"] == "drop")
            if stage == "construct":
                for row in rows:
                    drops["construct_inputs"].update(row.get("input_drops") or {})
            if index >= start_idx:
                logger.info("stage %s: %d/%d rows kept (%.3fs) -> %s", stage, kept(stage), len(rows),
                            timings[stage], _output_path(out_dir, stage))

        stats: FunnelStats | None = None
        if stop_idx >= STAGES.index("dedup"):
            drop_reasons = {stage: dict(reasons) for stage, reasons in drops.items() if reasons}
            stats = FunnelStats(row_counts["ingest"], kept("generate"), kept("construct"), kept("validate"),
                                kept("dedup"), drop_reasons)
            with atomic_write(out_dir / FUNNEL_FILE) as fh:
                fh.write(json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n")

    manifest = {
        "config": config.to_dict(),
        "seed": config.seed,
        "template": {
            "path": config.template_path or "builtin",
            "version": TEMPLATE_VERSION,
            "input_count": config.input_count,
        },
        "stages_loaded": STAGES[:start_idx],
        "stages_executed": STAGES[start_idx : stop_idx + 1],
        "timings_sec": timings,
        "row_counts": row_counts,
    }
    with atomic_write(out_dir / MANIFEST_FILE) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return stats
