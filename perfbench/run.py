"""semiforge benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload pipeline_e2e --seed 1 --seconds 30 --trace 0

Workloads (one process each, at most two worker threads):

* ``pipeline_e2e``: ``run_pipeline`` from ingest through emit on a seeded
  generic corpus with a replay store, planted with a case for every drop
  reason.  A pass is 86 short sandbox executions, so spawn cost dominates
  and the dedup pool is small.
* ``dedup_stream``: ``dedup_instructions`` on 240 seeded instructions of
  10-60 tokens with a planted near-duplicate share.  No sandbox runs.
* ``eval_passk``: ``evaluate_candidates(..., workers=2)`` on seeded
  call-based problems whose candidates pass, fail late, fail early,
  crash, or loop into a short wall limit.

``--trace 0`` measures the end-to-end metrics without instrumentation:
the first pass in this process, then warm passes until ``--seconds``
have gone, with set-up timed in two fresh interpreters after each pass.
``--trace 1`` wraps the package's public functions (see ``tracing.py``),
alternates traced and untraced passes, and reports the per-layer
metrics and the tracing overhead; spans go to
``.perfbench_work/traces/``.

``BENCHMARK.json`` declares ``pipeline_e2e`` and ``eval_passk``.  Their
time goes to sandbox children whose waits end on the executor's poll
ticks, and their figures repeat within a few percent.  The ticks are
50 ms apart, so ``wall_s`` moves only when a change moves sandbox runs
across a tick; a smaller change to a run shows in ``cpu_s`` only.
``dedup_stream`` computes on one CPU of this process, and on a shared
host the speed of a CPU drifts by a fifth or more over tens of seconds,
so its figures from runs made minutes apart differ by more than any
useful bound; run it by hand and compare builds in alternating runs.

Every pass is checked against a reference built by the benchmark, and
every run also replays ``fixtures/golden_config.json`` once, untimed,
which must give the golden funnel and a byte-identical dataset.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, the golden gate and any metric that could not be measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES_PER_PASS = 2
MIN_WARM_PASSES = 2
NOOP_CALLS = 10
GOLDEN_FUNNEL = (33, 30, 28, 24, 21)
PIPELINE_STAGES = ("ingest", "generate", "construct", "validate", "dedup", "order", "emit")
_STAGE_CHAIN = ("generate", "construct", "validate", "dedup")

END_TO_END = {
    "wall_s": "s",
    "first_pass_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "child_peak_rss_mb": "MiB",
}

PER_LAYER = {
    "executor.calls": "count",
    "executor.busy_s": "s",
    "executor.call_ms.p50": "ms",
    "executor.call_ms.p90": "ms",
    "executor.child_ms.p50": "ms",
    "executor.overhead_ms.p50": "ms",
    "executor.noop_ms.p50": "ms",
    "executor.status.ok": "count",
    "executor.status.runtime_error": "count",
    "executor.status.timeout": "count",
    "executor.status.output_overflow": "count",
    "executor.timeout_s": "s",
    "validation.construct.units": "count",
    "validation.construct.unit_ms.p50": "ms",
    "validation.construct.execs_per_unit": "count",
    "validation.construct.input_keep_ratio": "ratio",
    "validation.validate.units": "count",
    "validation.validate.unit_ms.p50": "ms",
    "validation.validate.execs_per_unit": "count",
    "validation.validate.pass_ratio": "ratio",
    "validation.dedup.s": "s",
    "validation.dedup.pairs_worst": "count",
    "validation.dedup.rouge_calls": "count",
    "validation.dedup.prune_ratio": "ratio",
    "validation.dedup.rouge_us.p50": "us",
    "validation.dedup.kept_ratio": "ratio",
    "lcs.calls": "count",
    "lcs.cells": "count",
    "lcs.cells_per_us": "1/us",
    "lcs.call_us.p50": "us",
    **{f"pipeline.{stage}.s": "s" for stage in PIPELINE_STAGES},
    "pipeline.construct.parallelism": "ratio",
    "pipeline.validate.parallelism": "ratio",
    "generation.prompt_us.p50": "us",
    "generation.parse_us.p50": "us",
    "generation.replay_ms.p50": "ms",
    "generation.parse_ok_ratio": "ratio",
    "corpus.load_ms": "ms",
    "corpus.preprocess_ms": "ms",
    "curriculum.order_ms": "ms",
    "dataset.emit_ms": "ms",
    "dataset.bytes": "bytes",
    "metrics.candidates": "count",
    "metrics.execs_per_candidate": "count",
    "metrics.pass_ratio": "ratio",
    "metrics.candidate_ms.p50": "ms",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.overhead_ratio": "ratio",
    "outcome_mismatch_ratio": "ratio",
}


class BenchError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def _rusage_cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Pass:
    """One timed call of a workload: wall and CPU seconds, result or error."""

    def __init__(self, fn):
        cpu0, wall0 = _rusage_cpu(), time.perf_counter()
        self.error = None
        try:
            self.result = fn()
        except Exception:  # a failing pass is recorded and counted, not fatal
            self.result = None
            self.error = traceback.format_exc()
            print(self.error, file=sys.stderr)
        self.wall = time.perf_counter() - wall0
        self.cpu = _rusage_cpu() - cpu0


class Checked:
    """Outcome of checking one pass: items compared, items wrong, and program facts."""

    def __init__(self, items: int, mismatches: int, facts: dict | None = None):
        self.items = items
        self.mismatches = mismatches
        self.facts = facts or {}


# ------------------------------------------------------------------ workloads


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


class PipelineBench:
    name = "pipeline_e2e"

    def __init__(self, seed: int, work: Path):
        from semiforge import pipeline

        self.pipeline = pipeline
        self.inputs = workloads.build_pipeline(seed, work / "inputs")
        self.work = work
        self.items = len(self.inputs.expected)
        self.code_units = self.inputs.code_units
        self._passes = 0

    def _out_dir(self) -> Path:
        self._passes += 1
        return self.work / f"pass{self._passes}"

    def run_pass(self) -> Path:
        out = self._out_dir()
        self.pipeline.run_pipeline(workloads.pipeline_config(self.inputs, out))
        return out

    def run_staged(self, tracer) -> tuple[Path, dict]:
        """One pass stage by stage, each resumed from the previous stage's files."""
        out = self._out_dir()
        config = workloads.pipeline_config(self.inputs, out)
        seconds = {}
        for stage in PIPELINE_STAGES:
            with tracer.root(f"pipeline.{stage}") as span:
                self.pipeline.run_pipeline(replace(config, resume_from=stage), stop_after=stage)
            seconds[stage] = span.duration
        return out, seconds

    def outcomes(self, out: Path) -> dict:
        rows = {
            stage: {row["unit_id"]: row for row in _read_jsonl(out / f"stage_{stage}.jsonl")}
            for stage in ("ingest",) + _STAGE_CHAIN
        }
        emitted = {}
        for position, record in enumerate(_read_jsonl(out / "dataset.jsonl")):
            prov = record["provenance"]
            emitted[f"{prov['problem_id']}:{prov['solution_index']}"] = (position, record)
        outcomes = {}
        for unit_id in rows["ingest"]:
            drops, outcome = (), None
            for stage in _STAGE_CHAIN:
                row = rows[stage].get(unit_id)
                if row is None:
                    outcome = workloads.UnitOutcome(stage, "row missing", drops)
                    break
                if stage == "construct":
                    drops = tuple(sorted((k, v) for k, v in (row.get("input_drops") or {}).items() if v))
                if row["status"] != "ok":
                    outcome = workloads.UnitOutcome(stage, row.get("reason", row.get("drop_reason")), drops)
                    break
            if outcome is None and unit_id in emitted:
                position, record = emitted[unit_id]
                outputs = tuple(case["expected_output"] for case in record["test_cases"])
                outcome = workloads.UnitOutcome("emitted", None, drops, position, record["difficulty"], outputs)
            outcomes[unit_id] = outcome or workloads.UnitOutcome("emitted", "record missing", drops)
        return outcomes

    def check(self, out: Path) -> Checked:
        try:
            actual = self.outcomes(out)
            validate = _read_jsonl(out / "stage_validate.jsonl")
            dedup = _read_jsonl(out / "stage_dedup.jsonl")
            facts = {
                "validate_ok": (sum(r["status"] == "ok" for r in validate), len(validate)),
                "dedup_kept": (sum(r["status"] == "ok" for r in dedup), len(dedup)),
                "dataset_bytes": (out / "dataset.jsonl").stat().st_size,
            }
        except (OSError, ValueError, KeyError, TypeError):
            print(traceback.format_exc(), file=sys.stderr)
            return Checked(self.items, self.items)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        expected = self.inputs.expected
        wrong = sum(actual.get(unit_id) != outcome for unit_id, outcome in expected.items())
        wrong += sum(unit_id not in expected for unit_id in actual)
        return Checked(self.items, min(wrong, self.items), facts)

    def dedup_reference(self) -> list[bool]:
        return [unit_id in self.inputs.kept for unit_id in self.inputs.validated]


class DedupBench:
    name = "dedup_stream"

    def __init__(self, seed: int, work: Path):
        from semiforge import validation

        self.validation = validation
        self.samples = workloads.build_dedup(seed)
        self.items = len(self.samples)
        self.code_units = {}
        self._reference = None

    def run_pass(self) -> list[int]:
        retained = self.validation.dedup_instructions(
            self.samples, threshold=workloads.DEDUP_THRESHOLD, key=operator.itemgetter("instruction")
        )
        return [sample["id"] for sample in retained]

    def dedup_reference(self) -> list[bool]:
        # Computed on first use, which is after the timed passes.
        if self._reference is None:
            threshold = Fraction(workloads.DEDUP_THRESHOLD).limit_denominator(1000)
            texts = [sample["instruction"] for sample in self.samples]
            self._reference = oracle.dedup_decisions(texts, threshold)
        return self._reference

    def check(self, kept_ids: list[int]) -> Checked:
        kept = set(kept_ids)
        reference = self.dedup_reference()
        wrong = sum((i in kept) != keep for i, keep in enumerate(reference))
        return Checked(self.items, wrong, {"dedup_kept": (len(kept), self.items)})


class EvalBench:
    name = "eval_passk"

    def __init__(self, seed: int, work: Path):
        from semiforge import metrics
        from semiforge.executor import ResourceLimits

        self.metrics = metrics
        self.limits = ResourceLimits(wall_timeout=workloads.EVAL_WALL_TIMEOUT)
        self.inputs = workloads.build_eval(seed)
        self.items = len(self.inputs.problems)
        self.code_units = self.inputs.code_units

    def run_pass(self) -> dict:
        report = self.metrics.evaluate_candidates(
            self.inputs.problems, limits=self.limits, ks=(1,), workers=workloads.WORKERS
        )
        return {p.problem_id: (p.c, p.n) for p in report.problems}

    def check(self, counts: dict) -> Checked:
        expected = self.inputs.expected
        wrong = sum(counts.get(pid, (None,))[0] != c for pid, c in expected.items())
        wrong += sum(pid not in expected for pid in counts)
        passed = sum(c for c, _ in counts.values())
        total = sum(n for _, n in counts.values())
        return Checked(self.items, min(wrong, self.items), {"validate_ok": (passed, total)})


BENCHES = {bench.name: bench for bench in (PipelineBench, DedupBench, EvalBench)}


# ------------------------------------------------------------------ measuring


def _warm_passes(bench, deadline: float, work: Path, seed: int) -> tuple[list[Pass], list[float]]:
    """Warm passes while another fits before ``deadline``, and set-up probes.

    Set-up probes run after every pass, so they sample the whole run and
    not one moment of it; their time moves the deadline back.
    """
    warm: list[Pass] = []
    probes: list[float] = []
    while True:
        started = time.perf_counter()
        for _ in range(SETUP_PROBES_PER_PASS):
            probes.append(_setup_probe(bench.name, seed, work / f"setup{len(probes)}"))
        deadline += time.perf_counter() - started
        if len(warm) >= MIN_WARM_PASSES and time.perf_counter() + statistics.median(p.wall for p in warm) > deadline:
            return warm, probes
        warm.append(Pass(bench.run_pass))


def _check_all(bench, passes: list[Pass]) -> tuple[int, int, list[Checked]]:
    attempted = failed = 0
    checked = []
    for done in passes:
        if done.error is not None:
            result = Checked(bench.items, bench.items)
        else:
            result = bench.check(done.result)
        checked.append(result)
        attempted += result.items
        failed += result.mismatches
    return attempted, failed, checked


def _setup_probe(workload: str, seed: int, target: Path) -> float:
    """Seconds a fresh interpreter takes to import semiforge and build the inputs."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(target)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(target, ignore_errors=True)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def _noop_exec():
    from semiforge.executor import Invocation, execute

    return execute("pass", Invocation.stdin(""))


def _golden_gate(work: Path) -> tuple[bool, str]:
    """Replay the committed golden config once, untimed, at two workers."""
    from semiforge.pipeline import load_config, run_pipeline

    out = work / "golden"
    config = replace(load_config(ROOT / "fixtures" / "golden_config.json"), out_dir=str(out), workers=2)
    try:
        stats = run_pipeline(config)
        funnel = (stats.loaded_codes, stats.generated_ok, stats.with_test_cases, stats.refined_passed, stats.after_dedup)
        same = (out / "dataset.jsonl").read_bytes() == (ROOT / "tests" / "golden" / "dataset.jsonl").read_bytes()
    except Exception:  # the gate reports any failure as a failed gate
        return False, traceback.format_exc()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    ok = funnel == GOLDEN_FUNNEL and same
    return ok, f"funnel={funnel} dataset_identical={same}"


def _git_commit() -> str | None:
    # The ceiling keeps git from taking the commit of a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment(workload: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "semiforge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    lcs = sys.modules.get("semiforge.lcs")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imported": "numba" in sys.modules,
        "lcs_kernel": getattr(lcs, "DEFAULT_BACKEND", None),
        # Configs leave ``interpreter`` unset, so children run this interpreter.
        "child_interpreter": sys.executable,
        "workers": workloads.WORKERS if workload != "dedup_stream" else 1,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _end_to_end(bench, seconds: float, work: Path, seed: int) -> tuple[dict, int, int]:
    deadline = time.perf_counter() + seconds
    first = Pass(bench.run_pass)
    # One sandbox run, so the largest-child figure exists on a workload that
    # starts no sandbox of its own.  It is read before the set-up probes,
    # which are children too; every pass starts the same sandboxes.
    _noop_exec()
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    warm, probes = _warm_passes(bench, deadline, work, seed)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "wall_s": statistics.median(p.wall for p in warm),
        "first_pass_s": first.wall,
        # Noise on a shared host only adds time to a probe, so the fastest is the estimate.
        "setup_s": min(probes),
        "cpu_s": statistics.median(p.cpu for p in warm),
        "peak_rss_mb": peak_rss,
        "child_peak_rss_mb": child_rss,
    }
    attempted, failed, _ = _check_all(bench, [first] + warm)
    print(f"passes: first and {len(warm)} warm, walls {[round(p.wall, 4) for p in [first] + warm]}")
    print(f"pass cpu: {[round(p.cpu, 4) for p in [first] + warm]}")
    print(f"set-up probes: {[round(t, 4) for t in probes]}")
    return values, attempted, failed


class _Acc:
    """Per-pass values (reported as the median over passes), pooled samples, ratios."""

    def __init__(self):
        self.per_pass: dict[str, list[float]] = {}
        self.samples: dict[str, list[float]] = {}
        self.ratios: dict[str, list[float]] = {}

    def add(self, name, value):
        self.per_pass.setdefault(name, []).append(value)

    def sample(self, name, values):
        self.samples.setdefault(name, []).extend(values)

    def ratio(self, name, num, den):
        pair = self.ratios.setdefault(name, [0.0, 0.0])
        pair[0] += num
        pair[1] += den

    def result(self) -> dict:
        out = {name: statistics.median(values) for name, values in self.per_pass.items()}
        for name, values in self.samples.items():
            _, q = name.rsplit(".p", 1)
            out[name] = tracing.percentile(values, int(q))
        for name, (num, den) in self.ratios.items():
            out[name] = num / den if den else 0.0
        return out


def _dedup_seconds(dedups: list, rouge: list) -> float:
    """Seconds in dedup: the ``dedup_instructions`` calls, or else the time covered by ``rouge_l`` calls.

    The pipeline dedups through an entry point of its own, so on
    ``pipeline_e2e`` only the ``rouge_l`` calls inside it are seen.
    """
    if dedups:
        return sum(s.duration for s in dedups)
    covered, reach = 0.0, float("-inf")
    for span in sorted(rouge, key=lambda s: s.start):
        start = max(span.start, reach)
        if span.end > start:
            covered += span.end - start
            reach = span.end
    return covered


def _pass_layers(acc: _Acc, spans: list, facts: dict, reference_keep: list[bool] | None) -> None:
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    execs = by_name.get("executor.execute", [])
    acc.add("executor.calls", len(execs))
    acc.add("executor.busy_s", sum(s.duration for s in execs))
    acc.sample("executor.call_ms.p50", [s.duration * 1e3 for s in execs])
    acc.sample("executor.call_ms.p90", [s.duration * 1e3 for s in execs])
    timed = [s for s in execs if s.attrs.get("child_s") is not None]
    acc.sample("executor.child_ms.p50", [s.attrs["child_s"] * 1e3 for s in timed])
    acc.sample("executor.overhead_ms.p50", [(s.duration - s.attrs["child_s"]) * 1e3 for s in timed])
    for status in ("ok", "runtime_error", "timeout", "output_overflow"):
        acc.add(f"executor.status.{status}", sum(s.attrs.get("status") == status for s in execs))
    acc.add("executor.timeout_s", sum(s.duration for s in execs if s.attrs.get("status") == "timeout"))

    for phase in ("construct", "validate"):
        units = by_name.get(f"validation.{phase}", [])
        calls = [s for s in execs if s.attrs.get("phase") == phase]
        acc.add(f"validation.{phase}.units", len(units))
        acc.sample(f"validation.{phase}.unit_ms.p50", [s.duration * 1e3 for s in units])
        acc.ratio(f"validation.{phase}.execs_per_unit", len(calls), len(units))
        if phase == "construct":
            acc.ratio("validation.construct.input_keep_ratio", sum(s.attrs.get("status") == "ok" for s in calls), len(calls))
    passed, total = facts.get("validate_ok", (0, 0))
    acc.ratio("validation.validate.pass_ratio", passed, total)

    rouge = by_name.get("validation.rouge_l", [])
    acc.add("validation.dedup.s", _dedup_seconds(by_name.get("validation.dedup", []), rouge))
    acc.add("validation.dedup.rouge_calls", len(rouge))
    acc.sample("validation.dedup.rouge_us.p50", [s.duration * 1e6 for s in rouge])
    worst = oracle.pairs_worst(reference_keep) if reference_keep is not None else 0
    acc.add("validation.dedup.pairs_worst", worst)
    acc.ratio("validation.dedup.prune_ratio", worst - len(rouge), worst)
    kept, seen = facts.get("dedup_kept", (0, 0))
    acc.ratio("validation.dedup.kept_ratio", kept, seen)

    lcs = by_name.get("lcs.lcs_length", [])
    acc.add("lcs.calls", len(lcs))
    acc.add("lcs.cells", sum(s.attrs.get("cells", 0) for s in lcs))
    acc.ratio("lcs.cells_per_us", sum(s.attrs.get("cells", 0) for s in lcs), sum(s.duration for s in lcs) * 1e6)
    acc.sample("lcs.call_us.p50", [s.duration * 1e6 for s in lcs])

    acc.sample("generation.prompt_us.p50", [s.duration * 1e6 for s in by_name.get("generation.prompt", [])])
    parses = by_name.get("generation.parse", [])
    acc.sample("generation.parse_us.p50", [s.duration * 1e6 for s in parses])
    acc.ratio("generation.parse_ok_ratio", sum(not s.attrs.get("error") for s in parses), len(parses))
    acc.sample("generation.replay_ms.p50", [s.duration * 1e3 for s in by_name.get("generation.replay", [])])
    for metric, span_name in (
        ("corpus.load_ms", "corpus.load"),
        ("corpus.preprocess_ms", "corpus.preprocess"),
        ("curriculum.order_ms", "curriculum.order"),
        ("dataset.emit_ms", "dataset.emit"),
    ):
        acc.add(metric, sum(s.duration for s in by_name.get(span_name, [])) * 1e3)
    acc.add("dataset.bytes", facts.get("dataset_bytes", 0))

    evaluations = {s.id for s in by_name.get("metrics.evaluate", [])}
    candidates = [s for s in by_name.get("validation.validate", []) if s.parent in evaluations]
    acc.add("metrics.candidates", len(candidates))
    acc.ratio("metrics.execs_per_candidate", sum(s.attrs["execs"] for s in candidates), len(candidates))
    acc.ratio("metrics.pass_ratio", passed if evaluations else 0, total if evaluations else 0)
    acc.sample("metrics.candidate_ms.p50", [s.duration * 1e3 for s in candidates])

    for layer, seconds in tracing.self_times(spans).items():
        acc.add(f"{layer}.self_s", seconds)


def _with_wrappers(inst: tracing.Instrumentation, fn) -> Pass:
    inst.install()
    try:
        return Pass(fn)
    finally:
        inst.uninstall()


def _staged_metrics(bench, tracer, inst) -> tuple[dict, Checked | None, list]:
    """Seconds per stage and construct/validate parallelism, from one traced staged pass."""
    values = {f"pipeline.{stage}.s": 0.0 for stage in PIPELINE_STAGES}
    values["pipeline.construct.parallelism"] = values["pipeline.validate.parallelism"] = 0.0
    if not isinstance(bench, PipelineBench):
        return values, None, []
    staged = _with_wrappers(inst, lambda: bench.run_staged(tracer))
    spans = tracer.take()
    if staged.error is not None:
        return values, Checked(bench.items, bench.items), spans
    out, seconds = staged.result
    for stage, elapsed in seconds.items():
        values[f"pipeline.{stage}.s"] = elapsed
    for root in spans:
        if root.parent is None and root.name in ("pipeline.construct", "pipeline.validate"):
            phase = root.name.split(".", 1)[1]
            busy = sum(s.duration for s in spans if s.name == f"validation.{phase}" and s.parent == root.id)
            values[f"pipeline.{phase}.parallelism"] = busy / root.duration
    return values, bench.check(out), spans


def _per_layer(bench, seconds: float, trace_file: Path) -> tuple[dict, int, int, dict]:
    noop = []
    for _ in range(NOOP_CALLS):
        started = time.perf_counter()
        _noop_exec()
        noop.append((time.perf_counter() - started) * 1e3)

    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(tracer, bench.code_units)
    root = "pipeline.run" if isinstance(bench, PipelineBench) else "bench.pass"

    def traced_pass():
        with tracer.root(root):
            return bench.run_pass()

    # A warm-up pass, then traced and untraced passes in turn until the
    # time is up; the pairs give the tracing overhead.
    deadline = time.perf_counter() + seconds
    passes = [Pass(bench.run_pass)]
    traced, untraced, span_sets = [], [], []
    while not traced or time.perf_counter() + traced[-1].wall + untraced[-1].wall <= deadline:
        traced.append(_with_wrappers(inst, traced_pass))
        span_sets.append(tracer.take())
        untraced.append(Pass(bench.run_pass))
    passes += [p for pair in zip(traced, untraced) for p in pair]
    values, staged_check, staged_spans = _staged_metrics(bench, tracer, inst)

    attempted, failed, checked = _check_all(bench, passes)
    if staged_check is not None:
        attempted += staged_check.items
        failed += staged_check.mismatches
    reference_keep = bench.dedup_reference() if hasattr(bench, "dedup_reference") else None
    acc = _Acc()
    for spans, check in zip(span_sets, checked[1::2]):
        _pass_layers(acc, spans, check.facts, reference_keep)
    values.update(acc.result())
    values["executor.noop_ms.p50"] = statistics.median(noop)
    values["trace.overhead_ratio"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced) - 1
    )
    values["outcome_mismatch_ratio"] = failed / attempted

    absent = inst.absent_metrics(PER_LAYER)
    for metric in absent:
        values[metric] = 0.0
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(
        json.dumps(
            {
                "span_fields": ["id", "name", "parent", "unit", "start", "end", "attrs"],
                "traced_passes": [[s.to_list() for s in spans] for spans in span_sets],
                "staged_pass": [s.to_list() for s in staged_spans],
                "absent": absent,
                "metrics": values,
            }
        )
    )
    return values, attempted, failed, absent


def _terminate(signum, frame):
    # Unwind normally on SIGTERM, so running sandbox children are waited for
    # (each ends by its wall limit) and the work directory is removed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BENCHES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        for needed in ("src/semiforge/__init__.py", "fixtures/golden_config.json", "tests/golden/dataset.jsonl"):
            if not (ROOT / needed).is_file():
                raise BenchError(f"not a semiforge checkout: {needed} is missing under {ROOT}")
        sys.path.insert(0, str(ROOT / "src"))
        import semiforge

        if Path(semiforge.__file__).resolve().parent != ROOT / "src" / "semiforge":
            raise BenchError(f"imported semiforge from {semiforge.__file__}, not from this checkout")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # Sandbox directories and every other temporary file stay inside the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        bench = BENCHES[args.workload](args.seed, work)
        absent = {}
        if args.trace:
            trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            values, attempted, failed, absent = _per_layer(bench, args.seconds, trace_file)
            catalog = PER_LAYER
        else:
            values, attempted, failed = _end_to_end(bench, args.seconds, work, args.seed)
            catalog = END_TO_END
        gate_ok, gate_detail = _golden_gate(work)
        environment = _environment(args.workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment: " + json.dumps(environment, sort_keys=True))
    print(f"golden gate: {'pass' if gate_ok else 'FAIL'} {gate_detail}")
    for metric, reason in sorted(absent.items()):
        print(f"absent: {metric}: {reason}")
    if not args.trace:
        print(f"outcome_mismatch_ratio: {failed / attempted!r} ({failed} of {attempted} items)")
    for metric, unit in catalog.items():
        print(f"{args.workload} {metric} = {values[metric]!r} {unit}")
    result = {
        "correct": failed == 0 and gate_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in catalog.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
