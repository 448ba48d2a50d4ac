"""Spans around semiforge's public functions, for the traced run.

Nothing here edits the package: ``Instrumentation.install`` replaces a
public function by a recording wrapper in every ``semiforge`` module
that binds it (``semiforge.validation.execute`` as well as
``semiforge.executor.execute``), and ``uninstall`` puts the originals
back.  A target that no longer exists is reported as absent rather than
raised, so the traced run keeps working when the package is refactored.

A span holds its name, start, end, parent span, unit id and a few
attributes.  Spans stay in memory until the run writes them out.  A
span opened in a worker thread has as parent the innermost span open in
the thread that runs the pass.  Sandbox executions are tagged with the
unit whose code they run; per-unit spans (``validation.construct``,
``validation.validate``) are then formed from the executions of each
unit, since a unit's executions run one after another on one thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager

_EXECUTE_METRICS = (
    "executor.calls",
    "executor.busy_s",
    "executor.call_ms.",
    "executor.child_ms.",
    "executor.overhead_ms.",
    "executor.status.",
    "executor.timeout_s",
    "executor.self_s",
    "validation.construct.",
    "validation.validate.units",
    "validation.validate.unit_ms.",
    "validation.validate.execs_per_unit",
    "metrics.candidates",
    "metrics.execs_per_candidate",
    "metrics.candidate_ms.",
    "pipeline.construct.parallelism",
    "pipeline.validate.parallelism",
)

# (span name, module that defines the target, attribute path,
#  name prefixes of the per-layer metrics measured through it)
TARGETS = (
    ("executor.execute", "semiforge.executor", "execute", _EXECUTE_METRICS),
    ("lcs.lcs_length", "semiforge.lcs", "lcs_length", ("lcs.",)),
    (
        "validation.rouge_l",
        "semiforge.validation",
        "rouge_l",
        ("validation.dedup.s", "validation.dedup.rouge", "validation.dedup.prune"),
    ),
    ("validation.dedup", "semiforge.validation", "dedup_instructions", ("validation.dedup.s",)),
    ("generation.prompt", "semiforge.generation", "build_generation_prompt", ("generation.prompt",)),
    ("generation.parse", "semiforge.generation", "parse_components", ("generation.parse",)),
    ("generation.replay", "semiforge.generation", "ReplayClient.complete", ("generation.replay",)),
    ("corpus.load", "semiforge.corpus", "load_corpus", ("corpus.load",)),
    ("corpus.preprocess", "semiforge.corpus", "filter_problems", ("corpus.preprocess",)),
    ("corpus.preprocess", "semiforge.corpus", "merge_duplicate_problems", ("corpus.preprocess",)),
    ("corpus.preprocess", "semiforge.corpus", "cap_solutions", ("corpus.preprocess",)),
    ("curriculum.order", "semiforge.curriculum", "order_records", ("curriculum.",)),
    ("dataset.emit", "semiforge.dataset", "emit_jsonl", ("dataset.emit",)),
    ("metrics.evaluate", "semiforge.metrics", "evaluate_candidates", ("metrics.",)),
)

LAYERS = ("pipeline", "validation", "executor", "lcs", "generation", "corpus", "curriculum", "dataset", "metrics")
UNIT_SPANS = {"construct": "validation.construct", "validate": "validation.validate"}


class Span:
    __slots__ = ("id", "name", "parent", "unit", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, unit, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.unit = unit
        self.start = start
        self.end = start
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.name, self.parent, self.unit, self.start, self.end, self.attrs or None]


class Tracer:
    def __init__(self):
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pass_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, unit: str | None = None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            outer = self._pass_stack
            parent = outer[-1] if outer else None
        span = Span(next(self._ids), name, parent, unit, time.perf_counter())
        stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._spans.append(span)

    @contextmanager
    def root(self, name: str):
        """Open the top-level span of a pass in the thread that runs it."""
        self._local.stack = self._pass_stack
        with self.span(name) as span:
            yield span

    def take(self) -> list[Span]:
        """Return the spans recorded so far, forming per-unit spans, and clear them."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans + _unit_spans(spans, self._ids)


def _unit_spans(spans: list[Span], ids) -> list[Span]:
    groups: dict[tuple, list[Span]] = {}
    for span in spans:
        phase = span.attrs.get("phase")
        if span.name == "executor.execute" and phase in UNIT_SPANS:
            groups.setdefault((span.parent, phase, span.unit), []).append(span)
    made = []
    for (parent, phase, unit), members in groups.items():
        unit_span = Span(next(ids), UNIT_SPANS[phase], parent, unit, min(s.start for s in members))
        unit_span.end = max(s.end for s in members)
        unit_span.attrs = {"execs": len(members)}
        for member in members:
            member.parent = unit_span.id
        made.append(unit_span)
    return made


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer spent in spans of that layer but in none of their children."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = span.name.split(".", 1)[0]
        if layer not in totals:
            continue
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        totals[layer] += span.duration - covered
    return totals


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner, attr = module, path
    if "." in path:
        class_name, attr = path.split(".", 1)
        owner = getattr(module, class_name)
    return owner, attr, getattr(owner, attr)


class Instrumentation:
    """Install recording wrappers around the public functions in TARGETS."""

    def __init__(self, tracer: Tracer, code_units: dict):
        self.tracer = tracer
        self.code_units = code_units
        self.absent: dict[str, str] = {}
        self._patched: list[tuple] = []

    def install(self) -> None:
        for name, module_name, path, _ in TARGETS:
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError) as exc:
                self.absent[f"{module_name}.{path}"] = f"target gone: {exc}"
                continue
            wrapper = self._wrapper(name, original)
            if owner is not sys.modules[module_name]:  # a method: patch the class
                self._patch(owner, attr, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                module_name_of = getattr(module, "__name__", "")
                if module_name_of != "semiforge" and not module_name_of.startswith("semiforge."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def absent_metrics(self, names) -> dict[str, str]:
        """The metrics among ``names`` measured through a target that is gone, with the reason."""
        absent = {}
        for _, module_name, path, prefixes in TARGETS:
            reason = self.absent.get(f"{module_name}.{path}")
            if reason is not None:
                for name in names:
                    if name.startswith(prefixes):
                        absent.setdefault(name, reason)
        return absent

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _wrapper(self, name: str, original):
        tracer = self.tracer
        if name == "executor.execute":
            code_units = self.code_units

            @functools.wraps(original)
            def traced_execute(*args, **kwargs):
                code = args[0] if args else kwargs.get("code")
                phase, unit = code_units.get(code, (None, None))
                with tracer.span(name, unit) as span:
                    result = original(*args, **kwargs)
                    span.attrs = {
                        "phase": phase,
                        "status": getattr(result.status, "value", str(result.status)),
                        "child_s": getattr(result, "duration", None),
                    }
                return result

            return traced_execute

        if name == "lcs.lcs_length":

            @functools.wraps(original)
            def traced_lcs(*args, **kwargs):
                with tracer.span(name) as span:
                    try:
                        span.attrs = {"cells": len(args[0]) * len(args[1])}
                    except (IndexError, TypeError):
                        pass
                    return original(*args, **kwargs)

            return traced_lcs

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                try:
                    return original(*args, **kwargs)
                except Exception:
                    span.attrs = {"error": True}
                    raise

        return traced


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of a sample, or 0 for an empty one."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
