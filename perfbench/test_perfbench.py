"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The smoke tests start the benchmark once per workload and mode, each
with the golden gate, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fingerprint(workload: str, seed: int, directory: Path) -> bytes:
    inputs = workloads.build(workload, seed, directory)
    if workload == "pipeline_e2e":
        files = sorted(p for p in directory.rglob("*") if p.is_file())
        return b"".join(p.relative_to(directory).as_posix().encode() + b"\0" + p.read_bytes() for p in files)
    if workload == "dedup_stream":
        return json.dumps(inputs).encode()
    return repr((inputs.problems, inputs.expected)).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_gives_identical_bytes_for_a_seed(workload, tmp_path):
    first = _fingerprint(workload, 5, tmp_path / "a")
    assert first == _fingerprint(workload, 5, tmp_path / "b")
    assert first != _fingerprint(workload, 6, tmp_path / "c")


def test_pipeline_expectations_cover_every_drop_reason(tmp_path):
    inputs = workloads.build_pipeline(3, tmp_path)
    reasons = {(o.stage, o.reason) for o in inputs.expected.values()}
    assert reasons >= {
        ("generate", "missing_section:Instruction"),
        ("generate", "unknown_answer_type"),
        ("generate", "no_inputs"),
        ("generate", "missing_function_name"),
        ("generate", "empty_code"),
        ("construct", "empty_test_cases"),
        ("validate", "wrong_output"),
        ("validate", "runtime_error"),
        ("validate", "timeout"),
        ("dedup", "near_duplicate"),
        ("emitted", None),
    }
    drops = {k for o in inputs.expected.values() for k, _ in o.input_drops}
    assert drops == {"runtime_error", "output_overflow"}
    # Special-judge, oversized and capped solutions never become units;
    # the merged problem's solution joins the problem it duplicates.
    assert not any(u.startswith(("b05:", "b10:", "b11:")) for u in inputs.expected)
    assert "b03:1" in inputs.expected and "b08:3" not in inputs.expected


def test_oracle_matches_hand_computed_rouge_l():
    the_cat = "the cat sat".split()
    assert oracle.lcs_length("a b c d".split(), "a c d e".split()) == 3
    assert oracle.rouge_l(the_cat, "the cat sat on the mat".split()) == Fraction(2, 3)
    assert oracle.rouge_l(the_cat, the_cat) == 1
    assert oracle.rouge_l(the_cat, "dog ran off".split()) == 0
    assert oracle.rouge_l([], the_cat) == 0
    # lcs 7 of two 10-token lists: F1 is exactly 0.7, which is not above it.
    ten = "a b c d e f g h i j".split()
    assert oracle.rouge_l(ten, "a b c d e f g x y z".split()) == Fraction(7, 10)


def test_oracle_dedup_keeps_and_drops_by_threshold():
    texts = [
        "a b c d e f g h i j",
        "A b c d e f g h i k",  # lcs 9 of 10: dropped
        "u v w x y z",
        "a b c d e f g x y z",  # F1 exactly 0.7 against the first: kept
    ]
    keep = oracle.dedup_decisions(texts, Fraction(7, 10))
    assert keep == [True, False, True, True]
    assert oracle.pairs_worst(keep) == 0 + 1 + 1 + 2


def test_dedup_stream_never_ties_the_threshold():
    samples = workloads.build_dedup(1)
    lengths = {len(s["instruction"].split()) for s in samples}
    assert all(n % 5 == 1 for n in lengths) and min(lengths) >= 10 and max(lengths) <= 60


def test_metric_names_and_units_are_well_formed():
    for catalog in (run.END_TO_END, run.PER_LAYER):
        for name, unit in catalog.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
    for section in ("end_to_end", "per_layer", "workloads"):
        names = [entry["name"] for entry in DECLARED[section]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)


def test_declared_metrics_match_the_catalogs():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in DECLARED["workloads"]} <= set(workloads.WORKLOADS)


def test_a_missing_target_marks_the_metrics_measured_through_it_absent():
    for _, _, _, prefixes in tracing.TARGETS:
        for prefix in prefixes:
            assert any(name.startswith(prefix) for name in run.PER_LAYER), prefix
    inst = tracing.Instrumentation(tracing.Tracer(), {})
    inst.absent = {f"{module}.{path}": "target gone" for _, module, path, _ in tracing.TARGETS}
    absent = set(inst.absent_metrics(run.PER_LAYER))
    assert {"executor.calls", "corpus.preprocess_ms", "metrics.candidates", "metrics.pass_ratio"} <= absent
    assert {"validation.dedup.s", "validation.dedup.prune_ratio", "lcs.cells", "generation.parse_ok_ratio"} <= absent
    assert not absent & {"executor.noop_ms.p50", "dataset.bytes", "pipeline.emit.s", "trace.overhead_ratio"}


def test_dedup_seconds_count_overlapping_rouge_calls_once():
    def span(name, start, end):
        made = tracing.Span(0, name, None, None, start)
        made.end = end
        return made

    rouge = [span("validation.rouge_l", a, b) for a, b in ((3.0, 4.0), (1.0, 2.5), (2.0, 3.5))]
    assert run._dedup_seconds([], rouge) == pytest.approx(3.0)
    assert run._dedup_seconds([span("validation.dedup", 0.0, 5.0)], rouge) == pytest.approx(5.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_declared_name(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline_e2e", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
