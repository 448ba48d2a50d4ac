"""Acceptance suite: every criterion prints one pass/fail line.

The lines are echoed again in the terminal summary block (see
conftest.pytest_terminal_summary) so a full run ends with the ten
verdicts in one place.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from semiforge.corpus import (
    cap_solutions,
    filter_problems,
    load_corpus,
    merge_duplicate_problems,
    write_corpus,
)
from semiforge.curriculum import STRATEGIES, OrderingStrategy, order_records
from semiforge.dataset import FunnelStats, retention_ratios
from semiforge.executor import ExecStatus, Invocation, ResourceLimits, execute, normalize_output
from semiforge.generation import AnswerType, GenerationBundle
from semiforge.metrics import pass_at_k
from semiforge.pipeline import DATASET_FILE, FUNNEL_FILE, load_config, run_pipeline, stage_path
from semiforge.validation import (
    EmptyTestCases,
    TestCase as Case,
    construct_test_cases,
    dedup_instructions,
    validate_refined_code,
)
from tests.conftest import ACCEPTANCE_LINES, GOLDEN, TEST_DATA, load_jsonl, rouge_oracle


def record(num: int, description: str, ok: bool, elapsed: float, budget: float | None = None):
    timing = f"{elapsed:.2f}s" + (f" < {budget:.0f}s" if budget is not None else "")
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description} [{timing}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_pass_at_k_oracle():
    started = time.monotonic()
    ok = True
    for n in range(1, 9):
        for c in range(n + 1):
            for k in range(1, n + 1):
                subsets = list(combinations(range(n), k))
                brute = sum(1 for s in subsets if any(i < c for i in s)) / len(subsets)
                if abs(pass_at_k(n, c, k) - brute) >= 1e-12:
                    ok = False
    exact = all(pass_at_k(200, c, 1) == c / 200 for c in range(201))
    elapsed = time.monotonic() - started
    record(
        1,
        "pass@k matches subset enumeration (n<=8, 1e-12) and is exact at k=1",
        ok and exact and elapsed < 5.0,
        elapsed,
        budget=5.0,
    )


def test_criterion_02_rouge_oracle_equivalence():
    from semiforge.validation import rouge_l, tokenize

    started = time.monotonic()
    rng = np.random.default_rng(20240816)
    vocab = [f"tok{i}" for i in range(30)]
    ok = True
    for _ in range(1000):
        len_a, len_b = rng.integers(0, 51, size=2)
        a = " ".join(vocab[i] for i in rng.integers(0, len(vocab), size=len_a))
        b = " ".join(vocab[i] for i in rng.integers(0, len(vocab), size=len_b))
        if rouge_l(tokenize(a), tokenize(b)) != rouge_oracle(a, b):
            ok = False
            break
    elapsed = time.monotonic() - started
    record(
        2,
        "ROUGE-L equals the quadratic LCS oracle on 1000 random pairs",
        ok and elapsed < 10.0,
        elapsed,
        budget=10.0,
    )


def test_criterion_03_mutation_rejection():
    started = time.monotonic()
    suite = json.loads((TEST_DATA / "mutation_suite.json").read_text(encoding="utf-8"))
    limits = ResourceLimits(wall_timeout=1.5)
    accepted_refactors = rejected_mutants = 0
    refactors = mutants = 0
    for entry in suite:
        cases = []
        for raw in entry["inputs"]:
            if entry["mode"] == "call":
                inv = Invocation.call(entry["function_name"], raw)
            else:
                inv = Invocation.stdin(raw)
            result = execute(entry["original"], inv, limits)
            assert result.ok, f"{entry['name']}: original must pass its own inputs"
            cases.append(Case(inv, normalize_output(result.stdout)))
        verdict = validate_refined_code(entry["refined"], cases, limits)
        if entry["kind"] == "refactor":
            refactors += 1
            accepted_refactors += verdict.passed
        else:
            mutants += 1
            rejected_mutants += not verdict.passed
    elapsed = time.monotonic() - started
    ok = (
        refactors >= 10
        and mutants >= 10
        and accepted_refactors == refactors
        and rejected_mutants == mutants
    )
    record(
        3,
        f"validation accepts {accepted_refactors}/{refactors} refactors and rejects "
        f"{rejected_mutants}/{mutants} mutants",
        ok and elapsed < 60.0,
        elapsed,
        budget=60.0,
    )


def test_criterion_04_construction_soundness(golden_run):
    started = time.monotonic()
    _, out_dir, _ = golden_run
    jobs = []
    for row in load_jsonl(stage_path(out_dir, "construct")):
        if row["status"] != "ok":
            continue
        for case in row["test_cases"]:
            jobs.append((row["code"], case))

    limits = ResourceLimits(wall_timeout=5.0)

    def recheck(job):
        code, case = job
        invocation = Invocation(
            mode=case["mode"], payload=case["payload"], function_name=case["function_name"]
        )
        result = execute(code, invocation, limits)
        return result.ok and normalize_output(result.stdout) == case["expected_output"]

    with ThreadPoolExecutor(max_workers=8) as pool:
        sound = all(pool.map(recheck, jobs))

    crash_bundle = GenerationBundle(
        instruction="divide",
        refined_code="print(10 // int(input()))",
        answer_type=AnswerType.standard_input(),
        raw_inputs=("0", "zero"),
        raw_completion="",
    )
    with pytest.raises(EmptyTestCases):
        construct_test_cases(
            "print(10 // int(input()))", crash_bundle.answer_type, crash_bundle.raw_inputs, limits
        )

    elapsed = time.monotonic() - started
    record(
        4,
        f"re-executing originals reproduces all {len(jobs)} expected outputs; "
        "all-crash input sets raise EmptyTestCases",
        sound and len(jobs) > 0,
        elapsed,
    )


def test_criterion_05_dedup_soundness():
    started = time.monotonic()
    bases = [
        f"alpha{i} bravo{i} charlie{i} delta{i} echo{i}" for i in range(50)
    ]
    dup_of = [3, 11, 24, 37, 49]
    dups = [bases[i] + " extra" for i in dup_of]
    for i, dup in zip(dup_of, dups):
        assert rouge_oracle(dup, bases[i]) > 0.7
    stream = bases + dups
    samples = [SimpleNamespace(instruction=text) for text in stream]
    retained = dedup_instructions(samples, threshold=0.7)
    texts = [s.instruction for s in retained]
    pairwise_ok = all(
        rouge_oracle(a, b) <= 0.7 for i, a in enumerate(texts) for b in texts[:i]
    )
    elapsed = time.monotonic() - started
    record(
        5,
        "5 injected near-duplicates dropped, 50 firsts kept, retained pairs <= 0.7",
        texts == bases and pairwise_ok,
        elapsed,
    )


def test_criterion_06_curriculum_invariants():
    started = time.monotonic()
    records = load_jsonl(GOLDEN / "dataset.jsonl")
    ok = True

    ranked = order_records(records, OrderingStrategy("semi_ranked"))
    difficulties = [r["difficulty"] for r in ranked]
    ok &= difficulties == sorted(difficulties, reverse=True)
    # Stable ties: within a difficulty class the original order is kept.
    position = {id(r): i for i, r in enumerate(records)}
    for d in set(difficulties):
        block = [position[id(r)] for r in ranked if r["difficulty"] == d]
        ok &= block == sorted(block)

    def render(rs):
        return "\n".join(json.dumps(r, sort_keys=True) for r in rs)

    key = lambda r: (r["provenance"]["problem_id"], r["provenance"]["seq"])
    for kind in STRATEGIES:
        strategy = OrderingStrategy(kind, seed=42)
        ordered = order_records(records, strategy)
        ok &= sorted(map(key, ordered)) == sorted(map(key, records))
        ok &= render(ordered) == render(order_records(records, strategy))
        for small, large in ((5, 10), (10, 20), (5, 20)):
            ok &= render(order_records(records, strategy)[:small]) == render(
                order_records(records, strategy)[:large][:small]
            )
    elapsed = time.monotonic() - started
    record(
        6,
        "ranking monotone with stable ties; strategies permute, reproduce, and nest prefixes",
        ok,
        elapsed,
    )


def test_criterion_07_corpus_preprocessing(tmp_path):
    started = time.monotonic()
    problems = load_corpus(TEST_DATA / "apps_archive", "apps")
    problems = filter_problems(problems, max_tokens=1000)
    problems = merge_duplicate_problems(problems)
    problems = cap_solutions(problems, cap=25)
    out = tmp_path / "preprocessed.jsonl"
    write_corpus(problems, out)
    ok = out.read_bytes() == (GOLDEN / "corpus_golden.jsonl").read_bytes()
    elapsed = time.monotonic() - started
    record(
        7,
        "archive preprocessing (drop long/special, merge dups, cap 25) matches the golden file",
        ok,
        elapsed,
    )


def test_criterion_08_sandbox_limits():
    started = time.monotonic()
    spin = execute(
        "while True:\n    pass", Invocation.stdin(""), ResourceLimits(wall_timeout=1.0)
    )
    ok = spin.status is ExecStatus.TIMEOUT and spin.duration <= 2.0

    probe = "import os\nprint(os.getcwd())\nprint(41 + 1)"
    first = execute(probe, Invocation.stdin(""), ResourceLimits(wall_timeout=5.0))
    second = execute(probe, Invocation.stdin(""), ResourceLimits(wall_timeout=5.0))
    ok &= first.status == second.status
    first_lines = normalize_output(first.stdout).splitlines()
    second_lines = normalize_output(second.stdout).splitlines()
    ok &= first_lines[1:] == second_lines[1:] == ["42"]
    ok &= not os.path.exists(first_lines[0]) and not os.path.exists(second_lines[0])
    elapsed = time.monotonic() - started
    record(
        8,
        "timeout within 2s, deterministic reruns identical, temp dirs removed",
        ok,
        elapsed,
    )


def test_criterion_09_end_to_end_golden_run(tmp_path, golden_config_path):
    started = time.monotonic()
    config = load_config(golden_config_path)
    config.out_dir = str(tmp_path)
    stats = run_pipeline(config)
    elapsed = time.monotonic() - started
    committed = FunnelStats.from_dict(
        json.loads((GOLDEN / "funnel_stats.json").read_text(encoding="utf-8"))
    )
    ok = stats == committed
    ok &= stats.is_monotonic()
    ok &= (tmp_path / DATASET_FILE).read_bytes() == (GOLDEN / "dataset.jsonl").read_bytes()
    ok &= (tmp_path / FUNNEL_FILE).read_bytes() == (GOLDEN / "funnel_stats.json").read_bytes()
    record(
        9,
        f"cold run reproduces committed funnel {stats.counts()} and byte-identical dataset",
        ok and elapsed < 120.0,
        elapsed,
        budget=120.0,
    )


def test_criterion_10_funnel_report_arithmetic():
    started = time.monotonic()
    stats = FunnelStats(126, 92, 69, 54, 40)
    ratios = retention_ratios(stats)
    expected = [73.0, 75.0, 78.3, 74.1]
    ok = all(
        ratio is not None and abs(ratio - want) <= 0.05
        for ratio, want in zip(ratios, expected)
    )
    elapsed = time.monotonic() - started
    record(
        10,
        f"retention ratios for (126, 92, 69, 54, 40) are {ratios}",
        ok,
        elapsed,
    )
