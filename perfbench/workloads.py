"""Seeded input generators for the three benchmark workloads.

Every generator takes a seed and returns the inputs the program sees
together with the outcome the program must produce on them.  The seed
only picks names, constants, words and input values; the layout of each
workload (how many units of each kind, in which order) is fixed, so the
amount of work per pass is the same for every seed and the figures of
different seeds can be compared.

Expected outcomes of ``pipeline_e2e`` and ``eval_passk`` follow from
the layout by construction.  The keep/drop decisions of ``dedup_stream``
come from the pure-Python oracle in ``oracle.py``, computed by the
caller outside every timed region.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("pipeline_e2e", "dedup_stream", "eval_passk")
WORKERS = 2
DEDUP_THRESHOLD = 0.7

# Four-letter consonant-vowel words.  No English word used in templates
# below has this shape, so template words never collide with them.
_SYLLABLES = ["".join(p) for p in itertools.product("bdfgklmnprstvz", "aeiou")]
LEXICON = tuple("".join(p) for p in itertools.product(_SYLLABLES, repeat=2))


def _shuffled_lexicon(rng: random.Random) -> list[str]:
    words = list(LEXICON)
    rng.shuffle(words)
    return words


# ---------------------------------------------------------------- pipeline_e2e

PIPELINE_INPUT_COUNT = 3
PIPELINE_WALL_TIMEOUT = 1.0
PIPELINE_SOLUTION_CAP = 3
PIPELINE_MAX_SOLUTION_TOKENS = 1000
OVERFLOW_REPEAT = 700_000  # 1.4 MB of stdout, above the 1 MiB default cap
# Work every sandboxed program does before it reads its input: about 30 ms
# of CPU.  A sandbox run then takes roughly 90 ms, between two polls of
# the executor's wait loop (``Popen.wait`` with a timeout sleeps up to
# 50 ms between polls, at about 64 ms and 114 ms after it starts), so
# timing jitter in the child does not move the measured call by a whole
# poll interval.  Without it a run ends near 64 ms, on the edge, and a
# pass's wall time follows the host's speed in 50 ms steps per run.  The
# price: a change that makes a run up to about 25 ms faster or slower
# leaves the call on the same tick, and shows in CPU time, not wall time.
PIPELINE_WORK = 800_000
_INSTRUCTION_PREFIX = ("write", "a", "program", "that")
_INSTRUCTION_WORDS = 12
_SLICE = 40  # private lexicon words per unit

# One entry per corpus problem, in file order.  The kind of each solution
# fixes its fate:
#   ok_stdin, ok_call      kept, three test cases
#   partial_crash          original crashes on one input; kept with two cases
#   overflow               original overflows stdout on one input; kept with two
#   all_crash              every input crashes the original: empty_test_cases
#   wrong, crash, loop     refined code fails: wrong_output, runtime_error, timeout
#   near_dup_of_<i>        passes validation, instruction copies the first
#                          solution of problem <i> with one word changed
#   missing_instruction, unknown_answer_type, no_inputs,
#   missing_function_name  malformed completions, dropped at generate
#   empty_code             whitespace-only solution, dropped at generate
# Problem flags: "special" problems and "oversized" solutions are removed
# at ingest; "merge" problems share a description (up to whitespace) with
# the earlier problem they name; "cap" problems exceed the solution cap.
PIPELINE_LAYOUT = (
    ("plain", ("ok_stdin",)),
    ("plain", ("ok_call",)),
    ("plain", ("missing_instruction",)),
    ("plain", ("ok_stdin",)),
    ("plain", ("partial_crash",)),
    ("special", ("ok_stdin",)),
    ("plain", ("loop",)),
    ("plain", ("ok_call",)),
    ("cap", ("ok_stdin", "wrong", "ok_call", "ok_stdin")),
    ("plain", ("unknown_answer_type",)),
    ("merge:3", ("partial_crash",)),
    ("oversized", ("ok_stdin",)),
    ("plain", ("overflow",)),
    ("plain", ("no_inputs",)),
    ("plain", ("all_crash",)),
    ("plain", ("crash",)),
    ("plain", ("missing_function_name",)),
    ("plain", ("near_dup_of_0",)),
    ("plain", ("empty_code",)),
    ("plain", ("ok_stdin",)),
    ("plain", ("near_dup_of_1",)),
)

_GENERATE_DROPS = {
    "missing_instruction": "missing_section:Instruction",
    "unknown_answer_type": "unknown_answer_type",
    "no_inputs": "no_inputs",
    "missing_function_name": "missing_function_name",
    "empty_code": "empty_code",
}
_VALIDATE_DROPS = {"wrong": "wrong_output", "crash": "runtime_error", "loop": "timeout"}


@dataclass(frozen=True)
class UnitOutcome:
    """Where a unit ended: the dropping stage and reason, or ``emitted``.

    ``input_drops`` is the per-status count of construct inputs that the
    original program failed on; ``position``, ``difficulty`` and
    ``outputs`` describe the emitted record.
    """

    stage: str
    reason: str | None = None
    input_drops: tuple = ()
    position: int | None = None
    difficulty: int | None = None
    outputs: tuple = ()


@dataclass
class PipelineInputs:
    corpus_path: Path
    replay_store: Path
    seed: int
    expected: dict  # unit_id -> UnitOutcome
    code_units: dict  # code text -> (phase, unit_id)
    validated: list  # unit ids reaching dedup, in generation order
    kept: set  # unit ids that dedup must keep


@dataclass
class _Unit:
    kind: str
    code: str
    completion: str | None = None
    instruction: str = ""
    refined: str = ""
    input_drops: dict = field(default_factory=dict)
    outputs: tuple = ()


def _completion(instruction, refined, answer, inputs, kind) -> str:
    sections = {
        "Instruction": instruction,
        "Refined Code": f"```python\n{refined}\n```",
        "Answer Type": answer,
        "Test Case Inputs": "\n\n".join(f"#### Input\n{x}" for x in inputs),
    }
    if kind == "missing_instruction":
        del sections["Instruction"]
    elif kind == "unknown_answer_type":
        sections["Answer Type"] = "interactive judge"
    elif kind == "no_inputs":
        sections["Test Case Inputs"] = "The program needs no input."
    elif kind == "missing_function_name":
        sections["Answer Type"] = "call-based"
    return "\n\n".join(f"### {name}\n{body}" for name, body in sections.items()) + "\n"


def _call_answer(name: str) -> str:
    return f"call-based\nFunction Name: {name}"


def _make_unit(kind: str, base: str, rng: random.Random, name: str, instruction: str) -> _Unit:
    """Build one solution; ``base`` is the program shape, ``kind`` its fate."""
    k1, k2, m = rng.randint(2, 97), rng.randint(1, 999), rng.randint(11, 97)
    # Every program, original and refined, first does the same fixed work.
    pre = f"base = sum(range({PIPELINE_WORK})) % {m}\n"
    b0 = PIPELINE_WORK * (PIPELINE_WORK - 1) // 2 % m
    if base in ("ok_stdin", "missing_instruction", "unknown_answer_type", "no_inputs"):
        pairs = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(PIPELINE_INPUT_COUNT)]
        code = pre + f"a, b = map(int, input().split())\nprint(a * {k1} + b - {k2} + base)\n"
        refined = pre + f"x, y = (int(t) for t in input().split())\nresult = x * {k1} + y - {k2}\nprint(result + base)"
        inputs = [f"{a} {b}" for a, b in pairs]
        outputs = tuple(str(a * k1 + b - k2 + b0) for a, b in pairs)
        answer = "standard input"
    elif base in ("ok_call", "missing_function_name"):
        pairs = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(PIPELINE_INPUT_COUNT)]
        code = pre + f"def {name}(a, b):\n    return a * {k1} - b + {k2} + base\n"
        refined = pre + f"def {name}(a, b):\n    total = a * {k1} + base\n    return total - b + {k2}"
        inputs = [f"({a}, {b})" for a, b in pairs]
        outputs = tuple(str(a * k1 - b + k2 + b0) for a, b in pairs)
        answer = _call_answer(name)
    elif base == "partial_crash":
        values = [rng.randint(1, 9), 0, rng.randint(1, 9)]
        code = pre + f"n = int(input())\nprint({k2} // n + {k1} + base)\n"
        refined = pre + f"value = int(input())\nprint({k2} // value + {k1} + base)"
        inputs = [str(v) for v in values]
        outputs = tuple(str(k2 // v + k1 + b0) for v in values if v)
        answer = "standard input"
    elif base == "overflow":
        piece = rng.choice(LEXICON)[:2]
        values = [rng.randint(1, 5), OVERFLOW_REPEAT, rng.randint(1, 5)]
        code = pre + f"n = int(input())\nprint({piece!r} * n, base)\n"
        refined = pre + f"count = int(input())\nprint({piece!r} * count, base)"
        inputs = [str(v) for v in values]
        outputs = tuple(f"{piece * v} {b0}" for v in values if v != OVERFLOW_REPEAT)
        answer = "standard input"
    elif base == "all_crash":
        code = pre + f"n = int(input())\nprint(n * {k1} + base)\n"
        refined = pre + f"number = int(input())\nprint(number * {k1} + base)"
        inputs = [rng.choice(LEXICON) for _ in range(PIPELINE_INPUT_COUNT)]
        outputs = ()
        answer = "standard input"
    elif base in ("wrong", "loop"):
        values = [rng.randint(1, 50), rng.randint(1, 50), rng.randint(51, 99)]
        code = pre + f"n = int(input())\nprint(n * {k1} - {k2} + base)\n"
        if base == "wrong":  # differs only on the last input, so every case runs
            refined = pre + f"n = int(input())\nprint(n * {k1} - {k2} + base + (1 if n > 50 else 0))"
        else:
            refined = pre + "n = int(input())\nwhile True:\n    n += 1"
        inputs = [str(v) for v in values]
        outputs = ()
        answer = "standard input"
    elif base == "crash":
        values = [rng.randint(1, 99) for _ in range(PIPELINE_INPUT_COUNT)]
        code = pre + f"def {name}(a):\n    return a + {k1} + base\n"
        refined = pre + f"def {name}(a):\n    return a + {k1} + base + missing_{name}"
        inputs = [str(v) for v in values]
        outputs = ()
        answer = _call_answer(name)
    elif base == "empty_code":
        return _Unit(kind=kind, code="   \n")
    else:
        raise ValueError(f"unknown unit kind: {kind}")

    # The trailing name keeps every program text unique, so replay digests
    # and the code-to-unit map of the traced run never collide.
    code += f"# {name}\n"
    refined += f"\n# {name}"
    unit = _Unit(kind=kind, code=code, instruction=instruction, refined=refined, outputs=outputs)
    unit.completion = _completion(instruction, refined, answer, inputs, kind)
    if base == "partial_crash":
        unit.input_drops = {"runtime_error": 1}
    elif base == "overflow":
        unit.input_drops = {"output_overflow": 1}
    elif base == "all_crash":
        unit.input_drops = {"runtime_error": PIPELINE_INPUT_COUNT}
    return unit


def build_pipeline(seed: int, directory: Path) -> PipelineInputs:
    """Write a generic-format corpus and its replay store under ``directory``."""
    from semiforge.generation import PromptTemplate, build_generation_prompt, prompt_digest

    rng = random.Random(f"pipeline_e2e:{seed}")
    words = _shuffled_lexicon(rng)
    slices = iter(range(0, len(words), _SLICE))

    def private_words(count):
        start = next(slices)
        return rng.sample(words[start : start + _SLICE], count)

    problems = []  # (problem_id, description, flag, [unit])
    first_instruction = {}
    for index, (flag, kinds) in enumerate(PIPELINE_LAYOUT):
        problem_id = f"b{index:02d}"
        if flag.startswith("merge:"):
            earlier = problems[int(flag.split(":")[1])][1]
            description = "  " + earlier.replace(" ", "\n ", 1) + "\n"
        else:
            description = " ".join(private_words(10)).capitalize() + "."
        units = []
        for kind in kinds:
            name = f"{private_words(1)[0]}_{index}"
            own = private_words(_INSTRUCTION_WORDS)
            base = kind
            if kind.startswith("near_dup_of_"):
                source = int(kind.rsplit("_", 1)[1])
                base = PIPELINE_LAYOUT[source][1][0]
                tokens = first_instruction[source].split()
                position = len(_INSTRUCTION_PREFIX) + rng.randrange(_INSTRUCTION_WORDS)
                tokens[position] = own[0]
                instruction = " ".join(tokens)
            else:
                instruction = " ".join(_INSTRUCTION_PREFIX + tuple(own))
            unit = _make_unit(kind, base, rng, name, instruction)
            if flag == "oversized":
                unit.code += "# " + " ".join(private_words(1) * (PIPELINE_MAX_SOLUTION_TOKENS + 1)) + "\n"
            units.append(unit)
        first_instruction.setdefault(index, units[0].instruction)
        problems.append((problem_id, description, flag, units))

    directory.mkdir(parents=True, exist_ok=True)
    corpus_path = directory / "corpus.jsonl"
    store = directory / "completions"
    store.mkdir(exist_ok=True)
    template = PromptTemplate.default(PIPELINE_INPUT_COUNT)
    with open(corpus_path, "w", encoding="utf-8", newline="\n") as fh:
        for problem_id, description, flag, units in problems:
            row = {
                "problem_id": problem_id,
                "description": description,
                "solutions": [u.code for u in units],
                "special_judge": flag == "special",
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            for unit in units:
                if unit.completion is not None and unit.code.strip():
                    digest = prompt_digest(build_generation_prompt(unit.code, template))
                    (store / f"{digest}.txt").write_text(unit.completion, encoding="utf-8")

    # Ingest semantics, by construction: special and oversized problems
    # vanish, a merged problem's solutions join the earlier problem, and
    # the cap keeps the first solutions of each problem.
    grouped: dict[str, list] = {}
    order = []
    for problem_id, _, flag, units in problems:
        if flag in ("special", "oversized"):
            continue
        owner = f"b{int(flag.split(':')[1]):02d}" if flag.startswith("merge:") else problem_id
        if owner not in grouped:
            grouped[owner] = []
            order.append(owner)
        grouped[owner].extend(units)
    ingest = [
        (f"{owner}:{i}", unit)
        for owner in order
        for i, unit in enumerate(grouped[owner][:PIPELINE_SOLUTION_CAP])
    ]

    expected: dict[str, UnitOutcome] = {}
    code_units: dict[str, tuple] = {}
    validated, kept, emitted = [], set(), []
    for seq, (unit_id, unit) in enumerate(ingest):
        kind = unit.kind
        if kind in _GENERATE_DROPS:
            expected[unit_id] = UnitOutcome("generate", _GENERATE_DROPS[kind])
            continue
        code_units[unit.code] = ("construct", unit_id)
        code_units[unit.refined] = ("validate", unit_id)
        drops = tuple(sorted(unit.input_drops.items()))
        if kind == "all_crash":
            expected[unit_id] = UnitOutcome("construct", "empty_test_cases", drops)
        elif kind in _VALIDATE_DROPS:
            expected[unit_id] = UnitOutcome("validate", _VALIDATE_DROPS[kind], drops)
        elif kind.startswith("near_dup_of_"):
            validated.append(unit_id)
            expected[unit_id] = UnitOutcome("dedup", "near_duplicate", drops)
        else:
            validated.append(unit_id)
            kept.add(unit_id)
            emitted.append((-len(unit.outputs), seq, unit_id, drops, unit.outputs))
    # semi_ranked: hardest first, ties keep generation order.
    for position, (neg_difficulty, _, unit_id, drops, outputs) in enumerate(sorted(emitted)):
        expected[unit_id] = UnitOutcome("emitted", None, drops, position, -neg_difficulty, outputs)

    return PipelineInputs(
        corpus_path=corpus_path,
        replay_store=store,
        seed=seed,
        expected=expected,
        code_units=code_units,
        validated=validated,
        kept=kept,
    )


def pipeline_config(inputs: PipelineInputs, out_dir: Path):
    from semiforge.pipeline import PipelineConfig

    return PipelineConfig(
        corpus_path=str(inputs.corpus_path),
        corpus_format="generic",
        out_dir=str(out_dir),
        input_count=PIPELINE_INPUT_COUNT,
        client_mode="replay",
        replay_store=str(inputs.replay_store),
        max_solution_tokens=PIPELINE_MAX_SOLUTION_TOKENS,
        solution_cap=PIPELINE_SOLUTION_CAP,
        wall_timeout=PIPELINE_WALL_TIMEOUT,
        dedup_threshold=DEDUP_THRESHOLD,
        order="semi_ranked",
        seed=inputs.seed,
        workers=WORKERS,
    )


# ---------------------------------------------------------------- dedup_stream

DEDUP_COUNT = 240
DEDUP_NEAR_SHARE = 0.25
DEDUP_VOCABULARY = 600
# Lengths are 1 mod 5 (11, 16, ..., 56) and near-duplicate edits insert or
# delete whole blocks of five, so len(a) + len(b) is never a multiple of
# five and ROUGE-L F1 = 2 * lcs / (len(a) + len(b)) can never equal 7/10:
# no decision sits exactly on the threshold.
DEDUP_LENGTHS = tuple(range(11, 61, 5))


def build_dedup(seed: int) -> list[dict]:
    """A stream of instructions with a planted share of near-duplicates.

    The shape of the stream (lengths, which entries copy which earlier
    entry, and where the edits fall) comes from a fixed generator, so the
    comparison work is nearly the same for every seed; the seed picks the
    words.
    """
    shape = random.Random("dedup_stream:shape")
    rng = random.Random(f"dedup_stream:{seed}")
    vocabulary = _shuffled_lexicon(rng)[:DEDUP_VOCABULARY]
    weights = [1.0 / (rank + 1) for rank in range(DEDUP_VOCABULARY)]  # Zipf-like

    def draw(count):
        return rng.choices(vocabulary, weights=weights, k=count)

    stream: list[list[str]] = []
    for _ in range(DEDUP_COUNT):
        if stream and shape.random() < DEDUP_NEAR_SHARE:
            tokens = list(stream[shape.randrange(len(stream))])
            for _ in range(shape.randint(0, len(tokens) * 2 // 5)):
                tokens[shape.randrange(len(tokens))] = draw(1)[0]
            block = shape.random()
            if block < 0.2 and len(tokens) - 5 >= DEDUP_LENGTHS[0]:
                at = shape.randrange(len(tokens) - 4)
                del tokens[at : at + 5]
            elif block < 0.4 and len(tokens) + 5 <= DEDUP_LENGTHS[-1]:
                at = shape.randrange(len(tokens) + 1)
                tokens[at:at] = draw(5)
        else:
            tokens = draw(shape.choice(DEDUP_LENGTHS))
        stream.append(tokens)
    return [{"id": i, "instruction": " ".join(tokens)} for i, tokens in enumerate(stream)]


# ---------------------------------------------------------------- eval_passk

EVAL_WALL_TIMEOUT = 1.0
# Loop lengths of the three cases: tens of ms of CPU each, which also keeps
# a sandbox run between two polls of the executor's wait loop (see
# PIPELINE_WORK).
EVAL_SIZES = (110_000, 125_000, 140_000)
EVAL_LATE_LIMIT = 132_000  # wrong_late differs only above this size: the last case
# Candidate kinds per problem.  ok_* pass every case; wrong_late fails the
# last case after running all three; wrong_early and crash do the same
# work and then fail the first case; loop runs into the wall limit.  One
# loop in the whole workload.
EVAL_LAYOUT = (
    ("ok_for", "wrong_late", "ok_sum", "wrong_early", "crash"),
    ("ok_for", "loop", "wrong_early", "ok_sum", "ok_list"),
    ("wrong_late", "ok_sum", "crash", "wrong_early", "crash"),
    ("ok_for", "ok_list", "wrong_late", "crash", "wrong_early"),
)


def _candidate(kind: str, name: str, c: int) -> str:
    head = f"def {name}(n, k):\n"
    loop = f"    total = 0\n    for i in range({{}}):\n        total += i * k + {c}\n"
    if kind == "ok_for":
        return head + loop.format("n") + "    return total\n"
    if kind == "ok_sum":
        return head + f"    return sum(i * k + {c} for i in range(n))\n"
    if kind == "ok_list":
        return head + f"    return sum([i * k + {c} for i in range(n)])\n"
    if kind == "wrong_late":
        return head + loop.format(f"n + (n > {EVAL_LATE_LIMIT})") + "    return total\n"
    if kind == "wrong_early":
        return head + loop.format("n + 1") + "    return total\n"
    if kind == "crash":
        return head + loop.format("n") + f"    raise ValueError('{name}: overflow at %d' % total)\n"
    if kind == "loop":
        return head + "    while True:\n        pass\n"
    raise ValueError(f"unknown candidate kind: {kind}")


@dataclass
class EvalInputs:
    problems: list  # EvalProblem
    expected: dict  # problem_id -> number of passing candidates
    code_units: dict  # candidate code -> ("validate", "<problem_id>/<index>")


def build_eval(seed: int) -> EvalInputs:
    """Call-based problems with correct, wrong, crashing and looping candidates."""
    from semiforge.executor import Invocation
    from semiforge.metrics import EvalProblem
    from semiforge.validation import TestCase

    rng = random.Random(f"eval_passk:{seed}")
    words = _shuffled_lexicon(rng)
    problems, expected, code_units = [], {}, {}
    for index, kinds in enumerate(EVAL_LAYOUT):
        problem_id = f"e{index:02d}"
        name = f"{words[index]}_{index}"
        c = rng.randint(1, 999)
        cases = []
        for size in EVAL_SIZES:
            n, k = size + rng.randint(0, 999), rng.randint(2, 97)
            cases.append(TestCase(Invocation.call(name, f"({n}, {k})"), str(k * n * (n - 1) // 2 + c * n)))
        candidates = tuple(_candidate(kind, name, c) for kind in kinds)
        # The trailing comment keeps repeated kinds apart in the code-to-unit map.
        candidates = tuple(f"{code}# {problem_id}/{i}\n" for i, code in enumerate(candidates))
        for position, code in enumerate(candidates):
            code_units[code] = ("validate", f"{problem_id}/{position}")
        problems.append(EvalProblem(problem_id=problem_id, test_cases=tuple(cases), candidates=candidates))
        expected[problem_id] = sum(kind.startswith("ok_") for kind in kinds)
    return EvalInputs(problems=problems, expected=expected, code_units=code_units)


def build(workload: str, seed: int, directory: Path):
    """Build the inputs of one workload; files, if any, go under ``directory``."""
    if workload == "pipeline_e2e":
        return build_pipeline(seed, directory)
    if workload == "dedup_stream":
        return build_dedup(seed)
    if workload == "eval_passk":
        return build_eval(seed)
    raise ValueError(f"unknown workload: {workload!r}")
