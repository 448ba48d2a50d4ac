#!/usr/bin/env python3
"""Regenerate every committed fixture and golden file.

Run from the repository root:

    python3 scripts/build_fixtures.py

Authors the mini corpus and its replay completions, the preprocessing
archive, the mutation suite, and the goldens for the end-to-end run.
Design assumptions are checked before anything is written permanently:
near-duplicate instructions really score above the dedup threshold
(via an independent quadratic-DP ROUGE oracle), refactors really pass
and mutants really fail (by execution), and the golden pipeline run
reproduces the hand-derived funnel.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from semiforge.dataset import read_json_lines
from semiforge.executor import Invocation, ResourceLimits, sandbox
from semiforge.generation import ParseError, PromptTemplate, build_generation_prompt, parse_components, prompt_digest
from semiforge.pipeline import load_config, run_pipeline
from semiforge.validation import construct_test_cases, validate_refined_code

FIXTURES = ROOT / "fixtures"
TEST_DATA = ROOT / "tests" / "data"
GOLDEN = ROOT / "tests" / "golden"

INPUT_COUNT = 4
THRESHOLD = 0.7


# ---------------------------------------------------------------- oracle

def lcs_quadratic(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_oracle(candidate: str, reference: str) -> float:
    a = candidate.lower().split()
    b = reference.lower().split()
    if not a or not b:
        return 0.0
    lcs = lcs_quadratic(a, b)
    if lcs == 0:
        return 0.0
    p = lcs / len(a)
    r = lcs / len(b)
    return 2 * p * r / (p + r)


# ------------------------------------------------------- mini corpus data
# Each unit: one (problem, solution) pair with its scripted completion.
# "spec" fields: instruction, refined, answer ("stdin" or ("call", name)),
# inputs (INPUT_COUNT of them), malform (None or a parse-defect tag).

def unit(code, instruction, refined, answer, inputs, malform=None):
    assert malform or len(inputs) == INPUT_COUNT, instruction
    return {
        "code": code,
        "instruction": instruction,
        "refined": refined,
        "answer": answer,
        "inputs": inputs,
        "malform": malform,
    }


MINI = [
    {
        "problem_id": "mp01",
        "description": "Mini 01: double the integer on the only input line.",
        "units": [
            unit(
                "print(int(input())*2)",
                "Read a single integer from standard input and output twice its value.",
                "n = int(input())\nprint(n * 2)",
                "stdin",
                ["3", "7", "0", "-5"],
            ),
            unit(
                "n=int(input());print(n+n)",
                "Given one line holding an integer n, compute n plus n and write the result.",
                "value = int(input())\nprint(value + value)",
                "stdin",
                ["1", "10", "-2", "100"],
            ),
        ],
    },
    {
        "problem_id": "mp02",
        "description": "Mini 02: add the numbers found on one input line.",
        "units": [
            unit(
                "a,b=map(int,input().split())\nprint(a+b)",
                "Two space-separated integers arrive on one line; print their sum.",
                "first, second = map(int, input().split())\nprint(first + second)",
                "stdin",
                ["1 2", "0 0", "-3 9", "100 250"],
            ),
            unit(
                "print(sum(map(int,input().split())))",
                "The input is a line of whitespace-separated integers. Output the total of all of them.",
                "numbers = [int(part) for part in input().split()]\nprint(sum(numbers))",
                "stdin",
                ["1 2 3", "5", "0 0 0 0", "10 -10 7"],
            ),
        ],
    },
    {
        "problem_id": "mp03",
        "description": "Mini 03: find the biggest number in the input.",
        "units": [
            unit(
                "nums=list(map(int,input().split()))\nprint(max(nums))",
                "Print the largest of the integers supplied on a single input line.",
                "values = [int(v) for v in input().split()]\nbest = values[0]\nfor v in values[1:]:\n    if v > best:\n        best = v\nprint(best)",
                "stdin",
                ["3 1 4", "9", "2 2 2", "-5 -2 -9"],
            ),
            unit(
                "def biggest(xs):\n    best = xs[0]\n    for x in xs[1:]:\n        if x > best:\n            best = x\n    return best",
                "Implement a function that walks through a list of numbers and returns the greatest element it finds.",
                "def biggest(xs):\n    return max(xs)",
                ("call", "biggest"),
                ["([3, 1, 4],)", "([9],)", "([2, 2, 2],)", "([-5, -2, -9],)"],
            ),
        ],
    },
    {
        "problem_id": "mp04",
        "description": "Mini 04: measure the length of the input line.",
        "units": [
            unit(
                "print(len(input()))",
                "Count the characters of the only input line.",
                "print(len(input()))",
                "stdin",
                ["abc", "x", "hello", "ab"],
                malform="no_refined",
            )
        ],
    },
    {
        "problem_id": "mp05",
        "description": "Mini 05: shout the input line back in capitals.",
        "units": [
            unit(
                "print(input().upper())",
                "Uppercase the input line and print it.",
                "print(input().upper())",
                "stdin",
                ["abc", "x", "hello", "ab"],
                malform="bad_answer",
            )
        ],
    },
    {
        "problem_id": "mp06",
        "description": "Mini 06: square a number inside a helper function.",
        "units": [
            unit(
                "def sq(x):\n    return x * x",
                "Square a number with a function and return the product.",
                "def sq(x):\n    return x * x",
                ("call", "sq"),
                ["(2,)", "(0,)", "(-3,)", "(11,)"],
                malform="no_fn",
            )
        ],
    },
    {
        "problem_id": "mp07",
        "description": "Mini 07: floor-divide ten by the input value.",
        "units": [
            unit(
                "n=int(input())\nprint(10//n)",
                "Divide ten by the given integer and print the floor result.",
                "n = int(input())\nprint(10 // n)",
                "stdin",
                ["0", "zero", "", "none"],
            )
        ],
    },
    {
        "problem_id": "mp08",
        "description": "Mini 08: index into a fixed short list.",
        "units": [
            unit(
                "def pick(i):\n    data = [1, 2, 3]\n    return data[i]",
                "Return the list element stored at the requested position.",
                "def pick(i):\n    return [1, 2, 3][i]",
                ("call", "pick"),
                ["(10,)", "(-7,)", "(99,)", "('x',)"],
            )
        ],
    },
    {
        "problem_id": "mp09",
        "description": "Mini 09: move the input integer up by one.",
        "units": [
            unit(
                "print(int(input())+1)",
                "Increase the supplied integer by exactly one and report it.",
                "print(int(input()) + 2)",
                "stdin",
                ["1", "2", "3", "4"],
            )
        ],
    },
    {
        "problem_id": "mp10",
        "description": "Mini 10: mirror the characters of the input line.",
        "units": [
            unit(
                "print(input()[::-1])",
                "Emit the reverse of the provided text line.",
                "text = input()\nprint(text[len(text)])",
                "stdin",
                ["abc", "x", "hello", "ab"],
            )
        ],
    },
    {
        "problem_id": "mp11",
        "description": "Mini 11: reduce the input number modulo three.",
        "units": [
            unit(
                "print(int(input()) % 3)",
                "Compute the remainder of the input number divided by three.",
                "while True:\n    pass",
                "stdin",
                ["1", "2", "3", "4"],
            )
        ],
    },
    {
        "problem_id": "mp12",
        "description": "Mini 12: pick out the smallest listed integer.",
        "units": [
            unit(
                "print(min(map(int, input().split())))",
                "Locate the smallest value among the integers on the input line.",
                "print(sorted(map(int, input().split()), key=abs)[0])",
                "stdin",
                ["4 7", "-5 2", "1 2 3", "-9 -4"],
            )
        ],
    },
    {
        "problem_id": "mp13",
        "description": "Mini 13: double the lone integer, again.",
        "units": [
            unit(
                "x=int(input());print(2*x)",
                "Read a single integer from standard input and output twice its value as the answer.",
                "n = int(input())\nprint(n << 1)",
                "stdin",
                ["2", "5", "-1", "8"],
            )
        ],
    },
    {
        "problem_id": "mp14",
        "description": "Mini 14: one more pair-sum task.",
        "units": [
            unit(
                "x,y=input().split()\nprint(int(x)+int(y))",
                "Two space-separated integers arrive on one line; print their sum as a single number.",
                "left, right = input().split()\nprint(int(left) + int(right))",
                "stdin",
                ["3 9", "0 0", "12 34", "-2 2"],
            )
        ],
    },
    {
        "problem_id": "mp15",
        "description": "Mini 15: maximum of the line, the sequel.",
        "units": [
            unit(
                "print(max(int(t) for t in input().split()))",
                "Print the largest of the integers supplied on a single input line. Use standard input.",
                "print(max(int(piece) for piece in input().split()))",
                "stdin",
                ["4 8 1", "3", "-7 -1", "5 5"],
            )
        ],
    },
    {
        "problem_id": "mp16",
        "description": "Mini 16: write the line out backwards.",
        "units": [
            unit(
                "print(input()[::-1])\n# reversing via slicing",
                "Emit the characters of the input line in back-to-front order.",
                "text = input()\nprint(\"\".join(reversed(text)))",
                "stdin",
                ["abc", "racecar", "a", "xyz"],
            )
        ],
    },
    {
        "problem_id": "mp17",
        "description": "Mini 17: vowel tally helper.",
        "units": [
            unit(
                "def count_vowels(s):\n    c = 0\n    for ch in s:\n        if ch in \"aeiou\":\n            c += 1\n    return c",
                "Write a function that tallies how many lowercase vowels appear in a string.",
                "def count_vowels(s):\n    return sum(1 for ch in s if ch in \"aeiou\")",
                ("call", "count_vowels"),
                ["('banana',)", "('sky',)", "('aeiou',)", "(42,)"],
            )
        ],
    },
    {
        "problem_id": "mp18",
        "description": "Mini 18: factorial of the input.",
        "units": [
            unit(
                "import math\nprint(math.factorial(int(input())))",
                "Compute the factorial of a non-negative integer read from the first line.",
                "n = int(input())\nresult = 1\nfor i in range(2, n + 1):\n    result *= i\nprint(result)",
                "stdin",
                ["0", "5", "1", "-3"],
            )
        ],
    },
    {
        "problem_id": "mp19",
        "description": "Mini 19: the classic three-five word game for one number.",
        "units": [
            unit(
                "n = int(input())\nif n % 15 == 0:\n    print(\"FizzBuzz\")\nelif n % 3 == 0:\n    print(\"Fizz\")\nelif n % 5 == 0:\n    print(\"Buzz\")\nelse:\n    print(n)",
                "For one integer, print FizzBuzz when divisible by fifteen, Fizz for multiples of three, Buzz for multiples of five, and the number itself otherwise.",
                "n = int(input())\nlabel = \"\"\nif n % 3 == 0:\n    label += \"Fizz\"\nif n % 5 == 0:\n    label += \"Buzz\"\nprint(label or n)",
                "stdin",
                ["15", "9", "10", "7"],
            )
        ],
    },
    {
        "problem_id": "mp20",
        "description": "Mini 20: alphabetize the words.",
        "units": [
            unit(
                "print(\" \".join(sorted(input().split())))",
                "Rearrange the words of the input line into alphabetical order and join them with spaces.",
                "words = input().split()\nwords.sort()\nprint(\" \".join(words))",
                "stdin",
                ["pear apple fig", "b a", "one", "zz aa mm"],
            )
        ],
    },
    {
        "problem_id": "mp21",
        "description": "Mini 21: greatest common divisor helper.",
        "units": [
            unit(
                "def gcd(a, b):\n    while b:\n        a, b = b, a % b\n    return a",
                "Create a function returning the greatest common divisor of two integers.",
                "def gcd(a, b):\n    return a if b == 0 else gcd(b, a % b)",
                ("call", "gcd"),
                ["(12, 18)", "(7, 3)", "(100, 75)", "(12.5, 'x')"],
            )
        ],
    },
    {
        "problem_id": "mp22",
        "description": "Mini 22: total of squares up to n.",
        "units": [
            unit(
                "n=int(input())\nprint(sum(i*i for i in range(1,n+1)))",
                "Sum the squares of every integer from one through n, where n is supplied on stdin.",
                "n = int(input())\nprint(n * (n + 1) * (2 * n + 1) // 6)",
                "stdin",
                ["3", "1", "10", "0"],
            )
        ],
    },
    {
        "problem_id": "mp23",
        "description": "Mini 23: primality check as a function.",
        "units": [
            unit(
                "def is_prime(n):\n    if n < 2:\n        return False\n    for d in range(2, n):\n        if n % d == 0:\n            return False\n    return True",
                "Decide whether the given integer is a prime and answer True or False from a function.",
                "def is_prime(n):\n    if n < 2:\n        return False\n    d = 2\n    while d * d <= n:\n        if n % d == 0:\n            return False\n        d += 1\n    return True",
                ("call", "is_prime"),
                ["(7,)", "(12,)", "(2,)", "('seven',)"],
            )
        ],
    },
    {
        "problem_id": "mp24",
        "description": "Mini 24: count words on the line.",
        "units": [
            unit(
                "print(len(input().split()))",
                "How many whitespace-delimited words does the input line contain? Print that count.",
                "pieces = input().split()\nprint(len(pieces))",
                "stdin",
                ["a b c", "", "hello", "x y"],
            )
        ],
    },
    {
        "problem_id": "mp25",
        "description": "Mini 25: smallest and largest together.",
        "units": [
            unit(
                "xs=list(map(int,input().split()))\nprint(min(xs), max(xs))",
                "Report both the minimum and the maximum of the integers on one line, separated by a space.",
                "numbers = [int(tok) for tok in input().split()]\nlow = numbers[0]\nhigh = numbers[0]\nfor value in numbers[1:]:\n    if value < low:\n        low = value\n    if value > high:\n        high = value\nprint(low, high)",
                "stdin",
                ["3 1 4", "7", "-2 5 0", "9 9"],
            )
        ],
    },
    {
        "problem_id": "mp26",
        "description": "Mini 26: occurrences of a character.",
        "units": [
            unit(
                "def occurrences(s, ch):\n    return s.count(ch)",
                "Build a function counting the occurrences of a character inside a string.",
                "def occurrences(s, ch):\n    total = 0\n    for current in s:\n        if current == ch:\n            total += 1\n    return total",
                ("call", "occurrences"),
                ["('banana', 'a')", "('', 'x')", "('abc',)", "(42, 'x')"],
            )
        ],
    },
    {
        "problem_id": "mp27",
        "description": "Mini 27: sum a counted block of numbers.",
        "units": [
            unit(
                "n = int(input())\ntotal = 0\nfor _ in range(n):\n    total += int(input())\nprint(total)",
                "The first line tells how many numbers follow, one per line; print their total.",
                "count = int(input())\nvalues = [int(input()) for _ in range(count)]\nprint(sum(values))",
                "stdin",
                ["3\n1\n2\n3", "1\n5", "2\n10\n-4", "0"],
            )
        ],
    },
    {
        "problem_id": "mp28",
        "description": "Mini 28: headline-style capitalization.",
        "units": [
            unit(
                "print(input().title())",
                "Capitalize the first letter of each word in the given line of text.",
                "print(\" \".join(w.capitalize() for w in input().split()))",
                "stdin",
                ["hello world", "a", "foo bar baz", "x y"],
            )
        ],
    },
    {
        "problem_id": "mp29",
        "description": "Mini 29: modular exponentiation in one line.",
        "units": [
            unit(
                "a,b,m=map(int,input().split())\nprint(pow(a,b,m))",
                "Given base, exponent and modulus on one line, print the modular exponentiation result.",
                "base, exp, mod = map(int, input().split())\nresult = 1\ncur = base % mod\ne = exp\nwhile e > 0:\n    if e & 1:\n        result = result * cur % mod\n    cur = cur * cur % mod\n    e >>= 1\nprint(result)",
                "stdin",
                ["2 10 1000", "3 0 7", "5 3 2", "2 5 0"],
            )
        ],
    },
    {
        "problem_id": "mp30",
        "description": "Mini 30: strip later duplicates from a list.",
        "units": [
            unit(
                "def dedupe(items):\n    seen = []\n    for x in items:\n        if x not in seen:\n            seen.append(x)\n    return seen",
                "From a function, produce the input list with later duplicate entries removed, keeping first appearances.",
                "def dedupe(items):\n    seen = set()\n    result = []\n    for item in items:\n        if item not in seen:\n            seen.add(item)\n            result.append(item)\n    return result",
                ("call", "dedupe"),
                ["([1, 2, 1, 3],)", "([],)", "(['a', 'a'],)", "(5,)"],
            )
        ],
    },
]

# Hand-derived design: which unit (by ingest sequence) drops at which stage.
PARSE_DROP_SEQS = {6, 7, 8}          # mp04, mp05, mp06
CONSTRUCT_DROP_SEQS = {9, 10}        # mp07, mp08
VALIDATE_DROP_SEQS = {11, 12, 13, 14}  # mp09..mp12
DEDUP_DROP_SEQS = {15, 16, 17}       # mp13..mp15
EXPECTED_FUNNEL = (33, 30, 28, 24, 21)


def completion_text(spec) -> str:
    parts = [f"### Instruction\n{spec['instruction']}\n"]
    if spec["malform"] != "no_refined":
        parts.append(f"### Refined Code\n```python\n{spec['refined']}\n```\n")
    if spec["malform"] == "bad_answer":
        answer = "interactive protocol"
    elif spec["answer"] == "stdin":
        answer = "standard input"
    else:
        _, name = spec["answer"]
        answer = f"call-based\nFunction Name: {name}" if spec["malform"] != "no_fn" else "call-based"
    parts.append(f"### Answer Type\n{answer}\n")
    blocks = "\n".join(f"#### Input\n{inp}\n" for inp in spec["inputs"])
    parts.append(f"### Test Case Inputs\n{blocks}")
    return "\n".join(parts)


def flat_units():
    seq = 0
    for problem in MINI:
        for sol_index, spec in enumerate(problem["units"]):
            yield seq, problem, sol_index, spec
            seq += 1


def check_completions() -> None:
    for seq, problem, sol_index, spec in flat_units():
        text = completion_text(spec)
        expect = {
            "no_refined": "missing_section:Refined Code",
            "bad_answer": "unknown_answer_type",
            "no_fn": "missing_function_name",
        }.get(spec["malform"])
        if expect is None:
            fields = parse_components(text)
            assert fields["instruction"] == spec["instruction"], problem["problem_id"]
            assert fields["refined_code"] == spec["refined"], problem["problem_id"]
            assert len(fields["raw_inputs"]) == INPUT_COUNT, problem["problem_id"]
            assert fields["raw_inputs"] == spec["inputs"], problem["problem_id"]
        else:
            try:
                parse_components(text)
            except ParseError as exc:
                assert exc.reason == expect, (problem["problem_id"], exc.reason)
            else:
                raise AssertionError(f"{problem['problem_id']} should fail with {expect}")


def check_dedup_design() -> None:
    """The dedup stage must drop exactly mp13-mp15, by the oracle."""
    survivors = [
        (seq, spec["instruction"])
        for seq, _, _, spec in flat_units()
        if seq not in PARSE_DROP_SEQS | CONSTRUCT_DROP_SEQS | VALIDATE_DROP_SEQS
    ]
    retained: list[tuple[int, str]] = []
    dropped: list[int] = []
    for seq, instruction in survivors:
        score = max(
            (rouge_oracle(instruction, kept) for _, kept in retained), default=0.0
        )
        if score > THRESHOLD:
            dropped.append(seq)
        else:
            retained.append((seq, instruction))
    assert set(dropped) == DEDUP_DROP_SEQS, f"unexpected dedup drops: {dropped}"
    for i, (seq_i, ins_i) in enumerate(retained):
        for seq_j, ins_j in retained[:i]:
            score = rouge_oracle(ins_i, ins_j)
            assert score <= THRESHOLD, f"retained pair {seq_j},{seq_i} scores {score:.3f}"


def write_mini_corpus() -> None:
    corpus_dir = FIXTURES / "mini_corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for problem in MINI:
        lines.append(
            json.dumps(
                {
                    "problem_id": problem["problem_id"],
                    "description": problem["description"],
                    "solutions": [spec["code"] for spec in problem["units"]],
                },
                ensure_ascii=False,
                sort_keys=True,
            )
        )
    (corpus_dir / "problems.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    store = FIXTURES / "completions"
    if store.exists():
        shutil.rmtree(store)
    store.mkdir(parents=True)
    template = PromptTemplate.default(INPUT_COUNT)
    digests = set()
    for _, _, _, spec in flat_units():
        prompt = build_generation_prompt(spec["code"], template)
        digest = prompt_digest(prompt)
        assert digest not in digests, f"duplicate prompt for {spec['instruction']!r}"
        digests.add(digest)
        (store / f"{digest}.txt").write_text(completion_text(spec), encoding="utf-8")
    assert len(digests) == 33

    config = {
        "corpus_path": "mini_corpus/problems.jsonl",
        "corpus_format": "generic",
        "out_dir": "out",
        "client_mode": "replay",
        "replay_store": "completions",
        "input_count": INPUT_COUNT,
        "wall_timeout": 2.0,
        "workers": 4,
        "dedup_threshold": THRESHOLD,
        "order": "semi_ranked",
        "seed": 7,
    }
    (FIXTURES / "golden_config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ------------------------------------------------------- mutation suite

def m(name, kind, mode, original, refined, inputs, function_name=None):
    return {
        "name": name,
        "kind": kind,
        "mode": mode,
        "function_name": function_name,
        "original": original,
        "refined": refined,
        "inputs": inputs,
    }


MUTATION_SUITE = [
    # Semantics-preserving refactors: all must pass.
    m("R1-double", "refactor", "stdin", "print(int(input())*2)", "n = int(input())\nprint(n + n)", ["3", "0", "-4", "11"]),
    m("R2-sum-list", "refactor", "stdin", "print(sum(map(int, input().split())))", "total = 0\nfor tok in input().split():\n    total += int(tok)\nprint(total)", ["1 2 3", "4", "0 0", "-1 5"]),
    m("R3-gcd", "refactor", "call", "def gcd(a, b):\n    while b:\n        a, b = b, a % b\n    return a", "def gcd(a, b):\n    return a if b == 0 else gcd(b, a % b)", ["(12, 18)", "(3, 7)", "(10, 5)", "(9, 9)"], "gcd"),
    m("R4-parity", "refactor", "stdin", "n = int(input())\nprint(\"even\" if n % 2 == 0 else \"odd\")", "n = int(input())\nprint(\"odd\" if n & 1 else \"even\")", ["2", "3", "0", "-7"]),
    m("R5-reverse", "refactor", "stdin", "print(input()[::-1])", "text = input()\nprint(\"\".join(reversed(text)))", ["abc", "z", "ab cd", "racecar"]),
    m("R6-max", "refactor", "call", "def largest(xs):\n    best = xs[0]\n    for x in xs[1:]:\n        if x > best:\n            best = x\n    return best", "def largest(xs):\n    return max(xs)", ["([1, 5, 2],)", "([9],)", "([-4, -2],)", "([7, 7],)"], "largest"),
    m("R7-vowels", "refactor", "call", "def count_vowels(s):\n    c = 0\n    for ch in s:\n        if ch in \"aeiou\":\n            c += 1\n    return c", "def count_vowels(s):\n    return sum(1 for ch in s if ch in \"aeiou\")", ["('banana',)", "('xyz',)", "('queue',)", "('a',)"], "count_vowels"),
    m("R8-strip-upper", "refactor", "stdin", "print(input().strip().upper())", "line = input()\nprint(line.strip().upper())", [" hi ", "abc", "Mixed Case", "x"]),
    m("R9-sort-ints", "refactor", "stdin", "print(\" \".join(map(str, sorted(map(int, input().split())))))", "numbers = [int(v) for v in input().split()]\nnumbers.sort()\nprint(\" \".join(str(v) for v in numbers))", ["3 1 2", "5", "9 -1", "2 2"]),
    m("R10-fib", "refactor", "call", "def fib(n):\n    a, b = 0, 1\n    for _ in range(n):\n        a, b = b, a + b\n    return a", "def fib(n):\n    prev = 0\n    cur = 1\n    count = 0\n    while count < n:\n        prev, cur = cur, prev + cur\n        count += 1\n    return prev", ["(0,)", "(1,)", "(7,)", "(10,)"], "fib"),
    # Behavior-changing mutants: all must fail.
    m("M1-off-by-one", "mutant", "stdin", "print(int(input())+1)", "print(int(input()) + 2)", ["1", "2", "3", "4"]),
    m("M2-minus", "mutant", "stdin", "a, b = map(int, input().split())\nprint(a + b)", "a, b = map(int, input().split())\nprint(a - b)", ["3 4", "1 1", "10 2", "0 5"]),
    m("M3-min-for-max", "mutant", "call", "def largest(xs):\n    return max(xs)", "def largest(xs):\n    return min(xs)", ["([1, 5, 2],)", "([9],)", "([-4, -2],)", "([7, 7],)"], "largest"),
    m("M4-flipped-parity", "mutant", "stdin", "n = int(input())\nprint(\"even\" if n % 2 == 0 else \"odd\")", "n = int(input())\nprint(\"odd\" if n % 2 == 0 else \"even\")", ["2", "3", "0", "-7"]),
    m("M5-crash-index", "mutant", "stdin", "print(input()[::-1])", "s = input()\nprint(s[len(s)])", ["abc", "z", "hello", "ab"]),
    m("M6-factorial-range", "mutant", "stdin", "import math\nprint(math.factorial(int(input())))", "n = int(input())\nresult = 1\nfor i in range(2, n):\n    result *= i\nprint(result)", ["3", "4", "5", "6"]),
    m("M7-unreversed", "mutant", "stdin", "print(\" \".join(input().split()[::-1]))", "print(\" \".join(input().split()))", ["a b", "x y z", "one two", "p q"]),
    m("M8-descending", "mutant", "stdin", "print(\" \".join(map(str, sorted(map(int, input().split())))))", "print(\" \".join(map(str, sorted(map(int, input().split()), reverse=True))))", ["3 1 2", "5 9", "9 -1", "4 2 8"]),
    m("M9-cubes", "mutant", "stdin", "n = int(input())\nprint(n * n)", "n = int(input())\nprint(n ** 3)", ["2", "3", "0", "1"]),
    m("M10-spin", "mutant", "stdin", "print(int(input()) % 5)", "while True:\n    pass", ["1", "2", "3", "4"]),
]


def check_mutation_suite() -> None:
    """Every refactor passes the tests its original's runs make, and every mutant fails them."""
    limits = ResourceLimits(wall_timeout=1.5)
    refactors = mutants = 0
    with sandbox(limits=limits) as originals, sandbox(limits=limits) as refined:
        for entry in MUTATION_SUITE:
            if entry["mode"] == "call":
                invocations = [Invocation.call(entry["function_name"], raw) for raw in entry["inputs"]]
            else:
                invocations = [Invocation.stdin(raw) for raw in entry["inputs"]]
            cases, drops = construct_test_cases(entry["original"], invocations, originals)
            assert not drops, f"{entry['name']}: original failed on some inputs: {dict(drops)}"
            failure = validate_refined_code(entry["refined"], cases, refined)
            if entry["kind"] == "refactor":
                assert failure is None, f"{entry['name']}: refactor did not pass: {failure}"
                refactors += 1
            else:
                assert failure is not None, f"{entry['name']}: mutant was not rejected"
                mutants += 1
    assert refactors == 10 and mutants == 10


def write_mutation_suite() -> None:
    TEST_DATA.mkdir(parents=True, exist_ok=True)
    (TEST_DATA / "mutation_suite.json").write_text(
        json.dumps(MUTATION_SUITE, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


# ------------------------------------------------- corpus preprocessing

APPS_SMALL = {
    "p1": ("Double it.\n", ["print(int(input())*2)", "n=int(input());print(n+n)"]),
    "p2": ("Halve it.\n", ["print(int(input())//2)"]),
    "p3": ("Negate it.\n", ["print(-int(input()))"]),
}

A_SOLUTIONS = [
    "a, b = map(int, input().split())\nprint(a + b)",
    "print(sum(map(int, input().split())))",
    "x, y = input().split()\nprint(int(x) + int(y))",
]
D_SOLUTIONS = [
    "nums = input().split()\nprint(int(nums[0]) + int(nums[1]))",
    "a, b = [int(v) for v in input().split()]\nprint(a + b)",
    "parts = input().split()\ntotal = int(parts[0]) + int(parts[1])\nprint(total)",
    "first, second = map(int, input().split())\nresult = first + second\nprint(result)",
]
LONG_CODE = "# " + " ".join(["pad"] * 1000)
SHORT_ECHO = "print(input())"
E_SOLUTIONS = [f"print({i})" for i in range(26)]


def write_apps_dirs() -> None:
    small = TEST_DATA / "apps_small"
    if small.exists():
        shutil.rmtree(small)
    for pid, (question, sols) in APPS_SMALL.items():
        d = small / pid
        d.mkdir(parents=True)
        (d / "question.txt").write_text(question, encoding="utf-8")
        (d / "solutions.json").write_text(json.dumps(sols), encoding="utf-8")

    archive = TEST_DATA / "apps_archive"
    if archive.exists():
        shutil.rmtree(archive)
    spec = {
        "a_dup1": ("Sum two integers.\n", A_SOLUTIONS, None),
        "b_special": ("Any answer accepted.\n", ["print(42)"], {"special_judge": True}),
        "c_long": ("Echo the line.\n", [LONG_CODE, SHORT_ECHO], None),
        "d_dup2": ("  Sum   two  integers. \n", D_SOLUTIONS, {"special_judge": False}),
        "e_many": ("Print your favourite number.\n", E_SOLUTIONS, None),
    }
    for pid, (question, sols, meta) in spec.items():
        d = archive / pid
        d.mkdir(parents=True)
        (d / "question.txt").write_text(question, encoding="utf-8")
        (d / "solutions.json").write_text(json.dumps(sols), encoding="utf-8")
        if meta is not None:
            (d / "metadata.json").write_text(json.dumps(meta), encoding="utf-8")


def write_codecontest_fixture() -> None:
    rows = [
        {
            "name": "cc1",
            "description": "Add two numbers.",
            "solutions": [
                {"language": "python3", "code": "print(sum(map(int, input().split())))", "correct": True},
                {"language": "python3", "code": "print(0)", "correct": False},
                {"language": "cpp", "code": "int main() { return 0; }", "correct": True},
            ],
        },
        {
            "name": "cc2",
            "description": "Echo the input.",
            "solutions": [
                {"language": "PYTHON", "code": "print(input())", "correct": True},
            ],
        },
    ]
    lines = [json.dumps(r, ensure_ascii=False, sort_keys=True) for r in rows]
    lines.insert(1, '{"description": "broken row with no name"}')
    (TEST_DATA / "codecontest_fixture.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_corpus_golden() -> None:
    """The expected preprocessed archive, composed from hand-tracked literals.

    Survival logic worked out by hand: b_special is removed (flag),
    c_long loses its oversized solution, d_dup2 merges into a_dup1
    (same whitespace-normalized description), e_many is capped at 25.
    """

    golden_problems = [
        {
            "description": "Sum two integers.\n",
            "problem_id": "a_dup1",
            "solutions": A_SOLUTIONS + D_SOLUTIONS,
            "special_judge": False,
        },
        {
            "description": "Echo the line.\n",
            "problem_id": "c_long",
            "solutions": [SHORT_ECHO],
            "special_judge": False,
        },
        {
            "description": "Print your favourite number.\n",
            "problem_id": "e_many",
            "solutions": E_SOLUTIONS[:25],
            "special_judge": False,
        },
    ]
    GOLDEN.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(p, ensure_ascii=False, sort_keys=True) for p in golden_problems]
    (GOLDEN / "corpus_golden.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ------------------------------------------------------------ golden run

def run_golden_pipeline() -> None:
    config = load_config(FIXTURES / "golden_config.json")
    workdir = Path(tempfile.mkdtemp(prefix="semiforge-golden-"))
    try:
        config.out_dir = str(workdir)
        stats = run_pipeline(config)
        assert stats is not None
        assert stats.counts() == EXPECTED_FUNNEL, f"funnel {stats.counts()} != {EXPECTED_FUNNEL}"
        assert stats.drop_reasons["generate"] == {
            "missing_section:Refined Code": 1,
            "unknown_answer_type": 1,
            "missing_function_name": 1,
        }, stats.drop_reasons["generate"]
        assert stats.drop_reasons["construct"] == {"empty_test_cases": 2}
        assert stats.drop_reasons["validate"] == {
            "wrong_output": 2,
            "runtime_error": 1,
            "timeout": 1,
        }, stats.drop_reasons["validate"]
        assert stats.drop_reasons["dedup"] == {"near_duplicate": 3}

        records = read_json_lines(workdir / "dataset.jsonl", lambda record: record)
        assert len(records) == EXPECTED_FUNNEL[-1]
        difficulties = [r["difficulty"] for r in records]
        assert difficulties == sorted(difficulties, reverse=True), difficulties
        assert difficulties.count(4) == 13 and difficulties.count(3) == 7 and difficulties.count(2) == 1
        # Stable ties: the first record is the earliest difficulty-4 unit.
        assert records[0]["provenance"]["seq"] == 0

        shutil.copy(workdir / "funnel.json", GOLDEN / "funnel_stats.json")
        shutil.copy(workdir / "dataset.jsonl", GOLDEN / "dataset.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_prompt_snapshot() -> None:
    prompt = build_generation_prompt("print(1)", PromptTemplate.default())
    (GOLDEN / "prompt_snapshot.txt").write_text(prompt, encoding="utf-8")


def main() -> None:
    check_completions()
    check_dedup_design()
    check_mutation_suite()

    FIXTURES.mkdir(parents=True, exist_ok=True)
    write_mini_corpus()
    write_mutation_suite()
    write_apps_dirs()
    write_codecontest_fixture()
    write_corpus_golden()
    write_prompt_snapshot()
    run_golden_pipeline()
    print("fixtures and goldens rebuilt")


if __name__ == "__main__":
    main()
