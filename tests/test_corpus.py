import json

import pytest
from hypothesis import given, strategies as st

from semiforge.corpus import (
    Problem,
    Solution,
    cap_solutions,
    filter_problems,
    load_corpus,
    merge_duplicate_problems,
    normalize_description,
)
from semiforge.errors import SemiforgeError
from tests.conftest import TEST_DATA, problem_to_dict, write_corpus


def test_load_apps_directory():
    problems = load_corpus(TEST_DATA / "apps_small", "apps")
    assert [p.problem_id for p in problems] == ["p1", "p2", "p3"]
    assert [len(p.solutions) for p in problems] == [2, 1, 1]
    assert problems[0].source == "apps"
    assert problems[0].description.startswith("Double it.")


def test_load_codecontest_keeps_correct_python_only(caplog):
    problems = load_corpus(TEST_DATA / "codecontest_fixture.jsonl", "codecontest")
    assert [p.problem_id for p in problems] == ["cc1", "cc2"]
    assert len(problems[0].solutions) == 1
    assert "sum" in problems[0].solutions[0].code
    # "PYTHON" tag matches case-insensitively.
    assert len(problems[1].solutions) == 1


def test_load_generic_keeps_untagged_and_python_solutions(tmp_path):
    solutions = ["print(1)", {"code": "int main() {}", "language": "cpp"}, {"code": "print(2)", "language": " Python3"}]
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"problem_id": "p", "description": "d", "solutions": solutions}) + "\n", encoding="utf-8")
    assert [s.code for s in load_corpus(path, "generic")[0].solutions] == ["print(1)", "print(2)"]


def test_load_generic_jsonl():
    problems = load_corpus(TEST_DATA.parent.parent / "fixtures" / "mini_corpus" / "problems.jsonl", "generic")
    assert len(problems) == 30
    assert sum(len(p.solutions) for p in problems) == 33


@pytest.mark.parametrize("format", ["generic", "codecontest"])
def test_jsonl_rows_keep_unicode_line_separators(tmp_path, caplog, format):
    names = ("problem_id", "description") if format == "generic" else ("name", "description")
    rows = [
        {names[0]: "sep", names[1]: "Read\u2028two\u0085lines.", "solutions": []},
        "not an object",
        {names[0]: "next", names[1]: "Plain.", "solutions": []},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    problems = load_corpus(path, format)
    assert [p.problem_id for p in problems] == ["sep", "next"]
    assert problems[0].description == "Read\u2028two\u0085lines."
    assert "skipping line 2 of corpus.jsonl" in caplog.text


GOOD_ROWS = {
    "codecontest": {
        "name": "good", "description": "Echo.", "special_judge": False,
        "solutions": [{"code": "print(1)", "language": "python", "origin": "o", "correct": True}],
    },
    "generic": {
        "problem_id": "good", "description": "Echo.", "source": "s", "special_judge": False,
        "solutions": ["print(1)", {"code": "print(2)", "language": "python", "origin": "o"}],
    },
}
# The JSON kinds each key of a JSON-lines row takes; "solution." marks a solution object's keys.
KEY_KINDS = {
    "codecontest": {
        "name": {"string", "integer"}, "description": {"string"}, "special_judge": {"true"}, "solutions": {"array"},
        "solution.code": {"string"}, "solution.language": {"string"}, "solution.origin": {"string"},
        "solution.correct": {"true"},
    },
    "generic": {
        "problem_id": {"string", "integer"}, "description": {"string"}, "source": {"string"},
        "special_judge": {"true"}, "solutions": {"array"},
        "solution.code": {"string"}, "solution.language": {"string"}, "solution.origin": {"string"},
    },
}
# A value of each JSON kind.
SAMPLES = {"string": "no", "integer": 5, "number": 0.5, "true": True, "null": None, "array": [], "object": {}}


def bad_row(format, key, value):
    row = GOOD_ROWS[format]
    if key.startswith("solution."):
        return {**row, "solutions": [{**row["solutions"][-1], key.split(".")[1]: value}]}
    return {**row, key: value}


def jsonl_case(format, bad, warning, loaded=("good",), id=None):
    line = bad if isinstance(bad, bytes) else json.dumps(bad).encode()
    files = {"corpus.jsonl": line + b"\n" + json.dumps(GOOD_ROWS[format]).encode() + b"\n"}
    warning = warning and f"skipping line 1 of corpus.jsonl: {warning}"
    return pytest.param(format, files, warning, list(loaded), id=id)


GOOD_APPS = {"question.txt": b"Echo.", "solutions.json": b'["print(1)"]', "metadata.json": b'{"special_judge": false}'}


def apps_case(name, data, warning, id):
    problems = {"good": GOOD_APPS, "bad": {**GOOD_APPS, name: data}}
    files = {f"{problem}/{file}": content for problem, contents in problems.items() for file, content in contents.items()}
    return pytest.param("apps", files, f"skipping bad: {warning}", ["good"], id=id)


KIND_CASES = [
    jsonl_case(format, bad_row(format, key, value), f"{key.split('.')[-1]} must be ",
               id=f"{format}-{key}-{kind}")
    for format, kinds in KEY_KINDS.items()
    for key, right in kinds.items()
    for kind, value in SAMPLES.items()
    if kind not in right
] + [
    jsonl_case("codecontest", {**GOOD_ROWS["codecontest"], "solutions": ["print(1)"]}, "solutions[0] must be an object",
               id="codecontest-solution-string"),
    jsonl_case("generic", {**GOOD_ROWS["generic"], "solutions": [5]}, "solutions[0] must be a string or an object",
               id="generic-solution-integer"),
    jsonl_case("generic", {**GOOD_ROWS["generic"], "problem_id": 7}, None, loaded=("7", "good"), id="generic-problem_id-7-loads"),
    jsonl_case("generic", b'{"problem_id": "caf\xe9", "description": "x", "solutions": []}', "'utf-8' codec can't decode",
               id="generic-non-utf-8-line"),
    jsonl_case("codecontest", b'{"name": "caf\xe9", "description": "x"}', "'utf-8' codec can't decode",
               id="codecontest-non-utf-8-line"),
    apps_case("metadata.json", b'{"special_judge": "no"}', "special_judge must be true or false, got 'no'",
              id="apps-special_judge-string"),
    apps_case("metadata.json", b"[]", "metadata.json must be an object, got []", id="apps-metadata-list"),
    apps_case("solutions.json", b"[1, 2]", "solutions.json[0] must be a string, got 1", id="apps-solutions-numbers"),
    apps_case("question.txt", b"caf\xe9", "'utf-8' codec can't decode", id="apps-question-non-utf-8"),
    apps_case("metadata.json", b"{", "Expecting property name", id="apps-metadata-not-json"),
]


@pytest.mark.parametrize("format, files, warning, loaded", KIND_CASES)
def test_a_value_of_the_wrong_kind_skips_its_row(tmp_path, caplog, format, files, warning, loaded):
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    path = tmp_path / "corpus.jsonl" if format != "apps" else tmp_path
    assert [p.problem_id for p in load_corpus(path, format)] == loaded
    if warning is None:
        assert "skipping" not in caplog.text
    else:
        assert warning in caplog.text


def test_unknown_format_and_missing_path(tmp_path):
    with pytest.raises(SemiforgeError, match="unknown corpus format: 'leetcode'"):
        load_corpus(TEST_DATA / "apps_small", "leetcode")
    with pytest.raises(SemiforgeError, match="no such path"):
        load_corpus(tmp_path / "nope.jsonl", "generic")


def test_empty_corpus(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(SemiforgeError, match="no problems parsed from"):
        load_corpus(empty, "generic")


def make_problem(pid, description, codes, special=False):
    return Problem(
        problem_id=pid,
        description=description,
        source="test",
        solutions=tuple(Solution.from_code(c) for c in codes),
        special_judge=special,
    )


def test_filter_drops_special_judge_and_long_solutions():
    problems = [
        make_problem("keep", "a task", ["print(1)", "x = 1 " * 600]),
        make_problem("judge", "another", ["print(2)"], special=True),
        make_problem("empty", "third", ["y = 2 " * 600]),
    ]
    kept = filter_problems(problems, max_tokens=1000)
    assert [p.problem_id for p in kept] == ["keep"]
    assert [s.code for s in kept[0].solutions] == ["print(1)"]


def test_normalize_description_collapses_whitespace():
    assert normalize_description("  Sum \t two\n integers. ") == "Sum two integers."


def test_merge_by_normalized_description():
    problems = [
        make_problem("first", "Sum two integers.\n", ["a"]),
        make_problem("other", "  Sum   two  integers. ", ["b", "c"]),
        make_problem("third", "Different text.", ["d"]),
    ]
    merged = merge_duplicate_problems(problems)
    assert [p.problem_id for p in merged] == ["first", "third"]
    assert [s.code for s in merged[0].solutions] == ["a", "b", "c"]
    # First occurrence keeps its own description verbatim.
    assert merged[0].description == "Sum two integers.\n"


def test_merge_skips_a_problem_whose_id_is_taken(tmp_path, caplog):
    rows = [
        {"problem_id": "p1", "description": "Sum two integers.", "solutions": ["a"]},
        {"problem_id": "p1", "description": "Echo the input.", "solutions": ["b"]},
        {"problem_id": "p2", "description": "Sum  two integers. ", "solutions": ["c"]},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    merged = merge_duplicate_problems(load_corpus(path, "generic"))
    assert [(p.problem_id, [s.code for s in p.solutions]) for p in merged] == [("p1", ["a", "c"])]
    assert "skipping problem p1: an earlier problem has that id" in caplog.text


descriptions = st.lists(
    st.sampled_from(["alpha", "beta ", " beta", "gamma", "alpha "]), min_size=1, max_size=8
)


@given(descriptions)
def test_merge_idempotent(texts):
    problems = [make_problem(f"p{i}", text, [f"code{i}"]) for i, text in enumerate(texts)]
    once = merge_duplicate_problems(problems)
    twice = merge_duplicate_problems(once)
    assert [problem_to_dict(p) for p in once] == [problem_to_dict(p) for p in twice]


def test_cap_solutions():
    problem = make_problem("p", "task", [f"print({i})" for i in range(26)])
    capped = cap_solutions([problem], cap=25)
    assert len(capped[0].solutions) == 25
    assert capped[0].solutions[0].code == "print(0)"
    with pytest.raises(ValueError, match="solution_cap must be >= 1, got 0"):
        cap_solutions([problem], cap=0)


def test_round_trip_serialization(tmp_path):
    problems = [make_problem("p1", "desc", ["print(1)"], special=True)]
    path = tmp_path / "corpus.jsonl"
    write_corpus(problems, path)
    back = load_corpus(path, "generic")
    assert [problem_to_dict(p) for p in back] == [problem_to_dict(p) for p in problems]
    assert back[0].special_judge is True


def test_solution_token_count():
    assert Solution.from_code("a = 1\nb = 2").token_count == 6
    assert Solution.from_code("print(1)").token_count == 1
