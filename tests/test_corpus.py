import json
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from semiforge.corpus import (
    Problem,
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
    assert problems[0].solutions == ("print(int(input())*2)", "n=int(input());print(n+n)")
    assert problems[0].description.startswith("Double it.")


def test_load_corpus_needs_a_directory_for_apps_and_a_file_for_generic(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus([Problem("p", "Echo.", ("print(input())",))], path)
    with pytest.raises(SemiforgeError, match="^apps format expects a directory, got "):
        load_corpus(path, "apps")
    with pytest.raises(SemiforgeError, match="^generic format expects a .jsonl file, got "):
        load_corpus(tmp_path, "generic")


def test_load_codecontest_keeps_correct_python_only(caplog):
    problems = load_corpus(TEST_DATA / "codecontest_fixture.jsonl", "codecontest")
    assert [p.problem_id for p in problems] == ["cc1", "cc2"]
    assert len(problems[0].solutions) == 1
    assert "sum" in problems[0].solutions[0]
    # "PYTHON" tag matches case-insensitively.
    assert len(problems[1].solutions) == 1


def test_load_generic_keeps_untagged_and_python_solutions(tmp_path):
    solutions = ["print(1)", {"code": "int main() {}", "language": "cpp"}, {"code": "print(2)", "language": " Python3"}]
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"problem_id": "p", "description": "d", "solutions": solutions}) + "\n", encoding="utf-8")
    assert load_corpus(path, "generic")[0].solutions == ("print(1)", "print(2)")


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
    # A JSON escape of a lone surrogate decodes to a str that cannot be written as UTF-8.
    jsonl_case("generic", {**GOOD_ROWS["generic"], "solutions": ["print('\ud800')"]},
               "'utf-8' codec can't encode character '\\ud800'", id="generic-surrogate-code"),
    jsonl_case("generic", {**GOOD_ROWS["generic"], "problem_id": "p\udc80"},
               "'utf-8' codec can't encode character '\\udc80'", id="generic-surrogate-problem_id"),
    jsonl_case("codecontest", bad_row("codecontest", "solution.code", "print('\ud800')"),
               "'utf-8' codec can't encode character '\\ud800'", id="codecontest-surrogate-code"),
    jsonl_case("codecontest", {**GOOD_ROWS["codecontest"], "solutions": [{"code": "\ud800", "language": "c"}]}, None,
               loaded=("good", "good"), id="codecontest-surrogate-in-dropped-solution-loads"),
    # A JSON error position counts within the line, not past its newline.
    jsonl_case("generic", b'{"problem_id":', "Expecting value: line 1 column 15 (char 14)", id="generic-cut-line"),
    apps_case("metadata.json", b'{"special_judge": "no"}', "special_judge must be true or false, got 'no'",
              id="apps-special_judge-string"),
    apps_case("metadata.json", b"[]", "metadata.json must be an object, got []", id="apps-metadata-list"),
    apps_case("solutions.json", b"[1, 2]", "solutions.json[0] must be a string, got 1", id="apps-solutions-numbers"),
    apps_case("solutions.json", b'["print(\'\\ud800\')"]', "'utf-8' codec can't encode character '\\ud800'",
              id="apps-solutions-surrogate"),
    apps_case("question.txt", b"caf\xe9", "'utf-8' codec can't decode", id="apps-question-non-utf-8"),
    # A directory name that is not UTF-8 reads with a lone surrogate, and would be the problem's id.
    pytest.param("apps", {f"{problem}/{file}": data for problem in ("bad\udcff", "good") for file, data in GOOD_APPS.items()},
                 "skipping bad\udcff: 'utf-8' codec can't encode character '\\udcff'", ["good"],
                 id="apps-surrogate-directory"),
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


def test_jsonl_loader_holds_one_line_at_a_time(tmp_path):
    path = tmp_path / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(10_000):
            fh.write(json.dumps({"problem_id": f"p{i}", "description": "d" * 200, "solutions": ["print(1)"]}) + "\n")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        problems = load_corpus(path, "generic")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(problems) == 10_000
    assert peak - retained < size / 2, (peak - retained, size)


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
        solutions=tuple(codes),
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
    assert kept[0].solutions == ("print(1)",)


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
    assert merged[0].solutions == ("a", "b", "c")
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
    assert [(p.problem_id, p.solutions) for p in merged] == [("p1", ("a", "c"))]
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
    assert capped[0].solutions[0] == "print(0)"
    with pytest.raises(ValueError, match="solution_cap must be >= 1, got 0"):
        cap_solutions([problem], cap=0)


def test_round_trip_serialization(tmp_path):
    problems = [make_problem("p1", "desc", ["print(1)"], special=True)]
    path = tmp_path / "corpus.jsonl"
    write_corpus(problems, path)
    back = load_corpus(path, "generic")
    assert [problem_to_dict(p) for p in back] == [problem_to_dict(p) for p in problems]
    assert back[0].special_judge is True


def test_filter_keeps_solutions_of_at_most_max_tokens():
    # Tokens are whitespace-separated: a space, a tab and a newline each split.
    problems = [make_problem("p", "task", ["a b\tc\nd", "a b\tc\n"])]
    assert filter_problems(problems, max_tokens=3)[0].solutions == ("a b\tc\n",)
