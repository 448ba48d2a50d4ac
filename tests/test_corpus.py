import json

import pytest
from hypothesis import given, strategies as st

from semiforge.corpus import (
    EmptyCorpus,
    InvalidCap,
    Problem,
    Solution,
    UnknownFormat,
    UnreadablePath,
    cap_solutions,
    filter_problems,
    load_corpus,
    merge_duplicate_problems,
    normalize_description,
)
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


def test_unknown_format_and_missing_path(tmp_path):
    with pytest.raises(UnknownFormat):
        load_corpus(TEST_DATA / "apps_small", "leetcode")
    with pytest.raises(UnreadablePath):
        load_corpus(tmp_path / "nope.jsonl", "generic")


def test_empty_corpus(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(EmptyCorpus):
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


def test_filter_byte_mode():
    problems = [make_problem("p", "task", ["abc def", "x" * 50])]
    kept = filter_problems(problems, max_tokens=10, token_mode="bytes")
    assert [s.code for s in kept[0].solutions] == ["abc def"]


def test_filter_unknown_token_mode():
    with pytest.raises(ValueError, match="unknown token mode: 'chars'"):
        filter_problems([make_problem("p", "task", ["print(1)"])], token_mode="chars")


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
    with pytest.raises(InvalidCap):
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
