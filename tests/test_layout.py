"""Layout rules that keep one decision in one module."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from semiforge.pipeline import PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semiforge"


def opens_for_writing(call: ast.Call) -> bool:
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(path, mode), io.open(path, mode) or Path.open(mode): any string
    # argument made of mode letters only is the mode.
    strings = [a.value for a in call.args + [k.value for k in call.keywords] if isinstance(a, ast.Constant)]
    return any(isinstance(s, str) and re.fullmatch("[rwxabt+]+", s) and set("wxa+") & set(s) for s in strings)


def writing_functions(node: ast.AST, function: str | None = None):
    """Yield the enclosing function of every call under ``node`` that opens a file for writing."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and opens_for_writing(child):
            yield function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from writing_functions(child, inner)


def test_only_dataset_writes_files():
    found = sorted(
        (path.name, function)
        for path in PACKAGE.glob("*.py")
        if path.name != "dataset.py"
        for function in writing_functions(ast.parse(path.read_text(encoding="utf-8")))
    )
    # executor.execute stages snippet.py and the std stream files in the sandbox's temp dir.
    assert found == [("executor.py", "execute")]


@pytest.mark.parametrize(
    "expr, writes",
    [
        ('open(p, "w")', True),
        ('open(p, mode="a")', True),
        ('p.open("x")', True),
        ('open(p, "r+b")', True),
        ('p.write_text("")', True),
        ('p.write_bytes(b"")', True),
        ("open(p)", False),
        ('open("index.txt")', False),
        ('open(p, "r", encoding="utf-8")', False),
        ('open(p, "rb")', False),
        ('p.read_text(encoding="utf-8")', False),
    ],
)
def test_the_scan_sees_every_write_form(expr, writes):
    assert opens_for_writing(ast.parse(expr, mode="eval").body) is writes


def test_readme_configuration_table_lists_every_config_field():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `(\w+)` ", section, re.MULTILINE)
    assert keys == [field.name for field in fields(PipelineConfig)]
