"""Layout rules that keep one decision in one module."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from semiforge.corpus import CORPUS_FIELDS
from semiforge.curriculum import STRATEGIES
from semiforge.dataset import describe_kind
from semiforge.errors import SemiforgeError
from semiforge.pipeline import UNIT_FIELDS, PipelineConfig

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


def calling_functions(node: ast.AST, matches, function: str | None = None):
    """Yield the enclosing function of every call under ``node`` that ``matches``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and matches(child):
            yield function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from calling_functions(child, matches, inner)


def package_calls(matches, paths=None) -> list[tuple[str, str | None]]:
    """(file name, enclosing function) of every call that ``matches`` in ``paths``, by default the package's modules."""
    return sorted(
        (path.name, function)
        for path in paths or PACKAGE.glob("*.py")
        for function in calling_functions(ast.parse(path.read_text(encoding="utf-8")), matches)
    )


def test_only_dataset_writes_files():
    found = [(name, function) for name, function in package_calls(opens_for_writing) if name != "dataset.py"]
    # executor.execute stages snippet.py and stdin.txt in the sandbox's temp dir, and creates
    # stdout.txt and stderr.txt with the descriptors it reads them through.
    assert found == [("executor.py", "execute")] * 2


def test_no_module_calls_splitlines():
    """A line ends at ``\\n`` only; ``str.splitlines()`` also breaks at a lone ``\\r``, ``\\f``, U+2028 and more.

    The fixture builder reads the dataset it writes, so it is held to the rule too.
    """
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    assert package_calls(lambda call: getattr(call.func, "attr", None) == "splitlines", paths) == []


def decorator_names(node: ast.ClassDef) -> set[str]:
    """The names of a class's decorators: ``dataclass`` for ``@dataclass`` or ``@dataclasses.dataclass(...)``."""
    called = (getattr(decorator, "func", decorator) for decorator in node.decorator_list)
    return {getattr(name, "id", getattr(name, "attr", None)) for name in called}


def test_only_pipeline_config_is_a_dataclass():
    """A record is a NamedTuple: a dataclass builds and execs its methods' source at every import.

    PipelineConfig stays one: it is changed in place, and read through ``asdict``, ``fields`` and ``replace``.
    """
    found = sorted(
        (path.name, node.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and "dataclass" in decorator_names(node)
    )
    assert found == [("pipeline.py", "PipelineConfig")]


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


def readme_section(heading: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_configuration_table_lists_every_config_field():
    section = readme_section("Configuration")
    keys = re.findall(r"^\| `(\w+)` ", section, re.MULTILINE)
    assert keys == [field.name for field in fields(PipelineConfig)]


def test_readme_configuration_table_gives_every_default():
    section = readme_section("Configuration")
    cells = dict(re.findall(r"^\| `(\w+)` +\| (.*?) +\|", section, re.MULTILINE))
    words = {"built-in": None, "current Python": None, "none": None}
    listed = {key: json.loads(cell[1:-1]) if cell.startswith("`") else words[cell] for key, cell in cells.items()}
    assert listed == PipelineConfig().to_dict()


def test_readme_unit_row_table_lists_unit_fields():
    section = readme_section("Output files")
    rows = re.findall(r"^ *\| (\w+) +\| (.*?) *\| (.*?) *\|$", section, re.MULTILINE)
    assert list(dict.fromkeys(stage for stage, _, _ in rows[1:])) == list(UNIT_FIELDS)
    listed = [(stage, field.strip("`"), kind) for stage, field, kind in rows if field.startswith("`")]
    assert listed == [
        (stage, field, describe_kind(kind)) for stage, kinds in UNIT_FIELDS.items() for field, kind in kinds.items()
    ]



def test_readme_corpus_formats_give_every_key_its_kind():
    section = readme_section("Corpus formats")
    bullets = dict(re.findall(r"^- \*\*(\w+)\*\*: (.*?)(?=^- |\Z)", section, re.MULTILINE | re.DOTALL))
    assert list(bullets) == list(CORPUS_FIELDS)
    for format, (outer, inner) in CORPUS_FIELDS.items():
        text = " ".join(bullets[format].split())
        for key, kind in {**outer, **inner}.items():
            assert f"`{key}` ({describe_kind(kind)})" in text, (format, key)


def run_fresh(*lines: str) -> str:
    """Run ``lines`` as a program in a fresh interpreter that imports semiforge from ``src``; return its stdout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout


RECORDS = '[{"difficulty": 1, "source": "semi", "provenance": {"problem_id": "p", "seq": 0}}] * 3'


@pytest.mark.parametrize(
    "call, printed",
    [("pass", [])] + [(f"print(len(order_records({RECORDS}, {kind!r}, seed=1)))", ["3"]) for kind in STRATEGIES],
    ids=["import", *STRATEGIES],
)
def test_numpy_is_loaded_only_by_the_shuffles(call, printed):
    """No call loads numpy: the shuffles, which once did, compute numpy's permutations themselves.

    Each case runs in an interpreter where any import of numpy raises
    ImportError, so a strategy that still needed numpy would fail here.
    ``urllib.request`` is imported only when a live completion is asked for.
    """
    out = run_fresh(
        "import sys",
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError",
        "import semiforge.cli",
        "from semiforge.curriculum import order_records",
        call,
        "print('urllib.request' in sys.modules)",
    )
    assert out.split() == printed + ["False"]


def imported_packages(path: Path) -> set[str]:
    """The top-level names of the absolute imports in ``path``, those inside functions included."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported


def test_declared_dependencies_are_the_imported_packages():
    imported = set().union(*map(imported_packages, PACKAGE.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"semiforge"}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.MULTILINE | re.DOTALL).group(1)
    declared = {name.lower().replace("-", "_") for name in re.findall(r'"([A-Za-z0-9_.-]+)', listed)}
    assert third_party == declared


def test_only_live_imports_the_network_stack():
    network = {"urllib", "http", "ssl", "socket"}
    assert sorted(path.name for path in PACKAGE.glob("*.py") if imported_packages(path) & network) == ["live.py"]


def test_import_semiforge_loads_no_module_of_the_package():
    out = run_fresh("import sys, semiforge", "print(sorted(m for m in sys.modules if m.startswith('semiforge.')))")
    assert out.strip() == "[]"


def test_generation_does_not_load_the_sandbox():
    """Building prompts and parsing completions needs neither the executor nor ``subprocess``."""
    out = run_fresh("import sys, semiforge.generation", "print('semiforge.executor' in sys.modules, 'subprocess' in sys.modules)")
    assert out.split() == ["False", "False"]


def test_generation_loads_no_live_client_logging_or_dataset():
    """Prompts, replays and parsing use none of them; ``dataset`` is loaded only to store a live answer."""
    out = run_fresh(
        "import sys, semiforge.generation",
        "print(*(name in sys.modules for name in ('logging', 'semiforge.dataset', 'semiforge.live', 'dataclasses', "
        "'inspect')))",
    )
    assert out.split() == ["False"] * 5


@pytest.mark.parametrize("module", ["metrics", "validation"])
def test_the_sandbox_layer_does_not_load_generation(module):
    """Scoring programs never reads a completion, so it loads neither ``generation`` nor ``hashlib`` (OpenSSL)."""
    out = run_fresh(f"import sys, semiforge.{module}", "print('semiforge.generation' in sys.modules, 'hashlib' in sys.modules)")
    assert out.split() == ["False", "False"]


@pytest.mark.parametrize("module", ["metrics", "validation", "executor"])
def test_the_sandbox_layer_loads_no_thread_pool_and_no_dataset(module):
    """Scoring starts cold: no ``concurrent.futures`` (and ``logging``) for a pass's threads, no ``dataset`` for a case.

    Nor ``dataclasses`` (and ``inspect``): a record is a NamedTuple, whose methods are not generated at import.
    """
    out = run_fresh(
        f"import sys, semiforge.{module}",
        "print(*(name in sys.modules for name in ('concurrent.futures', 'logging', 'semiforge.dataset', 'dataclasses', "
        "'inspect')))",
    )
    assert out.split() == ["False"] * 5


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("[!_]*.py")))
def test_each_module_imports_on_its_own(module):
    """An import cycle fails only for the module imported first, so import each one first."""
    run_fresh(f"import semiforge.{module}")


def caught_names(tree: ast.AST) -> set[str]:
    """The names of the classes the ``except`` clauses under ``tree`` catch."""
    handled = (node.type for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type)
    return {
        getattr(name, "id", getattr(name, "attr", None))
        for handled_type in handled
        for name in (handled_type.elts if isinstance(handled_type, ast.Tuple) else [handled_type])
    }


def test_every_error_class_is_caught_by_name_or_is_a_builtin_error():
    # A class that no except names is a SemiforgeError with a longer name; one that is
    # also a built-in exception, say a ValueError, lets callers catch it as that.
    modules = [importlib.import_module(f"semiforge.{path.stem}") for path in PACKAGE.glob("[!_]*.py")]
    caught = set().union(*(caught_names(ast.parse(Path(m.__file__).read_text(encoding="utf-8"))) for m in modules))
    uncaught = sorted(
        cls.__name__
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, SemiforgeError) and cls.__module__ == module.__name__
        and cls.__name__ not in caught
        and not any(base.__module__ == "builtins" for base in cls.__mro__ if base not in (Exception, BaseException, object))
    )
    assert uncaught == []
