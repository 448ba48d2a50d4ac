import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from semiforge import executor
from semiforge.executor import (
    Invocation,
    ResourceLimits,
    SandboxSetupFailure,
    execute,
    map_workers,
    normalize_output,
    outputs_match,
    resolve_interpreter,
    sandbox,
)
from semiforge.metrics import EvalProblem, evaluate_candidates
from semiforge.pipeline import PipelineConfig, run_pipeline
from semiforge.validation import TestCase as Case

FAST = ResourceLimits(wall_timeout=5.0)


def test_stdin_round_trip():
    result = execute("print(int(input()) * 2)", Invocation.stdin("21"), FAST)
    assert result.status == "ok"
    assert result.ok
    assert normalize_output(result.stdout) == "42"
    assert result.returncode == 0


def test_multi_line_stdin():
    code = "n = int(input())\nprint(sum(int(input()) for _ in range(n)))"
    result = execute(code, Invocation.stdin("3\n1\n2\n3"), FAST)
    assert result.ok
    assert normalize_output(result.stdout) == "6"


def test_call_based_tuple_args():
    code = "def add(a, b):\n    return a + b"
    result = execute(code, Invocation.call("add", "(2, 3)"), FAST)
    assert result.ok
    assert normalize_output(result.stdout) == "5"


def test_call_based_single_arg():
    code = "def shout(text):\n    return text.upper()"
    result = execute(code, Invocation.call("shout", "'hi'"), FAST)
    assert result.ok
    assert normalize_output(result.stdout) == "'HI'"  # repr of the return value


def test_call_based_none_prints_nothing():
    code = "def quiet(x):\n    pass"
    result = execute(code, Invocation.call("quiet", "(1,)"), FAST)
    assert result.ok
    assert normalize_output(result.stdout) == ""


_VERBATIM = 'def f(x):\n    return open(__file__).read() + x  # {{function_name}}{{args_literal}}{{user_code}}'


@pytest.mark.parametrize(
    "code, name, args, expected",
    [
        ("import ast\ndef f(text):\n    return ast.literal_eval(text)[0] + 1", "f", "'[1]'", "2"),
        ("def _ast(x):\n    return x + 1", "_ast", "1", "2"),
        ("def ast(x):\n    return x + 1", "ast", "1", "2"),
        ("def _args(x):\n    return x + 1", "_args", "1", "2"),
        ("_args = 5\ndef f(x):\n    return x + _args", "f", "1", "6"),
        ("_result = 5\ndef f(x):\n    return x + _result", "f", "1", "6"),
        (_VERBATIM, "f", "'{{user_code}}'", repr(_VERBATIM + "{{user_code}}")),
        ("", "len", "'ab'", "2"),
    ],
    ids=[
        "import-ast", "def-_ast", "def-ast", "def-_args",
        "global-_args", "global-_result", "placeholders", "builtin-len",
    ],
)
def test_call_does_not_shadow_user_names(code, name, args, expected):
    # The child makes the call itself: snippet.py is exactly the code under
    # test, no name is bound in its namespace, and the function is looked
    # up in its globals, then in the builtins.
    result = execute(code, Invocation.call(name, args), FAST)
    assert result.ok, result.stderr
    assert normalize_output(result.stdout) == expected


def test_runtime_error_captured():
    result = execute("raise ValueError('boom')", Invocation.stdin(""), FAST)
    assert result.status == "runtime_error"
    assert not result.ok
    assert result.returncode != 0
    assert "boom" in result.stderr


def test_timeout_kills_spin_loop():
    started = time.monotonic()
    result = execute("while True:\n    pass", Invocation.stdin(""), ResourceLimits(wall_timeout=1.0))
    elapsed = time.monotonic() - started
    assert result.status == "timeout"
    assert elapsed <= 2.0
    assert result.duration <= 2.0


def test_output_overflow_detected():
    code = "print('x' * 2_000_000)"
    result = execute(code, Invocation.stdin(""), ResourceLimits(output_bytes=10_000))
    assert result.status == "output_overflow"
    assert result.stdout == ""


def test_stderr_past_the_cap_is_a_runtime_error():
    # The file-size rlimit caps stderr too; CPython ignores SIGXFSZ, so the write raises EFBIG.
    code = "import sys\nprint('ok')\nsys.stderr.write('e' * 2 * 1024 * 1024)"
    result = execute(code, Invocation.stdin(""), FAST)
    assert (result.status, result.returncode, result.stdout) == ("runtime_error", 1, "ok\n")
    assert len(result.stderr) == FAST.output_bytes == 1024 * 1024


def test_a_file_of_the_runs_own_past_the_cap_is_a_runtime_error():
    result = execute("open('big.bin', 'wb').write(b'x' * 2 * 1024 * 1024)", Invocation.stdin(""), FAST)
    assert result.status == "runtime_error"
    assert "OSError: [Errno 27] File too large" in result.stderr


TAMPER_PRELUDE = "import os, sys\nprint('kept')\nprint('noted', file=sys.stderr)\nsys.stdout.flush()\n"


@pytest.mark.parametrize(
    "tamper",
    [
        "os.remove('stdout.txt')",
        "os.remove('stdout.txt')\nos.mkdir('stdout.txt')",
        "os.remove('stderr.txt')\nos.mkdir('stderr.txt')",
    ],
    ids=["stdout-removed", "stdout-directory", "stderr-directory"],
)
def test_parent_reads_output_the_snippet_removed_or_replaced(tamper):
    result = execute(TAMPER_PRELUDE + tamper, Invocation.stdin(""), FAST)
    assert result.ok, result.stderr
    assert normalize_output(result.stdout) == "kept"
    assert normalize_output(result.stderr) == "noted"


def test_fifo_in_place_of_stderr_does_not_block_the_parent():
    # Opening a FIFO by name blocks until a writer comes, so the run is made
    # in a fresh interpreter: a hang there fails the test instead of hanging pytest.
    code = TAMPER_PRELUDE + "os.remove('stderr.txt')\nos.mkfifo('stderr.txt')"
    parent = (
        "import sys\n"
        "from semiforge.executor import Invocation, execute, normalize_output\n"
        "result = execute(sys.argv[1], Invocation.stdin(''))\n"
        "print(result.ok, normalize_output(result.stdout), normalize_output(result.stderr))"
    )
    src = os.path.dirname(os.path.dirname(executor.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-c", parent, code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=20,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("the parent blocked on the FIFO")
    assert done.stdout == "True kept noted\n", done.stderr


def test_memory_limit_enforced():
    code = "data = bytearray(1024 * 1024 * 1024)\nprint(len(data))"
    result = execute(code, Invocation.stdin(""), ResourceLimits(memory_bytes=256 * 1024 * 1024))
    assert result.status == "runtime_error"


def test_deterministic_runs_identical():
    code = "print(sorted([3, 1, 2]))"
    first = execute(code, Invocation.stdin(""), FAST)
    second = execute(code, Invocation.stdin(""), FAST)
    assert first.status == second.status
    assert normalize_output(first.stdout) == normalize_output(second.stdout)


def test_workdir_removed_after_run():
    result = execute("import os\nprint(os.getcwd())", Invocation.stdin(""), FAST)
    assert result.ok
    workdir = normalize_output(result.stdout)
    assert not os.path.exists(workdir)


def test_child_env_has_no_credentials(monkeypatch):
    monkeypatch.setenv("SEMIFORGE_API_KEY", "sk-secret")
    code = "import os\nprint(os.environ.get('SEMIFORGE_API_KEY'))"
    result = execute(code, Invocation.stdin(""), FAST)
    assert result.ok
    assert normalize_output(result.stdout) == "None"


def test_child_runs_isolated_without_site():
    code = (
        "import sys\n"
        "f = sys.flags\n"
        "print(f.isolated, f.no_site, f.dont_write_bytecode, f.utf8_mode)"
    )
    result = execute(code, Invocation.stdin(""), FAST)
    assert result.ok
    assert normalize_output(result.stdout) == "1 1 1 1"


def test_non_ascii_stdin_stdout_round_trip():
    result = execute("print(input() + ' ✓')", Invocation.stdin("ünï"), FAST)
    assert result.ok
    assert normalize_output(result.stdout) == "ünï ✓"


def test_site_packages_hidden_from_snippets():
    # pytest is installed wherever this runs, so only a hidden site-packages fails the import.
    result = execute("import pytest", Invocation.stdin(""), FAST)
    assert result.status == "runtime_error"
    assert "ModuleNotFoundError" in result.stderr


def test_exit_and_quit_builtins_end_the_run():
    result = execute("print(1)\nexit()", Invocation.stdin(""), FAST)
    assert result.ok
    assert normalize_output(result.stdout) == "1"
    result = execute("print(2)\nquit()\nprint(3)", Invocation.stdin(""), FAST)
    assert result.ok
    assert normalize_output(result.stdout) == "2"
    result = execute("exit(3)", Invocation.stdin(""), FAST)
    assert result.status == "runtime_error"
    assert result.returncode == 3


def test_snippet_runs_as_a_plain_main_script():
    code = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "names = sorted(k for k in globals() if not k.startswith('__'))\n"
        "print(__name__, os.path.basename(__file__), sys.argv == [__file__], names)"
    )
    result = execute(code, Invocation.stdin(""), FAST)
    assert result.ok, result.stderr
    assert normalize_output(result.stdout) == "__main__ snippet.py True ['annotations', 'os', 'sys']"


def test_missing_pidfd_open_is_a_setup_failure(monkeypatch):
    monkeypatch.delattr(os, "pidfd_open")
    with pytest.raises(SandboxSetupFailure):
        execute("print(1)", Invocation.stdin(""), FAST)


def _proc_stat(pid: int) -> list[str] | None:
    """The fields of /proc/<pid>/stat after the command name, from the state on."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()


def _proc_state(pid: int) -> str | None:
    stat = _proc_stat(pid)
    return stat and stat[0]


def test_forked_background_child_does_not_outlive_run():
    code = (
        "import os, time\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    time.sleep(20)\n"
        "    os._exit(0)\n"
        "print(pid)"
    )
    result = execute(code, Invocation.stdin(""), FAST)
    assert result.ok
    pid = int(normalize_output(result.stdout))
    # SIGKILL is delivered asynchronously; allow the scheduler a moment.
    deadline = time.monotonic() + 2.0
    while _proc_state(pid) not in (None, "Z", "X") and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _proc_state(pid) in (None, "Z", "X")


def _live_children() -> set[int]:
    """Pids whose parent is this process, zombies included."""
    me = str(os.getpid())
    children = set()
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            children.add(int(entry))
    return children


def test_snippet_sees_only_fds_0_to_2():
    code = (
        "import os\n"
        "open_fds = []\n"
        "for fd in range(64):\n"
        "    try:\n"
        "        os.fstat(fd)\n"
        "    except OSError:\n"
        "        continue\n"
        "    open_fds.append(fd)\n"
        "print(open_fds)"
    )
    with sandbox() as server:
        result = execute(code, Invocation.stdin(""), FAST, server)
    assert result.ok, result.stderr
    assert normalize_output(result.stdout) == "[0, 1, 2]"


def test_str_hash_is_shared_within_a_block_only():
    code = "print(hash('semiforge'))"
    blocks = []
    for _ in range(2):
        with sandbox() as server:
            blocks.append([execute(code, Invocation.stdin(""), FAST, server).stdout for _ in range(2)])
    assert blocks[0][0] == blocks[0][1]
    assert blocks[1][0] == blocks[1][1]
    assert blocks[0][0] != blocks[1][0]


def test_blocks_open_at_once_fork_from_servers_of_their_own():
    def run(server):
        return execute("print(hash('semiforge'))", Invocation.stdin(""), FAST, server).stdout

    with sandbox() as a, sandbox() as b:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(run, server) for server in (a, b, a, b)]
            on_workers = [future.result(timeout=30) for future in runs]
        # A server gives the same hash on every thread, and each block a hash of its own.
        assert on_workers[0] == on_workers[2] == run(a)
        assert on_workers[1] == on_workers[3] == run(b)
        assert on_workers[0] != on_workers[1]


def test_random_is_seeded_per_run():
    code = "import random\nprint(random.random())"
    with sandbox() as server:
        first = execute(code, Invocation.stdin(""), FAST, server)
        second = execute(code, Invocation.stdin(""), FAST, server)
    assert first.ok and second.ok
    assert first.stdout != second.stdout


def test_server_preloads_ast_and_no_per_process_state():
    # threading would make every run join threads it never started, and
    # random would share one PRNG state across the runs of a block.
    code = 'import sys\nprint([m for m in ("ast", "random", "threading") if m in sys.modules])'
    with sandbox() as server:
        result = execute(code, Invocation.stdin(""), FAST, server)
    assert result.ok, result.stderr
    assert normalize_output(result.stdout) == "['ast']"


def test_non_daemon_thread_output_is_captured():
    code = (
        "import threading, time\n"
        "def late():\n"
        "    time.sleep(0.2)\n"
        "    print('late')\n"
        "threading.Thread(target=late).start()\n"
        "print('main')"
    )
    result = execute(code, Invocation.stdin(""), FAST)
    assert result.ok, result.stderr
    assert normalize_output(result.stdout) == "main\nlate"


def test_no_child_process_outlives_a_call(golden_run, golden_run_copy):
    before = _live_children()
    assert execute("print(1)", Invocation.stdin(""), FAST).ok
    assert _live_children() - before == set()

    cases = (Case(Invocation.stdin("2"), "4"),)
    problems = [EvalProblem("double", cases, ("print(2 * int(input()))", "print(5)"))]
    report = evaluate_candidates(problems, workers=2)
    assert report.problems[0].c == 1
    assert _live_children() - before == set()

    config, _, _ = golden_run
    resumed = PipelineConfig.from_dict(config.to_dict())
    resumed.out_dir = str(golden_run_copy)
    resumed.resume_from = "validate"
    run_pipeline(resumed, stop_after="validate")
    assert _live_children() - before == set()


def test_racing_calls_close_their_servers():
    # Calls given no server race to start and close servers of their own.
    before = _live_children()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            runs = [pool.submit(execute, f"print({i})", Invocation.stdin(""), FAST) for i in range(24)]
            outputs = [normalize_output(run.result(timeout=60).stdout) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert outputs == [str(i) for i in range(24)]
    assert _live_children() - before == set()


def test_dead_server_is_a_setup_failure():
    errors = []

    def attempt():
        try:
            execute("print(1)", Invocation.stdin(""), FAST, server)
        except SandboxSetupFailure as exc:
            errors.append(exc)

    with sandbox() as server:
        server_pid = int(execute("import os\nprint(os.getppid())", Invocation.stdin(""), FAST, server).stdout)
        os.kill(server_pid, signal.SIGKILL)
        # A daemon thread, so that a hanging call fails the test instead of blocking it.
        worker = threading.Thread(target=attempt, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert len(errors) == 1


def test_duration_excludes_server_start(monkeypatch):
    start_server = executor._Server.__init__

    def slow_start(self, python):
        time.sleep(0.5)
        start_server(self, python)

    monkeypatch.setattr(executor._Server, "__init__", slow_start)
    result = execute("print(1)", Invocation.stdin(""), FAST)
    assert result.ok, result.stderr
    assert result.duration < 0.5


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_no_child_outlives_a_killed_parent(tmp_path, sig):
    """The server reaps the running child and removes its workdir, which the killed parent cannot."""
    pid_file = tmp_path / "pid"
    temp_dir = tmp_path / "tmp"
    temp_dir.mkdir()
    code = (
        "import os, time\n"
        f"with open({str(pid_file)!r}, 'w') as fh:\n"
        "    fh.write(str(os.getpid()))\n"
        "while True:\n"
        "    time.sleep(0.1)"
    )
    parent = (
        "import sys\n"
        "from semiforge.executor import Invocation, ResourceLimits, execute\n"
        "execute(sys.argv[1], Invocation.stdin(''), ResourceLimits(wall_timeout=30.0))"
    )
    src = os.path.dirname(os.path.dirname(executor.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(temp_dir)}
    proc = subprocess.Popen([sys.executable, "-c", parent, code], env=env)
    pid = None
    try:
        deadline = time.monotonic() + 30.0
        while not (pid_file.exists() and pid_file.read_text()) and time.monotonic() < deadline:
            time.sleep(0.01)
        pid = int(pid_file.read_text())
        server = int(_proc_stat(pid)[1])  # the fork server: the child's parent
        assert len(list(temp_dir.glob("semiforge-run-*"))) == 1
        proc.send_signal(sig)
        deadline = time.monotonic() + 1.0
        while _proc_state(pid) not in (None, "Z", "X") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _proc_state(pid) in (None, "Z", "X")
        deadline = time.monotonic() + 5.0
        while _proc_state(server) not in (None, "Z", "X") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert list(temp_dir.glob("semiforge-run-*")) == []
    finally:
        proc.kill()
        proc.wait(timeout=10)
        if pid is not None and _proc_state(pid) not in (None, "Z", "X"):
            os.killpg(pid, signal.SIGKILL)  # left running: end it for the next test


def test_concurrent_runs_keep_their_own_output():
    pause = 0.2
    code = f"import time\ntext = input()\ntime.sleep({pause})\nprint(text[::-1])"

    def timed(snippet, invocation, limits):
        started = time.monotonic()
        result = execute(snippet, invocation, limits)
        return result, time.monotonic() - started

    with ThreadPoolExecutor(max_workers=4) as pool:
        spin_limits = ResourceLimits(wall_timeout=1.0)
        spinner = pool.submit(timed, "while True:\n    pass", Invocation.stdin(""), spin_limits)
        runs = [pool.submit(timed, code, Invocation.stdin(f"input-{i}"), FAST) for i in range(8)]
        spin_result, spin_elapsed = spinner.result(timeout=30)
        outcomes = [future.result(timeout=30) for future in runs]

    assert spin_result.status == "timeout"
    assert spin_elapsed <= 2.0
    for i, (result, elapsed) in enumerate(outcomes):
        assert result.ok
        assert normalize_output(result.stdout) == f"input-{i}"[::-1]
        assert elapsed <= pause + 1.0


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_map_workers_returns_results_in_item_order(workers):
    items = list(range(12))
    # Later items finish sooner, so results gathered as they finish would come back reversed.
    assert map_workers(workers, lambda item: time.sleep((12 - item) / 1000) or item * item, items) == [
        item * item for item in items
    ]


@pytest.mark.parametrize("workers", [2, 3])
def test_map_workers_runs_at_most_workers_items_at_once(workers):
    lock = threading.Lock()
    running, most = 0, 0

    def fn(item):
        nonlocal running, most
        with lock:
            running += 1
            most = max(most, running)
        time.sleep(0.01)
        with lock:
            running -= 1

    map_workers(workers, fn, list(range(12)))
    assert 1 < most <= workers


@pytest.mark.parametrize("workers", [2, 4])
def test_map_workers_starts_no_item_after_a_failure(workers):
    started, finished = [], []

    def fn(item):
        started.append(item)
        if item == 3:
            raise ValueError(f"item {item}")
        time.sleep(0.02)
        finished.append(item)

    with pytest.raises(ValueError, match="item 3"):
        map_workers(workers, fn, list(range(20)))
    assert max(started) <= 3 + workers
    assert sorted(finished) == sorted(set(started) - {3})  # the items running at the failure finished


def test_map_workers_raises_the_lowest_index_failure():
    def fn(item):
        if item == 0:
            time.sleep(0.05)  # fails after item 1 has
        if item < 2:
            raise ValueError(f"item {item}")

    with pytest.raises(ValueError, match="item 0"):
        map_workers(2, fn, list(range(4)))


def test_map_workers_raises_an_interrupt_from_fn():
    def fn(item):
        if item == 1:
            raise KeyboardInterrupt
        return item

    with pytest.raises(KeyboardInterrupt):
        map_workers(2, fn, list(range(6)))


def test_an_interrupted_map_workers_lets_running_items_finish():
    started, finished = [], []
    both_running = threading.Event()

    def fn(item):
        started.append(item)
        if item == 1:
            both_running.set()
        if item == 0 and both_running.wait(timeout=5):
            time.sleep(0.05)  # the caller waits by now
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)  # as Ctrl-C would
        time.sleep(0.2)
        finished.append(item)

    with pytest.raises(KeyboardInterrupt):
        map_workers(2, fn, list(range(10)))
    assert sorted(started) == sorted(finished) == [0, 1]


@pytest.mark.parametrize("workers, count", [(1, 3), (4, 1)], ids=["one_worker", "one_item"])
def test_map_workers_runs_inline_at_one_worker_or_item(workers, count):
    assert map_workers(workers, lambda item: threading.get_ident(), list(range(count))) == [threading.get_ident()] * count


def test_invocation_validation():
    with pytest.raises(ValueError):
        Invocation(mode="socket", payload="")
    with pytest.raises(ValueError):
        Invocation.call("not an identifier", "(1,)")
    with pytest.raises(ValueError):
        Invocation(mode="call", payload="(1,)", function_name=None)
    for name in (5, "None", "lambda"):
        with pytest.raises(ValueError, match="call mode needs a valid function name"):
            Invocation(mode="call", payload="(1,)", function_name=name)
    with pytest.raises(ValueError, match="stdin mode takes no function name"):
        Invocation(mode="stdin", payload="", function_name="f")
    with pytest.raises(ValueError, match="payload must be a string"):
        Invocation.stdin(None)


def test_limit_validation():
    for kwargs in ({"wall_timeout": 0}, {"wall_timeout": 1e10}, {"memory_bytes": -1}, {"output_bytes": 0}):
        with pytest.raises(ValueError):
            ResourceLimits(**kwargs)


def test_resolve_interpreter():
    assert resolve_interpreter(None) == sys.executable
    assert resolve_interpreter(sys.executable) == sys.executable
    with pytest.raises(SandboxSetupFailure, match="interpreter not found: 'definitely-not-an-interpreter-zz'"):
        resolve_interpreter("definitely-not-an-interpreter-zz")


def test_parse_args_literal(tmp_path):
    # The child reads the payload with ast.literal_eval: an expression
    # that is not a literal is rejected before it can run.
    marker = tmp_path / "ran"
    payload = f"__import__('pathlib').Path({str(marker)!r}).touch()"
    result = execute("def f(x):\n    return x", Invocation.call("f", payload), FAST)
    assert result.status == "runtime_error"
    assert "ValueError" in result.stderr
    assert not marker.exists()


def test_normalize_output_rules():
    assert normalize_output("a  \nb\n\n\n") == "a\nb"
    assert normalize_output("") == ""
    assert normalize_output("x") == "x"
    assert normalize_output("a\r\nb\r\n") == "a\nb"


def test_outputs_match_examples():
    assert outputs_match("42\n", "42")
    assert outputs_match("a \nb  ", "a\nb")
    assert not outputs_match("a\nb", "a b")
    assert not outputs_match("1", "2")


plain_lines = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=0, max_size=12
    ),
    max_size=6,
)


@given(plain_lines, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_outputs_match_ignores_trailing_whitespace(lines, pad, extra_newlines):
    text = "\n".join(lines)
    noisy = "\n".join(line + " " * pad for line in lines) + "\n" * extra_newlines
    assert outputs_match(noisy, text)


@given(plain_lines)
@settings(max_examples=60)
def test_normalize_idempotent(lines):
    text = "\n".join(lines)
    assert normalize_output(normalize_output(text)) == normalize_output(text)
