"""Run untrusted snippets in a throwaway subprocess sandbox.

Every execution gets a fresh temporary working directory, a session and
process group of its own, an address-space ceiling (``MEMORY_BYTES``)
and a hard cap on bytes written to stdout (``OUTPUT_BYTES``). The cap
is enforced with RLIMIT_FSIZE set to one byte above it: a run that
fills the extra byte is reported as an overflow, with empty stdout,
instead of being silently truncated. Both, and RLIMIT_CORE 0, are set
once on each fork server, soft equal to hard, and every run inherits
them; a host that cannot give them, pidfds (below), or an unlimited
RLIMIT_CPU for the server (whose CPU adds up over all its runs) fails
at ``sandbox()`` with ``SandboxSetupFailure``, before any run. The time
limit and the ``str`` hash secret are the server's too:
``sandbox(interpreter, limits, secret)`` fixes them for every run
forked from that server, and a server is always given a secret, 0 by
default, so the same program and input get one verdict from every
server of the same settings.

Runs are forked from a fork server (``_SERVER``): one single-threaded
``python -s -S -B -X utf8`` interpreter, so a run costs a ``fork``
instead of an interpreter start-up. ``with sandbox(interpreter, limits,
secret) as server`` starts one and closes it when the block ends;
callers share it by passing ``server`` down to ``execute`` (the validation functions
take one too), from any number of threads. ``execute`` given no server
starts one with the default limits for that run and pays the start-up
below. The flags make the server ignore user site-packages, skip
``site`` (so solutions see only the standard library), write no
bytecode and use UTF-8; it runs under ``-s``, not ``-I``, which would
ignore ``PYTHONHASHSEED``. Its environment holds only ``PATH`` and
``PYTHONHASHSEED``, so credentials and other ``PYTHON*`` variables
never reach it. Before anything else it drops
``""`` (its working directory, which ``-I`` kept off the path, and
Python 3.10 has no ``-P``) from ``sys.path``, and it deletes
``PYTHONHASHSEED`` from its environment before its first fork. It
answers its pid as soon as it starts, and then imports ``ast`` before
it serves its first command, so the parent goes on, and may start a
second server, while it loads; the first run of a server may wait for
that import. Without the preload
every child would build the AST types on its first ``compile()`` (~3 ms
of CPU), and ``literal_eval`` would cost each call-based child 15-19 ms
more to import ``ast`` and the modules it pulls in. ``ast`` holds no
per-process state (it brings in no ``random`` and no ``threading``), so
each child still starts like a fresh interpreter, with one exception:
the ``str`` hash secret is the server's, ``secret``, so runs forked
from one server share it. The pipeline opens one server per sandbox
stage, each with a secret of its own fixed by the run's seed, and both stay open while
its units run. The server is started with a real ``fork``, not
``vfork``, which would charge it the parent's RSS high-water mark. The
``exec`` after the fork still carries the forked copy's RSS into the
server's peak. A fork copies the page tables of the parent's anonymous
memory but not those of its file-backed mappings, which the copy faults
in only if it touches them, so ``RUSAGE_CHILDREN``'s ``ru_maxrss`` is at
least the parent's anonymous RSS (``RssAnon``), not its whole RSS, at
any server start. A server is reaped when its block ends, so
``RUSAGE_CHILDREN`` covers every run.

Each child calls ``setsid``, enters the working directory, ``dup2``s
the staged ``stdin.txt``/``stdout.txt``/``stderr.txt`` over fds 0-2
(dropping the server's command pipes), sets ``HOME`` and rebuilds
``sys.std*``. It binds the ``exit`` and
``quit`` builtins, which ``site`` would have defined, to ``sys.exit``
(``help`` and the like stay undefined), runs the snippet in a new
``__main__`` with the ``__file__`` and ``sys.argv`` of a script run,
and ends as the interpreter does. ``snippet.py`` is the code under test
in both modes: a call-based child then reads the argument literal with
``ast.literal_eval``, looks the function up in the snippet's globals,
then the builtins, calls it (a tuple gives the positional arguments)
and prints ``repr`` of a non-None result, binding no name of its own.
The parent reads the output through the descriptors that created
``stdout.txt`` and ``stderr.txt``, so a snippet that removes or replaces
them by name changes nothing the parent reads. It decodes stdout as
UTF-8 with ``surrogateescape``, as the child writes it, so each byte
that is not UTF-8 reads as a lone surrogate and different bytes never
read as the same text; stderr, which is only shown, is decoded with
``errors="replace"``. A run's status is one of ``STATUSES``.

A run's time limit counts the CPU its process uses, so a verdict does
not depend on how many runs share the host's CPUs. Each child sets
RLIMIT_CPU to ``wall_timeout`` rounded up to whole seconds (the kernel
counts this rlimit in seconds): SIGXCPU at that soft limit, SIGKILL one
second later. ``reap`` answers the child's CPU with its exit code
(``wait4``). The parent waits on a pidfd of the child with ``poll``,
which returns as soon as the child exits; the wait is a backstop for a
child that sleeps or blocks, bounded at 3x ``wall_timeout`` of wall
time (at most ``MAX_WALL_TIMEOUT``, 2**31 - 1 ms, the most ``poll``
waits); pidfds need Linux 5.3 or later. A run is ``timeout`` when the
backstop fired, the child died of SIGXCPU, or its CPU reached the
limit; a snippet that kills itself otherwise is a ``runtime_error``.
``execute`` raises ``SandboxSetupFailure`` when the server is gone. On every
exit the server kills the child's process group and the child while
the child is an unreaped zombie (so its group id cannot have been
reused), and only then reaps it: a background process forked by the
snippet does not outlive the call. At EOF on its commands, which is
also what it reads when its parent dies, the server does the same to
every child it has not yet reaped, so no child runs on without its wall
backstop, and removes that child's working directory (from its ``run``
command), which a dead parent would leave behind. It then exits with
``os._exit``, skipping the interpreter's finalization.

``map_workers`` spreads a pass over at most ``workers`` plain threads,
each taking the next item in order. Once an item has raised, no new
item starts and the items already running finish; the exception of the
lowest-index item that raised is then raised, as ``[fn(item) for item
in items]`` would raise it.
"""

from __future__ import annotations

import contextlib
import marshal
import math
import os
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

from .errors import SemiforgeError, is_function_name

MODES = ("stdin", "call")
STATUSES = ("ok", "runtime_error", "timeout", "output_overflow")  # of ExecResult.status
DEFAULT_WALL_TIMEOUT = 5.0  # seconds: a run's time limit unless its server is given one
MAX_WALL_TIMEOUT = (2**31 - 1) / 1000  # seconds: poll waits at most 2**31 - 1 ms
MEMORY_BYTES = 256 * 1024 * 1024  # a run's address-space ceiling
OUTPUT_BYTES = 1024 * 1024  # the most a run may write to any one file, its stdout included

# The fork server, run as ``python -s -S -B -X utf8 -c _SERVER cpu_seconds``.
# Its stdin and stdout are the command and answer pipes. Each command is a
# marshalled tuple answered by one marshalled value: ("run", workdir,
# call) forks a child for the snippet staged in workdir and answers its
# pid, where call is None in stdin mode and (function name, stripped
# argument literal) in call mode; ("reap", pid) kills the child's group
# and the child, reaps it and answers its exit code and the seconds of
# CPU (user plus system) it used. A str answer is an error. The server
# first answers its own pid, to show that it started, before it imports
# ast; the parent then sets the rlimits children inherit.
_SERVER = r"""
import sys
sys.path = [entry for entry in sys.path if entry]  # no "" (the working directory): nothing there shadows the stdlib
import atexit, builtins, marshal, os, resource
CPU_SECONDS = int(sys.argv[1])  # each run's CPU limit
os.environ.pop("PYTHONHASHSEED", None)  # the server's secret: no child sees it or passes it on
os.write(1, marshal.dumps(os.getpid()))  # started: the parent goes on while ast loads
import ast  # preloaded for the children; see the module docstring

def run(workdir, call):
    os.setsid()
    # SIGXCPU at the soft limit, and SIGKILL a second later for a snippet that ignores it. Set per
    # child, not on the server, whose own CPU would count against it.
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS + 1))
    os.chdir(workdir)
    for fd, name in enumerate(("stdin.txt", "stdout.txt", "stderr.txt")):
        staged = os.open(name, os.O_WRONLY if fd else os.O_RDONLY)
        os.dup2(staged, fd)
        os.close(staged)
    os.environ["HOME"] = workdir
    text = dict(encoding="utf-8", newline="\n", closefd=False)
    sys.stdin = sys.__stdin__ = open(0, "r", errors="surrogateescape", **text)
    sys.stdout = sys.__stdout__ = open(1, "w", errors="surrogateescape", **text)
    sys.stderr = sys.__stderr__ = open(2, "w", 1, errors="backslashreplace", **text)
    builtins.exit = builtins.quit = sys.exit
    script = os.path.join(workdir, "snippet.py")
    sys.argv = [script]
    main = sys.modules["__main__"] = type(sys)("__main__")
    main.__file__ = script
    try:
        with open(script, "rb") as fh:
            source = fh.read()
        namespace = vars(main)
        exec(compile(source, script, "exec"), namespace)
        if call is not None:
            name, literal = call
            args = ast.literal_eval(literal)
            try:
                function = namespace[name] if name in namespace else getattr(builtins, name)
            except AttributeError:
                raise NameError(f"name {name!r} is not defined") from None
            result = function(*args) if isinstance(args, tuple) else function(args)
            if result is not None:
                print(repr(result))
        status = 0
    except SystemExit as exc:
        status = exc.code
        if status is None:
            status = 0
        elif not isinstance(status, int):
            print(status, file=sys.stderr)
            status = 1
    except BaseException as exc:
        exc.__traceback__ = exc.__traceback__.tb_next  # drop this frame
        sys.excepthook(type(exc), exc, exc.__traceback__)
        status = 1
    # The interpreter's own exit sequence: join non-daemon threads, run
    # atexit handlers, flush stdout (exit 120 if that fails).
    if "threading" in sys.modules:
        sys.modules["threading"]._shutdown()
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None and not sys.stdout.closed:
            sys.stdout.flush()
    except Exception:
        status = 120
    try:
        sys.stderr.flush()
    except Exception:
        pass
    return status

def reap(pid):
    for kill in (os.killpg, os.kill):
        try:
            kill(pid, 9)  # SIGKILL; the signal module would import enum
        except (ProcessLookupError, PermissionError):
            pass
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime

def serve():
    commands = sys.stdin.buffer
    running = {}  # pid -> workdir, forked and not yet reaped
    try:
        while True:
            try:
                op, *args = marshal.load(commands)
            except EOFError:
                break
            try:
                if op == "reap":
                    running.pop(args[0], None)
                    answer = reap(*args)
                else:
                    answer = os.fork()
                    if answer == 0:
                        status = 1
                        try:
                            status = run(*args)
                        finally:
                            os._exit(status & 0xFF)
                    running[answer] = args[0]
            except OSError as exc:
                answer = f"{op}: {exc}"
            os.write(1, marshal.dumps(answer))
    finally:
        # EOF, or a broken pipe: the parent is done or dead, and removes
        # no workdir of a run it has not seen reaped.
        for pid, workdir in running.items():
            reap(pid)
            import shutil  # only here, where a parent died mid-run
            shutil.rmtree(workdir, ignore_errors=True)  # walks by fd, follows no symlink
    os._exit(0)  # no finalization: the server writes only with os.write and registers no atexit handler

serve()
"""


class SandboxSetupFailure(SemiforgeError):
    pass


class _Invocation(NamedTuple):
    mode: str
    payload: str
    function_name: str | None = None


class Invocation(_Invocation):
    """One way of feeding a program: stdin text, or a literal call.

    ``payload`` is the stdin text in stdin mode and the argument
    literal (tuple syntax for several arguments) in call mode.
    """

    __slots__ = ()

    def __new__(cls, mode: str, payload: str, function_name: str | None = None) -> "Invocation":
        if mode not in MODES:
            raise ValueError(f"unknown execution mode: {mode!r}")
        if not isinstance(payload, str):
            raise ValueError(f"payload must be a string, got {payload!r}")
        if mode == "call" and not is_function_name(function_name):
            raise ValueError(f"call mode needs a valid function name, got {function_name!r}")
        if mode == "stdin" and function_name is not None:
            raise ValueError(f"stdin mode takes no function name, got {function_name!r}")
        return super().__new__(cls, mode, payload, function_name)

    @classmethod
    def stdin(cls, stdin_text: str) -> "Invocation":
        return cls(mode="stdin", payload=stdin_text)

    @classmethod
    def call(cls, function_name: str, args_literal: str) -> "Invocation":
        return cls(mode="call", payload=args_literal, function_name=function_name)


class _ResourceLimits(NamedTuple):
    wall_timeout: float = DEFAULT_WALL_TIMEOUT


class ResourceLimits(_ResourceLimits):
    """A run's time limit: ``wall_timeout`` seconds of CPU, rounded up to whole seconds, and 3x that of wall time."""

    __slots__ = ()

    def __new__(cls, wall_timeout: float = DEFAULT_WALL_TIMEOUT) -> "ResourceLimits":
        if isinstance(wall_timeout, float) and not math.isfinite(wall_timeout):
            raise ValueError(f"wall_timeout must be finite, got {wall_timeout!r}")
        if wall_timeout <= 0:
            raise ValueError(f"wall_timeout must be > 0, got {wall_timeout!r}")
        if wall_timeout > MAX_WALL_TIMEOUT:
            raise ValueError(f"wall_timeout must be <= {MAX_WALL_TIMEOUT}, got {wall_timeout!r}")
        return super().__new__(cls, wall_timeout)


class ExecResult(NamedTuple):
    status: str  # one of STATUSES
    stdout: str
    stderr: str
    returncode: int | None
    duration: float  # seconds from the fork to the reap

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def resolve_interpreter(interpreter: str | None = None) -> str:
    """Return an absolute interpreter path, defaulting to the running one."""
    if interpreter is None:
        return sys.executable
    found = shutil.which(interpreter) if os.sep not in interpreter else interpreter
    if not found or not os.path.isfile(found):
        raise SandboxSetupFailure(f"interpreter not found: {interpreter!r}")
    return found


class _Server:
    """A running fork server and the pipes to it; see ``_SERVER``."""

    def __init__(self, python: str, limits: ResourceLimits, secret: int):
        self.cpu_seconds = math.ceil(limits.wall_timeout)  # RLIMIT_CPU counts whole seconds
        self.backstop = min(3 * limits.wall_timeout, MAX_WALL_TIMEOUT)  # the wall time of a run that sleeps or blocks
        env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONHASHSEED": str(secret)}
        try:
            # Any uid change (here a no-op one) makes _posixsubprocess fork
            # instead of vfork, with no Python code between fork and exec.
            # A session of its own keeps a terminal's Ctrl-C to the parent
            # from killing the server mid-run.
            self._proc = subprocess.Popen(
                [python, "-s", "-S", "-B", "-X", "utf8", "-c", _SERVER, str(self.cpu_seconds)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=env,
                start_new_session=True,
                user=os.geteuid(),
            )
        except OSError as exc:
            raise SandboxSetupFailure(f"could not start the sandbox server: {exc}") from exc
        self._lock = threading.Lock()
        try:
            pid = self._exchange()
            # Once for all runs: each child inherits these limits, and cannot raise them as soft equals hard.
            for name, value in (("RLIMIT_AS", MEMORY_BYTES), ("RLIMIT_FSIZE", OUTPUT_BYTES + 1), ("RLIMIT_CORE", 0)):
                setup = f"set {name} to {value}"
                resource.prlimit(pid, getattr(resource, name), (value, value))
            setup = "lift RLIMIT_CPU"  # the server's CPU adds up over all its runs; each child sets its own limit
            resource.prlimit(pid, resource.RLIMIT_CPU, (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
            setup = "open a pidfd (Linux 5.3 or later)"  # each run is waited on through one
            os.close(os.pidfd_open(pid))
        except (AttributeError, OSError) as exc:
            self.close()
            raise SandboxSetupFailure(f"the sandbox cannot start: cannot {setup}: {exc}") from exc
        except SandboxSetupFailure:
            self.close()
            raise

    def _exchange(self, *command):
        """Send ``command`` (if any) and return the server's answer."""
        with self._lock:
            try:
                if command:
                    marshal.dump(command, self._proc.stdin)
                    self._proc.stdin.flush()
                answer = marshal.load(self._proc.stdout)
            except (OSError, EOFError, ValueError) as exc:
                raise SandboxSetupFailure(f"the sandbox server is gone: {exc!r}") from exc
        if isinstance(answer, str):
            raise SandboxSetupFailure(f"the sandbox server failed: {answer}")
        return answer

    def run(self, workdir: str, call: tuple[str, str] | None) -> tuple[bool, int, float]:
        """Run the snippet staged in ``workdir``; return (timed out, exit code, seconds).

        The run times out when the kernel stopped it at its CPU limit,
        when its CPU reached that limit, or when it outlived the wall
        backstop. The kernel checks the limit against CPU sampled at
        each tick, which ``wait4``'s precise figure can fall short of,
        so a SIGXCPU death counts whatever CPU was reported. The seconds
        run from the fork to the reap, so they leave out the wait for
        the server's ``ast`` import before its first fork.
        """
        pid = self._exchange("run", workdir, call)
        forked = time.monotonic()
        try:
            exited = _wait_exit(pid, self.backstop)
        finally:
            try:
                returncode, cpu = self._exchange("reap", pid)
            except SandboxSetupFailure:
                # The server died mid-run; its orphaned child would run on.
                with contextlib.suppress(OSError):
                    os.killpg(pid, signal.SIGKILL)
                raise
        timed_out = not exited or returncode == -signal.SIGXCPU or cpu >= self.cpu_seconds
        return timed_out, returncode, time.monotonic() - forked

    def close(self) -> None:
        """End the server (it exits at EOF on its commands) and reap it."""
        self._proc.communicate()


@contextlib.contextmanager
def sandbox(interpreter: str | None = None, limits: ResourceLimits = ResourceLimits(), secret: int = 0):
    """Start a fork server for ``interpreter``, yield it, and close it when the block ends.

    Pass the server to ``execute`` to fork a run from it; several
    threads may use it at once. Every run forked from one server shares
    its rlimits, its time limits, set by ``limits``, and its ``str``
    hash secret, ``secret`` (an integer from 0 to 2**32 - 1, as
    ``PYTHONHASHSEED`` takes). So a program run twice with the same
    settings gets the same verdict, set order included. Raises
    ``SandboxSetupFailure`` if the interpreter is not found or the
    server cannot start or be set up.
    """
    server = _Server(resolve_interpreter(interpreter), limits, secret)
    try:
        yield server
    finally:
        server.close()


def map_workers(workers: int, fn, items: list) -> list:
    """``[fn(item) for item in items]``, run on ``workers`` threads when that and ``len(items)`` are more than one.

    Each thread takes the next item in order. Once ``fn`` has raised,
    or the caller is interrupted while it waits, no new item starts;
    the items already running finish, and then the exception of the
    lowest-index item that raised (or the interrupt) is raised.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    raised = {}  # item index -> what fn raised on it
    state = threading.Condition()  # guards what follows; notified as each item ends
    pending = iter(range(len(items)))
    stopped = False  # no new item starts
    running, left = 0, len(items)  # the items started and not ended, and all not ended

    def take():
        nonlocal running
        with state:
            index = None if stopped else next(pending, None)
            running += index is not None
            return index

    def work():
        nonlocal stopped, running, left
        while (index := take()) is not None:
            try:
                results[index] = fn(items[index])
            except BaseException as exc:  # a KeyboardInterrupt in fn too: the caller raises it
                with state:
                    raised[index] = exc
                    stopped = True
            with state:
                running, left = running - 1, left - 1
                state.notify()

    # The caller wakes as each item ends, not only when the threads do: a
    # signal that arrives while a worker holds the interpreter can wait
    # until the caller next wakes before it is raised.
    try:
        for _ in range(min(workers, len(items))):
            threading.Thread(target=work).start()
        with state:
            state.wait_for(lambda: left == 0 or (stopped and running == 0))
    except BaseException:  # the caller was interrupted: start no new item, let the running ones finish
        with state:
            stopped = True
            state.wait_for(lambda: running == 0)
        raise
    if raised:
        raise raised[min(raised)]
    return results


def execute(code: str, invocation: Invocation, server: _Server | None = None) -> ExecResult:
    """Run one snippet against one invocation in a child forked from ``server``, within its wall limit.

    Without a server, the call starts one for itself with the default
    limits (see ``sandbox``).
    """
    if invocation.mode == "call":
        call, stdin_payload = (invocation.function_name, invocation.payload.strip()), ""
    else:
        call, stdin_payload = None, invocation.payload

    with contextlib.ExitStack() as stack:
        try:
            workdir = tempfile.mkdtemp(prefix="semiforge-run-")
            stack.callback(shutil.rmtree, workdir, ignore_errors=True)
            for name, text in (("snippet.py", code), ("stdin.txt", stdin_payload)):
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            # Read through the descriptors that create them: the snippet may remove or replace the files by name.
            out, err = (stack.enter_context(open(os.path.join(workdir, name), "w+b"))
                        for name in ("stdout.txt", "stderr.txt"))
        except OSError as exc:
            raise SandboxSetupFailure(f"could not stage snippet in a sandbox directory: {exc}") from exc

        try:
            with sandbox() if server is None else contextlib.nullcontext(server) as forking:
                timed_out, returncode, duration = forking.run(workdir, call)
        except OSError as exc:
            raise SandboxSetupFailure(f"could not launch sandbox: {exc}") from exc

        overflow = os.fstat(out.fileno()).st_size > OUTPUT_BYTES
        # No caller reads an overflowing run's output, and reading the
        # capped megabyte costs the parent twice that at its peak.
        stdout = "" if overflow else out.read(OUTPUT_BYTES).decode("utf-8", errors="surrogateescape")
        stderr = err.read(OUTPUT_BYTES).decode("utf-8", errors="replace")

        if timed_out:
            status = "timeout"
        elif overflow:
            status = "output_overflow"
        elif returncode != 0:
            status = "runtime_error"
        else:
            status = "ok"
        return ExecResult(
            status=status,
            stdout=stdout,
            stderr=stderr,
            returncode=None if timed_out else returncode,
            duration=duration,
        )


def _wait_exit(pid: int, timeout: float) -> bool:
    """Block until ``pid`` exits or ``timeout`` seconds pass; True if it exited.

    The child is not reaped, so its pid (and group id) stay reserved.
    ``poll`` rather than ``select``, which cannot take fds >= 1024.
    """
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        return bool(poller.poll(timeout * 1000))
    finally:
        os.close(pidfd)


def normalize_output(text: str) -> str:
    """Strip trailing whitespace per line and drop trailing blank lines; a line ends at \\n only."""
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def outputs_match(actual: str, expected: str) -> bool:
    """Compare two program outputs modulo trailing-whitespace noise."""
    return normalize_output(actual) == normalize_output(expected)
