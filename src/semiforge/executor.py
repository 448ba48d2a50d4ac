"""Run untrusted snippets in a throwaway subprocess sandbox.

Every execution gets a fresh temporary working directory, a session and
process group of its own, an address-space ceiling and a hard cap on
bytes written to stdout. The cap is enforced with RLIMIT_FSIZE set to
one byte above the configured limit: a run that fills the extra byte is
reported as an overflow instead of being silently truncated.

The child is launched as ``python -I -S -B -X utf8 -c <launcher>
snippet.py``: it ignores ``PYTHON*`` variables and user site-packages,
skips ``site`` (so solutions see only the standard library, and
start-up costs no ``.pth`` imports), writes no bytecode and reads and
writes UTF-8. ``site`` is also what defines the ``exit`` and ``quit``
builtins, which solutions often end with, so the launcher binds both to
``sys.exit`` and then runs the snippet as ``__main__`` with the same
``__file__`` and ``sys.argv`` a plain script run would give it. The
other interactive builtins ``site`` adds (``help``, ``copyright``,
``credits``, ``license``) stay undefined. Its stdin, stdout and
stderr are files in the working directory, so the parent never
services a pipe. The parent waits on a pidfd of the child with
``poll``, which returns as soon as the child exits, and bounds the wait
by the wall timeout; pidfds need Linux 5.3 or later, and elsewhere
``execute`` raises ``SandboxSetupFailure``. On every exit, timed out
or not, the whole process group is killed while the leader is still an
unreaped zombie (so its group id cannot have been reused), and only
then is the leader reaped: a background process forked by the snippet
does not outlive the call.

Call-based snippets are wrapped in a small driver that parses the
input line as a Python literal, calls the named function (unpacking
tuples as positional arguments) and prints ``repr`` of a non-None
result.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .errors import SemiforgeError

MODES = ("stdin", "call")

_SHIM_TEMPLATE = None

# Run as ``python -c _LAUNCHER snippet.py``. Compiling the file as a
# module keeps ``from __future__`` imports valid; the launcher's own
# names are deleted so the snippet starts from a clean ``__main__``.
_LAUNCHER = (
    "import builtins, sys\n"
    "builtins.exit = builtins.quit = sys.exit\n"
    "del sys.argv[0]\n"
    "__file__ = sys.argv[0]\n"
    "del builtins, sys\n"
    "exec(compile(open(__file__, 'rb').read(), __file__, 'exec'))\n"
)


class InterpreterMissing(SemiforgeError):
    pass


class SandboxSetupFailure(SemiforgeError):
    pass


class ExecStatus(str, Enum):
    OK = "ok"
    RUNTIME_ERROR = "runtime_error"
    TIMEOUT = "timeout"
    OUTPUT_OVERFLOW = "output_overflow"


@dataclass(frozen=True)
class Invocation:
    """One way of feeding a program: stdin text, or a literal call.

    ``payload`` is the stdin text in stdin mode and the argument
    literal (tuple syntax for several arguments) in call mode.
    """

    mode: str
    payload: str
    function_name: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown execution mode: {self.mode!r}")
        if self.mode == "call":
            if not self.function_name or not self.function_name.isidentifier():
                raise ValueError(f"call mode needs a valid function name, got {self.function_name!r}")

    @classmethod
    def stdin(cls, stdin_text: str) -> "Invocation":
        return cls(mode="stdin", payload=stdin_text)

    @classmethod
    def call(cls, function_name: str, args_literal: str) -> "Invocation":
        return cls(mode="call", payload=args_literal, function_name=function_name)


@dataclass(frozen=True)
class ResourceLimits:
    wall_timeout: float = 5.0
    memory_bytes: int = 256 * 1024 * 1024
    output_bytes: int = 1024 * 1024

    def __post_init__(self) -> None:
        if self.wall_timeout <= 0 or self.memory_bytes <= 0 or self.output_bytes <= 0:
            raise ValueError("resource limits must be positive")


@dataclass(frozen=True)
class ExecResult:
    status: ExecStatus
    stdout: str
    stderr: str
    returncode: int | None
    duration: float

    @property
    def ok(self) -> bool:
        return self.status is ExecStatus.OK


def _load_shim_template() -> str:
    global _SHIM_TEMPLATE
    if _SHIM_TEMPLATE is None:
        _SHIM_TEMPLATE = (
            resources.files("semiforge.assets").joinpath("call_shim.py.tmpl").read_text("utf-8")
        )
    return _SHIM_TEMPLATE


def wrap_call_based(code: str, function_name: str, args_literal: str) -> str:
    """Render the call driver around a call-based snippet."""
    if not function_name.isidentifier():
        raise ValueError(f"not a valid function name: {function_name!r}")
    shim = _load_shim_template()
    shim = shim.replace("{{user_code}}", code)
    shim = shim.replace("{{function_name}}", function_name)
    shim = shim.replace("{{args_literal}}", repr(args_literal.strip()))
    return shim


def resolve_interpreter(interpreter: str | None = None) -> str:
    """Return an absolute interpreter path, defaulting to the running one."""
    if interpreter is None:
        return sys.executable
    found = shutil.which(interpreter) if os.sep not in interpreter else interpreter
    if not found or not os.path.isfile(found):
        raise InterpreterMissing(f"interpreter not found: {interpreter!r}")
    return found


def _child_env(workdir: str) -> dict[str, str]:
    # Deliberately minimal: the child must not inherit credentials.
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": workdir,
    }


def _make_preexec(limits: ResourceLimits):
    import resource

    mem = limits.memory_bytes
    fsize = limits.output_bytes + 1

    def preexec() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (mem, mem))
        resource.setrlimit(resource.RLIMIT_FSIZE, (fsize, fsize))
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))

    return preexec


def execute(
    code: str,
    invocation: Invocation,
    limits: ResourceLimits | None = None,
    interpreter: str | None = None,
) -> ExecResult:
    """Run one snippet against one invocation in an isolated subprocess."""
    limits = limits or ResourceLimits()
    python = resolve_interpreter(interpreter)
    if not hasattr(os, "pidfd_open"):
        raise SandboxSetupFailure("the sandbox needs os.pidfd_open (Linux 5.3 or later)")

    if invocation.mode == "call":
        program = wrap_call_based(code, invocation.function_name, invocation.payload)
        stdin_payload = ""
    else:
        program = code
        stdin_payload = invocation.payload

    try:
        workdir = tempfile.mkdtemp(prefix="semiforge-run-")
    except OSError as exc:
        raise SandboxSetupFailure(f"could not create sandbox directory: {exc}") from exc

    try:
        script = os.path.join(workdir, "snippet.py")
        in_path = os.path.join(workdir, "stdin.txt")
        out_path = os.path.join(workdir, "stdout.txt")
        err_path = os.path.join(workdir, "stderr.txt")
        try:
            with open(script, "w", encoding="utf-8") as fh:
                fh.write(program)
            with open(in_path, "w", encoding="utf-8") as fh:
                fh.write(stdin_payload)
        except OSError as exc:
            raise SandboxSetupFailure(f"could not stage snippet: {exc}") from exc

        start = time.monotonic()
        try:
            with (
                open(in_path, "rb") as in_fh,
                open(out_path, "wb") as out_fh,
                open(err_path, "wb") as err_fh,
            ):
                proc = subprocess.Popen(
                    [python, "-I", "-S", "-B", "-X", "utf8", "-c", _LAUNCHER, script],
                    stdin=in_fh,
                    stdout=out_fh,
                    stderr=err_fh,
                    cwd=workdir,
                    env=_child_env(workdir),
                    start_new_session=True,
                    preexec_fn=_make_preexec(limits),
                )
            try:
                timed_out = not _wait_exit(proc.pid, limits.wall_timeout)
            finally:
                _kill_group(proc)
        except OSError as exc:
            raise SandboxSetupFailure(f"could not launch sandbox: {exc}") from exc
        duration = time.monotonic() - start

        overflow = os.path.getsize(out_path) > limits.output_bytes
        stdout = _read_capped(out_path, limits.output_bytes)
        stderr = _read_capped(err_path, limits.output_bytes)

        if timed_out:
            status = ExecStatus.TIMEOUT
        elif overflow:
            status = ExecStatus.OUTPUT_OVERFLOW
        elif proc.returncode != 0:
            status = ExecStatus.RUNTIME_ERROR
        else:
            status = ExecStatus.OK
        return ExecResult(
            status=status,
            stdout=stdout,
            stderr=stderr,
            returncode=None if timed_out else proc.returncode,
            duration=duration,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


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


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the child's whole process group, then reap the leader."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _read_capped(path: str, cap: int) -> str:
    with open(path, "rb") as fh:
        return fh.read(cap).decode("utf-8", errors="replace")


def normalize_output(text: str) -> str:
    """Strip trailing whitespace per line, drop trailing blank lines, use \\n."""
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def outputs_match(actual: str, expected: str) -> bool:
    """Compare two program outputs modulo trailing-whitespace noise."""
    return normalize_output(actual) == normalize_output(expected)
