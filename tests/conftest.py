"""Shared fixtures: repository paths, oracles, and one golden pipeline run."""

from __future__ import annotations

import json
import shutil
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from semiforge import executor, validation
from semiforge.dataset import emit_jsonl
from semiforge.pipeline import load_config, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
TEST_DATA = Path(__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

# Lines recorded by the acceptance tests, echoed after the run summary.
ACCEPTANCE_LINES: list[str] = []


def lcs_quadratic(a, b) -> int:
    """Independent reference LCS: the classic full-table recurrence."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
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


def load_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def problem_to_dict(problem) -> dict:
    return {
        "problem_id": problem.problem_id,
        "description": problem.description,
        "special_judge": problem.special_judge,
        "solutions": list(problem.solutions),
    }


def write_corpus(problems, path) -> int:
    """Write problems as a generic-format corpus, one JSON object per line."""
    return emit_jsonl((problem_to_dict(problem) for problem in problems), path)


@pytest.fixture()
def sandbox_counts(monkeypatch):
    """Record fork-server starts, runs forked, and calls of ``semiforge.validation.execute``.

    perfbench's tracing wraps that name and reads the code from its first
    positional argument, so a run forked any other way is missing from
    the traced ``executor.*`` metrics.
    """
    counts = {"starts": [], "runs": [], "calls": []}

    class CountingServer(executor._Server):
        def __init__(self, python):
            counts["starts"].append(python)
            super().__init__(python)

        def run(self, *args):
            counts["runs"].append(args)
            return super().run(*args)

    execute = validation.execute

    def counted(*args, **kwargs):
        counts["calls"].append(args[0])
        return execute(*args, **kwargs)

    monkeypatch.setattr(executor, "_Server", CountingServer)
    monkeypatch.setattr(validation, "execute", counted)
    return counts


class LoopbackServer:
    """Scripted answers to each request it receives, and a record of each one.

    ``script`` holds ``(status, headers, body)`` answers given in turn; the
    last one repeats. A body is bytes, or a dict sent as JSON. A ``Content-Length``
    in ``headers`` replaces the true one, so a larger value cuts the body
    short. Assign ``answer`` to compute an answer from the request instead.
    """

    def __init__(self, url: str):
        self.url = url
        self.script: list[tuple[int, dict, object]] = [(200, {}, b"")]
        self.received: list[dict] = []  # {"method", "path", "headers", "json"}, in arrival order
        self.lock = threading.Lock()

    def answer(self, request: dict) -> tuple[int, dict, object]:
        return self.script[min(len(self.received), len(self.script)) - 1]


@pytest.fixture()
def start_loopback_server(monkeypatch):
    """Start a ThreadingHTTPServer on 127.0.0.1 that serves a new LoopbackServer's answers.

    Each server started stops when the test ends.
    """
    monkeypatch.setenv("no_proxy", "*")  # an http_proxy in the environment must not see loopback traffic
    running = []

    def start() -> LoopbackServer:
        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with state.lock:
                    state.received.append(
                        {
                            "method": self.command,
                            "path": self.path,
                            "headers": self.headers,
                            "json": json.loads(body) if body else None,
                        }
                    )
                    status, headers, payload = state.answer(state.received[-1])
                if isinstance(payload, dict):
                    payload = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                for name, value in {"Content-Length": str(len(payload)), **headers}.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(payload)

            do_GET = do_POST  # a followed redirect arrives as a GET

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        state = LoopbackServer(f"http://127.0.0.1:{server.server_port}/v1/chat/completions")
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)  # shutdown waits one poll
        thread.start()
        running.append((server, thread))
        return state

    yield start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.fixture()
def loopback_server(start_loopback_server):
    return start_loopback_server()


@pytest.fixture(scope="session")
def golden_config_path() -> Path:
    return FIXTURES / "golden_config.json"


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory, golden_config_path):
    """One cold end-to-end run on the bundled mini corpus, shared read-only."""
    out_dir = tmp_path_factory.mktemp("golden-run")
    config = load_config(golden_config_path)
    config.out_dir = str(out_dir)
    stats = run_pipeline(config)
    return config, out_dir, stats


@pytest.fixture()
def golden_run_copy(golden_run, tmp_path):
    """A private mutable copy of the golden run directory."""
    _, out_dir, _ = golden_run
    dest = tmp_path / "run"
    shutil.copytree(out_dir, dest)
    return dest


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
