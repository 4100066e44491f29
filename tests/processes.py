"""Real CLI processes for tests that run the program the way an operator
does: ``cli`` runs one short-lived command to completion, ``Server``
holds a long-running ``serve``/``serve-cluster`` process and its output.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading

import pytest

import repro

#: Seconds any one step may take before the test gives up on it.
STEP_TIMEOUT = 30.0

#: The ``src`` directory this checkout imports ``repro`` from.
SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        SOURCE_ROOT + os.pathsep + inherited if inherited else SOURCE_ROOT
    )
    return env


def cli(*argv: str) -> subprocess.CompletedProcess:
    """One short-lived CLI process, run to completion."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=_environment(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=STEP_TIMEOUT,
    )


class Server:
    """A long-running ``serve``/``serve-cluster`` process and its output."""

    def __init__(self, *argv: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            env=_environment(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: list[str] = []
        self._fresh: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)
            self._fresh.put(line)
        self._fresh.put(None)

    def await_line(self, pattern: str) -> re.Match:
        """The first output line matching ``pattern``, as it arrives."""
        while True:
            try:
                line = self._fresh.get(timeout=STEP_TIMEOUT)
            except queue.Empty:
                pytest.fail(f"no line matching {pattern!r}: {self.output}")
            if line is None:
                pytest.fail(f"exited before {pattern!r}: {self.output}")
            match = re.search(pattern, line)
            if match:
                return match

    def interrupt(self) -> int:
        """Send one SIGINT; the exit code once the process is gone."""
        self.process.send_signal(signal.SIGINT)
        code = self.process.wait(timeout=STEP_TIMEOUT)
        self._reader.join(timeout=STEP_TIMEOUT)
        assert not self._reader.is_alive(), "output still open after exit"
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=STEP_TIMEOUT)
        self._reader.join(timeout=STEP_TIMEOUT)
        self.process.stdout.close()

    @property
    def output(self) -> str:
        return "".join(self.lines)
