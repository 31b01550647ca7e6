"""One closed-loop client: an in-process CLI call under a wall-clock deadline."""
from __future__ import annotations

import contextlib
import io
import signal
import time
from dataclasses import dataclass


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM.  A BaseException, so the library's own
    `except Exception` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the main thread after `seconds` of wall time."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    wall: float
    cpu: float
    error: str | None  # "deadline", "<Type>: <message>" for an uncaught exception


def call(main, argv: list[str], limit: float) -> Outcome:
    """Run main(argv) with stdout and stderr captured; time wall and CPU."""
    out = io.StringIO()
    rc = None
    error = None
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with deadline(limit), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    except DeadlineExceeded:
        error = "deadline"
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return Outcome(rc, out.getvalue(), wall, cpu, error)
