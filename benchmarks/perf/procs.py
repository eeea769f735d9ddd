"""Process hygiene: nothing the benchmark starts outlives it.

Three mechanisms, for the three ways out of ``run.py``:

* it returns or raises — ``stop_descendants`` in its ``finally`` ends and
  reaps every process below it.  ``run.py`` is a *child subreaper*, so a
  grandchild whose parent is gone (``run_fleet``'s spawn workers,
  multiprocessing's resource tracker) is re-parented to it, not to init, and
  ``waitpid`` sees it end;
* it is signalled (the driver's time-out, Ctrl-C) or its own deadline fires —
  ``raise_on_signals`` turns that into an exception, so the same ``finally``
  runs;
* it is killed outright — every child asked for SIGKILL on its parent's death
  (``die_with_parent``: the harness scripts at import, which covers the spawn
  workers re-importing ``worker.py`` as ``__mp_main__``).

Linux only, like the rest of the harness (``sched_getaffinity``, ``/proc``).
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from pathlib import Path

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


class Stopped(BaseException):
    """A signal or the deadline ended the run; carries the exit code."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"stopped by {signal.Signals(signum).name}")
        self.exit_code = 128 + signum


def _prctl(option: int, arg: int) -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(option, arg, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl failed")


def die_with_parent(parent: int | None = None) -> None:
    """SIGKILL for this process the moment its parent (pid ``parent``) ends."""
    parent = parent or os.getppid()
    _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # it ended before the request was in place
        os._exit(1)


def become_subreaper() -> None:
    _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def raise_on_signals(deadline_s: int) -> None:
    """``Stopped`` on SIGTERM/SIGINT/SIGHUP, and on SIGALRM ``deadline_s`` from now."""

    def stop(signum: int, _frame: object) -> None:
        raise Stopped(signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGALRM):
        signal.signal(sig, stop)
    signal.alarm(deadline_s)


def descendants(root: int | None = None) -> list[int]:
    """Pids below ``root`` (default: this process), zombies included."""
    parent_of: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # "pid (comm) state ppid ..."; comm may itself hold ") "
            fields = (entry / "stat").read_text().rsplit(") ", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we were looking
        parent_of[int(entry.name)] = int(fields[1])
    me, found = root or os.getpid(), []
    for pid in parent_of:
        up = pid
        while up in parent_of and up != me:
            up = parent_of[up]
        if up == me and pid != me:
            found.append(pid)
    return found


def _reap() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG) != (0, 0):
            pass
    except ChildProcessError:
        pass  # no children left


def stop_descendants(grace_s: float = 2.0) -> int:
    """Return once every process below this one has ended and is reaped.

    Helpers that end by themselves once their parent is gone get ``grace_s``
    to do so; what is left then is killed.  Returns how many were killed.
    """
    signals_off = {signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGALRM}
    signal.alarm(0)
    signal.pthread_sigmask(signal.SIG_BLOCK, signals_off)  # finish the job
    killed: set[int] = set()
    kill_from = time.monotonic() + grace_s
    while True:
        _reap()
        left = descendants()
        if not left:
            return len(killed)
        if time.monotonic() >= kill_from:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)
