"""Reachability ratchet: which ``src/repro`` functions does the suite call?

A pytest plugin, off unless named::

    PYTHONPATH=src python -m pytest -p tests.reachability

It records, with :func:`sys.setprofile`, every function of ``src/repro``
that runs while the suite runs, forked fleet workers included (a child
appends each function it is first to run to a file of its own, since it
ends in ``os._exit``).  At the end it compares the functions that never
ran with ``tests/unreached.txt`` and fails the session on a function
that is unreached but not listed (new code needs a caller) and on one
that is listed but now reached (the list only shrinks).  Abstract
methods are left out: those marked ``@abstractmethod``, ``@overload``
stubs, ``Protocol`` members, and methods whose body only raises.

Hypothesis draws the same examples on every run under the plugin, so the
record does not move with the draws.  ``--unreached-out PATH`` writes the
list as it should read, keeping the claim of every entry already listed.
"""

from __future__ import annotations

import ast
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LISTED = Path(__file__).resolve().parent / "unreached.txt"
HEADER = ("# Functions of src/repro that the tier-1 suite never calls, with the\n"
          "# open ROADMAP item that will reach or delete each.  Checked by\n"
          "# `python -m pytest -p tests.reachability` (see tests/reachability.py).\n"
          "# path  qualified-name  lines  claimed-by\n")

_prefix = str(SRC) + os.sep
_seen: set[object] = set()  # code objects, of any file
_hits: set[tuple[str, int]] = set()  # (path under src/repro, first line)
_child_log = None
_record_dir: str | None = None


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if code.co_filename.startswith(_prefix):
        key = (code.co_filename[len(_prefix):], code.co_firstlineno)
        _hits.add(key)
        if _child_log is not None:
            _child_log.write(f"{key[0]}\t{key[1]}\n")
            _child_log.flush()


def _in_child() -> None:
    """A forked worker: log each new function to a file of its own."""
    global _child_log
    _child_log = open(os.path.join(_record_dir, f"{os.getpid()}.txt"), "a",
                      encoding="utf-8")


def _abstract(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    names = {getattr(d, "id", getattr(d, "attr", "")) for d in fn.decorator_list}
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return bool(names & {"abstractmethod", "overload"}) or (
        bool(body) and isinstance(body[0], ast.Raise))


def _visit(node, path, prefix, skip_defs, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            protocol = any(getattr(b, "id", getattr(b, "attr", ""))
                           == "Protocol" for b in child.bases)
            _visit(child, path, f"{prefix}{child.name}.", protocol, found)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not skip_defs and not _abstract(child):
                first = min([child.lineno,
                             *(d.lineno for d in child.decorator_list)])
                found[(path, first)] = (prefix + child.name,
                                        child.end_lineno - child.lineno + 1)
            _visit(child, path, f"{prefix}{child.name}.<locals>.", False,
                   found)
        else:
            _visit(child, path, prefix, skip_defs, found)


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """Every ``def`` under ``src/repro`` that counts: ``(path, first line)``
    -> ``(qualified name, lines)``.  The first line is the first
    decorator's, as in ``co_firstlineno``."""
    found: dict[tuple[str, int], tuple[str, int]] = {}
    for file in sorted(SRC.rglob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"))
        _visit(tree, str(file.relative_to(SRC)), "", False, found)
    return found


def read_listed(path: Path = LISTED) -> dict[tuple[str, str], tuple[int, str]]:
    """``tests/unreached.txt``: ``(path, name)`` -> ``(lines, claimed-by)``."""
    listed = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            file, name, lines, claim = line.split(maxsplit=3)
            listed[(file, name)] = (int(lines), claim)
    return listed


def pytest_addoption(parser):
    parser.addoption("--unreached-out", metavar="PATH",
                     help="write the unreached-function list as it should "
                          "read (reachability plugin)")


def pytest_configure(config):
    global _record_dir
    # The same examples on every run, so the record does not depend on
    # what a property happened to draw.
    settings.register_profile("reachability", derandomize=True)
    settings.load_profile("reachability")
    _record_dir = tempfile.mkdtemp(prefix="reachability-")
    os.register_at_fork(after_in_child=_in_child)
    threading.setprofile(_profile)
    sys.setprofile(_profile)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    sys.setprofile(_profile)  # in case a test replaced it
    yield


def pytest_sessionfinish(session, exitstatus):
    sys.setprofile(None)
    threading.setprofile(None)
    hits = set(_hits)
    for log in Path(_record_dir).glob("*.txt"):
        for line in log.read_text(encoding="utf-8").splitlines():
            path, first = line.split("\t")
            hits.add((path, int(first)))
    shutil.rmtree(_record_dir)
    unreached = {(path, name): lines
                 for (path, first), (name, lines) in functions().items()
                 if (path, first) not in hits}
    listed = read_listed()
    problems = [f"unreached, not listed: {p} {n} ({lines} lines)"
                for (p, n), lines in sorted(unreached.items())
                if (p, n) not in listed]
    problems += [f"listed, but reached or gone: {p} {n}"
                 for (p, n) in sorted(listed) if (p, n) not in unreached]
    problems += [f"listed with {listed[key][0]} lines, has {lines}: {' '.join(key)}"
                 for key, lines in sorted(unreached.items())
                 if key in listed and listed[key][0] != lines]
    out = session.config.getoption("--unreached-out")
    if out:
        rows = [f"{p}  {n}  {lines}  {listed.get((p, n), (0, 'unclaimed'))[1]}"
                for (p, n), lines in sorted(unreached.items())]
        Path(out).write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
    session.config._reachability = (problems, len(unreached),
                                    sum(unreached.values()))
    if problems and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, config):
    problems, count, lines = config._reachability
    tr = terminalreporter
    tr.section("reachability")
    tr.write_line(f"{count} functions ({lines} lines) of src/repro never ran")
    for problem in problems:
        tr.write_line(problem)
    if problems:
        tr.write_line("tests/unreached.txt is out of date: give the function "
                      "a caller, or list it with the open item that claims it")
