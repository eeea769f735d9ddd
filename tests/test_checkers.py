"""Unit tests for the repo's static-analysis framework (repro.checkers).

Each rule gets a fixture pair: a clean snippet that must pass and a
seeded-violation snippet that must fail with exactly that rule id.  The
fixtures are written into a synthetic mini-repo tree (``src/repro/...``)
because checker scoping is repo-relative.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.checkers import PASSES, Checker, LintError, Violation, run_lint
from repro.checkers.base import SourceFile
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_repo(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialize a mini repo tree; keys are repo-relative paths."""
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")
    # run_lint requires a src/repro directory to treat the root as a repo.
    (tmp_path / "src" / "repro").mkdir(parents=True, exist_ok=True)
    return tmp_path


def rules_of(violations: list[Violation]) -> set[str]:
    return {v.rule for v in violations}


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("snippet,rule", [
    ("import time\n\ndef f():\n    return time.time()\n",
     "det-wallclock"),
    ("from time import perf_counter\n\ndef f():\n    return perf_counter()\n",
     "det-wallclock"),
    ("from datetime import datetime\n\ndef f():\n    return datetime.now()\n",
     "det-wallclock"),
    ("import random\n\ndef f():\n    return random.random()\n",
     "det-global-rng"),
    ("import numpy as np\n\ndef f(a):\n    np.random.shuffle(a)\n",
     "det-global-rng"),
    ("import os\n\ndef f():\n    return os.urandom(8)\n",
     "det-global-rng"),
    ("def f():\n    s = {1, 2, 3}\n    for x in s:\n        print(x)\n",
     "det-set-iter"),
    ("def f(pending: set[int]):\n    return [x for x in pending]\n",
     "det-set-iter"),
    ("class C:\n    def __init__(self):\n        self.live = set()\n"
     "    def f(self):\n        return self.live.pop()\n",
     "det-set-iter"),
    ("import os\n\ndef f(p):\n    return os.listdir(p)\n",
     "det-fs-order"),
    ("from pathlib import Path\n\ndef f(p: Path):\n"
     "    return list(p.iterdir())\n",
     "det-fs-order"),
])
def test_determinism_violations(tmp_path, snippet, rule):
    root = make_repo(tmp_path, {"src/repro/sim/mod.py": snippet})
    found = run_lint(root)
    assert rule in rules_of(found), found


@pytest.mark.parametrize("snippet", [
    # seeded RNG is the sanctioned idiom
    "import numpy as np\n\ndef f(seed):\n    return np.random.default_rng(seed)\n",
    # sorted() wrapping sanctions sets and filesystem enumeration
    "def f():\n    s = {1, 2, 3}\n    return [x for x in sorted(s)]\n",
    "import os\n\ndef f(p):\n    return sorted(os.listdir(p))\n",
    # membership tests and len() on sets are order-independent
    "def f(pending: set[int], x):\n    return x in pending and len(pending)\n",
    # simulated clocks are fine: the ban is on the *wall* clock
    "def f(sim):\n    return sim.now\n",
])
def test_determinism_clean(tmp_path, snippet):
    root = make_repo(tmp_path, {"src/repro/sim/mod.py": snippet})
    assert run_lint(root) == []


def test_determinism_out_of_scope_dir_is_ignored(tmp_path):
    # The determinism pass scopes to sim/core/cluster/hashing only.
    snippet = "import time\n\ndef f():\n    return time.time()\n"
    root = make_repo(tmp_path, {"src/repro/analysis/mod.py": snippet})
    assert "det-wallclock" not in rules_of(run_lint(root))


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------
def test_suppression_drops_matching_rule(tmp_path):
    snippet = ("import time\n\ndef f():\n"
               "    return time.time()  # repro: allow[det-wallclock]\n")
    root = make_repo(tmp_path, {"src/repro/sim/mod.py": snippet})
    assert run_lint(root) == []


def test_suppression_is_per_rule(tmp_path):
    snippet = ("import time\n\ndef f():\n"
               "    return time.time()  # repro: allow[det-set-iter]\n")
    root = make_repo(tmp_path, {"src/repro/sim/mod.py": snippet})
    assert "det-wallclock" in rules_of(run_lint(root))


def test_suppression_marker_in_string_literal_is_inert(tmp_path):
    snippet = ('import time\n\ndef f():\n'
               '    x = "# repro: allow[det-wallclock]"\n'
               '    return time.time(), x\n')
    root = make_repo(tmp_path, {"src/repro/sim/mod.py": snippet})
    assert "det-wallclock" in rules_of(run_lint(root))


def test_suppression_multiple_rules_one_comment(tmp_path):
    snippet = ("import time, os\n\ndef f(p):\n"
               "    return time.time(), os.listdir(p)"
               "  # repro: allow[det-wallclock, det-fs-order]\n")
    root = make_repo(tmp_path, {"src/repro/sim/mod.py": snippet})
    assert run_lint(root) == []


# ----------------------------------------------------------------------
# fault safety
# ----------------------------------------------------------------------
@pytest.mark.parametrize("exc", ["Exception", "BaseException",
                                 "UnrecoverableFaultError"])
def test_swallowed_broad_handler_flagged(tmp_path, exc):
    snippet = (f"def f():\n    try:\n        g()\n"
               f"    except {exc}:\n        pass\n")
    root = make_repo(tmp_path, {"src/repro/core/mod.py": snippet})
    assert "fault-swallowed" in rules_of(run_lint(root))


def test_reraising_broad_handler_clean(tmp_path):
    snippet = ("def f():\n    try:\n        g()\n"
               "    except BaseException:\n        cleanup()\n        raise\n")
    root = make_repo(tmp_path, {"src/repro/core/mod.py": snippet})
    assert run_lint(root) == []


def test_narrow_handler_clean(tmp_path):
    snippet = ("def f(xs, x):\n    try:\n        xs.remove(x)\n"
               "    except ValueError:\n        pass\n")
    root = make_repo(tmp_path, {"src/repro/core/mod.py": snippet})
    assert run_lint(root) == []


# ----------------------------------------------------------------------
# protocol exhaustiveness
# ----------------------------------------------------------------------
_MINI_MESSAGES = '''\
from dataclasses import dataclass

__all__ = ["Ping"]


@dataclass
class Ping:
    node: int


@dataclass
class Orphan:
    node: int
'''

_MINI_DISPATCH = '''\
from .messages import Ping


class Handler:
    def dispatch(self, msg):
        if isinstance(msg, Ping):
            return msg.node
        raise RuntimeError(msg)

    def hello(self, ctx, a, b):
        yield from ctx.send(a, b, Ping(1))
'''


def test_protocol_unhandled_and_unexported(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _MINI_MESSAGES,
        "src/repro/core/handler.py": _MINI_DISPATCH,
    })
    found = run_lint(root)
    assert {"proto-unhandled", "proto-missing-export"} <= rules_of(found)
    orphan = [v for v in found if v.rule == "proto-unhandled"]
    assert len(orphan) == 1 and "Orphan" in orphan[0].message


def test_protocol_unregistered_send(tmp_path):
    dispatch = _MINI_DISPATCH + (
        "\n    def bad(self, ctx, a, b):\n"
        "        yield from ctx.send(a, b, Rogue())\n"
    )
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _MINI_MESSAGES,
        "src/repro/core/handler.py": dispatch,
    })
    found = [v for v in run_lint(root) if v.rule == "proto-unregistered-send"]
    assert len(found) == 1 and "Rogue" in found[0].message


def test_protocol_send_via_local_binding(tmp_path):
    dispatch = _MINI_DISPATCH + (
        "\n    def bad(self, ctx, a, b):\n"
        "        msg = Rogue()\n"
        "        yield from ctx.send(a, b, msg)\n"
    )
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _MINI_MESSAGES,
        "src/repro/core/handler.py": dispatch,
    })
    assert "proto-unregistered-send" in rules_of(run_lint(root))


def test_protocol_handler_table_and_reply_helper(tmp_path):
    """Each class in the message annotation of an ``_on_*`` handler (a
    union names several) is a dispatch arm, a method of another name is
    not, and ``self._reply(...)`` is a send site like any other."""
    table = (
        "from .messages import Orphan, Ping\n\n\n"
        "class Actor:\n"
        "    def _on_ping(self, msg: Ping | Orphan):\n"
        "        yield from self._reply(Rogue())\n"
    )
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _MINI_MESSAGES,
        "src/repro/core/actor.py": table,
    })
    found = run_lint(root)
    assert "proto-unhandled" not in rules_of(found)
    sends = [v for v in found if v.rule == "proto-unregistered-send"]
    assert len(sends) == 1 and "Rogue" in sends[0].message
    root = make_repo(tmp_path, {"src/repro/core/actor.py": table.replace(
        "Ping | Orphan):", "Ping):\n        pass\n\n"
        "    def note(self, msg: Orphan):")})
    orphan = [v for v in run_lint(root) if v.rule == "proto-unhandled"]
    assert len(orphan) == 1 and "Orphan" in orphan[0].message


def test_protocol_typed_waits_are_dispatch_arms(tmp_path):
    """``await_message(Cls)`` and ``gather(Cls, senders)`` name the
    classes they receive; ``gather``'s later arguments are not classes."""
    waits = (
        "from .messages import Orphan, Ping\n\n\n"
        "class Waiter:\n"
        "    def run(self, nodes):\n"
        "        yield from self.await_message(Ping)\n"
        "        yield from self.gather(Ping, Orphan)\n"
    )
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _MINI_MESSAGES,
        "src/repro/core/waiter.py": waits,
    })
    orphan = [v for v in run_lint(root) if v.rule == "proto-unhandled"]
    assert len(orphan) == 1 and "Orphan" in orphan[0].message
    root = make_repo(tmp_path, {
        "src/repro/core/waiter.py": waits.replace("Ping)\n", "Ping, Orphan)\n", 1),
    })
    assert "proto-unhandled" not in rules_of(run_lint(root))


# ----------------------------------------------------------------------
# framework behavior
# ----------------------------------------------------------------------
def test_violations_sorted_and_formatted(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/sim/b.py": "import time\n\ndef f():\n    return time.time()\n",
        "src/repro/sim/a.py": "import os\n\ndef f(p):\n    return os.listdir(p)\n",
    })
    found = run_lint(root)
    assert [v.path for v in found] == ["src/repro/sim/a.py", "src/repro/sim/b.py"]
    assert found[0].format().startswith("src/repro/sim/a.py:4: det-fs-order ")


def test_select_filters_passes(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/sim/mod.py":
            "import time\n\ndef f():\n    try:\n        return time.time()\n"
            "    except Exception:\n        pass\n",
    })
    assert rules_of(run_lint(root)) == {"det-wallclock", "fault-swallowed"}
    assert rules_of(run_lint(root, select=["det-"])) == {"det-wallclock"}
    assert rules_of(run_lint(root, select=["faultsafety"])) == {"fault-swallowed"}


def test_syntax_error_raises_lint_error(tmp_path):
    root = make_repo(tmp_path, {"src/repro/sim/mod.py": "def f(:\n"})
    with pytest.raises(LintError, match="cannot parse"):
        run_lint(root)


def test_bad_path_raises_lint_error(tmp_path):
    root = make_repo(tmp_path, {})
    with pytest.raises(LintError, match="no such file"):
        run_lint(root, paths=["does/not/exist.py"])


def test_sourcefile_records_suppression_lines(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("x = 1  # repro: allow[rule-a,rule-b]\ny = 2\n")
    sf = SourceFile(tmp_path, p)
    assert sf.suppressed(1, "rule-a") and sf.suppressed(1, "rule-b")
    assert not sf.suppressed(2, "rule-a")


# ----------------------------------------------------------------------
# self-hosting + CLI
# ----------------------------------------------------------------------
def test_repo_tree_is_lint_clean():
    assert run_lint(REPO_ROOT) == []


def test_every_checker_class_is_a_pass():
    """Every concrete Checker a repro.checkers module defines runs: it
    appears in PASSES, exactly once."""
    import importlib
    import inspect
    import pkgutil

    import repro.checkers

    defined = []
    for info in pkgutil.iter_modules(repro.checkers.__path__):
        module = importlib.import_module(f"repro.checkers.{info.name}")
        defined += [
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and issubclass(cls, Checker)
            and not inspect.isabstract(cls) and cls.__module__ == module.__name__
        ]
    assert sorted(c.__name__ for c in PASSES) == sorted(c.__name__ for c in defined)


def test_every_registered_rule_has_exactly_one_docs_row():
    """docs/STATIC_ANALYSIS.md's rule tables and the passes in PASSES
    name the same rules, each once: a rule cannot ship undocumented, and
    a removed rule's row cannot linger."""
    registered = sorted(rule for cls in PASSES for rule in cls.rules)
    rows, in_rule_table = [], False
    doc = REPO_ROOT / "docs" / "STATIC_ANALYSIS.md"
    for line in doc.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            in_rule_table = False
        elif line.startswith("| rule |"):
            in_rule_table = True
        elif in_rule_table and not line.startswith("|---"):
            rows.append(line.split("|")[1].strip().strip("`"))
    assert sorted(rows) == registered


def test_cli_lint_clean_exit_zero(capsys):
    rc = main(["lint", "--root", str(REPO_ROOT)])
    out = capsys.readouterr().out
    assert rc == 0 and "clean" in out


def test_cli_lint_violations_exit_one(tmp_path, capsys):
    make_repo(tmp_path, {
        "src/repro/sim/mod.py": "import time\n\ndef f():\n    return time.time()\n",
    })
    rc = main(["lint", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "src/repro/sim/mod.py:4: det-wallclock" in out


def test_cli_lint_bad_path_exit_two(tmp_path, capsys):
    """A missing path or a file that is not UTF-8 is an invocation error:
    exit 2 with one stderr line, not findings and not a traceback."""
    root = make_repo(tmp_path, {})
    (root / "src/repro/latin1.py").write_bytes(b"# caf\xe9\n")
    for argv, expected in [
        (["--root", str(REPO_ROOT), "no/such/dir"], "no such file"),
        (["--root", str(root)], "cannot read src/repro/latin1.py"),
    ]:
        rc = main(["lint", *argv])
        err = capsys.readouterr().err
        assert rc == 2 and expected in err and err.count("\n") == 1


def test_cli_lint_list_passes(capsys):
    rc = main(["lint", "--list"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines == [f"{cls.name}: {', '.join(cls.rules)}" for cls in PASSES]
    assert {cls.name for cls in PASSES} == {
        "determinism", "faultsafety", "protocol", "waitgraph"}
