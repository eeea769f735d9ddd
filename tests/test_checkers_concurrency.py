"""Tests for the concurrency analysis passes and reporting surfaces.

Covers the wait-graph pass (wg-*), the framework's stale-suppression
rule (lint-unused-allow) and the SARIF report.  Same
fixture style as test_checkers.py: snippets written into a synthetic
``src/repro/...`` mini-tree, because checker scoping is repo-relative.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.checkers import PASSES, run_lint
from repro.cli import main


def make_repo(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")
    (tmp_path / "src" / "repro").mkdir(parents=True, exist_ok=True)
    return tmp_path


# ----------------------------------------------------------------------
# wait-graph fixtures
# ----------------------------------------------------------------------
_WG_MESSAGES = '''\
from dataclasses import dataclass

__all__ = ["Ping", "Pong"]


@dataclass
class Ping:
    node: int


@dataclass
class Pong:
    node: int
'''

# Alpha exclusively waits for Ping (sent only by Beta); Beta exclusively
# waits for Pong (sent only by Alpha); neither sends from inside its wait
# loop -> a genuine ring.
_WG_CYCLE = '''\
from .messages import Ping, Pong


class Alpha:
    def run(self, node):
        while True:
            msg = yield from node.mailbox.recv()
            if isinstance(msg, Ping):
                break

    def emit(self, peer):
        peer.mailbox.put(Pong(0))


class Beta:
    def run(self, node):
        while True:
            msg = yield from node.mailbox.recv()
            if isinstance(msg, Pong):
                break

    def emit(self, peer):
        peer.mailbox.put(Ping(0))
'''

# Same ring shape, but each class answers from *inside* its wait loop
# (the datasource-services-ReplayOrder pattern) -> discharged, no report.
_WG_DISCHARGED = '''\
from .messages import Ping, Pong


class Gamma:
    def run(self, node, peer):
        while True:
            msg = yield from node.mailbox.recv()
            if isinstance(msg, Ping):
                self.reply(peer)

    def reply(self, peer):
        peer.mailbox.put(Pong(0))


class Delta:
    def run(self, node, peer):
        while True:
            msg = yield from node.mailbox.recv()
            if isinstance(msg, Pong):
                self.reply(peer)

    def reply(self, peer):
        peer.mailbox.put(Ping(0))
'''

# The waiting side routes unmatched traffic through a dispatcher (the
# scheduler's shape) -> non-exclusive wait, no blocking edge, no ring.
_WG_DISPATCHER = '''\
from .messages import Ping, Pong


class Server:
    def run(self, node):
        while True:
            msg = yield from node.mailbox.recv()
            if isinstance(msg, Ping):
                break
            self.dispatch(msg)

    def dispatch(self, msg):
        pass

    def emit(self, peer):
        peer.mailbox.put(Pong(0))


class Client:
    def run(self, node):
        while True:
            msg = yield from node.mailbox.recv()
            if isinstance(msg, Pong):
                break

    def emit(self, peer):
        peer.mailbox.put(Ping(0))
'''

_WG_GHOST = '''\
from .messages import Ping


class Ghost:
    def run(self, node):
        while True:
            msg = yield from node.mailbox.recv()
            if isinstance(msg, Ping):
                break
'''


def test_wg_cycle_detected(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _WG_MESSAGES,
        "src/repro/core/actors.py": _WG_CYCLE,
    })
    found = [v for v in run_lint(root, select=["wg-"])
             if v.rule == "wg-cycle"]
    assert len(found) == 1
    msg = found[0].message
    assert "Alpha" in msg and "Beta" in msg
    assert "Ping" in msg and "Pong" in msg


def test_wg_cycle_discharged_by_sends_while_waiting(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _WG_MESSAGES,
        "src/repro/core/actors.py": _WG_DISCHARGED,
    })
    assert run_lint(root, select=["wg-"]) == []


def test_wg_dispatcher_wait_is_non_exclusive(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _WG_MESSAGES,
        "src/repro/core/actors.py": _WG_DISPATCHER,
    })
    assert run_lint(root, select=["wg-"]) == []


def test_wg_cycle_suppressable_on_wait_method(tmp_path):
    suppressed = _WG_CYCLE.replace(
        "class Alpha:\n    def run(self, node):",
        "class Alpha:\n    def run(self, node):"
        "  # repro: allow[wg-cycle]",
    )
    assert "allow[wg-cycle]" in suppressed
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _WG_MESSAGES,
        "src/repro/core/actors.py": suppressed,
    })
    assert run_lint(root, select=["wg-"]) == []


def test_wg_no_sender(tmp_path):
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _WG_MESSAGES,
        "src/repro/core/actors.py": _WG_GHOST,
    })
    found = [v for v in run_lint(root, select=["wg-"])
             if v.rule == "wg-no-sender"]
    assert len(found) == 1
    assert "Ghost.run" in found[0].message and "Ping" in found[0].message


def test_wg_no_sender_sees_rows_a_layer_merges_into_an_inherited_table(tmp_path):
    """The join-side form: a subclass with no mailbox wait of its own adds
    rows with ``_on_*`` handlers of its own; its base's dispatching loop
    now waits for them, so each still needs a sender."""
    layer = (
        "from .messages import Ping, Pong\n\n\n"
        "class Base:\n"
        "    def run(self, node):\n"
        "        while True:\n"
        "            msg = yield from node.mailbox.recv()\n"
        "            self.dispatch(msg)\n\n"
        "    def _on_pong(self, msg: Pong):\n"
        "        self.node.mailbox.put(Pong(0))\n\n\n"
        "class Layer(Base):\n"
        "    def _on_ping(self, msg: Ping):\n"
        "        pass\n"
    )
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _WG_MESSAGES,
        "src/repro/core/actors.py": layer,
    })
    found = [v for v in run_lint(root, select=["wg-"])
             if v.rule == "wg-no-sender"]
    assert len(found) == 1
    assert "Layer._handlers" in found[0].message and "Ping" in found[0].message


def test_wg_no_sender_reads_the_kinds_of_typed_waits(tmp_path):
    """A typed wait names its classes as call arguments: ``gather``'s
    first, every one of ``await_message``'s.  Each method waiting for a
    class nothing constructs is named; ``Pong``, which ``reply`` builds,
    is not reported."""
    waits = (
        "from .messages import Ping, Pong\n\n\n"
        "class Coordinator:\n"
        "    def fan_in(self, nodes):\n"
        "        yield from self.gather(Ping, set(nodes), timeout=1.0)\n\n"
        "    def one(self):\n"
        "        return (yield from self.await_message(Pong, Ping))\n\n"
        "    def reply(self, peer):\n"
        "        peer.mailbox.put(Pong(0))\n"
    )
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _WG_MESSAGES,
        "src/repro/core/actors.py": waits,
    })
    found = [v for v in run_lint(root, select=["wg-"])
             if v.rule == "wg-no-sender"]
    assert sorted(v.message.split(" waits for ")[0] for v in found) == [
        "Coordinator.fan_in", "Coordinator.one"]
    assert all(" waits for Ping," in v.message for v in found)


def test_wg_no_sender_satisfied_from_sibling_dir(tmp_path):
    # a constructor anywhere in core/cluster/workload counts as a sender
    root = make_repo(tmp_path, {
        "src/repro/core/messages.py": _WG_MESSAGES,
        "src/repro/core/actors.py": _WG_GHOST,
        "src/repro/workload/driver.py":
            "from ..core.messages import Ping\n\n"
            "def kick(box):\n    box.put(Ping(0))\n",
    })
    assert run_lint(root, select=["wg-"]) == []


# ----------------------------------------------------------------------
# lint-unused-allow
# ----------------------------------------------------------------------
def test_unused_allow_reported(tmp_path):
    snippet = "def f():\n    return 1  # repro: allow[det-wallclock]\n"
    root = make_repo(tmp_path, {"src/repro/sim/mod.py": snippet})
    found = run_lint(root)
    assert [v.rule for v in found] == ["lint-unused-allow"]
    assert "det-wallclock" in found[0].message and found[0].line == 2


def test_consumed_allow_not_reported(tmp_path):
    snippet = ("import time\n\ndef f():\n"
               "    return time.time()  # repro: allow[det-wallclock]\n")
    root = make_repo(tmp_path, {"src/repro/sim/mod.py": snippet})
    assert run_lint(root) == []


def test_unused_allow_skipped_under_select(tmp_path):
    # a selected run exercises only some passes; the unexercised ones
    # would make every suppression look stale, so the rule stays off
    snippet = "def f():\n    return 1  # repro: allow[det-wallclock]\n"
    root = make_repo(tmp_path, {"src/repro/sim/mod.py": snippet})
    assert run_lint(root, select=["det-"]) == []


def test_cli_list_includes_new_passes(capsys):
    rc = main(["lint", "--list"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "waitgraph" in out


# ----------------------------------------------------------------------
# SARIF report
# ----------------------------------------------------------------------
def test_sarif_output_shape(tmp_path, capsys):
    make_repo(tmp_path, {
        "src/repro/sim/mod.py": "import time\n\ndef f():\n    return time.time()\n",
    })
    rc = main(["lint", "--root", str(tmp_path), "--format", "sarif"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1 and doc["version"] == "2.1.0"
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    # exactly the rules the passes declare, each with its pass's docstring
    ids = [r["id"] for r in driver["rules"]]
    assert sorted(ids) == sorted(
        [rule for cls in PASSES for rule in cls.rules] + ["lint-unused-allow"])
    assert all(r["fullDescription"]["text"] for r in driver["rules"])
    (result,) = run["results"]
    assert result["ruleId"] == "det-wallclock"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/sim/mod.py"
    assert loc["region"]["startLine"] == 4

