"""Protocol exhaustiveness pass: messages, dispatch arms and send sites.

The runtime's wire protocol is the set of public dataclasses in
``repro/core/messages.py``.  Every actor dispatches through a table that
``repro.core.actor.Actor`` derives from its handler signatures: a method
``_on_<what>(self, msg: Cls)`` is the row for ``Cls`` (``msg: A | B`` for
two), and this pass reads the rows off the same signatures.  The
scheduler's waits name their classes (``await_message(Cls)``,
``gather(Cls, ...)``); the other waits use ``isinstance`` arms.
Three rules keep the two sides from drifting (:attr:`ProtocolChecker.rules`).
A message nobody can receive is dead protocol — or, worse, a deadlock
waiting for the sender's timeout; an ad-hoc payload bypasses
``nbytes``/``kind`` accounting and breaks the byte-conservation checks;
the ``__all__`` export lets star-importing strategy code see the full
protocol.

Payload classification is name-based: a send payload that is a direct
constructor call (``send(src, dst, SpillOrder(...))``) or a local name
assigned from one (``msg = DataChunk(...); send(..., msg)``) is checked;
payloads that flow in as parameters are invisible to this pass — the
runtime mirror test in ``tests/`` covers those.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import ClassVar

from ._astutil import isinstance_class_names, sent_classes, typed_wait_kinds
from .base import Checker, Project, SourceFile, Violation

__all__ = ["ProtocolChecker"]

_MESSAGES_REL = "src/repro/core/messages.py"

#: transport entry points whose final positional argument is the payload
_SEND_ATTRS = frozenset({"send", "send_to_join", "_reply"})

#: name prefix of an actor's message handlers (``repro.core.actor``)
_HANDLER_PREFIX = "_on_"


def _message_classes(source: SourceFile) -> tuple[list[ast.ClassDef], set[str]]:
    """Concrete public dataclasses in messages.py, plus its ``__all__``."""
    classes: list[ast.ClassDef] = []
    exported: set[str] = set()
    for node in source.tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if isinstance(target, ast.Name) and target.id == "dataclass":
                    classes.append(node)
                    break
                if isinstance(target, ast.Attribute) and target.attr == "dataclass":
                    classes.append(node)
                    break
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id == "__all__" \
                        and isinstance(node.value, (ast.List, ast.Tuple)):
                    exported = {
                        e.value for e in node.value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)
                    }
    return classes, exported


def handler_rows(tree: ast.AST) -> set[str]:
    """Class names the ``_on_*`` handlers under ``tree`` take: every name
    in the annotation of each one's message parameter (``msg: A | B``)."""
    rows: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and len(node.args.args) > 1 \
                and node.name.startswith(_HANDLER_PREFIX) \
                and node.args.args[1].annotation is not None:
            for part in ast.walk(node.args.args[1].annotation):
                if isinstance(part, ast.Name):
                    rows.add(part.id)
                elif isinstance(part, ast.Attribute):
                    rows.add(part.attr)
    return rows


def _dispatch_arms(source: SourceFile) -> set[str]:
    """Class names referenced in dispatch position in one file."""
    return (handler_rows(source.tree)
            | isinstance_class_names(ast.walk(source.tree))
            | typed_wait_kinds(ast.walk(source.tree)))


class ProtocolChecker(Checker):
    """messages.py, its dispatch arms, and transport payloads stay in sync."""

    name = "protocol"
    rules: ClassVar[dict[str, str]] = {
        "proto-unhandled": "a public message dataclass with no dispatch arm "
                           "anywhere in `repro/core`: an actor's handler "
                           "`_on_*(self, msg: Cls)` (its dispatch-table row), "
                           "a typed wait (`await_message(Cls)`, `gather(Cls, "
                           "...)`) or an `isinstance(msg, Cls)`",
        "proto-unregistered-send": "a transport send (`ctx.send`, "
                                   "`send_to_join`, `JoinProcess._reply`, "
                                   "`Network.send`) whose payload class is "
                                   "not defined in `core/messages.py`",
        "proto-missing-export": "a public message dataclass missing from the "
                                "module's `__all__`",
    }

    def check(self, project: Project) -> Iterator[Violation]:
        messages = project.get(_MESSAGES_REL)
        if messages is None:
            # Linting a subtree that does not include the protocol module.
            return
        classes, exported = _message_classes(messages)
        names = {c.name for c in classes}

        refs: set[str] = set()
        for f in project.in_dir("src/repro/core"):
            if f.rel != _MESSAGES_REL:
                refs |= _dispatch_arms(f)

        for cls in classes:
            if cls.name not in refs:
                yield messages.violation(
                    cls, "proto-unhandled",
                    f"message {cls.name} has no dispatch arm anywhere in "
                    "repro/core — receivers would drop or deadlock on it",
                )
            if cls.name not in exported:
                yield messages.violation(
                    cls, "proto-missing-export",
                    f"message {cls.name} is missing from __all__",
                )

        for f in project.in_dir("src/repro/core", "src/repro/cluster"):
            if f.rel == _MESSAGES_REL:
                continue
            for node, candidates in sent_classes(ast.walk(f.tree), _SEND_ATTRS):
                for cand in sorted(candidates - names):
                    yield f.violation(
                        node, "proto-unregistered-send",
                        f"send payload {cand} is not a registered message "
                        "class in core/messages.py",
                    )
