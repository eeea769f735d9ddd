"""Resource-safety pass: interrupt-safe waits and paired releases.

The PR-6 livelock class: a process parked on a bare ``Resource.acquire()``
or ``Mailbox.get()`` is killed by the fault plan, its queued request is
never withdrawn, and the next release/put is handed to the corpse —
leaking a slot (or a message) forever.  The fix is mechanical
(``grab()``/``use()``/``recv()``/``try-finally``), so this pass makes the
whole class unshippable instead of rediscovering it per-bug:

* ``rs-bare-acquire`` — any ``.acquire()`` call outside the primitive's
  own module.  ``acquire()`` returns a raw event with no interrupt
  protection; every caller should go through ``grab()`` (indefinite
  hold) or ``use(duration)`` (timed hold).
* ``rs-unpaired-grab`` — a ``X.grab()`` whose function has no
  ``X.release()`` inside a ``finally`` block.  A grab abandoned between
  the grant and the release (crash, early return, raised error) leaks
  the slot.  Cross-actor hand-offs (the receive-window credit protocol,
  where the *consumer* releases) are real and intentional — they carry a
  ``# repro: allow[rs-unpaired-grab]`` with the reasoning.
* ``rs-mailbox-get`` — a ``yield X.get()`` on a mailbox (no chance to
  withdraw the getter on Interrupt), or a bound ``ev = X.get()`` in a
  function that never calls ``X.cancel_get``.  Use
  ``yield from X.recv()``.

Receiver matching is name-based (dotted paths), like the protocol pass:
``self.node.mailbox.get()`` is a mailbox get because the receiver path
ends in ``mailbox``; ``cfg.get(...)`` on a dict is not.  Local names
bound from a ``Mailbox(...)`` constructor are tracked file-wide.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .base import FileChecker, SourceFile, Violation, register
from ._astutil import dotted_name, own_nodes

__all__ = ["ResourceSafetyChecker"]

#: the module that defines the primitives (their own internals are exempt)
_SYNC_REL = "src/repro/sim/sync.py"

#: receiver path segments that identify a mailbox object
_MAILBOXY = frozenset({"mailbox", "inbox"})


def _receiver(call: ast.Call) -> str | None:
    """Dotted path of ``X`` in ``X.attr()``, else None."""
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value)
    return None


def _mailbox_bindings(tree: ast.AST) -> set[str]:
    """Names (plain or self-dotted) assigned from ``Mailbox(...)``
    constructor calls, file-wide."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            cls = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if cls != "Mailbox":
                continue
            for t in node.targets:
                name = dotted_name(t)
                if name is not None:
                    bound.add(name)
    return bound


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _method_calls(fn: ast.AST, attr: str) -> list[ast.Call]:
    return [
        node for node in own_nodes(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    ]


def _released_in_finally(fn: ast.AST, receiver: str) -> bool:
    """Does ``fn`` contain ``<receiver>.release()`` inside a finally?"""
    for node in own_nodes(fn):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) \
                        and isinstance(sub.func, ast.Attribute) \
                        and sub.func.attr == "release" \
                        and dotted_name(sub.func.value) == receiver:
                    return True
    return False


@register
class ResourceSafetyChecker(FileChecker):
    """Interrupt-safe acquisition and guaranteed release (PR-6 bug class)."""

    name = "resourcesafety"
    rules = ("rs-bare-acquire", "rs-unpaired-grab", "rs-mailbox-get")
    scope = ("src/repro/sim", "src/repro/core", "src/repro/cluster",
             "src/repro/hashing", "src/repro/workload")
    explanations = {
        "rs-bare-acquire": (
            "Resource.acquire() returns a raw event.  A process killed "
            "while parked on it leaves the request queued; the next "
            "release() hands the slot to the corpse and it leaks forever "
            "(the PR-6 livelock).  Use `yield from res.grab()` for an "
            "indefinite hold or `yield from res.use(duration)` for a "
            "timed one — both withdraw the request when an exception is "
            "thrown into the waiting process."
        ),
        "rs-unpaired-grab": (
            "grab() hands the caller a held slot; if no release() is "
            "reachable on *every* exit path the slot leaks on the first "
            "crash or early return.  Put the release in a finally block "
            "of the same function.  Intentional cross-actor hand-offs "
            "(acquire here, release in the consumer — e.g. receive-window "
            "credits) are the documented exception: suppress with "
            "`# repro: allow[rs-unpaired-grab]` and a comment naming the "
            "releasing actor."
        ),
        "rs-mailbox-get": (
            "A pending Mailbox.get() abandoned on Interrupt stays in the "
            "getter queue, so the next put() is consumed by the dead "
            "waiter and the message is silently lost.  Use `msg = yield "
            "from box.recv()` (withdraws the getter on any exception), or "
            "bind the event and call cancel_get() on the interrupt path."
        ),
    }

    def check_file(self, source: SourceFile) -> Iterator[Violation]:
        if source.rel == _SYNC_REL:
            return
        mailboxy = _mailbox_bindings(source.tree)

        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "acquire":
                yield source.violation(
                    node, "rs-bare-acquire",
                    "bare acquire() is not interrupt-safe — use grab() "
                    "or use() (see `repro lint --explain rs-bare-acquire`)",
                )

        for fn in _functions(source.tree):
            yield from self._check_grabs(source, fn)
            yield from self._check_mailbox_gets(source, fn, mailboxy)

    # ------------------------------------------------------------------
    def _check_grabs(
        self, source: SourceFile, fn: ast.AST
    ) -> Iterator[Violation]:
        for call in _method_calls(fn, "grab"):
            receiver = _receiver(call)
            if receiver is None:
                continue
            if not _released_in_finally(fn, receiver):
                yield source.violation(
                    call, "rs-unpaired-grab",
                    f"{receiver}.grab() has no {receiver}.release() in a "
                    "finally block of this function — the slot leaks on "
                    "any non-straight-line exit",
                )

    def _check_mailbox_gets(
        self, source: SourceFile, fn: ast.AST, mailboxy: set[str]
    ) -> Iterator[Violation]:
        def is_mailbox(receiver: str | None) -> bool:
            if receiver is None:
                return False
            return receiver.rsplit(".", 1)[-1] in _MAILBOXY \
                or receiver in mailboxy

        cancels = {
            _receiver(c) for c in _method_calls(fn, "cancel_get")
        }
        for node in own_nodes(fn):
            # yield X.get(): the waiting process cannot cancel on Interrupt
            if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
                call = node.value
                if isinstance(call.func, ast.Attribute) \
                        and call.func.attr == "get" \
                        and is_mailbox(_receiver(call)):
                    yield source.violation(
                        call, "rs-mailbox-get",
                        "yield mailbox.get() cannot withdraw the getter on "
                        "Interrupt — use `yield from mailbox.recv()`",
                    )
            # ev = X.get() with no X.cancel_get anywhere in the function
            elif isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Attribute) \
                    and node.value.func.attr == "get":
                receiver = _receiver(node.value)
                if is_mailbox(receiver) and receiver not in cancels:
                    yield source.violation(
                        node, "rs-mailbox-get",
                        f"pending getter on {receiver} is never withdrawn "
                        f"({receiver}.cancel_get missing) — an Interrupt "
                        "while waiting loses the next message",
                    )

