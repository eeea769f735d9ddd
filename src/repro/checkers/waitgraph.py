"""Protocol wait-graph pass: who blocks on which message, who sends it.

The runtime protocol is request/response between long-lived process
classes (scheduler, join node, data source, pool, backup scheduler).
A *wait-state* is a method that parks on the class's mailbox until a
specific message type arrives (an ``isinstance`` exit condition around a
``recv()`` loop).  Two things can rot as the protocol grows
(:attr:`WaitGraphChecker.rules`): a wait cycle, and a wait no sender can
satisfy.  Dead sends are the protocol pass's job (``proto-unhandled``);
dead *waits* are this one's.  Three refinements keep ``wg-cycle`` honest
on real code:

- a wait-state that routes unmatched traffic through a general
  dispatcher (any ``self._dispatch*`` call, or a table-driven main loop
  reading ``self._handlers`` itself) is *non-exclusive*: it services the
  rest of the protocol while parked, so it contributes no blocking edge
  (the scheduler's recruit/ack waits are this shape) — but it also
  waits, in passing, for every row of the class's handler table
  (``self._handlers``), so those rows need a sender too;
- an edge ``A --m--> B`` is discharged when B's own wait-state in the
  cycle can still *send* m from inside its wait loop (directly or via
  methods it calls) — e.g. an actor parked on its phase signal that
  still executes ReplayOrders, which is exactly what un-blocks a
  scheduler parked on ReplayDone;
- self-edges are ignored (self-sent PollTick ticker patterns).

The message inventory is shared with the protocol-exhaustiveness pass
(same ``messages.py`` parse, same dataclass filter), so the two passes
can never disagree about what the protocol *is*.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import ClassVar
from dataclasses import dataclass, field

from .base import Checker, Project, SourceFile, Violation
from .protocol import (
    _HANDLER_TABLE,
    _MESSAGES_REL,
    _SEND_ATTRS,
    _message_classes,
    handler_table_keys,
)
from ._astutil import (
    dotted_name,
    isinstance_class_names,
    own_nodes,
    sent_classes,
)

__all__ = ["WaitGraphChecker"]

#: receiver path segments that identify a mailbox object
_MAILBOXY = frozenset({"mailbox", "inbox"})

#: directories scanned for senders of a message
_SENDER_DIRS = ("src/repro/core", "src/repro/cluster", "src/repro/workload")


def _is_mailbox_wait(call: ast.Call) -> bool:
    """``X.recv()`` where X's dotted path ends in a mailbox."""
    if not isinstance(call.func, ast.Attribute):
        return False
    if call.func.attr != "recv":
        return False
    receiver = dotted_name(call.func.value)
    if receiver is None:
        return False
    return receiver.rsplit(".", 1)[-1] in _MAILBOXY


def _direct_sends(fn: ast.AST, messages: set[str]) -> set[str]:
    """Message classes this method hands to a transport send or a put."""
    out: set[str] = set()
    for _call, classes in sent_classes(own_nodes(fn), _SEND_ATTRS | {"put"}):
        out |= classes & messages
    return out


def _self_calls(fn: ast.AST) -> set[str]:
    """Names of own methods this method invokes (``self.foo(...)``)."""
    out: set[str] = set()
    for node in own_nodes(fn):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "self":
            out.add(node.func.attr)
    return out


@dataclass
class _WaitState:
    """One method that parks on the class mailbox."""

    cls: str
    method: str
    source: SourceFile
    lineno: int
    awaited: set[str] = field(default_factory=set)
    exclusive: bool = False
    #: messages the class can emit from inside this wait loop
    sends_while_waiting: set[str] = field(default_factory=set)


@dataclass
class _ProcessClass:
    name: str
    source: SourceFile
    lineno: int
    waits: list[_WaitState] = field(default_factory=list)
    sends: set[str] = field(default_factory=set)


def _closure(graph: dict[str, set[str]], seeds: dict[str, set[str]]
             ) -> dict[str, set[str]]:
    """Transitive closure of per-method sends over the self-call graph."""
    out = {m: set(s) for m, s in seeds.items()}
    changed = True
    while changed:
        changed = False
        for method, callees in graph.items():
            acc = out.setdefault(method, set())
            before = len(acc)
            for callee in callees:
                acc |= out.get(callee, set())
            changed = changed or len(acc) != before
    return out


def _analyze_class(
    node: ast.ClassDef, source: SourceFile, messages: set[str]
) -> _ProcessClass | None:
    methods = {
        n.name: n for n in node.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    if not methods:
        return None
    calls = {name: _self_calls(fn) & set(methods) for name, fn in methods.items()}
    direct = {name: _direct_sends(fn, messages) for name, fn in methods.items()}
    sends = _closure(calls, direct)

    pc = _ProcessClass(node.name, source, node.lineno)
    pc.sends = set().union(*sends.values()) if sends else set()
    for name, fn in methods.items():
        has_wait = any(
            isinstance(n, ast.Call) and _is_mailbox_wait(n)
            for n in own_nodes(fn)
        )
        if not has_wait:
            continue
        awaited = isinstance_class_names(own_nodes(fn)) & messages
        # (the dispatcher may be inherited, so look at every self-call;
        # a main loop that looks rows up itself *is* the dispatcher)
        exclusive = not (
            any(c.startswith("_dispatch") for c in _self_calls(fn))
            or any(isinstance(n, ast.Attribute) and n.attr == _HANDLER_TABLE
                   for n in own_nodes(fn))
        )
        if not exclusive:
            awaited |= handler_table_keys(node) & messages
        if not awaited:
            continue
        pc.waits.append(_WaitState(
            cls=node.name, method=name, source=source, lineno=fn.lineno,
            awaited=awaited, exclusive=exclusive,
            sends_while_waiting=sends.get(name, set()),
        ))
    rows = handler_table_keys(node) & messages
    if rows and not pc.waits:
        # A layer that only merges rows into an inherited table has no wait
        # of its own, but its base's table-driven loop now waits for them.
        pc.waits.append(_WaitState(node.name, "_handlers", source, node.lineno, rows))
    if not pc.waits and not pc.sends:
        return None
    return pc


class WaitGraphChecker(Checker):
    """Distributed-deadlock hazards in the message protocol."""

    name = "waitgraph"
    rules: ClassVar[dict[str, str]] = {
        "wg-cycle": "class A blocks in an *exclusive* wait for a message only "
                    "B sends, while B blocks waiting for a message only A "
                    "sends — a potential distributed deadlock",
        "wg-no-sender": "a wait-state's exit message is constructed nowhere in "
                        "`repro/{core,cluster,workload}` outside `messages.py`: "
                        "the wait can never be satisfied",
    }

    def check(self, project: Project) -> Iterator[Violation]:
        msgfile = project.get(_MESSAGES_REL)
        if msgfile is None:
            return
        classes, _exported = _message_classes(msgfile)
        messages = {c.name for c in classes}

        # -- collect process classes with their waits and sends ---------
        procs: list[_ProcessClass] = []
        for f in project.in_dir("src/repro/core"):
            if f.rel == _MESSAGES_REL:
                continue
            for node in f.tree.body:
                if isinstance(node, ast.ClassDef):
                    pc = _analyze_class(node, f, messages)
                    if pc is not None:
                        procs.append(pc)

        # -- constructor sites anywhere (for wg-no-sender) --------------
        constructed: set[str] = set()
        for f in project.in_dir(*_SENDER_DIRS):
            if f.rel == _MESSAGES_REL:
                continue
            for node in ast.walk(f.tree):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name) \
                        and node.func.id in messages:
                    constructed.add(node.func.id)

        for pc in procs:
            for w in pc.waits:
                for m in sorted(w.awaited - constructed):
                    yield w.source.violation(
                        w.lineno, "wg-no-sender",
                        f"{pc.name}.{w.method} waits for {m}, which is "
                        "constructed nowhere in core/cluster/workload — "
                        "this wait can never be satisfied",
                    )

        yield from self._cycles(procs)

    # ------------------------------------------------------------------
    def _cycles(self, procs: list[_ProcessClass]) -> Iterator[Violation]:
        senders: dict[str, set[str]] = {}
        for pc in procs:
            for m in pc.sends:
                senders.setdefault(m, set()).add(pc.name)
        by_name = {pc.name: pc for pc in procs}

        # blocking edges: (A, wait-state, message m, B) with A != B
        edges: dict[str, list[tuple[_WaitState, str, str]]] = {}
        for pc in procs:
            for w in pc.waits:
                if not w.exclusive:
                    continue
                for m in sorted(w.awaited):
                    for b in sorted(senders.get(m, ())):
                        if b != pc.name:
                            edges.setdefault(pc.name, []).append((w, m, b))

        reported: set[frozenset[tuple[str, str]]] = set()

        def dfs(start: str, cls: str,
                trail: list[tuple[_WaitState, str, str]]) -> Iterator[
                    list[tuple[_WaitState, str, str]]]:
            for w, m, nxt in edges.get(cls, ()):
                if nxt == start and trail:
                    yield [*trail, (w, m, nxt)]
                elif all(nxt != t[2] for t in trail) and nxt != cls \
                        and len(trail) < 3:
                    yield from dfs(start, nxt, [*trail, (w, m, nxt)])

        for start in sorted(edges):
            for cycle in dfs(start, start, []):
                key = frozenset((w.cls, m) for w, m, _ in cycle)
                if key in reported:
                    continue
                reported.add(key)
                if self._discharged(cycle, by_name):
                    continue
                yield self._report(cycle)

    @staticmethod
    def _discharged(cycle: list[tuple[_WaitState, str, str]],
                    by_name: dict[str, _ProcessClass]) -> bool:
        """Can any participant still send its predecessor's message from
        inside its own wait loop?  Then the ring cannot jam."""
        states = {w.cls: w for w, _, _ in cycle}
        for w, m, nxt in cycle:
            nxt_state = states.get(nxt)
            if nxt_state is not None and m in nxt_state.sends_while_waiting:
                return True
        return False

    @staticmethod
    def _report(cycle: list[tuple[_WaitState, str, str]]) -> Violation:
        first = cycle[0][0]
        hops = ", ".join(
            f"{w.cls}.{w.method} waits for {m} from {nxt}"
            for w, m, nxt in cycle
        )
        return first.source.violation(
            first.lineno, "wg-cycle",
            f"potential distributed deadlock: {hops} — if these waits "
            "overlap, no participant can proceed "
            "(see docs/STATIC_ANALYSIS.md, `waitgraph`)",
        )
