"""Small AST helpers shared by the concrete passes."""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

__all__ = [
    "ImportMap", "dotted_name", "call_name",
    "own_nodes", "isinstance_class_names", "sent_classes", "typed_wait_kinds",
]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportMap:
    """Maps local names to the canonical module path they were bound from.

    ``import numpy as np`` -> ``np`` resolves to ``numpy``;
    ``from datetime import datetime as dt`` -> ``dt`` resolves to
    ``datetime.datetime``.  :meth:`resolve` canonicalizes a dotted local
    name by substituting its first segment.
    """

    def __init__(self, tree: ast.AST):
        self._alias: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    self._alias[(a.asname or a.name).split(".")[0]] = (
                        a.name if a.asname else a.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for a in node.names:
                    if a.name == "*":
                        continue
                    self._alias[a.asname or a.name] = f"{node.module}.{a.name}"

    def resolve(self, local_dotted: str) -> str:
        head, _, rest = local_dotted.partition(".")
        canonical = self._alias.get(head, head)
        return f"{canonical}.{rest}" if rest else canonical


def call_name(node: ast.Call, imports: ImportMap) -> str | None:
    """Canonical dotted path of a call target, via the import map."""
    local = dotted_name(node.func)
    if local is None:
        return None
    return imports.resolve(local)


def own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn`` without descending into nested function definitions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def isinstance_class_names(nodes: Iterable[ast.AST]) -> set[str]:
    """Class names tested by the ``isinstance(x, Cls)`` /
    ``isinstance(x, (A, mod.B))`` calls among ``nodes``."""
    refs: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            second = node.args[1]
            elts = second.elts if isinstance(second, ast.Tuple) else [second]
            for e in elts:
                if isinstance(e, ast.Name):
                    refs.add(e.id)
                elif isinstance(e, ast.Attribute):
                    refs.add(e.attr)
    return refs


def typed_wait_kinds(nodes: Iterable[ast.AST]) -> set[str]:
    """Class names the typed waits among ``nodes`` wait for: every
    argument of ``X.await_message(A, B)``, the first of ``X.gather(A, ...)``."""
    refs: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            n = {"await_message": len(node.args), "gather": 1}.get(node.func.attr, 0)
            refs.update(a.id for a in node.args[:n] if isinstance(a, ast.Name))
    return refs


def sent_classes(
    nodes: Iterable[ast.AST], attrs: frozenset[str]
) -> Iterator[tuple[ast.Call, set[str]]]:
    """Each ``X.<attr>(..., payload)`` call among ``nodes`` with the class
    names its payload may be: a direct constructor call (``send(a, b,
    SpillOrder(...))``) or a local name assigned from one (``msg =
    DataChunk(...); send(..., msg)``).  Classes are recognized by their
    capitalized name; payloads that flow in as parameters yield nothing."""
    nodes = list(nodes)
    bindings: dict[str, set[str]] = {}
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name) \
                and node.value.func.id[:1].isupper():
            for t in node.targets:
                if isinstance(t, ast.Name):
                    bindings.setdefault(t.id, set()).add(node.value.func.id)
    for node in nodes:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in attrs and node.args):
            continue
        payload = node.args[-1]
        if isinstance(payload, ast.Call) \
                and isinstance(payload.func, ast.Name) \
                and payload.func.id[:1].isupper():
            yield node, {payload.func.id}
        elif isinstance(payload, ast.Name):
            yield node, bindings.get(payload.id, set())
