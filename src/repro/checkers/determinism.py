"""Determinism pass: keep the simulator's replayability machine-checked.

The reproduction's central claim is that every run is exactly
deterministic given its seeds.  Four rule families defend that; each is
described in :attr:`DeterminismChecker.rules`.  Set order is salted per
interpreter run, so iterating a set on a scheduling path silently breaks
trace replay.

Scope: the deterministic core (``repro/sim``, ``repro/core``,
``repro/cluster``, ``repro/hashing``).  Set-typed values are inferred
locally (set literals/comprehensions, ``set()``/``frozenset()`` calls,
and ``set[...]`` annotations on names, parameters and ``self``
attributes); values that arrive untyped from elsewhere are out of reach
of this pass — keep hot-path containers annotated.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import ClassVar

from ._astutil import ImportMap, call_name, dotted_name
from .base import Checker, Project, SourceFile, Violation

__all__ = ["DeterminismChecker"]

_WALLCLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.localtime", "time.gmtime", "time.ctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: entropy sources that are never replayable
_ENTROPY = frozenset({
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice",
})

#: the seeded constructors that ARE allowed under numpy.random
_NP_RANDOM_OK = frozenset({
    "default_rng", "SeedSequence", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})

#: random-module names allowed (seeded instance construction)
_RANDOM_OK = frozenset({"random.Random"})

_FS_ENUM = frozenset({
    "os.listdir", "os.scandir", "os.walk",
    "glob.glob", "glob.iglob",
})
_FS_ENUM_METHODS = frozenset({"iterdir", "rglob"})


def _set_bindings(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Names and ``self.<attr>`` attributes bound to set-typed values."""

    def is_set_expr(node: ast.AST | None) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def is_set_annotation(node: ast.AST | None) -> bool:
        if isinstance(node, ast.Subscript):
            base = dotted_name(node.value)
            return base in ("set", "frozenset", "Set", "FrozenSet",
                            "typing.Set", "typing.FrozenSet")
        if isinstance(node, ast.Name):
            return node.id in ("set", "frozenset")
        return False

    names: set[str] = set()
    attrs: set[str] = set()

    def bind(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            attrs.add(target.attr)

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_set_expr(node.value):
            for t in node.targets:
                bind(t)
        elif isinstance(node, ast.AnnAssign) and (
            is_set_annotation(node.annotation) or is_set_expr(node.value)
        ):
            bind(node.target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in [*node.args.posonlyargs, *node.args.args,
                        *node.args.kwonlyargs]:
                if is_set_annotation(arg.annotation):
                    names.add(arg.arg)
    return names, attrs


class DeterminismChecker(Checker):
    """No wall clock, no global RNG, no unordered iteration in the core."""

    name = "determinism"
    rules: ClassVar[dict[str, str]] = {
        "det-wallclock": "`time.time()`, `time.monotonic()`, "
                         "`datetime.now()`, … — use `Simulator.now`: "
                         "simulated time is the only clock",
        "det-global-rng": "`random.*`, `np.random.<sampler>` on the global "
                          "state, `os.urandom`, `uuid.uuid4`, `secrets.*` — "
                          "use a seeded stream: `np.random.default_rng(seed)` "
                          "/ `SeedSequence`",
        "det-set-iter": "`for x in some_set`, comprehensions over sets, "
                        "`set.pop()` — use `sorted(some_set)`; pick elements "
                        "with `min`/`max`",
        "det-fs-order": "`os.listdir`/`os.scandir`/`os.walk`/`glob.*`/"
                        "`Path.iterdir`/`.glob`/`.rglob` unwrapped — wrap the "
                        "call in `sorted(...)`",
    }

    def check(self, project: Project) -> Iterator[Violation]:
        for source in project.in_dir("src/repro/sim", "src/repro/core",
                                     "src/repro/cluster", "src/repro/hashing"):
            yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterator[Violation]:
        imports = ImportMap(source.tree)
        set_names, set_attrs = _set_bindings(source.tree)
        sorted_args = {
            id(arg)
            for node in ast.walk(source.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "sorted"
            for arg in node.args
        }

        def is_setlike(node: ast.AST) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in ("set", "frozenset"):
                return True
            if isinstance(node, ast.Name):
                return node.id in set_names
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                return node.attr in set_attrs
            return False

        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(source, node, imports,
                                            sorted_args, is_setlike)
            elif isinstance(node, ast.For) and is_setlike(node.iter):
                yield source.violation(
                    node.iter, "det-set-iter",
                    "iterating a set is order-nondeterministic; "
                    "wrap it in sorted(...)",
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if is_setlike(gen.iter):
                        yield source.violation(
                            gen.iter, "det-set-iter",
                            "comprehension over a set is "
                            "order-nondeterministic; wrap it in sorted(...)",
                        )

    def _check_call(self, source, node, imports, sorted_args, is_setlike):
        canonical = call_name(node, imports)
        if canonical is not None:
            if canonical in _WALLCLOCK:
                yield source.violation(
                    node, "det-wallclock",
                    f"wall-clock read {canonical}() breaks replay; "
                    "use Simulator.now",
                )
                return
            if canonical in _ENTROPY:
                yield source.violation(
                    node, "det-global-rng",
                    f"{canonical}() is an unseeded entropy source",
                )
                return
            if canonical.startswith("random.") and canonical not in _RANDOM_OK:
                yield source.violation(
                    node, "det-global-rng",
                    f"{canonical}() draws from the global random state; "
                    "use a seeded np.random.default_rng stream",
                )
                return
            if canonical.startswith("numpy.random.") \
                    and canonical.rsplit(".", 1)[-1] not in _NP_RANDOM_OK:
                yield source.violation(
                    node, "det-global-rng",
                    f"{canonical}() uses numpy's global RNG; draw from a "
                    "seeded np.random.default_rng stream instead",
                )
                return
            if canonical in _FS_ENUM and id(node) not in sorted_args:
                yield source.violation(
                    node, "det-fs-order",
                    f"{canonical}() order is filesystem-dependent; "
                    "wrap it in sorted(...)",
                )
                return
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in _FS_ENUM_METHODS and id(node) not in sorted_args:
                yield source.violation(
                    node, "det-fs-order",
                    f".{attr}() order is filesystem-dependent; "
                    "wrap it in sorted(...)",
                )
            elif attr == "glob" and canonical is None \
                    and id(node) not in sorted_args:
                # path.glob(...) on some object; glob.glob is handled above
                yield source.violation(
                    node, "det-fs-order",
                    ".glob() order is filesystem-dependent; "
                    "wrap it in sorted(...)",
                )
            elif attr == "pop" and not node.args \
                    and is_setlike(node.func.value):
                yield source.violation(
                    node, "det-set-iter",
                    "set.pop() removes an arbitrary element; "
                    "pick deterministically (e.g. min/max)",
                )
