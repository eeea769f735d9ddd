"""One dispatcher for every actor: a handler's signature is its table row.

A method ``_on_<what>(self, msg: M)`` handles message class ``M`` (``msg:
A | B`` handles both).  :class:`Actor` reads those annotations once per
class into ``cls._handlers``, as the protocol lint reads them off the
source; a subclass that overrides a handler replaces its base's row.
"""

from __future__ import annotations

import inspect
import typing
from collections.abc import Callable, Mapping
from types import MappingProxyType
from typing import Any, ClassVar

__all__ = ["Actor"]


class Actor:
    """A table-driven actor; ``str(actor)`` prefixes its dispatch error."""

    #: message class -> handler, called as ``handler(self, msg)``.  The
    #: class holds it, so no row ties an instance into a reference cycle.
    _handlers: ClassVar[Mapping[type, Callable[[Any, Any], Any]]] = MappingProxyType({})

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        table: dict[type, Callable[[Any, Any], Any]] = {}
        for name in [n for n in dir(cls) if n.startswith("_on_")]:
            handler = getattr(cls, name)
            hints = inspect.get_annotations(handler, eval_str=True)
            hints.pop("return", None)
            kinds = [k for a in hints.values() for k in typing.get_args(a) or (a,)]
            if not kinds or not all(isinstance(k, type) and k is not Any for k in kinds):
                raise TypeError(f"{cls.__name__}.{name}: annotate the message "
                                "parameter with the class(es) it handles")
            for kind in kinds:
                if kind in table:
                    raise TypeError(f"{cls.__name__}: {kind.__name__} has two "
                                    f"handlers, {table[kind].__name__} and {name}")
                table[kind] = handler
        cls._handlers = MappingProxyType(table)

    def dispatch(self, msg: Any) -> Any:
        """Run ``msg``'s handler; returns what the handler returns."""
        handler = self._handlers.get(type(msg))
        if handler is None:
            raise RuntimeError(f"{self}: unexpected message {msg!r}")
        return handler(self, msg)
