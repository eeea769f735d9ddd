"""Deterministic reservoir sampling: what makes a log *bounded*.

Sits below :mod:`~repro.obs.timeline` and :mod:`~repro.obs.causality` so
both can build on it; like the rest of ``repro.obs``, stdlib only.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from typing import Any

__all__ = ["ReservoirSample", "SampledLog", "take"]

def take(d: Any, key: str, kind: type | tuple[type, ...], what: str,
         convert: Callable[[Any], Any] = lambda value: value) -> Any:
    """``d[key]`` of a decoded wire document — or a ``ValueError`` naming
    the field if ``d`` is no object, the field is absent or not a
    ``kind``, or ``convert`` (applied to it) rejects what is inside."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"{what} is missing field {key!r}")
    if not isinstance(d[key], kind):
        raise ValueError(
            f"{what} field {key!r} has the wrong type "
            f"({type(d[key]).__name__})"
        )
    try:
        return convert(d[key])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{what} field {key!r}: {exc}") from None


def _priority(ident: str) -> int:
    """Deterministic sampling priority: a keyed content hash.

    Never Python's builtin ``hash()`` — that is salted per interpreter
    run and would make sampling (and snapshot bytes) irreproducible.
    """
    digest = hashlib.blake2b(ident.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ReservoirSample:
    """Bottom-k-by-hash sample plus an always-keep heavy-outlier set.

    The retained set is *canonical*: after every insert it equals
    ``bottom(sample)`` of the offered idents by ``(priority, ident)``
    union ``top(outliers)`` by ``(-weight, priority, ident)``.  Because
    that is a pure function of the offered set, insertion order never
    matters and ``a.merge(b)`` retains exactly what a single reservoir
    offered ``a ∪ b`` would — the property that makes shard samples
    combinable.  ``dropped`` counts offered-but-shed records.
    """

    __slots__ = ("sample", "outliers", "total", "_items")

    def __init__(self, sample: int, outliers: int = 0) -> None:
        if sample < 1:
            raise ValueError(f"reservoir sample must be >= 1, got {sample}")
        if outliers < 0:
            raise ValueError(f"outlier count must be >= 0, got {outliers}")
        self.sample = int(sample)
        self.outliers = int(outliers)
        self.total = 0
        #: ident -> (priority, weight, payload)
        self._items: dict[str, tuple[int, float, Any]] = {}

    def add(self, ident: str, weight: float, payload: Any) -> None:
        self.total += 1
        if ident not in self._items:
            self._items[ident] = (_priority(ident), float(weight), payload)
            self._trim()

    def _trim(self) -> None:
        if len(self._items) <= self.sample:
            return
        by_priority = sorted(self._items.items(),
                             key=lambda kv: (kv[1][0], kv[0]))
        keep = {k for k, _ in by_priority[: self.sample]}
        if self.outliers:
            by_weight = sorted(self._items.items(),
                               key=lambda kv: (-kv[1][1], kv[1][0], kv[0]))
            keep.update(k for k, _ in by_weight[: self.outliers])
        if len(keep) < len(self._items):
            self._items = {k: v for k, v in self._items.items() if k in keep}

    def merge(self, other: ReservoirSample) -> ReservoirSample:
        if (self.sample, self.outliers) != (other.sample, other.outliers):
            raise ValueError(
                "cannot merge reservoirs with different capacities: "
                f"({self.sample},{self.outliers}) vs "
                f"({other.sample},{other.outliers})"
            )
        out = ReservoirSample(self.sample, self.outliers)
        out.total = self.total + other.total
        out._items = dict(self._items)
        for k, v in other._items.items():
            out._items.setdefault(k, v)
        out._trim()
        return out

    @property
    def dropped(self) -> int:
        return self.total - len(self._items)

    def kept(self) -> list[tuple[str, float, Any]]:
        """Retained ``(ident, weight, payload)`` in priority order."""
        return [(k, v[1], v[2])
                for k, v in sorted(self._items.items(),
                                   key=lambda kv: (kv[1][0], kv[0]))]

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, ident: str) -> bool:
        return ident in self._items

    def to_dict(self) -> dict[str, Any]:
        return {
            "sample": self.sample,
            "outliers": self.outliers,
            "total": self.total,
            "items": [
                {"ident": ident, "weight": weight, "payload": payload}
                for ident, weight, payload in self.kept()
            ],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> ReservoirSample:
        what = "reservoir"
        out = cls(take(d, "sample", int, what), take(d, "outliers", int, what))
        for item in take(d, "items", list, what):
            ident = take(item, "ident", str, "reservoir item")
            out._items[ident] = (
                _priority(ident),
                take(item, "weight", (int, float), "reservoir item", float),
                take(item, "payload", object, "reservoir item"),
            )
        out.total = take(d, "total", int, what)
        out._trim()
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReservoirSample):
            return NotImplemented
        return self.to_dict() == other.to_dict()


class SampledLog:
    """What the span and causal logs share: every record offered
    (``sample=None``) or a bounded :class:`ReservoirSample` of them.

    Unbounded, subclasses append to ``_records`` themselves (the
    per-message path stays one list append); bounded, they ``_offer``.
    """

    def __init__(self, sample: int | None = None, outliers: int = 0) -> None:
        self._reservoir = (
            None if sample is None else ReservoirSample(sample, outliers)
        )
        #: every record / the sample in reading order (None = stale)
        self._records: list[Any] | None = []

    @property
    def bounded(self) -> bool:
        return self._reservoir is not None

    @property
    def total(self) -> int:
        """Records ever offered, retained or not."""
        res = self._reservoir
        return len(self._records) if res is None else res.total

    @property
    def dropped(self) -> int:
        return 0 if self._reservoir is None else self._reservoir.dropped

    def _offer(self, ident: str, weight: float, record: Any) -> None:
        self._reservoir.add(ident, weight, record)
        self._records = None

    def _view(self, order: Callable[[Any], Any]) -> list[Any]:
        if self._records is None:
            self._records = sorted(
                (rec for _, _, rec in self._reservoir.kept()), key=order
            )
        return self._records

