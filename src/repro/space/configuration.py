"""Immutable knob-value assignments."""

from __future__ import annotations

from typing import Any, ItemsView, Iterator, KeysView, Mapping, ValuesView


class Configuration(Mapping[str, Any]):
    """An immutable mapping from knob names to native values.

    Configurations are hashable so they can key history repositories and be
    deduplicated by optimizers.  The hash agrees with ``==``: it hashes the
    values themselves, so ``1``, ``1.0`` and ``np.int64(1)`` (or ``0.0`` and
    ``-0.0``) hash alike.  Only the values are pickled; the cached hash
    depends on the interpreter's hash seed and is recomputed after
    unpickling.

    Lookups, views and copies answer from the underlying dict (the
    ``Mapping`` mixins would call :meth:`__getitem__` once per knob); the
    views are the dict's own read-only views, in knob order.
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, values: Mapping[str, Any]) -> None:
        self._values = dict(values._values if isinstance(values, Configuration) else values)
        self._hash: int | None = None

    def __getitem__(self, name: str) -> Any:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def keys(self) -> KeysView[str]:
        return self._values.keys()

    def items(self) -> ItemsView[str, Any]:
        return self._values.items()

    def values(self) -> ValuesView[Any]:
        return self._values.values()

    def get(self, name: str, default: Any = None) -> Any:
        return self._values.get(name, default)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._values.items()))
        return self._hash

    def __reduce__(self):
        return (Configuration, (self._values,))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Configuration):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"Configuration({inner})"

    def with_values(self, **updates: Any) -> "Configuration":
        """Return a copy with some knob values replaced."""
        merged = dict(self._values)
        merged.update(updates)
        return Configuration(merged)

    def as_dict(self) -> dict[str, Any]:
        """Return a plain mutable dict copy of the assignment."""
        return dict(self._values)
