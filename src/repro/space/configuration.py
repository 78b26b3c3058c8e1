"""Immutable knob-value assignments."""

from __future__ import annotations

from typing import Any, Iterator, Mapping


class Configuration(Mapping[str, Any]):
    """An immutable mapping from knob names to native values.

    Configurations are hashable so they can key history repositories and be
    deduplicated by optimizers.  The hash agrees with ``==``: it hashes the
    values themselves, so ``1``, ``1.0`` and ``np.int64(1)`` (or ``0.0`` and
    ``-0.0``) hash alike.  Only the values are pickled; the cached hash
    depends on the interpreter's hash seed and is recomputed after
    unpickling.
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, values: Mapping[str, Any]) -> None:
        self._values = dict(values)
        self._hash: int | None = None

    def __getitem__(self, name: str) -> Any:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

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
