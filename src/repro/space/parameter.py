"""Knob (parameter) types for DBMS configuration spaces.

Every knob maps between its *native* domain (bytes, counts, enum strings)
and the *unit* interval ``[0, 1]`` used internally by optimizers.  Knobs with
wide numeric ranges (e.g. ``innodb_buffer_pool_size`` spanning MBs to tens of
GBs) support log-scaled unit mappings so that Latin Hypercube and BO
candidates cover the range sensibly.

The methods here map one value at a time and define the codec.  Spaces
encode, decode and snap whole matrices with the column-group codec in
:mod:`repro.space.space`, which the tests hold to these scalar methods
bit for bit.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np


class Knob:
    """Base class for a single configuration knob.

    Parameters
    ----------
    name:
        The knob identifier, e.g. ``"innodb_buffer_pool_size"``.
    default:
        The vendor default value (native domain).
    description:
        Optional human-readable description.
    """

    is_categorical = False

    def __init__(self, name: str, default: Any, description: str = "") -> None:
        if not name:
            raise ValueError("knob name must be non-empty")
        self.name = name
        self.default = default
        self.description = description

    def to_unit(self, value: Any) -> float:
        """Map a native value to the unit interval ``[0, 1]``."""
        raise NotImplementedError

    def from_unit(self, u: float) -> Any:
        """Map a unit-interval position to a native value."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a uniformly random native value."""
        return self.from_unit(float(rng.random()))

    def validate(self, value: Any) -> bool:
        """Return True when ``value`` lies in the knob's legal domain."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, default={self.default!r})"


class ContinuousKnob(Knob):
    """A real-valued knob on ``[lower, upper]``, optionally log-scaled."""

    def __init__(
        self,
        name: str,
        lower: float,
        upper: float,
        default: float,
        log: bool = False,
        description: str = "",
    ) -> None:
        if not lower < upper:
            raise ValueError(f"{name}: require lower < upper, got [{lower}, {upper}]")
        if log and lower <= 0:
            raise ValueError(f"{name}: log scale requires a positive lower bound")
        default = float(min(max(default, lower), upper))
        super().__init__(name, default, description)
        self.lower = float(lower)
        self.upper = float(upper)
        self.log = bool(log)

    def to_unit(self, value: float) -> float:
        value = min(max(float(value), self.lower), self.upper)
        if self.log:
            lo, hi = math.log(self.lower), math.log(self.upper)
            return (math.log(value) - lo) / (hi - lo)
        return (value - self.lower) / (self.upper - self.lower)

    def from_unit(self, u: float) -> float:
        u = min(max(float(u), 0.0), 1.0)
        if self.log:
            lo, hi = math.log(self.lower), math.log(self.upper)
            return math.exp(lo + u * (hi - lo))
        return self.lower + u * (self.upper - self.lower)

    def validate(self, value: Any) -> bool:
        try:
            v = float(value)
        except (TypeError, ValueError):
            return False
        return self.lower <= v <= self.upper

class IntegerKnob(Knob):
    """An integer-valued knob on ``[lower, upper]``, optionally log-scaled.

    Many MySQL knobs are byte sizes or counts; the unit mapping rounds to the
    nearest representable integer so encode/decode round-trips exactly.
    """

    def __init__(
        self,
        name: str,
        lower: int,
        upper: int,
        default: int,
        log: bool = False,
        description: str = "",
    ) -> None:
        if not lower < upper:
            raise ValueError(f"{name}: require lower < upper, got [{lower}, {upper}]")
        if log and lower <= 0:
            raise ValueError(f"{name}: log scale requires a positive lower bound")
        default = int(min(max(int(default), lower), upper))
        super().__init__(name, default, description)
        self.lower = int(lower)
        self.upper = int(upper)
        self.log = bool(log)

    def to_unit(self, value: int) -> float:
        value = min(max(int(value), self.lower), self.upper)
        if self.log:
            lo, hi = math.log(self.lower), math.log(self.upper)
            return (math.log(value) - lo) / (hi - lo)
        return (value - self.lower) / (self.upper - self.lower)

    def from_unit(self, u: float) -> int:
        u = min(max(float(u), 0.0), 1.0)
        if self.log:
            lo, hi = math.log(self.lower), math.log(self.upper)
            raw = math.exp(lo + u * (hi - lo))
        else:
            raw = self.lower + u * (self.upper - self.lower)
        return int(min(max(round(raw), self.lower), self.upper))

    def validate(self, value: Any) -> bool:
        if isinstance(value, bool):
            return False
        try:
            v = int(value)
        except (TypeError, ValueError):
            return False
        return v == value and self.lower <= v <= self.upper

class CategoricalKnob(Knob):
    """A categorical knob over an explicit finite choice set.

    The unit mapping places choice ``i`` of ``n`` at the midpoint of the
    ``i``-th equal-width bin, so uniform unit samples yield uniform choices
    and encode/decode round-trips exactly.
    """

    is_categorical = True

    def __init__(
        self,
        name: str,
        choices: Sequence[Any],
        default: Any,
        description: str = "",
    ) -> None:
        choices = list(choices)
        if len(choices) < 2:
            raise ValueError(f"{name}: need at least two choices")
        if len(set(map(str, choices))) != len(choices):
            raise ValueError(f"{name}: duplicate choices")
        if default not in choices:
            raise ValueError(f"{name}: default {default!r} not among choices")
        super().__init__(name, default, description)
        self.choices = choices
        self._index = {c: i for i, c in enumerate(choices)}

    @property
    def n_choices(self) -> int:
        return len(self.choices)

    def choice_index(self, value: Any) -> int:
        """Return the index of a native choice value."""
        try:
            return self._index[value]
        except KeyError:
            raise ValueError(f"{self.name}: {value!r} is not a valid choice") from None

    def to_unit(self, value: Any) -> float:
        i = self.choice_index(value)
        return (i + 0.5) / len(self.choices)

    def from_unit(self, u: float) -> Any:
        u = min(max(float(u), 0.0), 1.0)
        i = min(int(u * len(self.choices)), len(self.choices) - 1)
        return self.choices[i]

    def validate(self, value: Any) -> bool:
        return value in self._index
