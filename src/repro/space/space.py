"""The configuration space container shared by all modules.

A :class:`ConfigurationSpace` is an ordered collection of knobs.  It provides

- encode/decode between native :class:`Configuration` objects and unit
  vectors in ``[0, 1]^d`` (the representation optimizers work in),
- one-hot encoding for Lasso's knob ranking, which needs explicit
  categorical expansion: the encoded rows, with each categorical column
  spread into an indicator block hot at the choice the column holds,
- subspacing (knob selection produces a subspace of the full space),
- neighbourhood generation for SMAC-style local search.

All of it runs through one batch codec.  On first use a space compiles
its knobs into column groups -- linear and log continuous, linear and
log integer, categorical -- each holding its bounds (or choice table) as
vectors, so encoding, decoding and snapping a matrix is a few array
operations per group.  The groups reproduce the scalar
``Knob.to_unit``/``from_unit`` bit for bit: numpy's elementwise
add/multiply/divide, ``np.rint`` and a clamp with Python's ``min``/``max``
tie rules round exactly as the scalar code does, and the log groups map
libm's ``exp``/``log`` -- what ``math.exp``/``math.log`` call -- over
the block because numpy's vectorized ``exp``/``log`` differ from libm in
the last bit on some inputs.  That map runs as a C loop in
:mod:`repro.perf.treefast`'s native kernel when one is loaded, and as
``math`` calls otherwise.  The native kernel also snaps a whole matrix
in one pass (``repro_codec_snap``), column by column from a table the
codec builds on its first snap, with the groups' operations in their
order; the groups remain its twin where no kernel is loaded and on the
inputs the C loop hands back (a NaN choice position, or a value on which
``math`` would raise).
Decoded values are Python-native (``int``, ``float``, the choice object),
so configurations hash and compare as the scalar path's do.  A NaN unit
position has no integer or categorical value, as ``Knob.from_unit`` has
none: decoding one, or snapping a NaN choice position, raises
``ValueError`` naming the knob.  A continuous knob decodes NaN to NaN.

A neighbourhood (:class:`Neighbors`) keeps the base row and one moved
cell per neighbour; SMAC's local search scores a sample of at most 80
neighbours, so only the rows it asks for are built.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.perf.treefast import native_kernel
from repro.space.configuration import Configuration
from repro.space.parameter import CategoricalKnob, ContinuousKnob, IntegerKnob, Knob


def _clamp(x: np.ndarray, lo: Any, hi: Any) -> np.ndarray:
    """``min(max(x, lo), hi)`` elementwise with Python's tie rules.

    ``np.clip`` differs only where ``x`` equals a bound it is not
    identical to -- a signed zero -- and returns the bound where Python
    returns ``x``.  That matters only to linear continuous knobs, whose
    bounds may be zeros; integer values are normalized to ``+0.0`` and
    log knobs have positive bounds, so the other groups use ``np.clip``.
    """
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def _rows_of(names: list[str], mappings: list[Mapping[str, Any]]) -> list[tuple]:
    """Each mapping's values of ``names``, as a tuple."""
    get = operator.itemgetter(*names)
    if len(names) == 1:
        return [(value,) for value in map(get, mappings)]
    return list(map(get, mappings))


#: The native map's operation code of each ``math`` function.
_LIBM_OPS = {math.exp: 0, math.log: 1}

#: A column of the native snap's table (``snap_col`` in the C source),
#: and the flags its ``kind`` combines; 0 is linear continuous.
_SNAP_COL = np.dtype(
    [
        ("kind", np.int64),
        ("n", np.int64),
        ("base", float),
        ("span", float),
        ("lower", float),
        ("upper", float),
    ]
)
_SNAP_LOG, _SNAP_INTEGER, _SNAP_CATEGORICAL = 1, 2, 4


def _libm(fn: Callable[[float], float], block: np.ndarray) -> np.ndarray:
    """``math.exp`` or ``math.log`` over every element of ``block``.

    The native kernel calls the same libm function in a C loop; without
    it, or where ``fn`` would raise, ``fn`` maps the block itself.
    """
    lib = native_kernel()
    if lib is not None:
        src = np.ascontiguousarray(block, dtype=float)
        out = np.empty_like(src)
        if lib.repro_libm_map(_LIBM_OPS[fn], src.ctypes.data, out.ctypes.data, src.size) < 0:
            return out
    flat = np.fromiter(map(fn, block.ravel().tolist()), dtype=float, count=block.size)
    return flat.reshape(block.shape)


def _exact_integer_bounds(knob: Knob) -> bool:
    """Whether float64 arithmetic reproduces the knob's Python-int codec:
    log knobs need bounds that are doubles within int64, linear knobs a
    range whose every integer (and difference) is a double."""
    if knob.log:
        return all(float(b) == b < 2**63 for b in (knob.lower, knob.upper))
    return -(2**52) <= knob.lower and knob.upper <= 2**52


class _NumericGroup:
    """Numeric knobs of one kind.  Column ``j`` maps a unit position ``u``
    to ``base[j] + u * span[j]``, through ``exp`` for log knobs and
    rounded and clamped to the bounds for integer knobs."""

    def __init__(self, cols: list[int], knobs: list[Knob], integer: bool, log: bool) -> None:
        if integer and not all(_exact_integer_bounds(k) for k in knobs):
            raise ValueError("integer knob bounds beyond exact float64 arithmetic")
        self.cols = np.array(cols, dtype=np.intp)
        self.names = [k.name for k in knobs]
        self.integer, self.log = integer, log
        self.clamp = np.clip if integer or log else _clamp
        self.lower = np.array([float(k.lower) for k in knobs])
        self.upper = np.array([float(k.upper) for k in knobs])
        if log:
            lo = [math.log(k.lower) for k in knobs]
            self.base = np.array(lo)
            self.span = np.array([math.log(k.upper) - a for k, a in zip(knobs, lo)])
        else:
            self.base = self.lower
            self.span = np.array([float(k.upper - k.lower) for k in knobs])

    def from_unit(self, U: np.ndarray) -> np.ndarray:
        """Native values (as floats) of the unit positions ``U``."""
        v = self.base + self.clamp(U, 0.0, 1.0) * self.span
        if self.log:
            v = _libm(math.exp, v)
        if self.integer:
            # ``+ 0.0`` turns rint's -0.0 into the 0 a Python int is.
            v = np.clip(np.rint(v) + 0.0, self.lower, self.upper)
        return v

    def to_unit(self, V: np.ndarray) -> np.ndarray:
        """Unit positions of the native values ``V``."""
        if self.integer:
            V = np.trunc(V) + 0.0
        V = self.clamp(V, self.lower, self.upper)
        if self.log:
            V = _libm(math.log, V)
        return (V - self.base) / self.span


class _CategoricalGroup:
    """Categorical knobs: choice ``i`` of ``n`` sits at ``(i + 0.5) / n``."""

    def __init__(self, cols: list[int], knobs: list[CategoricalKnob]) -> None:
        self.cols = np.array(cols, dtype=np.intp)
        self.knobs = knobs
        self.names = [k.name for k in knobs]
        self.n = np.array([k.n_choices for k in knobs])
        self.table = np.empty((len(knobs), int(self.n.max())), dtype=object)
        for r, knob in enumerate(knobs):
            for i, choice in enumerate(knob.choices):
                self.table[r, i] = choice
        self.rows = np.arange(len(knobs))

    def indices(self, U: np.ndarray) -> np.ndarray:
        return np.minimum((np.clip(U, 0.0, 1.0) * self.n).astype(np.int64), self.n - 1)

    def units(self, indices: np.ndarray) -> np.ndarray:
        return (indices + 0.5) / self.n


class _Codec:
    """A space's knobs compiled into column groups (see the module doc)."""

    def __init__(self, knobs: list[Knob]) -> None:
        self.names = [k.name for k in knobs]
        kinds: dict[tuple[bool, bool], list[int]] = {}
        categorical: list[int] = []
        for j, knob in enumerate(knobs):
            if isinstance(knob, CategoricalKnob):
                categorical.append(j)
            elif isinstance(knob, (ContinuousKnob, IntegerKnob)):
                kinds.setdefault((isinstance(knob, IntegerKnob), knob.log), []).append(j)
            else:
                raise TypeError(f"{knob.name}: no array codec for {type(knob).__name__}")
        self.numeric = [
            _NumericGroup(cols, [knobs[j] for j in cols], integer, log)
            for (integer, log), cols in kinds.items()
        ]
        self.numeric_cols = np.array(
            sorted(j for cols in kinds.values() for j in cols), dtype=np.intp
        )
        self.categorical = (
            _CategoricalGroup(categorical, [knobs[j] for j in categorical])
            if categorical
            else None
        )
        integer = [j for (is_int, __), cols in kinds.items() if is_int for j in cols]
        self.discrete_cols = np.array(sorted(integer + categorical), dtype=np.intp)

    def _reject_nan(self, U: np.ndarray, cols: np.ndarray) -> None:
        """Raise ``ValueError`` for a NaN in columns ``cols`` of ``U``,
        naming the first such knob."""
        nan = np.isnan(U[:, cols]).any(axis=0)
        if nan.any():
            raise ValueError(f"{self.names[cols[nan.argmax()]]}: no value at unit position NaN")

    def values(self, U: np.ndarray) -> np.ndarray:
        """Native values of the unit rows ``U``, as an object matrix."""
        if np.isnan(U).any():
            self._reject_nan(U, self.discrete_cols)
        out = np.empty(U.shape, dtype=object)
        for g in self.numeric:
            v = g.from_unit(U[:, g.cols])
            out[:, g.cols] = v.astype(np.int64) if g.integer else v
        cat = self.categorical
        if cat is not None:
            out[:, cat.cols] = cat.table[cat.rows, cat.indices(U[:, cat.cols])]
        return out

    def decode(self, U: np.ndarray) -> list[Configuration]:
        names = self.names
        return [Configuration(dict(zip(names, row))) for row in self.values(U).tolist()]

    @cached_property
    def _snap_table(self) -> np.ndarray:
        """Each column's kind and parameters, as the native snap reads them."""
        table = np.zeros(len(self.names), dtype=_SNAP_COL)
        for g in self.numeric:
            table["kind"][g.cols] = _SNAP_LOG * g.log + _SNAP_INTEGER * g.integer
            for field in ("base", "span", "lower", "upper"):
                table[field][g.cols] = getattr(g, field)
        cat = self.categorical
        if cat is not None:
            table["kind"][cat.cols] = _SNAP_CATEGORICAL
            table["n"][cat.cols] = cat.n
        return table

    def snap(self, U: np.ndarray) -> np.ndarray:
        """``to_unit(from_unit(u))`` of numeric columns and
        ``units(indices(u))`` of categorical ones: one native pass, or
        the groups where no kernel is loaded or the kernel hands ``U``
        back."""
        lib = native_kernel()
        if lib is not None:
            src = np.ascontiguousarray(U, dtype=float)
            table = self._snap_table
            if src.ndim != 2 or src.shape[1] != len(table):
                raise ValueError(f"expected rows of {len(table)} unit positions, got {src.shape}")
            out = np.empty(src.shape)
            if lib.repro_codec_snap(
                table.ctypes.data, src.shape[1], src.ctypes.data, out.ctypes.data, len(src)
            ) < 0:
                return out
        out = np.empty(U.shape)
        for g in self.numeric:
            out[:, g.cols] = g.to_unit(g.from_unit(U[:, g.cols]))
        cat = self.categorical
        if cat is not None:
            self._reject_nan(U, cat.cols)
            out[:, cat.cols] = cat.units(cat.indices(U[:, cat.cols]))
        return out

    def encode(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        n = len(configs)
        out = np.empty((n, len(self.names)))
        if not n:
            return out
        # A Configuration's values are read from a plain dict copy, whose
        # lookups skip the Mapping protocol.
        dicts = [c.as_dict() if isinstance(c, Configuration) else c for c in configs]
        for g in self.numeric:
            out[:, g.cols] = g.to_unit(np.array(_rows_of(g.names, dicts), dtype=float))
        cat = self.categorical
        if cat is not None:
            values = itertools.chain.from_iterable(_rows_of(cat.names, dicts))
            I = np.fromiter(
                map(CategoricalKnob.choice_index, cat.knobs * n, values),
                dtype=np.int64,
                count=n * len(cat.knobs),
            )
            out[:, cat.cols] = cat.units(I.reshape(n, len(cat.knobs)))
        return out


@dataclass(eq=False)
class Neighbors:
    """One-exchange neighbours of a base configuration.

    Neighbour ``i`` is the base configuration with knob ``names[i]`` set
    to ``values[i]``.  Its encoding is the base configuration's unit row
    :attr:`row` with column ``cols[i]`` set to ``units[i]``; rows are
    built only for the neighbours asked for (:meth:`rows_at`).
    """

    base: dict[str, Any]
    row: np.ndarray
    cols: np.ndarray
    units: np.ndarray
    #: Each neighbour's native value (an object array).
    moved: np.ndarray
    #: The space's knob names, indexed by column.
    knob_names: list[str]

    def __len__(self) -> int:
        return len(self.cols)

    def rows_at(self, idx: np.ndarray) -> np.ndarray:
        """The encodings of neighbours ``idx``, one row each."""
        rows = np.repeat(self.row[None, :], len(idx), axis=0)
        rows[np.arange(len(idx)), self.cols[idx]] = self.units[idx]
        return rows

    @property
    def rows(self) -> np.ndarray:
        """Every neighbour's encoding, in order."""
        return self.rows_at(np.arange(len(self)))

    @property
    def names(self) -> list[str]:
        return [self.knob_names[c] for c in self.cols]

    @property
    def values(self) -> list[Any]:
        return self.moved.tolist()

    def configuration(self, i: int) -> Configuration:
        """Neighbour ``i`` as a configuration."""
        return Configuration({**self.base, self.knob_names[self.cols[i]]: self.moved[i]})


class ConfigurationSpace:
    """An ordered product of knob domains."""

    def __init__(self, knobs: Iterable[Knob], seed: int | None = None) -> None:
        self._knobs: list[Knob] = []
        self._by_name: dict[str, Knob] = {}
        for knob in knobs:
            if knob.name in self._by_name:
                raise ValueError(f"duplicate knob {knob.name!r}")
            self._knobs.append(knob)
            self._by_name[knob.name] = knob
        if not self._knobs:
            raise ValueError("configuration space must contain at least one knob")
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    @property
    def knobs(self) -> list[Knob]:
        return list(self._knobs)

    @property
    def names(self) -> list[str]:
        return [k.name for k in self._knobs]

    @property
    def n_dims(self) -> int:
        return len(self._knobs)

    def __len__(self) -> int:
        return len(self._knobs)

    def __iter__(self) -> Iterator[Knob]:
        return iter(self._knobs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Knob:
        return self._by_name[name]

    # ------------------------------------------------------------------
    # masks used by mixed-kernel models
    # ------------------------------------------------------------------
    @property
    def categorical_mask(self) -> np.ndarray:
        """Boolean mask, True where a dimension is categorical."""
        return np.array([k.is_categorical for k in self._knobs], dtype=bool)

    @property
    def continuous_mask(self) -> np.ndarray:
        """Boolean mask, True where a dimension is numeric (continuous/integer)."""
        return ~self.categorical_mask

    @property
    def has_categorical(self) -> bool:
        return any(k.is_categorical for k in self._knobs)

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    @cached_property
    def _codec(self) -> _Codec:
        return _Codec(self._knobs)

    def _rows(self, vectors: np.ndarray) -> np.ndarray:
        U = np.atleast_2d(np.asarray(vectors, dtype=float))
        if U.shape[1] != self.n_dims:
            raise ValueError(
                f"expected vectors of dimension {self.n_dims}, got {U.shape[1]}"
            )
        return U

    def encode(self, config: Mapping[str, Any]) -> np.ndarray:
        """Encode a configuration to its unit vector in ``[0, 1]^d``."""
        return self._codec.encode([config])[0]

    def decode(self, vector: Sequence[float]) -> Configuration:
        """Decode a unit vector to a native :class:`Configuration`."""
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (self.n_dims,):
            raise ValueError(f"expected vector of shape ({self.n_dims},), got {vec.shape}")
        return self._codec.decode(vec[None, :])[0]

    def encode_many(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Encode a batch of configurations into an ``(n, d)`` array, row
        ``i`` equal to :meth:`encode` of ``configs[i]``."""
        return self._codec.encode(list(configs))

    def decode_many(self, vectors: np.ndarray) -> list[Configuration]:
        """Decode an ``(n, d)`` array of unit vectors to configurations,
        one :meth:`decode` per row."""
        return self._codec.decode(self._rows(vectors))

    def snap_many(self, vectors: np.ndarray) -> np.ndarray:
        """Snap unit vectors onto the space's representable grid.

        Equal to ``encode_many(decode_many(vectors))`` -- integer and
        categorical dimensions land exactly on their encodings -- without
        materializing any native :class:`Configuration`.
        """
        return self._codec.snap(self._rows(vectors))

    def one_hot_encode_many(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Encode with explicit one-hot expansion of categorical knobs.

        Numeric knobs contribute their column of :meth:`encode_many`; a
        categorical knob with ``n`` choices contributes an ``n``-length
        indicator block, hot at the choice its encoded column holds.
        """
        U = self.encode_many(configs)
        codec, cat = self._codec, self._codec.categorical
        widths = np.ones(self.n_dims, dtype=np.intp)
        if cat is not None:
            widths[cat.cols] = cat.n
        starts = np.cumsum(widths) - widths
        out = np.zeros((len(U), int(widths.sum())))
        out[:, starts[codec.numeric_cols]] = U[:, codec.numeric_cols]
        if cat is not None:
            hot = starts[cat.cols] + cat.indices(U[:, cat.cols])
            out[np.arange(len(U))[:, None], hot] = 1.0
        return out

    # ------------------------------------------------------------------
    # configurations
    # ------------------------------------------------------------------
    @cached_property
    def _defaults(self) -> dict[str, Any]:
        return {k.name: k.default for k in self._knobs}

    def default_configuration(self) -> Configuration:
        """The vendor-default configuration."""
        return Configuration(self._defaults)

    def sample_configuration(self, rng: np.random.Generator | None = None) -> Configuration:
        """Draw one uniformly random configuration: one ``Knob.sample``
        per knob, in knob order."""
        rng = self._rng if rng is None else rng
        return self._codec.decode(rng.random((1, self.n_dims)))[0]

    def sample_configurations(
        self, n: int, rng: np.random.Generator | None = None
    ) -> list[Configuration]:
        """Draw ``n`` independent uniformly random configurations, the
        same stream as ``n`` calls of :meth:`sample_configuration`."""
        rng = self._rng if rng is None else rng
        return self._codec.decode(rng.random((n, self.n_dims)))

    def validate(self, config: Mapping[str, Any]) -> bool:
        """Check all knobs are present with in-domain values."""
        if set(config) != set(self._by_name):
            return False
        return all(k.validate(config[k.name]) for k in self._knobs)

    def complete(self, partial: Mapping[str, Any]) -> Configuration:
        """Extend a partial assignment with defaults for missing knobs."""
        values = dict(self._defaults)
        values.update(partial.items())
        if len(values) != len(self._knobs):
            unknown = next(name for name in partial if name not in self._by_name)
            raise KeyError(f"unknown knob {unknown!r}")
        return Configuration(values)

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def subspace(self, names: Sequence[str], seed: int | None = None) -> "ConfigurationSpace":
        """Return a new space restricted to the given knobs (in given order)."""
        missing = [n for n in names if n not in self._by_name]
        if missing:
            raise KeyError(f"unknown knobs: {missing}")
        return ConfigurationSpace([self._by_name[n] for n in names], seed=seed)

    def neighbors(
        self,
        config: Mapping[str, Any],
        rng: np.random.Generator | None = None,
        n_continuous: int = 4,
        stdev: float = 0.2,
    ) -> Neighbors:
        """Generate one-exchange neighbours of a configuration (SMAC-style).

        Numeric knobs get ``n_continuous`` Gaussian perturbations in unit
        space, kept when they change the knob's native value; categorical
        knobs get every alternative choice.  Neighbours come in knob
        order, and the perturbations are drawn knob by knob: the same
        neighbours, in the same order and from the same RNG stream, as
        perturbing one knob at a time through ``Knob.to_unit`` and
        ``Knob.from_unit``.  Each row of the result equals
        :meth:`encode_many` of its neighbour.
        """
        rng = self._rng if rng is None else rng
        codec, cat = self._codec, self._codec.categorical
        base = config.as_dict() if isinstance(config, Configuration) else dict(config)
        row = codec.encode([base])[0]
        current = np.fromiter((base[name] for name in codec.names), dtype=object)
        numeric = codec.numeric_cols
        steps = rng.normal(0.0, stdev, (len(numeric), n_continuous))
        U = np.repeat(row[None, :], n_continuous, axis=0)
        U[:, numeric] = np.clip(row[numeric, None] + steps, 0.0, 1.0).T
        # Python's != decides which moves change a knob's native value.
        values = codec.values(U)[:, numeric].T
        kept = values != current[numeric, None]
        j, k = np.nonzero(kept)
        cols = [numeric[j]]
        units = [codec.snap(U)[:, numeric].T[j, k]]
        moved = [values[j, k]]
        if cat is not None:
            others = cat.table != current[cat.cols, None]
            others &= np.arange(cat.table.shape[1]) < cat.n[:, None]
            r, i = np.nonzero(others)
            cols.append(cat.cols[r])
            units.append((i + 0.5) / cat.n[r])
            moved.append(cat.table[r, i])
        # Knob order; a knob's moves keep their draw or choice order.
        order = np.argsort(np.concatenate(cols), kind="stable")
        return Neighbors(
            base,
            row,
            np.concatenate(cols)[order],
            np.concatenate(units)[order],
            np.concatenate(moved)[order],
            codec.names,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConfigurationSpace(n_dims={self.n_dims})"
