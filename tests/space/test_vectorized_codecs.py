"""The space's batch codec (``encode_many`` / ``decode_many`` /
``snap_many``, the one-row ``encode`` / ``decode``, sampling and the
neighbourhood) must equal the scalar per-knob codec bit for bit.

Every check compares against ``ScalarCodec`` (``tests/conftest.py``):
one ``Knob.to_unit`` / ``from_unit`` / ``sample`` call per value, and the
one-knob-at-a-time neighbourhood loop.  The spaces are a six-knob space
with one knob of every kind and the full 197-knob MySQL catalog, whose
64 log-scaled integer knobs include ``max_join_size`` (up to 2**62).
"""

import pickle

import numpy as np
import pytest

from repro.dbms.catalog import mysql_knob_space
from repro.space import ConfigurationSpace
from repro.space.parameter import CategoricalKnob, ContinuousKnob, IntegerKnob

SPACES = {
    "six-knob": lambda: ConfigurationSpace(
        [
            ContinuousKnob("lin", 0.0, 10.0, 5.0),
            ContinuousKnob("logc", 1e-3, 1e3, 1.0, log=True),
            IntegerKnob("ilin", 0, 1000, 50),
            IntegerKnob("ilog", 1, 2**20, 64, log=True),
            CategoricalKnob("cat2", ["off", "on"], "off"),
            CategoricalKnob("cat5", list("abcde"), "a"),
        ]
    ),
    "catalog": lambda: mysql_knob_space("B"),
}

#: Unit positions that exercise clamping, signed zeros and the last
#: categorical bin.
BOUNDARIES = [0.0, 1.0, 1.0 - 1e-16, -0.5, 1.5, -0.0]


@pytest.fixture(params=list(SPACES))
def space(request):
    return SPACES[request.param]()


@pytest.fixture
def ref(space, scalar_codec):
    return scalar_codec(space)


@pytest.fixture
def vectors(space):
    rng = np.random.default_rng(99)
    U = rng.random((500, space.n_dims))
    # One row per boundary value, then rows mixing them column by column.
    U[: len(BOUNDARIES)] = np.array(BOUNDARIES)[:, None]
    U[len(BOUNDARIES) : 40] = rng.choice(BOUNDARIES, size=(40 - len(BOUNDARIES), space.n_dims))
    return U


def _reprs(configs):
    """Equal reprs mean equal values *and* equal Python types."""
    return [repr(c) for c in configs]


def test_snap_many_bit_identical_to_scalar_round_trip(space, ref, vectors):
    fast = space.snap_many(vectors)
    slow = ref.encode(ref.decode(vectors))
    assert fast.tobytes() == slow.tobytes()


def test_decode_many_matches_scalar_decode(space, ref, vectors):
    slow = ref.decode(vectors)
    assert space.decode_many(vectors) == slow
    assert _reprs(space.decode_many(vectors)) == _reprs(slow)
    assert _reprs(space.decode(row) for row in vectors) == _reprs(slow)


def test_encode_many_bit_identical_to_scalar_encode(space, ref, vectors):
    configs = ref.decode(vectors)
    slow = ref.encode(configs)
    assert space.encode_many(configs).tobytes() == slow.tobytes()
    assert np.vstack([space.encode(c) for c in configs]).tobytes() == slow.tobytes()


def test_decoded_values_have_scalar_types(space, ref, vectors):
    for fast, slow in zip(space.decode_many(vectors[:40]), ref.decode(vectors[:40])):
        for name in space.names:
            assert type(fast[name]) is type(slow[name]), name
        assert hash(fast) == hash(slow)


def test_integers_beyond_int64_encode_like_scalar(space, ref):
    """``encode`` clamps any Python int into the knob's bounds, so the batch
    codec must too: e.g. ``innodb_buffer_pool_instances=2**70`` (linear)
    and ``max_join_size=18446744073709551615``, MySQL's own default."""
    default = space.default_configuration()
    configs = [
        default.with_values(**{k.name: value})
        for k in space.knobs
        if isinstance(k, IntegerKnob)
        for value in (2**70, 18446744073709551615, -(2**70))
    ]
    slow = ref.encode(configs)
    assert space.encode_many(configs).tobytes() == slow.tobytes()
    assert np.vstack([space.encode(c) for c in configs]).tobytes() == slow.tobytes()


def test_signed_zero_values_encode_like_scalar(space, ref):
    """``to_unit(-0.0)`` keeps the sign where Python's ``min``/``max`` do
    (a linear continuous knob whose lower bound is 0.0)."""
    default = space.default_configuration()
    configs = [
        default.with_values(**{k.name: value})
        for k in space.knobs
        if not isinstance(k, CategoricalKnob)
        for value in (-0.0, 0.0, -0.0 + k.lower, float(k.upper))
    ]
    slow = ref.encode(configs)
    assert space.encode_many(configs).tobytes() == slow.tobytes()


def test_log_columns_match_libm(scalar_codec):
    """numpy's ``exp``/``log`` differ from ``math``'s on a small share of
    inputs (``exp`` on about 4.6% of draws on an AVX-512F host, ``log`` far
    fewer), so the log groups are checked on many values."""
    space = ConfigurationSpace(
        [
            ContinuousKnob("logc", 1e-3, 1e3, 1.0, log=True),
            IntegerKnob("ilog", 1, 2**62, 2**62, log=True),
        ]
    )
    ref = scalar_codec(space)
    U = np.random.default_rng(7).random((100_000, 2))
    slow = ref.decode(U)
    assert space.decode_many(U) == slow
    assert space.encode_many(slow).tobytes() == ref.encode(slow).tobytes()
    assert space.snap_many(U).tobytes() == ref.encode(slow).tobytes()


def _one_hot_blocks(space, configs) -> np.ndarray:
    """One-hot rows built knob by knob: ``Knob.to_unit`` of a numeric
    knob, an indicator block set at ``choice_index`` of a categorical one."""
    rows = []
    for config in configs:
        parts = []
        for knob in space.knobs:
            if isinstance(knob, CategoricalKnob):
                block = np.zeros(knob.n_choices)
                block[knob.choice_index(config[knob.name])] = 1.0
                parts.append(block)
            else:
                parts.append(np.array([knob.to_unit(config[knob.name])]))
        rows.append(np.concatenate(parts))
    return np.array(rows, dtype=float)


def test_one_hot_encode_many_equals_per_knob_blocks(space, vectors):
    configs = space.decode_many(vectors)
    assert space.one_hot_encode_many(configs).tobytes() == _one_hot_blocks(space, configs).tobytes()


def test_one_hot_of_tiny_and_numeric_spaces(tiny_space):
    catalog = mysql_knob_space("B")
    numeric = catalog.subspace([k.name for k in catalog.knobs if not k.is_categorical])
    for space in (tiny_space, numeric):
        configs = space.sample_configurations(50, np.random.default_rng(4))
        one_hot = space.one_hot_encode_many(configs)
        assert one_hot.tobytes() == _one_hot_blocks(space, configs).tobytes()
    assert one_hot.tobytes() == numeric.encode_many(configs).tobytes()


def test_snap_many_idempotent(space, vectors):
    snapped = space.snap_many(vectors)
    assert space.snap_many(snapped).tobytes() == snapped.tobytes()


def test_decode_encode_round_trip(space, ref, vectors):
    configs = ref.decode(vectors)
    assert space.decode_many(space.encode_many(configs)) == configs
    assert [space.decode(space.encode(c)) for c in configs[:40]] == configs[:40]


def test_empty_inputs(space):
    assert space.encode_many([]).shape == (0, space.n_dims)
    assert space.decode_many(np.empty((0, space.n_dims))) == []
    assert space.snap_many(np.empty((0, space.n_dims))).shape == (0, space.n_dims)
    assert space.sample_configurations(0, np.random.default_rng(0)) == []


def test_decoded_values_in_domain(space, vectors):
    for config in space.decode_many(vectors):
        for knob in space.knobs:
            value = config[knob.name]
            if isinstance(knob, CategoricalKnob):
                assert value in knob.choices
            else:
                assert knob.lower <= value <= knob.upper, knob.name
                if isinstance(knob, IntegerKnob):
                    assert isinstance(value, int)


def test_every_choice_reachable(space, vectors):
    configs = space.decode_many(vectors)
    for knob in space.knobs:
        if isinstance(knob, CategoricalKnob):
            assert {c[knob.name] for c in configs} == set(knob.choices), knob.name


def test_sample_configurations_match_scalar_draws(space, ref):
    """n x d scalar ``Knob.sample`` draws, and the same RNG state after."""
    r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
    fast = space.sample_configurations(60, r1) + [space.sample_configuration(r1)]
    slow = ref.sample(61, r2)
    assert _reprs(fast) == _reprs(slow)
    assert r1.bit_generator.state == r2.bit_generator.state


@pytest.mark.parametrize("stdev", [0.1, 0.2])
def test_neighbors_match_scalar_loop(space, ref, stdev):
    """The same neighbours in the same order, rows equal to ``encode_many``
    of them, and the same RNG state after."""
    bases = [space.default_configuration()] + ref.sample(6, np.random.default_rng(3))
    bases += ref.decode(np.array(BOUNDARIES)[:, None].repeat(space.n_dims, axis=1))
    for i, base in enumerate(bases):
        r1, r2 = np.random.default_rng(i), np.random.default_rng(i)
        neighbors = space.neighbors(base, r1, n_continuous=4, stdev=stdev)
        slow = ref.neighbors(base, r2, n_continuous=4, stdev=stdev)
        fast = [neighbors.configuration(j) for j in range(len(neighbors))]
        assert _reprs(fast) == _reprs(slow)
        assert neighbors.rows.tobytes() == space.encode_many(slow).tobytes()
        assert neighbors.rows.tobytes() == ref.encode(slow).tobytes()
        assert r1.bit_generator.state == r2.bit_generator.state


def test_neighbor_rows_built_on_request(space, ref):
    """``rows_at(idx)`` is ``rows[idx]`` for any index array -- a sample,
    repeats, none -- and ``len``, ``names`` and ``values`` are each
    neighbour's moved knob and its native value, as the scalar loop
    produces them."""
    bases = [space.default_configuration()] + ref.sample(3, np.random.default_rng(8))
    for i, base in enumerate(bases):
        neighbors = space.neighbors(base, np.random.default_rng(i))
        slow = ref.neighbors(base, np.random.default_rng(i))
        moved = [next(name for name in space.names if c[name] != base[name]) for c in slow]
        assert len(neighbors) == len(slow)
        assert neighbors.names == moved
        assert [repr(v) for v in neighbors.values] == [repr(c[m]) for c, m in zip(slow, moved)]
        rows, n = neighbors.rows, len(neighbors)
        sample = np.random.default_rng(i).choice(n, size=min(80, n), replace=False)
        for idx in (np.arange(n), sample, np.array([n - 1, 0, 0]), np.array([], dtype=np.int64)):
            assert neighbors.rows_at(idx).tobytes() == rows[idx].tobytes()


@pytest.mark.parametrize("kind", ["numeric", "categorical"])
def test_neighbors_of_single_kind_spaces(kind, scalar_codec):
    knobs = {
        "numeric": [ContinuousKnob("x", 0.0, 1.0, 0.5), IntegerKnob("n", 1, 512, 8, log=True)],
        "categorical": [CategoricalKnob("m", list("abc"), "a"), CategoricalKnob("b", [0, 1], 1)],
    }
    space = ConfigurationSpace(knobs[kind])
    base = space.default_configuration()
    r1, r2 = np.random.default_rng(1), np.random.default_rng(1)
    neighbors = space.neighbors(base, r1)
    slow = scalar_codec(space).neighbors(base, r2)
    assert [neighbors.configuration(j) for j in range(len(neighbors))] == slow
    assert neighbors.rows.tobytes() == space.encode_many(slow).tobytes()


def test_integer_bounds_beyond_exact_arithmetic_rejected():
    """The batch codec works in float64; it refuses integer knobs whose
    scalar (Python int) arithmetic it could not reproduce."""
    wide = ConfigurationSpace([IntegerKnob("wide", 0, 2**60, 1)])
    with pytest.raises(ValueError, match="exact float64"):
        wide.encode({"wide": 5})
    odd_log = ConfigurationSpace([IntegerKnob("odd", 1, 2**62 + 1, 1, log=True)])
    with pytest.raises(ValueError, match="exact float64"):
        odd_log.decode([0.5])


def test_compiled_space_pickles(space, vectors):
    """Pool workers receive spaces by pickle, compiled codec included; a
    space that failed to pickle would make the executor run its specs
    in-process."""
    space.snap_many(vectors[:2])
    clone = pickle.loads(pickle.dumps(space))
    assert clone.snap_many(vectors).tobytes() == space.snap_many(vectors).tobytes()
    assert clone.decode_many(vectors) == space.decode_many(vectors)
