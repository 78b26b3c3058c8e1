"""Unit and property tests for ConfigurationSpace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import (
    CategoricalKnob,
    Configuration,
    ConfigurationSpace,
    ContinuousKnob,
    IntegerKnob,
)


class TestBasics:
    def test_duplicate_knobs_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationSpace(
                [ContinuousKnob("x", 0, 1, 0.5), ContinuousKnob("x", 0, 2, 1.0)]
            )

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationSpace([])

    def test_container_protocol(self, tiny_space):
        assert len(tiny_space) == 4
        assert "mode" in tiny_space
        assert tiny_space["n"].name == "n"

    def test_masks(self, tiny_space):
        assert tiny_space.categorical_mask.tolist() == [False, False, True, False]
        assert tiny_space.continuous_mask.tolist() == [True, True, False, True]
        assert tiny_space.has_categorical


class TestEncoding:
    def test_default_roundtrip(self, tiny_space):
        default = tiny_space.default_configuration()
        assert tiny_space.decode(tiny_space.encode(default)) == default

    def test_decode_shape_check(self, tiny_space):
        with pytest.raises(ValueError):
            tiny_space.decode([0.5, 0.5])

    def test_encode_many(self, tiny_space):
        configs = tiny_space.sample_configurations(5)
        X = tiny_space.encode_many(configs)
        assert X.shape == (5, 4)
        assert (X >= 0).all() and (X <= 1).all()

    def test_one_hot_encoding(self, tiny_space):
        default = tiny_space.default_configuration()
        (vec,) = tiny_space.one_hot_encode_many([default])
        assert len(vec) == 3 + 3
        # x, n, then one indicator per mode choice: exactly one is hot
        cat_block = vec[2:5]
        assert cat_block.sum() == 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_decode_encode_decode_is_stable(self, vector):
        space = ConfigurationSpace(
            [
                ContinuousKnob("x", 0.0, 1.0, 0.5),
                IntegerKnob("n", 1, 1024, 16, log=True),
                CategoricalKnob("mode", ["a", "b", "c"], "a"),
                IntegerKnob("count", 0, 100, 10),
            ]
        )
        config = space.decode(vector)
        again = space.decode(space.encode(config))
        assert config == again


class TestConfigurations:
    def test_validate_and_complete(self, tiny_space):
        default = tiny_space.default_configuration()
        assert tiny_space.validate(default)
        partial = {"x": 0.9}
        completed = tiny_space.complete(partial)
        assert completed["x"] == 0.9
        assert completed["mode"] == "a"
        with pytest.raises(KeyError):
            tiny_space.complete({"unknown": 1})

    def test_complete_keeps_knob_order_and_names_the_first_unknown(self, tiny_space):
        completed = tiny_space.complete(Configuration({"mode": "b", "x": 0.9}))
        assert list(completed) == tiny_space.names
        assert completed == dict(tiny_space.default_configuration(), mode="b", x=0.9)
        with pytest.raises(KeyError) as err:
            tiny_space.complete({"x": 0.1, "q": 1, "r": 2})
        assert str(err.value) == '"unknown knob \'q\'"'
        with pytest.raises(KeyError) as err:
            tiny_space.complete(Configuration({"r": 2, "x": 0.1, "q": 1}))
        assert str(err.value) == '"unknown knob \'r\'"'

    def test_validate_rejects_missing_and_invalid(self, tiny_space):
        assert not tiny_space.validate({"x": 0.5})
        bad = tiny_space.default_configuration().as_dict()
        bad["mode"] = "zzz"
        assert not tiny_space.validate(bad)

    def test_sampling_is_seeded(self):
        knobs = lambda: [  # noqa: E731
            ContinuousKnob("x", 0.0, 1.0, 0.5),
            CategoricalKnob("m", ["a", "b"], "a"),
        ]
        s1 = ConfigurationSpace(knobs(), seed=5)
        s2 = ConfigurationSpace(knobs(), seed=5)
        assert s1.sample_configurations(4) == s2.sample_configurations(4)


class TestStructure:
    def test_subspace_order_and_unknown(self, tiny_space):
        sub = tiny_space.subspace(["mode", "x"])
        assert sub.names == ["mode", "x"]
        with pytest.raises(KeyError):
            tiny_space.subspace(["nope"])

    def test_neighbors_change_one_knob(self, tiny_space):
        config = tiny_space.default_configuration()
        neighbors = tiny_space.neighbors(config, np.random.default_rng(0))
        assert len(neighbors) == len(neighbors.rows) > 0
        base_row = tiny_space.encode(config)
        for i, row in enumerate(neighbors.rows):
            neighbor = neighbors.configuration(i)
            diff = [k for k in tiny_space.names if neighbor[k] != config[k]]
            assert diff == [neighbors.names[i]]
            assert neighbor[neighbors.names[i]] == neighbors.values[i]
            # Only the moved knob's column may differ from the base row.
            moved = tiny_space.names.index(neighbors.names[i])
            assert np.delete(row, moved).tobytes() == np.delete(base_row, moved).tobytes()

    def test_neighbors_cover_categorical_alternatives(self, tiny_space):
        config = tiny_space.default_configuration()
        neighbors = tiny_space.neighbors(config, np.random.default_rng(0))
        modes = {v for n, v in zip(neighbors.names, neighbors.values) if n == "mode"}
        assert modes == {"b", "c"}


class TestConfigurationObject:
    def test_hash_and_equality(self):
        a = Configuration({"x": 1, "y": "on"})
        b = Configuration({"y": "on", "x": 1})
        assert a == b and hash(a) == hash(b)
        assert a == {"x": 1, "y": "on"}
        # Equal values of different types (or signs of zero) hash alike.
        for left, right in ((1, 1.0), (1, np.int64(1)), (0.0, -0.0)):
            a, b = Configuration({"x": left}), Configuration({"x": right})
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_unpickled_hash_matches_fresh_in_another_interpreter(self, run_python):
        """String hashes are salted per interpreter: a hash cached before
        pickling must not travel to a process with another hash seed."""
        writer = (
            "import pickle\n"
            "from repro.space import Configuration\n"
            "c = Configuration({'mode': 'fast', 'x': 1})\n"
            "hash(c)\n"
            "print(pickle.dumps(c).hex())\n"
        )
        reader = (
            "import pickle, sys\n"
            "from repro.space import Configuration\n"
            "loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            "fresh = Configuration({'mode': 'fast', 'x': 1})\n"
            "print(loaded == fresh, hash(loaded) == hash(fresh), len({loaded, fresh}))\n"
        )
        pickled = run_python(writer, hash_seed=1)
        assert run_python(reader, hash_seed=2, stdin=pickled).split() == [
            "True",
            "True",
            "1",
        ]

    def test_with_values_copies(self):
        a = Configuration({"x": 1})
        b = a.with_values(x=2)
        assert a["x"] == 1 and b["x"] == 2

    def test_views_answer_from_the_dict_in_order(self):
        c = Configuration({"b": 2, "a": "on", "c": 0.5})
        assert list(c.keys()) == ["b", "a", "c"]
        assert list(c.items()) == [("b", 2), ("a", "on"), ("c", 0.5)]
        assert list(c.values()) == [2, "on", 0.5]
        assert c.get("a") == "on" and c.get("z") is None and c.get("z", 7) == 7
        assert "a" in c and "z" not in c
        # The views are read-only: their mapping is a proxy.
        with pytest.raises(TypeError):
            c.keys().mapping["a"] = "off"
        assert c["a"] == "on"

    def test_copy_of_a_configuration_is_independent(self):
        c = Configuration({"x": 1, "mode": "a"})
        copy = Configuration(c)
        assert copy == c and hash(copy) == hash(c)
        assert copy is not c and copy._values is not c._values
        assert list(copy.items()) == list(c.items())

    def test_as_dict_is_mutable_copy(self):
        a = Configuration({"x": 1})
        d = a.as_dict()
        d["x"] = 99
        assert a["x"] == 1
