"""Unit tests for knob types."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import CategoricalKnob, ContinuousKnob, IntegerKnob


class TestContinuousKnob:
    def test_unit_roundtrip_linear(self):
        knob = ContinuousKnob("x", -5.0, 5.0, 0.0)
        assert knob.from_unit(knob.to_unit(2.5)) == pytest.approx(2.5)
        assert knob.to_unit(-5.0) == 0.0
        assert knob.to_unit(5.0) == 1.0

    def test_unit_roundtrip_log(self):
        knob = ContinuousKnob("x", 1.0, 1024.0, 32.0, log=True)
        assert knob.from_unit(knob.to_unit(64.0)) == pytest.approx(64.0)
        assert knob.from_unit(0.5) == pytest.approx(32.0)

    def test_clip_and_validate(self):
        knob = ContinuousKnob("x", 0.0, 10.0, 5.0)
        assert knob.validate(3.3)
        assert not knob.validate(10.5)
        assert not knob.validate("nope")

    def test_out_of_range_default_is_clamped(self):
        knob = ContinuousKnob("x", 0.0, 1.0, 7.0)
        assert knob.default == 1.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ContinuousKnob("x", 2.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            ContinuousKnob("x", 0.0, 1.0, 0.5, log=True)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_from_unit_always_in_domain(self, u):
        knob = ContinuousKnob("x", -3.0, 7.0, 0.0)
        value = knob.from_unit(u)
        assert -3.0 <= value <= 7.0

    def test_sample_within_domain(self):
        knob = ContinuousKnob("x", 2.0, 4.0, 3.0, log=True)
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert 2.0 <= knob.sample(rng) <= 4.0


class TestIntegerKnob:
    def test_unit_roundtrip(self):
        knob = IntegerKnob("n", 0, 100, 50)
        for v in (0, 17, 50, 100):
            assert knob.from_unit(knob.to_unit(v)) == v

    def test_log_roundtrip(self):
        knob = IntegerKnob("n", 1, 2**20, 1024, log=True)
        for v in (1, 2, 1024, 2**20):
            assert knob.from_unit(knob.to_unit(v)) == v

    def test_from_unit_is_integer(self):
        knob = IntegerKnob("n", 0, 9, 5)
        assert isinstance(knob.from_unit(0.33), int)

    def test_validate_rejects_bool_and_float(self):
        knob = IntegerKnob("n", 0, 10, 5)
        assert knob.validate(5)
        assert not knob.validate(True)
        assert not knob.validate(5.5)
        assert not knob.validate(11)

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=50, deadline=None)
    def test_unit_monotonicity(self, v):
        knob = IntegerKnob("n", 1, 10**9, 100, log=True)
        u = knob.to_unit(v)
        assert 0.0 <= u <= 1.0
        if v > 1:
            assert knob.to_unit(v) > knob.to_unit(max(1, v // 2))


class TestCategoricalKnob:
    def test_roundtrip_all_choices(self):
        knob = CategoricalKnob("m", ["a", "b", "c", "d"], "b")
        for choice in knob.choices:
            assert knob.from_unit(knob.to_unit(choice)) == choice

    def test_uniform_unit_samples_cover_choices(self):
        knob = CategoricalKnob("m", ["x", "y", "z"], "x")
        seen = {knob.from_unit(u) for u in np.linspace(0.01, 0.99, 30)}
        assert seen == {"x", "y", "z"}

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            CategoricalKnob("m", ["only"], "only")
        with pytest.raises(ValueError):
            CategoricalKnob("m", ["a", "a"], "a")
        with pytest.raises(ValueError):
            CategoricalKnob("m", ["a", "b"], "c")

    def test_choice_index_and_validate(self):
        knob = CategoricalKnob("m", ["a", "b"], "a")
        assert knob.choice_index("b") == 1
        with pytest.raises(ValueError):
            knob.choice_index("z")
        assert knob.validate("a")
        assert not knob.validate("z")

    def test_unit_encoding_is_bin_midpoint(self):
        knob = CategoricalKnob("m", ["a", "b"], "a")
        assert knob.to_unit("a") == pytest.approx(0.25)
        assert knob.to_unit("b") == pytest.approx(0.75)


def test_knob_requires_name():
    with pytest.raises(ValueError):
        ContinuousKnob("", 0.0, 1.0, 0.5)


def test_nan_unit_is_clamped():
    knob = ContinuousKnob("x", 0.0, 1.0, 0.5)
    assert 0.0 <= knob.from_unit(0.0) <= 1.0
    assert math.isfinite(knob.from_unit(1.0))
