"""Tests for Latin Hypercube and quasi-random designs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space.sampling import (
    LatinHypercubeSampler,
    latin_hypercube,
    scrambled_sobol_like,
)


class TestLatinHypercube:
    def test_shape_and_range(self):
        design = latin_hypercube(20, 5, np.random.default_rng(0))
        assert design.shape == (20, 5)
        assert (design >= 0).all() and (design < 1).all()

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_stratification_property(self, n, d):
        """Each of the n strata per dimension contains exactly one point."""
        design = latin_hypercube(n, d, np.random.default_rng(3))
        for j in range(d):
            strata = np.floor(design[:, j] * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            latin_hypercube(0, 3, rng)
        with pytest.raises(ValueError):
            latin_hypercube(3, 0, rng)

    def test_seeded_reproducibility(self):
        a = latin_hypercube(10, 4, np.random.default_rng(42))
        b = latin_hypercube(10, 4, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestSobolLike:
    def test_shape_and_range(self):
        design = scrambled_sobol_like(100, 7, np.random.default_rng(1))
        assert design.shape == (100, 7)
        assert (design >= 0).all() and (design < 1).all()

    def test_low_discrepancy_beats_iid_worst_gap(self):
        """1-D projections should have smaller maximum gaps than typical."""
        rng = np.random.default_rng(0)
        design = scrambled_sobol_like(256, 1, rng).ravel()
        gaps = np.diff(np.sort(design))
        assert gaps.max() < 0.05  # iid uniform would typically exceed this

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            scrambled_sobol_like(0, 1, np.random.default_rng(0))


class TestLHSSampler:
    def test_produces_valid_configurations(self, tiny_space):
        sampler = LatinHypercubeSampler(tiny_space, seed=0)
        configs = sampler.sample(16)
        assert len(configs) == 16
        assert all(tiny_space.validate(c) for c in configs)

    def test_numeric_dimension_coverage(self, tiny_space):
        sampler = LatinHypercubeSampler(tiny_space, seed=0)
        configs = sampler.sample(64)
        xs = sorted(c["x"] for c in configs)
        # stratified: both tails are reached
        assert xs[0] < 0.05 and xs[-1] > 0.95


class _FixedOffset:
    """A generator stand-in whose ``random(d)`` returns a set offset."""

    def __init__(self, offset: np.ndarray) -> None:
        self.offset = offset

    def random(self, d: int) -> np.ndarray:
        return self.offset.copy()


def _kronecker_by_remainder(n: int, d: int, offset: np.ndarray) -> np.ndarray:
    """The Kronecker design with numpy's float remainder ``% 1.0``."""
    phi = 2.0
    for _ in range(32):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alphas = np.array([(1.0 / phi) ** (j + 1) for j in range(d)])
    return (offset + np.arange(1, n + 1)[:, None] * alphas) % 1.0


@pytest.mark.parametrize("d", [1, 20, 197])
def test_kronecker_design_equals_float_remainder(d):
    """Subtracting the floor gives ``% 1.0``'s bytes, from a zero offset
    and from drawn ones, and draws the offset as before."""
    rng, twin = np.random.default_rng(d), np.random.default_rng(d)
    for offset in [np.zeros(d)] + [rng.random(d) for _ in range(40)]:
        design = scrambled_sobol_like(1024, d, _FixedOffset(offset))
        assert design.tobytes() == _kronecker_by_remainder(1024, d, offset).tobytes()
    design = scrambled_sobol_like(1024, d, rng)
    offsets = [twin.random(d) for _ in range(41)]
    assert design.tobytes() == _kronecker_by_remainder(1024, d, offsets[-1]).tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state
