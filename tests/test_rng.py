"""Tests for deterministic RNG management."""

import numpy as np
from hypothesis import given, strategies as st

from repro.rng import derive_seed, make_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_scope_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_63_bit_range(self):
        seed = derive_seed(123456, "scope")
        assert 0 <= seed < 2**63

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=40))
    def test_always_in_range(self, root, scope):
        assert 0 <= derive_seed(root, scope) < 2**63


class TestMakeRng:
    def test_reproducible_stream(self):
        a = make_rng(9, "x").random(5)
        b = make_rng(9, "x").random(5)
        assert np.array_equal(a, b)

    def test_scoped_streams_differ(self):
        a = make_rng(9, "x").random(5)
        b = make_rng(9, "y").random(5)
        assert not np.array_equal(a, b)

