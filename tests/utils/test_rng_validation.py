"""Tests for RNG streams and validation helpers."""

import numpy as np
import pytest

from repro.utils.rng import RngFactory, as_generator
from repro.utils.validation import check_fraction, check_positive


class TestAsGenerator:
    def test_from_int(self):
        g = as_generator(42)
        assert isinstance(g, np.random.Generator)

    def test_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_same_seed_same_stream(self):
        assert as_generator(7).random() == as_generator(7).random()


class TestRngFactory:
    def test_named_streams_stable(self):
        f1, f2 = RngFactory(9), RngFactory(9)
        assert f1.stream("sampler").random() == f2.stream("sampler").random()

    def test_names_independent(self):
        f = RngFactory(9)
        assert f.stream("a").random() != f.stream("b").random()

    def test_order_independent(self):
        f1, f2 = RngFactory(1), RngFactory(1)
        a1 = f1.stream("x").random()
        f2.stream("y")  # request another stream first
        a2 = f2.stream("x").random()
        assert a1 == a2

    def test_children_indexed(self):
        f = RngFactory(2)
        assert f.child("client", 0).random() != f.child("client", 1).random()
        assert f.child("client", 3).random() == RngFactory(2).child("client", 3).random()

    def test_child_negative_index(self):
        with pytest.raises(ValueError):
            RngFactory(0).child("x", -1)

    def test_seed_property(self):
        assert RngFactory(11).seed == 11


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(ValueError):
            check_positive("x", 0.0)
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))

    def test_check_fraction(self):
        assert check_fraction("x", 1.0) == 1.0
        assert check_fraction("x", 0.0, allow_zero=True) == 0.0
        with pytest.raises(ValueError):
            check_fraction("x", 0.0)
        with pytest.raises(ValueError):
            check_fraction("x", 1.1)
        with pytest.raises(ValueError):
            check_fraction("x", float("inf"))
