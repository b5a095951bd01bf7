"""Tests for Eq. 6 adjusted averaging coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import (
    adjusted_coefficients,
    fedavg_coefficients,
    normalize_ratios,
    straggler_cut,
)


class TestNormalizeRatios:
    def test_sum_mode(self):
        out = normalize_ratios(np.array([0.1, 0.3]), mode="sum")
        np.testing.assert_allclose(out, [0.25, 0.75])

    def test_max_mode(self):
        out = normalize_ratios(np.array([0.1, 0.4]), mode="max")
        np.testing.assert_allclose(out, [0.25, 1.0])

    def test_none_mode(self):
        out = normalize_ratios(np.array([0.1, 0.4]), mode="none")
        np.testing.assert_allclose(out, [0.1, 0.4])

    def test_invalid(self):
        with pytest.raises(ValueError):
            normalize_ratios(np.array([0.1, -0.2]))
        with pytest.raises(ValueError):
            normalize_ratios(np.array([0.1]), mode="bogus")
        with pytest.raises(ValueError):
            normalize_ratios(np.array([]))

    def test_unknown_mode_error_names_mode_and_valid_set(self):
        with pytest.raises(ValueError, match=r"'bogus'.*\('sum', 'max', 'none'\)"):
            normalize_ratios(np.array([0.1]), mode="bogus")


class TestFedAvgCoefficients:
    def test_passthrough(self):
        f = np.array([0.2, 0.8])
        np.testing.assert_array_equal(fedavg_coefficients(f), f)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            fedavg_coefficients(np.array([0.5, 0.6]))


class TestAdjustedCoefficients:
    def test_eq6_exact(self):
        """Hand-computed Eq. 6 with sum-normalization."""
        f = np.array([0.5, 0.5])
        crs = np.array([0.3, 0.1])  # shares: 0.75, 0.25
        p = adjusted_coefficients(f, crs, alpha=1.0)
        np.testing.assert_allclose(p, [0.5 / 0.75, 1.0])

    def test_alpha_scales(self):
        f = np.array([0.5, 0.5])
        crs = np.array([0.1, 0.1])
        p = adjusted_coefficients(f, crs, alpha=0.3)
        np.testing.assert_allclose(p, [0.3, 0.3])

    def test_max_value_is_alpha(self):
        """Paper: 'adjusted averaging coefficient with a maximum value of 1'
        (for alpha = 1)."""
        rng = np.random.default_rng(0)
        f = rng.dirichlet(np.ones(10))
        crs = rng.uniform(0.01, 1.0, size=10)
        p = adjusted_coefficients(f, crs, alpha=1.0)
        assert np.all(p <= 1.0 + 1e-12)

    def test_high_bandwidth_client_downweighted(self):
        """A client transmitting a larger share than its data share gets
        coefficient < alpha; equal shares keep exactly alpha."""
        f = np.array([0.5, 0.5])
        crs = np.array([0.9, 0.1])
        p = adjusted_coefficients(f, crs, alpha=1.0)
        assert p[0] < 1.0
        assert p[1] == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_coefficients(np.array([1.0]), np.array([0.1, 0.2]), 1.0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            adjusted_coefficients(np.array([1.0]), np.array([0.1]), 0.0)

    @given(st.integers(2, 16), st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_bounds_property(self, n, alpha):
        rng = np.random.default_rng(n)
        f = rng.dirichlet(np.ones(n))
        crs = rng.uniform(0.01, 1.0, size=n)
        p = adjusted_coefficients(f, crs, alpha=alpha)
        assert np.all(p > 0)
        assert np.all(p <= alpha + 1e-12)

    def test_uniform_everything_gives_alpha(self):
        f = np.full(4, 0.25)
        crs = np.full(4, 0.1)
        p = adjusted_coefficients(f, crs, alpha=0.5)
        np.testing.assert_allclose(p, 0.5)


class TestStragglerCut:
    def test_drops_whoever_misses_and_renormalises(self):
        w = straggler_cut([0.2, 0.3, 0.5], [1.0, 3.0, 2.0], deadline=2.0)
        np.testing.assert_allclose(w, [0.2 / 0.7, 0.0, 0.5 / 0.7])
        assert w.sum() == pytest.approx(1.0)

    def test_a_finish_at_the_cut_up_to_rounding_makes_it(self):
        w = straggler_cut([0.5, 0.5], [1.0, 2.0 + 1e-10], deadline=2.0)
        assert np.all(w > 0)

    def test_when_everyone_misses_the_fastest_weighted_member_keeps_it_all(self):
        # Member 0 is the fastest overall but carries no weight, so the
        # fastest positive-weight member (2) is the one kept.
        w = straggler_cut([0.0, 0.6, 0.4], [0.5, 3.0, 2.0], deadline=0.1)
        np.testing.assert_array_equal(w, [0.0, 0.0, 1.0])

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_survivors_sum_to_one_and_a_zero_weight_is_never_chosen(self, n, seed, deadline):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 1.0, size=n) * (rng.random(n) < 0.7)
        if not weights.any():
            weights[rng.integers(n)] = 1.0
        w = straggler_cut(weights, rng.uniform(0.0, 2.0, size=n), deadline)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w[weights == 0] == 0)
