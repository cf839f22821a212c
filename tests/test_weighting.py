import numpy as np
import pytest

from driftcast.core import ConfigError
from driftcast.weighting import WeightingScheme, weight_schedule


def recursion_oracle(method, alpha0, beta, n):
    """Straight recursion: newest weight alpha0, each older step either
    multiplies by alpha0 or subtracts beta/n. Returns oldest-first."""
    weights = [alpha0]
    for _ in range(n - 1):
        if method == "exponential":
            weights.append(weights[-1] * alpha0)
        else:
            weights.append(weights[-1] - beta / n)
    return np.array(weights[::-1])


class TestExamples:
    def test_exponential_small(self):
        w = weight_schedule(WeightingScheme(method="exponential", alpha0=0.9), 3)
        assert np.allclose(w, [0.729, 0.81, 0.9], atol=1e-15)

    def test_linear_newest_three(self):
        w = weight_schedule(WeightingScheme(method="linear", alpha0=0.9, beta=0.9), 200)
        assert np.allclose(w[-3:], [0.8910, 0.8955, 0.9], atol=1e-12)

    def test_single_instance(self):
        assert weight_schedule(WeightingScheme(method="exponential", alpha0=0.7), 1)[0] == 0.7
        assert weight_schedule(WeightingScheme(method="none"), 1)[0] == 1.0


class TestClosedForms:
    @pytest.mark.parametrize("n", [1, 3, 200, 1650])
    def test_exponential_matches_recursion(self, n):
        w = weight_schedule(WeightingScheme(method="exponential", alpha0=0.9), n)
        assert np.max(np.abs(w - recursion_oracle("exponential", 0.9, 0.9, n))) <= 1e-15

    @pytest.mark.parametrize("n", [1, 3, 200, 1650])
    def test_linear_matches_closed_form(self, n):
        w = weight_schedule(WeightingScheme(method="linear", alpha0=0.9, beta=0.9), n)
        j = np.arange(n)
        closed = (0.9 - j * (0.9 / n))[::-1]
        assert np.max(np.abs(w - closed)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 3, 200, 1650])
    def test_linear_matches_recursion(self, n):
        # the subtractive recursion accumulates one rounding per step
        w = weight_schedule(WeightingScheme(method="linear", alpha0=0.9, beta=0.9), n)
        assert np.max(np.abs(w - recursion_oracle("linear", 0.9, 0.9, n))) <= n * 2e-16


class TestProperties:
    def test_exponential_adjacent_ratio(self):
        w = weight_schedule(WeightingScheme(method="exponential", alpha0=0.9), 50)
        ratios = w[:-1] / w[1:]
        assert np.allclose(ratios, 0.9, rtol=1e-14)

    def test_linear_adjacent_difference(self):
        n = 137
        w = weight_schedule(WeightingScheme(method="linear", alpha0=0.9, beta=0.9), n)
        assert np.allclose(np.diff(w), 0.9 / n, atol=1e-15)

    def test_positive_and_bounded(self):
        for method in ("none", "exponential", "linear"):
            w = weight_schedule(WeightingScheme(method=method, alpha0=0.9, beta=0.9), 300)
            assert np.all(w > 0)
            assert np.all(w <= (1.0 if method == "none" else 0.9) + 1e-15)
            assert np.all(np.diff(w) >= 0)

    def test_exponential_underflow_gives_exact_zeros(self):
        # 0.9**n underflows past n of about 7,070
        w = weight_schedule(WeightingScheme(method="exponential", alpha0=0.9), 7100)
        assert w[-1] == 0.9
        assert w[0] == 0.0
        assert np.all(np.diff(w) >= 0)
        assert np.count_nonzero(w) > 7000

    def test_linear_oldest_weight(self):
        n = 1650
        w = weight_schedule(WeightingScheme(method="linear", alpha0=0.9, beta=0.9), n)
        assert w[0] == pytest.approx(0.9 / n, rel=1e-9)


class TestValidation:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ConfigError):
            weight_schedule(WeightingScheme(method="linear", alpha0=0.5, beta=0.9), 3)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            WeightingScheme(method="exponential", alpha0=0.0)
        with pytest.raises(ConfigError):
            WeightingScheme(method="linear", beta=1.5)
        with pytest.raises(ConfigError):
            WeightingScheme(method="geometric")

    def test_rejects_zero_length(self):
        with pytest.raises(ConfigError):
            weight_schedule(WeightingScheme(), 0)
