import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftcast.core import ConfigError
from driftcast.stats import (
    chi2_sf,
    control_comparisons,
    format_p,
    friedman_test,
    hochberg,
    rank_rows,
    run_rank_tests,
)
from reference import rank_rows as tie_walk_ranks

mpmath.mp.dps = 40


def chi2_sf_oracle(x, df):
    """High-precision regularized upper incomplete gamma via mpmath."""
    return float(mpmath.gammainc(df / 2.0, x / 2.0, mpmath.inf, regularized=True))


class TestRankRows:
    def test_direct_ordering(self):
        ranks = rank_rows(np.array([[0.3, 0.1, 0.2], [0.3, 0.1, 0.2]]))
        assert np.array_equal(ranks[0], [3, 1, 2])

    def test_tie_averaging(self):
        ranks = rank_rows(np.array([[0.5, 0.5, 0.9], [1.0, 2.0, 3.0]]))
        assert np.array_equal(ranks[0], [1.5, 1.5, 3.0])

    def test_full_tie(self):
        ranks = rank_rows(np.full((3, 4), 2.0))
        assert np.all(ranks == 2.5)

    def test_row_sums_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            errors = rng.choice([0.1, 0.2, 0.3, 0.4], size=(5, k))
            ranks = rank_rows(errors)
            assert np.allclose(ranks.sum(axis=1), k * (k + 1) / 2)

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            rank_rows(np.array([[1.0, np.nan], [1.0, 2.0]]))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_tie_walk(self, data):
        # few distinct values, so most rows hold ties; -0.0 ties with 0.0
        shape = (data.draw(st.integers(2, 40)), data.draw(st.integers(2, 16)))
        errors = data.draw(arrays(np.float64, shape, elements=st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 3.0])))
        ranks = rank_rows(errors)
        assert ranks.dtype == np.float64
        assert np.array_equal(ranks, tie_walk_ranks(errors))


class TestFriedman:
    def test_no_discrimination(self):
        ranks = rank_rows(np.full((5, 4), 1.0))
        stat, p = friedman_test(ranks)
        assert stat == 0.0
        assert p == 1.0

    def test_hand_derived_example(self):
        # 3 series, 3 methods, identical ordering in every row
        errors = np.array([[1.0, 2.0, 3.0]] * 3)
        stat, p = friedman_test(rank_rows(errors))
        assert stat == pytest.approx(6.0, abs=1e-12)
        assert p == pytest.approx(chi2_sf_oracle(6.0, 2), abs=1e-3)
        assert p == pytest.approx(0.0498, abs=1e-3)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(10)
        errors = rng.random((20, 5))
        s1 = friedman_test(rank_rows(errors))
        s2 = friedman_test(rank_rows(np.exp(3 * errors)))
        assert s1 == s2


class TestChiSquareTail:
    def test_grid_against_mpmath(self):
        rng = np.random.default_rng(2)
        stats = np.concatenate([[0.0, 1e-8, 200.0], rng.uniform(0, 200, size=47)])
        for x in stats:
            df = int(rng.integers(1, 21))
            ours = chi2_sf(float(x), df)
            ref = chi2_sf_oracle(float(x), df)
            assert abs(ours - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_extreme_tail_relative_accuracy(self):
        ours = chi2_sf(200.0, 1)
        ref = chi2_sf_oracle(200.0, 1)
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            chi2_sf(-1.0, 2)
        with pytest.raises(ConfigError):
            chi2_sf(1.0, 0)


class TestHochberg:
    def test_single_comparison(self):
        adjusted, rejected = hochberg({"m": 0.03}, alpha=0.05)
        assert adjusted["m"] == pytest.approx(0.03)
        assert rejected == {"m"}

    def test_two_equal_ps_both_rejected(self):
        adjusted, rejected = hochberg({"a": 0.04, "b": 0.04}, alpha=0.05)
        assert adjusted["a"] == pytest.approx(0.04)
        assert adjusted["b"] == pytest.approx(0.04)
        assert rejected == {"a", "b"}

    def test_all_large_no_rejections(self):
        adjusted, rejected = hochberg({"a": 0.9, "b": 0.9, "c": 0.9}, alpha=0.05)
        assert rejected == set()
        assert all(v <= 1.0 for v in adjusted.values())

    def test_adjusted_at_least_raw(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            raw = {f"m{i}": float(p) for i, p in enumerate(rng.random(6))}
            adjusted, _ = hochberg(raw)
            assert all(adjusted[k] >= raw[k] - 1e-15 for k in raw)

    def test_step_up_hand_example(self):
        # ascending 0.01, 0.04, 0.30: adjusted = min over j>=i of (m-j+1)p(j)
        adjusted, rejected = hochberg({"a": 0.01, "b": 0.04, "c": 0.30}, alpha=0.05)
        assert adjusted["c"] == pytest.approx(0.30)
        assert adjusted["b"] == pytest.approx(0.08)
        assert adjusted["a"] == pytest.approx(0.03)
        assert rejected == {"a"}

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            hochberg({})


class TestControlComparisons:
    def test_z_statistic_formula(self):
        mean_ranks = {"ctrl": 1.2, "other": 2.4}
        control, z, raw = control_comparisons(mean_ranks, n_series=30)
        assert control == "ctrl"
        k = 2
        se = math.sqrt(k * (k + 1) / (6 * 30))
        assert z["other"] == pytest.approx(1.2 / se)
        assert raw["other"] == pytest.approx(math.erfc(abs(z["other"]) / math.sqrt(2)))

    def test_control_is_min_rank(self):
        mean_ranks = {"a": 3.0, "b": 1.5, "c": 2.0}
        control, _, _ = control_comparisons(mean_ranks, 10)
        assert control == "b"


class TestPipeline:
    def test_full_tie_case(self):
        errors = np.full((10, 3), 0.7)
        result = run_rank_tests(errors, ["a", "b", "c"])
        assert result.friedman_statistic == 0.0
        assert result.friedman_p == 1.0
        assert result.rejected == set()

    def test_dominant_method_rejects_others(self):
        rng = np.random.default_rng(12)
        n = 200
        best = rng.random(n)
        errors = np.column_stack([best, best + 1.0, best + 2.0])
        result = run_rank_tests(errors, ["best", "mid", "worst"])
        assert result.control == "best"
        assert result.rejected == {"mid", "worst"}
        assert result.friedman_p < 1e-30

    def test_p_floor_rendering(self):
        assert format_p(1e-31) == "< 1e-30"
        assert format_p(0.5) == "0.5"
