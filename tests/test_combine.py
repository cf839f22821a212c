import math

import numpy as np
import pytest

from driftcast.combine import (
    CombinerState,
    PairingEnsemble,
    DEFAULT_PAIRINGS,
    ecw_step,
    gdw_step,
    observe,
    rss_point,
)
from driftcast.core import DriftcastError
from driftcast.evaluate import MethodSpec, _CombinerBank
from test_core import bits


def ecw_oracle(y_prev, yp_prev, ya_prev, yp, ya):
    """Straight-line error-contribution weighting for one step."""
    eps_p = (y_prev - yp_prev) ** 2
    eps_a = (y_prev - ya_prev) ** 2
    w_p = eps_a / (eps_p + eps_a)
    w_a = eps_p / (eps_p + eps_a)
    return w_p * yp + w_a * ya, w_p, w_a


def gdw_oracle(y_prev, comb_prev, yp_prev, ya_prev, yp, ya, w_p, w_a, eta):
    """Straight-line gradient-descent weighting, published form."""
    eps = (y_prev - comb_prev) ** 2
    g_p = -2.0 * yp_prev * eps
    g_a = -2.0 * ya_prev * eps
    w_p2 = w_p - g_p * eta
    w_a2 = w_a - g_a * eta
    return w_p2 * yp + w_a2 * ya, w_p2, w_a2


class TestRss:
    def test_examples(self):
        assert rss_point(3, 3) == 0
        assert rss_point(2, 0) == 4
        assert rss_point(-1, 1) == 4

    def test_rejects_non_finite(self):
        with pytest.raises(DriftcastError):
            rss_point(float("nan"), 1.0)


class TestEcw:
    def test_first_step_passes_all_model(self):
        pred, state = ecw_step(CombinerState(), y_partial=3.0, y_all=7.0)
        assert pred == 7.0
        assert state.pending_observe

    def test_symmetric_errors_average(self):
        state = CombinerState(step=2, prev_actual=0.0, prev_pred_partial=1.0, prev_pred_all=-1.0)
        pred, _ = ecw_step(state, 4.0, 6.0)
        assert pred == pytest.approx(5.0)

    def test_worked_example(self):
        # previous errors 1 and 3 -> weights 0.75 / 0.25
        state = CombinerState(
            step=2, prev_actual=0.0, prev_pred_partial=1.0, prev_pred_all=math.sqrt(3.0)
        )
        pred, new = ecw_step(state, 10.0, 2.0)
        assert new.w_p == pytest.approx(0.75, abs=1e-12)
        assert new.w_a == pytest.approx(0.25, abs=1e-12)
        assert pred == pytest.approx(8.0, abs=1e-12)

    def test_zero_error_fallback(self):
        state = CombinerState(step=2, prev_actual=2.0, prev_pred_partial=2.0, prev_pred_all=2.0)
        pred, new = ecw_step(state, 1.0, 3.0)
        assert new.w_p == new.w_a == 0.5
        assert pred == pytest.approx(2.0)

    def test_oracle_1000_random_tuples(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            y_prev, yp_prev, ya_prev, yp, ya = rng.normal(scale=5.0, size=5)
            if (y_prev - yp_prev) ** 2 + (y_prev - ya_prev) ** 2 == 0:
                continue
            state = CombinerState(
                step=2, prev_actual=y_prev, prev_pred_partial=yp_prev, prev_pred_all=ya_prev
            )
            pred, new = ecw_step(state, yp, ya)
            expected, w_p, w_a = ecw_oracle(y_prev, yp_prev, ya_prev, yp, ya)
            assert pred == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert new.w_p == pytest.approx(w_p, rel=1e-12)
            assert new.w_a == pytest.approx(w_a, rel=1e-12)

    def test_invariants_random_stream(self):
        rng = np.random.default_rng(6)
        state = CombinerState()
        for _ in range(200):
            yp, ya = rng.normal(size=2)
            pred, state = ecw_step(state, yp, ya)
            assert state.w_p + state.w_a == pytest.approx(1.0)
            assert 0.0 <= state.w_p <= 1.0
            assert min(yp, ya) - 1e-12 <= pred <= max(yp, ya) + 1e-12
            state = observe(state, float(rng.normal()))

    def test_lower_error_gets_higher_weight(self):
        state = CombinerState(step=2, prev_actual=0.0, prev_pred_partial=0.1, prev_pred_all=2.0)
        _, new = ecw_step(state, 1.0, 1.0)
        assert new.w_p > new.w_a

    def test_overflowing_error_sum_keeps_weights_summing_to_one(self):
        # each squared error is finite but their sum is not; the weights
        # must still sum to one, or the combined forecast reads 0
        actuals = np.array([[1e154], [9.48075191e153]])
        zeros = np.zeros((1, len(DEFAULT_PAIRINGS)))
        bank = _CombinerBank(MethodSpec(name="ECW"), 1)
        ensemble = PairingEnsemble(rule="ecw")
        for k in range(len(actuals) + 1):
            with np.errstate(over="ignore"):  # as the engine steps its banks
                combined, diverged = bank.step(zeros, zeros, actuals[k - 1])
            expected = ensemble.step({p: (0.0, 0.0) for p in DEFAULT_PAIRINGS})
            assert not diverged[0]
            assert np.array_equal(bits(combined[0]), bits(expected))
            states = [ensemble.states[p] for p in DEFAULT_PAIRINGS]
            assert [s.w_p + s.w_a for s in states] == [1.0] * len(DEFAULT_PAIRINGS)
            row = [(s.w_p, s.w_a, s.prev_pred_combined) for s in states]
            assert np.array_equal(bits(bank.weight_row()[0]), bits(np.array(row)))
            if k < len(actuals):
                ensemble.observe(float(actuals[k, 0]))


class TestGdw:
    def test_first_step(self):
        pred, state = gdw_step(CombinerState(), 3.0, 9.0)
        assert pred == 9.0
        assert state.w_p == state.w_a == 0.5

    def test_zero_error_freezes_weights(self):
        state = CombinerState(
            step=2, prev_actual=1.5, prev_pred_combined=1.5, prev_pred_partial=1.0, prev_pred_all=2.0
        )
        _, new = gdw_step(state, 1.0, 1.0)
        assert new.w_p == 0.5 and new.w_a == 0.5

    def test_worked_example(self):
        state = CombinerState(
            step=2,
            w_p=0.5,
            w_a=0.5,
            prev_actual=2.0,
            prev_pred_partial=1.0,
            prev_pred_all=1.0,
            prev_pred_combined=1.0,
            eta=0.01,
        )
        pred, new = gdw_step(state, 1.0, 1.0)
        assert new.w_p == pytest.approx(0.52, abs=1e-12)
        assert new.w_a == pytest.approx(0.52, abs=1e-12)
        assert pred == pytest.approx(1.04, abs=1e-12)

    def test_oracle_1000_random_tuples(self):
        rng = np.random.default_rng(999)
        for _ in range(1000):
            y_prev, comb_prev, yp_prev, ya_prev, yp, ya = rng.normal(scale=3.0, size=6)
            w_p, w_a = rng.uniform(-1, 2, size=2)
            eta = float(rng.uniform(0.001, 0.05))
            state = CombinerState(
                step=2,
                w_p=w_p,
                w_a=w_a,
                prev_actual=y_prev,
                prev_pred_partial=yp_prev,
                prev_pred_all=ya_prev,
                prev_pred_combined=comb_prev,
                eta=eta,
            )
            pred, new = gdw_step(state, yp, ya)
            expected, ew_p, ew_a = gdw_oracle(y_prev, comb_prev, yp_prev, ya_prev, yp, ya, w_p, w_a, eta)
            assert pred == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert new.w_p == pytest.approx(ew_p, rel=1e-12, abs=1e-12)
            assert new.w_a == pytest.approx(ew_a, rel=1e-12, abs=1e-12)

    def test_true_gradient_form(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            y_prev, comb_prev, yp_prev, ya_prev, yp, ya = rng.normal(size=6)
            state = CombinerState(
                step=2,
                prev_actual=y_prev,
                prev_pred_partial=yp_prev,
                prev_pred_all=ya_prev,
                prev_pred_combined=comb_prev,
            )
            _, new = gdw_step(state, yp, ya, true_gradient=True)
            residual = y_prev - comb_prev
            assert new.w_p == pytest.approx(0.5 + 0.01 * 2 * yp_prev * residual, rel=1e-12, abs=1e-12)

    def test_eta_zero_reproduces_half_half(self):
        rng = np.random.default_rng(7)
        state = CombinerState(eta=0.0)
        for _ in range(50):
            yp, ya = rng.normal(size=2)
            pred, state = gdw_step(state, yp, ya)
            if state.step > 1:
                assert pred == pytest.approx(0.5 * yp + 0.5 * ya)
            assert state.w_p == 0.5 and state.w_a == 0.5
            state = observe(state, float(rng.normal()))

    def test_clamp_normalizes(self):
        state = CombinerState(
            step=2,
            w_p=0.9,
            w_a=0.9,
            prev_actual=5.0,
            prev_pred_partial=4.0,
            prev_pred_all=4.0,
            prev_pred_combined=4.0,
        )
        _, new = gdw_step(state, 1.0, 1.0, clamp=True)
        assert new.w_p + new.w_a == pytest.approx(1.0)
        assert 0.0 <= new.w_p <= 1.0

        # sub-model forecasts of the opposite sign to the error push both
        # weights below 0, so both clamp to 0 and fall back to 0.5/0.5
        state = CombinerState(
            step=2,
            w_p=0.1,
            w_a=0.1,
            prev_actual=5.0,
            prev_pred_partial=-1.0,
            prev_pred_all=-2.0,
            prev_pred_combined=-0.3,
            eta=0.1,
        )
        _, unclamped = gdw_step(state, 1.0, 1.0)
        assert unclamped.w_p < 0.0 and unclamped.w_a < 0.0
        _, new = gdw_step(state, 1.0, 1.0, clamp=True)
        assert (new.w_p, new.w_a) == (0.5, 0.5)

        # the batched bank takes the same fallback on the same stream, bit for bit
        y_partial = np.array([[[-1.0, -1.0, -2.0, -2.0]], [[2.0, 3.0, 4.0, 5.0]]])  # (step, series, pairing)
        y_all = np.array([[[-2.0, -1.5, -2.0, -1.0]], [[1.0, 2.0, 3.0, 4.0]]])
        actuals = np.array([[5.0], [2.5]])
        bank = _CombinerBank(MethodSpec(name="GDW", eta=0.1, clamp=True), 1)
        ensemble = PairingEnsemble(rule="gdw", eta=0.1, clamp=True)
        for k in range(len(actuals)):
            with np.errstate(all="ignore"):
                combined, diverged = bank.step(y_partial[k], y_all[k], actuals[k - 1])
            sub = {p: (float(y_partial[k, 0, j]), float(y_all[k, 0, j])) for j, p in enumerate(DEFAULT_PAIRINGS)}
            expected = ensemble.step(sub)
            assert not diverged[0]
            assert np.array_equal(bits(combined[0]), bits(expected))
            states = [ensemble.states[p] for p in DEFAULT_PAIRINGS]
            row = [(s.w_p, s.w_a, s.prev_pred_combined) for s in states]
            assert np.array_equal(bits(bank.weight_row()[0]), bits(np.array(row)))
            ensemble.observe(float(actuals[k, 0]))
        assert [(s.w_p, s.w_a) for s in states] == [(0.5, 0.5)] * len(DEFAULT_PAIRINGS)


class TestProtocol:
    def test_observe_before_step_rejected(self):
        with pytest.raises(DriftcastError):
            observe(CombinerState(), 1.0)

    def test_double_step_rejected(self):
        _, state = ecw_step(CombinerState(), 1.0, 2.0)
        with pytest.raises(DriftcastError):
            ecw_step(state, 1.0, 2.0)

    def test_double_observe_rejected(self):
        _, state = ecw_step(CombinerState(), 1.0, 2.0)
        state = observe(state, 1.5)
        with pytest.raises(DriftcastError):
            observe(state, 1.5)

    def test_observe_rejects_non_finite_actual(self):
        _, state = ecw_step(CombinerState(), 1.0, 2.0)
        for actual in (float("nan"), float("inf")):
            with pytest.raises(DriftcastError):
                observe(state, actual)

    def test_step_counter_increments(self):
        _, state = ecw_step(CombinerState(), 1.0, 2.0)
        state = observe(state, 1.5)
        assert state.step == 2

    def test_observe_feeds_next_epsilons(self):
        _, state = ecw_step(CombinerState(), 1.0, 3.0)
        state = observe(state, 2.0)
        pred, new = ecw_step(state, 10.0, 20.0)
        # both previous errors are 1 -> equal weights
        assert pred == pytest.approx(15.0)

    def test_replay_bitwise_identical(self):
        rng = np.random.default_rng(17)
        trace = [(rng.normal(), rng.normal(), rng.normal()) for _ in range(300)]

        def run():
            state = CombinerState()
            weights = []
            for yp, ya, actual in trace:
                _, state = gdw_step(state, yp, ya)
                state = observe(state, actual)
                weights.append((state.w_p, state.w_a))
            return weights

        assert run() == run()


class TestEnsemble:
    def test_equal_predictions_pass_through(self):
        ens = PairingEnsemble(rule="ecw")
        sub = {p: (4.2, 4.2) for p in DEFAULT_PAIRINGS}
        assert ens.step(sub) == pytest.approx(4.2)

    def test_arithmetic_mean_of_first_step(self):
        ens = PairingEnsemble(rule="gdw")
        sub = {p: (0.0, v) for p, v in zip(DEFAULT_PAIRINGS, (1.0, 2.0, 3.0, 4.0))}
        # first step outputs each pairing's all-model forecast
        assert ens.step(sub) == pytest.approx(2.5)

    def test_single_pairing_matches_raw_combiner(self):
        pairing = (("exponential", "exponential"),)
        ens = PairingEnsemble(rule="ecw", pairings=pairing)
        rng = np.random.default_rng(23)
        state = CombinerState()
        for _ in range(50):
            yp, ya, actual = rng.normal(size=3)
            expected, state = ecw_step(state, yp, ya)
            state = observe(state, actual)
            got = ens.step({pairing[0]: (yp, ya)})
            ens.observe(actual)
            assert got == expected

    def test_pairing_mismatch_rejected(self):
        ens = PairingEnsemble(rule="ecw")
        with pytest.raises(DriftcastError):
            ens.step({("exponential", "exponential"): (1.0, 2.0)})

    def test_unknown_rule_rejected(self):
        with pytest.raises(DriftcastError):
            PairingEnsemble(rule="both")
