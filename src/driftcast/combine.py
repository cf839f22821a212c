"""Online combination of a recent-window model and a full-history model.

Two weighting rules over the same two-sub-model skeleton:

* error-contribution weighting (ECW): each step, the sub-model with the
  smaller previous squared error receives the complementary share of
  the total, so weights always sum to one,
* gradient-descent weighting (GDW): weights start at 0.5/0.5 and move
  by ``-eta`` times a gradient-style term built from the previous
  combined squared error; they are deliberately left unclamped and
  unnormalized (see the ``clamp`` flag for the ablation variant).

Both rules output the full-history sub-model's forecast at the first
step. States are immutable values: stepping returns a new state, and
the realized actual is fed back through :func:`observe`, which arms
the next step. Replaying a recorded stream therefore reproduces the
weight trajectory bit for bit.

:class:`PairingEnsemble` runs four such combiners for one series, one
per pairing of {exponential, linear} training weighting for the recent
and full sub-models, and averages their predictions. These scalar state
machines are the reference that the evaluation engine's batched
``_CombinerBank`` (:mod:`driftcast.evaluate`) is tested against; the
engine does not call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from driftcast.core import DriftcastError
from driftcast.evaluate import DEFAULT_ETA, DEFAULT_PAIRINGS, NON_FINITE_RSS


def rss_point(y: float, y_hat: float) -> float:
    """Single-point residual sum of squares: ``(y - y_hat)**2``."""
    if not (math.isfinite(y) and math.isfinite(y_hat)):
        raise DriftcastError(NON_FINITE_RSS)
    residual = y - y_hat
    # plain multiply: float ** raises OverflowError instead of inf
    return residual * residual


@dataclass(frozen=True)
class CombinerState:
    """Per-series online state shared by both weighting rules.

    ``step`` is 1-based; ``pending_observe`` is set between a step and
    the arrival of its actual. ``prev_pred_combined`` and ``eta`` are
    only consulted by GDW.
    """

    step: int = 1
    w_p: float = 0.5
    w_a: float = 0.5
    prev_actual: Optional[float] = None
    prev_pred_partial: Optional[float] = None
    prev_pred_all: Optional[float] = None
    prev_pred_combined: Optional[float] = None
    eta: float = DEFAULT_ETA
    pending_observe: bool = False


def _normalised(a: float, b: float) -> tuple[float, float]:
    """``a`` and ``b`` as shares of their sum; 0.5 each if it is zero.
    A sum of finite values that overflows is taken of their halves."""
    total = a + b
    if total == 0.0:
        return 0.5, 0.5
    if math.isinf(total) and math.isfinite(a) and math.isfinite(b):
        a, b = a * 0.5, b * 0.5
        total = a + b
    return a / total, b / total


def _step(state: CombinerState, y_partial: float, y_all: float, weights: Callable[[], tuple]) -> tuple[float, CombinerState]:
    """The step both rules share: step 1 passes ``y_all`` through with
    the state's weights, later steps combine with ``weights()``."""
    if state.pending_observe:
        raise DriftcastError("previous prediction has no observed actual yet")
    if state.step < 1:
        raise DriftcastError("step must be >= 1")
    if state.step == 1:
        prediction = y_all
        w_p, w_a = state.w_p, state.w_a
    else:
        w_p, w_a = weights()
        prediction = w_p * y_partial + w_a * y_all
    return prediction, replace(
        state,
        w_p=w_p,
        w_a=w_a,
        prev_pred_partial=y_partial,
        prev_pred_all=y_all,
        prev_pred_combined=prediction,
        pending_observe=True,
    )


def ecw_step(state: CombinerState, y_partial: float, y_all: float) -> tuple[float, CombinerState]:
    """One ECW prediction.

    Step 1 passes the full-history forecast through. Later steps weight
    each sub-model by the other's share of the previous step's total
    squared error; if both previous errors were zero the weights fall
    back to 0.5/0.5.
    """

    def weights() -> tuple:
        eps_p = rss_point(state.prev_actual, state.prev_pred_partial)
        eps_a = rss_point(state.prev_actual, state.prev_pred_all)
        return _normalised(eps_a, eps_p)

    return _step(state, y_partial, y_all, weights)


def gdw_step(
    state: CombinerState,
    y_partial: float,
    y_all: float,
    true_gradient: bool = False,
    clamp: bool = False,
) -> tuple[float, CombinerState]:
    """One GDW prediction.

    The default update uses gradient-style terms
    ``-2 * previous_sub_forecast * previous_combined_squared_error``.
    ``true_gradient`` swaps the squared error for the signed residual,
    which is the calculus gradient of the squared loss and makes the
    update a least-mean-squares step; ``clamp`` restricts weights to
    [0, 1] and renormalizes them to sum to one.
    """

    def weights() -> tuple:
        if true_gradient:
            err = state.prev_actual - state.prev_pred_combined
        else:
            err = rss_point(state.prev_actual, state.prev_pred_combined)
        g_p = -2.0 * state.prev_pred_partial * err
        g_a = -2.0 * state.prev_pred_all * err
        w_p = state.w_p - g_p * state.eta
        w_a = state.w_a - g_a * state.eta
        if clamp:
            return _normalised(min(max(w_p, 0.0), 1.0), min(max(w_a, 0.0), 1.0))
        return w_p, w_a

    return _step(state, y_partial, y_all, weights)


def observe(state: CombinerState, actual: float) -> CombinerState:
    """Feed back the realized value for the pending prediction and
    advance the step counter."""
    if not state.pending_observe:
        raise DriftcastError("observe() without a pending prediction")
    if not math.isfinite(actual):
        raise DriftcastError("actual must be finite")
    return replace(state, step=state.step + 1, prev_actual=actual, pending_observe=False)


@dataclass
class PairingEnsemble:
    """A bank of combiners, one per (partial, all) weighting pairing.

    ``rule`` is 'ecw' or 'gdw'. The container is mutable (it swaps in
    new immutable states); per-series ensembles are independent.
    """

    rule: str
    pairings: tuple = DEFAULT_PAIRINGS
    eta: float = DEFAULT_ETA
    true_gradient: bool = False
    clamp: bool = False
    states: dict = field(default=None)

    def __post_init__(self) -> None:
        if self.rule not in ("ecw", "gdw"):
            raise DriftcastError(f"unknown combiner rule {self.rule!r}")
        self.pairings = tuple(tuple(p) for p in self.pairings)
        if len(set(self.pairings)) != len(self.pairings) or not self.pairings:
            raise DriftcastError("pairings must be non-empty and unique")
        if self.states is None:
            self.states = {p: CombinerState(eta=self.eta) for p in self.pairings}

    def step(self, sub_predictions: Mapping[tuple, Sequence[float]]) -> float:
        """Advance every pairing and return the mean combined forecast."""
        if set(sub_predictions) != set(self.pairings):
            raise DriftcastError("sub_predictions must cover exactly the configured pairings")
        step = ecw_step if self.rule == "ecw" else partial(gdw_step, true_gradient=self.true_gradient, clamp=self.clamp)
        total = 0.0
        new_states = {}
        for pairing in self.pairings:
            y_partial, y_all = sub_predictions[pairing]
            pred, new_states[pairing] = step(self.states[pairing], y_partial, y_all)
            total += pred
        self.states = new_states
        return total / len(self.pairings)

    def observe(self, actual: float) -> None:
        self.states = {p: observe(s, actual) for p, s in self.states.items()}
