"""Estimators and verdicts of the ledger.

``run_s`` is a median of ratios: each timed slice divided by the mean of
the two calibration slices around it. Quartiles are Python's
``statistics.quantiles(values, n=4)``, the same the PR driver uses for
its own spread check.
"""

from __future__ import annotations

import statistics

from calib import CAL_REF_S

#: Keep slicing past the time budget while the slice ratios spread wider
#: than this (IQR / median), up to ``EXTEND_FACTOR`` times the budget.
#: Quartiles of fewer than ``EXTEND_MIN_SLICES`` values say nothing, so
#: a shorter run is never extended.
EXTEND_SPREAD = 0.08
EXTEND_FACTOR = 1.25
EXTEND_MIN_SLICES = 6
MIN_SLICES = 3


def summary(values) -> dict:
    """Median, quartiles, sample count and IQR/median of ``values``."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def calibrated(walls, cals) -> list:
    """``walls`` in calibrated seconds: each ``walls[i]`` divided by the
    mean of ``cals[i]`` and ``cals[i + 1]`` (the calibration slices run
    right before and right after it), times ``CAL_REF_S``."""
    if len(cals) != len(walls) + 1:
        raise ValueError("need one calibration slice around every slice")
    return [wall / ((before + after) / 2) * CAL_REF_S
            for wall, before, after in zip(walls, cals, cals[1:])]


def keep_slicing(ratios, elapsed: float, budget: float) -> bool:
    """The adaptive rule of the time-budgeted loop."""
    if len(ratios) < MIN_SLICES or elapsed < budget:
        return True
    return (len(ratios) >= EXTEND_MIN_SLICES
            and elapsed < EXTEND_FACTOR * budget
            and summary(ratios)["spread"] > EXTEND_SPREAD)


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base`` as a share of ``base``
    (negative: better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base: dict, new: dict, bound: float, better: str) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric on
    one workload. ``base`` and ``new`` are :func:`summary` dicts (exact
    metrics have spread 0). ``unresolved``: either side's own spread is
    wider than the bound, so a difference that size cannot be told from
    noise — it is not evidence of "unchanged"."""
    if max(base["spread"], new["spread"]) > bound:
        return "unresolved"
    delta = worse_by(base["median"], new["median"], better)
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "better"
    return "same"
