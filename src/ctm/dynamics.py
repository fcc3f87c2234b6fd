"""Recovering derivatives from timed advance tasks.

A trajectory model attaches numeric readings to a variable's attributes.
The advance of the variable from one attribute to another is verified
against a timer (the pair must reach (next value, completed) exactly at
the timer's halt); only then is the forward-difference ratio of the
readings computed.  Shrinking the timer duration and extrapolating the
ratios recovers the derivative of the reading with respect to the
parameter.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .core import ModelError, Substrate, Variable, evolve, parameter_key, parameter_table
from .timers import TimerSpec


class AdvanceCheckFailed(RuntimeError):
    """The timed advance task failed operationally; no ratio is computed."""

    def __init__(self, lam: Fraction, dlam: Fraction):
        self.lam = lam
        self.dlam = dlam
        super().__init__(f"advance task from λ={lam} over Δλ={dlam} is not performed")


class TrajectoryModel:
    """A variable together with a numeric reading for each parameter value.

    Readings are keyed like the variable's entries, by `parameter_key`;
    `reading` accepts any value `Fraction` accepts.  Equality is object
    identity.
    """

    __slots__ = ("variable", "readings")

    def __init__(self, variable: Variable, readings: Mapping[object, float]) -> None:
        self.variable = variable
        self.readings = normal = parameter_table(readings, float)
        if not normal.keys() >= variable.entries.keys():
            missing = [lam for lam in variable.domain if lam not in normal]
            raise ModelError(f"readings missing for parameters {missing}")

    @property
    def substrate(self) -> Substrate:
        return self.variable.substrate

    def reading(self, lam) -> float:
        key = parameter_key(lam)
        if key not in self.readings:
            raise ModelError(f"no reading at parameter {lam}")
        return self.readings[key]


def _advances(m: TrajectoryModel, lam: Fraction, dlam: Fraction, halts) -> bool:
    """Does every state of a non-empty v(lam) lie in v(lam + dlam) after each of halts steps?"""
    x = m.variable.attribute(lam)
    x_next = m.variable.attribute(lam + dlam)
    return bool(x.members) and all(
        evolve(m.substrate, sigma, h) in x_next.members for h in halts for sigma in x.members
    )


_FRACTIONAL_STEP = "Δλ must be a whole number of steps in this model"


def incremental_ratio(m: TrajectoryModel, lam, dlam, timer: TimerSpec | None = None) -> float:
    """Forward-difference ratio of readings over a verified advance.

    Refuses (raises AdvanceCheckFailed) whenever the timed advance task is
    not performed: the ratio is grounded in a verified task, never in bare
    arithmetic on the readings.  Without a timer the advance is checked
    against an ideal timer of duration Δλ, which halts at step Δλ from
    every start: each state of v(λ) must lie in v(λ + Δλ) after Δλ steps.
    λ + Δλ is checked against the variable's domain before any timer, so
    a Δλ far past the domain costs nothing.
    """
    lam = Fraction(lam)
    dlam = Fraction(dlam)
    if dlam <= 0:
        raise ModelError("Δλ must be positive")
    if dlam.denominator != 1:
        raise ModelError(_FRACTIONAL_STEP)
    if lam + dlam not in m.variable:
        raise ModelError(f"λ + Δλ = {lam + dlam} outside the variable's domain")
    if timer is not None and Fraction(timer.duration) != dlam:
        raise ModelError(f"timer duration {timer.duration} does not match Δλ = {dlam}")
    halts = (int(dlam),) if timer is None else timer.halts
    if not _advances(m, lam, dlam, halts):
        raise AdvanceCheckFailed(lam, dlam)
    return (m.reading(lam + dlam) - m.reading(lam)) / float(dlam)


class DerivativeEstimate(NamedTuple):
    lam: Fraction
    schedule: tuple[int, ...]
    ratios: tuple[float, ...]
    extrapolated: float
    order: float | None
    residuals: tuple[float, ...]


def _ols(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Ordinary least squares fit y = intercept + slope * x; NaNs where a sum overflows.

    Each sum is `math.fsum`'s, correctly rounded, so the fit depends neither on
    the order of the points nor on the interpreter: the built-in `sum` of floats
    rounds differently from Python 3.12 on.
    """
    n = len(xs)
    try:
        xbar = math.fsum(xs) / n
        ybar = math.fsum(ys) / n
        sxx = math.fsum((x - xbar) ** 2 for x in xs)
        sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    except (OverflowError, ValueError):  # fsum's reply to a partial sum past the float range
        return math.nan, math.nan
    if sxx == 0:
        raise ModelError("degenerate schedule: all step sizes equal")
    slope = sxy / sxx
    return ybar - slope * xbar, slope


def estimate_derivative(
    m: TrajectoryModel,
    lam,
    schedule: Sequence[int],
    timers: Mapping[int, TimerSpec] | None = None,
) -> DerivativeEstimate:
    """Ratios over a shrinking-step schedule, extrapolated to step zero.

    Each schedule entry is checked against `timers[Δλ]`, or without `timers`
    against an ideal timer of duration Δλ (see incremental_ratio); a
    schedule entry that `timers` lacks raises ModelError.  The
    extrapolated value is the intercept of the least-squares line
    ratio = L + c * Δλ; the convergence order is the log-log slope of the
    residuals against the step sizes (None when the fit is exact, as for
    linear readings).  Ratios or an extrapolation that overflow to a
    non-finite value raise ModelError.
    """
    if any(Fraction(d).denominator != 1 for d in schedule):
        raise ModelError(_FRACTIONAL_STEP)
    steps = [int(d) for d in schedule]
    if len(steps) < 3:
        raise ModelError("schedule must contain at least 3 step sizes")
    if any(b >= a for a, b in zip(steps, steps[1:])) or steps[-1] <= 0:
        raise ModelError("schedule must be strictly decreasing and positive")
    lam = Fraction(lam)
    ratios = []
    for d in steps:
        timer = None
        if timers is not None:
            timer = timers.get(d)
            if timer is None:
                raise ModelError(f"no timer for Δλ = {d}")
        ratios.append(incremental_ratio(m, lam, d, timer))
    extrapolated, _ = _ols([float(d) for d in steps], ratios)
    residuals = tuple(r - extrapolated for r in ratios)
    if not all(math.isfinite(x) for x in (*ratios, extrapolated, *residuals)):
        raise ModelError(f"ratios at λ={lam} overflow: readings too large for a finite fit")
    pts = [
        (math.log(d), math.log(abs(r)))
        for d, r in zip(steps, residuals)
        if abs(r) > 1e-12
    ]
    order: float | None
    if len(pts) < 2:
        order = None
    else:
        _, order = _ols([p[0] for p in pts], [p[1] for p in pts])
    return DerivativeEstimate(lam, tuple(steps), tuple(ratios), extrapolated, order, residuals)
